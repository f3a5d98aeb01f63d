//! flatten-copy: whole-buffer copies of payload on the data path.
//!
//! The engine's premise is that the NIC moves payload by gather/scatter
//! and the host only decides; a payload byte is copied at most once
//! between `send` and `on_message` (a by-copy aggregation, or a fragment
//! reassembled from pieces). In scopes marked `// madlint: hot-path`, the
//! two idioms that copy a whole buffer into a fresh allocation per call —
//! `.contiguous(` (flatten a gather list) and `.to_vec(` — are flagged;
//! segments should be read in place, through a cursor or a slice. A copy
//! that is the point stays, with `// madlint: allow(flatten-copy) — <why>`.

use crate::diag::{Diagnostic, RuleId};
use crate::parse::SourceFile;
use crate::rules::{emit, ScopeFlags, Sig};

const HINT: &str = "read the bytes where they are (a cursor over the segments, a slice of \
                    the buffer); `// madlint: allow(flatten-copy) — <why>` when the copy is \
                    the point";

/// Scan one hot-path scope.
pub fn check(f: &SourceFile, ctx: &ScopeFlags, sig: &Sig<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..sig.toks.len() {
        for name in ["contiguous", "to_vec"] {
            if sig.method(i, name) {
                emit(
                    out,
                    f,
                    ctx,
                    RuleId::FlattenCopy,
                    sig.toks[i + 1],
                    format!("`.{name}(` in a hot path copies the whole buffer per call"),
                    HINT,
                );
            }
        }
    }
}

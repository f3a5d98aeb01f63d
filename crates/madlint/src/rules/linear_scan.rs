//! linear-scan: searches whose cost grows with a queue or a window.
//!
//! The send path earns its keep when a backlog accumulates, which is
//! exactly when a per-chunk walk over that backlog turns an activation
//! quadratic. In scopes marked `// madlint: hot-path`, the element-search
//! idioms — `.retain(`, `.position(`, and `.find(` or `.any(` straight on
//! `.iter()` / `.iter_mut()` — are flagged; state should be reached by key
//! or by position instead. A scan over something small by construction stays,
//! with `// madlint: allow(linear-scan) — <bound>` naming what bounds it.

use crate::diag::{Diagnostic, RuleId};
use crate::parse::SourceFile;
use crate::rules::{emit, ScopeFlags, Sig};

const HINT: &str = "resolve the element by key or position (index, binary search, map); \
                    `// madlint: allow(linear-scan) — <bound>` when the collection is \
                    small by construction";

/// Scan one hot-path scope.
pub fn check(f: &SourceFile, ctx: &ScopeFlags, sig: &Sig<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..sig.toks.len() {
        // Token offset of the flagged method's name, and how it reads.
        let hit = if sig.method(i, "retain") {
            Some((i + 1, ".retain("))
        } else if sig.method(i, "position") {
            Some((i + 1, ".position("))
        } else if iter_call(sig, i, "iter") && sig.method(i + 4, "find") {
            Some((i + 5, ".iter().find("))
        } else if iter_call(sig, i, "iter_mut") && sig.method(i + 4, "find") {
            Some((i + 5, ".iter_mut().find("))
        } else if iter_call(sig, i, "iter") && sig.method(i + 4, "any") {
            Some((i + 5, ".iter().any("))
        } else if iter_call(sig, i, "iter_mut") && sig.method(i + 4, "any") {
            Some((i + 5, ".iter_mut().any("))
        } else {
            None
        };
        if let Some((at, idiom)) = hit {
            emit(
                out,
                f,
                ctx,
                RuleId::LinearScan,
                sig.toks[at],
                format!("`{idiom}` in a hot path walks the whole collection per call"),
                HINT,
            );
        }
    }
}

/// True when the tokens at `i..` spell the argument-less call `.name()`.
fn iter_call(sig: &Sig<'_>, i: usize, name: &str) -> bool {
    sig.method(i, name) && sig.get(i + 3).is_some_and(|t| t.is_punct(")"))
}

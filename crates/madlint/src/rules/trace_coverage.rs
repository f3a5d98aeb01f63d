//! trace-coverage: lifecycle mutations must be visible to madtrace.
//!
//! In scopes marked `// madlint: trace-covered` (the engine core and the
//! layers it assembles), any
//! function that calls a flow-lifecycle mutator — submit, shed, rendezvous
//! grant, chunk commit/complete, receiver delivery — must also emit at
//! least one `EngineEvent` — by naming one, by pushing on the sink, or
//! through the `Observer` seam (`emit`, `emit_with`, `delivered`) — or the
//! flight recorder and the Chrome export go blind for that transition. Functions whose events are pushed by a
//! callee can declare it with `// madlint: emits-trace`.
//!
//! Marker reference (all written as `// madlint:` comments):
//!
//! * `trace-covered` — scope marker; every mutator-calling function in
//!   the scope is held to the rule below.
//! * `emits-trace` — function marker: its events are pushed by a callee,
//!   so the local scan would be a false positive.
//! * `allow(trace-coverage)` — suppression of last resort; the comment
//!   must say where the transition *is* recorded.
//! * `file: deterministic-output` — not a coverage marker, but the
//!   companion contract consumers of the ring rely on: the file's
//!   exports are byte-stable for a given event stream (`trace.rs`,
//!   `prof.rs`).
//!
//! Since madprof, coverage is load-bearing beyond debugging: the
//! profiler's phase attribution telescopes over exactly these events
//! (`Admitted`, `RndvGranted`, `ChunkBound`, `Retransmit`, `Delivered`),
//! so a silent mutator doesn't just blind the flight recorder — it moves
//! nanoseconds into the wrong phase of every attribution downstream.

use crate::diag::{Diagnostic, RuleId};
use crate::parse::{Item, SourceFile};
use crate::rules::{emit, ScopeFlags, Sig};

/// Calls that change flow-lifecycle state.
const MUTATORS: &[&str] = &[
    "submit",
    "shed_oldest",
    "grant_rndv",
    "mark_rndv_requested",
    "commit_chunk",
    "complete_chunk",
    "on_chunk",
    "on_cancel",
];

/// The observer seam (`core/src/observer.rs`): the calls through which an
/// engine layer puts an event on the ring without touching the sink.
const EMITTER_METHODS: &[&str] = &["emit", "emit_with", "delivered"];

/// Scan one function in a trace-covered scope.
pub fn check(
    f: &SourceFile,
    ctx: &ScopeFlags,
    item: &Item,
    sig: &Sig<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let mut first_mutator: Option<(usize, &str)> = None;
    let mut emits = false;
    for i in 0..sig.toks.len() {
        let at = sig.toks[i];
        if at.is_ident("EngineEvent") {
            emits = true;
            break;
        }
        if at.is_ident("trace")
            && sig.get(i + 1).is_some_and(|t| t.is_punct("."))
            && sig.get(i + 2).is_some_and(|t| t.is_ident("push"))
        {
            emits = true;
            break;
        }
        if EMITTER_METHODS.iter().any(|m| sig.method(i, m)) {
            emits = true;
            break;
        }
        if first_mutator.is_none() {
            if let Some(m) = MUTATORS.iter().find(|m| sig.method(i, m)) {
                first_mutator = Some((i + 1, m));
            }
        }
    }
    if emits {
        return;
    }
    if let Some((i, m)) = first_mutator {
        emit(
            out,
            f,
            ctx,
            RuleId::TraceCoverage,
            sig.toks[i],
            format!(
                "`{}` mutates flow lifecycle state but `{}` emits no EngineEvent",
                m, item.name
            ),
            "push a madtrace event for the transition, or mark the function \
             `// madlint: emits-trace` / `allow(trace-coverage)` with the \
             reason it is covered elsewhere",
        );
    }
}

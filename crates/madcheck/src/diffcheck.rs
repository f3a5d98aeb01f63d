//! madfuzz's `perturbation` oracle: a traced run diffed against the same
//! scenario under a Nagle delay keeps the delta partition — each aligned
//! message's six phase deltas sum exactly to its latency delta — every
//! unmatched message says why, and a repeated comparison renders the same
//! bytes. A differ whose phase deltas leak nanoseconds steers every
//! regression hunt toward noise.

use madeleine::diff::diff;
use madeleine::RunSnapshot;

/// The delta partition of `base` against `bent`: every aligned pair's
/// phase deltas sum to its latency delta, every unmatched message says
/// why, and a repeated comparison renders the same bytes.
pub fn delta_findings(base: &RunSnapshot, bent: &RunSnapshot) -> Vec<String> {
    let d = diff(base, bent);
    let mut out = Vec::new();
    if d.partition_violations != 0 {
        out.push(format!(
            "the differ counted {} partition violations",
            d.partition_violations
        ));
    }
    for m in &d.aligned {
        let sum: i64 = m.phase_deltas.iter().sum();
        if sum != m.delta_ns {
            out.push(format!("{} leaks {} ns", m.key, sum - m.delta_ns));
        }
    }
    for u in d.unmatched.iter().filter(|u| !u.reason.contains("never")) {
        out.push(format!("unmatched {} gives no reason: {}", u.key, u.reason));
    }
    let d2 = diff(base, bent);
    if d.report(5) != d2.report(5) || d.to_json().render() != d2.to_json().render() {
        out.push("a repeated comparison changed the diff report bytes".to_string());
    }
    out.truncate(8);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::tests::{pair, traced_draws};
    use crate::fuzz::traced;
    use simnet::SimDuration;

    /// Twelve traced draws, half of them faulted: a same-seed re-run
    /// self-diffs to zero, and a 2 µs Nagle delay keeps the delta
    /// partition while it moves some latency.
    #[test]
    fn corpus_diffs_conform() {
        let (mut aligned, mut moved) = (0, 0);
        for spec in traced_draws(42, 6) {
            let ctx = spec.to_json().render();
            let run = |nagle| traced(&spec, nagle).cluster.run_snapshot("run");
            let base = run(SimDuration::ZERO);
            assert!(diff(&base, &run(SimDuration::ZERO)).is_zero(), "{ctx}");
            let bent = run(SimDuration::from_micros(2));
            let found = delta_findings(&base, &bent);
            assert!(found.is_empty(), "{ctx}: {found:?}");
            let d = diff(&base, &bent);
            aligned += d.aligned.len();
            moved += d.aligned.iter().filter(|m| m.delta_ns != 0).count();
        }
        assert!(aligned >= 12 * 6, "aligned pairs checked: {aligned}");
        assert!(moved > 0, "a Nagle delay must move at least one latency");
    }

    #[test]
    fn diff_check_is_deterministic() {
        let reports = || {
            let specs = traced_draws(7, 2).into_iter();
            let one = |s| {
                let base = traced(&s, SimDuration::ZERO).cluster.run_snapshot("base");
                let bent = traced(&s, SimDuration::from_micros(2)).cluster;
                let bent = bent.run_snapshot("nagle");
                let d = diff(&base, &bent);
                (
                    d.report(5),
                    d.to_json().render(),
                    delta_findings(&base, &bent),
                )
            };
            specs.map(one).collect::<Vec<_>>()
        };
        assert_eq!(reports(), reports());
    }

    /// The verifier must catch a leaking delta partition: inflate one
    /// row's wire phase without touching its lifetime.
    #[test]
    fn corrupted_delta_partition_is_flagged() {
        let run = traced(&pair(40, true), SimDuration::ZERO);
        let base = run.cluster.run_snapshot("base");
        let mut bent = run.cluster.run_snapshot("bent");
        assert!(delta_findings(&base, &bent).is_empty());
        bent.rows[0].phases[madeleine::Phase::Wire.rank() as usize] += 5;
        let found = delta_findings(&base, &bent);
        assert!(found.iter().any(|f| f.contains("leaks 5 ns")), "{found:?}");
    }
}

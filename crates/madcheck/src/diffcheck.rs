//! Conformance rule for maddiff run comparison: over a seeded corpus of
//! live traced workloads, (1) diffing a run against an identically
//! seeded re-run must be **exactly zero** in every field — no aligned
//! delta, no unmatched message, no migration, no critical-path or
//! decision divergence; (2) diffing against a deliberately perturbed
//! configuration (a doubled Nagle delay) must keep the delta-partition
//! invariant — each aligned message's six per-phase deltas sum exactly
//! to its latency delta — and report only submitted-elsewhere reasons
//! for unmatched traffic; and (3) the rendered diff report and JSON
//! must be byte-identical across repeated comparisons. A differ that
//! finds phantom deltas in identical runs, or whose phase deltas leak
//! nanoseconds, would steer every regression hunt toward noise.

use madeleine::diff::diff;
use madeleine::ids::TrafficClass;
use madeleine::RunSnapshot;
use simnet::SimDuration;

use crate::corpus::{traced_run, TracedCorpus};
use crate::report::SweepReport;

/// The maddiff corpus: two classes, no express headers, and the faulted
/// half under plain loss so the `retx_recovery` phase carries weight in
/// the deltas.
const CORPUS: TracedCorpus = TracedCorpus {
    classes: &[TrafficClass::DEFAULT, TrafficClass::BULK],
    msgs: (8, 8),
    gaps_ns: &[0, 400, 2_500],
    bodies: &[64, 512, 4_096],
    express_one_in: 0,
    faults: |plan| plan.with_loss(0.02),
};

/// An empty maddiff report: corpus workloads diffed, aligned message
/// pairs whose delta partition was verified, and aligned pairs in the
/// perturbed comparisons with a nonzero delta (the perturbation must
/// actually move something).
fn new_report(samples: usize) -> SweepReport {
    let mut report = SweepReport::new(
        "diff",
        "self-diffs are exactly zero and every phase delta partitions",
        &["workloads", "aligned pairs", "moved under perturbation"],
    );
    report.add("workloads", samples);
    report
}

/// Snapshot one corpus sample. `perturb` arms a 2 µs Nagle delay (the
/// default is zero) — a pure-configuration change that shifts decision
/// and queueing time without altering which messages exist, so every
/// message still aligns.
fn snapshot(seed: u64, idx: usize, perturb: bool, label: &str) -> RunSnapshot {
    let nagle = SimDuration::from_micros(if perturb { 2 } else { 0 });
    traced_run(seed, idx, &CORPUS, nagle).run_snapshot(label)
}

/// Replay the seeded corpus, verifying self-diff zero, report
/// determinism and the perturbed delta partition.
pub fn diff_check(seed: u64, samples: usize) -> SweepReport {
    let mut report = new_report(samples);
    for idx in 0..samples {
        let ctx = format!("sample {idx}");
        let base = snapshot(seed, idx, false, "base");
        if base.truncated() {
            report.findings.push(format!(
                "{ctx}: event ring overflowed ({} dropped)",
                base.dropped_events
            ));
            continue;
        }

        // (1) Identically seeded re-run: the diff must be exactly zero,
        // and the snapshot itself must not move a byte.
        let again = snapshot(seed, idx, false, "base");
        if base.render() != again.render() {
            report.findings.push(format!(
                "{ctx}: same-seed replay changed the snapshot bytes"
            ));
        }
        let zero = diff(&base, &again);
        if !zero.is_zero() {
            report.findings.push(format!(
                "{ctx}: self-diff is not zero ({} aligned deltas, {} unmatched, report:\n{})",
                zero.aligned.iter().filter(|m| m.delta_ns != 0).count(),
                zero.unmatched.len(),
                zero.report(3)
            ));
        }

        // (2) Perturbed configuration: every aligned pair's phase
        // deltas must sum exactly to its latency delta, independently
        // of the differ's own violation counter.
        let perturbed = snapshot(seed, idx, true, "perturbed");
        let d = diff(&base, &perturbed);
        if d.partition_violations != 0 {
            report.findings.push(format!(
                "{ctx}: differ counted {} partition violations",
                d.partition_violations
            ));
        }
        for m in &d.aligned {
            report.add("aligned pairs", 1);
            if m.delta_ns != 0 {
                report.add("moved under perturbation", 1);
            }
            let sum: i64 = m.phase_deltas.iter().sum();
            if sum != m.delta_ns {
                report.findings.push(format!(
                    "{ctx}: {} phase deltas sum to {sum} ns but latency delta is {} ns",
                    m.key, m.delta_ns
                ));
            }
        }
        for u in &d.unmatched {
            if !u.reason.contains("never") {
                report.findings.push(format!(
                    "{ctx}: unmatched {} carries no provenance reason: {}",
                    u.key, u.reason
                ));
            }
        }

        // (3) Repeating the comparison must reproduce the report and
        // the JSON byte-for-byte.
        let d2 = diff(&base, &perturbed);
        if d.report(5) != d2.report(5) || d.to_json().render() != d2.to_json().render() {
            report.findings.push(format!(
                "{ctx}: repeated comparison changed the diff report bytes"
            ));
        }
        if report.findings.len() >= 32 {
            break; // a systematic differ bug needs no full listing
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_diffs_conform() {
        let r = diff_check(42, 6);
        assert!(r.is_clean(), "{r}");
        let aligned = r.count("aligned pairs");
        assert!(aligned >= 6 * 8, "aligned pairs checked: {aligned}");
        assert!(
            r.count("moved under perturbation") > 0,
            "doubling the Nagle delay must move at least one latency"
        );
    }

    #[test]
    fn diff_check_is_deterministic() {
        let a = diff_check(7, 4);
        let b = diff_check(7, 4);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.findings, b.findings);
    }

    /// The verifier must catch a leaking partition: corrupt one phase
    /// delta's underlying snapshot row and the sum check fires.
    #[test]
    fn corrupted_delta_partition_is_flagged() {
        let base = snapshot(3, 0, false, "base");
        let mut bent = snapshot(3, 0, false, "bent");
        // Inflate one row's wire phase without touching its lifetime:
        // the per-message partition inside the snapshot breaks, so the
        // diff against the honest base must flag it.
        let row = &mut bent.rows[0];
        let wire = madeleine::Phase::Wire.rank() as usize;
        row.phases[wire] += 5;
        let d = diff(&base, &bent);
        let mut report = new_report(1);
        for m in &d.aligned {
            report.add("aligned pairs", 1);
            let sum: i64 = m.phase_deltas.iter().sum();
            if sum != m.delta_ns {
                report
                    .findings
                    .push(format!("{} leaks {} ns", m.key, sum - m.delta_ns));
            }
        }
        assert!(!report.is_clean());
        assert!(report.findings[0].contains("leaks 5 ns"), "{report}");
    }
}

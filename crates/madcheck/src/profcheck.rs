//! Conformance rule for madprof latency attribution: over a seeded
//! corpus of live traced workloads, every delivered message's phase
//! durations must partition its lifetime *exactly* —
//! `admission + rndv + decision + retx + wire == delivered − submit`,
//! with the span segments sorted, non-overlapping, in-bounds, and in
//! agreement with the per-phase totals — and the profile's exports must
//! be byte-identical when the same seed is replayed. A profiler that
//! loses or invents nanoseconds is worse than no profiler: its shares
//! steer tuning toward phases that never held the time.
//!
//! Like the other madcheck rules the verdict is re-derived
//! independently: the partition is checked span-by-span here, not read
//! back from [`Profile::partition_violations`] (which cross-checks
//! against the receiver's own latency counter and is asserted zero as
//! well). Half the corpus runs under a seeded fault plan
//! (loss + duplication + reordering) with madrel `Recover`, so the
//! `retx_recovery` phase carries real time.

use madeleine::harness::Cluster;
use madeleine::ids::TrafficClass;
use madeleine::Profile;
use simnet::SimDuration;

use crate::corpus::{traced_run, TracedCorpus};
use crate::report::SweepReport;

/// The madprof corpus: three classes, bursts and drains, a third of the
/// messages express-led, and the faulted half under loss + duplication
/// + reordering.
const CORPUS: TracedCorpus = TracedCorpus {
    classes: &[
        TrafficClass::DEFAULT,
        TrafficClass::CONTROL,
        TrafficClass::BULK,
    ],
    msgs: (6, 12),
    gaps_ns: &[0, 0, 500, 4_000],
    bodies: &[16, 256, 2_048, 16_384],
    express_one_in: 3,
    // One packet in five is lost: a sample is a dozen packets, and
    // `retx_recovery` has to carry real time in most of them. (At 2 % it
    // did only while the fixed 50 us timeout retransmitted every 16 KiB
    // body on a clean wire.)
    faults: |plan| {
        plan.with_loss(0.2)
            .with_dup(0.02)
            .with_reorder(0.05, SimDuration::from_nanos(2_000))
    },
};

/// Sample `idx` of the madprof corpus for `seed`, run to completion.
pub fn build_sample(seed: u64, idx: usize) -> Cluster {
    traced_run(seed, idx, &CORPUS, SimDuration::ZERO)
}

/// An empty madprof report: corpus workloads, delivered messages whose
/// partition was verified, span segments bounds-checked, messages that
/// recovered via at least one retransmission.
fn new_report(samples: usize) -> SweepReport {
    let mut report = SweepReport::new(
        "prof",
        "every phase attribution partitions its message's lifetime",
        &[
            "workloads",
            "message partitions",
            "segments",
            "retransmitted",
        ],
    );
    report.add("workloads", samples);
    report
}

/// Verify one profile span-by-span, independently of the profiler's own
/// violation counter.
fn check_profile(prof: &Profile, ctx: &str, report: &mut SweepReport) {
    if prof.truncated() {
        report.findings.push(format!(
            "{ctx}: event ring overflowed ({} dropped)",
            prof.dropped_events
        ));
    }
    if prof.partition_violations != 0 {
        report.findings.push(format!(
            "{ctx}: {} attributions disagree with the receiver's latency counter",
            prof.partition_violations
        ));
    }
    for f in &prof.flows {
        report.add("message partitions", 1);
        if f.retransmits > 0 {
            report.add("retransmitted", 1);
        }
        let lifetime = f.delivered_ns - f.submit_ns;
        let total: u64 = f.phases.iter().sum();
        if total != lifetime {
            report.findings.push(format!(
                "{ctx}: {} phases sum to {total} ns but lifetime is {lifetime} ns",
                f.key
            ));
        }
        // Segments: sorted, non-overlapping, in-bounds, and telescoping
        // to the same per-phase totals the phases array claims.
        let mut per_phase = [0u64; madeleine::PHASE_COUNT];
        let mut cursor = f.submit_ns;
        for &(phase, start, end) in &f.segments {
            report.add("segments", 1);
            if start < cursor || end < start || end > f.delivered_ns {
                report.findings.push(format!(
                    "{ctx}: {} segment {}..{} escapes [{}, {}]",
                    f.key, start, end, cursor, f.delivered_ns
                ));
                break;
            }
            per_phase[phase.rank() as usize] += end - start;
            cursor = end;
        }
        if per_phase != f.phases {
            report.findings.push(format!(
                "{ctx}: {} segment totals {per_phase:?} != phase totals {:?}",
                f.key, f.phases
            ));
        }
        if report.findings.len() >= 32 {
            return; // a systematic profiler bug needs no full listing
        }
    }
}

/// Replay the seeded corpus, profiling each workload and verifying the
/// partition invariant; every sample is rebuilt and re-profiled to pin
/// byte-identical exports.
pub fn prof_check(seed: u64, samples: usize) -> SweepReport {
    let mut report = new_report(samples);
    for idx in 0..samples {
        let prof = build_sample(seed, idx).profile();
        check_profile(&prof, &format!("sample {idx}"), &mut report);
        if report.findings.len() >= 32 {
            break;
        }
        // Same seed, fresh cluster: the exports must not move a byte.
        let again = build_sample(seed, idx).profile();
        if again.attribution_csv() != prof.attribution_csv()
            || again.folded_stacks() != prof.folded_stacks()
        {
            report.findings.push(format!(
                "sample {idx}: same-seed replay changed the profile exports"
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use madeleine::Phase;

    #[test]
    fn corpus_attributions_partition_exactly() {
        let r = prof_check(42, 8);
        assert!(r.is_clean(), "{r}");
        let (messages, segments) = (r.count("message partitions"), r.count("segments"));
        assert!(messages >= 8 * 6, "messages checked: {messages}");
        assert!(segments >= messages, "segments checked: {segments}");
        assert!(
            r.count("retransmitted") > 0,
            "the faulted half must exercise retx_recovery"
        );
    }

    #[test]
    fn prof_check_is_deterministic() {
        let a = prof_check(7, 4);
        let b = prof_check(7, 4);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.findings, b.findings);
    }

    /// The verifier itself must catch a broken partition: corrupt one
    /// span and both the sum check and the segment telescoping fire.
    #[test]
    fn corrupted_partition_is_flagged() {
        let mut prof = build_sample(3, 0).profile();
        let f = &mut prof.flows[0];
        f.phases[Phase::Wire.rank() as usize] += 1;
        let mut report = new_report(1);
        check_profile(&prof, "corrupted", &mut report);
        assert!(!report.is_clean());
        assert!(
            report.findings.iter().any(|f| f.contains("lifetime")),
            "{:?}",
            report.findings
        );
    }
}

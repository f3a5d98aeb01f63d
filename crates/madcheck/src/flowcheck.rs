//! Conformance rule for the madflow active-flow index: the incremental
//! counters and sets in [`madeleine::flowmgr::FlowIndex`] must always
//! agree with a brute-force walk of the flow table — the O(full-table)
//! scan the index exists to replace. A drifting index is silent data
//! corruption: `collect_candidates` skips flows it believes idle, and
//! admission control budgets against backlog bytes that do not exist.
//!
//! Like the other madcheck rules the verdict is re-derived independently
//! over the seeded backlog corpus, then re-checked after every mutating
//! operation the collect layer exposes (candidate collection under both
//! fairness modes, per-class shedding, fresh submits).

use std::collections::BTreeSet;

use madeleine::collect::CollectLayer;
use madeleine::flowmgr::{class_slot, FairnessMode, CLASS_SLOTS};
use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use nicdrv::calib;
use simnet::SimTime;

use crate::backlog::ANALYZED_RAIL;
use crate::corpus::corpus;
use crate::report::SweepReport;

/// Everything the index claims, recomputed two ways.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Snapshot {
    backlog: u64,
    by_class: [u64; CLASS_SLOTS],
    pending: u64,
    active: BTreeSet<u32>,
    class_sets: [BTreeSet<u32>; CLASS_SLOTS],
}

/// What the incremental index reports (O(1) reads).
fn indexed(c: &CollectLayer) -> Snapshot {
    let ix = c.index();
    let mut by_class = [0u64; CLASS_SLOTS];
    let mut class_sets: [BTreeSet<u32>; CLASS_SLOTS] = Default::default();
    for (slot, (bytes, set)) in by_class.iter_mut().zip(&mut class_sets).enumerate() {
        *bytes = ix.class_backlog_bytes(slot);
        *set = ix.class_ids(slot).collect();
    }
    Snapshot {
        backlog: ix.backlog_bytes(),
        by_class,
        pending: ix.pending_msgs(),
        active: ix.active_ids().collect(),
        class_sets,
    }
}

/// The same facts from a full walk of every flow and queue.
fn brute_force(c: &CollectLayer) -> Snapshot {
    let mut s = Snapshot {
        backlog: 0,
        by_class: [0; CLASS_SLOTS],
        pending: 0,
        active: BTreeSet::new(),
        class_sets: Default::default(),
    };
    for f in c.flows() {
        let slot = class_slot(f.class);
        for m in &f.queue {
            let b = m.backlog_bytes();
            s.backlog += b;
            s.by_class[slot] += b;
            s.pending += 1;
        }
        if !f.queue.is_empty() {
            s.active.insert(f.id.0);
            s.class_sets[slot].insert(f.id.0);
        }
    }
    s
}

/// Human-readable differences between the index's claims and the walk.
fn diff(ctx: &str, index: &Snapshot, walk: &Snapshot) -> Vec<String> {
    let mut out = Vec::new();
    if index.backlog != walk.backlog {
        out.push(format!(
            "{ctx}: index backlog {} bytes, full walk {} bytes",
            index.backlog, walk.backlog
        ));
    }
    if index.pending != walk.pending {
        out.push(format!(
            "{ctx}: index pending {} msgs, full walk {} msgs",
            index.pending, walk.pending
        ));
    }
    if index.active != walk.active {
        out.push(format!(
            "{ctx}: index active set {:?}, full walk {:?}",
            index.active, walk.active
        ));
    }
    for slot in 0..CLASS_SLOTS {
        if index.by_class[slot] != walk.by_class[slot] {
            out.push(format!(
                "{ctx}: class {slot} index backlog {} bytes, full walk {} bytes",
                index.by_class[slot], walk.by_class[slot]
            ));
        }
        if index.class_sets[slot] != walk.class_sets[slot] {
            out.push(format!(
                "{ctx}: class {slot} index set {:?}, full walk {:?}",
                index.class_sets[slot], walk.class_sets[slot]
            ));
        }
    }
    out
}

/// One audit point: compare both derivations, record differences.
fn audit(c: &CollectLayer, ctx: &str, report: &mut SweepReport) {
    report.add("index-vs-walk comparisons", 1);
    let findings = diff(ctx, &indexed(c), &brute_force(c));
    if report.findings.len() < 32 {
        report.findings.extend(findings);
    }
}

/// Replay the seeded corpus through every index-mutating operation,
/// auditing after each step.
pub fn flow_check(seed: u64, samples: usize) -> SweepReport {
    let caps = calib::synthetic_capabilities();
    let specs = corpus(seed, caps.rndv_threshold_hint, &caps, 1 << 20, samples);
    let mut report = SweepReport::new(
        "flow",
        "the active-flow index matches a full walk",
        &["backlogs", "index-vs-walk comparisons", "messages shed"],
    );
    report.add("backlogs", specs.len());
    for (i, spec) in specs.iter().enumerate() {
        for mode in [FairnessMode::PackOrder, FairnessMode::Drr] {
            let mut c = spec.build();
            if mode == FairnessMode::Drr {
                c.set_fairness(FairnessMode::Drr, 2048, [1; CLASS_SLOTS]);
            }
            audit(&c, &format!("spec {i} {mode:?} fresh"), &mut report);

            // Candidate collection must not disturb the index.
            let _ = c.collect_candidates(ANALYZED_RAIL, 64, |_, _| true);
            audit(&c, &format!("spec {i} {mode:?} after collect"), &mut report);

            // Shed a little from every class: exercises note_remove,
            // including flows whose queue empties.
            for slot in 0..CLASS_SLOTS {
                let shed = c.shed_oldest(TrafficClass(slot as u8), 96);
                report.add("messages shed", shed.len());
            }
            audit(&c, &format!("spec {i} {mode:?} after shed"), &mut report);

            // A fresh submit on a (possibly re-idled) flow re-activates it.
            if !c.flows().is_empty() {
                let flow = c.flows()[0].id;
                let parts = MessageBuilder::new().pack_cheaper(&[7u8; 96]).build_parts();
                c.submit(flow, parts, SimTime::from_nanos(1), 1 << 30);
                audit(&c, &format!("spec {i} {mode:?} after submit"), &mut report);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_index_always_matches_full_walk() {
        let r = flow_check(42, 60);
        assert!(r.is_clean(), "{r}");
        let (specs, checks) = (r.count("backlogs"), r.count("index-vs-walk comparisons"));
        assert!(specs > 60, "templates plus samples: {specs}");
        assert!(checks >= specs * 2, "audits per spec: {checks}");
        assert!(
            r.count("messages shed") > 0,
            "the shed path must actually run"
        );
    }

    #[test]
    fn flow_check_is_deterministic() {
        let a = flow_check(7, 25);
        let b = flow_check(7, 25);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.findings, b.findings);
    }

    #[test]
    fn diff_reports_every_divergence_kind() {
        let clean = Snapshot {
            backlog: 10,
            by_class: [10, 0, 0, 0],
            pending: 1,
            active: BTreeSet::from([3]),
            class_sets: [
                BTreeSet::from([3]),
                BTreeSet::new(),
                BTreeSet::new(),
                BTreeSet::new(),
            ],
        };
        assert!(diff("x", &clean, &clean).is_empty());
        let mut broken = clean.clone();
        broken.backlog = 11;
        broken.pending = 2;
        broken.active.insert(9);
        broken.by_class[1] = 5;
        broken.class_sets[1].insert(9);
        let out = diff("x", &broken, &clean);
        assert_eq!(out.len(), 5, "{out:?}");
        assert!(out.iter().all(|l| l.starts_with("x: ")));
    }
}

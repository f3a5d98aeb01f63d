//! Conformance rule for the madflow active-flow index: the incremental
//! counters and sets in [`madeleine::flowmgr::FlowIndex`] must always
//! agree with a brute-force walk of the flow table — the O(full-table)
//! scan the index exists to replace. A drifting index is silent data
//! corruption: `collect_candidates` skips flows it believes idle — or
//! believes to have nothing a window could take — and admission control
//! budgets against backlog bytes that do not exist.
//!
//! Like the other madcheck rules the verdict is re-derived independently
//! over the seeded backlog corpus, then re-checked after every mutating
//! operation the collect layer exposes (candidate collection under both
//! fairness modes, rendezvous requests and grants, per-class shedding,
//! fresh submits).

use std::collections::BTreeSet;

use madeleine::collect::{CollectLayer, RndvState};
use madeleine::flowmgr::{class_slot, FairnessMode, CLASS_SLOTS};
use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use nicdrv::calib;
use simnet::{NodeId, SimTime};

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
    /// Flows with uncommitted eager or granted bytes.
    ready: BTreeSet<u32>,
    /// Flows with a rendezvous request still to send, by destination.
    asking: BTreeSet<(NodeId, u32)>,
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
        ready: ix.ready_ids().collect(),
        asking: ix.asking_ids().collect(),
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
        ready: BTreeSet::new(),
        asking: BTreeSet::new(),
    };
    for f in c.flows() {
        let slot = class_slot(f.class);
        for (_, m) in c.queue(f.id) {
            let b = m.backlog_bytes();
            s.backlog += b;
            s.by_class[slot] += b;
            s.pending += 1;
            for frag in m.frags.iter().filter(|frag| frag.remaining() > 0) {
                if !frag.rndv_blocked() {
                    s.ready.insert(f.id.0);
                } else if frag.rndv == RndvState::NeedRequest {
                    s.asking.insert((f.dst, f.id.0));
                }
            }
        }
        if f.queued() != 0 {
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
    if index.ready != walk.ready {
        out.push(format!(
            "{ctx}: index ready set {:?}, full walk {:?}",
            index.ready, walk.ready
        ));
    }
    if index.asking != walk.asking {
        out.push(format!(
            "{ctx}: index asking set {:?}, full walk {:?}",
            index.asking, walk.asking
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
                c.set_fairness(FairnessMode::Drr, 2048);
            }
            audit(&c, &format!("spec {i} {mode:?} fresh"), &mut report);

            // Candidate collection must not disturb the index, and what
            // the window's requests lead to must keep it right: every
            // offered request goes out, every second one is granted.
            let groups = c.collect_candidates(ANALYZED_RAIL, 64, |_, _| true);
            for (n, r) in groups.iter().flat_map(|g| &g.rndv).enumerate() {
                c.mark_rndv_requested(r.flow, r.seq, r.frag);
                if n % 2 == 0 {
                    c.grant_rndv(r.flow, r.seq, r.frag);
                }
            }
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
            ready: BTreeSet::from([3]),
            asking: BTreeSet::new(),
        };
        assert!(diff("x", &clean, &clean).is_empty());
        let mut broken = clean.clone();
        broken.backlog = 11;
        broken.pending = 2;
        broken.active.insert(9);
        broken.by_class[1] = 5;
        broken.class_sets[1].insert(9);
        broken.ready.clear();
        broken.asking.insert((NodeId(1), 3));
        let out = diff("x", &broken, &clean);
        assert_eq!(out.len(), 7, "{out:?}");
        assert!(out.iter().all(|l| l.starts_with("x: ")));
    }
}

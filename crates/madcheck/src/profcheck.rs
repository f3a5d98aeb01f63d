//! madfuzz's `partition` oracle: on a traced run, each delivered
//! message's six phases partition its lifetime exactly — `admission +
//! rndv + decision + retx + wire == delivered − submit` — span by span,
//! and its profiled retransmissions match a recount from the engine rings.
//! The verdict is re-derived here, not read back from
//! [`Profile::partition_violations`] (which must read 0 as well). A
//! profiler that loses or invents nanoseconds steers tuning toward phases
//! that never held the time.

use std::collections::{BTreeMap, BTreeSet};

use madeleine::harness::Cluster;
use madeleine::{EngineEvent, MsgKey, Profile};

/// Each message's retransmissions, recounted from the engine rings: a
/// re-sent packet counts once for every distinct message it carried.
pub fn retransmits(c: &Cluster) -> BTreeMap<MsgKey, u32> {
    let mut count = BTreeMap::new();
    for (node, h) in c
        .nodes
        .iter()
        .zip(&c.handles)
        .filter_map(|(n, h)| Some((n.0, h.opt()?)))
    {
        let mut carried: BTreeMap<u64, BTreeSet<MsgKey>> = BTreeMap::new();
        for rec in h.trace().iter() {
            match rec.event {
                EngineEvent::ChunkBound {
                    flow, seq, cookie, ..
                } => {
                    let key = MsgKey {
                        src: node,
                        flow: flow.0,
                        seq,
                    };
                    carried.entry(cookie).or_default().insert(key);
                }
                EngineEvent::Retransmit {
                    old_cookie,
                    new_cookie,
                    ..
                } => {
                    let msgs = carried.get(&old_cookie).cloned().unwrap_or_default();
                    msgs.iter()
                        .for_each(|&key| *count.entry(key).or_default() += 1);
                    carried.insert(new_cookie, msgs);
                }
                _ => {}
            }
        }
    }
    count
}

/// The partition of one profile, span by span, independent of the
/// profiler's own violation counter (which must read 0 too), and each
/// message's retransmissions against the ring's `retransmits`: one line
/// per broken message, eight at most.
pub fn partition_findings(prof: &Profile, retransmits: &BTreeMap<MsgKey, u32>) -> Vec<String> {
    let mut out = Vec::new();
    if prof.truncated() {
        out.push(format!(
            "the event ring overflowed ({} dropped)",
            prof.dropped_events
        ));
    }
    if prof.partition_violations != 0 {
        let n = prof.partition_violations;
        out.push(format!(
            "{n} attributions disagree with the receiver's latency counter"
        ));
    }
    for f in &prof.flows {
        let resent = retransmits.get(&f.key).copied().unwrap_or(0);
        if f.retransmits != resent {
            out.push(format!(
                "{} retransmitted {resent} times, profiled {}",
                f.key, f.retransmits
            ));
        }
        let lifetime = f.delivered_ns - f.submit_ns;
        let total: u64 = f.phases.iter().sum();
        if total != lifetime {
            out.push(format!(
                "{} phases sum to {total} ns but lifetime is {lifetime} ns",
                f.key
            ));
        }
        // Segments: sorted, non-overlapping, in bounds, and telescoping to
        // the per-phase totals the phases array claims.
        let mut per_phase = [0u64; madeleine::PHASE_COUNT];
        let mut cursor = f.submit_ns;
        for &(phase, start, end) in &f.segments {
            if start < cursor || end < start || end > f.delivered_ns {
                out.push(format!(
                    "{} segment {start}..{end} escapes [{cursor}, {}]",
                    f.key, f.delivered_ns
                ));
                break;
            }
            per_phase[phase.rank() as usize] += end - start;
            cursor = end;
        }
        if per_phase != f.phases {
            out.push(format!(
                "{} segment totals {per_phase:?} != phases {:?}",
                f.key, f.phases
            ));
        }
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

    /// Twelve traced draws, half of them faulted, and the faulted pair:
    /// every message's phases partition its lifetime.
    #[test]
    fn corpus_attributions_partition_exactly() {
        let (mut messages, mut resent) = (0, 0);
        for spec in traced_draws(42, 6).into_iter().chain([pair(40, true)]) {
            let c = traced(&spec, SimDuration::ZERO).cluster;
            let (prof, counts) = (c.profile(), retransmits(&c));
            let found = partition_findings(&prof, &counts);
            assert!(found.is_empty(), "{}: {found:?}", spec.to_json().render());
            messages += prof.flows.len();
            resent += counts.values().filter(|&&n| n > 0).count();
        }
        assert!(messages >= 13 * 6, "messages checked: {messages}");
        assert!(resent > 0, "the faulted runs must exercise retx_recovery");
    }

    #[test]
    fn prof_check_is_deterministic() {
        let exports = || {
            let specs = traced_draws(7, 2).into_iter();
            let runs = specs.map(|s| traced(&s, SimDuration::ZERO).cluster);
            let one = |c: Cluster| {
                let prof = c.profile();
                let found = partition_findings(&prof, &retransmits(&c));
                (prof.attribution_csv(), prof.folded_stacks(), found)
            };
            runs.map(one).collect::<Vec<_>>()
        };
        assert_eq!(exports(), exports());
    }

    /// The verifier itself must catch a broken partition (one span
    /// corrupted) and a message whose retransmissions it miscounts.
    #[test]
    fn corrupted_partition_is_flagged() {
        let run = traced(&pair(40, true), SimDuration::ZERO);
        let (mut prof, resent) = (run.cluster.profile(), retransmits(&run.cluster));
        assert!(partition_findings(&prof, &resent).is_empty());
        assert!(
            resent.values().any(|&n| n > 0),
            "the faulted pair retransmits"
        );
        let f = &mut prof.flows[0];
        f.phases[madeleine::Phase::Wire.rank() as usize] += 1;
        f.retransmits += 1;
        let found = partition_findings(&prof, &resent);
        assert!(found.iter().any(|f| f.contains("lifetime")), "{found:?}");
        assert!(found.iter().any(|f| f.contains("profiled")), "{found:?}");
    }
}

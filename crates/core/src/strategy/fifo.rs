//! FIFO fallback: send the oldest schedulable chunk, alone.
//!
//! This is the paper's "one-to-one mapping ... selected as a fallback"
//! degenerate policy (§1) expressed as a strategy: no merging, no
//! reordering, packets leave in submission order. It is always registered,
//! guaranteeing the optimizer can make progress even when every other
//! strategy declines (e.g. a one-chunk backlog), and it is the baseline
//! competitor inside the scoring loop — aggregation only happens when it
//! actually scores better.
//!
//! When the oldest chunk is not the window's first, its lone packet jumps
//! the chunks in front of it. The score settles whether that is worth it:
//! the lone packet delivers one message for a packet's fixed cost, so it
//! loses to a packet that carries the same message in order among others
//! unless its class weight or the others' size says otherwise.

// madlint: file: hot-path

use crate::strategy::{fill_packet, OptContext, Proposals, Strategy};

/// Oldest-chunk-alone fallback strategy.
#[derive(Debug, Default)]
pub struct FifoFallback;

impl FifoFallback {
    /// Construct.
    pub fn new() -> Self {
        FifoFallback
    }
}

impl Strategy for FifoFallback {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        // Oldest candidate across all destinations.
        let oldest = ctx
            .groups
            .iter()
            .flat_map(|g| g.candidates.iter().map(move |c| (g.dst, c)))
            .min_by_key(|(_, c)| (c.submitted_at, c.flow, c.seq, c.frag));
        let Some((dst, c)) = oldest else { return };
        fill_packet(ctx, dst, std::slice::from_ref(c), 1, self.name(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::cost::{beats, cheapest_injection, chunks_value, density};
    use crate::ids::TrafficClass;
    use crate::plan::{DstGroup, PlanRef};
    use crate::strategy::testutil::{cand, ctx_fixture};
    use crate::strategy::EagerAggregation;
    use nicdrv::{calib, CostModel};
    use simnet::{NetworkParams, NodeId, SimTime, Technology};

    #[test]
    fn picks_globally_oldest_candidate() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let mut young = cand(0, 0, 0, 0, 64, false, TrafficClass::DEFAULT, 0);
        young.submitted_at = SimTime::from_nanos(900);
        let mut old = cand(1, 0, 0, 0, 64, false, TrafficClass::DEFAULT, 0);
        old.submitted_at = SimTime::from_nanos(100);
        let groups = vec![
            DstGroup {
                dst: NodeId(1),
                candidates: vec![young],
                rndv: vec![],
            },
            DstGroup {
                dst: NodeId(2),
                candidates: vec![old],
                rndv: vec![],
            },
        ];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        FifoFallback::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, NodeId(2));
        assert_eq!(out[0].chunk_count(), 1);
    }

    /// What `aggregate` and then `fifo` propose on MX for one destination
    /// whose window is `young` fresh messages of `size` bytes, one flow,
    /// then one of another flow that has waited half a millisecond — and
    /// which of the proposals scores best, each injected the cheapest way.
    fn behind_a_young_flow(
        young: u32,
        size: u32,
        aggregate: bool,
    ) -> (Vec<(&'static str, usize)>, &'static str) {
        let caps = calib::capabilities(Technology::MyrinetMx);
        let cost = CostModel::from_params(&calib::params(Technology::MyrinetMx));
        let cfg = EngineConfig::default();
        let mut candidates: Vec<_> = (0..young)
            .map(|seq| cand(0, seq, 0, 0, size, false, TrafficClass::DEFAULT, 100))
            .collect();
        candidates.push(cand(
            1,
            0,
            0,
            0,
            size,
            false,
            TrafficClass::DEFAULT,
            500_000,
        ));
        for (at, c) in candidates.iter_mut().enumerate() {
            c.at = at as u32;
        }
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates,
            rndv: vec![],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        if aggregate {
            EagerAggregation::new().propose(&ctx, &mut out);
        }
        FifoFallback::new().propose(&ctx, &mut out);
        let score = |p: PlanRef<'_>| {
            let framing = p.framing(|c| crate::cost::window_header(c, p.dst, &ctx));
            let bytes = p.payload_bytes() + framing.expect("the window offers it");
            let how = cheapest_injection(&caps, &cost, p.chunk_count(), bytes, true);
            let how = how.expect("every proposal is injectable");
            density(chunks_value(p.dst, p.chunks(), &[], &ctx), how.busy, &ctx)
        };
        let best = out
            .iter()
            .map(|p| (p.strategy, score(p)))
            .reduce(|best, p| if beats(p.1, best.1) { p } else { best });
        let proposed = out.iter().map(|p| (p.strategy, p.chunk_count())).collect();
        (proposed, best.expect("fifo proposes").0)
    }

    #[test]
    fn an_old_small_chunk_rides_the_packet_that_reaches_it_in_order() {
        // Sixty-four 64-byte messages: the full packet delivers them all
        // for little more than the lone packet's fixed cost.
        assert_eq!(
            behind_a_young_flow(63, 64, true),
            (
                vec![("aggregate", 64), ("aggregate-gather", 15), ("fifo", 1)],
                "aggregate"
            )
        );
        // With nothing to ride, it goes alone.
        assert_eq!(
            behind_a_young_flow(63, 64, false),
            (vec![("fifo", 1)], "fifo")
        );
    }

    #[test]
    fn an_old_large_chunk_rides_it_too() {
        // Four 8 KiB messages: four deliveries for one fixed cost and four
        // chunks' wire time beat one delivery for one of each.
        assert_eq!(
            behind_a_young_flow(3, 8 << 10, true),
            (vec![("aggregate", 4), ("fifo", 1)], "aggregate")
        );
    }

    #[test]
    fn empty_backlog_proposes_nothing() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups: Vec<DstGroup> = vec![];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        FifoFallback::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert!(out.is_empty());
    }
}

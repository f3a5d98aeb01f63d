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
//! the chunks in front of it. Where a packet of the pass already takes the
//! window in order as far as that chunk, the jump saves the chunk the rest
//! of that packet's wire time and costs every other chunk of it the lone
//! packet's fixed cost, so FIFO asks the rail's cost model which is worth
//! more ([`rides_better`]): for chunks whose wire time is below a packet's
//! fixed cost it is the ride. Proposing the jump anyway made the
//! age-weighted score take it over and over on a deep backlog whose window
//! opens with a young flow: old 64-byte messages left one chunk per packet,
//! at four times a full packet's cost per chunk, for as long as it took
//! the young ones to age.

// madlint: file: hot-path

use crate::cost::cheapest_injection;
use crate::plan::{ChunkCandidate, PlannedChunk};
use crate::proto::{framing_of, lone_chunk_framing, Framing};
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
        let carrier = out.in_order_carrier(dst, c);
        if !carrier.is_some_and(|carrier| rides_better(ctx, carrier.chunks(), c)) {
            fill_packet(ctx, dst, std::slice::from_ref(c), 1, self.name(), out);
        }
    }
}

/// Whether window entry `c`, which `carrier` takes whole at its window
/// place, is better left to ride it than sent alone first, the carrier
/// following without it: whether the carrier's chunks, `c` among them,
/// complete no later on the mean when it goes as proposed. With `n` chunks
/// that is `n × busy(carrier) ≤ busy(lone) + (n − 1) × (busy(lone) +
/// busy(carrier without c))`, every busy time the rail's cheapest
/// injection. For `n` chunks of one size it is "a chunk's wire time is
/// below a packet's fixed cost"; a list the rail cannot price either way
/// leaves the lone packet proposed.
fn rides_better(ctx: &OptContext<'_>, carrier: &[PlannedChunk], c: &ChunkCandidate) -> bool {
    let busy = |chunks: usize, bytes: u64| {
        let how = cheapest_injection(ctx.caps, ctx.cost, chunks, bytes, ctx.config.enable_gather);
        how.map(|how| u128::from(how.busy.as_nanos()))
    };
    let payload: u64 = carrier.iter().map(|k| u64::from(k.len)).sum();
    let mut rest = Framing::new();
    for (i, k) in carrier.iter().enumerate() {
        if i != c.at as usize {
            rest.push(k.flow, k.seq, k.offset);
        }
    }
    let n = carrier.len();
    let alone = busy(1, u64::from(c.remaining) + lone_chunk_framing(c.offset));
    let all = busy(n, payload + framing_of(carrier));
    let rest = busy(n - 1, payload - u64::from(c.remaining) + rest.bytes());
    let (Some(alone), Some(all), Some(rest)) = (alone, all, rest) else {
        return false;
    };
    let n = n as u128;
    n * all <= alone + (n - 1) * (alone + rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::ids::TrafficClass;
    use crate::plan::DstGroup;
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
    /// then one of another flow that has waited half a millisecond.
    fn behind_a_young_flow(young: u32, size: u32, aggregate: bool) -> Vec<(&'static str, usize)> {
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
        out.iter().map(|p| (p.strategy, p.chunk_count())).collect()
    }

    #[test]
    fn an_old_small_chunk_rides_the_packet_that_reaches_it_in_order() {
        // Sixty-four 64-byte chunks: a chunk's wire time is below the
        // packet's fixed cost, so the lone packet is not proposed.
        assert_eq!(
            behind_a_young_flow(63, 64, true),
            [("aggregate", 64), ("aggregate-gather", 15)]
        );
        // With nothing to ride, it goes alone.
        assert_eq!(behind_a_young_flow(63, 64, false), [("fifo", 1)]);
    }

    #[test]
    fn an_old_large_chunk_still_goes_alone() {
        // Four 8 KiB chunks: the wire time of the ones the lone packet
        // passes outweighs its fixed cost.
        assert_eq!(
            behind_a_young_flow(3, 8 << 10, true),
            [("aggregate", 4), ("fifo", 1)]
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

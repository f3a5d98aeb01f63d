//! Cross-flow eager aggregation — the optimization the paper singles out:
//! "the aggregation of eager segments collected from several independent
//! communication flows brings huge performance gains" (§4).
//!
//! For each destination with more than one schedulable chunk, propose one
//! packet that merges as many chunks as fit, oldest first — and, where
//! that is more chunks than the hardware gathers, a second one trimmed to
//! the gather width. What ends a packet is the rail (`ctx.packet_limit`)
//! or the window, not a chunk count: whether a long list goes out by copy
//! or as a gather list, by PIO or DMA, is the cost model's choice, not this
//! strategy's.

// madlint: file: hot-path

use crate::constraints::max_gather_chunks;
use crate::strategy::{fill_packet, OptContext, Proposals, Strategy};

/// Cross-flow eager aggregation strategy.
#[derive(Debug, Default)]
pub struct EagerAggregation;

impl EagerAggregation {
    /// Construct.
    pub fn new() -> Self {
        EagerAggregation
    }
}

impl Strategy for EagerAggregation {
    fn name(&self) -> &'static str {
        "aggregate"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        for g in ctx.groups {
            if g.candidates.len() < 2 {
                continue; // nothing to merge; FIFO covers the single case
            }
            let full = fill_packet(ctx, g.dst, &g.candidates, usize::MAX, self.name(), out);
            let Some(chunks) = full.map(|plan| plan.chunk_count()) else {
                continue;
            };
            if chunks < 2 {
                out.pop();
            }
            // A maximal fill wider than the hardware gathers goes out by
            // copy unless PIO streams it, so also offer the list trimmed
            // to the gather width — scoring arbitrates copy-the-lot vs
            // gather-a-bit-less.
            let gather_cap = max_gather_chunks(ctx.caps);
            if gather_cap >= 2 && gather_cap < chunks {
                let trimmed = fill_packet(
                    ctx,
                    g.dst,
                    &g.candidates,
                    gather_cap,
                    "aggregate-gather",
                    out,
                );
                if trimmed.is_some_and(|p| p.chunk_count() < 2) {
                    out.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::ids::TrafficClass;
    use crate::plan::DstGroup;
    use crate::strategy::testutil::{cand, ctx_fixture};
    use nicdrv::{calib, CostModel};
    use simnet::{NetworkParams, NodeId};

    fn group(n: usize, size: u32) -> DstGroup {
        DstGroup {
            dst: NodeId(1),
            candidates: (0..n)
                .map(|i| cand(i as u32, 0, 0, 0, size, false, TrafficClass::DEFAULT, 0))
                .collect(),
            rndv: vec![],
        }
    }

    #[test]
    fn merges_chunks_from_distinct_flows() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![group(5, 64)];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        EagerAggregation::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].chunk_count(), 5);
        assert_eq!(out[0].payload_bytes(), 320);
        assert_eq!(out[0].strategy, "aggregate");
    }

    #[test]
    fn single_candidate_defers_to_fifo() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![group(1, 64)];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        EagerAggregation::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert!(out.is_empty());
    }

    #[test]
    fn caps_chunk_count() {
        // The rail and the window cap a packet, not a chunk count: forty
        // 8-byte messages all ride a 64 KiB packet, a packet of 2 +
        // 10 × (30 + 8) bytes takes ten of them, and one byte less cuts
        // the tenth short.
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![group(40, 8)];
        let mut ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let full = |ctx: &OptContext<'_>| {
            let mut out = Proposals::new();
            EagerAggregation::new().propose(ctx, &mut out);
            let plan = out.get(0);
            (plan.chunk_count(), plan.payload_bytes())
        };
        assert_eq!(full(&ctx), (40, 320));
        ctx.packet_limit = 2 + 10 * (30 + 8);
        assert_eq!(full(&ctx), (10, 80));
        ctx.packet_limit -= 1;
        assert_eq!(full(&ctx), (10, 79));
    }

    #[test]
    fn proposes_per_destination() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let mut g2 = group(3, 32);
        g2.dst = NodeId(2);
        let groups = vec![group(3, 32), g2];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        EagerAggregation::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert_eq!(out.len(), 2);
        assert_ne!(out[0].dst, out[1].dst);
    }

    #[test]
    fn prefers_zero_copy_on_capable_hardware() {
        // The strategy names no mode; its list of four 4 KiB chunks is
        // priced as a gather list where the hardware gathers five
        // segments, and as a copy where it gathers two.
        let caps = calib::synthetic_capabilities(); // gather up to 8
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![group(4, 4096)];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        EagerAggregation::new().propose(&ctx, &mut out);
        let plan = out.get(0);
        assert!(!plan.linearized(), "a proposal names no mode");
        let (chunks, payload) = (plan.chunk_count(), plan.payload_bytes());
        let price = |caps: &nicdrv::DriverCapabilities| {
            crate::cost::cheapest_injection(caps, &cost, chunks, payload, true)
        };
        assert!(!price(&caps).expect("gathered").linearize);
        let mut narrow = caps.clone();
        narrow.max_gather_entries = 2;
        assert!(price(&narrow).expect("copied").linearize);
    }

    #[test]
    fn offers_the_gather_width_beside_a_wider_fill() {
        let caps = calib::synthetic_capabilities(); // gather up to 8
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let proposed = |n: usize, size: u32| {
            let groups = vec![group(n, size)];
            let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
            let mut out = Proposals::new();
            EagerAggregation::new().propose(&ctx, &mut out);
            let plans = out.to_plans();
            let shape = |p: &crate::plan::TransferPlan| (p.strategy, p.chunk_count());
            plans.iter().map(shape).collect::<Vec<_>>()
        };
        // Four chunks fit the eight entries (header block + 4): one list.
        assert_eq!(proposed(4, 64), [("aggregate", 4)]);
        // Twelve do not: the full fill and the seven the hardware gathers,
        // whether PIO could stream the lot (64 B each) or not (1 KiB).
        let both = [("aggregate", 12), ("aggregate-gather", 7)];
        assert_eq!(proposed(12, 64), both);
        assert_eq!(proposed(12, 1024), both);
    }
}

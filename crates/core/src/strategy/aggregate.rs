//! Cross-flow eager aggregation — the optimization the paper singles out:
//! "the aggregation of eager segments collected from several independent
//! communication flows brings huge performance gains" (§4).
//!
//! For each destination with more than one schedulable chunk, propose one
//! packet that merges as many chunks as fit, oldest first, preferring
//! zero-copy gather when the hardware allows.

// madlint: file: hot-path

use crate::constraints::max_gather_chunks;
use crate::strategy::{fill_packet, OptContext, Proposals, Strategy};

/// Default maximum chunks merged into one packet (see
/// `EngineConfig::agg_chunk_limit` for the runtime knob); bounds
/// header-table growth and keeps per-chunk framing overhead in check.
pub const MAX_AGG_CHUNKS: usize = 16;

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
        let limit = ctx.config.agg_chunk_limit;
        for g in ctx.groups {
            if g.candidates.len() < 2 {
                continue; // nothing to merge; FIFO covers the single case
            }
            let full = fill_packet(ctx, g.dst, &g.candidates, limit, false, self.name(), out);
            let Some(plan) = full else { continue };
            let (chunks, fell_back_to_copy) = (plan.chunk_count(), plan.linearized());
            if chunks < 2 {
                out.pop();
            }
            // If the maximal fill exceeded the hardware gather width (so it
            // had to linearize), also offer a zero-copy variant trimmed to
            // the gather limit — scoring arbitrates copy-the-lot vs
            // gather-a-bit-less.
            let gather_cap = max_gather_chunks(ctx.caps);
            if fell_back_to_copy && gather_cap >= 2 && gather_cap < chunks {
                let trimmed = fill_packet(
                    ctx,
                    g.dst,
                    &g.candidates,
                    gather_cap,
                    false,
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
    use crate::plan::{DstGroup, PlanBody};
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
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![group(40, 8)];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        EagerAggregation::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert_eq!(out[0].chunk_count(), MAX_AGG_CHUNKS);
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
        let caps = calib::synthetic_capabilities(); // gather up to 8
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![group(4, 64)];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        EagerAggregation::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        match &out[0].body {
            PlanBody::Data { linearize, .. } => assert!(!linearize),
            _ => unreachable!(),
        }
    }
}

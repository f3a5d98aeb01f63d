//! By-copy aggregation: the explicit *linearized* variant of cross-flow
//! merging.
//!
//! §1 frames the choice: aggregate "at the cost of additional processing"
//! or use "a gather/scatter request". Copying pays a host memcpy but hands
//! the NIC a single segment (one DMA descriptor entry, no per-segment
//! cost); gathering is zero-copy but pays per-entry descriptor costs and is
//! bounded by hardware gather width. Which wins depends on chunk sizes and
//! the driver's cost constants, so both variants are proposed and the cost
//! model decides per packet (experiment E10 maps the crossover).

// madlint: file: hot-path

use crate::strategy::{fill_packet, OptContext, Proposals, Strategy};

/// Linearized (by-copy) cross-flow aggregation.
#[derive(Debug, Default)]
pub struct CopyAggregation;

impl CopyAggregation {
    /// Construct.
    pub fn new() -> Self {
        CopyAggregation
    }
}

impl Strategy for CopyAggregation {
    fn name(&self) -> &'static str {
        "copy-agg"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        for g in ctx.groups {
            if g.candidates.len() < 2 {
                continue;
            }
            let limit = ctx.config.agg_chunk_limit;
            let plan = fill_packet(ctx, g.dst, &g.candidates, limit, true, self.name(), out);
            if plan.is_some_and(|p| p.chunk_count() < 2) {
                out.pop();
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

    #[test]
    fn always_linearizes() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: (0..3)
                .map(|i| cand(i, 0, 0, 0, 128, false, TrafficClass::DEFAULT, 0))
                .collect(),
            rndv: vec![],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        CopyAggregation::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert_eq!(out.len(), 1);
        match &out[0].body {
            PlanBody::Data { linearize, chunks } => {
                assert!(linearize);
                assert_eq!(chunks.len(), 3);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn silent_on_single_chunk_groups() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![cand(0, 0, 0, 0, 128, false, TrafficClass::DEFAULT, 0)],
            rndv: vec![],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        CopyAggregation::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert!(out.is_empty());
    }
}

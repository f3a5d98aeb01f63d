//! Rendezvous promotion: large fragments negotiate before data moves.
//!
//! §1 lists "eager, rendez-vous and remote memory access protocols" among
//! the mechanisms the library must select between. Fragments at or above
//! the rendezvous threshold are withheld from eager transmission; this
//! strategy proposes the (tiny, urgent) rendezvous-request packets that
//! unblock them. The receiver grants immediately in this implementation —
//! the protocol cost modelled is the extra round trip, which is exactly the
//! trade-off that makes the eager/rndv crossover (experiment E9).

// madlint: file: hot-path

use crate::plan::MAX_REQS_PER_DST;
use crate::strategy::{OptContext, Proposals, Strategy};

/// Rendezvous request emission strategy.
#[derive(Debug, Default)]
pub struct RendezvousPromotion;

impl RendezvousPromotion {
    /// Construct.
    pub fn new() -> Self {
        RendezvousPromotion
    }
}

impl Strategy for RendezvousPromotion {
    fn name(&self) -> &'static str {
        "rndv"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        for g in ctx.groups {
            // A window the collect layer built offers no more than the
            // quota; a hand-built one may.
            for at in 0..g.rndv.len().min(MAX_REQS_PER_DST) {
                out.push_rndv_at(ctx.channel, g, at, self.name());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::ids::{FlowId, TrafficClass};
    use crate::plan::{DstGroup, PlanBody, RndvCandidate};
    use crate::strategy::testutil::ctx_fixture;
    use nicdrv::{calib, CostModel};
    use simnet::{NetworkParams, NodeId, SimTime};

    fn rndv_cand(flow: u32) -> RndvCandidate {
        RndvCandidate {
            flow: FlowId(flow),
            seq: 0,
            frag: 0,
            frag_count: 1,
            frag_len: 1 << 20,
            express: false,
            class: TrafficClass::BULK,
            submitted_at: SimTime::ZERO,
        }
    }

    #[test]
    fn proposes_requests_for_waiting_fragments() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![],
            rndv: vec![rndv_cand(0), rndv_cand(1)],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        RendezvousPromotion::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].body, PlanBody::RndvRequest { .. }));
    }

    #[test]
    fn caps_requests_per_destination() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![],
            rndv: (0..10).map(rndv_cand).collect(),
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        RendezvousPromotion::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert_eq!(out.len(), MAX_REQS_PER_DST);
    }
}

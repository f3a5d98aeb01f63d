//! FIFO fallback: send the oldest schedulable chunk, alone.
//!
//! This is the paper's "one-to-one mapping ... selected as a fallback"
//! degenerate policy (§1) expressed as a strategy: no merging, no
//! reordering, packets leave in submission order. It is always registered,
//! guaranteeing the optimizer can make progress even when every other
//! strategy declines (e.g. a one-chunk backlog), and it is the baseline
//! competitor inside the scoring loop — aggregation only happens when it
//! actually scores better.

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
        if let Some((dst, c)) = oldest {
            fill_packet(ctx, dst, std::slice::from_ref(c), 1, self.name(), out);
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
    use simnet::{NetworkParams, NodeId, SimTime};

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

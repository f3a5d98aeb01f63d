//! Plan scoring: "estimating the value of a given packet reordering
//! operation" (§3) with the driver's capability-parameterized cost model.
//!
//! The score is a **value density**: value moved per nanosecond of
//! estimated transmit-engine occupancy,
//!
//! ```text
//!   score = (payload_bytes + Σ_chunks age_µs × class_weight × urgency_weight)
//!           ─────────────────────────────────────────────────────────────────
//!                              est_busy_ns
//! ```
//!
//! The denominator makes fixed per-packet costs (setup, descriptors,
//! framing, linearization memcpy) matter: merged packets win for small
//! chunks, and the copy-vs-gather choice lands wherever the hardware's
//! per-segment costs put it. The aging bonus in the numerator (one
//! byte-equivalent per microsecond waited, scaled by class) prevents
//! starvation and lets control traffic jump bulk queues — and because it
//! is inside the ratio, old backlogs do not drown the efficiency
//! comparison between plan variants carrying the same chunks.

// madlint: file: hot-path
// madlint: file: scoring

use simnet::{SimDuration, SimTime, TxMode};

use crate::ids::{FlowId, FragIndex, TrafficClass};
use crate::plan::{Body, DstGroup, PlanRef, TransferPlan};
use crate::strategy::OptContext;

/// Weight of the anti-starvation urgency term in plan scoring: one
/// byte-equivalent per microsecond waited, before the class weight.
pub const URGENCY_WEIGHT: f64 = 1.0;

/// A plan together with its evaluated score.
#[derive(Clone, Debug)]
pub struct ScoredPlan {
    /// The candidate plan.
    pub plan: TransferPlan,
    /// Composite score (higher is better).
    pub score: f64,
    /// Estimated transmit-engine occupancy.
    pub est_busy: SimDuration,
}

/// Total-order "strictly better" test used by plan selection. Scores are
/// compared with [`f64::total_cmp`] so a NaN (which the cost model should
/// never produce) orders deterministically instead of making the winner
/// depend on evaluation order. Ties keep the incumbent, so earlier
/// proposals win among equals.
pub fn beats(score: f64, incumbent: f64) -> bool {
    score.total_cmp(&incumbent) == std::cmp::Ordering::Greater
}

/// `(flow, seq, frag)`-keyed view of one activation window, rebuilt once
/// per selection pass in storage the optimizer keeps: scoring resolves each
/// chunk's candidate by binary search instead of walking every group.
/// Where a key repeats, the entry that comes first in window order
/// answers, as a front-to-back walk would. Entries copy the two fields
/// scoring reads, so the index borrows nothing from the window.
#[derive(Debug, Default)]
pub struct WindowIndex {
    data: Vec<(FragKey, (SimTime, TrafficClass))>,
    rndv: Vec<(FragKey, u32)>,
}

/// A fragment's `(flow, seq, frag)`.
type FragId = (FlowId, u32, FragIndex);

/// A fragment, then its position in the window: unique, so an unstable
/// sort orders equal fragments as the window does.
type FragKey = (FragId, usize);

impl WindowIndex {
    /// Index every data and rendezvous candidate of `groups`, replacing
    /// whatever was indexed before.
    pub fn rebuild(&mut self, groups: &[DstGroup]) {
        self.data.clear();
        self.rndv.clear();
        self.data
            .reserve(groups.iter().map(|g| g.candidates.len()).sum());
        self.rndv.reserve(groups.iter().map(|g| g.rndv.len()).sum());
        let data = groups.iter().flat_map(|g| g.candidates.iter());
        for (at, c) in data.enumerate() {
            let key = ((c.flow, c.seq, c.frag), at);
            self.data.push((key, (c.submitted_at, c.class)));
        }
        let rndv = groups.iter().flat_map(|g| g.rndv.iter());
        for (at, r) in rndv.enumerate() {
            self.rndv.push((((r.flow, r.seq, r.frag), at), r.frag_len));
        }
        self.data.sort_unstable_by_key(|e| e.0);
        self.rndv.sort_unstable_by_key(|e| e.0);
    }

    fn first<T: Copy>(entries: &[(FragKey, T)], frag: FragId) -> Option<T> {
        let at = entries.partition_point(|e| e.0 < (frag, 0));
        let &((found, _), value) = entries.get(at)?;
        (found == frag).then_some(value)
    }

    /// Submission time and class of a fragment's data candidate, if the
    /// window offers one.
    pub fn candidate(
        &self,
        flow: FlowId,
        seq: u32,
        frag: FragIndex,
    ) -> Option<(SimTime, TrafficClass)> {
        Self::first(&self.data, (flow, seq, frag))
    }

    /// Length of a fragment waiting for its rendezvous request, if the
    /// window offers one.
    pub fn rndv(&self, flow: FlowId, seq: u32, frag: FragIndex) -> Option<u32> {
        Self::first(&self.rndv, (flow, seq, frag))
    }
}

/// Estimate how long the transmit engine will be occupied by this plan,
/// including a linearization copy if the plan requires one.
pub fn estimate_busy(plan: PlanRef<'_>, ctx: &OptContext<'_>) -> SimDuration {
    match plan.body {
        Body::RndvRequest { .. } => {
            // A rendezvous request is a small linearized control packet.
            ctx.cost.injection_time(TxMode::Pio, plan.framing(), 1)
        }
        Body::Data { linearize, .. } => {
            let bytes = plan.payload_bytes() + plan.framing();
            let segs = plan.segment_count();
            let pio = if ctx.caps.can_pio(bytes) {
                Some(ctx.cost.injection_time(TxMode::Pio, bytes, segs))
            } else {
                None
            };
            let dma = if ctx.caps.supports_dma && (linearize || ctx.caps.can_gather(segs)) {
                Some(ctx.cost.injection_time(TxMode::Dma, bytes, segs))
            } else {
                None
            };
            let base = match (pio, dma) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                // Neither fits: validation rejects such plans; estimate
                // pessimistically so they also lose on score.
                (None, None) => ctx.cost.injection_time(TxMode::Dma, bytes, segs) * 4,
            };
            if linearize {
                base + ctx.cost.copy_time(bytes)
            } else {
                base
            }
        }
    }
}

/// Score a plan against the window it was proposed from (`window` indexes
/// `ctx.groups`): `(score, estimated busy time)`. Higher is better;
/// deterministic for identical inputs.
pub fn score_plan(
    plan: PlanRef<'_>,
    ctx: &OptContext<'_>,
    window: &WindowIndex,
) -> (f64, SimDuration) {
    let est_busy = estimate_busy(plan, ctx);
    // madrel: a degraded rail's transmissions are worth less per nanosecond
    // — its timeouts will be paid in retransmissions — so its busy time is
    // inflated by the health penalty and healthier rails win the contest.
    let busy_ns = est_busy.as_nanos().max(1) as f64 * ctx.health_penalty.max(1.0);
    let score = match plan.body {
        Body::Data { chunks, .. } => {
            let mut value = plan.payload_bytes() as f64;
            for c in chunks {
                if let Some((submitted_at, class)) = window.candidate(c.flow, c.seq, c.frag) {
                    let age_us = ctx.now.since(submitted_at).as_nanos() as f64 / 1e3;
                    value += age_us * class.urgency_weight() * URGENCY_WEIGHT;
                }
            }
            value / busy_ns
        }
        Body::RndvRequest { flow, seq, frag } => {
            // Value of a request = bandwidth it unblocks per handshake cost.
            let frag_len = window.rndv(flow, seq, frag).map_or(0.0, f64::from);
            let handshake_ns = ctx.cost.control_rtt(TxMode::Pio).as_nanos().max(1) as f64;
            frag_len / handshake_ns
        }
    };
    (score, est_busy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::ids::{ChannelId, FlowId, TrafficClass};
    use crate::plan::{DstGroup, PlanBody, PlannedChunk, RndvCandidate};
    use crate::strategy::testutil::{cand, ctx_fixture};
    use nicdrv::{calib, CostModel};
    use simnet::{NetworkParams, NodeId, SimTime};

    fn fixtures() -> (nicdrv::DriverCapabilities, CostModel, EngineConfig) {
        (
            calib::synthetic_capabilities(),
            CostModel::from_params(&NetworkParams::synthetic()),
            EngineConfig::default(),
        )
    }

    fn data_plan(chunks: Vec<PlannedChunk>, linearize: bool) -> TransferPlan {
        TransferPlan {
            channel: ChannelId(0),
            dst: NodeId(1),
            body: PlanBody::Data { chunks, linearize },
            strategy: "t",
        }
    }

    fn score(plan: &TransferPlan, ctx: &OptContext<'_>) -> ScoredPlan {
        let mut window = WindowIndex::default();
        window.rebuild(ctx.groups);
        let (score, est_busy) = score_plan(plan.view(), ctx, &window);
        ScoredPlan {
            plan: plan.clone(),
            score,
            est_busy,
        }
    }

    fn pc(flow: u32, len: u32) -> PlannedChunk {
        PlannedChunk {
            flow: FlowId(flow),
            seq: 0,
            frag: 0,
            offset: 0,
            len,
        }
    }

    #[test]
    fn aggregated_plan_outscores_single_small_chunk() {
        let (caps, cost, cfg) = fixtures();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: (0..4)
                .map(|i| cand(i, 0, 0, 0, 64, false, TrafficClass::DEFAULT, 0))
                .collect(),
            rndv: vec![],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let merged = score(&data_plan((0..4).map(|i| pc(i, 64)).collect(), false), &ctx);
        let single = score(&data_plan(vec![pc(0, 64)], false), &ctx);
        assert!(
            merged.score > single.score,
            "merged {} <= single {}",
            merged.score,
            single.score
        );
    }

    #[test]
    fn aging_raises_scores() {
        let (caps, cost, cfg) = fixtures();
        let fresh_groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![cand(0, 0, 0, 0, 64, false, TrafficClass::DEFAULT, 0)],
            rndv: vec![],
        }];
        let mut aged = fresh_groups.clone();
        aged[0].candidates[0].submitted_at = SimTime::ZERO; // 1 ms old in fixture
        let ctx_fresh = ctx_fixture(&fresh_groups, &caps, &cost, &cfg);
        let ctx_aged = ctx_fixture(&aged, &caps, &cost, &cfg);
        let plan = data_plan(vec![pc(0, 64)], false);
        assert!(score(&plan, &ctx_aged).score > score(&plan, &ctx_fresh).score);
    }

    #[test]
    fn control_class_ages_faster_than_bulk() {
        let (caps, cost, cfg) = fixtures();
        let mk = |class| {
            vec![DstGroup {
                dst: NodeId(1),
                candidates: vec![{
                    let mut c = cand(0, 0, 0, 0, 64, false, class, 0);
                    c.submitted_at = SimTime::ZERO;
                    c
                }],
                rndv: vec![],
            }]
        };
        let g_ctrl = mk(TrafficClass::CONTROL);
        let g_bulk = mk(TrafficClass::BULK);
        let plan = data_plan(vec![pc(0, 64)], false);
        let s_ctrl = score(&plan, &ctx_fixture(&g_ctrl, &caps, &cost, &cfg)).score;
        let s_bulk = score(&plan, &ctx_fixture(&g_bulk, &caps, &cost, &cfg)).score;
        assert!(s_ctrl > s_bulk);
    }

    #[test]
    fn linearized_plan_pays_copy_time() {
        let (caps, cost, cfg) = fixtures();
        let groups: Vec<DstGroup> = vec![];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let gather = data_plan(vec![pc(0, 4096), pc(1, 4096)], false);
        let gather = estimate_busy(gather.view(), &ctx);
        let copied = data_plan(vec![pc(0, 4096), pc(1, 4096)], true);
        let copied = estimate_busy(copied.view(), &ctx);
        assert!(
            copied > gather,
            "copy {copied} should exceed gather {gather} at 4 KiB chunks"
        );
    }

    #[test]
    fn rndv_request_scores_by_unblocked_bytes() {
        let (caps, cost, cfg) = fixtures();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![],
            rndv: vec![RndvCandidate {
                flow: FlowId(0),
                seq: 0,
                frag: 0,
                frag_len: 1 << 20,
                class: TrafficClass::BULK,
                submitted_at: SimTime::ZERO,
            }],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let req = TransferPlan {
            channel: ChannelId(0),
            dst: NodeId(1),
            body: PlanBody::RndvRequest {
                flow: FlowId(0),
                seq: 0,
                frag: 0,
            },
            strategy: "rndv",
        };
        let scored = score(&req, &ctx);
        // Unblocking a 1 MiB transfer should dominate small data plans.
        let small = score(&data_plan(vec![pc(0, 64)], false), &ctx);
        assert!(scored.score > small.score);
    }
}

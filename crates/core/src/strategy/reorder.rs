//! Reordering strategies: propose alternative packet *orders* for the same
//! backlog, widening the space of rearrangements the optimizer evaluates
//! (§3: accumulating packets "widens the possibilities of packet
//! reordering").
//!
//! Permutations operate on whole messages — chunks of one message keep
//! their relative order, so express constraints survive any permutation
//! this strategy produces.

// madlint: file: hot-path
// madlint: file: scoring

use std::ops::Range;

use simnet::SimTime;

use crate::plan::ChunkCandidate;
use crate::strategy::{fill_packet, OptContext, Proposals, Strategy};

/// Message-permutation proposals: shortest-message-first and
/// urgent-class-first orderings.
#[derive(Debug, Default)]
pub struct ReorderVariants;

impl ReorderVariants {
    /// Construct.
    pub fn new() -> Self {
        ReorderVariants
    }
}

/// One message's candidates: a run of adjacent window entries, with the
/// two sort keys the variants order messages by.
#[derive(Debug)]
struct MessageRun {
    at: Range<usize>,
    bytes: u64,
    urgency: f64,
    submitted_at: SimTime,
}

/// The strategy's working storage, kept by the pass's [`Proposals`] so that
/// permuting a window allocates nothing once it has held the largest one.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    runs: Vec<MessageRun>,
    order: Vec<ChunkCandidate>,
}

/// Split a window into per-message runs, in window order. The collect
/// layer offers a message's fragments back to back, so a run is a message;
/// candidates of one message that are *not* adjacent would form separate
/// runs, and a permutation that then breaks their order is vetoed by the
/// constraint checker like any other invalid proposal.
fn message_runs(cands: &[ChunkCandidate], runs: &mut Vec<MessageRun>) {
    runs.clear();
    for (i, c) in cands.iter().enumerate() {
        let same_message = |run: &MessageRun| {
            let head = &cands[run.at.start];
            head.flow == c.flow && head.seq == c.seq
        };
        match runs.last_mut().filter(|run| same_message(run)) {
            Some(run) => {
                run.at.end = i + 1;
                run.bytes += u64::from(c.remaining);
            }
            None => runs.push(MessageRun {
                at: i..i + 1,
                bytes: u64::from(c.remaining),
                urgency: c.class.urgency_weight(),
                submitted_at: c.submitted_at,
            }),
        }
    }
}

/// The window's candidates with whole messages permuted into `runs` order.
fn permuted(cands: &[ChunkCandidate], runs: &[MessageRun], out: &mut Vec<ChunkCandidate>) {
    out.clear();
    for run in runs {
        out.extend_from_slice(&cands[run.at.clone()]);
    }
}

impl Strategy for ReorderVariants {
    fn name(&self) -> &'static str {
        "reorder"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        let Scratch {
            mut runs,
            mut order,
        } = std::mem::take(&mut out.reorder);
        let limit = ctx.config.agg_chunk_limit;
        for g in ctx.groups {
            if g.candidates.len() < 2 {
                continue;
            }
            message_runs(&g.candidates, &mut runs);
            // Both orders break ties by window position (`at.start`, unique
            // per run): what a stable sort of the window gives, without
            // its buffer.
            // Variant 1: shortest message first — packs more distinct
            // messages per packet, minimizing mean completion time.
            runs.sort_unstable_by_key(|m| (m.bytes, m.at.start));
            permuted(&g.candidates, &runs, &mut order);
            fill_packet(ctx, g.dst, &order, limit, false, "reorder-sjf", out);
            // Variant 2: most urgent class first (control before bulk),
            // then oldest first within a class.
            runs.sort_unstable_by(|a, b| {
                b.urgency
                    .total_cmp(&a.urgency)
                    .then(a.submitted_at.cmp(&b.submitted_at))
                    .then(a.at.start.cmp(&b.at.start))
            });
            permuted(&g.candidates, &runs, &mut order);
            fill_packet(ctx, g.dst, &order, limit, false, "reorder-urgent", out);
        }
        out.reorder = Scratch { runs, order };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::ids::{FlowId, TrafficClass};
    use crate::plan::{DstGroup, PlanBody};
    use crate::strategy::testutil::{cand, ctx_fixture};
    use nicdrv::{calib, CostModel};
    use simnet::{NetworkParams, NodeId};

    #[test]
    fn sjf_orders_small_messages_first() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![
                cand(0, 0, 0, 0, 5000, false, TrafficClass::DEFAULT, 10),
                cand(1, 0, 0, 0, 40, false, TrafficClass::DEFAULT, 5),
            ],
            rndv: vec![],
        }];
        let mut ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        ctx.packet_limit = 2000;
        let mut out = Proposals::new();
        ReorderVariants::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        let sjf = out.iter().find(|p| p.strategy == "reorder-sjf").unwrap();
        match &sjf.body {
            PlanBody::Data { chunks, .. } => {
                // Small message's chunk comes first.
                assert_eq!(chunks[0].flow, FlowId(1));
                assert_eq!(chunks[0].len, 40);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn urgent_variant_puts_control_first() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![
                cand(0, 0, 0, 0, 64, false, TrafficClass::BULK, 10),
                cand(1, 0, 0, 0, 16, false, TrafficClass::CONTROL, 5),
            ],
            rndv: vec![],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        ReorderVariants::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        let urgent = out.iter().find(|p| p.strategy == "reorder-urgent").unwrap();
        match &urgent.body {
            PlanBody::Data { chunks, .. } => assert_eq!(chunks[0].flow, FlowId(1)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn within_message_chunk_order_is_preserved() {
        // Two chunks of the same message (frag 0 express, frag 1 body) must
        // stay in order whatever the permutation.
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![
                cand(0, 0, 0, 0, 8, true, TrafficClass::DEFAULT, 0),
                cand(0, 0, 1, 0, 64, false, TrafficClass::DEFAULT, 0),
                cand(1, 0, 0, 0, 4, false, TrafficClass::CONTROL, 0),
            ],
            rndv: vec![],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        ReorderVariants::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        for p in &out {
            if let PlanBody::Data { chunks, .. } = &p.body {
                let pos0 = chunks
                    .iter()
                    .position(|c| c.flow == FlowId(0) && c.frag == 0);
                let pos1 = chunks
                    .iter()
                    .position(|c| c.flow == FlowId(0) && c.frag == 1);
                if let (Some(a), Some(b)) = (pos0, pos1) {
                    assert!(a < b, "express chunk must precede body in {}", p.strategy);
                }
            }
        }
    }
}

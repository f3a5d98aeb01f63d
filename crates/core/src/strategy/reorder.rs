//! Reordering: propose the same backlog in another packet *order* —
//! shortest message first — widening the space of rearrangements the
//! optimizer evaluates (§3: accumulating packets "widens the possibilities
//! of packet reordering").
//!
//! The permutation moves whole messages — chunks of one message keep their
//! relative order, so express constraints survive it. There is no
//! most-urgent-class-first order beside it: the score already weighs a
//! message by its class, and such an order moved no benchmark beyond its
//! one-seed bound (EXPERIMENTS.md E11).

// madlint: file: hot-path
// madlint: file: scoring

use std::ops::Range;

use crate::plan::ChunkCandidate;
use crate::proto::{MIN_CHUNK_HEADER_BYTES, PACKET_PREFIX_BYTES};
use crate::strategy::{fill_packet, OptContext, Proposals, Strategy};

/// Message-permutation proposal: shortest message first.
#[derive(Debug, Default)]
pub struct ReorderVariants;

impl ReorderVariants {
    /// Construct.
    pub fn new() -> Self {
        ReorderVariants
    }
}

/// One message's candidates: a run of adjacent window entries, with the
/// key the strategy orders messages by.
#[derive(Debug)]
struct MessageRun {
    at: Range<usize>,
    /// What the message still has to send, inside the window or beyond
    /// its end: a message the window cuts to its header is not short.
    bytes: u64,
}

/// The strategy's working storage, kept by the pass's [`Proposals`] so that
/// permuting a window allocates nothing once it has held the largest one.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    runs: Vec<MessageRun>,
}

/// Split a window into per-message runs, in window order. The collect
/// layer offers a message's fragments back to back (the `DstGroup`
/// invariant), so a run is a message; candidates of one message that are
/// *not* adjacent would form separate runs, and a permutation that then
/// breaks their order is vetoed by the constraint checker like any other
/// invalid proposal. Returns how many runs a packet of `packet_limit`
/// bytes can read, in whatever order they are put: every candidate it
/// looks at gives it a chunk of at least a byte under a header of at least
/// [`MIN_CHUNK_HEADER_BYTES`] (and it looks at one more to find itself
/// full) — unless some candidate has no bytes left, which the collect
/// layer never offers, and then it may read them all.
fn message_runs(cands: &[ChunkCandidate], packet_limit: u64, runs: &mut Vec<MessageRun>) -> usize {
    runs.clear();
    let chunks = packet_limit.saturating_sub(PACKET_PREFIX_BYTES) / (MIN_CHUNK_HEADER_BYTES + 1);
    let mut read = usize::try_from(chunks).map_or(usize::MAX, |n| n.saturating_add(1));
    for (i, c) in cands.iter().enumerate() {
        if c.remaining == 0 {
            read = usize::MAX;
        }
        let same_message = |run: &MessageRun| {
            let head = &cands[run.at.start];
            head.flow == c.flow && head.seq == c.seq
        };
        match runs.last_mut().filter(|run| same_message(run)) {
            Some(run) => run.at.end = i + 1,
            None => runs.push(MessageRun {
                at: i..i + 1,
                bytes: c.msg_remaining,
            }),
        }
    }
    read.min(runs.len())
}

/// Sort `runs[..read]` into the places a full sort shortest-first would
/// give them; the rest are left in any order behind them. Ties go by window
/// position (`at.start`, unique per run), so there is one such arrangement:
/// what a stable sort of the window gives, without its buffer — and only as
/// far as the packet reads.
fn sort_front(runs: &mut [MessageRun], read: usize) {
    let key = |run: &MessageRun| (run.bytes, run.at.start);
    if read < runs.len() {
        runs.select_nth_unstable_by_key(read - 1, key);
    }
    runs[..read].sort_unstable_by_key(key);
}

impl Strategy for ReorderVariants {
    fn name(&self) -> &'static str {
        "reorder"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        let Scratch { mut runs } = std::mem::take(&mut out.reorder);
        for g in ctx.groups {
            if g.candidates.len() < 2 {
                continue;
            }
            // Shortest message first packs more distinct messages per
            // packet, minimizing mean completion time. The packet reads the
            // permuted candidates where they lie.
            let read = message_runs(&g.candidates, ctx.packet_limit, &mut runs);
            sort_front(&mut runs, read);
            let order = runs.iter().flat_map(|run| &g.candidates[run.at.clone()]);
            fill_packet(ctx, g.dst, order, usize::MAX, "reorder-sjf", out);
        }
        out.reorder = Scratch { runs };
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
    fn sjf_sorts_a_message_the_window_cuts_by_what_it_has_left() {
        // The window ends inside flow 0's last message: it offers the 8-byte
        // header, and the 4 KiB body lies beyond. By what the window holds
        // that message is the shortest; by what it has left it is not.
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let mut cut = cand(0, 0, 0, 0, 8, true, TrafficClass::DEFAULT, 10);
        cut.msg_remaining = 8 + 4096;
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![
                cand(1, 0, 0, 0, 300, false, TrafficClass::DEFAULT, 10),
                cand(2, 0, 0, 0, 100, false, TrafficClass::DEFAULT, 10),
                cut,
            ],
            rndv: vec![],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        ReorderVariants::new().propose(&ctx, &mut out);
        let sjf = out.iter().find(|p| p.strategy == "reorder-sjf").unwrap();
        let order: Vec<_> = sjf.chunks().iter().map(|c| c.flow.0).collect();
        assert_eq!(order, [2, 1, 0]);
    }

    #[test]
    fn sjf_at_the_shortest_headers_proposes_a_full_stable_sorts_packet() {
        // Sixty messages of one byte, or of one byte then a second whose
        // header is the shortest there is (three bytes: it continues its
        // message), each with a different amount left: a packet of a few
        // hundred bytes reads more of them than a bound of one 12-byte
        // header a chunk would let `sort_front` place.
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let mut candidates = Vec::new();
        for m in 0..60u32 {
            for frag in 0..1 + u16::from(m % 3 == 0) {
                let mut c = cand(m, 0, frag, 0, 1, false, TrafficClass::DEFAULT, 0);
                c.at = candidates.len() as u32;
                c.msg_remaining = u64::from(m * 37 % 23);
                candidates.push(c);
            }
        }
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates,
            rndv: vec![],
        }];
        let window = &groups[0].candidates;
        // The reference: every message, stably sorted by what it has left.
        let mut runs = Vec::new();
        message_runs(window, u64::MAX, &mut runs);
        runs.sort_by_key(|run| run.bytes);
        let sorted: Vec<_> = runs
            .iter()
            .flat_map(|run| &window[run.at.clone()])
            .collect();
        let mut read_past_the_old_bound = false;
        for limit in (20..600).step_by(7) {
            let mut ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
            ctx.packet_limit = limit;
            let mut want = Proposals::new();
            fill_packet(
                &ctx,
                NodeId(1),
                sorted.iter().copied(),
                usize::MAX,
                "t",
                &mut want,
            );
            let mut got = Proposals::new();
            ReorderVariants::new().propose(&ctx, &mut got);
            let sjf = got.iter().find(|p| p.strategy == "reorder-sjf");
            let want = want.iter().next();
            assert_eq!(
                sjf.map(|p| p.chunks().to_vec()),
                want.map(|p| p.chunks().to_vec()),
                "limit {limit}"
            );
            let runs_read = want.map_or(0, |p| {
                let mut messages: Vec<_> = p.chunks().iter().map(|c| c.flow).collect();
                messages.dedup();
                messages.len() as u64
            });
            read_past_the_old_bound |= runs_read > (limit - PACKET_PREFIX_BYTES) / 12 + 1;
        }
        assert!(read_past_the_old_bound);
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

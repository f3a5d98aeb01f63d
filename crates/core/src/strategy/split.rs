//! Bulk chunking: stream the largest pending fragment in MTU-sized pieces.
//!
//! This single strategy yields two of the paper's §2 behaviours:
//!
//! * **large-transfer pipelining** — a fragment bigger than one packet is
//!   cut into maximal chunks, keeping the NIC continuously busy;
//! * **dynamic load balancing over multiple NICs** — every *idle* rail's
//!   activation proposes taking the *next* chunk of the same fragment, so
//!   several rails (even of different technologies) pull from one transfer
//!   in proportion to how fast each drains — work-stealing style balancing
//!   with no explicit ratio computation.

// madlint: file: hot-path

use crate::plan::ChunkCandidate;
use crate::proto::lone_chunk_framing;
use crate::strategy::{fill_packet, OptContext, Proposals, Strategy};

/// Payload bytes of a packet that carries a chunk of `c` and nothing else.
pub(super) fn lone_chunk_budget(ctx: &OptContext<'_>, c: &ChunkCandidate) -> u64 {
    ctx.packet_limit
        .saturating_sub(lone_chunk_framing(c.offset))
}

/// Largest-fragment streaming strategy.
#[derive(Debug, Default)]
pub struct BulkChunking;

impl BulkChunking {
    /// Construct.
    pub fn new() -> Self {
        BulkChunking
    }
}

impl Strategy for BulkChunking {
    fn name(&self) -> &'static str {
        "bulk-chunk"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        for g in ctx.groups {
            // Largest remaining candidate that is the *first* pending chunk
            // of its message (a later fragment would need its predecessors
            // in the same packet); ties broken by age then identity for
            // determinism. A message's candidates are adjacent and in pack
            // order (the `DstGroup` invariant), so the first of a message
            // is the one whose predecessor belongs to another.
            let mut prev = None;
            let biggest = g
                .candidates
                .iter()
                .filter(|c| prev.replace((c.flow, c.seq)) != Some((c.flow, c.seq)))
                .max_by_key(|c| {
                    (
                        c.remaining,
                        std::cmp::Reverse(c.submitted_at),
                        c.flow,
                        c.seq,
                    )
                });
            let Some(c) = biggest else { continue };
            // Only worth a dedicated proposal when the fragment dominates a
            // packet; small ones are better served by aggregation.
            if (c.remaining as u64) < lone_chunk_budget(ctx, c) / 2 {
                continue;
            }
            fill_packet(ctx, g.dst, std::slice::from_ref(c), 1, self.name(), out);
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

    #[test]
    fn takes_a_full_packet_of_the_biggest_fragment() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![
                cand(0, 0, 0, 0, 100, false, TrafficClass::DEFAULT, 0),
                cand(1, 0, 0, 4096, 1 << 20, false, TrafficClass::BULK, 0),
            ],
            rndv: vec![],
        }];
        let mut ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        ctx.packet_limit = 8192;
        let mut out = Proposals::new();
        BulkChunking::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].chunk_count(), 1);
        // Took a budget-limited chunk of the big fragment at its frontier.
        // (The candidate is 4096 bytes into its fragment.)
        assert_eq!(out[0].payload_bytes(), 8192 - 2 - 34);
        match &out[0].body {
            crate::plan::PlanBody::Data { chunks, .. } => {
                assert_eq!(chunks[0].offset, 4096);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn silent_when_only_small_fragments_pend() {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![cand(0, 0, 0, 0, 64, false, TrafficClass::DEFAULT, 0)],
            rndv: vec![],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        BulkChunking::new().propose(&ctx, &mut out);
        let out = out.to_plans();
        assert!(out.is_empty());
    }
}

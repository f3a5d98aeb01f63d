//! Receive side: sorting incoming chunks back into messages and delivering
//! completed messages to the application **in per-flow submission order**,
//! whatever interleaving/aggregation/reordering the sender's optimizer
//! chose.
//!
//! Express-ordering observation: on a single rail, the sender-side
//! constraint system guarantees that every express fragment is fully
//! received before any chunk of a later fragment of the same message
//! arrives; the receiver counts violations of this property (they indicate
//! an optimizer bug). Across rails with different latencies the wire can
//! reorder packets, which is why the sender pins express-constrained
//! messages to one rail until their express fragments complete.

// madlint: file: hot-path
// madlint: file: deterministic-output

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;
use simnet::{NodeId, SimDuration, SimTime};

use crate::ids::{FlowId, MsgId, MsgSeq, TrafficClass};
use crate::message::{DeliveredMessage, PackMode};
use crate::proto::DecodedChunk;

/// Reassembly state of one fragment.
#[derive(Clone, Debug)]
struct FragmentAssembly {
    express: bool,
    total: u32,
    buf: Vec<u8>,
    /// Received byte ranges, kept sorted and coalesced.
    ranges: Vec<(u32, u32)>,
}

impl FragmentAssembly {
    fn new(total: u32, express: bool) -> Self {
        FragmentAssembly {
            express,
            total,
            buf: vec![0; total as usize],
            ranges: Vec::new(),
        }
    }

    /// Insert a chunk; returns false on overlap (duplicate delivery — a
    /// protocol violation worth surfacing).
    fn insert(&mut self, offset: u32, data: &[u8]) -> bool {
        let end = offset + data.len() as u32;
        if end > self.total {
            return false;
        }
        for &(s, e) in &self.ranges {
            if offset < e && s < end {
                return false; // overlap
            }
        }
        self.buf[offset as usize..end as usize].copy_from_slice(data);
        self.ranges.push((offset, end));
        self.ranges.sort_unstable();
        // Coalesce adjacent ranges.
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.ranges.len());
        for &(s, e) in &self.ranges {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.ranges = merged;
        true
    }

    fn complete(&self) -> bool {
        self.total == 0 || (self.ranges.len() == 1 && self.ranges[0] == (0, self.total))
    }
}

/// Reassembly state of one message.
#[derive(Clone, Debug)]
struct MessageAssembly {
    class: TrafficClass,
    submit_ns: u64,
    frags: Vec<Option<FragmentAssembly>>,
}

impl MessageAssembly {
    fn complete(&self) -> bool {
        self.frags
            .iter()
            .all(|f| f.as_ref().is_some_and(FragmentAssembly::complete))
    }
}

/// Per-(source, flow) receive state.
#[derive(Clone, Debug, Default)]
struct FlowRx {
    next_deliver: u32,
    pending: BTreeMap<u32, MessageAssembly>,
    /// Sequences the sender shed before committing any byte
    /// (`KIND_CTRL` cancel notifications): ordered delivery skips these
    /// instead of waiting for data that will never arrive.
    cancelled: BTreeSet<u32>,
}

/// Receive-side counters.
#[derive(Clone, Debug, Default)]
pub struct ReceiverStats {
    /// Chunks accepted.
    pub chunks: u64,
    /// Messages fully reassembled.
    pub completed: u64,
    /// Messages delivered in flow order.
    pub delivered: u64,
    /// Sequences skipped because the sender shed them (madflow
    /// `ShedOldest` admission; see [`Receiver::on_cancel`]).
    pub cancelled: u64,
    /// Express-ordering violations observed (see module docs).
    pub express_violations: u64,
    /// Overlapping/duplicate chunks rejected.
    pub overlaps: u64,
    /// Packets received per virtual channel (receiver pre-sorting, §2).
    pub per_vchan_packets: Vec<u64>,
}

/// Deliver every message at the head of `fx`'s sequence space that is
/// either complete (delivered) or cancelled (skipped), stopping at the
/// first gap still waiting for data. The caller adds `out.len()` to
/// `stats.delivered`; cancelled skips are counted here.
fn drain_ready(
    fx: &mut FlowRx,
    src: NodeId,
    flow: FlowId,
    now: SimTime,
    stats: &mut ReceiverStats,
) -> Vec<DeliveredMessage> {
    let mut out = Vec::new();
    loop {
        if fx.cancelled.remove(&fx.next_deliver) {
            fx.next_deliver += 1;
            stats.cancelled += 1;
            continue;
        }
        let Some(ready) = fx.pending.get(&fx.next_deliver) else {
            break;
        };
        if !ready.complete() {
            break;
        }
        let seq = fx.next_deliver;
        let asm = fx.pending.remove(&seq).expect("checked present");
        fx.next_deliver += 1;
        let latency = SimDuration::from_nanos(now.as_nanos().saturating_sub(asm.submit_ns));
        out.push(DeliveredMessage {
            src,
            flow,
            id: MsgId {
                flow,
                seq: MsgSeq(seq),
            },
            class: asm.class,
            fragments: asm
                .frags
                .into_iter()
                .map(|f| {
                    let f = f.expect("complete message has all fragments");
                    let mode = if f.express {
                        PackMode::Express
                    } else {
                        PackMode::Cheaper
                    };
                    (mode, Bytes::from(f.buf))
                })
                .collect(),
            latency,
            delivered_at: now,
        });
    }
    out
}

/// The reassembly and ordered-delivery engine of one node.
#[derive(Clone, Debug, Default)]
// madlint: send-sync — owned per engine core, must shard with it
pub struct Receiver {
    flows: BTreeMap<(NodeId, FlowId), FlowRx>,
    /// Counters.
    pub stats: ReceiverStats,
}

impl Receiver {
    /// Empty receiver.
    pub fn new() -> Self {
        Receiver::default()
    }

    /// Record which virtual channel a packet arrived on (demux statistics).
    pub fn record_vchan(&mut self, vchan: u8) {
        let idx = vchan as usize;
        if self.stats.per_vchan_packets.len() <= idx {
            self.stats.per_vchan_packets.resize(idx + 1, 0);
        }
        self.stats.per_vchan_packets[idx] += 1;
    }

    /// Ingest one decoded chunk from `src`; returns any messages that
    /// became deliverable (in flow order), ready for the application.
    pub fn on_chunk(
        &mut self,
        src: NodeId,
        chunk: &DecodedChunk,
        now: SimTime,
    ) -> Vec<DeliveredMessage> {
        let h = &chunk.header;
        let key = (src, h.flow);
        let fx = self.flows.entry(key).or_default();
        // Late chunk for an already-delivered message (duplicate) or a
        // sequence the sender announced as shed — drop.
        if h.msg_seq < fx.next_deliver || fx.cancelled.contains(&h.msg_seq) {
            self.stats.overlaps += 1;
            return Vec::new();
        }
        let asm = fx
            .pending
            .entry(h.msg_seq)
            .or_insert_with(|| MessageAssembly {
                class: h.class,
                submit_ns: h.submit_ns,
                frags: (0..h.frag_count as usize).map(|_| None).collect(),
            });
        let fi = h.frag_index as usize;
        if fi >= asm.frags.len() {
            self.stats.overlaps += 1;
            return Vec::new();
        }
        // Express check: every express fragment before this one should
        // already be complete when any of our bytes arrive.
        let violation = asm.frags[..fi].iter().any(|f| match f {
            Some(fa) => fa.express && !fa.complete(),
            None => false, // unseen fragment: we cannot know its mode yet
        }) || (fi > 0 && asm.frags[..fi].iter().any(Option::is_none) && {
            // An earlier fragment entirely unseen: if it turns out to be
            // express this was a violation; we cannot tell yet, so count
            // only definite cases above. This branch intentionally
            // evaluates to false.
            false
        });
        if violation {
            self.stats.express_violations += 1;
        }
        let fa = asm.frags[fi].get_or_insert_with(|| FragmentAssembly::new(h.frag_len, h.express));
        if !fa.insert(h.offset, &chunk.data) {
            self.stats.overlaps += 1;
            return Vec::new();
        }
        self.stats.chunks += 1;

        if !asm.complete() {
            return Vec::new();
        }
        self.stats.completed += 1;

        let out = drain_ready(fx, src, h.flow, now, &mut self.stats);
        self.stats.delivered += out.len() as u64;
        out
    }

    /// Ingest a shed-cancel notification from `src`: `(flow, seq)` was
    /// dropped by the sender before any byte was committed and will never
    /// arrive. Ordered delivery skips the sequence; returns any later
    /// messages the skip made deliverable.
    pub fn on_cancel(
        &mut self,
        src: NodeId,
        flow: FlowId,
        seq: u32,
        now: SimTime,
    ) -> Vec<DeliveredMessage> {
        let fx = self.flows.entry((src, flow)).or_default();
        // Cancel for an already-delivered sequence: a protocol violation
        // (shed messages never commit bytes) — surface, don't apply.
        if seq < fx.next_deliver {
            self.stats.overlaps += 1;
            return Vec::new();
        }
        // Drop any partial reassembly state (none should exist for a
        // fully-uncommitted message; duplicates under fault injection can
        // leave some) and mark the gap.
        fx.pending.remove(&seq);
        fx.cancelled.insert(seq);
        let out = drain_ready(fx, src, flow, now, &mut self.stats);
        self.stats.delivered += out.len() as u64;
        out
    }
}

/// Bound on the delivered-message buffer drained via `take_delivered`.
const DELIVERED_CAPACITY: usize = 1 << 20;

/// Delivered messages retained for `take_delivered` (when
/// `config.record_deliveries`), bounded by oldest-drop. Shared by both
/// engines.
#[derive(Default)]
pub struct DeliveredRing {
    buf: VecDeque<DeliveredMessage>,
}

impl DeliveredRing {
    /// Retain `out`; returns how many of the oldest entries the bound
    /// pushed out (the `deliveries_dropped` metric).
    pub fn extend(&mut self, out: &[DeliveredMessage]) -> u64 {
        let mut dropped = 0;
        for d in out {
            if self.buf.len() >= DELIVERED_CAPACITY {
                self.buf.pop_front();
                dropped += 1;
            }
            self.buf.push_back(d.clone());
        }
        dropped
    }

    /// Drain the retained messages, oldest first.
    pub fn drain(&mut self) -> Vec<DeliveredMessage> {
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ChunkHeader;

    /// Messages reassembled but held for flow ordering.
    fn held_messages(r: &Receiver) -> usize {
        r.flows
            .values()
            .map(|f| f.pending.values().filter(|m| m.complete()).count())
            .sum()
    }

    #[allow(clippy::too_many_arguments)]
    fn chunk(
        flow: u32,
        seq: u32,
        frag: u16,
        frag_count: u16,
        express: bool,
        frag_len: u32,
        offset: u32,
        data: &[u8],
    ) -> DecodedChunk {
        DecodedChunk {
            header: ChunkHeader {
                flow: FlowId(flow),
                msg_seq: seq,
                frag_index: frag,
                frag_count,
                express,
                class: TrafficClass::DEFAULT,
                frag_len,
                offset,
                chunk_len: data.len() as u32,
                submit_ns: 100,
            },
            data: Bytes::copy_from_slice(data),
        }
    }

    const SRC: NodeId = NodeId(0);
    const NOW: SimTime = SimTime::from_nanos(5_100);

    #[test]
    fn single_chunk_message_delivers_immediately() {
        let mut r = Receiver::new();
        let out = r.on_chunk(SRC, &chunk(0, 0, 0, 1, false, 5, 0, b"hello"), NOW);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].contiguous(), b"hello");
        assert_eq!(out[0].latency.as_nanos(), 5_000);
        assert_eq!(r.stats.delivered, 1);
    }

    #[test]
    fn multi_fragment_message_waits_for_all() {
        let mut r = Receiver::new();
        assert!(r
            .on_chunk(SRC, &chunk(0, 0, 0, 2, true, 3, 0, b"hdr"), NOW)
            .is_empty());
        let out = r.on_chunk(SRC, &chunk(0, 0, 1, 2, false, 4, 0, b"body"), NOW);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fragments.len(), 2);
        assert_eq!(out[0].fragments[0].0, PackMode::Express);
        assert_eq!(&out[0].fragments[1].1[..], b"body");
    }

    #[test]
    fn out_of_order_chunks_within_fragment_reassemble() {
        let mut r = Receiver::new();
        assert!(r
            .on_chunk(SRC, &chunk(0, 0, 0, 1, false, 8, 4, b"WXYZ"), NOW)
            .is_empty());
        let out = r.on_chunk(SRC, &chunk(0, 0, 0, 1, false, 8, 0, b"abcd"), NOW);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].contiguous(), b"abcdWXYZ");
    }

    #[test]
    fn flow_order_enforced_even_if_later_message_completes_first() {
        let mut r = Receiver::new();
        // Message 1 completes first...
        assert!(r
            .on_chunk(SRC, &chunk(0, 1, 0, 1, false, 2, 0, b"m1"), NOW)
            .is_empty());
        assert_eq!(held_messages(&r), 1);
        // ...but is only delivered after message 0.
        let out = r.on_chunk(SRC, &chunk(0, 0, 0, 1, false, 2, 0, b"m0"), NOW);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id.seq.0, 0);
        assert_eq!(out[1].id.seq.0, 1);
    }

    #[test]
    fn flows_are_independent() {
        let mut r = Receiver::new();
        assert_eq!(
            r.on_chunk(SRC, &chunk(1, 0, 0, 1, false, 1, 0, b"a"), NOW)
                .len(),
            1
        );
        assert_eq!(
            r.on_chunk(SRC, &chunk(2, 0, 0, 1, false, 1, 0, b"b"), NOW)
                .len(),
            1
        );
        // Same flow id from a different source is independent too.
        assert_eq!(
            r.on_chunk(NodeId(9), &chunk(1, 0, 0, 1, false, 1, 0, b"c"), NOW)
                .len(),
            1
        );
    }

    #[test]
    fn express_violation_detected() {
        let mut r = Receiver::new();
        // Express fragment 0 partially arrives, then fragment 1 shows up.
        assert!(r
            .on_chunk(SRC, &chunk(0, 0, 0, 2, true, 8, 0, b"half"), NOW)
            .is_empty());
        r.on_chunk(SRC, &chunk(0, 0, 1, 2, false, 2, 0, b"xx"), NOW);
        assert_eq!(r.stats.express_violations, 1);
    }

    #[test]
    fn no_violation_when_express_complete_first() {
        let mut r = Receiver::new();
        r.on_chunk(SRC, &chunk(0, 0, 0, 2, true, 4, 0, b"full"), NOW);
        r.on_chunk(SRC, &chunk(0, 0, 1, 2, false, 2, 0, b"xx"), NOW);
        assert_eq!(r.stats.express_violations, 0);
    }

    #[test]
    fn duplicate_and_overlapping_chunks_rejected() {
        let mut r = Receiver::new();
        r.on_chunk(SRC, &chunk(0, 0, 0, 1, false, 8, 0, b"abcd"), NOW);
        r.on_chunk(SRC, &chunk(0, 0, 0, 1, false, 8, 2, b"XXXX"), NOW); // overlaps
        assert_eq!(r.stats.overlaps, 1);
        let out = r.on_chunk(SRC, &chunk(0, 0, 0, 1, false, 8, 4, b"efgh"), NOW);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].contiguous(), b"abcdefgh");
        // Late chunk for the delivered message is dropped.
        r.on_chunk(SRC, &chunk(0, 0, 0, 1, false, 8, 0, b"abcd"), NOW);
        assert_eq!(r.stats.overlaps, 2);
    }

    #[test]
    fn zero_length_fragment_messages_deliver() {
        let mut r = Receiver::new();
        let out = r.on_chunk(SRC, &chunk(0, 0, 0, 2, true, 0, 0, b""), NOW);
        assert!(out.is_empty()); // frag 1 still missing
        let out = r.on_chunk(SRC, &chunk(0, 0, 1, 2, false, 1, 0, b"x"), NOW);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fragments[0].1.len(), 0);
    }

    #[test]
    fn cancel_skips_gap_and_releases_held_messages() {
        let mut r = Receiver::new();
        // seq 0 delivers; seq 2 completes but is held behind missing seq 1.
        assert_eq!(
            r.on_chunk(SRC, &chunk(0, 0, 0, 1, false, 2, 0, b"m0"), NOW)
                .len(),
            1
        );
        assert!(r
            .on_chunk(SRC, &chunk(0, 2, 0, 1, false, 2, 0, b"m2"), NOW)
            .is_empty());
        assert_eq!(held_messages(&r), 1);
        // The sender shed seq 1: the cancel releases seq 2.
        let out = r.on_cancel(SRC, FlowId(0), 1, NOW);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id.seq.0, 2);
        assert_eq!(r.stats.cancelled, 1);
        assert_eq!(r.stats.delivered, 2);
        assert_eq!(held_messages(&r), 0);
    }

    #[test]
    fn cancel_ahead_of_data_is_remembered() {
        let mut r = Receiver::new();
        // Cancel for seq 1 arrives before any data (control channel can
        // outrun data under load).
        assert!(r.on_cancel(SRC, FlowId(0), 1, NOW).is_empty());
        // seq 0 then arrives and delivery crosses the cancelled gap when
        // seq 2 completes.
        assert_eq!(
            r.on_chunk(SRC, &chunk(0, 0, 0, 1, false, 2, 0, b"m0"), NOW)
                .len(),
            1
        );
        let out = r.on_chunk(SRC, &chunk(0, 2, 0, 1, false, 2, 0, b"m2"), NOW);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id.seq.0, 2);
        assert_eq!(r.stats.cancelled, 1);
        // Late chunks for the cancelled sequence are rejected.
        assert!(r
            .on_chunk(SRC, &chunk(0, 1, 0, 1, false, 2, 0, b"m1"), NOW)
            .is_empty());
        assert_eq!(r.stats.overlaps, 1);
    }

    #[test]
    fn cancel_for_delivered_sequence_is_surfaced_not_applied() {
        let mut r = Receiver::new();
        r.on_chunk(SRC, &chunk(0, 0, 0, 1, false, 2, 0, b"m0"), NOW);
        assert!(r.on_cancel(SRC, FlowId(0), 0, NOW).is_empty());
        assert_eq!(r.stats.overlaps, 1);
        assert_eq!(r.stats.cancelled, 0);
    }

    #[test]
    fn consecutive_cancels_drain_in_one_step() {
        let mut r = Receiver::new();
        for seq in [0u32, 1, 2] {
            assert!(r.on_cancel(SRC, FlowId(0), seq, NOW).is_empty());
        }
        let out = r.on_chunk(SRC, &chunk(0, 3, 0, 1, false, 2, 0, b"m3"), NOW);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id.seq.0, 3);
        assert_eq!(r.stats.cancelled, 3);
    }

    #[test]
    fn vchan_stats_recorded() {
        let mut r = Receiver::new();
        r.record_vchan(2);
        r.record_vchan(2);
        r.record_vchan(0);
        assert_eq!(r.stats.per_vchan_packets, vec![1, 0, 2]);
    }
}

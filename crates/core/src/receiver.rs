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
//!
//! A flow is found by its id, not searched for. Each `(source, flow)` has a
//! row in a dense table per source indexed by flow id: the next sequence
//! it delivers, the slot of a node-wide [`Slab`] in which that message is
//! being assembled, and how many of its messages wait ahead of their turn.
//! Only those — messages that arrive before an earlier one of their flow
//! has left, and the shed-cancel marks — go into node-wide maps keyed by
//! `(source, flow, seq)`. So while a flow holds nothing ahead, a chunk of
//! its next message, that message's completion and the delivery that
//! follows touch no search tree. A flow whose messages are all delivered
//! costs its 12-byte row; a map per flow would keep its emptied root leaf
//! (496 bytes) for the rest of the run, and the maps here keep only their
//! own. A flow id is a peer's header field, so one at or past
//! [`MAX_FLOWS`] — which no sender can open — is refused before it can
//! size a table, and counted as a protocol error.

// madlint: file: hot-path
// madlint: file: deterministic-output

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;
use simnet::{NodeId, SimDuration, SimTime};

use crate::collect::MAX_FLOWS;
use crate::ids::{FlowId, FragIndex, MsgId, MsgSeq, TrafficClass};
use crate::message::{DeliveredMessage, PackMode};
use crate::proto::DecodedChunk;
use crate::slab::Slab;

/// Reassembly state of one fragment.
#[derive(Clone, Debug)]
struct FragmentAssembly {
    express: bool,
    total: u32,
    bytes: Assembled,
}

/// Where a fragment's received bytes are.
#[derive(Clone, Debug)]
enum Assembled {
    /// One chunk carried the whole fragment: that chunk's buffer, a slice
    /// of the packet it arrived in. Nothing is allocated or copied — unless
    /// its message still waits once the packet's chunks are in, and then
    /// the fragment is copied out so that it does not keep the whole
    /// packet alive ([`Receiver::end_packet`]).
    Whole(Bytes),
    /// Chunks are copied into `buf` (allocated when the first one lands)
    /// as they arrive; `ranges` are the byte ranges received so far, kept
    /// sorted and coalesced.
    Pieces {
        buf: Vec<u8>,
        ranges: Vec<(u32, u32)>,
    },
}

impl FragmentAssembly {
    fn new(total: u32, express: bool) -> Self {
        FragmentAssembly {
            express,
            total,
            bytes: Assembled::Pieces {
                buf: Vec::new(),
                ranges: Vec::new(),
            },
        }
    }

    /// Insert a chunk; returns false when it reaches past the fragment or
    /// overlaps bytes already received (duplicate delivery — a protocol
    /// violation worth surfacing). `offset` and the chunk's length are a
    /// peer's header fields: the bounds are checked before anything is
    /// sized from them.
    // madlint: allow(linear-scan) — `ranges` is coalesced: one entry while a
    // fragment's chunks arrive in order, one more per chunk that arrives
    // ahead of a gap — at most what the rails' send queues hold at once
    fn insert(&mut self, offset: u32, data: &Bytes) -> bool {
        let end = u64::from(offset) + data.len() as u64;
        if end > u64::from(self.total) {
            return false;
        }
        let end = end as u32;
        let overlaps = |&(s, e): &(u32, u32)| offset < e && s < end;
        match &mut self.bytes {
            Assembled::Whole(_) => !overlaps(&(0, self.total)),
            Assembled::Pieces { buf, ranges } => {
                if ranges.iter().any(overlaps) {
                    return false;
                }
                if ranges.is_empty() && offset == 0 && end == self.total {
                    self.bytes = Assembled::Whole(data.clone());
                    return true;
                }
                if buf.is_empty() {
                    *buf = vec![0; self.total as usize];
                }
                buf[offset as usize..end as usize].copy_from_slice(data);
                ranges.push((offset, end));
                ranges.sort_unstable();
                // Coalesce adjacent ranges, in place: a range that starts
                // within (or at the end of) the one kept before it grows
                // that one and goes.
                ranges.dedup_by(|next, kept| {
                    let adjacent = next.0 <= kept.1;
                    if adjacent {
                        kept.1 = kept.1.max(next.1);
                    }
                    adjacent
                });
                true
            }
        }
    }

    fn complete(&self) -> bool {
        match &self.bytes {
            Assembled::Whole(_) => true,
            Assembled::Pieces { ranges, .. } => self.total == 0 || ranges[..] == [(0, self.total)],
        }
    }

    /// The fragment's bytes, once complete.
    fn into_bytes(self) -> Bytes {
        match self.bytes {
            Assembled::Whole(data) => data,
            Assembled::Pieces { buf, .. } => Bytes::from(buf),
        }
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
    /// Chunks and cancels dropped for naming a flow id at or past
    /// [`MAX_FLOWS`], and chunks whose fragment geometry no message has —
    /// no fragments, an index past the count, or a count other than the
    /// one the message's assembly was opened with; the engine counts them
    /// as protocol errors.
    pub proto_errors: u64,
    /// Packets received per virtual channel (receiver pre-sorting, §2).
    pub per_vchan_packets: Vec<u64>,
}

/// Where the head of a flow's sequence space is being assembled: a slot of
/// [`Receiver::heads`], or none yet.
const NO_HEAD: u32 = u32::MAX;

/// The receive state of one `(source, flow)`: the next sequence to
/// deliver, the slot in which that message is being assembled, and how
/// many messages and cancel marks of the flow wait in the maps, ahead of
/// their turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    next: u32,
    head: u32,
    held: u32,
}

impl Default for Row {
    fn default() -> Self {
        Row {
            next: 0,
            head: NO_HEAD,
            held: 0,
        }
    }
}

/// The row of `(src, flow)` in `table`, indexed by source and then by flow
/// id, which the caller has checked against [`MAX_FLOWS`].
fn row_of(table: &mut Vec<Vec<Row>>, src: NodeId, flow: FlowId) -> &mut Row {
    let (src, flow) = (src.0 as usize, flow.0 as usize);
    if table.len() <= src {
        table.resize_with(src + 1, Vec::new);
    }
    let by_flow = &mut table[src];
    if by_flow.len() <= flow {
        by_flow.resize(flow + 1, Row::default());
    }
    &mut by_flow[flow]
}

/// The maps a flow's messages wait in while they are not its head.
#[derive(Clone, Debug, Default)]
struct Held {
    /// Messages being reassembled or held for their flow's order, by
    /// `(source, flow, seq)`.
    ahead: BTreeMap<(NodeId, FlowId, u32), MessageAssembly>,
    /// Sequences the sender shed before committing any byte (`KIND_CTRL`
    /// cancel notifications), until ordered delivery skips them instead of
    /// waiting for data that will never arrive.
    cancelled: BTreeSet<(NodeId, FlowId, u32)>,
}

/// Deliver from `row`'s head on: every message at the head of the flow's
/// sequence space that is complete is delivered (appended to `out`), every
/// cancelled one skipped, and the message after it moved out of the map
/// into a head slot if it arrived ahead of its turn; stops at the first
/// message still waiting for data. While the flow holds nothing, no map is
/// looked at. Deliveries and cancelled skips are counted here.
fn drain_ready(
    row: &mut Row,
    (src, flow): (NodeId, FlowId),
    now: SimTime,
    heads: &mut Slab<MessageAssembly>,
    held: &mut Held,
    stats: &mut ReceiverStats,
    out: &mut Vec<DeliveredMessage>,
) {
    loop {
        let key = (src, flow, row.next);
        if row.head != NO_HEAD {
            if !heads.get(row.head).complete() {
                break;
            }
            stats.delivered += 1;
            out.push(delivered(key, heads.remove(row.head), now));
            row.head = NO_HEAD;
        } else if row.held == 0 {
            break;
        } else if held.cancelled.remove(&key) {
            row.held -= 1;
            stats.cancelled += 1;
        } else if let Some(asm) = held.ahead.remove(&key) {
            row.held -= 1;
            row.head = heads.insert(asm);
            continue;
        } else {
            break;
        }
        row.next += 1;
    }
}

/// Message `(src, flow, seq)`, complete, as the application receives it.
fn delivered(
    (src, flow, seq): (NodeId, FlowId, u32),
    asm: MessageAssembly,
    now: SimTime,
) -> DeliveredMessage {
    DeliveredMessage {
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
                (mode, f.into_bytes())
            })
            .collect(),
        latency: SimDuration::from_nanos(now.as_nanos().saturating_sub(asm.submit_ns)),
        delivered_at: now,
    }
}

/// The reassembly and ordered-delivery engine of one node.
#[derive(Clone, Debug, Default)]
// madlint: send-sync — owned per engine core, must shard with it
pub struct Receiver {
    /// One row per `(source, flow)`, by source and then by flow id: the
    /// default row for a flow that has sent nothing yet.
    rows: Vec<Vec<Row>>,
    /// The message each flow delivers next, while it is being assembled:
    /// one slot per row that names it.
    heads: Slab<MessageAssembly>,
    /// What arrived ahead of its turn. A flow whose row holds nothing has
    /// no entry.
    held: Held,
    /// Counters.
    pub stats: ReceiverStats,
    /// Messages the current call made deliverable; drained by its caller,
    /// so the buffer is allocated once.
    ready: Vec<DeliveredMessage>,
    /// Fragments of the current packet kept as slices of it whose message
    /// did not deliver when they landed: `((source, flow, seq), fragment)`.
    sliced: Vec<((NodeId, FlowId, u32), FragIndex)>,
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

    /// Ingest one decoded chunk from `src`; yields any messages that
    /// became deliverable (in flow order), ready for the application.
    /// What the caller leaves in the iterator is dropped with it.
    pub fn on_chunk(
        &mut self,
        src: NodeId,
        chunk: &DecodedChunk,
        now: SimTime,
    ) -> std::vec::Drain<'_, DeliveredMessage> {
        self.ingest(src, chunk, now);
        self.ready.drain(..)
    }

    fn ingest(&mut self, src: NodeId, chunk: &DecodedChunk, now: SimTime) {
        let h = &chunk.header;
        // A flow id past the table, or a fragment geometry no message has:
        // nothing of the flow's state is touched.
        if h.flow.0 >= MAX_FLOWS || h.frag_index >= h.frag_count {
            self.stats.proto_errors += 1;
            return;
        }
        let key = (src, h.flow, h.msg_seq);
        let row = row_of(&mut self.rows, src, h.flow);
        // Late chunk for an already-delivered message (duplicate) or a
        // sequence the sender announced as shed — drop. The head is never
        // a cancelled sequence: a cancel of it skips it at once.
        let ahead = h.msg_seq > row.next;
        if h.msg_seq < row.next || (ahead && row.held > 0 && self.held.cancelled.contains(&key)) {
            self.stats.overlaps += 1;
            return;
        }
        let fresh = || MessageAssembly {
            class: h.class,
            submit_ns: h.submit_ns,
            frags: (0..h.frag_count as usize).map(|_| None).collect(),
        };
        let asm = if ahead {
            match self.held.ahead.entry(key) {
                Entry::Occupied(slot) => slot.into_mut(),
                Entry::Vacant(slot) => {
                    row.held += 1;
                    slot.insert(fresh())
                }
            }
        } else {
            if row.head == NO_HEAD {
                row.head = self.heads.insert(fresh());
            }
            self.heads.get_mut(row.head)
        };
        // A message has one fragment count: a chunk that says otherwise
        // than the ones it was opened by is refused, and the assembly
        // stays as they left it.
        if asm.frags.len() != usize::from(h.frag_count) {
            self.stats.proto_errors += 1;
            return;
        }
        let fi = h.frag_index as usize;
        // Express check: every express fragment before this one should
        // already be complete when any of our bytes arrive. An earlier
        // fragment entirely unseen may turn out to be express; we cannot
        // tell yet, so only the definite cases count.
        let violation = asm.frags[..fi]
            .iter()
            .flatten()
            .any(|fa| fa.express && !fa.complete());
        if violation {
            self.stats.express_violations += 1;
        }
        let fa = asm.frags[fi].get_or_insert_with(|| FragmentAssembly::new(h.frag_len, h.express));
        if !fa.insert(h.offset, &chunk.data) {
            self.stats.overlaps += 1;
            return;
        }
        self.stats.chunks += 1;
        // An insert that succeeds into a whole fragment made it whole.
        let sliced = matches!(fa.bytes, Assembled::Whole(_));
        if asm.complete() {
            self.stats.completed += 1;
            drain_ready(
                row,
                (src, h.flow),
                now,
                &mut self.heads,
                &mut self.held,
                &mut self.stats,
                &mut self.ready,
            );
        }
        if sliced && row.next <= h.msg_seq {
            self.sliced.push((key, h.frag_index));
        }
    }

    /// The chunks of one packet are in: every fragment kept as a slice of
    /// it whose message still waits — for its body, or for an earlier
    /// message of its flow — is copied out, so that it no longer holds the
    /// packet's buffer. A header and body that travel together wait for
    /// each other only within the packet, and are not copied.
    pub fn end_packet(&mut self) {
        for ((src, flow, seq), frag) in self.sliced.drain(..) {
            let row = self.rows[src.0 as usize][flow.0 as usize];
            let asm = if seq == row.next && row.head != NO_HEAD {
                Some(self.heads.get_mut(row.head))
            } else if seq > row.next && row.held > 0 {
                self.held.ahead.get_mut(&(src, flow, seq))
            } else {
                None
            };
            let waiting = asm
                .and_then(|asm| asm.frags.get_mut(usize::from(frag)))
                .and_then(Option::as_mut);
            if let Some(FragmentAssembly {
                bytes: Assembled::Whole(data),
                ..
            }) = waiting
            {
                *data = Bytes::copy_from_slice(data);
            }
        }
    }

    /// Ingest a shed-cancel notification from `src`: `(flow, seq)` was
    /// dropped by the sender before any byte was committed and will never
    /// arrive. Ordered delivery skips the sequence; yields any later
    /// messages the skip made deliverable.
    pub fn on_cancel(
        &mut self,
        src: NodeId,
        flow: FlowId,
        seq: u32,
        now: SimTime,
    ) -> std::vec::Drain<'_, DeliveredMessage> {
        if flow.0 >= MAX_FLOWS {
            self.stats.proto_errors += 1;
            return self.ready.drain(..);
        }
        let row = row_of(&mut self.rows, src, flow);
        // Cancel for an already-delivered sequence: a protocol violation
        // (shed messages never commit bytes) — surface, don't apply.
        if seq < row.next {
            self.stats.overlaps += 1;
            return self.ready.drain(..);
        }
        // Drop any partial reassembly state (none should exist for a
        // fully-uncommitted message; duplicates under fault injection can
        // leave some) and mark the gap; the drain skips it at once if it
        // is the head.
        if seq == row.next && row.head != NO_HEAD {
            self.heads.remove(row.head);
            row.head = NO_HEAD;
        }
        let key = (src, flow, seq);
        if self.held.ahead.remove(&key).is_some() {
            row.held -= 1;
        }
        if self.held.cancelled.insert(key) {
            row.held += 1;
        }
        drain_ready(
            row,
            (src, flow),
            now,
            &mut self.heads,
            &mut self.held,
            &mut self.stats,
            &mut self.ready,
        );
        self.ready.drain(..)
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
        r.held.ahead.values().filter(|m| m.complete()).count()
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

    fn feed(r: &mut Receiver, src: NodeId, chunk: DecodedChunk) -> Vec<DeliveredMessage> {
        r.on_chunk(src, &chunk, NOW).collect()
    }

    fn cancel(r: &mut Receiver, seq: u32) -> Vec<DeliveredMessage> {
        r.on_cancel(SRC, FlowId(0), seq, NOW).collect()
    }

    #[test]
    fn single_chunk_message_delivers_immediately() {
        let mut r = Receiver::new();
        let out = feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 5, 0, b"hello"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].contiguous(), b"hello");
        assert_eq!(out[0].latency.as_nanos(), 5_000);
        assert_eq!(r.stats.delivered, 1);
    }

    #[test]
    fn whole_fragment_chunks_are_delivered_as_slices_of_their_packet() {
        use crate::proto::{decode_packet, encode_packet, WireChunk, KIND_DATA};
        use simnet::{NicId, WirePacket};
        let inline: Vec<WireChunk> = [
            chunk(0, 0, 0, 2, true, 3, 0, b"hdr"),
            chunk(0, 0, 1, 2, false, 4, 0, b"body"),
        ]
        .into_iter()
        .map(|c| WireChunk {
            header: c.header,
            data: c.data,
        })
        .collect();
        // Built from vectors, the payloads are buffers of their own; a
        // payload this short, copied, lives in its handle and has no
        // buffer to share, so it is only held to arrive as equal bytes.
        let heap: Vec<WireChunk> = inline
            .iter()
            .map(|c| WireChunk {
                data: Bytes::from(c.data.to_vec()),
                ..c.clone()
            })
            .collect();
        for (wire, shared) in [(&heap, true), (&inline, false)] {
            for linearize in [false, true] {
                let pkt = WirePacket {
                    src: SRC,
                    dst: NodeId(1),
                    src_nic: NicId(0),
                    dst_nic: NicId(1),
                    vchan: 0,
                    kind: KIND_DATA,
                    cookie: 1,
                    seq: 0,
                    ecn: false,
                    payload: encode_packet(wire, linearize),
                };
                let mut r = Receiver::new();
                let mut out = Vec::new();
                for c in decode_packet(&pkt).unwrap() {
                    out.extend(r.on_chunk(SRC, &c, NOW));
                }
                assert_eq!(out.len(), 1);
                assert_eq!(out[0].contiguous(), b"hdrbody");
                if !shared && !linearize {
                    continue;
                }
                let got: Vec<_> = out[0].fragments.iter().map(|f| f.1.as_ptr()).collect();
                let want = if linearize {
                    // The one segment, past its header block: the count, a
                    // header that names the message and one that does not.
                    let block = crate::proto::framing_of(wire.iter().map(|c| c.header));
                    let data = pkt.payload[0].as_ptr().wrapping_add(block as usize);
                    vec![data, data.wrapping_add(3)]
                } else {
                    // The gather list's own data segments: the sender's buffers.
                    vec![wire[0].data.as_ptr(), wire[1].data.as_ptr()]
                };
                assert_eq!(got, want, "linearize {linearize}");
            }
        }
    }

    #[test]
    fn a_fragment_that_waits_is_copied_out_of_its_packet() {
        use crate::proto::{decode_packet, encode_packet, WireChunk, KIND_DATA};
        use simnet::{NicId, WirePacket};
        let packet = |chunks: Vec<DecodedChunk>| {
            let wire: Vec<WireChunk> = chunks
                .into_iter()
                .map(|c| WireChunk {
                    header: c.header,
                    data: c.data,
                })
                .collect();
            WirePacket {
                src: SRC,
                dst: NodeId(1),
                src_nic: NicId(0),
                dst_nic: NicId(1),
                vchan: 0,
                kind: KIND_DATA,
                cookie: 1,
                seq: 0,
                ecn: false,
                payload: encode_packet(&wire, true),
            }
        };
        let mut r = Receiver::new();
        let mut receive = |pkt: &WirePacket| {
            let mut out = Vec::new();
            for c in decode_packet(pkt).unwrap() {
                out.extend(r.on_chunk(SRC, &c, NOW));
            }
            r.end_packet();
            out
        };
        // Flow 0's message 1 is whole but waits for message 0, and message
        // 2's header waits for its body; flow 1's message travels whole.
        let first = packet(vec![
            chunk(0, 1, 0, 1, false, 3, 0, b"one"),
            chunk(0, 2, 0, 2, true, 3, 0, b"hdr"),
            chunk(1, 0, 0, 2, true, 2, 0, b"h1"),
            chunk(1, 0, 1, 2, false, 2, 0, b"b1"),
        ]);
        let within = |d: &DeliveredMessage| {
            let segment = first.payload[0].as_ptr_range();
            d.fragments
                .iter()
                .map(|f| segment.contains(&f.1.as_ptr()))
                .collect::<Vec<_>>()
        };
        let out = receive(&first);
        assert_eq!(out.len(), 1);
        assert_eq!(within(&out[0]), [true, true], "delivered from its packet");
        let out = receive(&packet(vec![
            chunk(0, 0, 0, 1, false, 4, 0, b"zero"),
            chunk(0, 2, 1, 2, false, 4, 0, b"body"),
        ]));
        let got: Vec<_> = out.iter().map(|d| d.contiguous()).collect();
        assert_eq!(got, [&b"zero"[..], b"one", b"hdrbody"]);
        assert_eq!(within(&out[1]), [false], "waited for message 0");
        assert_eq!(within(&out[2]), [false, false], "waited for its body");
    }

    #[test]
    fn multi_fragment_message_waits_for_all() {
        let mut r = Receiver::new();
        assert!(feed(&mut r, SRC, chunk(0, 0, 0, 2, true, 3, 0, b"hdr")).is_empty());
        let out = feed(&mut r, SRC, chunk(0, 0, 1, 2, false, 4, 0, b"body"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fragments.len(), 2);
        assert_eq!(out[0].fragments[0].0, PackMode::Express);
        assert_eq!(&out[0].fragments[1].1[..], b"body");
    }

    #[test]
    fn out_of_order_chunks_within_fragment_reassemble() {
        let mut r = Receiver::new();
        assert!(feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 8, 4, b"WXYZ")).is_empty());
        let out = feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 8, 0, b"abcd"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].contiguous(), b"abcdWXYZ");
    }

    #[test]
    fn flow_order_enforced_even_if_later_message_completes_first() {
        let mut r = Receiver::new();
        // Message 1 completes first...
        assert!(feed(&mut r, SRC, chunk(0, 1, 0, 1, false, 2, 0, b"m1")).is_empty());
        assert_eq!(held_messages(&r), 1);
        // ...but is only delivered after message 0.
        let out = feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 2, 0, b"m0"));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id.seq.0, 0);
        assert_eq!(out[1].id.seq.0, 1);
    }

    #[test]
    fn flows_are_independent() {
        let mut r = Receiver::new();
        assert_eq!(
            feed(&mut r, SRC, chunk(1, 0, 0, 1, false, 1, 0, b"a")).len(),
            1
        );
        assert_eq!(
            feed(&mut r, SRC, chunk(2, 0, 0, 1, false, 1, 0, b"b")).len(),
            1
        );
        // Same flow id from a different source is independent too.
        assert_eq!(
            feed(&mut r, NodeId(9), chunk(1, 0, 0, 1, false, 1, 0, b"c")).len(),
            1
        );
    }

    #[test]
    fn express_violation_detected() {
        let mut r = Receiver::new();
        // Express fragment 0 partially arrives, then fragment 1 shows up.
        assert!(feed(&mut r, SRC, chunk(0, 0, 0, 2, true, 8, 0, b"half")).is_empty());
        feed(&mut r, SRC, chunk(0, 0, 1, 2, false, 2, 0, b"xx"));
        assert_eq!(r.stats.express_violations, 1);
    }

    #[test]
    fn no_violation_when_express_complete_first() {
        let mut r = Receiver::new();
        feed(&mut r, SRC, chunk(0, 0, 0, 2, true, 4, 0, b"full"));
        feed(&mut r, SRC, chunk(0, 0, 1, 2, false, 2, 0, b"xx"));
        assert_eq!(r.stats.express_violations, 0);
    }

    #[test]
    fn duplicate_and_overlapping_chunks_rejected() {
        let mut r = Receiver::new();
        feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 8, 0, b"abcd"));
        feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 8, 2, b"XXXX")); // overlaps
        assert_eq!(r.stats.overlaps, 1);
        let out = feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 8, 4, b"efgh"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].contiguous(), b"abcdefgh");
        // Late chunk for the delivered message is dropped.
        feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 8, 0, b"abcd"));
        assert_eq!(r.stats.overlaps, 2);
    }

    #[test]
    fn zero_length_fragment_messages_deliver() {
        let mut r = Receiver::new();
        let out = feed(&mut r, SRC, chunk(0, 0, 0, 2, true, 0, 0, b""));
        assert!(out.is_empty()); // frag 1 still missing
        let out = feed(&mut r, SRC, chunk(0, 0, 1, 2, false, 1, 0, b"x"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fragments[0].1.len(), 0);
    }

    #[test]
    fn cancel_skips_gap_and_releases_held_messages() {
        let mut r = Receiver::new();
        // seq 0 delivers; seq 2 completes but is held behind missing seq 1.
        assert_eq!(
            feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 2, 0, b"m0")).len(),
            1
        );
        assert!(feed(&mut r, SRC, chunk(0, 2, 0, 1, false, 2, 0, b"m2")).is_empty());
        assert_eq!(held_messages(&r), 1);
        // The sender shed seq 1: the cancel releases seq 2.
        let out = cancel(&mut r, 1);
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
        assert!(cancel(&mut r, 1).is_empty());
        // seq 0 then arrives and delivery crosses the cancelled gap when
        // seq 2 completes.
        assert_eq!(
            feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 2, 0, b"m0")).len(),
            1
        );
        let out = feed(&mut r, SRC, chunk(0, 2, 0, 1, false, 2, 0, b"m2"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id.seq.0, 2);
        assert_eq!(r.stats.cancelled, 1);
        // Late chunks for the cancelled sequence are rejected.
        assert!(feed(&mut r, SRC, chunk(0, 1, 0, 1, false, 2, 0, b"m1")).is_empty());
        assert_eq!(r.stats.overlaps, 1);
    }

    #[test]
    fn cancel_for_delivered_sequence_is_surfaced_not_applied() {
        let mut r = Receiver::new();
        feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 2, 0, b"m0"));
        assert!(cancel(&mut r, 0).is_empty());
        assert_eq!(r.stats.overlaps, 1);
        assert_eq!(r.stats.cancelled, 0);
    }

    #[test]
    fn consecutive_cancels_drain_in_one_step() {
        let mut r = Receiver::new();
        for seq in [0u32, 1, 2] {
            assert!(cancel(&mut r, seq).is_empty());
        }
        let out = feed(&mut r, SRC, chunk(0, 3, 0, 1, false, 2, 0, b"m3"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id.seq.0, 3);
        assert_eq!(r.stats.cancelled, 3);
    }

    #[test]
    fn a_drained_flow_keeps_only_its_next_sequence() {
        const FLOWS: u32 = 16;
        let mut r = Receiver::new();
        let mut delivered = 0;
        for flow in 0..FLOWS {
            // Two sources per flow id, so that a key without the source
            // would mix their sequence spaces. Message 2 of each flow
            // arrives first and waits; message 1 is shed.
            for src in [SRC, NodeId(1)] {
                delivered += feed(&mut r, src, chunk(flow, 2, 0, 2, true, 1, 0, b"h")).len();
                delivered += feed(&mut r, src, chunk(flow, 2, 1, 2, false, 1, 0, b"b")).len();
                let cancelled: Vec<_> = r.on_cancel(src, FlowId(flow), 1, NOW).collect();
                delivered += cancelled.len();
                delivered += feed(&mut r, src, chunk(flow, 0, 0, 1, false, 2, 0, b"m0")).len();
            }
        }
        assert_eq!(delivered, 4 * FLOWS as usize);
        assert_eq!(r.stats.cancelled, 2 * u64::from(FLOWS));
        assert!(r.held.ahead.is_empty(), "{:?}", r.held.ahead.keys());
        assert!(r.held.cancelled.is_empty(), "{:?}", r.held.cancelled);
        assert!(r.heads.is_empty());
        let rows: Vec<Row> = r.rows.iter().flatten().copied().collect();
        let drained = Row {
            next: 3,
            ..Row::default()
        };
        assert_eq!(rows, vec![drained; 2 * FLOWS as usize]);
    }

    #[test]
    fn a_chunk_or_cancel_for_a_flow_no_sender_can_open_is_a_proto_error() {
        let mut r = Receiver::new();
        let hostile = chunk(u32::MAX, 0, 0, 1, false, 1, 0, b"x");
        assert!(feed(&mut r, SRC, hostile).is_empty());
        let past = chunk(MAX_FLOWS, 0, 0, 1, false, 1, 0, b"x");
        assert!(feed(&mut r, SRC, past).is_empty());
        assert_eq!(r.on_cancel(SRC, FlowId(u32::MAX), 0, NOW).count(), 0);
        assert_eq!(r.stats.proto_errors, 3);
        assert_eq!((r.stats.chunks, r.stats.overlaps), (0, 0));
        assert!(r.rows.is_empty(), "no table is allocated");
        assert!(r.held.ahead.is_empty() && r.held.cancelled.is_empty());
        // The last flow a sender can open is accepted.
        let last = chunk(MAX_FLOWS - 1, 0, 0, 1, false, 1, 0, b"x");
        assert_eq!(feed(&mut r, SRC, last).len(), 1);
        assert_eq!(r.stats.proto_errors, 3);
    }

    #[test]
    fn a_chunk_of_no_fragments_is_a_proto_error_and_opens_nothing() {
        let mut r = Receiver::new();
        // Seq 0 says its message has no fragments: refused before its flow
        // is looked at, so it cannot become the flow's head.
        assert!(feed(&mut r, SRC, chunk(0, 0, 0, 0, false, 5, 0, b"bogus")).is_empty());
        assert_eq!((r.stats.proto_errors, r.stats.overlaps), (1, 0));
        assert!(r.rows.is_empty() && r.heads.is_empty());
        // The real seq 0 and seq 1 deliver, with their own bytes.
        let out = feed(&mut r, SRC, chunk(0, 0, 0, 1, false, 5, 0, b"hello"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].contiguous(), b"hello");
        let out = feed(&mut r, SRC, chunk(0, 1, 0, 1, false, 5, 0, b"world"));
        assert_eq!(out.len(), 1);
        assert_eq!(
            (out[0].id.seq.0, out[0].contiguous()),
            (1, b"world".to_vec())
        );
        assert_eq!((r.stats.delivered, r.stats.proto_errors), (2, 1));
    }

    #[test]
    fn a_fragment_index_past_the_count_is_a_proto_error_and_wedges_nothing() {
        let mut r = Receiver::new();
        // Fragment 2 of a message of two, first: an assembly no correct
        // chunk could complete, were it opened.
        assert!(feed(&mut r, SRC, chunk(0, 0, 2, 2, false, 3, 0, b"xyz")).is_empty());
        assert_eq!((r.stats.proto_errors, r.stats.overlaps), (1, 0));
        assert!(r.rows.is_empty() && r.heads.is_empty());
        assert!(feed(&mut r, SRC, chunk(0, 0, 0, 2, true, 3, 0, b"hdr")).is_empty());
        let out = feed(&mut r, SRC, chunk(0, 0, 1, 2, false, 4, 0, b"body"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].contiguous(), b"hdrbody");
        assert_eq!(r.stats.proto_errors, 1);
    }

    #[test]
    fn a_fragment_count_other_than_the_messages_is_a_proto_error() {
        let mut r = Receiver::new();
        // Seq 0 is the flow's head, seq 1 waits ahead of its turn: both
        // are open as messages of two fragments.
        assert!(feed(&mut r, SRC, chunk(0, 0, 0, 2, true, 3, 0, b"hdr")).is_empty());
        assert!(feed(&mut r, SRC, chunk(0, 1, 0, 2, true, 3, 0, b"HDR")).is_empty());
        // A chunk of each says three, and one says one: refused, and the
        // assemblies are as the first chunks left them.
        let lies = [
            chunk(0, 0, 1, 3, false, 4, 0, b"lie!"),
            chunk(0, 1, 1, 3, false, 4, 0, b"LIE!"),
            chunk(0, 1, 0, 1, false, 3, 0, b"one"),
        ];
        for lie in lies {
            assert!(feed(&mut r, SRC, lie).is_empty());
        }
        assert_eq!(
            (r.stats.proto_errors, r.stats.overlaps, r.stats.chunks),
            (3, 0, 2)
        );
        // The true bodies deliver both messages, in order, whole.
        assert!(feed(&mut r, SRC, chunk(0, 1, 1, 2, false, 4, 0, b"BODY")).is_empty());
        let out = feed(&mut r, SRC, chunk(0, 0, 1, 2, false, 4, 0, b"body"));
        let got: Vec<_> = out.iter().map(|m| (m.id.seq.0, m.contiguous())).collect();
        assert_eq!(got, [(0, b"hdrbody".to_vec()), (1, b"HDRBODY".to_vec())]);
        assert_eq!(r.stats.proto_errors, 3);
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

//! Property tests on the receiver and the wire protocol in isolation:
//! arbitrary chunkings arriving in arbitrary (per-rail-plausible) orders
//! must reassemble byte-exactly, the codec must round-trip anything, and
//! whatever arrives — duplicates, overlaps, cancels, headers that lie —
//! the receiver delivers and counts what its copying predecessor did.

use bytes::Bytes;
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::proto::{decode_packet, encode_packet, ChunkHeader, DecodedChunk, WireChunk};
use madeleine::receiver::Receiver;
use madware::pattern;
use proptest::prelude::*;
use simnet::{NicId, NodeId, SimTime, WirePacket};

/// The receiver as it read before fragments kept their packet's buffer —
/// `FragmentAssembly`, `drain_ready`, `on_chunk` and `on_cancel` verbatim
/// (a `calloc` and a copy per chunk, two range vectors per insert, a copy
/// per delivery), but for one rule added since: a chunk whose fragment
/// geometry no message has — an index not below its count, or a count
/// other than its message's — is a protocol error and touches nothing.
/// The model the shipped receiver is held to.
mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use bytes::Bytes;
    use madeleine::ids::{FlowId, MsgId, MsgSeq, TrafficClass};
    use madeleine::message::{DeliveredMessage, PackMode};
    use madeleine::proto::DecodedChunk;
    use madeleine::receiver::ReceiverStats;
    use simnet::{NodeId, SimDuration, SimTime};

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
            if h.frag_index >= h.frag_count {
                self.stats.proto_errors += 1;
                return Vec::new();
            }
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
            if asm.frags.len() != usize::from(h.frag_count) {
                self.stats.proto_errors += 1;
                return Vec::new();
            }
            let fi = h.frag_index as usize;
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
            let fa =
                asm.frags[fi].get_or_insert_with(|| FragmentAssembly::new(h.frag_len, h.express));
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
}

/// An arbitrary message: fragment sizes + express flags.
fn message() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((1usize..3000, any::<bool>()), 1..5)
}

#[allow(clippy::too_many_arguments)]
fn header(
    flow: u32,
    seq: u32,
    frag: u16,
    frag_count: u16,
    express: bool,
    frag_len: usize,
    offset: usize,
    chunk_len: usize,
) -> ChunkHeader {
    ChunkHeader {
        flow: FlowId(flow),
        msg_seq: seq,
        frag_index: frag,
        frag_count,
        express,
        class: TrafficClass::DEFAULT,
        frag_len: frag_len as u32,
        offset: offset as u32,
        chunk_len: chunk_len as u32,
        submit_ns: 42,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_chunk_orders_reassemble(
        msg in message(),
        order_seed in any::<u64>(),
    ) {
        // Build every chunk of every fragment, then ingest in a seeded
        // pseudo-random order (models multi-rail arrival).
        let mut rng = simnet::SplitMix64::new(order_seed);
        let mut chunks: Vec<DecodedChunk> = Vec::new();
        let frag_count = msg.len() as u16;
        for (fi, &(len, express)) in msg.iter().enumerate() {
            let data = pattern(3, 0, fi as u16, len);
            // Deterministic-ish cuts derived from the seed.
            let n_cuts = (rng.next_below(3) + 1) as usize;
            let mut points: Vec<usize> =
                (0..n_cuts).map(|_| 1 + rng.next_below(len as u64) as usize).collect();
            points.push(len);
            points.sort_unstable();
            points.dedup();
            let mut start = 0;
            for p in points {
                if p > start {
                    chunks.push(DecodedChunk {
                        header: header(3, 0, fi as u16, frag_count, express, len, start, p - start),
                        data: Bytes::copy_from_slice(&data[start..p]),
                    });
                    start = p;
                }
            }
        }
        // Shuffle (Fisher–Yates with the deterministic RNG).
        for i in (1..chunks.len()).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            chunks.swap(i, j);
        }
        let mut r = Receiver::new();
        let mut delivered = Vec::new();
        for c in &chunks {
            delivered.extend(r.on_chunk(NodeId(0), c, SimTime::from_nanos(1000)));
        }
        prop_assert_eq!(delivered.len(), 1, "exactly one message");
        let m = &delivered[0];
        prop_assert_eq!(m.fragments.len(), msg.len());
        for (fi, &(len, _)) in msg.iter().enumerate() {
            prop_assert_eq!(&m.fragments[fi].1[..], &pattern(3, 0, fi as u16, len)[..]);
        }
        prop_assert_eq!(r.stats.overlaps, 0);
    }

    #[test]
    fn codec_roundtrips_arbitrary_packets(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..500), 1..10),
        linearize in any::<bool>(),
    ) {
        let chunks: Vec<WireChunk> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| WireChunk {
                header: header(i as u32, 0, 0, 1, false, p.len(), 0, p.len()),
                data: Bytes::copy_from_slice(p),
            })
            .collect();
        let segs = encode_packet(&chunks, linearize);
        let pkt = WirePacket {
            src: NodeId(0),
            dst: NodeId(1),
            src_nic: NicId(0),
            dst_nic: NicId(1),
            vchan: 0,
            kind: 1,
            cookie: 0,
            seq: 0,
            ecn: false,
            payload: segs,
        };
        let back = decode_packet(&pkt).unwrap();
        prop_assert_eq!(back.len(), chunks.len());
        for (a, b) in chunks.iter().zip(&back) {
            prop_assert_eq!(a.header, b.header);
            prop_assert_eq!(&a.data[..], &b.data[..]);
        }
    }

    #[test]
    fn truncation_anywhere_is_detected_or_roundtrips(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..100), 1..5),
        cut in any::<prop::sample::Index>(),
    ) {
        let chunks: Vec<WireChunk> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| WireChunk {
                header: header(i as u32, 0, 0, 1, false, p.len(), 0, p.len()),
                data: Bytes::copy_from_slice(p),
            })
            .collect();
        let segs = encode_packet(&chunks, true);
        let full = segs[0].clone();
        let cut_at = cut.index(full.len());
        let truncated = full.slice(..cut_at);
        let pkt = WirePacket {
            src: NodeId(0),
            dst: NodeId(1),
            src_nic: NicId(0),
            dst_nic: NicId(1),
            vchan: 0,
            kind: 1,
            cookie: 0,
            seq: 0,
            ecn: false,
            payload: vec![truncated],
        };
        // Any strict prefix must fail to decode (never mis-decode).
        if cut_at < full.len() {
            prop_assert!(decode_packet(&pkt).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_arrival_sequence_delivers_what_the_copying_receiver_did(seed in any::<u64>()) {
        let mut rng = simnet::SplitMix64::new(seed);
        let mut below = |n: usize| rng.next_below(n as u64) as usize;
        // Two or three sources, each with the same two flow ids (a key
        // that drops the source mixes their sequences), of four messages,
        // 1–3 fragments of 0–40 bytes each.
        let mut ops = Vec::new();
        let sources = 2 + below(2) as u32;
        for (src, flow) in (0..sources).flat_map(|src| (0..2u32).map(move |flow| (NodeId(src), flow))) {
            for seq in 0..4u32 {
                let frag_count = 1 + below(3);
                for frag in 0..frag_count {
                    let (len, express) = (below(41), below(2) == 0);
                    let data: Vec<u8> = (0..len).map(|_| below(256) as u8).collect();
                    // Cut at up to three points; sometimes not at all, so
                    // the fragment arrives whole.
                    let mut cuts: Vec<usize> = (0..below(4)).map(|_| below(len + 1)).collect();
                    cuts.push(len);
                    cuts.sort_unstable();
                    let mut start = 0;
                    for cut in cuts {
                        let mut h = header(
                            flow, seq, frag as u16, frag_count as u16, express, len, start,
                            cut - start,
                        );
                        let mut piece = data[start..cut].to_vec();
                        // One chunk in eight lies: about its place, its
                        // fragment, its message's shape, or its length.
                        match below(32) {
                            0 => h.offset = below(48) as u32,
                            1 => h.frag_index = below(5) as u16,
                            2 => h.frag_count = below(5) as u16,
                            3 => {
                                piece = (0..below(48)).map(|_| below(256) as u8).collect();
                                h.chunk_len = piece.len() as u32;
                            }
                            _ => {}
                        }
                        let chunk = DecodedChunk { header: h, data: Bytes::from(piece) };
                        // Duplicates now and then.
                        for _ in 0..1 + usize::from(below(6) == 0) {
                            ops.push((src, Ok(chunk.clone())));
                        }
                        start = cut;
                    }
                }
                if below(8) == 0 {
                    ops.push((src, Err((flow, seq))));
                }
            }
        }
        // Any order at all: early cancels, late chunks, later messages first.
        for i in (1..ops.len()).rev() {
            ops.swap(i, below(i + 1));
        }
        let (mut got, mut want) = (Receiver::new(), reference::Receiver::new());
        let counters = |s: &madeleine::receiver::ReceiverStats| {
            (
                [
                    s.chunks,
                    s.completed,
                    s.delivered,
                    s.cancelled,
                    s.express_violations,
                    s.overlaps,
                    s.proto_errors,
                ],
                s.per_vchan_packets.clone(),
            )
        };
        for (i, (src, op)) in ops.iter().enumerate() {
            let (src, now) = (*src, SimTime::from_nanos(30 + 7 * i as u64));
            let vchan = below(3) as u8;
            got.record_vchan(vchan);
            want.record_vchan(vchan);
            let (g, w) = match op {
                Ok(chunk) => (
                    got.on_chunk(src, chunk, now).collect::<Vec<_>>(),
                    want.on_chunk(src, chunk, now),
                ),
                &Err((flow, seq)) => (
                    got.on_cancel(src, FlowId(flow), seq, now).collect(),
                    want.on_cancel(src, FlowId(flow), seq, now),
                ),
            };
            // Bytes, order, latency and identity, through `Debug`.
            prop_assert_eq!(format!("{g:?}"), format!("{w:?}"), "op {} of {:?}", i, ops);
            prop_assert_eq!(counters(&got.stats), counters(&want.stats), "op {} of {:?}", i, ops);
        }
    }
}

/// `offset` and `chunk_len` are a peer's header fields: a pair whose sum
/// leaves `u32` must be counted as an overlap like any other chunk that
/// reaches past its fragment — not wrap to a small `end`, pass the bound
/// and index the buffer with it.
#[test]
fn chunk_whose_end_overflows_u32_is_an_overlap_not_a_panic() {
    let mut r = Receiver::new();
    let hostile = DecodedChunk {
        header: header(0, 0, 0, 1, false, 64, 0xFFFF_FFF0, 32),
        data: Bytes::from(vec![0xAB; 32]),
    };
    assert_eq!(r.on_chunk(NodeId(0), &hostile, SimTime::ZERO).len(), 0);
    assert_eq!((r.stats.overlaps, r.stats.chunks), (1, 0));
    // The fragment is still there for the chunk that tells the truth.
    let honest = DecodedChunk {
        header: header(0, 0, 0, 1, false, 64, 0, 64),
        data: Bytes::from(vec![0xCD; 64]),
    };
    let mut delivered = 0;
    for m in r.on_chunk(NodeId(0), &honest, SimTime::ZERO) {
        assert_eq!(m.contiguous(), vec![0xCD; 64]);
        delivered += 1;
    }
    assert_eq!(delivered, 1);
}

/// One step of a directed replay: a chunk of `(seq, frag, frag_count)`
/// carrying `data` whole, or the cancel of a sequence, all on flow 0 of
/// node 0.
enum Step {
    Chunk(u32, u16, u16, &'static [u8]),
    Cancel(u32),
}

/// Feed `steps` to the receiver and to the reference, which must agree on
/// every call (bytes, order, identity and counters); returns the sequences
/// each call delivered.
fn replay(steps: &[Step]) -> Vec<Vec<u32>> {
    let (mut got, mut want) = (Receiver::new(), reference::Receiver::new());
    let (src, flow, now) = (NodeId(0), FlowId(0), SimTime::from_nanos(100));
    let mut seqs = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let (g, w) = match *step {
            Step::Chunk(seq, frag, frag_count, data) => {
                let chunk = DecodedChunk {
                    header: header(0, seq, frag, frag_count, false, data.len(), 0, data.len()),
                    data: Bytes::from_static(data),
                };
                let g: Vec<_> = got.on_chunk(src, &chunk, now).collect();
                (g, want.on_chunk(src, &chunk, now))
            }
            Step::Cancel(seq) => {
                let g: Vec<_> = got.on_cancel(src, flow, seq, now).collect();
                (g, want.on_cancel(src, flow, seq, now))
            }
        };
        assert_eq!(format!("{g:?}"), format!("{w:?}"), "step {i}");
        let counters = |s: &madeleine::receiver::ReceiverStats| {
            [
                s.chunks,
                s.completed,
                s.delivered,
                s.cancelled,
                s.overlaps,
                s.proto_errors,
            ]
        };
        assert_eq!(counters(&got.stats), counters(&want.stats), "step {i}");
        seqs.push(g.iter().map(|m| m.id.seq.0).collect());
    }
    seqs
}

/// A chunk that says its message has no fragments opens nothing: it used
/// to open the flow's head as a message complete with no bytes, which the
/// next completion delivered in place of the true one. The true head, when
/// it comes, delivers itself and what waited behind it.
#[test]
fn a_chunk_of_no_fragments_opens_no_head_and_wedges_nothing() {
    let delivered = replay(&[
        Step::Chunk(0, 0, 0, b"lie"),
        Step::Chunk(2, 0, 1, b"two"),
        Step::Chunk(1, 0, 1, b"one"),
        Step::Chunk(0, 0, 1, b"zero"),
    ]);
    assert_eq!(delivered, [vec![], vec![], vec![], vec![0, 1, 2]]);
}

/// Message 1's header arrives ahead of its turn and waits in the map; once
/// message 0 leaves, message 1 is the head, and its body completes it
/// there — a receiver that never looks in the map for a new head starts
/// message 1 afresh and waits for a header that came already.
#[test]
fn a_message_begun_ahead_of_its_turn_completes_as_the_head() {
    let delivered = replay(&[
        Step::Chunk(1, 0, 2, b"hdr1"),
        Step::Chunk(2, 0, 1, b"two"),
        Step::Chunk(0, 0, 1, b"zero"),
        Step::Chunk(1, 1, 2, b"body1"),
        Step::Chunk(1, 0, 2, b"hdr1"),
    ]);
    assert_eq!(delivered, [vec![], vec![], vec![0], vec![1, 2], vec![]]);
}

/// The head is cancelled while half of it is in and the message after it
/// is held complete: one call skips the one and delivers the other.
#[test]
fn a_cancelled_head_and_its_complete_successor_leave_in_one_call() {
    let delivered = replay(&[
        Step::Chunk(0, 0, 2, b"hdr0"),
        Step::Chunk(1, 0, 1, b"one"),
        Step::Cancel(0),
        Step::Chunk(0, 1, 2, b"body0"),
        Step::Chunk(2, 0, 1, b"two"),
    ]);
    assert_eq!(delivered, [vec![], vec![], vec![1], vec![], vec![2]]);
}

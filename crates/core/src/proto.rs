//! Wire protocol: how the engine encodes (possibly aggregated) message
//! chunks into NIC packets, and the packet kinds of the eager / rendezvous
//! protocols.
//!
//! A data packet is:
//!
//! ```text
//! +-------------+----------------+---------------+------------------+
//! | count (u16) | chunk hdr * N  | chunk data 0  | ... chunk data N |
//! +-------------+----------------+---------------+------------------+
//! ```
//!
//! Each chunk is a contiguous byte range of one message fragment. The
//! header block travels as the packet's first gather segment; chunk data
//! follow as zero-copy segments (or everything is linearized into one
//! segment when the optimizer chose by-copy aggregation). Header bytes are
//! real bytes: aggregation's framing overhead costs wire time, so the
//! optimizer's trade-offs are physically grounded.

// madlint: file: hot-path

use bytes::Bytes;
use simnet::{SimTime, WirePacket};

use crate::ids::{FlowId, FragIndex, TrafficClass};

/// Packet kind: eager data (possibly aggregated chunks).
pub const KIND_DATA: u16 = 1;
/// Packet kind: rendezvous request (metadata only).
pub const KIND_RNDV_REQ: u16 = 2;
/// Packet kind: rendezvous grant.
pub const KIND_RNDV_ACK: u16 = 3;
/// Packet kind: library-internal control/signalling.
pub const KIND_CTRL: u16 = 4;
/// Packet kind: reliability acknowledgement of a data packet (madrel).
pub const KIND_ACK: u16 = 5;

/// Size of one encoded chunk header.
pub const CHUNK_HEADER_BYTES: u64 = 34;
/// Size of the packet-level prefix.
pub const PACKET_PREFIX_BYTES: u64 = 2;

const HEADER: usize = CHUNK_HEADER_BYTES as usize;
const PREFIX: usize = PACKET_PREFIX_BYTES as usize;

/// Framing bytes for a packet carrying `chunks` chunks.
pub fn framing_bytes(chunks: usize) -> u64 {
    PACKET_PREFIX_BYTES + CHUNK_HEADER_BYTES * chunks as u64
}

/// Metadata of one chunk on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Sender-side flow id.
    pub flow: FlowId,
    /// Message sequence within the flow.
    pub msg_seq: u32,
    /// Fragment index within the message.
    pub frag_index: FragIndex,
    /// Total fragments in the message (receiver allocates from this).
    pub frag_count: u16,
    /// Whether the fragment is express (ordering-constrained).
    pub express: bool,
    /// Traffic class of the message.
    pub class: TrafficClass,
    /// Total length of the fragment this chunk belongs to.
    pub frag_len: u32,
    /// Offset of this chunk within the fragment.
    pub offset: u32,
    /// Bytes of fragment data carried by this chunk.
    pub chunk_len: u32,
    /// Message submission timestamp (ns), carried for latency measurement.
    pub submit_ns: u64,
}

impl ChunkHeader {
    /// The header as it travels.
    fn encode(&self) -> [u8; HEADER] {
        let mut b = [0u8; HEADER];
        b[0..4].copy_from_slice(&self.flow.0.to_le_bytes());
        b[4..8].copy_from_slice(&self.msg_seq.to_le_bytes());
        b[8..10].copy_from_slice(&self.frag_index.to_le_bytes());
        b[10..12].copy_from_slice(&self.frag_count.to_le_bytes());
        b[12] = self.express as u8;
        b[13] = self.class.0;
        b[14..18].copy_from_slice(&self.frag_len.to_le_bytes());
        b[18..22].copy_from_slice(&self.offset.to_le_bytes());
        b[22..26].copy_from_slice(&self.chunk_len.to_le_bytes());
        b[26..34].copy_from_slice(&self.submit_ns.to_le_bytes());
        b
    }

    fn decode(b: &[u8; HEADER]) -> ChunkHeader {
        let u32le =
            |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().expect("fixed-width field"));
        let u16le =
            |o: usize| u16::from_le_bytes(b[o..o + 2].try_into().expect("fixed-width field"));
        ChunkHeader {
            flow: FlowId(u32le(0)),
            msg_seq: u32le(4),
            frag_index: u16le(8),
            frag_count: u16le(10),
            express: b[12] != 0,
            class: TrafficClass(b[13]),
            frag_len: u32le(14),
            offset: u32le(18),
            chunk_len: u32le(22),
            submit_ns: u64::from_le_bytes(b[26..34].try_into().expect("fixed-width field")),
        }
    }
}

/// One chunk ready for encoding: header plus its payload slice.
#[derive(Clone, Debug)]
pub struct WireChunk {
    /// Chunk metadata.
    pub header: ChunkHeader,
    /// Payload (must be `header.chunk_len` bytes).
    pub data: Bytes,
}

/// A chunk decoded from an incoming packet.
#[derive(Clone, Debug)]
pub struct DecodedChunk {
    /// Chunk metadata.
    pub header: ChunkHeader,
    /// Payload bytes.
    pub data: Bytes,
}

/// Wire-protocol decode failures. These indicate a peer bug (or corrupted
/// fault-injection traffic) and are surfaced, never ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Buffer ended inside a header or payload.
    Truncated,
    /// Chunk payload length disagrees with the header.
    LengthMismatch,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "packet truncated"),
            ProtoError::LengthMismatch => write!(f, "chunk length mismatch"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Encode chunks into packet segments.
///
/// With `linearize == false` the result is `[header block, data0, ..dataN]`
/// — a gather list of `1 + N` entries referencing the original buffers
/// zero-copy. With `linearize == true` everything is copied into a single
/// contiguous segment (the caller charges the copy time via the cost
/// model's `copy_time`).
pub fn encode_packet(chunks: &[WireChunk], linearize: bool) -> Vec<Bytes> {
    encode_packet_with(&mut Vec::new(), chunks, linearize)
}

/// [`encode_packet`] that writes a gather list's header block in the
/// caller's `block` (cleared here), so a sender that keeps one allocates
/// the block's final size only.
pub(crate) fn encode_packet_with(
    block: &mut Vec<u8>,
    chunks: &[WireChunk],
    linearize: bool,
) -> Vec<Bytes> {
    assert!(
        chunks.len() <= u16::MAX as usize,
        "too many chunks in packet"
    );
    let write_headers = |out: &mut Vec<u8>| {
        out.extend_from_slice(&(chunks.len() as u16).to_le_bytes());
        for c in chunks {
            debug_assert_eq!(c.header.chunk_len as usize, c.data.len());
            out.extend_from_slice(&c.header.encode());
        }
    };
    let hdr_len = PREFIX + HEADER * chunks.len();
    if linearize {
        let payload: usize = chunks.iter().map(|c| c.data.len()).sum();
        let mut one = Vec::with_capacity(hdr_len + payload);
        write_headers(&mut one);
        for c in chunks {
            one.extend_from_slice(&c.data);
        }
        vec![Bytes::from(one)]
    } else {
        block.clear();
        block.reserve(hdr_len);
        write_headers(block);
        let mut segs = Vec::with_capacity(1 + chunks.len());
        segs.push(Bytes::copy_from_slice(block));
        segs.extend(chunks.iter().map(|c| c.data.clone()));
        segs
    }
}

/// A read position in a packet's gather list.
struct SegCursor<'a> {
    segs: &'a [Bytes],
    /// Index of the segment being read.
    seg: usize,
    /// Bytes of it already read.
    at: usize,
}

impl<'a> SegCursor<'a> {
    fn new(segs: &'a [Bytes]) -> Self {
        SegCursor {
            segs,
            seg: 0,
            at: 0,
        }
    }

    /// The segment holding the next unread byte; `None` at the end.
    fn current(&mut self) -> Option<&'a Bytes> {
        while self.segs.get(self.seg)?.len() == self.at {
            self.seg += 1;
            self.at = 0;
        }
        self.segs.get(self.seg)
    }

    /// Move `n` bytes forward; false when fewer remain.
    fn skip(&mut self, mut n: usize) -> bool {
        while n > 0 {
            let Some(seg) = self.current() else {
                return false;
            };
            let step = n.min(seg.len() - self.at);
            self.at += step;
            n -= step;
        }
        true
    }

    /// Fill `out` with the next bytes; false when fewer remain.
    fn read(&mut self, mut out: &mut [u8]) -> bool {
        while !out.is_empty() {
            let Some(seg) = self.current() else {
                return false;
            };
            let (head, tail) = out.split_at_mut(out.len().min(seg.len() - self.at));
            head.copy_from_slice(&seg[self.at..self.at + head.len()]);
            self.at += head.len();
            out = tail;
        }
        true
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        // Within one segment (a header block always is, as encoded) the
        // copy has a fixed size.
        let whole = self
            .current()
            .and_then(|seg| seg.get(self.at..self.at + N))
            .and_then(|b| <[u8; N]>::try_from(b).ok());
        if whole.is_some() {
            self.at += N;
            return whole;
        }
        let mut a = [0u8; N];
        self.read(&mut a).then_some(a)
    }

    /// The next `len` bytes as a buffer: a slice of their segment when
    /// they lie within one, a copy when they straddle several. The caller
    /// has checked that `len` bytes remain.
    fn take(&mut self, len: usize) -> Option<Bytes> {
        if len == 0 {
            return Some(Bytes::new());
        }
        let seg = self.current()?;
        if len <= seg.len() - self.at {
            let out = seg.slice(self.at..self.at + len);
            self.at += len;
            return Some(out);
        }
        let mut joined = vec![0u8; len];
        self.read(&mut joined).then(|| Bytes::from(joined))
    }
}

/// A data packet being decoded. One cursor reads the header block while a
/// second follows the payload behind it, so nothing is flattened: a
/// payload is a slice of the segment it arrived in (the encoder's
/// `[header block, data0..dataN]` and a linearized single segment both
/// slice), and only a chunk that straddles segments is copied.
struct ChunkReader<'a> {
    headers: SegCursor<'a>,
    data: SegCursor<'a>,
    /// Chunks the packet announces.
    chunks: usize,
    /// Payload bytes behind the header block.
    bytes: usize,
}

impl<'a> ChunkReader<'a> {
    /// Read the prefix and check that the header block it announces is
    /// all there (so `chunks` is bounded by the packet's real size).
    fn open(pkt: &'a WirePacket) -> Result<Self, ProtoError> {
        let segs = &pkt.payload[..];
        let total: usize = segs.iter().map(Bytes::len).sum();
        let mut headers = SegCursor::new(segs);
        let Some(count) = headers.array::<PREFIX>() else {
            return Err(ProtoError::Truncated);
        };
        let chunks = u16::from_le_bytes(count) as usize;
        let hdr_end = PREFIX + HEADER * chunks;
        if total < hdr_end {
            return Err(ProtoError::Truncated);
        }
        let mut data = SegCursor::new(segs);
        let in_bounds = data.skip(hdr_end);
        debug_assert!(in_bounds);
        Ok(ChunkReader {
            headers,
            data,
            chunks,
            bytes: total - hdr_end,
        })
    }

    /// Hand every chunk, in order, to `emit`. Chunks emitted before an
    /// error is found are the caller's to discard.
    fn read(mut self, mut emit: impl FnMut(ChunkHeader, Bytes)) -> Result<(), ProtoError> {
        for _ in 0..self.chunks {
            let header = self.headers.array().expect("header block is in bounds");
            let header = ChunkHeader::decode(&header);
            let len = header.chunk_len as usize;
            if len > self.bytes {
                return Err(ProtoError::Truncated);
            }
            self.bytes -= len;
            emit(header, self.data.take(len).expect("payload is in bounds"));
        }
        if self.bytes != 0 {
            return Err(ProtoError::LengthMismatch);
        }
        Ok(())
    }
}

/// Decode a data packet back into chunks. Accepts both gather-encoded and
/// linearized packets (the wire makes no distinction).
pub fn decode_packet(pkt: &WirePacket) -> Result<Vec<DecodedChunk>, ProtoError> {
    let mut out = Vec::new();
    decode_packet_into(pkt, &mut out)?;
    Ok(out)
}

/// [`decode_packet`] into the caller's vector (cleared here, and left
/// empty when the packet does not decode).
pub(crate) fn decode_packet_into(
    pkt: &WirePacket,
    out: &mut Vec<DecodedChunk>,
) -> Result<(), ProtoError> {
    out.clear();
    let reader = ChunkReader::open(pkt)?;
    out.reserve(reader.chunks);
    let decoded = reader.read(|header, data| out.push(DecodedChunk { header, data }));
    if decoded.is_err() {
        out.clear();
    }
    decoded
}

/// Encode a rendezvous request/grant: a single metadata-only chunk header.
pub fn encode_rndv(header: ChunkHeader) -> Vec<Bytes> {
    let mut h = header;
    h.chunk_len = 0;
    let mut pkt = [0u8; PREFIX + HEADER];
    pkt[..PREFIX].copy_from_slice(&1u16.to_le_bytes());
    pkt[PREFIX..].copy_from_slice(&h.encode());
    vec![Bytes::copy_from_slice(&pkt)]
}

/// Decode a rendezvous request/grant.
pub fn decode_rndv(pkt: &WirePacket) -> Result<ChunkHeader, ProtoError> {
    // Whatever is wrong with the packet as a packet comes first; only a
    // well-formed one is then held to the one-empty-chunk shape.
    let mut chunks = 0usize;
    let mut metadata_only = None;
    ChunkReader::open(pkt)?.read(|header, data| {
        chunks += 1;
        metadata_only = data.is_empty().then_some(header);
    })?;
    match metadata_only {
        Some(header) if chunks == 1 => Ok(header),
        _ => Err(ProtoError::LengthMismatch),
    }
}

/// The metadata-only header a reliability acknowledgement for the data
/// packet that carried `cookie` travels in (the engine queues these through
/// its control-packet path). It rides the metadata-only packet shape: the
/// acked cookie is carried in the header's `(flow, msg_seq)` pair as its
/// high/low halves, so no new wire format is needed. `ecn` echoes a fabric
/// congestion mark (madnet ECN) in the spare `frag_index` field — acks are
/// single metadata-only chunks, so the field is otherwise always zero.
pub fn ack_header_ecn(cookie: u64, ecn: bool) -> ChunkHeader {
    ChunkHeader {
        flow: FlowId((cookie >> 32) as u32),
        msg_seq: cookie as u32,
        frag_index: ecn as u16,
        frag_count: 0,
        express: false,
        class: TrafficClass::DEFAULT,
        frag_len: 0,
        offset: 0,
        chunk_len: 0,
        submit_ns: 0,
    }
}

/// Decode an acknowledgement to `(cookie, ecn_echo)` — the congestion bit
/// the receiver observed on the acked data packet (see [`ack_header_ecn`]).
pub fn decode_ack_ecn(pkt: &WirePacket) -> Result<(u64, bool), ProtoError> {
    let h = decode_rndv(pkt)?;
    Ok((
        ((h.flow.0 as u64) << 32) | h.msg_seq as u64,
        h.frag_index != 0,
    ))
}

/// The metadata-only header a shed-cancel notification travels in
/// (`KIND_CTRL`). It tells the receiver that `(flow, msg_seq)` was shed
/// before any byte was committed and will never arrive, so per-flow
/// ordered delivery must skip that sequence instead of waiting forever.
pub fn cancel_header(flow: FlowId, msg_seq: u32, class: TrafficClass) -> ChunkHeader {
    ChunkHeader {
        flow,
        msg_seq,
        frag_index: 0,
        frag_count: 0,
        express: false,
        class,
        frag_len: 0,
        offset: 0,
        chunk_len: 0,
        submit_ns: 0,
    }
}

/// Helper: a `ChunkHeader` stamped from message context.
#[allow(clippy::too_many_arguments)]
pub fn make_header(
    flow: FlowId,
    msg_seq: u32,
    frag_index: FragIndex,
    frag_count: u16,
    express: bool,
    class: TrafficClass,
    frag_len: u32,
    offset: u32,
    chunk_len: u32,
    submitted_at: SimTime,
) -> ChunkHeader {
    ChunkHeader {
        flow,
        msg_seq,
        frag_index,
        frag_count,
        express,
        class,
        frag_len,
        offset,
        chunk_len,
        submit_ns: submitted_at.as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NicId, NodeId};

    fn chunk(flow: u32, seq: u32, frag: u16, data: &[u8], offset: u32, frag_len: u32) -> WireChunk {
        WireChunk {
            header: ChunkHeader {
                flow: FlowId(flow),
                msg_seq: seq,
                frag_index: frag,
                frag_count: 3,
                express: frag == 0,
                class: TrafficClass::DEFAULT,
                frag_len,
                offset,
                chunk_len: data.len() as u32,
                submit_ns: 12345,
            },
            data: Bytes::copy_from_slice(data),
        }
    }

    fn as_packet(segs: Vec<Bytes>) -> WirePacket {
        WirePacket {
            src: NodeId(0),
            dst: NodeId(1),
            src_nic: NicId(0),
            dst_nic: NicId(1),
            vchan: 0,
            kind: KIND_DATA,
            cookie: 0,
            seq: 0,
            ecn: false,
            payload: segs,
        }
    }

    /// `ChunkHeader::decode` as it read while the decoder flattened.
    fn reference_decode_from(b: &[u8]) -> Result<ChunkHeader, ProtoError> {
        if b.len() < CHUNK_HEADER_BYTES as usize {
            return Err(ProtoError::Truncated);
        }
        let u32le =
            |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().expect("fixed-width field"));
        let u16le =
            |o: usize| u16::from_le_bytes(b[o..o + 2].try_into().expect("fixed-width field"));
        Ok(ChunkHeader {
            flow: FlowId(u32le(0)),
            msg_seq: u32le(4),
            frag_index: u16le(8),
            frag_count: u16le(10),
            express: b[12] != 0,
            class: TrafficClass(b[13]),
            frag_len: u32le(14),
            offset: u32le(18),
            chunk_len: u32le(22),
            submit_ns: u64::from_le_bytes(b[26..34].try_into().expect("fixed-width field")),
        })
    }

    /// The decoder this file shipped before the segment cursor, verbatim:
    /// flatten the gather list, then slice the copy. The oracle the cursor
    /// is held to.
    fn reference_decode_packet(pkt: &WirePacket) -> Result<Vec<DecodedChunk>, ProtoError> {
        let flat = Bytes::from(pkt.contiguous());
        if flat.len() < PACKET_PREFIX_BYTES as usize {
            return Err(ProtoError::Truncated);
        }
        let count = u16::from_le_bytes(flat[0..2].try_into().expect("fixed-width field")) as usize;
        let hdr_end = PACKET_PREFIX_BYTES as usize + CHUNK_HEADER_BYTES as usize * count;
        if flat.len() < hdr_end {
            return Err(ProtoError::Truncated);
        }
        let mut headers = Vec::with_capacity(count);
        for i in 0..count {
            let off = PACKET_PREFIX_BYTES as usize + CHUNK_HEADER_BYTES as usize * i;
            headers.push(reference_decode_from(&flat[off..])?);
        }
        let mut out = Vec::with_capacity(count);
        let mut cursor = hdr_end;
        for h in headers {
            let end = cursor + h.chunk_len as usize;
            if end > flat.len() {
                return Err(ProtoError::Truncated);
            }
            out.push(DecodedChunk {
                header: h,
                data: flat.slice(cursor..end),
            });
            cursor = end;
        }
        if cursor != flat.len() {
            return Err(ProtoError::LengthMismatch);
        }
        Ok(out)
    }

    /// `decode_rndv` over the reference decoder, verbatim.
    fn reference_decode_rndv(pkt: &WirePacket) -> Result<ChunkHeader, ProtoError> {
        let chunks = reference_decode_packet(pkt)?;
        if chunks.len() != 1 || !chunks[0].data.is_empty() {
            return Err(ProtoError::LengthMismatch);
        }
        Ok(chunks[0].header)
    }

    /// Both decoders must say the same about `bytes` cut at `cuts`
    /// (ascending; equal neighbours make an empty segment).
    fn assert_same_decoding(bytes: &Bytes, cuts: &[usize]) {
        let mut segs = Vec::with_capacity(cuts.len() + 1);
        let mut from = 0;
        for &cut in cuts.iter().chain([&bytes.len()]) {
            segs.push(bytes.slice(from..cut));
            from = cut;
        }
        let pkt = as_packet(segs);
        let flatten = |r: Result<Vec<DecodedChunk>, ProtoError>| {
            r.map(|chunks| {
                chunks
                    .into_iter()
                    .map(|c| (c.header, c.data.to_vec()))
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(
            flatten(decode_packet(&pkt)),
            flatten(reference_decode_packet(&pkt)),
            "{} bytes cut at {cuts:?}",
            bytes.len()
        );
        assert_eq!(decode_rndv(&pkt), reference_decode_rndv(&pkt), "{cuts:?}");
    }

    #[test]
    fn segment_cursor_decodes_what_the_flattening_decoder_did() {
        // Chunk lists of 0–4 chunks, empty payloads included.
        let lists: Vec<Vec<WireChunk>> = vec![
            vec![],
            vec![chunk(9, 8, 1, b"", 0, 1 << 20)],
            vec![chunk(1, 0, 0, b"hello", 0, 5)],
            vec![chunk(1, 0, 0, b"xy", 3, 9), chunk(2, 7, 1, b"", 0, 0)],
            vec![
                chunk(1, 0, 0, b"hdr", 0, 3),
                chunk(1, 0, 1, b"payload-a", 0, 9),
                chunk(2, 5, 0, b"other-flow", 0, 10),
            ],
            vec![
                chunk(4, 1, 2, b"", 0, 7),
                chunk(4, 1, 2, b"0123456", 0, 7),
                chunk(5, 1, 0, b"z", 6, 7),
                chunk(
                    u32::MAX,
                    u32::MAX,
                    u16::MAX,
                    b"\xff\x00",
                    u32::MAX,
                    u32::MAX,
                ),
            ],
        ];
        for list in &lists {
            for linearize in [false, true] {
                // Both encodings as the encoder cut them.
                let pkt = as_packet(encode_packet(list, linearize));
                let flat = Bytes::from(pkt.contiguous());
                let back = decode_packet(&pkt).expect("own encoding decodes");
                let want = reference_decode_packet(&pkt).expect("own encoding decodes");
                assert_eq!(back.len(), list.len());
                for ((c, d), w) in list.iter().zip(&back).zip(&want) {
                    assert_eq!((d.header, &d.data), (c.header, &c.data));
                    assert_eq!((d.header, &d.data), (w.header, &w.data));
                }
                // Every re-segmentation into two and into three, cuts
                // inside the prefix, a header and a chunk included.
                let len = flat.len();
                for a in 0..=len {
                    assert_same_decoding(&flat, &[a]);
                    for b in a..=len {
                        assert_same_decoding(&flat, &[a, b]);
                    }
                }
                // One byte per segment, with empty segments between.
                let every: Vec<usize> = (0..=len).flat_map(|i| [i, i]).collect();
                assert_same_decoding(&flat, &every);
                // Every truncation, and a trailing byte.
                for keep in 0..len {
                    let short = flat.slice(..keep);
                    assert_same_decoding(&short, &[]);
                    assert_same_decoding(&short, &[keep / 2]);
                    assert_same_decoding(&short, &[keep / 3, keep - keep / 3]);
                }
                let mut longer = flat.to_vec();
                longer.push(0xEE);
                let longer = Bytes::from(longer);
                assert_same_decoding(&longer, &[]);
                for a in 0..=longer.len() {
                    assert_same_decoding(&longer, &[a]);
                }
            }
        }
    }

    #[test]
    fn decoded_payloads_are_slices_of_the_packets_segments() {
        let chunks = vec![
            chunk(1, 0, 0, b"hdr", 0, 3),
            chunk(1, 0, 1, b"payload-a", 0, 9),
        ];
        // Gather list: the receiver reads the sender's own buffers.
        let back = decode_packet(&as_packet(encode_packet(&chunks, false))).unwrap();
        for (c, d) in chunks.iter().zip(&back) {
            assert_eq!(d.data.as_ptr(), c.data.as_ptr());
        }
        // Linearized: slices of the one segment, back to back.
        let segs = encode_packet(&chunks, true);
        let base = segs[0].as_ptr();
        let back = decode_packet(&as_packet(segs)).unwrap();
        let first = framing_bytes(2) as usize;
        assert_eq!(back[0].data.as_ptr(), base.wrapping_add(first));
        assert_eq!(back[1].data.as_ptr(), base.wrapping_add(first + 3));
        // A chunk cut in two by the segmentation is the one that copies.
        let flat = Bytes::from(as_packet(encode_packet(&chunks, true)).contiguous());
        let pkt = as_packet(vec![flat.slice(..first + 1), flat.slice(first + 1..)]);
        let back = decode_packet(&pkt).unwrap();
        assert_eq!(&back[0].data[..], b"hdr");
        assert_eq!(
            back[1].data.as_ptr(),
            pkt.payload[1].as_ptr().wrapping_add(2)
        );
    }

    #[test]
    fn roundtrip_gather_encoding() {
        let chunks = vec![
            chunk(1, 0, 0, b"hdr", 0, 3),
            chunk(1, 0, 1, b"payload-a", 0, 9),
            chunk(2, 5, 0, b"other-flow", 0, 10),
        ];
        let segs = encode_packet(&chunks, false);
        assert_eq!(segs.len(), 4); // header block + 3 data segments
        let decoded = decode_packet(&as_packet(segs)).unwrap();
        assert_eq!(decoded.len(), 3);
        for (c, d) in chunks.iter().zip(&decoded) {
            assert_eq!(c.header, d.header);
            assert_eq!(c.data, d.data);
        }
    }

    #[test]
    fn roundtrip_linearized_encoding() {
        let chunks = vec![chunk(7, 3, 2, b"abcdef", 100, 500)];
        let segs = encode_packet(&chunks, true);
        assert_eq!(segs.len(), 1);
        let decoded = decode_packet(&as_packet(segs)).unwrap();
        assert_eq!(decoded[0].header.offset, 100);
        assert_eq!(&decoded[0].data[..], b"abcdef");
    }

    #[test]
    fn framing_matches_encoded_size() {
        let chunks = vec![chunk(1, 0, 0, b"xy", 0, 2), chunk(1, 0, 1, b"z", 0, 1)];
        let segs = encode_packet(&chunks, false);
        assert_eq!(segs[0].len() as u64, framing_bytes(2));
    }

    #[test]
    fn truncated_packets_detected() {
        let segs = encode_packet(&[chunk(1, 0, 0, b"hello", 0, 5)], true);
        let mut truncated = segs[0].clone();
        truncated.truncate(truncated.len() - 2);
        let r = decode_packet(&as_packet(vec![truncated]));
        assert_eq!(r.unwrap_err(), ProtoError::Truncated);
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut segs = encode_packet(&[chunk(1, 0, 0, b"hello", 0, 5)], false);
        segs.push(Bytes::from_static(b"junk"));
        let r = decode_packet(&as_packet(segs));
        assert_eq!(r.unwrap_err(), ProtoError::LengthMismatch);
    }

    #[test]
    fn rndv_roundtrip() {
        let h = chunk(9, 8, 1, b"", 0, 1 << 20).header;
        let segs = encode_rndv(h);
        let mut pkt = as_packet(segs);
        pkt.kind = KIND_RNDV_REQ;
        let back = decode_rndv(&pkt).unwrap();
        assert_eq!(back.flow, FlowId(9));
        assert_eq!(back.frag_len, 1 << 20);
        assert_eq!(back.chunk_len, 0);
    }

    #[test]
    fn ack_roundtrip_carries_full_cookie() {
        for cookie in [0u64, 1, 0xDEAD_BEEF, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            let mut pkt = as_packet(encode_rndv(ack_header_ecn(cookie, false)));
            pkt.kind = KIND_ACK;
            assert_eq!(decode_ack_ecn(&pkt).unwrap(), (cookie, false));
        }
    }

    #[test]
    fn ack_ecn_echo_roundtrips_and_plain_acks_read_clean() {
        for (cookie, ecn) in [(7u64, true), (0x1234_5678_9ABC_DEF0, false)] {
            let mut pkt = as_packet(encode_rndv(ack_header_ecn(cookie, ecn)));
            pkt.kind = KIND_ACK;
            assert_eq!(decode_ack_ecn(&pkt).unwrap(), (cookie, ecn));
        }
    }

    #[test]
    fn empty_packet_roundtrip() {
        let segs = encode_packet(&[], false);
        let decoded = decode_packet(&as_packet(segs)).unwrap();
        assert!(decoded.is_empty());
    }
}

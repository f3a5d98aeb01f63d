//! Wire protocol: how the engine encodes (possibly aggregated) message
//! chunks into NIC packets, and the packet kinds of the eager / rendezvous
//! protocols.
//!
//! A data packet is:
//!
//! ```text
//! +-------------+---------+-----+---------+--------------+-----+--------------+
//! | count (u16) | hdr 0   | ... | hdr N-1 | chunk data 0 | ... | chunk data N-1
//! +-------------+---------+-----+---------+--------------+-----+--------------+
//!
//! hdr = tag (u8) | [ flow u32 | msg_seq u32 | frag_count u16 | class u8 | submit_ns u64 ]
//!                | frag_index u16 | frag_len u32 | chunk_len u32 | [ offset u32 ]
//!
//! tag bit 0  express
//!     bit 1  SAME_MSG: the message part (first bracket) is that of the
//!            header before this one in the packet, and is left out
//!     bit 2  an offset follows (left out: the chunk starts its fragment)
//! ```
//!
//! Each chunk is a contiguous byte range of one message fragment. A packet
//! names each message once per run of its chunks: a header that opens a
//! message is [`OPEN_HEADER_BYTES`] long, one that continues the message of
//! the header before it [`SAME_MSG_HEADER_BYTES`], and either grows by
//! [`OFFSET_BYTES`] when the chunk does not start its fragment. The header
//! block travels as the packet's first gather segment; chunk data follow as
//! zero-copy segments (or everything is linearized into one segment when
//! the cost model chose by-copy injection). Header bytes are real bytes:
//! aggregation's framing overhead costs wire time, so the optimizer's
//! trade-offs are physically grounded — [`Framing`] is the one place that
//! says how many there are.

// madlint: file: hot-path

use std::borrow::Cow;

use bytes::Bytes;
use simnet::{SimTime, WirePacket};

use crate::ids::{FlowId, FragIndex, TrafficClass};
use crate::plan::PlannedChunk;

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

/// Size of the packet-level prefix.
pub const PACKET_PREFIX_BYTES: u64 = 2;
/// Size of a chunk header that opens a message (tag, message part, chunk
/// part), the chunk starting its fragment.
pub const OPEN_HEADER_BYTES: u64 = 30;
/// Size of a chunk header that continues the message of the header before
/// it (tag and chunk part), the chunk starting its fragment.
pub const SAME_MSG_HEADER_BYTES: u64 = 11;
/// What a chunk that does not start its fragment adds to its header.
pub const OFFSET_BYTES: u64 = 4;
/// Size of the largest encoded chunk header.
pub const CHUNK_HEADER_BYTES: u64 = OPEN_HEADER_BYTES + OFFSET_BYTES;
/// Size of a packet of one opening header and nothing else: every control
/// packet (request, grant, ack, cancel), and the framing of a data packet
/// that carries one chunk from the start of its fragment.
pub const CONTROL_PACKET_BYTES: u64 = PACKET_PREFIX_BYTES + OPEN_HEADER_BYTES;

const PREFIX: usize = PACKET_PREFIX_BYTES as usize;
const MAX_HEADER: usize = CHUNK_HEADER_BYTES as usize;
/// A header's first half at its longest: the tag and the message part.
const NAMED: usize = (1 + OPEN_HEADER_BYTES - SAME_MSG_HEADER_BYTES) as usize;
/// A header's second half without an offset: the chunk part.
const CHUNK_PART: usize = SAME_MSG_HEADER_BYTES as usize - 1;

const TAG_EXPRESS: u8 = 1 << 0;
const TAG_SAME_MSG: u8 = 1 << 1;
const TAG_OFFSET: u8 = 1 << 2;
const TAG_KNOWN: u8 = TAG_EXPRESS | TAG_SAME_MSG | TAG_OFFSET;

/// Bytes of one chunk header on the wire.
const fn header_bytes(same_msg: bool, has_offset: bool) -> u64 {
    let named = if same_msg {
        SAME_MSG_HEADER_BYTES
    } else {
        OPEN_HEADER_BYTES
    };
    named + if has_offset { OFFSET_BYTES } else { 0 }
}

/// The framing bytes of a data packet, chunk by chunk: the prefix, and for
/// every chunk pushed the header its place in the packet gives it. The
/// size of a header block is a function of the packet's `(flow, seq,
/// offset)` sequence alone, and this is its only spelling — whoever fills,
/// prices, checks or re-cuts a packet asks here.
#[derive(Clone, Copy, Debug)]
pub struct Framing {
    bytes: u64,
    /// The message of the chunk pushed last.
    last: Option<(FlowId, u32)>,
}

impl Default for Framing {
    fn default() -> Self {
        Framing::new()
    }
}

impl Framing {
    /// The framing of a packet that carries no chunk yet.
    pub fn new() -> Self {
        Framing {
            bytes: PACKET_PREFIX_BYTES,
            last: None,
        }
    }

    /// What a chunk of message `(flow, seq)` starting at `offset` of its
    /// fragment would add if it came next.
    pub fn next(&self, flow: FlowId, seq: u32, offset: u32) -> u64 {
        header_bytes(self.last == Some((flow, seq)), offset != 0)
    }

    /// The chunk comes next.
    pub fn push(&mut self, flow: FlowId, seq: u32, offset: u32) {
        self.bytes += self.next(flow, seq, offset);
        self.last = Some((flow, seq));
    }

    /// Framing bytes so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Framing bytes of a data packet whose one chunk starts at `offset` of
/// its fragment.
pub fn lone_chunk_framing(offset: u32) -> u64 {
    PACKET_PREFIX_BYTES + header_bytes(false, offset != 0)
}

/// Framing bytes of a data packet carrying `chunks` in order.
pub fn framing_of(chunks: &[PlannedChunk]) -> u64 {
    let mut framing = Framing::new();
    for c in chunks {
        framing.push(c.flow, c.seq, c.offset);
    }
    framing.bytes()
}

/// Bytes a data packet carrying `chunks` puts on the wire: payload and
/// framing.
pub fn wire_bytes(chunks: &[PlannedChunk]) -> u64 {
    let payload: u64 = chunks.iter().map(|c| u64::from(c.len)).sum();
    payload + framing_of(chunks)
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

/// The fields every chunk of one message has in common: what a header
/// that opens a message says and one that continues it leaves out.
type MessagePart = (FlowId, u32, u16, TrafficClass, u64);

impl ChunkHeader {
    fn message_part(&self) -> MessagePart {
        (
            self.flow,
            self.msg_seq,
            self.frag_count,
            self.class,
            self.submit_ns,
        )
    }

    /// Whether this header may leave its message part out behind `before`:
    /// only when it repeats field for field, so no list of headers loses
    /// anything on the wire; on the engine's lists — where a message's
    /// chunks agree on it — that is [`Framing`]'s "same `(flow, seq)`".
    fn continues(&self, before: Option<&ChunkHeader>) -> bool {
        before.is_some_and(|b| b.message_part() == self.message_part())
    }

    /// The header at its longest — tag, message part, chunk part, offset —
    /// of which less travels: the first [`NAMED`] bytes shrink to the tag
    /// when the header continues a message, and the last four are cut off
    /// when the offset is zero.
    fn encode(&self, same_msg: bool) -> [u8; MAX_HEADER] {
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        let mut b = [0u8; MAX_HEADER];
        b[0] = flag(self.express, TAG_EXPRESS)
            | flag(same_msg, TAG_SAME_MSG)
            | flag(self.offset != 0, TAG_OFFSET);
        b[1..5].copy_from_slice(&self.flow.0.to_le_bytes());
        b[5..9].copy_from_slice(&self.msg_seq.to_le_bytes());
        b[9..11].copy_from_slice(&self.frag_count.to_le_bytes());
        b[11] = self.class.0;
        b[12..20].copy_from_slice(&self.submit_ns.to_le_bytes());
        b[20..22].copy_from_slice(&self.frag_index.to_le_bytes());
        b[22..26].copy_from_slice(&self.frag_len.to_le_bytes());
        b[26..30].copy_from_slice(&self.chunk_len.to_le_bytes());
        b[30..34].copy_from_slice(&self.offset.to_le_bytes());
        b
    }

    /// Append the header as it travels behind `before`.
    fn write(&self, before: Option<&ChunkHeader>, out: &mut Vec<u8>) {
        const UNPLACED: usize = NAMED + CHUNK_PART;
        let same_msg = self.continues(before);
        let b = self.encode(same_msg);
        // Copies of a fixed size each, not one of a size to look up.
        match (same_msg, self.offset != 0) {
            (false, true) => out.extend_from_slice(&b),
            (false, false) => out.extend_from_slice(&b[..UNPLACED]),
            (true, placed) => {
                out.push(b[0]);
                if placed {
                    out.extend_from_slice(&b[NAMED..]);
                } else {
                    out.extend_from_slice(&b[NAMED..UNPLACED]);
                }
            }
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
    /// Buffer ended inside a header or payload, or announces more chunks
    /// than it has bytes for.
    Truncated,
    /// Chunk payload length disagrees with the header.
    LengthMismatch,
    /// A header tag with a bit this format does not define, or one that
    /// continues a message where the packet has named none.
    BadTag,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "packet truncated"),
            ProtoError::LengthMismatch => write!(f, "chunk length mismatch"),
            ProtoError::BadTag => write!(f, "malformed chunk header tag"),
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
        let mut before = None;
        for c in chunks {
            debug_assert_eq!(c.header.chunk_len as usize, c.data.len());
            c.header.write(before, out);
            before = Some(&c.header);
        }
    };
    if linearize {
        // One allocation, sized for headers that leave nothing out: the
        // buffer becomes the segment as it is, so the slack (at most 23
        // bytes a chunk) costs no copy.
        let payload: usize = chunks.iter().map(|c| c.data.len()).sum();
        let mut one = Vec::with_capacity(PREFIX + MAX_HEADER * chunks.len() + payload);
        write_headers(&mut one);
        for c in chunks {
            one.extend_from_slice(&c.data);
        }
        vec![Bytes::from(one)]
    } else {
        block.clear();
        block.reserve(PREFIX + MAX_HEADER * chunks.len());
        write_headers(block);
        let mut segs = Vec::with_capacity(1 + chunks.len());
        segs.push(Bytes::copy_from_slice(block));
        segs.extend(chunks.iter().map(|c| c.data.clone()));
        segs
    }
}

/// A read position in a packet's gather list.
#[derive(Clone)]
struct SegCursor<'a> {
    segs: &'a [Bytes],
    /// Index of the segment being read.
    seg: usize,
    /// That segment's bytes, looked up once on entering it (nothing, in a
    /// packet of no segments).
    bytes: &'a [u8],
    /// How many of them are read.
    at: usize,
}

impl<'a> SegCursor<'a> {
    fn new(segs: &'a [Bytes]) -> Self {
        SegCursor {
            segs,
            seg: 0,
            bytes: segs.first().map_or(&[], |seg| &seg[..]),
            at: 0,
        }
    }

    /// The unread bytes of the segment holding the next unread byte;
    /// nothing at the end.
    fn unread(&mut self) -> &'a [u8] {
        while self.at == self.bytes.len() {
            let Some(next) = self.segs.get(self.seg + 1) else {
                return &[];
            };
            self.seg += 1;
            self.bytes = &next[..];
            self.at = 0;
        }
        &self.bytes[self.at..]
    }

    /// Move `n` bytes forward; false when fewer remain.
    fn skip(&mut self, mut n: usize) -> bool {
        while n > 0 {
            let unread = self.unread();
            if unread.is_empty() {
                return false;
            }
            let step = n.min(unread.len());
            self.at += step;
            n -= step;
        }
        true
    }

    /// Fill `out` with the next bytes; false when fewer remain.
    fn read(&mut self, mut out: &mut [u8]) -> bool {
        while !out.is_empty() {
            let unread = self.unread();
            if unread.is_empty() {
                return false;
            }
            let (head, tail) = out.split_at_mut(out.len().min(unread.len()));
            head.copy_from_slice(&unread[..head.len()]);
            self.at += head.len();
            out = tail;
        }
        true
    }

    /// The next `len` bytes as a buffer: a slice of their segment when
    /// they lie within one, a copy when they straddle several. The caller
    /// has checked that `len` bytes remain.
    fn take(&mut self, len: usize) -> Option<Bytes> {
        if len == 0 {
            return Some(Bytes::new());
        }
        let unread = self.unread();
        if unread.is_empty() {
            return None;
        }
        if len <= unread.len() {
            let out = self.segs[self.seg].slice(self.at..self.at + len);
            self.at += len;
            return Some(out);
        }
        let mut joined = vec![0u8; len];
        self.read(&mut joined).then(|| Bytes::from(joined))
    }
}

/// A data packet being decoded: the header block, and a cursor that follows
/// the payload behind it, so no payload is flattened — it is a slice of the
/// segment it arrived in (the encoder's `[header block, data0..dataN]` and
/// a linearized single segment both slice), and only a chunk that
/// straddles segments is copied.
struct ChunkReader<'a> {
    /// The headers, back to back: read where they lie when one segment
    /// holds them all (it does, as encoded), a copy when they straddle
    /// several.
    block: Cow<'a, [u8]>,
    /// How much of `block` is parsed.
    at: usize,
    data: SegCursor<'a>,
    /// Chunks the packet announces, each with a header of its own in it.
    chunks: usize,
    /// Payload bytes behind the header block.
    bytes: usize,
}

impl<'a> ChunkReader<'a> {
    /// Read the prefix and find where the header block it announces ends:
    /// a header is as long as its tag says, so the tags are walked — and
    /// checked — once here, before any header is parsed or anything is
    /// sized by `chunks`, which the walk bounds by the packet's real size.
    fn open(pkt: &'a WirePacket) -> Result<Self, ProtoError> {
        let segs = &pkt.payload[..];
        let total: usize = segs.iter().map(Bytes::len).sum();
        let mut start = SegCursor::new(segs);
        let mut count = [0u8; PREFIX];
        if !start.read(&mut count) {
            return Err(ProtoError::Truncated);
        }
        let chunks = u16::from_le_bytes(count) as usize;
        let mut data = start.clone();
        let mut block_len = 0;
        for at in 0..chunks {
            let Some(&tag) = data.unread().first() else {
                return Err(ProtoError::Truncated);
            };
            let same_msg = tag & TAG_SAME_MSG != 0;
            if tag & !TAG_KNOWN != 0 || (same_msg && at == 0) {
                return Err(ProtoError::BadTag);
            }
            let len = header_bytes(same_msg, tag & TAG_OFFSET != 0) as usize;
            if !data.skip(len) {
                return Err(ProtoError::Truncated);
            }
            block_len += len;
        }
        let block = match start.unread().get(..block_len) {
            Some(block) => Cow::Borrowed(block),
            None => {
                let mut block = vec![0u8; block_len];
                let walked = start.read(&mut block);
                debug_assert!(walked);
                Cow::Owned(block)
            }
        };
        Ok(ChunkReader {
            block,
            at: 0,
            data,
            chunks,
            bytes: total - PREFIX - block_len,
        })
    }

    /// The next header of the block `open` walked: its two halves as the
    /// encoder wrote them — the tag, with the message part or in place of
    /// it `named`, the one before's; then the chunk part, with the offset
    /// or without.
    fn header(&mut self, named: &mut MessagePart) -> ChunkHeader {
        let b = &self.block[self.at..];
        let tag = b[0];
        let chunk_part = if tag & TAG_SAME_MSG != 0 {
            &b[1..]
        } else {
            let (b, rest) = b.split_first_chunk::<NAMED>().expect("walked");
            *named = (
                FlowId(u32::from_le_bytes([b[1], b[2], b[3], b[4]])),
                u32::from_le_bytes([b[5], b[6], b[7], b[8]]),
                u16::from_le_bytes([b[9], b[10]]),
                TrafficClass(b[11]),
                u64::from_le_bytes([b[12], b[13], b[14], b[15], b[16], b[17], b[18], b[19]]),
            );
            rest
        };
        let (b, rest) = chunk_part
            .split_first_chunk::<CHUNK_PART>()
            .expect("walked");
        let (offset, rest) = if tag & TAG_OFFSET != 0 {
            let (offset, rest) = rest.split_first_chunk().expect("walked");
            (u32::from_le_bytes(*offset), rest)
        } else {
            (0, rest)
        };
        self.at = self.block.len() - rest.len();
        let (flow, msg_seq, frag_count, class, submit_ns) = *named;
        ChunkHeader {
            flow,
            msg_seq,
            frag_index: u16::from_le_bytes([b[0], b[1]]),
            frag_count,
            express: tag & TAG_EXPRESS != 0,
            class,
            frag_len: u32::from_le_bytes([b[2], b[3], b[4], b[5]]),
            offset,
            chunk_len: u32::from_le_bytes([b[6], b[7], b[8], b[9]]),
            submit_ns,
        }
    }

    /// Hand every chunk, in order, to `emit`: each header is parsed once.
    /// Chunks emitted before an error is found are the caller's to discard.
    fn read(mut self, mut emit: impl FnMut(ChunkHeader, Bytes)) -> Result<(), ProtoError> {
        let mut named = (FlowId(0), 0, 0, TrafficClass::DEFAULT, 0);
        for _ in 0..self.chunks {
            let header = self.header(&mut named);
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
    let mut pkt = [0u8; PREFIX + MAX_HEADER];
    pkt[..PREFIX].copy_from_slice(&1u16.to_le_bytes());
    pkt[PREFIX..].copy_from_slice(&h.encode(false));
    let len = PREFIX + header_bytes(false, h.offset != 0) as usize;
    vec![Bytes::copy_from_slice(&pkt[..len])]
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

    /// One header at the front of `b`, the layout restated by position:
    /// the header and the bytes it took. `named` is the message part of
    /// the header before it.
    fn reference_decode_from(
        b: &[u8],
        named: Option<&ChunkHeader>,
    ) -> Result<(ChunkHeader, usize), ProtoError> {
        let Some(&tag) = b.first() else {
            return Err(ProtoError::Truncated);
        };
        if tag > 0b111 || (tag & 0b010 != 0 && named.is_none()) {
            return Err(ProtoError::BadTag);
        }
        let (same_msg, has_offset) = (tag & 0b010 != 0, tag & 0b100 != 0);
        // Where the chunk part starts, and where the header ends.
        let chunk_part = if same_msg { 1 } else { 20 };
        let len = chunk_part + 10 + if has_offset { 4 } else { 0 };
        if b.len() < len {
            return Err(ProtoError::Truncated);
        }
        let u64le = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("fixed width"));
        let u32le = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().expect("fixed width"));
        let u16le = |o: usize| u16::from_le_bytes(b[o..o + 2].try_into().expect("fixed width"));
        let mut h = match named {
            Some(named) if same_msg => *named,
            _ => ChunkHeader {
                flow: FlowId(u32le(1)),
                msg_seq: u32le(5),
                frag_count: u16le(9),
                class: TrafficClass(b[11]),
                submit_ns: u64le(12),
                ..chunk(0, 0, 0, b"", 0, 0).header
            },
        };
        h.express = tag & 0b001 != 0;
        h.frag_index = u16le(chunk_part);
        h.frag_len = u32le(chunk_part + 2);
        h.chunk_len = u32le(chunk_part + 6);
        h.offset = if has_offset {
            u32le(chunk_part + 10)
        } else {
            0
        };
        Ok((h, len))
    }

    /// The decoder this file shipped before the segment cursor, restated
    /// for the layout in which a header is as long as its tag says:
    /// flatten the gather list, then slice the copy. The oracle the cursor
    /// is held to.
    fn reference_decode_packet(pkt: &WirePacket) -> Result<Vec<DecodedChunk>, ProtoError> {
        let flat = Bytes::from(pkt.contiguous());
        if flat.len() < 2 {
            return Err(ProtoError::Truncated);
        }
        let count = u16::from_le_bytes(flat[0..2].try_into().expect("fixed width")) as usize;
        let mut headers: Vec<ChunkHeader> = Vec::with_capacity(count);
        let mut hdr_end = 2;
        for _ in 0..count {
            let (h, len) = reference_decode_from(&flat[hdr_end..], headers.last())?;
            headers.push(h);
            hdr_end += len;
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
        // Chunk lists of 0–4 chunks: empty payloads, runs of one message
        // (headers that name no message), offsets on either kind.
        let lists: Vec<Vec<WireChunk>> = vec![
            vec![],
            vec![
                chunk(1, 0, 0, b"a", 0, 1),
                chunk(1, 0, 1, b"bc", 4, 9),
                chunk(1, 0, 2, b"", 0, 0),
            ],
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
        // The second header continues the first one's message.
        let first = (PACKET_PREFIX_BYTES + OPEN_HEADER_BYTES + SAME_MSG_HEADER_BYTES) as usize;
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

    /// The planned chunk a wire chunk stands for.
    fn planned(c: &WireChunk) -> PlannedChunk {
        PlannedChunk {
            flow: c.header.flow,
            seq: c.header.msg_seq,
            frag: c.header.frag_index,
            offset: c.header.offset,
            len: c.header.chunk_len,
        }
    }

    #[test]
    fn framing_matches_encoded_size() {
        // The three sizes, as bytes.
        assert_eq!(
            (OPEN_HEADER_BYTES, SAME_MSG_HEADER_BYTES, OFFSET_BYTES),
            (30, 11, 4)
        );
        assert_eq!((CHUNK_HEADER_BYTES, CONTROL_PACKET_BYTES), (34, 32));
        assert_eq!(
            encode_rndv(cancel_header(FlowId(1), 2, TrafficClass::DEFAULT))[0].len(),
            32
        );
        // A message run, an offset inside it, a message named again after
        // another came between: 2 + 30 + 11 + 15 + 34 + 30.
        let chunks = vec![
            chunk(1, 0, 0, b"xy", 0, 2),
            chunk(1, 0, 1, b"z", 0, 1),
            chunk(1, 0, 2, b"w", 7, 9),
            chunk(2, 0, 0, b"v", 1, 2),
            chunk(1, 0, 2, b"u", 0, 9),
        ];
        let segs = encode_packet(&chunks, false);
        assert_eq!(segs[0].len(), 2 + 30 + 11 + 15 + 34 + 30);
        let list: Vec<PlannedChunk> = chunks.iter().map(planned).collect();
        assert_eq!(segs[0].len() as u64, framing_of(&list));
        assert_eq!(framing_of(&[]), PACKET_PREFIX_BYTES);
        // `next` is what `push` then adds.
        let mut framing = Framing::new();
        for c in &list {
            let before = framing.bytes();
            let next = framing.next(c.flow, c.seq, c.offset);
            framing.push(c.flow, c.seq, c.offset);
            assert_eq!(framing.bytes(), before + next);
        }
        assert_eq!(framing.bytes(), framing_of(&list));
    }

    #[test]
    fn a_header_names_its_message_unless_every_field_of_it_repeats() {
        // Same flow and sequence, another timestamp: no engine list holds
        // such a pair, and the wire still loses nothing of it.
        let mut later = chunk(1, 0, 1, b"z", 0, 1);
        later.header.submit_ns += 1;
        let chunks = vec![chunk(1, 0, 0, b"xy", 0, 2), later];
        let segs = encode_packet(&chunks, false);
        assert_eq!(segs[0].len(), 2 + 30 + 30);
        let back = decode_packet(&as_packet(segs)).unwrap();
        assert_eq!(back[1].header, chunks[1].header);
    }

    #[test]
    fn hostile_header_blocks_are_errors() {
        let decode = |bytes: &[u8]| {
            let pkt = as_packet(vec![Bytes::copy_from_slice(bytes)]);
            assert_eq!(
                decode_packet(&pkt).map(|c| c.len()),
                reference_decode_packet(&pkt).map(|c| c.len())
            );
            assert!(decode_rndv(&pkt).is_err() && decode_ack_ecn(&pkt).is_err());
            decode_packet(&pkt).map(|c| c.len())
        };
        let valid = as_packet(encode_packet(
            &[chunk(1, 0, 0, b"hdr", 0, 3), chunk(1, 0, 1, b"body", 0, 4)],
            true,
        ))
        .contiguous();
        assert_eq!(decode(&valid), Ok(2));
        // The first header continues a message the packet has not named.
        let mut orphan = valid.clone();
        orphan[2] |= TAG_SAME_MSG;
        assert_eq!(decode(&orphan), Err(ProtoError::BadTag));
        // A tag bit the format does not define, on either header.
        for at in [2, 2 + 30] {
            for bit in 3..8 {
                let mut unknown = valid.clone();
                unknown[at] |= 1 << bit;
                assert_eq!(
                    decode(&unknown),
                    Err(ProtoError::BadTag),
                    "bit {bit} at {at}"
                );
            }
        }
        // A header block that runs past the packet: the second header
        // claims a message part that is not there.
        let mut past = valid[..2 + 30 + 11].to_vec();
        past[2 + 30] &= !TAG_SAME_MSG;
        assert_eq!(decode(&past), Err(ProtoError::Truncated));
        // An offset flag makes the block four bytes longer than it is.
        let mut longer = valid.clone();
        longer[2 + 30] |= TAG_OFFSET;
        assert!(decode(&longer).is_err());
        // A count the bytes cannot hold: the walk for the block's end runs
        // into the payload (read as tags) or off the packet, before
        // anything is sized by the count — the vector handed in stays as
        // small as it was.
        for count in [3, 4, 400, u16::MAX] {
            let mut crowd = valid.clone();
            crowd[..2].copy_from_slice(&count.to_le_bytes());
            assert!(decode(&crowd).is_err(), "{count} chunks");
            let mut out = Vec::new();
            let pkt = as_packet(vec![Bytes::from(crowd)]);
            assert!(decode_packet_into(&pkt, &mut out).is_err());
            assert_eq!(out.capacity(), 0);
        }
        // ... also when every byte behind the count reads as a valid tag of
        // the shortest header.
        let mut tags = vec![0u8; 2 + 30 + 11 * 5];
        tags[..2].copy_from_slice(&u16::MAX.to_le_bytes());
        tags[2 + 30..].fill(TAG_SAME_MSG);
        assert_eq!(decode(&tags), Err(ProtoError::Truncated));
        assert_eq!(decode(b"\xFF\xFFgarbage"), Err(ProtoError::BadTag));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A chunk list whose message parts come from small domains, so
        /// that runs of one message, messages that differ in one field
        /// only, and zero and non-zero offsets all occur.
        fn wire_chunks() -> impl Strategy<Value = Vec<WireChunk>> {
            let message = (0u32..3, 0u32..2, 1u16..3, 0u8..2, 0u64..2);
            let fragment = (
                any::<u16>(),
                any::<bool>(),
                any::<u32>(),
                0u32..3,
                0usize..40,
            );
            prop::collection::vec((message, fragment, any::<u8>()), 0..12).prop_map(|list| {
                list.into_iter()
                    .map(
                        |((flow, msg_seq, frag_count, class, submit_ns), frag, fill)| {
                            let (frag_index, express, frag_len, offset, len) = frag;
                            WireChunk {
                                header: ChunkHeader {
                                    flow: FlowId(flow),
                                    msg_seq,
                                    frag_index,
                                    frag_count,
                                    express,
                                    class: TrafficClass(class),
                                    frag_len,
                                    offset: offset.saturating_sub(1) * 0x0101_0101,
                                    chunk_len: len as u32,
                                    submit_ns,
                                },
                                data: Bytes::from(vec![fill; len]),
                            }
                        },
                    )
                    .collect()
            })
        }

        /// `flat` cut at `cuts` (any order, any value).
        fn resegmented(flat: &Bytes, cuts: &[prop::sample::Index]) -> WirePacket {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(flat.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.push(flat.len());
            let mut from = 0;
            let segs = cuts.iter().map(|&cut| {
                let seg = flat.slice(from..cut);
                from = cut;
                seg
            });
            as_packet(segs.collect())
        }

        fn flatten(
            r: Result<Vec<DecodedChunk>, ProtoError>,
        ) -> Result<Vec<(ChunkHeader, Vec<u8>)>, ProtoError> {
            r.map(|chunks| {
                chunks
                    .into_iter()
                    .map(|c| (c.header, c.data.to_vec()))
                    .collect()
            })
        }

        /// Every decoder entry point on `pkt`: none panics, and the cursor
        /// says what the flattening oracle says.
        fn assert_total(pkt: &WirePacket) {
            assert_eq!(
                flatten(decode_packet(pkt)),
                flatten(reference_decode_packet(pkt))
            );
            assert_eq!(decode_rndv(pkt), reference_decode_rndv(pkt));
            let _ = decode_ack_ecn(pkt);
        }

        proptest! {
            #[test]
            fn what_is_encoded_is_decoded_in_both_forms_however_it_is_cut(
                chunks in wire_chunks(),
                cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
            ) {
                let want: Vec<_> = chunks.iter().map(|c| (c.header, c.data.to_vec())).collect();
                for linearize in [false, true] {
                    let pkt = as_packet(encode_packet(&chunks, linearize));
                    prop_assert_eq!(pkt.payload.len(), if linearize { 1 } else { 1 + chunks.len() });
                    prop_assert_eq!(flatten(decode_packet(&pkt)), Ok(want.clone()));
                    let flat = Bytes::from(pkt.contiguous());
                    let cut = resegmented(&flat, &cuts);
                    prop_assert_eq!(flatten(decode_packet(&cut)), Ok(want.clone()));
                    assert_total(&cut);
                }
            }

            #[test]
            fn arbitrary_bytes_never_panic_the_decoder(
                bytes in prop::collection::vec(any::<u8>(), 0..200),
                small_count in any::<bool>(),
                cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
            ) {
                // Half the strings announce a count their length could
                // hold, so that the walk goes past the first check.
                let mut bytes = bytes;
                if small_count && bytes.len() >= 2 {
                    bytes[0] %= 1 + ((bytes.len() - 2) / 11) as u8;
                    bytes[1] = 0;
                }
                assert_total(&resegmented(&Bytes::from(bytes), &cuts));
            }

            #[test]
            fn a_mutated_byte_never_panics_the_decoder(
                chunks in wire_chunks(),
                linearize in any::<bool>(),
                at in any::<prop::sample::Index>(),
                flip in 1u8..=255,
                cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
            ) {
                let mut flat = as_packet(encode_packet(&chunks, linearize)).contiguous();
                let at = at.index(flat.len());
                flat[at] ^= flip;
                assert_total(&resegmented(&Bytes::from(flat), &cuts));
            }
        }
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

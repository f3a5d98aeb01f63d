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

use bytes::{BufMut, Bytes, BytesMut};
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
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.flow.0);
        buf.put_u32_le(self.msg_seq);
        buf.put_u16_le(self.frag_index);
        buf.put_u16_le(self.frag_count);
        buf.put_u8(self.express as u8);
        buf.put_u8(self.class.0);
        buf.put_u32_le(self.frag_len);
        buf.put_u32_le(self.offset);
        buf.put_u32_le(self.chunk_len);
        buf.put_u64_le(self.submit_ns);
    }

    fn decode_from(b: &[u8]) -> Result<ChunkHeader, ProtoError> {
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
    assert!(
        chunks.len() <= u16::MAX as usize,
        "too many chunks in packet"
    );
    let hdr_len = PACKET_PREFIX_BYTES as usize + CHUNK_HEADER_BYTES as usize * chunks.len();
    let mut hdr = BytesMut::with_capacity(hdr_len);
    hdr.put_u16_le(chunks.len() as u16);
    for c in chunks {
        debug_assert_eq!(c.header.chunk_len as usize, c.data.len());
        c.header.encode_into(&mut hdr);
    }
    if linearize {
        let total: usize = hdr.len() + chunks.iter().map(|c| c.data.len()).sum::<usize>();
        let mut one = BytesMut::with_capacity(total);
        one.put(hdr);
        for c in chunks {
            one.put_slice(&c.data);
        }
        vec![one.freeze()]
    } else {
        let mut segs = Vec::with_capacity(1 + chunks.len());
        segs.push(hdr.freeze());
        segs.extend(chunks.iter().map(|c| c.data.clone()));
        segs
    }
}

/// Decode a data packet back into chunks. Accepts both gather-encoded and
/// linearized packets (the wire makes no distinction).
pub fn decode_packet(pkt: &WirePacket) -> Result<Vec<DecodedChunk>, ProtoError> {
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
        headers.push(ChunkHeader::decode_from(&flat[off..])?);
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

/// Encode a rendezvous request/grant: a single metadata-only chunk header.
pub fn encode_rndv(header: ChunkHeader) -> Vec<Bytes> {
    let mut h = header;
    h.chunk_len = 0;
    encode_packet(
        &[WireChunk {
            header: h,
            data: Bytes::new(),
        }],
        true,
    )
}

/// Decode a rendezvous request/grant.
pub fn decode_rndv(pkt: &WirePacket) -> Result<ChunkHeader, ProtoError> {
    let chunks = decode_packet(pkt)?;
    if chunks.len() != 1 || !chunks[0].data.is_empty() {
        return Err(ProtoError::LengthMismatch);
    }
    Ok(chunks[0].header)
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

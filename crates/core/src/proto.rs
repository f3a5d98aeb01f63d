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
//! hdr = tag (u8) | [ flow v32 | msg_seq v32 | frag_count v16 | class u8 | submit v64 ]
//!                | frag_index v16 | frag_len v32 | [ offset v32 ] | [ chunk_len u32 ]
//!
//! vN         an N-bit field as a LEB128 varint: seven bits a byte, low
//!            bits first, the high bit set on every byte but the last; at
//!            most ⌈N/7⌉ bytes, and only the shortest form
//! tag bit 0  express
//!     bit 1  SAME_MSG: the message part (first bracket) is that of the
//!            header before this one in the packet, and is left out
//!     bit 2  OFFSET: an offset follows (left out: the chunk starts its
//!            fragment)
//!     bit 3  TAIL: the chunk runs to its fragment's end, so its length is
//!            frag_len - offset and is left out; a chunk cut short of the
//!            end says its length in four fixed bytes
//!     bit 6  ACK_NOW, on the packet's first header only: the sender asks
//!            for this packet's ack at once, where it otherwise grants the
//!            receiver a hold (madrel)
//! submit     the packet's first message part carries submit_ns itself,
//!            every later one the zigzag varint of its difference (mod
//!            2^64) from the message part before it
//!
//! ack = tag (u8) | cookie v64 | held v64
//!
//! tag bit 4  ACK: the header acknowledges the data packet of `cookie`,
//!            whose ack the receiver held `held` ns for a ride (at
//!            most the hold that packet granted); it announces no
//!            payload
//!     bit 5  ECN: that packet arrived congestion-marked (madnet)
//! ```
//!
//! Ack headers follow every chunk header of a data packet's block, and
//! leave the message-part chain alone; an ack control packet is ack
//! headers only.
//!
//! Each chunk is a contiguous byte range of one message fragment. A packet
//! names each message once per run of its chunks, and every field is as
//! long as its value: a whole fragment of a message the header before it
//! named takes [`MIN_CHUNK_HEADER_BYTES`] while its index and length are
//! below 128, and no header takes more than [`MAX_CHUNK_HEADER_BYTES`].
//! The header block travels as the packet's first gather segment; chunk
//! data follow as zero-copy segments (or everything is linearized into one
//! segment when the cost model chose by-copy injection). Header bytes are
//! real bytes: aggregation's framing overhead costs wire time, so the
//! optimizer's trade-offs are physically grounded — [`Framing`] is the one
//! place that says how many there are. Control packets (rendezvous
//! requests and grants, cancels) are one metadata-only header in the same
//! layout, and an ack control packet is one or more ack headers.

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

/// Size of the packet-level prefix.
pub const PACKET_PREFIX_BYTES: u64 = 2;
/// Size of the shortest chunk header: the tag, a fragment index and a
/// fragment length below 128, for a chunk that continues the message of
/// the header before it and runs from its fragment's start to its end.
pub const MIN_CHUNK_HEADER_BYTES: u64 = 3;
/// Size of the longest chunk header: every field present at its widest —
/// the tag 1, flow 5, sequence 5, fragment count 3, class 1, submission
/// time 10, fragment index 3, fragment length 5, offset 5 and chunk length
/// 4 bytes.
pub const MAX_CHUNK_HEADER_BYTES: u64 = 42;

/// Size of the length of a chunk cut short of its fragment's end: fixed,
/// so that a cut's header does not depend on where it is cut.
const CHUNK_LEN_BYTES: u64 = 4;
const PREFIX: usize = PACKET_PREFIX_BYTES as usize;
const MAX_HEADER: usize = MAX_CHUNK_HEADER_BYTES as usize;

const TAG_EXPRESS: u8 = 1 << 0;
const TAG_SAME_MSG: u8 = 1 << 1;
const TAG_OFFSET: u8 = 1 << 2;
const TAG_TAIL: u8 = 1 << 3;
const TAG_KNOWN: u8 = TAG_EXPRESS | TAG_SAME_MSG | TAG_OFFSET | TAG_TAIL;
const TAG_ACK: u8 = 1 << 4;
const TAG_ECN: u8 = 1 << 5;
const TAG_ACK_NOW: u8 = 1 << 6;

/// Size of the longest ack header: the tag 1, cookie 10 and held time 10
/// bytes.
pub const MAX_ACK_HEADER_BYTES: u64 = 21;
const MAX_ACK: usize = MAX_ACK_HEADER_BYTES as usize;

/// Bytes of `v` as a varint: one per seven of its significant bits, at
/// least one — for `h` the index of its highest set bit, `⌈(h + 1) / 7⌉`,
/// which `(9h + 73) / 64` is for every `h` below 64.
#[inline]
const fn varint_len(v: u64) -> u64 {
    let high_bit = 63 - (v | 1).leading_zeros() as u64;
    (high_bit * 9 + 73) / 64
}

/// What a message part says of its submission time behind `before`, the
/// message part before it in the packet (none: it is the first).
#[inline]
fn submit_field(submit_ns: u64, before: Option<&MessagePart>) -> u64 {
    match before {
        None => submit_ns,
        Some(b) => {
            let delta = submit_ns.wrapping_sub(b.4) as i64;
            ((delta << 1) ^ (delta >> 63)) as u64
        }
    }
}

/// The framing bytes of a data packet, chunk by chunk: the prefix, and for
/// every chunk pushed the header it travels under. A header's size depends
/// on what it says and on the header before it, and this is its only
/// spelling — whoever fills, prices, checks or re-cuts a packet asks here.
#[derive(Clone, Copy, Debug)]
pub struct Framing {
    bytes: u64,
    /// The message part of the header pushed last.
    last: Option<MessagePart>,
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

    /// What a chunk under header `h` would add if it came next.
    #[inline]
    pub fn next(&self, h: &ChunkHeader) -> u64 {
        h.encoded_len(self.last.as_ref())
    }

    /// The chunk under header `h` comes next.
    #[inline]
    pub fn push(&mut self, h: &ChunkHeader) {
        self.bytes += self.next(h);
        self.last = Some(h.message_part());
    }

    /// As many of the `h.chunk_len` bytes `h` describes (from `h.offset`)
    /// as fit into the `room` bytes the packet has left, header included,
    /// come next: all of them under `h`, or else a cut — whose header says
    /// its length — of exactly what is left, `h.chunk_len` set to it.
    /// False, and nothing comes next, when not a byte fits.
    #[inline]
    pub fn take(&mut self, h: &mut ChunkHeader, room: u64) -> bool {
        let whole = self.next(h);
        if whole + u64::from(h.chunk_len) <= room {
            self.bytes += whole;
        } else {
            let cut = whole + if h.is_tail() { CHUNK_LEN_BYTES } else { 0 };
            match room.checked_sub(cut) {
                Some(left) if left > 0 => h.chunk_len = left as u32,
                _ => return false,
            }
            self.bytes += cut;
        }
        self.last = Some(h.message_part());
        true
    }

    /// [`Framing::take`] in a packet of its own of at most `limit` bytes:
    /// as much of `h` as such a packet carries.
    pub fn take_alone(h: &mut ChunkHeader, limit: u64) -> bool {
        let mut alone = Framing::new();
        let room = limit.saturating_sub(alone.bytes());
        alone.take(h, room)
    }

    /// Ack header `a` comes next, behind the chunks: it costs its bytes
    /// and leaves the message part alone.
    #[inline]
    pub fn ack(&mut self, a: &AckHeader) {
        self.bytes += a.encoded_len();
    }

    /// Framing bytes so far.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Framing bytes of a data packet carrying chunks under `headers`, in
/// order.
#[inline]
pub fn framing_of(headers: impl IntoIterator<Item = ChunkHeader>) -> u64 {
    let mut framing = Framing::new();
    for h in headers {
        framing.push(&h);
    }
    framing.bytes()
}

/// Bytes a data packet carrying chunks under `headers` puts on the wire:
/// payload and framing.
#[inline]
pub fn wire_bytes(headers: impl IntoIterator<Item = ChunkHeader>) -> u64 {
    let mut framing = Framing::new();
    let mut payload = 0;
    for h in headers {
        framing.push(&h);
        payload += u64::from(h.chunk_len);
    }
    payload + framing.bytes()
}

/// Bytes a packet of one chunk under `h` puts on the wire, payload
/// included: a control packet (`h` is metadata only), or a data packet
/// that carries a chunk alone.
#[inline]
pub fn lone_packet_bytes(h: &ChunkHeader) -> u64 {
    PACKET_PREFIX_BYTES + h.encoded_len(None) + u64::from(h.chunk_len)
}

/// Bytes an ack control packet of `acks` puts on the wire.
#[inline]
pub fn ack_packet_bytes<'a>(acks: impl IntoIterator<Item = &'a AckHeader>) -> u64 {
    let mut framing = Framing::new();
    for a in acks {
        framing.ack(a);
    }
    framing.bytes()
}

/// A reliability acknowledgement on the wire (madrel): in a data packet's
/// header block behind its chunk headers, or in an ack control packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckHeader {
    /// Cookie of the acknowledged data packet.
    pub cookie: u64,
    /// The fabric's congestion mark on that packet, echoed (madnet ECN).
    pub ecn: bool,
    /// How long the receiver held the ack for a ride, in ns: at most the
    /// hold the acknowledged packet granted.
    pub held_ns: u64,
}

impl AckHeader {
    /// Bytes of this header on the wire.
    #[inline]
    pub fn encoded_len(&self) -> u64 {
        1 + varint_len(self.cookie) + varint_len(self.held_ns)
    }

    #[inline]
    fn write(&self, out: &mut impl Put) {
        out.put(TAG_ACK | if self.ecn { TAG_ECN } else { 0 });
        put_varint(out, self.cookie);
        put_varint(out, self.held_ns);
    }
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

/// Whether two message parts are one, field by field — the flow and the
/// sequence first, where two messages mostly differ.
#[inline]
fn same_message(a: &MessagePart, b: &MessagePart) -> bool {
    a.0 == b.0 && a.1 == b.1 && a.2 == b.2 && a.3 == b.3 && a.4 == b.4
}

impl ChunkHeader {
    #[inline]
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
    /// anything on the wire.
    #[inline]
    fn continues(&self, before: Option<&MessagePart>) -> bool {
        before.is_some_and(|b| same_message(b, &self.message_part()))
    }

    /// Whether the chunk runs to its fragment's end, so that its length
    /// goes without saying.
    #[inline]
    fn is_tail(&self) -> bool {
        self.offset.checked_add(self.chunk_len) == Some(self.frag_len)
    }

    /// Bytes of this header on the wire behind the message part `before`.
    #[inline]
    fn encoded_len(&self, before: Option<&MessagePart>) -> u64 {
        let offset = if self.offset != 0 {
            varint_len(self.offset.into())
        } else {
            0
        };
        let length = if self.is_tail() { 0 } else { CHUNK_LEN_BYTES };
        let chunk_part = 1
            + varint_len(self.frag_index.into())
            + varint_len(self.frag_len.into())
            + offset
            + length;
        if self.continues(before) {
            return chunk_part;
        }
        chunk_part
            + varint_len(self.flow.0.into())
            + varint_len(self.msg_seq.into())
            + varint_len(self.frag_count.into())
            + 1
            + varint_len(submit_field(self.submit_ns, before))
    }

    /// Append the header as it travels behind the message part `before`,
    /// its tag carrying the packet-level bits `packet` too.
    #[inline]
    fn write(&self, before: Option<&MessagePart>, packet: u8, out: &mut impl Put) {
        let same_msg = self.continues(before);
        let tail = self.is_tail();
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        out.put(
            packet
                | flag(self.express, TAG_EXPRESS)
                | flag(same_msg, TAG_SAME_MSG)
                | flag(self.offset != 0, TAG_OFFSET)
                | flag(tail, TAG_TAIL),
        );
        if !same_msg {
            put_varint(out, self.flow.0.into());
            put_varint(out, self.msg_seq.into());
            put_varint(out, self.frag_count.into());
            out.put(self.class.0);
            put_varint(out, submit_field(self.submit_ns, before));
        }
        put_varint(out, self.frag_index.into());
        put_varint(out, self.frag_len.into());
        if self.offset != 0 {
            put_varint(out, self.offset.into());
        }
        if !tail {
            for byte in self.chunk_len.to_le_bytes() {
                out.put(byte);
            }
        }
    }
}

/// Where header bytes are written: a packet's header block, or a control
/// packet assembled on the stack.
trait Put {
    fn put(&mut self, byte: u8);
}

impl Put for Vec<u8> {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }
}

/// A control packet on the stack: the prefix and one chunk header, or two
/// ack headers at their longest.
struct ControlPacket {
    b: [u8; CONTROL_BYTES],
    n: usize,
}

const CONTROL_BYTES: usize = PREFIX + MAX_HEADER;

impl ControlPacket {
    /// The packet of `headers` headers, its prefix written.
    fn new(headers: u16) -> Self {
        let mut pkt = ControlPacket {
            b: [0; CONTROL_BYTES],
            n: PREFIX,
        };
        pkt.b[..PREFIX].copy_from_slice(&headers.to_le_bytes());
        pkt
    }

    /// The packet as its one segment: a copy short enough to live in its
    /// handle unless the headers are long.
    fn segments(&self) -> Vec<Bytes> {
        vec![Bytes::copy_from_slice(&self.b[..self.n])]
    }
}

/// A header-block entry as the decoder hands it on.
enum Entry<'h> {
    Chunk(&'h ChunkHeader),
    Ack(AckHeader),
}

impl Put for ControlPacket {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.b[self.n] = byte;
        self.n += 1;
    }
}

#[inline]
fn put_varint(out: &mut impl Put, mut v: u64) {
    while v >= 0x80 {
        out.put(v as u8 | 0x80);
        v >>= 7;
    }
    out.put(v as u8);
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
    /// A header tag with a bit this format does not define, one that
    /// continues a message where the packet has named none, or one the
    /// encoder would not have written for the fields behind it: an offset
    /// of zero, a chunk whose length goes without saying written out or
    /// one past its fragment's end said to run to it, a message part that
    /// repeats the one before it.
    BadTag,
    /// A varint longer than its field allows, holding more bits than the
    /// field has, or not in its shortest form.
    BadVarint,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "packet truncated"),
            ProtoError::LengthMismatch => write!(f, "chunk length mismatch"),
            ProtoError::BadTag => write!(f, "malformed chunk header tag"),
            ProtoError::BadVarint => write!(f, "malformed varint"),
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
    encode_packet_with(&mut Vec::new(), chunks, &[], false, linearize)
}

/// [`encode_packet`] that writes a gather list's header block in the
/// caller's `block` (cleared here), so a sender that keeps one allocates
/// the block's final size only, with `acks` behind the chunk headers and,
/// when `ack_now`, the first header asking for the packet's ack at once.
pub(crate) fn encode_packet_with(
    block: &mut Vec<u8>,
    chunks: &[WireChunk],
    acks: &[AckHeader],
    ack_now: bool,
    linearize: bool,
) -> Vec<Bytes> {
    let headers = chunks.len() + acks.len();
    assert!(headers <= u16::MAX as usize, "too many chunks in packet");
    let write_headers = |out: &mut Vec<u8>| {
        out.extend_from_slice(&(headers as u16).to_le_bytes());
        let mut before = None;
        for c in chunks {
            debug_assert_eq!(c.header.chunk_len as usize, c.data.len());
            let packet = if ack_now && before.is_none() {
                TAG_ACK_NOW
            } else {
                0
            };
            c.header.write(before.as_ref(), packet, out);
            before = Some(c.header.message_part());
        }
        for a in acks {
            a.write(out);
        }
    };
    let block_max = PREFIX + MAX_HEADER * chunks.len() + MAX_ACK * acks.len();
    if linearize {
        // One allocation, sized for headers at their longest: the buffer
        // becomes the segment as it is, so the slack costs no copy.
        let payload: usize = chunks.iter().map(|c| c.data.len()).sum();
        let mut one = Vec::with_capacity(block_max + payload);
        write_headers(&mut one);
        for c in chunks {
            one.extend_from_slice(&c.data);
        }
        vec![Bytes::from(one)]
    } else {
        block.clear();
        block.reserve(block_max);
        write_headers(block);
        let mut segs = Vec::with_capacity(1 + chunks.len());
        segs.push(Bytes::copy_from_slice(block));
        segs.extend(chunks.iter().map(|c| c.data.clone()));
        segs
    }
}

/// A read position in a header block.
struct Fields<'a> {
    b: &'a [u8],
    at: usize,
}

impl Fields<'_> {
    #[inline]
    fn byte(&mut self) -> Result<u8, ProtoError> {
        let byte = *self.b.get(self.at).ok_or(ProtoError::Truncated)?;
        self.at += 1;
        Ok(byte)
    }

    /// A varint of a `bits`-bit field, in the one form the encoder writes.
    #[inline]
    fn varint(&mut self, bits: u32) -> Result<u64, ProtoError> {
        let first = self.byte()?;
        if first < 0x80 {
            return Ok(first.into()); // every field has seven bits
        }
        let mut value = u64::from(first & 0x7F);
        let mut shift = 7;
        loop {
            let byte = self.byte()?;
            let low = u64::from(byte & 0x7F);
            if shift + 7 > bits && low >> (bits - shift) != 0 {
                return Err(ProtoError::BadVarint); // more bits than the field
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                // A last byte of nothing is a longer form of a shorter one.
                return if byte == 0 && shift > 0 {
                    Err(ProtoError::BadVarint)
                } else {
                    Ok(value)
                };
            }
            shift += 7;
            if shift >= bits {
                return Err(ProtoError::BadVarint); // more bytes than the field
            }
        }
    }

    #[inline]
    fn u32_varint(&mut self) -> Result<u32, ProtoError> {
        Ok(self.varint(32)? as u32)
    }

    #[inline]
    fn u16_varint(&mut self) -> Result<u16, ProtoError> {
        Ok(self.varint(16)? as u16)
    }

    /// Read the rest of the ack header whose tag is `tag`.
    #[inline]
    fn ack(&mut self, tag: u8) -> Result<AckHeader, ProtoError> {
        if tag & !(TAG_ACK | TAG_ECN) != 0 {
            return Err(ProtoError::BadTag);
        }
        let cookie = self.varint(64)?;
        let held_ns = self.varint(64)?;
        Ok(AckHeader {
            cookie,
            ecn: tag & TAG_ECN != 0,
            held_ns,
        })
    }

    /// Read the rest of the chunk header whose tag is `tag` into `h`, which
    /// holds the header before it (unless this is the packet's `first`): a
    /// header that continues a message keeps `h`'s message part. Only what
    /// the encoder writes is read: any other byte string is an error, so a
    /// header that decodes encodes to the bytes it came from. On an error
    /// `h` is half read. Returns whether the header asks for the packet's
    /// ack at once.
    fn header(&mut self, tag: u8, h: &mut ChunkHeader, first: bool) -> Result<bool, ProtoError> {
        let known = if first {
            TAG_KNOWN | TAG_ACK_NOW
        } else {
            TAG_KNOWN
        };
        if tag & !known != 0 {
            return Err(ProtoError::BadTag);
        }
        if tag & TAG_SAME_MSG != 0 {
            if first {
                return Err(ProtoError::BadTag);
            }
        } else {
            let flow = FlowId(self.u32_varint()?);
            let msg_seq = self.u32_varint()?;
            let frag_count = self.u16_varint()?;
            let class = TrafficClass(self.byte()?);
            let field = self.varint(64)?;
            let submit_ns = if first {
                field
            } else {
                let delta = ((field >> 1) as i64) ^ -((field & 1) as i64);
                h.submit_ns.wrapping_add(delta as u64)
            };
            let part = (flow, msg_seq, frag_count, class, submit_ns);
            if !first && same_message(&h.message_part(), &part) {
                return Err(ProtoError::BadTag); // it continues that message
            }
            (h.flow, h.msg_seq, h.frag_count, h.class, h.submit_ns) = part;
        }
        h.express = tag & TAG_EXPRESS != 0;
        h.frag_index = self.u16_varint()?;
        h.frag_len = self.u32_varint()?;
        h.offset = 0;
        if tag & TAG_OFFSET != 0 {
            h.offset = self.u32_varint()?;
            if h.offset == 0 {
                return Err(ProtoError::BadTag);
            }
        }
        h.chunk_len = if tag & TAG_TAIL != 0 {
            h.frag_len.checked_sub(h.offset).ok_or(ProtoError::BadTag)?
        } else {
            let mut len = [0; 4];
            for byte in &mut len {
                *byte = self.byte()?;
            }
            let len = u32::from_le_bytes(len);
            if h.offset.checked_add(len) == Some(h.frag_len) {
                return Err(ProtoError::BadTag); // a tail that says its length
            }
            len
        };
        Ok(tag & TAG_ACK_NOW != 0)
    }

    /// Read `count` headers from the start — chunk headers, then ack
    /// headers — handing each to `each` with its place in the block.
    fn block(
        b: &[u8],
        count: usize,
        each: &mut impl FnMut(usize, Entry<'_>),
    ) -> Result<Block, ProtoError> {
        let mut fields = Fields { b, at: 0 };
        let mut header = cancel_header(FlowId(0), 0, TrafficClass::DEFAULT);
        let (mut payload, mut chunks, mut ack_now) = (0, 0, false);
        for at in 0..count {
            let tag = fields.byte()?;
            if tag & TAG_ACK != 0 {
                each(at, Entry::Ack(fields.ack(tag)?));
            } else if chunks == at {
                ack_now |= fields.header(tag, &mut header, at == 0)?;
                chunks += 1;
                payload += u64::from(header.chunk_len);
                each(at, Entry::Chunk(&header));
            } else {
                return Err(ProtoError::BadTag); // a chunk header behind an ack
            }
        }
        Ok(Block {
            len: fields.at,
            payload,
            ack_now,
        })
    }
}

/// What a header block says of its packet as a whole.
struct Block {
    /// Bytes of the block.
    len: usize,
    /// Payload bytes its chunk headers announce.
    payload: u64,
    /// Whether the packet asks for its ack at once.
    ack_now: bool,
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

/// Read a packet's prefix and header block, handing each header to `each`
/// with its place in the block, and check that the payload behind the
/// block is as long as the headers say: a cursor at that payload, which a
/// caller slices chunk by chunk, so no payload is flattened — it is a
/// slice of the segment it arrived in (the encoder's `[header block,
/// data0..dataN]` and a linearized single segment both slice), and only a
/// chunk that straddles segments is copied.
///
/// A header is as long as its fields say, so the block is read in one
/// pass: where it lies when the segment that begins it holds it all (it
/// does, as encoded), and again from a copy of the rest of the packet when
/// it runs past that segment — `each` then hears of the first headers
/// twice. Nothing is sized by the count the prefix announces: the block is
/// read header by header, each from bytes the packet has.
fn read_block<'a>(
    pkt: &'a WirePacket,
    mut each: impl FnMut(usize, Entry<'_>),
) -> Result<(SegCursor<'a>, bool), ProtoError> {
    let segs = &pkt.payload[..];
    let total: usize = segs.iter().map(Bytes::len).sum();
    let mut start = SegCursor::new(segs);
    let mut count = [0u8; PREFIX];
    if !start.read(&mut count) {
        return Err(ProtoError::Truncated);
    }
    let headers = usize::from(u16::from_le_bytes(count));
    let here = start.unread();
    let rest = total - PREFIX;
    let block = match Fields::block(here, headers, &mut each) {
        Err(ProtoError::Truncated) if here.len() < rest => {
            let mut flat = vec![0u8; rest];
            let read = start.clone().read(&mut flat);
            debug_assert!(read);
            Fields::block(&flat, headers, &mut each)?
        }
        read => read?,
    };
    match block.payload.cmp(&((rest - block.len) as u64)) {
        std::cmp::Ordering::Greater => return Err(ProtoError::Truncated),
        std::cmp::Ordering::Less => return Err(ProtoError::LengthMismatch),
        std::cmp::Ordering::Equal => {}
    }
    let mut data = start;
    let skipped = data.skip(block.len);
    debug_assert!(skipped);
    Ok((data, block.ack_now))
}

/// Decode a data packet back into chunks. Accepts both gather-encoded and
/// linearized packets (the wire makes no distinction). Acks the packet
/// carries behind its chunks are read and left out.
pub fn decode_packet(pkt: &WirePacket) -> Result<Vec<DecodedChunk>, ProtoError> {
    let mut out = Vec::new();
    decode_packet_into(pkt, &mut out, &mut Vec::new())?;
    Ok(out)
}

/// [`decode_packet`] into the caller's vectors — the chunks, and the acks
/// behind them — cleared here, and left empty, at the capacity they had,
/// when the packet does not decode. Returns whether the packet asks for
/// its ack at once.
pub(crate) fn decode_packet_into(
    pkt: &WirePacket,
    out: &mut Vec<DecodedChunk>,
    acks: &mut Vec<AckHeader>,
) -> Result<bool, ProtoError> {
    let capacity = (out.capacity(), acks.capacity());
    out.clear();
    acks.clear();
    let read = read_block(pkt, |at, entry| {
        // Read a second time from the start when the block straddles
        // segments.
        if at == 0 {
            out.clear();
            acks.clear();
        }
        match entry {
            Entry::Chunk(&header) => out.push(DecodedChunk {
                header,
                data: Bytes::new(),
            }),
            Entry::Ack(ack) => acks.push(ack),
        }
    });
    match read {
        Ok((mut data, ack_now)) => {
            for c in out.iter_mut() {
                let len = c.header.chunk_len as usize;
                c.data = data.take(len).expect("payload is in bounds");
            }
            Ok(ack_now)
        }
        Err(e) => {
            out.clear();
            out.shrink_to(capacity.0);
            acks.clear();
            acks.shrink_to(capacity.1);
            Err(e)
        }
    }
}

/// Encode a rendezvous request/grant — or any control packet: a single
/// metadata-only chunk header.
pub fn encode_rndv(header: ChunkHeader) -> Vec<Bytes> {
    let h = ChunkHeader {
        chunk_len: 0,
        ..header
    };
    let mut pkt = ControlPacket::new(1);
    h.write(None, 0, &mut pkt);
    pkt.segments()
}

/// Decode a rendezvous request/grant.
pub fn decode_rndv(pkt: &WirePacket) -> Result<ChunkHeader, ProtoError> {
    // Whatever is wrong with the packet as a packet comes first; only a
    // well-formed one is then held to the one-empty-chunk shape.
    let (mut headers, mut last) = (0, None);
    let (_, ack_now) = read_block(pkt, |at, entry| {
        headers = at + 1;
        last = match entry {
            Entry::Chunk(&header) => Some(header),
            Entry::Ack(_) => None,
        };
    })?;
    match last {
        Some(header) if headers == 1 && header.chunk_len == 0 && !ack_now => Ok(header),
        _ => Err(ProtoError::LengthMismatch),
    }
}

/// Encode an ack control packet (`KIND_ACK`) of `acks`, at least one: on
/// the stack, then copied, when they fit in a `ControlPacket` (two acks
/// at their longest).
pub fn encode_acks(acks: &[AckHeader]) -> Vec<Bytes> {
    debug_assert!(!acks.is_empty(), "an ack packet acknowledges something");
    if PREFIX + MAX_ACK * acks.len() > CONTROL_BYTES {
        return encode_packet_with(&mut Vec::new(), &[], acks, false, true);
    }
    let mut pkt = ControlPacket::new(acks.len() as u16);
    for a in acks {
        a.write(&mut pkt);
    }
    pkt.segments()
}

/// Decode an ack control packet: one or more ack headers and nothing else.
pub fn decode_acks(pkt: &WirePacket) -> Result<Vec<AckHeader>, ProtoError> {
    let mut acks = Vec::new();
    decode_acks_into(pkt, &mut acks)?;
    Ok(acks)
}

/// [`decode_acks`] into the caller's vector (cleared here).
pub(crate) fn decode_acks_into(
    pkt: &WirePacket,
    acks: &mut Vec<AckHeader>,
) -> Result<(), ProtoError> {
    let mut chunks = 0;
    acks.clear();
    let read = read_block(pkt, |at, entry| {
        // Read a second time from the start when the block straddles
        // segments.
        if at == 0 {
            acks.clear();
            chunks = 0;
        }
        match entry {
            Entry::Chunk(_) => chunks += 1,
            Entry::Ack(ack) => acks.push(ack),
        }
    });
    if let Err(e) = read {
        acks.clear();
        return Err(e);
    }
    if chunks > 0 || acks.is_empty() {
        acks.clear();
        return Err(ProtoError::LengthMismatch);
    }
    Ok(())
}

/// The metadata-only header a shed-cancel notification travels in
/// (`KIND_CTRL`). It tells the receiver that `(flow, msg_seq)` was shed
/// before any byte was committed and will never arrive, so per-flow
/// ordered delivery must skip that sequence instead of waiting forever.
#[inline]
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
#[inline]
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

    /// The framing of the reference message — a 16 B express header and a
    /// 48 B body — behind another message in its packet, with a flow below
    /// 128, a sequence below 16 384 and a submission time within 8 191 ns
    /// of that message's.
    const REFERENCE_MESSAGE_FRAMING: u64 = 13;

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

    fn headers(chunks: &[WireChunk]) -> impl Iterator<Item = ChunkHeader> + '_ {
        chunks.iter().map(|c| c.header)
    }

    /// A decoding as comparable values.
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

    /// `bytes` cut at `cuts` (ascending; equal neighbours make an empty
    /// segment).
    fn cut(bytes: &Bytes, cuts: &[usize]) -> WirePacket {
        let mut segs = Vec::with_capacity(cuts.len() + 1);
        let mut from = 0;
        for &cut in cuts.iter().chain([&bytes.len()]) {
            segs.push(bytes.slice(from..cut));
            from = cut;
        }
        as_packet(segs)
    }

    /// Every decoder entry point says of `pkt` what it says of its bytes
    /// in one segment, which is what the reference decoder makes of those
    /// bytes, error kind included — and none panics.
    fn assert_segmentation_blind(pkt: &WirePacket) {
        let bytes = pkt.contiguous();
        let flat = as_packet(vec![Bytes::from(bytes.clone())]);
        let want = reference::decode(&bytes);
        let chunks = want.clone().map(|p| p.chunks);
        assert_eq!(flatten(decode_packet(pkt)), chunks);
        assert_eq!(flatten(decode_packet(&flat)), chunks);
        assert_eq!(decode_whole(pkt), want);
        assert_eq!(decode_whole(&flat), want);
        let control = reference::decode_control(&bytes);
        assert_eq!(decode_rndv(pkt), control);
        assert_eq!(decode_rndv(&flat), control);
        let acks = reference::decode_acks(&bytes);
        assert_eq!(decode_acks(pkt), acks);
        assert_eq!(decode_acks(&flat), acks);
    }

    /// Everything [`decode_packet_into`] reads of `pkt`, as comparable
    /// values.
    fn decode_whole(pkt: &WirePacket) -> Result<reference::Packet, ProtoError> {
        let (mut out, mut acks) = (Vec::new(), Vec::new());
        let ack_now = decode_packet_into(pkt, &mut out, &mut acks)?;
        let chunks = flatten(Ok(out))?;
        Ok(reference::Packet {
            chunks,
            acks,
            ack_now,
        })
    }

    /// The packet format read from its definition over one flat byte
    /// string, sharing nothing with the decoder it checks: a count, then
    /// that many headers, each field in turn and each checked where it is
    /// read, then the payloads back to back.
    mod reference {
        use super::super::{AckHeader, ChunkHeader, ProtoError};
        use crate::ids::{FlowId, TrafficClass};

        const EXPRESS: u8 = 0b0001;
        const SAME_MESSAGE: u8 = 0b0010;
        const HAS_OFFSET: u8 = 0b0100;
        const RUNS_TO_END: u8 = 0b1000;
        const ACKNOWLEDGES: u8 = 0b1_0000;
        const MARKED: u8 = 0b10_0000;
        const ASKS_NOW: u8 = 0b100_0000;

        /// What a packet says: its chunks with their payloads, the acks
        /// behind them, and whether it asks for its own ack at once.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub(super) struct Packet {
            pub(super) chunks: Vec<(ChunkHeader, Vec<u8>)>,
            pub(super) acks: Vec<AckHeader>,
            pub(super) ack_now: bool,
        }

        struct Bytes<'a>(&'a [u8]);

        impl Bytes<'_> {
            fn next(&mut self) -> Result<u8, ProtoError> {
                let (&first, rest) = self.0.split_first().ok_or(ProtoError::Truncated)?;
                self.0 = rest;
                Ok(first)
            }

            /// A `bits`-bit field as LEB128: at most ⌈bits / 7⌉ bytes, no
            /// bit past the field, and no last byte of nothing behind
            /// another.
            fn leb128(&mut self, bits: u32) -> Result<u64, ProtoError> {
                let (mut value, mut count) = (0u128, 0u32);
                loop {
                    let byte = self.next()?;
                    value |= u128::from(byte & 0x7F) << (7 * count);
                    count += 1;
                    if value >> bits != 0 {
                        return Err(ProtoError::BadVarint);
                    }
                    if byte < 0x80 {
                        if byte == 0 && count > 1 {
                            return Err(ProtoError::BadVarint);
                        }
                        return Ok(value as u64);
                    }
                    if count == bits.div_ceil(7) {
                        return Err(ProtoError::BadVarint);
                    }
                }
            }
        }

        /// The chunk headers of a packet, the ack headers behind them,
        /// whether the first asks for the packet's ack at once, and behind
        /// them all the payload bytes.
        #[allow(clippy::type_complexity)]
        fn headers(
            packet: &[u8],
        ) -> Result<(Vec<ChunkHeader>, Vec<AckHeader>, bool, &[u8]), ProtoError> {
            let [lo, hi, block @ ..] = packet else {
                return Err(ProtoError::Truncated);
            };
            let mut b = Bytes(block);
            let mut out: Vec<ChunkHeader> = Vec::new();
            let mut acks: Vec<AckHeader> = Vec::new();
            let mut ack_now = false;
            for at in 0..u16::from_le_bytes([*lo, *hi]) {
                let tag = b.next()?;
                if tag & ACKNOWLEDGES != 0 {
                    if tag & !(ACKNOWLEDGES | MARKED) != 0 {
                        return Err(ProtoError::BadTag);
                    }
                    let cookie = b.leb128(64)?;
                    let held_ns = b.leb128(64)?;
                    acks.push(AckHeader {
                        cookie,
                        ecn: tag & MARKED != 0,
                        held_ns,
                    });
                    continue;
                }
                // A chunk header: none behind an ack, and only the first
                // may ask.
                let asks = at == 0 && tag & ASKS_NOW != 0;
                ack_now |= asks;
                let tag = if asks { tag & !ASKS_NOW } else { tag };
                if !acks.is_empty() || tag > 0b1111 || (out.is_empty() && tag & SAME_MESSAGE != 0) {
                    return Err(ProtoError::BadTag);
                }
                let mut h = match out.last() {
                    Some(before) if tag & SAME_MESSAGE != 0 => *before,
                    before => {
                        let flow = b.leb128(32)? as u32;
                        let msg_seq = b.leb128(32)? as u32;
                        let frag_count = b.leb128(16)? as u16;
                        let class = b.next()?;
                        let submit = b.leb128(64)?;
                        let submit_ns = match before {
                            None => submit,
                            Some(before) => {
                                let delta = (submit >> 1) as i64 ^ -((submit & 1) as i64);
                                before.submit_ns.wrapping_add(delta as u64)
                            }
                        };
                        let named = (flow, msg_seq, frag_count, class, submit_ns);
                        if before.is_some_and(|p| {
                            named == (p.flow.0, p.msg_seq, p.frag_count, p.class.0, p.submit_ns)
                        }) {
                            return Err(ProtoError::BadTag);
                        }
                        ChunkHeader {
                            flow: FlowId(flow),
                            msg_seq,
                            frag_index: 0,
                            frag_count,
                            express: false,
                            class: TrafficClass(class),
                            frag_len: 0,
                            offset: 0,
                            chunk_len: 0,
                            submit_ns,
                        }
                    }
                };
                h.express = tag & EXPRESS != 0;
                h.frag_index = b.leb128(16)? as u16;
                h.frag_len = b.leb128(32)? as u32;
                h.offset = 0;
                if tag & HAS_OFFSET != 0 {
                    h.offset = b.leb128(32)? as u32;
                    if h.offset == 0 {
                        return Err(ProtoError::BadTag);
                    }
                }
                let end = u64::from(h.frag_len);
                if tag & RUNS_TO_END != 0 {
                    if u64::from(h.offset) > end {
                        return Err(ProtoError::BadTag);
                    }
                    h.chunk_len = h.frag_len - h.offset;
                } else {
                    let len = [b.next()?, b.next()?, b.next()?, b.next()?];
                    h.chunk_len = u32::from_le_bytes(len);
                    if u64::from(h.offset) + u64::from(h.chunk_len) == end {
                        return Err(ProtoError::BadTag);
                    }
                }
                out.push(h);
            }
            Ok((out, acks, ack_now, b.0))
        }

        /// What [`super::decode_packet_into`] should make of `packet`.
        pub(super) fn decode(packet: &[u8]) -> Result<Packet, ProtoError> {
            let (headers, acks, ack_now, mut payload) = headers(packet)?;
            let announced: u64 = headers.iter().map(|h| u64::from(h.chunk_len)).sum();
            if announced > payload.len() as u64 {
                return Err(ProtoError::Truncated);
            }
            if announced < payload.len() as u64 {
                return Err(ProtoError::LengthMismatch);
            }
            let mut chunks = Vec::new();
            for h in headers {
                let (data, rest) = payload.split_at(h.chunk_len as usize);
                chunks.push((h, data.to_vec()));
                payload = rest;
            }
            Ok(Packet {
                chunks,
                acks,
                ack_now,
            })
        }

        /// What [`super::decode_rndv`] should make of `packet`: a packet
        /// first, then one empty chunk that asks nothing, and no ack.
        pub(super) fn decode_control(packet: &[u8]) -> Result<ChunkHeader, ProtoError> {
            let p = decode(packet)?;
            match (&p.chunks[..], &p.acks[..], p.ack_now) {
                ([(h, data)], [], false) if data.is_empty() => Ok(*h),
                _ => Err(ProtoError::LengthMismatch),
            }
        }

        /// What [`super::decode_acks`] should make of `packet`: a packet
        /// first, then acks and nothing else.
        pub(super) fn decode_acks(packet: &[u8]) -> Result<Vec<AckHeader>, ProtoError> {
            let p = decode(packet)?;
            if p.chunks.is_empty() && !p.acks.is_empty() {
                Ok(p.acks)
            } else {
                Err(ProtoError::LengthMismatch)
            }
        }
    }

    /// A packet of `(tag, fields)` headers behind a count, the fields
    /// written byte for byte, and `payload` behind them.
    fn handmade(count: u16, block: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut out = count.to_le_bytes().to_vec();
        out.extend_from_slice(block);
        out.extend_from_slice(payload);
        out
    }

    fn decode_bytes(bytes: &[u8]) -> Result<Vec<DecodedChunk>, ProtoError> {
        decode_packet(&as_packet(vec![Bytes::copy_from_slice(bytes)]))
    }

    #[test]
    fn the_layout_byte_by_byte() {
        // An express header and a body of one message, then a whole
        // fragment of another message submitted 100 ns earlier, resumed
        // at byte 5 of it.
        let mut first = chunk(1, 300, 0, b"hdr", 0, 3);
        first.header.frag_count = 2;
        first.header.submit_ns = 1000;
        let mut body = chunk(1, 300, 1, b"body", 0, 4);
        (body.header.frag_count, body.header.submit_ns) = (2, 1000);
        let mut other = chunk(2, 0, 0, b"xy", 5, 7);
        other.header.submit_ns = 900;
        other.header.express = false;
        let chunks = [first, body, other];
        let segs = encode_packet(&chunks, false);
        #[rustfmt::skip]
        let block = [
            3, 0, // three chunks
            TAG_EXPRESS | TAG_TAIL, 1, 0xAC, 0x02, 2, 0, 0xE8, 0x07, 0, 3,
            TAG_SAME_MSG | TAG_TAIL, 1, 4,
            TAG_OFFSET | TAG_TAIL, 2, 0, 3, 0, 0xC7, 0x01, 0, 7, 5,
        ];
        assert_eq!(&segs[0][..], &block[..]);
        assert_eq!(block.len() as u64, framing_of(headers(&chunks)));
        // Cut one byte short of its fragment's end, the last chunk says
        // its length in four bytes.
        let mut cut = chunks.clone();
        cut[2].header.frag_len = 8;
        let segs = encode_packet(&cut, false);
        let mut longer = block[..block.len() - 2].to_vec();
        longer[2 + 10 + 3] = TAG_OFFSET;
        longer.extend_from_slice(&[8, 5, 2, 0, 0, 0]);
        assert_eq!(&segs[0][..], &longer[..]);
        let back = decode_packet(&as_packet(encode_packet(&cut, true))).unwrap();
        let want: Vec<_> = cut.iter().map(|c| (c.header, c.data.to_vec())).collect();
        assert_eq!(flatten(Ok(back)), Ok(want));
    }

    #[test]
    fn framing_matches_encoded_size() {
        // The extremes of a header.
        assert_eq!((MIN_CHUNK_HEADER_BYTES, MAX_CHUNK_HEADER_BYTES), (3, 42));
        let widest = ChunkHeader {
            flow: FlowId(u32::MAX),
            msg_seq: u32::MAX,
            frag_index: u16::MAX,
            frag_count: u16::MAX,
            express: true,
            class: TrafficClass(u8::MAX),
            frag_len: u32::MAX - 1,
            offset: u32::MAX,
            chunk_len: 0,
            submit_ns: u64::MAX,
        };
        assert_eq!(lone_packet_bytes(&widest), 2 + 42);
        let mut framing = Framing::new();
        framing.push(&widest);
        let narrowest = ChunkHeader {
            frag_index: 0,
            frag_len: 0,
            offset: 0,
            ..widest
        };
        assert_eq!(framing.next(&narrowest), 3);
        // The reference message, at the edges of the bounds it is pinned
        // for: 10 bytes to name it and open its header, 3 to continue it
        // with its body.
        let message = |seq, submit_ns| {
            let mut hdr = chunk(127, seq, 0, &[0; 16], 0, 16);
            let mut body = chunk(127, seq, 1, &[0; 48], 0, 48);
            (hdr.header.frag_count, body.header.frag_count) = (2, 2);
            (hdr.header.submit_ns, body.header.submit_ns) = (submit_ns, submit_ns);
            [hdr, body]
        };
        let [before, _] = message(0, 1_000_000);
        let [hdr, body] = message(16_383, 1_000_000 - 8_191);
        let mut framing = Framing::new();
        framing.push(&before.header);
        let after_one = framing.bytes();
        framing.push(&hdr.header);
        framing.push(&body.header);
        assert_eq!(framing.bytes() - after_one, REFERENCE_MESSAGE_FRAMING);
        let packet = [before, hdr, body];
        let segs = encode_packet(&packet, false);
        assert_eq!(segs[0].len() as u64, framing.bytes());
        // Control packets: one header, no payload; an ack packet of as
        // many ack headers as it carries, each its tag and two varints.
        let ack = |cookie, held_ns| AckHeader {
            cookie,
            ecn: true,
            held_ns,
        };
        assert_eq!(encode_acks(&[ack(5, 0)])[0].len(), 2 + 3);
        let three = [ack(5, 0), ack(600_000, 40_000), ack(u64::MAX, u64::MAX)];
        assert_eq!(
            encode_acks(&three)[0].len() as u64,
            ack_packet_bytes(&three)
        );
        assert_eq!(ack_packet_bytes(&three), 2 + 3 + 7 + MAX_ACK_HEADER_BYTES);
        let cancel = cancel_header(FlowId(1), 2, TrafficClass::DEFAULT);
        assert_eq!(encode_rndv(cancel)[0].len(), 10);
        // An ack behind a data packet's chunks costs its bytes and leaves
        // the message part alone.
        let (mut behind, mut plain) = (Framing::new(), Framing::new());
        behind.push(&packet[0].header);
        plain.push(&packet[0].header);
        behind.ack(&ack(600_000, 40_000));
        assert_eq!(behind.bytes(), after_one + 7);
        assert_eq!(
            behind.next(&packet[1].header),
            plain.next(&packet[1].header)
        );
        // `next` is what `push` then adds, `wire_bytes` the payload on
        // top, and `framing_of` is the sum.
        let chunks = [
            chunk(1, 0, 0, b"xy", 0, 2),
            chunk(1, 0, 1, b"z", 0, 1),
            chunk(1, 0, 2, b"w", 7, 9),
            chunk(2, 0, 0, b"v", 1, 2),
            chunk(1, 0, 2, b"u", 0, 9),
        ];
        let mut framing = Framing::new();
        for c in &chunks {
            let before = framing.bytes();
            let next = framing.next(&c.header);
            framing.push(&c.header);
            assert_eq!(framing.bytes(), before + next);
        }
        assert_eq!(framing.bytes(), framing_of(headers(&chunks)));
        assert_eq!(
            framing.bytes(),
            encode_packet(&chunks, false)[0].len() as u64
        );
        assert_eq!(wire_bytes(headers(&chunks)), framing.bytes() + 6);
        assert_eq!(framing_of([]), PACKET_PREFIX_BYTES);
    }

    #[test]
    fn a_take_fills_to_the_byte_or_takes_it_whole() {
        let whole = chunk(1, 0, 1, &[0; 100], 20, 120).header;
        let tail = Framing::new().next(&whole);
        // What `take` leaves in the header and adds to the framing, or
        // `None` when not a byte fits.
        let take = |h: &ChunkHeader, room| {
            let (mut framing, mut h) = (Framing::new(), *h);
            let taken = framing.take(&mut h, room);
            taken.then(|| (h.chunk_len, framing.bytes() - PACKET_PREFIX_BYTES))
        };
        // Whole under its own header, down to the last byte of room...
        assert_eq!(take(&whole, tail + 100), Some((100, tail)));
        // ... and cut one byte short of it under one that says its length.
        assert_eq!(take(&whole, tail + 99), Some((99 - 4, tail + 4)));
        assert_eq!(take(&whole, tail + 5), Some((1, tail + 4)));
        assert_eq!(take(&whole, tail + 4), None);
        // A chunk that stops short of its fragment's end is cut under a
        // header of the same size.
        let short = ChunkHeader {
            frag_len: 121,
            ..whole
        };
        let header = Framing::new().next(&short);
        assert_eq!(header, tail + 4);
        assert_eq!(take(&short, header + 100), Some((100, header)));
        assert_eq!(take(&short, header + 99), Some((99, header)));
        // Alone in a packet of a given size.
        let mut alone = whole;
        assert!(Framing::take_alone(&mut alone, 2 + tail + 50));
        assert_eq!(alone.chunk_len, 50 - 4);
        // A chunk of nothing comes next under its header, when that fits.
        let empty = chunk(1, 0, 1, &[], 0, 0).header;
        let header = Framing::new().next(&empty);
        assert_eq!(take(&empty, header), Some((0, header)));
        assert_eq!(take(&empty, header - 1), None);
    }

    #[test]
    fn a_header_names_its_message_unless_every_field_of_it_repeats() {
        // Same flow and sequence, another timestamp: no engine list holds
        // such a pair, and the wire still loses nothing of it.
        let mut later = chunk(1, 0, 1, b"z", 0, 1);
        later.header.submit_ns += 1;
        let chunks = vec![chunk(1, 0, 0, b"xy", 0, 2), later];
        let segs = encode_packet(&chunks, false);
        // The timestamp (12 345 ns, two bytes) and then its difference
        // (one, in one).
        assert_eq!(segs[0].len(), 2 + 9 + 8);
        let back = decode_packet(&as_packet(segs)).unwrap();
        assert_eq!(back[1].header, chunks[1].header);
    }

    #[test]
    fn decoded_payloads_are_slices_of_the_packets_segments() {
        let inline = vec![
            chunk(1, 0, 0, b"hdr", 0, 3),
            chunk(1, 0, 1, b"payload-a", 0, 9),
        ];
        // A payload this short, copied, lives in its handle and has no
        // buffer to share: it arrives as equal bytes.
        let back = decode_packet(&as_packet(encode_packet(&inline, false))).unwrap();
        for (c, d) in inline.iter().zip(&back) {
            assert_eq!(d.data, c.data);
        }
        // Built from vectors, the payloads are buffers of their own.
        let chunks: Vec<WireChunk> = inline
            .into_iter()
            .map(|c| WireChunk {
                data: Bytes::from(c.data.to_vec()),
                ..c
            })
            .collect();
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
        let first = framing_of(headers(&chunks)) as usize;
        assert_eq!(first, 2 + 9 + 3);
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
        // A header block that straddles segments is read from a copy.
        let pkt = as_packet(vec![flat.slice(..5), flat.slice(5..)]);
        assert_eq!(
            flatten(decode_packet(&pkt)),
            flatten(decode_packet(&as_packet(vec![flat])))
        );
    }

    /// The decoder reads a packet's gather list where it lies; the oracle
    /// is the reference decoder over the packet flattened into one byte
    /// string: every segmentation of it decodes as that does, errors
    /// included.
    #[test]
    fn segment_cursor_decodes_what_the_flattening_decoder_did() {
        let lists: Vec<Vec<WireChunk>> = vec![
            vec![],
            vec![
                chunk(1, 0, 0, b"a", 0, 1),
                chunk(1, 0, 1, b"bc", 4, 9),
                chunk(1, 0, 2, b"", 0, 0),
            ],
            vec![chunk(9, 8, 1, b"", 0, 1 << 20)],
            vec![chunk(1, 0, 0, b"xy", 3, 9), chunk(2, 7, 1, b"", 0, 0)],
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
                let flat = Bytes::from(as_packet(encode_packet(list, linearize)).contiguous());
                let want: Vec<_> = list.iter().map(|c| (c.header, c.data.to_vec())).collect();
                assert_eq!(flatten(decode_packet(&cut(&flat, &[]))), Ok(want));
                // Every cut into two and into three, inside the prefix, a
                // header, a varint and a chunk included; one byte a
                // segment with empty ones between; every truncation, and
                // a trailing byte.
                let len = flat.len();
                for a in 0..=len {
                    assert_segmentation_blind(&cut(&flat, &[a]));
                    for b in a..=len {
                        assert_segmentation_blind(&cut(&flat, &[a, b]));
                    }
                }
                let every: Vec<usize> = (0..=len).flat_map(|i| [i, i]).collect();
                assert_segmentation_blind(&cut(&flat, &every));
                for keep in 0..len {
                    let short = flat.slice(..keep);
                    assert!(decode_packet(&cut(&short, &[])).is_err(), "{keep} of {len}");
                    assert_segmentation_blind(&cut(&short, &[keep / 2]));
                }
                let mut longer = flat.to_vec();
                longer.push(0xEE);
                let longer = Bytes::from(longer);
                assert_eq!(
                    decode_packet(&cut(&longer, &[])).map(|c| c.len()),
                    Err(ProtoError::LengthMismatch)
                );
            }
        }
    }

    #[test]
    fn hostile_header_blocks_are_errors() {
        let decode = |bytes: &[u8]| {
            let pkt = as_packet(vec![Bytes::copy_from_slice(bytes)]);
            assert!(decode_rndv(&pkt).is_err() && decode_acks(&pkt).is_err());
            decode_packet(&pkt).map(|c| c.len())
        };
        let valid = as_packet(encode_packet(
            &[chunk(1, 0, 0, b"hdr", 0, 3), chunk(1, 0, 1, b"body", 0, 4)],
            true,
        ))
        .contiguous();
        let second = 2 + 9;
        assert_eq!(decode(&valid), Ok(2));
        // The first header continues a message the packet has not named.
        let mut orphan = valid.clone();
        orphan[2] |= TAG_SAME_MSG;
        assert_eq!(decode(&orphan), Err(ProtoError::BadTag));
        // A tag bit the format does not define for a chunk header, on
        // either header: an ack's bit (the tag is then an ack's, with bits
        // no ack has), the congestion echo, a bit of nothing — and the
        // ask-now bit, except on the packet's first header.
        for at in [2, second] {
            for bit in 4..8 {
                let mut unknown = valid.clone();
                unknown[at] |= 1 << bit;
                let want = if (at, bit) == (2, 6) {
                    Ok(2)
                } else {
                    Err(ProtoError::BadTag)
                };
                assert_eq!(decode(&unknown), want, "bit {bit} at {at}");
            }
        }
        // A header block that runs past the packet: the second header
        // claims a message part that is not there.
        let mut past = valid[..second + 3].to_vec();
        past[second] &= !TAG_SAME_MSG;
        assert_eq!(decode(&past), Err(ProtoError::Truncated));
        // An offset flag reads the payload's first byte as an offset.
        let mut longer = valid.clone();
        longer[second] |= TAG_OFFSET;
        assert!(decode(&longer).is_err());
        // A count the bytes cannot hold: the block, read header by header,
        // runs into the payload (read as headers) or off the packet.
        // Nothing is sized by the count, and the vector handed in is left
        // as small as it was.
        for count in [3, 4, 400, u16::MAX] {
            let mut crowd = valid.clone();
            crowd[..2].copy_from_slice(&count.to_le_bytes());
            assert!(decode(&crowd).is_err(), "{count} chunks");
            let mut out = Vec::new();
            let pkt = as_packet(vec![Bytes::from(crowd)]);
            assert!(decode_packet_into(&pkt, &mut out, &mut Vec::new()).is_err());
            assert_eq!(out.capacity(), 0);
        }
        // ... also when every byte behind the count reads as the shortest
        // header there is.
        let mut shortest = valid[..second + 3].to_vec();
        shortest[..2].copy_from_slice(&u16::MAX.to_le_bytes());
        for _ in 0..20 {
            shortest.extend_from_slice(&valid[second..second + 3]);
        }
        assert_eq!(decode(&shortest), Err(ProtoError::Truncated));
        assert_eq!(decode(b"\xFF\xFFgarbage"), Err(ProtoError::BadTag));
    }

    #[test]
    fn only_the_encoders_form_of_a_header_decodes() {
        // A lone whole chunk of one byte: tag, flow, seq, count, class,
        // submit, index, length — and the byte.
        let tag = TAG_TAIL;
        let good = handmade(1, &[tag, 1, 0, 1, 0, 0, 0, 1], b"x");
        assert_eq!(decode_bytes(&good).map(|c| c.len()), Ok(1));
        let with_flow = |flow: &[u8]| {
            let mut block = vec![tag];
            block.extend_from_slice(flow);
            block.extend_from_slice(&[0, 1, 0, 0, 0, 1]);
            decode_bytes(&handmade(1, &block, b"x")).map(|c| c[0].header.flow.0)
        };
        // Varints: the widest u32, and what is not a u32 in the shortest
        // form — a trailing zero byte, a sixth byte, a fifth byte with
        // more than four bits — nor a varint at all: one that runs off
        // the packet.
        assert_eq!(with_flow(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]), Ok(u32::MAX));
        assert_eq!(with_flow(&[0x81, 0x00]), Err(ProtoError::BadVarint));
        assert_eq!(
            with_flow(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00]),
            Err(ProtoError::BadVarint)
        );
        assert_eq!(
            with_flow(&[0xFF, 0xFF, 0xFF, 0xFF, 0x1F]),
            Err(ProtoError::BadVarint)
        );
        assert_eq!(
            with_flow(&[0xFF, 0xFF, 0xFF, 0xFF, 0x8F, 0x00]),
            Err(ProtoError::BadVarint)
        );
        let runs_off = handmade(1, &[tag, 0x80, 0x80], b"");
        assert_eq!(
            decode_bytes(&runs_off).map(|c| c.len()),
            Err(ProtoError::Truncated)
        );
        // A fragment count over 16 bits, and a submission time over 64.
        let count = |bytes: &[u8]| {
            let mut block = vec![tag, 1, 0];
            block.extend_from_slice(bytes);
            block.extend_from_slice(&[0, 0, 0, 1]);
            decode_bytes(&handmade(1, &block, b"x")).map(|c| c[0].header.frag_count)
        };
        assert_eq!(count(&[0xFF, 0xFF, 0x03]), Ok(u16::MAX));
        assert_eq!(count(&[0x80, 0x80, 0x04]), Err(ProtoError::BadVarint));
        let submit = |bytes: &[u8]| {
            let mut block = vec![tag, 1, 0, 1, 0];
            block.extend_from_slice(bytes);
            block.extend_from_slice(&[0, 1]);
            decode_bytes(&handmade(1, &block, b"x")).map(|c| c[0].header.submit_ns)
        };
        let widest = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(submit(&widest), Ok(u64::MAX));
        let mut over = widest;
        over[9] = 0x02;
        assert_eq!(submit(&over), Err(ProtoError::BadVarint));
        let mut eleven = widest.to_vec();
        eleven[9] = 0x81;
        eleven.push(0x00);
        assert_eq!(submit(&eleven), Err(ProtoError::BadVarint));
        // Tags the fields behind them contradict: an offset of zero; a
        // tail past its fragment's end; a length written out that runs to
        // the end; a message part that repeats the one before it.
        let offset_zero = handmade(1, &[tag | TAG_OFFSET, 1, 0, 1, 0, 0, 0, 1, 0], b"x");
        assert_eq!(
            decode_bytes(&offset_zero).map(|c| c.len()),
            Err(ProtoError::BadTag)
        );
        let past_end = handmade(1, &[tag | TAG_OFFSET, 1, 0, 1, 0, 0, 0, 1, 2], b"");
        assert_eq!(
            decode_bytes(&past_end).map(|c| c.len()),
            Err(ProtoError::BadTag)
        );
        let spelled_out = handmade(1, &[0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0], b"x");
        assert_eq!(
            decode_bytes(&spelled_out).map(|c| c.len()),
            Err(ProtoError::BadTag)
        );
        let cut_short = handmade(1, &[0, 1, 0, 1, 0, 0, 0, 2, 1, 0, 0, 0], b"x");
        assert_eq!(decode_bytes(&cut_short).map(|c| c.len()), Ok(1));
        let named_twice = handmade(
            2,
            &[tag, 1, 0, 2, 0, 0, 0, 1, tag, 1, 0, 2, 0, 0, 1, 1],
            b"xy",
        );
        assert_eq!(
            decode_bytes(&named_twice).map(|c| c.len()),
            Err(ProtoError::BadTag)
        );
        let continued = handmade(
            2,
            &[tag, 1, 0, 2, 0, 0, 0, 1, tag | TAG_SAME_MSG, 1, 1],
            b"xy",
        );
        assert_eq!(decode_bytes(&continued).map(|c| c.len()), Ok(2));
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
        assert_eq!(back, h);
        assert_eq!(back.frag_len, 1 << 20);
        assert_eq!(back.chunk_len, 0);
    }

    /// Acks with every extreme of their fields.
    fn some_acks() -> Vec<AckHeader> {
        let cookies = [0u64, 1, 127, 128, 0xDEAD_BEEF, u64::MAX];
        let held = [0u64, 1, 50_000, u64::MAX];
        let mut acks = Vec::new();
        for (i, &cookie) in cookies.iter().enumerate() {
            acks.push(AckHeader {
                cookie,
                ecn: i % 2 == 0,
                held_ns: held[i % held.len()],
            });
        }
        acks
    }

    #[test]
    fn ack_roundtrip_carries_full_cookie() {
        for cookie in [0u64, 1, 0xDEAD_BEEF, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            let ack = AckHeader {
                cookie,
                ecn: false,
                held_ns: 0,
            };
            let mut pkt = as_packet(encode_acks(&[ack]));
            pkt.kind = KIND_ACK;
            assert_eq!(decode_acks(&pkt), Ok(vec![ack]));
        }
    }

    #[test]
    fn ack_ecn_echo_roundtrips_and_plain_acks_read_clean() {
        for (cookie, ecn) in [(7u64, true), (0x1234_5678_9ABC_DEF0, false)] {
            let ack = AckHeader {
                cookie,
                ecn,
                held_ns: 40_000,
            };
            let mut pkt = as_packet(encode_acks(&[ack]));
            pkt.kind = KIND_ACK;
            let back = decode_acks(&pkt).unwrap();
            assert_eq!((back[0].cookie, back[0].ecn), (cookie, ecn));
        }
    }

    #[test]
    fn an_ack_packet_of_several_acks_round_trips() {
        for n in 1..=6 {
            let acks = &some_acks()[..n];
            let mut pkt = as_packet(encode_acks(acks));
            pkt.kind = KIND_ACK;
            assert_eq!(decode_acks(&pkt).as_deref(), Ok(acks));
            // It is no data packet's and no control header's shape.
            assert_eq!(flatten(decode_packet(&pkt)), Ok(vec![]));
            assert_eq!(decode_rndv(&pkt), Err(ProtoError::LengthMismatch));
            assert_segmentation_blind(&pkt);
        }
    }

    #[test]
    fn acks_behind_a_data_packets_chunks_round_trip_in_both_forms() {
        let chunks = [
            chunk(1, 0, 0, b"hdr", 0, 3),
            chunk(1, 0, 1, b"body", 0, 4),
            chunk(2, 9, 0, b"xy", 5, 7),
        ];
        let acks = some_acks();
        for linearize in [false, true] {
            for ack_now in [false, true] {
                let segs = encode_packet_with(&mut Vec::new(), &chunks, &acks, ack_now, linearize);
                let pkt = as_packet(segs);
                // `Framing` prices the acks like any header.
                let mut framing = Framing::new();
                for c in &chunks {
                    framing.push(&c.header);
                }
                for a in &acks {
                    framing.ack(a);
                }
                assert_eq!(pkt.payload_len(), framing.bytes() + 3 + 4 + 2);
                let want: Vec<_> = chunks.iter().map(|c| (c.header, c.data.to_vec())).collect();
                assert_eq!(flatten(decode_packet(&pkt)), Ok(want.clone()));
                let whole = reference::Packet {
                    chunks: want,
                    acks: acks.clone(),
                    ack_now,
                };
                assert_eq!(decode_whole(&pkt), Ok(whole));
                assert_segmentation_blind(&pkt);
                // Not an ack packet: it carries chunks.
                assert_eq!(decode_acks(&pkt), Err(ProtoError::LengthMismatch));
            }
        }
    }

    #[test]
    fn a_data_packet_without_acks_decodes_as_it_did() {
        // The bytes of the layout test's packet, byte for byte: no ack
        // and no ask leave the encoding and the decoding as they were.
        let chunks = [chunk(1, 0, 0, b"hdr", 0, 3), chunk(1, 0, 1, b"body", 0, 4)];
        let plain = encode_packet(&chunks, false);
        let with = encode_packet_with(&mut Vec::new(), &chunks, &[], false, false);
        assert_eq!(plain, with);
        let pkt = as_packet(plain);
        let (mut out, mut acks) = (Vec::new(), vec![some_acks()[0]]);
        assert_eq!(decode_packet_into(&pkt, &mut out, &mut acks), Ok(false));
        assert!(acks.is_empty(), "cleared");
        assert_eq!(flatten(Ok(out)), flatten(decode_packet(&pkt)));
        // Asking sets one bit of the first tag, and costs no byte.
        let asks = encode_packet_with(&mut Vec::new(), &chunks, &[], true, false);
        assert_eq!(asks[0][2], pkt.payload[0][2] | TAG_ACK_NOW);
        assert_eq!(asks[0][3..], pkt.payload[0][3..]);
    }

    #[test]
    fn a_packet_of_no_headers_decodes_into_emptied_vectors() {
        // Vectors that still hold what a packet before left in them.
        let full = as_packet(encode_packet_with(
            &mut Vec::new(),
            &[chunk(1, 0, 0, b"hdr", 0, 3)],
            &some_acks(),
            false,
            false,
        ));
        let (mut out, mut acks) = (Vec::new(), Vec::new());
        assert_eq!(decode_packet_into(&full, &mut out, &mut acks), Ok(false));
        assert!(!out.is_empty() && !acks.is_empty());
        let empty = as_packet(encode_packet(&[], false));
        assert_eq!(decode_packet_into(&empty, &mut out, &mut acks), Ok(false));
        assert!(out.is_empty() && acks.is_empty(), "cleared");
        acks.push(some_acks()[0]);
        let refused = decode_acks_into(&empty, &mut acks);
        assert_eq!(refused, Err(ProtoError::LengthMismatch));
        assert!(acks.is_empty(), "cleared");
    }

    #[test]
    fn an_ack_with_payload_or_an_unknown_bit_is_refused() {
        let ack = some_acks()[2];
        let good = as_packet(encode_acks(&[ack])).contiguous();
        assert_eq!(decode_bytes_acks(&good), Ok(vec![ack]));
        // Payload behind an ack packet: nothing announced it.
        let mut payload = good.clone();
        payload.push(0xAB);
        assert_eq!(decode_bytes_acks(&payload), Err(ProtoError::LengthMismatch));
        // Any tag bit but the ack's and the echo's.
        for bit in [0, 1, 2, 3, 6, 7] {
            let mut unknown = good.clone();
            unknown[2] |= 1 << bit;
            assert_eq!(
                decode_bytes_acks(&unknown),
                Err(ProtoError::BadTag),
                "bit {bit}"
            );
        }
        // A chunk header behind an ack.
        let chunk_after = handmade(2, &[TAG_ACK, 1, 0, TAG_TAIL, 1, 0, 1, 0, 0, 0, 1], b"x");
        assert_eq!(
            decode_bytes(&chunk_after).map(|c| c.len()),
            Err(ProtoError::BadTag)
        );
        // No acks at all, or a chunk among them.
        assert_eq!(
            decode_bytes_acks(&handmade(0, &[], b"")),
            Err(ProtoError::LengthMismatch)
        );
        let mixed = handmade(2, &[TAG_TAIL, 1, 0, 1, 0, 0, 0, 0, TAG_ACK, 1, 0], b"");
        assert_eq!(decode_bytes_acks(&mixed), Err(ProtoError::LengthMismatch));
    }

    fn decode_bytes_acks(bytes: &[u8]) -> Result<Vec<AckHeader>, ProtoError> {
        decode_acks(&as_packet(vec![Bytes::copy_from_slice(bytes)]))
    }

    #[test]
    fn empty_packet_roundtrip() {
        let segs = encode_packet(&[], false);
        let decoded = decode_packet(&as_packet(segs)).unwrap();
        assert!(decoded.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A chunk list whose fields come from small sets with their
        /// extremes in them, so that runs of one message, messages that
        /// differ in one field only, zero, negative and wrapping
        /// submission deltas, zero and non-zero offsets, tails and cuts
        /// all occur.
        fn wire_chunks() -> impl Strategy<Value = Vec<WireChunk>> {
            let message = (
                prop::sample::select(&[0u32, 1, 127, 128, u32::MAX]),
                prop::sample::select(&[0u32, 1, 16_384, u32::MAX]),
                prop::sample::select(&[0u16, 1, 2, u16::MAX]),
                prop::sample::select(&[0u8, 1, 255]),
                prop::sample::select(&[0u64, 1, 8_191, 1_000_000, u64::MAX - 1, u64::MAX]),
            );
            let fragment = (
                prop::sample::select(&[0u16, 1, 200, u16::MAX]),
                any::<bool>(),
                prop::sample::select(&[0u32, 1, 977, u32::MAX - 40, u32::MAX]),
                0usize..40,
                (0u8..4, any::<u32>()).prop_map(|(kind, b)| match kind {
                    0 => None,
                    1 => Some(0),
                    2 => Some(1 + b % 1000),
                    _ => Some(b),
                }),
            );
            prop::collection::vec((message, fragment, any::<u8>()), 0..12).prop_map(|list| {
                list.into_iter()
                    .map(
                        |((flow, msg_seq, frag_count, class, submit_ns), frag, fill)| {
                            let (frag_index, express, offset, len, beyond) = frag;
                            // `None`: any fragment length at all; else the
                            // fragment runs `beyond` bytes past the chunk.
                            let end = offset.saturating_add(len as u32);
                            let frag_len = beyond.map_or(end ^ 0x5555, |b| end.saturating_add(b));
                            WireChunk {
                                header: ChunkHeader {
                                    flow: FlowId(flow),
                                    msg_seq,
                                    frag_index,
                                    frag_count,
                                    express,
                                    class: TrafficClass(class),
                                    frag_len,
                                    offset,
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
            cut(flat, &cuts)
        }

        /// A byte string that decodes is the encoding of what it decodes
        /// to: the decoder accepts only the encoder's form.
        fn assert_canonical(bytes: &[u8]) {
            let pkt = as_packet(vec![Bytes::copy_from_slice(bytes)]);
            let (mut chunks, mut acks) = (Vec::new(), Vec::new());
            let Ok(ack_now) = decode_packet_into(&pkt, &mut chunks, &mut acks) else {
                return;
            };
            let again: Vec<WireChunk> = chunks
                .into_iter()
                .map(|c| WireChunk {
                    header: c.header,
                    data: c.data,
                })
                .collect();
            let segs = encode_packet_with(&mut Vec::new(), &again, &acks, ack_now, true);
            assert_eq!(segs[0][..], bytes[..]);
        }

        /// Up to three acks with their fields' extremes.
        fn acks() -> impl Strategy<Value = Vec<AckHeader>> {
            let ack = (
                prop::sample::select(&[0u64, 1, 128, 200_000, u64::MAX]),
                any::<bool>(),
                prop::sample::select(&[0u64, 1, 50_000, u64::MAX]),
            );
            prop::collection::vec(ack, 0..4).prop_map(|list| {
                list.into_iter()
                    .map(|(cookie, ecn, held_ns)| AckHeader {
                        cookie,
                        ecn,
                        held_ns,
                    })
                    .collect()
            })
        }

        proptest! {
            #[test]
            fn what_is_encoded_is_decoded_in_both_forms_however_it_is_cut(
                chunks in wire_chunks(),
                acks in acks(),
                ack_now in any::<bool>(),
                cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
            ) {
                let want: Vec<_> = chunks.iter().map(|c| (c.header, c.data.to_vec())).collect();
                let payload: u64 = chunks.iter().map(|c| c.data.len() as u64).sum();
                let ack_now = ack_now && !chunks.is_empty();
                for linearize in [false, true] {
                    let pkt = as_packet(encode_packet(&chunks, linearize));
                    prop_assert_eq!(pkt.payload.len(), if linearize { 1 } else { 1 + chunks.len() });
                    // The size `Framing` counts is the size written.
                    let bytes: u64 = pkt.payload.iter().map(|s| s.len() as u64).sum();
                    prop_assert_eq!(bytes, payload + framing_of(headers(&chunks)));
                    prop_assert_eq!(bytes, wire_bytes(headers(&chunks)));
                    prop_assert_eq!(flatten(decode_packet(&pkt)), Ok(want.clone()));
                    let flat = Bytes::from(pkt.contiguous());
                    let cut = resegmented(&flat, &cuts);
                    prop_assert_eq!(flatten(decode_packet(&cut)), Ok(want.clone()));
                    assert_segmentation_blind(&cut);
                    assert_canonical(&flat);
                    // With acks behind the chunks, and the first asking.
                    let segs = encode_packet_with(&mut Vec::new(), &chunks, &acks, ack_now, linearize);
                    let pkt = as_packet(segs);
                    let with_acks: u64 = acks.iter().map(AckHeader::encoded_len).sum();
                    prop_assert_eq!(pkt.payload_len(), bytes + with_acks);
                    let whole = reference::Packet { chunks: want.clone(), acks: acks.clone(), ack_now };
                    prop_assert_eq!(decode_whole(&pkt), Ok(whole));
                    let flat = Bytes::from(pkt.contiguous());
                    assert_segmentation_blind(&resegmented(&flat, &cuts));
                    assert_canonical(&flat);
                }
            }

            #[test]
            fn a_decoded_byte_string_re_encodes_to_itself(
                chunks in wire_chunks(),
                acks in acks(),
                edits in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..4),
            ) {
                let segs = encode_packet_with(&mut Vec::new(), &chunks, &acks, false, true);
                let mut flat = as_packet(segs).contiguous();
                for (at, byte) in edits {
                    let at = at.index(flat.len());
                    flat[at] = byte;
                }
                assert_canonical(&flat);
                assert_segmentation_blind(&as_packet(vec![Bytes::from(flat)]));
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
                    bytes[0] %= 1 + ((bytes.len() - 2) / 3) as u8;
                    bytes[1] = 0;
                }
                assert_canonical(&bytes);
                assert_segmentation_blind(&resegmented(&Bytes::from(bytes), &cuts));
            }

            #[test]
            fn a_mutated_byte_never_panics_the_decoder(
                chunks in wire_chunks(),
                linearize in any::<bool>(),
                at in any::<prop::sample::Index>(),
                flip in 1u8..=255,
                cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
            ) {
                let flat = as_packet(encode_packet(&chunks, linearize)).contiguous();
                // Every truncation is an error.
                for keep in 0..flat.len() {
                    prop_assert!(decode_bytes(&flat[..keep]).is_err());
                }
                // One byte flipped.
                let at = at.index(flat.len());
                let mut flipped = flat.clone();
                flipped[at] ^= flip;
                assert_canonical(&flipped);
                assert_segmentation_blind(&resegmented(&Bytes::from(flipped), &cuts));
                // One byte made a continuation of the next: the varint it
                // ends, if it ends one, grows by the byte after it.
                let mut longer = flat.clone();
                longer[at] |= 0x80;
                assert_canonical(&longer);
                assert_segmentation_blind(&resegmented(&Bytes::from(longer), &cuts));
            }
        }
    }
}

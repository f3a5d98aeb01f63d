//! Fixture: the same reads as `bad_flatten_copy.rs`, done in place or
//! allowed with the reason the copy is wanted. Must be silent.
// madlint: file: hot-path

pub struct Packet {
    pub segments: Vec<Vec<u8>>,
}

impl Packet {
    pub fn contiguous(&self) -> Vec<u8> {
        self.segments.concat()
    }
}

/// In place: the count is the first two bytes, wherever the cuts fall.
pub fn chunk_count(pkt: &Packet) -> Option<u16> {
    let mut bytes = pkt.segments.iter().flatten();
    Some(u16::from_le_bytes([*bytes.next()?, *bytes.next()?]))
}

/// A slice of the segment instead of a copy of it.
pub fn payload_of(segment: &[u8], at: usize, len: usize) -> &[u8] {
    &segment[at..at + len]
}

/// Item-level allow: the whole function exists to copy.
// madlint: allow(flatten-copy) — a diagnostic dump, off the data path
pub fn dump(pkt: &Packet) -> Vec<u8> {
    pkt.contiguous()
}

/// Line-level allow: only the annotated copy is sanctioned.
pub fn winner(chunks: &[u32]) -> Vec<u32> {
    chunks.to_vec() // madlint: allow(flatten-copy) — the one plan that outlives its pass
}

/// Naming a function `contiguous` or `to_vec` is not calling it.
pub fn to_vec() {}

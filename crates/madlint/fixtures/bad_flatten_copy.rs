//! Fixture: whole-buffer copies in a hot-path scope. Must trip
//! `flatten-copy` and nothing else.
// madlint: file: hot-path

pub struct Packet {
    pub segments: Vec<Vec<u8>>,
}

impl Packet {
    pub fn contiguous(&self) -> Vec<u8> {
        self.segments.concat()
    }
}

/// Flattening the gather list to read two bytes of it.
pub fn chunk_count(pkt: &Packet) -> u16 {
    let flat = pkt.contiguous();
    u16::from_le_bytes([flat[0], flat[1]])
}

/// A fresh vector per chunk handed on.
pub fn payload_of(segment: &[u8], at: usize, len: usize) -> Vec<u8> {
    segment[at..at + len].to_vec()
}

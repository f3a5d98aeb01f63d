//! madclock's own seeded input generator. The program under test never
//! sees the seed: it receives only the schedule produced here.
//!
//! SplitMix64 → exponential inter-arrival gaps, bounded-Pareto sizes and
//! offsets into a 1 MiB payload pool that messages slice without copying.

use crate::surface::Bytes;

/// Size of the shared payload pool every message body is a slice of.
pub const POOL_BYTES: usize = 1 << 20;

/// Bytes of the express header every message starts with:
/// `[schedule index, per-flow ordinal, pool offset, body length]` as four
/// little-endian `u32`s.
pub const HEADER_BYTES: usize = 16;

/// Steele/Lea/Flood SplitMix64: one `u64` of state, full period.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `lane` (a flow, a host) under the same seed.
    pub fn fork(seed: u64, lane: u64) -> Self {
        let mut s = SplitMix64(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // The modulo bias is below 2^-40 for every bound used here.
        self.next_u64() % bound
    }

    /// One draw from each of `n` equal-probability strata of the
    /// distribution whose inverse CDF is `at`, in shuffled order. The
    /// multiset of values — and so the total bytes, the total time — hardly
    /// depends on the seed; which message gets which value does. This is
    /// what lets runs of different seeds be compared with each other.
    pub fn strata<T>(&mut self, n: usize, at: impl Fn(f64) -> T) -> Vec<T> {
        let mut v: Vec<T> = (0..n)
            .map(|i| at((i as f64 + self.next_f64()) / n as f64))
            .collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// Inverse CDF of the exponential distribution with the given mean, in
/// whole nanoseconds, at least 1.
pub fn exp_ns_at(u: f64, mean_ns: u64) -> u64 {
    ((-(1.0 - u).ln() * mean_ns as f64) as u64).max(1)
}

/// Inverse CDF of the bounded Pareto distribution on `[min, max]` with
/// tail index `alpha`: `x = L / (1 - u (1 - (L/H)^a))^(1/a)`.
pub fn pareto_at(u: f64, min: u32, max: u32, alpha: f64) -> u32 {
    let (l, h) = (f64::from(min), f64::from(max));
    let x = l / (1.0 - u * (1.0 - (l / h).powf(alpha))).powf(1.0 / alpha);
    (x as u32).clamp(min, max)
}

/// The payload pool for `seed`: `POOL_BYTES` pseudo-random bytes.
pub fn payload_pool(seed: u64) -> Bytes {
    let mut rng = SplitMix64::fork(seed, 0xB0D1);
    let mut buf = Vec::with_capacity(POOL_BYTES);
    while buf.len() < POOL_BYTES {
        buf.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    Bytes::from(buf)
}

/// One message of a node's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Send {
    /// Virtual instant the message is due to be submitted (open loop), or
    /// the think time before it (closed loop).
    pub due_ns: u64,
    /// Index into the node's flow list.
    pub flow: u32,
    /// Position of this message within its flow (0, 1, 2, …).
    pub ordinal: u32,
    /// Body length in bytes (the message is `HEADER_BYTES` longer).
    pub body: u32,
    /// Offset of the body in the payload pool.
    pub off: u32,
}

/// Draw a body of `total - HEADER_BYTES` bytes somewhere in the pool.
pub fn place_body(rng: &mut SplitMix64, total: u32) -> (u32, u32) {
    let body = total - HEADER_BYTES as u32;
    let off = rng.below((POOL_BYTES as u32 - body + 1).into()) as u32;
    (body, off)
}

/// Encode a message's express header.
pub fn encode_header(index: u32, s: &Send) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..4].copy_from_slice(&index.to_le_bytes());
    h[4..8].copy_from_slice(&s.ordinal.to_le_bytes());
    h[8..12].copy_from_slice(&s.off.to_le_bytes());
    h[12..16].copy_from_slice(&s.body.to_le_bytes());
    h
}

/// Decode an express header into `(index, ordinal, off, body)`.
pub fn decode_header(h: &[u8]) -> Option<(u32, u32, u32, u32)> {
    if h.len() != HEADER_BYTES {
        return None;
    }
    let word = |i: usize| u32::from_le_bytes([h[i], h[i + 1], h[i + 2], h[i + 3]]);
    Some((word(0), word(4), word(8), word(12)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs of SplitMix64 seeded with 1234567 (reference C code).
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn pareto_stays_in_bounds_and_is_heavy_tailed() {
        let mut r = SplitMix64::new(7);
        let xs = r.strata(100_000, |u| pareto_at(u, 64, 256 << 10, 1.2));
        assert!(xs.iter().all(|&x| (64..=256 << 10).contains(&x)));
        let small = xs.iter().filter(|&&x| x < 128).count();
        let large = xs.iter().filter(|&&x| x > 16 << 10).count();
        assert!(small > 50_000, "more than half below 2x the minimum");
        assert!(large > 50, "the tail reaches past 16 KiB");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SplitMix64::new(3);
        let n = 200_000;
        let sum: u64 = r.strata(n, |u| exp_ns_at(u, 10_000)).iter().sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 10_000.0).abs() < 20.0, "mean {mean}");
    }

    #[test]
    fn strata_totals_barely_depend_on_the_seed() {
        let total = |seed| -> u64 {
            SplitMix64::new(seed)
                .strata(50_000, |u| pareto_at(u, 64, 256 << 10, 1.2))
                .iter()
                .map(|&x| u64::from(x))
                .sum()
        };
        let (a, b) = (total(1) as f64, total(2) as f64);
        assert!((a - b).abs() / a < 0.01, "{a} vs {b}");
        let draws = |seed| SplitMix64::new(seed).strata(100, |u| (u * 1e6) as u32);
        assert_ne!(draws(1), draws(2), "the order is the seed's");
        let mut sorted = draws(1);
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "one draw per stratum"
        );
    }

    #[test]
    fn header_round_trips() {
        let s = Send {
            due_ns: 9,
            flow: 3,
            ordinal: 77,
            body: 48,
            off: 1000,
        };
        assert_eq!(
            decode_header(&encode_header(5, &s)),
            Some((5, 77, 1000, 48))
        );
        assert_eq!(decode_header(&[0u8; 15]), None);
    }

    #[test]
    fn pool_is_seeded() {
        assert_eq!(payload_pool(1), payload_pool(1));
        assert_ne!(payload_pool(1), payload_pool(2));
        assert_eq!(payload_pool(1).len(), POOL_BYTES);
    }
}

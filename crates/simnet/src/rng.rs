//! Small deterministic PRNG for simulator-internal randomness (fault
//! plans, seeded topology and analyzer corpora).
//!
//! Workload generation in higher layers uses the `rand` crate; the simulator
//! itself keeps a dependency-free SplitMix64 so the substrate stays minimal
//! and its determinism is self-contained.

/// SplitMix64 generator. Passes BigCrush when used as a stream; more than
/// adequate for fault modeling. Deterministic across platforms.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Two generators with the same seed
    /// produce identical streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Returns 0 when `bound == 0`.
    ///
    /// Uses the widening-multiply method (Lemire); the modulo bias is at most
    /// 2^-64 per draw, negligible for these purposes.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
        assert_eq!(r.next_below(0), 0);
        assert_eq!(r.next_below(1), 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = SplitMix64::new(1234);
        let mut buckets = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            buckets[r.next_below(8) as usize] += 1;
        }
        let expect = n / 8;
        for &b in &buckets {
            // within 5% of expectation
            assert!((b as i64 - expect as i64).unsigned_abs() < expect as u64 / 20);
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SplitMix64::new(5);
        assert!(!(0..100).any(|_| r.next_bool(0.0)));
        assert!((0..100).all(|_| r.next_bool(1.0)));
    }
}

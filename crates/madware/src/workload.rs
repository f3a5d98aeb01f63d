//! Workload primitives: message-size distributions and arrival processes,
//! all deterministic under a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::SimDuration;

/// A message-size distribution.
#[derive(Clone, Debug)]
pub enum SizeDist {
    /// Every message has the same size.
    Fixed(usize),
    /// Uniform in `[lo, hi]`.
    Uniform(usize, usize),
    /// Mostly `small`, occasionally (`p_large`) `large` — the classic
    /// control-plus-bulk mix of middleware traffic.
    Bimodal {
        /// Common small size.
        small: usize,
        /// Rare large size.
        large: usize,
        /// Probability of a large message.
        p_large: f64,
    },
    /// Bounded Pareto on `[min, max]` with tail index `alpha` — the
    /// heavy-tailed ("mice and elephants") size mix of datacenter flows.
    /// Smaller `alpha` means heavier tail; `alpha` around 1.1–1.5 is
    /// typical for flow-size measurements.
    Pareto {
        /// Smallest message size (the mode of the distribution).
        min: usize,
        /// Truncation point: no draw exceeds this.
        max: usize,
        /// Tail index (> 0; must not be exactly 1 for `mean`).
        alpha: f64,
    },
}

impl SizeDist {
    /// Draw one size.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            SizeDist::Fixed(n) => n,
            SizeDist::Uniform(lo, hi) => rng.gen_range(lo..=hi),
            SizeDist::Bimodal {
                small,
                large,
                p_large,
            } => {
                if rng.gen_bool(p_large.clamp(0.0, 1.0)) {
                    large
                } else {
                    small
                }
            }
            SizeDist::Pareto { min, max, alpha } => {
                debug_assert!(min >= 1 && max >= min && alpha > 0.0);
                // Inverse CDF of the bounded Pareto:
                //   x = L / (1 - u * (1 - (L/H)^a))^(1/a)
                let (l, h) = (min as f64, max as f64);
                let u: f64 = rng.gen_range(0.0..1.0);
                let x = l / (1.0 - u * (1.0 - (l / h).powf(alpha))).powf(1.0 / alpha);
                (x as usize).clamp(min, max)
            }
        }
    }

    /// Mean size (for load computations).
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDist::Fixed(n) => n as f64,
            SizeDist::Uniform(lo, hi) => (lo + hi) as f64 / 2.0,
            SizeDist::Bimodal {
                small,
                large,
                p_large,
            } => small as f64 * (1.0 - p_large) + large as f64 * p_large,
            SizeDist::Pareto { min, max, alpha } => {
                let (l, h) = (min as f64, max as f64);
                if (alpha - 1.0).abs() < 1e-9 {
                    // alpha -> 1 limit of the bounded Pareto mean.
                    (l * h / (h - l)) * (h / l).ln()
                } else {
                    let la = l.powf(alpha);
                    (la / (1.0 - (l / h).powf(alpha)))
                        * (alpha / (alpha - 1.0))
                        * (1.0 / l.powf(alpha - 1.0) - 1.0 / h.powf(alpha - 1.0))
                }
            }
        }
    }
}

/// An inter-arrival process.
#[derive(Clone, Debug)]
pub enum Arrival {
    /// Fixed period.
    Periodic(SimDuration),
    /// Poisson process with the given mean inter-arrival time.
    Poisson(SimDuration),
    /// `count` back-to-back messages every `period` (bursty middleware).
    Burst {
        /// Messages per burst.
        count: u32,
        /// Time between burst starts.
        period: SimDuration,
    },
}

impl Arrival {
    /// Time until the next arrival event, and how many messages arrive
    /// together at it.
    pub fn next(&self, rng: &mut StdRng) -> (SimDuration, u32) {
        match *self {
            Arrival::Periodic(p) => (p, 1),
            Arrival::Poisson(mean) => {
                // Inverse-CDF exponential; clamp the uniform away from 0.
                let u: f64 = rng.gen_range(1e-12..1.0);
                let ns = -(u.ln()) * mean.as_nanos() as f64;
                (SimDuration::from_nanos(ns.max(1.0) as u64), 1)
            }
            Arrival::Burst { count, period } => (period, count),
        }
    }
}

/// Deterministic RNG for a (seed, stream) pair, so each app instance gets
/// an independent but reproducible stream.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_dist_is_fixed() {
        let mut rng = rng_for(1, 0);
        assert_eq!(SizeDist::Fixed(64).sample(&mut rng), 64);
        assert_eq!(SizeDist::Fixed(64).mean(), 64.0);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = rng_for(2, 0);
        for _ in 0..1000 {
            let s = SizeDist::Uniform(10, 20).sample(&mut rng);
            assert!((10..=20).contains(&s));
        }
    }

    #[test]
    fn bimodal_mixes() {
        let mut rng = rng_for(3, 0);
        let d = SizeDist::Bimodal {
            small: 8,
            large: 4096,
            p_large: 0.3,
        };
        let n_large = (0..10_000).filter(|_| d.sample(&mut rng) == 4096).count();
        assert!((2_500..3_500).contains(&n_large), "{n_large}");
        assert!((d.mean() - (8.0 * 0.7 + 4096.0 * 0.3)).abs() < 1e-9);
    }

    #[test]
    fn pareto_is_bounded_heavy_tailed_and_matches_its_mean() {
        let mut rng = rng_for(11, 0);
        let d = SizeDist::Pareto {
            min: 64,
            max: 1 << 20,
            alpha: 1.2,
        };
        let n = 200_000;
        let draws: Vec<usize> = (0..n).map(|_| d.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&s| (64..=1 << 20).contains(&s)));
        // Heavy tail: most draws are mice, a visible minority are >= 100x min.
        let mice = draws.iter().filter(|&&s| s < 640).count();
        let elephants = draws.iter().filter(|&&s| s >= 6400).count();
        assert!(mice > n * 8 / 10, "mice {mice}/{n}");
        assert!(elephants > n / 500, "elephants {elephants}/{n}");
        let measured = draws.iter().map(|&s| s as f64).sum::<f64>() / n as f64;
        let expected = d.mean();
        assert!(
            (measured - expected).abs() / expected < 0.15,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = rng_for(4, 0);
        let mean = SimDuration::from_micros(10);
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| Arrival::Poisson(mean).next(&mut rng).0.as_nanos())
            .sum();
        let measured = total as f64 / n as f64;
        assert!((measured - 10_000.0).abs() < 500.0, "mean {measured}ns");
    }

    #[test]
    fn burst_returns_count() {
        let mut rng = rng_for(5, 0);
        let a = Arrival::Burst {
            count: 7,
            period: SimDuration::from_micros(50),
        };
        let (d, c) = a.next(&mut rng);
        assert_eq!(c, 7);
        assert_eq!(d.as_nanos(), 50_000);
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let a1: Vec<u32> = {
            let mut r = rng_for(9, 1);
            (0..10).map(|_| r.gen()).collect()
        };
        let a2: Vec<u32> = {
            let mut r = rng_for(9, 1);
            (0..10).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = rng_for(9, 2);
            (0..10).map(|_| r.gen()).collect()
        };
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }
}

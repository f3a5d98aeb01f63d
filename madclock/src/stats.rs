//! Exact order statistics. The engine's own histograms are log2-bucketed,
//! so their p99 moves only in powers of two; the benchmark keeps every
//! sample and sorts.

/// The `q`-quantile of `sorted` by nearest rank: the smallest sample with
/// at least a share `q` of the samples at or below it. `sorted` must be
/// ascending and non-empty.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a few host-time samples (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them. Needs two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SplitMix64;

    /// Brute force: count how many samples lie at or below each candidate.
    fn brute(samples: &[u64], q: f64) -> u64 {
        let need = (q * samples.len() as f64).ceil().max(1.0) as usize;
        *samples
            .iter()
            .filter(|&&c| samples.iter().filter(|&&x| x <= c).count() >= need)
            .min()
            .unwrap()
    }

    #[test]
    fn quantile_matches_brute_force() {
        let mut rng = SplitMix64::new(9);
        for n in [1usize, 2, 3, 10, 101, 500] {
            let samples: Vec<u64> = (0..n).map(|_| rng.below(50)).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    quantile_sorted(&sorted, q),
                    brute(&samples, q),
                    "n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn p999_leaves_a_thousandth_beyond() {
        let sorted: Vec<u64> = (0..60_000).collect();
        let p = quantile_sorted(&sorted, 0.999);
        assert_eq!(sorted.iter().filter(|&&x| x > p).count(), 60);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}

//! The shared log2-bucketed histogram (madscope).
//!
//! The canonical histogram implementation lives here; it started life in
//! `simnet::stats` and was promoted so every layer — simulator harnesses,
//! the engine's per-flow/per-rail/per-class latency tracking, the
//! optimizer's decision-work distribution — shares one quantile
//! implementation. `simnet` keeps only the scalar [`Summary`]; the crate
//! dependency direction (core depends on simnet, never the reverse) means
//! the shared histogram must live up here.
//!
//! Buckets are powers of two: bucket `i` holds values in
//! `[2^i, 2^(i+1))`, so 64 buckets cover `1 ns .. ~584 s` for durations
//! (or the full `u64` range for raw values). Quantiles return the upper
//! bound of the bucket containing the rank-th sample, hence for any
//! recorded value `v` the reported quantile `q` satisfies
//! `v <= q < 2 * max(v, 1)` — exact to within one power of two.

use simnet::{SimDuration, Summary};

use crate::json::{obj, Json};

/// What a [`LogHistogram`] counts: raw `u64` values (dimensionless
/// distributions, e.g. plans evaluated per optimizer activation) or
/// durations, bucketed by nanoseconds and summarised in microseconds, the
/// harness's reporting unit.
pub trait Sample: Copy {
    /// The integer a sample is bucketed by.
    fn key(self) -> u64;
    /// The sample a bucket bound stands for.
    fn from_key(key: u64) -> Self;
    /// What the scalar [`Summary`] records of a sample.
    fn summarised(self) -> f64;
    /// A quantile as the JSON digest renders it.
    fn rendered(self) -> Json;
}

impl Sample for u64 {
    fn key(self) -> u64 {
        self
    }
    fn from_key(key: u64) -> Self {
        key
    }
    fn summarised(self) -> f64 {
        self as f64
    }
    fn rendered(self) -> Json {
        self.into()
    }
}

impl Sample for SimDuration {
    fn key(self) -> u64 {
        self.as_nanos()
    }
    fn from_key(key: u64) -> Self {
        SimDuration::from_nanos(key)
    }
    fn summarised(self) -> f64 {
        self.as_micros_f64()
    }
    fn rendered(self) -> Json {
        self.as_micros_f64().into()
    }
}

/// Bucket index of a value: floor(log2(max(v,1))).
#[inline]
fn bucket_of(v: u64) -> usize {
    63u32.saturating_sub(v.max(1).leading_zeros()) as usize
}

/// Log2-bucketed histogram of `V` samples (raw `u64` values by default,
/// or [`SimDuration`]s), with an exact scalar [`Summary`] over the same
/// samples in [`Sample::summarised`] units.
#[derive(Clone, Debug)]
pub struct LogHistogram<V = u64> {
    buckets: [u64; 64],
    summary: Summary,
    unit: std::marker::PhantomData<V>,
}

impl<V: Sample> Default for LogHistogram<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Sample> LogHistogram<V> {
    /// Empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; 64],
            summary: Summary::new(),
            unit: std::marker::PhantomData,
        }
    }

    /// Record one sample (0 lands in the first bucket).
    pub fn record(&mut self, v: V) {
        self.buckets[bucket_of(v.key())] += 1;
        self.summary.record(v.summarised());
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Scalar summary over the same samples (exact mean/min/max).
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Approximate quantile (`q` in `[0,1]`): the upper bound of the
    /// bucket containing the q-th sample; zero when empty.
    pub fn quantile(&self, q: f64) -> V {
        let total = self.count();
        if total == 0 {
            return V::from_key(0);
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return V::from_key(if i >= 63 { u64::MAX } else { (2u64 << i) - 1 });
            }
        }
        V::from_key(u64::MAX)
    }

    /// Merge another histogram into this one (bucket-wise addition plus a
    /// parallel Welford merge of the summaries).
    pub fn merge(&mut self, other: &LogHistogram<V>) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.summary.merge(&other.summary);
    }

    /// Raw bucket counts (bucket `i` covers `[2^i, 2^(i+1))` of
    /// [`Sample::key`]).
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Percentile digest as JSON: count, exact mean/max, p50/p90/p99
    /// bucket upper bounds — durations in microseconds, raw values as
    /// they are.
    pub fn to_json(&self) -> Json {
        obj()
            .field("count", self.count())
            .field("mean", self.summary.mean())
            .field("p50", self.quantile(0.5).rendered())
            .field("p90", self.quantile(0.9).rendered())
            .field("p99", self.quantile(0.99).rendered())
            .field("max", self.summary.max())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = LogHistogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).as_nanos();
        // Median sample is 500 µs; bucket upper bound must be >= that and
        // within one power of two.
        assert!(p50 >= 500_000, "p50={p50}");
        assert!(p50 < 2 * 1_048_576 * 1000, "p50={p50}");
        let p100 = h.quantile(1.0).as_nanos();
        assert!(p100 >= 1_000_000);
        // The summary is in microseconds.
        assert_eq!(h.summary().max(), 1000.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(20));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0).as_nanos() >= 20_000);
    }

    #[test]
    fn log_histogram_zero_and_max() {
        let mut h = LogHistogram::<u64>::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.25), 1, "0 lands in the [1,2) bucket");
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[63], 1);
    }

    #[test]
    fn log_histogram_json_fields() {
        let mut h = LogHistogram::<u64>::new();
        for v in [3u64, 5, 9] {
            h.record(v);
        }
        let doc = h.to_json();
        assert_eq!(doc.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("p50").unwrap().as_u64(), Some(7));
        assert!(doc.get("mean").is_some() && doc.get("max").is_some());
        // Durations render in microseconds.
        let mut d = LogHistogram::new();
        d.record(SimDuration::from_nanos(3_000));
        let doc = d.to_json();
        let us = |ns| Json::Float(SimDuration::from_nanos(ns).as_micros_f64());
        assert_eq!(doc.get("p50"), Some(&us(4_095)));
        assert_eq!(doc.get("max"), Some(&us(3_000)));
    }

    #[test]
    fn empty_histograms_report_zero() {
        let h = LogHistogram::<SimDuration>::new();
        assert_eq!(h.quantile(0.99), SimDuration::ZERO);
        assert_eq!(LogHistogram::<u64>::new().quantile(0.5), 0);
    }
}

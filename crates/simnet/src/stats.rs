//! Measurement primitives: running scalar statistics and time-weighted
//! utilization tracking.
//!
//! These are used both by the simulator core (NIC busy/idle accounting) and by
//! the experiment harness (round-trip summaries).

use crate::time::{SimDuration, SimTime};

/// Running scalar statistics (count / sum / min / max / mean), kept without
/// storing samples; the mean is updated incrementally (Welford).
#[derive(Clone, Debug)]
pub struct Summary {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for Summary {
    /// Same as [`Summary::new`]: the extremes start at ±∞, not at zero.
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.mean += (x - self.mean) / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n2 = other.count as f64;
        let total = self.count as f64 + n2;
        self.mean += (other.mean - self.mean) * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (0 if empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Minimum sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Tracks the fraction of virtual time a binary resource (e.g. a NIC transmit
/// engine) spends busy, with exact time weighting.
#[derive(Clone, Debug, Default)]
pub struct Utilization {
    busy_since: Option<SimTime>,
    accumulated_busy: SimDuration,
    start: SimTime,
}

impl Utilization {
    /// Start tracking at `now` (resource initially idle).
    pub fn new(now: SimTime) -> Self {
        Utilization {
            busy_since: None,
            accumulated_busy: SimDuration::ZERO,
            start: now,
        }
    }

    /// Resource became busy at `now`. Idempotent if already busy.
    pub fn set_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Resource became idle at `now`. Idempotent if already idle.
    pub fn set_idle(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.accumulated_busy += now.since(since);
        }
    }

    /// Total busy time up to `now`.
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        let mut t = self.accumulated_busy;
        if let Some(since) = self.busy_since {
            t += now.since(since);
        }
        t
    }

    /// Busy fraction of the interval [start, now]; 0 for an empty interval.
    pub fn busy_fraction(&self, now: SimTime) -> f64 {
        let span = now.since(self.start).as_nanos();
        if span == 0 {
            return 0.0;
        }
        self.busy_time(now).as_nanos() as f64 / span as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        let mut all = Summary::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert_eq!((a.min(), a.max()), (all.min(), all.max()));
    }

    /// `#[derive(Default)]` used to start the extremes at 0.0, which pinned
    /// `min()` at zero for any positive sample.
    #[test]
    fn default_summary_starts_like_new() {
        let mut s = Summary::default();
        s.record(5.0);
        assert_eq!((s.min(), s.max()), (5.0, 5.0));
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut u = Utilization::new(SimTime::ZERO);
        u.set_busy(SimTime::from_nanos(0));
        u.set_idle(SimTime::from_nanos(250));
        u.set_busy(SimTime::from_nanos(750));
        // At t=1000: busy 250 + 250 = 500 of 1000.
        assert!((u.busy_fraction(SimTime::from_nanos(1000)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_idempotent_transitions() {
        let mut u = Utilization::new(SimTime::ZERO);
        u.set_busy(SimTime::from_nanos(10));
        u.set_busy(SimTime::from_nanos(20)); // ignored, already busy
        u.set_idle(SimTime::from_nanos(30));
        u.set_idle(SimTime::from_nanos(40)); // ignored, already idle
        assert_eq!(u.busy_time(SimTime::from_nanos(100)).as_nanos(), 20);
    }
}

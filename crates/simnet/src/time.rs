//! Virtual time for the discrete-event simulator.
//!
//! All simulation time is kept in integer **nanoseconds** ([`SimTime`] is an
//! absolute instant, [`SimDuration`] a span). Integer nanoseconds give exact,
//! platform-independent reproducibility — there is no floating-point
//! accumulation drift across event cascades — while still resolving the
//! sub-microsecond costs (NIC doorbells, PIO word writes) that drive the
//! scheduler's decisions.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since an earlier instant. Saturates at zero if `earlier`
    /// is in fact later (callers comparing concurrent events should not rely
    /// on sign).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Seconds as floating point, for reporting only.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Microseconds as floating point, for reporting only.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Maximum span; used as an "infinite" sentinel (e.g. disabled timeout).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds as floating point, for reporting only.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// Seconds as floating point, for reporting only.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// True if this span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.max(rhs.0))
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.min(rhs.0))
    }
}

/// Time a given number of bytes occupies a resource that moves
/// `bytes_per_sec` bytes per second. Rounds up so that nonzero work never
/// takes zero time (which could otherwise produce livelock-like event loops).
#[inline]
pub fn transfer_time(bytes: u64, bytes_per_sec: u64) -> SimDuration {
    if bytes == 0 || bytes_per_sec == 0 {
        return SimDuration::ZERO;
    }
    // ns = ⌈bytes × 1e9 / rate⌉. The product fits 64 bits below 18 GB,
    // which is every packet; a 128-bit division is a library call.
    const NANOS_PER_SEC: u64 = 1_000_000_000;
    let ns = match bytes.checked_mul(NANOS_PER_SEC) {
        Some(product) => product.div_ceil(bytes_per_sec),
        None => {
            let wide = (bytes as u128 * NANOS_PER_SEC as u128).div_ceil(bytes_per_sec as u128);
            wide.min(u64::MAX as u128) as u64
        }
    };
    SimDuration(ns)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ns(self.0))
    }
}

/// Render nanoseconds with a human-scale unit (ns / µs / ms / s).
fn format_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_000);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3_000);
        assert_eq!(((t + d) - t).as_nanos(), 2_000);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(50);
        assert_eq!(late.since(early).as_nanos(), 40);
        assert_eq!(early.since(late).as_nanos(), 0);
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte at 1 GB/s = 1 ns exactly.
        assert_eq!(transfer_time(1, 1_000_000_000).as_nanos(), 1);
        // 1 byte at 3 GB/s -> ceil(1/3 ns) = 1 ns, never zero.
        assert_eq!(transfer_time(1, 3_000_000_000).as_nanos(), 1);
        // Zero bytes take zero time.
        assert_eq!(transfer_time(0, 1_000_000_000).as_nanos(), 0);
    }

    #[test]
    fn transfer_time_large_values_do_not_overflow() {
        let d = transfer_time(u64::MAX / 2, 1);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn transfer_time_is_the_128_bit_quotient_rounded_up_and_saturated() {
        let wide = |bytes: u64, rate: u64| {
            if bytes == 0 || rate == 0 {
                return 0;
            }
            let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(rate as u128);
            ns.min(u64::MAX as u128) as u64
        };
        // Either side of the largest byte count whose product fits 64 bits.
        let fits = u64::MAX / 1_000_000_000;
        let edge_bytes = [0, 1, fits - 1, fits, fits + 1, u64::MAX];
        let edge_rates = [0, 1, 3, 1_000_000_000, u64::MAX];
        for bytes in edge_bytes {
            for rate in edge_rates {
                assert_eq!(
                    transfer_time(bytes, rate).as_nanos(),
                    wide(bytes, rate),
                    "{bytes} B at {rate} B/s"
                );
            }
        }
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            // Every magnitude: packet sizes as well as what overflows.
            rng >> (rng % 64)
        };
        for _ in 0..20_000 {
            let (bytes, rate) = (draw(), draw());
            assert_eq!(
                transfer_time(bytes, rate).as_nanos(),
                wide(bytes, rate),
                "{bytes} B at {rate} B/s"
            );
        }
    }

    #[test]
    fn duration_constructors_scale() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn display_uses_human_units() {
        assert_eq!(SimDuration::from_nanos(500).to_string(), "500ns");
        assert_eq!(SimDuration::from_micros(150).to_string(), "150.00µs");
        assert_eq!(SimDuration::from_millis(25).to_string(), "25.00ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn saturating_ops_do_not_wrap() {
        let max = SimDuration::MAX;
        assert_eq!(max + SimDuration::from_nanos(1), SimDuration::MAX);
        assert_eq!(
            SimDuration::ZERO - SimDuration::from_nanos(1),
            SimDuration::ZERO
        );
        assert_eq!(SimTime::MAX + SimDuration::from_nanos(1), SimTime::MAX);
    }

    #[test]
    fn div_by_zero_is_guarded() {
        assert_eq!((SimDuration::from_nanos(100) / 0).as_nanos(), 100);
    }
}

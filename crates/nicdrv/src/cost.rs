//! The driver cost model: analytic transfer-time estimates the optimizer
//! uses to *value* candidate packet rearrangements (§3: the scheduler
//! "estimating the value of a given packet reordering operation").
//!
//! The model *is* the NIC's parameters: it prices a packet by the
//! [`NetworkParams::injection_time`] and [`NetworkParams::rx_time`] the
//! simulated NIC runs by, so its estimates are unbiased by construction;
//! on real hardware they would be calibrated measurements. What matters
//! for the paper's claims is the *relative* cost structure (per-message
//! overhead vs per-byte cost), which drives aggregation and
//! protocol-selection decisions.

use simnet::{transfer_time, NetworkParams, SimDuration, TxMode};

/// Analytic cost model of one NIC/driver: its network's parameters.
#[derive(Clone, Debug)]
pub struct CostModel {
    params: NetworkParams,
}

impl CostModel {
    /// The model of a NIC on a network of parameters `p`.
    pub fn from_params(p: &NetworkParams) -> Self {
        CostModel { params: p.clone() }
    }

    /// Time the transmit engine is occupied injecting + serializing one
    /// packet of `bytes` payload in `segments` gather entries
    /// ([`NetworkParams::injection_time`]).
    pub fn injection_time(&self, mode: TxMode, bytes: u64, segments: usize) -> SimDuration {
        self.params.injection_time(mode, bytes, segments)
    }

    /// Receive-side processing time for one packet
    /// ([`NetworkParams::rx_time`]).
    pub fn rx_time(&self, bytes: u64) -> SimDuration {
        self.params.rx_time(bytes)
    }

    /// One-way propagation from the wire to the peer's receive engine.
    pub fn wire_latency(&self) -> SimDuration {
        self.params.wire_latency
    }

    /// Unloaded time from the instant a packet of `bytes` payload has
    /// left the NIC to its reception: propagation, then receive.
    pub fn flight(&self, bytes: u64) -> SimDuration {
        self.wire_latency() + self.rx_time(bytes)
    }

    /// Full unloaded one-way latency: injection, propagation, receive.
    pub fn one_way(&self, mode: TxMode, bytes: u64, segments: usize) -> SimDuration {
        self.injection_time(mode, bytes, segments) + self.flight(bytes)
    }

    /// Host memcpy time to linearize `bytes` (by-copy aggregation).
    pub fn copy_time(&self, bytes: u64) -> SimDuration {
        transfer_time(bytes, self.params.host_copy_bandwidth)
    }

    /// Message size at which DMA injection becomes cheaper than PIO.
    ///
    /// Solves `injection_time(Pio, n) == injection_time(Dma, n)` by linear
    /// scan over powers of two then bisection; exact enough for protocol
    /// selection (the curves are monotone in `n`).
    pub fn pio_dma_crossover(&self) -> u64 {
        let pio_faster = |n: u64| {
            self.injection_time(TxMode::Pio, n, 1) <= self.injection_time(TxMode::Dma, n, 1)
        };
        if !pio_faster(1) {
            return 0; // DMA always wins (e.g. PIO path unusually slow)
        }
        let mut lo = 1u64; // pio faster here
        let mut hi = 1u64;
        loop {
            hi = hi.saturating_mul(2);
            if hi >= 1 << 40 {
                return u64::MAX; // PIO always wins within any sane size
            }
            if !pio_faster(hi) {
                break;
            }
            lo = hi;
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if pio_faster(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::from_params(&NetworkParams::synthetic())
    }

    #[test]
    fn injection_time_matches_hand_computation() {
        let m = model();
        // PIO, 1000 B: 100ns + (1016 B at 0.5 GB/s = 2032ns) = 2132ns.
        assert_eq!(m.injection_time(TxMode::Pio, 1000, 1).as_nanos(), 2132);
        // DMA, 1000 B, 2 segs: 400 + 2*50 + (1016 at 1 GB/s) = 1516ns.
        assert_eq!(m.injection_time(TxMode::Dma, 1000, 2).as_nanos(), 1516);
    }

    #[test]
    fn one_way_adds_all_stages() {
        let m = model();
        let d = m.one_way(TxMode::Pio, 1000, 1);
        // injection 2132 + wire 1000 + rx (200 + 500) = 3832ns.
        assert_eq!(d.as_nanos(), 3832);
    }

    #[test]
    fn crossover_is_where_curves_cross() {
        let m = model();
        let x = m.pio_dma_crossover();
        assert!(x > 0 && x < u64::MAX);
        assert!(m.injection_time(TxMode::Pio, x - 1, 1) <= m.injection_time(TxMode::Dma, x - 1, 1));
        assert!(m.injection_time(TxMode::Pio, x, 1) > m.injection_time(TxMode::Dma, x, 1));
    }

    #[test]
    fn crossover_degenerate_cases() {
        let mut p = NetworkParams::synthetic();
        // Make PIO setup enormous: DMA always wins.
        p.pio_setup = SimDuration::from_millis(1);
        assert_eq!(CostModel::from_params(&p).pio_dma_crossover(), 0);
        // Make DMA setup enormous and PIO as fast as DMA: PIO always wins.
        let mut p = NetworkParams::synthetic();
        p.dma_setup = SimDuration::from_millis(100);
        p.pio_bandwidth = p.dma_bandwidth;
        assert_eq!(CostModel::from_params(&p).pio_dma_crossover(), u64::MAX);
    }

    #[test]
    fn copy_time_uses_host_bandwidth() {
        let m = model();
        // 4 GB/s -> 1000 B = 250ns.
        assert_eq!(m.copy_time(1000).as_nanos(), 250);
    }

    #[test]
    fn aggregation_beats_two_sends_for_small_packets() {
        // The core economic fact behind E1: two small sends pay the fixed
        // cost twice; one aggregated send pays it once plus a copy.
        let m = model();
        let two = m.injection_time(TxMode::Pio, 64, 1) * 2;
        let one = m.copy_time(128) + m.injection_time(TxMode::Pio, 128, 1);
        assert!(one < two, "aggregated {one} vs separate {two}");
    }
}

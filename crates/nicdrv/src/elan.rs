//! Quadrics QsNetII / Elan4 driver model.
//!
//! Figure 1 of the paper shows a heterogeneous node mixing Myrinet and
//! Quadrics rails. QsNetII (Elan4) was the lowest-latency interconnect of
//! its day: ~1.3 µs MPI latency, ~900 MB/s per rail, an on-NIC thread
//! processor, STEN (short transaction engine) PIO for small packets and
//! native one-sided put/get DMA.

use simnet::{NetworkParams, SimDuration, Technology};

use crate::caps::DriverCapabilities;

/// Network parameters of a QsNetII fabric.
pub fn params() -> NetworkParams {
    NetworkParams {
        tech: Technology::QuadricsElan,
        wire_latency: SimDuration::from_nanos(600),
        wire_bandwidth: 900_000_000,
        per_packet_overhead_bytes: 24,
        mtu: 64 << 10,
        pio_setup: SimDuration::from_nanos(300), // STEN doorbell + event
        pio_bandwidth: 700_000_000,
        dma_setup: SimDuration::from_nanos(900),
        dma_per_segment: SimDuration::from_nanos(60),
        dma_bandwidth: 950_000_000,
        rx_setup: SimDuration::from_nanos(500),
        rx_bandwidth: 2_000_000_000,
        tx_queue_depth: 16,
        host_copy_bandwidth: 3_000_000_000,
    }
}

/// Capabilities of the Elan4 driver.
pub fn capabilities() -> DriverCapabilities {
    DriverCapabilities {
        tech: Technology::QuadricsElan,
        supports_pio: true,
        supports_dma: true,
        pio_max_bytes: 2 << 10,
        max_gather_entries: 8,
        max_packet_bytes: 64 << 10,
        vchannels: 16,
        rndv_threshold_hint: 16 << 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use simnet::TxMode;

    #[test]
    fn latency_below_two_microseconds() {
        let m = CostModel::from_params(&params());
        let us = m.one_way(TxMode::Pio, 8, 1).as_micros_f64();
        assert!(us < 2.0, "Elan 8B latency {us:.2}µs should be < 2µs");
    }

    #[test]
    fn faster_than_mx_in_both_regimes() {
        let elan = CostModel::from_params(&params());
        let mx = CostModel::from_params(&crate::mx::params());
        assert!(elan.one_way(TxMode::Pio, 8, 1) < mx.one_way(TxMode::Pio, 8, 1));
        assert!(
            elan.injection_time(TxMode::Dma, 32 << 10, 1)
                < mx.injection_time(TxMode::Dma, 32 << 10, 1)
        );
    }
}

//! Myrinet-2000 / MX driver model.
//!
//! The paper's beta implementation ran on MX/Myrinet (§4). Myrinet-2000 with
//! the MX ("Myrinet Express") interface was the workhorse HPC interconnect
//! of the mid-2000s: ~2 Gbit/s links (250 MB/s), ~3 µs end-to-end small
//! message latency, a LANai processor on the NIC, PIO injection for small
//! messages and PCI-X DMA for large ones, and native gather lists.
//!
//! Numbers below are calibrated to published MX-1.x microbenchmarks of the
//! era (half round-trip ≈ 2.8–3.5 µs, peak bandwidth ≈ 247 MB/s); see
//! `calib` for the consolidated table. Absolute fidelity is not required —
//! the optimizer's decisions depend on the relative weight of per-message
//! overhead vs per-byte cost, which these figures preserve.

use simnet::{NetworkParams, SimDuration, Technology};

use crate::caps::DriverCapabilities;

/// Network parameters of a Myrinet-2000 fabric under MX.
pub fn params() -> NetworkParams {
    NetworkParams {
        tech: Technology::MyrinetMx,
        wire_latency: SimDuration::from_nanos(1_000),
        wire_bandwidth: 250_000_000,
        per_packet_overhead_bytes: 32,
        mtu: 32 << 10,
        pio_setup: SimDuration::from_nanos(800),
        pio_bandwidth: 350_000_000,
        dma_setup: SimDuration::from_nanos(1_500),
        dma_per_segment: SimDuration::from_nanos(120),
        dma_bandwidth: 495_000_000, // PCI-X read path
        rx_setup: SimDuration::from_nanos(1_000),
        rx_bandwidth: 800_000_000,
        tx_queue_depth: 8,
        host_copy_bandwidth: 3_000_000_000,
    }
}

/// Capabilities of the MX driver.
pub fn capabilities() -> DriverCapabilities {
    DriverCapabilities {
        tech: Technology::MyrinetMx,
        supports_pio: true,
        supports_dma: true,
        pio_max_bytes: 1 << 10, // MX "small" message class
        max_gather_entries: 16,
        max_packet_bytes: 32 << 10,
        vchannels: 8,
        rndv_threshold_hint: 32 << 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use crate::cost::CostModel;
    use crate::driver::injection_mode;
    use simnet::{NicId, TxMode};

    #[test]
    fn small_message_latency_near_three_microseconds() {
        let m = CostModel::from_params(&params());
        let lat = m.one_way(TxMode::Pio, 8, 1);
        let us = lat.as_micros_f64();
        assert!(
            (2.0..4.0).contains(&us),
            "MX 8B one-way latency {us:.2}µs outside 2–4µs band"
        );
    }

    #[test]
    fn large_message_bandwidth_near_wire_rate() {
        let m = CostModel::from_params(&params());
        let bytes = 1u64 << 25; // 32 MiB in mtu-sized chunks
        let chunk = 32u64 << 10;
        let per_chunk = m.injection_time(TxMode::Dma, chunk, 1);
        let total = per_chunk * (bytes / chunk);
        let mbps = bytes as f64 / 1e6 / total.as_secs_f64();
        assert!(
            (200.0..250.0).contains(&mbps),
            "MX streaming bandwidth {mbps:.0} MB/s outside 200–250 band"
        );
    }

    #[test]
    fn driver_prefers_pio_below_dma_above() {
        let d = calib::driver(Technology::MyrinetMx, NicId(0));
        let mode = |bytes| injection_mode(d.capabilities(), d.cost_model(), bytes, 1).map(|m| m.0);
        assert_eq!(mode(64), Some(TxMode::Pio));
        assert_eq!(mode(16 << 10), Some(TxMode::Dma));
    }

    #[test]
    fn capabilities_consistent() {
        assert!(capabilities().validate().is_ok());
        assert!(capabilities().max_packet_bytes <= params().mtu);
    }
}

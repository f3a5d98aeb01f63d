//! Intra-node shared-memory "rail" model.
//!
//! Madeleine treated shared memory as just another driver, letting the
//! scheduler route intra-node flows over it. Transfers are memcpys through
//! a shared ring: tiny fixed cost, memory-bus bandwidth, no DMA engine.

use simnet::{NetworkParams, NicId, SimDuration, Technology};

use crate::caps::DriverCapabilities;
use crate::cost::CostModel;
use crate::driver::SimDriver;

/// Network parameters of the shared-memory rail.
pub fn params() -> NetworkParams {
    NetworkParams {
        tech: Technology::SharedMem,
        wire_latency: SimDuration::from_nanos(150),
        wire_bandwidth: 2_500_000_000,
        per_packet_overhead_bytes: 8,
        mtu: 64 << 10,
        pio_setup: SimDuration::from_nanos(40),
        pio_bandwidth: 2_500_000_000,
        dma_setup: SimDuration::ZERO,
        dma_per_segment: SimDuration::ZERO,
        dma_bandwidth: 1,
        rx_setup: SimDuration::from_nanos(80),
        rx_bandwidth: 3_000_000_000,
        tx_queue_depth: 16,
        host_copy_bandwidth: 3_000_000_000,
    }
}

/// Capabilities of the shared-memory driver.
pub fn capabilities() -> DriverCapabilities {
    DriverCapabilities {
        tech: Technology::SharedMem,
        supports_pio: true,
        supports_dma: false,
        pio_max_bytes: 64 << 10,
        max_gather_entries: 1,
        max_packet_bytes: 64 << 10,
        vchannels: 16,
        tx_queue_depth: 16,
        rndv_threshold_hint: 8 << 10, // switch to single-copy mapping
    }
}

/// Build a shared-memory driver for a NIC attached to a network with
/// [`params`].
pub fn driver(nic: NicId) -> SimDriver {
    SimDriver::new(nic, capabilities(), CostModel::from_params(&params()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::TxMode;

    #[test]
    fn sub_microsecond_latency() {
        let m = CostModel::from_params(&params());
        let ns = m.one_way(TxMode::Pio, 8, 1).as_nanos();
        assert!(ns < 1_000, "SHM 8B latency {ns}ns should be < 1µs");
    }

    #[test]
    fn fastest_rail_of_all() {
        let shm = CostModel::from_params(&params());
        for other in [
            crate::mx::params(),
            crate::elan::params(),
            crate::ib::params(),
            crate::tcp::params(),
        ] {
            let o = CostModel::from_params(&other);
            assert!(shm.one_way(TxMode::Pio, 8, 1) < o.one_way(TxMode::Pio, 8, 1));
        }
    }

    #[test]
    fn capabilities_consistent() {
        assert!(capabilities().validate().is_ok());
    }
}

//! Consolidated calibration table: one entry point per technology.
//!
//! | Technology   | latency | wire BW   | PIO max | gather | rndv hint |
//! |--------------|---------|-----------|---------|--------|-----------|
//! | MX/Myrinet   | 1.8 µs  | 250 MB/s  | 1 KiB   | 16     | 32 KiB    |
//! | Elan/Quadrics| 1.0 µs  | 900 MB/s  | 2 KiB   | 8      | 16 KiB    |
//! | IB 4x        | 3.0 µs  | 950 MB/s  | 256 B   | 4      | 16 KiB    |
//! | TCP/GigE     | 40 µs   | 110 MB/s  | 64 KiB  | —      | never     |
//! | SHM          | 0.15 µs | 2.5 GB/s  | 64 KiB  | —      | 8 KiB     |
//!
//! (Latency column is the propagation component; end-to-end small-message
//! latency adds injection and receive costs.) Values are drawn from
//! published microbenchmarks of the 2005–2006 era and are documented per
//! technology in the respective modules.

use simnet::{NetworkParams, NicId, Technology};

use crate::caps::DriverCapabilities;
use crate::cost::CostModel;
use crate::driver::SimDriver;
use crate::{elan, ib, mx, shm, tcp};

/// Network parameters for a technology.
pub fn params(tech: Technology) -> NetworkParams {
    match tech {
        Technology::MyrinetMx => mx::params(),
        Technology::QuadricsElan => elan::params(),
        Technology::InfiniBand => ib::params(),
        Technology::TcpEthernet => tcp::params(),
        Technology::SharedMem => shm::params(),
        Technology::Synthetic => NetworkParams::synthetic(),
    }
}

/// Driver capabilities for a technology.
pub fn capabilities(tech: Technology) -> DriverCapabilities {
    match tech {
        Technology::MyrinetMx => mx::capabilities(),
        Technology::QuadricsElan => elan::capabilities(),
        Technology::InfiniBand => ib::capabilities(),
        Technology::TcpEthernet => tcp::capabilities(),
        Technology::SharedMem => shm::capabilities(),
        Technology::Synthetic => synthetic_capabilities(),
    }
}

/// Capabilities paired with [`NetworkParams::synthetic`] for tests.
pub fn synthetic_capabilities() -> DriverCapabilities {
    DriverCapabilities {
        tech: Technology::Synthetic,
        supports_pio: true,
        supports_dma: true,
        pio_max_bytes: 4 << 10,
        max_gather_entries: 8,
        max_packet_bytes: 1 << 20,
        vchannels: 8,
        rndv_threshold_hint: 32 << 10,
    }
}

/// Build the driver for `tech` controlling `nic`.
pub fn driver(tech: Technology, nic: NicId) -> SimDriver {
    SimDriver::new(
        nic,
        capabilities(tech),
        CostModel::from_params(&params(tech)),
    )
}

/// All real (non-synthetic) technologies, for sweep experiments.
pub const REAL_TECHNOLOGIES: [Technology; 5] = [
    Technology::MyrinetMx,
    Technology::QuadricsElan,
    Technology::InfiniBand,
    Technology::TcpEthernet,
    Technology::SharedMem,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_technology_has_consistent_calibration() {
        for tech in REAL_TECHNOLOGIES {
            let p = params(tech);
            let c = capabilities(tech);
            assert_eq!(p.tech, tech);
            assert_eq!(c.tech, tech);
            c.validate().unwrap_or_else(|e| panic!("{tech:?}: {e}"));
            assert!(
                c.max_packet_bytes <= p.mtu,
                "{tech:?}: driver packet limit exceeds network MTU"
            );
            if c.supports_pio {
                assert!(p.pio_bandwidth > 0, "{tech:?}");
            }
            if c.supports_dma {
                assert!(p.dma_bandwidth > 1, "{tech:?}");
            }
        }
    }

    #[test]
    fn driver_construction_succeeds_for_all() {
        for tech in REAL_TECHNOLOGIES {
            let d = driver(tech, NicId(0));
            assert_eq!(d.capabilities().tech, tech);
        }
    }

    #[test]
    fn synthetic_capabilities_match_synthetic_params() {
        let c = synthetic_capabilities();
        let p = NetworkParams::synthetic();
        assert!(c.validate().is_ok());
        assert!(c.max_packet_bytes <= p.mtu);
    }
}

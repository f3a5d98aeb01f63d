//! InfiniBand 4x SDR driver model (2006-era InfiniHost class HCA).
//!
//! IB is listed in the paper's opening sentence as one of the high-speed
//! networks whose performance the library must preserve. Characteristics
//! modelled: ~4 µs small-message latency through the verbs stack of the
//! era, ~950 MB/s peak, tiny "inline" sends (modelled as PIO with a 256 B
//! cap), a small scatter/gather entry limit per work request, and native
//! RDMA.
//!
//! *Substitution note:* real IB segments messages into 2 KB MTU frames in
//! hardware; we fold that cost into `per_packet_overhead_bytes` and expose a
//! large driver-level packet limit, because the segmentation is invisible to
//! the software scheduler the paper studies.

use simnet::{NetworkParams, NicId, SimDuration, Technology};

use crate::caps::DriverCapabilities;
use crate::cost::CostModel;
use crate::driver::SimDriver;

/// Network parameters of an IB 4x SDR fabric.
pub fn params() -> NetworkParams {
    NetworkParams {
        tech: Technology::InfiniBand,
        wire_latency: SimDuration::from_nanos(2_000),
        wire_bandwidth: 950_000_000,
        per_packet_overhead_bytes: 30,
        mtu: 1 << 20,
        pio_setup: SimDuration::from_nanos(400), // inline post + doorbell
        pio_bandwidth: 500_000_000,
        dma_setup: SimDuration::from_nanos(1_300),
        dma_per_segment: SimDuration::from_nanos(80),
        dma_bandwidth: 950_000_000,
        rx_setup: SimDuration::from_nanos(1_200),
        rx_bandwidth: 1_500_000_000,
        tx_queue_depth: 32,
        host_copy_bandwidth: 3_000_000_000,
    }
}

/// Capabilities of the IB driver.
pub fn capabilities() -> DriverCapabilities {
    DriverCapabilities {
        tech: Technology::InfiniBand,
        supports_pio: true,
        supports_dma: true,
        pio_max_bytes: 256,    // verbs inline limit
        max_gather_entries: 4, // typical max_sge of the era
        max_packet_bytes: 1 << 20,
        vchannels: 8,
        tx_queue_depth: 32,
        rndv_threshold_hint: 16 << 10,
    }
}

/// Build an IB driver for a NIC attached to a network with [`params`].
pub fn driver(nic: NicId) -> SimDriver {
    SimDriver::new(nic, capabilities(), CostModel::from_params(&params()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::request::{DriverError, ModeSel, TransferRequest};
    use bytes::Bytes;
    use simnet::{Simulation, TxMode};

    #[test]
    fn inline_limit_forces_dma_above_256_bytes() {
        let d = driver(NicId(0));
        assert_eq!(d.select_mode(128, 1), TxMode::Pio);
        assert_eq!(d.select_mode(512, 1), TxMode::Dma);
    }

    #[test]
    fn small_sge_limit_rejects_wide_gathers() {
        let mut sim = Simulation::new();
        let net = sim.add_network(params());
        let a = sim.add_node();
        let b = sim.add_node();
        let na = sim.add_nic(a, net);
        let nb = sim.add_nic(b, net);
        let d = driver(na);
        let r = sim.inject(a, |ctx| {
            d.submit(
                ctx,
                TransferRequest {
                    dst_nic: nb,
                    vchan: 0,
                    kind: 0,
                    cookie: 0,
                    mode: ModeSel::Dma,
                    host_prep: simnet::SimDuration::ZERO,
                    segments: (0..5).map(|_| Bytes::from_static(b"xxxx")).collect(),
                },
            )
        });
        assert_eq!(r, Err(DriverError::TooManySegments { got: 5, max: 4 }));
    }

    #[test]
    fn higher_latency_than_elan_higher_bandwidth_than_mx() {
        let ib = CostModel::from_params(&params());
        let elan = CostModel::from_params(&crate::elan::params());
        let mx = CostModel::from_params(&crate::mx::params());
        assert!(ib.one_way(TxMode::Pio, 8, 1) > elan.one_way(TxMode::Pio, 8, 1));
        // streaming: IB moves 64K faster than MX
        assert!(
            ib.injection_time(TxMode::Dma, 32 << 10, 1)
                < mx.injection_time(TxMode::Dma, 32 << 10, 1)
        );
    }
}

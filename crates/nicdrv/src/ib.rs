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

use simnet::{NetworkParams, SimDuration, Technology};

use crate::caps::DriverCapabilities;

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
        rndv_threshold_hint: 16 << 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use crate::cost::CostModel;
    use crate::driver::injection_mode;
    use crate::request::{DriverError, TransferRequest};
    use bytes::Bytes;
    use simnet::{NicId, Simulation, TxMode};

    #[test]
    fn inline_limit_forces_dma_above_256_bytes() {
        let d = calib::driver(Technology::InfiniBand, NicId(0));
        let mode = |bytes| injection_mode(d.capabilities(), d.cost_model(), bytes, 1).map(|m| m.0);
        assert_eq!(mode(128), Some(TxMode::Pio));
        assert_eq!(mode(512), Some(TxMode::Dma));
    }

    #[test]
    fn small_sge_limit_rejects_wide_gathers() {
        let mut sim = Simulation::new();
        let net = sim.add_network(params());
        let a = sim.add_node();
        let b = sim.add_node();
        let na = sim.add_nic(a, net);
        let nb = sim.add_nic(b, net);
        let d = calib::driver(Technology::InfiniBand, na);
        // Five segments of 64 B: one past max_sge, and past the inline cap.
        let r = sim.inject(a, |ctx| {
            d.submit(
                ctx,
                TransferRequest {
                    dst_nic: nb,
                    vchan: 0,
                    kind: 0,
                    cookie: 0,
                    host_prep: SimDuration::ZERO,
                    segments: (0..5).map(|_| Bytes::from(vec![0u8; 64])).collect(),
                },
            )
        });
        assert_eq!(
            r,
            Err(DriverError::NotInjectable {
                len: 320,
                segments: 5
            })
        );
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

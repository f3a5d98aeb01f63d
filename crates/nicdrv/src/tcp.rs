//! TCP over Gigabit Ethernet driver model.
//!
//! The commodity fallback rail. Everything goes through the kernel socket
//! path, so there is no PIO/DMA distinction visible to the library: we model
//! the send syscall + stack traversal as a (slow) "PIO" mode with a large
//! size cap, and mark DMA unsupported. Gather at the API level (`writev`)
//! is available to the CPU stream, so multi-segment sends need no explicit
//! linearization copy.
//!
//! The huge per-message fixed cost (~tens of µs) makes TCP the rail where
//! the paper's aggregation optimizations pay off most dramatically — and
//! where Nagle's algorithm, which §3 cites as the inspiration for the
//! artificial-delay strategy, originally lived.

use simnet::{NetworkParams, SimDuration, Technology};

use crate::caps::DriverCapabilities;

/// Network parameters of a GigE/TCP fabric.
pub fn params() -> NetworkParams {
    NetworkParams {
        tech: Technology::TcpEthernet,
        wire_latency: SimDuration::from_micros(40),
        wire_bandwidth: 110_000_000,
        per_packet_overhead_bytes: 66, // Ethernet + IP + TCP headers
        mtu: 64 << 10,                 // GSO-sized bursts
        pio_setup: SimDuration::from_micros(8), // syscall + stack
        pio_bandwidth: 900_000_000,    // copy into kernel buffers
        dma_setup: SimDuration::ZERO,  // unused (no DMA mode)
        dma_per_segment: SimDuration::ZERO,
        dma_bandwidth: 1,
        rx_setup: SimDuration::from_micros(10), // interrupt + stack up-call
        rx_bandwidth: 900_000_000,
        tx_queue_depth: 32,
        host_copy_bandwidth: 3_000_000_000,
    }
}

/// Capabilities of the TCP driver.
pub fn capabilities() -> DriverCapabilities {
    DriverCapabilities {
        tech: Technology::TcpEthernet,
        supports_pio: true,
        supports_dma: false,
        pio_max_bytes: 64 << 10,
        max_gather_entries: 1, // no hardware gather; PIO streams segments
        max_packet_bytes: 64 << 10,
        vchannels: 16,                 // sockets are cheap
        rndv_threshold_hint: u64::MAX, // rendezvous buys nothing over TCP
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use crate::cost::CostModel;
    use crate::driver::injection_mode;
    use crate::request::TransferRequest;
    use bytes::Bytes;
    use simnet::{NicId, Simulation, TxMode};

    #[test]
    fn dma_mode_is_rejected() {
        let mut sim = Simulation::new();
        let net = sim.add_network(params());
        let a = sim.add_node();
        let b = sim.add_node();
        let na = sim.add_nic(a, net);
        let nb = sim.add_nic(b, net);
        let d = calib::driver(Technology::TcpEthernet, na);
        // One segment, which a DMA engine would take: still PIO.
        let r = sim.inject(a, |ctx| {
            d.submit(
                ctx,
                TransferRequest {
                    dst_nic: nb,
                    vchan: 0,
                    kind: 0,
                    cookie: 0,
                    host_prep: SimDuration::ZERO,
                    segments: vec![Bytes::from_static(b"data")],
                },
            )
        });
        assert_eq!(r, Ok(TxMode::Pio));
        // Past the PIO cap nothing is left, however few the segments.
        let past = d.capabilities().pio_max_bytes + 1;
        assert_eq!(
            injection_mode(d.capabilities(), d.cost_model(), past, 1),
            None
        );
    }

    #[test]
    fn auto_resolves_to_pio() {
        let d = calib::driver(Technology::TcpEthernet, NicId(0));
        let how = injection_mode(d.capabilities(), d.cost_model(), 1 << 14, 4);
        assert_eq!(how.map(|m| m.0), Some(TxMode::Pio));
    }

    #[test]
    fn fixed_cost_dwarfs_per_byte_cost_for_small_messages() {
        // The economics behind aggregation on TCP: 64 one-byte sends cost
        // ~64x the fixed overhead, one 64-byte send costs ~1x.
        let m = CostModel::from_params(&params());
        let separate = m.injection_time(TxMode::Pio, 1, 1) * 64;
        let merged = m.injection_time(TxMode::Pio, 64, 1);
        assert!(separate.as_nanos() > 30 * merged.as_nanos());
    }

    #[test]
    fn order_of_magnitude_slower_than_mx_for_small() {
        let tcp = CostModel::from_params(&params());
        let mx = CostModel::from_params(&crate::mx::params());
        let ratio = tcp.one_way(TxMode::Pio, 8, 1).as_nanos() as f64
            / mx.one_way(TxMode::Pio, 8, 1).as_nanos() as f64;
        assert!(
            ratio > 10.0,
            "TCP/MX small-message ratio {ratio:.1} should exceed 10x"
        );
    }
}

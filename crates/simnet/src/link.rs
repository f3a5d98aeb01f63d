//! Network (fabric) timing parameters.
//!
//! A [`NetworkParams`] bundle describes one interconnect technology — the
//! per-byte and per-transaction costs that shape every decision the packet
//! optimizer makes. NICs attached to the same network can exchange packets;
//! NICs on different networks cannot (heterogeneous multi-rail nodes attach
//! one NIC per network).
//!
//! The model decomposes a send into:
//!
//! ```text
//!  host injection (PIO write or DMA descriptor+pull)
//!    -> tx engine serialization onto the wire
//!    -> propagation latency
//!    -> rx engine processing at the receiver
//!    -> delivery callback
//! ```
//!
//! Each stage is a serial resource; a NIC's transmit engine handles one
//! packet at a time — exactly the property the paper's scheduler exploits:
//! while the engine is busy, submissions accumulate, and the scheduler is
//! re-activated when it drains ("the scheduler is not activated each time
//! the application submits a new packet, but rather when one of the NICs
//! becomes idle", §3).

use crate::time::SimDuration;

/// Technology family of a network, used by driver models and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Technology {
    /// Myrinet-2000 with the MX message-passing interface.
    MyrinetMx,
    /// Quadrics QsNetII (Elan4).
    QuadricsElan,
    /// InfiniBand 4x SDR (Mellanox-era, 2006).
    InfiniBand,
    /// Gigabit Ethernet with a kernel TCP stack.
    TcpEthernet,
    /// Intra-node shared memory "loopback" rail.
    SharedMem,
    /// Synthetic technology for tests.
    Synthetic,
}

impl Technology {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Technology::MyrinetMx => "MX/Myrinet",
            Technology::QuadricsElan => "Elan/Quadrics",
            Technology::InfiniBand => "IB 4x",
            Technology::TcpEthernet => "TCP/GigE",
            Technology::SharedMem => "SHM",
            Technology::Synthetic => "synthetic",
        }
    }
}

/// Timing/capacity parameters of one network fabric.
///
/// Bandwidth fields are in **bytes per second**; all durations are virtual
/// nanoseconds. Defaults (via [`NetworkParams::synthetic`]) are round numbers
/// convenient for hand-checked unit tests; realistic 2006-era technology
/// presets live in `nicdrv::calib`.
#[derive(Clone, Debug)]
pub struct NetworkParams {
    /// Technology family.
    pub tech: Technology,
    /// One-way propagation + switching latency.
    pub wire_latency: SimDuration,
    /// Wire serialization bandwidth (bytes/s).
    pub wire_bandwidth: u64,
    /// Framing overhead added to every wire packet (header + CRC bytes).
    pub per_packet_overhead_bytes: u64,
    /// Largest payload a single wire packet may carry.
    pub mtu: u64,
    /// Fixed host cost to start a PIO injection (doorbell, register writes).
    pub pio_setup: SimDuration,
    /// Host-side PIO copy bandwidth (bytes/s) — typically far below wire rate.
    pub pio_bandwidth: u64,
    /// Fixed host cost to post a DMA descriptor ring entry.
    pub dma_setup: SimDuration,
    /// Additional cost per gather segment in a DMA descriptor.
    pub dma_per_segment: SimDuration,
    /// NIC DMA pull bandwidth from host memory (bytes/s).
    pub dma_bandwidth: u64,
    /// Per-packet receive handling (interrupt/poll + header parse).
    pub rx_setup: SimDuration,
    /// Receive-side copy bandwidth out of NIC buffers (bytes/s).
    pub rx_bandwidth: u64,
    /// Hardware transmit queue depth per NIC (packets that may be posted
    /// while the engine is busy). Depth 1 means "one in flight, none queued".
    pub tx_queue_depth: usize,
    /// Host memory copy bandwidth (bytes/s), charged when the library
    /// linearizes segments by copy (e.g. by-copy aggregation).
    pub host_copy_bandwidth: u64,
}

impl NetworkParams {
    /// Round-number synthetic fabric for unit tests: 1 µs latency, 1 GB/s
    /// wire, 0.5 GB/s PIO, 2 GB/s DMA pull.
    pub fn synthetic() -> Self {
        NetworkParams {
            tech: Technology::Synthetic,
            wire_latency: SimDuration::from_micros(1),
            wire_bandwidth: 1_000_000_000,
            per_packet_overhead_bytes: 16,
            mtu: 1 << 20,
            pio_setup: SimDuration::from_nanos(100),
            pio_bandwidth: 500_000_000,
            dma_setup: SimDuration::from_nanos(400),
            dma_per_segment: SimDuration::from_nanos(50),
            dma_bandwidth: 2_000_000_000,
            rx_setup: SimDuration::from_nanos(200),
            rx_bandwidth: 2_000_000_000,
            tx_queue_depth: 4,
            host_copy_bandwidth: 4_000_000_000,
        }
    }

    /// Effective injection+serialization bandwidth for a given mode: the
    /// bottleneck of host injection and the wire.
    pub fn effective_bandwidth(&self, mode: crate::packet::TxMode) -> u64 {
        match mode {
            crate::packet::TxMode::Pio => self.wire_bandwidth.min(self.pio_bandwidth),
            crate::packet::TxMode::Dma => self.wire_bandwidth.min(self.dma_bandwidth),
        }
    }

    /// Default madnet per-link profile derived from this technology's
    /// wire parameters: full wire bandwidth per link, per-hop latency
    /// equal to the flat pipe's one-way latency, 256 KiB switch queues
    /// marking at 64 KiB. Topology constructors take explicit profiles;
    /// this is the convenient "same fabric, now switched" starting point.
    pub fn link_profile(&self) -> crate::topo::LinkProfile {
        crate::topo::LinkProfile {
            bandwidth: self.wire_bandwidth,
            latency: self.wire_latency,
            queue_capacity: 1 << 18,
            ecn_threshold: 1 << 16,
        }
    }

    /// Fixed (size-independent) cost of sending one packet with `segments`
    /// gather entries in the given mode.
    pub fn fixed_tx_cost(&self, mode: crate::packet::TxMode, segments: usize) -> SimDuration {
        match mode {
            crate::packet::TxMode::Pio => self.pio_setup,
            crate::packet::TxMode::Dma => self.dma_setup + self.dma_per_segment * segments as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TxMode;

    #[test]
    fn synthetic_params_are_consistent() {
        let p = NetworkParams::synthetic();
        assert!(p.pio_bandwidth <= p.wire_bandwidth);
        assert!(p.mtu > 0);
        assert!(p.tx_queue_depth >= 1);
    }

    #[test]
    fn effective_bandwidth_is_bottleneck() {
        let p = NetworkParams::synthetic();
        assert_eq!(p.effective_bandwidth(TxMode::Pio), 500_000_000);
        assert_eq!(p.effective_bandwidth(TxMode::Dma), 1_000_000_000);
    }

    #[test]
    fn fixed_cost_scales_with_gather_entries() {
        let p = NetworkParams::synthetic();
        let one = p.fixed_tx_cost(TxMode::Dma, 1);
        let four = p.fixed_tx_cost(TxMode::Dma, 4);
        assert_eq!((four - one).as_nanos(), 3 * 50);
        // PIO cost does not depend on segment count (CPU streams them).
        assert_eq!(
            p.fixed_tx_cost(TxMode::Pio, 1),
            p.fixed_tx_cost(TxMode::Pio, 9)
        );
    }

    #[test]
    fn labels_unique() {
        use Technology::*;
        let all = [
            MyrinetMx,
            QuadricsElan,
            InfiniBand,
            TcpEthernet,
            SharedMem,
            Synthetic,
        ];
        let mut labels: Vec<_> = all.iter().map(|t| t.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }
}

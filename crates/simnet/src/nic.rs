//! Simulated NIC state: a serial transmit engine with a bounded hardware
//! queue, a serial receive engine, and busy/idle accounting.
//!
//! The transmit engine is the resource whose *idleness* drives the paper's
//! scheduler: while it is busy the communication library accumulates a
//! backlog, and the busy→idle transition produces the `on_nic_idle` callback
//! that activates the optimizer.

use std::collections::VecDeque;

use crate::engine::{NetworkId, NicId, NodeId};
use crate::packet::{SubmitError, TxRequest, WirePacket};
use crate::stats::Utilization;
use crate::time::{SimDuration, SimTime};

/// Per-NIC counters, exposed to experiments.
#[derive(Clone, Debug, Default)]
pub struct NicStats {
    /// Packets fully injected and serialized by the tx engine.
    pub tx_packets: u64,
    /// Payload bytes transmitted.
    pub tx_payload_bytes: u64,
    /// Payload + framing bytes transmitted.
    pub tx_wire_bytes: u64,
    /// Packets delivered by the rx engine.
    pub rx_packets: u64,
    /// Payload bytes received.
    pub rx_payload_bytes: u64,
    /// Number of busy→idle transitions of the tx engine (each produces one
    /// `on_nic_idle` callback).
    pub idle_transitions: u64,
    /// Submissions rejected because the hardware queue was full.
    pub queue_full_rejections: u64,
    /// Packets dropped on the wire (fault injection only).
    pub wire_drops: u64,
    /// Packets duplicated on the wire (fault injection only).
    pub wire_dups: u64,
    /// Packets delayed by a fault-plan stall window.
    pub wire_stalls: u64,
    /// Gather segments transmitted (for DMA descriptor accounting).
    pub tx_segments: u64,
    /// madnet: packets this NIC sent that were ECN-marked in the fabric.
    pub ecn_marked: u64,
    /// madnet: packets this NIC sent that a full switch queue dropped.
    pub fabric_drops: u64,
}

/// State of one simulated NIC.
#[derive(Debug)]
pub struct NicState {
    /// This NIC's id.
    pub id: NicId,
    /// Node hosting the NIC.
    pub node: NodeId,
    /// Network (fabric) the NIC is attached to.
    pub network: NetworkId,
    /// Hardware tx queue. The head element is the packet currently being
    /// injected when `tx_busy` is true.
    pub(crate) tx_queue: VecDeque<TxRequest>,
    /// Whether the tx engine is processing a packet.
    pub(crate) tx_busy: bool,
    /// Receive-side queue of arrived-but-unprocessed packets.
    pub(crate) rx_queue: VecDeque<WirePacket>,
    /// Whether the rx engine is processing a packet.
    pub(crate) rx_busy: bool,
    /// Next per-NIC wire sequence number.
    pub(crate) next_seq: u64,
    /// Tx engine utilization over virtual time.
    pub(crate) tx_util: Utilization,
    /// Counters.
    pub stats: NicStats,
}

impl NicState {
    pub(crate) fn new(id: NicId, node: NodeId, network: NetworkId) -> Self {
        NicState {
            id,
            node,
            network,
            tx_queue: VecDeque::new(),
            tx_busy: false,
            rx_queue: VecDeque::new(),
            rx_busy: false,
            next_seq: 0,
            tx_util: Utilization::new(SimTime::ZERO),
            stats: NicStats::default(),
        }
    }

    /// True when the tx engine is idle and the hardware queue is empty —
    /// the state in which the optimizer is invited to produce work.
    pub fn is_tx_idle(&self) -> bool {
        !self.tx_busy && self.tx_queue.is_empty()
    }

    /// Remaining hardware queue slots given a queue depth.
    pub fn tx_queue_free(&self, depth: usize) -> usize {
        depth.saturating_sub(self.tx_queue.len())
    }

    /// Validate and enqueue a transmit request. Does **not** start the
    /// engine — the engine (which owns event scheduling) does that.
    pub(crate) fn enqueue_tx(
        &mut self,
        req: TxRequest,
        mtu: u64,
        depth: usize,
    ) -> Result<(), SubmitError> {
        let len = req.payload_len();
        if len > mtu {
            return Err(SubmitError::PacketTooLarge { len, mtu });
        }
        if self.tx_queue.len() >= depth {
            self.stats.queue_full_rejections += 1;
            return Err(SubmitError::QueueFull);
        }
        self.tx_queue.push_back(req);
        Ok(())
    }

    /// Fraction of virtual time the tx engine has been busy up to `now`.
    pub fn tx_busy_fraction(&self, now: SimTime) -> f64 {
        self.tx_util.busy_fraction(now)
    }

    /// Total busy time of the tx engine up to `now`.
    pub fn tx_busy_time(&self, now: SimTime) -> SimDuration {
        self.tx_util.busy_time(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TxMode;
    use bytes::Bytes;

    fn req(len: usize) -> TxRequest {
        TxRequest {
            dst_nic: NicId(1),
            vchan: 0,
            kind: 0,
            cookie: 0,
            mode: TxMode::Pio,
            host_prep: crate::time::SimDuration::ZERO,
            payload: vec![Bytes::from(vec![0u8; len])],
        }
    }

    #[test]
    fn fresh_nic_is_idle() {
        let n = NicState::new(NicId(0), NodeId(0), NetworkId(0));
        assert!(n.is_tx_idle());
        assert_eq!(n.tx_queue_free(4), 4);
    }

    #[test]
    fn enqueue_respects_depth() {
        let mut n = NicState::new(NicId(0), NodeId(0), NetworkId(0));
        assert!(n.enqueue_tx(req(10), 1000, 2).is_ok());
        assert!(n.enqueue_tx(req(10), 1000, 2).is_ok());
        assert_eq!(n.enqueue_tx(req(10), 1000, 2), Err(SubmitError::QueueFull));
        assert_eq!(n.stats.queue_full_rejections, 1);
        assert_eq!(n.tx_queue_free(2), 0);
    }

    #[test]
    fn enqueue_respects_mtu() {
        let mut n = NicState::new(NicId(0), NodeId(0), NetworkId(0));
        match n.enqueue_tx(req(100), 64, 4) {
            Err(SubmitError::PacketTooLarge { len, mtu }) => {
                assert_eq!((len, mtu), (100, 64));
            }
            other => panic!("expected PacketTooLarge, got {other:?}"),
        }
        // Rejection does not consume a queue slot.
        assert_eq!(n.tx_queue_free(4), 4);
    }
}

//! Generic traffic application and shared statistics plumbing.
//!
//! [`TrafficApp`] is the workhorse of the experiment harness: a set of
//! [`FlowSpec`]s, each an independent message stream with its own arrival
//! process, size distribution and traffic class — "complex conglomerates of
//! multiple communication middlewares ... increasing the number of
//! concurrent communication flows between processing nodes" (§1) in
//! distilled form. Richer protocol-shaped apps live in [`crate::mpi`],
//! [`crate::rpc`], [`crate::dsm`] and [`crate::corba`].

use std::cell::RefCell;
use std::rc::Rc;

use madeleine::api::{AppDriver, CommApi};
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::message::{DeliveredMessage, MessageBuilder, PackMode};
use rand::rngs::StdRng;
use simnet::{NodeId, SimTime, Summary};

use crate::verify::{pattern, IntegrityChecker};
use crate::workload::{rng_for, Arrival, SizeDist};

/// Shared, externally inspectable statistics of one app instance.
#[derive(Debug, Default)]
pub struct AppStats {
    /// Messages sent.
    pub sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Request→response round-trip times in microseconds (apps that match
    /// replies record here).
    pub rtt_us: Summary,
    /// End-to-end integrity verification of received payloads.
    pub integrity: IntegrityChecker,
    /// Time of last receipt.
    pub last_recv: SimTime,
}

/// Shared handle to [`AppStats`].
pub type StatsHandle = Rc<RefCell<AppStats>>;

/// Create a fresh stats handle.
pub fn stats_handle() -> StatsHandle {
    Rc::new(RefCell::new(AppStats::default()))
}

/// One generated message stream.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Destination node.
    pub dst: NodeId,
    /// Traffic class.
    pub class: TrafficClass,
    /// Arrival process.
    pub arrival: Arrival,
    /// Payload size distribution.
    pub sizes: SizeDist,
    /// Bytes of express header prepended to each message (0 = none).
    pub express_header: usize,
    /// Stop after this many messages (`None` = run forever).
    pub stop_after: Option<u64>,
    /// Delay before the first arrival is scheduled (phased workloads).
    pub start_after: simnet::SimDuration,
}

impl FlowSpec {
    /// A simple eager stream: Poisson arrivals of fixed-size messages with
    /// an 8-byte express header.
    pub fn eager(dst: NodeId, mean_gap: simnet::SimDuration, size: usize) -> Self {
        FlowSpec {
            dst,
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Poisson(mean_gap),
            sizes: SizeDist::Fixed(size),
            express_header: 8,
            stop_after: None,
            start_after: simnet::SimDuration::ZERO,
        }
    }
}

struct FlowRt {
    spec: FlowSpec,
    flow: FlowId,
    next_seq: u32,
    sent: u64,
}

/// Generic multi-stream traffic generator + verifier.
pub struct TrafficApp {
    name: &'static str,
    specs: Vec<FlowSpec>,
    flows: Vec<FlowRt>,
    rng: StdRng,
    stats: StatsHandle,
}

impl TrafficApp {
    /// Build a traffic app; `seed`/`stream` select the RNG stream.
    pub fn new(
        name: &'static str,
        specs: Vec<FlowSpec>,
        seed: u64,
        stream: u64,
    ) -> (Self, StatsHandle) {
        let stats = stats_handle();
        (
            TrafficApp {
                name,
                specs,
                flows: Vec::new(),
                rng: rng_for(seed, stream),
                stats: stats.clone(),
            },
            stats,
        )
    }

    fn send_one(&mut self, api: &mut dyn CommApi, idx: usize) {
        let rt = &mut self.flows[idx];
        let size = rt.spec.sizes.sample(&mut self.rng);
        let seq = rt.next_seq;
        rt.next_seq += 1;
        rt.sent += 1;
        let mut b = MessageBuilder::new();
        if rt.spec.express_header > 0 {
            // Semantic header: stream name hash + sequence, padded.
            let mut hdr = vec![0u8; rt.spec.express_header];
            let tag = seq.to_le_bytes();
            for (h, t) in hdr.iter_mut().zip(tag.iter().cycle()) {
                *h = *t;
            }
            b = b.pack(&hdr, PackMode::Express);
        }
        let frag_idx = if rt.spec.express_header > 0 { 1 } else { 0 };
        let body = pattern(rt.flow.0, seq, frag_idx, size);
        b = b.pack(&body, PackMode::Cheaper);
        let parts = b.build_parts();
        let bytes: u64 = parts.iter().map(|p| p.data.len() as u64).sum();
        api.send(rt.flow, parts);
        let mut s = self.stats.borrow_mut();
        s.sent += 1;
        s.bytes_sent += bytes;
    }

    fn arm(&mut self, api: &mut dyn CommApi, idx: usize) {
        let (delay, _) = self.flows[idx].spec.arrival.next(&mut self.rng);
        api.set_timer(delay, idx as u64);
    }

    /// The app's name (used in reports).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl AppDriver for TrafficApp {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        for spec in self.specs.clone() {
            let flow = api.open_flow(spec.dst, spec.class);
            self.flows.push(FlowRt {
                spec,
                flow,
                next_seq: 0,
                sent: 0,
            });
        }
        for idx in 0..self.flows.len() {
            let start = self.flows[idx].spec.start_after;
            if start.is_zero() {
                self.arm(api, idx);
            } else {
                api.set_timer(start, idx as u64);
            }
        }
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, tag: u64) {
        let idx = tag as usize;
        if idx >= self.flows.len() {
            return;
        }
        if let Some(limit) = self.flows[idx].spec.stop_after {
            if self.flows[idx].sent >= limit {
                return;
            }
        }
        // Burst arrivals deliver several messages at one instant.
        let count = match self.flows[idx].spec.arrival {
            Arrival::Burst { count, .. } => count,
            _ => 1,
        };
        for _ in 0..count {
            if let Some(limit) = self.flows[idx].spec.stop_after {
                if self.flows[idx].sent >= limit {
                    break;
                }
            }
            self.send_one(api, idx);
        }
        let keep_going = match self.flows[idx].spec.stop_after {
            Some(limit) => self.flows[idx].sent < limit,
            None => true,
        };
        if keep_going {
            self.arm(api, idx);
        }
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        let mut s = self.stats.borrow_mut();
        s.received += 1;
        s.bytes_received += msg.total_len();
        s.last_recv = api.now();
        s.integrity.check(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::traffic_pair;
    use madeleine::harness::ClusterSpec;
    use simnet::SimDuration;

    #[test]
    fn traffic_app_generates_and_verifies() {
        // Node 0 sends 50 messages to node 1.
        let flow = FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Periodic(SimDuration::from_micros(5)),
            sizes: SizeDist::Fixed(128),
            express_header: 8,
            stop_after: Some(50),
            start_after: SimDuration::ZERO,
        };
        let (mut c, tx_stats, rx_stats) =
            traffic_pair(&ClusterSpec::mx_pair(), "t", vec![flow], 42);
        c.drain();
        assert_eq!(tx_stats.borrow().sent, 50);
        let rx = rx_stats.borrow();
        assert_eq!(rx.received, 50);
        assert!(rx.integrity.all_ok(), "{:?}", rx.integrity.failures);
        assert_eq!(rx.integrity.checked, 50);
    }

    #[test]
    fn burst_arrivals_send_batches() {
        let flow = FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Burst {
                count: 10,
                period: SimDuration::from_micros(100),
            },
            sizes: SizeDist::Fixed(32),
            express_header: 0,
            stop_after: Some(30),
            start_after: SimDuration::ZERO,
        };
        let (mut c, tx_stats, rx_stats) = traffic_pair(&ClusterSpec::mx_pair(), "b", vec![flow], 7);
        c.drain();
        assert_eq!(tx_stats.borrow().sent, 30);
        assert_eq!(rx_stats.borrow().received, 30);
        assert!(rx_stats.borrow().integrity.all_ok());
    }

    #[test]
    fn multiple_flows_interleave_on_legacy_too() {
        let flow = FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Poisson(SimDuration::from_micros(3)),
            sizes: SizeDist::Uniform(16, 256),
            express_header: 4,
            stop_after: Some(25),
            start_after: SimDuration::ZERO,
        };
        let spec = ClusterSpec::mx_pair().legacy();
        let (mut c, _, rx_stats) = traffic_pair(&spec, "multi", vec![flow; 4], 11);
        c.drain();
        let rx = rx_stats.borrow();
        assert_eq!(rx.received, 100);
        assert!(rx.integrity.all_ok(), "{:?}", rx.integrity.failures);
    }

    /// Regression: `AppStats::default()` used to build its RTT summary
    /// through a derived `Default` whose minimum started at 0.
    #[test]
    fn fresh_stats_report_the_true_minimum_rtt() {
        let stats = stats_handle();
        stats.borrow_mut().rtt_us.record(5.0);
        stats.borrow_mut().rtt_us.record(9.0);
        assert_eq!(stats.borrow().rtt_us.min(), 5.0);
    }
}

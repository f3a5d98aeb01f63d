//! CORBA-like middleware: marshalled multi-fragment requests.
//!
//! §1 names CORBA among the middlewares whose stacking multiplies
//! concurrent flows. The distinguishing texture reproduced here is
//! *marshalling*: one logical invocation becomes several fragments (GIOP
//! header, typed arguments), each a separate pack — small, numerous, and a
//! perfect target for gather/scatter vs by-copy decisions (E10).

use madeleine::api::{AppDriver, CommApi};
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::message::{DeliveredMessage, MessageBuilder, PackMode};
use rand::rngs::StdRng;
use rand::Rng;
use simnet::NodeId;

use crate::apps::{stats_handle, StatsHandle};
use crate::verify::pattern;
use crate::workload::{rng_for, Arrival, SizeDist};

/// One-way CORBA-like invoker: each invocation is an express GIOP-ish
/// header plus 1–5 marshalled argument fragments.
pub struct CorbaInvoker {
    target: NodeId,
    arrival: Arrival,
    arg_sizes: SizeDist,
    stop_after: Option<u64>,
    flow: Option<FlowId>,
    seq: u32,
    sent: u64,
    rng: StdRng,
    stats: StatsHandle,
}

impl CorbaInvoker {
    /// Build an invoker targeting `target`.
    pub fn new(
        target: NodeId,
        arrival: Arrival,
        arg_sizes: SizeDist,
        stop_after: Option<u64>,
        seed: u64,
        stream: u64,
    ) -> (Self, StatsHandle) {
        let stats = stats_handle();
        (
            CorbaInvoker {
                target,
                arrival,
                arg_sizes,
                stop_after,
                flow: None,
                seq: 0,
                sent: 0,
                rng: rng_for(seed, stream),
                stats: stats.clone(),
            },
            stats,
        )
    }

    fn invoke(&mut self, api: &mut dyn CommApi) {
        let flow = self.flow.expect("started");
        let seq = self.seq;
        self.seq += 1;
        self.sent += 1;
        // GIOP-ish header: magic + version + op id.
        let mut hdr = Vec::with_capacity(12);
        hdr.extend_from_slice(b"GIOP");
        hdr.extend_from_slice(&1u32.to_le_bytes());
        hdr.extend_from_slice(&seq.to_le_bytes());
        let n_args = self.rng.gen_range(1..=5usize);
        let mut b = MessageBuilder::new().pack(&hdr, PackMode::Express);
        for arg in 0..n_args {
            let len = self.arg_sizes.sample(&mut self.rng);
            b = b.pack(
                &pattern(flow.0, seq, (1 + arg) as u16, len),
                PackMode::Cheaper,
            );
        }
        let parts = b.build_parts();
        let bytes: u64 = parts.iter().map(|p| p.data.len() as u64).sum();
        api.send(flow, parts);
        let mut s = self.stats.borrow_mut();
        s.sent += 1;
        s.bytes_sent += bytes;
    }

    fn arm(&mut self, api: &mut dyn CommApi) {
        let (d, _) = self.arrival.next(&mut self.rng);
        api.set_timer(d, 0);
    }
}

impl AppDriver for CorbaInvoker {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        self.flow = Some(api.open_flow(self.target, TrafficClass::DEFAULT));
        self.arm(api);
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, _tag: u64) {
        if let Some(limit) = self.stop_after {
            if self.sent >= limit {
                return;
            }
        }
        self.invoke(api);
        if self.stop_after.map(|l| self.sent < l).unwrap_or(true) {
            self.arm(api);
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

/// Counting/verifying sink for CORBA invocations.
pub struct CorbaServant {
    stats: StatsHandle,
}

impl CorbaServant {
    /// Build a servant.
    pub fn new() -> (Self, StatsHandle) {
        let stats = stats_handle();
        (
            CorbaServant {
                stats: stats.clone(),
            },
            stats,
        )
    }
}

impl AppDriver for CorbaServant {
    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        let mut s = self.stats.borrow_mut();
        s.received += 1;
        s.bytes_received += msg.total_len();
        s.last_recv = api.now();
        s.integrity.check(msg);
        // Sanity: header magic survived the optimizer.
        if let Some((_, hdr)) = msg.fragments.first() {
            if hdr.len() < 4 || &hdr[0..4] != b"GIOP" {
                s.integrity
                    .failures
                    .push(format!("bad GIOP magic in {}", msg.id));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madeleine::harness::{Cluster, ClusterSpec};
    use simnet::SimDuration;

    #[test]
    fn marshalled_invocations_survive_optimization() {
        let spec = ClusterSpec::mx_pair();
        let (inv, istats) = CorbaInvoker::new(
            NodeId(1),
            Arrival::Poisson(SimDuration::from_micros(8)),
            SizeDist::Uniform(8, 512),
            Some(60),
            21,
            0,
        );
        let (servant, sstats) = CorbaServant::new();
        let mut c = Cluster::build(&spec, vec![Some(Box::new(inv)), Some(Box::new(servant))]);
        c.drain();
        assert_eq!(istats.borrow().sent, 60);
        let ss = sstats.borrow();
        assert_eq!(ss.received, 60);
        assert!(ss.integrity.all_ok(), "{:?}", ss.integrity.failures);
    }
}

//! MPI-like middleware: the "regular communication schemes — commonly
//! encountered with MPI-like programming environments" the original
//! Madeleine already served well (§2). Implemented as an iterative stencil
//! halo exchange: every iteration each rank sends a fixed-size halo to its
//! ring neighbours, then computes.

use madeleine::api::{AppDriver, CommApi};
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::message::{DeliveredMessage, MessageBuilder, PackMode};
use simnet::{NodeId, SimDuration};

use crate::apps::{stats_handle, StatsHandle};
use crate::verify::pattern;

/// Ring-stencil halo-exchange application.
pub struct MpiStencil {
    /// This rank's neighbours.
    left: NodeId,
    right: NodeId,
    halo_bytes: usize,
    compute_time: SimDuration,
    iterations: u64,
    iter: u64,
    flow_left: Option<FlowId>,
    flow_right: Option<FlowId>,
    seq: u32,
    stats: StatsHandle,
}

impl MpiStencil {
    /// Build a stencil rank exchanging `halo_bytes` with `left`/`right`
    /// every iteration, modelling `compute_time` of work between exchanges.
    pub fn new(
        left: NodeId,
        right: NodeId,
        halo_bytes: usize,
        compute_time: SimDuration,
        iterations: u64,
    ) -> (Self, StatsHandle) {
        let stats = stats_handle();
        (
            MpiStencil {
                left,
                right,
                halo_bytes,
                compute_time,
                iterations,
                iter: 0,
                flow_left: None,
                flow_right: None,
                seq: 0,
                stats: stats.clone(),
            },
            stats,
        )
    }

    fn exchange(&mut self, api: &mut dyn CommApi) {
        let iter_tag = (self.iter as u32).to_le_bytes();
        for flow in [
            self.flow_left.expect("started"),
            self.flow_right.expect("started"),
        ] {
            let body = pattern(flow.0, self.seq, 1, self.halo_bytes);
            let parts = MessageBuilder::new()
                .pack(&iter_tag, PackMode::Express)
                .pack(&body, PackMode::Cheaper)
                .build_parts();
            let bytes: u64 = parts.iter().map(|p| p.data.len() as u64).sum();
            api.send(flow, parts);
            let mut s = self.stats.borrow_mut();
            s.sent += 1;
            s.bytes_sent += bytes;
        }
        self.seq += 1;
        self.iter += 1;
    }
}

impl AppDriver for MpiStencil {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        // One flow per neighbour. Sequences advance in lockstep, so the
        // shared `seq` matches each flow's engine-assigned sequence.
        self.flow_left = Some(api.open_flow(self.left, TrafficClass::DEFAULT));
        self.flow_right = Some(api.open_flow(self.right, TrafficClass::DEFAULT));
        self.exchange(api);
        api.set_timer(self.compute_time, 0);
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, _tag: u64) {
        if self.iter >= self.iterations {
            return;
        }
        self.exchange(api);
        if self.iter < self.iterations {
            api.set_timer(self.compute_time, 0);
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
    use madeleine::harness::{Cluster, ClusterSpec};
    use simnet::Technology;

    #[test]
    fn ring_halo_exchange_completes() {
        let n = 4usize;
        let spec = ClusterSpec::new(n, vec![Technology::MyrinetMx]);
        let iters = 10u64;
        let mut apps: Vec<Option<Box<dyn madeleine::AppDriver>>> = Vec::new();
        let mut handles = Vec::new();
        for rank in 0..n {
            let left = NodeId(((rank + n - 1) % n) as u32);
            let right = NodeId(((rank + 1) % n) as u32);
            let (app, h) = MpiStencil::new(left, right, 1024, SimDuration::from_micros(50), iters);
            apps.push(Some(Box::new(app)));
            handles.push(h);
        }
        let mut c = Cluster::build(&spec, apps);
        c.drain();
        for (rank, h) in handles.iter().enumerate() {
            let s = h.borrow();
            assert_eq!(s.sent, 2 * iters, "rank {rank} sent");
            assert_eq!(s.received, 2 * iters, "rank {rank} received");
            assert!(
                s.integrity.all_ok(),
                "rank {rank}: {:?}",
                s.integrity.failures
            );
        }
    }
}

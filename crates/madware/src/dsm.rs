//! DSM-like middleware: page-fault traffic of a software distributed
//! shared memory system (§2 cites DSM among the irregular schemes).
//!
//! Clients fault on random pages at random times and send a small
//! latency-critical request (CONTROL class, express page id); the home
//! node replies with the 4 KiB page on a BULK-class flow. The mix of tiny
//! urgent requests and bulk replies is what traffic-class separation (§2,
//! experiment E6) is about.

use std::collections::HashMap;

use madeleine::api::{AppDriver, CommApi};
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::message::{DeliveredMessage, MessageBuilder, PackMode};
use rand::rngs::StdRng;
use rand::Rng;
use simnet::{NodeId, SimTime};

use crate::apps::{stats_handle, StatsHandle};
use crate::verify::pattern;
use crate::workload::{rng_for, Arrival};

/// Standard DSM page size.
pub const PAGE_BYTES: usize = 4096;

/// DSM client: faults pages from a home node.
pub struct DsmClient {
    home: NodeId,
    arrival: Arrival,
    pages: u32,
    stop_after: Option<u64>,
    flow: Option<FlowId>,
    faults: u64,
    pending: HashMap<u32, SimTime>,
    rng: StdRng,
    stats: StatsHandle,
}

impl DsmClient {
    /// Build a client faulting from `home` over a `pages`-page space.
    pub fn new(
        home: NodeId,
        arrival: Arrival,
        pages: u32,
        stop_after: Option<u64>,
        seed: u64,
        stream: u64,
    ) -> (Self, StatsHandle) {
        let stats = stats_handle();
        (
            DsmClient {
                home,
                arrival,
                pages,
                stop_after,
                flow: None,
                faults: 0,
                pending: HashMap::new(),
                rng: rng_for(seed, stream),
                stats: stats.clone(),
            },
            stats,
        )
    }

    fn fault(&mut self, api: &mut dyn CommApi) {
        let flow = self.flow.expect("started");
        let page: u32 = self.rng.gen_range(0..self.pages);
        self.faults += 1;
        let parts = MessageBuilder::new()
            .pack(&page.to_le_bytes(), PackMode::Express)
            .build_parts();
        api.send(flow, parts);
        self.pending.entry(page).or_insert_with(|| api.now());
        let mut s = self.stats.borrow_mut();
        s.sent += 1;
        s.bytes_sent += 4;
    }

    fn arm(&mut self, api: &mut dyn CommApi) {
        let (d, _) = self.arrival.next(&mut self.rng);
        api.set_timer(d, 0);
    }
}

impl AppDriver for DsmClient {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        self.flow = Some(api.open_flow(self.home, TrafficClass::CONTROL));
        self.arm(api);
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, _tag: u64) {
        if let Some(limit) = self.stop_after {
            if self.faults >= limit {
                return;
            }
        }
        self.fault(api);
        if self.stop_after.map(|l| self.faults < l).unwrap_or(true) {
            self.arm(api);
        }
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        let mut s = self.stats.borrow_mut();
        s.received += 1;
        s.bytes_received += msg.total_len();
        s.last_recv = api.now();
        s.integrity.check(msg);
        // Reply express header carries the page id.
        if let Some((_, hdr)) = msg.fragments.first() {
            if hdr.len() >= 4 {
                let page = u32::from_le_bytes(hdr[0..4].try_into().expect("4 bytes"));
                if let Some(at) = self.pending.remove(&page) {
                    s.rtt_us.record(api.now().since(at).as_micros_f64());
                }
            }
        }
    }
}

/// DSM home node: serves pages.
pub struct DsmServer {
    reply_flows: HashMap<NodeId, (FlowId, u32)>,
    stats: StatsHandle,
}

impl DsmServer {
    /// Build a page server.
    pub fn new() -> (Self, StatsHandle) {
        let stats = stats_handle();
        (
            DsmServer {
                reply_flows: HashMap::new(),
                stats: stats.clone(),
            },
            stats,
        )
    }
}

impl AppDriver for DsmServer {
    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        {
            let mut s = self.stats.borrow_mut();
            s.received += 1;
            s.bytes_received += msg.total_len();
            s.last_recv = api.now();
        }
        let Some((_, hdr)) = msg.fragments.first() else {
            return;
        };
        if hdr.len() < 4 {
            return;
        }
        let page = &hdr[0..4];
        let (flow, seq) = {
            let entry = self
                .reply_flows
                .entry(msg.src)
                .or_insert_with(|| (api.open_flow(msg.src, TrafficClass::BULK), 0));
            let r = (entry.0, entry.1);
            entry.1 += 1;
            r
        };
        let body = pattern(flow.0, seq, 1, PAGE_BYTES);
        let parts = MessageBuilder::new()
            .pack(page, PackMode::Express)
            .pack(&body, PackMode::Cheaper)
            .build_parts();
        api.send(flow, parts);
        let mut s = self.stats.borrow_mut();
        s.sent += 1;
        s.bytes_sent += 4 + PAGE_BYTES as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madeleine::harness::{Cluster, ClusterSpec};
    use simnet::SimDuration;

    #[test]
    fn page_faults_are_served() {
        let spec = ClusterSpec::mx_pair();
        let (client, cstats) = DsmClient::new(
            NodeId(1),
            Arrival::Poisson(SimDuration::from_micros(30)),
            64,
            Some(30),
            13,
            0,
        );
        let (server, sstats) = DsmServer::new();
        let mut c = Cluster::build(&spec, vec![Some(Box::new(client)), Some(Box::new(server))]);
        c.drain();
        let cs = cstats.borrow();
        assert_eq!(cs.sent, 30);
        assert_eq!(sstats.borrow().received, 30);
        assert_eq!(cs.received, 30);
        // Replies are 4 KiB pages.
        assert_eq!(cs.bytes_received, 30 * (4 + PAGE_BYTES as u64));
        assert!(cs.integrity.all_ok(), "{:?}", cs.integrity.failures);
        // Duplicate faults on the same page collapse to one pending entry,
        // so RTT count can be <= faults but must be positive.
        assert!(cs.rtt_us.count() > 0);
    }
}

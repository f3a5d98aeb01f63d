//! RPC-style middleware: request/response with matched round trips.
//!
//! The paper motivates the engine with "programming models involving
//! irregular communication schemes such as RPC" (§2). Requests carry an
//! express header (request id + method) the server must read before the
//! argument payload — exactly the structured-message shape of §3.

use std::collections::HashMap;

use madeleine::api::{AppDriver, CommApi};
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::message::{DeliveredMessage, MessageBuilder, PackMode};
use rand::rngs::StdRng;
use simnet::{NodeId, SimTime};

use crate::apps::{stats_handle, StatsHandle};
use crate::verify::pattern;
use crate::workload::{rng_for, Arrival, SizeDist};

/// Express request/reply header: request id (8B) + method (4B).
pub const RPC_HEADER_BYTES: usize = 12;

fn encode_header(req_id: u64, method: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(RPC_HEADER_BYTES);
    h.extend_from_slice(&req_id.to_le_bytes());
    h.extend_from_slice(&method.to_le_bytes());
    h
}

fn decode_header(data: &[u8]) -> Option<(u64, u32)> {
    if data.len() < RPC_HEADER_BYTES {
        return None;
    }
    Some((
        u64::from_le_bytes(data[0..8].try_into().ok()?),
        u32::from_le_bytes(data[8..12].try_into().ok()?),
    ))
}

/// RPC client: issues requests to a server node and measures round trips.
pub struct RpcClient {
    server: NodeId,
    arrival: Arrival,
    arg_sizes: SizeDist,
    stop_after: Option<u64>,
    flow: Option<FlowId>,
    next_seq: u32,
    next_req: u64,
    pending: HashMap<u64, SimTime>,
    rng: StdRng,
    stats: StatsHandle,
}

impl RpcClient {
    /// Build a client issuing requests to `server`.
    pub fn new(
        server: NodeId,
        arrival: Arrival,
        arg_sizes: SizeDist,
        stop_after: Option<u64>,
        seed: u64,
        stream: u64,
    ) -> (Self, StatsHandle) {
        let stats = stats_handle();
        (
            RpcClient {
                server,
                arrival,
                arg_sizes,
                stop_after,
                flow: None,
                next_seq: 0,
                next_req: 1,
                pending: HashMap::new(),
                rng: rng_for(seed, stream),
                stats: stats.clone(),
            },
            stats,
        )
    }

    fn issue(&mut self, api: &mut dyn CommApi) {
        let flow = self.flow.expect("started");
        let req_id = self.next_req;
        self.next_req += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let args = pattern(flow.0, seq, 1, self.arg_sizes.sample(&mut self.rng));
        let parts = MessageBuilder::new()
            .pack(&encode_header(req_id, 7), PackMode::Express)
            .pack(&args, PackMode::Cheaper)
            .build_parts();
        let bytes: u64 = parts.iter().map(|p| p.data.len() as u64).sum();
        api.send(flow, parts);
        self.pending.insert(req_id, api.now());
        let mut s = self.stats.borrow_mut();
        s.sent += 1;
        s.bytes_sent += bytes;
    }

    fn arm(&mut self, api: &mut dyn CommApi) {
        let (delay, _) = self.arrival.next(&mut self.rng);
        api.set_timer(delay, 0);
    }
}

impl AppDriver for RpcClient {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        self.flow = Some(api.open_flow(self.server, TrafficClass::DEFAULT));
        self.arm(api);
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, _tag: u64) {
        if let Some(limit) = self.stop_after {
            if self.next_req > limit {
                return;
            }
        }
        self.issue(api);
        let keep = self.stop_after.map(|l| self.next_req <= l).unwrap_or(true);
        if keep {
            self.arm(api);
        }
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        // A reply: express header echoes the request id.
        let mut s = self.stats.borrow_mut();
        s.received += 1;
        s.bytes_received += msg.total_len();
        s.last_recv = api.now();
        s.integrity.check(msg);
        if let Some((req_id, _)) = msg.fragments.first().and_then(|(_, d)| decode_header(d)) {
            if let Some(at) = self.pending.remove(&req_id) {
                s.rtt_us.record(api.now().since(at).as_micros_f64());
            }
        }
    }
}

impl RpcClient {
    /// Requests still awaiting a reply.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

/// RPC server: replies to every request with a result payload.
pub struct RpcServer {
    result_sizes: SizeDist,
    reply_flows: HashMap<NodeId, (FlowId, u32)>,
    rng: StdRng,
    stats: StatsHandle,
}

impl RpcServer {
    /// Build a server producing results of the given size distribution.
    pub fn new(result_sizes: SizeDist, seed: u64, stream: u64) -> (Self, StatsHandle) {
        let stats = stats_handle();
        (
            RpcServer {
                result_sizes,
                reply_flows: HashMap::new(),
                rng: rng_for(seed, stream),
                stats: stats.clone(),
            },
            stats,
        )
    }
}

impl AppDriver for RpcServer {
    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        {
            let mut s = self.stats.borrow_mut();
            s.received += 1;
            s.bytes_received += msg.total_len();
            s.last_recv = api.now();
            s.integrity.check(msg);
        }
        let Some((req_id, method)) = msg.fragments.first().and_then(|(_, d)| decode_header(d))
        else {
            return;
        };
        let (flow, next_seq) = {
            let entry = self
                .reply_flows
                .entry(msg.src)
                .or_insert_with(|| (api.open_flow(msg.src, TrafficClass::DEFAULT), 0));
            let r = (entry.0, entry.1);
            entry.1 += 1;
            r
        };
        let result = pattern(flow.0, next_seq, 1, self.result_sizes.sample(&mut self.rng));
        let parts = MessageBuilder::new()
            .pack(&encode_header(req_id, method), PackMode::Express)
            .pack(&result, PackMode::Cheaper)
            .build_parts();
        let bytes: u64 = parts.iter().map(|p| p.data.len() as u64).sum();
        api.send(flow, parts);
        let mut s = self.stats.borrow_mut();
        s.sent += 1;
        s.bytes_sent += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madeleine::harness::{Cluster, ClusterSpec};
    use simnet::SimDuration;

    #[test]
    fn request_reply_roundtrips_with_rtt() {
        let spec = ClusterSpec::mx_pair();
        let (client, cstats) = RpcClient::new(
            NodeId(1),
            Arrival::Poisson(SimDuration::from_micros(20)),
            SizeDist::Fixed(256),
            Some(40),
            5,
            0,
        );
        let (server, sstats) = RpcServer::new(SizeDist::Fixed(512), 5, 1);
        let mut c = Cluster::build(&spec, vec![Some(Box::new(client)), Some(Box::new(server))]);
        c.drain();
        let cs = cstats.borrow();
        let ss = sstats.borrow();
        assert_eq!(cs.sent, 40);
        assert_eq!(ss.received, 40);
        assert_eq!(cs.received, 40, "every request answered");
        assert_eq!(cs.rtt_us.count(), 40, "every reply matched");
        assert!(cs.rtt_us.mean() > 0.0);
        assert!(cs.integrity.all_ok(), "{:?}", cs.integrity.failures);
        assert!(ss.integrity.all_ok(), "{:?}", ss.integrity.failures);
    }

    #[test]
    fn header_codec_roundtrip() {
        let h = encode_header(0xDEAD_BEEF_0000_0001, 42);
        assert_eq!(decode_header(&h), Some((0xDEAD_BEEF_0000_0001, 42)));
        assert_eq!(decode_header(&h[..8]), None);
    }
}

//! One-sided put/get (remote memory access) middleware.
//!
//! §1–2 of the paper list "remote memory access protocols" among the
//! mechanisms a communication library must juggle, and reserve a traffic
//! class for "put/get transfers". This module provides that middleware as
//! a library over the engine's messaging API: windows of remotely
//! accessible memory, `put` (one-sided write, fire-and-forget with local
//! completion), and `get` (one-sided read, request/reply). All transfers
//! travel in the [`TrafficClass::PUT_GET`] class so the scheduler can
//! steer them (E6/E8).
//!
//! Wire format (express header, little-endian):
//! `op:u8, window:u32, offset:u64, len:u32, req:u64` followed by a cheaper
//! data fragment for PUT and GET-REPLY.

use std::collections::HashMap;

use madeleine::api::{AppDriver, CommApi};
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::message::{DeliveredMessage, MessageBuilder, PackMode};
use simnet::{NodeId, SimTime, Summary};

/// Operation codes.
const OP_PUT: u8 = 1;
const OP_GET_REQ: u8 = 2;
const OP_GET_REPLY: u8 = 3;

/// Size of the RMA express header.
pub const RMA_HEADER_BYTES: usize = 1 + 4 + 8 + 4 + 8;

/// A window of remotely accessible memory on the local node.
#[derive(Clone, Debug)]
pub struct Window {
    /// Window id (chosen at registration; must be unique per node).
    pub id: u32,
    /// Backing storage.
    pub data: Vec<u8>,
}

fn encode_header(op: u8, window: u32, offset: u64, len: u32, req: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(RMA_HEADER_BYTES);
    h.push(op);
    h.extend_from_slice(&window.to_le_bytes());
    h.extend_from_slice(&offset.to_le_bytes());
    h.extend_from_slice(&len.to_le_bytes());
    h.extend_from_slice(&req.to_le_bytes());
    h
}

fn decode_header(b: &[u8]) -> Option<(u8, u32, u64, u32, u64)> {
    if b.len() < RMA_HEADER_BYTES {
        return None;
    }
    Some((
        b[0],
        u32::from_le_bytes(b[1..5].try_into().ok()?),
        u64::from_le_bytes(b[5..13].try_into().ok()?),
        u32::from_le_bytes(b[13..17].try_into().ok()?),
        u64::from_le_bytes(b[17..25].try_into().ok()?),
    ))
}

/// Statistics of an RMA agent, shared for external inspection.
#[derive(Debug, Default)]
pub struct RmaStats {
    /// Puts issued locally.
    pub puts_issued: u64,
    /// Put bytes written into local windows by remote peers.
    pub bytes_put_into_us: u64,
    /// Gets issued locally.
    pub gets_issued: u64,
    /// Gets completed (reply received and matched).
    pub gets_completed: u64,
    /// Get round-trip times (µs).
    pub get_rtt_us: Summary,
    /// Malformed or out-of-bounds operations rejected.
    pub faults: u64,
}

/// Shared handle to [`RmaStats`].
pub type RmaStatsHandle = std::rc::Rc<std::cell::RefCell<RmaStats>>;

/// Completion callback for a `get`.
pub type GetCompletion = Box<dyn FnMut(&[u8])>;

/// The per-node RMA agent: owns local windows, serves remote operations,
/// and issues one-sided operations toward peers.
///
/// Drive it as (part of) a node's [`AppDriver`]; applications typically
/// embed it and forward `on_message`.
pub struct RmaAgent {
    windows: HashMap<u32, Window>,
    flows: HashMap<NodeId, FlowId>,
    pending_gets: HashMap<u64, (SimTime, GetCompletion)>,
    next_req: u64,
    stats: RmaStatsHandle,
}

impl RmaAgent {
    /// New agent with no windows.
    pub fn new() -> (Self, RmaStatsHandle) {
        let stats = RmaStatsHandle::default();
        (
            RmaAgent {
                windows: HashMap::new(),
                flows: HashMap::new(),
                pending_gets: HashMap::new(),
                next_req: 1,
                stats: stats.clone(),
            },
            stats,
        )
    }

    /// Register (expose) a window of `len` zero bytes under `id`.
    ///
    /// # Panics
    /// Panics if the id is already registered.
    pub fn register_window(&mut self, id: u32, len: usize) {
        let prev = self.windows.insert(
            id,
            Window {
                id,
                data: vec![0; len],
            },
        );
        assert!(prev.is_none(), "window {id} already registered");
    }

    /// Read a local window (e.g. to verify what peers put).
    pub fn window(&self, id: u32) -> Option<&[u8]> {
        self.windows.get(&id).map(|w| w.data.as_slice())
    }

    fn flow_to(&mut self, api: &mut dyn CommApi, peer: NodeId) -> FlowId {
        *self
            .flows
            .entry(peer)
            .or_insert_with(|| api.open_flow(peer, TrafficClass::PUT_GET))
    }

    /// One-sided write: copy `data` into `(window, offset)` at `peer`.
    /// Returns immediately; remote completion is implicit (ordered flows).
    pub fn put(
        &mut self,
        api: &mut dyn CommApi,
        peer: NodeId,
        window: u32,
        offset: u64,
        data: &[u8],
    ) {
        let flow = self.flow_to(api, peer);
        let hdr = encode_header(OP_PUT, window, offset, data.len() as u32, 0);
        api.send(
            flow,
            MessageBuilder::new()
                .pack(&hdr, PackMode::Express)
                .pack(data, PackMode::Cheaper)
                .build_parts(),
        );
        self.stats.borrow_mut().puts_issued += 1;
    }

    /// One-sided read: fetch `len` bytes from `(window, offset)` at `peer`;
    /// `done` runs with the data when the reply arrives.
    pub fn get(
        &mut self,
        api: &mut dyn CommApi,
        peer: NodeId,
        window: u32,
        offset: u64,
        len: u32,
        done: GetCompletion,
    ) {
        let flow = self.flow_to(api, peer);
        let req = self.next_req;
        self.next_req += 1;
        let hdr = encode_header(OP_GET_REQ, window, offset, len, req);
        api.send(
            flow,
            MessageBuilder::new()
                .pack(&hdr, PackMode::Express)
                .build_parts(),
        );
        self.pending_gets.insert(req, (api.now(), done));
        self.stats.borrow_mut().gets_issued += 1;
    }

    /// Feed a delivered message to the agent. Returns `true` if it was an
    /// RMA message (consumed), `false` if the caller should handle it.
    pub fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) -> bool {
        let Some((_, hdr)) = msg.fragments.first() else {
            return false;
        };
        let Some((op, window, offset, len, req)) = decode_header(hdr) else {
            return false;
        };
        match op {
            OP_PUT => {
                let Some(w) = self.windows.get_mut(&window) else {
                    self.stats.borrow_mut().faults += 1;
                    return true;
                };
                let Some((_, data)) = msg.fragments.get(1) else {
                    self.stats.borrow_mut().faults += 1;
                    return true;
                };
                let end = offset as usize + data.len();
                if data.len() != len as usize || end > w.data.len() {
                    self.stats.borrow_mut().faults += 1;
                    return true;
                }
                w.data[offset as usize..end].copy_from_slice(data);
                self.stats.borrow_mut().bytes_put_into_us += data.len() as u64;
                true
            }
            OP_GET_REQ => {
                let reply = {
                    let Some(w) = self.windows.get(&window) else {
                        self.stats.borrow_mut().faults += 1;
                        return true;
                    };
                    let end = offset as usize + len as usize;
                    if end > w.data.len() {
                        self.stats.borrow_mut().faults += 1;
                        return true;
                    }
                    w.data[offset as usize..end].to_vec()
                };
                let flow = self.flow_to(api, msg.src);
                let hdr = encode_header(OP_GET_REPLY, window, offset, len, req);
                api.send(
                    flow,
                    MessageBuilder::new()
                        .pack(&hdr, PackMode::Express)
                        .pack(&reply, PackMode::Cheaper)
                        .build_parts(),
                );
                true
            }
            OP_GET_REPLY => {
                if let Some((at, mut done)) = self.pending_gets.remove(&req) {
                    let data = msg.fragments.get(1).map(|(_, d)| &d[..]).unwrap_or(&[]);
                    done(data);
                    let mut s = self.stats.borrow_mut();
                    s.gets_completed += 1;
                    s.get_rtt_us.record(api.now().since(at).as_micros_f64());
                } else {
                    self.stats.borrow_mut().faults += 1;
                }
                true
            }
            _ => false,
        }
    }
}

/// A standalone [`AppDriver`] exposing windows and serving RMA traffic
/// (for nodes that are pure RMA targets).
pub struct RmaServer {
    /// The embedded agent.
    pub agent: RmaAgent,
    window_specs: Vec<(u32, usize)>,
}

impl RmaServer {
    /// Server exposing the given `(window id, len)` windows.
    pub fn new(windows: Vec<(u32, usize)>) -> (Self, RmaStatsHandle) {
        let (agent, stats) = RmaAgent::new();
        (
            RmaServer {
                agent,
                window_specs: windows,
            },
            stats,
        )
    }
}

impl AppDriver for RmaServer {
    fn on_start(&mut self, _api: &mut dyn CommApi) {
        for &(id, len) in &self.window_specs {
            self.agent.register_window(id, len);
        }
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        self.agent.on_message(api, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::pattern;
    use madeleine::harness::{Cluster, ClusterSpec};
    use simnet::Technology;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Client app issuing a scripted sequence of puts and gets.
    struct RmaClient {
        agent: RmaAgent,
        server: NodeId,
        got: Rc<RefCell<Vec<Vec<u8>>>>,
    }

    impl AppDriver for RmaClient {
        fn on_start(&mut self, api: &mut dyn CommApi) {
            // Three puts at distinct offsets, then gets reading them back.
            for k in 0..3u64 {
                let data = pattern(7, k as u32, 0, 100);
                self.agent.put(api, self.server, 1, k * 100, &data);
            }
            for k in 0..3u64 {
                let sink = self.got.clone();
                self.agent.get(
                    api,
                    self.server,
                    1,
                    k * 100,
                    100,
                    Box::new(move |d| sink.borrow_mut().push(d.to_vec())),
                );
            }
        }
        fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
            assert!(
                self.agent.on_message(api, msg),
                "unexpected non-RMA message"
            );
        }
    }

    #[test]
    fn put_then_get_roundtrip() {
        // QuadricsElan is the RDMA-capable rail.
        let spec = ClusterSpec::new(2, vec![Technology::QuadricsElan]);
        let got = Rc::new(RefCell::new(Vec::new()));
        let (client_agent, cstats) = RmaAgent::new();
        let client = RmaClient {
            agent: client_agent,
            server: NodeId(1),
            got: got.clone(),
        };
        let (server, sstats) = RmaServer::new(vec![(1, 1024)]);
        let mut c = Cluster::build(&spec, vec![Some(Box::new(client)), Some(Box::new(server))]);
        c.drain();
        let cs = cstats.borrow();
        assert_eq!(cs.puts_issued, 3);
        assert_eq!(cs.gets_issued, 3);
        assert_eq!(cs.gets_completed, 3);
        assert!(cs.get_rtt_us.mean() > 0.0);
        assert_eq!(sstats.borrow().bytes_put_into_us, 300);
        assert_eq!(sstats.borrow().faults, 0);
        // Flows are ordered: the gets observe the puts.
        let got = got.borrow();
        assert_eq!(got.len(), 3);
        for (k, data) in got.iter().enumerate() {
            assert_eq!(&data[..], &pattern(7, k as u32, 0, 100)[..], "get {k}");
        }
    }

    #[test]
    fn out_of_bounds_operations_fault_cleanly() {
        struct BadClient {
            agent: RmaAgent,
            server: NodeId,
        }
        impl AppDriver for BadClient {
            fn on_start(&mut self, api: &mut dyn CommApi) {
                self.agent
                    .put(api, self.server, 1, 1020, &[1, 2, 3, 4, 5, 6, 7, 8]);
                self.agent.put(api, self.server, 99, 0, &[1]); // no such window
                self.agent.get(
                    api,
                    self.server,
                    1,
                    2000,
                    64,
                    Box::new(|_| panic!("out-of-bounds get must not complete")),
                );
            }
            fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
                self.agent.on_message(api, msg);
            }
        }
        let spec = ClusterSpec::new(2, vec![Technology::QuadricsElan]);
        let (agent, _c) = RmaAgent::new();
        let (server, sstats) = RmaServer::new(vec![(1, 1024)]);
        let mut c = Cluster::build(
            &spec,
            vec![
                Some(Box::new(BadClient {
                    agent,
                    server: NodeId(1),
                })),
                Some(Box::new(server)),
            ],
        );
        c.drain();
        assert_eq!(sstats.borrow().faults, 3);
        assert_eq!(sstats.borrow().bytes_put_into_us, 0);
    }

    #[test]
    fn header_codec_roundtrip() {
        let h = encode_header(OP_GET_REQ, 5, 1 << 40, 4096, 77);
        assert_eq!(decode_header(&h), Some((OP_GET_REQ, 5, 1 << 40, 4096, 77)));
        assert_eq!(decode_header(&h[..10]), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_window_registration_panics() {
        let (mut a, _) = RmaAgent::new();
        a.register_window(1, 10);
        a.register_window(1, 10);
    }
}

//! The baseline: a faithful model of the *previous* Madeleine engine the
//! paper improves upon (§2).
//!
//! Characteristics reproduced:
//!
//! * **application-triggered**: packets are built and submitted at `send`
//!   time, synchronously, not when a NIC reports idle;
//! * **deterministic flow manipulation**: aggregation happens only among
//!   consecutive eager fragments of *the same message* — never across
//!   messages, never across flows ("its design was limited to deterministic
//!   flow manipulations ... not designed to perform cross-flow
//!   optimization");
//! * **one-to-one mapping**: each flow is statically bound to one rail at
//!   `open_flow` time (round robin), the mapping never changes;
//! * same wire protocol, same rendezvous handshake, same receiver — so any
//!   performance difference against [`crate::engine::MadEngine`] is due to
//!   *scheduling*, not protocol or encoding differences.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use nicdrv::{admitted_modes, TransferRequest};
use simnet::{Endpoint, NicId, NodeId, SimCtx, SimTime, TimerId, WirePacket};

use crate::api::{AppDriver, CommApi, INTERNAL_TAG_BASE};
use crate::collect::flow_id_for_index;
use crate::config::EngineConfig;
use crate::ids::{FlowId, MsgId, MsgSeq, TrafficClass};
use crate::message::{DeliveredMessage, Fragment, PackMode};
use crate::metrics::{Activation, EngineMetrics};
use crate::proto::{
    decode_packet, decode_rndv, encode_packet, encode_rndv, make_header, ChunkHeader, Framing,
    WireChunk, KIND_DATA, KIND_RNDV_ACK, KIND_RNDV_REQ,
};
use crate::receiver::{DeliveredRing, Receiver, ReceiverStats};
use crate::transfer::{assert_reachable, rail_of, Rail};

/// A packet fully built at submission time, waiting in a rail's software
/// queue for hardware space.
struct PreparedPacket {
    dst: NodeId,
    vchan: u8,
    kind: u16,
    segments: Vec<Bytes>,
    chunk_count: usize,
    linearized: bool,
    host_prep: simnet::SimDuration,
}

struct LegacyFlow {
    dst: NodeId,
    class: TrafficClass,
    rail: usize,
    next_seq: u32,
}

/// Shared state of the legacy engine.
pub struct LegacyCore {
    node: NodeId,
    config: EngineConfig,
    rails: Vec<Rail>,
    /// Per-rail software queues of prepared packets.
    queues: Vec<VecDeque<PreparedPacket>>,
    flows: Vec<LegacyFlow>,
    next_rail_rr: usize,
    /// Fragments awaiting a rendezvous grant, keyed by (flow, seq, frag).
    rndv_waiting: HashMap<(u32, u32, u16), (Bytes, ChunkHeader)>,
    /// Receive side (identical to the optimizer's).
    pub receiver: Receiver,
    /// Counters (subset of fields are meaningful for the legacy engine).
    pub metrics: EngineMetrics,
    /// Delivered messages (when `config.record_deliveries`).
    pub delivered: DeliveredRing,
}

impl LegacyCore {
    fn rndv_threshold(&self, rail: usize) -> u64 {
        self.config
            .rndv_threshold
            .unwrap_or(self.rails[rail].driver.capabilities().rndv_threshold_hint)
    }

    fn open_flow(&mut self, dst: NodeId, class: TrafficClass) -> FlowId {
        assert_reachable(&self.rails, dst, self.node);
        let id = FlowId(flow_id_for_index(self.flows.len()));
        let rail = self.next_rail_rr % self.rails.len();
        self.next_rail_rr += 1;
        self.flows.push(LegacyFlow {
            dst,
            class,
            rail,
            next_seq: 0,
        });
        id
    }

    /// Build every packet of the message immediately (application-triggered
    /// processing) and push them onto the flow's statically-assigned rail.
    fn send(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId, parts: Vec<Fragment>) -> MsgId {
        assert!(!parts.is_empty(), "message must have at least one fragment");
        let f = &mut self.flows[flow.0 as usize];
        let seq = f.next_seq;
        f.next_seq += 1;
        let (dst, class, rail_idx) = (f.dst, f.class, f.rail);
        let id = MsgId {
            flow,
            seq: MsgSeq(seq),
        };
        let now = ctx.now();
        self.metrics.submitted_msgs += 1;
        self.metrics.submitted_bytes += parts.iter().map(|p| p.data.len() as u64).sum::<u64>();
        self.metrics.record_activation(Activation::Submit);

        let threshold = self.rndv_threshold(rail_idx);
        let frag_count = parts.len() as u16;
        let caps = self.rails[rail_idx].driver.capabilities().clone();
        let cost = self.rails[rail_idx].driver.cost_model().clone();
        let packet_limit = self.rails[rail_idx].wire_mtu.min(caps.max_packet_bytes);
        let vchan = self.rails[rail_idx].classmap.vchan_for(class);

        // Within-message aggregation: greedily merge consecutive eager
        // fragments; flush on rendezvous fragments and size limits.
        let mut pending: Vec<WireChunk> = Vec::new();
        let mut pending_bytes = 0u64;
        let mut framing = Framing::new();
        let mut packets: Vec<PreparedPacket> = Vec::new();
        let flush = |pending: &mut Vec<WireChunk>,
                     pending_bytes: &mut u64,
                     framing: &mut Framing,
                     packets: &mut Vec<PreparedPacket>| {
            if pending.is_empty() {
                return;
            }
            let total = *pending_bytes + framing.bytes();
            let segs = 1 + pending.len();
            let linearized = admitted_modes(&caps, total, segs).next().is_none();
            let host_prep = if linearized {
                cost.copy_time(total)
            } else {
                simnet::SimDuration::ZERO
            };
            packets.push(PreparedPacket {
                dst,
                vchan,
                kind: KIND_DATA,
                segments: encode_packet(pending, linearized),
                chunk_count: pending.len(),
                linearized,
                host_prep,
            });
            pending.clear();
            *pending_bytes = 0;
            *framing = Framing::new();
        };

        for frag in &parts {
            let header_base = |offset: u32, chunk_len: u32| {
                make_header(
                    flow,
                    seq,
                    frag.index,
                    frag_count,
                    frag.mode == PackMode::Express,
                    class,
                    frag.data.len() as u32,
                    offset,
                    chunk_len,
                    now,
                )
            };
            if (frag.data.len() as u64) >= threshold {
                // Rendezvous: flush what we have, then negotiate.
                flush(&mut pending, &mut pending_bytes, &mut framing, &mut packets);
                let h = header_base(0, 0);
                self.rndv_waiting
                    .insert((flow.0, seq, frag.index), (frag.data.clone(), h));
                packets.push(PreparedPacket {
                    dst,
                    vchan: self.rails[rail_idx].classmap.control(),
                    kind: KIND_RNDV_REQ,
                    segments: encode_rndv(h),
                    chunk_count: 0,
                    linearized: true,
                    host_prep: simnet::SimDuration::ZERO,
                });
                self.metrics.rndv_requests += 1;
                continue;
            }
            // Eager: chunk to the packet limit, merging small pieces.
            let mut offset = 0u32;
            let len = frag.data.len() as u32;
            loop {
                let room = packet_limit.saturating_sub(pending_bytes + framing.bytes());
                let mut header = header_base(offset, len - offset);
                if !framing.take(&mut header, room) {
                    flush(&mut pending, &mut pending_bytes, &mut framing, &mut packets);
                    continue;
                }
                let take = header.chunk_len;
                pending.push(WireChunk {
                    header,
                    data: frag.data.slice(offset as usize..(offset + take) as usize),
                });
                pending_bytes += take as u64;
                offset += take;
                if offset >= len {
                    break;
                }
                // Fragment continues: current packet is full.
                flush(&mut pending, &mut pending_bytes, &mut framing, &mut packets);
            }
        }
        flush(&mut pending, &mut pending_bytes, &mut framing, &mut packets);

        self.queues[rail_idx].extend(packets);
        self.pump(ctx, rail_idx);
        id
    }

    /// Drain a rail's software queue into the hardware queue.
    fn pump(&mut self, ctx: &mut SimCtx<'_>, rail_idx: usize) {
        loop {
            let rail = &self.rails[rail_idx];
            let queue = &mut self.queues[rail_idx];
            if rail.driver.free_slots(ctx) == 0 {
                break;
            }
            let Some(pkt) = queue.pop_front() else {
                break;
            };
            let Some(dst_nic) = rail.peer_nic(pkt.dst) else {
                debug_assert!(false, "unknown peer {:?}", pkt.dst);
                continue;
            };
            let req = TransferRequest {
                dst_nic,
                vchan: pkt.vchan,
                kind: pkt.kind,
                cookie: 0,
                host_prep: pkt.host_prep,
                segments: pkt.segments.clone(),
            };
            match rail.driver.submit(ctx, req) {
                Ok(_) => {
                    if pkt.kind == KIND_DATA {
                        self.metrics.record_packet(pkt.chunk_count, pkt.linearized);
                    }
                }
                Err(nicdrv::DriverError::Nic(simnet::SubmitError::QueueFull)) => {
                    queue.push_front(pkt);
                    break;
                }
                Err(e) => {
                    self.metrics.driver_rejections += 1;
                    debug_assert!(false, "legacy driver rejection: {e}");
                }
            }
        }
    }

    fn handle_packet(
        &mut self,
        ctx: &mut SimCtx<'_>,
        nic: NicId,
        pkt: WirePacket,
    ) -> Vec<DeliveredMessage> {
        // A packet from a node that is no peer on the rail it arrived on is
        // a protocol error: nothing of it is delivered or answered.
        let rails = &self.rails;
        let Some(rail_idx) = rail_of(rails, nic).filter(|&r| rails[r].reaches(pkt.src)) else {
            self.metrics.proto_errors += 1;
            return Vec::new();
        };
        match pkt.kind {
            KIND_DATA => {
                self.receiver.record_vchan(pkt.vchan);
                let chunks = match decode_packet(&pkt) {
                    Ok(c) => c,
                    Err(_) => {
                        self.metrics.proto_errors += 1;
                        return Vec::new();
                    }
                };
                let mut out = Vec::new();
                let refused = self.receiver.stats.proto_errors;
                for ch in &chunks {
                    out.extend(self.receiver.on_chunk(pkt.src, ch, ctx.now()));
                }
                self.receiver.end_packet();
                self.metrics.express_violations = self.receiver.stats.express_violations;
                self.metrics.proto_errors += self.receiver.stats.proto_errors - refused;
                for d in &out {
                    self.metrics.record_delivery_from(
                        d.src,
                        d.class,
                        d.flow,
                        Some(rail_idx),
                        d.total_len(),
                        d.latency,
                    );
                }
                if self.config.record_deliveries {
                    self.metrics.deliveries_dropped += self.delivered.extend(&out);
                }
                out
            }
            KIND_RNDV_REQ => {
                if let Ok(header) = decode_rndv(&pkt) {
                    self.queues[rail_idx].push_back(PreparedPacket {
                        dst: pkt.src,
                        vchan: self.rails[rail_idx].classmap.control(),
                        kind: KIND_RNDV_ACK,
                        segments: encode_rndv(header),
                        chunk_count: 0,
                        linearized: true,
                        host_prep: simnet::SimDuration::ZERO,
                    });
                    self.pump(ctx, rail_idx);
                }
                Vec::new()
            }
            KIND_RNDV_ACK => {
                if let Ok(header) = decode_rndv(&pkt) {
                    let key = (header.flow.0, header.msg_seq, header.frag_index);
                    if let Some((data, base)) = self.rndv_waiting.remove(&key) {
                        self.metrics.rndv_grants += 1;
                        let rail_idx = self.flows[header.flow.0 as usize].rail;
                        let dst = self.flows[header.flow.0 as usize].dst;
                        let vchan = self.rails[rail_idx]
                            .classmap
                            .vchan_for(self.flows[header.flow.0 as usize].class);
                        let limit = self.rails[rail_idx]
                            .wire_mtu
                            .min(self.rails[rail_idx].driver.capabilities().max_packet_bytes);
                        let mut offset = 0u32;
                        let len = data.len() as u32;
                        while offset < len {
                            let mut h = ChunkHeader {
                                offset,
                                chunk_len: len - offset,
                                ..base
                            };
                            if !Framing::take_alone(&mut h, limit) {
                                h.chunk_len = 1;
                            }
                            let take = h.chunk_len;
                            let chunk = WireChunk {
                                header: h,
                                data: data.slice(offset as usize..(offset + take) as usize),
                            };
                            self.queues[rail_idx].push_back(PreparedPacket {
                                dst,
                                vchan,
                                kind: KIND_DATA,
                                segments: encode_packet(std::slice::from_ref(&chunk), false),
                                chunk_count: 1,
                                linearized: false,
                                host_prep: simnet::SimDuration::ZERO,
                            });
                            offset += take;
                        }
                        self.pump(ctx, rail_idx);
                    }
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }
}

/// The legacy engine as a node endpoint.
pub struct LegacyEngine {
    core: Rc<RefCell<LegacyCore>>,
    app: Option<Box<dyn AppDriver>>,
}

/// Handle onto a legacy engine.
#[derive(Clone)]
pub struct LegacyHandle {
    core: Rc<RefCell<LegacyCore>>,
}

/// [`CommApi`] view for legacy-engine applications.
pub struct LegacyApi<'a, 'b> {
    core: &'a mut LegacyCore,
    ctx: &'a mut SimCtx<'b>,
}

impl CommApi for LegacyApi<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn node(&self) -> NodeId {
        self.core.node
    }

    fn open_flow(&mut self, dst: NodeId, class: TrafficClass) -> FlowId {
        self.core.open_flow(dst, class)
    }

    fn send(&mut self, flow: FlowId, parts: Vec<Fragment>) -> MsgId {
        self.core.send(self.ctx, flow, parts)
    }

    fn set_timer(&mut self, delay: simnet::SimDuration, tag: u64) {
        assert!(tag < INTERNAL_TAG_BASE, "timer tags >= 2^62 are reserved");
        self.ctx.set_timer(delay, tag);
    }

    fn flush(&mut self) {
        for r in 0..self.core.rails.len() {
            self.core.pump(self.ctx, r);
        }
    }
}

impl LegacyEngine {
    /// The engine and its handle over already-assembled rails
    /// ([`crate::engine::EngineBuilder::build_legacy`]). Of `config`
    /// only `rndv_threshold` and `record_deliveries` are
    /// meaningful for the legacy engine.
    pub(crate) fn assemble(
        node: NodeId,
        config: EngineConfig,
        rails: Vec<Rail>,
        app: Option<Box<dyn AppDriver>>,
    ) -> (LegacyEngine, LegacyHandle) {
        let core = Rc::new(RefCell::new(LegacyCore {
            node,
            config,
            queues: (0..rails.len()).map(|_| VecDeque::new()).collect(),
            rails,
            flows: Vec::new(),
            next_rail_rr: 0,
            rndv_waiting: HashMap::new(),
            receiver: Receiver::new(),
            metrics: EngineMetrics::default(),
            delivered: DeliveredRing::default(),
        }));
        let handle = LegacyHandle { core: core.clone() };
        (LegacyEngine { core, app }, handle)
    }

    fn with_app(
        &mut self,
        ctx: &mut SimCtx<'_>,
        f: impl FnOnce(&mut dyn AppDriver, &mut LegacyApi<'_, '_>),
    ) {
        if let Some(mut app) = self.app.take() {
            {
                let mut core = self.core.borrow_mut();
                let mut api = LegacyApi {
                    core: &mut core,
                    ctx,
                };
                f(app.as_mut(), &mut api);
            }
            self.app = Some(app);
        }
    }
}

impl Endpoint for LegacyEngine {
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
        self.with_app(ctx, |app, api| app.on_start(api));
    }

    fn on_tx_done(&mut self, ctx: &mut SimCtx<'_>, nic: NicId, _cookie: u64) {
        let mut core = self.core.borrow_mut();
        if let Some(rail) = rail_of(&core.rails, nic) {
            core.pump(ctx, rail);
        }
    }

    fn on_packet_rx(&mut self, ctx: &mut SimCtx<'_>, nic: NicId, pkt: WirePacket) {
        let deliveries = self.core.borrow_mut().handle_packet(ctx, nic, pkt);
        if deliveries.is_empty() {
            return;
        }
        self.with_app(ctx, |app, api| {
            for d in &deliveries {
                app.on_message(api, d);
            }
        });
    }

    fn on_timer(&mut self, ctx: &mut SimCtx<'_>, _timer: TimerId, tag: u64) {
        self.with_app(ctx, |app, api| app.on_timer(api, tag));
    }
}

impl LegacyHandle {
    /// The node this engine runs on.
    pub fn node(&self) -> NodeId {
        self.core.borrow().node
    }

    /// Snapshot of metrics.
    pub fn metrics(&self) -> EngineMetrics {
        self.core.borrow().metrics.clone()
    }

    /// Snapshot of receive-side statistics.
    pub fn receiver_stats(&self) -> ReceiverStats {
        self.core.borrow().receiver.stats.clone()
    }

    /// Drain recorded deliveries.
    pub fn take_delivered(&self) -> Vec<DeliveredMessage> {
        self.core.borrow_mut().delivered.drain()
    }

    /// Messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.core.borrow().metrics.delivered_msgs
    }

    /// Open a flow (statically bound to a rail, round robin).
    pub fn open_flow(&self, dst: NodeId, class: TrafficClass) -> FlowId {
        self.core.borrow_mut().open_flow(dst, class)
    }

    /// Submit a message from outside the event loop.
    pub fn send(&self, ctx: &mut SimCtx<'_>, flow: FlowId, parts: Vec<Fragment>) -> MsgId {
        self.core.borrow_mut().send(ctx, flow, parts)
    }

    /// Payload bytes waiting in the per-rail software queues.
    pub fn queued_bytes(&self) -> u64 {
        self.core
            .borrow()
            .queues
            .iter()
            .flatten()
            .map(|p| p.segments.iter().map(|s| s.len() as u64).sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MadEngine;
    use crate::message::MessageBuilder;
    use nicdrv::SimDriver;
    use simnet::{NetworkParams, Simulation};

    fn cluster() -> (Simulation, LegacyHandle, LegacyHandle, NodeId, NodeId) {
        let mut sim = Simulation::new();
        let net = sim.add_network(NetworkParams::synthetic());
        let a = sim.add_node();
        let b = sim.add_node();
        let na = sim.add_nic(a, net);
        let nb = sim.add_nic(b, net);
        let caps = nicdrv::calib::synthetic_capabilities();
        let cost = nicdrv::CostModel::from_params(sim.network_params(net));
        let mk = |node, nic, peer_node, peer_nic: NicId| {
            MadEngine::builder(node)
                .rail(SimDriver::new(nic, caps.clone(), cost.clone()), 1 << 20)
                .peer(peer_node, vec![peer_nic])
                .build_legacy()
                .unwrap()
        };
        let (ea, ha) = mk(a, na, b, nb);
        let (eb, hb) = mk(b, nb, a, na);
        sim.set_endpoint(a, Box::new(ea));
        sim.set_endpoint(b, Box::new(eb));
        (sim, ha, hb, a, b)
    }

    #[test]
    fn roundtrip_message_delivery() {
        let (mut sim, ha, hb, a, b) = cluster();
        let f = ha.open_flow(b, TrafficClass::DEFAULT);
        sim.inject(a, |ctx| {
            ha.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_express(b"hdr!")
                    .pack_cheaper(&[9u8; 500])
                    .build_parts(),
            )
        });
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        let got = hb.take_delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].fragments.len(), 2);
        assert_eq!(&got[0].fragments[0].1[..], b"hdr!");
        assert_eq!(got[0].fragments[1].1.len(), 500);
        assert_eq!(hb.receiver_stats().express_violations, 0);
    }

    #[test]
    fn no_cross_message_aggregation() {
        let (mut sim, ha, hb, a, b) = cluster();
        let f = ha.open_flow(b, TrafficClass::DEFAULT);
        sim.inject(a, |ctx| {
            for _ in 0..8 {
                ha.send(
                    ctx,
                    f,
                    MessageBuilder::new().pack_cheaper(&[1u8; 16]).build_parts(),
                );
            }
        });
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        let m = ha.metrics();
        // 8 messages -> 8 packets: the legacy engine never merges messages.
        assert_eq!(m.packets_sent, 8);
        assert!((m.aggregation_ratio() - 1.0).abs() < 1e-9);
        assert_eq!(hb.delivered_count(), 8);
    }

    #[test]
    fn within_message_fragments_do_aggregate() {
        let (mut sim, ha, hb, a, b) = cluster();
        let f = ha.open_flow(b, TrafficClass::DEFAULT);
        sim.inject(a, |ctx| {
            ha.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_cheaper(&[1u8; 16])
                    .pack_cheaper(&[2u8; 16])
                    .pack_cheaper(&[3u8; 16])
                    .build_parts(),
            )
        });
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        let m = ha.metrics();
        assert_eq!(m.packets_sent, 1, "same-message fragments merge");
        assert_eq!(m.chunks_sent, 3);
        assert_eq!(hb.take_delivered()[0].fragments.len(), 3);
    }

    #[test]
    fn rendezvous_roundtrip_for_large_fragments() {
        let (mut sim, ha, hb, a, b) = cluster();
        let f = ha.open_flow(b, TrafficClass::BULK);
        let big = vec![0x5Au8; 200_000];
        sim.inject(a, |ctx| {
            ha.send(
                ctx,
                f,
                MessageBuilder::new().pack_cheaper(&big).build_parts(),
            )
        });
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        let m = ha.metrics();
        assert_eq!(m.rndv_requests, 1);
        assert_eq!(m.rndv_grants, 1);
        let got = hb.take_delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].contiguous(), big);
    }

    #[test]
    fn a_packet_from_a_node_that_is_no_peer_is_a_protocol_error() {
        let (mut sim, _, hb, a, b) = cluster();
        let f = hb.open_flow(a, TrafficClass::DEFAULT);
        let nb = hb.core.borrow().rails[0].driver.nic();
        let chunk = WireChunk {
            header: make_header(
                f,
                0,
                0,
                1,
                false,
                TrafficClass::DEFAULT,
                4,
                0,
                4,
                SimTime::ZERO,
            ),
            data: Bytes::from_static(b"abcd"),
        };
        for (i, src) in [NodeId(5), NodeId(u32::MAX)].into_iter().enumerate() {
            let pkt = WirePacket {
                src,
                dst: b,
                src_nic: NicId(7),
                dst_nic: nb,
                vchan: 0,
                kind: KIND_DATA,
                cookie: 0,
                seq: 0,
                ecn: false,
                payload: encode_packet(std::slice::from_ref(&chunk), false),
            };
            let delivered = sim.inject(b, |ctx| hb.core.borrow_mut().handle_packet(ctx, nb, pkt));
            assert!(delivered.is_empty());
            assert_eq!(hb.metrics().proto_errors, i as u64 + 1);
        }
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        assert_eq!((hb.delivered_count(), hb.queued_bytes()), (0, 0));
    }

    #[test]
    fn flows_statically_bound_round_robin() {
        let mut sim = Simulation::new();
        let net = sim.add_network(NetworkParams::synthetic());
        let a = sim.add_node();
        let b = sim.add_node();
        let na1 = sim.add_nic(a, net);
        let na2 = sim.add_nic(a, net);
        let nb1 = sim.add_nic(b, net);
        let nb2 = sim.add_nic(b, net);
        let caps = nicdrv::calib::synthetic_capabilities();
        let cost = nicdrv::CostModel::from_params(sim.network_params(net));
        let (ea, ha) = MadEngine::builder(a)
            .rail(SimDriver::new(na1, caps.clone(), cost.clone()), 1 << 20)
            .rail(SimDriver::new(na2, caps.clone(), cost.clone()), 1 << 20)
            .peer(b, vec![nb1, nb2])
            .build_legacy()
            .unwrap();
        sim.set_endpoint(a, Box::new(ea));
        let f0 = ha.open_flow(b, TrafficClass::DEFAULT);
        let f1 = ha.open_flow(b, TrafficClass::DEFAULT);
        sim.inject(a, |ctx| {
            ha.send(
                ctx,
                f0,
                MessageBuilder::new().pack_cheaper(&[0; 8]).build_parts(),
            );
            ha.send(
                ctx,
                f1,
                MessageBuilder::new().pack_cheaper(&[1; 8]).build_parts(),
            );
        });
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        // One packet left via each NIC: one-to-one mapping.
        assert_eq!(sim.nic(na1).stats.tx_packets, 1);
        assert_eq!(sim.nic(na2).stats.tx_packets, 1);
    }
}

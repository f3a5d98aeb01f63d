//! The simulation engine: world state, event dispatch, and the [`Endpoint`]
//! trait through which a communication library (the optimizer under study)
//! plugs into the simulated cluster.
//!
//! # Model
//!
//! A [`Simulation`] hosts *nodes*; each node owns one [`Endpoint`] (the
//! software stack) and any number of NICs attached to *networks*. All
//! interaction is via callbacks driven by the event queue:
//!
//! * [`Endpoint::on_start`] — once, at t = 0;
//! * [`Endpoint::on_tx_done`] — a transmit the endpoint submitted completed;
//! * [`Endpoint::on_nic_idle`] — a NIC's transmit engine **drained**: the
//!   activation signal for the paper's optimizer (§3);
//! * [`Endpoint::on_packet_rx`] — a packet was delivered at this node;
//! * [`Endpoint::on_timer`] — a timer the endpoint armed expired (used for
//!   Nagle-style delayed flushes and workload generation).
//!
//! Within a callback the endpoint acts through [`SimCtx`]: submit transmits,
//! arm/cancel timers, query NIC state. All effects are scheduled through the
//! event queue, so runs are deterministic and endpoints never observe
//! partially-applied state.

use std::collections::HashSet;

use crate::event::{EventKind, EventQueue, TimerId};
use crate::fault::{FaultPlan, FaultState};
use crate::link::NetworkParams;
use crate::nic::NicState;
use crate::packet::{SubmitError, TxRequest, WirePacket};
use crate::time::{transfer_time, SimDuration, SimTime};
use crate::topo::{AdmitOutcome, FabricState, Topology};
use crate::trace::{Trace, TraceEvent};

/// Identifies a node (a host in the cluster).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies a NIC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NicId(pub u32);

/// Identifies a network fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetworkId(pub u32);

/// The software stack running on a node. All methods have empty defaults so
/// simple endpoints implement only what they need.
#[allow(unused_variables)]
pub trait Endpoint {
    /// Called once before the first event is processed.
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {}
    /// A transmit submitted by this endpoint finished injection; `cookie`
    /// is the value from the [`TxRequest`].
    fn on_tx_done(&mut self, ctx: &mut SimCtx<'_>, nic: NicId, cookie: u64) {}
    /// The NIC's transmit engine drained (busy → idle transition).
    fn on_nic_idle(&mut self, ctx: &mut SimCtx<'_>, nic: NicId) {}
    /// A packet arrived and completed receive processing at this node.
    fn on_packet_rx(&mut self, ctx: &mut SimCtx<'_>, nic: NicId, pkt: WirePacket) {}
    /// A timer armed via [`SimCtx::set_timer`] expired.
    fn on_timer(&mut self, ctx: &mut SimCtx<'_>, timer: TimerId, tag: u64) {}
}

/// A network fabric instance: parameters plus, when installed, a scripted
/// fault plan and/or a switched topology (madnet).
#[derive(Debug)]
struct NetworkState {
    params: NetworkParams,
    fault: Option<FaultState>,
    fabric: Option<FabricState>,
}

/// Mutable world state shared by the engine and endpoint callbacks.
#[derive(Debug)]
pub(crate) struct World {
    networks: Vec<NetworkState>,
    nics: Vec<NicState>,
    next_timer: u64,
    cancelled_timers: HashSet<TimerId>,
    pub(crate) trace: Trace,
}

impl World {
    fn new() -> Self {
        World {
            networks: Vec::new(),
            nics: Vec::new(),
            next_timer: 0,
            cancelled_timers: HashSet::new(),
            trace: Trace::disabled(),
        }
    }

    fn params_of(&self, nic: NicId) -> &NetworkParams {
        &self.networks[self.nics[nic.0 as usize].network.0 as usize].params
    }

    /// Validate, enqueue and (if the engine is idle) start a transmit.
    fn submit(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue,
        nic_id: NicId,
        req: TxRequest,
    ) -> Result<(), SubmitError> {
        let nic_idx = nic_id.0 as usize;
        if nic_idx >= self.nics.len() {
            return Err(SubmitError::NoSuchNic);
        }
        let dst_idx = req.dst_nic.0 as usize;
        if dst_idx >= self.nics.len() {
            return Err(SubmitError::NoSuchNic);
        }
        if self.nics[dst_idx].network != self.nics[nic_idx].network {
            return Err(SubmitError::Unreachable);
        }
        let net = self.nics[nic_idx].network.0 as usize;
        let (mtu, depth) = {
            let p = &self.networks[net].params;
            (p.mtu, p.tx_queue_depth)
        };
        let bytes = req.payload_len();
        let cookie = req.cookie;
        self.nics[nic_idx].enqueue_tx(req, mtu, depth)?;
        self.trace.push(
            now,
            TraceEvent::TxSubmitted {
                nic: nic_id,
                bytes,
                cookie,
            },
        );
        if !self.nics[nic_idx].tx_busy {
            self.start_tx(now, queue, nic_id);
        }
        Ok(())
    }

    /// Begin injecting the packet at the head of the tx queue.
    fn start_tx(&mut self, now: SimTime, queue: &mut EventQueue, nic_id: NicId) {
        let nic_idx = nic_id.0 as usize;
        let net = self.nics[nic_idx].network.0 as usize;
        let busy = {
            let head = self.nics[nic_idx]
                .tx_queue
                .front()
                .expect("start_tx on empty queue");
            let p = &self.networks[net].params;
            let fixed = p.fixed_tx_cost(head.mode, head.payload.len());
            let wire_bytes = head.payload_len() + p.per_packet_overhead_bytes;
            head.host_prep + fixed + transfer_time(wire_bytes, p.effective_bandwidth(head.mode))
        };
        let nic = &mut self.nics[nic_idx];
        nic.tx_busy = true;
        nic.tx_util.set_busy(now);
        queue.push(now + busy, EventKind::TxEngineDone { nic: nic_id });
    }

    fn set_timer(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue,
        node: NodeId,
        delay: SimDuration,
        tag: u64,
    ) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        queue.push(
            now + delay,
            EventKind::Timer {
                node,
                timer: id,
                tag,
            },
        );
        id
    }
}

/// The endpoint's handle onto the simulation during a callback.
pub struct SimCtx<'a> {
    now: SimTime,
    node: NodeId,
    queue: &'a mut EventQueue,
    world: &'a mut World,
}

impl<'a> SimCtx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this callback belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Submit a transmit request on a local NIC.
    pub fn submit(&mut self, nic: NicId, req: TxRequest) -> Result<(), SubmitError> {
        self.world.submit(self.now, self.queue, nic, req)
    }

    /// NIC state (read-only).
    pub fn nic(&self, nic: NicId) -> &NicState {
        &self.world.nics[nic.0 as usize]
    }

    /// Parameters of the network a NIC is attached to.
    pub fn params_of(&self, nic: NicId) -> &NetworkParams {
        self.world.params_of(nic)
    }

    /// Free slots in a NIC's hardware transmit queue.
    pub fn tx_queue_free(&self, nic: NicId) -> usize {
        let depth = self.params_of(nic).tx_queue_depth;
        self.nic(nic).tx_queue_free(depth)
    }

    /// Arm a one-shot timer; `tag` is echoed in [`Endpoint::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.world
            .set_timer(self.now, self.queue, self.node, delay, tag)
    }

    /// Cancel a pending timer. Cancelling an already-fired or unknown timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.world.cancelled_timers.insert(id);
    }
}

/// A deterministic discrete-event simulation of a cluster.
pub struct Simulation {
    time: SimTime,
    queue: EventQueue,
    world: World,
    endpoints: Vec<Option<Box<dyn Endpoint>>>,
    started: bool,
    events_processed: u64,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Empty simulation at t = 0.
    pub fn new() -> Self {
        Simulation {
            time: SimTime::ZERO,
            queue: EventQueue::new(),
            world: World::new(),
            endpoints: Vec::new(),
            started: false,
            events_processed: 0,
        }
    }

    /// Add a network fabric; returns its id.
    pub fn add_network(&mut self, params: NetworkParams) -> NetworkId {
        let id = NetworkId(self.world.networks.len() as u32);
        self.world.networks.push(NetworkState {
            params,
            fault: None,
            fabric: None,
        });
        id
    }

    /// Install a switched topology (madnet) on a network: NICs attached
    /// afterwards occupy host ports in attachment order, packets are
    /// ECMP-routed through the switch graph, and links apply max-min
    /// fair bandwidth sharing, bounded queues and ECN marking.
    ///
    /// # Panics
    /// Panics for an unknown network or when NICs are already attached
    /// (port assignment happens at attach time).
    pub fn install_topology(&mut self, net: NetworkId, topo: Topology) {
        let idx = net.0 as usize;
        assert!(idx < self.world.networks.len(), "unknown network");
        assert!(
            self.world.nics.iter().all(|n| n.network != net),
            "install_topology must run before NICs attach to the network"
        );
        self.world.networks[idx].fabric = Some(FabricState::new(topo));
    }

    /// Runtime fabric state of a network, when a topology is installed.
    pub fn fabric(&self, net: NetworkId) -> Option<&FabricState> {
        self.world.networks[net.0 as usize].fabric.as_ref()
    }

    /// Install (or replace) a deterministic [`FaultPlan`] on a network. The
    /// plan's own seed drives a private RNG stream.
    pub fn set_fault_plan(&mut self, net: NetworkId, plan: FaultPlan) {
        self.world.networks[net.0 as usize].fault = Some(FaultState::new(plan));
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.endpoints.len() as u32);
        self.endpoints.push(None);
        id
    }

    /// Attach a NIC on `network` to `node`; returns the NIC id.
    pub fn add_nic(&mut self, node: NodeId, network: NetworkId) -> NicId {
        assert!(
            (network.0 as usize) < self.world.networks.len(),
            "unknown network"
        );
        assert!((node.0 as usize) < self.endpoints.len(), "unknown node");
        let id = NicId(self.world.nics.len() as u32);
        if let Some(fabric) = self.world.networks[network.0 as usize].fabric.as_mut() {
            fabric
                .assign_port(id)
                .expect("topology has no free host port for this NIC");
        }
        self.world.nics.push(NicState::new(id, node, network));
        id
    }

    /// Install the software stack for a node (replaces any previous one).
    pub fn set_endpoint(&mut self, node: NodeId, ep: Box<dyn Endpoint>) {
        self.endpoints[node.0 as usize] = Some(ep);
    }

    /// Enable activity tracing, retaining the most recent `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.world.trace = Trace::with_capacity(capacity);
    }

    /// The activity trace.
    pub fn trace(&self) -> &Trace {
        &self.world.trace
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// NIC state (stats, queue occupancy, utilization).
    pub fn nic(&self, nic: NicId) -> &NicState {
        &self.world.nics[nic.0 as usize]
    }

    /// Parameters of a network.
    pub fn network_params(&self, net: NetworkId) -> &NetworkParams {
        &self.world.networks[net.0 as usize].params
    }

    /// Run external code as if it were a callback on `node` (used by
    /// drivers of the simulation — tests, workload bootstrap — to submit
    /// transmits or arm timers from outside the event loop).
    pub fn inject<R>(&mut self, node: NodeId, f: impl FnOnce(&mut SimCtx<'_>) -> R) -> R {
        let mut ctx = SimCtx {
            now: self.time,
            node,
            queue: &mut self.queue,
            world: &mut self.world,
        };
        f(&mut ctx)
    }

    /// Borrow a node's endpoint for inspection (e.g. collecting results
    /// after a run). Panics if the node has no endpoint installed.
    pub fn endpoint(&self, node: NodeId) -> &dyn Endpoint {
        self.endpoints[node.0 as usize]
            .as_deref()
            .expect("node has no endpoint")
    }

    /// Process events until the queue is exhausted or `limit` is reached,
    /// whichever first; returns the final virtual time.
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> SimTime {
        self.start_if_needed();
        while let Some(at) = self.queue.peek_time() {
            if at > limit {
                self.time = limit;
                return self.time;
            }
            let ev = self.queue.pop().expect("peeked event vanished");
            debug_assert!(ev.at >= self.time, "time went backwards");
            // Cancelled timers and stale fabric completions are discarded
            // without advancing the clock or counting as processed, so an
            // event that does nothing cannot inflate the quiescence time
            // of an otherwise-finished simulation.
            let dead = match &ev.kind {
                EventKind::Timer { timer, .. } => self.world.cancelled_timers.remove(timer),
                EventKind::FabricDone {
                    network,
                    generation,
                    ..
                } => self.world.networks[network.0 as usize]
                    .fabric
                    .as_ref()
                    .is_none_or(|f| f.is_stale(*generation)),
                _ => false,
            };
            if dead {
                continue;
            }
            self.time = ev.at;
            self.events_processed += 1;
            self.dispatch(ev.kind);
        }
        self.time
    }

    /// Process all events up to and including `deadline`; the clock is then
    /// advanced to `deadline` even if the queue still holds later events.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.run_until_quiescent(deadline);
        if self.time < deadline {
            self.time = deadline;
        }
        self.time
    }

    /// True when no events remain.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.endpoints.len() {
            self.with_endpoint(NodeId(i as u32), |ep, ctx| ep.on_start(ctx));
        }
    }

    fn with_endpoint(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Endpoint, &mut SimCtx<'_>)) {
        let slot = match self.endpoints.get_mut(node.0 as usize) {
            Some(s) => s,
            None => return,
        };
        let mut ep = match slot.take() {
            Some(e) => e,
            None => return,
        };
        let mut ctx = SimCtx {
            now: self.time,
            node,
            queue: &mut self.queue,
            world: &mut self.world,
        };
        f(ep.as_mut(), &mut ctx);
        self.endpoints[node.0 as usize] = Some(ep);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::TxEngineDone { nic } => self.tx_engine_done(nic),
            EventKind::Arrival { nic, packet } => self.arrival(nic, *packet),
            EventKind::RxEngineDone { nic } => self.rx_engine_done(nic),
            EventKind::Timer { node, timer, tag } => {
                if self.world.cancelled_timers.remove(&timer) {
                    return;
                }
                self.world
                    .trace
                    .push(self.time, TraceEvent::TimerFired { node, tag });
                self.with_endpoint(node, |ep, ctx| ep.on_timer(ctx, timer, tag));
            }
            EventKind::FabricDone {
                network,
                transfer,
                generation,
            } => self.fabric_done(network, transfer, generation),
        }
    }

    /// A fabric fluid transfer finished serializing (madnet): release the
    /// packet onto its path's propagation latency and schedule the next
    /// completion under the allocation this leave produced. (Stale
    /// completions never get here; the run loop drops them.)
    fn fabric_done(&mut self, network: NetworkId, transfer: u64, generation: u64) {
        let now = self.time;
        let Some(fabric) = self.world.networks[network.0 as usize].fabric.as_mut() else {
            return;
        };
        let Some(d) = fabric.complete(now, transfer, generation) else {
            return;
        };
        let arrive_at = now + d.path_latency + d.extra_delay;
        self.queue.push(
            arrive_at,
            EventKind::Arrival {
                nic: d.dst_nic,
                packet: d.packet,
            },
        );
        if let Some(dup) = d.dup_packet {
            self.queue.push(
                arrive_at + SimDuration::from_nanos(1),
                EventKind::Arrival {
                    nic: d.dst_nic,
                    packet: dup,
                },
            );
        }
        if let Some(r) = d.resched {
            self.queue.push(
                r.done_at,
                EventKind::FabricDone {
                    network,
                    transfer: r.id,
                    generation: r.generation,
                },
            );
        }
    }

    fn tx_engine_done(&mut self, nic_id: NicId) {
        let now = self.time;
        let nic_idx = nic_id.0 as usize;
        let (req, node, net_idx) = {
            let nic = &mut self.world.nics[nic_idx];
            let req = nic.tx_queue.pop_front().expect("tx done on empty queue");
            (req, nic.node, nic.network.0 as usize)
        };
        let cookie = req.cookie;
        let payload_len = req.payload_len();
        let seg_count = req.payload.len();
        let net = &mut self.world.networks[net_idx];
        let latency = net.params.wire_latency;
        let overhead = net.params.per_packet_overhead_bytes;
        // The scripted fault plan draws from its own RNG stream, so
        // fault decisions stay a pure function of (seed, tx order).
        let fault = match net.fault.as_mut() {
            Some(f) => f.on_tx(now),
            None => crate::fault::FaultOutcome::default(),
        };

        // Account the completed transmit.
        {
            let nic = &mut self.world.nics[nic_idx];
            nic.stats.tx_packets += 1;
            nic.stats.tx_payload_bytes += payload_len;
            nic.stats.tx_wire_bytes += payload_len + overhead;
            nic.stats.tx_segments += seg_count as u64;
        }

        // Launch the packet onto the wire (unless fault injection drops it).
        if fault.dropped {
            self.world.nics[nic_idx].stats.wire_drops += 1;
            self.world.trace.push(
                now,
                TraceEvent::WireDrop {
                    nic: nic_id,
                    cookie,
                },
            );
        } else {
            if fault.stalled {
                self.world.nics[nic_idx].stats.wire_stalls += 1;
                self.world.trace.push(
                    now,
                    TraceEvent::WireStall {
                        nic: nic_id,
                        cookie,
                    },
                );
            }
            let seq = {
                let nic = &mut self.world.nics[nic_idx];
                let s = nic.next_seq;
                nic.next_seq += 1;
                s
            };
            let dst_nic = req.dst_nic;
            let dst_node = self.world.nics[dst_nic.0 as usize].node;
            let packet = WirePacket {
                src: node,
                dst: dst_node,
                src_nic: nic_id,
                dst_nic,
                vchan: req.vchan,
                kind: req.kind,
                cookie,
                seq,
                ecn: false,
                payload: req.payload,
            };
            let arrive_at = now + latency + fault.extra_delay;
            let dup_packet = if fault.duplicate {
                let dup_seq = {
                    let nic = &mut self.world.nics[nic_idx];
                    let s = nic.next_seq;
                    nic.next_seq += 1;
                    s
                };
                self.world.nics[nic_idx].stats.wire_dups += 1;
                self.world.trace.push(
                    now,
                    TraceEvent::WireDup {
                        nic: nic_id,
                        cookie,
                    },
                );
                let mut dup = packet.clone();
                dup.seq = dup_seq;
                Some(Box::new(dup))
            } else {
                None
            };
            if self.world.networks[net_idx].fabric.is_some() {
                // madnet: the packet becomes a fluid transfer serialized
                // at its max-min fair share; propagation latency comes
                // from the routed path, while fault delays stay with the
                // packet.
                let wire_bytes = payload_len + overhead;
                let network = self.world.nics[nic_idx].network;
                let fabric = self.world.networks[net_idx]
                    .fabric
                    .as_mut()
                    .expect("checked above");
                match fabric.admit(
                    now,
                    Box::new(packet),
                    dup_packet,
                    dst_nic,
                    wire_bytes,
                    fault.extra_delay,
                ) {
                    AdmitOutcome::Local { packet, dup_packet } => {
                        self.schedule_arrival(dst_nic, arrive_at, packet, dup_packet)
                    }
                    AdmitOutcome::NoRoute | AdmitOutcome::Dropped => {
                        self.world.nics[nic_idx].stats.fabric_drops += 1;
                        self.world.trace.push(
                            now,
                            TraceEvent::FabricDrop {
                                nic: nic_id,
                                cookie,
                            },
                        );
                    }
                    AdmitOutcome::Queued { marked, next } => {
                        if marked {
                            self.world.nics[nic_idx].stats.ecn_marked += 1;
                            self.world.trace.push(
                                now,
                                TraceEvent::EcnMark {
                                    nic: nic_id,
                                    cookie,
                                },
                            );
                        }
                        self.queue.push(
                            next.done_at,
                            EventKind::FabricDone {
                                network,
                                transfer: next.id,
                                generation: next.generation,
                            },
                        );
                    }
                }
            } else {
                self.schedule_arrival(dst_nic, arrive_at, Box::new(packet), dup_packet);
            }
        }

        // Keep the engine busy if more work is queued; otherwise note
        // idleness (announced after the completion callback).
        let has_more = !self.world.nics[nic_idx].tx_queue.is_empty();
        if has_more {
            self.world.start_tx(now, &mut self.queue, nic_id);
        } else {
            let nic = &mut self.world.nics[nic_idx];
            nic.tx_busy = false;
            nic.tx_util.set_idle(now);
        }

        self.world.trace.push(
            now,
            TraceEvent::TxDone {
                nic: nic_id,
                cookie,
            },
        );
        self.with_endpoint(node, |ep, ctx| ep.on_tx_done(ctx, nic_id, cookie));

        // The completion handler may have refilled the queue; only announce
        // idle if the engine is genuinely drained.
        if self.world.nics[nic_idx].is_tx_idle() {
            self.world.nics[nic_idx].stats.idle_transitions += 1;
            self.world
                .trace
                .push(now, TraceEvent::NicIdle { nic: nic_id });
            self.with_endpoint(node, |ep, ctx| ep.on_nic_idle(ctx, nic_id));
        }
    }

    /// Schedule `packet`'s arrival at `nic` at `at`, and its duplicate's
    /// (when the fault plan made one) 1 ns later. The duplicate is pushed
    /// first: event sequence numbers, and with them every run, depend on
    /// that order.
    fn schedule_arrival(
        &mut self,
        nic: NicId,
        at: SimTime,
        packet: Box<WirePacket>,
        dup: Option<Box<WirePacket>>,
    ) {
        if let Some(dup) = dup {
            let kind = EventKind::Arrival { nic, packet: dup };
            self.queue.push(at + SimDuration::from_nanos(1), kind);
        }
        self.queue.push(at, EventKind::Arrival { nic, packet });
    }

    fn arrival(&mut self, nic_id: NicId, packet: WirePacket) {
        let now = self.time;
        let nic_idx = nic_id.0 as usize;
        let net_idx = self.world.nics[nic_idx].network.0 as usize;
        let rx_cost = {
            let p = &self.world.networks[net_idx].params;
            p.rx_setup + transfer_time(packet.payload_len(), p.rx_bandwidth)
        };
        let nic = &mut self.world.nics[nic_idx];
        nic.rx_queue.push_back(packet);
        if !nic.rx_busy {
            nic.rx_busy = true;
            self.queue
                .push(now + rx_cost, EventKind::RxEngineDone { nic: nic_id });
        }
    }

    fn rx_engine_done(&mut self, nic_id: NicId) {
        let now = self.time;
        let nic_idx = nic_id.0 as usize;
        let (pkt, node) = {
            let nic = &mut self.world.nics[nic_idx];
            let pkt = nic.rx_queue.pop_front().expect("rx done on empty queue");
            nic.stats.rx_packets += 1;
            nic.stats.rx_payload_bytes += pkt.payload_len();
            (pkt, nic.node)
        };
        // Schedule processing of the next queued packet before delivering, so
        // the rx engine models a pipeline rather than stalling on the stack.
        let next_cost = {
            let nic = &self.world.nics[nic_idx];
            nic.rx_queue.front().map(|next| {
                let p = &self.world.networks[nic.network.0 as usize].params;
                p.rx_setup + transfer_time(next.payload_len(), p.rx_bandwidth)
            })
        };
        match next_cost {
            Some(cost) => {
                self.queue
                    .push(now + cost, EventKind::RxEngineDone { nic: nic_id });
            }
            None => self.world.nics[nic_idx].rx_busy = false,
        }
        self.world.trace.push(
            now,
            TraceEvent::RxDelivered {
                nic: nic_id,
                bytes: pkt.payload_len(),
                kind: pkt.kind,
            },
        );
        self.with_endpoint(node, |ep, ctx| ep.on_packet_rx(ctx, nic_id, pkt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TxMode;
    use bytes::Bytes;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Two-node fixture on a synthetic network.
    fn two_nodes() -> (Simulation, NodeId, NodeId, NicId, NicId) {
        let mut sim = Simulation::new();
        let net = sim.add_network(NetworkParams::synthetic());
        let a = sim.add_node();
        let b = sim.add_node();
        let na = sim.add_nic(a, net);
        let nb = sim.add_nic(b, net);
        (sim, a, b, na, nb)
    }

    type RxLog = Rc<RefCell<Vec<(u16, Vec<u8>)>>>;

    #[derive(Default)]
    struct Recorder {
        rx: RxLog,
        tx_done: Rc<RefCell<Vec<u64>>>,
        idles: Rc<RefCell<u32>>,
    }

    impl Endpoint for Recorder {
        fn on_tx_done(&mut self, _ctx: &mut SimCtx<'_>, _nic: NicId, cookie: u64) {
            self.tx_done.borrow_mut().push(cookie);
        }
        fn on_nic_idle(&mut self, _ctx: &mut SimCtx<'_>, _nic: NicId) {
            *self.idles.borrow_mut() += 1;
        }
        fn on_packet_rx(&mut self, _ctx: &mut SimCtx<'_>, _nic: NicId, pkt: WirePacket) {
            self.rx.borrow_mut().push((pkt.kind, pkt.contiguous()));
        }
    }

    fn req_to(dst: NicId, kind: u16, cookie: u64, data: &[u8]) -> TxRequest {
        TxRequest {
            dst_nic: dst,
            vchan: 0,
            kind,
            cookie,
            mode: TxMode::Pio,
            host_prep: SimDuration::ZERO,
            payload: vec![Bytes::copy_from_slice(data)],
        }
    }

    #[test]
    fn packet_delivered_with_content_intact() {
        let (mut sim, a, b, na, nb) = two_nodes();
        let rx = Rc::new(RefCell::new(Vec::new()));
        let rec = Recorder {
            rx: rx.clone(),
            ..Default::default()
        };
        sim.set_endpoint(b, Box::new(rec));
        sim.set_endpoint(a, Box::new(Recorder::default()));
        sim.inject(a, |ctx| {
            ctx.submit(na, req_to(nb, 42, 7, b"hello")).unwrap()
        });
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        let got = rx.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 42);
        assert_eq!(got[0].1, b"hello");
        assert_eq!(sim.nic(na).stats.tx_packets, 1);
        assert_eq!(sim.nic(nb).stats.rx_packets, 1);
    }

    #[test]
    fn latency_matches_analytic_model() {
        let (mut sim, a, b, na, nb) = two_nodes();
        let rx = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                rx: rx.clone(),
                ..Default::default()
            }),
        );
        let len: u64 = 1000;
        sim.inject(a, |ctx| {
            ctx.submit(na, req_to(nb, 0, 0, &vec![0u8; len as usize]))
                .unwrap()
        });
        let end = sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        // PIO: 100ns setup + (1000+16)B at 0.5GB/s = 2032ns inject,
        // + 1µs wire latency, + rx 200ns setup + 1000B at 2GB/s = 500ns.
        let expect = 100 + 2032 + 1000 + 200 + 500;
        assert_eq!(end.as_nanos(), expect);
    }

    #[test]
    fn idle_fires_once_after_queue_drains() {
        let (mut sim, a, _b, na, nb) = two_nodes();
        let idles = Rc::new(RefCell::new(0));
        sim.set_endpoint(
            a,
            Box::new(Recorder {
                idles: idles.clone(),
                ..Default::default()
            }),
        );
        sim.inject(a, |ctx| {
            for i in 0..3 {
                ctx.submit(na, req_to(nb, 0, i, b"x")).unwrap();
            }
        });
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        // Three back-to-back packets: the engine drains once.
        assert_eq!(*idles.borrow(), 1);
        assert_eq!(sim.nic(na).stats.idle_transitions, 1);
    }

    #[test]
    fn tx_done_callbacks_in_submission_order() {
        let (mut sim, a, _b, na, nb) = two_nodes();
        let done = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            a,
            Box::new(Recorder {
                tx_done: done.clone(),
                ..Default::default()
            }),
        );
        sim.inject(a, |ctx| {
            for i in 10..14 {
                ctx.submit(na, req_to(nb, 0, i, b"abc")).unwrap();
            }
        });
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        assert_eq!(*done.borrow(), vec![10, 11, 12, 13]);
    }

    #[test]
    fn queue_full_backpressure() {
        let (mut sim, a, _b, na, nb) = two_nodes();
        sim.set_endpoint(a, Box::new(Recorder::default()));
        let results: Vec<Result<(), SubmitError>> = sim.inject(a, |ctx| {
            (0..6)
                .map(|i| ctx.submit(na, req_to(nb, 0, i, b"y")))
                .collect()
        });
        // Synthetic depth is 4.
        assert!(results[..4].iter().all(|r| r.is_ok()));
        assert_eq!(results[4], Err(SubmitError::QueueFull));
        assert_eq!(results[5], Err(SubmitError::QueueFull));
        assert_eq!(sim.nic(na).stats.queue_full_rejections, 2);
    }

    #[test]
    fn cross_network_submit_rejected() {
        let mut sim = Simulation::new();
        let n1 = sim.add_network(NetworkParams::synthetic());
        let n2 = sim.add_network(NetworkParams::synthetic());
        let a = sim.add_node();
        let b = sim.add_node();
        let na = sim.add_nic(a, n1);
        let nb = sim.add_nic(b, n2);
        sim.set_endpoint(a, Box::new(Recorder::default()));
        let r = sim.inject(a, |ctx| ctx.submit(na, req_to(nb, 0, 0, b"z")));
        assert_eq!(r, Err(SubmitError::Unreachable));
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerEp {
            fired: Rc<RefCell<Vec<u64>>>,
            cancel_me: Option<TimerId>,
        }
        impl Endpoint for TimerEp {
            fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
                ctx.set_timer(SimDuration::from_nanos(100), 1);
                let t = ctx.set_timer(SimDuration::from_nanos(200), 2);
                ctx.set_timer(SimDuration::from_nanos(300), 3);
                self.cancel_me = Some(t);
            }
            fn on_timer(&mut self, ctx: &mut SimCtx<'_>, _id: TimerId, tag: u64) {
                self.fired.borrow_mut().push(tag);
                if tag == 1 {
                    if let Some(t) = self.cancel_me.take() {
                        ctx.cancel_timer(t);
                    }
                }
            }
        }
        let mut sim = Simulation::new();
        let n = sim.add_node();
        let fired = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            n,
            Box::new(TimerEp {
                fired: fired.clone(),
                cancel_me: None,
            }),
        );
        sim.run_until_quiescent(SimTime::from_nanos(1_000_000));
        assert_eq!(*fired.borrow(), vec![1, 3]);
    }

    #[test]
    fn fault_plan_loss_discards_packets() {
        let (mut sim, a, b, na, nb) = two_nodes();
        sim.set_fault_plan(NetworkId(0), crate::fault::FaultPlan::new(5).with_loss(1.0));
        let rx = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                rx: rx.clone(),
                ..Default::default()
            }),
        );
        sim.set_endpoint(a, Box::new(Recorder::default()));
        sim.inject(a, |ctx| {
            ctx.submit(na, req_to(nb, 0, 0, b"doomed")).unwrap()
        });
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        assert!(rx.borrow().is_empty());
        assert_eq!(sim.nic(na).stats.wire_drops, 1);
    }

    #[test]
    fn fault_plan_duplicates_and_counts() {
        let (mut sim, a, b, na, nb) = two_nodes();
        let net = NetworkId(0);
        sim.set_fault_plan(net, crate::fault::FaultPlan::new(5).with_dup(1.0));
        let rx = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                rx: rx.clone(),
                ..Default::default()
            }),
        );
        sim.set_endpoint(a, Box::new(Recorder::default()));
        sim.inject(a, |ctx| ctx.submit(na, req_to(nb, 1, 9, b"twice")).unwrap());
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        assert_eq!(rx.borrow().len(), 2, "duplicate copy must arrive too");
        assert_eq!(sim.nic(na).stats.wire_dups, 1);
        assert_eq!(sim.nic(nb).stats.rx_packets, 2);
    }

    #[test]
    fn fault_plan_death_discards_everything_after() {
        let (mut sim, a, b, na, nb) = two_nodes();
        sim.set_fault_plan(
            NetworkId(0),
            crate::fault::FaultPlan::new(5).with_death(SimTime::ZERO),
        );
        let rx = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                rx: rx.clone(),
                ..Default::default()
            }),
        );
        sim.set_endpoint(a, Box::new(Recorder::default()));
        sim.inject(a, |ctx| {
            for i in 0..3 {
                ctx.submit(na, req_to(nb, 0, i, b"rip")).unwrap();
            }
        });
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        assert!(rx.borrow().is_empty());
        assert_eq!(sim.nic(na).stats.wire_drops, 3);
    }

    #[test]
    fn fault_plan_stall_delays_delivery() {
        let (mut sim, a, b, na, nb) = two_nodes();
        // Stall everything sent in the first 10µs until the window closes.
        sim.set_fault_plan(
            NetworkId(0),
            crate::fault::FaultPlan::new(5)
                .with_stall(SimTime::ZERO, SimTime::from_nanos(1_000_000)),
        );
        let rx = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                rx: rx.clone(),
                ..Default::default()
            }),
        );
        sim.set_endpoint(a, Box::new(Recorder::default()));
        sim.inject(a, |ctx| ctx.submit(na, req_to(nb, 0, 0, b"late")).unwrap());
        let end = sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        assert_eq!(rx.borrow().len(), 1);
        assert!(end.as_nanos() > 1_000_000, "delivery held past the stall");
        assert_eq!(sim.nic(na).stats.wire_stalls, 1);
    }

    #[test]
    fn fault_plan_runs_are_deterministic() {
        let run = || {
            let (mut sim, a, b, na, nb) = two_nodes();
            sim.set_fault_plan(
                NetworkId(0),
                crate::fault::FaultPlan::new(77)
                    .with_loss(0.3)
                    .with_dup(0.2),
            );
            let rx = Rc::new(RefCell::new(Vec::new()));
            sim.set_endpoint(
                b,
                Box::new(Recorder {
                    rx: rx.clone(),
                    ..Default::default()
                }),
            );
            sim.set_endpoint(a, Box::new(Recorder::default()));
            sim.inject(a, |ctx| {
                for i in 0..4u8 {
                    ctx.submit(na, req_to(nb, i as u16, i as u64, &[i; 40]))
                        .unwrap();
                }
            });
            let end = sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
            let received = rx.borrow().clone();
            (end, received, sim.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let (mut sim, _a, _b, _na, _nb) = two_nodes();
        let end = sim.run_until(SimTime::from_nanos(5_000));
        assert_eq!(end.as_nanos(), 5_000);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn deterministic_repeat_runs() {
        let run = || {
            let (mut sim, a, b, na, nb) = two_nodes();
            let rx = Rc::new(RefCell::new(Vec::new()));
            sim.set_endpoint(
                b,
                Box::new(Recorder {
                    rx: rx.clone(),
                    ..Default::default()
                }),
            );
            sim.set_endpoint(a, Box::new(Recorder::default()));
            sim.inject(a, |ctx| {
                for i in 0..4u8 {
                    ctx.submit(na, req_to(nb, i as u16, i as u64, &[i; 33]))
                        .unwrap();
                }
            });
            let end = sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
            let received = rx.borrow().clone();
            (end, received, sim.events_processed())
        };
        assert_eq!(run(), run());
    }

    /// Dumbbell fixture: `senders` left-side nodes all transmitting to a
    /// single right-side receiver across a shared core link.
    fn incast_sim(senders: u32, core: crate::topo::LinkProfile) -> (Simulation, Vec<NicId>, NicId) {
        let mut sim = Simulation::new();
        let net = sim.add_network(NetworkParams::synthetic());
        let edge = crate::topo::LinkProfile {
            bandwidth: 1_000_000_000,
            latency: SimDuration::from_nanos(500),
            queue_capacity: 1 << 20,
            ecn_threshold: 1 << 18,
        };
        sim.install_topology(net, Topology::dumbbell(senders, 1, edge, core));
        let mut src_nics = Vec::new();
        for _ in 0..senders {
            let n = sim.add_node();
            src_nics.push(sim.add_nic(n, net));
            sim.set_endpoint(n, Box::new(Recorder::default()));
        }
        let r = sim.add_node();
        let rnic = sim.add_nic(r, net);
        sim.set_endpoint(r, Box::new(Recorder::default()));
        (sim, src_nics, rnic)
    }

    #[test]
    fn fabric_contention_shares_the_core() {
        // One sender finishes a 100 KB transfer across the core in some
        // time T; four senders sharing the same core at max-min fair
        // rates need materially longer than T (but far less than 4 T of
        // serial pipes would allow them to hide).
        let time_for = |senders: u32| {
            let core = crate::topo::LinkProfile {
                bandwidth: 1_000_000_000,
                latency: SimDuration::from_nanos(500),
                queue_capacity: 1 << 22,
                ecn_threshold: 1 << 21,
            };
            let (mut sim, src_nics, rnic) = incast_sim(senders, core);
            for (i, &nic) in src_nics.iter().enumerate() {
                let node = sim.nic(nic).node;
                sim.inject(node, |ctx| {
                    ctx.submit(nic, req_to(rnic, 1, i as u64, &vec![0u8; 100_000]))
                        .unwrap();
                });
            }
            let end = sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
            assert_eq!(sim.nic(rnic).stats.rx_packets, u64::from(senders));
            end.as_nanos()
        };
        let solo = time_for(1);
        let contended = time_for(4);
        assert!(
            contended > solo * 3 / 2,
            "4-way sharing should slow the core well past solo ({solo} ns \
             vs {contended} ns)"
        );
    }

    #[test]
    fn fabric_bounded_queue_drops_and_marks() {
        // A starved core (1% of edge bandwidth, tiny queue) under a
        // burst from every sender must both ECN-mark and drop.
        let core = crate::topo::LinkProfile {
            bandwidth: 10_000_000,
            latency: SimDuration::from_nanos(500),
            queue_capacity: 40_000,
            ecn_threshold: 8_000,
        };
        let (mut sim, src_nics, rnic) = incast_sim(4, core);
        for &nic in &src_nics {
            let node = sim.nic(nic).node;
            sim.inject(node, |ctx| {
                for c in 0..4u64 {
                    ctx.submit(nic, req_to(rnic, 1, c, &vec![0u8; 16_000]))
                        .unwrap();
                }
            });
        }
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        let marked: u64 = src_nics.iter().map(|&n| sim.nic(n).stats.ecn_marked).sum();
        let dropped: u64 = src_nics
            .iter()
            .map(|&n| sim.nic(n).stats.fabric_drops)
            .sum();
        assert!(marked > 0, "congested core must ECN-mark");
        assert!(dropped > 0, "overflowing queue must drop");
        let net = NetworkId(0);
        let fabric = sim.fabric(net).expect("topology installed");
        assert_eq!(fabric.active_transfers(), 0, "fabric drained");
        let stats = fabric.link_stats();
        assert_eq!(
            stats.iter().map(|s| s.queue_drops).sum::<u64>(),
            dropped,
            "per-link drop counters agree with per-NIC ones"
        );
        assert!(stats.iter().any(|s| s.ecn_marks > 0));
        assert!(stats.iter().any(|s| s.busy_ns > 0));
    }

    #[test]
    fn dead_fabric_completions_do_not_move_the_clock() {
        // A short and a long packet share a slow core. The short one is
        // admitted first and alone; the long one's join reallocates, so
        // the completion posted for the short one under its solo rate is
        // dead. Then the short one leaves and the long one speeds up, so
        // nothing posted under the shared allocation may outlive it.
        let core = crate::topo::LinkProfile {
            bandwidth: 10_000_000,
            latency: SimDuration::from_nanos(500),
            queue_capacity: 1 << 20,
            ecn_threshold: 1 << 19,
        };
        let (mut sim, src_nics, rnic) = incast_sim(2, core);
        sim.enable_trace(64);
        for (&nic, len) in src_nics.iter().zip([2_000usize, 100_000]) {
            let node = sim.nic(nic).node;
            sim.inject(node, |ctx| {
                ctx.submit(nic, req_to(rnic, 1, len as u64, &vec![0u8; len]))
                    .unwrap();
            });
        }
        let end = sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        assert_eq!(sim.nic(rnic).stats.rx_packets, 2);
        let delivered: Vec<u64> = sim
            .trace()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::RxDelivered { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, [2_000, 100_000], "the short packet overtakes");
        let last = sim.trace().iter().last().expect("traced run");
        assert_eq!(end, last.at, "quiescence is when the last thing happened");
        // Every dispatched event did something: per packet one tx-engine
        // completion, one live fabric completion, one arrival and one
        // rx-engine completion.
        let tx_done = sim
            .trace()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::TxDone { .. }))
            .count() as u64;
        assert_eq!(sim.events_processed(), tx_done + 3 * delivered.len() as u64);
    }

    #[test]
    fn fabric_runs_are_deterministic() {
        let run = || {
            let core = crate::topo::LinkProfile {
                bandwidth: 100_000_000,
                latency: SimDuration::from_nanos(500),
                queue_capacity: 1 << 18,
                ecn_threshold: 1 << 14,
            };
            let (mut sim, src_nics, rnic) = incast_sim(3, core);
            sim.enable_trace(4096);
            for (i, &nic) in src_nics.iter().enumerate() {
                let node = sim.nic(nic).node;
                sim.inject(node, |ctx| {
                    for c in 0..3u64 {
                        ctx.submit(nic, req_to(rnic, 1, c, &vec![i as u8; 9_000]))
                            .unwrap();
                    }
                });
            }
            let end = sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
            let trace: Vec<(u64, String)> = sim
                .trace()
                .iter()
                .map(|r| (r.at.as_nanos(), format!("{:?}", r.event)))
                .collect();
            (end, sim.events_processed(), trace)
        };
        assert_eq!(run(), run());
    }
}

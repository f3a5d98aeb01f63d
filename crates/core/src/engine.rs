//! The optimizing communication engine: Figure 1 assembled.
//!
//! ```text
//!   Application / middlewares           (AppDriver, CommApi)
//!        │ submit: enqueue & return
//!   ┌────▼─────────────────────────┐
//!   │ Collect layer  (collect.rs)  │  per-flow waiting-packet lists
//!   ├──────────────────────────────┤
//!   │ OPTIMIZER – SCHEDULER        │  activated on NIC-idle events,
//!   │ (optimizer.rs, strategy/*)   │  strategies × cost model × budget
//!   ├──────────────────────────────┤
//!   │ Transfer layer (nicdrv)      │  capability-validated submissions
//!   └──────────────────────────────┘
//!        │ simulated NICs (simnet)
//! ```
//!
//! [`MadEngine`] implements [`simnet::Endpoint`]; the optimizer runs inside
//! `on_nic_idle` — the paper's central mechanism — plus the submit-time and
//! Nagle-timer activations of §3. All externally observable state lives in
//! a shared [`EngineCore`] so tests and harnesses hold an [`EngineHandle`]
//! onto a running engine.

// madlint: file: hot-path
// madlint: file: deterministic-output
// madlint: file: trace-covered

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use nicdrv::{Driver, ModeSel, SimDriver, TransferRequest};
use simnet::{Endpoint, NicId, NodeId, SimCtx, SimTime, Technology, TimerId, WirePacket};

use crate::api::{AppDriver, CommApi, INTERNAL_TAG_BASE};
use crate::classes::ClassMap;
use crate::collect::{CollectLayer, RndvState};
use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::flowmgr::{
    class_slot, AdmissionPolicy, AdmissionState, FairnessMode, SendOutcome, CLASS_SLOTS,
};
use crate::ids::{ChannelId, FlowId, MsgId, TrafficClass};
use crate::json::obj;
use crate::message::{DeliveredMessage, Fragment};
use crate::metrics::{Activation, EngineMetrics, MetricsRegistry};
use crate::optimizer::{select_plan_traced, submit_action, SubmitAction};
use crate::plan::{PlanBody, PlannedChunk, TransferPlan};
use crate::policy::{PolicyKind, RailPolicy};
use crate::proto::{
    ack_header_ecn, cancel_header, decode_ack_ecn, decode_packet, decode_rndv, encode_packet,
    encode_rndv, framing_bytes, make_header, ChunkHeader, WireChunk, KIND_ACK, KIND_CTRL,
    KIND_DATA, KIND_RNDV_ACK, KIND_RNDV_REQ,
};
use crate::receiver::{Receiver, ReceiverStats};
use crate::reliability::{plan_retransmit, PendingTx, RailHealth, RetransmitTracker};
use crate::scope::{RailTick, Sampler, TickStats};
use crate::strategy::{OptContext, Strategy, StrategyRegistry};
use crate::trace::{EngineEvent, EventSink, FlightDump, FlightTrigger};

/// Internal timer tag: Nagle flush.
const NAGLE_TAG: u64 = INTERNAL_TAG_BASE;
/// Internal timer tag: adaptive-policy epoch.
const ADAPTIVE_TAG: u64 = INTERNAL_TAG_BASE + 1;
/// Internal timer tag: retransmit-deadline sweep (madrel).
const RETX_TAG: u64 = INTERNAL_TAG_BASE + 2;
/// Internal timer tag: madscope sampler tick.
const SAMPLER_TAG: u64 = INTERNAL_TAG_BASE + 3;
/// Cookie used by control packets (no completion bookkeeping).
const CTRL_COOKIE: u64 = 0;

/// One rail: a driver plus its routing and class/channel assignment.
pub struct Rail {
    /// The NIC driver.
    pub driver: SimDriver,
    /// Class → virtual channel map for this NIC.
    pub classmap: ClassMap,
    /// Network MTU of the rail.
    pub wire_mtu: u64,
    peers: HashMap<NodeId, NicId>,
}

/// The engine's mutable state (shared behind an [`EngineHandle`]).
// madlint: send-sync — sharded across madpar workers; interior
// mutability belongs on MadEngine/EngineHandle, not here
pub struct EngineCore {
    node: NodeId,
    config: EngineConfig,
    rails: Vec<Rail>,
    nic_to_rail: HashMap<NicId, usize>,
    /// Rail-eligibility policy.
    pub policy: RailPolicy,
    registry: StrategyRegistry,
    /// The collect layer (backlog).
    pub collect: CollectLayer,
    /// Receive-side reassembly.
    pub receiver: Receiver,
    inflight: BTreeMap<u64, Vec<PlannedChunk>>,
    next_cookie: u64,
    /// madrel: unacked data packets awaiting acknowledgement (empty when
    /// `config.reliability` is `Off`).
    retx: RetransmitTracker,
    /// madrel: per-rail ack/timeout health, feeding the cost model.
    rail_health: Vec<RailHealth>,
    /// Per-kind `note_fault` observation counts, indexed by `fault_idx`.
    fault_counts: [u64; 4],
    nagle_armed: bool,
    nagle_timer: Option<TimerId>,
    /// Adaptive-policy epoch timer state: consecutive traffic-less epochs,
    /// and whether the timer has been put to sleep (so an otherwise-idle
    /// simulation can reach quiescence).
    adaptive_idle_epochs: u32,
    adaptive_sleeping: bool,
    pending_ctrl: VecDeque<(usize, NodeId, u16, ChunkHeader)>,
    /// Counters and distributions.
    pub metrics: EngineMetrics,
    /// Delivered messages (retained when `config.record_deliveries`;
    /// bounded by `config.delivered_capacity` with oldest-drop).
    pub delivered: VecDeque<DeliveredMessage>,
    /// madflow admission pressure episodes (one `Unblocked` per episode).
    admission_state: AdmissionState,
    /// Classes that regained headroom since the application was last told.
    newly_unblocked: Vec<TrafficClass>,
    /// Structured madtrace event sink (disabled by default; one branch per
    /// event when disabled).
    pub trace: EventSink,
    /// Next optimizer activation id (correlates decision events).
    next_activation: u64,
    /// madscope time-series sampler (disabled by default; one branch per
    /// wake-probe when disabled, zero per-event cost).
    sampler: Option<Sampler>,
    /// Flight-recorder capture: set once, when a should-stay-zero counter
    /// first leaves zero.
    flight: Option<FlightDump>,
}

impl EngineCore {
    fn rail_of(&self, nic: NicId) -> Option<usize> {
        self.nic_to_rail.get(&nic).copied()
    }

    fn rndv_threshold_for(&self, flow: FlowId) -> u64 {
        if !self.config.enable_rndv {
            return u64::MAX;
        }
        if let Some(t) = self.config.rndv_threshold {
            return t;
        }
        let fs = self.collect.flow(flow);
        let (id, class) = (fs.id, fs.class);
        let hint = (0..self.rails.len())
            .filter(|&r| self.policy.eligible(id, class, r) && !self.rail_health[r].is_dead())
            .map(|r| self.rails[r].driver.capabilities().rndv_threshold_hint)
            .min()
            .unwrap_or(u64::MAX);
        if hint == u64::MAX {
            return hint;
        }
        // madnet: under fabric congestion, gate eager sends earlier — a
        // rendezvous round-trip is cheap insurance against stuffing more
        // bytes into an already-marking switch queue. Scaled by the
        // *least* congested eligible rail so a clean rail keeps the full
        // eager window (congestion penalty is 1.0 when the EWMA is zero,
        // leaving loss-only scenarios untouched).
        let cong = (0..self.rails.len())
            .filter(|&r| self.policy.eligible(id, class, r) && !self.rail_health[r].is_dead())
            .map(|r| self.rail_health[r].congestion_penalty())
            .fold(f64::INFINITY, f64::min);
        if cong.is_finite() && cong > 1.0 {
            ((hint as f64 / cong) as u64).max(1)
        } else {
            hint
        }
    }

    /// Open a flow toward `dst`, checking that the destination is
    /// reachable (registered as a peer on at least one rail).
    ///
    /// # Panics
    /// Panics when `dst` was never registered via
    /// [`EngineBuilder::peer`] — a topology bug best caught at flow-open
    /// time rather than deep inside the optimizer.
    pub fn open_flow(&mut self, dst: NodeId, class: TrafficClass) -> FlowId {
        assert!(
            self.rails.iter().any(|r| r.peers.contains_key(&dst)),
            "node {dst:?} is not a registered peer on any rail of node {:?}",
            self.node
        );
        self.collect.open_flow(dst, class)
    }

    /// Submit a packed message: enqueue into the collect layer and apply
    /// the submit-time activation policy. Returns immediately (§3).
    ///
    /// # Panics
    /// Panics when madflow admission control refuses the submission —
    /// budget-aware callers must use [`EngineCore::try_send`].
    pub fn send(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId, parts: Vec<Fragment>) -> MsgId {
        match self.try_send(ctx, flow, parts) {
            SendOutcome::Admitted(id) | SendOutcome::Shed { admitted: id, .. } => id,
            refused => panic!(
                "send refused by madflow admission control ({refused:?}); \
                 use try_send for budget-aware submission"
            ),
        }
    }

    /// Submit a packed message under madflow admission control, reporting
    /// the typed outcome instead of panicking under backpressure. With
    /// admission disabled (the default) every submission is admitted.
    pub fn try_send(
        &mut self,
        ctx: &mut SimCtx<'_>,
        flow: FlowId,
        parts: Vec<Fragment>,
    ) -> SendOutcome {
        let admission = self.config.admission.clone();
        if !admission.enabled() {
            return SendOutcome::Admitted(self.send_admitted(ctx, flow, parts));
        }
        let class = self.collect.flow(flow).class;
        let slot = class_slot(class);
        let incoming: u64 = parts.iter().map(|p| p.data.len() as u64).sum();
        let engine_backlog = self.collect.backlog_bytes();
        let class_backlog = self.collect.class_backlog_bytes(class);
        match admission.over_budget(slot, engine_backlog, class_backlog, incoming) {
            None => {
                let id = self.send_admitted(ctx, flow, parts);
                self.trace_admitted(ctx.now(), id, incoming);
                SendOutcome::Admitted(id)
            }
            Some(AdmissionPolicy::Block) => {
                self.metrics.blocked_sends += 1;
                self.admission_state.note_pressure(slot);
                SendOutcome::WouldBlock
            }
            Some(AdmissionPolicy::Reject) => {
                self.metrics.rejected_sends += 1;
                SendOutcome::Rejected
            }
            Some(AdmissionPolicy::ShedOldest) => {
                let need = engine_backlog
                    .saturating_add(incoming)
                    .saturating_sub(admission.max_backlog_bytes)
                    .max(
                        class_backlog
                            .saturating_add(incoming)
                            .saturating_sub(admission.class_backlog_bytes[slot]),
                    );
                let shed = self.collect.shed_oldest(class, need);
                let now = ctx.now();
                let mut shed_ids = Vec::with_capacity(shed.len());
                for (sid, bytes) in shed {
                    self.metrics.shed_msgs += 1;
                    self.metrics.shed_bytes += bytes;
                    self.trace.push(
                        now,
                        EngineEvent::Shed {
                            flow: sid.flow,
                            seq: sid.seq.0,
                            bytes,
                            class,
                        },
                    );
                    // Tell the receiver the sequence will never arrive, or
                    // its per-flow ordered delivery would wait forever at
                    // the gap. Rides the control path (queued and retried
                    // like rendezvous traffic when the NIC is full).
                    let dst = self.collect.flow(sid.flow).dst;
                    if let Some(rail_idx) = (0..self.rails.len()).find(|&r| {
                        !self.rail_health[r].is_dead() && self.rails[r].peers.contains_key(&dst)
                    }) {
                        let _ = self.send_ctrl(
                            ctx,
                            rail_idx,
                            dst,
                            KIND_CTRL,
                            cancel_header(sid.flow, sid.seq.0, class),
                        );
                    }
                    shed_ids.push(sid);
                }
                let id = self.send_admitted(ctx, flow, parts);
                self.trace_admitted(now, id, incoming);
                SendOutcome::Shed {
                    admitted: id,
                    shed: shed_ids,
                }
            }
        }
    }

    /// Trace an admission (only while admission control is active, so the
    /// default path stays event-free and byte-identical to the seed).
    fn trace_admitted(&mut self, now: SimTime, id: MsgId, bytes: u64) {
        if self.trace.is_enabled() {
            let backlog = self.collect.backlog_bytes();
            self.trace.push(
                now,
                EngineEvent::Admitted {
                    flow: id.flow,
                    seq: id.seq.0,
                    bytes,
                    backlog,
                },
            );
        }
    }

    fn send_admitted(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId, parts: Vec<Fragment>) -> MsgId {
        assert!(!parts.is_empty(), "message must have at least one fragment");
        let threshold = self.rndv_threshold_for(flow);
        self.metrics.submitted_msgs += 1;
        self.metrics.submitted_bytes += parts.iter().map(|p| p.data.len() as u64).sum::<u64>();
        if self.policy.kind() == PolicyKind::Adaptive && self.adaptive_sleeping {
            self.adaptive_sleeping = false;
            self.adaptive_idle_epochs = 0;
            ctx.set_timer(self.config.adaptive_epoch, ADAPTIVE_TAG);
        }
        self.wake_sampler(ctx);
        let id = self.collect.submit(flow, parts, ctx.now(), threshold);
        if self.trace.is_enabled() {
            let now = ctx.now();
            let class = self.collect.flow(flow).class;
            if let Some(msg) = self.collect.find_msg(flow, id.seq.0) {
                self.trace.push(
                    now,
                    EngineEvent::Submitted {
                        flow,
                        seq: id.seq.0,
                        frags: msg.frags.len() as u16,
                        bytes: msg.frags.iter().map(|f| u64::from(f.len())).sum(),
                        class,
                    },
                );
                for f in &msg.frags {
                    if f.rndv == RndvState::NeedRequest {
                        self.trace.push(
                            now,
                            EngineEvent::RndvGated {
                                flow,
                                seq: id.seq.0,
                                frag: f.index,
                                bytes: u64::from(f.len()),
                            },
                        );
                    }
                }
            }
        }
        let fs = self.collect.flow(flow);
        let (fid, class) = (fs.id, fs.class);
        let any_idle = (0..self.rails.len()).any(|r| {
            self.policy.eligible(fid, class, r)
                && !self.rail_health[r].is_dead()
                && self.rails[r].driver.is_idle(ctx)
        });
        match submit_action(
            &self.config,
            any_idle,
            self.collect.backlog_bytes(),
            self.nagle_armed,
        ) {
            SubmitAction::OptimizeNow => self.optimize_all_idle(ctx, Activation::Submit),
            SubmitAction::ArmNagle(delay) => {
                self.nagle_armed = true;
                self.nagle_timer = Some(ctx.set_timer(delay, NAGLE_TAG));
            }
            SubmitAction::Wait => {}
        }
        id
    }

    /// Force-push pending traffic: run the optimizer on every idle rail
    /// immediately (used by `CommApi::flush` and the Nagle timer).
    pub fn flush(&mut self, ctx: &mut SimCtx<'_>) {
        self.nagle_armed = false;
        if let Some(t) = self.nagle_timer.take() {
            ctx.cancel_timer(t);
        }
        self.optimize_all_idle(ctx, Activation::Timer);
    }

    fn optimize_all_idle(&mut self, ctx: &mut SimCtx<'_>, cause: Activation) {
        // madnet: rails pull the shared backlog in cost-penalty order, so
        // an ECN-inflated (or lossy) rail only sees what healthier rails
        // left behind. The sort is stable on the rail index — when every
        // rail is equally healthy this is byte-identical to plain index
        // order, preserving the determinism contract for existing runs.
        let mut order: Vec<usize> = (0..self.rails.len()).collect();
        order.sort_by(|&a, &b| {
            self.rail_health[a]
                .cost_penalty()
                .total_cmp(&self.rail_health[b].cost_penalty())
                .then(a.cmp(&b))
        });
        for r in order {
            if self.congestion_gated(r) {
                self.metrics.congestion_gated += 1;
                continue;
            }
            if !self.rail_health[r].is_dead() && self.rails[r].driver.is_idle(ctx) {
                self.optimize_rail(ctx, r, cause);
            }
        }
    }

    /// madnet congestion gate: a rail whose ECN-driven penalty is far
    /// above the best live rail's declines to pull the shared backlog —
    /// being work-conserving onto a collapsing fabric path converts a
    /// microsecond of patience into a 50 µs retransmit timeout. The
    /// comparison is relative, so the least-congested live rail is never
    /// gated and the engine can always make progress; with
    /// `congestion_aware` off (or no marks seen) this is always false
    /// and scheduling is byte-identical to the pre-fabric engine.
    fn congestion_gated(&self, rail: usize) -> bool {
        if !self.config.congestion_aware || self.rail_health.len() < 2 {
            return false;
        }
        let best = self
            .rail_health
            .iter()
            .filter(|h| !h.is_dead())
            .map(|h| h.congestion_penalty())
            .fold(f64::INFINITY, f64::min);
        best.is_finite() && self.rail_health[rail].congestion_penalty() > 2.0 * best
    }

    /// One optimizer activation on one rail: repeatedly select and submit
    /// the best plan until the hardware queue fills or the backlog (as
    /// visible to this rail) is exhausted.
    fn optimize_rail(&mut self, ctx: &mut SimCtx<'_>, rail_idx: usize, cause: Activation) {
        if self.rail_health[rail_idx].is_dead() {
            return;
        }
        self.metrics.record_activation(cause);
        let act = self.next_activation;
        self.next_activation += 1;
        self.flush_ctrl(ctx);
        // The rearrangement budget bounds scoring work per *activation*
        // (§4): plan evaluations are deducted across the whole refill loop.
        let mut budget = self.config.rearrange_budget;
        let mut first_pass = true;
        loop {
            if budget == 0 || self.rails[rail_idx].driver.free_slots(ctx) == 0 {
                break;
            }
            let (best, evaluated) = {
                let rail = &self.rails[rail_idx];
                let caps = rail.driver.capabilities();
                // Disjoint-field borrows: the collect layer is mutable
                // (DRR cursors advance per activation) while the policy
                // only answers eligibility queries.
                let policy = &self.policy;
                let groups = self.collect.collect_candidates(
                    ChannelId(rail_idx as u16),
                    self.config.lookahead_window,
                    |f, c| policy.eligible(f, c, rail_idx),
                );
                if groups.is_empty() {
                    if first_pass {
                        self.metrics.backlog_depth.record(0.0);
                        self.trace.push(
                            ctx.now(),
                            EngineEvent::ActivationStart {
                                id: act,
                                cause,
                                rail: rail_idx as u16,
                                backlog_depth: 0,
                            },
                        );
                    }
                    break;
                }
                let backlog: usize = groups
                    .iter()
                    .map(|g| g.candidates.len() + g.rndv.len())
                    .sum();
                if first_pass {
                    self.metrics.backlog_depth.record(backlog as f64);
                    self.trace.push(
                        ctx.now(),
                        EngineEvent::ActivationStart {
                            id: act,
                            cause,
                            rail: rail_idx as u16,
                            backlog_depth: backlog as u32,
                        },
                    );
                    first_pass = false;
                }
                let octx = OptContext {
                    now: ctx.now(),
                    channel: ChannelId(rail_idx as u16),
                    caps,
                    cost: rail.driver.cost_model(),
                    config: &self.config,
                    groups: &groups,
                    packet_limit: rail.wire_mtu.min(caps.max_packet_bytes),
                    rail_count: self
                        .rail_health
                        .iter()
                        .filter(|h| !h.is_dead())
                        .count()
                        .max(1),
                    health_penalty: self.rail_health[rail_idx].cost_penalty(),
                };
                let outcome = select_plan_traced(
                    &self.registry,
                    &octx,
                    &self.collect,
                    rail.wire_mtu,
                    budget,
                    &mut self.trace,
                    act,
                );
                (outcome.best.map(|s| s.plan), outcome.evaluated as u64)
            };
            self.metrics.plans_evaluated += evaluated;
            self.metrics.decision_evals.record(evaluated);
            budget = budget.saturating_sub(evaluated as usize);
            let Some(plan) = best else { break };
            *self.metrics.strategy_wins.entry(plan.strategy).or_insert(0) += 1;
            if let Err(e) = self.apply_plan(ctx, rail_idx, plan, act) {
                // Plans are validated before scoring, so a rejection here is
                // an engine bug or transient queue race; count and stop.
                self.metrics.driver_rejections += 1;
                self.note_fault(ctx.now(), FlightTrigger::DriverRejection);
                debug_assert!(false, "driver rejected validated plan: {e}");
                break;
            }
            #[cfg(feature = "debug-invariants")]
            self.debug_assert_invariants();
        }
    }

    /// Cross-check engine bookkeeping against the collect layer: every
    /// in-flight chunk must reference a live message with enough in-flight
    /// bytes to cover it. Compiled only with the `debug-invariants` feature.
    #[cfg(feature = "debug-invariants")]
    fn debug_assert_invariants(&self) {
        self.collect.debug_assert_invariants();
        for (cookie, chunks) in &self.inflight {
            for c in chunks {
                assert!(c.len > 0, "cookie {cookie}: zero-length in-flight chunk");
                let msg = self
                    .collect
                    .find_msg(c.flow, c.seq)
                    .unwrap_or_else(|| panic!("cookie {cookie}: in-flight chunk for dead message"));
                let frag = &msg.frags[c.frag as usize];
                assert!(
                    frag.inflight >= c.len,
                    "cookie {cookie}: fragment in-flight accounting below chunk length"
                );
            }
        }
    }

    fn apply_plan(
        &mut self,
        ctx: &mut SimCtx<'_>,
        rail_idx: usize,
        plan: TransferPlan,
        activation: u64,
    ) -> Result<(), EngineError> {
        match plan.body {
            PlanBody::Data {
                ref chunks,
                linearize,
            } => {
                // The one lookup per chunk before commit: headers carry
                // everything the rest of this function needs from the
                // message (class, submission time).
                let wire_chunks = wire_chunks_for(&self.collect, chunks);
                // A packet travels on one virtual channel; when chunks of
                // several classes share a packet (only possible when the
                // policy lets those classes share the rail), the leading
                // chunk's class tags it. Receiver demux by channel is a
                // sorting aid (§2), not a correctness dependency — chunk
                // headers carry the authoritative class.
                let class = wire_chunks[0].header.class;
                let rail = &self.rails[rail_idx];
                let dst_nic = *rail
                    .peers
                    .get(&plan.dst)
                    .ok_or(EngineError::UnknownPeer(plan.dst))?;
                let total = plan.payload_bytes() + plan.framing();
                let host_prep = if linearize {
                    rail.driver.cost_model().copy_time(total)
                } else {
                    simnet::SimDuration::ZERO
                };
                let cookie = self.next_cookie;
                self.next_cookie += 1;
                let segments = encode_packet(&wire_chunks, linearize);
                rail.driver.submit(
                    ctx,
                    TransferRequest {
                        dst_nic,
                        vchan: rail.classmap.vchan_for(class),
                        kind: KIND_DATA,
                        cookie,
                        mode: ModeSel::Auto,
                        host_prep,
                        segments,
                    },
                )?;
                let now = ctx.now();
                for (c, wc) in chunks.iter().zip(&wire_chunks) {
                    let submitted_at = SimTime::from_nanos(wc.header.submit_ns);
                    self.metrics.queue_delay.record(now.since(submitted_at));
                    self.collect.commit_chunk(c, ChannelId(rail_idx as u16));
                }
                // Committing bytes is the only place backlog shrinks, so
                // this is where blocked classes can regain headroom.
                self.check_admission_release(now);
                self.trace.push(
                    ctx.now(),
                    EngineEvent::PacketEncoded {
                        activation,
                        rail: rail_idx as u16,
                        cookie,
                        chunks: chunks.len() as u16,
                        bytes: chunks.iter().map(|c| u64::from(c.len)).sum(),
                        linearized: linearize,
                    },
                );
                for c in chunks {
                    self.trace.push(
                        now,
                        EngineEvent::ChunkBound {
                            flow: c.flow,
                            seq: c.seq,
                            frag: c.frag,
                            cookie,
                            bytes: u64::from(c.len),
                        },
                    );
                }
                self.inflight.insert(cookie, chunks.clone());
                if self.config.reliability.acks_enabled() {
                    let now = ctx.now();
                    self.retx.track(
                        cookie,
                        PendingTx {
                            chunks: chunks.clone(),
                            dst: plan.dst,
                            rail: rail_idx,
                            linearize,
                            sent_at: now,
                            deadline: now + self.config.retransmit_timeout,
                            attempts: 1,
                        },
                    );
                    self.arm_retx_timer(ctx);
                }
                self.metrics.record_packet(chunks.len(), linearize);
                self.metrics.plans_submitted += 1;
                self.policy.record_traffic(class, plan.payload_bytes());
                Ok(())
            }
            PlanBody::RndvRequest { flow, seq, frag } => {
                let msg = self
                    .collect
                    .find_msg(flow, seq)
                    .expect("validated plan references live message");
                let f = &msg.frags[frag as usize];
                let header = make_header(
                    flow,
                    seq,
                    frag,
                    msg.frags.len() as u16,
                    f.mode == crate::message::PackMode::Express,
                    msg.class,
                    f.len(),
                    0,
                    0,
                    msg.submitted_at,
                );
                let dst = msg.dst;
                self.send_ctrl(ctx, rail_idx, dst, KIND_RNDV_REQ, header)?;
                self.collect.mark_rndv_requested(flow, seq, frag);
                self.metrics.rndv_requests += 1;
                self.metrics.plans_submitted += 1;
                Ok(())
            }
        }
    }

    /// End pressure episodes for class slots that regained backlog
    /// headroom: emit one `Unblocked` trace event and queue the class for
    /// the application's `on_unblocked` callback.
    fn check_admission_release(&mut self, now: SimTime) {
        if !self.config.admission.enabled() {
            return;
        }
        let engine_backlog = self.collect.backlog_bytes();
        for slot in 0..CLASS_SLOTS {
            let class = TrafficClass(slot as u8);
            if self.admission_state.is_blocked(slot)
                && self.config.admission.has_headroom(
                    slot,
                    engine_backlog,
                    self.collect.class_backlog_bytes(class),
                )
            {
                self.admission_state.release(slot);
                self.metrics.unblocked_events += 1;
                self.trace.push(now, EngineEvent::Unblocked { class });
                self.newly_unblocked.push(class);
            }
        }
    }

    /// Classes that regained headroom since the last drain (consumed by
    /// the engine's endpoint callbacks to fire `on_unblocked`).
    fn take_unblocked(&mut self) -> Vec<TrafficClass> {
        std::mem::take(&mut self.newly_unblocked)
    }

    /// Send (or queue) a control packet on a rail's control channel.
    // madlint: allow(trace-coverage) — control-plane send; rndv gate/grant
    // transitions are traced by the callers that build the header
    fn send_ctrl(
        &mut self,
        ctx: &mut SimCtx<'_>,
        rail_idx: usize,
        dst: NodeId,
        kind: u16,
        header: ChunkHeader,
    ) -> Result<(), EngineError> {
        let rail = &self.rails[rail_idx];
        let dst_nic = *rail.peers.get(&dst).ok_or(EngineError::UnknownPeer(dst))?;
        if rail.driver.free_slots(ctx) == 0 {
            self.pending_ctrl.push_back((rail_idx, dst, kind, header));
            return Ok(());
        }
        let req = TransferRequest {
            dst_nic,
            vchan: rail.classmap.control(),
            kind,
            cookie: CTRL_COOKIE,
            mode: ModeSel::Auto,
            host_prep: simnet::SimDuration::ZERO,
            segments: encode_rndv(header),
        };
        match rail.driver.submit(ctx, req) {
            Ok(()) => Ok(()),
            Err(nicdrv::DriverError::Nic(simnet::SubmitError::QueueFull)) => {
                self.pending_ctrl.push_back((rail_idx, dst, kind, header));
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Retry queued control packets (called whenever queue space may have
    /// appeared).
    fn flush_ctrl(&mut self, ctx: &mut SimCtx<'_>) {
        let n = self.pending_ctrl.len();
        for _ in 0..n {
            let Some((rail_idx, dst, kind, header)) = self.pending_ctrl.pop_front() else {
                break;
            };
            // send_ctrl re-queues on failure.
            let _ = self.send_ctrl(ctx, rail_idx, dst, kind, header);
        }
    }

    /// Returns the ids of messages whose transmission completed with this
    /// packet.
    // madlint: allow(trace-coverage) — send-side accounting only; the
    // PacketCompleted/Delivered events are pushed by the on_sent callers
    fn complete_cookie(&mut self, cookie: u64) -> Vec<MsgId> {
        let mut done = Vec::new();
        if cookie == CTRL_COOKIE {
            return done;
        }
        if let Some(chunks) = self.inflight.remove(&cookie) {
            for c in &chunks {
                if self.collect.complete_chunk(c) {
                    done.push(MsgId {
                        flow: c.flow,
                        seq: crate::ids::MsgSeq(c.seq),
                    });
                }
            }
        }
        done
    }

    /// Record metrics, trace events and the optional delivery buffer for
    /// messages that just became deliverable.
    fn note_deliveries(&mut self, now: SimTime, rx_rail: Option<usize>, out: &[DeliveredMessage]) {
        for d in out {
            self.metrics
                .record_delivery(d.class, d.flow, rx_rail, d.total_len(), d.latency);
            self.trace.push(
                now,
                EngineEvent::Delivered {
                    src: d.src,
                    flow: d.flow,
                    seq: d.id.seq.0,
                    bytes: d.total_len(),
                    latency_ns: d.latency.as_nanos(),
                },
            );
        }
        if self.config.record_deliveries {
            for d in out {
                if self.delivered.len() >= self.config.delivered_capacity {
                    self.delivered.pop_front();
                    self.metrics.deliveries_dropped += 1;
                }
                self.delivered.push_back(d.clone());
            }
        }
    }

    /// Process an incoming wire packet; returns messages that became
    /// deliverable, plus the ids of our own sends whose acknowledgement
    /// this packet completed (madrel).
    fn handle_packet(
        &mut self,
        ctx: &mut SimCtx<'_>,
        nic: NicId,
        pkt: WirePacket,
    ) -> (Vec<DeliveredMessage>, Vec<MsgId>) {
        self.wake_sampler(ctx);
        match pkt.kind {
            KIND_DATA => {
                self.receiver.record_vchan(pkt.vchan);
                let chunks = match decode_packet(&pkt) {
                    Ok(c) => c,
                    Err(_) => {
                        self.metrics.proto_errors += 1;
                        self.note_fault(ctx.now(), FlightTrigger::ProtoError);
                        return (Vec::new(), Vec::new());
                    }
                };
                // Acknowledge every decodable data packet — duplicates
                // included, so a lost ack is repaired by the sender's
                // retransmission of the data.
                if self.config.reliability.acks_enabled() && pkt.cookie != CTRL_COOKIE {
                    if let Some(rail_idx) = self.rail_of(nic) {
                        // madnet: echo the fabric's ECN mark back to the
                        // sender inside the ack (RFC-3168 style).
                        let _ = self.send_ctrl(
                            ctx,
                            rail_idx,
                            pkt.src,
                            KIND_ACK,
                            ack_header_ecn(pkt.cookie, pkt.ecn),
                        );
                    }
                }
                let violations_before = self.receiver.stats.express_violations;
                let mut out = Vec::new();
                for ch in &chunks {
                    out.extend(self.receiver.on_chunk(pkt.src, ch, ctx.now()));
                }
                if self.receiver.stats.express_violations > violations_before {
                    self.note_fault(ctx.now(), FlightTrigger::ExpressViolation);
                }
                let rx_rail = self.rail_of(nic);
                self.note_deliveries(ctx.now(), rx_rail, &out);
                (out, Vec::new())
            }
            KIND_CTRL => {
                // Shed-cancel notification: the sender dropped (flow, seq)
                // before committing any byte; ordered delivery skips it.
                let mut out = Vec::new();
                if let Ok(header) = decode_rndv(&pkt) {
                    out = self
                        .receiver
                        .on_cancel(pkt.src, header.flow, header.msg_seq, ctx.now());
                    let rx_rail = self.rail_of(nic);
                    self.note_deliveries(ctx.now(), rx_rail, &out);
                } else {
                    self.metrics.proto_errors += 1;
                    self.note_fault(ctx.now(), FlightTrigger::ProtoError);
                }
                (out, Vec::new())
            }
            KIND_RNDV_REQ => {
                if let Ok(header) = decode_rndv(&pkt) {
                    if let Some(rail_idx) = self.rail_of(nic) {
                        // Grant immediately: echo the header back.
                        let _ = self.send_ctrl(ctx, rail_idx, pkt.src, KIND_RNDV_ACK, header);
                    }
                } else {
                    self.metrics.proto_errors += 1;
                    self.note_fault(ctx.now(), FlightTrigger::ProtoError);
                }
                (Vec::new(), Vec::new())
            }
            KIND_RNDV_ACK => {
                if let Ok(header) = decode_rndv(&pkt) {
                    if self
                        .collect
                        .grant_rndv(header.flow, header.msg_seq, header.frag_index)
                    {
                        self.metrics.rndv_grants += 1;
                        self.trace.push(
                            ctx.now(),
                            EngineEvent::RndvGranted {
                                flow: header.flow,
                                seq: header.msg_seq,
                                frag: header.frag_index,
                            },
                        );
                        self.optimize_all_idle(ctx, Activation::Submit);
                    }
                } else {
                    self.metrics.proto_errors += 1;
                    self.note_fault(ctx.now(), FlightTrigger::ProtoError);
                }
                (Vec::new(), Vec::new())
            }
            KIND_ACK => {
                let mut done = Vec::new();
                match decode_ack_ecn(&pkt) {
                    Ok((cookie, ecn)) => {
                        // Duplicate acks (the data was retransmitted and
                        // both copies arrived) find nothing tracked and are
                        // ignored.
                        if let Some(p) = self.retx.acked(cookie) {
                            self.metrics.acks_received += 1;
                            self.rail_health[p.rail].on_ack();
                            // madnet: the echoed congestion bit moves the
                            // rail's EWMA only in congestion-aware mode;
                            // blind mode still counts marks for reporting.
                            self.rail_health[p.rail]
                                .on_congestion(ecn, self.config.congestion_aware);
                            if ecn {
                                self.metrics.ecn_echoes += 1;
                                self.trace.push(
                                    ctx.now(),
                                    EngineEvent::CongestionMark {
                                        src: self.node,
                                        cookie,
                                        rail: p.rail as u16,
                                    },
                                );
                            }
                            self.trace.push(
                                ctx.now(),
                                EngineEvent::AckReceived {
                                    cookie,
                                    rail: p.rail as u16,
                                    rtt_ns: ctx.now().since(p.sent_at).as_nanos(),
                                },
                            );
                            done = self.complete_cookie(cookie);
                            self.arm_retx_timer(ctx);
                        }
                    }
                    Err(_) => {
                        self.metrics.proto_errors += 1;
                        self.note_fault(ctx.now(), FlightTrigger::ProtoError);
                    }
                }
                (Vec::new(), done)
            }
            _ => (Vec::new(), Vec::new()),
        }
    }

    /// Stable index of a fault kind in `fault_counts`.
    fn fault_idx(trigger: FlightTrigger) -> usize {
        match trigger {
            FlightTrigger::ExpressViolation => 0,
            FlightTrigger::DriverRejection => 1,
            FlightTrigger::ProtoError => 2,
            FlightTrigger::Timeout => 3,
        }
    }

    /// Record a fault observation and, on the very first one, fire the
    /// flight recorder: capture the trailing trace events, the debug
    /// report and a metrics-registry snapshot.
    fn note_fault(&mut self, now: SimTime, trigger: FlightTrigger) {
        self.fault_counts[Self::fault_idx(trigger)] += 1;
        if self.flight.is_some() {
            return;
        }
        let registry = self.metrics_registry().to_json();
        self.flight = Some(FlightDump::capture(
            self.node,
            trigger,
            now,
            self.debug_report(),
            registry,
            &self.trace,
        ));
    }

    /// (Re)arm the single retransmit timer toward the earliest pending
    /// deadline, cancelling a stale one. With nothing pending the timer is
    /// cancelled so the simulation can reach quiescence.
    fn arm_retx_timer(&mut self, ctx: &mut SimCtx<'_>) {
        let Some(deadline) = self.retx.next_deadline() else {
            if let Some(t) = self.retx.clear_timer() {
                ctx.cancel_timer(t);
            }
            return;
        };
        if let Some((timer, armed_for)) = self.retx.timer() {
            if armed_for == deadline {
                return;
            }
            ctx.cancel_timer(timer);
            self.retx.clear_timer();
        }
        let delay = deadline.since(ctx.now());
        let id = ctx.set_timer(delay, RETX_TAG);
        self.retx.set_timer(id, deadline);
    }

    /// Declare a rail dead exactly once: health, counter, trace event.
    fn kill_rail(&mut self, now: SimTime, rail: usize) {
        if self.rail_health[rail].is_dead() {
            return;
        }
        self.rail_health[rail].declare_dead();
        self.metrics.rails_dead += 1;
        self.trace
            .push(now, EngineEvent::RailDead { rail: rail as u16 });
    }

    /// The healthiest live rail that can reach `dst` (lowest index on
    /// ties), or `None` when every route is dead.
    // madlint: scoring
    fn live_rail_for(&self, dst: NodeId) -> Option<usize> {
        (0..self.rails.len())
            .filter(|&r| !self.rail_health[r].is_dead() && self.rails[r].peers.contains_key(&dst))
            .max_by(|&a, &b| {
                self.rail_health[a]
                    .score()
                    .total_cmp(&self.rail_health[b].score())
                    .then(b.cmp(&a))
            })
    }

    /// The retransmit timer fired: sweep every expired packet. In `Detect`
    /// mode a timeout raises a fault and completes the packet's accounting
    /// (nothing is re-sent); in `Recover` mode the packet is re-sent with
    /// backoff until the retry budget kills its rail, at which point the
    /// chunks reroute to a live rail or the messages are abandoned as
    /// lost. Returns message ids whose send-side accounting completed here
    /// so the engine can run the usual `on_sent` callbacks.
    fn on_retx_timer(&mut self, ctx: &mut SimCtx<'_>) -> Vec<MsgId> {
        self.retx.clear_timer();
        let now = ctx.now();
        let mut completed = Vec::new();
        for cookie in self.retx.expired(now) {
            let Some(pending) = self.retx.take(cookie) else {
                continue;
            };
            self.metrics.timeouts += 1;
            let rail = pending.rail;
            if self.rail_health[rail].on_timeout() {
                let score_milli = (self.rail_health[rail].score() * 1000.0) as u32;
                self.trace.push(
                    now,
                    EngineEvent::RailDegraded {
                        rail: rail as u16,
                        score_milli,
                    },
                );
            }
            if !self.config.reliability.recovers() {
                self.note_fault(now, FlightTrigger::Timeout);
                completed.extend(self.complete_cookie(cookie));
                continue;
            }
            if pending.attempts >= self.config.retry_budget {
                self.kill_rail(now, rail);
                match self.live_rail_for(pending.dst) {
                    // Restart the attempt budget on the surviving rail.
                    Some(live) => self.retransmit(ctx, cookie, pending, live, 1),
                    None => {
                        let done = self.complete_cookie(cookie);
                        self.metrics.lost_msgs += done.len() as u64;
                        completed.extend(done);
                    }
                }
            } else {
                let attempts = pending.attempts + 1;
                self.retransmit(ctx, cookie, pending, rail, attempts);
            }
        }
        self.arm_retx_timer(ctx);
        completed
    }

    /// Re-send a timed-out packet's chunks on `rail_idx` under fresh
    /// cookies, re-chunked for the target driver's capabilities. The
    /// original commit accounting in the collect layer is reused — chunks
    /// are never re-committed — so completion stays exactly-once.
    fn retransmit(
        &mut self,
        ctx: &mut SimCtx<'_>,
        old_cookie: u64,
        pending: PendingTx,
        rail_idx: usize,
        attempts: u32,
    ) {
        let now = ctx.now();
        // The old cookie's completion is superseded by the new cookies'.
        self.inflight.remove(&old_cookie);
        let packets = {
            let rail = &self.rails[rail_idx];
            plan_retransmit(&pending.chunks, rail.driver.capabilities(), rail.wire_mtu)
        };
        let deadline = now + RetransmitTracker::backoff(self.config.retransmit_timeout, attempts);
        for chunk_list in packets {
            let wire_chunks = wire_chunks_for(&self.collect, &chunk_list);
            let class = wire_chunks[0].header.class;
            let cookie = self.next_cookie;
            self.next_cookie += 1;
            let submitted = {
                let rail = &self.rails[rail_idx];
                let dst_nic = *rail
                    .peers
                    .get(&pending.dst)
                    .expect("retransmit rail reaches destination");
                let total: u64 = chunk_list.iter().map(|c| u64::from(c.len)).sum::<u64>()
                    + framing_bytes(chunk_list.len());
                let host_prep = if pending.linearize {
                    rail.driver.cost_model().copy_time(total)
                } else {
                    simnet::SimDuration::ZERO
                };
                rail.driver.submit(
                    ctx,
                    TransferRequest {
                        dst_nic,
                        vchan: rail.classmap.vchan_for(class),
                        kind: KIND_DATA,
                        cookie,
                        mode: ModeSel::Auto,
                        host_prep,
                        segments: encode_packet(&wire_chunks, pending.linearize),
                    },
                )
            };
            match submitted {
                Ok(()) => {
                    self.metrics.retransmits += 1;
                    self.trace.push(
                        now,
                        EngineEvent::Retransmit {
                            old_cookie,
                            new_cookie: cookie,
                            rail: rail_idx as u16,
                            attempt: attempts,
                        },
                    );
                }
                // Queue full: the packet never left; the deadline sweep
                // picks the (still-tracked) cookie up again.
                Err(nicdrv::DriverError::Nic(simnet::SubmitError::QueueFull)) => {}
                Err(_) => {
                    self.metrics.driver_rejections += 1;
                    self.note_fault(now, FlightTrigger::DriverRejection);
                }
            }
            self.inflight.insert(cookie, chunk_list.clone());
            self.retx.track(
                cookie,
                PendingTx {
                    chunks: chunk_list,
                    dst: pending.dst,
                    rail: rail_idx,
                    linearize: pending.linearize,
                    sent_at: now,
                    deadline,
                    attempts,
                },
            );
        }
    }

    /// Register every metric source this engine owns — engine counters,
    /// receiver stats and (when enabled) the madscope sampler digest —
    /// under `prefix` (e.g. `""` or `"node0/"`). This is the **single**
    /// place engine gauges join a registry: [`EngineCore::metrics_registry`],
    /// [`EngineHandle::metrics_registry`] and the cluster harness all call
    /// it, so a new madscope gauge registers exactly once, everywhere.
    pub fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.add_engine(&format!("{prefix}engine"), &self.metrics);
        reg.add_receiver(&format!("{prefix}receiver"), &self.receiver.stats);
        if let Some(s) = &self.sampler {
            reg.add_section(&format!("{prefix}sampler"), s.to_json());
        }
        if self.trace.is_enabled() {
            // Ring health next to the data it guards: a non-zero `dropped`
            // means every post-hoc trace consumer (madprof included) saw a
            // truncated stream.
            reg.add_section(
                &format!("{prefix}trace"),
                obj()
                    .field("retained", self.trace.len() as u64)
                    .field("dropped", self.trace.dropped())
                    .field("capacity", self.trace.capacity() as u64)
                    .build(),
            );
        }
    }

    /// Walk this engine's metric sources (engine counters, receiver stats,
    /// sampler digest) into one [`MetricsRegistry`]. NIC stats live in the
    /// simulator and are appended by the harness, which can see them.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.register_metrics(&mut reg, "");
        reg
    }

    /// True when nothing is pending: no backlog, no in-flight packets, no
    /// unacked data, no queued control messages.
    fn drained(&self) -> bool {
        self.collect.is_empty()
            && self.inflight.is_empty()
            && self.retx.is_empty()
            && self.pending_ctrl.is_empty()
    }

    /// Re-arm the sampler tick timer if a sampler is installed and its
    /// timer went to sleep. One `Option` branch when sampling is off;
    /// called from the submit and receive paths so traffic wakes a
    /// sleeping sampler.
    #[inline]
    fn wake_sampler(&mut self, ctx: &mut SimCtx<'_>) {
        if let Some(s) = self.sampler.as_mut() {
            if !s.is_armed() {
                s.set_armed(true);
                ctx.set_timer(s.tick(), SAMPLER_TAG);
            }
        }
    }

    /// One madscope sampler tick: snapshot backlog/occupancy/counters and
    /// per-rail state into the ring, then re-arm unless the engine has
    /// been drained long enough for the timer to sleep (preserving
    /// quiescence of idle simulations).
    fn on_sampler_tick(&mut self, ctx: &mut SimCtx<'_>) {
        if self.sampler.is_none() {
            return;
        }
        let drained = self.drained();
        let stats = TickStats {
            backlog_bytes: self.collect.backlog_bytes(),
            backlog_msgs: self.collect.pending_msgs(),
            inflight_pkts: self.inflight.len() as u64,
            retx_pending: self.retx.len() as u64,
            submitted_msgs: self.metrics.submitted_msgs,
            delivered_msgs: self.metrics.delivered_msgs,
            packets_sent: self.metrics.packets_sent,
            plans_evaluated: self.metrics.plans_evaluated,
            strategy_wins: self.metrics.strategy_wins.values().sum(),
        };
        let rails: Vec<RailTick> = (0..self.rails.len())
            .map(|r| RailTick {
                busy: !self.rails[r].driver.is_idle(ctx),
                health_milli: (self.rail_health[r].score() * 1000.0).round() as u32,
                dead: self.rail_health[r].is_dead(),
            })
            .collect();
        let Some(s) = self.sampler.as_mut() else {
            return;
        };
        if s.record_tick(ctx.now(), stats, &rails, drained) {
            ctx.set_timer(s.tick(), SAMPLER_TAG);
        } else {
            s.set_armed(false);
        }
    }

    /// Human-readable snapshot of the engine's state, for debugging stuck
    /// workloads: backlog, in-flight packets, pending control messages,
    /// trace/health status, per-strategy win counts and headline metrics.
    pub fn debug_report(&self) -> String {
        let m = &self.metrics;
        let mut out = format!(
            "engine@{:?}: {} rails, policy {:?}\n             backlog: {} bytes in {} flows; inflight packets: {}; pending ctrl: {}\n             submitted {} msgs / delivered {} msgs; {} packets ({:.2} chunks/pkt)\n             activations: {} idle / {} submit / {} timer; plans {} evaluated / {} submitted\n",
            self.node,
            self.rails.len(),
            self.policy.kind(),
            self.collect.backlog_bytes(),
            self.collect.flows().len(),
            self.inflight.len(),
            self.pending_ctrl.len(),
            m.submitted_msgs,
            m.delivered_msgs,
            m.packets_sent,
            m.aggregation_ratio(),
            m.activations_idle,
            m.activations_submit,
            m.activations_timer,
            m.plans_evaluated,
            m.plans_submitted,
        );
        if m.latency.count() > 0 {
            out.push_str(&format!(
                "             latency us: p50={:.1} p90={:.1} p99={:.1} max={:.1}; queue delay p99={:.1}us; decision evals p99={}\n",
                m.latency.quantile(0.5).as_micros_f64(),
                m.latency.quantile(0.9).as_micros_f64(),
                m.latency.quantile(0.99).as_micros_f64(),
                m.latency.summary().max(),
                m.queue_delay.quantile(0.99).as_micros_f64(),
                m.decision_evals.quantile(0.99),
            ));
        }
        if self.trace.is_enabled() {
            out.push_str(&format!(
                "             trace: {}/{} events retained, {} dropped\n",
                self.trace.len(),
                self.trace.capacity(),
                self.trace.dropped(),
            ));
        } else {
            out.push_str("             trace: disabled\n");
        }
        match &self.sampler {
            Some(s) => out.push_str(&format!(
                "             sampler: {}/{} rows retained, {} dropped, tick {}us, {}\n",
                s.len(),
                s.capacity(),
                s.dropped(),
                s.tick().as_micros_f64(),
                if s.is_armed() { "armed" } else { "sleeping" },
            )),
            None => out.push_str("             sampler: disabled\n"),
        }
        out.push_str(&format!(
            "             health: proto_errors={} driver_rejections={} express_violations={} class_clamped={}; flight recorder {}\n",
            m.proto_errors,
            m.driver_rejections,
            self.receiver.stats.express_violations,
            m.class_clamped,
            match &self.flight {
                Some(d) => format!("fired({} @ {})", d.trigger.label(), d.at),
                None => "armed".to_string(),
            },
        ));
        out.push_str(&format!(
            "             faults: express_violation={} driver_rejection={} proto_error={} timeout={}\n",
            self.fault_counts[0], self.fault_counts[1], self.fault_counts[2], self.fault_counts[3],
        ));
        out.push_str(&format!(
            "             madflow: {} active / {} total flows, {} pending msgs, fairness {:?}, admission {}; blocked={} rejected={} shed={} unblocked={} deliveries_dropped={}\n",
            self.collect.index().active_count(),
            self.collect.flows().len(),
            self.collect.pending_msgs(),
            self.config.fairness,
            if self.config.admission.enabled() { "on" } else { "off" },
            m.blocked_sends,
            m.rejected_sends,
            m.shed_msgs,
            m.unblocked_events,
            m.deliveries_dropped,
        ));
        if self.config.reliability.acks_enabled() {
            out.push_str(&format!(
                "             madrel({:?}): {} unacked; timeouts={} retransmits={} acks={} lost={} rails_dead={}\n",
                self.config.reliability,
                self.retx.len(),
                m.timeouts,
                m.retransmits,
                m.acks_received,
                m.lost_msgs,
                m.rails_dead,
            ));
            for (r, h) in self.rail_health.iter().enumerate() {
                out.push_str(&format!(
                    "               rail {r}: score={:.3}{}{} acks={} timeouts={} cong={:.3} marks={}\n",
                    h.score(),
                    if h.is_degraded() { " DEGRADED" } else { "" },
                    if h.is_dead() { " DEAD" } else { "" },
                    h.acks(),
                    h.timeouts(),
                    h.congestion(),
                    h.ecn_marks(),
                ));
            }
        }
        if !m.strategy_wins.is_empty() {
            out.push_str("strategy wins:");
            for (name, wins) in &m.strategy_wins {
                out.push_str(&format!(" {name}={wins}"));
            }
            out.push('\n');
        }
        // O(active) walk, capped so a 100k-flow stall doesn't produce a
        // 100k-line report.
        const MAX_FLOW_LINES: usize = 16;
        for id in self.collect.active_flow_ids().take(MAX_FLOW_LINES) {
            let fs = self.collect.flow(id);
            out.push_str(&format!(
                "  {}: {} pending messages toward {:?}\n",
                fs.id,
                fs.queue.len(),
                fs.dst
            ));
        }
        let active = self.collect.index().active_count();
        if active > MAX_FLOW_LINES {
            out.push_str(&format!(
                "  ... and {} more active flows\n",
                active - MAX_FLOW_LINES
            ));
        }
        out
    }
}

/// Stamp one wire chunk per planned chunk from its live message — the
/// header (class, submission time, fragment geometry) and a zero-copy
/// slice of the payload.
///
/// # Panics
/// Panics when a chunk names a message no longer pending: plans are
/// validated and retransmits only cover unacknowledged, still-queued data.
fn wire_chunks_for(collect: &CollectLayer, chunks: &[PlannedChunk]) -> Vec<WireChunk> {
    chunks
        .iter()
        .map(|c| {
            let msg = collect
                .find_msg(c.flow, c.seq)
                .expect("planned chunk references live message");
            let frag = &msg.frags[c.frag as usize];
            WireChunk {
                header: make_header(
                    c.flow,
                    c.seq,
                    c.frag,
                    msg.frags.len() as u16,
                    frag.mode == crate::message::PackMode::Express,
                    msg.class,
                    frag.len(),
                    c.offset,
                    c.len,
                    msg.submitted_at,
                ),
                data: frag
                    .data
                    .slice(c.offset as usize..(c.offset + c.len) as usize),
            }
        })
        .collect()
}

/// The [`CommApi`] view handed to application callbacks.
pub struct MadApi<'a, 'b> {
    core: &'a mut EngineCore,
    ctx: &'a mut SimCtx<'b>,
}

impl CommApi for MadApi<'_, '_> {
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

    fn try_send(&mut self, flow: FlowId, parts: Vec<Fragment>) -> SendOutcome {
        self.core.try_send(self.ctx, flow, parts)
    }

    fn set_timer(&mut self, delay: simnet::SimDuration, tag: u64) {
        assert!(tag < INTERNAL_TAG_BASE, "timer tags >= 2^62 are reserved");
        self.ctx.set_timer(delay, tag);
    }

    fn flush(&mut self) {
        self.core.flush(self.ctx);
    }

    fn note_event(&mut self, event: EngineEvent) {
        self.core.trace.push(self.ctx.now(), event);
    }
}

/// The optimizing engine, installed as a node's [`Endpoint`].
pub struct MadEngine {
    core: Rc<RefCell<EngineCore>>,
    app: Option<Box<dyn AppDriver>>,
}

/// A cloneable handle onto a (possibly running) engine, used by tests,
/// examples and the experiment harness to submit traffic and read state.
#[derive(Clone)]
pub struct EngineHandle {
    core: Rc<RefCell<EngineCore>>,
}

/// Builder for [`MadEngine`].
pub struct EngineBuilder {
    node: NodeId,
    config: EngineConfig,
    policy_kind: PolicyKind,
    rails: Vec<(SimDriver, u64)>,
    peer_nics: Vec<(NodeId, Vec<NicId>)>,
    app: Option<Box<dyn AppDriver>>,
    extra_strategies: Vec<Box<dyn Strategy>>,
}

impl EngineBuilder {
    /// Start building an engine for `node`.
    pub fn new(node: NodeId) -> Self {
        EngineBuilder {
            node,
            config: EngineConfig::default(),
            policy_kind: PolicyKind::Pooled,
            rails: Vec::new(),
            peer_nics: Vec::new(),
            app: None,
            extra_strategies: Vec::new(),
        }
    }

    /// Set the engine configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the scheduling policy family.
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy_kind = kind;
        self
    }

    /// Add a rail from an explicit driver and wire MTU.
    pub fn rail(mut self, driver: SimDriver, wire_mtu: u64) -> Self {
        self.rails.push((driver, wire_mtu));
        self
    }

    /// Add a rail using a technology's calibrated driver and MTU.
    pub fn rail_tech(self, tech: Technology, nic: NicId) -> Self {
        let mtu = nicdrv::calib::params(tech).mtu;
        self.rail(nicdrv::calib::driver(tech, nic), mtu)
    }

    /// Register a peer's NIC addresses, one per rail in rail order.
    pub fn peer(mut self, node: NodeId, nics: Vec<NicId>) -> Self {
        self.peer_nics.push((node, nics));
        self
    }

    /// Install the application/middleware stack.
    pub fn app(mut self, app: Box<dyn AppDriver>) -> Self {
        self.app = Some(app);
        self
    }

    /// Register an additional optimization strategy (consulted after the
    /// predefined database).
    pub fn strategy(mut self, s: Box<dyn Strategy>) -> Self {
        self.extra_strategies.push(s);
        self
    }

    /// Build the engine and its handle.
    pub fn build(self) -> Result<(MadEngine, EngineHandle), EngineError> {
        self.config.validate().map_err(EngineError::Config)?;
        if self.rails.is_empty() {
            return Err(EngineError::Config("engine needs at least one rail".into()));
        }
        let mut registry = StrategyRegistry::standard(&self.config);
        for s in self.extra_strategies {
            registry.register(s);
        }
        let mut rails = Vec::with_capacity(self.rails.len());
        let mut nic_to_rail = HashMap::new();
        for (idx, (driver, wire_mtu)) in self.rails.into_iter().enumerate() {
            nic_to_rail.insert(driver.nic(), idx);
            let classmap = ClassMap::new(driver.capabilities().vchannels);
            rails.push(Rail {
                driver,
                classmap,
                wire_mtu,
                peers: HashMap::new(),
            });
        }
        for (peer, nics) in self.peer_nics {
            if nics.len() != rails.len() {
                return Err(EngineError::Config(format!(
                    "peer {peer:?} supplied {} NICs for {} rails",
                    nics.len(),
                    rails.len()
                )));
            }
            for (rail, nic) in rails.iter_mut().zip(nics) {
                rail.peers.insert(peer, nic);
            }
        }
        let policy = RailPolicy::new(self.policy_kind, rails.len());
        let rail_health = vec![RailHealth::new(); rails.len()];
        let mut collect = CollectLayer::new();
        if self.config.fairness == FairnessMode::Drr {
            collect.set_fairness(
                FairnessMode::Drr,
                self.config.drr_quantum,
                self.config.class_weights,
            );
        }
        let core = Rc::new(RefCell::new(EngineCore {
            node: self.node,
            config: self.config,
            rails,
            nic_to_rail,
            policy,
            registry,
            collect,
            receiver: Receiver::new(),
            inflight: BTreeMap::new(),
            next_cookie: 1,
            retx: RetransmitTracker::new(),
            rail_health,
            fault_counts: [0; 4],
            nagle_armed: false,
            nagle_timer: None,
            adaptive_idle_epochs: 0,
            adaptive_sleeping: true,
            pending_ctrl: VecDeque::new(),
            metrics: EngineMetrics::default(),
            delivered: VecDeque::new(),
            admission_state: AdmissionState::default(),
            newly_unblocked: Vec::new(),
            trace: EventSink::disabled(),
            next_activation: 0,
            sampler: None,
            flight: None,
        }));
        let handle = EngineHandle { core: core.clone() };
        Ok((
            MadEngine {
                core,
                app: self.app,
            },
            handle,
        ))
    }
}

impl MadEngine {
    /// Start building an engine for `node`.
    pub fn builder(node: NodeId) -> EngineBuilder {
        EngineBuilder::new(node)
    }

    fn with_app(
        &mut self,
        ctx: &mut SimCtx<'_>,
        f: impl FnOnce(&mut dyn AppDriver, &mut MadApi<'_, '_>),
    ) {
        if let Some(mut app) = self.app.take() {
            {
                let mut core = self.core.borrow_mut();
                let mut api = MadApi {
                    core: &mut core,
                    ctx,
                };
                f(app.as_mut(), &mut api);
            }
            self.app = Some(app);
        }
    }

    /// Deliver queued madflow `on_unblocked` callbacks. Must be called
    /// with the core borrow released; drains until quiet so callbacks
    /// whose retries trigger further releases are also delivered.
    fn notify_unblocked(&mut self, ctx: &mut SimCtx<'_>) {
        loop {
            let pending = self.core.borrow_mut().take_unblocked();
            if pending.is_empty() {
                return;
            }
            self.with_app(ctx, |app, api| {
                for class in pending {
                    app.on_unblocked(api, class);
                }
            });
        }
    }
}

impl Endpoint for MadEngine {
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
        {
            let mut core = self.core.borrow_mut();
            if core.policy.kind() == PolicyKind::Adaptive {
                let epoch = core.config.adaptive_epoch;
                core.adaptive_sleeping = false;
                ctx.set_timer(epoch, ADAPTIVE_TAG);
            }
            core.wake_sampler(ctx);
        }
        self.with_app(ctx, |app, api| app.on_start(api));
    }

    fn on_tx_done(&mut self, ctx: &mut SimCtx<'_>, _nic: NicId, cookie: u64) {
        let completed = {
            let mut core = self.core.borrow_mut();
            // madrel: a tracked packet completes on its *ack*, not on
            // injection — `tx_done` for it only frees queue space. (The
            // lossless seed behavior is the untracked branch.)
            let completed = if core.retx.is_pending(cookie) {
                Vec::new()
            } else {
                core.complete_cookie(cookie)
            };
            core.flush_ctrl(ctx);
            completed
        };
        if !completed.is_empty() {
            self.with_app(ctx, |app, api| {
                for id in completed {
                    app.on_sent(api, id);
                }
            });
        }
        self.notify_unblocked(ctx);
    }

    fn on_nic_idle(&mut self, ctx: &mut SimCtx<'_>, nic: NicId) {
        {
            let mut core = self.core.borrow_mut();
            if let Some(rail) = core.rail_of(nic) {
                if core.congestion_gated(rail) {
                    // Hand the activation to healthier rails instead of
                    // pulling backlog onto a marked fabric path.
                    core.metrics.congestion_gated += 1;
                    core.optimize_all_idle(ctx, Activation::NicIdle);
                } else {
                    core.optimize_rail(ctx, rail, Activation::NicIdle);
                }
            }
        }
        self.notify_unblocked(ctx);
    }

    fn on_packet_rx(&mut self, ctx: &mut SimCtx<'_>, nic: NicId, pkt: WirePacket) {
        let (deliveries, sent) = self.core.borrow_mut().handle_packet(ctx, nic, pkt);
        if !deliveries.is_empty() || !sent.is_empty() {
            self.with_app(ctx, |app, api| {
                for d in &deliveries {
                    app.on_message(api, d);
                }
                for id in sent {
                    app.on_sent(api, id);
                }
            });
        }
        self.notify_unblocked(ctx);
    }

    fn on_timer(&mut self, ctx: &mut SimCtx<'_>, _timer: TimerId, tag: u64) {
        match tag {
            RETX_TAG => {
                let completed = self.core.borrow_mut().on_retx_timer(ctx);
                if !completed.is_empty() {
                    self.with_app(ctx, |app, api| {
                        for id in completed {
                            app.on_sent(api, id);
                        }
                    });
                }
            }
            NAGLE_TAG => {
                let mut core = self.core.borrow_mut();
                core.nagle_armed = false;
                core.nagle_timer = None;
                core.optimize_all_idle(ctx, Activation::Timer);
            }
            SAMPLER_TAG => self.core.borrow_mut().on_sampler_tick(ctx),
            ADAPTIVE_TAG => {
                let mut core = self.core.borrow_mut();
                let traffic = core.policy.epoch_traffic();
                core.policy.rebalance();
                if traffic == 0 {
                    core.adaptive_idle_epochs += 1;
                } else {
                    core.adaptive_idle_epochs = 0;
                }
                // After two silent epochs the timer sleeps so the event
                // queue can drain; the next submission re-arms it.
                if core.adaptive_idle_epochs >= 2 {
                    core.adaptive_sleeping = true;
                } else {
                    let epoch = core.config.adaptive_epoch;
                    drop(core);
                    ctx.set_timer(epoch, ADAPTIVE_TAG);
                }
            }
            t => self.with_app(ctx, |app, api| app.on_timer(api, t)),
        }
        self.notify_unblocked(ctx);
    }
}

impl EngineHandle {
    /// The node this engine runs on.
    pub fn node(&self) -> NodeId {
        self.core.borrow().node
    }

    /// Snapshot of the engine's metrics.
    pub fn metrics(&self) -> EngineMetrics {
        self.core.borrow().metrics.clone()
    }

    /// Snapshot of receive-side statistics.
    pub fn receiver_stats(&self) -> ReceiverStats {
        self.core.borrow().receiver.stats.clone()
    }

    /// Drain the recorded delivered messages.
    pub fn take_delivered(&self) -> Vec<DeliveredMessage> {
        self.core.borrow_mut().delivered.drain(..).collect()
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.core.borrow().metrics.delivered_msgs
    }

    /// Uncommitted backlog bytes in the collect layer.
    pub fn backlog_bytes(&self) -> u64 {
        self.core.borrow().collect.backlog_bytes()
    }

    /// Open a flow toward `dst` (must be a registered peer).
    pub fn open_flow(&self, dst: NodeId, class: TrafficClass) -> FlowId {
        self.core.borrow_mut().open_flow(dst, class)
    }

    /// Submit a packed message (from outside the event loop, via
    /// [`simnet::Simulation::inject`]).
    pub fn send(&self, ctx: &mut SimCtx<'_>, flow: FlowId, parts: Vec<Fragment>) -> MsgId {
        self.core.borrow_mut().send(ctx, flow, parts)
    }

    /// Submit a packed message under madflow admission control, returning
    /// the typed outcome instead of panicking under backpressure.
    pub fn try_send(
        &self,
        ctx: &mut SimCtx<'_>,
        flow: FlowId,
        parts: Vec<Fragment>,
    ) -> SendOutcome {
        self.core.borrow_mut().try_send(ctx, flow, parts)
    }

    /// Pin a traffic class to a rail subset (ClassPinned policy).
    pub fn pin_class(&self, class: TrafficClass, rails: &[usize]) {
        self.core.borrow_mut().policy.pin_class(class, rails);
    }

    /// Switch the scheduling policy family at runtime (§2).
    pub fn switch_policy(&self, kind: PolicyKind) {
        self.core.borrow_mut().policy.switch_kind(kind);
    }

    /// Collapse all traffic classes onto one virtual channel on every rail
    /// (the "no class separation" baseline of experiment E6).
    pub fn collapse_classes(&self) {
        for rail in &mut self.core.borrow_mut().rails {
            rail.classmap.collapse();
        }
    }

    /// Reassign a class to a virtual channel on one rail.
    pub fn set_class_vchan(&self, rail: usize, class: TrafficClass, vchan: u8) -> bool {
        self.core.borrow_mut().rails[rail]
            .classmap
            .assign(class, vchan)
    }

    /// Names of registered strategies, in consultation order.
    pub fn strategy_names(&self) -> Vec<&'static str> {
        self.core.borrow().registry.names()
    }

    /// Number of adaptive-policy rebalances performed.
    pub fn rebalances(&self) -> u64 {
        self.core.borrow().policy.rebalances()
    }

    /// Force-push pending traffic from outside the event loop.
    pub fn flush(&self, ctx: &mut SimCtx<'_>) {
        self.core.borrow_mut().flush(ctx);
    }

    /// True when nothing is pending: no backlog, no in-flight packets, no
    /// queued control messages.
    pub fn is_drained(&self) -> bool {
        let core = self.core.borrow();
        core.collect.is_empty() && core.inflight.is_empty() && core.pending_ctrl.is_empty()
    }

    /// Human-readable snapshot of the engine's state, for debugging stuck
    /// workloads: backlog, in-flight packets, pending control messages,
    /// trace/health status, per-strategy win counts and headline metrics.
    pub fn debug_report(&self) -> String {
        self.core.borrow().debug_report()
    }

    /// Enable the structured madtrace event sink with a bounded ring of
    /// `capacity` records (replacing any previous sink and its contents).
    pub fn enable_trace(&self, capacity: usize) {
        self.core.borrow_mut().trace = EventSink::with_capacity(capacity);
    }

    /// Clone of the engine's event sink (records, drop count, state).
    pub fn trace_snapshot(&self) -> EventSink {
        self.core.borrow().trace.clone()
    }

    /// The flight recorder's capture, if a fault has fired it.
    pub fn flight_dump(&self) -> Option<FlightDump> {
        self.core.borrow().flight.clone()
    }

    /// Walk this engine's metric sources into one [`MetricsRegistry`]
    /// (engine counters + receiver stats + sampler digest; the harness
    /// appends NIC stats).
    pub fn metrics_registry(&self) -> MetricsRegistry {
        self.core.borrow().metrics_registry()
    }

    /// Register this engine's metric sources into an existing registry
    /// under `prefix` (the single registration path; see
    /// [`EngineCore::register_metrics`]).
    pub fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        self.core.borrow().register_metrics(reg, prefix);
    }

    /// madscope: install a time-series sampler ticking every `tick` of
    /// virtual time into a ring of `capacity` rows (replacing any previous
    /// sampler and its contents). Effective immediately when the engine is
    /// already running — the next submission or received packet arms the
    /// tick timer; enabling before the run starts arms it at `on_start`.
    pub fn enable_sampler(&self, tick: simnet::SimDuration, capacity: usize) {
        let mut core = self.core.borrow_mut();
        let rails = core.rails.len();
        core.sampler = Some(Sampler::new(tick, capacity, rails));
    }

    /// madscope: clone of the sampler state (rows, drop accounting), or
    /// `None` when sampling is disabled.
    pub fn sampler_snapshot(&self) -> Option<Sampler> {
        self.core.borrow().sampler.clone()
    }

    /// madscope: the sampler ring as deterministic CSV, or `None` when
    /// sampling is disabled.
    pub fn sampler_csv(&self) -> Option<String> {
        self.core.borrow().sampler.as_ref().map(Sampler::csv)
    }

    /// madscope: this engine's metrics registry rendered as Prometheus
    /// text exposition format.
    pub fn prometheus_text(&self) -> String {
        crate::scope::prometheus_render(&self.metrics_registry())
    }

    /// Test hook: feed a raw wire packet straight into the receive path,
    /// as if it had arrived on `nic`. Deliveries bypass the application
    /// driver; used to exercise fault handling (e.g. the flight recorder
    /// on protocol errors) deterministically.
    pub fn inject_packet(&self, ctx: &mut SimCtx<'_>, nic: NicId, pkt: WirePacket) {
        let _ = self.core.borrow_mut().handle_packet(ctx, nic, pkt);
    }

    /// madrel: health snapshot of one rail as `(score, degraded, dead)`.
    pub fn rail_health(&self, rail: usize) -> (f64, bool, bool) {
        let core = self.core.borrow();
        let h = &core.rail_health[rail];
        (h.score(), h.is_degraded(), h.is_dead())
    }

    /// madrel: number of data packets currently awaiting acknowledgement.
    pub fn unacked_packets(&self) -> usize {
        self.core.borrow().retx.len()
    }

    /// Per-kind fault observation counts:
    /// `[express_violation, driver_rejection, proto_error, timeout]`.
    pub fn fault_counts(&self) -> [u64; 4] {
        self.core.borrow().fault_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageBuilder;
    use simnet::{NetworkParams, Simulation};

    fn sim_with_two_nics() -> (Simulation, NodeId, NicId, NicId) {
        let mut sim = Simulation::new();
        let net = sim.add_network(NetworkParams::synthetic());
        let a = sim.add_node();
        let b = sim.add_node();
        let na = sim.add_nic(a, net);
        let nb = sim.add_nic(b, net);
        (sim, a, na, nb)
    }

    fn driver(nic: NicId) -> SimDriver {
        SimDriver::new(
            nic,
            nicdrv::calib::synthetic_capabilities(),
            nicdrv::CostModel::from_params(&NetworkParams::synthetic()),
        )
    }

    #[test]
    fn builder_rejects_no_rails() {
        let r = MadEngine::builder(NodeId(0)).build();
        assert!(matches!(r, Err(EngineError::Config(_))));
    }

    #[test]
    fn builder_rejects_peer_rail_mismatch() {
        let (_sim, a, na, nb) = sim_with_two_nics();
        let r = MadEngine::builder(a)
            .rail(driver(na), 1 << 20)
            .peer(NodeId(1), vec![nb, nb]) // two NICs for one rail
            .build();
        assert!(matches!(r, Err(EngineError::Config(_))));
    }

    #[test]
    fn builder_rejects_invalid_config() {
        let (_sim, a, na, _nb) = sim_with_two_nics();
        let r = MadEngine::builder(a)
            .rail(driver(na), 1 << 20)
            .config(EngineConfig::default().with_window(0))
            .build();
        assert!(matches!(r, Err(EngineError::Config(_))));
    }

    #[test]
    #[should_panic(expected = "not a registered peer")]
    fn open_flow_to_unknown_peer_fails_fast() {
        let (_sim, a, na, _nb) = sim_with_two_nics();
        let (_engine, handle) = MadEngine::builder(a)
            .rail(driver(na), 1 << 20)
            .build()
            .unwrap();
        // No peers registered: the topology bug surfaces immediately.
        let _ = handle.open_flow(NodeId(1), TrafficClass::DEFAULT);
    }

    #[test]
    fn handle_exposes_strategy_names_and_node() {
        let (_sim, a, na, nb) = sim_with_two_nics();
        let (_engine, handle) = MadEngine::builder(a)
            .rail(driver(na), 1 << 20)
            .peer(NodeId(1), vec![nb])
            .build()
            .unwrap();
        assert_eq!(handle.node(), a);
        let names = handle.strategy_names();
        assert!(names.contains(&"aggregate"));
        assert!(names.contains(&"fifo"));
        assert_eq!(handle.backlog_bytes(), 0);
        assert_eq!(handle.delivered_count(), 0);
    }

    #[test]
    fn send_requires_fragments() {
        let (mut sim, a, na, nb) = sim_with_two_nics();
        let (engine, handle) = MadEngine::builder(a)
            .rail(driver(na), 1 << 20)
            .peer(NodeId(1), vec![nb])
            .build()
            .unwrap();
        sim.set_endpoint(a, Box::new(engine));
        let f = handle.open_flow(NodeId(1), TrafficClass::DEFAULT);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.inject(a, |ctx| handle.send(ctx, f, vec![]));
        }));
        assert!(result.is_err(), "empty message must panic");
    }

    #[test]
    fn metrics_snapshot_reflects_submissions() {
        let (mut sim, a, na, nb) = sim_with_two_nics();
        let (engine, handle) = MadEngine::builder(a)
            .rail(driver(na), 1 << 20)
            .peer(NodeId(1), vec![nb])
            .build()
            .unwrap();
        sim.set_endpoint(a, Box::new(engine));
        let f = handle.open_flow(NodeId(1), TrafficClass::DEFAULT);
        sim.inject(a, |ctx| {
            handle.send(
                ctx,
                f,
                MessageBuilder::new().pack_cheaper(&[1; 64]).build_parts(),
            );
        });
        let m = handle.metrics();
        assert_eq!(m.submitted_msgs, 1);
        assert_eq!(m.submitted_bytes, 64);
        assert_eq!(m.activations_submit, 1);
    }
}

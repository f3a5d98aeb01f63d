//! The optimizing communication engine: Figure 1 assembled.
//!
//! ```text
//!   Application / middlewares           (AppDriver, CommApi)
//!        │ submit: Admission decides, enqueue & return
//!   ┌────▼─────────────────────────┐
//!   │ Collect layer  (collect.rs)  │  CollectLayer: per-flow waiting-packet lists
//!   ├──────────────────────────────┤
//!   │ OPTIMIZER – SCHEDULER        │  Optimizer: activated on NIC-idle events,
//!   │ (optimizer.rs, strategy/*)   │  strategies × cost model × budget
//!   ├──────────────────────────────┤
//!   │ Transfer layer (transfer.rs, │  Transfer: capability-validated submissions;
//!   │ reliability.rs) over nicdrv  │  Reliability: packets in flight, acks, retransmits
//!   └──────────────────────────────┘
//!        │ simulated NICs (simnet)        each layer reports to the one Observer
//! ```
//!
//! [`MadEngine`] implements [`simnet::Endpoint`]; the optimizer runs inside
//! `on_nic_idle` — the paper's central mechanism — plus the submit-time and
//! Nagle-timer activations of §3. Each layer is a plain struct that owns
//! its state; [`EngineCore`] holds them and this file keeps only what *is*
//! the figure: the submit path, the collect → select → transfer loop, the
//! receive dispatch, and the endpoint, builder and handle around them.
//! Tests and harnesses hold an [`EngineHandle`] onto a running engine.

// madlint: file: hot-path
// madlint: file: deterministic-output
// madlint: file: trace-covered

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use nicdrv::{Driver, DriverError, SimDriver};
use simnet::{
    Endpoint, NicId, NodeId, SimCtx, SimTime, SubmitError, Technology, TimerId, WirePacket,
};

use crate::api::{
    AppDriver, CommApi, ADAPTIVE_TAG, INTERNAL_TAG_BASE, NAGLE_TAG, RETX_TAG, SAMPLER_TAG,
};
use crate::collect::CollectLayer;
use crate::config::EngineConfig;
use crate::cost::packet_limit;
use crate::error::EngineError;
use crate::flowmgr::{Admission, FairnessMode, SendOutcome};
use crate::ids::{ChannelId, FlowId, MsgId, MsgSeq, TrafficClass};
use crate::legacy::{LegacyEngine, LegacyHandle};
use crate::message::{DeliveredMessage, Fragment};
use crate::metrics::{Activation, EngineMetrics, MetricsRegistry};
use crate::observer::{submitted_events, EngineView, Observer};
use crate::optimizer::{select_plan_in, Optimizer};
use crate::plan::{PlanBody, TransferPlan};
use crate::policy::{PolicyKind, RailPolicy};
use crate::proto::{
    ack_header_ecn, cancel_header, decode_ack_ecn, decode_packet_into, decode_rndv, DecodedChunk,
    ProtoError, KIND_ACK, KIND_CTRL, KIND_DATA, KIND_RNDV_ACK, KIND_RNDV_REQ,
};
use crate::receiver::{DeliveredRing, Receiver, ReceiverStats};
use crate::reliability::{
    plan_retransmit, Attempt, Expiry, Launched, PendingTx, Reliability, RequestKey,
};
use crate::scope::Sampler;
use crate::strategy::{OptContext, Strategy, StrategyRegistry};
use crate::trace::{EngineEvent, EventSink, FlightDump};
use crate::transfer::{
    assert_reachable, build_rails, chunk_header, rail_of, Transfer, CTRL_COOKIE,
};

/// The engine's mutable state (shared behind an [`EngineHandle`]): the
/// layers of Figure 1, each owning its own.
// madlint: send-sync — sharded across madpar workers; interior
// mutability belongs on MadEngine/EngineHandle, not here
pub struct EngineCore {
    node: NodeId,
    config: EngineConfig,
    collect: CollectLayer,
    receiver: Receiver,
    admission: Admission,
    opt: Optimizer,
    transfer: Transfer,
    rel: Reliability,
    obs: Observer,
    /// Delivered messages (retained when `config.record_deliveries`).
    delivered: DeliveredRing,
    /// Buffers the event handlers fill and empty again, kept so that a
    /// packet's worth of results costs no allocation.
    scratch: Scratch,
}

/// [`EngineCore`]'s reusable buffers. `deliveries` and `sent` leave the
/// core while the application's callbacks run (they need the core) and
/// come back through [`EngineCore::recycle`] / [`EngineCore::recycle_sent`].
#[derive(Default)]
struct Scratch {
    /// The rails in pull order, for one sweep over the idle ones.
    rail_order: Vec<usize>,
    /// The chunks of the data packet being received.
    chunks: Vec<DecodedChunk>,
    /// Messages the event being handled made deliverable.
    deliveries: Vec<DeliveredMessage>,
    /// Own messages whose transmission the event being handled completed.
    sent: Vec<MsgId>,
}

/// The sibling layers as the observer reads them. A macro, so the borrows
/// stay per-field and `self.obs` can be borrowed mutably beside it.
macro_rules! view {
    ($core:expr) => {
        EngineView {
            config: &$core.config,
            collect: &$core.collect,
            receiver: &$core.receiver,
            opt: &$core.opt,
            transfer: &$core.transfer,
            rel: &$core.rel,
        }
    };
}

impl EngineCore {
    /// Open a flow toward `dst`, checking that the destination is
    /// reachable (registered as a peer on at least one rail).
    ///
    /// # Panics
    /// Panics when `dst` was never registered via [`EngineBuilder::peer`].
    pub fn open_flow(&mut self, dst: NodeId, class: TrafficClass) -> FlowId {
        assert_reachable(self.transfer.rails(), dst, self.node);
        self.collect.open_flow(dst, class)
    }

    /// Submit a packed message: enqueue into the collect layer and apply
    /// the submit-time activation policy. Returns immediately (§3).
    ///
    /// # Panics
    /// Panics when madflow admission control refuses the submission —
    /// budget-aware callers must use [`EngineCore::try_send`].
    pub fn send(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId, parts: Vec<Fragment>) -> MsgId {
        let outcome = self.try_send(ctx, flow, parts);
        outcome.msg_id().unwrap_or_else(|| {
            panic!("send refused by madflow admission control ({outcome:?}); use try_send")
        })
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
        if !self.admission.enabled() {
            return SendOutcome::Admitted(self.send_admitted(ctx, flow, parts));
        }
        let class = self.collect.flow(flow).class;
        let incoming: u64 = parts.iter().map(|p| p.data.len() as u64).sum();
        let backlog = self.collect.index();
        let need = match self
            .admission
            .decide(class, incoming, backlog, &mut self.obs)
        {
            Ok(need) => need,
            Err(refused) => return refused,
        };
        let mut shed = Vec::new();
        if need > 0 {
            for (sid, bytes) in self.collect.shed_oldest(class, need) {
                let (flow, seq) = (sid.flow, sid.seq.0);
                let event = EngineEvent::Shed {
                    flow,
                    seq,
                    bytes,
                    class,
                };
                self.obs.emit(ctx.now(), event);
                // Tell the receiver the sequence will never arrive, or its
                // per-flow ordered delivery would wait forever at the gap.
                // Rides the control path (queued and retried like
                // rendezvous traffic when the NIC is full).
                let dst = self.collect.flow(flow).dst;
                let rails = self.transfer.rails();
                if let Some(rail) = self.rel.live_rails().find(|&r| rails[r].reaches(dst)) {
                    let cancel = cancel_header(flow, seq, class);
                    let _ = self.transfer.send_ctrl(ctx, rail, dst, KIND_CTRL, cancel);
                }
                shed.push(sid);
            }
        }
        let admitted = self.send_admitted(ctx, flow, parts);
        // Traced only while admission control is active, so the default
        // path stays event-free.
        let event = EngineEvent::Admitted {
            flow: admitted.flow,
            seq: admitted.seq.0,
            bytes: incoming,
            backlog: self.collect.backlog_bytes(),
        };
        self.obs.emit(ctx.now(), event);
        if need > 0 {
            SendOutcome::Shed { admitted, shed }
        } else {
            SendOutcome::Admitted(admitted)
        }
    }

    fn send_admitted(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId, parts: Vec<Fragment>) -> MsgId {
        assert!(!parts.is_empty(), "message must have at least one fragment");
        let class = self.collect.flow(flow).class;
        let rails = self.transfer.rails();
        let threshold = self
            .opt
            .rndv_threshold_for(&self.config, flow, class, rails, &self.rel);
        let m = self.obs.metrics_mut();
        m.submitted_msgs += 1;
        m.submitted_bytes += parts.iter().map(|p| p.data.len() as u64).sum::<u64>();
        self.opt.wake(ctx);
        self.obs.wake(ctx);
        let id = self.collect.submit(flow, parts, ctx.now(), threshold);
        let collect = &self.collect;
        self.obs
            .emit_with(ctx.now(), || submitted_events(collect, id, class));
        let policy = self.opt.policy();
        let any_idle = self
            .rel
            .live_rails()
            .any(|r| policy.eligible(flow, class, r) && rails[r].driver.is_idle(ctx));
        let backlog = self.collect.backlog_bytes();
        if self.opt.on_submit(ctx, &self.config, any_idle, backlog) {
            self.optimize_all_idle(ctx, Activation::Submit);
        }
        id
    }

    /// Force-push pending traffic: run the optimizer on every idle rail
    /// immediately (used by `CommApi::flush`).
    pub fn flush(&mut self, ctx: &mut SimCtx<'_>) {
        if let Some(t) = self.opt.disarm_nagle() {
            ctx.cancel_timer(t);
        }
        self.optimize_all_idle(ctx, Activation::Timer);
    }

    /// Activate every idle live rail, in the reliability layer's pull
    /// order, skipping rails the congestion gate holds back.
    fn optimize_all_idle(&mut self, ctx: &mut SimCtx<'_>, cause: Activation) {
        let mut order = std::mem::take(&mut self.scratch.rail_order);
        let mean_msg = self.collect.backlog_bytes() / self.collect.pending_msgs().max(1);
        self.rel.pull_order(&mut order, mean_msg);
        for &r in &order {
            if self.rel.congestion_gated(r) {
                self.obs.metrics_mut().congestion_gated += 1;
            } else if self.transfer.rails()[r].driver.is_idle(ctx) {
                self.optimize_rail(ctx, r, cause);
            }
        }
        self.scratch.rail_order = order;
    }

    /// One optimizer activation on one rail: repeatedly select and submit
    /// the best plan until the hardware queue fills or the backlog (as
    /// visible to this rail) is exhausted. Every pass works in the
    /// optimizer's scratch, so an activation that finds nothing to send
    /// allocates nothing.
    fn optimize_rail(&mut self, ctx: &mut SimCtx<'_>, rail_idx: usize, cause: Activation) {
        if self.rel.rails()[rail_idx].is_dead() {
            return;
        }
        self.obs.metrics_mut().record_activation(cause);
        let act = self.opt.begin_activation();
        self.transfer.flush_ctrl(ctx);
        let channel = ChannelId(rail_idx as u16);
        // The rearrangement budget bounds scoring work per *activation*
        // (§4): plan evaluations are deducted across the whole refill loop.
        let mut budget = self.config.rearrange_budget;
        let window = self.config.lookahead_window;
        let mut first_pass = true;
        let mut pass = self.opt.lend_scratch();
        loop {
            let rail = &self.transfer.rails()[rail_idx];
            if budget == 0 || rail.driver.free_slots(ctx) == 0 {
                break;
            }
            // Disjoint-field borrows: the collect layer is mutable (DRR
            // cursors advance per activation) while the policy only
            // answers eligibility queries.
            let policy = self.opt.policy();
            let eligible = |f, c| policy.eligible(f, c, rail_idx);
            self.collect
                .collect_window(channel, window, eligible, &mut pass.groups);
            let groups = pass.groups.groups();
            let backlog: usize = groups
                .iter()
                .map(|g| g.candidates.len() + g.rndv.len())
                .sum();
            if first_pass {
                self.obs.metrics_mut().backlog_depth.record(backlog as f64);
                let start = EngineEvent::ActivationStart {
                    id: act,
                    cause,
                    rail: rail_idx as u16,
                    backlog_depth: backlog as u32,
                };
                self.obs.emit(ctx.now(), start);
                first_pass = false;
            }
            if groups.is_empty() {
                break;
            }
            let caps = rail.driver.capabilities();
            let octx = OptContext {
                now: ctx.now(),
                channel,
                caps,
                cost: rail.driver.cost_model(),
                config: &self.config,
                groups,
                packet_limit: packet_limit(caps, rail.wire_mtu),
                rail_count: self.rel.live_rails().count().max(1),
                health_penalty: self.rel.rails()[rail_idx].cost_penalty(),
            };
            let outcome = select_plan_in(
                &mut pass.selection,
                self.opt.registry(),
                &octx,
                &self.collect,
                rail.wire_mtu,
                budget,
                self.obs.sink(),
                act,
            );
            let evaluated = outcome.evaluated as u64;
            let m = self.obs.metrics_mut();
            m.plans_evaluated += evaluated;
            m.decision_evals.record(evaluated);
            budget = budget.saturating_sub(outcome.evaluated);
            let Some(best) = outcome.best else { break };
            *m.strategy_wins.entry(best.plan.strategy).or_insert(0) += 1;
            if let Err(e) = self.apply_plan(ctx, rail_idx, best.plan, act) {
                // Plans are validated before scoring, so a rejection here is
                // an engine bug or transient queue race; count and stop.
                self.obs.metrics_mut().driver_rejections += 1;
                self.obs.check_faults(ctx.now(), &view!(self));
                debug_assert!(false, "driver rejected validated plan: {e}");
                break;
            }
            #[cfg(feature = "debug-invariants")]
            self.rel.debug_assert_invariants(&self.collect);
        }
        self.opt.return_scratch(pass);
    }

    fn apply_plan(
        &mut self,
        ctx: &mut SimCtx<'_>,
        rail_idx: usize,
        plan: TransferPlan,
        activation: u64,
    ) -> Result<(), EngineError> {
        let now = ctx.now();
        let rail = rail_idx as u16;
        match plan.body {
            PlanBody::Data { chunks, linearize } => {
                // The one lookup per chunk before commit: the stamped
                // headers carry everything the rest of this function needs
                // from the message (class, submission time).
                let (cookie, sent) = self.transfer.submit_data(
                    ctx,
                    rail_idx,
                    plan.dst,
                    &self.collect,
                    &chunks,
                    linearize,
                )?;
                sent?;
                let mut bytes = 0;
                for (c, wc) in chunks.iter().zip(self.transfer.wire()) {
                    let submitted_at = SimTime::from_nanos(wc.header.submit_ns);
                    let m = self.obs.metrics_mut();
                    m.queue_delay.record(now.since(submitted_at));
                    self.collect.commit_chunk(c, ChannelId(rail));
                    bytes += u64::from(c.len);
                }
                // Committing bytes is the only place backlog shrinks, so
                // this is where blocked classes can regain headroom.
                self.admission
                    .release(now, self.collect.index(), &mut self.obs);
                let encoded = EngineEvent::PacketEncoded {
                    activation,
                    rail,
                    cookie,
                    chunks: chunks.len() as u16,
                    bytes,
                    linearized: linearize,
                };
                self.obs.emit(now, encoded);
                for c in &chunks {
                    let bound = EngineEvent::ChunkBound {
                        flow: c.flow,
                        seq: c.seq,
                        frag: c.frag,
                        cookie,
                        bytes: u64::from(c.len),
                    };
                    self.obs.emit(now, bound);
                }
                let m = self.obs.metrics_mut();
                m.record_packet(chunks.len(), linearize);
                m.plans_submitted += 1;
                let class = self.transfer.wire()[0].header.class;
                self.opt.policy_mut().record_traffic(class, bytes);
                let first = Attempt::first(rail_idx);
                self.rel
                    .track(cookie, chunks, plan.dst, linearize, first, now);
                Ok(())
            }
            PlanBody::RndvRequest { flow, seq, frag } => {
                let (fs, msg) = self
                    .collect
                    .find(flow, seq)
                    .expect("validated plan references live message");
                let header = chunk_header(fs, seq, msg, frag, 0, 0);
                let dst = fs.dst;
                self.transfer
                    .send_ctrl(ctx, rail_idx, dst, KIND_RNDV_REQ, header)?;
                self.collect.mark_rndv_requested(flow, seq, frag);
                let m = self.obs.metrics_mut();
                m.rndv_requests += 1;
                m.plans_submitted += 1;
                // madrel: the request is watched until its grant, as a
                // data packet is until its ack.
                if self.rel.acks_enabled() {
                    let first = Attempt::first(rail_idx);
                    self.rel.track_request((flow, seq, frag), dst, first, now);
                    self.rel.arm_timer(ctx);
                }
                Ok(())
            }
        }
    }

    /// Process an incoming wire packet; returns messages that became
    /// deliverable, plus the ids of our own sends whose acknowledgement
    /// this packet completed (madrel) — both in the core's own buffers,
    /// which the caller hands back through [`EngineCore::recycle`].
    fn handle_packet(
        &mut self,
        ctx: &mut SimCtx<'_>,
        nic: NicId,
        pkt: WirePacket,
    ) -> (Vec<DeliveredMessage>, Vec<MsgId>) {
        self.obs.wake(ctx);
        let now = ctx.now();
        let rx_rail = rail_of(self.transfer.rails(), nic);
        let mut out = std::mem::take(&mut self.scratch.deliveries);
        let mut sent = std::mem::take(&mut self.scratch.sent);
        let refused_before = self.receiver.stats.proto_errors;
        let decoded = self
            .dispatch(ctx, rx_rail, &pkt, &mut out, &mut sent)
            .is_ok();
        // A chunk or cancel the receiver refused is a protocol error too.
        let refused = self.receiver.stats.proto_errors - refused_before;
        self.obs.metrics_mut().proto_errors += u64::from(!decoded) + refused;
        if decoded {
            self.obs.delivered(now, rx_rail, &out);
            if self.config.record_deliveries {
                self.obs.metrics_mut().deliveries_dropped += self.delivered.extend(&out);
            }
        }
        self.obs.check_faults(now, &view!(self));
        (out, sent)
    }

    /// Take back, emptied, the buffers [`EngineCore::handle_packet`] gave
    /// its caller.
    fn recycle(&mut self, mut deliveries: Vec<DeliveredMessage>, sent: Vec<MsgId>) {
        deliveries.clear();
        self.scratch.deliveries = deliveries;
        self.recycle_sent(sent);
    }

    /// Take back, emptied, the list of completed sends an event handler
    /// gave its caller.
    fn recycle_sent(&mut self, mut sent: Vec<MsgId>) {
        sent.clear();
        self.scratch.sent = sent;
    }

    /// [`EngineCore::handle_packet`]'s dispatch on the packet kind, adding
    /// to `out` and `sent`; `Err` is an undecodable packet.
    fn dispatch(
        &mut self,
        ctx: &mut SimCtx<'_>,
        rx_rail: Option<usize>,
        pkt: &WirePacket,
        out: &mut Vec<DeliveredMessage>,
        sent: &mut Vec<MsgId>,
    ) -> Result<(), ProtoError> {
        let now = ctx.now();
        match pkt.kind {
            KIND_DATA => {
                self.receiver.record_vchan(pkt.vchan);
                decode_packet_into(pkt, &mut self.scratch.chunks)?;
                // Acknowledge every decodable data packet — duplicates
                // included, so a lost ack is repaired by the sender's
                // retransmission of the data. madnet: the ack echoes the
                // fabric's ECN mark back to the sender (RFC-3168 style).
                if self.rel.acks_enabled() && pkt.cookie != CTRL_COOKIE {
                    if let Some(rail) = rx_rail {
                        let ack = ack_header_ecn(pkt.cookie, pkt.ecn);
                        let _ = self.transfer.send_ctrl(ctx, rail, pkt.src, KIND_ACK, ack);
                    }
                }
                // Drained, so the chunks give their packet's buffers up
                // here and not when the next packet arrives.
                for ch in self.scratch.chunks.drain(..) {
                    out.extend(self.receiver.on_chunk(pkt.src, &ch, now));
                }
                self.receiver.end_packet();
                // Detected and counted by the receiver; the engine's
                // counter follows it.
                self.obs.metrics_mut().express_violations = self.receiver.stats.express_violations;
            }
            KIND_CTRL => {
                // Shed-cancel notification: the sender dropped (flow, seq)
                // before committing any byte; ordered delivery skips it.
                let h = decode_rndv(pkt)?;
                out.extend(self.receiver.on_cancel(pkt.src, h.flow, h.msg_seq, now));
            }
            KIND_RNDV_REQ => {
                let header = decode_rndv(pkt)?;
                if let Some(rail) = rx_rail {
                    // Grant immediately: echo the header back.
                    let _ = self
                        .transfer
                        .send_ctrl(ctx, rail, pkt.src, KIND_RNDV_ACK, header);
                }
            }
            KIND_RNDV_ACK => {
                let h = decode_rndv(pkt)?;
                let (flow, seq, frag) = (h.flow, h.msg_seq, h.frag_index);
                // No request is tracked, and no timer armed, with acks off.
                self.rel.settle_request((flow, seq, frag));
                self.rel.arm_timer(ctx);
                if self.collect.grant_rndv(flow, seq, frag) {
                    let granted = EngineEvent::RndvGranted { flow, seq, frag };
                    self.obs.emit(now, granted);
                    self.optimize_all_idle(ctx, Activation::Submit);
                }
            }
            KIND_ACK => {
                let (cookie, ecn) = decode_ack_ecn(pkt)?;
                // The ack completes its own packet, or — late, for a cookie
                // a timeout superseded — what is still out of the
                // retransmission. A duplicate ack finds nothing and is
                // ignored.
                let collect = &mut self.collect;
                let settle = |done: PendingTx| complete(collect, done, sent);
                if self
                    .rel
                    .on_ack(cookie, ecn, now, self.node, &mut self.obs, settle)
                {
                    self.rel.arm_timer(ctx);
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// The retransmit timer fired: sweep every expired packet and every
    /// overdue rendezvous request and execute what [`Reliability::expire`]
    /// decides for each. Returns message ids whose send-side accounting
    /// completed here so the engine can run the usual `on_sent` callbacks.
    fn on_retx_timer(&mut self, ctx: &mut SimCtx<'_>) -> Vec<MsgId> {
        let now = ctx.now();
        let mut completed = std::mem::take(&mut self.scratch.sent);
        for cookie in self.rel.begin_sweep(now) {
            let rails = self.transfer.rails();
            let reaches = |rail: usize, dst| rails[rail].reaches(dst);
            let Some((pending, action)) = self.rel.expire(cookie, now, reaches, &mut self.obs)
            else {
                continue;
            };
            match action {
                Expiry::Resend(attempt) | Expiry::Reroute(attempt) => {
                    self.retransmit(ctx, cookie, pending, attempt)
                }
                Expiry::Lost => {
                    let before = completed.len();
                    complete(&mut self.collect, pending, &mut completed);
                    self.obs.metrics_mut().lost_msgs += (completed.len() - before) as u64;
                }
            }
        }
        for key in self.rel.overdue_requests(now) {
            self.request_again(ctx, key);
        }
        // A sweep is where rails die and messages are lost.
        self.obs.check_faults(now, &view!(self));
        self.rel.arm_timer(ctx);
        completed
    }

    /// The grant for `key`'s rendezvous request is overdue: the request
    /// or the grant was lost. Ask again — a second grant changes nothing
    /// at either end — on the rail and with the patience
    /// [`Reliability::expire_request`] decides; a budget spent on every
    /// route ends as a lost message.
    fn request_again(&mut self, ctx: &mut SimCtx<'_>, key: RequestKey) {
        let now = ctx.now();
        let (flow, seq, frag) = key;
        // Shed while its request was out: nothing waits for the grant.
        let Some((fs, msg)) = self.collect.find(flow, seq) else {
            return self.rel.settle_request(key);
        };
        let rails = self.transfer.rails();
        let reaches = |rail: usize, dst| rails[rail].reaches(dst);
        let Some((dst, action)) = self.rel.expire_request(key, now, reaches, &mut self.obs) else {
            return;
        };
        match action {
            Expiry::Resend(again) | Expiry::Reroute(again) => {
                let header = chunk_header(fs, seq, msg, frag, 0, 0);
                let sent = self
                    .transfer
                    .send_ctrl(ctx, again.rail, dst, KIND_RNDV_REQ, header);
                debug_assert!(sent.is_ok(), "the chosen rail reaches the destination");
                self.obs.metrics_mut().rndv_rerequests += 1;
            }
            Expiry::Lost => self.obs.metrics_mut().lost_msgs += 1,
        }
    }

    /// Re-send a timed-out packet's chunks on `next.rail` under fresh
    /// cookies, re-chunked for the target driver's capabilities. The
    /// original commit accounting in the collect layer is reused — chunks
    /// are never re-committed — so completion stays exactly-once, and the
    /// old cookie is remembered as superseded: its ack, should it still
    /// come, settles the new ones. A retransmission that finds the NIC
    /// queue full has not happened: the packet is parked as it is — same
    /// cookie, same attempts, same deadline — until `on_tx_done` offers
    /// it again.
    fn retransmit(
        &mut self,
        ctx: &mut SimCtx<'_>,
        old_cookie: u64,
        pending: PendingTx,
        next: Attempt,
    ) {
        let now = ctx.now();
        let rail = &self.transfer.rails()[next.rail];
        if rail.driver.free_slots(ctx) == 0 {
            return self.rel.park(old_cookie, pending, next);
        }
        let packets = plan_retransmit(&pending.chunks, rail.driver.capabilities(), rail.wire_mtu);
        let mut heirs = None;
        for chunks in packets {
            let (cookie, sent) = self
                .transfer
                .submit_data(
                    ctx,
                    next.rail,
                    pending.dst,
                    &self.collect,
                    &chunks,
                    pending.linearize,
                )
                .expect("retransmit rail reaches destination");
            let first = heirs.map_or(cookie, |(first, _)| first);
            heirs = Some((first, cookie));
            let rejected = match sent {
                // The queue filled under this packet's own pieces: the
                // rest waits like a whole packet would.
                Err(DriverError::Nic(SubmitError::QueueFull)) => {
                    let waiting = PendingTx {
                        chunks,
                        dst: pending.dst,
                        rail: pending.rail,
                        linearize: pending.linearize,
                        sent_at: pending.sent_at,
                        deadline: pending.deadline,
                        attempts: pending.attempts,
                    };
                    self.rel.park(cookie, waiting, next);
                    continue;
                }
                Ok(()) => {
                    let resent = EngineEvent::Retransmit {
                        old_cookie,
                        new_cookie: cookie,
                        rail: next.rail as u16,
                        attempt: next.attempts,
                    };
                    self.obs.emit(now, resent);
                    false
                }
                Err(_) => {
                    self.obs.metrics_mut().driver_rejections += 1;
                    self.obs.check_faults(now, &view!(self));
                    true
                }
            };
            self.rel
                .track(cookie, chunks, pending.dst, pending.linearize, next, now);
            if rejected {
                // No `tx_done` will start this packet's clock: it starts
                // now, and the sweep takes the packet up again like one
                // lost on the wire — to the end of its budget if need be.
                self.rel.launched(cookie, now);
            }
        }
        if let Some((first, last)) = heirs {
            self.rel.supersede(old_cookie, &pending, first..=last);
        }
    }

    /// A transmit completed, so queue space may have appeared: offer each
    /// rail's parked retransmissions again, lowest cookie first, for as
    /// long as its queue has room.
    fn offer_parked(&mut self, ctx: &mut SimCtx<'_>) {
        for rail in 0..self.transfer.rails().len() {
            while self.transfer.rails()[rail].driver.free_slots(ctx) > 0 {
                let Some((cookie, pending, next)) = self.rel.take_parked(rail) else {
                    break;
                };
                self.retransmit(ctx, cookie, pending, next);
            }
        }
    }
}

/// A data packet is done — injected under `Off`, acknowledged or given up
/// under `Recover`: complete its chunks in the collect layer. Appends to
/// `done` the ids of messages whose transmission completed with it.
// madlint: allow(trace-coverage) — send-side accounting only; the
// PacketCompleted/Delivered events are pushed by the on_sent callers
fn complete(collect: &mut CollectLayer, tx: PendingTx, done: &mut Vec<MsgId>) {
    for c in &tx.chunks {
        if collect.complete_chunk(c) {
            done.push(MsgId {
                flow: c.flow,
                seq: MsgSeq(c.seq),
            });
        }
    }
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
        self.core.obs.emit(self.ctx.now(), event);
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
        let rails = build_rails(self.rails, self.peer_nics)?;
        let mut registry = StrategyRegistry::standard(&self.config);
        for s in self.extra_strategies {
            registry.register(s);
        }
        let policy = RailPolicy::new(self.policy_kind, rails.len());
        let mut collect = CollectLayer::new();
        if self.config.fairness == FairnessMode::Drr {
            collect.set_fairness(FairnessMode::Drr, self.config.drr_quantum);
        }
        let core = Rc::new(RefCell::new(EngineCore {
            node: self.node,
            collect,
            receiver: Receiver::new(),
            admission: Admission::new(self.config.admission.clone()),
            opt: Optimizer::new(registry, policy),
            rel: Reliability::new(
                rails.iter().map(|r| {
                    let d = &r.driver;
                    (d.capabilities().clone(), d.cost_model().clone())
                }),
                &self.config,
            ),
            transfer: Transfer::new(rails),
            obs: Observer::new(self.node),
            delivered: DeliveredRing::default(),
            scratch: Scratch::default(),
            config: self.config,
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

    /// Build the legacy baseline engine from the same description (the
    /// policy and extra strategies do not apply to it).
    pub fn build_legacy(self) -> Result<(LegacyEngine, LegacyHandle), EngineError> {
        let rails = build_rails(self.rails, self.peer_nics)?;
        Ok(LegacyEngine::assemble(
            self.node,
            self.config,
            rails,
            self.app,
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

    /// Run `on_sent` for messages whose send-side accounting completed.
    fn notify_sent(&mut self, ctx: &mut SimCtx<'_>, sent: &[MsgId]) {
        if !sent.is_empty() {
            self.with_app(ctx, |app, api| {
                for &id in sent {
                    app.on_sent(api, id);
                }
            });
        }
    }

    /// Deliver queued madflow `on_unblocked` callbacks. Must be called
    /// with the core borrow released; drains until quiet so callbacks
    /// whose retries trigger further releases are also delivered.
    fn notify_unblocked(&mut self, ctx: &mut SimCtx<'_>) {
        loop {
            let pending = self.core.borrow_mut().admission.take_unblocked();
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
            let core = &mut *self.core.borrow_mut();
            core.opt.wake(ctx);
            core.obs.wake(ctx);
        }
        self.with_app(ctx, |app, api| app.on_start(api));
    }

    fn on_tx_done(&mut self, ctx: &mut SimCtx<'_>, _nic: NicId, cookie: u64) {
        let completed = {
            let core = &mut *self.core.borrow_mut();
            let mut completed = std::mem::take(&mut core.scratch.sent);
            // madrel: under `Recover` a packet completes on its *ack*, not
            // on injection — `tx_done` for it frees queue space and starts
            // its timeout. (The paper's lossless `Off` completes it here.)
            match core.rel.launched(cookie, ctx.now()) {
                Launched::Done(tx) => complete(&mut core.collect, tx, &mut completed),
                Launched::Watched => core.rel.arm_timer(ctx),
                Launched::Untracked => {}
            }
            core.transfer.flush_ctrl(ctx);
            core.offer_parked(ctx);
            completed
        };
        self.notify_sent(ctx, &completed);
        self.core.borrow_mut().recycle_sent(completed);
        self.notify_unblocked(ctx);
    }

    fn on_nic_idle(&mut self, ctx: &mut SimCtx<'_>, nic: NicId) {
        {
            let mut core = self.core.borrow_mut();
            if let Some(rail) = rail_of(core.transfer.rails(), nic) {
                if core.rel.congestion_gated(rail) {
                    // Hand the activation to healthier rails instead of
                    // pulling backlog onto a marked fabric path.
                    core.obs.metrics_mut().congestion_gated += 1;
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
        if !deliveries.is_empty() {
            self.with_app(ctx, |app, api| {
                for d in &deliveries {
                    app.on_message(api, d);
                }
            });
        }
        self.notify_sent(ctx, &sent);
        self.core.borrow_mut().recycle(deliveries, sent);
        self.notify_unblocked(ctx);
    }

    fn on_timer(&mut self, ctx: &mut SimCtx<'_>, _timer: TimerId, tag: u64) {
        match tag {
            RETX_TAG => {
                let completed = self.core.borrow_mut().on_retx_timer(ctx);
                self.notify_sent(ctx, &completed);
                self.core.borrow_mut().recycle_sent(completed);
            }
            NAGLE_TAG => {
                let mut core = self.core.borrow_mut();
                core.opt.disarm_nagle();
                core.optimize_all_idle(ctx, Activation::Timer);
            }
            SAMPLER_TAG => {
                let core = &mut *self.core.borrow_mut();
                core.obs.sampler_tick(ctx, &view!(core));
            }
            ADAPTIVE_TAG => {
                let core = &mut *self.core.borrow_mut();
                core.opt.on_epoch(ctx);
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
        self.core.borrow().obs.metrics().clone()
    }

    /// Snapshot of receive-side statistics.
    pub fn receiver_stats(&self) -> ReceiverStats {
        self.core.borrow().receiver.stats.clone()
    }

    /// Drain the recorded delivered messages.
    pub fn take_delivered(&self) -> Vec<DeliveredMessage> {
        self.core.borrow_mut().delivered.drain()
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.core.borrow().obs.metrics().delivered_msgs
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
        self.core
            .borrow_mut()
            .opt
            .policy_mut()
            .pin_class(class, rails);
    }

    /// Switch the scheduling policy family at runtime (§2).
    pub fn switch_policy(&self, kind: PolicyKind) {
        self.core.borrow_mut().opt.policy_mut().switch_kind(kind);
    }

    /// Collapse all traffic classes onto one virtual channel on every rail
    /// (the "no class separation" baseline of experiment E6).
    pub fn collapse_classes(&self) {
        for rail in self.core.borrow_mut().transfer.rails_mut() {
            rail.classmap.collapse();
        }
    }

    /// Reassign a class to a virtual channel on one rail.
    pub fn set_class_vchan(&self, rail: usize, class: TrafficClass, vchan: u8) -> bool {
        self.core.borrow_mut().transfer.rails_mut()[rail]
            .classmap
            .assign(class, vchan)
    }

    /// Names of registered strategies, in consultation order.
    pub fn strategy_names(&self) -> Vec<&'static str> {
        self.core.borrow().opt.registry().names()
    }

    /// Number of adaptive-policy rebalances performed.
    pub fn rebalances(&self) -> u64 {
        self.core.borrow().opt.policy().rebalances()
    }

    /// Force-push pending traffic from outside the event loop.
    pub fn flush(&self, ctx: &mut SimCtx<'_>) {
        self.core.borrow_mut().flush(ctx);
    }

    /// True when nothing is pending (`EngineView::drained`): no backlog,
    /// no in-flight packets, no unacked data, no queued control messages.
    pub fn is_drained(&self) -> bool {
        let core = self.core.borrow();
        view!(core).drained()
    }

    /// This engine's metrics registry as text, for debugging stuck
    /// workloads: a `health:` line of the should-stay-zero counters, then
    /// one `section/path value` line per registry leaf — the `state`
    /// section holds the backlog, packets in flight, the control queue,
    /// the first active flows and every rail's health.
    pub fn debug_report(&self) -> String {
        let core = self.core.borrow();
        core.obs.debug_report(&view!(core))
    }

    /// Enable the structured madtrace event sink with a bounded ring of
    /// `capacity` records (replacing any previous sink and its contents).
    pub fn enable_trace(&self, capacity: usize) {
        self.core.borrow_mut().obs.enable_trace(capacity);
    }

    /// The engine's event sink, borrowed in place for as long as the
    /// guard lives (the engine must not run meanwhile) — what a reader of
    /// a large ring wants instead of [`EngineHandle::trace_snapshot`].
    pub fn trace(&self) -> Ref<'_, EventSink> {
        Ref::map(self.core.borrow(), |core| core.obs.trace())
    }

    /// Clone of the engine's event sink (records, drop count, state).
    pub fn trace_snapshot(&self) -> EventSink {
        self.core.borrow().obs.trace().clone()
    }

    /// The flight recorder's capture, if a fault has fired it.
    pub fn flight_dump(&self) -> Option<FlightDump> {
        self.core.borrow().obs.flight().cloned()
    }

    /// Register this engine's metric sources into an existing registry
    /// under `prefix` (the single registration path; see
    /// `Observer::register_metrics`). NIC stats live in the simulator
    /// and are appended by the harness, which can see them.
    pub fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        let core = self.core.borrow();
        core.obs.register_metrics(reg, prefix, &view!(core));
    }

    /// madscope: install a time-series sampler ticking every `tick` of
    /// virtual time into a ring of `capacity` rows (replacing any previous
    /// sampler and its contents). Effective immediately when the engine is
    /// already running — the next submission or received packet arms the
    /// tick timer; enabling before the run starts arms it at `on_start`.
    pub fn enable_sampler(&self, tick: simnet::SimDuration, capacity: usize) {
        let mut core = self.core.borrow_mut();
        let rails = core.transfer.rails().len();
        core.obs.enable_sampler(tick, capacity, rails);
    }

    /// madscope: clone of the sampler state (rows, drop accounting), or
    /// `None` when sampling is disabled.
    pub fn sampler_snapshot(&self) -> Option<Sampler> {
        self.core.borrow().obs.sampler().cloned()
    }

    /// madscope: the sampler ring as deterministic CSV, or `None` when
    /// sampling is disabled.
    pub fn sampler_csv(&self) -> Option<String> {
        self.core.borrow().obs.sampler().map(Sampler::csv)
    }

    /// Test hook: feed a raw wire packet straight into the receive path,
    /// as if it had arrived on `nic`. Deliveries bypass the application
    /// driver; used to exercise fault handling (e.g. the flight recorder
    /// on protocol errors) deterministically.
    pub fn inject_packet(&self, ctx: &mut SimCtx<'_>, nic: NicId, pkt: WirePacket) {
        let mut core = self.core.borrow_mut();
        let (deliveries, sent) = core.handle_packet(ctx, nic, pkt);
        core.recycle(deliveries, sent);
    }

    /// madrel: number of data packets currently awaiting acknowledgement.
    pub fn unacked_packets(&self) -> usize {
        self.core.borrow().rel.unacked()
    }

    /// madrel: timed-out cookies still remembered in case their ack comes
    /// late (none once every retransmission has settled).
    pub fn superseded_cookies(&self) -> usize {
        self.core.borrow().rel.superseded_len()
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
    fn a_retransmission_that_finds_the_queue_full_costs_no_attempt() {
        // One rail whose queue holds four packets, every message its own
        // packet, and a peer that never answers (no endpoint): every packet
        // times out.
        let (mut sim, a, na, nb) = sim_with_two_nics();
        let config = EngineConfig {
            reliability: crate::ReliabilityMode::Recover,
            ..EngineConfig::fifo_only()
        };
        let (engine, handle) = MadEngine::builder(a)
            .rail(driver(na), 1 << 20)
            .peer(NodeId(1), vec![nb])
            .config(config)
            .build()
            .unwrap();
        sim.set_endpoint(a, Box::new(engine));
        let send = |sim: &mut Simulation, len: usize| {
            let f = handle.open_flow(NodeId(1), TrafficClass::DEFAULT);
            let parts = MessageBuilder::new()
                .pack_cheaper(&vec![7; len])
                .build_parts();
            sim.inject(a, |ctx| handle.send(ctx, f, parts));
        };
        let watched = |cookie: u64| {
            let core = handle.core.borrow();
            let found = core.rel.watched(cookie);
            found.map(|(tx, parked)| (tx.attempts, tx.deadline, parked))
        };
        // A small packet leaves at once; its clock starts at `tx_done`.
        send(&mut sim, 64);
        assert_eq!(watched(1), Some((1, SimTime::MAX, false)), "in the queue");
        sim.run_until(SimTime::from_nanos(10_000));
        let (_, due, _) = watched(1).expect("unacked");
        assert!(due > SimTime::from_nanos(50_000) && due < SimTime::from_nanos(60_000));
        // A 30 us packet keeps the NIC busy while eight more are
        // submitted behind it; when it is done — 10 us before the small
        // packet is due — the idle NIC's queue is filled with four of them.
        sim.run_until(SimTime::from_nanos(due.as_nanos() - 40_000));
        send(&mut sim, 30_000);
        for _ in 0..8 {
            send(&mut sim, 30_000);
        }
        // So when the small packet times out nothing can leave: no attempt
        // is spent, no deadline doubled, nothing counted as re-sent.
        sim.run_until(due + simnet::SimDuration::from_nanos(1_000));
        let m = handle.metrics();
        assert_eq!((m.packets_sent, m.timeouts, m.retransmits), (6, 1, 0));
        assert_eq!(watched(1), Some((1, due, true)), "parked as it was");
        assert_eq!(handle.unacked_packets(), 6, "and not forgotten");
        // The next `tx_done` makes room, and it goes out under cookie 7 as
        // attempt 2 — ahead of the four messages still in the backlog,
        // since the queue has not run dry.
        sim.run_until(due + simnet::SimDuration::from_nanos(25_000));
        let m = handle.metrics();
        assert_eq!((m.packets_sent, m.timeouts, m.retransmits), (6, 1, 1));
        assert_eq!(watched(1), None, "superseded");
        assert_eq!(watched(7), Some((2, SimTime::MAX, false)));
        assert_eq!(handle.superseded_cookies(), 1);
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

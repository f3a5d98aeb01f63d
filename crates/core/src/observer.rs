//! The one observer seam of the engine: the madtrace event sink, the
//! madscope sampler, the flight recorder, and the [`EngineMetrics`]
//! counters. The layers of Figure 1 report through [`Observer::emit`] /
//! [`Observer::emit_with`], and the engine calls
//! [`Observer::check_faults`] after the steps that can advance a
//! should-stay-zero counter; what is switched on is decided here and
//! nowhere else.

// madlint: file: hot-path
// madlint: file: deterministic-output
// madlint: file: trace-covered

use nicdrv::Driver;
use simnet::{NodeId, SimCtx, SimDuration, SimTime};

use crate::api::SAMPLER_TAG;
use crate::collect::{CollectLayer, RndvState};
use crate::config::EngineConfig;
use crate::ids::{MsgId, TrafficClass};
use crate::json::{obj, Json};
use crate::message::DeliveredMessage;
use crate::metrics::{EngineMetrics, Fault, MetricsRegistry};
use crate::optimizer::Optimizer;
use crate::receiver::Receiver;
use crate::reliability::Reliability;
use crate::scope::{RailTick, Sampler, TickStats};
use crate::trace::{EngineEvent, EventSink, FlightDump};
use crate::transfer::Transfer;

/// The layers an [`Observer`] reads when it reports on the engine —
/// borrowed, read-only, and never the observer itself.
pub(crate) struct EngineView<'a> {
    pub(crate) config: &'a EngineConfig,
    pub(crate) collect: &'a CollectLayer,
    pub(crate) receiver: &'a Receiver,
    pub(crate) opt: &'a Optimizer,
    pub(crate) transfer: &'a Transfer,
    pub(crate) rel: &'a Reliability,
}

impl EngineView<'_> {
    /// True when nothing is pending: no backlog, no data packet in flight
    /// (unacked ones among them), no queued control messages. The one
    /// definition of
    /// "drained" — the handle, the sampler and the benchmark's quiescence
    /// oracle all read it.
    pub(crate) fn drained(&self) -> bool {
        self.collect.is_empty() && self.rel.inflight() == 0 && self.transfer.ctrl_len() == 0
    }
}

/// Everything that watches one engine.
// madlint: send-sync — sharded across madpar workers with the engine core
pub(crate) struct Observer {
    node: NodeId,
    /// Disabled by default: one branch per event.
    trace: EventSink,
    /// Off by default: one `Option` branch per wake probe, nothing per event.
    sampler: Option<Sampler>,
    /// Set once, when a should-stay-zero counter first leaves zero.
    flight: Option<FlightDump>,
    metrics: EngineMetrics,
}

impl Observer {
    /// An observer for `node`'s engine with tracing and sampling off.
    pub(crate) fn new(node: NodeId) -> Self {
        Observer {
            node,
            trace: EventSink::disabled(),
            sampler: None,
            flight: None,
            metrics: EngineMetrics::default(),
        }
    }

    /// Report an event. Events that have a counter advance it here, so
    /// the counter and the trace cannot drift apart; the record itself is
    /// kept only while tracing is on.
    pub(crate) fn emit(&mut self, now: SimTime, event: EngineEvent) {
        let m = &mut self.metrics;
        match &event {
            EngineEvent::RndvGranted { .. } => m.rndv_grants += 1,
            EngineEvent::RailDead { .. } => m.rails_dead += 1,
            EngineEvent::Retransmit { .. } => m.retransmits += 1,
            EngineEvent::Shed { bytes, .. } => {
                m.shed_msgs += 1;
                m.shed_bytes += *bytes;
            }
            EngineEvent::Unblocked { .. } => m.unblocked_events += 1,
            EngineEvent::CongestionMark { .. } => m.ecn_echoes += 1,
            EngineEvent::AckReceived { .. } => m.acks_received += 1,
            EngineEvent::SpuriousTimeout { .. } => m.spurious_timeouts += 1,
            _ => {}
        }
        self.trace.push(now, event);
    }

    /// Report events that are costly to build: `build` runs only while
    /// tracing is on (and may yield several — an `Option`, an array, a
    /// `Vec`). Not for events [`Observer::emit`] counts.
    pub(crate) fn emit_with<I: IntoIterator<Item = EngineEvent>>(
        &mut self,
        now: SimTime,
        build: impl FnOnce() -> I,
    ) {
        if self.trace.is_enabled() {
            for event in build() {
                self.trace.push(now, event);
            }
        }
    }

    /// The event sink itself, for `select_plan_traced`'s decision log.
    pub(crate) fn sink(&mut self) -> &mut EventSink {
        &mut self.trace
    }

    /// Messages became deliverable: latency/throughput metrics and one
    /// `Delivered` event each.
    pub(crate) fn delivered(
        &mut self,
        now: SimTime,
        rx_rail: Option<usize>,
        out: &[DeliveredMessage],
    ) {
        for d in out {
            let (bytes, latency) = (d.total_len(), d.latency);
            self.metrics
                .record_delivery_from(d.src, d.class, d.flow, rx_rail, bytes, latency);
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
    }

    /// The first time a should-stay-zero counter reads non-zero, fire the
    /// flight recorder: capture the trailing trace events, the debug
    /// report and a metrics-registry snapshot, labelled with that counter
    /// (the first in [`Fault::ALL`] when one step moved several). Called
    /// after each step that can advance one.
    pub(crate) fn check_faults(&mut self, now: SimTime, view: &EngineView<'_>) {
        if self.flight.is_some() {
            return;
        }
        let Some(fault) = Fault::ALL.into_iter().find(|f| f.count(&self.metrics) > 0) else {
            return;
        };
        let mut reg = MetricsRegistry::new();
        self.register_metrics(&mut reg, "", view);
        self.flight = Some(FlightDump::capture(
            self.node,
            fault,
            now,
            self.debug_report(view),
            reg.to_json(),
            &self.trace,
        ));
    }

    pub(crate) fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// For the plain (event-less) counters the layers advance themselves.
    pub(crate) fn metrics_mut(&mut self) -> &mut EngineMetrics {
        &mut self.metrics
    }

    pub(crate) fn trace(&self) -> &EventSink {
        &self.trace
    }

    pub(crate) fn sampler(&self) -> Option<&Sampler> {
        self.sampler.as_ref()
    }

    /// The flight recorder's capture, if a fault has fired it.
    pub(crate) fn flight(&self) -> Option<&FlightDump> {
        self.flight.as_ref()
    }

    /// Switch tracing on with a ring of `capacity` records (replacing any
    /// previous sink and its contents).
    pub(crate) fn enable_trace(&mut self, capacity: usize) {
        self.trace = EventSink::with_capacity(capacity);
    }

    /// Install a sampler (replacing any previous one and its contents).
    pub(crate) fn enable_sampler(&mut self, tick: SimDuration, capacity: usize, rails: usize) {
        self.sampler = Some(Sampler::new(tick, capacity, rails));
    }

    /// Re-arm the sampler tick timer if a sampler is installed and its
    /// timer went to sleep. Called from the submit and receive paths so
    /// traffic wakes a sleeping sampler.
    #[inline]
    pub(crate) fn wake(&mut self, ctx: &mut SimCtx<'_>) {
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
    pub(crate) fn sampler_tick(&mut self, ctx: &mut SimCtx<'_>, view: &EngineView<'_>) {
        let Some(s) = self.sampler.as_mut() else {
            return;
        };
        let m = &self.metrics;
        let stats = TickStats {
            backlog_bytes: view.collect.backlog_bytes(),
            backlog_msgs: view.collect.pending_msgs(),
            inflight_pkts: view.rel.inflight() as u64,
            retx_pending: view.rel.unacked() as u64,
            submitted_msgs: m.submitted_msgs,
            delivered_msgs: m.delivered_msgs,
            packets_sent: m.packets_sent,
            plans_evaluated: m.plans_evaluated,
            strategy_wins: m.strategy_wins.values().sum(),
        };
        let (health, rails) = (view.rel.rails(), view.transfer.rails());
        let rails: Vec<RailTick> = health
            .iter()
            .zip(rails)
            .map(|(h, rail)| RailTick {
                busy: !rail.driver.is_idle(ctx),
                health_milli: (h.score() * 1000.0).round() as u32,
                dead: h.is_dead(),
            })
            .collect();
        if s.record_tick(ctx.now(), stats, &rails, view.drained()) {
            ctx.set_timer(s.tick(), SAMPLER_TAG);
        } else {
            s.set_armed(false);
        }
    }

    /// Register every metric source of the engine — engine counters,
    /// receiver stats and (when enabled) the sampler digest and the trace
    /// ring's health — under `prefix` (e.g. `""` or `"node0/"`). This is
    /// the **single** place engine gauges join a registry, so a new
    /// madscope gauge registers exactly once, everywhere.
    pub(crate) fn register_metrics(
        &self,
        reg: &mut MetricsRegistry,
        prefix: &str,
        view: &EngineView<'_>,
    ) {
        reg.add_engine(&format!("{prefix}engine"), &self.metrics);
        reg.add_receiver(&format!("{prefix}receiver"), &view.receiver.stats);
        if view.rel.acks_enabled() {
            // madrel's learned state, per rail in rail order: the margin
            // a timeout adds to a packet's modelled round trip.
            let rails = 0..view.rel.rails().len();
            let margins = rails.map(|r| Json::UInt(view.rel.rto_margin(r).as_nanos()));
            reg.add_section(
                &format!("{prefix}madrel"),
                obj()
                    .field("rto_margin_ns", Json::Arr(margins.collect()))
                    .build(),
            );
        }
        if let Some(s) = &self.sampler {
            reg.add_section(&format!("{prefix}sampler"), s.to_json());
        }
        reg.add_ring(&format!("{prefix}trace"), &self.trace);
    }

    /// Human-readable snapshot of the engine's state, for debugging stuck
    /// workloads: backlog, in-flight packets, pending control messages,
    /// trace/health status, per-strategy win counts and headline metrics.
    pub(crate) fn debug_report(&self, view: &EngineView<'_>) -> String {
        let m = &self.metrics;
        let (config, collect) = (view.config, view.collect);
        let mut out = format!(
            "engine@{:?}: {} rails, policy {:?}\n             backlog: {} bytes in {} flows; inflight packets: {}; pending ctrl: {}\n             submitted {} msgs / delivered {} msgs; {} packets ({:.2} chunks/pkt)\n             activations: {} idle / {} submit / {} timer; plans {} evaluated / {} submitted\n",
            self.node,
            view.transfer.rails().len(),
            view.opt.policy().kind(),
            collect.backlog_bytes(),
            collect.flows().len(),
            view.rel.inflight(),
            view.transfer.ctrl_len(),
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
        out.push_str("             health:");
        for f in Fault::ALL {
            out.push_str(&format!(" {}={}", f.label(), f.count(m)));
        }
        let recorder = match &self.flight {
            Some(d) => format!("fired({} @ {})", d.trigger.label(), d.at),
            None => "armed".to_string(),
        };
        out.push_str(&format!("; flight recorder {recorder}\n"));
        out.push_str(&format!(
            "             madflow: {} active / {} total flows, {} pending msgs, fairness {:?}, admission {}; blocked={} rejected={} shed={} unblocked={} deliveries_dropped={}\n",
            collect.index().active_count(),
            collect.flows().len(),
            collect.pending_msgs(),
            config.fairness,
            if config.admission.enabled() { "on" } else { "off" },
            m.blocked_sends,
            m.rejected_sends,
            m.shed_msgs,
            m.unblocked_events,
            m.deliveries_dropped,
        ));
        if view.rel.acks_enabled() {
            out.push_str(&format!(
                "             madrel: {} unacked, {} superseded; timeouts={} spurious_timeouts={} retransmits={} rndv_rerequests={} acks={}\n",
                view.rel.unacked(),
                view.rel.superseded_len(),
                m.timeouts,
                m.spurious_timeouts,
                m.retransmits,
                m.rndv_rerequests,
                m.acks_received,
            ));
            for (r, h) in view.rel.rails().iter().enumerate() {
                out.push_str(&format!(
                    "               rail {r}: score={:.3}{}{} acks={} timeouts={} rto_margin_ns={} cong={:.3} marks={}\n",
                    h.score(),
                    if h.is_degraded() { " DEGRADED" } else { "" },
                    if h.is_dead() { " DEAD" } else { "" },
                    h.acks(),
                    h.timeouts(),
                    view.rel.rto_margin(r).as_nanos(),
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
        for id in collect.active_flow_ids().take(MAX_FLOW_LINES) {
            let fs = collect.flow(id);
            out.push_str(&format!(
                "  {}: {} pending messages toward {:?}\n",
                fs.id,
                fs.queued(),
                fs.dst
            ));
        }
        let active = collect.index().active_count();
        if active > MAX_FLOW_LINES {
            out.push_str(&format!(
                "  ... and {} more active flows\n",
                active - MAX_FLOW_LINES
            ));
        }
        out
    }
}

/// The `Submitted` record of a just-enqueued message, plus one
/// `RndvGated` per fragment that has to negotiate first.
pub(crate) fn submitted_events(
    collect: &CollectLayer,
    id: MsgId,
    class: TrafficClass,
) -> Vec<EngineEvent> {
    let (flow, seq) = (id.flow, id.seq.0);
    let Some(msg) = collect.find_msg(flow, seq) else {
        return Vec::new();
    };
    let mut events = vec![EngineEvent::Submitted {
        flow,
        seq,
        frags: msg.frags.len() as u16,
        bytes: msg.frags.iter().map(|f| u64::from(f.len())).sum(),
        class,
    }];
    for f in &msg.frags {
        if f.rndv == RndvState::NeedRequest {
            events.push(EngineEvent::RndvGated {
                flow,
                seq,
                frag: f.index,
                bytes: u64::from(f.len()),
            });
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, MsgSeq};
    use crate::policy::{PolicyKind, RailPolicy};
    use crate::strategy::StrategyRegistry;

    /// `f` over the view of a drained engine of no rails.
    fn with_view<R>(f: impl FnOnce(&EngineView<'_>) -> R) -> R {
        let config = EngineConfig::default();
        let policy = RailPolicy::new(PolicyKind::Pooled, 1);
        let view = EngineView {
            config: &config,
            collect: &CollectLayer::new(),
            receiver: &Receiver::new(),
            opt: &Optimizer::new(StrategyRegistry::empty(), policy),
            transfer: &Transfer::new(Vec::new()),
            rel: &Reliability::new([], &config),
        };
        assert!(view.drained());
        f(&view)
    }

    fn check(obs: &mut Observer, now: SimTime) {
        with_view(|view| obs.check_faults(now, view));
    }

    #[test]
    fn off_never_builds_and_the_flight_recorder_fires_once() {
        let mut obs = Observer::new(NodeId(3));
        let (t0, t1) = (SimTime::from_nanos(5), SimTime::from_nanos(9));
        check(&mut obs, t0);
        assert!(obs.flight().is_none(), "every counter reads zero");
        // Trace and sampler off: the closure is not run, counters still move.
        obs.emit_with(t0, || -> Option<EngineEvent> {
            unreachable!("tracing is off")
        });
        obs.emit(t0, EngineEvent::RailDead { rail: 0 });
        assert_eq!(obs.metrics().rails_dead, 1);
        assert!(obs.trace().is_empty() && obs.sampler().is_none());

        check(&mut obs, t0);
        obs.metrics_mut().proto_errors += 1;
        check(&mut obs, t1);
        let dump = obs.flight().expect("the first fault fires the recorder");
        assert_eq!((dump.trigger, dump.at), (Fault::RailDead, t0));
        assert!(dump.report.contains("rails_dead=1"), "{}", dump.report);
        assert!(dump.report.contains("proto_errors=0"), "{}", dump.report);

        obs.enable_trace(8);
        let dead = EngineEvent::RailDead { rail: 1 };
        obs.emit_with(t1, || [dead.clone(), dead]);
        assert_eq!(obs.trace().len(), 2, "tracing on: every built event kept");
        assert_eq!(obs.metrics().rails_dead, 1, "emit_with never counts");
    }

    #[test]
    #[cfg(not(feature = "debug-invariants"))]
    fn a_clamped_class_fires_the_recorder_once() {
        let mut obs = Observer::new(NodeId(1));
        let (t0, t1) = (SimTime::from_nanos(5), SimTime::from_nanos(9));
        let flow = FlowId(4);
        let misclassified = DeliveredMessage {
            src: NodeId(0),
            flow,
            id: MsgId {
                flow,
                seq: MsgSeq(0),
            },
            class: TrafficClass(200),
            fragments: Vec::new(),
            latency: SimDuration::from_nanos(1),
            delivered_at: t0,
        };
        obs.delivered(t0, None, &[misclassified]);
        check(&mut obs, t0);
        obs.metrics_mut().driver_rejections += 1;
        check(&mut obs, t1);
        let dump = obs.flight().expect("a clamped class fires the recorder");
        assert_eq!((dump.trigger, dump.at), (Fault::ClassClamped, t0));
        assert_eq!(dump.trigger.label(), "class_clamped");
        let report = with_view(|view| obs.debug_report(view));
        assert!(
            report.contains("driver_rejections=1 express_violations=0 class_clamped=1")
                && report.contains("flight recorder fired(class_clamped @"),
            "{report}"
        );
    }

    #[test]
    fn a_rejected_plan_fires_the_recorder() {
        // The engine counts the rejection, then checks.
        let mut obs = Observer::new(NodeId(1));
        obs.metrics_mut().driver_rejections += 1;
        check(&mut obs, SimTime::from_nanos(5));
        let dump = obs.flight().expect("a rejected plan fires the recorder");
        assert_eq!(dump.trigger.label(), "driver_rejections");
    }
}

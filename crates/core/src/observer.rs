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
use crate::scope::{self, RailTick, Sampler, TickStats};
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

    /// The four live gauges — backlog bytes and messages, data packets in
    /// flight and unacked — read once for the sampler's tick and the
    /// registry's `state` section, so the two cannot disagree. The
    /// cumulative counters are left at zero.
    pub(crate) fn gauges(&self) -> TickStats {
        TickStats {
            backlog_bytes: self.collect.backlog_bytes(),
            backlog_msgs: self.collect.pending_msgs(),
            inflight_pkts: self.rel.inflight() as u64,
            retx_pending: self.rel.unacked() as u64,
            ..TickStats::default()
        }
    }

    /// Each rail's health score in thousandths and whether it is dead, in
    /// rail order — the sampler's and the `state` section's one reading.
    pub(crate) fn rail_health(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.rel
            .rails()
            .iter()
            .map(|h| (milli(h.score()), h.is_dead()))
    }

    /// The registry's `state` section: the live gauges, the engine's
    /// settings, the flight recorder's status (`recorder`), the first
    /// [`STATE_FLOWS`] active flows and every rail's health — what a stuck
    /// workload is debugged from.
    fn state(&self, recorder: Json) -> Json {
        let (g, collect, rel) = (self.gauges(), self.collect, self.rel);
        // O(active) walk, capped so a 100k-flow stall does not produce a
        // 100k-entry section.
        let active = collect.active_flow_ids().take(STATE_FLOWS).map(|id| {
            let fs = collect.flow(id);
            obj()
                .field("flow", fs.id.0)
                .field("dst", fs.dst.0)
                .field("queued", fs.queued())
                .build()
        });
        let rails = rel.rails().iter().zip(self.rail_health()).enumerate();
        let rails = rails.map(|(r, (h, (health_milli, dead)))| {
            obj()
                .field("health_milli", health_milli)
                .field("degraded", h.is_degraded())
                .field("dead", dead)
                .field("acks", h.acks())
                .field("timeouts", h.timeouts())
                .field("congestion_milli", milli(h.congestion()))
                .field("ecn_marks", h.ecn_marks())
                .field("rto_margin_ns", rel.rto_margin(r).as_nanos())
                .build()
        });
        let admission = if self.config.admission.enabled() {
            "on"
        } else {
            "off"
        };
        obj()
            .field("backlog_bytes", g.backlog_bytes)
            .field("backlog_msgs", g.backlog_msgs)
            .field("flows", collect.flows().len())
            .field("active_flows", collect.index().active_count())
            .field("inflight_pkts", g.inflight_pkts)
            .field("unacked_pkts", g.retx_pending)
            .field("superseded_cookies", rel.superseded_len())
            .field("ctrl_queue", self.transfer.ctrl_len())
            .field("policy", format!("{:?}", self.opt.policy().kind()))
            .field("fairness", format!("{:?}", self.config.fairness))
            .field("admission", admission)
            .field("recorder", recorder)
            .field("active", Json::Arr(active.collect()))
            .field("rails", Json::Arr(rails.collect()))
            .build()
    }
}

/// Active flows the `state` section lists.
const STATE_FLOWS: usize = 16;

/// `x` in thousandths, rounded.
fn milli(x: f64) -> u32 {
    (x * 1000.0).round() as u32
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
    /// flight recorder: capture the trailing trace events and the
    /// registry, whose `state` names that counter (the first in
    /// [`Fault::ALL`] when one step moved several). Called after each
    /// step that can advance one.
    pub(crate) fn check_faults(&mut self, now: SimTime, view: &EngineView<'_>) {
        if self.flight.is_some() {
            return;
        }
        let Some(fault) = Fault::ALL.into_iter().find(|f| f.count(&self.metrics) > 0) else {
            return;
        };
        let mut reg = MetricsRegistry::new();
        self.register(&mut reg, "", view, Some((fault, now)));
        self.flight = Some(FlightDump::capture(
            self.node,
            fault,
            now,
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

    /// One madscope sampler tick: snapshot the engine's gauges, its
    /// cumulative counters and per-rail state into the ring, then re-arm
    /// unless the engine has been drained long enough for the timer to
    /// sleep (preserving quiescence of idle simulations).
    pub(crate) fn sampler_tick(&mut self, ctx: &mut SimCtx<'_>, view: &EngineView<'_>) {
        let Some(s) = self.sampler.as_mut() else {
            return;
        };
        let m = &self.metrics;
        let stats = TickStats {
            submitted_msgs: m.submitted_msgs,
            delivered_msgs: m.delivered_msgs,
            packets_sent: m.packets_sent,
            plans_evaluated: m.plans_evaluated,
            strategy_wins: m.strategy_wins.values().sum(),
            ..view.gauges()
        };
        let rails: Vec<RailTick> = view
            .rail_health()
            .zip(view.transfer.rails())
            .map(|((health_milli, dead), rail)| RailTick {
                busy: !rail.driver.is_idle(ctx),
                health_milli,
                dead,
            })
            .collect();
        if s.record_tick(ctx.now(), stats, &rails, view.drained()) {
            ctx.set_timer(s.tick(), SAMPLER_TAG);
        } else {
            s.set_armed(false);
        }
    }

    /// Register every metric source of the engine — engine counters,
    /// receiver stats, the live `state` and (when enabled) the sampler
    /// digest and the trace ring's health — under `prefix` (e.g. `""` or
    /// `"node0/"`). This is the **single** place engine gauges join a
    /// registry, so a new madscope gauge registers exactly once,
    /// everywhere: the debug report and the flight dump are this registry.
    pub(crate) fn register_metrics(
        &self,
        reg: &mut MetricsRegistry,
        prefix: &str,
        view: &EngineView<'_>,
    ) {
        let fired = self.flight.as_ref().map(|d| (d.trigger, d.at));
        self.register(reg, prefix, view, fired);
    }

    /// [`Observer::register_metrics`] with the flight recorder's status
    /// given: `fired` names the fault that fired it and when.
    fn register(
        &self,
        reg: &mut MetricsRegistry,
        prefix: &str,
        view: &EngineView<'_>,
        fired: Option<(Fault, SimTime)>,
    ) {
        reg.add_engine(&format!("{prefix}engine"), &self.metrics);
        reg.add_receiver(&format!("{prefix}receiver"), &view.receiver.stats);
        let recorder = match fired {
            Some((fault, at)) => obj()
                .field("trigger", fault.label())
                .field("at_ns", at.as_nanos())
                .build(),
            None => Json::from("armed"),
        };
        reg.add_section(&format!("{prefix}state"), view.state(recorder));
        if let Some(s) = &self.sampler {
            reg.add_section(&format!("{prefix}sampler"), s.to_json());
        }
        reg.add_ring(&format!("{prefix}trace"), &self.trace);
    }

    /// The engine's registry as text, for debugging a stuck workload: a
    /// `health:` line of the should-stay-zero counters, then one
    /// `section/path value` line per leaf ([`scope::text_render`]).
    pub(crate) fn debug_report(&self, view: &EngineView<'_>) -> String {
        let mut out = String::from("health:");
        for f in Fault::ALL {
            out.push_str(&format!(" {}={}", f.label(), f.count(&self.metrics)));
        }
        out.push('\n');
        let mut reg = MetricsRegistry::new();
        self.register_metrics(&mut reg, "", view);
        out + &scope::text_render(&reg)
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

    /// `section`'s field `key` in a registry document.
    fn leaf<'a>(doc: &'a Json, section: &str, key: &str) -> Option<&'a Json> {
        doc.get("sections")?.get(section)?.get(key)
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
        let engine = |key| leaf(&dump.metrics, "engine", key).and_then(Json::as_u64);
        assert_eq!(
            (engine("rails_dead"), engine("proto_errors")),
            (Some(1), Some(0))
        );
        let recorder = leaf(&dump.metrics, "state", "recorder").expect("state");
        assert_eq!(
            recorder.get("trigger").and_then(Json::as_str),
            Some("rails_dead")
        );
        assert_eq!(recorder.get("at_ns").and_then(Json::as_u64), Some(5));

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
            report.starts_with(
                "health: proto_errors=0 driver_rejections=1 express_violations=0 \
                 class_clamped=1 lost_msgs=0 rails_dead=0\n"
            ) && report
                .contains("\nstate/recorder/trigger class_clamped\nstate/recorder/at_ns 5\n"),
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

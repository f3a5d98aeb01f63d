//! **E13 — madflow flow-scale stress**: the engine sustains 100k-flow
//! workloads because candidate collection walks the O(active) flow index
//! instead of the full flow table; admission control converts overload
//! into typed backpressure (`WouldBlock`), deterministic shedding or
//! rejection instead of unbounded queue growth; and DRR fairness keeps
//! mice latency bounded next to an elephant.
//!
//! Methodology: three cells.
//!
//! * **Scale** — `total` flows (swept to 100k) across all four traffic
//!   classes send open-loop Poisson arrivals with bounded-Pareto
//!   ("mice and elephants") sizes over one MX rail; we record makespan,
//!   peak collect-layer backlog (the memory ceiling), per-class tail
//!   latency and express violations. Delivery recording is off, so the
//!   only unbounded state would be engine-internal — there is none.
//!   Sizes stop at 16 KiB, below the rail's rendezvous threshold: the
//!   **heterogeneous** row ([`run_hetero`]) lets them run to 256 KiB on
//!   MX + Elan, so a fraction of a percent of the messages negotiate
//!   first and their requests wait in the backlog beside the data. It is
//!   the cell E4 and E5 sweep the window and the budget on.
//! * **Fairness** — one elephant flow (BULK, continuous 8KiB) plus 64
//!   mice (DEFAULT, sparse 256B) under pack-order vs weighted DRR
//!   candidate ordering.
//! * **Overload** — an admission budget of 64KiB with offered load far
//!   above the rail's drain rate, once per [`AdmissionPolicy`]; the
//!   budget-aware [`OverloadApp`] defers `WouldBlock`ed messages and
//!   retries them from [`AppDriver::on_unblocked`].
//!
//! The wall-clock cost of candidate collection vs *total* flow count is
//! measured separately by the `activation_scaling` bench.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use madeleine::api::{AppDriver, CommApi, NullApp};
use madeleine::harness::{Cluster, ClusterSpec};
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::message::{Fragment, MessageBuilder, PackMode};
use madeleine::trace::EngineEvent;
use madeleine::{AdmissionPolicy, EngineConfig, SendOutcome};
use madware::apps::FlowSpec;
use madware::scenario::traffic_pair;
use madware::workload::{Arrival, SizeDist};
use simnet::{NodeId, SimDuration, Technology};

use crate::{fmt_f, Report, Table};

/// Seed shared by the scale cell, CI smoke and the bench gate.
pub const SEED: u64 = 1306;

/// Traffic classes cycled across the scale cell's flows.
const CLASS_CYCLE: [TrafficClass; 4] = [
    TrafficClass::DEFAULT,
    TrafficClass::BULK,
    TrafficClass::PUT_GET,
    TrafficClass::CONTROL,
];

/// Flow counts swept by the full scale cell.
pub const SCALE_SWEEP: [usize; 3] = [1_000, 10_000, 100_000];

/// Flow count used by CI smoke and the bench gate.
pub const SMOKE_FLOWS: usize = 2_000;

/// Flow count of the heterogeneous row, and of E4's and E5's sweeps on it:
/// rendezvous requests take time to accumulate, so what a window does with
/// them only shows at scale.
pub const HETERO_FLOWS: usize = 100_000;

/// Flow count of the bench gate's heterogeneous point: the smallest scale
/// at which a window that counts requests costs 5 % of the makespan.
pub const HETERO_SMOKE_FLOWS: usize = 60_000;

/// Largest message of the heterogeneous cell (the scale cell's is 16 KiB).
const HETERO_MAX_SIZE: usize = 256 << 10;

fn fairness_mode_drr() -> madeleine::FairnessMode {
    madeleine::FairnessMode::Drr
}

/// One measured scale-cell run.
pub struct ScalePoint {
    /// Total flows opened.
    pub flows: usize,
    /// Messages the workload submitted.
    pub expected: u64,
    /// Messages the sink received.
    pub delivered: u64,
    /// Time of the last delivery (µs).
    pub makespan_us: f64,
    /// Peak collect-layer backlog observed (bytes) — the memory ceiling.
    pub peak_backlog: u64,
    /// Overall receive-side median latency (µs).
    pub p50_us: f64,
    /// Overall receive-side tail latency (µs).
    pub p99_us: f64,
    /// Per-class p99 latency (µs), indexed by class slot.
    pub class_p99_us: [f64; 4],
    /// Mean latency (µs) overall and per class slot: exact, where the
    /// quantiles above are read off log2 buckets and move in octaves.
    pub mean_us: f64,
    /// See `mean_us`.
    pub class_mean_us: [f64; 4],
    /// Chunks per data packet at the sender.
    pub chunks_per_pkt: f64,
    /// Express-ordering violations observed by the receiver (must be 0).
    pub violations: u64,
    /// Sender + receiver engine metrics as deterministic JSON (byte
    /// comparison across repeats and sampler on/off).
    pub engine_json: String,
    /// Full cluster metrics registry in Prometheus text format.
    pub registry: String,
}

/// What distinguishes one scale cell from another: how many flows send
/// how many messages each, of which sizes, how far apart.
struct ScaleShape {
    flows: usize,
    msgs_per_flow: u64,
    sizes: SizeDist,
    mean_gap: SimDuration,
}

impl ScaleShape {
    /// `flows` × `msgs_per_flow` bounded-Pareto messages of up to
    /// `max_size` bytes, 400 µs apart on average.
    fn pareto(flows: usize, msgs_per_flow: u64, max_size: usize) -> Self {
        ScaleShape {
            flows,
            msgs_per_flow,
            sizes: SizeDist::Pareto {
                min: 64,
                max: max_size,
                alpha: 1.2,
            },
            mean_gap: SimDuration::from_micros(400),
        }
    }
}

/// The configuration every scale cell shares: nothing recorded per
/// delivery, so the only unbounded state would be the engine's own.
fn unrecorded(config: EngineConfig) -> EngineConfig {
    EngineConfig {
        record_deliveries: false,
        ..config
    }
}

/// Run the scale cell: `total_flows` flows, `msgs_per_flow` messages
/// each, classes cycled, bounded-Pareto sizes, open-loop arrivals.
pub fn run_scale(total_flows: usize, msgs_per_flow: u64, seed: u64, sampler: bool) -> ScalePoint {
    let spec = ClusterSpec::mx_pair().config(unrecorded(EngineConfig::default()));
    let shape = ScaleShape::pareto(total_flows, msgs_per_flow, 16 << 10);
    scale_cell(&spec, &shape, seed, sampler).0
}

/// The two rails of the heterogeneous cells.
fn hetero_spec(config: EngineConfig) -> ClusterSpec {
    let rails = vec![Technology::MyrinetMx, Technology::QuadricsElan];
    ClusterSpec::new(2, rails).config(unrecorded(config))
}

/// Run the heterogeneous cell under `config`: the scale cell's arrivals
/// with sizes across the rendezvous threshold, on MX + Elan.
pub fn run_hetero(total_flows: usize, config: EngineConfig) -> ScalePoint {
    let shape = ScaleShape::pareto(total_flows, 2, HETERO_MAX_SIZE);
    scale_cell(&hetero_spec(config), &shape, SEED, false).0
}

/// Fully-traced miniature of the heterogeneous cell, drained — what
/// maddiff re-runs to explain an `e13h_` metric, and the one cell in the
/// tree whose decision log has requests and data contesting a packet. A
/// cell small enough to trace and to commit as a snapshot holds no
/// rendezvous body at one in eight hundred, so the miniature draws its
/// sizes from 1 KiB up (one message in thirty negotiates) and lets them
/// arrive 20 µs apart per flow, far above what the rails drain. What it
/// cannot hold is the effect the full cell gates: requests lose to data
/// that has aged for milliseconds, and 640 messages are gone before
/// they have.
pub fn traced_hetero_cell(salt: u64) -> Cluster {
    let shape = ScaleShape {
        flows: 160,
        msgs_per_flow: 4,
        sizes: SizeDist::Pareto {
            min: 1 << 10,
            max: HETERO_MAX_SIZE,
            alpha: 1.2,
        },
        mean_gap: SimDuration::from_micros(20),
    };
    let spec = hetero_spec(EngineConfig::default()).with_tracing(1 << 16);
    let seed = SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    scale_cell(&spec, &shape, seed, false).1
}

/// The scale workload `shape` describes on the cluster `spec` describes,
/// drained: classes cycled, open-loop Poisson arrivals.
fn scale_cell(
    spec: &ClusterSpec,
    shape: &ScaleShape,
    seed: u64,
    sampler: bool,
) -> (ScalePoint, Cluster) {
    let (total_flows, msgs_per_flow) = (shape.flows, shape.msgs_per_flow);
    let specs: Vec<FlowSpec> = (0..total_flows)
        .map(|i| FlowSpec {
            dst: NodeId(1),
            class: CLASS_CYCLE[i % CLASS_CYCLE.len()],
            arrival: Arrival::Poisson(shape.mean_gap),
            sizes: shape.sizes.clone(),
            express_header: 8,
            stop_after: Some(msgs_per_flow),
            // Stagger first arrivals so 100k timers do not fire at t=0.
            start_after: SimDuration::from_nanos((i as u64 % 4096) * 500),
        })
        .collect();
    let (mut cluster, _tx, rx) = traffic_pair(spec, "flowscale", specs, seed);
    if sampler {
        cluster.enable_sampler(SimDuration::from_micros(50));
    }
    let expected = total_flows as u64 * msgs_per_flow;
    let mut peak = 0u64;
    for _ in 0..200_000 {
        cluster.run_for(SimDuration::from_micros(200));
        peak = peak.max(cluster.handle(0).backlog_bytes());
        if rx.borrow().received >= expected {
            break;
        }
    }
    cluster.drain();
    let makespan_us = rx.borrow().last_recv.as_micros_f64();
    let m = cluster.handle(1).metrics();
    let mut class_p99_us = [0.0f64; 4];
    let mut class_mean_us = [0.0f64; 4];
    for (slot, by_class) in m.latency_by_class.iter().take(4).enumerate() {
        class_p99_us[slot] = by_class.quantile(0.99).as_micros_f64();
        class_mean_us[slot] = by_class.summary().mean();
    }
    let sender = cluster.handle(0).metrics();
    let engine_json = format!("{}\n{}", sender.to_json().render(), m.to_json().render());
    let point = ScalePoint {
        flows: total_flows,
        expected,
        delivered: m.delivered_msgs,
        makespan_us,
        peak_backlog: peak,
        p50_us: m.latency.quantile(0.5).as_micros_f64(),
        p99_us: m.latency.quantile(0.99).as_micros_f64(),
        class_p99_us,
        mean_us: m.latency.summary().mean(),
        class_mean_us,
        chunks_per_pkt: sender.aggregation_ratio(),
        violations: cluster.handle(1).receiver_stats().express_violations,
        engine_json,
        registry: cluster.prometheus_text(),
    };
    (point, cluster)
}

/// One measured fairness-cell run.
pub struct FairnessPoint {
    /// Mice (DEFAULT class) median latency (µs).
    pub mice_p50_us: f64,
    /// Mice (DEFAULT class) tail latency (µs).
    pub mice_p99_us: f64,
    /// Elephant (BULK class) tail latency (µs).
    pub elephant_p99_us: f64,
    /// Messages received.
    pub delivered: u64,
    /// Messages expected.
    pub expected: u64,
}

const ELEPHANT_MSGS: u64 = 400;
const MICE: usize = 64;
const MICE_MSGS: u64 = 25;

/// Run the fairness cell: one continuous BULK elephant (flow 0, which
/// pack order always visits first) against 64 sparse DEFAULT mice,
/// under the given candidate-ordering mode.
pub fn run_fairness(mode: madeleine::FairnessMode) -> FairnessPoint {
    fairness_cell(mode, None).0
}

/// The fairness workload at any size, drained: one continuous BULK
/// elephant of `elephant_msgs` × 8 KiB against `mice` sparse DEFAULT
/// flows of [`MICE_MSGS`] × 256 B, with optional madtrace rings. The
/// fairness cell and maddiff's smaller E13 cell are both this.
pub fn fairness_cluster(
    mode: madeleine::FairnessMode,
    elephant_msgs: u64,
    mice: usize,
    seed: u64,
    trace_cap: Option<usize>,
) -> Cluster {
    let mut specs = vec![FlowSpec {
        dst: NodeId(1),
        class: TrafficClass::BULK,
        arrival: Arrival::Periodic(SimDuration::from_micros(10)),
        sizes: SizeDist::Fixed(8 << 10),
        express_header: 0,
        stop_after: Some(elephant_msgs),
        start_after: SimDuration::ZERO,
    }];
    let mouse = FlowSpec {
        stop_after: Some(MICE_MSGS),
        ..FlowSpec::eager(NodeId(1), SimDuration::from_micros(200), 256)
    };
    specs.extend(vec![mouse; mice]);
    let spec = ClusterSpec::mx_pair()
        .config(EngineConfig {
            fairness: mode,
            drr_quantum: 2048,
            ..EngineConfig::default()
        })
        .with_tracing(trace_cap);
    let (mut cluster, _tx, _rx) = traffic_pair(&spec, "fairness", specs, seed);
    cluster.drain();
    cluster
}

/// The fairness cell with optional madtrace rings (for madprof).
fn fairness_cell(
    mode: madeleine::FairnessMode,
    trace_cap: Option<usize>,
) -> (FairnessPoint, Cluster) {
    let cluster = fairness_cluster(mode, ELEPHANT_MSGS, MICE, SEED, trace_cap);
    let m = cluster.handle(1).metrics();
    let mice = &m.latency_by_class[TrafficClass::DEFAULT.0 as usize];
    let elephant = &m.latency_by_class[TrafficClass::BULK.0 as usize];
    let point = FairnessPoint {
        mice_p50_us: mice.quantile(0.5).as_micros_f64(),
        mice_p99_us: mice.quantile(0.99).as_micros_f64(),
        elephant_p99_us: elephant.quantile(0.99).as_micros_f64(),
        delivered: m.delivered_msgs,
        expected: ELEPHANT_MSGS + MICE as u64 * MICE_MSGS,
    };
    (point, cluster)
}

/// Fully-traced replica of the overload cell for one admission policy.
/// maddiff's explicit E13 Shed case: diffing `Block` against
/// `ShedOldest` must report the shed messages in `unmatched` (submitted
/// but never delivered), never fold them into the phase deltas.
pub fn traced_overload_cell(policy: AdmissionPolicy) -> Cluster {
    let (mut cluster, _stats) = overload_cluster(policy, Some(1 << 18), Some(1 << 18));
    cluster.drain();
    cluster
}

/// madprof artifacts for the DRR fairness cell (the EXPERIMENTS
/// "mice-behind-elephant" flamegraph): the traced replica of
/// `run_fairness(Drr)` profiled post-hoc, showing the elephant's
/// decision-wait absorbing the queueing DRR takes away from the mice.
pub fn profile_artifacts() -> Vec<(String, String)> {
    let (_, cluster) = fairness_cell(madeleine::FairnessMode::Drr, Some(1 << 18));
    let prof = cluster.profile();
    vec![
        ("e13_profile.folded".to_string(), prof.folded_stacks()),
        ("e13_attribution.csv".to_string(), prof.attribution_csv()),
        ("e13_profile.json".to_string(), prof.to_json().render()),
    ]
}

/// Externally inspectable counters of one [`OverloadApp`] run.
#[derive(Clone, Debug, Default)]
pub struct OverloadStats {
    /// Messages the generator tried to submit.
    pub attempts: u64,
    /// `Admitted` outcomes (first-try submissions).
    pub admitted: u64,
    /// `WouldBlock` outcomes (message deferred for retry).
    pub blocked: u64,
    /// `Rejected` outcomes (message dropped by the app).
    pub rejected: u64,
    /// Messages shed by the engine to admit newer ones (from `Shed`
    /// outcomes observed by this sender).
    pub shed_seen: u64,
    /// Deferred messages admitted from `on_unblocked` retries.
    pub retried_ok: u64,
}

/// Budget-aware open-loop generator: submits via [`CommApi::try_send`],
/// defers `WouldBlock`ed messages and retries them when the engine
/// reports the class unblocked. The showcase consumer of madflow
/// admission control.
pub struct OverloadApp {
    dst: NodeId,
    class: TrafficClass,
    msg_size: usize,
    period: SimDuration,
    target: u64,
    flow: Option<FlowId>,
    deferred: VecDeque<Vec<Fragment>>,
    stats: Rc<RefCell<OverloadStats>>,
}

impl OverloadApp {
    /// Build the generator and a handle onto its counters.
    pub fn new(
        dst: NodeId,
        class: TrafficClass,
        msg_size: usize,
        period: SimDuration,
        target: u64,
    ) -> (Self, Rc<RefCell<OverloadStats>>) {
        let stats = Rc::new(RefCell::new(OverloadStats::default()));
        (
            OverloadApp {
                dst,
                class,
                msg_size,
                period,
                target,
                flow: None,
                deferred: VecDeque::new(),
                stats: stats.clone(),
            },
            stats,
        )
    }

    fn build_parts(&self, seq: u64) -> Vec<Fragment> {
        let body = vec![(seq & 0xFF) as u8; self.msg_size];
        MessageBuilder::new()
            .pack(&body, PackMode::Cheaper)
            .build_parts()
    }

    fn record_outcome(&mut self, outcome: SendOutcome, parts: Vec<Fragment>) {
        let mut s = self.stats.borrow_mut();
        match outcome {
            SendOutcome::Admitted(_) => s.admitted += 1,
            SendOutcome::Shed { shed, .. } => {
                s.admitted += 1;
                s.shed_seen += shed.len() as u64;
            }
            SendOutcome::WouldBlock => {
                s.blocked += 1;
                drop(s);
                self.deferred.push_back(parts);
            }
            SendOutcome::Rejected => s.rejected += 1,
        }
    }
}

impl AppDriver for OverloadApp {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        self.flow = Some(api.open_flow(self.dst, self.class));
        api.set_timer(self.period, 0);
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, _tag: u64) {
        let flow = self.flow.expect("flow opened at start");
        let attempts = {
            let mut s = self.stats.borrow_mut();
            s.attempts += 1;
            s.attempts
        };
        let parts = self.build_parts(attempts);
        if self.deferred.is_empty() {
            let outcome = api.try_send(flow, parts.clone());
            self.record_outcome(outcome, parts);
        } else {
            // Already backpressured: keep FIFO order, wait for unblock.
            self.deferred.push_back(parts);
        }
        if attempts < self.target {
            api.set_timer(self.period, 0);
        }
    }

    fn on_unblocked(&mut self, api: &mut dyn CommApi, class: TrafficClass) {
        if class != self.class {
            return;
        }
        let flow = self.flow.expect("flow opened at start");
        while let Some(parts) = self.deferred.pop_front() {
            match api.try_send(flow, parts.clone()) {
                SendOutcome::Admitted(_) | SendOutcome::Shed { .. } => {
                    self.stats.borrow_mut().retried_ok += 1;
                }
                SendOutcome::WouldBlock => {
                    self.deferred.push_front(parts);
                    break;
                }
                SendOutcome::Rejected => {
                    self.stats.borrow_mut().rejected += 1;
                }
            }
        }
    }
}

/// One measured overload-cell run.
pub struct OverloadPoint {
    /// Generator counters.
    pub stats: OverloadStats,
    /// Messages the sink engine delivered.
    pub delivered: u64,
    /// Engine counters: refused submissions.
    pub blocked_sends: u64,
    /// Engine counters: shed messages.
    pub shed_msgs: u64,
    /// Engine counters: rejected submissions.
    pub rejected_sends: u64,
    /// Engine counters: pressure episodes that ended.
    pub unblocked_events: u64,
    /// Admission event sequence (`Admitted`/`Shed`/`Unblocked` trace
    /// records) as deterministic text, for byte comparison.
    pub events: String,
}

const OVERLOAD_TARGET: u64 = 300;
const OVERLOAD_MSG: usize = 4 << 10;
const OVERLOAD_BUDGET: u64 = 64 << 10;

/// The overload cell, undrained: offered load far above the rail drain
/// rate against a 64KiB engine backlog budget under `policy`, with the
/// given simulator / engine ring capacities.
fn overload_cluster(
    policy: AdmissionPolicy,
    trace: Option<usize>,
    engine_trace: Option<usize>,
) -> (Cluster, Rc<RefCell<OverloadStats>>) {
    let mut config = EngineConfig::default();
    config.admission.max_backlog_bytes = OVERLOAD_BUDGET;
    config.admission.policy = [policy; 4];
    let (app, stats) = OverloadApp::new(
        NodeId(1),
        TrafficClass::DEFAULT,
        OVERLOAD_MSG,
        SimDuration::from_micros(1),
        OVERLOAD_TARGET,
    );
    let mut spec = ClusterSpec::mx_pair().config(config);
    (spec.trace, spec.engine_trace) = (trace, engine_trace);
    let cluster = Cluster::build(&spec, vec![Some(Box::new(app)), Some(Box::new(NullApp))]);
    (cluster, stats)
}

/// Run the overload cell under the given policy.
pub fn run_overload(policy: AdmissionPolicy, sampler: bool) -> OverloadPoint {
    let (mut cluster, stats) = overload_cluster(policy, None, Some(1 << 14));
    if sampler {
        cluster.enable_sampler(SimDuration::from_micros(20));
    }
    cluster.drain();
    let m = cluster.handle(0).metrics();
    let mut events = String::new();
    if let Some(h) = cluster.handle(0).opt() {
        for rec in h.trace().iter() {
            if matches!(
                rec.event,
                EngineEvent::Admitted { .. }
                    | EngineEvent::Shed { .. }
                    | EngineEvent::Unblocked { .. }
            ) {
                events.push_str(&format!(
                    "{} {} {}\n",
                    rec.at.as_nanos(),
                    rec.event.name(),
                    rec.event.args().render()
                ));
            }
        }
    }
    let stats = stats.borrow().clone();
    OverloadPoint {
        stats,
        delivered: cluster.handle(1).metrics().delivered_msgs,
        blocked_sends: m.blocked_sends,
        shed_msgs: m.shed_msgs,
        rejected_sends: m.rejected_sends,
        unblocked_events: m.unblocked_events,
        events,
    }
}

fn policy_label(p: AdmissionPolicy) -> &'static str {
    match p {
        AdmissionPolicy::Block => "block",
        AdmissionPolicy::ShedOldest => "shed-oldest",
        AdmissionPolicy::Reject => "reject",
    }
}

/// Run the experiment.
pub fn run() -> Report {
    let mut notes = Vec::new();

    let mut ts = Table::new(
        "open-loop Poisson arrivals, bounded-Pareto sizes (64B..16KiB, a=1.2), 4 classes, 1 MX rail",
        &[
            "flows",
            "delivered",
            "makespan(ms)",
            "peak backlog(KiB)",
            "p50(us)",
            "p99(us)",
            "ctrl p99(us)",
            "express viol",
        ],
    );
    for &flows in &SCALE_SWEEP {
        let p = run_scale(flows, 2, SEED, false);
        ts.row(vec![
            p.flows.to_string(),
            format!("{}/{}", p.delivered, p.expected),
            fmt_f(p.makespan_us / 1000.0),
            fmt_f(p.peak_backlog as f64 / 1024.0),
            fmt_f(p.p50_us),
            fmt_f(p.p99_us),
            fmt_f(p.class_p99_us[TrafficClass::CONTROL.0 as usize]),
            p.violations.to_string(),
        ]);
    }
    notes.push(
        "candidate collection walks the O(active) flow index, so idle \
         flows are free: the `activation_scaling` bench holds \
         active flows at 10 while growing the table from 10 to 100k and \
         the per-activation cost stays flat"
            .into(),
    );

    let mut th = Table::new(
        "the same arrivals, sizes 64B..256KiB across the rendezvous threshold, MX + Elan rails",
        &[
            "flows",
            "delivered",
            "makespan(ms)",
            "chunks/pkt",
            "mean(us)",
            "ctrl mean(us)",
            "express viol",
        ],
    );
    let h = run_hetero(HETERO_FLOWS, EngineConfig::default());
    th.row(vec![
        h.flows.to_string(),
        format!("{}/{}", h.delivered, h.expected),
        fmt_f(h.makespan_us / 1000.0),
        fmt_f(h.chunks_per_pkt),
        fmt_f(h.mean_us),
        fmt_f(h.class_mean_us[TrafficClass::CONTROL.0 as usize]),
        h.violations.to_string(),
    ]);
    notes.push(format!(
        "heterogeneous row: one message in eight hundred is a rendezvous \
         body whose request waits in the backlog; requests are offered \
         beside the lookahead window, not in it, so the window stays full \
         of data ({} chunks per packet) however many of them are parked — \
         E4 and E5 sweep the window and the budget on this cell",
        fmt_f(h.chunks_per_pkt),
    ));

    let mut tf = Table::new(
        "1 BULK elephant (8KiB every 10us, flow 0) vs 64 DEFAULT mice (256B, sparse)",
        &[
            "ordering",
            "mice p50(us)",
            "mice p99(us)",
            "elephant p99(us)",
            "delivered",
        ],
    );
    let pack = run_fairness(madeleine::FairnessMode::PackOrder);
    let drr = run_fairness(fairness_mode_drr());
    for (label, p) in [("pack-order", &pack), ("drr", &drr)] {
        tf.row(vec![
            label.into(),
            fmt_f(p.mice_p50_us),
            fmt_f(p.mice_p99_us),
            fmt_f(p.elephant_p99_us),
            format!("{}/{}", p.delivered, p.expected),
        ]);
    }
    notes.push(format!(
        "DRR splits the lookahead window across class slots by weight and \
         rotates a deficit cursor inside each class: mice p99 {} -> {} us \
         next to the elephant",
        fmt_f(pack.mice_p99_us),
        fmt_f(drr.mice_p99_us),
    ));

    let mut to = Table::new(
        "4KiB msgs every 1us (offered >> drain) vs a 64KiB backlog budget",
        &[
            "policy",
            "attempts",
            "admitted",
            "blocked",
            "retried ok",
            "shed",
            "rejected",
            "unblocked",
            "delivered",
        ],
    );
    for policy in [
        AdmissionPolicy::Block,
        AdmissionPolicy::ShedOldest,
        AdmissionPolicy::Reject,
    ] {
        let p = run_overload(policy, false);
        to.row(vec![
            policy_label(policy).into(),
            p.stats.attempts.to_string(),
            p.stats.admitted.to_string(),
            p.stats.blocked.to_string(),
            p.stats.retried_ok.to_string(),
            p.shed_msgs.to_string(),
            p.rejected_sends.to_string(),
            p.unblocked_events.to_string(),
            p.delivered.to_string(),
        ]);
    }
    notes.push(
        "block converts overload into lossless backpressure (every \
         deferred message is retried from on_unblocked and delivered); \
         shed-oldest stays lossy-but-fresh by evicting the oldest \
         uncommitted backlog; reject refuses at the door — all three are \
         deterministic and visible as Admitted/Shed/Unblocked trace events"
            .into(),
    );

    Report {
        id: "E13",
        title: "madflow sustains 100k flows with O(active) scheduling, admission control and weighted fairness",
        claim: "dynamic optimization survives flow-count scale: the backlog index keeps activations O(active), budgets bound memory, and DRR bounds mice latency under an elephant",
        tables: vec![ts, th, tf, to],
        notes,
        artifacts: profile_artifacts(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CI smoke (satellite): 2k flows complete with zero express
    /// violations and a bounded backlog.
    #[test]
    fn smoke_flowscale_completes() {
        let p = run_scale(SMOKE_FLOWS, 2, SEED, false);
        assert_eq!(p.delivered, p.expected, "lost messages at 2k flows");
        assert_eq!(p.violations, 0, "express ordering violated");
        assert!(p.peak_backlog > 0, "stress run never built a backlog");
    }

    #[test]
    fn fairness_modes_complete_and_drr_protects_mice() {
        let pack = run_fairness(madeleine::FairnessMode::PackOrder);
        let drr = run_fairness(fairness_mode_drr());
        assert_eq!(pack.delivered, pack.expected);
        assert_eq!(drr.delivered, drr.expected);
        assert!(
            drr.mice_p99_us <= pack.mice_p99_us,
            "DRR mice p99 {} worse than pack-order {}",
            drr.mice_p99_us,
            pack.mice_p99_us
        );
    }

    #[test]
    fn overload_block_backpressures_then_recovers_everything() {
        let p = run_overload(AdmissionPolicy::Block, false);
        assert!(p.blocked_sends > 0, "budget never hit");
        assert!(p.unblocked_events > 0, "pressure never released");
        assert!(p.stats.retried_ok > 0, "no deferred retries");
        assert_eq!(
            p.delivered, p.stats.attempts,
            "block must be lossless: every deferred message retried"
        );
        assert_eq!(p.shed_msgs, 0);
        assert_eq!(p.rejected_sends, 0);
    }

    #[test]
    fn overload_shed_oldest_sheds_and_stays_fresh() {
        let p = run_overload(AdmissionPolicy::ShedOldest, false);
        assert!(p.shed_msgs > 0, "nothing shed at 2x overload");
        assert_eq!(p.stats.blocked, 0, "shed-oldest never blocks");
        assert_eq!(
            p.delivered,
            p.stats.attempts - p.shed_msgs,
            "delivered must equal admitted minus shed"
        );
    }

    #[test]
    fn overload_reject_refuses_at_the_door() {
        let p = run_overload(AdmissionPolicy::Reject, false);
        assert!(p.rejected_sends > 0, "nothing rejected at 2x overload");
        assert_eq!(p.stats.blocked, 0);
        assert_eq!(p.shed_msgs, 0);
        assert_eq!(p.delivered, p.stats.attempts - p.rejected_sends);
    }

    /// Same seed => byte-identical metrics and admission event sequence,
    /// with the sampler on or off (acceptance criterion).
    #[test]
    fn deterministic_across_repeats_and_sampler() {
        let a = run_scale(1_500, 2, SEED, false);
        let b = run_scale(1_500, 2, SEED, false);
        assert_eq!(a.engine_json, b.engine_json, "metrics drift across repeats");
        assert_eq!(a.registry, b.registry, "registry drift across repeats");
        let s = run_scale(1_500, 2, SEED, true);
        assert_eq!(
            a.engine_json, s.engine_json,
            "sampler must observe, not perturb"
        );

        let x = run_overload(AdmissionPolicy::ShedOldest, false);
        let y = run_overload(AdmissionPolicy::ShedOldest, true);
        assert!(!x.events.is_empty(), "no admission events traced");
        assert_eq!(x.events, y.events, "event sequence differs under sampler");
        let z = run_overload(AdmissionPolicy::ShedOldest, false);
        assert_eq!(x.events, z.events, "event sequence drifts across repeats");
    }
}

//! **E14 — madnet incast and congestion-aware steering**: switched
//! topologies give the optimizer a fabric worth reacting to. Two cells:
//!
//! * **Incast** — N senders burst at one receiver across a dumbbell
//!   whose core carries all N edge links (N:1 oversubscription). The
//!   naive open-loop burst collapses: the core switch queue overflows,
//!   packets drop, and madrel's retransmit timeouts stretch the tail by
//!   orders of magnitude. The same workload behind madflow admission
//!   control (Block policy, small per-sender budget) keeps the engine
//!   backlog bounded and recovers every message. (It does not bound the
//!   tail any more: with timeouts kept by the cost model the open-loop
//!   cell is through in 24.9 ms, before the admitted one at 31.4 ms —
//!   see the smoke test; what admission buys under incast is ROADMAP
//!   2(b)(iii).)
//! * **Steering** — an elephant (BULK, node 1 → node 3) saturates the
//!   shared dumbbell core of rail 0 while mice (DEFAULT, node 0 →
//!   node 2) need the same core. Rail 1 is a flat private-pipe rail.
//!   With `congestion_aware` scoring, ECN marks echoed in acks inflate
//!   rail 0's congestion penalty: idle rails pull the shared backlog in
//!   penalty order, and a rail whose penalty sits far above the best
//!   live rail's is gated out of pulling entirely, so both the mice and
//!   the elephant migrate onto rail 1 after the first marked ack.
//!   Congestion-blind scoring counts the same marks but keeps feeding
//!   the collapsing core until timeouts do the steering the hard, slow
//!   way.
//!
//! Everything runs in virtual time on seeded RNGs: repeat runs are
//! byte-identical, including fabric queue evolution and mark timing.

use madeleine::harness::{Cluster, ClusterSpec};
use madeleine::ids::TrafficClass;
use madeleine::{AdmissionPolicy, EngineConfig, ReliabilityMode};
use madware::apps::{FlowSpec, TrafficApp};
use madware::workload::{Arrival, SizeDist};
use simnet::{LinkProfile, NodeId, SimDuration, Technology, Topology};

use super::e13_flowscale::OverloadApp;
use crate::{fmt_f, Report, Table};

/// Seed shared by both cells, CI smoke and the bench gate.
pub const SEED: u64 = 1406;

/// Senders in the incast cell (the dumbbell's left side).
pub const INCAST_SENDERS: usize = 8;
/// Messages each incast sender offers.
const INCAST_MSGS: u64 = 40;
/// Incast message payload.
const INCAST_MSG_BYTES: usize = 8 << 10;
/// Per-sender engine backlog budget in the admission-controlled cell.
const INCAST_BUDGET: u64 = 32 << 10;

/// One measured incast run.
pub struct IncastPoint {
    /// Messages the receiver's engine delivered.
    pub delivered: u64,
    /// Messages the senders offered.
    pub expected: u64,
    /// Time of quiescence (µs).
    pub makespan_us: f64,
    /// Receiver-measured median latency (µs).
    pub p50_us: f64,
    /// Receiver-measured tail latency (µs).
    pub p99_us: f64,
    /// Deepest engine backlog any sender reached (messages).
    pub peak_backlog: u64,
    /// Rails declared dead across all senders (must be 0: the rail is
    /// congested, not dead).
    pub rails_dead: u64,
    /// Fabric packets dropped at full switch queues (per-link sum).
    pub fabric_drops: u64,
    /// Fabric ECN marks (per-link sum).
    pub ecn_marks: u64,
    /// Retransmissions across all senders (madrel).
    pub retransmits: u64,
    /// Messages abandoned after retry-budget exhaustion (must be 0).
    pub lost: u64,
    /// `WouldBlock` outcomes across all senders (0 without admission).
    pub blocked: u64,
    /// Sender + receiver metrics as deterministic JSON.
    pub engine_json: String,
}

/// Run the incast cell: [`INCAST_SENDERS`] → 1 across a dumbbell whose
/// core equals one edge link, with or without admission control.
pub fn run_incast(admission: bool) -> IncastPoint {
    let (point, _cluster) = incast_cell(admission, None, 0);
    point
}

/// `salt` perturbs the senders' submission period (nanoseconds added to
/// the 2 µs base) so maddiff's cross-seed smoke can compare genuinely
/// different timings; salt 0 is the canonical cell.
fn incast_cell(admission: bool, trace_cap: Option<usize>, salt: u64) -> (IncastPoint, Cluster) {
    let n = INCAST_SENDERS;
    let profile = nicdrv::calib::params(Technology::MyrinetMx).link_profile();
    let topo = Topology::dumbbell(n as u32, 1, profile, profile);
    let mut config = EngineConfig {
        reliability: ReliabilityMode::Recover,
        record_deliveries: false,
        ..EngineConfig::default()
    };
    if admission {
        config.admission.max_backlog_bytes = INCAST_BUDGET;
        config.admission.policy = [AdmissionPolicy::Block; 4];
    }
    let mut apps: Vec<Option<Box<dyn madeleine::api::AppDriver>>> = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..n {
        let (app, s) = OverloadApp::new(
            NodeId(n as u32),
            TrafficClass::DEFAULT,
            INCAST_MSG_BYTES,
            SimDuration::from_nanos(2_000 + salt),
            INCAST_MSGS,
        );
        apps.push(Some(Box::new(app)));
        stats.push(s);
    }
    apps.push(None); // the receiver runs a bare engine
    let spec = ClusterSpec::new(n + 1, vec![Technology::MyrinetMx])
        .config(config)
        .with_tracing(trace_cap);
    let mut cluster = Cluster::build_with_topologies(&spec, vec![Some(topo)], apps);
    let end = cluster.drain();
    let fab = cluster
        .sim
        .fabric(cluster.networks[0])
        .expect("switched rail");
    let (mut drops, mut marks) = (0u64, 0u64);
    for s in fab.link_stats() {
        drops += s.queue_drops;
        marks += s.ecn_marks;
    }
    let (mut retransmits, mut lost, mut blocked, mut rails_dead) = (0u64, 0u64, 0u64, 0u64);
    let mut peak_backlog = 0u64;
    let mut engine_json = String::new();
    for i in 0..n {
        let m = cluster.handle(i).metrics();
        retransmits += m.retransmits;
        lost += m.lost_msgs;
        rails_dead += m.rails_dead;
        peak_backlog = peak_backlog.max(m.backlog_depth.max() as u64);
        engine_json.push_str(&m.to_json().render());
        engine_json.push('\n');
    }
    for s in &stats {
        blocked += s.borrow().blocked;
    }
    let rx = cluster.handle(n).metrics();
    engine_json.push_str(&rx.to_json().render());
    let point = IncastPoint {
        delivered: rx.delivered_msgs,
        expected: n as u64 * INCAST_MSGS,
        makespan_us: end.as_micros_f64(),
        p50_us: rx.latency.quantile(0.5).as_micros_f64(),
        p99_us: rx.latency.quantile(0.99).as_micros_f64(),
        peak_backlog,
        rails_dead,
        fabric_drops: drops,
        ecn_marks: marks,
        retransmits,
        lost,
        blocked,
        engine_json,
    };
    (point, cluster)
}

/// Fully-traced replica of `run_incast(true)` — maddiff's E14 cell.
/// The admission-controlled variant is used because the naive collapse
/// overflows even generous rings, and a truncated baseline would poison
/// every diff against it.
pub fn traced_cell(salt: u64) -> Cluster {
    incast_cell(true, Some(1 << 18), salt).1
}

/// madprof artifacts for the naive incast cell (the EXPERIMENTS E14
/// reading guide): folded stacks and the attribution CSV whose
/// `queueing_ns` column carries the fabric's echoed congestion marks.
pub fn profile_artifacts() -> Vec<(String, String)> {
    let (_, cluster) = incast_cell(false, Some(1 << 18), 0);
    let prof = cluster.profile();
    vec![
        (
            "e14_incast_profile.folded".to_string(),
            prof.folded_stacks(),
        ),
        (
            "e14_incast_attribution.csv".to_string(),
            prof.attribution_csv(),
        ),
    ]
}

/// Mice flows in the steering cell.
const MICE: usize = 8;
/// Messages per mouse.
const MICE_MSGS: u64 = 40;
/// Messages the elephant sends.
const ELEPHANT_MSGS: u64 = 200;

/// One measured steering run.
pub struct SteerPoint {
    /// Mice (DEFAULT) median latency (µs), receiver-measured.
    pub mice_p50_us: f64,
    /// Mice (DEFAULT) tail latency (µs).
    pub mice_p99_us: f64,
    /// Mice exact mean latency (µs) — the log2 buckets quantize the
    /// quantiles, the mean separates the cells continuously.
    pub mice_mean_us: f64,
    /// Mice exact worst-case latency (µs).
    pub mice_max_us: f64,
    /// Elephant (BULK) tail latency (µs).
    pub elephant_p99_us: f64,
    /// Messages delivered across both receivers.
    pub delivered: u64,
    /// Messages offered.
    pub expected: u64,
    /// ECN echoes observed by the mice sender (its congestion signal).
    pub mice_ecn_echoes: u64,
    /// Rails declared dead across all senders (blind mode's failure
    /// path; aware mode steers before the retry budget burns).
    pub rails_dead: u64,
    /// Sender + receiver metrics as deterministic JSON.
    pub engine_json: String,
}

/// Run the steering cell: elephant and mice share rail 0's dumbbell
/// core (4:1 undersized), rail 1 is a flat private-pipe rail, and
/// `aware` toggles congestion-aware plan scoring.
pub fn run_steering(aware: bool) -> SteerPoint {
    let params = nicdrv::calib::params(Technology::MyrinetMx);
    let edge = params.link_profile();
    let core = LinkProfile {
        bandwidth: edge.bandwidth / 4,
        queue_capacity: 64 << 10,
        ecn_threshold: 16 << 10,
        ..edge
    };
    // Hosts fill in node order: nodes 0,1 left of the core, 2,3 right.
    let topo = Topology::dumbbell(2, 2, edge, core);
    let config = EngineConfig {
        reliability: ReliabilityMode::Recover,
        record_deliveries: false,
        congestion_aware: aware,
        ..EngineConfig::default()
    };
    let mouse = FlowSpec {
        stop_after: Some(MICE_MSGS),
        ..FlowSpec::eager(NodeId(2), SimDuration::from_micros(100), 256)
    };
    let mice_specs = vec![mouse; MICE];
    let elephant_spec = vec![FlowSpec {
        dst: NodeId(3),
        class: TrafficClass::BULK,
        arrival: Arrival::Periodic(SimDuration::from_micros(40)),
        sizes: SizeDist::Fixed(8 << 10),
        express_header: 0,
        stop_after: Some(ELEPHANT_MSGS),
        start_after: SimDuration::ZERO,
    }];
    let (mice, _mtx) = TrafficApp::new("mice", mice_specs, SEED, 0);
    let (elephant, _etx) = TrafficApp::new("elephant", elephant_spec, SEED, 1);
    let spec = ClusterSpec::new(4, vec![Technology::MyrinetMx; 2]).config(config);
    let mut cluster = Cluster::build_with_topologies(
        &spec,
        vec![Some(topo), None],
        vec![Some(Box::new(mice)), Some(Box::new(elephant))],
    );
    cluster.drain();
    let mice_rx = cluster.handle(2).metrics();
    let elephant_rx = cluster.handle(3).metrics();
    let mice_lat = &mice_rx.latency_by_class[TrafficClass::DEFAULT.0 as usize];
    let elephant_lat = &elephant_rx.latency_by_class[TrafficClass::BULK.0 as usize];
    let mut engine_json = String::new();
    let mut rails_dead = 0;
    for i in 0..4 {
        let m = cluster.handle(i).metrics();
        rails_dead += m.rails_dead;
        engine_json.push_str(&m.to_json().render());
        engine_json.push('\n');
    }
    SteerPoint {
        mice_p50_us: mice_lat.quantile(0.5).as_micros_f64(),
        mice_p99_us: mice_lat.quantile(0.99).as_micros_f64(),
        mice_mean_us: mice_lat.summary().mean(),
        mice_max_us: mice_lat.summary().max(),
        elephant_p99_us: elephant_lat.quantile(0.99).as_micros_f64(),
        delivered: mice_rx.delivered_msgs + elephant_rx.delivered_msgs,
        expected: MICE as u64 * MICE_MSGS + ELEPHANT_MSGS,
        mice_ecn_echoes: cluster.handle(0).metrics().ecn_echoes,
        rails_dead,
        engine_json,
    }
}

/// Run the experiment.
pub fn run() -> Report {
    let mut notes = Vec::new();

    let mut ti = Table::new(
        "8 senders x 40 x 8KiB bursts -> 1 receiver over dumbbell(8,1), core = 1 edge link, madrel recover",
        &[
            "admission",
            "delivered",
            "makespan(ms)",
            "p50(us)",
            "p99(us)",
            "fabric drops",
            "ecn marks",
            "retx",
            "blocked",
            "peak backlog",
            "rails dead",
        ],
    );
    let naive = run_incast(false);
    let admitted = run_incast(true);
    for (label, p) in [("open-loop", &naive), ("block 32KiB", &admitted)] {
        ti.row(vec![
            label.into(),
            format!("{}/{}", p.delivered, p.expected),
            fmt_f(p.makespan_us / 1000.0),
            fmt_f(p.p50_us),
            fmt_f(p.p99_us),
            p.fabric_drops.to_string(),
            p.ecn_marks.to_string(),
            p.retransmits.to_string(),
            p.blocked.to_string(),
            p.peak_backlog.to_string(),
            p.rails_dead.to_string(),
        ]);
    }
    notes.push(format!(
        "incast collapse is a queue phenomenon: the open-loop burst \
         overflows the core switch queue ({} drops, {} retransmits) and \
         p99 stretches to {} us; the same offered load behind a 32KiB \
         Block budget keeps the engine backlog bounded (at most {} \
         messages a sender, against {}) and recovers every message; its \
         p99 is {} us, no longer below the open-loop cell's (ROADMAP: \
         what admission buys under incast)",
        naive.fabric_drops,
        naive.retransmits,
        fmt_f(naive.p99_us),
        admitted.peak_backlog,
        naive.peak_backlog,
        fmt_f(admitted.p99_us),
    ));

    let mut ts = Table::new(
        "elephant (BULK, 8KiB/25us) + 8 mice (DEFAULT, 256B) share rail0's dumbbell core (1/4 edge bw); rail1 flat",
        &[
            "scoring",
            "mice p50(us)",
            "mice mean(us)",
            "mice p99(us)",
            "elephant p99(ms)",
            "delivered",
            "mice ecn echoes",
            "rails dead",
        ],
    );
    let blind = run_steering(false);
    let aware = run_steering(true);
    for (label, p) in [("congestion-blind", &blind), ("congestion-aware", &aware)] {
        ts.row(vec![
            label.into(),
            fmt_f(p.mice_p50_us),
            fmt_f(p.mice_mean_us),
            fmt_f(p.mice_p99_us),
            fmt_f(p.elephant_p99_us / 1000.0),
            format!("{}/{}", p.delivered, p.expected),
            p.mice_ecn_echoes.to_string(),
            p.rails_dead.to_string(),
        ]);
    }
    notes.push(format!(
        "echoed ECN marks inflate rail0's congestion penalty, which both \
         reorders the idle-rail pull and *gates* rail0 out of pulling \
         backlog at all while a cleaner rail exists, so traffic migrates \
         to the flat rail after the first marked ack: mice p99 {} -> {} \
         us, elephant p99 {} -> {} ms; blind scoring counts the same \
         marks but only reacts to loss, paying timeout after timeout on \
         the collapsing core",
        fmt_f(blind.mice_p99_us),
        fmt_f(aware.mice_p99_us),
        fmt_f(blind.elephant_p99_us / 1000.0),
        fmt_f(aware.elephant_p99_us / 1000.0),
    ));

    Report {
        id: "E14",
        title: "madnet: incast collapse vs admission recovery, and congestion-aware rail steering",
        claim: "a switched fabric makes congestion a first-class signal: admission control bounds incast lifetimes, and ECN-fed plan scoring steers traffic off a collapsing shared core",
        tables: vec![ti, ts],
        notes,
        artifacts: profile_artifacts(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CI smoke (satellite): the naive burst collapses the core queue;
    /// admission control recovers every message with a bounded backlog.
    #[test]
    fn smoke_incast_collapse_and_recovery() {
        let (naive, cluster) = incast_cell(false, None, 0);
        assert!(naive.fabric_drops > 0, "incast never overflowed the core");
        // The senders' `node*/nic0` registry sections carry the per-NIC
        // fabric counters: what they report dropped, the links dropped.
        let registry = cluster.metrics_registry().to_json();
        let total = |field: &str| -> Option<u64> {
            let sections = registry.get("sections")?;
            (0..INCAST_SENDERS)
                .map(|i| sections.get(&format!("node{i}/nic0"))?.get(field)?.as_u64())
                .sum()
        };
        assert_eq!(total("fabric_drops"), Some(naive.fabric_drops));
        assert!(total("ecn_marked") > Some(0), "marks reach the registry");
        assert!(
            naive.ecn_marks > 0,
            "incast never crossed the ECN threshold"
        );
        assert!(naive.retransmits > 0, "drops never triggered recovery");
        let admitted = run_incast(true);
        assert!(admitted.blocked > 0, "budget never exerted backpressure");
        assert_eq!(
            admitted.delivered, admitted.expected,
            "admission-controlled incast must be lossless"
        );
        for p in [&naive, &admitted] {
            assert_eq!((p.lost, p.rails_dead), (0, 0), "default timers");
        }
        assert_eq!(naive.delivered, naive.expected);
        // Until ISSUE 22 this asserted `admitted.p99_us < naive.p99_us /
        // 4.0` (33.6 ms against 134 ms). That no longer holds: with the
        // default timers the open-loop cell is through in 24.9 ms (exact
        // worst lifetime 24.9 ms) and the admitted one in 31.4 ms (31.4),
        // both p99 in the 33.6 ms bucket. What admission still bounds —
        // by the same factor — is the backlog it is a budget on.
        assert!(
            admitted.peak_backlog <= INCAST_BUDGET / INCAST_MSG_BYTES as u64,
            "budget of {INCAST_BUDGET} bytes overrun: {} messages queued",
            admitted.peak_backlog
        );
        assert!(
            admitted.peak_backlog * 4 < naive.peak_backlog,
            "admission backlog {} not clearly below naive {}",
            admitted.peak_backlog,
            naive.peak_backlog
        );
    }

    /// Acceptance criterion: congestion-aware scoring beats blind
    /// scoring on mice p99 across the shared bottleneck.
    #[test]
    fn aware_scoring_protects_mice() {
        let blind = run_steering(false);
        let aware = run_steering(true);
        assert_eq!(blind.delivered, blind.expected, "blind run lost messages");
        assert_eq!(aware.delivered, aware.expected, "aware run lost messages");
        assert!(
            aware.mice_ecn_echoes > 0,
            "mice sender never saw a congestion echo"
        );
        assert!(
            aware.mice_p99_us < blind.mice_p99_us,
            "aware mice p99 {} us not better than blind {} us",
            aware.mice_p99_us,
            blind.mice_p99_us
        );
    }

    /// Same seed => byte-identical engine metrics across repeats, fabric
    /// contention included.
    #[test]
    fn deterministic_across_repeats() {
        let a = run_incast(false);
        let b = run_incast(false);
        assert_eq!(a.engine_json, b.engine_json, "incast metrics drift");
        let x = run_steering(true);
        let y = run_steering(true);
        assert_eq!(x.engine_json, y.engine_json, "steering metrics drift");
    }
}

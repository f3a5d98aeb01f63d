//! **E12 — loss sweep and rail death (madrel)**: the reliability subsystem
//! recovers every message under seeded packet loss, while the legacy
//! engine silently loses traffic; under a permanent rail death the
//! rail-health tracker abandons the dead rail and reroutes the backlog.
//!
//! Methodology: the E1 eager-flow workload runs over a `FaultPlan`
//! installed on the wire (deterministic per-link loss drawn from the plan
//! seed). We sweep loss ∈ {0, 0.5, 1, 2, 5}% and compare the optimizing
//! engine with `ReliabilityMode::Recover` against the legacy engine;
//! repeat the sweep with sizes mixed from 256 B to 16 KiB — where a
//! timeout has to know the size of the packet it times — and then kill
//! rail 0 of a two-rail cluster mid-run and confirm completion over the
//! survivor.

use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::{EngineConfig, ReliabilityMode};
use madware::apps::FlowSpec;
use madware::scenario::{eager_flows, traffic_pair};
use madware::workload::SizeDist;
use simnet::{FaultPlan, NodeId, SimDuration, SimTime, Technology};

use crate::{fmt_f, Report, Table};

const FLOWS: usize = 4;
const MSGS_PER_FLOW: u64 = 100;
const MSG_SIZE: usize = 256;
/// Largest size of the size-mixed sweep (uniform from [`MSG_SIZE`]).
const MIXED_MAX: usize = 16 << 10;
/// Mean gap of the size-mixed sweep: the same messages per flow carry
/// 33 times the bytes, so they come 20 times slower (a third of MX's
/// rate, where the 256 B sweep offers a fifth).
const MIXED_GAP_US: u64 = 400;
const MEAN_GAP_US: u64 = 20;
const SEED: u64 = 42;

/// Loss rates swept (fraction of packets dropped on the wire).
pub const LOSS_SWEEP: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.05];

/// Optimizing engine with full ack/retransmit recovery enabled.
pub fn recover_engine() -> EngineKind {
    EngineKind::with_config(EngineConfig {
        reliability: ReliabilityMode::Recover,
        ..EngineConfig::default()
    })
}

/// One measured run of the eager-flow workload under a fault plan.
pub struct LossPoint {
    /// Messages the sink delivered.
    pub delivered: u64,
    /// Messages the workload submitted.
    pub expected: u64,
    /// Sender retransmissions.
    pub retransmits: u64,
    /// Sender ack timeouts.
    pub timeouts: u64,
    /// Timeouts a late ack proved wrong.
    pub spurious: u64,
    /// Acks consumed by the sender.
    pub acks: u64,
    /// Messages the sender abandoned (retry budget exhausted, no rail).
    pub lost: u64,
    /// Packets the fault layer dropped on the wire.
    pub wire_drops: u64,
    /// Median delivery latency (µs).
    pub p50_us: f64,
    /// Tail delivery latency (µs).
    pub p99_us: f64,
    /// Far-tail delivery latency (µs): of 400 messages, the slowest.
    pub p999_us: f64,
}

fn measure(cluster: &mut Cluster) -> LossPoint {
    cluster.drain();
    let tx = cluster.handle(0).metrics();
    let rx = cluster.handle(1).metrics();
    let wire_drops = cluster
        .nics
        .iter()
        .flatten()
        .map(|&n| cluster.sim.nic(n).stats.wire_drops)
        .sum();
    LossPoint {
        delivered: rx.delivered_msgs,
        expected: FLOWS as u64 * MSGS_PER_FLOW,
        retransmits: tx.retransmits,
        timeouts: tx.timeouts,
        spurious: tx.spurious_timeouts,
        acks: tx.acks_received,
        lost: tx.lost_msgs,
        wire_drops,
        p50_us: rx.latency.quantile(0.5).as_micros_f64(),
        p99_us: rx.latency.quantile(0.99).as_micros_f64(),
        p999_us: rx.latency.quantile(0.999).as_micros_f64(),
    }
}

/// The E12 eager-flow workload on the cell `spec` describes, undrained.
fn workload(spec: &ClusterSpec) -> Cluster {
    let gap = SimDuration::from_micros(MEAN_GAP_US);
    eager_flows(spec, FLOWS, MSG_SIZE, gap, MSGS_PER_FLOW, SEED).0
}

/// Run the eager-flow workload on one rail under `loss`, with the given
/// engine. Identical seeds give identical traces: the fault plan is a pure
/// function of (seed, transmission order).
pub fn run_point(engine: EngineKind, loss: f64) -> LossPoint {
    let mut cluster = workload(&ClusterSpec::mx_pair().engine(engine));
    if loss > 0.0 {
        cluster.set_fault_plan(0, FaultPlan::new(SEED).with_loss(loss));
    }
    measure(&mut cluster)
}

/// [`run_point`] under `Recover` with every message's size drawn uniformly
/// from 256 B to 16 KiB: on MX a 16 KiB packet's unloaded round trip is
/// 93 us, a 256 B packet's 7.6 us, and one fixed timeout cannot fit both.
pub fn run_mixed_point(loss: f64) -> LossPoint {
    let flow = FlowSpec {
        sizes: SizeDist::Uniform(MSG_SIZE, MIXED_MAX),
        stop_after: Some(MSGS_PER_FLOW),
        ..FlowSpec::eager(NodeId(1), SimDuration::from_micros(MIXED_GAP_US), MSG_SIZE)
    };
    let spec = ClusterSpec::mx_pair().engine(recover_engine());
    let mut cluster = traffic_pair(&spec, "mixed", vec![flow; FLOWS], SEED).0;
    if loss > 0.0 {
        cluster.set_fault_plan(0, FaultPlan::new(SEED).with_loss(loss));
    }
    measure(&mut cluster)
}

/// Two-rail pooled run where rail 0 dies permanently mid-run; returns the
/// measured point plus the sender's `rails_dead` counter.
pub fn run_rail_death() -> (LossPoint, u64) {
    let spec = ClusterSpec::new(2, vec![Technology::MyrinetMx; 2]).engine(recover_engine());
    let mut cluster = workload(&spec);
    cluster.set_fault_plan(
        0,
        FaultPlan::new(SEED).with_death(SimTime::from_nanos(500_000)),
    );
    let point = measure(&mut cluster);
    let rails_dead = cluster.handle(0).metrics().rails_dead;
    (point, rails_dead)
}

/// Fully-traced replica of `run_point(recover_engine(), 0.01)`, drained
/// and ready to profile. Also the bench suite's madprof smoke cell: the
/// 1% seeded loss makes every phase — including `retx_recovery` —
/// carry real time, so the `prof_*` share gates bite.
pub fn traced_cell() -> Cluster {
    let spec = ClusterSpec::mx_pair()
        .engine(recover_engine())
        .with_tracing(1 << 16);
    let mut cluster = workload(&spec);
    cluster.set_fault_plan(0, FaultPlan::new(SEED).with_loss(0.01));
    cluster.drain();
    cluster
}

/// madprof artifacts for the 1%-loss recover cell, so the report ships
/// folded stacks + per-message attribution showing where retransmission
/// recovery puts the time.
pub fn profile_artifacts() -> Vec<(String, String)> {
    let prof = traced_cell().profile();
    vec![
        ("e12_profile.folded".to_string(), prof.folded_stacks()),
        ("e12_attribution.csv".to_string(), prof.attribution_csv()),
        ("e12_profile.json".to_string(), prof.to_json().render()),
    ]
}

/// Run the experiment.
pub fn run() -> Report {
    let mut t = Table::new(
        "4 flows x 100 msgs of 256B, MX rail; seeded wire loss vs engine",
        &[
            "loss(%)",
            "engine",
            "delivered",
            "drops",
            "retrans",
            "timeouts",
            "lost",
            "p50(us)",
            "p99(us)",
            "p999(us)",
        ],
    );
    let mut notes = Vec::new();
    let mut lossless_p50 = 0.0f64;
    for &loss in &LOSS_SWEEP {
        for legacy in [false, true] {
            let engine = if legacy {
                EngineKind::legacy()
            } else {
                recover_engine()
            };
            let p = run_point(engine, loss);
            if !legacy && loss == 0.0 {
                lossless_p50 = p.p50_us;
            }
            t.row(vec![
                fmt_f(loss * 100.0),
                if legacy { "legacy" } else { "madrel" }.into(),
                format!("{}/{}", p.delivered, p.expected),
                p.wire_drops.to_string(),
                p.retransmits.to_string(),
                p.timeouts.to_string(),
                p.lost.to_string(),
                fmt_f(p.p50_us),
                fmt_f(p.p99_us),
                fmt_f(p.p999_us),
            ]);
        }
    }
    let one_pct = run_point(recover_engine(), 0.01);
    notes.push(format!(
        "madrel delivers every message at every swept loss rate; median \
         latency at 1% loss is {}x the lossless median (retransmissions \
         land in the tail, not the median)",
        fmt_f(one_pct.p50_us / lossless_p50.max(1e-9)),
    ));

    let mut tm = Table::new(
        "4 flows x 100 msgs, sizes uniform 256B-16KiB, mean gap 400us, madrel: a timeout has to know its packet",
        &[
            "loss(%)",
            "delivered",
            "drops",
            "retrans",
            "timeouts",
            "spurious",
            "lost",
            "p50(us)",
            "p99(us)",
            "p999(us)",
        ],
    );
    for &loss in &LOSS_SWEEP {
        let p = run_mixed_point(loss);
        tm.row(vec![
            fmt_f(loss * 100.0),
            format!("{}/{}", p.delivered, p.expected),
            p.wire_drops.to_string(),
            p.retransmits.to_string(),
            p.timeouts.to_string(),
            p.spurious.to_string(),
            p.lost.to_string(),
            fmt_f(p.p50_us),
            fmt_f(p.p99_us),
            fmt_f(p.p999_us),
        ]);
    }
    notes.push(
        "a timeout is the packet's own modelled flight on its rail (from \
         the instant it leaves the NIC) plus a margin learned from how \
         late acks have been: on the clean wire nothing times out, \
         whatever the size, and under loss a timeout that turns out wrong \
         is repaired by the late ack (`spurious`)"
            .into(),
    );

    let (death, rails_dead) = run_rail_death();
    let mut td = Table::new(
        "two MX rails, pooled policy; rail 0 dies permanently at t=500us",
        &[
            "delivered",
            "retrans",
            "timeouts",
            "rails dead",
            "p50(us)",
            "p99(us)",
        ],
    );
    td.row(vec![
        format!("{}/{}", death.delivered, death.expected),
        death.retransmits.to_string(),
        death.timeouts.to_string(),
        rails_dead.to_string(),
        fmt_f(death.p50_us),
        fmt_f(death.p99_us),
    ]);
    notes.push(
        "after the retry budget is exhausted on a rail that has answered \
         nothing meanwhile the sender declares rail 0 dead, reroutes the \
         pending backlog to rail 1, and the optimizer stops scheduling \
         onto the dead rail (health penalty -> infinite)"
            .into(),
    );
    notes.push(
        "fault plans are deterministic: two runs with the same seed drop, \
         duplicate and stall exactly the same packets, so traces and \
         metrics are byte-identical across repeats"
            .into(),
    );
    Report {
        id: "E12",
        title: "madrel recovers from wire loss and rail death",
        claim: "ack/retransmit recovery plus rail-health-aware re-optimization completes every transfer under loss the legacy engine silently drops",
        tables: vec![t, tm, td],
        notes,
        artifacts: profile_artifacts(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CI smoke: one seed, one loss point (satellite 6).
    #[test]
    fn smoke_one_percent_loss_completes() {
        let p = run_point(recover_engine(), 0.01);
        assert!(p.wire_drops > 0, "fault plan must actually drop packets");
        assert_eq!(p.delivered, p.expected, "madrel must recover every message");
        assert_eq!(p.lost, 0);
        assert!(p.retransmits > 0);
    }

    #[test]
    fn every_swept_loss_rate_completes_with_madrel() {
        let base = run_point(recover_engine(), 0.0);
        assert_eq!(base.delivered, base.expected);
        assert_eq!(base.retransmits, 0, "no spurious retransmits when lossless");
        for &loss in &LOSS_SWEEP[1..] {
            let p = run_point(recover_engine(), loss);
            assert_eq!(
                p.delivered, p.expected,
                "lost flows at loss rate {loss}: {}/{}",
                p.delivered, p.expected
            );
            assert_eq!(p.lost, 0, "abandoned messages at loss rate {loss}");
        }
    }

    #[test]
    fn mixed_sizes_never_time_out_on_a_clean_wire_and_complete_under_loss() {
        let clean = run_mixed_point(0.0);
        assert_eq!(clean.delivered, clean.expected);
        assert_eq!(
            (clean.timeouts, clean.retransmits),
            (0, 0),
            "a 16 KiB packet must not be timed like a 256 B one"
        );
        for &loss in &LOSS_SWEEP[1..] {
            let p = run_mixed_point(loss);
            assert_eq!((p.delivered, p.lost), (p.expected, 0), "loss {loss}");
            assert!(p.spurious <= p.timeouts);
        }
    }

    #[test]
    fn legacy_engine_loses_messages_under_loss() {
        let p = run_point(EngineKind::legacy(), 0.05);
        assert!(p.wire_drops > 0);
        assert!(
            p.delivered < p.expected,
            "legacy has no recovery; drops must surface as missing messages"
        );
    }

    #[test]
    fn median_latency_inflation_below_2x_at_one_percent() {
        let base = run_point(recover_engine(), 0.0);
        let lossy = run_point(recover_engine(), 0.01);
        assert!(
            lossy.p50_us < 2.0 * base.p50_us,
            "median inflation {} vs {}",
            lossy.p50_us,
            base.p50_us
        );
    }

    #[test]
    fn rail_death_completes_on_survivor() {
        let (p, rails_dead) = run_rail_death();
        assert_eq!(p.delivered, p.expected, "rail death must not lose flows");
        assert_eq!(rails_dead, 1, "exactly one rail declared dead");
        assert!(p.timeouts > 0, "death is detected via ack timeouts");
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let a = run_point(recover_engine(), 0.02);
        let b = run_point(recover_engine(), 0.02);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.retransmits, b.retransmits);
        assert_eq!(a.timeouts, b.timeouts);
        assert_eq!(a.wire_drops, b.wire_drops);
        assert_eq!(a.p50_us, b.p50_us);
        assert_eq!(a.p99_us, b.p99_us);
    }
}

//! Same seed, same bytes — for every export surface the engine owns.
//!
//! The madlint sweep converted the engine's hash-ordered state
//! (`EngineCore::inflight`, `Receiver::flows`) to ordered containers and
//! put every float comparison on `f64::total_cmp`. These tests pin the
//! behavior that conversion buys: two *independent* clusters built from
//! the same spec must produce byte-identical Chrome traces, metric
//! registries, Prometheus documents and debug reports. (madscope.rs
//! covers the sampler CSV; this file covers the trace/report surfaces
//! and a multi-flow workload that actually populates the converted
//! containers.)

use madeleine::harness::{Cluster, ClusterSpec};
use madeleine::{EngineConfig, MessageBuilder, ReliabilityMode, TrafficClass};
use madware::coll::{CollApp, CollConfig, CollHub, CollOp};
use proptest::prelude::*;
use simnet::{FaultPlan, SimDuration, SimTime, Technology};

/// A traced two-node cluster pushing three flows of mixed classes and
/// sizes — enough concurrency that `inflight` and `flows` hold several
/// entries at once, so iteration order would leak if either were hashed.
fn traced_workload() -> Cluster {
    let mut c = Cluster::build(&ClusterSpec::mx_pair().with_tracing(8192), vec![]);
    let src = c.nodes[0];
    let dst = c.nodes[1];
    let h = c.handles[0].clone();
    let flows = [
        h.open_flow(dst, TrafficClass::DEFAULT),
        h.open_flow(dst, TrafficClass::PUT_GET),
        h.open_flow(dst, TrafficClass::BULK),
    ];
    for round in 0..6u8 {
        for (fi, &flow) in flows.iter().enumerate() {
            let len = 40 + 64 * fi + 8 * round as usize;
            let h = h.clone();
            c.sim.inject(src, move |ctx| {
                h.send(
                    ctx,
                    flow,
                    MessageBuilder::new()
                        .pack_cheaper(&vec![round ^ fi as u8; len])
                        .build_parts(),
                )
            });
        }
        c.run_for(SimDuration::from_micros(30));
    }
    c.drain();
    c
}

/// The Chrome trace merges the simulator trace with every node's engine
/// sink — the widest export surface. Two independent same-spec runs must
/// agree byte for byte.
#[test]
fn chrome_trace_is_byte_identical_across_runs() {
    let a = traced_workload().export_chrome_trace();
    let b = traced_workload().export_chrome_trace();
    assert!(a.events > 0, "workload produced trace events");
    assert_eq!(a.events, b.events);
    assert_eq!(
        a.json, b.json,
        "Chrome export must not depend on run identity"
    );
}

/// Metrics registry and Prometheus renderings agree across runs.
#[test]
fn metric_exports_are_byte_identical_across_runs() {
    let a = traced_workload();
    let b = traced_workload();
    let reg_a = a.metrics_registry().render();
    let reg_b = b.metrics_registry().render();
    assert!(!reg_a.is_empty());
    assert_eq!(reg_a, reg_b);
    assert_eq!(a.prometheus_text(), b.prometheus_text());
}

/// The per-node debug report walks engine state directly (backlog,
/// in-flight cookies, rail health) — exactly where a hashed container
/// would leak order. Same seed, same report.
#[test]
fn debug_reports_are_byte_identical_across_runs() {
    let a = traced_workload();
    let b = traced_workload();
    for node in 0..2 {
        let ra = a.handle(node).opt().expect("optimizing").debug_report();
        let rb = b.handle(node).opt().expect("optimizing").debug_report();
        assert!(!ra.is_empty());
        assert_eq!(ra, rb, "node {node} debug report must be run-invariant");
    }
    // The workload really delivered across all three flows.
    let m = a.handle(1).metrics();
    assert_eq!(m.delivered_msgs, 18, "6 rounds x 3 flows");
}

/// The madprof surfaces ride the same ordered state: two independent
/// same-spec runs must produce byte-identical attribution CSVs, folded
/// stacks and profile documents.
#[test]
fn profile_exports_are_byte_identical_across_runs() {
    let a = traced_workload().profile();
    let b = traced_workload().profile();
    assert_eq!(a.flows.len(), 18, "every delivery attributed");
    assert_eq!(a.partition_violations, 0);
    assert_eq!(a.attribution_csv(), b.attribution_csv());
    assert_eq!(a.folded_stacks(), b.folded_stacks());
    assert_eq!(a.to_json().render(), b.to_json().render());
}

/// A traced 16-node cluster on a k=4 fat-tree: cross-pod flows take
/// multi-hop ECMP routes through shared core links, so fabric
/// contention, switch queues and ECN marks all participate in the trace.
fn fat_tree_workload() -> Cluster {
    let profile = nicdrv::calib::params(Technology::MyrinetMx).link_profile();
    let spec = ClusterSpec::new(16, vec![Technology::MyrinetMx])
        .config(EngineConfig {
            reliability: ReliabilityMode::Recover,
            ..EngineConfig::default()
        })
        .with_tracing(1 << 14);
    let mut c = Cluster::build_with_topologies(
        &spec,
        vec![Some(simnet::Topology::fat_tree(4, profile))],
        vec![],
    );
    // Cross-pod pairs (pods are groups of 4 hosts on a k=4 fat-tree),
    // plus one intra-pod pair that shares an edge switch.
    for (round, &(src_i, dst_i)) in [(0usize, 15usize), (3, 12), (5, 10), (1, 2)]
        .iter()
        .enumerate()
        .cycle()
        .take(12)
    {
        let src = c.nodes[src_i];
        let dst = c.nodes[dst_i];
        let h = c.handles[src_i].clone();
        let flow = h.open_flow(dst, TrafficClass::DEFAULT);
        c.sim.inject(src, move |ctx| {
            h.send(
                ctx,
                flow,
                MessageBuilder::new()
                    .pack_cheaper(&vec![round as u8; 1024 + 512 * round])
                    .build_parts(),
            )
        });
        c.run_for(SimDuration::from_micros(5));
    }
    c.drain();
    c
}

/// The determinism contract extends to switched fabrics: two independent
/// same-spec runs over a k=4 fat-tree — ECMP routing, fair-share
/// contention, queue marks and all — produce byte-identical traces,
/// registries and reports, with the topology metadata included.
#[test]
fn fat_tree_exports_are_byte_identical_across_runs() {
    let a = fat_tree_workload();
    let b = fat_tree_workload();
    let ea = a.export_chrome_trace();
    let eb = b.export_chrome_trace();
    assert!(ea.events > 0, "fabric workload produced trace events");
    assert_eq!(
        ea.json, eb.json,
        "fat-tree Chrome export must be run-invariant"
    );
    assert!(
        ea.json.contains("fat-tree"),
        "export carries the topology metadata"
    );
    assert_eq!(a.prometheus_text(), b.prometheus_text());
    assert_eq!(a.metrics_registry().render(), b.metrics_registry().render());
    // The workload really crossed the fabric.
    let delivered: u64 = (0..16).map(|n| a.handle(n).metrics().delivered_msgs).sum();
    assert_eq!(delivered, 12, "every cross-fabric message delivered");
}

/// Messages pushed through each faulted madrel cell below.
const FAULTED_MSGS: u32 = 24;

/// A drained two-node madrel `Recover` cell under seeded
/// loss + duplication + reordering — the corpus shape shared by the
/// madprof partition proptest and the maddiff comparison proptests.
/// `nagle_us` > 0 arms a Nagle delay (a pure-config perturbation that
/// changes latencies without changing message identity).
fn faulted_cell_nagle(seed: u64, loss_pm: u32, dup_pm: u32, nagle_us: u64) -> Cluster {
    let mut c = Cluster::build(
        &ClusterSpec::mx_pair()
            .config(EngineConfig {
                reliability: ReliabilityMode::Recover,
                nagle_delay: SimDuration::from_micros(nagle_us),
                ..EngineConfig::default()
            })
            .with_tracing(1 << 14),
        vec![],
    );
    c.set_fault_plan(
        0,
        FaultPlan::new(seed)
            .with_loss(f64::from(loss_pm) / 1000.0)
            .with_dup(f64::from(dup_pm) / 1000.0)
            .with_reorder(0.15, SimDuration::from_micros(2)),
    );
    let h = c.handle(0).clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let f = h.open_flow(dst, TrafficClass::DEFAULT);
    c.sim.inject(src, |ctx| {
        for i in 0..FAULTED_MSGS {
            h.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_cheaper(&vec![i as u8; 200])
                    .build_parts(),
            );
        }
    });
    c.drain();
    c
}

fn faulted_cell(seed: u64, loss_pm: u32, dup_pm: u32) -> Cluster {
    faulted_cell_nagle(seed, loss_pm, dup_pm, 0)
}

/// Comparing two runs is itself an export surface: building both sides
/// fresh and diffing them twice must reproduce the human report and the
/// JSON byte-for-byte, even when the diff is structurally non-trivial
/// (a Nagle-delay perturbation → real latency deltas).
#[test]
fn diff_report_is_byte_identical_across_runs() {
    let render = || {
        let a = faulted_cell_nagle(11, 100, 50, 0).run_snapshot("base");
        let b = faulted_cell_nagle(11, 100, 50, 2).run_snapshot("fresh");
        let d = madeleine::diff(&a, &b);
        (d.report(8), d.to_json().render(), d.is_zero())
    };
    let (report1, json1, zero1) = render();
    let (report2, json2, _) = render();
    assert!(!zero1, "the Nagle perturbation must produce real deltas");
    assert_eq!(report1, report2, "diff report must be run-invariant");
    assert_eq!(json1, json2, "diff JSON must be run-invariant");
}

/// Ranks in the faulted collective cell below.
const COLL_MEMBERS: u32 = 6;
/// Allreduce iterations per run.
const COLL_ITERS: u32 = 3;

/// A drained 6-member madcoll allreduce over **two** MX rails with
/// madrel `Recover`, where rail 0 carries seeded loss + duplication +
/// reordering and then dies outright mid-run — the engine must detect
/// the death via exhausted retries and fail the round-gated collective
/// over to the clean second rail.
fn faulted_allreduce(seed: u64, loss_pm: u32, dup_pm: u32) -> (Cluster, CollHub) {
    let cfg = CollConfig::for_tech(Technology::MyrinetMx);
    let (apps, hub) = CollApp::ranks(CollOp::Allreduce, 256, COLL_MEMBERS, COLL_ITERS, &cfg);
    let spec = ClusterSpec::new(COLL_MEMBERS as usize, vec![Technology::MyrinetMx; 2])
        .config(EngineConfig {
            reliability: ReliabilityMode::Recover,
            ..EngineConfig::default()
        })
        .with_tracing(1 << 15);
    let mut c = Cluster::build(&spec, apps);
    c.set_fault_plan(
        0,
        FaultPlan::new(seed)
            .with_loss(f64::from(loss_pm) / 1000.0)
            .with_dup(f64::from(dup_pm) / 1000.0)
            .with_reorder(0.10, SimDuration::from_micros(2))
            .with_death(SimTime::from_nanos(30_000)),
    );
    c.drain();
    (c, hub)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// madcoll under the full madrel gauntlet: every allreduce completes
    /// with the identical (closed-form-verified) reduced value at every
    /// member despite loss + duplication + reordering + rail death, and
    /// two independent same-seed runs export byte-identical Chrome
    /// traces and metric registries — recovery and failover included.
    #[test]
    fn faulted_allreduce_completes_and_exports_identically(
        seed in any::<u64>(),
        loss_pm in 0u32..100, // per-mille; the shim has no f64 ranges
        dup_pm in 0u32..100,
    ) {
        let (a, hub) = faulted_allreduce(seed, loss_pm, dup_pm);
        {
            let stats = hub.borrow();
            prop_assert_eq!(stats.started, u64::from(COLL_ITERS));
            prop_assert_eq!(
                stats.completed, stats.started,
                "every collective must complete despite the dead rail"
            );
            prop_assert_eq!(
                stats.member_completions,
                u64::from(COLL_MEMBERS * COLL_ITERS),
                "every member must see every completion"
            );
            prop_assert_eq!(
                stats.wrong_results, 0,
                "reduced values must be identical (and right) everywhere"
            );
        }
        // The dead rail was really noticed by at least one engine.
        let rails_dead: u64 = (0..COLL_MEMBERS as usize)
            .map(|n| a.handle(n).metrics().rails_dead)
            .sum();
        prop_assert!(rails_dead >= 1, "rail death must be detected");
        // Same seed, same bytes — with retransmission, dedup and
        // failover traffic in the trace.
        let (b, _hub_b) = faulted_allreduce(seed, loss_pm, dup_pm);
        let ea = a.export_chrome_trace();
        let eb = b.export_chrome_trace();
        prop_assert!(ea.events > 0, "collective produced trace events");
        prop_assert_eq!(ea.json, eb.json, "faulted coll trace must be run-invariant");
        prop_assert_eq!(a.metrics_registry().render(), b.metrics_registry().render());
        prop_assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    /// The attribution exactness invariant survives faults: under seeded
    /// loss + duplication + reordering with madrel `Recover`, every
    /// delivered message's phase durations still partition its lifetime
    /// exactly — retransmission time is attributed, never lost.
    #[test]
    fn profile_partition_holds_under_faults(
        seed in any::<u64>(),
        loss_pm in 0u32..200, // per-mille; the shim has no f64 ranges
        dup_pm in 0u32..200,
    ) {
        const MSGS: u32 = FAULTED_MSGS;
        let c = faulted_cell(seed, loss_pm, dup_pm);
        let prof = c.profile();
        prop_assert_eq!(prof.flows.len(), MSGS as usize, "every delivery attributed");
        prop_assert_eq!(prof.partition_violations, 0);
        prop_assert!(!prof.truncated(), "ring must hold the whole run");
        for span in &prof.flows {
            let lifetime = span.delivered_ns - span.submit_ns;
            let total: u64 = span.phases.iter().sum();
            prop_assert_eq!(
                total, lifetime,
                "{} phases must partition its lifetime", span.key
            );
        }
    }

    /// maddiff's zero-baseline: a run diffed against an independently
    /// built, identically seeded run must be exactly zero in every
    /// field — under the same loss + duplication + reordering faults
    /// with `Recover`. Any nonzero field here is differ noise that
    /// would surface as a phantom regression.
    #[test]
    fn self_diff_is_all_zero_under_faults(
        seed in any::<u64>(),
        loss_pm in 0u32..200,
        dup_pm in 0u32..200,
    ) {
        let a = faulted_cell(seed, loss_pm, dup_pm).run_snapshot("run");
        let b = faulted_cell(seed, loss_pm, dup_pm).run_snapshot("run");
        let d = madeleine::diff(&a, &b);
        prop_assert!(d.is_zero(), "self-diff must be zero:\n{}", d.report(5));
        prop_assert_eq!(d.aligned.len(), FAULTED_MSGS as usize);
    }

    /// maddiff's delta partition across a genuine perturbation: shifting
    /// the fault seed changes retransmission timing but not message
    /// identity, so every message aligns and each aligned pair's six
    /// per-phase deltas must sum exactly to its latency delta.
    #[test]
    fn diff_delta_partition_holds_across_seed_perturbation(
        seed in any::<u64>(),
        loss_pm in 0u32..200,
        dup_pm in 0u32..200,
    ) {
        let a = faulted_cell(seed, loss_pm, dup_pm).run_snapshot("a");
        let b = faulted_cell(seed ^ 1, loss_pm, dup_pm).run_snapshot("b");
        let d = madeleine::diff(&a, &b);
        prop_assert_eq!(d.partition_violations, 0);
        prop_assert_eq!(
            d.aligned.len(), FAULTED_MSGS as usize,
            "identity (node, flow, seq) must align fully across seeds"
        );
        prop_assert!(d.unmatched.is_empty());
        for m in &d.aligned {
            let sum: i64 = m.phase_deltas.iter().sum();
            prop_assert_eq!(
                sum, m.delta_ns,
                "{} phase deltas must partition its latency delta", m.key
            );
        }
    }
}

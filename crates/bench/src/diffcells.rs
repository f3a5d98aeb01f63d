//! maddiff cells: the seeded, fully-traced workloads the bench gate
//! re-runs to explain a metric regression.
//!
//! Every gated metric prefix (`e1_`, `e7_`, `prof_`, ...) maps to one
//! **diff cell** — a small traced replica of the experiment that feeds
//! the metric. `cargo xtask bench` snapshots every cell at salt 0 into
//! `BENCH_<label>_diffseeds.json` next to the benchmark document; when
//! a later `--check` run trips a gate, xtask rebuilds the violated
//! metric's cell on the current code, diffs it against the committed
//! snapshot with maddiff, and writes a `BENCH_diff_<metric>.md`
//! root-cause report (phase share deltas, migrated rails, first
//! divergent decision).
//!
//! The `salt` parameter perturbs each cell's seed (salt 0 is the
//! canonical baseline); the nightly cross-seed smoke diffs salt 0
//! against salt 1 to exercise alignment under genuinely different
//! workload randomness — message identity `(node, flow, seq)` is
//! timing-independent, so salted runs still align fully.

use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::json::{JsonSink, JsonWriter};
use madeleine::{EngineConfig, Json, ReliabilityMode, RunSnapshot};
use madware::scenario::eager_flows;
use simnet::{FaultPlan, SimDuration, Technology};
use std::collections::BTreeMap;

use crate::experiments::{e13_flowscale, e14_incast, e15_coll};

/// Ring capacity shared by the locally-built cells.
const TRACE_CAP: usize = 1 << 16;

/// One gated-metric family's traced workload.
pub struct DiffCell {
    /// Cell name (also the snapshot label), e.g. `"e12"`.
    pub name: &'static str,
    /// Gated-metric name prefixes this cell explains.
    pub prefixes: &'static [&'static str],
    /// Build and drain the traced cluster for a seed salt (0 = baseline).
    pub build: fn(u64) -> Cluster,
}

/// Build a drained, fully-traced eager-flow cluster: `flows` identical
/// flows of `msgs` × `msg_size`-byte messages with Poisson gaps.
#[allow(clippy::too_many_arguments)]
fn traced_eager(
    engine: EngineKind,
    rails: usize,
    flows: usize,
    msg_size: usize,
    gap_us: u64,
    msgs: u64,
    seed: u64,
    fault: Option<FaultPlan>,
) -> Cluster {
    let spec = ClusterSpec::new(2, vec![Technology::MyrinetMx; rails])
        .engine(engine)
        .with_tracing(TRACE_CAP);
    let gap = SimDuration::from_micros(gap_us);
    let (mut cluster, _tx, _rx) = eager_flows(&spec, flows, msg_size, gap, msgs, seed);
    if let Some(plan) = fault {
        cluster.set_fault_plan(0, plan);
    }
    cluster.drain();
    cluster
}

fn e1_cell(salt: u64) -> Cluster {
    traced_eager(
        EngineKind::optimizing(),
        1,
        4,
        64,
        5,
        30,
        42 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        None,
    )
}

fn e2_cell(salt: u64) -> Cluster {
    traced_eager(
        EngineKind::optimizing(),
        1,
        4,
        64,
        2,
        50,
        7 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        None,
    )
}

fn e7_cell(salt: u64) -> Cluster {
    traced_eager(
        EngineKind::optimizing(),
        2,
        1,
        24 << 10,
        4,
        30,
        1777 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        None,
    )
}

fn e12_cell(salt: u64) -> Cluster {
    let seed = 42 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    traced_eager(
        e13_mode_free_recover(),
        1,
        4,
        256,
        20,
        40,
        seed,
        Some(FaultPlan::new(seed).with_loss(0.01)),
    )
}

fn e13_mode_free_recover() -> EngineKind {
    EngineKind::with_config(EngineConfig {
        reliability: ReliabilityMode::Recover,
        ..EngineConfig::default()
    })
}

/// Mini fairness cell: one BULK elephant against 8 DEFAULT mice under
/// weighted DRR — the same shape as E13's fairness cell at a size a
/// gate-failure re-run can afford.
fn e13_cell(salt: u64) -> Cluster {
    let seed = e13_flowscale::SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    e13_flowscale::fairness_cluster(madeleine::FairnessMode::Drr, 100, 8, seed, Some(TRACE_CAP))
}

/// E13's heterogeneous cell in miniature (see
/// [`e13_flowscale::traced_hetero_cell`] for what a miniature can and
/// cannot hold).
fn e13h_cell(salt: u64) -> Cluster {
    e13_flowscale::traced_hetero_cell(salt)
}

fn e14_cell(salt: u64) -> Cluster {
    e14_incast::traced_cell(salt)
}

fn e15_cell(salt: u64) -> Cluster {
    e15_coll::traced_cell(salt)
}

/// Every diff cell, in report order. Prefix → cell resolution walks this
/// list first-match.
pub const CELLS: &[DiffCell] = &[
    DiffCell {
        name: "e1",
        prefixes: &["e1_"],
        build: e1_cell,
    },
    DiffCell {
        name: "e2",
        prefixes: &["e2_", "madscope_"],
        build: e2_cell,
    },
    DiffCell {
        name: "e7",
        prefixes: &["e7_"],
        build: e7_cell,
    },
    DiffCell {
        name: "e12",
        prefixes: &["e12_", "prof_"],
        build: e12_cell,
    },
    DiffCell {
        name: "e13",
        prefixes: &["e13_"],
        build: e13_cell,
    },
    DiffCell {
        name: "e13h",
        prefixes: &["e13h_"],
        build: e13h_cell,
    },
    DiffCell {
        name: "e14",
        prefixes: &["e14_"],
        build: e14_cell,
    },
    DiffCell {
        name: "e15",
        prefixes: &["e15_"],
        build: e15_cell,
    },
];

/// Resolve the diff cell that explains a gated metric, by name prefix.
pub fn cell_for_metric(metric: &str) -> Option<&'static DiffCell> {
    CELLS
        .iter()
        .find(|c| c.prefixes.iter().any(|p| metric.starts_with(p)))
}

/// Snapshot every cell at salt 0 into one `maddiff-seeds` bundle — the
/// committed-baseline half of every future root-cause diff.
pub fn write_seeds(label: &str) -> String {
    JsonWriter::document(|w| {
        w.begin_object();
        w.field_str("artifact", "maddiff-seeds");
        w.field_str("schema", "maddiff-seeds-v1");
        w.field_str("label", label);
        w.key("cells");
        w.begin_object();
        for cell in CELLS {
            w.key(cell.name);
            (cell.build)(0).run_snapshot(cell.name).write_to(w);
        }
        w.end_object();
        w.end_object();
    })
}

/// Parse a `maddiff-seeds` bundle back into per-cell snapshots.
pub fn parse_seeds(text: &str) -> Result<BTreeMap<String, RunSnapshot>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("artifact").and_then(|v| v.as_str()) != Some("maddiff-seeds") {
        return Err("not a maddiff-seeds document".to_string());
    }
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(fields)) = doc.get("cells") {
        for (name, snap) in fields {
            out.insert(name.clone(), RunSnapshot::from_json(snap)?);
        }
    }
    Ok(out)
}

/// Render the `BENCH_diff_<metric>.md` root-cause report for one gate
/// violation: the committed baseline snapshot vs a fresh re-run of the
/// metric's cell on the current code.
pub fn root_cause_report(
    metric: &str,
    violation: &str,
    baseline: &RunSnapshot,
    fresh: &RunSnapshot,
) -> String {
    let d = madeleine::diff(baseline, fresh);
    let mut out = String::new();
    out.push_str(&format!("# maddiff root cause: `{metric}`\n\n"));
    out.push_str(&format!("Gate violation: {violation}\n\n"));
    out.push_str(&format!(
        "Cell `{}` re-run on the current code and aligned against the \
         committed baseline seed by message identity `(node, flow, seq)`. \
         All deltas read fresh minus baseline — positive means the fresh \
         run got slower.\n\n",
        baseline.label
    ));
    out.push_str(&format!(
        "- aligned messages: {}\n- unmatched messages: {}\n\
         - aligned latency delta: {:+} ns\n- partition violations: {}\n",
        d.aligned.len(),
        d.unmatched.len(),
        d.total_delta_ns(),
        d.partition_violations
    ));
    if d.truncated() {
        out.push_str(
            "- **WARNING**: a trace ring overflowed; attribution below may \
             be incomplete\n",
        );
    }
    out.push_str("\n## Phase share deltas (aligned messages, per-mille)\n\n");
    out.push_str("| phase | baseline ns | fresh ns | delta ns | baseline ‰ | fresh ‰ |\n");
    out.push_str("|---|---:|---:|---:|---:|---:|\n");
    for p in madeleine::Phase::ALL {
        let pd = &d.phases[p.rank() as usize];
        if pd.a_total_ns == 0 && pd.b_total_ns == 0 {
            continue;
        }
        out.push_str(&format!(
            "| {} | {} | {} | {:+} | {} | {} |\n",
            p.label(),
            pd.a_total_ns,
            pd.b_total_ns,
            pd.delta_ns,
            pd.a_share_mille,
            pd.b_share_mille
        ));
    }
    out.push_str("\n## Migrations\n\n");
    if d.rail_migrations.is_empty() && d.strategy_migrations.is_empty() {
        out.push_str("No traffic changed rail or winning strategy.\n");
    } else {
        for (&(ra, rb), &n) in &d.rail_migrations {
            out.push_str(&format!("- rail {ra} → rail {rb}: {n} messages\n"));
        }
        for ((sa, sb), n) in &d.strategy_migrations {
            out.push_str(&format!("- strategy {sa} → {sb}: {n} messages\n"));
        }
    }
    out.push_str("\n## First divergent decision\n\n");
    match &d.decision_divergence {
        None => out.push_str("The optimizer made identical decisions in both runs.\n"),
        Some(div) => {
            out.push_str(&format!(
                "Node {} activation {} diverges at record #{}:\n\n",
                div.node, div.activation, div.index
            ));
            let show = |r: &String| {
                if r.is_empty() {
                    "(log ended)".to_string()
                } else {
                    format!("`{r}`")
                }
            };
            out.push_str(&format!("- baseline: {}\n", show(&div.a_record)));
            out.push_str(&format!("- fresh: {}\n", show(&div.b_record)));
            out.push_str(
                "\n(records: `P:` proposed, `V:` vetoed, `S:` scored \
                 num/den, `W:` won)\n",
            );
        }
    }
    out.push_str("\n## Critical path\n\n");
    if d.crit.identical() {
        out.push_str(&format!(
            "Identical blame assignment across {} hops.\n",
            d.crit.a_len
        ));
    } else {
        out.push_str(&format!(
            "Shared prefix {} of {} (baseline) / {} (fresh) hops.\n",
            d.crit.shared_prefix, d.crit.a_len, d.crit.b_len
        ));
        if let Some(s) = &d.crit.b_diverges {
            out.push_str(&format!(
                "Fresh run first diverges blaming {} in `{}`.\n",
                s.key,
                s.phase.label()
            ));
        }
    }
    if !d.unmatched.is_empty() {
        out.push_str("\n## Unmatched messages (excluded from every delta)\n\n");
        for u in &d.unmatched {
            out.push_str(&format!("- {} ({}): {}\n", u.key, u.class, u.reason));
        }
    }
    out.push_str("\n## Full report\n\n```text\n");
    out.push_str(&d.report(10));
    out.push_str("```\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use madeleine::json::obj;
    use madeleine::AdmissionPolicy;

    fn cell_named(name: &str) -> Option<&'static DiffCell> {
        CELLS.iter().find(|c| c.name == name)
    }

    #[test]
    fn every_prefix_resolves_and_names_are_unique() {
        for metric in [
            "e1_makespan_us",
            "e2_p50_us",
            "madscope_overhead",
            "e7_two_rail_speedup",
            "e12_retransmits",
            "prof_wire_share_p50",
            "e13_mice_p99",
            "e13h_makespan_us",
            "e14_incast_p99",
        ] {
            assert!(cell_for_metric(metric).is_some(), "unmapped: {metric}");
        }
        assert!(cell_for_metric("nonexistent_metric").is_none());
        let mut names: Vec<_> = CELLS.iter().map(|c| c.name).collect();
        names.dedup();
        assert_eq!(names.len(), CELLS.len());
    }

    #[test]
    fn e1_cell_self_diff_is_zero_and_seed_bundle_round_trips() {
        let snap = e1_cell(0).run_snapshot("e1");
        assert!(!snap.rows.is_empty());
        assert!(!snap.truncated(), "cell must fit its rings");
        let again = e1_cell(0).run_snapshot("e1");
        assert_eq!(
            snap.to_json().render(),
            again.to_json().render(),
            "same salt twice must snapshot byte-identically"
        );
        assert!(madeleine::diff(&snap, &again).is_zero());
    }

    #[test]
    fn shed_policy_diff_reports_unmatched_not_phase_deltas() {
        // The explicit E13 Shed case: Block delivers everything,
        // ShedOldest sheds under pressure. Diffing them must put the
        // shed messages in `unmatched` with the shed-or-abandoned
        // reason and keep the aligned partition exact.
        let block = e13_flowscale::traced_overload_cell(AdmissionPolicy::Block);
        let shed = e13_flowscale::traced_overload_cell(AdmissionPolicy::ShedOldest);
        let d = madeleine::diff(
            &block.run_snapshot("block"),
            &shed.run_snapshot("shed-oldest"),
        );
        assert!(
            !d.unmatched.is_empty(),
            "shed-oldest under overload must shed something"
        );
        assert!(
            d.unmatched
                .iter()
                .any(|u| u.reason.contains("shed or abandoned")),
            "shed victims were submitted, so they must carry the \
             shed-or-abandoned reason"
        );
        assert_eq!(d.partition_violations, 0);
        for m in &d.aligned {
            assert_eq!(m.phase_deltas.iter().sum::<i64>(), m.delta_ns);
        }
    }

    #[test]
    fn root_cause_report_names_phase_and_decision() {
        let base = e12_cell(0).run_snapshot("e12");
        let fresh = e12_cell(1).run_snapshot("e12");
        let md = root_cause_report(
            "e12_p50_us",
            "e12_p50_us: 1.20x over baseline",
            &base,
            &fresh,
        );
        assert!(md.contains("# maddiff root cause: `e12_p50_us`"));
        assert!(md.contains("## Phase share deltas"));
        assert!(md.contains("wire"), "{md}");
        assert!(md.contains("## First divergent decision"));
        // Deterministic report bytes.
        let md2 = root_cause_report(
            "e12_p50_us",
            "e12_p50_us: 1.20x over baseline",
            &base,
            &fresh,
        );
        assert_eq!(md, md2);
    }

    #[test]
    fn seeds_bundle_parses_and_diffs_zero_against_rebuild() {
        // Keep this fast: a single-cell bundle exercising the exact
        // xtask path (write at salt 0, parse, diff against a rebuild).
        let cell = cell_named("e2").unwrap();
        let snap = (cell.build)(0).run_snapshot(cell.name);
        let bundle = obj()
            .field("artifact", "maddiff-seeds")
            .field("schema", "maddiff-seeds-v1")
            .field("label", "test")
            .field("cells", obj().field(cell.name, snap.to_json()).build())
            .build()
            .render();
        let parsed = parse_seeds(&bundle).expect("bundle parses");
        let back = parsed.get("e2").expect("cell present");
        let rebuilt = (cell.build)(0).run_snapshot(cell.name);
        assert!(madeleine::diff(back, &rebuilt).is_zero());
        assert!(parse_seeds("{}").is_err());
    }

    /// The committed seed bundle is what the parent of every change
    /// captured: rebuilding it must not move a byte, which pins
    /// `RunSnapshot::capture` (and the profile it reuses) on every cell.
    #[test]
    fn rebuilt_seed_bundle_equals_the_committed_one() {
        let committed = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline_diffseeds.json"
        );
        let committed = std::fs::read_to_string(committed).expect("committed seed bundle");
        assert!(write_seeds("baseline") == committed.trim_end());
    }

    /// Nightly cross-seed diff smoke (slow; run with `--ignored`): for
    /// E7, E12, E14 and E15, same-salt runs snapshot byte-identically and
    /// self-diff to zero, and cross-salt diffs keep the delta-partition
    /// invariant over the aligned set.
    #[test]
    #[ignore = "nightly cross-seed diff smoke"]
    fn cross_seed_diff_smoke_e7_e12_e14_e15() {
        for name in ["e7", "e12", "e14", "e15"] {
            let cell = cell_named(name).expect("cell exists");
            let a1 = (cell.build)(0).run_snapshot(name);
            let a2 = (cell.build)(0).run_snapshot(name);
            assert_eq!(
                a1.to_json().render(),
                a2.to_json().render(),
                "{name}: same-salt snapshots must be byte-identical"
            );
            assert!(
                madeleine::diff(&a1, &a2).is_zero(),
                "{name}: self-diff must be zero"
            );
            let b = (cell.build)(1).run_snapshot(name);
            let d = madeleine::diff(&a1, &b);
            assert_eq!(d.partition_violations, 0, "{name}");
            for m in &d.aligned {
                assert_eq!(
                    m.phase_deltas.iter().sum::<i64>(),
                    m.delta_ns,
                    "{name}: {} delta partition",
                    m.key
                );
            }
            // Reports are deterministic even across structural diffs.
            assert_eq!(d.report(10), madeleine::diff(&a1, &b).report(10));
        }
    }
}

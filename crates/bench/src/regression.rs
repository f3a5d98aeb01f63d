//! madscope bench regression gate.
//!
//! `run_suite` drives one smoke point of each flagship experiment
//! (E1 aggregation, E2 NIC-idle batching, E7 multi-rail balancing,
//! E12 loss recovery, E13 flow scale + admission and its heterogeneous
//! cell, E14 incast + congestion steering) plus a
//! sampler-instrumented replay, and collects the headline numbers into
//! a schema-versioned [`BenchDoc`].
//! `cargo xtask bench` serializes it as `BENCH_<label>.json`;
//! `cargo xtask bench --check <baseline>` re-runs the suite and feeds
//! both documents to [`check`], which fails the build when any gated
//! metric moved past the threshold in its bad direction.
//!
//! Every experiment runs in virtual time, so each metric is an exact
//! function of the seed: on unchanged code the comparison is
//! byte-for-byte equal on any machine, and the threshold only exists to
//! tolerate *intentional* small behavioral drift (a strategy tweak that
//! shuffles a packet boundary), not host noise. Nothing here reads a
//! wall clock: host time is madclock's business
//! (`prof.build_ns_per_event` is what the profiler costs).
//!
//! Makespan-bearing smoke points run with the sampler **off**: a
//! sampler keeps its tick timer armed for up to [`SAMPLER_SLEEP_TICKS`]
//! drained ticks past the last delivery, which stretches
//! `run_until_quiescent` without touching any latency. The separate
//! sampler replay supplies the time-series digest and the stats CSV.
//!
//! [`SAMPLER_SLEEP_TICKS`]: madeleine::scope::SAMPLER_SLEEP_TICKS

use madeleine::harness::{ClusterSpec, EngineKind};
use madeleine::json::{obj, Json};
use madeleine::{AdmissionPolicy, FairnessMode, Phase};
use madware::scenario::eager_flows;
use simnet::{SimDuration, Technology};

use crate::experiments::{
    e12_loss, e13_flowscale, e14_incast, e15_coll, e1_aggregation, e7_multirail,
};

/// Document schema tag; bump when metric names or semantics change so a
/// stale committed baseline fails loudly instead of comparing garbage.
pub const SCHEMA: &str = "madscope-bench-v1";

/// Default per-metric regression threshold (fraction of the baseline).
pub const DEFAULT_THRESHOLD: f64 = 0.05;

/// Sampler tick used by the instrumented replay.
pub const SAMPLER_TICK_US: u64 = 5;

/// Which way a metric is allowed to move without tripping the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Latency-like: the gate fires when the fresh value grows.
    LowerIsBetter,
    /// Throughput-like: the gate fires when the fresh value shrinks.
    HigherIsBetter,
    /// Recorded for trend inspection only; never gated.
    Info,
}

impl Direction {
    /// Stable serialization label.
    pub fn label(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower",
            Direction::HigherIsBetter => "higher",
            Direction::Info => "info",
        }
    }

    /// Inverse of [`Direction::label`].
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "lower" => Some(Direction::LowerIsBetter),
            "higher" => Some(Direction::HigherIsBetter),
            "info" => Some(Direction::Info),
            _ => None,
        }
    }
}

/// One named measurement with its gating direction.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Stable metric name (`e1_opt_makespan_us`, ...).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Gating direction.
    pub direction: Direction,
}

/// A full bench document: one suite run, serialized as
/// `BENCH_<label>.json`.
#[derive(Clone, Debug)]
pub struct BenchDoc {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Run label (`baseline`, `ci`, ...).
    pub label: String,
    /// Metrics in suite order.
    pub metrics: Vec<Metric>,
}

impl BenchDoc {
    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The document as JSON (field order fixed, rendering deterministic).
    pub fn to_json(&self) -> Json {
        let metrics: Vec<Json> = self
            .metrics
            .iter()
            .map(|m| {
                obj()
                    .field("name", m.name.as_str())
                    .field("value", m.value)
                    .field("direction", m.direction.label())
                    .build()
            })
            .collect();
        obj()
            .field("artifact", "madscope-bench")
            .field("schema", self.schema.as_str())
            .field("label", self.label.as_str())
            .field("metrics", Json::Arr(metrics))
            .build()
    }

    /// Deterministic JSON text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parse a document previously produced by [`BenchDoc::render`].
    /// Rejects schema mismatches so `--check` never compares documents
    /// from different suite generations.
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing schema field".to_string())?
            .to_string();
        if schema != SCHEMA {
            return Err(format!(
                "schema mismatch: document is '{schema}', this binary speaks '{SCHEMA}' \
                 (regenerate the baseline with `cargo xtask bench`)"
            ));
        }
        let label = doc
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing label field".to_string())?
            .to_string();
        let mut metrics = Vec::new();
        for m in doc
            .get("metrics")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing metrics array".to_string())?
        {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| "metric without name".to_string())?
                .to_string();
            let value = m
                .get("value")
                .and_then(as_number)
                .ok_or_else(|| format!("metric '{name}' has no numeric value"))?;
            let direction = m
                .get("direction")
                .and_then(Json::as_str)
                .and_then(Direction::parse)
                .ok_or_else(|| format!("metric '{name}' has no valid direction"))?;
            metrics.push(Metric {
                name,
                value,
                direction,
            });
        }
        Ok(BenchDoc {
            schema,
            label,
            metrics,
        })
    }
}

fn as_number(j: &Json) -> Option<f64> {
    match j {
        Json::Int(v) => Some(*v as f64),
        Json::UInt(v) => Some(*v as f64),
        Json::Float(v) => Some(*v),
        Json::Fixed3(v) => Some(*v as f64 / 1000.0),
        _ => None,
    }
}

/// Everything one suite run produces: the gate document plus the
/// sampler time-series CSV artifact.
pub struct SuiteOutput {
    /// The gate document.
    pub doc: BenchDoc,
    /// Sampler CSV from the instrumented replay (`BENCH_<label>_sampler.csv`).
    pub sampler_csv: String,
}

/// Run the smoke suite and collect the gate document.
pub fn run_suite(label: &str) -> SuiteOutput {
    let mut metrics = Vec::new();
    fn push(v: &mut Vec<Metric>, name: &str, value: f64, direction: Direction) {
        v.push(Metric {
            name: name.to_string(),
            value,
            direction,
        });
    }

    // E1: cross-flow eager aggregation, 8 flows x 60 x 64B, seed 42.
    let opt = e1_aggregation::run_cell(EngineKind::optimizing(), 8, 64, 60, 42);
    let leg = e1_aggregation::run_cell(EngineKind::legacy(), 8, 64, 60, 42);
    assert!(opt.intact && leg.intact, "E1 smoke: payload corruption");
    push(
        &mut metrics,
        "e1_opt_makespan_us",
        opt.makespan_us,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e1_opt_p50_us",
        opt.p50_us,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e1_opt_p99_us",
        opt.p99_us,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e1_speedup_vs_legacy",
        leg.makespan_us / opt.makespan_us,
        Direction::HigherIsBetter,
    );
    push(
        &mut metrics,
        "e1_agg_ratio",
        opt.agg_ratio,
        Direction::HigherIsBetter,
    );
    push(
        &mut metrics,
        "e1_opt_packets",
        opt.packets as f64,
        Direction::LowerIsBetter,
    );

    // E2: NIC-idle batching under heavy load (gap 2us), seed 7.
    let (mut cluster, _tx, _rx) = eager_flows(
        &ClusterSpec::mx_pair(),
        8,
        64,
        SimDuration::from_micros(2),
        200,
        7,
    );
    let end = cluster.drain();
    let m = cluster.handle(0).metrics();
    let acts = m.activations().max(1) as f64;
    push(
        &mut metrics,
        "e2_makespan_us",
        end.as_micros_f64(),
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e2_submits_per_activation",
        m.submitted_msgs as f64 / acts,
        Direction::HigherIsBetter,
    );
    push(
        &mut metrics,
        "e2_idle_activation_share",
        m.activations_idle as f64 / acts,
        Direction::Info,
    );
    push(
        &mut metrics,
        "e2_mean_backlog",
        m.backlog_depth.mean(),
        Direction::Info,
    );

    // E7: two pooled MX rails vs legacy, 120 x 24KiB.
    let rails = vec![Technology::MyrinetMx; 2];
    let o = e7_multirail::run_point(e7_multirail::opt(), rails.clone(), 120);
    let l = e7_multirail::run_point(e7_multirail::leg(), rails, 120);
    assert!(o.intact && l.intact, "E7 smoke: payload corruption");
    push(
        &mut metrics,
        "e7_2rail_opt_mbps",
        o.mbps,
        Direction::HigherIsBetter,
    );
    push(
        &mut metrics,
        "e7_2rail_gain_vs_legacy",
        o.mbps / l.mbps,
        Direction::HigherIsBetter,
    );
    push(
        &mut metrics,
        "e7_2rail_p50_us",
        o.p50_us,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e7_2rail_p99_us",
        o.p99_us,
        Direction::LowerIsBetter,
    );

    // E12: madrel recovery at 1% seeded wire loss.
    let p = e12_loss::run_point(e12_loss::recover_engine(), 0.01);
    push(
        &mut metrics,
        "e12_delivered_fraction",
        p.delivered as f64 / p.expected as f64,
        Direction::HigherIsBetter,
    );
    push(
        &mut metrics,
        "e12_p99_us",
        p.p99_us,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e12_retransmits",
        p.retransmits as f64,
        Direction::Info,
    );

    // E13: madflow flow scale + admission. One smoke-sized open-loop
    // scale point, the DRR mice-protection cell, and the lossless
    // Block-policy overload cell.
    let s = e13_flowscale::run_scale(e13_flowscale::SMOKE_FLOWS, 2, e13_flowscale::SEED, false);
    assert_eq!(s.violations, 0, "E13 smoke: express ordering violated");
    push(
        &mut metrics,
        "e13_scale_makespan_us",
        s.makespan_us,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e13_scale_p99_us",
        s.p99_us,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e13_delivered_fraction",
        s.delivered as f64 / s.expected as f64,
        Direction::HigherIsBetter,
    );
    push(
        &mut metrics,
        "e13_peak_backlog_bytes",
        s.peak_backlog as f64,
        Direction::Info,
    );
    // E13, heterogeneous: sizes across the rendezvous threshold on MX +
    // Elan, at the smallest scale where a lookahead window that counted
    // parked requests cost 5 % of the makespan (59.4 ms and 7.7 chunks per
    // packet there). The regime none of the cells above contains.
    let h = e13_flowscale::run_hetero(e13_flowscale::HETERO_SMOKE_FLOWS, Default::default());
    assert_eq!(h.delivered, h.expected, "E13 heterogeneous smoke: loss");
    push(
        &mut metrics,
        "e13h_makespan_us",
        h.makespan_us,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e13h_chunks_per_pkt",
        h.chunks_per_pkt,
        Direction::HigherIsBetter,
    );
    let fair = e13_flowscale::run_fairness(FairnessMode::Drr);
    push(
        &mut metrics,
        "e13_drr_mice_p99_us",
        fair.mice_p99_us,
        Direction::LowerIsBetter,
    );
    let ov = e13_flowscale::run_overload(AdmissionPolicy::Block, false);
    push(
        &mut metrics,
        "e13_overload_delivered_fraction",
        ov.delivered as f64 / ov.stats.attempts as f64,
        Direction::HigherIsBetter,
    );
    push(
        &mut metrics,
        "e13_overload_unblocked_events",
        ov.unblocked_events as f64,
        Direction::Info,
    );

    // E14: madnet incast + congestion-aware steering. The naive incast
    // point is informational (it *should* collapse); the admission point
    // and the congestion-aware mice tail are the gated claims.
    let ni = e14_incast::run_incast(false);
    let ai = e14_incast::run_incast(true);
    push(
        &mut metrics,
        "e14_incast_naive_p99_us",
        ni.p99_us,
        Direction::Info,
    );
    push(
        &mut metrics,
        "e14_incast_admission_p99_us",
        ai.p99_us,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e14_incast_recovered_fraction",
        ai.delivered as f64 / ai.expected as f64,
        Direction::HigherIsBetter,
    );
    push(
        &mut metrics,
        "e14_incast_fabric_drops",
        ni.fabric_drops as f64,
        Direction::Info,
    );
    let blind = e14_incast::run_steering(false);
    let aware = e14_incast::run_steering(true);
    push(
        &mut metrics,
        "e14_mice_blind_p99_us",
        blind.mice_p99_us,
        Direction::Info,
    );
    push(
        &mut metrics,
        "e14_mice_aware_p99_us",
        aware.mice_p99_us,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e14_steering_gain",
        blind.mice_mean_us / aware.mice_mean_us,
        Direction::HigherIsBetter,
    );

    // E15: madcoll algorithm selection. The win rate counts grid cells
    // (fabric × shape) where cost-model selection matches the best
    // fixed algorithm within the experiment's tolerance; the allreduce
    // tail and the training barrier fan-in are the gated latencies.
    let mut cells = 0u32;
    let mut wins = 0u32;
    let mut allreduce_p99 = 0.0f64;
    for fabric in [e15_coll::Fabric::Dumbbell, e15_coll::Fabric::FatTree] {
        for shape in e15_coll::shapes() {
            let mut best = f64::INFINITY;
            for algo in madware::coll::CollAlgo::ALL {
                best = best.min(e15_coll::run_grid_cell(fabric, &shape, Some(algo)).p99_us);
            }
            let auto = e15_coll::run_grid_cell(fabric, &shape, None);
            cells += 1;
            if auto.p99_us <= best * e15_coll::AUTO_TOLERANCE {
                wins += 1;
            }
            if fabric == e15_coll::Fabric::Dumbbell
                && matches!(shape.op, madware::coll::CollOp::Allreduce)
            {
                allreduce_p99 = auto.p99_us;
            }
        }
    }
    push(
        &mut metrics,
        "e15_allreduce_auto_p99_us",
        allreduce_p99,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "e15_selection_win_rate",
        wins as f64 / cells as f64,
        Direction::HigherIsBetter,
    );
    let train = e15_coll::run_train_cell(madware::mltrain::MlTrainMode::RingAllreduce);
    push(
        &mut metrics,
        "e15_barrier_fanin_p999_us",
        train.barrier_p999_us,
        Direction::LowerIsBetter,
    );

    // madprof: phase attribution of the traced E12 loss cell (the 1%
    // seeded loss puts real time in every phase, so the share gates
    // bite). Shares are exact per-mille integers over virtual time —
    // deterministic like everything else.
    let cell = e12_loss::traced_cell();
    let prof = cell.profile();
    assert_eq!(
        prof.partition_violations, 0,
        "madprof smoke: phase partition invariant violated"
    );
    assert!(!prof.truncated(), "madprof smoke: event ring overflowed");
    push(
        &mut metrics,
        "prof_wire_share_p50",
        prof.phase_share_mille(Phase::Wire, 0.5) as f64,
        Direction::HigherIsBetter,
    );
    push(
        &mut metrics,
        "prof_retx_share_p99",
        prof.phase_share_mille(Phase::Retx, 0.99) as f64,
        Direction::LowerIsBetter,
    );
    push(
        &mut metrics,
        "prof_decision_share_p99",
        prof.phase_share_mille(Phase::Decision, 0.99) as f64,
        Direction::LowerIsBetter,
    );

    // Sampler replay of the E2 workload: time-series digest + CSV. Kept
    // out of the gated makespans (the tick timer outlives the last
    // delivery by up to SAMPLER_SLEEP_TICKS ticks).
    let (mut cluster, _tx, _rx) = eager_flows(
        &ClusterSpec::mx_pair(),
        8,
        64,
        SimDuration::from_micros(2),
        200,
        7,
    );
    cluster.enable_sampler(SimDuration::from_micros(SAMPLER_TICK_US));
    cluster.drain();
    let sampler_csv = cluster.sampler_csv(0).unwrap_or_default();
    if let Some(s) = cluster.handle(0).opt().and_then(|h| h.sampler_snapshot()) {
        let backlog_peak = s.rows().map(|r| r.stats.backlog_bytes).max();
        let inflight_peak = s.rows().map(|r| r.stats.inflight_pkts).max();
        push(
            &mut metrics,
            "madscope_sampler_rows",
            s.len() as f64,
            Direction::Info,
        );
        push(
            &mut metrics,
            "madscope_backlog_peak_bytes",
            backlog_peak.unwrap_or(0) as f64,
            Direction::Info,
        );
        push(
            &mut metrics,
            "madscope_inflight_peak_pkts",
            inflight_peak.unwrap_or(0) as f64,
            Direction::Info,
        );
    }

    SuiteOutput {
        doc: BenchDoc {
            schema: SCHEMA.to_string(),
            label: label.to_string(),
            metrics,
        },
        sampler_csv,
    }
}

/// Compare a fresh run against a baseline. Returns one human-readable
/// violation per gated metric that moved past `threshold` in its bad
/// direction (or disappeared); empty means the gate passes. `Info`
/// metrics never gate.
pub fn check(base: &BenchDoc, fresh: &BenchDoc, threshold: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for bm in &base.metrics {
        if bm.direction == Direction::Info {
            continue;
        }
        let Some(fm) = fresh.get(&bm.name) else {
            violations.push(format!(
                "{}: present in baseline but missing from fresh run",
                bm.name
            ));
            continue;
        };
        if !bm.value.is_finite() || bm.value.abs() < 1e-12 {
            continue;
        }
        let delta = match bm.direction {
            Direction::LowerIsBetter => (fm.value - bm.value) / bm.value,
            Direction::HigherIsBetter => (bm.value - fm.value) / bm.value,
            Direction::Info => unreachable!(),
        };
        if delta > threshold {
            let dir = match bm.direction {
                Direction::LowerIsBetter => "rose",
                _ => "fell",
            };
            violations.push(format!(
                "{}: {} {:.3} -> {:.3} ({:.1}% worse, limit {:.1}%)",
                bm.name,
                dir,
                bm.value,
                fm.value,
                delta * 100.0,
                threshold * 100.0
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(metrics: Vec<(&str, f64, Direction)>) -> BenchDoc {
        BenchDoc {
            schema: SCHEMA.to_string(),
            label: "test".to_string(),
            metrics: metrics
                .into_iter()
                .map(|(n, v, d)| Metric {
                    name: n.to_string(),
                    value: v,
                    direction: d,
                })
                .collect(),
        }
    }

    #[test]
    fn identical_docs_pass() {
        let d = doc(vec![
            ("lat", 100.0, Direction::LowerIsBetter),
            ("bw", 50.0, Direction::HigherIsBetter),
            ("note", 7.0, Direction::Info),
        ]);
        assert!(check(&d, &d, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn injected_latency_regression_fails() {
        let base = doc(vec![("lat", 100.0, Direction::LowerIsBetter)]);
        let worse = doc(vec![("lat", 115.0, Direction::LowerIsBetter)]);
        let v = check(&base, &worse, DEFAULT_THRESHOLD);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("lat"), "{v:?}");
        // Improvements never trip the gate.
        assert!(check(&worse, &base, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn throughput_drop_and_missing_metric_fail_but_info_is_free() {
        let base = doc(vec![
            ("bw", 100.0, Direction::HigherIsBetter),
            ("gone", 1.0, Direction::LowerIsBetter),
            ("note", 5.0, Direction::Info),
        ]);
        let fresh = doc(vec![
            ("bw", 90.0, Direction::HigherIsBetter),
            ("note", 500.0, Direction::Info),
        ]);
        let v = check(&base, &fresh, DEFAULT_THRESHOLD);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|s| s.contains("bw")));
        assert!(v.iter().any(|s| s.contains("gone")));
    }

    #[test]
    fn tiny_drift_within_threshold_passes() {
        let base = doc(vec![("lat", 100.0, Direction::LowerIsBetter)]);
        let fresh = doc(vec![("lat", 104.0, Direction::LowerIsBetter)]);
        assert!(check(&base, &fresh, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn json_round_trips_and_rejects_wrong_schema() {
        let d = doc(vec![
            ("lat", 123.456, Direction::LowerIsBetter),
            ("bw", 50.0, Direction::HigherIsBetter),
            ("note", 7.0, Direction::Info),
        ]);
        let text = d.render();
        let back = BenchDoc::parse(&text).expect("round trip");
        assert_eq!(back.label, "test");
        assert_eq!(back.metrics.len(), 3);
        for (a, b) in d.metrics.iter().zip(&back.metrics) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.direction, b.direction);
            assert_eq!(a.value, b.value, "{}", a.name);
        }
        assert_eq!(back.render(), text, "re-render is byte-identical");

        let other = text.replace(SCHEMA, "madscope-bench-v0");
        assert!(BenchDoc::parse(&other).is_err());
    }

    /// The full smoke suite is a pure function of its seeds: two runs
    /// must produce byte-identical JSON and CSV, and the gate must pass
    /// against itself.
    #[test]
    fn suite_is_deterministic_and_self_consistent() {
        let a = run_suite("selftest");
        let b = run_suite("selftest");
        assert_eq!(a.doc.render(), b.doc.render());
        assert_eq!(a.sampler_csv, b.sampler_csv);
        assert!(check(&a.doc, &b.doc, 0.0).is_empty());
        assert!(!a.sampler_csv.is_empty(), "sampler replay produced no CSV");
        assert!(
            a.doc.get("madscope_sampler_rows").map(|m| m.value) > Some(0.0),
            "sampler replay recorded no rows"
        );
        // Spot-check the suite covers all five experiments + madprof.
        for name in [
            "e1_opt_makespan_us",
            "e2_submits_per_activation",
            "e7_2rail_opt_mbps",
            "e12_delivered_fraction",
            "e13_scale_makespan_us",
            "e13_overload_delivered_fraction",
            "e13h_makespan_us",
            "e13h_chunks_per_pkt",
            "e15_allreduce_auto_p99_us",
            "e15_selection_win_rate",
            "e15_barrier_fanin_p999_us",
            "prof_wire_share_p50",
            "prof_retx_share_p99",
            "prof_decision_share_p99",
        ] {
            assert!(a.doc.get(name).is_some(), "missing {name}");
        }
        // The E12 loss cell must exercise every gated phase: zero shares
        // here would leave the prof_* gates comparing 0 vs 0 forever.
        let wire = a.doc.get("prof_wire_share_p50").unwrap().value;
        let retx = a.doc.get("prof_retx_share_p99").unwrap().value;
        assert!(wire > 0.0, "wire share p50 is zero");
        assert!(
            retx > 0.0,
            "retx share p99 is zero (loss cell lost nothing?)"
        );
        // The heterogeneous point must sit in its regime: a window full
        // of data aggregates like a fresh one.
        let chunks = a.doc.get("e13h_chunks_per_pkt").unwrap().value;
        assert!(chunks > 12.0, "parked requests crowd the window: {chunks}");
    }
}

//! Every workload at 1/50 scale: the oracle passes on what works and
//! reports what does not.

use madclock::bench::{self, MIN_REPEATS};
use madclock::catalog::{END_TO_END, PER_LAYER};
use madclock::host::Scaled;
use madclock::run::{Analysis, Observers, Outcome, Rig};
use madclock::spans::Spans;
use madclock::surface::{AdmissionConfig, AdmissionPolicy, Json};
use madclock::workload::Workload;

const SCALE: f64 = 1.0 / 50.0;

/// By how much the estimated shares of a run may overshoot its wall time:
/// kernels and run are timed at different moments of a shared machine.
const SHARE_TOLERANCE: f64 = 0.25;

/// One untraced run, judged.
fn outcome(w: Workload, seed: u64) -> Outcome {
    let mut spans = Spans::off();
    let obs = Observers::end_to_end(w);
    let (mut rig, _) = Rig::set_up(w, seed, SCALE, obs, &mut spans);
    rig.drain_scaled(&mut Scaled::start());
    let analysis = obs
        .trace_cap
        .map(|_| Analysis::run(&rig.cluster, &mut spans, &mut Scaled::start()));
    Outcome::judge(&rig, analysis.as_ref())
}

#[test]
fn every_workload_passes_the_oracle_end_to_end() {
    for w in Workload::ALL {
        // Too short for a fourth repeat: the floor of three applies.
        let report = bench::end_to_end(w, 11, 0.01, SCALE);
        assert!(report.correct, "{}: {:?}", w.name(), report.violations);
        assert_eq!(report.failed, 0);
        assert_eq!(report.repeats, MIN_REPEATS);
        assert!(report.attempted >= 8 * MIN_REPEATS as u64);
        assert_eq!(report.readings.len(), END_TO_END.len());
        for r in &report.readings {
            assert!(r.value > 0.0, "{}: {} must never read 0", w.name(), r.name);
        }
        // The contract's result line has exactly these keys.
        let Json::Obj(fields) = report.result_line() else {
            panic!("the result line is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn same_seed_same_virtual_metrics_other_seed_other_metrics() {
    for w in Workload::ALL {
        let (a, b, c) = (outcome(w, 11), outcome(w, 11), outcome(w, 12));
        assert!(a.correct(), "{}: {:?}", w.name(), a.violations);
        assert_eq!(a, b, "{}: one seed, two outcomes", w.name());
        assert_ne!(
            (a.makespan_ns, a.lat_p50_ns, a.lat_p999_ns),
            (c.makespan_ns, c.lat_p50_ns, c.lat_p999_ns),
            "{}: the seed does not reach the virtual metrics",
            w.name()
        );
    }
}

#[test]
fn per_layer_reports_every_metric_and_separates_the_layers() {
    let value = |report: &bench::Report, name: &str| {
        report
            .readings
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} is not reported"))
            .value
    };
    for w in Workload::ALL {
        let (report, spans) = bench::per_layer(w, 11, 0.5, SCALE);
        assert!(report.correct, "{}: {:?}", w.name(), report.violations);
        assert_eq!(report.readings.len(), PER_LAYER.len());
        assert!(report.readings.iter().all(|r| r.value.is_finite()));

        // Layer separation: the fabric costs something only where there
        // is one, and only lossy rails retransmit.
        let on_fabric = w == Workload::FabricPerm;
        assert_eq!(
            value(&report, "topo.est_share") > 0.0,
            on_fabric,
            "{}",
            w.name()
        );
        assert_eq!(
            value(&report, "reliability.retransmits") > 0.0,
            w == Workload::LossyMultirail,
            "{}",
            w.name()
        );
        assert_eq!(value(&report, "app.late_max_ns"), 0.0);
        // The estimated partition stays a partition: a kernel that sees a
        // costlier window than the run did would push the sum past 1.
        let unattributed = value(&report, "engine.unattributed_share");
        assert!(
            unattributed >= -SHARE_TOLERANCE,
            "{}: the layer shares and app.self_share sum to {}",
            w.name(),
            1.0 - unattributed
        );
        assert!(value(&report, "message.pack_ns") > 0.0);
        if w == Workload::ObservePipeline {
            assert_eq!(value(&report, "trace.events_dropped"), 0.0);
        }

        // The span file: a workload root with set-up, run, observe and
        // kernels under it, every span closed.
        let doc = spans.to_json();
        let all = doc.get("spans").and_then(Json::as_array).expect("spans");
        let named = |n: &str| {
            all.iter()
                .filter(|s| s.get("name").and_then(Json::as_str) == Some(n))
                .count()
        };
        assert_eq!(named("workload"), 1);
        for name in [
            "setup",
            "app.schedule_gen",
            "harness.build",
            "run",
            "observe",
            "kernels",
        ] {
            assert_eq!(named(name), 1, "{}: {name}", w.name());
        }
        assert!(named("run.slice") >= 1);
        assert!(named("kernel.collect.complete") >= 3);
        for s in all {
            let at = |k: &str| s.get(k).and_then(Json::as_u64).expect(k);
            assert!(at("end_ns") >= at("start_ns"));
            assert_eq!(s.get("workload").and_then(Json::as_str), Some(w.name()));
        }
    }
}

#[test]
fn a_shedding_engine_shows_up_as_failed_messages() {
    // 16 KiB per class with ShedOldest: the burst overruns it at once and
    // the engine drops the oldest backlog. The oracle must say so.
    let w = Workload::BurstFewflows;
    let mut config = w.fixture().engine_config();
    config.admission = AdmissionConfig {
        class_backlog_bytes: [16 << 10; 4],
        policy: [AdmissionPolicy::ShedOldest; 4],
        ..AdmissionConfig::default()
    };
    let mut spans = Spans::off();
    let (mut rig, _) = Rig::set_up_with(w, 11, SCALE, Observers::OFF, &mut spans, config);
    rig.drain_scaled(&mut Scaled::start());
    let outcome = Outcome::judge(&rig, None);
    assert!(outcome.failed > 0, "shed messages count as failed");
    assert!(outcome.failed < outcome.offered, "the rest arrives");
    assert!(!outcome.correct());
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.contains("delivered intact")),
        "{:?}",
        outcome.violations
    );
}

#[test]
fn a_small_trace_ring_fails_observe_pipeline() {
    // 4 Ki records per ring cannot hold the run: events drop, messages
    // lose their attribution, and that is a failure, not a warning.
    let w = Workload::ObservePipeline;
    let obs = Observers {
        trace_cap: Some(4 << 10),
        ..Observers::end_to_end(w)
    };
    let mut spans = Spans::off();
    let (mut rig, _) = Rig::set_up(w, 11, 0.25, obs, &mut spans);
    rig.drain_scaled(&mut Scaled::start());
    let analysis = Analysis::run(&rig.cluster, &mut spans, &mut Scaled::start());
    assert!(analysis.events_dropped > 0);
    let outcome = Outcome::judge(&rig, Some(&analysis));
    assert!(outcome.failed > 0, "unattributed messages count as failed");
    assert!(!outcome.correct());
    assert!(
        outcome.violations.iter().any(|v| v.contains("dropped")),
        "{:?}",
        outcome.violations
    );
}

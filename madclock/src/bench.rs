//! The two measurements of one workload: end to end (observers off,
//! median of fresh-cluster repeats) and per layer (one traced run plus
//! kernels shaped by it).

use std::time::Instant;

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
use crate::host::{self, Scaled};
use crate::kernels::{self, Shape};
use crate::run::{Analysis, Observers, Outcome, Rig};
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::Workload;

/// Fewest fresh-cluster repeats a measurement rests on.
pub const MIN_REPEATS: usize = 3;

/// One reported value.
#[derive(Clone, Debug)]
pub struct Reading {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value: the median of the repeats for host times, exact otherwise.
    pub value: f64,
    /// Host times: the per-repeat samples behind the value, normalized by
    /// the calibration loop.
    pub samples: Vec<f64>,
}

/// The result of measuring one workload one way.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// Every output was correct and every repeat agreed.
    pub correct: bool,
    /// Messages offered, summed over repeats.
    pub attempted: u64,
    /// Messages that failed, summed over repeats.
    pub failed: u64,
    /// Fresh-cluster repeats run.
    pub repeats: usize,
    /// What the oracle found wrong, in words.
    pub violations: Vec<String>,
    /// The metrics.
    pub readings: Vec<Reading>,
}

/// One untraced (or, for `observe_pipeline`, product-traced) repeat.
struct Repeat {
    /// Everything before the first event.
    setup_time: Scaled,
    /// First event to quiescence.
    drain_s: f64,
    /// What a user waits: first event to quiescence, plus the analysis on
    /// `observe_pipeline`.
    wall_time: Scaled,
    /// `VmHWM` of the process when the repeat ended.
    peak_rss_mb: Option<f64>,
    outcome: Outcome,
}

fn repeat(w: Workload, seed: u64, scale: f64) -> Repeat {
    let mut spans = Spans::off();
    let mut setup_time = Scaled::start();
    let ((mut rig, _), _) =
        setup_time.piece(|| Rig::set_up(w, seed, scale, Observers::end_to_end(w), &mut spans));
    let mut wall_time = setup_time.then();
    rig.drain_scaled(&mut wall_time);
    let drain_s = wall_time.raw_s;
    // The analyst's path is what `observe_pipeline` measures: its wall
    // time covers the run and the analysis of the run.
    let analysis = (w == Workload::ObservePipeline)
        .then(|| Analysis::run(&rig.cluster, &mut spans, &mut wall_time));
    let outcome = Outcome::judge(&rig, analysis.as_ref());
    Repeat {
        setup_time,
        drain_s,
        wall_time,
        peak_rss_mb: host::peak_rss_mb(),
        outcome,
    }
}

/// Run fresh-cluster repeats for about `seconds` (at least
/// [`MIN_REPEATS`]), checking that every repeat's outcome equals the
/// first's.
fn repeats(w: Workload, seed: u64, seconds: f64, scale: f64) -> (Vec<Repeat>, Vec<String>) {
    let start = Instant::now();
    let mut runs: Vec<Repeat> = Vec::new();
    let mut violations = Vec::new();
    loop {
        let t = Instant::now();
        let r = repeat(w, seed, scale);
        if let Some(first) = runs.first() {
            if first.outcome != r.outcome {
                violations.push(format!(
                    "repeat {} differs from repeat 0 in virtual metrics or counters",
                    runs.len()
                ));
            }
        }
        runs.push(r);
        let (took, spent) = (t.elapsed().as_secs_f64(), start.elapsed().as_secs_f64());
        if runs.len() >= MIN_REPEATS && spent + took > seconds {
            break;
        }
    }
    violations.extend(runs[0].outcome.violations.iter().cloned());
    (runs, violations)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Reading {
    /// A virtual time, a count, or a host reading taken once.
    fn single(name: &'static str, value: f64) -> Reading {
        Reading {
            name,
            unit: "",
            value,
            samples: vec![],
        }
    }

    /// A host time measured once per repeat: the median of the repeats'
    /// scaled times.
    fn host_time(name: &'static str, runs: &[Repeat], time: impl Fn(&Repeat) -> Scaled) -> Reading {
        let samples: Vec<f64> = runs.iter().map(|r| time(r).scaled_s).collect();
        Reading {
            value: median(&samples),
            samples,
            ..Reading::single(name, 0.0)
        }
    }
}

/// Put `values` in `defs`' order and give each its unit. A metric without
/// a value, or a value without a metric, is a bug in this file.
fn readings(defs: &'static [MetricDef], mut values: Vec<Reading>) -> Vec<Reading> {
    assert_eq!(defs.len(), values.len(), "one value per metric");
    defs.iter()
        .map(|def| {
            let at = values
                .iter()
                .position(|r| r.name == def.name)
                .unwrap_or_else(|| panic!("no value for {}", def.name));
            Reading {
                unit: def.unit,
                ..values.swap_remove(at)
            }
        })
        .collect()
}

fn report(
    w: Workload,
    seed: u64,
    outcomes: &[&Outcome],
    repeats: usize,
    violations: Vec<String>,
    readings: Vec<Reading>,
) -> Report {
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    Report {
        workload: w.name(),
        seed,
        correct: failed == 0 && violations.is_empty(),
        attempted: outcomes.iter().map(|o| o.offered).sum(),
        failed,
        repeats,
        violations,
        readings,
    }
}

/// End-to-end measurement of `w`: observers off, the median of the
/// fresh-cluster repeats.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64, scale: f64) -> Report {
    let (runs, mut violations) = repeats(w, seed, seconds, scale);
    let first = &runs[0].outcome;
    // Read when the first repeat ended: what one run of the workload
    // needs. Later repeats add what the allocator failed to reuse, a step
    // of a mebibyte that comes and goes from run to run.
    let peak_rss_mb = runs[0].peak_rss_mb.unwrap_or_else(|| {
        violations.push("VmHWM is not readable from /proc/self/status".into());
        0.0
    });
    let values = vec![
        Reading::host_time("setup_s", &runs, |r| r.setup_time),
        Reading::host_time("wall_s", &runs, |r| r.wall_time),
        Reading::single("peak_rss_mb", peak_rss_mb),
        Reading::single("sim_makespan_us", us(first.makespan_ns)),
        Reading::single("sim_lat_p50_us", us(first.lat_p50_ns)),
        Reading::single("sim_lat_p999_us", us(first.lat_p999_ns)),
    ];
    let outcomes: Vec<&Outcome> = runs.iter().map(|r| &r.outcome).collect();
    report(
        w,
        seed,
        &outcomes,
        runs.len(),
        violations,
        readings(&END_TO_END, values),
    )
}

/// Per-layer measurement of `w`: a few untraced repeats for the base wall
/// time, one traced run under spans, then kernels shaped by that run. The
/// second value is the span file.
pub fn per_layer(w: Workload, seed: u64, seconds: f64, scale: f64) -> (Report, Spans) {
    // Base: what the traced run and the estimated shares are set against.
    let (base, mut violations) = repeats(w, seed, seconds * 0.3, scale);
    let base_wall = median(&base.iter().map(|r| r.wall_time.raw_s).collect::<Vec<_>>());
    let untraced = &base[0].outcome;
    // `observe_pipeline` traces even end to end, so the cost of its
    // observers is set against one run that has them off, cut into pieces
    // like the base runs of the other workloads.
    let untraced_drain_s = if w == Workload::ObservePipeline {
        let (mut rig, _) = Rig::set_up(w, seed, scale, Observers::OFF, &mut Spans::off());
        let mut time = Scaled::start();
        rig.drain_scaled(&mut time);
        time.raw_s
    } else {
        median(&base.iter().map(|r| r.drain_s).collect::<Vec<_>>())
    };

    let mut spans = Spans::on(w.name());
    let workload_span = spans.open("workload");
    let cpu0 = host::cpu_s();
    let (mut rig, setup) = Rig::set_up(w, seed, scale, Observers::traced(w), &mut spans);
    let run_span = spans.open("run");
    let slices = rig.drain_sliced(&mut spans);
    spans.close(run_span);
    let cpu_s = match (cpu0, host::cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => {
            violations.push("/proc/self/schedstat is not readable".into());
            0.0
        }
    };
    let analysis = Analysis::run(&rig.cluster, &mut spans, &mut Scaled::start());
    let traced = Outcome::judge(&rig, Some(&analysis));
    violations.extend(traced.violations.iter().cloned());
    // Observers must not change what the program does.
    if (traced.makespan_ns, traced.lat_p50_ns, traced.lat_p999_ns)
        != (
            untraced.makespan_ns,
            untraced.lat_p50_ns,
            untraced.lat_p999_ns,
        )
    {
        violations.push("the traced run's virtual metrics differ from the untraced run's".into());
    }

    let c = &traced.counts;
    let shape = Shape::of(&rig, &traced, &slices);
    drop(rig);
    let kernels_span = spans.open("kernels");
    let k = kernels::run_all(&shape, seconds * 0.25, &mut spans);
    spans.close(kernels_span);
    spans.close(workload_span);

    let msgs = traced.offered as f64;
    let run_s = spans.total_s("run");
    let app_share = ratio(spans.callee_s("run.slice"), run_s);
    // Kernel ns x the run's call count / untraced wall: what a faster
    // layer could save at most.
    let share = |ns: f64| ratio(ns, base_wall * 1e9);
    let collect_share = share(
        k.collect_submit * c.submitted_msgs as f64
            + k.collect_candidates * c.select_calls as f64
            + k.collect_complete * c.chunks_sent as f64,
    );
    let optimizer_share = share(k.optimizer_select_plan * c.select_calls as f64);
    let proto_share = share((k.proto_encode + k.proto_decode) * c.packets_sent as f64);
    let receiver_share = share(k.receiver_on_chunk * c.receiver_chunks as f64);
    let event_share = share(k.event_push_pop * c.events_processed as f64);
    // Every packet crossing a fabric joins and leaves it, and each join
    // or leave recomputes the max-min shares.
    let topo_share = share(k.topo_max_min * 2.0 * c.fabric_packets as f64);
    let reliability_share = share(k.reliability_track_ack * c.acks_received as f64);
    let attributed = collect_share
        + optimizer_share
        + proto_share
        + receiver_share
        + event_share
        + topo_share
        + reliability_share;

    let n = |v: u64| v as f64;
    let values: Vec<(&'static str, f64)> = vec![
        ("collect.submitted_msgs", n(c.submitted_msgs)),
        ("collect.backlog_depth_mean", c.backlog_depth_mean),
        ("collect.peak_backlog_bytes", n(slices.peak_backlog_bytes)),
        ("collect.queue_delay_p99_us", us(c.queue_delay_p99_ns)),
        ("optimizer.activations", n(c.activations)),
        ("optimizer.plans_evaluated", n(c.plans_evaluated)),
        (
            "optimizer.plans_per_activation_p99",
            n(c.plans_per_activation_p99),
        ),
        (
            "optimizer.useful_ratio",
            ratio(n(c.plans_submitted), n(c.plans_evaluated)),
        ),
        ("optimizer.congestion_gated", n(c.congestion_gated)),
        ("proto.packets_sent", n(c.packets_sent)),
        (
            "proto.chunks_per_packet",
            ratio(n(c.chunks_sent), n(c.packets_sent)),
        ),
        (
            "proto.linearized_share",
            ratio(n(c.linearized_packets), n(c.packets_sent)),
        ),
        (
            "proto.wire_efficiency",
            ratio(n(c.delivered_bytes), n(c.nic_wire_bytes)),
        ),
        (
            "nic.tx_busy_share",
            ratio(n(c.nic_busy_ns), n(c.nics_used * traced.makespan_ns)),
        ),
        ("nic.idle_transitions", n(c.nic_idle_transitions)),
        ("receiver.chunks", n(c.receiver_chunks)),
        ("receiver.overlaps", n(c.receiver_overlaps)),
        ("reliability.retransmits", n(c.retransmits)),
        ("reliability.timeouts", n(c.timeouts)),
        ("reliability.acks_received", n(c.acks_received)),
        (
            "reliability.retx_ratio",
            ratio(n(c.retransmits), n(c.packets_sent)),
        ),
        ("simnet.events_processed", n(c.events_processed)),
        ("simnet.events_per_msg", ratio(n(c.events_processed), msgs)),
        ("topo.peak_transfers", n(slices.peak_transfers)),
        ("topo.ecn_marks", n(c.ecn_marks)),
        ("topo.queue_drops", n(c.queue_drops)),
        ("trace.events_retained", n(analysis.events_retained)),
        ("trace.events_dropped", n(analysis.events_dropped)),
        ("run.traced_wall_s", run_s),
        ("trace.overhead_ratio", ratio(run_s, untraced_drain_s)),
        ("run.cpu_s", cpu_s),
        (
            "simnet.host_ns_per_event",
            ratio(base_wall * 1e9, n(untraced.counts.events_processed)),
        ),
        ("engine.host_ns_per_msg", ratio(base_wall * 1e9, msgs)),
        ("app.self_share", app_share),
        ("app.late_max_ns", n(traced.late_max_ns)),
        ("app.schedule_gen_s", setup.schedule_gen_s),
        ("harness.build_s", setup.build_s),
        ("message.pack_ns", k.message_pack),
        ("collect.submit_ns", k.collect_submit),
        ("collect.candidates_ns", k.collect_candidates),
        ("collect.complete_ns", k.collect_complete),
        ("optimizer.select_plan_ns", k.optimizer_select_plan),
        ("constraints.validate_plan_ns", k.constraints_validate_plan),
        ("proto.encode_ns", k.proto_encode),
        ("proto.decode_ns", k.proto_decode),
        ("receiver.on_chunk_ns", k.receiver_on_chunk),
        ("event.push_pop_ns", k.event_push_pop),
        ("topo.max_min_ns", k.topo_max_min),
        ("topo.route_ns", k.topo_route),
        ("reliability.track_ack_ns", k.reliability_track_ack),
        ("metrics.record_delivery_ns", k.metrics_record_delivery),
        ("trace.emit_ns", k.trace_emit),
        ("scope.tick_ns", k.scope_tick),
        (
            "prof.build_ns_per_event",
            ratio(analysis.prof_s * 1e9, n(analysis.events_retained)),
        ),
        (
            "diff.ns_per_msg",
            ratio(analysis.diff_s * 1e9, n(analysis.profiled)),
        ),
        (
            "trace.chrome_export_ns_per_event",
            ratio(analysis.chrome_s * 1e9, n(analysis.chrome_events)),
        ),
        ("scope.prometheus_render_ns", analysis.prometheus_s * 1e9),
        ("collect.est_share", collect_share),
        ("optimizer.est_share", optimizer_share),
        ("proto.est_share", proto_share),
        ("receiver.est_share", receiver_share),
        ("event.est_share", event_share),
        ("topo.est_share", topo_share),
        ("reliability.est_share", reliability_share),
        ("engine.unattributed_share", 1.0 - attributed - app_share),
    ];
    let values = values
        .into_iter()
        .map(|(name, value)| Reading::single(name, value))
        .collect();
    let mut outcomes: Vec<&Outcome> = base.iter().map(|r| &r.outcome).collect();
    outcomes.push(&traced);
    let report = report(
        w,
        seed,
        &outcomes,
        base.len(),
        violations,
        readings(&PER_LAYER, values),
    );
    (report, spans)
}

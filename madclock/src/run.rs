//! One run of one workload: set the cluster up, drive it to quiescence,
//! and judge what came out.

use std::rc::Rc;
use std::time::Instant;

use crate::app::{NodeApp, Shared};
use crate::host::Scaled;
use crate::layers::Counts;
use crate::spans::Spans;
use crate::stats::quantile_sorted;
use crate::surface::{
    diff, AppDriver, Cluster, ClusterSpec, EngineConfig, EngineKind, PolicyKind, RunSnapshot,
    SimDuration, SimTime,
};
use crate::workload::{Fixture, Workload};

/// Virtual time no run comes near; a run stops here instead of looping
/// forever should timers re-arm without end.
const VIRTUAL_LIMIT: SimTime = SimTime::from_nanos(u64::MAX / 2);

/// Longest piece of virtual time a host-paced run asks for at once (a
/// day): doubling stops here while it waits out a far-off cancelled timer.
const MAX_STEP_NS: u64 = 86_400_000_000_000;

/// Length of one slice of the traced run's event loop.
const SLICE: SimDuration = SimDuration::from_millis(1);

/// Which observers a run switches on. End-to-end runs have all of them
/// off, except on `observe_pipeline`, whose product is the trace.
#[derive(Clone, Copy, Debug)]
pub struct Observers {
    /// Ring capacity of the simulator trace and of every engine's sink.
    pub trace_cap: Option<usize>,
    /// madscope sampler ticking every 50 us.
    pub sampler: bool,
    /// Accumulate host time spent in app callbacks.
    pub time_callbacks: bool,
}

/// Ring capacity `observe_pipeline` traces with: enough to retain every
/// event of the workload at scale 1.0.
pub const OBSERVE_RING: usize = 4 << 20;

impl Observers {
    /// Every observer off.
    pub const OFF: Observers = Observers {
        trace_cap: None,
        sampler: false,
        time_callbacks: false,
    };

    /// What an end-to-end run of `w` switches on.
    pub fn end_to_end(w: Workload) -> Observers {
        if w == Workload::ObservePipeline {
            Observers {
                trace_cap: Some(OBSERVE_RING),
                sampler: true,
                ..Observers::OFF
            }
        } else {
            Observers::OFF
        }
    }

    /// What the traced run of `w` switches on. Other workloads than
    /// `observe_pipeline` keep a bounded window of 256 Ki events in all;
    /// their rings may overflow, and the drop count is reported.
    pub fn traced(w: Workload) -> Observers {
        let rings = w.fixture().nodes + 1;
        Observers {
            trace_cap: Some(if w == Workload::ObservePipeline {
                OBSERVE_RING
            } else {
                (256 << 10) / rings
            }),
            sampler: true,
            time_callbacks: true,
        }
    }
}

/// A cluster ready to run, with the state its apps share.
pub struct Rig {
    /// The workload.
    pub workload: Workload,
    /// The cluster.
    pub cluster: Cluster,
    /// Schedule, flow ids and receive logs.
    pub shared: Rc<Shared>,
}

/// Host seconds the parts of set-up took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Schedule and payload pool generation.
    pub schedule_gen_s: f64,
    /// `Cluster::build` and flow opens.
    pub build_s: f64,
}

impl Rig {
    /// Generate `w`'s schedule for `seed` and build its cluster with the
    /// fixture's engine configuration.
    pub fn set_up(
        w: Workload,
        seed: u64,
        scale: f64,
        obs: Observers,
        spans: &mut Spans,
    ) -> (Rig, SetupTimes) {
        Rig::set_up_with(w, seed, scale, obs, spans, w.fixture().engine_config())
    }

    /// [`Rig::set_up`] with an explicit engine configuration (the oracle's
    /// negative tests run a budgeted `ShedOldest` engine).
    pub fn set_up_with(
        w: Workload,
        seed: u64,
        scale: f64,
        obs: Observers,
        spans: &mut Spans,
        config: EngineConfig,
    ) -> (Rig, SetupTimes) {
        let setup = spans.open("setup");
        let t0 = Instant::now();
        let span = spans.open("app.schedule_gen");
        let plan = w.plan(seed, scale);
        spans.close(span);
        let schedule_gen_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let span = spans.open("harness.build");
        let fixture = w.fixture();
        let shared = Shared::new(plan, obs.time_callbacks);
        let cluster = build_cluster(&fixture, &shared, obs, config);
        spans.close(span);
        let build_s = t1.elapsed().as_secs_f64();
        spans.close(setup);
        (
            Rig {
                workload: w,
                cluster,
                shared,
            },
            SetupTimes {
                schedule_gen_s,
                build_s,
            },
        )
    }

    /// Run to quiescence piece by piece: the one event loop every run goes
    /// through. `run_piece` advances the simulator to the deadline it is
    /// given, wrapped in whatever the caller measures, and returns the host
    /// seconds the piece took. Virtual time does not care where the cuts
    /// fall.
    fn drain_pieces(&mut self, cut: Cut, mut run_piece: impl FnMut(&mut Rig, SimTime) -> f64) {
        let mut step_ns = match cut {
            Cut::HostPaced => 100_000,
            Cut::Every(slice) => slice.as_nanos(),
        };
        // The first piece runs `on_start`, which arms the first timers.
        let mut first = true;
        while first || !(self.cluster.sim.is_quiescent() || self.cluster.sim.now() >= VIRTUAL_LIMIT)
        {
            first = false;
            let deadline =
                (self.cluster.sim.now() + SimDuration::from_nanos(step_ns)).min(VIRTUAL_LIMIT);
            let took_s = run_piece(self, deadline);
            if cut == Cut::HostPaced {
                if took_s < 0.020 {
                    step_ns = (step_ns * 2).min(MAX_STEP_NS);
                } else if took_s > 0.080 {
                    step_ns = (step_ns / 2).max(1);
                }
            }
        }
    }

    /// Run to quiescence in pieces of 20-80 ms of host time, adding each
    /// to `time`.
    pub fn drain_scaled(&mut self, time: &mut Scaled) {
        self.drain_pieces(Cut::HostPaced, |rig, deadline| {
            time.piece(|| rig.cluster.sim.run_until(deadline)).1
        });
    }

    /// Run to quiescence in 1 ms virtual slices, one span per slice,
    /// sampling the sender backlog and the fabric's in-flight transfers at
    /// every slice boundary.
    pub fn drain_sliced(&mut self, spans: &mut Spans) -> SliceSamples {
        let mut samples = SliceSamples::default();
        self.drain_pieces(Cut::Every(SLICE), |rig, deadline| {
            let t0 = Instant::now();
            let span = spans.open("run.slice");
            let before = rig.shared.callback_ns.get();
            rig.cluster.sim.run_until(deadline);
            spans.close_with_callee_ns(span, rig.shared.callback_ns.get() - before);
            let backlog: u64 = rig.cluster.handles.iter().map(|h| h.backlog_bytes()).sum();
            samples.peak_backlog_bytes = samples.peak_backlog_bytes.max(backlog);
            let transfers: usize = rig
                .cluster
                .networks
                .iter()
                .filter_map(|&net| rig.cluster.sim.fabric(net))
                .map(|f| f.active_transfers())
                .sum();
            samples.peak_transfers = samples.peak_transfers.max(transfers as u64);
            t0.elapsed().as_secs_f64()
        });
        samples
    }
}

/// Where [`Rig::drain_pieces`] cuts the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cut {
    /// After 20-80 ms of host time: the virtual length of a piece adapts
    /// to how long the last one took.
    HostPaced,
    /// After a fixed length of virtual time, so that what is sampled at
    /// the cuts is a function of the seed.
    Every(SimDuration),
}

/// What the traced run samples at slice boundaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct SliceSamples {
    /// Largest summed collect-layer backlog seen at a boundary.
    pub peak_backlog_bytes: u64,
    /// Most fabric transfers in flight at a boundary.
    pub peak_transfers: u64,
}

fn build_cluster(
    fixture: &Fixture,
    shared: &Rc<Shared>,
    obs: Observers,
    config: EngineConfig,
) -> Cluster {
    let spec = ClusterSpec {
        nodes: fixture.nodes,
        rails: fixture.rails.clone(),
        engine: EngineKind::Optimizing {
            config,
            policy: PolicyKind::Pooled,
        },
        trace: obs.trace_cap,
        engine_trace: obs.trace_cap,
    };
    let apps = (0..fixture.nodes)
        .map(|n| Some(Box::new(NodeApp::new(n, shared.clone())) as Box<dyn AppDriver>))
        .collect();
    let mut cluster = Cluster::build_with_topologies(&spec, vec![fixture.topology()], apps);
    for rail in 0..fixture.rails.len() {
        if let Some(plan) = fixture.fault_plan(rail) {
            cluster.set_fault_plan(rail, plan);
        }
    }
    if obs.sampler {
        cluster.enable_sampler(SimDuration::from_micros(50));
    }
    let flow_ids = shared
        .plan
        .nodes
        .iter()
        .zip(&cluster.handles)
        .map(|(node, handle)| {
            node.flows
                .iter()
                .map(|f| handle.open_flow(cluster.nodes[f.dst], f.class))
                .collect()
        })
        .collect();
    *shared.flow_ids.borrow_mut() = flow_ids;
    cluster
}

/// The analyst's path over a traced run: normalize the rings, attribute
/// every message, snapshot, self-diff, export, render.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Messages with a complete six-phase attribution.
    pub attributed: u64,
    /// Messages the profiler emitted a span for, complete or not.
    pub profiled: u64,
    /// Records the profiler consumed from all rings.
    pub events_retained: u64,
    /// Records the rings dropped before the profiler saw them.
    pub events_dropped: u64,
    /// Entries in the Chrome export.
    pub chrome_events: u64,
    /// The self-diff found no difference.
    pub self_diff_zero: bool,
    /// Host seconds of `prof_input` + `profile`.
    pub prof_s: f64,
    /// Host seconds of `RunSnapshot::capture` + `diff(self, self)`.
    pub diff_s: f64,
    /// Host seconds of the Chrome export.
    pub chrome_s: f64,
    /// Host seconds of the Prometheus rendering.
    pub prometheus_s: f64,
}

impl Analysis {
    /// Run the pipeline over `cluster`'s rings, each stage one span and
    /// one piece of `time`.
    pub fn run(cluster: &Cluster, spans: &mut Spans, time: &mut Scaled) -> Analysis {
        let observe = spans.open("observe");

        let span = spans.open("prof.build");
        let ((input, profile), prof_s) = time.piece(|| {
            let input = cluster.prof_input();
            let profile = input.profile();
            (input, profile)
        });
        spans.close(span);

        let span = spans.open("diff.self");
        let (self_diff_zero, diff_s) = time.piece(|| {
            let snapshot = RunSnapshot::capture("madclock", &input);
            diff(&snapshot, &snapshot).is_zero()
        });
        spans.close(span);

        let span = spans.open("trace.chrome_export");
        let (chrome, chrome_s) = time.piece(|| cluster.export_chrome_trace());
        spans.close(span);

        let span = spans.open("scope.prometheus_render");
        let (text, prometheus_s) = time.piece(|| cluster.prometheus_text());
        spans.close(span);
        std::hint::black_box((chrome.json.len(), text.len()));
        spans.close(observe);

        // A message is attributed when the profiler rebuilt its whole
        // lifetime: its submit record survived (the class is known) and
        // its phases partition delivered - submit, which holds by
        // construction for every span the profiler emits.
        let complete = profile.flows.iter().filter(|f| f.class != "?").count() as u64;
        Analysis {
            attributed: complete.saturating_sub(profile.partition_violations),
            profiled: profile.flows.len() as u64,
            events_retained: profile.events_processed as u64,
            events_dropped: profile.dropped_events,
            chrome_events: chrome.events as u64,
            self_diff_zero,
            prof_s,
            diff_s,
            chrome_s,
            prometheus_s,
        }
    }
}

/// Everything about a finished run that the seed determines. Two runs of
/// one seed must produce equal outcomes.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Messages the schedule offered.
    pub offered: u64,
    /// Messages that did not arrive intact, in flow order, exactly once
    /// (or, on `observe_pipeline`, were not fully attributed).
    pub failed: u64,
    /// Virtual time of the last intact delivery.
    pub makespan_ns: u64,
    /// Latency samples.
    pub samples: u64,
    /// Exact median latency.
    pub lat_p50_ns: u64,
    /// Exact 99.9th percentile latency.
    pub lat_p999_ns: u64,
    /// Largest lateness of the generator against its schedule.
    pub late_max_ns: u64,
    /// Layer counters.
    pub counts: Counts,
    /// Everything the oracle found wrong, in words.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Judge a run that has reached quiescence. `analysis` is present when
    /// the run was traced and analysed.
    pub fn judge(rig: &Rig, analysis: Option<&Analysis>) -> Outcome {
        let plan = &rig.shared.plan;
        let counts = Counts::gather(&rig.cluster);
        let offered = plan.offered();
        let mut violations = counts.nonzero();
        let mut intact = 0;
        let mut makespan_ns = 0;
        let mut latencies = Vec::with_capacity(plan.latency_samples() as usize);
        for (node, rx) in rig.shared.rx.iter().enumerate() {
            let rx = rx.borrow();
            intact += rx.intact;
            makespan_ns = makespan_ns.max(rx.last_intact_ns);
            latencies.extend_from_slice(&rx.latencies_ns);
            for (what, n) in [
                ("corrupt", rx.corrupt),
                ("duplicate", rx.duplicate),
                ("misordered", rx.misordered),
            ] {
                if n > 0 {
                    violations.push(format!("node {node} received {n} {what} messages"));
                }
            }
        }
        if !rig.cluster.sim.is_quiescent() {
            violations.push("virtual time limit reached before quiescence".into());
        }
        for (node, h) in rig.cluster.handles.iter().enumerate() {
            let drained = h.opt().is_some_and(|h| h.is_drained());
            if !drained || h.backlog_bytes() > 0 {
                violations.push(format!(
                    "node {node} is not drained at quiescence ({} backlog bytes)",
                    h.backlog_bytes()
                ));
            }
        }
        if intact != offered {
            violations.push(format!("{intact} of {offered} messages delivered intact"));
        }
        if latencies.len() as u64 != plan.latency_samples() {
            violations.push(format!(
                "{} latency samples, expected {}",
                latencies.len(),
                plan.latency_samples()
            ));
        }
        let mut delivered = intact;
        if rig.workload == Workload::ObservePipeline {
            let a = analysis.expect("observe_pipeline is always analysed");
            if a.events_dropped > 0 {
                violations.push(format!("trace rings dropped {} events", a.events_dropped));
            }
            if a.attributed != offered {
                violations.push(format!(
                    "{} of {offered} messages fully attributed",
                    a.attributed
                ));
            }
            if !a.self_diff_zero {
                violations.push("self-diff is not zero".into());
            }
            delivered = delivered.min(a.attributed);
        }
        latencies.sort_unstable();
        let q = |q| {
            if latencies.is_empty() {
                0
            } else {
                quantile_sorted(&latencies, q)
            }
        };
        Outcome {
            offered,
            failed: offered - delivered.min(offered),
            makespan_ns,
            samples: latencies.len() as u64,
            lat_p50_ns: q(0.5),
            lat_p999_ns: q(0.999),
            late_max_ns: rig.shared.late_max_ns.get(),
            counts,
            violations,
        }
    }

    /// No message failed and the oracle found nothing wrong.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

//! Every metric madclock reports, by name, unit and direction. This table
//! and `BENCHMARK.json` must agree; a test checks that they do.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host time or memory: differs from run to run.
    Host,
    /// Virtual time or a count made by the program: a pure function of the
    /// seed, equal on every run of one commit.
    Exact,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
    /// End to end only, `BENCHMARK.json`'s bound: the share of the
    /// parent's median by which the metric may worsen when the two sides
    /// ran on *different seeds*, as the accepting harness runs them.
    pub bound: f64,
    /// End to end only, `madclock compare`'s bound: the same share when
    /// both sides ran on *one seed*, where virtual time is exact.
    pub same_seed_bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    bound: f64,
    same_seed_bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        clock,
        bound,
        same_seed_bound,
    }
}

/// End-to-end metrics, the same on every workload. The failed share is
/// not among them because a metric here may never read 0: it travels in
/// the result line's `failed` / `attempted` fields and must be 0.
///
/// Each metric has two bounds. The first is `BENCHMARK.json`'s and covers
/// the spread between seeds, because the accepting harness takes it across
/// ten seeds (README, "Steadiness"): at least three times the widest
/// spread seen on any workload — 9 % for makespan and median latency, 10 %
/// for `peak_rss_mb`, the 25 % ceiling for the latency tail, `setup_s`
/// and `wall_s`. The second is what `madclock compare` applies, which
/// refuses runs whose seeds differ: the issue's 1 % on virtual time (exact
/// on one seed, so any worsening is the program's) and 10 % on `wall_s`
/// and `peak_rss_mb`, whose medians moved by 4 % at most between two runs
/// of one seed.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Clock::Host, 0.25, 0.25),
    e2e("wall_s", "s", Clock::Host, 0.25, 0.10),
    e2e("peak_rss_mb", "MiB", Clock::Host, 0.10, 0.10),
    e2e("sim_makespan_us", "us", Clock::Exact, 0.09, 0.01),
    e2e("sim_lat_p50_us", "us", Clock::Exact, 0.09, 0.01),
    e2e("sim_lat_p999_us", "us", Clock::Exact, 0.25, 0.01),
];

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound: 0.0,
        same_seed_bound: 0.0,
    }
}

use Better::{Higher, Lower};
use Clock::{Exact, Host};

/// Per-layer metrics, layers named after the modules they read.
pub const PER_LAYER: [MetricDef; 65] = [
    // Counts and ratios from public counters: exact repeats.
    layer("collect.submitted_msgs", "count", Lower, Exact),
    layer("collect.backlog_depth_mean", "count", Lower, Exact),
    layer("collect.peak_backlog_bytes", "bytes", Lower, Exact),
    layer("collect.queue_delay_p99_us", "us", Lower, Exact),
    layer("optimizer.activations", "count", Lower, Exact),
    layer("optimizer.plans_evaluated", "count", Lower, Exact),
    layer("optimizer.plans_per_activation_p99", "count", Lower, Exact),
    layer("optimizer.useful_ratio", "ratio", Higher, Exact),
    layer("optimizer.congestion_gated", "count", Lower, Exact),
    layer("proto.packets_sent", "count", Lower, Exact),
    layer("proto.chunks_per_packet", "ratio", Higher, Exact),
    layer("proto.linearized_share", "ratio", Lower, Exact),
    layer("proto.wire_efficiency", "ratio", Higher, Exact),
    layer("nic.tx_busy_share", "ratio", Higher, Exact),
    layer("nic.idle_transitions", "count", Lower, Exact),
    layer("receiver.chunks", "count", Lower, Exact),
    layer("receiver.overlaps", "count", Lower, Exact),
    layer("reliability.retransmits", "count", Lower, Exact),
    layer("reliability.timeouts", "count", Lower, Exact),
    layer("reliability.acks_received", "count", Lower, Exact),
    layer("reliability.retx_ratio", "ratio", Lower, Exact),
    layer("simnet.events_processed", "count", Lower, Exact),
    layer("simnet.events_per_msg", "ratio", Lower, Exact),
    layer("topo.peak_transfers", "count", Lower, Exact),
    layer("topo.ecn_marks", "count", Lower, Exact),
    layer("topo.queue_drops", "count", Lower, Exact),
    layer("trace.events_retained", "count", Higher, Exact),
    layer("trace.events_dropped", "count", Lower, Exact),
    // Host spans.
    layer("run.traced_wall_s", "s", Lower, Host),
    layer("trace.overhead_ratio", "ratio", Lower, Host),
    layer("run.cpu_s", "s", Lower, Host),
    layer("simnet.host_ns_per_event", "ns", Lower, Host),
    layer("engine.host_ns_per_msg", "ns", Lower, Host),
    layer("app.self_share", "ratio", Lower, Host),
    layer("app.late_max_ns", "ns", Lower, Exact),
    layer("app.schedule_gen_s", "s", Lower, Host),
    layer("harness.build_s", "s", Lower, Host),
    // Kernels: a layer's public function timed from outside, ns per call.
    layer("message.pack_ns", "ns/op", Lower, Host),
    layer("collect.submit_ns", "ns/op", Lower, Host),
    layer("collect.candidates_ns", "ns/op", Lower, Host),
    layer("collect.complete_ns", "ns/op", Lower, Host),
    layer("optimizer.select_plan_ns", "ns/op", Lower, Host),
    layer("constraints.validate_plan_ns", "ns/op", Lower, Host),
    layer("proto.encode_ns", "ns/op", Lower, Host),
    layer("proto.decode_ns", "ns/op", Lower, Host),
    layer("receiver.on_chunk_ns", "ns/op", Lower, Host),
    layer("event.push_pop_ns", "ns/op", Lower, Host),
    layer("topo.max_min_ns", "ns/op", Lower, Host),
    layer("topo.route_ns", "ns/op", Lower, Host),
    layer("reliability.track_ack_ns", "ns/op", Lower, Host),
    layer("metrics.record_delivery_ns", "ns/op", Lower, Host),
    layer("trace.emit_ns", "ns/op", Lower, Host),
    layer("scope.tick_ns", "ns/op", Lower, Host),
    layer("prof.build_ns_per_event", "ns/op", Lower, Host),
    layer("diff.ns_per_msg", "ns/op", Lower, Host),
    layer("trace.chrome_export_ns_per_event", "ns/op", Lower, Host),
    layer("scope.prometheus_render_ns", "ns/op", Lower, Host),
    // Estimated partition of the untraced wall time.
    layer("collect.est_share", "ratio", Lower, Host),
    layer("optimizer.est_share", "ratio", Lower, Host),
    layer("proto.est_share", "ratio", Lower, Host),
    layer("receiver.est_share", "ratio", Lower, Host),
    layer("event.est_share", "ratio", Lower, Host),
    layer("topo.est_share", "ratio", Lower, Host),
    layer("reliability.est_share", "ratio", Lower, Host),
    layer("engine.unattributed_share", "ratio", Lower, Host),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.same_seed_bound > 0.0 && m.same_seed_bound <= m.bound);
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
    }
}

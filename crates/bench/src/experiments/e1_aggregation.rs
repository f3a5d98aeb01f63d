//! **E1 — Cross-flow eager aggregation** (the headline claim, §4: "the
//! aggregation of eager segments collected from several independent
//! communication flows brings huge performance gains").
//!
//! N independent flows send fixed-size eager messages between one node
//! pair over MX. We measure the makespan (time to deliver everything),
//! mean latency and aggregation ratio for the optimizer and for the legacy
//! engine, across flow counts and segment sizes.

use madeleine::harness::{ClusterSpec, EngineKind};
use madware::scenario::eager_flows;
use simnet::{SimDuration, Technology};

use crate::{fmt_bytes, fmt_f, Report, Table};

/// Result of one cell of the sweep.
pub struct Cell {
    /// Virtual makespan in microseconds.
    pub makespan_us: f64,
    /// Mean delivery latency in microseconds.
    pub latency_us: f64,
    /// Median delivery latency (µs, madscope histogram).
    pub p50_us: f64,
    /// Tail delivery latency (µs, madscope histogram).
    pub p99_us: f64,
    /// Mean chunks per packet.
    pub agg_ratio: f64,
    /// Data packets sent.
    pub packets: u64,
    /// All payloads verified intact.
    pub intact: bool,
}

/// Run one configuration.
pub fn run_cell(engine: EngineKind, flows: usize, size: usize, msgs: u64, seed: u64) -> Cell {
    let (mut cluster, _tx, rx) = eager_flows(
        &ClusterSpec::mx_pair().engine(engine),
        flows,
        size,
        SimDuration::from_micros(2), // heavy load: backlog forms
        msgs,
        seed,
    );
    let end = cluster.drain();
    let m = cluster.handle(0).metrics();
    let rxm = cluster.handle(1).metrics();
    assert_eq!(
        rxm.delivered_msgs,
        flows as u64 * msgs,
        "all messages delivered"
    );
    let rx_stats = rx.borrow();
    Cell {
        makespan_us: end.as_micros_f64(),
        latency_us: rxm.latency.summary().mean(),
        p50_us: rxm.latency.quantile(0.5).as_micros_f64(),
        p99_us: rxm.latency.quantile(0.99).as_micros_f64(),
        agg_ratio: m.aggregation_ratio(),
        packets: m.packets_sent,
        intact: rx_stats.integrity.all_ok(),
    }
}

/// Run the full experiment.
pub fn run() -> Report {
    let msgs = 150u64;
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    let mut peak: f64 = 0.0;
    for &size in &[8usize, 64, 512, 4096] {
        let mut t = Table::new(
            format!(
                "eager segments of {} (x{} msgs/flow, MX rail)",
                fmt_bytes(size as u64),
                msgs
            ),
            &[
                "flows",
                "opt makespan(us)",
                "leg makespan(us)",
                "speedup",
                "opt lat(us)",
                "leg lat(us)",
                "opt p50(us)",
                "opt p99(us)",
                "agg ratio",
                "opt pkts",
                "leg pkts",
            ],
        );
        for &flows in &[1usize, 2, 4, 8, 16, 32] {
            let opt = run_cell(EngineKind::optimizing(), flows, size, msgs, 42);
            let leg = run_cell(EngineKind::legacy(), flows, size, msgs, 42);
            assert!(opt.intact && leg.intact, "payload corruption detected");
            let speedup = leg.makespan_us / opt.makespan_us;
            peak = peak.max(speedup);
            t.row(vec![
                flows.to_string(),
                fmt_f(opt.makespan_us),
                fmt_f(leg.makespan_us),
                format!("{speedup:.2}x"),
                fmt_f(opt.latency_us),
                fmt_f(leg.latency_us),
                fmt_f(opt.p50_us),
                fmt_f(opt.p99_us),
                fmt_f(opt.agg_ratio),
                opt.packets.to_string(),
                leg.packets.to_string(),
            ]);
        }
        tables.push(t);
    }
    notes.push(format!(
        "peak speedup {peak:.2}x; gains grow with flow count and shrink with \
         segment size, matching the paper's 'huge gains' for small eager \
         segments from several independent flows"
    ));
    // Madtrace artifacts: a fully-instrumented replay of the sample
    // workload — the merged Chrome timeline plus the metrics registry.
    let (export, metrics) =
        crate::tracecli::export(crate::tracecli::sample(42), false, Technology::MyrinetMx);
    notes.push(format!(
        "madtrace: {} Chrome trace events exported from the seed-42 sample \
         workload (rails as tracks, messages as flow arrows)",
        export.events
    ));
    let artifacts = vec![
        ("e1_sample_trace.json".to_string(), export.json),
        ("e1_metrics.json".to_string(), metrics),
    ];
    Report {
        id: "E1",
        title: "cross-flow eager aggregation vs legacy Madeleine",
        claim: "aggregation of eager segments collected from several independent flows brings huge performance gains (§4)",
        tables,
        notes,
        artifacts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_wins_for_many_small_flows() {
        let opt = run_cell(EngineKind::optimizing(), 8, 16, 60, 1);
        let leg = run_cell(EngineKind::legacy(), 8, 16, 60, 1);
        assert!(opt.intact && leg.intact);
        assert!(opt.agg_ratio > 2.0, "agg ratio {}", opt.agg_ratio);
        assert!(
            leg.makespan_us > 1.5 * opt.makespan_us,
            "legacy {} vs optimizer {}",
            leg.makespan_us,
            opt.makespan_us
        );
        assert!(opt.packets < leg.packets / 2);
    }

    #[test]
    fn single_flow_parity_is_close() {
        // With one flow of well-spaced messages there is little to merge:
        // the optimizer must not be drastically worse than legacy.
        let opt = run_cell(EngineKind::optimizing(), 1, 512, 60, 2);
        let leg = run_cell(EngineKind::legacy(), 1, 512, 60, 2);
        assert!(opt.makespan_us < leg.makespan_us * 1.25);
    }
}

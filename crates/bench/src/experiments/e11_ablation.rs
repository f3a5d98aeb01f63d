//! **E11 (ablation)** — which strategies earn their keep?
//!
//! `DESIGN.md` commits to ablation benches for the engine's design
//! choices. A mixed workload (many small flows + one bulk stream, two MX
//! rails) is run with strategy families disabled one at a time (and the two
//! that merge across flows, `aggregate` and `reorder`, also together); the
//! table shows what each contributes. The FIFO fallback is always present, so
//! "fifo-only" is the optimizer degenerated to a plain library while still
//! keeping NIC-idle activation.

use madeleine::harness::ClusterSpec;
use madeleine::ids::TrafficClass;
use madeleine::EngineConfig;
use madware::apps::FlowSpec;
use madware::scenario::traffic_pair;
use madware::workload::{Arrival, SizeDist};
use simnet::{NodeId, SimDuration, Technology};

use crate::{fmt_f, Report, Table};

fn workload() -> Vec<FlowSpec> {
    let mut specs: Vec<FlowSpec> = (0..6)
        .map(|_| FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Poisson(SimDuration::from_micros(3)),
            sizes: SizeDist::Uniform(16, 256),
            express_header: 8,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(150),
            start_after: SimDuration::ZERO,
        })
        .collect();
    specs.push(FlowSpec {
        dst: NodeId(1),
        class: TrafficClass::BULK,
        arrival: Arrival::Periodic(SimDuration::from_micros(40)),
        sizes: SizeDist::Fixed(24 << 10),
        express_header: 0,
        body_frags: SizeDist::Fixed(1),
        reply: None,
        stop_after: Some(100),
        start_after: SimDuration::ZERO,
    });
    specs
}

/// Outcome of one configuration.
pub struct AblationPoint {
    /// Makespan (µs).
    pub makespan_us: f64,
    /// Mean small-message latency (µs, DEFAULT class).
    pub small_lat_us: f64,
    /// Aggregation ratio.
    pub agg: f64,
    /// Data packets.
    pub packets: u64,
    /// Scoring-contest wins per strategy.
    pub wins: std::collections::BTreeMap<&'static str, u64>,
}

/// Run the mixed workload under a configuration.
pub fn run_config(config: EngineConfig) -> AblationPoint {
    let spec = ClusterSpec::new(2, vec![Technology::MyrinetMx; 2]).config(config);
    let (mut c, _, rx) = traffic_pair(&spec, workload(), 61);
    let end = c.drain();
    assert!(
        rx.borrow().integrity.all_ok(),
        "payload corruption in ablation"
    );
    let m = c.handle(0).metrics();
    let rxm = c.handle(1).metrics();
    AblationPoint {
        makespan_us: end.as_micros_f64(),
        small_lat_us: rxm.latency_by_class[TrafficClass::DEFAULT.0 as usize]
            .summary()
            .mean(),
        agg: m.aggregation_ratio(),
        packets: m.packets_sent,
        wins: m.strategy_wins.clone(),
    }
}

/// Run the experiment.
pub fn run() -> Report {
    let configs: Vec<(&str, EngineConfig)> = vec![
        ("full engine", EngineConfig::default()),
        (
            "no aggregation",
            EngineConfig {
                enable_aggregation: false,
                ..EngineConfig::default()
            },
        ),
        (
            "no reorder",
            EngineConfig {
                enable_reorder: false,
                ..EngineConfig::default()
            },
        ),
        (
            "no agg., no reorder",
            EngineConfig {
                enable_aggregation: false,
                enable_reorder: false,
                ..EngineConfig::default()
            },
        ),
        (
            "no gather (copy only)",
            EngineConfig {
                enable_gather: false,
                ..EngineConfig::default()
            },
        ),
        (
            "no rendezvous",
            EngineConfig {
                rndv_threshold: Some(u64::MAX),
                ..EngineConfig::default()
            },
        ),
        ("fifo only", EngineConfig::fifo_only()),
    ];
    let mut t = Table::new(
        "6 small flows + 1 bulk stream, 2 MX rails; one strategy family disabled at a time",
        &[
            "configuration",
            "makespan(us)",
            "small lat(us)",
            "chunks/pkt",
            "pkts",
        ],
    );
    for (name, cfg) in configs {
        let p = run_config(cfg);
        t.row(vec![
            name.to_string(),
            fmt_f(p.makespan_us),
            fmt_f(p.small_lat_us),
            fmt_f(p.agg),
            p.packets.to_string(),
        ]);
    }
    // Which strategy wins the scoring contest, full engine.
    let full = run_config(EngineConfig::default());
    let mut t2 = Table::new(
        "scoring-contest wins per strategy (full engine, same workload)",
        &["strategy", "plans won"],
    );
    for (name, wins) in &full.wins {
        t2.row(vec![name.to_string(), wins.to_string()]);
    }

    Report {
        id: "E11",
        title: "strategy-database ablation",
        claim: "(repository ablation — quantifies each predefined strategy's contribution)",
        tables: vec![t, t2],
        notes: vec![
            "cross-flow merging carries most of the win on this mix, and it has \
             two proposers: with `aggregate` alone off `reorder-sjf` still \
             merges (its lists go out by copy or gathered, as the cost model \
             prices them), with both off packets shrink and small \
             messages wait; gather matters in its own regime (large chunks)"
                .into(),
        ],
        artifacts: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabling_aggregation_hurts() {
        // Cross-flow merging has two proposers: `aggregate` fills in
        // window order, `reorder-sjf` shortest message first. With
        // `aggregate` alone off the reorder lists still merge — 14.9 chunks
        // per packet against the full engine's 13.3, now that the cost
        // model may send them by copy too; "no aggregation" used to mean "no
        // by-copy mode", which only `aggregate`'s family could reach. What
        // remains true: with both proposers off, packets carry fewer
        // chunks and small messages wait longer than under the full
        // engine.
        let full = run_config(EngineConfig::default());
        let no_merging = run_config(EngineConfig {
            enable_aggregation: false,
            enable_reorder: false,
            ..EngineConfig::default()
        });
        assert!(full.agg > no_merging.agg);
        assert!(
            full.small_lat_us < no_merging.small_lat_us,
            "full {} vs no merging {}",
            full.small_lat_us,
            no_merging.small_lat_us
        );
    }

    #[test]
    fn fifo_only_still_correct_but_slower() {
        let full = run_config(EngineConfig::default());
        let fifo = run_config(EngineConfig::fifo_only());
        assert!((fifo.agg - 1.0).abs() < 0.01, "fifo sends single chunks");
        assert!(fifo.packets > full.packets);
    }
}

//! **E3 — Nagle-style artificial delay** (§3): "If the NIC never stays
//! busy long enough for packets to accumulate, the scheduler ... may
//! artificially delay them for a short time to increase the potential of
//! interesting aggregations (in a TCP NAGLE's algorithm fashion)."
//!
//! Sparse traffic (the NIC is mostly idle) with the Nagle delay swept from
//! off to 32 µs: aggregation rises with the delay, at the cost of added
//! latency — the trade-off curve the knob exists to navigate.

use madeleine::harness::ClusterSpec;
use madeleine::EngineConfig;
use madware::scenario::eager_flows;
use simnet::SimDuration;

use crate::{fmt_f, Report, Table};

/// Outcome of one Nagle setting.
pub struct NaglePoint {
    /// Mean delivery latency (µs).
    pub latency_us: f64,
    /// Aggregation ratio.
    pub agg: f64,
    /// Packets sent.
    pub packets: u64,
    /// Timer-triggered activations.
    pub timer_acts: u64,
}

/// Run one Nagle configuration under sparse multi-flow traffic.
pub fn run_point(delay_us: u64) -> NaglePoint {
    let config = EngineConfig::default().with_nagle(SimDuration::from_micros(delay_us));
    let (mut cluster, _tx, _rx) = eager_flows(
        &ClusterSpec::mx_pair().config(config),
        6,
        32,
        SimDuration::from_micros(15), // sparse: NIC idles between messages
        150,
        11,
    );
    cluster.drain();
    let tx = cluster.handle(0).metrics();
    let rx = cluster.handle(1).metrics();
    NaglePoint {
        latency_us: rx.latency.summary().mean(),
        agg: tx.aggregation_ratio(),
        packets: tx.packets_sent,
        timer_acts: tx.activations_timer,
    }
}

/// Run the experiment.
pub fn run() -> Report {
    let mut t = Table::new(
        "6 flows x 150 msgs of 32B, mean gap 15us (sparse), MX rail",
        &[
            "nagle(us)",
            "mean lat(us)",
            "chunks/pkt",
            "pkts",
            "timer acts",
        ],
    );
    for &d in &[0u64, 1, 2, 4, 8, 16, 32] {
        let p = run_point(d);
        t.row(vec![
            d.to_string(),
            fmt_f(p.latency_us),
            fmt_f(p.agg),
            p.packets.to_string(),
            p.timer_acts.to_string(),
        ]);
    }
    Report {
        id: "E3",
        title: "Nagle-style delayed flush under sparse traffic",
        claim: "artificially delay packets for a short time to increase the potential of interesting aggregations (§3)",
        tables: vec![t],
        notes: vec![
            "delay=0 reproduces the 'send as they become available' default; \
             growing delays trade latency for aggregation (fewer, fuller packets)"
                .into(),
        ],
        artifacts: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nagle_increases_aggregation_and_latency() {
        let off = run_point(0);
        let on = run_point(16);
        assert!(on.agg > off.agg, "agg {} !> {}", on.agg, off.agg);
        assert!(on.packets < off.packets);
        assert!(
            on.latency_us > off.latency_us,
            "latency {} !> {}",
            on.latency_us,
            off.latency_us
        );
        assert!(on.timer_acts > 0, "Nagle timers must fire");
        assert_eq!(off.timer_acts, 0, "no timers when disabled");
    }
}

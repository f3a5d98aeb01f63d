//! **E1 — Cross-flow eager aggregation** (the headline claim, §4: "the
//! aggregation of eager segments collected from several independent
//! communication flows brings huge performance gains").
//!
//! N independent flows send fixed-size eager messages between one node
//! pair over MX. We measure the makespan (time to deliver everything),
//! mean latency and aggregation ratio for the optimizer and for the legacy
//! engine, across flow counts and segment sizes.
//!
//! The last table is the other end of the load axis — the regime where the
//! paper says to "send packets as they become available" (§3): eight
//! closed-loop flows ([`Arrival::Closed`]), each with one 64-byte request
//! or reply in flight, so the backlog never exceeds one message per flow
//! ([`light_load`]).

use madeleine::harness::{ClusterSpec, EngineKind};
use madeleine::{EngineConfig, ReliabilityMode, TrafficClass};
use madware::apps::{FlowSpec, Reply, REPLY_HEADER_BYTES};
use madware::scenario::{eager_flows, traffic_pair};
use madware::workload::{Arrival, SizeDist};
use simnet::{NodeId, SimDuration, Technology};

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

/// Closed-loop clients of the light-load cell (madclock's `rpc_pingpong`
/// shape: as many flows each way, one MX rail).
const CLIENTS: usize = 8;
/// Mean of a client's exponential think time between a reply and its next
/// request.
const THINK: SimDuration = SimDuration::from_micros(1);

/// What the light-load cell reads of one engine.
pub struct LightLoad {
    /// When the last reply arrived (µs).
    pub makespan_us: f64,
    /// Exact median round trip (µs).
    pub p50_us: f64,
    /// Exact 99.9th percentile round trip (µs).
    pub p999_us: f64,
    /// Mean chunks per data packet at the client node.
    pub agg_ratio: f64,
    /// Data packets both nodes sent.
    pub data_packets: u64,
    /// Ack packets both nodes sent (madrel `Recover`: acks that found no
    /// data packet to ride).
    pub ack_packets: u64,
}

/// The light-load cell: `CLIENTS` closed-loop flows × `rounds` round
/// trips of 64 bytes each way on one MX rail — a request of a 16-byte
/// express header and a 48-byte body, a reply of the same size — so never
/// more than one message is pending per flow.
pub fn light_load(spec: ClusterSpec, rounds: u32, seed: u64) -> LightLoad {
    let client = FlowSpec {
        arrival: Arrival::Closed(THINK),
        sizes: SizeDist::Fixed(48),
        express_header: 16,
        reply: Some(Reply {
            class: TrafficClass::DEFAULT,
            sizes: SizeDist::Fixed(64 - REPLY_HEADER_BYTES),
        }),
        stop_after: Some(rounds.into()),
        ..FlowSpec::eager(NodeId(1), THINK, 0)
    };
    let (mut cluster, clients, _) = traffic_pair(&spec, vec![client; CLIENTS], seed);
    let end = cluster.drain();
    let mut rtts: Vec<f64> = clients.borrow().rtt_us.concat();
    assert_eq!(
        rtts.len(),
        CLIENTS * rounds as usize,
        "every request answered"
    );
    rtts.sort_unstable_by(f64::total_cmp);
    let quantile = |q: f64| rtts[((rtts.len() - 1) as f64 * q) as usize];
    let nodes = [cluster.handle(0).metrics(), cluster.handle(1).metrics()];
    LightLoad {
        makespan_us: end.as_micros_f64(),
        p50_us: quantile(0.5),
        p999_us: quantile(0.999),
        agg_ratio: nodes[0].aggregation_ratio(),
        data_packets: nodes.iter().map(|m| m.packets_sent).sum(),
        ack_packets: nodes.iter().map(|m| m.ack_packets).sum(),
    }
}

/// The light-load cell's pair on `rails` under `reliability`.
pub fn light_load_pair(rails: &[Technology], reliability: ReliabilityMode) -> ClusterSpec {
    ClusterSpec::new(2, rails.to_vec()).config(EngineConfig {
        reliability,
        ..EngineConfig::default()
    })
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
    let rounds = 20_000;
    let mut t = Table::new(
        format!(
            "light load: {CLIENTS} closed-loop clients x {rounds} round trips of 64 B, \
             think ~{}us (MX rail)",
            THINK.as_micros_f64()
        ),
        &[
            "engine",
            "makespan(us)",
            "rtt p50(us)",
            "rtt p999(us)",
            "chunks/pkt",
        ],
    );
    let opt = light_load(ClusterSpec::mx_pair(), rounds, 11);
    let leg = light_load(ClusterSpec::mx_pair().legacy(), rounds, 11);
    for (engine, cell) in [("optimizing", &opt), ("legacy", &leg)] {
        t.row(vec![
            engine.into(),
            fmt_f(cell.makespan_us),
            format!("{:.2}", cell.p50_us),
            format!("{:.2}", cell.p999_us),
            format!("{:.2}", cell.agg_ratio),
        ]);
    }
    tables.push(t);
    notes.push(format!(
        "light load: backlog <= 1 message per flow; the optimizing engine is {:.1}% \
         ahead of legacy on makespan and {:.1}% at the median round trip, and {:.2} us \
         behind at p999 — requests that met another flow's in the window ride a \
         longer packet",
        (1.0 - opt.makespan_us / leg.makespan_us) * 100.0,
        (1.0 - opt.p50_us / leg.p50_us) * 100.0,
        opt.p999_us - leg.p999_us
    ));
    let mut t = Table::new(
        format!(
            "light load under madrel: the same cell, {rounds} round trips, on a clean \
             wire without (Off) and with (Recover) acknowledgements"
        ),
        &[
            "rails",
            "reliability",
            "makespan(us)",
            "rtt p50(us)",
            "rtt p999(us)",
            "data pkts",
            "ack pkts",
            "vs Off",
        ],
    );
    let elan = [Technology::QuadricsElan];
    let both = [Technology::MyrinetMx, Technology::QuadricsElan];
    for (label, rails) in [("Elan", &elan[..]), ("MX+Elan", &both[..])] {
        let off = light_load(light_load_pair(rails, ReliabilityMode::Off), rounds, 11);
        let rec = light_load(light_load_pair(rails, ReliabilityMode::Recover), rounds, 11);
        for (mode, cell) in [("Off", &off), ("Recover", &rec)] {
            t.row(vec![
                label.into(),
                mode.into(),
                fmt_f(cell.makespan_us),
                format!("{:.2}", cell.p50_us),
                format!("{:.2}", cell.p999_us),
                cell.data_packets.to_string(),
                cell.ack_packets.to_string(),
                format!("{:.2}x", cell.makespan_us / off.makespan_us),
            ]);
        }
    }
    tables.push(t);
    notes.push(
        "light load under Recover: an ack waits for the reply or the next request \
         to ride back on, so a closed loop sends almost no ack packet"
            .into(),
    );
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
    fn at_light_load_the_optimizer_leads_at_the_median_and_trails_only_in_the_tail() {
        let opt = light_load(ClusterSpec::mx_pair(), 400, 11);
        let leg = light_load(ClusterSpec::mx_pair().legacy(), 400, 11);
        assert!(
            opt.makespan_us < leg.makespan_us && opt.p50_us < leg.p50_us,
            "makespan {} vs {}, p50 {} vs {}",
            opt.makespan_us,
            leg.makespan_us,
            opt.p50_us,
            leg.p50_us
        );
        // The caveat, with its size: the tail is behind by a few µs at most.
        assert!(
            opt.p999_us < leg.p999_us + 4.0,
            "p999 {} vs {}",
            opt.p999_us,
            leg.p999_us
        );
        // A legacy packet is one message: its header and its body.
        assert_eq!(leg.agg_ratio, 2.0);
    }

    #[test]
    fn under_recover_a_closed_loop_costs_almost_what_it_does_without_acks() {
        // Each ack rides the reply or the next request: almost no ack
        // packet, and the makespan within 1.2x of `Off` (1.55x on Elan
        // while every data packet had an ack packet of its own).
        let elan = [Technology::QuadricsElan];
        let both = [Technology::MyrinetMx, Technology::QuadricsElan];
        for rails in [&elan[..], &both[..]] {
            let off = light_load(light_load_pair(rails, ReliabilityMode::Off), 400, 11);
            let rec = light_load(light_load_pair(rails, ReliabilityMode::Recover), 400, 11);
            assert!(
                rec.makespan_us <= 1.2 * off.makespan_us,
                "{rails:?}: {} vs {} us",
                rec.makespan_us,
                off.makespan_us
            );
            assert!(
                rec.ack_packets * 100 < rec.data_packets,
                "{rails:?}: {} ack packets for {} data packets",
                rec.ack_packets,
                rec.data_packets
            );
        }
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

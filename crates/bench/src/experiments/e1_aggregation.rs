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
//! closed-loop clients, each with one 64-byte request or reply in flight,
//! so the backlog never exceeds one message per flow ([`light_load`]).

use std::cell::RefCell;
use std::rc::Rc;

use madeleine::api::{AppDriver, CommApi};
use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::message::{DeliveredMessage, MessageBuilder};
use madeleine::{FlowId, TrafficClass};
use madware::scenario::eager_flows;
use madware::workload::{rng_for, Arrival};
use rand::rngs::StdRng;
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

/// A 64-byte message: a 16-byte express header the receiver must see
/// first, and 48 bytes of body.
fn small_message(client: usize, round: u32) -> MessageBuilder {
    let mut header = [0u8; 16];
    header[..8].copy_from_slice(&(client as u64).to_le_bytes());
    header[8..12].copy_from_slice(&round.to_le_bytes());
    MessageBuilder::new()
        .pack_express(&header)
        .pack_cheaper(&[client as u8; 48])
}

/// The client side: `CLIENTS` independent request loops on one node.
struct PingClients {
    rounds: u32,
    flows: Vec<FlowId>,
    /// Per client: requests answered, and when the open one was sent.
    done: Vec<u32>,
    sent_at: Vec<u64>,
    rng: StdRng,
    rtts_ns: Rc<RefCell<Vec<u64>>>,
}

impl PingClients {
    fn think(&mut self, api: &mut dyn CommApi, client: usize) {
        let (think, _) = Arrival::Poisson(THINK).next(&mut self.rng);
        api.set_timer(think, client as u64);
    }
}

impl AppDriver for PingClients {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        for client in 0..CLIENTS {
            self.flows
                .push(api.open_flow(NodeId(1), TrafficClass::DEFAULT));
            self.think(api, client);
        }
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, tag: u64) {
        let client = tag as usize;
        self.sent_at[client] = api.now().as_nanos();
        let request = small_message(client, self.done[client]);
        api.send(self.flows[client], request.build_parts());
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        // The server answers on the flow with the request's index.
        let client = (0..CLIENTS)
            .find(|&c| self.flows[c] == msg.flow)
            .expect("a reply on a known flow");
        let rtt = api.now().as_nanos() - self.sent_at[client];
        self.rtts_ns.borrow_mut().push(rtt);
        self.done[client] += 1;
        if self.done[client] < self.rounds {
            self.think(api, client);
        }
    }
}

/// The server side: every request is answered at once, on the flow of the
/// same index back.
struct EchoServer {
    flows: Vec<FlowId>,
    answered: u32,
}

impl AppDriver for EchoServer {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        for _ in 0..CLIENTS {
            self.flows
                .push(api.open_flow(NodeId(0), TrafficClass::DEFAULT));
        }
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        // Both nodes open their flows in client order, so ids match.
        let client = (0..CLIENTS)
            .find(|&c| self.flows[c] == msg.flow)
            .expect("a request on a known flow");
        let reply = small_message(client, self.answered);
        self.answered += 1;
        api.send(self.flows[client], reply.build_parts());
    }
}

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
}

/// The light-load cell: `CLIENTS` closed-loop clients × `rounds` round
/// trips of 64 bytes each way on one MX rail — never more than one message
/// pending per flow.
pub fn light_load(spec: ClusterSpec, rounds: u32, seed: u64) -> LightLoad {
    let rtts_ns = Rc::new(RefCell::new(Vec::new()));
    let clients = PingClients {
        rounds,
        flows: Vec::new(),
        done: vec![0; CLIENTS],
        sent_at: vec![0; CLIENTS],
        rng: rng_for(seed, 0),
        rtts_ns: rtts_ns.clone(),
    };
    let server = EchoServer {
        flows: Vec::new(),
        answered: 0,
    };
    let mut cluster = Cluster::build(&spec, vec![Some(Box::new(clients)), Some(Box::new(server))]);
    let end = cluster.drain();
    let mut rtts = rtts_ns.borrow().clone();
    assert_eq!(
        rtts.len(),
        CLIENTS * rounds as usize,
        "every request answered"
    );
    rtts.sort_unstable();
    let quantile = |q: f64| rtts[((rtts.len() - 1) as f64 * q) as usize] as f64 / 1e3;
    LightLoad {
        makespan_us: end.as_micros_f64(),
        p50_us: quantile(0.5),
        p999_us: quantile(0.999),
        agg_ratio: cluster.handle(0).metrics().aggregation_ratio(),
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
    fn single_flow_parity_is_close() {
        // With one flow of well-spaced messages there is little to merge:
        // the optimizer must not be drastically worse than legacy.
        let opt = run_cell(EngineKind::optimizing(), 1, 512, 60, 2);
        let leg = run_cell(EngineKind::legacy(), 1, 512, 60, 2);
        assert!(opt.makespan_us < leg.makespan_us * 1.25);
    }
}

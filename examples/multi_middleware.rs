//! The paper's motivating scenario (§1): several middlewares — RPC, DSM
//! and a CORBA-like ORB — stacked on the same pair of nodes, each with its
//! own flows, all mixed by the engine. Runs the workload twice: once on
//! the optimizing engine and once on the legacy per-flow engine, and
//! compares what each middleware experienced.
//!
//! ```text
//! cargo run --release -p madeleine --example multi_middleware
//! ```

use madeleine::harness::{ClusterSpec, EngineKind};
use madware::apps::FlowSpec;
use madware::scenario::traffic_pair;
use simnet::{NodeId, SimDuration, Technology};

/// Calls per middleware.
const CALLS: u64 = 200;
/// Mean gaps between RPC calls, DSM faults and CORBA invocations (µs):
/// sparse arrivals leave the NICs mostly idle, dense ones form backlogs.
const LIGHT: [u64; 3] = [15, 40, 12];
const HEAVY: [u64; 3] = [1, 5, 1];

fn run(kind: EngineKind, gaps_us: [u64; 3], label: &str) {
    let presets = [FlowSpec::rpc, FlowSpec::dsm, FlowSpec::corba];
    let flows = presets
        .iter()
        .zip(gaps_us)
        .map(|(preset, gap)| FlowSpec {
            stop_after: Some(CALLS),
            ..preset(NodeId(1), SimDuration::from_micros(gap))
        })
        .collect();
    let spec = ClusterSpec::new(2, vec![Technology::MyrinetMx]).engine(kind);
    let (mut cluster, clients, servers) = traffic_pair(&spec, flows, 2026);
    let end = cluster.drain();
    let tx = cluster.handle(0).metrics();
    let (c, s) = (clients.borrow(), servers.borrow());

    println!("--- {label}");
    println!("  finished in {end} (virtual)");
    println!(
        "  sender packets: {} for {} messages ({:.1} chunks/packet)",
        tx.packets_sent,
        tx.submitted_msgs,
        tx.aggregation_ratio()
    );
    let (rpc, dsm) = (&c.rtt_us[0], &c.rtt_us[1]);
    let mean = |rtts: &[f64]| rtts.iter().sum::<f64>() / rtts.len() as f64;
    println!(
        "  RPC   : {} calls, mean RTT {:.1}us (max {:.1}us)",
        rpc.len(),
        mean(rpc),
        rpc.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    );
    println!(
        "  DSM   : {} faults, mean page RTT {:.1}us",
        dsm.len(),
        mean(dsm)
    );
    // The servers answered every RPC call and DSM fault; the rest of what
    // they received is the CORBA invocations.
    println!(
        "  CORBA : {} invocations delivered, payloads intact: {}",
        s.received - s.sent,
        s.integrity.all_ok()
    );
    assert_eq!(
        (rpc.len() as u64, dsm.len() as u64),
        (CALLS, CALLS),
        "a request unanswered"
    );
    assert_eq!(s.received, 3 * CALLS);
    for (side, stats) in [("clients", &c), ("servers", &s)] {
        assert!(
            stats.integrity.all_ok(),
            "{side} payload corruption: {:?}",
            stats.integrity.failures
        );
    }
}

fn main() {
    println!("### light load: NICs mostly idle, both engines send as available");
    run(EngineKind::optimizing(), LIGHT, "optimizing engine");
    run(EngineKind::legacy(), LIGHT, "legacy engine");
    println!("\n### heavy load: backlogs form while NICs are busy — the optimizer");
    println!("### mixes eager segments from RPC, DSM and CORBA into shared packets");
    run(EngineKind::optimizing(), HEAVY, "optimizing engine");
    run(EngineKind::legacy(), HEAVY, "legacy engine");
}

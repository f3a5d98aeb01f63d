//! Multi-rail load balancing (§2): one bulk flow over a heterogeneous node
//! with a Myrinet rail *and* a Quadrics rail. The pooled optimizer lets
//! each idle NIC pull the next chunk, so bandwidth aggregates across
//! technologies with shares proportional to rail speed — no ratios are
//! configured anywhere. The legacy one-to-one mapping chains the flow to a
//! single NIC.
//!
//! ```text
//! cargo run --release -p madeleine --example multirail_loadbalance
//! ```

use madeleine::harness::{ClusterSpec, EngineKind};
use madeleine::ids::TrafficClass;
use madeleine::EngineConfig;
use madware::apps::FlowSpec;
use madware::scenario::traffic_pair;
use madware::workload::{Arrival, SizeDist};
use simnet::{NodeId, SimDuration, Technology};

fn run(engine: EngineKind, label: &str) {
    let spec =
        ClusterSpec::new(2, vec![Technology::MyrinetMx, Technology::QuadricsElan]).engine(engine);
    let msgs = 400u64;
    let flow = FlowSpec {
        dst: NodeId(1),
        class: TrafficClass::BULK,
        arrival: Arrival::Periodic(SimDuration::from_micros(4)),
        sizes: SizeDist::Fixed(24 << 10),
        express_header: 0,
        body_frags: SizeDist::Fixed(1),
        reply: None,
        stop_after: Some(msgs),
        start_after: SimDuration::ZERO,
    };
    let (mut cluster, _, rx) = traffic_pair(&spec, "bulk", vec![flow], 1);
    let end = cluster.drain();
    let bytes = msgs * (24 << 10);
    let mbps = bytes as f64 / 1e6 / end.as_secs_f64();
    let mx = cluster.sim.nic(cluster.nics[0][0]).stats.tx_payload_bytes;
    let elan = cluster.sim.nic(cluster.nics[0][1]).stats.tx_payload_bytes;
    assert!(rx.borrow().integrity.all_ok(), "payload corruption");
    println!("--- {label}");
    println!("  {:.0} MB/s aggregate ({} in virtual time)", mbps, end);
    println!(
        "  bytes via Myrinet: {:>9}  ({:.0}%)",
        mx,
        100.0 * mx as f64 / bytes as f64
    );
    println!(
        "  bytes via Quadrics:{:>9}  ({:.0}%)",
        elan,
        100.0 * elan as f64 / bytes as f64
    );
}

fn main() {
    // Rendezvous off: a continuous eager chunk stream shows pure balancing.
    let config = EngineConfig {
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    };
    run(
        EngineKind::with_config(config.clone()),
        "optimizer, pooled rails (work-stealing balance)",
    );
    run(
        EngineKind::Legacy { config },
        "legacy, one-to-one flow->NIC mapping",
    );
    println!("\nThe pooled scheduler discovers the ~250:900 MB/s rail ratio by itself:");
    println!("each rail pulls the next chunk whenever it goes idle.");
}

//! Soak test: a larger, longer, messier run than any single experiment —
//! four nodes, two heterogeneous rails, every middleware class at once,
//! tens of thousands of events — checking the global invariants hold at
//! scale: exact delivery counts, byte-exact payloads, per-flow order, no
//! express violations, no driver rejections, engines fully drained.

use madeleine::harness::{ClusterSpec, EngineKind, NodeHandle};
use madeleine::ids::TrafficClass;
use madware::apps::FlowSpec;
use madware::scenario::traffic;
use madware::workload::{Arrival, SizeDist};
use simnet::{NodeId, SimDuration, Technology};

fn node_workload(me: usize, nodes: usize, msgs: u64) -> Vec<FlowSpec> {
    let mut specs = Vec::new();
    for dst in 0..nodes {
        if dst == me {
            continue;
        }
        // A small control stream, a mixed default stream and a bulk stream
        // toward every peer.
        specs.push(FlowSpec {
            dst: NodeId(dst as u32),
            class: TrafficClass::CONTROL,
            arrival: Arrival::Poisson(SimDuration::from_micros(40)),
            sizes: SizeDist::Fixed(16),
            express_header: 4,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(msgs),
            start_after: SimDuration::ZERO,
        });
        specs.push(FlowSpec {
            dst: NodeId(dst as u32),
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Burst {
                count: 5,
                period: SimDuration::from_micros(60),
            },
            sizes: SizeDist::Bimodal {
                small: 64,
                large: 4096,
                p_large: 0.2,
            },
            express_header: 8,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(msgs),
            start_after: SimDuration::ZERO,
        });
        specs.push(FlowSpec {
            dst: NodeId(dst as u32),
            class: TrafficClass::BULK,
            arrival: Arrival::Periodic(SimDuration::from_micros(120)),
            sizes: SizeDist::Fixed(16 << 10),
            express_header: 0,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(msgs / 2),
            start_after: SimDuration::from_micros(300),
        });
    }
    specs
}

fn soak(engine: EngineKind, msgs: u64) {
    let nodes = 4usize;
    let spec = ClusterSpec::new(nodes, vec![Technology::MyrinetMx, Technology::QuadricsElan])
        .engine(engine);
    let workloads = (0..nodes)
        .map(|me| node_workload(me, nodes, msgs))
        .collect();
    let (mut c, stats) = traffic(&spec, Vec::new(), workloads, 1717);
    c.drain();

    let per_peer = msgs + msgs + msgs / 2; // control + default + bulk
    let expected_rx = per_peer * (nodes as u64 - 1);
    for (i, st) in stats.iter().enumerate() {
        let s = st.borrow();
        assert_eq!(s.sent, expected_rx, "node {i} sent");
        assert_eq!(s.received, expected_rx, "node {i} received");
        assert!(s.integrity.all_ok(), "node {i}: {:?}", s.integrity.failures);
        let m = c.handle(i).metrics();
        assert_eq!(m.driver_rejections, 0, "node {i}");
        assert_eq!(m.proto_errors, 0, "node {i}");
        assert_eq!(
            c.handle(i).receiver_stats().express_violations,
            0,
            "node {i}"
        );
        assert_eq!(c.handle(i).backlog_bytes(), 0, "node {i} drained");
        if let NodeHandle::Opt(h) = c.handle(i) {
            assert!(h.is_drained(), "node {i} engine drained");
        }
    }
    // Cross-check: simulator-level conservation — every transmitted packet
    // was received somewhere (lossless fabrics).
    let tx: u64 = (0..nodes)
        .flat_map(|n| c.nics[n].iter())
        .map(|&nic| c.sim.nic(nic).stats.tx_packets)
        .sum();
    let rx: u64 = (0..nodes)
        .flat_map(|n| c.nics[n].iter())
        .map(|&nic| c.sim.nic(nic).stats.rx_packets)
        .sum();
    assert_eq!(tx, rx, "packet conservation");
}

#[test]
fn soak_optimizing_engine() {
    soak(EngineKind::optimizing(), 60);
}

#[test]
fn soak_legacy_engine() {
    soak(EngineKind::legacy(), 60);
}

#[test]
fn soak_adaptive_policy_with_nagle() {
    let config = madeleine::EngineConfig {
        nagle_delay: SimDuration::from_micros(3),
        ..madeleine::EngineConfig::default()
    };
    soak(
        EngineKind::with_policy(config, madeleine::PolicyKind::Adaptive),
        40,
    );
}

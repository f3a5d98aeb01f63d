//! Integration: traffic classes, channel assignment and policy dynamics
//! (§2 of the paper).

use madeleine::harness::{Cluster, ClusterSpec, EngineKind, NodeHandle};
use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use madeleine::{EngineConfig, PolicyKind};
use madware::pattern;
use simnet::Technology;

fn two_rail_cluster(policy: PolicyKind) -> Cluster {
    let config = EngineConfig {
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    };
    Cluster::build(
        &ClusterSpec::new(2, vec![Technology::MyrinetMx; 2])
            .engine(EngineKind::with_policy(config, policy)),
        vec![],
    )
}

#[test]
fn control_class_rides_its_own_vchan() {
    let mut c = two_rail_cluster(PolicyKind::Pooled);
    let h = c.handle(0).clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let bulk = h.open_flow(dst, TrafficClass::BULK);
    let ctrl = h.open_flow(dst, TrafficClass::CONTROL);
    c.sim.inject(src, |ctx| {
        for i in 0..20u32 {
            h.send(
                ctx,
                bulk,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(bulk.0, i, 0, 4096))
                    .build_parts(),
            );
            h.send(
                ctx,
                ctrl,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(ctrl.0, i, 0, 16))
                    .build_parts(),
            );
        }
    });
    c.drain();
    let stats = c.handle(1).receiver_stats();
    // Packets arrived on at least two distinct data channels (plus maybe
    // the control channel for library traffic).
    let used: Vec<usize> = stats
        .per_vchan_packets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, _)| i)
        .collect();
    assert!(used.len() >= 2, "expected class separation, got {used:?}");
}

#[test]
fn class_pinning_keeps_traffic_on_assigned_rails() {
    let mut c = two_rail_cluster(PolicyKind::ClassPinned);
    let h = c.handle(0).clone();
    let NodeHandle::Opt(oh) = h.clone() else {
        unreachable!()
    };
    oh.pin_class(TrafficClass::CONTROL, &[0]);
    oh.pin_class(TrafficClass::BULK, &[1]);
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let bulk = h.open_flow(dst, TrafficClass::BULK);
    let ctrl = h.open_flow(dst, TrafficClass::CONTROL);
    c.sim.inject(src, |ctx| {
        for i in 0..30u32 {
            h.send(
                ctx,
                bulk,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(bulk.0, i, 0, 8192))
                    .build_parts(),
            );
            h.send(
                ctx,
                ctrl,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(ctrl.0, i, 0, 16))
                    .build_parts(),
            );
        }
    });
    c.drain();
    // Rail 0 carried only the tiny control messages; rail 1 the bulk.
    let r0 = c.sim.nic(c.nics[0][0]).stats.tx_payload_bytes;
    let r1 = c.sim.nic(c.nics[0][1]).stats.tx_payload_bytes;
    assert!(
        r0 < 10_000,
        "rail 0 carried {r0} bytes (control only expected)"
    );
    assert!(r1 > 200_000, "rail 1 carried {r1} bytes (bulk expected)");
    assert_eq!(c.handle(1).delivered_count(), 60);
}

#[test]
fn class_vchan_reassignment_at_runtime() {
    let mut c = two_rail_cluster(PolicyKind::Pooled);
    let h = c.handle(0).clone();
    let NodeHandle::Opt(oh) = h.clone() else {
        unreachable!()
    };
    // Move BULK onto an unusual channel on rail 0.
    assert!(oh.set_class_vchan(0, TrafficClass::BULK, 5));
    // Reject invalid reassignments.
    assert!(
        !oh.set_class_vchan(0, TrafficClass::BULK, 0),
        "control channel reserved"
    );
    assert!(
        !oh.set_class_vchan(0, TrafficClass::BULK, 200),
        "out of range"
    );
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    // Pin bulk to rail 0 via the policy so the assignment is observable.
    oh.switch_policy(PolicyKind::ClassPinned);
    oh.pin_class(TrafficClass::BULK, &[0]);
    let bulk = h.open_flow(dst, TrafficClass::BULK);
    c.sim.inject(src, |ctx| {
        for i in 0..10u32 {
            h.send(
                ctx,
                bulk,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(bulk.0, i, 0, 1024))
                    .build_parts(),
            );
        }
    });
    c.drain();
    let stats = c.handle(1).receiver_stats();
    assert!(stats.per_vchan_packets.len() > 5);
    assert!(
        stats.per_vchan_packets[5] > 0,
        "{:?}",
        stats.per_vchan_packets
    );
}

#[test]
fn adaptive_policy_rebalances_under_shifting_load() {
    let config = EngineConfig {
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    };
    let mut c = Cluster::build(
        &ClusterSpec::new(2, vec![Technology::MyrinetMx; 3])
            .engine(EngineKind::with_policy(config, PolicyKind::Adaptive)),
        vec![],
    );
    let h = c.handle(0).clone();
    let NodeHandle::Opt(oh) = h.clone() else {
        unreachable!()
    };
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let bulk = h.open_flow(dst, TrafficClass::BULK);
    c.sim.inject(src, |ctx| {
        for i in 0..100u32 {
            h.send(
                ctx,
                bulk,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(bulk.0, i, 0, 16 << 10))
                    .build_parts(),
            );
        }
    });
    c.drain();
    assert!(oh.rebalances() > 0, "adaptive policy must have rebalanced");
    assert_eq!(c.handle(1).delivered_count(), 100);
}

#[test]
fn urgency_lets_aged_control_jump_bulk_queues() {
    // Single rail, saturating bulk + one control message submitted into
    // the middle of the backlog: the control message must not be delivered
    // last.
    let config = EngineConfig {
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    };
    let mut c = Cluster::build(&ClusterSpec::mx_pair().config(config), vec![]);
    let h = c.handle(0).clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let bulk = h.open_flow(dst, TrafficClass::BULK);
    let ctrl = h.open_flow(dst, TrafficClass::CONTROL);
    c.sim.inject(src, |ctx| {
        for i in 0..40u32 {
            h.send(
                ctx,
                bulk,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(bulk.0, i, 0, 16 << 10))
                    .build_parts(),
            );
            if i == 20 {
                h.send(
                    ctx,
                    ctrl,
                    MessageBuilder::new()
                        .pack_cheaper(&pattern(ctrl.0, 0, 0, 16))
                        .build_parts(),
                );
            }
        }
    });
    c.drain();
    let got = c.handle(1).take_delivered();
    let pos = got
        .iter()
        .position(|m| m.flow == ctrl)
        .expect("control delivered");
    assert!(
        pos < got.len() - 5,
        "control delivered at {pos} of {}",
        got.len()
    );
}

//! Integration: multi-rail scheduling — load balancing, heterogeneity,
//! policy effects, and correctness of chunk reassembly across rails.

use madeleine::harness::{Cluster, ClusterSpec, EngineKind, NodeHandle};
use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use madeleine::{EngineConfig, PolicyKind};
use madware::pattern;
use simnet::Technology;

fn bulk_spec(engine: EngineKind, rails: Vec<Technology>) -> ClusterSpec {
    ClusterSpec::new(2, rails).engine(engine)
}

fn eager_cfg() -> EngineConfig {
    EngineConfig {
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    }
}

/// Stream a single large logical transfer; return (makespan ns, per-rail bytes).
fn stream(engine: EngineKind, rails: Vec<Technology>, msgs: u32) -> (u64, Vec<u64>, Cluster) {
    let mut c = Cluster::build(&bulk_spec(engine, rails), vec![]);
    let h = c.handle(0).clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let f = h.open_flow(dst, TrafficClass::BULK);
    c.sim.inject(src, |ctx| {
        for i in 0..msgs {
            h.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f.0, i, 0, 24 << 10))
                    .build_parts(),
            );
        }
    });
    let end = c.drain();
    let bytes = c.nics[0]
        .iter()
        .map(|&n| c.sim.nic(n).stats.tx_payload_bytes)
        .collect();
    (end.as_nanos(), bytes, c)
}

#[test]
fn two_rails_nearly_double_throughput() {
    let opt1 = EngineKind::with_config(eager_cfg());
    let opt2 = opt1.clone();
    let (t1, _, c1) = stream(opt1, vec![Technology::MyrinetMx], 60);
    let (t2, bytes, c2) = stream(opt2, vec![Technology::MyrinetMx; 2], 60);
    assert!(t2 * 18 < t1 * 10, "2 rails {t2}ns vs 1 rail {t1}ns");
    assert!(
        bytes[0] > 0 && bytes[1] > 0,
        "both rails carried data: {bytes:?}"
    );
    // Shares are roughly even on identical rails.
    let ratio = bytes[0] as f64 / bytes[1] as f64;
    assert!((0.6..1.7).contains(&ratio), "share ratio {ratio}");
    // Everything delivered intact.
    for c in [&c1, &c2] {
        let got = c.handle(1).take_delivered();
        assert_eq!(got.len(), 60);
        for m in &got {
            assert_eq!(m.contiguous(), pattern(m.flow.0, m.id.seq.0, 0, 24 << 10));
        }
    }
}

#[test]
fn heterogeneous_rails_split_by_speed() {
    let opt = EngineKind::with_config(eager_cfg());
    let (_, bytes, c) = stream(
        opt,
        vec![Technology::MyrinetMx, Technology::QuadricsElan],
        80,
    );
    let (mx, elan) = (bytes[0], bytes[1]);
    assert!(mx > 0 && elan > 0);
    assert!(elan as f64 > 1.5 * mx as f64, "elan {elan} vs mx {mx}");
    assert_eq!(c.handle(1).delivered_count(), 80);
}

#[test]
fn one_to_one_policy_reproduces_legacy_mapping() {
    let opt = EngineKind::with_policy(eager_cfg(), PolicyKind::OneToOne);
    let (_, bytes, c) = stream(opt, vec![Technology::MyrinetMx; 2], 40);
    // Single flow -> pinned to rail (flow 0 % 2 == 0).
    assert!(bytes[0] > 0);
    assert_eq!(bytes[1], 0, "one-to-one must not spill to the second rail");
    assert_eq!(c.handle(1).delivered_count(), 40);
}

#[test]
fn express_messages_stay_on_one_rail_until_resolved() {
    // Messages with express headers are pinned while the header is in
    // flight; the body may then split. Correctness: delivery intact and no
    // express violations on the receiver.
    let opt = EngineKind::with_config(eager_cfg());
    let mut c = Cluster::build(
        &bulk_spec(opt, vec![Technology::MyrinetMx, Technology::MyrinetMx]),
        vec![],
    );
    let h = c.handle(0).clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let f = h.open_flow(dst, TrafficClass::DEFAULT);
    c.sim.inject(src, |ctx| {
        for i in 0..30u32 {
            h.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_express(&i.to_le_bytes())
                    .pack_cheaper(&pattern(f.0, i, 1, 8 << 10))
                    .build_parts(),
            );
        }
    });
    c.drain();
    let got = c.handle(1).take_delivered();
    assert_eq!(got.len(), 30);
    for m in &got {
        assert_eq!(
            &m.fragments[1].1[..],
            &pattern(m.flow.0, m.id.seq.0, 1, 8 << 10)[..]
        );
    }
}

#[test]
fn runtime_policy_switch_takes_effect() {
    let opt = EngineKind::with_config(eager_cfg());
    let mut c = Cluster::build(&bulk_spec(opt, vec![Technology::MyrinetMx; 2]), vec![]);
    let h = c.handle(0).clone();
    let NodeHandle::Opt(oh) = h.clone() else {
        unreachable!()
    };
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let f = h.open_flow(dst, TrafficClass::BULK);
    // Phase 1: pooled, both rails used.
    c.sim.inject(src, |ctx| {
        for i in 0..20u32 {
            h.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f.0, i, 0, 24 << 10))
                    .build_parts(),
            );
        }
    });
    c.drain();
    let phase1: Vec<u64> = c.nics[0]
        .iter()
        .map(|&n| c.sim.nic(n).stats.tx_payload_bytes)
        .collect();
    assert!(phase1[1] > 0);
    // Switch to one-to-one at runtime (§2: select different policies).
    oh.switch_policy(PolicyKind::OneToOne);
    c.sim.inject(src, |ctx| {
        for i in 20..40u32 {
            h.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f.0, i, 0, 24 << 10))
                    .build_parts(),
            );
        }
    });
    c.drain();
    let phase2: Vec<u64> = c.nics[0]
        .iter()
        .map(|&n| c.sim.nic(n).stats.tx_payload_bytes)
        .collect();
    assert_eq!(
        phase2[1], phase1[1],
        "rail 1 idle after switching to one-to-one"
    );
    assert!(phase2[0] > phase1[0]);
    assert_eq!(c.handle(1).delivered_count(), 40);
}

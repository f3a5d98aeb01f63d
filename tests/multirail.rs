//! Integration: multi-rail scheduling — load balancing, heterogeneity,
//! policy effects, and correctness of chunk reassembly across rails.

use madeleine::harness::{Cluster, ClusterSpec, EngineKind, NodeHandle};
use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use madeleine::plan::PlannedChunk;
use madeleine::strategy::{OptContext, Proposals, Strategy};
use madeleine::{ChannelId, EngineConfig, FlowId, MadEngine, PolicyKind, ReliabilityMode};
use madware::pattern;
use simnet::{
    FaultPlan, NetworkParams, NicId, NodeId, SimDuration, SimTime, Simulation, Technology, TxMode,
};

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
fn a_lone_message_leaves_on_the_fastest_idle_rail() {
    // MX (rail 0, 3.3 us one way at 64 B) and Elan (rail 1, 1.6 us), both
    // idle: index order would put every lone message on MX.
    let config = EngineConfig {
        reliability: ReliabilityMode::Recover,
        ..EngineConfig::default()
    };
    let rails = vec![Technology::MyrinetMx, Technology::QuadricsElan];
    let mut c = Cluster::build(&ClusterSpec::new(2, rails).config(config), vec![]);
    let h = c.handle(0).opt().expect("optimizing engine").clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let f = h.open_flow(dst, TrafficClass::DEFAULT);
    let lone = |c: &mut Cluster, i: u32| {
        let before: Vec<u64> = c.nics[0]
            .iter()
            .map(|&n| c.sim.nic(n).stats.tx_payload_bytes)
            .collect();
        c.sim.inject(src, |ctx| {
            let body = pattern(f.0, i, 0, 64);
            h.send(
                ctx,
                f,
                MessageBuilder::new().pack_cheaper(&body).build_parts(),
            );
        });
        c.run_for(SimDuration::from_micros(10));
        let grew = |r: usize| c.sim.nic(c.nics[0][r]).stats.tx_payload_bytes > before[r] + 64;
        (grew(0), grew(1))
    };
    assert_eq!(lone(&mut c, 0), (false, true), "Elan is asked first");
    // Elan starts losing everything. The next message still leaves on it
    // and times out again and again, each timeout denting Elan's health;
    // once its cost penalty exceeds the latency ratio (2.1: four timeouts
    // in a row), a lone message leaves on MX — long before Elan's retry
    // budget is spent and the rail declared dead.
    c.set_fault_plan(1, FaultPlan::new(1).with_loss(1.0));
    assert_eq!(lone(&mut c, 1), (false, true), "still the faster rail");
    c.run_for(SimDuration::from_micros(900));
    let m = h.metrics();
    assert!(
        m.timeouts >= 4 && m.rails_dead == 0,
        "{} timeouts",
        m.timeouts
    );
    assert_eq!(lone(&mut c, 2), (true, false), "degraded past the ratio");
    c.drain();
    assert_eq!(c.handle(1).delivered_count(), 3);
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

/// Proposes the body of message 0 of flow 0 for rail 0, whatever rail is
/// being scheduled.
struct WrongRail;

impl Strategy for WrongRail {
    fn name(&self) -> &'static str {
        "wrong-rail"
    }
    fn propose(&self, _: &OptContext<'_>, out: &mut Proposals) {
        let body = PlannedChunk {
            flow: FlowId(0),
            seq: 0,
            frag: 1,
            offset: 0,
            len: 64,
        };
        out.push_data(ChannelId(0), NodeId(1), &[body], self.name());
    }
}

#[test]
fn a_plan_naming_another_rail_cannot_overtake_an_express_header() {
    // Rail 0 is slow and takes one packet at a time; rail 1 is fast, is
    // asked first, and is kept busy by a filler when the CONTROL message
    // comes. Nothing merges chunks (no `aggregate`, no `reorder`: one
    // chunk per packet), so its express header leaves alone on
    // rail 0 and fills it: the message is pinned there with its body
    // still to send. The third flow's message finds no idle rail; when
    // rail 1 falls idle its window rightly hides the pinned body — and
    // `WrongRail` proposes it "for rail 0". Sent from there it would
    // reach the peer long before its header.
    let mut sim = Simulation::new();
    let slow = sim.add_network(NetworkParams {
        tx_queue_depth: 1,
        ..nicdrv::calib::params(Technology::TcpEthernet)
    });
    let fast = sim.add_network(nicdrv::calib::params(Technology::MyrinetMx));
    let (a, b) = (sim.add_node(), sim.add_node());
    let nics_a = vec![sim.add_nic(a, slow), sim.add_nic(a, fast)];
    let nics_b = vec![sim.add_nic(b, slow), sim.add_nic(b, fast)];
    let build = |node, nics: &[NicId], peer, peer_nics: &[NicId]| {
        MadEngine::builder(node)
            .config(EngineConfig {
                enable_aggregation: false,
                enable_reorder: false,
                ..eager_cfg()
            })
            .rail_tech(Technology::TcpEthernet, nics[0])
            .rail_tech(Technology::MyrinetMx, nics[1])
            .peer(peer, peer_nics.to_vec())
            .strategy(Box::new(WrongRail))
            .build()
            .unwrap()
    };
    let (ea, ha) = build(a, &nics_a, b, &nics_b);
    let (eb, hb) = build(b, &nics_b, a, &nics_a);
    sim.set_endpoint(a, Box::new(ea));
    sim.set_endpoint(b, Box::new(eb));
    let pinned = ha.open_flow(b, TrafficClass::CONTROL);
    let other = ha.open_flow(b, TrafficClass::DEFAULT);
    let filler = ha.open_flow(b, TrafficClass::BULK);
    assert_eq!((pinned, b), (FlowId(0), NodeId(1)));
    sim.inject(a, |ctx| {
        let parts = MessageBuilder::new()
            .pack_cheaper(&pattern(2, 0, 0, 256))
            .build_parts();
        ha.send(ctx, filler, parts);
        let parts = MessageBuilder::new()
            .pack_express(&pattern(0, 0, 0, 16))
            .pack_cheaper(&pattern(0, 0, 1, 64))
            .build_parts();
        ha.send(ctx, pinned, parts);
        let parts = MessageBuilder::new()
            .pack_cheaper(&pattern(1, 0, 0, 8))
            .build_parts();
        ha.send(ctx, other, parts);
    });
    sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
    let m = ha.metrics();
    assert_eq!(
        m.strategy_wins.get("wrong-rail"),
        None,
        "{:?}",
        m.strategy_wins
    );
    // The body followed its header: rail 1 carried the filler and the
    // small message only.
    assert_eq!(sim.nic(nics_a[1]).stats.tx_packets, 2);
    assert_eq!(sim.nic(nics_a[0]).stats.tx_packets, 2);
    assert_eq!(hb.metrics().express_violations, 0);
    let mut got = hb.take_delivered();
    got.sort_by_key(|m| m.flow);
    assert_eq!(got.len(), 3, "each message delivered exactly once");
    assert_eq!(got[0].fragments[0].1[..], pattern(0, 0, 0, 16)[..]);
    assert_eq!(got[0].fragments[1].1[..], pattern(0, 0, 1, 64)[..]);
    assert_eq!(got[1].contiguous(), pattern(1, 0, 0, 8));
}

/// Send one eager message of `len` bytes on `f` from node 0, now.
fn send_now(c: &mut Cluster, f: FlowId, i: u32, len: usize) {
    let h = c.handle(0).clone();
    c.sim.inject(c.nodes[0], |ctx| {
        let parts = MessageBuilder::new()
            .pack_cheaper(&pattern(f.0, i, 0, len))
            .build_parts();
        h.send(ctx, f, parts);
    });
}

/// Payload bytes each rail of node 0 has put on the wire.
fn rail_bytes(c: &Cluster) -> Vec<u64> {
    c.nics[0]
        .iter()
        .map(|&n| c.sim.nic(n).stats.tx_payload_bytes)
        .collect()
}

#[test]
fn a_slow_idle_rail_leaves_a_message_to_a_faster_busy_one() {
    // MX (rail 0) and Elan (rail 1). Elan, the faster at 16 KiB, takes the
    // first message; the second comes while Elan carries it. MX is idle,
    // but Elan delivers the second message after the first sooner than MX
    // would deliver it alone: MX stands aside.
    let rails = vec![Technology::MyrinetMx, Technology::QuadricsElan];
    let mut c = Cluster::build(&ClusterSpec::new(2, rails).config(eager_cfg()), vec![]);
    let h = c.handle(0).opt().expect("optimizing engine").clone();
    let f = h.open_flow(c.nodes[1], TrafficClass::DEFAULT);
    send_now(&mut c, f, 0, 16 << 10);
    let sent_at = c.run_for(SimDuration::from_micros(2));
    send_now(&mut c, f, 1, 16 << 10);
    c.drain();
    assert_eq!(rail_bytes(&c)[0], 0, "MX carried nothing");
    assert!(h.metrics().rail_yields >= 1);
    let got = c.handle(1).take_delivered();
    assert_eq!(got.len(), 2);
    let second = got.iter().find(|m| m.id.seq.0 == 1).expect("delivered");
    assert_eq!(second.contiguous(), pattern(f.0, 1, 0, 16 << 10));
    // MX alone: its injection, flight and receive of the whole message.
    let mx = nicdrv::CostModel::from_params(&nicdrv::calib::params(Technology::MyrinetMx));
    let alone = mx.one_way(TxMode::Dma, 16 << 10, 1);
    assert!(
        second.delivered_at < sent_at + alone,
        "delivered at {:?}, MX would have by {:?}",
        second.delivered_at,
        sent_at + alone
    );
}

#[test]
fn a_flow_pinned_to_the_slow_rail_is_never_left_to_another() {
    // The same two messages, the second of a BULK flow the policy confines
    // to MX: Elan is busy and faster, but may not carry it.
    let rails = vec![Technology::MyrinetMx, Technology::QuadricsElan];
    let opt = EngineKind::with_policy(eager_cfg(), PolicyKind::ClassPinned);
    let mut c = Cluster::build(&ClusterSpec::new(2, rails).engine(opt), vec![]);
    let h = c.handle(0).opt().expect("optimizing engine").clone();
    h.pin_class(TrafficClass::BULK, &[0]);
    let fast = h.open_flow(c.nodes[1], TrafficClass::DEFAULT);
    let pinned = h.open_flow(c.nodes[1], TrafficClass::BULK);
    send_now(&mut c, fast, 0, 16 << 10);
    c.run_for(SimDuration::from_micros(2));
    send_now(&mut c, pinned, 0, 16 << 10);
    c.drain();
    assert!(rail_bytes(&c)[0] >= 16 << 10, "MX carried the pinned flow");
    assert_eq!(h.metrics().rail_yields, 0);
    assert_eq!(c.handle(1).delivered_count(), 2);
}

#[test]
fn a_rail_killed_under_a_yielded_backlog_leaves_it_to_the_survivor() {
    // 16 KiB every 10 us: Elan carries one in 19 us, so a backlog builds
    // that MX first leaves to Elan and then shares. Elan dies at 300 us
    // with messages in flight and waiting; under `Recover` MX carries the
    // rest and every message arrives, once.
    let config = EngineConfig {
        reliability: ReliabilityMode::Recover,
        ..eager_cfg()
    };
    let rails = vec![Technology::MyrinetMx, Technology::QuadricsElan];
    let mut c = Cluster::build(&ClusterSpec::new(2, rails).config(config), vec![]);
    let h = c.handle(0).opt().expect("optimizing engine").clone();
    let f = h.open_flow(c.nodes[1], TrafficClass::DEFAULT);
    c.set_fault_plan(
        1,
        FaultPlan::new(1).with_death(SimTime::from_nanos(300_000)),
    );
    let n = 60;
    for i in 0..n {
        send_now(&mut c, f, i, 16 << 10);
        c.run_for(SimDuration::from_micros(10));
    }
    c.drain();
    let m = h.metrics();
    assert!(m.rail_yields > 0, "MX stood aside before the death");
    assert_eq!((m.rails_dead, m.lost_msgs), (1, 0));
    assert!(rail_bytes(&c)[0] > 0);
    let got = c.handle(1).take_delivered();
    assert_eq!(got.len(), n as usize);
    for m in &got {
        assert_eq!(m.contiguous(), pattern(f.0, m.id.seq.0, 0, 16 << 10));
    }
    let seqs: Vec<u32> = got.iter().map(|m| m.id.seq.0).collect();
    assert_eq!(seqs, (0..n).collect::<Vec<_>>(), "in order, once each");
}

#[test]
fn every_two_rail_cell_passes_the_safety_oracles() {
    // MX+Elan, Elan+MX and MX+TCP × Off / Recover × a clean and a lossy
    // wire × a light and a loaded stream, 400 messages a cell.
    let cells = madware::cells::Cell::sweep(400, 11);
    assert_eq!(cells.len(), 24);
    let failed: Vec<_> = cells
        .iter()
        .map(|cell| cell.run())
        .filter(|out| !out.violations.is_empty())
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}

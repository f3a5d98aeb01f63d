//! Integration: engine API contract — flush, send-completion callbacks,
//! drain queries, robustness against rogue user strategies, and incast.

use madeleine::api::{AppDriver, CommApi};
use madeleine::harness::{Cluster, ClusterSpec, NodeHandle};
use madeleine::ids::{FlowId, MsgId, TrafficClass};
use madeleine::message::MessageBuilder;
use madeleine::plan::PlannedChunk;
use madeleine::strategy::{OptContext, Proposals, Strategy};
use madeleine::{EngineConfig, MadEngine};
use madware::pattern;
use simnet::{NodeId, SimDuration, SimTime, Technology};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn flush_overrides_nagle_delay() {
    struct FlushApp {
        flow: Option<FlowId>,
        dst: NodeId,
    }
    impl AppDriver for FlushApp {
        fn on_start(&mut self, api: &mut dyn CommApi) {
            let f = api.open_flow(self.dst, TrafficClass::DEFAULT);
            self.flow = Some(f);
            api.send(
                f,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f.0, 0, 0, 32))
                    .build_parts(),
            );
            // Nagle would hold this for 500µs; flush pushes it now.
            api.flush();
        }
    }
    let config = EngineConfig::default().with_nagle(SimDuration::from_micros(500));
    let spec = ClusterSpec::mx_pair().config(config);
    let mut c = Cluster::build(
        &spec,
        vec![
            Some(Box::new(FlushApp {
                flow: None,
                dst: NodeId(1),
            })),
            None,
        ],
    );
    let end = c.drain();
    assert_eq!(c.handle(1).delivered_count(), 1);
    // Delivered in microseconds, not after the 500µs Nagle window.
    assert!(
        end.as_nanos() < 100_000,
        "flush did not bypass Nagle: {end}"
    );
}

#[test]
fn on_sent_fires_once_per_message_after_transmission() {
    struct SentApp {
        dst: NodeId,
        sent_ids: Rc<RefCell<Vec<MsgId>>>,
        submitted: Rc<RefCell<Vec<MsgId>>>,
    }
    impl AppDriver for SentApp {
        fn on_start(&mut self, api: &mut dyn CommApi) {
            let f = api.open_flow(self.dst, TrafficClass::DEFAULT);
            for i in 0..10u32 {
                let id = api.send(
                    f,
                    MessageBuilder::new()
                        .pack_cheaper(&pattern(f.0, i, 0, 2048))
                        .build_parts(),
                );
                self.submitted.borrow_mut().push(id);
            }
        }
        fn on_sent(&mut self, _api: &mut dyn CommApi, msg: MsgId) {
            self.sent_ids.borrow_mut().push(msg);
        }
    }
    let sent = Rc::new(RefCell::new(Vec::new()));
    let submitted = Rc::new(RefCell::new(Vec::new()));
    let spec = ClusterSpec::mx_pair();
    let mut c = Cluster::build(
        &spec,
        vec![
            Some(Box::new(SentApp {
                dst: NodeId(1),
                sent_ids: sent.clone(),
                submitted: submitted.clone(),
            })),
            None,
        ],
    );
    c.drain();
    let mut sent = sent.borrow().clone();
    let mut submitted = submitted.borrow().clone();
    sent.sort();
    submitted.sort();
    assert_eq!(sent, submitted, "every message completes exactly once");
}

#[test]
fn is_drained_tracks_engine_state() {
    let spec = ClusterSpec::mx_pair();
    let mut c = Cluster::build(&spec, vec![]);
    let NodeHandle::Opt(h) = c.handle(0).clone() else {
        unreachable!()
    };
    assert!(h.is_drained());
    let f = h.open_flow(c.nodes[1], TrafficClass::DEFAULT);
    let src = c.nodes[0];
    c.sim.inject(src, |ctx| {
        for i in 0..20u32 {
            h.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f.0, i, 0, 4096))
                    .build_parts(),
            );
        }
    });
    assert!(!h.is_drained(), "work in flight");
    c.drain();
    assert!(h.is_drained());
}

/// A hostile strategy: proposes plans that violate every rule it can.
struct RogueStrategy;
impl Strategy for RogueStrategy {
    fn name(&self) -> &'static str {
        "rogue"
    }
    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        for g in ctx.groups {
            for c in &g.candidates {
                let honest = PlannedChunk {
                    flow: c.flow,
                    seq: c.seq,
                    frag: c.frag,
                    offset: c.offset,
                    len: c.remaining,
                };
                let rogue = [
                    // Wrong offset (skips bytes).
                    PlannedChunk {
                        offset: c.offset + 1,
                        len: c.remaining.saturating_sub(1).max(1),
                        ..honest
                    },
                    // Unknown message.
                    PlannedChunk {
                        flow: FlowId(9999),
                        seq: 12345,
                        frag: 0,
                        offset: 0,
                        len: 64,
                    },
                    // Oversized packet.
                    PlannedChunk {
                        len: u32::MAX / 2,
                        ..honest
                    },
                ];
                for chunk in rogue {
                    out.push_data(ctx.channel, g.dst, &[chunk], "rogue");
                }
            }
        }
    }
}

#[test]
fn rogue_user_strategy_cannot_corrupt_traffic() {
    // Build the cluster manually so we can register the rogue strategy.
    let mut sim = simnet::Simulation::new();
    let net = sim.add_network(nicdrv::calib::params(Technology::MyrinetMx));
    let a = sim.add_node();
    let b = sim.add_node();
    let na = sim.add_nic(a, net);
    let nb = sim.add_nic(b, net);
    let build = |node, nic, peer, peer_nic: simnet::NicId, rogue: bool| {
        let mut bld = MadEngine::builder(node)
            .rail_tech(Technology::MyrinetMx, nic)
            .peer(peer, vec![peer_nic]);
        if rogue {
            bld = bld.strategy(Box::new(RogueStrategy));
        }
        bld.build().unwrap()
    };
    let (ea, ha) = build(a, na, b, nb, true);
    let (eb, hb) = build(b, nb, a, na, false);
    sim.set_endpoint(a, Box::new(ea));
    sim.set_endpoint(b, Box::new(eb));
    let f = ha.open_flow(b, TrafficClass::DEFAULT);
    sim.inject(a, |ctx| {
        for i in 0..50u32 {
            ha.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f.0, i, 0, 300))
                    .build_parts(),
            );
        }
    });
    sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
    // All rogue proposals were rejected by validation; traffic is intact.
    assert_eq!(hb.delivered_count(), 50);
    for m in hb.take_delivered() {
        assert_eq!(m.contiguous(), pattern(m.flow.0, m.id.seq.0, 0, 300));
    }
    assert_eq!(ha.metrics().driver_rejections, 0);
}

#[test]
fn debug_report_and_strategy_wins_reflect_activity() {
    let spec = ClusterSpec::mx_pair();
    let mut c = Cluster::build(&spec, vec![]);
    let NodeHandle::Opt(h) = c.handle(0).clone() else {
        unreachable!()
    };
    let f = h.open_flow(c.nodes[1], TrafficClass::DEFAULT);
    let src = c.nodes[0];
    c.sim.inject(src, |ctx| {
        for i in 0..30u32 {
            h.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f.0, i, 0, 64))
                    .build_parts(),
            );
        }
    });
    c.drain();
    let report = h.debug_report();
    assert!(report.contains("\nengine/submitted_msgs 30\n"), "{report}");
    assert!(report.contains("\nengine/strategy_wins/"), "{report}");
    let m = h.metrics();
    let total_wins: u64 = m.strategy_wins.values().sum();
    assert_eq!(total_wins, m.plans_submitted);
    // The aggregation strategy family must have won at least once on a
    // 30-message burst.
    let agg_wins: u64 = m
        .strategy_wins
        .iter()
        .filter(|(k, _)| k.starts_with("aggregate"))
        .map(|(_, v)| *v)
        .sum();
    assert!(agg_wins > 0, "{:?}", m.strategy_wins);
}

#[test]
fn incast_many_senders_one_receiver() {
    // 7 senders blast one receiver simultaneously: the receiver's rx engine
    // serializes, nothing is lost, per-flow order holds.
    let spec = ClusterSpec::new(8, vec![Technology::MyrinetMx]);
    let mut c = Cluster::build(&spec, vec![]);
    let sink = c.nodes[0];
    let handles: Vec<_> = (1..8).map(|i| c.handle(i).clone()).collect();
    let mut flows = Vec::new();
    for (i, h) in handles.iter().enumerate() {
        let f = h.open_flow(sink, TrafficClass::DEFAULT);
        let src = c.nodes[i + 1];
        c.sim.inject(src, |ctx| {
            for k in 0..40u32 {
                h.send(
                    ctx,
                    f,
                    MessageBuilder::new()
                        .pack_cheaper(&pattern(f.0, k, 0, 512))
                        .build_parts(),
                );
            }
        });
        flows.push(f);
    }
    c.drain();
    assert_eq!(c.handle(0).delivered_count(), 7 * 40);
    let got = c.handle(0).take_delivered();
    // Per (src, flow) order strictly increasing.
    for src_idx in 1..8u32 {
        let seqs: Vec<u32> = got
            .iter()
            .filter(|m| m.src == NodeId(src_idx))
            .map(|m| m.id.seq.0)
            .collect();
        assert_eq!(seqs.len(), 40);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "src {src_idx}");
    }
    assert_eq!(c.handle(0).receiver_stats().express_violations, 0);
}

#[test]
fn per_flow_latency_keeps_each_sender_apart() {
    // Flow ids are per sender: nodes 1 and 2 each open their flow 0 toward
    // node 0, whose per-flow histograms must not pool the two.
    const N: u32 = 25;
    let spec = ClusterSpec::new(3, vec![Technology::MyrinetMx]);
    let mut c = Cluster::build(&spec, vec![]);
    let sink = c.nodes[0];
    for i in 1..3 {
        let h = c.handle(i).clone();
        let f = h.open_flow(sink, TrafficClass::DEFAULT);
        assert_eq!(f, FlowId(0));
        c.sim.inject(c.nodes[i], |ctx| {
            for k in 0..N {
                let parts = MessageBuilder::new()
                    .pack_cheaper(&pattern(f.0, k, 0, 256))
                    .build_parts();
                h.send(ctx, f, parts);
            }
        });
    }
    c.drain();
    let m = c.handle(0).metrics();
    let counts: Vec<u64> = m.latency_by_flow.values().map(|h| h.count()).collect();
    assert_eq!(counts, [u64::from(N); 2]);
    let per_flow = m.to_json();
    let per_flow = per_flow
        .get("latency_by_flow_us")
        .expect("per-flow section");
    for key in ["node1_flow0", "node2_flow0"] {
        assert!(per_flow.get(key).is_some(), "{key}");
    }
}

#[test]
fn a_pio_only_rail_cuts_its_chunks_to_what_it_can_stream() {
    // A driver that cannot DMA and streams at most 4 KiB by PIO, on a wire
    // and with a request ceiling far above that — a capability set
    // `validate()` accepts. The rail's packet limit is the PIO cap: an
    // 8 KiB message leaves in pieces PIO takes. (Were the limit the
    // smaller of wire MTU and driver ceiling alone, the strategies would
    // fill one 8 KiB packet and the driver refuse it: `PioTooLarge`.)
    use madeleine::EngineBuilder;
    use nicdrv::{calib, CostModel, SimDriver};
    use simnet::{NetworkParams, NicId, Simulation};

    let mut caps = calib::synthetic_capabilities();
    caps.supports_dma = false;
    caps.pio_max_bytes = 4 << 10;
    caps.max_packet_bytes = 1 << 20;
    caps.validate().expect("a driver may be PIO-only");
    let params = NetworkParams::synthetic();
    assert!(params.mtu >= caps.max_packet_bytes);

    let mut sim = Simulation::new();
    let net = sim.add_network(params.clone());
    let (a, b) = (sim.add_node(), sim.add_node());
    let (na, nb) = (sim.add_nic(a, net), sim.add_nic(b, net));
    let build = |node: NodeId, nic: NicId, peer: NodeId, peer_nic: NicId| {
        let driver = SimDriver::new(nic, caps.clone(), CostModel::from_params(&params));
        EngineBuilder::new(node)
            .rail(driver, params.mtu)
            .peer(peer, vec![peer_nic])
            .build()
            .expect("valid engine")
    };
    let (ea, ha) = build(a, na, b, nb);
    let (eb, hb) = build(b, nb, a, na);
    sim.set_endpoint(a, Box::new(ea));
    sim.set_endpoint(b, Box::new(eb));

    let flow = ha.open_flow(b, TrafficClass::DEFAULT);
    let body = pattern(flow.0, 0, 0, 8 << 10);
    sim.inject(a, |ctx| {
        let parts = MessageBuilder::new().pack_cheaper(&body).build_parts();
        ha.send(ctx, flow, parts);
    });
    sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));

    let delivered = hb.take_delivered();
    assert_eq!(delivered.len(), 1, "{}", ha.debug_report());
    assert_eq!(delivered[0].contiguous(), body);
    let m = ha.metrics();
    assert_eq!(m.driver_rejections, 0, "{}", ha.debug_report());
    assert!(m.packets_sent >= 3, "8 KiB in packets of at most 4 KiB");
    assert!(ha.is_drained());
}

//! Failure injection: the engine's behaviour under hostile conditions —
//! hardware queue exhaustion, capability rejections, lossy wires and
//! undecodable packets. High-speed networks are lossless, so loss is a
//! *diagnostic* scenario: the engine must degrade loudly (counters), never
//! silently corrupt.

use bytes::Bytes;
use madeleine::harness::{Cluster, ClusterSpec};
use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use madware::pattern;
use nicdrv::{calib, CostModel, Driver, DriverError, ModeSel, SimDriver, TransferRequest};
use simnet::{FaultPlan, NetworkParams, SimTime, Simulation, SubmitError, Technology};

#[test]
fn hardware_queue_exhaustion_backpressures_cleanly() {
    let mut sim = Simulation::new();
    let mut params = NetworkParams::synthetic();
    params.tx_queue_depth = 2;
    let net = sim.add_network(params);
    let a = sim.add_node();
    let b = sim.add_node();
    let na = sim.add_nic(a, net);
    let nb = sim.add_nic(b, net);
    let mut caps = calib::synthetic_capabilities();
    caps.tx_queue_depth = 2;
    let cost = CostModel::from_params(sim.network_params(net));
    let drv = SimDriver::new(na, caps, cost);
    let results: Vec<_> = sim.inject(a, |ctx| {
        (0..5)
            .map(|i| {
                drv.submit(
                    ctx,
                    TransferRequest {
                        dst_nic: nb,
                        vchan: 0,
                        kind: 1,
                        cookie: i,
                        mode: ModeSel::Auto,
                        host_prep: simnet::SimDuration::ZERO,
                        segments: vec![Bytes::from_static(b"data")],
                    },
                )
            })
            .collect()
    });
    assert!(results[0].is_ok() && results[1].is_ok());
    for r in &results[2..] {
        assert_eq!(*r, Err(DriverError::Nic(SubmitError::QueueFull)));
    }
    sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
    assert_eq!(sim.nic(nb).stats.rx_packets, 2);
}

#[test]
fn engine_absorbs_queue_pressure_without_loss() {
    // Tiny hardware queues + a large burst: the collect layer buffers, the
    // engine never drops, every message arrives.
    let mut c = Cluster::build(&ClusterSpec::mx_pair(), vec![]);
    let h = c.handle(0).clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let f = h.open_flow(dst, TrafficClass::DEFAULT);
    c.sim.inject(src, |ctx| {
        for i in 0..500u32 {
            h.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f.0, i, 0, 700))
                    .build_parts(),
            );
        }
    });
    c.drain();
    assert_eq!(c.handle(1).delivered_count(), 500);
    assert_eq!(c.handle(0).metrics().driver_rejections, 0);
}

#[test]
fn lossy_wire_is_detected_not_corrupting() {
    // Loss on the fabric: messages go missing (counted by the NIC), but
    // whatever is delivered is byte-exact and in order, and reassembly
    // state reports the stuck messages. The calibrated fabrics are
    // lossless, so the loss is scripted with a fault plan.
    // A packet of small messages ends where the window does (64 chunks),
    // so a thousand messages make a few dozen packets to lose.
    const MSGS: u32 = 1000;
    let mut c = Cluster::build(&ClusterSpec::mx_pair(), vec![]);
    c.set_fault_plan(0, FaultPlan::new(8).with_loss(0.3));
    let (a, b) = (c.nodes[0], c.nodes[1]);
    let ha = c.handle(0).clone();
    let f = ha.open_flow(b, TrafficClass::DEFAULT);
    c.sim.inject(a, |ctx| {
        for i in 0..MSGS {
            ha.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f.0, i, 0, 96))
                    .build_parts(),
            );
        }
    });
    c.drain();
    let na = c.nics[0][0];
    let sim = &c.sim;
    let drops = sim.nic(na).stats.wire_drops;
    // Aggregation packs the messages into few packets, so the absolute
    // drop count is small — but it must be nonzero and visible.
    assert!(drops >= 1, "expected drops, got {drops}");
    assert!(
        sim.nic(na).stats.tx_packets > drops,
        "some packets must still get through"
    );
    let got = c.handle(1).take_delivered();
    assert!(got.len() < MSGS as usize, "some messages must be missing");
    // Whatever arrived is intact and strictly in order.
    let mut last = None;
    for m in &got {
        assert_eq!(m.contiguous(), pattern(m.flow.0, m.id.seq.0, 0, 96));
        if let Some(prev) = last {
            assert!(m.id.seq.0 > prev);
        }
        last = Some(m.id.seq.0);
    }
}

#[test]
fn undecodable_packet_counted_not_fatal() {
    // Hand-craft a malformed DATA packet via a raw NIC and aim it at an
    // engine node: the engine counts a protocol error and keeps running.
    let mut sim = Simulation::new();
    let net = sim.add_network(calib::params(Technology::MyrinetMx));
    let a = sim.add_node(); // raw attacker node (no endpoint logic needed)
    let b = sim.add_node();
    let na = sim.add_nic(a, net);
    let nb = sim.add_nic(b, net);
    let (eb, hb) = madeleine::MadEngine::builder(b)
        .rail(calib::driver(Technology::MyrinetMx, nb), 32 << 10)
        .peer(a, vec![na])
        .build()
        .unwrap();
    sim.set_endpoint(b, Box::new(eb));
    sim.inject(a, |ctx| {
        ctx.submit(
            na,
            simnet::TxRequest {
                dst_nic: nb,
                vchan: 1,
                kind: madeleine::proto::KIND_DATA,
                cookie: 0,
                mode: simnet::TxMode::Pio,
                host_prep: simnet::SimDuration::ZERO,
                payload: vec![Bytes::from_static(b"\xFF\xFFgarbage-that-is-not-a-packet")],
            },
        )
        .unwrap();
    });
    sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
    assert_eq!(hb.metrics().proto_errors, 1);
    assert_eq!(hb.metrics().delivered_msgs, 0);
}

#[test]
fn hostile_header_blocks_counted_not_fatal() {
    // The header block is as long as its tags say, so a peer can lie in
    // four more ways than by sending garbage: a first header that
    // continues a message the packet has not named, a tag bit the format
    // does not define, a block that runs past the packet, a count the
    // bytes cannot hold. Each is one protocol error, none delivers
    // anything — and the valid packet behind them is delivered.
    use madeleine::proto::{encode_packet, make_header, WireChunk, KIND_DATA};
    let mut sim = Simulation::new();
    let net = sim.add_network(calib::params(Technology::MyrinetMx));
    let a = sim.add_node();
    let b = sim.add_node();
    let na = sim.add_nic(a, net);
    let nb = sim.add_nic(b, net);
    let (eb, hb) = madeleine::MadEngine::builder(b)
        .rail(calib::driver(Technology::MyrinetMx, nb), 32 << 10)
        .peer(a, vec![na])
        .build()
        .unwrap();
    sim.set_endpoint(b, Box::new(eb));

    let body = Bytes::from_static(b"twelve bytes");
    let header = make_header(
        madeleine::FlowId(0),
        0,
        0,
        1,
        false,
        TrafficClass::DEFAULT,
        body.len() as u32,
        0,
        body.len() as u32,
        SimTime::ZERO,
    );
    let chunk = WireChunk { header, data: body };
    let valid = encode_packet(std::slice::from_ref(&chunk), true).remove(0);
    let mutated = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = valid.to_vec();
        edit(&mut bytes);
        Bytes::from(bytes)
    };
    let hostile = [
        mutated(&|b| b[2] |= 0b010), // SAME_MSG on the packet's first header
        mutated(&|b| b[2] |= 0b1000_0000), // an unknown tag bit
        mutated(&|b| b.truncate(2 + 17)), // the block runs past the packet
        mutated(&|b| b[..2].copy_from_slice(&u16::MAX.to_le_bytes())), // 65 535 chunks in 44 bytes
    ];
    let sent = hostile.len() as u64;
    sim.inject(a, |ctx| {
        for payload in hostile.into_iter().chain([valid.clone()]) {
            ctx.submit(
                na,
                simnet::TxRequest {
                    dst_nic: nb,
                    vchan: 1,
                    kind: KIND_DATA,
                    cookie: 0,
                    mode: simnet::TxMode::Pio,
                    host_prep: simnet::SimDuration::ZERO,
                    payload: vec![payload],
                },
            )
            .unwrap();
        }
    });
    sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
    assert_eq!(hb.metrics().proto_errors, sent);
    assert_eq!(
        hb.metrics().delivered_msgs,
        1,
        "the engine is still running"
    );
}

#[test]
fn a_chunk_for_a_flow_no_sender_can_open_is_a_proto_error() {
    // A flow id is a peer's header field, and the receiver keeps a table
    // indexed by it: an id at or past MAX_FLOWS is one protocol error and
    // no table, and the valid packet behind it is delivered.
    use madeleine::collect::MAX_FLOWS;
    use madeleine::proto::{encode_packet, make_header, WireChunk, KIND_DATA};
    let mut sim = Simulation::new();
    let net = sim.add_network(calib::params(Technology::MyrinetMx));
    let a = sim.add_node();
    let b = sim.add_node();
    let na = sim.add_nic(a, net);
    let nb = sim.add_nic(b, net);
    let (eb, hb) = madeleine::MadEngine::builder(b)
        .rail(calib::driver(Technology::MyrinetMx, nb), 32 << 10)
        .peer(a, vec![na])
        .build()
        .unwrap();
    sim.set_endpoint(b, Box::new(eb));
    let body = Bytes::from_static(b"twelve bytes");
    let packet = |flow: u32| {
        let len = body.len() as u32;
        let class = TrafficClass::DEFAULT;
        let header = make_header(
            madeleine::FlowId(flow),
            0,
            0,
            1,
            false,
            class,
            len,
            0,
            len,
            SimTime::ZERO,
        );
        let chunk = WireChunk {
            header,
            data: body.clone(),
        };
        encode_packet(std::slice::from_ref(&chunk), true).remove(0)
    };
    sim.inject(a, |ctx| {
        for flow in [u32::MAX, MAX_FLOWS, 0] {
            ctx.submit(
                na,
                simnet::TxRequest {
                    dst_nic: nb,
                    vchan: 1,
                    kind: KIND_DATA,
                    cookie: 0,
                    mode: simnet::TxMode::Pio,
                    host_prep: simnet::SimDuration::ZERO,
                    payload: vec![packet(flow)],
                },
            )
            .unwrap();
        }
    });
    sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
    assert_eq!(hb.metrics().proto_errors, 2);
    assert_eq!(hb.receiver_stats().proto_errors, 2);
    assert_eq!(hb.metrics().delivered_msgs, 1);
}

#[test]
fn capability_violations_rejected_with_precise_errors() {
    let mut sim = Simulation::new();
    let net = sim.add_network(calib::params(Technology::InfiniBand));
    let a = sim.add_node();
    let b = sim.add_node();
    let na = sim.add_nic(a, net);
    let nb = sim.add_nic(b, net);
    let drv = calib::driver(Technology::InfiniBand, na);
    sim.inject(a, |ctx| {
        // Over the inline (PIO) limit.
        let r = drv.submit(
            ctx,
            TransferRequest {
                dst_nic: nb,
                vchan: 0,
                kind: 1,
                cookie: 0,
                mode: ModeSel::Pio,
                host_prep: simnet::SimDuration::ZERO,
                segments: vec![Bytes::from(vec![0u8; 300])],
            },
        );
        assert_eq!(r, Err(DriverError::PioTooLarge { len: 300, max: 256 }));
        // Over the gather width.
        let r = drv.submit(
            ctx,
            TransferRequest {
                dst_nic: nb,
                vchan: 0,
                kind: 1,
                cookie: 0,
                mode: ModeSel::Dma,
                host_prep: simnet::SimDuration::ZERO,
                segments: (0..6).map(|_| Bytes::from_static(b"xx")).collect(),
            },
        );
        assert_eq!(r, Err(DriverError::TooManySegments { got: 6, max: 4 }));
        // Bad virtual channel.
        let r = drv.submit(
            ctx,
            TransferRequest {
                dst_nic: nb,
                vchan: 99,
                kind: 1,
                cookie: 0,
                mode: ModeSel::Auto,
                host_prep: simnet::SimDuration::ZERO,
                segments: vec![Bytes::from_static(b"xx")],
            },
        );
        assert_eq!(r, Err(DriverError::VChannelOutOfRange { got: 99, max: 8 }));
    });
}

//! End-to-end integration: messages of every shape traverse the full stack
//! (collect → optimize → transfer → wire → reassembly → ordered delivery)
//! with byte-exact payloads, on both engines and several technologies.

use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::ids::TrafficClass;
use madeleine::message::{MessageBuilder, PackMode};
use madware::pattern;
use simnet::Technology;

fn cluster(engine: EngineKind, tech: Technology) -> Cluster {
    Cluster::build(&ClusterSpec::new(2, vec![tech]).engine(engine), vec![])
}

fn engines() -> Vec<EngineKind> {
    vec![EngineKind::optimizing(), EngineKind::legacy()]
}

#[test]
fn single_fragment_roundtrip_all_technologies() {
    for tech in [
        Technology::MyrinetMx,
        Technology::QuadricsElan,
        Technology::InfiniBand,
        Technology::TcpEthernet,
        Technology::SharedMem,
    ] {
        for engine in engines() {
            let mut c = cluster(engine, tech);
            let h = c.handle(0).clone();
            let dst = c.nodes[1];
            let src = c.nodes[0];
            let f = h.open_flow(dst, TrafficClass::DEFAULT);
            let body = pattern(f.0, 0, 0, 777);
            c.sim.inject(src, |ctx| {
                h.send(
                    ctx,
                    f,
                    MessageBuilder::new().pack_cheaper(&body).build_parts(),
                )
            });
            c.drain();
            let got = c.handle(1).take_delivered();
            assert_eq!(got.len(), 1, "{tech:?}");
            assert_eq!(got[0].contiguous(), body, "{tech:?}");
        }
    }
}

#[test]
fn many_fragment_message_reassembles_in_pack_order() {
    for engine in engines() {
        let mut c = cluster(engine, Technology::MyrinetMx);
        let h = c.handle(0).clone();
        let (src, dst) = (c.nodes[0], c.nodes[1]);
        let f = h.open_flow(dst, TrafficClass::DEFAULT);
        let mut b = MessageBuilder::new().pack_express(b"envelope");
        let mut sizes = Vec::new();
        for i in 0..12usize {
            let n = 10 + i * 53;
            sizes.push(n);
            b = b.pack(&pattern(f.0, 0, (i + 1) as u16, n), PackMode::Cheaper);
        }
        c.sim.inject(src, |ctx| h.send(ctx, f, b.build_parts()));
        c.drain();
        let got = c.handle(1).take_delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].fragments.len(), 13);
        assert_eq!(&got[0].fragments[0].1[..], b"envelope");
        for (i, &n) in sizes.iter().enumerate() {
            assert_eq!(
                &got[0].fragments[i + 1].1[..],
                &pattern(f.0, 0, (i + 1) as u16, n)[..],
                "fragment {i}"
            );
        }
    }
}

#[test]
fn per_flow_delivery_order_is_submission_order() {
    let mut c = cluster(EngineKind::optimizing(), Technology::MyrinetMx);
    let h = c.handle(0).clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let fa = h.open_flow(dst, TrafficClass::DEFAULT);
    let fb = h.open_flow(dst, TrafficClass::BULK);
    c.sim.inject(src, |ctx| {
        for i in 0..40u32 {
            // Alternate small and huge so completion order would differ
            // from submission order without the receiver's ordering.
            let size = if i % 2 == 0 { 8 } else { 20_000 };
            h.send(
                ctx,
                fa,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(fa.0, i, 0, size))
                    .build_parts(),
            );
            h.send(
                ctx,
                fb,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(fb.0, i, 0, 64))
                    .build_parts(),
            );
        }
    });
    c.drain();
    let got = c.handle(1).take_delivered();
    assert_eq!(got.len(), 80);
    for flow in [fa, fb] {
        let seqs: Vec<u32> = got
            .iter()
            .filter(|m| m.flow == flow)
            .map(|m| m.id.seq.0)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "flow {flow} out of order");
    }
}

#[test]
fn bidirectional_traffic() {
    let mut c = cluster(EngineKind::optimizing(), Technology::QuadricsElan);
    let h0 = c.handle(0).clone();
    let h1 = c.handle(1).clone();
    let (n0, n1) = (c.nodes[0], c.nodes[1]);
    let f01 = h0.open_flow(n1, TrafficClass::DEFAULT);
    let f10 = h1.open_flow(n0, TrafficClass::DEFAULT);
    c.sim.inject(n0, |ctx| {
        for i in 0..30 {
            h0.send(
                ctx,
                f01,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f01.0, i, 0, 256))
                    .build_parts(),
            );
        }
    });
    c.sim.inject(n1, |ctx| {
        for i in 0..30 {
            h1.send(
                ctx,
                f10,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f10.0, i, 0, 256))
                    .build_parts(),
            );
        }
    });
    c.drain();
    assert_eq!(c.handle(0).delivered_count(), 30);
    assert_eq!(c.handle(1).delivered_count(), 30);
}

#[test]
fn three_node_all_to_all() {
    let spec = ClusterSpec::new(3, vec![Technology::MyrinetMx]);
    let mut c = Cluster::build(&spec, vec![]);
    let handles: Vec<_> = (0..3).map(|i| c.handle(i).clone()).collect();
    let nodes = c.nodes.clone();
    for i in 0..3usize {
        let flows: Vec<_> = (0..3)
            .filter(|&j| j != i)
            .map(|j| (j, handles[i].open_flow(nodes[j], TrafficClass::DEFAULT)))
            .collect();
        c.sim.inject(nodes[i], |ctx| {
            for (_, f) in &flows {
                for k in 0..10 {
                    handles[i].send(
                        ctx,
                        *f,
                        MessageBuilder::new()
                            .pack_cheaper(&pattern(f.0, k, 0, 128))
                            .build_parts(),
                    );
                }
            }
        });
    }
    c.drain();
    for i in 0..3 {
        assert_eq!(c.handle(i).delivered_count(), 20, "node {i}");
        assert_eq!(c.handle(i).receiver_stats().express_violations, 0);
    }
}

#[test]
fn large_message_chunked_through_rendezvous() {
    for engine in engines() {
        let mut c = cluster(engine, Technology::MyrinetMx);
        let h = c.handle(0).clone();
        let (src, dst) = (c.nodes[0], c.nodes[1]);
        let f = h.open_flow(dst, TrafficClass::BULK);
        let body = pattern(f.0, 0, 0, 1_000_000); // >> MTU and rndv threshold
        c.sim.inject(src, |ctx| {
            h.send(
                ctx,
                f,
                MessageBuilder::new().pack_cheaper(&body).build_parts(),
            )
        });
        c.drain();
        let got = c.handle(1).take_delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].contiguous(), body);
        let m = c.handle(0).metrics();
        assert_eq!(m.rndv_requests, 1);
        assert_eq!(m.rndv_grants, 1);
        assert!(m.packets_sent > 10, "must be chunked into many packets");
    }
}

#[test]
fn express_fragment_large_enough_for_rendezvous() {
    // An express *header* that itself needs the rendezvous protocol: the
    // body must wait for the negotiated header, and everything still
    // reassembles in order.
    for engine in engines() {
        let mut c = cluster(engine, Technology::MyrinetMx);
        let h = c.handle(0).clone();
        let (src, dst) = (c.nodes[0], c.nodes[1]);
        let f = h.open_flow(dst, TrafficClass::DEFAULT);
        let hdr = pattern(f.0, 0, 0, 100_000); // >> 32 KiB rndv threshold
        let body = pattern(f.0, 0, 1, 5_000);
        c.sim.inject(src, |ctx| {
            h.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack(&hdr, PackMode::Express)
                    .pack(&body, PackMode::Cheaper)
                    .build_parts(),
            )
        });
        c.drain();
        let got = c.handle(1).take_delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].fragments[0].1[..], &hdr[..]);
        assert_eq!(&got[0].fragments[1].1[..], &body[..]);
        assert_eq!(c.handle(0).metrics().rndv_requests, 1);
        assert_eq!(c.handle(1).receiver_stats().express_violations, 0);
    }
}

#[test]
fn interleaved_rndv_and_eager_traffic() {
    // Large rendezvous transfers and small eager messages share the rail;
    // both families complete, order per flow holds.
    let mut c = cluster(EngineKind::optimizing(), Technology::MyrinetMx);
    let h = c.handle(0).clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let big = h.open_flow(dst, TrafficClass::BULK);
    let small = h.open_flow(dst, TrafficClass::CONTROL);
    c.sim.inject(src, |ctx| {
        for i in 0..5u32 {
            h.send(
                ctx,
                big,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(big.0, i, 0, 200_000))
                    .build_parts(),
            );
            for k in 0..10u32 {
                h.send(
                    ctx,
                    small,
                    MessageBuilder::new()
                        .pack_cheaper(&pattern(small.0, i * 10 + k, 0, 24))
                        .build_parts(),
                );
            }
        }
    });
    c.drain();
    let m = c.handle(0).metrics();
    assert_eq!(m.rndv_requests, 5);
    assert_eq!(m.rndv_grants, 5);
    let got = c.handle(1).take_delivered();
    assert_eq!(got.len(), 55);
    for msg in &got {
        let want = if msg.flow == big { 200_000 } else { 24 };
        assert_eq!(msg.total_len(), want, "{}", msg.id);
        assert_eq!(
            msg.contiguous(),
            pattern(msg.flow.0, msg.id.seq.0, 0, want as usize)
        );
    }
}

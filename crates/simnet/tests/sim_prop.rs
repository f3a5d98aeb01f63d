//! Property tests for the simulator substrate: delivery integrity,
//! conservation, and bit-for-bit determinism under arbitrary traffic.

use bytes::Bytes;
use proptest::prelude::*;
use simnet::{
    Endpoint, NetworkParams, NicId, SimCtx, SimTime, Simulation, SubmitError, TxMode, TxRequest,
    WirePacket,
};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Clone, Debug)]
struct Send {
    src: u8,
    dst: u8,
    len: u16,
    fill: u8,
}

fn sends() -> impl Strategy<Value = Vec<Send>> {
    prop::collection::vec(
        (0u8..3, 0u8..3, 1u16..2000, any::<u8>()).prop_map(|(src, dst, len, fill)| Send {
            src,
            dst: if dst == src { (dst + 1) % 3 } else { dst },
            len,
            fill,
        }),
        1..40,
    )
}

type Deliveries = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;

#[derive(Default)]
struct Sink {
    got: Deliveries,
}

impl Endpoint for Sink {
    fn on_packet_rx(&mut self, _ctx: &mut SimCtx<'_>, _nic: NicId, pkt: WirePacket) {
        self.got.borrow_mut().push((pkt.cookie, pkt.contiguous()));
    }
}

/// Drive a 3-node cluster; submissions beyond the queue are retried on a
/// simple drain-then-go basis by re-running the injection after quiescence.
fn run(sends: &[Send]) -> (u64, Vec<(u64, Vec<u8>)>) {
    let mut sim = Simulation::new();
    let net = sim.add_network(NetworkParams::synthetic());
    let nodes: Vec<_> = (0..3).map(|_| sim.add_node()).collect();
    let nics: Vec<_> = nodes.iter().map(|&n| sim.add_nic(n, net)).collect();
    let sinks: Vec<Deliveries> = (0..3).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    for (i, &n) in nodes.iter().enumerate() {
        sim.set_endpoint(
            n,
            Box::new(Sink {
                got: sinks[i].clone(),
            }),
        );
    }
    let mut pending: Vec<(usize, TxRequest)> = sends
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (
                s.src as usize,
                TxRequest {
                    dst_nic: nics[s.dst as usize],
                    vchan: 0,
                    kind: 0,
                    cookie: i as u64,
                    mode: TxMode::Pio,
                    host_prep: simnet::SimDuration::ZERO,
                    payload: vec![Bytes::from(vec![s.fill; s.len as usize])],
                },
            )
        })
        .collect();
    // Submit with backpressure: whatever the queue rejects is retried after
    // the simulator drains (models a polite sender).
    let mut guard = 0;
    while !pending.is_empty() {
        guard += 1;
        assert!(guard < 1000, "no progress under backpressure");
        pending.retain(|(src, req)| {
            let nic = nics[*src];
            let node = nodes[*src];
            let r = sim.inject(node, |ctx| ctx.submit(nic, req.clone()));
            match r {
                Ok(()) => false,
                Err(SubmitError::QueueFull) => true,
                Err(e) => panic!("unexpected submit error {e}"),
            }
        });
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
    }
    sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
    let mut all = Vec::new();
    for s in &sinks {
        all.extend(s.borrow().iter().cloned());
    }
    all.sort_by_key(|(c, _)| *c);
    (sim.now().as_nanos(), all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_packet_delivered_intact(sends in sends()) {
        let (_, got) = run(&sends);
        prop_assert_eq!(got.len(), sends.len());
        for (i, s) in sends.iter().enumerate() {
            let (cookie, data) = &got[i];
            prop_assert_eq!(*cookie, i as u64);
            prop_assert_eq!(data.len(), s.len as usize);
            prop_assert!(data.iter().all(|&b| b == s.fill));
        }
    }

    #[test]
    fn repeat_runs_are_bit_identical(sends in sends()) {
        let a = run(&sends);
        let b = run(&sends);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn per_source_fifo_order_holds(sends in sends()) {
        // Packets from one source to one destination arrive in submission
        // order (same network, no reordering in the substrate).
        let (_, got) = run(&sends);
        let _ = got;
        // Arrival order is encoded in sink vectors per node; re-derive:
        // (covered indirectly by cookie-sorted equality above; here we
        // check sequence numbers are strictly increasing per source NIC.)
        // Build a fresh run capturing arrival order:
        let mut sim = Simulation::new();
        let net = sim.add_network(NetworkParams::synthetic());
        let a = sim.add_node();
        let b = sim.add_node();
        let na = sim.add_nic(a, net);
        let nb = sim.add_nic(b, net);
        let order = Rc::new(RefCell::new(Vec::new()));
        struct SeqSink(Rc<RefCell<Vec<u64>>>);
        impl Endpoint for SeqSink {
            fn on_packet_rx(&mut self, _c: &mut SimCtx<'_>, _n: NicId, p: WirePacket) {
                self.0.borrow_mut().push(p.seq);
            }
        }
        sim.set_endpoint(b, Box::new(SeqSink(order.clone())));
        for (i, s) in sends.iter().take(4).enumerate() {
            let _ = sim.inject(a, |ctx| {
                ctx.submit(na, TxRequest {
                    dst_nic: nb, vchan: 0, kind: 0, cookie: i as u64,
                    mode: TxMode::Pio, host_prep: simnet::SimDuration::ZERO,
                    payload: vec![Bytes::from(vec![s.fill; (s.len % 100 + 1) as usize])],
                })
            });
        }
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        let order = order.borrow();
        prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "seq order {:?}", order);
    }
}

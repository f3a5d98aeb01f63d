//! The data path's allocation budget, as a count.
//!
//! A counting `#[global_allocator]` with a thread-local counter (every
//! cell runs on its test's own thread, so the counts are deterministic)
//! measures heap allocations per delivered message of three 2-node cells
//! after a warm-up, and of an idle-NIC activation on an empty backlog.
//! It also keeps the bytes each thread has live, which measures what a
//! pending message costs the sender and what a flow retains once
//! everything it carried is delivered. The messages are
//! madclock's: a 16-byte express header packed by copy plus a body sliced
//! from a pool without copying.
//!
//! `cargo test --release -p madeleine --test alloc_budget -- --nocapture`
//! prints the six figures; CI appends them to its step summary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use madeleine::{
    AppDriver, Cluster, ClusterSpec, CommApi, DeliveredMessage, EngineConfig, FlowId, Fragment,
    MessageBuilder, PackMode, ReliabilityMode, TrafficClass,
};
use simnet::{NodeId, SimDuration, Technology};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (it can go below zero
    /// when a thread frees what another allocated; no cell does).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation that grows the live bytes by `grown`.
fn bump(grown: i64) {
    // `try_with`: the allocator outlives the thread's locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    live(grown);
}

fn live(grown: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + grown));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// `const`-initialised thread-local `Cell`s and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const FLOWS: usize = 8;
const HEADER_BYTES: usize = 16;
const BODY_BYTES: usize = 64;

/// What the two apps of a cell and the test around them share.
struct Shared {
    /// `flows[node][i]`, filled once the cluster is built.
    flows: RefCell<[Vec<FlowId>; 2]>,
    pool: Bytes,
    /// Requests each client may still start.
    rounds_left: RefCell<[u32; FLOWS]>,
    delivered: Cell<u64>,
    lcg: Cell<u64>,
}

impl Shared {
    fn new() -> Rc<Shared> {
        Rc::new(Shared {
            flows: RefCell::new([Vec::new(), Vec::new()]),
            pool: Bytes::from((0..4096u32).map(|i| (i * 31) as u8).collect::<Vec<u8>>()),
            rounds_left: RefCell::new([0; FLOWS]),
            delivered: Cell::new(0),
            lcg: Cell::new(0x9E37_79B9_7F4A_7C15),
        })
    }

    /// Message `n` of `client`: its header, and a body whose place in the
    /// pool follows from both.
    fn parts(&self, client: usize, n: u32) -> Vec<Fragment> {
        let mut header = [0u8; HEADER_BYTES];
        header[..4].copy_from_slice(&(client as u32).to_le_bytes());
        header[4..8].copy_from_slice(&n.to_le_bytes());
        let at = (client * 97 + n as usize * 13) % (self.pool.len() - BODY_BYTES);
        MessageBuilder::new()
            .pack_express(&header)
            .pack_bytes(self.pool.slice(at..at + BODY_BYTES), PackMode::Cheaper)
            .build_parts()
    }

    /// Count a delivery, check its shape, and read `(client, n)` back.
    fn accept(&self, msg: &DeliveredMessage) -> (usize, u32) {
        self.delivered.set(self.delivered.get() + 1);
        let [(PackMode::Express, header), (PackMode::Cheaper, body)] = &msg.fragments[..] else {
            panic!("a message is a header and a body: {msg:?}");
        };
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
        let (client, n) = (word(0) as usize, word(4));
        let at = (client * 97 + n as usize * 13) % (self.pool.len() - BODY_BYTES);
        assert_eq!(body[..], self.pool[at..at + BODY_BYTES], "payload intact");
        (client, n)
    }

    /// Think time before a client's next request: 0.2–2 us.
    fn think(&self) -> SimDuration {
        let next = self
            .lcg
            .get()
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.lcg.set(next);
        SimDuration::from_nanos(200 + (next >> 33) % 1800)
    }
}

/// Node 0: `FLOWS` closed-loop clients, one outstanding request each; a
/// client's timer (tag = client) sends its next request.
struct Clients(Rc<Shared>);

impl AppDriver for Clients {
    fn on_timer(&mut self, api: &mut dyn CommApi, tag: u64) {
        let client = tag as usize;
        let left = {
            let mut rounds = self.0.rounds_left.borrow_mut();
            rounds[client] -= 1;
            rounds[client]
        };
        let flow = self.0.flows.borrow()[0][client];
        api.send(flow, self.0.parts(client, left));
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        let (client, _) = self.0.accept(msg);
        if self.0.rounds_left.borrow()[client] > 0 {
            api.set_timer(self.0.think(), client as u64);
        }
    }
}

/// Node 1: echoes every request on the client's reply flow.
struct Echo(Rc<Shared>);

impl AppDriver for Echo {
    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        let (client, n) = self.0.accept(msg);
        let flow = self.0.flows.borrow()[1][client];
        api.send(flow, self.0.parts(client, n));
    }
}

/// Node 1 of the burst cell: counts and checks.
struct Sink(Rc<Shared>);

impl AppDriver for Sink {
    fn on_message(&mut self, _api: &mut dyn CommApi, msg: &DeliveredMessage) {
        self.0.accept(msg);
    }
}

fn config(reliability: ReliabilityMode) -> EngineConfig {
    EngineConfig {
        record_deliveries: false,
        reliability,
        ..EngineConfig::default()
    }
}

fn build(
    rails: Vec<Technology>,
    reliability: ReliabilityMode,
    apps: [Box<dyn AppDriver>; 2],
    shared: &Shared,
) -> Cluster {
    let spec = ClusterSpec::new(2, rails).config(config(reliability));
    let cluster = Cluster::build(&spec, apps.into_iter().map(Some).collect());
    let mut flows = shared.flows.borrow_mut();
    for (node, peer) in [(0, 1), (1, 0)] {
        flows[node] = (0..FLOWS)
            .map(|_| {
                cluster
                    .handle(node)
                    .open_flow(NodeId(peer), TrafficClass::DEFAULT)
            })
            .collect();
    }
    drop(flows);
    cluster
}

/// Allocations, data packets and ack packets (both nodes') per delivered
/// message of `rounds` round trips per client, after a warm-up of the
/// same shape.
fn pingpong(rails: Vec<Technology>, reliability: ReliabilityMode, rounds: u32) -> (f64, f64, f64) {
    let shared = Shared::new();
    let apps: [Box<dyn AppDriver>; 2] = [
        Box::new(Clients(shared.clone())),
        Box::new(Echo(shared.clone())),
    ];
    let mut cluster = build(rails, reliability, apps, &shared);
    let packets = |cluster: &Cluster| -> (u64, u64) {
        let m = [cluster.handle(0).metrics(), cluster.handle(1).metrics()];
        let data = m.iter().map(|m| m.packets_sent).sum();
        (data, m.iter().map(|m| m.ack_packets).sum())
    };
    let mut run = |rounds: u32| {
        *shared.rounds_left.borrow_mut() = [rounds; FLOWS];
        let sent = packets(&cluster);
        let (before, delivered) = (allocs(), shared.delivered.get());
        cluster.sim.inject(NodeId(0), |ctx| {
            for client in 0..FLOWS as u64 {
                ctx.set_timer(SimDuration::from_nanos(100 * client), client);
            }
        });
        cluster.drain();
        let allocated = allocs() - before;
        let msgs = shared.delivered.get() - delivered;
        assert_eq!(msgs, 2 * u64::from(rounds) * FLOWS as u64, "every trip");
        let (data, acks) = packets(&cluster);
        let per_msg = |n: u64| n as f64 / msgs as f64;
        (
            per_msg(allocated),
            per_msg(data - sent.0),
            per_msg(acks - sent.1),
        )
    };
    run(rounds / 4);
    run(rounds)
}

#[test]
fn pingpong_on_one_mx_rail_allocates_at_most_5_0_per_message() {
    let (per_msg, packets, _) = pingpong(vec![Technology::MyrinetMx], ReliabilityMode::Off, 1_000);
    println!(
        "alloc_budget: pingpong (MX) {per_msg:.2} allocations per message \
         ({packets:.3} data packets per message)"
    );
    // 4.80 since a packed header lives in its handle; 6.43 while each
    // took a heap block of its own, 8.17 while each message kept its
    // fragments in a block of its own.
    assert!(per_msg <= 5.0, "{per_msg:.2} allocations per message");
}

#[test]
fn pingpong_under_recover_on_two_rails_allocates_at_most_5_4_per_message() {
    let rails = vec![Technology::MyrinetMx, Technology::QuadricsElan];
    let (per_msg, packets, acks) = pingpong(rails, ReliabilityMode::Recover, 1_000);
    println!(
        "alloc_budget: pingpong (Recover, MX + Elan) {per_msg:.2} allocations per message \
         ({packets:.3} data packets and {acks:.4} ack packets per message)"
    );
    // Acks ride with the replies and requests, so hardly an ack packet is
    // built: 9.52 while every data packet had an ack packet of its own. A
    // data packet's chunk list is held once, by madrel's tracker: a
    // second copy per packet (0.85 packets a message then; 0.945 since an
    // idle MX leaves its window to a busy Elan) read 11.78, and a block
    // of fragments per message 10.93. 5.21 since a packed header lives in
    // its handle, 6.99 before.
    assert!(per_msg <= 5.4, "{per_msg:.2} allocations per message");
}

#[test]
fn burst_drain_in_aggregated_packets_allocates_at_most_3_1_per_message() {
    const BURST: u32 = 4_096;
    let shared = Shared::new();
    let apps: [Box<dyn AppDriver>; 2] =
        [Box::new(madeleine::NullApp), Box::new(Sink(shared.clone()))];
    let mut cluster = build(
        vec![Technology::MyrinetMx],
        ReliabilityMode::Off,
        apps,
        &shared,
    );
    let mut run = || {
        let packets = cluster.handle(0).metrics().packets_sent;
        let before = allocs();
        let sender = cluster.handle(0).clone();
        cluster.sim.inject(NodeId(0), |ctx| {
            for n in 0..BURST {
                let client = n as usize % FLOWS;
                let flow = shared.flows.borrow()[0][client];
                sender.send(ctx, flow, shared.parts(client, n));
            }
        });
        cluster.drain();
        let per_msg = (allocs() - before) as f64 / f64::from(BURST);
        let packets = cluster.handle(0).metrics().packets_sent - packets;
        (per_msg, f64::from(2 * BURST) / packets as f64)
    };
    run();
    let delivered = shared.delivered.get();
    let (per_msg, chunks_per_packet) = run();
    assert_eq!(shared.delivered.get() - delivered, u64::from(BURST));
    assert!(
        chunks_per_packet > 15.0,
        "{chunks_per_packet:.1} chunks per packet"
    );
    println!(
        "alloc_budget: burst drain ({chunks_per_packet:.1} chunks/packet) \
         {per_msg:.2} allocations per message"
    );
    // 3.04 since a packed header lives in its handle; 4.04 while each
    // took a heap block of its own, 5.04 while each message kept its
    // fragments in a block of its own.
    assert!(per_msg <= 3.1, "{per_msg:.2} allocations per message");
}

#[test]
fn idle_activation_on_an_empty_backlog_allocates_nothing() {
    let shared = Shared::new();
    let apps: [Box<dyn AppDriver>; 2] =
        [Box::new(madeleine::NullApp), Box::new(Sink(shared.clone()))];
    let rails = vec![Technology::MyrinetMx, Technology::QuadricsElan];
    let mut cluster = build(rails, ReliabilityMode::Recover, apps, &shared);
    // One message first, so that every layer has run once.
    let sender = cluster.handle(0).opt().expect("optimizing engine").clone();
    cluster.sim.inject(NodeId(0), |ctx| {
        let flow = shared.flows.borrow()[0][0];
        sender.send(ctx, flow, shared.parts(0, 0));
    });
    cluster.drain();
    assert_eq!(shared.delivered.get(), 1);
    const FLUSHES: u64 = 100;
    let m = sender.metrics();
    let (activations, samples) = (m.activations_timer, m.backlog_depth.count());
    let before = allocs();
    for _ in 0..FLUSHES {
        // Every idle rail is activated and finds nothing.
        cluster.sim.inject(NodeId(0), |ctx| sender.flush(ctx));
    }
    let allocated = allocs() - before;
    let m = sender.metrics();
    let activations = m.activations_timer - activations;
    assert_eq!(activations, 2 * FLUSHES, "both rails, every time");
    let samples = m.backlog_depth.count() - samples;
    assert_eq!(samples, activations, "each with its backlog sample");
    let per_activation = allocated as f64 / activations as f64;
    println!("alloc_budget: idle activation {per_activation:.2} allocations per activation");
    assert_eq!(per_activation, 0.0);
}

/// Flows of the two memory cells below.
const OPEN: usize = 4_096;

/// A 2-node MX cell with [`OPEN`] flows opened on node 0 before any count
/// starts, so that the sender's flow table, a vector that doubles, grows
/// outside it.
fn open_cell(shared: &Rc<Shared>) -> (Cluster, madeleine::NodeHandle, Vec<FlowId>) {
    let apps: [Box<dyn AppDriver>; 2] =
        [Box::new(madeleine::NullApp), Box::new(Sink(shared.clone()))];
    let cluster = build(
        vec![Technology::MyrinetMx],
        ReliabilityMode::Off,
        apps,
        shared,
    );
    let sender = cluster.handle(0).clone();
    let flows: Vec<FlowId> = (0..OPEN)
        .map(|_| sender.open_flow(NodeId(1), TrafficClass::DEFAULT))
        .collect();
    (cluster, sender, flows)
}

/// What a flow keeps on both nodes once everything it carried is
/// delivered: the sender's drained queue, the receiver's row.
#[test]
#[cfg_attr(
    feature = "debug-invariants",
    ignore = "the structural checks walk every flow on every operation: minutes at 4 096 flows"
)]
fn a_drained_flow_retains_at_most_96_bytes() {
    let shared = Shared::new();
    let (mut cluster, sender, flows) = open_cell(&shared);
    let before = live_bytes();
    cluster.sim.inject(NodeId(0), |ctx| {
        for n in 0..2 {
            for (client, &flow) in flows.iter().enumerate() {
                sender.send(ctx, flow, shared.parts(client, n));
            }
        }
    });
    cluster.drain();
    assert_eq!(shared.delivered.get(), 2 * OPEN as u64);
    let per_flow = (live_bytes() - before) as f64 / OPEN as f64;
    println!("alloc_budget: {per_flow:.0} bytes retained per drained flow");
    // 32 of them are the flow's empty queue (four 8-byte entries), about 14
    // its receive row (next sequence, head slot, held count: 12 bytes) with
    // the table's slack; the rest are run-wide buffers kept at their
    // high-water mark, 160 KiB in all. 78 while the row was the next
    // sequence alone.
    assert!(per_flow <= 96.0, "{per_flow:.0} bytes per drained flow");
}

/// What the sender's backlog costs while it waits: one header + body
/// message on each of [`OPEN`] flows, counted once submitted and before
/// anything is sent — the message's slot and its flow's queue (the
/// header the application packed by copy lives in its handle).
#[test]
#[cfg_attr(
    feature = "debug-invariants",
    ignore = "the structural checks walk every flow on every operation: minutes at 4 096 flows"
)]
fn a_backlog_of_one_message_per_flow_costs_at_most_185_bytes_each() {
    let shared = Shared::new();
    let (mut cluster, sender, flows) = open_cell(&shared);
    let before = live_bytes();
    cluster.sim.inject(NodeId(0), |ctx| {
        for (client, &flow) in flows.iter().enumerate() {
            sender.send(ctx, flow, shared.parts(client, 0));
        }
    });
    let per_msg = (live_bytes() - before) as f64 / OPEN as f64;
    cluster.drain();
    assert_eq!(shared.delivered.get(), OPEN as u64);
    println!("alloc_budget: {per_msg:.0} bytes per pending message");
    // 128 of them are the slot, 32 the flow's queue and about 16 the
    // slab's last page, allocated ahead of its use: 177. The 16-byte
    // header lives in its handle, in the slot; as a block of its own it
    // cost 32 bytes more (209). The active-flow index is a bit per flow;
    // as a search tree it cost 23 bytes more (232), and a queue of
    // messages in each flow, with the fragments in a block of their own,
    // read 392.
    assert!(per_msg <= 185.0, "{per_msg:.0} bytes per pending message");
}

/// The vendored `Bytes` is what the counts above rest on: an empty buffer
/// is free, a copy short enough to live in its handle is free and a longer
/// one is one allocation, and taking a vector over adds the reference
/// count's and copies nothing. An ack packet of one ack is built on the
/// stack: its one allocation is its segment list.
#[test]
fn bytes_are_built_with_the_allocations_their_docs_promise() {
    use bytes::{BufMut, BytesMut, INLINE_CAP};
    use madeleine::proto::{encode_acks, AckHeader};
    let count = |f: &mut dyn FnMut()| {
        let before = allocs();
        f();
        allocs() - before
    };
    assert_eq!(count(&mut || drop(Bytes::new())), 0);
    assert_eq!(count(&mut || drop(Bytes::from_static(b"static"))), 0);
    let short = [7; INLINE_CAP];
    assert_eq!(count(&mut || drop(Bytes::copy_from_slice(&short))), 0);
    let long = [7; INLINE_CAP + 1];
    assert_eq!(count(&mut || drop(Bytes::copy_from_slice(&long))), 1);
    assert_eq!(count(&mut || drop(Bytes::copy_from_slice(&[7; 300]))), 1);
    let ack = AckHeader {
        cookie: u64::MAX,
        ecn: true,
        held_ns: u64::MAX,
    };
    assert_eq!(count(&mut || drop(encode_acks(&[ack]))), 1, "the list");
    let v = vec![7u8; 300];
    assert_eq!(
        count(&mut || drop(Bytes::from(v.clone()))),
        2,
        "clone + count"
    );
    let b = Bytes::from(v);
    assert_eq!(count(&mut || drop((b.clone(), b.slice(10..20)))), 0);
    let mut m = BytesMut::with_capacity(64);
    m.put_slice(&[1, 2, 3]);
    let mut m = Some(m);
    assert_eq!(count(&mut || drop(m.take().map(BytesMut::freeze))), 1);
}

//! madrel end-to-end: ack/retransmit recovery under seeded wire faults.
//!
//! * Property: any mix of drops and duplicates drawn from a seeded
//!   [`FaultPlan`] yields exactly-once, byte-exact delivery per
//!   `(flow, seq)` when recovery is on — for eager bodies and for bodies
//!   that negotiate a rendezvous first.
//! * Regression: a lost rendezvous request or grant is asked again; the
//!   handshake never strands a message.
//! * Timers: a clean wire never times out, whatever the rail and the
//!   size; a late ack repairs a spurious timeout exactly once; a fan-in
//!   that outlasts every timeout leaves its (live) rail alive.
//! * Integration: the E2-style eager-flow workload completes fully under
//!   loss with madrel on; a rail declared dead, and a message no live rail
//!   can carry, each trip the flight recorder under its own name.
//! * Determinism: two same-seed lossy runs export byte-identical traces.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use madeleine::api::{AppDriver, CommApi};
use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::ids::{MsgId, TrafficClass};
use madeleine::message::MessageBuilder;
use madeleine::{EngineConfig, EngineHandle, Fault, Json, MetricsRegistry, ReliabilityMode};
use madware::pattern;
use madware::scenario::eager_flows;
use proptest::prelude::*;
use simnet::{FaultPlan, SimDuration, SimTime, Technology, Topology};

/// Bodies of this size and above negotiate a rendezvous.
const RNDV_THRESHOLD: u64 = 1024;

fn config(mode: ReliabilityMode) -> EngineConfig {
    EngineConfig {
        reliability: mode,
        rndv_threshold: Some(RNDV_THRESHOLD),
        ..EngineConfig::default()
    }
}

fn engine(mode: ReliabilityMode) -> EngineKind {
    EngineKind::with_config(config(mode))
}

/// [`engine`] with packets of at most eight messages, so that a burst of a
/// hundred small ones crosses the wire in enough packets for a lossy plan
/// to hit some (the default window packs it into two).
fn engine_of_short_packets(mode: ReliabilityMode) -> EngineKind {
    EngineKind::with_config(config(mode).with_window(8))
}

fn lossy_cluster(engine: EngineKind, plan: FaultPlan) -> Cluster {
    let mut c = Cluster::build(&ClusterSpec::mx_pair().engine(engine), vec![]);
    c.set_fault_plan(0, plan);
    c
}

/// How often `on_sent` fired for each message of the node it runs on.
type SentLog = Rc<RefCell<BTreeMap<(u32, u32), u32>>>;

struct CountSent(SentLog);

impl AppDriver for CountSent {
    fn on_sent(&mut self, _api: &mut dyn CommApi, msg: MsgId) {
        *self
            .0
            .borrow_mut()
            .entry((msg.flow.0, msg.seq.0))
            .or_insert(0) += 1;
    }
}

/// [`lossy_cluster`] whose sender logs its `on_sent` callbacks.
fn logged_lossy_cluster(engine: EngineKind, plan: FaultPlan) -> (Cluster, SentLog) {
    let log = SentLog::default();
    let app: Box<dyn AppDriver> = Box::new(CountSent(log.clone()));
    let mut c = Cluster::build(&ClusterSpec::mx_pair().engine(engine), vec![Some(app)]);
    c.set_fault_plan(0, plan);
    (c, log)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Retransmit idempotence: drops force retransmissions, duplicates
    /// replay both data and acks, reordering shuffles arrivals — and every
    /// message is still delivered exactly once, byte-exact.
    #[test]
    fn drops_and_dups_yield_exactly_once_delivery(
        seed in any::<u64>(),
        loss_pm in 0u32..300, // per-mille; the shim has no f64 ranges
        dup_pm in 0u32..300,
        sizes in any::<u32>(),
        // Half the cases hold a reordered packet back for longer than any
        // timeout the sender has learned: its retransmission goes out, and
        // then the ack of the original arrives late.
        held_back in any::<bool>(),
    ) {
        const MSGS: u32 = 30;
        // Bit `i` of `sizes`: message `i` is an eager body, or one that
        // asks first — the request and the grant are droppable too.
        let size = |i: u32| if sizes >> i & 1 == 0 { 200 } else { 2048 };
        let plan = FaultPlan::new(seed)
            .with_loss(f64::from(loss_pm) / 1000.0)
            .with_dup(f64::from(dup_pm) / 1000.0)
            .with_reorder(0.15, SimDuration::from_micros(if held_back { 400 } else { 2 }));
        // The property is idempotence, not patience: where three packets
        // in ten are lost a handshake fails four times in ten, and the
        // default budget of six attempts would give the only rail up.
        let patient = EngineConfig { retry_budget: 12, ..config(ReliabilityMode::Recover) };
        let (mut c, sent) = logged_lossy_cluster(EngineKind::with_config(patient), plan);
        let h = c.handle(0).opt().expect("optimizing engine").clone();
        let (src, dst) = (c.nodes[0], c.nodes[1]);
        let f = h.open_flow(dst, TrafficClass::DEFAULT);
        c.sim.inject(src, |ctx| {
            for i in 0..MSGS {
                h.send(
                    ctx,
                    f,
                    MessageBuilder::new()
                        .pack_cheaper(&pattern(f.0, i, 0, size(i)))
                        .build_parts(),
                );
            }
        });
        c.drain();
        let got = c.handle(1).take_delivered();
        prop_assert_eq!(got.len(), MSGS as usize, "exactly-once: no loss, no dup");
        let mut seen = vec![false; MSGS as usize];
        for m in &got {
            let seq = m.id.seq.0;
            prop_assert!(!seen[seq as usize], "seq {} delivered twice", seq);
            seen[seq as usize] = true;
            prop_assert_eq!(m.contiguous(), pattern(m.flow.0, seq, 0, size(seq)));
        }
        prop_assert_eq!(h.metrics().lost_msgs, 0);
        // Send-side accounting is exactly-once too, whichever ack — the
        // packet's own, a retransmission's, a superseded cookie's — settled
        // it, and nothing is remembered once everything has settled.
        let sent = sent.borrow();
        prop_assert_eq!(sent.len(), MSGS as usize, "every message completed");
        prop_assert!(sent.values().all(|&n| n == 1), "on_sent fired twice: {:?}", sent);
        prop_assert!(h.is_drained());
        prop_assert_eq!(h.superseded_cookies(), 0);
    }
}

#[test]
fn a_late_ack_repairs_a_spurious_timeout() {
    // Nothing is lost, but one packet in five — data or ack — is held back
    // for 100 us: longer than a 16 KiB packet's timeout (its 26 us flight
    // plus the initial 50 us), shorter than that plus the 93 us its
    // retransmission needs to be injected and acknowledged. So every
    // timeout on this wire is spurious, and the original's ack is back
    // first: it settles the retransmission and gives the rail its health
    // back.
    let recover = EngineConfig {
        reliability: ReliabilityMode::Recover,
        ..EngineConfig::default()
    };
    let mut spurious = 0;
    for seed in 1..=5 {
        let plan = FaultPlan::new(seed).with_reorder(0.2, SimDuration::from_micros(100));
        let engine = EngineKind::with_config(recover.clone());
        let (mut c, sent) = logged_lossy_cluster(engine, plan);
        let h = c.handle(0).opt().expect("optimizing engine").clone();
        let (src, dst) = (c.nodes[0], c.nodes[1]);
        let f = h.open_flow(dst, TrafficClass::DEFAULT);
        for i in 0..40u32 {
            c.sim.inject(src, |ctx| {
                let body = pattern(f.0, i, 0, 16 << 10);
                h.send(
                    ctx,
                    f,
                    MessageBuilder::new().pack_cheaper(&body).build_parts(),
                );
            });
            c.run_for(SimDuration::from_micros(300));
        }
        c.drain();
        let got = c.handle(1).take_delivered();
        let seqs: Vec<u32> = got.iter().map(|m| m.id.seq.0).collect();
        assert_eq!(seqs, (0..40).collect::<Vec<_>>(), "seed {seed}");
        let sent = sent.borrow();
        assert_eq!(sent.len(), 40, "seed {seed}: every send completed");
        assert!(sent.values().all(|&n| n == 1), "seed {seed}: {sent:?}");
        let m = h.metrics();
        assert!(
            m.timeouts > 0,
            "seed {seed}: the wire must hold packets back"
        );
        // (All but the odd one whose retransmission was held back as well
        // and came second.)
        assert!(m.spurious_timeouts <= m.timeouts, "seed {seed}");
        assert!(
            2 * m.spurious_timeouts > m.timeouts,
            "seed {seed}: most repaired"
        );
        assert_eq!((m.lost_msgs, m.rails_dead), (0, 0), "seed {seed}");
        let degraded = |l: &str| l.starts_with("state/rails/degraded") && l.ends_with(" 1");
        assert!(!h.debug_report().lines().any(degraded), "seed {seed}");
        assert!(h.is_drained(), "seed {seed}");
        assert_eq!(h.superseded_cookies(), 0, "seed {seed}");
        spurious += m.spurious_timeouts;
    }
    assert!(spurious > 10, "late acks must occur: {spurious}");
}

#[test]
fn a_fan_in_that_outlasts_every_timeout_kills_no_rail() {
    // fat_tree(4), fifteen hosts each sending two 16 KiB messages to the
    // sixteenth at once, default timers (50 us / 6). The fabric shares the
    // receiver's link fairly, so every transfer finishes near the end of
    // the 2 ms incast and no sender hears an ack until then. The fixed
    // 50 us spent six attempts on every packet inside 3.2 ms, retransmitted
    // 150 times, declared all fifteen (live) rails dead and lost half the
    // messages. Now a packet's clock starts when it leaves the NIC, the
    // first late ack is heard (it settles the retransmission and widens
    // the margin), and a rail that answers anyone is not given up.
    const SENDERS: usize = 15;
    const MSGS: u32 = 2;
    let config = EngineConfig {
        reliability: ReliabilityMode::Recover,
        ..EngineConfig::default()
    };
    let tech = Technology::MyrinetMx;
    let topo = Topology::fat_tree(4, nicdrv::calib::params(tech).link_profile());
    let spec = ClusterSpec::new(SENDERS + 1, vec![tech]).config(config.clone());
    let mut c = Cluster::build_with_topologies(&spec, vec![Some(topo)], vec![]);
    let sink = c.nodes[SENDERS];
    for s in 0..SENDERS {
        let h = c.handle(s).clone();
        let f = h.open_flow(sink, TrafficClass::DEFAULT);
        c.sim.inject(c.nodes[s], |ctx| {
            for i in 0..MSGS {
                let body = pattern(f.0, i, s as u16, 16 << 10);
                h.send(
                    ctx,
                    f,
                    MessageBuilder::new().pack_cheaper(&body).build_parts(),
                );
            }
        });
    }
    let end = c.drain();
    assert_eq!(
        c.handle(SENDERS).delivered_count(),
        SENDERS as u64 * u64::from(MSGS),
        "everything delivered"
    );
    let (mut packets, mut retransmits, mut spurious) = (0, 0, 0);
    for s in 0..SENDERS {
        let h = c.handle(s).opt().expect("optimizing engine");
        let m = h.metrics();
        assert_eq!((m.rails_dead, m.lost_msgs), (0, 0), "sender {s}");
        assert!(h.is_drained() && h.superseded_cookies() == 0, "sender {s}");
        packets += m.packets_sent;
        retransmits += m.retransmits;
        spurious += m.spurious_timeouts;
    }
    assert!(spurious > 0, "late acks must have been heard");
    // Acks are silent until the incast ends, so every timeout before that
    // is spurious and only backoff bounds them: a packet that left at the
    // start and is answered at the end times out after 1, 3, 7, 15, ...
    // first timeouts, and its first is no shorter than the initial margin
    // plus the time its 16 KiB take to be received. However many of those
    // fit into the run (five into 2.9 ms), that many times a packet may
    // be re-sent and no more; a backoff that stops doubling fails this.
    // (Fewer retransmissions than packets, which ISSUE 22 asked for, is
    // not to be had from an ack-clocked estimator on this fabric: 105 of
    // 30.)
    let cost = nicdrv::CostModel::from_params(&nicdrv::calib::params(tech));
    let first = config.retransmit_timeout + cost.rx_time(16 << 10);
    let run = end.since(SimTime::ZERO);
    let per_packet = (1..).take_while(|&k| first * ((1 << k) - 1) < run).count() as u64;
    assert!(
        retransmits <= per_packet * packets,
        "{retransmits} retransmissions of {packets} packets"
    );
}

#[test]
fn a_clean_wire_never_times_out() {
    // Nothing is lost, so nothing may time out — whatever the rail and
    // whatever the size. The fixed 50 us was shorter than the unloaded
    // round trip of an MX packet above 8 KiB (and of every TCP packet),
    // a message of several packets waits in its own NIC's queue for
    // longer than that, and a short packet behind a long one waits for
    // it again at the peer's receive engine.
    for tech in nicdrv::calib::REAL_TECHNOLOGIES
        .into_iter()
        .chain([Technology::Synthetic])
    {
        for size in [64, 1 << 10, 16 << 10, 256 << 10] {
            let config = EngineConfig {
                reliability: ReliabilityMode::Recover,
                ..EngineConfig::default()
            };
            let spec = ClusterSpec::new(2, vec![tech]).config(config);
            let mut c = Cluster::build(&spec, vec![]);
            let h = c.handle(0).opt().expect("optimizing engine").clone();
            let (src, dst) = (c.nodes[0], c.nodes[1]);
            let f = h.open_flow(dst, TrafficClass::DEFAULT);
            c.sim.inject(src, |ctx| {
                for i in 0..4 {
                    let body = pattern(f.0, i, 0, size);
                    h.send(
                        ctx,
                        f,
                        MessageBuilder::new().pack_cheaper(&body).build_parts(),
                    );
                }
            });
            c.drain();
            let m = h.metrics();
            assert_eq!(c.handle(1).delivered_count(), 4, "{tech:?} {size}");
            assert_eq!(
                (m.timeouts, m.retransmits, m.spurious_timeouts),
                (0, 0, 0),
                "{tech:?} {size} B: a clean wire timed out"
            );
            assert!(h.is_drained(), "{tech:?} {size}");
        }
    }
}

#[test]
fn a_lost_rendezvous_handshake_is_asked_again() {
    // Forty bodies that each negotiate first, on a wire that drops one
    // packet in twenty — requests and grants among them. Nothing tracked
    // the handshake once: one lost control packet left its fragment
    // waiting for ever, in-order delivery stopped behind it (1 to 22 of
    // 40 arrived on these seeds), and no counter moved.
    const MSGS: u32 = 40;
    let mut asked_again = 0;
    for seed in 1..=7 {
        let plan = FaultPlan::new(seed).with_loss(0.05);
        let mut c = lossy_cluster(engine(ReliabilityMode::Recover), plan);
        let h = c.handle(0).opt().expect("optimizing engine").clone();
        let (src, dst) = (c.nodes[0], c.nodes[1]);
        let f = h.open_flow(dst, TrafficClass::DEFAULT);
        c.sim.inject(src, |ctx| {
            for i in 0..MSGS {
                let body = pattern(f.0, i, 0, 2048);
                h.send(
                    ctx,
                    f,
                    MessageBuilder::new().pack_cheaper(&body).build_parts(),
                );
            }
        });
        c.drain();
        let got = c.handle(1).take_delivered();
        let seqs: Vec<u32> = got.iter().map(|m| m.id.seq.0).collect();
        assert_eq!(seqs, (0..MSGS).collect::<Vec<_>>(), "seed {seed}");
        for m in &got {
            assert_eq!(m.contiguous(), pattern(f.0, m.id.seq.0, 0, 2048));
        }
        assert_eq!(h.backlog_bytes(), 0, "seed {seed}: nothing stranded");
        assert!(h.is_drained(), "seed {seed}");
        let m = h.metrics();
        assert_eq!((m.rndv_requests, m.lost_msgs), (u64::from(MSGS), 0));
        assert!(
            h.flight_dump().is_none(),
            "seed {seed}: recovered, no fault"
        );
        asked_again += m.rndv_rerequests;
    }
    assert!(asked_again > 7, "the wire must injure the handshake");
}

#[test]
fn eager_flows_complete_under_loss_with_madrel() {
    // The E2-style scenario, but on a 2%-lossy wire: recovery must make it
    // indistinguishable (in delivery terms) from a lossless run.
    let (mut cluster, tx, rx) = eager_flows(
        &ClusterSpec::mx_pair().engine(engine(ReliabilityMode::Recover)),
        4,
        64,
        SimDuration::from_micros(10),
        100,
        5,
    );
    cluster.set_fault_plan(0, FaultPlan::new(5).with_loss(0.02));
    cluster.drain();
    let sent = tx.borrow().sent;
    assert_eq!(sent, 400);
    assert_eq!(rx.borrow().received, sent, "every flow completes");
    assert!(rx.borrow().integrity.all_ok(), "payloads byte-exact");
    let m = cluster.handle(0).metrics();
    assert!(m.retransmits > 0, "completion was earned, not lucky");
    assert_eq!(m.lost_msgs, 0);
}

#[test]
fn is_drained_never_holds_while_packets_await_their_ack() {
    // A lost data packet leaves nothing in the backlog, the NIC idle and
    // the control queue empty: only the retransmit tracker still knows.
    let plan = FaultPlan::new(9).with_loss(0.2);
    let mut c = lossy_cluster(engine_of_short_packets(ReliabilityMode::Recover), plan);
    let h = c.handle(0).opt().expect("optimizing engine").clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let f = h.open_flow(dst, TrafficClass::DEFAULT);
    c.sim.inject(src, |ctx| {
        for i in 0..100u32 {
            let body = pattern(f.0, i, 0, 96);
            h.send(
                ctx,
                f,
                MessageBuilder::new().pack_cheaper(&body).build_parts(),
            );
        }
    });
    let mut steps_unacked = 0;
    while !h.is_drained() {
        c.run_for(SimDuration::from_micros(2));
        if h.unacked_packets() > 0 {
            assert!(!h.is_drained(), "drained with unacked packets");
            steps_unacked += 1;
        }
    }
    assert!(
        steps_unacked > 0,
        "the run must pass through unacked states"
    );
    assert_eq!(h.unacked_packets(), 0);
    assert_eq!(c.handle(1).delivered_count(), 100);
    assert!(h.metrics().retransmits > 0, "the plan must injure the wire");
}

/// `h`'s `state` registry section agrees with what the handle says:
/// drained exactly when no message, packet or control message is
/// pending; the same unacked packets and superseded cookies. Returns the
/// section's (unacked, superseded) gauges.
fn state_agrees(h: &EngineHandle) -> (u64, u64) {
    let mut reg = MetricsRegistry::new();
    h.register_metrics(&mut reg, "");
    let doc = reg.to_json();
    let state = doc
        .get("sections")
        .and_then(|s| s.get("state"))
        .expect("state section");
    let gauge = |key| state.get(key).and_then(Json::as_u64).expect(key);
    let pending = gauge("backlog_msgs") + gauge("inflight_pkts") + gauge("ctrl_queue");
    assert_eq!(pending == 0, h.is_drained(), "{}", state.render());
    let (unacked, superseded) = (gauge("unacked_pkts"), gauge("superseded_cookies"));
    assert_eq!(unacked, h.unacked_packets() as u64);
    assert_eq!(superseded, h.superseded_cookies() as u64);
    (unacked, superseded)
}

#[test]
fn the_state_section_agrees_with_the_handle_mid_run_and_at_the_end() {
    let plan = FaultPlan::new(9).with_loss(0.2);
    let mut c = lossy_cluster(engine_of_short_packets(ReliabilityMode::Recover), plan);
    let h = c.handle(0).opt().expect("optimizing engine").clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let f = h.open_flow(dst, TrafficClass::DEFAULT);
    c.sim.inject(src, |ctx| {
        for i in 0..100u32 {
            let body = pattern(f.0, i, 0, 96);
            h.send(
                ctx,
                f,
                MessageBuilder::new().pack_cheaper(&body).build_parts(),
            );
        }
    });
    let (mut unacked, mut superseded) = (0, 0);
    while !h.is_drained() {
        c.run_for(SimDuration::from_micros(2));
        let (u, s) = state_agrees(&h);
        (unacked, superseded) = (unacked.max(u), superseded.max(s));
    }
    assert!(unacked > 0, "the run must pass through unacked states");
    assert!(superseded > 0, "and through timed-out cookies");
    c.drain();
    assert_eq!(state_agrees(&h), (0, 0));
    assert!(h.is_drained());
    assert_eq!(c.handle(1).delivered_count(), 100);
}

/// Submit 200 messages of 96 B at once on a new flow from node 0 to node
/// 1, and return node 0's engine.
fn burst_of_small_messages(c: &mut Cluster) -> EngineHandle {
    let h = c.handle(0).opt().expect("optimizing engine").clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let f = h.open_flow(dst, TrafficClass::DEFAULT);
    c.sim.inject(src, |ctx| {
        for i in 0..200u32 {
            h.send(
                ctx,
                f,
                MessageBuilder::new()
                    .pack_cheaper(&pattern(f.0, i, 0, 96))
                    .build_parts(),
            );
        }
    });
    h
}

#[test]
fn a_message_no_rail_can_carry_trips_the_flight_recorder() {
    // The only rail dies mid-burst: the packet that spends its retry
    // budget on it finds no live rail left, and its messages are lost —
    // in the sweep that declares the rail dead, so the recorder names the
    // loss.
    let plan = FaultPlan::new(11).with_death(SimTime::from_nanos(20_000));
    let mut c = lossy_cluster(engine_of_short_packets(ReliabilityMode::Recover), plan);
    let h = burst_of_small_messages(&mut c);
    c.drain(); // must not hang on a dead rail
    assert!(c.handle(1).delivered_count() < 200, "losses stay lost");
    let m = h.metrics();
    assert!(m.timeouts > 0, "loss detected via ack timeouts");
    assert!(m.lost_msgs > 0 && m.rails_dead == 1, "{}", h.debug_report());
    let dump = h
        .flight_dump()
        .expect("the first lost message captures a dump");
    assert_eq!(dump.trigger, Fault::LostMsg);
    assert_eq!(dump.trigger.label(), "lost_msgs");
}

#[test]
fn a_dead_rail_trips_the_flight_recorder() {
    // Rail 0 of two dies mid-burst: what it held is rerouted to rail 1,
    // nothing is lost, and the rail's death is the fault on record.
    let spec = ClusterSpec::new(2, vec![Technology::MyrinetMx; 2])
        .engine(engine_of_short_packets(ReliabilityMode::Recover));
    let mut c = Cluster::build(&spec, vec![]);
    c.set_fault_plan(
        0,
        FaultPlan::new(11).with_death(SimTime::from_nanos(20_000)),
    );
    let h = burst_of_small_messages(&mut c);
    c.drain();
    assert_eq!(c.handle(1).delivered_count(), 200);
    let m = h.metrics();
    assert_eq!((m.rails_dead, m.lost_msgs), (1, 0), "{}", h.debug_report());
    let dump = h.flight_dump().expect("the rail's death captures a dump");
    assert_eq!(dump.trigger, Fault::RailDead);
    assert_eq!(dump.trigger.label(), "rails_dead");
}

#[test]
fn same_seed_lossy_runs_export_identical_traces() {
    let run = || {
        let mut c = Cluster::build(
            &ClusterSpec::mx_pair()
                .engine(engine(ReliabilityMode::Recover))
                .with_tracing(1 << 14),
            vec![],
        );
        c.set_fault_plan(0, FaultPlan::new(21).with_loss(0.03).with_dup(0.05));
        let h = c.handle(0).clone();
        let (src, dst) = (c.nodes[0], c.nodes[1]);
        let f = h.open_flow(dst, TrafficClass::DEFAULT);
        c.sim.inject(src, |ctx| {
            for i in 0..60u32 {
                h.send(
                    ctx,
                    f,
                    MessageBuilder::new()
                        .pack_cheaper(&pattern(f.0, i, 0, 128))
                        .build_parts(),
                );
            }
        });
        c.drain();
        let drops: u64 = c
            .nics
            .iter()
            .flatten()
            .map(|&n| c.sim.nic(n).stats.wire_drops)
            .sum();
        assert!(drops > 0, "the plan must actually injure the wire");
        assert_eq!(c.handle(1).delivered_count(), 60);
        c.export_chrome_trace().json
    };
    assert_eq!(run(), run(), "same seed, byte-identical export");
}

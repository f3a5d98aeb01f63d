//! madrel end-to-end: ack/retransmit recovery under seeded wire faults.
//!
//! * Property: any mix of drops and duplicates drawn from a seeded
//!   [`FaultPlan`] yields exactly-once, byte-exact delivery per
//!   `(flow, seq)` when recovery is on — for eager bodies and for bodies
//!   that negotiate a rendezvous first.
//! * Regression: a lost rendezvous request or grant is asked again; the
//!   handshake never strands a message.
//! * Integration: the E2-style eager-flow workload completes fully under
//!   loss with madrel on; with recovery off (Detect), the loss trips the
//!   flight recorder instead of silently vanishing.
//! * Determinism: two same-seed lossy runs export byte-identical traces.

use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use madeleine::trace::FlightTrigger;
use madeleine::{EngineConfig, ReliabilityMode};
use madware::pattern;
use madware::scenario::eager_flows;
use proptest::prelude::*;
use simnet::{FaultPlan, SimDuration};

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

fn lossy_cluster(engine: EngineKind, plan: FaultPlan) -> Cluster {
    let mut c = Cluster::build(&ClusterSpec::mx_pair().engine(engine), vec![]);
    c.set_fault_plan(0, plan);
    c
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
    ) {
        const MSGS: u32 = 30;
        // Bit `i` of `sizes`: message `i` is an eager body, or one that
        // asks first — the request and the grant are droppable too.
        let size = |i: u32| if sizes >> i & 1 == 0 { 200 } else { 2048 };
        let plan = FaultPlan::new(seed)
            .with_loss(f64::from(loss_pm) / 1000.0)
            .with_dup(f64::from(dup_pm) / 1000.0)
            .with_reorder(0.15, SimDuration::from_micros(2));
        // The property is idempotence, not patience: where three packets
        // in ten are lost a handshake fails four times in ten, and the
        // default budget of six attempts would give the only rail up.
        let patient = EngineConfig { retry_budget: 12, ..config(ReliabilityMode::Recover) };
        let mut c = lossy_cluster(EngineKind::with_config(patient), plan);
        let h = c.handle(0).clone();
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
        prop_assert_eq!(c.handle(0).metrics().lost_msgs, 0);
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
fn a_missed_grant_trips_the_flight_recorder_under_detect() {
    let plan = FaultPlan::new(7).with_loss(0.05);
    let mut c = lossy_cluster(engine(ReliabilityMode::Detect), plan);
    let h = c.handle(0).opt().expect("optimizing engine").clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let f = h.open_flow(dst, TrafficClass::DEFAULT);
    c.sim.inject(src, |ctx| {
        let body = pattern(f.0, 0, 0, 2048);
        // Seed 7's plan drops this handshake on its first crossing.
        h.send(
            ctx,
            f,
            MessageBuilder::new().pack_cheaper(&body).build_parts(),
        );
    });
    c.drain(); // must not hang: Detect reports, it does not retry
    assert_eq!(c.handle(1).delivered_count(), 0);
    assert_eq!(h.metrics().rndv_rerequests, 0, "nothing is re-sent");
    let dump = h.flight_dump().expect("the missed grant is reported");
    assert_eq!(dump.trigger, FlightTrigger::Timeout);
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
    let mut c = lossy_cluster(engine(ReliabilityMode::Recover), plan);
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

#[test]
fn loss_without_recovery_trips_the_flight_recorder() {
    // Same wire, recovery off (Detect): messages go missing, and the
    // first ack timeout captures a flight dump instead of hanging drain.
    let plan = FaultPlan::new(11).with_loss(0.25);
    let mut c = lossy_cluster(engine(ReliabilityMode::Detect), plan);
    let h = c.handle(0).clone();
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
    c.drain(); // Detect mode must not hang on lost packets
    let opt = c.handle(0).opt().expect("optimizing engine").clone();
    assert!(c.handle(1).delivered_count() < 200, "losses stay lost");
    assert!(opt.metrics().timeouts > 0, "loss detected via ack timeouts");
    let dump = opt
        .flight_dump()
        .expect("first timeout captures a flight dump");
    assert_eq!(dump.trigger, FlightTrigger::Timeout);
    assert!(opt.fault_counts()[3] > 0, "timeout fault counter advanced");
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

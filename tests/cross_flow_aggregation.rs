//! Integration: the headline optimization — cross-flow aggregation —
//! observed at the wire level and compared against the legacy engine.

use std::collections::{BTreeMap, BTreeSet};

use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::message::MessageBuilder;
use madeleine::trace::EngineEvent;
use madware::pattern;
use simnet::{SimDuration, SimTime, TraceEvent};

fn burst_cluster(engine: EngineKind, flows: usize, msgs: u32, size: usize) -> (Cluster, u64) {
    let spec = ClusterSpec::mx_pair().engine(engine).with_tracing(1 << 16);
    let mut c = Cluster::build(&spec, vec![]);
    let h = c.handle(0).clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let fl: Vec<_> = (0..flows)
        .map(|_| h.open_flow(dst, TrafficClass::DEFAULT))
        .collect();
    c.sim.inject(src, |ctx| {
        for i in 0..msgs {
            for f in &fl {
                h.send(
                    ctx,
                    *f,
                    MessageBuilder::new()
                        .pack_cheaper(&pattern(f.0, i, 0, size))
                        .build_parts(),
                );
            }
        }
    });
    let end = c.drain();
    (c, end.as_nanos())
}

#[test]
fn packets_carry_chunks_from_multiple_flows() {
    let (c, _) = burst_cluster(EngineKind::optimizing(), 6, 20, 48);
    let m = c.handle(0).metrics();
    let per_packet = m.chunks_sent as f64 / m.packets_sent as f64;
    assert!(per_packet > 3.0, "{per_packet} chunks per packet");
    // Which flows each packet carried, from the chunk ↔ packet records.
    let sink = c.handle(0).opt().expect("optimizing").trace_snapshot();
    let mut packets: BTreeMap<u64, (BTreeSet<FlowId>, u64)> = BTreeMap::new();
    for rec in sink.iter() {
        if let EngineEvent::ChunkBound { flow, cookie, .. } = rec.event {
            let (flows, chunks) = packets.entry(cookie).or_default();
            flows.insert(flow);
            *chunks += 1;
        }
    }
    assert_eq!(
        packets.len() as u64,
        m.packets_sent,
        "every packet recorded"
    );
    // Packets that mix flows carry nearly every chunk: at most the first
    // message, sent alone to an idle NIC, does not ride with another flow.
    let mixed: u64 = packets
        .values()
        .filter(|(flows, _)| flows.len() > 1)
        .map(|&(_, chunks)| chunks)
        .sum();
    assert!(mixed + 1 >= m.chunks_sent, "{packets:?}");
    // All delivered intact and complete.
    assert_eq!(c.handle(1).delivered_count(), 120);
}

#[test]
fn legacy_never_crosses_flows() {
    let (c, _) = burst_cluster(EngineKind::legacy(), 6, 20, 48);
    let m = c.handle(0).metrics();
    assert!((m.aggregation_ratio() - 1.0).abs() < 1e-9);
    assert_eq!(m.packets_sent, 120);
}

#[test]
fn optimizer_beats_legacy_on_makespan_and_packets() {
    let (copt, t_opt) = burst_cluster(EngineKind::optimizing(), 8, 25, 32);
    let (cleg, t_leg) = burst_cluster(EngineKind::legacy(), 8, 25, 32);
    assert!(
        t_leg as f64 > 1.8 * t_opt as f64,
        "legacy {}ns vs optimizer {}ns",
        t_leg,
        t_opt
    );
    assert!(copt.handle(0).metrics().packets_sent * 3 < cleg.handle(0).metrics().packets_sent);
}

#[test]
fn wire_trace_shows_nic_idle_driven_sends() {
    let (c, _) = burst_cluster(EngineKind::optimizing(), 4, 25, 64);
    let trace = c.sim.trace();
    let submits = trace.count_matching(|e| matches!(e, TraceEvent::TxSubmitted { .. }));
    let idles = trace.count_matching(|e| matches!(e, TraceEvent::NicIdle { .. }));
    assert!(submits > 0 && idles > 0);
    // Far fewer wire submissions than the 100 application messages.
    assert!(submits < 60, "submits {submits}");
}

#[test]
fn aggregated_payloads_survive_byte_exact() {
    let (c, _) = burst_cluster(EngineKind::optimizing(), 5, 30, 97);
    let got = c.handle(1).take_delivered();
    assert_eq!(got.len(), 150);
    for msg in &got {
        assert_eq!(
            msg.contiguous(),
            pattern(msg.flow.0, msg.id.seq.0, 0, 97),
            "corrupt payload in {}",
            msg.id
        );
    }
    assert_eq!(c.handle(1).receiver_stats().express_violations, 0);
    let _ = SimTime::ZERO;
}

#[test]
fn parked_rendezvous_requests_leave_the_window_to_the_data() {
    // A thousand flows each open with a 33 KiB body — on an MX rail, a
    // rendezvous — and follow it with forty messages of 64 B, all at
    // once. Pack order reaches a flow when the ones before it have
    // drained; by then its backlog is milliseconds old, old data outbids
    // the request (a request's value does not grow with age), and the
    // request waits while the flow's small messages leave. Requests pile
    // up at the head of the walk. While each counted as a window entry
    // they took the 64 slots from the data one by one: 6.30 chunks per
    // packet over this span before requests were offered beside the
    // window (5.2 on madclock's `flowscale_drain`). They no longer do: as
    // long as the sender holds more than a window of small messages,
    // packets leave full — and full is the window (58.7 chunks per packet
    // over this span; 15 while a packet took at most 16 chunks).
    const FLOWS: usize = 1024;
    const SMALL: u32 = 40;
    const BODY: usize = 33 << 10;
    let mut c = Cluster::build(&ClusterSpec::mx_pair(), vec![]);
    let h = c.handle(0).opt().expect("optimizing engine").clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let flows: Vec<_> = (0..FLOWS)
        .map(|_| h.open_flow(dst, TrafficClass::DEFAULT))
        .collect();
    let size = |seq: u32| if seq == 0 { BODY } else { 64 };
    c.sim.inject(src, |ctx| {
        for f in &flows {
            for seq in 0..=SMALL {
                let body = pattern(f.0, seq, 0, size(seq));
                h.send(
                    ctx,
                    *f,
                    MessageBuilder::new().pack_cheaper(&body).build_parts(),
                );
            }
        }
    });
    // Chunks sent bound the small messages sent from above, so this span
    // ends no later than the one in which 64 of them are still pending.
    let small = FLOWS as u64 * u64::from(SMALL);
    let mut in_span = (0, 0);
    while !h.is_drained() {
        c.run_for(SimDuration::from_micros(5));
        let m = h.metrics();
        if small - m.chunks_sent.min(small) > 64 {
            in_span = (m.chunks_sent, m.packets_sent);
        }
    }
    c.drain();
    let ratio = in_span.0 as f64 / in_span.1 as f64;
    assert!(
        in_span.0 > small / 2,
        "the span covers the burst: {in_span:?}"
    );
    assert!(ratio >= 32.0, "{ratio:.2} chunks per packet, {in_span:?}");
    let m = h.metrics();
    assert_eq!(m.rndv_requests, FLOWS as u64);
    assert_eq!(m.rndv_grants, FLOWS as u64, "every request was granted");
    let got = c.handle(1).take_delivered();
    assert_eq!(got.len(), FLOWS * (SMALL as usize + 1));
    let mut next = vec![0u32; FLOWS];
    for msg in &got {
        let seq = msg.id.seq.0;
        assert_eq!(seq, next[msg.flow.0 as usize], "{}: once, in order", msg.id);
        next[msg.flow.0 as usize] += 1;
        assert_eq!(msg.contiguous(), pattern(msg.flow.0, seq, 0, size(seq)));
    }
}

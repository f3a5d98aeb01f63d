//! Integration: the headline optimization — cross-flow aggregation —
//! observed at the wire level and compared against the legacy engine.

use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use madware::pattern;
use simnet::{SimTime, TraceEvent};

fn burst_cluster(engine: EngineKind, flows: usize, msgs: u32, size: usize) -> (Cluster, u64) {
    let mut spec = ClusterSpec::mx_pair().engine(engine);
    spec.trace = Some(1 << 16);
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
    assert!(
        m.aggregation_ratio() > 3.0,
        "ratio {}",
        m.aggregation_ratio()
    );
    // Multi-chunk packets dominate the histogram.
    let multi: u64 = m.agg_histogram[2..].iter().sum();
    assert!(
        multi > m.agg_histogram[1],
        "histogram {:?}",
        m.agg_histogram
    );
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

//! Integration tests for madtrace: the engine event sink, the decision
//! log, the metrics recording paths it rides along with
//! (`strategy_wins`, `backlog_depth`), the shape of `debug_report()` (the
//! metrics registry as text),
//! and the flight recorder (triggered deterministically by injecting a
//! malformed wire packet).

use madeleine::harness::{Cluster, ClusterSpec};
use madeleine::proto::{encode_packet, ChunkHeader, WireChunk};
use madeleine::trace::EngineEvent;
use madeleine::{
    flatten_registry, Fault, FlowId, Json, MessageBuilder, MetricsRegistry, TrafficClass,
};
use simnet::{NodeId, SimDuration, TxMode, TxRequest, WirePacket};

/// A traced two-node MX cluster with `msgs` eager messages submitted
/// back-to-back on one flow (backlog forms, so activations see depth > 0).
fn traced_run(msgs: usize) -> Cluster {
    let mut c = Cluster::build(&ClusterSpec::mx_pair().with_tracing(4096), vec![]);
    let src = c.nodes[0];
    let dst = c.nodes[1];
    let h = c.handles[0].clone();
    let flow = h.open_flow(dst, TrafficClass::DEFAULT);
    for i in 0..msgs {
        c.sim.inject(src, |ctx| {
            h.send(
                ctx,
                flow,
                MessageBuilder::new()
                    .pack_cheaper(&[i as u8; 48])
                    .build_parts(),
            )
        });
    }
    c.drain();
    c
}

#[test]
fn strategy_wins_matches_plan_won_events() {
    let c = traced_run(12);
    let m = c.handle(0).metrics();
    let sink = c
        .handle(0)
        .opt()
        .expect("optimizing engine")
        .trace_snapshot();

    let total_wins: u64 = m.strategy_wins.values().sum();
    assert!(total_wins > 0, "some strategy must have won");
    let plan_won = sink.count_matching(|e| matches!(e, EngineEvent::PlanWon { .. }));
    assert_eq!(
        total_wins as usize, plan_won,
        "every strategy_wins increment must have a PlanWon event"
    );

    // Each winner named in the decision log is tallied in the metrics.
    for rec in sink.iter() {
        if let EngineEvent::PlanWon { strategy, .. } = rec.event {
            assert!(
                m.strategy_wins.contains_key(strategy),
                "winner {strategy} missing from strategy_wins"
            );
        }
    }
}

#[test]
fn backlog_depth_matches_activation_start_events() {
    let c = traced_run(12);
    let m = c.handle(0).metrics();
    let sink = c
        .handle(0)
        .opt()
        .expect("optimizing engine")
        .trace_snapshot();

    let starts: Vec<u32> = sink
        .iter()
        .filter_map(|r| match r.event {
            EngineEvent::ActivationStart { backlog_depth, .. } => Some(backlog_depth),
            _ => None,
        })
        .collect();
    assert!(!starts.is_empty(), "activations must be traced");
    assert_eq!(
        m.backlog_depth.count() as usize,
        starts.len(),
        "one backlog sample per ActivationStart"
    );
    // Back-to-back submissions at t=0 must build a visible backlog.
    let max_traced = *starts.iter().max().expect("nonempty") as f64;
    assert!(max_traced >= 2.0, "backlog never formed: {starts:?}");
    assert_eq!(m.backlog_depth.max(), max_traced, "metrics and trace agree");
}

#[test]
fn debug_report_has_the_golden_shape() {
    let c = traced_run(4);
    let report = c.handle(0).opt().expect("optimizing engine").debug_report();
    // The health line first (flight recorder armed on a clean run), then
    // the registry: the trace ring's retained/dropped leaves, the wins.
    assert!(
        report.starts_with(
            "health: proto_errors=0 driver_rejections=0 express_violations=0 class_clamped=0 \
             lost_msgs=0 rails_dead=0\n"
        ),
        "missing health line:\n{report}"
    );
    assert!(
        report.contains("\nstate/recorder armed\n"),
        "missing recorder status:\n{report}"
    );
    assert!(
        report.contains("\ntrace/retained ") && report.contains("\ntrace/dropped 0\n"),
        "missing trace status lines:\n{report}"
    );
    assert!(
        report.contains("\nengine/strategy_wins/"),
        "missing wins:\n{report}"
    );

    // Disabled tracing has no ring to report on.
    let c2 = Cluster::build(&ClusterSpec::mx_pair(), vec![]);
    let report2 = c2
        .handle(0)
        .opt()
        .expect("optimizing engine")
        .debug_report();
    assert!(
        !report2.contains("\ntrace/"),
        "a disabled ring must not report:\n{report2}"
    );
}

/// One line of a debug report as the leaf it names: section, the
/// flattener's family name, index label and rendered value.
fn report_leaf(line: &str) -> (String, String, Option<String>, String) {
    let (key, value) = line.split_once(' ').expect("`key value`");
    let (key, index) = match key.split_once('[') {
        Some((key, index)) => (key, Some(index.trim_end_matches(']').to_string())),
        None => (key, None),
    };
    let (section, path) = key.split_once('/').expect("`section/path`");
    let family = format!("madeleine_{}", path.replace('/', "_"));
    (section.to_string(), family, index, value.to_string())
}

#[test]
fn every_registry_leaf_is_one_line_of_the_debug_report() {
    let mut c = Cluster::build(&ClusterSpec::mx_pair().with_tracing(4096), vec![]);
    c.enable_sampler(SimDuration::from_micros(5));
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let h = c.handles[0].clone();
    let flows = [
        h.open_flow(dst, TrafficClass::DEFAULT),
        h.open_flow(dst, TrafficClass::CONTROL),
    ];
    for i in 0..8u8 {
        let flow = flows[usize::from(i) % flows.len()];
        c.sim.inject(src, |ctx| {
            h.send(
                ctx,
                flow,
                MessageBuilder::new().pack_cheaper(&[i; 96]).build_parts(),
            )
        });
    }
    c.drain();
    for node in 0..2 {
        let h = c.handle(node).opt().expect("optimizing engine");
        let mut reg = MetricsRegistry::new();
        h.register_metrics(&mut reg, "");
        let report = h.debug_report();
        let mut lines = report.lines();
        assert!(lines.next().is_some_and(|l| l.starts_with("health: ")));
        let leaves: Vec<_> = lines.map(report_leaf).collect();
        let samples = flatten_registry(&reg);
        assert!(samples.len() > 100, "node {node}: {}", samples.len());
        let mut matched = vec![0usize; leaves.len()];
        for s in &samples {
            let label = |k: &str| {
                s.labels
                    .iter()
                    .find(|(l, _)| l == k)
                    .map(|(_, v)| v.clone())
            };
            let want = (
                label("section").expect("section label"),
                s.family.clone(),
                label("index"),
                s.value.render(),
            );
            let at: Vec<usize> = (0..leaves.len()).filter(|&i| leaves[i] == want).collect();
            assert_eq!(at.len(), 1, "node {node}: {want:?} in\n{report}");
            matched[at[0]] += 1;
        }
        // Every other line is a string leaf: no number the registry lacks.
        for (leaf, n) in leaves.iter().zip(&matched) {
            assert!(*n == 1 || leaf.3.parse::<f64>().is_err(), "{leaf:?}");
        }
    }
}

/// A wire packet whose payload cannot possibly decode (shorter than the
/// packet prefix), addressed to node 1's first NIC.
fn malformed_packet(c: &Cluster) -> WirePacket {
    WirePacket {
        src: c.nodes[0],
        dst: c.nodes[1],
        src_nic: c.nics[0][0],
        dst_nic: c.nics[1][0],
        vchan: 0,
        kind: madeleine::proto::KIND_DATA,
        cookie: 0,
        seq: 0,
        ecn: false,
        payload: vec![bytes::Bytes::from_static(&[0xff])],
    }
}

/// The payload of a well-formed data packet that breaks express ordering:
/// half of express fragment 0, then half of fragment 1 of the same message.
fn express_overtaken_payload() -> Vec<bytes::Bytes> {
    let half = ChunkHeader {
        flow: FlowId(7),
        msg_seq: 0,
        frag_index: 0,
        frag_count: 2,
        express: true,
        class: TrafficClass::DEFAULT,
        frag_len: 8,
        offset: 0,
        chunk_len: 4,
        submit_ns: 0,
    };
    let next = ChunkHeader {
        frag_index: 1,
        ..half
    };
    let chunk = |header| WireChunk {
        header,
        data: bytes::Bytes::from_static(b"half"),
    };
    encode_packet(&[chunk(half), chunk(next)], true)
}

#[test]
fn express_violation_reaches_the_engine_counter_on_both_engines() {
    for spec in [ClusterSpec::mx_pair(), ClusterSpec::mx_pair().legacy()] {
        let mut c = Cluster::build(&spec, vec![]);
        // Node 0 puts the packet on the wire itself, under its engine (the
        // legacy handle has no `inject_packet`); the simulator delivers it.
        let (nic, dst_nic) = (c.nics[0][0], c.nics[1][0]);
        c.sim.inject(c.nodes[0], move |ctx| {
            let req = TxRequest {
                dst_nic,
                vchan: 0,
                kind: madeleine::proto::KIND_DATA,
                cookie: 0,
                mode: TxMode::Pio,
                host_prep: SimDuration::ZERO,
                payload: express_overtaken_payload(),
            };
            ctx.submit(nic, req).expect("idle NIC accepts the packet");
        });
        c.drain();
        assert_eq!(c.handle(1).receiver_stats().express_violations, 1);
        assert_eq!(c.handle(1).metrics().express_violations, 1);
        if let Some(h) = c.handle(1).opt() {
            let dump = h.flight_dump().expect("the violation fires the recorder");
            assert_eq!(dump.trigger.label(), "express_violations");
        }
    }
}

#[test]
fn flight_recorder_fires_once_on_proto_error() {
    let mut c = traced_run(4);
    let h1 = c.handle(1).opt().expect("optimizing engine").clone();
    assert!(h1.flight_dump().is_none(), "clean run must not fire");

    let pkt = malformed_packet(&c);
    let nic = c.nics[1][0];
    let receiver = c.nodes[1];
    let h = h1.clone();
    c.sim
        .inject(receiver, move |ctx| h.inject_packet(ctx, nic, pkt));
    c.drain();

    let dump = h1.flight_dump().expect("flight recorder must fire");
    assert_eq!(dump.trigger, Fault::ProtoError);
    assert_eq!(dump.trigger.label(), "proto_errors");
    assert_eq!(dump.node, NodeId(1));

    // A second fault must not re-arm: the artifact keeps the first state.
    let pkt2 = malformed_packet(&c);
    let h = h1.clone();
    c.sim
        .inject(receiver, move |ctx| h.inject_packet(ctx, nic, pkt2));
    c.drain();
    let again = h1.flight_dump().expect("dump is sticky");
    assert_eq!(again.at, dump.at, "recorder fired twice");

    // The engine's own report now says so.
    let report = h1.debug_report();
    let fired = format!(
        "\nstate/recorder/trigger proto_errors\nstate/recorder/at_ns {}\n",
        dump.at.as_nanos()
    );
    assert!(
        report.contains(&fired),
        "report must show the trigger:\n{report}"
    );
}

#[test]
fn flight_dump_artifact_has_the_golden_shape() {
    let mut c = traced_run(4);
    let h1 = c.handle(1).opt().expect("optimizing engine").clone();
    let pkt = malformed_packet(&c);
    let nic = c.nics[1][0];
    let receiver = c.nodes[1];
    let h = h1.clone();
    c.sim
        .inject(receiver, move |ctx| h.inject_packet(ctx, nic, pkt));
    c.drain();

    let dump = h1.flight_dump().expect("fired");
    let text = dump.render();
    assert_eq!(text, dump.render(), "rendering must be deterministic");

    let doc = Json::parse(&text).expect("artifact is valid JSON");
    assert_eq!(
        doc.get("artifact").and_then(|v| v.as_str()),
        Some("madtrace-flight-dump")
    );
    assert_eq!(
        doc.get("trigger").and_then(|v| v.as_str()),
        Some("proto_errors")
    );
    assert_eq!(doc.get("node").and_then(|v| v.as_u64()), Some(1));
    assert!(doc.get("at_ns").and_then(|v| v.as_u64()).is_some());
    assert!(doc.get("report").is_none(), "the registry is the report");
    // The embedded metrics document is the full registry walk.
    let metrics = doc.get("metrics").expect("metrics section");
    assert_eq!(
        metrics.get("artifact").and_then(|v| v.as_str()),
        Some("madtrace-metrics")
    );
    assert_eq!(
        metrics
            .get("sections")
            .and_then(|s| s.get("engine"))
            .and_then(|e| e.get("proto_errors"))
            .and_then(|v| v.as_u64()),
        Some(1),
        "registry must show the fault that fired the recorder"
    );
    let recorder = metrics
        .get("sections")
        .and_then(|s| s.get("state"))
        .and_then(|s| s.get("recorder"))
        .expect("state section");
    assert_eq!(
        recorder.get("trigger").and_then(|v| v.as_str()),
        Some("proto_errors"),
        "the state section must name the trigger"
    );
    assert_eq!(
        recorder.get("at_ns").and_then(|v| v.as_u64()),
        Some(dump.at.as_nanos())
    );
    // Trailing events, each with the (ts, name, args) record shape.
    let events = doc
        .get("events")
        .and_then(|v| v.as_array())
        .expect("events");
    assert!(!events.is_empty(), "the receiving engine traced deliveries");
    for ev in events {
        assert!(ev.get("ts_ns").is_some());
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        assert!(ev.get("args").is_some());
    }
}

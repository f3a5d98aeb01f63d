//! The Chrome exporter as every commit before the streamed one had it —
//! a `Json` value per entry, collected, sorted on `(ts, rank, idx)`,
//! moved into one `traceEvents` vector and rendered — kept, for tests
//! only, as the reference the streamed exporter's bytes are compared
//! against, together with the corpus and the golden file that do the
//! comparing.

use std::collections::HashMap;

use madeleine::json::obj;
use madeleine::trace::{ChromeExport, EngineEvent, EventSink, TopologySummary};
use madeleine::{Cluster, FlowId, Json};
use simnet::{NicId, NodeId, Trace as SimTrace, TraceEvent as SimEvent};

/// Synthetic Chrome thread id for node-level (non-rail) engine events.
const ENGINE_TRACK: u32 = 900;

fn reference_export(
    sim: &SimTrace,
    sinks: &[(NodeId, &EventSink)],
    nics: &[Vec<NicId>],
    topos: &[TopologySummary],
) -> ChromeExport {
    let mut nic_loc: HashMap<u32, (u32, u32)> = HashMap::new();
    for (node, rails) in nics.iter().enumerate() {
        for (rail, nic) in rails.iter().enumerate() {
            nic_loc.insert(nic.0, (node as u32, rail as u32));
        }
    }

    let mut events: Vec<Json> = Vec::new();

    // Metadata: name processes (nodes) and threads (rails + engine track).
    for (node, rails) in nics.iter().enumerate() {
        events.push(meta_event(
            "process_name",
            node as u32,
            None,
            &format!("node{node}"),
        ));
        for rail in 0..rails.len() {
            events.push(meta_event(
                "thread_name",
                node as u32,
                Some(rail as u32),
                &format!("rail{rail}"),
            ));
        }
        events.push(meta_event(
            "thread_name",
            node as u32,
            Some(ENGINE_TRACK),
            "engine",
        ));
    }

    // Timeline entries: (ts_ns, source_rank, index, json...). Each source
    // is already chronological; the sort key keeps merging deterministic.
    let mut timeline: Vec<(u64, u32, usize, Vec<Json>)> = Vec::new();

    // madrel: tally injected wire faults so the export is self-describing
    // about how hostile the run was (also surfaced by `trace-tool info`).
    let (mut wire_drops, mut wire_dups, mut wire_stalls) = (0u64, 0u64, 0u64);
    for (idx, rec) in sim.iter().enumerate() {
        match &rec.event {
            SimEvent::WireDrop { .. } => wire_drops += 1,
            SimEvent::WireDup { .. } => wire_dups += 1,
            SimEvent::WireStall { .. } => wire_stalls += 1,
            _ => {}
        }
        // The unification hook: `TraceEvent::nic()` routes NIC-scoped
        // events onto their rail track; node-scoped events (timers) land
        // on the engine track.
        let (pid, tid) = match rec.event.nic() {
            Some(nic) => match nic_loc.get(&nic.0).copied() {
                Some(loc) => loc,
                None => continue, // NIC outside the exported cluster
            },
            None => match &rec.event {
                SimEvent::TimerFired { node, .. } => (node.0, ENGINE_TRACK),
                _ => continue,
            },
        };
        let args = match &rec.event {
            SimEvent::TxSubmitted { bytes, cookie, .. } => obj()
                .field("bytes", *bytes)
                .field("cookie", *cookie)
                .build(),
            SimEvent::TxDone { cookie, .. }
            | SimEvent::WireDrop { cookie, .. }
            | SimEvent::WireDup { cookie, .. }
            | SimEvent::WireStall { cookie, .. }
            | SimEvent::EcnMark { cookie, .. }
            | SimEvent::FabricDrop { cookie, .. } => obj().field("cookie", *cookie).build(),
            SimEvent::NicIdle { .. } => obj().build(),
            SimEvent::RxDelivered { bytes, kind, .. } => {
                obj().field("bytes", *bytes).field("kind", *kind).build()
            }
            SimEvent::TimerFired { tag, .. } => obj().field("tag", *tag).build(),
        };
        let ts = rec.at.as_nanos();
        timeline.push((
            ts,
            0,
            idx,
            vec![instant_event(rec.event.name(), ts, pid, tid, args)],
        ));
    }

    for (rank, (node, sink)) in sinks.iter().enumerate() {
        // Decision events carry only their activation id; recover the rail
        // from the activation's start event so they land on the rail track.
        let mut act_rail: HashMap<u64, u32> = HashMap::new();
        for rec in sink.iter() {
            if let EngineEvent::ActivationStart { id, rail, .. } = rec.event {
                act_rail.insert(id, rail as u32);
            }
        }
        for (idx, rec) in sink.iter().enumerate() {
            let ts = rec.at.as_nanos();
            let pid = node.0;
            let tid = match &rec.event {
                EngineEvent::ActivationStart { rail, .. }
                | EngineEvent::PacketEncoded { rail, .. } => *rail as u32,
                e => e
                    .activation()
                    .and_then(|a| act_rail.get(&a).copied())
                    .unwrap_or(ENGINE_TRACK),
            };
            let mut entry = vec![instant_event(
                rec.event.name(),
                ts,
                pid,
                tid,
                rec.event.args(),
            )];
            match &rec.event {
                EngineEvent::Submitted { flow, seq, .. } => {
                    entry.push(flow_event(
                        "s",
                        ts,
                        pid,
                        tid,
                        flow_arrow_id(*node, *flow, *seq),
                    ));
                }
                EngineEvent::Delivered { src, flow, seq, .. } => {
                    entry.push(flow_event(
                        "f",
                        ts,
                        pid,
                        tid,
                        flow_arrow_id(*src, *flow, *seq),
                    ));
                }
                _ => {}
            }
            timeline.push((ts, 1 + rank as u32, idx, entry));
        }
    }

    timeline.sort_by_key(|&(ts, rank, idx, _)| (ts, rank, idx));
    for (_, _, _, entry) in timeline {
        events.extend(entry);
    }

    let mut engine_dropped = obj();
    let mut engine_retained = obj();
    for (node, sink) in sinks {
        let key = format!("node{}", node.0);
        engine_dropped = engine_dropped.field(&key, sink.dropped());
        engine_retained = engine_retained.field(&key, sink.len());
    }
    let count = events.len();
    let mut other = obj()
        .field("exporter", "madtrace")
        .field("sim_retained", sim.len())
        .field("sim_dropped", sim.dropped())
        .field("wire_drops", wire_drops)
        .field("wire_dups", wire_dups)
        .field("wire_stalls", wire_stalls)
        .field("engine_retained", engine_retained.build())
        .field("engine_dropped", engine_dropped.build());
    if !topos.is_empty() {
        let entries: Vec<Json> = topos
            .iter()
            .map(|t| {
                obj()
                    .field("name", t.name.as_str())
                    .field("hosts", t.hosts)
                    .field("switches", t.switches)
                    .field("links", t.links)
                    .field("oversub_milli", t.oversub_milli)
                    .build()
            })
            .collect();
        other = other.field("topologies", Json::Arr(entries));
    }
    let doc = obj()
        .field("displayTimeUnit", "ns")
        .field("otherData", other.build())
        .field("traceEvents", Json::Arr(events))
        .build();
    ChromeExport {
        json: doc.render(),
        events: count,
    }
}

fn instant_event(name: &str, ts_ns: u64, pid: u32, tid: u32, args: Json) -> Json {
    obj()
        .field("name", name)
        .field("ph", "i")
        .field("ts", Json::Fixed3(ts_ns))
        .field("pid", pid)
        .field("tid", tid)
        .field("s", "t")
        .field("args", args)
        .build()
}

fn flow_event(ph: &str, ts_ns: u64, pid: u32, tid: u32, id: u64) -> Json {
    let mut b = obj()
        .field("name", "msg")
        .field("cat", "flow")
        .field("ph", ph)
        .field("ts", Json::Fixed3(ts_ns))
        .field("pid", pid)
        .field("tid", tid)
        .field("id", id);
    if ph == "f" {
        b = b.field("bp", "e");
    }
    b.build()
}

fn flow_arrow_id(src: NodeId, flow: FlowId, seq: u32) -> u64 {
    ((src.0 as u64) << 48) | ((flow.0 as u64 & 0xff_ffff) << 24) | (seq as u64 & 0xff_ffff)
}

fn meta_event(name: &str, pid: u32, tid: Option<u32>, value: &str) -> Json {
    let mut b = obj().field("name", name).field("ph", "M").field("pid", pid);
    if let Some(tid) = tid {
        b = b.field("tid", tid);
    }
    b.field("args", obj().field("name", value).build()).build()
}

/// [`reference_export`] over a cluster's live rings, gathered the way
/// `Cluster::export_chrome_trace` gathers them.
fn reference_of(c: &Cluster) -> ChromeExport {
    let held: Vec<_> = c
        .nodes
        .iter()
        .zip(&c.handles)
        .filter_map(|(&n, h)| h.opt().map(|h| (n, h.trace())))
        .collect();
    let sinks: Vec<(NodeId, &EventSink)> = held.iter().map(|(n, s)| (*n, &**s)).collect();
    let topos: Vec<TopologySummary> = c
        .networks
        .iter()
        .filter_map(|&net| c.sim.fabric(net))
        .map(|f| TopologySummary::of(f.topology()))
        .collect();
    reference_export(c.sim.trace(), &sinks, &c.nics, &topos)
}

/// Everything the streamed path promises about one traced run: its bytes
/// are the reference's, its count is what a reader counts, and reading
/// the export back profiles as the live rings do.
fn assert_streamed_equals_reference(c: &Cluster, what: &str) {
    let (streamed, reference) = (c.export_chrome_trace(), reference_of(c));
    assert!(
        streamed.json == reference.json,
        "{what}: exported bytes differ"
    );
    assert_eq!(streamed.events, reference.events, "{what}");
    assert_eq!(
        madeleine::chrome_event_count(&streamed.json),
        Ok(streamed.events),
        "{what}"
    );
    let live = c.prof_input().profile();
    let reread = madeleine::ProfInput::from_chrome(&streamed.json)
        .expect("export reads back")
        .profile();
    assert_eq!(live.attribution_csv(), reread.attribution_csv(), "{what}");
    assert_eq!(live.folded_stacks(), reread.folded_stacks(), "{what}");
    assert_eq!(live.to_json().render(), reread.to_json().render(), "{what}");
    assert_eq!(live.critical_path, reread.critical_path, "{what}");
}

/// Twelve traced madfuzz draws of 200 messages or fewer (six clean,
/// six faulted), the Recover + loss + duplication + rendezvous + veto
/// cell, E14's incast (congestion and ECN marks on a switched fabric,
/// three rings) and the smoke cell.
#[test]
fn streamed_export_equals_the_reference_over_the_corpus() {
    let mut left = [6, 6];
    let draws = (0..).map(|i| madware::cells::ScenarioSpec::draw(42, i));
    for spec in draws.filter(|s| s.traced && s.msgs <= 200) {
        let n = &mut left[usize::from(!spec.faults.is_empty())];
        if *n > 0 {
            *n -= 1;
            let c = madcheck::fuzz::traced(&spec, simnet::SimDuration::ZERO).cluster;
            assert_streamed_equals_reference(&c, &spec.to_json().render());
        }
        if left == [0, 0] {
            break;
        }
    }
    let c = mad_bench::tracecli::recovery_cell();
    assert_streamed_equals_reference(&c, "recovery cell");
    let c = mad_bench::experiments::e14_incast::traced_cell(0);
    assert_streamed_equals_reference(&c, "e14 incast");
    assert_streamed_equals_reference(&crate::trace_smoke_cell(), "smoke cell");
}

/// The smoke cell's export, record for record as the last DOM-built
/// exporter wrote it (generated at that commit) — less the two records of
/// the by-copy aggregation strategy's one proposal, its `PlanProposed` and
/// `PlanScored` in activation 1, which left the file when the strategy
/// left the database (ISSUE 23), and with the sizes and instants of the
/// wire format in which a packet names each message once (ISSUE 24: the
/// first packet is 128 bytes where it was 132, the second 884 for 912, and
/// 45 of the 71 records carry a size, a score denominator or a timestamp
/// that follows from that; names, order and count are that commit's), and
/// with the scores of a packet valued by the share of each message it
/// delivers (seven score numerators moved, nothing else) — less the
/// `PlanProposed` and `PlanScored` of `reorder-urgent` in activation 1,
/// which left with that proposer — and with the sizes and instants of the
/// wire format whose header fields are as long as their values (the first
/// packet is 106 bytes where it was 128, the second 730 for 884; every
/// score denominator and timestamp after them follows from that).
#[test]
fn smoke_cell_export_equals_the_committed_golden_file() {
    let golden = include_str!("../golden/trace_smoke.chrome.json");
    assert!(crate::trace_smoke_cell().export_chrome_trace().json == golden);
}

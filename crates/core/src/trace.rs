//! **madtrace** — structured, deterministic engine event tracing.
//!
//! The paper's contribution is a *decision engine*; aggregate counters
//! cannot answer "which strategy won this activation, and why?". This
//! module records the full message lifecycle as structured events:
//!
//! ```text
//!   Submitted ─┬─▶ RndvGated ─▶ RndvGranted ─┐
//!              │                             │
//!              ▼                             ▼
//!   ActivationStart{cause, rail, backlog} ─▶ PlanProposed ─┬─▶ PlanVetoed
//!                                                          └─▶ PlanScored ─▶ PlanWon
//!                                                                              │
//!   PacketEncoded{cookie} ◀────────────────────────────────────────────────────┘
//!        │  (wire transit: simnet trace)
//!        ▼
//!   Delivered{flow, seq, latency}
//! ```
//!
//! Events are correlated by `(flow, seq)` and by an **activation id** (one
//! per optimizer activation), and stored in a bounded ring ([`EventSink`],
//! the same discipline as [`simnet::Trace`]): disabled tracing costs one
//! branch per event, a full ring overwrites the oldest records and counts
//! them in [`EventSink::dropped`].
//!
//! Two consumers are built on top:
//!
//! * [`export_chrome_trace`] merges the simulator trace and any number of
//!   per-node engine sinks into one causal timeline in Chrome trace-event
//!   JSON (loadable in Perfetto / `about:tracing`): rails are tracks,
//!   optimizer decisions land on the rail they ran for, and each message
//!   becomes a flow arrow from `Submitted` to `Delivered`.
//! * [`FlightDump`] — the flight recorder artifact: when an engine first
//!   observes an `express_violation`, `driver_rejection` or `proto_error`,
//!   it snapshots the last events, the debug report and a metrics document
//!   into a deterministic JSON artifact (see `EngineHandle::flight_dump`).

// madlint: file: deterministic-output

use simnet::{NicId, NodeId, SimTime, Trace as SimTrace, TraceEvent as SimEvent};
use std::collections::HashMap;

use crate::constraints::PlanViolation;
use crate::ids::{FlowId, FragIndex, TrafficClass};
use crate::json::{obj, Json};
use crate::metrics::Activation;

/// One structured engine event.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineEvent {
    /// The application submitted a message into the collect layer.
    Submitted {
        /// Flow of the message.
        flow: FlowId,
        /// Sequence within the flow.
        seq: u32,
        /// Number of fragments.
        frags: u16,
        /// Total payload bytes.
        bytes: u64,
        /// Traffic class of the flow.
        class: TrafficClass,
    },
    /// A fragment was gated behind the rendezvous protocol at submit time.
    RndvGated {
        /// Flow of the message.
        flow: FlowId,
        /// Sequence within the flow.
        seq: u32,
        /// Gated fragment.
        frag: FragIndex,
        /// Fragment length being negotiated.
        bytes: u64,
    },
    /// A rendezvous grant arrived; the fragment may now be scheduled.
    RndvGranted {
        /// Flow of the message.
        flow: FlowId,
        /// Sequence within the flow.
        seq: u32,
        /// Granted fragment.
        frag: FragIndex,
    },
    /// An optimizer activation began on a rail.
    ActivationStart {
        /// Activation id (correlates the decision events that follow).
        id: u64,
        /// What triggered the activation.
        cause: Activation,
        /// Rail index the optimizer ran for.
        rail: u16,
        /// Schedulable chunks visible at activation (the lookahead pool).
        backlog_depth: u32,
    },
    /// A strategy proposed a candidate plan.
    PlanProposed {
        /// Owning activation.
        activation: u64,
        /// Proposing strategy.
        strategy: &'static str,
        /// Chunks in the plan (0 for rendezvous requests).
        chunks: u16,
        /// Payload bytes the plan moves.
        bytes: u64,
    },
    /// The constraint checker vetoed a proposal.
    PlanVetoed {
        /// Owning activation.
        activation: u64,
        /// Proposing strategy.
        strategy: &'static str,
        /// Why it was rejected.
        violation: PlanViolation,
    },
    /// A proposal was scored by the cost model.
    PlanScored {
        /// Owning activation.
        activation: u64,
        /// Proposing strategy.
        strategy: &'static str,
        /// Score numerator (value, in micro-byte-equivalents; see
        /// [`encode_score`]).
        score_num: u64,
        /// Score denominator (estimated tx-engine occupancy, ns).
        score_den: u64,
    },
    /// The best-scoring proposal won the activation's contest.
    PlanWon {
        /// Owning activation.
        activation: u64,
        /// Winning strategy.
        strategy: &'static str,
        /// Winning score numerator.
        score_num: u64,
        /// Winning score denominator.
        score_den: u64,
    },
    /// A winning data plan was encoded and handed to the NIC driver.
    PacketEncoded {
        /// Owning activation.
        activation: u64,
        /// Rail the packet left on.
        rail: u16,
        /// Driver cookie (correlates with the simulator's TxSubmitted /
        /// TxDone events).
        cookie: u64,
        /// Chunks aggregated into the packet.
        chunks: u16,
        /// Payload bytes.
        bytes: u64,
        /// Whether the packet was linearized by copy.
        linearized: bool,
    },
    /// One planned chunk was bound into an encoded packet — the
    /// (flow, seq) ↔ cookie correlation record madprof attributes wire
    /// time with (PacketEncoded itself only knows the activation).
    ChunkBound {
        /// Flow of the chunk's message.
        flow: FlowId,
        /// Sequence within the flow.
        seq: u32,
        /// Fragment the chunk belongs to.
        frag: FragIndex,
        /// Driver cookie of the carrying packet.
        cookie: u64,
        /// Chunk payload bytes.
        bytes: u64,
    },
    /// A message was fully reassembled and delivered to the application.
    Delivered {
        /// Sending node.
        src: NodeId,
        /// Flow of the message (sender-side id).
        flow: FlowId,
        /// Sequence within the flow.
        seq: u32,
        /// Total payload bytes.
        bytes: u64,
        /// Submission→delivery latency (ns).
        latency_ns: u64,
    },
    /// The reliability layer re-sent a timed-out data packet.
    Retransmit {
        /// Cookie of the timed-out packet.
        old_cookie: u64,
        /// Cookie of the re-sent packet.
        new_cookie: u64,
        /// Rail the retransmission left on.
        rail: u16,
        /// Transmission attempts so far (including this one).
        attempt: u32,
    },
    /// An acknowledgement arrived for a tracked data packet.
    AckReceived {
        /// Cookie of the acked packet.
        cookie: u64,
        /// Rail the original packet left on.
        rail: u16,
        /// Round-trip time from injection to ack (ns).
        rtt_ns: u64,
    },
    /// A rail's health EWMA crossed into the degraded band.
    RailDegraded {
        /// Degraded rail.
        rail: u16,
        /// Health score in thousandths (0–1000).
        score_milli: u32,
    },
    /// A rail was declared permanently dead (retry budget exhausted).
    RailDead {
        /// Dead rail.
        rail: u16,
    },
    /// madflow admitted a submission while admission control is active.
    Admitted {
        /// Flow of the message.
        flow: FlowId,
        /// Sequence within the flow.
        seq: u32,
        /// Payload bytes admitted.
        bytes: u64,
        /// Engine backlog bytes after admission.
        backlog: u64,
    },
    /// madflow shed a queued message to make room under a backlog budget.
    Shed {
        /// Flow of the shed message.
        flow: FlowId,
        /// Sequence within the flow.
        seq: u32,
        /// Backlog bytes freed.
        bytes: u64,
        /// Traffic class the budget belongs to.
        class: TrafficClass,
    },
    /// A class that reported `WouldBlock` regained backlog headroom.
    Unblocked {
        /// The class with headroom again.
        class: TrafficClass,
    },
    /// An acknowledgement echoed a fabric ECN mark: the acked data packet
    /// crossed a switch queue past its marking threshold (madnet).
    CongestionMark {
        /// The *sending* node the mark is charged to (cookies are
        /// per-sender counters, so attribution must key on the sender).
        src: NodeId,
        /// Cookie of the marked data packet.
        cookie: u64,
        /// Rail the marked packet travelled on.
        rail: u16,
    },
    /// madcoll costed one candidate algorithm for a collective — the
    /// "fast tuning" analogue of [`EngineEvent::PlanProposed`], emitted
    /// by the observer member so madprof/maddiff can attribute the
    /// selection decision.
    CollProposed {
        /// Collective sequence number within the emitting app.
        coll: u64,
        /// Operation (`barrier`/`broadcast`/`reduce`/`allreduce`).
        op: &'static str,
        /// Candidate algorithm (`flat`/`binomial`/`ring`).
        algo: &'static str,
        /// Participating members.
        members: u32,
        /// Payload bytes reduced/moved per member.
        bytes: u64,
        /// Analytic completion estimate (ns) under the rail cost model.
        est_ns: u64,
    },
    /// madcoll committed to an algorithm for a collective — the
    /// selection analogue of [`EngineEvent::PlanWon`].
    CollWon {
        /// Collective sequence number within the emitting app.
        coll: u64,
        /// Operation (`barrier`/`broadcast`/`reduce`/`allreduce`).
        op: &'static str,
        /// Winning algorithm (`flat`/`binomial`/`ring`).
        algo: &'static str,
        /// Participating members.
        members: u32,
        /// Payload bytes reduced/moved per member.
        bytes: u64,
        /// Analytic completion estimate (ns) of the winner.
        est_ns: u64,
    },
}

impl EngineEvent {
    /// Stable event name (Chrome trace `name`, `explain` output).
    pub fn name(&self) -> &'static str {
        match self {
            EngineEvent::Submitted { .. } => "Submitted",
            EngineEvent::RndvGated { .. } => "RndvGated",
            EngineEvent::RndvGranted { .. } => "RndvGranted",
            EngineEvent::ActivationStart { .. } => "ActivationStart",
            EngineEvent::PlanProposed { .. } => "PlanProposed",
            EngineEvent::PlanVetoed { .. } => "PlanVetoed",
            EngineEvent::PlanScored { .. } => "PlanScored",
            EngineEvent::PlanWon { .. } => "PlanWon",
            EngineEvent::PacketEncoded { .. } => "PacketEncoded",
            EngineEvent::ChunkBound { .. } => "ChunkBound",
            EngineEvent::Delivered { .. } => "Delivered",
            EngineEvent::Retransmit { .. } => "Retransmit",
            EngineEvent::AckReceived { .. } => "AckReceived",
            EngineEvent::RailDegraded { .. } => "RailDegraded",
            EngineEvent::RailDead { .. } => "RailDead",
            EngineEvent::Admitted { .. } => "Admitted",
            EngineEvent::Shed { .. } => "Shed",
            EngineEvent::Unblocked { .. } => "Unblocked",
            EngineEvent::CongestionMark { .. } => "CongestionMark",
            EngineEvent::CollProposed { .. } => "CollProposed",
            EngineEvent::CollWon { .. } => "CollWon",
        }
    }

    /// The owning activation id, for decision events.
    pub fn activation(&self) -> Option<u64> {
        match self {
            EngineEvent::ActivationStart { id, .. } => Some(*id),
            EngineEvent::PlanProposed { activation, .. }
            | EngineEvent::PlanVetoed { activation, .. }
            | EngineEvent::PlanScored { activation, .. }
            | EngineEvent::PlanWon { activation, .. }
            | EngineEvent::PacketEncoded { activation, .. } => Some(*activation),
            _ => None,
        }
    }

    /// Structured arguments as a JSON object (insertion-ordered, so the
    /// rendering is deterministic).
    pub fn args(&self) -> Json {
        match self {
            EngineEvent::Submitted {
                flow,
                seq,
                frags,
                bytes,
                class,
            } => obj()
                .field("flow", flow.0)
                .field("seq", *seq)
                .field("frags", *frags)
                .field("bytes", *bytes)
                .field("class", class.label())
                .build(),
            EngineEvent::RndvGated {
                flow,
                seq,
                frag,
                bytes,
            } => obj()
                .field("flow", flow.0)
                .field("seq", *seq)
                .field("frag", *frag)
                .field("bytes", *bytes)
                .build(),
            EngineEvent::RndvGranted { flow, seq, frag } => obj()
                .field("flow", flow.0)
                .field("seq", *seq)
                .field("frag", *frag)
                .build(),
            EngineEvent::ActivationStart {
                id,
                cause,
                rail,
                backlog_depth,
            } => obj()
                .field("activation", *id)
                .field("cause", cause.label())
                .field("rail", *rail)
                .field("backlog_depth", *backlog_depth)
                .build(),
            EngineEvent::PlanProposed {
                activation,
                strategy,
                chunks,
                bytes,
            } => obj()
                .field("activation", *activation)
                .field("strategy", *strategy)
                .field("chunks", *chunks)
                .field("bytes", *bytes)
                .build(),
            EngineEvent::PlanVetoed {
                activation,
                strategy,
                violation,
            } => obj()
                .field("activation", *activation)
                .field("strategy", *strategy)
                .field("violation", violation.to_string())
                .build(),
            EngineEvent::PlanScored {
                activation,
                strategy,
                score_num,
                score_den,
            } => obj()
                .field("activation", *activation)
                .field("strategy", *strategy)
                .field("score_num", *score_num)
                .field("score_den", *score_den)
                .build(),
            EngineEvent::PlanWon {
                activation,
                strategy,
                score_num,
                score_den,
            } => obj()
                .field("activation", *activation)
                .field("strategy", *strategy)
                .field("score_num", *score_num)
                .field("score_den", *score_den)
                .build(),
            EngineEvent::PacketEncoded {
                activation,
                rail,
                cookie,
                chunks,
                bytes,
                linearized,
            } => obj()
                .field("activation", *activation)
                .field("rail", *rail)
                .field("cookie", *cookie)
                .field("chunks", *chunks)
                .field("bytes", *bytes)
                .field("linearized", *linearized)
                .build(),
            EngineEvent::ChunkBound {
                flow,
                seq,
                frag,
                cookie,
                bytes,
            } => obj()
                .field("flow", flow.0)
                .field("seq", *seq)
                .field("frag", *frag)
                .field("cookie", *cookie)
                .field("bytes", *bytes)
                .build(),
            EngineEvent::Delivered {
                src,
                flow,
                seq,
                bytes,
                latency_ns,
            } => obj()
                .field("src", src.0)
                .field("flow", flow.0)
                .field("seq", *seq)
                .field("bytes", *bytes)
                .field("latency_ns", *latency_ns)
                .build(),
            EngineEvent::Retransmit {
                old_cookie,
                new_cookie,
                rail,
                attempt,
            } => obj()
                .field("old_cookie", *old_cookie)
                .field("new_cookie", *new_cookie)
                .field("rail", *rail)
                .field("attempt", *attempt)
                .build(),
            EngineEvent::AckReceived {
                cookie,
                rail,
                rtt_ns,
            } => obj()
                .field("cookie", *cookie)
                .field("rail", *rail)
                .field("rtt_ns", *rtt_ns)
                .build(),
            EngineEvent::RailDegraded { rail, score_milli } => obj()
                .field("rail", *rail)
                .field("score_milli", *score_milli)
                .build(),
            EngineEvent::RailDead { rail } => obj().field("rail", *rail).build(),
            EngineEvent::Admitted {
                flow,
                seq,
                bytes,
                backlog,
            } => obj()
                .field("flow", flow.0)
                .field("seq", *seq)
                .field("bytes", *bytes)
                .field("backlog", *backlog)
                .build(),
            EngineEvent::Shed {
                flow,
                seq,
                bytes,
                class,
            } => obj()
                .field("flow", flow.0)
                .field("seq", *seq)
                .field("bytes", *bytes)
                .field("class", class.label())
                .build(),
            EngineEvent::Unblocked { class } => obj().field("class", class.label()).build(),
            EngineEvent::CongestionMark { src, cookie, rail } => obj()
                .field("src", src.0)
                .field("cookie", *cookie)
                .field("rail", *rail)
                .build(),
            EngineEvent::CollProposed {
                coll,
                op,
                algo,
                members,
                bytes,
                est_ns,
            }
            | EngineEvent::CollWon {
                coll,
                op,
                algo,
                members,
                bytes,
                est_ns,
            } => obj()
                .field("coll", *coll)
                .field("op", *op)
                .field("algo", *algo)
                .field("members", *members)
                .field("bytes", *bytes)
                .field("est_ns", *est_ns)
                .build(),
        }
    }
}

/// Encode a plan score as an exact integer ratio for tracing.
///
/// The cost model's score is `value / busy_ns` ([`crate::cost`]); tracing
/// stores the numerator in fixed point (thousandths of a byte-equivalent)
/// and the denominator in nanoseconds, so trace files contain no
/// free-floating doubles and repeat runs are byte-identical.
pub fn encode_score(score: f64, busy_ns: u64) -> (u64, u64) {
    let den = busy_ns.max(1);
    let num = (score * den as f64 * 1000.0).round();
    let num = if num.is_finite() && num >= 0.0 {
        num as u64
    } else {
        0
    };
    (num, den)
}

/// A timestamped engine event.
pub type EngineRecord = simnet::Stamped<EngineEvent>;

/// Bounded ring of engine events: [`simnet::Ring`], the ring the
/// simulator's own trace is kept in. Disabled tracing costs one branch per
/// push; a full ring overwrites the oldest records and counts them in
/// [`EventSink::dropped`].
pub type EventSink = simnet::Ring<EngineEvent>;

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Synthetic Chrome thread id for node-level (non-rail) engine events.
const ENGINE_TRACK: u32 = 900;

/// Result of a Chrome trace-event export.
#[derive(Clone, Debug)]
pub struct ChromeExport {
    /// The rendered JSON document.
    pub json: String,
    /// Number of entries in `traceEvents` (metadata included), for
    /// round-trip verification against [`chrome_event_count`].
    pub events: usize,
}

/// Merge the simulator trace and per-node engine sinks into one Chrome
/// trace-event JSON document (Perfetto / `about:tracing` loadable).
///
/// * `pid` = node index, `tid` = rail index (NIC-level events and the
///   optimizer decisions of that rail's activations); node-level events
///   (submissions, deliveries, timers) go on a synthetic `engine` track.
/// * Every message becomes a flow arrow (`ph:"s"` at `Submitted` on the
///   sender, `ph:"f"` at `Delivered` on the receiver).
/// * `nics[node][rail]` supplies NIC→(node, rail) routing — pass
///   `Cluster::nics` or the equivalent topology.
/// * `otherData` carries the retained/dropped counts of every ring so a
///   truncated timeline is distinguishable from a complete one.
///
/// Compact per-network topology summary embedded in a Chrome export's
/// `otherData` (madnet). `trace-tool info` surfaces it as one line per
/// fabric; flat point-to-point networks simply omit the entry.
#[derive(Clone, Debug)]
pub struct TopologySummary {
    /// Topology name (e.g. `"dumbbell(4x4)"`, `"fat-tree(k=4)"`).
    pub name: String,
    /// Host (NIC attachment) count.
    pub hosts: u32,
    /// Switch count.
    pub switches: u32,
    /// Directed link count.
    pub links: u32,
    /// Worst-case oversubscription ratio in thousandths (1000 = 1:1).
    pub oversub_milli: u32,
}

impl TopologySummary {
    /// Summarize a simnet topology.
    pub fn of(topo: &simnet::Topology) -> Self {
        TopologySummary {
            name: topo.name().to_string(),
            hosts: topo.hosts() as u32,
            switches: topo.switches() as u32,
            links: topo.links().len() as u32,
            oversub_milli: topo.oversubscription_milli() as u32,
        }
    }
}

/// Merge the simulator trace and per-node engine sinks into one Chrome
/// trace-event JSON document (Perfetto / `about:tracing` loadable).
///
/// * `pid` = node index, `tid` = rail index (NIC-level events and the
///   optimizer decisions of that rail's activations); node-level events
///   (submissions, deliveries, timers) go on a synthetic `engine` track.
/// * Every message becomes a flow arrow (`ph:"s"` at `Submitted` on the
///   sender, `ph:"f"` at `Delivered` on the receiver).
/// * `nics[node][rail]` supplies NIC→(node, rail) routing — pass
///   `Cluster::nics` or the equivalent topology.
/// * `otherData` carries the retained/dropped counts of every ring so a
///   truncated timeline is distinguishable from a complete one.
///
/// The output is a pure function of the inputs: repeat runs of the same
/// seeded workload export byte-identical files.
pub fn export_chrome_trace(
    sim: &SimTrace,
    sinks: &[(NodeId, &EventSink)],
    nics: &[Vec<NicId>],
) -> ChromeExport {
    export_chrome_trace_with_topology(sim, sinks, nics, &[])
}

/// [`export_chrome_trace`] plus madnet topology metadata: each summary in
/// `topos` becomes an entry in `otherData.topologies`, making the export
/// self-describing about the fabric the run crossed.
pub fn export_chrome_trace_with_topology(
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

/// Parse a Chrome trace-event JSON document and return its event count
/// (the `traceEvents` array length) — the export→parse round-trip check.
pub fn chrome_event_count(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    doc.get("traceEvents")
        .and_then(|v| v.as_array())
        .map(|a| a.len())
        .ok_or_else(|| "missing traceEvents array".to_string())
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

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Why the flight recorder fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightTrigger {
    /// The receiver observed an express-ordering violation.
    ExpressViolation,
    /// A driver rejected a validated plan.
    DriverRejection,
    /// An undecodable packet arrived.
    ProtoError,
    /// A reliability-tracked packet timed out awaiting its ack.
    Timeout,
}

impl FlightTrigger {
    /// Stable label used in artifacts.
    pub fn label(self) -> &'static str {
        match self {
            FlightTrigger::ExpressViolation => "express_violations",
            FlightTrigger::DriverRejection => "driver_rejections",
            FlightTrigger::ProtoError => "proto_errors",
            FlightTrigger::Timeout => "timeouts",
        }
    }
}

/// Number of trailing events a flight dump keeps.
pub const FLIGHT_KEEP: usize = 64;

/// The flight recorder's captured artifact: the moment one of the
/// should-stay-zero counters first left zero, with enough context to
/// debug it after the fact.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Node whose engine fired.
    pub node: NodeId,
    /// Which counter transitioned from 0.
    pub trigger: FlightTrigger,
    /// Virtual time of the capture.
    pub at: SimTime,
    /// The engine's `debug_report()` at capture time.
    pub report: String,
    /// Metrics-registry document at capture time.
    pub metrics: Json,
    /// Last events from the engine's sink (up to [`FLIGHT_KEEP`]; empty
    /// when tracing was disabled).
    pub events: Vec<EngineRecord>,
}

impl FlightDump {
    /// Capture a dump from a sink (keeps the trailing `FLIGHT_KEEP`
    /// events).
    pub fn capture(
        node: NodeId,
        trigger: FlightTrigger,
        at: SimTime,
        report: String,
        metrics: Json,
        sink: &EventSink,
    ) -> FlightDump {
        let events: Vec<EngineRecord> = sink
            .iter()
            .cloned()
            .skip(sink.len().saturating_sub(FLIGHT_KEEP))
            .collect();
        FlightDump {
            node,
            trigger,
            at,
            report,
            metrics,
            events,
        }
    }

    /// The dump as a JSON document.
    pub fn to_json(&self) -> Json {
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|r| {
                obj()
                    .field("ts_ns", r.at.as_nanos())
                    .field("name", r.event.name())
                    .field("args", r.event.args())
                    .build()
            })
            .collect();
        obj()
            .field("artifact", "madtrace-flight-dump")
            .field("node", self.node.0)
            .field("trigger", self.trigger.label())
            .field("at_ns", self.at.as_nanos())
            .field("report", self.report.clone())
            .field("metrics", self.metrics.clone())
            .field("events", Json::Arr(events))
            .build()
    }

    /// Render the dump as deterministic JSON text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u32) -> EngineEvent {
        EngineEvent::Submitted {
            flow: FlowId(0),
            seq,
            frags: 1,
            bytes: 64,
            class: TrafficClass::DEFAULT,
        }
    }

    /// `EventSink` / `EngineRecord` are names over `simnet::Ring`, whose
    /// own unit tests cover the ring; this only pins the aliases.
    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut off = EventSink::default();
        off.push(SimTime::ZERO, ev(0));
        assert!(off.is_empty() && !off.is_enabled());
        assert_eq!(off.dropped(), 0);

        let mut s = EventSink::with_capacity(3);
        for i in 0..5 {
            s.push(SimTime::from_nanos(i as u64), ev(i));
        }
        assert_eq!((s.len(), s.dropped()), (3, 2));
        let seqs: Vec<u32> = s
            .iter()
            .map(|r: &EngineRecord| match r.event {
                EngineEvent::Submitted { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(s.count_matching(|e| e.name() == "Submitted"), 3);
    }

    #[test]
    fn score_encoding_is_exact_ratio() {
        let (num, den) = encode_score(2.5, 1000);
        assert_eq!((num, den), (2_500_000, 1000));
        let (num, den) = encode_score(0.0, 0);
        assert_eq!((num, den), (0, 1));
        let (num, _) = encode_score(f64::NAN, 10);
        assert_eq!(num, 0);
    }

    #[test]
    fn event_names_and_activations() {
        let e = EngineEvent::PlanWon {
            activation: 7,
            strategy: "aggregate",
            score_num: 1,
            score_den: 2,
        };
        assert_eq!(e.name(), "PlanWon");
        assert_eq!(e.activation(), Some(7));
        assert_eq!(ev(0).activation(), None);
        let args = e.args();
        assert_eq!(args.get("strategy").unwrap().as_str(), Some("aggregate"));
    }

    #[test]
    fn export_merges_and_round_trips() {
        let mut sim = SimTrace::with_capacity(16);
        sim.push(
            SimTime::from_nanos(10),
            SimEvent::TxSubmitted {
                nic: NicId(0),
                bytes: 64,
                cookie: 1,
            },
        );
        sim.push(SimTime::from_nanos(90), SimEvent::NicIdle { nic: NicId(1) });
        let mut sink = EventSink::with_capacity(16);
        sink.push(SimTime::from_nanos(5), ev(0));
        sink.push(
            SimTime::from_nanos(50),
            EngineEvent::ActivationStart {
                id: 0,
                cause: Activation::Submit,
                rail: 0,
                backlog_depth: 1,
            },
        );
        sink.push(
            SimTime::from_nanos(50),
            EngineEvent::PlanScored {
                activation: 0,
                strategy: "fifo",
                score_num: 1,
                score_den: 2,
            },
        );
        let nics = vec![vec![NicId(0)], vec![NicId(1)]];
        let sinks = [(NodeId(0), &sink)];
        let out = export_chrome_trace(&sim, &sinks, &nics);
        // metadata: 2 process names + 2 rail threads + 2 engine threads;
        // timeline: 2 sim + 3 engine + 1 flow-arrow start.
        assert_eq!(out.events, 6 + 2 + 3 + 1);
        assert_eq!(chrome_event_count(&out.json).unwrap(), out.events);
        // Determinism: exporting the same inputs twice is byte-identical.
        let again = export_chrome_trace(&sim, &sinks, &nics);
        assert_eq!(out.json, again.json);
        // Decision events inherit the rail track from their activation.
        let doc = Json::parse(&out.json).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_array().unwrap();
        let scored = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("PlanScored"))
            .unwrap();
        assert_eq!(scored.get("tid").unwrap().as_u64(), Some(0));
        let submitted = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("Submitted"))
            .unwrap();
        assert_eq!(
            submitted.get("tid").unwrap().as_u64(),
            Some(ENGINE_TRACK as u64)
        );
    }

    #[test]
    fn flight_dump_shape_is_stable() {
        let mut sink = EventSink::with_capacity(8);
        for i in 0..4 {
            sink.push(SimTime::from_nanos(i as u64 * 10), ev(i));
        }
        let dump = FlightDump::capture(
            NodeId(1),
            FlightTrigger::ProtoError,
            SimTime::from_nanos(40),
            "engine@NodeId(1): report".into(),
            obj().field("proto_errors", 1u64).build(),
            &sink,
        );
        let text = dump.render();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("artifact").unwrap().as_str(),
            Some("madtrace-flight-dump")
        );
        assert_eq!(doc.get("trigger").unwrap().as_str(), Some("proto_errors"));
        assert_eq!(doc.get("at_ns").unwrap().as_u64(), Some(40));
        assert_eq!(doc.get("events").unwrap().as_array().unwrap().len(), 4);
        assert!(doc
            .get("report")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("engine@"));
        // Deterministic rendering.
        assert_eq!(text, dump.render());
    }
}

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
//! * [`FlightDump`] — the flight recorder artifact: the first time one of
//!   an engine's should-stay-zero counters ([`Fault`]) leaves zero, it
//!   snapshots the last events and the engine's metrics registry into a
//!   deterministic JSON artifact (see `EngineHandle::flight_dump`).

// madlint: file: deterministic-output

use simnet::{NicId, NodeId, SimTime, Trace as SimTrace, TraceEvent as SimEvent};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::constraints::PlanViolation;
use crate::ids::{FlowId, FragIndex, TrafficClass};
use crate::json::{Json, JsonError, JsonSink, JsonTree, JsonWriter, Parser};
use crate::metrics::{Activation, Fault};

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
    /// The ack of a packet that had already timed out arrived after all:
    /// the timeout was spurious. The ack settles whatever of the
    /// retransmission is still out, and the rail gets its health back.
    SpuriousTimeout {
        /// Cookie of the timed-out (superseded) transmission the ack names.
        cookie: u64,
        /// Rail that transmission left on.
        rail: u16,
        /// How far past its modelled unloaded round trip the ack came (ns).
        late_ns: u64,
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
            EngineEvent::SpuriousTimeout { .. } => "SpuriousTimeout",
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
        JsonTree::document(|t| {
            t.begin_object();
            self.write_args(t);
            t.end_object();
        })
    }

    /// The event's arguments as `key, value` pairs into an object the
    /// caller has open — the one place each kind's field list is written
    /// down, whether it ends up as export text or as [`EngineEvent::args`].
    pub fn write_args(&self, s: &mut impl JsonSink) {
        match self {
            EngineEvent::Submitted {
                flow,
                seq,
                frags,
                bytes,
                class,
            } => {
                s.field_uint("flow", flow.0);
                s.field_uint("seq", *seq);
                s.field_uint("frags", *frags);
                s.field_uint("bytes", *bytes);
                s.field_str("class", class.label());
            }
            EngineEvent::RndvGated {
                flow,
                seq,
                frag,
                bytes,
            } => {
                s.field_uint("flow", flow.0);
                s.field_uint("seq", *seq);
                s.field_uint("frag", *frag);
                s.field_uint("bytes", *bytes);
            }
            EngineEvent::RndvGranted { flow, seq, frag } => {
                s.field_uint("flow", flow.0);
                s.field_uint("seq", *seq);
                s.field_uint("frag", *frag);
            }
            EngineEvent::ActivationStart {
                id,
                cause,
                rail,
                backlog_depth,
            } => {
                s.field_uint("activation", *id);
                s.field_str("cause", cause.label());
                s.field_uint("rail", *rail);
                s.field_uint("backlog_depth", *backlog_depth);
            }
            EngineEvent::PlanProposed {
                activation,
                strategy,
                chunks,
                bytes,
            } => {
                s.field_uint("activation", *activation);
                s.field_str("strategy", strategy);
                s.field_uint("chunks", *chunks);
                s.field_uint("bytes", *bytes);
            }
            EngineEvent::PlanVetoed {
                activation,
                strategy,
                violation,
            } => {
                s.field_uint("activation", *activation);
                s.field_str("strategy", strategy);
                s.field_str("violation", &violation.to_string());
            }
            EngineEvent::PlanScored {
                activation,
                strategy,
                score_num,
                score_den,
            }
            | EngineEvent::PlanWon {
                activation,
                strategy,
                score_num,
                score_den,
            } => {
                s.field_uint("activation", *activation);
                s.field_str("strategy", strategy);
                s.field_uint("score_num", *score_num);
                s.field_uint("score_den", *score_den);
            }
            EngineEvent::PacketEncoded {
                activation,
                rail,
                cookie,
                chunks,
                bytes,
                linearized,
            } => {
                s.field_uint("activation", *activation);
                s.field_uint("rail", *rail);
                s.field_uint("cookie", *cookie);
                s.field_uint("chunks", *chunks);
                s.field_uint("bytes", *bytes);
                s.key("linearized");
                s.bool(*linearized);
            }
            EngineEvent::ChunkBound {
                flow,
                seq,
                frag,
                cookie,
                bytes,
            } => {
                s.field_uint("flow", flow.0);
                s.field_uint("seq", *seq);
                s.field_uint("frag", *frag);
                s.field_uint("cookie", *cookie);
                s.field_uint("bytes", *bytes);
            }
            EngineEvent::Delivered {
                src,
                flow,
                seq,
                bytes,
                latency_ns,
            } => {
                s.field_uint("src", src.0);
                s.field_uint("flow", flow.0);
                s.field_uint("seq", *seq);
                s.field_uint("bytes", *bytes);
                s.field_uint("latency_ns", *latency_ns);
            }
            EngineEvent::Retransmit {
                old_cookie,
                new_cookie,
                rail,
                attempt,
            } => {
                s.field_uint("old_cookie", *old_cookie);
                s.field_uint("new_cookie", *new_cookie);
                s.field_uint("rail", *rail);
                s.field_uint("attempt", *attempt);
            }
            EngineEvent::AckReceived {
                cookie,
                rail,
                rtt_ns,
            } => {
                s.field_uint("cookie", *cookie);
                s.field_uint("rail", *rail);
                s.field_uint("rtt_ns", *rtt_ns);
            }
            EngineEvent::SpuriousTimeout {
                cookie,
                rail,
                late_ns,
            } => {
                s.field_uint("cookie", *cookie);
                s.field_uint("rail", *rail);
                s.field_uint("late_ns", *late_ns);
            }
            EngineEvent::RailDegraded { rail, score_milli } => {
                s.field_uint("rail", *rail);
                s.field_uint("score_milli", *score_milli);
            }
            EngineEvent::RailDead { rail } => s.field_uint("rail", *rail),
            EngineEvent::Admitted {
                flow,
                seq,
                bytes,
                backlog,
            } => {
                s.field_uint("flow", flow.0);
                s.field_uint("seq", *seq);
                s.field_uint("bytes", *bytes);
                s.field_uint("backlog", *backlog);
            }
            EngineEvent::Shed {
                flow,
                seq,
                bytes,
                class,
            } => {
                s.field_uint("flow", flow.0);
                s.field_uint("seq", *seq);
                s.field_uint("bytes", *bytes);
                s.field_str("class", class.label());
            }
            EngineEvent::Unblocked { class } => s.field_str("class", class.label()),
            EngineEvent::CongestionMark { src, cookie, rail } => {
                s.field_uint("src", src.0);
                s.field_uint("cookie", *cookie);
                s.field_uint("rail", *rail);
            }
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
            } => {
                s.field_uint("coll", *coll);
                s.field_str("op", op);
                s.field_str("algo", algo);
                s.field_uint("members", *members);
                s.field_uint("bytes", *bytes);
                s.field_uint("est_ns", *est_ns);
            }
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
///
/// Nothing is built before it is written: the rings are merged (each is
/// chronological, being pushed at `now`) and every entry goes straight
/// into the output text.
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
    // madrel: tally injected wire faults so the export is self-describing
    // about how hostile the run was (also surfaced by `trace-tool info`).
    let (mut wire_drops, mut wire_dups, mut wire_stalls) = (0u64, 0u64, 0u64);
    for rec in sim.iter() {
        match &rec.event {
            SimEvent::WireDrop { .. } => wire_drops += 1,
            SimEvent::WireDup { .. } => wire_dups += 1,
            SimEvent::WireStall { .. } => wire_stalls += 1,
            _ => {}
        }
    }

    // Every entry is written straight into the one output buffer, sized
    // for the whole document up front: a record and its share of the flow
    // arrows come to about 160 bytes.
    let records = sim.len() + sinks.iter().map(|(_, s)| s.len()).sum::<usize>();
    let mut json = String::with_capacity(4096 + 192 * records);
    let mut w = JsonWriter::new(&mut json);
    w.begin_object();
    w.field_str("displayTimeUnit", "ns");
    w.key("otherData");
    w.begin_object();
    w.field_str("exporter", "madtrace");
    w.field_uint("sim_retained", sim.len() as u64);
    w.field_uint("sim_dropped", sim.dropped());
    w.field_uint("wire_drops", wire_drops);
    w.field_uint("wire_dups", wire_dups);
    w.field_uint("wire_stalls", wire_stalls);
    w.key("engine_retained");
    w.begin_object();
    for (node, sink) in sinks {
        w.field_uint(&format!("node{}", node.0), sink.len() as u64);
    }
    w.end_object();
    w.key("engine_dropped");
    w.begin_object();
    for (node, sink) in sinks {
        w.field_uint(&format!("node{}", node.0), sink.dropped());
    }
    w.end_object();
    if !topos.is_empty() {
        w.key("topologies");
        w.begin_array();
        for t in topos {
            w.begin_object();
            w.field_str("name", &t.name);
            w.field_uint("hosts", t.hosts);
            w.field_uint("switches", t.switches);
            w.field_uint("links", t.links);
            w.field_uint("oversub_milli", t.oversub_milli);
            w.end_object();
        }
        w.end_array();
    }
    w.end_object();
    w.key("traceEvents");
    w.begin_array();
    let mut events = 0usize;

    // Metadata: name processes (nodes) and threads (rails + engine track).
    for (node, rails) in nics.iter().enumerate() {
        let pid = node as u32;
        meta_event(&mut w, "process_name", pid, None, &format!("node{node}"));
        for rail in 0..rails.len() {
            let tid = Some(rail as u32);
            meta_event(&mut w, "thread_name", pid, tid, &format!("rail{rail}"));
        }
        meta_event(&mut w, "thread_name", pid, Some(ENGINE_TRACK), "engine");
        events += 2 + rails.len();
    }

    // Decision events carry only their activation id; recover the rail
    // from the activation's start event so they land on the rail track.
    let act_rails: Vec<HashMap<u64, u32>> = sinks
        .iter()
        .map(|(_, sink)| {
            let mut act_rail = HashMap::new();
            for rec in sink.iter() {
                if let EngineEvent::ActivationStart { id, rail, .. } = rec.event {
                    act_rail.insert(id, rail as u32);
                }
            }
            act_rail
        })
        .collect();

    // The timeline is a merge, not a sort: every ring is chronological
    // (records are pushed at `now`), so the next entry is the earliest
    // head, ties going to the lower rank — the simulator (rank 0), then
    // the sinks in the order given — and, within one ring, to ring order.
    let mut sim_recs = sim.iter().peekable();
    let mut sink_recs: Vec<_> = sinks.iter().map(|(_, s)| s.iter().peekable()).collect();
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    if let Some(rec) = sim_recs.peek() {
        heads.push(Reverse((rec.at.as_nanos(), 0)));
    }
    for (i, recs) in sink_recs.iter_mut().enumerate() {
        if let Some(rec) = recs.peek() {
            heads.push(Reverse((rec.at.as_nanos(), 1 + i)));
        }
    }
    while let Some(Reverse((ts, rank))) = heads.pop() {
        let next = if rank == 0 {
            if let Some(rec) = sim_recs.next() {
                events += sim_entry(&mut w, ts, &rec.event, &nic_loc);
            }
            sim_recs.peek().map(|rec| rec.at)
        } else {
            let ((node, _), recs) = (&sinks[rank - 1], &mut sink_recs[rank - 1]);
            if let Some(rec) = recs.next() {
                events += engine_entry(&mut w, ts, *node, &rec.event, &act_rails[rank - 1]);
            }
            recs.peek().map(|rec| rec.at)
        };
        if let Some(at) = next {
            heads.push(Reverse((at.as_nanos(), rank)));
        }
    }
    w.end_array();
    w.end_object();
    ChromeExport { json, events }
}

/// Write one simulator record's entry; returns how many entries that was
/// (0 for a record outside the exported cluster).
fn sim_entry(
    w: &mut JsonWriter<'_>,
    ts: u64,
    event: &SimEvent,
    nic_loc: &HashMap<u32, (u32, u32)>,
) -> usize {
    // The unification hook: `TraceEvent::nic()` routes NIC-scoped
    // events onto their rail track; node-scoped events (timers) land
    // on the engine track.
    let (pid, tid) = match (event.nic(), event) {
        (Some(nic), _) => match nic_loc.get(&nic.0) {
            Some(&loc) => loc,
            None => return 0, // NIC outside the exported cluster
        },
        (None, SimEvent::TimerFired { node, .. }) => (node.0, ENGINE_TRACK),
        (None, _) => return 0,
    };
    instant_event(w, event.name(), ts, pid, tid, |w| match event {
        SimEvent::TxSubmitted { bytes, cookie, .. } => {
            w.field_uint("bytes", *bytes);
            w.field_uint("cookie", *cookie);
        }
        SimEvent::TxDone { cookie, .. }
        | SimEvent::WireDrop { cookie, .. }
        | SimEvent::WireDup { cookie, .. }
        | SimEvent::WireStall { cookie, .. }
        | SimEvent::EcnMark { cookie, .. }
        | SimEvent::FabricDrop { cookie, .. } => w.field_uint("cookie", *cookie),
        SimEvent::NicIdle { .. } => {}
        SimEvent::RxDelivered { bytes, kind, .. } => {
            w.field_uint("bytes", *bytes);
            w.field_uint("kind", *kind);
        }
        SimEvent::TimerFired { tag, .. } => w.field_uint("tag", *tag),
    });
    1
}

/// Write one engine record's entry and, for the two ends of a message,
/// its flow arrow; returns how many entries that was.
fn engine_entry(
    w: &mut JsonWriter<'_>,
    ts: u64,
    node: NodeId,
    event: &EngineEvent,
    act_rail: &HashMap<u64, u32>,
) -> usize {
    let pid = node.0;
    let tid = match event {
        EngineEvent::ActivationStart { rail, .. } | EngineEvent::PacketEncoded { rail, .. } => {
            *rail as u32
        }
        e => e
            .activation()
            .and_then(|a| act_rail.get(&a).copied())
            .unwrap_or(ENGINE_TRACK),
    };
    instant_event(w, event.name(), ts, pid, tid, |w| event.write_args(w));
    match event {
        EngineEvent::Submitted { flow, seq, .. } => {
            flow_event(w, "s", ts, pid, tid, flow_arrow_id(node, *flow, *seq));
            2
        }
        EngineEvent::Delivered { src, flow, seq, .. } => {
            flow_event(w, "f", ts, pid, tid, flow_arrow_id(*src, *flow, *seq));
            2
        }
        _ => 1,
    }
}

/// One pass over a Chrome trace-event document without holding it: the
/// cursor is handed to `on_event` at each `traceEvents` element (which
/// consumes exactly that element), everything else at top level is
/// checked and dropped, except `otherData`, which is small and returned.
pub fn read_chrome_export<'a>(
    text: &'a str,
    mut on_event: impl FnMut(&mut Parser<'a>) -> Result<(), JsonError>,
) -> Result<ChromeHeader, String> {
    let mut read = || -> Result<Option<ChromeHeader>, JsonError> {
        let mut p = Parser::new(text);
        if p.peek() != Some(b'{') {
            p.skip()?;
            return p.finish().map(|()| None);
        }
        let (mut other_data, mut events) = (None, None);
        p.begin_object()?;
        while let Some(key) = p.next_key()? {
            match &*key {
                "otherData" if other_data.is_none() => other_data = Some(p.value()?),
                "traceEvents" if events.is_none() && p.peek() == Some(b'[') => {
                    let mut n = 0usize;
                    p.begin_array()?;
                    while p.next_element()? {
                        on_event(&mut p)?;
                        n += 1;
                    }
                    events = Some(n);
                }
                _ => p.skip()?,
            }
        }
        p.finish()?;
        Ok(events.map(|events| ChromeHeader { other_data, events }))
    };
    read()
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "missing traceEvents array".to_string())
}

/// What [`read_chrome_export`] keeps of a document.
#[derive(Clone, Debug)]
pub struct ChromeHeader {
    /// The document's `otherData` object, when it has one.
    pub other_data: Option<Json>,
    /// Length of the `traceEvents` array.
    pub events: usize,
}

/// Parse a Chrome trace-event JSON document and return its event count
/// (the `traceEvents` array length) — the export→parse round-trip check.
pub fn chrome_event_count(text: &str) -> Result<usize, String> {
    read_chrome_export(text, Parser::skip).map(|h| h.events)
}

fn instant_event(
    w: &mut JsonWriter<'_>,
    name: &str,
    ts_ns: u64,
    pid: u32,
    tid: u32,
    args: impl FnOnce(&mut JsonWriter<'_>),
) {
    w.begin_object();
    w.field_str("name", name);
    w.field_str("ph", "i");
    w.key("ts");
    w.fixed3(ts_ns);
    w.field_uint("pid", pid);
    w.field_uint("tid", tid);
    w.field_str("s", "t");
    w.key("args");
    w.begin_object();
    args(w);
    w.end_object();
    w.end_object();
}

fn flow_event(w: &mut JsonWriter<'_>, ph: &str, ts_ns: u64, pid: u32, tid: u32, id: u64) {
    w.begin_object();
    w.field_str("name", "msg");
    w.field_str("cat", "flow");
    w.field_str("ph", ph);
    w.key("ts");
    w.fixed3(ts_ns);
    w.field_uint("pid", pid);
    w.field_uint("tid", tid);
    w.field_uint("id", id);
    if ph == "f" {
        w.field_str("bp", "e");
    }
    w.end_object();
}

fn flow_arrow_id(src: NodeId, flow: FlowId, seq: u32) -> u64 {
    ((src.0 as u64) << 48) | ((flow.0 as u64 & 0xff_ffff) << 24) | (seq as u64 & 0xff_ffff)
}

fn meta_event(w: &mut JsonWriter<'_>, name: &str, pid: u32, tid: Option<u32>, value: &str) {
    w.begin_object();
    w.field_str("name", name);
    w.field_str("ph", "M");
    w.field_uint("pid", pid);
    if let Some(tid) = tid {
        w.field_uint("tid", tid);
    }
    w.key("args");
    w.begin_object();
    w.field_str("name", value);
    w.end_object();
    w.end_object();
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Number of trailing events a flight dump keeps.
pub const FLIGHT_KEEP: usize = 64;

/// The flight recorder's captured artifact: the moment one of the
/// should-stay-zero counters ([`Fault`]) first left zero, with enough
/// context to debug it after the fact.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Node whose engine fired.
    pub node: NodeId,
    /// Which counter left zero.
    pub trigger: Fault,
    /// Virtual time of the capture.
    pub at: SimTime,
    /// The engine's metrics registry at capture time; its `state`
    /// section names the trigger.
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
        trigger: Fault,
        at: SimTime,
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
            metrics,
            events,
        }
    }

    /// Render the dump as deterministic JSON text.
    pub fn render(&self) -> String {
        JsonWriter::document(|w| {
            w.begin_object();
            w.field_str("artifact", "madtrace-flight-dump");
            w.field_uint("node", self.node.0);
            w.field_str("trigger", self.trigger.label());
            w.field_uint("at_ns", self.at.as_nanos());
            w.key("metrics");
            w.value(&self.metrics);
            w.key("events");
            w.begin_array();
            for r in &self.events {
                w.begin_object();
                w.field_uint("ts_ns", r.at.as_nanos());
                w.field_str("name", r.event.name());
                w.key("args");
                w.begin_object();
                r.event.write_args(w);
                w.end_object();
                w.end_object();
            }
            w.end_array();
            w.end_object();
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

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
            Fault::ProtoError,
            SimTime::from_nanos(40),
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
        assert!(doc.get("report").is_none(), "the registry is the report");
        // Deterministic rendering.
        assert_eq!(text, dump.render());
    }
}

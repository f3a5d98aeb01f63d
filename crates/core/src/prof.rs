//! **madprof** — causal critical-path profiling and per-flow latency
//! attribution.
//!
//! madtrace records *what happened* and madscope records *how much*; this
//! module answers **where a message's completion time actually went**. It
//! is a deterministic post-hoc profiler: it replays the madtrace
//! [`EngineEvent`] rings and the simnet [`Trace`](simnet::Trace) into
//! per-message span trees and attributes each delivered message's
//! end-to-end latency into five named phases:
//!
//! ```text
//!   Submitted ──▶ Admitted ──▶ RndvGranted ──▶ ChunkBound ──▶ (retx) ──▶ Delivered
//!      │ admission │  rndv      │  decision     │  retx        │  wire     │
//!      │   _wait   │  _wait     │  _wait        │  _recovery   │           │
//! ```
//!
//! The attribution carries an **exactness invariant**: milestones are
//! clamped into `[submit, delivered]` and sorted, so consecutive
//! differences telescope — for every message the phase durations sum to
//! *exactly* `delivered − submit`, in integer nanoseconds, byte-for-byte
//! reproducible across same-seed runs (`profcheck` in madcheck and the
//! proptests in `tests/determinism_exports.rs` pin this).
//!
//! On top of per-message attribution the profiler computes the **run
//! critical path**: starting from the delivery that sets the makespan, it
//! walks backward — through the message's own phases to its first packet
//! binding, then across the rail to the packet whose `TxDone` freed the
//! NIC, then into *that* packet's message — yielding the chain of spans
//! whose shortening would shorten the run. The events are folded into one
//! row per message as they are read, and the attribution is one walk over
//! those rows: O(events · log msgs).
//!
//! Exports: folded-stack flamegraph text (inferno-compatible),
//! per-message attribution CSV, a `madprof-profile` JSON document, and a
//! human `explain` table (top-N slowest messages with the dominating
//! phase, rail, strategy and veto count).

// madlint: file: deterministic-output

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use simnet::{NodeId, SimDuration, Trace as SimTrace, TraceEvent as SimEvent};

use crate::hist::LogHistogram;
use crate::json::{obj, Json, JsonError, Parser};
use crate::trace::{read_chrome_export, EngineEvent, EventSink};

/// Number of attribution phases.
pub const PHASE_COUNT: usize = 6;

/// One latency-attribution phase of a message's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Submit → madflow admission (zero when admission control is off).
    Admission,
    /// → last rendezvous grant (zero for eager-only messages).
    Rndv,
    /// → last chunk bound into an encoded packet: optimizer queueing and
    /// decision work, including waiting for an activation.
    Decision,
    /// → last retransmission of a packet carrying this message's bytes.
    Retx,
    /// → last echoed fabric congestion mark (madnet): time the message's
    /// bytes spent contending for marked switch queues. Zero on flat
    /// point-to-point fabrics.
    Queueing,
    /// → delivery: wire transit, receiver reassembly and in-order release.
    Wire,
}

impl Phase {
    /// All phases in attribution order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Admission,
        Phase::Rndv,
        Phase::Decision,
        Phase::Retx,
        Phase::Queueing,
        Phase::Wire,
    ];

    /// Stable label (folded stacks, CSV columns, registry keys).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Admission => "admission_wait",
            Phase::Rndv => "rndv_wait",
            Phase::Decision => "decision_wait",
            Phase::Retx => "retx_recovery",
            Phase::Queueing => "queueing",
            Phase::Wire => "wire",
        }
    }

    /// Index into per-phase arrays (`FlowSpan::phases`, histograms);
    /// also the tie-break order for same-timestamp milestones.
    pub fn rank(self) -> u8 {
        self as u8
    }
}

/// Identity of one delivered message: sending node, sender-side flow id,
/// sequence within the flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MsgKey {
    /// Sending node.
    pub src: u32,
    /// Sender-side flow id.
    pub flow: u32,
    /// Sequence within the flow.
    pub seq: u32,
}

impl std::fmt::Display for MsgKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}/flow{}#{}", self.src, self.flow, self.seq)
    }
}

/// Per-message attribution result: the flattened span tree.
#[derive(Clone, Debug)]
pub struct FlowSpan {
    /// Message identity.
    pub key: MsgKey,
    /// Traffic-class label (`"?"` when the submit record was truncated).
    pub class: String,
    /// Payload bytes.
    pub bytes: u64,
    /// Submission timestamp (ns).
    pub submit_ns: u64,
    /// Delivery timestamp (ns).
    pub delivered_ns: u64,
    /// Phase durations, indexed by [`Phase`]; sums to
    /// `delivered_ns − submit_ns` exactly.
    pub phases: [u64; PHASE_COUNT],
    /// Contiguous `(phase, start, end)` segments covering
    /// `[submit_ns, delivered_ns]` (zero-length segments included).
    pub segments: Vec<(Phase, u64, u64)>,
    /// Retransmissions that carried this message's bytes.
    pub retransmits: u32,
    /// Rail the first packet binding left on (`u16::MAX` if unknown).
    pub rail: u16,
    /// Strategy that won the binding activation (empty if unknown).
    pub strategy: String,
    /// Proposals vetoed in the binding activation.
    pub vetoes: u32,
}

impl FlowSpan {
    /// End-to-end latency (ns).
    pub fn total_ns(&self) -> u64 {
        self.delivered_ns - self.submit_ns
    }
}

/// One span on the run critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CritSpan {
    /// Message the span belongs to.
    pub key: MsgKey,
    /// Phase of the message this span covers.
    pub phase: Phase,
    /// Span start (ns).
    pub start_ns: u64,
    /// Span end (ns).
    pub end_ns: u64,
}

/// Normalized profiler input, decoupled from where the events came from:
/// [`ProfInput::from_engine`] reads live rings, [`ProfInput::from_chrome`]
/// re-reads an exported Chrome trace, and both produce the same profile.
/// Each record is folded into the row it is about as it is read, so the
/// attribution is one walk over the message rows.
#[derive(Clone, Debug, Default)]
pub struct ProfInput {
    /// Everything the streams say about each message.
    msgs: BTreeMap<MsgKey, MsgRow>,
    /// (node, cookie) → the packet: where it was encoded, what it carried.
    packets: BTreeMap<(u32, u64), PacketRow>,
    /// (node, activation) → what the optimizer decided there.
    acts: BTreeMap<(u32, u64), ActRow>,
    /// (node, rail) → chronological (ts, cookie) transmit completions.
    txdone: BTreeMap<(u32, u16), Vec<(u64, u64)>>,
    /// Traffic-class labels, one string per class however many messages
    /// carry it.
    classes: BTreeSet<Rc<str>>,
    /// Ring-overflow drops summed over every source stream.
    dropped: u64,
    /// Records consumed (all sources).
    events: usize,
    /// The attribution of the above, computed on first use: an input is
    /// not changed once it is built, so there is one profile per input.
    profile: OnceCell<Rc<Profile>>,
}

/// One message's milestones, from whichever streams recorded them.
#[derive(Clone, Debug, Default)]
struct MsgRow {
    /// (ts, bytes, class label) of the `Submitted` record.
    submit: Option<(u64, u64, Rc<str>)>,
    /// Admission ts.
    admit: Option<u64>,
    /// Last rendezvous-grant ts.
    grant: Option<u64>,
    /// (ts, bytes, latency_ns) of the `Delivered` record.
    delivered: Option<(u64, u64, u64)>,
    /// (ts, node, cookie) of the first chunk binding.
    first_bind: Option<(u64, u32, u64)>,
    /// Ts of the last chunk binding.
    last_bind: Option<u64>,
    /// Ts of the last retransmission that carried this message's bytes.
    retx_last: Option<u64>,
    /// Retransmissions that carried this message's bytes.
    retx_count: u32,
    /// Ts of the last congestion echo on a packet carrying its bytes.
    cong_last: Option<u64>,
    /// The packet it was last listed in: a packet's bindings are
    /// contiguous, so this lists a message once per packet (A, B, A).
    cookie: Option<u64>,
}

/// One packet, by sender-side cookie (a retransmission is a new cookie).
#[derive(Clone, Debug, Default)]
struct PacketRow {
    /// (rail, activation) from `PacketEncoded`.
    encoded: Option<(u16, u64)>,
    /// The messages whose bytes it carried, in binding order.
    msgs: Vec<MsgKey>,
}

/// One optimizer activation.
#[derive(Clone, Debug, Default)]
struct ActRow {
    /// Winning strategy (empty if no `PlanWon` was read).
    won: String,
    /// Vetoed proposals.
    vetoes: u32,
    /// Ordered canonical decision records (`P:` proposed, `V:` vetoed,
    /// `S:` scored, `W:` won), the same from either source.
    log: Vec<String>,
}

/// One trace record reduced to what the profiler keeps, independent of
/// the source it was read from: [`Rec::of_event`] decodes a live engine
/// event, [`Rec::of_chrome`] an exported Chrome instant event, and
/// [`ProfInput::fold`] is the only consumer. Record kinds the profiler
/// ignores decode to `None`.
enum Rec<'a> {
    TxDone {
        rail: u16,
        cookie: u64,
    },
    Submitted {
        key: MsgKey,
        bytes: u64,
        class: &'a str,
    },
    Admitted(MsgKey),
    RndvGranted(MsgKey),
    ChunkBound {
        key: MsgKey,
        cookie: u64,
    },
    Retransmit {
        old: u64,
        new: u64,
    },
    CongestionMark {
        sender: u32,
        cookie: u64,
    },
    Delivered {
        key: MsgKey,
        bytes: u64,
        latency_ns: u64,
    },
    PacketEncoded {
        activation: u64,
        rail: u16,
        cookie: u64,
    },
    PlanProposed {
        activation: u64,
        strategy: &'a str,
        chunks: u64,
        bytes: u64,
    },
    PlanScored {
        activation: u64,
        strategy: &'a str,
        score: (u64, u64),
    },
    /// `score` is absent from exports that did not record it; the win
    /// still counts, only the decision-log line is skipped.
    PlanWon {
        activation: u64,
        strategy: &'a str,
        score: Option<(u64, u64)>,
    },
    /// `why` = (strategy, violation); absent, the veto is still counted.
    PlanVetoed {
        activation: u64,
        why: Option<(&'a str, String)>,
    },
}

impl<'a> Rec<'a> {
    /// Decode a live engine event recorded on `node`.
    fn of_event(node: u32, event: &'a EngineEvent) -> Option<Rec<'a>> {
        let key = |src: u32, flow: &crate::ids::FlowId, seq: &u32| MsgKey {
            src,
            flow: flow.0,
            seq: *seq,
        };
        Some(match event {
            EngineEvent::Submitted {
                flow,
                seq,
                bytes,
                class,
                ..
            } => Rec::Submitted {
                key: key(node, flow, seq),
                bytes: *bytes,
                class: class.label(),
            },
            EngineEvent::Admitted { flow, seq, .. } => Rec::Admitted(key(node, flow, seq)),
            EngineEvent::RndvGranted { flow, seq, .. } => Rec::RndvGranted(key(node, flow, seq)),
            EngineEvent::ChunkBound {
                flow, seq, cookie, ..
            } => Rec::ChunkBound {
                key: key(node, flow, seq),
                cookie: *cookie,
            },
            EngineEvent::Retransmit {
                old_cookie,
                new_cookie,
                ..
            } => Rec::Retransmit {
                old: *old_cookie,
                new: *new_cookie,
            },
            EngineEvent::CongestionMark { src, cookie, .. } => Rec::CongestionMark {
                sender: src.0,
                cookie: *cookie,
            },
            EngineEvent::Delivered {
                src,
                flow,
                seq,
                bytes,
                latency_ns,
            } => Rec::Delivered {
                key: key(src.0, flow, seq),
                bytes: *bytes,
                latency_ns: *latency_ns,
            },
            EngineEvent::PacketEncoded {
                activation,
                rail,
                cookie,
                ..
            } => Rec::PacketEncoded {
                activation: *activation,
                rail: *rail,
                cookie: *cookie,
            },
            EngineEvent::PlanProposed {
                activation,
                strategy,
                chunks,
                bytes,
            } => Rec::PlanProposed {
                activation: *activation,
                strategy,
                chunks: u64::from(*chunks),
                bytes: *bytes,
            },
            EngineEvent::PlanScored {
                activation,
                strategy,
                score_num,
                score_den,
            } => Rec::PlanScored {
                activation: *activation,
                strategy,
                score: (*score_num, *score_den),
            },
            EngineEvent::PlanWon {
                activation,
                strategy,
                score_num,
                score_den,
            } => Rec::PlanWon {
                activation: *activation,
                strategy,
                score: Some((*score_num, *score_den)),
            },
            EngineEvent::PlanVetoed {
                activation,
                strategy,
                violation,
            } => Rec::PlanVetoed {
                activation: *activation,
                why: Some((strategy, violation.to_string())),
            },
            _ => return None,
        })
    }

    /// Decode one Chrome instant event (`pid` = node, `tid` = rail track);
    /// a record missing a required argument decodes to `None`.
    fn of_chrome(pid: u32, tid: u16, name: &str, args: &'a Json) -> Option<Rec<'a>> {
        let au = |k: &str| args.get(k).and_then(|v| v.as_u64());
        let astr = |k: &str| args.get(k).and_then(|v| v.as_str());
        let key = |src: u32| {
            Some(MsgKey {
                src,
                flow: au("flow")? as u32,
                seq: au("seq")? as u32,
            })
        };
        let score = || Some((au("score_num")?, au("score_den")?));
        Some(match name {
            "TxDone" => Rec::TxDone {
                rail: tid,
                cookie: au("cookie")?,
            },
            "Submitted" => Rec::Submitted {
                key: key(pid)?,
                bytes: au("bytes")?,
                class: astr("class").unwrap_or("?"),
            },
            "Admitted" => Rec::Admitted(key(pid)?),
            "RndvGranted" => Rec::RndvGranted(key(pid)?),
            "ChunkBound" => Rec::ChunkBound {
                key: key(pid)?,
                cookie: au("cookie")?,
            },
            "Retransmit" => Rec::Retransmit {
                old: au("old_cookie")?,
                new: au("new_cookie")?,
            },
            "CongestionMark" => Rec::CongestionMark {
                sender: au("src")? as u32,
                cookie: au("cookie")?,
            },
            "Delivered" => Rec::Delivered {
                key: key(au("src")? as u32)?,
                bytes: au("bytes")?,
                latency_ns: au("latency_ns")?,
            },
            "PacketEncoded" => Rec::PacketEncoded {
                activation: au("activation")?,
                rail: au("rail")? as u16,
                cookie: au("cookie")?,
            },
            "PlanProposed" => Rec::PlanProposed {
                activation: au("activation")?,
                strategy: astr("strategy")?,
                chunks: au("chunks")?,
                bytes: au("bytes")?,
            },
            "PlanScored" => Rec::PlanScored {
                activation: au("activation")?,
                strategy: astr("strategy")?,
                score: score()?,
            },
            "PlanWon" => Rec::PlanWon {
                activation: au("activation")?,
                strategy: astr("strategy")?,
                score: score(),
            },
            "PlanVetoed" => Rec::PlanVetoed {
                activation: au("activation")?,
                why: astr("strategy").zip(astr("violation").map(str::to_string)),
            },
            _ => return None,
        })
    }
}

impl ProfInput {
    /// Normalize live rings: the simulator trace, per-node engine sinks
    /// and the `nics[node][rail]` topology (same shape as
    /// [`crate::trace::export_chrome_trace`]).
    pub fn from_engine(
        sim: &SimTrace,
        sinks: &[(NodeId, &EventSink)],
        nics: &[Vec<simnet::NicId>],
    ) -> ProfInput {
        let mut nic_loc: BTreeMap<u32, (u32, u16)> = BTreeMap::new();
        for (node, rails) in nics.iter().enumerate() {
            for (rail, nic) in rails.iter().enumerate() {
                nic_loc.insert(nic.0, (node as u32, rail as u16));
            }
        }
        let mut input = ProfInput {
            dropped: sim.dropped(),
            ..ProfInput::default()
        };
        for rec in sim.iter() {
            input.events += 1;
            if let SimEvent::TxDone { nic, cookie } = &rec.event {
                if let Some(&(node, rail)) = nic_loc.get(&nic.0) {
                    let cookie = *cookie;
                    input.fold(node, rec.at.as_nanos(), Rec::TxDone { rail, cookie });
                }
            }
        }
        for (node, sink) in sinks {
            input.dropped += sink.dropped();
            for rec in sink.iter() {
                input.events += 1;
                if let Some(r) = Rec::of_event(node.0, &rec.event) {
                    input.fold(node.0, rec.at.as_nanos(), r);
                }
            }
        }
        input
    }

    /// The one record → state fold: every per-kind update of the rows
    /// above lives here, whichever source the record was decoded from.
    /// `node` is the node whose ring (or Chrome process) held the record.
    fn fold(&mut self, node: u32, ts: u64, rec: Rec<'_>) {
        let (msgs, packets, acts) = (&mut self.msgs, &mut self.packets, &mut self.acts);
        match rec {
            Rec::TxDone { rail, cookie } => {
                self.txdone
                    .entry((node, rail))
                    .or_default()
                    .push((ts, cookie));
            }
            Rec::Submitted { key, bytes, class } => {
                let known = self.classes.get(class).cloned();
                let class = known.unwrap_or_else(|| Rc::from(class));
                self.classes.insert(Rc::clone(&class));
                msgs.entry(key).or_default().submit = Some((ts, bytes, class));
            }
            Rec::Admitted(key) => msgs.entry(key).or_default().admit = Some(ts),
            // Last grant wins.
            Rec::RndvGranted(key) => msgs.entry(key).or_default().grant = Some(ts),
            Rec::ChunkBound { key, cookie } => {
                let row = msgs.entry(key).or_default();
                row.first_bind.get_or_insert((ts, node, cookie));
                row.last_bind = Some(ts);
                if row.cookie != Some(cookie) {
                    row.cookie = Some(cookie);
                    packets.entry((node, cookie)).or_default().msgs.push(key);
                }
            }
            Rec::Retransmit { old, new } => {
                // The new cookie inherits the old one's messages, so a
                // re-sent packet still belongs to them.
                let Some(carried) = packets.get(&(node, old)).map(|p| p.msgs.clone()) else {
                    return;
                };
                let renamed = &mut packets.entry((node, new)).or_default().msgs;
                for key in carried {
                    let row = msgs.entry(key).or_default();
                    row.retx_last = Some(ts);
                    row.retx_count += 1;
                    if row.cookie != Some(new) {
                        row.cookie = Some(new);
                        renamed.push(key);
                    }
                }
            }
            Rec::CongestionMark { sender, cookie } => {
                // Filed under the *sender* — cookies are per-sender
                // counters, and the mark lives in the sender's sink.
                // Every message the marked packet carried spent time in a
                // hot switch queue; the echo arrival is the queueing
                // milestone (last mark wins).
                for key in packets
                    .get(&(sender, cookie))
                    .into_iter()
                    .flat_map(|p| &p.msgs)
                {
                    msgs.entry(*key).or_default().cong_last = Some(ts);
                }
            }
            Rec::Delivered {
                key,
                bytes,
                latency_ns,
            } => msgs.entry(key).or_default().delivered = Some((ts, bytes, latency_ns)),
            Rec::PacketEncoded {
                activation,
                rail,
                cookie,
            } => packets.entry((node, cookie)).or_default().encoded = Some((rail, activation)),
            Rec::PlanProposed {
                activation,
                strategy,
                chunks,
                bytes,
            } => acts
                .entry((node, activation))
                .or_default()
                .log
                .push(format!("P:{strategy}:{chunks}:{bytes}")),
            Rec::PlanScored {
                activation,
                strategy,
                score: (num, den),
            } => acts
                .entry((node, activation))
                .or_default()
                .log
                .push(format!("S:{strategy}:{num}/{den}")),
            Rec::PlanWon {
                activation,
                strategy,
                score,
            } => {
                let row = acts.entry((node, activation)).or_default();
                if let Some((num, den)) = score {
                    row.log.push(format!("W:{strategy}:{num}/{den}"));
                }
                row.won = strategy.to_string();
            }
            Rec::PlanVetoed { activation, why } => {
                let row = acts.entry((node, activation)).or_default();
                if let Some((strategy, violation)) = why {
                    row.log.push(format!("V:{strategy}:{violation}"));
                }
                row.vetoes += 1;
            }
        }
    }

    /// Normalize an exported madtrace Chrome JSON document (the
    /// `trace-tool export` / `export_chrome_trace` output), so profiles
    /// can be rebuilt from an artifact long after the run. The document
    /// is folded one `traceEvents` element at a time and never held as a
    /// tree: the peak is the text plus the input being built.
    pub fn from_chrome(text: &str) -> Result<ProfInput, String> {
        let mut input = ProfInput::default();
        let header = read_chrome_export(text, |p| input.fold_chrome(p))?;
        if let Some(other) = &header.other_data {
            input.dropped += other
                .get("sim_dropped")
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
            if let Some(Json::Obj(fields)) = other.get("engine_dropped") {
                for (_, v) in fields {
                    input.dropped += v.as_u64().unwrap_or(0);
                }
            }
        }
        Ok(input)
    }

    /// Fold the `traceEvents` element at the cursor. Metadata, flow
    /// arrows and anything that is not a well-formed instant event carry
    /// no samples and are passed over.
    fn fold_chrome(&mut self, p: &mut Parser<'_>) -> Result<(), JsonError> {
        /// The string at the cursor; any other value is passed over.
        fn string<'a>(p: &mut Parser<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
            match p.peek() {
                Some(b'"') => p.string().map(Some),
                _ => p.skip().map(|()| None),
            }
        }
        if p.peek() != Some(b'{') {
            return p.skip();
        }
        let (mut name, mut ph, mut ts, mut args) = (None, None, None, None);
        let (mut pid, mut tid) = (0, 0);
        p.begin_object()?;
        while let Some(key) = p.next_key()? {
            match &*key {
                "name" if name.is_none() => name = string(p)?,
                "ph" if ph.is_none() => ph = string(p)?,
                "ts" if ts.is_none() => ts = Some(p.value()?),
                "pid" => pid = p.value()?.as_u64().unwrap_or(0),
                "tid" => tid = p.value()?.as_u64().unwrap_or(0),
                "args" if args.is_none() => args = Some(p.value()?),
                _ => p.skip()?,
            }
        }
        let (Some(name), Some("i"), Some(args)) = (name, ph.as_deref(), args) else {
            return Ok(());
        };
        let ts = match ts {
            Some(Json::Float(us)) => (us * 1000.0).round() as u64,
            Some(Json::UInt(us)) => us * 1000,
            Some(Json::Int(us)) if us >= 0 => (us as u64) * 1000,
            _ => return Ok(()),
        };
        self.events += 1;
        if let Some(r) = Rec::of_chrome(pid as u32, tid as u16, &name, &args) {
            self.fold(pid as u32, ts, r);
        }
        Ok(())
    }

    /// Ordered canonical decision records per `(node, activation)` —
    /// maddiff compares these log-for-log to find the first activation
    /// where two runs' planners disagreed. Activations that logged no
    /// record are absent.
    pub fn decisions(&self) -> BTreeMap<(u32, u64), Vec<String>> {
        self.acts
            .iter()
            .filter(|(_, act)| !act.log.is_empty())
            .map(|(&at, act)| (at, act.log.clone()))
            .collect()
    }

    /// Messages that were submitted but never delivered (shed under
    /// admission pressure, or abandoned when a rail died), with their
    /// traffic class, ordered by [`MsgKey`]. maddiff reports these as
    /// `unmatched`, never folding them into phase deltas.
    pub fn undelivered(&self) -> Vec<(MsgKey, String)> {
        self.msgs
            .iter()
            .filter(|(_, row)| row.delivered.is_none())
            .filter_map(|(key, row)| Some((*key, row.submit.as_ref()?.2.to_string())))
            .collect()
    }

    /// This input's profile: the attribution and critical-path passes run
    /// on the first call, and every later call — [`RunSnapshot::capture`]
    /// among them — shares that result.
    ///
    /// [`RunSnapshot::capture`]: crate::diff::RunSnapshot::capture
    pub fn profile(&self) -> Rc<Profile> {
        Rc::clone(self.profile.get_or_init(|| Rc::new(self.attribute())))
    }

    /// [`ProfInput::profile`] for a caller that is done with the input
    /// and wants the profile to itself.
    pub fn into_profile(self) -> Profile {
        let shared = self.profile();
        drop(self);
        Rc::try_unwrap(shared).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Run the attribution and critical-path passes.
    fn attribute(&self) -> Profile {
        // Per-message milestone segmentation, one walk over the rows.
        let mut flows: Vec<FlowSpan> = Vec::with_capacity(self.msgs.len());
        let mut phase_hist: [LogHistogram<SimDuration>; PHASE_COUNT] =
            std::array::from_fn(|_| LogHistogram::new());
        let mut violations = 0u64;
        for (&key, row) in &self.msgs {
            let Some((d_ts, d_bytes, latency_ns)) = row.delivered else {
                continue;
            };
            let (s_ts, bytes, class) = match &row.submit {
                Some((s, b, c)) => (*s, *b, c.to_string()),
                // Submit fell off the ring: reconstruct from the latency
                // the receiver measured; all interior milestones are gone
                // too, so the time lands in `wire` — `truncated` flags it.
                None => (d_ts.saturating_sub(latency_ns), d_bytes, "?".to_string()),
            };
            let s_ts = s_ts.min(d_ts);
            let milestones = [
                (row.admit, Phase::Admission),
                (row.grant, Phase::Rndv),
                (row.last_bind, Phase::Decision),
                (row.retx_last, Phase::Retx),
                (row.cong_last, Phase::Queueing),
            ];
            let mut marks: Vec<(u64, Phase)> = milestones
                .into_iter()
                .filter_map(|(t, p)| Some((t?.clamp(s_ts, d_ts), p)))
                .collect();
            marks.sort_by_key(|&(t, p)| (t, p.rank()));
            let mut segments: Vec<(Phase, u64, u64)> = Vec::with_capacity(marks.len() + 1);
            let mut phases = [0u64; PHASE_COUNT];
            let mut prev = s_ts;
            for (t, p) in marks {
                segments.push((p, prev, t));
                phases[p.rank() as usize] += t - prev;
                prev = t;
            }
            segments.push((Phase::Wire, prev, d_ts));
            phases[Phase::Wire.rank() as usize] += d_ts - prev;
            // The receiver-side Delivered event carries its own latency
            // measurement; disagreement means the streams are inconsistent
            // (truncation or mixed runs), never a profiler bug.
            if d_ts - s_ts != latency_ns && row.submit.is_some() {
                violations += 1;
            }
            for p in Phase::ALL {
                phase_hist[p.rank() as usize]
                    .record(SimDuration::from_nanos(phases[p.rank() as usize]));
            }
            let binding = row.first_bind.and_then(|(_, node, cookie)| {
                let (rail, act) = self.packets.get(&(node, cookie))?.encoded?;
                Some((rail, self.acts.get(&(node, act))))
            });
            let (rail, strategy, vetoes) = match binding {
                Some((rail, Some(act))) => (rail, act.won.clone(), act.vetoes),
                Some((rail, None)) => (rail, String::new(), 0),
                None => (u16::MAX, String::new(), 0),
            };
            flows.push(FlowSpan {
                key,
                class,
                bytes,
                submit_ns: s_ts,
                delivered_ns: d_ts,
                phases,
                segments,
                retransmits: row.retx_count,
                rail,
                strategy,
                vetoes,
            });
        }

        // Backward critical-path walk from the makespan delivery.
        let critical_path = critical_path(&flows, &self.msgs, &self.packets, &self.txdone);

        Profile {
            flows,
            phase_hist,
            critical_path,
            events_processed: self.events,
            dropped_events: self.dropped,
            partition_violations: violations,
        }
    }
}

/// Walk backward from the delivery that sets the makespan: follow the
/// message's own segments to its first packet binding, then jump across
/// the rail to the packet whose `TxDone` last freed it, and continue in
/// that packet's message. Stops when the rail was idle (no `TxDone` since
/// the message's submit) or a cycle would form.
fn critical_path(
    flows: &[FlowSpan],
    msgs: &BTreeMap<MsgKey, MsgRow>,
    packets: &BTreeMap<(u32, u64), PacketRow>,
    txdone: &BTreeMap<(u32, u16), Vec<(u64, u64)>>,
) -> Vec<CritSpan> {
    let by_key: BTreeMap<MsgKey, &FlowSpan> = flows.iter().map(|f| (f.key, f)).collect();
    let carried = |node: u32, cookie: u64| packets.get(&(node, cookie)).map(|p| &p.msgs);
    let mut end: Option<&FlowSpan> = None;
    for f in flows {
        // Strict `>` keeps the earliest key on ties — deterministic.
        if end.is_none_or(|e| f.delivered_ns > e.delivered_ns) {
            end = Some(f);
        }
    }
    let mut cur = match end {
        Some(f) => f,
        None => return Vec::new(),
    };
    let mut hi = cur.delivered_ns;
    let mut chain: Vec<CritSpan> = Vec::new();
    let mut visited: BTreeSet<MsgKey> = BTreeSet::new();
    let push_window = |chain: &mut Vec<CritSpan>, f: &FlowSpan, lo: u64, hi: u64| {
        for &(phase, s, e) in f.segments.iter().rev() {
            let (s, e) = (s.max(lo), e.min(hi));
            if s < e {
                chain.push(CritSpan {
                    key: f.key,
                    phase,
                    start_ns: s,
                    end_ns: e,
                });
            }
        }
    };
    while visited.insert(cur.key) && chain.len() < 4096 {
        let (tb, node, cookie) = match msgs.get(&cur.key).and_then(|row| row.first_bind) {
            Some(b) => b,
            None => {
                push_window(&mut chain, cur, cur.submit_ns, hi);
                break;
            }
        };
        let tb = tb.clamp(cur.submit_ns, hi);
        push_window(&mut chain, cur, tb, hi);
        let pred = packets
            .get(&(node, cookie))
            .and_then(|p| p.encoded)
            .and_then(|(rail, _)| txdone.get(&(node, rail)))
            .and_then(|list| {
                // Last completion at or before the binding that is not one
                // of this message's own packets.
                list.iter()
                    .rev()
                    .skip_while(|&&(t, _)| t > tb)
                    .find(|&&(_, ck)| carried(node, ck).is_none_or(|keys| !keys.contains(&cur.key)))
                    .copied()
            })
            .and_then(|(t_done, ck)| {
                if t_done <= cur.submit_ns {
                    return None; // rail was idle when we arrived
                }
                carried(node, ck)?
                    .iter()
                    .find(|k| !visited.contains(k))
                    .and_then(|k| by_key.get(k))
                    .map(|f| (t_done, *f))
            });
        match pred {
            Some((t_done, next)) => {
                push_window(&mut chain, cur, t_done, tb);
                cur = next;
                hi = t_done.min(cur.delivered_ns);
            }
            None => {
                push_window(&mut chain, cur, cur.submit_ns, tb);
                break;
            }
        }
    }
    chain.reverse();
    chain
}

/// A computed profile: per-message attribution, per-phase histograms and
/// the run critical path.
#[derive(Clone, Debug)]
pub struct Profile {
    /// One span tree per delivered message, ordered by [`MsgKey`].
    pub flows: Vec<FlowSpan>,
    /// Per-phase latency histograms over all delivered messages.
    pub phase_hist: [LogHistogram<SimDuration>; PHASE_COUNT],
    /// The run critical path, chronological.
    pub critical_path: Vec<CritSpan>,
    /// Records consumed from every input stream.
    pub events_processed: usize,
    /// Ring-overflow drops across all input streams; non-zero means the
    /// attribution ran on a truncated history.
    pub dropped_events: u64,
    /// Messages whose reconstructed lifetime disagrees with the
    /// receiver-measured latency (should be zero on complete streams).
    pub partition_violations: u64,
}

impl Profile {
    /// Whether any input ring overflowed — consumers must warn before
    /// trusting the attribution.
    pub fn truncated(&self) -> bool {
        self.dropped_events > 0
    }

    /// Quantile of one phase's share of end-to-end latency, in
    /// thousandths (0–1000), over all delivered messages.
    pub fn phase_share_mille(&self, phase: Phase, q: f64) -> u64 {
        share_quantile(&self.phase_shares(phase), q)
    }

    /// Every delivered message's share of `phase` in its end-to-end
    /// latency, in thousandths, ascending.
    fn phase_shares(&self, phase: Phase) -> Vec<u64> {
        let mut shares: Vec<u64> = self
            .flows
            .iter()
            .filter(|f| f.total_ns() > 0)
            .map(|f| f.phases[phase.rank() as usize] * 1000 / f.total_ns())
            .collect();
        shares.sort_unstable();
        shares
    }

    /// Folded-stack flamegraph text (inferno-compatible): one line per
    /// `node;class;flow;phase` stack with total nanoseconds as the count,
    /// lexically sorted.
    pub fn folded_stacks(&self) -> String {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for f in &self.flows {
            for p in Phase::ALL {
                let ns = f.phases[p.rank() as usize];
                if ns > 0 {
                    let stack = format!(
                        "node{};{};flow{};{}",
                        f.key.src,
                        f.class,
                        f.key.flow,
                        p.label()
                    );
                    *agg.entry(stack).or_insert(0) += ns;
                }
            }
        }
        let mut out = String::new();
        for (stack, ns) in agg {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Per-message attribution CSV, ordered by [`MsgKey`].
    pub fn attribution_csv(&self) -> String {
        let mut out = String::from(
            "src,flow,seq,class,bytes,submit_ns,delivered_ns,total_ns,\
             admission_ns,rndv_ns,decision_ns,retx_ns,queueing_ns,wire_ns,\
             retransmits,rail,strategy\n",
        );
        for f in &self.flows {
            let rail = if f.rail == u16::MAX {
                String::from("-")
            } else {
                f.rail.to_string()
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                f.key.src,
                f.key.flow,
                f.key.seq,
                f.class,
                f.bytes,
                f.submit_ns,
                f.delivered_ns,
                f.total_ns(),
                f.phases[0],
                f.phases[1],
                f.phases[2],
                f.phases[3],
                f.phases[4],
                f.phases[5],
                f.retransmits,
                rail,
                f.strategy,
            ));
        }
        out
    }

    /// The registry/artifact JSON block (deterministic field order).
    pub fn to_json(&self) -> Json {
        let mut phases = obj();
        for p in Phase::ALL {
            let h = &self.phase_hist[p.rank() as usize];
            let total: u64 = self.flows.iter().map(|f| f.phases[p.rank() as usize]).sum();
            let shares = self.phase_shares(p);
            phases = phases.field(
                p.label(),
                obj()
                    .field("total_ns", total)
                    .field("share_p50_mille", share_quantile(&shares, 0.50))
                    .field("share_p99_mille", share_quantile(&shares, 0.99))
                    .field("latency_us", h.to_json())
                    .build(),
            );
        }
        let crit = obj()
            .field("spans", self.critical_path.len() as u64)
            .field(
                "start_ns",
                self.critical_path.first().map_or(0, |s| s.start_ns),
            )
            .field("end_ns", self.critical_path.last().map_or(0, |s| s.end_ns))
            .build();
        obj()
            .field("artifact", "madprof-profile")
            .field("messages", self.flows.len() as u64)
            .field("events_processed", self.events_processed as u64)
            .field("dropped_events", self.dropped_events)
            .field("truncated", self.truncated())
            .field("partition_violations", self.partition_violations)
            .field("phases", phases.build())
            .field("critical_path", crit)
            .build()
    }

    /// Human explain table: the `n` slowest messages with their phase
    /// breakdown and what decided their fate (rail, strategy, vetoes),
    /// followed by a critical-path summary.
    pub fn explain(&self, n: usize) -> String {
        let mut out = String::new();
        if self.flows.is_empty() {
            out.push_str("madprof: no delivered messages in the event stream\n");
            return out;
        }
        let mut order: Vec<&FlowSpan> = self.flows.iter().collect();
        order.sort_by(|a, b| b.total_ns().cmp(&a.total_ns()).then(a.key.cmp(&b.key)));
        out.push_str(&format!(
            "madprof: {} delivered messages, {} events\n",
            self.flows.len(),
            self.events_processed
        ));
        out.push_str(&format!(
            "{:<22} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}  {:<5} {:<14} {:>4} {:>6}\n",
            "message",
            "bytes",
            "total_us",
            "admis%",
            "rndv%",
            "decis%",
            "retx%",
            "queue%",
            "wire%",
            "rail",
            "strategy",
            "retx",
            "vetoes"
        ));
        for f in order.into_iter().take(n) {
            let total = f.total_ns().max(1);
            let pct = |p: Phase| 100 * f.phases[p.rank() as usize] / total;
            let rail = if f.rail == u16::MAX {
                String::from("-")
            } else {
                f.rail.to_string()
            };
            out.push_str(&format!(
                "{:<22} {:>9} {:>10.1} {:>7}% {:>7}% {:>7}% {:>7}% {:>7}% {:>7}%  {:<5} {:<14} {:>4} {:>6}\n",
                f.key.to_string(),
                f.bytes,
                f.total_ns() as f64 / 1000.0,
                pct(Phase::Admission),
                pct(Phase::Rndv),
                pct(Phase::Decision),
                pct(Phase::Retx),
                pct(Phase::Queueing),
                pct(Phase::Wire),
                rail,
                if f.strategy.is_empty() {
                    "-"
                } else {
                    &f.strategy
                },
                f.retransmits,
                f.vetoes,
            ));
        }
        if let (Some(first), Some(last)) = (self.critical_path.first(), self.critical_path.last()) {
            let mut per_phase = [0u64; PHASE_COUNT];
            let mut msgs: BTreeSet<MsgKey> = BTreeSet::new();
            for s in &self.critical_path {
                per_phase[s.phase.rank() as usize] += s.end_ns - s.start_ns;
                msgs.insert(s.key);
            }
            out.push_str(&format!(
                "critical path: {} spans over {} messages, {:.1} us ({} -> {} ns)\n",
                self.critical_path.len(),
                msgs.len(),
                (last.end_ns - first.start_ns) as f64 / 1000.0,
                first.start_ns,
                last.end_ns
            ));
            let mut parts: Vec<String> = Vec::new();
            for p in Phase::ALL {
                if per_phase[p.rank() as usize] > 0 {
                    parts.push(format!(
                        "{} {:.1}us",
                        p.label(),
                        per_phase[p.rank() as usize] as f64 / 1000.0
                    ));
                }
            }
            out.push_str(&format!("  on-path time: {}\n", parts.join(", ")));
        }
        out
    }
}

/// Nearest-rank quantile of ascending `shares` (0 when there are none).
fn share_quantile(shares: &[u64], q: f64) -> u64 {
    if shares.is_empty() {
        return 0;
    }
    shares[((shares.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, TrafficClass};
    use crate::metrics::Activation;
    use simnet::{NicId, SimTime};

    fn key(flow: u32, seq: u32) -> MsgKey {
        MsgKey { src: 0, flow, seq }
    }

    /// One gated, retransmitted message end to end, hand-built.
    fn one_message_input() -> ProfInput {
        let mut sink = EventSink::with_capacity(64);
        let t = SimTime::from_nanos;
        sink.push(
            t(0),
            EngineEvent::Submitted {
                flow: FlowId(1),
                seq: 0,
                frags: 1,
                bytes: 4096,
                class: TrafficClass::BULK,
            },
        );
        sink.push(
            t(10),
            EngineEvent::Admitted {
                flow: FlowId(1),
                seq: 0,
                bytes: 4096,
                backlog: 4096,
            },
        );
        sink.push(
            t(50),
            EngineEvent::RndvGranted {
                flow: FlowId(1),
                seq: 0,
                frag: 0,
            },
        );
        sink.push(
            t(100),
            EngineEvent::ActivationStart {
                id: 1,
                cause: Activation::Submit,
                rail: 0,
                backlog_depth: 1,
            },
        );
        sink.push(
            t(100),
            EngineEvent::PlanVetoed {
                activation: 1,
                strategy: "split",
                violation: crate::constraints::PlanViolation::EmptyPlan,
            },
        );
        sink.push(
            t(100),
            EngineEvent::PlanWon {
                activation: 1,
                strategy: "aggregate",
                score_num: 1,
                score_den: 1,
            },
        );
        sink.push(
            t(100),
            EngineEvent::PacketEncoded {
                activation: 1,
                rail: 0,
                cookie: 7,
                chunks: 1,
                bytes: 4096,
                linearized: false,
            },
        );
        sink.push(
            t(100),
            EngineEvent::ChunkBound {
                flow: FlowId(1),
                seq: 0,
                frag: 0,
                cookie: 7,
                bytes: 4096,
            },
        );
        sink.push(
            t(140),
            EngineEvent::Retransmit {
                old_cookie: 7,
                new_cookie: 8,
                rail: 0,
                attempt: 2,
            },
        );
        sink.push(
            t(160),
            EngineEvent::Retransmit {
                old_cookie: 8,
                new_cookie: 9,
                rail: 0,
                attempt: 3,
            },
        );
        sink.push(
            t(200),
            EngineEvent::Delivered {
                src: NodeId(0),
                flow: FlowId(1),
                seq: 0,
                bytes: 4096,
                latency_ns: 200,
            },
        );
        let sim = SimTrace::with_capacity(8);
        let sinks = [(NodeId(0), &sink)];
        ProfInput::from_engine(&sim, &sinks, &[vec![NicId(0)], vec![NicId(1)]])
    }

    #[test]
    fn phases_partition_lifetime_exactly() {
        let p = one_message_input().profile();
        assert_eq!(p.flows.len(), 1);
        let f = &p.flows[0];
        assert_eq!(f.key, key(1, 0));
        // admission 0→10, rndv 10→50, decision 50→100, retx 100→160,
        // no fabric marks (queueing 0), wire 160→200.
        assert_eq!(f.phases, [10, 40, 50, 60, 0, 40]);
        assert_eq!(f.phases.iter().sum::<u64>(), f.total_ns());
        assert_eq!(f.retransmits, 2);
        assert_eq!(f.rail, 0);
        assert_eq!(f.strategy, "aggregate");
        assert_eq!(f.vetoes, 1);
        assert_eq!(p.partition_violations, 0);
        assert!(!p.truncated());
    }

    /// An input profiles once: later calls, and the snapshot capture,
    /// share the first call's result instead of re-running the passes.
    #[test]
    fn an_input_holds_one_profile() {
        let input = one_message_input();
        let (a, b) = (input.profile(), input.profile());
        assert!(Rc::ptr_eq(&a, &b), "the second call must not re-attribute");
        let fresh = one_message_input().into_profile();
        assert_eq!(a.attribution_csv(), fresh.attribution_csv());
        assert_eq!(a.critical_path, fresh.critical_path);
        let snap = crate::diff::RunSnapshot::capture("x", &input);
        assert!(Rc::ptr_eq(&a, &input.profile()), "capture reuses it too");
        assert_eq!(snap.rows.len(), a.flows.len());
        assert_eq!(snap.rows[0].phases, a.flows[0].phases);
        assert_eq!(snap.critical_path, a.critical_path);
    }

    #[test]
    fn exports_are_deterministic_and_consistent() {
        let input = one_message_input();
        let a = input.profile();
        let b = one_message_input().profile();
        assert_eq!(a.attribution_csv(), b.attribution_csv());
        assert_eq!(a.folded_stacks(), b.folded_stacks());
        assert_eq!(a.to_json().render(), b.to_json().render());
        assert!(a
            .folded_stacks()
            .contains("node0;bulk;flow1;retx_recovery 60"));
        let csv = a.attribution_csv();
        assert!(csv.starts_with("src,flow,seq,class,bytes"));
        assert!(csv.contains("0,1,0,bulk,4096,0,200,200,10,40,50,60,0,40,2,0,aggregate"));
        // Shares: retx holds 300/1000 of the single message.
        assert_eq!(a.phase_share_mille(Phase::Retx, 0.5), 300);
    }

    #[test]
    fn congestion_marks_open_a_queueing_phase() {
        let mut input = one_message_input();
        // The fabric marked the final retransmission (cookie chain
        // 7→8→9); its ack echo lands at t=180, splitting the former
        // 160→200 wire segment into queueing 160→180 + wire 180→200.
        let mark = Rec::CongestionMark {
            sender: 0,
            cookie: 9,
        };
        input.fold(0, 180, mark);
        let p = input.profile();
        let f = &p.flows[0];
        assert_eq!(f.phases, [10, 40, 50, 60, 20, 20]);
        assert_eq!(f.phases.iter().sum::<u64>(), f.total_ns());
        assert_eq!(p.partition_violations, 0);
        assert!(p
            .attribution_csv()
            .contains("0,1,0,bulk,4096,0,200,200,10,40,50,60,20,20,2,0,aggregate"));
        assert!(input.profile().folded_stacks().contains("queueing 20"));
    }

    #[test]
    fn critical_path_chains_across_the_rail() {
        // m1 occupies rail 0 until t=100; m2 binds at t=105 and sets the
        // makespan — the path must jump from m2 back into m1.
        let mut sink = EventSink::with_capacity(64);
        let t = SimTime::from_nanos;
        for (flow, submit, bind, cookie, deliver) in
            [(1u32, 0u64, 10u64, 1u64, 110u64), (2, 5, 105, 2, 200)]
        {
            sink.push(
                t(submit),
                EngineEvent::Submitted {
                    flow: FlowId(flow),
                    seq: 0,
                    frags: 1,
                    bytes: 64,
                    class: TrafficClass::DEFAULT,
                },
            );
            sink.push(
                t(bind),
                EngineEvent::PacketEncoded {
                    activation: u64::from(flow),
                    rail: 0,
                    cookie,
                    chunks: 1,
                    bytes: 64,
                    linearized: false,
                },
            );
            sink.push(
                t(bind),
                EngineEvent::ChunkBound {
                    flow: FlowId(flow),
                    seq: 0,
                    frag: 0,
                    cookie,
                    bytes: 64,
                },
            );
            sink.push(
                t(deliver),
                EngineEvent::Delivered {
                    src: NodeId(0),
                    flow: FlowId(flow),
                    seq: 0,
                    bytes: 64,
                    latency_ns: deliver - submit,
                },
            );
        }
        let mut sim = SimTrace::with_capacity(16);
        sim.push(
            t(100),
            simnet::TraceEvent::TxDone {
                nic: NicId(0),
                cookie: 1,
            },
        );
        sim.push(
            t(190),
            simnet::TraceEvent::TxDone {
                nic: NicId(0),
                cookie: 2,
            },
        );
        let sinks = [(NodeId(0), &sink)];
        let p = ProfInput::from_engine(&sim, &sinks, &[vec![NicId(0)]]).profile();
        let path = &p.critical_path;
        assert!(!path.is_empty());
        // Chronological, contiguous, ends at the makespan.
        assert_eq!(path.last().map(|s| s.end_ns), Some(200));
        for w in path.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns, "path must be contiguous");
        }
        let msgs: BTreeSet<u32> = path.iter().map(|s| s.key.flow).collect();
        assert_eq!(msgs, BTreeSet::from([1, 2]), "path crosses both messages");
        // The chain starts inside m1 (its submit), not at m2's.
        assert_eq!(path.first().map(|s| (s.key.flow, s.start_ns)), Some((1, 0)));
    }

    #[test]
    fn truncated_submit_reconstructs_and_flags() {
        let mut sink = EventSink::with_capacity(2);
        // Capacity 2: the Submitted record is overwritten.
        sink.push(
            SimTime::from_nanos(0),
            EngineEvent::Submitted {
                flow: FlowId(1),
                seq: 0,
                frags: 1,
                bytes: 64,
                class: TrafficClass::DEFAULT,
            },
        );
        sink.push(
            SimTime::from_nanos(10),
            EngineEvent::Unblocked {
                class: TrafficClass::DEFAULT,
            },
        );
        sink.push(
            SimTime::from_nanos(300),
            EngineEvent::Delivered {
                src: NodeId(0),
                flow: FlowId(1),
                seq: 0,
                bytes: 64,
                latency_ns: 250,
            },
        );
        let sim = SimTrace::with_capacity(4);
        let sinks = [(NodeId(0), &sink)];
        let p = ProfInput::from_engine(&sim, &sinks, &[vec![NicId(0)]]).profile();
        assert!(p.truncated());
        let f = &p.flows[0];
        assert_eq!(f.submit_ns, 50, "reconstructed from receiver latency");
        assert_eq!(f.class, "?");
        assert_eq!(f.phases.iter().sum::<u64>(), 250);
        assert_eq!(p.partition_violations, 0);
    }

    #[test]
    fn empty_input_profiles_to_nothing() {
        let p = ProfInput::default().profile();
        assert!(p.flows.is_empty());
        assert!(p.critical_path.is_empty());
        assert_eq!(p.folded_stacks(), "");
        assert_eq!(p.phase_share_mille(Phase::Wire, 0.5), 0);
        assert!(p.explain(5).contains("no delivered messages"));
    }

    /// The ten-map fold, `attribute()` and critical-path walk that the
    /// row layout replaced, kept verbatim: the oracle it is held to.
    mod reference {
        use super::*;
        use crate::diff::{RunSnapshot, SnapRow};

        #[derive(Clone, Debug, Default)]
        pub(super) struct RefInput {
            /// key → (ts, bytes, class label).
            submits: BTreeMap<MsgKey, (u64, u64, String)>,
            /// key → admission ts.
            admits: BTreeMap<MsgKey, u64>,
            /// key → last rendezvous-grant ts.
            grants: BTreeMap<MsgKey, u64>,
            /// key → (ts, bytes, latency_ns from the Delivered event).
            delivered: BTreeMap<MsgKey, (u64, u64, u64)>,
            /// (node, cookie) → (rail, activation).
            encoded: BTreeMap<(u32, u64), (u16, u64)>,
            /// (node, activation) → winning strategy.
            plan_won: BTreeMap<(u32, u64), String>,
            /// (node, activation) → vetoed proposals.
            plan_vetoes: BTreeMap<(u32, u64), u32>,
            /// (node, activation) → ordered canonical decision records
            /// (`P:` proposed, `V:` vetoed, `S:` scored, `W:` won) — maddiff's
            /// decision-divergence input. Built identically by both sources, so
            /// a live-ring log and its Chrome re-read compare byte-for-byte.
            decisions: BTreeMap<(u32, u64), Vec<String>>,
            /// node → chronological cookie ops (binds and retransmits).
            ops: BTreeMap<u32, Vec<CookieOp>>,
            /// (node, rail) → chronological (ts, cookie) transmit completions.
            txdone: BTreeMap<(u32, u16), Vec<(u64, u64)>>,
            /// Ring-overflow drops summed over every source stream.
            dropped: u64,
            /// Records consumed (all sources).
            events: usize,
        }

        /// A chronological per-node cookie operation: chunk→packet bindings and
        /// cookie-renaming retransmissions, interleaved in event order so
        /// retransmit chains inherit the bound message set.
        #[derive(Clone, Debug)]
        enum CookieOp {
            Bind { ts: u64, key: MsgKey, cookie: u64 },
            Retx { ts: u64, old: u64, new: u64 },
            Cong { ts: u64, cookie: u64 },
        }

        impl RefInput {
            pub(super) fn from_engine(
                sim: &SimTrace,
                sinks: &[(NodeId, &EventSink)],
                nics: &[Vec<simnet::NicId>],
            ) -> RefInput {
                let mut nic_loc: BTreeMap<u32, (u32, u16)> = BTreeMap::new();
                for (node, rails) in nics.iter().enumerate() {
                    for (rail, nic) in rails.iter().enumerate() {
                        nic_loc.insert(nic.0, (node as u32, rail as u16));
                    }
                }
                let mut input = RefInput {
                    dropped: sim.dropped(),
                    ..RefInput::default()
                };
                for rec in sim.iter() {
                    input.events += 1;
                    if let SimEvent::TxDone { nic, cookie } = &rec.event {
                        if let Some(&(node, rail)) = nic_loc.get(&nic.0) {
                            let cookie = *cookie;
                            input.fold(node, rec.at.as_nanos(), Rec::TxDone { rail, cookie });
                        }
                    }
                }
                for (node, sink) in sinks {
                    input.dropped += sink.dropped();
                    for rec in sink.iter() {
                        input.events += 1;
                        if let Some(r) = Rec::of_event(node.0, &rec.event) {
                            input.fold(node.0, rec.at.as_nanos(), r);
                        }
                    }
                }
                input
            }

            fn fold(&mut self, node: u32, ts: u64, rec: Rec<'_>) {
                let mut decide = |activation: u64, line: String| {
                    self.decisions
                        .entry((node, activation))
                        .or_default()
                        .push(line);
                };
                match rec {
                    Rec::TxDone { rail, cookie } => {
                        self.txdone
                            .entry((node, rail))
                            .or_default()
                            .push((ts, cookie));
                    }
                    Rec::Submitted { key, bytes, class } => {
                        self.submits.insert(key, (ts, bytes, class.to_string()));
                    }
                    Rec::Admitted(key) => {
                        self.admits.insert(key, ts);
                    }
                    Rec::RndvGranted(key) => {
                        self.grants.insert(key, ts); // last grant wins
                    }
                    Rec::ChunkBound { key, cookie } => {
                        let op = CookieOp::Bind { ts, key, cookie };
                        self.ops.entry(node).or_default().push(op);
                    }
                    Rec::Retransmit { old, new } => {
                        let op = CookieOp::Retx { ts, old, new };
                        self.ops.entry(node).or_default().push(op);
                    }
                    Rec::CongestionMark { sender, cookie } => {
                        // Filed under the *sender* — cookies are per-sender
                        // counters, and the mark lives in the sender's sink.
                        let op = CookieOp::Cong { ts, cookie };
                        self.ops.entry(sender).or_default().push(op);
                    }
                    Rec::Delivered {
                        key,
                        bytes,
                        latency_ns,
                    } => {
                        self.delivered.insert(key, (ts, bytes, latency_ns));
                    }
                    Rec::PacketEncoded {
                        activation,
                        rail,
                        cookie,
                    } => {
                        self.encoded.insert((node, cookie), (rail, activation));
                    }
                    Rec::PlanProposed {
                        activation,
                        strategy,
                        chunks,
                        bytes,
                    } => decide(activation, format!("P:{strategy}:{chunks}:{bytes}")),
                    Rec::PlanScored {
                        activation,
                        strategy,
                        score: (num, den),
                    } => decide(activation, format!("S:{strategy}:{num}/{den}")),
                    Rec::PlanWon {
                        activation,
                        strategy,
                        score,
                    } => {
                        if let Some((num, den)) = score {
                            decide(activation, format!("W:{strategy}:{num}/{den}"));
                        }
                        self.plan_won
                            .insert((node, activation), strategy.to_string());
                    }
                    Rec::PlanVetoed { activation, why } => {
                        if let Some((strategy, violation)) = why {
                            decide(activation, format!("V:{strategy}:{violation}"));
                        }
                        *self.plan_vetoes.entry((node, activation)).or_insert(0) += 1;
                    }
                }
            }

            pub(super) fn decisions(&self) -> &BTreeMap<(u32, u64), Vec<String>> {
                &self.decisions
            }

            /// Messages that were submitted but never delivered (shed under
            /// admission pressure, or abandoned when a rail died), with their
            /// traffic class. maddiff reports these as `unmatched`, never
            /// folding them into phase deltas.
            pub(super) fn undelivered(&self) -> Vec<(MsgKey, String)> {
                self.submits
                    .iter()
                    .filter(|(key, _)| !self.delivered.contains_key(key))
                    .map(|(key, (_, _, class))| (*key, class.clone()))
                    .collect()
            }

            pub(super) fn attribute(&self) -> Profile {
                // Pass 1: resolve cookie→message sets, following retransmit
                // renames so a re-sent packet still belongs to its messages.
                let mut cookie_msgs: BTreeMap<(u32, u64), Vec<MsgKey>> = BTreeMap::new();
                let mut first_bind: BTreeMap<MsgKey, (u64, u32, u64)> = BTreeMap::new();
                let mut last_bind: BTreeMap<MsgKey, u64> = BTreeMap::new();
                let mut retx_last: BTreeMap<MsgKey, u64> = BTreeMap::new();
                let mut retx_count: BTreeMap<MsgKey, u32> = BTreeMap::new();
                let mut cong_last: BTreeMap<MsgKey, u64> = BTreeMap::new();
                for (&node, ops) in &self.ops {
                    for op in ops {
                        match op {
                            CookieOp::Bind { ts, key, cookie } => {
                                let set = cookie_msgs.entry((node, *cookie)).or_default();
                                if !set.contains(key) {
                                    set.push(*key);
                                }
                                first_bind.entry(*key).or_insert((*ts, node, *cookie));
                                last_bind.insert(*key, *ts);
                            }
                            CookieOp::Retx { ts, old, new } => {
                                let carried =
                                    cookie_msgs.get(&(node, *old)).cloned().unwrap_or_default();
                                for key in &carried {
                                    retx_last.insert(*key, *ts);
                                    *retx_count.entry(*key).or_insert(0) += 1;
                                }
                                let set = cookie_msgs.entry((node, *new)).or_default();
                                for key in carried {
                                    if !set.contains(&key) {
                                        set.push(key);
                                    }
                                }
                            }
                            CookieOp::Cong { ts, cookie } => {
                                // Every message the marked packet carried spent
                                // time in a hot switch queue; the echo arrival is
                                // the queueing milestone (last mark wins).
                                for key in cookie_msgs.get(&(node, *cookie)).into_iter().flatten() {
                                    cong_last.insert(*key, *ts);
                                }
                            }
                        }
                    }
                }

                // Pass 2: per-message milestone segmentation.
                let mut flows: Vec<FlowSpan> = Vec::with_capacity(self.delivered.len());
                let mut phase_hist: [LogHistogram<SimDuration>; PHASE_COUNT] =
                    std::array::from_fn(|_| LogHistogram::new());
                let mut violations = 0u64;
                for (&key, &(d_ts, d_bytes, latency_ns)) in &self.delivered {
                    let (s_ts, bytes, class) = match self.submits.get(&key) {
                        Some((s, b, c)) => (*s, *b, c.clone()),
                        // Submit fell off the ring: reconstruct from the latency
                        // the receiver measured; all interior milestones are gone
                        // too, so the time lands in `wire` — `truncated` flags it.
                        None => (d_ts.saturating_sub(latency_ns), d_bytes, "?".to_string()),
                    };
                    let s_ts = s_ts.min(d_ts);
                    let clamp = |t: u64| t.clamp(s_ts, d_ts);
                    let mut marks: Vec<(u64, Phase)> = Vec::with_capacity(4);
                    if let Some(&t) = self.admits.get(&key) {
                        marks.push((clamp(t), Phase::Admission));
                    }
                    if let Some(&t) = self.grants.get(&key) {
                        marks.push((clamp(t), Phase::Rndv));
                    }
                    if let Some(&t) = last_bind.get(&key) {
                        marks.push((clamp(t), Phase::Decision));
                    }
                    if let Some(&t) = retx_last.get(&key) {
                        marks.push((clamp(t), Phase::Retx));
                    }
                    if let Some(&t) = cong_last.get(&key) {
                        marks.push((clamp(t), Phase::Queueing));
                    }
                    marks.sort_by_key(|&(t, p)| (t, p.rank()));
                    let mut segments: Vec<(Phase, u64, u64)> = Vec::with_capacity(marks.len() + 1);
                    let mut phases = [0u64; PHASE_COUNT];
                    let mut prev = s_ts;
                    for (t, p) in marks {
                        segments.push((p, prev, t));
                        phases[p.rank() as usize] += t - prev;
                        prev = t;
                    }
                    segments.push((Phase::Wire, prev, d_ts));
                    phases[Phase::Wire.rank() as usize] += d_ts - prev;
                    // The receiver-side Delivered event carries its own latency
                    // measurement; disagreement means the streams are inconsistent
                    // (truncation or mixed runs), never a profiler bug.
                    if d_ts - s_ts != latency_ns && self.submits.contains_key(&key) {
                        violations += 1;
                    }
                    for p in Phase::ALL {
                        phase_hist[p.rank() as usize]
                            .record(SimDuration::from_nanos(phases[p.rank() as usize]));
                    }
                    let (rail, strategy, vetoes) = match first_bind.get(&key) {
                        Some(&(_, node, cookie)) => match self.encoded.get(&(node, cookie)) {
                            Some(&(rail, act)) => (
                                rail,
                                self.plan_won.get(&(node, act)).cloned().unwrap_or_default(),
                                self.plan_vetoes.get(&(node, act)).copied().unwrap_or(0),
                            ),
                            None => (u16::MAX, String::new(), 0),
                        },
                        None => (u16::MAX, String::new(), 0),
                    };
                    flows.push(FlowSpan {
                        key,
                        class,
                        bytes,
                        submit_ns: s_ts,
                        delivered_ns: d_ts,
                        phases,
                        segments,
                        retransmits: retx_count.get(&key).copied().unwrap_or(0),
                        rail,
                        strategy,
                        vetoes,
                    });
                }

                // Pass 3: backward critical-path walk from the makespan delivery.
                let critical_path =
                    critical_path(&flows, &first_bind, &cookie_msgs, &self.encoded, {
                        &self.txdone
                    });

                Profile {
                    flows,
                    phase_hist,
                    critical_path,
                    events_processed: self.events,
                    dropped_events: self.dropped,
                    partition_violations: violations,
                }
            }
        }

        fn critical_path(
            flows: &[FlowSpan],
            first_bind: &BTreeMap<MsgKey, (u64, u32, u64)>,
            cookie_msgs: &BTreeMap<(u32, u64), Vec<MsgKey>>,
            encoded: &BTreeMap<(u32, u64), (u16, u64)>,
            txdone: &BTreeMap<(u32, u16), Vec<(u64, u64)>>,
        ) -> Vec<CritSpan> {
            let by_key: BTreeMap<MsgKey, &FlowSpan> = flows.iter().map(|f| (f.key, f)).collect();
            let mut end: Option<&FlowSpan> = None;
            for f in flows {
                // Strict `>` keeps the earliest key on ties — deterministic.
                if end.is_none_or(|e| f.delivered_ns > e.delivered_ns) {
                    end = Some(f);
                }
            }
            let mut cur = match end {
                Some(f) => f,
                None => return Vec::new(),
            };
            let mut hi = cur.delivered_ns;
            let mut chain: Vec<CritSpan> = Vec::new();
            let mut visited: BTreeSet<MsgKey> = BTreeSet::new();
            let push_window = |chain: &mut Vec<CritSpan>, f: &FlowSpan, lo: u64, hi: u64| {
                for &(phase, s, e) in f.segments.iter().rev() {
                    let (s, e) = (s.max(lo), e.min(hi));
                    if s < e {
                        chain.push(CritSpan {
                            key: f.key,
                            phase,
                            start_ns: s,
                            end_ns: e,
                        });
                    }
                }
            };
            while visited.insert(cur.key) && chain.len() < 4096 {
                let (tb, node, cookie) = match first_bind.get(&cur.key) {
                    Some(&b) => b,
                    None => {
                        push_window(&mut chain, cur, cur.submit_ns, hi);
                        break;
                    }
                };
                let tb = tb.clamp(cur.submit_ns, hi);
                push_window(&mut chain, cur, tb, hi);
                let pred = encoded
                    .get(&(node, cookie))
                    .and_then(|&(rail, _)| txdone.get(&(node, rail)))
                    .and_then(|list| {
                        // Last completion at or before the binding that is not one
                        // of this message's own packets.
                        list.iter()
                            .rev()
                            .skip_while(|&&(t, _)| t > tb)
                            .find(|&&(_, ck)| {
                                cookie_msgs
                                    .get(&(node, ck))
                                    .is_none_or(|keys| !keys.contains(&cur.key))
                            })
                            .copied()
                    })
                    .and_then(|(t_done, ck)| {
                        if t_done <= cur.submit_ns {
                            return None; // rail was idle when we arrived
                        }
                        cookie_msgs
                            .get(&(node, ck))?
                            .iter()
                            .find(|k| !visited.contains(k))
                            .and_then(|k| by_key.get(k))
                            .map(|f| (t_done, *f))
                    });
                match pred {
                    Some((t_done, next)) => {
                        push_window(&mut chain, cur, t_done, tb);
                        cur = next;
                        hi = t_done.min(cur.delivered_ns);
                    }
                    None => {
                        push_window(&mut chain, cur, cur.submit_ns, tb);
                        break;
                    }
                }
            }
            chain.reverse();
            chain
        }

        /// `RunSnapshot::capture` as it read before the row layout, over
        /// the reference input.
        pub(super) fn capture(label: &str, input: &RefInput) -> RunSnapshot {
            let prof = input.attribute();
            let rows = prof
                .flows
                .iter()
                .map(|f| SnapRow {
                    key: f.key,
                    class: f.class.clone(),
                    bytes: f.bytes,
                    submit_ns: f.submit_ns,
                    delivered_ns: f.delivered_ns,
                    phases: f.phases,
                    retransmits: f.retransmits,
                    rail: f.rail,
                    strategy: f.strategy.clone(),
                    vetoes: f.vetoes,
                })
                .collect();
            let mut undelivered = input.undelivered();
            undelivered.sort();
            RunSnapshot {
                label: label.to_string(),
                rows,
                critical_path: prof.critical_path.clone(),
                undelivered,
                decisions: input.decisions().clone(),
                events_processed: prof.events_processed as u64,
                dropped_events: prof.dropped_events,
            }
        }
    }

    use crate::harness::{Cluster, ClusterSpec};
    use crate::{EngineConfig, MessageBuilder, ReliabilityMode};
    use reference::RefInput;
    use simnet::{FaultPlan, Technology};

    /// Every output of the row-layout profile equals the reference's.
    fn assert_matches_reference(input: &ProfInput, old: &RefInput) -> Rc<Profile> {
        let (new, ref_prof) = (input.profile(), old.attribute());
        assert_eq!(new.attribution_csv(), ref_prof.attribution_csv());
        assert_eq!(new.folded_stacks(), ref_prof.folded_stacks());
        assert_eq!(new.to_json().render(), ref_prof.to_json().render());
        assert_eq!(new.critical_path, ref_prof.critical_path);
        assert_eq!(new.explain(20), ref_prof.explain(20));
        assert_eq!(&input.decisions(), old.decisions());
        assert_eq!(input.undelivered(), old.undelivered());
        assert_eq!(
            crate::diff::RunSnapshot::capture("x", input).render(),
            reference::capture("x", old).render()
        );
        new
    }

    /// Both inputs over one cluster's live rings.
    fn assert_cluster_matches_reference(c: &Cluster) -> Rc<Profile> {
        let held: Vec<_> = c
            .nodes
            .iter()
            .zip(&c.handles)
            .filter_map(|(&n, h)| h.opt().map(|h| (n, h.trace())))
            .collect();
        let rings: Vec<(NodeId, &EventSink)> = held.iter().map(|(n, r)| (*n, &**r)).collect();
        let old = RefInput::from_engine(c.sim.trace(), &rings, &c.nics);
        assert_matches_reference(&c.prof_input(), &old)
    }

    /// Records named `name` across every node's engine ring.
    fn count(c: &Cluster, name: &str) -> usize {
        let rings = c.handles.iter().filter_map(|h| h.opt());
        rings
            .map(|h| h.trace().count_matching(|e| e.name() == name))
            .sum()
    }

    /// Send `sizes` from node `src` to node `dst` on one DEFAULT flow.
    fn send_all(c: &mut Cluster, src: usize, dst: usize, sizes: &[usize]) {
        let (from, to) = (c.nodes[src], c.nodes[dst]);
        let h = c.handles[src].clone();
        let flow = h.open_flow(to, TrafficClass::DEFAULT);
        for &len in sizes {
            c.sim.inject(from, |ctx| {
                let body = vec![0x5Au8; len];
                let parts = MessageBuilder::new()
                    .pack_express(&[7u8; 8])
                    .pack_cheaper(&body)
                    .build_parts();
                h.send(ctx, flow, parts)
            });
        }
    }

    const SIZES: [usize; 6] = [64, 256 << 10, 512, 4096, 96, 2048];

    fn recover() -> EngineConfig {
        EngineConfig {
            reliability: ReliabilityMode::Recover,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn rows_match_the_reference_under_loss_dup_and_reorder() {
        let spec = ClusterSpec::mx_pair()
            .config(recover())
            .with_tracing(1 << 16);
        let mut c = Cluster::build(&spec, vec![]);
        let plan = FaultPlan::new(13)
            .with_loss(0.1)
            .with_dup(0.1)
            .with_reorder(0.1, SimDuration::from_micros(5));
        c.set_fault_plan(0, plan);
        for _ in 0..4 {
            send_all(&mut c, 0, 1, &SIZES);
        }
        c.drain();
        assert!(count(&c, "Retransmit") > 0, "loss must force a resend");
        let p = assert_cluster_matches_reference(&c);
        assert!(p.flows.iter().any(|f| f.retransmits > 0));
        assert!(!p.truncated());
    }

    #[test]
    fn rows_match_the_reference_with_rendezvous_and_vetoes() {
        use crate::harness::NodeHandle;
        use crate::strategy::{OptContext, Proposals, Strategy};
        /// Proposes an empty packet, which is always vetoed.
        struct EmptyHanded;
        impl Strategy for EmptyHanded {
            fn name(&self) -> &'static str {
                "empty-handed"
            }
            fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
                if let Some(group) = ctx.groups.first() {
                    out.push_data(ctx.channel, group.dst, &[], self.name());
                }
            }
        }
        let tech = Technology::MyrinetMx;
        let mut sim = simnet::Simulation::new();
        sim.enable_trace(1 << 16);
        let net = sim.add_network(nicdrv::calib::params(tech));
        let nodes = vec![sim.add_node(), sim.add_node()];
        let nics: Vec<Vec<_>> = nodes.iter().map(|&n| vec![sim.add_nic(n, net)]).collect();
        let mut handles = Vec::new();
        for i in 0..2 {
            let (engine, handle) = crate::MadEngine::builder(nodes[i])
                .rail_tech(tech, nics[i][0])
                .peer(nodes[1 - i], nics[1 - i].clone())
                .strategy(Box::new(EmptyHanded))
                .build()
                .expect("valid engine");
            handle.enable_trace(1 << 16);
            sim.set_endpoint(nodes[i], Box::new(engine));
            handles.push(NodeHandle::Opt(handle));
        }
        let networks = vec![net];
        let mut c = Cluster {
            sim,
            nodes,
            nics,
            handles,
            networks,
        };
        send_all(&mut c, 0, 1, &SIZES);
        send_all(&mut c, 1, 0, &SIZES);
        c.drain();
        assert!(count(&c, "RndvGranted") > 0, "256 KiB goes by rendezvous");
        assert!(count(&c, "PlanVetoed") > 0, "a proposal must be vetoed");
        let p = assert_cluster_matches_reference(&c);
        assert!(p.flows.iter().any(|f| f.vetoes > 0));
        assert!(p
            .flows
            .iter()
            .any(|f| f.phases[Phase::Rndv.rank() as usize] > 0));
    }

    #[test]
    fn rows_match_the_reference_on_a_fat_tree_incast() {
        let link = nicdrv::calib::params(Technology::MyrinetMx).link_profile();
        let spec = ClusterSpec::new(16, vec![Technology::MyrinetMx])
            .config(recover())
            .with_tracing(1 << 18);
        let topo = simnet::Topology::fat_tree(4, link);
        let mut c = Cluster::build_with_topologies(&spec, vec![Some(topo)], vec![]);
        for src in 0..15 {
            send_all(&mut c, src, 15, &[16 << 10; 4]);
        }
        c.drain();
        assert!(count(&c, "CongestionMark") > 0, "the incast must mark");
        let p = assert_cluster_matches_reference(&c);
        assert!(p
            .flows
            .iter()
            .any(|f| f.phases[Phase::Queueing.rank() as usize] > 0));
    }

    #[test]
    fn rows_match_the_reference_on_an_overflowed_ring() {
        let spec = ClusterSpec::mx_pair()
            .config(recover())
            .with_tracing(4 << 10);
        let mut c = Cluster::build(&spec, vec![]);
        c.set_fault_plan(0, FaultPlan::new(5).with_loss(0.05));
        for _ in 0..64 {
            send_all(&mut c, 0, 1, &SIZES);
        }
        c.drain();
        let p = assert_cluster_matches_reference(&c);
        assert!(p.truncated(), "a 4 Ki ring must overflow");
        assert!(p.flows.iter().any(|f| f.class == "?"), "a submit fell off");
    }

    /// A chunk list that comes back to a message (A, B, A) lists A once in
    /// its packet: the retransmit counts it once, the congestion echo and
    /// the critical path see it once.
    #[test]
    fn rows_match_the_reference_when_a_packet_comes_back_to_a_message() {
        let mut sink = EventSink::with_capacity(64);
        let t = SimTime::from_nanos;
        let (a, b) = (FlowId(1), FlowId(2));
        for (ts, flow) in [(0, a), (5, b)] {
            sink.push(
                t(ts),
                EngineEvent::Submitted {
                    flow,
                    seq: 0,
                    frags: 2,
                    bytes: 128,
                    class: TrafficClass::DEFAULT,
                },
            );
        }
        sink.push(
            t(20),
            EngineEvent::PacketEncoded {
                activation: 1,
                rail: 0,
                cookie: 3,
                chunks: 3,
                bytes: 192,
                linearized: false,
            },
        );
        for (frag, flow) in [(0, a), (0, b), (1, a)] {
            sink.push(
                t(20),
                EngineEvent::ChunkBound {
                    flow,
                    seq: 0,
                    frag,
                    cookie: 3,
                    bytes: 64,
                },
            );
        }
        sink.push(
            t(60),
            EngineEvent::Retransmit {
                old_cookie: 3,
                new_cookie: 4,
                rail: 0,
                attempt: 2,
            },
        );
        sink.push(
            t(80),
            EngineEvent::CongestionMark {
                src: NodeId(0),
                cookie: 4,
                rail: 0,
            },
        );
        for flow in [a, b] {
            sink.push(
                t(100),
                EngineEvent::Delivered {
                    src: NodeId(0),
                    flow,
                    seq: 0,
                    bytes: 128,
                    latency_ns: 100 - if flow == a { 0 } else { 5 },
                },
            );
        }
        let mut sim = SimTrace::with_capacity(8);
        let tx = |cookie| simnet::TraceEvent::TxDone {
            nic: NicId(0),
            cookie,
        };
        sim.push(t(30), tx(3));
        sim.push(t(90), tx(4));
        let sinks = [(NodeId(0), &sink)];
        let nics = [vec![NicId(0)], vec![NicId(1)]];
        let input = ProfInput::from_engine(&sim, &sinks, &nics);
        let old = RefInput::from_engine(&sim, &sinks, &nics);
        let p = assert_matches_reference(&input, &old);
        assert_eq!(p.flows.len(), 2);
        for f in &p.flows {
            assert_eq!(f.retransmits, 1, "{} listed once in its packet", f.key);
            assert_eq!(f.phases[Phase::Queueing.rank() as usize], 20);
        }
        assert_eq!(input.packets[&(0, 3)].msgs, [key(1, 0), key(2, 0)]);
        assert_eq!(input.packets[&(0, 4)].msgs, [key(1, 0), key(2, 0)]);
    }
}

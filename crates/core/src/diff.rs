//! maddiff: deterministic differential run analysis.
//!
//! When a benchmark gate trips, the interesting question is never "how
//! much slower" — the gate already answered that — but *which decision,
//! phase, or rail changed*. maddiff answers it by aligning two runs'
//! madprof rows ([`FlowSpan`], one per delivered message, the same type
//! the profile holds) on stable message identity `(node, flow, seq)`
//! and decomposing every aligned message's latency delta along the
//! six-phase partition madprof guarantees: because each run's phases
//! sum exactly to its lifetime, the per-phase deltas sum exactly to the
//! latency delta. That makes the decomposition a structural invariant,
//! not a sampling heuristic — a diff that "loses" time is a bug, and
//! [`RunDiff::partition_violations`] counts exactly that.
//!
//! Beyond the phase partition, a diff reports:
//!
//! * **migration matrices** — which traffic moved to a different rail
//!   or winning strategy between runs (off-diagonal entries only);
//! * **critical-path divergence** — the shared prefix of the two
//!   critical paths and the first hop where they part ways;
//! * **decision divergence** — the first optimizer activation whose
//!   Proposed/Vetoed/Scored/Won log differs between the runs, with the
//!   record that flipped. Phases say *where* the time went; this says
//!   *which choice* sent it there.
//!
//! Messages present in only one run (shed under admission pressure,
//! abandoned when a rail died) are reported in a separate `unmatched`
//! section and never folded into phase deltas — mixing a vanished
//! message into a latency distribution would manufacture a regression
//! out of a policy difference.
//!
//! Everything is deterministic: snapshots and diffs of the same pair of
//! runs render byte-identically, and a run diffed against itself is
//! zero in every field ([`RunDiff::is_zero`]). madcheck's `diffcheck`
//! rule re-verifies both properties over a seeded corpus.

// madlint: file: deterministic-output

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use crate::json::{obj, Json, JsonSink, JsonTree, JsonWriter};
use crate::prof::{CritSpan, FlowSpan, Label, MsgKey, Phase, ProfInput, PHASE_COUNT};

/// A self-contained, serializable capture of one run's profile — the
/// committed-baseline half of a diff. Built from a [`ProfInput`] (live
/// engine sinks or a re-read Chrome export; both yield identical
/// snapshots) and round-trippable through [`RunSnapshot::to_json`] /
/// [`RunSnapshot::parse`] without loss. A parsed snapshot has no
/// milestones to cut segments from and needs none: its critical path is
/// stored.
#[derive(Clone, Debug)]
pub struct RunSnapshot {
    /// Human label ("baseline", "fresh", a git sha, ...).
    pub label: String,
    /// The profile's rows, one per delivered message, ordered by
    /// [`MsgKey`].
    pub rows: Vec<FlowSpan>,
    /// Cluster-wide critical path (contiguous blame spans).
    pub critical_path: Vec<CritSpan>,
    /// Messages submitted but never delivered, with class.
    pub undelivered: Vec<(MsgKey, Label)>,
    /// `(node, activation)` → ordered canonical decision records.
    pub decisions: BTreeMap<(u32, u64), Vec<String>>,
    /// Trace events the profile consumed.
    pub events_processed: u64,
    /// Events the rings dropped; nonzero means the snapshot is partial.
    pub dropped_events: u64,
}

impl RunSnapshot {
    /// Capture `input`'s profile under `label` — the one
    /// [`ProfInput::profile`] holds, not a second run of the passes.
    pub fn capture(label: &str, input: &ProfInput) -> RunSnapshot {
        let prof = input.profile();
        RunSnapshot {
            label: label.to_string(),
            rows: prof.flows.clone(),
            critical_path: prof.critical_path.clone(),
            undelivered: input.undelivered(),
            decisions: input.decisions(),
            events_processed: prof.events_processed as u64,
            dropped_events: prof.dropped_events,
        }
    }

    /// Whether the trace rings overflowed while this run was captured.
    pub fn truncated(&self) -> bool {
        self.dropped_events > 0
    }

    /// Serialize to the `maddiff-snapshot` artifact. Rows are compact
    /// arrays (`[src, flow, seq, class, bytes, submit, delivered,
    /// p0..p5, retx, rail, strategy, vetoes]`) so a baseline for a
    /// few hundred messages stays a few KiB.
    pub fn write_to(&self, s: &mut impl JsonSink) {
        fn key(s: &mut impl JsonSink, k: &MsgKey) {
            s.uint(u64::from(k.src));
            s.uint(u64::from(k.flow));
            s.uint(u64::from(k.seq));
        }
        s.begin_object();
        s.field_str("artifact", "maddiff-snapshot");
        s.field_str("schema", "maddiff-v1");
        s.field_str("label", &self.label);
        s.field_uint("events_processed", self.events_processed);
        s.field_uint("dropped_events", self.dropped_events);
        s.key("rows");
        s.begin_array();
        for r in &self.rows {
            s.begin_array();
            key(s, &r.key);
            s.str(&r.class);
            s.uint(r.bytes);
            s.uint(r.submit_ns);
            s.uint(r.delivered_ns);
            for &p in &r.phases {
                s.uint(p);
            }
            s.uint(u64::from(r.retransmits));
            s.uint(u64::from(r.rail));
            s.str(&r.strategy);
            s.uint(u64::from(r.vetoes));
            s.end_array();
        }
        s.end_array();
        s.key("critical_path");
        s.begin_array();
        for span in &self.critical_path {
            s.begin_array();
            key(s, &span.key);
            s.uint(u64::from(span.phase.rank()));
            s.uint(span.start_ns);
            s.uint(span.end_ns);
            s.end_array();
        }
        s.end_array();
        s.key("undelivered");
        s.begin_array();
        for (k, class) in &self.undelivered {
            s.begin_array();
            key(s, k);
            s.str(class);
            s.end_array();
        }
        s.end_array();
        s.key("decisions");
        s.begin_object();
        for ((node, act), log) in &self.decisions {
            s.key(&format!("{node}:{act}"));
            s.begin_array();
            for record in log {
                s.str(record);
            }
            s.end_array();
        }
        s.end_object();
        s.end_object();
    }

    /// The artifact as a [`Json`] value, for embedding in a larger
    /// document (a seeds bundle).
    pub fn to_json(&self) -> Json {
        JsonTree::document(|t| self.write_to(t))
    }

    /// The artifact as deterministic JSON text, written row by row.
    pub fn render(&self) -> String {
        JsonWriter::document(|w| self.write_to(w))
    }

    /// Parse a `maddiff-snapshot` document back into a snapshot.
    pub fn parse(text: &str) -> Result<RunSnapshot, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&doc)
    }

    /// Parse from an already-decoded document (e.g. one entry of a
    /// seeds bundle).
    pub fn from_json(doc: &Json) -> Result<RunSnapshot, String> {
        if doc.get("artifact").and_then(|v| v.as_str()) != Some("maddiff-snapshot") {
            return Err("not a maddiff-snapshot document".to_string());
        }
        let need_u64 = |cell: Option<&Json>, what: &str| -> Result<u64, String> {
            cell.and_then(|v| v.as_u64())
                .ok_or_else(|| format!("snapshot row: bad {what}"))
        };
        fn need_text<'a>(cell: Option<&'a Json>, what: &str) -> Result<&'a str, String> {
            cell.and_then(|v| v.as_str())
                .ok_or_else(|| format!("snapshot row: bad {what}"))
        }
        // Labels are interned as `ProfInput` interns them: one per text.
        let mut labels = BTreeSet::new();
        let mut need_label =
            |cell, what| need_text(cell, what).map(|text| Label::interned(&mut labels, text));
        let key_of = |cells: &[Json]| -> Result<MsgKey, String> {
            Ok(MsgKey {
                src: need_u64(cells.first(), "src")? as u32,
                flow: need_u64(cells.get(1), "flow")? as u32,
                seq: need_u64(cells.get(2), "seq")? as u32,
            })
        };
        let mut rows = Vec::new();
        for row in doc
            .get("rows")
            .and_then(|v| v.as_array())
            .ok_or("snapshot missing rows")?
        {
            let cells = row.as_array().ok_or("snapshot row not an array")?;
            if cells.len() != 7 + PHASE_COUNT + 4 {
                return Err(format!("snapshot row has {} cells", cells.len()));
            }
            let mut phases = [0u64; PHASE_COUNT];
            for (i, slot) in phases.iter_mut().enumerate() {
                *slot = need_u64(cells.get(7 + i), "phase")?;
            }
            rows.push(FlowSpan {
                key: key_of(cells)?,
                class: need_label(cells.get(3), "class")?,
                bytes: need_u64(cells.get(4), "bytes")?,
                submit_ns: need_u64(cells.get(5), "submit_ns")?,
                delivered_ns: need_u64(cells.get(6), "delivered_ns")?,
                phases,
                retransmits: need_u64(cells.get(7 + PHASE_COUNT), "retransmits")? as u32,
                rail: need_u64(cells.get(8 + PHASE_COUNT), "rail")? as u16,
                strategy: need_label(cells.get(9 + PHASE_COUNT), "strategy")?,
                vetoes: need_u64(cells.get(10 + PHASE_COUNT), "vetoes")? as u32,
            });
        }
        let mut critical_path = Vec::new();
        for span in doc
            .get("critical_path")
            .and_then(|v| v.as_array())
            .ok_or("snapshot missing critical_path")?
        {
            let cells = span.as_array().ok_or("crit span not an array")?;
            let rank = need_u64(cells.get(3), "phase rank")? as usize;
            critical_path.push(CritSpan {
                key: key_of(cells)?,
                phase: *Phase::ALL.get(rank).ok_or("bad phase rank")?,
                start_ns: need_u64(cells.get(4), "start_ns")?,
                end_ns: need_u64(cells.get(5), "end_ns")?,
            });
        }
        let mut undelivered = Vec::new();
        for item in doc
            .get("undelivered")
            .and_then(|v| v.as_array())
            .ok_or("snapshot missing undelivered")?
        {
            let cells = item.as_array().ok_or("undelivered entry not an array")?;
            undelivered.push((key_of(cells)?, need_label(cells.get(3), "class")?));
        }
        let mut decisions = BTreeMap::new();
        if let Some(Json::Obj(fields)) = doc.get("decisions") {
            for (k, v) in fields {
                let (node, act) = k
                    .split_once(':')
                    .and_then(|(n, a)| Some((n.parse().ok()?, a.parse().ok()?)))
                    .ok_or_else(|| format!("bad decision key {k:?}"))?;
                let log = v
                    .as_array()
                    .ok_or("decision log not an array")?
                    .iter()
                    .map(|r| r.as_str().map(str::to_string).ok_or("non-string record"))
                    .collect::<Result<Vec<_>, _>>()?;
                decisions.insert((node, act), log);
            }
        }
        Ok(RunSnapshot {
            label: need_text(doc.get("label"), "label")?.to_string(),
            rows,
            critical_path,
            undelivered,
            decisions,
            events_processed: need_u64(doc.get("events_processed"), "events_processed")?,
            dropped_events: need_u64(doc.get("dropped_events"), "dropped_events")?,
        })
    }
}

/// One aligned message's latency delta, decomposed along the phase
/// partition. Invariant: `phase_deltas` sums exactly to `delta_ns`
/// whenever both runs satisfied madprof's exactness invariant.
#[derive(Clone, Debug)]
pub struct AlignedDelta {
    /// Shared identity.
    pub key: MsgKey,
    /// Traffic class (from run A; classes are config, not behavior).
    pub class: Label,
    /// Lifetime in run A (ns).
    pub a_total_ns: u64,
    /// Lifetime in run B (ns).
    pub b_total_ns: u64,
    /// Signed latency delta, B minus A.
    pub delta_ns: i64,
    /// Per-phase durations in run A (ns).
    pub a_phases: [u64; PHASE_COUNT],
    /// Per-phase durations in run B (ns).
    pub b_phases: [u64; PHASE_COUNT],
    /// Signed per-phase deltas, B minus A.
    pub phase_deltas: [i64; PHASE_COUNT],
    /// Retransmit-count delta, B minus A.
    pub retx_delta: i64,
    /// Veto-count delta, B minus A.
    pub veto_delta: i64,
    /// Rail in each run (`u16::MAX` unknown).
    pub rail_a: u16,
    /// Rail in run B.
    pub rail_b: u16,
    /// Winning strategy in each run.
    pub strategy_a: Label,
    /// Winning strategy in run B.
    pub strategy_b: Label,
}

/// Aggregate phase movement over the aligned set.
#[derive(Clone, Debug, Default)]
pub struct PhaseDelta {
    /// Total nanoseconds this phase consumed in run A (aligned only).
    pub a_total_ns: u64,
    /// Total in run B.
    pub b_total_ns: u64,
    /// Signed delta, B minus A.
    pub delta_ns: i64,
    /// Phase share of run A's aligned latency, per-mille.
    pub a_share_mille: u64,
    /// Phase share of run B's aligned latency, per-mille.
    pub b_share_mille: u64,
}

/// Which run an unmatched message appeared in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffSide {
    /// Delivered only in run A (the baseline).
    AOnly,
    /// Delivered only in run B (the fresh run).
    BOnly,
}

/// A message delivered in one run but not the other. Kept out of every
/// phase aggregate: a shed or abandoned message has no latency to
/// compare, only an existence difference to report.
#[derive(Clone, Debug)]
pub struct UnmatchedMsg {
    /// Message identity.
    pub key: MsgKey,
    /// Traffic class.
    pub class: Label,
    /// Which run delivered it.
    pub side: DiffSide,
    /// Why the other run has no row for it.
    pub reason: String,
}

/// Critical-path comparison: shared prefix plus the first divergent hop.
#[derive(Clone, Debug, Default)]
pub struct CritDiff {
    /// Leading hops with identical `(message, phase)` blame.
    pub shared_prefix: usize,
    /// Hops on run A's critical path.
    pub a_len: usize,
    /// Hops on run B's critical path.
    pub b_len: usize,
    /// Run A's hop at the divergence point, if any.
    pub a_diverges: Option<CritSpan>,
    /// Run B's hop at the divergence point, if any.
    pub b_diverges: Option<CritSpan>,
}

impl CritDiff {
    /// True when both paths assign identical blame hop-for-hop.
    pub fn identical(&self) -> bool {
        self.a_len == self.b_len && self.shared_prefix == self.a_len
    }
}

/// The first optimizer activation whose decision log differs between
/// the two runs — the choice that flipped.
#[derive(Clone, Debug)]
pub struct DecisionDivergence {
    /// Node the activation ran on.
    pub node: u32,
    /// Activation id.
    pub activation: u64,
    /// Index of the first differing record within the logs.
    pub index: usize,
    /// Run A's record at that index (empty if its log ended).
    pub a_record: String,
    /// Run B's record at that index (empty if its log ended).
    pub b_record: String,
    /// Run A's full log for the activation.
    pub a_log: Vec<String>,
    /// Run B's full log for the activation.
    pub b_log: Vec<String>,
}

/// The full differential analysis of two runs. Build with [`diff`].
#[derive(Clone, Debug)]
pub struct RunDiff {
    /// Label of run A (baseline).
    pub a_label: String,
    /// Label of run B (fresh).
    pub b_label: String,
    /// Per-message deltas over the aligned set, ordered by [`MsgKey`].
    pub aligned: Vec<AlignedDelta>,
    /// Aggregate phase movement, indexed by [`Phase::rank`].
    pub phases: [PhaseDelta; PHASE_COUNT],
    /// `(rail_a, rail_b) → messages` for messages that changed rail.
    pub rail_migrations: BTreeMap<(u16, u16), u64>,
    /// `(strategy_a, strategy_b) → messages` for changed strategies.
    pub strategy_migrations: BTreeMap<(Label, Label), u64>,
    /// Messages delivered in exactly one run.
    pub unmatched: Vec<UnmatchedMsg>,
    /// Critical-path comparison.
    pub crit: CritDiff,
    /// First divergent decision, if the planners disagreed anywhere.
    pub decision_divergence: Option<DecisionDivergence>,
    /// Aligned messages whose phase deltas failed to sum to the latency
    /// delta — nonzero only if an input run broke madprof's invariant.
    pub partition_violations: u64,
    /// Run A's rings overflowed (the diff is over a partial run).
    pub a_truncated: bool,
    /// Run B's rings overflowed.
    pub b_truncated: bool,
}

/// Share of `part` in `total`, per-mille, half-up rounding.
fn mille(part: u64, total: u64) -> u64 {
    (part * 1000 + total / 2).checked_div(total).unwrap_or(0)
}

/// Signed nanoseconds with an explicit `+`, for report text.
fn signed_ns(v: i64) -> String {
    format!("{v:+} ns")
}

/// The union of two key-ordered sequences, in key order: each key with
/// what either side holds for it.
fn merge_join<K: Ord, A, B>(
    a: impl IntoIterator<Item = (K, A)>,
    b: impl IntoIterator<Item = (K, B)>,
) -> impl Iterator<Item = (K, Option<A>, Option<B>)> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    std::iter::from_fn(move || {
        let side = match (a.peek(), b.peek()) {
            (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return None,
        };
        Some(match side {
            Ordering::Less => a.next().map(|(k, va)| (k, Some(va), None))?,
            Ordering::Greater => b.next().map(|(k, vb)| (k, None, Some(vb)))?,
            Ordering::Equal => {
                let ((k, va), (_, vb)) = (a.next()?, b.next()?);
                (k, Some(va), Some(vb))
            }
        })
    })
}

/// A snapshot's rows in key order, the last of equal keys kept (what a
/// map keyed on them would hold). A capture writes them in key order
/// already; a parsed document may not.
fn in_key_order(rows: &[FlowSpan]) -> Vec<(MsgKey, &FlowSpan)> {
    let mut order: Vec<(MsgKey, &FlowSpan)> = rows.iter().map(|r| (r.key, r)).collect();
    if !rows.windows(2).all(|w| w[0].key < w[1].key) {
        // Reversed, a stable sort puts the last of equal keys first.
        order.reverse();
        order.sort_by_key(|&(key, _)| key);
        order.dedup_by_key(|&mut (key, _)| key);
    }
    order
}

/// The keys of a snapshot's undelivered messages, sorted for lookup.
fn undelivered_keys(snap: &RunSnapshot) -> Vec<MsgKey> {
    let mut keys: Vec<MsgKey> = snap.undelivered.iter().map(|&(key, _)| key).collect();
    keys.sort_unstable();
    keys
}

/// Compare two runs. A is the baseline, B the fresh run; every signed
/// delta reads B minus A, so positive means "B got slower". The two
/// snapshots' rows are merge-joined on [`MsgKey`].
pub fn diff(a: &RunSnapshot, b: &RunSnapshot) -> RunDiff {
    let mut aligned = Vec::new();
    let mut unmatched = Vec::new();
    let mut phases: [PhaseDelta; PHASE_COUNT] = Default::default();
    let mut rail_migrations = BTreeMap::new();
    let mut strategy_migrations = BTreeMap::new();
    let mut partition_violations = 0u64;

    // Why the other run has no row for a message only one run delivered.
    let missing = |from: &RunSnapshot, undelivered: &[MsgKey], key: &MsgKey| {
        if undelivered.binary_search(key).is_ok() {
            format!(
                "submitted but never delivered in {} (shed or abandoned)",
                from.label
            )
        } else {
            format!("never submitted in {}", from.label)
        }
    };
    let (a_undelivered, b_undelivered) = (undelivered_keys(a), undelivered_keys(b));
    for (key, ra, rb) in merge_join(in_key_order(&a.rows), in_key_order(&b.rows)) {
        match (ra, rb) {
            (Some(ra), Some(rb)) => {
                let mut phase_deltas = [0i64; PHASE_COUNT];
                for i in 0..PHASE_COUNT {
                    phase_deltas[i] = rb.phases[i] as i64 - ra.phases[i] as i64;
                    phases[i].a_total_ns += ra.phases[i];
                    phases[i].b_total_ns += rb.phases[i];
                }
                let delta_ns = rb.total_ns() as i64 - ra.total_ns() as i64;
                if phase_deltas.iter().sum::<i64>() != delta_ns {
                    partition_violations += 1;
                }
                if ra.rail != rb.rail {
                    *rail_migrations.entry((ra.rail, rb.rail)).or_insert(0) += 1;
                }
                if ra.strategy != rb.strategy {
                    *strategy_migrations
                        .entry((ra.strategy.clone(), rb.strategy.clone()))
                        .or_insert(0) += 1;
                }
                aligned.push(AlignedDelta {
                    key,
                    class: ra.class.clone(),
                    a_total_ns: ra.total_ns(),
                    b_total_ns: rb.total_ns(),
                    delta_ns,
                    a_phases: ra.phases,
                    b_phases: rb.phases,
                    phase_deltas,
                    retx_delta: i64::from(rb.retransmits) - i64::from(ra.retransmits),
                    veto_delta: i64::from(rb.vetoes) - i64::from(ra.vetoes),
                    rail_a: ra.rail,
                    rail_b: rb.rail,
                    strategy_a: ra.strategy.clone(),
                    strategy_b: rb.strategy.clone(),
                });
            }
            (Some(ra), None) => unmatched.push(UnmatchedMsg {
                key,
                class: ra.class.clone(),
                side: DiffSide::AOnly,
                reason: missing(b, &b_undelivered, &key),
            }),
            (None, Some(rb)) => unmatched.push(UnmatchedMsg {
                key,
                class: rb.class.clone(),
                side: DiffSide::BOnly,
                reason: missing(a, &a_undelivered, &key),
            }),
            (None, None) => {}
        }
    }

    let a_latency: u64 = phases.iter().map(|p| p.a_total_ns).sum();
    let b_latency: u64 = phases.iter().map(|p| p.b_total_ns).sum();
    for p in &mut phases {
        p.delta_ns = p.b_total_ns as i64 - p.a_total_ns as i64;
        p.a_share_mille = mille(p.a_total_ns, a_latency);
        p.b_share_mille = mille(p.b_total_ns, b_latency);
    }

    let shared_prefix = a
        .critical_path
        .iter()
        .zip(&b.critical_path)
        .take_while(|(sa, sb)| sa.key == sb.key && sa.phase == sb.phase)
        .count();
    let crit = CritDiff {
        shared_prefix,
        a_len: a.critical_path.len(),
        b_len: b.critical_path.len(),
        a_diverges: a.critical_path.get(shared_prefix).cloned(),
        b_diverges: b.critical_path.get(shared_prefix).cloned(),
    };

    const EMPTY: &Vec<String> = &Vec::new();
    let mut decision_divergence = None;
    for (&(node, act), la, lb) in merge_join(&a.decisions, &b.decisions) {
        let (la, lb) = (la.unwrap_or(EMPTY), lb.unwrap_or(EMPTY));
        if la == lb {
            continue;
        }
        let index = la.iter().zip(lb).take_while(|(ra, rb)| ra == rb).count();
        decision_divergence = Some(DecisionDivergence {
            node,
            activation: act,
            index,
            a_record: la.get(index).cloned().unwrap_or_default(),
            b_record: lb.get(index).cloned().unwrap_or_default(),
            a_log: la.clone(),
            b_log: lb.clone(),
        });
        break;
    }

    RunDiff {
        a_label: a.label.clone(),
        b_label: b.label.clone(),
        aligned,
        phases,
        rail_migrations,
        strategy_migrations,
        unmatched,
        crit,
        decision_divergence,
        partition_violations,
        a_truncated: a.truncated(),
        b_truncated: b.truncated(),
    }
}

impl RunDiff {
    /// True when the two runs are observationally identical: every
    /// aligned delta is zero in every field, nothing is unmatched,
    /// nothing migrated, the critical paths agree hop-for-hop and no
    /// decision diverged. Same-seed self-diffs must satisfy this.
    pub fn is_zero(&self) -> bool {
        self.unmatched.is_empty()
            && self.rail_migrations.is_empty()
            && self.strategy_migrations.is_empty()
            && self.crit.identical()
            && self.decision_divergence.is_none()
            && self.partition_violations == 0
            && self.aligned.iter().all(|d| {
                d.delta_ns == 0
                    && d.retx_delta == 0
                    && d.veto_delta == 0
                    && d.phase_deltas.iter().all(|&p| p == 0)
            })
    }

    /// Either run's trace rings overflowed.
    pub fn truncated(&self) -> bool {
        self.a_truncated || self.b_truncated
    }

    /// Sum of aligned latency deltas (B minus A, ns).
    pub fn total_delta_ns(&self) -> i64 {
        self.aligned.iter().map(|d| d.delta_ns).sum()
    }

    /// Aligned messages sorted by absolute latency delta, largest
    /// first; ties break on key so the order is deterministic.
    fn movers(&self) -> Vec<&AlignedDelta> {
        let mut m: Vec<&AlignedDelta> = self.aligned.iter().collect();
        m.sort_by(|x, y| {
            y.delta_ns
                .abs()
                .cmp(&x.delta_ns.abs())
                .then(x.key.cmp(&y.key))
        });
        m
    }

    /// Human-readable diff report; `top` caps the per-message mover
    /// table.
    pub fn report(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "maddiff: {} -> {} (deltas read B minus A)\n",
            self.a_label, self.b_label
        ));
        out.push_str(&format!(
            "aligned {} messages, {} unmatched, partition violations {}\n",
            self.aligned.len(),
            self.unmatched.len(),
            self.partition_violations
        ));
        if self.truncated() {
            out.push_str(&format!(
                "WARNING: truncated input (a: {}, b: {}) — deltas may blame the wrong phase\n",
                self.a_truncated, self.b_truncated
            ));
        }
        let a_total: u64 = self.aligned.iter().map(|d| d.a_total_ns).sum();
        let b_total: u64 = self.aligned.iter().map(|d| d.b_total_ns).sum();
        out.push_str(&format!(
            "aligned latency: a {a_total} ns, b {b_total} ns, delta {}\n",
            signed_ns(self.total_delta_ns())
        ));
        out.push_str("phase deltas (aligned messages only):\n");
        out.push_str(&format!(
            "  {:<16} {:>12} {:>12} {:>13} {:>8} {:>8}\n",
            "phase", "a_ns", "b_ns", "delta_ns", "a_mille", "b_mille"
        ));
        for p in Phase::ALL {
            let d = &self.phases[p.rank() as usize];
            if d.a_total_ns == 0 && d.b_total_ns == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<16} {:>12} {:>12} {:>+13} {:>8} {:>8}\n",
                p.label(),
                d.a_total_ns,
                d.b_total_ns,
                d.delta_ns,
                d.a_share_mille,
                d.b_share_mille
            ));
        }
        if self.rail_migrations.is_empty() {
            out.push_str("rail migrations: none\n");
        } else {
            out.push_str("rail migrations:\n");
            for (&(ra, rb), &n) in &self.rail_migrations {
                let show = |r: u16| {
                    if r == u16::MAX {
                        "?".to_string()
                    } else {
                        r.to_string()
                    }
                };
                out.push_str(&format!(
                    "  rail {} -> rail {}: {} messages\n",
                    show(ra),
                    show(rb),
                    n
                ));
            }
        }
        if self.strategy_migrations.is_empty() {
            out.push_str("strategy migrations: none\n");
        } else {
            out.push_str("strategy migrations:\n");
            for ((sa, sb), n) in &self.strategy_migrations {
                out.push_str(&format!("  {sa} -> {sb}: {n} messages\n"));
            }
        }
        if self.crit.identical() {
            out.push_str(&format!(
                "critical path: identical ({} hops)\n",
                self.crit.a_len
            ));
        } else {
            out.push_str(&format!(
                "critical path: shared prefix {} of {} (a) / {} (b) hops\n",
                self.crit.shared_prefix, self.crit.a_len, self.crit.b_len
            ));
            let hop = |s: &Option<CritSpan>| match s {
                Some(s) => format!("{} in {}", s.key, s.phase.label()),
                None => "path ended".to_string(),
            };
            out.push_str(&format!(
                "  a diverges at: {}\n",
                hop(&self.crit.a_diverges)
            ));
            out.push_str(&format!(
                "  b diverges at: {}\n",
                hop(&self.crit.b_diverges)
            ));
        }
        match &self.decision_divergence {
            None => out.push_str("decision divergence: none\n"),
            Some(d) => {
                out.push_str(&format!(
                    "decision divergence: node {} activation {} record #{}\n",
                    d.node, d.activation, d.index
                ));
                fn show(r: &str) -> &str {
                    if r.is_empty() {
                        "(log ended)"
                    } else {
                        r
                    }
                }
                out.push_str(&format!("  a: {}\n", show(&d.a_record)));
                out.push_str(&format!("  b: {}\n", show(&d.b_record)));
            }
        }
        if !self.unmatched.is_empty() {
            out.push_str("unmatched (excluded from every phase aggregate):\n");
            for u in &self.unmatched {
                let side = match u.side {
                    DiffSide::AOnly => format!("only in {}", self.a_label),
                    DiffSide::BOnly => format!("only in {}", self.b_label),
                };
                out.push_str(&format!(
                    "  {} class {} {side}: {}\n",
                    u.key, u.class, u.reason
                ));
            }
        }
        let movers = self.movers();
        let shown = movers.len().min(top);
        if shown > 0 {
            out.push_str(&format!(
                "top movers ({} of {} aligned):\n",
                shown,
                movers.len()
            ));
            for d in &movers[..shown] {
                let mut worst = 0usize;
                for i in 1..PHASE_COUNT {
                    if d.phase_deltas[i].abs() > d.phase_deltas[worst].abs() {
                        worst = i;
                    }
                }
                out.push_str(&format!(
                    "  {} {:<8} {:>+10} ns (mostly {} {})\n",
                    d.key,
                    d.class,
                    d.delta_ns,
                    Phase::ALL[worst].label(),
                    signed_ns(d.phase_deltas[worst])
                ));
            }
        }
        out
    }

    /// Machine-readable diff document.
    pub fn to_json(&self) -> Json {
        let mut phases = obj();
        for p in Phase::ALL {
            let d = &self.phases[p.rank() as usize];
            phases = phases.field(
                p.label(),
                obj()
                    .field("a_total_ns", d.a_total_ns)
                    .field("b_total_ns", d.b_total_ns)
                    .field("delta_ns", d.delta_ns)
                    .field("a_share_mille", d.a_share_mille)
                    .field("b_share_mille", d.b_share_mille)
                    .build(),
            );
        }
        let mut rails = obj();
        for (&(ra, rb), &n) in &self.rail_migrations {
            rails = rails.field(&format!("{ra}->{rb}"), n);
        }
        let mut strategies = obj();
        for ((sa, sb), &n) in &self.strategy_migrations {
            strategies = strategies.field(&format!("{sa}->{sb}"), n);
        }
        let unmatched: Vec<Json> = self
            .unmatched
            .iter()
            .map(|u| {
                obj()
                    .field("key", format!("{}", u.key).as_str())
                    .field("class", &*u.class)
                    .field(
                        "side",
                        match u.side {
                            DiffSide::AOnly => "a_only",
                            DiffSide::BOnly => "b_only",
                        },
                    )
                    .field("reason", u.reason.as_str())
                    .build()
            })
            .collect();
        let hop = |s: &Option<CritSpan>| match s {
            Some(s) => Json::from(format!("{}:{}", s.key, s.phase.label()).as_str()),
            None => Json::Null,
        };
        let crit = obj()
            .field("shared_prefix", self.crit.shared_prefix as u64)
            .field("a_len", self.crit.a_len as u64)
            .field("b_len", self.crit.b_len as u64)
            .field("identical", self.crit.identical())
            .field("a_diverges", hop(&self.crit.a_diverges))
            .field("b_diverges", hop(&self.crit.b_diverges))
            .build();
        let divergence = match &self.decision_divergence {
            None => Json::Null,
            Some(d) => obj()
                .field("node", d.node)
                .field("activation", d.activation)
                .field("index", d.index as u64)
                .field("a_record", d.a_record.as_str())
                .field("b_record", d.b_record.as_str())
                .field(
                    "a_log",
                    Json::Arr(d.a_log.iter().map(|r| Json::from(r.as_str())).collect()),
                )
                .field(
                    "b_log",
                    Json::Arr(d.b_log.iter().map(|r| Json::from(r.as_str())).collect()),
                )
                .build(),
        };
        obj()
            .field("artifact", "maddiff-diff")
            .field("a", self.a_label.as_str())
            .field("b", self.b_label.as_str())
            .field("aligned", self.aligned.len() as u64)
            .field("unmatched_count", self.unmatched.len() as u64)
            .field("is_zero", self.is_zero())
            .field("truncated", self.truncated())
            .field("partition_violations", self.partition_violations)
            .field("total_delta_ns", self.total_delta_ns())
            .field("phases", phases.build())
            .field("rail_migrations", rails.build())
            .field("strategy_migrations", strategies.build())
            .field("critical_path", crit)
            .field("decision_divergence", divergence)
            .field("unmatched", Json::Arr(unmatched))
            .build()
    }

    /// Differential folded stacks in inferno's two-column `difffolded`
    /// format: `stack a_ns b_ns`, one line per populated
    /// `node;class;flow;phase` stack over the aligned messages,
    /// lexically sorted. Load with
    /// `flamegraph.pl --negate` / `inferno-diff-folded` to paint
    /// regressed stacks red and improved ones blue.
    pub fn folded_diff(&self) -> String {
        let mut agg: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for d in &self.aligned {
            for p in Phase::ALL {
                let i = p.rank() as usize;
                if d.a_phases[i] == 0 && d.b_phases[i] == 0 {
                    continue;
                }
                let stack = format!(
                    "node{};{};flow{};{}",
                    d.key.src,
                    d.class,
                    d.key.flow,
                    p.label()
                );
                let e = agg.entry(stack).or_insert((0, 0));
                e.0 += d.a_phases[i];
                e.1 += d.b_phases[i];
            }
        }
        let mut out = String::new();
        for (stack, (a_ns, b_ns)) in agg {
            out.push_str(&format!("{stack} {a_ns} {b_ns}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seq: u32) -> MsgKey {
        MsgKey {
            src: 0,
            flow: 1,
            seq,
        }
    }

    fn row(seq: u32, phases: [u64; PHASE_COUNT], rail: u16, strategy: &str) -> FlowSpan {
        let total: u64 = phases.iter().sum();
        FlowSpan {
            key: key(seq),
            class: Label::from("DEFAULT"),
            bytes: 256,
            submit_ns: 1_000,
            delivered_ns: 1_000 + total,
            phases,
            retransmits: 0,
            rail,
            strategy: Label::from(strategy),
            vetoes: 0,
        }
    }

    fn snapshot(label: &str, rows: Vec<FlowSpan>) -> RunSnapshot {
        let critical_path = rows
            .iter()
            .map(|r| CritSpan {
                key: r.key,
                phase: Phase::Wire,
                start_ns: r.submit_ns,
                end_ns: r.delivered_ns,
            })
            .collect();
        let mut decisions = BTreeMap::new();
        decisions.insert(
            (0u32, 1u64),
            vec![
                "P:eager:1:256".to_string(),
                "S:eager:100/50".to_string(),
                "W:eager:100/50".to_string(),
            ],
        );
        RunSnapshot {
            label: label.to_string(),
            rows,
            critical_path,
            undelivered: Vec::new(),
            decisions,
            events_processed: 10,
            dropped_events: 0,
        }
    }

    #[test]
    fn self_diff_is_zero_and_byte_stable() {
        let a = snapshot("a", vec![row(0, [0, 0, 10, 0, 0, 90], 0, "eager")]);
        let d1 = diff(&a, &a);
        assert!(d1.is_zero(), "self-diff must be zero:\n{}", d1.report(5));
        let d2 = diff(&a, &a);
        assert_eq!(d1.report(10), d2.report(10));
        assert_eq!(d1.to_json().render(), d2.to_json().render());
        assert_eq!(d1.folded_diff(), d2.folded_diff());
    }

    #[test]
    fn phase_deltas_partition_latency_delta() {
        let a = snapshot(
            "a",
            vec![
                row(0, [0, 0, 10, 0, 0, 90], 0, "eager"),
                row(1, [5, 0, 10, 0, 0, 85], 0, "eager"),
            ],
        );
        let b = snapshot(
            "b",
            vec![
                row(0, [0, 0, 40, 0, 0, 90], 0, "eager"),
                row(1, [5, 0, 25, 7, 0, 85], 0, "eager"),
            ],
        );
        let d = diff(&a, &b);
        assert_eq!(d.partition_violations, 0);
        assert!(!d.is_zero());
        for m in &d.aligned {
            assert_eq!(m.phase_deltas.iter().sum::<i64>(), m.delta_ns);
        }
        assert_eq!(d.total_delta_ns(), 30 + 22);
        let decision = Phase::Decision.rank() as usize;
        assert_eq!(d.phases[decision].delta_ns, 30 + 15);
        assert!(d.phases[decision].b_share_mille > d.phases[decision].a_share_mille);
    }

    #[test]
    fn migrations_count_off_diagonal_only() {
        let a = snapshot(
            "a",
            vec![
                row(0, [0, 0, 10, 0, 0, 90], 0, "eager"),
                row(1, [0, 0, 10, 0, 0, 90], 0, "eager"),
            ],
        );
        let b = snapshot(
            "b",
            vec![
                row(0, [0, 0, 10, 0, 0, 90], 1, "aggregate"),
                row(1, [0, 0, 10, 0, 0, 90], 0, "eager"),
            ],
        );
        let d = diff(&a, &b);
        assert_eq!(d.rail_migrations.len(), 1);
        assert_eq!(d.rail_migrations[&(0, 1)], 1);
        assert_eq!(d.strategy_migrations.len(), 1);
        assert_eq!(
            d.strategy_migrations[&(Label::from("eager"), Label::from("aggregate"))],
            1
        );
        assert!(!d.is_zero(), "a migration is a nonzero diff");
    }

    #[test]
    fn unmatched_messages_stay_out_of_phase_aggregates() {
        let a = snapshot(
            "a",
            vec![
                row(0, [0, 0, 10, 0, 0, 90], 0, "eager"),
                row(1, [0, 0, 500, 0, 0, 500], 0, "eager"),
            ],
        );
        // Run B shed message 1: submitted, never delivered.
        let mut b = snapshot("b", vec![row(0, [0, 0, 10, 0, 0, 90], 0, "eager")]);
        b.undelivered.push((key(1), Label::from("DEFAULT")));
        let d = diff(&a, &b);
        assert_eq!(d.aligned.len(), 1);
        assert_eq!(d.unmatched.len(), 1);
        assert_eq!(d.unmatched[0].side, DiffSide::AOnly);
        assert!(
            d.unmatched[0].reason.contains("shed or abandoned"),
            "reason was {:?}",
            d.unmatched[0].reason
        );
        // The shed message's 1000 ns never leaks into the aggregates.
        let total_a: u64 = d.phases.iter().map(|p| p.a_total_ns).sum();
        assert_eq!(total_a, 100);
        assert_eq!(d.total_delta_ns(), 0);
        assert!(!d.is_zero(), "an unmatched message is a nonzero diff");
    }

    #[test]
    fn decision_divergence_reports_first_flip() {
        let a = snapshot("a", vec![row(0, [0, 0, 10, 0, 0, 90], 0, "eager")]);
        let mut b = snapshot("b", vec![row(0, [0, 0, 10, 0, 0, 90], 0, "eager")]);
        // Same proposal, different score -> the winner flipped.
        b.decisions.insert(
            (0, 1),
            vec![
                "P:eager:1:256".to_string(),
                "S:eager:100/80".to_string(),
                "V:aggregate:window".to_string(),
                "W:eager:100/80".to_string(),
            ],
        );
        let d = diff(&a, &b);
        let div = d.decision_divergence.clone().expect("must diverge");
        assert_eq!((div.node, div.activation), (0, 1));
        assert_eq!(div.index, 1, "proposal matched; score flipped");
        assert_eq!(div.a_record, "S:eager:100/50");
        assert_eq!(div.b_record, "S:eager:100/80");
        assert!(d
            .report(5)
            .contains("decision divergence: node 0 activation 1"));
    }

    #[test]
    fn critical_path_diff_finds_first_divergent_hop() {
        let a = snapshot(
            "a",
            vec![
                row(0, [0, 0, 10, 0, 0, 90], 0, "eager"),
                row(1, [0, 0, 10, 0, 0, 90], 0, "eager"),
            ],
        );
        let mut b = a.clone();
        b.label = "b".to_string();
        b.critical_path[1].phase = Phase::Decision;
        let d = diff(&a, &b);
        assert_eq!(d.crit.shared_prefix, 1);
        assert!(!d.crit.identical());
        assert_eq!(d.crit.a_diverges.as_ref().unwrap().phase, Phase::Wire);
        assert_eq!(d.crit.b_diverges.as_ref().unwrap().phase, Phase::Decision);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut a = snapshot(
            "baseline",
            vec![
                row(0, [1, 2, 3, 4, 5, 6], 0, "eager"),
                row(1, [0, 0, 10, 0, 0, 90], u16::MAX, "?"),
            ],
        );
        a.undelivered.push((key(7), Label::from("BULK")));
        a.dropped_events = 3;
        let text = a.render();
        assert_eq!(
            a.to_json().render(),
            text,
            "tree and text are one description"
        );
        let back = RunSnapshot::parse(&text).expect("parses");
        assert_eq!(back.label, a.label);
        assert_eq!(back.rows, a.rows);
        assert_eq!(back.critical_path, a.critical_path);
        assert_eq!(back.undelivered, a.undelivered);
        assert_eq!(back.decisions, a.decisions);
        assert_eq!(back.dropped_events, 3);
        assert!(back.truncated());
        // Round-trip is lossless for diffing: diff(a, parse(render(a)))
        // is zero except the truncation flags, and render is stable.
        assert_eq!(back.render(), text);
        assert!(diff(&a, &back).is_zero());
    }

    /// Rows a parsed document holds out of key order, or twice, join as
    /// a map keyed on them would hold them: in key order, the last kept.
    #[test]
    fn rows_out_of_order_or_repeated_join_as_a_map_would_hold_them() {
        let rows = |seqs: &[(u32, u64)]| {
            let rows = seqs
                .iter()
                .map(|&(seq, decision)| row(seq, [0, 0, decision, 0, 0, 90], 0, "eager"));
            rows.collect::<Vec<_>>()
        };
        let b = snapshot("b", rows(&[(0, 10), (1, 10), (2, 10), (4, 10)]));
        let mut messy = snapshot("a", rows(&[(3, 5), (1, 99), (0, 10), (1, 30), (2, 10)]));
        messy.undelivered.push((key(4), Label::from("DEFAULT")));
        let mut clean = snapshot("a", rows(&[(0, 10), (1, 30), (2, 10), (3, 5)]));
        clean.undelivered = messy.undelivered.clone();
        clean.critical_path = messy.critical_path.clone();
        let (d, want) = (diff(&messy, &b), diff(&clean, &b));
        assert_eq!(d.report(10), want.report(10));
        assert_eq!(d.to_json().render(), want.to_json().render());
        let keys: Vec<MsgKey> = d.aligned.iter().map(|m| m.key).collect();
        assert_eq!(keys, [key(0), key(1), key(2)]);
        assert_eq!(
            d.aligned[1].delta_ns, -20,
            "the last row of seq 1 is the one compared"
        );
        let sides: Vec<_> = d.unmatched.iter().map(|u| (u.key, u.side)).collect();
        assert_eq!(
            sides,
            [(key(3), DiffSide::AOnly), (key(4), DiffSide::BOnly)]
        );
        assert!(d.unmatched[1].reason.contains("shed or abandoned"));
    }

    #[test]
    fn folded_diff_emits_two_column_stacks() {
        let a = snapshot("a", vec![row(0, [0, 0, 10, 0, 0, 90], 0, "eager")]);
        let b = snapshot("b", vec![row(0, [0, 0, 25, 0, 0, 90], 0, "eager")]);
        let folded = diff(&a, &b).folded_diff();
        assert_eq!(
            folded,
            "node0;DEFAULT;flow1;decision_wait 10 25\nnode0;DEFAULT;flow1;wire 90 90\n"
        );
    }
}

//! madscope: continuous telemetry — a sim-time-driven sampler plus the
//! Prometheus text-format exporter over [`MetricsRegistry`].
//!
//! The metrics registry is a one-shot end-of-run snapshot; madscope adds
//! the *time axis*. A [`Sampler`] installed on an engine snapshots backlog
//! depth, in-flight and retransmit occupancy, cumulative counters, and
//! per-rail utilization/health EWMA at a configurable virtual-time tick
//! into a bounded ring. The ring exports as deterministic CSV (one row per
//! tick, fixed column order) and a JSON digest that joins the registry;
//! the whole registry flattens to Prometheus text format via
//! [`prometheus_render`], and to the `section/path value` lines of an
//! engine's debug report by the same walk — no new dependencies, same
//! determinism contract as `core::json`.
//!
//! Cost discipline: an engine without a sampler pays exactly one branch
//! (`Option::is_none`) per wake-probe and nothing per event; the sampler's
//! timer goes to sleep after two consecutive drained or stalled ticks so an
//! idle simulation still reaches quiescence (mirroring the adaptive-policy
//! epoch timer).

// madlint: file: deterministic-output

use std::collections::{BTreeSet, VecDeque};

use simnet::{SimDuration, SimTime};

use crate::json::{obj, Json, JsonSink, JsonWriter};
use crate::metrics::MetricsRegistry;

/// Consecutive idle ticks (drained or stalled) after which the sampler
/// timer sleeps (a submission or received packet re-arms it).
pub const SAMPLER_SLEEP_TICKS: u32 = 2;

/// Default ring capacity when none is given.
pub const DEFAULT_SAMPLER_CAPACITY: usize = 4096;

/// EWMA weight (per mille) of the newest busy observation; the remainder
/// stays with history. 200 ⇒ a rail's utilization column converges to a
/// step change in ~10 ticks.
const UTIL_EWMA_NEW_MILLI: u64 = 200;

/// Cumulative engine-side quantities captured at one sampler tick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Uncommitted payload bytes in the collect layer.
    pub backlog_bytes: u64,
    /// Messages waiting in flow queues.
    pub backlog_msgs: u64,
    /// Data packets submitted but not yet completed.
    pub inflight_pkts: u64,
    /// madrel: data packets awaiting acknowledgement.
    pub retx_pending: u64,
    /// Cumulative messages submitted.
    pub submitted_msgs: u64,
    /// Cumulative messages delivered.
    pub delivered_msgs: u64,
    /// Cumulative data packets sent.
    pub packets_sent: u64,
    /// Cumulative candidate plans scored.
    pub plans_evaluated: u64,
    /// Cumulative strategy-win count (sum over all strategies).
    pub strategy_wins: u64,
}

/// Instantaneous per-rail observation fed into the EWMA.
#[derive(Clone, Copy, Debug)]
pub struct RailTick {
    /// Whether the rail's transmit engine was busy at the tick.
    pub busy: bool,
    /// madrel health score in thousandths (1000 = perfect).
    pub health_milli: u32,
    /// Whether the rail has been declared dead.
    pub dead: bool,
}

/// Smoothed per-rail state stored in a sample row.
#[derive(Clone, Copy, Debug, Default)]
pub struct RailSample {
    /// Busy-fraction EWMA in thousandths.
    pub util_milli: u32,
    /// madrel health score in thousandths.
    pub health_milli: u32,
    /// Whether the rail is dead.
    pub dead: bool,
}

/// One row of the sampler ring.
#[derive(Clone, Debug)]
pub struct SampleRow {
    /// Virtual time of the tick.
    pub at: SimTime,
    /// Engine-side quantities at the tick.
    pub stats: TickStats,
    /// Per-rail smoothed state, in rail order.
    pub rails: Vec<RailSample>,
}

/// A bounded, sim-time-driven time-series recorder for one engine.
///
/// Rows land in a ring of fixed capacity: when full, the oldest row is
/// discarded and counted in [`Sampler::dropped`], so a long run keeps its
/// tail (the interesting end) and the export stays bounded.
#[derive(Clone, Debug)]
pub struct Sampler {
    tick: SimDuration,
    capacity: usize,
    rows: VecDeque<SampleRow>,
    dropped: u64,
    util_ewma_milli: Vec<u32>,
    armed: bool,
    idle_ticks: u32,
}

impl Sampler {
    /// A sampler ticking every `tick` of virtual time, retaining up to
    /// `capacity` rows, for an engine with `rails` rails.
    pub fn new(tick: SimDuration, capacity: usize, rails: usize) -> Self {
        Sampler {
            tick,
            capacity: capacity.max(1),
            rows: VecDeque::new(),
            dropped: 0,
            util_ewma_milli: vec![0; rails],
            armed: false,
            idle_ticks: 0,
        }
    }

    /// The sampling period.
    pub fn tick(&self) -> SimDuration {
        self.tick
    }

    /// Whether the tick timer is currently armed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Note that the tick timer was (re)armed.
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Whether a tick finds the engine stalled on a backlog no event will
    /// send: the row unchanged, no data packet in flight or unacked, no
    /// rail sending (its end would not wake the sampler), no timer armed.
    pub(crate) fn stalled(&self, stats: &TickStats, rails: &[RailTick], timer_armed: bool) -> bool {
        !timer_armed
            && stats.inflight_pkts == 0
            && stats.retx_pending == 0
            && rails.iter().all(|r| !r.busy)
            && self.rows.back().is_some_and(|row| row.stats == *stats)
    }

    /// Record one tick. Returns `true` when the timer should re-arm,
    /// `false` when the engine has been `idle` (drained or `stalled`)
    /// for [`SAMPLER_SLEEP_TICKS`] consecutive ticks and the timer may sleep.
    pub fn record_tick(
        &mut self,
        at: SimTime,
        stats: TickStats,
        rails: &[RailTick],
        idle: bool,
    ) -> bool {
        let mut smoothed = Vec::with_capacity(rails.len());
        for (r, obs) in rails.iter().enumerate() {
            if r >= self.util_ewma_milli.len() {
                self.util_ewma_milli.resize(r + 1, 0);
            }
            let prev = u64::from(self.util_ewma_milli[r]);
            let cur = if obs.busy { 1000u64 } else { 0 };
            let next = (prev * (1000 - UTIL_EWMA_NEW_MILLI) + cur * UTIL_EWMA_NEW_MILLI) / 1000;
            self.util_ewma_milli[r] = next as u32;
            smoothed.push(RailSample {
                util_milli: next as u32,
                health_milli: obs.health_milli,
                dead: obs.dead,
            });
        }
        if self.rows.len() == self.capacity {
            self.rows.pop_front();
            self.dropped += 1;
        }
        self.rows.push_back(SampleRow {
            at,
            stats,
            rails: smoothed,
        });
        if idle {
            self.idle_ticks += 1;
        } else {
            self.idle_ticks = 0;
        }
        self.idle_ticks < SAMPLER_SLEEP_TICKS
    }

    /// Retained rows, oldest first.
    pub fn rows(&self) -> impl Iterator<Item = &SampleRow> {
        self.rows.iter()
    }

    /// Number of retained rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The ring as deterministic CSV: a fixed header (column count set by
    /// the rail count), one row per tick, all-integer cells except the
    /// microsecond timestamp (exact thousandths, never floating point).
    pub fn csv(&self) -> String {
        let rails = self.util_ewma_milli.len();
        let mut out = String::from(
            "t_us,backlog_bytes,backlog_msgs,inflight_pkts,retx_pending,\
             submitted_msgs,delivered_msgs,packets_sent,plans_evaluated,strategy_wins",
        );
        for r in 0..rails {
            out.push_str(&format!(
                ",rail{r}_util_milli,rail{r}_health_milli,rail{r}_dead"
            ));
        }
        out.push('\n');
        for row in &self.rows {
            let ns = row.at.as_nanos();
            let s = &row.stats;
            out.push_str(&format!(
                "{}.{:03},{},{},{},{},{},{},{},{},{}",
                ns / 1000,
                ns % 1000,
                s.backlog_bytes,
                s.backlog_msgs,
                s.inflight_pkts,
                s.retx_pending,
                s.submitted_msgs,
                s.delivered_msgs,
                s.packets_sent,
                s.plans_evaluated,
                s.strategy_wins,
            ));
            for r in 0..rails {
                let rs = row.rails.get(r).copied().unwrap_or_default();
                out.push_str(&format!(
                    ",{},{},{}",
                    rs.util_milli,
                    rs.health_milli,
                    u32::from(rs.dead)
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Digest of the ring for the metrics registry: configuration, row
    /// accounting, backlog/occupancy extrema and the final per-rail state.
    pub fn to_json(&self) -> Json {
        let mut backlog_max = 0u64;
        let mut backlog_sum = 0u64;
        let mut inflight_max = 0u64;
        let mut retx_max = 0u64;
        for row in &self.rows {
            backlog_max = backlog_max.max(row.stats.backlog_bytes);
            backlog_sum += row.stats.backlog_bytes;
            inflight_max = inflight_max.max(row.stats.inflight_pkts);
            retx_max = retx_max.max(row.stats.retx_pending);
        }
        let backlog_mean = if self.rows.is_empty() {
            0.0
        } else {
            backlog_sum as f64 / self.rows.len() as f64
        };
        let mut rails = Vec::new();
        if let Some(last) = self.rows.back() {
            for rs in &last.rails {
                rails.push(
                    obj()
                        .field("util_milli", rs.util_milli)
                        .field("health_milli", rs.health_milli)
                        .field("dead", rs.dead)
                        .build(),
                );
            }
        }
        obj()
            .field("tick_us", Json::Fixed3(self.tick.as_nanos()))
            .field("capacity", self.capacity)
            .field("rows", self.rows.len())
            .field("dropped", self.dropped)
            .field("backlog_bytes_mean", backlog_mean)
            .field("backlog_bytes_max", backlog_max)
            .field("inflight_pkts_max", inflight_max)
            .field("retx_pending_max", retx_max)
            .field("rails_final", Json::Arr(rails))
            .build()
    }
}

// ---------------------------------------------------------------------------
// Prometheus text-format export
// ---------------------------------------------------------------------------

/// One flattened registry leaf: a metric family, its label set and the
/// value. The flattening is what [`prometheus_render`] exposes and what
/// madcheck audits for uniqueness / completeness.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric family name (already `madeleine_`-prefixed and sanitized).
    pub family: String,
    /// Label set in emission order (`section`, then any `index`).
    pub labels: Vec<(String, String)>,
    /// The leaf value (numeric or boolean).
    pub value: Json,
}

impl PromSample {
    /// The sample's identity: family plus rendered label set. Two samples
    /// with the same key would silently overwrite each other in any
    /// Prometheus scrape, which is exactly what madcheck rejects.
    pub fn key(&self) -> String {
        let mut out = String::new();
        let labels = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        push_sample_key(&mut out, &self.family, labels);
        out
    }
}

/// Append `family{label="value",...}`.
fn push_sample_key<'a>(
    out: &mut String,
    family: &str,
    labels: impl Iterator<Item = (&'a str, &'a str)>,
) {
    out.push_str(family);
    out.push('{');
    for (i, (k, v)) in labels.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
}

/// The label set of one leaf, in emission order.
fn leaf_labels<'a>(
    section: &'a str,
    index: Option<&'a str>,
) -> impl Iterator<Item = (&'a str, &'a str)> {
    [("section", section)]
        .into_iter()
        .chain(index.map(|i| ("index", i)))
}

/// Replace `out` with the `madeleine_`-prefixed family name of a key path.
fn family_into(out: &mut String, path: &[String]) {
    out.clear();
    out.push_str("madeleine");
    for seg in path {
        out.push('_');
        out.push_str(seg);
    }
}

/// Sanitize a JSON key into a Prometheus metric-name segment:
/// `[a-zA-Z0-9_]`, leading digits prefixed with `_`.
fn sanitize(seg: &str) -> String {
    let mut out = String::with_capacity(seg.len());
    for c in seg.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// One registry leaf as the walk hands it out: its section, sanitized key
/// path, array index label (if it sits in an array) and value.
type LeafVisitor<'v> = dyn FnMut(&str, &[String], Option<&str>, &Json) + 'v;

fn walk_leaves(
    v: &Json,
    section: &str,
    path: &mut Vec<String>,
    index: Option<&str>,
    visit: &mut LeafVisitor<'_>,
) {
    match v {
        Json::Obj(fields) => {
            for (k, child) in fields {
                path.push(sanitize(k));
                walk_leaves(child, section, path, index, visit);
                path.pop();
            }
        }
        Json::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                let idx = match index {
                    Some(prev) => format!("{prev}_{i}"),
                    None => i.to_string(),
                };
                walk_leaves(child, section, path, Some(&idx), visit);
            }
        }
        Json::UInt(_) | Json::Int(_) | Json::Float(_) | Json::Fixed3(_) | Json::Str(_) => {
            visit(section, path, index, v);
        }
        Json::Bool(b) => visit(section, path, index, &Json::UInt(u64::from(*b))),
        Json::Null => {}
    }
}

/// Visit every leaf of the registry but nulls, booleans as 0 / 1: the
/// registry section names the leaf's section, the key path its path and
/// array positions its index. The order follows the registry's insertion
/// order, so it is deterministic. With `strings` false, string leaves
/// are skipped too (they are identity, not measurement).
fn for_each_leaf(reg: &MetricsRegistry, strings: bool, visit: &mut LeafVisitor<'_>) {
    let mut path = Vec::new();
    let mut keep = |section: &str, path: &[String], index: Option<&str>, value: &Json| {
        if strings || !matches!(value, Json::Str(_)) {
            visit(section, path, index, value);
        }
    };
    for (name, body) in reg.sections() {
        walk_leaves(body, name, &mut path, None, &mut keep);
    }
}

/// Flatten the registry into Prometheus samples, in the order and with
/// the naming [`prometheus_render`] writes them — what madcheck audits
/// for uniqueness / completeness.
pub fn flatten_registry(reg: &MetricsRegistry) -> Vec<PromSample> {
    let mut out = Vec::new();
    for_each_leaf(reg, false, &mut |section, path, index, value| {
        let mut family = String::new();
        family_into(&mut family, path);
        out.push(PromSample {
            family,
            labels: leaf_labels(section, index)
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: value.clone(),
        });
    });
    out
}

/// Render the registry as Prometheus text exposition format. Every family
/// gets one `# HELP` / `# TYPE` pair (gauge — the registry is a snapshot)
/// the first time it appears; samples follow in flattening order. The
/// output is a pure function of the registry, hence byte-stable across
/// repeat runs.
pub fn prometheus_render(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut family = String::new();
    for_each_leaf(reg, false, &mut |section, path, index, value| {
        family_into(&mut family, path);
        if !seen.contains(&family) {
            seen.insert(family.clone());
            for (head, tail) in [
                ("# HELP ", " madscope gauge (registry leaf)\n"),
                ("# TYPE ", " gauge\n"),
            ] {
                out.push_str(head);
                out.push_str(&family);
                out.push_str(tail);
            }
        }
        push_sample_key(&mut out, &family, leaf_labels(section, index));
        out.push(' ');
        JsonWriter::new(&mut out).value(value);
        out.push('\n');
    });
    out
}

/// Render the registry as text: one `section/path value` line per leaf,
/// strings included and written bare, an array position as `[index]`
/// after the path — the walk [`prometheus_render`] makes, without its
/// `# HELP` / `# TYPE` lines. The engine's debug report is this.
pub(crate) fn text_render(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    for_each_leaf(reg, true, &mut |section, path, index, value| {
        out.push_str(section);
        for seg in path {
            out.push('/');
            out.push_str(seg);
        }
        if let Some(i) = index {
            out.push('[');
            out.push_str(i);
            out.push(']');
        }
        out.push(' ');
        match value {
            Json::Str(s) => out.push_str(s),
            v => JsonWriter::new(&mut out).value(v),
        }
        out.push('\n');
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EngineMetrics;

    fn tick_stats(backlog: u64) -> TickStats {
        TickStats {
            backlog_bytes: backlog,
            ..TickStats::default()
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut s = Sampler::new(SimDuration::from_micros(10), 3, 1);
        for i in 0..5u64 {
            s.record_tick(
                SimTime::from_nanos(i * 10_000),
                tick_stats(i),
                &[RailTick {
                    busy: true,
                    health_milli: 1000,
                    dead: false,
                }],
                false,
            );
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        // Oldest rows discarded: the ring holds backlogs 2, 3, 4.
        let backlogs: Vec<u64> = s.rows().map(|r| r.stats.backlog_bytes).collect();
        assert_eq!(backlogs, vec![2, 3, 4]);
    }

    #[test]
    fn sampler_sleeps_after_two_drained_ticks() {
        let mut s = Sampler::new(SimDuration::from_micros(10), 8, 0);
        assert!(s.record_tick(SimTime::ZERO, tick_stats(1), &[], false));
        assert!(s.record_tick(SimTime::from_nanos(1), tick_stats(0), &[], true));
        assert!(!s.record_tick(SimTime::from_nanos(2), tick_stats(0), &[], true));
        // Traffic resets the idle streak.
        assert!(s.record_tick(SimTime::from_nanos(3), tick_stats(5), &[], false));
    }

    /// A backlog that nothing moves puts the sampler to sleep after two
    /// unchanged ticks; an armed engine timer, a busy rail, a packet in
    /// flight or a changed row keeps it ticking.
    #[test]
    fn sampler_sleeps_on_a_stalled_backlog() {
        let rail = |busy| RailTick {
            busy,
            health_milli: 1000,
            dead: false,
        };
        let mut s = Sampler::new(SimDuration::from_micros(10), 8, 1);
        let stuck = tick_stats(420);
        assert!(
            !s.stalled(&stuck, &[rail(false)], false),
            "no row to compare"
        );
        s.record_tick(SimTime::ZERO, stuck, &[rail(false)], false);
        assert!(
            !s.stalled(&stuck, &[rail(false)], true),
            "a timer will fire"
        );
        assert!(
            !s.stalled(&stuck, &[rail(true)], false),
            "a rail is sending"
        );
        assert!(
            !s.stalled(&tick_stats(400), &[rail(false)], false),
            "it moved"
        );
        let inflight = TickStats {
            inflight_pkts: 1,
            ..stuck
        };
        s.record_tick(SimTime::from_nanos(1), inflight, &[rail(false)], false);
        assert!(
            !s.stalled(&inflight, &[rail(false)], false),
            "a packet is out"
        );
        let mut ticks = 0;
        while s.record_tick(
            SimTime::from_nanos(2 + ticks),
            stuck,
            &[rail(false)],
            s.stalled(&stuck, &[rail(false)], false),
        ) {
            ticks += 1;
            assert!(ticks < 10, "never slept");
        }
        assert_eq!(
            ticks,
            u64::from(SAMPLER_SLEEP_TICKS),
            "one tick to differ from the in-flight row, then two stalled ones"
        );
    }

    #[test]
    fn util_ewma_converges_upward() {
        let mut s = Sampler::new(SimDuration::from_micros(10), 64, 1);
        let busy = [RailTick {
            busy: true,
            health_milli: 1000,
            dead: false,
        }];
        for i in 0..30u64 {
            s.record_tick(SimTime::from_nanos(i), tick_stats(1), &busy, false);
        }
        let last = s.rows.back().expect("rows recorded");
        assert!(
            last.rails[0].util_milli > 950,
            "{}",
            last.rails[0].util_milli
        );
    }

    #[test]
    fn csv_has_fixed_header_and_rail_columns() {
        let mut s = Sampler::new(SimDuration::from_micros(10), 8, 2);
        s.record_tick(
            SimTime::from_nanos(1500),
            tick_stats(42),
            &[
                RailTick {
                    busy: true,
                    health_milli: 900,
                    dead: false,
                },
                RailTick {
                    busy: false,
                    health_milli: 0,
                    dead: true,
                },
            ],
            false,
        );
        let csv = s.csv();
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert!(header.starts_with("t_us,backlog_bytes"));
        assert!(header.contains("rail1_dead"));
        let row = lines.next().expect("row");
        assert!(row.starts_with("1.500,42,"));
        assert!(row.ends_with(",200,900,0,0,0,1"));
        assert_eq!(csv, s.csv(), "csv render is a pure function");
    }

    #[test]
    fn prometheus_families_are_unique_and_rendered() {
        let mut reg = MetricsRegistry::new();
        let mut m = EngineMetrics::default();
        m.record_packet(2, false);
        reg.add_engine("engine", &m);
        let samples = flatten_registry(&reg);
        assert!(!samples.is_empty());
        let mut keys: Vec<String> = samples.iter().map(|s| s.key()).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate sample identity");
        let text = prometheus_render(&reg);
        for s in &samples {
            assert!(text.contains(&s.key()), "missing {}", s.key());
        }
        assert_eq!(text, prometheus_render(&reg));
    }

    #[test]
    fn sampler_json_digest_reports_extrema() {
        let mut s = Sampler::new(SimDuration::from_micros(5), 8, 1);
        for (i, b) in [3u64, 9, 6].iter().enumerate() {
            s.record_tick(
                SimTime::from_nanos(i as u64 * 5000),
                tick_stats(*b),
                &[RailTick {
                    busy: i % 2 == 0,
                    health_milli: 1000,
                    dead: false,
                }],
                false,
            );
        }
        let doc = s.to_json();
        assert_eq!(doc.get("rows").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("backlog_bytes_max").and_then(Json::as_u64), Some(9));
        assert_eq!(doc.get("dropped").and_then(Json::as_u64), Some(0));
    }
}

//! madfuzz: every run-level oracle over one seeded scenario space.
//!
//! A draw is a [`ScenarioSpec`] ([`ScenarioSpec::draw`]), run to
//! quiescence and judged by every oracle of [`ORACLES`] ([`check`]):
//!
//! * `safety` — [`cells::safety`], the run quiescent, and on a lossless
//!   draw every message drawn (the requests, and a reply per round trip);
//! * `conservation` — on a lossless draw, admitted = delivered +
//!   `shed_msgs` + `lost_msgs`;
//! * `registry` — [`check_registry`] on the run's metrics registry;
//! * on traced draws: `partition` — each delivered message's six phases
//!   partition its lifetime, span by span, and its profiled retransmissions
//!   match a recount from the engine rings ([`retransmits`]); `replay` — a
//!   same-seed re-run exports byte-identical profiles, snapshots and Chrome
//!   traces (which read back) and self-diffs to zero;
//!   `perturbation` — under a 2 µs Nagle delay the run stays safe and
//!   every aligned message's phase deltas sum to its latency delta;
//!   `observation` — the traced run, sampler on, equals the untraced one
//!   in every delivery and every `EngineMetrics` counter;
//! * `load-monotonicity` — on a lossless draw, every gap × 0.9 (the same
//!   messages, sooner) keeps goodput (delivered bytes ÷ last delivery) at
//!   0.8× the original or more.
//!
//! A failure shrinks ([`shrink`]) to one JSON line ([`Entry::line`]) for
//! the committed corpus, `crates/madcheck/fuzz/corpus.jsonl`, which
//! [`fuzz`] replays ([`replay`]) before it draws. A line with a `roadmap`
//! field is a known failure: it must still fail its oracle, a draw failing
//! that oracle with that seed counts as known, and once it passes the
//! replay says to flip it. A line without one must pass.

use std::collections::HashSet;

use madeleine::diff::{diff, RunSnapshot};
use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::json::{obj, Json};
use madeleine::metrics::MetricsRegistry;
use madeleine::{flatten_registry, prometheus_render, Fault};
use madware::cells::{self, ScenarioSpec};
use madware::{AppStats, StatsHandle};
use simnet::{SimDuration, SimTime};

use crate::diffcheck::delta_findings;
use crate::profcheck::{partition_findings, retransmits};
use crate::report::SweepReport;

/// Every oracle, by the name the corpus uses.
pub const ORACLES: [&str; 8] = [
    "safety",
    "conservation",
    "registry",
    "partition",
    "replay",
    "perturbation",
    "observation",
    "load-monotonicity",
];

const CORPUS: &str = include_str!("../fuzz/corpus.jsonl");

/// Event-ring capacity of a traced run; `partition` reports an overflow.
const RING_CAP: usize = 1 << 20;

/// One corpus line: a scenario, the seed it was drawn with (its own), the
/// oracle it fails and, for a known failure, the ROADMAP item that should
/// flip it.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The scenario's seed.
    pub seed: u64,
    /// The scenario.
    pub spec: ScenarioSpec,
    /// The oracle it failed.
    pub oracle: String,
    /// For a known failure, the ROADMAP item that should flip it.
    pub roadmap: Option<String>,
}

impl Entry {
    /// The entry as one corpus line.
    pub fn line(&self) -> String {
        let doc = obj()
            .field("seed", self.seed)
            .field("spec", self.spec.to_json());
        let doc = doc.field("oracle", self.oracle.as_str());
        let item = self.roadmap.as_deref().map(Json::from);
        doc.field("roadmap", item.unwrap_or(Json::Null))
            .build()
            .render()
    }

    /// Read one corpus line.
    pub fn parse(line: &str) -> Result<Entry, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let text = |k: &str| doc.get(k).and_then(Json::as_str).map(str::to_string);
        Ok(Entry {
            seed: doc.get("seed").and_then(Json::as_u64).ok_or("no `seed`")?,
            spec: ScenarioSpec::from_json(doc.get("spec").ok_or("no `spec`")?)?,
            oracle: text("oracle").ok_or("no `oracle`")?,
            roadmap: text("roadmap"),
        })
    }
}

/// The committed corpus.
pub fn corpus() -> Vec<Entry> {
    let lines = CORPUS.lines().filter(|l| !l.trim().is_empty());
    lines
        .map(|l| Entry::parse(l).unwrap_or_else(|e| panic!("corpus line {l}: {e}")))
        .collect()
}

/// A run of a scenario, ended.
pub struct Run {
    /// The cluster.
    pub cluster: Cluster,
    /// Every node's stats, in node order.
    pub stats: Vec<StatsHandle>,
    /// The instant the run was cut at, when events were still due 200 ms
    /// plus 50 offered spans in (a bound on a run that never falls
    /// quiet).
    pub cut: Option<SimTime>,
}

impl Run {
    fn new(spec: &ScenarioSpec, cluster: ClusterSpec, sampler: bool) -> Run {
        let (mut cluster, stats) = spec.build_on(&cluster);
        if sampler {
            cluster.enable_sampler(SimDuration::from_micros(100));
        }
        let limit = SimTime::from_nanos(200_000_000) + spec.offered_span() * 50;
        let at = cluster.sim.run_until_quiescent(limit);
        let cut = (!cluster.sim.is_quiescent()).then_some(at);
        Run {
            cluster,
            stats,
            cut,
        }
    }

    fn sum(&self, f: impl Fn(&AppStats) -> u64) -> u64 {
        self.stats.iter().map(|s| f(&s.borrow())).sum()
    }

    /// Delivered payload bytes ÷ the last delivery's instant.
    fn goodput(&self) -> f64 {
        let end = self
            .stats
            .iter()
            .map(|s| s.borrow().last_recv.as_nanos())
            .max();
        self.sum(|s| s.bytes_received) as f64 / end.unwrap_or(1).max(1) as f64
    }

    /// [`cells::safety`], and whether the run ended.
    fn safety(&self, spec: &ScenarioSpec) -> Vec<String> {
        let mut lines = cells::safety(&self.cluster, &self.stats, spec.deaths());
        lines.extend(self.cut.map(|at| format!("still running at {at}")));
        lines
    }

    /// Per node: every delivery (source, id, latency, instant, size), the
    /// app's counters and the engine's metrics, as one string.
    fn observed(&self) -> Vec<String> {
        let nodes = self.cluster.handles.iter().zip(&self.stats);
        let node = |(h, s): (&madeleine::NodeHandle, &StatsHandle)| {
            let got = h.take_delivered();
            let got: Vec<_> = got
                .iter()
                .map(|m| (m.src, m.id, m.latency, m.delivered_at))
                .collect();
            let s = s.borrow();
            let app = (s.sent, s.received, s.bytes_received, s.last_recv, &s.rtt_us);
            format!("{got:?} {app:?} {}", h.metrics().to_json().render())
        };
        nodes.map(node).collect()
    }
}

/// A traced run of `spec` (both rings on, sampler ticking) under a Nagle
/// delay of `nagle`: what the profile oracles read.
pub fn traced(spec: &ScenarioSpec, nagle: SimDuration) -> Run {
    let mut cluster = spec.cluster_spec().with_tracing(RING_CAP);
    if let EngineKind::Optimizing { config, .. } = &mut cluster.engine {
        config.nagle_delay = nagle;
    }
    Run::new(spec, cluster, true)
}

/// Run `spec` and judge it by every oracle, or by `only`: one
/// `(oracle, what failed)` per failing oracle.
pub fn check(spec: &ScenarioSpec, only: Option<&str>) -> Vec<(&'static str, String)> {
    let wants = |o: &str| only.is_none_or(|w| w == o);
    let mut failed = Vec::new();
    let mut fail = |oracle: &'static str, lines: Vec<String>| {
        if !lines.is_empty() && wants(oracle) {
            failed.push((oracle, lines.join("; ")));
        }
    };
    let base = Run::new(spec, spec.cluster_spec(), false);
    let lossless = spec.lossless();
    let mut lines = base.safety(spec);
    let replies = base.sum(|s| s.rtt_us.iter().map(|r| r.len() as u64).sum());
    let (drawn, asked) = (base.sum(|s| s.attempts), spec.msgs + replies);
    if lossless && drawn != asked {
        lines.push(format!("drew {drawn} messages of the {asked} asked for"));
    }
    fail("safety", lines);
    let engines = base.cluster.handles.iter().map(|h| h.metrics());
    let gone: u64 = engines.map(|m| m.shed_msgs + m.lost_msgs).sum();
    let (sent, got) = (base.sum(|s| s.sent), base.sum(|s| s.received));
    let leak = (lossless && sent != got + gone).then_some((sent, got, gone));
    let leak = leak.map(|(s, d, g)| format!("admitted {s}, delivered {d}, shed or lost {g}"));
    fail("conservation", leak.into_iter().collect());
    let profiled = !matches!(only, Some("safety" | "conservation" | "load-monotonicity"));
    let a = (spec.traced && profiled).then(|| traced(spec, SimDuration::ZERO));
    let reg = a.as_ref().unwrap_or(&base).cluster.metrics_registry();
    fail("registry", registry_report(&reg, spec.deaths()).findings);
    if let Some(a) = a {
        let input = a.cluster.prof_input();
        let prof = input.profile();
        let resent = retransmits(&a.cluster);
        fail("partition", partition_findings(&input, &prof, &resent));
        let snap = RunSnapshot::capture("base", &input);
        if wants("replay") {
            let b = traced(spec, SimDuration::ZERO);
            let input_b = b.cluster.prof_input();
            let again = input_b.profile();
            let mut lines = Vec::new();
            if again.attribution_csv() != prof.attribution_csv()
                || again.folded_stacks() != prof.folded_stacks()
            {
                lines.push("a same-seed replay changed the profile exports".to_string());
            }
            let (chrome, again) = (
                a.cluster.export_chrome_trace(),
                b.cluster.export_chrome_trace(),
            );
            if chrome.json != again.json
                || madeleine::chrome_event_count(&chrome.json) != Ok(chrome.events)
            {
                lines.push(
                    "the Chrome export moved on a same-seed replay or does not read back".into(),
                );
            }
            let snap2 = RunSnapshot::capture("base", &input_b);
            if snap.render() != snap2.render() {
                lines.push("a same-seed replay changed the snapshot bytes".to_string());
            }
            let zero = diff(&snap, &snap2);
            if !zero.is_zero() {
                lines.push(format!("the self-diff is not zero:\n{}", zero.report(3)));
            }
            fail("replay", lines);
        }
        if wants("perturbation") {
            let nagle = traced(spec, SimDuration::from_micros(2));
            let mut lines = delta_findings(&snap, &nagle.cluster.run_snapshot("nagle"));
            let unsafe_lines = nagle.safety(spec).into_iter();
            lines.extend(unsafe_lines.map(|l| format!("with a 2 µs Nagle delay, {l}")));
            fail("perturbation", lines);
        }
        let mut pairs = a.observed().into_iter().zip(base.observed());
        let moved = pairs.position(|(a, b)| a != b);
        let moved = moved.map(|n| format!("node {n}: tracing moved a delivery or a counter"));
        fail("observation", moved.into_iter().collect());
    }
    if lossless && wants("load-monotonicity") {
        let mut sooner = spec.clone();
        sooner.mean_gap = spec.mean_gap * 9 / 10;
        let ratio = Run::new(&sooner, sooner.cluster_spec(), false).goodput() / base.goodput();
        let low = (ratio < 0.8).then(|| format!("gaps × 0.9 leave {ratio:.2}× the goodput"));
        fail("load-monotonicity", low.into_iter().collect());
    }
    failed
}

/// Shrink a failing `spec` while `fails` holds: halve its message count,
/// then drop its fault-plan entries one at a time, then a rail. Each kind
/// of step stops at the first that passes; returns the last spec that
/// failed and what stopped each kind.
pub fn shrink(
    spec: &ScenarioSpec,
    fails: impl Fn(&ScenarioSpec) -> bool,
) -> (ScenarioSpec, String) {
    let mut best = spec.clone();
    let mut notes = Vec::new();
    while best.msgs > 1 {
        let half = ScenarioSpec {
            msgs: best.msgs / 2,
            ..best.clone()
        };
        if !fails(&half) {
            notes.push(format!(
                "stopped at {} messages: halving to {} passes",
                best.msgs, half.msgs
            ));
            break;
        }
        best = half;
    }
    for i in (0..best.faults.len()).rev() {
        let mut fewer = best.clone();
        let entry = fewer.faults.remove(i);
        if !fails(&fewer) {
            notes.push(format!("dropping {entry:?} passes"));
            break;
        }
        best = fewer;
    }
    if best.rails.len() == 2 {
        // The rail the plan kills goes with its death; else the second.
        let dead = best.faults.iter().find(|f| !f.touches_wire());
        let drop = dead.map_or(1, |f| {
            usize::from(matches!(f, cells::FaultEntry::Death(1, _)))
        });
        let mut one = best.clone();
        one.rails.remove(drop);
        one.faults.retain(|f| f.touches_wire());
        match fails(&one) {
            true => best = one,
            false => notes.push(format!("dropping rail {drop} passes")),
        }
    }
    (best, notes.join("; "))
}

/// The fuzz row: replay the committed corpus, then judge `draws` draws
/// of `seed`, shrinking each new failure into a corpus line.
pub fn fuzz(seed: u64, draws: usize) -> SweepReport {
    let mut report = SweepReport::new(
        "fuzz",
        "every drawn scenario passes every oracle, and the corpus replays as committed",
        &["corpus entries", "known failures", "draws", "traced"],
    );
    let corpus = corpus();
    replay(&corpus, &mut report);
    for idx in 0..draws as u64 {
        let spec = ScenarioSpec::draw(seed, idx);
        report.add("draws", 1);
        report.add("traced", usize::from(spec.traced));
        for (oracle, what) in check(&spec, None) {
            if known(&corpus, &spec, oracle).is_some() {
                report.add("known failures", 1);
                continue;
            }
            let (spec, how) = shrink(&spec, |s| !check(s, Some(oracle)).is_empty());
            let (seed, name) = (spec.seed, oracle.to_string());
            let entry = Entry {
                seed,
                spec,
                oracle: name,
                roadmap: None,
            };
            report.findings.push(format!(
                "draw {idx} fails `{oracle}`: {what}\n  shrunk ({how}):\n  {}",
                entry.line()
            ));
        }
    }
    report
}

/// The known failure of `corpus` that `spec` failing `oracle` is, if any:
/// the entry of the same seed and oracle with a `roadmap` field.
pub fn known<'a>(corpus: &'a [Entry], spec: &ScenarioSpec, oracle: &str) -> Option<&'a Entry> {
    let same = |e: &&Entry| e.seed == spec.seed && e.oracle == oracle;
    corpus.iter().filter(same).find(|e| e.roadmap.is_some())
}

/// Replay `entries`: a known failure must still fail its oracle, and any
/// other entry must pass.
pub fn replay(entries: &[Entry], report: &mut SweepReport) {
    for e in entries {
        report.add("corpus entries", 1);
        let failed = check(&e.spec, Some(&e.oracle));
        let (seed, oracle) = (e.seed, &e.oracle);
        match (&e.roadmap, failed.first()) {
            (Some(_), Some(_)) => report.add("known failures", 1),
            (Some(item), None) => report.findings.push(format!(
                "corpus seed {seed} now passes `{oracle}`: flip it, dropping its `roadmap` \
                 ({item}), so that it guards the fix"
            )),
            (None, Some((_, what))) => report
                .findings
                .push(format!("corpus seed {seed} fails `{oracle}` again: {what}")),
            (None, None) => {}
        }
    }
}

/// Count the numeric leaves of one registry section the way the
/// Prometheus flattener must see them: every `Int`/`UInt`/`Float`/
/// `Fixed3`/`Bool` anywhere under the section, with strings and nulls
/// skipped.
fn count_leaves(doc: &Json) -> usize {
    match doc {
        Json::Int(_) | Json::UInt(_) | Json::Float(_) | Json::Fixed3(_) | Json::Bool(_) => 1,
        Json::Arr(items) => items.iter().map(count_leaves).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| count_leaves(v)).sum(),
        Json::Str(_) | Json::Null => 0,
    }
}

/// The one list of should-stay-zero counters and an engine section
/// (`engine`, `nodeN/engine`) agree: each counter is a numeric leaf of
/// it and reads 0 — but `rails_dead`, which may count the `killed` rails
/// the run's fault plan ended.
fn check_faults(section: &str, body: &Json, killed: u64, report: &mut SweepReport) {
    for fault in Fault::ALL {
        let label = fault.label();
        report.add("should-stay-zero leaves", 1);
        let finding = match body.get(label).and_then(Json::as_u64) {
            Some(0) => continue,
            Some(n) if fault == Fault::RailDead && n <= killed => continue,
            Some(n) => format!("`{section}` `{label}` = {n} on a clean run"),
            None => format!("engine section `{section}` has no numeric `{label}` leaf"),
        };
        report.findings.push(finding);
    }
}

/// Check the registry of a clean run: unique sample keys, an independent
/// leaf count, presence of every sample in the rendered text export, and
/// every should-stay-zero counter at 0 in every engine section.
pub fn check_registry(reg: &MetricsRegistry) -> SweepReport {
    registry_report(reg, 0)
}

fn registry_report(reg: &MetricsRegistry, killed: u64) -> SweepReport {
    // Sections walked; samples the flattener produced; numeric leaves the
    // independent JSON walk below counts.
    let mut report = SweepReport::new(
        "metrics",
        "every registered metric exports exactly once, every should-stay-zero counter reads 0",
        &[
            "sections",
            "Prometheus samples",
            "numeric leaves",
            "should-stay-zero leaves",
        ],
    );
    let samples = flatten_registry(reg);
    report.add("sections", reg.len());
    report.add("Prometheus samples", samples.len());

    // Rule 1: section names are unique (a duplicate section merges two
    // engines' metrics into one label value).
    let doc = reg.to_json();
    if let Some(Json::Obj(sections)) = doc.get("sections") {
        let mut names = HashSet::new();
        for (name, body) in sections {
            if !names.insert(name) {
                report
                    .findings
                    .push(format!("duplicate registry section name `{name}`"));
            }
            report.add("numeric leaves", count_leaves(body));
            if name == "engine" || name.ends_with("/engine") {
                check_faults(name, body, killed, &mut report);
            }
        }
    } else {
        report
            .findings
            .push("registry document has no `sections` object".to_string());
    }

    // Rule 2: flattened sample keys are unique.
    let keys: Vec<String> = samples.iter().map(|s| s.key()).collect();
    let mut seen = HashSet::new();
    if let Some(dup) = keys.iter().find(|k| !seen.insert(k.as_str())) {
        report
            .findings
            .push(format!("duplicate Prometheus sample key `{dup}`"));
    }

    // Rule 3: the flattener saw every numeric leaf (no silent drops in
    // either direction).
    let leaves = report.count("numeric leaves");
    if leaves != samples.len() {
        report.findings.push(format!(
            "flattener produced {} samples but the registry holds {leaves} numeric \
             leaves: metrics are being silently dropped or invented",
            samples.len()
        ));
    }

    // Rule 4: every flattened sample appears in the rendered export, and
    // each family carries its HELP/TYPE header. The export is read once
    // into the sample keys it writes and the families it types.
    let text = prometheus_render(reg);
    let mut written = HashSet::new();
    let mut typed = HashSet::new();
    for line in text.lines() {
        if let Some(family) = line.strip_prefix("# TYPE ") {
            typed.insert(family.strip_suffix(" gauge").unwrap_or(family));
        } else if let Some((key, _)) = line.rsplit_once(' ') {
            written.insert(key);
        }
    }
    for key in keys.iter().filter(|k| !written.contains(k.as_str())) {
        report
            .findings
            .push(format!("sample `{key}` missing from Prometheus export"));
        if report.findings.len() > 8 {
            break; // a systematic renderer bug needs no full listing
        }
    }
    if let Some(s) = samples.iter().find(|s| !typed.contains(s.family.as_str())) {
        report.findings.push(format!(
            "family `{}` has no `# TYPE` header in the export",
            s.family
        ));
    }
    report
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use madeleine::json::obj;
    use madeleine::metrics::MetricsRegistry;
    use madeleine::ReliabilityMode;
    use madware::cells::{Fabric, Pace, Pattern, Shape};
    use simnet::Technology;

    /// A small traced two-node scenario: MX, three flows of four classes
    /// round-robin, `msgs` messages, `Recover` under loss and duplication
    /// when `faulted`.
    pub(crate) fn pair(msgs: u64, faulted: bool) -> ScenarioSpec {
        ScenarioSpec {
            fabric: Fabric::Pair,
            rails: vec![Technology::MyrinetMx],
            faults: if faulted {
                vec![
                    cells::FaultEntry::Loss(200_000),
                    cells::FaultEntry::Dup(20_000),
                ]
            } else {
                vec![]
            },
            reliability: [ReliabilityMode::Off, ReliabilityMode::Recover][faulted as usize],
            shape: Shape::Stream,
            pace: Pace::Burst,
            pattern: Pattern::FanIn(3),
            mean_gap: SimDuration::from_micros(2),
            msgs,
            traced: true,
            seed: 3,
        }
    }

    /// The first `each` clean and `each` faulted traced draws of `seed`
    /// of 200 messages or fewer.
    pub(crate) fn traced_draws(seed: u64, each: usize) -> Vec<ScenarioSpec> {
        let (mut left, mut out) = ([each; 2], Vec::new());
        for idx in 0.. {
            let spec = ScenarioSpec::draw(seed, idx);
            let n = &mut left[usize::from(!spec.faults.is_empty())];
            if spec.traced && spec.msgs <= 200 && *n > 0 {
                *n -= 1;
                out.push(spec);
            }
            if left == [0, 0] {
                break;
            }
        }
        out
    }

    fn metrics_check() -> SweepReport {
        check_registry(
            &traced(&pair(12, false), SimDuration::ZERO)
                .cluster
                .metrics_registry(),
        )
    }
    #[test]
    fn live_workload_registry_is_clean() {
        let r = metrics_check();
        assert!(r.is_clean(), "{r}");
        let (sections, samples) = (r.count("sections"), r.count("Prometheus samples"));
        assert!(sections >= 5, "engines + receivers + nics: {sections}");
        assert!(samples > 100, "rich registry expected: {samples}");
        assert_eq!(samples, r.count("numeric leaves"));
        assert_eq!(r.count("should-stay-zero leaves"), 2 * Fault::ALL.len());
    }

    #[test]
    fn an_engine_section_without_a_zero_fault_counter_is_flagged() {
        let engine = |edit: fn(&mut Vec<(String, Json)>)| {
            let Json::Obj(mut fields) = madeleine::EngineMetrics::default().to_json() else {
                unreachable!("metrics render as an object")
            };
            edit(&mut fields);
            let mut reg = MetricsRegistry::new();
            reg.add_section("node0/engine", Json::Obj(fields));
            check_registry(&reg).findings
        };
        assert!(engine(|_| {}).is_empty());
        assert_eq!(
            engine(|f| f.retain(|(k, _)| k != "lost_msgs")),
            ["engine section `node0/engine` has no numeric `lost_msgs` leaf"]
        );
        assert_eq!(
            engine(|f| f
                .iter_mut()
                .filter(|(k, _)| k == "rails_dead")
                .for_each(|(_, v)| *v = Json::UInt(1))),
            ["`node0/engine` `rails_dead` = 1 on a clean run"]
        );
    }

    #[test]
    fn nic_section_exports_every_nic_counter() {
        // `derive(Debug)` names every field of `NicStats`; the registry
        // spells them by hand.
        let stats = simnet::NicStats::default();
        let fields = format!("{stats:?}").matches(": ").count();
        let mut reg = MetricsRegistry::new();
        reg.add_nic("node0/nic0", &stats);
        let r = check_registry(&reg);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.count("numeric leaves"), fields);
    }

    #[test]
    fn duplicate_section_is_flagged() {
        let mut reg = MetricsRegistry::new();
        reg.add_section("dup", obj().field("x", 1u64).build());
        reg.add_section("dup", obj().field("x", 2u64).build());
        let r = check_registry(&reg);
        assert!(!r.is_clean());
        assert!(
            r.findings.iter().any(|f| f.contains("duplicate")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn leaf_count_walk_matches_flattener_on_nested_docs() {
        let mut reg = MetricsRegistry::new();
        reg.add_section(
            "node0/weird",
            obj()
                .field("a", 1u64)
                .field("b", Json::Arr(vec![Json::UInt(1), Json::UInt(2)]))
                .field("c", obj().field("d", true).field("e", "skipped").build())
                .field("f", Json::Null)
                .build(),
        );
        let r = check_registry(&reg);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.count("Prometheus samples"), 4, "a, b[0], b[1], c.d");
    }

    #[test]
    fn a_scenario_round_trips_through_json() {
        for idx in 0..200 {
            let spec = ScenarioSpec::draw(41, idx);
            let text = spec.to_json().render();
            let back = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec, "{text}");
        }
    }

    #[test]
    fn the_shrinker_halves_until_a_halving_passes() {
        let spec = ScenarioSpec {
            msgs: 2_000,
            ..pair(0, true)
        };
        let (small, how) = shrink(&spec, |s| s.msgs > 300);
        assert!((300..=600).contains(&small.msgs), "{} ({how})", small.msgs);
        assert!(how.contains("halving"), "{how}");
        assert!(
            small.faults.is_empty(),
            "a synthetic oracle ignores the wire"
        );
    }

    #[test]
    fn a_known_failure_that_passes_says_to_flip_it() {
        let entry = Entry {
            seed: 3,
            spec: pair(12, false),
            oracle: "safety".to_string(),
            roadmap: Some("item 3".to_string()),
        };
        let back = Entry::parse(&entry.line()).unwrap();
        let mut report = SweepReport::new("fuzz", "", &["corpus entries", "known failures"]);
        replay(&[back], &mut report);
        assert_eq!(report.findings.len(), 1, "{report}");
        assert!(report.findings[0].contains("flip it"), "{report}");
        assert!(report.findings[0].contains("item 3"), "{report}");
    }

    #[test]
    fn the_committed_corpus_parses_and_names_its_roadmap_items() {
        let corpus = corpus();
        assert!(!corpus.is_empty());
        for e in &corpus {
            assert!(ORACLES.contains(&e.oracle.as_str()), "{}", e.line());
            assert_eq!(e.seed, e.spec.seed, "{}", e.line());
        }
    }

    #[test]
    fn the_oracles_are_deterministic() {
        let judge = || {
            (0..2)
                .map(|i| check(&ScenarioSpec::draw(7, i), None))
                .collect::<Vec<_>>()
        };
        assert_eq!(judge(), judge());
    }
}

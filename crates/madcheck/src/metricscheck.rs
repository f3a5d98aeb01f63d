//! Conformance rule for madscope exports: every numeric leaf registered
//! in a [`MetricsRegistry`] must surface in the Prometheus text format
//! exactly once — no duplicate sample keys (which Prometheus servers
//! reject or silently last-write-win) and no silently dropped metrics —
//! and every engine section carries each should-stay-zero counter
//! ([`Fault::ALL`]), reading 0 on the clean run checked.
//!
//! Like the capability checks, the verdict is re-derived independently:
//! a local JSON walk counts the numeric leaves of the registry document
//! and must agree with what [`flatten_registry`] produced, so a bug in
//! either traversal is caught by disagreement. The registry under test
//! comes from a real two-node workload with per-flow, per-rail and
//! sampler sections populated, not a hand-built fixture.

use madeleine::harness::{Cluster, ClusterSpec};
use madeleine::json::Json;
use madeleine::metrics::MetricsRegistry;
use madeleine::{flatten_registry, prometheus_render, Fault, MessageBuilder, TrafficClass};
use simnet::SimDuration;

use crate::report::SweepReport;

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
/// it — and, the registry being of a clean run, reads 0.
fn check_faults(section: &str, body: &Json, report: &mut SweepReport) {
    for label in Fault::ALL.map(Fault::label) {
        report.add("should-stay-zero leaves", 1);
        let finding = match body.get(label).and_then(Json::as_u64) {
            Some(0) => continue,
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
        for (i, (name, body)) in sections.iter().enumerate() {
            if sections[..i].iter().any(|(n, _)| n == name) {
                report
                    .findings
                    .push(format!("duplicate registry section name `{name}`"));
            }
            report.add("numeric leaves", count_leaves(body));
            if name == "engine" || name.ends_with("/engine") {
                check_faults(name, body, &mut report);
            }
        }
    } else {
        report
            .findings
            .push("registry document has no `sections` object".to_string());
    }

    // Rule 2: flattened sample keys are unique.
    let mut keys: Vec<String> = samples.iter().map(|s| s.key()).collect();
    let total = keys.len();
    keys.sort();
    keys.dedup();
    if keys.len() != total {
        let mut sorted: Vec<String> = samples.iter().map(|s| s.key()).collect();
        sorted.sort();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                report
                    .findings
                    .push(format!("duplicate Prometheus sample key `{}`", w[0]));
                break;
            }
        }
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

    // Rule 4: every flattened sample appears in the rendered export,
    // and each family carries its HELP/TYPE header.
    let text = prometheus_render(reg);
    for s in &samples {
        let key = s.key();
        if !text.lines().any(|l| l.starts_with(&key)) {
            report
                .findings
                .push(format!("sample `{key}` missing from Prometheus export"));
            if report.findings.len() > 8 {
                break; // a systematic renderer bug needs no full listing
            }
        }
    }
    for s in &samples {
        if !text.contains(&format!("# TYPE {} gauge", s.family)) {
            report.findings.push(format!(
                "family `{}` has no `# TYPE` header in the export",
                s.family
            ));
            break;
        }
    }

    report
}

/// Run a small deterministic two-node workload (sampler enabled, several
/// flows and classes, so per-flow, per-rail and sampler sections all
/// populate) and check its cluster-wide registry.
pub fn metrics_check() -> SweepReport {
    let mut c = Cluster::build(&ClusterSpec::mx_pair(), vec![]);
    c.enable_sampler(SimDuration::from_micros(5));
    let src = c.nodes[0];
    let dst = c.nodes[1];
    let h = c.handles[0].clone();
    let flows = [
        h.open_flow(dst, TrafficClass::DEFAULT),
        h.open_flow(dst, TrafficClass::CONTROL),
        h.open_flow(dst, TrafficClass::BULK),
    ];
    for i in 0..12u8 {
        let flow = flows[i as usize % flows.len()];
        c.sim.inject(src, |ctx| {
            h.send(
                ctx,
                flow,
                MessageBuilder::new()
                    .pack_express(&[i; 8])
                    .pack_cheaper(&[i; 256])
                    .build_parts(),
            )
        });
    }
    c.drain();
    check_registry(&c.metrics_registry())
}

#[cfg(test)]
mod tests {
    use super::*;
    use madeleine::json::obj;

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
}

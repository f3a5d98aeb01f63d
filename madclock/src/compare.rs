//! `madclock compare <a.json> <b.json>`: judge run `b` (the change)
//! against run `a` (the base), both written by `madclock all`.
//!
//! One row per workload and end-to-end metric. Both runs have one seed, so
//! the bound applied is the metric's `same_seed_bound`, not the wider one
//! `BENCHMARK.json` carries for runs on different seeds. A host metric's
//! values are set against that bound and against the base's own spread
//! (the distance between the quartiles of its repeats): where the spread
//! exceeds the bound the row is `unresolved`, not `same`, unless every
//! sample of the change beats every sample of the base. Virtual-time
//! metrics and counts are exact on one seed: any difference is reported,
//! more than 1 % worse fails, and with `--aa` (two runs of the same code)
//! any difference fails.

use std::fs;

use crate::catalog::{Better, Clock, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::surface::Json;

/// Verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (host) or equal (exact).
    Same,
    /// Better than the base by more than the base's spread.
    Improved,
    /// An exact metric moved, within its bound.
    Changed,
    /// The base's spread exceeds the bound: the medians decide nothing.
    Unresolved,
    /// Worse than the base by more than the bound.
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Improved => "improved",
            Verdict::Changed => "changed",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// One side's reading of a metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Side {
    /// Median of the repeats (host) or exact value.
    pub value: f64,
    /// Per-repeat samples, when the metric has them.
    pub samples: Vec<f64>,
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// Judge one metric of two runs on one seed. Returns the verdict, the
/// worsening and the base's spread (both as shares of the base's value).
pub fn judge(def: &MetricDef, a: &Side, b: &Side) -> (Verdict, f64, f64) {
    let worse = worsening(def, a.value, b.value);
    let bound = def.same_seed_bound;
    if def.clock == Clock::Exact {
        let verdict = if worse == 0.0 {
            Verdict::Same
        } else if worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Changed
        };
        return (verdict, worse, 0.0);
    }
    let spread = if a.samples.len() >= 2 && a.value != 0.0 {
        let (q1, q3) = quartiles(&a.samples);
        (q3 - q1) / a.value.abs()
    } else {
        0.0
    };
    let every_sample_better = !a.samples.is_empty()
        && !b.samples.is_empty()
        && a.samples
            .iter()
            .all(|&x| b.samples.iter().all(|&y| worsening(def, x, y) < 0.0));
    let verdict = if every_sample_better {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -spread.max(bound) {
        Verdict::Improved
    } else {
        Verdict::Same
    };
    (verdict, worse, spread)
}

fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Float(v) => Some(*v),
        Json::Int(v) => Some(*v as f64),
        Json::UInt(v) => Some(*v as f64),
        _ => None,
    }
}

fn side(half: &Json, metric: &str) -> Option<Side> {
    let m = half.get("metrics")?.get(metric)?;
    Some(Side {
        value: number(m.get("value")?)?,
        samples: m
            .get("samples")
            .and_then(Json::as_array)
            .map(|s| s.iter().filter_map(number).collect())
            .unwrap_or_default(),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("benchmark").and_then(Json::as_str) != Some("madclock") {
        return Err(format!("{path} is not a `madclock all` document"));
    }
    Ok(doc)
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
}

/// Compare two `madclock all` documents; returns the table and whether
/// the change passes.
pub fn compare(a: &Json, b: &Json, aa: bool) -> Result<(String, bool), String> {
    if a.get("seed") != b.get("seed") {
        return Err("the two runs differ in seed".into());
    }
    let mut table = format!(
        "{:<17} {:<16} {:>14} {:>14} {:>8} {:>7} {:>6}  {}\n",
        "workload", "metric", "base", "change", "worse%", "spread%", "bound%", "verdict"
    );
    let mut pass = true;
    let names = a
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("no workloads in the base document")?
        .iter()
        .filter_map(|w| w.get("workload").and_then(Json::as_str));
    for name in names {
        let wa = workload(a, name).expect("listed above");
        let wb = workload(b, name).ok_or_else(|| format!("{name} is missing from the change"))?;
        for (half, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let (ha, hb) = (
                wa.get(half).ok_or_else(|| format!("{name}: no {half}"))?,
                wb.get(half).ok_or_else(|| format!("{name}: no {half}"))?,
            );
            for (side_name, h) in [("base", ha), ("change", hb)] {
                let failed = h.get("failed").and_then(Json::as_u64);
                if failed != Some(0) || h.get("correct") != Some(&Json::Bool(true)) {
                    table += &format!("{name:<17} {half}: the {side_name} run is not correct\n");
                    pass = false;
                }
            }
            for def in defs {
                let missing = || format!("{name}: {} is missing", def.name);
                let (sa, sb) = (
                    side(ha, def.name).ok_or_else(missing)?,
                    side(hb, def.name).ok_or_else(missing)?,
                );
                let end_to_end = half == "end_to_end";
                if !end_to_end {
                    // Per-layer metrics have no bound. Host ones are
                    // context, not a verdict; exact ones must repeat.
                    if def.clock == Clock::Exact && sa.value != sb.value {
                        table += &format!(
                            "{name:<17} {:<16} {:>14} {:>14}  count differs\n",
                            def.name, sa.value, sb.value
                        );
                        pass &= !aa;
                    }
                    continue;
                }
                let (verdict, worse, spread) = judge(def, &sa, &sb);
                table += &format!(
                    "{name:<17} {:<16} {:>14.4} {:>14.4} {:>8.2} {:>7.2} {:>6.1}  {}\n",
                    def.name,
                    sa.value,
                    sb.value,
                    worse * 100.0,
                    spread * 100.0,
                    def.same_seed_bound * 100.0,
                    verdict.label()
                );
                pass &= verdict != Verdict::Regressed;
                pass &= !(aa && def.clock == Clock::Exact && verdict != Verdict::Same);
            }
        }
    }
    Ok((table, pass))
}

/// `madclock compare [--aa] <a.json> <b.json>`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let aa = args.first().is_some_and(|a| a == "--aa");
    let [a, b] = &args[usize::from(aa)..] else {
        return Err("compare takes two files".into());
    };
    let (table, pass) = compare(&load(a)?, &load(b)?, aa)?;
    print!("{table}");
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host metric and an exact one, both held to 10 % on one seed.
    fn defs() -> (MetricDef, MetricDef) {
        let host = MetricDef {
            name: "t_s",
            unit: "s",
            better: Better::Lower,
            clock: Clock::Host,
            bound: 0.25,
            same_seed_bound: 0.10,
        };
        let exact = MetricDef {
            clock: Clock::Exact,
            ..host
        };
        (host, exact)
    }

    fn host(samples: &[f64]) -> Side {
        Side {
            value: crate::stats::median(samples),
            samples: samples.to_vec(),
        }
    }

    fn exact(value: f64) -> Side {
        Side {
            value,
            samples: vec![],
        }
    }

    #[test]
    fn host_metric_within_bound_is_same_and_beyond_is_regressed() {
        let wall = &defs().0;
        let a = host(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        assert_eq!(judge(wall, &a, &host(&[1.05, 1.06, 1.04])).0, Verdict::Same);
        assert_eq!(
            judge(wall, &a, &host(&[1.15, 1.16, 1.14])).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(wall, &a, &host(&[0.80, 0.81, 0.79])).0,
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_unless_every_sample_wins() {
        let wall = &defs().0;
        let noisy = host(&[1.0, 1.3, 0.8, 1.25, 0.85]);
        assert_eq!(
            judge(wall, &noisy, &host(&[1.0, 1.1, 0.9])).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(wall, &noisy, &host(&[0.5, 0.6, 0.55])).0,
            Verdict::Improved
        );
    }

    #[test]
    fn one_seed_holds_virtual_time_to_one_percent_and_wall_time_to_ten() {
        let def = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap();
        // Within `BENCHMARK.json`'s across-seed bounds (9 % and 25 %),
        // and still regressions when the seed is the same.
        assert_eq!(
            judge(def("sim_makespan_us"), &exact(100.0), &exact(108.0)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(def("sim_lat_p999_us"), &exact(100.0), &exact(100.5)).0,
            Verdict::Changed
        );
        let a = host(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        assert_eq!(
            judge(def("wall_s"), &a, &host(&[1.20, 1.21, 1.19])).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_metric_reports_any_change() {
        let p50 = &defs().1;
        assert_eq!(judge(p50, &exact(10.0), &exact(10.0)).0, Verdict::Same);
        assert_eq!(judge(p50, &exact(10.0), &exact(10.1)).0, Verdict::Changed);
        assert_eq!(judge(p50, &exact(10.0), &exact(9.0)).0, Verdict::Changed);
        assert_eq!(judge(p50, &exact(10.0), &exact(12.0)).0, Verdict::Regressed);
    }
}

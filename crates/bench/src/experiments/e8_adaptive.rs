//! **E8 — Dynamic policy switching** (§2: "the scheduler may also choose
//! to dynamically change the assignment of networking resources to traffic
//! classes, thus selecting different policies, as the needs of the
//! application evolve during the execution").
//!
//! A two-phase application over four rails: phase 1 is put/get-heavy,
//! phase 2 is default-class-heavy. A static class→rail assignment tuned
//! for phase 1 (put/get gets 3 rails, default gets 1) strands bandwidth in
//! phase 2; the adaptive policy re-assigns rails from observed per-class
//! traffic every epoch and recovers it.

use madeleine::harness::{ClusterSpec, EngineKind, NodeHandle};
use madeleine::ids::TrafficClass;
use madeleine::{EngineConfig, PolicyKind};
use madware::apps::FlowSpec;
use madware::scenario::traffic_pair;
use madware::workload::{Arrival, SizeDist};
use simnet::{NodeId, SimDuration, Technology};

use crate::{fmt_f, Report, Table};

const PHASE_MSGS: u64 = 300;
const MSG: usize = 8 << 10;

/// Outcome of one policy across the phased run.
pub struct AdaptivePoint {
    /// Total makespan (µs).
    pub makespan_us: f64,
    /// Phase-2 duration (µs): from first phase-2 submission to completion.
    pub phase2_us: f64,
    /// Rebalances performed.
    pub rebalances: u64,
}

fn phased_workload(phase2_start: SimDuration) -> Vec<FlowSpec> {
    let mut specs: Vec<FlowSpec> = (0..3)
        .map(|_| FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::PUT_GET,
            arrival: Arrival::Periodic(SimDuration::from_micros(25)),
            sizes: SizeDist::Fixed(MSG),
            express_header: 0,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(PHASE_MSGS / 3),
            start_after: SimDuration::ZERO,
        })
        .collect();
    specs.extend((0..3).map(|_| FlowSpec {
        dst: NodeId(1),
        class: TrafficClass::DEFAULT,
        arrival: Arrival::Periodic(SimDuration::from_micros(25)),
        sizes: SizeDist::Fixed(MSG),
        express_header: 0,
        body_frags: SizeDist::Fixed(1),
        reply: None,
        stop_after: Some(PHASE_MSGS / 3),
        start_after: phase2_start,
    }));
    specs
}

/// Run the phased application under one policy.
pub fn run_point(adaptive: bool) -> AdaptivePoint {
    let phase2_start = SimDuration::from_millis(4);
    let config = EngineConfig {
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    };
    let policy = if adaptive {
        PolicyKind::Adaptive
    } else {
        PolicyKind::ClassPinned
    };
    let spec = ClusterSpec::new(2, vec![Technology::MyrinetMx; 4])
        .engine(EngineKind::with_policy(config, policy));
    let (mut cluster, _tx, _rx) = traffic_pair(&spec, "phased", phased_workload(phase2_start), 41);
    let (rebalances, _) = {
        if let NodeHandle::Opt(h) = cluster.handle(0) {
            if !adaptive {
                // Static assignment tuned for phase 1.
                h.pin_class(TrafficClass::PUT_GET, &[0, 1, 2]);
                h.pin_class(TrafficClass::DEFAULT, &[3]);
                h.pin_class(TrafficClass::BULK, &[3]);
                h.pin_class(TrafficClass::CONTROL, &[3]);
            }
            (h.clone(), ())
        } else {
            unreachable!("optimizing cluster")
        }
    };
    let end = cluster.drain();
    AdaptivePoint {
        makespan_us: end.as_micros_f64(),
        phase2_us: end.as_micros_f64() - phase2_start.as_micros_f64(),
        rebalances: rebalances.rebalances(),
    }
}

/// Run the experiment.
pub fn run() -> Report {
    let fixed = run_point(false);
    let adaptive = run_point(true);
    let mut t = Table::new(
        "two-phase app (put/get heavy then default heavy), 4 MX rails",
        &["policy", "makespan(us)", "phase-2 time(us)", "rebalances"],
    );
    t.row(vec![
        "static (phase-1 tuned)".into(),
        fmt_f(fixed.makespan_us),
        fmt_f(fixed.phase2_us),
        fixed.rebalances.to_string(),
    ]);
    t.row(vec![
        "adaptive".into(),
        fmt_f(adaptive.makespan_us),
        fmt_f(adaptive.phase2_us),
        adaptive.rebalances.to_string(),
    ]);
    Report {
        id: "E8",
        title: "dynamic class-to-rail reassignment across application phases",
        claim: "dynamically change the assignment of networking resources to traffic classes as the needs of the application evolve (§2)",
        tables: vec![t],
        notes: vec![format!(
            "adaptive finishes phase 2 {:.2}x faster than the stale static \
             assignment",
            fixed.phase2_us / adaptive.phase2_us
        )],
        artifacts: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_beats_stale_static_assignment() {
        let fixed = run_point(false);
        let adaptive = run_point(true);
        assert!(adaptive.rebalances > 0, "adaptive must rebalance");
        assert_eq!(fixed.rebalances, 0);
        assert!(
            adaptive.phase2_us < fixed.phase2_us * 0.8,
            "adaptive {} vs fixed {}",
            adaptive.phase2_us,
            fixed.phase2_us
        );
    }
}

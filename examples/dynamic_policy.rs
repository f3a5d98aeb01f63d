//! Dynamic policy switching (§2): "the scheduler may also choose to
//! dynamically change the assignment of networking resources to traffic
//! classes ... as the needs of the application evolve during the
//! execution."
//!
//! A two-phase application over four rails — put/get-heavy, then
//! default-class-heavy — run under (a) a static class→rail assignment
//! tuned for phase 1 and (b) the adaptive policy that re-assigns rails
//! from observed traffic every epoch.
//!
//! ```text
//! cargo run --release -p madeleine --example dynamic_policy
//! ```

use madeleine::harness::{ClusterSpec, EngineKind, NodeHandle};
use madeleine::ids::TrafficClass;
use madeleine::{EngineConfig, PolicyKind};
use madware::apps::FlowSpec;
use madware::scenario::traffic_pair;
use madware::workload::{Arrival, SizeDist};
use simnet::{NodeId, SimDuration, Technology};

fn workload(phase2_at: SimDuration) -> Vec<FlowSpec> {
    let stream = |class, start| FlowSpec {
        dst: NodeId(1),
        class,
        arrival: Arrival::Periodic(SimDuration::from_micros(25)),
        sizes: SizeDist::Fixed(8 << 10),
        express_header: 0,
        stop_after: Some(100),
        start_after: start,
    };
    vec![
        stream(TrafficClass::PUT_GET, SimDuration::ZERO),
        stream(TrafficClass::PUT_GET, SimDuration::ZERO),
        stream(TrafficClass::PUT_GET, SimDuration::ZERO),
        stream(TrafficClass::DEFAULT, phase2_at),
        stream(TrafficClass::DEFAULT, phase2_at),
        stream(TrafficClass::DEFAULT, phase2_at),
    ]
}

fn run(adaptive: bool) -> (f64, u64) {
    let phase2_at = SimDuration::from_millis(4);
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
    let (mut cluster, _, rx) = traffic_pair(&spec, "phased", workload(phase2_at), 5);
    let NodeHandle::Opt(h) = cluster.handle(0).clone() else {
        unreachable!()
    };
    if !adaptive {
        // Hand-tuned for phase 1: put/get owns three rails.
        h.pin_class(TrafficClass::PUT_GET, &[0, 1, 2]);
        h.pin_class(TrafficClass::DEFAULT, &[3]);
    }
    let end = cluster.drain();
    assert!(rx.borrow().integrity.all_ok());
    (
        end.as_micros_f64() - phase2_at.as_micros_f64(),
        h.rebalances(),
    )
}

fn main() {
    let (static_phase2, _) = run(false);
    let (adaptive_phase2, rebalances) = run(true);
    println!("phase-2 completion, static assignment tuned for phase 1: {static_phase2:.0} us");
    println!("phase-2 completion, adaptive reassignment ({rebalances} rebalances): {adaptive_phase2:.0} us");
    println!(
        "adaptive recovers the stranded rails: {:.2}x faster phase 2",
        static_phase2 / adaptive_phase2
    );
}

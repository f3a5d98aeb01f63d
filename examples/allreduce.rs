//! MPI-style collectives over the engine: iterated allreduce across a
//! growing cluster, on both engines, through madcoll.
//!
//! Collectives are waves of small, latency-coupled messages — several per
//! node per round. Member `m` contributes `m + i` per element in iteration
//! `i`, so every member checks every iteration's sums in closed form
//! (`n(n−1)/2 + n·i`); this doubles as an N-node correctness
//! demonstration. The algorithm (flat, binomial or ring) is picked per
//! collective by madcoll's cost model.
//!
//! ```text
//! cargo run --release -p madeleine --example allreduce
//! ```

use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madware::coll::{CollApp, CollConfig, CollOp};
use simnet::Technology;

const ITERATIONS: u32 = 20;

/// Mean per-member completion time of one allreduce, in µs.
fn run(size: u32, engine: EngineKind) -> f64 {
    let cfg = CollConfig::for_tech(Technology::MyrinetMx);
    let (apps, hub) = CollApp::ranks(CollOp::Allreduce, 256, size, ITERATIONS, &cfg);
    let spec = ClusterSpec::new(size as usize, vec![Technology::MyrinetMx]).engine(engine);
    let mut c = Cluster::build(&spec, apps);
    c.drain();
    let s = hub.borrow();
    assert_eq!(s.completed, u64::from(ITERATIONS), "{size} ranks");
    assert_eq!(s.member_completions, u64::from(ITERATIONS * size));
    assert_eq!(s.wrong_results, 0, "{size} ranks produced wrong sums");
    s.completion[CollOp::Allreduce.index()].summary().mean()
}

fn main() {
    println!(
        "iterated allreduce of 256 x u64 ({ITERATIONS} iterations), madcoll auto-selected, MX rail"
    );
    println!(
        "{:>6} {:>22} {:>22}",
        "ranks", "optimizer mean(us)", "legacy mean(us)"
    );
    for size in [2u32, 4, 8, 16] {
        let opt_us = run(size, EngineKind::optimizing());
        let leg_us = run(size, EngineKind::legacy());
        println!("{size:>6} {opt_us:>22.1} {leg_us:>22.1}");
    }
    println!("\nevery rank verified every iteration's element-wise sums — all correct.");
}

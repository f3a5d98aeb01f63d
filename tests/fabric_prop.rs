//! Property tests for madnet's max-min fair-share allocator
//! (`simnet::max_min_rates`): over seeded random link graphs and flow
//! sets,
//!
//! * **capacity conservation** — per-link flow rates sum to at most the
//!   link's bandwidth (modulo the ≥ 1 B/s progress clamp),
//! * **work conservation** — every backlogged flow is pinned by a
//!   genuinely exhausted bottleneck link, never throttled while every
//!   link it crosses has slack,
//! * **order independence** — permuting the flow list permutes the
//!   rates and changes nothing else (the invariant that makes fabric
//!   recomputation on flow join/leave deterministic regardless of
//!   arrival order),
//! * **unconstrained flows** — a flow crossing no links is not rated,
//! * **no state between calls** — one `WaterFill` scratch reused over a
//!   sequence of problems (what `FabricState` does on every join/leave)
//!   gives what a fresh `max_min_rates` gives for each.
//!
//! Conservation and work conservation are re-derived by
//! `madcheck::verify_rates`, the same independent checker the
//! `cargo xtask analyze` netcheck rule runs over real topologies; here
//! the graphs are adversarial rather than realistic (duplicate paths,
//! 1 B/s links, empty flows).

use proptest::prelude::*;
use simnet::{max_min_rates, SplitMix64, WaterFill};

/// Build a seeded random allocation problem: `links` capacities spanning
/// six orders of magnitude and `nflows` flows, each crossing a random
/// subset of links (occasionally none).
fn build_problem(seed: u64, links: usize, nflows: usize) -> (Vec<u64>, Vec<Vec<usize>>) {
    let mut rng = SplitMix64::new(seed);
    let capacities: Vec<u64> = (0..links)
        .map(|_| 10u64.pow(rng.next_below(7) as u32) * (1 + rng.next_below(9)))
        .collect();
    let flows: Vec<Vec<usize>> = (0..nflows)
        .map(|_| {
            let mut path: Vec<usize> = (0..links).filter(|_| rng.next_below(3) == 0).collect();
            if rng.next_below(6) == 0 {
                path.clear(); // linkless flow: unconstrained by design
            }
            path
        })
        .collect();
    (capacities, flows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation + work conservation on seeded random problems,
    /// re-derived by the independent madcheck verifier.
    #[test]
    fn fair_share_conserves_capacity_and_work(
        seed in any::<u64>(),
        links in 1usize..12,
        nflows in 1usize..20,
    ) {
        let (capacities, flows) = build_problem(seed, links, nflows);
        let rates = max_min_rates(&capacities, &flows);
        prop_assert_eq!(rates.len(), flows.len());
        let verdict = madcheck::verify_rates(&capacities, &flows, &rates);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        for (f, path) in flows.iter().enumerate() {
            if path.is_empty() {
                prop_assert_eq!(rates[f], u64::MAX, "linkless flow {} must be unconstrained", f);
            } else {
                prop_assert!(rates[f] >= 1, "admitted flow {} must make progress", f);
            }
        }
    }

    /// Permuting the flow list permutes the rates the same way: the
    /// allocation is a function of the flow *set*, not of join order.
    #[test]
    fn fair_share_is_order_independent(
        seed in any::<u64>(),
        links in 1usize..12,
        nflows in 2usize..20,
        rot in 1usize..19,
    ) {
        let (capacities, flows) = build_problem(seed, links, nflows);
        let rates = max_min_rates(&capacities, &flows);
        // Rotation + reversal generate enough of the symmetric group to
        // catch any order dependence a single swap would miss.
        let rot = rot % nflows;
        let mut permuted: Vec<Vec<usize>> = flows.to_vec();
        permuted.rotate_left(rot);
        permuted.reverse();
        let back = max_min_rates(&capacities, &permuted);
        for (f, &rate) in rates.iter().enumerate() {
            // flows[f] moved to position (nflows - 1) - ((f + nflows - rot) % nflows).
            let p = nflows - 1 - ((f + nflows - rot) % nflows);
            prop_assert_eq!(
                rate, back[p],
                "flow {}'s rate changed when the list was permuted", f
            );
        }
    }

    /// One scratch over a sequence of unrelated problems — more links,
    /// fewer links, more flows, fewer flows — leaks nothing from one
    /// call into the next.
    #[test]
    fn reused_scratch_matches_fresh_allocation(
        seed in any::<u64>(),
        problems in 2usize..8,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut fill = WaterFill::new();
        for _ in 0..problems {
            let links = 1 + rng.next_below(11) as usize;
            let nflows = 1 + rng.next_below(19) as usize;
            let (capacities, flows) = build_problem(rng.next_u64(), links, nflows);
            let rates = fill.allocate(&capacities, &flows).to_vec();
            prop_assert_eq!(&rates, &max_min_rates(&capacities, &flows));
            let verdict = madcheck::verify_rates(&capacities, &flows, &rates);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }
}

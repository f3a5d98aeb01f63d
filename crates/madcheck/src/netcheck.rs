//! Conformance rule for madnet topologies: over a seeded corpus of
//! fabric graphs (dumbbells of varying width and asymmetry, k=2 and
//! k=4 fat-trees, mixed link speeds), every host pair must route — a
//! contiguous walk from source port to destination port whose length is
//! hash-independent (ECMP candidates are all shortest paths) — and the
//! max-min fair-share allocator must conserve capacity: per-link flow
//! rates sum to no more than the link's bandwidth (modulo the ≥ 1 B/s
//! progress clamp), every flow is pinned by a genuinely exhausted
//! bottleneck link (work conservation), and permuting the flow list
//! permutes the rates and nothing else.
//!
//! Like the other madcheck rules the verdict is re-derived independently
//! here: routes are walked link by link against the graph, and the
//! conservation sums are recomputed from the returned rates, not read
//! back from the allocator's internals.

use simnet::{flow_hash, max_min_rates, LinkProfile, SplitMix64, Topology, Vertex};

use crate::report::SweepReport;

/// An empty madnet report: corpus topologies, (src, dst, hash) routes
/// walked, flow sets pushed through the fair-share allocator.
fn new_report() -> SweepReport {
    SweepReport::new(
        "net",
        "every host pair routes and every allocation conserves capacity",
        &["topologies", "routes walked", "fair-share allocations"],
    )
}

/// One corpus topology: the family cycles through dumbbells and
/// fat-trees, with seeded asymmetry and per-sample link speeds.
fn build_sample(rng: &mut SplitMix64, idx: usize) -> Topology {
    let mut profile = LinkProfile::synthetic();
    // Mixed speeds so shares are not all equal: 250 MB/s .. 2 GB/s.
    profile.bandwidth = 250_000_000 * (1 + rng.next_below(8));
    match idx % 3 {
        0 => {
            let left = 1 + rng.next_below(6) as u32;
            let right = 1 + rng.next_below(6) as u32;
            let mut core = profile;
            core.bandwidth = (core.bandwidth / (1 + rng.next_below(4))).max(1);
            Topology::dumbbell(left, right, profile, core)
        }
        1 => Topology::fat_tree(2, profile),
        _ => Topology::fat_tree(4, profile),
    }
}

/// Walk one route and verify it is a contiguous host-to-host path.
fn check_route(
    topo: &Topology,
    src: u32,
    dst: u32,
    hash: u64,
    ctx: &str,
    report: &mut SweepReport,
) -> Option<usize> {
    report.add("routes walked", 1);
    let Some(path) = topo.route(src, dst, hash) else {
        report
            .findings
            .push(format!("{ctx}: h{src}->h{dst} is unroutable"));
        return None;
    };
    let mut at = Vertex::Host(src);
    for &li in &path {
        let link = &topo.links()[li];
        if link.from != at {
            report.findings.push(format!(
                "{ctx}: h{src}->h{dst} hash {hash:#x} jumps from {} to link {}->{}",
                at.label(),
                link.from.label(),
                link.to.label()
            ));
            return None;
        }
        at = link.to;
    }
    if at != Vertex::Host(dst) {
        report.findings.push(format!(
            "{ctx}: h{src}->h{dst} hash {hash:#x} ends at {}, not h{dst}",
            at.label()
        ));
        return None;
    }
    Some(path.len())
}

/// Independently verify a rate vector against its flow set: capacity
/// conservation on every link, work conservation for every flow. Pure —
/// the corpus feeds it allocator output, the negative tests feed it
/// corrupted rates.
pub fn verify_rates(capacities: &[u64], flows: &[Vec<usize>], rates: &[u64]) -> Result<(), String> {
    // Conservation: per-link rate sums stay within capacity. The ≥ 1 B/s
    // progress clamp can push a saturated link over by at most one byte
    // per crossing flow.
    let mut on_link = vec![0u64; capacities.len()];
    let mut load = vec![0u64; capacities.len()];
    for (f, path) in flows.iter().enumerate() {
        for &l in path {
            on_link[l] += 1;
            load[l] = load[l].saturating_add(rates[f]);
        }
    }
    for (l, &used) in load.iter().enumerate() {
        if used > capacities[l].saturating_add(on_link[l]) {
            return Err(format!(
                "link {l} carries {used} B/s over its {} B/s capacity",
                capacities[l]
            ));
        }
    }
    // Work conservation: every flow is stopped by an exhausted link —
    // one whose residual is smaller than the flows crossing it (the
    // integer water-fill leaves at most remainder + clamp slack).
    for (f, path) in flows.iter().enumerate() {
        if path.is_empty() {
            if rates[f] != u64::MAX {
                return Err(format!("linkless flow {f} is constrained to {}", rates[f]));
            }
            continue;
        }
        let bottlenecked = path
            .iter()
            .any(|&l| capacities[l].saturating_sub(load[l]) < 2 * on_link[l]);
        if !bottlenecked {
            return Err(format!(
                "flow {f} at {} B/s has slack on every link it crosses \
                 (not work-conserving)",
                rates[f]
            ));
        }
    }
    Ok(())
}

/// Verify one allocation: capacity conservation, work conservation and
/// order independence.
fn check_allocation(topo: &Topology, flows: &[Vec<usize>], ctx: &str, report: &mut SweepReport) {
    report.add("fair-share allocations", 1);
    let capacities: Vec<u64> = topo.links().iter().map(|l| l.profile.bandwidth).collect();
    let rates = max_min_rates(&capacities, flows);
    if let Err(e) = verify_rates(&capacities, flows, &rates) {
        report.findings.push(format!("{ctx}: {e}"));
        return;
    }
    // Order independence: reversing the flow list reverses the rates.
    let reversed: Vec<Vec<usize>> = flows.iter().rev().cloned().collect();
    let mut back = max_min_rates(&capacities, &reversed);
    back.reverse();
    if back != rates {
        report.findings.push(format!(
            "{ctx}: permuting the flow list changed the allocation"
        ));
    }
}

/// Replay the seeded topology corpus: route every host pair under
/// several flow hashes, then verify fair-share allocations over seeded
/// flow sets routed on the same graph.
pub fn net_check(seed: u64, samples: usize) -> SweepReport {
    let mut report = new_report();
    report.add("topologies", samples);
    let mut rng = SplitMix64::new(seed ^ 0x6E65_7463_6865_636B);
    for idx in 0..samples {
        let topo = build_sample(&mut rng, idx);
        let ctx = format!("sample {idx} ({})", topo.name());
        let hosts = topo.hosts();
        for src in 0..hosts {
            for dst in 0..hosts {
                if src == dst {
                    continue;
                }
                // ECMP spreads by hash but every candidate is a shortest
                // path: lengths must agree across hashes.
                let mut len = None;
                for vchan in 0..3u16 {
                    let h = flow_hash(src, dst, vchan);
                    if let Some(n) = check_route(&topo, src, dst, h, &ctx, &mut report) {
                        if *len.get_or_insert(n) != n {
                            report.findings.push(format!(
                                "{ctx}: h{src}->h{dst} route length depends on the hash"
                            ));
                        }
                    }
                }
            }
        }
        // Seeded flow sets over real routes (plus the odd linkless flow).
        for _ in 0..4 {
            let n = 2 + rng.next_below(14) as usize;
            let mut flows = Vec::with_capacity(n);
            for _ in 0..n {
                if rng.next_below(8) == 0 {
                    flows.push(Vec::new());
                    continue;
                }
                let src = rng.next_below(u64::from(hosts)) as u32;
                let mut dst = rng.next_below(u64::from(hosts)) as u32;
                if dst == src {
                    dst = (dst + 1) % hosts;
                }
                let h = flow_hash(src, dst, rng.next_below(4) as u16);
                flows.push(topo.route(src, dst, h).unwrap_or_default());
            }
            check_allocation(&topo, &flows, &ctx, &mut report);
        }
        if report.findings.len() >= 32 {
            break; // a systematic fabric bug needs no full listing
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_routes_and_allocations_conform() {
        let r = net_check(42, 12);
        assert!(r.is_clean(), "{r}");
        let routes = r.count("routes walked");
        assert!(routes >= 12 * 2, "routes walked: {routes}");
        assert_eq!(r.count("fair-share allocations"), 12 * 4);
    }

    #[test]
    fn net_check_is_deterministic() {
        let a = net_check(7, 6);
        let b = net_check(7, 6);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.findings, b.findings);
    }

    /// The verifier itself must catch broken allocations: inflating one
    /// rate trips the conservation sum, deflating it trips the
    /// work-conservation check.
    #[test]
    fn corrupted_rates_are_flagged() {
        let topo = Topology::dumbbell(2, 2, LinkProfile::synthetic(), LinkProfile::synthetic());
        let flows = vec![
            topo.route(0, 2, flow_hash(0, 2, 0)).unwrap(),
            topo.route(1, 3, flow_hash(1, 3, 0)).unwrap(),
        ];
        let capacities: Vec<u64> = topo.links().iter().map(|l| l.profile.bandwidth).collect();
        let mut rates = max_min_rates(&capacities, &flows);
        assert!(verify_rates(&capacities, &flows, &rates).is_ok());
        let honest = rates[0];
        rates[0] = honest.saturating_mul(3);
        let e = verify_rates(&capacities, &flows, &rates).unwrap_err();
        assert!(e.contains("over its"), "{e}");
        rates[0] = honest / 4;
        rates[1] = honest / 4;
        let e = verify_rates(&capacities, &flows, &rates).unwrap_err();
        assert!(e.contains("work-conserving"), "{e}");
        // Degenerate 1 B/s links: the progress clamp may overshoot, the
        // checker must tolerate exactly that much and no more.
        let tiny = LinkProfile {
            bandwidth: 1,
            ..LinkProfile::synthetic()
        };
        let starved = Topology::dumbbell(2, 2, tiny, tiny);
        let mut report = new_report();
        let path = starved.route(0, 2, flow_hash(0, 2, 0)).unwrap();
        check_allocation(&starved, &[path.clone(), path], "starved", &mut report);
        assert!(report.is_clean(), "clamped shares still conserve: {report}");
    }
}

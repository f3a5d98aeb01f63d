//! Conformance rule for madcoll schedules: over a seeded corpus of
//! `algorithm × member-count × capability-profile` shapes, every
//! generated [`CollPlan`] must be a round-gated DAG (verified by an
//! explicit topological sort, not by trusting the round numbers), must
//! span all members (verified by simulating the schedule with
//! contributor *bitmasks* instead of payloads: a reduce result must
//! carry every member's bit, a broadcast result exactly the root's), and
//! must conserve bytes (every send carries exactly its chunk's tile;
//! ring-allreduce's reduce-scatter/allgather tiling must cover the
//! vector exactly).
//!
//! Like the other madcheck rules, the verdict is re-derived here from
//! the plan's public schedule — none of madcoll's own runtime machinery
//! is consulted.

use madware::coll::{select_algo, CollAlgo, CollOp, CollPlan, CHUNK_FULL};
use nicdrv::{calib, CostModel};
use simnet::{SplitMix64, Technology};

use crate::report::SweepReport;

/// The capability profiles selection is exercised under — every
/// calibrated driver plus the synthetic round-number NIC.
fn profiles() -> Vec<(&'static str, nicdrv::DriverCapabilities, CostModel)> {
    let mut out = Vec::new();
    for tech in [
        Technology::MyrinetMx,
        Technology::QuadricsElan,
        Technology::InfiniBand,
        Technology::TcpEthernet,
        Technology::SharedMem,
    ] {
        out.push((
            tech.label(),
            calib::capabilities(tech),
            CostModel::from_params(&calib::params(tech)),
        ));
    }
    out
}

/// Verify the dependency graph is acyclic by explicit topological sort.
///
/// Nodes are sends; send `b` depends on send `a` when `a` delivers to
/// `b`'s sender in an earlier round (the round-gating relation the
/// runtime enforces). Kahn's algorithm must order every node.
fn check_acyclic(plan: &CollPlan, label: &str, findings: &mut Vec<String>) {
    let n = plan.sends.len();
    let mut indeg = vec![0usize; n];
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ai, a) in plan.sends.iter().enumerate() {
        for (bi, b) in plan.sends.iter().enumerate() {
            if a.dst == b.src && a.round < b.round {
                edges[ai].push(bi);
                indeg[bi] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut ordered = 0;
    while let Some(i) = queue.pop() {
        ordered += 1;
        for &j in &edges[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                queue.push(j);
            }
        }
    }
    if ordered != n {
        findings.push(format!(
            "{label}: dependency graph has a cycle ({ordered}/{n} sends orderable)"
        ));
    }
}

/// Simulate the schedule with contributor bitmasks and check the op's
/// semantics: spanning (reduce results carry every member's bit) and
/// provenance (broadcast results carry exactly the root's).
fn check_spanning(plan: &CollPlan, label: &str, findings: &mut Vec<String>) {
    let n = plan.members as usize;
    if n > 64 {
        return; // bitmask width; the corpus stays well below this
    }
    let elems = plan.elems as usize;
    // state[m][e] = set of members whose contribution reached member m's
    // element e.
    let mut state: Vec<Vec<u64>> = (0..n).map(|m| vec![1u64 << m; elems]).collect();
    // Execute rounds in order; within a round all sends observe the
    // previous rounds' state (the runtime's gating guarantees senders
    // hold their round-r value before any round-r delivery).
    for round in 0..plan.rounds {
        let snapshot = state.clone();
        for s in plan.sends.iter().filter(|s| s.round == round) {
            let (a, b) = plan.chunk_range(s.chunk);
            for e in a..b {
                let incoming = snapshot[s.src as usize][e];
                let cell = &mut state[s.dst as usize][e];
                if round < plan.add_rounds {
                    *cell |= incoming;
                } else {
                    *cell = incoming;
                }
            }
        }
    }
    let full: u64 = if n == 64 { u64::MAX } else { (1 << n) - 1 };
    let check_member = |m: usize, want: u64, what: &str, findings: &mut Vec<String>| {
        if let Some(e) = state[m].iter().position(|&mask| mask != want) {
            findings.push(format!(
                "{label}: member {m} element {e} holds contributors {:#x}, {what} requires {want:#x}",
                state[m][e]
            ));
        }
    };
    match plan.op {
        CollOp::Barrier => {
            // No member may complete before every member started: each
            // member must have heard from everyone, transitively.
            for m in 0..n {
                check_member(m, full, "barrier", findings);
            }
        }
        CollOp::Broadcast { root } => {
            for m in 0..n {
                let want = 1u64 << root;
                if m != root as usize {
                    check_member(m, want, "broadcast", findings);
                }
            }
        }
        CollOp::Reduce { root } => check_member(root as usize, full, "reduce", findings),
        CollOp::Allreduce => {
            for m in 0..n {
                check_member(m, full, "allreduce", findings);
            }
        }
    }
}

/// Check byte conservation: every send carries exactly its chunk's tile,
/// the ring tiling covers the vector exactly, and full-vector algorithms
/// never split.
fn check_bytes(plan: &CollPlan, label: &str, findings: &mut Vec<String>) {
    let mut tiled = 0u64;
    for c in 0..plan.members {
        let (a, b) = plan.chunk_range(c);
        tiled += (b - a) as u64;
    }
    if tiled != plan.elems as u64 {
        findings.push(format!(
            "{label}: chunk tiling covers {tiled} of {} elements",
            plan.elems
        ));
    }
    for s in &plan.sends {
        let (a, b) = plan.chunk_range(s.chunk);
        if s.elems as usize != b - a {
            findings.push(format!(
                "{label}: send (round {}, {}→{}, chunk {}) carries {} elems, tile is {}",
                s.round,
                s.src,
                s.dst,
                s.chunk,
                s.elems,
                b - a
            ));
        }
        if s.chunk != CHUNK_FULL
            && !matches!((plan.op, plan.algo), (CollOp::Allreduce, CollAlgo::Ring))
        {
            findings.push(format!(
                "{label}: non-ring-allreduce send uses chunk {}",
                s.chunk
            ));
        }
    }
}

/// Run the conformance check over a seeded corpus.
pub fn coll_check(seed: u64, samples: usize) -> SweepReport {
    let mut rng = SplitMix64::new(seed ^ 0xC011_C4EC);
    let profiles = profiles();
    let ops = [
        CollOp::Barrier,
        CollOp::Allreduce,
        CollOp::Broadcast { root: 0 },
        CollOp::Reduce { root: 0 },
    ];
    // Shapes are op × algo × members × elems; the schedule count includes
    // the auto-selected plan per shape and capability profile.
    let mut report = SweepReport::new(
        "coll",
        "every schedule is an acyclic, member-spanning, byte-exact round-gated DAG",
        &["shapes", "schedules verified", "sends walked"],
    );
    for i in 0..samples {
        let members = [1u32, 2, 3, 4, 5, 7, 8, 12, 16, 33][(rng.next_u64() % 10) as usize];
        let elems = [1u32, 2, 9, 64, 1000, 8192][(rng.next_u64() % 6) as usize];
        let root = (rng.next_u64() % members as u64) as u32;
        let op = match ops[i % ops.len()] {
            CollOp::Broadcast { .. } => CollOp::Broadcast { root },
            CollOp::Reduce { .. } => CollOp::Reduce { root },
            other => other,
        };
        report.add("shapes", 1);
        let verify = |plan: &CollPlan, label: &str, report: &mut SweepReport| {
            report.add("schedules verified", 1);
            report.add("sends walked", plan.sends.len());
            check_acyclic(plan, label, &mut report.findings);
            check_spanning(plan, label, &mut report.findings);
            check_bytes(plan, label, &mut report.findings);
        };
        // Every fixed algorithm applicable to the shape…
        for algo in CollAlgo::ALL {
            if !CollPlan::applicable(op, algo, members, elems) {
                continue;
            }
            let plan = CollPlan::build(op, algo, members, elems);
            let label = format!("{} {} n={members} elems={elems}", algo.label(), op.label());
            verify(&plan, &label, &mut report);
        }
        // …and the cost-model-selected plan under each capability profile
        // (selection must only ever name an applicable algorithm).
        for (tech, caps, cost) in &profiles {
            let choice = select_algo(op, members, elems, caps, cost, None);
            if !CollPlan::applicable(op, choice.algo, members, elems) {
                report.findings.push(format!(
                    "{tech}: selection chose inapplicable {} for {} n={members} elems={elems}",
                    choice.algo.label(),
                    op.label()
                ));
                continue;
            }
            let plan = CollPlan::build(op, choice.algo, members, elems);
            let label = format!(
                "auto[{tech}]→{} {} n={members} elems={elems}",
                choice.algo.label(),
                op.label()
            );
            verify(&plan, &label, &mut report);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_conformant() {
        let r = coll_check(7, 24);
        assert!(r.is_clean(), "{r}");
        let (plans, sends) = (r.count("schedules verified"), r.count("sends walked"));
        assert!(plans > 100, "corpus too small: {plans} plans");
        assert!(sends > 1000, "corpus too small: {sends} sends");
    }

    #[test]
    fn detects_a_nonspanning_schedule() {
        // A hand-built broken broadcast: the root only reaches member 1.
        let mut plan = CollPlan::build(CollOp::Broadcast { root: 0 }, CollAlgo::Flat, 4, 4);
        plan.sends.retain(|s| s.dst == 1);
        let mut findings = Vec::new();
        check_spanning(&plan, "broken", &mut findings);
        assert!(!findings.is_empty(), "missing members must be flagged");
    }

    #[test]
    fn detects_a_bad_tile() {
        let mut plan = CollPlan::build(CollOp::Allreduce, CollAlgo::Ring, 4, 16);
        plan.sends[0].elems += 1;
        let mut findings = Vec::new();
        check_bytes(&plan, "broken", &mut findings);
        assert!(!findings.is_empty(), "oversized tile must be flagged");
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = coll_check(3, 12);
        let b = coll_check(3, 12);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.findings, b.findings);
    }
}

//! Static conformance analysis for the strategy database.
//!
//! The optimizing engine is only sound if every rearrangement a strategy
//! proposes respects the declared capabilities of the driver beneath it —
//! the paper's "limiting factors — or constraints" (§3). At runtime that
//! guarantee is enforced per-plan by `madeleine::constraints::validate_plan`,
//! which means a buggy (or user-supplied) strategy is only caught when live
//! traffic happens to hit the bad path. `madcheck` moves the check ahead of
//! execution:
//!
//! * for each registered strategy × each driver capability profile
//!   (mx/elan/ib/tcp/shm plus synthetic),
//! * it enumerates a bounded space of synthetic backlogs — multiple flows,
//!   express and rendezvous fragments, partial commits, several traffic
//!   classes — drawn deterministically from a seeded generator,
//! * runs every proposal through `validate_plan` **and** a second,
//!   independent capability pass ([`capcheck`]: gather width, MTU and
//!   driver packet limits, rendezvous-threshold policy),
//! * and reports each violation with a *minimized* counterexample backlog.
//!
//! Nothing here touches the simulator clock or network: the analyzer builds
//! [`madeleine::collect::CollectLayer`] states directly and inspects the
//! plans strategies emit for them.
//!
//! Entry points: [`analyze`] for a whole registry, [`check_spec`] for one
//! strategy × one backlog, [`minimize`] to shrink a failure, and [`RULES`]
//! — the table of sweep rules (retx, metrics, flow, net, prof, coll, diff)
//! that all answer with one [`SweepReport`]. The
//! deliberately broken strategies in [`fixtures`] exist so the analyzer's
//! own failure path stays tested.

pub mod analyzer;
pub mod backlog;
pub mod capcheck;
pub mod collcheck;
pub mod corpus;
pub mod diffcheck;
pub mod fixtures;
pub mod flowcheck;
pub mod metricscheck;
pub mod netcheck;
pub mod profcheck;
pub mod report;
pub mod retxcheck;

pub use analyzer::{analyze, check_plan, check_spec, minimize, AnalyzeOptions, Defect, Failure};
pub use backlog::{BacklogSpec, FragSpec, MsgSpec, RndvPhase, ANALYZED_RAIL};
pub use capcheck::{check_plan_caps, CapViolation};
pub use collcheck::coll_check;
pub use corpus::corpus;
pub use diffcheck::diff_check;
pub use flowcheck::flow_check;
pub use metricscheck::{check_registry, metrics_check};
pub use netcheck::{net_check, verify_rates};
pub use profcheck::prof_check;
pub use report::{Finding, Report, SweepReport};
pub use retxcheck::{check_retransmit, retx_sweep, verify_packets, RetxViolation};

/// One sweep rule: run it for a set of options. (Rules that fix their
/// own sample count say so in their row below.)
pub type Rule = fn(&AnalyzeOptions) -> SweepReport;

/// Every sweep rule, in the order `cargo xtask analyze` runs and prints
/// them after the strategy analyzer ([`analyze`]) itself.
pub const RULES: &[Rule] = &[
    |o| retx_sweep(o.seed, o.samples),
    |_| metrics_check(),
    |o| flow_check(o.seed, o.samples),
    // madnet topology sweep: routed paths + fair-share conservation
    // over the seeded topology corpus.
    |o| net_check(o.seed, o.samples.max(4)),
    // madprof partition sweep: bounded corpus (each sample is a full
    // traced simulation, so the count is fixed rather than tied to
    // `samples`).
    |o| prof_check(o.seed, 8),
    // madcoll schedule sweep: every collective plan in the seeded corpus
    // (and every auto-selected plan per capability profile) must be an
    // acyclic, member-spanning, byte-exact round-gated DAG.
    |o| coll_check(o.seed, o.samples.max(8)),
    // maddiff sweep: self-diffs must be exactly zero, perturbed diffs
    // must keep the delta-partition invariant, and reports must be
    // byte-stable (each sample is two full traced simulations plus a
    // perturbed third, so the count is fixed like prof's).
    |o| diff_check(o.seed, 6),
];

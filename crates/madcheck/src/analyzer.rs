//! The conformance analyzer: replay synthetic backlogs through strategies,
//! double-check every proposal, and shrink whatever fails.

use madeleine::collect::CollectLayer;
use madeleine::config::EngineConfig;
use madeleine::constraints::{validate_plan, PlanViolation};
use madeleine::cost::{cheapest_injection, packet_limit};
use madeleine::plan::TransferPlan;
use madeleine::strategy::{OptContext, Proposals, Strategy, StrategyRegistry};
use nicdrv::{calib, CostModel, DriverCapabilities};
use simnet::{SimTime, Technology};

use crate::backlog::{BacklogSpec, RndvPhase, ANALYZED_RAIL};
use crate::capcheck::{check_plan_caps, CapViolation};
use crate::corpus::corpus;
use crate::report::{Finding, Report};

/// The virtual instant every analysis context is pinned at; later than any
/// spec submission time so ages are non-negative, and constant so runs are
/// reproducible.
pub const ANALYSIS_NOW_NS: u64 = 2_000_000;

/// Which checker rejected a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Defect {
    /// Rejected by `madeleine::constraints::validate_plan`.
    Validation(PlanViolation),
    /// Rejected by the independent capability pass.
    Capability(CapViolation),
}

impl Defect {
    /// Stable label of the defect variant; the minimizer shrinks while
    /// holding this fixed so counterexamples stay on-topic.
    pub fn key(&self) -> &'static str {
        match self {
            Defect::Validation(v) => match v {
                PlanViolation::EmptyPlan => "validation:empty-plan",
                PlanViolation::ZeroLengthChunk => "validation:zero-length-chunk",
                PlanViolation::UnknownChunk => "validation:unknown-chunk",
                PlanViolation::MixedDestinations => "validation:mixed-destinations",
                PlanViolation::WrongRail => "validation:wrong-rail",
                PlanViolation::NonContiguous { .. } => "validation:non-contiguous",
                PlanViolation::Overrun => "validation:overrun",
                PlanViolation::ExpressOrder { .. } => "validation:express-order",
                PlanViolation::RndvBlocked => "validation:rndv-blocked",
                PlanViolation::OverSize { .. } => "validation:oversize",
                PlanViolation::GatherTooWide { .. } => "validation:gather-too-wide",
                PlanViolation::NoInjectionPath { .. } => "validation:no-injection-path",
                PlanViolation::RndvNotNeeded => "validation:rndv-not-needed",
            },
            Defect::Capability(v) => match v {
                CapViolation::PacketExceedsMtu { .. } => "capability:mtu",
                CapViolation::PacketExceedsDriverLimit { .. } => "capability:driver-limit",
                CapViolation::GatherTooWide { .. } => "capability:gather-too-wide",
                CapViolation::NoInjectionPath { .. } => "capability:no-injection-path",
                CapViolation::EagerAboveRndvThreshold { .. } => "capability:eager-above-threshold",
                CapViolation::RequestBelowThreshold { .. } => "capability:request-below-threshold",
            },
        }
    }
}

impl std::fmt::Display for Defect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Defect::Validation(v) => write!(f, "{v}"),
            Defect::Capability(v) => write!(f, "{v}"),
        }
    }
}

/// A rejected plan together with why it was rejected.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The offending plan.
    pub plan: TransferPlan,
    /// The first defect found.
    pub defect: Defect,
}

/// Run both checkers on one plan; `None` means the plan conforms.
pub fn check_plan(
    plan: &TransferPlan,
    collect: &CollectLayer,
    caps: &DriverCapabilities,
    wire_mtu: u64,
    rndv_threshold: u64,
) -> Option<Defect> {
    if let Err(v) = validate_plan(plan, collect, caps, wire_mtu) {
        return Some(Defect::Validation(v));
    }
    if let Err(v) = check_plan_caps(plan, collect, caps, wire_mtu, rndv_threshold) {
        return Some(Defect::Capability(v));
    }
    None
}

/// The effective eager→rendezvous switch point for a profile under a
/// config, mirroring the engine's per-rail resolution.
pub fn effective_rndv_threshold(cfg: &EngineConfig, caps: &DriverCapabilities) -> u64 {
    cfg.rndv_threshold.unwrap_or(caps.rndv_threshold_hint)
}

/// Outcome of replaying one backlog through one strategy.
#[derive(Debug)]
pub struct CheckOutcome {
    /// First non-conforming proposal, if any.
    pub failure: Option<Failure>,
    /// Proposals the strategy emitted.
    pub plans: usize,
}

/// Materialize `spec`, let `strategy` propose plans for it, and check every
/// proposal, injected the way selection would inject it: in the form
/// [`cheapest_injection`] picks for its chunk list (by copy where it picks
/// none, which both checkers must then refuse). `validate_plan` judges the
/// list, `check_plan_caps` the pick — the pricing function is never its own
/// judge. Pure with respect to simulator state: no clock, no network.
pub fn check_spec(
    strategy: &dyn Strategy,
    spec: &BacklogSpec,
    caps: &DriverCapabilities,
    cost: &CostModel,
    wire_mtu: u64,
    cfg: &EngineConfig,
) -> CheckOutcome {
    let mut collect = spec.build();
    let groups = collect.collect_candidates(ANALYZED_RAIL, cfg.lookahead_window, |_, _| true);
    if groups.is_empty() {
        return CheckOutcome {
            failure: None,
            plans: 0,
        };
    }
    let ctx = OptContext {
        now: SimTime::from_nanos(ANALYSIS_NOW_NS),
        channel: ANALYZED_RAIL,
        caps,
        cost,
        config: cfg,
        groups: &groups,
        packet_limit: packet_limit(caps, wire_mtu),
        rail_count: 1,
        health_penalty: 1.0,
    };
    let mut proposals = Proposals::new();
    strategy.propose(&ctx, &mut proposals);
    let plans = proposals.len();
    let threshold = effective_rndv_threshold(cfg, caps);
    for plan in proposals.to_plans() {
        // A list the collect layer cannot stamp is unpriced, and vetoed.
        let framing = plan.framing(|c| collect.header(c));
        let bytes = framing.map(|framing| plan.payload_bytes() + framing);
        let price =
            |bytes| cheapest_injection(caps, cost, plan.chunk_count(), bytes, cfg.enable_gather);
        let how = bytes.and_then(price);
        let plan = plan.injected(how.is_none_or(|how| how.linearize));
        // Selection's first check, before any constraint: the engine sends
        // a winner on the rail it is scheduling, so a plan must name it.
        let defect = if plan.channel == ctx.channel {
            check_plan(&plan, &collect, caps, wire_mtu, threshold)
        } else {
            Some(Defect::Validation(PlanViolation::WrongRail))
        };
        if let Some(defect) = defect {
            return CheckOutcome {
                failure: Some(Failure { plan, defect }),
                plans,
            };
        }
    }
    CheckOutcome {
        failure: None,
        plans,
    }
}

/// Greedily shrink a failing spec while the strategy keeps producing the
/// same defect class: drop whole messages, drop trailing fragments, clear
/// pre-commits and handshake phases, then halve fragment lengths. Runs to a
/// fixpoint; deterministic.
pub fn minimize(
    strategy: &dyn Strategy,
    spec: &BacklogSpec,
    caps: &DriverCapabilities,
    cost: &CostModel,
    wire_mtu: u64,
    cfg: &EngineConfig,
    key: &str,
) -> BacklogSpec {
    let still_fails = |s: &BacklogSpec| {
        check_spec(strategy, s, caps, cost, wire_mtu, cfg)
            .failure
            .is_some_and(|f| f.defect.key() == key)
    };
    let mut best = spec.clone();
    loop {
        let mut improved = false;

        // Drop whole messages.
        let mut i = 0;
        while i < best.msgs.len() {
            if best.msgs.len() > 1 {
                let mut cand = best.clone();
                cand.msgs.remove(i);
                if still_fails(&cand) {
                    best = cand;
                    improved = true;
                    continue; // same index now holds the next message
                }
            }
            i += 1;
        }

        for mi in 0..best.msgs.len() {
            // Drop trailing fragments.
            while best.msgs[mi].frags.len() > 1 {
                let mut cand = best.clone();
                cand.msgs[mi].frags.pop();
                if still_fails(&cand) {
                    best = cand;
                    improved = true;
                } else {
                    break;
                }
            }
            // Clear snapshot state.
            if best.msgs[mi].precommit > 0 {
                let mut cand = best.clone();
                cand.msgs[mi].precommit = 0;
                if still_fails(&cand) {
                    best = cand;
                    improved = true;
                }
            }
            if !matches!(best.msgs[mi].rndv_phase, RndvPhase::Pending) {
                let mut cand = best.clone();
                cand.msgs[mi].rndv_phase = RndvPhase::Pending;
                if still_fails(&cand) {
                    best = cand;
                    improved = true;
                }
            }
            // Shrink fragment lengths: jump to 1, else halve.
            for fi in 0..best.msgs[mi].frags.len() {
                while best.msgs[mi].frags[fi].len > 1 {
                    let mut cand = best.clone();
                    let len = cand.msgs[mi].frags[fi].len;
                    cand.msgs[mi].frags[fi].len = if len > 2 { len / 2 } else { 1 };
                    let mut one = best.clone();
                    one.msgs[mi].frags[fi].len = 1;
                    if still_fails(&one) {
                        best = one;
                        improved = true;
                        break;
                    } else if still_fails(&cand) {
                        best = cand;
                        improved = true;
                    } else {
                        break;
                    }
                }
            }
        }

        if !improved {
            return best;
        }
    }
}

/// Options for a full-registry analysis run.
#[derive(Clone, Debug)]
pub struct AnalyzeOptions {
    /// Seed for the corpus generator.
    pub seed: u64,
    /// Sampled backlogs per capability profile (templates are always
    /// included on top).
    pub samples: usize,
    /// Engine configuration the strategies run under.
    pub config: EngineConfig,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            seed: 0x6D61_6463_6865_636B, // "madcheck"
            samples: 64,
            config: EngineConfig::default(),
        }
    }
}

/// Capability profiles the analyzer sweeps: every real technology preset
/// plus the synthetic test profile.
pub fn profiles() -> Vec<Technology> {
    let mut v = calib::REAL_TECHNOLOGIES.to_vec();
    v.push(Technology::Synthetic);
    v
}

/// Check every strategy in `registry` against every driver capability
/// profile over the bounded corpus; failures are minimized before they are
/// reported. One finding is reported per strategy × profile (the first),
/// keeping reports readable while a single bug fans out over many specs.
pub fn analyze(registry: &StrategyRegistry, opts: &AnalyzeOptions) -> Report {
    let mut report = Report::new(registry.names().len());
    for (ti, tech) in profiles().into_iter().enumerate() {
        let caps = calib::capabilities(tech);
        let params = calib::params(tech);
        let cost = CostModel::from_params(&params);
        let wire_mtu = params.mtu;
        let threshold = effective_rndv_threshold(&opts.config, &caps);
        let specs = corpus(
            opts.seed
                .wrapping_add(ti as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            threshold,
            &caps,
            wire_mtu,
            opts.samples,
        );
        report.profiles += 1;
        for strategy in registry.iter() {
            for spec in &specs {
                report.cases += 1;
                let outcome = check_spec(strategy, spec, &caps, &cost, wire_mtu, &opts.config);
                report.plans += outcome.plans;
                if let Some(failure) = outcome.failure {
                    let key = failure.defect.key();
                    let minimized =
                        minimize(strategy, spec, &caps, &cost, wire_mtu, &opts.config, key);
                    // Re-derive the defect on the minimized spec so the
                    // reported plan matches the reported backlog.
                    let shrunk =
                        check_spec(strategy, &minimized, &caps, &cost, wire_mtu, &opts.config)
                            .failure
                            .unwrap_or(failure);
                    report.findings.push(Finding {
                        strategy: strategy.name(),
                        tech,
                        defect: shrunk.defect,
                        plan: format!("{:?}", shrunk.plan),
                        spec: minimized,
                    });
                    break; // next strategy; one finding per strategy × profile
                }
            }
        }
    }
    report
}

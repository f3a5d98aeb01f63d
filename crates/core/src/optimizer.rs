//! The optimizer's decision procedures: plan selection under a
//! rearrangement budget, and the submit-time activation policy (send now,
//! wait for NIC idle, or arm a Nagle-style delay) — plus `Optimizer`,
//! the scheduler state Figure 1's middle box owns between activations.
//!
//! Candidate order is owned by the collect layer's madflow machinery
//! ([`crate::flowmgr`]): under the default pack-order fairness the groups
//! handed to `select_plan` enumerate flows in ascending id exactly as the
//! historical full-table walk did, while DRR fairness rotates flows within
//! each class and splits the lookahead window by class weight *before*
//! strategies ever see the backlog. Strategies therefore stay
//! order-preserving and fairness lives in one place.

// madlint: file: hot-path
// madlint: file: scoring
// madlint: file: deterministic-output
// madlint: file: trace-covered

use nicdrv::Driver;
use simnet::{SimCtx, SimDuration, TimerId};

use crate::api::{ADAPTIVE_TAG, NAGLE_TAG};
use crate::collect::CollectLayer;
use crate::config::EngineConfig;
use crate::constraints::{validate_chunks, validate_request, PlanCoverage, PlanViolation};
use crate::cost::{
    beats, cheapest_injection, chunks_value, density, packet_limit, Injection, RequestCost,
    ScoredPlan,
};
use crate::ids::{FlowId, TrafficClass};
use crate::plan::{Body, PlanRef, WindowGroups};
use crate::policy::{PolicyKind, RailPolicy};
use crate::proto::framing_of;
use crate::reliability::Reliability;
use crate::strategy::{OptContext, Proposals, StrategyRegistry};
use crate::trace::{encode_score, EngineEvent, EventSink};
use crate::transfer::Rail;

/// Backlog payload size (bytes) above which the Nagle delay is skipped
/// and the optimizer runs immediately.
const NAGLE_THRESHOLD: u64 = 1024;

/// Epoch length of the adaptive policy's class↔channel reassignment.
const ADAPTIVE_EPOCH: SimDuration = SimDuration::from_micros(200);

/// Result of one plan-selection pass.
#[derive(Debug)]
pub struct SelectionOutcome {
    /// The winning plan, if any proposal survived validation and scoring.
    pub best: Option<ScoredPlan>,
    /// Plans scored (counted against the rearrangement budget).
    pub evaluated: usize,
    /// Proposals rejected by the constraint checker.
    pub rejected: usize,
    /// Proposals skipped because the budget ran out.
    pub skipped: usize,
}

/// What a selection pass works in, kept by its caller from pass to pass:
/// the proposals' chunk arena, the in-plan coverage validation writes, and
/// the verdict on every distinct chunk list judged so far in the pass. A
/// pass leaves nothing behind that the next one reads, so one scratch
/// serves any sequence of windows; after the first few it costs a pass no
/// allocation, however many proposals the strategies make.
#[derive(Debug, Default)]
pub(crate) struct SelectionScratch {
    proposals: Proposals,
    coverage: PlanCoverage,
    judged: Vec<JudgedList>,
}

/// The verdict on one chunk list toward one destination, on the rail and
/// over the window and backlog of the pass: everything there is to say
/// about a data proposal. Strategies at times propose the same packet
/// (`reorder-sjf` reproduces window order on a backlog uniform in size);
/// each copy is a proposal, the list is judged once.
#[derive(Debug)]
struct JudgedList {
    /// The first proposal that carried the list.
    first: usize,
    /// The value of a valid list ([`chunks_value`]) and the cheapest way
    /// the rail admits of injecting it, or the first constraint it breaks.
    verdict: Result<(f64, Injection), PlanViolation>,
}

/// What the pass already knows of a data proposal's chunk list.
#[derive(Clone, Copy, Debug)]
enum Known {
    /// An earlier proposal carried the same list toward the same node: its
    /// verdict is `judged[at]`.
    Repeat(usize),
    /// The list begins a longer one an earlier proposal carried toward the
    /// same node, which is valid — so is the list (`aggregate-gather`'s cut
    /// of `aggregate`'s fill): a chunk's checks read only the chunks before
    /// it, and a shorter packet fits where a longer one does. What is left
    /// to count is its size.
    Within,
}

/// What the judged lists of the pass say of data proposal `plan`'s list —
/// a repeat before a prefix, whose verdict would need pricing again.
// madlint: allow(linear-scan) — one entry per distinct list of the pass, a
// handful; two lists mostly differ in length or in their first chunk
fn judged_before(judged: &[JudgedList], proposals: &Proposals, plan: PlanRef<'_>) -> Option<Known> {
    let mut within = None;
    for (at, j) in judged.iter().enumerate() {
        let first = proposals.get(j.first);
        if first.dst != plan.dst || !first.chunks().starts_with(plan.chunks()) {
            continue;
        }
        if first.chunk_count() == plan.chunk_count() {
            return Some(Known::Repeat(at));
        }
        if j.verdict.is_ok() && plan.chunk_count() > 0 {
            within = Some(Known::Within);
        }
    }
    within
}

/// The scratch of a rail activation: the window's groups and what the
/// selection passes over them work in.
#[derive(Debug, Default)]
pub(crate) struct PassScratch {
    pub(crate) groups: WindowGroups,
    pub(crate) selection: SelectionScratch,
}

/// Collect proposals from every strategy, validate each, score up to
/// `budget` of them, and return the best.
///
/// Determinism: proposals are considered in registry order; ties in score
/// keep the earlier proposal. The budget bounds *scoring* work — the
/// quantity the paper proposes to limit (§4 future work) — so a budget of
/// `k` means at most `k` cost-model evaluations per pass.
pub fn select_plan(
    registry: &StrategyRegistry,
    ctx: &OptContext<'_>,
    collect: &CollectLayer,
    wire_mtu: u64,
    budget: usize,
) -> SelectionOutcome {
    let mut sink = EventSink::disabled();
    select_plan_traced(registry, ctx, collect, wire_mtu, budget, &mut sink, 0)
}

/// [`select_plan`] with the optimizer's decision log recorded into `sink`:
/// one `PlanProposed` per proposal (budget-skipped proposals get nothing
/// else), then its `PlanVetoed` or `PlanScored`, and finally `PlanWon` for
/// the surviving best. All decision events carry `activation` so the
/// per-activation contest can be reconstructed from the ring.
pub fn select_plan_traced(
    registry: &StrategyRegistry,
    ctx: &OptContext<'_>,
    collect: &CollectLayer,
    wire_mtu: u64,
    budget: usize,
    sink: &mut EventSink,
    activation: u64,
) -> SelectionOutcome {
    let mut scratch = SelectionScratch::default();
    select_plan_in(
        &mut scratch,
        registry,
        ctx,
        collect,
        wire_mtu,
        budget,
        sink,
        activation,
    )
}

/// The selection routine: [`select_plan_traced`] in the caller's
/// `scratch`. Proposals are validated and scored where the strategies
/// wrote them; only the winner becomes an owned plan.
///
/// A data proposal is a chunk list, and everything about it depends on the
/// rail, the destination and the list alone, so it is computed once per
/// distinct list of the pass: that every chunk is live, contiguous,
/// ungated and in express order, that the packet fits, what the share of
/// each message it delivers is worth — and how it goes out, by copy or as
/// a gather list, by PIO or DMA, which is the cost model's choice
/// ([`cheapest_injection`]; a list the rail cannot inject either way is
/// vetoed). A list that begins a valid one of the pass is valid and is only
/// sized, not checked again. The winner's `linearize` records that choice.
/// The outcome, the counters (a repeated list is still a plan evaluated)
/// and the decision log are those of judging every proposal from scratch,
/// in both forms,
/// with [`validate_plan`](crate::constraints::validate_plan) and
/// [`score_plan`](crate::cost::score_plan), and keeping the cheaper.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_plan_in(
    scratch: &mut SelectionScratch,
    registry: &StrategyRegistry,
    ctx: &OptContext<'_>,
    collect: &CollectLayer,
    wire_mtu: u64,
    budget: usize,
    sink: &mut EventSink,
    activation: u64,
) -> SelectionOutcome {
    let SelectionScratch {
        proposals,
        coverage,
        judged,
    } = scratch;
    proposals.clear();
    judged.clear();
    registry.propose_all(ctx, proposals);
    let size_limit = packet_limit(ctx.caps, wire_mtu);
    let mut request_cost = None;
    // The best so far: its place among the proposals, score, busy time,
    // and whether it goes out by copy.
    let mut best: Option<(usize, f64, SimDuration, bool)> = None;
    let mut evaluated = 0usize;
    let mut rejected = 0usize;
    let mut skipped = 0usize;
    for (at, plan) in proposals.iter().enumerate() {
        if sink.is_enabled() {
            sink.push(
                ctx.now,
                EngineEvent::PlanProposed {
                    activation,
                    strategy: plan.strategy,
                    chunks: plan.chunk_count() as u16,
                    bytes: plan.payload_bytes(),
                },
            );
        }
        if evaluated >= budget {
            skipped += 1;
            continue;
        }
        let hints = proposals.hints(at);
        // Score, busy time, and whether the packet goes out by copy.
        let verdict = match plan.body {
            // The engine sends the winner on the rail it is scheduling,
            // whatever the plan says: a plan for another rail would be
            // held to that rail's pins and sent past them on this one.
            _ if plan.channel != ctx.channel => Err(PlanViolation::WrongRail),
            Body::RndvRequest { flow, seq, frag } => {
                let frag = (flow, seq, frag);
                validate_request(plan.dst, frag, collect).map(|()| {
                    let cost = request_cost.get_or_insert_with(|| RequestCost::on(ctx));
                    (
                        cost.score(plan.dst, frag, hints[0], ctx),
                        cost.est_busy,
                        false,
                    )
                })
            }
            Body::Data { chunks, .. } => {
                let list = match judged_before(judged, proposals, plan) {
                    Some(Known::Repeat(list)) => list,
                    known => {
                        let (rail, dst, n) = (plan.channel, plan.dst, chunks.len());
                        let checked = match known {
                            Some(Known::Within) => {
                                let payload = chunks.iter().map(|c| u64::from(c.len)).sum::<u64>();
                                Ok(payload + framing_of(chunks))
                            }
                            _ => validate_chunks(rail, dst, chunks, collect, size_limit, coverage),
                        };
                        let verdict = checked.and_then(|bytes| {
                            let gather = ctx.config.enable_gather;
                            let how = cheapest_injection(ctx.caps, ctx.cost, n, bytes, gather)
                                .ok_or(PlanViolation::NoInjectionPath { bytes })?;
                            Ok((chunks_value(dst, chunks, hints, ctx), how))
                        });
                        judged.push(JudgedList { first: at, verdict });
                        judged.len() - 1
                    }
                };
                let priced = judged[list].verdict.clone();
                priced.map(|(value, how)| (density(value, how.busy, ctx), how.busy, how.linearize))
            }
        };
        let (score, est_busy, by_copy) = match verdict {
            Ok(scored) => scored,
            Err(violation) => {
                sink.push(
                    ctx.now,
                    EngineEvent::PlanVetoed {
                        activation,
                        strategy: plan.strategy,
                        violation,
                    },
                );
                rejected += 1;
                continue;
            }
        };
        if sink.is_enabled() {
            let (score_num, score_den) = encode_score(score, est_busy.as_nanos());
            sink.push(
                ctx.now,
                EngineEvent::PlanScored {
                    activation,
                    strategy: plan.strategy,
                    score_num,
                    score_den,
                },
            );
        }
        evaluated += 1;
        if best.is_none_or(|(_, incumbent, ..)| beats(score, incumbent)) {
            best = Some((at, score, est_busy, by_copy));
        }
    }
    let best = best.map(|(at, score, est_busy, by_copy)| ScoredPlan {
        plan: proposals.get(at).to_plan().injected(by_copy),
        score,
        est_busy,
    });
    if let Some(b) = &best {
        if sink.is_enabled() {
            let (score_num, score_den) = encode_score(b.score, b.est_busy.as_nanos());
            sink.push(
                ctx.now,
                EngineEvent::PlanWon {
                    activation,
                    strategy: b.plan.strategy,
                    score_num,
                    score_den,
                },
            );
        }
    }
    SelectionOutcome {
        best,
        evaluated,
        rejected,
        skipped,
    }
}

/// What to do when the application submits a message and at least one
/// eligible NIC is idle (§3: "the scheduler may send packets as they become
/// available ... or may artificially delay them for a short time to
/// increase the potential of interesting aggregations").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitAction {
    /// Run the optimizer immediately.
    OptimizeNow,
    /// Arm a Nagle timer for the given delay.
    ArmNagle(SimDuration),
    /// Do nothing: either the NIC is busy (idle event will trigger us) or a
    /// Nagle timer is already pending.
    Wait,
}

/// Decide the submit-time action.
pub fn submit_action(
    cfg: &EngineConfig,
    any_idle_rail: bool,
    backlog_bytes: u64,
    nagle_armed: bool,
) -> SubmitAction {
    if !any_idle_rail {
        return SubmitAction::Wait;
    }
    if cfg.nagle_delay.is_zero() || backlog_bytes >= NAGLE_THRESHOLD {
        return SubmitAction::OptimizeNow;
    }
    if nagle_armed {
        SubmitAction::Wait
    } else {
        SubmitAction::ArmNagle(cfg.nagle_delay)
    }
}

/// The scheduler's state between activations: the strategy database, the
/// rail-eligibility policy, activation ids, and the Nagle and
/// adaptive-epoch timers.
// madlint: send-sync — sharded across madpar workers with the engine core
pub(crate) struct Optimizer {
    registry: StrategyRegistry,
    policy: RailPolicy,
    next_activation: u64,
    nagle_timer: Option<TimerId>,
    /// Consecutive traffic-less adaptive epochs.
    adaptive_idle_epochs: u32,
    /// The epoch timer is asleep (so an otherwise-idle simulation can
    /// reach quiescence); the next submission re-arms it.
    adaptive_sleeping: bool,
    /// What activations work in; lent to one at a time.
    scratch: PassScratch,
}

impl Optimizer {
    pub(crate) fn new(registry: StrategyRegistry, policy: RailPolicy) -> Self {
        Optimizer {
            registry,
            policy,
            next_activation: 0,
            nagle_timer: None,
            adaptive_idle_epochs: 0,
            adaptive_sleeping: true,
            scratch: PassScratch::default(),
        }
    }

    /// Lend the pass scratch to an activation (which runs with the engine
    /// borrowed mutably, so it cannot work in a field of it); what comes
    /// back through [`Optimizer::return_scratch`] serves the next one.
    pub(crate) fn lend_scratch(&mut self) -> PassScratch {
        std::mem::take(&mut self.scratch)
    }

    /// Take the pass scratch back from the activation that borrowed it.
    pub(crate) fn return_scratch(&mut self, scratch: PassScratch) {
        self.scratch = scratch;
    }

    pub(crate) fn registry(&self) -> &StrategyRegistry {
        &self.registry
    }

    pub(crate) fn policy(&self) -> &RailPolicy {
        &self.policy
    }

    /// For pinning, runtime switches and traffic accounting.
    pub(crate) fn policy_mut(&mut self) -> &mut RailPolicy {
        &mut self.policy
    }

    /// A fresh activation id (correlates one activation's decision events).
    pub(crate) fn begin_activation(&mut self) -> u64 {
        self.next_activation += 1;
        self.next_activation - 1
    }

    /// Eager→rendezvous switch point for a flow: the configured
    /// threshold, else the smallest hint over the live rails the policy
    /// lets the flow use.
    pub(crate) fn rndv_threshold_for(
        &self,
        cfg: &EngineConfig,
        flow: FlowId,
        class: TrafficClass,
        rails: &[Rail],
        rel: &Reliability,
    ) -> u64 {
        if let Some(t) = cfg.rndv_threshold {
            return t;
        }
        let usable = || {
            rel.live_rails()
                .filter(|&r| self.policy.eligible(flow, class, r))
        };
        let hint = usable()
            .map(|r| rails[r].driver.capabilities().rndv_threshold_hint)
            .min()
            .unwrap_or(u64::MAX);
        if hint == u64::MAX {
            return hint;
        }
        // madnet: under fabric congestion, gate eager sends earlier — a
        // rendezvous round-trip is cheap insurance against stuffing more
        // bytes into an already-marking switch queue. Scaled by the
        // *least* congested eligible rail so a clean rail keeps the full
        // eager window (congestion penalty is 1.0 when the EWMA is zero,
        // leaving loss-only scenarios untouched).
        let cong = usable()
            .map(|r| rel.rails()[r].congestion_penalty())
            .fold(f64::INFINITY, f64::min);
        if cong.is_finite() && cong > 1.0 {
            ((hint as f64 / cong) as u64).max(1)
        } else {
            hint
        }
    }

    /// Engine start, or a submission arrived: wake a sleeping
    /// adaptive-epoch timer (it starts out asleep).
    pub(crate) fn wake(&mut self, ctx: &mut SimCtx<'_>) {
        if self.policy.kind() == PolicyKind::Adaptive && self.adaptive_sleeping {
            self.adaptive_sleeping = false;
            self.adaptive_idle_epochs = 0;
            ctx.set_timer(ADAPTIVE_EPOCH, ADAPTIVE_TAG);
        }
    }

    /// The adaptive-policy epoch ended: rebalance, then re-arm — unless
    /// this was the second silent epoch, after which the timer sleeps so
    /// the event queue can drain.
    pub(crate) fn on_epoch(&mut self, ctx: &mut SimCtx<'_>) {
        let traffic = self.policy.epoch_traffic();
        self.policy.rebalance();
        self.adaptive_idle_epochs = if traffic == 0 {
            self.adaptive_idle_epochs + 1
        } else {
            0
        };
        if self.adaptive_idle_epochs >= 2 {
            self.adaptive_sleeping = true;
        } else {
            ctx.set_timer(ADAPTIVE_EPOCH, ADAPTIVE_TAG);
        }
    }

    /// Apply the submit-time activation policy ([`submit_action`]),
    /// arming the Nagle timer when it says so. True when the optimizer
    /// should run now.
    pub(crate) fn on_submit(
        &mut self,
        ctx: &mut SimCtx<'_>,
        cfg: &EngineConfig,
        any_idle_rail: bool,
        backlog_bytes: u64,
    ) -> bool {
        let armed = self.nagle_timer.is_some();
        match submit_action(cfg, any_idle_rail, backlog_bytes, armed) {
            SubmitAction::OptimizeNow => true,
            SubmitAction::ArmNagle(delay) => {
                self.nagle_timer = Some(ctx.set_timer(delay, NAGLE_TAG));
                false
            }
            SubmitAction::Wait => false,
        }
    }

    /// Forget the Nagle timer (it fired, or a flush overtakes it);
    /// returns it so a flush can cancel it.
    pub(crate) fn disarm_nagle(&mut self) -> Option<TimerId> {
        self.nagle_timer.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChannelId, FlowId, TrafficClass};
    use crate::message::{MessageBuilder, PackMode};
    use crate::plan::{PlanBody, PlannedChunk, TransferPlan};
    use crate::strategy::{OptContext, Strategy};
    use nicdrv::{calib, CostModel, DriverCapabilities};
    use simnet::{NetworkParams, NodeId, SimTime, Technology};

    fn backlog(n_msgs: usize, size: usize) -> CollectLayer {
        let mut c = CollectLayer::new();
        let f = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
        for _ in 0..n_msgs {
            let parts = MessageBuilder::new()
                .pack(&vec![7u8; size], PackMode::Cheaper)
                .build_parts();
            c.submit(f, parts, SimTime::ZERO, 1 << 30);
        }
        c
    }

    /// One pass of the standard registry over `collect`'s window at t = 10 µs:
    /// the untraced wrapper, or activation 9 of the decision log in `sink`.
    fn pass(
        collect: &mut CollectLayer,
        caps: &DriverCapabilities,
        cost: &CostModel,
        packet_limit: u64,
        budget: usize,
        sink: Option<&mut EventSink>,
    ) -> SelectionOutcome {
        let cfg = EngineConfig::default();
        let registry = StrategyRegistry::standard(&cfg);
        let groups = collect.collect_candidates(ChannelId(0), cfg.lookahead_window, |_, _| true);
        let ctx = OptContext {
            now: SimTime::from_nanos(10_000),
            channel: ChannelId(0),
            caps,
            cost,
            config: &cfg,
            groups: &groups,
            packet_limit,
            rail_count: 1,
            health_penalty: 1.0,
        };
        match sink {
            Some(sink) => select_plan_traced(&registry, &ctx, collect, 1 << 20, budget, sink, 9),
            None => select_plan(&registry, &ctx, collect, 1 << 20, budget),
        }
    }

    fn run_selection(collect: &mut CollectLayer, budget: usize) -> SelectionOutcome {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        pass(collect, &caps, &cost, 1 << 16, budget, None)
    }

    #[test]
    fn multi_flow_backlog_selects_aggregation() {
        let mut c = backlog(6, 64);
        let out = run_selection(&mut c, 256);
        let best = out.best.expect("a plan must be selected");
        assert!(
            best.plan.chunk_count() >= 2,
            "expected aggregation, got {best:?}"
        );
        assert!(out.evaluated >= 2);
        assert_eq!(out.rejected, 0);
    }

    #[test]
    fn single_message_backlog_selects_something() {
        let mut c = backlog(1, 64);
        let out = run_selection(&mut c, 256);
        let best = out.best.expect("fifo fallback must fire");
        assert_eq!(best.plan.chunk_count(), 1);
    }

    #[test]
    fn empty_backlog_selects_nothing() {
        let mut c = CollectLayer::new();
        let out = run_selection(&mut c, 256);
        assert!(out.best.is_none());
        assert_eq!(out.evaluated, 0);
    }

    #[test]
    fn budget_bounds_evaluations() {
        let mut c = backlog(10, 64);
        let out = run_selection(&mut c, 1);
        assert_eq!(out.evaluated, 1);
        assert!(out.skipped > 0, "other proposals should be skipped");
        assert!(out.best.is_some(), "budget 1 still returns the first plan");
    }

    #[test]
    fn traced_selection_records_the_decision_log() {
        let mut c = backlog(6, 64);
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let mut sink = EventSink::with_capacity(256);
        let out = pass(&mut c, &caps, &cost, 1 << 16, 256, Some(&mut sink));
        let best = out.best.expect("a plan must be selected");
        let proposed = sink.count_matching(|e| matches!(e, EngineEvent::PlanProposed { .. }));
        let scored = sink.count_matching(|e| matches!(e, EngineEvent::PlanScored { .. }));
        let vetoed = sink.count_matching(|e| matches!(e, EngineEvent::PlanVetoed { .. }));
        let won = sink.count_matching(|e| matches!(e, EngineEvent::PlanWon { .. }));
        assert_eq!(proposed, out.evaluated + out.rejected + out.skipped);
        assert_eq!(scored, out.evaluated);
        assert_eq!(vetoed, out.rejected);
        assert_eq!(won, 1);
        // Every decision event belongs to activation 9; scores are
        // positive ratios; the winner matches the outcome.
        for rec in sink.iter() {
            assert_eq!(rec.event.activation(), Some(9));
            if let EngineEvent::PlanScored { score_den, .. } = rec.event {
                assert!(score_den > 0);
            }
            if let EngineEvent::PlanWon { strategy, .. } = rec.event {
                assert_eq!(strategy, best.plan.strategy);
            }
        }
        // The untraced wrapper picks the same plan.
        let plain = run_selection(&mut c, 256);
        assert_eq!(plain.best.unwrap().plan, best.plan);
    }

    /// [`pass`] in 1 200-byte packets over one BULK flow of 900/700/300/64-byte
    /// messages and one CONTROL flow of 40/24-byte messages to the same
    /// node; returns the outcome and the `strategy:chunks` of every
    /// `PlanProposed` record.
    fn bulk_and_control_pass(
        caps: &DriverCapabilities,
        cost: &CostModel,
    ) -> (SelectionOutcome, String) {
        let mut c = CollectLayer::new();
        let bulk = c.open_flow(NodeId(1), TrafficClass::BULK);
        let control = c.open_flow(NodeId(1), TrafficClass::CONTROL);
        let flows = [bulk, bulk, bulk, bulk, control, control];
        for (flow, size) in flows.into_iter().zip([900usize, 700, 300, 64, 40, 24]) {
            let parts = MessageBuilder::new()
                .pack(&vec![7u8; size], PackMode::Cheaper)
                .build_parts();
            c.submit(flow, parts, SimTime::ZERO, 1 << 30);
        }
        let mut sink = EventSink::with_capacity(256);
        let out = pass(&mut c, caps, cost, 1200, 256, Some(&mut sink));
        let mut proposed = Vec::new();
        for rec in sink.iter() {
            if let EngineEvent::PlanProposed {
                strategy, chunks, ..
            } = rec.event
            {
                proposed.push(format!("{strategy}:{chunks}"));
            }
        }
        (out, proposed.join(" "))
    }

    #[test]
    fn every_strategy_is_consulted_whatever_the_rail_can_inject() {
        // No PIO and a one-entry gather list: a multi-chunk packet cannot
        // go out zero-copy, so the cost model has only the copy to price —
        // for every strategy's list alike.
        let mut dma_only = calib::synthetic_capabilities();
        dma_only.supports_pio = false;
        dma_only.pio_max_bytes = 0;
        dma_only.max_gather_entries = 1;
        let synthetic = CostModel::from_params(&NetworkParams::synthetic());
        // TCP never switches to rendezvous: `rndv` is registered, walks an
        // empty request list and leaves the contest to the other three.
        let tcp = calib::capabilities(Technology::TcpEthernet);
        assert_eq!(tcp.rndv_threshold_hint, u64::MAX);
        let tcp_cost = CostModel::from_params(&calib::params(Technology::TcpEthernet));
        for (caps, cost, by_copy) in [(&dma_only, &synthetic, true), (&tcp, &tcp_cost, false)] {
            let (out, proposed) = bulk_and_control_pass(caps, cost);
            assert_eq!(proposed, "aggregate:2 reorder-sjf:5 fifo:1");
            // All three are priced: without PIO or a gather list a
            // multi-chunk packet goes out as one linearized segment.
            assert_eq!((out.evaluated, out.rejected, out.skipped), (3, 0, 0));
            // Shortest-first puts both CONTROL messages and the two short
            // BULK ones in the packet whole: about 17.4 weighted messages
            // for the same busy time against 0.7 for `aggregate`'s pack
            // order.
            let best = out.best.expect("a plan must be selected").plan;
            assert_eq!(best.strategy, "reorder-sjf", "{:?}", caps.tech);
            assert_eq!(best.linearized(), by_copy, "{:?}", caps.tech);
        }
    }

    /// A strategy whose only proposal names a message nobody submitted.
    struct Stray;

    impl Strategy for Stray {
        fn name(&self) -> &'static str {
            "stray"
        }
        fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
            let stray = PlannedChunk {
                flow: FlowId(0),
                seq: 9_999,
                frag: 0,
                offset: 0,
                len: 8,
            };
            out.push_data(ctx.channel, NodeId(1), &[stray], "stray");
        }
    }

    /// Selection as it read before the window was indexed, asked about
    /// both injection modes of every proposal: validate with a fresh
    /// scratch, score with one front-to-back walk of the window per chunk,
    /// keep the cheaper mode (the gather list on a tie). Returns (winner,
    /// score, est_busy) and the three counters.
    #[allow(clippy::type_complexity)]
    fn reference_select(
        registry: &StrategyRegistry,
        ctx: &OptContext<'_>,
        collect: &CollectLayer,
        wire_mtu: u64,
        budget: usize,
    ) -> (Option<(TransferPlan, f64, SimDuration)>, [usize; 3]) {
        let mut proposals = Proposals::new();
        registry.propose_all(ctx, &mut proposals);
        let mut best: Option<(TransferPlan, f64, SimDuration)> = None;
        let [mut evaluated, mut rejected, mut skipped] = [0usize; 3];
        for plan in proposals.to_plans() {
            if evaluated >= budget {
                skipped += 1;
                continue;
            }
            let Ok((plan, est_busy)) = reference_mode(plan, ctx, collect, wire_mtu) else {
                rejected += 1;
                continue;
            };
            let busy_ns = est_busy.as_nanos().max(1) as f64 * ctx.health_penalty.max(1.0);
            let score = match &plan.body {
                // Class-weighted messages delivered: each chunk the share
                // of its message's unsent bytes it carries.
                PlanBody::Data { chunks, .. } => {
                    let mut value = 0.0;
                    for c in chunks {
                        let cand = ctx
                            .groups
                            .iter()
                            .flat_map(|g| g.candidates.iter())
                            .find(|k| k.flow == c.flow && k.seq == c.seq && k.frag == c.frag);
                        if let Some(cand) = cand {
                            let share = c.len as f64 / cand.msg_remaining.max(1) as f64;
                            value += cand.class.urgency_weight() * share;
                        }
                    }
                    value / busy_ns
                }
                // Its message's class weight per handshake.
                PlanBody::RndvRequest { flow, seq, frag } => {
                    let weight = ctx
                        .groups
                        .iter()
                        .flat_map(|g| g.rndv.iter())
                        .find(|r| r.flow == *flow && r.seq == *seq && r.frag == *frag)
                        .map_or(0.0, |r| r.class.urgency_weight());
                    let bytes = crate::proto::CONTROL_PACKET_BYTES;
                    let handshake = crate::cost::one_way(ctx.caps, ctx.cost, bytes) * 2;
                    weight / handshake.as_nanos().max(1) as f64
                }
            };
            evaluated += 1;
            if best
                .as_ref()
                .is_none_or(|(_, s, _)| score.total_cmp(s).is_gt())
            {
                best = Some((plan, score, est_busy));
            }
        }
        (best, [evaluated, rejected, skipped])
    }

    /// The cheaper of the two ways `plan` can be injected — as the gather
    /// list it was proposed as, unless the configuration rules that out, or
    /// by copy — each judged on its own by `validate_plan` and priced by
    /// `estimate_busy`; where neither passes, what is wrong with the copy.
    fn reference_mode(
        plan: TransferPlan,
        ctx: &OptContext<'_>,
        collect: &CollectLayer,
        wire_mtu: u64,
    ) -> Result<(TransferPlan, SimDuration), PlanViolation> {
        let judge = |plan: TransferPlan| {
            crate::constraints::validate_plan(&plan, collect, ctx.caps, wire_mtu)?;
            let busy = crate::cost::estimate_busy(plan.view(), ctx).expect("validated");
            Ok((plan, busy))
        };
        let copied = judge(plan.clone().injected(true));
        if plan.chunk_count() == 0 || (plan.chunk_count() > 1 && !ctx.config.enable_gather) {
            return copied; // a request, or a packet only the copy is open to
        }
        match (judge(plan), copied) {
            (Ok(gathered), Ok(copied)) if copied.1 < gathered.1 => Ok(copied),
            (Ok(gathered), _) => Ok(gathered),
            (Err(_), copied) => copied,
        }
    }

    /// A strategy whose only proposal is the plan it holds.
    struct Replay(TransferPlan);

    impl Strategy for Replay {
        fn name(&self) -> &'static str {
            self.0.strategy
        }
        fn propose(&self, _: &OptContext<'_>, out: &mut Proposals) {
            let plan = &self.0;
            match &plan.body {
                PlanBody::Data { chunks, .. } => {
                    out.push_data(plan.channel, plan.dst, chunks, plan.strategy)
                }
                &PlanBody::RndvRequest { flow, seq, frag } => {
                    out.push_rndv(plan.channel, plan.dst, (flow, seq, frag), plan.strategy)
                }
            }
        }
    }

    /// The decision log [`reference_select`] implies for activation 3: it
    /// is asked about every proposal alone (within the budget), and says
    /// veto — then `validate_plan` says why — or score.
    fn reference_log(
        registry: &StrategyRegistry,
        ctx: &OptContext<'_>,
        collect: &CollectLayer,
        wire_mtu: u64,
        budget: usize,
    ) -> Vec<EngineEvent> {
        let activation = 3;
        let mut proposals = Proposals::new();
        registry.propose_all(ctx, &mut proposals);
        let mut log = Vec::new();
        let mut evaluated = 0;
        let mut best: Option<(&'static str, f64, SimDuration)> = None;
        for plan in proposals.to_plans() {
            let strategy = plan.strategy;
            log.push(EngineEvent::PlanProposed {
                activation,
                strategy,
                chunks: plan.chunk_count() as u16,
                bytes: plan.payload_bytes(),
            });
            if evaluated >= budget {
                continue;
            }
            let mut alone = StrategyRegistry::empty();
            alone.register(Box::new(Replay(plan.clone())));
            let Some((_, score, est_busy)) = reference_select(&alone, ctx, collect, wire_mtu, 1).0
            else {
                let violation = reference_mode(plan, ctx, collect, wire_mtu)
                    .expect_err("the reference rejected it");
                log.push(EngineEvent::PlanVetoed {
                    activation,
                    strategy,
                    violation,
                });
                continue;
            };
            evaluated += 1;
            let (score_num, score_den) = encode_score(score, est_busy.as_nanos());
            log.push(EngineEvent::PlanScored {
                activation,
                strategy,
                score_num,
                score_den,
            });
            if best.is_none_or(|(_, s, _)| score.total_cmp(&s).is_gt()) {
                best = Some((strategy, score, est_busy));
            }
        }
        if let Some((strategy, score, est_busy)) = best {
            let (score_num, score_den) = encode_score(score, est_busy.as_nanos());
            log.push(EngineEvent::PlanWon {
                activation,
                strategy,
                score_num,
                score_den,
            });
        }
        log
    }

    /// `aggregate`'s packets proposed once more, chunk by chunk through
    /// `push_data` — so without a hint.
    struct AggregateAgain;

    impl Strategy for AggregateAgain {
        fn name(&self) -> &'static str {
            "aggregate-again"
        }
        fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
            let mut theirs = Proposals::new();
            crate::strategy::EagerAggregation::new().propose(ctx, &mut theirs);
            for plan in theirs.iter() {
                out.push_data(ctx.channel, plan.dst, plan.chunks(), self.name());
            }
        }
    }

    /// Feeds `fill_packet` candidates that lie about everything but their
    /// key: submitted at time zero, CONTROL class, the last byte of their
    /// message, and — `misplaced` — the
    /// window position of a message from the other end of the group. The
    /// score must not move: it reads the window, not the candidate, and
    /// through a hint only what the hint's own entry confirms.
    struct Fabricated {
        misplaced: bool,
    }

    impl Strategy for Fabricated {
        fn name(&self) -> &'static str {
            if self.misplaced {
                "fabricated-misplaced"
            } else {
                "fabricated"
            }
        }
        fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
            // Two chunks or three, so that neither list is the other's
            // repeat and both are judged through their own hints.
            let take = if self.misplaced { 2 } else { 3 };
            for g in ctx.groups {
                let lies: Vec<_> = g
                    .candidates
                    .iter()
                    .take(take)
                    .map(|c| crate::plan::ChunkCandidate {
                        at: if self.misplaced {
                            g.candidates.len() as u32 - 1 - c.at
                        } else {
                            c.at
                        },
                        submitted_at: SimTime::ZERO,
                        class: TrafficClass::CONTROL,
                        msg_remaining: 1,
                        ..*c
                    })
                    .collect();
                crate::strategy::fill_packet(ctx, g.dst, &lies, take, self.name(), out);
            }
        }
    }

    /// Per group, its first candidate and beside it the express header of
    /// the *next* message of its last candidate's flow — which the window,
    /// where it was cut, does not offer: a chunk that is valid and is worth
    /// nothing (elsewhere there is no such message, and the proposal falls).
    struct BesideTheWindow;

    impl Strategy for BesideTheWindow {
        fn name(&self) -> &'static str {
            "beside-the-window"
        }
        fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
            for g in ctx.groups {
                let (Some(head), Some(last)) = (g.candidates.first(), g.candidates.last()) else {
                    continue;
                };
                let offered = PlannedChunk {
                    flow: head.flow,
                    seq: head.seq,
                    frag: head.frag,
                    offset: head.offset,
                    len: head.remaining,
                };
                let beyond = PlannedChunk {
                    flow: last.flow,
                    seq: last.seq + 1,
                    frag: 0,
                    offset: 0,
                    len: 8,
                };
                out.push_data(ctx.channel, g.dst, &[offered, beyond], self.name());
            }
        }
    }

    /// Eight flows alternating between two destinations and three classes;
    /// every message is an express header plus a body, and every third
    /// body is large enough to need a rendezvous.
    fn mixed_backlog() -> CollectLayer {
        let mut c = CollectLayer::new();
        let classes = [
            TrafficClass::DEFAULT,
            TrafficClass::CONTROL,
            TrafficClass::BULK,
        ];
        let flows: Vec<_> = (0..8)
            .map(|i| c.open_flow(NodeId(1 + i % 2), classes[i as usize % 3]))
            .collect();
        for m in 0..40usize {
            let body = if m % 3 == 2 { 8192 } else { 40 + 37 * (m % 11) };
            let parts = MessageBuilder::new()
                .pack_express(&(m as u64).to_le_bytes())
                .pack_cheaper(&vec![m as u8; body])
                .build_parts();
            c.submit(
                flows[m % flows.len()],
                parts,
                SimTime::from_nanos(137 * m as u64),
                4096,
            );
        }
        c
    }

    /// Five flows of one class toward one node, 66 messages of one size
    /// each, submitted round-robin: whatever order `reorder-sjf` sorts the
    /// window into, size does not tell messages apart. A
    /// flow is 132 window entries, so a window of 64 or 256 — which a
    /// packet takes whole — ends inside a flow, short of a message the flow
    /// has next.
    fn uniform_backlog() -> CollectLayer {
        let mut c = CollectLayer::new();
        let flows: Vec<_> = (0..5)
            .map(|_| c.open_flow(NodeId(1), TrafficClass::DEFAULT))
            .collect();
        for m in 0..330usize {
            let parts = MessageBuilder::new()
                .pack_express(&(m as u64).to_le_bytes())
                .pack_cheaper(&[m as u8; 56])
                .build_parts();
            c.submit(
                flows[m % flows.len()],
                parts,
                SimTime::from_nanos(90 * m as u64),
                4096,
            );
        }
        c
    }

    /// What [`drain_against_reference`] saw on its way.
    #[derive(Debug, Default)]
    struct Drained {
        data_turns: usize,
        rndv_turns: usize,
        /// Passes the budget cut short.
        cut_short: usize,
        /// Data proposals whose chunk list an earlier proposal of the pass
        /// had carried.
        repeats: usize,
        /// `beside-the-window` proposals that were scored.
        beside_scored: usize,
    }

    /// The engine's refill loop over `c` in `window`-entry windows — select,
    /// carry the winner out, look again — with every pass held against
    /// [`reference_select`] and [`reference_log`] at budgets 256 and 5.
    fn drain_against_reference(mut c: CollectLayer, window: usize) -> Drained {
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let cfg = EngineConfig::default();
        let mut registry = StrategyRegistry::standard(&cfg);
        // Twice each: the second veto, and the second price, is read off
        // the first one's verdict.
        registry.register(Box::new(Stray));
        registry.register(Box::new(Stray));
        registry.register(Box::new(AggregateAgain));
        registry.register(Box::new(AggregateAgain));
        registry.register(Box::new(Fabricated { misplaced: false }));
        registry.register(Box::new(Fabricated { misplaced: true }));
        registry.register(Box::new(BesideTheWindow));
        // One scratch for every pass of the loop below: whatever a pass
        // leaves in it, the next — over a different window — must not see.
        let mut scratch = SelectionScratch::default();
        let mut seen = Drained::default();
        for turn in 0u64.. {
            let groups = c.collect_candidates(ChannelId(0), window, |_, _| true);
            if groups.is_empty() {
                break;
            }
            let ctx = OptContext {
                now: SimTime::from_nanos(250_000 + 900 * turn),
                channel: ChannelId(0),
                caps: &caps,
                cost: &cost,
                config: &cfg,
                groups: &groups,
                packet_limit: 1 << 16,
                rail_count: 1,
                health_penalty: 1.5,
            };
            // Unbounded, then a budget that runs out mid-list.
            let mut winner = None;
            for budget in [256, 5] {
                let mut log = EventSink::with_capacity(1 << 10);
                let got = select_plan_in(
                    &mut scratch,
                    &registry,
                    &ctx,
                    &c,
                    1 << 20,
                    budget,
                    &mut log,
                    3,
                );
                let (want, [evaluated, rejected, skipped]) =
                    reference_select(&registry, &ctx, &c, 1 << 20, budget);
                let at = format!("turn {turn}, budget {budget}");
                assert_eq!(
                    [got.evaluated, got.rejected, got.skipped],
                    [evaluated, rejected, skipped],
                    "{at}"
                );
                if got.skipped == 0 {
                    assert!(got.rejected >= 2, "both stray proposals are vetoed: {at}");
                    let data = scratch.proposals.iter().filter(|p| p.chunk_count() > 0);
                    seen.repeats += data.count() - scratch.judged.len();
                }
                seen.cut_short += usize::from(got.skipped > 0);
                let (got, (plan, score, est_busy)) =
                    (got.best.expect("winner"), want.expect("winner"));
                assert_eq!(got.plan, plan, "{at}");
                assert_eq!(got.score.to_bits(), score.to_bits(), "{at}");
                assert_eq!(got.est_busy, est_busy, "{at}");
                // The decision log is the reference's, record for record.
                let want = reference_log(&registry, &ctx, &c, 1 << 20, budget);
                let got_log: Vec<_> = log.iter().map(|rec| rec.event.clone()).collect();
                assert_eq!(got_log, want, "{at}");
                seen.beside_scored += want
                    .iter()
                    .filter(|e| {
                        matches!(e, EngineEvent::PlanScored { strategy, .. }
                            if *strategy == "beside-the-window")
                    })
                    .count();
                winner.get_or_insert(got.plan);
            }
            match winner.expect("two passes ran").body {
                PlanBody::Data { chunks, .. } => {
                    seen.data_turns += 1;
                    for chunk in &chunks {
                        c.commit_chunk(chunk, ChannelId(0));
                        c.complete_chunk(chunk);
                    }
                }
                PlanBody::RndvRequest { flow, seq, frag } => {
                    seen.rndv_turns += 1;
                    c.mark_rndv_requested(flow, seq, frag);
                    c.grant_rndv(flow, seq, frag);
                }
            }
        }
        assert!(c.is_empty(), "the loop drained the backlog");
        seen
    }

    #[test]
    fn indexed_selection_matches_linear_search_reference() {
        // A full window is `window` data candidates; requests lie beside
        // it, at most the quota per destination.
        let data = |groups: &[crate::plan::DstGroup]| -> usize {
            groups.iter().map(|g| g.candidates.len()).sum()
        };
        let groups = mixed_backlog().collect_candidates(ChannelId(0), 64, |_, _| true);
        assert_eq!(groups.len(), 2, "two destinations in the window");
        assert_eq!(data(&groups), 64, "the window is full");
        assert!(groups
            .iter()
            .all(|g| (1..=crate::plan::MAX_REQS_PER_DST).contains(&g.rndv.len())));
        let groups = uniform_backlog().collect_candidates(ChannelId(0), 256, |_, _| true);
        assert_eq!(data(&groups), 256, "the wide window is full too");
        for window in [64, 256] {
            let seen = drain_against_reference(mixed_backlog(), window);
            assert!(
                seen.data_turns > 5 && seen.rndv_turns > 5 && seen.cut_short > 10,
                "window {window}: {seen:?}"
            );
            // All 80 entries fit the wide window: nothing lies beside it.
            assert!(
                seen.repeats > 0 && (seen.beside_scored > 0) == (window == 64),
                "window {window}: {seen:?}"
            );
        }
        // Where size is uniform `reorder-sjf` proposes `aggregate`'s packet
        // again: per pass, one repeat from the standard registry on top of
        // the two this test registers.
        for window in [64, 256] {
            let seen = drain_against_reference(uniform_backlog(), window);
            assert!(
                seen.repeats >= 3 * seen.data_turns && seen.beside_scored > 0,
                "window {window}: {seen:?}"
            );
        }
    }

    #[test]
    fn a_plan_for_another_rail_than_the_scheduled_one_is_vetoed() {
        // A CONTROL message whose express header went out on rail 0 and is
        // still in flight: the message is pinned there, and rail 1's window
        // rightly hides its body.
        let mut c = CollectLayer::new();
        let pinned = c.open_flow(NodeId(1), TrafficClass::CONTROL);
        let other = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
        let parts = MessageBuilder::new()
            .pack_express(&[1; 16])
            .pack_cheaper(&[2; 64])
            .build_parts();
        c.submit(pinned, parts, SimTime::ZERO, 1 << 30);
        let parts = MessageBuilder::new().pack_cheaper(&[3; 32]).build_parts();
        c.submit(other, parts, SimTime::ZERO, 1 << 30);
        let chunk = |frag, len| PlannedChunk {
            flow: pinned,
            seq: 0,
            frag,
            offset: 0,
            len,
        };
        c.commit_chunk(&chunk(0, 16), ChannelId(0));

        /// Proposes the pinned body for the rail it is pinned to, whatever
        /// rail is being scheduled.
        struct WrongRail(PlannedChunk);
        impl Strategy for WrongRail {
            fn name(&self) -> &'static str {
                "wrong-rail"
            }
            fn propose(&self, _: &OptContext<'_>, out: &mut Proposals) {
                out.push_data(ChannelId(0), NodeId(1), &[self.0], self.name());
            }
        }

        let cfg = EngineConfig::default();
        let caps = calib::synthetic_capabilities();
        let cost = CostModel::from_params(&NetworkParams::synthetic());
        let mut registry = StrategyRegistry::standard(&cfg);
        registry.register(Box::new(WrongRail(chunk(1, 64))));
        let groups = c.collect_candidates(ChannelId(1), cfg.lookahead_window, |_, _| true);
        assert_eq!(groups.len(), 1);
        assert_eq!(
            groups[0].candidates.len(),
            1,
            "the pinned message is hidden"
        );
        let ctx = OptContext {
            now: SimTime::from_nanos(10_000),
            channel: ChannelId(1),
            caps: &caps,
            cost: &cost,
            config: &cfg,
            groups: &groups,
            packet_limit: 1 << 16,
            rail_count: 2,
            health_penalty: 1.0,
        };
        let mut sink = EventSink::with_capacity(64);
        let out = select_plan_traced(&registry, &ctx, &c, 1 << 20, 256, &mut sink, 0);
        assert_eq!(out.rejected, 1);
        let vetoed: Vec<_> = sink
            .iter()
            .filter_map(|rec| match &rec.event {
                EngineEvent::PlanVetoed {
                    strategy,
                    violation,
                    ..
                } => Some((*strategy, violation.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(vetoed, [("wrong-rail", PlanViolation::WrongRail)]);
        // The body would have outscored the small message: it is the veto,
        // not the contest, that keeps it off rail 1.
        assert_eq!(
            out.best.expect("the other flow's message").plan.strategy,
            "fifo"
        );
    }

    #[test]
    fn submit_action_logic() {
        let mut cfg = EngineConfig::default();
        // Paper default: no delay -> optimize immediately when idle.
        assert_eq!(
            submit_action(&cfg, true, 10, false),
            SubmitAction::OptimizeNow
        );
        assert_eq!(submit_action(&cfg, false, 10, false), SubmitAction::Wait);
        // Nagle enabled: small backlog arms the timer once.
        cfg.nagle_delay = SimDuration::from_micros(5);
        assert_eq!(
            submit_action(&cfg, true, 10, false),
            SubmitAction::ArmNagle(SimDuration::from_micros(5))
        );
        assert_eq!(submit_action(&cfg, true, 10, true), SubmitAction::Wait);
        // Large backlog bypasses the delay.
        assert_eq!(
            submit_action(&cfg, true, 4096, false),
            SubmitAction::OptimizeNow
        );
    }
}

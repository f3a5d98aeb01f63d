//! The extendable strategy database (abstract: "The database of predefined
//! strategies can be easily extended").
//!
//! A [`Strategy`] looks at the optimizer's current view ([`OptContext`]) and
//! writes candidate plans into the pass's [`Proposals`]: for a data packet
//! a rail, a destination and a chunk list. How the list is injected — by
//! copy or as a gather list — is not proposed: the optimizer asks the
//! rail's cost model ([`crate::cost::cheapest_injection`]), scores every
//! proposal (within the rearrangement budget) and executes the best one —
//! the only one that ever becomes an owned
//! [`TransferPlan`](crate::plan::TransferPlan). Users extend the engine by
//! registering their own strategies — see `examples/custom_strategy.rs`.

// madlint: file: hot-path

mod aggregate;
mod fifo;
mod reorder;
mod rndv;

pub use aggregate::EagerAggregation;
pub use fifo::FifoFallback;
pub use reorder::ReorderVariants;
pub use rndv::RendezvousPromotion;

use nicdrv::{CostModel, DriverCapabilities};
use simnet::{NodeId, SimTime};

use crate::config::EngineConfig;
use crate::ids::{ChannelId, FlowId, FragIndex};
use crate::plan::{Body, ChunkCandidate, DstGroup, Plan, PlanRef, PlannedChunk, TransferPlan};
use crate::proto::Framing;

/// Everything a strategy may consult when proposing plans for one rail
/// activation.
pub struct OptContext<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// Rail being scheduled.
    pub channel: ChannelId,
    /// The rail's driver capabilities.
    pub caps: &'a DriverCapabilities,
    /// The rail's cost model.
    pub cost: &'a CostModel,
    /// Engine configuration (window, thresholds, toggles).
    pub config: &'a EngineConfig,
    /// Schedulable work, grouped by destination.
    pub groups: &'a [DstGroup],
    /// Upper bound on payload+framing bytes per packet on this rail.
    pub packet_limit: u64,
    /// Number of rails currently eligible for this traffic (≥ 1).
    pub rail_count: usize,
    /// madrel: reliability penalty (≥ 1.0) for this rail — the inverse of
    /// its ack/timeout health score. Scales estimated busy time in plan
    /// scoring so degraded rails lose cost-model contests and the
    /// optimizer reroutes around them.
    pub health_penalty: f64,
}

/// A packet-rearrangement strategy.
pub trait Strategy {
    /// Stable name used in metrics and plan provenance.
    fn name(&self) -> &'static str;
    /// Append candidate plans for the current context to `out`.
    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals);
}

/// The proposals of one selection pass, in consultation order. Every
/// proposal's chunks lie in one arena the optimizer keeps from pass to
/// pass, so proposing allocates nothing once the arena has grown to the
/// largest pass seen; plans are read back as [`PlanRef`]s.
#[derive(Debug, Default)]
pub struct Proposals {
    chunks: Vec<PlannedChunk>,
    /// Parallel to `chunks`: the [`ChunkCandidate::at`] of the candidate
    /// each chunk was cut from, or [`NO_HINT`]. Judging a chunk starts
    /// its look into the window there.
    cut_from: Vec<u32>,
    plans: Vec<Proposed>,
    /// [`ReorderVariants`]' working storage: like the arena, it belongs to
    /// the pass, not to the (shared, immutable) strategy.
    pub(crate) reorder: reorder::Scratch,
}

/// The hint of a chunk or request whose place in the window its proposer
/// did not say: judging it searches the window.
pub(crate) const NO_HINT: u32 = u32::MAX;

/// One proposal: a plan whose chunks are `chunks[from..to]` of the arena.
#[derive(Debug)]
struct Proposed {
    plan: Plan<(usize, usize)>,
    /// For a rendezvous request, where in its group's `rndv` list the
    /// fragment waits, or [`NO_HINT`].
    rndv_at: u32,
}

impl Proposals {
    /// An empty set.
    pub fn new() -> Self {
        Proposals::default()
    }

    /// Forget every proposal; the storage stays.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.cut_from.clear();
        self.plans.clear();
    }

    /// Number of proposals.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when nothing was proposed.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Propose one wire packet toward `dst` carrying `chunks` in order
    /// (copied into the arena).
    pub fn push_data(
        &mut self,
        channel: ChannelId,
        dst: NodeId,
        chunks: &[PlannedChunk],
        strategy: &'static str,
    ) {
        let from = self.chunks.len();
        self.chunks.extend_from_slice(chunks);
        self.cut_from.resize(self.chunks.len(), NO_HINT);
        self.seal_data(channel, dst, from, strategy);
    }

    /// The chunks pushed onto the arena since `from` are one data plan.
    /// Its `linearize` says nothing yet: selection prices the mode.
    fn seal_data(&mut self, channel: ChannelId, dst: NodeId, from: usize, strategy: &'static str) {
        let body = Body::Data {
            chunks: (from, self.chunks.len()),
            linearize: false,
        };
        self.seal(channel, dst, body, NO_HINT, strategy);
    }

    fn seal(
        &mut self,
        channel: ChannelId,
        dst: NodeId,
        body: Body<(usize, usize)>,
        rndv_at: u32,
        strategy: &'static str,
    ) {
        let plan = Plan {
            channel,
            dst,
            strategy,
            body,
        };
        self.plans.push(Proposed { plan, rndv_at });
    }

    /// Propose a rendezvous request for fragment `frag` of `(flow, seq)`.
    pub fn push_rndv(
        &mut self,
        channel: ChannelId,
        dst: NodeId,
        (flow, seq, frag): (FlowId, u32, FragIndex),
        strategy: &'static str,
    ) {
        let body = Body::RndvRequest { flow, seq, frag };
        self.seal(channel, dst, body, NO_HINT, strategy);
    }

    /// [`Proposals::push_rndv`] for `group.rndv[at]`, with its place as
    /// the hint.
    pub(crate) fn push_rndv_at(
        &mut self,
        channel: ChannelId,
        group: &DstGroup,
        at: usize,
        strategy: &'static str,
    ) {
        let r = &group.rndv[at];
        let (flow, seq, frag) = (r.flow, r.seq, r.frag);
        let body = Body::RndvRequest { flow, seq, frag };
        self.seal(channel, group.dst, body, at as u32, strategy);
    }

    /// Withdraw the latest proposal.
    pub fn pop(&mut self) {
        let Some(last) = self.plans.pop() else { return };
        if let Body::Data {
            chunks: (from, _), ..
        } = last.plan.body
        {
            self.chunks.truncate(from);
            self.cut_from.truncate(from);
        }
    }

    /// Proposal `at`, in consultation order.
    ///
    /// # Panics
    /// Panics when `at >= self.len()`.
    pub fn get(&self, at: usize) -> PlanRef<'_> {
        let hold = |&(from, to): &(usize, usize)| &self.chunks[from..to];
        self.plans[at].plan.map_chunks(hold)
    }

    /// The window hints of proposal `at`: one per chunk of a data plan
    /// (parallel to its chunk list), the one of a rendezvous request.
    pub(crate) fn hints(&self, at: usize) -> &[u32] {
        let proposed = &self.plans[at];
        match proposed.plan.body {
            Body::Data {
                chunks: (from, to), ..
            } => &self.cut_from[from..to],
            Body::RndvRequest { .. } => std::slice::from_ref(&proposed.rndv_at),
        }
    }

    /// Every proposal, in consultation order.
    pub fn iter(&self) -> impl Iterator<Item = PlanRef<'_>> + '_ {
        (0..self.len()).map(|at| self.get(at))
    }

    /// Every proposal as an owned plan (analyzers and tests; the optimizer
    /// only ever owns the winner).
    pub fn to_plans(&self) -> Vec<TransferPlan> {
        self.iter().map(|p| p.to_plan()).collect()
    }
}

/// Greedily fill one packet from `candidates` (in the given order),
/// respecting the packet size budget: what `ctx.packet_limit` leaves once
/// the chunks taken so far and the header the next one would get — which
/// depends on the chunk before it, see [`Framing`] — are counted. The
/// packet ends where the next candidate does not fit or the candidates run
/// out; `max_chunks` cuts it shorter for a proposer that wants a list of
/// its own width (one chunk, the gather width) — `usize::MAX` lets the
/// rail and the window end it. The packet is appended to `out` and
/// returned; `None` (and nothing appended) when no candidate fits.
///
/// Within-message chunk order must already be correct in `candidates`
/// (callers permute *messages*, not chunks within a message). Each chunk
/// remembers the window position of the candidate it was cut from.
pub fn fill_packet<'a, 'c>(
    ctx: &OptContext<'_>,
    dst: NodeId,
    candidates: impl IntoIterator<Item = &'c ChunkCandidate>,
    max_chunks: usize,
    strategy: &'static str,
    out: &'a mut Proposals,
) -> Option<PlanRef<'a>> {
    let from = out.chunks.len();
    let mut count = 0usize;
    let mut payload = 0u64;
    let mut framing = Framing::new();
    for cand in candidates {
        if count >= max_chunks {
            break;
        }
        // The packet's framing with this candidate in it.
        let mut framed = framing;
        framed.push(cand.flow, cand.seq, cand.offset);
        let budget = ctx.packet_limit.saturating_sub(framed.bytes() + payload);
        if budget == 0 {
            break;
        }
        let take = (cand.remaining as u64).min(budget) as u32;
        if take == 0 {
            continue;
        }
        out.chunks.push(PlannedChunk {
            flow: cand.flow,
            seq: cand.seq,
            frag: cand.frag,
            offset: cand.offset,
            len: take,
        });
        out.cut_from.push(cand.at);
        framing = framed;
        count += 1;
        payload += take as u64;
        // A partially-taken fragment blocks everything after it from the
        // same message (offsets must stay contiguous), but candidates from
        // other messages may still fit; partial takes only happen when the
        // budget is exhausted anyway.
        if take < cand.remaining {
            break;
        }
    }
    if count == 0 {
        return None;
    }
    out.seal_data(ctx.channel, dst, from, strategy);
    Some(out.get(out.len() - 1))
}

/// Registry of strategies consulted on every optimizer activation, in
/// registration order.
pub struct StrategyRegistry {
    items: Vec<Box<dyn Strategy>>,
}

impl std::fmt::Debug for StrategyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.items.iter().map(|s| s.name()))
            .finish()
    }
}

impl StrategyRegistry {
    /// Empty registry (only useful with [`StrategyRegistry::register`]).
    pub fn empty() -> Self {
        StrategyRegistry { items: Vec::new() }
    }

    /// The predefined database, honouring the config's toggles. The FIFO
    /// fallback is always present so the engine can always make progress,
    /// and so is rendezvous promotion: it proposes for fragments at or
    /// above the switch point, of which a threshold of `u64::MAX` has none.
    pub fn standard(cfg: &EngineConfig) -> Self {
        let mut r = StrategyRegistry::empty();
        r.register(Box::new(RendezvousPromotion::new()));
        if cfg.enable_aggregation {
            r.register(Box::new(EagerAggregation::new()));
        }
        if cfg.enable_reorder {
            r.register(Box::new(ReorderVariants::new()));
        }
        r.register(Box::new(FifoFallback::new()));
        r
    }

    /// Add a strategy (consulted after the ones already present).
    pub fn register(&mut self, s: Box<dyn Strategy>) {
        self.items.push(s);
    }

    /// Names in consultation order.
    pub fn names(&self) -> Vec<&'static str> {
        self.items.iter().map(|s| s.name()).collect()
    }

    /// Iterate the registered strategies in consultation order (used by
    /// the static conformance analyzer to attribute findings).
    pub fn iter(&self) -> impl Iterator<Item = &dyn Strategy> + '_ {
        self.items.iter().map(|b| b.as_ref())
    }

    /// Collect proposals from every registered strategy, in consultation
    /// order. The driver's capabilities parameterise what comes of them
    /// downstream: the rail's `CostModel` chooses how each chunk list is
    /// injected — a list the rail cannot inject is vetoed — and scores it.
    pub fn propose_all(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        for s in &self.items {
            s.propose(ctx, out);
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::ids::{FlowId, TrafficClass};

    /// Candidate constructor for strategy unit tests. It does not know
    /// where the test will put the candidate, so it gives no hint; its
    /// message is the fragment's remaining bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn cand(
        flow: u32,
        seq: u32,
        frag: u16,
        offset: u32,
        remaining: u32,
        express: bool,
        class: TrafficClass,
        age_ns: u64,
    ) -> ChunkCandidate {
        ChunkCandidate {
            at: NO_HINT,
            flow: FlowId(flow),
            seq,
            frag,
            offset,
            remaining,
            msg_remaining: u64::from(remaining),
            express,
            class,
            submitted_at: SimTime::from_nanos(1_000_000u64.saturating_sub(age_ns)),
        }
    }

    pub fn ctx_fixture<'a>(
        groups: &'a [DstGroup],
        caps: &'a DriverCapabilities,
        cost: &'a CostModel,
        config: &'a EngineConfig,
    ) -> OptContext<'a> {
        OptContext {
            now: SimTime::from_nanos(1_000_000),
            channel: ChannelId(0),
            caps,
            cost,
            config,
            groups,
            packet_limit: 1 << 16,
            rail_count: 1,
            health_penalty: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::ids::TrafficClass;
    use nicdrv::calib;
    use simnet::NetworkParams;

    fn fixtures() -> (DriverCapabilities, CostModel, EngineConfig) {
        (
            calib::synthetic_capabilities(),
            CostModel::from_params(&NetworkParams::synthetic()),
            EngineConfig::default(),
        )
    }

    #[test]
    fn standard_registry_respects_toggles() {
        let full = StrategyRegistry::standard(&EngineConfig::default());
        assert!(full.names().contains(&"aggregate"));
        assert!(full.names().contains(&"fifo"));
        let fifo = StrategyRegistry::standard(&EngineConfig::fifo_only());
        assert_eq!(fifo.names(), vec!["rndv", "fifo"]);
        assert_eq!(full.names(), ["rndv", "aggregate", "reorder", "fifo"]);
    }

    #[test]
    fn fill_packet_respects_budget_and_counts() {
        let (caps, cost, cfg) = fixtures();
        let groups: Vec<DstGroup> = vec![];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let cands: Vec<_> = (0..10)
            .map(|i| cand(i, 0, 0, 0, 100, false, TrafficClass::DEFAULT, 0))
            .collect();
        let mut out = Proposals::new();
        let plan = fill_packet(&ctx, simnet::NodeId(1), &cands, 4, "t", &mut out).unwrap();
        assert_eq!(plan.chunk_count(), 4);
        assert_eq!(plan.payload_bytes(), 400);
    }

    #[test]
    fn fill_packet_truncates_large_fragment_to_budget() {
        let (caps, cost, cfg) = fixtures();
        let groups: Vec<DstGroup> = vec![];
        let mut ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        ctx.packet_limit = 1000;
        let cands = vec![cand(0, 0, 0, 0, 5000, false, TrafficClass::DEFAULT, 0)];
        let mut out = Proposals::new();
        let plan = fill_packet(&ctx, simnet::NodeId(1), &cands, 16, "t", &mut out).unwrap();
        assert_eq!(plan.chunk_count(), 1);
        // 1000 less the prefix and one header that names its message.
        assert_eq!(plan.payload_bytes(), 1000 - 2 - 30);
        // From the middle of a fragment the header says where: 4 more.
        let cands = vec![cand(0, 0, 0, 100, 5000, false, TrafficClass::DEFAULT, 0)];
        let plan = fill_packet(&ctx, simnet::NodeId(1), &cands, 16, "t", &mut out).unwrap();
        assert_eq!(plan.payload_bytes(), 1000 - 2 - 34);
        // The fragments of one message fill to the byte: each header
        // after the first names no message (2 + 30 + 3 × 11 + 935).
        let cands: Vec<_> = (0..4)
            .map(|frag| cand(0, 0, frag, 0, 400, false, TrafficClass::DEFAULT, 0))
            .collect();
        let plan = fill_packet(&ctx, simnet::NodeId(1), &cands, 16, "t", &mut out).unwrap();
        assert_eq!(
            (plan.chunk_count(), plan.payload_bytes()),
            (3, 1000 - 2 - 30 - 22)
        );
        assert_eq!(plan.payload_bytes() + plan.framing(), 1000);
    }

    mod a_fill_ends_where_the_rail_or_the_window_does {
        use super::*;
        use crate::proto::{framing_of, lone_chunk_framing};
        use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest};
        use proptest::Strategy as Generator;

        /// 1–40 candidates over a few messages of a few flows, a third of
        /// them resuming their fragment, in window order.
        fn windows() -> impl Generator<Value = Vec<ChunkCandidate>> {
            let entry = (0u32..4, 0u32..3, 0u16..3, 0u32..3, 1u32..1500);
            prop::collection::vec(entry, 1..41).prop_map(|entries| {
                let at = 0u32..;
                let entries = entries.into_iter().zip(at);
                let cut =
                    |((flow, seq, frag, resumed, remaining), at): ((_, _, _, u32, _), u32)| {
                        let offset = resumed.saturating_sub(1) * 977;
                        let c = cand(
                            flow,
                            seq,
                            frag,
                            offset,
                            remaining,
                            false,
                            TrafficClass::DEFAULT,
                            0,
                        );
                        ChunkCandidate { at, ..c }
                    };
                entries.map(cut).collect()
            })
        }

        proptest! {
            #[test]
            fn and_takes_the_window_in_order(window in windows(), limit in 1u64..20_000) {
                let (caps, cost, cfg) = fixtures();
                let groups = vec![DstGroup {
                    dst: NodeId(1),
                    candidates: window.clone(),
                    rndv: vec![],
                }];
                let mut ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
                ctx.packet_limit = limit;
                let mut out = Proposals::new();
                let taken = fill_packet(&ctx, NodeId(1), &window, usize::MAX, "t", &mut out)
                    .map_or(Vec::new(), |plan| plan.chunks().to_vec());
                // Never more than the rail takes, payload and framing.
                let payload: u64 = taken.iter().map(|c| u64::from(c.len)).sum();
                prop_assert!(taken.is_empty() || payload + framing_of(&taken) <= limit);
                // A prefix of the window, in window order, every chunk
                // whole but perhaps the last.
                for (i, (c, w)) in taken.iter().zip(&window).enumerate() {
                    prop_assert_eq!((c.flow, c.seq, c.frag, c.offset), (w.flow, w.seq, w.frag, w.offset));
                    prop_assert!(c.len == w.remaining || (i + 1 == taken.len() && c.len < w.remaining));
                }
                // It ends because the window does, or because the rail is
                // full: a chunk was cut to the byte, or the next one would
                // not fit a byte of its own.
                let next = window.get(taken.len());
                match (taken.last(), next) {
                    (_, None) => {}
                    (None, Some(w)) => prop_assert!(lone_chunk_framing(w.offset) + 1 > limit),
                    (Some(last), Some(w)) => {
                        let cut = last.len < window[taken.len() - 1].remaining;
                        let mut more = taken.to_vec();
                        more.push(PlannedChunk { flow: w.flow, seq: w.seq, frag: w.frag, offset: w.offset, len: 1 });
                        let full = payload + 1 + framing_of(&more) > limit;
                        prop_assert!(cut && payload + framing_of(&taken) == limit || !cut && full);
                    }
                }
                // `aggregate`'s packet is that fill.
                let mut theirs = Proposals::new();
                EagerAggregation::new().propose(&ctx, &mut theirs);
                let full = theirs.iter().find(|p| p.strategy == "aggregate");
                prop_assert_eq!(full.map(|p| p.chunks().to_vec()), (taken.len() >= 2).then_some(taken));
            }
        }
    }

    #[test]
    fn fill_packet_linearizes_when_gather_impossible() {
        // `fill_packet` says nothing of the mode; the list it fills is
        // priced as a copy where the rail can neither stream nor gather it.
        let (mut caps, cost, cfg) = fixtures();
        caps.max_gather_entries = 2;
        caps.pio_max_bytes = 16; // too small to stream
        let groups: Vec<DstGroup> = vec![];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let cands: Vec<_> = (0..4)
            .map(|i| cand(i, 0, 0, 0, 100, false, TrafficClass::DEFAULT, 0))
            .collect();
        let mut out = Proposals::new();
        let plan = fill_packet(&ctx, simnet::NodeId(1), &cands, 16, "t", &mut out).unwrap();
        assert!(!plan.linearized(), "a proposal names no mode");
        let (chunks, bytes) = (plan.chunk_count(), plan.payload_bytes() + plan.framing());
        let how = crate::cost::cheapest_injection(&caps, &cost, chunks, bytes, true);
        assert!(how.expect("the copy goes by DMA").linearize);
    }

    #[test]
    fn fill_packet_empty_candidates_yields_none() {
        let (caps, cost, cfg) = fixtures();
        let groups: Vec<DstGroup> = vec![];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let mut out = Proposals::new();
        assert!(fill_packet(&ctx, simnet::NodeId(1), &[], 4, "t", &mut out).is_none());
        assert!(out.is_empty());
    }

    #[test]
    fn proposals_share_one_arena_and_read_back_in_order() {
        use crate::ids::FlowId;
        use crate::plan::PlanBody;
        let chunk = |flow: u32, len: u32| PlannedChunk {
            flow: FlowId(flow),
            seq: 0,
            frag: 0,
            offset: 0,
            len,
        };
        let (rail, dst) = (ChannelId(1), NodeId(2));
        let mut out = Proposals::new();
        out.push_data(rail, dst, &[chunk(0, 10), chunk(1, 20)], "a");
        out.push_rndv(rail, dst, (FlowId(7), 3, 1), "b");
        out.push_data(rail, dst, &[chunk(2, 30)], "c");
        out.push_data(rail, dst, &[chunk(3, 40), chunk(4, 50)], "withdrawn");
        out.pop();
        out.push_data(rail, dst, &[], "empty");
        assert_eq!(out.len(), 4);
        let sizes: Vec<_> = out
            .iter()
            .map(|p| {
                (
                    p.strategy,
                    p.chunk_count(),
                    p.payload_bytes(),
                    p.linearized(),
                )
            })
            .collect();
        assert_eq!(
            sizes,
            [
                ("a", 2, 30, false),
                ("b", 0, 0, false),
                ("c", 1, 30, false),
                ("empty", 0, 0, false)
            ]
        );
        // An owned plan is its view again; a withdrawn proposal left
        // nothing behind for its successor to pick up.
        let plans = out.to_plans();
        for (at, plan) in plans.iter().enumerate() {
            assert_eq!(plan.view(), out.get(at));
            assert_eq!((plan.channel, plan.dst), (rail, dst));
        }
        assert_eq!(
            plans[1].body,
            PlanBody::RndvRequest {
                flow: FlowId(7),
                seq: 3,
                frag: 1
            }
        );
        out.clear();
        assert!(out.is_empty());
        out.push_data(rail, dst, &[chunk(9, 1)], "again");
        assert_eq!(out.get(0).payload_bytes(), 1);
    }

    #[test]
    fn custom_strategy_registration() {
        struct Noop;
        impl Strategy for Noop {
            fn name(&self) -> &'static str {
                "noop"
            }
            fn propose(&self, _ctx: &OptContext<'_>, _out: &mut Proposals) {}
        }
        let mut r = StrategyRegistry::standard(&EngineConfig::default());
        r.register(Box::new(Noop));
        assert!(r.names().contains(&"noop"));
    }

    /// `reorder-sjf` by its definition: every message of the group — all of
    /// its candidates, wherever they lie — in the order of its first one,
    /// stably sorted by what the message has left to send, and a packet
    /// filled from the front. Quadratic in the window.
    fn quadratic_sjf(ctx: &OptContext<'_>, out: &mut Proposals) {
        for g in ctx.groups {
            if g.candidates.len() < 2 {
                continue;
            }
            let mut messages: Vec<Vec<&ChunkCandidate>> = Vec::new();
            for c in &g.candidates {
                let same = |o: &&ChunkCandidate| (o.flow, o.seq) == (c.flow, c.seq);
                if !messages.iter().any(|m| same(&m[0])) {
                    messages.push(g.candidates.iter().filter(same).collect());
                }
            }
            messages.sort_by_key(|m| m[0].msg_remaining);
            let order = messages.into_iter().flatten();
            fill_packet(ctx, g.dst, order, usize::MAX, "reorder-sjf", out);
        }
    }

    #[test]
    fn reorder_sjf_matches_its_quadratic_definition_on_collected_windows() {
        use crate::collect::CollectLayer;
        use crate::flowmgr::FairnessMode;
        use crate::message::{MessageBuilder, PackMode};

        let (caps, cost, cfg) = fixtures();
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |below: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % below
        };
        let classes = [
            TrafficClass::DEFAULT,
            TrafficClass::BULK,
            TrafficClass::PUT_GET,
            TrafficClass::CONTROL,
        ];
        let (mut proposals, mut multi_fragment_windows) = (0, 0);
        for case in 0..120u64 {
            let mut c = CollectLayer::new();
            if case % 2 == 1 {
                c.set_fairness(FairnessMode::Drr, 1 + draw(4096));
            }
            let flows: Vec<_> = (0..1 + draw(9))
                .map(|i| c.open_flow(NodeId(1 + (i % 2) as u32), classes[draw(4) as usize]))
                .collect();
            // 1–4 fragments per message, express or cheaper, some of them
            // past the rendezvous threshold.
            let mut submitted = Vec::new();
            for m in 0..1 + draw(90) {
                let mut b = MessageBuilder::new();
                let frags: Vec<u32> = (0..1 + draw(4))
                    .map(|_| {
                        let below = if draw(5) == 0 { 3000 } else { 200 };
                        1 + draw(below) as u32
                    })
                    .collect();
                for &len in &frags {
                    let mode = if draw(3) == 0 {
                        PackMode::Express
                    } else {
                        PackMode::Cheaper
                    };
                    b = b.pack(&vec![m as u8; len as usize], mode);
                }
                let flow = flows[draw(flows.len() as u64) as usize];
                let id = c.submit(flow, b.build_parts(), SimTime::from_nanos(50 * m), 2048);
                submitted.push((id, frags));
            }
            // Move some messages along: requests sent, grants received,
            // leading fragments partly or wholly committed.
            for (id, frags) in &submitted {
                let (flow, seq) = (id.flow, id.seq.0);
                for (frag, &len) in frags.iter().enumerate() {
                    let frag = frag as u16;
                    if len >= 2048 {
                        match draw(3) {
                            0 => continue,
                            1 => c.mark_rndv_requested(flow, seq, frag),
                            _ => {
                                c.mark_rndv_requested(flow, seq, frag);
                                c.grant_rndv(flow, seq, frag);
                            }
                        }
                    }
                }
                let mut frag = 0u16;
                while draw(3) == 0 && (frag as usize) < frags.len() {
                    let pending = &c.find_msg(flow, seq).expect("submitted").frags[frag as usize];
                    if pending.rndv_blocked() {
                        break;
                    }
                    let len = 1 + draw(u64::from(frags[frag as usize])) as u32;
                    let chunk = PlannedChunk {
                        flow,
                        seq,
                        frag,
                        offset: 0,
                        len,
                    };
                    c.commit_chunk(&chunk, ChannelId(0));
                    if len < frags[frag as usize] {
                        break;
                    }
                    frag += 1;
                }
            }
            for window in [1, 2, 3, 5, 8, 16, 64, 256] {
                let groups = c.collect_candidates(ChannelId(0), window, |_, _| true);
                multi_fragment_windows += usize::from(groups.iter().any(|g| {
                    let mut pairs = g.candidates.windows(2);
                    pairs.any(|w| (w[0].flow, w[0].seq) == (w[1].flow, w[1].seq))
                }));
                let mut ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
                ctx.packet_limit = [100, 400, 4096][draw(3) as usize];
                let (mut got, mut want) = (Proposals::new(), Proposals::new());
                ReorderVariants::new().propose(&ctx, &mut got);
                quadratic_sjf(&ctx, &mut want);
                assert_eq!(
                    got.to_plans(),
                    want.to_plans(),
                    "case {case}, window {window}"
                );
                proposals += got.len();
            }
        }
        assert!(
            proposals > 300 && multi_fragment_windows > 300,
            "{proposals} proposals, {multi_fragment_windows} windows with a multi-fragment message"
        );
    }
}

//! Plan scoring: "estimating the value of a given packet reordering
//! operation" (§3) with the driver's capability-parameterized cost model.
//!
//! The score is Smith's weighted-shortest-processing-time ratio: the
//! class-weighted messages a packet delivers per nanosecond of estimated
//! transmit-engine occupancy,
//!
//! ```text
//!           Σ_chunks class_weight × chunk_bytes ÷ bytes its message still has to send
//!   score = ──────────────────────────────────────────────────────────────────────────
//!                                est_busy_ns × health_penalty
//! ```
//!
//! A message carried whole counts its full class weight, a slice of a large
//! one the share it carries. The denominator makes fixed per-packet costs
//! (setup, descriptors, framing, linearization memcpy) matter: a full packet
//! of small messages beats a short one, and the copy-vs-gather choice lands
//! wherever the hardware's per-segment costs put it. A rendezvous request is
//! worth its message's class weight per nanosecond of the handshake it
//! starts, so requests and data are scored in the same unit.

// madlint: file: hot-path
// madlint: file: scoring

use nicdrv::{admitted_modes, injection_mode, CostModel, DriverCapabilities};
use simnet::{NodeId, SimDuration, TxMode};

use crate::ids::{FlowId, FragIndex};
use crate::plan::{DstGroup, PlannedChunk, TransferPlan};
use crate::proto::{ChunkHeader, Framing};
use crate::strategy::{OptContext, NO_HINT};
#[cfg(test)]
use crate::{
    plan::{Body, PlanRef},
    proto::{framing_of, lone_packet_bytes, wire_bytes},
};

/// A plan together with its evaluated score.
#[derive(Clone, Debug)]
pub struct ScoredPlan {
    /// The candidate plan.
    pub plan: TransferPlan,
    /// Composite score (higher is better).
    pub score: f64,
    /// Estimated transmit-engine occupancy.
    pub est_busy: SimDuration,
}

/// Total-order "strictly better" test used by plan selection. Scores are
/// compared with [`f64::total_cmp`] so a NaN (which the cost model should
/// never produce) orders deterministically instead of making the winner
/// depend on evaluation order. Ties keep the incumbent, so earlier
/// proposals win among equals.
pub fn beats(score: f64, incumbent: f64) -> bool {
    score.total_cmp(&incumbent) == std::cmp::Ordering::Greater
}

/// The window entry a chunk or request names: the one `hint` points at in
/// `home` (the entries of the plan's own destination group) when that is
/// the wanted one, else the first a front-to-back walk of `all` finds. A
/// window offers a fragment once (the [`DstGroup`] invariant), so both
/// routes end at the same entry; the walk is what a missing or wrong hint
/// costs, and no built-in strategy gives one.
fn offered<'a, T>(
    home: &'a [T],
    hint: u32,
    mut all: impl Iterator<Item = &'a T>,
    wanted: impl Fn(&&'a T) -> bool,
) -> Option<&'a T> {
    let hinted = home.get(hint as usize).filter(&wanted);
    hinted.or_else(|| all.find(wanted))
}

/// The window's group for `dst`.
// madlint: allow(linear-scan) — one group per destination in the window
fn home_group<'a>(ctx: &OptContext<'a>, dst: NodeId) -> Option<&'a DstGroup> {
    ctx.groups.iter().find(|g| g.dst == dst)
}

/// What a data packet of `chunks` toward `dst` is worth however it is
/// injected: for every chunk the window offers, its class weight times the
/// share of its message it carries (its bytes over the bytes the message
/// still has to send). A message carried whole counts its class weight
/// once, however many chunks it takes; a chunk the window does not offer
/// counts nothing. Class and message are the window's own; `hints`
/// (parallel to `chunks`, or shorter) only say where to look first.
pub(crate) fn chunks_value(
    dst: NodeId,
    chunks: &[PlannedChunk],
    hints: &[u32],
    ctx: &OptContext<'_>,
) -> f64 {
    let home = home_group(ctx, dst).map_or(&[][..], |g| &g.candidates);
    let mut value = 0.0;
    for (i, c) in chunks.iter().enumerate() {
        let hint = hints.get(i).copied().unwrap_or(NO_HINT);
        let all = ctx.groups.iter().flat_map(|g| g.candidates.iter());
        let cand = offered(home, hint, all, |k| {
            k.flow == c.flow && k.seq == c.seq && k.frag == c.frag
        });
        if let Some(cand) = cand {
            let share = f64::from(c.len) / cand.msg_remaining.max(1) as f64;
            value += cand.class.urgency_weight() * share;
        }
    }
    value
}

/// Value per nanosecond of transmit-engine occupancy.
pub(crate) fn density(value: f64, est_busy: SimDuration, ctx: &OptContext<'_>) -> f64 {
    // madrel: a degraded rail's transmissions are worth less per nanosecond
    // — its timeouts will be paid in retransmissions — so its busy time is
    // inflated by the health penalty and healthier rails win the contest.
    value / (est_busy.as_nanos().max(1) as f64 * ctx.health_penalty.max(1.0))
}

/// The largest packet (payload and framing) a rail carries: what the wire
/// and the driver take in one request, and — on a rail that cannot DMA —
/// what PIO streams, so that such a rail cuts its chunks to that instead
/// of proposing packets nothing can inject.
pub fn packet_limit(caps: &DriverCapabilities, wire_mtu: u64) -> u64 {
    let limit = wire_mtu.min(caps.max_packet_bytes);
    if caps.supports_dma {
        limit
    } else {
        limit.min(caps.pio_max_bytes)
    }
}

/// How a data packet goes onto a rail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Copied into one segment first (true) or handed over as a gather
    /// list: the header block and one segment per chunk.
    pub linearize: bool,
    /// The injection mode the driver will pick for it.
    pub mode: TxMode,
    /// Transmit-engine occupancy, the copy included.
    pub busy: SimDuration,
}

/// Segments the NIC sees of a packet of `chunks` chunks.
fn segments(chunks: usize, linearize: bool) -> usize {
    if linearize {
        1
    } else {
        1 + chunks
    }
}

/// Whether a rail can inject a packet of `chunks` chunks and `bytes` on
/// the wire (payload and framing) in the given form at all: whether the
/// driver admits a mode for it ([`admitted_modes`]).
pub(crate) fn injectable(
    caps: &DriverCapabilities,
    chunks: usize,
    bytes: u64,
    linearize: bool,
) -> bool {
    admitted_modes(caps, bytes, segments(chunks, linearize))
        .next()
        .is_some()
}

/// Unloaded one-way time of a one-segment packet of `bytes` (payload and
/// framing) on a rail, injected in the cheapest mode the rail admits: for
/// a control packet ([`lone_packet_bytes`](crate::proto::lone_packet_bytes)
/// of its header), half the handshake a rendezvous request starts, and the
/// way back of an ack.
pub(crate) fn one_way(caps: &DriverCapabilities, cost: &CostModel, bytes: u64) -> SimDuration {
    cost.one_way(one_segment_mode(caps, cost, bytes), bytes, 1)
}

/// The mode [`one_way`] prices a one-segment packet of `bytes` in: the
/// driver's ([`injection_mode`]), or DMA for a packet no mode admits.
fn one_segment_mode(caps: &DriverCapabilities, cost: &CostModel, bytes: u64) -> TxMode {
    injection_mode(caps, cost, bytes, 1).map_or(TxMode::Dma, |(mode, _)| mode)
}

/// A rail delivering work the way the engine sends it, priced unloaded:
/// fragments packed whole into packets up to the rail's packet limit (one
/// no packet holds is cut across as many as it takes), a destination's
/// packets apart from another's. The packets pipeline through the
/// transmit engine — each pays its injection, fixed cost included, one
/// after the other — and the last one's flight and receive end the
/// delivery: the injections before it plus [`one_way`] of it.
pub(crate) struct Delivery<'a> {
    caps: &'a DriverCapabilities,
    cost: &'a CostModel,
    limit: u64,
    /// Injection of the packets closed so far.
    injected: SimDuration,
    /// Wire bytes of the first packet, once it is closed.
    first: Option<u64>,
    /// The open packet's framing and payload.
    framing: Framing,
    payload: u64,
    /// The next fragment opens a packet (another destination's).
    apart: bool,
}

impl<'a> Delivery<'a> {
    /// Nothing delivered yet on a rail of `caps` and `cost` whose packets
    /// carry at most `limit` bytes ([`packet_limit`]).
    pub(crate) fn new(caps: &'a DriverCapabilities, cost: &'a CostModel, limit: u64) -> Self {
        Delivery {
            caps,
            cost,
            limit,
            injected: SimDuration::ZERO,
            first: None,
            framing: Framing::new(),
            payload: 0,
            apart: false,
        }
    }

    /// The fragment `h` describes, `h.chunk_len` bytes from `h.offset`,
    /// comes next.
    pub(crate) fn push(&mut self, mut h: ChunkHeader) {
        if std::mem::take(&mut self.apart) {
            self.close();
        }
        loop {
            let room = self.limit.saturating_sub(self.bytes());
            if self.framing.next(&h) + u64::from(h.chunk_len) <= room {
                self.framing.push(&h);
                self.payload += u64::from(h.chunk_len);
                return;
            }
            if self.payload > 0 {
                self.close();
                continue;
            }
            let mut cut = h;
            if !self.framing.take(&mut cut, room) {
                return; // a limit below any header: nothing is carried
            }
            self.payload += u64::from(cut.chunk_len);
            self.close();
            h.offset += cut.chunk_len;
            h.chunk_len -= cut.chunk_len;
        }
    }

    /// What comes next goes to another destination.
    pub(crate) fn apart(&mut self) {
        self.apart = self.payload > 0;
    }

    /// The open packet's bytes on the wire.
    fn bytes(&self) -> u64 {
        self.framing.bytes() + self.payload
    }

    fn close(&mut self) {
        let bytes = self.bytes();
        let mode = one_segment_mode(self.caps, self.cost, bytes);
        self.injected += self.cost.injection_time(mode, bytes, 1);
        self.first.get_or_insert(bytes);
        self.framing = Framing::new();
        self.payload = 0;
    }

    /// Whether the first packet is full: what follows travels in another.
    pub(crate) fn first_closed(&self) -> bool {
        self.first.is_some()
    }

    /// Unloaded time from the first packet's injection to the first
    /// packet's reception.
    pub(crate) fn first_packet(&self) -> SimDuration {
        one_way(self.caps, self.cost, self.first.unwrap_or(self.bytes()))
    }

    /// Unloaded time from the first packet's injection to the last one's
    /// reception.
    pub(crate) fn all(&self) -> SimDuration {
        self.injected + one_way(self.caps, self.cost, self.bytes())
    }
}

/// A packet of `chunks` chunks and `bytes` on the wire in one form, priced.
fn priced(
    caps: &DriverCapabilities,
    cost: &CostModel,
    chunks: usize,
    bytes: u64,
    linearize: bool,
) -> Option<Injection> {
    let (mode, inject) = injection_mode(caps, cost, bytes, segments(chunks, linearize))?;
    let copy = if linearize {
        cost.copy_time(bytes)
    } else {
        SimDuration::ZERO
    };
    Some(Injection {
        linearize,
        mode,
        busy: inject + copy,
    })
}

/// **The injection decision** (§1: merge "at the cost of additional
/// processing … or even use a gather/scatter request"): the cheapest way
/// the rail admits of injecting a data packet of `chunks` chunks that is
/// `bytes` long on the wire — payload and the framing its chunk list has
/// ([`wire_bytes`](crate::proto::wire_bytes)), the bytes the NIC is
/// handed — `{gather, copy} × {PIO, DMA}`, a copy paying its memcpy — or
/// `None` when it admits none, which vetoes the packet. A strategy proposes a chunk list; this prices how it
/// goes out. On a tie the gather list is kept. `enable_gather == false`
/// leaves a packet of several chunks the copy alone (E10's and E11's
/// forced-copy arm).
pub fn cheapest_injection(
    caps: &DriverCapabilities,
    cost: &CostModel,
    chunks: usize,
    bytes: u64,
    enable_gather: bool,
) -> Option<Injection> {
    let gather = (enable_gather || chunks < 2).then_some(false);
    let forms = gather.into_iter().chain([true]);
    forms
        .filter_map(|linearize| priced(caps, cost, chunks, bytes, linearize))
        .min_by_key(|how| how.busy)
}

/// What a rendezvous request costs on a rail.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RequestCost {
    /// How long the request occupies the transmit engine.
    pub(crate) est_busy: SimDuration,
    /// The handshake a request starts, in nanoseconds.
    handshake_ns: f64,
}

impl RequestCost {
    /// The cost of a request `bytes` long on the wire: a small linearized
    /// control packet, injected by the driver's rule, and the grant that
    /// echoes its header.
    pub(crate) fn sized(bytes: u64, ctx: &OptContext<'_>) -> Self {
        let mode = one_segment_mode(ctx.caps, ctx.cost, bytes);
        // The request out and the grant back: two control packets.
        let handshake = ctx.cost.one_way(mode, bytes, 1) * 2;
        RequestCost {
            est_busy: ctx.cost.injection_time(mode, bytes, 1),
            handshake_ns: handshake.as_nanos().max(1) as f64,
        }
    }

    /// Score of a request toward `dst` for `(flow, seq, frag)`: its
    /// message's class weight per nanosecond of handshake — the class as
    /// the window gives it (`hint` says where), nothing for a fragment the
    /// window does not offer.
    pub(crate) fn score(
        &self,
        dst: NodeId,
        (flow, seq, frag): (FlowId, u32, FragIndex),
        hint: u32,
        ctx: &OptContext<'_>,
    ) -> f64 {
        let home = home_group(ctx, dst).map_or(&[][..], |g| &g.rndv);
        let all = ctx.groups.iter().flat_map(|g| g.rndv.iter());
        let waiting = offered(home, hint, all, |r| {
            r.flow == flow && r.seq == seq && r.frag == frag
        });
        waiting.map_or(0.0, |r| r.class.urgency_weight()) / self.handshake_ns
    }
}

/// The header of chunk `c` toward `dst` as the window (`ctx.groups`)
/// offers its fragment — a rendezvous request's, for the empty chunk at
/// the start of a fragment offered for one; `None` for a fragment the
/// window does not offer.
#[cfg(test)]
pub(crate) fn window_header(
    c: &PlannedChunk,
    dst: NodeId,
    ctx: &OptContext<'_>,
) -> Option<ChunkHeader> {
    let home = home_group(ctx, dst);
    let key = |flow, seq, frag| (flow, seq, frag) == (c.flow, c.seq, c.frag);
    let all = ctx.groups.iter().flat_map(|g| g.candidates.iter());
    let home_cands = home.map_or(&[][..], |g| &g.candidates);
    let data = offered(home_cands, NO_HINT, all, |k| key(k.flow, k.seq, k.frag));
    let header = data.map(|k| k.header(c));
    header.or_else(|| {
        let all = ctx.groups.iter().flat_map(|g| g.rndv.iter());
        let home_reqs = home.map_or(&[][..], |g| &g.rndv);
        let request = offered(home_reqs, NO_HINT, all, |r| key(r.flow, r.seq, r.frag));
        request
            .filter(|_| (c.offset, c.len) == (0, 0))
            .map(|r| r.header())
    })
}

/// How long the transmit engine is occupied by this plan as it says it is
/// injected, the linearization copy included, under the headers `stamp`
/// gives its chunks (a request's is that of the empty chunk at its
/// fragment's start) — the window's ([`window_header`]), or the collect
/// layer's; `None` for a data packet the rail cannot inject that way, or a
/// chunk `stamp` knows no header of.
#[cfg(test)]
pub(crate) fn estimate_busy(
    plan: PlanRef<'_>,
    ctx: &OptContext<'_>,
    stamp: impl Fn(&PlannedChunk) -> Option<ChunkHeader>,
) -> Option<SimDuration> {
    match plan.body {
        Body::RndvRequest { flow, seq, frag } => {
            let request = stamp(&PlannedChunk::request(flow, seq, frag))?;
            Some(RequestCost::sized(lone_packet_bytes(&request), ctx).est_busy)
        }
        Body::Data { chunks, linearize } => {
            let headers: Option<Vec<_>> = chunks.iter().map(stamp).collect();
            let bytes = wire_bytes(headers?);
            priced(ctx.caps, ctx.cost, chunks.len(), bytes, linearize).map(|how| how.busy)
        }
    }
}

/// Score a plan, injected as it says and under the headers `stamp` gives
/// it, against the window it was proposed from (`ctx.groups`): `(score,
/// estimated busy time)`, or `None` where [`estimate_busy`] has none.
/// Higher is better; deterministic for identical inputs. A selection pass
/// computes the same from the same parts — a chunk list's value and its
/// cheapest injection once however often it is proposed; this spelling of
/// it plan by plan is the tests'.
#[cfg(test)]
pub(crate) fn score_plan(
    plan: PlanRef<'_>,
    ctx: &OptContext<'_>,
    stamp: impl Fn(&PlannedChunk) -> Option<ChunkHeader>,
) -> Option<(f64, SimDuration)> {
    match plan.body {
        Body::Data { chunks, .. } => {
            let est_busy = estimate_busy(plan, ctx, stamp)?;
            let value = chunks_value(plan.dst, chunks, &[], ctx);
            Some((density(value, est_busy, ctx), est_busy))
        }
        Body::RndvRequest { flow, seq, frag } => {
            let request = stamp(&PlannedChunk::request(flow, seq, frag))?;
            let cost = RequestCost::sized(lone_packet_bytes(&request), ctx);
            let score = cost.score(plan.dst, (flow, seq, frag), NO_HINT, ctx);
            Some((score, cost.est_busy))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::ids::{ChannelId, FlowId, TrafficClass};
    use crate::plan::{ChunkCandidate, DstGroup, PlanBody, PlannedChunk, RndvCandidate};
    use crate::strategy::testutil::{cand, ctx_fixture};
    use nicdrv::{calib, CostModel};
    use simnet::{NetworkParams, NodeId, SimTime};

    fn fixtures() -> (nicdrv::DriverCapabilities, CostModel, EngineConfig) {
        (
            calib::synthetic_capabilities(),
            CostModel::from_params(&NetworkParams::synthetic()),
            EngineConfig::default(),
        )
    }

    fn data_plan(chunks: Vec<PlannedChunk>, linearize: bool) -> TransferPlan {
        TransferPlan {
            channel: ChannelId(0),
            dst: NodeId(1),
            body: PlanBody::Data { chunks, linearize },
            strategy: "t",
        }
    }

    fn score(plan: &TransferPlan, ctx: &OptContext<'_>) -> ScoredPlan {
        let stamp = |c: &PlannedChunk| window_header(c, plan.dst, ctx);
        let (score, est_busy) = score_plan(plan.view(), ctx, stamp).expect("injectable");
        ScoredPlan {
            plan: plan.clone(),
            score,
            est_busy,
        }
    }

    fn pc(flow: u32, len: u32) -> PlannedChunk {
        PlannedChunk {
            flow: FlowId(flow),
            seq: 0,
            frag: 0,
            offset: 0,
            len,
        }
    }

    #[test]
    fn aggregated_plan_outscores_single_small_chunk() {
        let (caps, cost, cfg) = fixtures();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: (0..4)
                .map(|i| cand(i, 0, 0, 0, 64, false, TrafficClass::DEFAULT, 0))
                .collect(),
            rndv: vec![],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let merged = score(&data_plan((0..4).map(|i| pc(i, 64)).collect(), false), &ctx);
        let single = score(&data_plan(vec![pc(0, 64)], false), &ctx);
        assert!(
            merged.score > single.score,
            "merged {} <= single {}",
            merged.score,
            single.score
        );
    }

    #[test]
    fn completing_more_weighted_messages_per_busy_time_scores_higher() {
        let (caps, cost, cfg) = fixtures();
        // The same 64 bytes, as a whole message and as a slice of a
        // message that has 4 KiB left: same busy time, one delivery
        // against a sixty-fourth of one.
        let window = |msg_remaining| {
            let mut c = cand(0, 0, 0, 0, 64, false, TrafficClass::DEFAULT, 0);
            c.msg_remaining = msg_remaining;
            vec![DstGroup {
                dst: NodeId(1),
                candidates: vec![c],
                rndv: vec![],
            }]
        };
        let (whole, slice) = (window(64), window(4096));
        let plan = data_plan(vec![pc(0, 64)], false);
        let whole = score(&plan, &ctx_fixture(&whole, &caps, &cost, &cfg));
        let slice = score(&plan, &ctx_fixture(&slice, &caps, &cost, &cfg));
        assert_eq!(whole.est_busy, slice.est_busy);
        assert_eq!(whole.score, 64.0 * slice.score);
        // Age is no part of the value. The header says when the message
        // was submitted, though: at time zero in one byte where 1 ms takes
        // three, so the older message's packet is two bytes shorter and
        // busies the engine for that much less.
        let (mut aged, young) = (window(64), window(64));
        aged[0].candidates[0].submitted_at = SimTime::ZERO;
        let (aged_ctx, young_ctx) = (
            ctx_fixture(&aged, &caps, &cost, &cfg),
            ctx_fixture(&young, &caps, &cost, &cfg),
        );
        let value = |ctx: &OptContext<'_>| chunks_value(NodeId(1), plan.chunks(), &[], ctx);
        assert_eq!(value(&aged_ctx), value(&young_ctx));
        let bytes = |g: &[DstGroup]| lone_packet_bytes(&g[0].candidates[0].whole());
        assert_eq!(bytes(&young) - bytes(&aged), 2);
        let busy = |bytes| priced(&caps, &cost, 1, bytes, false).unwrap().busy;
        let aged = score(&plan, &aged_ctx);
        assert_eq!(
            (aged.est_busy, whole.est_busy),
            (busy(bytes(aged_ctx.groups)), busy(bytes(&young)))
        );
        assert!(aged.est_busy < whole.est_busy);
        assert_eq!(
            aged.score,
            density(value(&aged_ctx), aged.est_busy, &aged_ctx)
        );
        // One message in 64 B beats one in 4 KiB: the same weight for
        // less busy time.
        let big = window(4096);
        let big = score(
            &data_plan(vec![pc(0, 4096)], false),
            &ctx_fixture(&big, &caps, &cost, &cfg),
        );
        assert!(whole.score > big.score && big.est_busy > whole.est_busy);
    }

    #[test]
    fn control_class_outweighs_bulk() {
        let (caps, cost, cfg) = fixtures();
        let mk = |class| {
            vec![DstGroup {
                dst: NodeId(1),
                candidates: vec![cand(0, 0, 0, 0, 64, false, class, 0)],
                rndv: vec![],
            }]
        };
        let g_ctrl = mk(TrafficClass::CONTROL);
        let g_bulk = mk(TrafficClass::BULK);
        let plan = data_plan(vec![pc(0, 64)], false);
        let s_ctrl = score(&plan, &ctx_fixture(&g_ctrl, &caps, &cost, &cfg)).score;
        let s_bulk = score(&plan, &ctx_fixture(&g_bulk, &caps, &cost, &cfg)).score;
        let weights = TrafficClass::CONTROL.urgency_weight() / TrafficClass::BULK.urgency_weight();
        assert_eq!(s_ctrl, weights * s_bulk);
    }

    #[test]
    fn linearized_plan_pays_copy_time() {
        let (caps, cost, cfg) = fixtures();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: (0..2)
                .map(|i| cand(i, 0, 0, 0, 4096, false, TrafficClass::DEFAULT, 0))
                .collect(),
            rndv: vec![],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let gather = data_plan(vec![pc(0, 4096), pc(1, 4096)], false);
        let gather =
            estimate_busy(gather.view(), &ctx, |c| window_header(c, NodeId(1), &ctx)).unwrap();
        let copied = data_plan(vec![pc(0, 4096), pc(1, 4096)], true);
        let copied =
            estimate_busy(copied.view(), &ctx, |c| window_header(c, NodeId(1), &ctx)).unwrap();
        assert!(
            copied > gather,
            "copy {copied} should exceed gather {gather} at 4 KiB chunks"
        );
    }

    /// A rendezvous request is one header alone in its packet, at most
    /// `PACKET_PREFIX_BYTES + MAX_CHUNK_HEADER_BYTES` on the wire. At every
    /// such size the rule injects it by PIO on every technology, so the
    /// request priced by the rule is the request priced as PIO.
    #[test]
    fn every_size_a_request_can_have_goes_out_by_pio() {
        use crate::proto::{MAX_CHUNK_HEADER_BYTES, PACKET_PREFIX_BYTES};
        let techs = calib::REAL_TECHNOLOGIES.into_iter();
        for tech in techs.chain([simnet::Technology::Synthetic]) {
            let caps = calib::capabilities(tech);
            let cost = CostModel::from_params(&calib::params(tech));
            for bytes in 1..=PACKET_PREFIX_BYTES + MAX_CHUNK_HEADER_BYTES {
                let mode = injection_mode(&caps, &cost, bytes, 1).map(|(mode, _)| mode);
                assert_eq!(mode, Some(TxMode::Pio), "{tech:?} at {bytes} B");
            }
        }
    }

    #[test]
    fn rndv_request_scores_its_class_weight_per_handshake() {
        let (caps, cost, cfg) = fixtures();
        let groups = vec![DstGroup {
            dst: NodeId(1),
            candidates: vec![],
            rndv: vec![RndvCandidate {
                flow: FlowId(0),
                seq: 0,
                frag: 0,
                frag_count: 1,
                frag_len: 1 << 20,
                express: false,
                class: TrafficClass::BULK,
                submitted_at: SimTime::ZERO,
            }],
        }];
        let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
        let req = |seq| TransferPlan {
            channel: ChannelId(0),
            dst: NodeId(1),
            body: PlanBody::RndvRequest {
                flow: FlowId(0),
                seq,
                frag: 0,
            },
            strategy: "rndv",
        };
        // The request out and the grant back, priced as a data packet
        // that delivers one BULK message would be: two packets of the
        // request's one header, which says how long the fragment is.
        let bytes = lone_packet_bytes(&groups[0].rndv[0].header());
        assert_eq!(bytes, 2 + 10 + 4);
        let handshake = one_way(&caps, &cost, bytes) * 2;
        let scored = score(&req(0), &ctx);
        assert_eq!(
            scored.score,
            TrafficClass::BULK.urgency_weight() / handshake.as_nanos() as f64
        );
        assert_eq!(scored.est_busy, cost.injection_time(TxMode::Pio, bytes, 1));
        // A fragment the window does not offer has no header to price.
        let stamp = |c: &PlannedChunk| window_header(c, NodeId(1), &ctx);
        assert_eq!(score_plan(req(1).view(), &ctx, stamp), None);
    }

    mod a_packet_is_worth_the_share_of_each_message_it_delivers {
        use super::*;
        use crate::strategy::{fill_packet, Proposals};
        use proptest::prelude::*;

        /// 1–12 messages of one destination, each an express header and a
        /// body, in window order: `(class, header, body, body committed,
        /// header sent)`. A message whose header has gone offers its body
        /// alone.
        fn messages() -> impl Strategy<Value = Vec<(u8, u32, u32, u32, bool)>> {
            let msg = (0u8..4, 1u32..40, 1u32..3000, 0u32..3000, any::<bool>());
            prop::collection::vec(msg, 1..13)
        }

        /// The window those messages make, as the collect layer offers it.
        fn window(msgs: &[(u8, u32, u32, u32, bool)]) -> Vec<ChunkCandidate> {
            let mut out = Vec::new();
            for (flow, &(class, header, body, committed, header_sent)) in msgs.iter().enumerate() {
                let committed = committed % body;
                let left =
                    u64::from(body - committed) + u64::from(header) * u64::from(!header_sent);
                let class = TrafficClass(class);
                let frags = [
                    (0, 0, header, true),
                    (1, committed, body - committed, false),
                ];
                for (frag, offset, remaining, express) in frags {
                    if frag == 0 && header_sent {
                        continue;
                    }
                    let mut c = cand(flow as u32, 0, frag, offset, remaining, express, class, 0);
                    c.at = out.len() as u32;
                    c.msg_remaining = left;
                    out.push(c);
                }
            }
            out
        }

        fn carried(c: &ChunkCandidate) -> PlannedChunk {
            PlannedChunk {
                flow: c.flow,
                seq: c.seq,
                frag: c.frag,
                offset: c.offset,
                len: c.remaining,
            }
        }

        proptest! {
            #[test]
            fn and_never_more_than_the_weighted_messages_it_touches(
                msgs in messages(),
                limit in 40u64..40_000,
            ) {
                let (caps, cost, cfg) = fixtures();
                let candidates = window(&msgs);
                let groups = vec![DstGroup { dst: NodeId(1), candidates, rndv: vec![] }];
                let mut ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
                ctx.packet_limit = limit;
                let window = &groups[0].candidates;
                // A message carried whole — its header and body, or the
                // body it has left — is worth its class weight once.
                for (flow, &(class, ..)) in msgs.iter().enumerate() {
                    let whole: Vec<_> = window
                        .iter()
                        .filter(|c| c.flow == FlowId(flow as u32))
                        .map(carried)
                        .collect();
                    let value = chunks_value(NodeId(1), &whole, &[], &ctx);
                    let weight = TrafficClass(class).urgency_weight();
                    prop_assert!((value - weight).abs() <= 1e-12 * weight, "{} against {}", value, weight);
                }
                // Any fill is worth at most the weights of the messages it
                // touches.
                let mut out = Proposals::new();
                let filled = fill_packet(&ctx, NodeId(1), window, usize::MAX, "t", &mut out);
                let chunks = filled.map_or(Vec::new(), |p| p.chunks().to_vec());
                let mut touched: Vec<_> = chunks.iter().map(|c| c.flow).collect();
                touched.dedup();
                let bound: f64 = touched
                    .iter()
                    .map(|f| TrafficClass(msgs[f.0 as usize].0).urgency_weight())
                    .sum();
                let value = chunks_value(NodeId(1), &chunks, &[], &ctx);
                prop_assert!(value <= bound * (1.0 + 1e-12), "{} over {}", value, bound);
            }
        }
    }

    mod the_priced_packet_is_the_encoded_packet {
        use super::*;
        use crate::ids::FragIndex;
        use crate::proto::{encode_packet, make_header, WireChunk};
        use bytes::Bytes;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// 1–64 chunks over a few messages of a few flows, so that runs of
        /// one message, messages named twice and fragments cut into
        /// several chunks all occur; a third of the chunks resume their
        /// fragment, and a third say their fragment goes on past them.
        fn chunk_lists() -> impl Strategy<Value = Vec<(PlannedChunk, u32)>> {
            let chunk = (0u32..3, 0u32..2, 0u16..4, 0u32..3, 1u32..300, 0u32..3);
            prop::collection::vec(chunk, 1..65).prop_map(|list| {
                list.into_iter()
                    .map(|(flow, seq, frag, resumed, len, short)| {
                        let chunk = PlannedChunk {
                            flow: FlowId(flow),
                            seq,
                            frag: frag as FragIndex,
                            offset: resumed.saturating_sub(1) * 977,
                            len,
                        };
                        (chunk, short.saturating_sub(1) * 5)
                    })
                    .collect()
            })
        }

        type FragKey = (FlowId, u32, FragIndex);

        /// Each fragment's length, one for all its chunks: where its
        /// furthest chunk ends, and as many bytes more as its first chunk
        /// in the list says it goes on.
        fn frag_lens(list: &[(PlannedChunk, u32)]) -> BTreeMap<FragKey, u32> {
            let mut lens = BTreeMap::new();
            for &(c, short) in list {
                let end = c.offset + c.len;
                lens.entry((c.flow, c.seq, c.frag))
                    .and_modify(|(furthest, _): &mut (u32, u32)| *furthest = end.max(*furthest))
                    .or_insert((end, short));
            }
            lens.into_iter()
                .map(|(key, (end, short))| (key, end + short))
                .collect()
        }

        /// The chunk as `Transfer::submit_data` stamps it, its fragment
        /// `frag_len` bytes long: what a header says of its message is a
        /// function of the message.
        fn stamped(c: &PlannedChunk, frag_len: u32) -> WireChunk {
            WireChunk {
                header: make_header(
                    c.flow,
                    c.seq,
                    c.frag,
                    4,
                    c.frag == 0,
                    TrafficClass(c.flow.0 as u8),
                    frag_len,
                    c.offset,
                    c.len,
                    SimTime::from_nanos(u64::from(c.flow.0) * 1000 + u64::from(c.seq)),
                ),
                data: Bytes::from(vec![0xA5; c.len as usize]),
            }
        }

        /// The window entry of a fragment `frag_len` bytes long, as the
        /// collect layer would offer it before any of it is sent.
        fn offered(at: usize, (flow, seq, frag): FragKey, frag_len: u32) -> ChunkCandidate {
            ChunkCandidate {
                at: at as u32,
                flow,
                seq,
                frag,
                frag_count: 4,
                offset: 0,
                remaining: frag_len,
                msg_remaining: u64::from(frag_len),
                express: frag == 0,
                class: TrafficClass(flow.0 as u8),
                submitted_at: SimTime::from_nanos(u64::from(flow.0) * 1000 + u64::from(seq)),
            }
        }

        proptest! {
            /// `est_busy` is compared with what the NIC is handed: the
            /// bytes selection prices are the bytes the encoder emits, in
            /// the segments it emits them in, and the price is the cost
            /// model's injection time of exactly that (plus the copy).
            #[test]
            fn on_every_rail_in_both_forms(
                list in chunk_lists(),
                tech in prop::sample::select(&calib::REAL_TECHNOLOGIES[..]),
                enable_gather in any::<bool>(),
            ) {
                let (caps, cost) = (calib::capabilities(tech), CostModel::from_params(&calib::params(tech)));
                let lens = frag_lens(&list);
                let list: Vec<PlannedChunk> = list.into_iter().map(|(c, _)| c).collect();
                let wire: Vec<WireChunk> =
                    list.iter().map(|c| stamped(c, lens[&(c.flow, c.seq, c.frag)])).collect();
                let payload: u64 = list.iter().map(|c| u64::from(c.len)).sum();
                let bytes = payload + crate::proto::framing_of(wire.iter().map(|w| w.header));
                let window: Vec<_> =
                    lens.iter().enumerate().map(|(at, (&key, &len))| offered(at, key, len)).collect();
                for linearize in [false, true] {
                    let segs = encode_packet(&wire, linearize);
                    let encoded: u64 = segs.iter().map(|s| s.len() as u64).sum();
                    prop_assert_eq!(encoded, bytes, "linearize {}", linearize);
                    prop_assert_eq!(segs.len(), if linearize { 1 } else { 1 + list.len() });
                    prop_assert_eq!(segs.len(), segments(list.len(), linearize));
                }
                // Every in-tree rail can DMA one copied segment.
                let how = cheapest_injection(&caps, &cost, list.len(), bytes, enable_gather)
                    .expect("the copy goes by DMA");
                let segs = encode_packet(&wire, how.linearize);
                let handed: u64 = segs.iter().map(|s| s.len() as u64).sum();
                let mut busy = cost.injection_time(how.mode, handed, segs.len());
                if how.linearize {
                    busy += cost.copy_time(handed);
                }
                prop_assert_eq!(how.busy, busy);
                // The plan that carries the list is priced the same, its
                // headers stamped from the window.
                let groups = vec![DstGroup { dst: NodeId(1), candidates: window, rndv: vec![] }];
                let cfg = EngineConfig::default();
                let ctx = ctx_fixture(&groups, &caps, &cost, &cfg);
                let plan = data_plan(list.clone(), how.linearize);
                let stamp = |c: &PlannedChunk| window_header(c, NodeId(1), &ctx);
                prop_assert_eq!(estimate_busy(plan.view(), &ctx, stamp), Some(busy));
            }
        }
    }

    #[test]
    fn a_delivery_is_the_injections_before_its_last_packet_and_that_packets_one_way() {
        let header = |flow: u32, len: u32| {
            let c = cand(flow, 0, 0, 0, len, false, TrafficClass::DEFAULT, 0);
            c.whole()
        };
        for tech in calib::REAL_TECHNOLOGIES {
            let (caps, cost) = (
                calib::capabilities(tech),
                CostModel::from_params(&calib::params(tech)),
            );
            let limit = packet_limit(&caps, calib::params(tech).mtu);
            let one_way_of = |bytes: u64| {
                let (mode, _) = injection_mode(&caps, &cost, bytes, 1).expect("admitted");
                cost.one_way(mode, bytes, 1)
            };
            let inject = |bytes: u64| injection_mode(&caps, &cost, bytes, 1).expect("admitted").1;
            // One fragment: a lone packet, priced at CostModel::one_way.
            let mut d = Delivery::new(&caps, &cost, limit);
            let lone = header(0, 300);
            d.push(lone);
            assert!(!d.first_closed(), "{tech:?}");
            let bytes = lone_packet_bytes(&lone);
            assert_eq!(d.first_packet(), one_way_of(bytes), "{tech:?}");
            assert_eq!(d.all(), d.first_packet(), "{tech:?}");
            // Two that fit share it, framed as one packet.
            let other = header(1, 200);
            d.push(other);
            let shared = framing_of([lone, other]) + 500;
            assert_eq!(d.all(), one_way_of(shared), "{tech:?}");
            // A destination apart opens the next packet: the first is
            // injected, the second flies.
            d.apart();
            let far = header(2, 100);
            d.push(far);
            assert!(d.first_closed(), "{tech:?}");
            assert_eq!(d.first_packet(), one_way_of(shared), "{tech:?}");
            let far_bytes = lone_packet_bytes(&far);
            assert_eq!(d.all(), inject(shared) + one_way_of(far_bytes), "{tech:?}");
            // Whole fragments: one that no longer fits starts a packet of
            // its own; one longer than a packet is cut across packets,
            // every byte carried once.
            let mut d = Delivery::new(&caps, &cost, limit);
            let half = (limit / 2) as u32;
            d.push(header(0, half));
            d.push(header(1, half));
            assert!(d.first_closed(), "{tech:?}: two halves and their framing");
            let mut d = Delivery::new(&caps, &cost, limit);
            let long = 2 * limit as u32 + 1;
            d.push(header(0, long));
            assert!(d.first_closed(), "{tech:?}");
            assert_eq!(
                d.first_packet(),
                one_way_of(limit),
                "{tech:?}: the first cut fills a packet"
            );
            assert!(d.all() > inject(limit) * 2, "{tech:?}: three packets");
        }
    }
}

//! # madcoll — collective communication over the optimizing engine
//!
//! Every workload so far drives independent point-to-point flows; MPI-like
//! environments (the paper's §2 framing) add *structurally dependent*
//! traffic: barriers, broadcasts, reductions. madcoll expresses those as
//! dependency-structured multi-flow patterns over the unmodified
//! [`madeleine::api::CommApi`]:
//!
//! * A [`CollPlan`] is a pure function of `(op, algorithm, members,
//!   payload)`: the full send schedule, organized in *rounds*. Member `m`
//!   emits its round-`r` sends once every receive addressed to it in
//!   rounds `< r` has arrived — a deterministic state machine
//!   ([`CollMember`]) whose only external dependency is exactly-once
//!   delivery. Under madrel `Recover` that holds through loss,
//!   duplication, reordering and rail death, so fault-tolerant
//!   collectives fall out for free.
//! * Algorithm selection ([`select_algo`]) is the "fast tuning" decision:
//!   flat tree, binomial tree and ring (ring-allreduce =
//!   reduce-scatter + allgather) are costed with the same analytic
//!   machinery the per-message optimizer uses — the rail's
//!   [`DriverCapabilities`]/[`CostModel`] plus, when a madnet topology is
//!   installed, a [`FabricHint`] (path latency, oversubscription). The
//!   estimate is a pure function of shared inputs, so every member
//!   computes the same winner without any coordination traffic; the
//!   observer member records the decision as
//!   [`EngineEvent::CollProposed`]/[`EngineEvent::CollWon`] madtrace
//!   events for madprof/maddiff attribution.
//! * [`CollApp`] runs a collective job — a list of [`Phase`]s (compute,
//!   collective, barrier) repeated per step — and [`CollStats`]
//!   aggregates its per-op completion and per-step duration
//!   [`LogHistogram`]s and per-algorithm win counts.
//!
//! Payloads are `u64` vectors (8 bytes/element) reduced element-wise by
//! wrapping addition; a barrier is a 1-element token collective.

// madlint: file: deterministic-output
// madlint: file: trace-covered

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use nicdrv::{CostModel, DriverCapabilities};
use simnet::{NodeId, SimDuration, SimTime, Topology, TxMode};

use madeleine::api::{AppDriver, CommApi};
use madeleine::hist::LogHistogram;
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::message::{DeliveredMessage, MessageBuilder, PackMode};
use madeleine::trace::EngineEvent;

/// `chunk` value meaning "the whole payload vector" (every algorithm
/// except ring-allreduce, which tiles the vector into member-count
/// chunks).
pub const CHUNK_FULL: u32 = u32::MAX;

/// A collective operation. Data-carrying ops reduce/move `u64` vectors;
/// the element count is supplied alongside (see [`CollPlan::build`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollOp {
    /// No data: no member completes before every member has started.
    Barrier,
    /// Every member ends holding `root`'s vector.
    Broadcast {
        /// Member whose vector is distributed.
        root: u32,
    },
    /// `root` ends holding the element-wise (wrapping) sum of every
    /// member's vector.
    Reduce {
        /// Member that accumulates the result.
        root: u32,
    },
    /// Every member ends holding the element-wise sum — reduce + broadcast
    /// fused (ring-allreduce runs reduce-scatter + allgather instead).
    Allreduce,
}

impl CollOp {
    /// Stable label (trace events, metrics sections).
    pub fn label(self) -> &'static str {
        match self {
            CollOp::Barrier => "barrier",
            CollOp::Broadcast { .. } => "broadcast",
            CollOp::Reduce { .. } => "reduce",
            CollOp::Allreduce => "allreduce",
        }
    }

    /// The distinguished member the schedules are rooted at (member 0 for
    /// the symmetric ops).
    pub fn root(self) -> u32 {
        match self {
            CollOp::Broadcast { root } | CollOp::Reduce { root } => root,
            CollOp::Barrier | CollOp::Allreduce => 0,
        }
    }

    /// Index into per-op stats arrays ([`CollStats::completion`]).
    pub fn index(self) -> usize {
        match self {
            CollOp::Barrier => 0,
            CollOp::Broadcast { .. } => 1,
            CollOp::Reduce { .. } => 2,
            CollOp::Allreduce => 3,
        }
    }

    /// Payload elements actually carried: a barrier moves a 1-element
    /// token regardless of the requested count.
    pub fn payload_elems(self, elems: u32) -> u32 {
        match self {
            CollOp::Barrier => 1,
            _ => elems.max(1),
        }
    }
}

/// A collective algorithm — the axis "fast tuning" selects over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollAlgo {
    /// Star around the root: one fan-in and/or fan-out round. Cheapest
    /// for small member counts and tiny payloads (one wire latency),
    /// worst at scale (root serializes `n−1` injections, incast fan-in).
    Flat,
    /// Binomial tree: `⌈log2 n⌉` rounds of pairwise exchanges. The
    /// latency-optimal tree for mid/large member counts.
    Binomial,
    /// Ring: neighbor chain. Broadcast/reduce pipeline the full payload
    /// `n−1` hops; allreduce runs bandwidth-optimal reduce-scatter +
    /// allgather over `1/n`-size chunks (2(n−1) rounds, ~`2·bytes/bw`
    /// on the wire regardless of `n`).
    Ring,
}

impl CollAlgo {
    /// All algorithms, in deterministic tie-break order.
    pub const ALL: [CollAlgo; 3] = [CollAlgo::Flat, CollAlgo::Binomial, CollAlgo::Ring];

    /// Stable label (trace events, metrics sections).
    pub fn label(self) -> &'static str {
        match self {
            CollAlgo::Flat => "flat",
            CollAlgo::Binomial => "binomial",
            CollAlgo::Ring => "ring",
        }
    }

    /// Index into per-algorithm stats arrays ([`CollStats::wins`]).
    pub fn index(self) -> usize {
        match self {
            CollAlgo::Flat => 0,
            CollAlgo::Binomial => 1,
            CollAlgo::Ring => 2,
        }
    }
}

/// One scheduled message of a collective: in round `round`, member `src`
/// sends chunk `chunk` (`CHUNK_FULL` = whole vector) of `elems` elements
/// to member `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollSend {
    /// Dependency round; a member emits its round-`r` sends once all its
    /// receives in rounds `< r` have arrived.
    pub round: u32,
    /// Sending member index.
    pub src: u32,
    /// Receiving member index.
    pub dst: u32,
    /// Chunk index, or [`CHUNK_FULL`].
    pub chunk: u32,
    /// Payload elements carried (8 bytes each).
    pub elems: u32,
}

/// The complete, deterministic send schedule of one collective — a pure
/// function of `(op, algo, members, elems)`, identical on every member.
#[derive(Clone, Debug)]
pub struct CollPlan {
    /// The operation.
    pub op: CollOp,
    /// The algorithm the schedule implements.
    pub algo: CollAlgo,
    /// Participating members (`0..members`, member `m` on `nodes[m]`).
    pub members: u32,
    /// Payload elements actually carried (after [`CollOp::payload_elems`]).
    pub elems: u32,
    /// Total rounds (max send round + 1; 0 for the 1-member degenerate).
    pub rounds: u32,
    /// Receives in rounds `< add_rounds` accumulate (element-wise wrapping
    /// add) into the local vector; receives at or above overwrite it —
    /// the reduce phase vs the broadcast/allgather phase.
    pub add_rounds: u32,
    /// Every send of the collective, sorted by `(round, src, dst, chunk)`.
    pub sends: Vec<CollSend>,
}

impl CollPlan {
    /// Is `algo` usable for this shape? Ring-allreduce tiles the vector
    /// into `members` chunks, so it needs at least one element per
    /// member; everything else is always applicable.
    pub fn applicable(op: CollOp, algo: CollAlgo, members: u32, elems: u32) -> bool {
        match (op, algo) {
            (CollOp::Allreduce, CollAlgo::Ring) => op.payload_elems(elems) >= members,
            _ => true,
        }
    }

    /// Build the schedule. Panics if `algo` is not
    /// [applicable](Self::applicable) to the shape.
    pub fn build(op: CollOp, algo: CollAlgo, members: u32, elems: u32) -> CollPlan {
        assert!(members >= 1, "a collective needs at least one member");
        assert!(
            op.root() < members,
            "root {} out of range for {} members",
            op.root(),
            members
        );
        assert!(
            CollPlan::applicable(op, algo, members, elems),
            "{} {} not applicable to {} members x {} elems",
            algo.label(),
            op.label(),
            members,
            elems
        );
        let elems = op.payload_elems(elems);
        let n = members;
        let mut sends: Vec<CollSend> = Vec::new();
        let mut add_rounds = 0u32;
        if n > 1 {
            match (op, algo) {
                (CollOp::Broadcast { root }, CollAlgo::Flat) => {
                    fan_out(&mut sends, 0, root, n, elems);
                }
                (CollOp::Reduce { root }, CollAlgo::Flat) => {
                    fan_in(&mut sends, 0, root, n, elems);
                    add_rounds = 1;
                }
                (CollOp::Allreduce, CollAlgo::Flat) | (CollOp::Barrier, CollAlgo::Flat) => {
                    fan_in(&mut sends, 0, 0, n, elems);
                    fan_out(&mut sends, 1, 0, n, elems);
                    add_rounds = 1;
                }
                (CollOp::Broadcast { root }, CollAlgo::Binomial) => {
                    binomial_bcast(&mut sends, 0, root, n, elems);
                }
                (CollOp::Reduce { root }, CollAlgo::Binomial) => {
                    add_rounds = binomial_reduce(&mut sends, 0, root, n, elems);
                }
                (CollOp::Allreduce, CollAlgo::Binomial) | (CollOp::Barrier, CollAlgo::Binomial) => {
                    add_rounds = binomial_reduce(&mut sends, 0, 0, n, elems);
                    binomial_bcast(&mut sends, add_rounds, 0, n, elems);
                }
                (CollOp::Broadcast { root }, CollAlgo::Ring) => {
                    // Pipeline chain away from the root: store-and-forward
                    // of the full vector, n−1 hops.
                    for i in 0..n - 1 {
                        push(&mut sends, i, pr(root, i, n), pr(root, i + 1, n), elems);
                    }
                }
                (CollOp::Reduce { root }, CollAlgo::Ring) => {
                    // Accumulating chain toward the root: root+1 starts,
                    // each hop adds its vector, the last hop lands on root.
                    for i in 0..n - 1 {
                        push(&mut sends, i, pr(root, i + 1, n), pr(root, i + 2, n), elems);
                    }
                    add_rounds = n - 1;
                }
                (CollOp::Allreduce, CollAlgo::Ring) => {
                    // Reduce-scatter: in round r, member m passes chunk
                    // (m − r) mod n one hop clockwise; after n−1 rounds
                    // member m owns the fully reduced chunk (m+1) mod n.
                    for r in 0..n - 1 {
                        for m in 0..n {
                            let c = (m + n - (r % n)) % n;
                            sends.push(CollSend {
                                round: r,
                                src: m,
                                dst: (m + 1) % n,
                                chunk: c,
                                elems: chunk_elems(elems, n, c),
                            });
                        }
                    }
                    // Allgather: the owned chunk circulates the same way.
                    for s in 0..n - 1 {
                        for m in 0..n {
                            let c = (m + 1 + n - (s % n)) % n;
                            sends.push(CollSend {
                                round: n - 1 + s,
                                src: m,
                                dst: (m + 1) % n,
                                chunk: c,
                                elems: chunk_elems(elems, n, c),
                            });
                        }
                    }
                    add_rounds = n - 1;
                }
                (CollOp::Barrier, CollAlgo::Ring) => {
                    // Token twice around: the gather pass tells member n−1
                    // everyone arrived; the release pass spreads the news.
                    for i in 0..n - 1 {
                        push(&mut sends, i, i, i + 1, elems);
                    }
                    for j in 0..n - 1 {
                        push(&mut sends, n - 1 + j, (n - 1 + j) % n, (n + j) % n, elems);
                    }
                    add_rounds = 2 * (n - 1);
                }
            }
        }
        sends.sort_by_key(|s| (s.round, s.src, s.dst, s.chunk));
        let rounds = sends.iter().map(|s| s.round + 1).max().unwrap_or(0);
        CollPlan {
            op,
            algo,
            members,
            elems,
            rounds,
            add_rounds,
            sends,
        }
    }

    /// Element range `[start, end)` of chunk `chunk` in the tiled vector
    /// (`CHUNK_FULL` covers everything). Tiling is exact: the first
    /// `elems % members` chunks carry one extra element.
    pub fn chunk_range(&self, chunk: u32) -> (usize, usize) {
        if chunk == CHUNK_FULL {
            return (0, self.elems as usize);
        }
        let (q, r) = (self.elems / self.members, self.elems % self.members);
        let start = chunk * q + chunk.min(r);
        (start as usize, (start + q + u32::from(chunk < r)) as usize)
    }
}

/// Elements in chunk `c` of an `elems`-vector tiled into `n` chunks.
fn chunk_elems(elems: u32, n: u32, c: u32) -> u32 {
    elems / n + u32::from(c < elems % n)
}

/// Physical member at offset `i` along the ring starting at `root`.
fn pr(root: u32, i: u32, n: u32) -> u32 {
    (root + i) % n
}

fn push(sends: &mut Vec<CollSend>, round: u32, src: u32, dst: u32, elems: u32) {
    sends.push(CollSend {
        round,
        src,
        dst,
        chunk: CHUNK_FULL,
        elems,
    });
}

/// Star fan-out from `root` in one round.
fn fan_out(sends: &mut Vec<CollSend>, round: u32, root: u32, n: u32, elems: u32) {
    for m in 0..n {
        if m != root {
            push(sends, round, root, m, elems);
        }
    }
}

/// Star fan-in to `root` in one round.
fn fan_in(sends: &mut Vec<CollSend>, round: u32, root: u32, n: u32, elems: u32) {
    for m in 0..n {
        if m != root {
            push(sends, round, m, root, elems);
        }
    }
}

/// `⌈log2 n⌉` for `n ≥ 1`.
fn ceil_log2(n: u32) -> u32 {
    32 - (n - 1).leading_zeros()
}

/// Binomial broadcast from `root` starting at `round0`, over virtual
/// ranks `v = (m + n − root) mod n`: in round `r`, every holder `v < 2^r`
/// forwards to `v + 2^r`.
fn binomial_bcast(sends: &mut Vec<CollSend>, round0: u32, root: u32, n: u32, elems: u32) {
    for r in 0..ceil_log2(n) {
        for v in 0..n.min(1 << r) {
            let peer = v + (1 << r);
            if peer < n {
                push(sends, round0 + r, pr(root, v, n), pr(root, peer, n), elems);
            }
        }
    }
}

/// Binomial reduce to `root`: virtual rank `v > 0` sends its accumulated
/// vector to `v − lsb(v)` in round `trailing_zeros(v)`, after its own
/// children (which occupy strictly lower rounds) have reported. Returns
/// the round count.
fn binomial_reduce(sends: &mut Vec<CollSend>, round0: u32, root: u32, n: u32, elems: u32) -> u32 {
    for v in 1..n {
        let lsb = v & v.wrapping_neg();
        push(
            sends,
            round0 + v.trailing_zeros(),
            pr(root, v, n),
            pr(root, v - lsb, n),
            elems,
        );
    }
    round0 + ceil_log2(n)
}

/// What a madnet topology adds to the per-message cost picture: switched
/// paths are longer than the flat rail the [`CostModel`] was calibrated
/// on, and an oversubscribed core taxes fan-in.
#[derive(Clone, Copy, Debug, Default)]
pub struct FabricHint {
    /// Worst host-pair path latency beyond the single link the flat cost
    /// model already charges (ns).
    pub extra_latency_ns: u64,
    /// Fabric oversubscription ratio in thousandths (1000 = full
    /// bisection), from [`Topology::oversubscription_milli`].
    pub oversub_milli: u64,
}

impl FabricHint {
    /// Derive the hint from an installed topology: longest route from
    /// host 0, minus one hop (the flat-rail equivalent).
    pub fn from_topology(topo: &Topology) -> FabricHint {
        let hosts = topo.hosts();
        let one_hop = if topo.links().is_empty() {
            SimDuration::ZERO
        } else {
            topo.path_latency(&[0])
        };
        let mut worst = SimDuration::ZERO;
        for h in 1..hosts {
            if let Some(path) = topo.route(0, h, 0) {
                worst = worst.max(topo.path_latency(&path));
            }
        }
        FabricHint {
            extra_latency_ns: worst.saturating_sub(one_hop).as_nanos(),
            oversub_milli: topo.oversubscription_milli().max(1000),
        }
    }
}

/// The inputs algorithm selection is parameterized by. Every member must
/// construct an identical config (same rail, same topology) — selection
/// is a pure function of it, which is what lets members agree on the
/// winner without coordination traffic.
#[derive(Clone, Debug)]
pub struct CollConfig {
    /// Fixed algorithm, or `None` for cost-model selection.
    pub algo: Option<CollAlgo>,
    /// Traffic class the collective's flows run under.
    pub class: TrafficClass,
    /// Rail capability descriptor (PIO/DMA envelope).
    pub caps: DriverCapabilities,
    /// Rail analytic cost model.
    pub cost: CostModel,
    /// Present when the rail runs a switched madnet fabric.
    pub hint: Option<FabricHint>,
}

impl CollConfig {
    /// Config for a flat rail of `tech`, selecting automatically.
    pub fn for_tech(tech: simnet::Technology) -> CollConfig {
        CollConfig {
            algo: None,
            class: TrafficClass::DEFAULT,
            caps: nicdrv::calib::capabilities(tech),
            cost: CostModel::from_params(&nicdrv::calib::params(tech)),
            hint: None,
        }
    }

    /// Same, with the fabric hint taken from an installed topology.
    pub fn for_fabric(tech: simnet::Technology, topo: &Topology) -> CollConfig {
        CollConfig {
            hint: Some(FabricHint::from_topology(topo)),
            ..CollConfig::for_tech(tech)
        }
    }
}

/// Transfer mode the estimates price a message of `bytes` in: PIO
/// whenever the rail's PIO cap takes it, DMA otherwise. A coarser rule
/// than the driver's ([`nicdrv::injection_mode`]), which compares the two
/// modes' costs and may pick DMA below the PIO cap.
fn msg_mode(caps: &DriverCapabilities, bytes: u64) -> TxMode {
    if caps.supports_pio && caps.can_pio(bytes) {
        TxMode::Pio
    } else {
        TxMode::Dma
    }
}

/// Analytic completion estimate (ns) for one algorithm, built from the
/// same primitives the per-message optimizer scores plans with.
pub fn estimate_ns(
    op: CollOp,
    algo: CollAlgo,
    members: u32,
    elems: u32,
    caps: &DriverCapabilities,
    cost: &CostModel,
    hint: Option<&FabricHint>,
) -> u64 {
    let n = members as u64;
    if n <= 1 {
        return 0;
    }
    let bytes = 8 * op.payload_elems(elems) as u64;
    let extra = hint.map_or(0, |h| h.extra_latency_ns);
    let oversub = hint.map_or(1000, |h| h.oversub_milli.max(1000));
    let ow = |b: u64| cost.one_way(msg_mode(caps, b), b, 1).as_nanos() + extra;
    let inj = |b: u64| cost.injection_time(msg_mode(caps, b), b, 1).as_nanos();
    // Star phases: the root serializes n−1 injections (fan-out) or
    // receptions (fan-in); fan-in through an oversubscribed core also
    // pays the fabric's contention factor on the serialized part.
    let fan_out_ns = |b: u64| (n - 1) * inj(b) + ow(b);
    let fan_in_ns = |b: u64| (n - 1) * inj(b) * oversub / 1000 + ow(b);
    // Tree/chain phases pay per-hop store-and-forward: inject + one way.
    let hop = |b: u64| inj(b) + ow(b);
    let k = ceil_log2(members) as u64;
    match (op, algo) {
        (CollOp::Broadcast { .. }, CollAlgo::Flat) => fan_out_ns(bytes),
        (CollOp::Reduce { .. }, CollAlgo::Flat) => fan_in_ns(bytes),
        (CollOp::Allreduce | CollOp::Barrier, CollAlgo::Flat) => {
            fan_in_ns(bytes) + fan_out_ns(bytes)
        }
        (CollOp::Broadcast { .. } | CollOp::Reduce { .. }, CollAlgo::Binomial) => k * hop(bytes),
        (CollOp::Allreduce | CollOp::Barrier, CollAlgo::Binomial) => 2 * k * hop(bytes),
        (CollOp::Broadcast { .. } | CollOp::Reduce { .. }, CollAlgo::Ring) => (n - 1) * hop(bytes),
        (CollOp::Allreduce, CollAlgo::Ring) => {
            let chunk = 8 * chunk_elems(op.payload_elems(elems), members, 0) as u64;
            2 * (n - 1) * hop(chunk)
        }
        (CollOp::Barrier, CollAlgo::Ring) => 2 * (n - 1) * hop(bytes),
    }
}

/// Outcome of algorithm selection: the winner plus every candidate's
/// estimate (in [`CollAlgo::ALL`] order), for tracing.
#[derive(Clone, Debug)]
pub struct CollChoice {
    /// Selected algorithm.
    pub algo: CollAlgo,
    /// Winner's estimate (ns).
    pub est_ns: u64,
    /// All applicable candidates as `(algo, est_ns)`.
    pub candidates: Vec<(CollAlgo, u64)>,
}

/// Pick the cheapest applicable algorithm under the rail cost model and
/// fabric hint. Deterministic: ties break in [`CollAlgo::ALL`] order, and
/// the estimate is a pure function of the (shared) inputs, so every
/// member agrees.
pub fn select_algo(
    op: CollOp,
    members: u32,
    elems: u32,
    caps: &DriverCapabilities,
    cost: &CostModel,
    hint: Option<&FabricHint>,
) -> CollChoice {
    let mut candidates = Vec::with_capacity(CollAlgo::ALL.len());
    let mut best: Option<(CollAlgo, u64)> = None;
    for algo in CollAlgo::ALL {
        if !CollPlan::applicable(op, algo, members, elems) {
            continue;
        }
        let est = estimate_ns(op, algo, members, elems, caps, cost, hint);
        candidates.push((algo, est));
        if best.is_none_or(|(_, b)| est < b) {
            best = Some((algo, est));
        }
    }
    let (algo, est_ns) = best.expect("flat/binomial are always applicable");
    CollChoice {
        algo,
        est_ns,
        candidates,
    }
}

/// Express-header bytes prefixing every madcoll message:
/// `coll_id:u64, round:u32, chunk:u32, src_member:u32` little-endian.
pub const HEADER_LEN: usize = 20;

fn header(coll_id: u64, round: u32, chunk: u32, src: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(&coll_id.to_le_bytes());
    h.extend_from_slice(&round.to_le_bytes());
    h.extend_from_slice(&chunk.to_le_bytes());
    h.extend_from_slice(&src.to_le_bytes());
    h
}

/// Parse a madcoll express header, returning
/// `(coll_id, round, chunk, src_member)`.
pub fn parse_header(hdr: &[u8]) -> Option<(u64, u32, u32, u32)> {
    if hdr.len() < HEADER_LEN {
        return None;
    }
    Some((
        u64::from_le_bytes(hdr[0..8].try_into().ok()?),
        u32::from_le_bytes(hdr[8..12].try_into().ok()?),
        u32::from_le_bytes(hdr[12..16].try_into().ok()?),
        u32::from_le_bytes(hdr[16..20].try_into().ok()?),
    ))
}

fn encode_vec(v: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn decode_vec(b: &[u8]) -> Vec<u64> {
    b.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// One member's deterministic state machine for one collective.
///
/// Drive it from an [`AppDriver`]: call [`CollMember::start`] once, feed
/// every receive whose header matches this collective id to
/// [`CollMember::absorb`], and poll [`CollMember::done`]. The machine
/// emits each round's sends as soon as its earlier-round receives are in;
/// it never blocks the engine and needs no timers.
pub struct CollMember {
    id: u64,
    plan: CollPlan,
    choice: Option<CollChoice>,
    me: u32,
    nodes: Vec<NodeId>,
    class: TrafficClass,
    accum: Vec<u64>,
    my_sends: Vec<CollSend>,
    sent: usize,
    needed: BTreeMap<(u32, u32, u32), bool>,
    missing: usize,
    flows: BTreeMap<u32, FlowId>,
    started_at: SimTime,
    started: bool,
    done_at: Option<SimTime>,
}

impl CollMember {
    /// Build member `me` of a collective over `nodes` (member `m` runs on
    /// `nodes[m]`), contributing `init` (length = payload element count;
    /// barriers take a 1-element token). `cfg.algo = None` runs
    /// cost-model selection.
    pub fn new(
        id: u64,
        op: CollOp,
        elems: u32,
        me: u32,
        nodes: Vec<NodeId>,
        init: Vec<u64>,
        cfg: &CollConfig,
    ) -> CollMember {
        let members = nodes.len() as u32;
        assert!(me < members);
        let (algo, choice) = match cfg.algo {
            Some(a) => (a, None),
            None => {
                let c = select_algo(op, members, elems, &cfg.caps, &cfg.cost, cfg.hint.as_ref());
                (c.algo, Some(c))
            }
        };
        let plan = CollPlan::build(op, algo, members, elems);
        assert_eq!(
            init.len(),
            plan.elems as usize,
            "initial vector length must equal the payload element count"
        );
        let my_sends: Vec<CollSend> = plan.sends.iter().copied().filter(|s| s.src == me).collect();
        let mut needed = BTreeMap::new();
        for s in plan.sends.iter().filter(|s| s.dst == me) {
            needed.insert((s.round, s.src, s.chunk), false);
        }
        let missing = needed.len();
        CollMember {
            id,
            plan,
            choice,
            me,
            nodes,
            class: cfg.class,
            accum: init,
            my_sends,
            sent: 0,
            needed,
            missing,
            flows: BTreeMap::new(),
            started_at: SimTime::ZERO,
            started: false,
            done_at: None,
        }
    }

    /// Begin: member 0 records the selection decision on the madtrace
    /// ring ([`EngineEvent::CollProposed`] per candidate, then
    /// [`EngineEvent::CollWon`]), then every member opens its flows and
    /// emits whatever round-0 sends it owns.
    pub fn start(&mut self, api: &mut dyn CommApi) {
        assert!(!self.started, "collective started twice");
        self.started = true;
        self.started_at = api.now();
        if self.me == 0 {
            if let Some(choice) = &self.choice {
                let (op, members) = (self.plan.op, self.plan.members);
                let bytes = 8 * self.plan.elems as u64;
                for &(algo, est_ns) in &choice.candidates {
                    api.note_event(EngineEvent::CollProposed {
                        coll: self.id,
                        op: op.label(),
                        algo: algo.label(),
                        members,
                        bytes,
                        est_ns,
                    });
                }
                api.note_event(EngineEvent::CollWon {
                    coll: self.id,
                    op: op.label(),
                    algo: choice.algo.label(),
                    members,
                    bytes,
                    est_ns: choice.est_ns,
                });
            }
        }
        for s in &self.my_sends {
            self.flows
                .entry(s.dst)
                .or_insert_with(|| api.open_flow(self.nodes[s.dst as usize], self.class));
        }
        self.pump(api);
    }

    /// Absorb one receive of this collective, its header already parsed
    /// by [`parse_header`]: round, chunk, sending member and the raw
    /// little-endian `u64` tile. [`CollApp`] feeds live receives and
    /// replays stashed early ones through here.
    pub fn absorb(&mut self, api: &mut dyn CommApi, round: u32, chunk: u32, src: u32, body: &[u8]) {
        let slot = self
            .needed
            .get_mut(&(round, src, chunk))
            .unwrap_or_else(|| {
                panic!(
                    "member {} got unscheduled send (round {round}, src {src}, chunk {chunk})",
                    self.me
                )
            });
        assert!(
            !*slot,
            "duplicate delivery of (round {round}, src {src}, chunk {chunk}): \
             exactly-once receive is madrel's contract"
        );
        *slot = true;
        self.missing -= 1;
        let body = decode_vec(body);
        let (start, end) = self.plan.chunk_range(chunk);
        assert_eq!(body.len(), end - start, "tile length mismatch");
        if round < self.plan.add_rounds {
            for (a, b) in self.accum[start..end].iter_mut().zip(&body) {
                *a = a.wrapping_add(*b);
            }
        } else {
            self.accum[start..end].copy_from_slice(&body);
        }
        self.pump(api);
    }

    /// Emit every send whose gating rounds are satisfied, in schedule
    /// order; mark completion when nothing is left.
    fn pump(&mut self, api: &mut dyn CommApi) {
        while self.sent < self.my_sends.len() {
            let s = self.my_sends[self.sent];
            let gated = self
                .needed
                .iter()
                .any(|(&(round, _, _), &got)| round < s.round && !got);
            if gated {
                break;
            }
            let (start, end) = self.plan.chunk_range(s.chunk);
            let body = encode_vec(&self.accum[start..end]);
            let flow = self.flows[&s.dst];
            api.send(
                flow,
                MessageBuilder::new()
                    .pack(
                        &header(self.id, s.round, s.chunk, self.me),
                        PackMode::Express,
                    )
                    .pack(&body, PackMode::Cheaper)
                    .build_parts(),
            );
            self.sent += 1;
        }
        if self.sent == self.my_sends.len() && self.missing == 0 && self.done_at.is_none() {
            self.done_at = Some(api.now());
        }
    }

    /// Has this member emitted all its sends and absorbed all its
    /// receives?
    pub fn done(&self) -> bool {
        self.done_at.is_some()
    }

    /// Start→completion span, once [`CollMember::done`].
    pub fn elapsed(&self) -> Option<SimDuration> {
        self.done_at.map(|t| t.since(self.started_at))
    }

    /// The local result vector (meaningful per the op's semantics once
    /// done).
    pub fn value(&self) -> &[u64] {
        &self.accum
    }
}

/// Aggregated madcoll statistics, shared across members through a
/// [`CollHub`].
#[derive(Debug, Default)]
pub struct CollStats {
    /// Collectives started (counted once, by member 0).
    pub started: u64,
    /// Member-level completions (a collective over `n` members adds `n`).
    pub member_completions: u64,
    /// Collectives fully completed (counted once, by member 0).
    pub completed: u64,
    /// Per-op member completion-time histograms ([`CollOp::index`] order:
    /// barrier, broadcast, reduce, allreduce).
    pub completion: [LogHistogram<SimDuration>; 4],
    /// Step spans of a [`CollApp`] job, from its first phase's start to
    /// its last phase's end, one per member per step.
    pub step: LogHistogram<SimDuration>,
    /// Cost-model selection wins per algorithm ([`CollAlgo::index`]
    /// order), counted once per auto-selected collective.
    pub wins: [u64; 3],
    /// Completed collectives whose verified result was wrong.
    pub wrong_results: u64,
}

/// Shared handle to [`CollStats`].
pub type CollHub = Rc<RefCell<CollStats>>;

/// A fresh stats hub.
pub fn coll_hub() -> CollHub {
    CollHub::default()
}

/// One phase of a collective job; a [`CollApp`] step runs the job's
/// phases in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Local work: the next phase starts this long after this one begins
    /// (at once, with no timer, when zero).
    Compute(SimDuration),
    /// One collective over every member of the job.
    Op {
        /// The operation.
        op: CollOp,
        /// Fixed algorithm, or `None` for the job's [`CollConfig::algo`].
        algo: Option<CollAlgo>,
        /// Contribute this member's result of the previous collective (of
        /// the job's element count) instead of `me + step` per element.
        carried: bool,
    },
    /// A token barrier under the job's [`CollConfig::algo`].
    Barrier,
}

impl Phase {
    /// A collective contributing `me + step` per element.
    pub fn op(op: CollOp, algo: Option<CollAlgo>) -> Phase {
        Phase::Op {
            op,
            algo,
            carried: false,
        }
    }

    /// A data-parallel training step: compute, allreduce the gradient (the
    /// ring once it is large enough), then a step barrier.
    pub fn ring_training(compute: SimDuration) -> Vec<Phase> {
        vec![
            Phase::Compute(compute),
            Phase::op(CollOp::Allreduce, None),
            Phase::Barrier,
        ]
    }

    /// A parameter-server training step: compute, reduce the gradients to
    /// rank 0, broadcast the result back, then a step barrier. Both pin the
    /// flat star, the server's shape, so selection cannot reroute it.
    pub fn param_server(compute: SimDuration) -> Vec<Phase> {
        vec![
            Phase::Compute(compute),
            Phase::op(CollOp::Reduce { root: 0 }, Some(CollAlgo::Flat)),
            Phase::Op {
                op: CollOp::Broadcast { root: 0 },
                algo: Some(CollAlgo::Flat),
                carried: true,
            },
            Phase::Barrier,
        ]
    }
}

/// What every member holds after `op` when member `m` contributed
/// `contrib[m]` per element: `None` where the closed form does not say
/// (a barrier's token, a reduce's non-root members, an unknown input).
fn held_after(op: CollOp, contrib: &[Option<u64>]) -> Vec<Option<u64>> {
    let sum = contrib
        .iter()
        .try_fold(0u64, |acc, c| c.map(|c| acc.wrapping_add(c)));
    (0..contrib.len() as u32)
        .map(|m| match op {
            CollOp::Barrier => None,
            CollOp::Broadcast { root } => contrib[root as usize],
            CollOp::Reduce { root } => sum.filter(|_| m == root),
            CollOp::Allreduce => sum,
        })
        .collect()
}

/// An [`AppDriver`] running one member of a collective job: its
/// [`Phase`]s in order, `steps` times. Collective ids number the job's
/// collectives in order, so a one-collective job's id is its iteration;
/// every result is verified in closed form on every member.
pub struct CollApp {
    me: u32,
    nodes: Vec<NodeId>,
    phases: Vec<Phase>,
    elems: u32,
    steps: u32,
    cfg: CollConfig,
    step: u32,
    /// The running (or next) phase of the step.
    phase: usize,
    step_started: SimTime,
    /// Id of the running collective, or of the next one.
    coll_id: u64,
    member: Option<CollMember>,
    /// Receives for collectives not started yet: a peer that finished one
    /// starts the next at once, and flows differ per collective, so no
    /// FIFO order holds. Replayed when that collective begins.
    stash: Vec<(u64, u32, u32, u32, Vec<u8>)>,
    /// What each member holds after the last collective (`held_after`).
    held: Vec<Option<u64>>,
    /// This member's result of the last collective.
    value: Vec<u64>,
    hub: CollHub,
}

impl CollApp {
    /// Member `me` of `iterations` back-to-back collectives of one shape
    /// under `cfg`: the one-phase job.
    pub fn new(
        me: u32,
        nodes: Vec<NodeId>,
        op: CollOp,
        elems: u32,
        iterations: u32,
        cfg: CollConfig,
        hub: CollHub,
    ) -> CollApp {
        let phases = vec![Phase::op(op, None)];
        CollApp::job(me, nodes, phases, elems, iterations, cfg, hub)
    }

    /// Member `me` of a job that runs `phases` `steps` times over
    /// `elems`-element vectors (member `m` on `nodes[m]`).
    pub fn job(
        me: u32,
        nodes: Vec<NodeId>,
        phases: Vec<Phase>,
        elems: u32,
        steps: u32,
        cfg: CollConfig,
        hub: CollHub,
    ) -> CollApp {
        CollApp {
            me,
            nodes,
            phases,
            elems,
            steps,
            cfg,
            step: 0,
            phase: 0,
            step_started: SimTime::ZERO,
            coll_id: 0,
            member: None,
            stash: Vec::new(),
            held: Vec::new(),
            value: Vec::new(),
            hub,
        }
    }

    /// One app per member of the one-phase job plus the shared hub, ready
    /// for the cluster harness (member `m` on node `m`).
    pub fn ranks(
        op: CollOp,
        elems: u32,
        members: u32,
        iterations: u32,
        cfg: &CollConfig,
    ) -> (Vec<Option<Box<dyn AppDriver>>>, CollHub) {
        CollApp::job_ranks(vec![Phase::op(op, None)], elems, members, iterations, cfg)
    }

    /// [`CollApp::ranks`] for a job of any phases.
    pub fn job_ranks(
        phases: Vec<Phase>,
        elems: u32,
        members: u32,
        steps: u32,
        cfg: &CollConfig,
    ) -> (Vec<Option<Box<dyn AppDriver>>>, CollHub) {
        let hub = coll_hub();
        let nodes: Vec<NodeId> = (0..members).map(NodeId).collect();
        let apps = (0..members)
            .map(|m| {
                let app = CollApp::job(
                    m,
                    nodes.clone(),
                    phases.clone(),
                    elems,
                    steps,
                    cfg.clone(),
                    hub.clone(),
                );
                Some(Box::new(app) as Box<dyn AppDriver>)
            })
            .collect();
        (apps, hub)
    }

    /// Run phases from the current one until one waits — on its compute
    /// timer or on its collective's receives — or the job ends.
    fn run(&mut self, api: &mut dyn CommApi) {
        while self.step < self.steps {
            if self.phase == self.phases.len() {
                let span = api.now().since(self.step_started);
                self.hub.borrow_mut().step.record(span);
                self.step += 1;
                self.phase = 0;
                continue;
            }
            if self.phase == 0 {
                self.step_started = api.now();
            }
            let (op, algo, carried) = match self.phases[self.phase] {
                Phase::Compute(delay) if delay.is_zero() => {
                    self.phase += 1;
                    continue;
                }
                Phase::Compute(delay) => {
                    api.set_timer(delay, 0);
                    return;
                }
                Phase::Op { op, algo, carried } => (op, algo, carried),
                Phase::Barrier => (CollOp::Barrier, None, false),
            };
            self.begin(api, op, algo, carried);
            if !self.member.as_ref().is_some_and(CollMember::done) {
                return;
            }
            self.finish();
        }
        assert!(
            self.stash.is_empty(),
            "member {} ended its job with {} stashed receives",
            self.me,
            self.stash.len()
        );
    }

    /// Start the current phase's collective and replay the receives that
    /// arrived for it before it began.
    fn begin(&mut self, api: &mut dyn CommApi, op: CollOp, algo: Option<CollAlgo>, carried: bool) {
        let (init, contrib) = if carried {
            (
                std::mem::take(&mut self.value),
                std::mem::take(&mut self.held),
            )
        } else {
            let step = u64::from(self.step);
            let mine = vec![u64::from(self.me) + step; op.payload_elems(self.elems) as usize];
            (
                mine,
                (0..self.nodes.len() as u64)
                    .map(|m| Some(m + step))
                    .collect(),
            )
        };
        self.held = held_after(op, &contrib);
        let cfg = CollConfig {
            algo: algo.or(self.cfg.algo),
            ..self.cfg.clone()
        };
        let mut m = CollMember::new(
            self.coll_id,
            op,
            self.elems,
            self.me,
            self.nodes.clone(),
            init,
            &cfg,
        );
        if self.me == 0 {
            let mut hub = self.hub.borrow_mut();
            hub.started += 1;
            if let Some(choice) = &m.choice {
                hub.wins[choice.algo.index()] += 1;
            }
        }
        m.start(api);
        let id = self.coll_id;
        let (ready, later) = std::mem::take(&mut self.stash)
            .into_iter()
            .partition::<Vec<_>, _>(|e| e.0 == id);
        self.stash = later;
        for (_, round, chunk, src, body) in ready {
            m.absorb(api, round, chunk, src, &body);
        }
        self.member = Some(m);
    }

    /// Record the finished collective and move past its phase.
    fn finish(&mut self) {
        let m = self.member.take().expect("a finished collective");
        let mut hub = self.hub.borrow_mut();
        hub.member_completions += 1;
        hub.completion[m.plan.op.index()].record(m.elapsed().expect("done"));
        if let Some(want) = self.held[self.me as usize] {
            if !m.value().iter().all(|&x| x == want) {
                hub.wrong_results += 1;
            }
        }
        if self.me == 0 {
            hub.completed += 1;
        }
        self.value = m.accum;
        self.coll_id += 1;
        self.phase += 1;
    }
}

impl AppDriver for CollApp {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        self.run(api);
    }

    /// The one timer a member sets ends its running compute phase.
    fn on_timer(&mut self, api: &mut dyn CommApi, _tag: u64) {
        self.phase += 1;
        self.run(api);
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        let Some((_, hdr)) = msg.fragments.first() else {
            return;
        };
        let Some((coll_id, round, chunk, src)) = parse_header(hdr) else {
            return;
        };
        assert!(
            coll_id >= self.coll_id,
            "member {} got a receive for finished collective {coll_id} (now at {})",
            self.me,
            self.coll_id
        );
        let body = msg
            .fragments
            .get(1)
            .map(|(_, b)| b.as_ref())
            .unwrap_or_default();
        match self.member.as_mut() {
            Some(m) if coll_id == self.coll_id => {
                m.absorb(api, round, chunk, src, body);
                if m.done() {
                    self.finish();
                    self.run(api);
                }
            }
            _ => self.stash.push((coll_id, round, chunk, src, body.to_vec())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madeleine::harness::{Cluster, ClusterSpec};
    use simnet::Technology;

    fn run_cells(
        op: CollOp,
        elems: u32,
        members: u32,
        iterations: u32,
        algo: Option<CollAlgo>,
    ) -> CollHub {
        let cfg = CollConfig {
            algo,
            ..CollConfig::for_tech(Technology::MyrinetMx)
        };
        let (apps, hub) = CollApp::ranks(op, elems, members, iterations, &cfg);
        let spec = ClusterSpec::new(members as usize, vec![Technology::MyrinetMx]);
        let mut c = Cluster::build(&spec, apps);
        c.drain();
        hub
    }

    #[test]
    fn every_op_and_algo_completes_and_verifies() {
        for op in [
            CollOp::Barrier,
            CollOp::Broadcast { root: 2 },
            CollOp::Reduce { root: 1 },
            CollOp::Allreduce,
        ] {
            for algo in CollAlgo::ALL {
                for members in [1u32, 2, 3, 5, 8] {
                    if op.root() >= members || !CollPlan::applicable(op, algo, members, 9) {
                        continue;
                    }
                    let hub = run_cells(op, 9, members, 3, Some(algo));
                    let s = hub.borrow();
                    assert_eq!(
                        s.completed,
                        3,
                        "{} {} n={members}",
                        op.label(),
                        algo.label()
                    );
                    assert_eq!(s.member_completions, 3 * members as u64);
                    assert_eq!(s.wrong_results, 0, "{} {}", op.label(), algo.label());
                }
            }
        }
    }

    #[test]
    fn auto_selection_completes_and_counts_wins() {
        let hub = run_cells(CollOp::Allreduce, 64, 6, 4, None);
        let s = hub.borrow();
        assert_eq!(s.completed, 4);
        assert_eq!(s.wrong_results, 0);
        assert_eq!(s.wins.iter().sum::<u64>(), 4, "one win per collective");
    }

    #[test]
    fn works_on_legacy_engine_too() {
        let cfg = CollConfig::for_tech(Technology::MyrinetMx);
        let (apps, hub) = CollApp::ranks(CollOp::Allreduce, 8, 6, 3, &cfg);
        let spec = ClusterSpec::new(6, vec![Technology::MyrinetMx]).legacy();
        Cluster::build(&spec, apps).drain();
        let s = hub.borrow();
        assert_eq!(
            (s.completed, s.member_completions, s.wrong_results),
            (3, 18, 0)
        );
    }

    /// A member that reports its stash's peak and final length.
    struct Watched {
        app: CollApp,
        stash: Rc<RefCell<(usize, usize)>>,
    }

    impl Watched {
        fn note(&self) {
            let mut s = self.stash.borrow_mut();
            *s = (s.0.max(self.app.stash.len()), self.app.stash.len());
        }
    }

    impl AppDriver for Watched {
        fn on_start(&mut self, api: &mut dyn CommApi) {
            self.app.on_start(api);
            self.note();
        }

        fn on_timer(&mut self, api: &mut dyn CommApi, tag: u64) {
            self.app.on_timer(api, tag);
            self.note();
        }

        fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
            self.app.on_message(api, msg);
            self.note();
        }
    }

    /// Run `phases` × `steps` over `members` on one MX rail (under
    /// `Recover` with `faults` when given) and check that every member
    /// ends its job with an empty stash; returns the hub and the largest
    /// stash any member held.
    fn run_job(
        phases: Vec<Phase>,
        elems: u32,
        members: u32,
        steps: u32,
        faults: Option<simnet::FaultPlan>,
    ) -> (CollHub, usize) {
        let cfg = CollConfig::for_tech(Technology::MyrinetMx);
        let (hub, nodes) = (coll_hub(), (0..members).map(NodeId).collect::<Vec<_>>());
        let stashes: Vec<_> = (0..members).map(|_| Rc::default()).collect();
        let apps = stashes
            .iter()
            .enumerate()
            .map(|(m, stash)| {
                let app = CollApp::job(
                    m as u32,
                    nodes.clone(),
                    phases.clone(),
                    elems,
                    steps,
                    cfg.clone(),
                    hub.clone(),
                );
                let stash = Rc::clone(stash);
                Some(Box::new(Watched { app, stash }) as Box<dyn AppDriver>)
            })
            .collect();
        let mut spec = ClusterSpec::new(members as usize, vec![Technology::MyrinetMx]);
        if faults.is_some() {
            spec = spec.config(madeleine::EngineConfig {
                reliability: madeleine::ReliabilityMode::Recover,
                ..madeleine::EngineConfig::default()
            });
        }
        let mut c = Cluster::build(&spec, apps);
        if let Some(plan) = faults {
            c.set_fault_plan(0, plan);
        }
        c.drain();
        for (m, stash) in stashes.iter().enumerate() {
            assert_eq!(
                stash.borrow().1,
                0,
                "member {m} ended with stashed receives"
            );
        }
        let peak = stashes.iter().map(|s| s.borrow().0).max().unwrap_or(0);
        (hub, peak)
    }

    const COMPUTE: SimDuration = SimDuration::from_micros(20);

    #[test]
    fn ring_allreduce_training_verifies_every_step() {
        for ranks in [2u32, 4, 6] {
            let (hub, _) = run_job(Phase::ring_training(COMPUTE), 64, ranks, 4, None);
            let s = hub.borrow();
            let per_rank = 4 * u64::from(ranks);
            assert_eq!(s.step.count(), per_rank, "{ranks} ranks");
            assert_eq!(s.wrong_results, 0, "{ranks} ranks");
            assert_eq!(s.completion[CollOp::Allreduce.index()].count(), per_rank);
            assert_eq!(s.completion[CollOp::Barrier.index()].count(), per_rank);
        }
    }

    #[test]
    fn param_server_training_verifies_every_step() {
        let (hub, _) = run_job(Phase::param_server(COMPUTE), 32, 5, 3, None);
        let s = hub.borrow();
        assert_eq!(s.step.count(), 5 * 3);
        assert_eq!(s.completed, 3 * 3, "reduce, broadcast and barrier per step");
        assert_eq!(s.wrong_results, 0);
    }

    #[test]
    fn steps_cost_at_least_the_compute_delay() {
        let (hub, _) = run_job(Phase::ring_training(COMPUTE), 16, 3, 2, None);
        assert!(hub.borrow().step.quantile(0.5) >= COMPUTE);
    }

    /// A carried broadcast at a non-zero root returns the reduced vector
    /// to every member, and the closed form knows it everywhere.
    #[test]
    fn a_carried_broadcast_at_a_nonzero_root_verifies() {
        let root = 2;
        let phases = vec![
            Phase::Compute(COMPUTE),
            Phase::op(CollOp::Reduce { root }, None),
            Phase::Op {
                op: CollOp::Broadcast { root },
                algo: None,
                carried: true,
            },
        ];
        let (hub, _) = run_job(phases, 24, 5, 3, None);
        let s = hub.borrow();
        assert_eq!(s.completion[CollOp::Broadcast { root }.index()].count(), 15);
        assert_eq!(s.wrong_results, 0);
        let fresh: Vec<_> = (0..5).map(|m| Some(m + 1)).collect();
        let reduced = held_after(CollOp::Reduce { root }, &fresh);
        let back = held_after(CollOp::Broadcast { root }, &reduced);
        assert_eq!(back, vec![Some(15); 5], "Σ (m + 1) reaches every member");
    }

    /// Loss and reordering let peers race ahead across phases: early
    /// receives are stashed, replayed, and every step still verifies. At
    /// 16 members the cost model runs the barrier as a binomial tree, so a
    /// peer that has the broadcast already signals one still waiting for
    /// it (the flat star of smaller jobs routes everything through the
    /// server, which is never behind). Whether a given loss pattern races
    /// a peer ahead is the fault seed's dice (about two seeds in three),
    /// so four seeds run: every step of each verifies, and some receive
    /// arrives early on at least one.
    #[test]
    fn param_server_under_loss_and_reorder_replays_the_stash() {
        const MEMBERS: u32 = 16;
        let mut peaks = Vec::new();
        for seed in 42..46 {
            let faults = simnet::FaultPlan::new(seed)
                .with_loss(0.02)
                .with_reorder(0.05, SimDuration::from_micros(5));
            let (hub, peak) = run_job(Phase::param_server(COMPUTE), 256, MEMBERS, 6, Some(faults));
            let s = hub.borrow();
            assert_eq!(s.step.count(), u64::from(MEMBERS) * 6, "seed {seed}");
            assert_eq!(s.wrong_results, 0, "seed {seed}");
            peaks.push(peak);
        }
        assert!(
            peaks.iter().any(|&p| p > 0),
            "no receive ever arrived early: {peaks:?}"
        );
    }

    #[test]
    fn ring_allreduce_tiling_is_exact() {
        for (members, elems) in [(4u32, 11u32), (5, 5), (8, 64), (3, 1000)] {
            let plan = CollPlan::build(CollOp::Allreduce, CollAlgo::Ring, members, elems);
            let mut total = 0u32;
            for c in 0..members {
                let (s, e) = plan.chunk_range(c);
                total += (e - s) as u32;
            }
            assert_eq!(total, elems, "tiling must cover the vector exactly");
            assert_eq!(plan.rounds, 2 * (members - 1));
            // Every send carries exactly its chunk's tile.
            for s in &plan.sends {
                let (a, b) = plan.chunk_range(s.chunk);
                assert_eq!(s.elems as usize, b - a);
            }
        }
    }

    #[test]
    fn selection_regimes_match_the_analytic_story() {
        let caps = nicdrv::calib::capabilities(Technology::MyrinetMx);
        let cost = CostModel::from_params(&nicdrv::calib::params(Technology::MyrinetMx));
        // Tiny fan-out, few members: one wire latency beats log2(n) of them.
        let small = select_algo(CollOp::Broadcast { root: 0 }, 4, 4, &caps, &cost, None);
        assert_eq!(small.algo, CollAlgo::Flat);
        // Mid-size broadcast at scale: the root's serialized injections
        // dominate, the binomial tree parallelizes them.
        let mid = select_algo(CollOp::Broadcast { root: 0 }, 16, 1024, &caps, &cost, None);
        assert_eq!(mid.algo, CollAlgo::Binomial);
        // Large allreduce: ring moves 2·bytes/bw independent of n.
        let big = select_algo(CollOp::Allreduce, 8, 32768, &caps, &cost, None);
        assert_eq!(big.algo, CollAlgo::Ring);
    }

    #[test]
    fn plans_are_round_gated_dags() {
        // A send's gating receives all live in strictly earlier rounds by
        // construction; spot-check the invariant the checker relies on.
        for algo in CollAlgo::ALL {
            let plan = CollPlan::build(CollOp::Allreduce, algo, 7, 7);
            for s in &plan.sends {
                assert!(s.round < plan.rounds);
            }
        }
    }

    #[test]
    fn trace_events_record_the_selection() {
        let cfg = CollConfig::for_tech(Technology::MyrinetMx);
        let (apps, _hub) = CollApp::ranks(CollOp::Allreduce, 16, 4, 2, &cfg);
        let mut spec = ClusterSpec::new(4, vec![Technology::MyrinetMx]);
        spec.engine_trace = Some(4096);
        let mut c = Cluster::build(&spec, apps);
        c.drain();
        let snap = c.handle(0).opt().expect("optimizing").trace_snapshot();
        let proposed = snap
            .iter()
            .filter(|r| matches!(r.event, EngineEvent::CollProposed { .. }))
            .count();
        let won: Vec<_> = snap
            .iter()
            .filter_map(|r| match &r.event {
                EngineEvent::CollWon { algo, .. } => Some(*algo),
                _ => None,
            })
            .collect();
        assert_eq!(won.len(), 2, "one CollWon per collective");
        assert_eq!(proposed, 6, "three candidates per collective");
        // Other members stay silent: the decision is shared, the record
        // is singular.
        let other = c.handle(1).opt().expect("optimizing").trace_snapshot();
        assert_eq!(
            other
                .iter()
                .filter(|r| matches!(
                    r.event,
                    EngineEvent::CollProposed { .. } | EngineEvent::CollWon { .. }
                ))
                .count(),
            0
        );
    }
}

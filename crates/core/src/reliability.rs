//! madrel — the reliability layer of the transfer engine.
//!
//! The paper assumes lossless high-speed fabrics, so the seed engine treats
//! *injection* as *completion*: once the NIC reports `tx_done` the chunk is
//! accounted as sent, and a packet lost on the wire silently loses its
//! messages. madrel closes that gap:
//!
//! * every data packet is tracked in a [`RetransmitTracker`] from its
//!   submission until the receiver's acknowledgement returns — the
//!   engine's one record of it: under `Off` the same record is completed
//!   when the packet leaves the NIC;
//! * its timeout is kept by the cost model: the clock starts when the
//!   packet leaves the NIC (`tx_done` — nothing loses it in its own
//!   queue), and runs for the packet's *own* modelled flight on *its*
//!   rail plus a per-rail margin learned from how much later than the
//!   model acks have come back (`EngineConfig::retransmit_timeout` is
//!   only the margin's initial value), doubled per attempt;
//! * a timeout re-sends the packet's chunks under a fresh cookie — the
//!   original commit accounting is reused, never repeated — and the old
//!   cookie is remembered: its ack, should it still come, settles what
//!   superseded it exactly once, tells the margin how late it was and
//!   gives the rail back the health the spurious timeout took;
//! * a retransmission that finds the NIC queue full has not happened: the
//!   packet is parked as it is and offered again at the next `tx_done`;
//! * a [`RailHealth`] EWMA of timeouts vs. acks per rail feeds the cost
//!   model (degraded rails look slower, so the optimizer reroutes), and a
//!   rail is declared dead on budget **and** silence: a packet's retry
//!   budget spent and not one ack on the rail since its last
//!   transmission;
//! * retransmits rerouted to a different rail are re-chunked by
//!   [`plan_retransmit`] so they respect the target driver's capabilities;
//! * a rendezvous request is tracked until its grant returns, under the
//!   same margin, backoff and retry budget: a lost request or a lost
//!   grant is asked again (the receiver's grant and the sender's handling
//!   of it are idempotent), so the handshake cannot strand a message;
//! * idle rails pull the shared backlog fastest-first
//!   (`Reliability::pull_order`).
//!
//! Everything here is driven by the simulation clock and the engine's
//! deterministic event order: identical seeds yield identical recovery
//! traces.

// madlint: file: hot-path
// madlint: file: deterministic-output
// madlint: file: trace-covered

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use nicdrv::{CostModel, DriverCapabilities};
use simnet::{NodeId, SimCtx, SimDuration, SimTime, TimerId};

use crate::api::RETX_TAG;
use crate::config::EngineConfig;
use crate::constraints::max_gather_chunks;
use crate::cost::{one_way, packet_limit};
use crate::ids::{FlowId, FragIndex};
use crate::observer::Observer;
use crate::plan::PlannedChunk;
use crate::proto::{self, lone_chunk_framing, wire_bytes, Framing};
use crate::trace::EngineEvent;

/// How the engine treats packet loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReliabilityMode {
    /// The paper's lossless assumption: completion equals injection; a
    /// dropped packet silently loses its chunks (the NICs' wire-drop
    /// counters are the only witnesses).
    Off,
    /// Full recovery: ack tracking, timeout + backoff retransmission,
    /// rail-death rerouting. What no live rail can carry any more is
    /// counted lost, and a rail declared dead or a lost message fires
    /// the flight recorder.
    Recover,
}

/// A data packet between submission and completion.
#[derive(Clone, Debug)]
pub struct PendingTx {
    /// The chunks the packet carried (retransmission re-encodes these from
    /// the collect layer's still-held payload).
    pub chunks: Vec<PlannedChunk>,
    /// Destination node.
    pub dst: NodeId,
    /// Rail index the packet went out on.
    pub rail: usize,
    /// Whether the packet was linearized (copy) rather than gathered.
    pub linearize: bool,
    /// When the (latest attempt of the) packet left the NIC — until then,
    /// when it entered the NIC's queue.
    pub sent_at: SimTime,
    /// When the current attempt times out: [`SimTime::MAX`] while the
    /// packet waits in its own NIC's queue, where nothing can lose it.
    pub deadline: SimTime,
    /// Transmission attempts so far (1 = original send).
    pub attempts: u32,
}

/// Tracks data packets between submission and completion.
///
/// The tracker keys by cookie in a `BTreeMap` so iteration — and therefore
/// timer scheduling and retransmit order — is deterministic.
#[derive(Debug, Default)]
pub struct RetransmitTracker {
    pending: BTreeMap<u64, PendingTx>,
}

impl RetransmitTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        RetransmitTracker::default()
    }

    /// Track a freshly submitted data packet.
    pub fn track(&mut self, cookie: u64, tx: PendingTx) {
        self.pending.insert(cookie, tx);
    }

    /// Stop tracking `cookie` (ack received, timed out, given up, or —
    /// under `Off` — launched). Returns the entry when it was still
    /// tracked — a duplicate ack returns `None`.
    pub fn acked(&mut self, cookie: u64) -> Option<PendingTx> {
        self.pending.remove(&cookie)
    }

    /// The tracked packet of `cookie`, to restamp it.
    pub fn pending_mut(&mut self, cookie: u64) -> Option<&mut PendingTx> {
        self.pending.get_mut(&cookie)
    }

    /// Number of tracked packets.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The earliest deadline over all pending packets.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.values().map(|p| p.deadline).min()
    }

    /// Cookies whose deadline has passed at `now`, in cookie order.
    pub fn expired(&self, now: SimTime) -> Vec<u64> {
        self.pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&c, _)| c)
            .collect()
    }

    /// Backoff for the `attempts`-th retry: `base << (attempts - 1)`,
    /// saturating. Attempt 1 (the original send) waits `base`.
    pub fn backoff(base: SimDuration, attempts: u32) -> SimDuration {
        let shift = attempts.saturating_sub(1).min(20);
        SimDuration::from_nanos(base.as_nanos().saturating_mul(1u64 << shift))
    }
}

/// Exponentially weighted health of one rail, fed by ack/timeout outcomes.
///
/// The score sits in `[0, 1]`: 1.0 = every tracked packet acked, 0.0 =
/// every tracked packet timed out. It decays with weight `ALPHA` per
/// observation, so a rail recovers its reputation after a burst passes.
#[derive(Clone, Debug)]
pub struct RailHealth {
    score: f64,
    acks: u64,
    timeouts: u64,
    dead: bool,
    degraded_announced: bool,
    /// madnet: EWMA of the fraction of acked packets that came back
    /// ECN-marked, in `[0, 1]` (0 = no fabric congestion observed).
    congestion: f64,
    ecn_marks: u64,
}

impl Default for RailHealth {
    fn default() -> Self {
        RailHealth {
            score: 1.0,
            acks: 0,
            timeouts: 0,
            dead: false,
            degraded_announced: false,
            congestion: 0.0,
            ecn_marks: 0,
        }
    }
}

impl RailHealth {
    /// EWMA weight of one new observation.
    const ALPHA: f64 = 0.2;
    /// Health below this is "degraded": the cost model is penalized and a
    /// `RailDegraded` event is announced (once per degradation episode).
    const DEGRADED_BELOW: f64 = 0.6;

    /// Fresh, fully healthy rail.
    pub fn new() -> Self {
        RailHealth::default()
    }

    /// Record a successful acknowledgement.
    pub fn on_ack(&mut self) {
        self.acks += 1;
        self.score = (1.0 - Self::ALPHA) * self.score + Self::ALPHA;
        if self.score >= Self::DEGRADED_BELOW {
            self.degraded_announced = false;
        }
    }

    /// Record a timeout. Returns `true` when this observation newly pushed
    /// the rail into the degraded band (callers emit `RailDegraded` once).
    pub fn on_timeout(&mut self) -> bool {
        self.timeouts += 1;
        self.score *= 1.0 - Self::ALPHA;
        if self.score < Self::DEGRADED_BELOW && !self.degraded_announced && !self.dead {
            self.degraded_announced = true;
            return true;
        }
        false
    }

    /// A timeout recorded earlier turned out spurious — the packet's ack
    /// arrived after all: give back what [`RailHealth::on_timeout`] took.
    pub fn forgive_timeout(&mut self) {
        self.score = (self.score / (1.0 - Self::ALPHA)).min(1.0);
    }

    /// Declare the rail permanently dead (retry budget exhausted).
    pub fn declare_dead(&mut self) {
        self.dead = true;
        self.score = 0.0;
    }

    /// Whether the rail has been declared dead.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Whether the rail is currently in the degraded band.
    pub fn is_degraded(&self) -> bool {
        self.score < Self::DEGRADED_BELOW
    }

    /// Health score in `[0, 1]`.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Acks observed.
    pub fn acks(&self) -> u64 {
        self.acks
    }

    /// Timeouts observed.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// madnet: EWMA weight of one congestion observation. Faster than
    /// the loss EWMA (`ALPHA`): ECN marks arrive per acked packet, and
    /// an elephant saturating a shared core marks nearly every packet,
    /// so the signal is dense and low-noise.
    const CONGESTION_ALPHA: f64 = 0.3;
    /// madnet: how strongly full congestion (EWMA = 1.0) inflates the
    /// cost penalty. 8× makes a saturated rail lose idle-rail ordering
    /// and plan contests against any clean alternative while staying
    /// finite (a congested rail is slow, not lost).
    const CONGESTION_WEIGHT: f64 = 8.0;

    /// madnet: fold one acked packet's ECN echo into the congestion
    /// EWMA. `react` is the engine's `congestion_aware` switch: when
    /// off, marks are *counted* (observability) but the EWMA — and thus
    /// [`RailHealth::cost_penalty`] — stays untouched, which is exactly
    /// the congestion-blind baseline E14 compares against.
    pub fn on_congestion(&mut self, marked: bool, react: bool) {
        if marked {
            self.ecn_marks += 1;
        }
        if react {
            let obs = if marked { 1.0 } else { 0.0 };
            self.congestion =
                (1.0 - Self::CONGESTION_ALPHA) * self.congestion + Self::CONGESTION_ALPHA * obs;
        }
    }

    /// madnet: congestion EWMA in `[0, 1]`.
    pub fn congestion(&self) -> f64 {
        self.congestion
    }

    /// madnet: acked packets that returned with an ECN mark.
    pub fn ecn_marks(&self) -> u64 {
        self.ecn_marks
    }

    /// madnet: the congestion factor (≥ 1.0) of the penalty — split out
    /// so rndv gating can react to fabric load without inheriting the
    /// loss-health component.
    pub fn congestion_penalty(&self) -> f64 {
        1.0 + Self::CONGESTION_WEIGHT * self.congestion
    }

    /// Multiplier (>= 1.0) applied to a plan's estimated busy time on this
    /// rail, so degraded rails lose cost-model contests proportionally to
    /// their unreliability. A healthy rail costs 1.0; the floor on `score`
    /// keeps the penalty finite for merely-degraded rails. Fabric
    /// congestion (madnet ECN echoes) multiplies in, so a rail crossing a
    /// loaded core looks expensive even when it loses nothing.
    pub fn cost_penalty(&self) -> f64 {
        if self.dead {
            // Effectively infinite: any live rail wins.
            return 1e9;
        }
        (1.0 / self.score.max(0.05)) * self.congestion_penalty()
    }
}

/// Re-chunk a timed-out packet's chunks for (re)transmission on a rail
/// with the given capabilities. Within one fragment the byte ranges are
/// preserved exactly; they are only re-segmented so that every emitted
/// packet respects the target driver's PIO size cap, gather width, and
/// the rail's wire MTU. Returns one chunk list per packet to send.
pub fn plan_retransmit(
    chunks: &[PlannedChunk],
    caps: &DriverCapabilities,
    wire_mtu: u64,
) -> Vec<Vec<PlannedChunk>> {
    // What the rail carries in one packet, payload and framing.
    let limit = packet_limit(caps, wire_mtu);
    // Gather width: header block occupies one entry, each chunk one more.
    // Linearized (copy) packets have no gather constraint, but splitting to
    // the gather width is always safe, so we honor it unconditionally —
    // this is what the madcheck conformance rule verifies.
    let max_chunks = max_gather_chunks(caps).max(1);

    let mut packets: Vec<Vec<PlannedChunk>> = Vec::new();
    let mut current: Vec<PlannedChunk> = Vec::new();
    let mut payload = 0u64;
    let mut framing = Framing::new();
    for chunk in chunks {
        let mut offset = chunk.offset;
        let mut remaining = chunk.len;
        while remaining > 0 {
            // Split the chunk itself if it alone exceeds what a packet of
            // its own carries behind the header it would get there.
            let single_cap = limit.saturating_sub(lone_chunk_framing(offset)).max(1);
            let piece = u64::from(remaining).min(single_cap) as u32;
            let fits_count = current.len() < max_chunks;
            let header = framing.next(chunk.flow, chunk.seq, offset);
            let fits_bytes = framing.bytes() + header + payload + u64::from(piece) <= limit;
            if !current.is_empty() && !(fits_count && fits_bytes) {
                packets.push(std::mem::take(&mut current));
                payload = 0;
                framing = Framing::new();
            }
            framing.push(chunk.flow, chunk.seq, offset);
            payload += u64::from(piece);
            current.push(PlannedChunk {
                flow: chunk.flow,
                seq: chunk.seq,
                frag: chunk.frag,
                offset,
                len: piece,
            });
            offset += piece;
            remaining -= piece;
        }
    }
    if !current.is_empty() {
        packets.push(current);
    }
    packets
}

/// madnet congestion gate: a rail whose congestion penalty exceeds the
/// best live rail's by more than this factor declines to pull the shared
/// backlog. Read against [`RailHealth::CONGESTION_WEIGHT`]: a fully
/// marked rail sits at 9.0, so the gate closes once the congestion EWMA
/// passes 1/8 while another rail is clean.
const CONGESTION_GATE_RATIO: f64 = 2.0;

/// One transmission of a tracked packet or request: the rail it leaves on
/// and which attempt it is (1 = a first send, or a rerouted one whose
/// budget restarts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Attempt {
    pub(crate) rail: usize,
    pub(crate) attempts: u32,
}

impl Attempt {
    /// A first send on `rail`.
    pub(crate) fn first(rail: usize) -> Attempt {
        Attempt { rail, attempts: 1 }
    }
}

/// The learned part of a rail's timeout: how much later than the cost
/// model says its acks have been coming back. The residual `rtt − model`
/// of every ack — late ones included, or only the fast survivors would be
/// heard — moves a slow mean and a slow mean deviation, and the margin is
/// the mean plus [`RtoMargin::DEVIATIONS`] deviations. Packet *size* is
/// the model's business, so the margin holds only what the model cannot
/// know: queueing behind other traffic, fabric contention, wire jitter.
#[derive(Clone, Copy, Debug)]
struct RtoMargin {
    /// Slow mean of the residual (ns).
    mean: f64,
    /// Slow mean of the residual's distance from `mean` (ns).
    dev: f64,
}

impl RtoMargin {
    /// Weight of one residual in both means. A constant, not a setting,
    /// and the outcome is flat in it (madclock, seed 11, at 24 deviations;
    /// `lossy_multirail` `sim_lat_p999_us` / `fabric_perm` timeouts in
    /// 61.7 k packets, parent 77.9 / 0): 1/512 → 58.8 / 5, **1/256 →
    /// 57.9 / 7**, 1/128 → 57.5 / 9. Slow on purpose: a fabric's residuals
    /// are heavy-tailed, and TCP's 1/8 forgets the tail between two of its
    /// samples.
    const GAIN: f64 = 1.0 / 256.0;
    /// Mean deviations kept above the mean residual. The constant that
    /// matters (same runs, at gain 1/256): 12 → 56.9 / 158 (and
    /// `fabric_perm` p999 265 → 302 us: too eager for a fabric), 20 →
    /// 56.9 / 15 (p999 +1.1 %), **24 → 57.9 / 7** (p999 +0.2 %; 56.2 and
    /// 57.4 / 2 and 2 on seeds 5 and 23), 32 → 58.8 / 0, 48 → 72.4 / 0
    /// (too patient for a lossy wire: the tail is the timeout). TCP's 4
    /// is for a smoothed RTT that already contains the packet's size;
    /// here size is the model's, and what is left is mostly zero with
    /// rare large excursions, whose mean deviation is small.
    const DEVIATIONS: f64 = 24.0;

    /// Before any ack the margin is `initial`
    /// (`EngineConfig::retransmit_timeout`), held as deviation so that
    /// it gives way as samples arrive.
    fn new(initial: SimDuration) -> Self {
        RtoMargin {
            mean: 0.0,
            dev: initial.as_nanos() as f64 / Self::DEVIATIONS,
        }
    }

    /// An ack came back `rtt` after a packet whose modelled round trip
    /// is `model`.
    fn observe(&mut self, rtt: SimDuration, model: SimDuration) {
        let residual = rtt.as_nanos() as f64 - model.as_nanos() as f64;
        let err = residual - self.mean;
        self.mean += Self::GAIN * err;
        self.dev += Self::GAIN * (err.abs() - self.dev);
    }

    fn value(&self) -> SimDuration {
        let ns = self.mean + Self::DEVIATIONS * self.dev;
        SimDuration::from_nanos(ns.max(0.0) as u64)
    }
}

/// What madrel knows of one rail beside its health: the driver's
/// capabilities and cost model, by which it models a packet's unloaded
/// round trip, and what the acks have shown on top of that model.
#[derive(Clone, Debug)]
struct RailClock {
    caps: DriverCapabilities,
    cost: CostModel,
    /// Unloaded one way of a control packet — an ack, a rendezvous request,
    /// a grant: one chunk header and no payload. Twice it is the handshake
    /// a request's score is priced by (`cost::RequestCost`), one price for
    /// one packet.
    control_one_way: SimDuration,
    margin: RtoMargin,
    /// When an ack last came back on this rail.
    last_ack: Option<SimTime>,
    /// The peer this rail launched to last and when, by the model, that
    /// peer's receive engine is through with what it was sent.
    rx_free: (NodeId, SimTime),
}

impl RailClock {
    fn new(caps: DriverCapabilities, cost: CostModel, initial_margin: SimDuration) -> Self {
        let control_one_way = one_way(&caps, &cost, proto::CONTROL_PACKET_BYTES);
        RailClock {
            caps,
            cost,
            control_one_way,
            margin: RtoMargin::new(initial_margin),
            last_ack: None,
            rx_free: (NodeId(0), SimTime::ZERO),
        }
    }

    /// Unloaded time from the instant a data packet of `chunks` has left
    /// the NIC to the arrival of its ack: propagation, receive, and the
    /// ack's way back. (Its injection is not modelled but awaited: the
    /// clock starts at `tx_done`.)
    fn data_flight(&self, chunks: &[PlannedChunk]) -> SimDuration {
        self.cost.wire_latency + self.cost.rx_time(wire_bytes(chunks)) + self.control_one_way
    }

    /// A data packet of `chunks` leaves the NIC for `dst` at `now`: how
    /// long until its ack is due — its flight, and before that its wait at
    /// the peer's receive engine. That engine takes packets one at a time,
    /// so a short packet launched behind a long one of ours waits for it
    /// there (a 144 B tail behind a 64 KiB TCP segment: 72 us) — a wait the
    /// sender can foresee, so the timeout allows for it instead of the
    /// margin having to. Only the peer launched to last is remembered:
    /// exact while a rail talks to one peer, and a change of peer forgets
    /// the wait (a rail that alternates between peers faster than they
    /// receive times out early there, and the margin hears of it) rather
    /// than carry one peer's backlog over to the next, which under a
    /// fan-out of packets that take longer to receive than to inject
    /// would grow every deadline without bound.
    fn launch(&mut self, chunks: &[PlannedChunk], dst: NodeId, now: SimTime) -> SimDuration {
        let arrives = now + self.cost.wire_latency;
        let wait = match self.rx_free {
            (last, free) if last == dst => free.since(arrives),
            _ => SimDuration::ZERO,
        };
        let flight = self.data_flight(chunks);
        // The packet is received when its ack sets out.
        self.rx_free = (dst, now + (wait + flight - self.control_one_way));
        wait + flight
    }

    /// When the `attempts`-th transmission of something times out whose
    /// answer is `model` away at `now`, unloaded: the model plus the
    /// learned margin, doubled per attempt.
    fn deadline(&self, model: SimDuration, attempts: u32, now: SimTime) -> SimTime {
        now + RetransmitTracker::backoff(model + self.margin.value(), attempts)
    }
}

/// The fragment a rendezvous request asks for: flow, message sequence,
/// fragment index.
pub(crate) type RequestKey = (FlowId, u32, FragIndex);

/// One rendezvous request awaiting its grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PendingRequest {
    /// Node asked.
    pub(crate) dst: NodeId,
    /// The transmission that is out.
    pub(crate) sent: Attempt,
    /// When it went out.
    asked_at: SimTime,
    /// When it is given up.
    pub(crate) deadline: SimTime,
}

/// A timed-out transmission whose chunks other cookies carry now. Its ack
/// may still come — the timeout was spurious, or the retransmission's ack
/// is the one that gets lost — and a retransmission goes out under a
/// fresh cookie, so that ack names this transmission and no other.
#[derive(Clone, Debug)]
struct Superseded {
    rail: usize,
    sent_at: SimTime,
    /// Its modelled flight, kept so that its chunks need not be.
    model: SimDuration,
    /// The cookies its chunks went out (or wait to go out) under.
    heirs: RangeInclusive<u64>,
}

/// What to do with one timed-out packet ([`Reliability::expire`]) or
/// request ([`Reliability::expire_request`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Expiry {
    /// Re-send on the same rail: the retry budget is not yet spent, or it
    /// is and the rail has answered others meanwhile (slow, not dead).
    Resend(Attempt),
    /// The budget is spent and the rail is dead: re-send on the
    /// healthiest surviving rail, restarting the attempt budget there.
    Reroute(Attempt),
    /// The budget is spent and no live rail reaches the destination:
    /// complete the packet's accounting and count its messages lost.
    Lost,
}

/// What a `tx_done` means for the packet of its cookie
/// ([`Reliability::launched`]).
#[derive(Debug)]
pub(crate) enum Launched {
    /// Nothing tracks the cookie: a control packet, or a data packet
    /// settled already.
    Untracked,
    /// `Off`: injection is completion — the packet's record, taken out of
    /// the tracker, to complete.
    Done(PendingTx),
    /// `Recover`: the packet's clock runs from now — re-arm the timer.
    Watched,
}

/// The reliability layer's state: the data packets between submission and
/// completion with the single retransmit timer, per-rail health and
/// clock, and the `EngineConfig` values that drive them.
// madlint: send-sync — sharded across madpar workers with the engine core
pub(crate) struct Reliability {
    acks: bool,
    retry_budget: u32,
    congestion_aware: bool,
    retx: RetransmitTracker,
    /// Timed-out packets whose retransmission found the NIC queue full,
    /// each as it was when it timed out and with the attempt it is owed,
    /// by the rail that attempt is to leave on and cookie.
    parked: BTreeMap<(usize, u64), (PendingTx, Attempt)>,
    /// Timed-out cookies whose heirs have not all settled.
    superseded: BTreeMap<u64, Superseded>,
    /// Heir cookie → the superseded cookie it carries chunks of.
    parent_of: BTreeMap<u64, u64>,
    /// Rendezvous requests whose grant has not come back.
    requests: BTreeMap<RequestKey, PendingRequest>,
    /// The armed timer with the deadline it was armed for.
    timer: Option<(TimerId, SimTime)>,
    health: Vec<RailHealth>,
    clocks: Vec<RailClock>,
}

impl Reliability {
    /// The layer over `rails` — each rail's capabilities and cost model,
    /// in rail order.
    pub(crate) fn new(
        rails: impl IntoIterator<Item = (DriverCapabilities, CostModel)>,
        cfg: &EngineConfig,
    ) -> Self {
        let clocks: Vec<RailClock> = rails
            .into_iter()
            .map(|(caps, cost)| RailClock::new(caps, cost, cfg.retransmit_timeout))
            .collect();
        Reliability {
            acks: cfg.reliability == ReliabilityMode::Recover,
            retry_budget: cfg.retry_budget,
            congestion_aware: cfg.congestion_aware,
            retx: RetransmitTracker::new(),
            parked: BTreeMap::new(),
            superseded: BTreeMap::new(),
            parent_of: BTreeMap::new(),
            requests: BTreeMap::new(),
            timer: None,
            health: vec![RailHealth::new(); clocks.len()],
            clocks,
        }
    }

    /// Whether data packets are acknowledged (`Recover`).
    pub(crate) fn acks_enabled(&self) -> bool {
        self.acks
    }

    /// Health of every rail, in rail order.
    pub(crate) fn rails(&self) -> &[RailHealth] {
        &self.health
    }

    /// The margin `rail`'s timeouts currently add to a packet's modelled
    /// round trip.
    pub(crate) fn rto_margin(&self, rail: usize) -> SimDuration {
        self.clocks[rail].margin.value()
    }

    /// Rails not declared dead, ascending.
    pub(crate) fn live_rails(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.health.len()).filter(|&r| !self.health[r].is_dead())
    }

    /// All rails in the order they pull the shared backlog: ascending
    /// `cost_penalty ×` modelled one-way time of a packet of
    /// `mean_msg_bytes` (the backlog's mean message size, clamped to what
    /// the rail sends in one packet), so a healthy fast rail is asked
    /// first and an ECN-inflated or lossy one yields in proportion to its
    /// penalty; rail index breaks ties only. The size is the backlog's and
    /// not a fixed small packet's because the in-tree profiles do not
    /// order alike at every size: Myrinet/MX is ahead of InfiniBand at
    /// 64 B (3.3 µs against 3.8 µs one way) and far behind it at 16 KiB
    /// (90 µs against 33 µs). Written into the caller's `order`, which it
    /// keeps between activations.
    // madlint: scoring
    pub(crate) fn pull_order(&self, order: &mut Vec<usize>, mean_msg_bytes: u64) {
        order.clear();
        order.extend(0..self.health.len());
        if order.len() < 2 {
            return;
        }
        let price = |r: usize| {
            let clock = &self.clocks[r];
            let bytes = mean_msg_bytes.clamp(1, clock.caps.max_packet_bytes);
            let bytes = bytes + proto::CONTROL_PACKET_BYTES;
            self.health[r].cost_penalty()
                * one_way(&clock.caps, &clock.cost, bytes).as_nanos() as f64
        };
        order.sort_unstable_by(|&a, &b| price(a).total_cmp(&price(b)).then(a.cmp(&b)));
    }

    /// madnet congestion gate: a rail whose ECN-driven penalty is far
    /// above the best live rail's declines to pull the shared backlog —
    /// being work-conserving onto a collapsing fabric path converts a
    /// microsecond of patience into a retransmit timeout. The comparison
    /// is relative, so the least-congested live rail is never gated and
    /// the engine can always make progress; with `congestion_aware` off
    /// (or no marks seen) this is always false.
    pub(crate) fn congestion_gated(&self, rail: usize) -> bool {
        if !self.congestion_aware || self.health.len() < 2 {
            return false;
        }
        let best = self
            .live_rails()
            .map(|r| self.health[r].congestion_penalty())
            .fold(f64::INFINITY, f64::min);
        best.is_finite() && self.health[rail].congestion_penalty() > CONGESTION_GATE_RATIO * best
    }

    /// The healthiest live rail `reaches` admits (lowest index on ties),
    /// or `None` when every route is dead.
    // madlint: scoring
    fn live_rail_for(&self, reaches: impl Fn(usize) -> bool) -> Option<usize> {
        self.live_rails().filter(|&r| reaches(r)).max_by(|&a, &b| {
            self.health[a]
                .score()
                .total_cmp(&self.health[b].score())
                .then(b.cmp(&a))
        })
    }

    /// Data packets between submission and completion: tracked, or
    /// parked to be re-sent.
    pub(crate) fn inflight(&self) -> usize {
        self.retx.len() + self.parked.len()
    }

    /// Data packets awaiting their ack, those waiting to be re-sent among
    /// them: [`Reliability::inflight`] under `Recover`, none under `Off`.
    pub(crate) fn unacked(&self) -> usize {
        if self.acks {
            self.inflight()
        } else {
            0
        }
    }

    /// The packet `cookie` names while it is watched: tracked, or parked
    /// (`true`) with the transmission it is owed.
    #[cfg(test)]
    pub(crate) fn watched(&self, cookie: u64) -> Option<(&PendingTx, bool)> {
        let tracked = self.retx.pending.get(&cookie).map(|tx| (tx, false));
        let parked = || Some((&self.parked.get(&self.parked_key(cookie)?)?.0, true));
        tracked.or_else(parked)
    }

    /// Where `cookie` is parked, if it is: a packet is parked by the rail
    /// it is owed to, and an ack names only its cookie.
    fn parked_key(&self, cookie: u64) -> Option<(usize, u64)> {
        let mut keys = (0..self.clocks.len()).map(|rail| (rail, cookie));
        keys.find(|key| self.parked.contains_key(key))
    }

    /// Timed-out cookies still remembered for a late ack.
    pub(crate) fn superseded_len(&self) -> usize {
        self.superseded.len()
    }

    /// Track a data packet of `chunks` entering `sent.rail`'s NIC queue at
    /// `now` until its completion: when it leaves the NIC under `Off`, at
    /// its ack under `Recover`. Its timeout starts when it leaves the NIC
    /// ([`Reliability::launched`]): a packet cannot be lost in its own
    /// queue, however long the packets ahead of it take.
    pub(crate) fn track(
        &mut self,
        cookie: u64,
        chunks: Vec<PlannedChunk>,
        dst: NodeId,
        linearize: bool,
        sent: Attempt,
        now: SimTime,
    ) {
        let tx = PendingTx {
            chunks,
            dst,
            rail: sent.rail,
            linearize,
            sent_at: now,
            deadline: SimTime::MAX,
            attempts: sent.attempts,
        };
        self.retx.track(cookie, tx);
    }

    /// `tx_done` for `cookie`. Under `Off` the packet is done and its
    /// record leaves the tracker. Under `Recover` it is on the wire from
    /// `now`, and times out its own modelled flight on its rail —
    /// propagation, receive, the ack's way back — plus the rail's margin
    /// later, doubled per attempt.
    pub(crate) fn launched(&mut self, cookie: u64, now: SimTime) -> Launched {
        if !self.acks {
            return self
                .retx
                .acked(cookie)
                .map_or(Launched::Untracked, Launched::Done);
        }
        let Some(tx) = self.retx.pending_mut(cookie) else {
            return Launched::Untracked;
        };
        let clock = &mut self.clocks[tx.rail];
        let flight = clock.launch(&tx.chunks, tx.dst, now);
        tx.sent_at = now;
        tx.deadline = clock.deadline(flight, tx.attempts, now);
        Launched::Watched
    }

    /// An ack for `cookie` arrived carrying the fabric's ECN echo. Hands
    /// `settle` the record of every packet the ack completes and returns
    /// whether it found anything: the packet itself when it is still
    /// tracked; for a cookie a timeout has superseded, whatever of its
    /// retransmission is still out (the chunks arrived, whichever
    /// transmission carried them) — the timeout was spurious, and the rail
    /// gets back the health it took. A duplicate ack finds nothing, and so
    /// does any ack under `Off`, where nothing waits for one.
    pub(crate) fn on_ack(
        &mut self,
        cookie: u64,
        ecn: bool,
        now: SimTime,
        node: NodeId,
        obs: &mut Observer,
        mut settle: impl FnMut(PendingTx),
    ) -> bool {
        if !self.acks {
            return false;
        }
        let (rail, sent_at, model, late) = if let Some((p, parked)) = self.take_live(cookie) {
            let model = self.clocks[p.rail].data_flight(&p.chunks);
            let (rail, sent_at) = (p.rail, p.sent_at);
            settle(p);
            // Parked: timed out, and answered before it could be re-sent.
            (rail, sent_at, model, parked)
        } else if let Some(old) = self.superseded.remove(&cookie) {
            self.settle_heirs(old.heirs, &mut settle);
            (old.rail, old.sent_at, old.model, true)
        } else {
            return false;
        };
        self.leave(cookie);
        let rtt = now.since(sent_at);
        let clock = &mut self.clocks[rail];
        clock.margin.observe(rtt, model);
        clock.last_ack = Some(now);
        if late {
            self.health[rail].forgive_timeout();
        }
        self.health[rail].on_ack();
        // madnet: the echoed congestion bit moves the rail's EWMA only in
        // congestion-aware mode; blind mode still counts marks.
        self.health[rail].on_congestion(ecn, self.congestion_aware);
        let rail = rail as u16;
        if ecn {
            let mark = EngineEvent::CongestionMark {
                src: node,
                cookie,
                rail,
            };
            obs.emit(now, mark);
        }
        let rtt_ns = rtt.as_nanos();
        let acked = EngineEvent::AckReceived {
            cookie,
            rail,
            rtt_ns,
        };
        obs.emit(now, acked);
        if late {
            let late_ns = rtt_ns.saturating_sub(model.as_nanos());
            let spurious = EngineEvent::SpuriousTimeout {
                cookie,
                rail,
                late_ns,
            };
            obs.emit(now, spurious);
        }
        true
    }

    /// Stop watching `cookie` wherever it waits: for its ack, or (`true`)
    /// parked, for queue space to be re-sent.
    fn take_live(&mut self, cookie: u64) -> Option<(PendingTx, bool)> {
        let tracked = self.retx.acked(cookie).map(|tx| (tx, false));
        tracked.or_else(|| Some((self.parked.remove(&self.parked_key(cookie)?)?.0, true)))
    }

    /// The chunks `heirs` carry have arrived: settle every heir still
    /// out, and what superseded heirs passed on in their turn.
    fn settle_heirs(&mut self, heirs: RangeInclusive<u64>, settle: &mut impl FnMut(PendingTx)) {
        for heir in heirs {
            self.parent_of.remove(&heir);
            if let Some((tx, _)) = self.take_live(heir) {
                settle(tx);
            } else if let Some(old) = self.superseded.remove(&heir) {
                self.settle_heirs(old.heirs, settle);
            }
        }
    }

    /// `cookie` is settled for good (acked, lost, or given up): it leaves
    /// its lineage, and a superseded ancestor none of whose heirs is
    /// still out is forgotten — its late ack would have nothing to repair.
    fn leave(&mut self, cookie: u64) {
        let mut cookie = cookie;
        while let Some(parent) = self.parent_of.remove(&cookie) {
            let Some(old) = self.superseded.get(&parent) else {
                break;
            };
            if self.parent_of.range(old.heirs.clone()).next().is_some() {
                break;
            }
            self.superseded.remove(&parent);
            cookie = parent;
        }
    }

    /// The retransmit timer fired: forget it and list the cookies whose
    /// deadline has passed at `now`, in cookie order. Feed each to
    /// [`Reliability::expire`], then re-arm.
    pub(crate) fn begin_sweep(&mut self, now: SimTime) -> Vec<u64> {
        self.timer = None;
        self.retx.expired(now)
    }

    /// Decide what happens to timed-out `cookie`: stop tracking it, fold
    /// the timeout into its rail's health (declaring the rail dead, once,
    /// when the retry budget is spent on a silent rail) and return the
    /// packet with the action the engine must execute. Touches no driver
    /// and no timer; `reaches(rail, dst)` is the transfer layer's routing
    /// predicate.
    pub(crate) fn expire(
        &mut self,
        cookie: u64,
        now: SimTime,
        reaches: impl Fn(usize, NodeId) -> bool,
        obs: &mut Observer,
    ) -> Option<(PendingTx, Expiry)> {
        let p = self.retx.acked(cookie)?;
        let sent = Attempt {
            rail: p.rail,
            attempts: p.attempts,
        };
        let action = self.timed_out(sent, p.sent_at, p.dst, now, reaches, obs);
        if action == Expiry::Lost {
            self.leave(cookie);
        }
        Some((p, action))
    }

    /// Transmission `sent` toward `dst` — of a data packet or of a
    /// rendezvous request, out since `since` — got no answer in time. A
    /// rail dies on evidence as well as budget: the budget spent **and**
    /// not one ack on the rail since this last transmission left — with
    /// doubling timeouts the longest wait of all, as long as every earlier
    /// one together. A rail that has answered others meanwhile is slow,
    /// not dead, and is asked again; its next timeout needs new evidence.
    /// (Counted from the packet's *first* transmission, one ack just after
    /// it would vouch for a dead rail for ever.)
    fn timed_out(
        &mut self,
        sent: Attempt,
        since: SimTime,
        dst: NodeId,
        now: SimTime,
        reaches: impl Fn(usize, NodeId) -> bool,
        obs: &mut Observer,
    ) -> Expiry {
        let Attempt { rail, attempts } = sent;
        obs.metrics_mut().timeouts += 1;
        if self.health[rail].on_timeout() {
            let score_milli = (self.health[rail].score() * 1000.0) as u32;
            let rail = rail as u16;
            obs.emit(now, EngineEvent::RailDegraded { rail, score_milli });
        }
        let again = Attempt {
            rail,
            attempts: attempts + 1,
        };
        if attempts < self.retry_budget {
            return Expiry::Resend(again);
        }
        if !self.health[rail].is_dead() {
            if self.clocks[rail].last_ack.is_some_and(|at| at > since) {
                return Expiry::Resend(again);
            }
            self.health[rail].declare_dead();
            obs.emit(now, EngineEvent::RailDead { rail: rail as u16 });
        }
        match self.live_rail_for(|r| reaches(r, dst)) {
            Some(live) => Expiry::Reroute(Attempt::first(live)),
            None => Expiry::Lost,
        }
    }

    /// Timed-out `old_cookie` (the transmission `old`) has been re-sent:
    /// its chunks are `heirs`' now. Remembered until the heirs settle, so
    /// that a late ack for it can settle them.
    pub(crate) fn supersede(
        &mut self,
        old_cookie: u64,
        old: &PendingTx,
        heirs: RangeInclusive<u64>,
    ) {
        for heir in heirs.clone() {
            self.parent_of.insert(heir, old_cookie);
        }
        let superseded = Superseded {
            rail: old.rail,
            sent_at: old.sent_at,
            model: self.clocks[old.rail].data_flight(&old.chunks),
            heirs,
        };
        self.superseded.insert(old_cookie, superseded);
    }

    /// Timed-out `tx` is owed transmission `next`, and the NIC queue is
    /// full: keep it under `cookie` as it is — its attempts and deadline
    /// are those of the transmission that is out, nothing new has left —
    /// until [`Reliability::take_parked`] offers it again.
    pub(crate) fn park(&mut self, cookie: u64, tx: PendingTx, next: Attempt) {
        self.parked.insert((next.rail, cookie), (tx, next));
    }

    /// `rail`'s NIC queue has room: the parked packet with the lowest
    /// cookie that waits for it, to be offered again.
    pub(crate) fn take_parked(&mut self, rail: usize) -> Option<(u64, PendingTx, Attempt)> {
        let (&key, _) = self.parked.range((rail, 0)..=(rail, u64::MAX)).next()?;
        let (tx, next) = self.parked.remove(&key)?;
        Some((key.1, tx, next))
    }

    /// Track a rendezvous request toward `dst`, sent as `sent` at `now`,
    /// until its grant: a control packet's round trip plus the rail's
    /// margin, doubled per attempt.
    pub(crate) fn track_request(
        &mut self,
        key: RequestKey,
        dst: NodeId,
        sent: Attempt,
        now: SimTime,
    ) {
        let clock = &self.clocks[sent.rail];
        let asked = PendingRequest {
            dst,
            sent,
            asked_at: now,
            deadline: clock.deadline(clock.control_one_way * 2, sent.attempts, now),
        };
        self.requests.insert(key, asked);
    }

    /// The request for `key` needs no more watching: its grant arrived (a
    /// second grant finds nothing), or its message left the backlog.
    pub(crate) fn settle_request(&mut self, key: RequestKey) {
        self.requests.remove(&key);
    }

    /// Requests whose grant is overdue at `now`, in key order. Feed each
    /// to [`Reliability::expire_request`].
    pub(crate) fn overdue_requests(&self, now: SimTime) -> Vec<RequestKey> {
        let overdue = self.requests.iter().filter(|(_, r)| r.deadline <= now);
        overdue.map(|(&key, _)| key).collect()
    }

    /// [`Reliability::expire`] for the request of `key`: the same budget,
    /// the same decision. A request to be asked again is watched again
    /// from `now`; the caller only sends it.
    pub(crate) fn expire_request(
        &mut self,
        key: RequestKey,
        now: SimTime,
        reaches: impl Fn(usize, NodeId) -> bool,
        obs: &mut Observer,
    ) -> Option<(NodeId, Expiry)> {
        let asked = self.requests.remove(&key)?;
        let action = self.timed_out(asked.sent, asked.asked_at, asked.dst, now, reaches, obs);
        if let Expiry::Resend(again) | Expiry::Reroute(again) = action {
            self.track_request(key, asked.dst, again, now);
        }
        Some((asked.dst, action))
    }

    /// (Re)arm the single retransmit timer toward the earliest pending
    /// deadline — of a packet or of a request — cancelling a stale one.
    /// With nothing pending the timer is cancelled so the simulation can
    /// reach quiescence. (A packet in the NIC's queue and a parked one
    /// have no deadline: each waits for a `tx_done` that is bound to come.)
    pub(crate) fn arm_timer(&mut self, ctx: &mut SimCtx<'_>) {
        let asked = self.requests.values().map(|r| r.deadline).min();
        let launched = self.retx.next_deadline().filter(|&d| d != SimTime::MAX);
        let deadline = launched.into_iter().chain(asked).min();
        if let Some((timer, armed_for)) = self.timer {
            if Some(armed_for) == deadline {
                return;
            }
            ctx.cancel_timer(timer);
        }
        self.timer = deadline.map(|d| (ctx.set_timer(d.since(ctx.now()), RETX_TAG), d));
    }

    /// Cross-check the packets in flight against the collect layer: each
    /// has one record, tracked or parked, and every chunk of it references
    /// a live message with enough in-flight bytes to cover it. Compiled
    /// only with the `debug-invariants` feature.
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn debug_assert_invariants(&self, collect: &crate::collect::CollectLayer) {
        collect.debug_assert_invariants();
        let tracked = self.retx.pending.iter().map(|(&cookie, tx)| (cookie, tx));
        let parked = self
            .parked
            .iter()
            .map(|(&(_, cookie), (tx, _))| (cookie, tx));
        for &(_, cookie) in self.parked.keys() {
            let tracked = self.retx.pending.contains_key(&cookie);
            assert!(!tracked, "cookie {cookie}: both tracked and parked");
        }
        for (cookie, tx) in tracked.chain(parked) {
            for c in &tx.chunks {
                assert!(c.len > 0, "cookie {cookie}: zero-length in-flight chunk");
                let msg = collect
                    .find_msg(c.flow, c.seq)
                    .unwrap_or_else(|| panic!("cookie {cookie}: in-flight chunk for dead message"));
                let frag = &msg.frags[c.frag as usize];
                assert!(
                    frag.inflight >= c.len,
                    "cookie {cookie}: fragment in-flight accounting below chunk length"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cheaper_mode;
    use crate::ids::FlowId;
    use nicdrv::calib;
    use simnet::Technology;

    fn chunk(len: u32) -> PlannedChunk {
        PlannedChunk {
            flow: FlowId(1),
            seq: 0,
            frag: 0,
            offset: 0,
            len,
        }
    }

    #[test]
    fn tracker_orders_deadlines_and_acks() {
        let mut t = RetransmitTracker::new();
        for (c, ns) in [(3u64, 300u64), (1, 100), (2, 200)] {
            t.track(
                c,
                PendingTx {
                    chunks: vec![chunk(10)],
                    dst: NodeId(1),
                    rail: 0,
                    linearize: false,
                    sent_at: SimTime::ZERO,
                    deadline: SimTime::from_nanos(ns),
                    attempts: 1,
                },
            );
        }
        assert_eq!(t.next_deadline(), Some(SimTime::from_nanos(100)));
        assert_eq!(t.expired(SimTime::from_nanos(250)), vec![1, 2]);
        assert!(t.acked(2).is_some());
        assert!(t.acked(2).is_none(), "duplicate ack is a no-op");
        assert_eq!(t.len(), 2);
    }

    /// The layer over one rail per technology, `Recover`, the given budget.
    fn layer(techs: &[Technology], retry_budget: u32) -> (Reliability, Observer) {
        let cfg = EngineConfig {
            reliability: ReliabilityMode::Recover,
            retry_budget,
            ..EngineConfig::default()
        };
        let rails = techs.iter().map(|&t| {
            let cost = CostModel::from_params(&calib::params(t));
            (calib::capabilities(t), cost)
        });
        (Reliability::new(rails, &cfg), Observer::new(NodeId(0)))
    }

    const MX: Technology = Technology::MyrinetMx;
    const ELAN: Technology = Technology::QuadricsElan;
    const FAR: SimTime = SimTime::from_nanos(1_000_000_000);

    /// A packet of one `len`-byte chunk toward node 1 enters the NIC and
    /// leaves it at once, at `at`. The chunk's message sequence is the
    /// cookie, so that a settled record names its packet.
    fn send(r: &mut Reliability, cookie: u64, len: u32, sent: Attempt, at: SimTime) {
        let chunks = vec![PlannedChunk {
            seq: cookie as u32,
            ..chunk(len)
        }];
        r.track(cookie, chunks, NodeId(1), false, sent, at);
        assert!(matches!(r.launched(cookie, at), Launched::Watched));
    }

    /// The cookie [`send`] sent a settled record under.
    fn cookie_of(tx: PendingTx) -> u64 {
        u64::from(tx.chunks[0].seq)
    }

    /// Settle nothing: for acks that must find nothing to settle.
    fn none(tx: PendingTx) {
        panic!("cookie {} settled", cookie_of(tx));
    }

    #[test]
    fn expire_decides_resend_reroute_and_lost() {
        let sent = |rail, attempts| Attempt { rail, attempts };
        // Two packets on rail 0 time out in one sweep, on their
        // `attempts`-th transmission of a budget of 3, and the rail has
        // been silent throughout:
        // (rails, attempts, rail 1 reaches dst) → decision, rail 0 dies
        let cases = [
            (2, 1, true, Expiry::Resend(sent(0, 2)), false),
            (2, 3, true, Expiry::Reroute(sent(1, 1)), true),
            (2, 3, false, Expiry::Lost, true),
            (1, 3, true, Expiry::Lost, true),
        ];
        for (rails, attempts, alt, want, dies) in cases {
            let (mut r, mut obs) = layer(&[MX, MX][..rails], 3);
            for cookie in [7, 8] {
                let first = sent(0, attempts);
                send(&mut r, cookie, 10, first, SimTime::ZERO);
            }
            assert_eq!(r.begin_sweep(FAR), vec![7, 8]);
            let reaches = |rail: usize, _| rail == 0 || alt;
            let (p, action) = r.expire(7, FAR, reaches, &mut obs).expect("tracked");
            assert_eq!((p.attempts, action), (attempts, want));
            assert!(
                r.expire(7, FAR, reaches, &mut obs).is_none(),
                "expires once"
            );
            r.expire(8, FAR, reaches, &mut obs);
            assert_eq!(r.rails()[0].is_dead(), dies, "{want:?}");
            let m = obs.metrics();
            assert_eq!((m.timeouts, m.rails_dead), (2, dies as u64), "killed once");
            assert_eq!(
                (r.unacked(), m.retransmits),
                (0, 0),
                "deciding sends nothing"
            );
        }
    }

    #[test]
    fn a_timeout_is_the_packets_own_flight_plus_the_rails_margin() {
        let (mut r, mut obs) = layer(&[MX, ELAN], 6);
        let initial = EngineConfig::default().retransmit_timeout;
        let (t0, t1) = (SimTime::from_nanos(1_000), SimTime::from_nanos(900_000));
        // In its own NIC's queue a packet has no deadline, however long
        // it waits there; the clock starts when it leaves.
        r.track(1, vec![chunk(64)], NodeId(1), false, Attempt::first(0), t0);
        assert_eq!(r.retx.next_deadline(), Some(SimTime::MAX));
        assert!(r.begin_sweep(t1).is_empty());
        assert!(matches!(r.launched(1, t1), Launched::Watched));
        assert!(matches!(r.launched(2, t1), Launched::Untracked));
        let flight = |r: &Reliability, rail: usize, len| r.clocks[rail].data_flight(&[chunk(len)]);
        assert_eq!(
            r.retx.next_deadline(),
            Some(t1 + flight(&r, 0, 64) + initial)
        );
        // Each packet below leaves long after the one before is through.
        let mut at = t1;
        let mut cookie = 1;
        let mut patience = |r: &mut Reliability, rail: usize, len: u32, attempts: u32| {
            cookie += 1;
            at = at + SimDuration::from_millis(1);
            send(r, cookie, len, Attempt { rail, attempts }, at);
            r.retx.acked(cookie).expect("tracked").deadline.since(at)
        };
        for (rail, len) in [(0, 64), (0, 16 << 10), (1, 64), (1, 16 << 10)] {
            let model = flight(&r, rail, len);
            assert_eq!(patience(&mut r, rail, len, 1), model + initial);
            assert_eq!(patience(&mut r, rail, len, 3), (model + initial) * 4);
        }
        // A short packet right behind a long one waits for it at the
        // peer's receive engine, and its timeout knows.
        let behind = SimTime::from_nanos(20_000_000);
        send(&mut r, 500, 16 << 10, Attempt::first(0), behind);
        send(&mut r, 501, 64, Attempt::first(0), behind);
        let (long, short) = (r.retx.acked(500).unwrap(), r.retx.acked(501).unwrap());
        let rx_short = r.clocks[0].cost.rx_time(wire_bytes(&[chunk(64)]));
        assert_eq!(short.deadline, long.deadline + rx_short);
        // The fixed 50 us was over ten flights of a small packet on Elan, and
        // a 16 KiB packet on MX has not finished its round trip by then.
        let mx = &r.clocks[0];
        let (small, large) = (flight(&r, 1, 64), one_way(&mx.caps, &mx.cost, 16 << 10));
        assert!(small * 10 < initial && initial < large + small);
        // Acks that come back when the model says leave the margin
        // nothing to hold: the initial value gives way.
        for i in 0..2_000u64 {
            let sent = behind + SimDuration::from_micros(100 * (i + 1));
            send(&mut r, 1_000 + i, 64, Attempt::first(1), sent);
            assert!(r.on_ack(1_000 + i, false, sent + small, NodeId(0), &mut obs, |_| ()));
        }
        assert!(
            r.rto_margin(1) < SimDuration::from_micros(1),
            "{:?}",
            r.rto_margin(1)
        );
        assert_eq!(r.rto_margin(0), initial, "rail 0 has heard nothing");
        assert_eq!(obs.metrics().spurious_timeouts, 0);
    }

    #[test]
    fn a_fan_out_carries_no_peers_backlog_over_to_the_next() {
        // TCP takes longer to receive a small packet than to inject it,
        // so back-to-back packets queue at the peer's receive engine —
        // at *their* peer's. Spread over four peers nothing queues, and
        // no deadline may run ahead as if it did: a packet lost late in
        // the fan-out is missed as soon as one lost early.
        let (mut r, mut obs) = layer(&[Technology::TcpEthernet], 6);
        let clock = r.clocks[0].clone();
        let bytes = wire_bytes(&[chunk(64)]);
        let (_, inject) = cheaper_mode(&clock.caps, &clock.cost, bytes, 1).unwrap();
        let receive = clock.cost.rx_time(bytes);
        assert!(receive > inject, "{receive:?} {inject:?}");
        let flight = clock.data_flight(&[chunk(64)]);
        let launch = |r: &mut Reliability, cookie: u64, dst: u32| {
            let at = SimTime::ZERO + inject * cookie;
            let sent = Attempt::first(0);
            r.track(cookie, vec![chunk(64)], NodeId(dst), false, sent, at);
            assert!(matches!(r.launched(cookie, at), Launched::Watched));
            (at, r.retx.pending_mut(cookie).expect("tracked").deadline)
        };
        for cookie in 0..1_000 {
            let margin = r.rto_margin(0);
            let (at, deadline) = launch(&mut r, cookie, 1 + cookie as u32 % 4);
            assert_eq!(deadline, at + flight + margin, "packet {cookie}");
            if cookie % 50 == 49 {
                // Lost: missed at its deadline, not before.
                assert!(!r.retx.expired(deadline).is_empty());
                let expired = r.expire(cookie, deadline, |_, _| true, &mut obs);
                assert!(matches!(expired, Some((_, Expiry::Resend(_)))));
            } else {
                assert!(r.on_ack(cookie, false, at + flight, NodeId(0), &mut obs, |_| ()));
            }
        }
        // Toward one peer the queue is real, and foreseen: each packet
        // waits for those before it.
        let margin = r.rto_margin(0);
        for k in 0..10 {
            let (at, deadline) = launch(&mut r, 1_000 + k, 9);
            let wait = (receive - inject) * k;
            assert_eq!(deadline, at + wait + flight + margin, "packet {k}");
        }
    }

    /// Time `cookie` out at its deadline and re-send it (on whatever rail
    /// `expire` decides) under `heirs`, as the engine would.
    fn resend(r: &mut Reliability, obs: &mut Observer, cookie: u64, heirs: RangeInclusive<u64>) {
        let due = r.retx.next_deadline().expect("something is out");
        let (old, action) = r.expire(cookie, due, |_, _| true, obs).expect("tracked");
        let (Expiry::Resend(next) | Expiry::Reroute(next)) = action else {
            panic!("{action:?}");
        };
        let pieces = heirs.clone().count() as u32;
        for heir in heirs.clone() {
            send(r, heir, old.chunks[0].len / pieces, next, due);
        }
        r.supersede(cookie, &old, heirs);
    }

    #[test]
    fn a_late_ack_settles_what_is_still_out_once_and_repairs_the_rail() {
        let ack = |r: &mut Reliability, obs: &mut Observer, cookie, at| {
            let mut settled = Vec::new();
            let settle = |tx| settled.push(cookie_of(tx));
            let found = r.on_ack(cookie, false, at, NodeId(0), obs, settle);
            assert_eq!(found, !settled.is_empty());
            settled
        };
        // A chain: 1 timed out into 2, 2 into 3, and then 1's ack arrives.
        let (mut r, mut obs) = layer(&[MX], 6);
        send(&mut r, 1, 4096, Attempt::first(0), SimTime::ZERO);
        resend(&mut r, &mut obs, 1, 2..=2);
        resend(&mut r, &mut obs, 2, 3..=3);
        let (hurt, margin) = (r.rails()[0].score(), r.rto_margin(0));
        assert_eq!((r.unacked(), r.superseded_len()), (1, 2));
        let late = SimTime::from_nanos(400_000);
        assert_eq!(ack(&mut r, &mut obs, 1, late), vec![3]);
        assert_eq!((r.unacked(), r.superseded_len()), (0, 0));
        assert!(r.parent_of.is_empty());
        let m = obs.metrics();
        assert_eq!(
            (m.timeouts, m.spurious_timeouts, m.acks_received),
            (2, 1, 1)
        );
        assert!(r.rails()[0].score() > hurt / (1.0 - RailHealth::ALPHA) - 1e-9);
        assert!(r.rto_margin(0) > margin, "the late ack is heard");
        // Every later ack of the lineage is a duplicate.
        for cookie in [1, 2, 3] {
            assert!(!r.on_ack(cookie, false, late, NodeId(0), &mut obs, none));
        }

        // A split: 1 was re-chunked into 2 and 3. 2 is acked in time, so
        // 1's late ack has only 3 left to settle.
        let (mut r, mut obs) = layer(&[MX], 6);
        send(&mut r, 1, 4096, Attempt::first(0), SimTime::ZERO);
        resend(&mut r, &mut obs, 1, 2..=3);
        assert_eq!(ack(&mut r, &mut obs, 2, late), vec![2]);
        assert_eq!(r.superseded_len(), 1, "3 is still out");
        assert_eq!(ack(&mut r, &mut obs, 1, late), vec![3]);
        assert_eq!((r.unacked(), r.superseded_len()), (0, 0));
        assert_eq!(obs.metrics().spurious_timeouts, 1);

        // No late ack at all: the heirs' own acks empty the table.
        let (mut r, mut obs) = layer(&[MX], 6);
        send(&mut r, 1, 4096, Attempt::first(0), SimTime::ZERO);
        resend(&mut r, &mut obs, 1, 2..=3);
        resend(&mut r, &mut obs, 3, 4..=4);
        for heir in [2, 4] {
            assert_eq!(ack(&mut r, &mut obs, heir, late), vec![heir]);
        }
        assert_eq!((r.unacked(), r.superseded_len()), (0, 0));
        assert!(r.parent_of.is_empty());
        assert_eq!(obs.metrics().spurious_timeouts, 0);
    }

    #[test]
    fn a_parked_packet_keeps_its_attempt_and_an_ack_still_finds_it() {
        let (mut r, mut obs) = layer(&[MX], 6);
        send(&mut r, 1, 64, Attempt::first(0), SimTime::ZERO);
        let due = r.retx.next_deadline().expect("out");
        let (old, action) = r.expire(1, due, |_, _| true, &mut obs).expect("tracked");
        let Expiry::Resend(next) = action else {
            panic!("{action:?}");
        };
        r.park(1, old.clone(), next);
        let in_flight = (r.inflight(), r.unacked());
        assert_eq!(in_flight, (1, 1), "one packet in flight while parked");
        assert_eq!(
            r.retx.next_deadline(),
            None,
            "a parked packet arms no timer"
        );
        assert!(r.take_parked(1).is_none(), "it waits for rail 0");
        let (cookie, tx, owed) = r.take_parked(0).expect("parked");
        assert_eq!(
            (cookie, tx.attempts, tx.deadline, owed.attempts),
            (1, 1, due, 2)
        );
        assert_eq!(r.unacked(), 0);
        // Its ack arrives while it waits: spurious timeout, settled under
        // its own cookie.
        r.park(1, old, next);
        let mut settled = Vec::new();
        let settle = |tx| settled.push(cookie_of(tx));
        assert!(r.on_ack(1, false, due, NodeId(0), &mut obs, settle));
        assert_eq!((settled, r.unacked()), (vec![1], 0));
        assert!(!r.on_ack(1, false, due, NodeId(0), &mut obs, none), "once");
        assert_eq!(obs.metrics().spurious_timeouts, 1);
    }

    #[test]
    fn a_packet_in_flight_is_one_record_in_either_mode() {
        let at = SimTime::from_nanos(1_000);
        // `Off`: injection is completion. The record comes back at
        // `tx_done`, and nothing is ever unacked or acked.
        let cfg = EngineConfig {
            reliability: ReliabilityMode::Off,
            ..EngineConfig::default()
        };
        let mx = (
            calib::capabilities(MX),
            CostModel::from_params(&calib::params(MX)),
        );
        let mut r = Reliability::new([mx], &cfg);
        let (mut obs, first) = (Observer::new(NodeId(0)), Attempt::first(0));
        r.track(1, vec![chunk(64)], NodeId(1), false, first, SimTime::ZERO);
        assert_eq!((r.inflight(), r.unacked()), (1, 0));
        let Launched::Done(tx) = r.launched(1, at) else {
            panic!("an injected packet is done under Off");
        };
        assert_eq!((tx.chunks.len(), tx.chunks[0].len), (1, 64));
        assert_eq!((r.inflight(), r.unacked()), (0, 0));
        assert!(matches!(r.launched(1, at), Launched::Untracked));
        r.track(2, vec![chunk(64)], NodeId(1), false, first, SimTime::ZERO);
        assert!(!r.on_ack(2, false, at, NodeId(0), &mut obs, none));
        assert_eq!(
            (r.inflight(), r.unacked()),
            (1, 0),
            "an ack completes nothing"
        );

        // `Recover`: the record stays through `tx_done` until its ack.
        let (mut r, mut obs) = layer(&[MX], 6);
        send(&mut r, 1, 64, first, SimTime::ZERO);
        assert_eq!((r.inflight(), r.unacked()), (1, 1));
        let mut settled = Vec::new();
        let settle = |tx| settled.push(cookie_of(tx));
        assert!(r.on_ack(1, false, at, NodeId(0), &mut obs, settle));
        assert_eq!((settled, r.inflight(), r.unacked()), (vec![1], 0, 0));
    }

    #[test]
    fn a_rail_that_still_answers_is_not_declared_dead() {
        let (mut r, mut obs) = layer(&[MX, MX], 2);
        let t = |us: u64| SimTime::from_nanos(us * 1_000);
        let spent = Attempt {
            rail: 0,
            attempts: 2,
        };
        send(&mut r, 1, 64, spent, t(10));
        // Another packet's ack comes back on rail 0 after 1 went out...
        send(&mut r, 2, 64, Attempt::first(0), t(0));
        assert!(r.on_ack(2, false, t(20), NodeId(0), &mut obs, |_| ()));
        let (_, action) = r.expire(1, FAR, |_, _| true, &mut obs).expect("tracked");
        let again = Attempt {
            rail: 0,
            attempts: 3,
        };
        assert_eq!(action, Expiry::Resend(again), "slow, not dead");
        assert_eq!(obs.metrics().rails_dead, 0);
        // ... and that ack does not vouch for ever: the attempt it earned
        // goes unanswered on a rail silent since, and the rail dies.
        send(&mut r, 3, 64, again, t(30));
        let (_, action) = r.expire(3, FAR, |_, _| true, &mut obs).expect("tracked");
        assert_eq!(action, Expiry::Reroute(Attempt::first(1)));
        assert!(r.rails()[0].is_dead());
    }

    #[test]
    fn idle_rails_pull_fastest_first_and_yield_by_their_penalty() {
        let order = |r: &Reliability, bytes| {
            let mut order = Vec::new();
            r.pull_order(&mut order, bytes);
            order
        };
        let (mut r, _) = layer(&[MX, ELAN], 6);
        assert_eq!(order(&r, 64), [1, 0], "Elan is faster at every size");
        assert_eq!(order(&r, 256 << 10), [1, 0]);
        let ratio = |r: &Reliability| {
            let ns = |c: &RailClock| one_way(&c.caps, &c.cost, 64 + 36).as_nanos() as f64;
            ns(&r.clocks[0]) / ns(&r.clocks[1])
        };
        while r.rails()[1].cost_penalty() <= ratio(&r) {
            assert_eq!(order(&r, 64), [1, 0]);
            r.health[1].on_timeout();
        }
        assert_eq!(order(&r, 64), [0, 1], "degraded past the latency ratio");
        // No fixed packet size orders every profile pair: MX leads
        // InfiniBand for a small message and trails it for a large one.
        let (r, _) = layer(&[MX, Technology::InfiniBand], 6);
        assert_eq!(order(&r, 64), [0, 1]);
        assert_eq!(order(&r, 16 << 10), [1, 0]);
        // Equal rails keep index order; one rail is not priced at all.
        let (r, _) = layer(&[MX, MX, MX], 6);
        assert_eq!(order(&r, 64), [0, 1, 2]);
    }

    #[test]
    fn a_request_is_watched_like_a_packet() {
        let (mut r, mut obs) = layer(&[MX], 2);
        let (key, other) = ((FlowId(3), 7, 1), (FlowId(3), 8, 0));
        let t = |us: u64| SimTime::from_nanos(us * 1_000);
        let just_before = |at: SimTime| SimTime::from_nanos(at.as_nanos() - 1);
        let initial = EngineConfig::default().retransmit_timeout;
        // A request's patience: its own round trip plus the margin.
        let patience = r.clocks[0].control_one_way * 2 + initial;
        r.track_request(key, NodeId(1), Attempt::first(0), t(0));
        r.track_request(other, NodeId(1), Attempt::first(0), t(10));
        let due = t(0) + patience;
        assert!(r.overdue_requests(just_before(due)).is_empty());
        assert_eq!(r.overdue_requests(due), vec![key]);
        // Granted in time: nothing left to expire, and a second grant
        // finds nothing.
        r.settle_request(other);
        r.settle_request(other);
        assert!(r
            .expire_request(other, due, |_, _| true, &mut obs)
            .is_none());
        // Overdue: asked again with doubled patience, then — the budget
        // spent on the only, silent rail — lost, and the rail with it.
        let (dst, action) = r.expire_request(key, due, |_, _| true, &mut obs).unwrap();
        let again = Attempt {
            rail: 0,
            attempts: 2,
        };
        assert_eq!((dst, action), (NodeId(1), Expiry::Resend(again)));
        let due = due + patience * 2;
        assert_eq!(r.overdue_requests(due), vec![key], "watched again");
        assert!(r.overdue_requests(just_before(due)).is_empty());
        let (_, action) = r.expire_request(key, due, |_, _| true, &mut obs).unwrap();
        assert_eq!(action, Expiry::Lost);
        assert!(r.rails()[0].is_dead());
        assert!(r.requests.is_empty());
        assert_eq!(obs.metrics().timeouts, 2);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let base = SimDuration::from_micros(50);
        assert_eq!(RetransmitTracker::backoff(base, 1), base);
        assert_eq!(RetransmitTracker::backoff(base, 2), base * 2);
        assert_eq!(RetransmitTracker::backoff(base, 4), base * 8);
        // Deep attempts do not overflow.
        assert!(RetransmitTracker::backoff(base, 200) > base);
    }

    #[test]
    fn health_degrades_and_recovers() {
        let mut h = RailHealth::new();
        assert!(!h.is_degraded());
        assert!((h.cost_penalty() - 1.0).abs() < 1e-9);
        let mut announced = 0;
        for _ in 0..5 {
            if h.on_timeout() {
                announced += 1;
            }
        }
        assert!(h.is_degraded());
        assert_eq!(announced, 1, "degradation announced exactly once");
        assert!(h.cost_penalty() > 1.0);
        for _ in 0..30 {
            h.on_ack();
        }
        assert!(!h.is_degraded(), "acks restore the score");
        // A later relapse announces again.
        for _ in 0..10 {
            if h.on_timeout() {
                announced += 1;
            }
        }
        assert_eq!(announced, 2);
    }

    #[test]
    fn congestion_ewma_inflates_penalty_only_when_reactive() {
        let mut h = RailHealth::new();
        for _ in 0..10 {
            h.on_congestion(true, false);
        }
        assert_eq!(h.ecn_marks(), 10, "marks are counted even when blind");
        assert!(
            (h.cost_penalty() - 1.0).abs() < 1e-9,
            "congestion-blind mode must not move the penalty"
        );
        for _ in 0..10 {
            h.on_congestion(true, true);
        }
        assert!(h.congestion() > 0.9);
        assert!(h.cost_penalty() > 5.0, "marked rail must look expensive");
        for _ in 0..30 {
            h.on_congestion(false, true);
        }
        assert!(h.congestion() < 0.01, "clean acks decay the EWMA");
        assert!(h.cost_penalty() < 1.1);
    }

    #[test]
    fn dead_rail_has_prohibitive_penalty() {
        let mut h = RailHealth::new();
        h.declare_dead();
        assert!(h.is_dead());
        assert!(h.cost_penalty() >= 1e9);
        assert!(!h.on_timeout(), "dead rails do not re-announce degradation");
    }

    #[test]
    fn plan_retransmit_respects_pio_cap() {
        let mut caps = calib::synthetic_capabilities();
        caps.supports_dma = false;
        caps.pio_max_bytes = 1 << 10;
        let packets = plan_retransmit(&[chunk(5_000)], &caps, 1 << 20);
        assert!(packets.len() >= 5);
        let total: u32 = packets.iter().flatten().map(|c| c.len).sum();
        assert_eq!(total, 5_000, "no bytes lost in re-chunking");
        for p in &packets {
            assert_eq!(p.len(), 1, "no gather without DMA");
            assert!(wire_bytes(p) <= caps.pio_max_bytes);
        }
        // Offsets stay contiguous.
        let mut expect = 0u32;
        for c in packets.iter().flatten() {
            assert_eq!(c.offset, expect);
            expect += c.len;
        }
    }

    #[test]
    fn plan_retransmit_respects_gather_width() {
        let mut caps = calib::synthetic_capabilities();
        caps.max_gather_entries = 3; // header + 2 chunks
        let chunks: Vec<PlannedChunk> = (0..5).map(|_| chunk(64)).collect();
        let packets = plan_retransmit(&chunks, &caps, 1 << 20);
        for p in &packets {
            assert!(p.len() <= 2);
        }
        let total: u32 = packets.iter().flatten().map(|c| c.len).sum();
        assert_eq!(total, 5 * 64);
    }

    #[test]
    fn plan_retransmit_respects_wire_mtu() {
        let caps = calib::synthetic_capabilities();
        let packets = plan_retransmit(&[chunk(10_000)], &caps, 4096);
        for p in &packets {
            assert!(wire_bytes(p) <= 4096);
        }
    }
}

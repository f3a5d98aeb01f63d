//! madrel — the reliability layer of the transfer engine.
//!
//! The paper assumes lossless high-speed fabrics, so the seed engine treats
//! *injection* as *completion*: once the NIC reports `tx_done` the chunk is
//! accounted as sent, and a packet lost on the wire silently loses its
//! messages. madrel closes that gap:
//!
//! * every data packet is tracked in a [`RetransmitTracker`] until the
//!   receiver's acknowledgement returns;
//! * a sim-time timeout with exponential backoff re-sends the packet's
//!   chunks (under a fresh cookie — the original commit accounting is
//!   reused, never repeated);
//! * a [`RailHealth`] EWMA of timeouts vs. acks per rail feeds the cost
//!   model (degraded rails look slower, so the optimizer reroutes) and
//!   declares a rail dead after the retry budget is exhausted;
//! * retransmits rerouted to a different rail are re-chunked by
//!   [`plan_retransmit`] so they respect the target driver's capabilities;
//! * a rendezvous request is tracked until its grant returns, under the
//!   same timeout, backoff and retry budget: a lost request or a lost
//!   grant is asked again (the receiver's grant and the sender's handling
//!   of it are idempotent), so the handshake cannot strand a message.
//!
//! Everything here is driven by the simulation clock and the engine's
//! deterministic event order: identical seeds yield identical recovery
//! traces.

// madlint: file: hot-path
// madlint: file: deterministic-output
// madlint: file: trace-covered

use std::collections::BTreeMap;

use nicdrv::DriverCapabilities;
use simnet::{NodeId, SimCtx, SimDuration, SimTime, TimerId};

use crate::api::RETX_TAG;
use crate::config::EngineConfig;
use crate::ids::{FlowId, FragIndex};
use crate::observer::Observer;
use crate::plan::PlannedChunk;
use crate::proto;
use crate::trace::EngineEvent;

/// How the engine treats packet loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReliabilityMode {
    /// The paper's lossless assumption: completion equals injection; a
    /// dropped packet silently loses its chunks (the flight recorder and
    /// wire-drop counters are the only witnesses).
    Off,
    /// Acks and timeouts run for diagnosis — a timeout raises a fault and
    /// trips the flight recorder — but nothing is re-sent.
    Detect,
    /// Full recovery: ack tracking, timeout + backoff retransmission,
    /// rail-death rerouting.
    Recover,
}

impl ReliabilityMode {
    /// Whether data packets are tracked and acknowledged.
    pub fn acks_enabled(self) -> bool {
        !matches!(self, ReliabilityMode::Off)
    }

    /// Whether lost packets are re-sent.
    pub fn recovers(self) -> bool {
        matches!(self, ReliabilityMode::Recover)
    }
}

/// One unacked data packet awaiting its acknowledgement.
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
    /// When the (latest attempt of the) packet entered the NIC.
    pub sent_at: SimTime,
    /// When the current attempt times out.
    pub deadline: SimTime,
    /// Transmission attempts so far (1 = original send).
    pub attempts: u32,
}

impl PendingTx {
    /// The record of `chunks` entering the NIC at `now` as `send` says.
    pub(crate) fn sent(
        chunks: Vec<PlannedChunk>,
        dst: NodeId,
        linearize: bool,
        now: SimTime,
        send: Attempt,
    ) -> PendingTx {
        PendingTx {
            chunks,
            dst,
            rail: send.rail,
            linearize,
            sent_at: now,
            deadline: send.deadline,
            attempts: send.attempts,
        }
    }
}

/// Tracks unacked packets.
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

    /// Track a freshly sent data packet.
    pub fn track(&mut self, cookie: u64, tx: PendingTx) {
        self.pending.insert(cookie, tx);
    }

    /// Stop tracking `cookie` (ack received, timed out or given up). Returns the
    /// entry when it was still tracked — a duplicate ack returns `None`.
    pub fn acked(&mut self, cookie: u64) -> Option<PendingTx> {
        self.pending.remove(&cookie)
    }

    /// Whether a cookie is still awaiting its ack.
    pub fn is_pending(&self, cookie: u64) -> bool {
        self.pending.contains_key(&cookie)
    }

    /// Number of unacked packets.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is awaiting an ack.
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
    // The per-packet payload ceiling: the wire MTU minus worst-case framing
    // for the chunks we pack, and the PIO cap when the driver cannot DMA.
    let payload_cap = |n_chunks: usize| -> u64 {
        let framing = proto::framing_bytes(n_chunks.max(1));
        let mut cap = wire_mtu.saturating_sub(framing);
        cap = cap.min(caps.max_packet_bytes.saturating_sub(framing));
        if !caps.supports_dma {
            cap = cap.min(caps.pio_max_bytes.saturating_sub(framing));
        }
        cap.max(1)
    };
    // Gather width: header block occupies one entry, each chunk one more.
    // Linearized (copy) packets have no gather constraint, but splitting to
    // the gather width is always safe, so we honor it unconditionally —
    // this is what the madcheck conformance rule verifies.
    let max_chunks = if caps.supports_dma && caps.max_gather_entries > 1 {
        (caps.max_gather_entries - 1).max(1)
    } else {
        1
    };

    let mut packets: Vec<Vec<PlannedChunk>> = Vec::new();
    let mut current: Vec<PlannedChunk> = Vec::new();
    let mut current_bytes = 0u64;
    for chunk in chunks {
        // Split the chunk itself if it alone exceeds the single-chunk cap.
        let single_cap = payload_cap(1) as u32;
        let mut offset = chunk.offset;
        let mut remaining = chunk.len;
        while remaining > 0 {
            let piece = remaining.min(single_cap);
            let pc = PlannedChunk {
                flow: chunk.flow,
                seq: chunk.seq,
                frag: chunk.frag,
                offset,
                len: piece,
            };
            let fits_count = current.len() < max_chunks;
            let fits_bytes = current_bytes + piece as u64 <= payload_cap(current.len() + 1);
            if !current.is_empty() && !(fits_count && fits_bytes) {
                packets.push(std::mem::take(&mut current));
                current_bytes = 0;
            }
            current_bytes += piece as u64;
            current.push(pc);
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

/// One transmission of a tracked packet: where it goes out, which
/// attempt it is (1 = a first send, or a rerouted one whose budget
/// restarts) and when it times out (exponential backoff).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Attempt {
    pub(crate) rail: usize,
    pub(crate) attempts: u32,
    pub(crate) deadline: SimTime,
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
}

/// What to do with one timed-out packet ([`Reliability::expire`]) or
/// request ([`Reliability::expire_request`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Expiry {
    /// Re-send on the same rail; the retry budget is not yet spent.
    Resend(Attempt),
    /// The budget is spent and the rail is dead: re-send on the
    /// healthiest surviving rail, restarting the attempt budget there.
    Reroute(Attempt),
    /// The budget is spent and no live rail reaches the destination:
    /// complete the packet's accounting and count its messages lost.
    Lost,
    /// `Detect` mode: raise a fault and complete the packet's
    /// accounting; nothing is re-sent.
    DetectOnly,
}

/// The reliability layer's state: unacked packets with the single
/// retransmit timer, per-rail health, and the `EngineConfig` values that
/// drive them.
// madlint: send-sync — sharded across madpar workers with the engine core
pub(crate) struct Reliability {
    mode: ReliabilityMode,
    base_timeout: SimDuration,
    retry_budget: u32,
    congestion_aware: bool,
    retx: RetransmitTracker,
    /// Rendezvous requests whose grant has not come back.
    requests: BTreeMap<RequestKey, PendingRequest>,
    /// The armed timer with the deadline it was armed for.
    timer: Option<(TimerId, SimTime)>,
    health: Vec<RailHealth>,
}

impl Reliability {
    pub(crate) fn new(rails: usize, cfg: &EngineConfig) -> Self {
        Reliability {
            mode: cfg.reliability,
            base_timeout: cfg.retransmit_timeout,
            retry_budget: cfg.retry_budget,
            congestion_aware: cfg.congestion_aware,
            retx: RetransmitTracker::new(),
            requests: BTreeMap::new(),
            timer: None,
            health: vec![RailHealth::new(); rails],
        }
    }

    /// Whether data packets are tracked and acknowledged.
    pub(crate) fn acks_enabled(&self) -> bool {
        self.mode.acks_enabled()
    }

    /// Health of every rail, in rail order.
    pub(crate) fn rails(&self) -> &[RailHealth] {
        &self.health
    }

    /// Rails not declared dead, ascending.
    pub(crate) fn live_rails(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.health.len()).filter(|&r| !self.health[r].is_dead())
    }

    /// All rails in the order they pull the shared backlog: ascending
    /// cost penalty, so an ECN-inflated (or lossy) rail only sees what
    /// healthier rails left behind. Stable on the rail index — when every
    /// rail is equally healthy this is plain index order, preserving the
    /// determinism contract. Written into the caller's `order`, which it
    /// keeps between activations.
    pub(crate) fn pull_order(&self, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..self.health.len());
        order.sort_unstable_by(|&a, &b| {
            self.health[a]
                .cost_penalty()
                .total_cmp(&self.health[b].cost_penalty())
                .then(a.cmp(&b))
        });
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

    /// Unacked data packets.
    pub(crate) fn unacked(&self) -> usize {
        self.retx.len()
    }

    /// Whether `cookie` still awaits its ack.
    pub(crate) fn is_pending(&self, cookie: u64) -> bool {
        self.retx.is_pending(cookie)
    }

    /// The `attempts`-th transmission of a packet, entering `rail`'s NIC
    /// at `now` and due one backed-off timeout later.
    pub(crate) fn attempt(&self, rail: usize, attempts: u32, now: SimTime) -> Attempt {
        Attempt {
            rail,
            attempts,
            deadline: now + RetransmitTracker::backoff(self.base_timeout, attempts),
        }
    }

    /// Track a data packet until its ack.
    pub(crate) fn track(&mut self, cookie: u64, tx: PendingTx) {
        self.retx.track(cookie, tx);
    }

    /// An ack for `cookie` arrived carrying the fabric's ECN echo. False
    /// for a duplicate ack (the data was retransmitted and both copies
    /// arrived), which changes nothing.
    pub(crate) fn on_ack(
        &mut self,
        cookie: u64,
        ecn: bool,
        now: SimTime,
        node: NodeId,
        obs: &mut Observer,
    ) -> bool {
        let Some(p) = self.retx.acked(cookie) else {
            return false;
        };
        let rail = p.rail as u16;
        self.health[p.rail].on_ack();
        // madnet: the echoed congestion bit moves the rail's EWMA only in
        // congestion-aware mode; blind mode still counts marks.
        self.health[p.rail].on_congestion(ecn, self.congestion_aware);
        if ecn {
            let mark = EngineEvent::CongestionMark {
                src: node,
                cookie,
                rail,
            };
            obs.emit(now, mark);
        }
        let rtt_ns = now.since(p.sent_at).as_nanos();
        let acked = EngineEvent::AckReceived {
            cookie,
            rail,
            rtt_ns,
        };
        obs.emit(now, acked);
        true
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
    /// when the retry budget is spent) and return the packet with the
    /// action the engine must execute. Touches no driver and no timer;
    /// `reaches(rail, dst)` is the transfer layer's routing predicate.
    pub(crate) fn expire(
        &mut self,
        cookie: u64,
        now: SimTime,
        reaches: impl Fn(usize, NodeId) -> bool,
        obs: &mut Observer,
    ) -> Option<(PendingTx, Expiry)> {
        let p = self.retx.acked(cookie)?;
        let action = self.timed_out(p.rail, p.attempts, p.dst, now, reaches, obs);
        Some((p, action))
    }

    /// The `attempts`-th transmission on `rail` toward `dst` — of a data
    /// packet or of a rendezvous request — got no answer in time.
    fn timed_out(
        &mut self,
        rail: usize,
        attempts: u32,
        dst: NodeId,
        now: SimTime,
        reaches: impl Fn(usize, NodeId) -> bool,
        obs: &mut Observer,
    ) -> Expiry {
        obs.metrics_mut().timeouts += 1;
        if self.health[rail].on_timeout() {
            let score_milli = (self.health[rail].score() * 1000.0) as u32;
            let rail = rail as u16;
            obs.emit(now, EngineEvent::RailDegraded { rail, score_milli });
        }
        if !self.mode.recovers() {
            return Expiry::DetectOnly;
        }
        if attempts < self.retry_budget {
            return Expiry::Resend(self.attempt(rail, attempts + 1, now));
        }
        if !self.health[rail].is_dead() {
            self.health[rail].declare_dead();
            obs.emit(now, EngineEvent::RailDead { rail: rail as u16 });
        }
        match self.live_rail_for(|r| reaches(r, dst)) {
            Some(live) => Expiry::Reroute(self.attempt(live, 1, now)),
            None => Expiry::Lost,
        }
    }

    /// Track a rendezvous request toward `dst` until its grant.
    pub(crate) fn track_request(&mut self, key: RequestKey, dst: NodeId, sent: Attempt) {
        self.requests.insert(key, PendingRequest { dst, sent });
    }

    /// The request for `key` needs no more watching: its grant arrived (a
    /// second grant finds nothing), or its message left the backlog.
    pub(crate) fn settle_request(&mut self, key: RequestKey) {
        self.requests.remove(&key);
    }

    /// Requests whose grant is overdue at `now`, in key order. Feed each
    /// to [`Reliability::expire_request`].
    pub(crate) fn overdue_requests(&self, now: SimTime) -> Vec<RequestKey> {
        let overdue = self.requests.iter().filter(|(_, r)| r.sent.deadline <= now);
        overdue.map(|(&key, _)| key).collect()
    }

    /// [`Reliability::expire`] for the request of `key`: the same
    /// timeout, the same budget, the same decision.
    pub(crate) fn expire_request(
        &mut self,
        key: RequestKey,
        now: SimTime,
        reaches: impl Fn(usize, NodeId) -> bool,
        obs: &mut Observer,
    ) -> Option<(PendingRequest, Expiry)> {
        let asked = self.requests.remove(&key)?;
        let Attempt { rail, attempts, .. } = asked.sent;
        let action = self.timed_out(rail, attempts, asked.dst, now, reaches, obs);
        Some((asked, action))
    }

    /// (Re)arm the single retransmit timer toward the earliest pending
    /// deadline — of a packet or of a request — cancelling a stale one.
    /// With nothing pending the timer is cancelled so the simulation can
    /// reach quiescence.
    pub(crate) fn arm_timer(&mut self, ctx: &mut SimCtx<'_>) {
        let asked = self.requests.values().map(|r| r.sent.deadline).min();
        let deadline = self.retx.next_deadline().into_iter().chain(asked).min();
        if let Some((timer, armed_for)) = self.timer {
            if Some(armed_for) == deadline {
                return;
            }
            ctx.cancel_timer(timer);
        }
        self.timer = deadline.map(|d| (ctx.set_timer(d.since(ctx.now()), RETX_TAG), d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use nicdrv::calib;

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

    #[test]
    fn expire_decides_resend_reroute_lost_and_detect() {
        use ReliabilityMode::{Detect, Recover};
        let now = SimTime::from_nanos(1_000);
        let due = |rail, attempts| Attempt {
            rail,
            attempts,
            deadline: now + RetransmitTracker::backoff(SimDuration::from_micros(50), attempts),
        };
        // Two packets on rail 0 time out in one sweep, on their
        // `attempts`-th transmission of a budget of 3:
        // (mode, rails, attempts, rail 1 reaches dst) → decision, rail 0 dies
        let cases = [
            (Recover, 2, 1, true, Expiry::Resend(due(0, 2)), false),
            (Recover, 2, 3, true, Expiry::Reroute(due(1, 1)), true),
            (Recover, 2, 3, false, Expiry::Lost, true),
            (Recover, 1, 3, true, Expiry::Lost, true),
            (Detect, 2, 3, true, Expiry::DetectOnly, false),
        ];
        for (reliability, rails, attempts, alt, want, dies) in cases {
            let cfg = EngineConfig {
                reliability,
                retry_budget: 3,
                ..EngineConfig::default()
            };
            let (mut r, mut obs) = (Reliability::new(rails, &cfg), Observer::new(NodeId(0)));
            let sent = Attempt {
                rail: 0,
                attempts,
                deadline: now,
            };
            for cookie in [7, 8] {
                let tx = PendingTx::sent(vec![chunk(10)], NodeId(1), false, SimTime::ZERO, sent);
                r.track(cookie, tx);
            }
            assert_eq!(r.begin_sweep(now), vec![7, 8]);
            let reaches = |rail: usize, _| rail == 0 || alt;
            let (p, action) = r.expire(7, now, reaches, &mut obs).expect("tracked");
            assert_eq!((p.attempts, action), (attempts, want));
            assert!(
                r.expire(7, now, reaches, &mut obs).is_none(),
                "expires once"
            );
            r.expire(8, now, reaches, &mut obs);
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
    fn a_request_is_watched_like_a_packet() {
        let cfg = EngineConfig {
            reliability: ReliabilityMode::Recover,
            retry_budget: 2,
            ..EngineConfig::default()
        };
        let (mut r, mut obs) = (Reliability::new(1, &cfg), Observer::new(NodeId(0)));
        let (key, other) = ((FlowId(3), 7, 1), (FlowId(3), 8, 0));
        let t = |us: u64| SimTime::from_nanos(us * 1_000);
        r.track_request(key, NodeId(1), r.attempt(0, 1, t(0)));
        r.track_request(other, NodeId(1), r.attempt(0, 1, t(10)));
        assert!(r.overdue_requests(t(49)).is_empty());
        assert_eq!(r.overdue_requests(t(50)), vec![key]);
        // Granted in time: nothing left to expire, and a second grant
        // finds nothing.
        r.settle_request(other);
        r.settle_request(other);
        assert!(r
            .expire_request(other, t(60), |_, _| true, &mut obs)
            .is_none());
        // Overdue: asked again with doubled patience, then — the budget
        // spent on the only rail — lost, and the rail with it.
        let (asked, action) = r.expire_request(key, t(50), |_, _| true, &mut obs).unwrap();
        let again = r.attempt(0, 2, t(50));
        assert_eq!((asked.dst, action), (NodeId(1), Expiry::Resend(again)));
        assert_eq!(again.deadline, t(150));
        r.track_request(key, NodeId(1), again);
        let (_, action) = r
            .expire_request(key, t(150), |_, _| true, &mut obs)
            .unwrap();
        assert_eq!(action, Expiry::Lost);
        assert!(r.rails()[0].is_dead());
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
            let payload: u64 = p.iter().map(|c| c.len as u64).sum();
            assert!(payload + proto::framing_bytes(p.len()) <= caps.pio_max_bytes);
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
            let payload: u64 = p.iter().map(|c| c.len as u64).sum();
            assert!(payload + proto::framing_bytes(p.len()) <= 4096);
        }
    }
}

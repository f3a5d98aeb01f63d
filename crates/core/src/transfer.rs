//! The transfer layer of Figure 1: the rails (drivers, class maps, peer
//! wiring) and the send-side bookkeeping above the drivers — cookie
//! allocation, the control-packet queue and the acks held for a ride.
//! `Transfer::submit_data` is the only place a data [`TransferRequest`]
//! is built; first sends and retransmissions both go through it, and it
//! stamps and encodes every packet in the same two buffers. A data packet
//! between submission and completion is recorded once, by madrel
//! ([`crate::reliability::PendingTx`]), in either reliability mode.
//!
//! Under `Recover` a received data packet's ack waits in its (rail, peer)
//! set (`HeldAcks`) for the next data packet to that peer on that rail,
//! which carries every ack of the set that fits behind its chunks. The
//! sender grants the hold: a packet that asks for its ack at once takes
//! the whole set with it in one ack packet, and so does the end of the
//! hold of the set's oldest ack, which one timer watches.

// madlint: file: hot-path
// madlint: file: deterministic-output
// madlint: file: trace-covered

use std::collections::{BTreeMap, HashMap, VecDeque};

use nicdrv::{Driver, DriverError, ModeSel, SimDriver, TransferRequest};
use simnet::{NicId, NodeId, SimCtx, SimDuration, SimTime, SubmitError};

use crate::api::ACK_HOLD_TAG;
use crate::classes::ClassMap;
use crate::collect::{chunk_header, CollectLayer};
use crate::cost::packet_limit;
use crate::error::EngineError;
use crate::plan::PlannedChunk;
use crate::proto::{
    encode_acks, encode_packet_with, encode_rndv, wire_bytes, AckHeader, ChunkHeader, Framing,
    WireChunk, KIND_ACK, KIND_DATA,
};
use crate::reliability::LazyTimer;

/// Cookie used by control packets (no completion bookkeeping).
pub(crate) const CTRL_COOKIE: u64 = 0;

/// One rail: a driver plus its routing and class/channel assignment.
pub(crate) struct Rail {
    pub(crate) driver: SimDriver,
    /// Class → virtual channel map for this NIC.
    pub(crate) classmap: ClassMap,
    /// Network MTU of the rail.
    pub(crate) wire_mtu: u64,
    peers: HashMap<NodeId, NicId>,
    /// When, by the driver's cost model, the transmit engine is through
    /// with everything submitted to it: each submission adds its
    /// injection, and the rail's idle report sets it back to that instant.
    tx_free: SimTime,
}

impl Rail {
    /// `dst`'s NIC address on this rail, when the rail reaches it.
    pub(crate) fn peer_nic(&self, dst: NodeId) -> Option<NicId> {
        self.peers.get(&dst).copied()
    }

    pub(crate) fn reaches(&self, dst: NodeId) -> bool {
        self.peers.contains_key(&dst)
    }

    /// How long, by the model, the transmit engine stays busy with what
    /// it holds at `now`.
    pub(crate) fn tx_wait(&self, now: SimTime) -> SimDuration {
        self.tx_free.since(now)
    }

    /// Submit `req`, `bytes` long. Accepted, its injection — in the mode
    /// the driver resolved for it, and after its host preparation —
    /// follows whatever the transmit engine holds.
    // madlint: allow(trace-coverage) — a driver submit; the callers push
    // PacketEncoded / Retransmit for what it carries
    fn submit(
        &mut self,
        ctx: &mut SimCtx<'_>,
        req: TransferRequest,
        bytes: u64,
    ) -> Result<(), DriverError> {
        let (segs, prep, now) = (req.segments.len(), req.host_prep, ctx.now());
        let mode = self.driver.submit(ctx, req)?;
        let inject = self.driver.cost_model().injection_time(mode, bytes, segs);
        self.tx_free = self.tx_free.max(now) + prep + inject;
        Ok(())
    }
}

/// An ack waiting for a ride: the data packet it acknowledges, that
/// packet's congestion mark, when it arrived and when the hold its packet
/// granted ends (then too, for a packet that asked for its ack at once).
#[derive(Clone, Copy, Debug)]
struct Held {
    cookie: u64,
    ecn: bool,
    at: SimTime,
    until: SimTime,
}

impl Held {
    /// The ack as it leaves at `now`, held until then or until its hold
    /// ended: a longer wait was for room in a full NIC queue, which is
    /// the path's delay for the sender's margin to see, not the
    /// receiver's choice.
    fn header(&self, now: SimTime) -> AckHeader {
        AckHeader {
            cookie: self.cookie,
            ecn: self.ecn,
            held_ns: now.min(self.until).since(self.at).as_nanos(),
        }
    }
}

/// The (rail, peer) pair a set of held acks answers.
type AckKey = (usize, NodeId);

/// madrel's receive side: the acks a node holds for a data packet to
/// ride back on, per (rail, peer) and oldest first, and one timer for the
/// end of the earliest hold. Emptied sets stay, so a steady exchange
/// allocates nothing.
#[derive(Debug)]
struct HeldAcks {
    /// How long an ack may wait for a ride ([`crate::reliability::ack_hold`]).
    hold: SimDuration,
    sets: BTreeMap<AckKey, Vec<Held>>,
    /// Acks held over all sets.
    held: usize,
    /// Sets whose ack packet found the NIC queue full: sent at the next
    /// [`Transfer::flush_ctrl`].
    owed: Vec<AckKey>,
    /// The hold timer.
    timer: LazyTimer,
}

impl HeldAcks {
    fn new(hold: SimDuration) -> Self {
        HeldAcks {
            hold,
            sets: BTreeMap::new(),
            held: 0,
            owed: Vec::new(),
            timer: LazyTimer::default(),
        }
    }

    /// When the earliest hold of a set not owed already ends (an owed set
    /// leaves at the next `tx_done`, not at a timer of its own).
    // madlint: allow(linear-scan) — the sets owed while one queue is full
    fn next_due(&self) -> Option<SimTime> {
        let waiting = self.sets.iter().filter(|(key, _)| !self.owed.contains(key));
        let oldest = waiting.filter_map(|(_, set)| set.first());
        oldest.map(|a| a.at + self.hold).min()
    }

    /// Arm the timer for the earliest hold's end.
    fn arm(&mut self, ctx: &mut SimCtx<'_>) {
        let due = self.next_due();
        self.timer.arm(ctx, due, ACK_HOLD_TAG);
    }

    /// Whether nothing is held for `key`.
    fn none_for(&self, key: AckKey) -> bool {
        self.sets.get(&key).is_none_or(Vec::is_empty)
    }

    /// Write into `riding` (empty) the acks from the front of `key`'s set
    /// that fit in `room` bytes, as they would leave at `now`; returns how
    /// many.
    fn peek(&self, key: AckKey, mut room: u64, now: SimTime, riding: &mut Vec<AckHeader>) -> usize {
        debug_assert!(riding.is_empty());
        for held in self.sets.get(&key).into_iter().flatten() {
            let ack = held.header(now);
            let Some(left) = room.checked_sub(ack.encoded_len()) else {
                break;
            };
            room = left;
            riding.push(ack);
        }
        riding.len()
    }

    /// The first `n` acks of `key`'s set have left; with nothing held
    /// anywhere the timer is cancelled.
    fn sent(&mut self, key: AckKey, n: usize, ctx: &mut SimCtx<'_>) {
        self.sets.get_mut(&key).expect("a set is kept").drain(..n);
        self.held -= n;
        if self.held == 0 {
            self.timer.cancel(ctx);
        }
    }

    /// `key`'s ack packet found the NIC queue full.
    // madlint: allow(linear-scan) — the sets owed while one queue is full
    fn owe(&mut self, key: AckKey) {
        if !self.owed.contains(&key) {
            self.owed.push(key);
        }
    }
}

/// Assemble a node's rails from `(driver, wire MTU)` pairs in rail order
/// and each peer's NIC addresses (one per rail, in rail order). Both
/// engines build theirs here.
pub(crate) fn build_rails(
    drivers: Vec<(SimDriver, u64)>,
    peer_nics: Vec<(NodeId, Vec<NicId>)>,
) -> Result<Vec<Rail>, EngineError> {
    if drivers.is_empty() {
        return Err(EngineError::Config("engine needs at least one rail".into()));
    }
    let mut rails: Vec<Rail> = drivers
        .into_iter()
        .map(|(driver, wire_mtu)| Rail {
            classmap: ClassMap::new(driver.capabilities().vchannels),
            driver,
            wire_mtu,
            peers: HashMap::new(),
            tx_free: SimTime::ZERO,
        })
        .collect();
    for (peer, nics) in peer_nics {
        if nics.len() != rails.len() {
            return Err(EngineError::Config(format!(
                "peer {peer:?} supplied {} NICs for {} rails",
                nics.len(),
                rails.len()
            )));
        }
        for (rail, nic) in rails.iter_mut().zip(nics) {
            rail.peers.insert(peer, nic);
        }
    }
    Ok(rails)
}

/// The rail a local NIC belongs to.
// madlint: allow(linear-scan) — the rails of one node
pub(crate) fn rail_of(rails: &[Rail], nic: NicId) -> Option<usize> {
    rails.iter().position(|r| r.driver.nic() == nic)
}

/// Flow-open check: `dst` must be a registered peer on some rail.
///
/// # Panics
/// Panics when it is not — a topology bug best caught at flow-open time
/// rather than deep inside the optimizer.
// madlint: allow(linear-scan) — the rails of one node, once per flow opened
pub(crate) fn assert_reachable(rails: &[Rail], dst: NodeId, node: NodeId) {
    assert!(
        rails.iter().any(|r| r.reaches(dst)),
        "node {dst:?} is not a registered peer on any rail of node {node:?}"
    );
}

/// The optimizing engine's transfer layer.
// madlint: send-sync — sharded across madpar workers with the engine core
pub(crate) struct Transfer {
    rails: Vec<Rail>,
    next_cookie: u64,
    pending_ctrl: VecDeque<(usize, NodeId, u16, ChunkHeader)>,
    /// The wire chunks of the data packet submitted last.
    wire: Vec<WireChunk>,
    /// That packet's size on the wire.
    wire_bytes: u64,
    /// Where a gather list's header block is written before it is frozen.
    block: Vec<u8>,
    /// Acks held for a ride.
    acks: HeldAcks,
    /// The ack headers of the packet being built.
    riding: Vec<AckHeader>,
}

impl Transfer {
    /// The layer over `rails`, holding acks for up to `hold`.
    pub(crate) fn new(rails: Vec<Rail>, hold: SimDuration) -> Self {
        Transfer {
            rails,
            next_cookie: 1,
            pending_ctrl: VecDeque::new(),
            wire: Vec::new(),
            wire_bytes: 0,
            block: Vec::new(),
            acks: HeldAcks::new(hold),
            riding: Vec::new(),
        }
    }

    pub(crate) fn rails(&self) -> &[Rail] {
        &self.rails
    }

    /// The rails, mutably (class ↔ channel reassignment).
    pub(crate) fn rails_mut(&mut self) -> &mut [Rail] {
        &mut self.rails
    }

    /// `rail` reported its transmit engine idle at `now`: whatever the
    /// model still had it busy with is done.
    pub(crate) fn rail_idle(&mut self, rail: usize, now: SimTime) {
        self.rails[rail].tx_free = now;
    }

    /// Stamp one wire chunk per planned chunk from its live message (the
    /// header and a zero-copy slice of the payload), encode them into one
    /// data packet toward `dst` — behind them as many of the acks held for
    /// `dst` on `rail` as the packet has room for, and asking for its own
    /// ack at once when `ack_now` — and submit it on `rail` under a fresh
    /// cookie. A packet travels on one virtual channel; when chunks of
    /// several classes share it (only possible when the policy lets those
    /// classes share the rail), the leading chunk's class tags it.
    /// Receiver demux by channel is a sorting aid (§2), not a correctness
    /// dependency — chunk headers carry the authoritative class.
    ///
    /// Returns the cookie with the driver's verdict — the caller decides
    /// what a refusal means (a first send stops the activation; a
    /// retransmission stays tracked for the next sweep) — or fails without
    /// consuming a cookie when `rail` does not reach `dst`. Either way
    /// [`Transfer::wire`] holds the stamped chunks, and
    /// [`Transfer::wire_bytes`] their packet's size, until the next call.
    ///
    /// # Panics
    /// Panics when a chunk names a message no longer pending: plans are
    /// validated and retransmits only cover unacknowledged, still-queued data.
    // madlint: allow(trace-coverage) — a driver submit, not a collect-layer
    // one; PacketEncoded/ChunkBound/Retransmit are pushed by the callers
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit_data(
        &mut self,
        ctx: &mut SimCtx<'_>,
        rail: usize,
        dst: NodeId,
        collect: &CollectLayer,
        chunks: &[PlannedChunk],
        linearize: bool,
        ack_now: bool,
    ) -> Result<(u64, Result<(), DriverError>), EngineError> {
        self.wire.clear();
        self.wire.extend(chunks.iter().map(|c| {
            let (fs, msg) = collect
                .find(c.flow, c.seq)
                .expect("planned chunk references live message");
            WireChunk {
                header: chunk_header(fs, c.seq, msg, c),
                data: msg.frags[c.frag as usize]
                    .data
                    .slice(c.offset as usize..(c.offset + c.len) as usize),
            }
        }));
        let wire = &self.wire;
        let rail_idx = rail;
        let rail = &mut self.rails[rail];
        let dst_nic = rail.peer_nic(dst).ok_or(EngineError::UnknownPeer(dst))?;
        self.riding.clear();
        if self.acks.held > 0 {
            // Acks take only room that leaves the packet every injection
            // mode selection validated it for: one that fits PIO, which
            // may be its only way onto the rail, still does.
            let caps = rail.driver.capabilities();
            let data = wire_bytes(wire.iter().map(|c| c.header));
            let mut limit = packet_limit(caps, rail.wire_mtu);
            if caps.can_pio(data) {
                limit = limit.min(caps.pio_max_bytes);
            }
            let room = limit.saturating_sub(data);
            let key = (rail_idx, dst);
            self.acks.peek(key, room, ctx.now(), &mut self.riding);
        }
        let riding = &self.riding;
        let segments = encode_packet_with(&mut self.block, wire, riding, ack_now, linearize);
        // The bytes selection priced (`validate_chunks`, under the headers
        // stamped here) are the bytes the NIC is handed, and the acks
        // riding behind them.
        let bytes = segments.iter().map(|s| s.len() as u64).sum::<u64>();
        debug_assert_eq!(
            bytes,
            wire_bytes(wire.iter().map(|c| c.header))
                + riding.iter().map(AckHeader::encoded_len).sum::<u64>()
        );
        self.wire_bytes = bytes;
        let host_prep = if linearize {
            rail.driver.cost_model().copy_time(bytes)
        } else {
            SimDuration::ZERO
        };
        let cookie = self.next_cookie;
        self.next_cookie += 1;
        let req = TransferRequest {
            dst_nic,
            vchan: rail.classmap.vchan_for(wire[0].header.class),
            kind: KIND_DATA,
            cookie,
            mode: ModeSel::Auto,
            host_prep,
            segments,
        };
        let sent = rail.submit(ctx, req, bytes);
        if sent.is_ok() && !self.riding.is_empty() {
            self.acks.sent((rail_idx, dst), self.riding.len(), ctx);
        }
        Ok((cookie, sent))
    }

    /// The wire chunks [`Transfer::submit_data`] stamped last, one per
    /// planned chunk in order: what the rest of a send needs from the
    /// messages (class, submission time) without looking them up again.
    pub(crate) fn wire(&self) -> &[WireChunk] {
        &self.wire
    }

    /// The size on the wire of the data packet [`Transfer::submit_data`]
    /// encoded last.
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Send (or queue) a control packet on a rail's control channel.
    // madlint: allow(trace-coverage) — control-plane send; rndv gate/grant
    // transitions are traced by the callers that build the header
    pub(crate) fn send_ctrl(
        &mut self,
        ctx: &mut SimCtx<'_>,
        rail_idx: usize,
        dst: NodeId,
        kind: u16,
        header: ChunkHeader,
    ) -> Result<(), EngineError> {
        let rail = &mut self.rails[rail_idx];
        let dst_nic = rail.peer_nic(dst).ok_or(EngineError::UnknownPeer(dst))?;
        if rail.driver.free_slots(ctx) == 0 {
            self.pending_ctrl.push_back((rail_idx, dst, kind, header));
            return Ok(());
        }
        let req = TransferRequest {
            dst_nic,
            vchan: rail.classmap.control(),
            kind,
            cookie: CTRL_COOKIE,
            mode: ModeSel::Auto,
            host_prep: SimDuration::ZERO,
            segments: encode_rndv(header),
        };
        let bytes = req.len();
        match rail.submit(ctx, req, bytes) {
            Ok(()) => Ok(()),
            Err(DriverError::Nic(SubmitError::QueueFull)) => {
                self.pending_ctrl.push_back((rail_idx, dst, kind, header));
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Retry queued control packets and owed ack sets (called whenever
    /// queue space may have appeared). Returns the ack packets sent.
    pub(crate) fn flush_ctrl(&mut self, ctx: &mut SimCtx<'_>) -> u64 {
        for _ in 0..self.pending_ctrl.len() {
            let Some((rail_idx, dst, kind, header)) = self.pending_ctrl.pop_front() else {
                break;
            };
            // send_ctrl re-queues on failure.
            let _ = self.send_ctrl(ctx, rail_idx, dst, kind, header);
        }
        if self.acks.owed.is_empty() {
            return 0;
        }
        let owed = std::mem::take(&mut self.acks.owed);
        owed.into_iter().map(|key| self.send_acks(ctx, key)).sum()
    }

    /// Control packets waiting for queue space, and acks held for a ride.
    pub(crate) fn ctrl_len(&self) -> usize {
        self.pending_ctrl.len() + self.acks.held
    }

    /// Whether the hold timer is armed.
    pub(crate) fn hold_armed(&self) -> bool {
        self.acks.timer.is_armed()
    }

    /// Data packet `cookie` from `peer`, congestion-marked when `ecn`,
    /// arrived on `rail` just now: hold its ack for a ride, or — when the
    /// packet asks for it at once — send it now with every ack held for
    /// `peer` on `rail`. Returns the ack packets sent.
    pub(crate) fn hold_ack(
        &mut self,
        ctx: &mut SimCtx<'_>,
        rail: usize,
        peer: NodeId,
        (cookie, ecn): (u64, bool),
        ack_now: bool,
    ) -> u64 {
        let key = (rail, peer);
        let now = ack_now || self.acks.hold.is_zero();
        let at = ctx.now();
        let held = Held {
            cookie,
            ecn,
            at,
            until: if now { at } else { at + self.acks.hold },
        };
        // Nothing held for `peer` on `rail`, so nothing owed either: an ack
        // asked for at once leaves alone, without its set, unless the
        // queue is full.
        if now && self.acks.none_for(key) && self.submit_acks(ctx, key, &[held.header(held.at)]) {
            return 1;
        }
        let acks = &mut self.acks;
        acks.sets.entry(key).or_default().push(held);
        acks.held += 1;
        if now {
            return self.send_acks(ctx, key);
        }
        if !acks.timer.is_armed() {
            acks.arm(ctx);
        }
        0
    }

    /// The hold timer fired: every set whose oldest ack has waited its
    /// hold out leaves in an ack packet. Returns the ack packets sent.
    pub(crate) fn on_hold_timer(&mut self, ctx: &mut SimCtx<'_>) -> u64 {
        self.acks.timer.fired();
        let now = ctx.now();
        let hold = self.acks.hold;
        let due: Vec<_> = self
            .acks
            .sets
            .iter()
            .filter(|(key, set)| {
                set.first().is_some_and(|a| a.at + hold <= now) && !self.acks.owed.contains(key)
            })
            .map(|(&key, _)| key)
            .collect();
        let sent = due.into_iter().map(|key| self.send_acks(ctx, key)).sum();
        self.acks.arm(ctx);
        sent
    }

    /// Send every ack held for `key` — one ack packet, or as many as the
    /// rail's packet size needs — or, with the NIC queue full, owe them
    /// until [`Transfer::flush_ctrl`]. Returns the ack packets sent.
    fn send_acks(&mut self, ctx: &mut SimCtx<'_>, key: AckKey) -> u64 {
        let rail = &self.rails[key.0];
        let limit = packet_limit(rail.driver.capabilities(), rail.wire_mtu);
        let room = limit.saturating_sub(Framing::new().bytes());
        let mut riding = std::mem::take(&mut self.riding);
        let mut sent = 0;
        loop {
            riding.clear();
            let n = self.acks.peek(key, room, ctx.now(), &mut riding);
            if n == 0 {
                break;
            }
            if !self.submit_acks(ctx, key, &riding) {
                self.acks.owe(key);
                break;
            }
            self.acks.sent(key, n, ctx);
            sent += 1;
        }
        self.riding = riding;
        sent
    }

    /// Submit one ack packet of `acks` to `key`'s peer on `key`'s rail;
    /// false when the queue has no room for it (or the rail does not reach
    /// the peer).
    // madlint: allow(trace-coverage) — control-plane send; the acks are
    // traced where they arrive (AckReceived)
    fn submit_acks(&mut self, ctx: &mut SimCtx<'_>, key: AckKey, acks: &[AckHeader]) -> bool {
        let rail = &mut self.rails[key.0];
        let Some(dst_nic) = rail.peer_nic(key.1) else {
            return false;
        };
        if rail.driver.free_slots(ctx) == 0 {
            return false;
        }
        let req = TransferRequest {
            dst_nic,
            vchan: rail.classmap.control(),
            kind: KIND_ACK,
            cookie: CTRL_COOKIE,
            mode: ModeSel::Auto,
            host_prep: SimDuration::ZERO,
            segments: encode_acks(acks),
        };
        let bytes = req.len();
        rail.submit(ctx, req, bytes).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_ack_reports_no_more_held_time_than_its_packet_granted() {
        let at = SimTime::from_nanos(10_000);
        let hold = SimDuration::from_micros(5);
        let granted = Held {
            cookie: 1,
            ecn: false,
            at,
            until: at + hold,
        };
        let asked = Held {
            until: at,
            ..granted
        };
        // Leaving with a ride inside its hold, it was held until it left.
        let ride = at + SimDuration::from_micros(2);
        assert_eq!(granted.header(ride).held_ns, 2_000);
        // Owed past its hold for room in a full NIC queue, it was held
        // for the hold: the rest is the path's delay.
        let late = at + SimDuration::from_micros(300);
        assert_eq!(granted.header(late).held_ns, 5_000);
        assert_eq!(asked.header(late).held_ns, 0);
    }
}

//! The transfer layer of Figure 1: the rails and the send-side bookkeeping
//! above the drivers — cookie allocation, the control-packet queue and the
//! acks held for a ride.
//!
//! A `Rail` is the one record of a rail: its driver with the class map
//! and MTU it runs under, when its transmit engine is through, madrel's
//! health and timeout clock for it, and one path per registered peer —
//! the peer's NIC address, the acks held for it, whether it has sent data
//! back. The engine keeps the rails; `Transfer` and madrel's
//! `Reliability` read and update them.
//!
//! `Transfer::submit_data` is the only place a data [`TransferRequest`]
//! is built; first sends and retransmissions both go through it, and it
//! stamps and encodes every packet in the same two buffers. A data packet
//! between submission and completion is recorded once, by madrel
//! ([`crate::reliability::PendingTx`]), in either reliability mode.
//!
//! Under `Recover` a received data packet's ack waits on its path for the
//! next data packet to that peer on that rail, which carries every ack
//! held there that fits behind its chunks. The sender grants the hold: a
//! packet that asks for its ack at once takes every ack the path holds
//! with it in one ack packet, and so does the end of the hold of the
//! path's oldest ack, which one timer watches.

// madlint: file: hot-path
// madlint: file: deterministic-output
// madlint: file: trace-covered

use std::collections::VecDeque;

use bytes::Bytes;
use nicdrv::{DriverError, SimDriver, TransferRequest};
use simnet::{NicId, NodeId, SimCtx, SimDuration, SimTime, SubmitError};

use crate::api::ACK_HOLD_TAG;
use crate::classes::ClassMap;
use crate::collect::{chunk_header, CollectLayer};
use crate::config::EngineConfig;
use crate::cost::packet_limit;
use crate::error::EngineError;
use crate::plan::PlannedChunk;
use crate::proto::{
    encode_acks, encode_packet_with, encode_rndv, wire_bytes, AckHeader, ChunkHeader, Framing,
    WireChunk, KIND_ACK, KIND_DATA,
};
use crate::reliability::{LazyTimer, RailClock, RailHealth};

/// Cookie used by control packets (no completion bookkeeping).
pub(crate) const CTRL_COOKIE: u64 = 0;

/// One rail: a driver with its class/channel assignment and MTU, what
/// madrel knows of it, and its path to each registered peer.
pub(crate) struct Rail {
    pub(crate) driver: SimDriver,
    /// Class → virtual channel map for this NIC.
    pub(crate) classmap: ClassMap,
    /// Network MTU of the rail.
    pub(crate) wire_mtu: u64,
    /// When, by the driver's cost model, the transmit engine is through
    /// with everything submitted to it: each submission adds its
    /// injection, and the rail's idle report sets it back to that instant.
    tx_free: SimTime,
    pub(crate) health: RailHealth,
    pub(crate) clock: RailClock,
    /// The path to each registered peer at its `NodeId`'s index: sized by
    /// the topology the engine was built with, never by an id off the wire.
    paths: Vec<Option<Path>>,
}

/// A rail's path to one registered peer: its NIC address, the acks held
/// for a data packet to it to ride back on (oldest first; emptied, the
/// buffer stays), and whether it has sent data on the rail — only a peer
/// that does can carry an ack back.
#[derive(Debug)]
struct Path {
    nic: NicId,
    held: Vec<Held>,
    heard: bool,
}

impl Rail {
    fn path(&self, peer: NodeId) -> Option<&Path> {
        self.paths.get(peer.0 as usize)?.as_ref()
    }

    fn path_mut(&mut self, peer: NodeId) -> Option<&mut Path> {
        self.paths.get_mut(peer.0 as usize)?.as_mut()
    }

    /// `dst`'s NIC address on this rail, when the rail reaches it.
    pub(crate) fn peer_nic(&self, dst: NodeId) -> Option<NicId> {
        self.path(dst).map(|p| p.nic)
    }

    /// Whether `dst` is a registered peer on this rail.
    pub(crate) fn reaches(&self, dst: NodeId) -> bool {
        self.path(dst).is_some()
    }

    /// Whether `peer` has sent data on this rail.
    pub(crate) fn heard(&self, peer: NodeId) -> bool {
        self.path(peer).is_some_and(|p| p.heard)
    }

    /// How long, by the model, the transmit engine stays busy with what
    /// it holds at `now`.
    pub(crate) fn tx_wait(&self, now: SimTime) -> SimDuration {
        self.tx_free.since(now)
    }

    /// The rail reported its transmit engine idle at `now`: whatever the
    /// model still had it busy with is done.
    pub(crate) fn tx_idle(&mut self, now: SimTime) {
        self.tx_free = now;
    }

    /// Submit `req`. Accepted, its injection — in the mode the driver
    /// resolved for it, and after its host preparation — follows whatever
    /// the transmit engine holds.
    // madlint: allow(trace-coverage) — a driver submit; the callers push
    // PacketEncoded / Retransmit for what it carries
    fn submit(&mut self, ctx: &mut SimCtx<'_>, req: TransferRequest) -> Result<(), DriverError> {
        let (bytes, segs, prep, now) = (req.len(), req.segments.len(), req.host_prep, ctx.now());
        let mode = self.driver.submit(ctx, req)?;
        let inject = self.driver.cost_model().injection_time(mode, bytes, segs);
        self.tx_free = self.tx_free.max(now) + prep + inject;
        Ok(())
    }

    /// Write into `out` (empty) the acks from the front of those held
    /// for `peer` that fit in `room` bytes, as they would leave at `now`;
    /// returns how many.
    fn peek(&self, peer: NodeId, mut room: u64, now: SimTime, out: &mut Vec<AckHeader>) -> usize {
        debug_assert!(out.is_empty());
        for held in self.path(peer).into_iter().flat_map(|p| &p.held) {
            let ack = held.header(now);
            let Some(left) = room.checked_sub(ack.encoded_len()) else {
                break;
            };
            room = left;
            out.push(ack);
        }
        out.len()
    }

    /// A control packet of `kind` made of `segments` to `dst_nic`, on the
    /// rail's control channel.
    fn control(&self, dst_nic: NicId, kind: u16, segments: Vec<Bytes>) -> TransferRequest {
        TransferRequest {
            dst_nic,
            vchan: self.classmap.control(),
            kind,
            cookie: CTRL_COOKIE,
            host_prep: SimDuration::ZERO,
            segments,
        }
    }

    /// Submit one ack packet of `acks` to `peer`; false when the queue has
    /// no room for it.
    // madlint: allow(trace-coverage) — control-plane send; the acks are
    // traced where they arrive (AckReceived)
    fn submit_acks(&mut self, ctx: &mut SimCtx<'_>, peer: NodeId, acks: &[AckHeader]) -> bool {
        let Some(dst_nic) = self.peer_nic(peer) else {
            return false;
        };
        if self.driver.free_slots(ctx) == 0 {
            return false;
        }
        let ack = self.control(dst_nic, KIND_ACK, encode_acks(acks));
        self.submit(ctx, ack).is_ok()
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

/// Assemble a node's rails from `(driver, wire MTU)` pairs in rail order
/// and each peer's NIC addresses (one per rail, in rail order), each
/// rail's timeout margin starting at `cfg`'s. Both engines build theirs
/// here.
pub(crate) fn build_rails(
    drivers: Vec<(SimDriver, u64)>,
    peer_nics: Vec<(NodeId, Vec<NicId>)>,
    cfg: &EngineConfig,
) -> Result<Vec<Rail>, EngineError> {
    if drivers.is_empty() {
        return Err(EngineError::Config("engine needs at least one rail".into()));
    }
    let slots = peer_nics.iter().map(|(peer, _)| peer.0 as usize + 1).max();
    let slots = slots.unwrap_or(0);
    let mut rails: Vec<Rail> = drivers
        .into_iter()
        .map(|(driver, wire_mtu)| {
            let (caps, cost) = (driver.capabilities(), driver.cost_model());
            Rail {
                classmap: ClassMap::new(caps.vchannels),
                clock: RailClock::new(caps, cost, cfg.retransmit_timeout),
                driver,
                wire_mtu,
                tx_free: SimTime::ZERO,
                health: RailHealth::new(),
                paths: std::iter::repeat_with(|| None).take(slots).collect(),
            }
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
            let path = Path {
                nic,
                held: Vec::new(),
                heard: false,
            };
            rail.paths[peer.0 as usize] = Some(path);
        }
    }
    Ok(rails)
}

/// The rail a local NIC belongs to.
// madlint: allow(linear-scan) — the rails of one node
pub(crate) fn rail_of(rails: &[Rail], nic: NicId) -> Option<usize> {
    rails.iter().position(|r| r.driver.nic() == nic)
}

/// The rails not declared dead, ascending.
pub(crate) fn live_rails(rails: &[Rail]) -> impl Iterator<Item = usize> + '_ {
    (0..rails.len()).filter(|&r| !rails[r].health.is_dead())
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

/// A path by its rail and peer.
type PathKey = (usize, NodeId);

/// Every path of every rail, in (rail, `NodeId`) order.
fn all_paths(rails: &[Rail]) -> impl Iterator<Item = (PathKey, &Path)> {
    rails.iter().enumerate().flat_map(|(r, rail)| {
        let slots = rail.paths.iter().enumerate();
        slots.filter_map(move |(id, path)| Some(((r, NodeId(id as u32)), path.as_ref()?)))
    })
}

/// The optimizing engine's transfer layer, over the engine's rails.
// madlint: send-sync — sharded across madpar workers with the engine core
#[derive(Default)]
pub(crate) struct Transfer {
    /// The cookie of the data packet submitted last (none yet: the
    /// control packets' [`CTRL_COOKIE`]).
    last_cookie: u64,
    pending_ctrl: VecDeque<(usize, NodeId, u16, ChunkHeader)>,
    /// The wire chunks of the data packet submitted last.
    wire: Vec<WireChunk>,
    /// That packet's size on the wire.
    wire_bytes: u64,
    /// Where a gather list's header block is written before it is frozen.
    block: Vec<u8>,
    /// Acks held over every rail's paths.
    held: usize,
    /// Paths whose ack packet found the NIC queue full, in the order they
    /// were owed: sent in that order at the next [`Transfer::flush_ctrl`].
    owed: Vec<PathKey>,
    /// The hold timer, for the end of the earliest hold on a path not owed.
    hold_timer: LazyTimer,
    /// The ack headers of the packet being built.
    riding: Vec<AckHeader>,
}

impl Transfer {
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
        rail: &mut Rail,
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
        let dst_nic = rail.peer_nic(dst).ok_or(EngineError::UnknownPeer(dst))?;
        self.riding.clear();
        if self.held > 0 {
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
            rail.peek(dst, room, ctx.now(), &mut self.riding);
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
        self.last_cookie += 1;
        let cookie = self.last_cookie;
        let req = TransferRequest {
            dst_nic,
            vchan: rail.classmap.vchan_for(wire[0].header.class),
            kind: KIND_DATA,
            cookie,
            host_prep,
            segments,
        };
        let sent = rail.submit(ctx, req);
        if sent.is_ok() && !self.riding.is_empty() {
            self.sent(ctx, rail, dst, self.riding.len());
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
        rails: &mut [Rail],
        rail_idx: usize,
        dst: NodeId,
        kind: u16,
        header: ChunkHeader,
    ) -> Result<(), EngineError> {
        let rail = &mut rails[rail_idx];
        let dst_nic = rail.peer_nic(dst).ok_or(EngineError::UnknownPeer(dst))?;
        let sent = if rail.driver.free_slots(ctx) == 0 {
            Err(DriverError::Nic(SubmitError::QueueFull))
        } else {
            rail.submit(ctx, rail.control(dst_nic, kind, encode_rndv(header)))
        };
        match sent {
            Ok(()) => Ok(()),
            Err(DriverError::Nic(SubmitError::QueueFull)) => {
                self.pending_ctrl.push_back((rail_idx, dst, kind, header));
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Retry queued control packets and owed ack packets (called whenever
    /// queue space may have appeared). Returns the ack packets sent.
    pub(crate) fn flush_ctrl(&mut self, ctx: &mut SimCtx<'_>, rails: &mut [Rail]) -> u64 {
        for _ in 0..self.pending_ctrl.len() {
            let Some((rail_idx, dst, kind, header)) = self.pending_ctrl.pop_front() else {
                break;
            };
            // send_ctrl re-queues on failure.
            let _ = self.send_ctrl(ctx, rails, rail_idx, dst, kind, header);
        }
        if self.owed.is_empty() {
            return 0;
        }
        let owed = std::mem::take(&mut self.owed);
        owed.into_iter()
            .map(|key| self.send_acks(ctx, rails, key))
            .sum()
    }

    /// Control packets waiting for queue space, and acks held for a ride.
    pub(crate) fn ctrl_len(&self) -> usize {
        self.pending_ctrl.len() + self.held
    }

    /// Whether the hold timer is armed.
    pub(crate) fn hold_armed(&self) -> bool {
        self.hold_timer.is_armed()
    }

    /// Data packet `cookie` from `peer`, congestion-marked when `ecn`,
    /// arrived on `rail` just now, granting its ack the hold `grant`
    /// (none: it asks for the ack at once). `peer` sends data back on
    /// `rail` from now on. Hold the ack for a ride, or — asked for at
    /// once — send it now with every ack held for `peer` on `rail`.
    /// Returns the ack packets sent.
    ///
    /// # Panics
    /// Panics when `peer` is no peer on `rail`: the engine takes packets
    /// from peers only.
    pub(crate) fn hold_ack(
        &mut self,
        ctx: &mut SimCtx<'_>,
        rails: &mut [Rail],
        rail: usize,
        peer: NodeId,
        (cookie, ecn): (u64, bool),
        grant: SimDuration,
    ) -> u64 {
        let at = ctx.now();
        let held = Held {
            cookie,
            ecn,
            at,
            until: at + grant,
        };
        let now = grant.is_zero();
        let path = rails[rail].path_mut(peer).expect("packets come from peers");
        path.heard = true;
        // Nothing held for `peer` on `rail`, so nothing owed either: an ack
        // asked for at once leaves alone, without the path's, unless the
        // queue is full.
        let alone = now && path.held.is_empty();
        if alone && rails[rail].submit_acks(ctx, peer, &[held.header(at)]) {
            return 1;
        }
        if let Some(path) = rails[rail].path_mut(peer) {
            path.held.push(held);
        }
        self.held += 1;
        if now {
            return self.send_acks(ctx, rails, (rail, peer));
        }
        if !self.hold_timer.is_armed() {
            self.arm(ctx, rails);
        }
        0
    }

    /// The hold timer fired: every path whose oldest ack has waited its
    /// hold out sends its acks in an ack packet. Returns the ack packets
    /// sent.
    pub(crate) fn on_hold_timer(&mut self, ctx: &mut SimCtx<'_>, rails: &mut [Rail]) -> u64 {
        self.hold_timer.fired();
        let now = ctx.now();
        let ended = self
            .waiting(rails)
            .filter(|(_, oldest)| oldest.until <= now);
        let due: Vec<_> = ended.map(|(key, _)| key).collect();
        let sent = due
            .into_iter()
            .map(|key| self.send_acks(ctx, rails, key))
            .sum();
        self.arm(ctx, rails);
        sent
    }

    /// Arm the hold timer for the earliest hold's end.
    fn arm(&mut self, ctx: &mut SimCtx<'_>, rails: &[Rail]) {
        let due = self.waiting(rails).map(|(_, oldest)| oldest.until).min();
        self.hold_timer.arm(ctx, due, ACK_HOLD_TAG);
    }

    /// Each path that holds acks and is not owed an ack packet (its acks
    /// leave at the next `tx_done`), with its oldest ack — one granted its
    /// hold: one asked for at once leaves, or is owed, as it arrives.
    // madlint: allow(linear-scan) — the paths owed while one queue is full
    fn waiting<'a>(&'a self, rails: &'a [Rail]) -> impl Iterator<Item = (PathKey, &'a Held)> {
        let paths = all_paths(rails).filter(|(key, _)| !self.owed.contains(key));
        paths.filter_map(|(key, path)| Some((key, path.held.first()?)))
    }

    /// Send every ack held on `key`'s path — one ack packet, or as many as
    /// the rail's packet size needs — or, with the NIC queue full, owe
    /// them until [`Transfer::flush_ctrl`]. Returns the ack packets sent.
    fn send_acks(&mut self, ctx: &mut SimCtx<'_>, rails: &mut [Rail], key: PathKey) -> u64 {
        let (rail, peer) = (&mut rails[key.0], key.1);
        let limit = packet_limit(rail.driver.capabilities(), rail.wire_mtu);
        let room = limit.saturating_sub(Framing::new().bytes());
        let mut riding = std::mem::take(&mut self.riding);
        let mut sent = 0;
        loop {
            riding.clear();
            let n = rail.peek(peer, room, ctx.now(), &mut riding);
            if n == 0 {
                break;
            }
            if !rail.submit_acks(ctx, peer, &riding) {
                // madlint: allow(linear-scan) — the paths owed while one queue is full
                if !self.owed.contains(&key) {
                    self.owed.push(key);
                }
                break;
            }
            self.sent(ctx, rail, peer, n);
            sent += 1;
        }
        self.riding = riding;
        sent
    }

    /// The first `n` acks held for `peer` on `rail` have left; with
    /// nothing held anywhere the timer is cancelled.
    fn sent(&mut self, ctx: &mut SimCtx<'_>, rail: &mut Rail, peer: NodeId, n: usize) {
        if let Some(path) = rail.path_mut(peer) {
            path.held.drain(..n);
        }
        self.held -= n;
        if self.held == 0 {
            self.hold_timer.cancel(ctx);
        }
    }

    /// Cross-check the held acks against the rails: the count is the sum
    /// over every path, and every path owed an ack packet holds acks for
    /// it. Compiled only with the `debug-invariants` feature.
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn debug_assert_invariants(&self, rails: &[Rail]) {
        let held: usize = all_paths(rails).map(|(_, path)| path.held.len()).sum();
        assert_eq!(held, self.held, "held-ack count disagrees with the paths");
        for &(rail, peer) in &self.owed {
            let holds = rails[rail].path(peer).is_some_and(|p| !p.held.is_empty());
            assert!(holds, "rail {rail} owes {peer:?} acks it does not hold");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Rail {
        /// A data packet from `peer` arrived on this rail.
        pub(crate) fn hear(&mut self, peer: NodeId) {
            self.path_mut(peer).expect("a registered peer").heard = true;
        }
    }

    impl Transfer {
        /// The paths owed an ack packet, in the order they were owed.
        pub(crate) fn owed(&self) -> &[PathKey] {
            &self.owed
        }
    }

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

//! The transfer layer of Figure 1: the rails (drivers, class maps, peer
//! wiring) and the send-side bookkeeping above the drivers — cookie
//! allocation and the control-packet queue. `Transfer::submit_data` is
//! the only place a data [`TransferRequest`] is built; first sends and
//! retransmissions both go through it, and it stamps and encodes every
//! packet in the same two buffers. A data packet between submission and
//! completion is recorded once, by madrel
//! ([`crate::reliability::PendingTx`]), in either reliability mode.

// madlint: file: hot-path
// madlint: file: deterministic-output
// madlint: file: trace-covered

use std::collections::{HashMap, VecDeque};

use nicdrv::{Driver, DriverError, ModeSel, SimDriver, TransferRequest};
use simnet::{NicId, NodeId, SimCtx, SimDuration, SimTime, SubmitError};

use crate::classes::ClassMap;
use crate::collect::{chunk_header, CollectLayer};
use crate::error::EngineError;
use crate::plan::PlannedChunk;
use crate::proto::{
    encode_packet_with, encode_rndv, wire_bytes, ChunkHeader, WireChunk, KIND_DATA,
};

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
}

impl Transfer {
    pub(crate) fn new(rails: Vec<Rail>) -> Self {
        Transfer {
            rails,
            next_cookie: 1,
            pending_ctrl: VecDeque::new(),
            wire: Vec::new(),
            wire_bytes: 0,
            block: Vec::new(),
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
    /// data packet toward `dst` and submit it on `rail` under a fresh
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
    pub(crate) fn submit_data(
        &mut self,
        ctx: &mut SimCtx<'_>,
        rail: usize,
        dst: NodeId,
        collect: &CollectLayer,
        chunks: &[PlannedChunk],
        linearize: bool,
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
        let rail = &mut self.rails[rail];
        let dst_nic = rail.peer_nic(dst).ok_or(EngineError::UnknownPeer(dst))?;
        let segments = encode_packet_with(&mut self.block, wire, linearize);
        // The bytes selection priced (`validate_chunks`, under the headers
        // stamped here) are the bytes the NIC is handed.
        let bytes = segments.iter().map(|s| s.len() as u64).sum::<u64>();
        debug_assert_eq!(bytes, wire_bytes(wire.iter().map(|c| c.header)));
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
        Ok((cookie, rail.submit(ctx, req, bytes)))
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

    /// Retry queued control packets (called whenever queue space may have
    /// appeared).
    pub(crate) fn flush_ctrl(&mut self, ctx: &mut SimCtx<'_>) {
        for _ in 0..self.pending_ctrl.len() {
            let Some((rail_idx, dst, kind, header)) = self.pending_ctrl.pop_front() else {
                break;
            };
            // send_ctrl re-queues on failure.
            let _ = self.send_ctrl(ctx, rail_idx, dst, kind, header);
        }
    }

    /// Control packets waiting for queue space.
    pub(crate) fn ctrl_len(&self) -> usize {
        self.pending_ctrl.len()
    }
}

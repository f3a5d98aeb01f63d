//! The **collect layer** (bottom-left of Figure 1): per-flow lists of
//! waiting packets.
//!
//! "The application simply enqueues packets into a list and immediately
//! returns to computing" (§3). While a NIC is busy, submissions accumulate
//! here as a *backlog*; each optimizer activation views a window of that
//! backlog as schedulable chunk candidates. The window is made of data:
//! `lookahead_window` counts byte ranges a packet could carry, and a
//! fragment still waiting to *ask* for its rendezvous is offered beside
//! them, a few per destination ([`crate::plan::MAX_REQS_PER_DST`]), because a
//! request is no lookahead and a window full of requests has nothing to
//! aggregate.
//!
//! The backlog is one node-wide [`Slab`] of pending messages, each with
//! its first two fragments in place; a flow's queue holds only the
//! sequence number and slot of each of its messages. Memory follows the
//! backlog: a drained flow keeps an empty queue, and the slab gives back
//! every page but its first when the last message leaves.

// madlint: file: hot-path

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

use bytes::Bytes;
use simnet::{NodeId, SimTime};

use crate::flowmgr::{class_slot, DrrScheduler, FairnessMode, FlowIndex, CLASS_SLOTS};
use crate::ids::{ChannelId, FlowId, FragIndex, MsgId, MsgSeq, TrafficClass};
use crate::message::{Fragment, PackMode};
use crate::plan::{ChunkCandidate, DstGroup, PlannedChunk, RndvCandidate, WindowGroups};
use crate::slab::Slab;

/// Flows one sender may open, and so the flow ids a receiver accepts: a
/// peer's flow id is untrusted, and the receiver keeps a table indexed by
/// it.
pub const MAX_FLOWS: u32 = 1 << 20;

/// Convert a flow-table index into a `FlowId` payload, refusing ids at or
/// past [`MAX_FLOWS`] (which also refuses the silent wraparound a bare
/// `as u32` cast would produce).
///
/// # Panics
/// Panics when the table has exhausted the flow-id space.
pub fn flow_id_for_index(index: usize) -> u32 {
    u32::try_from(index)
        .ok()
        .filter(|&id| id < MAX_FLOWS)
        .expect("flow table exceeds MAX_FLOWS, the FlowId space")
}

/// Rendezvous protocol state of one pending fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RndvState {
    /// Small enough to go eagerly.
    Eager,
    /// Needs a rendezvous request before any data may move.
    NeedRequest,
    /// Request sent, waiting for the grant.
    Requested,
    /// Grant received; data may move.
    Granted,
}

/// What a pending fragment has for a window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Offer {
    /// Bytes a data packet can take.
    Data,
    /// A rendezvous request still to be sent.
    Request,
}

/// One fragment awaiting (complete) transmission.
#[derive(Clone, Debug)]
pub struct PendingFragment {
    /// Index within the message.
    pub index: FragIndex,
    /// Express/cheaper mode.
    pub mode: PackMode,
    /// Payload.
    pub data: Bytes,
    /// Bytes whose transmission has completed (tx_done seen).
    pub sent: u32,
    /// Bytes currently inside NIC hardware queues.
    pub inflight: u32,
    /// Rendezvous state.
    pub rndv: RndvState,
}

impl PendingFragment {
    /// A submitted fragment; one of `rndv_threshold` bytes or more enters
    /// the rendezvous protocol.
    fn new(f: Fragment, rndv_threshold: u64) -> Self {
        let rndv = if (f.data.len() as u64) >= rndv_threshold {
            RndvState::NeedRequest
        } else {
            RndvState::Eager
        };
        PendingFragment {
            index: f.index,
            mode: f.mode,
            data: f.data,
            sent: 0,
            inflight: 0,
            rndv,
        }
    }

    /// Fragment length.
    pub fn len(&self) -> u32 {
        self.data.len() as u32
    }

    /// True for zero-length fragments.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes committed to the NIC (sent or in flight).
    pub fn committed(&self) -> u32 {
        self.sent + self.inflight
    }

    /// Bytes still schedulable.
    pub fn remaining(&self) -> u32 {
        self.len() - self.committed()
    }

    /// All bytes handed to a NIC.
    pub fn fully_committed(&self) -> bool {
        self.committed() >= self.len()
    }

    /// All bytes completed transmission.
    pub fn fully_sent(&self) -> bool {
        self.sent >= self.len()
    }

    /// Whether the rendezvous protocol currently blocks scheduling.
    pub fn rndv_blocked(&self) -> bool {
        matches!(self.rndv, RndvState::NeedRequest | RndvState::Requested)
    }

    /// What the fragment has for a window: nothing once every byte is
    /// with a NIC, or while its request is out.
    fn offer(&self) -> Option<Offer> {
        if self.fully_committed() {
            return None;
        }
        match self.rndv {
            RndvState::Eager | RndvState::Granted => Some(Offer::Data),
            RndvState::NeedRequest => Some(Offer::Request),
            RndvState::Requested => None,
        }
    }
}

/// A message's fragments in pack order, used as a slice: one or two in
/// place — a header and a body, the shape most middleware sends — and
/// none or more than two in one heap block.
#[derive(Clone)]
pub struct Frags(FragStore);

/// The three shapes share one tag, kept in a spare value of a fragment's
/// enums, so two fragments in place cost no more than two fragments.
#[derive(Clone)]
enum FragStore {
    One(PendingFragment),
    Two([PendingFragment; 2]),
    Spilled(Box<[PendingFragment]>),
}

impl Frags {
    /// The fragments of `parts`, built where they are kept.
    fn from_parts(parts: Vec<Fragment>, rndv_threshold: u64) -> Self {
        let n = parts.len();
        let mut frags = parts
            .into_iter()
            .map(|f| PendingFragment::new(f, rndv_threshold));
        Frags(match (n, frags.next(), frags.next()) {
            (1, Some(one), None) => FragStore::One(one),
            (2, Some(first), Some(second)) => FragStore::Two([first, second]),
            (_, first, second) => {
                FragStore::Spilled(first.into_iter().chain(second).chain(frags).collect())
            }
        })
    }
}

impl Deref for Frags {
    type Target = [PendingFragment];

    fn deref(&self) -> &[PendingFragment] {
        match &self.0 {
            FragStore::One(frag) => std::slice::from_ref(frag),
            FragStore::Two(frags) => frags,
            FragStore::Spilled(frags) => frags,
        }
    }
}

impl DerefMut for Frags {
    fn deref_mut(&mut self) -> &mut [PendingFragment] {
        match &mut self.0 {
            FragStore::One(frag) => std::slice::from_mut(frag),
            FragStore::Two(frags) => frags,
            FragStore::Spilled(frags) => frags,
        }
    }
}

impl<'a> IntoIterator for &'a Frags {
    type Item = &'a PendingFragment;
    type IntoIter = std::slice::Iter<'a, PendingFragment>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for Frags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One submitted message not yet fully transmitted: a slot of the collect
/// layer's slab, 128 bytes with its first two fragments, so that a window
/// walk or a completion that reads it waits for memory once. Its flow and
/// sequence number are where its flow's queue names it, and its
/// destination and class are its flow's ([`FlowState`]).
#[derive(Clone, Debug)]
pub struct PendingMessage {
    /// Submission time.
    pub submitted_at: SimTime,
    /// Fragments in pack order.
    pub frags: Frags,
    /// Rail the message is pinned to while its express constraints are
    /// unresolved (cross-rail reordering could otherwise overtake an
    /// express header). `None` = free to use any eligible rail.
    pub pinned_rail: Option<ChannelId>,
}

impl PendingMessage {
    /// All fragments fully transmitted.
    pub fn is_complete(&self) -> bool {
        self.frags.iter().all(PendingFragment::fully_sent)
    }

    /// Whether all express fragments are fully sent (unpinning condition).
    pub fn express_resolved(&self) -> bool {
        self.frags
            .iter()
            .filter(|f| f.mode == PackMode::Express)
            .all(PendingFragment::fully_sent)
    }

    /// Payload bytes not yet committed to any NIC.
    pub fn backlog_bytes(&self) -> u64 {
        self.frags.iter().map(|f| f.remaining() as u64).sum()
    }
}

/// A pending message as its flow's queue holds it: its sequence number and
/// its slot in the layer's slab.
#[derive(Clone, Copy, Debug)]
struct Queued {
    seq: u32,
    slot: u32,
}

/// One flow's state: identity, class, routing, and its queue of pending
/// messages.
#[derive(Clone, Debug)]
pub struct FlowState {
    /// Flow id.
    pub id: FlowId,
    /// Destination node.
    pub dst: NodeId,
    /// Traffic class.
    pub class: TrafficClass,
    next_seq: u32,
    /// Pending (not fully transmitted) messages, oldest first: strictly
    /// ascending in `seq`, which is what lets `locate` resolve a message
    /// by position instead of walking the queue.
    queue: VecDeque<Queued>,
    /// Queued fragments that offer [`Offer::Data`].
    ready: u32,
    /// Queued fragments that offer [`Offer::Request`].
    asking: u32,
}

impl FlowState {
    /// Pending (not fully transmitted) messages of the flow.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Whether any queued fragment has something for a window. A flow
    /// without one is stepped over without a look at its queue.
    fn offerable(&self) -> bool {
        self.ready != 0 || self.asking != 0
    }

    /// One fragment of the flow went from offering `before` to offering
    /// `after` (`None` on either side: it entered or left the queue, or
    /// has nothing): keep the counts, and tell `index` when the flow
    /// becomes or stops being ready or asking.
    fn retally(&mut self, index: &mut FlowIndex, before: Option<Offer>, after: Option<Offer>) {
        if before == after {
            return;
        }
        let was = (self.ready, self.asking);
        for (offer, gained) in [(before, false), (after, true)] {
            let count = match offer {
                Some(Offer::Data) => &mut self.ready,
                Some(Offer::Request) => &mut self.asking,
                None => continue,
            };
            *count = if gained { *count + 1 } else { *count - 1 };
        }
        if (was.0 == 0) != (self.ready == 0) {
            index.note_ready(self.id.0, self.ready != 0);
        }
        if (was.1 == 0) != (self.asking == 0) {
            index.note_asking(self.dst, self.id.0, self.asking != 0);
        }
    }

    /// Queue position and slab slot of message `seq`, if it is still
    /// pending. Sequences are assigned densely and the queue is ascending,
    /// so the message sits `seq − front.seq` places from the front unless
    /// shedding or out-of-order completion removed something older; only
    /// then is it binary-searched for.
    fn locate(&self, seq: u32) -> Option<(usize, u32)> {
        let front = self.queue.front()?.seq;
        let guess = seq.checked_sub(front)? as usize;
        match self.queue.get(guess) {
            Some(q) if q.seq == seq => Some((guess, q.slot)),
            _ => {
                let at = self.queue.binary_search_by_key(&seq, |q| q.seq).ok()?;
                Some((at, self.queue[at].slot))
            }
        }
    }
}

/// The collect layer: all flows and their backlogs, plus the madflow
/// active-flow index so activation cost tracks schedulable work, not the
/// number of flows that merely exist.
#[derive(Clone, Debug, Default)]
// madlint: send-sync — owned per engine core, must shard with it
pub struct CollectLayer {
    flows: Vec<FlowState>,
    /// Every flow's pending messages, in the slots the queues name.
    msgs: Slab<PendingMessage>,
    index: FlowIndex,
    fairness: FairnessMode,
    drr: DrrScheduler,
    /// The pack-order walk's scratch, kept so a window allocates nothing.
    heads: Vec<(u32, NodeId)>,
}

impl CollectLayer {
    /// Empty collect layer.
    pub fn new() -> Self {
        CollectLayer::default()
    }

    /// Open a new flow toward `dst` with the given class.
    ///
    /// # Panics
    /// Panics past [`MAX_FLOWS`] flows.
    pub fn open_flow(&mut self, dst: NodeId, class: TrafficClass) -> FlowId {
        let id = FlowId(flow_id_for_index(self.flows.len()));
        self.flows.push(FlowState {
            id,
            dst,
            class,
            next_seq: 0,
            queue: VecDeque::new(),
            ready: 0,
            asking: 0,
        });
        self.drr.ensure_flows(self.flows.len());
        id
    }

    /// Select the flow-iteration order for `collect_candidates` and, for
    /// [`FairnessMode::Drr`], the quantum. Resets DRR cursors and deficits.
    pub fn set_fairness(&mut self, mode: FairnessMode, quantum: u64) {
        self.fairness = mode;
        self.drr = DrrScheduler::new(quantum);
        self.drr.ensure_flows(self.flows.len());
    }

    /// The active-flow index (read-only view).
    pub fn index(&self) -> &FlowIndex {
        &self.index
    }

    /// Flow lookup.
    pub fn flow(&self, id: FlowId) -> &FlowState {
        &self.flows[id.0 as usize]
    }

    /// All flows.
    pub fn flows(&self) -> &[FlowState] {
        &self.flows
    }

    /// Flow `id`'s pending messages with their sequence numbers, oldest
    /// first.
    pub fn queue(&self, id: FlowId) -> impl ExactSizeIterator<Item = (u32, &PendingMessage)> + '_ {
        let msgs = &self.msgs;
        self.flows[id.0 as usize]
            .queue
            .iter()
            .map(move |q| (q.seq, msgs.get(q.slot)))
    }

    /// The slab that holds every pending message (read-only view).
    pub fn slab(&self) -> &Slab<PendingMessage> {
        &self.msgs
    }

    /// Enqueue a packed message on `flow`. Fragments of `rndv_threshold`
    /// bytes or more enter the rendezvous protocol. Returns the assigned id.
    pub fn submit(
        &mut self,
        flow: FlowId,
        parts: Vec<Fragment>,
        now: SimTime,
        rndv_threshold: u64,
    ) -> MsgId {
        let fs = &mut self.flows[flow.0 as usize];
        let id = MsgId {
            flow,
            seq: MsgSeq(fs.next_seq),
        };
        fs.next_seq += 1;
        let frags = Frags::from_parts(parts, rndv_threshold);
        let mut bytes = 0u64;
        for f in &frags {
            bytes += u64::from(f.len());
            fs.retally(&mut self.index, None, f.offer());
        }
        let slot = self.msgs.insert(PendingMessage {
            submitted_at: now,
            frags,
            pinned_rail: None,
        });
        fs.queue.push_back(Queued {
            seq: id.seq.0,
            slot,
        });
        self.index.note_submit(flow.0, class_slot(fs.class), bytes);
        #[cfg(feature = "debug-invariants")]
        self.debug_assert_invariants();
        id
    }

    /// Total uncommitted payload bytes across all flows (O(1), maintained
    /// by the madflow index).
    pub fn backlog_bytes(&self) -> u64 {
        self.index.backlog_bytes()
    }

    /// Uncommitted payload bytes of one traffic class (O(1)).
    pub fn class_backlog_bytes(&self, class: TrafficClass) -> u64 {
        self.index.class_backlog_bytes(class_slot(class))
    }

    /// Pending (not fully transmitted) messages across all flows (O(1)).
    pub fn pending_msgs(&self) -> u64 {
        self.index.pending_msgs()
    }

    /// True if nothing is waiting anywhere (including rendezvous waits and
    /// in-flight-but-unfinished messages). O(1).
    pub fn is_empty(&self) -> bool {
        self.index.is_idle()
    }

    /// Flows with a non-empty pending queue, ascending by id.
    pub fn active_flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.index.active_ids().map(FlowId)
    }

    /// Find a pending message.
    pub fn find_msg(&self, flow: FlowId, seq: u32) -> Option<&PendingMessage> {
        self.find(flow, seq).map(|(_, msg)| msg)
    }

    /// Find a pending message with its flow, which names its destination
    /// and class.
    pub fn find(&self, flow: FlowId, seq: u32) -> Option<(&FlowState, &PendingMessage)> {
        let fs = self.flows.get(flow.0 as usize)?;
        let (_, slot) = fs.locate(seq)?;
        Some((fs, self.msgs.get(slot)))
    }

    /// Build the optimizer's view for one rail: schedulable chunks grouped
    /// by destination, at most `window` data candidates, oldest messages
    /// first, and beside them at most [`crate::plan::MAX_REQS_PER_DST`]
    /// rendezvous requests per destination — requests do not count
    /// against `window`. `eligible` filters flows by the scheduler policy
    /// for this rail. The walk ends when the window is full: a request
    /// lying behind the last data candidate waits for a later window.
    ///
    /// Only *offerable* flows — active, and with a fragment that has
    /// something for a window — are looked at. In the default
    /// [`FairnessMode::PackOrder`], they are visited in ascending id
    /// order, so the output is identical to a full-table walk, which
    /// would find nothing in the flows stepped over. [`FairnessMode::Drr`]
    /// instead splits the window across classes by weight and rotates a
    /// deficit-round-robin cursor over each class's flows (which is why
    /// this takes `&mut self`: cursors and deficits advance per call).
    pub fn collect_candidates(
        &mut self,
        rail: ChannelId,
        window: usize,
        eligible: impl Fn(FlowId, TrafficClass) -> bool,
    ) -> Vec<DstGroup> {
        let mut groups = WindowGroups::default();
        self.collect_window(rail, window, eligible, &mut groups);
        groups.into_groups()
    }

    /// [`CollectLayer::collect_candidates`] into the caller's `groups`
    /// (emptied here): the engine keeps one across activations, so a
    /// window is filled without allocating.
    pub(crate) fn collect_window(
        &mut self,
        rail: ChannelId,
        window: usize,
        eligible: impl Fn(FlowId, TrafficClass) -> bool,
        groups: &mut WindowGroups,
    ) {
        groups.clear();
        match self.fairness {
            FairnessMode::PackOrder => self.collect_pack_order(rail, window, eligible, groups),
            FairnessMode::Drr => self.collect_drr(rail, window, eligible, groups),
        }
        #[cfg(feature = "debug-invariants")]
        groups.debug_assert_invariants();
    }

    /// Historical flow order: ascending flow id, messages oldest first.
    fn collect_pack_order(
        &mut self,
        rail: ChannelId,
        window: usize,
        eligible: impl Fn(FlowId, TrafficClass) -> bool,
        groups: &mut WindowGroups,
    ) {
        let mut taken = 0usize;
        let mut walk = self.index.offer_walk(&mut self.heads);
        while taken < window {
            let Some(id) = walk.next(|dst| groups.rndv_full(dst)) else {
                break;
            };
            let fs = &self.flows[id as usize];
            if eligible(fs.id, fs.class) {
                Self::offer_flow(fs, &self.msgs, rail, window, &mut taken, groups, None);
            }
        }
    }

    /// Fair flow order: the window is split evenly across the class slots
    /// with active flows ([`DrrScheduler::shares`]), and within a class a
    /// deficit-round-robin cursor rotates over the active flows so every
    /// saturated flow is sampled, not just the lowest ids. Every active
    /// flow the cursor passes earns its quantum, offerable or not — what
    /// a flow with nothing to give is spared is the look at its queue.
    fn collect_drr(
        &mut self,
        rail: ChannelId,
        window: usize,
        eligible: impl Fn(FlowId, TrafficClass) -> bool,
        groups: &mut WindowGroups,
    ) {
        let CollectLayer {
            flows,
            msgs,
            index,
            drr,
            ..
        } = self;
        drr.ensure_flows(flows.len());
        let mut taken = 0usize;
        let mut active = [0usize; CLASS_SLOTS];
        for (slot, a) in active.iter_mut().enumerate() {
            *a = index.class_active_count(slot);
        }
        let shares = drr.shares(window, &active);
        for slot in 0..CLASS_SLOTS {
            if taken >= window || active[slot] == 0 || shares[slot] == 0 {
                continue;
            }
            // Soft per-class target; the global window still caps totals.
            let class_cap = (taken + shares[slot]).min(window);
            let mut last_visited = None;
            for id in index.class_ids_from(slot, drr.cursor(slot)) {
                if taken >= class_cap {
                    break;
                }
                let fs = &flows[id as usize];
                if !eligible(fs.id, fs.class) {
                    continue;
                }
                let mut budget = drr.visit(id as usize);
                last_visited = Some(id);
                if fs.offerable() {
                    let deficit = Some(&mut budget);
                    Self::offer_flow(fs, msgs, rail, class_cap, &mut taken, groups, deficit);
                }
                drr.store(id as usize, budget);
            }
            if let Some(last) = last_visited {
                drr.set_cursor(slot, last.wrapping_add(1));
            }
        }
    }

    /// Offer one flow's schedulable fragments into `groups`, honouring the
    /// candidate `window`, rail pinning, express gating and the rendezvous
    /// protocol. `taken` counts data candidates: a rendezvous request is
    /// offered beside the window while its destination has room for it,
    /// and skipped when it has not — but a request that has not gone out
    /// closes the express gate behind it, offered or not. With `deficit`
    /// set (DRR mode), each data candidate charges its remaining bytes and
    /// the flow stops offering when the budget drains; rendezvous requests
    /// carry no payload and charge nothing. A group is opened by the
    /// entry pushed into it, so a flow that has nothing leaves none.
    fn offer_flow(
        fs: &FlowState,
        msgs: &Slab<PendingMessage>,
        rail: ChannelId,
        window: usize,
        taken: &mut usize,
        groups: &mut WindowGroups,
        mut deficit: Option<&mut u64>,
    ) {
        for q in &fs.queue {
            if *taken >= window {
                return;
            }
            let msg = msgs.get(q.slot);
            if let Some(pin) = msg.pinned_rail {
                if pin != rail {
                    continue;
                }
            }
            // Fragments are offered in pack order. A fragment may be
            // offered even when an earlier express fragment is not yet
            // committed, because strategies preserve within-message
            // order, so the express bytes travel earlier in the same
            // packet (the constraint checker verifies this). Only an
            // express fragment stuck in the rendezvous protocol gates
            // everything behind it.
            let mut express_open = false;
            let msg_remaining = msg.backlog_bytes();
            for frag in &msg.frags {
                if *taken >= window {
                    return;
                }
                if frag.fully_committed() {
                    continue;
                }
                match frag.rndv {
                    RndvState::NeedRequest => {
                        let request = RndvCandidate {
                            flow: fs.id,
                            seq: q.seq,
                            frag: frag.index,
                            class: fs.class,
                            submitted_at: msg.submitted_at,
                        };
                        groups.offer_rndv(fs.dst, request);
                        if frag.mode == PackMode::Express {
                            express_open = true;
                        }
                    }
                    RndvState::Requested => {
                        if frag.mode == PackMode::Express {
                            express_open = true;
                        }
                    }
                    RndvState::Eager | RndvState::Granted => {
                        if express_open {
                            break; // gated behind a rendezvous express
                        }
                        if let Some(d) = deficit.as_deref_mut() {
                            if *d == 0 {
                                return; // budget drained for this visit
                            }
                            *d = d.saturating_sub(u64::from(frag.remaining()));
                        }
                        let group = groups.group_for(fs.dst);
                        group.candidates.push(ChunkCandidate {
                            at: group.candidates.len() as u32,
                            flow: fs.id,
                            seq: q.seq,
                            frag: frag.index,
                            offset: frag.committed(),
                            remaining: frag.remaining(),
                            msg_remaining,
                            express: frag.mode == PackMode::Express,
                            class: fs.class,
                            submitted_at: msg.submitted_at,
                        });
                        *taken += 1;
                    }
                }
            }
        }
    }

    /// Drop the oldest fully-uncommitted messages of `class` until `need`
    /// backlog bytes are freed (or no sheddable message remains). Messages
    /// with any byte already committed to a NIC are never shed. Returns
    /// the shed message ids with their freed bytes, oldest first —
    /// ordering is deterministic: (submission time, flow id, sequence).
    pub fn shed_oldest(&mut self, class: TrafficClass, need: u64) -> Vec<(MsgId, u64)> {
        let slot = class_slot(class);
        let mut sheddable: Vec<(SimTime, u32, u32, u64)> = Vec::new();
        for id in self.index.class_ids(slot) {
            for q in &self.flows[id as usize].queue {
                let msg = self.msgs.get(q.slot);
                if msg.frags.iter().all(|f| f.committed() == 0) {
                    sheddable.push((msg.submitted_at, id, q.seq, msg.backlog_bytes()));
                }
            }
        }
        sheddable.sort_unstable();
        let mut freed = 0u64;
        let mut out = Vec::new();
        for (_, flow, seq, bytes) in sheddable {
            if freed >= need {
                break;
            }
            let fs = &mut self.flows[flow as usize];
            let (at, msg_slot) = fs.locate(seq).expect("sheddable message is queued");
            fs.queue.remove(at);
            for f in &self.msgs.remove(msg_slot).frags {
                fs.retally(&mut self.index, f.offer(), None);
            }
            let empty = fs.queue.is_empty();
            self.index.note_remove(flow, slot, bytes, empty);
            freed += bytes;
            out.push((
                MsgId {
                    flow: FlowId(flow),
                    seq: MsgSeq(seq),
                },
                bytes,
            ));
        }
        #[cfg(feature = "debug-invariants")]
        self.debug_assert_invariants();
        out
    }

    /// Mark a planned chunk as handed to the NIC; pins the message to
    /// `rail` while its express constraints are open.
    ///
    /// # Panics
    /// Panics if the chunk does not start at the fragment's committed
    /// frontier — plans must schedule fragment bytes contiguously.
    pub fn commit_chunk(&mut self, chunk: &PlannedChunk, rail: ChannelId) {
        let fs = self.flows.get_mut(chunk.flow.0 as usize);
        let fs = fs.expect("commit for unknown flow");
        let (_, slot) = fs.locate(chunk.seq).expect("commit for unknown message");
        let msg = self.msgs.get_mut(slot);
        if msg.pinned_rail.is_none() && !msg.express_resolved() {
            msg.pinned_rail = Some(rail);
        }
        let frag = &mut msg.frags[chunk.frag as usize];
        let before = frag.offer();
        assert_eq!(
            frag.committed(),
            chunk.offset,
            "non-contiguous chunk commit for {}/{}",
            chunk.flow,
            chunk.frag
        );
        assert!(
            chunk.offset + chunk.len <= frag.len(),
            "chunk overruns fragment"
        );
        frag.inflight += chunk.len;
        let after = frag.offer();
        fs.retally(&mut self.index, before, after);
        self.index
            .note_commit(class_slot(fs.class), u64::from(chunk.len));
        #[cfg(feature = "debug-invariants")]
        self.debug_assert_invariants();
    }

    /// Mark a committed chunk's transmission complete; removes the message
    /// once fully sent. Returns true if the message completed.
    pub fn complete_chunk(&mut self, chunk: &PlannedChunk) -> bool {
        let fs = self
            .flows
            .get_mut(chunk.flow.0 as usize)
            .expect("completion for unknown flow");
        let (at, slot) = fs
            .locate(chunk.seq)
            .expect("completion for unknown message");
        let msg = self.msgs.get_mut(slot);
        let frag = &mut msg.frags[chunk.frag as usize];
        debug_assert!(frag.inflight >= chunk.len, "completion exceeds inflight");
        frag.inflight -= chunk.len;
        frag.sent += chunk.len;
        if msg.pinned_rail.is_some() && msg.express_resolved() {
            msg.pinned_rail = None;
        }
        let completed = msg.is_complete();
        if completed {
            // Front of the queue unless another rail finished a younger
            // message first; `remove` shifts the shorter side either way.
            fs.queue.remove(at);
            self.msgs.remove(slot);
            let empty = fs.queue.is_empty();
            self.index
                .note_remove(chunk.flow.0, class_slot(fs.class), 0, empty);
        }
        #[cfg(feature = "debug-invariants")]
        self.debug_assert_invariants();
        completed
    }

    /// Check the structural invariants every mutation must preserve:
    /// per-flow queues sorted by sequence number, one slab slot per queued
    /// message, no fragment accounting past its length, no committed bytes
    /// on rendezvous-gated fragments, no fully-sent message left in a
    /// queue, and an index — counters, active sets, offerable sets — that a
    /// recount of the queues agrees with. One pass over each queue.
    /// Compiled only with the `debug-invariants` feature (and for this
    /// crate's own tests); callers wrap invocations in the feature's `cfg`
    /// so release builds pay nothing.
    ///
    /// The sequence-order assertion is load-bearing: `find_msg`, commit,
    /// completion and shedding all locate a message by its position in an
    /// ascending queue, so an out-of-order queue would make live messages
    /// unreachable rather than merely mis-ordered.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub fn debug_assert_invariants(&self) {
        let mut backlog = 0u64;
        let mut by_class = [0u64; CLASS_SLOTS];
        let mut pending = 0u64;
        // The id sets iterate ascending, as does the flow table: one merge
        // pass checks membership both ways (an id left over at the end
        // names no flow, or sits in another class's set).
        let mut active_ids = self.index.active_ids().peekable();
        let mut ready_ids = self.index.ready_ids().peekable();
        let mut class_ids: [_; CLASS_SLOTS] =
            std::array::from_fn(|slot| self.index.class_ids(slot).peekable());
        let mut asking = Vec::new();
        for fs in &self.flows {
            let slot = class_slot(fs.class);
            let active = !fs.queue.is_empty();
            assert_eq!(
                active_ids.next_if_eq(&fs.id.0).is_some(),
                active,
                "{}: active-set membership diverged from queue state",
                fs.id
            );
            assert_eq!(
                class_ids[slot].next_if_eq(&fs.id.0).is_some(),
                active,
                "{}: class-set membership diverged from queue state",
                fs.id
            );
            // What the flow has for a window and its backlog, recounted
            // from its queue.
            let (mut ready, mut asks, mut flow_backlog) = (0, 0, 0);
            let mut prev_seq: Option<u32> = None;
            for (seq, msg) in self.queue(fs.id) {
                if let Some(p) = prev_seq {
                    assert!(seq > p, "{}: queue out of sequence order", fs.id);
                }
                prev_seq = Some(seq);
                assert!(!msg.is_complete(), "fully-sent message still queued");
                for f in &msg.frags {
                    assert!(
                        f.sent.checked_add(f.inflight).is_some_and(|c| c <= f.len()),
                        "{}: fragment {} accounting exceeds length",
                        fs.id,
                        f.index
                    );
                    if f.rndv_blocked() {
                        assert_eq!(
                            f.committed(),
                            0,
                            "{}: rendezvous-gated fragment {} has committed bytes",
                            fs.id,
                            f.index
                        );
                    }
                    match f.offer() {
                        Some(Offer::Data) => ready += 1,
                        Some(Offer::Request) => asks += 1,
                        None => {}
                    }
                    flow_backlog += u64::from(f.remaining());
                }
            }
            assert_eq!(
                (fs.ready, fs.asking),
                (ready, asks),
                "{}: offer counts drifted",
                fs.id
            );
            assert_eq!(
                ready_ids.next_if_eq(&fs.id.0).is_some(),
                fs.ready != 0,
                "{}: ready-set membership diverged from the count",
                fs.id
            );
            if fs.asking != 0 {
                asking.push((fs.dst, fs.id.0));
            }
            pending += fs.queue.len() as u64;
            backlog += flow_backlog;
            by_class[slot] += flow_backlog;
        }
        assert_eq!(active_ids.next(), None, "active set holds a stray flow id");
        assert_eq!(ready_ids.next(), None, "ready set holds a stray flow id");
        asking.sort_unstable();
        assert!(
            self.index.asking_ids().eq(asking),
            "asking set diverged from the counts"
        );
        for (slot, ids) in class_ids.iter_mut().enumerate() {
            assert_eq!(ids.next(), None, "class {slot} set holds a stray flow id");
        }
        assert_eq!(
            pending,
            self.msgs.len() as u64,
            "slab slots diverged from the queues"
        );
        assert_eq!(backlog, self.index.backlog_bytes(), "backlog counter drift");
        assert_eq!(pending, self.index.pending_msgs(), "pending counter drift");
        for (slot, &b) in by_class.iter().enumerate() {
            assert_eq!(
                b,
                self.index.class_backlog_bytes(slot),
                "class {slot} backlog counter drift"
            );
        }
    }

    /// Transition a fragment from `NeedRequest` to `Requested`.
    pub fn mark_rndv_requested(&mut self, flow: FlowId, seq: u32, frag: FragIndex) {
        self.set_rndv(
            flow,
            seq,
            frag,
            RndvState::NeedRequest,
            RndvState::Requested,
        );
    }

    /// Transition a fragment to `Granted` (rendezvous ack received).
    /// Returns true if the fragment was waiting for this grant.
    pub fn grant_rndv(&mut self, flow: FlowId, seq: u32, frag: FragIndex) -> bool {
        self.set_rndv(flow, seq, frag, RndvState::Requested, RndvState::Granted)
    }

    /// Move a fragment that is in rendezvous state `from` to state `to`;
    /// false when it is pending no more, or in another state.
    fn set_rndv(
        &mut self,
        flow: FlowId,
        seq: u32,
        frag: FragIndex,
        from: RndvState,
        to: RndvState,
    ) -> bool {
        let Some(fs) = self.flows.get_mut(flow.0 as usize) else {
            return false;
        };
        let Some((_, slot)) = fs.locate(seq) else {
            return false;
        };
        let f = &mut self.msgs.get_mut(slot).frags[frag as usize];
        if f.rndv != from {
            return false;
        }
        let before = f.offer();
        f.rndv = to;
        let after = f.offer();
        fs.retally(&mut self.index, before, after);
        #[cfg(feature = "debug-invariants")]
        self.debug_assert_invariants();
        true
    }
}

/// The oracle of the window walk: the walk as it was before flows were
/// indexed by what they have to give — every active flow is visited and
/// its queue scanned — with nothing new but the rule of what counts
/// (requests do not, and are offered up to the quota). The walk above must
/// build the same window, group for group and entry for entry.
#[cfg(test)]
impl CollectLayer {
    fn full_walk_window(
        &mut self,
        rail: ChannelId,
        window: usize,
        eligible: impl Fn(FlowId, TrafficClass) -> bool,
        groups: &mut WindowGroups,
    ) {
        groups.clear();
        match self.fairness {
            FairnessMode::PackOrder => self.full_walk_pack_order(rail, window, eligible, groups),
            FairnessMode::Drr => self.full_walk_drr(rail, window, eligible, groups),
        }
    }

    fn full_walk_pack_order(
        &self,
        rail: ChannelId,
        window: usize,
        eligible: impl Fn(FlowId, TrafficClass) -> bool,
        groups: &mut WindowGroups,
    ) {
        let mut taken = 0usize;
        for id in self.index.active_ids() {
            if taken >= window {
                break;
            }
            let fs = &self.flows[id as usize];
            if !eligible(fs.id, fs.class) {
                continue;
            }
            Self::offer_flow(fs, &self.msgs, rail, window, &mut taken, groups, None);
        }
    }

    fn full_walk_drr(
        &mut self,
        rail: ChannelId,
        window: usize,
        eligible: impl Fn(FlowId, TrafficClass) -> bool,
        groups: &mut WindowGroups,
    ) {
        let CollectLayer {
            flows,
            msgs,
            index,
            drr,
            ..
        } = self;
        drr.ensure_flows(flows.len());
        let mut taken = 0usize;
        let mut active = [0usize; CLASS_SLOTS];
        for (slot, a) in active.iter_mut().enumerate() {
            *a = index.class_active_count(slot);
        }
        let shares = drr.shares(window, &active);
        for slot in 0..CLASS_SLOTS {
            if taken >= window || active[slot] == 0 || shares[slot] == 0 {
                continue;
            }
            let class_cap = (taken + shares[slot]).min(window);
            let mut last_visited = None;
            for id in index.class_ids_from(slot, drr.cursor(slot)) {
                if taken >= class_cap {
                    break;
                }
                let fs = &flows[id as usize];
                if !eligible(fs.id, fs.class) {
                    continue;
                }
                let mut budget = drr.visit(id as usize);
                last_visited = Some(id);
                let deficit = Some(&mut budget);
                Self::offer_flow(fs, msgs, rail, class_cap, &mut taken, groups, deficit);
                drr.store(id as usize, budget);
            }
            if let Some(last) = last_visited {
                drr.set_cursor(slot, last.wrapping_add(1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageBuilder;

    fn layer_with_flow() -> (CollectLayer, FlowId) {
        let mut c = CollectLayer::new();
        let f = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
        (c, f)
    }

    fn parts(sizes: &[(usize, PackMode)]) -> Vec<Fragment> {
        let mut b = MessageBuilder::new();
        for &(n, mode) in sizes {
            b = b.pack(&vec![0xAB; n], mode);
        }
        b.build_parts()
    }

    #[test]
    fn submit_assigns_sequences() {
        let (mut c, f) = layer_with_flow();
        let a = c.submit(f, parts(&[(10, PackMode::Cheaper)]), SimTime::ZERO, 1 << 20);
        let b = c.submit(f, parts(&[(10, PackMode::Cheaper)]), SimTime::ZERO, 1 << 20);
        assert_eq!(a.seq.0, 0);
        assert_eq!(b.seq.0, 1);
        assert_eq!(c.backlog_bytes(), 20);
    }

    #[test]
    fn rndv_threshold_splits_protocols() {
        let (mut c, f) = layer_with_flow();
        c.submit(
            f,
            parts(&[(100, PackMode::Cheaper), (5000, PackMode::Cheaper)]),
            SimTime::ZERO,
            1024,
        );
        let msg = c.find_msg(f, 0).unwrap();
        assert_eq!(msg.frags[0].rndv, RndvState::Eager);
        assert_eq!(msg.frags[1].rndv, RndvState::NeedRequest);
    }

    #[test]
    fn all_fragments_offered_in_pack_order() {
        let (mut c, f) = layer_with_flow();
        c.submit(
            f,
            parts(&[
                (8, PackMode::Express),
                (100, PackMode::Cheaper),
                (8, PackMode::Express),
                (100, PackMode::Cheaper),
            ]),
            SimTime::ZERO,
            1 << 20,
        );
        // Every fragment is offered (in order): strategies keep the order,
        // so express headers travel before dependants in the same packet.
        let groups = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        assert_eq!(groups.len(), 1);
        let frags: Vec<_> = groups[0].candidates.iter().map(|c| c.frag).collect();
        assert_eq!(frags, vec![0, 1, 2, 3]);

        // Committed fragments disappear from the offer.
        c.commit_chunk(
            &PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 0,
                len: 8,
            },
            ChannelId(0),
        );
        c.complete_chunk(&PlannedChunk {
            flow: f,
            seq: 0,
            frag: 0,
            offset: 0,
            len: 8,
        });
        let groups = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        let frags: Vec<_> = groups[0].candidates.iter().map(|c| c.frag).collect();
        assert_eq!(frags, vec![1, 2, 3]);
    }

    #[test]
    fn rendezvous_express_gates_later_fragments() {
        let (mut c, f) = layer_with_flow();
        // Express fragment large enough for rendezvous, then a body.
        c.submit(
            f,
            parts(&[(5000, PackMode::Express), (100, PackMode::Cheaper)]),
            SimTime::ZERO,
            1024,
        );
        let groups = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        // Only the rendezvous request is offered; the body must wait for
        // the express data to become sendable.
        assert_eq!(groups[0].rndv.len(), 1);
        assert!(groups[0].candidates.is_empty());
        c.mark_rndv_requested(f, 0, 0);
        let groups = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        assert!(groups.is_empty() || groups[0].candidates.is_empty());
        c.grant_rndv(f, 0, 0);
        let groups = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        let frags: Vec<_> = groups[0].candidates.iter().map(|c| c.frag).collect();
        assert_eq!(frags, vec![0, 1]);
    }

    #[test]
    fn pinning_keeps_message_on_one_rail_until_express_resolved() {
        let (mut c, f) = layer_with_flow();
        c.submit(
            f,
            parts(&[(8, PackMode::Express), (100, PackMode::Cheaper)]),
            SimTime::ZERO,
            1 << 20,
        );
        c.commit_chunk(
            &PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 0,
                len: 8,
            },
            ChannelId(2),
        );
        // Other rails now see nothing from this message.
        assert!(c
            .collect_candidates(ChannelId(0), 64, |_, _| true)
            .is_empty());
        assert_eq!(
            c.collect_candidates(ChannelId(2), 64, |_, _| true)[0]
                .candidates
                .len(),
            1
        );
        // Once the express fragment completes, the pin is lifted.
        c.complete_chunk(&PlannedChunk {
            flow: f,
            seq: 0,
            frag: 0,
            offset: 0,
            len: 8,
        });
        assert_eq!(
            c.collect_candidates(ChannelId(0), 64, |_, _| true)[0]
                .candidates
                .len(),
            1
        );
    }

    #[test]
    fn completion_removes_finished_messages() {
        let (mut c, f) = layer_with_flow();
        c.submit(f, parts(&[(32, PackMode::Cheaper)]), SimTime::ZERO, 1 << 20);
        let ch = PlannedChunk {
            flow: f,
            seq: 0,
            frag: 0,
            offset: 0,
            len: 32,
        };
        c.commit_chunk(&ch, ChannelId(0));
        assert_eq!(c.backlog_bytes(), 0); // committed, not yet sent
        assert!(!c.is_empty());
        assert!(c.complete_chunk(&ch));
        assert!(c.is_empty());
    }

    #[test]
    fn partial_chunking_advances_offsets() {
        let (mut c, f) = layer_with_flow();
        c.submit(
            f,
            parts(&[(100, PackMode::Cheaper)]),
            SimTime::ZERO,
            1 << 20,
        );
        c.commit_chunk(
            &PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 0,
                len: 40,
            },
            ChannelId(0),
        );
        let g = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        assert_eq!(g[0].candidates[0].offset, 40);
        assert_eq!(g[0].candidates[0].remaining, 60);
        // Out-of-order completion keeps counters consistent.
        c.commit_chunk(
            &PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 40,
                len: 60,
            },
            ChannelId(0),
        );
        c.complete_chunk(&PlannedChunk {
            flow: f,
            seq: 0,
            frag: 0,
            offset: 40,
            len: 60,
        });
        assert!(!c.is_empty());
        c.complete_chunk(&PlannedChunk {
            flow: f,
            seq: 0,
            frag: 0,
            offset: 0,
            len: 40,
        });
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn non_contiguous_commit_panics() {
        let (mut c, f) = layer_with_flow();
        c.submit(
            f,
            parts(&[(100, PackMode::Cheaper)]),
            SimTime::ZERO,
            1 << 20,
        );
        c.commit_chunk(
            &PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 50,
                len: 10,
            },
            ChannelId(0),
        );
    }

    #[test]
    fn window_limits_candidates() {
        let (mut c, f) = layer_with_flow();
        for _ in 0..10 {
            c.submit(f, parts(&[(8, PackMode::Cheaper)]), SimTime::ZERO, 1 << 20);
        }
        let g = c.collect_candidates(ChannelId(0), 3, |_, _| true);
        assert_eq!(g[0].candidates.len(), 3);
    }

    #[test]
    fn class_filter_excludes_flows() {
        let mut c = CollectLayer::new();
        let fa = c.open_flow(NodeId(1), TrafficClass::BULK);
        let fb = c.open_flow(NodeId(1), TrafficClass::CONTROL);
        c.submit(fa, parts(&[(8, PackMode::Cheaper)]), SimTime::ZERO, 1 << 20);
        c.submit(fb, parts(&[(8, PackMode::Cheaper)]), SimTime::ZERO, 1 << 20);
        let g = c.collect_candidates(ChannelId(0), 64, |_, cl| cl == TrafficClass::CONTROL);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].candidates.len(), 1);
        assert_eq!(g[0].candidates[0].class, TrafficClass::CONTROL);
    }

    #[test]
    fn rndv_grant_cycle() {
        let (mut c, f) = layer_with_flow();
        c.submit(f, parts(&[(5000, PackMode::Cheaper)]), SimTime::ZERO, 1024);
        let g = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        assert_eq!(g[0].rndv.len(), 1);
        assert!(g[0].candidates.is_empty());
        c.mark_rndv_requested(f, 0, 0);
        // While requested, neither data nor request candidates appear.
        let g = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        assert!(g.is_empty() || (g[0].rndv.is_empty() && g[0].candidates.is_empty()));
        assert!(c.grant_rndv(f, 0, 0));
        let g = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        assert_eq!(g[0].candidates.len(), 1);
        // Double grant reports false.
        assert!(!c.grant_rndv(f, 0, 0));
    }

    #[test]
    fn flow_id_conversion_guards_truncation() {
        assert_eq!(flow_id_for_index(0), 0);
        assert_eq!(flow_id_for_index(MAX_FLOWS as usize - 1), MAX_FLOWS - 1);
    }

    #[test]
    #[should_panic(expected = "MAX_FLOWS")]
    fn flow_id_conversion_refuses_max_flows() {
        let _ = flow_id_for_index(MAX_FLOWS as usize);
    }

    #[test]
    #[should_panic(expected = "FlowId space")]
    fn flow_id_conversion_panics_past_u32() {
        let _ = flow_id_for_index(u32::MAX as usize + 1);
    }

    #[test]
    fn index_counters_track_lifecycle() {
        let mut c = CollectLayer::new();
        let fa = c.open_flow(NodeId(1), TrafficClass::BULK);
        let fb = c.open_flow(NodeId(1), TrafficClass::CONTROL);
        assert_eq!(c.active_flow_ids().count(), 0);
        c.submit(
            fa,
            parts(&[(100, PackMode::Cheaper)]),
            SimTime::ZERO,
            1 << 20,
        );
        c.submit(
            fb,
            parts(&[(40, PackMode::Cheaper)]),
            SimTime::ZERO,
            1 << 20,
        );
        assert_eq!(c.backlog_bytes(), 140);
        assert_eq!(c.class_backlog_bytes(TrafficClass::BULK), 100);
        assert_eq!(c.class_backlog_bytes(TrafficClass::CONTROL), 40);
        assert_eq!(c.pending_msgs(), 2);
        assert_eq!(c.active_flow_ids().collect::<Vec<_>>(), vec![fa, fb]);

        let ch = PlannedChunk {
            flow: fa,
            seq: 0,
            frag: 0,
            offset: 0,
            len: 100,
        };
        c.commit_chunk(&ch, ChannelId(0));
        assert_eq!(c.backlog_bytes(), 40, "commit drains backlog");
        assert_eq!(c.pending_msgs(), 2, "commit keeps the message pending");
        assert!(c.complete_chunk(&ch));
        assert_eq!(c.pending_msgs(), 1);
        assert_eq!(c.active_flow_ids().collect::<Vec<_>>(), vec![fb]);
    }

    #[test]
    fn shed_oldest_frees_uncommitted_messages_in_age_order() {
        let (mut c, f) = layer_with_flow();
        let t = |us| SimTime::ZERO + simnet::SimDuration::from_micros(us);
        let m0 = c.submit(f, parts(&[(100, PackMode::Cheaper)]), t(1), 1 << 20);
        let m1 = c.submit(f, parts(&[(100, PackMode::Cheaper)]), t(2), 1 << 20);
        let m2 = c.submit(f, parts(&[(100, PackMode::Cheaper)]), t(3), 1 << 20);
        // Partially commit the oldest: it becomes unsheddable.
        c.commit_chunk(
            &PlannedChunk {
                flow: f,
                seq: m0.seq.0,
                frag: 0,
                offset: 0,
                len: 10,
            },
            ChannelId(0),
        );
        let shed = c.shed_oldest(TrafficClass::DEFAULT, 150);
        let ids: Vec<_> = shed.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![m1, m2], "oldest uncommitted first, skip m0");
        assert_eq!(shed.iter().map(|(_, b)| b).sum::<u64>(), 200);
        assert_eq!(c.backlog_bytes(), 90, "m0's uncommitted tail remains");
        assert_eq!(c.pending_msgs(), 1);
        // Nothing sheddable left.
        assert!(c.shed_oldest(TrafficClass::DEFAULT, 1).is_empty());
    }

    #[test]
    fn drr_rotates_across_flows_within_a_class() {
        let mut c = CollectLayer::new();
        c.set_fairness(FairnessMode::Drr, 64);
        let flows: Vec<_> = (0..4)
            .map(|_| c.open_flow(NodeId(1), TrafficClass::DEFAULT))
            .collect();
        for &f in &flows {
            for _ in 0..4 {
                c.submit(f, parts(&[(64, PackMode::Cheaper)]), SimTime::ZERO, 1 << 20);
            }
        }
        // Window of 2 candidates per activation: pack order would pin the
        // offer on flow 0 forever; DRR must rotate the cursor.
        let first: Vec<_> = c.collect_candidates(ChannelId(0), 2, |_, _| true)[0]
            .candidates
            .iter()
            .map(|cc| cc.flow)
            .collect();
        let second: Vec<_> = c.collect_candidates(ChannelId(0), 2, |_, _| true)[0]
            .candidates
            .iter()
            .map(|cc| cc.flow)
            .collect();
        assert_ne!(first, second, "cursor must advance between activations");
        let mut seen: Vec<_> = first.iter().chain(&second).copied().collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() >= 3, "rotation samples many flows: {seen:?}");
    }

    #[test]
    fn drr_weights_split_window_across_classes() {
        let mut c = CollectLayer::new();
        c.set_fairness(FairnessMode::Drr, 1 << 20);
        let bulk = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
        let ctrl = c.open_flow(NodeId(1), TrafficClass::CONTROL);
        for _ in 0..16 {
            c.submit(
                bulk,
                parts(&[(64, PackMode::Cheaper)]),
                SimTime::ZERO,
                1 << 20,
            );
            c.submit(
                ctrl,
                parts(&[(64, PackMode::Cheaper)]),
                SimTime::ZERO,
                1 << 20,
            );
        }
        let g = c.collect_candidates(ChannelId(0), 8, |_, _| true);
        let default_n = g[0]
            .candidates
            .iter()
            .filter(|cc| cc.class == TrafficClass::DEFAULT)
            .count();
        let ctrl_n = g[0]
            .candidates
            .iter()
            .filter(|cc| cc.class == TrafficClass::CONTROL)
            .count();
        assert_eq!((default_n, ctrl_n), (4, 4), "an equal share each");
    }

    #[test]
    fn pack_order_matches_index_driven_iteration() {
        // The index-driven walk must produce the same candidate stream a
        // full-table walk would, even with idle flows interleaved.
        let mut c = CollectLayer::new();
        let flows: Vec<_> = (0..64)
            .map(|i| c.open_flow(NodeId(1 + (i % 3)), TrafficClass((i % 4) as u8)))
            .collect();
        for (i, &f) in flows.iter().enumerate() {
            if i % 7 == 0 {
                c.submit(f, parts(&[(32, PackMode::Cheaper)]), SimTime::ZERO, 1 << 20);
            }
        }
        let g = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        let offered: Vec<_> = g
            .iter()
            .flat_map(|grp| grp.candidates.iter().map(|cc| cc.flow.0))
            .collect();
        let mut sorted = offered.clone();
        sorted.sort_unstable();
        assert_eq!(offered.len(), flows.len().div_ceil(7));
        // Grouped by dst but ascending within each group's originating walk:
        // the union equals exactly the submitting flows.
        let expect: Vec<u32> = (0..64).filter(|i| i % 7 == 0).collect();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn groups_separate_destinations() {
        let mut c = CollectLayer::new();
        let fa = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
        let fb = c.open_flow(NodeId(2), TrafficClass::DEFAULT);
        c.submit(fa, parts(&[(8, PackMode::Cheaper)]), SimTime::ZERO, 1 << 20);
        c.submit(fb, parts(&[(8, PackMode::Cheaper)]), SimTime::ZERO, 1 << 20);
        let g = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        assert_eq!(g.len(), 2);
        assert_ne!(g[0].dst, g[1].dst);
    }

    #[test]
    fn the_backlog_lives_in_one_slab_that_empties_with_it() {
        use crate::slab::FIRST_PAGE;
        // A header and a body sit in the message's slot; a third fragment
        // sends them all to the heap.
        assert_eq!(Slab::<PendingMessage>::SLOT_BYTES, 128);
        let mut c = CollectLayer::new();
        let flows: Vec<_> = (0..4)
            .map(|i| c.open_flow(NodeId(1 + i), TrafficClass::DEFAULT))
            .collect();
        let shapes: [&[(usize, PackMode)]; 3] = [
            &[(16, PackMode::Express), (64, PackMode::Cheaper)],
            &[(8, PackMode::Cheaper)],
            &[
                (8, PackMode::Express),
                (8, PackMode::Cheaper),
                (8, PackMode::Cheaper),
            ],
        ];
        let mut sent = Vec::new();
        for n in 0..3 * FIRST_PAGE {
            let f = flows[n % flows.len()];
            let shape = parts(shapes[n % shapes.len()]);
            let id = c.submit(f, shape, SimTime::ZERO, 1 << 20);
            let frags = &c.find_msg(f, id.seq.0).unwrap().frags;
            assert_eq!(frags.len(), shapes[n % shapes.len()].len());
            sent.push(id);
        }
        assert_eq!(c.slab().len(), 3 * FIRST_PAGE);
        let grown = c.slab().capacity();
        assert!(grown >= 3 * FIRST_PAGE, "{grown}");
        let finish = |c: &mut CollectLayer, id: MsgId| {
            let frags = c.find_msg(id.flow, id.seq.0).unwrap().frags.len();
            for frag in 0..frags as FragIndex {
                let len = c.find_msg(id.flow, id.seq.0).unwrap().frags[frag as usize].len();
                let ch = PlannedChunk {
                    flow: id.flow,
                    seq: id.seq.0,
                    frag,
                    offset: 0,
                    len,
                };
                c.commit_chunk(&ch, ChannelId(0));
                c.complete_chunk(&ch);
            }
        };
        // Half go, as many come: the freed slots take them.
        for &id in &sent[..FIRST_PAGE] {
            finish(&mut c, id);
        }
        for n in 0..FIRST_PAGE {
            let f = flows[n % flows.len()];
            sent.push(c.submit(f, parts(shapes[0]), SimTime::ZERO, 1 << 20));
        }
        assert_eq!(c.slab().capacity(), grown, "no growth while slots are free");
        c.debug_assert_invariants();
        for &id in &sent[FIRST_PAGE..] {
            finish(&mut c, id);
        }
        assert!(c.is_empty());
        assert_eq!(
            c.slab().capacity(),
            FIRST_PAGE,
            "an empty backlog keeps one page"
        );
        c.debug_assert_invariants();
    }

    // ---- the window against its definition --------------------------------

    use crate::plan::MAX_REQS_PER_DST;

    const THRESHOLD: u64 = 1024;

    fn xorshift(state: &mut u64, below: u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state % below
    }

    /// Ten flows toward two destinations in four classes; each holds
    /// messages with a request before, between and after eager data,
    /// express and cheaper, and some requests are already out or granted.
    fn mixed_backlog(drr: bool) -> CollectLayer {
        use PackMode::{Cheaper, Express};
        let mut c = CollectLayer::new();
        if drr {
            c.set_fairness(FairnessMode::Drr, 1 << 20);
        }
        let shapes: [&[(usize, PackMode)]; 5] = [
            &[(5000, Express), (60, Cheaper)],
            &[(8, Express), (100, Cheaper)],
            &[(3000, Cheaper)],
            &[(8, Express), (4000, Cheaper), (50, Cheaper)],
            &[(40, Cheaper), (70, Cheaper), (2000, Express), (30, Cheaper)],
        ];
        for i in 0..10u32 {
            let f = c.open_flow(NodeId(1 + i % 2), TrafficClass((i % 4) as u8));
            for m in 0..6 {
                let shape = shapes[(i as usize + m) % shapes.len()];
                c.submit(f, parts(shape), SimTime::from_nanos(m as u64), THRESHOLD);
            }
            // The first message's requests: out on every third flow,
            // granted on every sixth.
            let first: Vec<_> = c.find_msg(f, 0).unwrap().frags.iter().collect();
            let asking: Vec<_> = first
                .iter()
                .filter(|fr| fr.rndv == RndvState::NeedRequest)
                .map(|fr| fr.index)
                .collect();
            for frag in asking {
                if i % 3 == 0 {
                    c.mark_rndv_requested(f, 0, frag);
                }
                if i % 6 == 0 {
                    c.grant_rndv(f, 0, frag);
                }
            }
        }
        c
    }

    /// Data fragments and, per destination, asking fragments that a window
    /// of any width could hold: the definition, read off the queues.
    fn offerable(c: &CollectLayer) -> (usize, std::collections::BTreeMap<NodeId, usize>) {
        let (mut data, mut asking) = (0, std::collections::BTreeMap::new());
        for fs in c.flows() {
            for (_, msg) in c.queue(fs.id) {
                let mut gated = false;
                for f in &msg.frags {
                    match f.offer() {
                        Some(Offer::Request) => *asking.entry(fs.dst).or_insert(0) += 1,
                        Some(Offer::Data) if !gated => data += 1,
                        _ => {}
                    }
                    gated |= f.rndv_blocked() && f.mode == PackMode::Express;
                }
            }
        }
        (data, asking)
    }

    #[test]
    fn a_window_is_its_width_in_data_with_the_requests_beside_it() {
        for drr in [false, true] {
            let mut c = mixed_backlog(drr);
            let (data, asking) = offerable(&c);
            assert!(data > 64 && asking.values().all(|&n| n > MAX_REQS_PER_DST));
            let mut groups = WindowGroups::default();
            for window in 1..=256usize {
                c.collect_window(ChannelId(0), window, |_, _| true, &mut groups);
                groups.debug_assert_invariants();
                let got: usize = groups.groups().iter().map(|g| g.candidates.len()).sum();
                if drr {
                    // Class shares are soft targets: they may leave slots.
                    assert!((1..=window.min(data)).contains(&got), "{window}: {got}");
                } else {
                    assert_eq!(got, window.min(data), "window {window}");
                }
                for g in groups.groups() {
                    assert!(g.rndv.len() <= MAX_REQS_PER_DST, "window {window}");
                    if window >= data && !drr {
                        assert_eq!(g.rndv.len(), MAX_REQS_PER_DST.min(asking[&g.dst]));
                    }
                }
            }
        }
    }

    #[test]
    fn a_request_over_the_quota_still_gates_the_body_behind_it() {
        let (mut c, _) = layer_with_flow();
        let flows: Vec<_> = (0..MAX_REQS_PER_DST + 1)
            .map(|_| c.open_flow(NodeId(1), TrafficClass::DEFAULT))
            .collect();
        for &f in &flows {
            let shape = [(5000, PackMode::Express), (100, PackMode::Cheaper)];
            c.submit(f, parts(&shape), SimTime::ZERO, THRESHOLD);
        }
        let g = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        assert_eq!(g.len(), 1);
        assert_eq!(
            g[0].rndv.len(),
            MAX_REQS_PER_DST,
            "the fifth is not offered"
        );
        assert!(g[0].candidates.is_empty(), "and its body is not either");
        // The skipped one is offered as soon as there is room for it.
        c.mark_rndv_requested(flows[0], 0, 0);
        let g = c.collect_candidates(ChannelId(0), 64, |_, _| true);
        let last = g[0].rndv.last().unwrap();
        assert_eq!((g[0].rndv.len(), last.flow), (MAX_REQS_PER_DST, flows[4]));
    }

    #[test]
    fn a_flow_with_nothing_to_give_opens_no_group_and_is_not_offerable() {
        let (mut c, f) = layer_with_flow();
        let shape = [(5000, PackMode::Express), (100, PackMode::Cheaper)];
        c.submit(f, parts(&shape), SimTime::ZERO, THRESHOLD);
        assert_eq!(c.index().asking_ids().count(), 1);
        c.mark_rndv_requested(f, 0, 0);
        // The body is eager and uncommitted, so the flow is still looked
        // at; gated behind the request, it yields nothing — and no group.
        assert_eq!(c.index().ready_ids().collect::<Vec<_>>(), vec![f.0]);
        assert!(c
            .collect_candidates(ChannelId(0), 64, |_, _| true)
            .is_empty());
        // A lone body whose request is out is not even looked at.
        let g = c.open_flow(NodeId(2), TrafficClass::BULK);
        c.submit(
            g,
            parts(&[(3000, PackMode::Cheaper)]),
            SimTime::ZERO,
            THRESHOLD,
        );
        c.mark_rndv_requested(g, 0, 0);
        assert!(c.index().asking_ids().next().is_none());
        assert_eq!(c.index().ready_ids().collect::<Vec<_>>(), vec![f.0]);
        assert_eq!(c.active_flow_ids().count(), 2);
        assert!(c.grant_rndv(g, 0, 0));
        assert_eq!(c.index().ready_ids().collect::<Vec<_>>(), vec![f.0, g.0]);
    }

    /// Every `(flow, seq, frag)` of `c` whose fragment satisfies `pred`.
    fn frags_where(
        c: &CollectLayer,
        pred: impl Fn(&PendingFragment) -> bool,
    ) -> Vec<(FlowId, u32, FragIndex)> {
        let msgs = c
            .flows()
            .iter()
            .flat_map(|fs| c.queue(fs.id).map(|(seq, m)| (fs.id, seq, m)));
        msgs.flat_map(|(flow, seq, m)| m.frags.iter().map(move |f| (flow, seq, f)))
            .filter(|(_, _, f)| pred(f))
            .map(|(flow, seq, f)| (flow, seq, f.index))
            .collect()
    }

    #[test]
    fn the_skipping_walk_builds_the_full_walks_window_on_every_step() {
        let classes = [
            TrafficClass::DEFAULT,
            TrafficClass::BULK,
            TrafficClass::PUT_GET,
            TrafficClass::CONTROL,
        ];
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let (mut stepped_over, mut refused, mut compared) = (0usize, 0usize, 0usize);
        for case in 0..80u64 {
            let draw = |rng: &mut u64, below: u64| xorshift(rng, below);
            let mut real = CollectLayer::new();
            if case % 2 == 1 {
                let quantum = 1 + draw(&mut rng, 4096);
                real.set_fairness(FairnessMode::Drr, quantum);
            }
            let flows: Vec<_> = (0..2 + draw(&mut rng, 8))
                .map(|i| {
                    let class = classes[draw(&mut rng, 4) as usize];
                    real.open_flow(NodeId(1 + (i % 3) as u32), class)
                })
                .collect();
            // The same operations go to both; each keeps its own DRR state.
            let mut oracle = real.clone();
            let mut outstanding: Vec<PlannedChunk> = Vec::new();
            let (mut got, mut want) = (WindowGroups::default(), WindowGroups::default());
            for step in 0..160u64 {
                match draw(&mut rng, 10) {
                    0..=2 => {
                        let shape: Vec<_> = (0..1 + draw(&mut rng, 3))
                            .map(|_| {
                                let below = if draw(&mut rng, 4) == 0 { 3000 } else { 200 };
                                let mode = if draw(&mut rng, 3) == 0 {
                                    PackMode::Express
                                } else {
                                    PackMode::Cheaper
                                };
                                (1 + draw(&mut rng, below) as usize, mode)
                            })
                            .collect();
                        let flow = flows[draw(&mut rng, flows.len() as u64) as usize];
                        let now = SimTime::from_nanos(step / 4);
                        for c in [&mut real, &mut oracle] {
                            c.submit(flow, parts(&shape), now, THRESHOLD);
                        }
                    }
                    3 | 4 => {
                        let ready = frags_where(&real, |f| f.offer() == Some(Offer::Data));
                        if ready.is_empty() {
                            continue;
                        }
                        let (flow, seq, frag) = ready[draw(&mut rng, ready.len() as u64) as usize];
                        let f = &real.find_msg(flow, seq).unwrap().frags[frag as usize];
                        let len = match draw(&mut rng, 2) {
                            0 => f.remaining(),
                            _ => f.remaining().div_ceil(2),
                        };
                        let chunk = PlannedChunk {
                            flow,
                            seq,
                            frag,
                            offset: f.committed(),
                            len,
                        };
                        let rail = ChannelId(draw(&mut rng, 2) as u16);
                        for c in [&mut real, &mut oracle] {
                            c.commit_chunk(&chunk, rail);
                        }
                        outstanding.push(chunk);
                    }
                    5 | 6 => {
                        if outstanding.is_empty() {
                            continue;
                        }
                        let at = draw(&mut rng, outstanding.len() as u64) as usize;
                        let chunk = outstanding.swap_remove(at);
                        for c in [&mut real, &mut oracle] {
                            c.complete_chunk(&chunk);
                        }
                    }
                    7 => {
                        let class = classes[draw(&mut rng, 4) as usize];
                        let need = draw(&mut rng, 6000);
                        for c in [&mut real, &mut oracle] {
                            c.shed_oldest(class, need);
                        }
                    }
                    op => {
                        let from = if op == 8 {
                            RndvState::NeedRequest
                        } else {
                            RndvState::Requested
                        };
                        let waiting = frags_where(&real, |f| f.rndv == from);
                        if waiting.is_empty() {
                            continue;
                        }
                        let pick = draw(&mut rng, waiting.len() as u64) as usize;
                        let (flow, seq, frag) = waiting[pick];
                        for c in [&mut real, &mut oracle] {
                            if op == 8 {
                                c.mark_rndv_requested(flow, seq, frag);
                            } else {
                                assert!(c.grant_rndv(flow, seq, frag));
                            }
                        }
                    }
                }
                real.debug_assert_invariants();
                let window = [1, 2, 3, 5, 8, 64, 256][draw(&mut rng, 7) as usize];
                let rail = ChannelId(draw(&mut rng, 2) as u16);
                // Now and then the policy keeps one class off the rail.
                let barred = draw(&mut rng, 8);
                let eligible = |_: FlowId, class: TrafficClass| u64::from(class.0) != barred;
                real.collect_window(rail, window, eligible, &mut got);
                oracle.full_walk_window(rail, window, eligible, &mut want);
                assert_eq!(
                    format!("{:?}", got.groups()),
                    format!("{:?}", want.groups()),
                    "case {case} step {step} window {window}"
                );
                got.debug_assert_invariants();
                compared += 1;
                let idle = real.flows().iter().filter(|fs| fs.queued() != 0);
                stepped_over += idle.filter(|fs| !fs.offerable()).count();
                let asked: usize = got.groups().iter().map(|g| g.rndv.len()).sum();
                refused += frags_where(&real, |f| f.offer() == Some(Offer::Request)).len() - asked;
            }
        }
        // The comparison saw what it is for: flows with nothing to give,
        // and requests that found no room.
        assert!(
            compared > 10_000 && stepped_over > 500 && refused > 1_000,
            "{compared} windows, {stepped_over} flows stepped over, {refused} requests refused"
        );
    }
}

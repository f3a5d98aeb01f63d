//! **madflow** — flow-scale management for the collect layer.
//!
//! The paper's engine exists to mix "multiple independent communication
//! flows", but a naive collect layer walks *every* flow on *every*
//! optimizer activation, so activation cost grows with the number of
//! flows that merely *exist*. madflow keeps activation cost proportional
//! to the number of flows that can actually emit candidates:
//!
//! * [`FlowIndex`] — the **active-flow index**: bitsets over flow ids of
//!   the flows with a non-empty pending queue (per traffic class; together,
//!   all of them), one bit operation per submit / commit / complete / shed, plus
//!   O(1) backlog-byte and pending-message counters — and, among the
//!   active flows, the **offerable** ones: those with bytes a window can
//!   take or a rendezvous request still to send, which are the only
//!   flows a window walk ([`OfferWalk`]) stops at.
//! * [`AdmissionConfig`] / [`AdmissionPolicy`] / [`SendOutcome`] —
//!   **admission control with backpressure**: per-engine and per-class
//!   backlog byte budgets; over budget, a class either blocks
//!   ([`SendOutcome::WouldBlock`]), sheds its oldest uncommitted
//!   messages, or rejects the submission.
//! * [`DrrScheduler`] — **fair candidate ordering**:
//!   deficit-round-robin across the flows of a class plus an even split
//!   of the window across classes, replacing pack-order iteration when
//!   [`FairnessMode::Drr`] is selected (pack order remains the default,
//!   byte-identical to the pre-madflow walk).

// madlint: file: hot-path
// madlint: file: deterministic-output
// madlint: file: trace-covered

use std::collections::BTreeSet;
use std::iter::Peekable;
use std::ops::Bound;

use simnet::{NodeId, SimTime};

use crate::ids::{MsgId, TrafficClass};
use crate::observer::Observer;
use crate::trace::EngineEvent;

/// Number of class slots tracked by the index, budgets and window shares.
/// User-defined classes above the predefined range share the last slot
/// (the same clamping rule the policy and metrics layers use).
pub const CLASS_SLOTS: usize = TrafficClass::COUNT;

/// The class slot a flow's traffic class maps to.
#[inline]
pub fn class_slot(class: TrafficClass) -> usize {
    (class.0 as usize).min(CLASS_SLOTS - 1)
}

/// The byte quantum deficit round robin grants a flow per visit under
/// [`FairnessMode::Drr`] (at 2048, E15's elephant cell moves).
pub const DRR_QUANTUM: u64 = 4096;

/// How `collect_candidates` orders flows within an activation window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FairnessMode {
    /// Flow-id ascending, messages oldest-first — the historical order.
    #[default]
    PackOrder,
    /// Deficit round robin across flows within each class, with the
    /// window split evenly across classes.
    Drr,
}

/// What happens to a submission that would push a class over budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the submission; the caller retries after
    /// [`crate::api::AppDriver::on_unblocked`].
    #[default]
    Block,
    /// Drop the oldest fully-uncommitted messages of the class until the
    /// new message fits, then admit it.
    ShedOldest,
    /// Refuse the submission permanently (no retry signal).
    Reject,
}

/// Per-engine and per-class backlog budgets. `u64::MAX` means unlimited;
/// the default configuration is fully unlimited, so admission control is
/// opt-in and the legacy `send` contract ("never blocks") holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Whole-engine backlog byte budget across all classes.
    pub max_backlog_bytes: u64,
    /// Per-class-slot backlog byte budgets.
    pub class_backlog_bytes: [u64; CLASS_SLOTS],
    /// Per-class-slot over-budget policy.
    pub policy: [AdmissionPolicy; CLASS_SLOTS],
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_backlog_bytes: u64::MAX,
            class_backlog_bytes: [u64::MAX; CLASS_SLOTS],
            policy: [AdmissionPolicy::Block; CLASS_SLOTS],
        }
    }
}

impl AdmissionConfig {
    /// True when any budget is finite (the admission path is active).
    // madlint: allow(linear-scan) — one budget per class slot (`CLASS_SLOTS`)
    pub fn enabled(&self) -> bool {
        self.max_backlog_bytes != u64::MAX
            || self.class_backlog_bytes.iter().any(|&b| b != u64::MAX)
    }

    /// Returns the policy to apply when admitting `incoming` bytes into
    /// class slot `slot` would exceed the engine or class budget, or
    /// `None` when the submission fits.
    pub fn over_budget(
        &self,
        slot: usize,
        engine_backlog: u64,
        class_backlog: u64,
        incoming: u64,
    ) -> Option<AdmissionPolicy> {
        let over_engine = engine_backlog.saturating_add(incoming) > self.max_backlog_bytes;
        let over_class = class_backlog.saturating_add(incoming) > self.class_backlog_bytes[slot];
        (over_engine || over_class).then_some(self.policy[slot])
    }

    /// Whether slot `slot` currently has headroom (strictly below both
    /// its own and the engine budget).
    pub fn has_headroom(&self, slot: usize, engine_backlog: u64, class_backlog: u64) -> bool {
        engine_backlog < self.max_backlog_bytes && class_backlog < self.class_backlog_bytes[slot]
    }
}

/// Typed outcome of [`crate::api::CommApi::try_send`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message was admitted into the collect layer.
    Admitted(MsgId),
    /// The class is over budget under [`AdmissionPolicy::Block`]; nothing
    /// was enqueued. Retry after
    /// [`crate::api::AppDriver::on_unblocked`] fires for the class.
    WouldBlock,
    /// The message was admitted after shedding older backlog
    /// ([`AdmissionPolicy::ShedOldest`]).
    Shed {
        /// Id of the newly admitted message.
        admitted: MsgId,
        /// The messages dropped to make room, oldest first.
        shed: Vec<MsgId>,
    },
    /// The class is over budget under [`AdmissionPolicy::Reject`];
    /// nothing was enqueued and no retry signal will fire.
    Rejected,
}

impl SendOutcome {
    /// The admitted message id, when one was enqueued.
    pub fn msg_id(&self) -> Option<MsgId> {
        match self {
            SendOutcome::Admitted(id) | SendOutcome::Shed { admitted: id, .. } => Some(*id),
            SendOutcome::WouldBlock | SendOutcome::Rejected => None,
        }
    }
}

/// Admission control: the budgets, which class slots are inside a
/// pressure episode (so each episode ends with exactly one `Unblocked`
/// signal), and the classes that regained headroom since the application
/// was last told.
// madlint: send-sync — sharded across madpar workers with the engine core
pub(crate) struct Admission {
    cfg: AdmissionConfig,
    blocked: [bool; CLASS_SLOTS],
    unblocked: Vec<TrafficClass>,
}

impl Admission {
    pub(crate) fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            cfg,
            blocked: [false; CLASS_SLOTS],
            unblocked: Vec::new(),
        }
    }

    /// True when any budget is finite.
    pub(crate) fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// Rule on admitting `incoming` bytes of `class` on top of the
    /// backlog `index` reports. `Ok(need)` admits it once `need` backlog
    /// bytes of the class are shed — 0 when it fits as is, else the
    /// larger of the engine's and the class's overshoot; `Err` is the
    /// refusal to hand back. A `WouldBlock` opens (or continues) the
    /// class's pressure episode.
    pub(crate) fn decide(
        &mut self,
        class: TrafficClass,
        incoming: u64,
        index: &FlowIndex,
        obs: &mut Observer,
    ) -> Result<u64, SendOutcome> {
        let slot = class_slot(class);
        let (engine, in_class) = (index.backlog_bytes(), index.class_backlog_bytes(slot));
        match self.cfg.over_budget(slot, engine, in_class, incoming) {
            None => Ok(0),
            Some(AdmissionPolicy::Block) => {
                obs.metrics_mut().blocked_sends += 1;
                self.blocked[slot] = true;
                Err(SendOutcome::WouldBlock)
            }
            Some(AdmissionPolicy::Reject) => {
                obs.metrics_mut().rejected_sends += 1;
                Err(SendOutcome::Rejected)
            }
            Some(AdmissionPolicy::ShedOldest) => {
                let over = |backlog: u64, budget: u64| {
                    backlog.saturating_add(incoming).saturating_sub(budget)
                };
                Ok(over(engine, self.cfg.max_backlog_bytes)
                    .max(over(in_class, self.cfg.class_backlog_bytes[slot])))
            }
        }
    }

    /// End the pressure episode of every class slot that regained
    /// backlog headroom: one `Unblocked` event each, and the class is
    /// queued for the application's `on_unblocked` callback.
    pub(crate) fn release(&mut self, now: SimTime, index: &FlowIndex, obs: &mut Observer) {
        if !self.enabled() {
            return;
        }
        let engine = index.backlog_bytes();
        for slot in 0..CLASS_SLOTS {
            let in_class = index.class_backlog_bytes(slot);
            if self.blocked[slot] && self.cfg.has_headroom(slot, engine, in_class) {
                self.blocked[slot] = false;
                let class = TrafficClass(slot as u8);
                obs.emit(now, EngineEvent::Unblocked { class });
                self.unblocked.push(class);
            }
        }
    }

    /// Classes that regained headroom since the last call.
    pub(crate) fn take_unblocked(&mut self) -> Vec<TrafficClass> {
        std::mem::take(&mut self.unblocked)
    }
}

/// A set of flow ids: one bit per id in words of 64, with its size beside
/// it. Adding or removing an id is one bit operation; the words grow to
/// the highest id added and stay (at most [`crate::collect::MAX_FLOWS`]
/// bits, 128 KiB), and iteration goes up them by `trailing_zeros`, so ids
/// come out ascending.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdSet {
    words: Vec<u64>,
    len: usize,
}

impl IdSet {
    /// Add `id`; false when it was there.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        let added = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(added);
        added
    }

    /// Take `id` out; false when it was not there.
    #[inline]
    pub(crate) fn remove(&mut self, id: u32) -> bool {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        let Some(w) = self.words.get_mut(word) else {
            return false;
        };
        let removed = *w & bit != 0;
        *w &= !bit;
        self.len -= usize::from(removed);
        removed
    }

    /// Whether `id` is in the set.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn contains(&self, id: u32) -> bool {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Number of ids.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every id, ascending.
    pub(crate) fn iter(&self) -> Ids<'_> {
        self.range(0, u32::MAX)
    }

    /// The ids in `from..to`, ascending.
    pub(crate) fn range(&self, from: u32, to: u32) -> Ids<'_> {
        let end = (to as usize).min(64 * self.words.len());
        let start = (from as usize).min(end);
        let words = &self.words[..end.div_ceil(64)];
        let at = start / 64;
        let bits = words.get(at).map_or(0, |w| w & (u64::MAX << (start % 64)));
        Ids {
            words,
            at,
            bits,
            end,
        }
    }

    /// Every id in circular order: ascending from the first one `>= cursor`,
    /// then around to those below it.
    pub(crate) fn wrapping_from(&self, cursor: u32) -> impl Iterator<Item = u32> + '_ {
        self.range(cursor, u32::MAX).chain(self.range(0, cursor))
    }
}

/// The ids of an [`IdSet`] range, ascending.
#[derive(Clone, Debug)]
pub(crate) struct Ids<'a> {
    /// The set's words up to the one holding the range's last id.
    words: &'a [u64],
    /// The word `bits` came from.
    at: usize,
    /// The bits of word `at` not yet given.
    bits: u64,
    /// The range ends before this id.
    end: usize,
}

impl Iterator for Ids<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            self.at += 1;
            self.bits = *self.words.get(self.at)?;
        }
        let id = 64 * self.at + self.bits.trailing_zeros() as usize;
        if id >= self.end {
            self.bits = 0;
            return None;
        }
        self.bits &= self.bits - 1;
        Some(id as u32)
    }
}

/// The active-flow index: which flows have a non-empty pending queue
/// (globally and per class slot), plus O(1) aggregate counters. A flow is
/// *active* exactly while its queue is non-empty — including messages
/// whose bytes are fully committed but not yet acknowledged, matching the
/// flows a full-table walk would visit. Sets iterate in ascending flow-id
/// order, so an index-driven pack-order walk reproduces the full-table
/// walk's candidate order exactly.
///
/// An active flow is *offerable* while it is `ready` — some eager or
/// granted fragment has uncommitted bytes — or `asking` — some fragment
/// still needs its rendezvous request sent. Every other active flow
/// (everything in flight, or parked behind a request that is out) yields
/// nothing to any window, so the walk never looks at its queue. The
/// collect layer counts both kinds of fragment per flow and reports the
/// transitions ([`FlowIndex::note_ready`], [`FlowIndex::note_asking`]).
#[derive(Clone, Debug, Default)]
pub struct FlowIndex {
    /// A flow has one class, so these are disjoint and their union is the
    /// active set.
    by_class: [IdSet; CLASS_SLOTS],
    /// Flows with a fragment that has bytes a window can take.
    ready: IdSet,
    /// Flows with a fragment whose rendezvous request is still to be sent.
    /// Keyed by destination first: a window takes a few requests per
    /// destination, and the walk leaves a destination's flows alone once
    /// it has them.
    asking: BTreeSet<(NodeId, u32)>,
    backlog_bytes: u64,
    backlog_by_class: [u64; CLASS_SLOTS],
    pending_msgs: u64,
}

impl FlowIndex {
    /// A message with `bytes` uncommitted payload entered `flow`'s queue.
    pub fn note_submit(&mut self, flow: u32, slot: usize, bytes: u64) {
        self.by_class[slot].insert(flow);
        self.backlog_bytes += bytes;
        self.backlog_by_class[slot] += bytes;
        self.pending_msgs += 1;
    }

    /// `bytes` of a slot's backlog were committed to a NIC.
    pub fn note_commit(&mut self, slot: usize, bytes: u64) {
        debug_assert!(self.backlog_bytes >= bytes, "backlog counter underflow");
        debug_assert!(
            self.backlog_by_class[slot] >= bytes,
            "class backlog counter underflow"
        );
        self.backlog_bytes = self.backlog_bytes.saturating_sub(bytes);
        self.backlog_by_class[slot] = self.backlog_by_class[slot].saturating_sub(bytes);
    }

    /// A message left `flow`'s queue (completed or shed). `freed_backlog`
    /// is the uncommitted payload it still held (zero for completions);
    /// `queue_empty` reports whether the flow's queue is now empty.
    pub fn note_remove(&mut self, flow: u32, slot: usize, freed_backlog: u64, queue_empty: bool) {
        debug_assert!(self.pending_msgs > 0, "pending counter underflow");
        self.pending_msgs = self.pending_msgs.saturating_sub(1);
        self.note_commit(slot, freed_backlog);
        if queue_empty {
            self.by_class[slot].remove(flow);
        }
    }

    /// `flow` gained its first, or lost its last, fragment with bytes a
    /// window can take.
    pub fn note_ready(&mut self, flow: u32, ready: bool) {
        if ready {
            self.ready.insert(flow);
        } else {
            self.ready.remove(flow);
        }
    }

    /// `flow`, which sends to `dst`, gained its first, or lost its last,
    /// fragment whose rendezvous request is still to be sent.
    pub fn note_asking(&mut self, dst: NodeId, flow: u32, asking: bool) {
        if asking {
            self.asking.insert((dst, flow));
        } else {
            self.asking.remove(&(dst, flow));
        }
    }

    /// Flows with bytes a window can take, ascending.
    pub fn ready_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.ready.iter()
    }

    /// Flows with a rendezvous request to send, as `(destination, flow)`,
    /// ascending.
    pub fn asking_ids(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.asking.iter().copied()
    }

    /// Whether `flow` is in class slot `slot`'s active set.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn in_class(&self, slot: usize, flow: u32) -> bool {
        self.by_class[slot].contains(flow)
    }

    /// Whether `flow` is in the ready set.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn is_ready(&self, flow: u32) -> bool {
        self.ready.contains(flow)
    }

    /// Whether `flow`, which sends to `dst`, is in the asking set.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn is_asking(&self, dst: NodeId, flow: u32) -> bool {
        self.asking.contains(&(dst, flow))
    }

    /// Start a pack-order walk over the offerable flows. `heads` is the
    /// caller's scratch (emptied here).
    #[inline]
    pub fn offer_walk<'a>(&'a self, heads: &'a mut Vec<(u32, NodeId)>) -> OfferWalk<'a> {
        heads.clear();
        let mut next = self.asking.first();
        while let Some(&(dst, flow)) = next {
            heads.push((flow, dst));
            let later = (Bound::Excluded((dst, u32::MAX)), Bound::Unbounded);
            next = self.asking.range(later).next();
        }
        OfferWalk {
            ready: self.ready.iter().peekable(),
            asking: &self.asking,
            heads,
        }
    }

    /// Total uncommitted payload bytes (O(1)).
    pub fn backlog_bytes(&self) -> u64 {
        self.backlog_bytes
    }

    /// Uncommitted payload bytes of one class slot (O(1)).
    pub fn class_backlog_bytes(&self, slot: usize) -> u64 {
        self.backlog_by_class[slot]
    }

    /// Pending (not fully transmitted) messages across all flows (O(1)).
    pub fn pending_msgs(&self) -> u64 {
        self.pending_msgs
    }

    /// True when no flow is offerable: a pack-order window walk finds
    /// nothing (O(1)).
    pub(crate) fn none_offerable(&self) -> bool {
        self.ready.len() == 0 && self.asking.is_empty()
    }

    /// True when no flow has anything queued (O(1)).
    pub fn is_idle(&self) -> bool {
        self.pending_msgs == 0
    }

    /// Number of active flows.
    pub fn active_count(&self) -> usize {
        self.by_class.iter().map(IdSet::len).sum()
    }

    /// Number of active flows in one class slot.
    pub fn class_active_count(&self, slot: usize) -> usize {
        self.by_class[slot].len()
    }

    /// Active flow ids, ascending: the class sets merged. For reports and
    /// checks — a window walk goes over [`FlowIndex::offer_walk`].
    pub fn active_ids(&self) -> impl Iterator<Item = u32> + '_ {
        let mut classes = self.by_class.each_ref().map(|ids| ids.iter().peekable());
        std::iter::from_fn(move || {
            let heads = classes
                .iter_mut()
                .filter_map(|ids| Some((*ids.peek()?, ids)));
            heads
                .min_by_key(|&(id, _)| id)
                .and_then(|(_, ids)| ids.next())
        })
    }

    /// Active flow ids of one class slot, ascending.
    pub fn class_ids(&self, slot: usize) -> impl Iterator<Item = u32> + '_ {
        self.by_class[slot].iter()
    }

    /// Active flow ids of one class slot in circular order starting at
    /// the first id `>= cursor` and wrapping around.
    pub fn class_ids_from(&self, slot: usize, cursor: u32) -> impl Iterator<Item = u32> + '_ {
        self.by_class[slot].wrapping_from(cursor)
    }
}

/// The offerable flows in ascending id order — the order of a walk over
/// every active flow, without the flows that have nothing to give: the
/// `ready` set merged with, per destination, the `asking` flows up to the
/// one that fills that destination's request quota. What lies behind that
/// one could only be refused, so a thousand parked requests cost a window
/// what four do.
pub struct OfferWalk<'a> {
    ready: Peekable<Ids<'a>>,
    asking: &'a BTreeSet<(NodeId, u32)>,
    /// `(flow, destination)`: the next asking flow of every destination
    /// that still takes requests.
    heads: &'a mut Vec<(u32, NodeId)>,
}

impl OfferWalk<'_> {
    /// The next flow to visit. `full(dst)` says whether the window being
    /// filled has taken its quota of requests toward `dst`.
    #[inline]
    pub fn next(&mut self, full: impl Fn(NodeId) -> bool) -> Option<u32> {
        loop {
            // One head per destination with requests parked toward it.
            let first = (0..self.heads.len()).min_by_key(|&i| self.heads[i].0);
            let Some((at, (flow, dst))) = first.map(|i| (i, self.heads[i])) else {
                return self.ready.next();
            };
            if self.ready.peek().is_some_and(|&r| r < flow) {
                return self.ready.next();
            }
            if full(dst) {
                self.heads.swap_remove(at);
                continue;
            }
            let later = (
                Bound::Excluded((dst, flow)),
                Bound::Included((dst, u32::MAX)),
            );
            match self.asking.range(later).next() {
                Some(&(_, next)) => self.heads[at].0 = next,
                None => {
                    self.heads.swap_remove(at);
                }
            }
            self.ready.next_if_eq(&flow);
            return Some(flow);
        }
    }
}

/// Credit a flow may accumulate, in quanta, while it has nothing
/// schedulable or loses window races — bounds burst size after idling.
const MAX_CREDIT_QUANTA: u64 = 8;

/// Deficit-round-robin scheduler state: one rotating cursor per class
/// slot and a byte deficit per flow; the class slots with active flows
/// split the lookahead window evenly. All state is deterministic —
/// cursors advance only in `collect_candidates`, deficits only on visits
/// and offers.
#[derive(Clone, Debug)]
pub struct DrrScheduler {
    /// Byte quantum granted per visit.
    pub quantum: u64,
    cursors: [u32; CLASS_SLOTS],
    deficits: Vec<u64>,
}

impl Default for DrrScheduler {
    fn default() -> Self {
        DrrScheduler::new(4096)
    }
}

impl DrrScheduler {
    /// New scheduler with the given quantum.
    pub fn new(quantum: u64) -> Self {
        DrrScheduler {
            quantum,
            cursors: [0; CLASS_SLOTS],
            deficits: Vec::new(),
        }
    }

    /// Make sure deficit slots exist for flows `0..n`.
    pub fn ensure_flows(&mut self, n: usize) {
        if self.deficits.len() < n {
            self.deficits.resize(n, 0);
        }
    }

    /// A visit grants one quantum (capped) and returns the flow's budget.
    pub fn visit(&mut self, flow: usize) -> u64 {
        let cap = self.quantum.saturating_mul(MAX_CREDIT_QUANTA);
        let d = &mut self.deficits[flow];
        *d = (*d + self.quantum).min(cap);
        *d
    }

    /// Store the budget left after an offer pass.
    pub fn store(&mut self, flow: usize, remaining: u64) {
        self.deficits[flow] = remaining;
    }

    /// Current cursor of a class slot.
    pub fn cursor(&self, slot: usize) -> u32 {
        self.cursors[slot]
    }

    /// Advance a class slot's cursor.
    pub fn set_cursor(&mut self, slot: usize, next: u32) {
        self.cursors[slot] = next;
    }

    /// Split `window` candidate slots evenly across the class slots with
    /// active flows: the floor share each, the remainder one each to the
    /// first of them in slot order, and at least one each. Shares are soft
    /// targets: the global window cap still bounds the total, and a class
    /// with little work simply yields fewer candidates.
    pub fn shares(&self, window: usize, active: &[usize; CLASS_SLOTS]) -> [usize; CLASS_SLOTS] {
        let live = active.iter().filter(|&&a| a > 0).count().max(1);
        let (even, mut leftover) = (window / live, window % live);
        let mut shares = [0usize; CLASS_SLOTS];
        for (share, _) in shares.iter_mut().zip(active).filter(|(_, &a)| a > 0) {
            *share = (even + usize::from(leftover > 0)).max(1);
            leftover = leftover.saturating_sub(1);
        }
        shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, MsgSeq};

    #[test]
    fn class_slot_clamps_user_classes() {
        assert_eq!(class_slot(TrafficClass::DEFAULT), 0);
        assert_eq!(class_slot(TrafficClass::CONTROL), 3);
        assert_eq!(class_slot(TrafficClass(17)), CLASS_SLOTS - 1);
    }

    #[test]
    fn index_tracks_active_flows_and_counters() {
        let mut ix = FlowIndex::default();
        assert!(ix.is_idle());
        ix.note_submit(3, 0, 100);
        ix.note_submit(1, 1, 50);
        ix.note_submit(3, 0, 10);
        assert_eq!(ix.backlog_bytes(), 160);
        assert_eq!(ix.class_backlog_bytes(0), 110);
        assert_eq!(ix.class_backlog_bytes(1), 50);
        assert_eq!(ix.pending_msgs(), 3);
        assert_eq!(ix.active_count(), 2);
        // Ascending iteration regardless of insertion order.
        assert_eq!(ix.active_ids().collect::<Vec<_>>(), vec![1, 3]);

        ix.note_commit(0, 100);
        assert_eq!(ix.backlog_bytes(), 60);
        // First message of flow 3 completes; queue still holds one more.
        ix.note_remove(3, 0, 0, false);
        assert_eq!(ix.active_count(), 2);
        // Second completes; flow 3 leaves the active set.
        ix.note_remove(3, 0, 10, true);
        assert_eq!(ix.active_ids().collect::<Vec<_>>(), vec![1]);
        assert_eq!(ix.class_active_count(0), 0);
        ix.note_remove(1, 1, 50, true);
        assert!(ix.is_idle());
        assert_eq!(ix.backlog_bytes(), 0);
    }

    #[test]
    fn offer_walk_merges_ready_with_asking_and_leaves_full_destinations_alone() {
        let mut ix = FlowIndex::default();
        for flow in [2, 5, 9] {
            ix.note_ready(flow, true);
        }
        for (dst, flow) in [(1, 1), (1, 5), (1, 7), (1, 8), (2, 3), (2, 30)] {
            ix.note_asking(NodeId(dst), flow, true);
        }
        let mut heads = Vec::new();
        let mut walk = ix.offer_walk(&mut heads);
        let all: Vec<u32> = std::iter::from_fn(|| walk.next(|_| false)).collect();
        assert_eq!(all, [1, 2, 3, 5, 7, 8, 9, 30], "ascending, each once");

        // Node 1 has its quota once two of its asking flows were visited:
        // 7 and 8 are left alone; 5 was visited while there was room, and
        // would still be visited for its data.
        let visited = std::cell::Cell::new(0);
        let mut walk = ix.offer_walk(&mut heads);
        let mut seen = Vec::new();
        while let Some(flow) = walk.next(|dst| dst == NodeId(1) && visited.get() >= 2) {
            visited.set(visited.get() + usize::from([1, 5, 7, 8].contains(&flow)));
            seen.push(flow);
        }
        assert_eq!(seen, [1, 2, 3, 5, 9, 30]);

        ix.note_asking(NodeId(1), 5, false);
        ix.note_ready(9, false);
        let mut walk = ix.offer_walk(&mut heads);
        let all: Vec<u32> = std::iter::from_fn(|| walk.next(|_| false)).collect();
        assert_eq!(all, [1, 2, 3, 5, 7, 8, 30]);
    }

    #[test]
    fn an_id_set_is_the_ordered_set_it_replaced() {
        use crate::collect::MAX_FLOWS;
        let edges = [0, 1, 63, 64, 65, 127, 128, 4_095, 4_096, MAX_FLOWS - 1];
        let check = |ids: &IdSet, reference: &BTreeSet<u32>, cursors: &[u32]| {
            assert_eq!(ids.len(), reference.len());
            assert!(ids.iter().eq(reference.iter().copied()), "ascending");
            for &cursor in cursors {
                let wrapping = reference.range(cursor..).chain(reference.range(..cursor));
                assert!(
                    ids.wrapping_from(cursor).eq(wrapping.copied()),
                    "from {cursor}"
                );
            }
        };
        let empty = IdSet::default();
        check(&empty, &BTreeSet::new(), &[0, 64, MAX_FLOWS]);
        for seed in 1..=40u64 {
            let mut rng = simnet::SplitMix64::new(seed);
            // Ids packed in a few words, or spread up to the last flow id.
            let top = if seed % 2 == 0 { 300 } else { MAX_FLOWS };
            let (mut ids, mut reference) = (IdSet::default(), BTreeSet::new());
            for step in 0..400 {
                let id = if rng.next_below(4) == 0 {
                    edges[rng.next_below(edges.len() as u64) as usize]
                } else {
                    rng.next_below(u64::from(top)) as u32
                };
                if rng.next_below(3) == 0 {
                    assert_eq!(ids.remove(id), reference.remove(&id), "remove {id}");
                } else {
                    assert_eq!(ids.insert(id), reference.insert(id), "insert {id}");
                }
                if step % 40 == 39 {
                    let past = reference.last().map_or(0, |&last| last + 1);
                    let mut cursors = vec![0, past, MAX_FLOWS, id, id.saturating_add(1)];
                    cursors.extend(edges);
                    check(&ids, &reference, &cursors);
                }
            }
            // And empty again, its words kept.
            for id in reference.clone() {
                assert!(ids.remove(id));
                reference.remove(&id);
            }
            check(&ids, &reference, &[0, 63, MAX_FLOWS - 1]);
        }
    }

    #[test]
    fn circular_class_iteration_wraps() {
        let mut ix = FlowIndex::default();
        for f in [2u32, 5, 9] {
            ix.note_submit(f, 0, 1);
        }
        assert_eq!(ix.class_ids_from(0, 5).collect::<Vec<_>>(), vec![5, 9, 2]);
        assert_eq!(ix.class_ids_from(0, 6).collect::<Vec<_>>(), vec![9, 2, 5]);
        assert_eq!(ix.class_ids_from(0, 0).collect::<Vec<_>>(), vec![2, 5, 9]);
        assert_eq!(ix.class_ids_from(0, 10).collect::<Vec<_>>(), vec![2, 5, 9]);
    }

    #[test]
    fn drr_deficit_accumulates_and_caps() {
        let mut drr = DrrScheduler::new(100);
        drr.ensure_flows(2);
        assert_eq!(drr.visit(0), 100);
        drr.store(0, 0); // spent everything
        assert_eq!(drr.visit(0), 100);
        // Unspent credit accumulates up to the cap.
        for _ in 0..20 {
            drr.visit(1);
        }
        assert_eq!(drr.visit(1), 100 * MAX_CREDIT_QUANTA);
    }

    #[test]
    fn drr_shares_split_the_window_evenly() {
        let drr = DrrScheduler::new(4096);
        let shares = drr.shares(64, &[4, 0, 4, 0]);
        assert_eq!(shares, [32, 0, 32, 0]);
        // The remainder goes to the first active slots in slot order.
        assert_eq!(drr.shares(256, &[1, 1, 0, 1]), [86, 85, 0, 85]);
        // No active slot starves, however small the window.
        assert_eq!(drr.shares(2, &[5, 5, 5, 5]), [1; CLASS_SLOTS]);
        assert_eq!(drr.shares(64, &[0; CLASS_SLOTS]), [0; CLASS_SLOTS]);
    }

    #[test]
    fn admission_budget_checks() {
        let mut cfg = AdmissionConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg.over_budget(0, u64::MAX - 1, 0, 10), None);

        cfg.max_backlog_bytes = 1000;
        cfg.class_backlog_bytes[1] = 100;
        cfg.policy[1] = AdmissionPolicy::ShedOldest;
        assert!(cfg.enabled());
        assert_eq!(cfg.over_budget(0, 500, 500, 100), None);
        assert_eq!(
            cfg.over_budget(0, 950, 950, 100),
            Some(AdmissionPolicy::Block)
        );
        assert_eq!(
            cfg.over_budget(1, 0, 90, 20),
            Some(AdmissionPolicy::ShedOldest)
        );
        assert!(cfg.has_headroom(1, 0, 99));
        assert!(!cfg.has_headroom(1, 0, 100));
        assert!(!cfg.has_headroom(0, 1000, 0));
    }

    #[test]
    fn admission_state_one_signal_per_episode() {
        let mut cfg = AdmissionConfig {
            max_backlog_bytes: 1000,
            ..AdmissionConfig::default()
        };
        cfg.class_backlog_bytes[1] = 100;
        cfg.policy[1] = AdmissionPolicy::ShedOldest;
        cfg.policy[2] = AdmissionPolicy::Reject;
        let (mut adm, mut obs) = (Admission::new(cfg), Observer::new(simnet::NodeId(0)));
        let [c0, c1, c2] = [0, 1, 2].map(TrafficClass);
        // Shed `need` is the larger overshoot, whichever budget it is:
        // (class-0 backlog, class-1 backlog, incoming) → need
        for (b0, b1, incoming, need) in [(850, 90, 70, 60), (980, 10, 50, 40)] {
            let mut ix = FlowIndex::default();
            ix.note_submit(0, 0, b0);
            ix.note_submit(1, 1, b1);
            assert_eq!(adm.decide(c1, incoming, &ix, &mut obs), Ok(need));
        }
        let mut ix = FlowIndex::default();
        ix.note_submit(0, 0, 990);
        assert_eq!(adm.decide(c0, 10, &ix, &mut obs), Ok(0), "fits exactly");
        assert_eq!(
            adm.decide(c2, 11, &ix, &mut obs),
            Err(SendOutcome::Rejected)
        );
        for _ in 0..2 {
            let blocked = adm.decide(c0, 11, &ix, &mut obs);
            assert_eq!(blocked, Err(SendOutcome::WouldBlock), "one episode");
        }
        ix.note_submit(0, 0, 10);
        adm.release(SimTime::ZERO, &ix, &mut obs);
        assert!(adm.take_unblocked().is_empty(), "no headroom at the budget");
        ix.note_commit(0, 500);
        adm.release(SimTime::ZERO, &ix, &mut obs);
        adm.release(SimTime::ZERO, &ix, &mut obs);
        assert_eq!(adm.take_unblocked(), vec![c0], "released once");
        let m = obs.metrics();
        assert_eq!(
            (m.blocked_sends, m.rejected_sends, m.unblocked_events),
            (2, 1, 1)
        );
    }

    #[test]
    fn send_outcome_accessors() {
        let id = MsgId {
            flow: FlowId(1),
            seq: MsgSeq(4),
        };
        assert_eq!(SendOutcome::Admitted(id).msg_id(), Some(id));
        let shed = SendOutcome::Shed {
            admitted: id,
            shed: vec![],
        };
        assert_eq!(shed.msg_id(), Some(id));
        assert_eq!(SendOutcome::WouldBlock.msg_id(), None);
        assert_eq!(SendOutcome::Rejected.msg_id(), None);
    }
}

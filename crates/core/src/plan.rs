//! Transfer plans: the candidate "packet rearrangements" the optimizer
//! enumerates, scores and submits (§3).
//!
//! A plan describes one wire packet (or one rendezvous request) on one
//! rail. Strategies propose plans — for a data packet: a rail, a
//! destination and a chunk list; the constraint checker vetoes invalid
//! ones; the cost model chooses how each list is injected, by copy or as
//! a gather list, and scores it; the best one is executed.

use simnet::{NodeId, SimTime};

use crate::ids::{ChannelId, FlowId, FragIndex, TrafficClass};
use crate::proto::{framing_of, CONTROL_PACKET_BYTES};

/// A byte range of one fragment scheduled for transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedChunk {
    /// Flow the fragment's message belongs to.
    pub flow: FlowId,
    /// Message sequence within the flow.
    pub seq: u32,
    /// Fragment index within the message.
    pub frag: FragIndex,
    /// Starting offset within the fragment.
    pub offset: u32,
    /// Bytes to send.
    pub len: u32,
}

/// What a plan does. `C` is how a data packet's chunk list is held: owned
/// ([`PlanBody`]), borrowed ([`PlanRef`]'s body), or as a place in a
/// strategy's proposal arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Body<C> {
    /// Send one wire packet carrying the listed chunks (in order).
    Data {
        /// Chunks in packet order.
        chunks: C,
        /// Linearize by copy (true) or send as a gather list (false). Not
        /// a strategy's to say: a proposal reads `false`, and selection
        /// writes into its winner what
        /// [`cheapest_injection`](crate::cost::cheapest_injection) chose.
        linearize: bool,
    },
    /// Send a rendezvous request for a large fragment.
    RndvRequest {
        /// Flow of the fragment's message.
        flow: FlowId,
        /// Message sequence.
        seq: u32,
        /// Fragment index.
        frag: FragIndex,
    },
}

/// A complete candidate plan over chunk-list representation `C` (see
/// [`Body`]): [`TransferPlan`] owns its chunks, [`PlanRef`] borrows them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan<C> {
    /// Rail (NIC) the packet goes out on.
    pub channel: ChannelId,
    /// Destination node (all chunks of a data plan share it).
    pub dst: NodeId,
    /// The action.
    pub body: Body<C>,
    /// Name of the strategy that proposed it (for metrics/debugging).
    pub strategy: &'static str,
}

/// What an owned plan does.
pub type PlanBody = Body<Vec<PlannedChunk>>;

/// A plan that owns its chunk list: what a selection's winner becomes, and
/// what is executed.
pub type TransferPlan = Plan<Vec<PlannedChunk>>;

/// A plan whose chunks live elsewhere — in a strategy's proposal arena, or
/// in the [`TransferPlan`] it is a view of. What validation and scoring
/// read.
pub type PlanRef<'a> = Plan<&'a [PlannedChunk]>;

impl<C> Plan<C> {
    /// The same plan with its chunk list held as `hold` makes of it.
    pub fn map_chunks<'a, D>(&'a self, hold: impl FnOnce(&'a C) -> D) -> Plan<D> {
        Plan {
            channel: self.channel,
            dst: self.dst,
            body: match &self.body {
                Body::Data { chunks, linearize } => Body::Data {
                    chunks: hold(chunks),
                    linearize: *linearize,
                },
                &Body::RndvRequest { flow, seq, frag } => Body::RndvRequest { flow, seq, frag },
            },
            strategy: self.strategy,
        }
    }
}

impl<C> Plan<C> {
    /// The same plan with its data packet injected by copy (`by_copy`) or
    /// as a gather list; a rendezvous request has no such choice.
    pub fn injected(mut self, by_copy: bool) -> Self {
        if let Body::Data { linearize, .. } = &mut self.body {
            *linearize = by_copy;
        }
        self
    }
}

impl TransferPlan {
    /// The plan, borrowed.
    pub fn view(&self) -> PlanRef<'_> {
        self.map_chunks(|chunks| &chunks[..])
    }
}

impl PlanRef<'_> {
    /// The plan with a chunk list of its own.
    pub fn to_plan(&self) -> TransferPlan {
        self.map_chunks(|chunks| chunks.to_vec())
    }
}

impl<C: AsRef<[PlannedChunk]>> Plan<C> {
    /// The chunks a data plan carries (none for rendezvous requests).
    pub fn chunks(&self) -> &[PlannedChunk] {
        match &self.body {
            Body::Data { chunks, .. } => chunks.as_ref(),
            Body::RndvRequest { .. } => &[],
        }
    }

    /// Total payload bytes the plan moves (0 for rendezvous requests).
    pub fn payload_bytes(&self) -> u64 {
        self.chunks().iter().map(|c| c.len as u64).sum()
    }

    /// Number of chunks (0 for rendezvous requests).
    pub fn chunk_count(&self) -> usize {
        self.chunks().len()
    }

    /// Whether this is a data plan sent by copy.
    pub fn linearized(&self) -> bool {
        matches!(
            self.body,
            Body::Data {
                linearize: true,
                ..
            }
        )
    }

    /// Protocol framing bytes this plan will add on the wire.
    pub fn framing(&self) -> u64 {
        match &self.body {
            Body::Data { chunks, .. } => framing_of(chunks.as_ref()),
            Body::RndvRequest { .. } => CONTROL_PACKET_BYTES,
        }
    }
}

/// A schedulable byte range offered to strategies (one entry of the
/// optimizer's lookahead window).
#[derive(Clone, Copy, Debug)]
pub struct ChunkCandidate {
    /// Where the entry lies in its group's `candidates`. A chunk cut from
    /// the candidate carries it along as a hint, so that judging the chunk
    /// finds the entry without searching; the hint is checked against the
    /// window before anything is read through it, so a wrong one costs a
    /// search and changes nothing.
    pub at: u32,
    /// Flow of the message.
    pub flow: FlowId,
    /// Message sequence within the flow.
    pub seq: u32,
    /// Fragment index.
    pub frag: FragIndex,
    /// Next schedulable offset (contiguous after sent+inflight bytes).
    pub offset: u32,
    /// Remaining schedulable bytes from `offset`.
    pub remaining: u32,
    /// Bytes the whole message still has to send: the uncommitted bytes
    /// of every fragment, offered by this window or not — what a chunk is
    /// a share of when a packet is scored.
    pub msg_remaining: u64,
    /// Whether the fragment is express.
    pub express: bool,
    /// Traffic class of the message.
    pub class: TrafficClass,
    /// When the message was submitted (oldest-first orders).
    pub submitted_at: SimTime,
}

/// A fragment waiting for a rendezvous request to be sent.
#[derive(Clone, Copy, Debug)]
pub struct RndvCandidate {
    /// Flow of the message.
    pub flow: FlowId,
    /// Message sequence.
    pub seq: u32,
    /// Fragment index.
    pub frag: FragIndex,
    /// Traffic class (what a request is worth).
    pub class: TrafficClass,
    /// Submission time.
    pub submitted_at: SimTime,
}

/// Rendezvous requests offered per destination in one window. A request
/// carries no payload and is not lookahead: it is offered *beside* the
/// window's data candidates, and this is how many of them — what the
/// collect layer offers and what `RendezvousPromotion` proposes, one
/// value for both sides.
pub const MAX_REQS_PER_DST: usize = 4;

/// All schedulable work toward one destination node, as seen by one rail's
/// optimizer activation.
///
/// **Invariant of a window the collect layer built** (what
/// `strategy::reorder`'s message runs and the chunk hints rest on;
/// asserted under `debug-invariants`): a
/// window has one group per destination and no empty group; a message's
/// fragments are offered back to back in pack order, so the candidates of
/// one `(flow, seq)` are adjacent and ascending in `frag`; a fragment is
/// offered at most once; every candidate's `at` is its index in
/// `candidates`; and `rndv` holds at most [`MAX_REQS_PER_DST`] requests.
#[derive(Clone, Debug)]
pub struct DstGroup {
    /// Destination node.
    pub dst: NodeId,
    /// Schedulable chunks, oldest message first.
    pub candidates: Vec<ChunkCandidate>,
    /// Fragments needing a rendezvous request.
    pub rndv: Vec<RndvCandidate>,
}

impl DstGroup {
    /// Empty group for a destination.
    pub fn new(dst: NodeId) -> Self {
        DstGroup {
            dst,
            candidates: Vec::new(),
            rndv: Vec::new(),
        }
    }

    /// Total schedulable payload bytes in this group.
    pub fn total_bytes(&self) -> u64 {
        self.candidates.iter().map(|c| c.remaining as u64).sum()
    }
}

/// The groups of one activation window, in storage that outlives it: a
/// group that falls out of use keeps its candidate vectors for the next
/// window, so a sender that holds one of these fills windows without
/// allocating.
#[derive(Clone, Debug, Default)]
pub struct WindowGroups {
    /// `groups[..live]` are the window; the rest are spares.
    groups: Vec<DstGroup>,
    live: usize,
    /// The window's messages, sorted by `debug_assert_invariants` in a
    /// buffer kept for the next window, so the check allocates nothing
    /// once warm and the allocation budget holds with it compiled in.
    #[cfg(any(test, feature = "debug-invariants"))]
    messages: Vec<(FlowId, u32)>,
}

impl WindowGroups {
    /// The window, one group per destination in first-offer order.
    pub fn groups(&self) -> &[DstGroup] {
        &self.groups[..self.live]
    }

    /// The window as a vector of its own.
    pub fn into_groups(mut self) -> Vec<DstGroup> {
        self.groups.truncate(self.live);
        self.groups
    }

    /// Check the [`DstGroup`] invariant on every group of the window.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn debug_assert_invariants(&mut self) {
        let groups = &self.groups[..self.live];
        let messages = &mut self.messages;
        messages.clear();
        for (at, g) in groups.iter().enumerate() {
            let twice = groups[..at].iter().any(|e| e.dst == g.dst);
            assert!(!twice, "two groups for {:?}", g.dst);
            assert!(
                !(g.candidates.is_empty() && g.rndv.is_empty()),
                "empty group for {:?}",
                g.dst
            );
            assert!(g.rndv.len() <= MAX_REQS_PER_DST, "requests over quota");
            let mut prev: Option<&ChunkCandidate> = None;
            for (i, c) in g.candidates.iter().enumerate() {
                assert_eq!(c.at as usize, i, "candidate misplaced in its group");
                match prev.filter(|p| (p.flow, p.seq) == (c.flow, c.seq)) {
                    Some(p) => assert!(p.frag < c.frag, "fragments out of pack order"),
                    None => messages.push((c.flow, c.seq)),
                }
                prev = Some(c);
            }
        }
        messages.sort_unstable();
        if let Some(w) = messages.windows(2).find(|w| w[0] == w[1]) {
            let (flow, seq) = w[0];
            panic!("{flow}/{seq}: a message's candidates are not adjacent");
        }
    }

    /// Start an empty window.
    pub(crate) fn clear(&mut self) {
        self.live = 0;
    }

    /// Offer a rendezvous request beside the window. It is left for a
    /// later window when `dst` already holds [`MAX_REQS_PER_DST`] of them.
    pub(crate) fn offer_rndv(&mut self, dst: NodeId, request: RndvCandidate) {
        // A group this opens has room, so it is not left empty.
        let group = self.group_for(dst);
        if group.rndv.len() < MAX_REQS_PER_DST {
            group.rndv.push(request);
        }
    }

    /// Whether `dst` takes no more requests in this window.
    pub(crate) fn rndv_full(&self, dst: NodeId) -> bool {
        self.open_at(dst)
            .is_some_and(|at| self.groups[at].rndv.len() >= MAX_REQS_PER_DST)
    }

    /// Where the window's group for `dst` lies, if one is open.
    // madlint: allow(linear-scan) — one group per destination in the window
    fn open_at(&self, dst: NodeId) -> Option<usize> {
        self.groups().iter().position(|g| g.dst == dst)
    }

    /// The window's group for `dst`, opened on first use — by the entry
    /// the caller is about to push into it.
    pub(crate) fn group_for(&mut self, dst: NodeId) -> &mut DstGroup {
        let open = self.open_at(dst);
        let at = open.unwrap_or_else(|| {
            match self.groups.get_mut(self.live) {
                Some(spare) => {
                    spare.dst = dst;
                    spare.candidates.clear();
                    spare.rndv.clear();
                }
                None => self.groups.push(DstGroup::new(dst)),
            }
            self.live += 1;
            self.live - 1
        });
        &mut self.groups[at]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{
        CONTROL_PACKET_BYTES, OFFSET_BYTES, OPEN_HEADER_BYTES, PACKET_PREFIX_BYTES,
        SAME_MSG_HEADER_BYTES,
    };

    fn chunk(len: u32) -> PlannedChunk {
        PlannedChunk {
            flow: FlowId(0),
            seq: 0,
            frag: 0,
            offset: 0,
            len,
        }
    }

    fn data_plan(chunks: Vec<PlannedChunk>, linearize: bool) -> TransferPlan {
        TransferPlan {
            channel: ChannelId(0),
            dst: NodeId(1),
            body: PlanBody::Data { chunks, linearize },
            strategy: "test",
        }
    }

    #[test]
    fn plan_accounting() {
        let p = data_plan(vec![chunk(100), chunk(50)], false);
        assert_eq!(p.payload_bytes(), 150);
        assert_eq!(p.chunk_count(), 2);
        // Two chunks of one message: the second header names none.
        assert_eq!(
            p.framing(),
            PACKET_PREFIX_BYTES + OPEN_HEADER_BYTES + SAME_MSG_HEADER_BYTES
        );
        // A chunk of another message says so, and one past the start of
        // its fragment says where.
        let mut other = chunk(10);
        (other.flow, other.offset) = (FlowId(1), 40);
        let q = data_plan(vec![chunk(100), other], false);
        assert_eq!(
            q.framing(),
            PACKET_PREFIX_BYTES + 2 * OPEN_HEADER_BYTES + OFFSET_BYTES
        );
        assert!(!p.linearized());
        assert!(p.injected(true).linearized());
    }

    #[test]
    fn rndv_plan_accounting() {
        let p = TransferPlan {
            channel: ChannelId(1),
            dst: NodeId(2),
            body: PlanBody::RndvRequest {
                flow: FlowId(3),
                seq: 4,
                frag: 5,
            },
            strategy: "rndv",
        };
        assert_eq!(p.payload_bytes(), 0);
        assert_eq!(p.chunk_count(), 0);
        assert_eq!(p.framing(), CONTROL_PACKET_BYTES);
        assert!(
            !p.clone().injected(true).linearized(),
            "a request has no mode"
        );
    }

    #[test]
    fn dst_group_totals() {
        let g = DstGroup {
            dst: NodeId(0),
            candidates: vec![
                ChunkCandidate {
                    at: 0,
                    flow: FlowId(0),
                    seq: 0,
                    frag: 0,
                    offset: 0,
                    remaining: 100,
                    msg_remaining: 100,
                    express: false,
                    class: TrafficClass::DEFAULT,
                    submitted_at: SimTime::ZERO,
                },
                ChunkCandidate {
                    at: 1,
                    flow: FlowId(1),
                    seq: 0,
                    frag: 0,
                    offset: 64,
                    remaining: 36,
                    msg_remaining: 36,
                    express: true,
                    class: TrafficClass::CONTROL,
                    submitted_at: SimTime::ZERO,
                },
            ],
            rndv: vec![],
        };
        assert_eq!(g.total_bytes(), 136);
    }
}

//! Constraint checking: message-internal dependencies "are taken into
//! account as limiting factors — or constraints — by the scheduler while
//! estimating the value of a given packet reordering operation" (§3).
//!
//! [`validate_plan`] is the safety net between strategies and drivers:
//! every plan the optimizer is about to score must pass. Well-written
//! strategies never produce violations, but the checker guarantees that a
//! buggy (or user-supplied) strategy cannot corrupt message semantics or
//! exceed hardware capabilities.

// madlint: file: hot-path

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use nicdrv::DriverCapabilities;

use simnet::NodeId;

use crate::collect::{chunk_header, CollectLayer, FlowState, PendingMessage, RndvState};
use crate::cost::{injectable, packet_limit};
use crate::ids::{ChannelId, FlowId, FragIndex};
use crate::message::PackMode;
use crate::plan::{Body, PlanRef, PlannedChunk, TransferPlan};
use crate::proto::{ChunkHeader, Framing};

/// Why a plan was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanViolation {
    /// Plan carries no chunks.
    EmptyPlan,
    /// A chunk has zero length.
    ZeroLengthChunk,
    /// A chunk references a message not in the backlog.
    UnknownChunk,
    /// Chunks for different destination nodes in one packet.
    MixedDestinations,
    /// The message is pinned to a different rail, or the plan names a
    /// rail other than the one being scheduled.
    WrongRail,
    /// A chunk does not start at its fragment's committed/planned frontier.
    NonContiguous {
        /// Offending flow.
        flow: FlowId,
        /// Offending fragment.
        frag: FragIndex,
        /// Expected offset.
        expected: u32,
        /// Offset in the plan.
        got: u32,
    },
    /// A chunk would overrun its fragment.
    Overrun,
    /// A fragment is scheduled before an earlier express fragment of the
    /// same message is fully transferred (or covered earlier in this plan).
    ExpressOrder {
        /// Offending flow.
        flow: FlowId,
        /// Fragment that jumped the gate.
        frag: FragIndex,
        /// The express fragment that is still open.
        open_express: FragIndex,
    },
    /// A rendezvous-gated fragment was scheduled before its grant.
    RndvBlocked,
    /// Packet exceeds the wire/driver packet size limit.
    OverSize {
        /// Payload + framing bytes.
        bytes: u64,
        /// The limit.
        limit: u64,
    },
    /// Gather list too long for the hardware and too large for PIO
    /// streaming; the plan must be linearized.
    GatherTooWide {
        /// Segments the plan needs.
        segs: usize,
        /// Hardware gather limit.
        max: usize,
    },
    /// No injection mode of the rail, PIO or DMA, takes the packet even
    /// as one copied segment.
    NoInjectionPath {
        /// Payload + framing bytes.
        bytes: u64,
    },
    /// A rendezvous request for a fragment that does not need one.
    RndvNotNeeded,
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanViolation::EmptyPlan => write!(f, "plan has no chunks"),
            PlanViolation::ZeroLengthChunk => write!(f, "zero-length chunk"),
            PlanViolation::UnknownChunk => write!(f, "chunk references unknown message"),
            PlanViolation::MixedDestinations => write!(f, "mixed destinations in one packet"),
            PlanViolation::WrongRail => {
                write!(
                    f,
                    "message pinned to, or plan addressed to, a different rail"
                )
            }
            PlanViolation::NonContiguous {
                flow,
                frag,
                expected,
                got,
            } => write!(
                f,
                "non-contiguous chunk for {flow} frag {frag}: expected offset {expected}, got {got}"
            ),
            PlanViolation::Overrun => write!(f, "chunk overruns fragment"),
            PlanViolation::ExpressOrder {
                flow,
                frag,
                open_express,
            } => write!(
                f,
                "{flow}: fragment {frag} scheduled before express fragment {open_express}"
            ),
            PlanViolation::RndvBlocked => write!(f, "rendezvous-gated fragment scheduled early"),
            PlanViolation::OverSize { bytes, limit } => {
                write!(f, "packet of {bytes} bytes exceeds limit {limit}")
            }
            PlanViolation::GatherTooWide { segs, max } => {
                write!(f, "gather list of {segs} exceeds hardware limit {max}")
            }
            PlanViolation::NoInjectionPath { bytes } => {
                write!(f, "no injection path accepts a packet of {bytes} bytes")
            }
            PlanViolation::RndvNotNeeded => write!(f, "rendezvous request not needed"),
        }
    }
}

impl std::error::Error for PlanViolation {}

/// What the chunks of one plan seen so far claim of their fragments, so
/// that a later chunk may rely on an earlier chunk of the same packet. A
/// selection pass reuses one across all its proposals.
///
/// Checking a list stays linear in its length. Every built-in list keeps a
/// message's chunks adjacent (the `DstGroup` invariant), so the message the
/// chunk before named is kept at hand: a chunk that continues it reads its
/// fragments' claims by index and its express gate where the last chunk
/// left it, with no lookup. Where the list moves to another message, a
/// list in window order — which names messages in ascending `(flow, seq)`
/// under pack-order fairness — is known to meet a new one; any other list
/// pays a keyed lookup there, so that one that comes back to a message —
/// a user strategy may interleave — finds what its earlier chunks claimed.
#[derive(Debug, Default)]
pub(crate) struct PlanCoverage {
    /// Bytes claimed of each fragment, message after message (see
    /// [`MsgClaims`]); the message being walked owns the tail.
    claimed: Vec<u32>,
    /// Every message the list has named so far, in the order met.
    msgs: Vec<MsgClaims>,
    /// Where in `msgs` a message is; empty while the list has named its
    /// messages in ascending order, each one new.
    met: HashMap<(FlowId, u32), u32, BuildHasherDefault<KeyHasher>>,
    /// The list's size on the wire after each of its chunks, as the walk
    /// counted it: what a list that begins this one is.
    sizes: Vec<u64>,
}

/// One message's share of [`PlanCoverage`].
#[derive(Clone, Copy, Debug)]
struct MsgClaims {
    key: (FlowId, u32),
    /// The claims of its fragments `0..len` are `claimed[at..at + len]`;
    /// a later fragment claims nothing yet.
    at: u32,
    len: u32,
    /// Its fragments below this one are known not to hold a later one
    /// back: not express, or every byte committed or claimed.
    gate: FragIndex,
}

impl PlanCoverage {
    fn clear(&mut self) {
        self.claimed.clear();
        self.msgs.clear();
        self.met.clear();
        self.sizes.clear();
    }

    /// The size on the wire of the list [`validate_chunks`] walked last,
    /// after each of its chunks.
    pub(crate) fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// The list names message `key`, which the chunk before did not: its
    /// place in `msgs`, its claims moved to the tail.
    fn enter(&mut self, key: (FlowId, u32)) -> usize {
        let tail = self.claimed.len() as u32;
        let next = self.msgs.len() as u32;
        let ascending = self.met.is_empty() && self.msgs.last().is_none_or(|m| m.key < key);
        let m = if ascending {
            next
        } else {
            if self.met.is_empty() {
                // The first message out of order: from here on, look up.
                let met = self.msgs.iter().zip(0..).map(|(m, at)| (m.key, at));
                self.met.extend(met);
            }
            *self.met.entry(key).or_insert(next)
        } as usize;
        if m == self.msgs.len() {
            self.msgs.push(MsgClaims {
                key,
                at: tail,
                len: 0,
                gate: 0,
            });
        } else {
            // Back to a message met before: where it was, another now ends.
            let MsgClaims { at, len, .. } = self.msgs[m];
            self.claimed
                .extend_from_within(at as usize..(at + len) as usize);
            self.msgs[m].at = tail;
        }
        m
    }

    /// Bytes the list has claimed so far of fragment `frag` of message `m`.
    fn claimed(&self, m: usize, frag: FragIndex) -> u32 {
        let MsgClaims { at, len, .. } = self.msgs[m];
        let frag = u32::from(frag);
        if frag < len {
            self.claimed[(at + frag) as usize]
        } else {
            0
        }
    }

    /// Fragment `frag` of message `m`, the one at the tail, claims `bytes`.
    fn claim(&mut self, m: usize, frag: FragIndex, bytes: u32) {
        let claims = &mut self.msgs[m];
        let frag = u32::from(frag);
        if frag >= claims.len {
            let grown = (claims.at + frag + 1) as usize;
            debug_assert!(grown >= self.claimed.len(), "message {m} is not the tail");
            self.claimed.resize(grown, 0);
            claims.len = frag + 1;
        }
        self.claimed[(claims.at + frag) as usize] += bytes;
    }

    /// The first express fragment of `msg` (message `m`) before `frag`
    /// that is neither committed nor claimed in full, if any. Fragments
    /// found clear stay clear — claims only grow — so no fragment of a
    /// message is looked at twice in one list.
    fn open_express(
        &mut self,
        m: usize,
        msg: &PendingMessage,
        frag: FragIndex,
    ) -> Option<FragIndex> {
        let mut gate = self.msgs[m].gate;
        while gate < frag {
            let earlier = &msg.frags[gate as usize];
            if earlier.mode == PackMode::Express
                && earlier.committed() + self.claimed(m, gate) < earlier.len()
            {
                break;
            }
            gate += 1;
        }
        self.msgs[m].gate = gate;
        (gate < frag).then_some(gate)
    }
}

/// Hashes a message key with a multiply per word (the "Fx" scheme): every
/// key [`PlanCoverage`] hashes names a live message (`find_msg` found it
/// first), so the keys are small integers the engine assigned, not chosen
/// by a peer, and a keyed hash would buy nothing.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The product's well-mixed high bits are the ones the table's
        // bucket index reads.
        self.0.rotate_left(26)
    }
}

/// Validate a candidate plan against the current backlog state and the
/// target rail's capabilities, injected as the plan says it is. `wire_mtu`
/// is the network MTU of the rail.
pub fn validate_plan(
    plan: &TransferPlan,
    collect: &CollectLayer,
    caps: &DriverCapabilities,
    wire_mtu: u64,
) -> Result<(), PlanViolation> {
    let mut coverage = PlanCoverage::default();
    validate_plan_with(plan.view(), collect, caps, wire_mtu, &mut coverage)
}

/// [`validate_plan`] of a borrowed plan, with the caller's coverage
/// scratch (cleared here): what a selection pass checks of a chunk list
/// ([`validate_chunks`]), and that the rail can inject it in the form the
/// plan names — where selection asks the cost model for the cheapest form
/// instead, and vetoes the list when there is none.
pub(crate) fn validate_plan_with(
    plan: PlanRef<'_>,
    collect: &CollectLayer,
    caps: &DriverCapabilities,
    wire_mtu: u64,
    planned: &mut PlanCoverage,
) -> Result<(), PlanViolation> {
    match plan.body {
        Body::RndvRequest { flow, seq, frag } => {
            validate_request(plan.dst, (flow, seq, frag), collect).map(drop)
        }
        Body::Data { chunks, linearize } => {
            let limit = packet_limit(caps, wire_mtu);
            let bytes = validate_chunks(plan.channel, plan.dst, chunks, collect, limit, planned)?;
            if injectable(caps, chunks.len(), bytes, linearize) {
                Ok(())
            } else if linearize {
                Err(PlanViolation::NoInjectionPath { bytes })
            } else {
                // PIO can stream arbitrary segment lists; DMA needs gather
                // entries. Neither fits: the plan must linearize.
                let (segs, max) = (1 + chunks.len(), gather_limit(caps));
                Err(PlanViolation::GatherTooWide { segs, max })
            }
        }
    }
}

/// A rendezvous request toward `dst` for a pending fragment that needs one.
/// Returns the header it travels under.
pub(crate) fn validate_request(
    dst: NodeId,
    (flow, seq, frag): (FlowId, u32, FragIndex),
    collect: &CollectLayer,
) -> Result<ChunkHeader, PlanViolation> {
    let (fs, msg) = collect.find(flow, seq).ok_or(PlanViolation::UnknownChunk)?;
    if fs.dst != dst {
        return Err(PlanViolation::MixedDestinations);
    }
    let f = msg
        .frags
        .get(frag as usize)
        .ok_or(PlanViolation::UnknownChunk)?;
    if f.rndv != RndvState::NeedRequest {
        return Err(PlanViolation::RndvNotNeeded);
    }
    Ok(chunk_header(
        fs,
        seq,
        msg,
        &PlannedChunk::request(flow, seq, frag),
    ))
}

/// What a data packet of `chunks` toward `dst` on rail `channel` must
/// satisfy whichever way it is injected: every chunk names live, unpinned
/// (or pinned here), ungated bytes at its fragment's frontier, in an order
/// the express constraints allow, and the packet fits `limit` bytes (the
/// rail's [`packet_limit`]). Returns the packet's bytes on the wire —
/// payload and the framing this list has, counted on the walk that checks
/// it; `planned` is cleared here.
pub(crate) fn validate_chunks(
    channel: ChannelId,
    dst: NodeId,
    chunks: &[PlannedChunk],
    collect: &CollectLayer,
    limit: u64,
    planned: &mut PlanCoverage,
) -> Result<u64, PlanViolation> {
    if chunks.is_empty() {
        return Err(PlanViolation::EmptyPlan);
    }
    planned.clear();
    let mut payload = 0u64;
    let mut framing = Framing::new();
    // The message the chunk before named, its flow, and its place in
    // `planned`.
    let mut current: Option<((FlowId, u32), &FlowState, &PendingMessage, usize)> = None;
    for c in chunks {
        if c.len == 0 {
            return Err(PlanViolation::ZeroLengthChunk);
        }
        let (fs, msg, m) = match current {
            Some((key, fs, msg, m)) if key == (c.flow, c.seq) => (fs, msg, m),
            _ => {
                let (fs, msg) = collect
                    .find(c.flow, c.seq)
                    .ok_or(PlanViolation::UnknownChunk)?;
                if fs.dst != dst {
                    return Err(PlanViolation::MixedDestinations);
                }
                if let Some(pin) = msg.pinned_rail {
                    if pin != channel {
                        return Err(PlanViolation::WrongRail);
                    }
                }
                let m = planned.enter((c.flow, c.seq));
                current = Some(((c.flow, c.seq), fs, msg, m));
                (fs, msg, m)
            }
        };
        let frag = msg
            .frags
            .get(c.frag as usize)
            .ok_or(PlanViolation::UnknownChunk)?;
        if frag.rndv_blocked() {
            return Err(PlanViolation::RndvBlocked);
        }
        // Express gating: every earlier express fragment must be
        // fully committed or fully covered earlier in this plan.
        if let Some(open_express) = planned.open_express(m, msg, c.frag) {
            return Err(PlanViolation::ExpressOrder {
                flow: c.flow,
                frag: c.frag,
                open_express,
            });
        }
        let expected = frag.committed() + planned.claimed(m, c.frag);
        if c.offset != expected {
            return Err(PlanViolation::NonContiguous {
                flow: c.flow,
                frag: c.frag,
                expected,
                got: c.offset,
            });
        }
        // Widen before adding: a hostile `len` near `u32::MAX`
        // must report Overrun, not overflow.
        if u64::from(c.offset) + u64::from(c.len) > u64::from(frag.len()) {
            return Err(PlanViolation::Overrun);
        }
        planned.claim(m, c.frag, c.len);
        payload += c.len as u64;
        framing.push(&chunk_header(fs, c.seq, msg, c));
        planned.sizes.push(payload + framing.bytes());
    }
    let total = payload + framing.bytes();
    if total > limit {
        return Err(PlanViolation::OverSize {
            bytes: total,
            limit,
        });
    }
    Ok(total)
}

fn gather_limit(caps: &DriverCapabilities) -> usize {
    if caps.supports_dma {
        caps.max_gather_entries
    } else {
        0
    }
}

/// Largest chunk-count a zero-copy (gather) data packet may carry on this
/// driver, assuming it is too big for PIO. Strategies use this to shape
/// zero-copy proposals.
pub fn max_gather_chunks(caps: &DriverCapabilities) -> usize {
    if caps.supports_dma {
        caps.max_gather_entries.saturating_sub(1) // minus the header block
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::CollectLayer;
    use crate::ids::{ChannelId, TrafficClass};
    use crate::message::{Fragment, MessageBuilder, PackMode};
    use crate::plan::{PlanBody, PlannedChunk, TransferPlan};
    use simnet::{NodeId, SimTime};

    fn caps() -> DriverCapabilities {
        nicdrv::calib::synthetic_capabilities()
    }

    fn parts(sizes: &[(usize, PackMode)]) -> Vec<Fragment> {
        let mut b = MessageBuilder::new();
        for &(n, mode) in sizes {
            b = b.pack(&vec![1; n], mode);
        }
        b.build_parts()
    }

    fn data_plan(chunks: Vec<PlannedChunk>) -> TransferPlan {
        TransferPlan {
            channel: ChannelId(0),
            dst: NodeId(1),
            body: PlanBody::Data {
                chunks,
                linearize: false,
            },
            strategy: "test",
        }
    }

    fn setup(sizes: &[(usize, PackMode)]) -> (CollectLayer, FlowId) {
        let mut c = CollectLayer::new();
        let f = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
        c.submit(f, parts(sizes), SimTime::ZERO, 1 << 30);
        (c, f)
    }

    #[test]
    fn valid_single_chunk_plan_passes() {
        let (c, f) = setup(&[(100, PackMode::Cheaper)]);
        let p = data_plan(vec![PlannedChunk {
            flow: f,
            seq: 0,
            frag: 0,
            offset: 0,
            len: 100,
        }]);
        assert_eq!(validate_plan(&p, &c, &caps(), 1 << 20), Ok(()));
    }

    #[test]
    fn express_jump_rejected_unless_covered_in_plan() {
        let (c, f) = setup(&[(10, PackMode::Express), (50, PackMode::Cheaper)]);
        // Scheduling the body without the header: violation.
        let p = data_plan(vec![PlannedChunk {
            flow: f,
            seq: 0,
            frag: 1,
            offset: 0,
            len: 50,
        }]);
        assert!(matches!(
            validate_plan(&p, &c, &caps(), 1 << 20),
            Err(PlanViolation::ExpressOrder {
                open_express: 0,
                ..
            })
        ));
        // Header earlier in the same packet: fine.
        let p = data_plan(vec![
            PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 0,
                len: 10,
            },
            PlannedChunk {
                flow: f,
                seq: 0,
                frag: 1,
                offset: 0,
                len: 50,
            },
        ]);
        assert_eq!(validate_plan(&p, &c, &caps(), 1 << 20), Ok(()));
        // Header *after* the body in the same packet: still a violation
        // (receivers process chunks in order).
        let p = data_plan(vec![
            PlannedChunk {
                flow: f,
                seq: 0,
                frag: 1,
                offset: 0,
                len: 50,
            },
            PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 0,
                len: 10,
            },
        ]);
        assert!(validate_plan(&p, &c, &caps(), 1 << 20).is_err());
    }

    #[test]
    fn partial_express_coverage_does_not_unlock() {
        let (c, f) = setup(&[(10, PackMode::Express), (50, PackMode::Cheaper)]);
        let p = data_plan(vec![
            PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 0,
                len: 5,
            },
            PlannedChunk {
                flow: f,
                seq: 0,
                frag: 1,
                offset: 0,
                len: 50,
            },
        ]);
        assert!(matches!(
            validate_plan(&p, &c, &caps(), 1 << 20),
            Err(PlanViolation::ExpressOrder { .. })
        ));
    }

    #[test]
    fn non_contiguous_and_overrun_rejected() {
        let (c, f) = setup(&[(100, PackMode::Cheaper)]);
        let p = data_plan(vec![PlannedChunk {
            flow: f,
            seq: 0,
            frag: 0,
            offset: 10,
            len: 10,
        }]);
        assert!(matches!(
            validate_plan(&p, &c, &caps(), 1 << 20),
            Err(PlanViolation::NonContiguous {
                expected: 0,
                got: 10,
                ..
            })
        ));
        let p = data_plan(vec![PlannedChunk {
            flow: f,
            seq: 0,
            frag: 0,
            offset: 0,
            len: 200,
        }]);
        assert_eq!(
            validate_plan(&p, &c, &caps(), 1 << 20),
            Err(PlanViolation::Overrun)
        );
    }

    #[test]
    fn split_chunks_within_one_plan_must_be_ordered() {
        let (c, f) = setup(&[(100, PackMode::Cheaper)]);
        let p = data_plan(vec![
            PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 0,
                len: 40,
            },
            PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 40,
                len: 60,
            },
        ]);
        assert_eq!(validate_plan(&p, &c, &caps(), 1 << 20), Ok(()));
        let p = data_plan(vec![
            PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 40,
                len: 60,
            },
            PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 0,
                len: 40,
            },
        ]);
        assert!(validate_plan(&p, &c, &caps(), 1 << 20).is_err());
    }

    #[test]
    fn oversize_rejected() {
        let (c, f) = setup(&[(2000, PackMode::Cheaper)]);
        let p = data_plan(vec![PlannedChunk {
            flow: f,
            seq: 0,
            frag: 0,
            offset: 0,
            len: 2000,
        }]);
        assert!(matches!(
            validate_plan(&p, &c, &caps(), 1000),
            Err(PlanViolation::OverSize { .. })
        ));
    }

    #[test]
    fn gather_width_rejected_when_dma_required() {
        let mut many = CollectLayer::new();
        let f = many.open_flow(NodeId(1), TrafficClass::DEFAULT);
        // 12 fragments of 1 KiB: total 12 KiB > pio_max (4 KiB) so PIO can't
        // stream it, and 13 segments > 8 gather entries.
        let sizes: Vec<(usize, PackMode)> = (0..12).map(|_| (1024, PackMode::Cheaper)).collect();
        many.submit(f, parts(&sizes), SimTime::ZERO, 1 << 30);
        let chunks = (0..12)
            .map(|i| PlannedChunk {
                flow: f,
                seq: 0,
                frag: i,
                offset: 0,
                len: 1024,
            })
            .collect();
        let p = data_plan(chunks);
        assert!(matches!(
            validate_plan(&p, &many, &caps(), 1 << 20),
            Err(PlanViolation::GatherTooWide { segs: 13, max: 8 })
        ));
        // Linearizing the same plan makes it valid.
        let mut lin = p.clone();
        if let PlanBody::Data { linearize, .. } = &mut lin.body {
            *linearize = true;
        }
        assert_eq!(validate_plan(&lin, &many, &caps(), 1 << 20), Ok(()));
    }

    #[test]
    fn what_is_wrong_with_the_chunks_is_reported_before_how_they_are_injected() {
        // Twelve 1 KiB fragments as one gather list are too wide (13
        // segments, 12 KiB: neither PIO nor the 8-entry gather); the last
        // chunk also runs past its fragment. The overrun is the verdict
        // whichever way the packet would be injected, as it was when one
        // routine checked both.
        let mut c = CollectLayer::new();
        let f = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
        let sizes: Vec<(usize, PackMode)> = (0..12).map(|_| (1024, PackMode::Cheaper)).collect();
        c.submit(f, parts(&sizes), SimTime::ZERO, 1 << 30);
        let chunk = |frag, len| PlannedChunk {
            flow: f,
            seq: 0,
            frag,
            offset: 0,
            len,
        };
        let mut chunks: Vec<_> = (0..12).map(|i| chunk(i, 1024)).collect();
        let wide = data_plan(chunks.clone());
        assert!(matches!(
            validate_plan(&wide, &c, &caps(), 1 << 20),
            Err(PlanViolation::GatherTooWide { .. })
        ));
        chunks[11].len = 1025;
        for linearize in [false, true] {
            let mut plan = data_plan(chunks.clone());
            plan.body = PlanBody::Data {
                chunks: chunks.clone(),
                linearize,
            };
            assert_eq!(
                validate_plan(&plan, &c, &caps(), 1 << 20),
                Err(PlanViolation::Overrun)
            );
        }
        // So is a packet over the size limit: it is not a gather problem.
        chunks[11].len = 1024;
        assert!(matches!(
            validate_plan(&data_plan(chunks), &c, &caps(), 8192),
            Err(PlanViolation::OverSize { limit: 8192, .. })
        ));
    }

    #[test]
    fn rndv_gated_fragment_rejected() {
        let mut c = CollectLayer::new();
        let f = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
        c.submit(f, parts(&[(5000, PackMode::Cheaper)]), SimTime::ZERO, 1024);
        let p = data_plan(vec![PlannedChunk {
            flow: f,
            seq: 0,
            frag: 0,
            offset: 0,
            len: 100,
        }]);
        assert_eq!(
            validate_plan(&p, &c, &caps(), 1 << 20),
            Err(PlanViolation::RndvBlocked)
        );
        // And the rendezvous request plan is valid.
        let rp = TransferPlan {
            channel: ChannelId(0),
            dst: NodeId(1),
            body: PlanBody::RndvRequest {
                flow: f,
                seq: 0,
                frag: 0,
            },
            strategy: "rndv",
        };
        assert_eq!(validate_plan(&rp, &c, &caps(), 1 << 20), Ok(()));
    }

    #[test]
    fn empty_and_zero_plans_rejected() {
        let (c, f) = setup(&[(100, PackMode::Cheaper)]);
        let p = data_plan(vec![]);
        assert_eq!(
            validate_plan(&p, &c, &caps(), 1 << 20),
            Err(PlanViolation::EmptyPlan)
        );
        let p = data_plan(vec![PlannedChunk {
            flow: f,
            seq: 0,
            frag: 0,
            offset: 0,
            len: 0,
        }]);
        assert_eq!(
            validate_plan(&p, &c, &caps(), 1 << 20),
            Err(PlanViolation::ZeroLengthChunk)
        );
    }

    #[test]
    fn wrong_rail_rejected_for_pinned_message() {
        let (mut c, f) = setup(&[(10, PackMode::Express), (50, PackMode::Cheaper)]);
        c.commit_chunk(
            &PlannedChunk {
                flow: f,
                seq: 0,
                frag: 0,
                offset: 0,
                len: 10,
            },
            ChannelId(3),
        );
        let p = data_plan(vec![PlannedChunk {
            flow: f,
            seq: 0,
            frag: 1,
            offset: 0,
            len: 50,
        }]);
        assert_eq!(
            validate_plan(&p, &c, &caps(), 1 << 20),
            Err(PlanViolation::WrongRail)
        );
    }

    /// The coverage [`validate_chunks`] kept before it walked a message at a
    /// time: one entry per fragment touched, found by a scan.
    #[derive(Default)]
    struct ScannedCoverage(Vec<((FlowId, u32, FragIndex), u32)>);

    impl ScannedCoverage {
        fn covered(&self, key: (FlowId, u32, FragIndex)) -> u32 {
            self.0.iter().find(|e| e.0 == key).map_or(0, |e| e.1)
        }

        fn entry(&mut self, key: (FlowId, u32, FragIndex)) -> &mut u32 {
            let at = self.0.iter().position(|e| e.0 == key).unwrap_or_else(|| {
                self.0.push((key, 0));
                self.0.len() - 1
            });
            &mut self.0[at].1
        }
    }

    /// [`validate_chunks`] as it read with a scanned coverage, verbatim:
    /// every chunk looks its message up, walks its earlier fragments and
    /// scans the plan's claims.
    fn scanned_validate_chunks(
        channel: ChannelId,
        dst: NodeId,
        chunks: &[PlannedChunk],
        collect: &CollectLayer,
        limit: u64,
    ) -> Result<(u64, u64), PlanViolation> {
        if chunks.is_empty() {
            return Err(PlanViolation::EmptyPlan);
        }
        let mut planned = ScannedCoverage::default();
        let mut payload = 0u64;
        let mut framing = Framing::new();
        for c in chunks {
            if c.len == 0 {
                return Err(PlanViolation::ZeroLengthChunk);
            }
            let (fs, msg) = collect
                .find(c.flow, c.seq)
                .ok_or(PlanViolation::UnknownChunk)?;
            if fs.dst != dst {
                return Err(PlanViolation::MixedDestinations);
            }
            if let Some(pin) = msg.pinned_rail {
                if pin != channel {
                    return Err(PlanViolation::WrongRail);
                }
            }
            let frag = msg
                .frags
                .get(c.frag as usize)
                .ok_or(PlanViolation::UnknownChunk)?;
            if frag.rndv_blocked() {
                return Err(PlanViolation::RndvBlocked);
            }
            for (i, earlier) in msg.frags.iter().enumerate() {
                if i as u16 >= c.frag {
                    break;
                }
                if earlier.mode != PackMode::Express || earlier.fully_committed() {
                    continue;
                }
                let covered = planned.covered((c.flow, c.seq, i as FragIndex));
                if earlier.committed() + covered < earlier.len() {
                    return Err(PlanViolation::ExpressOrder {
                        flow: c.flow,
                        frag: c.frag,
                        open_express: i as FragIndex,
                    });
                }
            }
            let already = planned.entry((c.flow, c.seq, c.frag));
            let expected = frag.committed() + *already;
            if c.offset != expected {
                return Err(PlanViolation::NonContiguous {
                    flow: c.flow,
                    frag: c.frag,
                    expected,
                    got: c.offset,
                });
            }
            if u64::from(c.offset) + u64::from(c.len) > u64::from(frag.len()) {
                return Err(PlanViolation::Overrun);
            }
            *already += c.len;
            payload += c.len as u64;
            framing.push(&chunk_header(fs, c.seq, msg, c));
        }
        let total = payload + framing.bytes();
        if total > limit {
            return Err(PlanViolation::OverSize {
                bytes: total,
                limit,
            });
        }
        Ok((payload, total))
    }

    #[test]
    fn interleaved_lists_get_the_verdict_of_the_scanned_coverage() {
        // Three flows to node 1 and one to node 2, two messages each, of
        // three fragments whose sizes and offsets are multiples of 8, so
        // that random chunks often land on a fragment's frontier. Some
        // fragments are express, some partly committed, one needs a
        // rendezvous; flow 2's first message is pinned to rail 3.
        let mut c = CollectLayer::new();
        let flows: Vec<FlowId> = (0..4u32)
            .map(|f| c.open_flow(NodeId(1 + f / 3), TrafficClass::DEFAULT))
            .collect();
        let mode = |express: bool| {
            if express {
                PackMode::Express
            } else {
                PackMode::Cheaper
            }
        };
        let mut keys = Vec::new();
        for (i, &flow) in flows.iter().enumerate() {
            for seq in 0..2u32 {
                let k = i as u32 * 2 + seq;
                let last = if k == 5 { 2048 } else { 32 };
                let sizes = [
                    (16, mode(k.is_multiple_of(2))),
                    (24, mode(k.is_multiple_of(3))),
                    (last, PackMode::Cheaper),
                ];
                c.submit(flow, parts(&sizes), SimTime::ZERO, 1024);
                keys.push((flow, seq));
            }
        }
        keys.push((flows[0], 7)); // never submitted
        let commit = |c: &mut CollectLayer, (flow, seq): (FlowId, u32), frag, len, rail| {
            let chunk = PlannedChunk {
                flow,
                seq,
                frag,
                offset: 0,
                len,
            };
            c.commit_chunk(&chunk, ChannelId(rail));
        };
        commit(&mut c, keys[0], 0, 8, 0);
        commit(&mut c, keys[2], 2, 16, 0);
        commit(&mut c, keys[3], 1, 16, 0);
        commit(&mut c, keys[4], 0, 16, 3);

        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |below: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % below
        };
        let mut planned = PlanCoverage::default();
        let (mut valid, mut revisits, mut express, mut contiguity) = (0, 0, 0, 0);
        for case in 0..20_000 {
            // Chunks at their fragment's frontier — of the message before,
            // or of one of two or three messages the case keeps returning
            // to — most of the time; now and then a chunk anywhere. Runs of
            // one message, returns to it and stray chunks all occur.
            let mut list: Vec<PlannedChunk> = Vec::new();
            let favourites: Vec<_> = (0..2 + draw(2))
                .map(|_| keys[draw(keys.len() as u64) as usize])
                .collect();
            for _ in 0..1 + draw(12) {
                let len = 8 * (1 + draw(3) as u32);
                let (flow, seq) = match (list.last(), draw(8)) {
                    (Some(p), 0..=2) => (p.flow, p.seq),
                    (_, 7) => keys[draw(keys.len() as u64) as usize],
                    _ => favourites[draw(favourites.len() as u64) as usize],
                };
                let claimed = |list: &[PlannedChunk], frag| -> u32 {
                    let mine = |p: &&PlannedChunk| (p.flow, p.seq, p.frag) == (flow, seq, frag);
                    list.iter().filter(mine).map(|p| p.len).sum()
                };
                // Mostly the first fragment with bytes left, else any.
                let msg = c.find_msg(flow, seq);
                let first_open = msg.and_then(|m| {
                    (0..m.frags.len() as FragIndex).find(|&i| {
                        let f = &m.frags[i as usize];
                        f.committed() + claimed(&list, i) < f.len()
                    })
                });
                let frag = match first_open {
                    Some(i) if draw(4) != 0 => i,
                    _ => draw(4) as FragIndex,
                };
                let frontier = msg.and_then(|m| m.frags.get(frag as usize));
                let chunk = match frontier {
                    Some(f) if draw(8) != 0 => {
                        let offset = f.committed() + claimed(&list, frag);
                        PlannedChunk {
                            flow,
                            seq,
                            frag,
                            offset,
                            len: len.min(f.len().saturating_sub(offset)).max(1),
                        }
                    }
                    _ => PlannedChunk {
                        flow,
                        seq,
                        frag,
                        offset: 8 * draw(3) as u32,
                        len,
                    },
                };
                list.push(chunk);
            }
            let limit = if case % 5 == 0 { 120 } else { 1 << 20 };
            let (rail, dst) = (ChannelId(0), NodeId(1));
            let want = scanned_validate_chunks(rail, dst, &list, &c, limit).map(|(_, bytes)| bytes);
            let got = validate_chunks(rail, dst, &list, &c, limit, &mut planned);
            assert_eq!(got, want, "case {case}: {list:?}");
            let came_back = list.iter().enumerate().any(|(i, a)| {
                let key = |c: &PlannedChunk| (c.flow, c.seq);
                i > 1
                    && list[..i - 1].iter().any(|b| key(b) == key(a))
                    && key(&list[i - 1]) != key(a)
            });
            valid += usize::from(want.is_ok());
            revisits += usize::from(want.is_ok() && came_back);
            express += usize::from(matches!(want, Err(PlanViolation::ExpressOrder { .. })));
            contiguity += usize::from(matches!(want, Err(PlanViolation::NonContiguous { .. })));
        }
        assert!(
            valid > 1000 && revisits > 50 && express > 500 && contiguity > 500,
            "{valid} valid, {revisits} of them coming back to a message, \
             {express} express-order and {contiguity} contiguity verdicts"
        );
    }
}

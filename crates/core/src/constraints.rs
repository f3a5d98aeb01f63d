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

use nicdrv::DriverCapabilities;

use simnet::NodeId;

use crate::collect::{CollectLayer, RndvState};
use crate::cost::{injectable, packet_limit};
use crate::ids::{ChannelId, FlowId, FragIndex};
use crate::message::PackMode;
use crate::plan::{Body, PlanRef, PlannedChunk, TransferPlan};
use crate::proto::Framing;

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

/// Bytes of each fragment claimed by the chunks of one plan seen so far,
/// so that a later chunk may rely on an earlier chunk of the same packet.
/// A selection pass reuses one across all its proposals.
#[derive(Debug, Default)]
pub(crate) struct PlanCoverage(Vec<((FlowId, u32, FragIndex), u32)>);

impl PlanCoverage {
    // madlint: allow(linear-scan) — one entry per fragment the plan
    // touches: at most `agg_chunk_limit` for every built-in strategy
    fn covered(&self, key: (FlowId, u32, FragIndex)) -> u32 {
        self.0.iter().find(|e| e.0 == key).map_or(0, |e| e.1)
    }

    // madlint: allow(linear-scan) — same bound as `covered`
    fn entry(&mut self, key: (FlowId, u32, FragIndex)) -> &mut u32 {
        let at = self.0.iter().position(|e| e.0 == key).unwrap_or_else(|| {
            self.0.push((key, 0));
            self.0.len() - 1
        });
        &mut self.0[at].1
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
            validate_request(plan.dst, (flow, seq, frag), collect)
        }
        Body::Data { chunks, linearize } => {
            let limit = packet_limit(caps, wire_mtu);
            let (_, bytes) =
                validate_chunks(plan.channel, plan.dst, chunks, collect, limit, planned)?;
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
pub(crate) fn validate_request(
    dst: NodeId,
    (flow, seq, frag): (FlowId, u32, FragIndex),
    collect: &CollectLayer,
) -> Result<(), PlanViolation> {
    let msg = collect
        .find_msg(flow, seq)
        .ok_or(PlanViolation::UnknownChunk)?;
    if msg.dst != dst {
        return Err(PlanViolation::MixedDestinations);
    }
    let f = msg
        .frags
        .get(frag as usize)
        .ok_or(PlanViolation::UnknownChunk)?;
    if f.rndv != RndvState::NeedRequest {
        return Err(PlanViolation::RndvNotNeeded);
    }
    Ok(())
}

/// What a data packet of `chunks` toward `dst` on rail `channel` must
/// satisfy whichever way it is injected: every chunk names live, unpinned
/// (or pinned here), ungated bytes at its fragment's frontier, in an order
/// the express constraints allow, and the packet fits `limit` bytes (the
/// rail's [`packet_limit`]). Returns the packet's payload bytes and its
/// bytes on the wire — payload and the framing this list has, counted on
/// the walk that checks it; `planned` is cleared here.
pub(crate) fn validate_chunks(
    channel: ChannelId,
    dst: NodeId,
    chunks: &[PlannedChunk],
    collect: &CollectLayer,
    limit: u64,
    planned: &mut PlanCoverage,
) -> Result<(u64, u64), PlanViolation> {
    if chunks.is_empty() {
        return Err(PlanViolation::EmptyPlan);
    }
    planned.0.clear();
    let mut payload = 0u64;
    let mut framing = Framing::new();
    for c in chunks {
        if c.len == 0 {
            return Err(PlanViolation::ZeroLengthChunk);
        }
        let msg = collect
            .find_msg(c.flow, c.seq)
            .ok_or(PlanViolation::UnknownChunk)?;
        if msg.dst != dst {
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
        // Express gating: every earlier express fragment must be
        // fully committed or fully covered earlier in this plan.
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
        // Widen before adding: a hostile `len` near `u32::MAX`
        // must report Overrun, not overflow.
        if u64::from(c.offset) + u64::from(c.len) > u64::from(frag.len()) {
            return Err(PlanViolation::Overrun);
        }
        *already += c.len;
        payload += c.len as u64;
        framing.push(c.flow, c.seq, c.offset);
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
}

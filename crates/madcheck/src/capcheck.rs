//! The capability-check pass: a second, independent verdict on every plan.
//!
//! `validate_plan` already rejects plans the collect-layer state forbids;
//! this pass re-derives the *hardware* limits straight from
//! [`DriverCapabilities`] — maximum gather entries, MTU and driver packet
//! ceilings, and the eager/rendezvous threshold policy — so a bug in
//! either checker is caught by disagreement with the other (the property
//! tests assert the overlap, the analyzer runs both).
//!
//! It is also the independent verdict on the engine's injection decision:
//! a strategy proposes a chunk list and `madeleine::cost::cheapest_injection`
//! chooses how it goes out, so the analyzer hands this pass every list *in
//! the form that function picked*. The rule here — PIO up to its size cap,
//! DMA up to its gather width, one segment after a copy — is spelled from
//! the capability fields and shares no code with `cost.rs`. Nor does the
//! packet's size share any with `proto.rs`: [`wire_bytes`] counts the
//! fields of the wire format itself, so it is the independent verdict on
//! `proto::framing_of` too.

use madeleine::collect::{CollectLayer, RndvState};
use madeleine::plan::{PlanBody, TransferPlan};
use madeleine::proto::ChunkHeader;
use nicdrv::DriverCapabilities;

/// Bytes a data packet of chunks under `headers` is on the wire, from the
/// format's definition: a 2-byte count, then for each chunk its payload
/// and a header of
/// - a tag byte;
/// - unless the header before it has the same flow, sequence, fragment
///   count, class and submission time: the flow, the sequence and the
///   fragment count as varints (7 bits a byte), the class byte, and the
///   submission time as a varint — itself in the packet's first header,
///   in a later one the zigzag of its difference (mod 2^64) from the
///   header's before it;
/// - the fragment index and length as varints;
/// - the offset as a varint, unless it is 0;
/// - the chunk length in 4 bytes, unless the chunk ends where its
///   fragment does.
pub fn wire_bytes(headers: &[ChunkHeader]) -> u64 {
    let varint = |v: u64| {
        let mut bytes = 1;
        let mut rest = v >> 7;
        while rest != 0 {
            bytes += 1;
            rest >>= 7;
        }
        bytes
    };
    let message = |h: &ChunkHeader| (h.flow, h.msg_seq, h.frag_count, h.class, h.submit_ns);
    let mut bytes = 2;
    let mut before: Option<&ChunkHeader> = None;
    for h in headers {
        bytes += 1;
        if before.map(message) != Some(message(h)) {
            let submit = match before {
                None => h.submit_ns,
                Some(b) => {
                    let d = h.submit_ns.wrapping_sub(b.submit_ns) as i64;
                    if d >= 0 {
                        2 * d as u64
                    } else {
                        2 * !(d as u64) + 1
                    }
                }
            };
            bytes += varint(h.flow.0.into())
                + varint(h.msg_seq.into())
                + varint(h.frag_count.into())
                + 1
                + varint(submit);
        }
        bytes += varint(h.frag_index.into()) + varint(h.frag_len.into());
        if h.offset != 0 {
            bytes += varint(h.offset.into());
        }
        if u64::from(h.offset) + u64::from(h.chunk_len) != u64::from(h.frag_len) {
            bytes += 4;
        }
        bytes += u64::from(h.chunk_len);
        before = Some(h);
    }
    bytes
}

/// A plan/capability mismatch found by the capability pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CapViolation {
    /// Payload + framing exceeds the rail's wire MTU.
    PacketExceedsMtu {
        /// Total packet bytes.
        bytes: u64,
        /// Wire MTU.
        mtu: u64,
    },
    /// Payload + framing exceeds the driver's per-request ceiling.
    PacketExceedsDriverLimit {
        /// Total packet bytes.
        bytes: u64,
        /// Driver limit.
        limit: u64,
    },
    /// Zero-copy plan needs more gather entries than the hardware has and
    /// is too large to stream via PIO.
    GatherTooWide {
        /// Segments the plan needs (header block + chunks).
        segs: usize,
        /// Hardware gather entries (0 when DMA is unsupported).
        max: usize,
    },
    /// A linearized plan that no injection path (PIO or DMA) accepts.
    NoInjectionPath {
        /// Total packet bytes.
        bytes: u64,
    },
    /// An eager data chunk belongs to a fragment at or above the
    /// rendezvous threshold that never entered the handshake — the
    /// threshold policy was bypassed at submission.
    EagerAboveRndvThreshold {
        /// Fragment length.
        len: u64,
        /// Effective threshold.
        threshold: u64,
    },
    /// A rendezvous request for a fragment below the threshold — the
    /// handshake round-trip is pure overhead there.
    RequestBelowThreshold {
        /// Fragment length.
        len: u64,
        /// Effective threshold.
        threshold: u64,
    },
}

impl std::fmt::Display for CapViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapViolation::PacketExceedsMtu { bytes, mtu } => {
                write!(f, "packet of {bytes} bytes exceeds wire MTU {mtu}")
            }
            CapViolation::PacketExceedsDriverLimit { bytes, limit } => {
                write!(f, "packet of {bytes} bytes exceeds driver limit {limit}")
            }
            CapViolation::GatherTooWide { segs, max } => {
                write!(f, "gather list of {segs} segments exceeds hardware limit {max}")
            }
            CapViolation::NoInjectionPath { bytes } => {
                write!(f, "no injection path accepts a {bytes}-byte linearized packet")
            }
            CapViolation::EagerAboveRndvThreshold { len, threshold } => write!(
                f,
                "eager chunk of a {len}-byte fragment at/above the {threshold}-byte rendezvous threshold"
            ),
            CapViolation::RequestBelowThreshold { len, threshold } => write!(
                f,
                "rendezvous request for a {len}-byte fragment below the {threshold}-byte threshold"
            ),
        }
    }
}

impl std::error::Error for CapViolation {}

/// Check one plan against the raw driver capabilities and the effective
/// rendezvous threshold, a data packet sized under the headers its
/// messages in `collect` give its chunks. Chunks referencing unknown
/// messages are skipped, and leave a packet unsized — `validate_plan` owns
/// that class of error.
pub fn check_plan_caps(
    plan: &TransferPlan,
    collect: &CollectLayer,
    caps: &DriverCapabilities,
    wire_mtu: u64,
    rndv_threshold: u64,
) -> Result<(), CapViolation> {
    match &plan.body {
        PlanBody::RndvRequest { flow, seq, frag } => {
            if let Some(msg) = collect.find_msg(*flow, *seq) {
                if let Some(f) = msg.frags.get(*frag as usize) {
                    let len = u64::from(f.len());
                    if len < rndv_threshold {
                        return Err(CapViolation::RequestBelowThreshold {
                            len,
                            threshold: rndv_threshold,
                        });
                    }
                }
            }
            Ok(())
        }
        PlanBody::Data { chunks, linearize } => {
            let headers: Option<Vec<_>> = chunks.iter().map(|c| collect.header(c)).collect();
            if let Some(headers) = headers {
                check_packet_caps(&headers, *linearize, caps, wire_mtu)?;
            }
            for c in chunks {
                let Some(msg) = collect.find_msg(c.flow, c.seq) else {
                    continue;
                };
                let Some(f) = msg.frags.get(c.frag as usize) else {
                    continue;
                };
                let len = u64::from(f.len());
                if f.rndv == RndvState::Eager && len >= rndv_threshold {
                    return Err(CapViolation::EagerAboveRndvThreshold {
                        len,
                        threshold: rndv_threshold,
                    });
                }
            }
            Ok(())
        }
    }
}

/// The size and injection checks of a data packet of chunks under
/// `headers`, injected by copy (`linearize`) or as a gather list.
fn check_packet_caps(
    headers: &[ChunkHeader],
    linearize: bool,
    caps: &DriverCapabilities,
    wire_mtu: u64,
) -> Result<(), CapViolation> {
    let bytes = wire_bytes(headers);
    if bytes > wire_mtu {
        return Err(CapViolation::PacketExceedsMtu {
            bytes,
            mtu: wire_mtu,
        });
    }
    if bytes > caps.max_packet_bytes {
        return Err(CapViolation::PacketExceedsDriverLimit {
            bytes,
            limit: caps.max_packet_bytes,
        });
    }
    let pio_ok = caps.can_pio(bytes);
    if linearize {
        // One segment after the copy; some path must still take it.
        if !pio_ok && !caps.supports_dma {
            return Err(CapViolation::NoInjectionPath { bytes });
        }
    } else {
        let segs = 1 + headers.len();
        if !pio_ok {
            // The DMA gather path is the only option left.
            if !caps.can_gather(segs) {
                let max = if caps.supports_dma {
                    caps.max_gather_entries
                } else {
                    0
                };
                return Err(CapViolation::GatherTooWide { segs, max });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backlog::{BacklogSpec, FragSpec, MsgSpec, RndvPhase, ANALYZED_RAIL};
    use madeleine::ids::FlowId;
    use madeleine::plan::PlannedChunk;
    use nicdrv::calib;
    use simnet::NodeId;

    fn spec(frag_lens: &[u32]) -> BacklogSpec {
        BacklogSpec {
            msgs: vec![MsgSpec {
                dst: 0,
                class: 0,
                frags: frag_lens
                    .iter()
                    .map(|&len| FragSpec {
                        len,
                        express: false,
                    })
                    .collect(),
                precommit: 0,
                rndv_phase: RndvPhase::Pending,
            }],
            rndv_threshold: 1 << 30,
        }
    }

    fn plan_of(chunks: Vec<PlannedChunk>, linearize: bool) -> TransferPlan {
        TransferPlan {
            channel: ANALYZED_RAIL,
            dst: NodeId(1),
            body: PlanBody::Data { chunks, linearize },
            strategy: "test",
        }
    }

    fn chunk(flow: u32, frag: u16, offset: u32, len: u32) -> PlannedChunk {
        PlannedChunk {
            flow: FlowId(flow),
            seq: 0,
            frag,
            offset,
            len,
        }
    }

    #[test]
    fn accepts_conforming_plan() {
        let s = spec(&[100]);
        let c = s.build();
        let caps = calib::synthetic_capabilities();
        let p = plan_of(vec![chunk(0, 0, 0, 100)], false);
        assert_eq!(check_plan_caps(&p, &c, &caps, 1 << 20, 1 << 30), Ok(()));
    }

    #[test]
    fn rejects_mtu_and_driver_limit() {
        let s = spec(&[8192]);
        let c = s.build();
        let caps = calib::synthetic_capabilities();
        let p = plan_of(vec![chunk(0, 0, 0, 8192)], false);
        assert!(matches!(
            check_plan_caps(&p, &c, &caps, 1000, 1 << 30),
            Err(CapViolation::PacketExceedsMtu { .. })
        ));
        let mut tight = caps.clone();
        tight.max_packet_bytes = 1000;
        assert!(matches!(
            check_plan_caps(&p, &c, &tight, 1 << 20, 1 << 30),
            Err(CapViolation::PacketExceedsDriverLimit { .. })
        ));
    }

    #[test]
    fn rejects_wide_gather() {
        let s = spec(&[2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048]);
        let c = s.build();
        let caps = calib::synthetic_capabilities();
        // 9 chunks + header = 10 segments > 8 entries, 18 KiB > 4 KiB PIO.
        let chunks: Vec<_> = (0..9).map(|i| chunk(0, i, 0, 2048)).collect();
        let p = plan_of(chunks, false);
        assert!(matches!(
            check_plan_caps(&p, &c, &caps, 1 << 20, 1 << 30),
            Err(CapViolation::GatherTooWide { segs: 10, max: 8 })
        ));
    }

    #[test]
    fn rejects_threshold_policy_drift() {
        // Backlog submitted with a huge threshold, checked with a small
        // one: the eager fragment should have entered the handshake.
        let s = spec(&[4096]);
        let c = s.build();
        let caps = calib::synthetic_capabilities();
        let p = plan_of(vec![chunk(0, 0, 0, 4096)], false);
        assert!(matches!(
            check_plan_caps(&p, &c, &caps, 1 << 20, 1024),
            Err(CapViolation::EagerAboveRndvThreshold {
                len: 4096,
                threshold: 1024
            })
        ));
        // And the inverse: a request for a fragment below the threshold.
        let mut gated = spec(&[4096]);
        gated.rndv_threshold = 1024;
        let c = gated.build();
        let req = TransferPlan {
            channel: ANALYZED_RAIL,
            dst: NodeId(1),
            body: PlanBody::RndvRequest {
                flow: FlowId(0),
                seq: 0,
                frag: 0,
            },
            strategy: "test",
        };
        assert!(matches!(
            check_plan_caps(&req, &c, &caps, 1 << 20, 1 << 20),
            Err(CapViolation::RequestBelowThreshold { .. })
        ));
    }
}

//! Conformance rule for madrel retransmissions: every packet that
//! [`plan_retransmit`] re-segments for a rail must respect that rail's
//! declared [`DriverCapabilities`] — PIO size cap, gather width, driver
//! packet ceiling and wire MTU — and must cover exactly the byte ranges of
//! the timed-out packet (no loss, no overlap, no reordering).
//!
//! Like [`crate::capcheck`], the verdict here is re-derived independently
//! from the capability struct rather than trusting the planner's own
//! arithmetic, so a bug in either side is caught by disagreement. The
//! sweep replays a seeded corpus of pending-chunk shapes against every
//! capability profile.

use madeleine::ids::FlowId;
use madeleine::plan::PlannedChunk;
use madeleine::proto::wire_bytes;
use madeleine::reliability::plan_retransmit;
use nicdrv::{calib, DriverCapabilities};
use simnet::SplitMix64;

use crate::analyzer::profiles;
use crate::report::SweepReport;

/// A retransmission packet that violates the target rail's capabilities,
/// or a re-segmentation that corrupts the byte coverage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetxViolation {
    /// A packet with no chunks, or a chunk with no bytes.
    EmptyPacket,
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
    /// A PIO-only driver was handed a packet its PIO window cannot stream.
    PioOverflow {
        /// Total packet bytes.
        bytes: u64,
        /// PIO window size.
        cap: u64,
    },
    /// More chunks per packet than the hardware gather list (or than the
    /// single segment a PIO-only driver can take).
    GatherTooWide {
        /// Chunks in the packet.
        chunks: usize,
        /// Maximum chunks the rail accepts per packet.
        max: usize,
    },
    /// The re-segmented packets do not tile the original byte ranges
    /// exactly, in order.
    CoverageMismatch {
        /// Offending flow.
        flow: FlowId,
        /// Offending fragment.
        frag: u16,
        /// Byte offset where the tiling diverged.
        offset: u32,
    },
}

impl std::fmt::Display for RetxViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetxViolation::EmptyPacket => write!(f, "empty retransmission packet or chunk"),
            RetxViolation::PacketExceedsMtu { bytes, mtu } => {
                write!(f, "retransmit packet of {bytes} bytes exceeds wire MTU {mtu}")
            }
            RetxViolation::PacketExceedsDriverLimit { bytes, limit } => {
                write!(f, "retransmit packet of {bytes} bytes exceeds driver limit {limit}")
            }
            RetxViolation::PioOverflow { bytes, cap } => write!(
                f,
                "retransmit packet of {bytes} bytes exceeds the {cap}-byte PIO window of a DMA-less driver"
            ),
            RetxViolation::GatherTooWide { chunks, max } => {
                write!(f, "retransmit packet carries {chunks} chunks, rail accepts {max}")
            }
            RetxViolation::CoverageMismatch { flow, frag, offset } => write!(
                f,
                "{flow} frag {frag}: retransmission coverage diverges at offset {offset}"
            ),
        }
    }
}

impl std::error::Error for RetxViolation {}

/// Maximum chunks one retransmission packet may carry on this rail: the
/// gather list minus the header block entry, or a single chunk when the
/// driver cannot DMA (PIO streams one segment).
pub fn max_chunks_per_packet(caps: &DriverCapabilities) -> usize {
    if caps.supports_dma && caps.max_gather_entries > 1 {
        caps.max_gather_entries - 1
    } else {
        1
    }
}

/// Verify a re-segmentation (`packets`) of `input` against the rail's
/// capabilities. Checks are re-derived from `caps` independently of
/// [`plan_retransmit`]'s internal arithmetic.
pub fn verify_packets(
    input: &[PlannedChunk],
    packets: &[Vec<PlannedChunk>],
    caps: &DriverCapabilities,
    wire_mtu: u64,
) -> Result<(), RetxViolation> {
    let max_chunks = max_chunks_per_packet(caps);
    for packet in packets {
        if packet.is_empty() || packet.iter().any(|c| c.len == 0) {
            return Err(RetxViolation::EmptyPacket);
        }
        if packet.len() > max_chunks {
            return Err(RetxViolation::GatherTooWide {
                chunks: packet.len(),
                max: max_chunks,
            });
        }
        let bytes = wire_bytes(packet);
        if bytes > wire_mtu {
            return Err(RetxViolation::PacketExceedsMtu {
                bytes,
                mtu: wire_mtu,
            });
        }
        if bytes > caps.max_packet_bytes {
            return Err(RetxViolation::PacketExceedsDriverLimit {
                bytes,
                limit: caps.max_packet_bytes,
            });
        }
        if !caps.supports_dma && !caps.can_pio(bytes) {
            return Err(RetxViolation::PioOverflow {
                bytes,
                cap: caps.pio_max_bytes,
            });
        }
    }
    // Coverage: the flattened output must tile the input ranges exactly,
    // in order — every lost or duplicated byte is a reliability bug.
    let mut out = packets.iter().flatten();
    let mut cursor: Option<(PlannedChunk, u32)> = None; // (output chunk, consumed)
    for want in input {
        let mut covered = 0u32;
        while covered < want.len {
            let (piece, consumed) = match cursor.take() {
                Some(p) => p,
                None => match out.next() {
                    Some(c) => (c.clone(), 0),
                    None => {
                        return Err(RetxViolation::CoverageMismatch {
                            flow: want.flow,
                            frag: want.frag,
                            offset: want.offset + covered,
                        })
                    }
                },
            };
            let same_frag =
                piece.flow == want.flow && piece.seq == want.seq && piece.frag == want.frag;
            if !same_frag || piece.offset + consumed != want.offset + covered {
                return Err(RetxViolation::CoverageMismatch {
                    flow: want.flow,
                    frag: want.frag,
                    offset: want.offset + covered,
                });
            }
            let take = (piece.len - consumed).min(want.len - covered);
            covered += take;
            if consumed + take < piece.len {
                cursor = Some((piece, consumed + take));
            }
        }
    }
    if cursor.is_some() || out.next().is_some() {
        // Trailing bytes the input never asked for.
        return Err(RetxViolation::CoverageMismatch {
            flow: input.last().map(|c| c.flow).unwrap_or(FlowId(0)),
            frag: input.last().map(|c| c.frag).unwrap_or(0),
            offset: input.last().map(|c| c.offset + c.len).unwrap_or(0),
        });
    }
    Ok(())
}

/// Run [`plan_retransmit`] on `input` for this rail and verify its output;
/// returns the packet count on success.
pub fn check_retransmit(
    input: &[PlannedChunk],
    caps: &DriverCapabilities,
    wire_mtu: u64,
) -> Result<usize, RetxViolation> {
    let packets = plan_retransmit(input, caps, wire_mtu);
    verify_packets(input, &packets, caps, wire_mtu)?;
    Ok(packets.len())
}

fn chunk(flow: u32, seq: u32, frag: u16, offset: u32, len: u32) -> PlannedChunk {
    PlannedChunk {
        flow: FlowId(flow),
        seq,
        frag,
        offset,
        len,
    }
}

/// Fixed edge-case pending-chunk shapes for one profile.
fn templates(caps: &DriverCapabilities, wire_mtu: u64) -> Vec<Vec<PlannedChunk>> {
    let pio = caps.pio_max_bytes.clamp(2, u64::from(u32::MAX)) as u32;
    let mtu = wire_mtu.clamp(2, u64::from(u32::MAX)) as u32;
    vec![
        // Singleton small chunk.
        vec![chunk(0, 0, 0, 0, 64)],
        // Many small chunks: gather-width pressure on re-segmentation.
        (0..24).map(|i| chunk(i, 0, 0, 0, 32)).collect(),
        // One chunk larger than any single packet: must be split.
        vec![chunk(0, 0, 0, 0, mtu.saturating_mul(2).max(2))],
        // PIO boundary straddle.
        vec![chunk(0, 0, 0, 0, pio - 1), chunk(1, 0, 0, 0, 7)],
        // Mid-fragment offsets (a packet that carried a transfer tail).
        vec![chunk(0, 3, 1, 4096, 1500), chunk(0, 3, 2, 0, 64)],
        // Odd offsets survive re-segmentation byte-exactly.
        vec![chunk(0, 0, 0, 37, 1000)],
    ]
}

/// Sweep [`plan_retransmit`] over every capability profile with templates
/// plus `samples` seeded pending-chunk shapes per profile. Deterministic
/// for a given seed.
pub fn retx_sweep(seed: u64, samples: usize) -> SweepReport {
    // Findings are the first violation per profile.
    let mut report = SweepReport::new(
        "retx",
        "every retransmission respects the target driver's capabilities",
        &[
            "profiles",
            "pending-chunk shapes",
            "retransmit packets checked",
        ],
    );
    for (ti, tech) in profiles().into_iter().enumerate() {
        let caps = calib::capabilities(tech);
        let wire_mtu = calib::params(tech).mtu;
        report.add("profiles", 1);
        let mut shapes = templates(&caps, wire_mtu);
        let mut rng = SplitMix64::new(
            seed.wrapping_add(ti as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let pio = caps.pio_max_bytes.clamp(2, 1 << 20) as u32;
        let mtu32 = wire_mtu.clamp(2, 1 << 20) as u32;
        let palette = [1u32, 7, 64, 300, pio - 1, pio, pio + 1, mtu32 / 2, mtu32];
        for _ in 0..samples {
            let n = 1 + rng.next_below(6) as usize;
            shapes.push(
                (0..n)
                    .map(|i| {
                        chunk(
                            rng.next_below(3) as u32,
                            rng.next_below(2) as u32,
                            i as u16,
                            rng.next_below(5000) as u32,
                            palette[rng.next_below(palette.len() as u64) as usize],
                        )
                    })
                    .collect(),
            );
        }
        let mut hit = false;
        for input in &shapes {
            report.add("pending-chunk shapes", 1);
            match check_retransmit(input, &caps, wire_mtu) {
                Ok(n) => report.add("retransmit packets checked", n),
                Err(violation) if !hit => {
                    hit = true; // one finding per profile keeps reports short
                    report.findings.push(format!(
                        "on {tech:?}\n  defect: {violation}\n  pending chunks: {input:?}"
                    ));
                }
                Err(_) => {}
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_clean_on_all_profiles() {
        let r = retx_sweep(0xAD_5EED, 64);
        assert!(r.is_clean(), "{r}");
        assert!(
            r.count("retransmit packets checked") > r.count("pending-chunk shapes") / 2,
            "sweep must actually emit packets"
        );
        assert_eq!(r.count("profiles"), profiles().len());
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = retx_sweep(9, 32);
        let b = retx_sweep(9, 32);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn pio_only_driver_forces_single_chunk_pio_packets() {
        let mut caps = calib::synthetic_capabilities();
        caps.supports_dma = false;
        caps.pio_max_bytes = 256;
        let input = vec![chunk(0, 0, 0, 0, 4096), chunk(1, 0, 0, 0, 700)];
        let n = check_retransmit(&input, &caps, 1 << 16).expect("conformant");
        assert!(
            n >= 20,
            "256-byte PIO window must fan out many packets, got {n}"
        );
    }

    #[test]
    fn verifier_rejects_oversized_packet() {
        let caps = calib::synthetic_capabilities();
        let input = vec![chunk(0, 0, 0, 0, 1 << 20)];
        // A fake "planner" that never split the chunk.
        let packets = vec![input.clone()];
        assert!(matches!(
            verify_packets(&input, &packets, &caps, 1500),
            Err(RetxViolation::PacketExceedsMtu { .. })
        ));
    }

    #[test]
    fn verifier_rejects_wide_gather() {
        let mut caps = calib::synthetic_capabilities();
        caps.max_gather_entries = 3;
        let input: Vec<_> = (0..4).map(|i| chunk(i, 0, 0, 0, 8)).collect();
        let packets = vec![input.clone()]; // 4 chunks > 2 allowed
        assert!(matches!(
            verify_packets(&input, &packets, &caps, 1 << 16),
            Err(RetxViolation::GatherTooWide { chunks: 4, max: 2 })
        ));
    }

    #[test]
    fn verifier_rejects_lost_and_duplicated_bytes() {
        let caps = calib::synthetic_capabilities();
        let input = vec![chunk(0, 0, 0, 0, 100)];
        let short = vec![vec![chunk(0, 0, 0, 0, 60)]];
        assert!(matches!(
            verify_packets(&input, &short, &caps, 1 << 16),
            Err(RetxViolation::CoverageMismatch { offset: 60, .. })
        ));
        let dup = vec![vec![chunk(0, 0, 0, 0, 100)], vec![chunk(0, 0, 0, 0, 100)]];
        assert!(matches!(
            verify_packets(&input, &dup, &caps, 1 << 16),
            Err(RetxViolation::CoverageMismatch { .. })
        ));
        let skewed = vec![vec![chunk(0, 0, 0, 50, 100)]];
        assert!(matches!(
            verify_packets(&input, &skewed, &caps, 1 << 16),
            Err(RetxViolation::CoverageMismatch { offset: 0, .. })
        ));
    }
}

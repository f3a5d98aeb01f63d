//! Bounded-exhaustive backlog corpus: fixed edge-case templates plus a
//! seeded sampled tail.
//!
//! The corpus is deterministic — same seed, same capability profile, same
//! corpus — so a finding reported by CI reproduces locally byte-for-byte.
//! Templates pin the shapes that historically break schedulers (gather
//! pressure, express gating, mid-transfer frontiers, handshake phases);
//! the sampled tail walks the wider product space of flow counts, sizes,
//! classes and pack modes.

use nicdrv::DriverCapabilities;
use simnet::SplitMix64;

use crate::backlog::{BacklogSpec, FragSpec, MsgSpec, RndvPhase};

fn msg(dst: u8, class: u8, frags: Vec<FragSpec>) -> MsgSpec {
    MsgSpec {
        dst,
        class,
        frags,
        precommit: 0,
        rndv_phase: RndvPhase::Pending,
    }
}

fn cheaper(len: u32) -> FragSpec {
    FragSpec {
        len,
        express: false,
    }
}

fn express(len: u32) -> FragSpec {
    FragSpec { len, express: true }
}

/// Edge-case templates for one capability profile.
fn templates(rndv_threshold: u64, caps: &DriverCapabilities, wire_mtu: u64) -> Vec<BacklogSpec> {
    let thr = rndv_threshold;
    let spec = |msgs: Vec<MsgSpec>| BacklogSpec {
        msgs,
        rndv_threshold: thr,
    };
    let pio = caps.pio_max_bytes.min(u64::from(u32::MAX) - 1) as u32;
    let big_eager = (thr.saturating_sub(1))
        .min(wire_mtu / 2)
        .min(u64::from(u32::MAX))
        .max(1) as u32;
    let mut out = vec![
        // Singleton and the aggregation bread-and-butter.
        spec(vec![msg(0, 0, vec![cheaper(64)])]),
        spec((0..4).map(|_| msg(0, 0, vec![cheaper(64)])).collect()),
        // Express header gating a body.
        spec(vec![msg(0, 0, vec![express(16), cheaper(512)])]),
        // Middle-express sandwich.
        spec(vec![msg(
            0,
            2,
            vec![cheaper(128), express(8), cheaper(128)],
        )]),
        // Gather-width pressure: more small flows than any gather list.
        spec(
            (0..12)
                .map(|_| msg(0, 0, vec![cheaper(1024.min(big_eager))]))
                .collect(),
        ),
        // Mid-transfer frontier on a large fragment.
        spec(vec![MsgSpec {
            dst: 0,
            class: 0,
            frags: vec![cheaper(big_eager.max(64))],
            precommit: 37,
            rndv_phase: RndvPhase::Pending,
        }]),
        // Two destinations with interleaved classes.
        spec(vec![
            msg(0, 1, vec![cheaper(256)]),
            msg(1, 3, vec![cheaper(32)]),
            msg(0, 0, vec![cheaper(700)]),
        ]),
        // PIO boundary straddle.
        spec(vec![
            msg(0, 0, vec![cheaper(pio.max(2) - 1)]),
            msg(0, 0, vec![cheaper(7)]),
        ]),
    ];
    // Rendezvous handshake phases, when the profile has a finite threshold.
    if thr < u64::from(u32::MAX) {
        let big = thr.max(1) as u32;
        for phase in [RndvPhase::Pending, RndvPhase::Requested, RndvPhase::Granted] {
            out.push(spec(vec![
                MsgSpec {
                    dst: 0,
                    class: 1,
                    frags: vec![cheaper(big)],
                    precommit: 0,
                    rndv_phase: phase,
                },
                msg(0, 0, vec![cheaper(64)]),
            ]));
        }
        // Express fragment stuck in rendezvous gates the rest of its message.
        out.push(spec(vec![msg(0, 0, vec![express(big), cheaper(64)])]));
        // Post-grant streaming: a granted fragment at least as large as a
        // whole packet must be chunkable — the rendezvous-path workload
        // bulk chunking exists for. Without it, profiles whose threshold
        // sits below half the packet budget would never show a
        // chunk-eligible candidate.
        let jumbo = wire_mtu
            .max(thr)
            .min(2 << 20)
            .min(u64::from(u32::MAX))
            .max(1) as u32;
        out.push(spec(vec![MsgSpec {
            dst: 0,
            class: 1,
            frags: vec![cheaper(jumbo)],
            precommit: 0,
            rndv_phase: RndvPhase::Granted,
        }]));
    }
    out
}

/// Generate the corpus for one capability profile: all templates plus
/// `samples` seeded random backlogs.
pub fn corpus(
    seed: u64,
    rndv_threshold: u64,
    caps: &DriverCapabilities,
    wire_mtu: u64,
    samples: usize,
) -> Vec<BacklogSpec> {
    let mut out = templates(rndv_threshold, caps, wire_mtu);
    let mut rng = SplitMix64::new(seed);
    // Cap fragment sizes so materialized backlogs stay small (payloads are
    // real allocations); sizes beyond the MTU still exercise chunking.
    let len_cap = wire_mtu.clamp(2, 2 << 20) as u32;
    let pio = caps.pio_max_bytes.clamp(2, u64::from(len_cap)) as u32;
    let quarter_mtu = (wire_mtu / 4).clamp(1, u64::from(len_cap)) as u32;
    let rndv32 = rndv_threshold.min(u64::from(len_cap)) as u32;
    let palette: Vec<u32> = [
        1,
        7,
        64,
        300,
        1024,
        pio - 1,
        pio,
        pio + 1,
        quarter_mtu,
        rndv32,
    ]
    .into_iter()
    .filter(|&n| n > 0)
    .collect();
    for _ in 0..samples {
        let msg_count = 1 + rng.next_below(4) as usize;
        let mut msgs = Vec::with_capacity(msg_count);
        for _ in 0..msg_count {
            let frag_count = 1 + rng.next_below(3) as usize;
            let frags = (0..frag_count)
                .map(|_| FragSpec {
                    len: palette[rng.next_below(palette.len() as u64) as usize],
                    express: rng.next_below(4) == 0,
                })
                .collect::<Vec<_>>();
            let precommit = if rng.next_below(4) == 0 {
                1 + rng.next_below(u64::from(frags[0].len)) as u32
            } else {
                0
            };
            msgs.push(MsgSpec {
                dst: rng.next_below(2) as u8,
                class: rng.next_below(4) as u8,
                frags,
                precommit,
                rndv_phase: match rng.next_below(3) {
                    0 => RndvPhase::Pending,
                    1 => RndvPhase::Requested,
                    _ => RndvPhase::Granted,
                },
            });
        }
        out.push(BacklogSpec {
            msgs,
            rndv_threshold,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicdrv::calib;

    #[test]
    fn corpus_is_deterministic_and_buildable() {
        let caps = calib::synthetic_capabilities();
        let a = corpus(42, caps.rndv_threshold_hint, &caps, 1 << 20, 50);
        let b = corpus(42, caps.rndv_threshold_hint, &caps, 1 << 20, 50);
        assert_eq!(a, b);
        assert!(a.len() > 50);
        for spec in &a {
            let layer = spec.build(); // must not panic
            let _ = layer.backlog_bytes();
        }
    }

    #[test]
    fn different_seeds_differ() {
        let caps = calib::synthetic_capabilities();
        let a = corpus(1, caps.rndv_threshold_hint, &caps, 1 << 20, 30);
        let b = corpus(2, caps.rndv_threshold_hint, &caps, 1 << 20, 30);
        assert_ne!(a, b);
    }

    #[test]
    fn infinite_threshold_profiles_skip_rndv_templates() {
        let caps = calib::capabilities(simnet::Technology::TcpEthernet);
        let c = corpus(7, caps.rndv_threshold_hint, &caps, 1 << 16, 0);
        for spec in &c {
            let mut layer = spec.build();
            let groups = layer.collect_candidates(crate::ANALYZED_RAIL, 64, |_, _| true);
            assert!(groups.iter().all(|g| g.rndv.is_empty()));
        }
    }
}

//! Property tests on the driver cost models: the monotonicity and
//! consistency properties the optimizer's scoring relies on, the
//! drivers' agreement with the injection-mode rule the optimizer prices
//! by, and the model's agreement with the simulated NIC it prices.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use nicdrv::{calib, injection_mode, CostModel, DriverError, TransferRequest};
use proptest::prelude::*;
use simnet::{
    Endpoint, NicId, SimCtx, SimDuration, SimTime, Simulation, SplitMix64, Technology, TxMode,
    WirePacket,
};

fn tech() -> impl Strategy<Value = Technology> {
    prop::sample::select(&calib::REAL_TECHNOLOGIES[..])
}

/// A request to `dst` of `bytes` in all, cut into `segs` segments.
fn request(dst: NicId, bytes: u64, segs: usize) -> TransferRequest {
    let (each, extra) = (bytes / segs as u64, bytes % segs as u64);
    let segments = (0..segs as u64)
        .map(|i| Bytes::from(vec![0u8; (each + u64::from(i < extra)) as usize]))
        .collect();
    TransferRequest {
        dst_nic: dst,
        vchan: 0,
        kind: 0,
        cookie: 0,
        host_prep: SimDuration::ZERO,
        segments,
    }
}

/// Notes the instant a packet completes receive processing.
struct Arrival(Rc<Cell<Option<SimTime>>>);

impl Endpoint for Arrival {
    fn on_packet_rx(&mut self, ctx: &mut SimCtx<'_>, _: NicId, _: WirePacket) {
        self.0.set(Some(ctx.now()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn injection_time_monotone_in_bytes(
        t in tech(),
        bytes in 0u64..1_000_000,
        delta in 1u64..100_000,
        segs in 1usize..16,
    ) {
        let m = CostModel::from_params(&calib::params(t));
        for mode in [TxMode::Pio, TxMode::Dma] {
            prop_assert!(
                m.injection_time(mode, bytes + delta, segs) >= m.injection_time(mode, bytes, segs),
                "{t:?} {mode:?}"
            );
        }
    }

    #[test]
    fn injection_time_monotone_in_segments(
        t in tech(),
        bytes in 1u64..100_000,
        segs in 1usize..15,
    ) {
        let m = CostModel::from_params(&calib::params(t));
        prop_assert!(
            m.injection_time(TxMode::Dma, bytes, segs + 1)
                >= m.injection_time(TxMode::Dma, bytes, segs)
        );
        // PIO streams segments: count-independent.
        prop_assert_eq!(
            m.injection_time(TxMode::Pio, bytes, segs + 1),
            m.injection_time(TxMode::Pio, bytes, segs)
        );
    }

    #[test]
    fn one_way_decomposes(t in tech(), bytes in 1u64..100_000) {
        let m = CostModel::from_params(&calib::params(t));
        let one_way = m.one_way(TxMode::Pio, bytes, 1);
        let parts = m.injection_time(TxMode::Pio, bytes, 1) + m.wire_latency() + m.rx_time(bytes);
        prop_assert_eq!(one_way, parts);
    }

    #[test]
    fn crossover_separates_modes(t in tech(), bytes in 1u64..1_000_000) {
        let m = CostModel::from_params(&calib::params(t));
        let x = m.pio_dma_crossover();
        if x > 0 && x < u64::MAX {
            if bytes < x {
                prop_assert!(
                    m.injection_time(TxMode::Pio, bytes, 1)
                        <= m.injection_time(TxMode::Dma, bytes, 1)
                );
            } else {
                prop_assert!(
                    m.injection_time(TxMode::Pio, bytes, 1)
                        >= m.injection_time(TxMode::Dma, bytes, 1)
                );
            }
        }
    }

    #[test]
    fn copy_time_is_linear_ish(t in tech(), a in 1u64..500_000, b in 1u64..500_000) {
        let m = CostModel::from_params(&calib::params(t));
        let sum = m.copy_time(a) + m.copy_time(b);
        let joint = m.copy_time(a + b);
        // Ceil-rounding makes the split at most 2ns more expensive.
        prop_assert!(joint <= sum);
        prop_assert!(sum.as_nanos() - joint.as_nanos() <= 2);
    }

    #[test]
    fn submit_agrees_with_the_injection_rule(
        t in tech(),
        raw in any::<u64>(),
        shift in 0u32..16,
        segs in 1usize..=20,
    ) {
        let caps = calib::capabilities(t);
        // Up to the packet limit, small sizes as likely as large ones.
        let bytes = 1 + ((raw % caps.max_packet_bytes) >> shift);
        let mut sim = Simulation::new();
        let net = sim.add_network(calib::params(t));
        let (a, b) = (sim.add_node(), sim.add_node());
        let (na, nb) = (sim.add_nic(a, net), sim.add_nic(b, net));
        let d = calib::driver(t, na);
        let got = sim.inject(a, |ctx| d.submit(ctx, request(nb, bytes, segs)));
        // Accepted exactly when the rule admits a mode, in the rule's mode.
        let rule = injection_mode(d.capabilities(), d.cost_model(), bytes, segs);
        let want = rule
            .map(|(mode, _)| mode)
            .ok_or(DriverError::NotInjectable { len: bytes, segments: segs });
        prop_assert_eq!(got, want, "{:?}: {} B in {} segments", t, bytes, segs);
    }
}

/// The model is the NIC: on every real technology, a lone packet of 1 B
/// to `max_packet_bytes` in 1 to `max_gather_entries` segments, submitted
/// on an idle flat rail, reaches the peer exactly the model's one way
/// after its submission, in the mode `submit` returned. What the rule
/// refuses is skipped; the packets each mode carried are counted, so the
/// property cannot hold vacuously.
#[test]
fn a_lone_packet_arrives_one_way_after_submission() {
    let mut rng = SplitMix64::new(0x5eed);
    for t in calib::REAL_TECHNOLOGIES {
        let caps = calib::capabilities(t);
        let mut seen = (0, 0);
        for _ in 0..200 {
            // Up to the packet limit, small sizes as likely as large ones.
            let shift = rng.next_below(16) as u32;
            let bytes = 1 + (rng.next_below(caps.max_packet_bytes) >> shift);
            let segs = 1 + rng.next_below(caps.max_gather_entries as u64) as usize;
            let mut sim = Simulation::new();
            let net = sim.add_network(calib::params(t));
            let (a, b) = (sim.add_node(), sim.add_node());
            let (na, nb) = (sim.add_nic(a, net), sim.add_nic(b, net));
            let arrived = Rc::new(Cell::new(None));
            sim.set_endpoint(b, Box::new(Arrival(arrived.clone())));
            let d = calib::driver(t, na);
            let submitted = sim.now();
            let Ok(mode) = sim.inject(a, |ctx| d.submit(ctx, request(nb, bytes, segs))) else {
                continue;
            };
            sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
            let one_way = d.cost_model().one_way(mode, bytes, segs);
            let what = format!("{t:?}: {bytes} B in {segs} segments, {mode:?}");
            assert_eq!(arrived.get(), Some(submitted + one_way), "{what}");
            match mode {
                TxMode::Pio => seen.0 += 1,
                TxMode::Dma => seen.1 += 1,
            }
        }
        assert!(seen.0 > 0, "{t:?}: no PIO packet drawn");
        assert!(
            seen.1 > 0 || !caps.supports_dma,
            "{t:?}: no DMA packet drawn"
        );
    }
}

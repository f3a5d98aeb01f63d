//! Property tests on the driver cost models: the monotonicity and
//! consistency properties the optimizer's scoring relies on, and the
//! drivers' agreement with the injection-mode rule the optimizer prices
//! by.

use bytes::Bytes;
use nicdrv::{calib, CostModel};
use proptest::prelude::*;
use simnet::{SimDuration, Simulation, Technology, TxMode};

const TECHS: [Technology; 5] = [
    Technology::MyrinetMx,
    Technology::QuadricsElan,
    Technology::InfiniBand,
    Technology::TcpEthernet,
    Technology::SharedMem,
];

fn tech() -> impl Strategy<Value = Technology> {
    prop::sample::select(&TECHS[..])
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
        let parts = m.injection_time(TxMode::Pio, bytes, 1) + m.wire_latency + m.rx_time(bytes);
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
        use nicdrv::{injection_mode, Driver, DriverError, TransferRequest};
        let caps = calib::capabilities(t);
        // Up to the packet limit, small sizes as likely as large ones.
        let bytes = 1 + ((raw % caps.max_packet_bytes) >> shift);
        let mut sim = Simulation::new();
        let net = sim.add_network(calib::params(t));
        let (a, b) = (sim.add_node(), sim.add_node());
        let (na, nb) = (sim.add_nic(a, net), sim.add_nic(b, net));
        let d = calib::driver(t, na);
        let (each, extra) = (bytes / segs as u64, bytes % segs as u64);
        let segments = (0..segs as u64)
            .map(|i| Bytes::from(vec![0u8; (each + u64::from(i < extra)) as usize]))
            .collect();
        let req = TransferRequest {
            dst_nic: nb,
            vchan: 0,
            kind: 0,
            cookie: 0,
            host_prep: SimDuration::ZERO,
            segments,
        };
        let got = sim.inject(a, |ctx| d.submit(ctx, req));
        // Accepted exactly when the rule admits a mode, in the rule's mode.
        let rule = injection_mode(d.capabilities(), d.cost_model(), bytes, segs);
        let want = rule
            .map(|(mode, _)| mode)
            .ok_or(DriverError::NotInjectable { len: bytes, segments: segs });
        prop_assert_eq!(got, want, "{:?}: {} B in {} segments", t, bytes, segs);
    }
}

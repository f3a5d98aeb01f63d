//! Property tests on the driver cost models: the monotonicity and
//! consistency properties the optimizer's scoring relies on.

use nicdrv::{calib, CostModel};
use proptest::prelude::*;
use simnet::{Technology, TxMode};

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
    fn driver_mode_selection_is_always_executable(
        t in tech(),
        bytes in 1u64..60_000,
        segs in 1usize..8,
    ) {
        use nicdrv::Driver;
        let d = calib::driver(t, simnet::NicId(0));
        let caps = calib::capabilities(t);
        let mode = d.select_mode(bytes, segs);
        // Whatever the driver picks for in-range requests must be a mode it
        // can actually execute.
        match mode {
            TxMode::Pio => prop_assert!(caps.supports_pio),
            TxMode::Dma => prop_assert!(caps.supports_dma),
        }
    }
}

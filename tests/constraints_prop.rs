//! Property-based tests: the engine's core invariants under arbitrary
//! message structures and traffic shapes.
//!
//! * every submitted message is delivered exactly once, byte-exact, in
//!   per-flow order, whatever the optimizer does;
//! * express fragments are never observed out of order on a single rail;
//! * plan validation accepts exactly the plans the collect-layer state
//!   allows (checked via the optimizer's own selection loop: no driver
//!   rejections ever).

use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::ids::TrafficClass;
use madeleine::message::{MessageBuilder, PackMode};
use madware::pattern;
use proptest::prelude::*;

/// A randomly-shaped message: per-fragment (size, express?).
#[derive(Clone, Debug)]
struct MsgShape {
    frags: Vec<(usize, bool)>,
    flow_idx: usize,
}

fn msg_shape(max_flows: usize) -> impl Strategy<Value = MsgShape> {
    (
        prop::collection::vec((1usize..5000, any::<bool>()), 1..6),
        0..max_flows,
    )
        .prop_map(|(frags, flow_idx)| MsgShape { frags, flow_idx })
}

fn run_workload(shapes: &[MsgShape], engine: EngineKind, classes: &[TrafficClass]) {
    let spec = ClusterSpec::mx_pair().engine(engine);
    let mut c = Cluster::build(&spec, vec![]);
    let h = c.handle(0).clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let flows: Vec<_> = classes.iter().map(|&cl| h.open_flow(dst, cl)).collect();
    type Expected = Vec<(u32, u32, Vec<(usize, bool)>)>;
    let mut per_flow_seq = vec![0u32; flows.len()];
    let mut expected: Expected = Vec::new();
    c.sim.inject(src, |ctx| {
        for shape in shapes {
            let fl = flows[shape.flow_idx % flows.len()];
            let idx = shape.flow_idx % flows.len();
            let seq = per_flow_seq[idx];
            per_flow_seq[idx] += 1;
            let mut b = MessageBuilder::new();
            for (i, &(n, express)) in shape.frags.iter().enumerate() {
                let mode = if express {
                    PackMode::Express
                } else {
                    PackMode::Cheaper
                };
                b = b.pack(&pattern(fl.0, seq, i as u16, n), mode);
            }
            h.send(ctx, fl, b.build_parts());
            expected.push((fl.0, seq, shape.frags.clone()));
        }
    });
    c.drain();

    // No plan the optimizer produced was rejected by a driver.
    assert_eq!(c.handle(0).metrics().driver_rejections, 0);
    // Single rail: the express ordering invariant is strict.
    assert_eq!(c.handle(1).receiver_stats().express_violations, 0);

    let got = c.handle(1).take_delivered();
    assert_eq!(
        got.len(),
        expected.len(),
        "every message delivered exactly once"
    );
    // Byte-exact content, correct modes, per-flow order.
    use std::collections::HashMap;
    let mut next_seq: HashMap<u32, u32> = HashMap::new();
    for m in &got {
        let seq_counter = next_seq.entry(m.flow.0).or_insert(0);
        assert_eq!(m.id.seq.0, *seq_counter, "flow {} order", m.flow.0);
        *seq_counter += 1;
        let (_, _, frags) = expected
            .iter()
            .find(|(f, s, _)| *f == m.flow.0 && *s == m.id.seq.0)
            .expect("delivered message was submitted");
        assert_eq!(m.fragments.len(), frags.len());
        for (i, ((mode, data), &(n, express))) in m.fragments.iter().zip(frags.iter()).enumerate() {
            assert_eq!(data.len(), n);
            assert_eq!(*mode == PackMode::Express, express);
            assert_eq!(&data[..], &pattern(m.flow.0, m.id.seq.0, i as u16, n)[..]);
        }
    }
}

// ---------------------------------------------------------------------------
// validate_plan robustness and analyzer agreement
// ---------------------------------------------------------------------------

/// Arbitrary backlog snapshots, expressed as madcheck specs so the same
/// builder serves the analyzer and these properties.
fn backlog_spec() -> impl Strategy<Value = madcheck::BacklogSpec> {
    use madcheck::{BacklogSpec, FragSpec, MsgSpec, RndvPhase};
    let frag = (1u32..4096, any::<bool>()).prop_map(|(len, express)| FragSpec { len, express });
    let msg = (
        0u8..3,
        0u8..4,
        prop::collection::vec(frag, 1..5),
        0u32..64,
        0u8..3,
    )
        .prop_map(|(dst, class, frags, precommit, phase)| MsgSpec {
            dst,
            class,
            frags,
            precommit,
            rndv_phase: match phase {
                0 => RndvPhase::Pending,
                1 => RndvPhase::Requested,
                _ => RndvPhase::Granted,
            },
        });
    (prop::collection::vec(msg, 1..5), any::<bool>()).prop_map(|(msgs, small_thr)| BacklogSpec {
        msgs,
        rndv_threshold: if small_thr { 512 } else { 1 << 30 },
    })
}

/// Arbitrary well-typed plans: the fields have the right types and point
/// at plausible indices, but nothing else is guaranteed — offsets and
/// lengths range over all of `u32`.
fn arbitrary_plan() -> impl Strategy<Value = madeleine::plan::TransferPlan> {
    use madeleine::ids::{ChannelId, FlowId};
    use madeleine::plan::{PlanBody, PlannedChunk, TransferPlan};
    use simnet::NodeId;
    let chunk = (0u32..6, 0u32..3, 0u16..6, any::<u32>(), any::<u32>()).prop_map(
        |(flow, seq, frag, offset, len)| PlannedChunk {
            flow: FlowId(flow),
            seq,
            frag,
            offset,
            len,
        },
    );
    let body = (
        prop::collection::vec(chunk, 0..6),
        any::<bool>(),
        (0u32..6, 0u32..3, 0u16..6),
        any::<bool>(),
    )
        .prop_map(|(chunks, linearize, (rf, rs, rg), is_data)| {
            if is_data {
                PlanBody::Data { chunks, linearize }
            } else {
                PlanBody::RndvRequest {
                    flow: FlowId(rf),
                    seq: rs,
                    frag: rg,
                }
            }
        });
    (0u16..2, 1u32..4, body).prop_map(|(rail, dst, body)| TransferPlan {
        channel: ChannelId(rail),
        dst: NodeId(dst),
        body,
        strategy: "prop-test",
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `validate_plan` is total: any well-typed plan against any backlog
    /// yields a verdict, never a panic or overflow.
    #[test]
    fn validate_plan_never_panics(
        spec in backlog_spec(),
        plans in prop::collection::vec(arbitrary_plan(), 1..8),
    ) {
        let collect = spec.build();
        let caps = nicdrv::calib::synthetic_capabilities();
        for plan in &plans {
            let _ = madeleine::constraints::validate_plan(plan, &collect, &caps, 1 << 16);
        }
    }

    /// The analyzer's `check_plan` agrees with `validate_plan` on every
    /// backlog × plan pair: identical validation verdicts, with the
    /// capability pass only ever *adding* strictness on accepted plans.
    #[test]
    fn analyzer_agrees_with_validate_plan(
        spec in backlog_spec(),
        plans in prop::collection::vec(arbitrary_plan(), 1..8),
    ) {
        use madcheck::Defect;
        let collect = spec.build();
        let caps = nicdrv::calib::synthetic_capabilities();
        let (mtu, threshold) = (1u64 << 16, spec.rndv_threshold);
        for plan in &plans {
            let verdict = madeleine::constraints::validate_plan(plan, &collect, &caps, mtu);
            let defect = madcheck::check_plan(plan, &collect, &caps, mtu, threshold);
            match (verdict, defect) {
                (Err(v), Some(Defect::Validation(d))) => prop_assert_eq!(v, d),
                (Err(v), other) => {
                    panic!("validate_plan rejected with {v:?} but check_plan said {other:?}")
                }
                (Ok(()), Some(Defect::Validation(d))) => {
                    panic!("check_plan invented validation defect {d:?}")
                }
                // None, or a capability defect on a plan validation accepts:
                // the capability pass is allowed to be stricter.
                (Ok(()), _) => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimizer_preserves_message_semantics(
        shapes in prop::collection::vec(msg_shape(3), 1..40)
    ) {
        run_workload(
            &shapes,
            EngineKind::optimizing(),
            &[TrafficClass::DEFAULT, TrafficClass::BULK, TrafficClass::CONTROL],
        );
    }

    #[test]
    fn legacy_engine_preserves_message_semantics(
        shapes in prop::collection::vec(msg_shape(2), 1..30)
    ) {
        run_workload(
            &shapes,
            EngineKind::legacy(),
            &[TrafficClass::DEFAULT, TrafficClass::CONTROL],
        );
    }

    #[test]
    fn tiny_window_and_budget_still_correct(
        shapes in prop::collection::vec(msg_shape(2), 1..25),
        window in 1usize..8,
        budget in 1usize..4,
    ) {
        use madeleine::EngineConfig;
        let config = EngineConfig::default().with_window(window).with_budget(budget);
        run_workload(
            &shapes,
            EngineKind::with_config(config),
            &[TrafficClass::DEFAULT, TrafficClass::BULK],
        );
    }
}

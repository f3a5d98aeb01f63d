//! The analyzer's two contractual properties:
//!
//! 1. the shipped strategy database is conformant across every driver
//!    capability profile (this is what `cargo xtask analyze` enforces);
//! 2. a broken strategy is caught, attributed, and reported with a
//!    *minimized* counterexample.

use madcheck::{analyze, AnalyzeOptions};
use madeleine::strategy::StrategyRegistry;
use madeleine::EngineConfig;

fn opts(samples: usize) -> AnalyzeOptions {
    AnalyzeOptions {
        samples,
        ..AnalyzeOptions::default()
    }
}

#[test]
fn shipped_strategies_conform_on_all_profiles() {
    let registry = StrategyRegistry::standard(&EngineConfig::default());
    let report = analyze(&registry, &opts(48));
    assert!(report.is_clean(), "unexpected findings:\n{report}");
    assert_eq!(report.profiles, 6, "all five real presets plus synthetic");
    assert!(
        report.plans > 0,
        "the corpus must actually elicit proposals"
    );
}

#[test]
fn shipped_strategies_conform_under_fifo_only_config() {
    let cfg = EngineConfig::fifo_only();
    let registry = StrategyRegistry::standard(&cfg);
    let report = analyze(
        &registry,
        &AnalyzeOptions {
            config: cfg,
            ..opts(32)
        },
    );
    assert!(report.is_clean(), "unexpected findings:\n{report}");
}

#[test]
fn skewed_offset_fixture_is_caught_and_minimized() {
    let mut registry = StrategyRegistry::empty();
    registry.register(Box::new(madcheck::fixtures::SkewedOffset));
    let report = analyze(&registry, &opts(16));
    assert!(!report.is_clean());
    let f = &report.findings[0];
    assert_eq!(f.strategy, "fixture-skewed-offset");
    assert_eq!(f.defect.key(), "validation:non-contiguous");
    // Minimization must land on the smallest reproducer: one message, one
    // fragment, and (absent a precommitted frontier) a 1-byte payload.
    assert_eq!(
        f.spec.msgs.len(),
        1,
        "minimizer left extra messages:\n{report}"
    );
    assert_eq!(f.spec.msgs[0].frags.len(), 1);
    assert!(
        f.spec.msgs[0].frags[0].len <= 2,
        "minimizer left a large fragment:\n{report}"
    );
    // The report renders the counterexample.
    let text = report.to_string();
    assert!(text.contains("FINDING 1"));
    assert!(text.contains("minimized counterexample backlog"));
}

#[test]
fn gather_hog_fixture_is_caught() {
    let mut registry = StrategyRegistry::empty();
    registry.register(Box::new(madcheck::fixtures::GatherHog));
    let report = analyze(&registry, &opts(16));
    assert!(!report.is_clean());
    assert!(report
        .findings
        .iter()
        .all(|f| f.strategy == "fixture-gather-hog"));
    // A strategy cannot say "gather" (the cost model prices a list too
    // wide to gather as a copy): what the hog can trip is the size budget.
    assert!(report
        .findings
        .iter()
        .all(|f| f.defect.key() == "validation:oversize"));
}

#[test]
fn eager_requester_fixture_is_caught() {
    let mut registry = StrategyRegistry::empty();
    registry.register(Box::new(madcheck::fixtures::EagerRequester));
    let report = analyze(&registry, &opts(8));
    assert!(!report.is_clean());
    assert_eq!(
        report.findings[0].defect.key(),
        "validation:rndv-not-needed"
    );
}

#[test]
fn other_rail_fixture_is_caught_and_minimized() {
    let mut registry = StrategyRegistry::empty();
    registry.register(Box::new(madcheck::fixtures::OtherRail));
    let report = analyze(&registry, &opts(8));
    assert!(!report.is_clean());
    for f in &report.findings {
        assert_eq!(f.defect.key(), "validation:wrong-rail", "{report}");
        // Nothing about the backlog matters: any one byte will do.
        assert_eq!(f.spec.msgs.len(), 1, "{report}");
        assert_eq!(f.spec.msgs[0].frags.len(), 1, "{report}");
        assert_eq!(f.spec.msgs[0].frags[0].len, 1, "{report}");
    }
}

#[test]
fn broken_fixture_alongside_shipped_database_attributes_correctly() {
    let mut registry = StrategyRegistry::standard(&EngineConfig::default());
    registry.register(Box::new(madcheck::fixtures::SkewedOffset));
    let report = analyze(&registry, &opts(16));
    assert!(!report.is_clean());
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.strategy.starts_with("fixture-")),
        "shipped strategies wrongly implicated:\n{report}"
    );
}

/// The injection decision against its definition: over every driver
/// profile the analyzer sweeps (and each one again with its DMA engine
/// taken away), chunk counts 1–32, chunk sizes 16 B–64 KiB, lists whose
/// chunks are each a message of their own, fragment pairs or fragment
/// quadruples of one message, started at a fragment's first byte or
/// resumed past it, and `enable_gather` on and off, `cheapest_injection` is
/// the argmin over the legal `{gather, copy} × {PIO, DMA}` combinations,
/// computed here from the capability fields and `CostModel::{injection_time,
/// copy_time}` alone — first in that order on a tie — on the bytes
/// `capcheck::wire_bytes` counts from the format's definition (which
/// `proto::framing_of` must agree with), and `check_plan_caps`, which knows
/// nothing of prices, accepts every choice and refuses both forms of a
/// list priced `None`.
#[test]
fn the_injection_decision_is_the_argmin_over_the_legal_modes() {
    use madcheck::analyzer::profiles;
    use madcheck::capcheck::wire_bytes;
    use madcheck::{check_plan_caps, ANALYZED_RAIL};
    use madeleine::collect::CollectLayer;
    use madeleine::cost::cheapest_injection;
    use madeleine::ids::FlowId;
    use madeleine::plan::{PlanBody, PlannedChunk, TransferPlan};
    use madeleine::proto::framing_of;
    use nicdrv::{calib, CostModel};
    use simnet::{NodeId, TxMode};

    let nothing_pending = CollectLayer::new();
    let (mut choices, mut by_copy, mut unpriced, mut moved_by_runs) = (0, 0, 0, 0);
    for tech in profiles() {
        let params = calib::params(tech);
        let cost = CostModel::from_params(&params);
        let stock = calib::capabilities(tech);
        let mut pio_only = stock.clone();
        pio_only.supports_dma = false;
        for caps in [stock, pio_only] {
            if caps.validate().is_err() {
                continue; // a DMA-only technology has no PIO-only variant
            }
            let shapes = [(1u32, 0u32), (2, 0), (4, 0), (1, 7), (4, 7)];
            let sizes = [16u32, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10];
            for (n, size, (run, resumed_at)) in (1..=32usize)
                .flat_map(|n| sizes.map(|size| (n, size)))
                .flat_map(|(n, size)| shapes.map(|shape| (n, size, shape)))
            {
                // Chunk `i` is fragment `i % run` of message `i / run`;
                // the first one may resume its fragment.
                let chunks: Vec<_> = (0..n as u32)
                    .map(|i| PlannedChunk {
                        flow: FlowId(i / run),
                        seq: 0,
                        frag: (i % run) as u16,
                        offset: if i == 0 { resumed_at } else { 0 },
                        len: size,
                    })
                    .collect();
                let payload = n as u64 * u64::from(size);
                let bytes = wire_bytes(&chunks);
                assert_eq!(bytes, payload + framing_of(&chunks), "n={n} run={run}");
                if bytes > params.mtu.min(caps.max_packet_bytes) {
                    continue; // no packet: both checkers stop at its size
                }
                let plan = |linearize| TransferPlan {
                    channel: ANALYZED_RAIL,
                    dst: NodeId(1),
                    body: PlanBody::Data {
                        chunks: chunks.clone(),
                        linearize,
                    },
                    strategy: "priced",
                };
                let admitted = |plan: &TransferPlan| {
                    check_plan_caps(plan, &nothing_pending, &caps, params.mtu, u64::MAX).is_ok()
                };
                for enable_gather in [true, false] {
                    let mut want = None;
                    for linearize in [false, true] {
                        if !linearize && !enable_gather && n > 1 {
                            continue;
                        }
                        let segs = if linearize { 1 } else { 1 + n };
                        for mode in [TxMode::Pio, TxMode::Dma] {
                            let legal = match mode {
                                TxMode::Pio => caps.supports_pio && bytes <= caps.pio_max_bytes,
                                TxMode::Dma => caps.supports_dma && segs <= caps.max_gather_entries,
                            };
                            let mut busy = cost.injection_time(mode, bytes, segs);
                            if linearize {
                                busy += cost.copy_time(bytes);
                            }
                            if legal && want.is_none_or(|(_, _, best)| busy < best) {
                                want = Some((linearize, mode, busy));
                            }
                        }
                    }
                    let got = cheapest_injection(&caps, &cost, n, bytes, enable_gather);
                    let at = format!(
                        "{tech:?} dma={} n={n} size={size} run={run} from={resumed_at}",
                        caps.supports_dma
                    );
                    assert_eq!(got.map(|h| (h.linearize, h.mode, h.busy)), want, "{at}");
                    // What the same list chose when every header named
                    // its message.
                    let unshared = bytes + 19 * (n as u64 - n.div_ceil(run as usize) as u64);
                    let before = cheapest_injection(&caps, &cost, n, unshared, enable_gather);
                    moved_by_runs += usize::from(
                        before.map(|h| (h.linearize, h.mode)) != got.map(|h| (h.linearize, h.mode)),
                    );
                    match got {
                        Some(how) => {
                            assert!(admitted(&plan(how.linearize)), "{at}: {how:?}");
                            choices += 1;
                            by_copy += usize::from(how.linearize);
                        }
                        None => {
                            assert!(!admitted(&plan(false)) && !admitted(&plan(true)), "{at}");
                            unpriced += 1;
                        }
                    }
                }
            }
        }
    }
    // The sweep reaches both sides of the decision, and lists nothing can
    // inject (beyond the PIO cap of a rail without DMA).
    assert!(
        by_copy > 100 && choices - by_copy > 100 && unpriced > 100,
        "{choices} choices, {by_copy} by copy, {unpriced} unpriced"
    );
    // And lists whose message runs change the decision: the bytes a run
    // leaves out take a packet under a PIO cap, or across the copy/gather
    // switch point.
    assert!(
        moved_by_runs > 10,
        "{moved_by_runs} decisions moved by runs"
    );
}

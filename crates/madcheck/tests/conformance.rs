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
    assert!(report.findings.iter().any(|f| matches!(
        f.defect.key(),
        "validation:oversize" | "validation:gather-too-wide"
    )));
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

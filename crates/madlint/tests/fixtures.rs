//! Fixture-corpus contract: every shipped rule has a bad file that trips
//! exactly that rule, the clean file is silent under every marker, and
//! the machine-readable `--json` rendering matches a golden snapshot.
//!
//! Regenerate the snapshot after an intentional rule change with
//! `MADLINT_BLESS=1 cargo test -p madlint --test fixtures`.

use std::fs;
use std::path::{Path, PathBuf};

use madlint::{lint_files, RuleId};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Lint one fixture, reporting paths relative to the crate root
/// (`fixtures/<name>`), so diagnostics are machine-stable.
fn lint_fixture(name: &str) -> madlint::LintReport {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    lint_files(root, &[fixture_dir().join(name)])
}

/// Each bad file must produce at least one finding, all of them for the
/// rule the file is named after.
#[test]
fn each_bad_fixture_trips_exactly_its_rule() {
    let cases = [
        ("bad_nondet_iter.rs", RuleId::NondetIter),
        ("bad_nondet_source.rs", RuleId::NondetSource),
        ("bad_panic_path.rs", RuleId::PanicPath),
        ("bad_float_ord.rs", RuleId::FloatOrd),
        ("bad_shared_state.rs", RuleId::SharedState),
        ("bad_trace_coverage.rs", RuleId::TraceCoverage),
        ("bad_linear_scan.rs", RuleId::LinearScan),
        ("bad_flatten_copy.rs", RuleId::FlattenCopy),
    ];
    for (file, rule) in cases {
        let report = lint_fixture(file);
        assert!(report.errors.is_empty(), "{file}: {:?}", report.errors);
        assert!(
            !report.diagnostics.is_empty(),
            "{file}: expected {} to fire",
            rule.name()
        );
        for d in &report.diagnostics {
            assert_eq!(
                d.rule,
                rule,
                "{file}: stray {} finding at line {}: {}",
                d.rule.name(),
                d.line,
                d.message
            );
        }
        assert_eq!(
            report.exit_code(),
            rule.class().exit_code(),
            "{file}: wrong exit code for class {}",
            rule.class().name()
        );
    }
}

/// The clean fixture opts into every marker and must stay silent.
#[test]
fn clean_fixture_is_silent() {
    let report = lint_fixture("clean.rs");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        report.diagnostics.is_empty(),
        "clean.rs should be silent:\n{}",
        report.render_text()
    );
    assert_eq!(report.exit_code(), 0);
}

/// `linear-scan` knows six spellings of "walk the collection to find one
/// element"; the bad fixture holds each once.
#[test]
fn linear_scan_flags_every_search_idiom() {
    let report = lint_fixture("bad_linear_scan.rs");
    let mut flagged: Vec<&str> = report
        .diagnostics
        .iter()
        .filter_map(|d| d.message.split('`').nth(1))
        .collect();
    flagged.sort_unstable();
    assert_eq!(
        flagged,
        [
            ".iter().any(",
            ".iter().find(",
            ".iter_mut().any(",
            ".iter_mut().find(",
            ".position(",
            ".retain(",
        ]
    );
}

/// The partner of `bad_linear_scan.rs`: the same scans, rewritten or
/// allowed at item and line level with a stated bound, raise nothing.
#[test]
fn allowed_linear_scan_fixture_is_silent() {
    let report = lint_fixture("allowed_linear_scan.rs");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        report.diagnostics.is_empty(),
        "allowed_linear_scan.rs should be silent:\n{}",
        report.render_text()
    );
}

/// The partner of `bad_flatten_copy.rs`: the same reads done in place, or
/// the copy allowed at item and line level with its reason, raise nothing.
#[test]
fn allowed_flatten_copy_fixture_is_silent() {
    let report = lint_fixture("allowed_flatten_copy.rs");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        report.diagnostics.is_empty(),
        "allowed_flatten_copy.rs should be silent:\n{}",
        report.render_text()
    );
}

/// The whole corpus rendered as `--json` must match the golden snapshot
/// byte for byte — this pins the schema, the canonical sort order, the
/// per-rule counts and every message/hint string.
#[test]
fn json_rendering_matches_golden_snapshot() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = fs::read_dir(fixture_dir())
        .expect("fixtures directory exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    let report = lint_files(root, &files);
    let actual = report.render_json();

    let golden_path = fixture_dir().join("golden_diagnostics.json");
    if std::env::var_os("MADLINT_BLESS").is_some() {
        fs::write(&golden_path, &actual).expect("write golden snapshot");
        return;
    }
    let golden = fs::read_to_string(&golden_path)
        .expect("golden snapshot exists (bless with MADLINT_BLESS=1)");
    assert_eq!(
        actual, golden,
        "madlint --json output drifted from the golden snapshot; if the \
         change is intentional, re-bless with MADLINT_BLESS=1"
    );
}

/// Exit codes stay mixed-class stable across the corpus: the combined
/// report spans all four failure classes, so it must exit 1.
#[test]
fn combined_corpus_is_mixed_class() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files: Vec<PathBuf> = [
        "bad_nondet_iter.rs",
        "bad_panic_path.rs",
        "bad_shared_state.rs",
        "bad_trace_coverage.rs",
    ]
    .iter()
    .map(|f| fixture_dir().join(f))
    .collect();
    let report = lint_files(root, &files);
    assert_eq!(report.exit_code(), madlint::EXIT_MIXED);
}

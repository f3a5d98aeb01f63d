//! Diagnostics, failure classes, report rendering and exit codes.
//!
//! Every diagnostic is span-accurate (`file:line:col`), machine-readable
//! (stable rule id + failure class), and carries the offending snippet
//! plus a fix hint. Reports render as human text or as deterministic JSON
//! (`--json`), and map to a stable exit-code scheme so CI can route
//! failures by class:
//!
//! | exit | meaning                                   |
//! |------|-------------------------------------------|
//! | 0    | clean                                     |
//! | 1    | violations across multiple failure classes |
//! | 2    | determinism (nondet-iter/-source, float-ord) |
//! | 3    | panic hygiene (panic-path)                |
//! | 4    | concurrency readiness (shared-state)      |
//! | 5    | trace coverage (trace-coverage)           |
//! | 6    | complexity (linear-scan, flatten-copy)    |
//! | 64   | analyzer error (I/O, malformed directive) |

use std::fmt::Write as _;

/// Stable identifier of one lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// HashMap/HashSet iteration in deterministic-output scopes.
    NondetIter,
    /// Host clock / unseeded RNG / environment access.
    NondetSource,
    /// Anonymous panics in engine hot paths.
    PanicPath,
    /// Raw float ordering in scoring code.
    FloatOrd,
    /// Shared mutable state that blocks `Send`/`Sync` for madpar.
    SharedState,
    /// Flow-lifecycle mutation without an `EngineEvent` emission.
    TraceCoverage,
    /// Element searches over a queue or window in engine hot paths.
    LinearScan,
    /// Whole-buffer copies of payload in engine hot paths.
    FlattenCopy,
}

impl RuleId {
    /// Every shipped rule, in report order.
    pub const ALL: [RuleId; 8] = [
        RuleId::NondetIter,
        RuleId::NondetSource,
        RuleId::PanicPath,
        RuleId::FloatOrd,
        RuleId::SharedState,
        RuleId::TraceCoverage,
        RuleId::LinearScan,
        RuleId::FlattenCopy,
    ];

    /// Kebab-case rule id used in diagnostics and `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NondetIter => "nondet-iter",
            RuleId::NondetSource => "nondet-source",
            RuleId::PanicPath => "panic-path",
            RuleId::FloatOrd => "float-ord",
            RuleId::SharedState => "shared-state",
            RuleId::TraceCoverage => "trace-coverage",
            RuleId::LinearScan => "linear-scan",
            RuleId::FlattenCopy => "flatten-copy",
        }
    }

    /// The failure class this rule belongs to.
    pub fn class(self) -> FailureClass {
        match self {
            RuleId::NondetIter | RuleId::NondetSource | RuleId::FloatOrd => {
                FailureClass::Determinism
            }
            RuleId::PanicPath => FailureClass::PanicHygiene,
            RuleId::SharedState => FailureClass::Concurrency,
            RuleId::TraceCoverage => FailureClass::Coverage,
            RuleId::LinearScan | RuleId::FlattenCopy => FailureClass::Complexity,
        }
    }
}

/// CI-facing grouping of rules; each class owns a stable exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureClass {
    /// Output would depend on hash order, the host, or NaN semantics.
    Determinism,
    /// A hot path can die with an anonymous panic.
    PanicHygiene,
    /// State that cannot shard across madpar threads.
    Concurrency,
    /// A lifecycle transition is invisible to madtrace.
    Coverage,
    /// Per-operation cost grows with backlog depth or window size.
    Complexity,
}

impl FailureClass {
    /// Stable class label for JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FailureClass::Determinism => "determinism",
            FailureClass::PanicHygiene => "panic-hygiene",
            FailureClass::Concurrency => "concurrency",
            FailureClass::Coverage => "coverage",
            FailureClass::Complexity => "complexity",
        }
    }

    /// Stable per-class process exit code.
    pub fn exit_code(self) -> u8 {
        match self {
            FailureClass::Determinism => 2,
            FailureClass::PanicHygiene => 3,
            FailureClass::Concurrency => 4,
            FailureClass::Coverage => 5,
            FailureClass::Complexity => 6,
        }
    }
}

/// Exit code when violations span more than one failure class.
pub const EXIT_MIXED: u8 = 1;
/// Exit code for analyzer-internal errors (I/O, malformed directives).
pub const EXIT_ERROR: u8 = 64;

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Trimmed source line the finding points at.
    pub snippet: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it (or how to allow it when intentional).
    pub hint: String,
}

/// Aggregated result of linting a file set.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Analyzer errors: unreadable files, malformed directives.
    pub errors: Vec<String>,
}

impl LintReport {
    /// Sort diagnostics into the canonical deterministic order.
    pub fn finish(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
    }

    /// True when there are no findings and no analyzer errors.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.errors.is_empty()
    }

    /// Findings for one rule.
    pub fn count(&self, rule: RuleId) -> usize {
        self.diagnostics.iter().filter(|d| d.rule == rule).count()
    }

    /// The stable exit code for this report (see module docs).
    pub fn exit_code(&self) -> u8 {
        if !self.errors.is_empty() {
            return EXIT_ERROR;
        }
        let mut classes: Vec<FailureClass> =
            self.diagnostics.iter().map(|d| d.rule.class()).collect();
        classes.sort();
        classes.dedup();
        match classes.as_slice() {
            [] => 0,
            [one] => one.exit_code(),
            _ => EXIT_MIXED,
        }
    }

    /// Human-readable rendering, one block per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}\n    {}\n    hint: {}",
                d.file,
                d.line,
                d.col,
                d.rule.name(),
                d.message,
                d.snippet,
                d.hint
            );
        }
        for e in &self.errors {
            let _ = writeln!(out, "madlint error: {e}");
        }
        let _ = writeln!(
            out,
            "madlint: {} files scanned, {} violations, {} errors",
            self.files_scanned,
            self.diagnostics.len(),
            self.errors.len()
        );
        out
    }

    /// Deterministic JSON rendering for CI (`--json`): stable key order,
    /// diagnostics in canonical order, every rule counted even when zero.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"madlint-v1\",");
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        let _ = writeln!(out, "  \"exit_code\": {},", self.exit_code());
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        out.push_str("  \"counts\": {");
        for (i, rule) in RuleId::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {}", rule.name(), self.count(*rule));
        }
        out.push_str("},\n");
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"rule\": {}, \"class\": {}, \"file\": {}, \"line\": {}, \
                 \"col\": {}, \"snippet\": {}, \"message\": {}, \"hint\": {}}}",
                json_str(d.rule.name()),
                json_str(d.rule.class().name()),
                json_str(&d.file),
                d.line,
                d.col,
                json_str(&d.snippet),
                json_str(&d.message),
                json_str(&d.hint)
            );
        }
        if self.diagnostics.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"errors\": [");
        for (i, e) in self.errors.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", json_str(e));
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escape a string into a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: RuleId, file: &str, line: u32) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            col: 1,
            snippet: "x".into(),
            message: "m".into(),
            hint: "h".into(),
        }
    }

    #[test]
    fn exit_codes_by_class() {
        let mut r = LintReport::default();
        assert_eq!(r.exit_code(), 0);
        r.diagnostics.push(diag(RuleId::NondetIter, "a.rs", 1));
        assert_eq!(r.exit_code(), 2);
        r.diagnostics.clear();
        r.diagnostics.push(diag(RuleId::PanicPath, "a.rs", 1));
        assert_eq!(r.exit_code(), 3);
        r.diagnostics.push(diag(RuleId::SharedState, "a.rs", 2));
        assert_eq!(r.exit_code(), EXIT_MIXED);
        r.errors.push("boom".into());
        assert_eq!(r.exit_code(), EXIT_ERROR);
    }

    #[test]
    fn json_is_valid_and_escaped() {
        let mut r = LintReport {
            files_scanned: 1,
            ..LintReport::default()
        };
        r.diagnostics.push(Diagnostic {
            rule: RuleId::NondetSource,
            file: "a.rs".into(),
            line: 3,
            col: 7,
            snippet: "let t = \"x\\\\y\";".into(),
            message: "bad".into(),
            hint: "fix".into(),
        });
        let json = r.render_json();
        assert!(json.contains("\"schema\": \"madlint-v1\""));
        assert!(json.contains("\\\"x\\\\\\\\y\\\""));
        assert!(json.contains("\"nondet-source\": 1"));
        // Braces and brackets balance (cheap structural sanity check; the
        // golden-snapshot fixture test does the full comparison).
        let balance = |open: char, close: char| {
            json.chars().filter(|c| *c == open).count()
                == json.chars().filter(|c| *c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }

    #[test]
    fn report_sorts_canonically() {
        let mut r = LintReport::default();
        r.diagnostics.push(diag(RuleId::PanicPath, "b.rs", 9));
        r.diagnostics.push(diag(RuleId::NondetIter, "a.rs", 5));
        r.diagnostics.push(diag(RuleId::NondetIter, "a.rs", 2));
        r.finish();
        assert_eq!(r.diagnostics[0].line, 2);
        assert_eq!(r.diagnostics[1].line, 5);
        assert_eq!(r.diagnostics[2].file, "b.rs");
    }
}

//! The pluggable ruleset and the scope walker that drives it.
//!
//! [`check_file`] walks the item tree of one [`SourceFile`], maintaining
//! the effective scope flags (inherited file → module → item directives),
//! skipping test-only code entirely, and dispatching each rule over the
//! scopes it applies to:
//!
//! | rule           | trigger scope                         |
//! |----------------|---------------------------------------|
//! | nondet-source  | always on (all non-test code)         |
//! | shared-state   | always on + `send-sync` type audits   |
//! | panic-path     | `hot-path` scopes                     |
//! | linear-scan    | `hot-path` scopes                     |
//! | flatten-copy   | `hot-path` scopes                     |
//! | nondet-iter    | `deterministic-output` scopes         |
//! | float-ord      | `scoring` scopes                      |
//! | trace-coverage | `trace-covered` scopes                |
//!
//! Adding a rule: add a `RuleId` variant, a module here implementing a
//! `check(...)` over a [`Sig`] token view, dispatch it from [`walk`], and
//! drop a bad fixture under `fixtures/` so the corpus test proves it
//! fires. Rules match token sequences, never raw text, so banned names
//! inside strings, comments or unrelated identifiers cannot trip them.

pub mod flatten_copy;
pub mod float_ord;
pub mod linear_scan;
pub mod nondet_iter;
pub mod nondet_source;
pub mod panic_path;
pub mod shared_state;
pub mod trace_coverage;

use std::collections::BTreeSet;
use std::ops::Range;

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::{Tok, TokKind};
use crate::parse::{Directive, Item, ItemKind, SourceFile};

/// Effective scope context at one point of the item tree.
#[derive(Clone, Debug, Default)]
pub struct ScopeFlags {
    /// panic-path, linear-scan and flatten-copy apply.
    pub hot_path: bool,
    /// nondet-iter applies.
    pub det_output: bool,
    /// float-ord applies.
    pub scoring: bool,
    /// shared-state audits type fields.
    pub send_sync: bool,
    /// trace-coverage applies.
    pub trace_covered: bool,
    /// Scope declares indirect trace emission.
    pub emits_trace: bool,
    /// File documents its lock acquisition order.
    pub lock_order: bool,
    /// Rules suppressed in this scope.
    pub allows: BTreeSet<String>,
}

impl ScopeFlags {
    /// Fold `directives` into a copy of `self`.
    pub fn with(&self, directives: &[Directive]) -> ScopeFlags {
        let mut f = self.clone();
        for d in directives {
            match d {
                Directive::Allow(rules) => f.allows.extend(rules.iter().cloned()),
                Directive::HotPath => f.hot_path = true,
                Directive::DeterministicOutput => f.det_output = true,
                Directive::Scoring => f.scoring = true,
                Directive::SendSync => f.send_sync = true,
                Directive::TraceCovered => f.trace_covered = true,
                Directive::EmitsTrace => f.emits_trace = true,
                Directive::LockOrder(_) => f.lock_order = true,
            }
        }
        f
    }

    /// True when `rule` is suppressed here.
    pub fn allowed(&self, rule: RuleId) -> bool {
        self.allows.contains(rule.name())
    }
}

/// A comment-free view over a token range, the unit rules match on.
pub struct Sig<'a> {
    /// Significant tokens in source order.
    pub toks: Vec<&'a Tok>,
}

impl<'a> Sig<'a> {
    /// Build the view for `range` of `f`'s token stream.
    pub fn of(f: &'a SourceFile, range: Range<usize>) -> Sig<'a> {
        Sig {
            toks: f.toks[range.start.min(f.toks.len())..range.end.min(f.toks.len())]
                .iter()
                .filter(|t| t.kind != TokKind::Comment)
                .collect(),
        }
    }

    /// Token at `i`, if any.
    pub fn get(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i).copied()
    }

    /// True when the tokens at `i..` spell the path `a::b`.
    pub fn path2(&self, i: usize, a: &str, b: &str) -> bool {
        self.get(i).is_some_and(|t| t.is_ident(a))
            && self.get(i + 1).is_some_and(|t| t.is_punct(":"))
            && self.get(i + 2).is_some_and(|t| t.is_punct(":"))
            && self.get(i + 3).is_some_and(|t| t.is_ident(b))
    }

    /// True when the tokens at `i..` spell a method call `.name(`.
    pub fn method(&self, i: usize, name: &str) -> bool {
        self.get(i).is_some_and(|t| t.is_punct("."))
            && self.get(i + 1).is_some_and(|t| t.is_ident(name))
            && self.get(i + 2).is_some_and(|t| t.is_punct("("))
    }
}

/// Push a diagnostic unless the scope suppresses the rule. (Line-level
/// allows are filtered afterwards in [`check_file`].)
pub fn emit(
    out: &mut Vec<Diagnostic>,
    f: &SourceFile,
    ctx: &ScopeFlags,
    rule: RuleId,
    at: &Tok,
    message: String,
    hint: &str,
) {
    if ctx.allowed(rule) {
        return;
    }
    out.push(Diagnostic {
        rule,
        file: f.path.clone(),
        line: at.line,
        col: at.col,
        snippet: f.snippet(at.line),
        message,
        hint: hint.to_string(),
    });
}

/// Run every applicable rule over `f`; returns unsorted diagnostics.
pub fn check_file(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let base = ScopeFlags::default().with(&f.file_directives);

    // File-wide concurrency scan, skipping test item spans.
    let mut test_spans: Vec<Range<usize>> = Vec::new();
    collect_test_spans(&f.items, &mut test_spans);
    shared_state::check_file(f, &base, &test_spans, &mut out);

    for item in &f.items {
        walk(f, item, &base, &mut out);
    }

    out.retain(|d| {
        f.line_allows
            .get(&d.line)
            .is_none_or(|rules| !rules.iter().any(|r| r == d.rule.name()))
    });
    out
}

fn collect_test_spans(items: &[Item], out: &mut Vec<Range<usize>>) {
    for it in items {
        if it.is_test {
            out.push(it.span.clone());
        } else {
            collect_test_spans(&it.children, out);
        }
    }
}

fn walk(f: &SourceFile, item: &Item, parent: &ScopeFlags, out: &mut Vec<Diagnostic>) {
    if item.is_test {
        return;
    }
    let ctx = parent.with(&item.directives);
    match item.kind {
        ItemKind::Fn | ItemKind::Static => {
            let range = item.body.clone().unwrap_or_else(|| item.span.clone());
            let sig = Sig::of(f, range);
            nondet_source::check(f, &ctx, &sig, out);
            if ctx.hot_path {
                panic_path::check(f, &ctx, &sig, out);
                linear_scan::check(f, &ctx, &sig, out);
                flatten_copy::check(f, &ctx, &sig, out);
            }
            if ctx.det_output {
                nondet_iter::check(f, &ctx, &sig, out);
            }
            if ctx.scoring {
                float_ord::check(f, &ctx, &sig, out);
            }
            if item.kind == ItemKind::Fn && ctx.trace_covered && !ctx.emits_trace {
                trace_coverage::check(f, &ctx, item, &sig, out);
            }
        }
        ItemKind::Type => {
            if ctx.send_sync {
                shared_state::check_type(f, &ctx, item, out);
            }
        }
        ItemKind::Mod | ItemKind::Impl | ItemKind::Trait => {
            for child in &item.children {
                walk(f, child, &ctx, out);
            }
        }
        ItemKind::Other => {}
    }
}

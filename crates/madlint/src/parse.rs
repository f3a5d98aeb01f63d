//! Item-tree parser and scoping directives.
//!
//! Builds a nested item tree (modules, impls, functions, type
//! definitions) from the token stream, tracking for every item whether it
//! lives under `#[cfg(test)]` / `#[test]` and which madlint directives
//! apply to it. This is the scope-resolution half of the offline `syn`
//! stand-in: rules never see test code, and allows/markers attach to the
//! exact item they annotate instead of whole files or single lines.
//!
//! ## Directive grammar
//!
//! Directives ride in ordinary comments so they survive stable `rustc`
//! (a true `#[allow(madlint::rule)]` tool attribute would not compile):
//!
//! ```text
//! // madlint: file: hot-path                 file-wide marker
//! // madlint: hot-path                       marker for the next item
//! // madlint: allow(rule-a, rule-b) — why    suppression (item or line)
//! // madlint: lock-order: A before B         documents lock ordering
//! ```
//!
//! An own-line `allow` immediately above an item suppresses the rule for
//! the whole item; a trailing `allow` on a code line suppresses it for
//! that line only. Marker directives (`hot-path`, `deterministic-output`,
//! `scoring`, `send-sync`, `trace-covered`, `emits-trace`) opt a scope
//! *into* a rule (`hot-path` into three: panic-path, linear-scan and
//! flatten-copy);
//! nothing is linted by default except the always-on rules
//! (`nondet-source`, `shared-state`).

use std::collections::BTreeMap;
use std::ops::Range;

use crate::lexer::{Tok, TokKind};

/// One madlint scoping directive, parsed from a comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Directive {
    /// Suppress the named rules in this scope.
    Allow(Vec<String>),
    /// Engine hot path: panic-path hygiene, linear-scan and flatten-copy
    /// apply.
    HotPath,
    /// Scope feeds deterministic output (traces, exports, registries):
    /// nondet-iter applies.
    DeterministicOutput,
    /// Plan-scoring code: float-ord applies.
    Scoring,
    /// Type must become `Send`/`Sync` for madpar: shared-state audits its
    /// fields.
    SendSync,
    /// Scope mutates flow lifecycle state: trace-coverage applies.
    TraceCovered,
    /// Declares that this scope emits its trace events indirectly
    /// (satisfies trace-coverage without a literal `trace.push`).
    EmitsTrace,
    /// Documents the lock acquisition order for the file, discharging the
    /// shared-state lock audit.
    LockOrder(String),
}

/// Kind of a parsed item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free function, method, or default trait method).
    Fn,
    /// `mod` with a body.
    Mod,
    /// `impl` block.
    Impl,
    /// `trait` definition.
    Trait,
    /// `struct`, `enum` or `union` definition.
    Type,
    /// `static` or `const` item.
    Static,
    /// Anything else we skip over structurally (`use`, `type`, macros).
    Other,
}

/// One node of the item tree.
#[derive(Clone, Debug)]
pub struct Item {
    /// What kind of item.
    pub kind: ItemKind,
    /// Declared name (type name for impls), or empty when anonymous.
    pub name: String,
    /// 1-based line of the introducing keyword.
    pub line: u32,
    /// True when the item is test-only (`#[cfg(test)]`, `#[test]`, or any
    /// ancestor is).
    pub is_test: bool,
    /// Directives attached directly to this item.
    pub directives: Vec<Directive>,
    /// Full token range of the item (keyword through closing brace or
    /// semicolon), comments included.
    pub span: Range<usize>,
    /// Token range strictly inside the body braces, when there is one.
    pub body: Option<Range<usize>>,
    /// Nested items (for `mod`, `impl`, `trait`).
    pub children: Vec<Item>,
}

/// A fully parsed source file, ready for the rules.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators (diagnostic label).
    pub path: String,
    /// Raw source lines, for snippets.
    pub lines: Vec<String>,
    /// All tokens, comments included.
    pub toks: Vec<Tok>,
    /// Top-level item tree.
    pub items: Vec<Item>,
    /// File-wide directives (`madlint: file: ...`, anywhere in the file).
    pub file_directives: Vec<Directive>,
    /// Line → rules allowed on exactly that line.
    pub line_allows: BTreeMap<u32, Vec<String>>,
    /// Identifiers declared in this file with `HashMap`/`HashSet` type.
    pub hash_locals: Vec<String>,
    /// True for binary entry points (`main.rs`, `src/bin/**`), where
    /// `std::env` argument access is legitimate.
    pub is_entrypoint: bool,
    /// Directive-syntax problems (unknown markers, malformed allows).
    pub errors: Vec<String>,
}

impl SourceFile {
    /// Parse `src` into tokens, items and directives.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let toks = crate::lexer::lex(src);
        let mut errors = Vec::new();
        let mut file_directives = Vec::new();
        let mut line_allows: BTreeMap<u32, Vec<String>> = BTreeMap::new();

        // Directive pass: classify every madlint comment up front.
        for t in &toks {
            if t.kind != TokKind::Comment {
                continue;
            }
            match parse_directive_comment(&t.text) {
                DirectiveParse::None => {}
                DirectiveParse::Err(e) => errors.push(format!("{path}:{}: {e}", t.line)),
                DirectiveParse::File(d) => file_directives.push(d),
                DirectiveParse::Scoped(Directive::Allow(rules)) if !t.own_line => {
                    line_allows.entry(t.line).or_default().extend(rules);
                }
                DirectiveParse::Scoped(_) => {
                    // Own-line item directives are consumed by the item
                    // parser below; trailing non-allow markers are inert.
                }
            }
        }

        let mut parser = Parser { toks: &toks };
        let items = parser.items_in(0..toks.len(), false);

        let hash_locals = collect_hash_locals(&toks);
        let fname = path.rsplit('/').next().unwrap_or(path);
        let is_entrypoint = fname == "main.rs" || path.contains("/src/bin/");

        SourceFile {
            path: path.to_string(),
            lines: src.lines().map(str::to_string).collect(),
            toks,
            items,
            file_directives,
            line_allows,
            hash_locals,
            is_entrypoint,
            errors,
        }
    }

    /// Trimmed source text of `line` (1-based), for diagnostics.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Outcome of inspecting one comment for a directive.
enum DirectiveParse {
    /// Not a madlint comment.
    None,
    /// `madlint: file: ...`.
    File(Directive),
    /// Item- or line-scoped directive.
    Scoped(Directive),
    /// Malformed or unknown directive — surfaced as an analyzer error so
    /// a typo cannot silently disable a rule.
    Err(String),
}

/// Recognize `// madlint: ...` (or block-comment equivalent).
fn parse_directive_comment(text: &str) -> DirectiveParse {
    let body = text
        .trim_start_matches('/')
        .trim_start_matches('*')
        .trim_end_matches('/')
        .trim_end_matches('*')
        .trim();
    let Some(rest) = body.strip_prefix("madlint:") else {
        return DirectiveParse::None;
    };
    let rest = rest.trim();
    let (file_scope, rest) = match rest.strip_prefix("file:") {
        Some(r) => (true, r.trim()),
        None => (false, rest),
    };
    match parse_directive_spec(rest) {
        Ok(d) if file_scope => DirectiveParse::File(d),
        Ok(d) => DirectiveParse::Scoped(d),
        Err(e) => DirectiveParse::Err(e),
    }
}

fn parse_directive_spec(spec: &str) -> Result<Directive, String> {
    if let Some(rest) = spec.strip_prefix("allow(") {
        let Some(end) = rest.find(')') else {
            return Err("malformed madlint allow: missing `)`".into());
        };
        let rules: Vec<String> = rest[..end]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            return Err("malformed madlint allow: no rules listed".into());
        }
        for r in &rules {
            if !crate::diag::RuleId::ALL.iter().any(|id| id.name() == r) {
                return Err(format!("madlint allow names unknown rule `{r}`"));
            }
        }
        return Ok(Directive::Allow(rules));
    }
    if let Some(rest) = spec.strip_prefix("lock-order:") {
        return Ok(Directive::LockOrder(rest.trim().to_string()));
    }
    // Marker word, optionally followed by free-text rationale.
    let word = spec.split_whitespace().next().unwrap_or("");
    match word {
        "hot-path" => Ok(Directive::HotPath),
        "deterministic-output" => Ok(Directive::DeterministicOutput),
        "scoring" => Ok(Directive::Scoring),
        "send-sync" => Ok(Directive::SendSync),
        "trace-covered" => Ok(Directive::TraceCovered),
        "emits-trace" => Ok(Directive::EmitsTrace),
        other => Err(format!("unknown madlint directive `{other}`")),
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
}

impl Parser<'_> {
    /// Parse the items in `range` (the inside of a block, or the whole
    /// file). `in_test` marks an enclosing test scope.
    fn items_in(&mut self, range: Range<usize>, in_test: bool) -> Vec<Item> {
        let mut items = Vec::new();
        let mut pending_dirs: Vec<Directive> = Vec::new();
        let mut pending_test = false;
        let mut i = range.start;
        while i < range.end {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Comment => {
                    if t.own_line {
                        if let DirectiveParse::Scoped(d) = parse_directive_comment(&t.text) {
                            pending_dirs.push(d);
                        }
                    }
                    i += 1;
                }
                TokKind::Punct if t.text == "#" => {
                    let (attr_toks, next) = self.attr(i, range.end);
                    if attr_is_test(attr_toks) {
                        pending_test = true;
                    }
                    i = next;
                }
                TokKind::Ident => {
                    let start = i;
                    match t.text.as_str() {
                        "pub" => {
                            i += 1;
                            // pub(crate) / pub(in path)
                            if self.toks.get(i).is_some_and(|t| t.is_punct("(")) {
                                i = self.matching(i, range.end, "(", ")");
                            }
                            continue; // modifiers keep pending state
                        }
                        "unsafe" | "async" | "default" => {
                            i += 1;
                            continue;
                        }
                        "extern" => {
                            i += 1;
                            if self.toks.get(i).is_some_and(|t| t.kind == TokKind::Literal) {
                                i += 1;
                            }
                            // `extern "C" { ... }` block: treat as opaque.
                            if self.toks.get(i).is_some_and(|t| t.is_punct("{")) {
                                i = self.matching(i, range.end, "{", "}");
                                pending_dirs.clear();
                                pending_test = false;
                            }
                            continue;
                        }
                        "const" if self.toks.get(i + 1).is_some_and(|t| t.is_ident("fn")) => {
                            i += 1;
                            continue;
                        }
                        kw @ ("fn" | "mod" | "struct" | "enum" | "union" | "trait" | "impl"
                        | "static" | "const") => {
                            let is_test = in_test || pending_test;
                            let dirs = std::mem::take(&mut pending_dirs);
                            pending_test = false;
                            let item = self.item(kw, start, range.end, is_test, dirs);
                            i = item.span.end;
                            items.push(item);
                        }
                        _ => {
                            // use/type/macro invocations/stray tokens: skip
                            // to the end of the statement.
                            i = self.skip_stmt(i, range.end);
                            pending_dirs.clear();
                            pending_test = false;
                        }
                    }
                }
                _ => {
                    i += 1;
                    pending_dirs.clear();
                    pending_test = false;
                }
            }
        }
        items
    }

    /// Parse one item whose keyword sits at `start`.
    fn item(
        &mut self,
        kw: &str,
        start: usize,
        limit: usize,
        is_test: bool,
        directives: Vec<Directive>,
    ) -> Item {
        let line = self.toks[start].line;
        let (kind, recurse) = match kw {
            "fn" => (ItemKind::Fn, false),
            "mod" => (ItemKind::Mod, true),
            "impl" => (ItemKind::Impl, true),
            "trait" => (ItemKind::Trait, true),
            "struct" | "enum" | "union" => (ItemKind::Type, false),
            "static" | "const" => (ItemKind::Static, false),
            _ => (ItemKind::Other, false),
        };
        let name = self.item_name(kw, start, limit);

        // Find the end: first `;` or a balanced `{ ... }` at bracket
        // depth 0 (parens and square brackets tracked; `<` is not, which
        // is safe because generics cannot contain braces or semicolons).
        let mut depth = 0i32;
        let mut j = start + 1;
        let mut body: Option<Range<usize>> = None;
        while j < limit {
            let t = &self.toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        let close = self.matching(j, limit, "{", "}");
                        body = Some(j + 1..close.saturating_sub(1));
                        j = close;
                        break;
                    }
                    ";" if depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }

        let children = match (&body, recurse) {
            (Some(b), true) => self.items_in(b.clone(), is_test),
            _ => Vec::new(),
        };

        Item {
            kind,
            name,
            line,
            is_test,
            directives,
            span: start..j.min(limit),
            body,
            children,
        }
    }

    /// Resolve the display name for an item.
    fn item_name(&self, kw: &str, start: usize, limit: usize) -> String {
        match kw {
            "impl" => {
                // `impl<G> Trait for Type {` → Type; `impl Type {` → Type.
                let mut for_seen = false;
                let mut name = String::new();
                let mut j = start + 1;
                while j < limit {
                    let t = &self.toks[j];
                    if t.is_punct("{") || t.is_punct(";") {
                        break;
                    }
                    if t.is_ident("for") {
                        for_seen = true;
                        name.clear();
                    } else if t.kind == TokKind::Ident && name.is_empty() {
                        name = t.text.clone();
                        if for_seen {
                            break;
                        }
                    }
                    j += 1;
                }
                name
            }
            "static" | "const" => {
                // Optional `mut`, then the name.
                let mut j = start + 1;
                while j < limit {
                    let t = &self.toks[j];
                    if t.kind == TokKind::Ident && t.text != "mut" {
                        return t.text.clone();
                    }
                    if t.kind != TokKind::Comment && !t.is_ident("mut") {
                        break;
                    }
                    j += 1;
                }
                String::new()
            }
            _ => self
                .sig_after(start)
                .map(|t| t.text.clone())
                .unwrap_or_default(),
        }
    }

    /// First significant token after `start`.
    fn sig_after(&self, start: usize) -> Option<&Tok> {
        self.toks[start + 1..]
            .iter()
            .find(|t| t.kind != TokKind::Comment)
    }

    /// Given `open` at an opening bracket, return the index just past its
    /// matching close (clamped to `limit`).
    fn matching(&self, open: usize, limit: usize, ob: &str, cb: &str) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < limit {
            let t = &self.toks[j];
            if t.kind == TokKind::Punct {
                if t.text == ob {
                    depth += 1;
                } else if t.text == cb {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            j += 1;
        }
        limit
    }

    /// Skip a non-item statement: to `;` at depth 0, or past one balanced
    /// brace block (macro invocations like `macro_rules!` / `thread_local!`).
    fn skip_stmt(&self, start: usize, limit: usize) -> usize {
        let mut depth = 0i32;
        let mut j = start;
        while j < limit {
            let t = &self.toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => return self.matching(j, limit, "{", "}"),
                    ";" if depth == 0 => return j + 1,
                    _ => {}
                }
            }
            j += 1;
        }
        limit
    }

    /// Parse an attribute starting at the `#`; returns its inner token
    /// slice and the index after the closing `]`.
    fn attr(&self, hash: usize, limit: usize) -> (&[Tok], usize) {
        let mut j = hash + 1;
        // Inner attribute `#![...]`.
        if self.toks.get(j).is_some_and(|t| t.is_punct("!")) {
            j += 1;
        }
        if !self.toks.get(j).is_some_and(|t| t.is_punct("[")) {
            return (&[], hash + 1);
        }
        let close = self.matching(j, limit, "[", "]");
        (&self.toks[j + 1..close.saturating_sub(1)], close)
    }
}

/// True when an attribute body marks test-only code: `test`, `cfg(test)`,
/// or any `cfg(...)` whose argument list mentions `test`.
fn attr_is_test(inner: &[Tok]) -> bool {
    let sig: Vec<&Tok> = inner
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    match sig.first() {
        Some(t) if t.is_ident("test") => true,
        Some(t) if t.is_ident("cfg") => sig.iter().skip(1).any(|t| t.is_ident("test")),
        _ => false,
    }
}

/// Collect identifiers that this file declares with a `HashMap`/`HashSet`
/// type: `name: [path::]HashMap<..>` annotations (fields, params, lets)
/// and `let name = HashMap::new()`-style constructions. Purely local, by
/// design: cross-file type resolution is out of scope for the offline
/// parser and the rule documents that limitation.
fn collect_hash_locals(toks: &[Tok]) -> Vec<String> {
    let sig: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let mut names = Vec::new();
    let is_hash = |t: &Tok| t.is_ident("HashMap") || t.is_ident("HashSet");
    for w in 0..sig.len() {
        // `name : [idents and colons only] HashMap` — a `<` before the
        // HashMap means it is nested inside another generic (`Vec<HashMap>`),
        // where iterating `name` itself is fine.
        if sig[w].kind == TokKind::Ident && w + 2 < sig.len() && sig[w + 1].is_punct(":") {
            let mut k = w + 2;
            let mut steps = 0;
            while k < sig.len() && steps < 8 {
                if is_hash(sig[k]) {
                    names.push(sig[w].text.clone());
                    break;
                }
                let path_tok = sig[k].kind == TokKind::Ident
                    || sig[k].kind == TokKind::Lifetime
                    || sig[k].is_punct(":")
                    || sig[k].is_punct("&");
                if !path_tok {
                    break;
                }
                k += 1;
                steps += 1;
            }
        }
        // `let [mut] name = ... HashMap :: ctor ... ;`
        if sig[w].is_ident("let") {
            let mut k = w + 1;
            if sig.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let Some(name_tok) = sig.get(k) else { continue };
            if name_tok.kind != TokKind::Ident || !sig.get(k + 1).is_some_and(|t| t.is_punct("=")) {
                continue;
            }
            let mut j = k + 2;
            let mut steps = 0;
            while j + 1 < sig.len() && steps < 24 && !sig[j].is_punct(";") {
                if is_hash(sig[j]) && sig[j + 1].is_punct(":") {
                    names.push(name_tok.text.clone());
                    break;
                }
                j += 1;
                steps += 1;
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn nested_items_and_test_scoping() {
        let f = parse(
            "pub fn top() {}\n\
             pub struct S { x: u32 }\n\
             impl S {\n    pub fn method(&self) {}\n}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn check() {}\n}\n",
        );
        assert_eq!(f.items.len(), 4);
        assert_eq!(f.items[0].kind, ItemKind::Fn);
        assert_eq!(f.items[0].name, "top");
        assert!(!f.items[0].is_test);
        assert_eq!(f.items[2].kind, ItemKind::Impl);
        assert_eq!(f.items[2].name, "S");
        assert_eq!(f.items[2].children.len(), 1);
        assert_eq!(f.items[2].children[0].name, "method");
        let tests = &f.items[3];
        assert!(tests.is_test);
        assert!(tests.children.iter().all(|c| c.is_test));
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let f = parse("impl<T: Clone> Strategy for Bulk<T> { fn go(&self) {} }\n");
        assert_eq!(f.items[0].name, "Bulk");
    }

    #[test]
    fn directives_attach_to_items_and_files() {
        let f = parse(
            "// madlint: file: hot-path\n\
             // madlint: deterministic-output\npub fn export() {}\n\
             pub fn other() {}\n",
        );
        assert_eq!(f.file_directives, vec![Directive::HotPath]);
        assert_eq!(f.items[0].directives, vec![Directive::DeterministicOutput]);
        assert!(f.items[1].directives.is_empty());
    }

    #[test]
    fn trailing_allow_is_line_scoped() {
        let f = parse("fn f() {\n    let x = 1; // madlint: allow(panic-path) — fixture\n}\n");
        assert_eq!(
            f.line_allows.get(&2).map(Vec::as_slice),
            Some(&["panic-path".to_string()][..])
        );
    }

    #[test]
    fn unknown_directives_are_errors() {
        let f = parse("// madlint: hotpath\nfn f() {}\n");
        assert_eq!(f.errors.len(), 1, "{:?}", f.errors);
        let f = parse("// madlint: allow(no-such-rule)\nfn f() {}\n");
        assert_eq!(f.errors.len(), 1, "{:?}", f.errors);
    }

    #[test]
    fn hash_locals_found_by_annotation_and_ctor() {
        let f = parse(
            "struct S { table: HashMap<u32, u32>, list: Vec<HashMap<u32, u32>> }\n\
             fn f(seen: &mut HashSet<u64>) {\n    let by_id = HashMap::new();\n}\n",
        );
        assert_eq!(f.hash_locals, vec!["by_id", "seen", "table"]);
    }

    #[test]
    fn entrypoints_detected() {
        assert!(SourceFile::parse("crates/x/src/main.rs", "fn main() {}").is_entrypoint);
        assert!(SourceFile::parse("crates/x/src/bin/t.rs", "fn main() {}").is_entrypoint);
        assert!(!SourceFile::parse("crates/x/src/lib.rs", "").is_entrypoint);
    }
}

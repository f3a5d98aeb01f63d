//! # mad-bench — experiment harness
//!
//! Reproduces every evaluation claim of the HPDC'06 paper as a numbered
//! experiment (E1–E11, indexed in `DESIGN.md`), each printing a table that
//! `EXPERIMENTS.md` records. Run them with
//!
//! ```text
//! cargo run -p mad-bench --release --bin experiments -- all
//! cargo run -p mad-bench --release --bin experiments -- e1 e7
//! ```
//!
//! Every experiment describes its cell with `ClusterSpec`'s constructors
//! — `ClusterSpec::mx_pair().config(cfg)`, `ClusterSpec::new(2, rails)
//! .engine(kind).with_tracing(cap)` — and builds its workload with
//! `madware::scenario::traffic` (a `TrafficApp` on every node),
//! `traffic_pair` (one source, one sink) or `eager_flows` (the E1
//! workload on any cell).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diffcells;
pub mod experiments;
pub mod regression;
pub mod table;
pub mod tracecli;

pub use table::Table;

/// One experiment's rendered output.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment id, e.g. "E1".
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// The paper claim being reproduced.
    pub claim: &'static str,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Free-form observations (appended under the tables).
    pub notes: Vec<String>,
    /// Machine-readable artifacts as `(file name, contents)` — e.g. a
    /// madtrace Chrome export or a metrics-registry document. Written to
    /// disk by the runner's `--trace-out` flag.
    pub artifacts: Vec<(String, String)>,
}

impl Report {
    /// Render the full report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id, self.title));
        out.push_str(&format!("   paper: {}\n\n", self.claim));
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("   note: {n}\n"));
        }
        for (name, contents) in &self.artifacts {
            out.push_str(&format!(
                "   artifact: {name} ({} bytes; use --trace-out to write)\n",
                contents.len()
            ));
        }
        out
    }
}

/// Format a float with adaptive precision for table cells.
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

/// Format a byte count compactly (powers of two).
pub fn fmt_bytes(n: u64) -> String {
    if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
        format!("{}MiB", n >> 20)
    } else if n >= 1 << 10 && n.is_multiple_of(1 << 10) {
        format!("{}KiB", n >> 10)
    } else {
        format!("{n}B")
    }
}

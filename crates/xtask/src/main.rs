//! Workspace automation, invoked as `cargo xtask <command>`.
//!
//! Commands:
//!
//! * `analyze` — run the madlint AST analyzer, then the madcheck static
//!   conformance analyzer over every registered strategy × every driver
//!   capability profile. Exits non-zero (printing a minimized
//!   counterexample) if any strategy can emit a plan that violates the
//!   plan constraints or a driver capability bound, then runs every row
//!   of `madcheck::RULES` — the last is madfuzz, which replays its
//!   committed corpus and judges `--samples / 4` drawn scenarios by every
//!   run-level oracle (safety, conservation, the metrics export, the
//!   profile partition, same-seed replay and self-diff, the Nagle delta
//!   partition, observation, load monotonicity; a traced draw's Chrome
//!   export must also read back and replay byte for byte).
//! * `lint` — run the madlint AST pass (determinism, panic hygiene,
//!   concurrency readiness, trace coverage, hot-path linear scans; see
//!   `crates/madlint`), plus
//!   `cargo fmt --check` when rustfmt is installed. `--json` emits the
//!   machine-readable diagnostics document; the exit code is stable per
//!   failure class (see `madlint::diag`).
//! * `bench` — run the madscope smoke suite (one point each of E1, E2,
//!   E7 and E12 plus a sampler-instrumented replay) and write the
//!   schema-versioned `BENCH_<label>.json` gate document, the sampler
//!   CSV and the `BENCH_<label>_diffseeds.json` maddiff seed bundle;
//!   `--check <baseline>` compares the fresh run against a committed
//!   baseline and exits non-zero on regression. On a gate failure, each
//!   violated metric's diff cell is re-run against the committed seed
//!   bundle next to the baseline and a `BENCH_diff_<metric>.md`
//!   root-cause report (phase share deltas, rail/strategy migrations,
//!   first divergent decision) is written to the output directory.
//!
//! No external dependencies: argument parsing is by hand and the analyzer
//! runs in-process.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[cfg(test)]
mod chrome_reference;

use madcheck::AnalyzeOptions;
use madeleine::strategy::StrategyRegistry;
use madeleine::EngineConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("lint") => lint_cmd(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  analyze   madlint AST lints + static conformance analysis of all
            registered strategies against every driver capability
            profile, plus the retransmit, flow-index, topology and
            collective rules and madfuzz (corpus replay + drawn
            scenarios under every run-level oracle)
              --broken-fixture   also register the deliberately broken
                                 fixture strategies (expected to fail)
              --seed <u64>       corpus seed (default: stable)
              --samples <n>      sampled backlogs per profile (default 64;
                                 madfuzz draws n / 4 scenarios)
              --skip-lints       conformance analysis only
  bench     madscope regression gate: run the E1/E2/E7/E12 smoke suite
            plus a sampler replay, write BENCH_<label>.json,
            BENCH_<label>_sampler.csv and the maddiff seed bundle
            BENCH_<label>_diffseeds.json
              --label <name>     document label / file stem (default: baseline)
              --out <dir>        output directory (default: repo root)
              --check <file>     compare against a baseline BENCH_*.json
                                 and exit non-zero on any regression;
                                 on failure, re-run each violated
                                 metric's maddiff cell against the
                                 committed <file stem>_diffseeds.json
                                 and write BENCH_diff_<metric>.md
              --threshold <f>    per-metric regression budget as a
                                 fraction of the baseline (default 0.05)
  lint      madlint AST pass only (+ cargo fmt --check when available)
              --json             machine-readable diagnostics on stdout
            exit codes: 0 clean, 2 determinism, 3 panic-hygiene,
            4 concurrency, 5 trace-coverage, 6 complexity,
            1 mixed classes, 64 error
  help      this text
";

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

// ---------------------------------------------------------------------------
// analyze
// ---------------------------------------------------------------------------

fn analyze(args: &[String]) -> ExitCode {
    let mut opts = AnalyzeOptions::default();
    let mut broken = false;
    let mut skip_lints = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--broken-fixture" => broken = true,
            "--skip-lints" => skip_lints = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => return flag_error("--seed expects an unsigned integer"),
            },
            "--samples" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.samples = v,
                None => return flag_error("--samples expects an unsigned integer"),
            },
            other => return flag_error(&format!("unknown flag `{other}`")),
        }
    }

    let mut ok = true;
    if !skip_lints {
        ok &= lint_for_analyze();
    }

    let mut registry = StrategyRegistry::standard(&EngineConfig::default());
    if broken {
        registry.register(Box::new(madcheck::fixtures::SkewedOffset));
        registry.register(Box::new(madcheck::fixtures::GatherHog));
        registry.register(Box::new(madcheck::fixtures::EagerRequester));
        registry.register(Box::new(madcheck::fixtures::OtherRail));
    }
    let report = madcheck::analyze(&registry, &opts);
    print!("{report}");
    ok &= report.is_clean();

    for rule in madcheck::RULES {
        let sweep = rule(&opts);
        print!("{sweep}");
        ok &= sweep.is_clean();
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn flag_error(msg: &str) -> ExitCode {
    eprintln!("xtask analyze: {msg}");
    ExitCode::FAILURE
}

// ---------------------------------------------------------------------------
// bench (madscope regression gate)
// ---------------------------------------------------------------------------

fn bench(args: &[String]) -> ExitCode {
    use mad_bench::regression::{self, BenchDoc, Direction};

    let mut label = String::from("baseline");
    let mut out_dir = repo_root();
    let mut check_path: Option<PathBuf> = None;
    let mut threshold = regression::DEFAULT_THRESHOLD;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--label" => match it.next() {
                Some(v)
                    if !v.is_empty()
                        && v.chars()
                            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') =>
                {
                    label = v.clone();
                }
                _ => return bench_error("--label expects [A-Za-z0-9_-]+"),
            },
            "--out" => match it.next() {
                Some(v) => out_dir = PathBuf::from(v),
                None => return bench_error("--out expects a directory"),
            },
            "--check" => match it.next() {
                Some(v) => check_path = Some(PathBuf::from(v)),
                None => return bench_error("--check expects a baseline file"),
            },
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 && v.is_finite() => threshold = v,
                _ => return bench_error("--threshold expects a non-negative fraction"),
            },
            other => return bench_error(&format!("unknown flag `{other}`")),
        }
    }

    println!("xtask bench: running madscope smoke suite (label `{label}`)");
    let suite = regression::run_suite(&label);
    for m in &suite.doc.metrics {
        println!(
            "  {:<28} {:>14.3}  [{}]",
            m.name,
            m.value,
            m.direction.label()
        );
    }

    if let Err(e) = fs::create_dir_all(&out_dir) {
        return bench_error(&format!("cannot create {}: {e}", out_dir.display()));
    }
    let json_path = out_dir.join(format!("BENCH_{label}.json"));
    let csv_path = out_dir.join(format!("BENCH_{label}_sampler.csv"));
    let mut doc_text = suite.doc.render();
    doc_text.push('\n');
    if let Err(e) = fs::write(&json_path, &doc_text) {
        return bench_error(&format!("cannot write {}: {e}", json_path.display()));
    }
    if let Err(e) = fs::write(&csv_path, &suite.sampler_csv) {
        return bench_error(&format!("cannot write {}: {e}", csv_path.display()));
    }
    let seeds_path = out_dir.join(format!("BENCH_{label}_diffseeds.json"));
    let mut seeds_text = mad_bench::diffcells::write_seeds(&label);
    seeds_text.push('\n');
    if let Err(e) = fs::write(&seeds_path, &seeds_text) {
        return bench_error(&format!("cannot write {}: {e}", seeds_path.display()));
    }
    println!(
        "xtask bench: wrote {}, {} and {}",
        json_path.display(),
        csv_path.display(),
        seeds_path.display()
    );

    let Some(base_path) = check_path else {
        return ExitCode::SUCCESS;
    };
    let base_text = match fs::read_to_string(&base_path) {
        Ok(t) => t,
        Err(e) => return bench_error(&format!("cannot read {}: {e}", base_path.display())),
    };
    let base = match BenchDoc::parse(&base_text) {
        Ok(d) => d,
        Err(e) => return bench_error(&format!("{}: {e}", base_path.display())),
    };
    let violations = regression::check(&base, &suite.doc, threshold);
    if violations.is_empty() {
        let gated = base
            .metrics
            .iter()
            .filter(|m| m.direction != Direction::Info)
            .count();
        println!(
            "xtask bench: gate passed vs {} ({gated} gated metrics within {:.1}%)",
            base_path.display(),
            threshold * 100.0
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask bench: gate FAILED vs {} ({} violations):",
            base_path.display(),
            violations.len()
        );
        for v in &violations {
            println!("  {v}");
        }
        bench_diff_reports(&base_path, &out_dir, &violations);
        ExitCode::FAILURE
    }
}

/// maddiff root-cause attribution for a failed gate: re-run each
/// violated metric's traced diff cell on the current code, align it
/// against the committed seed bundle next to the baseline document, and
/// write one `BENCH_diff_<metric>.md` per violated metric. Missing or
/// unparseable seed bundles degrade to a note — the gate verdict never
/// depends on this path.
fn bench_diff_reports(base_path: &Path, out_dir: &Path, violations: &[String]) {
    use mad_bench::diffcells;

    let seeds_path = match base_path.file_name().and_then(|n| n.to_str()) {
        Some(name) => match name.strip_suffix(".json") {
            Some(stem) => base_path.with_file_name(format!("{stem}_diffseeds.json")),
            None => base_path.with_file_name(format!("{name}_diffseeds.json")),
        },
        None => return,
    };
    let seeds_text = match fs::read_to_string(&seeds_path) {
        Ok(t) => t,
        Err(e) => {
            println!(
                "xtask bench: no maddiff seed bundle at {} ({e}); skipping root-cause reports",
                seeds_path.display()
            );
            return;
        }
    };
    let seeds = match diffcells::parse_seeds(&seeds_text) {
        Ok(s) => s,
        Err(e) => {
            println!(
                "xtask bench: cannot parse {}: {e}; skipping root-cause reports",
                seeds_path.display()
            );
            return;
        }
    };

    // Several violations usually map to one cell; re-run each cell once.
    let mut fresh: std::collections::BTreeMap<&str, madeleine::RunSnapshot> =
        std::collections::BTreeMap::new();
    for v in violations {
        let metric = v.split(':').next().unwrap_or(v).trim();
        let Some(cell) = diffcells::cell_for_metric(metric) else {
            println!("xtask bench: no maddiff cell maps to `{metric}`; skipping");
            continue;
        };
        let Some(baseline) = seeds.get(cell.name) else {
            println!(
                "xtask bench: seed bundle {} has no cell `{}`; skipping `{metric}`",
                seeds_path.display(),
                cell.name
            );
            continue;
        };
        let snap = fresh
            .entry(cell.name)
            .or_insert_with(|| (cell.build)(0).run_snapshot(cell.name));
        let report = diffcells::root_cause_report(metric, v, baseline, snap);
        let path = out_dir.join(format!("BENCH_diff_{metric}.md"));
        match fs::write(&path, report) {
            Ok(()) => println!("xtask bench: wrote root-cause report {}", path.display()),
            Err(e) => println!("xtask bench: cannot write {}: {e}", path.display()),
        }
    }
}

fn bench_error(msg: &str) -> ExitCode {
    eprintln!("xtask bench: {msg}");
    ExitCode::FAILURE
}

// ---------------------------------------------------------------------------
// the golden Chrome export's workload
// ---------------------------------------------------------------------------

/// The smoke workload, run to completion: eight 96-byte messages on one
/// flow of a traced MX pair (the golden Chrome export's run).
#[cfg(test)]
fn trace_smoke_cell() -> madeleine::Cluster {
    use madeleine::{Cluster, ClusterSpec, MessageBuilder, TrafficClass};
    let mut c = Cluster::build(&ClusterSpec::mx_pair().with_tracing(4096), vec![]);
    let src = c.nodes[0];
    let dst = c.nodes[1];
    let h = c.handles[0].clone();
    let flow = h.open_flow(dst, TrafficClass::DEFAULT);
    for i in 0..8u8 {
        c.sim.inject(src, |ctx| {
            h.send(
                ctx,
                flow,
                MessageBuilder::new().pack_cheaper(&[i; 96]).build_parts(),
            )
        });
    }
    c.drain();
    c
}

// ---------------------------------------------------------------------------
// madlint (the AST source analyzer; replaced the old substring lints)
// ---------------------------------------------------------------------------

/// `cargo xtask lint [--json]`: run the madlint AST pass over the
/// workspace. Text mode also runs `cargo fmt --check` when rustfmt is
/// available; `--json` prints only the machine-readable document so CI
/// can parse stdout. Exit codes are stable per failure class
/// (`madlint::FailureClass`), `1` for mixed classes, `64` for analyzer
/// errors, and `101` is reserved for format failures so they cannot be
/// confused with a lint class.
fn lint_cmd(args: &[String]) -> ExitCode {
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other => {
                eprintln!("xtask lint: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = madlint::lint_workspace(repo_root().as_path());
    if json {
        print!("{}", report.render_json());
        return ExitCode::from(report.exit_code());
    }
    print!("{}", report.render_text());
    if report.exit_code() != 0 {
        return ExitCode::from(report.exit_code());
    }
    match std::process::Command::new("cargo")
        .args(["fmt", "--check"])
        .current_dir(repo_root())
        .status()
    {
        Ok(st) if st.success() => {
            println!("xtask lint: cargo fmt --check passed");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            println!("xtask lint: cargo fmt --check FAILED (run `cargo fmt`)");
            ExitCode::from(101)
        }
        Err(_) => {
            println!("xtask lint: rustfmt unavailable, skipping format check");
            ExitCode::SUCCESS
        }
    }
}

/// In-process madlint run for `analyze`: prints findings (text) and
/// returns cleanliness.
fn lint_for_analyze() -> bool {
    let report = madlint::lint_workspace(repo_root().as_path());
    print!("{}", report.render_text());
    report.is_clean()
}

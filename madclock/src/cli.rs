//! Command line.
//!
//! ```text
//! madclock --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! madclock all [--seed <n>] [--seconds <s>]
//! madclock compare [--aa] <a.json> <b.json>
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use crate::bench::{self, Report};
use crate::compare;
use crate::surface::{obj, Json};
use crate::workload::Workload;

/// Seed `all` uses when none is given.
pub const DEFAULT_SEED: u64 = 11;

/// Seconds one measurement lasts when none are given; `BENCHMARK.json`'s
/// `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// The command line always runs the workloads at the size they were
/// designed at; only the tests scale them down.
const FULL_SCALE: f64 = 1.0;

const USAGE: &str = "usage:
  madclock --workload <name> --seed <n> --seconds <s> --trace <0|1>
  madclock all [--seed <n>] [--seconds <s>]
  madclock compare [--aa] <a.json> <b.json>
workloads: flowscale_drain burst_fewflows rpc_pingpong fabric_perm lossy_multirail observe_pipeline";

/// Where span files and full reports go: `madclock/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                out.workload =
                    Some(Workload::parse(value).ok_or_else(|| format!("no workload {value}"))?)
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// Entry point.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => Err(USAGE.to_string()),
        Some("all") => parse_flags(&args[1..]).and_then(|a| run_all(&a)),
        Some("compare") => compare::main(&args[1..]),
        Some(_) => parse_flags(&args).and_then(|a| run_one(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("madclock: {msg}");
            ExitCode::from(2)
        }
    }
}

fn report_path(workload: &str, trace: bool) -> PathBuf {
    let kind = if trace { "layers" } else { "e2e" };
    out_dir().join(format!("{workload}.{kind}.json"))
}

fn write_out(path: &PathBuf, doc: &Json) -> Result<(), String> {
    fs::create_dir_all(out_dir())
        .and_then(|()| fs::write(path, doc.render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The driver's mode: one workload, one measurement, the result as the
/// last line of standard output.
fn run_one(a: &Args) -> Result<bool, String> {
    let w = a.workload.ok_or("--workload is required")?;
    let report = if a.trace {
        let (report, spans) = bench::per_layer(w, a.seed, a.seconds, FULL_SCALE);
        write_out(
            &out_dir().join(format!("{}.spans.json", w.name())),
            &spans.to_json(),
        )?;
        report
    } else {
        bench::end_to_end(w, a.seed, a.seconds, FULL_SCALE)
    };
    write_out(&report_path(w.name(), a.trace), &report.to_json())?;
    for v in &report.violations {
        eprintln!("madclock: {}: {v}", report.workload);
    }
    println!("{}", report.result_line().render());
    Ok(report.correct)
}

/// Every workload, end to end and per layer, one child process each so
/// that peak memory is the workload's own.
fn run_all(a: &Args) -> Result<bool, String> {
    if a.workload.is_some() || a.trace {
        return Err("all takes only --seed and --seconds".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut workloads = Vec::new();
    let mut correct = true;
    for w in Workload::ALL {
        let mut halves = Vec::new();
        for trace in [false, true] {
            eprintln!(
                "madclock: {} ({})",
                w.name(),
                if trace { "per layer" } else { "end to end" }
            );
            let status = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            // Exit code 1 is a finished run whose outputs were wrong; its
            // report says why. Anything else is a crash.
            if !matches!(status.code(), Some(0 | 1)) {
                return Err(format!(
                    "{} --trace {} died: {status}",
                    w.name(),
                    trace as u8
                ));
            }
            let path = report_path(w.name(), trace);
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            correct &= doc.get("correct") == Some(&Json::Bool(true));
            halves.push(doc);
        }
        workloads.push(
            obj()
                .field("workload", w.name())
                .field("end_to_end", halves.remove(0))
                .field("per_layer", halves.remove(0))
                .build(),
        );
    }
    let doc = obj()
        .field("benchmark", "madclock")
        .field("seed", a.seed)
        .field("seconds", a.seconds)
        .field("correct", correct)
        .field("workloads", workloads)
        .build();
    println!("{}", doc.render());
    Ok(correct)
}

impl Report {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        let mut metrics = obj();
        for r in &self.readings {
            metrics = metrics.field(
                r.name,
                obj().field("value", r.value).field("unit", r.unit).build(),
            );
        }
        obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics.build())
            .build()
    }

    /// The full report: the result line's content plus the failed share,
    /// the oracle's findings and the samples behind every median.
    pub fn to_json(&self) -> Json {
        let mut metrics = obj();
        for r in &self.readings {
            let samples: Vec<Json> = r.samples.iter().map(|&s| Json::Float(s)).collect();
            metrics = metrics.field(
                r.name,
                obj()
                    .field("value", r.value)
                    .field("unit", r.unit)
                    .field("samples", samples)
                    .build(),
            );
        }
        let violations: Vec<Json> = self.violations.iter().map(|v| v.as_str().into()).collect();
        obj()
            .field("workload", self.workload)
            .field("seed", self.seed)
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field(
                "failed_share",
                self.failed as f64 / self.attempted.max(1) as f64,
            )
            .field("repeats", self.repeats)
            .field("violations", violations)
            .field("metrics", metrics.build())
            .build()
    }
}

//! Workload-trace tool: generate, inspect and replay `madeleine-trace`
//! files.
//!
//! ```text
//! trace-tool sample <out.trace> [seed]        # generate a sample workload
//! trace-tool info <file.trace|file.json>      # summarize a trace or export
//! trace-tool replay <file.trace> [--legacy] [--tech mx|elan|ib|tcp|shm]
//! trace-tool compare <file.trace> [--tech ...]  # optimizer vs legacy, same input
//! trace-tool export <file.trace> <out.json> [--legacy] [--tech ...]
//! trace-tool explain <file.trace> [--activation N] [--tech ...]
//! trace-tool stats <file.trace> [--tick US] [--csv out.csv] [--tech ...]
//! trace-tool profile <file.trace|file.json> [--top N] [--folded out.folded]
//!                    [--csv out.csv] [--allow-overflow] [--tech ...]
//! trace-tool snapshot <file.trace|file.json> <out.json> [--label NAME] [--tech ...]
//! trace-tool diff <a> <b> [--top N] [--folded out.folded] [--json out.json]
//!                 [--allow-overflow] [--tech ...]
//! ```
//!
//! `export` replays the workload with full madtrace instrumentation and
//! writes a Chrome trace-event JSON (Perfetto / `about:tracing` loadable);
//! `explain` prints, for one optimizer activation, every plan proposed,
//! its veto or score, and the winner; `stats` replays with the madscope
//! sampler enabled and prints latency percentile tables plus ASCII
//! backlog/utilization timelines (`--csv` also writes the raw
//! time-series); `profile` is madprof — per-message latency attribution
//! (admission/rndv/decision/retx/wire) with the top-N-slowest explain
//! table and the run critical path, from either a workload trace
//! (replayed traced) or an existing madtrace Chrome export (`--folded`
//! writes inferno-compatible folded stacks, `--csv` the attribution
//! table). When any event ring overflowed, `profile` and `diff` print
//! their report under a warning and exit nonzero, so nothing silently
//! analyzes a truncated run; `--allow-overflow` keeps the warning and
//! exits zero.
//!
//! `snapshot` captures a run's profile as a maddiff snapshot artifact
//! (a committed-baseline half of a diff); `diff` is maddiff — it aligns
//! two runs by message identity (each side may be a snapshot, a Chrome
//! export, or a workload trace) and reports per-phase latency deltas,
//! rail/strategy migrations, critical-path divergence and the first
//! divergent optimizer decision (`--folded` writes two-column
//! differential folded stacks for inferno's diff-folded mode).

use mad_bench::tracecli;
use madware::trace::Trace;
use simnet::Technology;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage:\n  trace-tool sample <out.trace> [seed]\n  trace-tool info <file>\n  \
         trace-tool replay <file> [--legacy] [--tech mx|elan|ib|tcp|shm]\n  \
         trace-tool compare <file> [--tech mx|elan|ib|tcp|shm]\n  \
         trace-tool export <file> <out.json> [--legacy] [--tech mx|elan|ib|tcp|shm]\n  \
         trace-tool explain <file> [--activation N] [--tech mx|elan|ib|tcp|shm]\n  \
         trace-tool stats <file> [--tick US] [--csv out.csv] [--tech mx|elan|ib|tcp|shm]\n  \
         trace-tool profile <file> [--top N] [--folded out.folded] [--csv out.csv] \
[--allow-overflow] [--tech mx|elan|ib|tcp|shm]\n  \
         trace-tool snapshot <file> <out.json> [--label NAME] [--tech mx|elan|ib|tcp|shm]\n  \
         trace-tool diff <a> <b> [--top N] [--folded out.folded] [--json out.json] \
[--allow-overflow] [--tech mx|elan|ib|tcp|shm]"
    );
    std::process::exit(2);
}

fn tech_arg(args: &[String]) -> Technology {
    match args.iter().position(|a| a == "--tech") {
        Some(i) => {
            let name = args
                .get(i + 1)
                .unwrap_or_else(|| fail("--tech needs a value"));
            tracecli::parse_tech(name)
                .unwrap_or_else(|| fail(&format!("unknown technology '{name}'")))
        }
        None => Technology::MyrinetMx,
    }
}

/// Exit 1 after an analysis of overflowed rings, unless `--allow-overflow`.
fn refuse_overflow(args: &[String], dropped_events: u64) {
    let allow = args.iter().any(|a| a == "--allow-overflow");
    if let Some(refusal) = tracecli::overflow_refusal(dropped_events, allow) {
        eprintln!("error: {refusal}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sample") => {
            let Some(path) = args.get(1) else {
                fail("sample needs an output path")
            };
            let seed = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(42);
            let t = tracecli::sample(seed);
            std::fs::write(path, t.to_text()).unwrap_or_else(|e| fail(&e.to_string()));
            println!("wrote {} messages to {path}", t.len());
        }
        Some("info") => {
            let Some(path) = args.get(1) else {
                fail("info needs a trace file")
            };
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&e.to_string()));
            // A madtrace Chrome export is also a valid input: report its
            // event count and ring retained/dropped counters.
            if let Some(summary) = tracecli::info_export(&text) {
                print!("{summary}");
                return;
            }
            let t = Trace::from_text(&text).unwrap_or_else(|e| fail(&e.to_string()));
            print!("{}", tracecli::info(&t));
        }
        Some("replay") => {
            let Some(path) = args.get(1) else {
                fail("replay needs a trace file")
            };
            let legacy = args.iter().any(|a| a == "--legacy");
            let tech = tech_arg(&args);
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&e.to_string()));
            let t = Trace::from_text(&text).unwrap_or_else(|e| fail(&e.to_string()));
            print!("{}", tracecli::replay(t, legacy, tech));
        }
        Some("compare") => {
            let Some(path) = args.get(1) else {
                fail("compare needs a trace file")
            };
            let tech = tech_arg(&args);
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&e.to_string()));
            let t = Trace::from_text(&text).unwrap_or_else(|e| fail(&e.to_string()));
            print!("{}", tracecli::compare(t, tech));
        }
        Some("export") => {
            let Some(path) = args.get(1) else {
                fail("export needs a trace file")
            };
            let Some(out) = args.get(2) else {
                fail("export needs an output path")
            };
            let legacy = args.iter().any(|a| a == "--legacy");
            let tech = tech_arg(&args);
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&e.to_string()));
            let t = Trace::from_text(&text).unwrap_or_else(|e| fail(&e.to_string()));
            let (export, _metrics) = tracecli::export(t, legacy, tech);
            std::fs::write(out, &export.json).unwrap_or_else(|e| fail(&e.to_string()));
            println!(
                "wrote {} Chrome trace events to {out} (load in Perfetto or about:tracing)",
                export.events
            );
        }
        Some("explain") => {
            let Some(path) = args.get(1) else {
                fail("explain needs a trace file")
            };
            let activation = args.iter().position(|a| a == "--activation").map(|i| {
                args.get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail("--activation needs a number"))
            });
            let tech = tech_arg(&args);
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&e.to_string()));
            let t = Trace::from_text(&text).unwrap_or_else(|e| fail(&e.to_string()));
            print!("{}", tracecli::explain(t, tech, activation));
        }
        Some("stats") => {
            let Some(path) = args.get(1) else {
                fail("stats needs a trace file")
            };
            let tick = args
                .iter()
                .position(|a| a == "--tick")
                .map(|i| {
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| fail("--tick needs a microsecond count"))
                })
                .unwrap_or(5);
            let csv_out = args.iter().position(|a| a == "--csv").map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| fail("--csv needs a path"))
            });
            let tech = tech_arg(&args);
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&e.to_string()));
            let t = Trace::from_text(&text).unwrap_or_else(|e| fail(&e.to_string()));
            let (report, csv) = tracecli::stats(t, tech, tick);
            print!("{report}");
            if let Some(out) = csv_out {
                std::fs::write(out, &csv).unwrap_or_else(|e| fail(&e.to_string()));
                println!("wrote sampler time-series to {out}");
            }
        }
        Some("profile") => {
            let Some(path) = args.get(1) else {
                fail("profile needs a trace or Chrome-export file")
            };
            let top = args
                .iter()
                .position(|a| a == "--top")
                .map(|i| {
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| fail("--top needs a count"))
                })
                .unwrap_or(10);
            let folded_out = args.iter().position(|a| a == "--folded").map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| fail("--folded needs a path"))
            });
            let csv_out = args.iter().position(|a| a == "--csv").map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| fail("--csv needs a path"))
            });
            let tech = tech_arg(&args);
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&e.to_string()));
            let out = tracecli::profile_input(&text, tech, top).unwrap_or_else(|e| fail(&e));
            print!("{}", out.report);
            if let Some(p) = folded_out {
                std::fs::write(p, &out.folded).unwrap_or_else(|e| fail(&e.to_string()));
                println!("wrote folded stacks to {p} (inferno flamegraph compatible)");
            }
            if let Some(p) = csv_out {
                std::fs::write(p, &out.csv).unwrap_or_else(|e| fail(&e.to_string()));
                println!("wrote per-message attribution to {p}");
            }
            refuse_overflow(&args, out.dropped_events);
        }
        Some("snapshot") => {
            let Some(path) = args.get(1) else {
                fail("snapshot needs a trace, Chrome-export or snapshot file")
            };
            let Some(out_path) = args.get(2) else {
                fail("snapshot needs an output path")
            };
            let label = args
                .iter()
                .position(|a| a == "--label")
                .map(|i| {
                    args.get(i + 1)
                        .unwrap_or_else(|| fail("--label needs a value"))
                        .to_string()
                })
                .unwrap_or_else(|| "baseline".to_string());
            let tech = tech_arg(&args);
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&e.to_string()));
            let snap = tracecli::snapshot_input(&text, tech, &label).unwrap_or_else(|e| fail(&e));
            std::fs::write(out_path, snap.render()).unwrap_or_else(|e| fail(&e.to_string()));
            println!(
                "wrote maddiff snapshot '{label}' ({} messages, {} dropped events) to {out_path}",
                snap.rows.len(),
                snap.dropped_events
            );
        }
        Some("diff") => {
            let (Some(a_path), Some(b_path)) = (args.get(1), args.get(2)) else {
                fail("diff needs two input files (baseline, fresh)")
            };
            let top = args
                .iter()
                .position(|a| a == "--top")
                .map(|i| {
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| fail("--top needs a count"))
                })
                .unwrap_or(10);
            let folded_out = args.iter().position(|a| a == "--folded").map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| fail("--folded needs a path"))
            });
            let json_out = args.iter().position(|a| a == "--json").map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| fail("--json needs a path"))
            });
            let tech = tech_arg(&args);
            let a_text = std::fs::read_to_string(a_path).unwrap_or_else(|e| fail(&e.to_string()));
            let b_text = std::fs::read_to_string(b_path).unwrap_or_else(|e| fail(&e.to_string()));
            let out =
                tracecli::diff_inputs(&a_text, &b_text, tech, top).unwrap_or_else(|e| fail(&e));
            print!("{}", out.report);
            if let Some(p) = folded_out {
                std::fs::write(p, &out.folded).unwrap_or_else(|e| fail(&e.to_string()));
                println!(
                    "wrote differential folded stacks to {p} (inferno diff-folded compatible)"
                );
            }
            if let Some(p) = json_out {
                std::fs::write(p, &out.json).unwrap_or_else(|e| fail(&e.to_string()));
                println!("wrote diff document to {p}");
            }
            refuse_overflow(&args, out.dropped_events);
        }
        _ => fail("missing or unknown subcommand"),
    }
}

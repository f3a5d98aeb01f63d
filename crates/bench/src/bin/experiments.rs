//! Experiment runner: regenerates every table in `EXPERIMENTS.md`.
//!
//! ```text
//! experiments all          # run everything
//! experiments e1 e7        # run selected experiments
//! experiments --list       # list experiment ids
//! experiments --trace-out <dir> e1   # also write madtrace artifacts
//! ```
//!
//! `--trace-out` writes each report's machine-readable artifacts (Chrome
//! trace exports, metrics-registry documents, flight-recorder dumps) into
//! the given directory.

use mad_bench::experiments;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: experiments [--list] [--trace-out <dir>] <all | e1 e2 ...>");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--list") {
        for (id, _) in experiments::all() {
            println!("{id}");
        }
        return;
    }
    let trace_out = match args.iter().position(|a| a == "--trace-out") {
        Some(i) => {
            if i + 1 >= args.len() {
                eprintln!("--trace-out needs a directory");
                std::process::exit(2);
            }
            let dir = args.remove(i + 1);
            args.remove(i);
            std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
                eprintln!("cannot create {dir}: {e}");
                std::process::exit(1);
            });
            Some(dir)
        }
        None => None,
    };
    let ids: Vec<String> = if args.iter().any(|a| a == "all") {
        experiments::all()
            .iter()
            .map(|(id, _)| id.to_string())
            .collect()
    } else {
        args
    };
    for id in ids {
        match experiments::run_by_id(&id) {
            Some(report) => {
                println!("{}", report.render());
                if let Some(dir) = &trace_out {
                    for (name, contents) in &report.artifacts {
                        let path = format!("{dir}/{name}");
                        match std::fs::write(&path, contents) {
                            Ok(()) => println!("   wrote {path}"),
                            Err(e) => {
                                eprintln!("cannot write {path}: {e}");
                                std::process::exit(1);
                            }
                        }
                    }
                }
            }
            None => {
                eprintln!("unknown experiment: {id}");
                std::process::exit(1);
            }
        }
    }
}

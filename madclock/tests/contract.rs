//! `BENCHMARK.json` and the command line agree with the code.

use std::path::Path;
use std::process::Command;

use madclock::catalog::{MetricDef, END_TO_END, PER_LAYER};
use madclock::surface::Json;
use madclock::workload::Workload;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

#[test]
fn benchmark_json_lists_the_code_s_workloads_and_metrics() {
    let doc = benchmark_json();
    let Json::Obj(fields) = &doc else {
        panic!("BENCHMARK.json is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let names: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for w in list(&doc, "workloads") {
        let why = text(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let check = |key: &str, defs: &[MetricDef], bounded: bool| {
        let listed = list(&doc, key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (j, def) in listed.iter().zip(defs) {
            assert_eq!(text(j, "name"), def.name);
            assert_eq!(text(j, "unit"), def.unit, "{}", def.name);
            assert_eq!(text(j, "better"), def.better.label(), "{}", def.name);
            match (bounded, j.get("bound")) {
                (true, Some(Json::Float(b))) => assert_eq!(*b, def.bound, "{}", def.name),
                (false, None) => {}
                (_, other) => panic!("{}: bound is {other:?}", def.name),
            }
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);

    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert_eq!(seconds as f64, madclock::cli::DEFAULT_SECONDS);
    assert_eq!(list(&doc, "paths").len(), 1);
    assert_eq!(list(&doc, "paths")[0].as_str(), Some("madclock"));
}

#[test]
fn bad_command_lines_exit_2_without_a_result() {
    let exe = env!("CARGO_BIN_EXE_madclock");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "rpc_pingpong", "--seed", "x"],
        &["--workload", "rpc_pingpong", "--trace", "2"],
        &["--seed", "1"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("madclock runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(!out.stderr.is_empty(), "{args:?}");
    }
}

//! Runs the benchmark on tiny inputs (`--smoke`) and checks that it
//! prints every metric BENCHMARK.json declares, with its unit, and that
//! every correctness check runs and passes.

use std::process::Command;

use gdr_system::json::Json;

const WORKLOADS: [&str; 3] = ["paper-grid", "replay-sharded", "serve-traced"];

/// Every check a traced run makes; an untraced run makes all but the
/// traced ones.
const CHECKS: &[(&str, bool)] = &[
    ("grid.deterministic_passes", false),
    ("grid.deterministic_cell", false),
    ("grid.baseline_exact", false),
    ("grid.traced_matches_untraced", true),
    ("replay.deterministic_simulation", false),
    ("replay.completed_ids", false),
    ("replay.per_replica_ids", false),
    ("replay.deterministic_staged", true),
    ("replay.traced_completed_ids", true),
    ("serve.deterministic_passes", false),
    ("serve.traced_record_matches_run", false),
    ("serve.all_completed", false),
    ("serve.breakdown_sums", false),
    ("serve.traced_matches_untraced", true),
    ("trace.spans_written", true),
];

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(trace: bool) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_gdr-perfbench"))
        .args([
            "--workload",
            "all",
            "--smoke",
            "--seed",
            "5",
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "exit {:?}\n{stdout}", out.status);
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    (stdout, result)
}

fn assert_complete(trace: bool) {
    let (report, result) = smoke(trace);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{report}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let metrics = result.get("metrics").expect("metrics object");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let declared = declared(section);
    let per_workload = declared.len();
    assert_eq!(
        metrics.as_obj().map(<[_]>::len),
        Some(WORKLOADS.len() * per_workload)
    );
    for w in WORKLOADS {
        for (name, unit) in &declared {
            let m = metrics
                .get(&format!("{w}/{name}"))
                .unwrap_or_else(|| panic!("{w}/{name} missing"));
            assert!(m
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{w}/{name}"
            );
            if !trace {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                assert!(v > 0.0, "end-to-end {w}/{name} is {v}");
            }
        }
    }
    for &(check, traced_only) in CHECKS {
        if traced_only && !trace {
            continue;
        }
        let line = report
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("check {check} ")))
            .unwrap_or_else(|| panic!("check {check} did not run\n{report}"));
        assert!(line.contains(" ok "), "{line}");
    }
}

#[test]
fn untraced_smoke_prints_every_end_to_end_metric() {
    assert_complete(false);
}

#[test]
fn traced_smoke_prints_every_per_layer_metric() {
    assert_complete(true);
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_gdr-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

//! Self-tests of the `gdr-bench --compare` perf gate, run against the
//! committed `bench/baseline.json`: a 20% regression injected into the
//! grid `time_ns`, the serve `p99_ns` or the serve `replica_seconds` of
//! every record must exit 1 at a 10% threshold (exit 0 would mean the
//! gate missed it), the unmodified copy must exit 0, and a report the
//! JSON parser rejects — here one nested a million arrays deep — must
//! exit 2 (usage/IO error), not crash.

use std::path::{Path, PathBuf};
use std::process::Command;

use gdr_system::json::Json;

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("gate-{name}"))
}

/// `gdr-bench --compare report --baseline baseline --threshold 10%`'s
/// exit code.
fn gate(report: &Path, baseline: &Path) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_gdr-bench"))
        .arg("--compare")
        .arg(report)
        .arg("--baseline")
        .arg(baseline)
        .args(["--threshold", "10%"])
        .output()
        .expect("gdr-bench runs")
        .status
        .code()
        .expect("gdr-bench exits with a code")
}

/// Multiplies `metric` by `factor` on every `runs[]` entry of every
/// record in the report's `family` array; returns how many it changed.
fn inflate(report: &mut Json, family: &str, metric: &str, factor: f64) -> usize {
    let mut changed = 0;
    let Json::Obj(fields) = report else {
        panic!("report is an object")
    };
    let (_, Json::Arr(records)) = fields.iter_mut().find(|(k, _)| k == family).unwrap() else {
        panic!("{family} is an array")
    };
    for record in records {
        let Json::Obj(fields) = record else { continue };
        let Some((_, Json::Arr(runs))) = fields.iter_mut().find(|(k, _)| k == "runs") else {
            continue;
        };
        for run in runs {
            let Json::Obj(fields) = run else { continue };
            for (k, v) in fields {
                if let (true, Json::Num(x)) = (k == metric, v) {
                    *x *= factor;
                    changed += 1;
                }
            }
        }
    }
    changed
}

#[test]
fn gate_exit_codes_on_the_committed_baseline() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");
    let text = std::fs::read_to_string(committed).expect("bench/baseline.json is readable");
    let baseline = tmp("baseline.json");
    std::fs::write(&baseline, &text).unwrap();
    assert_eq!(gate(&baseline, &baseline), 0, "unmodified copy must pass");

    for (family, metric) in [
        ("points", "time_ns"),
        ("serve", "p99_ns"),
        ("serve", "replica_seconds"),
    ] {
        let mut report = Json::parse(&text).unwrap();
        let changed = inflate(&mut report, family, metric, 1.2);
        assert!(changed > 0, "baseline pins {metric} on {family} records");
        let injected = tmp(&format!("{metric}.json"));
        std::fs::write(&injected, report.to_pretty()).unwrap();
        assert_eq!(
            gate(&injected, &baseline),
            1,
            "a 20% {metric} regression must fail the gate"
        );
    }

    let deep = tmp("deep.json");
    std::fs::write(&deep, "[".repeat(1_000_000)).unwrap();
    assert_eq!(
        gate(&deep, &baseline),
        2,
        "over-deep JSON is an input error"
    );
}

//! Smoke test of `gdr-bench replay`: the sharded scenario replayed at 1
//! and 4 lanes must write well-formed `gdr-bench/v1` reports whose
//! `host` rows measure a positive throughput and complete the identical
//! work at any lane count. The replay plan is deterministic; the
//! throughput rows are wall clock, reported and never gated, so a
//! positive value is the only bar they are held to.

use std::path::Path;
use std::process::Command;

use gdr_system::json::Json;

/// Replays the sharded scenario on `jobs` lanes and returns the
/// report's host rows as `(name, row)` pairs.
fn replay(jobs: &str) -> Vec<(String, Json)> {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("replay-{jobs}.json"));
    let run = Command::new(env!("CARGO_BIN_EXE_gdr-bench"))
        .args([
            "replay",
            "--scale",
            "test",
            "--seed",
            "7",
            "--requests",
            "384",
            "--replicas",
            "3",
            "--scheduler",
            "shard-affinity-partial",
            "--shards",
            "3",
            "--cache-bytes",
            "67108864",
            "--jobs",
            jobs,
            "--quiet",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("gdr-bench runs");
    assert!(
        run.status.success(),
        "gdr-bench replay --jobs {jobs} exited with {}: {}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );

    let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("gdr-bench/v1")
    );
    let serve = report.get("serve").and_then(Json::as_arr);
    assert_eq!(serve.map(<[Json]>::len), Some(1), "one serve record");
    let host = report
        .get("host")
        .and_then(Json::as_arr)
        .expect("host array");
    host.iter()
        .map(|r| {
            let name = r.get("name").and_then(Json::as_str).expect("row name");
            for key in ["graphs_per_sec", "wall_clock_s"] {
                let v = r.get(key).and_then(Json::as_f64);
                assert!(v.is_some_and(|v| v > 0.0), "{name}: {key} {v:?}");
            }
            (name.to_string(), r.clone())
        })
        .collect()
}

/// The row whose name ends in `suffix`.
fn row<'a>(rows: &'a [(String, Json)], suffix: &str) -> &'a Json {
    rows.iter()
        .find(|(name, _)| name.ends_with(suffix))
        .map(|(_, r)| r)
        .unwrap_or_else(|| panic!("no {suffix} row"))
}

/// A counter of a host row.
fn count(r: &Json, key: &str) -> f64 {
    r.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{key} missing"))
}

#[test]
fn replay_completes_identical_work_across_lane_counts() {
    let one = replay("1");
    let four = replay("4");
    let j1 = row(&one, "/jobs1");
    let j4 = row(&four, "/jobs4");
    // The --jobs 4 invocation replays single-lane too (the scaling
    // denominator): same plan, same counts.
    let reference = row(&four, "/jobs1");
    for key in ["graphs", "passes", "requests"] {
        let n = count(j4, key);
        assert!(n > 0.0, "{key} {n}");
        assert_eq!(count(j1, key), n, "{key}: jobs1 run vs jobs4 row");
        assert_eq!(count(reference, key), n, "{key}: jobs4 run's own jobs1 row");
    }
}

//! Smoke test of `gdr-bench host`: one pass at test scale must write a
//! well-formed `gdr-bench/v1` report whose `host` records include a
//! reused-workspace session and all measure a positive throughput. Host
//! records are wall clock, reported and never gated, so this is the only
//! bar they are held to.

use std::path::Path;
use std::process::Command;

use gdr_system::json::Json;

#[test]
fn host_subcommand_writes_sane_throughput_records() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("host-smoke.json");
    let run = Command::new(env!("CARGO_BIN_EXE_gdr-bench"))
        .args([
            "host", "--scale", "test", "--passes", "1", "--quiet", "--out",
        ])
        .arg(&out)
        .output()
        .expect("gdr-bench runs");
    assert!(
        run.status.success(),
        "gdr-bench host exited with {}: {}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );

    let report = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("gdr-bench/v1")
    );
    let host = report
        .get("host")
        .and_then(Json::as_arr)
        .expect("host array");
    let names: Vec<&str> = host
        .iter()
        .map(|r| r.get("name").and_then(Json::as_str).expect("record name"))
        .collect();
    assert!(
        names.iter().any(|n| n.ends_with("/reused")),
        "no reused-workspace record in {names:?}"
    );
    for (name, record) in names.iter().zip(host) {
        let gps = record.get("graphs_per_sec").and_then(Json::as_f64);
        assert!(
            gps.is_some_and(|g| g > 0.0),
            "{name}: graphs_per_sec {gps:?}"
        );
    }
}

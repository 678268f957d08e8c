//! Trace-subsystem guarantees: double-run byte-identity of the
//! exported Chrome trace, the exact component-sum invariant of the
//! latency attribution across many seeds, each start's stall
//! component re-derived from the trace's park/migrate/dispatch events,
//! and the zero-cost-when-disabled contract (tracing never perturbs the
//! simulation).

use std::collections::BTreeMap;

use gdr_serve::fault::{CrashWindow, FaultSpec, Slowdown};
use gdr_serve::suite::{scaled_rate, ScenarioSpec, ServeHarness, HIGH_RATE_RPS};
use gdr_serve::workload::ArrivalProcess;
use gdr_serve::{BatchPolicy, SchedPolicy, TraceEvent};
use gdr_system::grid::ExperimentConfig;

fn harness() -> ServeHarness {
    ServeHarness::new(&ExperimentConfig::test_scale(), &["HiHGNN+GDR"]).expect("harness builds")
}

/// A fault-heavy scenario exercising every span source at once: a
/// crash with control-plane failover (batch migration + stall
/// episodes), a straggler (stretched service), and an availability
/// deadline — the hardest case for the attribution arithmetic.
fn crash_failover_spec(cfg: &ExperimentConfig) -> ScenarioSpec {
    ScenarioSpec {
        faults: FaultSpec {
            // Timed (at test scale, seed 7) to land while replica 0
            // has a batch in flight, so the control plane migrates it.
            crashes: vec![CrashWindow {
                replica: 0,
                crash_at_ns: 70_000,
                recover_after_ns: 200_000,
            }],
            slowdowns: vec![Slowdown {
                replica: 1,
                factor: 1.7,
            }],
            drop_prob: 0.0,
            deadline_ns: 0,
        },
        control: true,
        ..ScenarioSpec::new(
            "trace/crash-failover",
            ArrivalProcess::Poisson {
                rate_rps: scaled_rate(cfg, HIGH_RATE_RPS),
            },
            192,
            BatchPolicy::SizeCapped { cap: 8 },
            SchedPolicy::LeastLoaded,
            vec!["HiHGNN+GDR".into(); 3],
        )
    }
}

#[test]
fn double_run_trace_is_byte_identical() {
    let cfg = ExperimentConfig::test_scale();
    let harness = harness();
    let spec = crash_failover_spec(&cfg);
    let a = harness.run_traced(&spec, 7).expect("first run");
    let b = harness.run_traced(&spec, 7).expect("second run");
    assert_eq!(a.events, b.events, "event logs must match exactly");
    assert_eq!(
        a.chrome.to_json().to_pretty(),
        b.chrome.to_json().to_pretty(),
        "serialized traces must be byte-identical"
    );
    // The fault plan actually fired: the log carries the crash, the
    // view change, and at least one migrated batch.
    assert!(a
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::Crash { .. })));
    assert!(a
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::ViewChange { .. })));
    assert!(a
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::BatchMigrated { .. })));
}

#[test]
fn trace_events_are_emitted_in_virtual_time_order() {
    let cfg = ExperimentConfig::test_scale();
    let traced = harness()
        .run_traced(&crash_failover_spec(&cfg), 7)
        .expect("traced run");
    let mut last = 0;
    for event in &traced.events {
        assert!(
            event.time_ns() >= last,
            "event {event:?} stamped before {last}"
        );
        last = event.time_ns();
    }
}

#[test]
fn breakdown_components_sum_to_latency_across_seeds() {
    let cfg = ExperimentConfig::test_scale();
    let harness = harness();
    let spec = crash_failover_spec(&cfg);
    for seed in 0..48 {
        let traced = harness.run_traced(&spec, seed).expect("traced run");
        assert!(
            !traced.requests.is_empty(),
            "seed {seed}: no completions to attribute"
        );
        for rb in &traced.requests {
            assert_eq!(
                rb.component_sum(),
                rb.latency_ns,
                "seed {seed}, request {}: {rb:?} components must sum to the latency",
                rb.request
            );
        }
        // The record-level invariant is exact by construction too: the
        // headline mean is the sum of the per-stage means.
        let stage_sum: f64 = traced.breakdown.stages.iter().map(|s| s.mean_ns).sum();
        assert_eq!(traced.breakdown.mean_latency_ns, stage_sum);
        assert_eq!(traced.breakdown.requests, traced.requests.len() as u64);
    }
}

#[test]
fn disabled_sink_leaves_the_record_identical() {
    let cfg = ExperimentConfig::test_scale();
    let harness = harness();
    let spec = crash_failover_spec(&cfg);
    let plain = harness.run(&spec, 7).expect("untraced run");
    let traced = harness.run_traced(&spec, 7).expect("traced run");
    assert_eq!(
        plain, traced.record,
        "attaching the trace sink must not perturb the simulation"
    );
    assert_eq!(
        plain.to_json().to_pretty(),
        traced.record.to_json().to_pretty(),
        "serialized records must be byte-identical"
    );
}

#[test]
fn start_stall_equals_the_parked_and_migrated_episodes_in_the_trace() {
    let cfg = ExperimentConfig::test_scale();
    let harness = harness();
    let spec = crash_failover_spec(&cfg);
    let mut stalled_starts = 0;
    for seed in 0..48 {
        let traced = harness.run_traced(&spec, seed).expect("traced run");
        // Per batch: (open episode's start, closed episodes' total).
        let mut episodes: BTreeMap<u64, (Option<u64>, u64)> = BTreeMap::new();
        for event in &traced.events {
            match *event {
                TraceEvent::Parked { time_ns, batch, .. }
                | TraceEvent::BatchMigrated { time_ns, batch, .. } => {
                    let (since, _) = episodes.entry(batch).or_default();
                    *since = since.or(Some(time_ns));
                }
                TraceEvent::Dispatched { time_ns, batch, .. } => {
                    if let Some((since, total)) = episodes.get_mut(&batch) {
                        if let Some(t) = since.take() {
                            *total += time_ns - t;
                        }
                    }
                }
                TraceEvent::BatchStarted {
                    batch, stall_ns, ..
                } => {
                    let expected = episodes.get(&batch).map_or(0, |&(_, total)| total);
                    assert_eq!(stall_ns, expected, "seed {seed}, batch {batch}");
                    stalled_starts += usize::from(stall_ns > 0);
                }
                _ => {}
            }
        }
    }
    assert!(stalled_starts > 0, "no start ever carried a stall");
}

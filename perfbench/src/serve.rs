//! `serve-traced`: the committed `poisson-hi/deadline/least-loaded`
//! scenario at test scale with 40,000 requests, through
//! `ServeHarness::run_traced` — the call `gdr-bench serve` makes.
//!
//! Traffic is open-loop Poisson at the suite's high rate in virtual
//! time. The traced pass splits `run_traced` into its calls: the traced
//! simulation, `scenario_record`, `breakdown_record` with
//! `request_breakdowns`, and `chrome_trace`.

use gdr_serve::batcher::Batcher;
use gdr_serve::metrics::{breakdown_record, request_breakdowns, scenario_record};
use gdr_serve::suite::{default_specs, ScenarioSpec, ServeHarness, TracedRun};
use gdr_serve::trace::{chrome_trace, RecordingSink};
use gdr_serve::workload::Traffic;
use gdr_serve::Simulator;
use gdr_system::grid::ExperimentConfig;

use crate::spans::Tracer;
use crate::Ctx;

const SCENARIO: &str = "poisson-hi/deadline/least-loaded";

struct Setup {
    harness: ServeHarness,
    spec: ScenarioSpec,
}

fn setup(cfg: &ExperimentConfig, requests: usize, t: &mut Tracer) -> Setup {
    let spec = ScenarioSpec {
        requests,
        ..default_specs(cfg)
            .into_iter()
            .find(|s| s.name == SCENARIO)
            .expect("the committed suite holds the poisson-hi scenario")
    };
    let names: Vec<&str> = spec.pool.iter().map(String::as_str).collect();
    let harness = t.span("serve.cost.measure", || {
        ServeHarness::new(cfg, &names).expect("the scenario's pool is measurable")
    });
    Setup { harness, spec }
}

/// `run_traced`, one public call at a time, in the order it makes them.
fn traced_pass(s: &Setup, seed: u64, t: &mut Tracer) -> TracedRun {
    let (spec, cost) = (&s.spec, s.harness.cost());
    let replicas: Vec<usize> = spec
        .pool
        .iter()
        .map(|name| {
            cost.platform_index(name)
                .expect("the harness measured the pool")
        })
        .collect();
    let traffic = Traffic {
        process: spec.process,
        requests: spec.requests,
        seed,
    };
    let pool = spec.pool_config();
    let mut sink = RecordingSink::default();
    let result = t.span("serve.scheduler.simulate", || {
        Simulator::with_faults(
            cost,
            spec.sched,
            &replicas,
            &pool,
            &spec.faults,
            spec.control,
            seed,
        )
        .with_trace(&mut sink)
        .run(traffic.stream(), Batcher::new(spec.batch))
    });
    let record = t.span("serve.metrics.record", || {
        scenario_record(
            &spec.name,
            &traffic,
            spec.batch,
            spec.sched,
            &pool,
            &spec.faults,
            spec.control,
            &result,
            cost.platforms(),
        )
    });
    let (breakdown, requests) = t.span("serve.metrics.breakdown", || {
        (
            breakdown_record(&spec.name, seed, &result, &sink.events),
            request_breakdowns(&result, &sink.events),
        )
    });
    let chrome = t.span("serve.trace.chrome", || {
        chrome_trace(
            &spec.name,
            &sink.events,
            &result.replica_platforms,
            cost.platforms(),
        )
    });
    TracedRun {
        record,
        breakdown,
        requests,
        events: sink.events,
        chrome,
    }
}

fn check_first(ctx: &mut Ctx, s: &Setup, seed: u64, first: &TracedRun) {
    let plain = s.harness.run(&s.spec, seed).expect("the scenario is valid");
    ctx.check(
        "serve.traced_record_matches_run",
        first.record == plain,
        "run_traced vs run",
    );
    let all = first.record.aggregate().expect("records carry an ALL row");
    let completed = all.metric("completed").unwrap_or(0.0);
    ctx.check(
        "serve.all_completed",
        completed == s.spec.requests as f64,
        format!("{completed} of {}", s.spec.requests),
    );
    let exact = first
        .requests
        .iter()
        .all(|b| b.component_sum() == b.latency_ns);
    let stages: f64 = first.breakdown.stages.iter().map(|st| st.mean_ns).sum();
    let mean = all.metric("mean_ns").unwrap_or(f64::NAN);
    let sums = exact
        && first.breakdown.requests as f64 == completed
        && (stages - mean).abs() <= 1e-9 * mean.abs().max(1.0);
    ctx.check(
        "serve.breakdown_sums",
        sums,
        format!("stage means sum {stages:.3} ns, mean latency {mean:.3} ns"),
    );
}

pub fn run(ctx: &mut Ctx) {
    let cfg = ExperimentConfig {
        seed: ctx.p.seed,
        ..ExperimentConfig::test_scale()
    };
    let (seed, requests) = (ctx.p.seed, if ctx.p.smoke { 500 } else { 40_000 });
    let (s, runs) = ctx.measure(
        || setup(&cfg, requests, &mut Tracer::off()),
        |t| setup(&cfg, requests, t),
        |_| requests as f64,
        |s| {
            s.harness
                .run_traced(&s.spec, seed)
                .expect("the scenario is valid")
        },
    );
    let first = &runs[0];
    ctx.check(
        "serve.deterministic_passes",
        runs.iter().all(|r| r == first),
        format!("{} passes", runs.len()),
    );
    check_first(ctx, &s, seed, first);
    let pass_s = ctx.get("pass_s").expect("passes set pass_s");
    ctx.set("sim_rps", requests as f64 / pass_s);
    let heap = ctx
        .get("heap_b_per_item")
        .expect("passes set heap_b_per_item");
    ctx.set("heap_b_per_req", heap);
    ctx.set("serve.trace.events", first.events.len() as f64);
    ctx.set(
        "serve.trace.events_per_req",
        first.events.len() as f64 / requests as f64,
    );

    if ctx.p.trace {
        let first = runs[0].clone();
        drop(runs);
        let traced = ctx.traced_passes(|t| traced_pass(&s, seed, t));
        ctx.check(
            "serve.traced_matches_untraced",
            traced.iter().all(|r| *r == first),
            format!("{} traced passes", traced.len()),
        );
        drop(traced);
        ctx.alloc_overhead(|| {
            s.harness
                .run_traced(&s.spec, seed)
                .expect("the scenario is valid");
        });
    }
}

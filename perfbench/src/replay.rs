//! `replay-sharded`: the committed `sharded/warm-cache/shard-affinity-partial`
//! suite scenario at Table-2 size, simulated once during set-up and its
//! batch log replayed on real threads.
//!
//! The pass replays the log on one lane and then on `nproc` lanes. The
//! traced pass splits the one-lane replay into the calls each lane
//! makes per graph — the five `core` stages that
//! `Restructurer::restructure_with` runs, then
//! `NaBufferSim::simulate_edges_with` — on one warm `Workspace`, and
//! keeps the `nproc`-lane replay as one span.

use gdr_core::backbone::{Backbone, BackboneStrategy};
use gdr_core::matching::hopcroft_karp_into;
use gdr_core::recouple::{RestructuredSubgraphs, VertexPartition};
use gdr_core::restructure::{MatcherKind, Restructurer};
use gdr_core::schedule::EdgeSchedule;
use gdr_core::workspace::Workspace;
use gdr_serve::replay::{lane_na_sim, replay, AssignmentLog, ReplayDatasets, ReplayReport};
use gdr_serve::suite::{default_specs, ScenarioSpec, ServeHarness};
use gdr_system::grid::ExperimentConfig;
use gdr_system::report::ServeScenarioRecord;

use crate::spans::Tracer;
use crate::{median, nproc, Ctx};

const SCENARIO: &str = "sharded/warm-cache/shard-affinity-partial";

struct Setup {
    harness: ServeHarness,
    spec: ScenarioSpec,
    record: ServeScenarioRecord,
    log: AssignmentLog,
    datasets: ReplayDatasets,
}

fn setup(cfg: &ExperimentConfig, seed: u64, t: &mut Tracer) -> Setup {
    let spec = default_specs(cfg)
        .into_iter()
        .find(|s| s.name == SCENARIO)
        .expect("the committed suite holds the sharded scenario");
    let names: Vec<&str> = spec.pool.iter().map(String::as_str).collect();
    let harness = t.span("serve.cost.measure", || {
        ServeHarness::new(cfg, &names).expect("the sharded pool is measurable")
    });
    let (record, log) = t.span("serve.scheduler.simulate", || {
        harness
            .run_replayable(&spec, seed)
            .expect("the sharded scenario is valid")
    });
    let datasets = t.span("hetgraph.build", || ReplayDatasets::build(cfg));
    Setup {
        harness,
        spec,
        record,
        log,
        datasets,
    }
}

/// One-lane then `nproc`-lane replay of the log.
fn pass(s: &Setup) -> [ReplayReport; 2] {
    [1, nproc()].map(|jobs| replay(&s.log, &s.datasets, jobs).expect("jobs is positive"))
}

/// What the traced one-lane replay computed, for the determinism check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Staged {
    graphs: u64,
    edges: u64,
    accesses: u64,
    hits: u64,
}

/// The one-lane replay, one public call at a time (what
/// `replay_batch` does per graph), then the `nproc`-lane replay whole.
fn traced_pass(s: &Setup, t: &mut Tracer) -> (Staged, ReplayReport) {
    let restructurer = Restructurer::new();
    assert!(
        restructurer.matcher_kind() == MatcherKind::HopcroftKarp
            && restructurer.strategy_kind() == BackboneStrategy::Paper
            && restructurer.recursion_depth_value() == 0,
        "the staged replay mirrors the default restructurer"
    );
    let na_sim = lane_na_sim();
    let mut ws = Workspace::new();
    let mut out = Staged {
        graphs: 0,
        edges: 0,
        accesses: 0,
        hits: 0,
    };
    for a in &s.log.assignments {
        let graphs = s.datasets.graphs(a.cell.dataset);
        for (gi, g) in graphs.iter().enumerate() {
            let w = &mut ws;
            t.span("core.matching", || {
                hopcroft_karp_into(g, &mut w.matching, &mut w.match_scratch)
            });
            t.span("core.backbone", || {
                Backbone::select_into(
                    g,
                    &w.matching,
                    BackboneStrategy::Paper,
                    &mut w.backbone,
                    &mut w.match_scratch,
                )
            });
            t.span("core.partition", || {
                VertexPartition::from_backbone_into(g, &w.backbone, &mut w.partition)
            });
            t.span("core.subgraphs", || {
                RestructuredSubgraphs::generate_into(
                    g,
                    &w.backbone,
                    &mut w.subgraphs,
                    &mut w.recouple_scratch,
                )
            });
            t.span("core.schedule", || {
                EdgeSchedule::restructured_into(&w.subgraphs, &mut w.edges)
            });
            let stats = t.span("accel.na_engine.sim", || {
                na_sim.simulate_edges_with(&mut w.buffer_scratch, g, &w.edges, gi as u64)
            });
            out.graphs += 1;
            out.edges += g.edge_count() as u64;
            out.accesses += stats.accesses;
            out.hits += stats.hits;
        }
    }
    let lanes = t.span("serve.replay.lanes", || {
        replay(&s.log, &s.datasets, nproc()).expect("jobs is positive")
    });
    (out, lanes)
}

/// `min` and `mean` lane utilization of a replay, over active lanes.
fn utilization(r: &ReplayReport) -> (f64, f64) {
    let host = r.host_record();
    let get = |k: &str| {
        host.metrics
            .iter()
            .find(|(name, _)| name == k)
            .map_or(0.0, |(_, v)| *v)
    };
    (get("util_min"), get("util_mean"))
}

pub fn run(ctx: &mut Ctx) {
    let cfg = ExperimentConfig {
        seed: ctx.p.seed,
        scale: if ctx.p.smoke { 0.02 } else { 1.0 },
    };
    let seed = ctx.p.seed;
    let (s, runs) = ctx.measure(
        || setup(&cfg, seed, &mut Tracer::off()),
        |t| setup(&cfg, seed, t),
        |r: &[ReplayReport; 2]| (r[0].graphs() + r[1].graphs()) as f64,
        pass,
    );
    let again = s
        .harness
        .run_replayable(&s.spec, seed)
        .expect("the sharded scenario is valid");
    ctx.check(
        "replay.deterministic_simulation",
        again == (s.record.clone(), s.log.clone()),
        format!("{} batches simulated twice", s.log.assignments.len()),
    );

    let ids = s.log.request_ids();
    let conserved = runs
        .iter()
        .all(|r| r.iter().all(|x| x.completed_ids == ids));
    ctx.check(
        "replay.completed_ids",
        conserved,
        format!("{} requests × {} replays", ids.len(), 2 * runs.len()),
    );
    let ordered = runs
        .iter()
        .all(|[one, n]| one.per_replica_ids == n.per_replica_ids);
    ctx.check(
        "replay.per_replica_ids",
        ordered,
        format!("1 lane vs {} lanes", nproc()),
    );

    let gps = |i: usize| {
        median(
            &mut runs
                .iter()
                .map(|r| r[i].graphs_per_sec())
                .collect::<Vec<_>>(),
        )
    };
    ctx.set("replay_gps_1", gps(0));
    ctx.set("replay_gps_n", gps(1));
    let util: Vec<(f64, f64)> = runs.iter().map(|r| utilization(&r[1])).collect();
    ctx.set(
        "serve.replay.util_min",
        median(&mut util.iter().map(|u| u.0).collect::<Vec<_>>()),
    );
    ctx.set(
        "serve.replay.util_mean",
        median(&mut util.iter().map(|u| u.1).collect::<Vec<_>>()),
    );

    if ctx.p.trace {
        let traced = ctx.traced_passes(|t| traced_pass(&s, t));
        let staged = traced[0].0;
        ctx.check(
            "replay.deterministic_staged",
            traced.iter().all(|(x, _)| *x == staged),
            format!("{} traced passes", traced.len()),
        );
        ctx.check(
            "replay.traced_completed_ids",
            traced.iter().all(|(_, r)| r.completed_ids == ids),
            format!("{} lanes", nproc()),
        );
        let core_s: f64 = ["matching", "backbone", "partition", "subgraphs", "schedule"]
            .iter()
            .map(|stage| ctx.get(&format!("core.{stage}_s")).unwrap_or(0.0))
            .sum();
        ctx.set("core.ns_per_edge", core_s * 1e9 / staged.edges as f64);
        ctx.set(
            "accel.na_engine.hit_rate",
            staged.hits as f64 / staged.accesses as f64,
        );
        ctx.alloc_overhead(|| {
            replay(&s.log, &s.datasets, 1).expect("jobs is positive");
        });
    }
}

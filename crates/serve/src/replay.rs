//! Real-threads replay of a simulated serving schedule.
//!
//! The virtual-time scheduler decides *what runs where*; this module
//! answers *how fast the host can actually push that plan through the
//! frontend*. [`ServeHarness::run_replayable`] records the simulator's
//! batch placements as an [`AssignmentLog`] and [`replay`] executes the
//! log on real [`std::thread`] worker lanes:
//!
//! * **one lane per job**, each owning its own [`Workspace`] — the
//!   frontend's zero-alloc arena — plus a [`Restructurer`] and an
//!   [`NaBufferSim`];
//! * **replica pinning**: each replica lands on one lane, placed
//!   largest-first on the least-loaded lane by the edges its batches
//!   replay, so shard affinity decided by the scheduler is preserved (a
//!   lane re-serves the same datasets its replicas were sharded to),
//!   lanes carry near-equal work, and every replica's batches execute in
//!   exactly the order the simulator issued them;
//! * **per-lane plans**: each lane iterates its own slice of assignment
//!   indices, draining its share of the log in assignment order;
//! * **work per batch**: for every semantic graph of the batch's
//!   dataset, decouple → recouple → schedule
//!   ([`Restructurer::restructure_with`](gdr_core::restructure::Restructurer::restructure_with))
//!   then execute the restructured schedule through the pooled NA
//!   buffer
//!   ([`NaBufferSim::simulate_edges_with`](gdr_accel::na_engine::NaBufferSim::simulate_edges_with))
//!   — the steady-state zero-allocation hot path.
//!
//! Replay measures **wall-clock** host throughput, so its numbers land
//! in the `host` record family: reported, compared by eye, never gated
//! (see `bench/README.md`). Everything *about the plan* is still
//! deterministic — which requests ran, on which replica, in which order
//! — and that is what the property tests pin.
//!
//! [`ServeHarness::run_replayable`]: crate::suite::ServeHarness::run_replayable

use std::time::Instant;

use gdr_accel::hihgnn::HiHgnnConfig;
use gdr_accel::na_engine::NaBufferSim;
use gdr_core::restructure::Restructurer;
use gdr_core::workspace::Workspace;
use gdr_hetgraph::datasets::Dataset;
use gdr_hetgraph::{BipartiteGraph, GdrError, GdrResult};
use gdr_system::grid::ExperimentConfig;
use gdr_system::report::{HostRecord, HOST_METRIC_KEYS};

use crate::scheduler::Assignment;

/// The replayable product of one simulated scenario run: every batch
/// placement the virtual-time scheduler made, in issue order, plus the
/// context needed to rebuild the datasets the batches touch.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentLog {
    /// Scenario name the log was recorded from.
    pub scenario: String,
    /// Request-stream seed of the recorded run.
    pub seed: u64,
    /// Grid configuration the harness measured at — replay rebuilds
    /// each dataset with `build_scaled(config.seed, config.scale)`,
    /// matching what the simulated replicas served.
    pub config: ExperimentConfig,
    /// Batch placements in simulator issue order.
    pub assignments: Vec<Assignment>,
}

impl AssignmentLog {
    /// Number of replica slots the log references (max replica + 1).
    pub fn replica_count(&self) -> usize {
        self.assignments
            .iter()
            .map(|a| a.replica + 1)
            .max()
            .unwrap_or(0)
    }

    /// Total requests across all recorded batches.
    pub fn total_requests(&self) -> usize {
        self.assignments.iter().map(|a| a.request_ids.len()).sum()
    }

    /// All recorded request ids, sorted ascending — the conservation
    /// reference a replay's completed set must equal exactly.
    pub fn request_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .assignments
            .iter()
            .flat_map(|a| a.request_ids.iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// The semantic graphs replay executes, prebuilt once per dataset and
/// shared read-only across lanes (each simulated replica served these
/// same scaled builds through the cost model).
#[derive(Debug, Clone)]
pub struct ReplayDatasets {
    graphs: Vec<Vec<BipartiteGraph>>,
}

impl ReplayDatasets {
    /// Builds every dataset's semantic graphs at the log's grid
    /// configuration. This is the expensive, one-off step; replay
    /// itself only borrows.
    pub fn build(cfg: &ExperimentConfig) -> Self {
        Self {
            graphs: Dataset::ALL
                .iter()
                .map(|d| d.build_scaled(cfg.seed, cfg.scale).all_semantic_graphs())
                .collect(),
        }
    }

    /// The semantic graphs of one dataset.
    pub fn graphs(&self, dataset: Dataset) -> &[BipartiteGraph] {
        let i = Dataset::ALL
            .iter()
            .position(|&d| d == dataset)
            .expect("Dataset::ALL is exhaustive");
        &self.graphs[i]
    }
}

/// One worker lane's replay tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneStats {
    /// Lane index (`0..jobs`).
    pub lane: usize,
    /// Batches the lane executed.
    pub batches: u64,
    /// Semantic graphs restructured and executed.
    pub graphs: u64,
    /// Requests completed (summed over executed batches).
    pub requests: u64,
    /// Wall-clock nanoseconds the lane spent between its first pull
    /// and its last completion.
    pub busy_ns: u64,
}

/// What one replay run measured: wall-clock throughput plus the
/// deterministic completion evidence the property tests check.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Scenario the replayed log was recorded from.
    pub scenario: String,
    /// Seed of the recorded run.
    pub seed: u64,
    /// Worker-lane count the replay ran with.
    pub jobs: usize,
    /// End-to-end wall-clock nanoseconds (lane spawn to last join).
    pub wall_ns: u64,
    /// Per-lane tallies, indexed by lane.
    pub lanes: Vec<LaneStats>,
    /// Every completed request id, sorted ascending — compare with
    /// [`AssignmentLog::request_ids`] for conservation.
    pub completed_ids: Vec<u64>,
    /// Completed request ids per replica, in execution order — equal
    /// to the log's per-replica issue order when replay is correct.
    pub per_replica_ids: Vec<Vec<u64>>,
}

impl ReplayReport {
    /// Total semantic graphs executed across lanes.
    pub fn graphs(&self) -> u64 {
        self.lanes.iter().map(|l| l.graphs).sum()
    }

    /// Total batches executed across lanes.
    pub fn batches(&self) -> u64 {
        self.lanes.iter().map(|l| l.batches).sum()
    }

    /// Total requests completed across lanes.
    pub fn requests(&self) -> u64 {
        self.lanes.iter().map(|l| l.requests).sum()
    }

    /// End-to-end wall-clock seconds.
    pub fn wall_s(&self) -> f64 {
        (self.wall_ns as f64 / 1e9).max(f64::MIN_POSITIVE)
    }

    /// Sustained graphs per second over the whole replay.
    pub fn graphs_per_sec(&self) -> f64 {
        self.graphs() as f64 / self.wall_s()
    }

    /// Per-lane utilization: busy time over end-to-end wall time,
    /// indexed by lane. An idle lane (no assignments) reports 0.
    pub fn lane_utilization(&self) -> Vec<f64> {
        let wall = self.wall_ns.max(1) as f64;
        self.lanes
            .iter()
            .map(|l| (l.busy_ns as f64 / wall).min(1.0))
            .collect()
    }

    /// The replay's `host` record: the standard host metric keys
    /// (graphs, passes, wall_clock_s, graphs_per_sec, ns_per_graph —
    /// `passes` counts executed batches) plus replay-specific extras
    /// (`jobs`, `requests`, `util_mean`, `util_min`). Named
    /// `replay/{scenario}/jobs{N}`.
    pub fn host_record(&self) -> HostRecord {
        let graphs = self.graphs();
        let wall_s = self.wall_s();
        let util = self.lane_utilization();
        let active = self.lanes.iter().filter(|l| l.batches > 0).count().max(1);
        let util_mean = util.iter().sum::<f64>() / active as f64;
        let util_min = util
            .iter()
            .zip(&self.lanes)
            .filter(|(_, l)| l.batches > 0)
            .map(|(&u, _)| u)
            .fold(f64::INFINITY, f64::min);
        let value = |key: &str| -> f64 {
            match key {
                "graphs" => graphs as f64,
                "passes" => self.batches() as f64,
                "wall_clock_s" => wall_s,
                "graphs_per_sec" => self.graphs_per_sec(),
                "ns_per_graph" => {
                    if graphs == 0 {
                        0.0
                    } else {
                        self.wall_ns as f64 / graphs as f64
                    }
                }
                _ => unreachable!("unknown host metric key {key}"),
            }
        };
        let mut metrics: Vec<(String, f64)> = HOST_METRIC_KEYS
            .iter()
            .map(|&k| (k.to_string(), value(k)))
            .collect();
        metrics.push(("jobs".to_string(), self.jobs as f64));
        metrics.push(("requests".to_string(), self.requests() as f64));
        metrics.push(("util_mean".to_string(), util_mean));
        metrics.push((
            "util_min".to_string(),
            if util_min.is_finite() { util_min } else { 0.0 },
        ));
        HostRecord {
            name: format!("replay/{}/jobs{}", self.scenario, self.jobs),
            metrics,
        }
    }
}

/// One lane's per-batch work, shared between the threaded executor and
/// the zero-allocation harness (`tests/zero_alloc.rs` drives exactly
/// this function after warmup): for each semantic graph of the batch's
/// dataset, restructure into the workspace and execute the restructured
/// schedule through the pooled NA buffer. Returns the graph count.
///
/// At steady state — once the workspace has grown to the largest graph
/// and the pooled buffer has seen every fetch tag — this performs
/// **zero heap allocations**.
pub fn replay_batch(
    ws: &mut Workspace,
    restructurer: &Restructurer,
    na_sim: &NaBufferSim,
    datasets: &ReplayDatasets,
    assignment: &Assignment,
) -> usize {
    let graphs = datasets.graphs(assignment.cell.dataset);
    for (gi, g) in graphs.iter().enumerate() {
        restructurer.restructure_with(ws, g);
        na_sim.simulate_edges_with(&mut ws.buffer_scratch, g, &ws.edges, gi as u64);
    }
    graphs.len()
}

/// The NA-buffer model replay lanes execute against: the default
/// HiHGNN window and associativity (the same geometry
/// [`HiHgnnSim`](gdr_accel::hihgnn::HiHgnnSim) simulates with).
pub fn lane_na_sim() -> NaBufferSim {
    let cfg = HiHgnnConfig::default();
    NaBufferSim::new(cfg.na_window_features(), cfg.na_ways)
}

/// Lane of each replica: replicas in decreasing order of the edges their
/// batches replay (ties by replica index), each placed on the lane with
/// the least load so far (ties by lane index). Deterministic for a given
/// log and `jobs`.
fn place_replicas(log: &AssignmentLog, datasets: &ReplayDatasets, jobs: usize) -> Vec<usize> {
    let mut load = vec![0u64; log.replica_count()];
    for a in &log.assignments {
        let graphs = datasets.graphs(a.cell.dataset);
        load[a.replica] += graphs.iter().map(|g| g.edge_count() as u64).sum::<u64>();
    }
    let mut by_load: Vec<usize> = (0..load.len()).collect();
    by_load.sort_by_key(|&r| std::cmp::Reverse(load[r]));
    let mut lane_load = vec![0u64; jobs];
    let mut lane_of = vec![0; load.len()];
    for r in by_load {
        let lane = (0..jobs)
            .min_by_key(|&l| lane_load[l])
            .expect("jobs is positive");
        lane_of[r] = lane;
        lane_load[lane] += load[r];
    }
    lane_of
}

/// Replays an [`AssignmentLog`] on `jobs` real worker lanes and
/// measures sustained wall-clock throughput.
///
/// Each replica is pinned to one lane, placed largest-first on the
/// least-loaded lane by the edges its batches replay; each lane drains its
/// share of the log in assignment order. Which requests complete, on
/// which replica, in which order is identical for every `jobs` value —
/// only the wall-clock numbers (never gated) differ between machines.
///
/// # Errors
///
/// Returns [`GdrError::InvalidConfig`] when `jobs` is zero.
pub fn replay(
    log: &AssignmentLog,
    datasets: &ReplayDatasets,
    jobs: usize,
) -> GdrResult<ReplayReport> {
    if jobs == 0 {
        return Err(GdrError::invalid_config(
            "jobs",
            "replay needs at least one worker lane",
        ));
    }
    // Plan: per-lane assignment indices, preserving log order. Replica
    // pinning keeps every replica's batches on a single lane, so the
    // simulator's per-replica issue order survives by construction.
    let lane_of = place_replicas(log, datasets, jobs);
    let mut plans: Vec<Vec<usize>> = vec![Vec::new(); jobs];
    for (i, a) in log.assignments.iter().enumerate() {
        plans[lane_of[a.replica]].push(i);
    }

    struct LaneOutcome {
        stats: LaneStats,
        executed: Vec<usize>,
    }

    let start = Instant::now();
    let outcomes: Vec<LaneOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|lane| {
                let plan = &plans[lane];
                scope.spawn(move || {
                    let mut ws = Workspace::new();
                    let restructurer = Restructurer::new();
                    let na_sim = lane_na_sim();
                    let mut stats = LaneStats {
                        lane,
                        batches: 0,
                        graphs: 0,
                        requests: 0,
                        busy_ns: 0,
                    };
                    let mut executed = Vec::with_capacity(plan.len());
                    let t0 = Instant::now();
                    for &idx in plan {
                        let a = &log.assignments[idx];
                        stats.graphs +=
                            replay_batch(&mut ws, &restructurer, &na_sim, datasets, a) as u64;
                        stats.batches += 1;
                        stats.requests += a.request_ids.len() as u64;
                        executed.push(idx);
                    }
                    stats.busy_ns = t0.elapsed().as_nanos() as u64;
                    LaneOutcome { stats, executed }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay lane panicked"))
            .collect()
    });
    let wall_ns = start.elapsed().as_nanos() as u64;

    // Fold execution evidence: completed ids (sorted) and per-replica
    // completion order (walk each lane's executed indices in order —
    // within a lane that IS wall-clock execution order).
    let replica_count = log.replica_count();
    let mut per_replica_ids: Vec<Vec<u64>> = vec![Vec::new(); replica_count];
    let mut completed_ids: Vec<u64> = Vec::with_capacity(log.total_requests());
    for outcome in &outcomes {
        for &idx in &outcome.executed {
            let a = &log.assignments[idx];
            per_replica_ids[a.replica].extend(a.request_ids.iter().copied());
            completed_ids.extend(a.request_ids.iter().copied());
        }
    }
    completed_ids.sort_unstable();

    Ok(ReplayReport {
        scenario: log.scenario.clone(),
        seed: log.seed,
        jobs,
        wall_ns,
        lanes: outcomes.into_iter().map(|o| o.stats).collect(),
        completed_ids,
        per_replica_ids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use crate::request::Cell;
    use crate::scheduler::SchedPolicy;
    use crate::suite::{ScenarioSpec, ServeHarness};
    use crate::workload::ArrivalProcess;
    use gdr_hgnn::model::ModelKind;

    fn tiny_log() -> AssignmentLog {
        let cfg = ExperimentConfig {
            seed: 11,
            scale: 0.04,
        };
        let harness = ServeHarness::new(&cfg, &["HiHGNN+GDR"]).unwrap();
        let spec = ScenarioSpec::new(
            "replay-unit",
            ArrivalProcess::Poisson { rate_rps: 50_000.0 },
            24,
            BatchPolicy::SizeCapped { cap: 4 },
            SchedPolicy::LeastLoaded,
            vec!["HiHGNN+GDR".into(), "HiHGNN+GDR".into()],
        );
        let (record, log) = harness.run_replayable(&spec, 7).unwrap();
        // Recording never perturbs the run.
        assert_eq!(record, harness.run(&spec, 7).unwrap());
        assert!(!log.assignments.is_empty());
        log
    }

    #[test]
    fn replay_conserves_requests_and_replica_order() {
        let log = tiny_log();
        let datasets = ReplayDatasets::build(&log.config);
        let expected_ids = log.request_ids();
        let mut expected_order: Vec<Vec<u64>> = vec![Vec::new(); log.replica_count()];
        for a in &log.assignments {
            expected_order[a.replica].extend(a.request_ids.iter().copied());
        }
        for jobs in [1, 2, 3] {
            let report = replay(&log, &datasets, jobs).unwrap();
            assert_eq!(report.completed_ids, expected_ids, "jobs={jobs}");
            assert_eq!(report.per_replica_ids, expected_order, "jobs={jobs}");
            assert_eq!(report.batches(), log.assignments.len() as u64);
            assert!(report.graphs() > 0);
            assert!(report.graphs_per_sec() > 0.0);
        }
    }

    #[test]
    fn replay_host_record_uses_standard_keys() {
        let log = tiny_log();
        let datasets = ReplayDatasets::build(&log.config);
        let report = replay(&log, &datasets, 2).unwrap();
        let rec = report.host_record();
        assert_eq!(rec.name, "replay/replay-unit/jobs2");
        for &key in HOST_METRIC_KEYS {
            assert!(rec.metric(key).is_some(), "missing {key}");
        }
        assert_eq!(rec.metric("jobs"), Some(2.0));
        assert!(rec.metric("graphs_per_sec").unwrap() > 0.0);
        assert!(rec.metric("util_mean").unwrap() > 0.0);
    }

    #[test]
    fn zero_jobs_is_rejected() {
        let log = AssignmentLog {
            scenario: "x".into(),
            seed: 0,
            config: ExperimentConfig {
                seed: 0,
                scale: 0.02,
            },
            assignments: Vec::new(),
        };
        let datasets = ReplayDatasets::build(&log.config);
        assert!(replay(&log, &datasets, 0).is_err());
    }

    #[test]
    fn replicas_are_placed_largest_first_on_the_least_loaded_lane() {
        // replica loads 3 : 1 : 2 batches of one dataset
        let batch = |replica| Assignment {
            replica,
            cell: Cell {
                model: ModelKind::Rgcn,
                dataset: Dataset::Acm,
            },
            warm: true,
            cache_hit: false,
            shard_miss: false,
            request_ids: Vec::new(),
        };
        let log = AssignmentLog {
            scenario: "x".into(),
            seed: 0,
            config: ExperimentConfig {
                seed: 0,
                scale: 0.02,
            },
            assignments: [0, 1, 0, 2, 0, 2].map(batch).to_vec(),
        };
        let datasets = ReplayDatasets::build(&log.config);
        assert_eq!(place_replicas(&log, &datasets, 1), [0, 0, 0]);
        // `replica % 2` would put five of the six batches on lane 0
        assert_eq!(place_replicas(&log, &datasets, 2), [0, 1, 1]);
        assert_eq!(place_replicas(&log, &datasets, 4), [0, 2, 1]);
    }
}

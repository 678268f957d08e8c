//! `paper-grid`: the 3 models × 3 datasets × 4 platforms grid at Table-2
//! size, as `gdr_system::grid::run_grid` runs it.
//!
//! Set-up is the grid's inputs (`cell_inputs` per cell) and platform list;
//! the pass is the 36 `Platform::execute` calls. The traced pass splits
//! HiHGNN+GDR into the two calls `CombinedSystem` makes: the frontend
//! `Session::par_process` and the HiHGNN run over its schedules.

use gdr_accel::hihgnn::{HiHgnnConfig, HiHgnnSim};
use gdr_accel::platform::{Platform, PlatformRun};
use gdr_accel::report::ExecReport;
use gdr_frontend::config::FrontendConfig;
use gdr_frontend::session::Session;
use gdr_hetgraph::datasets::Dataset;
use gdr_hetgraph::BipartiteGraph;
use gdr_hgnn::model::{ModelConfig, ModelKind};
use gdr_hgnn::workload::Workload;
use gdr_serve::suite::default_suite;
use gdr_system::grid::{
    cell_inputs, paper_platforms, platform_refs, run_platforms, ExperimentConfig,
};
use gdr_system::report::{compare, BenchReport};

use crate::spans::Tracer;
use crate::Ctx;

/// HiHGNN+GDR's speedups over T4, A100 and HiHGNN as the paper states
/// them (geomean over the grid): GDR-HGNN, arXiv 2404.04792, and its
/// HiHGNN baseline, arXiv 2307.12765.
pub const PAPER_SPEEDUPS: [(&str, f64); 3] = [("T4", 68.8), ("A100", 14.6), ("HiHGNN", 1.78)];

/// The committed perf-gate baseline, read from the checkout the
/// benchmark was built in.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/baseline.json");

struct Cell {
    model: ModelKind,
    dataset: Dataset,
    workload: Workload,
    graphs: Vec<BipartiteGraph>,
}

struct Setup {
    platforms: Vec<Box<dyn Platform>>,
    cells: Vec<Cell>,
}

fn cells() -> impl Iterator<Item = (ModelKind, Dataset)> {
    ModelKind::ALL
        .into_iter()
        .flat_map(|m| Dataset::ALL.into_iter().map(move |d| (m, d)))
}

fn setup(cfg: &ExperimentConfig) -> Setup {
    let cells = cells()
        .map(|(model, dataset)| {
            let (workload, graphs) = cell_inputs(model, dataset, cfg);
            Cell {
                model,
                dataset,
                workload,
                graphs,
            }
        })
        .collect();
    Setup {
        platforms: paper_platforms(),
        cells,
    }
}

/// `cell_inputs`, one public call at a time.
fn traced_setup(cfg: &ExperimentConfig, t: &mut Tracer) -> Setup {
    let cells = cells()
        .map(|(model, dataset)| {
            let het = t.span("hetgraph.build", || {
                dataset.build_scaled(cfg.seed, cfg.scale)
            });
            let workload = t.span("hgnn.workload", || {
                Workload::from_hetero(ModelConfig::paper(model), &het)
            });
            let graphs = t.span("hetgraph.build", || het.all_semantic_graphs());
            Cell {
                model,
                dataset,
                workload,
                graphs,
            }
        })
        .collect();
    Setup {
        platforms: t.span("system.platforms", paper_platforms),
        cells,
    }
}

/// Every cell's four runs, platforms in `paper_platforms` order.
fn pass(s: &Setup) -> Vec<Vec<PlatformRun>> {
    let refs = platform_refs(&s.platforms);
    s.cells
        .iter()
        .map(|c| run_platforms(&refs, &c.workload, &c.graphs).expect("grid inputs are aligned"))
        .collect()
}

/// The traced pass; returns the T4, A100 and HiHGNN reports of each
/// cell. HiHGNN+GDR runs as the two calls `CombinedSystem` makes, whose
/// own report `CombinedSystem` would then adjust, so it is only timed.
fn traced_pass(s: &Setup, t: &mut Tracer) -> Vec<[ExecReport; 3]> {
    let [on_t4, on_a100, on_hihgnn] = [0, 1, 2].map(|i| s.platforms[i].as_ref());
    s.cells
        .iter()
        .map(|c| {
            let (w, g) = (&c.workload, c.graphs.as_slice());
            let run = |p: &dyn Platform| {
                p.execute(w, g, None)
                    .expect("grid inputs are aligned")
                    .report
            };
            let t4 = t.span("accel.gpu.t4", || run(on_t4));
            let a100 = t.span("accel.gpu.a100", || run(on_a100));
            let hihgnn = t.span("accel.hihgnn", || run(on_hihgnn));
            t.enter("system.combined");
            let frontend = t.span("frontend.session", || {
                Session::new(FrontendConfig::default(), g).par_process()
            });
            t.span("accel.hihgnn_gdr", || {
                let schedules: Vec<_> = frontend.schedules().collect();
                HiHgnnSim::new(HiHgnnConfig::default())
                    .try_execute(w, g, Some(&schedules), "HiHGNN+GDR")
                    .expect("frontend schedules are aligned")
            });
            t.exit();
            [t4, a100, hihgnn]
        })
        .collect()
}

/// A platform run's modelled outputs. `src_replacement_times` comes out
/// in hash-map order, so it is compared as a multiset.
fn modelled(r: &PlatformRun) -> (&ExecReport, &[(String, f64)], Vec<u32>) {
    let mut times = r.src_replacement_times.clone();
    times.sort_unstable();
    (&r.report, &r.extra, times)
}

fn geomean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n as f64).exp()
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// Modelled speedups and hit rates of one pass, with the model's error
/// against the paper.
fn model_metrics(ctx: &mut Ctx, runs: &[Vec<PlatformRun>]) {
    let time = |cell: &[PlatformRun], i: usize| cell[i].report.time_ns;
    ctx.note(format!(
        "{:<10} {:>12} {:>12} {:>8}",
        "HiHGNN+GDR", "model speedup", "paper", "error"
    ));
    for (i, (name, paper)) in PAPER_SPEEDUPS.iter().enumerate() {
        let model = geomean(runs.iter().map(|c| time(c, i) / time(c, 3)));
        let err = (model / paper - 1.0).abs();
        ctx.note(format!(
            "  vs {name:<6} {model:>12.3}× {paper:>11.2}× {err:>8.3}"
        ));
        ctx.set(&format!("model.err_{}", name.to_lowercase()), err);
    }
    let hit = |i: usize| mean(runs.iter().map(|c| c[i].report.na_hit_rate.unwrap_or(0.0)));
    ctx.set("accel.gpu.l2_hit_rate", hit(0));
    ctx.set("accel.na_hit_rate.hihgnn", hit(2));
    ctx.set("accel.na_hit_rate.gdr", hit(3));
}

/// The test-scale grid plus serving suite, compared with the committed
/// baseline at a 0% threshold: every gated metric must reproduce exactly.
fn check_baseline(ctx: &mut Ctx) {
    let cfg = ExperimentConfig::test_scale();
    let result = std::fs::read_to_string(BASELINE)
        .map_err(|e| format!("{BASELINE}: {e}"))
        .and_then(|text| BenchReport::parse(&text))
        .and_then(|baseline| {
            let platforms = paper_platforms();
            let mut current = BenchReport::collect(&platform_refs(&platforms), &cfg)
                .map_err(|e| e.to_string())?;
            current.serve = default_suite(&cfg).map_err(|e| e.to_string())?;
            Ok(compare(&baseline, &current, 0.0))
        });
    match result {
        Ok(cmp) => {
            let exact = cmp.passed() && cmp.improvements.is_empty();
            let detail = format!(
                "{} regressions, {} improvements, {} missing at 0%",
                cmp.regressions.len(),
                cmp.improvements.len(),
                cmp.missing.len()
            );
            ctx.check("grid.baseline_exact", exact, detail);
        }
        Err(e) => ctx.check("grid.baseline_exact", false, e),
    }
}

pub fn run(ctx: &mut Ctx) {
    let cfg = ExperimentConfig {
        seed: ctx.p.seed,
        scale: if ctx.p.smoke { 0.02 } else { 1.0 },
    };
    let (s, runs) = ctx.measure(|| setup(&cfg), |t| traced_setup(&cfg, t), |_| 36.0, pass);
    let grid_s = ctx.get("pass_s").expect("passes set pass_s");
    ctx.set("grid_s", grid_s);
    model_metrics(ctx, &runs[0]);

    let same =
        |a: &[PlatformRun], b: &[PlatformRun]| a.iter().map(modelled).eq(b.iter().map(modelled));
    ctx.check(
        "grid.deterministic_passes",
        runs.iter()
            .all(|r| r.iter().zip(&runs[0]).all(|(a, b)| same(a, b))),
        format!("{} passes", runs.len()),
    );
    // A pass at Table-2 size can outlast the budget, so one cell (the
    // smallest) is always run again and compared.
    let small = (0..s.cells.len())
        .min_by_key(|&i| {
            s.cells[i]
                .graphs
                .iter()
                .map(|g| g.edge_count())
                .sum::<usize>()
        })
        .expect("nine cells");
    let cell = &s.cells[small];
    let refs = platform_refs(&s.platforms);
    let again =
        run_platforms(&refs, &cell.workload, &cell.graphs).expect("grid inputs are aligned");
    ctx.check(
        "grid.deterministic_cell",
        same(&again, &runs[0][small]),
        format!("{}/{} re-run", cell.model.name(), cell.dataset.name()),
    );
    check_baseline(ctx);

    if ctx.p.trace {
        let traced = ctx.traced_passes(|t| traced_pass(&s, t));
        let same = traced.iter().all(|cells| {
            cells
                .iter()
                .zip(&runs[0])
                .all(|(tr, un)| tr.iter().eq(un[..3].iter().map(|r| &r.report)))
        });
        ctx.check(
            "grid.traced_matches_untraced",
            same,
            "T4, A100, HiHGNN reports",
        );
        let edges: usize = s
            .cells
            .iter()
            .flat_map(|c| &c.graphs)
            .map(|g| g.edge_count())
            .sum();
        let gpu_s =
            ctx.get("accel.gpu.t4_s").unwrap_or(0.0) + ctx.get("accel.gpu.a100_s").unwrap_or(0.0);
        ctx.set("accel.gpu.ns_per_edge", gpu_s * 1e9 / (2 * edges) as f64);
        ctx.alloc_overhead(|| {
            run_platforms(&refs, &cell.workload, &cell.graphs).expect("grid inputs are aligned");
        });
    }
}

//! Host-time benchmark of the GDR-HGNN reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid|replay-sharded|serve-traced|all \
//!     --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Each workload repeats set-up and its untraced pass until the passes
//! have spent `--seconds` (`setup_s` and `pass_s` are the medians) and
//! checks the outputs. With `--trace 1` it also runs
//! the pass with every layer call wrapped in a span, writes the spans to
//! `.bench_out/`, and reports per-layer self times. The last line of
//! standard output is one JSON object with the metrics BENCHMARK.json
//! declares. See README.md for the workload → layer → metric map.

mod alloc;
mod grid;
mod replay;
mod serve;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

use gdr_system::json::Json;
use spans::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// BENCHMARK.json, embedded at build time: the metrics each mode prints,
/// with their units.
const DECLARATION: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// `(name, unit)` of every metric in a BENCHMARK.json section:
/// `end_to_end` (printed with `--trace 0`) or `per_layer` (with
/// `--trace 1`; a layer the workload does not call reads 0).
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = Json::parse(DECLARATION).expect("BENCHMARK.json parses");
    let metrics = doc.get(section).and_then(Json::as_arr);
    metrics
        .expect("BENCHMARK.json lists the section")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["paper-grid", "replay-sharded", "serve-traced"];

/// Name of the root span wrapping each traced pass; its self time is
/// the benchmark's own glue, not a layer's.
const PASS_SPAN: &str = "bench.pass";

/// Command-line parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Dataset seed and request-stream seed.
    pub seed: u64,
    /// Measuring time, seconds (at least one pass always runs).
    pub seconds: f64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own test.
    pub smoke: bool,
}

/// The median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host lanes available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// One workload's measurements, checks and report lines.
pub struct Ctx {
    pub p: Params,
    pub workload: &'static str,
    pub tracer: Tracer,
    setup_run: Option<u32>,
    pass_runs: Vec<u32>,
    pass_times: Vec<f64>,
    values: BTreeMap<String, f64>,
    checks: Vec<Check>,
    passes: u64,
    notes: Vec<String>,
}

impl Ctx {
    fn new(p: Params, workload: &'static str) -> Self {
        Self {
            p,
            workload,
            tracer: Tracer::new(),
            setup_run: None,
            pass_runs: Vec::new(),
            pass_times: Vec::new(),
            values: BTreeMap::new(),
            checks: Vec::new(),
            passes: 0,
            notes: Vec::new(),
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A recorded metric value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Display) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.to_string(),
        });
    }

    fn budget_s(&self) -> f64 {
        if self.p.trace {
            self.p.seconds / 2.0
        } else {
            self.p.seconds
        }
    }

    /// Sets up and runs the untraced pass until the passes have spent the
    /// measuring budget (at least once), and returns the last set-up with
    /// every pass's output.
    ///
    /// Untraced, each pass runs on a fresh set-up, so set-up samples
    /// spread over the same stretch of time as the passes; set-up repeats
    /// at the end until it has run five times and for a second in all.
    /// `setup_s` is the median set-up. Traced, `traced_setup` runs once
    /// under its own run id and the passes share it.
    ///
    /// `pass_s` is the median host seconds of one pass, and
    /// `heap_b_per_item` the median peak heap growth of a pass over its
    /// `items`.
    pub fn measure<S, O>(
        &mut self,
        mut setup: impl FnMut() -> S,
        traced_setup: impl FnOnce(&mut Tracer) -> S,
        items: impl Fn(&O) -> f64,
        mut pass: impl FnMut(&S) -> O,
    ) -> (S, Vec<O>) {
        fn timed<S>(setup: &mut impl FnMut() -> S, last: &mut Option<S>, times: &mut Vec<f64>) {
            drop(last.take());
            let t = Instant::now();
            *last = Some(setup());
            times.push(t.elapsed().as_secs_f64());
        }
        let mut setup_times = Vec::new();
        let mut current = None;
        if self.p.trace {
            self.setup_run = Some(self.tracer.next_run());
            current = Some(traced_setup(&mut self.tracer));
        }
        let budget = self.budget_s();
        let (mut outs, mut heap, mut spent) = (Vec::new(), Vec::new(), 0.0);
        while outs.is_empty() || spent < budget {
            if !self.p.trace {
                timed(&mut setup, &mut current, &mut setup_times);
            }
            let s = current.as_ref().expect("set up before the pass");
            let base = alloc::reset_peak();
            let t = Instant::now();
            let out = pass(s);
            let dt = t.elapsed().as_secs_f64();
            heap.push((alloc::peak() - base) as f64 / items(&out));
            self.pass_times.push(dt);
            spent += dt;
            outs.push(out);
            self.passes += 1;
        }
        if !self.p.trace {
            let (min_reps, min_s) = if self.p.smoke { (2, 0.0) } else { (5, 1.0) };
            while setup_times.len() < min_reps || setup_times.iter().sum::<f64>() < min_s {
                timed(&mut setup, &mut current, &mut setup_times);
            }
            self.set("setup_s", median(&mut setup_times));
        }
        self.set("pass_s", median(&mut self.pass_times.clone()));
        self.set("heap_b_per_item", median(&mut heap));
        (current.expect("set up at least once"), outs)
    }

    /// Trace mode: repeats the traced pass for the rest of the budget (at
    /// least once), each under its own run id inside a root span, and
    /// derives the per-layer metrics from the spans.
    pub fn traced_passes<O>(&mut self, mut pass: impl FnMut(&mut Tracer) -> O) -> Vec<O> {
        let budget = self.budget_s();
        let start = Instant::now();
        let mut outs = Vec::new();
        let mut walls = Vec::new();
        loop {
            self.pass_runs.push(self.tracer.next_run());
            let t = Instant::now();
            self.tracer.enter(PASS_SPAN);
            outs.push(pass(&mut self.tracer));
            self.tracer.exit();
            walls.push(t.elapsed().as_secs_f64());
            self.passes += 1;
            if start.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        let traced = median(&mut walls.clone());
        let untraced = median(&mut self.pass_times.clone());
        self.set("trace.overhead", traced / untraced - 1.0);
        let mut coverage: Vec<f64> = self
            .pass_runs
            .iter()
            .zip(&walls)
            .map(|(&run, wall)| {
                let own = self.tracer.self_s(&[run]);
                let glue = own.get(PASS_SPAN).copied().unwrap_or(0.0);
                (own.values().sum::<f64>() - glue) / wall
            })
            .collect();
        self.set("trace.coverage", median(&mut coverage));
        let mut layer_s = self.tracer.self_s(&self.pass_runs);
        if let Some(run) = self.setup_run {
            for (name, s) in self.tracer.self_s(&[run]) {
                *layer_s.entry(name).or_insert(0.0) += s;
            }
        }
        for (name, s) in layer_s {
            self.set(&format!("{name}_s"), s);
        }
        let mut runs = self.pass_runs.clone();
        runs.extend(self.setup_run);
        let mut heap: BTreeMap<String, f64> = BTreeMap::new();
        for (name, b) in self.tracer.heap_b(&runs) {
            let layer = name.rsplit_once('.').map_or(name, |(l, _)| l);
            let e = heap.entry(format!("{layer}.heap_b")).or_insert(0.0);
            *e = e.max(b);
        }
        for (name, b) in heap {
            self.set(&name, b);
        }
        outs
    }

    /// Times `work` in three pairs, the counting allocator on and then
    /// off; the median ratio, minus 1, is the allocator's own overhead on
    /// that work.
    pub fn alloc_overhead(&mut self, mut work: impl FnMut()) {
        let mut time = |counting: bool| {
            alloc::set_enabled(counting);
            let t = Instant::now();
            work();
            let dt = t.elapsed().as_secs_f64();
            alloc::set_enabled(true);
            dt
        };
        let mut ratios: Vec<f64> = (0..3).map(|_| time(true) / time(false)).collect();
        self.passes += 6;
        self.set("bench.alloc_overhead", median(&mut ratios) - 1.0);
    }

    fn failed(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }

    fn attempted(&self) -> u64 {
        self.passes + self.checks.len() as u64
    }

    /// The metrics the final JSON line carries for this mode.
    fn declared(&self) -> Vec<(String, String)> {
        declared(if self.p.trace {
            "per_layer"
        } else {
            "end_to_end"
        })
    }

    fn print_report(&self) {
        println!(
            "== {} (seed {}, nproc {}) ==",
            self.workload,
            self.p.seed,
            nproc()
        );
        let units: BTreeMap<String, String> = declared("end_to_end")
            .into_iter()
            .chain(declared("per_layer"))
            .collect();
        let unit = |name: &str| match units.get(name) {
            Some(u) => u.as_str(),
            None if name.ends_with("heap_b") => "B",
            None => "s",
        };
        for (name, value) in &self.values {
            println!("  {name:<30} {value:>16.6} {}", unit(name));
        }
        for line in &self.notes {
            println!("  {line}");
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            println!("  check {:<28} {verdict}  {}", c.name, c.detail);
        }
    }

    /// `"name":{"value":v,"unit":"u"}` for every declared metric, names
    /// prefixed with `prefix`.
    fn json_metrics(&self, prefix: &str) -> Vec<String> {
        self.declared()
            .into_iter()
            .map(|(name, unit)| {
                let value = match self.values.get(&name) {
                    Some(v) if v.is_finite() => *v,
                    Some(_) => 0.0,
                    // End-to-end metrics are set by every workload; a
                    // per-layer metric of a layer the workload never
                    // calls is 0.
                    None => {
                        assert!(self.p.trace, "end-to-end metric {name} was not measured");
                        0.0
                    }
                };
                format!("\"{prefix}{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect()
    }
}

fn parse_args() -> Result<(Vec<&'static str>, Params), String> {
    let mut workload = None;
    let mut p = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            p.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => p.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                p.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(p.seconds >= 0.0 && p.seconds <= 3600.0) {
                    return Err(format!("--seconds {value}: must be in [0, 3600]"));
                }
            }
            "--trace" => {
                p.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let selected = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![*WORKLOADS.iter().find(|w| **w == workload).ok_or_else(|| {
            format!(
                "unknown workload {workload}; valid: {}, all",
                WORKLOADS.join(", ")
            )
        })?]
    };
    Ok((selected, p))
}

fn main() {
    let (selected, p) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("gdr-perfbench: {e}");
            eprintln!(
                "usage: gdr-perfbench --workload <{}|all> --seed N --seconds S --trace 0|1 [--smoke]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut ctxs = Vec::new();
    for &workload in &selected {
        let mut ctx = Ctx::new(p, workload);
        match workload {
            "paper-grid" => grid::run(&mut ctx),
            "replay-sharded" => replay::run(&mut ctx),
            "serve-traced" => serve::run(&mut ctx),
            _ => unreachable!("parse_args validates the workload"),
        }
        if p.trace {
            let path =
                PathBuf::from(".bench_out").join(format!("spans-{workload}-seed{}.json", p.seed));
            let spans = ctx.tracer.len();
            let (ok, detail) = match ctx.tracer.write_chrome(&path) {
                Ok(()) => (spans > 0, format!("{spans} spans → {}", path.display())),
                Err(e) => (false, format!("{}: {e}", path.display())),
            };
            ctx.check("trace.spans_written", ok, detail);
        }
        ctx.print_report();
        ctxs.push(ctx);
    }
    let failed: usize = ctxs.iter().map(Ctx::failed).sum();
    let attempted: u64 = ctxs.iter().map(Ctx::attempted).sum();
    let metrics: Vec<String> = ctxs
        .iter()
        .flat_map(|c| {
            let prefix = if selected.len() > 1 {
                format!("{}/", c.workload)
            } else {
                String::new()
            };
            c.json_metrics(&prefix)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

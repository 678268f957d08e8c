//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public API in a span
//! (name, start, end, parent, run id, peak heap growth). Spans stay in
//! memory and are written out once, at the end, as Chrome trace events
//! that Perfetto loads. A span's self time is its duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// One recorded call.
struct Span {
    /// Layer-qualified name, e.g. `core.matching`.
    name: &'static str,
    /// Run the span belongs to (one set-up or one pass).
    run: u32,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start, ns since the tracer was created.
    start_ns: u64,
    /// End, ns since the tracer was created.
    end_ns: u64,
    /// Peak live heap during the span above the live heap at its start.
    heap_b: i64,
}

struct Open {
    id: usize,
    outer_peak: isize,
    base: isize,
}

/// Collects spans; see the module docs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// A tracer that records nothing: code shared by the traced and
    /// untraced paths runs unwrapped.
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::new()
        }
    }

    /// Starts a new run id; spans recorded until the next call share it.
    pub fn next_run(&mut self) -> u32 {
        assert!(self.open.is_empty(), "a run starts outside every span");
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let outer_peak = alloc::peak();
        let base = alloc::reset_peak();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().map(|o| o.id),
            start_ns: self.now_ns(),
            end_ns: 0,
            heap_b: 0,
        });
        self.open.push(Open {
            id,
            outer_peak,
            base,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let open = self.open.pop().expect("exit matches an enter");
        let peak = alloc::peak();
        let span = &mut self.spans[open.id];
        span.end_ns = end;
        span.heap_b = (peak - open.base) as i64;
        alloc::raise_peak(open.outer_peak.max(peak));
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Self time of every span, ns, indexed like the spans.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per span name: the median over `runs` of that run's summed self
    /// time, seconds (a run without the span counts as 0).
    pub fn self_s(&self, runs: &[u32]) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, &ns) in self.spans.iter().zip(&own) {
            if let Some(i) = runs.iter().position(|&r| r == s.run) {
                per.entry(s.name).or_insert_with(|| vec![0.0; runs.len()])[i] += ns as f64 / 1e9;
            }
        }
        per.into_iter()
            .map(|(name, mut v)| (name, crate::median(&mut v)))
            .collect()
    }

    /// Per span name: the largest heap growth seen in `runs`, bytes.
    pub fn heap_b(&self, runs: &[u32]) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| runs.contains(&s.run)) {
            let e = out.entry(s.name).or_insert(0.0);
            *e = e.max(s.heap_b as f64);
        }
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as a Chrome trace-event array.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"heap_b\":{}}}}}{}",
                s.name,
                layer,
                s.run,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.heap_b,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

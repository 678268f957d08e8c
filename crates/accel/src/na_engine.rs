//! NA-stage buffer simulation.
//!
//! Walks an edge schedule against the (set-associative) NA feature buffer
//! and produces the DRAM request trace plus the per-vertex replacement
//! statistics of Fig. 2. Used by the HiHGNN model with either the natural
//! destination-major schedule or a GDR-restructured schedule.

use gdr_core::schedule::EdgeSchedule;
use gdr_core::workspace::{BufferScratch, FetchCounts};
use gdr_hetgraph::BipartiteGraph;
use gdr_memsim::buffer::{Access, BufferStats, Replacement, SetAssocBuffer};
use gdr_memsim::hbm::MemRequest;

use crate::calib::FEATURE_BYTES;

/// DRAM layout bases for the NA stage's feature spaces.
const SRC_BASE: u64 = 0x4000_0000;
const DST_BASE: u64 = 0x8000_0000;
const TOPO_BASE: u64 = 0xC000_0000;

/// Graph tags the buffer tags can namespace: `graph_tag` fills bits
/// 32..40, just below the side bit.
pub const GRAPH_TAGS: u64 = 1 << 8;

/// Tag encoding: bit 40 distinguishes destination accumulators from
/// source features; the low bits carry `graph_tag` and the vertex id.
/// The tag's slot (`tag >> 32`) indexes the dense [`FetchCounts`].
fn tag(graph_tag: u64, is_dst: bool, id: u32) -> u64 {
    ((is_dst as u64) << 40) | (graph_tag << 32) | id as u64
}

/// Rejects a graph tag that would spill into the side bit.
fn check_graph_tag(graph_tag: u64) {
    assert!(
        graph_tag < GRAPH_TAGS,
        "graph_tag {graph_tag} outside the tag namespace 0..{GRAPH_TAGS}"
    );
}

/// One edge's buffer traffic: a source feature read and a destination
/// partial-sum read-modify-write, with dirty accumulator write-backs.
/// Every miss is a fetch, counted per tag in `fetch_counts`.
fn access_edge(
    buf: &mut SetAssocBuffer,
    requests: &mut Vec<MemRequest>,
    fetch_counts: &mut FetchCounts,
    graph_tag: u64,
    e: &gdr_hetgraph::Edge,
    fb: u32,
) {
    let t = tag(graph_tag, false, e.src.raw());
    if let Access::Miss { .. } = buf.access(t) {
        fetch_counts.bump(t);
        requests.push(MemRequest::read(
            SRC_BASE + e.src.raw() as u64 * fb as u64,
            fb,
        ));
    }
    let t = tag(graph_tag, true, e.dst.raw());
    if let Access::Miss { evicted } = buf.access(t) {
        fetch_counts.bump(t);
        requests.push(MemRequest::read(
            DST_BASE + e.dst.raw() as u64 * fb as u64,
            fb,
        ));
        if let Some(victim) = evicted {
            // dirty accumulator write-back (sources are clean)
            if victim >> 40 == 1 {
                let vid = victim & 0xFFFF_FFFF;
                requests.push(MemRequest::write(DST_BASE + vid * fb as u64, fb));
            }
        }
    }
}

/// Result of simulating the NA stage of one semantic graph.
#[derive(Debug, Clone)]
pub struct NaTrace {
    /// Buffer accesses (2 per edge).
    pub accesses: u64,
    /// Buffer hits.
    pub hits: u64,
    /// Buffer misses (feature fetches).
    pub misses: u64,
    /// The DRAM request trace (feature fetches, dirty write-backs,
    /// topology streaming).
    pub requests: Vec<MemRequest>,
    /// Fetch counts per tag (see [`NaBufferSim::simulate`]), dense and
    /// iterated in tag order; replacement times = fetches − 1.
    pub fetch_counts: FetchCounts,
}

impl NaTrace {
    /// Buffer hit rate (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Total bytes of the request trace.
    pub fn bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.bytes as u64).sum()
    }

    /// Replacement times of **source** features only (the statistic
    /// Fig. 2 plots: how often a neighbor's feature vector had to be
    /// re-fetched during aggregation), in tag order.
    pub fn src_replacement_times(&self) -> Vec<u32> {
        src_replacement_times(&self.fetch_counts)
    }
}

/// Replacement times (fetches − 1) of the source-feature tags in a
/// fetch-count table, in tag order: the counters iterate in tag order
/// and source tags (side bit clear) come first, so this walks only the
/// source slots.
pub(crate) fn src_replacement_times(fetch_counts: &FetchCounts) -> Vec<u32> {
    fetch_counts
        .iter()
        .take_while(|&(t, _)| t >> 40 == 0)
        .map(|(_, f)| f - 1)
        .collect()
}

/// The NA buffer simulator.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::BipartiteGraph;
/// use gdr_core::schedule::EdgeSchedule;
/// use gdr_accel::na_engine::NaBufferSim;
/// let g = BipartiteGraph::from_pairs("g", 4, 4, &[(0, 0), (1, 1)])?;
/// let sim = NaBufferSim::new(64, 8);
/// let trace = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 0);
/// assert_eq!(trace.misses, 4); // two sources + two destinations, cold
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaBufferSim {
    capacity_features: usize,
    ways: usize,
    policy: Replacement,
}

impl NaBufferSim {
    /// Creates a simulator for a buffer holding `capacity_features`
    /// vectors with the given associativity. The replacement policy
    /// defaults to FIFO — the policy large accelerator scratchpads
    /// implement in practice (true LRU over tens of thousands of lines is
    /// not economical); see [`NaBufferSim::with_policy`].
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(capacity_features: usize, ways: usize) -> Self {
        assert!(capacity_features > 0 && ways > 0, "degenerate na buffer");
        Self {
            capacity_features,
            ways,
            policy: Replacement::Fifo,
        }
    }

    /// Overrides the replacement policy.
    pub fn with_policy(mut self, policy: Replacement) -> Self {
        self.policy = policy;
        self
    }

    /// Buffer capacity in feature vectors.
    pub fn capacity_features(&self) -> usize {
        self.capacity_features
    }

    /// Simulates a *wave* of semantic graphs executing concurrently on the
    /// accelerator's lanes, all contending for this one buffer: edge
    /// chunks of `chunk` edges are interleaved round-robin across the
    /// lanes, which is how the multi-lane NA engines interleave their
    /// buffer traffic in time.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero or a graph tag is not below
    /// [`GRAPH_TAGS`].
    pub fn simulate_wave(
        &self,
        items: &[(&BipartiteGraph, &EdgeSchedule, u64)],
        chunk: usize,
    ) -> NaTrace {
        let mut scratch = BufferScratch::default();
        let stats = self.simulate_wave_with(&mut scratch, items, chunk);
        Self::into_trace(stats, &mut scratch)
    }

    /// [`NaBufferSim::simulate_wave`] over caller-pooled scratch. The
    /// returned stats cover this wave only; the DRAM request trace is
    /// left in `scratch.requests`, and each miss adds one to
    /// `scratch.fetch_counts`, which keeps aggregating across waves (tags
    /// are graph-namespaced) until the caller resets the scratch or
    /// changes the buffer geometry. Per-wave residency, stats, and
    /// requests are identical to the transient-buffer path.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero or a graph tag is not below
    /// [`GRAPH_TAGS`].
    pub fn simulate_wave_with(
        &self,
        scratch: &mut BufferScratch,
        items: &[(&BipartiteGraph, &EdgeSchedule, u64)],
        chunk: usize,
    ) -> BufferStats {
        assert!(chunk > 0, "chunk must be positive");
        for &(_, _, graph_tag) in items {
            check_graph_tag(graph_tag);
        }
        let (buf, requests, counts) =
            scratch.prepare(self.capacity_features, self.ways, self.policy);
        let fb = FEATURE_BYTES as u32;

        // Topology streams per lane.
        for &(g, _, graph_tag) in items {
            stream_topology(requests, g, graph_tag);
        }

        let mut cursors = vec![0usize; items.len()];
        let mut live = items.len();
        while live > 0 {
            live = 0;
            for (i, &(_, schedule, graph_tag)) in items.iter().enumerate() {
                let edges = schedule.edges();
                if cursors[i] >= edges.len() {
                    continue;
                }
                let end = (cursors[i] + chunk).min(edges.len());
                for e in &edges[cursors[i]..end] {
                    access_edge(buf, requests, counts, graph_tag, e, fb);
                }
                cursors[i] = end;
                if cursors[i] < edges.len() {
                    live += 1;
                }
            }
        }
        // Per-graph flush of finished accumulators.
        for &(g, _, _) in items {
            flush_accumulators(requests, g, fb);
        }
        buf.stats().clone()
    }

    /// Simulates the schedule; `graph_tag` namespaces the tags so traces
    /// from several semantic graphs can be aggregated.
    ///
    /// # Panics
    ///
    /// Panics if `graph_tag` is not below [`GRAPH_TAGS`].
    pub fn simulate(&self, g: &BipartiteGraph, schedule: &EdgeSchedule, graph_tag: u64) -> NaTrace {
        let mut scratch = BufferScratch::default();
        let stats = self.simulate_edges_with(&mut scratch, g, schedule.edges(), graph_tag);
        Self::into_trace(stats, &mut scratch)
    }

    /// [`NaBufferSim::simulate`] over caller-pooled scratch and a raw
    /// edge slice — the zero-allocation entry point for replayed
    /// schedules living in a
    /// [`Workspace`](gdr_core::workspace::Workspace)'s `edges` buffer
    /// (the state [`restructure_with`](gdr_core::restructure::Restructurer::restructure_with)
    /// leaves behind). Same contract as
    /// [`NaBufferSim::simulate_wave_with`]: per-run stats returned,
    /// requests in `scratch.requests`, fetch counts aggregating in
    /// `scratch.fetch_counts`.
    ///
    /// # Panics
    ///
    /// Panics if `graph_tag` is not below [`GRAPH_TAGS`].
    pub fn simulate_edges_with(
        &self,
        scratch: &mut BufferScratch,
        g: &BipartiteGraph,
        edges: &[gdr_hetgraph::Edge],
        graph_tag: u64,
    ) -> BufferStats {
        check_graph_tag(graph_tag);
        let (buf, requests, counts) =
            scratch.prepare(self.capacity_features, self.ways, self.policy);
        let fb = FEATURE_BYTES as u32;

        // Topology streaming: the edge list itself (8 B per edge), read
        // sequentially in 256 B bursts.
        stream_topology(requests, g, graph_tag);

        for e in edges {
            access_edge(buf, requests, counts, graph_tag, e, fb);
        }
        // Flush: every destination written once at the end (finished
        // accumulators stream out to the SF stage's DRAM region).
        flush_accumulators(requests, g, fb);
        buf.stats().clone()
    }

    /// Folds a transient scratch into the owned [`NaTrace`] the
    /// allocating wrappers return.
    fn into_trace(stats: BufferStats, scratch: &mut BufferScratch) -> NaTrace {
        NaTrace {
            accesses: stats.accesses,
            hits: stats.hits,
            misses: stats.misses,
            requests: std::mem::take(&mut scratch.requests),
            fetch_counts: std::mem::take(&mut scratch.fetch_counts),
        }
    }
}

/// Streams a graph's edge list (8 B per edge) in 256 B bursts.
fn stream_topology(requests: &mut Vec<MemRequest>, g: &BipartiteGraph, graph_tag: u64) {
    let topo_bytes = (g.edge_count() as u64) * 8;
    let mut off = 0;
    while off < topo_bytes {
        let size = (topo_bytes - off).min(256) as u32;
        requests.push(MemRequest::read(
            TOPO_BASE + graph_tag * 0x0100_0000 + off,
            size,
        ));
        off += size as u64;
    }
}

/// Writes every finished destination accumulator out once.
fn flush_accumulators(requests: &mut Vec<MemRequest>, g: &BipartiteGraph, fb: u32) {
    for d in 0..g.dst_count() {
        if g.in_degree(d) > 0 {
            requests.push(MemRequest::write(DST_BASE + d as u64 * fb as u64, fb));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_core::backbone::BackboneStrategy;
    use gdr_core::restructure::Restructurer;
    use gdr_hetgraph::gen::PowerLawConfig;
    use gdr_hetgraph::Edge;
    use std::collections::HashMap;

    fn graph() -> BipartiteGraph {
        PowerLawConfig::new(600, 600, 4800)
            .dst_alpha(0.9)
            .generate("g", 7)
    }

    #[test]
    fn cold_misses_only_with_large_buffer() {
        let g = graph();
        let sim = NaBufferSim::new(1 << 20, 16);
        let t = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 0);
        let touched_src = (0..g.src_count()).filter(|&s| g.out_degree(s) > 0).count();
        let touched_dst = (0..g.dst_count()).filter(|&d| g.in_degree(d) > 0).count();
        assert_eq!(t.misses as usize, touched_src + touched_dst);
        assert!(t.hit_rate() > 0.5);
    }

    #[test]
    fn small_buffer_thrashes_and_restructuring_helps() {
        // The frontend's premise: the backbone fits on-chip while the full
        // working set does not. Pick the capacity accordingly.
        let g = graph();
        let r = Restructurer::new()
            .backbone_strategy(BackboneStrategy::KonigExact)
            .restructure(&g);
        let backbone = r.backbone().len();
        let working_set = (0..g.src_count()).filter(|&s| g.out_degree(s) > 0).count()
            + (0..g.dst_count()).filter(|&d| g.in_degree(d) > 0).count();
        let cap = backbone + 128;
        assert!(
            cap < working_set,
            "test premise: backbone fits, WS does not"
        );
        let sim = NaBufferSim::new(cap, 8);
        let base = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 0);
        let gdr = sim.simulate(&g, r.schedule(), 0);
        assert!(
            gdr.misses < base.misses,
            "restructured {} vs baseline {}",
            gdr.misses,
            base.misses
        );
        assert!(gdr.bytes() < base.bytes());
    }

    #[test]
    fn replacement_times_nonzero_under_thrash() {
        let g = graph();
        let sim = NaBufferSim::new(64, 8);
        let t = sim.simulate(&g, &EdgeSchedule::random(&g, 3), 0);
        let rt = t.src_replacement_times();
        assert!(rt.iter().any(|&r| r > 0), "expected refetches under thrash");
    }

    #[test]
    fn replacement_times_track_refetches() {
        // A one-line buffer: every fetch evicts the previous line, so
        // source 0 is fetched twice, source 1 once, destination 0 thrice.
        let g = BipartiteGraph::from_pairs("t", 2, 1, &[(0, 0), (1, 0)]).unwrap();
        let edges = [Edge::new(0, 0), Edge::new(1, 0), Edge::new(0, 0)];
        let mut scratch = BufferScratch::default();
        NaBufferSim::new(1, 1).simulate_edges_with(&mut scratch, &g, &edges, 0);
        assert_eq!(scratch.fetch_counts.get(tag(0, true, 0)), 3);
        assert_eq!(src_replacement_times(&scratch.fetch_counts), vec![1, 0]);
    }

    #[test]
    fn fetch_counts_aggregate_until_geometry_change_or_reset() {
        let g = graph();
        let sched = EdgeSchedule::dst_major(&g);
        let sim = NaBufferSim::new(64, 8);
        let fresh = sim.simulate(&g, &sched, 0);
        let mut scratch = BufferScratch::default();
        sim.simulate_edges_with(&mut scratch, &g, sched.edges(), 0);
        // residency and stats restart per run…
        let stats = sim.simulate_edges_with(&mut scratch, &g, sched.edges(), 0);
        assert_eq!((stats.hits, stats.misses), (fresh.hits, fresh.misses));
        // …while the counts aggregate across prepares
        let doubled: Vec<(u64, u32)> = fresh.fetch_counts.iter().map(|(t, f)| (t, 2 * f)).collect();
        assert_eq!(scratch.fetch_counts.iter().collect::<Vec<_>>(), doubled);
        // a geometry change starts them over
        let other = NaBufferSim::new(32, 4).with_policy(Replacement::Lru);
        other.simulate_edges_with(&mut scratch, &g, sched.edges(), 0);
        assert_eq!(
            scratch.fetch_counts,
            other.simulate(&g, &sched, 0).fetch_counts
        );
        scratch.reset();
        assert_eq!(scratch.fetch_counts.iter().count(), 0);
    }

    #[test]
    fn src_replacement_times_are_in_tag_order() {
        // two runs, each with its own counters
        let g = graph();
        let sched = EdgeSchedule::random(&g, 3);
        let sim = NaBufferSim::new(64, 8);
        let a = sim.simulate(&g, &sched, 0).src_replacement_times();
        let b = sim.simulate(&g, &sched, 0).src_replacement_times();
        assert!(a.iter().any(|&r| r != a[0]), "premise: counts differ");
        assert_eq!(a, b);
    }

    #[test]
    fn trace_contains_topology_and_flush() {
        let g = BipartiteGraph::from_pairs("t", 2, 2, &[(0, 0), (1, 1)]).unwrap();
        let sim = NaBufferSim::new(16, 4);
        let t = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 1);
        let reads = t.requests.iter().filter(|r| !r.write).count();
        let writes = t.requests.iter().filter(|r| r.write).count();
        // 1 topo chunk + 2 src + 2 dst reads; 2 flush writes
        assert_eq!(reads, 5);
        assert_eq!(writes, 2);
    }

    #[test]
    fn graph_tags_namespace_fetch_counts() {
        let g = BipartiteGraph::from_pairs("t", 1, 1, &[(0, 0)]).unwrap();
        let sim = NaBufferSim::new(16, 4);
        let a = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 0);
        let b = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 3);
        let ka: Vec<u64> = a.fetch_counts.iter().map(|(t, _)| t).collect();
        let kb: Vec<u64> = b.fetch_counts.iter().map(|(t, _)| t).collect();
        assert!(!ka.is_empty() && !kb.is_empty());
        assert!(ka.iter().all(|k| !kb.contains(k)));
    }

    /// The hash-map counting the dense counters replaced, kept as their
    /// oracle: `edges` walked through a buffer of its own, every miss
    /// counted per tag.
    fn reference_counts(
        buf: &mut SetAssocBuffer,
        counts: &mut HashMap<u64, u32>,
        edges: &[Edge],
        graph_tag: u64,
    ) {
        for e in edges {
            for t in [
                tag(graph_tag, false, e.src.raw()),
                tag(graph_tag, true, e.dst.raw()),
            ] {
                if !buf.access(t).is_hit() {
                    *counts.entry(t).or_insert(0) += 1;
                }
            }
        }
    }

    /// The map's entries in tag order, and its source replacement
    /// times sorted by tag — the pre-dense definition.
    fn reference_views(counts: &HashMap<u64, u32>) -> (Vec<(u64, u32)>, Vec<u32>) {
        let mut entries: Vec<(u64, u32)> = counts.iter().map(|(&t, &f)| (t, f)).collect();
        entries.sort_unstable();
        let src = entries
            .iter()
            .filter(|&&(t, _)| t >> 40 == 0)
            .map(|&(_, f)| f.saturating_sub(1))
            .collect();
        (entries, src)
    }

    #[test]
    fn dense_counts_match_hash_map_reference() {
        let geometries = [(64, 8, Replacement::Fifo), (48, 4, Replacement::Lru)];
        for seed in 0..24u64 {
            let mut scratch = BufferScratch::default();
            let mut reference: HashMap<u64, u32> = HashMap::new();
            // random miss streams over several graph tags, the largest
            // tag included; geometry changes twice mid-sequence
            for (step, graph_tag) in [0, 5, GRAPH_TAGS - 1, 5, 2, 0].into_iter().enumerate() {
                let ctx = format!("seed {seed} step {step}");
                let (cap, ways, policy) = geometries[step / 2 % 2];
                let sim = NaBufferSim::new(cap, ways).with_policy(policy);
                if step > 0 && step % 2 == 0 {
                    reference.clear();
                }
                let n = 40 + 17 * (seed as usize % 5) + 31 * step;
                let g = PowerLawConfig::new(n, n / 2 + 3, 6 * n)
                    .dst_alpha(0.8)
                    .generate("g", seed * 8 + step as u64);
                let sched = EdgeSchedule::random(&g, seed + step as u64);
                sim.simulate_edges_with(&mut scratch, &g, sched.edges(), graph_tag);
                let mut buf = SetAssocBuffer::with_capacity(cap, ways, policy);
                reference_counts(&mut buf, &mut reference, sched.edges(), graph_tag);

                let (entries, src) = reference_views(&reference);
                let dense: Vec<(u64, u32)> = scratch.fetch_counts.iter().collect();
                assert_eq!(dense, entries, "{ctx}: iter");
                assert_eq!(src_replacement_times(&scratch.fetch_counts), src, "{ctx}");
                for &(t, f) in &entries {
                    assert_eq!(scratch.fetch_counts.get(t), f, "{ctx}: get {t:#x}");
                }
                assert!(src.iter().any(|&r| r > 0), "{ctx}: premise, refetches");
            }
            scratch.reset();
            assert_eq!(scratch.fetch_counts, FetchCounts::default(), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the tag namespace")]
    fn graph_tags_past_the_side_bit_rejected() {
        // graph_tag 256 would set bit 40 and alias destination tags
        let g = BipartiteGraph::from_pairs("t", 1, 1, &[(0, 0)]).unwrap();
        let sched = EdgeSchedule::dst_major(&g);
        NaBufferSim::new(16, 4).simulate_wave(&[(&g, &sched, 0), (&g, &sched, GRAPH_TAGS)], 4);
    }

    #[test]
    #[should_panic(expected = "degenerate na buffer")]
    fn zero_capacity_rejected() {
        let _ = NaBufferSim::new(0, 4);
    }

    #[test]
    fn pooled_scratch_matches_transient_runs() {
        let sim = NaBufferSim::new(96, 8);
        let mut scratch = BufferScratch::default();
        let mut expected_counts: HashMap<u64, u32> = HashMap::new();
        for seed in 0..5u64 {
            let g = PowerLawConfig::new(120, 120, 900)
                .dst_alpha(0.8)
                .generate("g", seed);
            let sched = EdgeSchedule::dst_major(&g);
            let stats = sim.simulate_edges_with(&mut scratch, &g, sched.edges(), seed);
            let fresh = sim.simulate(&g, &sched, seed);
            assert_eq!(stats.accesses, fresh.accesses, "seed {seed}");
            assert_eq!(stats.hits, fresh.hits, "seed {seed}");
            assert_eq!(stats.misses, fresh.misses, "seed {seed}");
            assert_eq!(scratch.requests, fresh.requests, "seed {seed}");
            // counters aggregate across runs (tags are namespaced by seed)
            for (t, f) in fresh.fetch_counts.iter() {
                *expected_counts.entry(t).or_insert(0) += f;
            }
            let pooled: Vec<(u64, u32)> = scratch.fetch_counts.iter().collect();
            assert_eq!(pooled, reference_views(&expected_counts).0, "seed {seed}");
        }
    }

    #[test]
    fn pooled_wave_matches_transient_wave() {
        let a = PowerLawConfig::new(90, 90, 700).generate("a", 1);
        let b = PowerLawConfig::new(60, 60, 400).generate("b", 2);
        let sa = EdgeSchedule::dst_major(&a);
        let sb = EdgeSchedule::dst_major(&b);
        let items = [(&a, &sa, 0u64), (&b, &sb, 1u64)];
        let sim = NaBufferSim::new(64, 8);
        let mut scratch = BufferScratch::default();
        for round in 0..3 {
            let stats = sim.simulate_wave_with(&mut scratch, &items, 16);
            let fresh = sim.simulate_wave(&items, 16);
            assert_eq!(stats.accesses, fresh.accesses, "round {round}");
            assert_eq!(stats.misses, fresh.misses, "round {round}");
            assert_eq!(scratch.requests, fresh.requests, "round {round}");
        }
    }
}

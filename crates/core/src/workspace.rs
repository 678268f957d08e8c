//! Reusable scratch arena for the restructuring hot path.
//!
//! The GDR-HGNN frontend restructures semantic graphs continuously —
//! one per accelerator execution, one per serving request batch — and
//! the naive implementation pays allocator traffic for every one of
//! them: fresh matching tables, BFS queues, partition FIFOs, and six
//! CSR arrays per graph. A [`Workspace`] owns all of that state once
//! and the `_into`/`_with` variants of the restructuring steps
//! ([`crate::matching::fifo_matching_into`],
//! [`crate::backbone::Backbone::select_into`],
//! [`crate::recouple::RestructuredSubgraphs::generate_into`],
//! [`crate::schedule::EdgeSchedule::restructured_into`],
//! [`crate::restructure::Restructurer::restructure_with`]) reuse it:
//! buffers are `clear()`ed, never dropped, and subgraph
//! [`BipartiteGraph`](gdr_hetgraph::BipartiteGraph)s are rebuilt in
//! place through
//! [`BipartiteGraph::rebuild_from_pairs`](gdr_hetgraph::BipartiteGraph::rebuild_from_pairs).
//! At steady state — once every buffer has grown to the largest graph
//! seen — a restructuring pass performs **zero heap allocation** for
//! its intermediates; only an owned schedule still allocates.
//!
//! Results are byte-identical to the allocating paths, which remain
//! available as thin wrappers constructing a transient workspace; a
//! 48-seed property net (`crates/core/tests/workspace_properties.rs`)
//! pins the equivalence over long reuse sequences with interleaved
//! graph sizes.
//!
//! # Examples
//!
//! ```
//! use gdr_core::restructure::Restructurer;
//! use gdr_core::workspace::Workspace;
//! use gdr_hetgraph::gen::PowerLawConfig;
//!
//! let r = Restructurer::new();
//! let mut ws = Workspace::new();
//! for seed in 0..4 {
//!     let g = PowerLawConfig::new(60, 60, 240).generate("g", seed);
//!     r.restructure_with(&mut ws, &g);
//!     assert_eq!(ws.subgraphs.total_edges(), g.edge_count());
//!     assert_eq!(ws.edges.len(), g.edge_count());
//! }
//! ```

use std::collections::VecDeque;

use gdr_hetgraph::Edge;
use gdr_memsim::buffer::{Replacement, SetAssocBuffer};
use gdr_memsim::hbm::MemRequest;

use crate::backbone::Backbone;
use crate::matching::Matching;
use crate::recouple::{RestructuredSubgraphs, VertexPartition};

/// Per-tag fetch counters of the NA buffer, dense: one `u32` vector per
/// tag slot `tag >> 32`, indexed by the tag's low 32 bits (the vertex
/// id). Memory grows with the largest slot and id counted, so slots
/// must stay few: the NA engine's tags put only its side bit and 8-bit
/// graph tag in the slot, at most 512 slots. A vector grows only when a
/// larger id is first counted; [`FetchCounts::clear`] zeroes the
/// counters and keeps every allocation, so a warm counter set bumps
/// without hashing or allocating.
///
/// # Examples
///
/// ```
/// use gdr_core::workspace::FetchCounts;
/// let mut counts = FetchCounts::default();
/// for tag in [(1 << 32) | 4, 9, (1 << 32) | 4] {
///     counts.bump(tag);
/// }
/// assert_eq!(counts.get((1 << 32) | 4), 2);
/// assert_eq!(counts.get(3), 0);
/// // nonzero counters only, in tag order
/// assert_eq!(counts.iter().collect::<Vec<_>>(), [(9, 1), ((1 << 32) | 4, 2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FetchCounts {
    slots: Vec<Vec<u32>>,
}

impl FetchCounts {
    /// Counts one fetch of `tag`.
    #[inline]
    pub fn bump(&mut self, tag: u64) {
        let (slot, id) = ((tag >> 32) as usize, tag as u32 as usize);
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, Vec::new);
        }
        let counts = &mut self.slots[slot];
        if id >= counts.len() {
            counts.resize(id + 1, 0);
        }
        counts[id] += 1;
    }

    /// Fetches of `tag` so far (0 if never fetched).
    pub fn get(&self, tag: u64) -> u32 {
        self.slots
            .get((tag >> 32) as usize)
            .and_then(|counts| counts.get(tag as u32 as usize))
            .copied()
            .unwrap_or(0)
    }

    /// `(tag, fetches)` of every fetched tag, in tag order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.slots.iter().enumerate().flat_map(|(slot, counts)| {
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &f)| f > 0)
                .map(move |(id, &f)| (((slot as u64) << 32) | id as u64, f))
        })
    }

    /// Zeroes every counter (capacity kept).
    pub fn clear(&mut self) {
        for counts in &mut self.slots {
            counts.fill(0);
        }
    }
}

/// Equal when the same tags have the same counts, however far each
/// side's vectors have grown.
impl PartialEq for FetchCounts {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for FetchCounts {}

/// Pooled set-associative buffer simulation state: one
/// [`SetAssocBuffer`] (kept across runs, [`SetAssocBuffer::reset`] between
/// them), a DRAM request-log vector, and the dense per-tag
/// [`FetchCounts`] the NA engine bumps on every miss (Fig. 2's
/// "replacement times" statistic: replacement times = fetches − 1).
/// Everything is cleared or zeroed, never dropped, so a warm scratch
/// simulates without allocating. The NA-engine models drive their
/// `_with` entry points through one of these instead of constructing
/// transient buffers per wave.
#[derive(Debug, Clone, Default)]
pub struct BufferScratch {
    /// Pooled buffer; `None` until the first [`BufferScratch::prepare`].
    pub buffer: Option<SetAssocBuffer>,
    /// Pooled DRAM request log (cleared per prepare, capacity kept).
    pub requests: Vec<MemRequest>,
    /// Fetches per tag, aggregated across runs at one geometry: kept by
    /// [`BufferScratch::prepare`], zeroed by a geometry change and by
    /// [`BufferScratch::reset`].
    pub fetch_counts: FetchCounts,
}

impl BufferScratch {
    /// Readies the scratch for one simulation run at the given buffer
    /// geometry: the request log is cleared and the pooled buffer is
    /// reset (residency and stats restart; **fetch counts are kept**,
    /// aggregating across runs until [`BufferScratch::reset`]). A
    /// geometry change reshapes the buffer in place and zeroes the
    /// counts too.
    pub fn prepare(
        &mut self,
        capacity_lines: usize,
        ways: usize,
        policy: Replacement,
    ) -> (&mut SetAssocBuffer, &mut Vec<MemRequest>, &mut FetchCounts) {
        self.requests.clear();
        let sets = (capacity_lines / ways).max(1);
        match &mut self.buffer {
            Some(buf) if buf.sets() == sets && buf.ways() == ways && buf.policy() == policy => {
                buf.reset();
            }
            Some(buf) => {
                buf.reshape(sets, ways, policy);
                self.fetch_counts.clear();
            }
            None => {
                self.buffer = Some(SetAssocBuffer::new(sets, ways, policy));
                self.fetch_counts.clear();
            }
        }
        (
            self.buffer.as_mut().expect("just ensured"),
            &mut self.requests,
            &mut self.fetch_counts,
        )
    }

    /// Clears everything, fetch counts included (capacity kept).
    pub fn reset(&mut self) {
        self.requests.clear();
        self.fetch_counts.clear();
        if let Some(buf) = &mut self.buffer {
            buf.reset();
        }
    }
}

/// Scratch consumed by the matching engines and backbone selection:
/// the decoupling FIFOs, epoch-tagged bitmaps, BFS layer arrays, and
/// alternating-reachability marks. Every buffer is length-reset per
/// graph but keeps its capacity.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Per-destination BFS parent — the `Matching_FIFO` head contents
    /// of the paper's Algorithm 1.
    pub parent_of_dst: Vec<u32>,
    /// Epoch-tagged visited bitmap over destinations (`Visited Bm.`).
    pub visited_dst: Vec<u32>,
    /// The `Search_List` FIFO driving the augmenting search.
    pub search_list: VecDeque<u32>,
    /// Per-source BFS layer distances (Hopcroft-Karp phases, also the
    /// hardware decoupler's bulk-synchronous search).
    pub dist: Vec<u32>,
    /// Shared BFS queue (phase layering, König alternating paths).
    pub queue: VecDeque<u32>,
    /// König `Z`-set membership, source side.
    pub z_src: Vec<bool>,
    /// König `Z`-set membership, destination side.
    pub z_dst: Vec<bool>,
}

/// Scratch consumed by three-subgraph generation: the per-class edge
/// partition buffers and the CSR counting-sort cursor used by the
/// in-place rebuilds.
#[derive(Debug, Clone, Default)]
pub struct RecoupleScratch {
    /// `Src_in × Dst_out` edge-partition buffer.
    pub in_out: Vec<(u32, u32)>,
    /// `Src_in × Dst_in` edge-partition buffer.
    pub in_in: Vec<(u32, u32)>,
    /// `Src_out × Dst_in` edge-partition buffer.
    pub out_in: Vec<(u32, u32)>,
    /// Counting-sort cursor for
    /// [`Csr`](gdr_hetgraph::Csr) rebuilds.
    pub cursor: Vec<u32>,
}

/// The reusable restructuring arena: output slots rebuilt in place
/// (matching, backbone, partition, subgraphs, schedule edges) plus the
/// scratch that produces them. One workspace serves any sequence of
/// graphs — sizes may differ wildly between calls; buffers resize
/// (upward allocations amortize away, downward resets are free).
///
/// Fields are public by design: the `_into` steps are usable à la carte
/// (an external engine like the hardware Decoupler model borrows
/// `matching` and `match_scratch` while leaving the rest untouched),
/// and disjoint field borrows keep the pipeline free of artificial
/// aliasing conflicts.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Matching output slot (graph decoupling result).
    pub matching: Matching,
    /// Matching-engine and backbone-selection scratch.
    pub match_scratch: MatchScratch,
    /// Backbone output slot (membership bitmaps rebuilt in place).
    pub backbone: Backbone,
    /// Four-way vertex partition output slot.
    pub partition: VertexPartition,
    /// Three-subgraph output slot; each
    /// [`BipartiteGraph`](gdr_hetgraph::BipartiteGraph) rebuilds its CSR
    /// storage in place.
    pub subgraphs: RestructuredSubgraphs,
    /// Edge-partition and CSR-rebuild scratch.
    pub recouple_scratch: RecoupleScratch,
    /// Schedule emission buffer: after
    /// [`Restructurer::restructure_with`](crate::restructure::Restructurer::restructure_with)
    /// this holds the restructured edge order.
    pub edges: Vec<Edge>,
    /// Pooled NA-buffer simulation state (set-associative buffer,
    /// request log and dense fetch counters) for the accelerator models'
    /// `_with` entry points.
    pub buffer_scratch: BufferScratch,
}

impl Workspace {
    /// Creates an empty workspace. All buffers start unallocated and
    /// grow to the working-set size over the first graphs processed.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::fifo_matching_into;
    use gdr_hetgraph::gen::PowerLawConfig;

    #[test]
    fn workspace_buffers_keep_capacity_across_graphs() {
        let mut ws = Workspace::new();
        let big = PowerLawConfig::new(300, 300, 1200).generate("b", 1);
        let small = PowerLawConfig::new(10, 10, 20).generate("s", 2);
        fifo_matching_into(&big, &mut ws.matching, &mut ws.match_scratch);
        let cap = ws.match_scratch.visited_dst.capacity();
        assert!(cap >= 300);
        fifo_matching_into(&small, &mut ws.matching, &mut ws.match_scratch);
        assert_eq!(
            ws.match_scratch.visited_dst.capacity(),
            cap,
            "shrinking graphs must not shed capacity"
        );
        assert_eq!(ws.matching.pair_src().len(), 10);
    }

    #[test]
    fn fetch_counts_aggregate_until_geometry_change_or_reset() {
        let mut scratch = BufferScratch::default();
        let (_, _, counts) = scratch.prepare(64, 8, Replacement::Fifo);
        counts.bump(7);
        counts.bump(7);
        // same geometry: counts aggregate across prepares
        let (buf, _, counts) = scratch.prepare(64, 8, Replacement::Fifo);
        assert_eq!(buf.stats().accesses, 0);
        assert_eq!(counts.get(7), 2);
        // a geometry change clears them
        scratch.prepare(64, 4, Replacement::Fifo).2.bump(9);
        let (buf, _, counts) = scratch.prepare(64, 4, Replacement::Lru);
        assert_eq!((buf.ways(), buf.policy()), (4, Replacement::Lru));
        assert_eq!(counts.iter().count(), 0);
        // and so does reset
        counts.bump(9);
        scratch.reset();
        assert_eq!(scratch.fetch_counts.iter().count(), 0);
    }

    #[test]
    fn fetch_counts_clear_keeps_capacity_and_compare_by_content() {
        let mut counts = FetchCounts::default();
        let tags = [(1u64 << 40) | 3, (255 << 32) | 1000, 0, 2];
        for &t in &tags {
            counts.bump(t);
        }
        let grown = counts.clone();
        let caps: Vec<usize> = counts.slots.iter().map(Vec::capacity).collect();
        counts.clear();
        assert_eq!(counts, FetchCounts::default(), "zeroed equals empty");
        assert!(tags.iter().all(|&t| counts.get(t) == 0));
        let kept: Vec<usize> = counts.slots.iter().map(Vec::capacity).collect();
        assert_eq!(kept, caps, "clear must keep every vector's capacity");
        // re-counting into the warm vectors reproduces the first pass
        for &t in &tags {
            counts.bump(t);
        }
        assert_eq!(counts, grown);
        assert_ne!(counts, FetchCounts::default());
    }
}

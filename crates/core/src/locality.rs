//! Fast locality analysis of edge schedules.
//!
//! This module answers "how much buffer thrashing does a schedule cause?"
//! with an idealized fully-associative LRU feature buffer — the
//! upper-bound of what any on-chip buffer organization can achieve. The
//! cycle-accurate set-associative model lives in `gdr-memsim`; this one is
//! used by the motivation experiments and the quick ablations because it
//! is allocation-light and exact.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use gdr_hetgraph::{BipartiteGraph, GdrError, GdrResult};

use crate::schedule::EdgeSchedule;

/// Which feature class an access touches.
///
/// The NA stage reads *source features* (the neighbor being aggregated)
/// and reads-modifies-writes *destination partial sums*; both compete for
/// the same on-chip buffer capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// Source feature vector read.
    Src,
    /// Destination partial-sum accumulator access.
    Dst,
}

/// Result of simulating a schedule against a fully-associative LRU buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalityReport {
    name: String,
    capacity: usize,
    accesses: usize,
    src_misses: usize,
    dst_misses: usize,
    fetches_src: Vec<u32>,
    fetches_dst: Vec<u32>,
}

impl LocalityReport {
    /// Schedule name this report was computed for.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Buffer capacity used, in resident feature vectors.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total accesses (2 per edge: one source read, one destination RMW).
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    /// Total buffer misses (each miss is a DRAM feature fetch).
    pub fn misses(&self) -> usize {
        self.src_misses + self.dst_misses
    }

    /// Source-side misses.
    pub fn src_misses(&self) -> usize {
        self.src_misses
    }

    /// Destination-side misses.
    pub fn dst_misses(&self) -> usize {
        self.dst_misses
    }

    /// Miss rate over all accesses (0 for an empty schedule).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }

    /// The *replacement times* of a vertex feature: how many times it was
    /// re-fetched after eviction (`fetches - 1`). Returns per-source and
    /// per-destination tables (Fig. 2's raw data).
    pub fn replacement_times(&self) -> (Vec<u32>, Vec<u32>) {
        let dec = |v: &[u32]| v.iter().map(|&f| f.saturating_sub(1)).collect();
        (dec(&self.fetches_src), dec(&self.fetches_dst))
    }

    /// Fig. 2: for replacement-time buckets `1..=cap` (last bucket
    /// accumulating `>= cap`), returns `(ratio_of_vertices, ratio_of_accesses)`
    /// in percent, over vertices that were replaced at least once.
    pub fn replacement_histogram(&self, cap: usize) -> Vec<(f64, f64)> {
        let (rs, rd) = self.replacement_times();
        let all: Vec<u32> = rs.into_iter().chain(rd).collect();
        let total_vertices = all.iter().filter(|&&r| r > 0).count();
        let total_extra_accesses: u64 = all.iter().map(|&r| r as u64).sum();
        let mut out = vec![(0.0, 0.0); cap];
        if total_vertices == 0 || total_extra_accesses == 0 {
            return out;
        }
        for &r in &all {
            if r == 0 {
                continue;
            }
            let b = (r as usize).min(cap) - 1;
            out[b].0 += 1.0;
            out[b].1 += r as f64;
        }
        for (v, a) in &mut out {
            *v = *v / total_vertices as f64 * 100.0;
            *a = *a / total_extra_accesses as f64 * 100.0;
        }
        out
    }
}

/// Simulates `schedule` against a fully-associative LRU buffer holding
/// `capacity` feature vectors (sources and destination partial sums share
/// it, as in HiHGNN's NA buffer).
///
/// # Panics
///
/// Panics if `capacity == 0`. Use [`try_simulate_lru`] for a fallible
/// variant.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::BipartiteGraph;
/// use gdr_core::schedule::EdgeSchedule;
/// use gdr_core::locality::simulate_lru;
/// let g = BipartiteGraph::from_pairs("g", 4, 4, &[(0, 0), (1, 0), (2, 1), (3, 1)])?;
/// let rep = simulate_lru(&g, &EdgeSchedule::dst_major(&g), 16);
/// // big enough buffer -> cold misses only: 4 sources + 2 destinations
/// assert_eq!(rep.misses(), 6);
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
pub fn simulate_lru(
    g: &BipartiteGraph,
    schedule: &EdgeSchedule,
    capacity: usize,
) -> LocalityReport {
    try_simulate_lru(g, schedule, capacity).expect("buffer capacity must be positive")
}

/// Fallible [`simulate_lru`].
///
/// # Errors
///
/// Returns [`GdrError::InvalidConfig`] if `capacity == 0` — a zero-entry
/// buffer cannot hold the edge under process, so the model is undefined.
pub fn try_simulate_lru(
    g: &BipartiteGraph,
    schedule: &EdgeSchedule,
    capacity: usize,
) -> GdrResult<LocalityReport> {
    if capacity == 0 {
        return Err(GdrError::invalid_config(
            "capacity",
            "buffer capacity must be positive",
        ));
    }
    let mut stamp: u64 = 0;
    // key -> last-use stamp of every resident feature
    let mut resident: HashMap<(Side, u32), u64> = HashMap::new();
    // min-heap of `(stamp, key)` touches; entries whose stamp no longer
    // matches `resident[key]` are stale and skipped at eviction time
    let mut heap: BinaryHeap<Reverse<(u64, Side, u32)>> = BinaryHeap::new();
    let mut fetches_src = vec![0u32; g.src_count()];
    let mut fetches_dst = vec![0u32; g.dst_count()];
    let mut src_misses = 0usize;
    let mut dst_misses = 0usize;

    let mut touch = |key: (Side, u32), miss_ctr: &mut usize, fetch_ctr: &mut u32| {
        stamp += 1;
        if resident.insert(key, stamp).is_some() {
            // hit: the old heap entry goes stale, the new stamp wins
            heap.push(Reverse((stamp, key.0, key.1)));
            return;
        }
        // miss: fetch, evict if over capacity
        *miss_ctr += 1;
        *fetch_ctr += 1;
        heap.push(Reverse((stamp, key.0, key.1)));
        if resident.len() > capacity {
            // pop stale entries until a current one surfaces — that is
            // the genuinely least-recently-used resident feature
            loop {
                let Reverse((s, side, id)) = heap.pop().expect("buffer non-empty");
                let victim = (side, id);
                if resident.get(&victim) == Some(&s) {
                    resident.remove(&victim);
                    break;
                }
            }
        }
    };

    for e in schedule.iter() {
        touch(
            (Side::Src, e.src.raw()),
            &mut src_misses,
            &mut fetches_src[e.src.index()],
        );
        touch(
            (Side::Dst, e.dst.raw()),
            &mut dst_misses,
            &mut fetches_dst[e.dst.index()],
        );
    }

    Ok(LocalityReport {
        name: schedule.name().to_string(),
        capacity,
        accesses: schedule.len() * 2,
        src_misses,
        dst_misses,
        fetches_src,
        fetches_dst,
    })
}

/// Sweeps buffer capacities and returns `(capacity, misses)` points — the
/// working-set curve of a schedule.
pub fn miss_curve(
    g: &BipartiteGraph,
    schedule: &EdgeSchedule,
    capacities: &[usize],
) -> Vec<(usize, usize)> {
    capacities
        .iter()
        .map(|&c| (c, simulate_lru(g, schedule, c).misses()))
        .collect()
}

/// Lower bound on misses for any schedule and any buffer: each touched
/// vertex must be fetched at least once (compulsory misses).
pub fn compulsory_misses(g: &BipartiteGraph) -> usize {
    let src = (0..g.src_count()).filter(|&s| g.out_degree(s) > 0).count();
    let dst = (0..g.dst_count()).filter(|&d| g.in_degree(d) > 0).count();
    src + dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::{Backbone, BackboneStrategy};
    use crate::matching::hopcroft_karp;
    use crate::recouple::RestructuredSubgraphs;
    use gdr_hetgraph::gen::PowerLawConfig;

    #[test]
    fn infinite_buffer_gives_compulsory_misses() {
        let g = PowerLawConfig::new(50, 50, 200).generate("g", 1);
        for sched in [
            EdgeSchedule::dst_major(&g),
            EdgeSchedule::random(&g, 3),
            EdgeSchedule::src_major(&g),
        ] {
            let rep = simulate_lru(&g, &sched, 1_000_000);
            assert_eq!(rep.misses(), compulsory_misses(&g), "{}", sched.name());
        }
    }

    #[test]
    fn misses_monotone_in_capacity() {
        // LRU has the stack property: misses never increase with capacity.
        let g = PowerLawConfig::new(100, 100, 800)
            .dst_alpha(0.9)
            .generate("g", 2);
        let sched = EdgeSchedule::random(&g, 9);
        let curve = miss_curve(&g, &sched, &[4, 8, 16, 32, 64, 128, 256]);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1, "misses increased: {curve:?}");
        }
    }

    #[test]
    fn restructured_beats_dst_major_under_pressure() {
        let g = PowerLawConfig::new(400, 400, 3200)
            .dst_alpha(0.9)
            .generate("g", 3);
        let m = hopcroft_karp(&g);
        let b = Backbone::select(&g, &m, BackboneStrategy::KonigExact);
        let r = RestructuredSubgraphs::generate(&g, &b);
        let cap = 96; // far below the ~800-vertex working set
        let base = simulate_lru(&g, &EdgeSchedule::dst_major(&g), cap);
        let gdr = simulate_lru(&g, &EdgeSchedule::restructured(&r), cap);
        assert!(
            gdr.misses() < base.misses(),
            "restructured {} vs dst-major {}",
            gdr.misses(),
            base.misses()
        );
    }

    #[test]
    fn replacement_histogram_percentages_sum() {
        let g = PowerLawConfig::new(60, 60, 600)
            .dst_alpha(1.0)
            .generate("g", 4);
        let rep = simulate_lru(&g, &EdgeSchedule::random(&g, 1), 16);
        let hist = rep.replacement_histogram(8);
        assert_eq!(hist.len(), 8);
        let v_sum: f64 = hist.iter().map(|h| h.0).sum();
        let a_sum: f64 = hist.iter().map(|h| h.1).sum();
        assert!((v_sum - 100.0).abs() < 1e-9, "vertex ratios sum to {v_sum}");
        assert!((a_sum - 100.0).abs() < 1e-9, "access ratios sum to {a_sum}");
    }

    #[test]
    fn miss_rate_and_accessors() {
        let g = BipartiteGraph::from_pairs("g", 2, 2, &[(0, 0), (1, 1)]).unwrap();
        let rep = simulate_lru(&g, &EdgeSchedule::dst_major(&g), 8);
        assert_eq!(rep.accesses(), 4);
        assert_eq!(rep.misses(), 4); // all compulsory
        assert_eq!(rep.miss_rate(), 1.0);
        assert_eq!(rep.capacity(), 8);
        assert_eq!(rep.name(), "dst-major");
        assert_eq!(rep.src_misses() + rep.dst_misses(), rep.misses());
    }

    #[test]
    fn empty_schedule() {
        let g = BipartiteGraph::from_pairs("e", 2, 2, &[]).unwrap();
        let rep = simulate_lru(&g, &EdgeSchedule::dst_major(&g), 4);
        assert_eq!(rep.miss_rate(), 0.0);
        assert_eq!(rep.misses(), 0);
        let hist = rep.replacement_histogram(8);
        assert!(hist.iter().all(|&(v, a)| v == 0.0 && a == 0.0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let g = BipartiteGraph::from_pairs("g", 1, 1, &[(0, 0)]).unwrap();
        let _ = simulate_lru(&g, &EdgeSchedule::dst_major(&g), 0);
    }
}

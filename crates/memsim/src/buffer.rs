//! Set-associative on-chip buffer model.
//!
//! This is the hardware-accurate counterpart of `gdr-core`'s idealized LRU
//! analysis: HiHGNN's NA buffer is organized set-associatively, so
//! conflict misses add to the thrashing the paper measures in Fig. 2, and
//! the GPU baselines' L2 is modelled the same way at sector granularity.
//! The buffer is a pure cache model — residency, hits, misses and victims.
//! Per-tag fetch counting (the "replacement times of vertices' features"
//! statistic) lives with its one reader, the NA engine's
//! `gdr_core::workspace::BufferScratch`.

/// Replacement policy of a buffer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Least-recently-used.
    #[default]
    Lru,
    /// First-in-first-out (cheaper hardware, what small frontends use).
    Fifo,
}

/// Outcome of one buffer access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Tag was resident.
    Hit,
    /// Tag was fetched; `evicted` carries the victim, if the set was full.
    Miss {
        /// Evicted tag, when the set had to replace.
        evicted: Option<u64>,
    },
}

impl Access {
    /// `true` for [`Access::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit)
    }
}

/// Buffer statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses (fetches from the next level).
    pub misses: u64,
    /// Evictions (replacements of live lines).
    pub evictions: u64,
}

impl BufferStats {
    /// Hit fraction (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A set-associative buffer addressed by opaque 64-bit tags (one tag = one
/// resident feature vector / line).
///
/// Each set keeps its tags in replacement order, newest first: an LRU hit
/// moves the tag to the front, a FIFO hit leaves the order alone, and a
/// miss evicts the last filled way and inserts at the front.
///
/// # Examples
///
/// ```
/// use gdr_memsim::buffer::{Replacement, SetAssocBuffer};
/// let mut buf = SetAssocBuffer::new(4, 2, Replacement::Lru);
/// assert!(!buf.access(7).is_hit()); // cold miss
/// assert!(buf.access(7).is_hit());
/// assert_eq!(buf.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocBuffer {
    sets: usize,
    ways: usize,
    policy: Replacement,
    // sets × ways tags, set-major; within a set, index 0 is the newest
    tags: Vec<u64>,
    // filled ways per set
    fill: Vec<u32>,
    stats: BufferStats,
}

impl SetAssocBuffer {
    /// Creates a buffer with `sets × ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0` or `ways == 0`.
    pub fn new(sets: usize, ways: usize, policy: Replacement) -> Self {
        assert!(sets > 0 && ways > 0, "degenerate buffer geometry");
        Self {
            sets,
            ways,
            policy,
            tags: vec![0; sets * ways],
            fill: vec![0; sets],
            stats: BufferStats::default(),
        }
    }

    /// Builds a buffer sized for `capacity_lines` total lines with the
    /// given associativity (sets derived by division, at least 1).
    pub fn with_capacity(capacity_lines: usize, ways: usize, policy: Replacement) -> Self {
        let sets = (capacity_lines / ways).max(1);
        Self::new(sets, ways, policy)
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity (lines per set).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Replacement policy.
    pub fn policy(&self) -> Replacement {
        self.policy
    }

    /// Access statistics.
    pub fn stats(&self) -> &BufferStats {
        &self.stats
    }

    /// Touches `tag`, fetching it on a miss.
    pub fn access(&mut self, tag: u64) -> Access {
        self.stats.accesses += 1;
        let set = set_index(tag, self.sets);
        let filled = self.fill[set] as usize;
        let lines = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        if let Some(i) = lines[..filled].iter().position(|&t| t == tag) {
            if self.policy == Replacement::Lru {
                lines[..=i].rotate_right(1);
            }
            self.stats.hits += 1;
            return Access::Hit;
        }
        self.stats.misses += 1;
        let evicted = if filled == self.ways {
            self.stats.evictions += 1;
            Some(lines[filled - 1])
        } else {
            self.fill[set] += 1;
            None
        };
        // the victim (or the free way) rotates to the front and is replaced
        lines[..self.fill[set] as usize].rotate_right(1);
        lines[0] = tag;
        Access::Miss { evicted }
    }

    /// Probes residency without changing state or statistics.
    pub fn contains(&self, tag: u64) -> bool {
        let set = set_index(tag, self.sets);
        self.tags[set * self.ways..][..self.fill[set] as usize].contains(&tag)
    }

    /// Invalidates everything and clears statistics. A reset buffer
    /// behaves exactly like a freshly constructed one on its next access
    /// stream, which is what lets one pooled buffer stand in for a
    /// sequence of transient ones.
    pub fn reset(&mut self) {
        self.fill.fill(0);
        self.stats = BufferStats::default();
    }

    /// Re-geometries the buffer in place (reusing the line storage where
    /// possible) and resets it.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0` or `ways == 0`.
    pub fn reshape(&mut self, sets: usize, ways: usize, policy: Replacement) {
        assert!(sets > 0 && ways > 0, "degenerate buffer geometry");
        self.tags.resize(sets * ways, 0);
        self.fill.resize(sets, 0);
        self.sets = sets;
        self.ways = ways;
        self.policy = policy;
        self.reset();
    }
}

/// Set of `tag` among `sets`: Fibonacci hashing spreads structured vertex
/// ids across sets.
fn set_index(tag: u64, sets: usize) -> usize {
    ((tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % sets as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stamp-based implementation the recency-ordered sets replaced,
    /// kept as the exactness oracle: one `(tag, stamp)` vector per set,
    /// the stamp being the last use (LRU) or the insertion (FIFO), and the
    /// victim the smallest stamp.
    struct Reference {
        ways: usize,
        policy: Replacement,
        lines: Vec<Vec<(u64, u64)>>,
        clock: u64,
        stats: BufferStats,
    }

    impl Reference {
        fn access(&mut self, tag: u64) -> Access {
            self.clock += 1;
            self.stats.accesses += 1;
            let set = set_index(tag, self.lines.len());
            let lines = &mut self.lines[set];
            if let Some(entry) = lines.iter_mut().find(|(t, _)| *t == tag) {
                if self.policy == Replacement::Lru {
                    entry.1 = self.clock;
                }
                self.stats.hits += 1;
                return Access::Hit;
            }
            self.stats.misses += 1;
            let evicted = (lines.len() == self.ways).then(|| {
                let victim = (0..lines.len()).min_by_key(|&i| lines[i].1).unwrap();
                self.stats.evictions += 1;
                lines.swap_remove(victim).0
            });
            lines.push((tag, self.clock));
            Access::Miss { evicted }
        }

        fn contains(&self, tag: u64) -> bool {
            let set = set_index(tag, self.lines.len());
            self.lines[set].iter().any(|(t, _)| *t == tag)
        }
    }

    /// `len` xorshift-drawn tags over `0..=2 × capacity`, uniform or
    /// skewed toward small tags (a squared draw: hot lines hit, the tail
    /// thrashes). Tag 0 is drawn too, the value unfilled ways hold.
    fn tag_stream(seed: u64, capacity: usize, skewed: bool, len: usize) -> Vec<u64> {
        let universe = 2 * capacity as u64 + 1;
        let mut x = 2 * seed + 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let r = x % universe;
                if skewed {
                    r * r / universe
                } else {
                    r
                }
            })
            .collect()
    }

    #[test]
    fn matches_stamp_reference_exactly() {
        for seed in 0..48u64 {
            for policy in [Replacement::Lru, Replacement::Fifo] {
                for (sets, ways) in [(1, 1), (1, 16), (7, 3), (512, 16), (8, 8)] {
                    for skewed in [false, true] {
                        let ctx = format!("seed {seed} {policy:?} {sets}x{ways} skewed {skewed}");
                        let len = 3 * sets * ways + 64;
                        let stream = tag_stream(seed, sets * ways, skewed, len);
                        let mut buf = SetAssocBuffer::new(sets, ways, policy);
                        let mut oracle = Reference {
                            ways,
                            policy,
                            lines: vec![Vec::new(); sets],
                            clock: 0,
                            stats: BufferStats::default(),
                        };
                        for (i, &t) in stream.iter().enumerate() {
                            assert_eq!(buf.access(t), oracle.access(t), "{ctx} access {i}");
                            let probe = stream[i * 7 % len];
                            assert_eq!(buf.contains(probe), oracle.contains(probe), "{ctx}");
                        }
                        assert_eq!(buf.stats(), &oracle.stats, "{ctx}");
                        // a reset buffer replays like a fresh one
                        buf.reset();
                        let mut fresh = SetAssocBuffer::new(sets, ways, policy);
                        for &t in &stream {
                            assert_eq!(buf.access(t), fresh.access(t), "{ctx} replay");
                        }
                        assert_eq!(buf.stats(), fresh.stats(), "{ctx} replay");
                    }
                }
            }
        }
    }

    #[test]
    fn hits_and_misses_counted() {
        let mut b = SetAssocBuffer::new(8, 2, Replacement::Lru);
        assert!(!b.access(1).is_hit());
        assert!(b.access(1).is_hit());
        assert!(!b.access(2).is_hit());
        let s = b.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut b = SetAssocBuffer::new(1, 2, Replacement::Lru);
        b.access(1);
        b.access(2);
        b.access(1); // 1 now MRU
        match b.access(3) {
            Access::Miss { evicted: Some(v) } => assert_eq!(v, 2),
            other => panic!("expected eviction of 2, got {other:?}"),
        }
        assert!(b.contains(1));
        assert!(!b.contains(2));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut b = SetAssocBuffer::new(1, 2, Replacement::Fifo);
        b.access(1);
        b.access(2);
        b.access(1); // touch does not refresh FIFO order
        match b.access(3) {
            Access::Miss { evicted: Some(v) } => assert_eq!(v, 1),
            other => panic!("expected eviction of 1, got {other:?}"),
        }
    }

    #[test]
    fn capacity_and_reset() {
        let mut b = SetAssocBuffer::with_capacity(64, 4, Replacement::Lru);
        assert_eq!(b.capacity(), 64);
        b.access(9);
        b.reset();
        assert_eq!(b.stats().accesses, 0);
        assert!(!b.contains(9));
    }

    #[test]
    fn conflict_misses_exceed_full_assoc() {
        // Direct-mapped buffer suffers conflicts a fully-assoc one avoids.
        let mut dm = SetAssocBuffer::new(16, 1, Replacement::Lru);
        let mut fa = SetAssocBuffer::new(1, 16, Replacement::Lru);
        let stream: Vec<u64> = (0..8).cycle().take(256).collect();
        for &t in &stream {
            dm.access(t);
            fa.access(t);
        }
        assert!(dm.stats().misses >= fa.stats().misses);
        assert_eq!(fa.stats().misses, 8); // compulsory only
    }

    #[test]
    #[should_panic(expected = "degenerate buffer geometry")]
    fn zero_ways_rejected() {
        let _ = SetAssocBuffer::new(4, 0, Replacement::Lru);
    }

    #[test]
    fn reshape_matches_fresh_construction() {
        let mut b = SetAssocBuffer::new(2, 1, Replacement::Fifo);
        b.access(5);
        b.reshape(8, 2, Replacement::Lru);
        assert_eq!((b.sets(), b.ways(), b.policy()), (8, 2, Replacement::Lru));
        assert_eq!(b.stats(), &BufferStats::default());
        let mut fresh = SetAssocBuffer::new(8, 2, Replacement::Lru);
        for t in [3u64, 9, 3, 11, 200, 9, 3] {
            assert_eq!(b.access(t), fresh.access(t));
        }
        assert_eq!(b.stats(), fresh.stats());
    }
}

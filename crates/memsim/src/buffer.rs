//! Set-associative on-chip buffer model.
//!
//! This is the hardware-accurate counterpart of `gdr-core`'s idealized LRU
//! analysis: HiHGNN's NA buffer is organized set-associatively, so
//! conflict misses add to the thrashing the paper measures in Fig. 2, and
//! the GPU baselines' L2 is modelled the same way at sector granularity.
//! The buffer is a pure cache model — residency, hits, misses and victims.
//! Per-tag fetch counting (the "replacement times of vertices' features"
//! statistic) lives with its one reader, the NA engine's dense
//! `gdr_core::workspace::FetchCounts`.

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
/// A tag's set is the upper half of its Fibonacci hash modulo the set
/// count. The remainder is taken without a division: a magic constant
/// precomputed per geometry (Lemire's fastmod) gives exactly `h % sets`
/// for every 32-bit `h`, so placement matches a plain `%` on any set
/// count.
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
    // fastmod magic of `sets`, see `fastmod_magic`
    set_magic: u64,
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
    /// Panics if `sets == 0`, `ways == 0` or `sets > u32::MAX`.
    pub fn new(sets: usize, ways: usize, policy: Replacement) -> Self {
        check_geometry(sets, ways);
        Self {
            sets,
            set_magic: fastmod_magic(sets),
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
        let set = self.set_of(tag);
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
        let set = self.set_of(tag);
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
    /// Panics if `sets == 0`, `ways == 0` or `sets > u32::MAX`.
    pub fn reshape(&mut self, sets: usize, ways: usize, policy: Replacement) {
        check_geometry(sets, ways);
        self.tags.resize(sets * ways, 0);
        self.fill.resize(sets, 0);
        self.sets = sets;
        self.set_magic = fastmod_magic(sets);
        self.ways = ways;
        self.policy = policy;
        self.reset();
    }

    /// Set of `tag`: `set_hash(tag) % sets`, without the division.
    #[inline]
    fn set_of(&self, tag: u64) -> usize {
        fastmod(set_hash(tag), self.set_magic, self.sets as u32) as usize
    }
}

fn check_geometry(sets: usize, ways: usize) {
    assert!(sets > 0 && ways > 0, "degenerate buffer geometry");
    assert!(u32::try_from(sets).is_ok(), "set count must fit in 32 bits");
}

/// Upper half of the Fibonacci hash of `tag`, which spreads structured
/// vertex ids across sets.
#[inline]
fn set_hash(tag: u64) -> u32 {
    (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// Lemire's fastmod magic for divisor `d`: `ceil(2^64 / d)`, which wraps
/// to 0 for `d == 1` (where [`fastmod`] then returns the right remainder,
/// 0).
fn fastmod_magic(d: usize) -> u64 {
    (u64::MAX / d as u64).wrapping_add(1)
}

/// `h % d` for any 32-bit `h` and nonzero 32-bit `d`, given
/// `magic == fastmod_magic(d)` (Lemire, Kaser & Kurz, "Faster Remainder
/// by Direct Computation", 2019): the low 64 bits of `magic · h` are the
/// fractional part of `h / d`, which scaled by `d` is the remainder.
#[inline]
fn fastmod(h: u32, magic: u64, d: u32) -> u32 {
    let frac = magic.wrapping_mul(h as u64);
    ((frac as u128 * d as u128) >> 64) as u32
}

/// Set of `tag` among `sets` by plain division — the definition
/// [`SetAssocBuffer`]'s fastmod placement must reproduce, kept as the
/// tests' oracle.
#[cfg(test)]
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

    /// `(sets, ways)` the oracle nets run over: degenerate and odd set
    /// counts, the HiHGNN NA window (3716 features, 8 ways) and, last,
    /// the T4's L2 (4 MiB of 32 B sectors, 16 ways).
    const GEOMETRIES: [(usize, usize); 8] = [
        (1, 1),
        (1, 16),
        (3, 4),
        (7, 3),
        (8, 8),
        (464, 8),
        (512, 16),
        (8192, 16),
    ];

    #[test]
    fn matches_stamp_reference_exactly() {
        for seed in 0..48u64 {
            for policy in [Replacement::Lru, Replacement::Fifo] {
                for skewed in [false, true] {
                    // one buffer reshaped through every geometry
                    let mut buf = SetAssocBuffer::new(1, 1, policy);
                    for (sets, ways) in GEOMETRIES {
                        // the L2 holds 16× the lines of the next largest
                        // geometry; every 16th seed keeps the debug run short
                        if sets * ways > 1 << 16 && seed % 16 != 0 {
                            continue;
                        }
                        let ctx = format!("seed {seed} {policy:?} {sets}x{ways} skewed {skewed}");
                        let len = 3 * sets * ways + 64;
                        let stream = tag_stream(seed, sets * ways, skewed, len);
                        buf.reshape(sets, ways, policy);
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
    fn fast_set_index_matches_division() {
        // the oracle geometries, the A100's L2 (81920 sets), and the
        // 32-bit extremes
        let mut divisors: Vec<usize> = GEOMETRIES.iter().map(|&(sets, _)| sets).collect();
        divisors.extend([2, 81920, (1 << 31) - 1, 1 << 31, u32::MAX as usize]);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..64 {
            divisors.push((next() as u32).max(1) as usize);
        }
        for &d in &divisors {
            let magic = fastmod_magic(d);
            let exact = |h: u32| {
                let fast = fastmod(h, magic, d as u32) as usize;
                assert_eq!(fast, h as usize % d, "{h} % {d}");
            };
            for h in [0, 1, d as u32 - 1, d as u32, u32::MAX - 1, u32::MAX] {
                exact(h);
            }
            // a real buffer where its line storage stays small
            let buf = (d <= 81920).then(|| SetAssocBuffer::new(d, 1, Replacement::Fifo));
            for _ in 0..4096 {
                let tag = next();
                exact(set_hash(tag));
                if let Some(buf) = &buf {
                    assert_eq!(
                        buf.set_of(tag),
                        set_index(tag, d),
                        "tag {tag} over {d} sets"
                    );
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

//! Set-associative on-chip buffer model.
//!
//! This is the hardware-accurate counterpart of `gdr-core`'s idealized LRU
//! analysis: HiHGNN's NA buffer is organized set-associatively, so
//! conflict misses add to the thrashing the paper measures in Fig. 2. The
//! GPU baselines' L2 is modelled at sector granularity by
//! [`WriteOnceLru`], which places tags the same way but counts its
//! write-once message lines per set instead of storing them. Both are
//! pure cache models — residency, hits, misses and (for the buffer)
//! victims.
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

/// An LRU set-associative cache for streams that mix reused lines with
/// *write-once* lines: tags written once and never touched again, like
/// a GPU kernel's materialized per-edge messages.
///
/// A write-once line can never hit, so under LRU its only effect is to
/// push the set's other lines one step down the recency stack (LRU's
/// stack-distance property, Mattson et al. 1970). The cache therefore
/// stores no write-once lines at all. Each set keeps its live tags
/// newest first, each with a stamp, plus a counter `dead` of the
/// write-once lines written into it so far. A live entry's stamp is the
/// set's `dead` at its last touch, so `dead − stamp` write-once lines
/// sit above it, and the entry at index `j` is resident iff
/// `j + dead − stamp < ways`. Older entries have older stamps, so
/// residency is monotone in `j` and a lookup stops at the first
/// non-resident entry.
///
/// Hits and misses equal those of an LRU [`SetAssocBuffer`] of the same
/// geometry fed each [`WriteOnceLru::write_once`] as an access to a
/// fresh unique tag. Stamps are `u32`, so that holds while no set takes
/// more than [`WriteOnceLru::MAX_WRITE_ONCE`] (2³² − 1) write-once
/// lines.
///
/// # Examples
///
/// ```
/// use gdr_memsim::buffer::WriteOnceLru;
/// let mut l2 = WriteOnceLru::new(1, 2);
/// assert!(!l2.access(7)); // cold miss
/// l2.write_once(1 << 63); // 7 drops to the LRU way
/// assert!(l2.access(7));
/// l2.write_once(1 << 63 | 1);
/// l2.write_once(1 << 63 | 2); // two lines above 7 fill both ways
/// assert!(!l2.access(7));
/// ```
#[derive(Debug, Clone)]
pub struct WriteOnceLru {
    sets: usize,
    // fastmod magic of `sets`, see `fastmod_magic`
    set_magic: u64,
    ways: usize,
    // sets × ways live tags, set-major; within a set, index 0 is the newest
    tags: Vec<u64>,
    // the set's `dead` count when the matching tag was last touched
    stamps: Vec<u32>,
    // live entries per set, resident or not
    fill: Vec<u32>,
    // write-once lines written per set, wrapping
    dead: Vec<u32>,
}

impl WriteOnceLru {
    /// Most write-once lines one set takes with exact results.
    pub const MAX_WRITE_ONCE: u64 = u32::MAX as u64;

    /// Creates a cache with `sets × ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0`, `ways == 0` or `sets > u32::MAX`.
    pub fn new(sets: usize, ways: usize) -> Self {
        check_geometry(sets, ways);
        Self {
            sets,
            set_magic: fastmod_magic(sets),
            ways,
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            fill: vec![0; sets],
            dead: vec![0; sets],
        }
    }

    /// Builds a cache sized for `capacity_lines` total lines with the
    /// given associativity (sets derived by division, at least 1), as
    /// [`SetAssocBuffer::with_capacity`] does.
    pub fn with_capacity(capacity_lines: usize, ways: usize) -> Self {
        Self::new((capacity_lines / ways).max(1), ways)
    }

    /// Touches `tag`, fetching it on a miss; returns whether it hit.
    pub fn access(&mut self, tag: u64) -> bool {
        let set = self.set_of(tag);
        let (ways, filled, dead) = (self.ways, self.fill[set] as usize, self.dead[set]);
        let tags = &mut self.tags[set * ways..(set + 1) * ways];
        let stamps = &mut self.stamps[set * ways..(set + 1) * ways];
        let mut resident = 0;
        while resident < filled && resident + (dead.wrapping_sub(stamps[resident]) as usize) < ways
        {
            if tags[resident] == tag {
                tags[..=resident].rotate_right(1);
                stamps[..=resident].rotate_right(1);
                stamps[0] = dead;
                return true;
            }
            resident += 1;
        }
        // every resident entry moves down one way (the last one, in a
        // full set, out of it); the non-resident tail is dropped
        let kept = (resident + 1).min(ways);
        tags[..kept].rotate_right(1);
        stamps[..kept].rotate_right(1);
        tags[0] = tag;
        stamps[0] = dead;
        self.fill[set] = kept as u32;
        false
    }

    /// Writes the write-once line `tag` into its set. The tag must be
    /// unique: it is never looked up, only counted.
    #[inline]
    pub fn write_once(&mut self, tag: u64) {
        let set = self.set_of(tag);
        self.dead[set] = self.dead[set].wrapping_add(1);
    }

    /// Set of `tag`, placed exactly as in [`SetAssocBuffer`].
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

    /// Feeds one operation to the cache under test and to an LRU
    /// [`SetAssocBuffer`] oracle of the same geometry, where a write-once
    /// line is an access to a tag never seen before; returns the hit.
    fn step(cache: &mut WriteOnceLru, oracle: &mut SetAssocBuffer, op: Op, ctx: &str) -> bool {
        match op {
            Op::WriteOnce(tag) => {
                cache.write_once(tag);
                assert!(!oracle.access(tag).is_hit(), "{ctx}: tag {tag} reused");
                false
            }
            Op::Access(tag) => {
                let hit = oracle.access(tag).is_hit();
                assert_eq!(cache.access(tag), hit, "{ctx}: access {tag}");
                hit
            }
        }
    }

    #[derive(Clone, Copy)]
    enum Op {
        Access(u64),
        WriteOnce(u64),
    }

    #[test]
    fn write_once_lru_matches_lru_buffer_on_mixed_streams() {
        for seed in 0..48u64 {
            for (sets, ways) in GEOMETRIES {
                if sets * ways > 1 << 16 && seed % 16 != 0 {
                    continue;
                }
                let ctx = format!("seed {seed} {sets}x{ways}");
                let len = 3 * sets * ways + 64;
                let stream = tag_stream(seed, sets * ways, seed % 2 == 1, len);
                // a write-once line before an access with probability 2/5,
                // 3/5 or 4/5 (a GPU edge writes 2-3× the sectors it reads)
                let share = 1 + seed % 3;
                let coins = tag_stream(seed + 1000, 2, false, len); // 0..=4
                let mut cache = WriteOnceLru::new(sets, ways);
                // half the seeds start the dead counters just below the
                // u32 wrap, which stamp differences must not notice
                if seed % 4 < 2 {
                    cache.dead.fill(u32::MAX - 2 * ways as u32);
                }
                let mut oracle = SetAssocBuffer::new(sets, ways, Replacement::Lru);
                let mut unique = 1u64 << 63;
                for (i, (&t, &coin)) in stream.iter().zip(&coins).enumerate() {
                    let ctx = format!("{ctx} op {i}");
                    if coin <= share {
                        unique += 1;
                        step(&mut cache, &mut oracle, Op::WriteOnce(unique), &ctx);
                    }
                    step(&mut cache, &mut oracle, Op::Access(t), &ctx);
                }
            }
        }
    }

    #[test]
    fn write_once_lru_residency_boundary() {
        // An entry `j` ways down with `k` write-once lines above it is
        // resident iff j + k < ways: probe k = ways − j − 1 (the last
        // hit) and k = ways − j (the first miss) for every j.
        for (sets, ways) in GEOMETRIES {
            if sets * ways > 1 << 16 {
                continue;
            }
            let mut cache = WriteOnceLru::new(sets, ways);
            let mut oracle = SetAssocBuffer::new(sets, ways, Replacement::Lru);
            // fresh tags of set 0, reused and write-once
            let mut reused = (0u64..).filter(|&t| set_index(t, sets) == 0);
            let mut unique = (1u64 << 63..).filter(|&t| set_index(t, sets) == 0);
            let mut hits = 0;
            for j in 0..ways {
                for k in [ways - j - 1, ways - j] {
                    let ctx = format!("{sets}x{ways} j {j} k {k}");
                    let x = reused.next().unwrap();
                    let above = reused.by_ref().take(j).map(Op::Access);
                    let dead = unique.by_ref().take(k).map(Op::WriteOnce);
                    let ops: Vec<Op> = std::iter::once(Op::Access(x))
                        .chain(above)
                        .chain(dead)
                        .collect();
                    for op in ops {
                        step(&mut cache, &mut oracle, op, &ctx);
                    }
                    let hit = step(&mut cache, &mut oracle, Op::Access(x), &ctx);
                    assert_eq!(hit, j + k < ways, "{ctx}");
                    hits += hit as usize;
                }
            }
            assert_eq!(hits, ways, "{sets}x{ways}");
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

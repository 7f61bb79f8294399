//! Cache hierarchy: per-core private L1s over a shared L2, with
//! write-invalidate (MESI-style) coherence between the L1s.
//!
//! Assignment 3 has students explain shared-memory architecture and why
//! "scope matters"; the coherence traffic modelled here is what makes
//! false sharing and racy updates slow on real hardware, and is what the
//! [`crate::machine`] charges memory latency against.
//!
//! Each level is set-associative with true-LRU replacement per set. There
//! is no sharer directory: a write probes the one set the line maps to in
//! every peer L1 and drops it where present. A core's L1 holds a line only
//! if that core touched it and no peer has written it since, which is all
//! a directory would record, so the probe counts the same invalidations.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Bytes per line.
    pub line_bytes: u64,
    /// Number of sets.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// The Cortex-A53's 32 KiB, 4-way, 64-byte-line L1 data cache.
    pub fn pi_l1() -> Self {
        CacheConfig {
            line_bytes: 64,
            sets: 128,
            ways: 4,
        }
    }

    /// The BCM2837's 512 KiB, 16-way shared L2.
    pub fn pi_l2() -> Self {
        CacheConfig {
            line_bytes: 64,
            sets: 512,
            ways: 16,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.line_bytes * (self.sets * self.ways) as u64
    }
}

/// One set-associative cache with true-LRU replacement.
///
/// The tags live in one flat array, `ways` slots per set; the first
/// `fill[set]` slots of a set hold its lines ordered most- to
/// least-recently used, so the victim is always the last one.
#[derive(Debug, Clone)]
struct SetAssocCache {
    config: CacheConfig,
    /// Line tags (address / line_bytes), `sets × ways` slots.
    tags: Vec<u64>,
    /// Valid lines per set.
    fill: Vec<usize>,
}

impl SetAssocCache {
    fn new(config: CacheConfig) -> Self {
        SetAssocCache {
            config,
            tags: vec![0; config.sets * config.ways],
            fill: vec![0; config.sets],
        }
    }

    /// `line`'s set and the index of that set's first slot.
    fn set_of(&self, line: u64) -> (usize, usize) {
        let set = (line % self.config.sets as u64) as usize;
        (set, set * self.config.ways)
    }

    /// Touches `line`; returns true on hit. Misses install the line,
    /// evicting LRU if needed.
    fn access(&mut self, line: u64) -> bool {
        let (set, base) = self.set_of(line);
        let fill = self.fill[set];
        if let Some(pos) = self.tags[base..base + fill].iter().position(|&l| l == line) {
            // Move to MRU position.
            self.tags[base..=base + pos].rotate_right(1);
            return true;
        }
        // The first free slot, or the LRU victim when the set is full,
        // comes to the front and takes the new line.
        let fill = (fill + 1).min(self.config.ways);
        self.fill[set] = fill;
        self.tags[base..base + fill].rotate_right(1);
        self.tags[base] = line;
        false
    }

    /// Drops `line` if present; returns true if it was present.
    fn invalidate(&mut self, line: u64) -> bool {
        let (set, base) = self.set_of(line);
        let fill = self.fill[set];
        match self.tags[base..base + fill].iter().position(|&l| l == line) {
            Some(pos) => {
                self.tags[base + pos..base + fill].rotate_left(1);
                self.fill[set] = fill - 1;
                true
            }
            None => false,
        }
    }
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Private L1 hit.
    L1,
    /// Shared L2 hit (L1 miss).
    L2,
    /// Main memory (missed both levels).
    Memory,
}

/// Outcome of a single memory access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Deepest level consulted.
    pub level: HitLevel,
    /// Number of peer L1s that had to invalidate the line (writes only).
    pub invalidations: usize,
}

/// Per-core counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses satisfied by the private L1.
    pub l1_hits: u64,
    /// Accesses satisfied by the shared L2.
    pub l2_hits: u64,
    /// Accesses that went to memory.
    pub memory_accesses: u64,
    /// Invalidations this core's L1 received from peers' writes.
    pub invalidations_received: u64,
}

impl CacheStats {
    /// Total accesses issued.
    pub fn total(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.memory_accesses
    }

    /// L1 hit rate in [0, 1]; 0 when no accesses were made.
    pub fn l1_hit_rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.l1_hits as f64 / t as f64
        }
    }
}

/// The full hierarchy: one L1 per core and one shared L2.
///
/// Coherence needs no directory: a write probes every peer L1's set for
/// the line and drops it where present, so `invalidations` counts
/// exactly the peers that held it.
#[derive(Debug)]
pub struct Hierarchy {
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    line_bytes: u64,
    /// Per-core statistics.
    pub stats: Vec<CacheStats>,
}

impl Hierarchy {
    /// Builds a hierarchy for `cores` cores with the Pi's geometry.
    pub fn pi(cores: usize) -> Self {
        Self::new(cores, CacheConfig::pi_l1(), CacheConfig::pi_l2())
    }

    /// Builds a hierarchy with explicit geometries.
    ///
    /// # Panics
    /// Panics if `cores` is 0, a level has no sets or no ways, or the two
    /// levels disagree on line size.
    pub fn new(cores: usize, l1: CacheConfig, l2: CacheConfig) -> Self {
        assert!(cores >= 1, "at least one core");
        assert!(
            [l1, l2].iter().all(|c| c.sets > 0 && c.ways > 0),
            "every level needs at least one set and one way"
        );
        assert_eq!(
            l1.line_bytes, l2.line_bytes,
            "levels must share a line size"
        );
        Hierarchy {
            l1: (0..cores).map(|_| SetAssocCache::new(l1)).collect(),
            l2: SetAssocCache::new(l2),
            line_bytes: l1.line_bytes,
            stats: vec![CacheStats::default(); cores],
        }
    }

    /// Number of cores this hierarchy serves.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Exports the accumulated statistics, aggregated over cores, as
    /// `pi_sim/cache/*` counters. Called once at the end of a run; the
    /// counters add across runs sharing a registry.
    pub fn export_metrics(&self, registry: &obs::Registry) {
        let mut agg = CacheStats::default();
        for s in &self.stats {
            agg.l1_hits += s.l1_hits;
            agg.l2_hits += s.l2_hits;
            agg.memory_accesses += s.memory_accesses;
            agg.invalidations_received += s.invalidations_received;
        }
        let counter = |name, value| {
            registry.counter(name, obs::Domain::Virtual).add(value);
        };
        counter("pi_sim/cache/l1_hits", agg.l1_hits);
        counter("pi_sim/cache/l2_hits", agg.l2_hits);
        counter("pi_sim/cache/memory_accesses", agg.memory_accesses);
        counter("pi_sim/cache/invalidations", agg.invalidations_received);
    }

    /// Performs a read (`write = false`) or write access by `core` to
    /// byte address `addr`.
    pub fn access(&mut self, core: usize, addr: u64, write: bool) -> AccessOutcome {
        assert!(core < self.l1.len(), "core {core} out of range");
        let line = addr / self.line_bytes;
        let mut invalidations = 0;

        // Write-invalidate: kick the line out of every peer L1.
        if write {
            for peer in (0..self.l1.len()).filter(|&p| p != core) {
                if self.l1[peer].invalidate(line) {
                    invalidations += 1;
                    self.stats[peer].invalidations_received += 1;
                }
            }
        }

        let level = if self.l1[core].access(line) {
            self.stats[core].l1_hits += 1;
            HitLevel::L1
        } else if self.l2.access(line) {
            self.stats[core].l2_hits += 1;
            HitLevel::L2
        } else {
            self.stats[core].memory_accesses += 1;
            HitLevel::Memory
        };
        AccessOutcome {
            level,
            invalidations,
        }
    }
}

/// The directory-based hierarchy this module used to run: per-set
/// `Vec`s and a line → sharers map. Kept only as the differential
/// oracle for [`Hierarchy`].
#[cfg(test)]
mod reference {
    use super::{AccessOutcome, CacheConfig, CacheStats, HitLevel};
    use std::collections::HashMap;

    struct SetAssoc {
        config: CacheConfig,
        sets: Vec<Vec<u64>>,
    }

    impl SetAssoc {
        fn new(config: CacheConfig) -> Self {
            SetAssoc {
                config,
                sets: vec![Vec::with_capacity(config.ways); config.sets],
            }
        }

        fn set(&mut self, line: u64) -> &mut Vec<u64> {
            &mut self.sets[(line % self.config.sets as u64) as usize]
        }

        fn access(&mut self, line: u64) -> bool {
            let ways = self.config.ways;
            let set = self.set(line);
            if let Some(pos) = set.iter().position(|&l| l == line) {
                let l = set.remove(pos);
                set.insert(0, l);
                true
            } else {
                if set.len() == ways {
                    set.pop();
                }
                set.insert(0, line);
                false
            }
        }

        fn invalidate(&mut self, line: u64) -> bool {
            let set = self.set(line);
            match set.iter().position(|&l| l == line) {
                Some(pos) => {
                    set.remove(pos);
                    true
                }
                None => false,
            }
        }
    }

    pub(super) struct DirectoryHierarchy {
        l1: Vec<SetAssoc>,
        l2: SetAssoc,
        line_bytes: u64,
        /// line -> bitmask of cores whose L1 may hold it.
        sharers: HashMap<u64, u32>,
        pub(super) stats: Vec<CacheStats>,
    }

    impl DirectoryHierarchy {
        pub(super) fn new(cores: usize, l1: CacheConfig, l2: CacheConfig) -> Self {
            assert!((1..=32).contains(&cores));
            DirectoryHierarchy {
                l1: (0..cores).map(|_| SetAssoc::new(l1)).collect(),
                l2: SetAssoc::new(l2),
                line_bytes: l1.line_bytes,
                sharers: HashMap::new(),
                stats: vec![CacheStats::default(); cores],
            }
        }

        pub(super) fn access(&mut self, core: usize, addr: u64, write: bool) -> AccessOutcome {
            let line = addr / self.line_bytes;
            let mut invalidations = 0;
            if write {
                let mask = self.sharers.get(&line).copied().unwrap_or(0);
                for peer in 0..self.l1.len() {
                    if peer != core && mask & (1 << peer) != 0 && self.l1[peer].invalidate(line) {
                        invalidations += 1;
                        self.stats[peer].invalidations_received += 1;
                    }
                }
                self.sharers.insert(line, 1 << core);
            } else {
                *self.sharers.entry(line).or_insert(0) |= 1 << core;
            }
            let level = if self.l1[core].access(line) {
                self.stats[core].l1_hits += 1;
                HitLevel::L1
            } else if self.l2.access(line) {
                self.stats[core].l2_hits += 1;
                HitLevel::L2
            } else {
                self.stats[core].memory_accesses += 1;
                HitLevel::Memory
            };
            AccessOutcome {
                level,
                invalidations,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn config_capacities_match_the_pi() {
        assert_eq!(CacheConfig::pi_l1().capacity(), 32 * 1024);
        assert_eq!(CacheConfig::pi_l2().capacity(), 512 * 1024);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut h = Hierarchy::pi(4);
        assert_eq!(h.access(0, 0x1000, false).level, HitLevel::Memory);
        assert_eq!(h.access(0, 0x1000, false).level, HitLevel::L1);
        // Same line, different byte → still an L1 hit.
        assert_eq!(h.access(0, 0x1030, false).level, HitLevel::L1);
        // Next line was never fetched → misses all the way to memory.
        assert_eq!(h.access(0, 0x1040, false).level, HitLevel::Memory);
    }

    #[test]
    fn l2_serves_peer_cores() {
        let mut h = Hierarchy::pi(4);
        h.access(0, 0x2000, false); // memory → installs in L1(0) and L2
        let out = h.access(1, 0x2000, false);
        assert_eq!(out.level, HitLevel::L2, "core 1 finds it in shared L2");
    }

    #[test]
    fn write_invalidates_peer_l1s() {
        let mut h = Hierarchy::pi(4);
        h.access(0, 0x3000, false);
        h.access(1, 0x3000, false);
        h.access(2, 0x3000, false);
        let out = h.access(3, 0x3000, true);
        assert_eq!(out.invalidations, 3, "cores 0, 1, and 2 each held the line");
    }

    #[test]
    fn invalidated_line_misses_in_l1_afterwards() {
        let mut h = Hierarchy::pi(2);
        h.access(0, 0x4000, false);
        h.access(0, 0x4000, false); // L1 hit established
        h.access(1, 0x4000, true); // peer write invalidates
        let out = h.access(0, 0x4000, false);
        assert_ne!(out.level, HitLevel::L1, "coherence miss after peer write");
        assert_eq!(h.stats[0].invalidations_received, 1);
    }

    #[test]
    fn ping_pong_writes_generate_invalidation_traffic() {
        // The false-sharing / racy-counter pathology: two cores writing
        // the same line alternately.
        let mut h = Hierarchy::pi(2);
        for _ in 0..50 {
            h.access(0, 0x5000, true);
            h.access(1, 0x5000, true);
        }
        assert!(h.stats[0].invalidations_received >= 49);
        assert!(h.stats[1].invalidations_received >= 49);
        // Disjoint lines produce none.
        let mut h2 = Hierarchy::pi(2);
        for _ in 0..50 {
            h2.access(0, 0x5000, true);
            h2.access(1, 0x6000, true);
        }
        assert_eq!(h2.stats[0].invalidations_received, 0);
        assert_eq!(h2.stats[1].invalidations_received, 0);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // 4-way L1 with 128 sets: five lines mapping to the same set
        // evict the least recently used.
        let mut h = Hierarchy::pi(1);
        let set_stride = 64 * 128; // same set every stride
        for i in 0..5u64 {
            h.access(0, i * set_stride, false);
        }
        // Line 0 was LRU → evicted from L1 (still in L2).
        let out = h.access(0, 0, false);
        assert_eq!(out.level, HitLevel::L2);
        // Line 4 is MRU → L1 hit.
        assert_eq!(h.access(0, 4 * set_stride, false).level, HitLevel::L1);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = Hierarchy::pi(1);
        h.access(0, 0, false);
        h.access(0, 0, false);
        h.access(0, 64, false);
        let s = h.stats[0];
        assert_eq!(s.total(), 3);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.memory_accesses, 2);
        assert!((s.l1_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_hit_rate_is_zero() {
        assert_eq!(CacheStats::default().l1_hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one set and one way")]
    fn zero_way_level_panics() {
        let l1 = CacheConfig {
            ways: 0,
            ..CacheConfig::pi_l1()
        };
        Hierarchy::new(1, l1, CacheConfig::pi_l2());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        let mut h = Hierarchy::pi(2);
        h.access(5, 0, false);
    }

    proptest! {
        /// The directory-free hierarchy answers every access of a random
        /// stream exactly as the directory-based reference does. Lines are
        /// drawn from a few L1 sets (tiny random geometries, or the Pi's
        /// with a set-sized stride), so LRU eviction at both levels and
        /// write-invalidation all fire.
        #[test]
        fn matches_the_directory_reference(
            cores in 1usize..9,
            mode in 0u8..3,
            geometry in (0usize..5, 1usize..5, 1usize..9, 1usize..9),
            stream in prop::collection::vec((0usize..8, 0u64..96, 0u64..64, 0u8..4), 1..400),
        ) {
            let (l1_sets, l1_ways, l2_sets, l2_ways) = geometry;
            // l1_sets == 0 selects the Pi geometry.
            let pi = l1_sets == 0;
            let (l1, l2) = if pi {
                (CacheConfig::pi_l1(), CacheConfig::pi_l2())
            } else {
                let config = |sets, ways| CacheConfig { line_bytes: 64, sets, ways };
                (config(l1_sets, l1_ways), config(l2_sets, l2_ways))
            };
            let mut fast = Hierarchy::new(cores, l1, l2);
            let mut oracle = reference::DirectoryHierarchy::new(cores, l1, l2);
            for (core, line, offset, op) in stream {
                let core = core % cores;
                // On the Pi's 128 L1 sets the stream stays in sets 0..3.
                let line = if pi { (line / 3) * 128 + line % 3 } else { line };
                let write = match mode {
                    0 => false,
                    1 => true,
                    _ => op == 0,
                };
                let addr = line * 64 + offset;
                prop_assert_eq!(fast.access(core, addr, write), oracle.access(core, addr, write));
            }
            prop_assert_eq!(&fast.stats, &oracle.stats);
        }
    }
}

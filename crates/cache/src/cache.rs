//! Set-associative cache with true-LRU replacement.
//!
//! Address-only (tag) simulation: no data array, so arbitrarily large
//! working sets simulate in O(accesses) time and O(cache size) memory.

use mac_types::PhysAddr;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Next-line prefetch on miss. Models the stream prefetchers that
    /// make sequential scans nearly miss-free on real hardware (and that
    /// the paper's §1 notes are useless-to-detrimental for irregular
    /// accesses).
    pub prefetch_next_line: bool,
}

impl CacheConfig {
    /// A typical last-level cache: 2 MB, 16-way, 64 B lines, prefetching.
    pub fn llc() -> Self {
        CacheConfig {
            capacity: 2 << 20,
            ways: 16,
            line_bytes: 64,
            prefetch_next_line: true,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        let lines = self.capacity / self.line_bytes;
        (lines as usize / self.ways).max(1)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses that evicted a valid line.
    pub evictions: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One cache way: a tag, its last-touch stamp, and the prefetch tag bit
/// (set on lines brought in by the prefetcher, cleared on first demand
/// hit — classic tagged next-line prefetching).
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    last_used: u64,
    prefetched: bool,
}

/// A set-associative, true-LRU, write-allocate cache (tags only).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Way>>,
    set_mask: u64,
    line_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache. Sets and line size must be powers of two.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            cfg,
            sets: vec![vec![Way::default(); cfg.ways]; sets],
            set_mask: sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Perform one access; returns `true` on hit. Loads and stores behave
    /// identically in a write-allocate tag model.
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        let line = addr.raw() >> self.line_shift;
        let (hit, was_prefetched) = self.touch(line, true);
        // Tagged next-line prefetch: trigger on a demand miss OR on the
        // first demand hit to a prefetched line (stream continuation).
        if self.cfg.prefetch_next_line && (!hit || was_prefetched) {
            self.touch(line + 1, false);
        }
        hit
    }

    /// Probe/fill one line. `demand` accesses update the hit/miss stats;
    /// prefetch fills do not. Returns `(hit, line had the prefetch tag)`.
    fn touch(&mut self, line: u64, demand: bool) -> (bool, bool) {
        self.clock += 1;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_used = self.clock;
            let was_prefetched = way.prefetched;
            if demand {
                way.prefetched = false;
                self.stats.hits += 1;
            }
            return (true, was_prefetched);
        }

        if demand {
            self.stats.misses += 1;
        }
        // Fill: prefer an invalid way, else evict true-LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_used } else { 0 })
            .expect("ways > 0");
        if victim.valid {
            self.stats.evictions += 1;
        }
        victim.tag = tag;
        victim.valid = true;
        victim.last_used = self.clock;
        victim.prefetched = !demand;
        (false, false)
    }

    /// Run a whole address stream; returns the miss rate observed for it
    /// (stats accumulate across calls).
    pub fn run<I: IntoIterator<Item = PhysAddr>>(&mut self, stream: I) -> f64 {
        let before = self.stats;
        for a in stream {
            self.access(a);
        }
        let hits = self.stats.hits - before.hits;
        let misses = self.stats.misses - before.misses;
        if hits + misses == 0 {
            0.0
        } else {
            misses as f64 / (hits + misses) as f64
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Invalidate everything and zero the statistics.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            for w in set {
                w.valid = false;
            }
        }
        self.stats = CacheStats::default();
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 1 KB, 2-way, 64 B lines: 8 sets, no prefetch.
        Cache::new(CacheConfig {
            capacity: 1024,
            ways: 2,
            line_bytes: 64,
            prefetch_next_line: false,
        })
    }

    fn llc_noprefetch() -> CacheConfig {
        CacheConfig {
            prefetch_next_line: false,
            ..CacheConfig::llc()
        }
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::llc().sets(), 2048);
        assert_eq!(small().config().sets(), 8);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small();
        assert!(!c.access(PhysAddr::new(0x40)));
        assert!(c.access(PhysAddr::new(0x40)));
        assert!(c.access(PhysAddr::new(0x7F)), "same line");
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines with (line & 7) == 0: stride 8 lines = 512 B.
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(512);
        let d = PhysAddr::new(1024);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        c.access(d); // evicts b
        assert!(c.access(a), "a survived");
        assert!(!c.access(b), "b was evicted");
        assert_eq!(c.stats().evictions, 2); // d's fill evicted b; b's refill evicted someone
    }

    #[test]
    fn sequential_stream_misses_once_per_line_without_prefetch() {
        let mut c = Cache::new(llc_noprefetch());
        // 64 KB sequential at 8 B stride: 1024 lines, 8192 accesses.
        let stream = (0..8192u64).map(|i| PhysAddr::new(i * 8));
        let mr = c.run(stream);
        assert!(
            (mr - 1.0 / 8.0).abs() < 1e-9,
            "one miss per 8 accesses, got {mr}"
        );
    }

    #[test]
    fn prefetcher_nearly_eliminates_sequential_misses() {
        let mut c = Cache::new(CacheConfig::llc());
        let stream = (0..65536u64).map(|i| PhysAddr::new(i * 8));
        let mr = c.run(stream);
        assert!(mr < 0.07, "next-line prefetch should hide the scan: {mr}");
    }

    #[test]
    fn prefetcher_does_not_help_random_accesses() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1);
        let mut with = Cache::new(CacheConfig::llc());
        let mut without = Cache::new(llc_noprefetch());
        let addrs: Vec<u64> = (0..50_000).map(|_| rng.gen_range(0..32u64 << 30)).collect();
        let a = with.run(addrs.iter().map(|&a| PhysAddr::new(a)));
        let b = without.run(addrs.iter().map(|&a| PhysAddr::new(a)));
        assert!(a > 0.95 && b > 0.95, "random misses stay high: {a} {b}");
    }

    #[test]
    fn thrashing_stream_always_misses() {
        let mut c = small();
        // 3 lines mapping to the same 2-way set, round-robin -> 100 % miss.
        let addrs = [0u64, 512, 1024];
        let mut misses = 0;
        for i in 0..300 {
            if !c.access(PhysAddr::new(addrs[i % 3])) {
                misses += 1;
            }
        }
        assert_eq!(misses, 300);
    }

    #[test]
    fn working_set_larger_than_cache_degrades_miss_rate() {
        let mut c = Cache::new(llc_noprefetch());
        // Warm with 8 MB of lines (4x capacity), then random-walk them.
        let lines = (8 << 20) / 64u64;
        for i in 0..lines {
            c.access(PhysAddr::new(i * 64));
        }
        c.reset();
        // Re-stream linearly twice: capacity 2 MB holds 1/4 of the set, so
        // the second pass still misses everything (LRU on a cyclic scan).
        for _ in 0..2 {
            for i in 0..lines {
                c.access(PhysAddr::new(i * 64));
            }
        }
        assert!(c.stats().miss_rate() > 0.99);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = small();
        c.access(PhysAddr::new(0));
        c.reset();
        assert_eq!(c.stats().accesses(), 0);
        assert!(!c.access(PhysAddr::new(0)), "line gone after reset");
    }

    #[test]
    fn miss_rate_empty_is_zero() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}

//! A single set-associative cache.

use crate::replacement::{Replacement, ReplacementPolicy};
use serde::{Deserialize, Serialize};
use vm_types::{Counter, Cycles, FastDiv, PhysAddr, Requestor, CACHE_LINE_BYTES};

/// Configuration of one cache level.
///
/// # Examples
///
/// ```
/// use cache_sim::CacheConfig;
/// let l1 = CacheConfig::l1_data();
/// assert_eq!(l1.capacity_bytes, 32 * 1024);
/// assert_eq!(l1.num_sets() * l1.ways as usize * 64, l1.capacity_bytes as usize);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Human-readable name used in statistics output (e.g. `"L1D"`).
    pub name: String,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Access latency in core cycles.
    pub latency: Cycles,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// Paper baseline L1 data cache: 32 KB, 8-way, 4-cycle, LRU.
    pub fn l1_data() -> Self {
        CacheConfig {
            name: "L1D".to_string(),
            capacity_bytes: 32 * 1024,
            ways: 8,
            latency: Cycles::new(4),
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// Paper baseline L1 instruction cache: 32 KB, 8-way, 4-cycle, LRU.
    pub fn l1_instruction() -> Self {
        CacheConfig {
            name: "L1I".to_string(),
            ..CacheConfig::l1_data()
        }
    }

    /// Paper baseline L2: 2 MB, 16-way, 16-cycle, SRRIP.
    pub fn l2() -> Self {
        CacheConfig {
            name: "L2".to_string(),
            capacity_bytes: 2 * 1024 * 1024,
            ways: 16,
            latency: Cycles::new(16),
            replacement: ReplacementPolicy::Srrip,
        }
    }

    /// Paper baseline L3: 2 MB per core, 16-way, 35-cycle, SRRIP.
    pub fn l3() -> Self {
        CacheConfig {
            name: "L3".to_string(),
            capacity_bytes: 2 * 1024 * 1024,
            ways: 16,
            latency: Cycles::new(35),
            replacement: ReplacementPolicy::Srrip,
        }
    }

    /// A tiny cache useful in unit tests (1 KB, 2-way).
    pub fn tiny(name: &str) -> Self {
        CacheConfig {
            name: name.to_string(),
            capacity_bytes: 1024,
            ways: 2,
            latency: Cycles::new(1),
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// Number of sets implied by capacity, associativity and line size.
    pub fn num_sets(&self) -> usize {
        (self.capacity_bytes / (self.ways as u64 * CACHE_LINE_BYTES)).max(1) as usize
    }
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LookupResult {
    /// The line was present.
    Hit,
    /// The line was absent.
    Miss,
}

impl LookupResult {
    /// `true` when the lookup hit.
    pub const fn is_hit(self) -> bool {
        matches!(self, LookupResult::Hit)
    }
}

/// Per-cache statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: Counter,
    /// Lookup misses.
    pub misses: Counter,
    /// Lines evicted to make room for fills.
    pub evictions: Counter,
    /// Fills triggered by prefetch requests.
    pub prefetch_fills: Counter,
    /// Hits whose line was brought in by a prefetch (useful-prefetch count).
    pub prefetch_hits: Counter,
    /// Misses attributable to the kernel instruction stream (MimicOS),
    /// used to quantify kernel-induced cache pollution.
    pub kernel_misses: Counter,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Miss ratio in `[0, 1]` (0 when there were no lookups).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.misses.get() as f64 / total as f64
        }
    }
}

/// One cache line, packed into a single word: the tag in the high bits,
/// prefetched / dirty / valid flags in the low three. Packing keeps a
/// whole 16-way set inside two host cache lines, so the way scan every
/// lookup and fill performs stays cheap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Line(u64);

impl Line {
    const VALID: u64 = 0b001;
    const DIRTY: u64 = 0b010;
    const PREFETCHED: u64 = 0b100;

    fn new(tag: u64, dirty: bool, prefetched: bool) -> Self {
        let mut bits = (tag << 3) | Self::VALID;
        if dirty {
            bits |= Self::DIRTY;
        }
        if prefetched {
            bits |= Self::PREFETCHED;
        }
        Line(bits)
    }

    fn valid(self) -> bool {
        self.0 & Self::VALID != 0
    }

    fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    fn prefetched(self) -> bool {
        self.0 & Self::PREFETCHED != 0
    }

    fn tag(self) -> u64 {
        self.0 >> 3
    }

    fn matches(self, tag: u64) -> bool {
        self.valid() && self.tag() == tag
    }

    fn set_dirty(&mut self) {
        self.0 |= Self::DIRTY;
    }

    fn clear_prefetched(&mut self) {
        self.0 &= !Self::PREFETCHED;
    }

    fn invalidate(&mut self) {
        self.0 = 0;
    }
}

/// A single set-associative cache with physical tags.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cache {
    config: CacheConfig,
    /// Flat set-major line storage: the `ways` lines of set `s` live at
    /// `lines[s * ways .. (s + 1) * ways]` — one contiguous allocation
    /// instead of a pointer chase into a per-set `Vec` on every access.
    lines: Vec<Line>,
    ways: usize,
    /// Per-way replacement state, flat and indexed like `lines`.
    replacement: Replacement,
    stats: CacheStats,
    /// Precomputed set-count divisor (a mask/shift for the power-of-two
    /// geometries every shipped configuration uses).
    set_div: FastDiv,
}

impl Cache {
    /// Builds a cache from its configuration.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let ways = config.ways as usize;
        Cache {
            lines: vec![Line::default(); num_sets * ways],
            ways,
            replacement: Replacement::new(config.replacement, num_sets, ways),
            config,
            stats: CacheStats::default(),
            set_div: FastDiv::new(num_sets as u64),
        }
    }

    fn set(&self, set_idx: usize) -> &[Line] {
        &self.lines[set_idx * self.ways..(set_idx + 1) * self.ways]
    }

    fn set_mut(&mut self, set_idx: usize) -> &mut [Line] {
        &mut self.lines[set_idx * self.ways..(set_idx + 1) * self.ways]
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Access latency of this cache level.
    pub fn latency(&self) -> Cycles {
        self.config.latency
    }

    fn index_and_tag(&self, paddr: PhysAddr) -> (usize, u64) {
        let line = paddr.raw() / CACHE_LINE_BYTES;
        let set = self.set_div.rem(line) as usize;
        let tag = self.set_div.div(line);
        (set, tag)
    }

    /// Looks up a cache line without modifying contents on a miss.
    /// Updates hit/miss statistics and replacement state on hits.
    pub fn lookup(
        &mut self,
        paddr: PhysAddr,
        is_write: bool,
        requestor: Requestor,
    ) -> LookupResult {
        let (set_idx, tag) = self.index_and_tag(paddr);
        let set = self.set_mut(set_idx);
        if let Some(way) = set.iter().position(|l| l.matches(tag)) {
            if is_write {
                set[way].set_dirty();
            }
            if set[way].prefetched() {
                set[way].clear_prefetched();
                self.stats.prefetch_hits.inc();
            }
            self.replacement.on_hit(set_idx, way);
            self.stats.hits.inc();
            LookupResult::Hit
        } else {
            self.stats.misses.inc();
            if requestor == Requestor::Kernel {
                self.stats.kernel_misses.inc();
            }
            LookupResult::Miss
        }
    }

    /// Fills a line into the cache (after a miss was serviced by the next
    /// level or DRAM). Returns the physical address of the evicted dirty
    /// line, if a writeback is required.
    pub fn fill(&mut self, paddr: PhysAddr, is_write: bool, prefetched: bool) -> Option<PhysAddr> {
        let (set_idx, tag) = self.index_and_tag(paddr);
        let set = &mut self.lines[set_idx * self.ways..(set_idx + 1) * self.ways];

        // If the line is already present (e.g. racing fills), just update it.
        if let Some(line) = set.iter_mut().find(|l| l.matches(tag)) {
            if is_write {
                line.set_dirty();
            }
            return None;
        }
        // Invalid ways are always preferred, lowest first; only a full set
        // consults (and ages) the replacement state.
        let invalid = set.iter().position(|l| !l.valid());
        let mut writeback = None;
        let victim_way = match invalid {
            Some(way) => way,
            None => {
                let way = self.replacement.victim(set_idx);
                self.stats.evictions.inc();
                if set[way].dirty() {
                    let victim_line = set[way].tag() * self.set_div.divisor() + set_idx as u64;
                    writeback = Some(PhysAddr::new(victim_line * CACHE_LINE_BYTES));
                }
                way
            }
        };
        set[victim_way] = Line::new(tag, is_write, prefetched);
        self.replacement.on_insert(set_idx, victim_way);
        if prefetched {
            self.stats.prefetch_fills.inc();
        }
        writeback
    }

    /// Returns `true` if the line containing `paddr` is currently cached.
    pub fn contains(&self, paddr: PhysAddr) -> bool {
        let (set_idx, tag) = self.index_and_tag(paddr);
        self.set(set_idx).iter().any(|l| l.matches(tag))
    }

    /// Invalidates the line containing `paddr` if present (used for TLB
    /// shootdown-style page-table invalidations).
    pub fn invalidate(&mut self, paddr: PhysAddr) -> bool {
        let (set_idx, tag) = self.index_and_tag(paddr);
        for line in self.set_mut(set_idx) {
            if line.matches(tag) {
                line.invalidate();
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid()).count()
    }
}

#[cfg(test)]
#[path = "../../../tests/common/naive/cache.rs"]
mod naive;

#[cfg(test)]
mod tests {
    use super::naive::NaiveCache;
    use super::*;
    use proptest::prelude::*;

    fn pa(x: u64) -> PhysAddr {
        PhysAddr::new(x)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        assert!(!c.lookup(pa(0x100), false, Requestor::Application).is_hit());
        c.fill(pa(0x100), false, false);
        assert!(c.lookup(pa(0x100), false, Requestor::Application).is_hit());
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        c.fill(pa(0x1000), false, false);
        assert!(c.lookup(pa(0x1004), false, Requestor::Application).is_hit());
        assert!(c.lookup(pa(0x103f), false, Requestor::Application).is_hit());
    }

    #[test]
    fn capacity_eviction_occurs() {
        let cfg = CacheConfig::tiny("T");
        let lines = cfg.capacity_bytes / CACHE_LINE_BYTES;
        let mut c = Cache::new(cfg);
        for i in 0..lines * 2 {
            c.fill(pa(i * CACHE_LINE_BYTES), false, false);
        }
        assert!(c.stats().evictions.get() > 0);
        assert_eq!(c.resident_lines() as u64, lines);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let cfg = CacheConfig::tiny("T");
        let sets = cfg.num_sets() as u64;
        let mut c = Cache::new(cfg);
        // Fill the two ways of set 0 with writes, then force a third fill in
        // the same set: one dirty victim must be written back.
        let stride = sets * CACHE_LINE_BYTES;
        assert!(c.fill(pa(0), true, false).is_none());
        assert!(c.fill(pa(stride), true, false).is_none());
        let wb = c.fill(pa(2 * stride), false, false);
        assert!(wb.is_some());
        let wb_addr = wb.unwrap().raw();
        assert!(wb_addr == 0 || wb_addr == stride);
    }

    #[test]
    fn write_hits_mark_lines_dirty() {
        let cfg = CacheConfig::tiny("T");
        let sets = cfg.num_sets() as u64;
        let stride = sets * CACHE_LINE_BYTES;
        let mut c = Cache::new(cfg);
        c.fill(pa(0), false, false);
        assert!(c.lookup(pa(0), true, Requestor::Application).is_hit());
        c.fill(pa(stride), false, false);
        // Evicting line 0 now must produce a writeback because the write hit
        // marked it dirty.
        let wb = c.fill(pa(2 * stride), false, false);
        assert!(wb.is_some());
    }

    #[test]
    fn kernel_misses_are_tracked_separately() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        c.lookup(pa(0x40), false, Requestor::Kernel);
        c.lookup(pa(0x80), false, Requestor::Application);
        assert_eq!(c.stats().kernel_misses.get(), 1);
        assert_eq!(c.stats().misses.get(), 2);
    }

    #[test]
    fn prefetch_fills_and_useful_prefetches_counted() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        c.fill(pa(0x200), false, true);
        assert_eq!(c.stats().prefetch_fills.get(), 1);
        assert!(c.lookup(pa(0x200), false, Requestor::Application).is_hit());
        assert_eq!(c.stats().prefetch_hits.get(), 1);
        // A second hit on the same line is no longer counted as prefetch hit.
        c.lookup(pa(0x200), false, Requestor::Application);
        assert_eq!(c.stats().prefetch_hits.get(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        c.fill(pa(0x300), false, false);
        assert!(c.contains(pa(0x300)));
        assert!(c.invalidate(pa(0x300)));
        assert!(!c.contains(pa(0x300)));
        assert!(!c.invalidate(pa(0x300)));
    }

    #[test]
    fn miss_ratio_reflects_traffic() {
        let mut c = Cache::new(CacheConfig::tiny("T"));
        c.lookup(pa(0x0), false, Requestor::Application);
        c.fill(pa(0x0), false, false);
        c.lookup(pa(0x0), false, Requestor::Application);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn associativity_is_not_capped_at_a_machine_word() {
        let cfg = CacheConfig {
            capacity_bytes: 128 * CACHE_LINE_BYTES,
            ways: 128,
            ..CacheConfig::tiny("wide")
        };
        assert_eq!(cfg.num_sets(), 1);
        let mut c = Cache::new(cfg);
        for i in 0..128 {
            assert!(c.fill(pa(i * CACHE_LINE_BYTES), true, false).is_none());
        }
        assert_eq!(c.resident_lines(), 128);
        assert_eq!(
            c.stats().evictions.get(),
            0,
            "every fill found an invalid way"
        );
        // Line 0 becomes the most recently used, so line 1 is the victim.
        assert!(c.lookup(pa(0), false, Requestor::Application).is_hit());
        let wb = c.fill(pa(128 * CACHE_LINE_BYTES), false, false);
        assert_eq!(wb, Some(pa(CACHE_LINE_BYTES)));
        assert!(c.contains(pa(0)) && !c.contains(pa(CACHE_LINE_BYTES)));
    }

    #[test]
    fn paper_configs_have_expected_geometry() {
        assert_eq!(CacheConfig::l1_data().num_sets(), 64);
        assert_eq!(CacheConfig::l2().num_sets(), 2048);
        assert_eq!(CacheConfig::l3().ways, 16);
        assert_eq!(CacheConfig::l1_instruction().latency, Cycles::new(4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn flat_cache_matches_the_naive_model_op_for_op(
            ops in prop::collection::vec(any::<u64>(), 1..800),
            geometry in 0usize..6
        ) {
            let config = CacheConfig {
                // 4 sets of 1, 2 or 4 ways.
                capacity_bytes: 4 * [1, 2, 4][geometry % 3] * CACHE_LINE_BYTES,
                ways: [1, 2, 4][geometry % 3],
                replacement: [ReplacementPolicy::Lru, ReplacementPolicy::Srrip][geometry / 3],
                ..CacheConfig::tiny("T")
            };
            let mut flat = Cache::new(config.clone());
            let mut naive = NaiveCache::new(&config);
            for (step, op) in ops.into_iter().enumerate() {
                // 32 lines over 4 sets: every set overflows, hits recur.
                let line = op >> 8 & 31;
                let addr = pa(line * CACHE_LINE_BYTES + (op >> 16 & 63));
                let flag = op >> 4 & 1 == 1;
                match op & 15 {
                    0..=5 => {
                        let prefetched = op >> 5 & 3 == 0;
                        let writeback = naive.fill(line, flag, prefetched).map(|l| pa(l * CACHE_LINE_BYTES));
                        prop_assert_eq!(flat.fill(addr, flag, prefetched), writeback, "step {}", step);
                    }
                    6 => prop_assert_eq!(flat.invalidate(addr), naive.invalidate(line), "step {}", step),
                    _ => {
                        let requestor = [Requestor::Application, Requestor::Kernel][(op >> 5 & 1) as usize];
                        let hit = flat.lookup(addr, flag, requestor).is_hit();
                        prop_assert_eq!(hit, naive.lookup(line, flag, requestor), "step {}", step);
                    }
                }
                prop_assert_eq!(flat.stats(), &naive.stats, "step {}", step);
                for probe in 0..32 {
                    let resident = naive.sets[probe as usize % 4].ways.iter().any(|w| w.line == Some(probe));
                    prop_assert_eq!(flat.contains(pa(probe * CACHE_LINE_BYTES)), resident, "step {}", step);
                }
            }
        }
    }
}

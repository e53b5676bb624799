//! Redundant Memory Mappings (RMM, Karakostas et al., ISCA 2015): range
//! translation backed by eager paging. A small, fully-associative *range
//! TLB* caches arbitrary-size contiguous virtual-to-physical ranges; misses
//! consult an in-memory *range table* (a B-tree) walked by a hardware range
//! walker. Translations served by a range never touch the page table, which
//! is what removes most translation-metadata DRAM traffic in Fig. 21.

use crate::pt::WalkAccessList;
use mimic_os::kernel::RangeMapping;
use serde::{Deserialize, Serialize};
use vm_types::{Counter, Cycles, PhysAddr, VirtAddr};

/// Configuration of the RMM hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RmmConfig {
    /// Number of entries in the range TLB (the paper: 64).
    pub rlb_entries: usize,
    /// Range-TLB lookup latency (the paper: 9 cycles, probed in parallel
    /// with the L2 TLB).
    pub rlb_latency: Cycles,
    /// Nodes touched per range-table walk level (B-tree fanout model).
    pub range_table_fanout: usize,
}

impl RmmConfig {
    /// The paper's Table 4 configuration.
    pub fn paper_baseline() -> Self {
        RmmConfig {
            rlb_entries: 64,
            rlb_latency: Cycles::new(9),
            range_table_fanout: 8,
        }
    }
}

impl Default for RmmConfig {
    fn default() -> Self {
        RmmConfig::paper_baseline()
    }
}

/// The range TLB (called RLB in the paper): fully associative, LRU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RangeTlb {
    capacity: usize,
    entries: Vec<(RangeMapping, u64)>,
    clock: u64,
    /// Hits.
    pub hits: Counter,
    /// Misses.
    pub misses: Counter,
}

impl RangeTlb {
    /// Creates a range TLB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        RangeTlb {
            capacity: capacity.max(1),
            entries: Vec::new(),
            clock: 0,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Looks up the range covering `va`.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<RangeMapping> {
        self.clock += 1;
        let clock = self.clock;
        for (range, lru) in &mut self.entries {
            if va >= range.virt_start && va.raw() < range.virt_start.raw() + range.bytes {
                *lru = clock;
                self.hits.inc();
                return Some(*range);
            }
        }
        self.misses.inc();
        None
    }

    /// Fills a range, evicting the LRU entry when full.
    pub fn fill(&mut self, range: RangeMapping) {
        self.clock += 1;
        if self
            .entries
            .iter()
            .any(|(r, _)| r.virt_start == range.virt_start)
        {
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(victim);
            }
        }
        self.entries.push((range, self.clock));
    }

    /// Number of resident ranges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no ranges are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops any cached range covering `va` (shootdown: the range was
    /// split or removed in the range table, so the cached copy is stale).
    /// Returns the number of entries dropped.
    pub fn invalidate_covering(&mut self, va: VirtAddr) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(r, _)| !r.covers(va));
        before - self.entries.len()
    }
}

/// The in-memory range table: a sorted structure of ranges walked by the
/// hardware range walker on RLB misses.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RangeTable {
    ranges: Vec<RangeMapping>,
    metadata_base: u64,
}

impl RangeTable {
    /// Creates an empty range table whose nodes live at `metadata_base`.
    pub fn new(metadata_base: PhysAddr) -> Self {
        RangeTable {
            ranges: Vec::new(),
            metadata_base: metadata_base.raw(),
        }
    }

    /// Inserts a range (kept sorted by virtual start).
    pub fn insert(&mut self, range: RangeMapping) {
        match self
            .ranges
            .binary_search_by_key(&range.virt_start.raw(), |r| r.virt_start.raw())
        {
            Ok(i) => self.ranges[i] = range,
            Err(i) => self.ranges.insert(i, range),
        }
    }

    /// Number of ranges stored.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Removes the range covering `va`, if any, returning it.
    pub fn remove_covering(&mut self, va: VirtAddr) -> Option<RangeMapping> {
        let idx = self.ranges.iter().position(|r| r.covers(va))?;
        Some(self.ranges.remove(idx))
    }

    /// Iterates over the stored ranges in virtual-address order.
    pub fn iter(&self) -> impl Iterator<Item = &RangeMapping> {
        self.ranges.iter()
    }

    /// Walks the table for `va`, returning the covering range (if any) and
    /// the physical addresses of the B-tree nodes the walker touched.
    pub fn walk(&self, va: VirtAddr, fanout: usize) -> (Option<RangeMapping>, WalkAccessList) {
        let mut accesses = WalkAccessList::new();
        // B-tree descent: log_fanout(n) node touches.
        let n = self.ranges.len().max(1) as f64;
        let depth = (n.log2() / (fanout.max(2) as f64).log2()).ceil().max(1.0) as u64;
        for level in 0..depth {
            accesses.push(PhysAddr::new(
                self.metadata_base + level * 64 + (va.raw() >> 21) % 8 * 64 * depth,
            ));
        }
        let found = self
            .ranges
            .iter()
            .find(|r| va >= r.virt_start && va.raw() < r.virt_start.raw() + r.bytes)
            .copied();
        (found, accesses)
    }
}

/// The combined RMM translation path: range TLB backed by the range table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RmmMmu {
    config: RmmConfig,
    rlb: RangeTlb,
    table: RangeTable,
    /// Translations resolved through a range (no page-table walk needed).
    pub range_translations: Counter,
    /// Translations that fell through to the page table.
    pub fallback_translations: Counter,
}

impl RmmMmu {
    /// Creates the RMM hardware with its range table at `metadata_base`.
    pub fn new(config: RmmConfig, metadata_base: PhysAddr) -> Self {
        RmmMmu {
            rlb: RangeTlb::new(config.rlb_entries),
            table: RangeTable::new(metadata_base),
            config,
            range_translations: Counter::new(),
            fallback_translations: Counter::new(),
        }
    }

    /// Registers an eagerly allocated range (from MimicOS).
    pub fn register_range(&mut self, range: RangeMapping) {
        self.table.insert(range);
    }

    /// Number of ranges registered.
    pub fn range_count(&self) -> usize {
        self.table.len()
    }

    /// Iterates over the registered ranges.
    pub fn ranges(&self) -> impl Iterator<Item = &RangeMapping> {
        self.table.iter()
    }

    /// Shoots the page `[vaddr, vaddr + page_bytes)` out of the range
    /// structures: the covering range (if any) is split into its remainders
    /// in the range table and dropped from the range TLB, so the stale
    /// translation can never be served again while the flanks keep
    /// translating. Returns the number of range entries (table + RLB) that
    /// were dropped or rewritten.
    pub fn invalidate_page(&mut self, vaddr: VirtAddr, page_bytes: u64) -> usize {
        let rlb_dropped = self.rlb.invalidate_covering(vaddr);
        let Some(range) = self.table.remove_covering(vaddr) else {
            return rlb_dropped;
        };
        let (left, right) = range.split_around(vaddr, page_bytes);
        if let Some(left) = left {
            self.table.insert(left);
        }
        if let Some(right) = right {
            self.table.insert(right);
        }
        rlb_dropped + 1
    }

    /// Attempts to translate `va` through a range. Returns the physical
    /// address, the lookup latency and the memory accesses performed by the
    /// range walker (empty on an RLB hit). Returns `None` when no range
    /// covers `va` (the ordinary page-table path must be used).
    pub fn translate(&mut self, va: VirtAddr) -> Option<(PhysAddr, Cycles, WalkAccessList)> {
        let translate_with =
            |range: &RangeMapping| range.phys_start.add(va.raw() - range.virt_start.raw());
        if let Some(range) = self.rlb.lookup(va) {
            self.range_translations.inc();
            return Some((
                translate_with(&range),
                self.config.rlb_latency,
                WalkAccessList::new(),
            ));
        }
        let (found, accesses) = self.table.walk(va, self.config.range_table_fanout);
        match found {
            Some(range) => {
                self.rlb.fill(range);
                self.range_translations.inc();
                Some((translate_with(&range), self.config.rlb_latency, accesses))
            }
            None => {
                self.fallback_translations.inc();
                None
            }
        }
    }

    /// Range-TLB statistics.
    pub fn rlb(&self) -> &RangeTlb {
        &self.rlb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(vstart: u64, pstart: u64, bytes: u64) -> RangeMapping {
        RangeMapping {
            virt_start: VirtAddr::new(vstart),
            phys_start: PhysAddr::new(pstart),
            bytes,
        }
    }

    #[test]
    fn rlb_hit_translates_without_walks() {
        let mut rmm = RmmMmu::new(RmmConfig::paper_baseline(), PhysAddr::new(0xC0_0000_0000));
        rmm.register_range(range(0x1000_0000, 0x8000_0000, 64 * 1024 * 1024));
        // First translation misses the RLB and walks the range table.
        let (pa1, _, walk1) = rmm.translate(VirtAddr::new(0x1000_5000)).unwrap();
        assert_eq!(pa1.raw(), 0x8000_5000);
        assert!(!walk1.is_empty());
        // Second translation hits the RLB.
        let (pa2, lat, walk2) = rmm.translate(VirtAddr::new(0x1200_0000)).unwrap();
        assert_eq!(pa2.raw(), 0x8200_0000);
        assert!(walk2.is_empty());
        assert_eq!(lat, Cycles::new(9));
        assert_eq!(rmm.rlb().hits.get(), 1);
    }

    #[test]
    fn uncovered_addresses_fall_back() {
        let mut rmm = RmmMmu::new(RmmConfig::paper_baseline(), PhysAddr::new(0xC0_0000_0000));
        rmm.register_range(range(0x1000_0000, 0x8000_0000, 4096));
        assert!(rmm.translate(VirtAddr::new(0x9000_0000)).is_none());
        assert_eq!(rmm.fallback_translations.get(), 1);
    }

    #[test]
    fn one_range_covers_many_pages() {
        let mut rmm = RmmMmu::new(RmmConfig::paper_baseline(), PhysAddr::new(0xC0_0000_0000));
        rmm.register_range(range(0x4000_0000, 0x10_0000_0000, 1 << 30));
        for i in 0..128u64 {
            let va = 0x4000_0000 + i * 0x20_0000;
            let (pa, _, _) = rmm.translate(VirtAddr::new(va)).unwrap();
            assert_eq!(pa.raw() - 0x10_0000_0000, va - 0x4000_0000);
        }
        assert_eq!(rmm.range_translations.get(), 128);
    }

    #[test]
    fn invalidated_pages_fall_out_of_ranges_but_flanks_survive() {
        let mut rmm = RmmMmu::new(RmmConfig::paper_baseline(), PhysAddr::new(0xC0_0000_0000));
        rmm.register_range(range(0x1000_0000, 0x8000_0000, 64 * 4096));
        // Warm the RLB with the range.
        assert!(rmm.translate(VirtAddr::new(0x1000_0000)).is_some());
        assert_eq!(rmm.rlb().len(), 1);
        // Shoot page 17 out of the range.
        let victim = VirtAddr::new(0x1001_1000);
        assert!(rmm.invalidate_page(victim, 4096) >= 1);
        assert_eq!(rmm.rlb().len(), 0, "stale RLB entry dropped");
        assert!(
            rmm.translate(victim).is_none(),
            "the victim page must fall back to the page-table path"
        );
        // The flanks still translate with the original phys offsets.
        let (pa_left, _, _) = rmm.translate(VirtAddr::new(0x1001_0abc)).unwrap();
        assert_eq!(pa_left.raw(), 0x8001_0abc);
        let (pa_right, _, _) = rmm.translate(VirtAddr::new(0x1001_2def)).unwrap();
        assert_eq!(pa_right.raw(), 0x8001_2def);
        assert_eq!(rmm.range_count(), 2);
        // Invalidating an uncovered page is a no-op.
        assert_eq!(rmm.invalidate_page(VirtAddr::new(0x9000_0000), 4096), 0);
    }

    #[test]
    fn rlb_capacity_is_bounded_with_lru_eviction() {
        let mut rlb = RangeTlb::new(2);
        rlb.fill(range(0x1000, 0x10_000, 4096));
        rlb.fill(range(0x2000, 0x20_000, 4096));
        rlb.lookup(VirtAddr::new(0x1000));
        rlb.fill(range(0x3000, 0x30_000, 4096));
        assert_eq!(rlb.len(), 2);
        assert!(rlb.lookup(VirtAddr::new(0x1000)).is_some());
        assert!(rlb.lookup(VirtAddr::new(0x2000)).is_none());
    }

    #[test]
    fn range_table_walk_depth_grows_with_ranges() {
        let mut small = RangeTable::new(PhysAddr::new(0xC0_0000_0000));
        let mut large = RangeTable::new(PhysAddr::new(0xC0_0000_0000));
        small.insert(range(0x1000, 0x10_000, 4096));
        for i in 0..10_000u64 {
            large.insert(range(
                0x10_0000 + i * 0x10_000,
                0x1_0000_0000 + i * 0x10_000,
                4096,
            ));
        }
        let (_, a_small) = small.walk(VirtAddr::new(0x1000), 8);
        let (_, a_large) = large.walk(VirtAddr::new(0x10_0000), 8);
        assert!(a_large.len() > a_small.len());
    }
}

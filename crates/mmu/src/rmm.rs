//! Redundant Memory Mappings (RMM, Karakostas et al., ISCA 2015): range
//! translation backed by eager paging. A small, fully-associative *range
//! TLB* caches arbitrary-size contiguous virtual-to-physical ranges; misses
//! consult an in-memory *range table* (a B-tree) walked by a hardware range
//! walker. Translations served by a range never touch the page table, which
//! is what removes most translation-metadata DRAM traffic in Fig. 21.

use crate::engine::{EngineReport, ENGINE_ASID_STRIDE};
use crate::mmu::{Mmu, TranslationResult};
use crate::pt::{WalkAccessList, WalkOutcome};
use mimic_os::kernel::RangeMapping;
use mimic_os::Mapping;
use serde::{Deserialize, Serialize};
use vm_types::{Asid, Counter, Cycles, PageSize, PhysAddr, VirtAddr};

/// Physical region where the per-address-space range tables live.
const RANGE_TABLE_BASE: u64 = 0xC0_0000_0000;

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
#[derive(Debug)]
struct RangeTlb {
    capacity: usize,
    entries: Vec<(RangeMapping, u64)>,
    clock: u64,
    hits: Counter,
    misses: Counter,
}

impl RangeTlb {
    /// Creates a range TLB with `capacity` entries.
    fn new(capacity: usize) -> Self {
        RangeTlb {
            capacity: capacity.max(1),
            entries: Vec::new(),
            clock: 0,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Looks up the range covering `va`.
    fn lookup(&mut self, va: VirtAddr) -> Option<RangeMapping> {
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
    fn fill(&mut self, range: RangeMapping) {
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

    /// Drops any cached range covering `va` (shootdown: the range was
    /// split or removed in the range table, so the cached copy is stale).
    /// Returns the number of entries dropped.
    fn invalidate_covering(&mut self, va: VirtAddr) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(r, _)| !r.covers(va));
        before - self.entries.len()
    }
}

/// The in-memory range table: a sorted structure of ranges walked by the
/// hardware range walker on RLB misses.
#[derive(Debug)]
struct RangeTable {
    ranges: Vec<RangeMapping>,
    metadata_base: u64,
}

impl RangeTable {
    /// Creates an empty range table whose nodes live at `metadata_base`.
    fn new(metadata_base: PhysAddr) -> Self {
        RangeTable {
            ranges: Vec::new(),
            metadata_base: metadata_base.raw(),
        }
    }

    /// Inserts a range (kept sorted by virtual start).
    fn insert(&mut self, range: RangeMapping) {
        match self
            .ranges
            .binary_search_by_key(&range.virt_start.raw(), |r| r.virt_start.raw())
        {
            Ok(i) => self.ranges[i] = range,
            Err(i) => self.ranges.insert(i, range),
        }
    }

    /// Number of ranges stored.
    fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Removes the range covering `va`, if any, returning it.
    fn remove_covering(&mut self, va: VirtAddr) -> Option<RangeMapping> {
        let idx = self.ranges.iter().position(|r| r.covers(va))?;
        Some(self.ranges.remove(idx))
    }

    /// Iterates over the stored ranges in virtual-address order.
    fn iter(&self) -> impl Iterator<Item = &RangeMapping> {
        self.ranges.iter()
    }

    /// Walks the table for `va`, returning the covering range (if any) and
    /// the physical addresses of the B-tree nodes the walker touched.
    fn walk(&self, va: VirtAddr, fanout: usize) -> (Option<RangeMapping>, WalkAccessList) {
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

/// One address space's range structures and counters (which leave the
/// report with the address space).
#[derive(Debug)]
struct RangeSpace {
    asid: Asid,
    rlb: RangeTlb,
    table: RangeTable,
    /// Translations resolved through a range (no page-table walk needed).
    range_translations: Counter,
    /// Translations that fell through to the page table.
    fallback_translations: Counter,
}

/// RMM end to end: per-address-space range TLBs + range tables consulted
/// on L1/L2 TLB misses; addresses no range covers fall through to the
/// conventional page-table walk of the framework's [`Mmu`].
#[derive(Debug)]
pub struct RmmEngine {
    config: RmmConfig,
    /// One range TLB/table pair per address space, created on first use.
    spaces: Vec<RangeSpace>,
}

impl RmmEngine {
    /// Builds the engine.
    pub fn new(config: RmmConfig) -> Self {
        RmmEngine {
            config,
            spaces: Vec::new(),
        }
    }

    fn space_for(&mut self, asid: Asid) -> &mut RangeSpace {
        if let Some(idx) = self.spaces.iter().position(|s| s.asid == asid) {
            return &mut self.spaces[idx];
        }
        let base = PhysAddr::new(RANGE_TABLE_BASE + u64::from(asid.raw()) * ENGINE_ASID_STRIDE);
        self.spaces.push(RangeSpace {
            asid,
            rlb: RangeTlb::new(self.config.rlb_entries),
            table: RangeTable::new(base),
            range_translations: Counter::new(),
            fallback_translations: Counter::new(),
        });
        self.spaces.last_mut().expect("just pushed")
    }

    /// Registers the address space's eagerly allocated ranges (from
    /// MimicOS); already-registered ranges are updated in place.
    pub(crate) fn note_ranges(&mut self, asid: Asid, ranges: &[RangeMapping]) {
        let space = self.space_for(asid);
        for range in ranges {
            space.table.insert(*range);
        }
    }

    /// The registered ranges of every address space.
    pub(crate) fn ranges(&self) -> impl Iterator<Item = (Asid, RangeMapping)> + '_ {
        self.spaces
            .iter()
            .flat_map(|s| s.table.iter().map(move |r| (s.asid, *r)))
    }

    /// Drops the address space's range structures and counters (teardown).
    pub(crate) fn flush_asid(&mut self, asid: Asid) {
        self.spaces.retain(|s| s.asid != asid);
    }

    /// Shoots the page `[va, va + page_bytes)` out of the address space's
    /// range structures: the covering range (if any) is split into its
    /// remainders in the range table and dropped from the range TLB, so
    /// the stale translation can never be served again while the flanks
    /// keep translating. Returns the number of range entries (table + RLB)
    /// that were dropped or rewritten.
    pub(crate) fn invalidate_page(&mut self, asid: Asid, va: VirtAddr, page_bytes: u64) -> usize {
        let Some(space) = self.spaces.iter_mut().find(|s| s.asid == asid) else {
            return 0;
        };
        let rlb_dropped = space.rlb.invalidate_covering(va);
        let Some(range) = space.table.remove_covering(va) else {
            return rlb_dropped;
        };
        let (left, right) = range.split_around(va, page_bytes);
        for piece in [left, right].into_iter().flatten() {
            space.table.insert(piece);
        }
        rlb_dropped + 1
    }

    pub(crate) fn translate(
        &mut self,
        mmu: &mut Mmu,
        asid: Asid,
        va: VirtAddr,
    ) -> TranslationResult {
        let fixed = match mmu.probe_tlb(asid, va) {
            Ok(hit) => return hit,
            Err(fixed) => fixed,
        };
        let config = self.config;
        let space = self.space_for(asid);
        let (range, accesses) = match space.rlb.lookup(va) {
            Some(range) => (Some(range), WalkAccessList::new()),
            None => {
                let (found, accesses) = space.table.walk(va, config.range_table_fanout);
                if let Some(range) = found {
                    space.rlb.fill(range);
                }
                (found, accesses)
            }
        };
        let Some(range) = range else {
            // No range covers the address (demand-paged region or
            // exhausted eager allocation): conventional page walk, with
            // the wasted RLB probe latency on top.
            space.fallback_translations.inc();
            return mmu.walk_after_miss(asid, va, fixed + config.rlb_latency);
        };
        space.range_translations.inc();
        // Covered by a range: translate without a page walk and fill the
        // TLBs with the page so the next access hits there (the RLB is
        // probed alongside the L2 TLB in the paper's design).
        let paddr = range.phys_start.add(va.raw() - range.virt_start.raw());
        let mapping = Mapping {
            vaddr: va.page_base(PageSize::Size4K),
            paddr: PhysAddr::new(paddr.raw() - va.page_offset(PageSize::Size4K)),
            page_size: PageSize::Size4K,
        };
        mmu.external_translation(asid, &mapping);
        let walk = if accesses.is_empty() {
            None // RLB hit: no range-table walk.
        } else {
            Some(WalkOutcome {
                mapping: Some(mapping),
                accesses,
                parallel: false, // B-tree descent is serial.
            })
        };
        TranslationResult {
            paddr: Some(paddr),
            mapping: Some(mapping),
            tlb_hit_level: None,
            fixed_latency: fixed + config.rlb_latency,
            walk,
        }
    }

    /// The Fig. 21 coverage section, summed over the live address spaces.
    pub(crate) fn report(&self) -> EngineReport {
        let mut range = 0u64;
        let mut fallback = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut ranges = 0u64;
        for space in &self.spaces {
            range += space.range_translations.get();
            fallback += space.fallback_translations.get();
            hits += space.rlb.hits.get();
            misses += space.rlb.misses.get();
            ranges += space.table.len() as u64;
        }
        let attempts = range + fallback;
        EngineReport::Rmm {
            range_translations: range,
            fallback_translations: fallback,
            rlb_hits: hits,
            rlb_misses: misses,
            ranges,
            range_coverage: if attempts == 0 {
                0.0
            } else {
                range as f64 / attempts as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmu::MmuConfig;
    use crate::pt::PageTableKind;

    fn range(vstart: u64, pstart: u64, bytes: u64) -> RangeMapping {
        RangeMapping {
            virt_start: VirtAddr::new(vstart),
            phys_start: PhysAddr::new(pstart),
            bytes,
        }
    }

    const A0: Asid = Asid::KERNEL;

    /// The engine with one range registered, and a cold radix `Mmu` to
    /// fall back to.
    fn engine(vstart: u64, pstart: u64, bytes: u64) -> (RmmEngine, Mmu) {
        let mut e = RmmEngine::new(RmmConfig::paper_baseline());
        e.note_ranges(A0, &[range(vstart, pstart, bytes)]);
        (e, Mmu::new(MmuConfig::small_test(PageTableKind::Radix)))
    }

    fn counts(e: &RmmEngine) -> (u64, u64, u64) {
        let EngineReport::Rmm {
            range_translations,
            fallback_translations,
            rlb_hits,
            ..
        } = e.report()
        else {
            unreachable!("the RMM engine reports RMM stats");
        };
        (range_translations, fallback_translations, rlb_hits)
    }

    #[test]
    fn rlb_hit_translates_without_walks() {
        let (mut e, mut mmu) = engine(0x1000_0000, 0x8000_0000, 64 * 1024 * 1024);
        // First translation misses the RLB and walks the range table.
        let first = e.translate(&mut mmu, A0, VirtAddr::new(0x1000_5000));
        assert_eq!(first.paddr, Some(PhysAddr::new(0x8000_5000)));
        assert!(first.walk.is_some());
        // Second translation (another page, so the TLBs miss) hits the RLB.
        let second = e.translate(&mut mmu, A0, VirtAddr::new(0x1200_0000));
        assert_eq!(second.paddr, Some(PhysAddr::new(0x8200_0000)));
        assert!(second.walk.is_none());
        let Err(tlb_miss) = Mmu::new(MmuConfig::small_test(PageTableKind::Radix))
            .probe_tlb(A0, VirtAddr::new(0x1200_0000))
        else {
            unreachable!("a cold TLB misses");
        };
        assert_eq!(second.fixed_latency, tlb_miss + Cycles::new(9));
        assert_eq!(counts(&e).2, 1);
        assert_eq!(mmu.stats().walks.get(), 0);
    }

    #[test]
    fn uncovered_addresses_fall_back() {
        let (mut e, mut mmu) = engine(0x1000_0000, 0x8000_0000, 4096);
        assert!(e
            .translate(&mut mmu, A0, VirtAddr::new(0x9000_0000))
            .is_fault());
        assert_eq!(counts(&e).1, 1);
    }

    #[test]
    fn one_range_covers_many_pages() {
        let (mut e, mut mmu) = engine(0x4000_0000, 0x10_0000_0000, 1 << 30);
        for i in 0..128u64 {
            let va = 0x4000_0000 + i * 0x20_0000;
            let pa = e.translate(&mut mmu, A0, VirtAddr::new(va)).paddr.unwrap();
            assert_eq!(pa.raw() - 0x10_0000_0000, va - 0x4000_0000);
        }
        assert_eq!(counts(&e).0, 128);
    }

    /// Mutant `tests/mutants/03-rmm-invalidate-drops-the-flanks.patch`
    /// (the split range's flanks are not re-inserted) fails here: the left
    /// flank faults.
    #[test]
    fn invalidated_pages_fall_out_of_ranges_but_flanks_survive() {
        let (mut e, mut mmu) = engine(0x1000_0000, 0x8000_0000, 64 * 4096);
        // Warm the RLB with the range.
        assert!(e
            .translate(&mut mmu, A0, VirtAddr::new(0x1000_0000))
            .paddr
            .is_some());
        assert_eq!(e.spaces[0].rlb.entries.len(), 1);
        // Shoot page 17 out of the range.
        let victim = VirtAddr::new(0x1001_1000);
        assert!(e.invalidate_page(A0, victim, 4096) >= 1);
        assert_eq!(e.spaces[0].rlb.entries.len(), 0, "stale RLB entry dropped");
        assert!(
            e.translate(&mut mmu, A0, victim).is_fault(),
            "the victim page must fall back to the page-table path"
        );
        // The flanks still translate with the original phys offsets.
        let left = e.translate(&mut mmu, A0, VirtAddr::new(0x1001_0abc));
        assert_eq!(left.paddr, Some(PhysAddr::new(0x8001_0abc)));
        let right = e.translate(&mut mmu, A0, VirtAddr::new(0x1001_2def));
        assert_eq!(right.paddr, Some(PhysAddr::new(0x8001_2def)));
        assert_eq!(e.ranges().count(), 2);
        // Invalidating an uncovered page is a no-op.
        assert_eq!(e.invalidate_page(A0, VirtAddr::new(0x9000_0000), 4096), 0);
    }

    #[test]
    fn rlb_capacity_is_bounded_with_lru_eviction() {
        let mut rlb = RangeTlb::new(2);
        rlb.fill(range(0x1000, 0x10_000, 4096));
        rlb.fill(range(0x2000, 0x20_000, 4096));
        rlb.lookup(VirtAddr::new(0x1000));
        rlb.fill(range(0x3000, 0x30_000, 4096));
        assert_eq!(rlb.entries.len(), 2);
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

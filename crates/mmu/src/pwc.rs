//! Page-walk caches (PWCs): small caches of upper-level page-table entries
//! that let the radix walker skip levels (Barr et al., "Translation Caching:
//! Skip, Don't Walk (the Page Table)", ISCA 2010). The paper's baseline
//! uses three 32-entry, 4-way, 2-cycle PWCs — one per intermediate level.

use serde::{Deserialize, Serialize};
use vm_types::{Counter, Cycles, FastDiv, VirtAddr};

/// One way of a page-walk cache set.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct PwcWay {
    tag: u64,
    /// Probe-clock stamp of the way's last use. The clock ticks before it
    /// stamps, so a live way never reads 0: 0 marks a free way, which also
    /// makes "first free way, else first least recently used" one search
    /// for the first minimum.
    lru: u64,
}

/// One page-walk cache level (caching entries of one radix level).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PwcLevel {
    /// Way-major flat storage: set `s` is `slots[s * ways .. (s + 1) * ways]`
    /// (a 4-way set is one host cache line).
    slots: Vec<PwcWay>,
    ways: usize,
    clock: u64,
    hits: Counter,
    misses: Counter,
    /// Precomputed set-count divisor for the per-probe index.
    set_div: FastDiv,
}

impl PwcLevel {
    fn new(entries: usize, ways: usize) -> Self {
        let sets = (entries / ways).max(1);
        PwcLevel {
            slots: vec![PwcWay::default(); sets * ways],
            ways,
            clock: 0,
            hits: Counter::new(),
            misses: Counter::new(),
            set_div: FastDiv::new(sets as u64),
        }
    }

    /// The ways of the set `tag` maps to.
    fn set_mut(&mut self, tag: u64) -> &mut [PwcWay] {
        let base = self.set_div.rem(tag) as usize * self.ways;
        &mut self.slots[base..base + self.ways]
    }

    fn probe(&mut self, tag: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let hit = self
            .set_mut(tag)
            .iter_mut()
            .find(|way| way.tag == tag && way.lru != 0);
        match hit {
            Some(way) => {
                way.lru = clock;
                self.hits.inc();
                true
            }
            None => {
                self.misses.inc();
                false
            }
        }
    }

    /// Installs `tag` without looking for it first: a fill after a walk
    /// the PWC already shortened leaves a second copy of the tag in the set.
    fn fill(&mut self, tag: u64) {
        self.clock += 1;
        let lru = self.clock;
        // `min_by_key` keeps the first of equal minima.
        if let Some(victim) = self.set_mut(tag).iter_mut().min_by_key(|way| way.lru) {
            *victim = PwcWay { tag, lru };
        }
    }

    /// Frees every way holding `tag`. Returns how many there were.
    fn invalidate(&mut self, tag: u64) -> usize {
        let mut dropped = 0;
        for way in self.set_mut(tag) {
            if way.tag == tag && way.lru != 0 {
                way.lru = 0;
                dropped += 1;
            }
        }
        dropped
    }
}

/// The set of page-walk caches covering the PML4, PDPT and PD levels of a
/// 4-level radix walk.
///
/// # Examples
///
/// ```
/// use mmu_sim::PageWalkCaches;
/// use vm_types::VirtAddr;
///
/// let mut pwc = PageWalkCaches::paper_baseline();
/// let va = VirtAddr::new(0x7f12_3456_7000);
/// // Cold: the walk must start from the root (skip 0 levels).
/// assert_eq!(pwc.levels_skipped(va), 0);
/// pwc.fill(va);
/// // Warm: all three intermediate levels can be skipped.
/// assert_eq!(pwc.levels_skipped(va), 3);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageWalkCaches {
    levels: Vec<PwcLevel>,
    latency: Cycles,
}

impl PageWalkCaches {
    /// The paper's baseline: three 32-entry, 4-way, 2-cycle PWCs.
    pub fn paper_baseline() -> Self {
        PageWalkCaches {
            levels: vec![
                PwcLevel::new(32, 4),
                PwcLevel::new(32, 4),
                PwcLevel::new(32, 4),
            ],
            latency: Cycles::new(2),
        }
    }

    /// A PWC-less configuration (every walk starts from the root).
    pub fn disabled() -> Self {
        PageWalkCaches {
            levels: Vec::new(),
            latency: Cycles::ZERO,
        }
    }

    /// Lookup latency of probing the PWCs.
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Tag for PWC level `i` (0 = deepest / PD level, covering the most
    /// specific prefix).
    fn tag(va: VirtAddr, level: usize) -> u64 {
        // Level 0 caches PD entries (bits 63..21), level 1 PDPT (63..30),
        // level 2 PML4 (63..39).
        match level {
            0 => va.raw() >> 21,
            1 => va.raw() >> 30,
            _ => va.raw() >> 39,
        }
    }

    /// Number of radix levels the walker may skip for `va` (0–3), probing
    /// the deepest cache first.
    pub fn levels_skipped(&mut self, va: VirtAddr) -> usize {
        let count = self.levels.len();
        for i in 0..count {
            if self.levels[i].probe(Self::tag(va, i)) {
                return count - i;
            }
        }
        0
    }

    /// Fills the PWCs with the intermediate entries discovered by a
    /// completed walk of `va`.
    pub fn fill(&mut self, va: VirtAddr) {
        for i in 0..self.levels.len() {
            let tag = Self::tag(va, i);
            self.levels[i].fill(tag);
        }
    }

    /// Drops every cached intermediate entry. The PWCs tag by virtual
    /// address alone (no ASID), so a context switch must flush them to keep
    /// walks of the incoming address space honest.
    pub fn flush(&mut self) {
        for level in &mut self.levels {
            level.slots.fill(PwcWay::default());
        }
    }

    /// Invalidates the cached intermediate entries covering `va` at every
    /// level — the paging-structure-cache side of an `invlpg`-style
    /// shootdown. Conservative like the hardware: the upper-level entries
    /// for the address are dropped even if only the leaf changed, so the
    /// next walk of the region re-descends from the root. Returns the
    /// number of entries dropped.
    pub fn invalidate(&mut self, va: VirtAddr) -> usize {
        let levels = self.levels.iter_mut().enumerate();
        levels
            .map(|(i, level)| level.invalidate(Self::tag(va, i)))
            .sum()
    }

    /// Total hits across all levels.
    pub fn hits(&self) -> u64 {
        self.levels.iter().map(|l| l.hits.get()).sum()
    }

    /// Total misses across all levels.
    pub fn misses(&self) -> u64 {
        self.levels.iter().map(|l| l.misses.get()).sum()
    }
}

impl Default for PageWalkCaches {
    fn default() -> Self {
        PageWalkCaches::paper_baseline()
    }
}

#[cfg(test)]
#[path = "../../../tests/common/naive/pwc.rs"]
mod naive;

#[cfg(test)]
mod tests {
    use super::naive::NaiveLevel;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cold_walk_skips_nothing() {
        let mut pwc = PageWalkCaches::paper_baseline();
        assert_eq!(pwc.levels_skipped(VirtAddr::new(0x1234_5678_9000)), 0);
        assert!(pwc.misses() > 0);
    }

    #[test]
    fn warm_walk_skips_all_levels() {
        let mut pwc = PageWalkCaches::paper_baseline();
        let va = VirtAddr::new(0x7f00_1234_5000);
        pwc.fill(va);
        assert_eq!(pwc.levels_skipped(va), 3);
        assert!(pwc.hits() > 0);
    }

    #[test]
    fn nearby_addresses_share_upper_levels() {
        let mut pwc = PageWalkCaches::paper_baseline();
        pwc.fill(VirtAddr::new(0x7f00_0000_0000));
        // Same 2 MiB region: skip 3. Different 2 MiB, same 1 GiB: skip >= 2.
        assert_eq!(pwc.levels_skipped(VirtAddr::new(0x7f00_0000_1000)), 3);
        assert!(pwc.levels_skipped(VirtAddr::new(0x7f00_0020_0000)) >= 2);
        // Completely different top-level index: skip 0.
        assert_eq!(pwc.levels_skipped(VirtAddr::new(0x0000_0000_1000)), 0);
    }

    #[test]
    fn invalidate_drops_the_address_without_flushing_neighbours() {
        let mut pwc = PageWalkCaches::paper_baseline();
        let victim = VirtAddr::new(0x7f00_1234_5000);
        let neighbour = VirtAddr::new(0x7e00_0000_0000);
        pwc.fill(victim);
        pwc.fill(neighbour);
        assert_eq!(pwc.invalidate(victim), 3, "all three levels covered it");
        assert_eq!(pwc.levels_skipped(victim), 0, "walk restarts at the root");
        assert!(
            pwc.levels_skipped(neighbour) > 0,
            "unrelated regions keep their cached levels"
        );
        assert_eq!(pwc.invalidate(VirtAddr::new(0x1000)), 0);
    }

    #[test]
    fn disabled_pwcs_never_skip() {
        let mut pwc = PageWalkCaches::disabled();
        let va = VirtAddr::new(0x7f00_1234_5000);
        pwc.fill(va);
        assert_eq!(pwc.levels_skipped(va), 0);
        assert_eq!(pwc.latency(), Cycles::ZERO);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut pwc = PageWalkCaches::paper_baseline();
        // Fill many distinct 2 MiB regions within one 1 GiB region: the
        // deepest PWC (32 entries) thrashes but upper levels stay warm.
        for i in 0..256u64 {
            pwc.fill(VirtAddr::new(0x7f00_0000_0000 + i * 0x20_0000));
        }
        let skipped = pwc.levels_skipped(VirtAddr::new(0x7f00_0000_0000));
        assert!(skipped >= 1, "upper levels should still hit");
    }

    proptest! {
        #[test]
        fn flat_level_matches_the_naive_model_op_for_op(
            ops in prop::collection::vec(any::<u64>(), 1..400),
            ways in 1usize..5
        ) {
            let mut flat = PwcLevel::new(2 * ways, ways);
            let mut naive = NaiveLevel {
                sets: vec![vec![None; ways]; 2],
                clock: 0,
                hits: 0,
                misses: 0,
            };
            for (step, op) in ops.into_iter().enumerate() {
                // Few enough tags that fills repeat (a fill never looks for
                // its tag first, so a set collects duplicates) and that
                // every set overflows.
                let tag = op >> 8 & 15;
                match op & 7 {
                    0..=2 => {
                        flat.fill(tag);
                        naive.fill(tag);
                    }
                    3 => prop_assert_eq!(flat.invalidate(tag), naive.invalidate(tag), "step {}", step),
                    _ => prop_assert_eq!(flat.probe(tag), naive.probe(tag), "step {}", step),
                }
                prop_assert_eq!((flat.hits.get(), flat.misses.get()), (naive.hits, naive.misses));
                let live = |w: &PwcWay| (w.lru != 0).then_some((w.tag, w.lru));
                let resident: Vec<_> = flat.slots.iter().map(live).collect();
                prop_assert_eq!(resident, naive.sets.concat(), "step {}", step);
            }
        }
    }
}

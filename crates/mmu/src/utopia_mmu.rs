//! The MMU side of Utopia (Kanellopoulos et al., MICRO 2023): translating
//! addresses that live in a restrictive segment requires only a lightweight
//! set-index computation plus a lookup of the segment's tag/permission
//! metadata (the RestSeg walkers, "RSW"), cached by two small structures —
//! the TAR cache (tag array) and the SF cache (set filter). Addresses not
//! resident in a RestSeg fall back to the conventional page table.
//!
//! The experiment of Fig. 19 shows that growing the RestSeg enlarges the
//! metadata footprint and therefore the RSW access latency; this module
//! reproduces that effect because the tag-array addresses span a region
//! proportional to the RestSeg size, so larger segments thrash the TAR/SF
//! caches and the data caches behind them.

use crate::pt::WalkAccessList;
use mimic_os::UtopiaConfig;
use serde::{Deserialize, Serialize};
use vm_types::{Counter, Cycles, PhysAddr, VirtAddr};

/// Configuration of the Utopia MMU hardware: the RestSeg walkers' caches.
/// The RestSeg geometry is not part of it — the MMU indexes the segment
/// the kernel fills, so it reads the kernel policy's [`UtopiaConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtopiaMmuConfig {
    /// TAR-cache capacity in entries (the paper: 8 KB ≈ 1024 tags).
    pub tar_cache_entries: usize,
    /// SF-cache capacity in entries.
    pub sf_cache_entries: usize,
    /// TAR/SF cache hit latency.
    pub cache_latency: Cycles,
}

impl UtopiaMmuConfig {
    /// The paper's Table 4 TAR/SF caches.
    pub fn paper_baseline() -> Self {
        UtopiaMmuConfig {
            tar_cache_entries: 1024,
            sf_cache_entries: 1024,
            cache_latency: Cycles::new(2),
        }
    }
}

impl Default for UtopiaMmuConfig {
    fn default() -> Self {
        UtopiaMmuConfig::paper_baseline()
    }
}

/// A tiny direct-mapped cache of set indices (shared shape for the TAR and
/// SF caches).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SetCache {
    entries: Vec<Option<u64>>,
    /// `len - 1` when the capacity is a power of two, letting the hot-path
    /// slot computation use a mask instead of a (non-pipelined) `u64`
    /// division; `None` falls back to the modulo. Same slot either way.
    mask: Option<u64>,
    hits: Counter,
    misses: Counter,
}

impl SetCache {
    fn new(entries: usize) -> Self {
        let len = entries.max(1);
        SetCache {
            entries: vec![None; len],
            mask: len.is_power_of_two().then(|| len as u64 - 1),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    #[inline]
    fn slot(&self, set: u64) -> usize {
        match self.mask {
            Some(mask) => (set & mask) as usize,
            None => (set % self.entries.len() as u64) as usize,
        }
    }

    fn probe_and_fill(&mut self, set: u64) -> bool {
        let idx = self.slot(set);
        if self.entries[idx] == Some(set) {
            self.hits.inc();
            true
        } else {
            self.entries[idx] = Some(set);
            self.misses.inc();
            false
        }
    }

    /// Drops the cached entry for `set`, if present. Returns `true` when
    /// an entry was dropped.
    fn invalidate(&mut self, set: u64) -> bool {
        let idx = self.slot(set);
        if self.entries[idx] == Some(set) {
            self.entries[idx] = None;
            true
        } else {
            false
        }
    }
}

/// Result of a Utopia translation attempt.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtopiaTranslation {
    /// Fixed-latency component (set-index computation + TAR/SF lookups).
    pub latency: Cycles,
    /// RestSeg metadata (RSW) accesses that must go through the memory
    /// hierarchy; empty when the TAR cache absorbed the lookup. Inline
    /// storage: the group count is `ways.div_ceil(8)` — 2 for the paper's
    /// 16-way RestSeg — so this sits on the translation hot path with no
    /// heap allocation.
    pub metadata_accesses: WalkAccessList,
}

/// The Utopia MMU path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtopiaMmu {
    config: UtopiaMmuConfig,
    /// The RestSeg the kernel fills (size, associativity, page size).
    geometry: UtopiaConfig,
    metadata_base: PhysAddr,
    /// `geometry.sets()`, precomputed off the per-translation path.
    sets: u64,
    /// `sets - 1` when the set count is a power of two (every paper
    /// configuration) — the hot-path set index then reduces with a mask
    /// instead of a `u64` modulo. Same index either way.
    set_mask: Option<u64>,
    tar_cache: SetCache,
    sf_cache: SetCache,
    /// Translations attempted through the RestSeg path.
    pub lookups: Counter,
    /// RestSeg-side shootdowns applied (kernel evictions of resident
    /// pages).
    pub invalidations: Counter,
}

impl UtopiaMmu {
    /// Creates the Utopia MMU over the RestSeg `geometry` (a geometry
    /// [`mimic_os::OsConfig::validate`] accepts); `metadata_base` is where
    /// the RestSeg tag arrays live in physical memory.
    pub fn new(config: UtopiaMmuConfig, geometry: UtopiaConfig, metadata_base: PhysAddr) -> Self {
        let sets = geometry.sets();
        UtopiaMmu {
            tar_cache: SetCache::new(config.tar_cache_entries),
            sf_cache: SetCache::new(config.sf_cache_entries),
            config,
            geometry,
            metadata_base,
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            lookups: Counter::new(),
            invalidations: Counter::new(),
        }
    }

    fn set_index(&self, va: VirtAddr) -> u64 {
        let vpn = va.page_number(self.geometry.page_size).number();
        let hash = vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        match self.set_mask {
            Some(mask) => hash & mask,
            None => hash % self.sets,
        }
    }

    /// Performs the RestSeg-side translation work for `va`: returns the
    /// fixed latency plus the tag-array (RSW) accesses that must traverse
    /// the memory hierarchy. Whether the page actually resides in the
    /// RestSeg is decided by the kernel's occupancy (tracked in
    /// `mimic_os::utopia`); the hardware always pays this lookup cost first.
    pub fn translate(&mut self, va: VirtAddr) -> UtopiaTranslation {
        self.lookups.inc();
        let set = self.set_index(va);
        let mut latency = self.config.cache_latency;
        let mut accesses = WalkAccessList::new();
        let tar_hit = self.tar_cache.probe_and_fill(set);
        let sf_hit = self.sf_cache.probe_and_fill(set >> 3);
        latency += self.config.cache_latency;
        if !tar_hit || !sf_hit {
            // Fetch the set's tag group(s) from the in-memory tag array. The
            // tag array spans a region proportional to the RestSeg size, so
            // large RestSegs have poor locality here (Fig. 19).
            let groups = (self.geometry.ways as u64).div_ceil(8);
            for g in 0..groups {
                accesses.push(self.metadata_base.add(set * groups * 64 + g * 64));
            }
        }
        UtopiaTranslation {
            latency,
            metadata_accesses: accesses,
        }
    }

    /// Invalidates the RestSeg-side cached metadata for the set holding
    /// `va` — the kernel evicted the page from its RestSeg, so the tag
    /// array changed and the TAR/SF caches must refetch the set's tag
    /// group on the next lookup. Returns the number of cache entries
    /// dropped (0–2).
    pub fn invalidate(&mut self, va: VirtAddr) -> usize {
        self.invalidations.inc();
        let set = self.set_index(va);
        usize::from(self.tar_cache.invalidate(set))
            + usize::from(self.sf_cache.invalidate(set >> 3))
    }

    /// TAR-cache hit ratio.
    pub fn tar_hit_ratio(&self) -> f64 {
        let total = self.tar_cache.hits.get() + self.tar_cache.misses.get();
        if total == 0 {
            0.0
        } else {
            self.tar_cache.hits.get() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_types::PageSize;

    const TAG_BASE: PhysAddr = PhysAddr::new(0xD0_0000_0000);

    /// A paper-baseline MMU over a 16-way, 4 KiB-page RestSeg of `bytes`.
    fn mmu(bytes: u64) -> UtopiaMmu {
        UtopiaMmu::new(
            UtopiaMmuConfig::paper_baseline(),
            UtopiaConfig::new(bytes, 16, PageSize::Size4K),
            TAG_BASE,
        )
    }

    #[test]
    fn repeated_translations_hit_the_tar_cache() {
        let mut mmu = mmu(8 << 30);
        let va = VirtAddr::new(0x1234_5000);
        let first = mmu.translate(va);
        let second = mmu.translate(va);
        assert!(!first.metadata_accesses.is_empty());
        assert!(second.metadata_accesses.is_empty());
        assert!(mmu.tar_hit_ratio() > 0.0);
    }

    #[test]
    fn larger_restsegs_touch_a_larger_metadata_footprint() {
        let mut small = mmu(1 << 30);
        let mut large = mmu(64 << 30);
        let mut small_span = 0u64;
        let mut large_span = 0u64;
        for i in 0..4096u64 {
            let va = VirtAddr::new(i * 0x40_0000 + 0x123_0000);
            for a in &small.translate(va).metadata_accesses {
                small_span = small_span.max(a.raw() - TAG_BASE.raw());
            }
            for a in &large.translate(va).metadata_accesses {
                large_span = large_span.max(a.raw() - TAG_BASE.raw());
            }
        }
        assert!(
            large_span > small_span,
            "large RestSeg metadata should span more memory ({large_span} vs {small_span})"
        );
    }

    #[test]
    fn invalidation_forces_the_next_lookup_to_refetch_tags() {
        let mut mmu = mmu(8 << 30);
        let va = VirtAddr::new(0x1234_5000);
        mmu.translate(va); // cold: fetches + fills TAR/SF
        assert!(mmu.translate(va).metadata_accesses.is_empty(), "warm");
        let dropped = mmu.invalidate(va);
        assert!(dropped >= 1, "the cached set entry must be dropped");
        assert!(
            !mmu.translate(va).metadata_accesses.is_empty(),
            "after the shootdown the tag group is refetched from memory"
        );
        assert_eq!(mmu.invalidations.get(), 1);
    }

    #[test]
    fn latency_includes_both_cache_probes() {
        let t = mmu(8 << 30).translate(VirtAddr::new(0x9000));
        assert_eq!(t.latency, Cycles::new(4));
    }
}

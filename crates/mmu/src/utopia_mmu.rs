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

use crate::engine::{EngineReport, InstallInfo};
use crate::mmu::{Mmu, TranslationResult};
use crate::pt::{WalkAccessList, WalkOutcome};
use mimic_os::{Mapping, UtopiaConfig};
use serde::{Deserialize, Serialize};
use vm_types::{Asid, Counter, Cycles, FxHashMap, PageSize, PhysAddr, VirtAddr};

/// Physical region where the RestSeg tag arrays live.
const TAG_BASE: PhysAddr = PhysAddr::new(0xD0_0000_0000);

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

/// Utopia end to end: on a TLB miss the RestSeg walkers (set-index
/// computation, TAR/SF caches, tag-array fetches) run first; pages the
/// kernel placed in a RestSeg resolve right there, everything else pays
/// the conventional page-table walk on top of the RestSeg lookup — the
/// cost structure Fig. 19 sweeps.
#[derive(Debug)]
pub struct UtopiaEngine {
    config: UtopiaMmuConfig,
    /// The RestSeg the kernel fills (size, associativity, page size).
    geometry: UtopiaConfig,
    /// `geometry.sets()`, precomputed off the per-translation path.
    sets: u64,
    /// `sets - 1` when the set count is a power of two (every paper
    /// configuration) — the hot-path set index then reduces with a mask
    /// instead of a `u64` modulo. Same index either way.
    set_mask: Option<u64>,
    tar_cache: SetCache,
    sf_cache: SetCache,
    /// Pages resident in a RestSeg, keyed by `(asid, page base >> 12)` —
    /// fed by the kernel's placement decisions through [`InstallInfo`].
    /// The shift matters: page bases have twelve zero low bits, and the
    /// Fx hash keeps its entropy in the *high* bits while the hash map
    /// picks buckets from the *low* bits — unshifted keys collapse the
    /// whole resident set into a few probe chains (a measured ~40% of
    /// the Utopia cell's host time before the rekey).
    resident: FxHashMap<(u16, u64), Mapping>,
    /// RestSeg-side lookups (every TLB miss pays one).
    lookups: Counter,
    restseg_hits: Counter,
    rsw_fetches: Counter,
}

impl UtopiaEngine {
    /// Builds the engine over the kernel's RestSeg `geometry` (a geometry
    /// [`mimic_os::OsConfig::validate`] accepts).
    pub fn new(config: UtopiaMmuConfig, geometry: UtopiaConfig) -> Self {
        let sets = geometry.sets();
        // Pre-size the resident map for a full RestSeg of base pages so
        // steady-state installs never pause to rehash mid-run.
        let resident_capacity = (geometry.size_bytes / 4096).min(1 << 20) as usize;
        UtopiaEngine {
            tar_cache: SetCache::new(config.tar_cache_entries),
            sf_cache: SetCache::new(config.sf_cache_entries),
            config,
            geometry,
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            resident: FxHashMap::with_capacity_and_hasher(resident_capacity, Default::default()),
            lookups: Counter::new(),
            restseg_hits: Counter::new(),
            rsw_fetches: Counter::new(),
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

    /// The RestSeg walkers' work for `va`: the fixed latency (set-index
    /// computation + TAR/SF lookups) plus the tag-array (RSW) accesses
    /// that must traverse the memory hierarchy — empty when the caches
    /// absorbed the lookup. Whether the page resides in the RestSeg is
    /// decided by the kernel's placements (`resident`); the hardware
    /// always pays this lookup first.
    fn rsw_lookup(&mut self, va: VirtAddr) -> (Cycles, WalkAccessList) {
        self.lookups.inc();
        let set = self.set_index(va);
        let mut accesses = WalkAccessList::new();
        let tar_hit = self.tar_cache.probe_and_fill(set);
        let sf_hit = self.sf_cache.probe_and_fill(set >> 3);
        if !tar_hit || !sf_hit {
            // Fetch the set's tag group(s) from the in-memory tag array. The
            // tag array spans a region proportional to the RestSeg size, so
            // large RestSegs have poor locality here (Fig. 19). The group
            // count is `ways.div_ceil(8)` — 2 for the paper's 16 ways — so
            // the list stays inline.
            let groups = (self.geometry.ways as u64).div_ceil(8);
            for g in 0..groups {
                accesses.push(TAG_BASE.add(set * groups * 64 + g * 64));
            }
        }
        (
            self.config.cache_latency + self.config.cache_latency,
            accesses,
        )
    }

    fn resident_mapping(&self, asid: Asid, va: VirtAddr) -> Option<Mapping> {
        for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            let key = (asid.raw(), va.page_base(size).raw() >> 12);
            if let Some(mapping) = self.resident.get(&key) {
                if mapping.page_size == size {
                    return Some(*mapping);
                }
            }
        }
        None
    }

    /// Drops `va`'s page from the RestSeg resident set (all sizes) and its
    /// set's TAR/SF lines — the kernel evicted the page, so the tag array
    /// changed and the next lookup must refetch the set's tag group.
    /// Returns the number of engine entries dropped.
    pub(crate) fn remove_resident(&mut self, asid: Asid, va: VirtAddr) -> usize {
        let mut engine_entries = 0;
        for probe in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            let key = (asid.raw(), va.page_base(probe).raw() >> 12);
            if matches!(self.resident.get(&key), Some(m) if m.page_size == probe) {
                self.resident.remove(&key);
                let set = self.set_index(va);
                engine_entries += 1
                    + usize::from(self.tar_cache.invalidate(set))
                    + usize::from(self.sf_cache.invalidate(set >> 3));
            }
        }
        engine_entries
    }

    /// The RestSeg-resident pages of every address space.
    pub(crate) fn resident_mappings(&self) -> impl Iterator<Item = (Asid, Mapping)> + '_ {
        self.resident
            .iter()
            .map(|((asid, _), m)| (Asid::new(*asid), *m))
    }

    /// Drops every RestSeg-resident page of one address space (teardown).
    pub(crate) fn flush_asid(&mut self, asid: Asid) {
        self.resident.retain(|(a, _), _| *a != asid.raw());
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
        // The hardware always pays the RestSeg lookup first.
        let (latency, rsw) = self.rsw_lookup(va);
        self.rsw_fetches.add(rsw.len() as u64);
        let fixed = fixed + latency;
        if let Some(mapping) = self.resident_mapping(asid, va) {
            self.restseg_hits.inc();
            mmu.external_translation(asid, &mapping);
            let walk = if rsw.is_empty() {
                None // TAR/SF caches absorbed the tag lookup.
            } else {
                Some(WalkOutcome {
                    mapping: Some(mapping),
                    accesses: rsw,
                    parallel: true, // tag groups fetch in parallel
                })
            };
            return TranslationResult {
                paddr: Some(mapping.translate(va)),
                mapping: Some(mapping),
                tlb_hit_level: None,
                fixed_latency: fixed,
                walk,
            };
        }
        // Not RestSeg-resident: conventional walk, with the RSW tag
        // fetches charged ahead of the page-table accesses.
        let mut result = mmu.walk_after_miss(asid, va, fixed);
        if !rsw.is_empty() {
            if let Some(walk) = result.walk.take() {
                // Reuse the RSW list's buffer instead of copying.
                let mut accesses = rsw;
                for pa in &walk.accesses {
                    accesses.push(*pa);
                }
                result.walk = Some(WalkOutcome {
                    mapping: walk.mapping,
                    accesses,
                    parallel: walk.parallel,
                });
            }
        }
        result
    }

    /// Installs a fault-time mapping; RestSeg placements (flagged by the
    /// kernel) additionally become resident on the RestSeg side.
    pub(crate) fn install(
        &mut self,
        mmu: &mut Mmu,
        asid: Asid,
        mapping: &Mapping,
        info: InstallInfo,
    ) -> WalkAccessList {
        if info.restseg_placed {
            self.resident
                .insert((asid.raw(), mapping.vaddr.raw() >> 12), *mapping);
        }
        // The kernel keeps the page table authoritative for every page
        // (RestSeg-resident pages simply never walk it), so the install
        // accesses are the conventional page-table update.
        mmu.install_mapping(asid, mapping)
    }

    /// The Fig. 19 section; `mmu`'s walks are the FlexSeg fallbacks.
    pub(crate) fn report(&self, mmu: &Mmu) -> EngineReport {
        let tar = &self.tar_cache;
        let tar_total = tar.hits.get() + tar.misses.get();
        EngineReport::Utopia {
            lookups: self.lookups.get(),
            restseg_hits: self.restseg_hits.get(),
            flexseg_walks: mmu.stats().walks.get(),
            rsw_fetches: self.rsw_fetches.get(),
            tar_hit_ratio: if tar_total == 0 {
                0.0
            } else {
                tar.hits.get() as f64 / tar_total as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A paper-baseline engine over a 16-way, 4 KiB-page RestSeg of `bytes`.
    fn engine(bytes: u64) -> UtopiaEngine {
        UtopiaEngine::new(
            UtopiaMmuConfig::paper_baseline(),
            UtopiaConfig::new(bytes, 16, PageSize::Size4K),
        )
    }

    #[test]
    fn repeated_translations_hit_the_tar_cache() {
        let mut e = engine(8 << 30);
        let va = VirtAddr::new(0x1234_5000);
        let (_, first) = e.rsw_lookup(va);
        let (_, second) = e.rsw_lookup(va);
        assert!(!first.is_empty());
        assert!(second.is_empty());
        let EngineReport::Utopia { tar_hit_ratio, .. } =
            e.report(&Mmu::new(crate::MmuConfig::default()))
        else {
            unreachable!("the Utopia engine reports Utopia stats");
        };
        assert!(tar_hit_ratio > 0.0);
    }

    #[test]
    fn larger_restsegs_touch_a_larger_metadata_footprint() {
        let mut small = engine(1 << 30);
        let mut large = engine(64 << 30);
        let mut small_span = 0u64;
        let mut large_span = 0u64;
        for i in 0..4096u64 {
            let va = VirtAddr::new(i * 0x40_0000 + 0x123_0000);
            for a in &small.rsw_lookup(va).1 {
                small_span = small_span.max(a.raw() - TAG_BASE.raw());
            }
            for a in &large.rsw_lookup(va).1 {
                large_span = large_span.max(a.raw() - TAG_BASE.raw());
            }
        }
        assert!(
            large_span > small_span,
            "large RestSeg metadata should span more memory ({large_span} vs {small_span})"
        );
    }

    /// Mutant `tests/mutants/05-utopia-eviction-keeps-tag-lines.patch`
    /// (a RestSeg eviction leaves the TAR/SF lines) fails here: one entry
    /// dropped, not two or more.
    #[test]
    fn invalidation_forces_the_next_lookup_to_refetch_tags() {
        let mut e = engine(8 << 30);
        let va = VirtAddr::new(0x1234_5000);
        e.resident.insert(
            (0, va.raw() >> 12),
            Mapping {
                vaddr: va,
                paddr: PhysAddr::new(0x30_0000_0000),
                page_size: PageSize::Size4K,
            },
        );
        e.rsw_lookup(va); // cold: fetches + fills TAR/SF
        assert!(e.rsw_lookup(va).1.is_empty(), "warm");
        let dropped = e.remove_resident(Asid::KERNEL, va);
        assert!(
            dropped >= 2,
            "the residency and the cached set entry must be dropped"
        );
        assert!(
            !e.rsw_lookup(va).1.is_empty(),
            "after the shootdown the tag group is refetched from memory"
        );
    }

    #[test]
    fn latency_includes_both_cache_probes() {
        let (latency, _) = engine(8 << 30).rsw_lookup(VirtAddr::new(0x9000));
        assert_eq!(latency, Cycles::new(4));
    }
}

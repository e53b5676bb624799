//! The top-level MMU: TLB hierarchy + page-walk caches + one page-table
//! walker per address space for the configured page-table design.
//!
//! Every request names the [`Asid`] it executes under. TLB entries are
//! tagged (see [`crate::tlb`]); page tables are instantiated per address
//! space, each with its own metadata region in physical memory. A context
//! switch either keeps the TLBs warm (ASID-tagged mode, the default) or
//! performs the full flush of an ASID-less machine — the comparison the
//! multi-process experiments read out.

use crate::pt::{build_page_table, PageTable, PageTableKind, WalkAccessList, WalkOutcome};
use crate::pwc::PageWalkCaches;
use crate::tlb::{TlbHierarchy, TlbHierarchyConfig, TlbLevel};
use mimic_os::Mapping;
use serde::{Deserialize, Serialize};
use vm_types::{Asid, Counter, Cycles, PhysAddr, VirtAddr};

/// Physical distance between the per-ASID page-table metadata regions
/// (4 GiB — far more than any scaled-down table needs).
const ASID_TABLE_STRIDE: u64 = 0x1_0000_0000;

/// Configuration of the full MMU.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MmuConfig {
    /// TLB hierarchy geometry.
    pub tlb: TlbHierarchyConfig,
    /// Page-table design walked on TLB misses.
    pub page_table: PageTableKind,
    /// Physical base address where page-table metadata is placed. Each
    /// address space gets its own region at a fixed stride above this base.
    pub metadata_base: PhysAddr,
    /// `true` (default): TLB entries are ASID-tagged and survive context
    /// switches. `false`: the ASID-less baseline that flushes the whole
    /// TLB hierarchy on every switch.
    pub asid_tlb_tags: bool,
}

impl MmuConfig {
    /// The paper's baseline MMU (Table 4) with the given page-table design.
    pub fn paper_baseline(page_table: PageTableKind) -> Self {
        MmuConfig {
            tlb: TlbHierarchyConfig::paper_baseline(),
            page_table,
            metadata_base: PhysAddr::new(0x30_0000_0000),
            asid_tlb_tags: true,
        }
    }

    /// A small configuration for tests.
    pub fn small_test(page_table: PageTableKind) -> Self {
        MmuConfig {
            tlb: TlbHierarchyConfig::small_test(),
            ..MmuConfig::paper_baseline(page_table)
        }
    }

    /// Disables ASID tagging (full TLB flush on every context switch),
    /// keeping everything else identical — the baseline of the
    /// multi-process interference experiments.
    pub fn without_asid_tags(mut self) -> Self {
        self.asid_tlb_tags = false;
        self
    }
}

impl Default for MmuConfig {
    fn default() -> Self {
        MmuConfig::paper_baseline(PageTableKind::Radix)
    }
}

/// Translation statistics of one address space.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsidMmuStats {
    /// Translations requested under this ASID.
    pub translations: Counter,
    /// Translations satisfied by the L1 TLBs.
    pub l1_hits: Counter,
    /// Translations satisfied by the L2 TLB.
    pub l2_hits: Counter,
    /// Page-table walks performed.
    pub walks: Counter,
    /// Walks that ended in a page fault.
    pub faults: Counter,
}

impl AsidMmuStats {
    /// TLB hits (either level) under this ASID.
    pub fn hits(&self) -> u64 {
        self.l1_hits.get() + self.l2_hits.get()
    }

    /// Miss ratio of this address space's translations, in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.translations.get() == 0 {
            0.0
        } else {
            self.walks.get() as f64 / self.translations.get() as f64
        }
    }
}

/// Statistics accumulated by the MMU.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MmuStats {
    /// Translations requested.
    pub translations: Counter,
    /// Translations satisfied by the L1 TLBs.
    pub l1_hits: Counter,
    /// Translations satisfied by the L2 TLB.
    pub l2_hits: Counter,
    /// Page-table walks performed.
    pub walks: Counter,
    /// Total page-table accesses issued by the walker.
    pub walk_accesses: Counter,
    /// Walks that ended in a page fault.
    pub faults: Counter,
    /// Page-table update accesses performed on behalf of the kernel.
    pub insert_accesses: Counter,
    /// Context switches observed by the MMU.
    pub context_switches: Counter,
    /// TLB entries dropped by context-switch flushes (non-zero only in the
    /// ASID-less full-flush mode).
    pub switch_flushed_entries: Counter,
    /// Per-address-space hit/miss accounting, indexed densely by raw ASID
    /// (ASIDs are allocated sequentially from the pid). A dense table
    /// keeps the per-translation accounting to one bounds-checked index —
    /// the seed's `BTreeMap` walk was paid on every single translation.
    pub per_asid: Vec<AsidMmuStats>,
}

impl MmuStats {
    /// L2 TLB misses (page walks) per 1000 of the given instruction count —
    /// the MPKI metric validated in Fig. 10.
    pub fn l2_mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.walks.get() as f64 * 1000.0 / instructions as f64
        }
    }

    /// Translation statistics of one address space (zeros if the ASID never
    /// translated).
    pub fn for_asid(&self, asid: Asid) -> AsidMmuStats {
        self.per_asid
            .get(asid.raw() as usize)
            .cloned()
            .unwrap_or_default()
    }
}

/// The outcome of removing one translation (a TLB shootdown): the
/// page-table update accesses to charge as kernel memory traffic, plus how
/// much cached state the shootdown actually dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RemovedTranslation {
    /// Page-table update accesses performed by the removal.
    pub accesses: WalkAccessList,
    /// TLB entries dropped across the hierarchy.
    pub tlb_entries_dropped: usize,
    /// Page-walk-cache entries dropped (radix only).
    pub pwc_entries_dropped: usize,
}

/// The outcome of one translation request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TranslationResult {
    /// The translated physical address, or `None` when the walk faulted.
    pub paddr: Option<PhysAddr>,
    /// The mapping used, when one was found.
    pub mapping: Option<Mapping>,
    /// TLB level that hit, or `None` when a page walk was needed.
    pub tlb_hit_level: Option<TlbLevel>,
    /// Fixed latency of the TLB (and PWC) probes.
    pub fixed_latency: Cycles,
    /// The page-table walk performed on a TLB miss.
    pub walk: Option<WalkOutcome>,
}

impl TranslationResult {
    /// `true` when the translation ended in a page fault.
    pub fn is_fault(&self) -> bool {
        self.paddr.is_none()
    }
}

/// The MMU model.
pub struct Mmu {
    config: MmuConfig,
    tlb: TlbHierarchy,
    pwc: PageWalkCaches,
    /// One page table per address space, created on first use and indexed
    /// densely by raw ASID like [`MmuStats::per_asid`]: every walk starts
    /// with this lookup.
    tables: Vec<Option<Box<dyn PageTable + Send>>>,
    stats: MmuStats,
}

impl std::fmt::Debug for Mmu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmu")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .field("page_table_kind", &self.config.page_table)
            .field("address_spaces", &self.tables.iter().flatten().count())
            .finish_non_exhaustive()
    }
}

impl Mmu {
    /// Builds an MMU from its configuration.
    pub fn new(config: MmuConfig) -> Self {
        let pwc = if config.page_table == PageTableKind::Radix {
            PageWalkCaches::paper_baseline()
        } else {
            PageWalkCaches::disabled()
        };
        let mut mmu = Mmu {
            tlb: TlbHierarchy::new(config.tlb.clone()),
            pwc,
            tables: Vec::new(),
            stats: MmuStats::default(),
            config,
        };
        // The first address space exists from boot, as before the MMU went
        // multi-process — `page_table()` is valid on a fresh MMU.
        mmu.table_for(Asid::KERNEL);
        mmu
    }

    /// The MMU's configuration.
    pub fn config(&self) -> &MmuConfig {
        &self.config
    }

    /// Statistics.
    pub fn stats(&self) -> &MmuStats {
        &self.stats
    }

    /// The TLB hierarchy (for detailed per-level statistics).
    pub fn tlb(&self) -> &TlbHierarchy {
        &self.tlb
    }

    /// The page-walk caches (empty unless the design is radix).
    pub fn pwc(&self) -> &PageWalkCaches {
        &self.pwc
    }

    /// The page table of address space `asid`, if it has one.
    pub fn page_table_of(&self, asid: Asid) -> Option<&(dyn PageTable + Send)> {
        self.tables.get(asid.raw() as usize)?.as_deref()
    }

    /// The page table of the first address space ([`Asid::KERNEL`]) — the
    /// single-process case. Always present (it is created at boot).
    pub fn page_table(&self) -> &(dyn PageTable + Send) {
        self.page_table_of(Asid::KERNEL)
            .expect("the ASID-0 table is created by Mmu::new")
    }

    fn table_for(&mut self, asid: Asid) -> &mut (dyn PageTable + Send) {
        let idx = asid.raw() as usize;
        if idx >= self.tables.len() {
            self.tables.resize_with(idx + 1, || None);
        }
        let config = &self.config;
        self.tables[idx]
            .get_or_insert_with(|| {
                let base = config.metadata_base.raw() + u64::from(asid.raw()) * ASID_TABLE_STRIDE;
                build_page_table(config.page_table, PhysAddr::new(base))
            })
            .as_mut()
    }

    fn asid_stats(&mut self, asid: Asid) -> &mut AsidMmuStats {
        let idx = asid.raw() as usize;
        if idx >= self.stats.per_asid.len() {
            self.stats.per_asid.resize(idx + 1, AsidMmuStats::default());
        }
        &mut self.stats.per_asid[idx]
    }

    /// Translates `va` in address space `asid`: [`Mmu::probe_tlb`], then,
    /// on a miss, [`Mmu::walk_after_miss`] — the two halves the alternative
    /// translation engines interpose between. The returned [`WalkOutcome`]
    /// carries the page-table accesses the caller must replay through the
    /// memory hierarchy to obtain the walk latency.
    pub fn translate(&mut self, asid: Asid, va: VirtAddr) -> TranslationResult {
        match self.probe_tlb(asid, va) {
            Ok(hit) => hit,
            Err(fixed_latency) => self.walk_after_miss(asid, va, fixed_latency),
        }
    }

    /// Fast-path translation through the TLB hierarchy's L0 pointer cache
    /// (see [`TlbHierarchy::l0_lookup`]): on a hit, returns the physical
    /// address and the fixed probe latency with state and statistics
    /// effects **identical** to the L1-hit path of [`Mmu::translate`] /
    /// [`Mmu::probe_tlb`]. Returns `None` — mutating nothing — when the L0
    /// has no verified pointer for the page; the caller then dispatches
    /// the ordinary engine translation.
    ///
    /// Only sound for engines whose translate begins with an unmodified
    /// TLB probe of the raw virtual address (the conventional page table,
    /// RMM, Utopia). Midgard probes its backend with *Midgard* addresses,
    /// so the framework must not consult the L0 for it (see
    /// `TranslationEngine::uses_l0`).
    #[inline]
    pub fn l0_translate(&mut self, asid: Asid, va: VirtAddr) -> Option<(PhysAddr, Cycles)> {
        let (mapping, latency) = self.tlb.l0_lookup(asid, va)?;
        self.stats.translations.inc();
        self.stats.l1_hits.inc();
        let per_asid = self.asid_stats(asid);
        per_asid.translations.inc();
        per_asid.l1_hits.inc();
        Some((mapping.translate(va), latency))
    }

    /// Read-only view of what [`Mmu::l0_translate`] would serve, for
    /// invariant checking (no statistics or replacement state perturbed).
    pub fn l0_peek(&self, asid: Asid, va: VirtAddr) -> Option<PhysAddr> {
        self.tlb.l0_peek(asid, va).map(|m| m.translate(va))
    }

    /// Every `(asid, va)` at which [`Mmu::l0_peek`] would serve a
    /// translation (see [`TlbHierarchy::l0_pointers`]).
    pub fn l0_pointers(&self) -> impl Iterator<Item = (Asid, VirtAddr)> + '_ {
        self.tlb.l0_pointers()
    }

    /// First half of a translation: the TLB hierarchy probe. On a hit the
    /// completed [`TranslationResult`] is returned; on a miss the
    /// accumulated probe latency is returned so the caller can either walk
    /// the page table ([`Mmu::walk_after_miss`]) or consult an alternative
    /// translation structure (range TLB, RestSeg walker, VLB) first.
    /// Always inlined, so [`Mmu::translate`]'s hit path builds its result
    /// in place instead of through the `Result`.
    #[inline(always)]
    pub fn probe_tlb(&mut self, asid: Asid, va: VirtAddr) -> Result<TranslationResult, Cycles> {
        self.stats.translations.inc();
        let (tlb_hit, fixed_latency) = self.tlb.lookup(asid, va);
        if let Some((mapping, level)) = tlb_hit {
            match level {
                TlbLevel::L1 => self.stats.l1_hits.inc(),
                TlbLevel::L2 => self.stats.l2_hits.inc(),
            }
            let per_asid = self.asid_stats(asid);
            per_asid.translations.inc();
            match level {
                TlbLevel::L1 => per_asid.l1_hits.inc(),
                TlbLevel::L2 => per_asid.l2_hits.inc(),
            }
            return Ok(TranslationResult {
                paddr: Some(mapping.translate(va)),
                mapping: Some(mapping),
                tlb_hit_level: Some(level),
                fixed_latency,
                walk: None,
            });
        }
        Err(fixed_latency)
    }

    /// Second half of a translation after a TLB miss: consult the PWCs
    /// (radix only) and walk the page table. `fixed_latency` is whatever
    /// the caller has already accumulated (at least the TLB probe cost).
    pub fn walk_after_miss(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        mut fixed_latency: Cycles,
    ) -> TranslationResult {
        let skip = if self.config.page_table == PageTableKind::Radix {
            fixed_latency += self.pwc.latency();
            self.pwc.levels_skipped(va)
        } else {
            0
        };
        self.stats.walks.inc();
        let walk = self.table_for(asid).walk(va, skip);
        self.stats.walk_accesses.add(walk.accesses.len() as u64);
        let faulted = walk.mapping.is_none();
        if faulted {
            self.stats.faults.inc();
        }
        let per_asid = self.asid_stats(asid);
        per_asid.translations.inc();
        per_asid.walks.inc();
        if faulted {
            per_asid.faults.inc();
        }

        match walk.mapping {
            Some(mapping) => {
                self.tlb.fill(asid, mapping);
                if self.config.page_table == PageTableKind::Radix {
                    self.pwc.fill(va);
                }
                TranslationResult {
                    paddr: Some(mapping.translate(va)),
                    mapping: Some(mapping),
                    tlb_hit_level: None,
                    fixed_latency,
                    walk: Some(walk),
                }
            }
            None => TranslationResult {
                paddr: None,
                mapping: None,
                tlb_hit_level: None,
                fixed_latency,
                walk: Some(walk),
            },
        }
    }

    /// Records a translation completed by an alternative engine structure
    /// (a range TLB, the RestSeg walkers) after a TLB miss: the address
    /// space's per-ASID accounting sees the translation and the TLBs are
    /// filled with `mapping` so subsequent accesses to the page hit. The
    /// global `translations` counter was already incremented by the
    /// [`Mmu::probe_tlb`] that preceded this call; no page walk is counted.
    pub fn external_translation(&mut self, asid: Asid, mapping: &Mapping) {
        self.asid_stats(asid).translations.inc();
        self.tlb.fill(asid, *mapping);
    }

    /// Installs a mapping produced by the kernel (after a page fault) into
    /// the address space's page table and the TLB. Returns the page-table
    /// update accesses (to be charged as kernel memory traffic).
    pub fn install_mapping(&mut self, asid: Asid, mapping: &Mapping) -> WalkAccessList {
        let accesses = self.table_for(asid).insert(*mapping);
        self.stats.insert_accesses.add(accesses.len() as u64);
        self.tlb.fill(asid, *mapping);
        accesses
    }

    /// Removes the translation covering `va` from the address space's page
    /// table and invalidates the TLBs and (for the radix design) the
    /// page-walk caches covering the address — the MMU half of a TLB
    /// shootdown. Returns the update accesses and the dropped-entry counts.
    pub fn remove_mapping(&mut self, asid: Asid, va: VirtAddr) -> RemovedTranslation {
        let accesses = self.table_for(asid).remove(va);
        let tlb_entries_dropped = self.tlb.invalidate(asid, va);
        // The PWCs tag by virtual address alone, so entries covering the
        // address are dropped regardless of which address space asked.
        let pwc_entries_dropped = self.pwc.invalidate(va);
        RemovedTranslation {
            accesses,
            tlb_entries_dropped,
            pwc_entries_dropped,
        }
    }

    /// Notifies the MMU of a context switch. In ASID-tagged mode the TLBs
    /// survive; in the full-flush baseline every entry is dropped. The
    /// page-walk caches tag by virtual address alone and are flushed in
    /// both modes. Returns the number of TLB entries dropped.
    pub fn context_switch(&mut self) -> usize {
        self.stats.context_switches.inc();
        self.pwc.flush();
        if self.config.asid_tlb_tags {
            0
        } else {
            let dropped = self.tlb.flush();
            self.stats.switch_flushed_entries.add(dropped as u64);
            dropped
        }
    }

    /// Flushes the TLB hierarchy (all address spaces).
    pub fn flush_tlb(&mut self) {
        self.tlb.flush();
    }

    /// Flushes only the TLB entries of `asid` (address-space teardown).
    /// Returns the number of entries dropped.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        self.tlb.flush_asid(asid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_types::PageSize;

    const A0: Asid = Asid::KERNEL;

    fn mapping(va: u64, size: PageSize) -> Mapping {
        Mapping {
            vaddr: VirtAddr::new(va).page_base(size),
            paddr: PhysAddr::new(0x10_0000_0000 + (va & !(size.bytes() - 1))),
            page_size: size,
        }
    }

    #[test]
    fn translate_miss_walk_then_tlb_hit() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let m = mapping(0x7f00_1000, PageSize::Size4K);
        mmu.install_mapping(A0, &m);
        mmu.flush_tlb();
        let first = mmu.translate(A0, VirtAddr::new(0x7f00_1234));
        assert_eq!(first.paddr, Some(m.translate(VirtAddr::new(0x7f00_1234))));
        assert!(first.tlb_hit_level.is_none());
        assert!(first.walk.is_some());
        let second = mmu.translate(A0, VirtAddr::new(0x7f00_1234));
        assert!(second.tlb_hit_level.is_some());
        assert!(second.walk.is_none());
        assert_eq!(mmu.stats().walks.get(), 1);
        assert_eq!(mmu.stats().l1_hits.get() + mmu.stats().l2_hits.get(), 1);
    }

    #[test]
    fn unmapped_translation_faults() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let result = mmu.translate(A0, VirtAddr::new(0x0dea_dbee_f000));
        assert!(result.is_fault());
        assert_eq!(mmu.stats().faults.get(), 1);
    }

    #[test]
    fn l0_translate_serves_l1_hits_and_dies_with_the_shootdown() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let m = mapping(0x7f00_1000, PageSize::Size4K);
        mmu.install_mapping(A0, &m);
        let va = VirtAddr::new(0x7f00_1234);
        let full = mmu.translate(A0, va);
        assert!(full.tlb_hit_level.is_some());
        let translations = mmu.stats().translations.get();
        let l1_hits = mmu.stats().l1_hits.get();
        let (pa, latency) = mmu.l0_translate(A0, va).expect("hot page serves from L0");
        assert_eq!(Some(pa), full.paddr);
        assert_eq!(latency, full.fixed_latency);
        assert_eq!(mmu.stats().translations.get(), translations + 1);
        assert_eq!(mmu.stats().l1_hits.get(), l1_hits + 1);

        // A shootdown of the page must kill the fast path at once: an L0
        // hit after the invalidation would be a stale translation.
        mmu.remove_mapping(A0, va);
        assert_eq!(mmu.l0_peek(A0, va), None);
        assert_eq!(mmu.l0_translate(A0, va), None);

        // Remapping the page to a different frame: the fast path must
        // serve the new frame (or stand down), never the old one.
        let mut remapped = m;
        remapped.paddr = PhysAddr::new(0x20_0000_0000);
        mmu.install_mapping(A0, &remapped);
        let refreshed = mmu.translate(A0, va);
        assert_eq!(refreshed.paddr, Some(remapped.translate(va)));
        if let Some((pa, _)) = mmu.l0_translate(A0, va) {
            assert_eq!(pa, remapped.translate(va));
        }
    }

    #[test]
    fn install_fills_tlb_so_next_access_hits() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let m = mapping(0x1000, PageSize::Size4K);
        mmu.install_mapping(A0, &m);
        let r = mmu.translate(A0, VirtAddr::new(0x1000));
        assert!(r.tlb_hit_level.is_some());
    }

    #[test]
    fn remove_mapping_causes_subsequent_fault() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let m = mapping(0x1000, PageSize::Size4K);
        mmu.install_mapping(A0, &m);
        let removed = mmu.remove_mapping(A0, VirtAddr::new(0x1000));
        assert!(
            removed.tlb_entries_dropped > 0,
            "install filled the TLBs; the shootdown must drop those entries"
        );
        assert!(mmu.translate(A0, VirtAddr::new(0x1000)).is_fault());
    }

    #[test]
    fn remove_mapping_invalidates_warm_pwcs_for_the_address() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let m = mapping(0x7f00_1000, PageSize::Size4K);
        mmu.install_mapping(A0, &m);
        mmu.flush_tlb();
        // Warm the PWCs with a completed walk.
        assert!(!mmu.translate(A0, VirtAddr::new(0x7f00_1234)).is_fault());
        let removed = mmu.remove_mapping(A0, VirtAddr::new(0x7f00_1000));
        assert!(removed.pwc_entries_dropped > 0, "invlpg drops PWC entries");
        // The next walk of the address starts from the root again and
        // faults (leaf gone).
        assert!(mmu.translate(A0, VirtAddr::new(0x7f00_1234)).is_fault());
    }

    #[test]
    fn works_with_every_page_table_design() {
        for kind in PageTableKind::ALL {
            let mut mmu = Mmu::new(MmuConfig::small_test(kind));
            let m = mapping(0x2222_0000, PageSize::Size4K);
            mmu.install_mapping(A0, &m);
            mmu.flush_tlb();
            let r = mmu.translate(A0, VirtAddr::new(0x2222_0abc));
            assert_eq!(r.paddr, Some(PhysAddr::new(0x10_2222_0abc)), "{kind}");
            assert!(r.walk.is_some(), "{kind}");
        }
    }

    #[test]
    fn radix_walks_shrink_once_pwcs_warm_up() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        // Map many pages in the same 2 MiB region.
        for i in 0..16u64 {
            mmu.install_mapping(A0, &mapping(0x7f00_0000 + i * 4096, PageSize::Size4K));
        }
        mmu.flush_tlb();
        let first = mmu.translate(A0, VirtAddr::new(0x7f00_0000));
        mmu.flush_tlb();
        let warm = mmu.translate(A0, VirtAddr::new(0x7f00_1000));
        let first_len = first.walk.unwrap().accesses.len();
        let warm_len = warm.walk.unwrap().accesses.len();
        assert!(warm_len < first_len, "PWC should shorten the second walk");
    }

    #[test]
    fn mpki_reflects_walk_count() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        for i in 0..100u64 {
            mmu.install_mapping(A0, &mapping(i * (1 << 21), PageSize::Size4K));
        }
        mmu.flush_tlb();
        for i in 0..100u64 {
            mmu.translate(A0, VirtAddr::new(i * (1 << 21)));
        }
        // Sparse accesses across 2 MiB-strided pages: most should walk.
        assert!(mmu.stats().l2_mpki(100_000) > 0.5);
    }

    #[test]
    fn huge_mappings_translate_any_interior_address() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let m = mapping(0x4000_0000, PageSize::Size2M);
        mmu.install_mapping(A0, &m);
        let r = mmu.translate(A0, VirtAddr::new(0x4012_3456));
        assert_eq!(r.paddr.unwrap().raw(), 0x10_4012_3456);
    }

    #[test]
    fn address_spaces_are_isolated() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let a = Asid::new(1);
        let b = Asid::new(2);
        // Same virtual page mapped to different frames in two processes.
        let ma = Mapping {
            vaddr: VirtAddr::new(0x5000),
            paddr: PhysAddr::new(0x10_0000_5000),
            page_size: PageSize::Size4K,
        };
        let mb = Mapping {
            vaddr: VirtAddr::new(0x5000),
            paddr: PhysAddr::new(0x20_0000_5000),
            page_size: PageSize::Size4K,
        };
        mmu.install_mapping(a, &ma);
        mmu.install_mapping(b, &mb);
        assert_eq!(
            mmu.translate(a, VirtAddr::new(0x5008)).paddr,
            Some(PhysAddr::new(0x10_0000_5008))
        );
        assert_eq!(
            mmu.translate(b, VirtAddr::new(0x5008)).paddr,
            Some(PhysAddr::new(0x20_0000_5008))
        );
        // A third address space sees nothing at all (walks its own, empty
        // table).
        assert!(mmu
            .translate(Asid::new(3), VirtAddr::new(0x5008))
            .is_fault());
        // Per-ASID accounting tracked each request.
        assert_eq!(mmu.stats().for_asid(a).translations.get(), 1);
        assert_eq!(mmu.stats().for_asid(b).translations.get(), 1);
        assert_eq!(mmu.stats().for_asid(Asid::new(3)).faults.get(), 1);
    }

    #[test]
    fn per_asid_tables_use_disjoint_metadata_regions() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let a = Asid::new(1);
        let b = Asid::new(2);
        mmu.install_mapping(a, &mapping(0x9000, PageSize::Size4K));
        mmu.install_mapping(b, &mapping(0x9000, PageSize::Size4K));
        mmu.flush_tlb();
        let wa = mmu.translate(a, VirtAddr::new(0x9000)).walk.unwrap();
        let wb = mmu.translate(b, VirtAddr::new(0x9000)).walk.unwrap();
        let overlap = wa.accesses.iter().any(|pa| wb.accesses.contains(pa));
        assert!(!overlap, "walk accesses must target different tables");
    }

    #[test]
    fn asid_mode_keeps_tlb_warm_across_context_switches() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let a = Asid::new(1);
        let m = mapping(0x9000, PageSize::Size4K);
        mmu.install_mapping(a, &m);
        let dropped = mmu.context_switch();
        assert_eq!(dropped, 0);
        let back = mmu.context_switch();
        assert_eq!(back, 0);
        let r = mmu.translate(a, VirtAddr::new(0x9000));
        assert!(r.tlb_hit_level.is_some(), "entry survived both switches");
        assert_eq!(mmu.stats().context_switches.get(), 2);
        assert_eq!(mmu.stats().switch_flushed_entries.get(), 0);
    }

    #[test]
    fn full_flush_mode_drops_entries_on_context_switches() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix).without_asid_tags());
        let a = Asid::new(1);
        let m = mapping(0x9000, PageSize::Size4K);
        mmu.install_mapping(a, &m);
        let dropped = mmu.context_switch();
        assert!(dropped > 0, "install filled L1+L2, flush drops them");
        mmu.context_switch();
        let r = mmu.translate(a, VirtAddr::new(0x9000));
        assert!(r.tlb_hit_level.is_none(), "entry lost to the full flush");
        assert!(mmu.stats().switch_flushed_entries.get() > 0);
    }

    #[test]
    fn flush_asid_tears_down_one_address_space() {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let a = Asid::new(1);
        let b = Asid::new(2);
        mmu.install_mapping(a, &mapping(0x9000, PageSize::Size4K));
        mmu.install_mapping(b, &mapping(0x9000, PageSize::Size4K));
        assert!(mmu.flush_asid(a) > 0);
        assert!(mmu
            .translate(b, VirtAddr::new(0x9000))
            .tlb_hit_level
            .is_some());
    }
}

//! The pluggable translation-engine layer: one enum-dispatched type that
//! lets the *full* simulation pipeline (TLBs, faults, MimicOS, caches,
//! DRAM, reporting) run any of the paper's translation architectures —
//! the conventional TLB + page-table path, Midgard's intermediate address
//! space ([`crate::midgard`]), RMM's range translation ([`crate::rmm`])
//! and Utopia's restrictive segments ([`crate::utopia_mmu`]).
//!
//! The framework (`virtuoso::System`) owns the [`Mmu`] — the TLBs,
//! page-walk caches and per-address-space page tables every design
//! composes with — and lends it to every call; a [`TranslationEngine`]
//! holds only the design-specific state. [`TranslationEngine::PageTable`]
//! is a unit variant whose calls forward to the `Mmu` behind one predicted
//! branch; the alternative engines are boxed (the enum stays two words)
//! and sit behind `#[cold]`/`#[inline(never)]` arms, out of the hot
//! instruction loop. Dispatch is a `match`, not a `dyn` vtable, so the
//! common arm inlines.
//!
//! # Adding an engine
//!
//! A design is one type in one file: its lookup structures, counters and
//! the operations the dispatch calls ([`translate`](TranslationEngine::translate),
//! [`handle_fault_install`](TranslationEngine::handle_fault_install),
//! [`invalidate`](TranslationEngine::invalidate),
//! [`flush_asid`](TranslationEngine::flush_asid),
//! [`report`](TranslationEngine::report)), composing with the borrowed
//! `Mmu` through [`Mmu::probe_tlb`], [`Mmu::walk_after_miss`] and
//! [`Mmu::external_translation`]. Add an [`EngineConfig`], a
//! [`TranslationEngine`] and an [`EngineReport`] variant, and every figure
//! harness, multiprogram mix and sweep can run it end to end through
//! `System::run` / `System::run_multiprogram`.

use crate::midgard::{MidgardConfig, MidgardEngine};
use crate::mmu::{Mmu, RemovedTranslation, TranslationResult};
use crate::pt::WalkAccessList;
use crate::rmm::{RmmConfig, RmmEngine};
use crate::utopia_mmu::{UtopiaEngine, UtopiaMmuConfig};
use mimic_os::kernel::RangeMapping;
use mimic_os::{AllocationPolicy, Mapping};
use serde::{Deserialize, Serialize};
use vm_types::{Asid, PageSize, VirtAddr};

/// Stride between the per-ASID metadata regions of the engines' in-memory
/// structures (Midgard's VMA trees, RMM's range tables).
pub(crate) const ENGINE_ASID_STRIDE: u64 = 0x1_0000_0000;

/// Which translation engine the simulated machine runs.
///
/// The default, [`EngineConfig::PageTable`], is the conventional
/// TLB-plus-page-table path; the page-table *design* (radix or one of the
/// hash tables) still comes from [`crate::MmuConfig::page_table`]. The
/// other variants carry the configuration of their design-specific
/// hardware.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum EngineConfig {
    /// TLB hierarchy backed by a hardware-walked page table.
    #[default]
    PageTable,
    /// Midgard (Gupta et al., ISCA 2021): VMA-granular frontend VLBs plus
    /// a lazily-walked Midgard→physical backend.
    Midgard(MidgardConfig),
    /// Redundant Memory Mappings (Karakostas et al., ISCA 2015): a range
    /// TLB and range table in front of the conventional page-table path.
    Rmm(RmmConfig),
    /// Utopia (Kanellopoulos et al., MICRO 2023): RestSeg set-index
    /// translation with TAR/SF caches, falling back to the page table.
    /// The RestSeg geometry is the kernel's
    /// ([`AllocationPolicy::Utopia`]), handed over when the engine is built.
    Utopia(UtopiaMmuConfig),
}

/// Engine-specific metadata accompanying a fault-time mapping install,
/// produced by MimicOS and routed through the framework's fault path.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstallInfo {
    /// The kernel placed the page in a Utopia RestSeg (so the RestSeg
    /// walkers — not the page table — resolve it from now on).
    pub restseg_placed: bool,
}

/// Result of shooting one page translation down across the framework's
/// [`Mmu`] *and* the engine's design-specific state. Produced by
/// [`TranslationEngine::invalidate`], consumed by the framework, which
/// charges the metadata-update accesses as kernel memory traffic and rolls
/// the drop counts into its shootdown statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvalidationOutcome {
    /// Translation-metadata update accesses (page-table leaf removal).
    pub accesses: WalkAccessList,
    /// TLB entries dropped across the hierarchy.
    pub tlb_entries_dropped: usize,
    /// Page-walk-cache entries dropped (radix only).
    pub pwc_entries_dropped: usize,
    /// Engine-resident translations dropped or rewritten (RMM ranges,
    /// Utopia RestSeg residency + TAR/SF lines).
    pub engine_entries_dropped: usize,
}

impl InvalidationOutcome {
    pub(crate) fn from_removed(removed: RemovedTranslation, engine_entries_dropped: usize) -> Self {
        InvalidationOutcome {
            accesses: removed.accesses,
            tlb_entries_dropped: removed.tlb_entries_dropped,
            pwc_entries_dropped: removed.pwc_entries_dropped,
            engine_entries_dropped,
        }
    }
}

/// The per-engine statistics section of a simulation report. `None` on the
/// conventional page-table engine (whose statistics are the MMU/TLB
/// numbers the report already carries).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineReport {
    /// Midgard frontend/backend breakdown (Fig. 17).
    Midgard {
        /// Translations attempted by the frontend.
        translations: u64,
        /// L1 VLB hits.
        l1_vlb_hits: u64,
        /// L2 VLB hits.
        l2_vlb_hits: u64,
        /// In-memory VMA-tree walks (both VLBs missed).
        frontend_walks: u64,
        /// Fraction of fixed translation latency spent in the frontend.
        frontend_fraction: f64,
        /// L2 VLB hit ratio (the Fig. 18 explanation for BC).
        l2_vlb_hit_ratio: f64,
        /// Backend (Midgard→physical) page walks performed.
        backend_walks: u64,
    },
    /// RMM range-translation coverage (Fig. 21).
    Rmm {
        /// Translations resolved through a range.
        range_translations: u64,
        /// Translations that fell through to the page table.
        fallback_translations: u64,
        /// Range-TLB hits.
        rlb_hits: u64,
        /// Range-TLB misses (range-table walks).
        rlb_misses: u64,
        /// Ranges registered across all address spaces.
        ranges: u64,
        /// Fraction of TLB-missing translations a range covered.
        range_coverage: f64,
    },
    /// Utopia RestSeg-side behaviour (Fig. 19).
    Utopia {
        /// RestSeg-side lookups performed (every TLB miss pays one).
        lookups: u64,
        /// Lookups resolved by RestSeg residency (no page walk).
        restseg_hits: u64,
        /// Lookups that fell through to the page-table walker.
        flexseg_walks: u64,
        /// Tag-array (RSW) fetches sent through the memory hierarchy.
        rsw_fetches: u64,
        /// TAR-cache hit ratio.
        tar_hit_ratio: f64,
    },
}

/// The translation engine of the simulated machine: enum dispatch over the
/// designs the paper evaluates, holding only the design-specific state —
/// the framework owns the [`Mmu`] and lends it to every call. See the
/// [module documentation](self).
#[derive(Debug)]
pub enum TranslationEngine {
    /// The conventional TLB + page-table path: no state beyond the
    /// framework's [`Mmu`]; every call forwards to it verbatim.
    PageTable,
    /// Midgard intermediate-address-space translation (boxed so the enum
    /// stays two words and `System` keeps its hot-field layout).
    Midgard(Box<MidgardEngine>),
    /// RMM range translation with page-table fallback.
    Rmm(Box<RmmEngine>),
    /// Utopia RestSeg translation with page-table fallback.
    Utopia(Box<UtopiaEngine>),
}

impl TranslationEngine {
    /// Builds the engine selected by `engine` for a kernel allocating
    /// under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the engine cannot work with the kernel's policy: RMM
    /// translates through ranges only [`AllocationPolicy::EagerPaging`]
    /// builds, and Utopia's walkers index the RestSeg only
    /// [`AllocationPolicy::Utopia`] carves out (whose geometry they read).
    pub fn new(engine: EngineConfig, policy: &AllocationPolicy) -> Self {
        match (engine, policy) {
            (EngineConfig::PageTable, _) => TranslationEngine::PageTable,
            (EngineConfig::Midgard(cfg), _) => {
                TranslationEngine::Midgard(Box::new(MidgardEngine::new(cfg)))
            }
            (EngineConfig::Rmm(cfg), AllocationPolicy::EagerPaging) => {
                TranslationEngine::Rmm(Box::new(RmmEngine::new(cfg)))
            }
            (EngineConfig::Utopia(cfg), AllocationPolicy::Utopia(geometry)) => {
                TranslationEngine::Utopia(Box::new(UtopiaEngine::new(cfg, *geometry)))
            }
            (EngineConfig::Rmm(_), policy) => {
                panic!("the RMM engine needs eager paging, not the {policy} policy")
            }
            (EngineConfig::Utopia(_), policy) => {
                panic!("the Utopia engine needs the Utopia policy, not the {policy} policy")
            }
        }
    }

    /// Translates `va` in address space `asid`, composing with the
    /// framework's `mmu`. The returned [`TranslationResult`] carries the
    /// fixed (lookup-structure) latency plus the in-memory accesses the
    /// framework must replay through the cache hierarchy — page-table
    /// walks, VMA-tree and backend walks, range-table walks, or RestSeg
    /// tag fetches, depending on the engine.
    ///
    /// Always inlined: after inlining, the page-table arm is the direct
    /// `Mmu::translate` call on the caller's field behind one predicted
    /// branch, and `#[cold]` keeps the alternative engines' code out of
    /// the hot loop (fat LTO otherwise inlined all four arms into the
    /// simulator's instruction loop, costing measurable sustained MIPS).
    #[inline(always)]
    pub fn translate(&mut self, mmu: &mut Mmu, asid: Asid, va: VirtAddr) -> TranslationResult {
        match self {
            TranslationEngine::PageTable => mmu.translate(asid, va),
            other => other.translate_alternative(mmu, asid, va),
        }
    }

    /// The non-page-table translation paths (see
    /// [`TranslationEngine::translate`]).
    #[cold]
    #[inline(never)]
    fn translate_alternative(
        &mut self,
        mmu: &mut Mmu,
        asid: Asid,
        va: VirtAddr,
    ) -> TranslationResult {
        match self {
            TranslationEngine::PageTable => mmu.translate(asid, va),
            TranslationEngine::Midgard(e) => e.translate(mmu, asid, va),
            TranslationEngine::Rmm(e) => e.translate(mmu, asid, va),
            TranslationEngine::Utopia(e) => e.translate(mmu, asid, va),
        }
    }

    /// Installs a mapping established by the MimicOS fault handler,
    /// together with its engine-specific metadata. Returns the metadata
    /// update accesses to charge as kernel memory traffic.
    #[inline(always)]
    pub fn handle_fault_install(
        &mut self,
        mmu: &mut Mmu,
        asid: Asid,
        mapping: &Mapping,
        info: InstallInfo,
    ) -> WalkAccessList {
        match self {
            TranslationEngine::PageTable => mmu.install_mapping(asid, mapping),
            other => other.install_alternative(mmu, asid, mapping, info),
        }
    }

    /// The non-page-table install paths (split out of the inlined fault
    /// path for the same code-size reason as
    /// [`TranslationEngine::translate_alternative`]).
    #[cold]
    #[inline(never)]
    fn install_alternative(
        &mut self,
        mmu: &mut Mmu,
        asid: Asid,
        mapping: &Mapping,
        info: InstallInfo,
    ) -> WalkAccessList {
        match self {
            TranslationEngine::PageTable => mmu.install_mapping(asid, mapping),
            TranslationEngine::Midgard(e) => e.install(mmu, asid, mapping),
            TranslationEngine::Rmm(_) => mmu.install_mapping(asid, mapping),
            TranslationEngine::Utopia(e) => e.install(mmu, asid, mapping, info),
        }
    }

    /// Tells the engine about a newly mapped virtual region (the `mmap`
    /// path). Midgard registers the VMA with its frontend; the other
    /// engines have no VMA-granular state.
    pub fn note_vma(&mut self, asid: Asid, start: VirtAddr, bytes: u64) {
        if let TranslationEngine::Midgard(e) = self {
            e.note_vma(asid, start, bytes);
        }
    }

    /// Tells the engine about the contiguous ranges the kernel has eagerly
    /// allocated for an address space (RMM's eager paging). Idempotent —
    /// already-registered ranges are updated in place.
    pub fn note_ranges(&mut self, asid: Asid, ranges: &[RangeMapping]) {
        if let TranslationEngine::Rmm(e) = self {
            e.note_ranges(asid, ranges);
        }
    }

    /// Shoots down the translation of one page: removes it from the
    /// `Mmu`'s page table, TLBs and page-walk caches *and* from the
    /// engine's design-specific state, so no stale copy of a reclaimed
    /// mapping can ever be served again. This is the per-page counterpart
    /// of [`TranslationEngine::flush_asid`] — the hook the framework calls
    /// for every victim in a kernel [`mimic_os::InvalidationBatch`].
    ///
    /// Per engine, on top of the `Mmu` removal:
    /// * `PageTable` — nothing further (the `Mmu` *is* its state);
    /// * `Midgard` — the removal is keyed by the page's *Midgard* address
    ///   (the backend knows nothing of raw virtual addresses);
    /// * `Rmm` — the covering range is split around the page in the range
    ///   table and dropped from the range TLB;
    /// * `Utopia` — the page leaves the resident set and the TAR/SF
    ///   caches drop the set's tag lines (the tag array changed).
    pub fn invalidate(
        &mut self,
        mmu: &mut Mmu,
        asid: Asid,
        va: VirtAddr,
        size: PageSize,
    ) -> InvalidationOutcome {
        match self {
            TranslationEngine::PageTable => {
                InvalidationOutcome::from_removed(mmu.remove_mapping(asid, va), 0)
            }
            TranslationEngine::Midgard(e) => e.invalidate(mmu, asid, va),
            TranslationEngine::Rmm(e) => {
                let engine_entries = e.invalidate_page(asid, va, size.bytes());
                InvalidationOutcome::from_removed(mmu.remove_mapping(asid, va), engine_entries)
            }
            TranslationEngine::Utopia(e) => {
                let engine_entries = e.remove_resident(asid, va);
                InvalidationOutcome::from_removed(mmu.remove_mapping(asid, va), engine_entries)
            }
        }
    }

    /// The engine-resident page translations (Utopia's RestSeg residency),
    /// as `(asid, mapping)` pairs. Empty for every other engine. For
    /// invariant checking and debugging.
    pub fn resident_mappings(&self) -> Vec<(Asid, Mapping)> {
        match self {
            TranslationEngine::Utopia(e) => e.resident_mappings().collect(),
            _ => Vec::new(),
        }
    }

    /// The engine-resident translation ranges (RMM's range tables), as
    /// `(asid, range)` pairs. Empty for every other engine. For invariant
    /// checking and debugging.
    pub fn resident_ranges(&self) -> Vec<(Asid, RangeMapping)> {
        match self {
            TranslationEngine::Rmm(e) => e.ranges().collect(),
            _ => Vec::new(),
        }
    }

    /// Flushes the translation state of one address space (teardown):
    /// the `Mmu`'s TLB entries *and* the engine's per-ASID state (Midgard
    /// frontend, RMM ranges, Utopia RestSeg residency), so a later reuse
    /// of the ASID can never inherit the torn-down space's translations.
    /// Returns the number of TLB entries dropped.
    pub fn flush_asid(&mut self, mmu: &mut Mmu, asid: Asid) -> usize {
        match self {
            TranslationEngine::PageTable => {}
            TranslationEngine::Midgard(e) => e.flush_asid(asid),
            TranslationEngine::Rmm(e) => e.flush_asid(asid),
            TranslationEngine::Utopia(e) => e.flush_asid(asid),
        }
        mmu.flush_asid(asid)
    }

    /// Whether the software L0 translation cache in front of the `Mmu`'s
    /// TLB hierarchy may serve this engine. True for every engine whose
    /// steady-state path begins with an unmodified `probe_tlb`/`translate`
    /// on the raw virtual address; false for Midgard, whose backend TLB is
    /// keyed by *Midgard* addresses (an L0 hit would bypass the VLB
    /// frontend and mis-attribute its statistics).
    pub fn uses_l0(&self) -> bool {
        !matches!(self, TranslationEngine::Midgard(_))
    }

    /// The engine's design-specific statistics, or `None` for the
    /// conventional page-table engine. For the Midgard engine the `mmu`
    /// is its Midgard-space backend, whose walk count completes the
    /// frontend/backend breakdown.
    pub fn report(&self, mmu: &Mmu) -> Option<EngineReport> {
        match self {
            TranslationEngine::PageTable => None,
            TranslationEngine::Midgard(e) => Some(e.report(mmu)),
            TranslationEngine::Rmm(e) => Some(e.report()),
            TranslationEngine::Utopia(e) => Some(e.report(mmu)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmu::MmuConfig;
    use crate::pt::PageTableKind;
    use mimic_os::UtopiaConfig;
    use vm_types::{Cycles, PhysAddr};

    const A0: Asid = Asid::KERNEL;

    fn mapping(va: u64, pa: u64, size: PageSize) -> Mapping {
        Mapping {
            vaddr: VirtAddr::new(va),
            paddr: PhysAddr::new(pa),
            page_size: size,
        }
    }

    /// The engine over the kernel policy its design needs (Utopia's
    /// RestSeg at the paper's 8 GiB, 16 ways, 4 KiB pages).
    fn engine(config: EngineConfig) -> (TranslationEngine, Mmu) {
        let policy = match config {
            EngineConfig::Rmm(_) => AllocationPolicy::EagerPaging,
            EngineConfig::Utopia(_) => {
                AllocationPolicy::Utopia(UtopiaConfig::new(8 << 30, 16, PageSize::Size4K))
            }
            EngineConfig::PageTable | EngineConfig::Midgard(_) => AllocationPolicy::BuddyFourK,
        };
        (
            TranslationEngine::new(config, &policy),
            Mmu::new(MmuConfig::small_test(PageTableKind::Radix)),
        )
    }

    #[test]
    fn page_table_engine_matches_direct_mmu() {
        let (mut e, mut engine_mmu) = engine(EngineConfig::PageTable);
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let m = mapping(0x7f00_1000, 0x10_0000_1000, PageSize::Size4K);
        e.handle_fault_install(&mut engine_mmu, A0, &m, InstallInfo::default());
        mmu.install_mapping(A0, &m);
        engine_mmu.flush_tlb();
        mmu.flush_tlb();
        for offset in [0x0u64, 0x234, 0x5678 % 0x1000] {
            let va = VirtAddr::new(0x7f00_1000 + offset);
            assert_eq!(e.translate(&mut engine_mmu, A0, va), mmu.translate(A0, va));
        }
    }

    #[test]
    fn midgard_translates_end_to_end_and_walks_are_charged() {
        let (mut e, mut mmu) = engine(EngineConfig::Midgard(MidgardConfig::paper_baseline()));
        e.note_vma(A0, VirtAddr::new(0x4000_0000), 1 << 24);
        // Cold: no backend mapping yet — the access faults.
        let cold = e.translate(&mut mmu, A0, VirtAddr::new(0x4000_1234));
        assert!(cold.is_fault());
        // The kernel maps the page; install remaps into Midgard space.
        let m = mapping(0x4000_1000, 0x10_0000_1000, PageSize::Size4K);
        let accesses = e.handle_fault_install(&mut mmu, A0, &m, InstallInfo::default());
        assert!(!accesses.is_empty(), "backend table update is charged");
        let warm = e.translate(&mut mmu, A0, VirtAddr::new(0x4000_1234));
        assert_eq!(warm.paddr, Some(PhysAddr::new(0x10_0000_1234)));
        // Frontend latency is part of the fixed cost.
        assert!(warm.fixed_latency >= Cycles::new(1));
        let Some(EngineReport::Midgard { translations, .. }) = e.report(&mmu) else {
            panic!("midgard engine must report midgard stats");
        };
        assert!(translations >= 2);
    }

    #[test]
    fn midgard_huge_pages_stay_aligned_in_midgard_space() {
        let (mut e, mut mmu) = engine(EngineConfig::Midgard(MidgardConfig::paper_baseline()));
        // A VMA whose start is only 4 KiB aligned within its gigabyte.
        e.note_vma(A0, VirtAddr::new(0x4000_0000), 64 << 20);
        let m = mapping(0x4020_0000, 0x10_0020_0000, PageSize::Size2M);
        e.handle_fault_install(&mut mmu, A0, &m, InstallInfo::default());
        let r = e.translate(&mut mmu, A0, VirtAddr::new(0x4020_1234));
        assert_eq!(r.paddr, Some(PhysAddr::new(0x10_0020_1234)));
    }

    #[test]
    fn rmm_ranges_translate_without_page_walks() {
        let (mut e, mut mmu) = engine(EngineConfig::Rmm(RmmConfig::paper_baseline()));
        e.note_ranges(
            A0,
            &[RangeMapping {
                virt_start: VirtAddr::new(0x1000_0000),
                phys_start: PhysAddr::new(0x8000_0000),
                bytes: 64 << 20,
            }],
        );
        // First access misses the TLB and the RLB: the range-table walk is
        // charged, but the MMU performs no page walk.
        let first = e.translate(&mut mmu, A0, VirtAddr::new(0x1000_5000));
        assert_eq!(first.paddr, Some(PhysAddr::new(0x8000_5000)));
        assert!(first.walk.is_some(), "range-table walk charged");
        assert_eq!(mmu.stats().walks.get(), 0);
        // Second access to the same page hits the TLB fill.
        let second = e.translate(&mut mmu, A0, VirtAddr::new(0x1000_5678));
        assert!(second.tlb_hit_level.is_some());
        // An uncovered address falls through to the page table (faults).
        assert!(e
            .translate(&mut mmu, A0, VirtAddr::new(0x9000_0000))
            .is_fault());
        assert_eq!(mmu.stats().walks.get(), 1);
        let Some(EngineReport::Rmm {
            range_translations,
            fallback_translations,
            ..
        }) = e.report(&mmu)
        else {
            panic!("rmm engine must report rmm stats");
        };
        assert_eq!(range_translations, 1);
        assert_eq!(fallback_translations, 1);
    }

    #[test]
    fn flush_asid_tears_down_engine_state_too() {
        // A reused ASID must never inherit the torn-down address space's
        // RestSeg residency (or ranges, or VMAs) — only a fresh fault may
        // re-establish a translation.
        let (mut e, mut mmu) = engine(EngineConfig::Utopia(UtopiaMmuConfig::paper_baseline()));
        let resident = mapping(0x2000_0000, 0x30_0000_0000, PageSize::Size4K);
        e.handle_fault_install(
            &mut mmu,
            A0,
            &resident,
            InstallInfo {
                restseg_placed: true,
            },
        );
        e.flush_asid(&mut mmu, A0);
        // The page table is still authoritative (kernel teardown removes
        // process mappings separately); the RestSeg side must be empty.
        mmu.flush_tlb();
        let r = e.translate(&mut mmu, A0, VirtAddr::new(0x2000_0123));
        let Some(EngineReport::Utopia { restseg_hits, .. }) = e.report(&mmu) else {
            panic!("utopia engine must report utopia stats");
        };
        assert_eq!(restseg_hits, 0, "resident set must be cleared");
        // The translation now resolves through the page-table walk path.
        assert!(r.walk.is_some());
    }

    #[test]
    fn utopia_restseg_eviction_invalidates_the_resident_set() {
        // The PR 4 open end: a page reclaimed out of a RestSeg must fault
        // again instead of RSW-hitting on stale residency.
        let (mut e, mut mmu) = engine(EngineConfig::Utopia(UtopiaMmuConfig::paper_baseline()));
        let resident = mapping(0x2000_0000, 0x30_0000_0000, PageSize::Size4K);
        e.handle_fault_install(
            &mut mmu,
            A0,
            &resident,
            InstallInfo {
                restseg_placed: true,
            },
        );
        mmu.flush_tlb();
        // Sanity: the page resolves through the RestSeg without a walk.
        let walks_before = mmu.stats().walks.get();
        assert_eq!(
            e.translate(&mut mmu, A0, VirtAddr::new(0x2000_0123)).paddr,
            Some(PhysAddr::new(0x30_0000_0123))
        );
        assert_eq!(mmu.stats().walks.get(), walks_before);
        assert_eq!(e.resident_mappings(), vec![(A0, resident)]);
        // The kernel evicts the page from the RestSeg: shootdown.
        let out = e.invalidate(&mut mmu, A0, VirtAddr::new(0x2000_0000), PageSize::Size4K);
        assert!(out.engine_entries_dropped >= 1, "residency must be dropped");
        assert!(out.tlb_entries_dropped > 0, "TLB fill must be dropped");
        assert!(e.resident_mappings().is_empty());
        // The next access faults (page table emptied too) instead of
        // serving the stale RestSeg translation.
        let after = e.translate(&mut mmu, A0, VirtAddr::new(0x2000_0123));
        assert!(after.is_fault(), "reclaimed RestSeg page must fault again");
        let Some(EngineReport::Utopia { restseg_hits, .. }) = e.report(&mmu) else {
            panic!("utopia engine must report utopia stats");
        };
        assert_eq!(restseg_hits, 1, "only the pre-eviction hit");
    }

    #[test]
    fn rmm_invalidate_splits_ranges_and_page_table_drops_the_leaf() {
        let (mut e, mut mmu) = engine(EngineConfig::Rmm(RmmConfig::paper_baseline()));
        e.note_ranges(
            A0,
            &[RangeMapping {
                virt_start: VirtAddr::new(0x1000_0000),
                phys_start: PhysAddr::new(0x8000_0000),
                bytes: 64 << 10,
            }],
        );
        assert_eq!(
            e.translate(&mut mmu, A0, VirtAddr::new(0x1000_5000)).paddr,
            Some(PhysAddr::new(0x8000_5000))
        );
        let out = e.invalidate(&mut mmu, A0, VirtAddr::new(0x1000_5000), PageSize::Size4K);
        assert!(out.engine_entries_dropped >= 1, "range must be split");
        // The victim page no longer translates through a range (it falls
        // through to the — empty — page table and faults)...
        mmu.flush_tlb();
        assert!(e
            .translate(&mut mmu, A0, VirtAddr::new(0x1000_5000))
            .is_fault());
        // ...while both flanks still translate through their ranges.
        assert_eq!(
            e.translate(&mut mmu, A0, VirtAddr::new(0x1000_4000)).paddr,
            Some(PhysAddr::new(0x8000_4000))
        );
        assert_eq!(
            e.translate(&mut mmu, A0, VirtAddr::new(0x1000_6000)).paddr,
            Some(PhysAddr::new(0x8000_6000))
        );
        assert_eq!(e.resident_ranges().len(), 2);
    }

    #[test]
    fn midgard_invalidate_removes_the_backend_mapping() {
        let (mut e, mut mmu) = engine(EngineConfig::Midgard(MidgardConfig::paper_baseline()));
        e.note_vma(A0, VirtAddr::new(0x4000_0000), 1 << 24);
        let m = mapping(0x4000_1000, 0x10_0000_1000, PageSize::Size4K);
        e.handle_fault_install(&mut mmu, A0, &m, InstallInfo::default());
        assert!(!e
            .translate(&mut mmu, A0, VirtAddr::new(0x4000_1234))
            .is_fault());
        let out = e.invalidate(&mut mmu, A0, VirtAddr::new(0x4000_1000), PageSize::Size4K);
        assert!(out.tlb_entries_dropped > 0, "backend TLB entry dropped");
        assert!(
            e.translate(&mut mmu, A0, VirtAddr::new(0x4000_1234))
                .is_fault(),
            "the reclaimed page must fault in the backend again"
        );
        // Invalidating an address outside any VMA is a no-op.
        let noop = e.invalidate(&mut mmu, A0, VirtAddr::new(0x9000_0000), PageSize::Size4K);
        assert_eq!(noop, InvalidationOutcome::default());
    }

    #[test]
    fn utopia_restseg_pages_skip_the_page_walk() {
        let (mut e, mut mmu) = engine(EngineConfig::Utopia(UtopiaMmuConfig::paper_baseline()));
        let resident = mapping(0x2000_0000, 0x30_0000_0000, PageSize::Size4K);
        e.handle_fault_install(
            &mut mmu,
            A0,
            &resident,
            InstallInfo {
                restseg_placed: true,
            },
        );
        let spilled = mapping(0x2000_1000, 0x10_0000_1000, PageSize::Size4K);
        e.handle_fault_install(&mut mmu, A0, &spilled, InstallInfo::default());
        mmu.flush_tlb();
        let walks_before = mmu.stats().walks.get();
        let hit = e.translate(&mut mmu, A0, VirtAddr::new(0x2000_0123));
        assert_eq!(hit.paddr, Some(PhysAddr::new(0x30_0000_0123)));
        assert_eq!(
            mmu.stats().walks.get(),
            walks_before,
            "restseg-resident page must not walk the page table"
        );
        mmu.flush_tlb();
        let miss = e.translate(&mut mmu, A0, VirtAddr::new(0x2000_1234));
        assert_eq!(miss.paddr, Some(PhysAddr::new(0x10_0000_1234)));
        assert!(
            mmu.stats().walks.get() > walks_before,
            "flexseg page pays the page walk"
        );
        let Some(EngineReport::Utopia {
            restseg_hits,
            lookups,
            ..
        }) = e.report(&mmu)
        else {
            panic!("utopia engine must report utopia stats");
        };
        assert_eq!(restseg_hits, 1);
        assert!(lookups >= 2);
    }
}

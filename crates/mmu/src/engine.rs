//! The pluggable translation-engine layer: one enum-dispatched type that
//! lets the *full* simulation pipeline (TLBs, faults, MimicOS, caches,
//! DRAM, reporting) run any of the paper's translation architectures —
//! the conventional TLB + page-table path, Midgard's intermediate address
//! space, RMM's range translation, and Utopia's restrictive segments.
//!
//! # Composition: the framework owns the `Mmu`, the engine borrows it
//!
//! The framework (`virtuoso::System`) owns the [`Mmu`] — the TLB
//! hierarchy, page-walk caches and per-address-space page tables every
//! design composes with — and a [`TranslationEngine`] value holding only
//! the *design-specific* state (VLB frontends, range TLBs, RestSeg
//! walkers). Every operation takes `&mut Mmu`, so:
//!
//! * [`TranslationEngine::PageTable`] is a unit variant: its state *is*
//!   the `Mmu`, and the hot path compiles to the very same direct
//!   `Mmu::translate` call on a `System` field that the PR 3
//!   zero-allocation loop was tuned around (one predicted branch on the
//!   engine tag is the entire dispatch cost — measured, not assumed);
//! * the alternative engines are boxed, keeping the enum two words, and
//!   their code is kept out of the hot instruction loop entirely via
//!   `#[cold]`/`#[inline(never)]` on the dispatch's alternative arm.
//!
//! Dispatch is a `match` on an enum rather than a `dyn` vtable for the
//! same reason: the common arm must inline.
//!
//! # Adding an engine
//!
//! A new virtual-memory design lands as one file: implement the five
//! operations ([`translate`](TranslationEngine::translate),
//! [`handle_fault_install`](TranslationEngine::handle_fault_install),
//! [`context_switch`](TranslationEngine::context_switch),
//! [`flush_asid`](TranslationEngine::flush_asid),
//! [`report`](TranslationEngine::report)) on a struct (composing with the
//! borrowed `Mmu` via [`Mmu::probe_tlb`], [`Mmu::walk_after_miss`] and
//! [`Mmu::external_translation`]), add an [`EngineConfig`] and a
//! [`TranslationEngine`] variant, and every figure harness, multiprogram
//! mix and sweep in the repository can run it end-to-end through
//! `System::run` / `System::run_multiprogram`.

use crate::midgard::{MidgardConfig, MidgardMmu};
use crate::mmu::{Mmu, RemovedTranslation, TranslationResult};
use crate::pt::{WalkAccessList, WalkOutcome};
use crate::rmm::{RmmConfig, RmmMmu};
use crate::utopia_mmu::{UtopiaMmu, UtopiaMmuConfig};
use mimic_os::kernel::RangeMapping;
use mimic_os::{AllocationPolicy, Mapping, UtopiaConfig};
use serde::{Deserialize, Serialize};
use vm_types::{Asid, Counter, PageSize, PhysAddr, VirtAddr};

/// Physical region where the Midgard frontend keeps its per-address-space
/// VMA trees (distinct from the page-table metadata region).
const MIDGARD_FRONTEND_BASE: u64 = 0xE0_0000_0000;
/// Physical region where the per-address-space RMM range tables live.
const RMM_TABLE_BASE: u64 = 0xC0_0000_0000;
/// Physical region where the Utopia RestSeg tag arrays live.
const UTOPIA_TAG_BASE: u64 = 0xD0_0000_0000;
/// Stride between per-ASID metadata regions of the engine structures.
const ENGINE_ASID_STRIDE: u64 = 0x1_0000_0000;

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
    fn from_removed(removed: RemovedTranslation, engine_entries_dropped: usize) -> Self {
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
            let rmm = e.rmm_for(asid);
            for range in ranges {
                rmm.register_range(*range);
            }
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
                let engine_entries = e
                    .rmms
                    .iter_mut()
                    .find(|(a, _)| *a == asid)
                    .map_or(0, |(_, rmm)| rmm.invalidate_page(va, size.bytes()));
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
            TranslationEngine::Utopia(e) => e
                .resident
                .iter()
                .map(|((asid, _), m)| (Asid::new(*asid), *m))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The engine-resident translation ranges (RMM's range tables), as
    /// `(asid, range)` pairs. Empty for every other engine. For invariant
    /// checking and debugging.
    pub fn resident_ranges(&self) -> Vec<(Asid, RangeMapping)> {
        match self {
            TranslationEngine::Rmm(e) => e
                .rmms
                .iter()
                .flat_map(|(asid, rmm)| rmm.ranges().map(move |r| (*asid, *r)))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Notifies the engine of a context switch into `to`, applying the
    /// configured TLB policy. Returns the number of entries dropped.
    pub fn context_switch(&mut self, mmu: &mut Mmu, to: Asid) -> usize {
        mmu.context_switch(to)
    }

    /// Flushes the translation state of one address space (teardown):
    /// the `Mmu`'s TLB entries *and* the engine's per-ASID state (Midgard
    /// frontend, RMM ranges, Utopia RestSeg residency), so a later reuse
    /// of the ASID can never inherit the torn-down space's translations.
    /// Returns the number of TLB entries dropped.
    pub fn flush_asid(&mut self, mmu: &mut Mmu, asid: Asid) -> usize {
        match self {
            TranslationEngine::PageTable => {}
            TranslationEngine::Midgard(e) => e.frontends.retain(|(a, _)| *a != asid),
            TranslationEngine::Rmm(e) => e.rmms.retain(|(a, _)| *a != asid),
            TranslationEngine::Utopia(e) => e.flush_asid_resident(asid),
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

// ---------------------------------------------------------------------------
// Midgard
// ---------------------------------------------------------------------------

/// Midgard end to end: a per-address-space VLB frontend (virtual → Midgard
/// at VMA granularity) in front of the framework's [`Mmu`], which the
/// engine repurposes as its *backend*, keyed by Midgard addresses. The
/// backend's TLB models cached Midgard→physical translations (the paper
/// defers these walks to cache-miss time; here a backend-TLB hit plays
/// that "no walk needed" role) and its page table is the Midgard→physical
/// structure the backend walker descends on misses.
#[derive(Debug)]
pub struct MidgardEngine {
    config: MidgardConfig,
    /// One VLB frontend per address space, created on first use.
    frontends: Vec<(Asid, MidgardMmu)>,
    /// Fixed frontend cycles actually paid by end-to-end translations
    /// (VLB probes + VMA-tree walk latency).
    frontend_cycles: u64,
    /// Fixed backend cycles actually paid (the borrowed backend `Mmu`'s
    /// TLB/PWC probe latency). The memory-hierarchy latency of charged
    /// backend walk accesses is simulated — and attributed — by the
    /// framework, so the breakdown below covers the fixed lookup costs
    /// both sides pay on every translation.
    backend_cycles: u64,
}

impl MidgardEngine {
    /// Builds the engine.
    pub fn new(config: MidgardConfig) -> Self {
        MidgardEngine {
            config,
            frontends: Vec::new(),
            frontend_cycles: 0,
            backend_cycles: 0,
        }
    }

    fn frontend_for(&mut self, asid: Asid) -> &mut MidgardMmu {
        if let Some(idx) = self.frontends.iter().position(|(a, _)| *a == asid) {
            return &mut self.frontends[idx].1;
        }
        let base =
            PhysAddr::new(MIDGARD_FRONTEND_BASE + u64::from(asid.raw()) * ENGINE_ASID_STRIDE);
        self.frontends
            .push((asid, MidgardMmu::new(self.config, base)));
        &mut self.frontends.last_mut().expect("just pushed").1
    }

    /// Registers a VMA with the address space's frontend.
    pub fn note_vma(&mut self, asid: Asid, start: VirtAddr, bytes: u64) {
        self.frontend_for(asid).register_vma(start, bytes);
    }

    /// Shoots a page out of the backend. The backend's page table and TLB
    /// are keyed by *Midgard* addresses, so the victim's virtual address is
    /// first remapped through the address space's frontend; a page outside
    /// any registered VMA was never installed and needs no work. The
    /// frontend VMA itself stays registered — reclaim unmaps pages, not
    /// regions.
    fn invalidate(&mut self, backend: &mut Mmu, asid: Asid, va: VirtAddr) -> InvalidationOutcome {
        let Some(mva) = self
            .frontends
            .iter()
            .find(|(a, _)| *a == asid)
            .and_then(|(_, frontend)| frontend.midgard_of(va))
        else {
            return InvalidationOutcome::default();
        };
        InvalidationOutcome::from_removed(backend.remove_mapping(asid, VirtAddr::new(mva)), 0)
    }

    fn translate(&mut self, backend: &mut Mmu, asid: Asid, va: VirtAddr) -> TranslationResult {
        let config = self.config;
        let frontend = self.frontend_for(asid);
        let Some((midgard_addr, frontend_latency, frontend_accesses)) =
            frontend.translate_frontend(va)
        else {
            // No VMA names this address: the frontend cannot even form a
            // Midgard address. MimicOS decides (map or segfault) through
            // the ordinary fault path.
            return TranslationResult {
                paddr: None,
                mapping: None,
                tlb_hit_level: None,
                fixed_latency: config.l1_vlb_latency,
                walk: None,
            };
        };
        self.frontend_cycles += frontend_latency.raw();
        let mva = VirtAddr::new(midgard_addr);
        let mut result = backend.translate(asid, mva);
        self.backend_cycles += result.fixed_latency.raw();
        result.fixed_latency += frontend_latency;
        if !frontend_accesses.is_empty() {
            // Both VLBs missed: the frontend walked its in-memory VMA tree.
            // Its node accesses are charged ahead of whatever the backend
            // walked (serial — the backend walk needs the Midgard address).
            let mut combined = frontend_accesses;
            match result.walk.take() {
                Some(walk) => {
                    for pa in &walk.accesses {
                        combined.push(*pa);
                    }
                    result.walk = Some(WalkOutcome {
                        mapping: walk.mapping,
                        accesses: combined,
                        parallel: false,
                    });
                }
                None => {
                    result.walk = Some(WalkOutcome {
                        mapping: result.mapping,
                        accesses: combined,
                        parallel: false,
                    });
                }
            }
        }
        result
    }

    /// Remaps a kernel-established mapping into the Midgard space and
    /// installs it in the backend.
    fn install(&mut self, backend: &mut Mmu, asid: Asid, mapping: &Mapping) -> WalkAccessList {
        let frontend = self.frontend_for(asid);
        let mva = match frontend.midgard_of(mapping.vaddr) {
            Some(mva) => mva,
            // Mapping outside any registered VMA (e.g. a direct API user
            // installing without `note_vma`): register a covering VMA on
            // the fly. Cover at least a 2 MiB-aligned window, not just
            // this page — page-by-page installs would otherwise create
            // one VMA per page and the frontend's linear VMA scan (and
            // its per-VMA VLB entries) would degrade quadratically.
            // Over-covering is harmless: frontend coverage only forms the
            // Midgard address; unmapped pages still fault in the backend.
            None => {
                const WINDOW: u64 = 2 << 20;
                let bytes = mapping.page_size.bytes().max(WINDOW);
                let start = VirtAddr::new(mapping.vaddr.raw() & !(bytes - 1));
                frontend.register_vma(start, bytes);
                frontend
                    .midgard_of(mapping.vaddr)
                    .expect("vma registered above")
            }
        };
        debug_assert_eq!(
            mva % mapping.page_size.bytes(),
            0,
            "register_vma preserves page alignment in the Midgard space"
        );
        let backend_mapping = Mapping {
            vaddr: VirtAddr::new(mva),
            paddr: mapping.paddr,
            page_size: mapping.page_size,
        };
        backend.install_mapping(asid, &backend_mapping)
    }

    fn report(&self, backend: &Mmu) -> EngineReport {
        let mut translations = 0u64;
        let mut l1 = 0u64;
        let mut l2 = 0u64;
        let mut walks = 0u64;
        for (_, frontend) in &self.frontends {
            let s = frontend.stats();
            translations += s.translations.get();
            l1 += s.l1_vlb_hits.get();
            l2 += s.l2_vlb_hits.get();
            walks += s.frontend_walks.get();
        }
        // Both sides of the fraction are the fixed lookup cycles the
        // *end-to-end* run actually paid (not the standalone MidgardMmu
        // backend model, which charges a constant per translation).
        let fixed_total = self.frontend_cycles + self.backend_cycles;
        let l2_lookups = walks + l2;
        EngineReport::Midgard {
            translations,
            l1_vlb_hits: l1,
            l2_vlb_hits: l2,
            frontend_walks: walks,
            frontend_fraction: if fixed_total == 0 {
                0.0
            } else {
                self.frontend_cycles as f64 / fixed_total as f64
            },
            l2_vlb_hit_ratio: if l2_lookups == 0 {
                0.0
            } else {
                l2 as f64 / l2_lookups as f64
            },
            backend_walks: backend.stats().walks.get(),
        }
    }
}

// ---------------------------------------------------------------------------
// RMM
// ---------------------------------------------------------------------------

/// RMM end to end: per-address-space range TLBs + range tables consulted
/// on L1/L2 TLB misses; addresses no range covers fall through to the
/// conventional page-table walk of the framework's [`Mmu`].
#[derive(Debug)]
pub struct RmmEngine {
    config: RmmConfig,
    /// One range TLB/table pair per address space, created on first use.
    rmms: Vec<(Asid, RmmMmu)>,
}

impl RmmEngine {
    /// Builds the engine.
    pub fn new(config: RmmConfig) -> Self {
        RmmEngine {
            config,
            rmms: Vec::new(),
        }
    }

    fn rmm_for(&mut self, asid: Asid) -> &mut RmmMmu {
        if let Some(idx) = self.rmms.iter().position(|(a, _)| *a == asid) {
            return &mut self.rmms[idx].1;
        }
        let base = PhysAddr::new(RMM_TABLE_BASE + u64::from(asid.raw()) * ENGINE_ASID_STRIDE);
        self.rmms.push((asid, RmmMmu::new(self.config, base)));
        &mut self.rmms.last_mut().expect("just pushed").1
    }

    fn translate(&mut self, mmu: &mut Mmu, asid: Asid, va: VirtAddr) -> TranslationResult {
        match mmu.probe_tlb(asid, va) {
            Ok(hit) => hit,
            Err(fixed) => {
                let rlb_latency = self.config.rlb_latency;
                match self.rmm_for(asid).translate(va) {
                    Some((paddr, latency, accesses)) => {
                        // Covered by a range: translate without a page walk
                        // and fill the TLBs with the page so the next
                        // access hits there (the RLB is probed alongside
                        // the L2 TLB in the paper's design).
                        let page = va.page_base(PageSize::Size4K);
                        let mapping = Mapping {
                            vaddr: page,
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
                            fixed_latency: fixed + latency,
                            walk,
                        }
                    }
                    // No range covers the address (demand-paged region or
                    // exhausted eager allocation): conventional page walk,
                    // with the wasted RLB probe latency on top.
                    None => mmu.walk_after_miss(asid, va, fixed + rlb_latency),
                }
            }
        }
    }

    fn report(&self) -> EngineReport {
        let mut range = 0u64;
        let mut fallback = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut ranges = 0u64;
        for (_, rmm) in &self.rmms {
            range += rmm.range_translations.get();
            fallback += rmm.fallback_translations.get();
            hits += rmm.rlb().hits.get();
            misses += rmm.rlb().misses.get();
            ranges += rmm.range_count() as u64;
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

// ---------------------------------------------------------------------------
// Utopia
// ---------------------------------------------------------------------------

/// Utopia end to end: on a TLB miss the RestSeg walkers (set-index
/// computation, TAR/SF caches, tag-array fetches) run first; pages the
/// kernel placed in a RestSeg resolve right there, everything else pays
/// the conventional page-table walk on top of the RestSeg lookup — the
/// cost structure Fig. 19 sweeps.
#[derive(Debug)]
pub struct UtopiaEngine {
    /// The RestSeg-side hardware (set-index + TAR/SF caches).
    utopia: UtopiaMmu,
    /// Pages resident in a RestSeg, keyed by `(asid, page base >> 12)` —
    /// fed by the kernel's placement decisions through [`InstallInfo`].
    /// The shift matters: page bases have twelve zero low bits, and the
    /// Fx hash keeps its entropy in the *high* bits while the hash map
    /// picks buckets from the *low* bits — unshifted keys collapse the
    /// whole resident set into a few probe chains (a measured ~40% of
    /// the Utopia cell's host time before the rekey).
    resident: vm_types::FxHashMap<(u16, u64), Mapping>,
    restseg_hits: Counter,
    rsw_fetches: Counter,
}

impl UtopiaEngine {
    /// Builds the engine over the kernel's RestSeg `geometry`.
    pub fn new(config: UtopiaMmuConfig, geometry: UtopiaConfig) -> Self {
        // Pre-size the resident map for a full RestSeg of base pages so
        // steady-state installs never pause to rehash mid-run.
        let resident_capacity = (geometry.size_bytes / 4096).min(1 << 20) as usize;
        UtopiaEngine {
            utopia: UtopiaMmu::new(config, geometry, PhysAddr::new(UTOPIA_TAG_BASE)),
            resident: vm_types::FxHashMap::with_capacity_and_hasher(
                resident_capacity,
                Default::default(),
            ),
            restseg_hits: Counter::new(),
            rsw_fetches: Counter::new(),
        }
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

    /// Drops `va`'s page from the RestSeg resident set (all sizes) and
    /// the TAR/SF caches. Returns the number of engine entries dropped.
    fn remove_resident(&mut self, asid: Asid, va: VirtAddr) -> usize {
        let mut engine_entries = 0;
        for probe in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            let key = (asid.raw(), va.page_base(probe).raw() >> 12);
            if matches!(self.resident.get(&key), Some(m) if m.page_size == probe) {
                self.resident.remove(&key);
                engine_entries += 1 + self.utopia.invalidate(va);
            }
        }
        engine_entries
    }

    /// Drops every RestSeg-resident page of one address space (teardown).
    fn flush_asid_resident(&mut self, asid: Asid) {
        self.resident.retain(|(a, _), _| *a != asid.raw());
    }

    fn translate(&mut self, mmu: &mut Mmu, asid: Asid, va: VirtAddr) -> TranslationResult {
        match mmu.probe_tlb(asid, va) {
            Ok(hit) => hit,
            Err(fixed) => {
                // The hardware always pays the RestSeg lookup first.
                let rsw = self.utopia.translate(va);
                self.rsw_fetches.add(rsw.metadata_accesses.len() as u64);
                let fixed = fixed + rsw.latency;
                if let Some(mapping) = self.resident_mapping(asid, va) {
                    self.restseg_hits.inc();
                    mmu.external_translation(asid, &mapping);
                    let walk = if rsw.metadata_accesses.is_empty() {
                        None // TAR/SF caches absorbed the tag lookup.
                    } else {
                        Some(WalkOutcome {
                            mapping: Some(mapping),
                            accesses: rsw.metadata_accesses,
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
                // Not RestSeg-resident: conventional walk, with the RSW
                // tag fetches charged ahead of the page-table accesses.
                let mut result = mmu.walk_after_miss(asid, va, fixed);
                if !rsw.metadata_accesses.is_empty() {
                    if let Some(walk) = result.walk.take() {
                        // RSW tag fetches precede the page-table accesses;
                        // reuse the RSW list's buffer instead of copying.
                        let mut combined = rsw.metadata_accesses;
                        for pa in &walk.accesses {
                            combined.push(*pa);
                        }
                        result.walk = Some(WalkOutcome {
                            mapping: walk.mapping,
                            accesses: combined,
                            parallel: walk.parallel,
                        });
                    }
                }
                result
            }
        }
    }

    /// Installs a fault-time mapping; RestSeg placements (flagged by the
    /// kernel) additionally become resident on the RestSeg side.
    fn install(
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

    fn report(&self, mmu: &Mmu) -> EngineReport {
        EngineReport::Utopia {
            lookups: self.utopia.lookups.get(),
            restseg_hits: self.restseg_hits.get(),
            flexseg_walks: mmu.stats().walks.get(),
            rsw_fetches: self.rsw_fetches.get(),
            tar_hit_ratio: self.utopia.tar_hit_ratio(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmu::MmuConfig;
    use crate::pt::PageTableKind;
    use vm_types::Cycles;

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

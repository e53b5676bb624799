//! Midgard (Gupta et al., ISCA 2021): an intermediate address space that
//! splits translation into a *frontend* (virtual → Midgard address, at VMA
//! granularity, cached by two levels of VMA lookaside buffers) and a
//! *backend* (Midgard → physical, performed lazily with a radix-like table
//! at cache-miss time).
//!
//! The paper's Use Case 3 (Fig. 17) measures how much of the total
//! translation latency each side contributes, and Fig. 18 explains BC's
//! outlier behaviour by its VMA-size distribution: one huge VMA plus ~147
//! small ones that thrash the 16-entry L2 VLB (3 % hit ratio).

use crate::engine::{EngineReport, InvalidationOutcome, ENGINE_ASID_STRIDE};
use crate::mmu::{Mmu, TranslationResult};
use crate::pt::{WalkAccessList, WalkOutcome};
use mimic_os::Mapping;
use serde::{Deserialize, Serialize};
use vm_types::{Asid, Counter, Cycles, PhysAddr, VirtAddr};

/// Physical region where the frontend keeps its per-address-space VMA
/// trees (distinct from the page-table metadata region).
const FRONTEND_BASE: u64 = 0xE0_0000_0000;

/// Configuration of the Midgard frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MidgardConfig {
    /// L1 VMA-lookaside-buffer entries (the paper: 64, 1 cycle).
    pub l1_vlb_entries: usize,
    /// L1 VLB latency.
    pub l1_vlb_latency: Cycles,
    /// L2 range VLB entries (the paper: 16, 4 cycles).
    pub l2_vlb_entries: usize,
    /// L2 VLB latency.
    pub l2_vlb_latency: Cycles,
}

impl MidgardConfig {
    /// The paper's Table 4 configuration.
    pub fn paper_baseline() -> Self {
        MidgardConfig {
            l1_vlb_entries: 64,
            l1_vlb_latency: Cycles::new(1),
            l2_vlb_entries: 16,
            l2_vlb_latency: Cycles::new(4),
        }
    }
}

impl Default for MidgardConfig {
    fn default() -> Self {
        MidgardConfig::paper_baseline()
    }
}

/// One VMA registered with a frontend: a virtual range mapped to a
/// contiguous region of the Midgard address space.
#[derive(Debug, Clone, Copy)]
struct MidgardVma {
    virt_start: VirtAddr,
    bytes: u64,
    midgard_start: u64,
}

impl MidgardVma {
    fn covers(&self, va: VirtAddr) -> bool {
        va >= self.virt_start && va.raw() < self.virt_start.raw() + self.bytes
    }
}

/// One address space's frontend: its VMAs, both VLBs (keyed by VMA index,
/// LRU by `clock`) and its counters, which leave the report with the
/// address space.
#[derive(Debug)]
struct Frontend {
    vmas: Vec<MidgardVma>,
    l1_vlb: Vec<(usize, u64)>,
    l2_vlb: Vec<(usize, u64)>,
    clock: u64,
    next_midgard: u64,
    metadata_base: u64,
    translations: Counter,
    l1_vlb_hits: Counter,
    l2_vlb_hits: Counter,
    frontend_walks: Counter,
}

impl Frontend {
    fn new(metadata_base: u64) -> Self {
        Frontend {
            vmas: Vec::new(),
            l1_vlb: Vec::new(),
            l2_vlb: Vec::new(),
            clock: 0,
            next_midgard: 1 << 40,
            metadata_base,
            translations: Counter::new(),
            l1_vlb_hits: Counter::new(),
            l2_vlb_hits: Counter::new(),
            frontend_walks: Counter::new(),
        }
    }

    /// Assigns the VMA a contiguous Midgard range that preserves its
    /// start's offset within 1 GiB (`midgard_start ≡ virt_start (mod 1
    /// GiB)`), so any page-aligned virtual address stays page-aligned — at
    /// every supported page size — after the linear virtual→Midgard remap,
    /// and the backend table can be keyed by page base.
    fn register_vma(&mut self, virt_start: VirtAddr, bytes: u64) {
        const GIB: u64 = 1 << 30;
        let aligned = self.next_midgard.div_ceil(GIB) * GIB;
        let midgard_start = aligned + (virt_start.raw() & (GIB - 1));
        self.next_midgard = midgard_start + bytes.max(4096);
        self.vmas.push(MidgardVma {
            virt_start,
            bytes,
            midgard_start,
        });
    }

    /// The Midgard address of `va`, or `None` when no registered VMA covers
    /// it. A pure lookup: no VLB state or counter is touched.
    fn midgard_of(&self, va: VirtAddr) -> Option<u64> {
        self.vmas
            .iter()
            .find(|v| v.covers(va))
            .map(|v| v.midgard_start + (va.raw() - v.virt_start.raw()))
    }

    fn probe_vlb(vlb: &mut [(usize, u64)], idx: usize, clock: u64) -> bool {
        if let Some(entry) = vlb.iter_mut().find(|(i, _)| *i == idx) {
            entry.1 = clock;
            true
        } else {
            false
        }
    }

    fn fill_vlb(vlb: &mut Vec<(usize, u64)>, capacity: usize, idx: usize, clock: u64) {
        if vlb.iter().any(|(i, _)| *i == idx) {
            return;
        }
        if vlb.len() >= capacity {
            if let Some(victim) = vlb
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .map(|(i, _)| i)
            {
                vlb.swap_remove(victim);
            }
        }
        vlb.push((idx, clock));
    }

    /// VLB probes plus the VMA-tree walk when both miss. Returns the
    /// Midgard address, the frontend latency and the VMA-tree node
    /// accesses (empty on a VLB hit), or `None` when no VMA covers `va`.
    fn translate(
        &mut self,
        config: &MidgardConfig,
        va: VirtAddr,
    ) -> Option<(u64, Cycles, WalkAccessList)> {
        self.clock += 1;
        self.translations.inc();
        let idx = self.vmas.iter().position(|v| v.covers(va))?;
        let vma = self.vmas[idx];

        let mut latency = config.l1_vlb_latency;
        let mut accesses = WalkAccessList::new();
        if Self::probe_vlb(&mut self.l1_vlb, idx, self.clock) {
            self.l1_vlb_hits.inc();
        } else {
            latency += config.l2_vlb_latency;
            if Self::probe_vlb(&mut self.l2_vlb, idx, self.clock) {
                self.l2_vlb_hits.inc();
            } else {
                // Walk the in-memory VMA B-tree: log2(n) node accesses.
                self.frontend_walks.inc();
                let depth = ((self.vmas.len().max(2) as f64).log2().ceil() as u64).max(1);
                for level in 0..depth {
                    accesses.push(PhysAddr::new(
                        self.metadata_base + level * 64 + (idx as u64 % 16) * 1024,
                    ));
                    latency += Cycles::new(20);
                }
                Self::fill_vlb(&mut self.l2_vlb, config.l2_vlb_entries, idx, self.clock);
            }
            Self::fill_vlb(&mut self.l1_vlb, config.l1_vlb_entries, idx, self.clock);
        }
        Some((
            vma.midgard_start + (va.raw() - vma.virt_start.raw()),
            latency,
            accesses,
        ))
    }
}

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
    frontends: Vec<(Asid, Frontend)>,
    /// Fixed frontend cycles actually paid by end-to-end translations
    /// (VLB probes + VMA-tree walk latency).
    frontend_cycles: u64,
    /// Fixed backend cycles actually paid (the borrowed backend `Mmu`'s
    /// TLB/PWC probe latency). The memory-hierarchy latency of charged
    /// backend walk accesses is simulated — and attributed — by the
    /// framework, so the breakdown covers the fixed lookup costs both
    /// sides pay on every translation.
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

    fn frontend_for(&mut self, asid: Asid) -> &mut Frontend {
        if let Some(idx) = self.frontends.iter().position(|(a, _)| *a == asid) {
            return &mut self.frontends[idx].1;
        }
        let base = FRONTEND_BASE + u64::from(asid.raw()) * ENGINE_ASID_STRIDE;
        self.frontends.push((asid, Frontend::new(base)));
        &mut self.frontends.last_mut().expect("just pushed").1
    }

    /// Registers a VMA with the address space's frontend.
    pub fn note_vma(&mut self, asid: Asid, start: VirtAddr, bytes: u64) {
        self.frontend_for(asid).register_vma(start, bytes);
    }

    /// Drops the address space's frontend and its counters (teardown).
    pub(crate) fn flush_asid(&mut self, asid: Asid) {
        self.frontends.retain(|(a, _)| *a != asid);
    }

    /// Shoots a page out of the backend. The backend's page table and TLB
    /// are keyed by *Midgard* addresses, so the victim's virtual address is
    /// first remapped through the address space's frontend; a page outside
    /// any registered VMA was never installed and needs no work. The
    /// frontend VMA itself stays registered — reclaim unmaps pages, not
    /// regions.
    pub(crate) fn invalidate(
        &mut self,
        backend: &mut Mmu,
        asid: Asid,
        va: VirtAddr,
    ) -> InvalidationOutcome {
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

    pub(crate) fn translate(
        &mut self,
        backend: &mut Mmu,
        asid: Asid,
        va: VirtAddr,
    ) -> TranslationResult {
        let config = self.config;
        let Some((midgard_addr, frontend_latency, frontend_accesses)) =
            self.frontend_for(asid).translate(&config, va)
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
        let mut result = backend.translate(asid, VirtAddr::new(midgard_addr));
        self.backend_cycles += result.fixed_latency.raw();
        result.fixed_latency += frontend_latency;
        if !frontend_accesses.is_empty() {
            // Both VLBs missed: the frontend walked its in-memory VMA tree.
            // Its node accesses are charged ahead of whatever the backend
            // walked (serial — the backend walk needs the Midgard address).
            let mut accesses = frontend_accesses;
            let mapping = match result.walk.take() {
                Some(walk) => {
                    for pa in &walk.accesses {
                        accesses.push(*pa);
                    }
                    walk.mapping
                }
                None => result.mapping,
            };
            result.walk = Some(WalkOutcome {
                mapping,
                accesses,
                parallel: false,
            });
        }
        result
    }

    /// Remaps a kernel-established mapping into the Midgard space and
    /// installs it in the backend.
    pub(crate) fn install(
        &mut self,
        backend: &mut Mmu,
        asid: Asid,
        mapping: &Mapping,
    ) -> WalkAccessList {
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

    /// The Fig. 17 / Fig. 18 breakdown: the frontends' counters summed over
    /// the live address spaces, and the fixed lookup cycles the end-to-end
    /// run paid on each side.
    pub(crate) fn report(&self, backend: &Mmu) -> EngineReport {
        let mut translations = 0u64;
        let mut l1 = 0u64;
        let mut l2 = 0u64;
        let mut walks = 0u64;
        for (_, frontend) in &self.frontends {
            translations += frontend.translations.get();
            l1 += frontend.l1_vlb_hits.get();
            l2 += frontend.l2_vlb_hits.get();
            walks += frontend.frontend_walks.get();
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmu::MmuConfig;
    use crate::pt::PageTableKind;

    const A0: Asid = Asid::KERNEL;

    fn engine() -> (MidgardEngine, Mmu) {
        (
            MidgardEngine::new(MidgardConfig::paper_baseline()),
            Mmu::new(MmuConfig::small_test(PageTableKind::Radix)),
        )
    }

    fn report(e: &MidgardEngine, backend: &Mmu) -> (u64, u64, f64, f64) {
        let EngineReport::Midgard {
            l1_vlb_hits,
            frontend_walks,
            frontend_fraction,
            l2_vlb_hit_ratio,
            ..
        } = e.report(backend)
        else {
            unreachable!("the Midgard engine reports Midgard stats");
        };
        (
            l1_vlb_hits,
            frontend_walks,
            frontend_fraction,
            l2_vlb_hit_ratio,
        )
    }

    /// Mutant `tests/mutants/04-midgard-skips-the-l1-vlb-fill.patch` (no
    /// L1 fill after an L1 miss) fails here: 0 L1 hits.
    #[test]
    fn few_large_vmas_are_served_by_the_l1_vlb() {
        let (mut e, mut backend) = engine();
        e.note_vma(A0, VirtAddr::new(0x1000_0000), 1 << 30);
        // Warm-up translation, then repeated hits.
        for i in 0..100u64 {
            e.translate(&mut backend, A0, VirtAddr::new(0x1000_0000 + i * 0x10_000));
        }
        let (l1_vlb_hits, _, frontend_fraction, _) = report(&e, &backend);
        assert!(l1_vlb_hits >= 99);
        assert!(frontend_fraction < 0.5);
    }

    #[test]
    fn many_small_vmas_thrash_the_vlbs() {
        let (mut e, mut backend) = engine();
        // 147 small VMAs (the BC profile of Fig. 18).
        for i in 0..147u64 {
            e.note_vma(A0, VirtAddr::new(0x2000_0000 + i * 0x100_0000), 64 * 1024);
        }
        // Round-robin accesses across all VMAs defeat a 16-entry L2 VLB.
        for round in 0..20u64 {
            for i in 0..147u64 {
                let va = VirtAddr::new(0x2000_0000 + i * 0x100_0000 + round * 64);
                e.translate(&mut backend, A0, va);
            }
        }
        let (_, frontend_walks, _, l2_vlb_hit_ratio) = report(&e, &backend);
        assert!(l2_vlb_hit_ratio < 0.2);
        assert!(frontend_walks > 1000);
    }

    #[test]
    fn translation_preserves_offsets_within_the_vma() {
        let (mut e, _) = engine();
        e.note_vma(A0, VirtAddr::new(0x4000_0000), 1 << 24);
        let config = e.config;
        let frontend = e.frontend_for(A0);
        let (midgard_addr, _, _) = frontend
            .translate(&config, VirtAddr::new(0x4000_1234))
            .unwrap();
        assert_eq!(midgard_addr, frontend.vmas[0].midgard_start + 0x1234);
    }

    #[test]
    fn uncovered_addresses_return_none() {
        let (mut e, mut backend) = engine();
        e.note_vma(A0, VirtAddr::new(0x4000_0000), 4096);
        let r = e.translate(&mut backend, A0, VirtAddr::new(0x9000_0000));
        assert!(r.is_fault() && r.walk.is_none());
        assert_eq!(
            backend.stats().translations.get(),
            0,
            "no Midgard address was formed, so the backend was never asked"
        );
    }

    #[test]
    fn distinct_vmas_get_distinct_midgard_ranges() {
        let (mut e, _) = engine();
        e.note_vma(A0, VirtAddr::new(0x1000_0000), 1 << 20);
        e.note_vma(A0, VirtAddr::new(0x9000_0000), 1 << 20);
        let vmas = &e.frontend_for(A0).vmas;
        assert!(vmas[1].midgard_start >= vmas[0].midgard_start + (1 << 20));
    }
}

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

use crate::pt::WalkAccessList;
use serde::{Deserialize, Serialize};
use vm_types::{Counter, Cycles, PhysAddr, VirtAddr};

/// Configuration of the Midgard MMU.
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
    /// Levels of the backend (Midgard → physical) radix table (the paper: 6).
    pub backend_levels: usize,
}

impl MidgardConfig {
    /// The paper's Table 4 configuration.
    pub fn paper_baseline() -> Self {
        MidgardConfig {
            l1_vlb_entries: 64,
            l1_vlb_latency: Cycles::new(1),
            l2_vlb_entries: 16,
            l2_vlb_latency: Cycles::new(4),
            backend_levels: 6,
        }
    }
}

impl Default for MidgardConfig {
    fn default() -> Self {
        MidgardConfig::paper_baseline()
    }
}

/// One VMA registered with the frontend: a virtual range mapped to a
/// contiguous region of the Midgard address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MidgardVma {
    /// Virtual start.
    pub virt_start: VirtAddr,
    /// Length in bytes.
    pub bytes: u64,
    /// Start of the corresponding Midgard-address range.
    pub midgard_start: u64,
}

impl MidgardVma {
    fn covers(&self, va: VirtAddr) -> bool {
        va >= self.virt_start && va.raw() < self.virt_start.raw() + self.bytes
    }
}

/// Statistics for the Midgard MMU, split by translation side.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MidgardStats {
    /// Translations performed.
    pub translations: Counter,
    /// L1 VLB hits.
    pub l1_vlb_hits: Counter,
    /// L2 VLB hits.
    pub l2_vlb_hits: Counter,
    /// Frontend walks of the in-memory VMA B-tree.
    pub frontend_walks: Counter,
    /// Total frontend latency in cycles.
    pub frontend_cycles: u64,
    /// Total backend latency in cycles (charged by the framework from the
    /// backend accesses it replays; this field accumulates the fixed part).
    pub backend_cycles: u64,
}

impl MidgardStats {
    /// Fraction of the total (frontend + backend) latency spent in the
    /// frontend — the quantity plotted in Fig. 17.
    pub fn frontend_fraction(&self) -> f64 {
        let total = self.frontend_cycles + self.backend_cycles;
        if total == 0 {
            0.0
        } else {
            self.frontend_cycles as f64 / total as f64
        }
    }

    /// L2 VLB hit ratio.
    pub fn l2_vlb_hit_ratio(&self) -> f64 {
        let lookups = self.frontend_walks.get() + self.l2_vlb_hits.get();
        if lookups == 0 {
            0.0
        } else {
            self.l2_vlb_hits.get() as f64 / lookups as f64
        }
    }
}

/// Result of one Midgard translation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MidgardTranslation {
    /// The Midgard (intermediate) address.
    pub midgard_addr: u64,
    /// Frontend latency (VLB probes, plus the VMA-tree walk when both VLBs
    /// miss).
    pub frontend_latency: Cycles,
    /// In-memory accesses performed by the frontend VMA-tree walk.
    pub frontend_accesses: WalkAccessList,
    /// In-memory accesses performed by the backend (Midgard → physical)
    /// walk; charged only when the access misses in the cache hierarchy.
    pub backend_accesses: WalkAccessList,
}

/// The Midgard MMU model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MidgardMmu {
    config: MidgardConfig,
    vmas: Vec<MidgardVma>,
    l1_vlb: Vec<(usize, u64)>,
    l2_vlb: Vec<(usize, u64)>,
    clock: u64,
    next_midgard: u64,
    metadata_base: u64,
    stats: MidgardStats,
}

impl MidgardMmu {
    /// Creates a Midgard MMU; frontend/backend tables live at
    /// `metadata_base`.
    pub fn new(config: MidgardConfig, metadata_base: PhysAddr) -> Self {
        MidgardMmu {
            config,
            vmas: Vec::new(),
            l1_vlb: Vec::new(),
            l2_vlb: Vec::new(),
            clock: 0,
            next_midgard: 1 << 40,
            metadata_base: metadata_base.raw(),
            stats: MidgardStats::default(),
        }
    }

    /// Statistics.
    pub fn stats(&self) -> &MidgardStats {
        &self.stats
    }

    /// Registers a VMA with the frontend, assigning it a contiguous Midgard
    /// range. Returns the created descriptor.
    ///
    /// The assigned range preserves the VMA start's offset within 1 GiB
    /// (`midgard_start ≡ virt_start (mod 1 GiB)`), so any page-aligned
    /// virtual address stays page-aligned — at every supported page size —
    /// after the linear virtual→Midgard remap. The end-to-end engine
    /// relies on this to key its Midgard-space backend table by page base.
    pub fn register_vma(&mut self, virt_start: VirtAddr, bytes: u64) -> MidgardVma {
        const GIB: u64 = 1 << 30;
        let aligned = self.next_midgard.div_ceil(GIB) * GIB;
        let vma = MidgardVma {
            virt_start,
            bytes,
            midgard_start: aligned + (virt_start.raw() & (GIB - 1)),
        };
        self.next_midgard = vma.midgard_start + bytes.max(4096);
        self.vmas.push(vma);
        vma
    }

    /// The Midgard address of `va`, or `None` when no registered VMA covers
    /// it. A pure lookup: no VLB state or statistics are touched (used by
    /// the engine's install path, which remaps kernel-established mappings
    /// into the Midgard space).
    pub fn midgard_of(&self, va: VirtAddr) -> Option<u64> {
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

    /// Translates `va` to a Midgard address (frontend) and produces the
    /// backend accesses that a last-level-cache miss on the resulting
    /// Midgard address would require. Returns `None` when no VMA covers
    /// `va`.
    pub fn translate(&mut self, va: VirtAddr) -> Option<MidgardTranslation> {
        let (midgard_addr, frontend_latency, frontend_accesses) = self.translate_frontend(va)?;
        // Backend: a radix walk over the Midgard space performed only on LLC
        // misses; emit its node accesses for the framework to charge.
        let mut backend_accesses = WalkAccessList::new();
        for level in 0..self.config.backend_levels as u64 {
            backend_accesses.push(PhysAddr::new(
                self.metadata_base
                    + (1 << 30)
                    + level * 4096
                    + ((midgard_addr >> (12 + 9 * level.min(4))) & 0x1ff) * 8,
            ));
        }
        self.stats.backend_cycles += 2 * self.config.backend_levels as u64;

        Some(MidgardTranslation {
            midgard_addr,
            frontend_latency,
            frontend_accesses,
            backend_accesses,
        })
    }

    /// The frontend half of [`MidgardMmu::translate`]: VLB probes plus the
    /// VMA-tree walk when both miss, without synthesizing the standalone
    /// backend-access model. Returns the Midgard address, the frontend
    /// latency and the VMA-tree node accesses (empty on a VLB hit), or
    /// `None` when no VMA covers `va`. The end-to-end engine uses this —
    /// its backend is a real, separately-simulated structure, so the
    /// synthetic backend accesses would be allocated only to be thrown
    /// away on every single memory access.
    pub fn translate_frontend(&mut self, va: VirtAddr) -> Option<(u64, Cycles, WalkAccessList)> {
        self.clock += 1;
        self.stats.translations.inc();
        let idx = self.vmas.iter().position(|v| v.covers(va))?;
        let vma = self.vmas[idx];

        let mut frontend_latency = self.config.l1_vlb_latency;
        let mut frontend_accesses = WalkAccessList::new();
        if Self::probe_vlb(&mut self.l1_vlb, idx, self.clock) {
            self.stats.l1_vlb_hits.inc();
        } else {
            frontend_latency += self.config.l2_vlb_latency;
            if Self::probe_vlb(&mut self.l2_vlb, idx, self.clock) {
                self.stats.l2_vlb_hits.inc();
                Self::fill_vlb(
                    &mut self.l1_vlb,
                    self.config.l1_vlb_entries,
                    idx,
                    self.clock,
                );
            } else {
                // Walk the in-memory VMA B-tree: log2(n) node accesses.
                self.stats.frontend_walks.inc();
                let depth = ((self.vmas.len().max(2) as f64).log2().ceil() as u64).max(1);
                for level in 0..depth {
                    frontend_accesses.push(PhysAddr::new(
                        self.metadata_base + level * 64 + (idx as u64 % 16) * 1024,
                    ));
                    frontend_latency += Cycles::new(20);
                }
                Self::fill_vlb(
                    &mut self.l2_vlb,
                    self.config.l2_vlb_entries,
                    idx,
                    self.clock,
                );
                Self::fill_vlb(
                    &mut self.l1_vlb,
                    self.config.l1_vlb_entries,
                    idx,
                    self.clock,
                );
            }
        }
        self.stats.frontend_cycles += frontend_latency.raw();

        let midgard_addr = vma.midgard_start + (va.raw() - vma.virt_start.raw());
        Some((midgard_addr, frontend_latency, frontend_accesses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn few_large_vmas_are_served_by_the_l1_vlb() {
        let mut mmu = MidgardMmu::new(
            MidgardConfig::paper_baseline(),
            PhysAddr::new(0xE0_0000_0000),
        );
        mmu.register_vma(VirtAddr::new(0x1000_0000), 1 << 30);
        // Warm-up translation, then repeated hits.
        for i in 0..100u64 {
            mmu.translate(VirtAddr::new(0x1000_0000 + i * 0x10_000))
                .unwrap();
        }
        assert!(mmu.stats().l1_vlb_hits.get() >= 99);
        assert!(mmu.stats().frontend_fraction() < 0.5);
    }

    #[test]
    fn many_small_vmas_thrash_the_vlbs() {
        let mut mmu = MidgardMmu::new(
            MidgardConfig::paper_baseline(),
            PhysAddr::new(0xE0_0000_0000),
        );
        // 147 small VMAs (the BC profile of Fig. 18).
        for i in 0..147u64 {
            mmu.register_vma(VirtAddr::new(0x2000_0000 + i * 0x100_0000), 64 * 1024);
        }
        // Round-robin accesses across all VMAs defeat a 16-entry L2 VLB.
        for round in 0..20u64 {
            for i in 0..147u64 {
                mmu.translate(VirtAddr::new(0x2000_0000 + i * 0x100_0000 + round * 64))
                    .unwrap();
            }
        }
        assert!(mmu.stats().l2_vlb_hit_ratio() < 0.2);
        assert!(mmu.stats().frontend_walks.get() > 1000);
    }

    #[test]
    fn translation_preserves_offsets_within_the_vma() {
        let mut mmu = MidgardMmu::new(
            MidgardConfig::paper_baseline(),
            PhysAddr::new(0xE0_0000_0000),
        );
        let vma = mmu.register_vma(VirtAddr::new(0x4000_0000), 1 << 24);
        let t = mmu.translate(VirtAddr::new(0x4000_1234)).unwrap();
        assert_eq!(t.midgard_addr, vma.midgard_start + 0x1234);
    }

    #[test]
    fn uncovered_addresses_return_none() {
        let mut mmu = MidgardMmu::new(
            MidgardConfig::paper_baseline(),
            PhysAddr::new(0xE0_0000_0000),
        );
        mmu.register_vma(VirtAddr::new(0x4000_0000), 4096);
        assert!(mmu.translate(VirtAddr::new(0x9000_0000)).is_none());
    }

    #[test]
    fn backend_accesses_match_configured_levels() {
        let mut mmu = MidgardMmu::new(
            MidgardConfig::paper_baseline(),
            PhysAddr::new(0xE0_0000_0000),
        );
        mmu.register_vma(VirtAddr::new(0x4000_0000), 1 << 24);
        let t = mmu.translate(VirtAddr::new(0x4000_0000)).unwrap();
        assert_eq!(t.backend_accesses.len(), 6);
    }

    #[test]
    fn distinct_vmas_get_distinct_midgard_ranges() {
        let mut mmu = MidgardMmu::new(
            MidgardConfig::paper_baseline(),
            PhysAddr::new(0xE0_0000_0000),
        );
        let a = mmu.register_vma(VirtAddr::new(0x1000_0000), 1 << 20);
        let b = mmu.register_vma(VirtAddr::new(0x9000_0000), 1 << 20);
        assert!(b.midgard_start >= a.midgard_start + (1 << 20));
    }
}

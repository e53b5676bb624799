//! The Utopia physical-memory organisation (Kanellopoulos et al., MICRO
//! 2023): physical memory is split into *restrictive segments* (RestSegs)
//! that use a hash-based, set-associative virtual-to-physical mapping — so a
//! fault can compute the frame address with a lightweight hash instead of
//! walking allocator free lists — and a *flexible segment* (FlexSeg) that
//! retains the conventional buddy-allocated mapping for pages that do not
//! fit in a RestSeg.
//!
//! The paper evaluates Utopia as (i) an allocation policy that shortens page
//! faults (Fig. 16), (ii) an MMU design whose translation-metadata lookups
//! get slower as the RestSeg grows (Fig. 19), and (iii) a design whose hash
//! collisions cause swapping when RestSegs cover most of memory (Fig. 20).
//! This module provides the allocator side; the `mmu-sim` crate models the
//! RestSeg walkers and caches.

use crate::kernel_stream::{KernelInstructionStream, KernelRoutine};
use serde::{Deserialize, Serialize};
use vm_types::{Counter, PageSize, PhysAddr, VirtAddr};

/// Configuration of one restrictive segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtopiaConfig {
    /// Total RestSeg size in bytes.
    pub size_bytes: u64,
    /// Set associativity of the hash-based mapping.
    pub ways: u32,
    /// Page size stored in this RestSeg.
    pub page_size: PageSize,
}

impl UtopiaConfig {
    /// The paper's default pair (Table 4): one 8 GB RestSeg of 4 KiB pages —
    /// scaled here by the caller's physical memory budget.
    pub const fn new(size_bytes: u64, ways: u32, page_size: PageSize) -> Self {
        UtopiaConfig {
            size_bytes,
            ways,
            page_size,
        }
    }

    /// Number of sets in the RestSeg (at least one for every geometry
    /// [`OsConfig::validate`](crate::OsConfig::validate) accepts).
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.page_size.bytes() / self.ways as u64
    }

    /// Total number of page slots.
    pub fn slots(&self) -> u64 {
        self.sets() * self.ways as u64
    }
}

/// Statistics for one RestSeg.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestSegStats {
    /// Pages successfully placed in the RestSeg.
    pub placements: Counter,
    /// Placement attempts that failed because the set was full (hash
    /// collision); the page spills to the FlexSeg or, under memory pressure,
    /// to swap.
    pub collisions: Counter,
    /// Pages removed.
    pub removals: Counter,
}

/// One restrictive segment: a set-associative, hash-indexed region of
/// physical memory.
///
/// Slots are tagged by `(asid, vpn)`: two processes mapping the same
/// virtual page occupy — and release — distinct ways. Tagging by the
/// virtual page number alone let process A's reclaim free the slot that
/// backed process B's page whenever their virtual layouts overlapped
/// (the occupancy is machine-wide, not per-address-space).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RestSeg {
    config: UtopiaConfig,
    /// Physical base address of the segment.
    base: PhysAddr,
    /// Occupancy: for each slot, the owning `(asid, virtual page number)`
    /// tag, if any.
    slots: Vec<Option<(u16, u64)>>,
    stats: RestSegStats,
}

impl RestSeg {
    /// Creates a RestSeg occupying `[base, base + config.size_bytes)`.
    pub fn new(config: UtopiaConfig, base: PhysAddr) -> Self {
        RestSeg {
            slots: vec![None; config.slots() as usize],
            config,
            base,
            stats: RestSegStats::default(),
        }
    }

    /// The segment's configuration.
    pub fn config(&self) -> &UtopiaConfig {
        &self.config
    }

    /// The segment's statistics.
    pub fn stats(&self) -> &RestSegStats {
        &self.stats
    }

    /// Fraction of slots currently occupied.
    pub fn occupancy(&self) -> f64 {
        let used = self.slots.iter().filter(|s| s.is_some()).count();
        used as f64 / self.slots.len() as f64
    }

    /// The hash used to index the RestSeg: a cheap multiplicative hash of
    /// the virtual page number (stand-in for the CityHash the paper uses).
    fn set_index(&self, vpn: u64) -> u64 {
        let h = vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 17) % self.config.sets()
    }

    fn slot_paddr(&self, set: u64, way: u32) -> PhysAddr {
        let idx = set * self.config.ways as u64 + way as u64;
        self.base.add(idx * self.config.page_size.bytes())
    }

    /// Attempts to place the page containing `vaddr` into the RestSeg.
    /// Returns the frame address on success; `None` on a set-conflict, in
    /// which case the caller must fall back to the FlexSeg.
    ///
    /// The placement work (tag probe + allocation-bitmap update) is recorded
    /// into `stream`; it is deliberately much cheaper than a buddy-allocator
    /// walk, which is what makes Utopia's page faults fast in Fig. 16.
    pub fn try_place(
        &mut self,
        asid: u16,
        vaddr: VirtAddr,
        stream: &mut KernelInstructionStream,
    ) -> Option<PhysAddr> {
        let vpn = vaddr.page_number(self.config.page_size).number();
        let set = self.set_index(vpn);
        stream.compute(12);
        // Probe the set's tag array: contiguous metadata, one load per way
        // group of 8 tags.
        let tag_probes = (self.config.ways as u64).div_ceil(8);
        for i in 0..tag_probes {
            stream.load(self.tag_array_addr(set, i));
        }
        for way in 0..self.config.ways {
            let idx = (set * self.config.ways as u64 + way as u64) as usize;
            if self.slots[idx].is_none() {
                self.slots[idx] = Some((asid, vpn));
                self.stats.placements.inc();
                stream.compute(8);
                stream.store(self.tag_array_addr(set, way as u64 / 8));
                return Some(self.slot_paddr(set, way));
            }
        }
        self.stats.collisions.inc();
        None
    }

    /// Looks up the frame backing `vaddr` in address space `asid`, if it was
    /// placed in this RestSeg.
    pub fn lookup(&self, asid: u16, vaddr: VirtAddr) -> Option<PhysAddr> {
        let vpn = vaddr.page_number(self.config.page_size).number();
        let set = self.set_index(vpn);
        for way in 0..self.config.ways {
            let idx = (set * self.config.ways as u64 + way as u64) as usize;
            if self.slots[idx] == Some((asid, vpn)) {
                return Some(self.slot_paddr(set, way));
            }
        }
        None
    }

    /// Removes the page containing `vaddr` in address space `asid` from the
    /// RestSeg (e.g. when it is swapped out). Returns `true` if it was
    /// present.
    pub fn remove(&mut self, asid: u16, vaddr: VirtAddr) -> bool {
        let vpn = vaddr.page_number(self.config.page_size).number();
        let set = self.set_index(vpn);
        for way in 0..self.config.ways {
            let idx = (set * self.config.ways as u64 + way as u64) as usize;
            if self.slots[idx] == Some((asid, vpn)) {
                self.slots[idx] = None;
                self.stats.removals.inc();
                return true;
            }
        }
        false
    }

    /// Physical address of the tag-array metadata for a set (the "RSW"
    /// structure whose growing footprint slows translation for large
    /// RestSegs, Fig. 19).
    pub fn tag_array_addr(&self, set: u64, group: u64) -> PhysAddr {
        self.base
            .add(self.config.size_bytes)
            .add(set * 64 * (self.config.ways as u64).div_ceil(8) + group * 64)
    }

    /// Size in bytes of the translation metadata (virtual tags for every
    /// slot), which grows linearly with the RestSeg size.
    pub fn metadata_bytes(&self) -> u64 {
        self.config.slots() * 8
    }
}

/// The Utopia allocator: an ordered list of RestSegs tried in turn, with
/// spill accounting toward the FlexSeg.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtopiaAllocator {
    segs: Vec<RestSeg>,
    /// Pages that spilled to the FlexSeg because every RestSeg collided.
    pub flexseg_spills: Counter,
}

impl UtopiaAllocator {
    /// Creates an allocator from a list of RestSegs.
    pub fn new(segs: Vec<RestSeg>) -> Self {
        UtopiaAllocator {
            segs,
            flexseg_spills: Counter::new(),
        }
    }

    /// Access to the individual RestSegs.
    pub fn segments(&self) -> &[RestSeg] {
        &self.segs
    }

    /// Attempts to place `vaddr` (a base page) into the first RestSeg with a
    /// free way. Returns the frame and the page size of the hosting segment,
    /// or `None` if every candidate set is full (FlexSeg fallback).
    pub fn try_place(
        &mut self,
        asid: u16,
        vaddr: VirtAddr,
        preferred: PageSize,
        stream: &mut KernelInstructionStream,
    ) -> Option<(PhysAddr, PageSize)> {
        // Try the segment matching the preferred size first, then the rest.
        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..self.segs.len()).collect();
            idx.sort_by_key(|&i| (self.segs[i].config().page_size != preferred) as u8);
            idx
        };
        for i in order {
            let size = self.segs[i].config().page_size;
            if let Some(frame) = self.segs[i].try_place(asid, vaddr, stream) {
                return Some((frame, size));
            }
        }
        self.flexseg_spills.inc();
        None
    }

    /// Looks up `(asid, vaddr)` across every RestSeg.
    pub fn lookup(&self, asid: u16, vaddr: VirtAddr) -> Option<(PhysAddr, PageSize)> {
        self.segs
            .iter()
            .find_map(|s| s.lookup(asid, vaddr).map(|pa| (pa, s.config().page_size)))
    }

    /// Removes `(asid, vaddr)` from whichever RestSeg holds it.
    pub fn remove(&mut self, asid: u16, vaddr: VirtAddr) -> bool {
        self.segs.iter_mut().any(|s| s.remove(asid, vaddr))
    }

    /// Builds a kernel stream tagged as Utopia allocation work.
    pub fn new_stream() -> KernelInstructionStream {
        KernelInstructionStream::new(KernelRoutine::UtopiaAlloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn small_seg(ways: u32) -> RestSeg {
        RestSeg::new(
            UtopiaConfig::new(4 * MB, ways, PageSize::Size4K),
            PhysAddr::new(0x1_0000_0000),
        )
    }

    #[test]
    fn config_geometry() {
        let cfg = UtopiaConfig::new(32 * MB, 16, PageSize::Size4K);
        assert_eq!(cfg.slots(), 32 * MB / 4096);
        assert_eq!(cfg.sets() * 16, cfg.slots());
    }

    #[test]
    fn place_then_lookup_roundtrip() {
        let mut seg = small_seg(8);
        let mut s = UtopiaAllocator::new_stream();
        let va = VirtAddr::new(0x7000_1000);
        let pa = seg.try_place(1, va, &mut s).unwrap();
        assert_eq!(seg.lookup(1, va), Some(pa));
        assert!(pa.raw() >= 0x1_0000_0000);
        assert_eq!(seg.stats().placements.get(), 1);
    }

    #[test]
    fn placements_are_unique_frames() {
        let mut seg = small_seg(8);
        let mut s = UtopiaAllocator::new_stream();
        let mut frames = std::collections::BTreeSet::new();
        for i in 0..500u64 {
            if let Some(pa) = seg.try_place(1, VirtAddr::new(i * 4096), &mut s) {
                assert!(frames.insert(pa.raw()), "duplicate frame {pa}");
            }
        }
    }

    #[test]
    fn collisions_occur_when_set_fills() {
        // 1-way RestSeg with few sets: collisions are inevitable.
        let mut seg = RestSeg::new(
            UtopiaConfig::new(64 * 4096, 1, PageSize::Size4K),
            PhysAddr::new(0),
        );
        let mut s = UtopiaAllocator::new_stream();
        let mut failures = 0;
        for i in 0..256u64 {
            if seg.try_place(1, VirtAddr::new(i * 4096), &mut s).is_none() {
                failures += 1;
            }
        }
        assert!(failures > 0);
        assert_eq!(seg.stats().collisions.get(), failures);
        // Occupancy can never exceed 1.
        assert!(seg.occupancy() <= 1.0);
    }

    #[test]
    fn higher_associativity_reduces_collisions() {
        let mut low = RestSeg::new(
            UtopiaConfig::new(256 * 4096, 1, PageSize::Size4K),
            PhysAddr::new(0),
        );
        let mut high = RestSeg::new(
            UtopiaConfig::new(256 * 4096, 16, PageSize::Size4K),
            PhysAddr::new(0),
        );
        let mut s = UtopiaAllocator::new_stream();
        for i in 0..200u64 {
            let va = VirtAddr::new(i * 0x13_000);
            low.try_place(1, va, &mut s);
            high.try_place(1, va, &mut s);
        }
        assert!(high.stats().collisions.get() <= low.stats().collisions.get());
    }

    #[test]
    fn remove_frees_the_way() {
        let mut seg = RestSeg::new(
            UtopiaConfig::new(64 * 4096, 1, PageSize::Size4K),
            PhysAddr::new(0),
        );
        let mut s = UtopiaAllocator::new_stream();
        let va = VirtAddr::new(0x5000);
        seg.try_place(1, va, &mut s).unwrap();
        assert!(seg.remove(1, va));
        assert!(!seg.remove(1, va));
        // The slot can be reused.
        assert!(seg.try_place(1, va, &mut s).is_some());
    }

    #[test]
    fn occupancy_is_keyed_by_asid_and_va() {
        // Two address spaces at the same VA: both fit in one 2-way set,
        // occupy distinct frames, and removing one leaves the other's
        // residency — removal of a VA never crosses address spaces.
        let mut seg = small_seg(2);
        let mut s = UtopiaAllocator::new_stream();
        let va = VirtAddr::new(0x7000_1000);
        let pa1 = seg.try_place(1, va, &mut s).unwrap();
        let pa2 = seg.try_place(2, va, &mut s).unwrap();
        assert_ne!(pa1, pa2, "same VA in two ASIDs must get distinct frames");
        assert_eq!(seg.lookup(1, va), Some(pa1));
        assert_eq!(seg.lookup(2, va), Some(pa2));

        assert!(seg.remove(1, va));
        assert_eq!(seg.lookup(1, va), None);
        assert_eq!(
            seg.lookup(2, va),
            Some(pa2),
            "ASID 2's residency must survive ASID 1's reclaim of the same VA"
        );
        assert!(!seg.remove(1, va), "double-remove must not hit ASID 2");
        assert!(seg.remove(2, va));
    }

    #[test]
    fn allocator_spills_to_flexseg_when_full() {
        let seg = RestSeg::new(
            UtopiaConfig::new(8 * 4096, 1, PageSize::Size4K),
            PhysAddr::new(0),
        );
        let mut alloc = UtopiaAllocator::new(vec![seg]);
        let mut s = UtopiaAllocator::new_stream();
        let mut spilled = 0;
        for i in 0..64u64 {
            if alloc
                .try_place(1, VirtAddr::new(i * 4096), PageSize::Size4K, &mut s)
                .is_none()
            {
                spilled += 1;
            }
        }
        assert!(spilled > 0);
        assert_eq!(alloc.flexseg_spills.get(), spilled);
    }

    #[test]
    fn metadata_grows_with_segment_size() {
        let small = RestSeg::new(
            UtopiaConfig::new(8 * MB, 16, PageSize::Size4K),
            PhysAddr::new(0),
        );
        let large = RestSeg::new(
            UtopiaConfig::new(64 * MB, 16, PageSize::Size4K),
            PhysAddr::new(0),
        );
        assert!(large.metadata_bytes() > small.metadata_bytes());
    }

    #[test]
    fn placement_stream_is_cheap_compared_to_buddy() {
        use crate::buddy::BuddyAllocator;
        let mut seg = small_seg(16);
        let mut utopia_stream = UtopiaAllocator::new_stream();
        seg.try_place(1, VirtAddr::new(0x9000), &mut utopia_stream)
            .unwrap();

        let mut buddy = BuddyAllocator::new(64 * MB);
        let mut buddy_stream = BuddyAllocator::new_alloc_stream();
        buddy.alloc_traced(0, Some(&mut buddy_stream)).unwrap();

        assert!(utopia_stream.instruction_count() < buddy_stream.instruction_count());
    }
}

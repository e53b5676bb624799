//! Per-process address-space state: the VMA tree plus the kernel's
//! authoritative record of established virtual-to-physical mappings.
//!
//! The mapping table kept here is the *functional* truth about the address
//! space — which virtual pages are backed by which physical frames at which
//! page size. Its layout (`docs/ARCHITECTURE.md`, "MimicOS bookkeeping") is
//! private to this file; the kernel sees only [`Process`]'s methods. The
//! hardware-visible page-table *representation* (radix, elastic cuckoo,
//! hashed, …) is modelled separately in the `mmu-sim` crate and is kept in
//! sync by the Virtuoso framework from each fault's outcome.

use crate::fault::Mapping;
use crate::vma::VmaTree;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vm_types::{PageSize, PhysAddr, VirtAddr};

/// Why the kernel terminated a process before its workload finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExitReason {
    /// Chosen as the out-of-memory killer's victim.
    OomKilled,
}

/// Everything the kernel must release when it kills a process: the resident
/// mappings (each tagged with whether it lives in a hugetlbfs VMA, whose
/// frames return to the hugetlb pool rather than the buddy allocator) and
/// the swap slots holding its swapped-out pages.
#[derive(Debug)]
pub struct KilledAddressSpace {
    /// Resident mappings, paired with the hugetlbfs flag of their VMA.
    pub mappings: Vec<(Mapping, bool)>,
    /// Swap slots owned by the dead address space.
    pub swap_slots: Vec<u64>,
}

/// 4 KiB pages per 2 MiB region: the slot count of one [`Chunk`].
const SLOTS: usize = 512;
/// Marks an empty slot in [`Chunk::frames`] and [`Chunk::swap`]; no frame
/// address or swap slot ever takes this value.
const EMPTY: u64 = u64::MAX;

/// The 4 KiB pages of one 2 MiB-aligned region of the address space.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Chunk {
    /// Physical frame of each resident 4 KiB page, [`EMPTY`] when unmapped.
    frames: Box<[u64; SLOTS]>,
    /// Swap slot of each swapped-out page, allocated on the first swap-out.
    swap: Option<Box<[u64; SLOTS]>>,
    /// Number of non-empty entries in `frames`.
    live: u16,
    /// Number of non-empty entries in `swap`.
    swapped: u16,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            frames: Box::new([EMPTY; SLOTS]),
            swap: None,
            live: 0,
            swapped: 0,
        }
    }

    /// `true` once the chunk records nothing and can be dropped.
    fn is_unused(&self) -> bool {
        self.live == 0 && self.swapped == 0
    }

    /// The resident pages of the chunk for 2 MiB region `region`, in
    /// address order.
    fn mappings(&self, region: u64) -> impl Iterator<Item = Mapping> + '_ {
        let frames = self.frames.iter().enumerate();
        frames
            .filter(|&(_, &frame)| frame != EMPTY)
            .map(move |(slot, &frame)| base_mapping(region, slot, frame))
    }
}

/// Index of the 2 MiB region containing `addr` (the key of `Process::chunks`).
fn region_of(addr: VirtAddr) -> u64 {
    addr.raw() >> PageSize::Size2M.shift()
}

/// Index of the 4 KiB page containing `addr` within its 2 MiB region.
fn slot_of(addr: VirtAddr) -> usize {
    (addr.raw() >> PageSize::Size4K.shift()) as usize % SLOTS
}

/// The 4 KiB mapping recorded by `frame` in slot `slot` of region `region`.
fn base_mapping(region: u64, slot: usize, frame: u64) -> Mapping {
    let vaddr = (region << PageSize::Size2M.shift()) + slot as u64 * PageSize::Size4K.bytes();
    Mapping {
        vaddr: VirtAddr::new(vaddr),
        paddr: PhysAddr::new(frame),
        page_size: PageSize::Size4K,
    }
}

/// One simulated process (address space).
///
/// The mapping table holds at most one mapping per base virtual address,
/// whatever its size, in two levels: 4 KiB pages live in 512-slot chunks
/// keyed by 2 MiB region index (one small-tree probe and an index per
/// lookup, counters instead of range scans), 2 MiB and 1 GiB mappings in a
/// small ordered map of their own.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Process {
    /// The process's virtual memory areas.
    pub vmas: VmaTree,
    /// 4 KiB mappings and swap records, keyed by 2 MiB region index. A
    /// chunk exists only while it records something.
    chunks: BTreeMap<u64, Chunk>,
    /// 2 MiB and 1 GiB mappings, keyed by base virtual address.
    huge: BTreeMap<u64, Mapping>,
    /// Resident 4 KiB mappings over all chunks.
    base_pages: usize,
    /// Swapped-out pages over all chunks.
    swapped_pages: usize,
    /// Set when the kernel terminated the process (fault counters survive
    /// for reporting; the address space is gone).
    exited: Option<ExitReason>,
    /// Number of minor page faults taken by this process.
    pub minor_faults: u64,
    /// Number of major page faults taken by this process.
    pub major_faults: u64,
    /// Faults taken on read accesses.
    pub read_faults: u64,
    /// Faults taken on write accesses.
    pub write_faults: u64,
}

impl Process {
    /// Creates an empty process.
    pub fn new() -> Self {
        Process::default()
    }

    /// Looks up the mapping covering `addr`, checking 1 GiB, 2 MiB and 4 KiB
    /// granularity in that order.
    pub fn lookup_mapping(&self, addr: VirtAddr) -> Option<Mapping> {
        self.lookup_huge(addr).or_else(|| self.lookup_base(addr))
    }

    /// The mapping (of any size) whose base address is exactly `base`.
    pub fn mapping_at(&self, base: VirtAddr) -> Option<Mapping> {
        match self.huge.get(&base.raw()) {
            Some(huge) => Some(*huge),
            None => self.lookup_base(base).filter(|m| m.vaddr == base),
        }
    }

    /// The 4 KiB mapping of the page containing `addr`.
    fn lookup_base(&self, addr: VirtAddr) -> Option<Mapping> {
        let (region, slot) = (region_of(addr), slot_of(addr));
        let frame = self.chunks.get(&region)?.frames[slot];
        (frame != EMPTY).then(|| base_mapping(region, slot, frame))
    }

    /// The 1 GiB or 2 MiB mapping covering `addr`, in that order.
    fn lookup_huge(&self, addr: VirtAddr) -> Option<Mapping> {
        [PageSize::Size1G, PageSize::Size2M]
            .into_iter()
            .find_map(|size| {
                let m = self.huge.get(&addr.page_base(size).raw())?;
                (m.page_size == size).then_some(*m)
            })
    }

    /// `true` if `addr` is covered by an established mapping.
    pub fn is_mapped(&self, addr: VirtAddr) -> bool {
        self.lookup_mapping(addr).is_some()
    }

    /// Records a new mapping, replacing a mapping of any size with the same
    /// base address. The mapping's virtual base must be aligned to its page
    /// size.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the base address is not aligned to the
    /// mapping's page size.
    pub fn insert_mapping(&mut self, mapping: Mapping) {
        debug_assert!(mapping.vaddr.is_aligned(mapping.page_size));
        if mapping.page_size != PageSize::Size4K {
            self.remove_base(mapping.vaddr);
            self.huge.insert(mapping.vaddr.raw(), mapping);
            return;
        }
        debug_assert_ne!(mapping.paddr.raw(), EMPTY);
        self.huge.remove(&mapping.vaddr.raw());
        let chunk = self
            .chunks
            .entry(region_of(mapping.vaddr))
            .or_insert_with(Chunk::new);
        let frame = &mut chunk.frames[slot_of(mapping.vaddr)];
        if *frame == EMPTY {
            chunk.live += 1;
            self.base_pages += 1;
        }
        *frame = mapping.paddr.raw();
    }

    /// Removes the 4 KiB mapping of the page containing `addr`, dropping
    /// its chunk when that was the last thing it recorded.
    fn remove_base(&mut self, addr: VirtAddr) -> Option<Mapping> {
        let (region, slot) = (region_of(addr), slot_of(addr));
        let chunk = self.chunks.get_mut(&region)?;
        let frame = std::mem::replace(&mut chunk.frames[slot], EMPTY);
        if frame == EMPTY {
            return None;
        }
        chunk.live -= 1;
        self.base_pages -= 1;
        if chunk.is_unused() {
            self.chunks.remove(&region);
        }
        Some(base_mapping(region, slot, frame))
    }

    /// Removes the mapping whose base address covers `addr` (any page size)
    /// and returns it.
    pub fn remove_mapping(&mut self, addr: VirtAddr) -> Option<Mapping> {
        match self.lookup_huge(addr) {
            Some(huge) => self.huge.remove(&huge.vaddr.raw()),
            None => self.remove_base(addr),
        }
    }

    /// Replaces all 4 KiB mappings inside the 2 MiB region containing
    /// `addr` with a single 2 MiB mapping (khugepaged collapse). Returns the
    /// 4 KiB mappings that were removed.
    pub fn collapse_to_huge(&mut self, addr: VirtAddr, huge: Mapping) -> Vec<Mapping> {
        let region = addr.page_base(PageSize::Size2M);
        // Whatever is based at a page address of the region goes: its 4 KiB
        // pages and a huge mapping starting at the region itself.
        let mut removed: Vec<Mapping> = self.huge.remove(&region.raw()).into_iter().collect();
        if let Some(chunk) = self.chunks.get_mut(&region_of(region)) {
            removed.extend(chunk.mappings(region_of(region)));
            chunk.frames.fill(EMPTY);
            self.base_pages -= usize::from(chunk.live);
            chunk.live = 0;
            if chunk.is_unused() {
                self.chunks.remove(&region_of(region));
            }
        }
        self.insert_mapping(huge);
        removed
    }

    /// Number of 4 KiB pages currently mapped inside the 2 MiB region
    /// containing `addr` (used by khugepaged and reservation-based THP).
    pub fn mapped_4k_in_region(&self, addr: VirtAddr) -> u64 {
        self.chunks
            .get(&region_of(addr))
            .map_or(0, |chunk| u64::from(chunk.live))
    }

    /// `true` if any mapping (of any size) exists inside the naturally
    /// aligned region of `size` containing `addr`. Used to decide whether a
    /// fault needs fresh page-table frames and whether a THP allocation is
    /// still possible for the region.
    pub fn region_has_mappings(&self, addr: VirtAddr, size: PageSize) -> bool {
        let base = addr.page_base(size);
        let base_pages_inside = match size {
            PageSize::Size4K => self.lookup_base(base).is_some(),
            PageSize::Size2M => self.mapped_4k_in_region(base) > 0,
            // The faulting page's own 2 MiB region usually answers; only a
            // first touch there scans the gigabyte's other chunks.
            PageSize::Size1G => {
                let first = region_of(base);
                let regions = first..first + PageSize::Size1G.bytes() / PageSize::Size2M.bytes();
                self.mapped_4k_in_region(addr) > 0
                    || self.chunks.range(regions).any(|(_, chunk)| chunk.live > 0)
            }
        };
        base_pages_inside
            || self
                .huge
                .range(base.raw()..base.raw() + size.bytes())
                .next()
                .is_some()
            // A larger mapping starting before the region could also cover it.
            || self.lookup_huge(base).is_some()
    }

    /// The resident 4 KiB mappings in address order.
    fn base_mappings(&self) -> impl Iterator<Item = Mapping> + '_ {
        self.chunks
            .iter()
            .flat_map(|(&region, chunk)| chunk.mappings(region))
    }

    /// All established mappings in address order.
    pub fn mappings(&self) -> impl Iterator<Item = Mapping> + '_ {
        let mut base = self.base_mappings().peekable();
        let mut huge = self.huge.values().copied().peekable();
        // Base addresses are unique across the two streams, so the merge
        // never has to break a tie.
        std::iter::from_fn(move || match (base.peek(), huge.peek()) {
            (Some(b), Some(h)) if h.vaddr < b.vaddr => huge.next(),
            (Some(_), _) => base.next(),
            (None, _) => huge.next(),
        })
    }

    /// Number of established mappings (of any size).
    pub fn mapping_count(&self) -> usize {
        self.base_pages + self.huge.len()
    }

    /// Resident set size in bytes.
    pub fn resident_bytes(&self) -> u64 {
        let huge: u64 = self.huge.values().map(|m| m.page_size.bytes()).sum();
        self.base_pages as u64 * PageSize::Size4K.bytes() + huge
    }

    /// Marks the page at `addr` (base of a 4 KiB page) as swapped out to
    /// `slot`, removing its mapping.
    pub fn swap_out(&mut self, addr: VirtAddr, slot: u64) -> Option<Mapping> {
        debug_assert_ne!(slot, EMPTY);
        let m = self.remove_mapping(addr.page_base(PageSize::Size4K));
        if m.is_some() {
            let chunk = self
                .chunks
                .entry(region_of(addr))
                .or_insert_with(Chunk::new);
            let slots = chunk.swap.get_or_insert_with(|| Box::new([EMPTY; SLOTS]));
            if slots[slot_of(addr)] == EMPTY {
                chunk.swapped += 1;
                self.swapped_pages += 1;
            }
            slots[slot_of(addr)] = slot;
        }
        m
    }

    /// Returns the swap slot holding `addr`, if the page was swapped out,
    /// and clears the swap record (the caller is about to swap it back in).
    pub fn take_swap_slot(&mut self, addr: VirtAddr) -> Option<u64> {
        let chunk = self.chunks.get_mut(&region_of(addr))?;
        let slot = std::mem::replace(&mut chunk.swap.as_mut()?[slot_of(addr)], EMPTY);
        if slot == EMPTY {
            return None;
        }
        chunk.swapped -= 1;
        self.swapped_pages -= 1;
        if chunk.is_unused() {
            self.chunks.remove(&region_of(addr));
        }
        Some(slot)
    }

    /// `true` if the page containing `addr` is currently swapped out.
    pub fn is_swapped(&self, addr: VirtAddr) -> bool {
        self.chunks
            .get(&region_of(addr))
            .and_then(|chunk| chunk.swap.as_ref())
            .is_some_and(|slots| slots[slot_of(addr)] != EMPTY)
    }

    /// Number of pages currently swapped out (the process's share of the
    /// machine's swap traffic under memory pressure).
    pub fn swapped_page_count(&self) -> usize {
        self.swapped_pages
    }

    /// `true` if the process has any resident 4 KiB mapping (a reclaim
    /// candidate without demotion).
    pub fn has_base_mappings(&self) -> bool {
        self.base_pages > 0
    }

    /// Chooses up to `n` victim pages for reclaim: the resident 4 KiB
    /// mappings with the *lowest virtual addresses*, whatever the order
    /// they were mapped or touched in. This is not an LRU — it empties
    /// whole 2 MiB regions from the bottom of the address space up — and
    /// is recorded as vmbench "known deviation 1"; ROADMAP item 2(d) owns
    /// the change of policy, which must be made there, knowingly, and not
    /// by swapping the container under this method.
    pub fn reclaim_candidates(&self, n: usize) -> Vec<Mapping> {
        self.base_mappings().take(n).collect()
    }

    /// `true` if the kernel terminated this process.
    pub fn is_exited(&self) -> bool {
        self.exited.is_some()
    }

    /// Why the kernel terminated this process, when it did.
    pub fn exit_reason(&self) -> Option<ExitReason> {
        self.exited
    }

    /// Tears the address space down (the mm half of `do_exit`): marks the
    /// process exited and drains its VMAs, resident mappings and swap
    /// records. Fault counters are kept so the run report can still
    /// attribute the work the process did before dying. The caller owns the
    /// returned frames and swap slots and must release them.
    pub fn kill(&mut self, reason: ExitReason) -> KilledAddressSpace {
        self.exited = Some(reason);
        let mappings = self
            .mappings()
            .map(|m| {
                let hugetlb = self.vmas.find(m.vaddr).is_some_and(|v| v.hugetlb);
                (m, hugetlb)
            })
            .collect();
        let swap_slots = self
            .chunks
            .values()
            .filter_map(|chunk| chunk.swap.as_deref())
            .flat_map(|slots| slots.iter().copied().filter(|&slot| slot != EMPTY))
            .collect();
        self.chunks = BTreeMap::new();
        self.huge = BTreeMap::new();
        self.base_pages = 0;
        self.swapped_pages = 0;
        self.vmas = VmaTree::new();
        KilledAddressSpace {
            mappings,
            swap_slots,
        }
    }

    /// Splits the huge mapping covering `addr` one level down over the
    /// same physical frames (`split_huge_page`, the first half of huge-page
    /// demotion — reclaim then swaps individual pieces out): a 2 MiB
    /// mapping becomes 512 4 KiB mappings, a 1 GiB mapping becomes 512
    /// 2 MiB mappings. Returns the removed huge mapping and the inserted
    /// pieces, or `None` when only a 4 KiB mapping (or nothing) covers
    /// `addr`.
    pub fn demote_mapping(&mut self, addr: VirtAddr) -> Option<(Mapping, Vec<Mapping>)> {
        let huge = self.lookup_huge(addr)?;
        let piece_size = match huge.page_size {
            PageSize::Size1G => PageSize::Size2M,
            _ => PageSize::Size4K,
        };
        self.huge.remove(&huge.vaddr.raw());
        let pieces: Vec<Mapping> = (0..huge.page_size.bytes() / piece_size.bytes())
            .map(|i| Mapping {
                vaddr: huge.vaddr.add(i * piece_size.bytes()),
                paddr: huge.paddr.add(i * piece_size.bytes()),
                page_size: piece_size,
            })
            .collect();
        for &piece in &pieces {
            self.insert_mapping(piece);
        }
        Some((huge, pieces))
    }
}

#[cfg(test)]
#[path = "../../../tests/common/naive/map.rs"]
mod naive;

#[cfg(test)]
mod tests {
    use super::naive::NaiveMap;
    use super::*;
    use proptest::prelude::*;

    fn map4k(va: u64, pa: u64) -> Mapping {
        Mapping {
            vaddr: VirtAddr::new(va),
            paddr: PhysAddr::new(pa),
            page_size: PageSize::Size4K,
        }
    }

    fn map2m(va: u64, pa: u64) -> Mapping {
        Mapping {
            vaddr: VirtAddr::new(va),
            paddr: PhysAddr::new(pa),
            page_size: PageSize::Size2M,
        }
    }

    #[test]
    fn lookup_respects_page_size() {
        let mut p = Process::new();
        p.insert_mapping(map4k(0x1000, 0x8000));
        p.insert_mapping(map2m(0x20_0000, 0x40_0000));
        assert_eq!(
            p.lookup_mapping(VirtAddr::new(0x1000)).unwrap().paddr.raw(),
            0x8000
        );
        assert!(p.lookup_mapping(VirtAddr::new(0x1fff)).is_some());
        assert!(p.lookup_mapping(VirtAddr::new(0x2000)).is_none());
        // Any address inside the 2 MiB page resolves to the huge mapping.
        let inside = VirtAddr::new(0x20_0000 + 0x12_345);
        assert_eq!(
            p.lookup_mapping(inside).unwrap().page_size,
            PageSize::Size2M
        );
    }

    #[test]
    fn remove_mapping_clears_lookup() {
        let mut p = Process::new();
        p.insert_mapping(map4k(0x1000, 0x8000));
        assert!(p.remove_mapping(VirtAddr::new(0x1800)).is_some());
        assert!(!p.is_mapped(VirtAddr::new(0x1000)));
    }

    #[test]
    fn collapse_replaces_4k_with_2m() {
        let mut p = Process::new();
        for i in 0..512u64 {
            p.insert_mapping(map4k(0x20_0000 + i * 4096, 0x100_0000 + i * 4096));
        }
        assert_eq!(p.mapped_4k_in_region(VirtAddr::new(0x20_0000)), 512);
        let removed = p.collapse_to_huge(VirtAddr::new(0x20_0000), map2m(0x20_0000, 0x200_0000));
        assert_eq!(removed.len(), 512);
        assert_eq!(p.mapping_count(), 1);
        assert_eq!(
            p.lookup_mapping(VirtAddr::new(0x20_0000 + 0x1234))
                .unwrap()
                .page_size,
            PageSize::Size2M
        );
    }

    #[test]
    fn resident_bytes_accounts_for_page_sizes() {
        let mut p = Process::new();
        p.insert_mapping(map4k(0x1000, 0x8000));
        p.insert_mapping(map2m(0x20_0000, 0x40_0000));
        assert_eq!(p.resident_bytes(), 4096 + 2 * 1024 * 1024);
    }

    #[test]
    fn swap_out_and_back_in() {
        let mut p = Process::new();
        p.insert_mapping(map4k(0x1000, 0x8000));
        let m = p.swap_out(VirtAddr::new(0x1000), 42).unwrap();
        assert_eq!(m.paddr.raw(), 0x8000);
        assert!(p.is_swapped(VirtAddr::new(0x1000)));
        assert!(!p.is_mapped(VirtAddr::new(0x1000)));
        assert_eq!(p.take_swap_slot(VirtAddr::new(0x1000)), Some(42));
        assert!(!p.is_swapped(VirtAddr::new(0x1000)));
    }

    #[test]
    fn reclaim_candidates_are_4k_only() {
        let mut p = Process::new();
        p.insert_mapping(map2m(0x20_0000, 0x40_0000));
        for i in 0..8u64 {
            p.insert_mapping(map4k(0x1000_0000 + i * 4096, 0x9000 + i * 4096));
        }
        let victims = p.reclaim_candidates(4);
        assert_eq!(victims.len(), 4);
        assert!(victims.iter().all(|m| m.page_size == PageSize::Size4K));
    }

    #[test]
    fn demote_splits_a_huge_mapping_into_pieces_on_the_same_frames() {
        let mut p = Process::new();
        p.insert_mapping(map2m(0x20_0000, 0x40_0000));
        let (huge, pieces) = p.demote_mapping(VirtAddr::new(0x20_1234)).unwrap();
        assert_eq!(huge.page_size, PageSize::Size2M);
        assert_eq!(pieces.len(), 512);
        // Every piece translates exactly as the huge mapping did.
        for (i, piece) in pieces.iter().enumerate() {
            assert_eq!(piece.page_size, PageSize::Size4K);
            assert_eq!(piece.vaddr.raw(), 0x20_0000 + i as u64 * 4096);
            assert_eq!(piece.paddr.raw(), 0x40_0000 + i as u64 * 4096);
        }
        assert_eq!(p.mapping_count(), 512);
        assert!(p.has_base_mappings());
        // Demoting a base page is a no-op.
        assert!(p.demote_mapping(VirtAddr::new(0x20_0000)).is_none());
    }

    #[test]
    fn mapped_4k_in_region_only_counts_that_region() {
        let mut p = Process::new();
        p.insert_mapping(map4k(0x20_0000, 0x1000));
        p.insert_mapping(map4k(0x40_0000, 0x2000));
        assert_eq!(p.mapped_4k_in_region(VirtAddr::new(0x20_0000)), 1);
        assert_eq!(p.mapped_4k_in_region(VirtAddr::new(0x40_0000)), 1);
    }

    #[test]
    fn a_fresh_process_owns_no_heap_memory() {
        // `setup_s` of the unpopulated vmbench workloads is tens of
        // microseconds; an eager allocation here would read as a regression.
        let p = Process::new();
        assert!(p.chunks.is_empty() && p.huge.is_empty());
        assert_eq!((p.mapping_count(), p.resident_bytes()), (0, 0));
    }

    /// Pins the victim order ROADMAP item 2(d) is to replace: lowest
    /// address first, across regions, skipping huge mappings, whatever the
    /// order the pages were mapped in.
    #[test]
    fn reclaim_candidates_come_lowest_address_first() {
        let low = 0x4000_0000u64;
        let high = low + 3 * PageSize::Size2M.bytes();
        let mut p = Process::new();
        // The high region is mapped first and each region back to front,
        // so address order is the reverse of mapping order.
        for base in [high, low] {
            for slot in [511u64, 7, 0] {
                p.insert_mapping(map4k(base + slot * 4096, base + slot * 4096));
            }
        }
        p.insert_mapping(map2m(
            low + PageSize::Size2M.bytes(),
            low + PageSize::Size2M.bytes(),
        ));
        let order: Vec<u64> = [low, high]
            .iter()
            .flat_map(|base| [0u64, 7, 511].map(|slot| base + slot * 4096))
            .collect();
        for n in 0..=order.len() + 1 {
            let victims: Vec<u64> = p
                .reclaim_candidates(n)
                .iter()
                .map(|m| m.vaddr.raw())
                .collect();
            assert_eq!(victims, order[..n.min(order.len())]);
        }
        // Swapping the first victims out moves the window up, not around.
        for &va in &order[..2] {
            p.swap_out(VirtAddr::new(va), va >> 12).unwrap();
        }
        assert_eq!(p.reclaim_candidates(2)[0].vaddr.raw(), order[2]);
        assert_eq!(p.reclaim_candidates(2)[1].vaddr.raw(), order[3]);
    }

    /// Base of the differential test's address space (1 GiB-aligned).
    const DIFF_BASE: u64 = 0x40_0000_0000;
    /// The 2 MiB regions (within each of two gigabytes) and 4 KiB slots
    /// (within each region) the ops draw from: few enough to collide, and
    /// on both edges of a chunk and of a gigabyte.
    const DIFF_REGIONS: [u64; 3] = [0, 1, 511];
    const DIFF_SLOTS: [u64; 4] = [0, 1, 2, 511];

    fn diff_addr(gig: u64, region: u64, slot: u64) -> VirtAddr {
        VirtAddr::new(DIFF_BASE + (gig << 30) + (region << 21) + (slot << 12))
    }

    /// Every query of the page map's API, answered alike by both.
    fn assert_same_answers(fast: &Process, naive: &NaiveMap, step: usize) {
        // The fast map's own bookkeeping: no chunk outlives what it
        // records, and every counter equals a recount.
        for (region, chunk) in &fast.chunks {
            assert!(
                !chunk.is_unused(),
                "empty chunk {region:#x} after op {step}"
            );
            let recount = |slots: &[u64]| slots.iter().filter(|&&s| s != EMPTY).count();
            assert_eq!(
                usize::from(chunk.live),
                recount(&chunk.frames[..]),
                "live count of chunk {region:#x} after op {step}"
            );
            let swapped = chunk.swap.as_deref().map_or(0, |s| recount(s));
            assert_eq!(
                usize::from(chunk.swapped),
                swapped,
                "swapped count of chunk {region:#x} after op {step}"
            );
        }
        assert_eq!(
            fast.mappings().collect::<Vec<_>>(),
            naive.mappings.values().copied().collect::<Vec<_>>(),
            "mappings() after op {step}"
        );
        assert_eq!(
            fast.mapping_count(),
            naive.mappings.len(),
            "mapping_count after op {step}"
        );
        assert_eq!(
            fast.resident_bytes(),
            naive.resident_bytes(),
            "resident_bytes after op {step}"
        );
        assert_eq!(
            fast.swapped_page_count(),
            naive.swapped.len(),
            "swapped_page_count after op {step}"
        );
        assert_eq!(
            fast.has_base_mappings(),
            naive.base_mappings().next().is_some(),
            "has_base_mappings after op {step}"
        );
        for n in [0, 1, 3, 600, usize::MAX] {
            assert_eq!(
                fast.reclaim_candidates(n),
                naive.base_mappings().take(n).collect::<Vec<_>>(),
                "reclaim_candidates({n}) after op {step}"
            );
        }
        for gig in 0..2 {
            for region in DIFF_REGIONS {
                for slot in DIFF_SLOTS {
                    // Probe off the page base too: every query rounds down.
                    let va = diff_addr(gig, region, slot).add(0x123);
                    assert_eq!(
                        fast.lookup_mapping(va),
                        naive.lookup_mapping(va),
                        "lookup_mapping({va}) after op {step}"
                    );
                    assert_eq!(
                        fast.is_swapped(va),
                        naive.swapped.contains_key(&(va.raw() & !0xFFF)),
                        "is_swapped({va}) after op {step}"
                    );
                    assert_eq!(
                        fast.mapped_4k_in_region(va),
                        naive.mapped_4k_in_region(va),
                        "mapped_4k_in_region({va}) after op {step}"
                    );
                    for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
                        assert_eq!(
                            fast.region_has_mappings(va, size),
                            naive.region_has_mappings(va, size),
                            "region_has_mappings({va}, {size}) after op {step}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Differential test of the two-level page map against
        /// [`NaiveMap`]: random op sequences over a small, collision-prone
        /// address space, every return value and every query compared
        /// after every op.
        ///
        /// Seeded mutations of the fast map, each shown to fail this test
        /// and then reverted (the assertion that fired first):
        ///
        /// | mutation | assertion that fired |
        /// |---|---|
        /// | `remove_base` keeps a chunk whose counts reached zero | "empty chunk … after op 12" |
        /// | `remove_base` does not decrement `live` / `base_pages` | "live count of chunk … after op 3" |
        /// | `slot_of` off by one | "mappings() after op 2" (and `reclaim_candidates_come_lowest_address_first`) |
        /// | `collapse_to_huge` leaves the 4 KiB slots behind | "mappings() after op 30" (and `collapse_replaces_4k_with_2m`) |
        /// | `lookup_huge` ignores `page_size` | "lookup_mapping(0x4040200123) after op 1": a 2 MiB mapping at a 1 GiB-aligned base answers for the next region |
        /// | a huge `insert_mapping` keeps the 4 KiB mapping at its base | "mappings() after op 64": two entries at one address |
        /// | `swap_out` counts an overwritten swap record again | "swapped count of chunk … after op 111" |
        /// | `reclaim_candidates` skips the first resident page | "reclaim_candidates(1) after op 2" (and `reclaim_candidates_come_lowest_address_first`) |
        /// | `kill` leaves `base_pages` / `swapped_pages` set | "mapping_count after op 11" |
        #[test]
        fn page_map_matches_the_naive_model_op_for_op(
            ops in prop::collection::vec(any::<u64>(), 1..160)
        ) {
            let mut fast = Process::new();
            let mut naive = NaiveMap::default();
            for (step, &word) in ops.iter().enumerate() {
                let pick = |shift: u32, n: usize| (word >> shift) as usize % n;
                let va = diff_addr(
                    pick(8, 2) as u64,
                    DIFF_REGIONS[pick(12, DIFF_REGIONS.len())],
                    DIFF_SLOTS[pick(16, DIFF_SLOTS.len())],
                );
                // Distinct, page-aligned and never `EMPTY`.
                let frame = PhysAddr::new((step as u64 + 1) << 30);
                let mapping = |size: PageSize| Mapping {
                    vaddr: va.page_base(size),
                    paddr: frame,
                    page_size: size,
                };
                match word % 64 {
                    0..=19 => {
                        fast.insert_mapping(mapping(PageSize::Size4K));
                        naive.insert_mapping(mapping(PageSize::Size4K));
                    }
                    20..=24 => {
                        fast.insert_mapping(mapping(PageSize::Size2M));
                        naive.insert_mapping(mapping(PageSize::Size2M));
                    }
                    25..=26 => {
                        fast.insert_mapping(mapping(PageSize::Size1G));
                        naive.insert_mapping(mapping(PageSize::Size1G));
                    }
                    27..=36 => prop_assert_eq!(fast.remove_mapping(va), naive.remove_mapping(va)),
                    37..=46 => prop_assert_eq!(
                        fast.swap_out(va, step as u64),
                        naive.swap_out(va, step as u64)
                    ),
                    47..=52 => prop_assert_eq!(fast.take_swap_slot(va), naive.take_swap_slot(va)),
                    53..=57 => prop_assert_eq!(
                        fast.collapse_to_huge(va, mapping(PageSize::Size2M)),
                        naive.collapse_to_huge(va, mapping(PageSize::Size2M))
                    ),
                    58..=62 => prop_assert_eq!(fast.demote_mapping(va), naive.demote_mapping(va)),
                    _ => {
                        let space = fast.kill(ExitReason::OomKilled);
                        let (mappings, swap_slots) = naive.kill();
                        let resident: Vec<Mapping> =
                            space.mappings.iter().map(|&(m, _)| m).collect();
                        prop_assert_eq!(resident, mappings);
                        prop_assert_eq!(space.swap_slots, swap_slots);
                    }
                }
                assert_same_answers(&fast, &naive, step);
            }
        }
    }
}

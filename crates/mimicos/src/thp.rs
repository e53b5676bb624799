//! Transparent huge pages: the Linux-like THP fault policy, the
//! `khugepaged` background collapser, hugetlbfs reservations and
//! reservation-based THP (Navarro et al., OSDI 2002), which the paper
//! evaluates as CR-THP / AR-THP in Fig. 16.

use crate::buddy::{BuddyAllocator, ORDER_2M};
use crate::kernel_stream::{KernelInstructionStream, KernelRoutine};
use crate::process::Process;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use vm_types::{Counter, PageSize, PhysAddr, VirtAddr};

/// System-wide THP mode, mirroring
/// `/sys/kernel/mm/transparent_hugepage/enabled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThpMode {
    /// Never allocate huge pages transparently.
    Never,
    /// Allocate a huge page on fault whenever possible (Linux `always`).
    Always,
    /// Only `madvise`d VMAs get huge pages; in the model this behaves like
    /// `Never` for ordinary VMAs and `Always` for VMAs with `hugetlb` set.
    Madvise,
}

/// Configuration of the THP machinery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThpConfig {
    /// System-wide mode.
    pub mode: ThpMode,
    /// Number of pre-zeroed 2 MiB pages kept ready by the background zeroing
    /// thread. A fault that finds one skips the zeroing cost.
    pub zeroed_pool_capacity: u32,
    /// How many 2 MiB regions khugepaged scans per invocation.
    pub khugepaged_scan_batch: usize,
    /// Minimum fraction of 4 KiB pages present in a region before khugepaged
    /// collapses it (Linux default: about 1/2 with `max_ptes_none`).
    pub khugepaged_collapse_threshold: f64,
}

impl ThpConfig {
    /// Linux-like defaults with THP enabled.
    pub fn linux_default() -> Self {
        ThpConfig {
            mode: ThpMode::Always,
            zeroed_pool_capacity: 8,
            khugepaged_scan_batch: 8,
            khugepaged_collapse_threshold: 0.5,
        }
    }

    /// THP disabled.
    pub fn disabled() -> Self {
        ThpConfig {
            mode: ThpMode::Never,
            ..ThpConfig::linux_default()
        }
    }
}

impl Default for ThpConfig {
    fn default() -> Self {
        ThpConfig::linux_default()
    }
}

/// The pool of pre-zeroed 2 MiB pages maintained by a background zeroing
/// thread. Faults that can take a page from the pool skip the ~2 MiB memset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ZeroedPagePool {
    pages: Vec<PhysAddr>,
    capacity: u32,
    /// Pages handed out from the pool (zeroing skipped).
    pub pool_hits: Counter,
    /// Requests that found the pool empty (zeroing paid inline).
    pub pool_misses: Counter,
}

impl ZeroedPagePool {
    /// Creates a pool with the given capacity.
    pub fn new(capacity: u32) -> Self {
        ZeroedPagePool {
            capacity,
            ..ZeroedPagePool::default()
        }
    }

    /// Takes a pre-zeroed page if one is available.
    pub fn take(&mut self) -> Option<PhysAddr> {
        match self.pages.pop() {
            Some(p) => {
                self.pool_hits.inc();
                Some(p)
            }
            None => {
                self.pool_misses.inc();
                None
            }
        }
    }

    /// Refills the pool from the buddy allocator (background work, not
    /// charged to any fault).
    pub fn refill(&mut self, buddy: &mut BuddyAllocator) {
        while (self.pages.len() as u32) < self.capacity {
            match buddy.alloc(ORDER_2M) {
                Ok(p) => self.pages.push(p),
                Err(_) => break,
            }
        }
    }

    /// Number of zeroed pages currently pooled.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` when no zeroed pages are pooled.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// One region collapse performed by khugepaged: the 4 KiB mappings that
/// were removed (whose frames were freed — any cached translation of them
/// is stale and must be shot down) and the 2 MiB mapping that replaced
/// them on a *new* physical frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollapseEvent {
    /// The huge mapping now covering the region.
    pub huge: crate::fault::Mapping,
    /// The base mappings the collapse removed and copied out of.
    pub removed: Vec<crate::fault::Mapping>,
}

/// The khugepaged background daemon: scans process address spaces and
/// collapses runs of 4 KiB pages into 2 MiB pages (Fig. 6's "KHugePage
/// Scanning" box).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KhugepagedDaemon {
    /// Regions (2 MiB-aligned virtual addresses) queued for scanning.
    queue: VecDeque<VirtAddr>,
    /// Successful collapses performed.
    pub collapses: Counter,
    /// Regions scanned but not collapsed.
    pub rejected_scans: Counter,
}

impl KhugepagedDaemon {
    /// Creates an idle daemon.
    pub fn new() -> Self {
        KhugepagedDaemon::default()
    }

    /// Notifies the daemon that a 4 KiB page was faulted into the 2 MiB
    /// region containing `addr` (Linux calls this from the fault path).
    pub fn notify(&mut self, addr: VirtAddr) {
        let region = addr.page_base(PageSize::Size2M);
        if !self.queue.contains(&region) {
            self.queue.push_back(region);
        }
    }

    /// Number of regions pending scan.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Scans up to `config.khugepaged_scan_batch` queued regions of
    /// `process`, collapsing those whose 4 KiB population exceeds the
    /// threshold and for which a free 2 MiB page can be allocated. Returns
    /// the kernel instruction stream describing the work (for injection)
    /// and one [`CollapseEvent`] per collapsed region — the caller must
    /// shoot down the removed base translations (their frames were freed)
    /// and install the replacement huge mapping.
    pub fn scan(
        &mut self,
        config: &ThpConfig,
        process: &mut Process,
        buddy: &mut BuddyAllocator,
    ) -> (KernelInstructionStream, Vec<CollapseEvent>) {
        let mut stream = KernelInstructionStream::new(KernelRoutine::Khugepaged);
        let mut collapses = Vec::new();
        for _ in 0..config.khugepaged_scan_batch {
            let Some(region) = self.queue.pop_front() else {
                break;
            };
            // Scanning the 512 PTEs of the region.
            stream.compute(512 * 4);
            for i in 0..8u64 {
                stream.load(PhysAddr::new(0xFFFF_B000_0000_0000 + i * 64));
            }
            let present = process.mapped_4k_in_region(region);
            let threshold = (PageSize::Size2M.base_pages() as f64
                * config.khugepaged_collapse_threshold) as u64;
            if present == 0 || present < threshold {
                self.rejected_scans.inc();
                continue;
            }
            let Ok(huge_frame) = buddy.alloc(ORDER_2M) else {
                self.rejected_scans.inc();
                continue;
            };
            // Copy all present 4 KiB pages into the huge page and release
            // their frames.
            let huge = crate::fault::Mapping {
                vaddr: region,
                paddr: huge_frame,
                page_size: PageSize::Size2M,
            };
            let removed = process.collapse_to_huge(region, huge);
            for (i, old) in removed.iter().enumerate() {
                // Copying one 4 KiB page: 64 cache lines read + written.
                stream.compute(32);
                stream.load(old.paddr);
                stream.store(huge_frame.add(i as u64 * 4096));
                let _ = buddy.free(old.paddr, 0);
            }
            self.collapses.inc();
            collapses.push(CollapseEvent { huge, removed });
        }
        (stream, collapses)
    }
}

/// Reservation-based THP (the CR-THP / AR-THP allocators of Fig. 16):
/// on the first 4 KiB fault in a 2 MiB region, a whole 2 MiB physical region
/// is reserved; 4 KiB pages are handed out from within it; once the
/// populated fraction crosses `promote_threshold`, the region is promoted to
/// a single 2 MiB mapping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReservationThp {
    /// Fraction of 4 KiB pages that must be populated before promotion
    /// (0.5 for the conservative allocator, 0.1 for the aggressive one).
    pub promote_threshold: f64,
    /// Active reservations: 2 MiB-aligned virtual region → reservation.
    reservations: BTreeMap<u64, Reservation>,
    /// Promotions performed.
    pub promotions: Counter,
    /// Reservations broken because physical memory ran out.
    pub broken_reservations: Counter,
}

/// One 2 MiB physical reservation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Reservation {
    phys_base: PhysAddr,
    populated: u64,
    promoted: bool,
}

impl ReservationThp {
    /// Creates a reservation tracker with the given promotion threshold.
    pub fn new(promote_threshold: f64) -> Self {
        ReservationThp {
            promote_threshold,
            reservations: BTreeMap::new(),
            promotions: Counter::new(),
            broken_reservations: Counter::new(),
        }
    }

    /// The conservative allocator of the paper (promotes at 50%).
    pub fn conservative() -> Self {
        ReservationThp::new(0.5)
    }

    /// The aggressive allocator of the paper (promotes at 10%).
    pub fn aggressive() -> Self {
        ReservationThp::new(0.1)
    }

    /// Handles a 4 KiB fault at `addr` under reservation-based THP.
    ///
    /// Returns `(frame, promote_to)` where `frame` is the 4 KiB frame to map
    /// and `promote_to` is `Some(huge_mapping_base)` when this fault crossed
    /// the promotion threshold and the whole region should now be mapped as
    /// one 2 MiB page.
    pub fn on_fault(
        &mut self,
        addr: VirtAddr,
        buddy: &mut BuddyAllocator,
        stream: &mut KernelInstructionStream,
    ) -> Option<(PhysAddr, Option<PhysAddr>)> {
        let region = addr.page_base(PageSize::Size2M);
        let offset_pages = (addr.raw() - region.raw()) / 4096;
        stream.compute(50);
        stream.load(PhysAddr::new(
            0xFFFF_C000_0000_0000 + (region.raw() >> 12) % 4096,
        ));

        let entry = self.reservations.entry(region.raw());
        let reservation = match entry {
            std::collections::btree_map::Entry::Occupied(o) => o.into_mut(),
            std::collections::btree_map::Entry::Vacant(v) => {
                // Reserve a fresh 2 MiB physical region.
                match buddy.alloc_traced(ORDER_2M, Some(stream)) {
                    Ok(base) => v.insert(Reservation {
                        phys_base: base,
                        populated: 0,
                        promoted: false,
                    }),
                    Err(_) => {
                        self.broken_reservations.inc();
                        return None;
                    }
                }
            }
        };
        if reservation.promoted {
            // Already promoted: the caller should find the huge mapping.
            return Some((reservation.phys_base.add(offset_pages * 4096), None));
        }
        reservation.populated += 1;
        let frame = reservation.phys_base.add(offset_pages * 4096);
        let threshold =
            (PageSize::Size2M.base_pages() as f64 * self.promote_threshold).max(1.0) as u64;
        let promote = if reservation.populated >= threshold {
            reservation.promoted = true;
            self.promotions.inc();
            stream.compute(512 * 2);
            Some(reservation.phys_base)
        } else {
            None
        };
        Some((frame, promote))
    }

    /// Forgets every reservation. Used when the OOM killer tears a process
    /// down: victim frames inside reserved regions go back to the buddy
    /// allocator, so keeping the reservations would let a later promotion
    /// hand out frames the allocator already reuses. Unfaulted portions of
    /// surviving processes' reservations stay allocated (they leak until
    /// those regions fault through fresh reservations) — safe, if wasteful,
    /// which is the right trade under an OOM kill.
    pub fn clear(&mut self) {
        self.reservations.clear();
    }
}

/// hugetlbfs: explicit huge-page reservations made at `mmap` time. The pool
/// holds pre-allocated 2 MiB pages that faults in hugetlb VMAs consume.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HugetlbPool {
    pages: Vec<PhysAddr>,
    /// Faults served from the pool.
    pub served: Counter,
}

impl HugetlbPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        HugetlbPool::default()
    }

    /// Reserves `count` huge pages from the buddy allocator. Returns how
    /// many were actually reserved.
    pub fn reserve(&mut self, count: usize, buddy: &mut BuddyAllocator) -> usize {
        let mut reserved = 0;
        for _ in 0..count {
            match buddy.alloc(ORDER_2M) {
                Ok(p) => {
                    self.pages.push(p);
                    reserved += 1;
                }
                Err(_) => break,
            }
        }
        reserved
    }

    /// Takes one reserved huge page.
    pub fn take(&mut self) -> Option<PhysAddr> {
        let p = self.pages.pop();
        if p.is_some() {
            self.served.inc();
        }
        p
    }

    /// Returns a huge page to the pool (a hugetlb mapping torn down when
    /// its owner exited or was killed). The frame stays reserved for future
    /// hugetlb faults instead of going back to the buddy allocator,
    /// mirroring how Linux keeps hugetlbfs pages in the free hugepage pool.
    pub fn release(&mut self, frame: PhysAddr) {
        self.pages.push(frame);
    }

    /// Number of reserved pages remaining.
    pub fn available(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Mapping;

    const MB: u64 = 1024 * 1024;

    fn stream() -> KernelInstructionStream {
        KernelInstructionStream::new(KernelRoutine::ThpReservation)
    }

    #[test]
    fn zeroed_pool_hits_and_misses() {
        let mut buddy = BuddyAllocator::new(64 * MB);
        let mut pool = ZeroedPagePool::new(2);
        assert!(pool.take().is_none());
        assert_eq!(pool.pool_misses.get(), 1);
        pool.refill(&mut buddy);
        assert_eq!(pool.len(), 2);
        assert!(pool.take().is_some());
        assert_eq!(pool.pool_hits.get(), 1);
    }

    #[test]
    fn khugepaged_collapses_populated_regions() {
        let mut buddy = BuddyAllocator::new(256 * MB);
        let mut process = Process::new();
        let mut daemon = KhugepagedDaemon::new();
        let config = ThpConfig::linux_default();
        let region = VirtAddr::new(0x4000_0000);
        // Populate 400 of 512 pages (above the 50% threshold).
        for i in 0..400u64 {
            let frame = buddy.alloc(0).unwrap();
            process.insert_mapping(Mapping {
                vaddr: region.add(i * 4096),
                paddr: frame,
                page_size: PageSize::Size4K,
            });
            daemon.notify(region.add(i * 4096));
        }
        assert_eq!(daemon.pending(), 1);
        let (stream, collapses) = daemon.scan(&config, &mut process, &mut buddy);
        assert_eq!(daemon.collapses.get(), 1);
        assert!(stream.instruction_count() > 1000);
        // The collapse is reported so the caller can shoot down the 400
        // removed base translations and install the huge replacement.
        assert_eq!(collapses.len(), 1);
        assert_eq!(collapses[0].removed.len(), 400);
        assert_eq!(collapses[0].huge.page_size, PageSize::Size2M);
        assert_eq!(collapses[0].huge.vaddr, region);
        assert_eq!(
            process
                .lookup_mapping(region.add(0x5000))
                .unwrap()
                .page_size,
            PageSize::Size2M
        );
    }

    #[test]
    fn khugepaged_skips_sparse_regions() {
        let mut buddy = BuddyAllocator::new(64 * MB);
        let mut process = Process::new();
        let mut daemon = KhugepagedDaemon::new();
        let config = ThpConfig::linux_default();
        let region = VirtAddr::new(0x4000_0000);
        for i in 0..10u64 {
            let frame = buddy.alloc(0).unwrap();
            process.insert_mapping(Mapping {
                vaddr: region.add(i * 4096),
                paddr: frame,
                page_size: PageSize::Size4K,
            });
        }
        daemon.notify(region);
        let (_, collapses) = daemon.scan(&config, &mut process, &mut buddy);
        assert!(collapses.is_empty());
        assert_eq!(daemon.collapses.get(), 0);
        assert_eq!(daemon.rejected_scans.get(), 1);
    }

    #[test]
    fn reservation_thp_promotes_at_threshold() {
        let mut buddy = BuddyAllocator::new(64 * MB);
        let mut thp = ReservationThp::aggressive();
        let region = VirtAddr::new(0x8000_0000);
        let mut promoted = None;
        // 10% of 512 = 52 (rounded); fault 52 distinct pages.
        for i in 0..52u64 {
            let mut s = stream();
            let (frame, promote) = thp
                .on_fault(region.add(i * 4096), &mut buddy, &mut s)
                .unwrap();
            assert!(
                frame.raw() < 64 * MB,
                "frame must come from the reservation"
            );
            if promote.is_some() {
                promoted = promote;
            }
        }
        assert!(promoted.is_some(), "aggressive THP should promote at ~10%");
        assert_eq!(thp.promotions.get(), 1);
    }

    #[test]
    fn conservative_promotes_later_than_aggressive() {
        let mut buddy_a = BuddyAllocator::new(64 * MB);
        let mut buddy_c = BuddyAllocator::new(64 * MB);
        let mut aggressive = ReservationThp::aggressive();
        let mut conservative = ReservationThp::conservative();
        let region = VirtAddr::new(0x8000_0000);
        let mut first_promote_a = None;
        let mut first_promote_c = None;
        for i in 0..512u64 {
            let mut s = stream();
            if let Some((_, Some(_))) =
                aggressive.on_fault(region.add(i * 4096), &mut buddy_a, &mut s)
            {
                first_promote_a.get_or_insert(i);
            }
            let mut s = stream();
            if let Some((_, Some(_))) =
                conservative.on_fault(region.add(i * 4096), &mut buddy_c, &mut s)
            {
                first_promote_c.get_or_insert(i);
            }
        }
        assert!(first_promote_a.unwrap() < first_promote_c.unwrap());
    }

    #[test]
    fn reservation_falls_back_when_memory_exhausted() {
        // Tiny memory: a single 2 MiB region, already consumed.
        let mut buddy = BuddyAllocator::new(2 * MB);
        let _hold = buddy.alloc(ORDER_2M).unwrap();
        let mut thp = ReservationThp::conservative();
        let mut s = stream();
        assert!(thp
            .on_fault(VirtAddr::new(0x8000_0000), &mut buddy, &mut s)
            .is_none());
        assert_eq!(thp.broken_reservations.get(), 1);
    }

    #[test]
    fn hugetlb_pool_reserves_and_serves() {
        let mut buddy = BuddyAllocator::new(16 * MB);
        let mut pool = HugetlbPool::new();
        let reserved = pool.reserve(4, &mut buddy);
        assert_eq!(reserved, 4);
        assert_eq!(pool.available(), 4);
        assert!(pool.take().is_some());
        assert_eq!(pool.served.get(), 1);
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn hugetlb_reserve_stops_at_capacity() {
        let mut buddy = BuddyAllocator::new(4 * MB);
        let mut pool = HugetlbPool::new();
        assert_eq!(pool.reserve(10, &mut buddy), 2);
    }
}

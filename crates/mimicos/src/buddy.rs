//! The buddy physical-frame allocator, imitating Linux's zoned buddy
//! allocator, with controllable external fragmentation.
//!
//! The allocator manages physical memory as 4 KiB base frames grouped into
//! power-of-two blocks up to 1 GiB (order 18). Allocation requests of a
//! given order split larger blocks; frees coalesce buddies back together.
//!
//! Two features matter for the paper's experiments:
//!
//! * **Fragmentation injection** ([`BuddyAllocator::fragment`]): the paper
//!   defines memory fragmentation as the percentage of free 2 MB regions out
//!   of all 2 MB regions and sweeps it in Figs. 13 and 21. The allocator can
//!   be pre-fragmented to a target level by pinning single 4 KiB frames
//!   inside a fraction of the 2 MB blocks.
//! * **Kernel-work emission**: every allocation/free can report the
//!   free-list manipulations it performed as a [`KernelInstructionStream`]
//!   so the framework can charge the core model for them.

use crate::kernel_stream::{KernelInstructionStream, KernelRoutine};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use vm_types::{Counter, DetRng, PageSize, PhysAddr, VmError, VmResult};

/// Order of a 4 KiB frame.
pub const ORDER_4K: u32 = 0;
/// Order of a 2 MiB block.
pub const ORDER_2M: u32 = 9;
/// Order of a 1 GiB block.
pub const ORDER_1G: u32 = 18;
/// Largest order managed by the allocator.
pub const MAX_ORDER: u32 = ORDER_1G;

const FRAME_BYTES: u64 = 4096;
/// Low bits of an `allocated` value holding its run's block order; the
/// bits above them hold the run's block count.
const ORDER_BITS: u32 = 5;
/// Most blocks one `allocated` run holds (the largest count that fits).
const MAX_RUN: u32 = u32::MAX >> ORDER_BITS;

/// An `allocated` value: a run of `count` blocks of `order`.
const fn pack_run(count: u32, order: u32) -> u32 {
    count << ORDER_BITS | order
}

/// The block count and order an `allocated` value packs.
const fn unpack_run(run: u32) -> (u32, u32) {
    (run >> ORDER_BITS, run & ((1 << ORDER_BITS) - 1))
}

/// Statistics maintained by the buddy allocator.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuddyStats {
    /// Successful allocations, by any order.
    pub allocations: Counter,
    /// Frees.
    pub frees: Counter,
    /// Block splits performed while allocating.
    pub splits: Counter,
    /// Buddy merges performed while freeing.
    pub merges: Counter,
    /// Allocation requests that could not be satisfied.
    pub failures: Counter,
    /// Allocations that had to fall back to a smaller order than requested.
    pub fallbacks: Counter,
}

/// The buddy allocator.
///
/// # Examples
///
/// ```
/// use mimic_os::buddy::{BuddyAllocator, ORDER_2M};
///
/// let mut buddy = BuddyAllocator::new(64 * 1024 * 1024); // 64 MB
/// let frame = buddy.alloc(0).unwrap();
/// let huge = buddy.alloc(ORDER_2M).unwrap();
/// buddy.free(frame, 0).unwrap();
/// buddy.free(huge, ORDER_2M).unwrap();
/// assert_eq!(buddy.free_bytes(), 64 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BuddyAllocator {
    total_frames: u64,
    /// Free lists: for each order, the set of free block start frames.
    free_lists: Vec<BTreeSet<u64>>,
    /// Allocated blocks, run-length encoded (for validation on free): each
    /// entry is a run of blocks of one order at consecutive addresses,
    /// keyed by its first frame, its value packing the block count and the
    /// order (`pack_run`). An allocation that continues the run ending at
    /// its frame extends that run in place, so sequential 4 KiB faults cost
    /// one entry per stretch rather than one per frame, and an isolated
    /// block costs one entry, as in a block map. The frames pinned by
    /// [`BuddyAllocator::fragment`] are one-block order-0 runs.
    allocated: BTreeMap<u64, u32>,
    free_frames: u64,
    stats: BuddyStats,
}

impl BuddyAllocator {
    /// Creates an allocator managing `capacity_bytes` of physical memory
    /// starting at physical address 0.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is not a multiple of 4 KiB or is zero.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "capacity must be non-zero");
        assert_eq!(
            capacity_bytes % FRAME_BYTES,
            0,
            "capacity must be a multiple of 4 KiB"
        );
        let total_frames = capacity_bytes / FRAME_BYTES;
        let mut alloc = BuddyAllocator {
            total_frames,
            free_lists: vec![BTreeSet::new(); (MAX_ORDER + 1) as usize],
            allocated: BTreeMap::new(),
            free_frames: total_frames,
            stats: BuddyStats::default(),
        };
        // Seed the free lists with the largest blocks that fit.
        let mut frame = 0;
        while frame < total_frames {
            let mut order = MAX_ORDER;
            loop {
                let block = 1u64 << order;
                if frame % block == 0 && frame + block <= total_frames {
                    break;
                }
                order -= 1;
            }
            alloc.free_lists[order as usize].insert(frame);
            frame += 1 << order;
        }
        alloc
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_frames * FRAME_BYTES
    }

    /// Currently free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.free_frames * FRAME_BYTES
    }

    /// Fraction of memory currently in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        1.0 - self.free_frames as f64 / self.total_frames as f64
    }

    /// Allocator statistics.
    pub fn stats(&self) -> &BuddyStats {
        &self.stats
    }

    /// Whether a block of the given order could be allocated right now.
    pub fn can_alloc(&self, order: u32) -> bool {
        (order..=MAX_ORDER).any(|o| !self.free_lists[o as usize].is_empty())
    }

    /// Number of *available* 2 MiB regions: free blocks of order ≥ 9,
    /// counted in units of 2 MiB. This is the numerator of the paper's
    /// fragmentation metric.
    pub fn available_2mb_regions(&self) -> u64 {
        (ORDER_2M..=MAX_ORDER)
            .map(|o| self.free_lists[o as usize].len() as u64 * (1u64 << (o - ORDER_2M)))
            .sum()
    }

    /// Total number of 2 MiB regions in the managed memory.
    pub fn total_2mb_regions(&self) -> u64 {
        self.total_frames >> ORDER_2M
    }

    /// The paper's memory-fragmentation metric: percentage of 2 MiB regions
    /// that are fully free, in `[0, 1]`.
    pub fn huge_page_availability(&self) -> f64 {
        if self.total_2mb_regions() == 0 {
            return 0.0;
        }
        self.available_2mb_regions() as f64 / self.total_2mb_regions() as f64
    }

    /// Allocates a block of `2^order` frames, splitting larger blocks as
    /// needed. Returns the physical address of the block.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] when no block of the requested order
    /// (or larger) is free.
    pub fn alloc(&mut self, order: u32) -> VmResult<PhysAddr> {
        self.alloc_traced(order, None)
    }

    /// Like [`BuddyAllocator::alloc`], recording the free-list work into the
    /// supplied kernel instruction stream.
    pub fn alloc_traced(
        &mut self,
        order: u32,
        mut stream: Option<&mut KernelInstructionStream>,
    ) -> VmResult<PhysAddr> {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        if let Some(s) = stream.as_deref_mut() {
            // Fast-path bookkeeping of alloc_pages(): gfp checks, zone
            // selection, per-cpu list check.
            s.compute(60);
        }
        // Find the smallest order with a free block.
        let found = (order..=MAX_ORDER).find(|&o| !self.free_lists[o as usize].is_empty());
        let Some(mut cur_order) = found else {
            self.stats.failures.inc();
            return Err(VmError::OutOfMemory {
                requested: (1u64 << order) * FRAME_BYTES,
                free: self.free_bytes(),
            });
        };
        let frame = *self.free_lists[cur_order as usize]
            .iter()
            .next()
            .expect("free list non-empty");
        self.free_lists[cur_order as usize].remove(&frame);
        if let Some(s) = stream.as_deref_mut() {
            s.load(self.freelist_node_addr(frame));
        }
        // Split down to the requested order.
        while cur_order > order {
            cur_order -= 1;
            let buddy = frame + (1u64 << cur_order);
            self.free_lists[cur_order as usize].insert(buddy);
            self.stats.splits.inc();
            if let Some(s) = stream.as_deref_mut() {
                s.compute(15);
                s.store(self.freelist_node_addr(buddy));
            }
        }
        self.record_block(frame, order);
        self.free_frames -= 1 << order;
        self.stats.allocations.inc();
        Ok(PhysAddr::new(frame * FRAME_BYTES))
    }

    /// Allocates preferring `order`, falling back to progressively smaller
    /// orders down to `min_order`. Returns the block address and the order
    /// actually obtained.
    pub fn alloc_with_fallback(
        &mut self,
        order: u32,
        min_order: u32,
        stream: Option<&mut KernelInstructionStream>,
    ) -> VmResult<(PhysAddr, u32)> {
        let mut stream = stream;
        for o in (min_order..=order).rev() {
            if self.can_alloc(o) {
                let addr = self.alloc_traced(o, stream.as_deref_mut())?;
                if o != order {
                    self.stats.fallbacks.inc();
                }
                return Ok((addr, o));
            }
        }
        self.stats.failures.inc();
        Err(VmError::OutOfMemory {
            requested: (1u64 << min_order) * FRAME_BYTES,
            free: self.free_bytes(),
        })
    }

    /// Splits the *allocated* block covering `addr` into individually
    /// allocated 4 KiB frames (pure accounting — no frame becomes free).
    /// This is the allocator side of THP demotion (`split_huge_page`):
    /// after the split, each base frame can be freed on its own as reclaim
    /// swaps individual pages out, and later frees coalesce back normally.
    /// Works on any block order, so a 2 MiB mapping carved out of a larger
    /// eager-paging allocation splits its whole containing block.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidFree`] if no allocated block covers
    /// `addr` (e.g. a Utopia RestSeg frame outside the buddy's memory).
    pub fn split_allocated(&mut self, addr: PhysAddr) -> VmResult<()> {
        let frame = addr.raw() / FRAME_BYTES;
        let Some((start, run)) = self.covering_run(frame) else {
            return Err(VmError::InvalidFree { paddr: addr });
        };
        let order = unpack_run(run).1;
        if order == ORDER_4K {
            return Ok(()); // already a base frame
        }
        let block = frame & !((1u64 << order) - 1);
        self.cut_run(start, run, block);
        self.allocated.insert(block, pack_run(1 << order, ORDER_4K));
        // Shattering an order-k block into base frames is 2^k - 1 buddy
        // splits, mirroring the 2^k - 1 merges the frees will record.
        self.stats.splits.add((1u64 << order) - 1);
        Ok(())
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc`] with
    /// the same order, coalescing buddies.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidFree`] if the block was not allocated with
    /// that order.
    pub fn free(&mut self, addr: PhysAddr, order: u32) -> VmResult<()> {
        self.free_traced(addr, order, None)
    }

    /// Like [`BuddyAllocator::free`], recording the free-list work.
    pub fn free_traced(
        &mut self,
        addr: PhysAddr,
        order: u32,
        mut stream: Option<&mut KernelInstructionStream>,
    ) -> VmResult<()> {
        let frame = addr.raw() / FRAME_BYTES;
        match self.covering_run(frame) {
            Some((start, run))
                if unpack_run(run).1 == order && frame & ((1u64 << order) - 1) == 0 =>
            {
                self.cut_run(start, run, frame);
            }
            _ => return Err(VmError::InvalidFree { paddr: addr }),
        }
        self.free_frames += 1 << order;
        self.stats.frees.inc();
        if let Some(s) = stream.as_deref_mut() {
            s.compute(40);
        }

        // Coalesce with the buddy while possible.
        let mut frame = frame;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = frame ^ (1u64 << order);
            if self.free_lists[order as usize].remove(&buddy) {
                self.stats.merges.inc();
                frame = frame.min(buddy);
                order += 1;
                if let Some(s) = stream.as_deref_mut() {
                    s.compute(10);
                    s.store(self.freelist_node_addr(frame));
                }
            } else {
                break;
            }
        }
        self.free_lists[order as usize].insert(frame);
        if let Some(s) = stream {
            s.store(self.freelist_node_addr(frame));
        }
        Ok(())
    }

    /// Pre-fragments memory so that only `target_free_fraction` of the 2 MiB
    /// regions remain fully free (the paper's fragmentation knob). This pins
    /// one 4 KiB frame inside each sacrificed 2 MiB region.
    ///
    /// Fragmentation can only be increased (the fraction can only go down);
    /// calling with a fraction above the current availability is a no-op.
    ///
    /// The victims are every fully free region in free-list order, shuffled
    /// once; each then draws its pinned frame's offset, in victim order. The
    /// end state is the one pinning the frames one at a time would reach,
    /// which does not depend on their order, so it is built directly (by
    /// `pin_frames`) rather than by splitting frame by frame.
    pub fn fragment(&mut self, target_free_fraction: f64, rng: &mut DetRng) {
        let target_free_fraction = target_free_fraction.clamp(0.0, 1.0);
        let total = self.total_2mb_regions();
        let target_free = (total as f64 * target_free_fraction).round() as u64;
        // Candidate regions, as 2 MiB region indices: all currently fully
        // free 2 MiB regions.
        let mut candidates: Vec<u32> = Vec::with_capacity(self.available_2mb_regions() as usize);
        for order in ORDER_2M..=MAX_ORDER {
            for &start in &self.free_lists[order as usize] {
                let first = start >> ORDER_2M;
                let regions = first..first + (1 << (order - ORDER_2M));
                candidates
                    .extend(regions.map(|r| u32::try_from(r).expect("region index fits u32")));
            }
        }
        let currently_free = candidates.len() as u64;
        if currently_free <= target_free {
            return;
        }
        rng.shuffle(&mut candidates);
        candidates.truncate((currently_free - target_free) as usize);
        // Pin one 4 KiB frame at a random offset inside each victim region.
        let mut pinned: Vec<u64> = candidates
            .iter()
            .map(|&region| (u64::from(region) << ORDER_2M) + rng.gen_range(0, 512))
            .collect();
        drop(candidates);
        pinned.sort_unstable();
        self.pin_frames(&pinned);
    }

    /// Allocates the given 4 KiB frames as order-0 blocks. `pinned` is
    /// sorted, and each frame lies in its own fully free 2 MiB region.
    ///
    /// A free block holding pinned frames is split exactly where splitting
    /// one frame at a time would split it: every block on a pinned frame's
    /// path is broken into halves, and a half holding no pinned frame stays
    /// free. So for each order `o`, every block of order `o + 1` that holds
    /// a pinned frame (and lies inside a broken free block) is one split and
    /// leaves at most one free half at order `o`. Below 2 MiB that half is
    /// the sibling on the frame's path. Walking the sorted frames yields
    /// each order's new free blocks in ascending order, so each free list,
    /// and `allocated`, is extended by one bulk build.
    fn pin_frames(&mut self, pinned: &[u64]) {
        // Take each broken free block off its list. `runs` holds, for each
        // one, its order and the index of its first pinned frame.
        let mut runs: Vec<(usize, u32)> = Vec::new();
        let mut block_end = 0;
        for (i, &frame) in pinned.iter().enumerate() {
            if frame < block_end {
                continue;
            }
            let (start, order) = (ORDER_2M..=MAX_ORDER)
                .map(|order| (frame & !((1u64 << order) - 1), order))
                .find(|(start, order)| self.free_lists[*order as usize].remove(start))
                .expect("a pinned frame lies in a free 2 MiB region");
            block_end = start + (1 << order);
            runs.push((i, order));
        }
        for order in 0..ORDER_2M {
            let mut freed: BTreeSet<u64> = pinned
                .iter()
                .map(|&f| ((f >> order) ^ 1) << order)
                .collect();
            self.free_lists[order as usize].append(&mut freed);
        }
        self.stats
            .splits
            .add(u64::from(ORDER_2M) * pinned.len() as u64);
        for order in ORDER_2M..MAX_ORDER {
            let mut freed = Vec::new();
            for (r, &(first, block_order)) in runs.iter().enumerate() {
                if block_order <= order {
                    continue;
                }
                let end = runs.get(r + 1).map_or(pinned.len(), |&(next, _)| next);
                let same_parent = |a: &u64, b: &u64| a >> (order + 1) == b >> (order + 1);
                for siblings in pinned[first..end].chunk_by(same_parent) {
                    self.stats.splits.inc();
                    let parent = siblings[0] & !((2u64 << order) - 1);
                    let upper = parent + (1 << order);
                    if siblings[0] >= upper {
                        freed.push(parent);
                    } else if siblings[siblings.len() - 1] < upper {
                        freed.push(upper);
                    }
                }
            }
            let mut freed: BTreeSet<u64> = freed.into_iter().collect();
            self.free_lists[order as usize].append(&mut freed);
        }
        let mut frames: BTreeMap<u64, u32> =
            pinned.iter().map(|&f| (f, pack_run(1, ORDER_4K))).collect();
        self.allocated.append(&mut frames);
        self.free_frames -= pinned.len() as u64;
    }

    /// The `allocated` run holding the block that covers `frame`: its first
    /// frame and its packed value.
    fn covering_run(&self, frame: u64) -> Option<(u64, u32)> {
        let (&start, &run) = self.allocated.range(..=frame).next_back()?;
        let (count, order) = unpack_run(run);
        (frame < start + (u64::from(count) << order)).then_some((start, run))
    }

    /// Records the newly allocated block of `order` at `frame`: extends the
    /// run ending at `frame` if it holds blocks of the same order and has
    /// room, else starts a run.
    fn record_block(&mut self, frame: u64, order: u32) {
        if let Some((&start, run)) = self.allocated.range_mut(..frame).next_back() {
            let (count, run_order) = unpack_run(*run);
            if run_order == order && count < MAX_RUN && start + (u64::from(count) << order) == frame
            {
                *run = pack_run(count + 1, order);
                return;
            }
        }
        self.allocated.insert(frame, pack_run(1, order));
    }

    /// Cuts the block starting at `block` out of the `allocated` run
    /// `(start, run)` that holds it: the blocks before it stay in the entry
    /// at `start` (which goes if there are none), the blocks after it move
    /// to an entry of their own.
    fn cut_run(&mut self, start: u64, run: u32, block: u64) {
        let (count, order) = unpack_run(run);
        let before = ((block - start) >> order) as u32;
        if before == 0 {
            self.allocated.remove(&start);
        } else {
            self.allocated.insert(start, pack_run(before, order));
        }
        let after = count - before - 1;
        if after > 0 {
            self.allocated
                .insert(block + (1 << order), pack_run(after, order));
        }
    }

    /// Physical address of the free-list node metadata for a block starting
    /// at `frame` (the `struct page` of its first frame). Used to emit
    /// realistic kernel memory references.
    fn freelist_node_addr(&self, frame: u64) -> PhysAddr {
        // struct page array lives at the top of physical memory in the model:
        // 64 bytes per frame.
        PhysAddr::new(self.total_frames * FRAME_BYTES + frame * 64)
    }

    /// Builds a kernel stream describing a standalone buddy allocation, for
    /// callers that want the work without performing it inline.
    pub fn new_alloc_stream() -> KernelInstructionStream {
        KernelInstructionStream::new(KernelRoutine::BuddyAlloc)
    }
}

/// Converts a page size to its buddy order.
pub fn order_for(size: PageSize) -> u32 {
    size.order_4k()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn fresh_allocator_is_fully_free() {
        let b = BuddyAllocator::new(256 * MB);
        assert_eq!(b.free_bytes(), 256 * MB);
        assert_eq!(b.utilization(), 0.0);
        assert!((b.huge_page_availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_allocated_lets_base_frames_free_individually() {
        let mut b = BuddyAllocator::new(64 * MB);
        let huge = b.alloc(ORDER_2M).unwrap();
        // Whole-block accounting: freeing a 4 KiB piece is invalid...
        assert!(b.free(huge, 0).is_err());
        b.split_allocated(huge).unwrap();
        // ...until the block is split; then each piece frees on its own.
        // A second split is a no-op (the frame is already order 0).
        assert!(b.split_allocated(huge).is_ok());
        let free_before = b.free_bytes();
        for i in 0..512u64 {
            b.free(huge.add(i * 4096), 0).unwrap();
        }
        assert_eq!(b.free_bytes(), free_before + 2 * MB);
        // The pieces coalesced back: the full 2 MiB block is allocatable.
        assert!(b.can_alloc(ORDER_2M));
        // An interior address of a larger block splits the whole block.
        let big = b.alloc(ORDER_2M + 2).unwrap();
        b.split_allocated(big.add(3 * 2 * MB)).unwrap();
        b.free(big.add(5 * 4096), 0).unwrap();
        // Addresses the buddy does not manage are rejected.
        assert!(b.split_allocated(PhysAddr::new(1 << 40)).is_err());
    }

    #[test]
    fn alloc_free_roundtrip_restores_capacity() {
        let mut b = BuddyAllocator::new(64 * MB);
        let a = b.alloc(0).unwrap();
        let c = b.alloc(ORDER_2M).unwrap();
        assert_eq!(b.free_bytes(), 64 * MB - 4096 - 2 * MB);
        b.free(a, 0).unwrap();
        b.free(c, ORDER_2M).unwrap();
        assert_eq!(b.free_bytes(), 64 * MB);
        // After coalescing everything the allocator must again be able to
        // hand out the largest block it started with.
        assert!(b.can_alloc(ORDER_2M));
    }

    #[test]
    fn allocations_are_aligned_to_their_order() {
        let mut b = BuddyAllocator::new(512 * MB);
        let huge = b.alloc(ORDER_2M).unwrap();
        assert!(huge.is_aligned(PageSize::Size2M));
        let frame = b.alloc(0).unwrap();
        assert!(frame.is_aligned(PageSize::Size4K));
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut b = BuddyAllocator::new(16 * MB);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let a = b.alloc(0).unwrap();
            assert!(seen.insert(a.raw()), "frame {a} handed out twice");
        }
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut b = BuddyAllocator::new(8 * MB);
        let mut held = Vec::new();
        loop {
            match b.alloc(ORDER_2M) {
                Ok(a) => held.push(a),
                Err(VmError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(held.len(), 4);
        assert_eq!(b.stats().failures.get(), 1);
    }

    #[test]
    fn double_free_is_rejected() {
        let mut b = BuddyAllocator::new(8 * MB);
        let a = b.alloc(0).unwrap();
        b.free(a, 0).unwrap();
        assert!(matches!(b.free(a, 0), Err(VmError::InvalidFree { .. })));
    }

    #[test]
    fn wrong_order_free_is_rejected() {
        let mut b = BuddyAllocator::new(8 * MB);
        let a = b.alloc(ORDER_2M).unwrap();
        assert!(matches!(b.free(a, 0), Err(VmError::InvalidFree { .. })));
    }

    #[test]
    fn splitting_and_merging_are_symmetric() {
        let mut b = BuddyAllocator::new(4 * MB);
        let a = b.alloc(0).unwrap();
        let splits = b.stats().splits.get();
        assert!(splits > 0);
        b.free(a, 0).unwrap();
        assert_eq!(b.stats().merges.get(), splits);
    }

    #[test]
    fn fallback_allocation_reports_actual_order() {
        let mut b = BuddyAllocator::new(4 * MB);
        // Fragment: pin a frame so no full 2MB block exists in one region.
        let mut rng = DetRng::new(1);
        b.fragment(0.0, &mut rng);
        let (_, order) = b.alloc_with_fallback(ORDER_2M, 0, None).unwrap();
        assert!(order < ORDER_2M);
        assert!(b.stats().fallbacks.get() > 0);
    }

    #[test]
    fn fragmentation_hits_target() {
        let mut b = BuddyAllocator::new(512 * MB);
        let mut rng = DetRng::new(7);
        b.fragment(0.25, &mut rng);
        let avail = b.huge_page_availability();
        assert!((avail - 0.25).abs() < 0.02, "availability {avail}");
        // Fragmenting "up" is a no-op.
        b.fragment(0.9, &mut rng);
        assert!(b.huge_page_availability() <= 0.26);
    }

    #[test]
    fn fragmentation_preserves_most_capacity() {
        let mut b = BuddyAllocator::new(512 * MB);
        let mut rng = DetRng::new(7);
        b.fragment(0.5, &mut rng);
        // Only one 4KB frame per broken 2MB region is pinned.
        let pinned_bytes = 512 * MB - b.free_bytes();
        assert!(pinned_bytes <= (b.total_2mb_regions() / 2 + 1) * 4096);
    }

    #[test]
    fn traced_alloc_emits_memory_references() {
        let mut b = BuddyAllocator::new(64 * MB);
        let mut stream = KernelInstructionStream::new(KernelRoutine::BuddyAlloc);
        b.alloc_traced(0, Some(&mut stream)).unwrap();
        assert!(stream.instruction_count() > 0);
        assert!(stream.memory_references() > 0);
    }

    #[test]
    fn available_2mb_counts_larger_blocks() {
        let b = BuddyAllocator::new(64 * MB);
        // 64 MB entirely free => 32 available 2MB regions.
        assert_eq!(b.available_2mb_regions(), 32);
        assert_eq!(b.total_2mb_regions(), 32);
    }

    /// The reference `fragment` is checked against: the per-victim loop it
    /// replaced, which pins each victim's frame by splitting whatever free
    /// block holds it, one victim at a time.
    impl BuddyAllocator {
        fn fragment_per_victim(&mut self, target_free_fraction: f64, rng: &mut DetRng) {
            let target_free_fraction = target_free_fraction.clamp(0.0, 1.0);
            let total = self.total_2mb_regions();
            let target_free = (total as f64 * target_free_fraction).round() as u64;
            // Candidate regions: all currently fully-free 2 MiB regions.
            let mut candidates: Vec<u64> = Vec::new();
            for order in ORDER_2M..=MAX_ORDER {
                for &start in &self.free_lists[order as usize] {
                    let regions = 1u64 << (order - ORDER_2M);
                    for r in 0..regions {
                        candidates.push(start + r * (1 << ORDER_2M));
                    }
                }
            }
            let currently_free = candidates.len() as u64;
            if currently_free <= target_free {
                return;
            }
            let to_break = (currently_free - target_free) as usize;
            rng.shuffle(&mut candidates);
            let victims: Vec<u64> = candidates.into_iter().take(to_break).collect();
            for region_start in victims {
                // Pin one 4 KiB frame at a random offset inside the region.
                let offset = rng.gen_range(0, 512);
                self.alloc_specific_frame(region_start + offset)
                    .expect("a victim region is fully free");
            }
        }

        /// Allocates one specific 4 KiB frame by splitting whatever free
        /// block contains it. Returns `None` if the frame is not free.
        fn alloc_specific_frame(&mut self, frame: u64) -> Option<PhysAddr> {
            // Find the free block containing `frame`.
            let mut containing: Option<(u32, u64)> = None;
            for order in 0..=MAX_ORDER {
                let block = 1u64 << order;
                let start = frame & !(block - 1);
                if self.free_lists[order as usize].contains(&start) {
                    containing = Some((order, start));
                    break;
                }
            }
            let (order, start) = containing?;
            self.free_lists[order as usize].remove(&start);
            // Split repeatedly, keeping the half that contains `frame`.
            let mut cur_order = order;
            let mut cur_start = start;
            while cur_order > 0 {
                cur_order -= 1;
                let half = 1u64 << cur_order;
                let (keep, give) = if frame < cur_start + half {
                    (cur_start, cur_start + half)
                } else {
                    (cur_start + half, cur_start)
                };
                self.free_lists[cur_order as usize].insert(give);
                self.stats.splits.inc();
                cur_start = keep;
            }
            debug_assert_eq!(cur_start, frame);
            self.record_block(frame, ORDER_4K);
            self.free_frames -= 1;
            Some(PhysAddr::new(frame * FRAME_BYTES))
        }
    }

    impl BuddyAllocator {
        /// Every allocated block as `(start frame, order)`, in address
        /// order: `allocated` with its runs expanded. Two allocators that
        /// built the same blocks through different histories may hold
        /// different runs (a bulk-appended pinned frame is a run of its
        /// own, one allocated next to its neighbour extends that run), so
        /// this, not `allocated`, is what they are compared on.
        fn allocated_blocks(&self) -> Vec<(u64, u32)> {
            self.allocated
                .iter()
                .flat_map(|(&start, &run)| {
                    let (count, order) = unpack_run(run);
                    (0..u64::from(count)).map(move |i| (start + (i << order), order))
                })
                .collect()
        }
    }

    /// Asserts that `fast` and `reference` hold the same state and keep
    /// answering alike: every order's free list, the allocated blocks, the
    /// stats, the free bytes, the RNG's next draw, and the results of 64
    /// follow-on `alloc` / `free` calls (made on copies, drawn from
    /// `ops_seed`).
    fn assert_same_allocator(
        (fast, fast_rng): (&BuddyAllocator, &DetRng),
        (reference, reference_rng): (&BuddyAllocator, &DetRng),
        ops_seed: u64,
        context: &str,
    ) {
        for order in 0..=MAX_ORDER as usize {
            assert_eq!(
                fast.free_lists[order], reference.free_lists[order],
                "free list of order {order} {context}"
            );
        }
        assert_eq!(
            fast.allocated_blocks(),
            reference.allocated_blocks(),
            "allocated blocks {context}"
        );
        assert_eq!(fast.stats(), reference.stats(), "stats() {context}");
        assert_eq!(
            fast.free_bytes(),
            reference.free_bytes(),
            "free_bytes() {context}"
        );
        assert_eq!(
            fast_rng.clone().next_u64(),
            reference_rng.clone().next_u64(),
            "the RNG's next draw {context}"
        );
        let (mut fast, mut reference) = (fast.clone(), reference.clone());
        let mut ops = DetRng::new(ops_seed);
        let mut held: Vec<(PhysAddr, u32)> = Vec::new();
        for step in 0..64 {
            if !held.is_empty() && ops.gen_bool(0.4) {
                let (addr, order) = held.swap_remove(ops.gen_range(0, held.len() as u64) as usize);
                assert_eq!(
                    fast.free(addr, order),
                    reference.free(addr, order),
                    "follow-on free {step} {context}"
                );
            } else {
                let order = ops.gen_range(0, 11) as u32;
                let addr = fast.alloc(order);
                assert_eq!(
                    addr,
                    reference.alloc(order),
                    "follow-on alloc {step} {context}"
                );
                held.extend(addr.ok().map(|a| (a, order)));
            }
        }
        assert_eq!(
            fast.stats(),
            reference.stats(),
            "stats() after the follow-ons {context}"
        );
    }

    /// Buddy capacities with non-power-of-two tails: 4 + 2 MiB; 1 GiB +
    /// 6 MiB; 2 + 1 GiB; `small_test`'s 224 MiB FlexSeg beside a 32 MiB
    /// Utopia RestSeg; and 10 MiB + 20 KiB, whose last 2 MiB region is
    /// partial and never a candidate.
    const CAPACITIES: [u64; 5] = [
        6 * MB,
        1024 * MB + 6 * MB,
        3 * 1024 * MB,
        224 * MB,
        10 * MB + 20 * 1024,
    ];
    /// Fixed targets; the proptest also draws a random one.
    const TARGETS: [f64; 4] = [0.0, 0.25, 0.8, 1.0];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// Differential test of `fragment` against `fragment_per_victim`,
        /// the frame-by-frame loop it replaced: fresh or already-used
        /// allocators (up to 200 random `alloc`s of orders 0–10 and `free`s,
        /// as `MimicOs::buddy_mut` callers could leave it), a fixed or random
        /// target, then a second call at a lower target; every piece of
        /// state compared after each call. The paper-scale case is
        /// `fragment_matches_the_per_victim_reference_at_paper_scale`.
        ///
        /// Seeded mutations of `fragment` / `pin_frames`, each shown to fail
        /// this test and then reverted (the assertion that fired first):
        ///
        /// | mutation | assertion that fired |
        /// |---|---|
        /// | splits counted as 9 per victim (no split above 2 MiB) | "stats() after call 0" (paper scale: 235 926 vs 308 653) |
        /// | the broken free block left on its list (`contains`, not `remove`) | "free list of order 10 after call 0" |
        /// | offsets drawn before the shuffle | "free list of order 0 after call 0" |
        /// | the upper half freed when the last frame is its first (`<=`) | "free list of order 9 after call 0" |
        /// | a free list above 2 MiB replaced, not appended to | "free list of order 11 after call 0" (needs prior allocations) |
        /// | `allocated` not extended | "allocated blocks after call 0" |
        /// | candidates gathered from the largest order down | "free list of order 0 after call 0" (needs prior allocations) |
        #[test]
        fn fragment_matches_the_per_victim_reference(
            capacity in 0..CAPACITIES.len(),
            prior in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..201),
            target in 0..TARGETS.len() + 1,
            random_target in 0.0f64..1.0,
            lower in 0.0f64..1.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut base = BuddyAllocator::new(CAPACITIES[capacity]);
            let mut held = Vec::new();
            for word in prior {
                if word >> 63 == 1 && !held.is_empty() {
                    let (addr, order) = held.swap_remove(word as usize % held.len());
                    base.free(addr, order).expect("a held block frees");
                } else if let Ok(addr) = base.alloc((word % 11) as u32) {
                    held.push((addr, (word % 11) as u32));
                }
            }
            let target = TARGETS.get(target).copied().unwrap_or(random_target);
            let (mut fast, mut reference) = (base.clone(), base);
            let (mut fast_rng, mut reference_rng) = (DetRng::new(seed), DetRng::new(seed));
            for (call, target) in [target, target * lower].into_iter().enumerate() {
                fast.fragment(target, &mut fast_rng);
                reference.fragment_per_victim(target, &mut reference_rng);
                let context = format!(
                    "after call {call} (capacity {}, target {target}, seed {seed})",
                    CAPACITIES[capacity]
                );
                assert_same_allocator(
                    (&fast, &fast_rng),
                    (&reference, &reference_rng),
                    seed ^ call as u64,
                    &context,
                );
            }
        }
    }

    /// The paper's Table 4 machine, as `MimicOs::new` boots it: 256 GiB with
    /// 80 % of its 2 MiB regions left free (26 214 victims).
    #[test]
    fn fragment_matches_the_per_victim_reference_at_paper_scale() {
        let config = crate::OsConfig::paper_baseline();
        let target = config
            .fragmentation_target
            .expect("the paper machine is fragmented");
        let mut fast = BuddyAllocator::new(config.memory_bytes);
        let mut reference = fast.clone();
        let (mut fast_rng, mut reference_rng) =
            (DetRng::new(config.seed), DetRng::new(config.seed));
        fast.fragment(target, &mut fast_rng);
        reference.fragment_per_victim(target, &mut reference_rng);
        assert!((fast.huge_page_availability() - target).abs() < 1e-4);
        assert_same_allocator(
            (&fast, &fast_rng),
            (&reference, &reference_rng),
            config.seed,
            "at paper scale",
        );
    }

    impl BuddyAllocator {
        /// The allocated block covering `frame`, as `(start frame, order)`.
        fn covering_block(&self, frame: u64) -> Option<(u64, u32)> {
            let order = unpack_run(self.covering_run(frame)?.1).1;
            Some((frame & !((1u64 << order) - 1), order))
        }
    }

    /// The representation runs replaced, kept as the oracle: one entry per
    /// allocated block, start frame → order.
    #[derive(Default)]
    struct BlockMap(BTreeMap<u64, u32>);

    impl BlockMap {
        fn covering(&self, frame: u64) -> Option<(u64, u32)> {
            let (&start, &order) = self.0.range(..=frame).next_back()?;
            (frame < start + (1u64 << order)).then_some((start, order))
        }

        /// Records a block the allocator handed out, which must not
        /// overlap one already allocated.
        fn allocate(&mut self, frame: u64, order: u32) {
            let end = frame + (1u64 << order);
            assert!(
                self.covering(frame).is_none() && self.0.range(frame..end).next().is_none(),
                "block ({frame}, {order}) overlaps an allocated block"
            );
            self.0.insert(frame, order);
        }

        fn free(&mut self, frame: u64, order: u32) -> bool {
            self.0.get(&frame) == Some(&order) && self.0.remove(&frame).is_some()
        }

        fn split(&mut self, frame: u64) -> bool {
            let Some((start, order)) = self.covering(frame) else {
                return false;
            };
            for i in 0..1u64 << order {
                self.0.insert(start + i, ORDER_4K);
            }
            true
        }

        fn blocks(&self) -> Vec<(u64, u32)> {
            self.0
                .iter()
                .map(|(&start, &order)| (start, order))
                .collect()
        }

        /// Some allocated block, picked by `pick`.
        fn pick(&self, pick: u64) -> Option<(u64, u32)> {
            let len = self.0.len() as u64;
            let (&start, &order) = self.0.iter().nth((pick % len.max(1)) as usize)?;
            Some((start, order))
        }
    }

    /// Asserts that `fast`'s runs describe exactly `reference`'s blocks: the
    /// expanded block list, then the block order at and the block covering
    /// each of 24 probe frames (around allocated blocks and anywhere),
    /// drawn from `probe_seed`.
    fn assert_runs_match(fast: &BuddyAllocator, reference: &BlockMap, probe_seed: u64, step: &str) {
        assert_eq!(
            fast.allocated_blocks(),
            reference.blocks(),
            "allocated blocks after {step}"
        );
        let mut probes = DetRng::new(probe_seed);
        for probe in 0..24 {
            let near = if probe % 2 == 0 {
                reference.pick(probes.next_u64())
            } else {
                None
            };
            let frame = match near {
                Some((start, order)) => match probes.gen_range(0, 4) {
                    0 => start.saturating_sub(1),
                    1 => start,
                    2 => start + probes.gen_range(0, 1 << order),
                    _ => start + (1 << order),
                },
                _ => probes.gen_range(0, fast.total_frames + 2),
            };
            let covering = fast.covering_block(frame);
            assert_eq!(
                covering,
                reference.covering(frame),
                "block covering frame {frame} after {step}"
            );
            assert_eq!(
                covering
                    .filter(|&(start, _)| start == frame)
                    .map(|(_, order)| order),
                reference.0.get(&frame).copied(),
                "block order at frame {frame} after {step}"
            );
        }
    }

    /// Applies `fragment(target)` to `fast` and the frames it pins to
    /// `reference`. Those are read off the free lists, not `allocated`: a
    /// pinned frame's buddy is the only free order-0 block of a 2 MiB
    /// region that was fully free before the call.
    fn fragment_both(
        fast: &mut BuddyAllocator,
        reference: &mut BlockMap,
        target: f64,
        rng: &mut DetRng,
    ) {
        let before = fast.free_lists.clone();
        let was_free = |frame: u64| {
            (ORDER_2M..=MAX_ORDER)
                .any(|order| before[order as usize].contains(&(frame & !((1u64 << order) - 1))))
        };
        fast.fragment(target, rng);
        for &buddy in fast.free_lists[ORDER_4K as usize]
            .iter()
            .filter(|&&f| was_free(f))
        {
            reference.allocate(buddy ^ 1, ORDER_4K);
        }
    }

    /// The frame `offset` (modulo the block's size) into `block`.
    fn frame_in(block: (u64, u32), offset: u64) -> u64 {
        block.0 + offset % (1u64 << block.1)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Differential test of the run-length `allocated` against
        /// [`BlockMap`], the one-entry-per-block map it replaced: random
        /// `alloc`s and `alloc_with_fallback`s of orders 0–10 (half of them
        /// order 0, so runs form), valid and invalid `free`s (wrong order,
        /// interior frame, never allocated), `split_allocated` on block
        /// starts, interiors and free frames, and `fragment`. After every
        /// op, its result and `assert_runs_match`. The paper-scale case is
        /// `allocated_runs_match_the_block_map_at_paper_scale`.
        ///
        /// Seeded mutations of the run bookkeeping, each shown to fail this
        /// test and then reverted (the assertion that fired first):
        ///
        /// | mutation | assertion that fired |
        /// |---|---|
        /// | `record_block` extends a run of another order | "allocated blocks after step 20" |
        /// | `cut_run` moves the blocks after the cut one block late (`block + (2 << order)`) | "allocated blocks after step 45" |
        /// | `covering_run` ignores the run's end | "block covering frame 11181 after step 0" (paper scale: "… after the boot") |
        /// | `free_traced` accepts an interior frame (no alignment check) | "free result at step 30" |
        /// | `record_block` extends a same-order run that does not end at its frame | "allocated blocks after step 8" (paper scale: "… after allocation 4096") |
        #[test]
        fn allocated_runs_match_the_block_map(
            capacity in 0..2usize,
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..200),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut fast = BuddyAllocator::new([6 * MB, 64 * MB + 20 * 1024][capacity]);
            let mut reference = BlockMap::default();
            let mut rng = DetRng::new(seed);
            for (step, word) in ops.into_iter().enumerate() {
                let order = if word >> 60 & 1 == 0 { ORDER_4K } else { (word >> 8) as u32 % 11 };
                let block = reference.pick(word >> 16);
                let step_name = format!("step {step} (op {word:#x})");
                match (word % 16, block) {
                    (0..=5, _) | (8..=14, None) => {
                        if let Ok(addr) = fast.alloc(order) {
                            reference.allocate(addr.raw() / FRAME_BYTES, order);
                        }
                    }
                    (6 | 7, _) => {
                        let min_order = (word >> 20) as u32 % (order + 1);
                        if let Ok((addr, got)) = fast.alloc_with_fallback(order, min_order, None) {
                            assert!((min_order..=order).contains(&got));
                            reference.allocate(addr.raw() / FRAME_BYTES, got);
                        }
                    }
                    (8..=12, Some(block)) => {
                        // A valid free, then the three invalid ones: wrong
                        // order, interior frame, never allocated.
                        let (frame, order) = match word % 16 {
                            8 | 9 => block,
                            10 => (block.0, (block.1 + 1 + (word >> 40) as u32 % 3) % 11),
                            11 => (frame_in(block, word >> 40), block.1),
                            _ => ((word >> 40) % (fast.total_frames + 2), (word >> 24) as u32 % 11),
                        };
                        let freed = reference.free(frame, order);
                        assert_eq!(
                            fast.free(PhysAddr::new(frame * FRAME_BYTES), order).is_ok(),
                            freed,
                            "free result at {}", step_name
                        );
                    }
                    (13 | 14, Some(block)) => {
                        let frame = match word >> 40 & 3 {
                            0 => block.0,
                            1 => frame_in(block, word >> 42),
                            _ => (word >> 42) % (fast.total_frames + 2),
                        };
                        let split = reference.split(frame);
                        assert_eq!(
                            fast.split_allocated(PhysAddr::new(frame * FRAME_BYTES)).is_ok(),
                            split,
                            "split_allocated result at {}", step_name
                        );
                    }
                    _ => {
                        let target = ((word >> 8) % 101) as f64 / 100.0;
                        fragment_both(&mut fast, &mut reference, target, &mut rng);
                    }
                }
                assert_runs_match(&fast, &reference, word, &step_name);
            }
        }
    }

    /// The paper machine's boot (256 GiB, 80 % of its 2 MiB regions left
    /// free) and then 64 k sequential order-0 allocations, each landing
    /// beside a pinned frame or in a fresh stretch.
    #[test]
    fn allocated_runs_match_the_block_map_at_paper_scale() {
        let config = crate::OsConfig::paper_baseline();
        let target = config
            .fragmentation_target
            .expect("the paper machine is fragmented");
        let mut fast = BuddyAllocator::new(config.memory_bytes);
        let mut reference = BlockMap::default();
        let mut rng = DetRng::new(config.seed);
        fragment_both(&mut fast, &mut reference, target, &mut rng);
        assert_runs_match(&fast, &reference, 1, "the boot");
        // One run per pinned frame: the sparse boot costs a block map's
        // entries, not more.
        assert_eq!(fast.allocated.len(), reference.0.len());
        for i in 0..64 * 1024 {
            let addr = fast.alloc(ORDER_4K).expect("the paper machine has room");
            reference.allocate(addr.raw() / FRAME_BYTES, ORDER_4K);
            if i % 4096 == 0 {
                assert_runs_match(&fast, &reference, i, &format!("allocation {i}"));
            }
        }
        assert_runs_match(&fast, &reference, 2, "64 k allocations");
        assert!(fast.allocated.len() < reference.0.len());
    }

    #[test]
    fn order_for_matches_page_sizes() {
        assert_eq!(order_for(PageSize::Size4K), 0);
        assert_eq!(order_for(PageSize::Size2M), 9);
        assert_eq!(order_for(PageSize::Size1G), 18);
    }
}

//! A slab allocator for kernel objects, imitating the Linux slab/SLUB
//! allocator that MimicOS uses to allocate page-table frames (Fig. 6, step 2).
//!
//! The slab allocator requests whole 4 KiB frames from the buddy allocator
//! and carves them into fixed-size objects. Page-table frames are themselves
//! 4 KiB, so each "slab" holds exactly one object in that configuration, but
//! the allocator also serves smaller kernel objects (VMA descriptors, swap
//! entries) used when emitting realistic kernel work.

use crate::buddy::BuddyAllocator;
use crate::kernel_stream::{KernelInstructionStream, KernelRoutine};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use vm_types::{Counter, PhysAddr, VmResult};

/// A slab cache serving objects of one size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlabAllocator {
    object_bytes: u64,
    objects_per_slab: u64,
    /// Free objects ready to be handed out.
    free_objects: VecDeque<PhysAddr>,
    /// Slabs (4 KiB frames) owned by this cache, kept so they can be
    /// released on drop/teardown accounting.
    slabs: Vec<PhysAddr>,
    stats: SlabStats,
}

/// Slab allocator statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlabStats {
    /// Objects handed out.
    pub allocations: Counter,
    /// Objects returned.
    pub frees: Counter,
    /// New slabs requested from the buddy allocator.
    pub slab_refills: Counter,
}

impl SlabAllocator {
    /// Creates a slab cache for objects of `object_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `object_bytes` is zero or larger than 4 KiB.
    pub fn new(object_bytes: u64) -> Self {
        assert!(object_bytes > 0, "object size must be non-zero");
        assert!(
            object_bytes <= 4096,
            "objects larger than a frame are unsupported"
        );
        SlabAllocator {
            object_bytes,
            objects_per_slab: 4096 / object_bytes,
            free_objects: VecDeque::new(),
            slabs: Vec::new(),
            stats: SlabStats::default(),
        }
    }

    /// A slab cache for 4 KiB page-table frames.
    pub fn for_page_table_frames() -> Self {
        SlabAllocator::new(4096)
    }

    /// Object size served by this cache.
    pub fn object_bytes(&self) -> u64 {
        self.object_bytes
    }

    /// Statistics.
    pub fn stats(&self) -> &SlabStats {
        &self.stats
    }

    /// Allocates one object, refilling from the buddy allocator if the free
    /// list is empty. Records the kernel work into `stream` when provided.
    ///
    /// # Errors
    ///
    /// Propagates [`vm_types::VmError::OutOfMemory`] from the buddy
    /// allocator when a refill is needed but physical memory is exhausted.
    pub fn alloc(
        &mut self,
        buddy: &mut BuddyAllocator,
        mut stream: Option<&mut KernelInstructionStream>,
    ) -> VmResult<PhysAddr> {
        if let Some(s) = stream.as_deref_mut() {
            // kmem_cache_alloc fast path.
            s.compute(25);
        }
        if self.free_objects.is_empty() {
            let slab = buddy.alloc_traced(0, stream.as_deref_mut())?;
            self.slabs.push(slab);
            self.stats.slab_refills.inc();
            for i in 0..self.objects_per_slab {
                self.free_objects.push_back(slab.add(i * self.object_bytes));
            }
            if let Some(s) = stream.as_deref_mut() {
                // Slab construction: initialize the freelist.
                s.compute(40);
                s.store(slab);
            }
        }
        let obj = self
            .free_objects
            .pop_front()
            .expect("free list refilled above");
        self.stats.allocations.inc();
        if let Some(s) = stream {
            s.load(obj);
        }
        Ok(obj)
    }

    /// Returns an object to the cache.
    pub fn free(&mut self, obj: PhysAddr, stream: Option<&mut KernelInstructionStream>) {
        self.free_objects.push_back(obj);
        self.stats.frees.inc();
        if let Some(s) = stream {
            s.compute(20);
            s.store(obj);
        }
    }

    /// Creates a kernel stream tagged as slab work.
    pub fn new_stream() -> KernelInstructionStream {
        KernelInstructionStream::new(KernelRoutine::SlabAlloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn allocates_distinct_objects() {
        let mut buddy = BuddyAllocator::new(16 * MB);
        let mut slab = SlabAllocator::new(256);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let obj = slab.alloc(&mut buddy, None).unwrap();
            assert!(seen.insert(obj.raw()));
        }
        assert_eq!(slab.stats().allocations.get(), 100);
    }

    #[test]
    fn refills_in_whole_frames() {
        let mut buddy = BuddyAllocator::new(16 * MB);
        let mut slab = SlabAllocator::new(256);
        // 4096/256 = 16 objects per slab: 17 allocations need 2 refills.
        for _ in 0..17 {
            slab.alloc(&mut buddy, None).unwrap();
        }
        assert_eq!(slab.stats().slab_refills.get(), 2);
    }

    #[test]
    fn freed_objects_are_reused() {
        let mut buddy = BuddyAllocator::new(16 * MB);
        let mut slab = SlabAllocator::for_page_table_frames();
        let a = slab.alloc(&mut buddy, None).unwrap();
        slab.free(a, None);
        let b = slab.alloc(&mut buddy, None).unwrap();
        assert_eq!(a, b);
        // Only one buddy frame was ever requested.
        assert_eq!(slab.stats().slab_refills.get(), 1);
    }

    #[test]
    fn page_table_frame_cache_uses_full_frames() {
        let slab = SlabAllocator::for_page_table_frames();
        assert_eq!(slab.object_bytes(), 4096);
    }

    #[test]
    fn traced_allocation_emits_work() {
        let mut buddy = BuddyAllocator::new(16 * MB);
        let mut slab = SlabAllocator::for_page_table_frames();
        let mut stream = SlabAllocator::new_stream();
        slab.alloc(&mut buddy, Some(&mut stream)).unwrap();
        assert!(stream.instruction_count() > 25);
        assert!(stream.memory_references() >= 1);
    }

    #[test]
    fn out_of_memory_propagates() {
        let mut buddy = BuddyAllocator::new(4096 * 2);
        let mut slab = SlabAllocator::for_page_table_frames();
        slab.alloc(&mut buddy, None).unwrap();
        slab.alloc(&mut buddy, None).unwrap();
        assert!(slab.alloc(&mut buddy, None).is_err());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_sized_objects_rejected() {
        let _ = SlabAllocator::new(0);
    }
}

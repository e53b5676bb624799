//! Kernel instruction streams: the imitation counterpart of dynamically
//! instrumenting MimicOS with Pin/DynamoRIO.
//!
//! In the paper, every OS routine that runs in MimicOS is instrumented and
//! its disassembled instruction stream is injected into the simulator's core
//! model through the *instruction stream channel*, so that the core and the
//! memory hierarchy are charged for the kernel's work (latency, cache
//! pollution, DRAM contention). In this Rust reproduction the kernel
//! routines *emit* their instruction streams directly: as a routine touches
//! its data structures it records the corresponding loads/stores and an
//! estimate of the surrounding compute instructions. The resulting
//! [`KernelInstructionStream`] is handed to the framework, which injects it
//! into the core model exactly as the paper describes.

use serde::{Deserialize, Serialize};
use vm_types::{AccessType, PhysAddr};

/// Which kernel routine produced a stream segment. Used for reporting and
/// for the correlation experiment of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelRoutine {
    /// `do_page_fault` and its callees (the minor/major fault path).
    PageFaultHandler,
    /// VMA lookup in the maple tree / rb-tree.
    FindVma,
    /// Buddy-allocator frame allocation.
    BuddyAlloc,
    /// Buddy-allocator frame free.
    BuddyFree,
    /// Slab allocation of a page-table frame.
    SlabAlloc,
    /// Page-table update (insert / upgrade of an entry).
    PageTableUpdate,
    /// Zeroing a newly allocated page.
    PageZeroing,
    /// Page-cache lookup and insertion.
    PageCache,
    /// Swap-cache lookup, swap-in or swap-out.
    Swap,
    /// khugepaged scanning and collapsing.
    Khugepaged,
    /// Reservation-based THP bookkeeping.
    ThpReservation,
    /// Utopia restrictive-segment allocation.
    UtopiaAlloc,
    /// Memory reclaim (kswapd-style).
    Reclaim,
    /// mmap / munmap system call work.
    Mmap,
    /// Scheduler context switch (`__schedule`, `switch_mm`, `switch_to`).
    ContextSwitch,
    /// The out-of-memory killer: badness scan, victim teardown
    /// (`out_of_memory` / `oom_kill_process` / `exit_mmap`).
    OomKill,
}

/// One operation in a kernel instruction stream: either a block of
/// non-memory instructions or a single memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelOp {
    /// `count` non-memory (ALU/branch) instructions.
    Compute {
        /// Number of non-memory instructions in the block.
        count: u32,
    },
    /// One memory reference performed by the kernel.
    Memory {
        /// Physical address touched (kernel structures are physically
        /// addressed in the model).
        paddr: PhysAddr,
        /// Load or store.
        kind: AccessType,
    },
}

/// The instruction stream produced by one kernel routine invocation.
///
/// # Examples
///
/// ```
/// use mimic_os::{KernelInstructionStream, KernelRoutine};
/// use vm_types::{AccessType, PhysAddr};
///
/// let mut stream = KernelInstructionStream::new(KernelRoutine::PageFaultHandler);
/// stream.compute(120);
/// stream.load(PhysAddr::new(0x1000));
/// stream.store(PhysAddr::new(0x1040));
/// assert_eq!(stream.instruction_count(), 122);
/// assert_eq!(stream.memory_references(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelInstructionStream {
    routine: KernelRoutine,
    ops: Vec<KernelOp>,
    /// Sum of the `Compute` counts in `ops`.
    compute_instructions: u64,
    /// Number of `Memory` entries in `ops`.
    memory_references: u64,
}

impl KernelInstructionStream {
    /// Creates an empty stream for the given routine.
    pub fn new(routine: KernelRoutine) -> Self {
        KernelInstructionStream::with_buffer(routine, Vec::new())
    }

    /// Creates an empty stream for the given routine that records into
    /// `buffer`'s storage, discarding its contents: how the page-fault path
    /// reuses the buffer of a stream the framework has finished with (see
    /// [`KernelInstructionStream::into_buffer`]).
    pub(crate) fn with_buffer(routine: KernelRoutine, mut buffer: Vec<KernelOp>) -> Self {
        buffer.clear();
        // A page fault emits a few dozen ops (VMA walk, buddy, slab,
        // page-table update, zeroing samples); pre-sizing a fresh buffer
        // skips the doubling reallocations its first fault would run. A
        // reused buffer is already at least this large.
        buffer.reserve(64);
        KernelInstructionStream {
            routine,
            ops: buffer,
            compute_instructions: 0,
            memory_references: 0,
        }
    }

    /// The stream's op buffer, for reuse by
    /// [`KernelInstructionStream::with_buffer`].
    pub(crate) fn into_buffer(self) -> Vec<KernelOp> {
        self.ops
    }

    /// The routine that produced this stream.
    pub fn routine(&self) -> KernelRoutine {
        self.routine
    }

    /// The raw operations in program order.
    pub fn ops(&self) -> &[KernelOp] {
        &self.ops
    }

    /// Appends a block of `count` non-memory instructions.
    pub fn compute(&mut self, count: u32) {
        if count == 0 {
            return;
        }
        // Coalesce with a preceding compute block to keep streams compact.
        if let Some(KernelOp::Compute { count: last }) = self.ops.last_mut() {
            let merged = last.saturating_add(count);
            self.compute_instructions += u64::from(merged - *last);
            *last = merged;
        } else {
            self.ops.push(KernelOp::Compute { count });
            self.compute_instructions += u64::from(count);
        }
    }

    fn memory(&mut self, paddr: PhysAddr, kind: AccessType) {
        self.ops.push(KernelOp::Memory { paddr, kind });
        self.memory_references += 1;
    }

    /// Appends a kernel load from `paddr`.
    pub fn load(&mut self, paddr: PhysAddr) {
        self.memory(paddr, AccessType::Read);
    }

    /// Appends a kernel store to `paddr`.
    pub fn store(&mut self, paddr: PhysAddr) {
        self.memory(paddr, AccessType::Write);
    }

    /// Appends every operation of `other` to this stream (used when a
    /// routine calls a sub-routine, e.g. the fault handler invoking the
    /// buddy allocator).
    pub fn append(&mut self, other: &KernelInstructionStream) {
        for op in &other.ops {
            match *op {
                KernelOp::Compute { count } => self.compute(count),
                KernelOp::Memory { paddr, kind } => self.memory(paddr, kind),
            }
        }
    }

    /// Total number of instructions (memory + non-memory) in the stream.
    pub fn instruction_count(&self) -> u64 {
        self.compute_instructions + self.memory_references
    }

    /// Number of memory references in the stream.
    pub fn memory_references(&self) -> u64 {
        self.memory_references
    }

    /// `true` if the stream contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// A quick standalone latency estimate in nanoseconds, used when the
    /// stream is *not* injected into a detailed core model (emulation mode):
    /// non-memory instructions retire at `ipc` instructions per cycle and
    /// every memory reference costs `mem_latency_cycles`, at a 2.9 GHz clock.
    pub fn estimate_latency_ns(&self, ipc: f64, mem_latency_cycles: f64) -> f64 {
        let compute = self.compute_instructions as f64;
        let mem = self.memory_references as f64;
        let cycles = compute / ipc.max(0.1) + mem * mem_latency_cycles;
        cycles / 2.9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_blocks_are_coalesced() {
        let mut s = KernelInstructionStream::new(KernelRoutine::FindVma);
        s.compute(10);
        s.compute(5);
        assert_eq!(s.ops().len(), 1);
        assert_eq!(s.instruction_count(), 15);
    }

    #[test]
    fn zero_compute_is_ignored() {
        let mut s = KernelInstructionStream::new(KernelRoutine::FindVma);
        s.compute(0);
        assert!(s.is_empty());
    }

    #[test]
    fn memory_ops_break_coalescing() {
        let mut s = KernelInstructionStream::new(KernelRoutine::BuddyAlloc);
        s.compute(10);
        s.load(PhysAddr::new(0x40));
        s.compute(5);
        assert_eq!(s.ops().len(), 3);
        assert_eq!(s.instruction_count(), 16);
        assert_eq!(s.memory_references(), 1);
    }

    #[test]
    fn append_merges_streams() {
        let mut outer = KernelInstructionStream::new(KernelRoutine::PageFaultHandler);
        outer.compute(100);
        let mut inner = KernelInstructionStream::new(KernelRoutine::BuddyAlloc);
        inner.compute(20);
        inner.store(PhysAddr::new(0x80));
        outer.append(&inner);
        assert_eq!(outer.instruction_count(), 121);
        assert_eq!(outer.memory_references(), 1);
        assert_eq!(outer.routine(), KernelRoutine::PageFaultHandler);
    }

    #[test]
    fn latency_estimate_scales_with_memory_references() {
        let mut small = KernelInstructionStream::new(KernelRoutine::PageZeroing);
        small.compute(100);
        let mut big = KernelInstructionStream::new(KernelRoutine::PageZeroing);
        big.compute(100);
        for i in 0..64 {
            big.store(PhysAddr::new(i * 64));
        }
        assert!(big.estimate_latency_ns(2.0, 50.0) > small.estimate_latency_ns(2.0, 50.0));
    }

    /// The three O(1) totals against the slow way: a fold over `ops()`.
    fn assert_totals_match_ops(s: &KernelInstructionStream) {
        let (mut compute, mut memory) = (0u64, 0u64);
        for op in s.ops() {
            match op {
                KernelOp::Compute { count } => compute += u64::from(*count),
                KernelOp::Memory { .. } => memory += 1,
            }
        }
        assert_eq!(s.instruction_count(), compute + memory);
        assert_eq!(s.memory_references(), memory);
        let cycles = compute as f64 / 2.0 + memory as f64 * 60.0;
        assert_eq!(s.estimate_latency_ns(2.0, 60.0), cycles / 2.9);
    }

    #[test]
    fn running_totals_equal_a_fold_over_the_ops() {
        let mut rng = vm_types::DetRng::new(21);
        let mut inner = KernelInstructionStream::new(KernelRoutine::BuddyAlloc);
        let mut outer = KernelInstructionStream::new(KernelRoutine::PageFaultHandler);
        for step in 0..2_000u64 {
            let s = if step % 3 == 0 {
                &mut inner
            } else {
                &mut outer
            };
            match rng.gen_range(0, 8) {
                0 => s.compute(0),
                1 | 2 => s.compute(rng.gen_range(1, 500) as u32),
                // Two of these in a row saturate the coalesced block.
                3 => s.compute(u32::MAX - 7),
                4 | 5 => s.load(PhysAddr::new(step * 64)),
                6 => s.store(PhysAddr::new(step * 64)),
                _ => outer.append(&inner),
            }
            assert_totals_match_ops(&inner);
            assert_totals_match_ops(&outer);
        }
        assert!(outer.ops().contains(&KernelOp::Compute { count: u32::MAX }));
    }

    #[test]
    fn saturated_blocks_count_what_the_ops_hold() {
        let mut s = KernelInstructionStream::new(KernelRoutine::PageZeroing);
        s.compute(u32::MAX - 1);
        s.compute(5);
        assert_eq!(s.ops(), [KernelOp::Compute { count: u32::MAX }]);
        assert_eq!(s.instruction_count(), u64::from(u32::MAX));
        let mut appended = KernelInstructionStream::new(KernelRoutine::PageZeroing);
        appended.compute(3);
        appended.append(&s);
        assert_totals_match_ops(&appended);
    }

    #[test]
    fn streams_with_equal_ops_are_equal_however_they_were_built() {
        let mut piecewise = KernelInstructionStream::new(KernelRoutine::Swap);
        piecewise.compute(10);
        piecewise.compute(0);
        piecewise.compute(5);
        piecewise.load(PhysAddr::new(0x40));
        let mut tail = KernelInstructionStream::new(KernelRoutine::Swap);
        tail.compute(7);
        tail.store(PhysAddr::new(0x80));
        piecewise.append(&tail);

        let mut direct = KernelInstructionStream::new(KernelRoutine::Swap);
        direct.compute(15);
        direct.load(PhysAddr::new(0x40));
        direct.compute(7);
        direct.store(PhysAddr::new(0x80));

        assert_eq!(piecewise.ops(), direct.ops());
        assert_eq!(piecewise, direct);
    }
}

//! The fault-path allocation fence: MimicOS's 4 KiB fault path makes
//! (almost) no heap allocations per fault, both under `System::populate`
//! and on first touch in the detailed instruction loop.
//!
//! A fault used to allocate a fresh kernel-stream buffer, a page-table
//! update list and, every few faults, a `BTreeMap` node for the buddy
//! allocator's one entry per frame. Now the stream reuses the buffer the
//! framework hands back after injecting (or discarding) it, the update
//! list is inline (`WalkAccessList`), and the buddy allocator extends one
//! run per stretch of consecutive frames. What is left is amortized growth: a 512-slot page-map chunk
//! per 2 MiB, the fault-latency sample vector doubling, a `BTreeMap` node
//! now and then. The bound, one allocation per 64 faults, leaves room for
//! that and for nothing per fault.
//!
//! Two measured windows, each on its own `System` (`small_test`, THP off,
//! `BuddyFourK`, no housekeeping, 1 GiB of memory) and each asserting at
//! least 1 000 minor faults so it cannot pass by doing nothing:
//!
//! * (a) a 32 MiB `populate` after a warm 32 MiB one;
//! * (b) 200 k instructions of a 256 MiB `AllocateAndTouch` trace, after
//!   a 100 k-instruction warm-up.
//!
//! The counter is per-thread for the reason `alloc_free_hot_path.rs`
//! gives, and this file holds a single `#[test]`.
//!
//! # Mutation table
//!
//! Each change was planted, observed and reverted; none is committed. The
//! commit before this fence made 3.17 allocations per fault in both
//! windows: (a) 25 967 over 8 192 faults, (b) 12 832 over 4 047. Now (a)
//! makes 23 and (b) 16.
//!
//! | planted change | assertion that fired |
//! |---|---|
//! | the fault stream built on a fresh `Vec::with_capacity(64)` (the spare buffer never taken) | (a) 8 215 allocations over 8 192 faults |
//! | `System::settle_stream` drops each stream instead of handing it back | (b) 4 063 over 4 047 ((a) passes: `populate` hands its streams back itself) |
//! | `populate` drops the stream it discards | (a) 8 215 over 8 192 |
//! | a `Vec` back in `RadixPageTable::insert`, collected into the list on return | (a) 16 407 over 8 192 |
//! | an allocation never extends the run ending at its frame | (a) 1 391 over 8 192 |

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use virtuoso_suite::prelude::*;

const MIB: u64 = 1024 * 1024;
const BASE: u64 = 0x10_0000_0000;
/// At most one heap allocation per this many faults.
const FAULTS_PER_ALLOCATION: u64 = 64;
/// Fewer faults than this and a window proves nothing.
const MIN_FAULTS: u64 = 1_000;

/// The machine both windows run on (see the module doc).
fn config() -> SystemConfig {
    let mut config = SystemConfig::small_test();
    config.os.thp = mimic_os::ThpConfig::disabled();
    config.os.policy = AllocationPolicy::BuddyFourK;
    config.os.memory_bytes = 1024 * MIB;
    config.housekeeping_interval = 0;
    config
}

/// Counts allocations (and growth reallocations) while armed.
struct CountingAllocator;

// `const`-initialized `Cell`s have no destructor and no lazy init, so
// touching them from inside the global allocator cannot itself allocate
// or recurse.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.get() {
            ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        }
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations observed on this thread while running `f` with the
/// counter armed.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.set(0);
    ARMED.set(true);
    let result = f();
    ARMED.set(false);
    (ALLOCATIONS.get(), result)
}

/// Minor faults MimicOS has handled so far.
fn minor_faults(system: &System) -> u64 {
    system.os().stats().minor_faults.get()
}

/// Window (a): allocations and faults of a 32 MiB `populate`, after a warm
/// one on a neighbouring region.
fn populate_window() -> (u64, u64) {
    const REGION: u64 = 32 * MIB;
    let mut system = System::new(config());
    let pid = system.pid();
    system
        .mmap_anonymous(VirtAddr::new(BASE), REGION)
        .expect("map the warm region");
    system.populate(pid);
    system
        .mmap_anonymous(VirtAddr::new(BASE + REGION), REGION)
        .expect("map the measured region");
    let before = minor_faults(&system);
    let (allocations, ()) = allocations_during(|| system.populate(pid));
    (allocations, minor_faults(&system) - before)
}

/// Window (b): allocations and faults of 200 k first-touch instructions
/// in the detailed loop, after a 100 k-instruction warm-up.
fn first_touch_window() -> (u64, u64) {
    const FOOTPRINT: u64 = 256 * MIB;
    const WARMUP: u64 = 100_000;
    const MEASURED: u64 = 200_000;
    let mut system = System::new(config());
    system
        .mmap_anonymous(VirtAddr::new(BASE), FOOTPRINT)
        .expect("map the workload region");
    let spec = WorkloadSpec::simple(
        "fault-path",
        WorkloadClass::ShortRunning,
        FOOTPRINT,
        AccessPattern::AllocateAndTouch {
            new_page_fraction: 0.05,
        },
        WARMUP + MEASURED,
    );
    let mut source = spec.build(0xFA17);
    let mut step = |n: u64, system: &mut System| {
        for _ in 0..n {
            let instr = source.next_instruction().expect("trace long enough");
            system.step(&instr);
        }
    };
    step(WARMUP, &mut system);
    let before = minor_faults(&system);
    let (allocations, ()) = allocations_during(|| step(MEASURED, &mut system));
    (allocations, minor_faults(&system) - before)
}

#[test]
fn four_k_faults_make_almost_no_heap_allocations() {
    // Sanity-check the counter itself before trusting small results.
    let (sanity, _) = allocations_during(|| std::hint::black_box(Vec::<u64>::with_capacity(16)));
    assert!(
        sanity > 0,
        "the counting allocator must observe allocations"
    );

    for (label, (allocations, faults)) in [
        ("(a) populate", populate_window()),
        ("(b) first touch", first_touch_window()),
    ] {
        eprintln!("{label}: {allocations} allocations over {faults} minor faults");
        assert!(
            faults >= MIN_FAULTS,
            "{label}: {faults} minor faults in the window, the bound below proves nothing"
        );
        assert!(
            allocations <= faults / FAULTS_PER_ALLOCATION,
            "{label}: {allocations} allocations over {faults} minor faults \
             (at most one per {FAULTS_PER_ALLOCATION} allowed)"
        );
    }
}

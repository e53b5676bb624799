//! The coherence fence's footprint: `System::check_invariants` on a
//! machine with tens of thousands of mappings holds at most 1 byte per
//! mapping (plus a small constant) of heap at its peak.
//!
//! The machine-wide half of the fence keeps its frame checks in bitmaps of
//! 4 KiB frames, one 64-byte bitmap per touched 2 MiB physical region, so
//! what it allocates grows with the physical memory mapped, not with the
//! mapping count: densely packed 4 KiB mappings cost it a fraction of a
//! byte each. The bound is 1 B per mapping plus 4 KiB, on `small_test`
//! (THP off, `BuddyFourK`) with 64 MiB of 4 KiB pages populated, asserting
//! at least 10 000 mappings so the bound cannot pass on an empty machine.
//!
//! The counter is per-thread for the reason `alloc_free_hot_path.rs`
//! gives, and this file holds a single `#[test]`.
//!
//! Under this test, over 16 384 mappings: the `BTreeMap` entry per frame
//! plus sorted span per private mapping that the fence first used peaked
//! at 1 085 480 bytes (66 B per mapping); the sorted 16-byte record per
//! mapping that replaced it at 262 144 (16 B); the bitmaps at 10 400 (0.63 B).

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use virtuoso_suite::prelude::*;

const MIB: u64 = 1024 * 1024;
const BASE: u64 = 0x10_0000_0000;
/// Heap bytes the fence may hold per mapping at its peak.
const BYTES_PER_MAPPING: u64 = 1;
/// Heap bytes the fence may hold whatever the mapping count.
const SLACK_BYTES: u64 = 4 * 1024;
/// Fewer mappings than this and the bound proves nothing.
const MIN_MAPPINGS: u64 = 10_000;

/// Tracks live and peak heap bytes while armed.
struct PeakAllocator;

// `const`-initialized `Cell`s have no destructor and no lazy init, so
// touching them from inside the global allocator cannot itself allocate
// or recurse.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Adds `delta` bytes to the live count of an armed thread.
fn track(delta: i64) {
    if ARMED.get() {
        let live = LIVE.get() + delta;
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
    }
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAllocator = PeakAllocator;

/// Peak heap bytes, above what was live on entry, held on this thread
/// while running `f`.
fn peak_bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    LIVE.set(0);
    PEAK.set(0);
    ARMED.set(true);
    let result = f();
    ARMED.set(false);
    (PEAK.get() as u64, result)
}

#[test]
fn the_fence_holds_at_most_one_byte_per_mapping() {
    // Sanity-check the tracker itself before trusting small results.
    let (sanity, _) = peak_bytes_during(|| std::hint::black_box(vec![0u8; 4096]));
    assert!(sanity >= 4096, "the tracker must observe allocations");

    let mut config = SystemConfig::small_test();
    config.os.thp = mimic_os::ThpConfig::disabled();
    config.os.policy = AllocationPolicy::BuddyFourK;
    let mut system = System::new(config);
    let pid = system.pid();
    system
        .mmap_anonymous(VirtAddr::new(BASE), 64 * MIB)
        .expect("map the populated region");
    system.populate(pid);
    let mappings = system.os().process(pid).mapping_count() as u64;
    assert!(
        mappings >= MIN_MAPPINGS,
        "{mappings} mappings, the bound below proves nothing"
    );

    let (peak, verdict) = peak_bytes_during(|| system.check_invariants());
    verdict.expect("a populated machine is coherent");
    let bound = BYTES_PER_MAPPING * mappings + SLACK_BYTES;
    eprintln!("check_invariants peaked at {peak} bytes over {mappings} mappings (bound {bound})");
    assert!(
        peak <= bound,
        "check_invariants peaked at {peak} bytes over {mappings} mappings (at most {bound})"
    );
}

//! The coherence fence's footprint: `System::check_invariants` on a
//! machine with tens of thousands of mappings holds at most 16 bytes per
//! mapping (plus a small constant) of heap at its peak.
//!
//! The machine-wide half of the fence collects one 16-byte record per
//! mapping of a live process into a `Vec` sized exactly from
//! `Process::mapping_count()` and sorts it in place; nothing else it
//! allocates grows with the mapping count. The bound is 16 B per mapping
//! plus 64 KiB, on `small_test` (THP off, `BuddyFourK`) with 64 MiB of
//! 4 KiB pages populated, asserting at least 10 000 mappings so the bound
//! cannot pass on an empty machine.
//!
//! The counter is per-thread for the reason `alloc_free_hot_path.rs`
//! gives, and this file holds a single `#[test]`.
//!
//! The body the compact pass replaced — a `BTreeMap<u64, u64>` entry per
//! mapped frame plus a doubling `Vec<(u64, u64, usize, VirtAddr)>` span
//! per private mapping — peaked at 1 085 480 bytes over 16 384 mappings
//! under this test (66 B per mapping, against a bound of 327 680); the
//! compact pass peaks at 262 144, exactly its 16 B per mapping.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use virtuoso_suite::prelude::*;

const MIB: u64 = 1024 * 1024;
const BASE: u64 = 0x10_0000_0000;
/// Heap bytes the fence may hold per mapping at its peak.
const BYTES_PER_MAPPING: u64 = 16;
/// Heap bytes the fence may hold whatever the mapping count.
const SLACK_BYTES: u64 = 64 * 1024;
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
fn the_fence_holds_at_most_sixteen_bytes_per_mapping() {
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

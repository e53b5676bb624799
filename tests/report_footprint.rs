//! Reports and statistics do not grow with the fault count: after tens of
//! thousands of faults, `System::report()` and a clone of MimicOS's
//! statistics each peak at no more than 16 KiB of heap.
//!
//! MimicOS keeps fault latency as exact distributions
//! (`OsStats::fault_latency_ns` and `OsStats::minor_fault_latency_ns`): one
//! `(value, count)` pair per distinct latency, not one sample per fault, so
//! a report or a clone copies a few hundred bytes whatever the fault count.
//! The machine is `small_test` (THP off, `BuddyFourK`) with 64 MiB of 4 KiB
//! pages populated, and at least 10 000 faults are asserted so the bound
//! cannot pass on an idle machine.
//!
//! The counter is per-thread for the reason `alloc_free_hot_path.rs`
//! gives, and this file holds a single `#[test]`.
//!
//! A recorder that kept every sample (8 B per fault) fails the bound: this
//! test's 16 384 faults make a copied report 131 072 bytes and a clone of
//! both recorders 262 144.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use virtuoso_suite::prelude::*;

const MIB: u64 = 1024 * 1024;
const BASE: u64 = 0x10_0000_0000;
/// Heap bytes a report or a statistics clone may hold whatever the fault
/// count.
const SLACK_BYTES: u64 = 16 * 1024;
/// Fewer faults than this and the bounds prove nothing.
const MIN_FAULTS: u64 = 10_000;

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
/// while running `f` (what `f` returns still counts as held).
fn peak_bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    LIVE.set(0);
    PEAK.set(0);
    ARMED.set(true);
    let result = f();
    ARMED.set(false);
    (PEAK.get() as u64, result)
}

#[test]
fn reports_and_stats_clones_stay_small_whatever_the_fault_count() {
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
    let faults = system.os().stats().fault_latency_ns.count();
    assert!(
        faults >= MIN_FAULTS,
        "{faults} faults, the bounds below prove nothing"
    );

    let (report_peak, report) = peak_bytes_during(|| system.report());
    let (clone_peak, cloned) = peak_bytes_during(|| system.os().stats().clone());
    for (what, peak) in [("report()", report_peak), ("an OsStats clone", clone_peak)] {
        eprintln!("{what} peaked at {peak} bytes over {faults} faults");
        assert!(
            peak <= SLACK_BYTES,
            "{what} peaked at {peak} bytes over {faults} faults (at most {SLACK_BYTES})"
        );
    }
    assert_eq!(report.fault_latency_ns.count(), faults);
    assert_eq!(cloned.minor_fault_latency_ns.count(), faults);
}

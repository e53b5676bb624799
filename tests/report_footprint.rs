//! The fault-latency series is held once: after tens of thousands of
//! faults, `System::report()` shares MimicOS's sample buffer instead of
//! copying it, and so do the minor-fault series and a clone of the
//! kernel's statistics.
//!
//! MimicOS records each fault's latency once, in `OsStats::fault_latency_ns`
//! (8 B per fault; one more bit per fault once any fault was not minor).
//! The minor-fault series (`OsStats::minor_fault_latency_ns`) is that
//! buffer while every fault is minor, and a report's `fault_latency_ns` is
//! another reference to it. The bound: each of the three peaks at 16 KiB
//! of heap whatever the fault count. The machine is `small_test` (THP off,
//! `BuddyFourK`) with 64 MiB of 4 KiB pages populated, so every fault is
//! minor, and at least 10 000 faults are asserted so the bound cannot pass
//! on an idle machine.
//!
//! The counter is per-thread for the reason `alloc_free_hot_path.rs`
//! gives, and this file holds a single `#[test]`.
//!
//! Before the series was shared, the kernel kept a second, minor-only
//! sample vector and `report()` copied the whole series. Under this test
//! (16 384 faults, debug and release) `report()` then peaked at 131 072
//! bytes (8 B per fault), a copy of the minor series at 131 072 and an
//! `OsStats` clone at 262 144 (16 B per fault: both vectors). Now all
//! three peak at 0 bytes.
//!
//! # Mutation table
//!
//! Each change was planted, observed and reverted; none is committed.
//!
//! | planted change | assertion that fired |
//! |---|---|
//! | `report()` deep-copies the series (`merge` into a fresh recorder) | "report() peaked at 131112 bytes over 16384 faults" |
//! | `OsStats::minor_fault_latency_ns` copies the series when every fault was minor | "the minor series peaked at 131112 bytes over 16384 faults" |

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use virtuoso_suite::prelude::*;

const MIB: u64 = 1024 * 1024;
const BASE: u64 = 0x10_0000_0000;
/// Heap bytes a shared read-out may hold whatever the fault count.
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
fn reports_share_the_fault_series_instead_of_copying_it() {
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
    let (minor_peak, minor) = peak_bytes_during(|| system.os().stats().minor_fault_latency_ns());
    let (clone_peak, cloned) = peak_bytes_during(|| system.os().stats().clone());
    for (what, peak) in [
        ("report()", report_peak),
        ("the minor series", minor_peak),
        ("an OsStats clone", clone_peak),
    ] {
        eprintln!("{what} peaked at {peak} bytes over {faults} faults");
        assert!(
            peak <= SLACK_BYTES,
            "{what} peaked at {peak} bytes over {faults} faults (at most {SLACK_BYTES})"
        );
    }

    let kernel = system.os().stats().fault_latency_ns.samples();
    assert_eq!(report.fault_latency_ns.count(), faults);
    for (what, series) in [
        ("the report's series", &report.fault_latency_ns),
        ("the minor series", &minor),
        ("the cloned statistics' series", &cloned.fault_latency_ns),
    ] {
        assert_eq!(
            series.samples().as_ptr(),
            kernel.as_ptr(),
            "{what} shares the kernel's buffer"
        );
    }
}

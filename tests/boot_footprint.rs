//! The paper machine's boot footprint: `MimicOs::new` on the Table 4
//! machine (256 GiB, 80 % of its 2 MiB regions left free, 26 214 pinned
//! frames) holds at most 1 MiB of heap once booted and peaks at 1.5 MiB.
//!
//! The buddy allocator keeps each pinned region implicit until an
//! operation reaches it: the boot writes the free blocks of 2 MiB and
//! above (46 769 of them) and a sorted list of the pinned frames, not the
//! nine smaller free blocks around each pinned frame nor an `allocated`
//! entry per pin. The floors (availability on target, every victim
//! pinned) keep the bound from passing on a boot that skipped the work.
//!
//! The counter is per-thread for the reason `alloc_free_hot_path.rs`
//! gives, and this file holds a single `#[test]`.
//!
//! Under this test, the boot that wrote every pinned region out (235 926
//! free blocks below 2 MiB, 26 214 `allocated` runs) held 3 251 992 bytes
//! and peaked at 3 940 384; with the regions implicit it holds 600 728 and
//! peaks at 709 160, most of the peak being the victim draw's transient
//! candidate list (131 072 region indices, 512 KiB).

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use virtuoso_suite::prelude::*;

const MIB: u64 = 1024 * 1024;
/// Heap bytes the booted kernel may hold.
const LIVE_BOUND: u64 = MIB;
/// Heap bytes the boot may hold at its peak.
const PEAK_BOUND: u64 = 3 * MIB / 2;
/// 2 MiB regions the paper machine pins a frame in: 131 072 regions less
/// the 104 858 (80 %, rounded) left free.
const PINNED_FRAMES: u64 = 26_214;

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

/// Live and peak heap bytes, above what was live on entry, held on this
/// thread by what `f` returns and while running it.
fn live_and_peak_bytes<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    LIVE.set(0);
    PEAK.set(0);
    ARMED.set(true);
    let result = f();
    ARMED.set(false);
    (LIVE.get() as u64, PEAK.get() as u64, result)
}

#[test]
fn the_paper_machine_boots_in_at_most_one_mebibyte() {
    // Sanity-check the tracker itself before trusting small results.
    let (_, sanity, _) = live_and_peak_bytes(|| std::hint::black_box(vec![0u8; 4096]));
    assert!(sanity >= 4096, "the tracker must observe allocations");

    let config = OsConfig::paper_baseline();
    let target = config
        .fragmentation_target
        .expect("the paper machine is fragmented");
    let (live, peak, os) = live_and_peak_bytes(|| MimicOs::new(config.clone()));
    eprintln!("the paper machine's boot holds {live} bytes, peaked at {peak}");

    let buddy = os.buddy();
    let availability = buddy.huge_page_availability();
    assert!(
        (availability - target).abs() < 1e-4,
        "huge-page availability {availability} missed the target {target}"
    );
    // Every frame the boot took is a pinned frame or a 2 MiB block of the
    // pre-zeroed pool.
    let pool_frames = u64::from(config.thp.zeroed_pool_capacity) * 512;
    let pinned = (buddy.capacity_bytes() - buddy.free_bytes()) / 4096 - pool_frames;
    assert_eq!(pinned, PINNED_FRAMES, "frames pinned by the boot");

    assert!(
        live <= LIVE_BOUND,
        "the booted kernel holds {live} bytes (at most {LIVE_BOUND})"
    );
    assert!(
        peak <= PEAK_BOUND,
        "the boot peaked at {peak} bytes (at most {PEAK_BOUND})"
    );
}

//! The allocation fence: the steady-state instruction loop performs
//! **zero heap allocations** on every translation path a configuration
//! can select — the page-table engine over each [`PageTableKind`] (Radix,
//! ECH, HDC, HT), Midgard, RMM, Utopia, emulation mode, the multi-core
//! stepping path and the multi-core epoch loop on two host threads.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! populated address space and a warmup segment (which fills the dense
//! accounting tables, TLBs and caches), a measured segment of GUPS-style
//! accesses must not allocate at all — a `Vec` coming back into
//! `HierarchyAccess`, `WalkOutcome::accesses`, the replacement-victim
//! scratch list or the DRAM stats' keys trips it.
//!
//! THP is off, so the footprint is thousands of 4 KiB pages and most
//! translations miss both TLB levels: the window runs the walk, the PWCs
//! and walk charging through the caches and DRAM. The test **asserts
//! `walks > 0`** inside the window for every design that walks, so a zero
//! can never again mean "the path did not run" (under THP `Always` the
//! footprint was 16 huge pages, the window performed no walk, and rows A,
//! B, C and E below passed unseen).
//!
//! There is no static twin: a source-level reachability rule sees only
//! what it can name, and the fence for a path no configuration here
//! executes is to add that configuration to [`cases`].
//!
//! # Mutation table
//!
//! Each change was planted, observed and reverted; none is committed.
//! "Parent" is the commit before this test walked, which still carried a
//! hand-rolled source analyzer (a name-level call graph with
//! no-alloc-in-hot-path, determinism and report-stability rules); "now"
//! is this test, `cargo clippy --workspace -- -D warnings` with the root
//! `clippy.toml`, and `tests/golden_reports.rs`.
//!
//! | planted change | at the parent | now |
//! |---|---|---|
//! | A: `Vec::with_capacity(4)` in `ElasticCuckooPageTable::walk` | analyzer only (via a false `RmmMmu::translate` edge; written `Vec::<u64>::with_capacity` it saw nothing); this test passed | this test, ECH: 19 876 allocations |
//! | B: a growing `self.history.push(va)` on a new field, same walk | nothing | this test, ECH: 2 (growth reallocations) |
//! | C: `format!` in `Datapath::charge_page_walk` | analyzer only; this test passed | this test, Radix: 19 876 |
//! | D: `Vec::new()` + `push` in `Cache::fill` | analyzer and this test (59 732) | this test, Radix: 98 816 |
//! | E: `to_vec()` in `RadixPageTable::walk` | analyzer only; this test passed | this test, Radix: 19 876 |
//! | `use std::collections::HashMap` in `crates/mmu/src/mmu.rs` | analyzer | clippy `disallowed_types` |
//! | `std::time::Instant::now()` in `crates/core/src/system.rs` | analyzer | clippy `disallowed_types` |
//! | `std::thread::current()` in `crates/core/src/system.rs` | analyzer | clippy `disallowed_methods` |
//! | `skip_serializing_if` dropped from `SimulationReport::oom` | analyzer, 13 goldens | `optional_report_sections_never_serialize_as_null`, 13 goldens |
//!
//! # Why the counter is per-thread
//!
//! `System::step`/`step_on` do all their work on the calling thread, and
//! a process-global counter also charges the libtest harness's main
//! thread, which lazily initializes its result-channel machinery
//! (`std::sync::mpmc` thread-local contexts) while parked in `recv` — at
//! a point in time that races with the armed windows here. The file still
//! contains a single `#[test]` so the measured segments never share the
//! thread with anything else.
//!
//! The threaded case must also see its epoch worker, a thread the run
//! spawns. A thread is enrolled by its first allocation: if that happens
//! while [`threads_spawned_during`] is armed, every later allocation of
//! the thread counts too. The harness's main thread allocated long before
//! any window, so it never enrolls. Thread start-up and channel set-up
//! allocate, so that case compares two budgets instead of expecting zero.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use virtuoso_suite::prelude::*;
use virtuoso_suite::virtuoso::EpochStats;

/// One configuration under test: its label, the machine, and whether its
/// measured window must contain page walks.
type Case = (&'static str, SystemConfig, bool);

/// The base machine: `small_test` with 4 KiB pages only (see the module
/// doc) and no housekeeping — periodic background OS work legitimately
/// builds kernel instruction streams, and the instruction loop is what is
/// measured.
fn base_config() -> SystemConfig {
    let mut config = SystemConfig::small_test();
    config.os.thp = mimic_os::ThpConfig::disabled();
    config.housekeeping_interval = 0;
    config
}

/// Every translation path the steady state can take: each design of
/// [`Design::ALL`] (with the allocation policy it pairs with), then
/// emulation mode beside the table. RMM's ranges and Utopia's RestSeg
/// translate without a walk, so those two are not required to walk.
fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = Design::ALL
        .into_iter()
        .map(|design| {
            let walks = !matches!(design, Design::Rmm | Design::Utopia(_));
            (design.label(), base_config().with_design(design), walks)
        })
        .collect();
    cases.push(("emulation", base_config().with_emulation_baseline(), true));
    cases
}

/// Counts allocations (and growth reallocations) while armed.
struct CountingAllocator;

// `const`-initialized `Cell`s have no destructor and no lazy init, so
// touching them from inside the global allocator cannot itself allocate
// or recurse.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread's first allocation fell inside an armed
    /// [`threads_spawned_during`] window; `None` until it allocates.
    static ENROLLED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Armed by [`threads_spawned_during`].
static SPAWN_WINDOW: AtomicBool = AtomicBool::new(false);
/// Allocations of enrolled threads.
static SPAWNED_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count_allocation() {
    if ARMED.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        return;
    }
    let enrolled = ENROLLED.get().unwrap_or_else(|| {
        let enrolled = SPAWN_WINDOW.load(Ordering::SeqCst);
        ENROLLED.set(Some(enrolled));
        enrolled
    });
    if enrolled {
        SPAWNED_ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
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

/// Allocations made while running `f`: this thread's, plus those of every
/// thread it spawns (which must have ended by the time `f` returns).
fn threads_spawned_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    SPAWNED_ALLOCATIONS.store(0, Ordering::SeqCst);
    SPAWN_WINDOW.store(true, Ordering::SeqCst);
    let (own, result) = allocations_during(f);
    SPAWN_WINDOW.store(false, Ordering::SeqCst);
    (own + SPAWNED_ALLOCATIONS.load(Ordering::SeqCst), result)
}

/// Allocations and page walks inside the measured window of one
/// single-core configuration.
fn steady_state(label: &str, config: SystemConfig) -> (u64, u64) {
    const FOOTPRINT: u64 = 32 * 1024 * 1024;
    const WARMUP: u64 = 20_000;
    const MEASURED: u64 = 50_000;

    let mut system = System::new(config);
    let pid = system.pid();
    system
        .mmap_anonymous(VirtAddr::new(0x10_0000_0000), FOOTPRINT)
        .expect("map workload region");
    // Establish every mapping up front (MAP_POPULATE): the measured
    // segment then exercises translation, page walks, caches and DRAM —
    // but takes no page faults.
    system.populate(pid);

    // GUPS-style uniform random accesses over 8192 base pages: most
    // translations miss both TLB levels and walk.
    let spec = WorkloadSpec::simple(
        "alloc-free",
        WorkloadClass::LongRunning,
        FOOTPRINT,
        AccessPattern::UniformRandom,
        WARMUP + MEASURED,
    );
    let mut source = spec.build(0xA110C);

    let mut step = |n: u64, system: &mut System| {
        for _ in 0..n {
            let instr = source.next_instruction().expect("trace long enough");
            system.step(&instr);
        }
    };

    // Warmup: first touches of the dense accounting slots, TLB/PWC/cache
    // fills, DRAM bank state.
    step(WARMUP, &mut system);

    let walks_before = system.report().page_walks;
    let (allocations, ()) = allocations_during(|| step(MEASURED, &mut system));
    let walks = system.report().page_walks - walks_before;
    eprintln!("{label}: {allocations} allocations, {walks} walks over {MEASURED} steady-state instructions");
    (allocations, walks)
}

/// The multi-core variant: four cores, one populated process pinned to
/// each, stepped round-robin through the per-core stepping API. The
/// sharded frontend (per-core TLBs/PWCs/engines, the active-core
/// indirection) must not reintroduce allocations into the steady state.
/// Returns the allocations and the fewest walks any one core performed.
fn multicore_steady_state() -> (u64, u64) {
    const CORES: usize = 4;
    const FOOTPRINT: u64 = 16 * 1024 * 1024;
    const WARMUP: u64 = 20_000;
    const MEASURED: u64 = 50_000;

    let mut system = System::new(base_config().with_cores(CORES));
    let mut pids = vec![system.pid()];
    while pids.len() < CORES {
        pids.push(system.spawn_process());
    }
    for &pid in &pids {
        system
            .mmap_anonymous_for(pid, VirtAddr::new(0x10_0000_0000), FOOTPRINT)
            .expect("map workload region");
        system.populate(pid);
    }

    let spec = WorkloadSpec::simple(
        "alloc-free-mc",
        WorkloadClass::LongRunning,
        FOOTPRINT,
        AccessPattern::UniformRandom,
        WARMUP + MEASURED,
    );
    let mut sources: Vec<_> = (0..CORES)
        .map(|i| spec.build(0xA110C ^ (i as u64) << 8))
        .collect();

    let mut step = |n: u64, system: &mut System| {
        for i in 0..n {
            let core = (i % CORES as u64) as usize;
            let instr = sources[core].next_instruction().expect("trace long enough");
            system.step_on(core, &instr);
        }
    };
    let walks_on = |system: &System, core: usize| system.mmu_of(core).stats().walks.get();

    step(WARMUP, &mut system);
    let before: Vec<u64> = (0..CORES).map(|core| walks_on(&system, core)).collect();
    let (allocations, ()) = allocations_during(|| step(MEASURED, &mut system));
    let walks: Vec<u64> = (0..CORES)
        .map(|core| walks_on(&system, core) - before[core])
        .collect();
    eprintln!(
        "multicore: {allocations} allocations, {walks:?} walks per core over {MEASURED} steady-state instructions"
    );
    (allocations, walks.into_iter().min().unwrap_or(0))
}

/// The threaded multi-core loop: four populated cores on two host
/// threads, run for `budget` instructions in total through
/// `run_multiprogram`, so every epoch slice is fetched and translated on
/// the worker and replayed chunk by chunk at the barrier. Returns the
/// allocations of the whole call, worker included, and the epoch counters.
fn threaded_run(budget: u64) -> (u64, EpochStats) {
    const CORES: usize = 4;
    const FOOTPRINT: u64 = 16 * 1024 * 1024;

    let mut system = System::new(base_config().with_cores(CORES).with_host_threads(2));
    let mut pids = vec![system.pid()];
    while pids.len() < CORES {
        pids.push(system.spawn_process());
    }
    for &pid in &pids {
        system
            .mmap_anonymous_for(pid, VirtAddr::new(0x10_0000_0000), FOOTPRINT)
            .expect("map workload region");
        system.populate(pid);
    }
    let spec = WorkloadSpec::simple(
        "alloc-free-epochs",
        WorkloadClass::LongRunning,
        FOOTPRINT,
        AccessPattern::UniformRandom,
        budget,
    );
    let mut sources: Vec<_> = (0..CORES)
        .map(|i| spec.build(0xE90C ^ (i as u64) << 8))
        .collect();
    let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = pids
        .iter()
        .copied()
        .zip(sources.iter_mut().map(|s| s as &mut dyn TraceSource))
        .collect();
    let (allocations, report) =
        threads_spawned_during(|| system.run_multiprogram(&mut programs, Some(budget)));
    assert_eq!(report.rollup.instructions, budget);
    assert!(report.rollup.page_walks > 0, "the threaded run must walk");
    (allocations, system.epoch_stats())
}

#[test]
fn steady_state_instructions_allocate_nothing() {
    // Sanity-check the counter itself before trusting the zero results.
    let (sanity, _) = allocations_during(|| std::hint::black_box(Vec::<u64>::with_capacity(16)));
    assert!(
        sanity > 0,
        "the counting allocator must observe allocations"
    );

    for (label, config, must_walk) in cases() {
        let (allocations, walks) = steady_state(label, config);
        assert_eq!(allocations, 0, "{label} steady state must not allocate");
        assert!(
            walks > 0 || !must_walk,
            "{label}: no page walk in the measured window, the zero above proves nothing"
        );
    }

    let (allocations, fewest_walks) = multicore_steady_state();
    assert_eq!(allocations, 0, "four-core steady state must not allocate");
    assert!(
        fewest_walks > 0,
        "four-core: a core performed no page walk in the measured window"
    );

    // Twice the budget, the same allocations: whatever the threaded loop
    // allocates (threads, channels, fetch queues, the chunk-log pools, the
    // report) it allocates once, never per epoch. The first run also
    // brings this thread's lazily built channel state up.
    const BUDGET: u64 = 80_000;
    threaded_run(BUDGET);
    let (once, stats) = threaded_run(BUDGET);
    let (twice, stats_twice) = threaded_run(2 * BUDGET);
    eprintln!(
        "threaded: {once} allocations over {BUDGET} instructions, {twice} over {}",
        2 * BUDGET
    );
    for stats in [stats, stats_twice] {
        assert!(
            stats.jobs_handed_off > 0 && stats.chunks_streamed > 0,
            "threaded: slices must run on the worker and stream ({stats:?})"
        );
    }
    assert_eq!(
        once, twice,
        "the threaded epoch loop's steady state must not allocate"
    );
}

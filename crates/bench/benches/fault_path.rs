//! Criterion benches for MimicOS's functional fault path, the work that
//! runs before a single cycle is charged: `System::populate` (lookup, VMA
//! walk, buddy, kernel-stream assembly, per-process page map, page-table
//! install) and a reclaim round trip (swap-out, then swap the same pages
//! back in). Each iteration builds its machine afresh — populate is
//! one-shot — which costs tens of microseconds against milliseconds of
//! faults. Divide the printed time by the page count in the id for ns/page.
//! The `boot` group times the paper machine's fragmented boot on its own,
//! the `fence` group the coherence fence on a populated machine, and the
//! `report` group report assembly on the same machine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mimic_os::buddy::BuddyAllocator;
use mimic_os::{AllocationPolicy, MimicOs, OsConfig, ThpConfig};
use virtuoso::{System, SystemConfig};
use vm_types::{DetRng, PageSize, VirtAddr};

const MIB: u64 = 1 << 20;
const PAGE: u64 = PageSize::Size4K.bytes();
/// Base of every benched virtual footprint.
const VA_BASE: u64 = 0x4000_0000;

/// `System::populate` over a fresh anonymous VMA, on memory twice the
/// footprint so nothing is reclaimed. `BuddyFourK` takes one 4 KiB fault
/// per page; `LinuxThp` takes one 2 MiB fault per 512.
fn populate(c: &mut Criterion) {
    let mut group = c.benchmark_group("populate");
    for policy in [AllocationPolicy::BuddyFourK, AllocationPolicy::LinuxThp] {
        for pages in [8 * 1024u64, 64 * 1024] {
            let mut config = SystemConfig::small_test().with_allocation_policy(policy);
            config.os.memory_bytes = (2 * pages * PAGE).max(256 * MIB);
            let id = BenchmarkId::new(policy.label(), format!("{pages}_pages"));
            group.bench_function(id, |b| {
                b.iter(|| {
                    let mut system = System::new(config.clone());
                    system
                        .mmap_anonymous(VirtAddr::new(VA_BASE), pages * PAGE)
                        .expect("the bench VMA is fresh");
                    system.populate(system.pid());
                    let mapped = system.os().process(system.pid()).resident_bytes();
                    assert_eq!(mapped, pages * PAGE, "populate must map the footprint");
                    mapped
                })
            });
        }
    }
    group.finish();
}

/// First-touches a footprint twice the size of `small_test`'s 256 MiB, so
/// the second half is only mapped by swapping the first half out, then
/// touches the evicted pages again: every one is a swap-in that pushes
/// another page out.
fn swap_round_trip(c: &mut Criterion) {
    let config = OsConfig {
        policy: AllocationPolicy::BuddyFourK,
        thp: ThpConfig::disabled(),
        swap_bytes: 1024 * MIB,
        ..OsConfig::small_test()
    };
    let pages = 2 * config.memory_bytes / PAGE;
    /// Pages touched again: enough to time, few enough to stay inside the
    /// window where sustained over-commit is healthy (ROADMAP item 2(d)).
    const RETOUCHED: u64 = 8 * 1024;
    let mut group = c.benchmark_group("swap_round_trip");
    let id = BenchmarkId::new("out_then_in", format!("{pages}_pages_{RETOUCHED}_back"));
    group.bench_function(id, |b| {
        b.iter(|| {
            let mut os = MimicOs::new(config.clone());
            let pid = os.spawn_process();
            os.mmap_anonymous(pid, VirtAddr::new(VA_BASE), pages * PAGE, false)
                .expect("the bench VMA is fresh");
            for page in (0..pages).chain(0..RETOUCHED) {
                os.handle_page_fault(pid, VirtAddr::new(VA_BASE + page * PAGE), true)
                    .expect("swap has room for the over-commit");
            }
            let swap_ins = os.stats().swap_in_faults.get();
            assert_eq!(swap_ins, RETOUCHED, "every re-touched page was swapped out");
            swap_ins
        })
    });
    group.finish();
}

/// Boot of the paper's Table 4 machine: 256 GiB with 80 % of its 2 MiB
/// regions left free. `mimic_os/paper_baseline` is the whole `MimicOs::new`;
/// `fragment/256GiB_0.8` is `BuddyAllocator::fragment` alone on a fresh
/// allocator, which is nearly all of it.
fn boot(c: &mut Criterion) {
    let config = OsConfig::paper_baseline();
    let target = config
        .fragmentation_target
        .expect("the paper machine is fragmented");
    let assert_on_target = |availability: f64| {
        assert!(
            (availability - target).abs() <= 0.01,
            "huge-page availability {availability} missed the target {target}"
        );
        availability
    };
    let mut group = c.benchmark_group("boot");
    group.bench_function(BenchmarkId::new("mimic_os", "paper_baseline"), |b| {
        b.iter(|| {
            assert_on_target(
                MimicOs::new(config.clone())
                    .buddy()
                    .huge_page_availability(),
            )
        })
    });
    group.bench_function(BenchmarkId::new("fragment", "256GiB_0.8"), |b| {
        b.iter(|| {
            let mut buddy = BuddyAllocator::new(config.memory_bytes);
            buddy.fragment(target, &mut DetRng::new(config.seed));
            assert_on_target(buddy.huge_page_availability())
        })
    });
    group.finish();
}

/// `fault_touch`'s machine (1 GiB, 4 KiB pages) with 640 MiB populated:
/// 163 840 mappings and as many faults, about what a `fault_touch` run
/// ends with.
fn fault_touch_machine() -> System {
    const FOOTPRINT: u64 = 640 * MIB;
    let mut config =
        SystemConfig::small_test().with_allocation_policy(AllocationPolicy::BuddyFourK);
    config.os.thp = ThpConfig::disabled();
    config.os.memory_bytes = 1024 * MIB;
    let mut system = System::new(config);
    system
        .mmap_anonymous(VirtAddr::new(VA_BASE), FOOTPRINT)
        .expect("the bench VMA is fresh");
    system.populate(system.pid());
    assert_eq!(
        system.os().process(system.pid()).mapping_count() as u64,
        FOOTPRINT / PAGE,
        "populate must map the footprint"
    );
    system
}

/// `System::check_invariants` on [`fault_touch_machine`]. The machine is
/// built once; only the fence is timed.
fn fence(c: &mut Criterion) {
    let system = fault_touch_machine();
    let mappings = system.os().process(system.pid()).mapping_count();
    let mut group = c.benchmark_group("fence");
    group.sample_size(20);
    let id = BenchmarkId::new("check_invariants", format!("{mappings}_mappings"));
    group.bench_function(id, |b| {
        b.iter(|| {
            system
                .check_invariants()
                .expect("a populated machine is coherent")
        })
    });
    group.finish();
}

/// `System::report` on [`fault_touch_machine`]: what assembling a report
/// costs once a run has taken 163 840 faults. The kernel's latency
/// distribution holds one `(value, count)` pair per distinct latency, so
/// the report copies a few dozen pairs, not one sample per fault. Built
/// once; only the report is timed.
fn report(c: &mut Criterion) {
    let system = fault_touch_machine();
    let faults = system.os().stats().fault_latency_ns.count();
    let mut group = c.benchmark_group("report");
    let id = BenchmarkId::new("system_report", format!("{faults}_faults"));
    group.bench_function(id, |b| {
        b.iter(|| {
            let report = system.report();
            assert_eq!(report.fault_latency_ns.count(), faults);
            report
        })
    });
    group.finish();
}

criterion_group!(benches, populate, swap_round_trip, boot, fence, report);
criterion_main!(benches);

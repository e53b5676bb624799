//! Analytic anchors: simulated figures checked against closed forms that
//! follow from the configuration alone, each within a tolerance fixed
//! before the case was first run.
//!
//! The goldens pin self-consistency, not truth. These cases pin the
//! simulator to answers known in advance:
//!
//! * uniform random accesses over N resident 4 KiB pages miss each TLB
//!   level with probability `1 - K/N` (0 once the level holds all N),
//!   where K is the number of pages held at or above that level;
//! * a cold radix walk reads one entry per level (4 for a 4 KiB page, 3
//!   for a 2 MiB one), and a page-walk-cache hit that skips k levels saves
//!   k of those reads;
//! * first touch of F bytes under `BuddyFourK` takes `ceil(F / 4 KiB)`
//!   minor faults, each recorded once in MimicOS's minor-fault latency
//!   distribution.

use virtuoso_suite::mimic_os::{Mapping, ThpConfig};
use virtuoso_suite::mmu_sim::TlbHierarchyConfig;
use virtuoso_suite::prelude::*;
use virtuoso_suite::vm_types::DetRng;

const PAGE: u64 = 4096;
const BASE: u64 = 0x10_0000_0000;

/// `small_test` with THP off, so every mapping is a 4 KiB page.
fn four_k_config() -> SystemConfig {
    let mut config = SystemConfig::small_test();
    config.os.thp = ThpConfig::disabled();
    config.os.policy = AllocationPolicy::BuddyFourK;
    config
}

/// Uniform random loads over N populated 4 KiB pages, on the paper's TLB
/// hierarchy (Table 4: a 64-entry 4 KiB L1 and a 2048-entry unified L2).
///
/// Under uniform independent references, a level holding K of the N pages
/// hits with probability K/N whatever its replacement policy, and set
/// associativity does not change that when the pages spread evenly over
/// the sets (contiguous pages do). The L1's K is its entry count. Past the
/// L1, K is the number of pages held in the L1 *or* the L2. Assumed here:
/// the hierarchy is inclusive, so that K is the L2's entry count. A walk
/// fills both levels and an L2 hit refills the L1 while keeping the L2
/// copy. An L1 entry lives for ~K1 of its set's misses, far shorter than an
/// L2 entry, so it almost never outlives its L2 copy. So the L1's miss
/// ratio is `1 - K1/N` and the share of all accesses that miss both levels
/// is `1 - K2/N`, each floored at 0.
///
/// Tolerances, absolute on a ratio over 100 000 measured accesses (binomial
/// noise is at most 0.0016): 0.005 on the L1 and 0.01 on the L2, which
/// leaves room for the inclusion assumption's small error.
#[test]
fn uniform_random_tlb_miss_ratios_follow_capacity_over_footprint() {
    const L1_TOLERANCE: f64 = 0.005;
    const L2_TOLERANCE: f64 = 0.01;
    const WARMUP: u64 = 20_000;
    const MEASURED: u64 = 100_000;
    let tlb = TlbHierarchyConfig::paper_baseline();
    let (k1, k2) = (tlb.l1_4k.entries as f64, tlb.l2.entries as f64);
    for pages in [1024u64, 4096, 16_384] {
        let mut config = four_k_config();
        config.mmu.tlb = tlb.clone();
        let mut system = System::new(config);
        system
            .mmap_anonymous(VirtAddr::new(BASE), pages * PAGE)
            .expect("map the footprint");
        system.populate(system.pid());
        let mut rng = DetRng::new(pages);
        let mut load = |system: &mut System| {
            let va = VirtAddr::new(BASE + rng.gen_range(0, pages) * PAGE + 64);
            system.step(&Instruction::load(VirtAddr::new(0x40_0000), va));
        };
        for _ in 0..WARMUP {
            load(&mut system);
        }
        let counts = |system: &System| {
            let tlb = system.mmu().tlb();
            let (l1, l2) = (tlb.l1_4k_stats(), tlb.l2_stats());
            (l1.hits.get(), l1.misses.get(), l2.misses.get())
        };
        let (l1_hits, l1_misses, l2_misses) = counts(&system);
        for _ in 0..MEASURED {
            load(&mut system);
        }
        let (l1_hits_after, l1_misses_after, l2_misses_after) = counts(&system);
        let lookups = (l1_hits_after - l1_hits + l1_misses_after - l1_misses) as f64;
        assert_eq!(lookups, MEASURED as f64, "one L1 lookup per load");
        let l1_miss = (l1_misses_after - l1_misses) as f64 / lookups;
        let both_miss = (l2_misses_after - l2_misses) as f64 / lookups;
        let l1_expected = (1.0 - k1 / pages as f64).max(0.0);
        let both_expected = (1.0 - k2 / pages as f64).max(0.0);
        eprintln!(
            "N = {pages}: L1 miss {l1_miss:.4} (1 - K1/N = {l1_expected:.4}), \
             L1+L2 miss {both_miss:.4} (1 - K2/N = {both_expected:.4})"
        );
        assert!(
            (l1_miss - l1_expected).abs() <= L1_TOLERANCE,
            "N = {pages}: L1 miss ratio {l1_miss} vs 1 - K1/N = {l1_expected}"
        );
        assert!(
            (both_miss - both_expected).abs() <= L2_TOLERANCE,
            "N = {pages}: L1+L2 miss ratio {both_miss} vs 1 - K2/N = {both_expected}"
        );
    }
}

/// A radix walk reads one entry per level from the first level the
/// page-walk caches cannot skip down to the leaf: 4 for a cold 4 KiB page,
/// 3 for a cold 2 MiB page. The PWCs cache the PML4, PDPT and PD entries a
/// walk passes, so a later walk that shares the first walk's 512 GiB, 1 GiB
/// or 2 MiB region skips k = 1, 2 or 3 levels and makes k fewer reads. The
/// leaf entry is always read, so a 2 MiB page (leaf in the PD) saves at
/// most 2. Exact counts: the tolerance is 0.
#[test]
fn radix_walks_read_one_entry_per_level_not_skipped_by_the_pwcs() {
    const GIB: u64 = 1 << 30;
    const MIB_2: u64 = 2 << 20;
    let asid = Asid::new(1);
    // The first walk warms the PWCs; the second shares its region at level
    // k and so may skip k levels.
    let walk_pair = |size: PageSize, first: u64, second: u64| {
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        for (i, va) in [first, second].into_iter().enumerate() {
            mmu.install_mapping(
                asid,
                &Mapping {
                    vaddr: VirtAddr::new(va),
                    paddr: PhysAddr::new((i as u64 + 1) * GIB),
                    page_size: size,
                },
            );
        }
        // Installs fill the TLB: empty it so both translations walk.
        mmu.flush_tlb();
        [first, second].map(|va| {
            let result = mmu.translate(asid, VirtAddr::new(va));
            assert!(!result.is_fault(), "{va:#x} is mapped");
            result.walk.expect("a flushed TLB walks").accesses.len()
        })
    };
    let base = 0x7f00_0000_0000u64;
    // (page size, levels to the leaf, second address, levels the PWCs skip)
    let cases = [
        (PageSize::Size4K, 4, base + (1 << 39), 0),
        (PageSize::Size4K, 4, base + GIB, 1),
        (PageSize::Size4K, 4, base + MIB_2, 2),
        (PageSize::Size4K, 4, base + PAGE, 3),
        (PageSize::Size2M, 3, base + (1 << 39), 0),
        (PageSize::Size2M, 3, base + GIB, 1),
        (PageSize::Size2M, 3, base + MIB_2, 2),
    ];
    for (size, cold, second, k) in cases {
        let [first, warm] = walk_pair(size, base, second);
        assert_eq!(first, cold, "{size:?}: a cold walk reads every level");
        assert_eq!(
            warm,
            cold - k,
            "{size:?}: a walk sharing the first one's region at level {k} saves {k} reads"
        );
    }
}

/// First touch of F bytes of a fresh anonymous region under `BuddyFourK`
/// faults once per 4 KiB page the bytes reach, `ceil(F / 4 KiB)` times, and
/// each fault is minor and recorded once in the minor-fault latency
/// distribution. The region is larger than F, so no fault comes from a page
/// F does not reach. Exact counts: the tolerance is 0.
#[test]
fn first_touch_faults_once_per_page_touched() {
    for bytes in [1u64, PAGE, 3 * PAGE + 1, (1 << 20) + 100] {
        let mut system = System::new(four_k_config());
        system
            .mmap_anonymous(VirtAddr::new(BASE), 2 << 20)
            .expect("map the region");
        for offset in (0..bytes).step_by(64) {
            let va = VirtAddr::new(BASE + offset);
            system.step(&Instruction::store(VirtAddr::new(0x40_0000), va));
        }
        let expected = bytes.div_ceil(PAGE);
        let stats = system.os().stats();
        assert_eq!(stats.minor_faults.get(), expected, "F = {bytes}");
        assert_eq!(stats.total_faults(), expected, "F = {bytes}: all minor");
        assert_eq!(
            stats.minor_fault_latency_ns.count(),
            expected,
            "F = {bytes}: one minor-fault latency sample per fault"
        );
        assert_eq!(stats.fault_latency_ns.count(), expected, "F = {bytes}");
    }
}

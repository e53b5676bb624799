//! The fault-service fence: scripted page faults through every arm of
//! `MimicOs::handle_page_fault` under every `AllocationPolicy`, plus two
//! `System` cells for the framework paths no golden report reaches
//! (`populate`, and an emulation-mode fault storm under memory pressure).
//!
//! Each MimicOS scenario folds the `Debug` text of every step's whole
//! result — the `PageFaultOutcome` with its kernel stream, latencies,
//! extra mappings and invalidation batch, or the error — into one FNV-1a
//! digest, and the final `OsStats` into a second. Each `System` cell
//! digests its serialized report and the final `OsStats`. Both are pinned,
//! so a refactor of the fault path that moves any side effect (a kernel
//! op, a counter, the order of an allocation) fails here with the
//! scenario's name, not three layers up in a figure table.
//!
//! Every scenario also pins the set of paths it reached (`tags`), so it
//! cannot keep its digest by silently no longer reaching its arm.
//!
//! # Mutation table
//!
//! Each change was planted in a copy of the tree, observed and reverted;
//! none is committed.
//!
//! | planted change | what fired |
//! |---|---|
//! | the file-backed arm charges its page-table frames before the page-cache lookup instead of after it | `file_cold` and `file_warm` outcome digests |

use std::collections::BTreeSet;
use std::fmt::Debug;
use virtuoso_suite::mimic_os::{
    FaultKind, OsStats, PageFaultOutcome, ThpConfig, UtopiaConfig, Vma, VmaKind,
};
use virtuoso_suite::prelude::*;

const MIB: u64 = 1024 * 1024;
const BASE: u64 = 0x4000_0000;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_of(value: &impl Debug) -> u64 {
    fnv(FNV_OFFSET, format!("{value:?}").as_bytes())
}

/// One scripted MimicOS run: the kernel, the digest of every fault result
/// so far, and the paths those results reached.
struct Script {
    os: MimicOs,
    digest: u64,
    tags: BTreeSet<String>,
}

impl Script {
    fn new(config: OsConfig) -> Self {
        Script {
            os: MimicOs::new(config),
            digest: FNV_OFFSET,
            tags: BTreeSet::new(),
        }
    }

    /// Faults at `va` in `pid`, folding the whole result into the digest.
    fn fault(&mut self, pid: ProcessId, va: u64, write: bool) -> Option<PageFaultOutcome> {
        let result = self.os.handle_page_fault(pid, VirtAddr::new(va), write);
        self.digest = fnv(self.digest, format!("{result:?}").as_bytes());
        match result {
            Ok(outcome) => {
                self.tag(&outcome);
                Some(outcome)
            }
            Err(error) => {
                let tag = match error {
                    vm_types::VmError::OutOfMemory { .. } => "out-of-memory",
                    vm_types::VmError::SegmentationFault { .. } => "segfault",
                    _ => "other-error",
                };
                self.tags.insert(tag.to_string());
                None
            }
        }
    }

    fn tag(&mut self, outcome: &PageFaultOutcome) {
        let mut tag = |t: String| self.tags.insert(t);
        tag(match outcome.kind {
            FaultKind::Minor | FaultKind::Hugetlb => {
                let zero = match outcome.zeroed_bytes {
                    0 => "unzeroed",
                    _ => "zeroed",
                };
                let place = match outcome.restseg_placed {
                    true => " restseg",
                    false => "",
                };
                format!(
                    "{} {} {zero}{place}",
                    outcome.kind, outcome.mapping.page_size
                )
            }
            kind => kind.to_string(),
        });
        if !outcome.additional_mappings.is_empty() {
            tag("promotion".into());
        }
        if !outcome.invalidations.victims.is_empty() {
            tag("shootdown".into());
        }
        if !outcome.invalidations.replacements.is_empty() {
            tag("replacement".into());
        }
    }

    /// The outcome digest, the final `OsStats` digest and the kernel-wide
    /// paths the counters show were reached.
    fn finish(mut self) -> (u64, u64, BTreeSet<String>) {
        let stats: &OsStats = self.os.stats();
        for (reached, tag) in [
            (stats.reclaimed_pages.get() > 0, "reclaim"),
            (stats.thp_demotions.get() > 0, "demotion"),
            (stats.oom_kills.get() > 0, "oom-kill"),
            (stats.oom_reclaim_retries.get() > 0, "direct-reclaim"),
            (
                stats.injected_alloc_shortfalls.get() > 0,
                "injected-shortfall",
            ),
            (stats.injected_swap_io_errors.get() > 0, "injected-io-error"),
            (
                stats.injected_swap_latency_spikes.get() > 0,
                "injected-spike",
            ),
        ] {
            if reached {
                self.tags.insert(tag.to_string());
            }
        }
        (self.digest, digest_of(stats), self.tags)
    }
}

fn config(policy: AllocationPolicy) -> OsConfig {
    OsConfig {
        policy,
        ..OsConfig::small_test()
    }
}

/// A machine under pressure: 16 MiB of memory, reclaim above half of it.
fn pressure(policy: AllocationPolicy, thp: ThpConfig) -> OsConfig {
    OsConfig {
        memory_bytes: 16 * MIB,
        swap_bytes: 32 * MIB,
        swap_threshold: 0.5,
        thp,
        populate_page_cache: false,
        ..config(policy)
    }
}

/// Touches `count` pages `stride` bytes apart from `start`, writes on odd
/// steps.
fn sweep(s: &mut Script, pid: ProcessId, start: u64, count: u64, stride: u64) {
    for i in 0..count {
        s.fault(pid, start + i * stride, i % 2 == 1);
    }
}

fn four_k() -> Script {
    let mut s = Script::new(config(AllocationPolicy::BuddyFourK));
    let pid = s.os.spawn_process();
    s.os.mmap_anonymous(pid, VirtAddr::new(BASE), 16 * MIB, false)
        .unwrap();
    // New 1 GiB and 2 MiB regions, then pages sharing them.
    sweep(&mut s, pid, BASE, 4, 4096);
    sweep(&mut s, pid, BASE + 2 * MIB, 2, 4096);
    // Spurious (already mapped) and outside every VMA.
    s.fault(pid, BASE + 64, true);
    s.fault(pid, 0xdead_0000, false);
    s
}

fn thp() -> Script {
    // 64 MiB, 1/20 of the 2 MiB regions left free by boot fragmentation:
    // the first faults take pre-zeroed pool pages, the next zero a fresh
    // 2 MiB page inline, and once no 2 MiB block is left the fault falls
    // back to a base page. Every touch opens a fresh 2 MiB region, so
    // every 4 KiB minor fault here is that fallback.
    let mut s = Script::new(OsConfig {
        memory_bytes: 64 * MIB,
        fragmentation_target: Some(0.3),
        ..config(AllocationPolicy::LinuxThp)
    });
    let pid = s.os.spawn_process();
    s.os.mmap_anonymous(pid, VirtAddr::new(BASE), 64 * MIB, false)
        .unwrap();
    sweep(&mut s, pid, BASE, 16, 2 * MIB);
    s
}

fn reservation(policy: AllocationPolicy, pages: u64) -> Script {
    let mut s = Script::new(config(policy));
    let pid = s.os.spawn_process();
    s.os.mmap_anonymous(pid, VirtAddr::new(BASE), 8 * MIB, false)
        .unwrap();
    sweep(&mut s, pid, BASE, pages, 4096);
    // A fault in the promoted region is spurious.
    s.fault(pid, BASE + 300 * 4096, false);
    s
}

fn eager() -> Script {
    // The VMA is larger than memory: eager paging maps what it can at mmap
    // time, the rest faults in on demand through the 4 KiB fallback.
    let mut s = Script::new(pressure(
        AllocationPolicy::EagerPaging,
        ThpConfig::disabled(),
    ));
    let pid = s.os.spawn_process();
    s.os.mmap_anonymous(pid, VirtAddr::new(BASE), 32 * MIB, false)
        .unwrap();
    s.fault(pid, BASE, false);
    sweep(&mut s, pid, BASE + 24 * MIB, 12, 4096);
    s
}

fn utopia() -> Script {
    // A 1 MiB, 2-way RestSeg holds 256 pages: touching 300 fills sets
    // until later pages collide and spill to the FlexSeg.
    let mut s = Script::new(config(AllocationPolicy::Utopia(UtopiaConfig::new(
        MIB,
        2,
        PageSize::Size4K,
    ))));
    let pid = s.os.spawn_process();
    s.os.mmap_anonymous(pid, VirtAddr::new(BASE), 16 * MIB, false)
        .unwrap();
    sweep(&mut s, pid, BASE, 300, 4096);
    s
}

fn hugetlb() -> Script {
    let mut s = Script::new(config(AllocationPolicy::LinuxThp));
    let pid = s.os.spawn_process();
    s.os.mmap_anonymous(pid, VirtAddr::new(0x8000_0000), 8 * MIB, true)
        .unwrap();
    sweep(&mut s, pid, 0x8000_0000, 3, 2 * MIB);
    s.fault(pid, 0x8000_1000, true);
    s
}

fn gigantic() -> Script {
    let mut s = Script::new(OsConfig {
        memory_bytes: 1040 * MIB,
        thp: ThpConfig::disabled(),
        ..config(AllocationPolicy::BuddyFourK)
    });
    let pid = s.os.spawn_process();
    let dax = Vma {
        kind: VmaKind::Dax,
        gigantic_ok: true,
        ..Vma::anonymous(VirtAddr::new(0x40_0000_0000), 2048 * MIB)
    };
    s.os.process_mut(pid).vmas.insert(dax).unwrap();
    // The first gigabyte maps at 1 GiB; no second contiguous gigabyte is
    // left, so the next falls through to a base page.
    s.fault(pid, 0x40_0000_0000 + 5 * MIB, true);
    s.fault(pid, 0x40_4000_0000, false);
    s.fault(pid, 0x40_0000_0000 + 700 * MIB, false);
    s
}

fn file(warm: bool) -> Script {
    // A page cache of 8 pages, so cold reads also evict.
    let mut s = Script::new(OsConfig {
        populate_page_cache: warm,
        page_cache_pages: 8,
        ..config(AllocationPolicy::LinuxThp)
    });
    let pid = s.os.spawn_process();
    s.os.mmap_file(pid, VirtAddr::new(0x1000_0000), 4 * MIB, 3)
        .unwrap();
    sweep(&mut s, pid, 0x1000_0000, 12, 4096);
    s.fault(pid, 0x1000_0000 + 100, false);
    s
}

fn swap_in() -> Script {
    let mut s = Script::new(OsConfig {
        fault_injection: FaultInjectionConfig {
            swap_io_error_rate: 0.2,
            swap_latency_spike_rate: 0.2,
            swap_latency_spike_ns: 50_000.0,
            ..FaultInjectionConfig::default()
        },
        ..pressure(AllocationPolicy::BuddyFourK, ThpConfig::disabled())
    });
    let pid = s.os.spawn_process();
    s.os.mmap_anonymous(pid, VirtAddr::new(BASE), 64 * MIB, false)
        .unwrap();
    sweep(&mut s, pid, BASE, 2100, 4096);
    // Back in, in the order they went out.
    sweep(&mut s, pid, BASE, 40, 4096);
    s
}

fn reclaim_thp() -> Script {
    // Huge pages only: reclaim must demote one to find base pages, and
    // scripted allocation shortfalls send faults into direct reclaim.
    let mut s = Script::new(OsConfig {
        fault_injection: FaultInjectionConfig {
            scripted_alloc_shortfalls: vec![0, 3, 4],
            ..FaultInjectionConfig::default()
        },
        ..pressure(
            AllocationPolicy::LinuxThp,
            ThpConfig {
                zeroed_pool_capacity: 1,
                ..ThpConfig::linux_default()
            },
        )
    });
    let pid = s.os.spawn_process();
    s.os.mmap_anonymous(pid, VirtAddr::new(BASE), 64 * MIB, false)
        .unwrap();
    sweep(&mut s, pid, BASE, 8, 2 * MIB);
    sweep(&mut s, pid, BASE + 40 * MIB, 600, 4096);
    s
}

fn oom() -> Script {
    // 4 MiB and no swap: the second process's faults kill the first, then
    // fail once no victim is left.
    let mut s = Script::new(OsConfig {
        memory_bytes: 4 * MIB,
        swap_bytes: 0,
        ..pressure(AllocationPolicy::BuddyFourK, ThpConfig::disabled())
    });
    let a = s.os.spawn_process();
    let b = s.os.spawn_process();
    for pid in [a, b] {
        s.os.mmap_anonymous(pid, VirtAddr::new(BASE), 16 * MIB, false)
            .unwrap();
    }
    sweep(&mut s, a, BASE, 300, 4096);
    sweep(&mut s, b, BASE, 1100, 4096);
    s
}

/// Each scenario: name, script, pinned outcome and stats digests, and the
/// paths it must reach.
type Pin = (
    &'static str,
    fn() -> Script,
    u64,
    u64,
    &'static [&'static str],
);

const PINS: &[Pin] = &[
    (
        "four_k",
        four_k,
        0xfb63_b651_6d01_738b,
        0xa78b_9df6_d551_b34b,
        &["minor 4KB zeroed", "segfault", "spurious"],
    ),
    (
        "thp",
        thp,
        0x021a_394e_1edd_7cb9,
        0x78ad_7b7e_bc13_9135,
        &["minor 2MB unzeroed", "minor 2MB zeroed", "minor 4KB zeroed"],
    ),
    (
        "cr_thp",
        || reservation(AllocationPolicy::ConservativeReservationThp, 260),
        0x36ea_cef8_0729_c49f,
        0x474c_29db_9dd7_e538,
        &["minor 4KB zeroed", "promotion", "spurious"],
    ),
    (
        "ar_thp",
        || reservation(AllocationPolicy::AggressiveReservationThp, 60),
        0x429b_9a50_66a3_1c71,
        0x0099_e7cd_735d_2cb2,
        &["minor 4KB zeroed", "promotion", "spurious"],
    ),
    (
        "eager",
        eager,
        0x3ddd_2ddf_73de_060e,
        0x222c_d541_8b40_6190,
        &[
            "demotion",
            "minor 4KB zeroed",
            "reclaim",
            "replacement",
            "shootdown",
            "spurious",
        ],
    ),
    (
        "utopia",
        utopia,
        0x1f05_2616_d0fe_0c2e,
        0xbf48_5c70_4b9c_f7da,
        &["minor 4KB zeroed", "minor 4KB zeroed restseg"],
    ),
    (
        "hugetlb",
        hugetlb,
        0xeae6_35e8_6100_058d,
        0x2a1e_665a_65cc_546b,
        &["hugetlb 2MB zeroed", "spurious"],
    ),
    (
        "gigantic",
        gigantic,
        0xcd70_1c20_fd6d_b5e0,
        0x1ae7_7399_8bdb_3c67,
        &[
            "demotion",
            "minor 1GB unzeroed",
            "minor 4KB zeroed",
            "reclaim",
            "replacement",
            "shootdown",
            "spurious",
        ],
    ),
    (
        "file_cold",
        || file(false),
        0xe428_fad3_c6dd_e857,
        0xc0b2_ebac_c82b_72f2,
        &["major", "spurious"],
    ),
    (
        "file_warm",
        || file(true),
        0xe79c_652f_fdb0_2ad3,
        0x4d30_3d86_bb0d_15d3,
        &["major", "minor 4KB unzeroed", "spurious"],
    ),
    (
        "swap_in",
        swap_in,
        0x3558_1985_c0d2_b19d,
        0x3ad1_d0ef_1db7_84ad,
        &[
            "injected-io-error",
            "injected-spike",
            "minor 4KB zeroed",
            "reclaim",
            "shootdown",
            "swap-in",
        ],
    ),
    (
        "reclaim_thp",
        reclaim_thp,
        0xf3ef_062d_4e58_0962,
        0xb477_8cbe_d741_0ea0,
        &[
            "demotion",
            "direct-reclaim",
            "injected-shortfall",
            "minor 2MB unzeroed",
            "minor 2MB zeroed",
            "minor 4KB zeroed",
            "reclaim",
            "replacement",
            "shootdown",
            "spurious",
        ],
    ),
    (
        "oom",
        oom,
        0x5953_0227_45b1_8455,
        0xd8f1_a380_9856_2fe3,
        &[
            "direct-reclaim",
            "minor 4KB zeroed",
            "oom-kill",
            "out-of-memory",
            "shootdown",
        ],
    ),
];

#[test]
fn every_fault_arm_keeps_its_pinned_outcomes() {
    let mut failures = Vec::new();
    for &(name, script, outcomes, stats, tags) in PINS {
        let (got_outcomes, got_stats, got_tags) = script().finish();
        let want: BTreeSet<String> = tags.iter().map(|t| t.to_string()).collect();
        if (got_outcomes, got_stats) != (outcomes, stats) || got_tags != want {
            failures.push(format!(
                "{name}: outcomes {got_outcomes:#018x}, stats {got_stats:#018x}, tags {got_tags:?}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The digests of a serialized report and of the `System`'s final
/// `OsStats`.
fn system_digests(system: &System, report_json: &str) -> (u64, u64) {
    (
        fnv(FNV_OFFSET, report_json.as_bytes()),
        digest_of(system.os().stats()),
    )
}

/// `populate` on a THP machine smaller than its two processes: the first
/// populate maps huge and base pages, the second re-installs what is
/// already mapped, and the second process's populate reclaims, demotes
/// and finally OOM-kills the first.
#[test]
fn populate_keeps_its_pinned_report() {
    let mut config = SystemConfig::small_test();
    config.os.memory_bytes = 32 * MIB;
    config.os.swap_bytes = 8 * MIB;
    config.os.swap_threshold = 0.6;
    let mut system = System::new(config);
    let a = system.pid();
    let b = system.spawn_process();
    for pid in [a, b] {
        system
            .mmap_anonymous_for(pid, VirtAddr::new(BASE), 28 * MIB)
            .unwrap();
    }
    system.populate(a);
    system.populate(a);
    system.populate(b);
    system.check_invariants().unwrap();
    let report = system.report();
    let oom = report.oom.expect("the populate reached the OOM killer");
    assert!(oom.kills >= 1);
    assert!(report.shootdowns.as_ref().is_some_and(|s| s.pages > 0));
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(
        system_digests(&system, &json),
        (0x64bd_4689_94f4_ad49, 0x9bda_e74b_9534_7cf4)
    );
}

/// An emulation-mode run on two cores under pressure: reclaim shootdowns
/// with cross-core IPIs, an OOM kill, and faults that fail for memory.
#[test]
fn an_emulation_fault_storm_keeps_its_pinned_report() {
    let mut config = SystemConfig::small_test().with_emulation_baseline();
    config.os.memory_bytes = 8 * MIB;
    config.os.swap_bytes = 4 * MIB;
    config.os.swap_threshold = 0.5;
    config.os.num_cores = 2;
    config.os.sched_quantum = 500;
    config.os.policy = AllocationPolicy::BuddyFourK;
    config.os.thp = ThpConfig::disabled();
    config.os.populate_page_cache = false;
    let mut system = System::new(config);
    let a = system.pid();
    let b = system.spawn_process();
    for pid in [a, b] {
        system
            .mmap_anonymous_for(pid, VirtAddr::new(BASE), 16 * MIB)
            .unwrap();
    }
    let trace = |count: u64, stride: u64| -> Vec<Instruction> {
        (0..count)
            .map(|i| {
                Instruction::store(
                    VirtAddr::new(0x400 + (i % 64) * 4),
                    VirtAddr::new(BASE + (i * stride) % (16 * MIB)),
                )
            })
            .collect()
    };
    let mut fa = SliceFrontend::new("a", trace(5000, 4096));
    let mut fb = SliceFrontend::new("b", trace(5000, 4096 * 3));
    let report = {
        let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = vec![(a, &mut fa), (b, &mut fb)];
        system.run_multiprogram(&mut programs, None)
    };
    system.check_invariants().unwrap();
    let oom = report.rollup.oom.expect("the storm reached the OOM killer");
    assert!(oom.kills >= 1 && oom.oom_failures > 0);
    assert!(report
        .rollup
        .shootdowns
        .as_ref()
        .is_some_and(|s| s.batches > 0));
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(
        system_digests(&system, &json),
        (0xa7df_501d_3825_052f, 0xff6b_7a7f_ce02_37a0)
    );
}

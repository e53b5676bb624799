//! Integration tests spanning crates: the full Virtuoso stack driven by
//! synthetic workloads from the catalogue.

use virtuoso_suite::prelude::*;

fn build_system(config: SystemConfig, spec: &WorkloadSpec) -> System {
    let mut system = System::new(config);
    for (i, region) in spec.regions.iter().enumerate() {
        if region.file_backed {
            system
                .mmap_file(region.start, region.bytes, i as u64 + 1)
                .unwrap();
        } else {
            system.mmap_anonymous(region.start, region.bytes).unwrap();
        }
    }
    system
}

#[test]
fn long_running_workload_is_translation_bound() {
    let spec = catalog::gups_randacc().with_instructions(30_000);
    let mut system = build_system(SystemConfig::small_test(), &spec);
    let report = system.run(&mut spec.build(1), None);
    assert_eq!(report.instructions, 30_000);
    assert!(report.page_walks > 0);
    assert!(report.l2_tlb_mpki > 0.0);
    assert!(report.translation_time_fraction() > 0.0);
}

#[test]
fn short_running_workload_is_allocation_bound() {
    use virtuoso_suite::mmu_sim::MmuConfig;
    let spec = catalog::faas_json().with_instructions(30_000);
    // Use the paper's real TLB hierarchy so the small working set is covered
    // by the TLBs (as on the real machine) and allocation dominates.
    let mut config = SystemConfig::small_test();
    config.mmu = MmuConfig::paper_baseline(PageTableKind::Radix);
    let mut system = build_system(config, &spec);
    let report = system.run(&mut spec.build(2), None);
    // Allocation-bound behaviour: the run takes first-touch faults, spends a
    // measurable share of its time in the fault handler, and — with the
    // paper's real TLB hierarchy covering the small working set — only a
    // small share of its time on address translation (the Fig. 1 contrast).
    assert!(report.minor_faults > 0);
    assert!(report.allocation_time_fraction() > 0.0);
    assert!(report.translation_time_fraction() < 0.5);
}

#[test]
fn detailed_mode_differs_from_emulation_mode_in_timing_not_function() {
    let spec = catalog::faas_db_filter().with_instructions(20_000);
    let mut detailed = build_system(SystemConfig::small_test(), &spec);
    let mut emulated = build_system(SystemConfig::small_test().with_emulation_baseline(), &spec);
    let d = detailed.run(&mut spec.build(3), None);
    let e = emulated.run(&mut spec.build(3), None);
    assert_eq!(
        d.minor_faults + d.major_faults,
        e.minor_faults + e.major_faults
    );
    assert!(d.kernel_instructions > 0);
    assert_eq!(e.kernel_instructions, 0);
}

#[test]
fn every_page_table_design_completes_the_same_workload() {
    // Scale the footprint so it fits the small-test machine's 256 MB of
    // physical memory even under THP.
    let spec = catalog::graphbig_bfs()
        .scaled_footprint(0.25)
        .with_instructions(15_000);
    for kind in PageTableKind::ALL {
        let config = SystemConfig::small_test().with_design(Design::PageTable(kind));
        let mut system = build_system(config, &spec);
        let report = system.run(&mut spec.build(4), None);
        assert_eq!(report.instructions, 15_000, "{kind}");
        assert!(report.page_walks > 0, "{kind}");
        assert_eq!(system.segfaults(), 0, "{kind}");
    }
}

#[test]
fn allocation_policies_complete_and_differ_in_huge_page_usage() {
    let spec = catalog::llm_llama().with_instructions(20_000);
    let mut huge_by_policy = Vec::new();
    for policy in [AllocationPolicy::BuddyFourK, AllocationPolicy::LinuxThp] {
        let mut system = build_system(
            SystemConfig::small_test().with_allocation_policy(policy),
            &spec,
        );
        let report = system.run(&mut spec.build(5), None);
        huge_by_policy.push(report.huge_mappings);
    }
    assert_eq!(
        huge_by_policy[0], 0,
        "BuddyFourK must not create huge pages"
    );
    assert!(huge_by_policy[1] > 0, "LinuxThp should create huge pages");
}

#[test]
fn swap_path_exercises_the_ssd_model() {
    use virtuoso_suite::mimic_os::{OsConfig, ThpConfig};
    let mut config = SystemConfig::small_test();
    config.os = OsConfig {
        memory_bytes: 16 * 1024 * 1024,
        swap_bytes: 64 * 1024 * 1024,
        swap_threshold: 0.5,
        policy: AllocationPolicy::BuddyFourK,
        thp: ThpConfig::disabled(),
        fragmentation_target: None,
        populate_page_cache: false,
        ..OsConfig::small_test()
    };
    let spec = WorkloadSpec::simple(
        "swap-pressure",
        WorkloadClass::LongRunning,
        48 * 1024 * 1024,
        AccessPattern::UniformRandom,
        40_000,
    );
    let mut system = build_system(config, &spec);
    let report = system.run(&mut spec.build(6), None);
    assert!(
        report.swapped_pages > 0,
        "memory pressure must trigger swapping"
    );
    assert!(report.swap_io_ns > 0.0);
    assert!(system.os().ssd().stats().total_requests() > 0);
}

#[test]
fn reports_serialize_to_json() {
    let spec = catalog::img_2d_sum().with_instructions(5_000);
    let mut system = build_system(SystemConfig::small_test(), &spec);
    let report = system.run(&mut spec.build(7), None);
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(json.contains("\"workload\""));
}

/// The acceptance scenario of the multi-process extension: the catalogue's
/// GUPS + Llama mix runs interleaved under the scheduler, produces
/// per-process reports, and the ASID-tagged TLB configuration takes fewer
/// flush-induced page walks than the full-flush baseline.
#[test]
fn two_process_interleaved_run_with_asid_selective_flushes() {
    let run = |asid_tags: bool| {
        let mut config = SystemConfig::small_test();
        config.mmu.asid_tlb_tags = asid_tags;
        let mut system = System::new(config);
        let specs: Vec<WorkloadSpec> = catalog::multiprogram_mix()
            .into_iter()
            .map(|s| s.with_instructions(8_000))
            .collect();
        let pids = [system.pid(), system.spawn_process()];
        for (pid, spec) in pids.iter().zip(&specs) {
            for (i, region) in spec.regions.iter().enumerate() {
                if region.file_backed {
                    system
                        .mmap_file_for(*pid, region.start, region.bytes, i as u64 + 1)
                        .unwrap();
                } else {
                    system
                        .mmap_anonymous_for(*pid, region.start, region.bytes)
                        .unwrap();
                }
            }
        }
        let mut sources: Vec<_> = specs.iter().map(|s| s.build(9)).collect();
        let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = pids
            .iter()
            .copied()
            .zip(sources.iter_mut().map(|s| s as &mut dyn TraceSource))
            .collect();
        system.run_multiprogram(&mut programs, None)
    };

    let tagged = run(true);
    let flushed = run(false);

    // The run completes with one report per process.
    assert_eq!(tagged.processes.len(), 2);
    assert_eq!(tagged.processes[0].workload, "RND");
    assert_eq!(tagged.processes[1].workload, "Llama-2-7B");
    for p in &tagged.processes {
        assert_eq!(p.instructions, 8_000);
        assert!(p.cycles > 0);
        assert!(p.tlb_translations > 0);
        assert!(p.minor_faults > 0);
    }
    assert_eq!(tagged.rollup.instructions, 16_000);
    assert!(tagged.context_switches > 0);

    // ASID-selective behaviour: no entries lost to switches, and fewer
    // flush-induced TLB misses (page walks) than the full-flush baseline.
    assert_eq!(tagged.switch_flushed_tlb_entries, 0);
    assert!(flushed.switch_flushed_tlb_entries > 0);
    let walks = |r: &MultiProgramReport| -> u64 { r.processes.iter().map(|p| p.page_walks).sum() };
    assert!(
        walks(&tagged) < walks(&flushed),
        "ASID tags: {} walks, full flush: {} walks",
        walks(&tagged),
        walks(&flushed)
    );
}

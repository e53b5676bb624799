//! Property-based integration tests: cross-crate invariants that must hold
//! for arbitrary (small) workloads.

use proptest::prelude::*;
use virtuoso_suite::prelude::*;

fn run_workload(
    footprint_mb: u64,
    instructions: u64,
    seed: u64,
    pattern: AccessPattern,
) -> SimulationReport {
    let spec = WorkloadSpec::simple(
        "prop",
        WorkloadClass::LongRunning,
        footprint_mb * 1024 * 1024,
        pattern,
        instructions,
    );
    let mut system = System::new(SystemConfig::small_test());
    system
        .mmap_anonymous(spec.regions[0].start, spec.regions[0].bytes)
        .unwrap();
    system.run(&mut spec.build(seed), None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn simulation_is_deterministic(seed in 0u64..1000) {
        let a = run_workload(8, 3_000, seed, AccessPattern::UniformRandom);
        let b = run_workload(8, 3_000, seed, AccessPattern::UniformRandom);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.minor_faults, b.minor_faults);
        prop_assert_eq!(a.dram_row_conflicts, b.dram_row_conflicts);
    }

    #[test]
    fn instruction_accounting_is_exact(instructions in 500u64..5_000, seed in 0u64..100) {
        let report = run_workload(4, instructions, seed, AccessPattern::PointerChasing);
        prop_assert_eq!(report.instructions, instructions);
        prop_assert!(report.cycles > 0);
        prop_assert!(report.ipc > 0.0);
    }

    #[test]
    fn time_fractions_are_probabilities(seed in 0u64..100) {
        let report = run_workload(16, 4_000, seed, AccessPattern::UniformRandom);
        let t = report.translation_time_fraction();
        let a = report.allocation_time_fraction();
        prop_assert!((0.0..=1.0).contains(&t));
        prop_assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn faults_never_exceed_touched_pages(seed in 0u64..100) {
        let report = run_workload(8, 4_000, seed, AccessPattern::UniformRandom);
        // At most one fault per 4 KiB page of the footprint plus a small
        // slack for huge-page regions.
        prop_assert!(report.total_faults() <= 8 * 256 + 16);
    }

    #[test]
    fn asid_tagged_tlb_never_crosses_address_spaces(seed in 0u64..500) {
        // Install the same random virtual pages in two address spaces with
        // disjoint physical bases; every translation must resolve within
        // the requesting space's base, regardless of TLB state.
        use virtuoso_suite::mimic_os::Mapping;
        let mut rng = virtuoso_suite::vm_types::DetRng::new(seed);
        let mut mmu = Mmu::new(MmuConfig::small_test(PageTableKind::Radix));
        let a = Asid::new(1);
        let b = Asid::new(2);
        const BASE_A: u64 = 0x10_0000_0000;
        const BASE_B: u64 = 0x20_0000_0000;
        let mut pages = Vec::new();
        for _ in 0..64 {
            let va = (rng.gen_range(0, 1 << 20)) * 4096;
            pages.push(va);
            for (asid, base) in [(a, BASE_A), (b, BASE_B)] {
                mmu.install_mapping(asid, &Mapping {
                    vaddr: VirtAddr::new(va),
                    paddr: PhysAddr::new(base + va),
                    page_size: PageSize::Size4K,
                });
            }
        }
        for _ in 0..256 {
            let va = pages[rng.gen_range(0, pages.len() as u64) as usize]
                + rng.gen_range(0, 4096);
            let (asid, base) = if rng.gen_bool(0.5) { (a, BASE_A) } else { (b, BASE_B) };
            let result = mmu.translate(asid, VirtAddr::new(va));
            prop_assert_eq!(result.paddr, Some(PhysAddr::new(base + va)));
        }
        // A third address space must fault on every one of those pages.
        let stranger = Asid::new(3);
        for &va in pages.iter().take(16) {
            prop_assert!(mmu.translate(stranger, VirtAddr::new(va)).is_fault());
        }
    }

    #[test]
    fn page_table_engine_is_access_for_access_identical_to_the_mmu(seed in 0u64..500) {
        // The tentpole's no-regression pin: driving random install /
        // translate / context-switch / flush sequences through
        // `TranslationEngine::PageTable` must produce results identical —
        // down to every modeled walk access — to the direct `Mmu` path it
        // wraps. Any divergence would also shift the radix golden reports.
        use virtuoso_suite::mimic_os::Mapping;
        use virtuoso_suite::mmu_sim::InstallInfo;
        let mut rng = virtuoso_suite::vm_types::DetRng::new(seed ^ 0xE61E);
        let config = MmuConfig::small_test(PageTableKind::Radix);
        let mut engine =
            TranslationEngine::new(EngineConfig::PageTable, &AllocationPolicy::BuddyFourK);
        let mut engine_mmu = Mmu::new(config.clone());
        let mut mmu = Mmu::new(config);
        let asids = [Asid::KERNEL, Asid::new(1), Asid::new(2)];
        let mut installed: Vec<u64> = Vec::new();
        for _ in 0..300 {
            let asid = asids[rng.gen_range(0, asids.len() as u64) as usize];
            match rng.gen_range(0, 10) {
                // Install a page (occasionally huge) in a random space.
                0..=2 => {
                    let size = if rng.gen_bool(0.2) { PageSize::Size2M } else { PageSize::Size4K };
                    let va = rng.gen_range(0, 1 << 18) * 4096;
                    let mapping = Mapping {
                        vaddr: VirtAddr::new(va).page_base(size),
                        paddr: PhysAddr::new(0x10_0000_0000 + (va & !(size.bytes() - 1))),
                        page_size: size,
                    };
                    installed.push(va);
                    let ea = engine.handle_fault_install(
                        &mut engine_mmu, asid, &mapping, InstallInfo::default(),
                    );
                    let ma = mmu.install_mapping(asid, &mapping);
                    prop_assert_eq!(ea, ma, "install accesses must match");
                }
                // Context switch (both policies share the config).
                3 => {
                    prop_assert_eq!(engine_mmu.context_switch(), mmu.context_switch());
                }
                // Tear down one address space.
                4 => {
                    prop_assert_eq!(
                        engine.flush_asid(&mut engine_mmu, asid),
                        mmu.flush_asid(asid)
                    );
                }
                // Translate a previously installed or random address.
                _ => {
                    let va = if installed.is_empty() || rng.gen_bool(0.3) {
                        rng.gen_range(0, 1 << 30)
                    } else {
                        installed[rng.gen_range(0, installed.len() as u64) as usize]
                            + rng.gen_range(0, 4096)
                    };
                    let er = engine.translate(&mut engine_mmu, asid, VirtAddr::new(va));
                    let mr = mmu.translate(asid, VirtAddr::new(va));
                    prop_assert_eq!(er, mr, "translation results must match");
                }
            }
        }
        // Accumulated statistics agree too.
        prop_assert_eq!(engine_mmu.stats(), mmu.stats());
    }

    #[test]
    fn no_stale_translation_survives_reclaim(
        seed in 0u64..300,
        cores in 1usize..5,
    ) {
        // The shootdown regression fence: after ANY interleaving of
        // faults, reclaims (memory pressure forces them mid-run) and
        // context switches (more processes than cores, small quantum),
        // every core-local TLB entry and every engine-resident translation
        // must agree with the owning process's mapping table. Before the
        // invalidation subsystem, reclaimed pages kept translating through
        // stale TLB entries — and after buddy reuse, into another
        // process's frames. With several cores the same must hold on every
        // core's private frontend: a victim page faulted on one core may
        // be TLB-resident on another, and only the shootdown IPI that
        // every remote core services keeps them coherent.
        //
        // Every design of the table runs: RMM (+ eager paging, so reclaim
        // must split live ranges), Utopia (+ a 2 MiB RestSeg, so reclaim
        // must evict engine residency) and the rest over the 4 KiB buddy.
        use virtuoso_suite::mimic_os::ThpConfig;
        for design in Design::ALL {
            let mut config = SystemConfig::small_test().with_cores(cores);
            config.os.memory_bytes = 16 << 20;
            config.os.swap_bytes = 128 << 20;
            config.os.swap_threshold = 0.5;
            config.os.policy = AllocationPolicy::BuddyFourK;
            config.os.thp = ThpConfig::disabled();
            config.os.populate_page_cache = false;
            config.os.sched_quantum = 1_000;
            let config = config.with_design(design.with_restseg_bytes(2 << 20));
            let native_tlb = match design {
                // Midgard's TLB entries (and L0 pointers) are keyed by Midgard
                // addresses, which an external observer cannot map back, so
                // checks 1 and 1b skip it; its engine state (2, 3) and the
                // kernel's ranges (4) are still checked.
                Design::Midgard => false,
                _ => true,
            };
            let mut system = System::new(config);
            // One more process than cores, so at least one core context
            // switches while the others run pinned processes.
            let mut pids = vec![system.pid()];
            while pids.len() < cores + 1 {
                pids.push(system.spawn_process());
            }
            // Every process maps the SAME virtual layout: RestSeg occupancy is
            // keyed by (ASID, VA), so identical layouts must never alias
            // translations across processes.
            let base = VirtAddr::new(0x1000_0000);
            let footprint: u64 = 12 << 20;
            for &pid in &pids {
                system.mmap_anonymous_for(pid, base, footprint).unwrap();
            }
            let spec = |i: usize| {
                let mut s = WorkloadSpec::simple(
                    "w", WorkloadClass::LongRunning, footprint,
                    AccessPattern::UniformRandom, 5_000,
                );
                s.name = format!("P{i}");
                s.regions[0].start = base;
                s
            };
            let mut sources: Vec<_> = (0..pids.len())
                .map(|i| spec(i).build(seed ^ (i as u64 * 0x5EED)))
                .collect();
            let report = {
                let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = pids
                    .iter()
                    .copied()
                    .zip(sources.iter_mut().map(|s| s as &mut dyn TraceSource))
                    .collect();
                system.run_multiprogram(&mut programs, None)
            };
            // The run must actually have exercised the interesting machinery.
            let label = design.label();
            prop_assert!(
                report.rollup.swapped_pages > 0,
                "{}: no memory pressure reached ({} cores, seed {})",
                label,
                cores,
                seed
            );
            prop_assert!(report.context_switches > 0);
            let shootdowns = report.rollup.shootdowns.as_ref();
            prop_assert!(shootdowns.is_some());
            if cores > 1 {
                // Cross-core IPIs flowed and balanced: every IPI sent was
                // received (the per-core split is fenced in
                // `multicore_differential.rs`).
                let per_core = shootdowns.unwrap().per_core.as_ref()
                    .expect("multi-core shootdowns report per-core stats");
                prop_assert_eq!(per_core.len(), cores);
                let sent: u64 = per_core.iter().map(|c| c.ipis_sent).sum();
                let received: u64 = per_core.iter().map(|c| c.ipis_received).sum();
                prop_assert!(sent > 0, "multi-core reclaim must broadcast IPIs");
                prop_assert_eq!(sent, received);
            }

            let process_of = |asid: Asid| system.os().process(ProcessId(asid.raw() as usize));
            for core in 0..system.num_cores() {
                if native_tlb {
                    // 1. Every core-local TLB entry translates exactly as the
                    //    owning process's mapping table does.
                    for (asid, cached) in system.mmu_of(core).tlb().entries() {
                        let expected = process_of(asid)
                            .lookup_mapping(cached.vaddr)
                            .map(|m| m.translate(cached.vaddr));
                        prop_assert_eq!(
                            expected, Some(cached.translate(cached.vaddr)),
                            "core {}: stale TLB entry {} (asid {})", core, cached, asid.raw()
                        );
                    }
                    // 1b. The L0 pointer cache stands down for every page a
                    //     shootdown invalidated: probe every footprint page of
                    //     every process — an L0 hit must translate exactly as the
                    //     owning process's mapping table, and a hit for a
                    //     reclaimed page (lookup_mapping → None) is a failure.
                    for &pid in &pids {
                        let asid = Asid::new(pid.0 as u16);
                        let process = system.os().process(pid);
                        for page in 0..(footprint / 4096) {
                            let va = base.add(page * 4096);
                            if let Some(pa) = system.mmu_of(core).l0_peek(asid, va) {
                                prop_assert_eq!(
                                    process.lookup_mapping(va).map(|m| m.translate(va)),
                                    Some(pa),
                                    "core {}: stale L0 pointer for {} (asid {})",
                                    core, va, asid.raw()
                                );
                            }
                        }
                    }
                }
                // 2. Every engine-resident page translation agrees.
                for (asid, resident) in system.engine_of(core).resident_mappings() {
                    prop_assert_eq!(
                        process_of(asid).lookup_mapping(resident.vaddr).map(|m| m.paddr),
                        Some(resident.paddr),
                        "core {}: stale RestSeg residency {}", core, resident
                    );
                }
                // 3. Every page of every engine-registered range still maps to
                //    the range's frames (reclaim must have split ranges around
                //    victims).
                for (asid, range) in system.engine_of(core).resident_ranges() {
                    let process = process_of(asid);
                    for page in 0..(range.bytes / 4096) {
                        let va = range.virt_start.add(page * 4096);
                        let expected = range.phys_start.add(page * 4096);
                        let actual = process.lookup_mapping(va).map(|m| m.translate(va));
                        prop_assert_eq!(
                            actual, Some(expected),
                            "core {}: range covers {} but the mapping table disagrees (asid {})",
                            core, va, asid.raw()
                        );
                    }
                }
            }
            // 4. The kernel's own range list agrees the same way.
            for &pid in &pids {
                let process = system.os().process(pid);
                for range in system.os().ranges(pid) {
                    for page in 0..(range.bytes / 4096) {
                        let va = range.virt_start.add(page * 4096);
                        let expected = range.phys_start.add(page * 4096);
                        let actual = process.lookup_mapping(va).map(|m| m.translate(va));
                        prop_assert_eq!(
                            actual, Some(expected),
                            "kernel range covers {} but the mapping table disagrees (pid {})",
                            va, pid.0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn oom_kill_leaves_zero_residue_and_recycled_asids_are_safe(
        seed in 0u64..200,
        cores in 1usize..5,
    ) {
        // The OOM killer's architectural contract: a killed process leaves
        // ZERO cached translation state anywhere in the machine — no TLB
        // entry, no engine residency (RestSeg placements, RMM ranges), no
        // L0 pointer, on any core — and its recycled pid slot (and with it
        // the SAME ASID) can immediately host a fresh process without
        // inheriting a single stale translation. A swapless machine far
        // smaller than the combined footprints guarantees the killer runs.
        //
        // Every design of the table runs, the RestSeg shrunk to 2 MiB to
        // fit the machine.
        use virtuoso_suite::mimic_os::ThpConfig;
        for design in Design::ALL {
            let mut config = SystemConfig::small_test()
                .with_cores(cores)
                .with_invariant_checks(1024);
            config.os.memory_bytes = 4 << 20;
            config.os.swap_bytes = 0;
            config.os.policy = AllocationPolicy::BuddyFourK;
            config.os.thp = ThpConfig::disabled();
            config.os.populate_page_cache = false;
            config.os.sched_quantum = 500;
            let config = config.with_design(design.with_restseg_bytes(2 << 20));
            let mut system = System::new(config);
            let mut pids = vec![system.pid()];
            while pids.len() < cores + 1 {
                pids.push(system.spawn_process());
            }
            let base = VirtAddr::new(0x1000_0000);
            let footprint: u64 = 8 << 20;
            for &pid in &pids {
                system.mmap_anonymous_for(pid, base, footprint).unwrap();
            }
            let spec = |i: usize| {
                let mut s = WorkloadSpec::simple(
                    "w", WorkloadClass::LongRunning, footprint,
                    AccessPattern::UniformRandom, 4_000,
                );
                s.name = format!("P{i}");
                s.regions[0].start = base;
                s
            };
            let mut sources: Vec<_> = (0..pids.len())
                .map(|i| spec(i).build(seed ^ (i as u64 * 0x0011)))
                .collect();
            let report = {
                let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = pids
                    .iter()
                    .copied()
                    .zip(sources.iter_mut().map(|s| s as &mut dyn TraceSource))
                    .collect();
                system.run_multiprogram(&mut programs, None)
            };
            let oom = report.rollup.oom.as_ref().expect("pressure must reach the killer");
            prop_assert!(oom.kills >= 1, "this machine cannot host everyone");
            prop_assert_eq!(system.segfaults(), 0, "pressure is not a segfault");
            // Scheduler exits (trace exhaustion) do not mark the kernel
            // Process exited; only the OOM killer does — so `is_exited`
            // identifies exactly the victims.
            let killed: Vec<ProcessId> = pids
                .iter()
                .copied()
                .filter(|&p| system.os().process(p).is_exited())
                .collect();
            prop_assert_eq!(killed.len() as u64, oom.kills);
            for &victim in &killed {
                let asid = Asid::new(victim.0 as u16);
                prop_assert_eq!(system.os().process(victim).resident_bytes(), 0);
                prop_assert!(system.os().ranges(victim).is_empty());
                for core in 0..system.num_cores() {
                    for (a, e) in system.mmu_of(core).tlb().entries() {
                        prop_assert!(
                            a != asid,
                            "core {}: TLB entry {} survives victim pid {}", core, e, victim.0
                        );
                    }
                    prop_assert!(system
                        .engine_of(core)
                        .resident_mappings()
                        .iter()
                        .all(|(a, _)| *a != asid));
                    prop_assert!(system
                        .engine_of(core)
                        .resident_ranges()
                        .iter()
                        .all(|(a, _)| *a != asid));
                    for page in 0..(footprint / 4096) {
                        prop_assert!(
                            system.mmu_of(core).l0_peek(asid, base.add(page * 4096)).is_none(),
                            "core {}: L0 pointer survives victim pid {}", core, victim.0
                        );
                    }
                }
            }
            system.check_invariants().expect("post-kill machine is coherent");

            // Rebirth: the freed pid slot is recycled, so the new process runs
            // under a previously killed ASID. Memory is still scarce (the
            // survivors' footprints were never freed), so the reborn process
            // OOM-faults its way through them — and must never segfault or
            // trip the (still armed) fence.
            let segfaults_before = system.segfaults();
            let reborn = system.spawn_process();
            prop_assert!(killed.contains(&reborn), "pid slots must be recycled");
            system.mmap_anonymous_for(reborn, base, 1 << 20).unwrap();
            let mut s = WorkloadSpec::simple(
                "reborn", WorkloadClass::ShortRunning, 1 << 20,
                AccessPattern::UniformRandom, 2_000,
            );
            s.regions[0].start = base;
            let mut src = s.build(seed ^ 0xAB1D);
            let second = {
                let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> =
                    vec![(reborn, &mut src)];
                system.run_multiprogram(&mut programs, None)
            };
            let _ = second;
            prop_assert_eq!(system.segfaults(), segfaults_before,
                "a recycled ASID must not inherit stale translations");
            prop_assert!(!system.os().process(reborn).is_exited());
            system.check_invariants().expect("the reborn machine is coherent");
        }
    }

    #[test]
    fn scheduler_accounting_sums_to_total_instructions(
        instrs_a in 1_000u64..6_000,
        instrs_b in 1_000u64..6_000,
        seed in 0u64..100,
    ) {
        let spec_a = WorkloadSpec::simple(
            "A", WorkloadClass::LongRunning, 8 << 20,
            AccessPattern::UniformRandom, instrs_a,
        );
        let spec_b = WorkloadSpec::simple(
            "B", WorkloadClass::LongRunning, 8 << 20,
            AccessPattern::PointerChasing, instrs_b,
        );
        let mut system = System::new(SystemConfig::small_test());
        let a = system.pid();
        let b = system.spawn_process();
        let region_a = spec_a.regions[0];
        let region_b = spec_b.regions[0];
        system.mmap_anonymous_for(a, region_a.start, region_a.bytes).unwrap();
        system.mmap_anonymous_for(b, region_b.start, region_b.bytes).unwrap();
        let mut src_a = spec_a.build(seed);
        let mut src_b = spec_b.build(seed + 1);
        let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> =
            vec![(a, &mut src_a), (b, &mut src_b)];
        let report = system.run_multiprogram(&mut programs, None);
        // Every retired instruction is attributed to exactly one process,
        // by both the framework and the scheduler's own accounting.
        prop_assert_eq!(report.rollup.instructions, instrs_a + instrs_b);
        let per_proc: u64 = report.processes.iter().map(|p| p.instructions).sum();
        prop_assert_eq!(per_proc, instrs_a + instrs_b);
        for p in &report.processes {
            prop_assert_eq!(p.scheduled_instructions, p.instructions);
        }
        // Attributed cycles never exceed the machine total.
        let cycles: u64 = report.processes.iter().map(|p| p.cycles).sum();
        prop_assert!(cycles <= report.rollup.cycles);
    }

    #[test]
    fn buddy_frames_stay_disjoint_under_process_interleavings(seed in 0u64..200) {
        // Three processes fault random pages in a random interleaving; no
        // physical frame may ever back two live mappings, and the buddy
        // allocator's accounting must stay consistent.
        let mut rng = virtuoso_suite::vm_types::DetRng::new(seed ^ 0xB0DD7);
        let config = OsConfig {
            policy: AllocationPolicy::LinuxThp,
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pids: Vec<ProcessId> = (0..3).map(|_| os.spawn_process()).collect();
        for &pid in &pids {
            os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 16 << 20, false).unwrap();
        }
        for _ in 0..300 {
            let pid = pids[rng.gen_range(0, 3) as usize];
            let va = 0x4000_0000 + rng.gen_range(0, (16 << 20) / 4096) * 4096;
            let _ = os.handle_page_fault(pid, VirtAddr::new(va), rng.gen_bool(0.5));
        }
        prop_assert!(os.buddy().free_bytes() <= os.buddy().capacity_bytes());
        // Collect every live (start, end) physical range across processes.
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &pid in &pids {
            for m in os.process(pid).mappings() {
                ranges.push((m.paddr.raw(), m.paddr.raw() + m.page_size.bytes()));
            }
        }
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            prop_assert!(
                pair[0].1 <= pair[1].0,
                "physical ranges overlap: {:x?} vs {:x?}", pair[0], pair[1]
            );
        }
    }
}

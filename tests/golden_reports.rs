//! Golden-report regression tests: small single-process configurations
//! whose serialized [`SimulationReport`]s must stay byte-identical across
//! refactors, optimization levels and thread counts — three on the
//! conventional page-table engine, and one per alternative translation
//! engine (Midgard, RMM, Utopia) exercising the unified `System` path end
//! to end (engine-specific fault metadata, per-engine report section).
//!
//! The simulator is fully deterministic (seeded RNGs, no wall-clock, no
//! float environment games), so the serialized report of a fixed
//! (config, workload, seed) triple is a strong fingerprint of the whole
//! stack: a one-cycle timing change anywhere shows up here.
//!
//! Regenerate the goldens after an *intentional* behaviour change with:
//!
//! ```text
//! VIRTUOSO_BLESS_GOLDEN=1 cargo test --test golden_reports
//! ```

mod common;

use common::golden_matches;
use virtuoso_suite::prelude::*;

/// The three golden cells: name, configuration, workload.
fn golden_cells() -> Vec<(&'static str, SystemConfig, WorkloadSpec)> {
    vec![
        (
            "faas_json_detailed",
            SystemConfig::small_test(),
            WorkloadSpec::simple(
                "JSON",
                WorkloadClass::ShortRunning,
                8 * 1024 * 1024,
                AccessPattern::AllocateAndTouch {
                    new_page_fraction: 0.5,
                },
                4_000,
            ),
        ),
        (
            "gups_emulation",
            SystemConfig::small_test().with_emulation_baseline(),
            WorkloadSpec::simple(
                "RND",
                WorkloadClass::LongRunning,
                16 * 1024 * 1024,
                AccessPattern::UniformRandom,
                4_000,
            ),
        ),
        (
            "stream_hashed_pt",
            SystemConfig::small_test()
                .with_design(Design::PageTable(PageTableKind::HashedOpenAddressing)),
            WorkloadSpec::simple(
                "XS",
                WorkloadClass::LongRunning,
                16 * 1024 * 1024,
                AccessPattern::Streaming {
                    jump_probability: 0.3,
                },
                4_000,
            ),
        ),
        (
            "reclaim_shootdown",
            {
                // Memory pressure run: more footprint than memory, a low
                // swap threshold, and a descending stream so reclaim
                // victims are TLB-hot — pins the whole shootdown path
                // (victim batches, IPI-charged kernel streams, the
                // serialized `shootdowns` report section).
                let mut config = SystemConfig::small_test();
                config.os.memory_bytes = 16 * 1024 * 1024;
                config.os.swap_bytes = 64 * 1024 * 1024;
                config.os.swap_threshold = 0.5;
                config.os.policy = AllocationPolicy::BuddyFourK;
                config.os.thp = virtuoso_suite::mimic_os::ThpConfig::disabled();
                config.os.populate_page_cache = false;
                config
            },
            WorkloadSpec::simple(
                "SWP",
                WorkloadClass::LongRunning,
                32 * 1024 * 1024,
                AccessPattern::UniformRandom,
                6_000,
            ),
        ),
        (
            "midgard_engine",
            SystemConfig::small_test().with_design(Design::Midgard),
            WorkloadSpec::simple(
                "MID",
                WorkloadClass::LongRunning,
                16 * 1024 * 1024,
                AccessPattern::PointerChasing,
                4_000,
            ),
        ),
        (
            "rmm_engine_eager",
            SystemConfig::small_test().with_design(Design::Rmm),
            WorkloadSpec::simple(
                "RMM",
                WorkloadClass::LongRunning,
                16 * 1024 * 1024,
                AccessPattern::UniformRandom,
                4_000,
            ),
        ),
        (
            "utopia_engine_restseg",
            SystemConfig::small_test().with_design(Design::Utopia(mimic_os::UtopiaConfig::new(
                32 * 1024 * 1024,
                16,
                PageSize::Size4K,
            ))),
            WorkloadSpec::simple(
                "UTO",
                WorkloadClass::LongRunning,
                16 * 1024 * 1024,
                AccessPattern::UniformRandom,
                4_000,
            ),
        ),
    ]
}

fn run_cell(config: SystemConfig, spec: &WorkloadSpec) -> SimulationReport {
    let mut system = System::new(config);
    for region in &spec.regions {
        system
            .mmap_anonymous(region.start, region.bytes)
            .expect("mapping golden region");
    }
    system.run(&mut spec.build(0xF00D), None)
}

#[test]
fn simulation_reports_are_byte_stable() {
    let mut mismatches = Vec::new();
    for (name, config, spec) in golden_cells() {
        let report = run_cell(config, &spec);
        let actual = serde_json::to_string(&report).expect("serialize report");
        if !golden_matches(name, &actual) {
            mismatches.push(name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden reports drifted: {mismatches:?} — if the behaviour change is \
         intentional, regenerate with VIRTUOSO_BLESS_GOLDEN=1"
    );
}

#[test]
fn golden_runs_are_reproducible_within_a_process() {
    for (name, config, spec) in golden_cells() {
        let a = serde_json::to_string(&run_cell(config.clone(), &spec)).unwrap();
        let b = serde_json::to_string(&run_cell(config, &spec)).unwrap();
        assert_eq!(a, b, "cell {name} must be deterministic");
    }
}

/// Boot-time fragmentation under THP: `small_test` with 95 % of its 2 MiB
/// regions broken by one pinned 4 KiB frame each, so the fault path has to
/// mix huge and base mappings. Pins `BuddyAllocator::fragment`'s end state
/// (every free list and the kernel RNG's position after it) through a whole
/// run; no other golden boots a fragmented machine.
#[test]
fn fragmented_thp_report_is_byte_stable() {
    let mut config = SystemConfig::small_test();
    config.os.fragmentation_target = Some(0.05);
    let spec = WorkloadSpec::simple(
        "FRG",
        WorkloadClass::LongRunning,
        16 * 1024 * 1024,
        AccessPattern::UniformRandom,
        4_000,
    );
    let report = run_cell(config, &spec);
    assert!(
        report.huge_mappings > 0 && report.base_mappings > 0,
        "a fragmented THP run must map both sizes: {} huge, {} base",
        report.huge_mappings,
        report.base_mappings
    );
    let actual = serde_json::to_string(&report).expect("serialize report");
    assert!(
        golden_matches("fragmented_thp", &actual),
        "fragmented_thp golden drifted — if the behaviour change is \
         intentional, regenerate with VIRTUOSO_BLESS_GOLDEN=1"
    );
}

/// The report-stability rule: an `Option` field on a serialized report
/// carries `#[serde(skip_serializing_if = "Option::is_none")]`, so adding a
/// section never moves the bytes of a run that does not use it. An ungated
/// field serializes as `null` — into every golden, and into the reports of
/// a healthy run (no reclaim, no OOM), where every optional section is off.
#[test]
fn optional_report_sections_never_serialize_as_null() {
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut checked = 0;
    for entry in std::fs::read_dir(&golden_dir).expect("list goldens") {
        let path = entry.expect("golden entry").path();
        let golden = std::fs::read_to_string(&path).expect("read golden");
        assert!(!golden.contains("null"), "{} holds a null", path.display());
        checked += 1;
    }
    assert!(checked >= 14, "only {checked} goldens found");

    let (_, config, spec) = golden_cells().swap_remove(0);
    let single = serde_json::to_string(&run_cell(config, &spec)).expect("serialize report");
    assert!(!single.contains("null"), "SimulationReport: {single}");

    let specs = [spec.clone(), spec];
    let multi = run_multicore_cell(SystemConfig::small_test(), &specs);
    assert!(multi.rollup.oom.is_none() && multi.rollup.shootdowns.is_none());
    let multi = serde_json::to_string(&multi).expect("serialize report");
    assert!(!multi.contains("null"), "MultiProgramReport: {multi}");
}

/// A memory-pressure base configuration for the multi-core goldens: small
/// memory, big swap, descending reclaim pressure — so every cell's
/// shootdowns cross cores and the per-core IPI counters are nonzero.
fn multicore_pressure_config(num_cores: usize) -> SystemConfig {
    let mut config = SystemConfig::small_test().with_cores(num_cores);
    config.os.memory_bytes = 16 * 1024 * 1024;
    config.os.swap_bytes = 128 * 1024 * 1024;
    config.os.swap_threshold = 0.5;
    config.os.policy = AllocationPolicy::BuddyFourK;
    config.os.thp = virtuoso_suite::mimic_os::ThpConfig::disabled();
    config.os.populate_page_cache = false;
    config.os.sched_quantum = 1_000;
    config
}

/// The multi-core golden cells: name, configuration, one workload per
/// process (processes are pinned to cores by `pid % num_cores`).
fn multicore_golden_cells() -> Vec<(&'static str, SystemConfig, Vec<WorkloadSpec>)> {
    let spec = |name: &str, pattern: AccessPattern, instructions: u64| {
        let mut s = WorkloadSpec::simple(
            "mc",
            WorkloadClass::LongRunning,
            20 * 1024 * 1024,
            pattern,
            instructions,
        );
        s.name = name.to_string();
        s
    };
    vec![
        (
            "multicore_2core_shootdown",
            multicore_pressure_config(2),
            vec![
                spec("RND-A", AccessPattern::UniformRandom, 6_000),
                spec("RND-B", AccessPattern::UniformRandom, 6_000),
            ],
        ),
        (
            "multicore_4core_mix",
            multicore_pressure_config(4),
            vec![
                spec("RND", AccessPattern::UniformRandom, 4_000),
                spec(
                    "STR",
                    AccessPattern::Streaming {
                        jump_probability: 0.3,
                    },
                    4_000,
                ),
                spec("PTR", AccessPattern::PointerChasing, 4_000),
                spec(
                    "ALC",
                    AccessPattern::AllocateAndTouch {
                        new_page_fraction: 0.5,
                    },
                    4_000,
                ),
            ],
        ),
    ]
}

fn run_multicore_cell(config: SystemConfig, specs: &[WorkloadSpec]) -> MultiProgramReport {
    let mut system = System::new(config);
    let mut pids = vec![system.pid()];
    while pids.len() < specs.len() {
        pids.push(system.spawn_process());
    }
    for (pid, spec) in pids.iter().zip(specs) {
        for region in &spec.regions {
            system
                .mmap_anonymous_for(*pid, region.start, region.bytes)
                .expect("mapping golden region");
        }
    }
    let mut sources: Vec<_> = specs.iter().map(|s| s.build(0xF00D)).collect();
    let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = pids
        .iter()
        .copied()
        .zip(sources.iter_mut().map(|s| s as &mut dyn TraceSource))
        .collect();
    system.run_multiprogram(&mut programs, None)
}

/// The OOM-killer golden: a swapless 4 MiB machine hosting a one-page
/// "light" process and a 12 MiB "hog". The hog's pressure forces the
/// kernel to sacrifice the light process, then to fail outright once no
/// victims remain — so the serialized [`MultiProgramReport`] pins the
/// whole robustness surface at once: the `oom` rollup section (kills,
/// scanned/freed bytes, reclaim retries, failures), per-process
/// `exit_status` and `oom_failures` attribution, and the shootdown
/// accounting of the victim's teardown.
#[test]
fn oom_kill_report_is_byte_stable() {
    let mut config = SystemConfig::small_test();
    config.os.memory_bytes = 4 * 1024 * 1024;
    config.os.swap_bytes = 0;
    config.os.policy = AllocationPolicy::BuddyFourK;
    config.os.thp = virtuoso_suite::mimic_os::ThpConfig::disabled();
    config.os.populate_page_cache = false;
    config.os.sched_quantum = 500;
    let light = {
        let mut s = WorkloadSpec::simple(
            "mc",
            WorkloadClass::ShortRunning,
            64 * 1024,
            AccessPattern::PointerChasing,
            20_000,
        );
        s.name = "LGT".to_string();
        s
    };
    let hog = {
        let mut s = WorkloadSpec::simple(
            "mc",
            WorkloadClass::LongRunning,
            12 * 1024 * 1024,
            AccessPattern::UniformRandom,
            4_000,
        );
        s.name = "HOG".to_string();
        s
    };
    let report = run_multicore_cell(config, &[light, hog]);

    // Survivor accounting must hold before the bytes are even compared.
    let oom = report
        .rollup
        .oom
        .as_ref()
        .expect("the pressure cell must reach the OOM killer");
    assert!(oom.kills >= 1, "the light process must be sacrificed");
    assert!(oom.freed_bytes > 0);
    let killed = report
        .processes
        .iter()
        .filter(|p| p.exit_status == ProcessExitStatus::OomKilled)
        .count() as u64;
    assert_eq!(killed, oom.kills, "every kill maps to one reported process");
    assert_eq!(
        report.processes.iter().map(|p| p.segfaults).sum::<u64>(),
        0,
        "memory pressure must never be misattributed as segfaults"
    );

    let actual = serde_json::to_string(&report).expect("serialize report");
    assert!(
        golden_matches("oom_kill", &actual),
        "oom_kill golden drifted — if the behaviour change is intentional, \
         regenerate with VIRTUOSO_BLESS_GOLDEN=1"
    );
}

/// The multi-core regression fingerprint: serialized
/// [`MultiProgramReport`]s of fixed N-core pressure cells must stay
/// byte-identical, and every cell must show real cross-core IPI work
/// (nonzero per-core stall counters) — so the goldens pin not just *that*
/// the runs are stable but that the shootdown IPI path stays exercised.
#[test]
fn multicore_reports_are_byte_stable() {
    let mut mismatches = Vec::new();
    for (name, config, specs) in multicore_golden_cells() {
        let report = run_multicore_cell(config, &specs);
        let shootdowns = report
            .rollup
            .shootdowns
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: pressure cell must shoot down"));
        let per_core = shootdowns
            .per_core
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: multi-core cell must report per-core IPIs"));
        let stalled: u64 = per_core.iter().map(|c| c.ipi_stall_cycles).sum();
        assert!(stalled > 0, "{name}: remote IPI stalls must be nonzero");
        let actual = serde_json::to_string(&report).expect("serialize report");
        if !golden_matches(name, &actual) {
            mismatches.push(name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "multicore golden reports drifted: {mismatches:?} — if the behaviour \
         change is intentional, regenerate with VIRTUOSO_BLESS_GOLDEN=1"
    );
}

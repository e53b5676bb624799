//! Chaos integration tests: seeded fault injection, memory pressure, the
//! OOM killer and the runtime coherence fence, together.
//!
//! The error paths a real kernel fights hardest on — allocation
//! shortfalls, swap-device hiccups, slow shootdown IPIs — only fire in the
//! simulator under extreme workloads. [`FaultInjectionConfig`] makes them
//! fire on demand from a private seeded RNG, so every run here is
//! bit-reproducible at any test parallelism; the coherence fence
//! ([`System::check_invariants`]) runs *during* the runs (armed via
//! `SystemConfig::with_invariant_checks`) and panics on the first piece of
//! cached translation state that disagrees with the kernel.
//!
//! CI runs this suite twice: once at the default core count and once with
//! `VIRTUOSO_CORES=4`, which widens every test to a four-core machine.

use proptest::prelude::*;
use virtuoso_suite::mimic_os::{FaultInjectionConfig, ThpConfig};
use virtuoso_suite::prelude::*;

/// Core count for the sweeps: `VIRTUOSO_CORES` (the CI chaos leg sets 4),
/// defaulting to 2.
fn sweep_cores() -> usize {
    std::env::var("VIRTUOSO_CORES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

/// A pressured machine with the fence armed and the given injection plan.
fn chaos_config(cores: usize, swap_bytes: u64, injection: FaultInjectionConfig) -> SystemConfig {
    let mut config = SystemConfig::small_test()
        .with_cores(cores)
        .with_invariant_checks(2_048);
    config.os.memory_bytes = 8 << 20;
    config.os.swap_bytes = swap_bytes;
    config.os.swap_threshold = 0.5;
    config.os.policy = AllocationPolicy::BuddyFourK;
    config.os.thp = ThpConfig::disabled();
    config.os.populate_page_cache = false;
    config.os.sched_quantum = 500;
    config.os.fault_injection = injection;
    config
}

/// Every failure source armed at once.
fn storm(seed: u64) -> FaultInjectionConfig {
    FaultInjectionConfig {
        seed,
        alloc_shortfall_rate: 0.05,
        scripted_alloc_shortfalls: vec![3, 17, 41],
        swap_io_error_rate: 0.05,
        swap_latency_spike_rate: 0.05,
        swap_latency_spike_ns: 5_000.0,
        ipi_delay_rate: 0.25,
        ipi_delay_cycles: 400,
    }
}

/// Runs `num_programs` uniform-random workloads over a shared layout and
/// returns the report (the `System` is returned too for post-mortems).
fn run_chaos_mix(
    config: SystemConfig,
    num_programs: usize,
    footprint: u64,
    instructions: u64,
    seed: u64,
) -> (System, MultiProgramReport) {
    let mut system = System::new(config);
    let mut pids = vec![system.pid()];
    while pids.len() < num_programs {
        pids.push(system.spawn_process());
    }
    let base = VirtAddr::new(0x1000_0000);
    for &pid in &pids {
        system.mmap_anonymous_for(pid, base, footprint).unwrap();
    }
    let mut sources: Vec<_> = (0..pids.len())
        .map(|i| {
            let mut s = WorkloadSpec::simple(
                "chaos",
                WorkloadClass::LongRunning,
                footprint,
                AccessPattern::UniformRandom,
                instructions,
            );
            s.name = format!("P{i}");
            s.regions[0].start = base;
            s.build(seed ^ (i as u64 * 0xC4A05))
        })
        .collect();
    let report = {
        let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = pids
            .iter()
            .copied()
            .zip(sources.iter_mut().map(|s| s as &mut dyn TraceSource))
            .collect();
        system.run_multiprogram(&mut programs, None)
    };
    (system, report)
}

/// The headline property: a fully armed failure storm produces the same
/// serialized report, byte for byte, every time — injection decisions come
/// from a private seeded RNG, never from wall clocks or iteration order.
#[test]
fn injected_chaos_is_bit_reproducible() {
    let cores = sweep_cores();
    let run = || {
        let (system, report) = run_chaos_mix(
            chaos_config(cores, 32 << 20, storm(0x57012)),
            cores + 1,
            12 << 20,
            5_000,
            0xD1CE,
        );
        let stats = system.os().stats();
        assert!(
            stats.injected_alloc_shortfalls.get() > 0,
            "the storm must actually inject shortfalls"
        );
        assert!(stats.injected_swap_io_errors.get() > 0);
        assert!(stats.injected_swap_latency_spikes.get() > 0);
        if cores > 1 {
            assert!(stats.injected_ipi_delays.get() > 0);
        }
        system
            .check_invariants()
            .expect("chaos leaves a coherent machine");
        serde_json::to_string(&report).unwrap()
    };
    assert_eq!(run(), run(), "chaos must be deterministic");
}

/// The storm under parallel core stepping: fault injection forces the
/// sharded loop off the epoch path (injected shortfalls, swap errors and
/// IPI delays may touch any core at any instruction), so every
/// `host_threads` value must serialize onto the same one-tick schedule —
/// byte for byte, with the coherence fence armed throughout.
#[test]
fn injected_chaos_is_bit_identical_across_host_thread_counts() {
    let cores = sweep_cores().max(2);
    let run = |threads: usize| {
        let (system, report) = run_chaos_mix(
            chaos_config(cores, 32 << 20, storm(0x57012)).with_host_threads(threads),
            cores + 1,
            12 << 20,
            5_000,
            0xD1CE,
        );
        system
            .check_invariants()
            .expect("chaos leaves a coherent machine");
        serde_json::to_string(&report).unwrap()
    };
    let single = run(1);
    assert_eq!(single, run(2), "2 host threads diverged under the storm");
    assert_eq!(
        single,
        run(cores),
        "{cores} host threads diverged under the storm"
    );
}

/// Scripted shortfalls push faults into the reclaim retry path even when
/// memory is plentiful: the machine swaps although it never had to, and
/// the run still completes without a single failed access.
#[test]
fn scripted_shortfalls_force_reclaim_on_a_healthy_machine() {
    let injection = FaultInjectionConfig {
        alloc_shortfall_rate: 0.2,
        scripted_alloc_shortfalls: vec![0, 1, 2],
        ..FaultInjectionConfig::default()
    };
    let mut config = chaos_config(1, 32 << 20, injection);
    config.os.memory_bytes = 64 << 20; // no real pressure at all
    let (system, report) = run_chaos_mix(config, 1, 8 << 20, 4_000, 0xFEED);
    assert!(system.os().stats().injected_alloc_shortfalls.get() > 0);
    assert!(
        report.rollup.swapped_pages > 0,
        "injected shortfalls must force reclaim despite free memory"
    );
    assert_eq!(system.segfaults(), 0);
    assert_eq!(
        system.oom_failures(),
        0,
        "a retry after reclaim must succeed"
    );
    system.check_invariants().unwrap();
}

/// Swap-device chaos (transient I/O errors, latency spikes) slows the
/// machine down but never changes what it computes: same instructions,
/// same faults, strictly more cycles.
#[test]
fn swap_device_chaos_only_costs_time() {
    let calm = chaos_config(1, 32 << 20, FaultInjectionConfig::default());
    let noisy = chaos_config(
        1,
        32 << 20,
        FaultInjectionConfig {
            swap_io_error_rate: 0.5,
            swap_latency_spike_rate: 0.5,
            swap_latency_spike_ns: 10_000.0,
            ..FaultInjectionConfig::default()
        },
    );
    let (_, a) = run_chaos_mix(calm, 2, 12 << 20, 5_000, 0x10);
    let (system, b) = run_chaos_mix(noisy, 2, 12 << 20, 5_000, 0x10);
    assert!(system.os().stats().injected_swap_io_errors.get() > 0);
    assert_eq!(a.rollup.instructions, b.rollup.instructions);
    assert_eq!(a.rollup.minor_faults, b.rollup.minor_faults);
    assert_eq!(a.rollup.major_faults, b.rollup.major_faults);
    assert!(
        b.rollup.cycles > a.rollup.cycles,
        "device chaos must cost cycles ({} vs {})",
        b.rollup.cycles,
        a.rollup.cycles
    );
}

/// The full gauntlet: a swapless machine too small for its tenants, a
/// failure storm on top, the fence armed throughout. The OOM killer must
/// engage, survivors must be attributed correctly, and the machine must
/// pass the coherence fence both mid-run (armed) and at the end.
#[test]
fn oom_kills_under_a_failure_storm_stay_coherent() {
    let cores = sweep_cores();
    let (system, report) = run_chaos_mix(
        chaos_config(cores, 0, storm(0xBAD)),
        cores + 1,
        12 << 20,
        5_000,
        0x0DD,
    );
    let oom = report
        .rollup
        .oom
        .as_ref()
        .expect("a swapless overcommitted machine must reach the killer");
    assert!(oom.kills >= 1);
    assert!(oom.freed_bytes > 0);
    assert_eq!(system.segfaults(), 0);
    assert_eq!(
        report
            .processes
            .iter()
            .filter(|p| p.exit_status == ProcessExitStatus::OomKilled)
            .count() as u64,
        oom.kills
    );
    system.check_invariants().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized storms over randomized machines: whatever fires, the
    /// armed fence never trips and the post-run machine is coherent.
    #[test]
    fn random_storms_never_trip_the_fence(
        seed in 0u64..1_000,
        swapless in 0u8..2,
        cores in 1usize..5,
    ) {
        let swapless = swapless == 1;
        let swap = if swapless { 0 } else { 32 << 20 };
        // Every design weathers the same storm; a 2 MiB RestSeg fits the
        // 8 MiB machine.
        for design in Design::ALL {
            let label = design.label();
            let design = design.with_restseg_bytes(2 << 20);
            let mut config = chaos_config(cores, swap, storm(seed)).with_design(design);
            config.invariant_check_interval = 512;
            let (system, report) = run_chaos_mix(config, cores + 1, 12 << 20, 4_000, seed);
            prop_assert_eq!(system.segfaults(), 0, "{}", label);
            if swapless {
                let oom = report.rollup.oom.as_ref().expect("swapless overcommit kills");
                prop_assert!(oom.kills >= 1, "{}", label);
            }
            system
                .check_invariants()
                .unwrap_or_else(|v| panic!("{label}: chaos leaves a coherent machine: {v}"));
        }
    }
}

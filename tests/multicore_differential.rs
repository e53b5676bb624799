//! The multi-core differential fence.
//!
//! [`System::run_multiprogram`] is one loop at every core count. At
//! `num_cores = 1` it must reproduce the single-core model the paper's
//! experiments (and golden reports) are built on **byte for byte** — same
//! dispatches, same preemption points, same charged cycle on every
//! instruction — for every translation engine. The reference is frozen in
//! four goldens blessed from the dedicated single-core loop the simulator
//! used to carry, so the multi-core machinery can evolve without silently
//! perturbing single-core results.
//!
//! On top of the fence, this file pins the genuinely multi-core behaviour:
//! cross-core shootdown IPIs under memory pressure (nonzero per-core
//! send/receive/stall counters, post-run translation coherence on every
//! core), bit-identical determinism of N-core runs across repeats and
//! host-thread counts (also where faults truncate slices and where the
//! instruction limit cuts an epoch short), and exact retirement of every
//! trace instruction.
//! The core count of the determinism test honours `VIRTUOSO_CORES` so CI
//! can sweep it.

mod common;

use virtuoso_suite::prelude::*;
use virtuoso_suite::virtuoso::EpochStats;

/// Spawns one process per spec and maps each spec's regions into it.
fn build_multiprocess(config: SystemConfig, specs: &[WorkloadSpec]) -> (System, Vec<ProcessId>) {
    let mut system = System::new(config);
    let mut pids = vec![system.pid()];
    while pids.len() < specs.len() {
        pids.push(system.spawn_process());
    }
    for (pid, spec) in pids.iter().zip(specs) {
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
    (system, pids)
}

fn run_mix(
    system: &mut System,
    pids: &[ProcessId],
    specs: &[WorkloadSpec],
    seed: u64,
) -> MultiProgramReport {
    let mut sources: Vec<_> = specs.iter().map(|s| s.build(seed)).collect();
    run_sources(system, pids, &mut sources, None)
}

/// Runs process `i` on `sources[i]`, up to `limit` instructions in total;
/// the sources keep their position for a later call.
fn run_sources(
    system: &mut System,
    pids: &[ProcessId],
    sources: &mut [virtuoso_suite::vm_workloads::SyntheticWorkload],
    limit: Option<u64>,
) -> MultiProgramReport {
    let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = pids
        .iter()
        .copied()
        .zip(sources.iter_mut().map(|s| s as &mut dyn TraceSource))
        .collect();
    system.run_multiprogram(&mut programs, limit)
}

/// The fence itself: the single-core multiprogram report of every engine
/// cell is pinned byte for byte to a golden blessed from the legacy
/// single-core `run_multiprogram` loop, so the reference outlives the loop
/// that produced it. Regenerate (after an *intentional* behaviour change
/// only) with `VIRTUOSO_BLESS_GOLDEN=1 cargo test --test multicore_differential`.
#[test]
fn single_core_multiprogram_reports_match_the_legacy_loop_goldens() {
    let specs: Vec<WorkloadSpec> = catalog::multiprogram_mix_engines()
        .into_iter()
        .map(|s| s.with_instructions(6_000))
        .collect();
    // The four engine cells of the table, by label, and their goldens.
    let cells = [
        ("Radix", "page_table"),
        ("Midgard", "midgard"),
        ("RMM", "rmm_eager"),
        ("Utopia", "utopia_restseg"),
    ];
    let mut mismatches = Vec::new();
    for (label, name) in cells {
        let design = Design::ALL
            .into_iter()
            .find(|d| d.label() == label)
            .expect("a design of the table");
        let config = SystemConfig::small_test().with_design(design);
        assert_eq!(config.os.num_cores, 1, "{name}: fence runs at one core");
        let (mut system, pids) = build_multiprocess(config, &specs);
        let report = run_mix(&mut system, &pids, &specs, 0xD1FF);
        let actual = serde_json::to_string(&report).unwrap();
        if !common::golden_matches(&format!("multiprogram_1core_{name}"), &actual) {
            mismatches.push(name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "single-core multiprogram reports drifted from the legacy loop: {mismatches:?}"
    );
}

/// A memory-pressure configuration small enough that two random-access
/// processes force reclaim — and with it cross-core shootdowns.
fn pressure_config(num_cores: usize) -> SystemConfig {
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

fn pressure_specs(count: usize, instructions: u64) -> Vec<WorkloadSpec> {
    (0..count)
        .map(|i| {
            let mut spec = WorkloadSpec::simple(
                "prs",
                WorkloadClass::LongRunning,
                24 * 1024 * 1024,
                AccessPattern::UniformRandom,
                instructions,
            );
            spec.name = format!("PRS{i}");
            spec
        })
        .collect()
}

/// Every core-local TLB entry and engine residency agrees with the owning
/// process's mapping table — the multi-core coherence invariant.
fn assert_per_core_coherence(system: &System) {
    for core in 0..system.num_cores() {
        for (asid, cached) in system.mmu_of(core).tlb().entries() {
            let process = system.os().process(ProcessId(asid.raw() as usize));
            let expected = process
                .lookup_mapping(cached.vaddr)
                .map(|m| m.translate(cached.vaddr));
            assert_eq!(
                expected,
                Some(cached.translate(cached.vaddr)),
                "core {core}: stale TLB entry {cached} (asid {})",
                asid.raw()
            );
        }
        for (asid, resident) in system.engine_of(core).resident_mappings() {
            let process = system.os().process(ProcessId(asid.raw() as usize));
            assert_eq!(
                process.lookup_mapping(resident.vaddr).map(|m| m.paddr),
                Some(resident.paddr),
                "core {core}: stale engine residency {resident}"
            );
        }
    }
}

/// The multi-core acceptance scenario: two cores under memory pressure
/// take real cross-core shootdowns — the initiator broadcasts IPIs, the
/// remote core stalls and tears down its own state — and the per-core
/// counters in the report show it.
#[test]
fn two_core_pressure_run_reports_cross_core_ipi_work() {
    let specs = pressure_specs(2, 8_000);
    let (mut system, pids) = build_multiprocess(pressure_config(2), &specs);
    assert_eq!(system.num_cores(), 2);
    assert_eq!(system.core_of(pids[0]), 0);
    assert_eq!(system.core_of(pids[1]), 1);

    let report = run_mix(&mut system, &pids, &specs, 0xC0DE);

    assert_eq!(report.rollup.instructions, 16_000);
    assert!(report.rollup.swapped_pages > 0, "pressure must swap");
    let shootdowns = report
        .rollup
        .shootdowns
        .as_ref()
        .expect("swapping implies shootdowns");
    let per_core = shootdowns
        .per_core
        .as_ref()
        .expect("a multi-core shootdown run reports per-core IPI stats");
    assert_eq!(per_core.len(), 2);
    let sent: u64 = per_core.iter().map(|c| c.ipis_sent).sum();
    let received: u64 = per_core.iter().map(|c| c.ipis_received).sum();
    let stalled: u64 = per_core.iter().map(|c| c.ipi_stall_cycles).sum();
    assert!(sent > 0, "reclaim must broadcast cross-core IPIs");
    assert_eq!(sent, received, "every IPI sent is received exactly once");
    // Per core: an initiator sends one IPI to each of the other n-1 cores,
    // and a core receives one for every batch it did not initiate.
    let n = per_core.len() as u64;
    let batches = shootdowns.batches;
    assert_eq!(sent, batches * (n - 1), "each batch reaches n-1 cores");
    for (core, c) in per_core.iter().enumerate() {
        assert_eq!(
            c.ipis_sent % (n - 1),
            0,
            "core {core} sent a partial broadcast"
        );
        assert_eq!(
            c.ipis_received,
            batches - c.ipis_sent / (n - 1),
            "core {core} missed an IPI of a batch it did not initiate"
        );
    }
    assert!(stalled > 0, "remote cores must stall on IPI delivery");
    // The serialized report carries the per-core section.
    let json = serde_json::to_string(&report.rollup).unwrap();
    assert!(json.contains("\"per_core\""));

    assert_per_core_coherence(&system);
}

/// Core count for the N-core determinism sweep: `VIRTUOSO_CORES` (the CI
/// matrix leg sets 4), defaulting to 2.
fn sweep_cores() -> usize {
    std::env::var("VIRTUOSO_CORES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

/// Same N-core configuration, same seeds, repeated runs: bit-identical
/// serialized reports. Multi-core interleaving is deterministic by
/// construction (round-robin ticks, not threads).
#[test]
fn multicore_runs_are_bit_identical_across_repeats() {
    let cores = sweep_cores();
    let specs = pressure_specs(4, 4_000);
    let mut reports = Vec::new();
    for _ in 0..3 {
        let (mut system, pids) = build_multiprocess(pressure_config(cores), &specs);
        let report = run_mix(&mut system, &pids, &specs, 0xDE7);
        reports.push(serde_json::to_string(&report).unwrap());
    }
    assert_eq!(
        reports[0], reports[1],
        "{cores}-core run must be deterministic"
    );
    assert_eq!(
        reports[1], reports[2],
        "{cores}-core run must be deterministic"
    );
}

/// Workloads for the host-thread invariance sweep: one random-access
/// process per core over a machine with plenty of memory, so the epoch
/// planner's fault-headroom check passes and slices genuinely run on
/// parallel host threads (no reclaim, no OOM, no injection).
fn plentiful_specs(count: usize, instructions: u64) -> Vec<WorkloadSpec> {
    (0..count)
        .map(|i| {
            let mut spec = WorkloadSpec::simple(
                "thr",
                WorkloadClass::LongRunning,
                8 * 1024 * 1024,
                AccessPattern::UniformRandom,
                instructions,
            );
            spec.name = format!("THR{i}");
            spec
        })
        .collect()
}

/// Per-core cycle attribution: with one process pinned to each core and
/// no background housekeeping, every cycle a core model accumulates over
/// the run is attributed to exactly the process that held it — the
/// per-process `cycles` in the report equals its core's whole counter,
/// byte for byte. This is the accounting the per-process `ipc` (and the
/// benchmark harness's `sim_ipc`) divides through; a core's cycles
/// bleeding into another core's process, or escaping attribution
/// entirely, shows up here as an exact-equality failure.
#[test]
fn per_core_cycles_are_fully_attributed_to_the_pinned_process() {
    const CORES: usize = 4;
    let specs = plentiful_specs(CORES, 4_000);
    let mut config = SystemConfig::small_test().with_cores(CORES);
    // Housekeeping kernel streams run between attribution windows and
    // would legitimately advance a core past its process's share.
    config.housekeeping_interval = 0;
    let (mut system, pids) = build_multiprocess(config, &specs);
    let report = run_mix(&mut system, &pids, &specs, 0xACC7);

    for process in &report.processes {
        let core = system.core_of(ProcessId(process.pid));
        assert_eq!(process.instructions, 4_000);
        assert_eq!(
            process.cycles,
            system.core_model_of(core).cycles().raw(),
            "process {} (core {core}): reported cycles must equal the \
             pinned core's full cycle counter",
            process.pid
        );
    }
}

/// The tentpole determinism contract: the `host_threads` knob trades host
/// CPU for wall clock and **nothing else** — a 4-core run stepped on 1, 2,
/// 3 (a worker count that does not divide the core count) or 4 host
/// threads serializes to byte-identical reports, for every design of
/// [`Design::ALL`] (the hashed page tables among them, whose walks are
/// charged as parallel accesses). The plentiful-memory configuration keeps the epoch
/// planner engaged (asserted via [`System::epoch_stats`]) so the test
/// exercises the pipelined path rather than the serial fallback.
#[test]
fn reports_are_byte_identical_across_host_thread_counts() {
    const CORES: usize = 4;
    let specs = plentiful_specs(CORES, 4_000);
    for design in Design::ALL {
        let name = design.label();
        let config = SystemConfig::small_test()
            .with_design(design)
            .with_cores(CORES);
        let mut baseline = None;
        for threads in [1usize, 2, 3, CORES] {
            let config = config.clone().with_host_threads(threads);
            let (mut system, pids) = build_multiprocess(config, &specs);
            let report = run_mix(&mut system, &pids, &specs, 0x7A4D);
            let stats = system.epoch_stats();
            assert!(
                stats.epochs_run > 0,
                "engine {name}, {threads} host threads: the epoch planner \
                 never engaged — the sweep is not testing the parallel path"
            );
            assert_eq!(
                stats.jobs_handed_off > 0,
                threads > 1,
                "engine {name}, {threads} host threads: slices go to a \
                 worker exactly when there is one"
            );
            let json = serde_json::to_string(&report).unwrap();
            match &baseline {
                None => baseline = Some(json),
                Some(expected) => assert_eq!(
                    expected, &json,
                    "engine {name}: {threads} host threads diverged from \
                     the single-threaded schedule"
                ),
            }
        }
    }
}

/// The same contract under memory pressure, where the epoch planner
/// stands down (reclaim and OOM kills may touch every core) and the loop
/// serializes onto the legacy one-tick schedule: thread counts still
/// cannot matter, because no epoch is ever allowed to run concurrently
/// with reclaim.
#[test]
fn pressure_runs_are_byte_identical_across_host_thread_counts() {
    const CORES: usize = 4;
    let specs = pressure_specs(CORES, 4_000);
    let mut baseline = None;
    for threads in [1usize, CORES] {
        let config = pressure_config(CORES).with_host_threads(threads);
        let (mut system, pids) = build_multiprocess(config, &specs);
        let report = run_mix(&mut system, &pids, &specs, 0xD1FF);
        let json = serde_json::to_string(&report).unwrap();
        match &baseline {
            None => baseline = Some(json),
            Some(expected) => assert_eq!(
                expected, &json,
                "{threads} host threads diverged under memory pressure"
            ),
        }
    }
}

/// The unpopulated 4-core / 8-process mix: processes fault often, faults
/// truncate slices, and the leftover quanta make some core a runt
/// (`cap < MIN_EPOCH_SLICE`) in many plans.
fn unpopulated_mix(
    threads: usize,
    per_process: u64,
) -> (System, Vec<ProcessId>, Vec<WorkloadSpec>) {
    let specs: Vec<WorkloadSpec> = (0..8)
        .map(|p| {
            let spec = if p % 2 == 0 {
                catalog::gups_randacc()
            } else {
                catalog::graphbig_pr()
            };
            spec.scaled_footprint(1.0 / 32.0)
                .with_instructions(per_process)
        })
        .collect();
    let mut config = SystemConfig::small_test()
        .with_cores(4)
        .with_host_threads(threads);
    config.os.policy = AllocationPolicy::BuddyFourK;
    let (system, pids) = build_multiprocess(config, &specs);
    (system, pids, specs)
}

/// Every instruction pulled from a trace retires, also when an epoch is
/// planned and then abandoned: the planner once fetched the earlier cores'
/// slices before it found the runt and dropped them with the epoch
/// (1 187 543 of these 1 600 000 instructions retired). On 2 and 3 host
/// threads the same run is where fault-truncated slices meet jobs still
/// out on a worker (every fault first brings all of them home), and the
/// report must not notice.
#[test]
fn abandoned_epochs_lose_no_trace_instructions() {
    const PER_PROCESS: u64 = 200_000;
    let mut baseline = None;
    for threads in [1usize, 2, 3] {
        let (mut system, pids, specs) = unpopulated_mix(threads, PER_PROCESS);
        let mut sources: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(p, spec)| spec.build(1 + p as u64))
            .collect();
        let report = run_sources(&mut system, &pids, &mut sources, None);
        let stats = system.epoch_stats();
        assert!(
            stats.epochs_run > 0,
            "{threads} host threads: the epoch planner never engaged"
        );
        assert!(
            stats.fault_truncated_slices > 0 && stats.stood_down_runt_slice > 0,
            "{threads} host threads: the mix must truncate slices and \
             abandon plans ({stats:?})"
        );
        assert_eq!(
            report.rollup.instructions,
            8 * PER_PROCESS,
            "{threads} host threads: trace instructions went missing"
        );
        let json = serde_json::to_string(&report).unwrap();
        match &baseline {
            None => baseline = Some(json),
            Some(expected) => assert_eq!(
                expected, &json,
                "{threads} host threads diverged on the unpopulated mix"
            ),
        }
    }
}

/// An instruction limit that lands inside an epoch — not on a slice
/// boundary, so the last epoch's later cores never run — ends the run with
/// the same report at 1 and 2 host threads, and with every core's frontend
/// back in the `System`: a second run on the same machine and the same
/// trace sources continues identically on both, and the fence finds every
/// core's TLB coherent.
#[test]
fn an_instruction_limit_inside_an_epoch_brings_every_frontend_home() {
    let mut baseline = None;
    for threads in [1usize, 2] {
        let (mut system, pids, specs) = unpopulated_mix(threads, 60_000);
        let mut sources: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(p, spec)| spec.build(1 + p as u64))
            .collect();
        let first = run_sources(&mut system, &pids, &mut sources, Some(41_111));
        assert_eq!(first.rollup.instructions, 41_111);
        system.check_invariants().expect("coherent after the limit");
        let second = run_sources(&mut system, &pids, &mut sources, Some(52_345));
        assert_eq!(second.rollup.instructions, 41_111 + 52_345);
        system.check_invariants().expect("coherent after the rerun");
        assert!(system.epoch_stats().epochs_run > 0);
        for core in 0..system.num_cores() {
            assert!(system.mmu_of(core).stats().translations.get() > 0);
        }
        let json = (
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
        );
        match &baseline {
            None => baseline = Some(json),
            Some(expected) => assert_eq!(
                expected, &json,
                "{threads} host threads diverged across a mid-epoch limit"
            ),
        }
    }
}

/// A process whose trace ends exactly on a quantum boundary is dispatched
/// once more, retires nothing and exits; the run must carry on with the
/// processes still queued behind it. Two processes share every core (pids
/// `c` and `cores + c` both pin to core `c`), the first with `k` quanta of
/// instructions, so at every core count all cores hit that empty turn in
/// the same round — the round a progress-counting loop mistook for the end
/// of the run.
#[test]
fn a_trace_ending_on_a_quantum_boundary_does_not_end_the_run() {
    const LONG: u64 = 20_000;
    let quantum = SystemConfig::small_test().os.sched_quantum;
    for cores in [1usize, 2, 4] {
        for k in 1..=3 {
            let short = k * quantum;
            let mut specs = plentiful_specs(2 * cores, LONG);
            for spec in &mut specs[..cores] {
                spec.instructions = short;
            }
            let config = SystemConfig::small_test().with_cores(cores);
            let (mut system, pids) = build_multiprocess(config, &specs);
            let report = run_mix(&mut system, &pids, &specs, 0xB0DE);
            assert_eq!(
                report.rollup.instructions,
                cores as u64 * (short + LONG),
                "{cores} cores, {k}-quantum trace: the run ended with \
                 processes still runnable"
            );
        }
    }
}

/// Runs `specs` (one process each, on four cores) at 1, 2, 3 and 4 host
/// threads and asserts byte-identical reports. Every threaded run must
/// have streamed chunk logs to the barrier ahead of their jobs, or the
/// sweep would not be testing the streamed replay. Returns the epoch
/// counters of the single-threaded and the last threaded run.
fn assert_chunked_slices_agree(
    name: &str,
    config: SystemConfig,
    specs: &[WorkloadSpec],
    populate: bool,
) -> (EpochStats, EpochStats) {
    const CORES: usize = 4;
    let mut baseline = None;
    let mut stats = Vec::new();
    for threads in [1usize, 2, 3, CORES] {
        let config = config.clone().with_cores(CORES).with_host_threads(threads);
        let (mut system, pids) = build_multiprocess(config, specs);
        if populate {
            for &pid in &pids {
                system.populate(pid);
            }
        }
        let report = run_mix(&mut system, &pids, specs, 0xC4C4);
        let epoch = system.epoch_stats();
        assert!(
            epoch.epochs_run > 0,
            "{name}: the epoch planner never engaged"
        );
        assert_eq!(
            epoch.chunks_streamed > 0,
            threads > 1,
            "{name}, {threads} host threads: chunks stream to the barrier \
             exactly when there is a worker ({epoch:?})"
        );
        stats.push(epoch);
        let json = serde_json::to_string(&report).unwrap();
        match &baseline {
            None => baseline = Some(json),
            Some(expected) => assert_eq!(
                expected, &json,
                "{name}: {threads} host threads diverged from the \
                 single-threaded schedule"
            ),
        }
    }
    (stats[0], stats[stats.len() - 1])
}

/// A sequential stream over an unpopulated region, one memory access in
/// twenty instructions: a new 4 KiB page (and its first-touch fault) every
/// 64 accesses, ~1 280 instructions. A slice that resumes after a fault
/// meets the next one well past its first 512-instruction chunk, so the
/// barrier replays streamed chunks and then resumes the job's faulting
/// last chunk.
#[test]
fn a_fault_inside_a_later_chunk_matches_one_host_thread() {
    let specs: Vec<WorkloadSpec> = (0..4)
        .map(|i| {
            let mut spec = WorkloadSpec::simple(
                "seq",
                WorkloadClass::ShortRunning,
                8 * 1024 * 1024,
                AccessPattern::Streaming {
                    jump_probability: 0.0,
                },
                30_000,
            );
            spec.name = format!("SEQ{i}");
            spec.memory_fraction = 0.05;
            spec
        })
        .collect();
    let mut config = SystemConfig::small_test();
    config.os.policy = AllocationPolicy::BuddyFourK;
    config.os.thp = virtuoso_suite::mimic_os::ThpConfig::disabled();
    config.os.sched_quantum = 8_192;
    config.housekeeping_interval = 0;
    let (serial, threaded) =
        assert_chunked_slices_agree("later-chunk fault", config, &specs, false);
    assert!(
        serial.fault_truncated_slices > 0 && threaded.fault_truncated_slices > 0,
        "faults must truncate slices ({threaded:?})"
    );
}

/// Populated processes and a quantum of four chunks: every slice is
/// exactly 2 048 instructions, so its last chunk ends on the slice's end
/// and none is empty or short.
#[test]
fn slices_of_whole_chunks_match_one_host_thread() {
    let specs = plentiful_specs(4, 8 * 2_048);
    let mut config = SystemConfig::small_test();
    config.os.sched_quantum = 2_048;
    config.housekeeping_interval = 0;
    let (_, threaded) = assert_chunked_slices_agree("whole chunks", config, &specs, true);
    assert_eq!(threaded.fault_truncated_slices, 0, "populated: no fault");
}

/// Populated processes whose traces end 300 instructions into their third
/// quantum: after two slices of four chunks each, every process runs one
/// slice shorter than a single chunk, which travels home with its job.
#[test]
fn a_slice_shorter_than_one_chunk_matches_one_host_thread() {
    let specs = plentiful_specs(4, 2 * 2_048 + 300);
    let mut config = SystemConfig::small_test();
    config.os.sched_quantum = 2_048;
    config.housekeeping_interval = 0;
    let (_, threaded) = assert_chunked_slices_agree("short slice", config, &specs, true);
    assert_eq!(threaded.fault_truncated_slices, 0, "populated: no fault");
}

/// A run whose instruction limit lands exactly where a quantum expires
/// ends without that preemption; the next run on the same machine must
/// perform it first. It used to find no quantum left and spin forever.
/// Split at the boundary, the two runs add up to one uninterrupted run
/// (populated, so no fault leaves fetched instructions behind in the first
/// run's queues).
#[test]
fn a_limit_on_a_quantum_boundary_lets_the_next_run_continue() {
    for cores in [1usize, 2] {
        let quantum = 1_000;
        let specs = plentiful_specs(2 * cores, 20_000);
        let mut config = SystemConfig::small_test().with_cores(cores);
        config.os.sched_quantum = quantum;
        // The second run reaches every core, so each performs the
        // preemption the first run's limit deferred.
        let first = cores as u64 * quantum;
        let second = first + 10;
        let run = |limits: &[u64]| {
            let (mut system, pids) = build_multiprocess(config.clone(), &specs);
            for &pid in &pids {
                system.populate(pid);
            }
            let mut sources: Vec<_> = specs.iter().map(|s| s.build(0x9A17)).collect();
            let mut report = None;
            for &limit in limits {
                report = Some(run_sources(&mut system, &pids, &mut sources, Some(limit)));
            }
            serde_json::to_string(&report.expect("at least one run")).unwrap()
        };
        let split = run(&[first, second]);
        assert_eq!(
            split,
            run(&[first + second]),
            "{cores} cores: a run split on a quantum boundary must add up \
             to the uninterrupted run"
        );
    }
}

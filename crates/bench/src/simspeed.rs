//! The sustained-simulation-speed harness behind the `simspeed` binary.
//!
//! Fig. 11/12 of the paper sell Virtuoso on *simulation-speed overhead*:
//! the detailed MimicOS integration must stay affordable relative to the
//! emulation baseline. This module measures what the paper plots — the
//! sustained simulated-MIPS (millions of simulated instructions per host
//! second) of the steady-state instruction loop — for a fixed set of
//! catalog workloads in both simulation modes, and serializes the result
//! to `BENCH_simspeed.json` at the repository root so every future PR has
//! a performance trajectory to compare against.
//!
//! The measured segment deliberately excludes system construction and
//! region mapping (one-off setup) but includes everything the instruction
//! loop does: translation, page walks, cache/DRAM traffic, fault handling
//! and kernel-stream injection.

use mimic_os::AllocationPolicy;
use mmu_sim::{EngineConfig, MidgardConfig, RmmConfig, UtopiaMmuConfig};
use serde::Serialize;
use std::time::Instant;
use virtuoso::{SimulationReport, System, SystemConfig};
use vm_types::PageSize;
use vm_workloads::{catalog, WorkloadSpec};

/// One measured (workload × mode) point.
#[derive(Debug, Clone, Serialize)]
pub struct SpeedCell {
    /// Workload label (catalog name).
    pub workload: String,
    /// `"detailed"` or `"emulation"`.
    pub mode: String,
    /// Translation engine of the cell (`"page-table"`, `"midgard"`,
    /// `"rmm"`, `"utopia"`).
    pub engine: String,
    /// Simulated cores of the cell (1 for the classic single-core rows;
    /// the multi-core rows run one pinned process per core through the
    /// sharded round-robin loop).
    pub cores: usize,
    /// Host threads the sharded loop stepped the cores on (always 1 for
    /// single-core rows). Reports are bit-identical across thread counts;
    /// only `best_elapsed_s`/`mips` may differ between rows that share
    /// (workload, mode, engine, cores).
    pub threads: usize,
    /// Simulated instructions per repetition (summed across all cores).
    pub instructions: u64,
    /// Timed repetitions (best one is reported).
    pub repetitions: u32,
    /// Wall-clock seconds of the best repetition.
    pub best_elapsed_s: f64,
    /// Sustained simulated MIPS of the best repetition.
    pub mips: f64,
    /// Simulated IPC of the run (sanity anchor: must not change when the
    /// host gets faster).
    pub sim_ipc: f64,
    /// Epoch telemetry of the last repetition (multi-core rows only): how
    /// often the loop ran an epoch, why it did not, and what crossed the
    /// host-thread boundary.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub epoch: Option<virtuoso::EpochStats>,
}

/// The full report written to `BENCH_simspeed.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SpeedReport {
    /// Report schema tag.
    pub schema: String,
    /// `true` when run with `--quick` (CI smoke budget).
    pub quick: bool,
    /// All measured cells.
    pub cells: Vec<SpeedCell>,
    /// The headline number: GUPS (`RND`) in detailed mode on the
    /// page-table engine, the paper's worst-case translation-bound
    /// workload.
    pub headline_mips: f64,
    /// Reference MIPS of the pre-optimization commit (passed with
    /// `--ref-mips`), 0.0 when not supplied.
    pub reference_mips: f64,
    /// `headline_mips / reference_mips` (0.0 when no reference given).
    pub speedup_vs_reference: f64,
}

impl SpeedReport {
    /// The first single-core cell for (workload, mode), if measured — the
    /// page-table engine, which is always measured ahead of the
    /// alternatives.
    pub fn cell(&self, workload: &str, mode: &str) -> Option<&SpeedCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.mode == mode && c.cores == 1)
    }

    /// The detailed-mode single-core cell of (workload, engine), if
    /// measured.
    pub fn engine_cell(&self, workload: &str, engine: &str) -> Option<&SpeedCell> {
        self.cells.iter().find(|c| {
            c.workload == workload && c.mode == "detailed" && c.engine == engine && c.cores == 1
        })
    }

    /// The detailed-mode page-table cell of (workload, cores, threads),
    /// if measured.
    pub fn multicore_cell(
        &self,
        workload: &str,
        cores: usize,
        threads: usize,
    ) -> Option<&SpeedCell> {
        self.cells.iter().find(|c| {
            c.workload == workload
                && c.mode == "detailed"
                && c.cores == cores
                && c.threads == threads
        })
    }

    /// Cells that fell below a sustained-MIPS floor (`--min-mips`): the CI
    /// smoke-perf gate fails when any cell regresses past it. An empty
    /// result means every measured cell cleared the floor.
    pub fn cells_below(&self, floor_mips: f64) -> Vec<&SpeedCell> {
        self.cells.iter().filter(|c| c.mips < floor_mips).collect()
    }
}

/// Options of a measurement run.
#[derive(Debug, Clone)]
pub struct SpeedOptions {
    /// Simulated instructions per repetition.
    pub instructions: u64,
    /// Timed repetitions per cell (the best is kept).
    pub repetitions: u32,
    /// Marks the report as a quick (CI smoke) run.
    pub quick: bool,
    /// Pre-optimization reference MIPS for the headline cell.
    pub reference_mips: f64,
    /// Alternative translation engines measured on the headline workload
    /// (detailed mode), in addition to the page-table engine.
    pub engines: Vec<String>,
    /// Multi-core cell sizes measured on the headline workload (one
    /// pinned copy per core, detailed mode, page-table engine).
    pub core_counts: Vec<usize>,
    /// Host-thread counts each multi-core cell is measured at (values
    /// are clamped to the cell's core count and deduplicated). Empty
    /// means the default sweep `{1, cores}` — the serial baseline and
    /// the fully parallel run, the A/B pair behind the scaling claim.
    pub host_threads: Vec<usize>,
}

impl SpeedOptions {
    /// The full measurement (committed trajectory numbers). The budget is
    /// sized so the cold-start fault storm (every page of the footprint
    /// faults once, ~16k faults for the scaled GUPS cell) amortizes and
    /// the cell measures *sustained* steady-state speed, not fault-path
    /// speed — at 400k instructions the RND cells were ~4% page faults.
    pub fn full() -> Self {
        SpeedOptions {
            instructions: 2_000_000,
            repetitions: 3,
            quick: false,
            reference_mips: 0.0,
            engines: SpeedOptions::all_engines(),
            core_counts: SpeedOptions::default_core_counts(),
            host_threads: Vec::new(),
        }
    }

    /// The CI smoke budget (`--quick`). Large enough that the cells are
    /// not pure fault-storm (which would sit an order of magnitude below
    /// sustained speed and defeat the `--min-mips` floor), small enough
    /// to finish in seconds.
    pub fn quick() -> Self {
        SpeedOptions {
            instructions: 200_000,
            repetitions: 2,
            quick: true,
            reference_mips: 0.0,
            engines: SpeedOptions::all_engines(),
            core_counts: SpeedOptions::default_core_counts(),
            host_threads: Vec::new(),
        }
    }

    /// Every alternative engine the harness knows how to configure.
    pub fn all_engines() -> Vec<String> {
        vec!["midgard".into(), "rmm".into(), "utopia".into()]
    }

    /// The default multi-core cell sizes.
    pub fn default_core_counts() -> Vec<usize> {
        vec![2, 4]
    }
}

/// The system configuration of one engine dimension: the engine itself
/// plus the allocation policy its design pairs with (eager paging feeds
/// RMM's ranges; the Utopia policy places pages in the RestSeg).
pub fn engine_system_config(engine: &str) -> SystemConfig {
    let mut config = SystemConfig::small_test();
    match engine {
        "page-table" => {}
        "midgard" => {
            config = config.with_engine(EngineConfig::Midgard(MidgardConfig::paper_baseline()));
        }
        "rmm" => {
            config = config.with_engine(EngineConfig::Rmm(RmmConfig::paper_baseline()));
            config.os.policy = AllocationPolicy::EagerPaging;
        }
        "utopia" => {
            let restseg_bytes: u64 = 64 * 1024 * 1024;
            config = config.with_engine(EngineConfig::Utopia(
                UtopiaMmuConfig::paper_baseline().with_restseg_bytes(restseg_bytes),
            ));
            config.os.policy = AllocationPolicy::Utopia(mimic_os::UtopiaConfig::new(
                restseg_bytes,
                16,
                PageSize::Size4K,
            ));
        }
        other => panic!("unknown engine {other:?} (page-table|midgard|rmm|utopia)"),
    }
    config
}

/// The workloads measured: the paper's worst-case translation-bound
/// workload (GUPS), a streaming long-running one (PR), and an
/// allocation-bound short-running one (JSON). Footprints are scaled to
/// co-exist with the small-test machine so the harness runs in seconds.
pub fn speed_workloads() -> Vec<WorkloadSpec> {
    vec![
        catalog::gups_randacc().scaled_footprint(0.125),
        catalog::graphbig_pr().scaled_footprint(0.125),
        catalog::faas_json(),
    ]
}

fn run_once(config: SystemConfig, spec: &WorkloadSpec) -> (f64, SimulationReport) {
    let mut system = System::new(config);
    let pid = system.pid();
    crate::runner::map_spec_regions(&mut system, pid, spec, 0);
    let mut source = spec.build(0xBEEF);
    let start = Instant::now();
    let report = system.run(&mut source, None);
    (start.elapsed().as_secs_f64(), report)
}

/// Measures one (config, spec) cell: one untimed warmup repetition, then
/// `repetitions` timed ones, keeping the fastest.
pub fn measure_cell(
    config: &SystemConfig,
    spec: &WorkloadSpec,
    mode: &str,
    engine: &str,
    opts: &SpeedOptions,
) -> SpeedCell {
    let spec = spec.clone().with_instructions(opts.instructions);
    // Warmup: page in the host-side allocations and warm the branch
    // predictors with a shorter run.
    let _ = run_once(
        config.clone(),
        &spec.clone().with_instructions(opts.instructions / 4),
    );
    let mut best_elapsed = f64::INFINITY;
    let mut last_report = None;
    for _ in 0..opts.repetitions.max(1) {
        let (elapsed, report) = run_once(config.clone(), &spec);
        if elapsed < best_elapsed {
            best_elapsed = elapsed;
        }
        last_report = Some(report);
    }
    let report = last_report.expect("at least one repetition");
    SpeedCell {
        workload: spec.name.clone(),
        mode: mode.to_string(),
        engine: engine.to_string(),
        cores: 1,
        threads: 1,
        instructions: opts.instructions,
        repetitions: opts.repetitions,
        best_elapsed_s: best_elapsed,
        mips: opts.instructions as f64 / best_elapsed / 1e6,
        sim_ipc: report.ipc,
        epoch: None,
    }
}

fn run_multicore_once(
    config: SystemConfig,
    spec: &WorkloadSpec,
    cores: usize,
) -> (f64, virtuoso::MultiProgramReport, virtuoso::EpochStats) {
    let mut system = System::new(config);
    let mut pids = vec![system.pid()];
    while pids.len() < cores {
        pids.push(system.spawn_process());
    }
    for &pid in &pids {
        crate::runner::map_spec_regions(&mut system, pid, spec, (pid.0 as u64) * 1000);
    }
    let mut sources: Vec<_> = (0..cores).map(|i| spec.build(0xBEEF + i as u64)).collect();
    let mut programs: Vec<(mimic_os::ProcessId, &mut dyn sim_core::TraceSource)> = pids
        .iter()
        .copied()
        .zip(
            sources
                .iter_mut()
                .map(|s| s as &mut dyn sim_core::TraceSource),
        )
        .collect();
    let start = Instant::now();
    let report = system.run_multiprogram(&mut programs, None);
    (start.elapsed().as_secs_f64(), report, system.epoch_stats())
}

/// Measures one multi-core cell: `cores` pinned copies of `spec` on an
/// N-core detailed system, stepping through the sharded round-robin loop
/// on `threads` host threads. The per-process instruction budget is
/// `opts.instructions / cores` and the per-process footprint is scaled by
/// `1 / cores`, so the simulated-instruction total (the MIPS denominator)
/// and the aggregate memory footprint both stay comparable to the
/// single-core rows — the cell then measures the cost of the multi-core
/// machinery, not of simulating a bigger machine.
pub fn measure_multicore_cell(
    spec: &WorkloadSpec,
    cores: usize,
    threads: usize,
    opts: &SpeedOptions,
) -> SpeedCell {
    let config = SystemConfig::small_test()
        .with_cores(cores)
        .with_host_threads(threads);
    let per_core = (opts.instructions / cores as u64).max(1);
    let total = per_core * cores as u64;
    let spec = spec
        .clone()
        .scaled_footprint(1.0 / cores as f64)
        .with_instructions(per_core);
    let _ = run_multicore_once(
        config.clone(),
        &spec.clone().with_instructions((per_core / 4).max(1)),
        cores,
    );
    let mut best_elapsed = f64::INFINITY;
    let mut last_report = None;
    for _ in 0..opts.repetitions.max(1) {
        let (elapsed, report, epoch) = run_multicore_once(config.clone(), &spec, cores);
        if elapsed < best_elapsed {
            best_elapsed = elapsed;
        }
        last_report = Some((report, epoch));
    }
    let (report, epoch) = last_report.expect("at least one repetition");
    SpeedCell {
        workload: spec.name.clone(),
        mode: "detailed".to_string(),
        engine: "page-table".to_string(),
        cores,
        threads,
        instructions: total,
        repetitions: opts.repetitions,
        best_elapsed_s: best_elapsed,
        mips: total as f64 / best_elapsed / 1e6,
        sim_ipc: report.rollup.ipc,
        epoch: Some(epoch),
    }
}

/// Runs the whole measurement matrix: workloads × {detailed, emulation}
/// on the page-table engine, plus the headline workload (GUPS) in
/// detailed mode under every alternative engine in `opts.engines` — the
/// per-engine speed rows that guard against dispatch-overhead
/// regressions and record what the alternative designs cost to simulate —
/// plus the multi-core rows: for each entry of `opts.core_counts`, one
/// row per host-thread count in the sweep (`{1, cores}` by default — the
/// same simulated machine stepped serially and in parallel), recording
/// what the sharded loop and per-core frontends cost in host time and
/// what the epoch-parallel stepping buys back.
pub fn measure(opts: &SpeedOptions) -> SpeedReport {
    let detailed = SystemConfig::small_test();
    let emulation = SystemConfig::small_test().with_emulation_baseline();
    let mut cells = Vec::new();
    for spec in speed_workloads() {
        cells.push(measure_cell(
            &detailed,
            &spec,
            "detailed",
            "page-table",
            opts,
        ));
        cells.push(measure_cell(
            &emulation,
            &spec,
            "emulation",
            "page-table",
            opts,
        ));
    }
    let headline_spec = catalog::gups_randacc().scaled_footprint(0.125);
    for engine in &opts.engines {
        let config = engine_system_config(engine);
        cells.push(measure_cell(
            &config,
            &headline_spec,
            "detailed",
            engine,
            opts,
        ));
    }
    for &cores in &opts.core_counts {
        let sweep = if opts.host_threads.is_empty() {
            vec![1, cores]
        } else {
            opts.host_threads.clone()
        };
        let mut seen = Vec::new();
        for &threads in &sweep {
            let threads = threads.clamp(1, cores);
            if seen.contains(&threads) {
                continue;
            }
            seen.push(threads);
            cells.push(measure_multicore_cell(&headline_spec, cores, threads, opts));
        }
    }
    let headline_mips = cells
        .iter()
        .find(|c| {
            c.workload == "RND" && c.mode == "detailed" && c.engine == "page-table" && c.cores == 1
        })
        .map(|c| c.mips)
        .unwrap_or(0.0);
    SpeedReport {
        schema: "virtuoso-simspeed-v4".to_string(),
        quick: opts.quick,
        headline_mips,
        reference_mips: opts.reference_mips,
        speedup_vs_reference: if opts.reference_mips > 0.0 {
            headline_mips / opts.reference_mips
        } else {
            0.0
        },
        cells,
    }
}

/// Renders the report as an aligned console table.
pub fn render(report: &SpeedReport) -> String {
    let mut table = crate::runner::ExperimentTable::new(
        "Sustained simulation speed (simulated MIPS per host second)",
        &[
            "workload", "mode", "engine", "cores", "threads", "instrs", "best_s", "MIPS", "sim_ipc",
        ],
    );
    for c in &report.cells {
        table.push_row(vec![
            c.workload.clone(),
            c.mode.clone(),
            c.engine.clone(),
            c.cores.to_string(),
            c.threads.to_string(),
            c.instructions.to_string(),
            format!("{:.4}", c.best_elapsed_s),
            format!("{:.3}", c.mips),
            format!("{:.3}", c.sim_ipc),
        ]);
    }
    let mut out = table.render();
    let mut epochs = crate::runner::ExperimentTable::new(
        "Epoch telemetry of the multi-core rows (stood down: fence / injection / headroom / runt)",
        &[
            "workload",
            "cores",
            "threads",
            "epochs",
            "stood_down",
            "truncated",
            "replayed",
            "jobs",
        ],
    );
    let mut any_epochs = false;
    for c in &report.cells {
        let Some(e) = c.epoch else { continue };
        any_epochs = true;
        epochs.push_row(vec![
            c.workload.clone(),
            c.cores.to_string(),
            c.threads.to_string(),
            e.epochs_run.to_string(),
            format!(
                "{}/{}/{}/{}",
                e.stood_down_fence_armed,
                e.stood_down_fault_injection,
                e.stood_down_low_headroom,
                e.stood_down_runt_slice
            ),
            e.fault_truncated_slices.to_string(),
            e.replayed_accesses.to_string(),
            e.jobs_handed_off.to_string(),
        ]);
    }
    if any_epochs {
        out.push_str(&epochs.render());
    }
    out.push_str(&format!(
        "headline (RND/detailed): {:.3} MIPS\n",
        report.headline_mips
    ));
    if report.reference_mips > 0.0 {
        out.push_str(&format!(
            "vs reference {:.3} MIPS: {:.2}x\n",
            report.reference_mips, report.speedup_vs_reference
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> SpeedOptions {
        SpeedOptions {
            instructions: 2_000,
            repetitions: 1,
            quick: true,
            reference_mips: 0.0,
            engines: SpeedOptions::all_engines(),
            core_counts: SpeedOptions::default_core_counts(),
            host_threads: Vec::new(),
        }
    }

    #[test]
    fn measures_every_workload_in_both_modes() {
        let report = measure(&tiny_opts());
        assert_eq!(
            report.cells.len(),
            speed_workloads().len() * 2
                + SpeedOptions::all_engines().len()
                // One serial (threads=1) and one parallel (threads=cores)
                // row per multi-core cell size.
                + SpeedOptions::default_core_counts().len() * 2
        );
        for cell in &report.cells {
            assert!(
                cell.mips > 0.0,
                "{}/{} has no speed",
                cell.workload,
                cell.mode
            );
            assert!(cell.best_elapsed_s > 0.0);
        }
        assert!(report.headline_mips > 0.0);
        assert!(report.cell("RND", "detailed").is_some());
        assert!(report.cell("RND", "emulation").is_some());
        for engine in SpeedOptions::all_engines() {
            let cell = report.engine_cell("RND", &engine).unwrap();
            assert!(cell.mips > 0.0, "{engine} row must be measured");
        }
        assert_eq!(
            report.cell("RND", "detailed").unwrap().engine,
            "page-table",
            "the headline cell stays on the page-table engine"
        );
        for cores in SpeedOptions::default_core_counts() {
            let serial = report
                .multicore_cell("RND", cores, 1)
                .unwrap_or_else(|| panic!("{cores}-core serial row must be measured"));
            let parallel = report
                .multicore_cell("RND", cores, cores)
                .unwrap_or_else(|| panic!("{cores}-core parallel row must be measured"));
            for cell in [serial, parallel] {
                assert!(cell.mips > 0.0, "{cores}-core row must have speed");
                assert_eq!(
                    cell.instructions % cores as u64,
                    0,
                    "multi-core budget splits evenly across cores"
                );
            }
            // The determinism contract, observed from the bench side: the
            // serial and parallel rows simulate the exact same machine, so
            // their simulated IPC agrees to the last bit.
            assert_eq!(
                serial.sim_ipc.to_bits(),
                parallel.sim_ipc.to_bits(),
                "{cores}-core rows must report identical simulated IPC \
                 across host-thread counts"
            );
        }
        assert_eq!(
            report.cell("RND", "detailed").unwrap().cores,
            1,
            "the headline cell stays single-core"
        );
    }

    #[test]
    fn min_mips_floor_flags_only_slow_cells() {
        let report = measure(&tiny_opts());
        assert!(
            report.cells_below(0.0).is_empty(),
            "a zero floor passes everything"
        );
        let slow = report.cells_below(f64::INFINITY);
        assert_eq!(
            slow.len(),
            report.cells.len(),
            "an unreachable floor flags every cell"
        );
    }

    #[test]
    fn reference_speedup_is_computed() {
        let mut opts = tiny_opts();
        opts.reference_mips = 1.0;
        let report = measure(&opts);
        assert!((report.speedup_vs_reference - report.headline_mips).abs() < 1e-9);
    }

    #[test]
    fn report_serializes_to_json() {
        let report = measure(&tiny_opts());
        let json = serde_json::to_string(&report).expect("serialize");
        assert!(json.contains("\"schema\":\"virtuoso-simspeed-v4\""));
        assert!(json.contains("\"headline_mips\""));
        assert!(json.contains("\"engine\":\"midgard\""));
        assert!(json.contains("\"cores\":4"));
        assert!(json.contains("\"threads\":4"));
    }

    #[test]
    fn render_mentions_the_headline() {
        let report = measure(&tiny_opts());
        let text = render(&report);
        assert!(text.contains("headline (RND/detailed)"));
        assert!(text.contains("MIPS"));
    }
}

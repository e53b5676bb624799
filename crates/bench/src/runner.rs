//! Shared helpers for the figure harnesses: single-spec runs, the
//! multi-programmed run builder, and the work-stealing parallel experiment
//! runner that shards independent (workload × config) cells across host
//! cores with deterministic per-cell seeding.

use mimic_os::ProcessId;
use sim_core::TraceSource;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use virtuoso::{MultiProgramReport, SimulationReport, System, SystemConfig};
use vm_workloads::{SyntheticWorkload, WorkloadSpec};

/// A simple printable table: header plus rows of equal length.
#[derive(Debug, Clone, Default)]
pub struct ExperimentTable {
    /// Table title (figure identifier).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Creates an empty table.
    pub fn new(title: &str, header: &[&str]) -> Self {
        ExperimentTable {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width must match header");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("=== {} ===\n", self.title);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i] + 2))
                .collect::<String>()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Maps every region of `spec` into `pid`'s address space. File-backed
/// regions are numbered `file_id_base + index + 1` so multi-process
/// callers can keep their page-cache state disjoint.
pub fn map_spec_regions(
    system: &mut System,
    pid: ProcessId,
    spec: &WorkloadSpec,
    file_id_base: u64,
) {
    for (i, region) in spec.regions.iter().enumerate() {
        let result = if region.file_backed {
            system.mmap_file_for(pid, region.start, region.bytes, file_id_base + i as u64 + 1)
        } else {
            system.mmap_anonymous_for(pid, region.start, region.bytes)
        };
        result.expect("mapping workload region");
    }
}

/// Builds a system for `spec`, with its regions mapped.
pub fn system_for(config: SystemConfig, spec: &WorkloadSpec) -> System {
    let mut system = System::new(config);
    let pid = system.pid();
    map_spec_regions(&mut system, pid, spec, 0);
    system
}

/// Builds a system for `spec` (mapping its regions) and runs it, returning
/// the report.
pub fn run_spec_with_config(
    config: SystemConfig,
    spec: &WorkloadSpec,
    seed: u64,
) -> SimulationReport {
    system_for(config, spec).run(&mut spec.build(seed), None)
}

/// Runs `spec` on the small-test system configuration.
pub fn run_spec(spec: &WorkloadSpec, seed: u64) -> SimulationReport {
    run_spec_with_config(SystemConfig::small_test(), spec, seed)
}

/// Builds one process per spec (mapping its regions), then runs all of
/// them interleaved under the MimicOS scheduler. Process `i` runs
/// `specs[i]` with seed `seed + i`; file-backed regions get per-process
/// file ids so the processes do not share page-cache state.
pub fn run_multiprogram_specs(
    config: SystemConfig,
    specs: &[WorkloadSpec],
    seed: u64,
) -> MultiProgramReport {
    let mut system = System::new(config);
    let mut pids = vec![system.pid()];
    for _ in 1..specs.len() {
        pids.push(system.spawn_process());
    }
    for (pid, spec) in pids.iter().zip(specs) {
        map_spec_regions(&mut system, *pid, spec, (pid.0 as u64) * 1000);
    }
    let mut sources: Vec<SyntheticWorkload> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| spec.build(seed + i as u64))
        .collect();
    let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = pids
        .iter()
        .copied()
        .zip(sources.iter_mut().map(|s| s as &mut dyn TraceSource))
        .collect();
    system.run_multiprogram(&mut programs, None)
}

/// Steady-state VM overhead fractions of `spec`: the address space is
/// populated up front (as `MAP_POPULATE` would), the workload then runs
/// its instruction budget, and the translation/allocation time fractions
/// are computed over the measured segment only.
///
/// Measuring from a cold start instead lets the one-off first-touch faults
/// of the scaled-down run swamp the steady-state behaviour — the bug that
/// made `fig01` report a 0.000 translation fraction for every long-running
/// workload.
pub fn steady_state_overheads(config: SystemConfig, spec: &WorkloadSpec, seed: u64) -> (f64, f64) {
    let mut system = system_for(config, spec);
    let pid = system.pid();
    system.populate(pid);
    let warm = system.report();
    let full = system.run(&mut spec.build(seed), None);
    full.fractions_since(&warm)
}

// ---------------------------------------------------------------------------
// The work-stealing parallel experiment runner.
// ---------------------------------------------------------------------------

/// One independent experiment cell: a (workload × configuration) point of a
/// figure sweep.
#[derive(Debug, Clone)]
pub struct ExperimentCell {
    /// Label used in tables (e.g. `"RND/radix"`).
    pub label: String,
    /// The system configuration of this cell.
    pub config: SystemConfig,
    /// The workload of this cell.
    pub workload: WorkloadSpec,
}

impl ExperimentCell {
    /// Builds a cell.
    pub fn new(label: &str, config: SystemConfig, workload: WorkloadSpec) -> Self {
        ExperimentCell {
            label: label.to_string(),
            config,
            workload,
        }
    }
}

/// The deterministic seed of cell `index` under `base_seed` (a splitmix64
/// step). Derived from the cell's position alone, never from which worker
/// thread claims it, so results are bit-identical at any `--jobs` level.
pub fn cell_seed(base_seed: u64, index: usize) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64).wrapping_mul(0xD129_0C0A_84BB_5E8B));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs every cell and returns the reports in cell order.
///
/// Cells are sharded across `jobs` worker threads through a shared
/// work-stealing index: each worker claims the next unclaimed cell as soon
/// as it finishes its previous one, so long cells never serialize behind
/// short ones. Each cell's RNG seed comes from [`cell_seed`], making the
/// result vector bit-identical for any `jobs` value (including 1).
pub fn run_cells(cells: &[ExperimentCell], base_seed: u64, jobs: usize) -> Vec<SimulationReport> {
    run_sharded(cells.len(), jobs, |idx| {
        let cell = &cells[idx];
        run_spec_with_config(
            cell.config.clone(),
            &cell.workload,
            cell_seed(base_seed, idx),
        )
    })
}

/// One multi-programmed experiment cell: a (workload mix × configuration)
/// point. The configuration's `num_cores` decides whether the mix runs on
/// the legacy single-core loop or the sharded multi-core loop.
#[derive(Debug, Clone)]
pub struct MultiProgramCell {
    /// Label used in tables (e.g. `"RND+STR/2core"`).
    pub label: String,
    /// The system configuration of this cell.
    pub config: SystemConfig,
    /// One workload per process; process `i` is pinned to core
    /// `i % num_cores` by the MimicOS scheduler.
    pub workloads: Vec<WorkloadSpec>,
}

impl MultiProgramCell {
    /// Builds a cell.
    pub fn new(label: &str, config: SystemConfig, workloads: Vec<WorkloadSpec>) -> Self {
        MultiProgramCell {
            label: label.to_string(),
            config,
            workloads,
        }
    }
}

/// [`run_cells`] for multi-programmed (including multi-core) cells: the
/// same work-stealing shard over host threads, the same positional
/// [`cell_seed`] derivation. Program `i` inside cell `idx` runs with seed
/// `cell_seed(base_seed, idx) + i` — derived from positions alone, never
/// from which worker thread claims the cell or which simulated core the
/// process lands on, so the result vector is bit-identical at any
/// `--jobs` level.
pub fn run_multiprogram_cells(
    cells: &[MultiProgramCell],
    base_seed: u64,
    jobs: usize,
) -> Vec<MultiProgramReport> {
    run_sharded(cells.len(), jobs, |idx| {
        let cell = &cells[idx];
        run_multiprogram_specs(
            cell.config.clone(),
            &cell.workloads,
            cell_seed(base_seed, idx),
        )
    })
}

/// The shared work-stealing shard: runs `count` independent cells across
/// `jobs` threads, collecting results in cell order.
fn run_sharded<R: Send>(count: usize, jobs: usize, run: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let jobs = jobs.max(1).min(count.max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= count {
                    break;
                }
                let report = run(idx);
                *results[idx].lock().expect("result slot poisoned") = Some(report);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell index was claimed")
        })
        .collect()
}

/// Parses `--jobs N` (or `-j N`) out of a raw argument list, returning the
/// worker count and the remaining arguments. Defaults to the host's
/// available parallelism.
pub fn jobs_from_args(args: &[String]) -> (usize, Vec<String>) {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut jobs = default;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" | "-j" => {
                if let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    jobs = n;
                    i += 2;
                    continue;
                }
                i += 1;
            }
            arg => {
                if let Some(n) = arg
                    .strip_prefix("--jobs=")
                    .and_then(|s| s.parse::<usize>().ok())
                {
                    jobs = n;
                } else {
                    rest.push(arg.to_string());
                }
                i += 1;
            }
        }
    }
    (jobs.max(1), rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_workloads::{AccessPattern, WorkloadClass};

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = ExperimentTable::new("Fig. X", &["workload", "value"]);
        t.push_row(vec!["BC".to_string(), "1.5".to_string()]);
        t.push_row(vec!["XSBench".to_string(), "20".to_string()]);
        let s = t.render();
        assert!(s.contains("Fig. X"));
        assert!(s.contains("XSBench"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        let mut t = ExperimentTable::new("t", &["a", "b"]);
        t.push_row(vec!["only-one".to_string()]);
    }

    #[test]
    fn run_spec_produces_a_report() {
        let spec = WorkloadSpec::simple(
            "runner-test",
            WorkloadClass::ShortRunning,
            4 * 1024 * 1024,
            AccessPattern::UniformRandom,
            2_000,
        );
        let report = run_spec(&spec, 1);
        assert_eq!(report.instructions, 2_000);
    }

    fn tiny_cells(n: usize) -> Vec<ExperimentCell> {
        (0..n)
            .map(|i| {
                let spec = WorkloadSpec::simple(
                    &format!("cell-{i}"),
                    WorkloadClass::ShortRunning,
                    (2 + i as u64) * 1024 * 1024,
                    AccessPattern::UniformRandom,
                    1_500,
                );
                ExperimentCell::new(&format!("cell-{i}"), SystemConfig::small_test(), spec)
            })
            .collect()
    }

    #[test]
    fn parallel_runner_matches_serial_bit_for_bit() {
        let cells = tiny_cells(6);
        let serial = run_cells(&cells, 42, 1);
        let parallel = run_cells(&cells, 42, 8);
        assert_eq!(serial.len(), 6);
        for (s, p) in serial.iter().zip(&parallel) {
            let sj = serde_json::to_string(s).expect("serialize");
            let pj = serde_json::to_string(p).expect("serialize");
            assert_eq!(sj, pj, "jobs=1 and jobs=8 must agree bit-for-bit");
        }
    }

    fn multicore_pressure_cells(n: usize) -> Vec<MultiProgramCell> {
        (0..n)
            .map(|i| {
                let cores = 2 + i % 3;
                let mut config = SystemConfig::small_test().with_cores(cores);
                config.os.memory_bytes = 16 * 1024 * 1024;
                config.os.swap_bytes = 128 * 1024 * 1024;
                config.os.swap_threshold = 0.5;
                config.os.policy = mimic_os::AllocationPolicy::BuddyFourK;
                config.os.thp = mimic_os::ThpConfig::disabled();
                config.os.populate_page_cache = false;
                config.os.sched_quantum = 1_000;
                let workloads = (0..cores + 1)
                    .map(|p| {
                        WorkloadSpec::simple(
                            &format!("mc-{i}-{p}"),
                            WorkloadClass::LongRunning,
                            12 * 1024 * 1024,
                            AccessPattern::UniformRandom,
                            2_000,
                        )
                    })
                    .collect();
                MultiProgramCell::new(&format!("mc-{i}/{cores}core"), config, workloads)
            })
            .collect()
    }

    #[test]
    fn multicore_cells_are_bit_identical_at_any_jobs_level() {
        let cells = multicore_pressure_cells(4);
        let serial = run_multiprogram_cells(&cells, 0xD0_0D, 1);
        let two = run_multiprogram_cells(&cells, 0xD0_0D, 2);
        let eight = run_multiprogram_cells(&cells, 0xD0_0D, 8);
        assert_eq!(serial.len(), 4);
        assert!(
            serial.iter().any(|r| r.rollup.shootdowns.is_some()),
            "pressure cells must exercise the shootdown path"
        );
        for (i, ((s, t), e)) in serial.iter().zip(&two).zip(&eight).enumerate() {
            let sj = serde_json::to_string(s).expect("serialize");
            let tj = serde_json::to_string(t).expect("serialize");
            let ej = serde_json::to_string(e).expect("serialize");
            assert_eq!(sj, tj, "cell {i}: jobs=1 and jobs=2 must agree bit-for-bit");
            assert_eq!(sj, ej, "cell {i}: jobs=1 and jobs=8 must agree bit-for-bit");
        }
    }

    #[test]
    fn cell_seeds_depend_on_index_not_schedule() {
        assert_ne!(cell_seed(7, 0), cell_seed(7, 1));
        assert_ne!(cell_seed(7, 0), cell_seed(8, 0));
        assert_eq!(cell_seed(7, 3), cell_seed(7, 3));
    }

    #[test]
    fn jobs_flag_parsing() {
        let (jobs, rest) = jobs_from_args(&["--jobs".into(), "4".into(), "2".into()]);
        assert_eq!(jobs, 4);
        assert_eq!(rest, vec!["2".to_string()]);
        let (jobs, rest) = jobs_from_args(&["--jobs=9".into()]);
        assert_eq!(jobs, 9);
        assert!(rest.is_empty());
        let (jobs, _) = jobs_from_args(&[]);
        assert!(jobs >= 1);
    }

    #[test]
    fn multiprogram_specs_share_the_machine() {
        let specs = vec![
            WorkloadSpec::simple(
                "AGG",
                WorkloadClass::LongRunning,
                8 * 1024 * 1024,
                AccessPattern::UniformRandom,
                4_000,
            ),
            WorkloadSpec::simple(
                "VIC",
                WorkloadClass::ShortRunning,
                8 * 1024 * 1024,
                AccessPattern::AllocateAndTouch {
                    new_page_fraction: 0.4,
                },
                4_000,
            ),
        ];
        let report = run_multiprogram_specs(SystemConfig::small_test(), &specs, 3);
        assert_eq!(report.processes.len(), 2);
        assert_eq!(report.rollup.instructions, 8_000);
        assert!(report.context_switches > 0);
        assert!(report.processes.iter().all(|p| p.instructions == 4_000));
    }

    #[test]
    fn steady_state_long_running_workload_is_translation_bound() {
        let spec = WorkloadSpec::simple(
            "steady",
            WorkloadClass::LongRunning,
            48 * 1024 * 1024,
            AccessPattern::UniformRandom,
            8_000,
        );
        let (translation, allocation) =
            steady_state_overheads(SystemConfig::small_test(), &spec, 1);
        assert!(
            translation > 0.02,
            "steady-state translation fraction {translation} must be visible"
        );
        assert!(
            translation > allocation,
            "random access over a populated footprint is translation-bound \
             (translation {translation}, allocation {allocation})"
        );
    }
}

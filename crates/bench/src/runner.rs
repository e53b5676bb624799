//! Shared helpers for the figure harnesses: single-spec runs, the
//! multi-programmed run builder, and [`par_map`], the work-stealing
//! parallel map that shards a figure's independent cells across host
//! cores and returns their results in cell order.

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

/// The work-stealing parallel map every figure runs its cells through:
/// calls `run(i)` for each `i` in `0..count` across `jobs` worker threads
/// and returns the results in index order.
///
/// Workers share one work-stealing index: each claims the next unclaimed
/// cell as soon as it finishes its previous one, so long cells never
/// serialize behind short ones. A cell that seeds its RNG from its index
/// (directly or through [`cell_seed`]), never from the worker that claims
/// it, makes the result vector bit-identical for any `jobs` value
/// (including 1).
pub fn par_map<R: Send>(jobs: usize, count: usize, run: impl Fn(usize) -> R + Sync) -> Vec<R> {
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
                let result = run(idx);
                *results[idx].lock().expect("result slot poisoned") = Some(result);
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

    fn tiny_specs(n: usize) -> Vec<WorkloadSpec> {
        (0..n)
            .map(|i| {
                WorkloadSpec::simple(
                    &format!("cell-{i}"),
                    WorkloadClass::ShortRunning,
                    (2 + i as u64) * 1024 * 1024,
                    AccessPattern::UniformRandom,
                    1_500,
                )
            })
            .collect()
    }

    #[test]
    fn parallel_runner_matches_serial_bit_for_bit() {
        let specs = tiny_specs(6);
        let run = |jobs| {
            par_map(jobs, specs.len(), |i| {
                run_spec_with_config(SystemConfig::small_test(), &specs[i], cell_seed(42, i))
            })
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial.len(), 6);
        for (s, p) in serial.iter().zip(&parallel) {
            let sj = serde_json::to_string(s).expect("serialize");
            let pj = serde_json::to_string(p).expect("serialize");
            assert_eq!(sj, pj, "jobs=1 and jobs=8 must agree bit-for-bit");
        }
    }

    /// `n` multi-core pressure cells: a machine of 2-4 cores and one more
    /// process than cores.
    fn multicore_pressure_cells(n: usize) -> Vec<(SystemConfig, Vec<WorkloadSpec>)> {
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
                (config, workloads)
            })
            .collect()
    }

    #[test]
    fn multicore_cells_are_bit_identical_at_any_jobs_level() {
        let cells = multicore_pressure_cells(4);
        let run = |jobs| {
            par_map(jobs, cells.len(), |i| {
                let (config, workloads) = &cells[i];
                run_multiprogram_specs(config.clone(), workloads, cell_seed(0xD0_0D, i))
            })
        };
        let serial = run(1);
        let two = run(2);
        let eight = run(8);
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

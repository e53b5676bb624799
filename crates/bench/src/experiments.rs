//! One experiment per table/figure of the paper's evaluation section, and
//! [`FIGURES`], the table the `figs` binary runs them from.
//!
//! Each function regenerates the corresponding figure's rows/series with a
//! scaled-down instruction budget (README, "Reproducing the paper's
//! figures", maps ids to figures). The `scale` parameter multiplies the
//! per-workload instruction budget; `1` is the quick default. `jobs` is the
//! number of host threads [`par_map`] spreads the figure's independent
//! simulations over; every cell keeps a fixed seed, so the table is the
//! same at any `jobs`.

use crate::runner::{
    cell_seed, par_map, run_multiprogram_specs, run_spec, run_spec_with_config,
    steady_state_overheads, system_for, ExperimentTable,
};
use mimic_os::{AllocationPolicy, OsConfig, ThpConfig, ThpMode};
use mmu_sim::{EngineReport, PageTableKind};
use virtuoso::{
    accuracy_percent, latency_distribution_similarity, Design, ReferenceMachine, SimulationReport,
    SystemConfig,
};
use vm_types::stats::geometric_mean;
use vm_types::{LatencyStats, PageSize};
use vm_workloads::catalog;
use vm_workloads::WorkloadSpec;

/// One figure: the id `figs` knows it by and the function that builds its
/// table from `(scale, jobs)`.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Command-line id, e.g. `"fig01"`.
    pub id: &'static str,
    /// Runs the figure at `scale` on `jobs` host threads.
    pub run: fn(scale: u64, jobs: usize) -> ExperimentTable,
}

impl Figure {
    const fn new(id: &'static str, run: fn(u64, usize) -> ExperimentTable) -> Self {
        Figure { id, run }
    }
}

/// Every figure, in paper order, then the two scenario studies.
pub const FIGURES: &[Figure] = &[
    Figure::new("fig01", fig01_vm_overheads),
    Figure::new("fig02", fig02_mpf_distribution),
    Figure::new("fig03", fig03_ptw_variation),
    Figure::new("fig08", fig08_ipc_accuracy),
    Figure::new("fig09", fig09_pf_cosine),
    Figure::new("fig10", fig10_mmu_validation),
    Figure::new("fig11", fig11_sim_overhead),
    Figure::new("fig12", fig12_overhead_correlation),
    Figure::new("fig13", fig13_ptw_reduction),
    Figure::new("fig14", fig14_rowbuffer_conflicts),
    Figure::new("fig15", fig15_mpf_reduction),
    Figure::new("fig16", fig16_llm_alloc_policies),
    Figure::new("fig17", fig17_midgard_breakdown),
    Figure::new("fig18", fig18_vma_histogram),
    Figure::new("fig19", fig19_restseg_size),
    Figure::new("fig20", fig20_swap_activity),
    Figure::new("fig21", fig21_rmm_conflicts),
    Figure::new("multiprogram", multiprogram_interference),
    Figure::new("pt_sweep", pt_sweep),
];

fn budget(base: u64, scale: u64) -> u64 {
    base.saturating_mul(scale.max(1))
}

fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

/// How much lower `value` is than `base`, in percent (0 when `base` is 0).
fn reduction_percent(value: f64, base: f64) -> f64 {
    if base > 0.0 {
        (1.0 - value / base) * 100.0
    } else {
        0.0
    }
}

/// One single-program simulation of a figure: machine, workload, seed.
type Cell = (SystemConfig, WorkloadSpec, u64);

/// Runs `cells` through [`par_map`]; the reports come back in cell order.
fn run_all(jobs: usize, cells: &[Cell]) -> Vec<SimulationReport> {
    par_map(jobs, cells.len(), |i| {
        let (config, spec, seed) = &cells[i];
        run_spec_with_config(config.clone(), spec, *seed)
    })
}

/// The small-test machine with page-table design `kind`.
fn pt_config(kind: PageTableKind) -> SystemConfig {
    SystemConfig::small_test().with_design(Design::PageTable(kind))
}

/// Figure 1: fraction of execution time spent on address translation and
/// physical memory allocation, for long- and short-running workloads.
///
/// Long-running workloads are measured in steady state: their footprint is
/// scaled to fit the small-test machine, pre-populated, and the fractions
/// are computed over the measured segment only (see
/// [`crate::runner::steady_state_overheads`]). Cold-start measurement made
/// every long-running row degenerate to translation 0.000 / allocation
/// 1.000 — the first-touch faults of the scaled-down run swamped the
/// steady-state translation behaviour the figure is about.
pub fn fig01_vm_overheads(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 1: VM overheads (fraction of execution time)",
        &["workload", "class", "translation", "allocation"],
    );
    let long: Vec<WorkloadSpec> = catalog::all_long_running()
        .into_iter()
        .map(|spec| {
            spec.scaled_footprint(0.15)
                .with_instructions(budget(20_000, scale))
        })
        .collect();
    let short = catalog::all_short_running()
        .into_iter()
        .map(|spec| spec.with_instructions(budget(15_000, scale)));
    let long_count = long.len();
    let specs: Vec<WorkloadSpec> = long.into_iter().chain(short).collect();
    let fractions = par_map(jobs, specs.len(), |i| {
        if i < long_count {
            steady_state_overheads(SystemConfig::small_test(), &specs[i], 1)
        } else {
            let r = run_spec(&specs[i], 1);
            (r.translation_time_fraction(), r.allocation_time_fraction())
        }
    });
    // Per class: the translation and allocation fractions the GMEAN rows
    // average.
    let mut means = [(Vec::new(), Vec::new()), (Vec::new(), Vec::new())];
    for (i, (spec, (translation, allocation))) in specs.iter().zip(fractions).enumerate() {
        let class = usize::from(i >= long_count);
        means[class].0.push(translation.max(1e-6));
        means[class].1.push(allocation.max(1e-6));
        table.push_row(vec![
            spec.name.clone(),
            ["long", "short"][class].into(),
            fmt(translation),
            fmt(allocation),
        ]);
    }
    let gmeans = [("GMEAN-long", "long"), ("GMEAN-short", "short")];
    for ((label, class), (translation, allocation)) in gmeans.into_iter().zip(&means) {
        table.push_row(vec![
            label.into(),
            class.into(),
            fmt(geometric_mean(translation)),
            fmt(geometric_mean(allocation)),
        ]);
    }
    table
}

/// Fig. 2's machine: the small-test system with THP on or off.
fn fig02_config(thp: bool) -> SystemConfig {
    let mut config = SystemConfig::small_test();
    config.os.thp = if thp {
        ThpConfig::linux_default()
    } else {
        ThpConfig::disabled()
    };
    config
}

/// Fig. 2's workloads: the first six short-running specs, each run at seed 2.
fn fig02_specs(scale: u64) -> impl Iterator<Item = WorkloadSpec> {
    catalog::all_short_running()
        .into_iter()
        .take(6)
        .map(move |spec| spec.with_instructions(budget(15_000, scale)))
}

/// Figure 2: minor page-fault latency distribution with THP enabled vs
/// disabled, including the outlier contribution to total fault latency.
/// It reads MimicOS's minor-fault recorder, so major faults (the
/// file-backed specs' page-cache misses) stay out of it.
pub fn fig02_mpf_distribution(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 2: minor page-fault latency, THP enabled vs disabled",
        &[
            "config",
            "faults",
            "p25 ns",
            "median ns",
            "p75 ns",
            "max ns",
            "outlier share >10us",
        ],
    );
    let configs = [("THP-enabled", true), ("THP-disabled", false)];
    let specs: Vec<WorkloadSpec> = fig02_specs(scale).collect();
    let recorders = par_map(jobs, configs.len() * specs.len(), |i| {
        let (thp, spec) = (configs[i / specs.len()].1, &specs[i % specs.len()]);
        let mut system = system_for(fig02_config(thp), spec);
        system.run(&mut spec.build(2), None);
        system.os().stats().minor_fault_latency_ns.clone()
    });
    for ((label, _), runs) in configs.into_iter().zip(recorders.chunks(specs.len())) {
        let mut minor = LatencyStats::new();
        for run in runs {
            minor.merge(run);
        }
        let p = minor.percentiles();
        table.push_row(vec![
            label.into(),
            minor.count().to_string(),
            fmt(p.p25),
            fmt(p.p50),
            fmt(p.p75),
            fmt(p.max),
            fmt(minor.outlier_contribution(10_000.0)),
        ]);
    }
    table
}

/// Figure 3: average page-table-walk latency across workloads of varying
/// memory intensity.
pub fn fig03_ptw_variation(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 3: average PTW latency across memory-intensity levels",
        &["workload", "avg PTW (cycles)", "L2 TLB MPKI"],
    );
    let cells: Vec<Cell> = catalog::stress_sweep(12)
        .into_iter()
        .map(|spec| spec.with_instructions(budget(15_000, scale)))
        .chain([catalog::graphbig_sssp().with_instructions(budget(20_000, scale))])
        .map(|spec| (SystemConfig::small_test(), spec, 3))
        .collect();
    for ((_, spec, _), r) in cells.iter().zip(run_all(jobs, &cells)) {
        table.push_row(vec![
            spec.name.clone(),
            fmt(r.avg_ptw_latency_cycles),
            fmt(r.l2_tlb_mpki),
        ]);
    }
    table
}

/// Figure 8: IPC agreement with the detailed model at seed 100. There is
/// no hardware reference (see `docs/ARCHITECTURE.md`, "Substitutions"):
/// the reference is the detailed simulator itself, so scores against it
/// measure agreement, not accuracy. The first column scores the detailed
/// model at seed 7 (seed-to-seed agreement); the second scores the
/// emulation baseline at seed 7 (emulation-vs-detailed agreement).
pub fn fig08_ipc_accuracy(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 8: IPC agreement with the detailed model at seed 100 (no hardware reference)",
        &[
            "workload",
            "seed-to-seed agree %",
            "emulation-vs-detailed agree %",
        ],
    );
    // Three cells per workload: the reference, then the two runs scored
    // against it.
    let cells: Vec<Cell> = catalog::all_long_running()
        .into_iter()
        .flat_map(|spec| {
            let spec = spec.with_instructions(budget(20_000, scale));
            let emulation = SystemConfig::small_test().with_emulation_baseline();
            [
                (SystemConfig::small_test(), spec.clone(), 100),
                (SystemConfig::small_test(), spec.clone(), 7),
                (emulation, spec, 7),
            ]
        })
        .collect();
    let mut v_acc = Vec::new();
    let mut b_acc = Vec::new();
    for (cell, runs) in cells.chunks(3).zip(run_all(jobs, &cells).chunks(3)) {
        let name = &cell[0].1.name;
        let reference = ReferenceMachine::new(
            name,
            runs[0].app_ipc,
            runs[0].l2_tlb_mpki,
            runs[0].avg_ptw_latency_cycles,
        );
        let va = reference.ipc_accuracy_percent(runs[1].app_ipc);
        let ba = reference.ipc_accuracy_percent(runs[2].app_ipc);
        v_acc.push(va.max(1e-3));
        b_acc.push(ba.max(1e-3));
        table.push_row(vec![name.clone(), fmt(va), fmt(ba)]);
    }
    table.push_row(vec![
        "GMEAN".into(),
        fmt(geometric_mean(&v_acc)),
        fmt(geometric_mean(&b_acc)),
    ]);
    table
}

/// The cells of a seed-to-seed comparison: each spec at the reference
/// seed 100, then at `seed`, on the small-test machine.
fn against_seed_100(specs: Vec<WorkloadSpec>, base: u64, scale: u64, seed: u64) -> Vec<Cell> {
    specs
        .into_iter()
        .flat_map(|spec| {
            let spec = spec.with_instructions(budget(base, scale));
            [
                (SystemConfig::small_test(), spec.clone(), 100),
                (SystemConfig::small_test(), spec, seed),
            ]
        })
        .collect()
}

/// Figure 9: cosine similarity between the page-fault latency
/// distributions of the detailed model at seed 9 and at seed 100, for
/// short-running workloads. Like Figs. 8 and 10 this is seed-to-seed
/// agreement: the "reference" is the detailed model itself, not a real
/// machine. The vectors compared are the two runs' counts per latency
/// value, aligned on the union of their values, so the score does not
/// depend on which fault came first.
pub fn fig09_pf_cosine(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 9: page-fault latency distribution cosine similarity",
        &["workload", "cosine similarity"],
    );
    let cells = against_seed_100(catalog::all_short_running(), 15_000, scale, 9);
    let mut sims = Vec::new();
    for (cell, runs) in cells.chunks(2).zip(run_all(jobs, &cells).chunks(2)) {
        let (reference, estimate) = (&runs[0], &runs[1]);
        let sim = latency_distribution_similarity(
            &estimate.fault_latency_ns,
            &reference.fault_latency_ns,
        );
        sims.push(sim.max(1e-3));
        table.push_row(vec![cell[0].1.name.clone(), fmt(sim)]);
    }
    table.push_row(vec!["GMEAN".into(), fmt(geometric_mean(&sims))]);
    table
}

/// Figure 10: L2 TLB MPKI and PTW latency of the detailed model at seed
/// 11 against the detailed model at seed 100. The agreement columns are
/// seed-to-seed agreement, not accuracy against a real machine.
pub fn fig10_mmu_validation(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 10: MMU seed-to-seed agreement (L2 TLB MPKI and PTW latency, seed 11 vs 100)",
        &[
            "workload",
            "MPKI",
            "seed-100 MPKI",
            "MPKI seed agree %",
            "PTW cyc",
            "seed-100 PTW cyc",
            "PTW seed agree %",
        ],
    );
    let cells = against_seed_100(catalog::all_long_running(), 20_000, scale, 11);
    for (cell, runs) in cells.chunks(2).zip(run_all(jobs, &cells).chunks(2)) {
        let (reference, estimate) = (&runs[0], &runs[1]);
        table.push_row(vec![
            cell[0].1.name.clone(),
            fmt(estimate.l2_tlb_mpki),
            fmt(reference.l2_tlb_mpki),
            fmt(accuracy_percent(
                estimate.l2_tlb_mpki,
                reference.l2_tlb_mpki,
            )),
            fmt(estimate.avg_ptw_latency_cycles),
            fmt(reference.avg_ptw_latency_cycles),
            fmt(accuracy_percent(
                estimate.avg_ptw_latency_cycles,
                reference.avg_ptw_latency_cycles,
            )),
        ]);
    }
    table
}

/// Timed runs per cell of Figs. 11 and 12: each cell reports the median,
/// and its spread is the interquartile range of the runs.
const TIMED_RUNS: usize = 5;

/// Wall-clock milliseconds of one call of `run`.
fn timed_ms<R>(run: impl FnOnce() -> R) -> f64 {
    let start = std::time::Instant::now();
    let _ = run();
    start.elapsed().as_secs_f64() * 1000.0
}

/// The median and the interquartile range (second to fourth of five
/// sorted values) of `TIMED_RUNS` samples.
fn median_and_iqr(mut samples: [f64; TIMED_RUNS]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (samples[2], samples[3] - samples[1])
}

/// Figure 11: simulation-time overhead of the detailed (MimicOS) mode over
/// the emulation mode, measured as wall-clock time of this host. Each of
/// the `TIMED_RUNS` repetitions times both modes back to back, in
/// alternating order; the table gives the median of each mode and of the
/// per-repetition overheads, with the overheads' interquartile range in
/// points as the spread.
///
/// It runs serially and ignores `jobs`: a cell sharing the host with
/// another would time the contention, not the simulator.
pub fn fig11_sim_overhead(scale: u64, _jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 11: simulation-time overhead of MimicOS integration",
        &[
            "workload",
            "emulation ms",
            "detailed ms",
            "overhead %",
            "spread %",
        ],
    );
    for spec in [
        catalog::gups_randacc(),
        catalog::graphbig_bfs(),
        catalog::faas_json(),
    ] {
        let budgeted = spec.with_instructions(budget(40_000, scale));
        let emulation = || {
            let config = SystemConfig::small_test().with_emulation_baseline();
            timed_ms(|| run_spec_with_config(config, &budgeted, 13))
        };
        let detailed = || timed_ms(|| run_spec(&budgeted, 13));
        let (mut emulation_ms, mut detailed_ms, mut overhead) =
            ([0.0; TIMED_RUNS], [0.0; TIMED_RUNS], [0.0; TIMED_RUNS]);
        for rep in 0..TIMED_RUNS {
            let (e, d) = if rep % 2 == 0 {
                let e = emulation();
                (e, detailed())
            } else {
                let d = detailed();
                (emulation(), d)
            };
            emulation_ms[rep] = e;
            detailed_ms[rep] = d;
            overhead[rep] = (d / e - 1.0) * 100.0;
        }
        let (overhead, spread) = median_and_iqr(overhead);
        table.push_row(vec![
            budgeted.name.clone(),
            fmt(median_and_iqr(emulation_ms).0),
            fmt(median_and_iqr(detailed_ms).0),
            fmt(overhead),
            fmt(spread),
        ]);
    }
    table
}

/// Figure 12: correlation between the fraction of instructions executed by
/// MimicOS and the simulation-time overhead. An untimed first run of each
/// row gives its kernel fraction; the row's time is the median of the
/// `TIMED_RUNS` runs after it, normalized to the first row's, and its
/// spread is their interquartile range as a percentage of their median.
///
/// Like Fig. 11 it times the host per cell, so it runs serially and
/// ignores `jobs`.
pub fn fig12_overhead_correlation(scale: u64, _jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 12: kernel-instruction fraction vs simulation time",
        &[
            "new-page fraction",
            "kernel instr fraction",
            "normalized sim time",
            "spread %",
        ],
    );
    let mut baseline_ms = None;
    for step in 0..6u32 {
        let new_page_fraction = 0.02 + 0.18 * step as f64;
        let spec = WorkloadSpec::simple(
            &format!("kfrac-{step}"),
            vm_workloads::WorkloadClass::ShortRunning,
            96 * 1024 * 1024,
            vm_workloads::AccessPattern::AllocateAndTouch { new_page_fraction },
            budget(30_000, scale),
        );
        let r = run_spec(&spec, 17);
        let (ms, iqr) = median_and_iqr(std::array::from_fn(|_| timed_ms(|| run_spec(&spec, 17))));
        let base = *baseline_ms.get_or_insert(ms);
        let kernel_fraction =
            r.kernel_instructions as f64 / (r.instructions + r.kernel_instructions).max(1) as f64;
        table.push_row(vec![
            fmt(new_page_fraction),
            fmt(kernel_fraction),
            fmt(ms / base),
            fmt(iqr / ms * 100.0),
        ]);
    }
    table
}

fn fragmented_config(kind: PageTableKind, free_fraction: f64) -> SystemConfig {
    let mut config = pt_config(kind);
    config.os.fragmentation_target = Some(free_fraction);
    config
}

/// Figure 13: reduction in total PTW latency achieved by the hash-based
/// page tables over Radix, across memory-fragmentation levels.
pub fn fig13_ptw_reduction(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 13: PTW latency reduction over Radix vs fragmentation",
        &["free 2MB fraction", "ECH %", "HDC %", "HT %"],
    );
    let spec = catalog::graphbig_sssp().with_instructions(budget(20_000, scale));
    let frees = [1.0, 0.96, 0.92];
    // One cell per (fragmentation level × page table), radix first.
    let cells: Vec<Cell> = frees
        .into_iter()
        .flat_map(|free| {
            PageTableKind::ALL.map(|kind| (fragmented_config(kind, free), spec.clone(), 19))
        })
        .collect();
    let reports = run_all(jobs, &cells);
    for (free, runs) in frees
        .into_iter()
        .zip(reports.chunks(PageTableKind::ALL.len()))
    {
        let radix = runs[0].total_ptw_latency_cycles;
        let mut row = vec![fmt(free)];
        row.extend(
            runs[1..]
                .iter()
                .map(|r| fmt(reduction_percent(r.total_ptw_latency_cycles, radix))),
        );
        table.push_row(row);
    }
    table
}

/// One cell per (spec × page table), radix first, on the small-test
/// machine at `seed`.
fn page_table_cells(specs: &[WorkloadSpec], seed: u64) -> Vec<Cell> {
    specs
        .iter()
        .flat_map(|spec| PageTableKind::ALL.map(|kind| (pt_config(kind), spec.clone(), seed)))
        .collect()
}

/// Figure 14: DRAM row-buffer conflicts of the hash-based page tables,
/// normalized to Radix.
pub fn fig14_rowbuffer_conflicts(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 14: DRAM row-buffer conflicts normalized to Radix",
        &["workload", "ECH", "HDC", "HT"],
    );
    let specs: Vec<WorkloadSpec> = catalog::all_long_running()
        .into_iter()
        .take(5)
        .map(|spec| spec.with_instructions(budget(15_000, scale)))
        .collect();
    let reports = run_all(jobs, &page_table_cells(&specs, 23));
    let mut per_kind = [Vec::new(), Vec::new(), Vec::new()];
    for (spec, runs) in specs.iter().zip(reports.chunks(PageTableKind::ALL.len())) {
        let radix = runs[0].dram_row_conflicts.max(1) as f64;
        let mut row = vec![spec.name.clone()];
        for (i, r) in runs[1..].iter().enumerate() {
            let norm = r.dram_row_conflicts as f64 / radix;
            per_kind[i].push(norm.max(1e-3));
            row.push(fmt(norm));
        }
        table.push_row(row);
    }
    let mut gmean = vec!["GMEAN".to_string()];
    gmean.extend(per_kind.iter().map(|norms| fmt(geometric_mean(norms))));
    table.push_row(gmean);
    table
}

/// Figure 15: reduction in total minor-page-fault latency achieved by the
/// hash-based page tables over Radix.
pub fn fig15_mpf_reduction(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 15: minor-fault latency reduction over Radix",
        &["workload", "ECH %", "HDC %", "HT %"],
    );
    let specs = [
        catalog::graphbig_bfs(),
        catalog::gups_randacc(),
        catalog::graphbig_tc(),
    ]
    .map(|spec| spec.with_instructions(budget(15_000, scale)));
    let reports = run_all(jobs, &page_table_cells(&specs, 29));
    for (spec, runs) in specs.iter().zip(reports.chunks(PageTableKind::ALL.len())) {
        let radix = runs[0].total_fault_ns;
        let mut row = vec![spec.name.clone()];
        row.extend(
            runs[1..]
                .iter()
                .map(|r| fmt(reduction_percent(r.total_fault_ns, radix))),
        );
        table.push_row(row);
    }
    table
}

/// Figure 16: page-fault latency distribution of seven allocation policies
/// on the LLM-inference workloads.
pub fn fig16_llm_alloc_policies(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 16: LLM page-fault latency by allocation policy",
        &[
            "workload",
            "policy",
            "median ns",
            "p99 ns",
            "max ns",
            "total us",
        ],
    );
    let policies = [
        AllocationPolicy::BuddyFourK,
        AllocationPolicy::ConservativeReservationThp,
        AllocationPolicy::AggressiveReservationThp,
        AllocationPolicy::Utopia(mimic_os::UtopiaConfig::new(
            4 * 1024 * 1024,
            8,
            PageSize::Size4K,
        )),
        AllocationPolicy::utopia_32mb_16way(),
        AllocationPolicy::Utopia(mimic_os::UtopiaConfig::new(
            128 * 1024 * 1024,
            16,
            PageSize::Size4K,
        )),
        AllocationPolicy::LinuxThp,
    ];
    let cells: Vec<Cell> = catalog::llm_workloads()
        .into_iter()
        .flat_map(|spec| {
            let budgeted = spec.with_instructions(budget(20_000, scale));
            policies.map(|policy| {
                let config = SystemConfig::small_test().with_allocation_policy(policy);
                (config, budgeted.clone(), 31)
            })
        })
        .collect();
    for ((config, spec, _), r) in cells.iter().zip(run_all(jobs, &cells)) {
        let p = r.fault_latency_percentiles();
        table.push_row(vec![
            spec.name.clone(),
            config.os.policy.label(),
            fmt(p.p50),
            fmt(p.p99),
            fmt(p.max),
            fmt(r.total_fault_ns / 1000.0),
        ]);
    }
    table
}

/// Figure 17: breakdown of Midgard translation latency into frontend and
/// backend components — measured end to end. Every workload runs through
/// the *full* `System` (MimicOS faults, caches, DRAM, reporting) with the
/// Midgard translation engine selected; the breakdown comes out of the
/// report's per-engine stats section, not a bespoke translation loop.
/// Footprints are scaled to fit the small-test machine (the VMA structure
/// — what the VLBs cache — is preserved by per-region scaling).
pub fn fig17_midgard_breakdown(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 17: Midgard translation latency breakdown (end-to-end)",
        &[
            "workload",
            "frontend %",
            "backend %",
            "L2 VLB hit %",
            "backend walks",
        ],
    );
    let cells: Vec<Cell> = catalog::all_long_running()
        .into_iter()
        .map(|spec| {
            let budgeted = spec
                .scaled_footprint(0.15)
                .with_instructions(budget(20_000, scale));
            let config = SystemConfig::small_test().with_design(Design::Midgard);
            (config, budgeted, 37)
        })
        .collect();
    for ((_, spec, _), r) in cells.iter().zip(run_all(jobs, &cells)) {
        let Some(EngineReport::Midgard {
            frontend_fraction,
            l2_vlb_hit_ratio,
            backend_walks,
            ..
        }) = r.engine
        else {
            unreachable!("the midgard engine reports midgard stats");
        };
        let frontend = frontend_fraction * 100.0;
        table.push_row(vec![
            spec.name.clone(),
            fmt(frontend),
            fmt(100.0 - frontend),
            fmt(l2_vlb_hit_ratio * 100.0),
            backend_walks.to_string(),
        ]);
    }
    table
}

/// Figure 18: histogram of VMA sizes in the BC workload. It reads the
/// catalogue's regions and runs no machine, so `scale` and `jobs` do not
/// apply.
pub fn fig18_vma_histogram(_scale: u64, _jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 18: number of VMAs of each size in BC",
        &["bucket", "count"],
    );
    let bc = catalog::graphbig_bc();
    let mut tree = mimic_os::VmaTree::new();
    for region in &bc.regions {
        tree.insert(mimic_os::Vma::anonymous(region.start, region.bytes))
            .expect("catalogue regions do not overlap");
    }
    let hist = tree.size_histogram();
    let labels = [
        "<=4KB", "<128KB", "<256KB", "<512KB", "<1MB", "<8MB", "<16MB", "<32MB", "<1GB", ">=1GB",
    ];
    for (label, count) in labels.iter().zip(hist.bucket_counts()) {
        table.push_row(vec![(*label).into(), count.to_string()]);
    }
    table
}

/// Figure 19: increase in address-translation metadata traffic as the
/// Utopia RestSeg grows — measured end to end. The kernel runs the Utopia
/// allocation policy (RestSeg placement happens on real faults), the
/// Utopia translation engine pays the RSW lookups on real TLB misses, and
/// the tag-array fetches traverse the simulated cache hierarchy. RestSeg
/// sizes are scaled to the small-test machine (the paper's 8→64 GB sweep
/// becomes 32→128 MB of the 256 MB machine, preserving the
/// metadata-footprint-vs-cache-reach effect the figure is about).
pub fn fig19_restseg_size(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 19: Utopia translation overhead vs RestSeg size (end-to-end)",
        &[
            "RestSeg MB",
            "RSW fetches",
            "restseg hits",
            "increase % over smallest",
        ],
    );
    let spec = catalog::gups_randacc()
        .scaled_footprint(0.125)
        .with_instructions(budget(30_000, scale));
    let sizes_mb = [32u64, 64, 96, 128];
    let cells: Vec<Cell> = sizes_mb
        .iter()
        .map(|mb| {
            let restseg = mimic_os::UtopiaConfig::new(mb << 20, 16, PageSize::Size4K);
            let config = SystemConfig::small_test().with_design(Design::Utopia(restseg));
            (config, spec.clone(), 41)
        })
        .collect();
    let mut baseline = None;
    for (mb, r) in sizes_mb.into_iter().zip(run_all(jobs, &cells)) {
        let Some(EngineReport::Utopia {
            rsw_fetches,
            restseg_hits,
            ..
        }) = r.engine
        else {
            unreachable!("the utopia engine reports utopia stats");
        };
        let base = *baseline.get_or_insert(rsw_fetches.max(1));
        table.push_row(vec![
            mb.to_string(),
            rsw_fetches.to_string(),
            restseg_hits.to_string(),
            fmt((rsw_fetches as f64 / base as f64 - 1.0) * 100.0),
        ]);
    }
    table
}

/// Figure 20: time spent swapping as the restrictive segment covers a
/// growing fraction of main memory.
pub fn fig20_swap_activity(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 20: swapping time vs restrictive-segment coverage",
        &["coverage %", "swap I/O us", "normalized to radix"],
    );
    let footprint: u64 = 120 * 1024 * 1024;
    let memory: u64 = 128 * 1024 * 1024;
    // Enough instructions that the uniform-random walk touches (nearly)
    // the whole footprint: the paper's effect is that the buddy machine
    // holds the resident set with modest threshold reclaim, while
    // Utopia's RestSeg carve-out squeezes the FlexSeg until collision
    // spills exhaust it and force swap — growing with RestSeg coverage.
    // (The previous 96 MiB / 25 k-instruction calibration never built
    // enough pressure to swap at all, so every row printed 0; it also
    // panicked on the unaligned 70 % carve-out.) The sweep starts where
    // the FlexSeg squeeze bites on this scaled machine; past ~85 %
    // coverage the swap time plateaus — the FlexSeg is already in full
    // thrash and the RestSeg absorbs a growing share of the footprint.
    let spec = WorkloadSpec::simple(
        "swap-study",
        vm_workloads::WorkloadClass::LongRunning,
        footprint,
        vm_workloads::AccessPattern::UniformRandom,
        budget(250_000, scale),
    );
    let base_os = OsConfig {
        memory_bytes: memory,
        swap_bytes: 256 * 1024 * 1024,
        swap_threshold: 0.9,
        thp: ThpConfig {
            mode: ThpMode::Never,
            ..ThpConfig::linux_default()
        },
        fragmentation_target: None,
        populate_page_cache: false,
        ..OsConfig::small_test()
    };
    let with_policy = |policy| {
        let mut config = SystemConfig::small_test();
        config.os = OsConfig {
            policy,
            ..base_os.clone()
        };
        (config, spec.clone(), 43)
    };
    let coverages = [80u64, 85, 90];
    // The radix (buddy-only) baseline, then one Utopia cell per coverage.
    let cells: Vec<Cell> = [AllocationPolicy::BuddyFourK]
        .into_iter()
        .chain(coverages.iter().map(|coverage| {
            // Align the RestSeg carve-out so the FlexSeg remainder stays a
            // whole number of 4 KiB frames (70 % of 128 MiB is not).
            let restseg = (memory * coverage / 100) & !4095;
            AllocationPolicy::Utopia(mimic_os::UtopiaConfig::new(restseg, 4, PageSize::Size4K))
        }))
        .map(with_policy)
        .collect();
    let reports = run_all(jobs, &cells);
    let radix_io = reports[0].swap_io_ns.max(1.0);
    for (coverage, r) in coverages.into_iter().zip(&reports[1..]) {
        table.push_row(vec![
            coverage.to_string(),
            fmt(r.swap_io_ns / 1000.0),
            fmt(r.swap_io_ns / radix_io),
        ]);
    }
    table
}

/// Figure 21: reduction in translation-metadata DRAM row-buffer conflicts
/// achieved by RMM over Radix, across fragmentation levels — both sides
/// measured end to end on the same `System` path. The radix side walks its
/// page table through the memory hierarchy; the RMM side runs the range
/// engine over eager-paging ranges, so only range-table walks (and the
/// rare uncovered fallbacks) generate translation-metadata DRAM traffic.
pub fn fig21_rmm_conflicts(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 21: translation-metadata DRAM conflicts, RMM vs Radix (end-to-end)",
        &[
            "workload",
            "free 2MB fraction",
            "radix conflicts",
            "rmm conflicts",
            "range coverage %",
            "reduction %",
        ],
    );
    let points: Vec<(WorkloadSpec, f64)> = [catalog::graphbig_bfs(), catalog::gups_randacc()]
        .into_iter()
        .flat_map(|spec| {
            let budgeted = spec
                .scaled_footprint(0.15)
                .with_instructions(budget(15_000, scale));
            [0.94, 0.6].map(|free| (budgeted.clone(), free))
        })
        .collect();
    // Two cells per point on the same machine and fragmentation: the
    // conventional radix engine, counting PT-walker DRAM row-buffer
    // conflicts, then the range engine + eager paging (ranges come from
    // the kernel's eager allocator).
    let cells: Vec<Cell> = points
        .iter()
        .flat_map(|(spec, free)| {
            let radix = fragmented_config(PageTableKind::Radix, *free);
            let rmm = radix.clone().with_design(Design::Rmm);
            [(radix, spec.clone(), 47), (rmm, spec.clone(), 47)]
        })
        .collect();
    for ((spec, free), runs) in points.iter().zip(run_all(jobs, &cells).chunks(2)) {
        let (radix, rmm) = (&runs[0], &runs[1]);
        let Some(EngineReport::Rmm { range_coverage, .. }) = rmm.engine else {
            unreachable!("the rmm engine reports rmm stats");
        };
        table.push_row(vec![
            spec.name.clone(),
            fmt(*free),
            radix.dram_translation_conflicts.to_string(),
            rmm.dram_translation_conflicts.to_string(),
            fmt(range_coverage * 100.0),
            fmt(reduction_percent(
                rmm.dram_translation_conflicts as f64,
                radix.dram_translation_conflicts as f64,
            )),
        ]);
    }
    table
}

/// Multi-process interference study (scenario-diversity extension): the
/// GUPS + Llama mix runs interleaved under the MimicOS round-robin
/// scheduler, once with ASID-tagged TLBs and once with the full-flush
/// baseline of an ASID-less machine. One row per (mode × process), plus the
/// context-switch and flush counts that explain the difference.
pub fn multiprogram_interference(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Multi-process: ASID-tagged TLBs vs full flush on context switch",
        &[
            "mix",
            "mode",
            "workload",
            "instrs",
            "ipc",
            "walks",
            "tlb_miss%",
            "min_flt",
            "ctx_switches",
            "flushed_entries",
        ],
    );
    let budgeted = |mix: Vec<WorkloadSpec>| -> Vec<WorkloadSpec> {
        mix.into_iter()
            .map(|s| {
                let instructions = budget(s.instructions / 10, scale);
                s.with_instructions(instructions)
            })
            .collect()
    };
    // One cell per (mix, mode): its machine and its processes' specs.
    let mut cells: Vec<(&str, &str, SystemConfig, Vec<WorkloadSpec>)> = Vec::new();
    // The TLB-resident mix leads the table: working sets sized to stay
    // resident in the paper-baseline TLB hierarchy show the full
    // interference effect (ASID tags keep both processes' entries warm
    // across switches; the full-flush baseline re-walks its whole working
    // set every quantum). The scaled GUPS+Llama mix follows for
    // continuity with the earlier experiments — its aggressor overflows
    // the small-test TLB on its own, so the flush penalty is muted there.
    let mixes: [(&str, Vec<WorkloadSpec>, bool); 2] = [
        ("resident", catalog::multiprogram_mix_resident(), true),
        ("scaled", catalog::multiprogram_mix(), false),
    ];
    for (mix_label, mix, tlb_resident) in mixes {
        for (label, asid_tags) in [("asid", true), ("full-flush", false)] {
            let mut config = SystemConfig::small_test();
            config.mmu.asid_tlb_tags = asid_tags;
            if tlb_resident {
                // The resident scenario is about TLB reach: give the
                // machine the paper-baseline TLB hierarchy and keep the
                // mappings at 4 KiB (THP collapse would shrink each
                // working set to a single 2 MiB entry and hide the
                // refill cost being measured).
                config.mmu.tlb = mmu_sim::TlbHierarchyConfig::paper_baseline();
                config.os.thp = ThpConfig::disabled();
                config.os.policy = AllocationPolicy::BuddyFourK;
                // Short timeslices: many context switches per run, so the
                // steady-state flush/refill behaviour dominates the cold
                // first-touch walks even at the quick scale.
                config.os.sched_quantum = 500;
            }
            cells.push((mix_label, label, config, budgeted(mix.clone())));
        }
    }
    // Scenario diversity: the same kind of interference mix under the
    // alternative translation engines — the unified `System` path means the
    // scheduler, context switches, faults and caches all participate no
    // matter which engine translates. One row per (engine × process).
    let utopia = Design::Utopia(mimic_os::UtopiaConfig::new(64 << 20, 16, PageSize::Size4K));
    for design in [Design::Midgard, utopia] {
        let config = SystemConfig::small_test().with_design(design);
        let specs = budgeted(catalog::multiprogram_mix_engines());
        cells.push(("engines", design.label(), config, specs));
    }
    let reports = par_map(jobs, cells.len(), |i| {
        let (_, _, config, specs) = &cells[i];
        run_multiprogram_specs(config.clone(), specs, 7)
    });
    for ((mix_label, label, _, _), report) in cells.iter().zip(&reports) {
        for p in &report.processes {
            table.push_row(vec![
                (*mix_label).into(),
                (*label).into(),
                p.workload.clone(),
                p.instructions.to_string(),
                fmt(p.ipc),
                p.page_walks.to_string(),
                fmt(100.0 * p.tlb_miss_ratio()),
                p.minor_faults.to_string(),
                report.context_switches.to_string(),
                report.switch_flushed_tlb_entries.to_string(),
            ]);
        }
    }
    table
}

/// A (workload × page-table design) sweep whose cells take their seeds
/// from their positions ([`cell_seed`] under base seed 11) rather than
/// from fixed per-figure seeds.
pub fn pt_sweep(scale: u64, jobs: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Parallel sweep: page-table designs x workloads",
        &["cell", "ipc", "walks", "avg_ptw_cycles", "minor_faults"],
    );
    let mut cells = Vec::new();
    for spec in catalog::all_long_running().into_iter().take(4) {
        let spec = spec
            .scaled_footprint(0.1)
            .with_instructions(budget(10_000, scale));
        for kind in PageTableKind::ALL {
            cells.push((
                format!("{}/{kind}", spec.name),
                pt_config(kind),
                spec.clone(),
            ));
        }
    }
    let reports = par_map(jobs, cells.len(), |i| {
        let (_, config, spec) = &cells[i];
        run_spec_with_config(config.clone(), spec, cell_seed(11, i))
    });
    for ((label, _, _), report) in cells.iter().zip(&reports) {
        table.push_row(vec![
            label.clone(),
            fmt(report.ipc),
            report.page_walks.to_string(),
            format!("{:.2}", report.avg_ptw_latency_cycles),
            report.minor_faults.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig18_reports_the_bc_profile() {
        let table = fig18_vma_histogram(1, 1);
        assert_eq!(table.rows.len(), 10);
        let total: u64 = table
            .rows
            .iter()
            .map(|r| r[1].parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 148);
    }

    #[test]
    fn fig02_produces_two_configurations() {
        let table = fig02_mpf_distribution(1, 2);
        assert_eq!(table.rows.len(), 2);
        // The `faults` column counts minor faults only, hugetlbfs ones
        // included, as the reports' `minor_faults` does.
        for (row, thp) in table.rows.iter().zip([true, false]) {
            let minor: u64 = fig02_specs(1)
                .map(|spec| run_spec_with_config(fig02_config(thp), &spec, 2).minor_faults)
                .sum();
            assert_eq!(row[1], minor.to_string(), "{}", row[0]);
        }
    }

    #[test]
    fn fig13_rows_cover_three_fragmentation_levels() {
        let table = fig13_ptw_reduction(1, 2);
        assert_eq!(table.rows.len(), 3);
    }

    #[test]
    fn fig19_overhead_grows_with_restseg_size() {
        let table = fig19_restseg_size(1, 2);
        let first: f64 = table.rows[0][1].parse().unwrap();
        let last: f64 = table.rows.last().unwrap()[1].parse().unwrap();
        assert!(last >= first);
    }

    #[test]
    fn multiprogram_interference_shows_the_asid_benefit() {
        let table = multiprogram_interference(1, 2);
        assert_eq!(
            table.rows.len(),
            12,
            "2 mixes x 2 modes x 2 processes + 2 engines x 2 processes"
        );
        // The engine rows run the interference mix under Midgard and Utopia
        // through the same unified path (scheduler + faults included).
        for engine in ["Midgard", "Utopia"] {
            let rows: Vec<_> = table
                .rows
                .iter()
                .filter(|r| r[0] == "engines" && r[1] == engine)
                .collect();
            assert_eq!(rows.len(), 2, "{engine}: one row per process");
            for row in rows {
                assert!(
                    row[7].parse::<u64>().unwrap() > 0,
                    "{engine}: faults must flow through MimicOS"
                );
            }
        }
        // The TLB-resident mix is the headline: it comes first.
        assert_eq!(table.rows[0][0], "resident");
        let walks_of = |mix: &str, mode: &str| -> u64 {
            table
                .rows
                .iter()
                .filter(|r| r[0] == mix && r[1] == mode)
                .map(|r| r[5].parse::<u64>().unwrap())
                .sum()
        };
        let flushed_of = |mix: &str, mode: &str| -> u64 {
            table
                .rows
                .iter()
                .find(|r| r[0] == mix && r[1] == mode)
                .unwrap()[9]
                .parse()
                .unwrap()
        };
        for mix in ["resident", "scaled"] {
            assert_eq!(flushed_of(mix, "asid"), 0);
            assert!(flushed_of(mix, "full-flush") > 0);
            assert!(
                walks_of(mix, "asid") < walks_of(mix, "full-flush"),
                "{mix}: ASID tags must save flush-induced page walks"
            );
        }
        // The headline: with TLB-resident working sets the full-flush
        // baseline re-walks the working set every quantum — a large
        // multiple, not a marginal delta.
        let resident_asid = walks_of("resident", "asid").max(1);
        let resident_flush = walks_of("resident", "full-flush");
        assert!(
            resident_flush >= 3 * resident_asid,
            "resident mix must show a large interference effect \
             (asid {resident_asid} vs full-flush {resident_flush})"
        );
    }

    #[test]
    fn parallel_sweep_covers_every_cell() {
        let table = pt_sweep(1, 2);
        assert_eq!(table.rows.len(), 4 * PageTableKind::ALL.len());
    }

    #[test]
    fn figures_have_one_unique_id_per_table() {
        assert_eq!(
            FIGURES.len(),
            19,
            "17 paper figures and two scenario studies"
        );
        for (i, figure) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|f| f.id != figure.id),
                "duplicate id {}",
                figure.id
            );
        }
    }

    #[test]
    fn cheap_figures_render_the_same_at_any_jobs_level() {
        for id in ["fig01", "fig17", "fig21", "pt_sweep"] {
            let figure = FIGURES.iter().find(|f| f.id == id).expect("registered");
            assert_eq!(
                (figure.run)(1, 1).render(),
                (figure.run)(1, 2).render(),
                "{id}: jobs 1 and jobs 2 must print the same table"
            );
        }
    }
}

//! The simulation report: every metric the paper's figures read out, in one
//! serializable structure — plus the per-process breakdown produced by
//! multi-programmed runs.

use mmu_sim::EngineReport;
use serde::{Deserialize, Serialize};
use vm_types::{LatencyStats, Percentiles};

/// Per-core shootdown-IPI activity of a multi-core run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreIpiStats {
    /// Shootdown IPIs this core broadcast as an initiator (one per remote
    /// core per invalidation batch).
    pub ipis_sent: u64,
    /// Shootdown IPIs this core received and processed as a remote.
    pub ipis_received: u64,
    /// Cycles this core stalled servicing remote shootdown IPIs.
    pub ipi_stall_cycles: u64,
}

/// TLB-shootdown activity applied by the framework on behalf of the
/// kernel's invalidation batches (reclaim swap-outs, THP demotions,
/// khugepaged collapses). All counters are zero on a run without memory
/// pressure or collapses, and the whole section is omitted from the
/// serialized report in that case.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShootdownStats {
    /// Invalidation batches applied (one per kernel operation that tore
    /// translations down — the IPI rounds of a real kernel).
    pub batches: u64,
    /// Page translations shot down.
    pub pages: u64,
    /// TLB entries actually dropped across the hierarchy.
    pub tlb_entries_dropped: u64,
    /// Page-walk-cache entries dropped.
    pub pwc_entries_dropped: u64,
    /// Engine-resident translations dropped or rewritten (RMM ranges,
    /// Utopia RestSeg residency and TAR/SF lines).
    pub engine_entries_dropped: u64,
    /// Replacement mappings installed after shootdowns (THP-demotion
    /// survivors, khugepaged collapse results).
    pub replacements_installed: u64,
    /// Per-core IPI traffic, indexed by core id. `None` — and absent from
    /// the serialized JSON, keeping single-core reports byte-identical —
    /// until a multi-core run broadcasts its first shootdown.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub per_core: Option<Vec<CoreIpiStats>>,
}

impl ShootdownStats {
    /// `true` when no shootdown work happened (the section is then omitted
    /// from serialized reports, keeping pressure-free reports identical to
    /// those of builds without the shootdown subsystem).
    pub fn is_zero(&self) -> bool {
        *self == ShootdownStats::default()
    }
}

/// Out-of-memory activity of a run: kills performed by the MimicOS OOM
/// killer and faults that failed outright because no victim was left.
/// The whole section is omitted from serialized reports when the run saw
/// neither a kill nor an OOM failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OomStats {
    /// Processes killed by the OOM killer.
    pub kills: u64,
    /// Bytes of badness scanned across all victim-selection passes.
    pub scanned_bytes: u64,
    /// Resident bytes freed by kills.
    pub freed_bytes: u64,
    /// Allocation attempts that entered the direct-reclaim retry path.
    pub reclaim_retries: u64,
    /// Faults that failed with out-of-memory even after reclaim and the
    /// OOM killer.
    pub oom_failures: u64,
}

/// How a process left a multi-programmed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcessExitStatus {
    /// The process ran its full trace.
    Completed,
    /// The process was killed by the MimicOS OOM killer.
    OomKilled,
    /// The process made at least one access outside any VMA.
    Segfaulted,
}

// Not `#[derive(Default)]`: the vendored serde_derive shim does not parse
// variant-level attributes, so `#[default]` would break the Serialize
// derive on this enum.
#[allow(clippy::derivable_impls)]
impl Default for ProcessExitStatus {
    fn default() -> Self {
        ProcessExitStatus::Completed
    }
}

impl ProcessExitStatus {
    /// `true` for [`ProcessExitStatus::Completed`] (the field is then
    /// omitted from serialized reports).
    pub fn is_completed(&self) -> bool {
        matches!(self, ProcessExitStatus::Completed)
    }
}

/// Skip-serialization predicate for counters that stay zero on healthy
/// runs, keeping their reports byte-identical to earlier formats.
fn u64_is_zero(v: &u64) -> bool {
    *v == 0
}

/// The result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Name of the workload that was run.
    pub workload: String,
    /// Application instructions retired.
    pub instructions: u64,
    /// Kernel (MimicOS) instructions injected and retired.
    pub kernel_instructions: u64,
    /// Total elapsed core cycles.
    pub cycles: u64,
    /// Instructions per cycle including kernel work in the cycle count.
    pub ipc: f64,
    /// Application-only IPC (the metric validated in Fig. 8).
    pub app_ipc: f64,
    /// L2 TLB misses per kilo instruction (Fig. 10, top).
    pub l2_tlb_mpki: f64,
    /// Number of page-table walks performed.
    pub page_walks: u64,
    /// Average page-table walk latency in cycles (Fig. 3 and Fig. 10,
    /// bottom).
    pub avg_ptw_latency_cycles: f64,
    /// Total page-table walk latency in cycles (Fig. 13).
    pub total_ptw_latency_cycles: f64,
    /// Page faults taken, by kind.
    pub minor_faults: u64,
    /// Major faults (device reads).
    pub major_faults: u64,
    /// Swap-in faults.
    pub swap_in_faults: u64,
    /// Per-fault latency distribution in nanoseconds (Figs. 2, 9, 15, 16).
    pub fault_latency_ns: LatencyStats,
    /// Total time spent in the page-fault handler, nanoseconds.
    pub total_fault_ns: f64,
    /// Total time spent on address translation beyond the L1 TLB,
    /// nanoseconds (Fig. 1).
    pub total_translation_ns: f64,
    /// Total wall-clock time of the simulated execution, nanoseconds.
    pub total_time_ns: f64,
    /// DRAM row-buffer conflicts, total (Fig. 14).
    pub dram_row_conflicts: u64,
    /// DRAM row-buffer conflicts caused by translation metadata (Fig. 21).
    pub dram_translation_conflicts: u64,
    /// Pages swapped out during the run and total swap I/O time (Fig. 20).
    pub swapped_pages: u64,
    /// Total nanoseconds spent on swap device I/O (Fig. 20).
    pub swap_io_ns: f64,
    /// 2 MiB (or larger) mappings created by the kernel.
    pub huge_mappings: u64,
    /// 4 KiB mappings created by the kernel.
    pub base_mappings: u64,
    /// Per-engine statistics (Midgard VLB behaviour, RMM range coverage,
    /// Utopia RestSeg hits). `None` — and absent from the serialized JSON,
    /// keeping the page-table-engine reports byte-identical — on the
    /// conventional page-table engine.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub engine: Option<EngineReport>,
    /// TLB-shootdown activity (reclaim / demotion / collapse coherence
    /// work). `None` — and absent from the serialized JSON — when the run
    /// tore no translations down.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shootdowns: Option<ShootdownStats>,
    /// Out-of-memory activity. `None` — and absent from the serialized
    /// JSON — when the run saw neither an OOM kill nor an OOM failure.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub oom: Option<OomStats>,
}

impl SimulationReport {
    /// Fraction of execution time spent on address translation (Fig. 1).
    pub fn translation_time_fraction(&self) -> f64 {
        if self.total_time_ns == 0.0 {
            0.0
        } else {
            self.total_translation_ns / self.total_time_ns
        }
    }

    /// Fraction of execution time spent on physical memory allocation,
    /// i.e. in the page-fault handler (Fig. 1).
    pub fn allocation_time_fraction(&self) -> f64 {
        if self.total_time_ns == 0.0 {
            0.0
        } else {
            self.total_fault_ns / self.total_time_ns
        }
    }

    /// Translation and allocation time fractions of the execution segment
    /// between `earlier` and `self`, where `earlier` is a cumulative report
    /// taken earlier on the *same* system (e.g. after a warm-up phase).
    ///
    /// Long-running workloads are translation-bound only in steady state;
    /// measured from a cold start their one-off first-touch faults swamp
    /// everything else (the `fig01` calibration bug). Subtracting the
    /// warm-up report isolates the steady-state behaviour.
    pub fn fractions_since(&self, earlier: &SimulationReport) -> (f64, f64) {
        let time = self.total_time_ns - earlier.total_time_ns;
        if time <= 0.0 {
            return (0.0, 0.0);
        }
        let translation = (self.total_translation_ns - earlier.total_translation_ns).max(0.0);
        let allocation = (self.total_fault_ns - earlier.total_fault_ns).max(0.0);
        (translation / time, allocation / time)
    }

    /// Percentile summary of the fault latency distribution (Figs. 2, 16).
    pub fn fault_latency_percentiles(&self) -> Percentiles {
        self.fault_latency_ns.percentiles()
    }

    /// Fraction of total minor-fault latency contributed by faults longer
    /// than `threshold_ns` (the outlier-contribution metric of Fig. 2).
    pub fn fault_outlier_contribution(&self, threshold_ns: f64) -> f64 {
        self.fault_latency_ns.outlier_contribution(threshold_ns)
    }

    /// Total fault count.
    pub fn total_faults(&self) -> u64 {
        self.minor_faults + self.major_faults + self.swap_in_faults
    }

    /// Renders the report as aligned `key value` lines for harness output.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let mut push = |k: &str, v: String| {
            s.push_str(&format!("{k:<32} {v}\n"));
        };
        push("workload", self.workload.clone());
        push("instructions", self.instructions.to_string());
        push("kernel_instructions", self.kernel_instructions.to_string());
        push("cycles", self.cycles.to_string());
        push("ipc", format!("{:.4}", self.ipc));
        push("app_ipc", format!("{:.4}", self.app_ipc));
        push("l2_tlb_mpki", format!("{:.3}", self.l2_tlb_mpki));
        push(
            "avg_ptw_latency_cycles",
            format!("{:.2}", self.avg_ptw_latency_cycles),
        );
        push("minor_faults", self.minor_faults.to_string());
        push("major_faults", self.major_faults.to_string());
        push(
            "mean_fault_latency_ns",
            format!("{:.1}", self.fault_latency_ns.mean()),
        );
        push(
            "translation_time_fraction",
            format!("{:.4}", self.translation_time_fraction()),
        );
        push(
            "allocation_time_fraction",
            format!("{:.4}", self.allocation_time_fraction()),
        );
        push("dram_row_conflicts", self.dram_row_conflicts.to_string());
        push(
            "dram_translation_conflicts",
            self.dram_translation_conflicts.to_string(),
        );
        if let Some(shootdowns) = &self.shootdowns {
            push("shootdown_batches", shootdowns.batches.to_string());
            push("shootdown_pages", shootdowns.pages.to_string());
            push(
                "shootdown_tlb_entries_dropped",
                shootdowns.tlb_entries_dropped.to_string(),
            );
            push(
                "shootdown_replacements",
                shootdowns.replacements_installed.to_string(),
            );
            if let Some(per_core) = &shootdowns.per_core {
                for (core, ipi) in per_core.iter().enumerate() {
                    push(&format!("core{core}_ipis_sent"), ipi.ipis_sent.to_string());
                    push(
                        &format!("core{core}_ipis_received"),
                        ipi.ipis_received.to_string(),
                    );
                    push(
                        &format!("core{core}_ipi_stall_cycles"),
                        ipi.ipi_stall_cycles.to_string(),
                    );
                }
            }
        }
        if let Some(oom) = &self.oom {
            push("oom_kills", oom.kills.to_string());
            push("oom_freed_bytes", oom.freed_bytes.to_string());
            push("oom_reclaim_retries", oom.reclaim_retries.to_string());
            push("oom_failures", oom.oom_failures.to_string());
        }
        match &self.engine {
            None => {}
            Some(EngineReport::Midgard {
                frontend_fraction,
                l2_vlb_hit_ratio,
                backend_walks,
                ..
            }) => {
                push("engine", "midgard".into());
                push(
                    "midgard_frontend_fraction",
                    format!("{frontend_fraction:.4}"),
                );
                push("midgard_l2_vlb_hit_ratio", format!("{l2_vlb_hit_ratio:.4}"));
                push("midgard_backend_walks", backend_walks.to_string());
            }
            Some(EngineReport::Rmm {
                range_coverage,
                fallback_translations,
                ..
            }) => {
                push("engine", "rmm".into());
                push("rmm_range_coverage", format!("{range_coverage:.4}"));
                push(
                    "rmm_fallback_translations",
                    fallback_translations.to_string(),
                );
            }
            Some(EngineReport::Utopia {
                restseg_hits,
                rsw_fetches,
                tar_hit_ratio,
                ..
            }) => {
                push("engine", "utopia".into());
                push("utopia_restseg_hits", restseg_hits.to_string());
                push("utopia_rsw_fetches", rsw_fetches.to_string());
                push("utopia_tar_hit_ratio", format!("{tar_hit_ratio:.4}"));
            }
        }
        s
    }
}

/// The slice of a multi-programmed run attributable to one process.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProcessReport {
    /// Raw process identifier (also its ASID).
    pub pid: usize,
    /// Name of the workload the process ran.
    pub workload: String,
    /// Application instructions the process retired.
    pub instructions: u64,
    /// Core cycles elapsed while the process held the core (including the
    /// kernel work done on its behalf).
    pub cycles: u64,
    /// Instructions per cycle over the process's own cycles.
    pub ipc: f64,
    /// Cycles the process spent on address translation beyond the L1 TLB.
    pub translation_cycles: u64,
    /// Page-table walks performed under the process's ASID.
    pub page_walks: u64,
    /// Translation requests issued under the process's ASID.
    pub tlb_translations: u64,
    /// Translation requests satisfied by the TLBs (either level).
    pub tlb_hits: u64,
    /// Average page-table walk latency in cycles.
    pub avg_ptw_latency_cycles: f64,
    /// Minor page faults the process took.
    pub minor_faults: u64,
    /// Major page faults (device reads and swap-ins) the process took.
    pub major_faults: u64,
    /// Faults the process took on read accesses (spurious ones included).
    pub read_faults: u64,
    /// Faults the process took on write accesses (spurious ones included).
    pub write_faults: u64,
    /// Accesses the process made outside any VMA.
    pub segfaults: u64,
    /// Accesses whose faults failed with out-of-memory (reclaim and the
    /// OOM killer together could not free enough memory). Omitted from
    /// serialized reports while zero.
    #[serde(skip_serializing_if = "u64_is_zero")]
    pub oom_failures: u64,
    /// Instructions accounted by the scheduler (cross-check: equals
    /// `instructions`).
    pub scheduled_instructions: u64,
    /// How the process left the run. Omitted from serialized reports when
    /// [`ProcessExitStatus::Completed`], keeping healthy reports
    /// byte-identical to the earlier format.
    #[serde(skip_serializing_if = "ProcessExitStatus::is_completed")]
    pub exit_status: ProcessExitStatus,
}

impl ProcessReport {
    /// TLB miss ratio of the process's translations, in `[0, 1]`.
    pub fn tlb_miss_ratio(&self) -> f64 {
        if self.tlb_translations == 0 {
            0.0
        } else {
            self.page_walks as f64 / self.tlb_translations as f64
        }
    }
}

/// The result of one multi-programmed simulation run: per-process reports
/// rolled up into the machine-wide [`SimulationReport`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MultiProgramReport {
    /// One report per process, in pid order.
    pub processes: Vec<ProcessReport>,
    /// Context switches performed.
    pub context_switches: u64,
    /// TLB entries dropped by context-switch flushes (zero when the TLBs
    /// are ASID-tagged).
    pub switch_flushed_tlb_entries: u64,
    /// The machine-wide rollup across all processes.
    pub rollup: SimulationReport,
}

impl MultiProgramReport {
    /// Renders a per-process table plus the rollup summary.
    pub fn to_table(&self) -> String {
        let mut s = format!(
            "{:>4} {:>12} {:>12} {:>12} {:>7} {:>10} {:>10} {:>9} {:>9}\n",
            "pid",
            "workload",
            "instrs",
            "cycles",
            "ipc",
            "walks",
            "tlb_miss%",
            "min_flt",
            "maj_flt"
        );
        for p in &self.processes {
            s.push_str(&format!(
                "{:>4} {:>12} {:>12} {:>12} {:>7.4} {:>10} {:>10.3} {:>9} {:>9}\n",
                p.pid,
                p.workload,
                p.instructions,
                p.cycles,
                p.ipc,
                p.page_walks,
                100.0 * p.tlb_miss_ratio(),
                p.minor_faults,
                p.major_faults,
            ));
        }
        s.push_str(&format!(
            "context_switches {}  switch_flushed_tlb_entries {}\n",
            self.context_switches, self.switch_flushed_tlb_entries
        ));
        s.push_str(&self.rollup.to_table());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimulationReport {
        let mut fault_latency_ns = LatencyStats::new();
        for v in [500.0, 800.0, 40_000.0] {
            fault_latency_ns.record(v);
        }
        SimulationReport {
            workload: "test".to_string(),
            instructions: 1_000_000,
            cycles: 500_000,
            ipc: 2.0,
            app_ipc: 1.8,
            total_time_ns: 1_000_000.0,
            total_translation_ns: 250_000.0,
            total_fault_ns: 50_000.0,
            fault_latency_ns,
            minor_faults: 3,
            ..SimulationReport::default()
        }
    }

    #[test]
    fn time_fractions() {
        let r = sample();
        assert!((r.translation_time_fraction() - 0.25).abs() < 1e-12);
        assert!((r.allocation_time_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn outlier_contribution_uses_fault_samples() {
        let r = sample();
        assert!(r.fault_outlier_contribution(10_000.0) > 0.9);
    }

    #[test]
    fn table_contains_key_metrics() {
        let r = sample();
        let table = r.to_table();
        assert!(table.contains("app_ipc"));
        assert!(table.contains("l2_tlb_mpki"));
        assert!(table.contains("allocation_time_fraction"));
    }

    #[test]
    fn shootdown_section_is_omitted_until_nonzero() {
        let quiet = sample();
        let json = serde_json::to_string(&quiet).unwrap();
        assert!(
            !json.contains("shootdowns"),
            "pressure-free reports must serialize without a shootdown section"
        );
        assert!(!quiet.to_table().contains("shootdown_batches"));
        let mut noisy = sample();
        noisy.shootdowns = Some(ShootdownStats {
            batches: 2,
            pages: 64,
            tlb_entries_dropped: 80,
            pwc_entries_dropped: 6,
            engine_entries_dropped: 3,
            replacements_installed: 448,
            per_core: None,
        });
        let json = serde_json::to_string(&noisy).unwrap();
        assert!(json.contains("\"shootdowns\":"));
        assert!(json.contains("\"pages\":64"));
        assert!(
            !json.contains("per_core"),
            "single-core shootdown sections must not grow a per_core field"
        );
        let table = noisy.to_table();
        assert!(table.contains("shootdown_batches"));
        assert!(table.contains("shootdown_replacements"));
        assert!(ShootdownStats::default().is_zero());
        assert!(!noisy.shootdowns.unwrap().is_zero());
    }

    #[test]
    fn oom_section_and_exit_status_are_omitted_until_nonzero() {
        let quiet = sample();
        let json = serde_json::to_string(&quiet).unwrap();
        assert!(
            !json.contains("\"oom\""),
            "healthy reports must serialize without an oom section"
        );
        assert!(!quiet.to_table().contains("oom_kills"));
        let mut noisy = sample();
        noisy.oom = Some(OomStats {
            kills: 1,
            scanned_bytes: 3 << 20,
            freed_bytes: 2 << 20,
            reclaim_retries: 9,
            oom_failures: 0,
        });
        let json = serde_json::to_string(&noisy).unwrap();
        assert!(json.contains("\"oom\":"));
        assert!(json.contains("\"kills\":1"));
        let table = noisy.to_table();
        assert!(table.contains("oom_kills"));
        assert!(table.contains("oom_freed_bytes"));

        let completed = ProcessReport::default();
        let json = serde_json::to_string(&completed).unwrap();
        assert!(!json.contains("exit_status"));
        assert!(!json.contains("oom_failures"));
        assert!(ProcessExitStatus::default().is_completed());
        let killed = ProcessReport {
            exit_status: ProcessExitStatus::OomKilled,
            oom_failures: 2,
            ..ProcessReport::default()
        };
        let json = serde_json::to_string(&killed).unwrap();
        assert!(json.contains("\"exit_status\":\"OomKilled\""));
        assert!(json.contains("\"oom_failures\":2"));
    }

    #[test]
    fn per_core_ipi_stats_serialize_when_present() {
        let mut r = sample();
        r.shootdowns = Some(ShootdownStats {
            batches: 1,
            pages: 8,
            per_core: Some(vec![
                CoreIpiStats {
                    ipis_sent: 1,
                    ipis_received: 0,
                    ipi_stall_cycles: 0,
                },
                CoreIpiStats {
                    ipis_sent: 0,
                    ipis_received: 1,
                    ipi_stall_cycles: 1800,
                },
            ]),
            ..ShootdownStats::default()
        });
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"per_core\":"));
        assert!(json.contains("\"ipi_stall_cycles\":1800"));
        let table = r.to_table();
        assert!(table.contains("core0_ipis_sent"));
        assert!(table.contains("core1_ipi_stall_cycles"));
        assert!(!r.shootdowns.unwrap().is_zero());
    }

    #[test]
    fn empty_report_has_zero_fractions() {
        let r = SimulationReport::default();
        assert_eq!(r.translation_time_fraction(), 0.0);
        assert_eq!(r.allocation_time_fraction(), 0.0);
        assert_eq!(r.total_faults(), 0);
    }

    #[test]
    fn fractions_since_isolate_the_measured_segment() {
        // Warm-up: 1 ms total, fault-dominated (900 µs of faults).
        let warm = SimulationReport {
            total_time_ns: 1_000_000.0,
            total_translation_ns: 10_000.0,
            total_fault_ns: 900_000.0,
            ..SimulationReport::default()
        };
        // Cumulative end state: the measured segment added 1 ms of time, of
        // which 400 µs was translation and nothing was faults.
        let full = SimulationReport {
            total_time_ns: 2_000_000.0,
            total_translation_ns: 410_000.0,
            total_fault_ns: 900_000.0,
            ..SimulationReport::default()
        };
        let (t, a) = full.fractions_since(&warm);
        assert!((t - 0.4).abs() < 1e-12);
        assert_eq!(a, 0.0);
        // The cumulative report alone would report the cold-start mixture.
        assert!(full.translation_time_fraction() < 0.3);
        // Degenerate segment: no time elapsed.
        assert_eq!(full.fractions_since(&full), (0.0, 0.0));
    }

    #[test]
    fn process_report_miss_ratio_and_multiprogram_table() {
        let p = ProcessReport {
            pid: 1,
            workload: "RND".to_string(),
            instructions: 1000,
            cycles: 4000,
            ipc: 0.25,
            page_walks: 50,
            tlb_translations: 400,
            tlb_hits: 350,
            minor_faults: 7,
            ..ProcessReport::default()
        };
        assert!((p.tlb_miss_ratio() - 0.125).abs() < 1e-12);
        let report = MultiProgramReport {
            processes: vec![p],
            context_switches: 3,
            switch_flushed_tlb_entries: 0,
            rollup: SimulationReport::default(),
        };
        let table = report.to_table();
        assert!(table.contains("RND"));
        assert!(table.contains("context_switches 3"));
        assert_eq!(ProcessReport::default().tlb_miss_ratio(), 0.0);
    }
}

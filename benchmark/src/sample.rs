//! One untraced repetition of a workload: build the machine, time the run,
//! collect the simulated counters and check the outputs.
//!
//! A repetition always runs in a fresh child process (`vmbench child`), so
//! it gets its own address-space layout and a clean `VmHWM`, and a panic in
//! the simulator becomes a failed operation rather than a dead benchmark.

use crate::host;
use crate::json::Json;
use crate::workloads::Workload;
use mimic_os::ProcessId;
use sim_core::TraceSource;
use std::time::Instant;
use virtuoso::{SimulationReport, System};
use vm_workloads::{SyntheticWorkload, WorkloadSpec};

/// A built, mapped and (where the workload says so) populated machine with
/// one trace generator per process, ready for the timed region.
pub struct Machine {
    pub system: System,
    pub pids: Vec<ProcessId>,
    pub sources: Vec<SyntheticWorkload>,
}

/// The trace seed of process `process` of the `system_index`-th machine of
/// a repetition. Process seeds are consecutive, as in the repository's own
/// multi-program runner; machines of one repetition are far apart.
pub fn trace_seed(seed: u64, system_index: u64, process: usize) -> u64 {
    seed.wrapping_add(system_index << 32)
        .wrapping_add(process as u64)
}

impl Machine {
    /// Everything `setup_s` covers: `System::new`, `spawn_process`, the
    /// `mmap_*` calls, `populate` and `spec.build`. `phase` is told the name
    /// of each of these steps as it begins, so the traced pass can bracket
    /// them with spans; the untraced pass passes a no-op.
    pub fn build(
        w: &Workload,
        seed: u64,
        system_index: u64,
        scale_div: u64,
        mut phase: impl FnMut(&'static str),
    ) -> Machine {
        phase("System::new");
        let mut system = System::new((w.config)());
        let mut pids = vec![system.pid()];
        while pids.len() < w.processes {
            pids.push(system.spawn_process());
        }
        let specs: Vec<WorkloadSpec> = (0..w.processes)
            .map(|p| (w.spec)(p).with_instructions(w.per_process(scale_div)))
            .collect();
        phase("mmap");
        for (spec, &pid) in specs.iter().zip(&pids) {
            for region in &spec.regions {
                // Every benchmark region is anonymous memory.
                assert!(!region.file_backed, "{}: file-backed region", w.name);
                system
                    .mmap_anonymous_for(pid, region.start, region.bytes)
                    .expect("mapping a workload region");
            }
        }
        phase("populate");
        if w.populate {
            for &pid in &pids {
                system.populate(pid);
            }
        }
        phase("spec.build");
        let sources = specs
            .iter()
            .enumerate()
            .map(|(p, spec)| spec.build(trace_seed(seed, system_index, p)))
            .collect();
        Machine {
            system,
            pids,
            sources,
        }
    }

    /// The timed region: `System::run` for one process,
    /// `System::run_multiprogram` for several.
    pub fn run(&mut self) -> SimulationReport {
        if let [source] = self.sources.as_mut_slice() {
            return self.system.run(source, None);
        }
        let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = self
            .pids
            .iter()
            .copied()
            .zip(self.sources.iter_mut().map(|s| s as &mut dyn TraceSource))
            .collect();
        self.system.run_multiprogram(&mut programs, None).rollup
    }
}

/// The simulated counters the `stats_digest` covers, in digest order. An
/// explicit list of integers rather than the serialized report, so a report
/// that grows a field does not move the digest.
pub fn counters(system: &System, report: &SimulationReport) -> Vec<(&'static str, u64)> {
    let mut l1_tlb_hits = 0;
    let mut l2_tlb_hits = 0;
    let mut walks = 0;
    let mut walk_accesses = 0;
    for core in 0..system.num_cores() {
        let mmu = system.mmu_of(core).stats();
        l1_tlb_hits += mmu.l1_hits.get();
        l2_tlb_hits += mmu.l2_hits.get();
        walks += mmu.walks.get();
        walk_accesses += mmu.walk_accesses.get();
    }
    let dram = system.dram().stats();
    let shootdowns = system.shootdown_stats();
    vec![
        ("instructions", report.instructions),
        ("kernel_instructions", report.kernel_instructions),
        ("cycles", report.cycles),
        ("l1_tlb_hits", l1_tlb_hits),
        ("l2_tlb_hits", l2_tlb_hits),
        ("walks", walks),
        ("walk_accesses", walk_accesses),
        ("minor_faults", report.minor_faults),
        ("major_faults", report.major_faults),
        ("swap_in_faults", report.swap_in_faults),
        ("swapped_pages", report.swapped_pages),
        ("dram_reads", dram.reads.get()),
        ("dram_writes", dram.writes.get()),
        ("dram_row_conflicts", dram.conflicts()),
        ("context_switches", system.context_switches()),
        ("shootdown_batches", shootdowns.batches),
        ("shootdown_pages", shootdowns.pages),
    ]
}

/// FNV-1a (64-bit) over the little-endian bytes of each value.
pub fn fnv64(hash: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = hash;
    for value in values {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Sample {
    pub workload: String,
    pub seed: u64,
    /// Wall seconds of the timed region (summed over the repetition's
    /// machines).
    pub wall_s: f64,
    /// User + system CPU seconds of the timed region, all threads.
    pub cpu_s: f64,
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    /// Application instructions the repetition had to retire.
    pub budget: u64,
    pub digest: u64,
    /// Simulated counters, summed over the repetition's machines.
    pub counters: Vec<(String, u64)>,
    /// Why the repetition counts as a failed operation, if it does.
    pub failure: Option<String>,
}

impl Sample {
    /// Budgeted application instructions per wall second, in millions.
    pub fn sim_mips(&self) -> f64 {
        self.budget as f64 / self.wall_s / 1e6
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed)),
            ("wall_s", Json::from(self.wall_s)),
            ("cpu_s", Json::from(self.cpu_s)),
            ("setup_s", Json::from(self.setup_s)),
            ("peak_rss_mib", Json::from(self.peak_rss_mib)),
            ("budget", Json::from(self.budget)),
            ("stats_digest", Json::from(format!("{:016x}", self.digest))),
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.as_str(), Json::from(*v))),
                ),
            ),
            (
                "failure",
                self.failure.as_deref().map_or(Json::Null, Json::from),
            ),
        ])
    }

    pub fn from_json(json: &Json) -> Option<Sample> {
        let num = |key: &str| json.get(key)?.as_f64();
        Some(Sample {
            workload: json.get("workload")?.as_str()?.to_string(),
            seed: num("seed")? as u64,
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            setup_s: num("setup_s")?,
            peak_rss_mib: num("peak_rss_mib")?,
            budget: num("budget")? as u64,
            digest: u64::from_str_radix(json.get("stats_digest")?.as_str()?, 16).ok()?,
            counters: json
                .get("counters")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()? as u64)))
                .collect::<Option<_>>()?,
            failure: json.get("failure")?.as_str().map(str::to_string),
        })
    }
}

/// The output checks one machine must pass after its run.
pub fn check_machine(
    w: &Workload,
    system: &System,
    report: &SimulationReport,
    scale_div: u64,
) -> Result<(), String> {
    let expected_instructions = w.per_process(scale_div) * w.processes as u64;
    if report.instructions != expected_instructions {
        return Err(format!(
            "retired {} application instructions, budget {expected_instructions}",
            report.instructions
        ));
    }
    if system.oom_failures() > 0 || system.segfaults() > 0 {
        return Err(format!(
            "{} accesses dropped out of memory, {} outside any mapping",
            system.oom_failures(),
            system.segfaults()
        ));
    }
    // A workload swaps if and only if it is the one built to (a `--smoke`
    // budget is too short to fill memory, so there only "must not" holds).
    let must_swap = w.swaps && scale_div == 1;
    if (report.swapped_pages > 0 && !w.swaps) || (report.swapped_pages == 0 && must_swap) {
        return Err(format!(
            "swapped {} pages, workload {} swap",
            report.swapped_pages,
            if w.swaps { "must" } else { "must not" }
        ));
    }
    system
        .check_invariants()
        .map_err(|violation| format!("coherence fence: {violation}"))
}

/// Times the machine is built per repetition; `setup_s` is their median.
const SETUPS_PER_MACHINE: usize = 5;

/// Runs one untraced repetition in this process.
pub fn measure(w: &Workload, seed: u64, scale_div: u64) -> Sample {
    let mut sample = Sample {
        workload: w.name.to_string(),
        seed,
        wall_s: 0.0,
        cpu_s: 0.0,
        setup_s: 0.0,
        peak_rss_mib: 0.0,
        budget: w.budget(scale_div),
        digest: FNV_OFFSET,
        counters: Vec::new(),
        failure: None,
    };
    for system_index in 0..w.systems {
        // Set-up takes microseconds on most workloads, so one reading is
        // mostly noise: build the machine several times (the first is
        // cold), report the median, run the last.
        let mut setups = Vec::with_capacity(SETUPS_PER_MACHINE);
        let mut machine = None;
        for _ in 0..SETUPS_PER_MACHINE {
            drop(machine.take());
            let setup_start = Instant::now();
            machine = Some(Machine::build(w, seed, system_index, scale_div, |_| {}));
            setups.push(setup_start.elapsed().as_secs_f64());
        }
        let mut machine = machine.expect("at least one set-up");
        sample.setup_s += crate::metrics::median(&setups);

        let cpu_start = host::process_cpu_time();
        let wall_start = Instant::now();
        let report = machine.run();
        sample.wall_s += wall_start.elapsed().as_secs_f64();
        sample.cpu_s += (host::process_cpu_time() - cpu_start).as_secs_f64();

        let counted = counters(&machine.system, &report);
        sample.digest = fnv64(sample.digest, counted.iter().map(|(_, v)| *v));
        if sample.counters.is_empty() {
            sample.counters = counted.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        } else {
            for ((_, total), (_, v)) in sample.counters.iter_mut().zip(&counted) {
                *total += v;
            }
        }
        if let Err(reason) = check_machine(w, &machine.system, &report, scale_div) {
            sample.failure.get_or_insert(reason);
        }
    }
    sample.peak_rss_mib = host::peak_rss_mib();
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn a_sample_survives_the_trip_through_json() {
        let w = workloads::find("fault_touch").unwrap();
        let sample = measure(w, 3, 100);
        assert_eq!(sample.failure, None);
        let back = Sample::from_json(&Json::parse(&sample.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.digest, sample.digest);
        assert_eq!(back.counters, sample.counters);
        assert_eq!(back.wall_s, sample.wall_s);
        assert_eq!(back.failure, None);
    }

    #[test]
    fn the_digest_follows_the_seed_and_ignores_the_host_thread_count() {
        let serial = workloads::find("mp4_serial").unwrap();
        let threaded = workloads::find("mp4_threads2").unwrap();
        let a = measure(serial, 5, 100);
        assert_eq!(a.failure, None);
        assert_eq!(a.digest, measure(serial, 5, 100).digest);
        assert_eq!(a.digest, measure(threaded, 5, 100).digest);
        assert_ne!(a.digest, measure(serial, 6, 100).digest);
    }

    #[test]
    fn a_short_budget_is_a_failed_operation() {
        // `check_machine` compares against the budget of the divisor it is
        // given: a machine built at 1/100 fails the full-budget check.
        let w = workloads::find("seq_hit").unwrap();
        let mut machine = Machine::build(w, 1, 0, 100, |_| {});
        let report = machine.run();
        assert!(check_machine(w, &machine.system, &report, 100).is_ok());
        let short = check_machine(w, &machine.system, &report, 1).unwrap_err();
        assert!(short.contains("budget"), "{short}");
    }
}

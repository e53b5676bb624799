//! The traced pass: one run per workload, separate from and after the
//! untraced timing, that yields every per-layer metric and the span file.
//!
//! For the single-core workloads it runs the integrated `System` once (the
//! reference: run time, walk, DRAM and cycle counts) and then the staged
//! replay of the same trace on standalone layer instances. The multi-core
//! workloads get spans around the `System` calls and counts from public
//! accessors; metrics the accessors cannot give read 0 there.

use crate::host;
use crate::metrics::PER_LAYER;
use crate::replay::{Meters, Replay};
use crate::sample::{self, Machine};
use crate::trace::{SpanId, Trace};
use crate::workloads::Workload;
use cache_sim::CacheStats;
use dram_sim::DramModel;
use mimic_os::MimicOs;
use mmu_sim::Mmu;
use ssd_sim::SsdModel;
use vm_types::DetRng;

/// What the traced pass of one workload produced.
pub struct Traced {
    /// One value per entry of [`PER_LAYER`], in that order.
    pub per_layer: Vec<(&'static str, f64)>,
    pub failure: Option<String>,
    pub trace: Trace,
}

/// Replay fidelity the populated workloads must meet (walk and DRAM access
/// counts of the staged replay within this share of the integrated run's).
const FIDELITY_TOLERANCE: f64 = 0.02;

/// Calls a layer must have served in the pass before a time per call is
/// reported for it.
const MIN_CALLS_FOR_A_RATE: u64 = 4096;

/// Sums over the machines of one repetition.
#[derive(Default)]
struct Totals {
    // The integrated `System`.
    new_ns: u64,
    mmap_ns: u64,
    populate_ns: u64,
    populate_pages: u64,
    run_ns: u64,
    run_cpu_ns: u64,
    instructions: u64,
    kernel_instructions: u64,
    cycles: u64,
    walks: u64,
    dram_accesses: u64,
    context_switches: u64,
    shootdown_batches: u64,
    epochs_run: u64,
    oom_failures: u64,
    // The layers' own counters (standalone instances on the single-core
    // workloads, the integrated machine's on the others).
    translations: u64,
    l1_tlb_hits: u64,
    l2_tlb_hits: u64,
    layer_walks: u64,
    walk_accesses: u64,
    layer_dram_accesses: u64,
    dram_row_hits: u64,
    dram_row_conflicts: u64,
    faults_minor: u64,
    faults_swap_in: u64,
    faults_total: u64,
    os_kernel_instructions: u64,
    buddy_allocs: u64,
    buddy_failures: u64,
    reclaimed_pages: u64,
    ssd_reads: u64,
    ssd_writes: u64,
    ssd_latency_ns_sum: f64,
    // The staged replay only.
    replay_ns: u64,
    replay_cycles: u64,
    replay_core_instructions: u64,
    l1d: (u64, u64),
    l2: (u64, u64),
    l3: (u64, u64),
    meters: Meters,
    stage_ns: Vec<(&'static str, u64)>,
}

impl Totals {
    fn absorb_layers<'a>(
        &mut self,
        mmus: impl Iterator<Item = &'a Mmu>,
        dram: &DramModel,
        os: &MimicOs,
    ) {
        for mmu in mmus {
            let stats = mmu.stats();
            self.translations += stats.translations.get();
            self.l1_tlb_hits += stats.l1_hits.get();
            self.l2_tlb_hits += stats.l2_hits.get();
            self.layer_walks += stats.walks.get();
            self.walk_accesses += stats.walk_accesses.get();
        }
        self.layer_dram_accesses += dram.stats().total_accesses();
        self.dram_row_hits += dram.stats().hits();
        self.dram_row_conflicts += dram.stats().conflicts();
        let stats = os.stats();
        self.faults_minor += stats.minor_faults.get();
        self.faults_swap_in += stats.swap_in_faults.get();
        self.faults_total += stats.total_faults();
        self.os_kernel_instructions += stats.kernel_instructions;
        self.buddy_allocs += os.buddy().stats().allocations.get();
        self.buddy_failures += os.buddy().stats().failures.get();
        self.reclaimed_pages += stats.reclaimed_pages.get();
        let ssd = os.ssd().stats();
        self.ssd_reads += ssd.reads.get();
        self.ssd_writes += ssd.writes.get();
        self.ssd_latency_ns_sum += ssd.mean_latency_ns() * ssd.total_requests() as f64;
    }

    fn add_stage_ns(&mut self, by_layer: Vec<(&'static str, u64)>) {
        for (layer, ns) in by_layer {
            match self.stage_ns.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, total)) => *total += ns,
                None => self.stage_ns.push((layer, ns)),
            }
        }
    }

    fn stage_ns(&self, layer: &str) -> u64 {
        self.stage_ns
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, ns)| *ns)
    }
}

fn add_cache(total: &mut (u64, u64), stats: &CacheStats) {
    total.0 += stats.hits.get();
    total.1 += stats.lookups();
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Builds the integrated machine with a span per set-up step, runs it with
/// a span around the run, and folds its numbers into `totals`.
fn integrated(
    w: &Workload,
    seed: u64,
    system_index: u64,
    scale_div: u64,
    trace: &mut Trace,
    parent: SpanId,
    totals: &mut Totals,
) -> Result<Machine, String> {
    let outer = trace.open(Some(parent), "integrated", "vmbench");
    let mut steps: Vec<(&'static str, SpanId)> = Vec::new();
    let mut machine = Machine::build(w, seed, system_index, scale_div, |step| {
        if let Some(&(_, open)) = steps.last() {
            trace.close(open, 1);
        }
        let layer = match step {
            "System::new" => "virtuoso",
            "spec.build" => "vm_workloads",
            _ => "mimic_os",
        };
        steps.push((step, trace.open(Some(outer), step, layer)));
    });
    if let Some(&(_, open)) = steps.last() {
        trace.close(open, 1);
    }
    let step_ns = |name: &str| {
        steps
            .iter()
            .find(|(step, _)| *step == name)
            .map_or(0, |&(_, id)| trace.duration_ns(id))
    };
    totals.new_ns += step_ns("System::new");
    totals.mmap_ns += step_ns("mmap");
    totals.populate_ns += step_ns("populate");
    totals.populate_pages += machine.system.os().stats().total_faults();

    let cpu_start = host::process_cpu_time();
    let run = trace.open(Some(outer), "System::run", "virtuoso");
    let report = machine.run();
    totals.run_ns += trace.close(run, report.instructions);
    totals.run_cpu_ns += (host::process_cpu_time() - cpu_start).as_nanos() as u64;
    trace.close(outer, 1);

    let system = &machine.system;
    totals.instructions += report.instructions;
    totals.kernel_instructions += report.kernel_instructions;
    totals.cycles += report.cycles;
    totals.walks += report.page_walks;
    totals.dram_accesses += system.dram().stats().total_accesses();
    totals.context_switches += system.context_switches();
    totals.shootdown_batches += system.shootdown_stats().batches;
    totals.epochs_run += system.epochs_run();
    totals.oom_failures += system.oom_failures();
    sample::check_machine(w, system, &report, scale_div)?;
    Ok(machine)
}

/// The staged replay of one machine's trace.
fn staged(
    w: &Workload,
    seed: u64,
    system_index: u64,
    scale_div: u64,
    trace: &mut Trace,
    parent: SpanId,
    totals: &mut Totals,
) -> Result<(), String> {
    let outer = trace.open(Some(parent), "staged_replay", "vmbench");
    let setup = trace.open(Some(outer), "replay_setup", "vmbench");
    let spec = (w.spec)(0).with_instructions(w.per_process(scale_div));
    let mut replay = Replay::new(&(w.config)(), &spec, w.populate)?;
    let mut source = spec.build(sample::trace_seed(seed, system_index, 0));
    trace.close(setup, 1);

    let run = trace.open(Some(outer), "replay_run", "vmbench");
    let first_stage_span = trace.spans.len();
    replay.run(&mut source, trace, run)?;
    totals.replay_ns += trace.close(run, replay.meters.instructions);
    totals.add_stage_ns(trace.self_ns_by_layer(first_stage_span..trace.spans.len()));
    trace.close(outer, 1);

    totals.absorb_layers(std::iter::once(&replay.mmu), &replay.dram, &replay.os);
    let caches = replay.caches.stats();
    add_cache(&mut totals.l1d, &caches.l1d);
    add_cache(&mut totals.l2, &caches.l2);
    add_cache(&mut totals.l3, &caches.l3);
    totals.meters.add(&replay.meters);
    totals.replay_cycles += replay.core.cycles().raw();
    totals.replay_core_instructions += replay.core.instructions();
    Ok(())
}

/// Host cost of the SSD model, from outside: a standalone `SsdModel` serves
/// as many page-outs and page-ins as the kernel's own device did (slots in
/// allocation order for writes, seeded random written slots for reads). The
/// kernel calls its device inside `handle_page_fault`, so in the shares this
/// time is part of `mimic_os`.
fn ssd_ns_per_op(
    w: &Workload,
    seed: u64,
    totals: &Totals,
    trace: &mut Trace,
    parent: SpanId,
) -> f64 {
    let ops = totals.ssd_reads + totals.ssd_writes;
    if ops == 0 {
        return 0.0;
    }
    let mut ssd = SsdModel::new((w.config)().os.ssd);
    let mut rng = DetRng::new(seed);
    let span = trace.open(Some(parent), "ssd_ops", "ssd_sim");
    for slot in 0..totals.ssd_writes {
        std::hint::black_box(ssd.write(slot * 4096));
    }
    for _ in 0..totals.ssd_reads {
        let slot = rng.gen_range(0, totals.ssd_writes.max(1));
        std::hint::black_box(ssd.read(slot * 4096));
    }
    trace.close(span, ops) as f64 / ops as f64
}

/// Runs the traced pass of `w`.
pub fn run(w: &Workload, seed: u64, scale_div: u64) -> Traced {
    let mut trace = Trace::new();
    let mut totals = Totals::default();
    let root = trace.open(None, w.name, "vmbench");
    let mut failure = None;
    let mut thread_speedup = 0.0;

    for system_index in 0..w.systems {
        let machine = integrated(
            w,
            seed,
            system_index,
            scale_div,
            &mut trace,
            root,
            &mut totals,
        );
        let result = match machine {
            Ok(_) if w.single_core() => staged(
                w,
                seed,
                system_index,
                scale_div,
                &mut trace,
                root,
                &mut totals,
            ),
            Ok(machine) => {
                let system = &machine.system;
                totals.absorb_layers(
                    (0..system.num_cores()).map(|core| system.mmu_of(core)),
                    system.dram(),
                    system.os(),
                );
                Ok(())
            }
            Err(reason) => Err(reason),
        };
        if let Err(reason) = result {
            failure.get_or_insert(reason);
        }
    }

    // The threaded workload is measured against its serial twin: same
    // machine, traces and seeds on one host thread.
    if let (Some(serial), None) = (w.twin(), &failure) {
        let mut twin = Totals::default();
        match integrated(serial, seed, 0, scale_div, &mut trace, root, &mut twin) {
            Ok(_) => thread_speedup = twin.run_ns as f64 / totals.run_ns as f64,
            Err(reason) => failure = Some(format!("serial twin: {reason}")),
        }
    }
    let ssd_op_ns = ssd_ns_per_op(w, seed, &totals, &mut trace, root);
    trace.close(root, 1);

    let t = &totals;
    let m = &totals.meters;
    let run_ns = t.run_ns as f64;
    let share = |layer: &str| t.stage_ns(layer) as f64 / run_ns;
    // A per-call time over a handful of calls (280 DRAM accesses on `seq_hit`)
    // is the span's own clock reads, not the layer: report it as absent.
    let per_ns = |layer: &str, calls: u64| {
        if calls < MIN_CALLS_FOR_A_RATE {
            0.0
        } else {
            t.stage_ns(layer) as f64 / calls as f64
        }
    };
    let staged_layers = [
        "vm_workloads",
        "sim_core",
        "mmu_sim",
        "cache_sim",
        "dram_sim",
        "mimic_os",
    ];
    let replayed = w.single_core();
    // Negative when the stages, run apart, cost more than the integrated
    // run they are measured against (README, Reading the shares).
    let glue_share = if replayed {
        1.0 - staged_layers.iter().map(|layer| share(layer)).sum::<f64>()
    } else {
        0.0
    };
    let (sim_cycles, sim_instructions) = if replayed {
        (t.replay_cycles, t.replay_core_instructions)
    } else {
        (t.cycles, t.instructions + t.kernel_instructions)
    };
    let replay_ratio = |replayed_count: u64, integrated_count: u64| {
        if !replayed {
            0.0
        } else if integrated_count == 0 {
            // Nothing to reproduce (no walks, no DRAM traffic): exact if
            // the replay saw none either.
            f64::from(u8::from(replayed_count == 0))
        } else {
            replayed_count as f64 / integrated_count as f64
        }
    };
    let walks_ratio = replay_ratio(t.layer_walks, t.walks);
    let dram_ratio = replay_ratio(t.layer_dram_accesses, t.dram_accesses);

    let value = |name: &str| -> f64 {
        match name {
            "vm_workloads.gen_ns_per_instr" => per_ns("vm_workloads", m.instructions),
            "vm_workloads.host_share" => share("vm_workloads"),
            "sim_core.retire_ns_per_instr" => per_ns("sim_core", m.instructions),
            "sim_core.host_share" => share("sim_core"),
            "sim_core.sim_ipc" => ratio(sim_instructions, sim_cycles),
            "sim_core.sim_cycles" => sim_cycles as f64,
            "mmu_sim.translate_ns_per_access" => per_ns("mmu_sim", t.translations),
            "mmu_sim.host_share" => share("mmu_sim"),
            "mmu_sim.translations" => t.translations as f64,
            "mmu_sim.l1_tlb_hit_ratio" => ratio(t.l1_tlb_hits, t.translations),
            "mmu_sim.l2_tlb_hit_ratio" => ratio(t.l2_tlb_hits, t.translations - t.l1_tlb_hits),
            "mmu_sim.walks_per_kilo_instr" => 1000.0 * ratio(t.layer_walks, t.instructions),
            "mmu_sim.walk_accesses_per_walk" => ratio(t.walk_accesses, t.layer_walks),
            "mmu_sim.install_ns_per_mapping" => ratio(m.install_ns, m.installs),
            "mmu_sim.remove_ns_per_page" => ratio(m.remove_ns, m.removes),
            "cache_sim.access_ns_per_access" => per_ns("cache_sim", m.cache_accesses),
            "cache_sim.host_share" => share("cache_sim"),
            "cache_sim.accesses" => m.cache_accesses as f64,
            "cache_sim.l1d_hit_ratio" => ratio(t.l1d.0, t.l1d.1),
            "cache_sim.l2_hit_ratio" => ratio(t.l2.0, t.l2.1),
            "cache_sim.l3_hit_ratio" => ratio(t.l3.0, t.l3.1),
            "cache_sim.dram_fetches_per_kilo_access" => {
                1000.0 * ratio(m.dram_fetches, m.cache_accesses)
            }
            "dram_sim.access_ns_per_access" => per_ns("dram_sim", t.layer_dram_accesses),
            "dram_sim.host_share" => share("dram_sim"),
            "dram_sim.accesses" => t.layer_dram_accesses as f64,
            "dram_sim.row_hit_ratio" => ratio(t.dram_row_hits, t.layer_dram_accesses),
            "dram_sim.row_conflicts" => t.dram_row_conflicts as f64,
            "mimic_os.fault_ns_per_fault" => ratio(m.fault_ns, m.faults),
            "mimic_os.host_share" => share("mimic_os"),
            "mimic_os.faults_minor" => t.faults_minor as f64,
            "mimic_os.faults_swap_in" => t.faults_swap_in as f64,
            "mimic_os.kernel_instr_per_fault" => ratio(t.os_kernel_instructions, t.faults_total),
            "mimic_os.buddy_allocs" => t.buddy_allocs as f64,
            "mimic_os.buddy_failures" => t.buddy_failures as f64,
            "mimic_os.reclaimed_pages" => t.reclaimed_pages as f64,
            "mimic_os.oom_failures" => t.oom_failures as f64,
            "mimic_os.populate_ns_per_page" => ratio(t.populate_ns, t.populate_pages),
            "mimic_os.mmap_ns" => t.mmap_ns as f64,
            "ssd_sim.reads" => t.ssd_reads as f64,
            "ssd_sim.writes" => t.ssd_writes as f64,
            "ssd_sim.op_ns_per_op" => ssd_op_ns,
            "ssd_sim.sim_mean_latency_ns" => {
                let ops = t.ssd_reads + t.ssd_writes;
                if ops == 0 {
                    0.0
                } else {
                    t.ssd_latency_ns_sum / ops as f64
                }
            }
            "virtuoso.run_ns_per_instr" => ratio(t.run_ns, t.instructions),
            "virtuoso.host_ns_per_sim_instr" => {
                ratio(t.run_ns, t.instructions + t.kernel_instructions)
            }
            "virtuoso.glue_share" => glue_share,
            "virtuoso.new_s" => t.new_ns as f64 / 1e9,
            "virtuoso.kernel_instr_per_app_instr" => ratio(t.kernel_instructions, t.instructions),
            "virtuoso.context_switches" => t.context_switches as f64,
            "virtuoso.shootdown_broadcasts" => t.shootdown_batches as f64,
            "virtuoso.epochs_run" => t.epochs_run as f64,
            "virtuoso.thread_speedup" => thread_speedup,
            "virtuoso.cpu_per_wall" => ratio(t.run_cpu_ns, t.run_ns),
            "virtuoso.replay_walks_ratio" => walks_ratio,
            "virtuoso.replay_dram_ratio" => dram_ratio,
            "virtuoso.replay_cycles_ratio" => replay_ratio(t.replay_cycles, t.cycles),
            "virtuoso.tracing_overhead" => t.replay_ns as f64 / run_ns,
            other => unreachable!("no formula for per-layer metric {other}"),
        }
    };
    let per_layer: Vec<(&'static str, f64)> =
        PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect();

    // Populated workloads have no kernel activity for scheduling noise to
    // hide behind: the replay must reproduce their walks and DRAM traffic.
    if failure.is_none() && replayed && w.populate {
        for (what, ratio) in [("walks", walks_ratio), ("DRAM accesses", dram_ratio)] {
            if (ratio - 1.0).abs() > FIDELITY_TOLERANCE {
                failure = Some(format!(
                    "staged replay {what} are {ratio:.4} of the integrated run's"
                ));
            }
        }
    }
    if let Err(reason) = trace.validate() {
        failure.get_or_insert(format!("trace: {reason}"));
    }
    Traced {
        per_layer,
        failure,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn metric(traced: &Traced, name: &str) -> f64 {
        traced
            .per_layer
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("metric is emitted")
    }

    /// The replay-fidelity test at `--smoke` budgets: on every single-core
    /// workload — faults included — the staged replay gives each layer the
    /// integrated model's call sequence, so walks, DRAM accesses and cycles
    /// agree exactly.
    #[test]
    fn staged_replay_reproduces_the_integrated_run() {
        for w in workloads::ALL.iter().filter(|w| w.single_core()) {
            let traced = run(w, 7, 100);
            assert_eq!(traced.failure, None, "{}", w.name);
            for ratio in ["walks", "dram", "cycles"] {
                let name = format!("virtuoso.replay_{ratio}_ratio");
                assert_eq!(metric(&traced, &name), 1.0, "{} {name}", w.name);
            }
            traced
                .trace
                .validate()
                .expect("every span names an enclosing parent");
        }
    }

    #[test]
    fn every_per_layer_metric_has_a_formula_on_a_multi_core_workload() {
        let w = workloads::find("mp4_threads2").unwrap();
        let traced = run(w, 7, 100);
        assert_eq!(traced.failure, None);
        assert_eq!(traced.per_layer.len(), PER_LAYER.len());
        assert!(metric(&traced, "virtuoso.thread_speedup") > 0.0);
        assert!(metric(&traced, "virtuoso.context_switches") > 0.0);
        assert_eq!(metric(&traced, "cache_sim.accesses"), 0.0);
    }
}

//! Criterion bench for the Fig. 11 / Fig. 12 experiments: simulation-speed
//! overhead of the detailed MimicOS integration over the emulation
//! baseline, steady-state GUPS translation on every design of
//! [`Design::ALL`] beside one explicit first-touch fault-path cell, plus
//! the regression guards for the zero-allocation hot path — a
//! multi-programmed scheduler case and a per-instruction `System::step`
//! microbench, so slowdowns show up at both the workload and the
//! single-instruction granularity.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mimic_os::ThpConfig;
use sim_core::TraceSource;
use virtuoso::{Design, System, SystemConfig};
use virtuoso_bench::{map_spec_regions, run_multiprogram_specs, run_spec_with_config};
use vm_workloads::{catalog, SyntheticWorkload};

fn sim_speed(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_sim_speed");
    group.sample_size(10);
    let spec = catalog::gups_randacc().with_instructions(20_000);
    group.bench_function(BenchmarkId::new("mode", "emulation"), |b| {
        b.iter(|| {
            run_spec_with_config(
                SystemConfig::small_test().with_emulation_baseline(),
                &spec,
                1,
            )
        })
    });
    group.bench_function(BenchmarkId::new("mode", "detailed_mimicos"), |b| {
        b.iter(|| run_spec_with_config(SystemConfig::small_test(), &spec, 1))
    });
    group.finish();
}

/// A GUPS system over `footprint_scale` of the catalog footprint, mapped,
/// populated and warmed (TLBs, caches, DRAM banks) outside any timed
/// region, with its endless trace positioned after the warmup.
fn warmed_gups(config: SystemConfig, footprint_scale: f64) -> (System, SyntheticWorkload) {
    let spec = catalog::gups_randacc()
        .scaled_footprint(footprint_scale)
        .with_instructions(u64::MAX);
    let mut system = System::new(config);
    let pid = system.pid();
    map_spec_regions(&mut system, pid, &spec, 0);
    system.populate(pid);
    let mut source = spec.build(0x57E9);
    steps(&mut system, &mut source, 10_000);
    (system, source)
}

/// Steps `system` through the next `n` instructions of `source`.
fn steps(system: &mut System, source: &mut SyntheticWorkload, n: u64) {
    for _ in 0..n {
        let instr = source.next_instruction().expect("endless trace");
        system.step(black_box(&instr));
    }
}

/// Steady-state GUPS translation on every design, each with the
/// allocation policy it pairs with: the cells are populated and warmed
/// first, so they time translation rather than the first-touch fault
/// storm. The fault path keeps one explicit cell: radix GUPS on 4 KiB
/// pages from an unpopulated address space, so its 20 000 instructions
/// take thousands of first-touch faults (under THP they would take a few
/// dozen).
fn designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("designs");
    group.sample_size(10);
    for design in Design::ALL {
        let (mut system, mut source) =
            warmed_gups(SystemConfig::small_test().with_design(design), 0.125);
        group.bench_function(BenchmarkId::new("steady_state_20k", design.label()), |b| {
            b.iter(|| steps(&mut system, &mut source, 20_000))
        });
    }
    let spec = catalog::gups_randacc()
        .scaled_footprint(0.125)
        .with_instructions(20_000);
    let mut four_k = SystemConfig::small_test();
    four_k.os.thp = ThpConfig::disabled();
    group.bench_function(BenchmarkId::new("first_touch_20k", "Radix-4K"), |b| {
        b.iter(|| run_spec_with_config(four_k.clone(), &spec, 1))
    });
    group.finish();
}

/// The multi-programmed path: scheduler quanta, context switches and the
/// per-process accounting all sit on the hot path here — a regression in
/// any of them moves this number.
fn multiprogram_speed(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiprogram_sim_speed");
    group.sample_size(10);
    let specs: Vec<_> = catalog::multiprogram_mix()
        .into_iter()
        .map(|s| {
            let budget = s.instructions / 10;
            s.with_instructions(budget)
        })
        .collect();
    group.bench_function(BenchmarkId::new("mix", "gups_llama"), |b| {
        b.iter(|| run_multiprogram_specs(SystemConfig::small_test(), &specs, 7))
    });
    let resident: Vec<_> = catalog::multiprogram_mix_resident()
        .into_iter()
        .map(|s| {
            let budget = s.instructions / 10;
            s.with_instructions(budget)
        })
        .collect();
    group.bench_function(BenchmarkId::new("mix", "tlb_resident"), |b| {
        b.iter(|| run_multiprogram_specs(SystemConfig::small_test(), &resident, 7))
    });
    group.finish();
}

/// Per-instruction granularity: a steady-state `System::step` loop over a
/// populated address space (no faults, no report assembly). This is the
/// code the zero-allocation tentpole pinned; regressions of a few
/// nanoseconds per instruction are visible here long before they move a
/// whole-workload number.
fn step_microbench(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_per_instruction");
    group.sample_size(10);
    for (label, config) in [
        ("detailed", SystemConfig::small_test()),
        (
            "emulation",
            SystemConfig::small_test().with_emulation_baseline(),
        ),
    ] {
        // 32 MB of GUPS.
        let (mut system, mut source) = warmed_gups(config, 0.0625);
        group.bench_function(BenchmarkId::new("steady_state_20k", label), |b| {
            b.iter(|| steps(&mut system, &mut source, 20_000))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    sim_speed,
    designs,
    multiprogram_speed,
    step_microbench
);
criterion_main!(benches);

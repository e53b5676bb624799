//! Criterion bench for the Fig. 11 / Fig. 12 experiments: simulation-speed
//! overhead of the detailed MimicOS integration over the emulation
//! baseline, the same GUPS run on each translation engine, plus the
//! regression guards for the zero-allocation hot path — a multi-programmed
//! scheduler case and a per-instruction `System::step` microbench, so
//! slowdowns show up at both the workload and the single-instruction
//! granularity.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sim_core::TraceSource;
use virtuoso::{System, SystemConfig};
use virtuoso_bench::{
    engine_system_config, map_spec_regions, run_multiprogram_specs, run_spec_with_config,
};
use vm_workloads::catalog;

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

/// Detailed-mode GUPS on each translation engine, each paired with the
/// allocation policy its design expects ([`engine_system_config`]).
fn engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group.sample_size(10);
    let spec = catalog::gups_randacc()
        .scaled_footprint(0.125)
        .with_instructions(20_000);
    for engine in ["page-table", "midgard", "rmm", "utopia"] {
        group.bench_function(BenchmarkId::new("engine", engine), |b| {
            b.iter(|| run_spec_with_config(engine_system_config(engine), &spec, 1))
        });
    }
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
        let spec = catalog::gups_randacc()
            .scaled_footprint(0.0625) // 32 MB
            .with_instructions(u64::MAX);
        let mut system = System::new(config);
        let pid = system.pid();
        map_spec_regions(&mut system, pid, &spec, 0);
        system.populate(pid);
        let mut source = spec.build(0x57E9);
        // Warm TLBs/caches out of the timed region.
        for _ in 0..10_000 {
            let instr = source.next_instruction().expect("endless trace");
            system.step(&instr);
        }
        group.bench_function(BenchmarkId::new("steady_state_20k", label), |b| {
            b.iter(|| {
                for _ in 0..20_000 {
                    let instr = source.next_instruction().expect("endless trace");
                    system.step(black_box(&instr));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    sim_speed,
    engines,
    multiprogram_speed,
    step_microbench
);
criterion_main!(benches);

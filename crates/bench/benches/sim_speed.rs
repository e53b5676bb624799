//! Criterion bench for the Fig. 11 / Fig. 12 experiments: steady-state
//! GUPS steps on every design of [`Design::ALL`] and on the emulation
//! baseline (Fig. 11's pair is `Radix` against `emulation`), one explicit
//! first-touch fault-path cell, and a multi-programmed scheduler case.
//! Each steady-state cell times 20 000 `System::step`s, so a regression of
//! a few nanoseconds per instruction on the zero-allocation hot path shows
//! up there long before it moves a whole-workload number.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mimic_os::ThpConfig;
use sim_core::TraceSource;
use virtuoso::{Design, System, SystemConfig};
use virtuoso_bench::{map_spec_regions, run_multiprogram_specs, run_spec_with_config};
use vm_workloads::{catalog, SyntheticWorkload};

/// A GUPS system over an eighth of the catalog footprint (64 MiB), mapped,
/// populated and warmed (TLBs, caches, DRAM banks) outside any timed
/// region, with its endless trace positioned after the warmup.
fn warmed_gups(config: SystemConfig) -> (System, SyntheticWorkload) {
    let spec = catalog::gups_randacc()
        .scaled_footprint(0.125)
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
/// allocation policy it pairs with, and on the emulation baseline, which
/// skips MimicOS (Fig. 11's detailed-over-emulation overhead is the
/// `Radix` cell over the `emulation` one). The cells are populated and
/// warmed first, so they time translation rather than the first-touch
/// fault storm. The fault path keeps one explicit cell: radix GUPS on
/// 4 KiB pages from an unpopulated address space, so its 20 000
/// instructions take thousands of first-touch faults (under THP they
/// would take a few dozen).
fn designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("designs");
    group.sample_size(10);
    let cells = Design::ALL
        .into_iter()
        .map(|design| {
            (
                design.label(),
                SystemConfig::small_test().with_design(design),
            )
        })
        .chain([(
            "emulation",
            SystemConfig::small_test().with_emulation_baseline(),
        )]);
    for (label, config) in cells {
        let (mut system, mut source) = warmed_gups(config);
        group.bench_function(BenchmarkId::new("steady_state_20k", label), |b| {
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

criterion_group!(benches, designs, multiprogram_speed);
criterion_main!(benches);

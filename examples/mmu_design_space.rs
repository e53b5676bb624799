//! Use Cases 3–5 (paper §7.6) in miniature: run the Midgard, Utopia and
//! RMM translation engines **end to end** — same `System::run` path as
//! every other experiment, so faults, the kernel's placement decisions,
//! caches and DRAM all participate — and report the paper's headline
//! metric for each from the report's per-engine stats section.
//!
//! Run with `cargo run --example mmu_design_space`.

use virtuoso_suite::prelude::*;

fn run(config: SystemConfig, spec: &WorkloadSpec, seed: u64) -> SimulationReport {
    let mut system = System::new(config);
    let pid = system.pid();
    for (i, region) in spec.regions.iter().enumerate() {
        if region.file_backed {
            system
                .mmap_file_for(pid, region.start, region.bytes, i as u64 + 1)
                .expect("mapping region");
        } else {
            system
                .mmap_anonymous_for(pid, region.start, region.bytes)
                .expect("mapping region");
        }
    }
    system.run(&mut spec.build(seed), None)
}

fn main() {
    // --- Midgard: frontend vs backend latency (Use Case 3 / Fig. 17) -----
    // BC's 148-VMA profile thrashes the 16-entry L2 VLB (Fig. 18).
    let bc = catalog::graphbig_bc()
        .scaled_footprint(0.15)
        .with_instructions(60_000);
    let config = SystemConfig::small_test().with_design(Design::Midgard);
    let report = run(config, &bc, 11);
    if let Some(EngineReport::Midgard {
        frontend_fraction,
        l2_vlb_hit_ratio,
        ..
    }) = report.engine
    {
        println!(
            "Midgard on BC: frontend fraction {:.1}%, L2 VLB hit ratio {:.1}%",
            frontend_fraction * 100.0,
            l2_vlb_hit_ratio * 100.0
        );
    }

    // --- Utopia: RestSeg size vs metadata footprint (Use Case 4 / Fig. 19)
    // RestSeg sizes scaled to the 256 MB small-test machine.
    let gups = catalog::gups_randacc()
        .scaled_footprint(0.125)
        .with_instructions(40_000);
    for mb in [32u64, 64, 96, 128] {
        let restseg = virtuoso_suite::mimic_os::UtopiaConfig::new(mb << 20, 16, PageSize::Size4K);
        let config = SystemConfig::small_test().with_design(Design::Utopia(restseg));
        let report = run(config, &gups, 13);
        if let Some(EngineReport::Utopia {
            rsw_fetches,
            restseg_hits,
            ..
        }) = report.engine
        {
            println!(
                "Utopia {mb:>3} MB RestSeg: {rsw_fetches} RSW metadata fetches, \
                 {restseg_hits} RestSeg-resident translations"
            );
        }
    }

    // --- RMM: range translation coverage (Use Case 5 / Fig. 21) ----------
    // Eager paging builds the ranges; the range TLB absorbs the walks.
    let sssp = catalog::graphbig_sssp()
        .scaled_footprint(0.15)
        .with_instructions(40_000);
    let config = SystemConfig::small_test().with_design(Design::Rmm);
    let report = run(config, &sssp, 17);
    if let Some(EngineReport::Rmm {
        range_translations,
        fallback_translations,
        range_coverage,
        ..
    }) = report.engine
    {
        println!(
            "RMM: {range_translations} translations served by ranges, \
             {fallback_translations} fell back to the page table \
             ({:.1}% coverage)",
            range_coverage * 100.0
        );
    }
}

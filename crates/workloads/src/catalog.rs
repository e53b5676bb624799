//! The workload catalogue: one specification per benchmark in the paper's
//! Table 5, scaled so that the headline experiments run on a laptop while
//! preserving each suite's qualitative behaviour (footprint class, TLB
//! pressure, allocation pattern, VMA structure).

use crate::spec::{AccessPattern, MemoryRegion, WorkloadClass, WorkloadSpec};
use vm_types::VirtAddr;

const MB: u64 = 1024 * 1024;
const GB: u64 = 1024 * MB;

/// Default instruction budget for long-running workloads (per simulation).
pub const LONG_RUNNING_INSTRUCTIONS: u64 = 200_000;
/// Default instruction budget for short-running workloads.
pub const SHORT_RUNNING_INSTRUCTIONS: u64 = 120_000;

fn long_running(name: &str, footprint: u64, pattern: AccessPattern) -> WorkloadSpec {
    let mut spec = WorkloadSpec::simple(
        name,
        WorkloadClass::LongRunning,
        footprint,
        pattern,
        LONG_RUNNING_INSTRUCTIONS,
    );
    spec.memory_fraction = 0.45;
    spec
}

fn short_running(name: &str, footprint: u64, new_page_fraction: f64) -> WorkloadSpec {
    let mut spec = WorkloadSpec::simple(
        name,
        WorkloadClass::ShortRunning,
        footprint,
        AccessPattern::AllocateAndTouch { new_page_fraction },
        SHORT_RUNNING_INSTRUCTIONS,
    );
    spec.memory_fraction = 0.35;
    spec
}

// ---------------------------------------------------------------------------
// GraphBIG (long-running, 50–100 GB in the paper; scaled footprints here).
// ---------------------------------------------------------------------------

/// Betweenness centrality — the Fig. 18 outlier: one huge VMA plus ~147
/// small ones, which thrash Midgard's VMA lookaside buffers.
pub fn graphbig_bc() -> WorkloadSpec {
    let mut regions = vec![MemoryRegion {
        start: VirtAddr::new(0x10_0000_0000),
        bytes: 768 * MB,
        file_backed: false,
        access_weight: 0.5,
    }];
    // 147 small VMAs between 4 KB and ~1 GB (scaled down), each accessed
    // often enough to matter.
    for i in 0..147u64 {
        let bytes = match i % 5 {
            0 => 4 * 1024,
            1 => 64 * 1024,
            2 => 256 * 1024,
            3 => 2 * MB,
            _ => 8 * MB,
        };
        regions.push(MemoryRegion {
            start: VirtAddr::new(0x40_0000_0000 + i * 0x4000_0000),
            bytes,
            file_backed: false,
            access_weight: 0.5 / 147.0,
        });
    }
    WorkloadSpec {
        name: "BC".to_string(),
        class: WorkloadClass::LongRunning,
        regions,
        pattern: AccessPattern::PointerChasing,
        memory_fraction: 0.45,
        instructions: LONG_RUNNING_INSTRUCTIONS,
    }
}

/// Breadth-first search.
pub fn graphbig_bfs() -> WorkloadSpec {
    long_running("BFS", 512 * MB, AccessPattern::PointerChasing)
}

/// Connected components.
pub fn graphbig_cc() -> WorkloadSpec {
    long_running("CC", 512 * MB, AccessPattern::PointerChasing)
}

/// Graph colouring.
pub fn graphbig_gc() -> WorkloadSpec {
    long_running("GC", 384 * MB, AccessPattern::PointerChasing)
}

/// k-Core decomposition.
pub fn graphbig_kc() -> WorkloadSpec {
    long_running("KC", 384 * MB, AccessPattern::PointerChasing)
}

/// PageRank.
pub fn graphbig_pr() -> WorkloadSpec {
    long_running(
        "PR",
        512 * MB,
        AccessPattern::Streaming {
            jump_probability: 0.3,
        },
    )
}

/// Single-source shortest path (the paper's highest-PTW-latency workload).
pub fn graphbig_sssp() -> WorkloadSpec {
    long_running("SSSP", 640 * MB, AccessPattern::PointerChasing)
}

/// Triangle counting.
pub fn graphbig_tc() -> WorkloadSpec {
    long_running("TC", 448 * MB, AccessPattern::PointerChasing)
}

/// XSBench: Monte Carlo neutron-transport lookup kernel (HPC).
pub fn xsbench() -> WorkloadSpec {
    long_running(
        "XS",
        640 * MB,
        AccessPattern::Streaming {
            jump_probability: 0.5,
        },
    )
}

/// GUPS / randacc: uniformly random updates, the paper's worst-case
/// page-fault-per-kilo-instruction workload.
pub fn gups_randacc() -> WorkloadSpec {
    let mut spec = long_running("RND", 512 * MB, AccessPattern::UniformRandom);
    spec.memory_fraction = 0.6;
    spec
}

// ---------------------------------------------------------------------------
// Short-running workloads (FaaS, LLM inference, image processing).
// ---------------------------------------------------------------------------

/// JSON deserialization (FaaS).
pub fn faas_json() -> WorkloadSpec {
    short_running("JSON", 24 * MB, 0.5)
}

/// AES encryption of a small payload (FaaS).
pub fn faas_aes() -> WorkloadSpec {
    short_running("AES", 16 * MB, 0.4)
}

/// Image resizing (FaaS).
pub fn faas_img_resize() -> WorkloadSpec {
    short_running("IMG-RES", 40 * MB, 0.55)
}

/// Word count over a document (FaaS).
pub fn faas_wordcount() -> WorkloadSpec {
    short_running("WCNT", 24 * MB, 0.45)
}

/// Database filter query (FaaS).
pub fn faas_db_filter() -> WorkloadSpec {
    short_running("DB", 32 * MB, 0.5)
}

/// Llama-2-7B-style short-prompt inference (weights are file-backed, the
/// KV-cache and activations are anonymous and allocation-heavy).
pub fn llm_llama() -> WorkloadSpec {
    llm("Llama-2-7B", 160 * MB)
}

/// Bagel-2.8B-style inference.
pub fn llm_bagel() -> WorkloadSpec {
    llm("Bagel-2.8B", 96 * MB)
}

/// Mistral-7B-style inference.
pub fn llm_mistral() -> WorkloadSpec {
    llm("Mistral-7B", 160 * MB)
}

fn llm(name: &str, working_set: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_string(),
        class: WorkloadClass::ShortRunning,
        regions: vec![
            // Model weights: file-backed, streamed.
            MemoryRegion {
                start: VirtAddr::new(0x20_0000_0000),
                bytes: working_set,
                file_backed: true,
                access_weight: 0.45,
            },
            // KV cache / activations: anonymous, growing.
            MemoryRegion {
                start: VirtAddr::new(0x30_0000_0000),
                bytes: working_set / 2,
                file_backed: false,
                access_weight: 0.55,
            },
        ],
        pattern: AccessPattern::AllocateAndTouch {
            new_page_fraction: 0.35,
        },
        memory_fraction: 0.4,
        instructions: SHORT_RUNNING_INSTRUCTIONS,
    }
}

/// 3D matrix transposition (image processing).
pub fn img_3d_transpose() -> WorkloadSpec {
    short_running("3D-Transp", 48 * MB, 0.6)
}

/// 3D Hadamard product (image processing).
pub fn img_hadamard() -> WorkloadSpec {
    short_running("Hadamard", 48 * MB, 0.6)
}

/// 2D matrix sum (image processing).
pub fn img_2d_sum() -> WorkloadSpec {
    short_running("2D-Sum", 32 * MB, 0.55)
}

// ---------------------------------------------------------------------------
// Collections used by the figure harnesses.
// ---------------------------------------------------------------------------

/// The long-running, translation-bound workloads of Table 5 (GraphBIG +
/// HPC), in the order the paper's figures list them.
pub fn all_long_running() -> Vec<WorkloadSpec> {
    vec![
        graphbig_bc(),
        graphbig_bfs(),
        graphbig_cc(),
        graphbig_kc(),
        graphbig_gc(),
        graphbig_pr(),
        gups_randacc(),
        graphbig_sssp(),
        graphbig_tc(),
        xsbench(),
    ]
}

/// The short-running, allocation-bound workloads of Table 5.
pub fn all_short_running() -> Vec<WorkloadSpec> {
    vec![
        faas_json(),
        faas_aes(),
        faas_img_resize(),
        faas_wordcount(),
        faas_db_filter(),
        llm_llama(),
        llm_bagel(),
        llm_mistral(),
        img_3d_transpose(),
        img_hadamard(),
        img_2d_sum(),
    ]
}

/// The three LLM inference workloads of Fig. 16.
pub fn llm_workloads() -> Vec<WorkloadSpec> {
    vec![llm_bagel(), llm_llama(), llm_mistral()]
}

/// The multi-programmed mix used by the multi-process scenarios: a
/// translation-bound random-access aggressor (GUPS) co-scheduled with an
/// allocation-bound LLM inference victim. Footprints are scaled down so the
/// pair fits the small-test machine together (the paper's workloads are
/// run one-per-machine; interleaving them is the scenario-diversity
/// extension enabled by the MimicOS scheduler).
pub fn multiprogram_mix() -> Vec<WorkloadSpec> {
    vec![
        gups_randacc().scaled_footprint(0.125), // 64 MB random updates
        llm_llama().scaled_footprint(0.25),     // 40 MB weights + 20 MB KV cache
    ]
}

/// The TLB-resident multi-programmed mix: two random-access processes
/// whose working sets are sized to fit the *paper-baseline* TLB hierarchy
/// together (2 MB each = 512 four-KiB pages per process against a
/// 2048-entry L2 TLB). With ASID-tagged TLBs both working sets stay
/// resident across context switches; in the full-flush baseline every
/// switch drops them and the next quantum re-walks its whole working set
/// — the headline interference effect of the multi-process experiments,
/// which the scaled [`multiprogram_mix`] (whose GUPS aggressor overflows
/// the TLB regardless) cannot show.
pub fn multiprogram_mix_resident() -> Vec<WorkloadSpec> {
    let resident = |name: &str| {
        let mut spec = WorkloadSpec::simple(
            name,
            WorkloadClass::LongRunning,
            2 * MB,
            AccessPattern::UniformRandom,
            40_000,
        );
        spec.memory_fraction = 0.6;
        spec
    };
    vec![resident("RES-A"), resident("RES-B")]
}

/// The interference mix used by the translation-engine comparison: the
/// GUPS aggressor and the JSON FaaS victim, scaled so the pair co-resides
/// with an engine's carve-outs (e.g. a 64 MB Utopia RestSeg) on the
/// small-test machine. Run under the Midgard and Utopia engines — not
/// just the radix baseline — by the `multiprogram` experiment's engine
/// rows.
pub fn multiprogram_mix_engines() -> Vec<WorkloadSpec> {
    vec![
        gups_randacc().scaled_footprint(0.0625), // 32 MB random updates
        faas_json(),                             // 24 MB allocation-bound victim
    ]
}

/// A stress-ng-style sweep of `count` configurations with increasing memory
/// intensity (footprint and memory fraction), used for the Fig. 3 / Fig. 12
/// style studies.
pub fn stress_sweep(count: usize) -> Vec<WorkloadSpec> {
    (0..count)
        .map(|i| {
            let frac = 0.05 + 0.9 * i as f64 / count.max(1) as f64;
            let footprint = 16 * MB + (i as u64 * 24 * MB);
            let mut spec = WorkloadSpec::simple(
                &format!("stress-{i:02}"),
                WorkloadClass::LongRunning,
                footprint.min(2 * GB),
                AccessPattern::UniformRandom,
                60_000,
            );
            spec.memory_fraction = frac.min(0.95);
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::TraceSource;

    #[test]
    fn catalogue_names_are_unique() {
        let mut names = std::collections::BTreeSet::new();
        for spec in all_long_running().into_iter().chain(all_short_running()) {
            assert!(names.insert(spec.name.clone()), "duplicate {}", spec.name);
        }
        assert_eq!(names.len(), 21);
    }

    #[test]
    fn classes_match_table5() {
        assert!(all_long_running()
            .iter()
            .all(|s| s.class == WorkloadClass::LongRunning));
        assert!(all_short_running()
            .iter()
            .all(|s| s.class == WorkloadClass::ShortRunning));
    }

    #[test]
    fn bc_has_the_fig18_vma_profile() {
        let bc = graphbig_bc();
        assert_eq!(bc.regions.len(), 148);
        let largest = bc.regions.iter().map(|r| r.bytes).max().unwrap();
        let small = bc.regions.iter().filter(|r| r.bytes < MB).count();
        assert!(largest >= 512 * MB);
        assert!(small >= 80);
    }

    #[test]
    fn llm_workloads_have_file_backed_weights() {
        for spec in llm_workloads() {
            assert!(spec.regions.iter().any(|r| r.file_backed), "{}", spec.name);
            assert!(spec.regions.iter().any(|r| !r.file_backed), "{}", spec.name);
        }
    }

    #[test]
    fn multiprogram_mix_pairs_aggressor_with_victim() {
        let mix = multiprogram_mix();
        assert_eq!(mix.len(), 2);
        assert_eq!(mix[0].class, WorkloadClass::LongRunning);
        assert_eq!(mix[1].class, WorkloadClass::ShortRunning);
        // Scaled to co-reside in the 256 MB small-test machine.
        let total: u64 = mix.iter().map(|s| s.footprint_bytes()).sum();
        assert!(total < 160 * MB, "mix footprint {total} too large");
        assert!(mix[1].regions.iter().any(|r| r.file_backed));
    }

    #[test]
    fn resident_mix_fits_the_paper_baseline_tlb() {
        let mix = multiprogram_mix_resident();
        assert_eq!(mix.len(), 2);
        // 2048-entry L2 TLB x 4 KiB pages = 8 MB of reach; both working
        // sets together must fit with room to spare.
        let total_pages: u64 = mix.iter().map(|s| s.footprint_bytes() / 4096).sum();
        assert!(
            total_pages <= 2048 / 2,
            "resident mix needs {total_pages} TLB entries"
        );
        for spec in &mix {
            assert_eq!(spec.class, WorkloadClass::LongRunning);
        }
    }

    #[test]
    fn engine_mix_fits_beside_an_engine_carveout() {
        let mix = multiprogram_mix_engines();
        assert_eq!(mix.len(), 2);
        let total: u64 = mix.iter().map(|s| s.footprint_bytes()).sum();
        // 256 MB machine minus a 64 MB RestSeg leaves 192 MB of FlexSeg.
        assert!(total < 128 * MB, "engine mix footprint {total} too large");
    }

    #[test]
    fn stress_sweep_increases_intensity() {
        let sweep = stress_sweep(10);
        assert_eq!(sweep.len(), 10);
        assert!(sweep[9].memory_fraction > sweep[0].memory_fraction);
        assert!(sweep[9].footprint_bytes() > sweep[0].footprint_bytes());
    }

    #[test]
    fn every_catalogue_entry_generates_a_trace() {
        for spec in all_long_running().into_iter().chain(all_short_running()) {
            let mut w = spec.with_instructions(100).build(1);
            let mut n = 0;
            while w.next_instruction().is_some() {
                n += 1;
            }
            assert_eq!(n, 100);
        }
    }
}

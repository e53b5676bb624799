//! The six benchmark workloads: which machine each builds, which trace it
//! runs, and why it was chosen.
//!
//! All are closed loops with one generator per simulated process: the
//! simulator pulls the next instruction only after retiring the previous
//! one. The trace generator is seeded from the benchmark's `--seed`; the
//! simulator receives only the generated instructions.

use mimic_os::{AllocationPolicy, ThpConfig};
use virtuoso::SystemConfig;
use vm_workloads::{catalog, AccessPattern, WorkloadClass, WorkloadSpec};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
const GIB: u64 = 1024 * MIB;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line, copied into
    /// `BENCHMARK.json`).
    pub why: &'static str,
    /// Application instructions one `System` retires, summed over its
    /// processes. Sized on a 2-CPU host for about 1.2–1.6 s of timed region
    /// per repetition.
    pub instructions: u64,
    /// Fresh `System`s one repetition builds and runs, one after another.
    pub systems: u64,
    /// Simulated processes per `System` (process `p` runs `spec(p)`).
    pub processes: usize,
    /// Pre-fault every mapped region before timing starts.
    pub populate: bool,
    /// The footprint exceeds memory, so reclaim must swap pages out; every
    /// other workload must swap none.
    pub swaps: bool,
    /// The workload that runs the same machine, traces and seeds on one host
    /// thread: this one's simulated counters must equal its twin's exactly,
    /// and `virtuoso.thread_speedup` is measured against it.
    pub serial_twin: Option<&'static str>,
    pub config: fn() -> SystemConfig,
    /// The trace specification of process `p`, without its instruction
    /// budget.
    pub spec: fn(usize) -> WorkloadSpec,
}

impl Workload {
    /// Application instructions one repetition must retire at budget
    /// divisor `scale_div` (1 for measurements, 100 for `--smoke`).
    pub fn budget(&self, scale_div: u64) -> u64 {
        self.systems * self.per_process(scale_div) * self.processes as u64
    }

    /// Instruction budget of each process of one `System`.
    pub fn per_process(&self, scale_div: u64) -> u64 {
        (self.instructions / scale_div / self.processes as u64).max(1)
    }

    /// The workloads whose per-layer numbers come from the staged replay
    /// (one core, one process); the others get spans around the `System`
    /// calls and counts from public accessors.
    pub fn single_core(&self) -> bool {
        self.processes == 1
    }
}

fn four_k(mut config: SystemConfig) -> SystemConfig {
    config.os.policy = AllocationPolicy::BuddyFourK;
    config
}

fn fault_touch_config() -> SystemConfig {
    let mut config = four_k(SystemConfig::small_test());
    config.os.memory_bytes = GIB;
    config
}

fn swap_thrash_config() -> SystemConfig {
    let mut config = four_k(SystemConfig::small_test());
    config.os.thp = ThpConfig::disabled();
    config.os.memory_bytes = 256 * MIB;
    config.os.swap_bytes = GIB;
    config.os.populate_page_cache = false;
    config
}

fn mp4_config(host_threads: usize) -> SystemConfig {
    four_k(SystemConfig::small_test())
        .with_cores(4)
        .with_host_threads(host_threads)
}

fn gups_spec(_process: usize) -> WorkloadSpec {
    catalog::gups_randacc().scaled_footprint(0.125)
}

/// Half of the 32 KiB L1D of the stock `SystemConfig::default()` (the
/// paper baseline) `seq_hit` runs on: `small_test`'s 1 KiB L1D / 8 KiB L3
/// hold no stream at all (see README, known deviation 3).
fn seq_spec(_process: usize) -> WorkloadSpec {
    WorkloadSpec::simple(
        "SEQ",
        WorkloadClass::LongRunning,
        16 * KIB,
        AccessPattern::Streaming {
            jump_probability: 0.0,
        },
        0,
    )
}

fn touch_spec(_process: usize) -> WorkloadSpec {
    WorkloadSpec::simple(
        "TOUCH",
        WorkloadClass::ShortRunning,
        640 * MIB,
        AccessPattern::AllocateAndTouch {
            new_page_fraction: 0.05,
        },
        0,
    )
}

fn thrash_spec(_process: usize) -> WorkloadSpec {
    WorkloadSpec::simple(
        "THRASH",
        WorkloadClass::LongRunning,
        320 * MIB,
        AccessPattern::UniformRandom,
        0,
    )
}

fn mp4_spec(process: usize) -> WorkloadSpec {
    let spec = if process.is_multiple_of(2) {
        catalog::gups_randacc()
    } else {
        catalog::graphbig_pr()
    };
    spec.scaled_footprint(1.0 / 32.0)
}

/// The host-thread count of the threaded multi-core workload: the CPUs of
/// the host the budgets were sized on (no workload uses more threads than
/// that).
pub const MP4_HOST_THREADS: usize = 2;

pub static ALL: [Workload; 6] = [
    Workload {
        name: "gups_walk",
        why: "64 MiB uniform random, populated: TLB miss -> walk -> cache miss -> DRAM does the work and mimic_os idles; shows mmu_sim/cache_sim/dram_sim gains",
        instructions: 12_000_000,
        systems: 1,
        processes: 1,
        populate: true,
        swaps: false,
        serial_twin: None,
        config: SystemConfig::small_test,
        spec: gups_spec,
    },
    Workload {
        name: "seq_hit",
        why: "16 KiB sequential on the stock default config, populated: every access hits L0/L1 TLB and L1D, so generator, run loop and core model dominate; the bypass workload for walk/cache/DRAM changes",
        instructions: 40_000_000,
        systems: 1,
        processes: 1,
        populate: true,
        swaps: false,
        serial_twin: None,
        config: SystemConfig::default,
        spec: seq_spec,
    },
    Workload {
        name: "fault_touch",
        why: "640 MiB first-touch on 1 GiB, 4 KiB pages, no reclaim: mimic_os fault path, buddy and kernel-stream injection dominate (the allocation-bound side of the paper)",
        instructions: 8_000_000,
        systems: 1,
        processes: 1,
        populate: false,
        swaps: false,
        serial_twin: None,
        config: fault_touch_config,
        spec: touch_spec,
    },
    Workload {
        name: "swap_thrash",
        why: "320 MiB random on 256 MiB memory: reclaim, swap-out, shootdown and ssd_sim run beside allocation; a fault-path gain that costs reclaim shows here",
        // Capped inside the window where over-commit stays healthy (see
        // README, known deviation 1); three fresh systems make up the time.
        instructions: 500_000,
        systems: 3,
        processes: 1,
        populate: false,
        swaps: true,
        serial_twin: None,
        config: swap_thrash_config,
        spec: thrash_spec,
    },
    Workload {
        name: "mp4_serial",
        why: "4 cores, 8 populated processes (GUPS/PR), 1 host thread: sharded loop, scheduler and per-core frontends with real walk work",
        instructions: 8_000_000,
        systems: 1,
        processes: 8,
        populate: true,
        swaps: false,
        serial_twin: None,
        config: || mp4_config(1),
        spec: mp4_spec,
    },
    Workload {
        name: "mp4_threads2",
        why: "same machine, traces and seeds as mp4_serial on 2 host threads: the epoch-parallel path; simulated counters must equal mp4_serial's exactly",
        instructions: 8_000_000,
        systems: 1,
        processes: 8,
        populate: true,
        swaps: false,
        serial_twin: Some("mp4_serial"),
        config: || mp4_config(MP4_HOST_THREADS),
        spec: mp4_spec,
    },
];

impl Workload {
    /// The serial twin, if this is a threaded workload.
    pub fn twin(&self) -> Option<&'static Workload> {
        self.serial_twin
            .map(|name| find(name).expect("a serial twin names a workload"))
    }
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

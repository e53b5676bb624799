//! System-level configuration: the simulated machine (Table 4 of the paper)
//! and the simulation mode (detailed Virtuoso vs. fixed-latency emulation).

use cache_sim::HierarchyConfig;
use dram_sim::DramConfig;
use mimic_os::{AllocationPolicy, OsConfig, UtopiaConfig};
use mmu_sim::{
    EngineConfig, MidgardConfig, MmuConfig, PageTableKind, RmmConfig, TlbHierarchyConfig,
    UtopiaMmuConfig,
};
use serde::{Deserialize, Serialize};
use sim_core::CoreConfig;
use vm_types::{Cycles, PageSize, PhysAddr};

/// How OS and translation overheads are simulated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum SimulationMode {
    /// The Virtuoso methodology: page walks traverse the memory hierarchy,
    /// page faults are handled by MimicOS and its instruction stream is
    /// injected into the core model.
    #[default]
    Detailed,
    /// The emulation-based baseline (e.g. unmodified Sniper/ChampSim):
    /// page walks and page faults cost fixed latencies and generate no
    /// memory traffic; MimicOS is consulted only functionally.
    Emulation {
        /// Fixed page-table-walk latency charged on every L2 TLB miss.
        fixed_ptw_latency: Cycles,
        /// Fixed page-fault latency charged on every fault.
        fixed_fault_latency: Cycles,
    },
}

impl SimulationMode {
    /// The emulation baseline used in the paper's Fig. 8 comparison: the
    /// fixed PTW latency is set to the average PTW latency of the reference
    /// machine and the fault latency to a canonical 1 µs.
    pub fn emulation_baseline() -> Self {
        SimulationMode::Emulation {
            fixed_ptw_latency: Cycles::new(80),
            fixed_fault_latency: Cycles::new(2900),
        }
    }

    /// `true` for the detailed (Virtuoso) mode.
    pub fn is_detailed(&self) -> bool {
        matches!(self, SimulationMode::Detailed)
    }
}

/// A translation design the paper evaluates, together with what it needs
/// from the kernel: [`SystemConfig::with_design`] sets the engine, the page
/// table and — for RMM and Utopia — the allocation policy as one pair, so a
/// mismatched pair is never written out by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// The conventional TLB + hardware-walked page table (Use Case 1).
    PageTable(PageTableKind),
    /// Midgard's intermediate address space (Use Case 3).
    Midgard,
    /// RMM range translation over eager paging (Use Case 5).
    Rmm,
    /// Utopia: RestSeg walkers over the kernel's restrictive segment of
    /// this geometry (Use Case 4).
    Utopia(UtopiaConfig),
}

impl Design {
    /// Every design, in the paper's order: the four page tables, Midgard,
    /// RMM, and Utopia over a 32 MiB, 16-way RestSeg of 4 KiB pages (the
    /// geometry of the Utopia golden reports, sized for `small_test`).
    pub const ALL: [Design; 7] = [
        Design::PageTable(PageTableKind::Radix),
        Design::PageTable(PageTableKind::ElasticCuckoo),
        Design::PageTable(PageTableKind::HashedOpenAddressing),
        Design::PageTable(PageTableKind::HashedChained),
        Design::Midgard,
        Design::Rmm,
        Design::Utopia(UtopiaConfig::new(32 << 20, 16, PageSize::Size4K)),
    ];

    /// Short label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Design::PageTable(kind) => kind.label(),
            Design::Midgard => "Midgard",
            Design::Rmm => "RMM",
            Design::Utopia(_) => "Utopia",
        }
    }

    /// The same design with a RestSeg of `bytes` (Utopia only; every other
    /// design is returned unchanged) — for sweeps and for machines smaller
    /// than `small_test`.
    pub fn with_restseg_bytes(self, bytes: u64) -> Self {
        match self {
            Design::Utopia(restseg) => Design::Utopia(UtopiaConfig {
                size_bytes: bytes,
                ..restseg
            }),
            other => other,
        }
    }
}

/// Configuration of the whole simulated system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core timing model.
    pub core: CoreConfig,
    /// Cache hierarchy.
    pub caches: HierarchyConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// MMU (TLBs, PWCs, page-table design).
    pub mmu: MmuConfig,
    /// Translation engine the machine runs (conventional page table,
    /// Midgard, RMM or Utopia). The default page-table engine drives the
    /// [`MmuConfig`] exactly as before; the alternative engines layer
    /// their design-specific hardware on top of it.
    pub engine: EngineConfig,
    /// MimicOS configuration.
    pub os: OsConfig,
    /// Simulation mode.
    pub mode: SimulationMode,
    /// Run MimicOS housekeeping (khugepaged, pool refill) every this many
    /// retired application instructions (0 disables housekeeping).
    pub housekeeping_interval: u64,
    /// Run the runtime coherence fence
    /// ([`System::check_invariants`](crate::System::check_invariants))
    /// every this many retired application instructions (0, the default,
    /// disables the fence). The fence cross-checks kernel mapping tables
    /// against all cached translation state and panics on the first
    /// violation; it is a debugging and chaos-testing aid, not part of the
    /// simulated machine.
    pub invariant_check_interval: u64,
    /// Host threads the sharded multi-core loop steps simulated cores on
    /// (clamped to `[1, num_cores]` at run time). This is a *host*
    /// performance knob, not part of the simulated machine: any value
    /// produces bit-identical [`SimulationReport`](crate::report::SimulationReport)s — parallel epochs
    /// defer all shared-state work to a serial barrier replay in
    /// core-index order, so the simulated schedule never depends on host
    /// scheduling. The test-config constructors honour the
    /// `VIRTUOSO_THREADS` environment variable so CI can sweep it.
    pub host_threads: usize,
}

/// Reads the `VIRTUOSO_THREADS` environment knob (defaults to 1).
fn env_host_threads() -> usize {
    std::env::var("VIRTUOSO_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

impl SystemConfig {
    /// The paper's baseline system (Table 4) with the given page-table
    /// design and the detailed simulation mode.
    pub fn paper_baseline(page_table: PageTableKind) -> Self {
        SystemConfig {
            core: CoreConfig::paper_baseline(),
            caches: HierarchyConfig::paper_baseline(),
            dram: DramConfig::ddr4_2400(),
            mmu: MmuConfig {
                tlb: TlbHierarchyConfig::paper_baseline(),
                page_table,
                metadata_base: PhysAddr::new(0x30_0000_0000),
                asid_tlb_tags: true,
            },
            engine: EngineConfig::PageTable,
            os: OsConfig::paper_baseline(),
            mode: SimulationMode::Detailed,
            housekeeping_interval: 100_000,
            invariant_check_interval: 0,
            host_threads: env_host_threads(),
        }
    }

    /// A small, fast configuration for unit tests, integration tests and
    /// examples: small caches/TLBs, 256 MB of memory, no pre-fragmentation.
    pub fn small_test() -> Self {
        SystemConfig {
            core: CoreConfig::paper_baseline(),
            caches: HierarchyConfig::small_test(),
            dram: DramConfig::small_test(),
            mmu: MmuConfig::small_test(PageTableKind::Radix),
            engine: EngineConfig::PageTable,
            os: OsConfig::small_test(),
            mode: SimulationMode::Detailed,
            housekeeping_interval: 10_000,
            invariant_check_interval: 0,
            host_threads: env_host_threads(),
        }
    }

    /// Switches to the emulation-baseline mode (fixed latencies), keeping
    /// everything else identical — the comparison of Fig. 8.
    pub fn with_emulation_baseline(mut self) -> Self {
        self.mode = SimulationMode::emulation_baseline();
        self
    }

    /// Switches the translation design, keeping everything else identical
    /// — the page-table sweep of Use Case 1 and the engine comparisons of
    /// Use Cases 3–5. Sets the engine and, for a page-table design, the
    /// page table the MMU walks; RMM also gets
    /// [`AllocationPolicy::EagerPaging`] (its ranges come from eager
    /// allocation) and Utopia gets [`AllocationPolicy::Utopia`] over the
    /// design's RestSeg (the kernel fills the segment the walkers index).
    /// The other designs keep the configured policy.
    pub fn with_design(mut self, design: Design) -> Self {
        match design {
            Design::PageTable(kind) => {
                self.engine = EngineConfig::PageTable;
                self.mmu.page_table = kind;
            }
            Design::Midgard => self.engine = EngineConfig::Midgard(MidgardConfig::paper_baseline()),
            Design::Rmm => {
                self.engine = EngineConfig::Rmm(RmmConfig::paper_baseline());
                self.os.policy = AllocationPolicy::EagerPaging;
            }
            Design::Utopia(restseg) => {
                self.engine = EngineConfig::Utopia(UtopiaMmuConfig::paper_baseline());
                self.os.policy = AllocationPolicy::Utopia(restseg);
            }
        }
        self
    }

    /// Switches the allocation policy, keeping everything else identical —
    /// the sweep of Use Case 2.
    pub fn with_allocation_policy(mut self, policy: mimic_os::AllocationPolicy) -> Self {
        self.os.policy = policy;
        self
    }

    /// Sets the number of simulated cores, keeping everything else
    /// identical. `1` (the default everywhere) is the single-core model;
    /// larger values shard the translation frontend per core and turn
    /// reclaim invalidations into cross-core shootdown IPIs.
    pub fn with_cores(mut self, num_cores: usize) -> Self {
        self.os.num_cores = num_cores;
        self
    }

    /// Arms the runtime coherence fence to run every `interval` retired
    /// application instructions (0 disables it), keeping everything else
    /// identical.
    pub fn with_invariant_checks(mut self, interval: u64) -> Self {
        self.invariant_check_interval = interval;
        self
    }

    /// Sets the number of host threads the sharded multi-core loop steps
    /// simulated cores on, keeping everything else identical. Reports are
    /// bit-identical for every value — this knob trades host CPU for wall
    /// clock, never simulated behaviour.
    pub fn with_host_threads(mut self, host_threads: usize) -> Self {
        self.host_threads = host_threads.max(1);
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_baseline(PageTableKind::Radix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table4_headlines() {
        let cfg = SystemConfig::paper_baseline(PageTableKind::Radix);
        assert!((cfg.core.frequency.ghz() - 2.9).abs() < 1e-9);
        assert_eq!(cfg.caches.l2.capacity_bytes, 2 * 1024 * 1024);
        assert_eq!(cfg.mmu.tlb.l2.entries, 2048);
        assert_eq!(cfg.os.memory_bytes, 256 * 1024 * 1024 * 1024);
        assert!(cfg.mode.is_detailed());
    }

    #[test]
    fn emulation_baseline_uses_fixed_latencies() {
        let cfg = SystemConfig::small_test().with_emulation_baseline();
        match cfg.mode {
            SimulationMode::Emulation {
                fixed_ptw_latency,
                fixed_fault_latency,
            } => {
                assert!(fixed_ptw_latency.raw() > 0);
                assert!(fixed_fault_latency.raw() > 0);
            }
            SimulationMode::Detailed => panic!("expected emulation mode"),
        }
    }

    #[test]
    fn builders_change_only_their_field() {
        let base = SystemConfig::small_test();
        let ech = base
            .clone()
            .with_design(Design::PageTable(PageTableKind::ElasticCuckoo));
        assert_eq!(ech.mmu.page_table, PageTableKind::ElasticCuckoo);
        assert_eq!(ech.os, base.os);
        let bd = base
            .clone()
            .with_allocation_policy(mimic_os::AllocationPolicy::BuddyFourK);
        assert_eq!(bd.os.policy, mimic_os::AllocationPolicy::BuddyFourK);
        assert_eq!(bd.mmu, base.mmu);
        let mc = base.clone().with_cores(4);
        assert_eq!(mc.os.num_cores, 4);
        assert_eq!(base.os.num_cores, 1);
        assert_eq!(mc.mmu, base.mmu);
    }
}

//! Umbrella crate for the Virtuoso virtual-memory simulation framework.
//!
//! This crate re-exports the public APIs of every workspace member so that
//! the examples and integration tests in this repository (and downstream
//! users who want "everything") can depend on a single crate:
//!
//! * [`virtuoso`] — the simulation framework itself (systems,
//!   configuration, reports);
//! * [`mimic_os`] — the MimicOS userspace kernel;
//! * [`mmu_sim`] — TLBs, page-walk caches and page-table designs;
//! * [`cache_sim`], [`dram_sim`], [`ssd_sim`] — the memory-system substrates;
//! * [`sim_core`] — the core timing model and trace frontends;
//! * [`vm_workloads`] — synthetic workload generators;
//! * [`vm_types`] — shared vocabulary types.
//!
//! # Examples
//!
//! ```
//! use virtuoso_suite::prelude::*;
//!
//! let mut system = System::new(SystemConfig::small_test());
//! system.mmap_anonymous(VirtAddr::new(0x1000_0000), 1 << 20).unwrap();
//! let spec = WorkloadSpec::simple(
//!     "doc", WorkloadClass::ShortRunning, 1 << 20,
//!     AccessPattern::UniformRandom, 2_000,
//! );
//! let report = system.run(&mut spec.build(1), None);
//! assert!(report.instructions > 0);
//! ```

pub use cache_sim;
pub use dram_sim;
pub use mimic_os;
pub use mmu_sim;
pub use sim_core;
pub use ssd_sim;
pub use virtuoso;
pub use vm_types;
pub use vm_workloads;

/// Convenient single-import prelude for examples and quick experiments.
pub mod prelude {
    pub use mimic_os::{
        AllocationPolicy, ExitReason, FaultInjectionConfig, MimicOs, OsConfig, ProcessId, Scheduler,
    };
    pub use mmu_sim::{
        EngineConfig, EngineReport, MidgardConfig, Mmu, MmuConfig, PageTableKind, RmmConfig,
        TranslationEngine, UtopiaMmuConfig,
    };
    pub use sim_core::{Instruction, SliceFrontend, TraceSource};
    pub use virtuoso::{
        Design, MultiProgramReport, OomStats, ProcessExitStatus, ProcessReport, SimulationMode,
        SimulationReport, System, SystemConfig,
    };
    pub use vm_types::{Asid, PageSize, PhysAddr, VirtAddr};
    pub use vm_workloads::{catalog, AccessPattern, WorkloadClass, WorkloadSpec};
}

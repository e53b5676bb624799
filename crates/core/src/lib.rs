//! **Virtuoso**: an imitation-based OS simulation framework for fast and
//! accurate virtual-memory research — the primary contribution of the paper
//! this repository reproduces.
//!
//! Virtuoso couples a lightweight userspace kernel ([`mimic_os::MimicOs`])
//! with an architectural simulator (core model, cache hierarchy, DRAM and
//! SSD models, MMU). In the paper the two run as separate processes and
//! talk over shared-memory channels; here they share one address space,
//! so the kernel boundary is a plain call:
//!
//! * **functional** — [`mimic_os::MimicOs::handle_page_fault`] returns a
//!   [`mimic_os::PageFaultOutcome`] with the established mappings;
//! * **timing** — the outcome's [`mimic_os::KernelInstructionStream`] is
//!   injected into the core model, so the OS work is charged for latency,
//!   cache pollution and DRAM contention.
//!
//! The [`System`] type assembles the full simulated machine and runs
//! workloads expressed as [`sim_core::TraceSource`]s. Two simulation modes
//! are provided:
//!
//! * [`SimulationMode::Detailed`] — the Virtuoso methodology (walks, faults
//!   and kernel streams are simulated in detail);
//! * [`SimulationMode::Emulation`] — the "baseline Sniper" methodology the
//!   paper compares against (fixed page-walk and page-fault latencies).
//!
//! # Examples
//!
//! ```
//! use virtuoso::{SimulationMode, System, SystemConfig};
//! use sim_core::{Instruction, SliceFrontend};
//! use vm_types::VirtAddr;
//!
//! let mut config = SystemConfig::small_test();
//! config.mode = SimulationMode::Detailed;
//! let mut system = System::new(config);
//! system.mmap_anonymous(VirtAddr::new(0x1000_0000), 4 * 1024 * 1024).unwrap();
//!
//! let trace: Vec<Instruction> = (0..1000)
//!     .map(|i| Instruction::load(VirtAddr::new(0x400 + i * 4), VirtAddr::new(0x1000_0000 + i * 64)))
//!     .collect();
//! let report = system.run(&mut SliceFrontend::new("quickstart", trace), None);
//! assert_eq!(report.instructions, 1000);
//! assert!(report.ipc > 0.0);
//! ```

pub mod config;
mod epoch;
pub mod report;
pub mod system;
pub mod validation;

pub use config::{Design, SimulationMode, SystemConfig};
pub use epoch::EpochStats;
pub use report::{
    CoreIpiStats, MultiProgramReport, OomStats, ProcessExitStatus, ProcessReport, ShootdownStats,
    SimulationReport,
};
pub use system::System;
pub use validation::{accuracy_percent, latency_distribution_similarity, ReferenceMachine};

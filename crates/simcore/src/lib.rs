//! The trace-driven core timing model and frontend abstractions used by the
//! Virtuoso framework.
//!
//! The core model mirrors the role of Sniper/ChampSim's core models in the
//! paper: it consumes an instruction stream from a *frontend* (a trace
//! generator in this reproduction), charges non-memory instructions at the
//! core's issue rate, charges memory instructions with the latency the
//! memory system reports (partially overlapped according to a configurable
//! memory-level-parallelism factor), and accepts *injected kernel
//! instruction streams* from MimicOS — the mechanism at the heart of the paper's methodology.
//!
//! # Examples
//!
//! ```
//! use sim_core::{CoreConfig, CoreModel};
//! use vm_types::Cycles;
//!
//! let mut core = CoreModel::new(CoreConfig::paper_baseline());
//! core.retire_compute(100);
//! core.retire_memory(Cycles::new(200));
//! assert!(core.cycles().raw() > 0);
//! assert_eq!(core.instructions(), 101);
//! ```

#![deny(missing_docs)]

pub mod core_model;
pub mod frontend;

pub use core_model::{CoreConfig, CoreModel, CoreStats};
pub use frontend::{Instruction, SliceFrontend, TraceSource};

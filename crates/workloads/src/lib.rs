//! Synthetic workload generators imitating the benchmark suites used in the
//! Virtuoso paper's evaluation (Table 5).
//!
//! **Substitution note (`docs/ARCHITECTURE.md`, "Substitutions"):** the
//! paper runs real binaries (GraphBIG, XSBench, GUPS, FaaS functions,
//! llama.cpp inference, image kernels). The VM subsystem, however, only
//! observes their *address and allocation behaviour*. Each generator here
//! produces an instruction/access stream with the published characteristics
//! of its suite — footprint, locality, TLB pressure, allocation pattern and
//! VMA structure — which is what the paper's experiments exercise.
//!
//! Two kinds of artifacts are produced:
//!
//! * an address-trace frontend implementing [`sim_core::TraceSource`]
//!   ([`SyntheticWorkload`]), fed to `virtuoso::System`;
//! * a memory layout ([`WorkloadSpec::regions`]) that the harness uses to
//!   `mmap` the process before the run (including the BC-style VMA profile
//!   of Fig. 18).
//!
//! # Examples
//!
//! ```
//! use vm_workloads::{catalog, WorkloadClass};
//! use sim_core::TraceSource;
//!
//! let spec = catalog::graphbig_bc();
//! assert_eq!(spec.class, WorkloadClass::LongRunning);
//! let mut workload = spec.build(7);
//! assert!(workload.next_instruction().is_some());
//! ```

pub mod catalog;
pub mod generator;
pub mod spec;

pub use catalog::{all_long_running, all_short_running, multiprogram_mix, stress_sweep};
pub use generator::SyntheticWorkload;
pub use spec::{AccessPattern, MemoryRegion, WorkloadClass, WorkloadSpec};

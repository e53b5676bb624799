//! The benchmark harness: one experiment function per table/figure of the
//! Virtuoso paper's evaluation section, shared by the `figXX_*` binaries and
//! the Criterion benches.
//!
//! Every experiment returns a printable table of rows (so the binaries stay
//! one-liners) and uses deliberately scaled-down instruction budgets so the
//! whole suite regenerates on a laptop in minutes. Pass larger budgets
//! through the `*_with_scale` variants for higher-fidelity runs.

// The harness measures host wall time on purpose (Figs. 11/12);
// `clippy.toml`'s clock ban is for crates that hold simulation state.
#![allow(clippy::disallowed_types)]

pub mod experiments;
pub mod runner;

pub use runner::{
    cell_seed, jobs_from_args, map_spec_regions, run_cells, run_multiprogram_specs, run_spec,
    run_spec_with_config, steady_state_overheads, ExperimentCell, ExperimentTable,
};

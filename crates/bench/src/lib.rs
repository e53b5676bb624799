//! The benchmark harness: one experiment function per table/figure of the
//! Virtuoso paper's evaluation section, listed in
//! [`experiments::FIGURES`] and run by the `figs` binary, plus the helpers
//! the Criterion benches share.
//!
//! Every experiment returns a printable table of rows and uses
//! deliberately scaled-down instruction budgets so the whole suite
//! regenerates on a laptop in minutes; a larger `scale` multiplies them for
//! higher-fidelity runs. Each figure maps its independent simulations
//! through [`par_map`], so its table is the same at any number of host
//! threads.

// The harness measures host wall time on purpose (Figs. 11/12);
// `clippy.toml`'s clock ban is for crates that hold simulation state.
#![allow(clippy::disallowed_types)]

pub mod experiments;
pub mod runner;

pub use experiments::{Figure, FIGURES};
pub use runner::{
    cell_seed, map_spec_regions, par_map, run_multiprogram_specs, run_spec, run_spec_with_config,
    steady_state_overheads, ExperimentTable,
};

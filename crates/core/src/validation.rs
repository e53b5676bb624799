//! Validation utilities: the calibrated reference machine that stands in
//! for the paper's real Intel Xeon Gold 6226R measurements, and the accuracy
//! metrics used by the validation figures (Figs. 8–10).
//!
//! **Substitution note (see `docs/ARCHITECTURE.md`, "Substitutions"):** the
//! paper validates Virtuoso against hardware performance counters and
//! `ftrace` measurements of a real server. Without that hardware, this
//! reproduction uses a *reference machine model*: the detailed simulator run
//! at its highest-fidelity configuration at another seed (that section says
//! what the accuracy columns then measure). Accuracy numbers are
//! computed the same way the paper computes them: `1 - |est - ref| / ref`
//! for scalar metrics and cosine similarity for latency series.

use serde::{Deserialize, Serialize};
use vm_types::stats::{accuracy, cosine_similarity};

/// Reference (ground-truth) figures for one workload, playing the role of
/// the real-system measurement in the validation experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceMachine {
    /// Workload name.
    pub workload: String,
    /// Reference IPC.
    pub ipc: f64,
    /// Reference L2 TLB MPKI.
    pub l2_tlb_mpki: f64,
    /// Reference average page-table-walk latency in cycles.
    pub avg_ptw_latency_cycles: f64,
    /// Reference page-fault latency series (nanoseconds, in fault order).
    pub fault_latency_series_ns: Vec<f64>,
}

impl ReferenceMachine {
    /// Builds a reference record.
    pub fn new(workload: &str, ipc: f64, l2_tlb_mpki: f64, avg_ptw_latency_cycles: f64) -> Self {
        ReferenceMachine {
            workload: workload.to_string(),
            ipc,
            l2_tlb_mpki,
            avg_ptw_latency_cycles,
            fault_latency_series_ns: Vec::new(),
        }
    }

    /// Attaches a fault-latency series for cosine-similarity validation.
    pub fn with_fault_series(mut self, series: Vec<f64>) -> Self {
        self.fault_latency_series_ns = series;
        self
    }

    /// IPC estimation accuracy of `estimated_ipc` against this reference,
    /// in percent (the Fig. 8 metric).
    pub fn ipc_accuracy_percent(&self, estimated_ipc: f64) -> f64 {
        accuracy(estimated_ipc, self.ipc) * 100.0
    }

    /// MPKI estimation accuracy in percent (Fig. 10 top).
    pub fn mpki_accuracy_percent(&self, estimated_mpki: f64) -> f64 {
        accuracy(estimated_mpki, self.l2_tlb_mpki) * 100.0
    }

    /// PTW-latency estimation accuracy in percent (Fig. 10 bottom).
    pub fn ptw_accuracy_percent(&self, estimated_ptw_cycles: f64) -> f64 {
        accuracy(estimated_ptw_cycles, self.avg_ptw_latency_cycles) * 100.0
    }

    /// Cosine similarity between an estimated fault-latency series and the
    /// reference series (the Fig. 9 metric).
    pub fn fault_series_similarity(&self, estimated_series_ns: &[f64]) -> f64 {
        cosine_similarity(estimated_series_ns, &self.fault_latency_series_ns)
    }
}

/// Accuracy of an estimate against a reference, in percent, clamped to
/// `[0, 100]` — the formulation the paper's validation figures use.
pub fn accuracy_percent(estimate: f64, reference: f64) -> f64 {
    accuracy(estimate, reference) * 100.0
}

/// Cosine similarity between two latency series (re-exported convenience
/// wrapper around [`vm_types::stats::cosine_similarity`]).
pub fn cosine_similarity_series(a: &[f64], b: &[f64]) -> f64 {
    cosine_similarity(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_percent_matches_paper_formulation() {
        assert!((accuracy_percent(0.66, 1.0) - 66.0).abs() < 1e-9);
        assert_eq!(accuracy_percent(3.0, 1.0), 0.0);
        assert_eq!(accuracy_percent(1.0, 1.0), 100.0);
    }

    #[test]
    fn reference_machine_scores_estimates() {
        let reference = ReferenceMachine::new("BC", 0.30, 40.0, 120.0)
            .with_fault_series(vec![1000.0, 2000.0, 50_000.0]);
        assert!(reference.ipc_accuracy_percent(0.24) > 75.0);
        assert!(reference.mpki_accuracy_percent(48.0) >= 80.0);
        assert!(reference.ptw_accuracy_percent(102.0) >= 85.0);
        let similar = reference.fault_series_similarity(&[1100.0, 1900.0, 52_000.0]);
        assert!(similar > 0.99);
        let dissimilar = reference.fault_series_similarity(&[50_000.0, 50.0, 10.0]);
        assert!(dissimilar < similar);
    }

    #[test]
    fn perfect_estimate_is_100_percent_accurate() {
        let r = ReferenceMachine::new("BFS", 0.5, 20.0, 90.0);
        assert_eq!(r.ipc_accuracy_percent(0.5), 100.0);
    }
}

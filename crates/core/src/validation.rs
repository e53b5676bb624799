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
//! for scalar metrics and cosine similarity for latency distributions.

use serde::{Deserialize, Serialize};
use vm_types::stats::{accuracy, cosine_similarity};
use vm_types::LatencyStats;

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
}

impl ReferenceMachine {
    /// Builds a reference record.
    pub fn new(workload: &str, ipc: f64, l2_tlb_mpki: f64, avg_ptw_latency_cycles: f64) -> Self {
        ReferenceMachine {
            workload: workload.to_string(),
            ipc,
            l2_tlb_mpki,
            avg_ptw_latency_cycles,
        }
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
}

/// Accuracy of an estimate against a reference, in percent, clamped to
/// `[0, 100]` — the formulation the paper's validation figures use.
pub fn accuracy_percent(estimate: f64, reference: f64) -> f64 {
    accuracy(estimate, reference) * 100.0
}

/// Cosine similarity between two latency distributions (the Fig. 9
/// metric): their count vectors, aligned on the union of their values. It
/// compares how often each latency occurs, not the order the faults came in.
pub fn latency_distribution_similarity(a: &LatencyStats, b: &LatencyStats) -> f64 {
    let mut values: Vec<f64> = a
        .counts()
        .iter()
        .chain(b.counts())
        .map(|&(v, _)| v)
        .collect();
    values.sort_by(f64::total_cmp);
    values.dedup_by(|x, y| x.total_cmp(y).is_eq());
    let counts = |lat: &LatencyStats| -> Vec<f64> {
        let counts = lat.counts();
        values
            .iter()
            .map(|v| {
                counts
                    .binary_search_by(|(w, _)| w.total_cmp(v))
                    .map_or(0.0, |i| counts[i].1 as f64)
            })
            .collect()
    };
    cosine_similarity(&counts(a), &counts(b))
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
        let reference = ReferenceMachine::new("BC", 0.30, 40.0, 120.0);
        assert!(reference.ipc_accuracy_percent(0.24) > 75.0);
        assert!(reference.mpki_accuracy_percent(48.0) >= 80.0);
        assert!(reference.ptw_accuracy_percent(102.0) >= 85.0);
    }

    #[test]
    fn distribution_similarity_ignores_fault_order() {
        let lat = |samples: &[f64]| {
            let mut lat = LatencyStats::new();
            for &v in samples {
                lat.record(v);
            }
            lat
        };
        let reference = lat(&[1000.0, 2000.0, 2000.0, 50_000.0]);
        let reordered = lat(&[2000.0, 50_000.0, 1000.0, 2000.0]);
        assert!((latency_distribution_similarity(&reference, &reordered) - 1.0).abs() < 1e-12);
        // [1, 2, 0, 1] against [1, 0, 3, 1] over the values 1000, 2000,
        // 3000 and 50 000: a dot product of 2 over norms sqrt(6) and sqrt(11).
        let shifted = lat(&[1000.0, 3000.0, 3000.0, 3000.0, 50_000.0]);
        let expected = 2.0 / (6.0f64.sqrt() * 11.0f64.sqrt());
        assert!((latency_distribution_similarity(&reference, &shifted) - expected).abs() < 1e-12);
        assert_eq!(
            latency_distribution_similarity(&reference, &LatencyStats::new()),
            0.0
        );
    }

    #[test]
    fn perfect_estimate_is_100_percent_accurate() {
        let r = ReferenceMachine::new("BFS", 0.5, 20.0, 90.0);
        assert_eq!(r.ipc_accuracy_percent(0.5), 100.0);
    }
}

//! DRAM access statistics with per-requestor attribution.

use serde::{Deserialize, Serialize};
use vm_types::{Counter, Cycles, Requestor};

/// Classification of a DRAM access with respect to the bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowBufferOutcome {
    /// The requested row was already open.
    Hit,
    /// The bank was idle; the row had to be activated.
    Miss,
    /// A different row was open; it had to be precharged first.
    Conflict,
}

/// Per-requestor hit/miss/conflict counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RequestorStats {
    /// Row-buffer hits.
    pub hits: Counter,
    /// Row-buffer misses (bank idle).
    pub misses: Counter,
    /// Row-buffer conflicts (row replaced).
    pub conflicts: Counter,
}

impl RequestorStats {
    /// Total accesses by this requestor.
    pub fn total(&self) -> u64 {
        self.hits.get() + self.misses.get() + self.conflicts.get()
    }
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DramStats {
    /// Indexed by [`DramStats::requestor_index`] (the order of
    /// [`Requestor::ALL`]). A dense array: the seed's
    /// `BTreeMap<String, _>` built a fresh `String` key on every single
    /// DRAM access — the hottest allocation in the whole simulator.
    per_requestor: [RequestorStats; 4],
    /// Summed access latency in cycles; with [`DramStats::total_accesses`]
    /// as the count it gives the exact mean for one integer add per access.
    latency_sum: u64,
    /// Read accesses.
    pub reads: Counter,
    /// Write accesses.
    pub writes: Counter,
}

impl DramStats {
    /// Index of a requestor into the dense per-requestor table.
    #[inline]
    fn requestor_index(requestor: Requestor) -> usize {
        match requestor {
            Requestor::Application => 0,
            Requestor::PageTableWalker => 1,
            Requestor::Kernel => 2,
            Requestor::Prefetcher => 3,
        }
    }

    #[inline]
    fn entry(&mut self, requestor: Requestor) -> &mut RequestorStats {
        &mut self.per_requestor[Self::requestor_index(requestor)]
    }

    fn get(&self, requestor: Requestor) -> &RequestorStats {
        &self.per_requestor[Self::requestor_index(requestor)]
    }

    /// Records one access outcome.
    pub fn record(&mut self, requestor: Requestor, outcome: RowBufferOutcome, latency: Cycles) {
        let entry = self.entry(requestor);
        match outcome {
            RowBufferOutcome::Hit => entry.hits.inc(),
            RowBufferOutcome::Miss => entry.misses.inc(),
            RowBufferOutcome::Conflict => entry.conflicts.inc(),
        }
        self.latency_sum += latency.raw();
    }

    /// Total row-buffer hits across all requestors.
    pub fn hits(&self) -> u64 {
        self.per_requestor.iter().map(|s| s.hits.get()).sum()
    }

    /// Total row-buffer misses across all requestors.
    pub fn misses(&self) -> u64 {
        self.per_requestor.iter().map(|s| s.misses.get()).sum()
    }

    /// Total row-buffer conflicts across all requestors.
    pub fn conflicts(&self) -> u64 {
        self.per_requestor.iter().map(|s| s.conflicts.get()).sum()
    }

    /// Row-buffer conflicts attributed to a given requestor (the requestor
    /// that *suffered*/caused the precharge by issuing the access).
    pub fn conflicts_by(&self, requestor: Requestor) -> u64 {
        self.get(requestor).conflicts.get()
    }

    /// Accesses issued by a given requestor.
    pub fn accesses_by(&self, requestor: Requestor) -> u64 {
        self.get(requestor).total()
    }

    /// Conflicts attributed to address-translation metadata traffic
    /// (page-table walker requests) — the category Fig. 21 reports.
    pub fn translation_metadata_conflicts(&self) -> u64 {
        self.conflicts_by(Requestor::PageTableWalker)
    }

    /// Total number of DRAM accesses.
    pub fn total_accesses(&self) -> u64 {
        self.per_requestor.iter().map(|s| s.total()).sum()
    }

    /// Row-buffer hit rate over all accesses (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Average access latency in cycles.
    pub fn average_latency_cycles(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.latency_sum as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_attributes_to_requestor() {
        let mut s = DramStats::default();
        s.record(
            Requestor::Application,
            RowBufferOutcome::Hit,
            Cycles::new(50),
        );
        s.record(
            Requestor::PageTableWalker,
            RowBufferOutcome::Conflict,
            Cycles::new(100),
        );
        s.record(Requestor::Kernel, RowBufferOutcome::Miss, Cycles::new(70));
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.conflicts(), 1);
        assert_eq!(s.conflicts_by(Requestor::PageTableWalker), 1);
        assert_eq!(s.translation_metadata_conflicts(), 1);
        assert_eq!(s.accesses_by(Requestor::Kernel), 1);
        assert_eq!(s.total_accesses(), 3);
    }

    #[test]
    fn hit_rate_and_latency() {
        let mut s = DramStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.record(
            Requestor::Application,
            RowBufferOutcome::Hit,
            Cycles::new(40),
        );
        s.record(
            Requestor::Application,
            RowBufferOutcome::Miss,
            Cycles::new(80),
        );
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.average_latency_cycles() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_requestor_counts_are_zero() {
        let s = DramStats::default();
        assert_eq!(s.conflicts_by(Requestor::Prefetcher), 0);
        assert_eq!(s.accesses_by(Requestor::Application), 0);
    }
}

//! A DDR4-style DRAM timing model with row-buffer conflict attribution.
//!
//! The model is inspired by the refactored Ramulator-based DRAM model the
//! paper integrates into Sniper. It tracks, per bank, the currently open row
//! and classifies every access as a row-buffer **hit** (row already open),
//! **miss** (bank idle, row must be activated) or **conflict** (a different
//! row is open and must be precharged first). Latency is derived from DDR4
//! timing parameters (`tRCD`, `tCL`, `tRP`) plus a queueing component that
//! grows with bank contention.
//!
//! Every access is tagged with a [`Requestor`](vm_types::Requestor), so the
//! statistics can attribute row-buffer conflicts to application data,
//! page-table-walk metadata or kernel traffic. That attribution drives the
//! paper's Figure 14 (hash-based page tables increase/decrease DRAM
//! conflicts) and Figure 21 (RMM removes most translation-metadata
//! conflicts).
//!
//! # Examples
//!
//! ```
//! use dram_sim::{DramConfig, DramModel};
//! use vm_types::{AccessType, MemoryAccess, PhysAddr, Requestor};
//!
//! let mut dram = DramModel::new(DramConfig::ddr4_2400());
//! let access = MemoryAccess::physical(PhysAddr::new(0x1000), AccessType::Read, Requestor::Application);
//! let lat = dram.access(&access);
//! assert!(lat.raw() > 0);
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod mapping;
pub mod stats;

pub use config::DramConfig;
pub use mapping::{AddressMapping, DramLocation};
pub use stats::{DramStats, RowBufferOutcome};

use vm_types::{Cycles, MemoryAccess};

/// State of one DRAM bank: the row currently latched in its row buffer, if
/// any, and the cycle at which the bank becomes ready for the next command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BankState {
    open_row: Option<u64>,
    ready_at: Cycles,
}

/// The DRAM device model.
///
/// The model is *latency generating*: callers present one access at a time
/// and receive the access latency in core cycles; an internal controller
/// clock sequences bank readiness so that back-to-back accesses to the same
/// bank observe queueing delay.
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    mapping: AddressMapping,
    banks: Vec<BankState>,
    stats: DramStats,
    now: Cycles,
}

impl DramModel {
    /// Creates a DRAM model from a configuration.
    pub fn new(config: DramConfig) -> Self {
        let mapping = AddressMapping::new(&config);
        let total_banks = config.total_banks();
        DramModel {
            config,
            mapping,
            banks: vec![BankState::default(); total_banks],
            stats: DramStats::default(),
            now: Cycles::ZERO,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets statistics (but not bank state).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Performs one access and returns its latency in core cycles.
    ///
    /// The latency is the sum of:
    /// * bank-readiness wait (queueing behind a previous access to the same
    ///   bank),
    /// * `tRP` if a conflicting row must be precharged,
    /// * `tRCD` if a row must be activated,
    /// * `tCL` (column access / CAS),
    /// * the fixed on-chip/controller overhead from the configuration.
    pub fn access(&mut self, access: &MemoryAccess) -> Cycles {
        let loc = self.mapping.locate(access.paddr);
        let bank_idx = loc.flat_bank_index(&self.config);
        let bank = &mut self.banks[bank_idx];

        // Queueing: if the bank is still busy from an earlier access, wait.
        // The wait is capped at a few conflict latencies, modelling the
        // finite memory-controller queue whose backpressure throttles the
        // request stream instead of letting per-bank backlog grow without
        // bound (this model has no global notion of inter-arrival time).
        let max_wait = self.config.conflict_latency() * 4;
        let queue_wait = bank.ready_at.saturating_sub(self.now).min(max_wait);

        let (outcome, array_latency) = match bank.open_row {
            Some(row) if row == loc.row => (RowBufferOutcome::Hit, self.config.t_cl),
            Some(_) => (
                RowBufferOutcome::Conflict,
                self.config.t_rp + self.config.t_rcd + self.config.t_cl,
            ),
            None => (RowBufferOutcome::Miss, self.config.t_rcd + self.config.t_cl),
        };

        bank.open_row = Some(loc.row);
        let service = array_latency + self.config.controller_overhead;
        bank.ready_at = (self.now + queue_wait + service).min(self.now + max_wait + service);

        self.stats
            .record(access.requestor, outcome, queue_wait + service);
        if access.kind.is_write() {
            self.stats.writes.inc();
        } else {
            self.stats.reads.inc();
        }

        self.now += self.config.command_spacing;

        queue_wait + service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_types::{AccessType, PhysAddr, Requestor};

    fn read(paddr: u64, req: Requestor) -> MemoryAccess {
        MemoryAccess::physical(PhysAddr::new(paddr), AccessType::Read, req)
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut dram = DramModel::new(DramConfig::ddr4_2400());
        dram.access(&read(0x4000, Requestor::Application));
        assert_eq!(dram.stats().misses(), 1);
        assert_eq!(dram.stats().hits(), 0);
        assert_eq!(dram.stats().conflicts(), 0);
    }

    #[test]
    fn same_row_hits_after_first_access() {
        let mut dram = DramModel::new(DramConfig::ddr4_2400());
        dram.access(&read(0x1000, Requestor::Application));
        // Same cache line: guaranteed to map to the same bank and row.
        let hit_latency = dram.access(&read(0x1010, Requestor::Application));
        assert_eq!(dram.stats().hits(), 1);
        // The hit still pays bank queueing behind the first access, but its
        // array latency is bounded by the conflict latency.
        let cfg = DramConfig::ddr4_2400();
        assert!(hit_latency < cfg.conflict_latency() * 2);
    }

    #[test]
    fn different_row_same_bank_is_a_conflict() {
        let cfg = DramConfig::ddr4_2400();
        let mut dram = DramModel::new(cfg.clone());
        let row_stride = cfg.row_bytes() * cfg.total_banks() as u64;
        dram.access(&read(0x0, Requestor::Application));
        dram.access(&read(row_stride, Requestor::PageTableWalker));
        assert_eq!(dram.stats().conflicts(), 1);
        assert_eq!(
            dram.stats().conflicts_by(Requestor::PageTableWalker),
            1,
            "the conflict must be attributed to the PT walker"
        );
    }

    #[test]
    fn conflict_latency_exceeds_hit_latency() {
        let cfg = DramConfig::ddr4_2400();
        let row_stride = cfg.row_bytes() * cfg.total_banks() as u64;

        let mut dram = DramModel::new(cfg.clone());
        dram.access(&read(0x0, Requestor::Application));
        let hit = dram.access(&read(0x20, Requestor::Application));

        let mut dram2 = DramModel::new(cfg);
        dram2.access(&read(0x0, Requestor::Application));
        let conflict = dram2.access(&read(row_stride, Requestor::Application));
        assert!(
            conflict > hit,
            "conflict latency {conflict} must exceed hit latency {hit}"
        );
    }

    #[test]
    fn reads_and_writes_are_counted() {
        let mut dram = DramModel::new(DramConfig::ddr4_2400());
        dram.access(&read(0x0, Requestor::Application));
        dram.access(&MemoryAccess::physical(
            PhysAddr::new(0x40),
            AccessType::Write,
            Requestor::Kernel,
        ));
        assert_eq!(dram.stats().reads.get(), 1);
        assert_eq!(dram.stats().writes.get(), 1);
    }

    #[test]
    fn reset_stats_clears_counts_but_keeps_bank_state() {
        let mut dram = DramModel::new(DramConfig::ddr4_2400());
        dram.access(&read(0x0, Requestor::Application));
        dram.reset_stats();
        assert_eq!(dram.stats().total_accesses(), 0);
        dram.access(&read(0x20, Requestor::Application));
        assert_eq!(dram.stats().hits(), 1);
    }

    #[test]
    fn accesses_spread_across_banks() {
        let cfg = DramConfig::ddr4_2400();
        let banks = cfg.total_banks() as u64;
        let mut dram = DramModel::new(cfg);
        for i in 0..banks {
            dram.access(&read(i * 64, Requestor::Application));
        }
        let occupied = dram.banks.iter().filter(|b| b.open_row.is_some()).count();
        assert!(
            occupied > 1,
            "expected interleaving across banks, got {occupied}"
        );
    }

    #[test]
    fn average_latency_is_positive_after_traffic() {
        let mut dram = DramModel::new(DramConfig::ddr4_2400());
        for i in 0..128u64 {
            dram.access(&read(i * 64, Requestor::Application));
        }
        assert!(dram.stats().average_latency_cycles() > 0.0);
        assert_eq!(dram.stats().total_accesses(), 128);
    }
}

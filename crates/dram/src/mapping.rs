//! Physical-address-to-DRAM-coordinate mapping.
//!
//! The mapping interleaves consecutive cache lines across channels and banks
//! (a "bank XOR" style mapping similar to what Ramulator's default uses) so
//! that streaming accesses exploit bank-level parallelism while accesses with
//! large strides tend to collide on the same bank — the behaviour that makes
//! page-table walks interfere with application data in the paper's Fig. 14.

use crate::config::DramConfig;
use serde::{Deserialize, Serialize};
use vm_types::{FastDiv, PhysAddr, CACHE_LINE_BYTES};

/// A physical location inside the DRAM device: channel, rank, bank and row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramLocation {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (cache-line) index within the row.
    pub column: u64,
}

impl DramLocation {
    /// Flattens (channel, rank, bank) into a single bank index in
    /// `[0, config.total_banks())`.
    pub fn flat_bank_index(&self, config: &DramConfig) -> usize {
        (self.channel * config.ranks_per_channel + self.rank) * config.banks_per_rank + self.bank
    }
}

/// Address-interleaving function from physical addresses to DRAM locations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMapping {
    channels: FastDiv,
    ranks: FastDiv,
    banks: FastDiv,
    lines_per_row: FastDiv,
}

impl AddressMapping {
    /// Builds the mapping for a DRAM configuration.
    pub fn new(config: &DramConfig) -> Self {
        AddressMapping {
            channels: FastDiv::new(config.channels as u64),
            ranks: FastDiv::new(config.ranks_per_channel as u64),
            banks: FastDiv::new(config.banks_per_rank as u64),
            lines_per_row: FastDiv::new((config.row_bytes_per_bank / CACHE_LINE_BYTES).max(1)),
        }
    }

    /// Maps a physical address to its DRAM location.
    ///
    /// Bit layout (from least significant): cache-line offset, channel, bank,
    /// rank, column, row — a line-interleaved mapping that spreads streaming
    /// traffic across channels and banks while large-stride traffic (such as
    /// page-table walks) revisits the same banks with different rows.
    pub fn locate(&self, paddr: PhysAddr) -> DramLocation {
        let line = paddr.raw() / CACHE_LINE_BYTES;
        let channel = self.channels.rem(line) as usize;
        let line = self.channels.div(line);
        let bank = self.banks.rem(line) as usize;
        let line = self.banks.div(line);
        let rank = self.ranks.rem(line) as usize;
        let line = self.ranks.div(line);
        let column = self.lines_per_row.rem(line);
        let row = self.lines_per_row.div(line);
        DramLocation {
            channel,
            rank,
            bank,
            row,
            column,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> (DramConfig, AddressMapping) {
        let cfg = DramConfig::ddr4_2400();
        let map = AddressMapping::new(&cfg);
        (cfg, map)
    }

    #[test]
    fn locations_are_within_bounds() {
        let (cfg, map) = mapping();
        for i in 0..10_000u64 {
            let loc = map.locate(PhysAddr::new(i * 64 * 7 + 13));
            assert!(loc.channel < cfg.channels);
            assert!(loc.rank < cfg.ranks_per_channel);
            assert!(loc.bank < cfg.banks_per_rank);
            assert!(loc.column < cfg.row_bytes_per_bank / CACHE_LINE_BYTES);
            assert!(loc.flat_bank_index(&cfg) < cfg.total_banks());
        }
    }

    #[test]
    fn same_cache_line_maps_to_same_location() {
        let (_, map) = mapping();
        let a = map.locate(PhysAddr::new(0x12345));
        let b = map.locate(PhysAddr::new(0x12345 & !63));
        assert_eq!(a, b);
    }

    #[test]
    fn consecutive_lines_alternate_channels() {
        let (cfg, map) = mapping();
        if cfg.channels > 1 {
            let a = map.locate(PhysAddr::new(0));
            let b = map.locate(PhysAddr::new(64));
            assert_ne!(a.channel, b.channel);
        }
    }

    #[test]
    fn streaming_accesses_use_many_banks() {
        let (cfg, map) = mapping();
        let mut banks = std::collections::BTreeSet::new();
        for i in 0..256u64 {
            banks.insert(map.locate(PhysAddr::new(i * 64)).flat_bank_index(&cfg));
        }
        assert!(banks.len() >= cfg.total_banks() / 2);
    }

    #[test]
    fn distinct_rows_for_far_apart_addresses() {
        let (cfg, map) = mapping();
        let span = cfg.row_bytes() * cfg.total_banks() as u64 * 4;
        let a = map.locate(PhysAddr::new(0));
        let b = map.locate(PhysAddr::new(span));
        assert_ne!((a.row, a.column), (b.row, b.column));
    }
}

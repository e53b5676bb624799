//! The swap subsystem: swap-slot management, the swap cache, and the
//! interaction with the SSD model for swap-in/swap-out — the machinery
//! behind the paper's swapping study (Fig. 20).

use crate::kernel_stream::KernelInstructionStream;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vm_types::{Counter, Nanoseconds, PhysAddr, VmError, VmResult};

/// Statistics for the swap subsystem.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SwapStats {
    /// Pages written out to the swap device.
    pub swap_outs: Counter,
    /// Pages read back in from the swap device.
    pub swap_ins: Counter,
    /// Swap-cache hits (page found in memory without a device read).
    pub swap_cache_hits: Counter,
    /// Total nanoseconds spent on swap device I/O.
    pub total_io_ns: f64,
}

/// Manages swap slots on the swap device and the in-memory swap cache.
///
/// # Examples
///
/// ```
/// use mimic_os::SwapManager;
/// use ssd_sim::{SsdConfig, SsdModel};
/// use vm_types::PhysAddr;
///
/// let mut ssd = SsdModel::new(SsdConfig::nvme_datacenter());
/// let mut swap = SwapManager::new(4 * 1024 * 1024 * 1024); // 4 GB swap
/// let (slot, out_io) = swap.swap_out(PhysAddr::new(0x1000), &mut ssd).unwrap();
/// assert!(out_io.as_micros() > 0.0);
/// // The page is still in the swap cache, so swapping it back in is free.
/// let (_frame, in_io) = swap.swap_in(slot, PhysAddr::new(0x2000), &mut ssd).unwrap();
/// assert_eq!(in_io.as_micros(), 0.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwapManager {
    total_slots: u64,
    next_free: u64,
    free_slots: Vec<u64>,
    /// Swap cache: slot → frame still resident in memory (dirty data not yet
    /// discarded), allowing swap-ins without device reads.
    swap_cache: BTreeMap<u64, PhysAddr>,
    stats: SwapStats,
}

impl SwapManager {
    /// Creates a swap area of `swap_bytes` bytes (4 KiB slots).
    pub fn new(swap_bytes: u64) -> Self {
        SwapManager {
            total_slots: swap_bytes / 4096,
            next_free: 0,
            free_slots: Vec::new(),
            swap_cache: BTreeMap::new(),
            stats: SwapStats::default(),
        }
    }

    /// Total number of swap slots.
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Slots currently in use.
    pub fn used_slots(&self) -> u64 {
        self.next_free - self.free_slots.len() as u64
    }

    /// Statistics.
    pub fn stats(&self) -> &SwapStats {
        &self.stats
    }

    fn allocate_slot(&mut self) -> VmResult<u64> {
        if let Some(slot) = self.free_slots.pop() {
            return Ok(slot);
        }
        if self.next_free >= self.total_slots {
            return Err(VmError::SwapFull);
        }
        let slot = self.next_free;
        self.next_free += 1;
        Ok(slot)
    }

    /// Writes the page at `frame` out to a fresh swap slot, returning the
    /// slot and the device latency.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::SwapFull`] when no slot is available.
    pub fn swap_out(
        &mut self,
        frame: PhysAddr,
        ssd: &mut ssd_sim::SsdModel,
    ) -> VmResult<(u64, Nanoseconds)> {
        let slot = self.allocate_slot()?;
        let io = ssd.write(slot * 4096);
        self.swap_cache.insert(slot, frame);
        self.stats.swap_outs.inc();
        self.stats.total_io_ns += io.as_nanos();
        Ok((slot, io))
    }

    /// Reads the page stored in `slot` back into memory at `dest_frame`.
    /// If the page is still in the swap cache the device read is skipped.
    /// Returns the frame the data now lives in and the I/O latency.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidFree`] if the slot was never written.
    pub fn swap_in(
        &mut self,
        slot: u64,
        dest_frame: PhysAddr,
        ssd: &mut ssd_sim::SsdModel,
    ) -> VmResult<(PhysAddr, Nanoseconds)> {
        if slot >= self.next_free {
            return Err(VmError::InvalidFree {
                paddr: PhysAddr::new(slot * 4096),
            });
        }
        self.stats.swap_ins.inc();
        let io = if let Some(cached) = self.swap_cache.remove(&slot) {
            self.stats.swap_cache_hits.inc();
            self.free_slots.push(slot);
            return Ok((cached, Nanoseconds::ZERO));
        } else {
            ssd.read(slot * 4096)
        };
        self.free_slots.push(slot);
        self.stats.total_io_ns += io.as_nanos();
        Ok((dest_frame, io))
    }

    /// Drops a slot's swap-cache entry (the in-memory copy has been
    /// reclaimed); a later swap-in will pay the device read.
    pub fn drop_swap_cache(&mut self, slot: u64) {
        self.swap_cache.remove(&slot);
    }

    /// Releases a slot without reading it back (`swap_free` when an exiting
    /// or killed process abandons its swapped-out pages). The slot's data is
    /// simply discarded; any swap-cache entry goes with it.
    pub fn release_slot(&mut self, slot: u64) {
        if slot >= self.next_free || self.free_slots.contains(&slot) {
            return;
        }
        self.swap_cache.remove(&slot);
        self.free_slots.push(slot);
    }

    /// Records the swap-cache lookup work into a kernel stream.
    pub fn trace_lookup(&self, stream: &mut KernelInstructionStream) {
        // Swap-cache xarray lookup plus swap_info bookkeeping.
        stream.compute(30);
        stream.load(PhysAddr::new(0xFFFF_A000_0000_0000));
        stream.load(PhysAddr::new(0xFFFF_A000_0000_0100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::{SsdConfig, SsdModel};

    fn ssd() -> SsdModel {
        SsdModel::new(SsdConfig::nvme_datacenter())
    }

    #[test]
    fn swap_out_then_in_roundtrip() {
        let mut ssd = ssd();
        let mut swap = SwapManager::new(1024 * 4096);
        let (slot, out_io) = swap.swap_out(PhysAddr::new(0x1000), &mut ssd).unwrap();
        assert!(out_io.as_micros() > 0.0);
        assert_eq!(swap.used_slots(), 1);
        // Swap cache still holds the page: swap-in is free.
        let (frame, in_io) = swap.swap_in(slot, PhysAddr::new(0x9000), &mut ssd).unwrap();
        assert_eq!(frame, PhysAddr::new(0x1000));
        assert_eq!(in_io, Nanoseconds::ZERO);
        assert_eq!(swap.stats().swap_cache_hits.get(), 1);
        assert_eq!(swap.used_slots(), 0);
    }

    #[test]
    fn swap_in_after_cache_drop_reads_device() {
        let mut ssd = ssd();
        let mut swap = SwapManager::new(1024 * 4096);
        let (slot, _) = swap.swap_out(PhysAddr::new(0x1000), &mut ssd).unwrap();
        swap.drop_swap_cache(slot);
        let (frame, io) = swap.swap_in(slot, PhysAddr::new(0x9000), &mut ssd).unwrap();
        assert_eq!(frame, PhysAddr::new(0x9000));
        assert!(io.as_micros() > 10.0);
    }

    #[test]
    fn swap_full_is_reported() {
        let mut ssd = ssd();
        let mut swap = SwapManager::new(2 * 4096);
        swap.swap_out(PhysAddr::new(0x1000), &mut ssd).unwrap();
        swap.swap_out(PhysAddr::new(0x2000), &mut ssd).unwrap();
        assert!(matches!(
            swap.swap_out(PhysAddr::new(0x3000), &mut ssd),
            Err(VmError::SwapFull)
        ));
    }

    #[test]
    fn invalid_slot_swap_in_rejected() {
        let mut ssd = ssd();
        let mut swap = SwapManager::new(16 * 4096);
        assert!(swap.swap_in(5, PhysAddr::new(0x9000), &mut ssd).is_err());
    }

    #[test]
    fn slots_are_recycled() {
        let mut ssd = ssd();
        let mut swap = SwapManager::new(2 * 4096);
        let (slot, _) = swap.swap_out(PhysAddr::new(0x1000), &mut ssd).unwrap();
        swap.swap_in(slot, PhysAddr::new(0x2000), &mut ssd).unwrap();
        // Freed slot can be used again even though next_free is exhausted.
        swap.swap_out(PhysAddr::new(0x3000), &mut ssd).unwrap();
        swap.swap_out(PhysAddr::new(0x4000), &mut ssd).unwrap();
        assert_eq!(swap.used_slots(), 2);
    }

    #[test]
    fn io_time_accumulates() {
        let mut ssd = ssd();
        let mut swap = SwapManager::new(64 * 4096);
        for i in 0..8u64 {
            swap.swap_out(PhysAddr::new(0x1000 + i * 4096), &mut ssd)
                .unwrap();
        }
        assert!(swap.stats().total_io_ns > 0.0);
        assert_eq!(swap.stats().swap_outs.get(), 8);
    }
}

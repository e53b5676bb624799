//! The three-level cache hierarchy (L1I, L1D, L2, L3) with prefetchers,
//! mirroring the paper's baseline configuration (Table 4).

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::prefetch::{IpStridePrefetcher, PrefetchTargets, Prefetcher, StreamPrefetcher};
use serde::{Deserialize, Serialize};
use vm_types::{AccessType, Cycles, FixedVec, PhysAddr, Requestor, VirtAddr};

/// Cache-line addresses fetched from DRAM by one hierarchy access: the
/// demand line plus any prefetch targets that missed. Inline capacity
/// covers 1 demand + the baseline prefetchers' combined degree.
pub type DramFetchList = FixedVec<PhysAddr, 8>;

/// Dirty lines written back to DRAM by one hierarchy access: at most one
/// per fill (3 demand fills + 2 per prefetch target).
pub type WritebackList = FixedVec<PhysAddr, 16>;

/// Cache levels, from closest to the core to closest to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Level {
    /// L1 instruction cache.
    L1I,
    /// L1 data cache.
    L1D,
    /// Unified L2.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory (the access missed everywhere).
    Memory,
}

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 instruction cache configuration.
    pub l1i: CacheConfig,
    /// L1 data cache configuration.
    pub l1d: CacheConfig,
    /// Unified L2 configuration.
    pub l2: CacheConfig,
    /// Last-level cache configuration.
    pub l3: CacheConfig,
    /// Enable the L1 IP-stride prefetcher.
    pub l1_prefetcher: bool,
    /// Enable the L2 stream prefetcher.
    pub l2_prefetcher: bool,
}

impl HierarchyConfig {
    /// The paper's baseline hierarchy (Table 4).
    pub fn paper_baseline() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::l1_instruction(),
            l1d: CacheConfig::l1_data(),
            l2: CacheConfig::l2(),
            l3: CacheConfig::l3(),
            l1_prefetcher: true,
            l2_prefetcher: true,
        }
    }

    /// A small hierarchy for fast unit tests.
    pub fn small_test() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::tiny("L1I"),
            l1d: CacheConfig::tiny("L1D"),
            l2: CacheConfig {
                capacity_bytes: 4096,
                ..CacheConfig::tiny("L2")
            },
            l3: CacheConfig {
                capacity_bytes: 8192,
                ..CacheConfig::tiny("L3")
            },
            l1_prefetcher: false,
            l2_prefetcher: false,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::paper_baseline()
    }
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyAccess {
    /// Level at which the access was satisfied.
    pub hit_level: Level,
    /// Total latency of the access through the hierarchy, excluding DRAM.
    pub latency: Cycles,
    /// Cache-line addresses that must be fetched from DRAM (the demand line
    /// when the access missed everywhere, plus any prefetches that missed).
    /// Stored inline — building this list allocates nothing.
    pub dram_fetches: DramFetchList,
    /// Dirty lines that must be written back to DRAM. Stored inline.
    pub writebacks: WritebackList,
}

impl HierarchyAccess {
    /// `true` when the demand access requires a DRAM fetch.
    pub fn needs_dram(&self) -> bool {
        self.hit_level == Level::Memory
    }
}

/// Aggregated statistics of the whole hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// L1 instruction cache statistics.
    pub l1i: CacheStats,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// L3 statistics.
    pub l3: CacheStats,
}

/// The cache hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    l1_prefetcher: Option<IpStridePrefetcher>,
    l2_prefetcher: Option<StreamPrefetcher>,
}

impl CacheHierarchy {
    /// Builds the hierarchy from a configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        CacheHierarchy {
            l1i: Cache::new(config.l1i.clone()),
            l1d: Cache::new(config.l1d.clone()),
            l2: Cache::new(config.l2.clone()),
            l3: Cache::new(config.l3.clone()),
            l1_prefetcher: config.l1_prefetcher.then(IpStridePrefetcher::default),
            l2_prefetcher: config.l2_prefetcher.then(StreamPrefetcher::default),
            config,
        }
    }

    /// The hierarchy's configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Snapshot of all per-level statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats().clone(),
            l1d: self.l1d.stats().clone(),
            l2: self.l2.stats().clone(),
            l3: self.l3.stats().clone(),
        }
    }

    /// Resets statistics in every level.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
    }

    /// Performs a data access (load/store) through L1D → L2 → L3.
    pub fn access(
        &mut self,
        paddr: PhysAddr,
        kind: AccessType,
        requestor: Requestor,
    ) -> HierarchyAccess {
        self.access_with_pc(VirtAddr::ZERO, paddr, kind, requestor)
    }

    /// Performs a data access, supplying the program counter so the
    /// IP-stride prefetcher can train.
    pub fn access_with_pc(
        &mut self,
        pc: VirtAddr,
        paddr: PhysAddr,
        kind: AccessType,
        requestor: Requestor,
    ) -> HierarchyAccess {
        let is_write = kind.is_write();
        let is_fetch = kind == AccessType::Fetch;
        let mut latency = Cycles::ZERO;
        let mut writebacks = WritebackList::new();
        let mut dram_fetches = DramFetchList::new();

        let l1 = if is_fetch {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        latency += l1.latency();
        let hit_level = if l1.lookup(paddr, is_write, requestor).is_hit() {
            if is_fetch {
                Level::L1I
            } else {
                Level::L1D
            }
        } else {
            latency += self.l2.latency();
            if self.l2.lookup(paddr, is_write, requestor).is_hit() {
                // Fill into L1.
                let l1 = if is_fetch {
                    &mut self.l1i
                } else {
                    &mut self.l1d
                };
                writebacks.extend(l1.fill(paddr, is_write, false));
                Level::L2
            } else {
                latency += self.l3.latency();
                if self.l3.lookup(paddr, is_write, requestor).is_hit() {
                    writebacks.extend(self.l2.fill(paddr, false, false));
                    let l1 = if is_fetch {
                        &mut self.l1i
                    } else {
                        &mut self.l1d
                    };
                    writebacks.extend(l1.fill(paddr, is_write, false));
                    Level::L3
                } else {
                    // Miss everywhere: fill the entire path and report the
                    // DRAM fetch to the caller.
                    dram_fetches.push(paddr.cache_line());
                    writebacks.extend(self.l3.fill(paddr, false, false));
                    writebacks.extend(self.l2.fill(paddr, false, false));
                    let l1 = if is_fetch {
                        &mut self.l1i
                    } else {
                        &mut self.l1d
                    };
                    writebacks.extend(l1.fill(paddr, is_write, false));
                    Level::Memory
                }
            }
        };

        // Train prefetchers on demand data accesses from the application.
        let mut prefetch_spilled = false;
        if !is_fetch && requestor == Requestor::Application {
            let mut prefetch_targets = PrefetchTargets::new();
            if let Some(pf) = &mut self.l1_prefetcher {
                pf.observe(pc, paddr, &mut prefetch_targets);
            }
            if let Some(pf) = &mut self.l2_prefetcher {
                pf.observe(pc, paddr, &mut prefetch_targets);
            }
            prefetch_spilled = prefetch_targets.spilled();
            for &target in prefetch_targets.iter() {
                if !self.l2.contains(target) && !self.l3.contains(target) {
                    dram_fetches.push(target.cache_line());
                    writebacks.extend(self.l3.fill(target, false, true));
                    writebacks.extend(self.l2.fill(target, false, true));
                }
            }
        }

        // The demand path fills at most three levels and the baseline
        // prefetchers propose at most 6 lines; both lists must therefore
        // stay inline unless a non-default prefetcher overflowed its own
        // inline budget first.
        debug_assert!(
            prefetch_spilled || (!dram_fetches.spilled() && !writebacks.spilled()),
            "hierarchy access fan-out must fit the inline lists"
        );

        HierarchyAccess {
            hit_level,
            latency,
            dram_fetches,
            writebacks,
        }
    }

    /// Performs a page-table-entry access: the PTE traverses L2/L3 like
    /// data (it is not installed in L1, matching common MMU designs).
    pub fn access_page_table(&mut self, paddr: PhysAddr) -> HierarchyAccess {
        let mut latency = self.l2.latency();
        let mut writebacks = WritebackList::new();
        let mut dram_fetches = DramFetchList::new();
        let hit_level = if self
            .l2
            .lookup(paddr, false, Requestor::PageTableWalker)
            .is_hit()
        {
            Level::L2
        } else {
            latency += self.l3.latency();
            if self
                .l3
                .lookup(paddr, false, Requestor::PageTableWalker)
                .is_hit()
            {
                writebacks.extend(self.l2.fill(paddr, false, false));
                Level::L3
            } else {
                dram_fetches.push(paddr.cache_line());
                writebacks.extend(self.l3.fill(paddr, false, false));
                writebacks.extend(self.l2.fill(paddr, false, false));
                Level::Memory
            }
        };
        HierarchyAccess {
            hit_level,
            latency,
            dram_fetches,
            writebacks,
        }
    }

    /// Invalidates a cache line everywhere (e.g. when the kernel modifies a
    /// page-table entry and the hardware invalidates stale cached copies).
    pub fn invalidate(&mut self, paddr: PhysAddr) {
        self.l1i.invalidate(paddr);
        self.l1d.invalidate(paddr);
        self.l2.invalidate(paddr);
        self.l3.invalidate(paddr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::small_test())
    }

    #[test]
    fn cold_access_misses_to_memory_then_hits_in_l1() {
        let mut h = hierarchy();
        let a = h.access(
            PhysAddr::new(0x1000),
            AccessType::Read,
            Requestor::Application,
        );
        assert_eq!(a.hit_level, Level::Memory);
        assert!(a.needs_dram());
        assert_eq!(a.dram_fetches.len(), 1);

        let b = h.access(
            PhysAddr::new(0x1000),
            AccessType::Read,
            Requestor::Application,
        );
        assert_eq!(b.hit_level, Level::L1D);
        assert!(!b.needs_dram());
        assert!(b.latency < a.latency);
    }

    #[test]
    fn instruction_fetches_use_l1i() {
        let mut h = hierarchy();
        h.access(
            PhysAddr::new(0x2000),
            AccessType::Fetch,
            Requestor::Application,
        );
        let again = h.access(
            PhysAddr::new(0x2000),
            AccessType::Fetch,
            Requestor::Application,
        );
        assert_eq!(again.hit_level, Level::L1I);
        // The same line is NOT in L1D.
        let data = h.access(
            PhysAddr::new(0x2000),
            AccessType::Read,
            Requestor::Application,
        );
        assert_ne!(data.hit_level, Level::L1D);
    }

    #[test]
    fn latency_grows_with_depth() {
        let cfg = HierarchyConfig::paper_baseline();
        let mut h = CacheHierarchy::new(cfg.clone());
        let miss = h.access(
            PhysAddr::new(0x9000),
            AccessType::Read,
            Requestor::Application,
        );
        let l1_hit = h.access(
            PhysAddr::new(0x9000),
            AccessType::Read,
            Requestor::Application,
        );
        assert_eq!(
            miss.latency,
            cfg.l1d.latency + cfg.l2.latency + cfg.l3.latency
        );
        assert_eq!(l1_hit.latency, cfg.l1d.latency);
    }

    #[test]
    fn evicted_from_l1_hits_in_l2() {
        let mut h = hierarchy();
        // Touch many distinct lines so early ones fall out of tiny L1 but stay
        // in the larger L2/L3.
        for i in 0..32u64 {
            h.access(
                PhysAddr::new(i * 64),
                AccessType::Read,
                Requestor::Application,
            );
        }
        let back = h.access(PhysAddr::new(0), AccessType::Read, Requestor::Application);
        assert!(matches!(back.hit_level, Level::L2 | Level::L3 | Level::L1D));
        assert!(!back.needs_dram());
    }

    #[test]
    fn page_table_accesses_bypass_l1_and_can_be_cached() {
        let mut h = hierarchy();
        let first = h.access_page_table(PhysAddr::new(0x8_0000));
        assert_eq!(first.hit_level, Level::Memory);
        let second = h.access_page_table(PhysAddr::new(0x8_0000));
        assert_eq!(second.hit_level, Level::L2);
    }

    #[test]
    fn invalidate_flushes_all_levels() {
        let mut h = hierarchy();
        h.access(
            PhysAddr::new(0x7000),
            AccessType::Read,
            Requestor::Application,
        );
        h.invalidate(PhysAddr::new(0x7000));
        let again = h.access(
            PhysAddr::new(0x7000),
            AccessType::Read,
            Requestor::Application,
        );
        assert_eq!(again.hit_level, Level::Memory);
    }

    #[test]
    fn prefetcher_issues_extra_dram_fetches_on_streams() {
        let mut cfg = HierarchyConfig::small_test();
        cfg.l2_prefetcher = true;
        let mut h = CacheHierarchy::new(cfg);
        let mut prefetched = 0;
        for i in 0..16u64 {
            let r = h.access_with_pc(
                VirtAddr::new(0x400),
                PhysAddr::new(0x10_0000 + i * 64),
                AccessType::Read,
                Requestor::Application,
            );
            prefetched += r.dram_fetches.len().saturating_sub(1);
        }
        assert!(prefetched > 0, "stream prefetcher should fetch ahead");
    }

    #[test]
    fn kernel_traffic_pollutes_caches() {
        let mut h = hierarchy();
        // Fill with application data.
        for i in 0..16u64 {
            h.access(
                PhysAddr::new(i * 64),
                AccessType::Read,
                Requestor::Application,
            );
        }
        // Kernel touches a large footprint.
        for i in 0..256u64 {
            h.access(
                PhysAddr::new(0x100_0000 + i * 64),
                AccessType::Read,
                Requestor::Kernel,
            );
        }
        // Application line 0 was evicted by kernel pollution.
        let r = h.access(PhysAddr::new(0), AccessType::Read, Requestor::Application);
        assert_eq!(r.hit_level, Level::Memory);
        assert!(h.stats().l1d.kernel_misses.get() > 0);
    }

    #[test]
    fn writebacks_are_reported() {
        let mut h = hierarchy();
        // Dirty many lines, then stream reads to force dirty evictions.
        for i in 0..64u64 {
            h.access(
                PhysAddr::new(i * 64),
                AccessType::Write,
                Requestor::Application,
            );
        }
        let mut wb = 0;
        for i in 64..4096u64 {
            wb += h
                .access(
                    PhysAddr::new(i * 64),
                    AccessType::Read,
                    Requestor::Application,
                )
                .writebacks
                .len();
        }
        assert!(wb > 0);
    }
}

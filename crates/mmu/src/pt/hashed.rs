//! The global open-addressing hash page table of "Hash, Don't Cache (the
//! page table)" (Yaniv & Tsafrir, SIGMETRICS 2016), the paper's `HDC`
//! configuration: a 4 GB global table with 8 PTEs packed per cache-line
//! sized cluster and linear probing across clusters.

use super::{PageTable, PageTableKind, WalkAccessList, WalkOutcome};
use mimic_os::Mapping;
use serde::{Deserialize, Serialize};
use vm_types::{FastDiv, FxHashMap, PageSize, PhysAddr, VirtAddr};

/// PTEs per cluster (one 64-byte cache line of 8-byte entries).
const PTES_PER_CLUSTER: usize = 8;
const CLUSTER_BYTES: u64 = 64;
const MAX_PROBES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Pte {
    vpn: u64,
    size: PageSize,
    mapping: Mapping,
}

/// The open-addressing hash page table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenAddressingPageTable {
    metadata_base: PhysAddr,
    clusters: FastDiv,
    /// Sparse cluster storage: only clusters that hold at least one PTE are
    /// materialized (the table itself is 4 GB of physical address space).
    /// Keyed by cluster index (hash of the VPN modulo the cluster count).
    storage: FxHashMap<u64, [Option<Pte>; PTES_PER_CLUSTER]>,
    occupied: usize,
    /// Probes beyond the home cluster (collision chain length indicator).
    pub overflow_probes: u64,
}

impl OpenAddressingPageTable {
    /// Creates a table occupying `table_bytes` of physical address space
    /// (the paper uses 4 GB) starting at `metadata_base`.
    pub fn new(metadata_base: PhysAddr, table_bytes: u64) -> Self {
        OpenAddressingPageTable {
            metadata_base,
            clusters: FastDiv::new((table_bytes / CLUSTER_BYTES).max(1)),
            storage: FxHashMap::default(),
            occupied: 0,
            overflow_probes: 0,
        }
    }

    fn hash(&self, vpn: u64, size: PageSize) -> u64 {
        let tag = vpn ^ ((size as u64 + 1) << 58);
        self.clusters.rem(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn cluster_addr(&self, index: u64) -> PhysAddr {
        self.metadata_base.add(index * CLUSTER_BYTES)
    }

    fn vpn_of(va: VirtAddr, size: PageSize) -> u64 {
        va.page_number(size).number()
    }
}

impl PageTable for OpenAddressingPageTable {
    fn walk(&mut self, va: VirtAddr, _skip_levels: usize) -> WalkOutcome {
        let mut accesses = WalkAccessList::new();
        for size in [PageSize::Size2M, PageSize::Size4K, PageSize::Size1G] {
            let vpn = Self::vpn_of(va, size);
            let home = self.hash(vpn, size);
            for probe in 0..MAX_PROBES as u64 {
                let idx = self.clusters.rem(home + probe);
                if size == PageSize::Size4K || probe == 0 {
                    accesses.push(self.cluster_addr(idx));
                }
                match self.storage.get(&idx) {
                    Some(cluster) => {
                        if let Some(pte) = cluster
                            .iter()
                            .flatten()
                            .find(|p| p.vpn == vpn && p.size == size)
                        {
                            return WalkOutcome {
                                mapping: Some(pte.mapping),
                                accesses,
                                parallel: true,
                            };
                        }
                        // A cluster with a free slot terminates the probe
                        // sequence for this size.
                        if cluster.iter().any(|p| p.is_none()) {
                            break;
                        }
                    }
                    None => break,
                }
            }
        }
        WalkOutcome {
            mapping: None,
            accesses,
            parallel: true,
        }
    }

    fn insert(&mut self, mapping: Mapping) -> WalkAccessList {
        let vpn = Self::vpn_of(mapping.vaddr, mapping.page_size);
        let home = self.hash(vpn, mapping.page_size);
        let mut accesses = WalkAccessList::new();
        let pte = Pte {
            vpn,
            size: mapping.page_size,
            mapping,
        };
        for probe in 0..MAX_PROBES as u64 {
            let idx = self.clusters.rem(home + probe);
            accesses.push(self.cluster_addr(idx));
            if probe > 0 {
                self.overflow_probes += 1;
            }
            let cluster = self.storage.entry(idx).or_insert([None; PTES_PER_CLUSTER]);
            // Update in place.
            if let Some(slot) = cluster
                .iter_mut()
                .flatten()
                .find(|p| p.vpn == vpn && p.size == mapping.page_size)
            {
                *slot = pte;
                return accesses;
            }
            if let Some(slot) = cluster.iter_mut().find(|p| p.is_none()) {
                *slot = Some(pte);
                self.occupied += 1;
                return accesses;
            }
        }
        // Probe budget exhausted (pathological load): overwrite the home
        // cluster's first entry to keep the model progressing.
        let cluster = self.storage.entry(home).or_insert([None; PTES_PER_CLUSTER]);
        if cluster[0].is_none() {
            self.occupied += 1;
        }
        cluster[0] = Some(pte);
        accesses
    }

    fn remove(&mut self, va: VirtAddr) -> WalkAccessList {
        let mut accesses = WalkAccessList::new();
        for size in [PageSize::Size1G, PageSize::Size2M, PageSize::Size4K] {
            let vpn = Self::vpn_of(va, size);
            let home = self.hash(vpn, size);
            for probe in 0..MAX_PROBES as u64 {
                let idx = self.clusters.rem(home + probe);
                let Some(cluster) = self.storage.get_mut(&idx) else {
                    break;
                };
                accesses.push(self.metadata_base.add(idx * CLUSTER_BYTES));
                if let Some(slot) = cluster
                    .iter_mut()
                    .find(|p| p.is_some_and(|p| p.vpn == vpn && p.size == size))
                {
                    *slot = None;
                    self.occupied -= 1;
                    return accesses;
                }
                if cluster.iter().any(|p| p.is_none()) {
                    break;
                }
            }
        }
        accesses
    }

    fn kind(&self) -> PageTableKind {
        PageTableKind::HashedOpenAddressing
    }

    fn metadata_bytes(&self) -> u64 {
        self.clusters.divisor() * CLUSTER_BYTES
    }

    fn len(&self) -> usize {
        self.occupied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map4k(va: u64) -> Mapping {
        Mapping {
            vaddr: VirtAddr::new(va & !0xfff),
            paddr: PhysAddr::new(0x2_0000_0000 + (va & !0xfff)),
            page_size: PageSize::Size4K,
        }
    }

    #[test]
    fn typical_walk_is_a_single_cluster_access() {
        let mut pt = OpenAddressingPageTable::new(PhysAddr::new(0xA0_0000_0000), 1 << 30);
        pt.insert(map4k(0x1234_5000));
        let walk = pt.walk(VirtAddr::new(0x1234_5000), 0);
        assert!(!walk.is_fault());
        // Every size is probed in order until the hit, resident or not:
        // 2 MiB probe (1 access) + 4 KiB home cluster (1 access).
        assert_eq!(walk.accesses.len(), 2);
        assert!(walk.parallel);
    }

    #[test]
    fn many_translations_remain_reachable() {
        let mut pt = OpenAddressingPageTable::new(PhysAddr::new(0xA0_0000_0000), 1 << 20);
        for i in 0..5000u64 {
            pt.insert(map4k(i * 0x1000));
        }
        assert_eq!(pt.len(), 5000);
        for i in (0..5000u64).step_by(97) {
            assert!(!pt.walk(VirtAddr::new(i * 0x1000), 0).is_fault());
        }
    }

    #[test]
    fn clustering_causes_overflow_probes_under_load() {
        // A tiny table forces clusters to fill and probes to overflow: 64
        // clusters of 8 PTEs hold at most 512 entries, so 600 insertions
        // must spill into neighbouring clusters.
        let mut pt = OpenAddressingPageTable::new(PhysAddr::new(0xA0_0000_0000), 64 * 64);
        for i in 0..600u64 {
            pt.insert(map4k(i * 0x1000));
        }
        assert!(pt.overflow_probes > 0);
    }

    #[test]
    fn metadata_size_is_fixed_at_construction() {
        let pt = OpenAddressingPageTable::new(PhysAddr::new(0xA0_0000_0000), 4 << 30);
        assert_eq!(pt.metadata_bytes(), 4 << 30);
    }

    #[test]
    fn remove_clears_translation() {
        let mut pt = OpenAddressingPageTable::new(PhysAddr::new(0xA0_0000_0000), 1 << 24);
        pt.insert(map4k(0x8000));
        assert!(!pt.remove(VirtAddr::new(0x8000)).is_empty());
        assert!(pt.walk(VirtAddr::new(0x8000), 0).is_fault());
        assert_eq!(pt.len(), 0);
    }
}

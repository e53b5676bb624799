//! A chained hash page table in the spirit of the PowerPC hashed page table
//! (the paper's `HT` configuration: a 4 GB global chain table with 8 PTEs
//! per bucket and overflow chains).

use super::{PageTable, PageTableKind, WalkAccessList, WalkOutcome};
use mimic_os::Mapping;
use serde::{Deserialize, Serialize};
use vm_types::{FastDiv, FxHashMap, PageSize, PhysAddr, VirtAddr};

const PTES_PER_BUCKET: usize = 8;
const BUCKET_BYTES: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Pte {
    vpn: u64,
    size: PageSize,
    mapping: Mapping,
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Bucket {
    entries: Vec<Pte>,
}

/// The chained hash page table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChainedHashPageTable {
    metadata_base: PhysAddr,
    buckets: FastDiv,
    /// Keyed by bucket index (hash of the VPN modulo the bucket count).
    storage: FxHashMap<u64, Bucket>,
    occupied: usize,
    /// Overflow chain blocks allocated beyond the primary bucket array.
    overflow_blocks: u64,
}

impl ChainedHashPageTable {
    /// Creates a table whose primary bucket array occupies `table_bytes`
    /// (the paper uses 4 GB) starting at `metadata_base`.
    pub fn new(metadata_base: PhysAddr, table_bytes: u64) -> Self {
        ChainedHashPageTable {
            metadata_base,
            buckets: FastDiv::new((table_bytes / BUCKET_BYTES).max(1)),
            storage: FxHashMap::default(),
            occupied: 0,
            overflow_blocks: 0,
        }
    }

    fn hash(&self, vpn: u64, size: PageSize) -> u64 {
        let tag = vpn ^ ((size as u64 + 1) << 59);
        self.buckets.rem(tag.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
    }

    fn bucket_addr(&self, index: u64, chain_block: u64) -> PhysAddr {
        if chain_block == 0 {
            self.metadata_base.add(index * BUCKET_BYTES)
        } else {
            // Overflow blocks live past the primary array.
            self.metadata_base.add(
                self.buckets.divisor() * BUCKET_BYTES + (index % 4096) * BUCKET_BYTES * chain_block,
            )
        }
    }

    fn vpn_of(va: VirtAddr, size: PageSize) -> u64 {
        va.page_number(size).number()
    }
}

impl PageTable for ChainedHashPageTable {
    fn walk(&mut self, va: VirtAddr, _skip_levels: usize) -> WalkOutcome {
        let mut accesses = WalkAccessList::new();
        for size in [PageSize::Size2M, PageSize::Size4K, PageSize::Size1G] {
            let vpn = Self::vpn_of(va, size);
            let idx = self.hash(vpn, size);
            if size == PageSize::Size4K {
                accesses.push(self.bucket_addr(idx, 0));
            }
            if let Some(bucket) = self.storage.get(&idx) {
                // Walking the chain: one extra access per overflow block.
                let chain_blocks = bucket.entries.len() / PTES_PER_BUCKET;
                for block in 1..=chain_blocks as u64 {
                    accesses.push(self.bucket_addr(idx, block));
                }
                if let Some(pte) = bucket
                    .entries
                    .iter()
                    .find(|p| p.vpn == vpn && p.size == size)
                {
                    if accesses.is_empty() {
                        accesses.push(self.bucket_addr(idx, 0));
                    }
                    return WalkOutcome {
                        mapping: Some(pte.mapping),
                        accesses,
                        parallel: true,
                    };
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
        let idx = self.hash(vpn, mapping.page_size);
        let mut accesses = WalkAccessList::new();
        accesses.push(self.bucket_addr(idx, 0));
        let bucket = self.storage.entry(idx).or_default();
        let pte = Pte {
            vpn,
            size: mapping.page_size,
            mapping,
        };
        if let Some(existing) = bucket
            .entries
            .iter_mut()
            .find(|p| p.vpn == vpn && p.size == mapping.page_size)
        {
            *existing = pte;
            return accesses;
        }
        bucket.entries.push(pte);
        self.occupied += 1;
        // Appending into an overflow block touches that block too.
        let chain_block = (bucket.entries.len() - 1) / PTES_PER_BUCKET;
        if chain_block > 0 {
            self.overflow_blocks = self.overflow_blocks.max(chain_block as u64);
            accesses.push(self.bucket_addr(idx, chain_block as u64));
        }
        accesses
    }

    fn remove(&mut self, va: VirtAddr) -> WalkAccessList {
        let mut accesses = WalkAccessList::new();
        for size in [PageSize::Size1G, PageSize::Size2M, PageSize::Size4K] {
            let vpn = Self::vpn_of(va, size);
            let idx = self.hash(vpn, size);
            if let Some(bucket) = self.storage.get_mut(&idx) {
                accesses.push(self.metadata_base.add(idx * BUCKET_BYTES));
                let before = bucket.entries.len();
                bucket.entries.retain(|p| !(p.vpn == vpn && p.size == size));
                if bucket.entries.len() < before {
                    self.occupied -= 1;
                    return accesses;
                }
            }
        }
        accesses
    }

    fn kind(&self) -> PageTableKind {
        PageTableKind::HashedChained
    }

    fn metadata_bytes(&self) -> u64 {
        self.buckets.divisor() * BUCKET_BYTES + self.overflow_blocks * BUCKET_BYTES
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
    fn lookup_hits_home_bucket() {
        let mut pt = ChainedHashPageTable::new(PhysAddr::new(0xB0_0000_0000), 1 << 24);
        pt.insert(map4k(0x7000));
        let walk = pt.walk(VirtAddr::new(0x7000), 0);
        assert!(!walk.is_fault());
        assert!(walk.accesses.len() <= 2);
    }

    #[test]
    fn long_chains_cost_extra_accesses() {
        // One bucket only: every entry chains.
        let mut pt = ChainedHashPageTable::new(PhysAddr::new(0xB0_0000_0000), 64);
        for i in 0..40u64 {
            pt.insert(map4k(i * 0x1000));
        }
        let walk = pt.walk(VirtAddr::new(0x0), 0);
        assert!(!walk.is_fault());
        assert!(
            walk.accesses.len() > 2,
            "chain walk should touch overflow blocks"
        );
    }

    #[test]
    fn all_translations_reachable() {
        let mut pt = ChainedHashPageTable::new(PhysAddr::new(0xB0_0000_0000), 1 << 20);
        for i in 0..3000u64 {
            pt.insert(map4k(i * 0x1000));
        }
        assert_eq!(pt.len(), 3000);
        for i in (0..3000u64).step_by(131) {
            assert!(!pt.walk(VirtAddr::new(i * 0x1000), 0).is_fault());
        }
    }

    #[test]
    fn remove_shrinks_table() {
        let mut pt = ChainedHashPageTable::new(PhysAddr::new(0xB0_0000_0000), 1 << 20);
        pt.insert(map4k(0x3000));
        pt.remove(VirtAddr::new(0x3000));
        assert_eq!(pt.len(), 0);
        assert!(pt.walk(VirtAddr::new(0x3000), 0).is_fault());
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut pt = ChainedHashPageTable::new(PhysAddr::new(0xB0_0000_0000), 1 << 20);
        pt.insert(map4k(0x3000));
        pt.insert(map4k(0x3000));
        assert_eq!(pt.len(), 1);
    }
}

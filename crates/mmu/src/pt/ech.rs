//! Elastic cuckoo hash page tables (Skarlatos et al., ASPLOS 2020).
//!
//! Translations live in `d` independent ways ("nests"), each a hash-indexed
//! array. A lookup probes all nests in parallel (one memory access per
//! nest); an insert places the entry in the first nest with a free slot at
//! its hash position, relocating ("cuckooing") existing entries when every
//! candidate slot is taken. The table grows ("elastic" resize) when its load
//! factor exceeds a threshold.

use super::{PageTable, PageTableKind, WalkAccessList, WalkOutcome};
use mimic_os::Mapping;
use serde::{Deserialize, Serialize};
use vm_types::{PageSize, PhysAddr, VirtAddr};

const ENTRY_BYTES: u64 = 16;
const MAX_CUCKOO_KICKS: usize = 16;
const RESIZE_LOAD_FACTOR: f64 = 0.8;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Slot {
    vpn: u64,
    size: PageSize,
    mapping: Mapping,
}

/// The elastic cuckoo page table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticCuckooPageTable {
    metadata_base: PhysAddr,
    ways: Vec<Vec<Option<Slot>>>,
    entries_per_way: usize,
    occupied: usize,
    /// Cuckoo relocations performed by inserts (a source of extra minor-
    /// fault latency for adversarial access patterns, Fig. 15's RND case).
    pub relocations: u64,
    /// Elastic resizes performed.
    pub resizes: u64,
}

impl ElasticCuckooPageTable {
    /// Creates a table with `ways` nests of `entries_per_way` slots each
    /// (the paper's configuration: 8 K entries/way, 4 ways).
    pub fn new(metadata_base: PhysAddr, entries_per_way: usize, ways: usize) -> Self {
        ElasticCuckooPageTable {
            metadata_base,
            ways: vec![vec![None; entries_per_way]; ways.max(1)],
            entries_per_way: entries_per_way.max(1),
            occupied: 0,
            relocations: 0,
            resizes: 0,
        }
    }

    fn hash(&self, way: usize, vpn: u64) -> usize {
        // Per-way hash: multiply-shift with a different odd constant per way
        // (stand-in for the per-nest CityHash seeds).
        const SEEDS: [u64; 8] = [
            0x9E37_79B9_7F4A_7C15,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
            0x27D4_EB2F_1656_67C5,
            0x8504_8B51_9E37_79B1,
            0xA24B_AED4_963E_E407,
            0x9FB2_1C65_1E98_DF25,
            0xCBF2_9CE4_8422_2325,
        ];
        let h = vpn.wrapping_mul(SEEDS[way % SEEDS.len()]);
        ((h >> 20) as usize) % self.entries_per_way
    }

    fn slot_addr(&self, way: usize, index: usize) -> PhysAddr {
        self.metadata_base
            .add((way * self.entries_per_way + index) as u64 * ENTRY_BYTES)
    }

    fn vpn_of(va: VirtAddr, size: PageSize) -> u64 {
        va.page_number(size).number()
    }

    fn load_factor(&self) -> f64 {
        self.occupied as f64 / (self.ways.len() * self.entries_per_way) as f64
    }

    fn resize(&mut self) {
        // Double every way and re-insert all entries (the accesses of the
        // background resize are not charged to any single fault). The one
        // place this table allocates: reached only while inserting (load
        // factor tripped or kick budget spent), never from `walk`.
        let old: Vec<Slot> = self
            .ways
            .iter()
            .flat_map(|w| w.iter().flatten().copied())
            .collect();
        self.entries_per_way *= 2;
        for way in &mut self.ways {
            *way = vec![None; self.entries_per_way];
        }
        self.occupied = 0;
        self.resizes += 1;
        for slot in old {
            self.place(slot, &mut WalkAccessList::new());
        }
    }

    fn place(&mut self, mut slot: Slot, accesses: &mut WalkAccessList) {
        for _kick in 0..MAX_CUCKOO_KICKS {
            // Try every way for a free slot at the hashed position.
            for way in 0..self.ways.len() {
                let idx = self.hash(way, slot.vpn);
                accesses.push(self.slot_addr(way, idx));
                if self.ways[way][idx].is_none() {
                    self.ways[way][idx] = Some(slot);
                    self.occupied += 1;
                    return;
                }
            }
            // All candidate slots taken: evict the occupant of way 0 and
            // re-place it (cuckoo kick).
            let way = 0;
            let idx = self.hash(way, slot.vpn);
            let displaced = self.ways[way][idx].take().expect("occupied slot");
            self.ways[way][idx] = Some(slot);
            accesses.push(self.slot_addr(way, idx));
            self.relocations += 1;
            slot = displaced;
        }
        // Could not place after the kick budget: grow and retry.
        self.resize();
        self.place(slot, accesses);
    }
}

impl PageTable for ElasticCuckooPageTable {
    fn walk(&mut self, va: VirtAddr, _skip_levels: usize) -> WalkOutcome {
        let mut accesses = WalkAccessList::new();
        // Probe every nest for both page sizes (2 MiB first, as a real
        // implementation would use separate per-size tables probed in
        // parallel).
        for size in [PageSize::Size2M, PageSize::Size4K, PageSize::Size1G] {
            let vpn = Self::vpn_of(va, size);
            for way in 0..self.ways.len() {
                let idx = self.hash(way, vpn);
                if size == PageSize::Size4K {
                    accesses.push(self.slot_addr(way, idx));
                }
                if let Some(slot) = self.ways[way][idx] {
                    if slot.vpn == vpn && slot.size == size {
                        if accesses.is_empty() {
                            accesses.push(self.slot_addr(way, idx));
                        }
                        return WalkOutcome {
                            mapping: Some(slot.mapping),
                            accesses,
                            parallel: true,
                        };
                    }
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
        let mut accesses = WalkAccessList::new();
        if self.load_factor() > RESIZE_LOAD_FACTOR {
            self.resize();
        }
        let slot = Slot {
            vpn: Self::vpn_of(mapping.vaddr, mapping.page_size),
            size: mapping.page_size,
            mapping,
        };
        // Update in place if present.
        for way in 0..self.ways.len() {
            let idx = self.hash(way, slot.vpn);
            if let Some(existing) = self.ways[way][idx] {
                if existing.vpn == slot.vpn && existing.size == slot.size {
                    self.ways[way][idx] = Some(slot);
                    accesses.push(self.slot_addr(way, idx));
                    return accesses;
                }
            }
        }
        self.place(slot, &mut accesses);
        accesses
    }

    fn remove(&mut self, va: VirtAddr) -> WalkAccessList {
        let mut accesses = WalkAccessList::new();
        for size in [PageSize::Size1G, PageSize::Size2M, PageSize::Size4K] {
            let vpn = Self::vpn_of(va, size);
            for way in 0..self.ways.len() {
                let idx = self.hash(way, vpn);
                if let Some(slot) = self.ways[way][idx] {
                    if slot.vpn == vpn && slot.size == size {
                        self.ways[way][idx] = None;
                        self.occupied -= 1;
                        accesses.push(self.slot_addr(way, idx));
                        return accesses;
                    }
                }
            }
        }
        accesses
    }

    fn kind(&self) -> PageTableKind {
        PageTableKind::ElasticCuckoo
    }

    fn metadata_bytes(&self) -> u64 {
        (self.ways.len() * self.entries_per_way) as u64 * ENTRY_BYTES
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
    fn walk_probes_every_nest() {
        let mut pt = ElasticCuckooPageTable::new(PhysAddr::new(0x90_0000_0000), 1024, 4);
        pt.insert(map4k(0x1000));
        let walk = pt.walk(VirtAddr::new(0x9_9999_9000), 0);
        assert!(walk.is_fault());
        // A miss probes all 4 nests for the 4 KiB size.
        assert_eq!(walk.accesses.len(), 4);
        assert!(walk.parallel);
    }

    #[test]
    fn dense_insertion_triggers_relocations_or_resizes() {
        let mut pt = ElasticCuckooPageTable::new(PhysAddr::new(0x90_0000_0000), 64, 2);
        for i in 0..200u64 {
            pt.insert(map4k(0x10_0000 + i * 0x1000));
        }
        assert_eq!(pt.len(), 200);
        assert!(pt.relocations > 0 || pt.resizes > 0);
        // Every inserted translation is still reachable after the shuffling.
        for i in 0..200u64 {
            let walk = pt.walk(VirtAddr::new(0x10_0000 + i * 0x1000), 0);
            assert!(!walk.is_fault(), "lost translation {i}");
        }
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut pt = ElasticCuckooPageTable::new(PhysAddr::new(0x90_0000_0000), 1024, 4);
        pt.insert(map4k(0x5000));
        let count_before = pt.len();
        let mut updated = map4k(0x5000);
        updated.paddr = PhysAddr::new(0xdead_0000);
        pt.insert(updated);
        assert_eq!(pt.len(), count_before);
        assert_eq!(
            pt.walk(VirtAddr::new(0x5000), 0).mapping.unwrap().paddr,
            updated.paddr
        );
    }

    #[test]
    fn resize_preserves_translations() {
        let mut pt = ElasticCuckooPageTable::new(PhysAddr::new(0x90_0000_0000), 16, 2);
        for i in 0..64u64 {
            pt.insert(map4k(i * 0x1000));
        }
        assert!(pt.resizes > 0);
        for i in 0..64u64 {
            assert!(!pt.walk(VirtAddr::new(i * 0x1000), 0).is_fault());
        }
    }

    #[test]
    fn metadata_grows_on_resize() {
        let mut pt = ElasticCuckooPageTable::new(PhysAddr::new(0x90_0000_0000), 16, 2);
        let before = pt.metadata_bytes();
        for i in 0..64u64 {
            pt.insert(map4k(i * 0x1000));
        }
        assert!(pt.metadata_bytes() > before);
    }
}

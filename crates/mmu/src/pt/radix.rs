//! The x86-64 4-level radix page table.

use super::{PageTable, PageTableKind, WalkAccessList, WalkOutcome};
use mimic_os::Mapping;
use serde::{Deserialize, Serialize};
use vm_types::{PageSize, PhysAddr, VirtAddr};

/// Size of one page-table node (one 4 KiB frame of 512 8-byte entries).
const NODE_BYTES: u64 = 4096;
/// Entries per node.
const ENTRIES: usize = 512;
/// Virtual-address bits the four levels translate (9 each above the 12-bit
/// page offset).
const VA_BITS: u32 = 48;
/// The PML4: allocated first, so it sits at `metadata_base`, and nobody's
/// child — which frees index 0 to mean "no lower table".
const ROOT: u32 = 0;
/// The slot of the root's link table.
const ROOT_LINKS: u32 = 0;
/// Marks an entry that holds no leaf translation (no frame lives there).
const NO_LEAF: PhysAddr = PhysAddr::new(u64::MAX);
/// Page size of a leaf at each level (0 = PT, 1 = PD, 2 = PDPT).
const LEAF_SIZE: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

/// The leaf slots of one 512-entry table: the frame of each entry's leaf
/// translation, or [`NO_LEAF`]. A PT-level lookup touches nothing else.
type Leaves = [PhysAddr; ENTRIES];

/// The link table of one directory node (levels 1-3): the node's own id,
/// and per entry the lower table it links to, 0 meaning none (the root is
/// nobody's child and owns link table 0). A PD entry names its PT by node
/// id; a PML4 or PDPT entry names its lower directory by link table, which
/// holds that directory's node id. An entry needs a link *and* a leaf
/// slot: a huge leaf can be installed over a still-populated lower table
/// (the walk then stops at the leaf) and removing it re-exposes the base
/// pages below.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Links {
    node: u32,
    entries: [u32; ENTRIES],
}

impl Links {
    fn of(node: u32) -> Links {
        Links {
            node,
            entries: [0; ENTRIES],
        }
    }
}

/// The 4-level radix page table (PML4 → PDPT → PD → PT), the baseline design
/// in the paper's Use Case 1. Huge pages terminate the walk early: a 2 MiB
/// mapping is a leaf in the PD level, a 1 GiB mapping a leaf in the PDPT.
///
/// Stored the way it is walked: an arena of nodes linked by index, node `i`
/// occupying the simulated frame at `metadata_base + i * 4 KiB` in
/// allocation order. Every node keeps its leaf slots under its id; only
/// directory nodes also hold a link table, in a side arena, so a PT-level
/// table costs the host 4 KiB, as it costs the simulated machine. Nodes
/// are never freed. The table covers the 48-bit address space; an address
/// above it is never mapped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RadixPageTable {
    /// Each node's leaf slots, indexed by node id.
    leaves: Vec<Leaves>,
    /// The link tables of the directory nodes; the root's is slot 0.
    links: Vec<Links>,
    /// Leaves currently installed.
    len: usize,
    metadata_base: PhysAddr,
}

impl RadixPageTable {
    /// Creates an empty radix table whose nodes are allocated starting at
    /// `metadata_base`.
    pub fn new(metadata_base: PhysAddr) -> Self {
        RadixPageTable {
            // The root (PML4) always exists.
            leaves: vec![[NO_LEAF; ENTRIES]],
            links: vec![Links::of(ROOT)],
            len: 0,
            metadata_base,
        }
    }

    /// Level (0 = PT … 2 = PDPT) whose entries are leaves of `size`.
    fn leaf_level(size: PageSize) -> usize {
        match size {
            PageSize::Size4K => 0,
            PageSize::Size2M => 1,
            PageSize::Size1G => 2,
        }
    }

    /// Index of `va`'s entry in its level-`level` node (3 = PML4 … 0 = PT).
    fn index(va: VirtAddr, level: usize) -> usize {
        ((va.raw() >> (12 + 9 * level)) & 0x1ff) as usize
    }

    /// The address the walker reads for entry `idx` of node `node`.
    fn entry_addr(&self, node: u32, idx: usize) -> PhysAddr {
        self.metadata_base
            .add(u64::from(node) * NODE_BYTES + idx as u64 * 8)
    }

    /// The node that the link `next` of a level-`level` table leads to,
    /// and the link table to go on from (unused below a PD: a PT links
    /// nothing).
    #[inline(always)]
    fn lower(&self, level: usize, next: u32) -> (u32, u32) {
        if level == 1 {
            (next, ROOT_LINKS)
        } else {
            (self.links[next as usize].node, next)
        }
    }

    /// Follows `va` down from the root, recording in `path[level]` the node
    /// visited at each level, until an entry holds a leaf (larger sizes
    /// win: they sit higher) or no lower table. Returns the last level
    /// visited and the leaf found there. (Forced inline: with `remove` as a
    /// second caller LLVM otherwise keeps it out of line in `walk`, where
    /// the path and the mapping then travel through memory.)
    #[inline(always)]
    fn descend(&self, va: VirtAddr, path: &mut [u32; 4]) -> (usize, Option<Mapping>) {
        let mut level = 3;
        path[level] = ROOT;
        if va.raw() >> VA_BITS != 0 {
            return (level, None);
        }
        let mut links = ROOT_LINKS;
        loop {
            let idx = Self::index(va, level);
            let leaf = self.leaves[path[level] as usize][idx];
            if leaf != NO_LEAF {
                // The PML4 holds no leaves, so `level` is at most 2 here.
                let size = LEAF_SIZE[level];
                let mapping = Mapping {
                    vaddr: va.page_base(size),
                    paddr: leaf,
                    page_size: size,
                };
                return (level, Some(mapping));
            }
            // A PT links no lower table.
            if level == 0 {
                return (level, None);
            }
            let next = self.links[links as usize].entries[idx];
            if next == 0 {
                return (level, None);
            }
            (path[level - 1], links) = self.lower(level, next);
            level -= 1;
        }
    }
}

impl PageTable for RadixPageTable {
    fn walk(&mut self, va: VirtAddr, skip_levels: usize) -> WalkOutcome {
        let mut path = [ROOT; 4];
        let (last, mapping) = self.descend(va, &mut path);
        // A PWC hit removes the uppermost levels, never the read of the
        // leaf entry; a faulting walk is cut like a 4 KiB one and reads
        // entries only as far down as tables exist.
        let deepest_start = if mapping.is_some() { last } else { 0 };
        let start = 3usize.saturating_sub(skip_levels).max(deepest_start);
        let mut outcome = WalkOutcome {
            mapping,
            accesses: WalkAccessList::new(),
            parallel: false,
        };
        for level in (last..=start).rev() {
            let entry = self.entry_addr(path[level], Self::index(va, level));
            outcome.accesses.push(entry);
        }
        outcome
    }

    fn insert(&mut self, mapping: Mapping) -> WalkAccessList {
        let va = mapping.vaddr;
        assert!(
            va.raw() >> VA_BITS == 0 && mapping.paddr != NO_LEAF,
            "radix page table maps 48-bit virtual addresses to frames below {NO_LEAF:?} (got {mapping:?})"
        );
        debug_assert!(va.is_aligned(mapping.page_size), "unaligned {mapping:?}");
        let leaf_level = Self::leaf_level(mapping.page_size);
        let mut accesses = WalkAccessList::new();
        let (mut node, mut links) = (ROOT, ROOT_LINKS);
        // Touch (and allocate if needed) every node down to the leaf's, then
        // keep following existing tables below it: a leaf of another size at
        // exactly this base is replaced, wherever on the path it sits.
        for level in (0..4).rev() {
            let idx = Self::index(va, level);
            if level >= leaf_level {
                accesses.push(self.entry_addr(node, idx));
            }
            let leaf = &mut self.leaves[node as usize][idx];
            let had_leaf = *leaf != NO_LEAF;
            if level == leaf_level {
                *leaf = mapping.paddr;
                self.len += usize::from(!had_leaf);
            } else if had_leaf && va.is_aligned(LEAF_SIZE[level]) {
                // (The PML4 holds no leaves, so `level` is at most 2 here.)
                *leaf = NO_LEAF;
                self.len -= 1;
            }
            if level == 0 {
                break;
            }
            let mut next = self.links[links as usize].entries[idx];
            if next == 0 {
                if level <= leaf_level {
                    break;
                }
                let child = u32::try_from(self.leaves.len()).expect("fewer than 2^32 nodes");
                self.leaves.push([NO_LEAF; ENTRIES]);
                next = if level == 1 {
                    child
                } else {
                    // A lower directory gets a link table of its own.
                    self.links.push(Links::of(child));
                    u32::try_from(self.links.len() - 1).expect("fewer than 2^32 nodes")
                };
                self.links[links as usize].entries[idx] = next;
            }
            (node, links) = self.lower(level, next);
        }
        accesses
    }

    fn remove(&mut self, va: VirtAddr) -> WalkAccessList {
        let mut path = [ROOT; 4];
        let (level, Some(_)) = self.descend(va, &mut path) else {
            return WalkAccessList::new();
        };
        let idx = Self::index(va, level);
        self.leaves[path[level] as usize][idx] = NO_LEAF;
        self.len -= 1;
        [self.entry_addr(path[level], idx)].into_iter().collect()
    }

    fn kind(&self) -> PageTableKind {
        PageTableKind::Radix
    }

    fn metadata_bytes(&self) -> u64 {
        self.leaves.len() as u64 * NODE_BYTES
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
#[path = "../../../../tests/common/naive/radix.rs"]
mod naive;

#[cfg(test)]
mod tests {
    use super::naive::MapRadix;
    use super::*;
    use proptest::prelude::*;

    fn map4k(va: u64) -> Mapping {
        Mapping {
            vaddr: VirtAddr::new(va),
            paddr: PhysAddr::new(0x2_0000_0000 + va),
            page_size: PageSize::Size4K,
        }
    }

    #[test]
    fn four_kb_walk_visits_four_levels() {
        let mut pt = RadixPageTable::new(PhysAddr::new(0x80_0000_0000));
        pt.insert(map4k(0x7f12_3456_7000));
        let walk = pt.walk(VirtAddr::new(0x7f12_3456_7000), 0);
        assert_eq!(walk.accesses.len(), 4);
        assert!(!walk.parallel);
    }

    #[test]
    fn huge_page_walks_are_shorter() {
        let mut pt = RadixPageTable::new(PhysAddr::new(0x80_0000_0000));
        pt.insert(Mapping {
            vaddr: VirtAddr::new(0x4000_0000),
            paddr: PhysAddr::new(0x2_0000_0000),
            page_size: PageSize::Size2M,
        });
        pt.insert(Mapping {
            vaddr: VirtAddr::new(0x8000_0000_0000 - 0x4000_0000),
            paddr: PhysAddr::new(0x3_0000_0000),
            page_size: PageSize::Size1G,
        });
        assert_eq!(pt.walk(VirtAddr::new(0x4000_0000), 0).accesses.len(), 3);
        assert_eq!(
            pt.walk(VirtAddr::new(0x8000_0000_0000 - 0x4000_0000), 0)
                .accesses
                .len(),
            2
        );
    }

    #[test]
    fn pwc_skips_reduce_accesses() {
        let mut pt = RadixPageTable::new(PhysAddr::new(0x80_0000_0000));
        pt.insert(map4k(0x7f12_3456_7000));
        let full = pt.walk(VirtAddr::new(0x7f12_3456_7000), 0);
        let skipped = pt.walk(VirtAddr::new(0x7f12_3456_7000), 3);
        assert_eq!(full.accesses.len(), 4);
        assert_eq!(skipped.accesses.len(), 1);
        assert_eq!(full.mapping, skipped.mapping);
    }

    #[test]
    fn insert_allocates_nodes_on_demand() {
        let mut pt = RadixPageTable::new(PhysAddr::new(0x80_0000_0000));
        let before = pt.metadata_bytes();
        pt.insert(map4k(0x1000));
        let after_first = pt.metadata_bytes();
        pt.insert(map4k(0x2000));
        let after_second = pt.metadata_bytes();
        assert!(after_first > before);
        // The second page shares all intermediate nodes with the first.
        assert_eq!(after_first, after_second);
        // A distant address needs fresh intermediate nodes.
        pt.insert(map4k(0x7f00_0000_0000));
        assert!(pt.metadata_bytes() > after_second);
    }

    /// Host bytes the arena's node and link storage occupy.
    fn host_bytes(pt: &RadixPageTable) -> usize {
        std::mem::size_of_val(pt.leaves.as_slice()) + std::mem::size_of_val(pt.links.as_slice())
    }

    #[test]
    fn a_pt_level_table_costs_the_host_what_it_costs_the_machine() {
        let mut pt = RadixPageTable::new(PhysAddr::new(0x80_0000_0000));
        pt.insert(map4k(0x4000_0000));
        for region in 1..64u64 {
            let (host, simulated) = (host_bytes(&pt), pt.metadata_bytes());
            // A fresh 2 MiB region under the same PD: one more PT.
            pt.insert(map4k(0x4000_0000 + (region << 21)));
            assert_eq!(pt.metadata_bytes() - simulated, NODE_BYTES);
            assert_eq!(host_bytes(&pt) - host, 4096, "region {region}");
        }
    }

    #[test]
    fn walk_of_partially_built_path_faults_with_partial_accesses() {
        let mut pt = RadixPageTable::new(PhysAddr::new(0x80_0000_0000));
        pt.insert(map4k(0x7f12_3456_7000));
        // Same 2 MiB region, different page: walk reaches the PT level but
        // the leaf is absent.
        let walk = pt.walk(VirtAddr::new(0x7f12_3456_8000), 0);
        assert!(walk.is_fault());
        assert_eq!(walk.accesses.len(), 4);
        // A totally unmapped region stops at the root.
        let far = pt.walk(VirtAddr::new(0x0000_1111_0000_0000), 0);
        assert!(far.is_fault());
        assert_eq!(far.accesses.len(), 1);
    }

    #[test]
    fn remove_then_walk_faults() {
        let mut pt = RadixPageTable::new(PhysAddr::new(0x80_0000_0000));
        pt.insert(map4k(0x9000));
        assert!(!pt.remove(VirtAddr::new(0x9000)).is_empty());
        assert!(pt.walk(VirtAddr::new(0x9000), 0).is_fault());
        assert!(pt.remove(VirtAddr::new(0x9000)).is_empty());
    }

    #[test]
    fn metadata_lives_at_the_configured_base() {
        let base = PhysAddr::new(0x123_0000_0000);
        let mut pt = RadixPageTable::new(base);
        pt.insert(map4k(0x1000));
        let walk = pt.walk(VirtAddr::new(0x1000), 0);
        assert!(walk.accesses.iter().all(|a| a.raw() >= base.raw()));
    }

    #[test]
    fn a_huge_leaf_hides_and_its_removal_re_exposes_the_base_pages_below() {
        let mut pt = RadixPageTable::new(PhysAddr::new(0x80_0000_0000));
        let base_page = map4k(0x4000_1000);
        pt.insert(base_page);
        let huge = Mapping {
            vaddr: VirtAddr::new(0x4000_0000),
            paddr: PhysAddr::new(0x9_0000_0000),
            page_size: PageSize::Size2M,
        };
        pt.insert(huge);
        assert_eq!(pt.len(), 2);
        let hidden = pt.walk(VirtAddr::new(0x4000_1000), 0);
        assert_eq!(hidden.mapping, Some(huge));
        assert_eq!(hidden.accesses.len(), 3);
        assert_eq!(pt.remove(VirtAddr::new(0x4000_1000)).len(), 1);
        let exposed = pt.walk(VirtAddr::new(0x4000_1000), 0);
        assert_eq!(exposed.mapping, Some(base_page));
        assert_eq!(exposed.accesses.len(), 4);
    }

    #[test]
    fn a_mapping_replaces_a_leaf_of_another_size_at_exactly_its_base() {
        let mut pt = RadixPageTable::new(PhysAddr::new(0x80_0000_0000));
        pt.insert(map4k(0x4000_0000));
        pt.insert(map4k(0x4000_1000));
        pt.insert(Mapping {
            vaddr: VirtAddr::new(0x4000_0000),
            paddr: PhysAddr::new(0x9_0000_0000),
            page_size: PageSize::Size2M,
        });
        // The base page at the huge page's own base is gone, its neighbour
        // is only hidden.
        assert_eq!(pt.len(), 2);
        pt.remove(VirtAddr::new(0x4000_0000));
        assert!(pt.walk(VirtAddr::new(0x4000_0000), 0).is_fault());
        assert!(!pt.walk(VirtAddr::new(0x4000_1000), 0).is_fault());
    }

    #[test]
    fn addresses_above_48_bits_are_never_mapped() {
        let mut pt = RadixPageTable::new(PhysAddr::new(0x80_0000_0000));
        pt.insert(map4k(0x1000));
        let alias = VirtAddr::new((1 << 48) | 0x1000);
        let walk = pt.walk(alias, 0);
        assert!(walk.is_fault());
        assert_eq!(walk.accesses.len(), 1, "only the PML4 entry is read");
        assert!(pt.remove(alias).is_empty());
        assert_eq!(pt.len(), 1);
    }

    /// An address from a pool small and aligned enough that mappings of
    /// all three sizes collide at the same bases, share tables, nest inside
    /// each other and sit under two different PML4 entries.
    fn pooled_va(r: u64) -> VirtAddr {
        const PICKS: [u64; 4] = [0, 0, 1, 511];
        let gib = [0, 1, 512, 513][(r & 3) as usize];
        let mib2 = PICKS[(r >> 2 & 3) as usize];
        let kib4 = PICKS[(r >> 4 & 3) as usize];
        VirtAddr::new((gib << 30) | (mib2 << 21) | (kib4 << 12) | (r >> 6 & 0xfff))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn arena_matches_the_map_model_op_for_op(
            ops in prop::collection::vec(any::<u64>(), 1..400)
        ) {
            let base = PhysAddr::new(0x80_0000_0000);
            let mut arena = RadixPageTable::new(base);
            let mut model = MapRadix::new(base);
            for (step, op) in ops.into_iter().enumerate() {
                let mut va = pooled_va(op >> 8);
                match op & 7 {
                    0..=2 => {
                        let size = PageSize::ALL[(op >> 3) as usize % 3];
                        let mapping = Mapping {
                            vaddr: va.page_base(size),
                            paddr: PhysAddr::new((op >> 20) & !0xfff),
                            page_size: size,
                        };
                        prop_assert_eq!(arena.insert(mapping).as_slice(), model.insert(mapping), "step {}", step);
                    }
                    3 => prop_assert_eq!(arena.remove(va).as_slice(), model.remove(va), "step {}", step),
                    _ => {
                        if op >> 3 & 31 == 0 {
                            va = VirtAddr::new(va.raw() | 1 << 48);
                        }
                        let skip = (op >> 40) as usize % 5;
                        prop_assert_eq!(arena.walk(va, skip), model.walk(va, skip), "step {}", step);
                    }
                }
                prop_assert_eq!(arena.len(), model.leaves.len(), "step {}", step);
                prop_assert_eq!(
                    arena.metadata_bytes(),
                    model.nodes.len() as u64 * NODE_BYTES,
                    "step {}", step
                );
            }
        }
    }
}

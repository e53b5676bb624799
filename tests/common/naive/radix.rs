//! `MapRadix`: the four-level radix page table as the obvious model. The
//! including module brings `Mapping`, `WalkAccessList`, `WalkOutcome`,
//! `PageSize`, `PhysAddr` and `VirtAddr` into scope.

use super::*;
use std::collections::BTreeMap;

/// Bytes of one page-table page.
const NODE_BYTES: u64 = 4096;

/// The representation the arena replaced, kept as the oracle: node
/// frames keyed by (level, address prefix) and every leaf, whatever its
/// size, keyed by its base address alone.
pub struct MapRadix {
    pub nodes: BTreeMap<(u8, u64), PhysAddr>,
    pub leaves: BTreeMap<u64, Mapping>,
    pub metadata_base: PhysAddr,
}

impl MapRadix {
    pub fn new(metadata_base: PhysAddr) -> Self {
        let mut pt = MapRadix {
            nodes: BTreeMap::new(),
            leaves: BTreeMap::new(),
            metadata_base,
        };
        pt.allocate_node(3, 0);
        pt
    }

    fn allocate_node(&mut self, level: u8, prefix: u64) -> PhysAddr {
        let next = self.metadata_base.add(self.nodes.len() as u64 * NODE_BYTES);
        *self.nodes.entry((level, prefix)).or_insert(next)
    }

    fn prefix(va: VirtAddr, level: u8) -> u64 {
        match level {
            3 => 0,
            2 => va.raw() >> 39,
            1 => va.raw() >> 30,
            _ => va.raw() >> 21,
        }
    }

    fn entry_addr(node: PhysAddr, va: VirtAddr, level: u8) -> PhysAddr {
        node.add(((va.raw() >> (12 + 9 * u32::from(level))) & 0x1ff) * 8)
    }

    fn find_leaf(&self, va: VirtAddr) -> Option<Mapping> {
        [PageSize::Size1G, PageSize::Size2M, PageSize::Size4K]
            .into_iter()
            .find_map(|size| {
                let m = self.leaves.get(&va.page_base(size).raw())?;
                (m.page_size == size).then_some(*m)
            })
    }

    fn walk_depth(size: PageSize) -> u8 {
        match size {
            PageSize::Size1G => 2,
            PageSize::Size2M => 3,
            PageSize::Size4K => 4,
        }
    }

    pub fn walk(&self, va: VirtAddr, skip_levels: usize) -> WalkOutcome {
        let leaf = self.find_leaf(va);
        let depth = leaf.map_or(4, |m| Self::walk_depth(m.page_size));
        let mut accesses = WalkAccessList::new();
        let start_level = 3_i32 - (skip_levels as i32).min(i32::from(depth) - 1);
        for l in (0..=start_level).rev() {
            let level = l as u8;
            if (4 - depth) > level {
                break;
            }
            match self.nodes.get(&(level, Self::prefix(va, level))) {
                Some(&node) => accesses.push(Self::entry_addr(node, va, level)),
                None => break,
            }
        }
        WalkOutcome {
            mapping: leaf,
            accesses,
            parallel: false,
        }
    }

    pub fn insert(&mut self, mapping: Mapping) -> Vec<PhysAddr> {
        let va = mapping.vaddr;
        let depth = Self::walk_depth(mapping.page_size);
        let mut accesses = Vec::new();
        for l in (4 - depth..4).rev() {
            let node = self.allocate_node(l, Self::prefix(va, l));
            accesses.push(Self::entry_addr(node, va, l));
        }
        self.leaves.insert(va.raw(), mapping);
        accesses
    }

    pub fn remove(&mut self, va: VirtAddr) -> Vec<PhysAddr> {
        let Some(mapping) = self.find_leaf(va) else {
            return Vec::new();
        };
        self.leaves.remove(&mapping.vaddr.raw());
        let level = 4 - Self::walk_depth(mapping.page_size);
        let node = self.nodes[&(level, Self::prefix(mapping.vaddr, level))];
        vec![Self::entry_addr(node, mapping.vaddr, level)]
    }
}

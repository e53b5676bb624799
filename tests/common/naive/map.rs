//! `NaiveMap`: a process's page map as the obvious model. The including
//! module brings `Mapping`, `PageSize` and `VirtAddr` into scope.

use super::*;
use std::collections::BTreeMap;

/// The page map as it was before the two-level layout, kept as the
/// obviously right reference: one `BTreeMap` entry per mapping keyed by
/// base address, every region query a range scan.
#[derive(Default)]
pub struct NaiveMap {
    pub mappings: BTreeMap<u64, Mapping>,
    pub swapped: BTreeMap<u64, u64>,
}

impl NaiveMap {
    pub fn lookup_mapping(&self, addr: VirtAddr) -> Option<Mapping> {
        [PageSize::Size1G, PageSize::Size2M, PageSize::Size4K]
            .into_iter()
            .find_map(|size| {
                let m = self.mappings.get(&addr.page_base(size).raw())?;
                (m.page_size == size).then_some(*m)
            })
    }

    pub fn insert_mapping(&mut self, mapping: Mapping) {
        self.mappings.insert(mapping.vaddr.raw(), mapping);
    }

    pub fn remove_mapping(&mut self, addr: VirtAddr) -> Option<Mapping> {
        let m = self.lookup_mapping(addr)?;
        self.mappings.remove(&m.vaddr.raw())
    }

    pub fn collapse_to_huge(&mut self, addr: VirtAddr, huge: Mapping) -> Vec<Mapping> {
        let region = addr.page_base(PageSize::Size2M);
        let removed = (0..PageSize::Size2M.base_pages())
            .filter_map(|i| self.mappings.remove(&region.add(i * 4096).raw()))
            .collect();
        self.insert_mapping(huge);
        removed
    }

    pub fn mapped_4k_in_region(&self, addr: VirtAddr) -> u64 {
        let region = addr.page_base(PageSize::Size2M).raw();
        self.mappings
            .range(region..region + PageSize::Size2M.bytes())
            .filter(|(_, m)| m.page_size == PageSize::Size4K)
            .count() as u64
    }

    pub fn region_has_mappings(&self, addr: VirtAddr, size: PageSize) -> bool {
        let base = addr.page_base(size);
        let mut inside = self.mappings.range(base.raw()..base.raw() + size.bytes());
        inside.next().is_some() || self.lookup_mapping(base).is_some()
    }

    pub fn resident_bytes(&self) -> u64 {
        self.mappings.values().map(|m| m.page_size.bytes()).sum()
    }

    pub fn swap_out(&mut self, addr: VirtAddr, slot: u64) -> Option<Mapping> {
        let base = addr.page_base(PageSize::Size4K);
        let m = self.remove_mapping(base);
        if m.is_some() {
            self.swapped.insert(base.raw(), slot);
        }
        m
    }

    pub fn take_swap_slot(&mut self, addr: VirtAddr) -> Option<u64> {
        self.swapped.remove(&addr.page_base(PageSize::Size4K).raw())
    }

    pub fn base_mappings(&self) -> impl Iterator<Item = Mapping> + '_ {
        let all = self.mappings.values().copied();
        all.filter(|m| m.page_size == PageSize::Size4K)
    }

    pub fn kill(&mut self) -> (Vec<Mapping>, Vec<u64>) {
        let mappings = std::mem::take(&mut self.mappings);
        let swapped = std::mem::take(&mut self.swapped);
        (
            mappings.into_values().collect(),
            swapped.into_values().collect(),
        )
    }

    pub fn demote_mapping(&mut self, addr: VirtAddr) -> Option<(Mapping, Vec<Mapping>)> {
        let huge = self.lookup_mapping(addr)?;
        let piece_size = match huge.page_size {
            PageSize::Size4K => return None,
            PageSize::Size2M => PageSize::Size4K,
            PageSize::Size1G => PageSize::Size2M,
        };
        self.mappings.remove(&huge.vaddr.raw());
        let pieces: Vec<Mapping> = (0..huge.page_size.bytes() / piece_size.bytes())
            .map(|i| Mapping {
                vaddr: huge.vaddr.add(i * piece_size.bytes()),
                paddr: huge.paddr.add(i * piece_size.bytes()),
                page_size: piece_size,
            })
            .collect();
        for &piece in &pieces {
            self.insert_mapping(piece);
        }
        Some((huge, pieces))
    }
}

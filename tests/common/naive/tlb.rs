//! `NaiveTlb`: one TLB level as the obvious model. The including module
//! brings `TlbConfig`, `TlbStats`, `Mapping`, `Asid`, `PageSize` and
//! `VirtAddr` into scope.

use super::*;

/// The obvious TLB the flat one must agree with: one `Vec` of optional
/// entries per set, a separate pass for each question a fill asks.
pub struct NaiveTlb {
    pub sizes: Vec<PageSize>,
    pub sets: Vec<Vec<Option<NaiveEntry>>>,
    pub clock: u64,
    pub stats: TlbStats,
}

#[derive(Clone, Copy)]
pub struct NaiveEntry {
    pub asid: Asid,
    pub mapping: Mapping,
    pub lru: u64,
}

impl NaiveEntry {
    pub fn covers(&self, asid: Asid, size: PageSize, va: VirtAddr) -> bool {
        self.asid == asid && self.mapping.page_size == size && self.mapping.covers(va)
    }
}

impl NaiveTlb {
    pub fn new(config: &TlbConfig) -> Self {
        let sets = (config.entries / config.ways).max(1);
        NaiveTlb {
            sizes: config.page_sizes.clone(),
            sets: vec![vec![None; config.ways]; sets],
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    fn set_of(&mut self, size: PageSize, va: VirtAddr) -> &mut Vec<Option<NaiveEntry>> {
        let sets = self.sets.len() as u64;
        &mut self.sets[(va.page_number(size).number() % sets) as usize]
    }

    pub fn lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<Mapping> {
        self.clock += 1;
        let clock = self.clock;
        for size in self.sizes.clone() {
            let set = self.set_of(size, va);
            if let Some(e) = set.iter_mut().flatten().find(|e| e.covers(asid, size, va)) {
                e.lru = clock;
                let mapping = e.mapping;
                self.stats.hits.inc();
                return Some(mapping);
            }
        }
        self.stats.misses.inc();
        None
    }

    pub fn fill(&mut self, asid: Asid, mapping: Mapping) -> Option<Mapping> {
        if !self.sizes.contains(&mapping.page_size) {
            return None;
        }
        self.clock += 1;
        let lru = self.clock;
        let fresh = Some(NaiveEntry { asid, mapping, lru });
        let set = self.set_of(mapping.page_size, mapping.vaddr);
        let resident = |e: &&mut Option<NaiveEntry>| {
            e.is_some_and(|e| e.covers(asid, mapping.page_size, mapping.vaddr))
        };
        if let Some(slot) = set.iter_mut().find(resident) {
            *slot = fresh;
            return None;
        }
        if let Some(slot) = set.iter_mut().find(|e| e.is_none()) {
            *slot = fresh;
            return None;
        }
        let oldest = set.iter().flatten().map(|e| e.lru).min().expect("full set");
        let slot = set.iter_mut().find(|e| e.is_some_and(|e| e.lru == oldest));
        let slot = slot.expect("the minimum is some way's stamp");
        let evicted = slot.map(|e| e.mapping);
        *slot = fresh;
        self.stats.evictions.inc();
        evicted
    }

    fn drop_where(&mut self, doomed: impl Fn(&NaiveEntry) -> bool) -> usize {
        let mut dropped = 0;
        for slot in self.sets.iter_mut().flatten() {
            if slot.as_ref().is_some_and(&doomed) {
                *slot = None;
                dropped += 1;
            }
        }
        dropped
    }

    pub fn invalidate(&mut self, asid: Asid, va: VirtAddr) -> usize {
        let dropped = self.drop_where(|e| e.covers(asid, e.mapping.page_size, va));
        self.stats.invalidations.add(dropped as u64);
        dropped
    }

    pub fn flush(&mut self) -> usize {
        let dropped = self.drop_where(|_| true);
        self.stats.flushed_entries.add(dropped as u64);
        dropped
    }

    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let dropped = self.drop_where(|e| e.asid == asid);
        self.stats.asid_flushed_entries.add(dropped as u64);
        dropped
    }

    pub fn entries(&self) -> Vec<(Asid, Mapping)> {
        let live = self.sets.iter().flatten().flatten();
        live.map(|e| (e.asid, e.mapping)).collect()
    }
}

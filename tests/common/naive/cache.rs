//! `NaiveCache`: one set-associative cache level as the obvious model.
//! The including module brings `CacheConfig`, `CacheStats`,
//! `ReplacementPolicy` and `Requestor` into scope.

use super::*;

/// The obvious cache the flat one must agree with: one `Vec` of ways
/// per set, each way a record carrying its own replacement value, and a
/// separate pass for every question a fill asks.
pub struct NaiveCache {
    pub policy: ReplacementPolicy,
    pub sets: Vec<NaiveSet>,
    pub stats: CacheStats,
}

#[derive(Clone)]
pub struct NaiveSet {
    pub ways: Vec<NaiveWay>,
    pub clock: u32,
}

#[derive(Clone, Copy)]
pub struct NaiveWay {
    pub line: Option<u64>,
    pub dirty: bool,
    pub prefetched: bool,
    /// LRU age stamp or SRRIP re-reference prediction value.
    pub value: u32,
}

impl NaiveCache {
    pub fn new(config: &CacheConfig) -> Self {
        let idle = NaiveWay {
            line: None,
            dirty: false,
            prefetched: false,
            value: match config.replacement {
                ReplacementPolicy::Lru => 0,
                ReplacementPolicy::Srrip => 3,
            },
        };
        let set = NaiveSet {
            ways: vec![idle; config.ways as usize],
            clock: 0,
        };
        NaiveCache {
            policy: config.replacement,
            sets: vec![set; config.num_sets()],
            stats: CacheStats::default(),
        }
    }

    fn touch(policy: ReplacementPolicy, set: &mut NaiveSet, way: usize, srrip_value: u32) {
        set.ways[way].value = match policy {
            ReplacementPolicy::Lru => {
                set.clock += 1;
                set.clock
            }
            ReplacementPolicy::Srrip => srrip_value,
        };
    }

    pub fn lookup(&mut self, line: u64, is_write: bool, requestor: Requestor) -> bool {
        let sets = self.sets.len() as u64;
        let set = &mut self.sets[(line % sets) as usize];
        let Some(way) = set.ways.iter().position(|w| w.line == Some(line)) else {
            self.stats.misses.inc();
            if requestor == Requestor::Kernel {
                self.stats.kernel_misses.inc();
            }
            return false;
        };
        set.ways[way].dirty |= is_write;
        if std::mem::take(&mut set.ways[way].prefetched) {
            self.stats.prefetch_hits.inc();
        }
        Self::touch(self.policy, set, way, 0);
        self.stats.hits.inc();
        true
    }

    pub fn fill(&mut self, line: u64, is_write: bool, prefetched: bool) -> Option<u64> {
        let sets = self.sets.len() as u64;
        let set = &mut self.sets[(line % sets) as usize];
        if let Some(way) = set.ways.iter_mut().find(|w| w.line == Some(line)) {
            way.dirty |= is_write;
            return None;
        }
        let way = match set.ways.iter().position(|w| w.line.is_none()) {
            Some(invalid) => invalid,
            None => {
                self.stats.evictions.inc();
                match self.policy {
                    ReplacementPolicy::Lru => {
                        let oldest = set.ways.iter().map(|w| w.value).min().expect("ways");
                        set.ways
                            .iter()
                            .position(|w| w.value == oldest)
                            .expect("ways")
                    }
                    ReplacementPolicy::Srrip => loop {
                        if let Some(distant) = set.ways.iter().position(|w| w.value >= 3) {
                            break distant;
                        }
                        set.ways.iter_mut().for_each(|w| w.value += 1);
                    },
                }
            }
        };
        let victim = set.ways[way];
        set.ways[way] = NaiveWay {
            line: Some(line),
            dirty: is_write,
            prefetched,
            value: victim.value,
        };
        Self::touch(self.policy, set, way, 2);
        if prefetched {
            self.stats.prefetch_fills.inc();
        }
        victim.line.filter(|_| victim.dirty)
    }

    pub fn invalidate(&mut self, line: u64) -> bool {
        let sets = self.sets.len() as u64;
        let set = &mut self.sets[(line % sets) as usize];
        match set.ways.iter_mut().find(|w| w.line == Some(line)) {
            Some(way) => {
                way.line = None;
                true
            }
            None => false,
        }
    }
}

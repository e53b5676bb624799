//! Cache replacement policies: LRU and SRRIP.
//!
//! The paper's baseline (Table 4) uses LRU in the L1 caches and SRRIP
//! (static re-reference interval prediction, Jaleel et al., ISCA 2010) in
//! the L2/L3.

use serde::{Deserialize, Serialize};

/// Replacement policy selector for a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used.
    #[default]
    Lru,
    /// Static re-reference interval prediction with 2-bit RRPV counters.
    Srrip,
}

/// Maximum RRPV for 2-bit SRRIP.
const SRRIP_MAX: u32 = 3;
/// RRPV assigned on insertion ("long re-reference interval").
const SRRIP_INSERT: u32 = 2;

/// Replacement state of every set of one cache, flat and way-major like the
/// cache's lines: way `w` of set `s` is `meta[s * ways + w]`. For LRU the
/// value is an age stamp from the set's own clock; for SRRIP it is the
/// re-reference prediction value (RRPV).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Replacement {
    policy: ReplacementPolicy,
    ways: usize,
    meta: Vec<u32>,
    /// One LRU clock per set (unused by SRRIP).
    clocks: Vec<u32>,
}

impl Replacement {
    /// Creates replacement state for `sets` sets of `ways` ways each.
    pub(crate) fn new(policy: ReplacementPolicy, sets: usize, ways: usize) -> Self {
        let init = match policy {
            ReplacementPolicy::Lru => 0,
            ReplacementPolicy::Srrip => SRRIP_MAX,
        };
        Replacement {
            policy,
            ways,
            meta: vec![init; sets * ways],
            clocks: vec![0; sets],
        }
    }

    /// Notifies the policy that `way` of `set` was accessed (hit).
    pub(crate) fn on_hit(&mut self, set: usize, way: usize) {
        self.meta[set * self.ways + way] = match self.policy {
            ReplacementPolicy::Lru => self.tick(set),
            ReplacementPolicy::Srrip => 0,
        };
    }

    /// Notifies the policy that a new line was inserted into `way` of `set`.
    pub(crate) fn on_insert(&mut self, set: usize, way: usize) {
        self.meta[set * self.ways + way] = match self.policy {
            ReplacementPolicy::Lru => self.tick(set),
            ReplacementPolicy::Srrip => SRRIP_INSERT,
        };
    }

    fn tick(&mut self, set: usize) -> u32 {
        self.clocks[set] += 1;
        self.clocks[set]
    }

    /// Chooses the way to evict from a `set` whose ways all hold valid
    /// lines (the cache prefers an invalid way and never asks then). Ties
    /// break to the lowest way; SRRIP ages the whole set until a way
    /// reaches the maximum RRPV.
    pub(crate) fn victim(&mut self, set: usize) -> usize {
        let meta = &mut self.meta[set * self.ways..(set + 1) * self.ways];
        match self.policy {
            // `min_by_key` keeps the first of equal minima.
            ReplacementPolicy::Lru => meta
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map_or(0, |(way, _)| way),
            ReplacementPolicy::Srrip => loop {
                if let Some(way) = meta.iter().position(|&rrpv| rrpv >= SRRIP_MAX) {
                    break way;
                }
                for rrpv in meta.iter_mut() {
                    *rrpv += 1;
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_set(policy: ReplacementPolicy, ways: usize) -> Replacement {
        let mut set = Replacement::new(policy, 1, ways);
        for way in 0..ways {
            set.on_insert(0, way);
        }
        set
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut set = full_set(ReplacementPolicy::Lru, 4);
        set.on_hit(0, 0);
        set.on_hit(0, 2);
        set.on_hit(0, 3);
        // Way 1 was inserted earliest and never touched again.
        assert_eq!(set.victim(0), 1);
    }

    #[test]
    fn srrip_protects_rereferenced_lines() {
        let mut set = full_set(ReplacementPolicy::Srrip, 2);
        // Way 0 is re-referenced (RRPV=0), way 1 is not (RRPV=2).
        set.on_hit(0, 0);
        assert_eq!(set.victim(0), 1);
    }

    #[test]
    fn srrip_eventually_finds_a_victim_even_when_all_hot() {
        let mut set = full_set(ReplacementPolicy::Srrip, 4);
        for way in 0..4 {
            set.on_hit(0, way);
        }
        // Three rounds of aging lift every RRPV from 0 to 3; the lowest
        // way wins the tie.
        assert_eq!(set.victim(0), 0);
        assert_eq!(set.meta, vec![3; 4]);
    }

    #[test]
    fn lru_victim_rotates_under_streaming() {
        let mut set = full_set(ReplacementPolicy::Lru, 2);
        let v1 = set.victim(0);
        set.on_insert(0, v1);
        let v2 = set.victim(0);
        assert_ne!(v1, v2);
    }

    #[test]
    fn sets_keep_separate_clocks_and_state() {
        let mut r = Replacement::new(ReplacementPolicy::Lru, 2, 2);
        for way in 0..2 {
            r.on_insert(0, way);
            r.on_insert(1, way);
        }
        r.on_hit(0, 0);
        assert_eq!(r.victim(0), 1);
        assert_eq!(r.victim(1), 0, "set 1 never saw the hit");
        assert_eq!(r.clocks, vec![3, 2]);
    }
}

//! `NaiveLevel`: one page-walk-cache level as the obvious model.

/// The obvious level the flat one must agree with: a `Vec` of optional
/// `(tag, stamp)` ways per set, a pass for the free way and a pass for
/// the oldest.
pub struct NaiveLevel {
    pub sets: Vec<Vec<Option<(u64, u64)>>>,
    pub clock: u64,
    pub hits: u64,
    pub misses: u64,
}

impl NaiveLevel {
    fn set_of(&mut self, tag: u64) -> &mut Vec<Option<(u64, u64)>> {
        let sets = self.sets.len() as u64;
        &mut self.sets[(tag % sets) as usize]
    }

    pub fn probe(&mut self, tag: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        match self.set_of(tag).iter_mut().flatten().find(|w| w.0 == tag) {
            Some(way) => {
                way.1 = clock;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    pub fn fill(&mut self, tag: u64) {
        self.clock += 1;
        let fresh = Some((tag, self.clock));
        let set = self.set_of(tag);
        if let Some(free) = set.iter_mut().find(|w| w.is_none()) {
            *free = fresh;
            return;
        }
        let oldest = set.iter().flatten().map(|w| w.1).min().expect("full set");
        let victim = set.iter_mut().find(|w| w.is_some_and(|w| w.1 == oldest));
        *victim.expect("the minimum is some way's stamp") = fresh;
    }

    pub fn invalidate(&mut self, tag: u64) -> usize {
        let mut dropped = 0;
        for way in self.set_of(tag) {
            if way.is_some_and(|w| w.0 == tag) {
                *way = None;
                dropped += 1;
            }
        }
        dropped
    }
}

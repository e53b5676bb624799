//! The synthetic trace generator: turns a [`WorkloadSpec`] into an
//! instruction stream implementing [`TraceSource`].

use crate::spec::{AccessPattern, WorkloadSpec};
use sim_core::{Instruction, TraceSource};
use vm_types::{AccessType, DetRng, VirtAddr};

/// A deterministic synthetic workload built from a [`WorkloadSpec`].
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    spec: WorkloadSpec,
    rng: DetRng,
    produced: u64,
    /// Cursor for streaming / allocate-and-touch patterns (byte offset into
    /// the currently selected region).
    cursor: u64,
    /// Pages already touched by the allocate-and-touch pattern.
    touched_pages: u64,
    region_weights: Vec<f64>,
}

impl SyntheticWorkload {
    /// Creates a generator for `spec`, seeded deterministically.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        let region_weights = spec.regions.iter().map(|r| r.access_weight).collect();
        SyntheticWorkload {
            rng: DetRng::new(seed ^ 0x5EED_0000),
            spec,
            produced: 0,
            cursor: 0,
            touched_pages: 0,
            region_weights,
        }
    }

    /// The specification this generator was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Instructions produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    fn pick_region(&mut self) -> usize {
        if self.spec.regions.len() == 1 {
            0
        } else {
            self.rng.weighted_index(&self.region_weights)
        }
    }

    fn next_data_address(&mut self) -> VirtAddr {
        let region_idx = self.pick_region();
        let region = self.spec.regions[region_idx];
        let offset = match self.spec.pattern {
            AccessPattern::PointerChasing | AccessPattern::UniformRandom => {
                self.rng.gen_range(0, region.bytes.max(8)) & !0x7
            }
            AccessPattern::Streaming { jump_probability } => {
                if self.rng.gen_bool(jump_probability) {
                    self.cursor = self.rng.gen_range(0, region.bytes.max(64)) & !0x3f;
                } else {
                    self.cursor = (self.cursor + 64) % region.bytes.max(64);
                }
                self.cursor
            }
            AccessPattern::AllocateAndTouch { new_page_fraction } => {
                let total_pages = (region.bytes / 4096).max(1);
                if self.rng.gen_bool(new_page_fraction) && self.touched_pages < total_pages {
                    // Touch the next never-touched page (a fresh allocation →
                    // a page fault in the simulator).
                    let page = self.touched_pages;
                    self.touched_pages += 1;
                    (page * 4096 + self.rng.gen_range(0, 4096)) & !0x7
                } else {
                    // Revisit a recently touched page.
                    let hot = self.touched_pages.clamp(1, 64);
                    let page = self
                        .touched_pages
                        .saturating_sub(self.rng.gen_range(1, hot + 1));
                    page * 4096 + (self.rng.gen_range(0, 4096) & !0x7)
                }
            }
        };
        region.start.add(offset.min(region.bytes.saturating_sub(8)))
    }
}

impl TraceSource for SyntheticWorkload {
    fn next_instruction(&mut self) -> Option<Instruction> {
        if self.produced >= self.spec.instructions {
            return None;
        }
        self.produced += 1;
        let pc = VirtAddr::new(0x40_0000 + (self.produced % 4096) * 4);
        if self.rng.gen_bool(self.spec.memory_fraction) {
            let addr = self.next_data_address();
            let kind = if self.rng.gen_bool(0.3) {
                AccessType::Write
            } else {
                AccessType::Read
            };
            Some(Instruction {
                pc,
                memory: Some((addr, kind)),
            })
        } else {
            Some(Instruction::compute(pc))
        }
    }

    fn name(&self) -> &str {
        &self.spec.name
    }

    fn expected_instructions(&self) -> Option<u64> {
        Some(self.spec.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadClass;

    fn spec(pattern: AccessPattern) -> WorkloadSpec {
        WorkloadSpec::simple("t", WorkloadClass::LongRunning, 1 << 24, pattern, 10_000)
    }

    #[test]
    fn produces_exactly_the_requested_instructions() {
        let mut w = spec(AccessPattern::UniformRandom).build(1);
        let mut count = 0;
        while w.next_instruction().is_some() {
            count += 1;
        }
        assert_eq!(count, 10_000);
        assert_eq!(w.produced(), 10_000);
        assert!(w.next_instruction().is_none());
    }

    #[test]
    fn addresses_stay_inside_the_region() {
        for pattern in [
            AccessPattern::UniformRandom,
            AccessPattern::PointerChasing,
            AccessPattern::Streaming {
                jump_probability: 0.05,
            },
            AccessPattern::AllocateAndTouch {
                new_page_fraction: 0.2,
            },
        ] {
            let s = spec(pattern);
            let start = s.regions[0].start.raw();
            let end = start + s.regions[0].bytes;
            let mut w = s.build(3);
            while let Some(instr) = w.next_instruction() {
                if let Some((addr, _)) = instr.memory {
                    assert!(
                        addr.raw() >= start && addr.raw() < end,
                        "{addr} outside region"
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_trace() {
        let s = spec(AccessPattern::UniformRandom);
        let mut a = s.build(9);
        let mut b = s.build(9);
        for _ in 0..1000 {
            assert_eq!(a.next_instruction(), b.next_instruction());
        }
    }

    #[test]
    fn memory_fraction_is_respected_approximately() {
        let mut s = spec(AccessPattern::UniformRandom);
        s.memory_fraction = 0.5;
        let mut w = s.build(11);
        let mut mem = 0;
        let mut total = 0;
        while let Some(i) = w.next_instruction() {
            total += 1;
            if i.is_memory() {
                mem += 1;
            }
        }
        let frac = mem as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.05, "memory fraction {frac}");
    }

    #[test]
    fn random_patterns_touch_many_distinct_pages() {
        let mut w = spec(AccessPattern::PointerChasing).build(13);
        let mut pages = std::collections::BTreeSet::new();
        while let Some(i) = w.next_instruction() {
            if let Some((addr, _)) = i.memory {
                pages.insert(addr.raw() >> 12);
            }
        }
        assert!(pages.len() > 500, "only {} pages", pages.len());
    }

    #[test]
    fn allocate_and_touch_grows_footprint_monotonically() {
        let mut w = spec(AccessPattern::AllocateAndTouch {
            new_page_fraction: 0.3,
        })
        .build(17);
        let mut max_page = 0u64;
        while let Some(i) = w.next_instruction() {
            if let Some((addr, _)) = i.memory {
                max_page = max_page.max((addr.raw() - 0x10_0000_0000) >> 12);
            }
        }
        assert!(max_page > 100);
    }
}

//! A small, deterministic, seedable pseudo-random number generator.
//!
//! Every stochastic decision in the framework (workload address streams,
//! hash functions with randomized seeds, fragmentation injection) flows
//! through [`DetRng`] so that experiments are reproducible bit-for-bit from a
//! seed. The generator is the `splitmix64`/`xoshiro256**` combination, which
//! is small, fast and has no external dependency.

use serde::{Deserialize, Serialize};

/// Deterministic pseudo-random number generator (xoshiro256** seeded through
/// splitmix64).
///
/// # Examples
///
/// ```
/// use vm_types::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let r = a.gen_range(10, 20);
/// assert!((10..20).contains(&r));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { state }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range requires lo < hi (got {lo}..{hi})");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Samples an index from a discrete weighted distribution. Returns the
    /// index of the chosen weight.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or all weights are zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index requires weights");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0,
            "weighted_index requires a positive total weight"
        );
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0, (i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }
}

impl Default for DetRng {
    fn default() -> Self {
        DetRng::new(0xC0FF_EE00_DEAD_BEEF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = DetRng::new(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(5, 17);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn gen_range_rejects_empty_range() {
        let mut rng = DetRng::new(3);
        let _ = rng.gen_range(5, 5);
    }

    #[test]
    fn next_f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = DetRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = DetRng::new(13);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "fraction was {frac}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = DetRng::new(23);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio was {ratio}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(29);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }
}

//! A fast, deterministic hasher for simulator-internal hash maps.
//!
//! `std`'s default `SipHash` is hardened against collision attacks the
//! simulator does not face, and its per-lookup cost is visible on the
//! steady-state instruction loop (the page-table storage maps are probed
//! on every TLB miss). This is the classic Fx multiply-rotate hash used by
//! rustc: a few cycles per word, and — unlike `RandomState` — fully
//! deterministic across processes, which keeps any serialized map output
//! reproducible.
//!
//! # Examples
//!
//! ```
//! use vm_types::FxHashMap;
//!
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(42, "walk");
//! assert_eq!(m.get(&42), Some(&"walk"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplication constant (golden-ratio derived, as in rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (deterministic: no random seed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the deterministic Fx hasher — the only hash map
/// simulation code may use (`clippy.toml` disallows the std containers;
/// this alias is their one sanctioned use).
///
/// # Raw addresses cannot be keys
///
/// [`VirtAddr`](crate::VirtAddr), [`PhysAddr`](crate::PhysAddr),
/// [`MemoryAccess`](crate::MemoryAccess) and `mimic_os::Mapping` do not
/// implement `Hash`. Fx's single multiply keeps a key's entropy in the
/// *high* bits of the hash while hashbrown picks the bucket from the *low*
/// ones, so page-aligned keys (low 12+ bits zero) pile into a few buckets:
/// that was the 1.8x Utopia slowdown PR 7 found. Key by
/// [`PageNumber`](crate::PageNumber) or by a shifted `u64` and say at the
/// field what the integer is.
///
/// ```compile_fail,E0277
/// use vm_types::{FxHashMap, VirtAddr};
/// let mut m: FxHashMap<VirtAddr, u8> = FxHashMap::default();
/// m.insert(VirtAddr::new(0x1000), 1); // error: `VirtAddr: Hash` is not satisfied
/// ```
///
/// The std containers reject them for the same reason:
///
/// ```compile_fail,E0277
/// use vm_types::PhysAddr;
/// let mut s = std::collections::HashSet::new();
/// s.insert(PhysAddr::new(0x2000)); // error: `PhysAddr: Hash` is not satisfied
/// ```
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_of(&0x1234_5678_u64), hash_of(&0x1234_5678_u64));
        assert_eq!(hash_of(&(3u8, 77u64)), hash_of(&(3u8, 77u64)));
    }

    #[test]
    fn distinct_keys_get_distinct_hashes() {
        // Not a collision-resistance claim — just a sanity check that the
        // mixing actually mixes.
        let a = hash_of(&1u64);
        let b = hash_of(&2u64);
        let c = hash_of(&(1u64 << 32));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(u8, u64), u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((1, i), i * 3);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(1, i)), Some(&(i * 3)));
        }
        assert_eq!(m.get(&(2, 0)), None);
    }

    #[test]
    fn byte_stream_and_word_hashing_cover_remainders() {
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let long = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3]);
        assert_ne!(long, h2.finish());
    }
}

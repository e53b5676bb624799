//! A const-generic inline vector for allocation-free hot paths.
//!
//! The simulation's steady-state instruction loop produces several small,
//! bounded lists per memory access (DRAM fetches, writebacks, page-walk
//! accesses). Backing those with `Vec` puts one or more heap allocations on
//! the hottest path of the whole framework; [`FixedVec`] keeps up to `N`
//! elements inline on the stack and only falls back to the heap in
//! pathological cases (e.g. a hash page table with extremely long collision
//! chains). Call sites with an architecturally guaranteed bound assert that
//! the spill never happens (see [`FixedVec::spilled`]).
//!
//! The environment has no network access to crates.io, so `smallvec` is not
//! available; this is the small subset of it Virtuoso needs.
//!
//! # Examples
//!
//! ```
//! use vm_types::FixedVec;
//!
//! let mut v: FixedVec<u64, 4> = FixedVec::new();
//! v.push(1);
//! v.push(2);
//! assert_eq!(v.as_slice(), &[1, 2]);
//! assert!(!v.spilled());
//! // Pushing past the inline capacity moves the data to the heap but keeps
//! // every element.
//! for i in 3..=10 {
//!     v.push(i);
//! }
//! assert_eq!(v.len(), 10);
//! assert!(v.spilled());
//! assert_eq!(v[9], 10);
//! ```

use std::fmt;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};

/// A vector storing up to `N` elements inline (no heap allocation) and
/// spilling to a heap `Vec` only when pushed beyond `N`.
///
/// The common operations mirror `Vec`: [`push`](FixedVec::push),
/// [`len`](FixedVec::len), [`clear`](FixedVec::clear), iteration, indexing
/// and slicing (through `Deref<Target = [T]>`). Elements are always
/// contiguous: either in the inline buffer or, after a spill, in the heap
/// buffer.
pub struct FixedVec<T, const N: usize> {
    /// Inline storage; only `inline[..len]` is initialized, and only while
    /// `spill` is `None`.
    inline: [MaybeUninit<T>; N],
    /// Number of initialized inline elements (0 when spilled).
    len: usize,
    /// Heap storage after a spill. `Some` means ALL elements live here.
    spill: Option<Vec<T>>,
}

impl<T, const N: usize> FixedVec<T, N> {
    /// Creates an empty vector. Never allocates.
    pub const fn new() -> Self {
        FixedVec {
            // SAFETY: an array of `MaybeUninit` is trivially valid
            // uninitialized.
            inline: unsafe { MaybeUninit::uninit().assume_init() },
            len: 0,
            spill: None,
        }
    }

    /// The inline capacity `N`.
    pub const fn inline_capacity(&self) -> usize {
        N
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.spill {
            Some(v) => v.len(),
            None => self.len,
        }
    }

    /// `true` when the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once the vector has overflowed its inline capacity and moved
    /// to the heap. Hot paths with an architectural bound on the element
    /// count use this to assert the bound holds.
    pub fn spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// Appends an element. Allocation-free while the length stays within
    /// the inline capacity; the first push beyond `N` moves the contents to
    /// the heap.
    pub fn push(&mut self, value: T) {
        if let Some(v) = &mut self.spill {
            v.push(value);
            return;
        }
        if self.len < N {
            self.inline[self.len].write(value);
            self.len += 1;
            return;
        }
        // Spill: move the inline elements into a heap vector — the designed
        // slow path. `tests/alloc_free_hot_path.rs` runs every engine and
        // page-table design (HT's overflow chains included) under a
        // counting allocator, so a steady-state list outgrowing `N` fails
        // there.
        let mut v = Vec::with_capacity(N * 2 + 1);
        for slot in &mut self.inline[..self.len] {
            // SAFETY: slots `..len` are initialized; after this loop `len`
            // is reset to 0 so they are never read (or dropped) again.
            v.push(unsafe { slot.assume_init_read() });
        }
        self.len = 0;
        v.push(value);
        self.spill = Some(v);
    }

    /// Removes and returns the last element, or `None` when empty.
    pub fn pop(&mut self) -> Option<T> {
        if let Some(v) = &mut self.spill {
            return v.pop();
        }
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // SAFETY: slot `len` was initialized and is now out of bounds.
        Some(unsafe { self.inline[self.len].assume_init_read() })
    }

    /// Removes every element. Keeps the heap buffer if one was allocated.
    pub fn clear(&mut self) {
        if let Some(v) = &mut self.spill {
            v.clear();
            return;
        }
        for slot in &mut self.inline[..self.len] {
            // SAFETY: slots `..len` are initialized; `len` is zeroed below.
            unsafe { slot.assume_init_drop() };
        }
        self.len = 0;
    }

    /// The elements as a contiguous slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.spill {
            Some(v) => v.as_slice(),
            // SAFETY: `inline[..len]` is initialized.
            None => unsafe {
                std::slice::from_raw_parts(self.inline.as_ptr().cast::<T>(), self.len)
            },
        }
    }

    /// The elements as a mutable contiguous slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.spill {
            Some(v) => v.as_mut_slice(),
            // SAFETY: `inline[..len]` is initialized.
            None => unsafe {
                std::slice::from_raw_parts_mut(self.inline.as_mut_ptr().cast::<T>(), self.len)
            },
        }
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T, const N: usize> Drop for FixedVec<T, N> {
    fn drop(&mut self) {
        // The heap vector (if any) drops itself; inline elements need an
        // explicit drop.
        if self.spill.is_none() {
            for slot in &mut self.inline[..self.len] {
                // SAFETY: slots `..len` are initialized and dropped once.
                unsafe { slot.assume_init_drop() };
            }
        }
    }
}

impl<T, const N: usize> Default for FixedVec<T, N> {
    fn default() -> Self {
        FixedVec::new()
    }
}

impl<T, const N: usize> Deref for FixedVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for FixedVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Clone, const N: usize> Clone for FixedVec<T, N> {
    fn clone(&self) -> Self {
        let mut out = FixedVec::new();
        for item in self.iter() {
            out.push(item.clone());
        }
        out
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for FixedVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for FixedVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for FixedVec<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<[T]> for FixedVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: PartialEq, const N: usize, const M: usize> PartialEq<[T; M]> for FixedVec<T, N> {
    fn eq(&self, other: &[T; M]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T, const N: usize> Extend<T> for FixedVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T, const N: usize> FromIterator<T> for FixedVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = FixedVec::new();
        out.extend(iter);
        out
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a FixedVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Iterating by value, for `Copy` elements: each element is copied out of
/// the vector, which is dropped with the iterator.
///
/// ```
/// use vm_types::FixedVec;
///
/// let inline: FixedVec<u64, 4> = [1, 2].into_iter().collect();
/// let spilled: FixedVec<u64, 2> = [3, 4, 5].into_iter().collect();
/// assert!(spilled.spilled());
/// let mut seen = Vec::new();
/// for x in inline {
///     seen.push(x);
/// }
/// seen.extend(spilled);
/// assert_eq!(seen, [1, 2, 3, 4, 5]);
/// ```
impl<T: Copy, const N: usize> IntoIterator for FixedVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    fn into_iter(self) -> IntoIter<T, N> {
        IntoIter { vec: self, next: 0 }
    }
}

/// The by-value iterator of a [`FixedVec`] of `Copy` elements.
pub struct IntoIter<T: Copy, const N: usize> {
    vec: FixedVec<T, N>,
    /// Index of the next element to yield.
    next: usize,
}

impl<T: Copy, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let item = self.vec.get(self.next).copied()?;
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.vec.len() - self.next;
        (left, Some(left))
    }
}

impl<T: Copy, const N: usize> ExactSizeIterator for IntoIter<T, N> {}

impl<T: serde::Serialize, const N: usize> serde::Serialize for FixedVec<T, N> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T, const N: usize> serde::Deserialize for FixedVec<T, N> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn starts_empty_without_allocating() {
        let v: FixedVec<u64, 4> = FixedVec::new();
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[] as &[u64]);
        assert_eq!(v.inline_capacity(), 4);
    }

    #[test]
    fn push_and_index_within_inline_capacity() {
        let mut v: FixedVec<u64, 4> = FixedVec::new();
        for i in 0..4 {
            v.push(i * 10);
        }
        assert_eq!(v.len(), 4);
        assert!(!v.spilled());
        assert_eq!(v[0], 0);
        assert_eq!(v[3], 30);
        assert_eq!(v.iter().sum::<u64>(), 60);
    }

    #[test]
    fn pushing_past_capacity_spills_and_preserves_order() {
        let mut v: FixedVec<u64, 2> = FixedVec::new();
        for i in 0..10 {
            v.push(i);
        }
        assert_eq!(v.len(), 10);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), (0..10).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn pop_round_trips_inline_and_spilled() {
        let mut v: FixedVec<u32, 2> = FixedVec::new();
        assert_eq!(v.pop(), None);
        v.push(1);
        v.push(2);
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
        for i in 0..5 {
            v.push(i);
        }
        assert!(v.spilled());
        assert_eq!(v.pop(), Some(4));
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn clear_resets_both_modes() {
        let mut v: FixedVec<u32, 2> = FixedVec::new();
        v.push(1);
        v.clear();
        assert!(v.is_empty());
        for i in 0..5 {
            v.push(i);
        }
        v.clear();
        assert!(v.is_empty());
        assert!(v.spilled(), "heap buffer is kept after clear");
        v.push(9);
        assert_eq!(v.as_slice(), &[9]);
    }

    #[test]
    fn extend_and_from_iterator() {
        let mut v: FixedVec<u32, 4> = FixedVec::new();
        v.extend([1, 2, 3]);
        v.extend(Some(4));
        assert_eq!(v.as_slice(), &[1, 2, 3, 4]);
        let w: FixedVec<u32, 2> = (0..6).collect();
        assert_eq!(w.len(), 6);
        assert!(w.spilled());
    }

    #[test]
    fn clone_eq_and_debug() {
        let mut v: FixedVec<u32, 3> = FixedVec::new();
        v.extend([7, 8]);
        let w = v.clone();
        assert_eq!(v, w);
        assert_eq!(format!("{v:?}"), "[7, 8]");
        let mut x: FixedVec<u32, 3> = FixedVec::new();
        x.push(7);
        assert_ne!(v, x);
        assert_eq!(v, [7u32, 8]);
    }

    #[test]
    fn equality_ignores_storage_mode() {
        // Same elements, one spilled and one (with a larger N) inline.
        let a: FixedVec<u32, 2> = (0..4).collect();
        let b: FixedVec<u32, 2> = (0..4).collect();
        assert!(a.spilled() && b.spilled());
        assert_eq!(a, b);
        assert_eq!(a.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn drops_inline_elements_exactly_once() {
        let rc = Rc::new(());
        {
            let mut v: FixedVec<Rc<()>, 4> = FixedVec::new();
            v.push(rc.clone());
            v.push(rc.clone());
            assert_eq!(Rc::strong_count(&rc), 3);
        }
        assert_eq!(Rc::strong_count(&rc), 1);
    }

    #[test]
    fn drops_spilled_elements_exactly_once() {
        let rc = Rc::new(());
        {
            let mut v: FixedVec<Rc<()>, 2> = FixedVec::new();
            for _ in 0..5 {
                v.push(rc.clone());
            }
            assert!(v.spilled());
            assert_eq!(Rc::strong_count(&rc), 6);
        }
        assert_eq!(Rc::strong_count(&rc), 1);
    }

    #[test]
    fn serializes_as_a_json_array() {
        let mut v: FixedVec<u32, 4> = FixedVec::new();
        let mut out = String::new();
        serde::Serialize::write_json(&v, &mut out);
        assert_eq!(out, "[]");
        v.extend([1, 2, 3]);
        out.clear();
        serde::Serialize::write_json(&v, &mut out);
        assert_eq!(out, "[1,2,3]");
    }

    #[test]
    fn mutable_slice_access_works() {
        let mut v: FixedVec<u32, 4> = FixedVec::new();
        v.extend([1, 2, 3]);
        v.as_mut_slice()[1] = 20;
        v[2] = 30;
        assert_eq!(v.as_slice(), &[1, 20, 30]);
        v.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(v.as_slice(), &[30, 20, 1]);
    }
}

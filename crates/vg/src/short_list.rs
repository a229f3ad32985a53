//! A list held inline up to a fixed length.
//!
//! The engine's per-point scratch — a probe scan's windows and admitted
//! candidates, a recipe key's mapping words — holds a handful of values
//! per point, one per stochastic column or per near candidate. A `Vec`
//! there is one allocation per point for a few words. [`ShortList`] keeps
//! its first `N` values inline and moves to the heap only past them, so a
//! typical point allocates nothing and an unusual one still works.

use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Up to `N` values inline, any number past them on the heap. Reads as a
/// slice; equality and hashing are the slice's, whichever form holds it.
#[derive(Clone)]
pub enum ShortList<T: Copy, const N: usize> {
    /// The first `len` of `N` slots are the list.
    Inline([T; N], usize),
    /// More than `N` values.
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> ShortList<T, N> {
    /// An empty list; `fill` only initializes the unused inline slots.
    pub fn new(fill: T) -> Self {
        ShortList::Inline([fill; N], 0)
    }

    /// An empty list with room for `capacity` values: inline when they
    /// fit, else on the heap at once, so it never moves while filling.
    pub fn with_capacity(fill: T, capacity: usize) -> Self {
        if capacity <= N {
            ShortList::new(fill)
        } else {
            ShortList::Heap(Vec::with_capacity(capacity))
        }
    }

    /// Append `value`, moving to the heap when the inline slots are full.
    pub fn push(&mut self, value: T) {
        match self {
            ShortList::Inline(values, len) if *len < N => {
                values[*len] = value;
                *len += 1;
            }
            ShortList::Inline(values, _) => {
                let mut heap = Vec::with_capacity(2 * N.max(1));
                heap.extend_from_slice(values);
                heap.push(value);
                *self = ShortList::Heap(heap);
            }
            ShortList::Heap(heap) => heap.push(value),
        }
    }
}

impl<T: Copy, const N: usize> Extend<T> for ShortList<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, values: I) {
        for value in values {
            self.push(value);
        }
    }
}

impl<T: Copy, const N: usize> Deref for ShortList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            ShortList::Inline(values, len) => &values[..*len],
            ShortList::Heap(heap) => heap,
        }
    }
}

impl<T: Copy, const N: usize> DerefMut for ShortList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            ShortList::Inline(values, len) => &mut values[..*len],
            ShortList::Heap(heap) => heap,
        }
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a ShortList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for ShortList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Eq, const N: usize> Eq for ShortList<T, N> {}

impl<T: Copy + Hash, const N: usize> Hash for ShortList<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: Copy + std::fmt::Debug, const N: usize> std::fmt::Debug for ShortList<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FastBuild;
    use std::hash::BuildHasher;

    /// Past its inline slots a list moves to the heap and keeps every
    /// value in order; both forms read, compare and hash as their slice,
    /// whatever the unused inline slots hold.
    #[test]
    fn a_list_spills_to_the_heap_and_reads_as_its_slice() {
        let mut inline = ShortList::<u64, 4>::new(9);
        inline.extend([3, 1]);
        let mut spilled = ShortList::<u64, 2>::new(0);
        spilled.extend([3, 1, 2]);
        assert!(matches!(inline, ShortList::Inline(..)));
        assert!(matches!(spilled, ShortList::Heap(_)));
        assert_eq!(&*spilled, &[3, 1, 2]);
        spilled.sort_unstable();
        assert_eq!(&*spilled, &[1, 2, 3]);

        let heap = ShortList::<u64, 4>::Heap(vec![3, 1]);
        assert_eq!(inline, heap);
        let hash = |list: &ShortList<u64, 4>| FastBuild::default().hash_one(list);
        assert_eq!(hash(&inline), hash(&heap));
        inline.push(2);
        assert_ne!(inline, heap);
        assert!(matches!(
            ShortList::<u64, 2>::with_capacity(0, 2),
            ShortList::Inline(..)
        ));
        let ShortList::Heap(heap) = ShortList::<u64, 2>::with_capacity(0, 3) else {
            panic!("three values do not fit two slots");
        };
        assert!(heap.capacity() >= 3);
    }
}

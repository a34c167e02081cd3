//! The fixed 4-word bitset that once sat behind the `ResourceSet`/`NodeSet`
//! aliases, kept as the **reference model** for [`mra_types::DynSet`]:
//! `prop_dynset.rs` checks that random op sequences agree between the two
//! on the shared `0..256` universe, `prop_bitset.rs` holds the model itself
//! to `HashSet` semantics.

#![allow(dead_code)] // each test binary uses its own subset of the model

use mra_types::MAX_UNIVERSE;
use std::fmt;

const WORDS: usize = MAX_UNIVERSE / 64;

/// A set of integers in `0..256`, stored as four `u64` words.
///
/// All operations are O(words) = O(1).  The type is `Copy`, so protocol
/// messages can embed sets freely.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BitSet256 {
    words: [u64; WORDS],
}

impl BitSet256 {
    /// The empty set.
    pub const EMPTY: BitSet256 = BitSet256 { words: [0; WORDS] };

    /// Create an empty set.
    #[inline]
    pub const fn new() -> Self {
        Self::EMPTY
    }

    /// Create the full set `{0, .., n-1}`.
    ///
    /// # Panics
    /// If `n > 256`.
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_UNIVERSE, "BitSet256 supports at most {MAX_UNIVERSE} elements");
        let mut s = Self::new();
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// Create a singleton set `{i}`.
    #[inline]
    pub fn singleton(i: usize) -> Self {
        let mut s = Self::new();
        s.insert(i);
        s
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Add element `i`. Returns true if it was newly inserted.
    ///
    /// # Panics
    /// If `i >= 256` (debug and release: the index math would be UB-adjacent
    /// otherwise, so the bound is always checked).
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < MAX_UNIVERSE, "BitSet256 index {i} out of range");
        let (w, b) = (i / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Remove element `i`. Returns true if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < MAX_UNIVERSE, "BitSet256 index {i} out of range");
        let (w, b) = (i / 64, i % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= MAX_UNIVERSE {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Remove all elements.
    #[inline]
    pub fn clear(&mut self) {
        self.words = [0; WORDS];
    }

    /// `self ∪ other`.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
        out
    }

    /// `self ∩ other`.
    #[inline]
    pub fn intersection(&self, other: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
        out
    }

    /// `self \ other`.
    #[inline]
    pub fn difference(&self, other: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
        out
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &Self) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// In-place difference.
    #[inline]
    pub fn difference_with(&mut self, other: &Self) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// True if every element of `self` is in `other` (`self ⊆ other`).
    #[inline]
    pub fn is_subset(&self, other: &Self) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// True if the sets share no element.
    #[inline]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0)
    }

    /// Smallest element, if any.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterate over elements in increasing order.
    #[inline]
    pub fn iter(&self) -> SetIter {
        SetIter {
            words: self.words,
            word_idx: 0,
        }
    }

    /// Collect into a `Vec<usize>` (convenience for tests and display).
    pub fn to_vec(self) -> Vec<usize> {
        self.iter().collect()
    }

    /// The raw 4-word representation (little-endian word order: word 0
    /// holds elements `0..64`).  Used by wire codecs; every `[u64; 4]` is a
    /// valid set, so [`BitSet256::from_words`] is total.
    #[inline]
    pub const fn to_words(self) -> [u64; WORDS] {
        self.words
    }

    /// Rebuild a set from its raw word representation.
    #[inline]
    pub const fn from_words(words: [u64; WORDS]) -> Self {
        BitSet256 { words }
    }
}

impl FromIterator<usize> for BitSet256 {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = Self::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl IntoIterator for &BitSet256 {
    type Item = usize;
    type IntoIter = SetIter;
    fn into_iter(self) -> SetIter {
        self.iter()
    }
}

impl fmt::Debug for BitSet256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the elements of a [`BitSet256`] in increasing order.
///
/// Consumes a copy of the words, clearing bits as they are yielded; this is
/// branch-light and needs no lifetime on the hot path.
pub struct SetIter {
    words: [u64; WORDS],
    word_idx: usize,
}

impl Iterator for SetIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word_idx < WORDS {
            let w = self.words[self.word_idx];
            if w != 0 {
                let b = w.trailing_zeros() as usize;
                self.words[self.word_idx] = w & (w - 1); // clear lowest set bit
                return Some(self.word_idx * 64 + b);
            }
            self.word_idx += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.words[self.word_idx..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for SetIter {}

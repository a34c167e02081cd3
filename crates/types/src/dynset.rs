//! Dynamic-capacity bitsets.
//!
//! [`DynSet`] sits behind the [`ResourceSet`](crate::ResourceSet) /
//! [`NodeSet`](crate::NodeSet) aliases so
//! scenarios can scale past the paper's N = 32 / M = 80 shape to 10k+
//! nodes and 100k+ resources.  The representation is a word vector with an
//! **inline small-set fast path**: sets whose largest element is below 256
//! live in four inline words and never touch the heap, so the protocol hot
//! paths of paper-scale runs stay allocation-free.  Inserting an element
//! ≥ 256 promotes the set to a heap word vector of whatever length the
//! largest element needs.
//!
//! `DynSet` is `Clone` but not `Copy`.  Equality and hashing are
//! representation-independent: trailing zero words are ignored, so an
//! inline `{3}` equals a heap `{3}` that once held 10_000.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of inline words: 4 × 64 = 256 elements before heap promotion
/// (the paper's shape plus headroom).
const INLINE_WORDS: usize = 4;
const INLINE_BITS: usize = INLINE_WORDS * 64;

#[derive(Clone)]
enum Repr {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// A set of `usize` elements stored as a dynamic bit vector.
///
/// All operations are O(words).  Elements below 256 never allocate.
#[derive(Clone)]
pub struct DynSet {
    repr: Repr,
}

impl DynSet {
    /// The empty set (inline, allocation-free).
    pub const EMPTY: DynSet = DynSet {
        repr: Repr::Inline([0; INLINE_WORDS]),
    };

    /// Create an empty set.
    #[inline]
    pub const fn new() -> Self {
        Self::EMPTY
    }

    /// Create the full set `{0, .., n-1}` for any `n`.
    pub fn full(n: usize) -> Self {
        let mut s = Self::new();
        if n > INLINE_BITS {
            s.repr = Repr::Heap(vec![0; n.div_ceil(64)]);
        }
        let words = s.words_mut();
        for (wi, w) in words.iter_mut().enumerate() {
            let lo = wi * 64;
            if lo + 64 <= n {
                *w = u64::MAX;
            } else if lo < n {
                *w = (1u64 << (n - lo)) - 1;
            }
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

    #[inline]
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => w,
            Repr::Heap(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(w) => w,
            Repr::Heap(v) => v,
        }
    }

    /// Grow (promoting to heap if needed) so element `i` is addressable.
    fn grow_for(&mut self, i: usize) {
        let need = i / 64 + 1;
        match &mut self.repr {
            Repr::Inline(w) if need > INLINE_WORDS => {
                let mut v = vec![0u64; need];
                v[..INLINE_WORDS].copy_from_slice(w);
                self.repr = Repr::Heap(v);
            }
            Repr::Inline(_) => {}
            Repr::Heap(v) => {
                if v.len() < need {
                    v.resize(need, 0);
                }
            }
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Add element `i`. Returns true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        if i / 64 >= self.words().len() {
            self.grow_for(i);
        }
        let (w, b) = (i / 64, i % 64);
        let words = self.words_mut();
        let newly = words[w] & (1 << b) == 0;
        words[w] |= 1 << b;
        newly
    }

    /// Remove element `i`. Returns true if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let words = self.words_mut();
        if w >= words.len() {
            return false;
        }
        let present = words[w] & (1 << b) != 0;
        words[w] &= !(1 << b);
        present
    }

    /// Membership test (false for any element past the allocated range).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        let words = self.words();
        let w = i / 64;
        w < words.len() && words[w] & (1 << (i % 64)) != 0
    }

    /// Remove all elements.  Keeps the current representation (and heap
    /// capacity), so steady-state reuse stays allocation-free.
    #[inline]
    pub fn clear(&mut self) {
        for w in self.words_mut() {
            *w = 0;
        }
    }

    /// `self ∪ other`.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        let mut out = if self.words().len() >= other.words().len() {
            self.clone()
        } else {
            other.clone()
        };
        let short = if self.words().len() >= other.words().len() {
            other.words()
        } else {
            self.words()
        };
        for (a, b) in out.words_mut().iter_mut().zip(short.iter()) {
            *a |= b;
        }
        out
    }

    /// `self ∩ other`.
    #[inline]
    pub fn intersection(&self, other: &Self) -> Self {
        let mut out = self.clone();
        let ow = other.words();
        for (wi, a) in out.words_mut().iter_mut().enumerate() {
            *a &= ow.get(wi).copied().unwrap_or(0);
        }
        out
    }

    /// `self \ other`.
    #[inline]
    pub fn difference(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &Self) {
        if other.words().len() > self.words().len() {
            if let Some(hi) = other.last() {
                self.grow_for(hi);
            }
        }
        let ow = other.words();
        for (a, b) in self.words_mut().iter_mut().zip(ow.iter()) {
            *a |= b;
        }
    }

    /// In-place difference.
    #[inline]
    pub fn difference_with(&mut self, other: &Self) {
        let ow = other.words();
        for (wi, a) in self.words_mut().iter_mut().enumerate() {
            *a &= !ow.get(wi).copied().unwrap_or(0);
        }
    }

    /// True if every element of `self` is in `other` (`self ⊆ other`).
    #[inline]
    pub fn is_subset(&self, other: &Self) -> bool {
        let ow = other.words();
        self.words()
            .iter()
            .enumerate()
            .all(|(wi, a)| a & !ow.get(wi).copied().unwrap_or(0) == 0)
    }

    /// True if the sets share no element.
    #[inline]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.words()
            .iter()
            .zip(other.words().iter())
            .all(|(a, b)| a & b == 0)
    }

    /// Smallest element, if any.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        for (wi, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Largest element, if any.
    #[inline]
    pub fn last(&self) -> Option<usize> {
        for (wi, &w) in self.words().iter().enumerate().rev() {
            if w != 0 {
                return Some(wi * 64 + 63 - w.leading_zeros() as usize);
            }
        }
        None
    }

    /// Iterate over elements in increasing order.
    ///
    /// The iterator owns its words (inline sets copy four words; heap sets
    /// clone the vector), so call sites may mutate unrelated fields of the
    /// owner mid-loop — the pattern the protocol handlers rely on.
    #[inline]
    pub fn iter(&self) -> SetIter {
        match &self.repr {
            Repr::Inline(w) => SetIter {
                words: Words::Inline(*w),
                word_idx: 0,
            },
            Repr::Heap(v) => SetIter {
                words: Words::Heap(v.clone()),
                word_idx: 0,
            },
        }
    }

    /// Collect into a `Vec<usize>` (convenience for tests and display).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// The canonical word representation with trailing zero words trimmed
    /// (little-endian word order: word 0 holds elements `0..64`).  Used by
    /// the length-prefixed wire codecs; every word slice is a valid set, so
    /// [`DynSet::from_words`] is total.
    pub fn to_words(&self) -> Vec<u64> {
        let words = self.words();
        let used = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        words[..used].to_vec()
    }

    /// Rebuild a set from a word representation of any length.
    pub fn from_words(words: &[u64]) -> Self {
        let used = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        if used <= INLINE_WORDS {
            let mut w = [0u64; INLINE_WORDS];
            w[..used].copy_from_slice(&words[..used]);
            DynSet {
                repr: Repr::Inline(w),
            }
        } else {
            DynSet {
                repr: Repr::Heap(words[..used].to_vec()),
            }
        }
    }

    /// True if the set currently lives in the inline representation
    /// (diagnostics; the parity proptest exercises the boundary).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }
}

impl Default for DynSet {
    #[inline]
    fn default() -> Self {
        Self::EMPTY
    }
}

impl PartialEq for DynSet {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.words(), other.words());
        let common = a.len().min(b.len());
        a[..common] == b[..common]
            && a[common..].iter().all(|&w| w == 0)
            && b[common..].iter().all(|&w| w == 0)
    }
}

impl Eq for DynSet {}

impl Hash for DynSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let words = self.words();
        let used = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        words[..used].hash(state);
    }
}

impl FromIterator<usize> for DynSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = Self::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl IntoIterator for &DynSet {
    type Item = usize;
    type IntoIter = SetIter;
    fn into_iter(self) -> SetIter {
        self.iter()
    }
}

impl fmt::Debug for DynSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

impl Words {
    #[inline]
    fn slice(&self) -> &[u64] {
        match self {
            Words::Inline(w) => w,
            Words::Heap(v) => v,
        }
    }

    #[inline]
    fn slice_mut(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(w) => w,
            Words::Heap(v) => v,
        }
    }
}

/// Iterator over the elements of a [`DynSet`] in increasing order.
///
/// Owns its words (clearing bits as they are yielded), so it needs no
/// lifetime — protocol loops iterate a set while mutating their owner.
pub struct SetIter {
    words: Words,
    word_idx: usize,
}

impl Iterator for SetIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let n = self.words.slice().len();
        while self.word_idx < n {
            let w = self.words.slice()[self.word_idx];
            if w != 0 {
                let b = w.trailing_zeros() as usize;
                self.words.slice_mut()[self.word_idx] = w & (w - 1);
                return Some(self.word_idx * 64 + b);
            }
            self.word_idx += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.words.slice()[self.word_idx.min(self.words.slice().len())..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for SetIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;

    #[test]
    fn insert_remove_contains_small() {
        let mut s = DynSet::new();
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 1);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
        assert!(s.is_inline());
    }

    #[test]
    fn promotion_at_256() {
        let mut s = DynSet::new();
        s.insert(255);
        assert!(s.is_inline());
        s.insert(256);
        assert!(!s.is_inline());
        assert!(s.contains(255) && s.contains(256));
        assert_eq!(s.to_vec(), vec![255, 256]);
        s.insert(99_999);
        assert!(s.contains(99_999));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn eq_and_hash_ignore_representation() {
        let mut a = DynSet::singleton(3);
        let mut b = DynSet::singleton(3);
        b.insert(10_000);
        b.remove(10_000);
        assert!(!b.is_inline());
        assert_eq!(a, b);
        let h = |s: &DynSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&a), h(&b));
        a.insert(4);
        assert_ne!(a, b);
    }

    #[test]
    fn full_of_any_size() {
        for n in [0usize, 1, 63, 64, 80, 256, 257, 1000] {
            let s = DynSet::full(n);
            assert_eq!(s.len(), n, "full({n})");
            assert!(s.iter().eq(0..n));
        }
    }

    #[test]
    fn set_algebra_across_the_boundary() {
        let a: DynSet = [1usize, 2, 300].into_iter().collect();
        let b: DynSet = [2usize, 4].into_iter().collect();
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 4, 300]);
        assert_eq!(b.union(&a).to_vec(), vec![1, 2, 4, 300]);
        assert_eq!(a.intersection(&b).to_vec(), vec![2]);
        assert_eq!(b.intersection(&a).to_vec(), vec![2]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 300]);
        assert_eq!(b.difference(&a).to_vec(), vec![4]);
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(b.is_subset(&a.union(&b)));
        assert!(DynSet::EMPTY.is_subset(&a));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, a.union(&b));
        let mut c = b.clone();
        c.union_with(&a);
        assert_eq!(c, a.union(&b));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, a.difference(&b));
    }

    #[test]
    fn first_last_and_clear() {
        let mut s: DynSet = [7usize, 500].into_iter().collect();
        assert_eq!(s.first(), Some(7));
        assert_eq!(s.last(), Some(500));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        assert_eq!(s.last(), None);
        // clear keeps the heap representation (capacity reuse).
        assert!(!s.is_inline());
        assert_eq!(s, DynSet::EMPTY);
    }

    #[test]
    fn words_roundtrip_trims() {
        let s: DynSet = [0usize, 63, 64, 200, 255, 700].into_iter().collect();
        assert_eq!(DynSet::from_words(&s.to_words()), s);
        assert_eq!(DynSet::from_words(&[]), DynSet::EMPTY);
        assert_eq!(DynSet::from_words(&[0, 0, 0]), DynSet::EMPTY);
        let small: DynSet = [3usize].into_iter().collect();
        assert_eq!(small.to_words(), vec![8u64]);
        // from_words of a padded slice lands inline when it fits.
        assert!(DynSet::from_words(&[8, 0, 0, 0, 0, 0]).is_inline());
    }

    #[test]
    fn model_based_random_ops_large_universe() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut s = DynSet::new();
        let mut model: HashSet<usize> = HashSet::new();
        for _ in 0..4000 {
            let v = (next() % 1024) as usize;
            match next() % 3 {
                0 => assert_eq!(s.insert(v), model.insert(v)),
                1 => assert_eq!(s.remove(v), model.remove(&v)),
                _ => assert_eq!(s.contains(v), model.contains(&v)),
            }
            assert_eq!(s.len(), model.len());
        }
        let mut got = s.to_vec();
        let mut want: Vec<usize> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

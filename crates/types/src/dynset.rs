//! Dynamic-capacity bitsets.
//!
//! [`DynSet`] sits behind the [`ResourceSet`](crate::ResourceSet) /
//! [`NodeSet`](crate::NodeSet) aliases so
//! scenarios can scale past the paper's N = 32 / M = 80 shape to 10k+
//! nodes and 100k+ resources.  It has two representations, selected by
//! what the set has held:
//!
//! * **inline** — sets whose largest element is below 256 live in four
//!   inline words and never touch the heap, so the protocol hot paths of
//!   paper-scale runs stay allocation-free;
//! * **chunks** — inserting an element ≥ 256 promotes the set to its
//!   *nonzero* 64-bit words as `(word index, bits)` pairs, sorted by index.
//!   Memory and every operation are O(nonzero words), not O(largest
//!   element): a 4-element request over 100 000 resources is at most four
//!   chunks (64 bytes), where a bitmap sized by the universe is 12.5 KB.
//!
//! **Canonical form** of the chunk vector: indices strictly increasing, no
//! zero word.  Every operation restores it (removing a chunk's last bit
//! removes the chunk), so emptiness is `is_empty()` of the vector, equality
//! of two chunked sets is slice equality, and the binary operations and
//! relations are one merge over two sorted streams.
//!
//! `DynSet` is `Clone` but not `Copy`.  Equality and hashing are
//! representation-independent: an inline `{3}` equals a chunked `{3}` that
//! once held 10_000.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of inline words: 4 × 64 = 256 elements before promotion to
/// chunks (the paper's shape plus headroom).
const INLINE_WORDS: usize = 4;
const INLINE_BITS: usize = INLINE_WORDS * 64;

/// One nonzero word of a chunked set, `(word index, bits)`: the word at
/// index `i` holds elements `64 i .. 64 i + 64`.
type Chunk = (u32, u64);

/// Scratch for [`DynSet::chunks`]: an inline set has at most this many.
const NO_CHUNKS: [Chunk; INLINE_WORDS] = [(0, 0); INLINE_WORDS];

#[derive(Clone)]
enum Repr {
    Inline([u64; INLINE_WORDS]),
    /// Canonical form: indices strictly increasing, no zero word.
    Chunks(Vec<Chunk>),
}

/// A set of `usize` elements: four inline words while every element is
/// below 256, the sorted nonzero words once one is not.
///
/// Inline operations are O(4 words) and never allocate; chunked ones are
/// O(chunks present) — point operations a binary search, binary
/// operations and relations one merge.
#[derive(Clone)]
pub struct DynSet {
    repr: Repr,
}

/// Chunk index of word `wi`.  Checked: a word index past `u32` must not
/// wrap into another element's chunk.
#[inline]
fn chunk_index(wi: usize) -> u32 {
    u32::try_from(wi).expect("DynSet element out of range: word index exceeds u32")
}

/// Position of the chunk holding element `i`, or where it would go.
#[inline]
fn find(v: &[Chunk], i: usize) -> Result<usize, usize> {
    match u32::try_from(i / 64) {
        Ok(ci) => v.binary_search_by_key(&ci, |c| c.0),
        Err(_) => Err(v.len()),
    }
}

/// Elements held by a chunk slice.
fn count(v: &[Chunk]) -> usize {
    v.iter().map(|c| c.1.count_ones() as usize).sum()
}

fn is_canonical(v: &[Chunk]) -> bool {
    v.windows(2).all(|p| p[0].0 < p[1].0) && v.iter().all(|c| c.1 != 0)
}

/// Walk two canonical chunk slices in index order, calling
/// `f(index, a's word, b's word)` once for every index present in either
/// (the absent side reads 0) until `f` says `false`.  Returns whether every
/// call said `true`.
fn merge(a: &[Chunk], b: &[Chunk], mut f: impl FnMut(u32, u64, u64) -> bool) -> bool {
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    loop {
        let idx = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => x.0.min(y.0),
            (Some(c), None) | (None, Some(c)) => c.0,
            (None, None) => return true,
        };
        let x = a.next_if(|c| c.0 == idx).map_or(0, |c| c.1);
        let y = b.next_if(|c| c.0 == idx).map_or(0, |c| c.1);
        if !f(idx, x, y) {
            return false;
        }
    }
}

/// `v ∪= b`, both canonical, in place: count the indices `v` lacks, grow
/// once, merge from the back.
fn union_in_place(v: &mut Vec<Chunk>, b: &[Chunk]) {
    let mut missing = 0;
    merge(v, b, |_, x, _| {
        missing += usize::from(x == 0);
        true
    });
    // `v[..i]` is still to be placed, `v[k..]` is final.
    let (mut i, mut k) = (v.len(), v.len() + missing);
    v.resize(k, (0, 0));
    for &(ib, y) in b.iter().rev() {
        while i > 0 && v[i - 1].0 > ib {
            (i, k) = (i - 1, k - 1);
            v[k] = v[i];
        }
        k -= 1;
        if i > 0 && v[i - 1].0 == ib {
            i -= 1;
            v[k] = (ib, v[i].1 | y);
        } else {
            v[k] = (ib, y);
        }
    }
    debug_assert_eq!(i, k);
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
        // Word `wi` of `{0, .., n-1}`.
        let word = |wi: usize| match n.saturating_sub(wi * 64) {
            left if left >= 64 => u64::MAX,
            left => (1u64 << left) - 1,
        };
        if n <= INLINE_BITS {
            return DynSet {
                repr: Repr::Inline(std::array::from_fn(word)),
            };
        }
        Self::from_chunks(
            (0..n.div_ceil(64))
                .map(|wi| (chunk_index(wi), word(wi)))
                .collect(),
        )
    }

    /// Create a singleton set `{i}`.
    #[inline]
    pub fn singleton(i: usize) -> Self {
        let mut s = Self::new();
        s.insert(i);
        s
    }

    fn from_chunks(v: Vec<Chunk>) -> Self {
        debug_assert!(is_canonical(&v));
        DynSet {
            repr: Repr::Chunks(v),
        }
    }

    /// The set's nonzero words as a canonical chunk slice, whatever the
    /// representation (`buf` backs the slice of an inline set).
    fn chunks<'a>(&'a self, buf: &'a mut [Chunk; INLINE_WORDS]) -> &'a [Chunk] {
        match &self.repr {
            Repr::Chunks(v) => v,
            Repr::Inline(w) => {
                let mut n = 0;
                for (wi, &bits) in w.iter().enumerate() {
                    if bits != 0 {
                        buf[n] = (wi as u32, bits);
                        n += 1;
                    }
                }
                &buf[..n]
            }
        }
    }

    /// The chunk vector, promoting an inline set first (with room for
    /// `extra` more chunks, and never fewer than a typical request's four).
    fn promote(&mut self, extra: usize) -> &mut Vec<Chunk> {
        if let Repr::Inline(_) = self.repr {
            let mut buf = NO_CHUNKS;
            let low = self.chunks(&mut buf);
            let mut v = Vec::with_capacity((low.len() + extra).max(INLINE_WORDS));
            v.extend_from_slice(low);
            self.repr = Repr::Chunks(v);
        }
        let Repr::Chunks(v) = &mut self.repr else {
            unreachable!("promoted above")
        };
        v
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline(w) => w.iter().map(|w| w.count_ones() as usize).sum(),
            Repr::Chunks(v) => count(v),
        }
    }

    /// True if the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Inline(w) => w.iter().all(|&w| w == 0),
            Repr::Chunks(v) => v.is_empty(),
        }
    }

    /// Add element `i`. Returns true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        if let Repr::Inline(w) = &mut self.repr {
            if i < INLINE_BITS {
                let (wi, bit) = (i / 64, 1u64 << (i % 64));
                let newly = w[wi] & bit == 0;
                w[wi] |= bit;
                return newly;
            }
        }
        self.insert_chunked(i)
    }

    #[inline(never)]
    fn insert_chunked(&mut self, i: usize) -> bool {
        let (ci, bit) = (chunk_index(i / 64), 1u64 << (i % 64));
        let v = self.promote(1);
        let newly = match find(v, i) {
            Ok(k) => {
                let newly = v[k].1 & bit == 0;
                v[k].1 |= bit;
                newly
            }
            Err(k) => {
                v.insert(k, (ci, bit));
                true
            }
        };
        debug_assert!(is_canonical(v));
        newly
    }

    /// Remove element `i`. Returns true if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let bit = 1u64 << (i % 64);
        match &mut self.repr {
            Repr::Inline(w) => {
                if i >= INLINE_BITS {
                    return false;
                }
                let present = w[i / 64] & bit != 0;
                w[i / 64] &= !bit;
                present
            }
            Repr::Chunks(v) => match find(v, i) {
                Ok(k) if v[k].1 & bit != 0 => {
                    v[k].1 &= !bit;
                    if v[k].1 == 0 {
                        v.remove(k);
                    }
                    debug_assert!(is_canonical(v));
                    true
                }
                _ => false,
            },
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        let bit = 1u64 << (i % 64);
        match &self.repr {
            Repr::Inline(w) => i < INLINE_BITS && w[i / 64] & bit != 0,
            Repr::Chunks(v) => find(v, i).is_ok_and(|k| v[k].1 & bit != 0),
        }
    }

    /// Remove all elements.  Keeps the current representation (and the
    /// chunk vector's capacity), so steady-state reuse stays
    /// allocation-free.
    #[inline]
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline(w) => *w = [0; INLINE_WORDS],
            Repr::Chunks(v) => v.clear(),
        }
    }

    /// `f` applied word by word: the three binary operations.  Two inline
    /// sets give an inline one; anything else goes through the merge, whose
    /// result has at most `bound(chunks of self, chunks of other)` chunks.
    #[inline]
    fn zip_words(
        &self,
        other: &Self,
        f: impl Fn(u64, u64) -> u64,
        bound: fn(usize, usize) -> usize,
    ) -> Self {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &other.repr) {
            return DynSet {
                repr: Repr::Inline(std::array::from_fn(|wi| f(a[wi], b[wi]))),
            };
        }
        self.zip_chunks(other, f, bound)
    }

    #[inline(never)]
    fn zip_chunks(
        &self,
        other: &Self,
        f: impl Fn(u64, u64) -> u64,
        bound: fn(usize, usize) -> usize,
    ) -> Self {
        let (mut ba, mut bb) = (NO_CHUNKS, NO_CHUNKS);
        let (a, b) = (self.chunks(&mut ba), other.chunks(&mut bb));
        let mut out = Vec::with_capacity(bound(a.len(), b.len()));
        merge(a, b, |idx, x, y| {
            let bits = f(x, y);
            if bits != 0 {
                out.push((idx, bits));
            }
            true
        });
        Self::from_chunks(out)
    }

    /// Does `pred` hold for every pair of words: the two relations.
    #[inline]
    fn all_words(&self, other: &Self, pred: impl Fn(u64, u64) -> bool) -> bool {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &other.repr) {
            return a.iter().zip(b).all(|(&x, &y)| pred(x, y));
        }
        self.all_chunks(other, pred)
    }

    #[inline(never)]
    fn all_chunks(&self, other: &Self, pred: impl Fn(u64, u64) -> bool) -> bool {
        let (mut ba, mut bb) = (NO_CHUNKS, NO_CHUNKS);
        merge(self.chunks(&mut ba), other.chunks(&mut bb), |_, x, y| {
            pred(x, y)
        })
    }

    /// `self ∪ other`.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        self.zip_words(other, |x, y| x | y, |a, b| a + b)
    }

    /// `self ∩ other`.
    #[inline]
    pub fn intersection(&self, other: &Self) -> Self {
        self.zip_words(other, |x, y| x & y, usize::min)
    }

    /// `self \ other`.
    #[inline]
    pub fn difference(&self, other: &Self) -> Self {
        self.zip_words(other, |x, y| x & !y, |a, _| a)
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &Self) {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&mut self.repr, &other.repr) {
            for (x, y) in a.iter_mut().zip(b) {
                *x |= y;
            }
            return;
        }
        self.union_with_chunks(other)
    }

    #[inline(never)]
    fn union_with_chunks(&mut self, other: &Self) {
        let mut buf = NO_CHUNKS;
        let b = other.chunks(&mut buf);
        if let Repr::Inline(a) = &mut self.repr {
            // Only an element >= 256 promotes.
            if b.last().map_or(true, |c| (c.0 as usize) < INLINE_WORDS) {
                for &(ci, bits) in b {
                    a[ci as usize] |= bits;
                }
                return;
            }
        }
        let v = self.promote(b.len());
        union_in_place(v, b);
        debug_assert!(is_canonical(v));
    }

    /// In-place difference.
    #[inline]
    pub fn difference_with(&mut self, other: &Self) {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&mut self.repr, &other.repr) {
            for (x, y) in a.iter_mut().zip(b) {
                *x &= !y;
            }
            return;
        }
        self.difference_with_chunks(other)
    }

    #[inline(never)]
    fn difference_with_chunks(&mut self, other: &Self) {
        let mut buf = NO_CHUNKS;
        let mut b = other.chunks(&mut buf);
        match &mut self.repr {
            Repr::Inline(a) => {
                for &(ci, bits) in b.iter().take_while(|c| (c.0 as usize) < INLINE_WORDS) {
                    a[ci as usize] &= !bits;
                }
            }
            Repr::Chunks(v) => {
                v.retain_mut(|(ci, bits)| {
                    b = &b[b.partition_point(|c| c.0 < *ci)..];
                    if let Some(&(_, y)) = b.first().filter(|c| c.0 == *ci) {
                        *bits &= !y;
                    }
                    *bits != 0
                });
                debug_assert!(is_canonical(v));
            }
        }
    }

    /// True if every element of `self` is in `other` (`self ⊆ other`).
    #[inline]
    pub fn is_subset(&self, other: &Self) -> bool {
        self.all_words(other, |x, y| x & !y == 0)
    }

    /// True if the sets share no element.
    #[inline]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.all_words(other, |x, y| x & y == 0)
    }

    /// Smallest element, if any.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        match &self.repr {
            Repr::Inline(w) => {
                let wi = w.iter().position(|&w| w != 0)?;
                Some(wi * 64 + w[wi].trailing_zeros() as usize)
            }
            Repr::Chunks(v) => v
                .first()
                .map(|&(ci, bits)| ci as usize * 64 + bits.trailing_zeros() as usize),
        }
    }

    /// Largest element, if any.
    #[inline]
    pub fn last(&self) -> Option<usize> {
        match &self.repr {
            Repr::Inline(w) => {
                let wi = w.iter().rposition(|&w| w != 0)?;
                Some(wi * 64 + 63 - w[wi].leading_zeros() as usize)
            }
            Repr::Chunks(v) => v
                .last()
                .map(|&(ci, bits)| ci as usize * 64 + 63 - bits.leading_zeros() as usize),
        }
    }

    /// Iterate over elements in increasing order.
    ///
    /// The iterator owns its words (inline sets copy four words, chunked
    /// sets up to four chunks; only a larger one clones its vector), so
    /// call sites may mutate unrelated fields of the owner mid-loop — the
    /// pattern the protocol handlers rely on.
    #[inline]
    pub fn iter(&self) -> SetIter {
        let words = match &self.repr {
            Repr::Inline(w) => Words::Inline(*w),
            Repr::Chunks(v) if v.len() <= INLINE_WORDS => {
                let mut few = NO_CHUNKS;
                few[..v.len()].copy_from_slice(v);
                Words::Few(few)
            }
            Repr::Chunks(v) => Words::Many(v.clone()),
        };
        SetIter { words, pos: 0 }
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
        match &self.repr {
            Repr::Inline(w) => {
                let used = w.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
                w[..used].to_vec()
            }
            Repr::Chunks(v) => {
                let mut words = vec![0; v.last().map_or(0, |c| c.0 as usize + 1)];
                for &(ci, bits) in v {
                    words[ci as usize] = bits;
                }
                words
            }
        }
    }

    /// Rebuild a set from a word representation of any length.
    pub fn from_words(words: &[u64]) -> Self {
        let used = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        if used <= INLINE_WORDS {
            let mut w = [0u64; INLINE_WORDS];
            w[..used].copy_from_slice(&words[..used]);
            return DynSet {
                repr: Repr::Inline(w),
            };
        }
        let nonzero = words[..used]
            .iter()
            .enumerate()
            .filter(|(_, &bits)| bits != 0);
        Self::from_chunks(nonzero.map(|(wi, &bits)| (chunk_index(wi), bits)).collect())
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
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &other.repr) {
            return a == b;
        }
        let (mut ba, mut bb) = (NO_CHUNKS, NO_CHUNKS);
        self.chunks(&mut ba) == other.chunks(&mut bb)
    }
}

impl Eq for DynSet {}

impl Hash for DynSet {
    /// Folds the `(index, word)` pairs of the nonzero words, so the hash
    /// does not depend on the representation.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut buf = NO_CHUNKS;
        self.chunks(&mut buf).hash(state);
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

/// What a [`SetIter`] drains: a copy of the inline words, a copy of up to
/// four chunks (unused slots are zero words, which iteration skips), or a
/// clone of a longer chunk vector.
enum Words {
    Inline([u64; INLINE_WORDS]),
    Few([Chunk; INLINE_WORDS]),
    Many(Vec<Chunk>),
}

/// Iterator over the elements of a [`DynSet`] in increasing order.
///
/// Owns its words (clearing bits as they are yielded), so it needs no
/// lifetime — protocol loops iterate a set while mutating their owner.
pub struct SetIter {
    words: Words,
    /// The word (inline) or chunk being drained.
    pos: usize,
}

impl Iterator for SetIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let chunks: &mut [Chunk] = match &mut self.words {
            Words::Inline(w) => {
                while self.pos < INLINE_WORDS {
                    let bits = w[self.pos];
                    if bits != 0 {
                        w[self.pos] = bits & (bits - 1);
                        return Some(self.pos * 64 + bits.trailing_zeros() as usize);
                    }
                    self.pos += 1;
                }
                return None;
            }
            Words::Few(few) => few,
            Words::Many(v) => v,
        };
        while let Some((ci, bits)) = chunks.get_mut(self.pos) {
            if *bits != 0 {
                let b = bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                return Some(*ci as usize * 64 + b);
            }
            self.pos += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.words {
            Words::Inline(w) => w
                .iter()
                .skip(self.pos)
                .map(|w| w.count_ones() as usize)
                .sum(),
            Words::Few(few) => count(&few[self.pos.min(INLINE_WORDS)..]),
            Words::Many(v) => count(&v[self.pos.min(v.len())..]),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for SetIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeSet;

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
        for n in [0usize, 1, 63, 64, 80, 256, 257, 1000, 4096, 100_000] {
            let s = DynSet::full(n);
            assert_eq!(s.len(), n, "full({n})");
            assert!(s.iter().eq(0..n));
            assert_eq!(s.is_inline(), n <= 256, "full({n})");
        }
    }

    fn chunks_of(s: &DynSet) -> &[Chunk] {
        match &s.repr {
            Repr::Chunks(v) => v,
            Repr::Inline(_) => panic!("{s:?} is inline"),
        }
    }

    #[test]
    fn a_set_costs_its_nonzero_words_not_its_largest_element() {
        // Two representations, and the inline one sets the size.
        assert_eq!(std::mem::size_of::<DynSet>(), 40);
        let s: DynSet = [5usize, 70_000, 99_999].into_iter().collect();
        assert_eq!(
            chunks_of(&s),
            [(0, 1 << 5), (1093, 1 << 48), (1562, 1 << 31)]
        );
        assert_eq!(chunks_of(&DynSet::full(100_000)).len(), 1563);
    }

    #[test]
    fn removing_the_last_bit_of_a_chunk_removes_the_chunk() {
        let mut s: DynSet = [7usize, 640, 641, 9_000].into_iter().collect();
        assert!(s.remove(640));
        assert_eq!(chunks_of(&s).len(), 3);
        assert!(s.remove(641));
        assert_eq!(chunks_of(&s), [(0, 1 << 7), (140, 1 << 40)]);
        assert!(!s.remove(641));
        assert!(!s.contains(641) && !s.contains(usize::MAX));
        let other: DynSet = [7usize, 9_000].into_iter().collect();
        s.difference_with(&other);
        assert!(chunks_of(&s).is_empty() && s.is_empty());
        assert_eq!(s, DynSet::EMPTY);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "word index exceeds u32")]
    fn an_element_past_the_index_range_is_refused_not_wrapped() {
        DynSet::new().insert(usize::MAX);
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
        // clear keeps the chunk representation (capacity reuse).
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
        let mut model: BTreeSet<usize> = BTreeSet::new();
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

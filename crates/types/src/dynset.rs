//! Dynamic-capacity sets of indices.
//!
//! [`DynSet`] sits behind the [`ResourceSet`](crate::ResourceSet) /
//! [`NodeSet`](crate::NodeSet) aliases so
//! scenarios can scale past the paper's N = 32 / M = 80 shape to 10k+
//! nodes and 100k+ resources.  It has three representations, and a set
//! pays for what it holds, whatever the universe it is drawn from:
//!
//! * **bitmap** — four inline words holding any number of elements below
//!   256: every set of the paper's shape, so its protocol hot paths stay
//!   word-parallel and allocation-free;
//! * **sparse** — up to eight sorted `u32` elements of any value, inline in
//!   the same 32 bytes: a φ = 4 request over 100 000 resources, or the
//!   visited path of a request forwarded a few hops among 10 000 nodes;
//! * **chunks** — past both, the set's *nonzero* 64-bit words as
//!   `(word index, bits)` pairs, sorted by index, on the heap.  Memory and
//!   every operation are O(nonzero words), not O(largest element).
//!
//! **Transitions.**  Inserting an element ≥ 256 into a bitmap of fewer than
//! eight elements makes it sparse (a larger bitmap becomes chunks), and a
//! ninth element turns a sparse set into chunks.  Removing never changes
//! the form, and a chunk vector keeps its capacity for reuse.  The result
//! of a binary operation takes the smallest form that holds it: the bitmap
//! if every element is below 256, sparse if it has at most eight, chunks
//! otherwise.
//!
//! Two bitmaps combine word by word.  Every other pair runs one merge over
//! two sorted chunk streams, which a bitmap joins as its ≤ 4 nonzero words
//! and a sparse set as its ≤ 8; no pair of forms has code of its own.
//!
//! **Canonical form** of the chunk vector: indices strictly increasing, no
//! zero word.  Every operation restores it (removing a chunk's last bit
//! removes the chunk), so emptiness is `is_empty()` of the vector and the
//! binary operations and relations are one merge over two sorted streams.
//!
//! `DynSet` is `Clone` but not `Copy`.  Equality and hashing are
//! representation-independent: a bitmap `{3}` equals a sparse `{3}` that
//! once held 10_000, and a chunked `{3}` that once held ten elements.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of bitmap words: 4 × 64 = 256 elements (the paper's shape plus
/// headroom).
const INLINE_WORDS: usize = 4;
const INLINE_BITS: usize = INLINE_WORDS * 64;

/// Capacity of the sparse form: eight `u32` elements fill the bitmap's 32
/// bytes, so the form costs no space.
const SPARSE_CAP: usize = 8;

/// Words whose elements fit the sparse form's `u32`.
const SPARSE_WORDS: u64 = (u32::MAX as u64 + 1) / 64;

/// One nonzero word of a chunked set, `(word index, bits)`: the word at
/// index `i` holds elements `64 i .. 64 i + 64`.
type Chunk = (u32, u64);

/// Scratch for [`DynSet::chunks`]: a bitmap has at most four nonzero words,
/// a sparse set at most eight.
const NO_CHUNKS: [Chunk; SPARSE_CAP] = [(0, 0); SPARSE_CAP];

#[derive(Clone)]
enum Repr {
    /// Elements below 256, one bit each.
    Bitmap([u64; INLINE_WORDS]),
    /// `elems[..len]`, strictly increasing; the rest is unused.
    Sparse { len: u8, elems: [u32; SPARSE_CAP] },
    /// Canonical form: indices strictly increasing, no zero word.
    Chunks(Vec<Chunk>),
}

/// A set of `usize` elements: a 256-bit bitmap, up to eight sorted
/// elements of any value, or the sorted nonzero words (see the module
/// docs for which, and when).
///
/// Bitmap and sparse operations never allocate; chunked ones are
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

/// Elements held by bitmap words.
fn count_bits(w: &[u64]) -> usize {
    w.iter().map(|w| w.count_ones() as usize).sum()
}

fn is_canonical(v: &[Chunk]) -> bool {
    v.windows(2).all(|p| p[0].0 < p[1].0) && v.iter().all(|c| c.1 != 0)
}

/// The elements of one chunk, in increasing order.
fn chunk_elements((ci, mut bits): Chunk) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let b = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
        bits &= bits - 1;
        Some(ci as usize * 64 + b)
    })
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

/// Builds a set from nonzero words pushed in increasing index order, in
/// the smallest form that holds them.  The words wait in a stack buffer
/// while they still fit the bitmap (every index below 4) or the sparse
/// form (at most eight `u32` elements), and move to a chunk vector of
/// capacity `cap` once they fit neither.
struct Sink {
    few: [Chunk; SPARSE_CAP],
    n: usize,
    elems: usize,
    /// Empty, and unallocated, until the words fit neither inline form.
    many: Vec<Chunk>,
    cap: usize,
}

impl Sink {
    fn new(cap: usize) -> Self {
        Sink {
            few: NO_CHUNKS,
            n: 0,
            elems: 0,
            many: Vec::new(),
            cap,
        }
    }

    fn push(&mut self, c: Chunk) {
        if !self.many.is_empty() {
            self.many.push(c);
            return;
        }
        let elems = self.elems + c.1.count_ones() as usize;
        let fits_bitmap = (c.0 as usize) < INLINE_WORDS;
        let fits_sparse = elems <= SPARSE_CAP && u64::from(c.0) < SPARSE_WORDS;
        if fits_bitmap || fits_sparse {
            self.few[self.n] = c;
            self.n += 1;
            self.elems = elems;
        } else {
            self.many = Vec::with_capacity(self.cap.max(self.n + 1));
            self.many.extend_from_slice(&self.few[..self.n]);
            self.many.push(c);
        }
    }

    fn finish(self) -> DynSet {
        if !self.many.is_empty() {
            return DynSet::from_chunks(self.many);
        }
        let few = &self.few[..self.n];
        if few.last().map_or(true, |c| (c.0 as usize) < INLINE_WORDS) {
            let mut w = [0; INLINE_WORDS];
            for &(ci, bits) in few {
                w[ci as usize] = bits;
            }
            return DynSet {
                repr: Repr::Bitmap(w),
            };
        }
        DynSet::sparse(few.iter().flat_map(|&c| chunk_elements(c)))
    }
}

impl DynSet {
    /// The empty set (a bitmap, allocation-free).
    pub const EMPTY: DynSet = DynSet {
        repr: Repr::Bitmap([0; INLINE_WORDS]),
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
                repr: Repr::Bitmap(std::array::from_fn(word)),
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

    /// The sparse form of at most eight strictly increasing `u32` elements.
    fn sparse(sorted: impl IntoIterator<Item = usize>) -> Self {
        let (mut len, mut elems) = (0, [0; SPARSE_CAP]);
        for e in sorted {
            let e = u32::try_from(e).expect("sparse element fits u32");
            debug_assert!(len == 0 || elems[len - 1] < e);
            elems[len] = e;
            len += 1;
        }
        DynSet {
            repr: Repr::Sparse {
                len: len as u8,
                elems,
            },
        }
    }

    /// The set's nonzero words as a canonical chunk slice, whatever the
    /// representation (`buf` backs the slice of an inline set).
    fn chunks<'a>(&'a self, buf: &'a mut [Chunk; SPARSE_CAP]) -> &'a [Chunk] {
        let mut n = 0;
        match &self.repr {
            Repr::Chunks(v) => return v,
            Repr::Bitmap(w) => {
                for (wi, &bits) in w.iter().enumerate() {
                    if bits != 0 {
                        buf[n] = (wi as u32, bits);
                        n += 1;
                    }
                }
            }
            Repr::Sparse { len, elems } => {
                for &e in &elems[..usize::from(*len)] {
                    let (ci, bit) = (e / 64, 1u64 << (e % 64));
                    if n > 0 && buf[n - 1].0 == ci {
                        buf[n - 1].1 |= bit;
                    } else {
                        buf[n] = (ci, bit);
                        n += 1;
                    }
                }
            }
        }
        &buf[..n]
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Bitmap(w) => count_bits(w),
            Repr::Sparse { len, .. } => usize::from(*len),
            Repr::Chunks(v) => count(v),
        }
    }

    /// True if the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Bitmap(w) => w.iter().all(|&w| w == 0),
            Repr::Sparse { len, .. } => *len == 0,
            Repr::Chunks(v) => v.is_empty(),
        }
    }

    /// Add element `i`. Returns true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        if let Repr::Bitmap(w) = &mut self.repr {
            if i < INLINE_BITS {
                let (wi, bit) = (i / 64, 1u64 << (i % 64));
                let newly = w[wi] & bit == 0;
                w[wi] |= bit;
                return newly;
            }
        }
        self.insert_slow(i)
    }

    /// [`DynSet::insert`] past a bitmap's range: stay inline while the
    /// sparse form holds the result, become chunks once it does not.
    #[inline(never)]
    fn insert_slow(&mut self, i: usize) -> bool {
        let fits_u32 = u32::try_from(i);
        match &mut self.repr {
            // `i` >= 256 exceeds every element of a bitmap: it goes last.
            Repr::Bitmap(w) if fits_u32.is_ok() && count_bits(w) < SPARSE_CAP => {
                *self = Self::sparse(self.iter().chain([i]));
                return true;
            }
            Repr::Sparse { len, elems } => {
                if let Ok(e) = fits_u32 {
                    let n = usize::from(*len);
                    match elems[..n].binary_search(&e) {
                        Ok(_) => return false,
                        Err(k) if n < SPARSE_CAP => {
                            elems.copy_within(k..n, k + 1);
                            elems[k] = e;
                            *len += 1;
                            return true;
                        }
                        Err(_) => {} // a ninth element: chunks
                    }
                }
            }
            _ => {}
        }
        let (ci, bit) = (chunk_index(i / 64), 1u64 << (i % 64));
        if !matches!(self.repr, Repr::Chunks(_)) {
            let mut buf = NO_CHUNKS;
            let low = self.chunks(&mut buf);
            let mut v = Vec::with_capacity((low.len() + 1).max(INLINE_WORDS));
            v.extend_from_slice(low);
            self.repr = Repr::Chunks(v);
        }
        let Repr::Chunks(v) = &mut self.repr else {
            unreachable!("promoted above")
        };
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
            Repr::Bitmap(w) => {
                if i >= INLINE_BITS {
                    return false;
                }
                let present = w[i / 64] & bit != 0;
                w[i / 64] &= !bit;
                present
            }
            Repr::Sparse { len, elems } => {
                let n = usize::from(*len);
                let at = u32::try_from(i)
                    .ok()
                    .and_then(|e| elems[..n].binary_search(&e).ok());
                if let Some(k) = at {
                    elems.copy_within(k + 1..n, k);
                    *len -= 1;
                }
                at.is_some()
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
            Repr::Bitmap(w) => i < INLINE_BITS && w[i / 64] & bit != 0,
            Repr::Sparse { len, elems } => {
                u32::try_from(i).is_ok_and(|e| elems[..usize::from(*len)].contains(&e))
            }
            Repr::Chunks(v) => find(v, i).is_ok_and(|k| v[k].1 & bit != 0),
        }
    }

    /// Remove all elements.  Keeps the current representation (and the
    /// chunk vector's capacity), so steady-state reuse stays
    /// allocation-free.
    #[inline]
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Bitmap(w) => *w = [0; INLINE_WORDS],
            Repr::Sparse { len, .. } => *len = 0,
            Repr::Chunks(v) => v.clear(),
        }
    }

    /// `f` applied word by word: the three binary operations.  Two bitmaps
    /// give a bitmap; anything else goes through the merge, whose result
    /// has at most `bound(chunks of self, chunks of other)` chunks.
    #[inline]
    fn zip_words(
        &self,
        other: &Self,
        f: impl Fn(u64, u64) -> u64,
        bound: fn(usize, usize) -> usize,
    ) -> Self {
        if let (Repr::Bitmap(a), Repr::Bitmap(b)) = (&self.repr, &other.repr) {
            return DynSet {
                repr: Repr::Bitmap(std::array::from_fn(|wi| f(a[wi], b[wi]))),
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
        let mut out = Sink::new(bound(a.len(), b.len()));
        merge(a, b, |idx, x, y| {
            let bits = f(x, y);
            if bits != 0 {
                out.push((idx, bits));
            }
            true
        });
        out.finish()
    }

    /// Does `pred` hold for every pair of words: the two relations.
    #[inline]
    fn all_words(&self, other: &Self, pred: impl Fn(u64, u64) -> bool) -> bool {
        if let (Repr::Bitmap(a), Repr::Bitmap(b)) = (&self.repr, &other.repr) {
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

    /// In-place union.  A chunked set grows its vector in place; any other
    /// takes the smallest form of the result.
    #[inline]
    pub fn union_with(&mut self, other: &Self) {
        if let (Repr::Bitmap(a), Repr::Bitmap(b)) = (&mut self.repr, &other.repr) {
            for (x, y) in a.iter_mut().zip(b) {
                *x |= y;
            }
            return;
        }
        self.union_with_chunks(other)
    }

    #[inline(never)]
    fn union_with_chunks(&mut self, other: &Self) {
        match &mut self.repr {
            Repr::Chunks(v) => {
                let mut buf = NO_CHUNKS;
                union_in_place(v, other.chunks(&mut buf));
                debug_assert!(is_canonical(v));
            }
            _ => *self = self.union(other),
        }
    }

    /// In-place difference.  A chunked set keeps its vector; any other
    /// takes the smallest form of the result.
    #[inline]
    pub fn difference_with(&mut self, other: &Self) {
        if let (Repr::Bitmap(a), Repr::Bitmap(b)) = (&mut self.repr, &other.repr) {
            for (x, y) in a.iter_mut().zip(b) {
                *x &= !y;
            }
            return;
        }
        self.difference_with_chunks(other)
    }

    #[inline(never)]
    fn difference_with_chunks(&mut self, other: &Self) {
        match &mut self.repr {
            Repr::Chunks(v) => {
                let mut buf = NO_CHUNKS;
                let mut b = other.chunks(&mut buf);
                v.retain_mut(|(ci, bits)| {
                    b = &b[b.partition_point(|c| c.0 < *ci)..];
                    if let Some(&(_, y)) = b.first().filter(|c| c.0 == *ci) {
                        *bits &= !y;
                    }
                    *bits != 0
                });
                debug_assert!(is_canonical(v));
            }
            _ => *self = self.difference(other),
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
            Repr::Bitmap(w) => {
                let wi = w.iter().position(|&w| w != 0)?;
                Some(wi * 64 + w[wi].trailing_zeros() as usize)
            }
            Repr::Sparse { len, elems } => elems[..usize::from(*len)].first().map(|&e| e as usize),
            Repr::Chunks(v) => v
                .first()
                .map(|&(ci, bits)| ci as usize * 64 + bits.trailing_zeros() as usize),
        }
    }

    /// Largest element, if any.
    #[inline]
    pub fn last(&self) -> Option<usize> {
        match &self.repr {
            Repr::Bitmap(w) => {
                let wi = w.iter().rposition(|&w| w != 0)?;
                Some(wi * 64 + 63 - w[wi].leading_zeros() as usize)
            }
            Repr::Sparse { len, elems } => elems[..usize::from(*len)].last().map(|&e| e as usize),
            Repr::Chunks(v) => v
                .last()
                .map(|&(ci, bits)| ci as usize * 64 + 63 - bits.leading_zeros() as usize),
        }
    }

    /// Iterate over elements in increasing order.
    ///
    /// The iterator owns its elements (a bitmap copies four words, a sparse
    /// set its eight elements, a chunked set up to four chunks; only a
    /// larger one clones its vector), so call sites may mutate unrelated
    /// fields of the owner mid-loop — the pattern the protocol handlers
    /// rely on.
    #[inline]
    pub fn iter(&self) -> SetIter {
        let words = match &self.repr {
            Repr::Bitmap(w) => Words::Bitmap(*w),
            Repr::Sparse { len, elems } => Words::Sparse(*len, *elems),
            Repr::Chunks(v) if v.len() <= INLINE_WORDS => {
                let mut few = [(0, 0); INLINE_WORDS];
                few[..v.len()].copy_from_slice(v);
                Words::Few(few)
            }
            Repr::Chunks(v) => Words::Many(v.clone()),
        };
        SetIter { words, pos: 0 }
    }

    /// Does `f` hold for every element?  Visits them in increasing order
    /// and stops at the first that fails.  Unlike [`DynSet::iter`] it walks
    /// the set in place, so it never allocates, and the set stays borrowed
    /// meanwhile.
    pub fn all(&self, mut f: impl FnMut(usize) -> bool) -> bool {
        let mut buf = NO_CHUNKS;
        self.chunks(&mut buf).iter().all(|&c| chunk_elements(c).all(&mut f))
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
        let mut buf = NO_CHUNKS;
        let chunks = self.chunks(&mut buf);
        let mut words = vec![0; chunks.last().map_or(0, |c| c.0 as usize + 1)];
        for &(ci, bits) in chunks {
            words[ci as usize] = bits;
        }
        words
    }

    /// Rebuild a set, in its smallest form, from a word representation of
    /// any length.
    pub fn from_words(words: &[u64]) -> Self {
        let used = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        if used <= INLINE_WORDS {
            let mut w = [0u64; INLINE_WORDS];
            w[..used].copy_from_slice(&words[..used]);
            return DynSet {
                repr: Repr::Bitmap(w),
            };
        }
        let nonzero = || {
            words[..used]
                .iter()
                .enumerate()
                .filter(|(_, &bits)| bits != 0)
        };
        let mut out = Sink::new(nonzero().count());
        for (wi, &bits) in nonzero() {
            out.push((chunk_index(wi), bits));
        }
        out.finish()
    }

    /// True if the set lives inline — as the bitmap or the sparse form —
    /// and so owns no heap memory (diagnostics; the parity proptest
    /// exercises every transition).
    pub fn is_inline(&self) -> bool {
        !matches!(self.repr, Repr::Chunks(_))
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
        if let (Repr::Bitmap(a), Repr::Bitmap(b)) = (&self.repr, &other.repr) {
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

/// What a [`SetIter`] drains: a copy of the bitmap, of a sparse set's
/// elements, or of up to four chunks (unused slots are zero words, which
/// iteration skips), or a clone of a longer chunk vector.
enum Words {
    Bitmap([u64; INLINE_WORDS]),
    Sparse(u8, [u32; SPARSE_CAP]),
    Few([Chunk; INLINE_WORDS]),
    Many(Vec<Chunk>),
}

/// Iterator over the elements of a [`DynSet`] in increasing order.
///
/// Owns its elements (clearing bits as they are yielded), so it needs no
/// lifetime — protocol loops iterate a set while mutating their owner.
pub struct SetIter {
    words: Words,
    /// The word (bitmap), element (sparse) or chunk being drained.
    pos: usize,
}

impl Iterator for SetIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let chunks: &mut [Chunk] = match &mut self.words {
            Words::Bitmap(w) => {
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
            Words::Sparse(len, elems) => {
                let e = *elems[..usize::from(*len)].get(self.pos)?;
                self.pos += 1;
                return Some(e as usize);
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
            Words::Bitmap(w) => count_bits(&w[self.pos.min(INLINE_WORDS)..]),
            Words::Sparse(len, _) => usize::from(*len).saturating_sub(self.pos),
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

    /// Which of the three forms `s` is in.
    fn form(s: &DynSet) -> &'static str {
        match s.repr {
            Repr::Bitmap(_) => "bitmap",
            Repr::Sparse { .. } => "sparse",
            Repr::Chunks(_) => "chunks",
        }
    }

    fn chunks_of(s: &DynSet) -> &[Chunk] {
        match &s.repr {
            Repr::Chunks(v) => v,
            _ => panic!("{s:?} is inline"),
        }
    }

    fn set(es: &[usize]) -> DynSet {
        es.iter().copied().collect()
    }

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
        assert_eq!(form(&s), "bitmap");
    }

    #[test]
    fn the_three_forms_and_their_transitions() {
        // A bitmap holds any number of elements below 256.
        let mut s = set(&[0, 63, 64, 127, 128, 191, 192, 255]);
        assert_eq!(form(&s), "bitmap");
        // Eight elements fill it: one past 255 makes chunks.
        s.insert(256);
        assert_eq!(form(&s), "chunks");
        assert_eq!(s.to_vec(), [0, 63, 64, 127, 128, 191, 192, 255, 256]);
        // Fewer than eight: the sparse form, at any value.
        let mut s = set(&[7, 255]);
        s.insert(99_999);
        assert_eq!(form(&s), "sparse");
        for e in [70_000, 256, 4_000_000_000, 300, 1 << 20] {
            assert!(s.insert(e) && !s.insert(e));
        }
        assert_eq!(form(&s), "sparse");
        assert_eq!(s.len(), 8);
        assert_eq!(
            s.to_vec(),
            [7, 255, 256, 300, 70_000, 99_999, 1 << 20, 4_000_000_000]
        );
        // A ninth element promotes; removing never demotes.
        s.insert(1);
        assert_eq!(form(&s), "chunks");
        assert!(s.remove(1));
        assert_eq!(form(&s), "chunks");
        // A sparse set keeps its form below 256, too.
        let mut s = DynSet::singleton(1_000);
        assert!(s.remove(1_000) && s.insert(3));
        assert_eq!((form(&s), s.to_vec()), ("sparse", vec![3]));
        // An element past `u32` cannot be sparse.
        let mut s = DynSet::singleton(3);
        s.insert(1 << 33);
        assert_eq!((form(&s), s.to_vec()), ("chunks", vec![3, 1 << 33]));
    }

    #[test]
    fn a_binary_result_takes_the_smallest_form_that_holds_it() {
        let big: DynSet = (1_000..1_020).collect();
        let low = set(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        // Small chunked operands, small results: inline again.
        assert_eq!(form(&big.intersection(&set(&[1_003, 1_005]))), "sparse");
        assert_eq!(form(&big.union(&low).difference(&big)), "bitmap");
        assert_eq!(form(&big.difference(&(1_000..1_015).collect())), "sparse");
        // Nine elements with one past 255: chunks.
        assert_eq!(form(&low.union(&DynSet::singleton(300))), "chunks");
        // In place: a chunk vector stays; an inline set takes the result's form.
        let mut c = big.clone();
        c.difference_with(&big);
        assert_eq!((form(&c), c.is_empty()), ("chunks", true));
        let mut s = set(&[5, 70_000]);
        s.difference_with(&DynSet::singleton(70_000));
        assert_eq!(form(&s), "bitmap");
        s.union_with(&big);
        assert_eq!(form(&s), "chunks");
        // Words come back in their smallest form.
        assert_eq!(
            form(&DynSet::from_words(&big.intersection(&low).to_words())),
            "bitmap"
        );
        assert_eq!(
            form(&DynSet::from_words(&set(&[5, 70_000]).to_words())),
            "sparse"
        );
        assert_eq!(form(&DynSet::from_words(&big.to_words())), "chunks");
    }

    #[test]
    fn eq_and_hash_ignore_representation() {
        let h = |s: &DynSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let bitmap = DynSet::singleton(3);
        let mut sparse = DynSet::singleton(10_000);
        sparse.insert(3);
        sparse.remove(10_000);
        let mut chunks: DynSet = (1_000..1_010).collect();
        chunks.insert(3);
        chunks.difference_with(&(1_000..1_010).collect());
        assert_eq!(
            [form(&bitmap), form(&sparse), form(&chunks)],
            ["bitmap", "sparse", "chunks"]
        );
        for (a, b) in [(&bitmap, &sparse), (&sparse, &chunks), (&bitmap, &chunks)] {
            assert_eq!(a, b);
            assert_eq!(h(a), h(b));
        }
        sparse.insert(4);
        assert_ne!(bitmap, sparse);
        assert_ne!(chunks, sparse);
    }

    #[test]
    fn full_of_any_size() {
        for n in [0usize, 1, 63, 64, 80, 256, 257, 1000, 4096, 100_000] {
            let s = DynSet::full(n);
            assert_eq!(s.len(), n, "full({n})");
            assert!(s.iter().eq(0..n));
            assert_eq!(s.first(), (n > 0).then_some(0));
            assert!(!s.contains(n) && !s.contains(n + 1_000));
            assert_eq!(s.is_inline(), n <= 256, "full({n})");
        }
    }

    #[test]
    fn a_set_costs_what_it_holds_not_its_largest_element() {
        // Three forms, and none is larger than the bitmap.
        assert_eq!(std::mem::size_of::<DynSet>(), 40);
        assert_eq!(form(&set(&[5, 70_000, 99_999])), "sparse");
        let s: DynSet = [5usize, 70_000, 99_999]
            .into_iter()
            .chain(1_000..1_006)
            .chain([99_998])
            .collect();
        assert_eq!(
            chunks_of(&s),
            [
                (0, 1 << 5),
                (15, 0b11_1111 << 40),
                (1093, 1 << 48),
                (1562, 0b11 << 30)
            ]
        );
        assert_eq!(chunks_of(&DynSet::full(100_000)).len(), 1563);
    }

    #[test]
    fn removing_the_last_bit_of_a_chunk_removes_the_chunk() {
        let mut s: DynSet = [7usize, 640, 641, 9_000]
            .into_iter()
            .chain(2_000..2_006)
            .collect();
        s.difference_with(&(2_000..2_006).collect());
        assert!(s.remove(640));
        assert_eq!(chunks_of(&s).len(), 3);
        assert!(s.remove(641));
        assert_eq!(chunks_of(&s), [(0, 1 << 7), (140, 1 << 40)]);
        assert!(!s.remove(641));
        assert!(!s.contains(641) && !s.contains(usize::MAX));
        s.difference_with(&set(&[7, 9_000]));
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
    fn set_algebra_across_the_forms() {
        let a = set(&[1, 2, 300]);
        let b = set(&[2, 4]);
        let c: DynSet = (5_000..5_010).chain([2]).collect();
        assert_eq!(
            [form(&a), form(&b), form(&c)],
            ["sparse", "bitmap", "chunks"]
        );
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 4, 300]);
        assert_eq!(b.union(&a).to_vec(), vec![1, 2, 4, 300]);
        assert_eq!(a.intersection(&b).to_vec(), vec![2]);
        assert_eq!(b.intersection(&a).to_vec(), vec![2]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 300]);
        assert_eq!(b.difference(&a).to_vec(), vec![4]);
        assert_eq!(c.intersection(&a).to_vec(), vec![2]);
        assert_eq!(a.difference(&c).to_vec(), vec![1, 300]);
        assert!(!a.is_disjoint(&b) && !c.is_disjoint(&a));
        assert!(a.difference(&b).is_disjoint(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(b.is_subset(&a.union(&b)));
        assert!(DynSet::EMPTY.is_subset(&a));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, a.union(&b));
        let mut u = b.clone();
        u.union_with(&a);
        assert_eq!(u, a.union(&b));
        let mut u = c.clone();
        u.union_with(&a);
        assert_eq!(u, a.union(&c));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, a.difference(&b));
    }

    #[test]
    fn first_last_and_clear() {
        let forms = [
            (set(&[7, 200]), 200),
            (set(&[7, 500]), 500),
            ((7..500).step_by(50).collect(), 457),
        ];
        for (mut s, last) in forms {
            let was = form(&s);
            assert_eq!(s.first(), Some(7));
            assert_eq!(s.last(), Some(last));
            s.clear();
            assert!(s.is_empty());
            assert_eq!((s.first(), s.last()), (None, None));
            // clear keeps the form (and a chunk vector's capacity).
            assert_eq!(form(&s), was);
            assert_eq!(s, DynSet::EMPTY);
        }
    }

    #[test]
    fn words_roundtrip_trims() {
        let s = set(&[0, 63, 64, 200, 255, 700]);
        assert_eq!(DynSet::from_words(&s.to_words()), s);
        assert_eq!(DynSet::from_words(&[]), DynSet::EMPTY);
        assert_eq!(DynSet::from_words(&[0, 0, 0]), DynSet::EMPTY);
        assert_eq!(DynSet::from_words(&[u64::MAX; 4]), DynSet::full(256));
        assert_eq!(DynSet::singleton(3).to_words(), vec![8u64]);
        assert_eq!(set(&[3, 300]).to_words(), vec![8u64, 0, 0, 0, 1 << 44]);
        // from_words of a padded slice lands in the bitmap when it fits.
        assert_eq!(form(&DynSet::from_words(&[8, 0, 0, 0, 0, 0])), "bitmap");
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
        assert!(s.iter().eq(model.into_iter()));
    }
}

//! Per-resource state tables that scale to 100k+ resources, and the one
//! hash every id-keyed map in the workspace uses.
//!
//! The protocol crates keep per-resource state (token directories, request
//! counters, lazily created token instances).  At the paper's M = 80 a
//! dense `Vec` indexed by `ResourceId` is ideal; at M = 100_000 a dense
//! vector **per node** multiplies out to gigabytes.  [`ResTable`] picks the
//! representation by universe size: dense `Vec<T>` up to
//! [`DENSE_TABLE_MAX`] resources (every entry materialized eagerly),
//! hash-mapped entries above it (entries materialized on first touch).
//!
//! The table deliberately exposes **no iteration** over its entries: a
//! `HashMap` iterates in an order its hash decides, and determinism is the
//! repo's core invariant.  Protocol logic must address entries by id.
//!
//! **Why the hash is fixed.**  The sparse side is an [`IdMap`]: one
//! multiply per id ([`IdHasher`]) instead of std's randomly keyed SipHash,
//! which cost more than the probe it chose (at 10 000 × 100 000 a quarter
//! of the simulator's CPU was hash-table work).  SipHash's random key
//! defends a map against keys chosen to collide; these keys are ids the
//! program minted (`0..m`, lane numbers) or that cluster peers sent, and
//! peers are trusted by the fault model already (node outages and lost or
//! duplicated frames, DESIGN §8; Byzantine peers are parked).  A peer that
//! sent a bad id could do worse than slow a probe down: a dense table
//! panics on an id ≥ m.  And since nothing iterates the map, a fixed hash
//! cannot reorder anything observable.

use crate::ResourceId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by ids the program minted, hashed by [`IdHasher`].
/// The only way the workspace hashes an id (CI greps for any other
/// `HashMap` or `HashSet` in the protocol and simulator crates).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Fixed multiplicative hash for integer ids: FxHash's step
/// (`(h.rotate_left(5) ^ x) · K` per word, no random state), then a
/// rotation on `finish`.
///
/// The rotation is what makes it safe for hashbrown, which takes the bucket
/// from the hash's *low* bits and a one-byte tag from its top seven.  The
/// low `k` bits of a product depend only on the low `k` bits of the id, so
/// without it the ids `0, 4096, 8192, …` would all hash to bucket 0 of a
/// 4 096-bucket table.  The best-mixed bits of a product are its high ones;
/// rotating left by 26 brings bits 38–49 down to the bucket index (the
/// finish rustc-hash 2 uses).  `tests/prop_restable.rs` pins both
/// properties on strided ids.
#[derive(Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    /// FxHash's 64-bit multiplier.
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    /// Arbitrary bytes, eight at a time (ids take the typed paths below).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Largest universe for which [`ResTable`] materializes a dense vector.
/// 4096 × a few machine words per entry keeps paper-scale tables flat and
/// allocation-free after construction while capping eager memory at big M.
pub const DENSE_TABLE_MAX: usize = 4096;

#[derive(Clone)]
enum Repr<T> {
    Dense(Vec<T>),
    Sparse(IdMap<ResourceId, T>),
}

/// A map from `ResourceId` in `0..m` to `T`, dense for small `m` and
/// lazily materialized above [`DENSE_TABLE_MAX`].
#[derive(Clone)]
pub struct ResTable<T> {
    repr: Repr<T>,
}

impl<T> ResTable<T> {
    /// Build a table for universe `0..m`, constructing dense entries with
    /// `mk`.  For sparse tables `mk` is not called here; absent entries are
    /// built on first [`ResTable::get_or`] touch.
    pub fn new_with(m: usize, mk: impl FnMut(ResourceId) -> T) -> Self {
        if m <= DENSE_TABLE_MAX {
            ResTable {
                repr: Repr::Dense((0..m).map(mk).collect()),
            }
        } else {
            ResTable {
                repr: Repr::Sparse(IdMap::default()),
            }
        }
    }

    /// The entry for `r`, if it has been materialized (dense tables always
    /// have it).  Callers interpret `None` as the entry's default value.
    #[inline]
    pub fn get(&self, r: ResourceId) -> Option<&T> {
        match &self.repr {
            Repr::Dense(v) => v.get(r),
            Repr::Sparse(map) => map.get(&r),
        }
    }

    /// Mutable access to a materialized entry.
    #[inline]
    pub fn get_mut(&mut self, r: ResourceId) -> Option<&mut T> {
        match &mut self.repr {
            Repr::Dense(v) => v.get_mut(r),
            Repr::Sparse(map) => map.get_mut(&r),
        }
    }

    /// Mutable access, materializing the entry with `mk` if absent.
    #[inline]
    pub fn get_or(&mut self, r: ResourceId, mk: impl FnOnce(ResourceId) -> T) -> &mut T {
        match &mut self.repr {
            Repr::Dense(v) => &mut v[r],
            Repr::Sparse(map) => map.entry(r).or_insert_with(|| mk(r)),
        }
    }

    /// Overwrite the entry for `r`, materializing it if absent.
    #[inline]
    pub fn set(&mut self, r: ResourceId, val: T) {
        match &mut self.repr {
            Repr::Dense(v) => v[r] = val,
            Repr::Sparse(map) => {
                map.insert(r, val);
            }
        }
    }

    /// Number of materialized entries (dense: the universe size).
    pub fn materialized(&self) -> usize {
        match &self.repr {
            Repr::Dense(v) => v.len(),
            Repr::Sparse(map) => map.len(),
        }
    }

    /// True if the table uses the dense representation.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_small_universe() {
        let mut t: ResTable<u64> = ResTable::new_with(80, |r| r as u64 * 10);
        assert!(t.is_dense());
        assert_eq!(t.materialized(), 80);
        assert_eq!(t.get(7), Some(&70));
        *t.get_or(7, |_| unreachable!()) += 1;
        assert_eq!(t.get(7), Some(&71));
    }

    #[test]
    fn sparse_big_universe_lazy() {
        let mut t: ResTable<u64> = ResTable::new_with(100_000, |_| panic!("eager mk in sparse"));
        assert!(!t.is_dense());
        assert_eq!(t.materialized(), 0);
        assert_eq!(t.get(99_999), None);
        *t.get_or(99_999, |r| r as u64) += 1;
        assert_eq!(t.get(99_999), Some(&100_000));
        assert_eq!(t.materialized(), 1);
        assert_eq!(t.get_mut(5), None);
    }

    #[test]
    fn boundary_is_dense() {
        let t: ResTable<u8> = ResTable::new_with(DENSE_TABLE_MAX, |_| 0);
        assert!(t.is_dense());
        let t: ResTable<u8> = ResTable::new_with(DENSE_TABLE_MAX + 1, |_| 0);
        assert!(!t.is_dense());
    }
}

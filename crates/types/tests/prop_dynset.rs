//! Parity proptest: the dynamic `ResourceSet` ([`DynSet`]) agrees with the
//! old fixed-width semantics.  Random op sequences — insert, remove,
//! union, intersect, difference, iteration, words round-trip — are run
//! against a [`BitSet256`] reference model on the shared `0..256`
//! universe, and the big-universe behaviour (including sets that cross the
//! inline→chunks boundary and come back) is modeled with `HashSet` on
//! `0..1024` and, for every operation and relation in both operand orders
//! and both representations, with `BTreeSet` on `0..100_000`.

mod bitset256;

use bitset256::BitSet256;
use mra_types::DynSet;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

#[derive(Clone, Debug)]
enum Op {
    Insert(usize),
    Remove(usize),
    UnionWith(Vec<usize>),
    DifferenceWith(Vec<usize>),
    IntersectWith(Vec<usize>),
    Clear,
    WordsRoundTrip,
}

fn op(universe: usize) -> impl Strategy<Value = Op> {
    let elems = || proptest::collection::vec(0..universe, 0..16);
    // The vendored proptest's `prop_oneof!` is unweighted; repeating the
    // insert/remove arms biases sequences toward populated sets.
    prop_oneof![
        (0..universe).prop_map(Op::Insert),
        (0..universe).prop_map(Op::Insert),
        (0..universe).prop_map(Op::Insert),
        (0..universe).prop_map(Op::Remove),
        (0..universe).prop_map(Op::Remove),
        elems().prop_map(Op::UnionWith),
        elems().prop_map(Op::DifferenceWith),
        elems().prop_map(Op::IntersectWith),
        Just(Op::Clear),
        Just(Op::WordsRoundTrip),
    ]
}

fn ops(universe: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op(universe), 0..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On the 256-element universe both representations exist; every op
    /// sequence must leave them in agreement (contains, len, first, iter,
    /// and the words round-trip).
    #[test]
    fn dynset_matches_bitset256_reference(ops in ops(256)) {
        let mut d = DynSet::new();
        let mut r = BitSet256::new();
        for o in &ops {
            match o {
                Op::Insert(i) => prop_assert_eq!(d.insert(*i), r.insert(*i)),
                Op::Remove(i) => prop_assert_eq!(d.remove(*i), r.remove(*i)),
                Op::UnionWith(es) => {
                    let od: DynSet = es.iter().copied().collect();
                    let or: BitSet256 = es.iter().copied().collect();
                    d.union_with(&od);
                    r.union_with(&or);
                }
                Op::DifferenceWith(es) => {
                    let od: DynSet = es.iter().copied().collect();
                    let or: BitSet256 = es.iter().copied().collect();
                    d.difference_with(&od);
                    r.difference_with(&or);
                }
                Op::IntersectWith(es) => {
                    let od: DynSet = es.iter().copied().collect();
                    let or: BitSet256 = es.iter().copied().collect();
                    d = d.intersection(&od);
                    r = r.intersection(&or);
                }
                Op::Clear => {
                    d.clear();
                    r.clear();
                }
                Op::WordsRoundTrip => {
                    d = DynSet::from_words(&d.to_words());
                    r = BitSet256::from_words(r.to_words());
                }
            }
            prop_assert_eq!(d.len(), r.len());
            prop_assert_eq!(d.first(), r.first());
            prop_assert_eq!(d.is_empty(), r.is_empty());
        }
        prop_assert_eq!(d.to_vec(), r.to_vec());
        for e in 0..256 {
            prop_assert_eq!(d.contains(e), r.contains(e));
        }
        // Words agree up to trailing-zero trimming.
        let dw = d.to_words();
        let rw = r.to_words();
        prop_assert!(dw.len() <= rw.len());
        prop_assert_eq!(&dw[..], &rw[..dw.len()]);
        prop_assert!(rw[dw.len()..].iter().all(|&w| w == 0));
    }

    /// On a big universe the reference is `HashSet`; sequences freely cross
    /// the inline→chunks boundary (universe 1024 ≫ 256).
    #[test]
    fn dynset_matches_hashset_big_universe(ops in ops(1024)) {
        let mut d = DynSet::new();
        let mut model: HashSet<usize> = HashSet::new();
        for o in &ops {
            match o {
                Op::Insert(i) => prop_assert_eq!(d.insert(*i), model.insert(*i)),
                Op::Remove(i) => prop_assert_eq!(d.remove(*i), model.remove(i)),
                Op::UnionWith(es) => {
                    let od: DynSet = es.iter().copied().collect();
                    d.union_with(&od);
                    model.extend(es.iter().copied());
                }
                Op::DifferenceWith(es) => {
                    let od: DynSet = es.iter().copied().collect();
                    d.difference_with(&od);
                    for e in es {
                        model.remove(e);
                    }
                }
                Op::IntersectWith(es) => {
                    let keep: HashSet<usize> = es.iter().copied().collect();
                    let od: DynSet = es.iter().copied().collect();
                    d = d.intersection(&od);
                    model.retain(|e| keep.contains(e));
                }
                Op::Clear => {
                    d.clear();
                    model.clear();
                }
                Op::WordsRoundTrip => {
                    d = DynSet::from_words(&d.to_words());
                }
            }
            prop_assert_eq!(d.len(), model.len());
        }
        let mut want: Vec<usize> = model.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(d.to_vec(), want);
    }

    /// Equality and hashing are representation-independent: a set pushed
    /// across the chunk boundary and shrunk back equals its inline twin.
    #[test]
    fn eq_hash_survive_boundary_crossing(elems in proptest::collection::vec(0usize..256, 0..32)) {
        let inline: DynSet = elems.iter().copied().collect();
        let mut chunked: DynSet = elems.iter().copied().collect();
        chunked.insert(100_000);
        chunked.remove(100_000);
        prop_assert!(!chunked.is_inline());
        prop_assert_eq!(&inline, &chunked);
        prop_assert_eq!(hash_of(&inline), hash_of(&chunked));
        prop_assert_eq!(inline.to_words(), chunked.to_words());
        prop_assert!(chunked.is_subset(&inline) && inline.is_subset(&chunked));
    }
}

proptest! {
    // Each case checks ~130 results by every observer: fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Where the chunk code actually runs: operands of every density over
    /// `0..100_000`, in both representations and both operand orders,
    /// against `BTreeSet`.  Every result passes [`agrees`], which is the
    /// canonical form seen from outside.
    #[test]
    fn chunked_algebra_matches_btreeset(a in operand(), b in operand(), extra in operand()) {
        let (ma, mb) = (model(&a), model(&b));
        for da in both_reprs(&a) {
            agrees(&da, &ma)?;
            for db in both_reprs(&b) {
                agrees(&da.union(&db), &(&ma | &mb))?;
                agrees(&db.union(&da), &(&ma | &mb))?;
                agrees(&da.intersection(&db), &(&ma & &mb))?;
                agrees(&db.intersection(&da), &(&ma & &mb))?;
                agrees(&da.difference(&db), &(&ma - &mb))?;
                agrees(&db.difference(&da), &(&mb - &ma))?;
                let mut u = da.clone();
                u.union_with(&db);
                agrees(&u, &(&ma | &mb))?;
                let mut d = da.clone();
                d.difference_with(&db);
                agrees(&d, &(&ma - &mb))?;
                prop_assert_eq!(da.is_subset(&db), ma.is_subset(&mb));
                prop_assert_eq!(db.is_subset(&da), mb.is_subset(&ma));
                prop_assert_eq!(da.is_disjoint(&db), ma.is_disjoint(&mb));
                prop_assert_eq!(db.is_disjoint(&da), ma.is_disjoint(&mb));
                prop_assert_eq!(da == db, ma == mb);
                // Derived results are again valid operands.
                prop_assert!(da.intersection(&db).is_subset(&da.union(&db)));
                prop_assert!(da.difference(&db).is_disjoint(&db));
            }
        }
        // Point operations: grow by `extra`, then shrink back to `a`.
        let (mut d, mut m) = (a.iter().copied().collect::<DynSet>(), ma.clone());
        for &e in &extra {
            prop_assert_eq!(d.insert(e), m.insert(e));
            agrees(&d, &m)?;
        }
        for &e in &extra {
            if !ma.contains(&e) {
                prop_assert_eq!(d.remove(e), m.remove(&e));
                agrees(&d, &m)?;
            }
        }
        agrees(&d, &ma)?;
    }
}

fn hash_of(s: &DynSet) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Elements of one operand over `0..100_000`: a few scattered ones (a
/// request), a run that fills whole words (a node's owned tokens), or
/// everything below 256 (the inline side of a mixed pair).
fn operand() -> impl Strategy<Value = Vec<usize>> {
    let sparse = || proptest::collection::vec(0usize..100_000, 0..12);
    prop_oneof![
        sparse(),
        (sparse(), 0usize..99_000, 0usize..700).prop_map(|(mut es, lo, len)| {
            es.extend(lo..lo + len);
            es
        }),
        proptest::collection::vec(0usize..256, 0..24),
    ]
}

fn model(es: &[usize]) -> BTreeSet<usize> {
    es.iter().copied().collect()
}

/// The same set in each representation it can have: built by inserts
/// (inline iff every element is below 256), and forced into chunks.
fn both_reprs(es: &[usize]) -> [DynSet; 2] {
    let built: DynSet = es.iter().copied().collect();
    let mut chunked = built.clone();
    chunked.insert(99_999);
    if !es.contains(&99_999) {
        chunked.remove(99_999);
    }
    assert!(!chunked.is_inline());
    [built, chunked]
}

/// `d` is exactly `m`, by every observer — and in canonical form: a zero
/// chunk left behind would break `is_empty`/`eq`/`hash` against a freshly
/// built twin, an unsorted one `iter`/`first`/`last`.
fn agrees(d: &DynSet, m: &BTreeSet<usize>) -> Result<(), TestCaseError> {
    prop_assert_eq!(d.len(), m.len());
    prop_assert_eq!(d.is_empty(), m.is_empty());
    prop_assert_eq!(d.first(), m.first().copied());
    prop_assert_eq!(d.last(), m.last().copied());
    prop_assert!(d.iter().eq(m.iter().copied()));
    prop_assert_eq!(d.iter().len(), m.len());
    for &e in m.iter().take(8) {
        prop_assert!(d.contains(e) && !d.contains(e + 100_000));
    }
    let twin: DynSet = m.iter().copied().collect();
    prop_assert_eq!(d, &twin);
    prop_assert_eq!(hash_of(d), hash_of(&twin));
    let back = DynSet::from_words(&d.to_words());
    prop_assert_eq!(&back, d);
    prop_assert_eq!(back.is_inline(), m.last().map_or(true, |&hi| hi < 256));
    Ok(())
}

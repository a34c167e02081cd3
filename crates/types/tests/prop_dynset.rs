//! Parity proptest: the dynamic `ResourceSet` ([`DynSet`]) agrees with the
//! old fixed-width semantics.  Random op sequences — insert, remove,
//! union, intersect, difference, iteration, words round-trip — are run
//! against a [`BitSet256`] reference model on the shared `0..256`
//! universe, and the big-universe behaviour (including sets that cross the
//! inline→heap boundary and come back) is modeled with `HashSet`.

mod bitset256;

use bitset256::BitSet256;
use mra_types::DynSet;
use proptest::prelude::*;
use std::collections::HashSet;

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
    /// the inline→heap boundary (universe 1024 ≫ 256).
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
    /// across the heap boundary and shrunk back equals its inline twin.
    #[test]
    fn eq_hash_survive_boundary_crossing(elems in proptest::collection::vec(0usize..256, 0..32)) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let inline: DynSet = elems.iter().copied().collect();
        let mut heap: DynSet = elems.iter().copied().collect();
        heap.insert(100_000);
        heap.remove(100_000);
        prop_assert!(!heap.is_inline());
        prop_assert_eq!(&inline, &heap);
        let h = |s: &DynSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        prop_assert_eq!(h(&inline), h(&heap));
        prop_assert_eq!(inline.to_words(), heap.to_words());
        prop_assert!(heap.is_subset(&inline) && inline.is_subset(&heap));
    }
}

//! Property-based tests: `BitSet256` behaves exactly like a `HashSet<usize>`
//! restricted to `0..256`, and the set-algebra identities hold.

mod bitset256;

use bitset256::BitSet256;
use proptest::prelude::*;
use std::collections::HashSet;

fn small_elems() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..256, 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_iter_matches_hashset(elems in small_elems()) {
        let s: BitSet256 = elems.iter().copied().collect();
        let model: HashSet<usize> = elems.iter().copied().collect();
        prop_assert_eq!(s.len(), model.len());
        for e in 0..256 {
            prop_assert_eq!(s.contains(e), model.contains(&e));
        }
        let mut sorted: Vec<usize> = model.into_iter().collect();
        sorted.sort_unstable();
        prop_assert_eq!(s.to_vec(), sorted);
    }

    #[test]
    fn union_intersection_difference_laws(a in small_elems(), b in small_elems()) {
        let sa: BitSet256 = a.iter().copied().collect();
        let sb: BitSet256 = b.iter().copied().collect();
        let ha: HashSet<usize> = a.into_iter().collect();
        let hb: HashSet<usize> = b.into_iter().collect();

        let mut u: Vec<usize> = ha.union(&hb).copied().collect();
        u.sort_unstable();
        prop_assert_eq!(sa.union(&sb).to_vec(), u);

        let mut i: Vec<usize> = ha.intersection(&hb).copied().collect();
        i.sort_unstable();
        prop_assert_eq!(sa.intersection(&sb).to_vec(), i);

        let mut d: Vec<usize> = ha.difference(&hb).copied().collect();
        d.sort_unstable();
        prop_assert_eq!(sa.difference(&sb).to_vec(), d);

        // De Morgan-ish sanity: (a ∪ b) \ b ⊆ a, and a ∩ b ⊆ a ⊆ a ∪ b.
        prop_assert!(sa.union(&sb).difference(&sb).is_subset(&sa));
        prop_assert!(sa.intersection(&sb).is_subset(&sa));
        prop_assert!(sa.is_subset(&sa.union(&sb)));
        prop_assert_eq!(sa.is_disjoint(&sb), sa.intersection(&sb).is_empty());
    }

    #[test]
    fn subset_is_reflexive_and_antisymmetric(a in small_elems(), b in small_elems()) {
        let sa: BitSet256 = a.iter().copied().collect();
        let sb: BitSet256 = b.iter().copied().collect();
        prop_assert!(sa.is_subset(&sa));
        if sa.is_subset(&sb) && sb.is_subset(&sa) {
            prop_assert_eq!(sa, sb);
        }
    }

    #[test]
    fn insert_remove_roundtrip(elems in small_elems(), v in 0usize..256) {
        let mut s: BitSet256 = elems.iter().copied().collect();
        let before = s.contains(v);
        s.insert(v);
        prop_assert!(s.contains(v));
        s.remove(v);
        prop_assert!(!s.contains(v));
        if before {
            s.insert(v);
        }
        let back: BitSet256 = elems.iter().copied().collect();
        prop_assert_eq!(s, back);
    }

    #[test]
    fn first_is_minimum(elems in small_elems()) {
        let s: BitSet256 = elems.iter().copied().collect();
        prop_assert_eq!(s.first(), elems.iter().copied().min());
    }
}

#[test]
fn insert_remove_contains() {
    let mut s = BitSet256::new();
    assert!(s.is_empty());
    assert!(s.insert(5));
    assert!(!s.insert(5));
    assert!(s.contains(5));
    assert!(!s.contains(6));
    assert_eq!(s.len(), 1);
    assert!(s.remove(5));
    assert!(!s.remove(5));
    assert!(s.is_empty());
}

#[test]
fn word_boundaries() {
    let mut s = BitSet256::new();
    for i in [0usize, 63, 64, 127, 128, 191, 192, 255] {
        assert!(s.insert(i));
        assert!(s.contains(i));
    }
    assert_eq!(s.len(), 8);
    assert_eq!(s.to_vec(), vec![0, 63, 64, 127, 128, 191, 192, 255]);
}

#[test]
#[should_panic]
fn insert_out_of_range_panics() {
    BitSet256::new().insert(256);
}

#[test]
fn contains_out_of_range_is_false() {
    assert!(!BitSet256::full(256).contains(1000));
}

#[test]
fn set_algebra() {
    let a: BitSet256 = [1, 2, 3].into_iter().collect();
    let b: BitSet256 = [3, 4].into_iter().collect();
    assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4]);
    assert_eq!(a.intersection(&b).to_vec(), vec![3]);
    assert_eq!(a.difference(&b).to_vec(), vec![1, 2]);
    assert!(!a.is_disjoint(&b));
    assert!(a.difference(&b).is_disjoint(&b));
    assert!(a.intersection(&b).is_subset(&a));
    assert!(a.intersection(&b).is_subset(&b));
    assert!(BitSet256::EMPTY.is_subset(&a));
}

#[test]
fn full_and_first() {
    let s = BitSet256::full(80);
    assert_eq!(s.len(), 80);
    assert_eq!(s.first(), Some(0));
    assert_eq!(BitSet256::EMPTY.first(), None);
    assert_eq!(BitSet256::singleton(79).first(), Some(79));
}

#[test]
fn iterator_matches_model() {
    let elems = [0usize, 7, 64, 65, 130, 255];
    let s: BitSet256 = elems.iter().copied().collect();
    let collected: Vec<usize> = s.iter().collect();
    assert_eq!(collected, elems);
    assert_eq!(s.iter().len(), elems.len());
}

#[test]
fn words_roundtrip() {
    let s: BitSet256 = [0usize, 63, 64, 200, 255].into_iter().collect();
    assert_eq!(BitSet256::from_words(s.to_words()), s);
    assert_eq!(BitSet256::from_words([0; 4]), BitSet256::EMPTY);
    assert_eq!(BitSet256::from_words([u64::MAX; 4]), BitSet256::full(256));
}

#[test]
fn in_place_ops_match_pure_ops() {
    let a: BitSet256 = [1, 5, 9].into_iter().collect();
    let b: BitSet256 = [5, 6].into_iter().collect();
    let mut u = a;
    u.union_with(&b);
    assert_eq!(u, a.union(&b));
    let mut d = a;
    d.difference_with(&b);
    assert_eq!(d, a.difference(&b));
}

#[test]
fn model_based_random_ops() {
    // Deterministic pseudo-random sequence; compares against HashSet.
    let mut seed = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut s = BitSet256::new();
    let mut model: HashSet<usize> = HashSet::new();
    for _ in 0..4000 {
        let v = (next() % 256) as usize;
        match next() % 3 {
            0 => {
                assert_eq!(s.insert(v), model.insert(v));
            }
            1 => {
                assert_eq!(s.remove(v), model.remove(&v));
            }
            _ => {
                assert_eq!(s.contains(v), model.contains(&v));
            }
        }
        assert_eq!(s.len(), model.len());
    }
    let mut got = s.to_vec();
    let mut want: Vec<usize> = model.into_iter().collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
}

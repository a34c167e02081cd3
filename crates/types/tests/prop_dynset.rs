//! Model-based properties: [`DynSet`] behaves exactly like a
//! `BTreeSet<usize>` on `0..100_000`, a universe whose sets reach all
//! three forms — the 256-bit bitmap, the sparse inline form of at most
//! eight elements, and heap chunks.
//!
//! Operands hold 0–12 elements, about half of them below 256, so every
//! form occurs; a few carry a run of whole words for the chunk merge.
//! Every operation and relation is checked in both operand orders across
//! every pair of forms the two operands can take, and every result must be
//! in the smallest form that holds it.  Random op sequences cross the
//! transitions in place (on this universe and on the bitmap's own
//! `0..256`), and equality and hashing must not see the form, through the
//! 8 → 9 → 8 element transitions too.

use mra_types::DynSet;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

const UNIVERSE: usize = 100_000;

/// Elements outside the universe, so never a model's: they force a form
/// and leave again.
const FILLER: usize = UNIVERSE;

/// One element of `0..hi`: past 256, below 256 and above it equally often.
fn elem(hi: usize) -> BoxedStrategy<usize> {
    if hi <= 256 {
        (0..hi).boxed()
    } else {
        prop_oneof![0usize..256, 256..hi].boxed()
    }
}

/// One operand: 0–12 elements (twice as likely), or a few plus a run that
/// fills whole words (a node's owned tokens).
fn operand() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        vec(elem(UNIVERSE), 0..13),
        vec(elem(UNIVERSE), 0..13),
        (vec(elem(UNIVERSE), 0..4), 0usize..99_000, 0usize..700).prop_map(|(mut es, lo, len)| {
            es.extend(lo..lo + len);
            es
        }),
    ]
}

fn model(es: &[usize]) -> BTreeSet<usize> {
    es.iter().copied().collect()
}

fn hash_of(s: &DynSet) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Does the smallest form that holds `m` live inline?  The bitmap holds
/// anything below 256, the sparse form any eight elements.
fn fits_inline(m: &BTreeSet<usize>) -> bool {
    m.last().map_or(true, |&hi| hi < 256) || m.len() <= 8
}

/// The set `m` in every form it can take, each built through the public
/// API: the bitmap (every element below 256), the sparse form (at most
/// eight elements) and chunks (any set).
fn forms(m: &BTreeSet<usize>) -> Vec<DynSet> {
    let mut out = Vec::new();
    if m.last().map_or(true, |&hi| hi < 256) {
        out.push(m.iter().copied().collect());
    }
    if m.len() <= 8 {
        // Sparse from one filler element, which leaves before the eighth
        // of `m` arrives.
        let mut s = DynSet::singleton(FILLER);
        for (k, &e) in m.iter().enumerate() {
            if k == 7 {
                s.remove(FILLER);
            }
            s.insert(e);
        }
        s.remove(FILLER);
        assert!(s.is_inline());
        out.push(s);
    }
    // Ten fillers make chunks; removing them keeps the form.
    let mut s: DynSet = m.iter().copied().chain(FILLER..FILLER + 10).collect();
    for f in FILLER..FILLER + 10 {
        s.remove(f);
    }
    assert!(!s.is_inline());
    out.push(s);
    out
}

/// `m` as little-endian words, trailing zero words trimmed.
fn words_of(m: &BTreeSet<usize>) -> Vec<u64> {
    let mut words = vec![0u64; m.last().map_or(0, |&hi| hi / 64 + 1)];
    for &e in m {
        words[e / 64] |= 1 << (e % 64);
    }
    words
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
    // `all` visits the elements in order, in place, up to the first that
    // fails.
    let mut seen = Vec::new();
    prop_assert!(d.all(|e| {
        seen.push(e);
        true
    }));
    prop_assert!(seen.iter().eq(m.iter()));
    if let Some(&stop) = m.iter().nth(m.len() / 2) {
        seen.clear();
        prop_assert!(!d.all(|e| {
            seen.push(e);
            e != stop
        }));
        prop_assert_eq!(seen.last(), Some(&stop));
        prop_assert_eq!(seen.len(), m.len() / 2 + 1);
    }
    prop_assert_eq!(d.iter().len(), m.len());
    let mut rest = d.iter();
    rest.next();
    prop_assert_eq!(rest.len(), m.len().saturating_sub(1));
    for &e in m.iter().take(12) {
        prop_assert!(d.contains(e) && !d.contains(e + UNIVERSE));
        prop_assert_eq!(d.contains(e + 1), m.contains(&(e + 1)));
    }
    // Inserted in increasing order, the bitmap takes every element below
    // 256 and turns sparse at the first past it only while it holds fewer
    // than eight: the twin lands in its smallest form.
    let twin: DynSet = m.iter().copied().collect();
    prop_assert_eq!(twin.is_inline(), fits_inline(m));
    prop_assert_eq!(d, &twin);
    prop_assert_eq!(hash_of(d), hash_of(&twin));
    prop_assert_eq!(d.to_words(), words_of(m));
    let back = DynSet::from_words(&d.to_words());
    prop_assert_eq!(&back, d);
    prop_assert_eq!(back.is_inline(), fits_inline(m));
    Ok(())
}

/// [`agrees`], and in the smallest form that holds `m`: what a binary
/// operation must return.
fn result(d: &DynSet, m: &BTreeSet<usize>) -> Result<(), TestCaseError> {
    agrees(d, m)?;
    prop_assert_eq!(d.is_inline(), fits_inline(m), "{:?} in the wrong form", d);
    Ok(())
}

/// What an in-place operation on `before` must leave: a chunk vector stays
/// one, an inline set takes the result's smallest form.
fn in_place(before: &DynSet, d: &DynSet, m: &BTreeSet<usize>) -> Result<(), TestCaseError> {
    agrees(d, m)?;
    prop_assert_eq!(d.is_inline(), before.is_inline() && fits_inline(m));
    Ok(())
}

proptest! {
    // Each case checks up to nine pairs of forms by every observer: fewer,
    // heavier cases.
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every operation and relation, both operand orders, every pair of
    /// forms, against `BTreeSet`; plus the algebra's laws.
    #[test]
    fn algebra_matches_btreeset_across_every_pair_of_forms(a in operand(), b in operand()) {
        let (ma, mb) = (model(&a), model(&b));
        for da in forms(&ma) {
            agrees(&da, &ma)?;
            for db in forms(&mb) {
                result(&da.union(&db), &(&ma | &mb))?;
                result(&db.union(&da), &(&ma | &mb))?;
                result(&da.intersection(&db), &(&ma & &mb))?;
                result(&db.intersection(&da), &(&ma & &mb))?;
                result(&da.difference(&db), &(&ma - &mb))?;
                result(&db.difference(&da), &(&mb - &ma))?;
                for (x, y, mx, my) in [(&da, &db, &ma, &mb), (&db, &da, &mb, &ma)] {
                    let mut u = x.clone();
                    u.union_with(y);
                    in_place(x, &u, &(mx | my))?;
                    let mut d = x.clone();
                    d.difference_with(y);
                    in_place(x, &d, &(mx - my))?;
                    prop_assert_eq!(x.is_subset(y), mx.is_subset(my));
                    prop_assert_eq!(x.is_disjoint(y), mx.is_disjoint(my));
                    prop_assert_eq!(x == y, mx == my);
                }
                // Laws: (a ∪ b) \ b ⊆ a, a ∩ b ⊆ a ⊆ a ∪ b, disjoint iff
                // the intersection is empty, ⊆ antisymmetric.
                prop_assert!(da.union(&db).difference(&db).is_subset(&da));
                prop_assert!(da.intersection(&db).is_subset(&da));
                prop_assert!(da.is_subset(&da.union(&db)));
                prop_assert_eq!(da.is_disjoint(&db), da.intersection(&db).is_empty());
                if da.is_subset(&db) && db.is_subset(&da) {
                    prop_assert_eq!(&da, &db);
                }
            }
            prop_assert!(da.is_subset(&da));
        }
    }

    /// Point operations from every form: grow by `extra` (crossing into
    /// the sparse form and chunks), then shrink back.
    #[test]
    fn insert_and_remove_from_every_form(a in operand(), extra in vec(elem(UNIVERSE), 0..13)) {
        let ma = model(&a);
        for mut d in forms(&ma) {
            let mut m = ma.clone();
            for &e in &extra {
                prop_assert_eq!(d.insert(e), m.insert(e));
                prop_assert!(d.contains(e));
                agrees(&d, &m)?;
            }
            for &e in &extra {
                if !ma.contains(&e) {
                    prop_assert_eq!(d.remove(e), m.remove(&e));
                    prop_assert!(!d.contains(e));
                    agrees(&d, &m)?;
                }
            }
            agrees(&d, &ma)?;
        }
    }

    /// Equality and hashing do not see the form: every form of a set
    /// equals, and hashes like, every other.
    #[test]
    fn eq_and_hash_agree_across_forms(a in operand(), b in operand()) {
        let (ma, mb) = (model(&a), model(&b));
        for x in forms(&ma) {
            for y in forms(&ma) {
                prop_assert_eq!(&x, &y);
                prop_assert_eq!(hash_of(&x), hash_of(&y));
            }
            for y in forms(&mb) {
                prop_assert_eq!(x == y, ma == mb);
            }
        }
    }

    /// 8 → 9 → 8: a set of eight takes a ninth element — staying inline
    /// only as a bitmap — and, the ninth removed again, keeps its form yet
    /// equals and hashes like its twins in every other form.
    #[test]
    fn eight_to_nine_to_eight_elements(es in vec(elem(UNIVERSE), 12..13), ninth in elem(UNIVERSE)) {
        let eight: BTreeSet<usize> = model(&es).into_iter().take(8).collect();
        if eight.len() < 8 || eight.contains(&ninth) {
            return Ok(());
        }
        let mut nine = eight.clone();
        nine.insert(ninth);
        // Bitmap, sparse and chunks if all eight are below 256, else the
        // last two.
        let twins = forms(&eight);
        for (k, mut d) in twins.clone().into_iter().enumerate() {
            let bitmap = k == 0 && twins.len() == 3;
            prop_assert!(d.insert(ninth));
            agrees(&d, &nine)?;
            let stays = bitmap && nine.last().is_some_and(|&hi| hi < 256);
            prop_assert_eq!(d.is_inline(), stays);
            prop_assert!(d.remove(ninth));
            agrees(&d, &eight)?;
            prop_assert_eq!(d.is_inline(), stays);
            for t in &twins {
                prop_assert_eq!(&d, t);
                prop_assert_eq!(hash_of(&d), hash_of(t));
            }
        }
    }
}

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

fn op(hi: usize) -> impl Strategy<Value = Op> {
    let elems = move || vec(elem(hi), 0..13);
    // The vendored proptest's `prop_oneof!` is unweighted; repeating the
    // insert/remove arms biases sequences toward populated sets.
    prop_oneof![
        elem(hi).prop_map(Op::Insert),
        elem(hi).prop_map(Op::Insert),
        elem(hi).prop_map(Op::Insert),
        elem(hi).prop_map(Op::Remove),
        elem(hi).prop_map(Op::Remove),
        elems().prop_map(Op::UnionWith),
        elems().prop_map(Op::DifferenceWith),
        elems().prop_map(Op::IntersectWith),
        Just(Op::Clear),
        Just(Op::WordsRoundTrip),
    ]
}

/// Run `ops` on a `DynSet` and on the model side by side; they must agree
/// after every op, and fully at the end.
fn run_ops(ops: &[Op]) -> Result<(DynSet, BTreeSet<usize>), TestCaseError> {
    let mut d = DynSet::new();
    let mut m = BTreeSet::new();
    for o in ops {
        match o {
            Op::Insert(i) => prop_assert_eq!(d.insert(*i), m.insert(*i)),
            Op::Remove(i) => prop_assert_eq!(d.remove(*i), m.remove(i)),
            Op::UnionWith(es) => {
                d.union_with(&es.iter().copied().collect());
                m.extend(es);
            }
            Op::DifferenceWith(es) => {
                d.difference_with(&es.iter().copied().collect());
                m = &m - &model(es);
            }
            Op::IntersectWith(es) => {
                d = d.intersection(&es.iter().copied().collect());
                m = &m & &model(es);
            }
            Op::Clear => {
                d.clear();
                m.clear();
            }
            Op::WordsRoundTrip => d = DynSet::from_words(&d.to_words()),
        }
        prop_assert_eq!(d.len(), m.len());
        prop_assert_eq!(d.is_empty(), m.is_empty());
        prop_assert_eq!(d.first(), m.first().copied());
        prop_assert_eq!(d.last(), m.last().copied());
    }
    agrees(&d, &m)?;
    Ok((d, m))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sequences on the whole universe move a set through all three forms
    /// in place.
    #[test]
    fn op_sequences_match_btreeset(ops in vec(op(UNIVERSE), 0..80)) {
        run_ops(&ops)?;
    }

    /// Sequences on the bitmap's own `0..256`: every element is checked.
    #[test]
    fn op_sequences_below_256_match_btreeset(ops in vec(op(256), 0..80)) {
        let (d, m) = run_ops(&ops)?;
        for e in 0..256 {
            prop_assert_eq!(d.contains(e), m.contains(&e));
        }
    }
}

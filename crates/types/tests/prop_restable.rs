//! `ResTable` against a model, and the two properties its hash owes
//! hashbrown.
//!
//! The sparse table (universe `0..100_000`) runs random scripts of `get`,
//! `get_mut`, `get_or` and `set` against a `BTreeMap`, on random ids and on
//! strided ones (multiples of 2¹², 2¹⁶ and 99 991 — the ids a weak hash
//! piles into one bucket).  Ops on ids below 4 096 also run on a dense twin
//! (`m = 4096`), which must answer the same once "absent" is read as the
//! entry's initial value — the contract the protocol crates rely on.

use mra_types::{IdHasher, ResTable, DENSE_TABLE_MAX};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault};

const UNIVERSE: usize = 100_000;

/// The value an entry starts from (id-dependent, so a wrong slot shows).
fn initial(r: usize) -> u64 {
    3 * r as u64 + 1
}

#[derive(Clone, Debug)]
enum Op {
    Get(usize),
    /// XOR the entry with the operand unless it still holds its initial
    /// value: `get_mut` callers treat an untouched entry as nothing to do,
    /// which is what makes a dense table and a sparse one interchangeable.
    GetMut(usize, u64),
    /// Add the operand, materializing the entry first if absent.
    GetOr(usize, u64),
    Set(usize, u64),
}

impl Op {
    fn id(&self) -> usize {
        match *self {
            Op::Get(r) | Op::GetMut(r, _) | Op::GetOr(r, _) | Op::Set(r, _) => r,
        }
    }
}

fn id() -> impl Strategy<Value = usize> {
    prop_oneof![
        0..UNIVERSE,
        0..UNIVERSE,
        0..DENSE_TABLE_MAX,
        (0usize..25).prop_map(|i| i << 12),
        (0usize..2).prop_map(|i| i << 16),
        (0usize..2).prop_map(|i| i * 99_991),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        id().prop_map(Op::Get),
        (id(), 1u64..1 << 20).prop_map(|(r, x)| Op::GetMut(r, x)),
        (id(), 0u64..1 << 20).prop_map(|(r, x)| Op::GetOr(r, x)),
        (id(), 0u64..1 << 20).prop_map(|(r, x)| Op::Set(r, x)),
    ]
}

/// Run `op` on `t`: the value it observed (`None` = absent) and whether
/// `get_or` had to build the entry.
fn apply(t: &mut ResTable<u64>, op: &Op) -> (Option<u64>, bool) {
    match *op {
        Op::Get(r) => (t.get(r).copied(), false),
        Op::GetMut(r, x) => {
            let seen = t.get_mut(r).map(|v| {
                if *v != initial(r) {
                    *v ^= x;
                }
                *v
            });
            (seen, false)
        }
        Op::GetOr(r, x) => {
            let built = Cell::new(false);
            let v = t.get_or(r, |r| {
                built.set(true);
                initial(r)
            });
            *v = v.wrapping_add(x);
            (Some(*v), built.get())
        }
        Op::Set(r, x) => {
            t.set(r, x);
            (t.get(r).copied(), false)
        }
    }
}

/// The same op on the model.
fn apply_model(m: &mut BTreeMap<usize, u64>, op: &Op) -> Option<u64> {
    match *op {
        Op::Get(r) => m.get(&r).copied(),
        Op::GetMut(r, x) => m.get_mut(&r).map(|v| {
            if *v != initial(r) {
                *v ^= x;
            }
            *v
        }),
        Op::GetOr(r, x) => {
            let v = m.entry(r).or_insert_with(|| initial(r));
            *v = v.wrapping_add(x);
            Some(*v)
        }
        Op::Set(r, x) => {
            m.insert(r, x);
            Some(x)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn restable_matches_btreemap_and_its_dense_twin(ops in proptest::collection::vec(op(), 0..200)) {
        let mut sparse: ResTable<u64> =
            ResTable::new_with(UNIVERSE, |_| panic!("a sparse table builds nothing eagerly"));
        let mut dense: ResTable<u64> = ResTable::new_with(DENSE_TABLE_MAX, initial);
        prop_assert!(!sparse.is_dense() && dense.is_dense());
        let mut model = BTreeMap::new();
        for op in &ops {
            let r = op.id();
            let was_absent = !model.contains_key(&r);
            let (seen, built) = apply(&mut sparse, op);
            prop_assert_eq!(seen, apply_model(&mut model, op), "{:?}", op);
            prop_assert_eq!(built, was_absent && matches!(op, Op::GetOr(..)), "{:?}", op);
            prop_assert_eq!(sparse.materialized(), model.len());
            if r < DENSE_TABLE_MAX {
                let (twin, twin_built) = apply(&mut dense, op);
                prop_assert!(!twin_built, "a dense entry always exists");
                prop_assert_eq!(twin, Some(seen.unwrap_or(initial(r))), "{:?}", op);
                prop_assert_eq!(dense.materialized(), DENSE_TABLE_MAX);
            }
        }
        for (&r, &v) in &model {
            prop_assert_eq!(sparse.get(r), Some(&v));
            if r < DENSE_TABLE_MAX {
                prop_assert_eq!(dense.get(r), Some(&v));
            }
        }
    }
}

/// What hashbrown makes of 4 096 ids `i · 2^k` under `hash`: buckets hit
/// in a 4 096-bucket table (the low 12 bits), the fullest bucket's load,
/// and distinct control-byte tags (the top 7 bits).
fn spread(hash: impl Fn(usize) -> u64, k: u32) -> (usize, usize, usize) {
    let mut load = vec![0usize; 4096];
    let mut tags = HashSet::new();
    for i in 0..4096usize {
        let h = hash(i << k);
        load[(h & 4095) as usize] += 1;
        tags.insert(h >> 57);
    }
    let buckets = load.iter().filter(|&&n| n > 0).count();
    (buckets, load.into_iter().max().unwrap_or(0), tags.len())
}

/// Both properties, on every stride.  A uniformly random hash would fill
/// ≈ 2 590 buckets with ≈ 7 ids in the fullest; the multiplicative hash
/// spreads consecutive multiples more evenly than that (no bucket above 4),
/// and without its finishing rotation puts every multiple of 2¹² in
/// bucket 0.
fn spreads_well(hash: impl Fn(usize) -> u64) -> bool {
    [0, 6, 12, 16].into_iter().all(|k| {
        let (buckets, fullest, tags) = spread(&hash, k);
        buckets >= 2048 && fullest <= 4 && tags >= 100
    })
}

#[test]
fn id_hasher_spreads_strided_ids_over_buckets_and_tags() {
    let build = BuildHasherDefault::<IdHasher>::default();
    for k in [0, 6, 12, 16] {
        let (buckets, fullest, tags) = spread(|x| build.hash_one(x), k);
        println!("stride 2^{k}: {buckets} buckets hit, fullest holds {fullest}, {tags} tags");
    }
    assert!(spreads_well(|x| build.hash_one(x)));
    // Lane ids are `u32`s: same hash through `write_u32`.
    assert!(spreads_well(|x| build.hash_one(x as u32)));
    // The test has teeth: an identity hash, a rotation, and the multiply
    // without its finishing rotation all fail it.
    assert!(!spreads_well(|x| x as u64));
    assert!(!spreads_well(|x| (x as u64).rotate_left(26)));
    assert!(!spreads_well(|x| (x as u64).rotate_right(6)));
    let fx_alone = |x: usize| (x as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    assert!(!spreads_well(fx_alone));
}

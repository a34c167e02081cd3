//! Run digests pinned **across commits**.
//!
//! Every other determinism test compares two runs of the same build
//! (threads 1 vs 4, seed vs seed); a change that shifts a
//! schedule consistently passes all of them.  The literals below were
//! recorded at commit `89dbcc0` (the parent of the allocation-free LASS
//! step) and say what "bit-identical to the simulator before" means: same
//! counters, same per-kind message counts, every request issued, granted
//! and released at the same nanosecond.
//!
//! A PR that changes protocol behaviour on purpose re-records them (run
//! with `--nocapture`: a mismatch prints the whole table in source form)
//! and says so; a PR that claims to be behaviour-preserving must not.

use mra_sim::RunResult;
use mra_workloads::{run, Algorithm, Load, Scenario};

/// The `sim_scale.rs` digest, extended with the per-kind message counts:
/// an order-sensitive FNV-1a fold over the aggregate counters and the
/// canonical per-request records.
fn digest(r: &RunResult) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(FNV_PRIME);
    };
    fold(r.cs_completed);
    fold(r.censored);
    fold(r.events_processed);
    fold(r.msgs_total);
    fold(r.msg_weight);
    for (kind, count) in &r.msg_by_kind {
        kind.bytes().for_each(|b| fold(b as u64));
        fold(*count);
    }
    for rec in &r.records {
        fold(rec.node as u64);
        fold(rec.size as u64);
        fold(rec.issued.as_nanos());
        fold(rec.granted.map_or(u64::MAX, |t| t.as_nanos()));
        fold(rec.released.map_or(u64::MAX, |t| t.as_nanos()));
    }
    h
}

/// The paper's shape (32 × 80, φ = 16, high load) over 20 simulated
/// seconds.
fn paper(seed: u64) -> Scenario {
    let mut sc = Scenario::paper(Load::High, 16, seed);
    sc.measure = mra_types::Time::from_secs(20);
    sc
}

/// A shape whose sets leave `DynSet`'s inline range: 300 nodes (visited
/// sets past bit 255), 3 000 resources (request and loan sets on the heap).
fn heap_sets() -> Scenario {
    Scenario::large(300, 3_000, 7)
}

type Row<const K: usize> = [(Algorithm, u64); K];

/// Run every algorithm of `want` on `sc` and digest the results.
fn digests<const K: usize>(sc: &Scenario, want: &Row<K>) -> Row<K> {
    want.map(|(algo, _)| {
        let res = run(algo, sc);
        assert!(res.cs_completed > 0, "{algo:?} did no work (seed {})", sc.seed);
        (algo, digest(&res))
    })
}

/// Print `got` in source form (what the pinned table would have to read).
fn print_row<const K: usize>(label: &str, got: &Row<K>) {
    println!("    // {label}");
    for (algo, d) in got {
        println!("        (Algorithm::{algo:?}, {d:#018x}),");
    }
}

const PAPER: [(u64, Row<6>); 3] = [
    (
        1,
        [
            (Algorithm::Incremental, 0xfd71_d30c_c047_6ae2),
            (Algorithm::BouabdallahLaforest, 0x8ee3_0e61_0007_4b1a),
            (Algorithm::LassNoLoan, 0x7368_1915_bb01_6ed9),
            (Algorithm::LassLoan, 0xf9ed_db4b_bf3b_d0f5),
            (Algorithm::Central, 0x71b8_1aee_ca6e_3c51),
            (Algorithm::Maddi, 0x1aa2_44c5_f1e7_3134),
        ],
    ),
    (
        2,
        [
            (Algorithm::Incremental, 0x9347_6354_7f47_7765),
            (Algorithm::BouabdallahLaforest, 0x5ffd_6d53_c453_4d7a),
            (Algorithm::LassNoLoan, 0xe4ce_4728_5d9c_833b),
            (Algorithm::LassLoan, 0x8894_6ca0_b984_d027),
            (Algorithm::Central, 0xff1e_ba73_824b_aa9f),
            (Algorithm::Maddi, 0xc179_997c_fe63_bc6b),
        ],
    ),
    (
        3,
        [
            (Algorithm::Incremental, 0x6945_1793_4bed_589b),
            (Algorithm::BouabdallahLaforest, 0x03e1_3936_7b21_7a2f),
            (Algorithm::LassNoLoan, 0xda40_f460_744d_946d),
            (Algorithm::LassLoan, 0xf042_377a_1c71_c2f5),
            (Algorithm::Central, 0xa5fe_8000_c433_62a7),
            (Algorithm::Maddi, 0x7fc7_c930_aef6_eefb),
        ],
    ),
];

const HEAP_SETS: Row<2> = [
    (Algorithm::LassNoLoan, 0xff41_78b0_18a0_3f95),
    (Algorithm::LassLoan, 0xd4bc_768b_ffcd_499b),
];

#[test]
fn all_six_families_on_the_paper_shape_match_the_pinned_digests() {
    assert_eq!(PAPER.map(|(_, row)| row.map(|(a, _)| a)), [Algorithm::fault_set(); 3]);
    let got = PAPER.map(|(seed, want)| (seed, digests(&paper(seed), &want)));
    if got != PAPER {
        for (seed, row) in &got {
            print_row(&format!("seed {seed}"), row);
        }
        panic!("paper shape: run digests differ from the pinned literals (see stdout)");
    }
}

#[test]
fn lass_on_the_heap_set_shape_matches_the_pinned_digests() {
    let got = digests(&heap_sets(), &HEAP_SETS);
    if got != HEAP_SETS {
        print_row("heap-set shape", &got);
        panic!("heap-set shape: run digests differ from the pinned literals (see stdout)");
    }
}

//! Randomized-interleaving safety and liveness tests for LASS.
//!
//! These run the full protocol over `VirtualNet`, which delivers messages in
//! a seeded random order (per-link FIFO), panics on any mutual-exclusion
//! violation and detects deadlocks.  Together with the step cap they check
//! the paper's three properties: safety (theorem 1), liveness (theorem 3)
//! and the concurrency property (non-conflicting requests overlap).

use mra_core::{Lass, LassConfig, SchedulingPolicy};
use mra_protocol::testkit::{run_random_workload, ExerciseCfg, VirtualNet};
use mra_types::ResourceSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn net_for(cfg: LassConfig) -> VirtualNet<Lass> {
    VirtualNet::new(cfg.build_nodes(), cfg.m)
}

fn exercise(cfg: LassConfig, seed: u64, rounds: usize, phi: usize) -> VirtualNet<Lass> {
    let mut net = net_for(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let ex = ExerciseCfg {
        rounds_per_node: rounds,
        max_req_size: phi,
        m: cfg.m,
        hold_steps: 3,
        active_nodes: None,
        step_cap: 3_000_000,
    };
    let rep = run_random_workload(&mut net, &ex, &mut rng);
    assert_eq!(rep.cs_completed as usize, rounds * cfg.n, "seed {seed}");
    net
}

/// After quiescence every token must exist exactly once (lemmas 1–3).
fn assert_token_uniqueness(net: &VirtualNet<Lass>, n: usize, m: usize) {
    assert_eq!(net.in_flight(), 0);
    let mut union = ResourceSet::new();
    let mut total = 0;
    for i in 0..n {
        let owned = net.node(i).owned();
        assert!(
            union.is_disjoint(&owned),
            "resource owned twice: {:?} vs node {i} {:?}",
            union,
            owned
        );
        union.union_with(&owned);
        total += owned.len();
    }
    assert_eq!(total, m, "token lost or duplicated");
    assert_eq!(union, ResourceSet::full(m));
}

#[test]
fn without_loan_random_runs_are_safe_and_live() {
    for seed in 0..15 {
        let cfg = LassConfig::without_loan(5, 8);
        let net = exercise(cfg, seed, 6, 4);
        assert_token_uniqueness(&net, 5, 8);
    }
}

#[test]
fn with_loan_random_runs_are_safe_and_live() {
    for seed in 0..15 {
        let cfg = LassConfig::with_loan(5, 8);
        let net = exercise(cfg, 1000 + seed, 6, 4);
        assert_token_uniqueness(&net, 5, 8);
    }
}

#[test]
fn large_loan_threshold_is_safe() {
    for seed in 0..6 {
        let mut cfg = LassConfig::with_loan(4, 6);
        cfg.loan = Some(3);
        let net = exercise(cfg, 2000 + seed, 5, 4);
        assert_token_uniqueness(&net, 4, 6);
    }
}

#[test]
fn optimizations_off_still_correct() {
    for seed in 0..6 {
        let mut cfg = LassConfig::without_loan(4, 6);
        cfg.opt_single_resource = false;
        cfg.opt_stop_forwarding = false;
        cfg.opt_shortcut_on_counter = false;
        let net = exercise(cfg, 3000 + seed, 5, 3);
        assert_token_uniqueness(&net, 4, 6);
    }
}

#[test]
fn each_optimization_alone_is_correct() {
    for (bit, seed0) in [(0, 4000u64), (1, 5000), (2, 6000)] {
        for seed in 0..4 {
            let mut cfg = LassConfig::with_loan(4, 6);
            cfg.opt_single_resource = bit == 0;
            cfg.opt_stop_forwarding = bit == 1;
            cfg.opt_shortcut_on_counter = bit == 2;
            let net = exercise(cfg, seed0 + seed, 4, 3);
            assert_token_uniqueness(&net, 4, 6);
        }
    }
}

#[test]
fn all_policies_are_safe_and_live() {
    for (pi, policy) in SchedulingPolicy::all().into_iter().enumerate() {
        for seed in 0..4 {
            let mut cfg = LassConfig::with_loan(4, 6);
            cfg.policy = policy;
            let net = exercise(cfg, 7000 + 10 * pi as u64 + seed, 4, 3);
            assert_token_uniqueness(&net, 4, 6);
        }
    }
}

#[test]
fn full_contention_single_resource() {
    // Everyone fights for the same resource: degenerates to mutual
    // exclusion; exercises the single-resource optimization heavily.
    for seed in 0..8 {
        let cfg = LassConfig::with_loan(6, 1);
        let net = exercise(cfg, 8000 + seed, 6, 1);
        assert_token_uniqueness(&net, 6, 1);
    }
}

#[test]
fn whole_set_requests_serialize() {
    // Every request asks for all resources: zero concurrency possible,
    // heavy queue churn.
    for seed in 0..6 {
        let cfg = LassConfig::with_loan(4, 5);
        let mut net = net_for(cfg);
        let mut rng = StdRng::seed_from_u64(9000 + seed);
        let ex = ExerciseCfg {
            rounds_per_node: 5,
            max_req_size: 5,
            m: 5,
            hold_steps: 2,
            active_nodes: None,
            step_cap: 3_000_000,
        };
        let rep = run_random_workload(&mut net, &ex, &mut rng);
        assert_eq!(rep.cs_completed, 20);
        assert_token_uniqueness(&net, 4, 5);
    }
}

#[test]
fn concurrency_property_is_exploited() {
    // Plenty of resources, small requests: disjoint requests must overlap
    // at least sometimes across seeds.
    let mut saw_overlap = false;
    for seed in 0..10 {
        let cfg = LassConfig::without_loan(6, 24);
        let mut net = net_for(cfg);
        let mut rng = StdRng::seed_from_u64(10_000 + seed);
        let ex = ExerciseCfg {
            rounds_per_node: 5,
            max_req_size: 2,
            m: 24,
            hold_steps: 6,
            active_nodes: None,
            step_cap: 3_000_000,
        };
        let rep = run_random_workload(&mut net, &ex, &mut rng);
        if rep.max_concurrency >= 2 {
            saw_overlap = true;
        }
    }
    assert!(
        saw_overlap,
        "non-conflicting requests never overlapped — concurrency property broken"
    );
}

#[test]
fn bigger_system_stress() {
    // One heavier configuration closer to the paper's shape (scaled down).
    let cfg = LassConfig::with_loan(8, 16);
    let net = exercise(cfg, 424242, 8, 6);
    assert_token_uniqueness(&net, 8, 16);
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| -> (u64, u64) {
        let cfg = LassConfig::with_loan(5, 8);
        let mut net = net_for(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let ex = ExerciseCfg {
            rounds_per_node: 5,
            max_req_size: 4,
            m: 8,
            hold_steps: 3,
            active_nodes: None,
            step_cap: 3_000_000,
        };
        let rep = run_random_workload(&mut net, &ex, &mut rng);
        (rep.actions, rep.delivered)
    };
    assert_eq!(run(77), run(77), "same seed must give identical runs");
}

/// The merged harness with no plan is the old perfect-link harness: same
/// RNG draws in the same order, hence the same schedule.  The literals
/// are `(actions, delivered, cs_completed, max_concurrency)` of
/// `run_random_workload` at the commit before the merge, seeds 0..32.
#[test]
fn merged_harness_reproduces_the_perfect_link_schedule() {
    const BEFORE: [(u64, u64, u64, usize); 32] = [
        (424, 274, 30, 2),
        (450, 300, 30, 2),
        (423, 273, 30, 2),
        (374, 224, 30, 3),
        (411, 261, 30, 3),
        (408, 258, 30, 4),
        (375, 225, 30, 3),
        (460, 310, 30, 3),
        (404, 254, 30, 3),
        (400, 250, 30, 3),
        (410, 260, 30, 3),
        (355, 205, 30, 3),
        (418, 268, 30, 3),
        (395, 245, 30, 3),
        (403, 253, 30, 3),
        (418, 268, 30, 3),
        (406, 256, 30, 3),
        (366, 216, 30, 3),
        (420, 270, 30, 2),
        (431, 281, 30, 2),
        (405, 255, 30, 3),
        (456, 306, 30, 3),
        (411, 261, 30, 3),
        (385, 235, 30, 3),
        (367, 217, 30, 3),
        (413, 263, 30, 2),
        (384, 234, 30, 2),
        (394, 244, 30, 3),
        (389, 239, 30, 3),
        (331, 181, 30, 3),
        (356, 206, 30, 4),
        (440, 290, 30, 3),
    ];
    for (seed, want) in BEFORE.iter().enumerate() {
        let cfg = LassConfig::with_loan(5, 8);
        let mut net = net_for(cfg);
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let ex = ExerciseCfg {
            rounds_per_node: 6,
            max_req_size: 4,
            m: cfg.m,
            hold_steps: 3,
            active_nodes: None,
            step_cap: 3_000_000,
        };
        let r = run_random_workload(&mut net, &ex, &mut rng);
        let got = (r.actions, r.delivered, r.cs_completed, r.max_concurrency);
        assert_eq!(got, *want, "seed {seed}");
        assert!(r.starved.is_empty());
    }
}

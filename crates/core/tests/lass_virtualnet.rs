//! Randomized-interleaving safety and liveness tests for LASS.
//!
//! These run the full protocol over `VirtualNet`, which delivers messages in
//! the order a seeded `Schedule` picks (per-link FIFO), panics on any
//! mutual-exclusion violation and detects deadlocks.  Together with the
//! step cap they check the paper's three properties: safety (theorem 1),
//! liveness (theorem 3) and the concurrency property (non-conflicting
//! requests overlap).

use mra_baselines::BouabdallahLaforest;
use mra_core::{Lass, LassConfig, SchedulingPolicy};
use mra_protocol::faults::FaultPlan;
use mra_protocol::reliable::Reliability;
use mra_protocol::testkit::{
    check_schedules, run_random_workload, ExerciseCfg, Schedule, VirtualNet,
};
use mra_protocol::Allocator;
use mra_types::ResourceSet;
use std::ops::Range;

fn net_for(cfg: LassConfig) -> VirtualNet<Lass> {
    VirtualNet::new(cfg.build_nodes(), cfg.m)
}

/// Every seed's run completes (the harness asserts it) and leaves each
/// token in exactly one place.
fn exercise(cfg: LassConfig, seeds: Range<u64>, rounds: usize, phi: usize) {
    let ex = ExerciseCfg {
        rounds_per_node: rounds,
        max_req_size: phi,
        m: cfg.m,
        hold_steps: 3,
        active_nodes: None,
        step_cap: 3_000_000,
    };
    check_schedules(&net_for(cfg), &ex, seeds, |net, _| {
        assert_token_uniqueness(net, cfg.n, cfg.m)
    });
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
    exercise(LassConfig::without_loan(5, 8), 0..15, 6, 4);
}

#[test]
fn with_loan_random_runs_are_safe_and_live() {
    exercise(LassConfig::with_loan(5, 8), 1000..1015, 6, 4);
}

#[test]
fn large_loan_threshold_is_safe() {
    let mut cfg = LassConfig::with_loan(4, 6);
    cfg.loan = Some(3);
    exercise(cfg, 2000..2006, 5, 4);
}

#[test]
fn optimizations_off_still_correct() {
    let mut cfg = LassConfig::without_loan(4, 6);
    cfg.opt_single_resource = false;
    cfg.opt_stop_forwarding = false;
    cfg.opt_shortcut_on_counter = false;
    exercise(cfg, 3000..3006, 5, 3);
}

#[test]
fn each_optimization_alone_is_correct() {
    for (bit, seed0) in [(0, 4000u64), (1, 5000), (2, 6000)] {
        let mut cfg = LassConfig::with_loan(4, 6);
        cfg.opt_single_resource = bit == 0;
        cfg.opt_stop_forwarding = bit == 1;
        cfg.opt_shortcut_on_counter = bit == 2;
        exercise(cfg, seed0..seed0 + 4, 4, 3);
    }
}

#[test]
fn all_policies_are_safe_and_live() {
    for (pi, policy) in SchedulingPolicy::all().into_iter().enumerate() {
        let mut cfg = LassConfig::with_loan(4, 6);
        cfg.policy = policy;
        let seed0 = 7000 + 10 * pi as u64;
        exercise(cfg, seed0..seed0 + 4, 4, 3);
    }
}

#[test]
fn full_contention_single_resource() {
    // Everyone fights for the same resource: degenerates to mutual
    // exclusion; exercises the single-resource optimization heavily.
    exercise(LassConfig::with_loan(6, 1), 8000..8008, 6, 1);
}

#[test]
fn whole_set_requests_serialize() {
    // Every request asks for all resources: zero concurrency possible,
    // heavy queue churn.
    let ex = ExerciseCfg {
        rounds_per_node: 5,
        max_req_size: 5,
        m: 5,
        hold_steps: 2,
        active_nodes: None,
        step_cap: 3_000_000,
    };
    check_schedules(&net_for(LassConfig::with_loan(4, 5)), &ex, 9000..9006, |net, _| {
        assert_token_uniqueness(net, 4, 5)
    });
}

#[test]
fn concurrency_property_is_exploited() {
    // Plenty of resources, small requests: disjoint requests must overlap
    // at least sometimes across seeds.
    let ex = ExerciseCfg {
        rounds_per_node: 5,
        max_req_size: 2,
        m: 24,
        hold_steps: 6,
        active_nodes: None,
        step_cap: 3_000_000,
    };
    let mut saw_overlap = false;
    check_schedules(&net_for(LassConfig::without_loan(6, 24)), &ex, 10_000..10_010, |_, rep| {
        saw_overlap |= rep.max_concurrency >= 2
    });
    assert!(
        saw_overlap,
        "non-conflicting requests never overlapped — concurrency property broken"
    );
}

#[test]
fn bigger_system_stress() {
    // One heavier configuration closer to the paper's shape (scaled down).
    exercise(LassConfig::with_loan(8, 16), 424242..424243, 8, 6);
}

/// Run `net` under the seeded schedule, then under the replay of the picks
/// it recorded: both runs must report alike and leave every node in the same
/// state, holding the same resources (`held`).  Returns the run's
/// `(actions, delivered)`.
fn replays_alike<A>(
    net: &VirtualNet<A>,
    seed: u64,
    held: impl Fn(&A) -> ResourceSet,
) -> (u64, u64)
where
    A: Allocator + Clone,
    A::Msg: Clone,
{
    let ex = ExerciseCfg {
        rounds_per_node: 5,
        max_req_size: 4,
        m: 8,
        hold_steps: 3,
        active_nodes: None,
        step_cap: 3_000_000,
    };
    let (mut seeded, mut replayed) = (net.clone(), net.clone());
    let mut schedule = Schedule::seeded(seed);
    let rep = run_random_workload(&mut seeded, &ex, &mut schedule);
    let replay = run_random_workload(&mut replayed, &ex, &mut Schedule::replay(schedule.picks()));
    assert_eq!(rep, replay, "the replay reports differently");
    for i in 0..net.len() {
        assert_eq!(
            (seeded.state(i), held(seeded.node(i))),
            (replayed.state(i), held(replayed.node(i))),
            "node {i} ends differently under the replay"
        );
    }
    (rep.actions, rep.delivered)
}

#[test]
fn deterministic_given_seed() {
    let lass = net_for(LassConfig::with_loan(5, 8));
    assert_eq!(
        replays_alike(&lass, 77, Lass::owned),
        replays_alike(&lass, 77, Lass::owned),
        "same seed must give identical runs"
    );
    let mut bl = VirtualNet::new(BouabdallahLaforest::build_nodes(5, 8), 8);
    bl.install_faults(&FaultPlan::new(77).drop_rate(0.20));
    bl.enable_reliability(Reliability::default());
    replays_alike(&bl, 77, BouabdallahLaforest::held);
}

/// The merged harness with no plan is the old perfect-link harness: same
/// draws in the same order, hence the same schedule.  The literals
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
        let mut schedule = Schedule::seeded(seed as u64);
        let ex = ExerciseCfg {
            rounds_per_node: 6,
            max_req_size: 4,
            m: cfg.m,
            hold_steps: 3,
            active_nodes: None,
            step_cap: 3_000_000,
        };
        let r = run_random_workload(&mut net, &ex, &mut schedule);
        let got = (r.actions, r.delivered, r.cs_completed, r.max_concurrency);
        assert_eq!(got, *want, "seed {seed}");
        assert!(r.starved.is_empty());
    }
}

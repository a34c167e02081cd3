//! Fault property-test matrix: every algorithm of the evaluation runs
//! random workloads under random **lossy and duplicating** fault plans
//! (drops up to 20%, duplicates up to 20% — no permanent partitions), and
//! the imperfect-network invariants must hold:
//!
//! * **safety** — the `SafetyMonitor` never fires (Theorem 1 must survive
//!   message loss: a lost message may starve a node, never double-grant);
//! * **conservation** — after quiescence no granted resource leaks: every
//!   CS entry was matched by an exit and the holder table is empty
//!   (asserted inside [`check_schedules`]' run of the workload);
//! * **fault-aware liveness** — starvation is tolerated *only* under a
//!   lossy plan; with drops disabled every request must complete.
//!
//! The fault decisions are counter-hashed from the plan seed
//! (`mra_protocol::faults`), so every failing case replays exactly.
//!
//! Every run additionally executes with **unbounded causal tracing armed**
//! (`mra::obs`), and the captured trace must pass every structural check in
//! [`mra::obs::check_events`] — no recv without a prior send, per-node
//! Lamport clocks strictly increasing, every recv's clock beyond its cause,
//! and per-link frame conservation — under any drop/dup plan, with or
//! without the reliable session layer.

use mra::baselines::{BouabdallahLaforest, Central, GrantPolicy, Incremental, Maddi};
use mra::core::LassConfig;
use mra::obs::{check_events, TraceMode};
use mra::protocol::faults::FaultPlan;
use mra::protocol::reliable::Reliability;
use mra::protocol::testkit::{check_schedules, ExerciseCfg, ExerciseReport, VirtualNet};
use mra::protocol::Allocator;
use proptest::prelude::*;

/// Run one protocol fleet under `plan`; safety, conservation and
/// fault-aware liveness are asserted inside the harness, and the armed
/// trace must come back causally consistent.
fn exercise<A: Allocator + Clone>(
    nodes: Vec<A>,
    m: usize,
    active: Option<usize>,
    phi: usize,
    plan: &FaultPlan,
    reliable: bool,
    seed: u64,
) -> ExerciseReport
where
    A::Msg: Clone,
{
    let mut net = VirtualNet::new(nodes, m);
    net.arm_tracing(TraceMode::Unbounded);
    net.install_faults(plan);
    if reliable {
        net.enable_reliability(Reliability::default());
    }
    let cfg = ExerciseCfg {
        rounds_per_node: 3,
        max_req_size: phi.min(m).max(1),
        m,
        hold_steps: 2,
        active_nodes: active,
        step_cap: 2_000_000,
    };
    let mut report = None;
    check_schedules(&net, &cfg, [seed], |net, rep| {
        let obs = net.take_obs();
        let trace = obs.trace.expect("tracing was armed");
        // Unbounded mode never overwrites, so the full positional checks run.
        assert_eq!(trace.dropped, 0);
        let check = check_events(&trace.to_owned_events(), trace.dropped);
        assert!(
            check.ok(),
            "CAUSAL VIOLATIONS: {} over {} events (reliable={reliable}): {:?}",
            check.violations,
            check.events,
            check.details
        );
        report = Some(rep.clone());
    });
    report.expect("a passing seed was checked")
}

/// One full sweep of the six-algorithm matrix under one plan.  Returns the
/// per-algorithm completed counts (for the lossless cross-check).
fn matrix(n: usize, m: usize, phi: usize, plan: &FaultPlan, seed: u64) -> Vec<u64> {
    let mut lass_loan = LassConfig::with_loan(n, m);
    lass_loan.loan = Some(1);
    let reports = [
        exercise(Incremental::build_nodes(n, m), m, None, phi, plan, false, seed),
        exercise(BouabdallahLaforest::build_nodes(n, m), m, None, phi, plan, false, seed),
        exercise(
            LassConfig::without_loan(n, m).build_nodes(),
            m,
            None,
            phi,
            plan,
            false,
            seed,
        ),
        exercise(lass_loan.build_nodes(), m, None, phi, plan, false, seed),
        // `build_nodes(n)` appends one passive coordinator node.
        exercise(
            Central::build_nodes(n, GrantPolicy::Conservative),
            m,
            Some(n),
            phi,
            plan,
            false,
            seed,
        ),
        exercise(Maddi::build_nodes(n, m), m, None, phi, plan, false, seed),
    ];
    reports.iter().map(|r| r.cs_completed).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline matrix: arbitrary shapes, drops and duplicates up to
    /// 20% each — no safety violation, no post-quiesce resource leak, for
    /// all six algorithms.
    #[test]
    fn all_six_algorithms_safe_and_leak_free_under_drops_and_dups(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        drop in 0.0f64..0.20,
        dup in 0.0f64..0.20,
        n in 3usize..6,
        m in 3usize..9,
        phi in 1usize..4,
    ) {
        let plan = FaultPlan::new(fault_seed).drop_rate(drop).dup_rate(dup);
        let _ = matrix(n, m, phi, &plan, seed);
    }

    /// Duplicates alone (no loss anywhere) must cost nothing: the dedup
    /// layer absorbs them and every request completes — for all six.
    #[test]
    fn dup_only_plans_complete_every_request(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        dup in 0.0f64..0.20,
        n in 3usize..6,
        m in 3usize..9,
    ) {
        let plan = FaultPlan::new(fault_seed).dup_rate(dup);
        let completed = matrix(n, m, 3, &plan, seed);
        // 3 rounds per active node; Central runs n active clients too.
        for (i, &c) in completed.iter().enumerate() {
            prop_assert_eq!(c as usize, 3 * n, "algorithm #{} lost work", i);
        }
    }

    /// The hard-loss corner: drop rates beyond anything realistic must
    /// still never violate safety or leak a granted resource.
    #[test]
    fn heavy_loss_is_starvation_not_unsafety(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        drop in 0.20f64..0.75,
        n in 3usize..5,
        m in 3usize..7,
    ) {
        let plan = FaultPlan::new(fault_seed).drop_rate(drop);
        let _ = matrix(n, m, 2, &plan, seed);
    }

    /// Causality under recovery: with the session layer on, retransmitted
    /// frames carry **fresh** Lamport stamps, and the trace — sends,
    /// retransmissions, fault verdicts and all — must still pass every
    /// structural check while liveness is fully restored (`exercise`
    /// asserts both).  LASS with loan and Bouabdallah–Laforest cover the
    /// counter-based and token-based protocol families.
    #[test]
    fn reliable_recovery_traces_stay_causally_consistent(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        drop in 0.0f64..0.30,
        dup in 0.0f64..0.20,
        n in 3usize..6,
        m in 3usize..8,
    ) {
        let plan = FaultPlan::new(fault_seed).drop_rate(drop).dup_rate(dup);
        let mut lass_loan = LassConfig::with_loan(n, m);
        lass_loan.loan = Some(1);
        let a = exercise(lass_loan.build_nodes(), m, None, 3, &plan, true, seed);
        let b = exercise(BouabdallahLaforest::build_nodes(n, m), m, None, 3, &plan, true, seed);
        // Recoverable plan + session layer: liveness is owed again.
        prop_assert_eq!(a.cs_completed as usize, 3 * n);
        prop_assert_eq!(b.cs_completed as usize, 3 * n);
    }
}

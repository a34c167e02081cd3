//! Cross-substrate conformance: one fixed scenario — 8 active nodes, 16
//! resources, paper LAN latency (γ = 0.6 ms where the substrate has a
//! clock), seed 42, fault-free plan — runs on all three substrates
//! (`VirtualNet`, the discrete-event `Sim`, the TCP reactor cluster over
//! loopback) and they must agree on `cs_entered` **per node**, for **all
//! six protocol families** of the evaluation.
//!
//! The substrates cannot share a message schedule (one has no clock, one
//! has a virtual clock, one real threads and sockets), so agreement is
//! made exact by running a *quota* workload: every node performs exactly
//! `ROUNDS` request/CS/release cycles.  Safety + liveness on each
//! substrate then force the identical per-node count — any double grant,
//! lost grant or phantom CS on any substrate breaks the equality (and the
//! shared `SafetyMonitor` panics long before).
//!
//! The second half of this file is the PR 5 liveness-under-loss matrix:
//! with the reliable session layer on, a 20% drop plan must cost **zero**
//! critical sections — the harness asserts full completion, conservation
//! at quiescence and re-arms the deadlock panic (see
//! `mra::protocol::reliable`).

use mra::baselines::{BouabdallahLaforest, Central, GrantPolicy, Incremental, Maddi};
use mra::core::LassConfig;
use mra::protocol::faults::FaultPlan;
use mra::protocol::reliable::Reliability;
use mra::protocol::testkit::{
    check_schedules, run_random_workload, ExerciseCfg, Schedule, VirtualNet,
};
use mra::net::{run_tcp_cluster, TcpClusterConfig};
use mra::protocol::{Allocator, WireCodec};
use mra::sim::{FixedWorkload, LatencyModel, RunResult, Sim, SimConfig, Workload};
use mra::types::{ResourceSet, Time};
use proptest::prelude::*;
use rand::rngs::StdRng;

const N: usize = 8;
const M: usize = 16;
const SEED: u64 = 42;
const ROUNDS: usize = 4;

/// [`FixedWorkload`] with a request quota: after `left` draws the node
/// thinks forever, so a window-based engine (the simulator) runs exactly
/// the quota-based scenario the other substrates run natively.
struct QuotaWorkload {
    left: usize,
    inner: FixedWorkload,
}

impl Workload for QuotaWorkload {
    fn think_time(&mut self, rng: &mut StdRng) -> Time {
        if self.left == 0 {
            // Past the simulation horizon: this node is done.
            Time::from_secs(10_000)
        } else {
            self.inner.think_time(rng)
        }
    }
    fn next_request(&mut self, rng: &mut StdRng) -> (ResourceSet, Time) {
        self.left -= 1;
        self.inner.next_request(rng)
    }
}

fn fixed() -> FixedWorkload {
    FixedWorkload {
        think: Time::from_millis(5),
        cs: Time::from_millis(3),
        m: M,
        size: 3,
    }
}

/// Completed critical sections for nodes `0..active`, from the run's
/// request records.
fn per_node(res: &RunResult, active: usize) -> Vec<usize> {
    (0..active)
        .map(|i| {
            res.records
                .iter()
                .filter(|r| r.node == i && r.granted.is_some())
                .count()
        })
        .collect()
}

/// Quota-parity conformance for one protocol family.  `active` restricts
/// the request-issuing nodes (coordinator-based algorithms keep their
/// coordinator passive); the fleet may be larger.
fn conformance<A, F>(build: F, active: Option<usize>)
where
    A: Allocator + Send + 'static,
    A::Msg: WireCodec,
    F: Fn() -> Vec<A>,
{
    let n_total = build().len();
    let n_active = active.unwrap_or(n_total);

    // Substrate 1: the synchronous virtual network (no clock — the quota
    // lives in the exercise config).  `run_random_workload` asserts full
    // completion and conservation, and the per-node quota caps each node
    // at ROUNDS, so completing n_active × ROUNDS total *is* the per-node
    // vector [ROUNDS; n_active].
    let mut net = VirtualNet::new(build(), M);
    net.install_faults(&FaultPlan::new(SEED)); // the fault-free plan
    let mut schedule = Schedule::seeded(SEED);
    run_random_workload(
        &mut net,
        &ExerciseCfg {
            rounds_per_node: ROUNDS,
            max_req_size: 3,
            m: M,
            hold_steps: 2,
            active_nodes: active,
            step_cap: 2_000_000,
        },
        &mut schedule,
    );
    let vnet_counts = vec![ROUNDS; n_active];

    // Substrate 2: the discrete-event simulator, paper LAN latency,
    // fault-free plan installed (it must change nothing).
    let sim_counts = {
        let workloads: Vec<QuotaWorkload> = (0..n_total)
            .map(|_| QuotaWorkload {
                left: ROUNDS,
                inner: fixed(),
            })
            .collect();
        let cfg = SimConfig {
            latency: LatencyModel::paper_lan(),
            seed: SEED,
            warmup: Time::ZERO,
            measure: Time::from_secs(60),
            drain: Time::from_secs(60),
            active_nodes: active,
            ..SimConfig::quick(SEED)
        };
        let mut sim = Sim::new(build(), workloads, M, cfg);
        sim.set_fault_plan(FaultPlan::new(SEED));
        let res = sim.run();
        assert_eq!(res.censored, 0, "simulator starved a quota request");
        per_node(&res, n_active)
    };

    // Substrate 3: the TCP reactor cluster (real threads, real loopback
    // sockets, the wire codec, γ = 0.6 ms stacked on the wire), natively
    // quota-based.
    let tcp_counts = {
        let res = run_tcp_cluster(
            build(),
            (0..n_total).map(|_| fixed()).collect::<Vec<_>>(),
            M,
            TcpClusterConfig {
                extra_latency: Time::from_micros(600),
                active_nodes: active,
                ..TcpClusterConfig::new(ROUNDS, SEED)
            },
        );
        assert_eq!(res.censored, 0);
        per_node(&res, n_active)
    };

    assert_eq!(
        sim_counts, vnet_counts,
        "Sim disagrees with VirtualNet on cs_entered per node"
    );
    assert_eq!(
        tcp_counts, vnet_counts,
        "TCP cluster disagrees with VirtualNet on cs_entered per node"
    );
}

#[test]
fn lass_cs_entered_per_node_agrees_across_substrates() {
    conformance(|| LassConfig::with_loan(N, M).build_nodes(), None);
}

#[test]
fn lass_noloan_cs_entered_per_node_agrees_across_substrates() {
    conformance(|| LassConfig::without_loan(N, M).build_nodes(), None);
}

#[test]
fn bouabdallah_laforest_cs_entered_per_node_agrees_across_substrates() {
    conformance(|| BouabdallahLaforest::build_nodes(N, M), None);
}

#[test]
fn incremental_cs_entered_per_node_agrees_across_substrates() {
    conformance(|| Incremental::build_nodes(N, M), None);
}

#[test]
fn maddi_cs_entered_per_node_agrees_across_substrates() {
    conformance(|| Maddi::build_nodes(N, M), None);
}

#[test]
fn central_cs_entered_per_node_agrees_across_substrates() {
    // `build_nodes(N)` appends one passive coordinator node (id N).
    conformance(
        || Central::build_nodes(N, GrantPolicy::Conservative),
        Some(N),
    );
}

/// One liveness-under-loss run of one protocol family: 20% seeded drop,
/// reliable session layer on.  The harness itself asserts full completion
/// (the plan is recoverable, so liveness is owed), zero post-quiesce
/// resource leaks via `SafetyMonitor::assert_conservation`, and the
/// re-armed deadlock panic; `check_schedules` minimises any failure.
fn survives_loss<A: Allocator + Clone>(nodes: Vec<A>, active: Option<usize>, seed: u64, fault_seed: u64)
where
    A::Msg: Clone,
{
    eprintln!("survives_loss: algo={} seed={seed} fault_seed={fault_seed}", nodes[0].name());
    let mut net = VirtualNet::new(nodes, M);
    net.install_faults(&FaultPlan::new(fault_seed).drop_rate(0.20));
    net.enable_reliability(Reliability::default());
    let cfg = ExerciseCfg {
        rounds_per_node: 3,
        max_req_size: 3,
        m: M,
        hold_steps: 2,
        active_nodes: active,
        step_cap: 2_000_000,
    };
    check_schedules(&net, &cfg, [seed], |_, _| {});
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The PR 5 headline invariant: all six algorithms complete the
    /// standard workload at 20% sustained drop rate once the reliable
    /// session layer restores the paper's channel model — liveness under
    /// any plan with drop rate < 1.0, not just under non-lossy plans.
    #[test]
    fn all_six_algorithms_survive_20pct_loss_with_reliability(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        survives_loss(Incremental::build_nodes(N, M), None, seed, fault_seed);
        survives_loss(BouabdallahLaforest::build_nodes(N, M), None, seed, fault_seed);
        survives_loss(LassConfig::without_loan(N, M).build_nodes(), None, seed, fault_seed);
        survives_loss(LassConfig::with_loan(N, M).build_nodes(), None, seed, fault_seed);
        survives_loss(
            Central::build_nodes(N, GrantPolicy::Conservative),
            Some(N),
            seed,
            fault_seed,
        );
        survives_loss(Maddi::build_nodes(N, M), None, seed, fault_seed);
    }
}

//! One-call experiment runners: build the protocol fleet for an algorithm,
//! wire it to the paper workload and the simulator, run, return metrics.

use crate::scenario::Scenario;
use crate::workload::PaperWorkload;
use mra_baselines::{BouabdallahLaforest, Central, GrantPolicy, Incremental, Maddi};
use mra_core::LassConfig;
use mra_protocol::Allocator;
use mra_sim::faults::FaultPlan;
use mra_sim::reliable::Reliability;
use mra_sim::{RunResult, Sim, SimConfig};

/// The algorithms of the evaluation (paper §5) plus the extensions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// M Naimi-Trehel locks, ascending acquisition (§2.1).
    Incremental,
    /// Bouabdallah–Laforest control token (§2.2).
    BouabdallahLaforest,
    /// The paper's algorithm, loan disabled ("Without loan").
    LassNoLoan,
    /// The paper's algorithm with the loan mechanism ("With loan",
    /// threshold from the scenario; paper uses 1).
    LassLoan,
    /// Global queue, zero network cost ("in shared memory").
    Central,
    /// First-fit variant of the central scheduler (extension).
    CentralGreedy,
    /// Broadcast baseline (extension; Maddi / multi-Suzuki-Kasami).
    Maddi,
}

impl Algorithm {
    /// Label used in tables (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Incremental => "Incremental",
            Algorithm::BouabdallahLaforest => "Bouabdallah Laforest",
            Algorithm::LassNoLoan => "Without loan",
            Algorithm::LassLoan => "With loan",
            Algorithm::Central => "in shared memory",
            Algorithm::CentralGreedy => "in shared memory (greedy)",
            Algorithm::Maddi => "Maddi (broadcast)",
        }
    }

    /// The five curves of Fig. 5, in the paper's legend order.
    pub fn fig5_set() -> [Algorithm; 5] {
        [
            Algorithm::Incremental,
            Algorithm::BouabdallahLaforest,
            Algorithm::LassNoLoan,
            Algorithm::LassLoan,
            Algorithm::Central,
        ]
    }

    /// The six algorithms of the fault-robustness matrix (`fig_faults`
    /// and the fault property tests): every distinct protocol family.
    pub fn fault_set() -> [Algorithm; 6] {
        [
            Algorithm::Incremental,
            Algorithm::BouabdallahLaforest,
            Algorithm::LassNoLoan,
            Algorithm::LassLoan,
            Algorithm::Central,
            Algorithm::Maddi,
        ]
    }

    /// The three bars of Fig. 6 / Fig. 7.
    pub fn fig6_set() -> [Algorithm; 3] {
        [
            Algorithm::BouabdallahLaforest,
            Algorithm::LassNoLoan,
            Algorithm::LassLoan,
        ]
    }
}

/// Run one scenario under one algorithm.
///
/// Distributed algorithms use the scenario's LAN latency γ; the central
/// scheduler runs with zero latency and a passive coordinator node,
/// matching the paper's "no network communication" framing.
pub fn run(algo: Algorithm, sc: &Scenario) -> RunResult {
    run_configured(algo, sc, None, None)
}

/// What to run on an algorithm's fleet once [`with_fleet`] has built it.
/// A trait, not a closure: the allocator type differs per algorithm and
/// closures cannot be generic over it.
pub(crate) trait FleetVisitor {
    type Out;

    /// One workload slot per node; `cfg` carries the algorithm's latency
    /// model and, when a passive coordinator rides along, `active_nodes`.
    fn launch<A: Allocator>(self, nodes: Vec<A>, cfg: SimConfig) -> Self::Out;
}

/// Build `algo`'s protocol fleet and latency model for `sc` (see [`run`])
/// and hand them to `v`.
pub(crate) fn with_fleet<V: FleetVisitor>(algo: Algorithm, sc: &Scenario, v: V) -> V::Out {
    let (n, m) = (sc.n, sc.m);
    match algo {
        Algorithm::Incremental => v.launch(Incremental::build_nodes(n, m), sc.sim_config()),
        Algorithm::BouabdallahLaforest => {
            v.launch(BouabdallahLaforest::build_nodes(n, m), sc.sim_config())
        }
        Algorithm::LassNoLoan => {
            let mut cfg = LassConfig::without_loan(n, m);
            cfg.policy = sc.policy;
            v.launch(cfg.build_nodes(), sc.sim_config())
        }
        Algorithm::LassLoan => {
            let mut cfg = LassConfig::with_loan(n, m);
            cfg.policy = sc.policy;
            cfg.loan = Some(sc.loan_threshold);
            v.launch(cfg.build_nodes(), sc.sim_config())
        }
        Algorithm::Central | Algorithm::CentralGreedy => {
            let policy = if algo == Algorithm::Central {
                GrantPolicy::Conservative
            } else {
                GrantPolicy::Greedy
            };
            // `build_nodes` appends one passive coordinator as node n.
            let mut cfg = sc.sim_config_zero_latency();
            cfg.active_nodes = Some(n);
            v.launch(Central::build_nodes(n, policy), cfg)
        }
        Algorithm::Maddi => v.launch(Maddi::build_nodes(n, m), sc.sim_config()),
    }
}

/// The closed-loop paper workload on the simulator, with the optional
/// fault plan and reliable session layer installed.
///
/// Tracing arms from the environment (`MRA_TRACE` / `MRA_TRACE_FILE`, see
/// [`mra_sim::obs`]); when `MRA_TRACE_FILE` is set the merged trace is
/// written there as JSONL after the run (each run overwrites it, so point
/// it at a per-run path when sweeping).
struct PaperRun<'a> {
    sc: &'a Scenario,
    faults: Option<&'a FaultPlan>,
    reliability: Option<Reliability>,
}

impl FleetVisitor for PaperRun<'_> {
    type Out = RunResult;

    fn launch<A: Allocator>(self, nodes: Vec<A>, cfg: SimConfig) -> RunResult {
        let sc = self.sc;
        let workloads = PaperWorkload::per_node(sc, nodes.len());
        let mut sim = Sim::new(nodes, workloads, sc.m, cfg);
        if let Some(plan) = self.faults {
            sim.set_fault_plan(plan.clone());
        }
        if let Some(rel) = self.reliability {
            sim.set_reliability(rel);
        }
        sim.set_tracing(mra_sim::obs::trace_mode_from_env());
        let res = sim.run();
        if let (Some(path), Some(trace)) =
            (mra_sim::obs::trace_file_from_env(), res.obs.trace.as_ref())
        {
            if let Err(e) = mra_sim::obs::write_jsonl_file(&path, trace, &res.algo, res.n, res.m) {
                eprintln!("mra-workloads: writing trace to {path} failed: {e}");
            }
        }
        res
    }
}

/// [`run`] with an optional [`FaultPlan`] threaded into the simulator and
/// an optional reliable-delivery session layer (`mra_sim::reliable`) — the
/// entry point of the fault-robustness experiments (`fig_faults`).  Under a
/// lossy plan requests may starve; the degradation shows up as fewer
/// completed critical sections and a non-zero `censored` count.  With
/// reliability on, a recoverable lossy plan costs retransmission overhead
/// instead of liveness, and the simulator's deadlock check stays armed.
pub fn run_configured(
    algo: Algorithm,
    sc: &Scenario,
    faults: Option<&FaultPlan>,
    reliability: Option<Reliability>,
) -> RunResult {
    with_fleet(algo, sc, PaperRun { sc, faults, reliability })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Load;

    fn small(phi: usize, load: Load, seed: u64) -> Scenario {
        Scenario::builder()
            .nodes(6)
            .resources(12)
            .max_request_size(phi)
            .load(load)
            .seed(seed)
            .measure_secs(1.0)
            .build()
    }

    #[test]
    fn every_algorithm_runs_the_same_scenario() {
        let sc = small(3, Load::Medium, 5);
        for algo in [
            Algorithm::Incremental,
            Algorithm::BouabdallahLaforest,
            Algorithm::LassNoLoan,
            Algorithm::LassLoan,
            Algorithm::Central,
            Algorithm::CentralGreedy,
            Algorithm::Maddi,
        ] {
            let res = run(algo, &sc);
            assert!(
                res.cs_completed > 0,
                "{:?} completed no critical sections",
                algo
            );
            let u = res.use_rate();
            assert!((0.0..=1.0).contains(&u), "{algo:?} use rate {u}");
        }
    }

    #[test]
    fn central_beats_or_matches_distributed_on_use_rate() {
        // The shared-memory scheduler has no synchronization cost: with the
        // same seed it should serve at least as well as BL at high load.
        let sc = small(4, Load::High, 11);
        let central = run(Algorithm::Central, &sc).use_rate();
        let bl = run(Algorithm::BouabdallahLaforest, &sc).use_rate();
        assert!(
            central > 0.8 * bl,
            "central {central:.3} unexpectedly far below BL {bl:.3}"
        );
    }

    #[test]
    fn faulty_run_degrades_and_clean_plan_matches_no_plan() {
        let sc = small(3, Load::High, 8);
        let bare = run(Algorithm::LassLoan, &sc);
        let clean = run_configured(Algorithm::LassLoan, &sc, Some(&FaultPlan::new(1)), None);
        assert_eq!(bare.cs_completed, clean.cs_completed);
        assert_eq!(bare.msgs_total, clean.msgs_total);
        let lossy = run_configured(
            Algorithm::LassLoan,
            &sc,
            Some(&FaultPlan::new(1).drop_rate(0.2)),
            None,
        );
        assert!(lossy.faults.dropped_link > 0);
        assert!(lossy.cs_completed < bare.cs_completed);
    }

    #[test]
    fn deterministic_per_algorithm() {
        let sc = small(3, Load::High, 21);
        let a = run(Algorithm::LassLoan, &sc);
        let b = run(Algorithm::LassLoan, &sc);
        assert_eq!(a.cs_completed, b.cs_completed);
        assert_eq!(a.msgs_total, b.msgs_total);
    }
}

//! One-call experiment runners: build the protocol fleet for an algorithm,
//! give it the closed-loop paper workload ([`run`], [`run_configured`]) or
//! the serving layer's open-loop admission front end ([`run_serve`]), run it
//! on the simulator and return the metrics.

use crate::scenario::Scenario;
use crate::workload::PaperWorkload;
use mra_baselines::{BouabdallahLaforest, Central, GrantPolicy, Incremental, Maddi};
use mra_core::LassConfig;
use mra_protocol::faults::FaultPlan;
use mra_protocol::reliable::Reliability;
use mra_protocol::Allocator;
use mra_serve::{check_conservation, ServeConfig, ServeStats, ServeWorkload, SharedServeStats};
use mra_sim::{RunResult, Sim, SimConfig, Workload};
use mra_types::Time;

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

/// [`run`] with an optional [`FaultPlan`] threaded into the simulator and
/// an optional reliable-delivery session layer (`mra_protocol::reliable`) —
/// the entry point of the fault-robustness experiments (`fig_faults`).
/// Under a lossy plan requests may starve; the degradation shows up as
/// fewer completed critical sections and a non-zero `censored` count.  With
/// reliability on, a recoverable lossy plan costs retransmission overhead
/// instead of liveness, and the simulator's deadlock check stays armed.
pub fn run_configured(
    algo: Algorithm,
    sc: &Scenario,
    faults: Option<&FaultPlan>,
    reliability: Option<Reliability>,
) -> RunResult {
    simulate(algo, sc, faults, reliability, |n| PaperWorkload::per_node(sc, n))
}

/// A serving experiment: engine topology and timing from the [`Scenario`],
/// arrival process and admission policy from the [`ServeConfig`].
///
/// The serve config's request shape is overridden with the scenario's
/// `m`/`phi` so both layers agree on the resource universe.
#[derive(Clone, Debug)]
pub struct ServeScenario {
    pub sc: Scenario,
    pub serve: ServeConfig,
}

impl ServeScenario {
    pub fn new(sc: Scenario, mut serve: ServeConfig) -> Self {
        serve.shape.m = sc.m;
        serve.shape.phi = sc.phi.max(1);
        serve.seed ^= sc.seed.rotate_left(17);
        ServeScenario { sc, serve }
    }
}

/// Result of a serving run: engine metrics plus fleet-merged serving
/// accounting, with the end-of-run queue/in-flight split derivable from
/// the counters.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Engine-side metrics (issue-keyed `wait_stats`, arrival-keyed
    /// `serve_stats`, message counts, …).
    pub result: RunResult,
    /// Fleet-merged serving-layer accounting.
    pub serve: ServeStats,
    /// Virtual time during which nodes issue (warmup + measurement
    /// window) — the denominator of the offered/goodput rates, so the two
    /// share a span and `goodput ≤ offered` follows from conservation.
    pub span: Time,
}

impl ServeOutcome {
    /// Requests still waiting in admission queues when the run ended.
    pub fn queued_end(&self) -> u64 {
        self.serve.admitted - self.serve.batched_reqs
    }

    /// Requests issued to the allocator but not yet released at run end.
    pub fn inflight_end(&self) -> u64 {
        self.serve.batched_reqs - self.serve.served
    }

    /// Fleet-wide *measured* offered load in requests/second over the
    /// issuing span.
    pub fn offered_hz(&self) -> f64 {
        let span = self.span.as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.serve.offered as f64 / span
    }

    /// Goodput: fully served requests per second of the issuing span.
    /// Never exceeds [`offered_hz`](Self::offered_hz): both rates share a
    /// denominator and `served ≤ offered` by conservation.
    pub fn goodput_hz(&self) -> f64 {
        let span = self.span.as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.serve.served as f64 / span
    }

    /// Serving-layer conservation check (see [`check_conservation`]).
    pub fn check(&self) -> Result<(), String> {
        check_conservation(&self.serve, self.queued_end(), self.inflight_end())
    }
}

/// Run one serving scenario under one algorithm — [`run_configured`] with
/// an open-loop [`ServeWorkload`] fleet in place of the paper workload,
/// returning the serving-side accounting (offered/admitted/shed,
/// arrival-keyed latency histograms) next to the engine's [`RunResult`].
pub fn run_serve(
    algo: Algorithm,
    ssc: &ServeScenario,
    faults: Option<&FaultPlan>,
    reliability: Option<Reliability>,
) -> ServeOutcome {
    let sc = &ssc.sc;
    let mut handles = Vec::new();
    let result = simulate(algo, sc, faults, reliability, |n| {
        let (workloads, stats) = ServeWorkload::fleet(&ssc.serve, n);
        handles = stats;
        workloads
    });
    // Passive slots (a central coordinator) never issue; merging their
    // untouched stats is harmless, but restricting to the scenario's active
    // nodes keeps `offered` a function of the arrival processes that ran.
    let serve = SharedServeStats::merge_all(&handles[..sc.n]);
    ServeOutcome {
        result,
        serve,
        span: sc.warmup + sc.measure,
    }
}

/// Build `algo`'s protocol fleet and latency model for `sc` (see [`run`]),
/// give it the workloads `fleet` builds for its node count and run it.
fn simulate<W: Workload>(
    algo: Algorithm,
    sc: &Scenario,
    faults: Option<&FaultPlan>,
    reliability: Option<Reliability>,
    fleet: impl FnOnce(usize) -> Vec<W>,
) -> RunResult {
    let (n, m) = (sc.n, sc.m);
    let cfg = sc.sim_config();
    match algo {
        Algorithm::Incremental => {
            launch(Incremental::build_nodes(n, m), cfg, m, faults, reliability, fleet)
        }
        Algorithm::BouabdallahLaforest => {
            launch(BouabdallahLaforest::build_nodes(n, m), cfg, m, faults, reliability, fleet)
        }
        Algorithm::LassNoLoan => {
            let mut lass = LassConfig::without_loan(n, m);
            lass.policy = sc.policy;
            launch(lass.build_nodes(), cfg, m, faults, reliability, fleet)
        }
        Algorithm::LassLoan => {
            let mut lass = LassConfig::with_loan(n, m);
            lass.policy = sc.policy;
            lass.loan = Some(sc.loan_threshold);
            launch(lass.build_nodes(), cfg, m, faults, reliability, fleet)
        }
        Algorithm::Central => {
            // `build_nodes` appends one passive coordinator as node n.
            let nodes = Central::build_nodes(n, GrantPolicy::Conservative);
            let cfg = SimConfig {
                active_nodes: Some(n),
                ..sc.sim_config_zero_latency()
            };
            launch(nodes, cfg, m, faults, reliability, fleet)
        }
        Algorithm::Maddi => launch(Maddi::build_nodes(n, m), cfg, m, faults, reliability, fleet),
    }
}

/// One workload per node (passive slots included), the optional fault plan
/// and reliable session layer installed, then the run.
///
/// Tracing arms from the environment (`MRA_TRACE` / `MRA_TRACE_FILE`, see
/// [`mra_sim::obs`]); when `MRA_TRACE_FILE` is set the merged trace is
/// written there as JSONL after the run (each run overwrites it, so point
/// it at a per-run path when sweeping).
fn launch<A: Allocator, W: Workload>(
    nodes: Vec<A>,
    cfg: SimConfig,
    m: usize,
    faults: Option<&FaultPlan>,
    reliability: Option<Reliability>,
    fleet: impl FnOnce(usize) -> Vec<W>,
) -> RunResult {
    let workloads = fleet(nodes.len());
    let mut sim = Sim::new(nodes, workloads, m, cfg);
    if let Some(plan) = faults {
        sim.set_fault_plan(plan.clone());
    }
    if let Some(rel) = reliability {
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

    fn ssc(rate_hz: f64, seed: u64) -> ServeScenario {
        let serve = ServeConfig {
            rate_hz,
            ..ServeConfig::default()
        };
        ServeScenario::new(small(3, Load::Medium, seed), serve)
    }

    #[test]
    fn serve_run_conserves_and_completes() {
        let out = run_serve(Algorithm::LassLoan, &ssc(150.0, 3), None, None);
        assert!(out.serve.served > 0, "no requests served");
        assert!(out.result.cs_completed > 0);
        out.check().expect("conservation");
        // Goodput can never exceed what was offered.
        assert!(out.serve.served <= out.serve.offered);
        // Arrival-keyed latency dominates issue-keyed latency.
        let serve = out.result.serve_stats();
        let wait = out.result.wait_stats();
        assert!(serve.count == wait.count);
        assert!(serve.mean_ms >= wait.mean_ms);
    }

    #[test]
    fn serve_run_is_deterministic_for_a_seed() {
        let a = run_serve(Algorithm::LassNoLoan, &ssc(200.0, 9), None, None);
        let b = run_serve(Algorithm::LassNoLoan, &ssc(200.0, 9), None, None);
        assert_eq!(a.result.cs_completed, b.result.cs_completed);
        assert_eq!(a.result.msgs_total, b.result.msgs_total);
        assert_eq!(a.serve.offered, b.serve.offered);
        assert_eq!(a.serve.served, b.serve.served);
        assert_eq!(a.serve.grant_latency.p99(), b.serve.grant_latency.p99());
    }
}

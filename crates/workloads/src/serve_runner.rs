//! One-call serving experiments: an open-loop [`ServeWorkload`] fleet
//! driving any of the evaluation's algorithms through the simulator.
//!
//! This mirrors [`runner`](crate::runner) — same fleet construction per
//! algorithm, same fault/reliability plumbing — but swaps the closed-loop
//! [`PaperWorkload`](crate::workload::PaperWorkload) for the serving
//! layer's admission front end, and returns the serving-side accounting
//! (offered/admitted/shed, arrival-keyed latency histograms) next to the
//! engine's [`RunResult`].

use crate::runner::{with_fleet, Algorithm, FleetVisitor};
use crate::scenario::Scenario;
use mra_protocol::Allocator;
use mra_serve::{check_conservation, ServeConfig, ServeStats, ServeWorkload, SharedServeStats};
use mra_sim::faults::FaultPlan;
use mra_sim::reliable::Reliability;
use mra_sim::{RunResult, Sim, SimConfig};
use mra_types::Time;

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

/// The open-loop serving fleet on the simulator, with the optional fault
/// plan and reliable session layer installed.
struct ServeRun<'a> {
    ssc: &'a ServeScenario,
    faults: Option<&'a FaultPlan>,
    reliability: Option<Reliability>,
}

impl FleetVisitor for ServeRun<'_> {
    type Out = ServeOutcome;

    fn launch<A: Allocator>(self, nodes: Vec<A>, cfg: SimConfig) -> ServeOutcome {
        let active = cfg.active_nodes.unwrap_or(nodes.len());
        let (workloads, handles) = ServeWorkload::fleet(&self.ssc.serve, nodes.len());
        let span = cfg.warmup + cfg.measure;
        let mut sim = Sim::new(nodes, workloads, self.ssc.sc.m, cfg);
        if let Some(plan) = self.faults {
            sim.set_fault_plan(plan.clone());
        }
        if let Some(rel) = self.reliability {
            sim.set_reliability(rel);
        }
        sim.set_tracing(mra_sim::obs::trace_mode_from_env());
        let result = sim.run();
        // Passive slots (a central coordinator) never issue; merging their
        // untouched stats is harmless, but restricting to active nodes keeps
        // `offered` a function of the arrival processes that actually ran.
        let serve = SharedServeStats::merge_all(&handles[..active]);
        ServeOutcome {
            result,
            serve,
            span,
        }
    }
}

/// Run one serving scenario under one algorithm — the serving-layer
/// counterpart of [`runner::run_configured`](crate::runner::run_configured).
pub fn run_serve(
    algo: Algorithm,
    ssc: &ServeScenario,
    faults: Option<&FaultPlan>,
    reliability: Option<Reliability>,
) -> ServeOutcome {
    with_fleet(algo, &ssc.sc, ServeRun { ssc, faults, reliability })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Load;

    fn ssc(rate_hz: f64, seed: u64) -> ServeScenario {
        let sc = Scenario::builder()
            .nodes(6)
            .resources(12)
            .max_request_size(3)
            .load(Load::Medium)
            .seed(seed)
            .measure_secs(1.0)
            .build();
        let serve = ServeConfig {
            rate_hz,
            ..ServeConfig::default()
        };
        ServeScenario::new(sc, serve)
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
    fn deterministic_for_a_seed() {
        let a = run_serve(Algorithm::LassNoLoan, &ssc(200.0, 9), None, None);
        let b = run_serve(Algorithm::LassNoLoan, &ssc(200.0, 9), None, None);
        assert_eq!(a.result.cs_completed, b.result.cs_completed);
        assert_eq!(a.result.msgs_total, b.result.msgs_total);
        assert_eq!(a.serve.offered, b.serve.offered);
        assert_eq!(a.serve.served, b.serve.served);
        assert_eq!(a.serve.grant_latency.p99(), b.serve.grant_latency.p99());
    }
}

//! Experiment scenarios: the paper's parameter space (§5.1).

use mra_core::SchedulingPolicy;
use mra_sim::{LatencyModel, SimConfig};
use mra_types::Time;

/// The paper's two load levels.  Load is controlled by
/// `ρ = β / (ᾱ + γ)`: the *lower* ρ, the *higher* the request load.  The
/// paper does not publish its exact ρ values; these were calibrated so the
/// curve shapes of Fig. 5 are reproduced (see DESIGN.md §4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Load {
    /// Medium load (larger think times).
    Medium,
    /// High load (requests nearly back-to-back).
    High,
}

impl Load {
    /// The calibrated ρ for this load level.
    pub fn rho(&self) -> f64 {
        match self {
            Load::Medium => 1.0,
            Load::High => 0.1,
        }
    }

    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Load::Medium => "medium",
            Load::High => "high",
        }
    }
}

/// A full experiment configuration.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Number of (active) processes — the paper's `N` (32).
    pub n: usize,
    /// Number of resources — the paper's `M` (80).
    pub m: usize,
    /// Maximum request size — the paper's φ (1..=M).
    pub phi: usize,
    /// Minimum critical-section time (α lower bound, ms).
    pub alpha_min_ms: f64,
    /// Maximum critical-section time (α upper bound, ms).
    pub alpha_max_ms: f64,
    /// Load factor ρ = β/(ᾱ+γ); β is derived from it.
    pub rho: f64,
    /// Network latency (the paper's γ ≈ 0.6 ms).
    pub gamma: Time,
    /// Master seed.
    pub seed: u64,
    /// Simulation warmup (excluded from measurement).
    pub warmup: Time,
    /// Measurement window length.
    pub measure: Time,
    /// Drain time after the window.
    pub drain: Time,
    /// Scheduling function `A` for the LASS variants.
    pub policy: SchedulingPolicy,
    /// Loan threshold for the "with loan" variant (paper: 1).
    pub loan_threshold: usize,
    /// Resource-popularity skew: 0 = uniform (the paper's workload);
    /// `s > 0` draws resources with Zipf-like weight `1/(rank+1)^s`.
    /// Extension knob — §5.3 attributes the small-request waiting-time
    /// penalty to unevenly requested resources.
    pub skew: f64,
    /// Ignored; named only by `benchmark/`; ROADMAP 1(b) deletes it.
    pub shards: Option<usize>,
}

impl Scenario {
    /// Builder with paper defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The paper's testbed shape: N = 32, M = 80, γ = 0.6 ms,
    /// α ∈ [5, 35] ms, at the given load and φ.
    pub fn paper(load: Load, phi: usize, seed: u64) -> Scenario {
        Scenario::builder()
            .nodes(32)
            .resources(80)
            .max_request_size(phi)
            .rho(load.rho())
            .seed(seed)
            .build()
    }

    /// A scale-out shape far past the paper's testbed: the paper's
    /// workload parameters (φ = 4, medium load, γ = 0.6 ms LAN) on `n`
    /// nodes and `m` resources — the scale scenarios run this at
    /// 10 000 × 100 000.  The simulated window is deliberately short
    /// (20 ms warmup, 10 ms measurement, 0.5 s drain): at this node count
    /// a few simulated milliseconds are already millions of engine events,
    /// and the short window bounds the per-request record memory.
    pub fn large(n: usize, m: usize, seed: u64) -> Scenario {
        Scenario::builder()
            .nodes(n)
            .resources(m)
            .max_request_size(4)
            .load(Load::Medium)
            .seed(seed)
            .window(
                Time::from_millis(20),
                Time::from_millis(10),
                Time::from_millis(500),
            )
            .build()
    }

    /// Mean critical-section time ᾱ (ms): sizes are uniform on `1..=φ` and
    /// α(x) is linear from α_min to α_max, so ᾱ = (α_min + α_max)/2.
    pub fn alpha_mean_ms(&self) -> f64 {
        0.5 * (self.alpha_min_ms + self.alpha_max_ms)
    }

    /// Mean think time β = ρ·(ᾱ + γ).
    pub fn beta(&self) -> Time {
        Time::from_millis_f64(self.rho * (self.alpha_mean_ms() + self.gamma.as_millis_f64()))
    }

    /// The simulator configuration for this scenario (LAN latency).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            latency: LatencyModel::Constant(self.gamma),
            seed: self.seed,
            warmup: self.warmup,
            measure: self.measure,
            drain: self.drain,
            active_nodes: None,
            max_events: 400_000_000,
            ..SimConfig::quick(self.seed)
        }
    }

    /// Same but with zero-latency links (the "in shared memory" runs).
    pub fn sim_config_zero_latency(&self) -> SimConfig {
        let mut cfg = self.sim_config();
        cfg.latency = LatencyModel::Zero;
        cfg
    }
}

/// Builder for [`Scenario`] (paper defaults pre-filled).
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    sc: Scenario,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            sc: Scenario {
                n: 32,
                m: 80,
                phi: 4,
                alpha_min_ms: 5.0,
                alpha_max_ms: 35.0,
                rho: Load::Medium.rho(),
                gamma: Time::from_micros(600),
                seed: 1,
                warmup: Time::from_secs(2),
                measure: Time::from_secs(10),
                drain: Time::from_secs(3),
                policy: SchedulingPolicy::AvgNonZero,
                loan_threshold: 1,
                skew: 0.0,
                shards: None,
            },
        }
    }
}

impl ScenarioBuilder {
    /// Set `N`.
    pub fn nodes(mut self, n: usize) -> Self {
        self.sc.n = n;
        self
    }

    /// Set `M`.
    pub fn resources(mut self, m: usize) -> Self {
        self.sc.m = m;
        self
    }

    /// Set φ.
    pub fn max_request_size(mut self, phi: usize) -> Self {
        self.sc.phi = phi;
        self
    }

    /// Set ρ directly.
    pub fn rho(mut self, rho: f64) -> Self {
        self.sc.rho = rho;
        self
    }

    /// Set the load level (sets ρ).
    pub fn load(mut self, load: Load) -> Self {
        self.sc.rho = load.rho();
        self
    }

    /// Set γ.
    pub fn gamma(mut self, gamma: Time) -> Self {
        self.sc.gamma = gamma;
        self
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.sc.seed = seed;
        self
    }

    /// Set the measurement window in (fractional) seconds.
    pub fn measure_secs(mut self, s: f64) -> Self {
        self.sc.measure = Time::from_secs_f64(s);
        self.sc.warmup = Time::from_secs_f64(s * 0.2);
        self.sc.drain = Time::from_secs_f64((s * 0.3).max(0.5));
        self
    }

    /// Set the scheduling policy.
    pub fn policy(mut self, p: SchedulingPolicy) -> Self {
        self.sc.policy = p;
        self
    }

    /// Set the loan threshold.
    pub fn loan_threshold(mut self, t: usize) -> Self {
        self.sc.loan_threshold = t;
        self
    }

    /// Set the resource-popularity skew (0 = uniform).
    pub fn skew(mut self, s: f64) -> Self {
        self.sc.skew = s;
        self
    }

    /// Ignored; named only by `benchmark/`; ROADMAP 1(b) deletes it.
    pub fn shards(mut self, k: usize) -> Self {
        self.sc.shards = Some(k);
        self
    }

    /// Set the warmup / measurement / drain window explicitly (the
    /// large-scale scenarios use short windows — at 10 000 nodes even a
    /// few simulated milliseconds are millions of events).
    pub fn window(mut self, warmup: Time, measure: Time, drain: Time) -> Self {
        self.sc.warmup = warmup;
        self.sc.measure = measure;
        self.sc.drain = drain;
        self
    }

    /// Finalize.
    pub fn build(self) -> Scenario {
        let sc = self.sc;
        assert!(sc.n >= 1 && sc.m >= 1);
        assert!(sc.phi >= 1 && sc.phi <= sc.m, "φ must be in 1..=M");
        assert!(sc.alpha_min_ms > 0.0 && sc.alpha_max_ms >= sc.alpha_min_ms);
        assert!(sc.rho > 0.0);
        sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let sc = Scenario::paper(Load::High, 4, 9);
        assert_eq!(sc.n, 32);
        assert_eq!(sc.m, 80);
        assert_eq!(sc.phi, 4);
        assert_eq!(sc.gamma, Time::from_micros(600));
        assert!((sc.alpha_mean_ms() - 20.0).abs() < 1e-9);
        // β = 0.1 × (20 + 0.6) ms = 2.06 ms
        assert_eq!(sc.beta(), Time::from_micros(2060));
    }

    #[test]
    fn load_levels_order() {
        assert!(Load::High.rho() < Load::Medium.rho());
    }

    #[test]
    #[should_panic(expected = "φ must be in 1..=M")]
    fn phi_bounds_checked() {
        Scenario::builder().resources(10).max_request_size(11).build();
    }

    #[test]
    fn builder_round_trip() {
        let sc = Scenario::builder()
            .nodes(8)
            .resources(20)
            .max_request_size(5)
            .rho(1.5)
            .seed(3)
            .measure_secs(2.0)
            .build();
        assert_eq!(sc.n, 8);
        assert_eq!(sc.m, 20);
        assert_eq!(sc.phi, 5);
        assert_eq!(sc.measure, Time::from_secs(2));
        assert!(sc.warmup > Time::ZERO);
    }
}

//! # mra-workloads — the paper's experimental setup as a library
//!
//! Implements §5.1 of the paper: the workload model (parameters α, β, γ, ρ
//! and φ), scenario presets for the *medium load* and *high load*
//! configurations, one-call experiment runners for every algorithm, text
//! table / CSV rendering, and the per-figure experiment definitions.  Its
//! binaries (`src/bin/`) regenerate each figure and ablation of the
//! evaluation as a table and a CSV under `target/experiments/`, and
//! `mra-trace` analyzes the JSONL traces the runs write.
//!
//! ## The workload model
//!
//! Each of the `N` processes loops: think for β (exponential), draw a
//! request size `x ~ Uniform{1..φ}` and `x` distinct resources (uniform,
//! no repetition), request, wait for the grant, hold the resources for
//! α(x), release.  The paper specifies α ∈ [5 ms, 35 ms] growing with `x`
//! and controls load through `ρ = β / (ᾱ + γ)` — *low ρ means high load*.
//!
//! ```
//! use mra_workloads::{run, Algorithm, Scenario};
//!
//! let sc = Scenario::builder()
//!     .nodes(8)
//!     .resources(20)
//!     .max_request_size(4)
//!     .measure_secs(1.0)
//!     .seed(7)
//!     .build();
//! let res = run(Algorithm::LassLoan, &sc);
//! assert!(res.cs_completed > 0);
//! println!("use rate {:.1}%", 100.0 * res.use_rate());
//! ```

pub mod experiments;
pub mod pool;
pub mod runner;
pub mod scenario;
pub mod table;
pub mod workload;

pub use pool::{configured_threads, sweep};
pub use runner::{run, run_serve, Algorithm, ServeOutcome, ServeScenario};
pub use scenario::{Load, Scenario, ScenarioBuilder};
pub use table::Table;
pub use workload::PaperWorkload;

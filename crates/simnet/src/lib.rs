//! # mra-sim — deterministic discrete-event simulation of message-passing
//! allocation protocols
//!
//! The paper evaluated its algorithms on a 32-node cluster (C++/OpenMPI,
//! 10 GbE).  This crate substitutes that testbed with a **deterministic
//! discrete-event simulator**: protocols implementing
//! [`mra_protocol::Allocator`] run unmodified over simulated reliable FIFO
//! links with configurable latency (the paper's γ ≈ 0.6 ms), driven by a
//! workload model (the paper's α, β, ρ, φ — provided by `mra-workloads`),
//! while the engine records the two metrics of the paper's §5 — **resource
//! use rate** and **request waiting time** — plus message-complexity
//! metrics the paper discusses qualitatively.
//!
//! Modules:
//!
//! * [`sim`] — the event loop ([`sim::Sim`]), virtual clock and FIFO links;
//! * [`latency`] — latency models (constant, jittered, hierarchical
//!   two-cluster "cloud" topology for the paper's future-work experiment);
//! * [`driver`] — the per-node request/CS/think lifecycle and the one
//!   place it is recorded, into a run's [`driver::RunLog`]
//!   ([`driver::Workload`] is implemented by `mra-workloads`);
//! * [`metrics`] — per-request records, use-rate accounting and summaries;
//! * [`stats`] — small numerically careful helpers (mean/std/percentiles);
//! * [`obs`] — causal tracing and transport counters (re-exported from
//!   [`mra_obs`]): [`Sim::set_tracing`] / `MRA_TRACE` arm the trace;
//! * [`trace`] — ASCII Gantt rendering of runs (the paper's Fig. 1 / 4).
//!
//! The wall-clock counterpart — the same [`driver::Driver`],
//! [`Workload`] and [`driver::RunLog`] under real threads and real
//! sockets, one `RunLog` per run behind one lock — is `mra-net`, which
//! owns its node loop.

pub mod driver;
pub mod latency;
pub mod metrics;
/// Causal tracing, counters and trace analysis
/// (re-exported from [`mra_obs`], where the layer lives so all three
/// substrates — and the `mra-trace` analyzer — share one event model):
/// [`Sim::set_tracing`] arms the simulator; `mra-net`'s TCP runs arm from
/// the `MRA_TRACE` / `MRA_TRACE_FILE` environment knobs.
pub mod obs {
    pub use mra_obs::*;
}
mod queue;
pub mod sim;
pub mod stats;
pub mod trace;

pub use driver::{FixedWorkload, Workload};
pub use latency::LatencyModel;
pub use metrics::{ReqRecord, RunResult, WaitStats};
pub use sim::{Sim, SimConfig};
pub use trace::render_gantt;

/// Lock a mutex whether or not it is poisoned: when a sibling thread (a
/// TCP node, a pool job) has already panicked, the data is still handed
/// out, so the original panic reaches the joiner instead of a
/// `PoisonError` cascade.  The simulator itself has no threads; this is
/// here for `mra-net` and the sweep pool.
pub fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

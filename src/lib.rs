//! # mra — distributed multi-resource allocation
//!
//! A reproduction of *"Reducing synchronization cost in distributed
//! multi-resource allocation problem"* (Lejeune, Arantes, Sopena, Sens —
//! ICPP 2015 / INRIA RR-8689), packaged as a workspace of reusable crates.
//!
//! This facade crate re-exports the workspace so examples and downstream
//! users can depend on a single crate:
//!
//! * [`core`] — the paper's algorithm (**LASS**): per-resource counters, a
//!   pluggable total order over requests, prioritized token trees and the
//!   loan mechanism.
//! * [`baselines`] — incremental locking, Bouabdallah–Laforest, the
//!   shared-memory ("central") scheduler and the Maddi broadcast algorithm.
//! * [`mutex`] — the Naimi-Trehel single-resource substrate.
//! * [`net`] — the real TCP transport: wire framing, the full-socket mesh,
//!   the loopback cluster harness and the solo node runtime behind the
//!   `mra-node` binary.
//! * [`obs`] — the observability layer: causal event tracing (Lamport
//!   stamps, JSONL export, consistency checks), per-message-type and
//!   transport counters, and the serving layer's log2 histogram.
//! * [`protocol`] — the engine-independent `Allocator` interface, the
//!   binary wire codec and a randomized virtual network for testing.
//! * [`serve`] — the allocation-as-a-service front end: open-loop arrival
//!   generators, the bounded admission queue with batching and per-class
//!   quotas, and arrival-keyed end-to-end latency accounting.
//! * [`sim`] — the deterministic discrete-event simulator, workload driver,
//!   metrics and Gantt tracing.
//! * [`workloads`] — the paper's workload model and experiment harness.
//! * [`types`] — time, ids and bitsets.
//!
//! ## Quickstart
//!
//! ```
//! use mra::workloads::{Algorithm, Scenario};
//!
//! // A small version of the paper's experiment: nodes request random
//! // resource subsets, hold them for a critical section, release.
//! let scenario = Scenario::builder()
//!     .nodes(8)
//!     .resources(20)
//!     .max_request_size(4)
//!     .measure_secs(2.0)
//!     .seed(42)
//!     .build();
//! let result = mra::workloads::run(Algorithm::LassLoan, &scenario);
//! assert!(result.cs_completed > 0);
//! println!("use rate = {:.1}%", 100.0 * result.use_rate());
//! ```

pub use mra_baselines as baselines;
pub use mra_core as core;
pub use mra_mutex as mutex;
pub use mra_net as net;
pub use mra_obs as obs;
pub use mra_protocol as protocol;
pub use mra_serve as serve;
pub use mra_sim as sim;
pub use mra_types as types;
pub use mra_workloads as workloads;

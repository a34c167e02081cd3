//! # mra-net — real TCP transport and node runtime
//!
//! The paper evaluated LASS on a 32-node cluster over OpenMPI; this crate
//! is the workspace's equivalent deployment surface.  It turns the pure
//! [`Allocator`](mra_protocol::Allocator) state machines into nodes that
//! talk over actual sockets — the third substrate, after the virtual
//! test network and the discrete-event simulator, and the only wall-clock
//! one — so wire-level and simulated behavior can be compared on the
//! same metrics ([`RunResult`](mra_sim::RunResult)).
//!
//! Layers:
//!
//! * [`frame`] — length-prefixed framing; messages are encoded with the
//!   hand-rolled [`WireCodec`](mra_protocol::WireCodec) implementations
//!   that live
//!   next to each protocol's message types (no serde: the wire format is
//!   specified in `mra_protocol::wire`).
//! * `reactor` (crate-private) — the TCP transport: one port per node
//!   owns every peer socket and drives them through the [`polling`]
//!   epoll shim (so TCP runs need a Linux host; the other two
//!   substrates stay portable) **on the node's own thread**, inside the
//!   `recv` the node loop waits in — one thread per node, no hand-off per
//!   message.  One **bidirectional** connection per unordered pair (TCP
//!   keeps each direction FIFO), write coalescing (many frames +
//!   piggybacked acks per `write(2)`), and reliability RTOs, connect
//!   retries and the node's own think/CS deadline bounding one wait.  The
//!   port also counts finished nodes for the shutdown.
//! * `runtime` (crate-private) — the per-node event loop: workload timers,
//!   the allocator step, grant/release accounting against the shared
//!   safety monitor and collector.  It has one port type and one caller,
//!   so it is concrete and lives here, beside its transport.
//! * [`sys`] — raw-FFI odds and ends `std` lacks: nonblocking
//!   `connect(2)`, listen-backlog deepening, fd rlimit raising, process
//!   CPU time and voluntary context switches for the benchmark and the
//!   wake-up guard (`tests/wakeups.rs`).
//! * `cluster` (crate-private) — the harnesses, two callers of one node
//!   runner over one [`TcpClusterConfig`] and a [`PeerDirectory`]:
//!   [`run_tcp_cluster`] runs an N-node loopback cluster as threads of
//!   one process (with full
//!   [`SafetyMonitor`](mra_protocol::testkit::SafetyMonitor) coverage);
//!   [`run_solo_node`] runs one node of a multi-process cluster.
//!
//! The `mra-node` binary wraps the harnesses into a CLI:
//!
//! ```text
//! mra-node --algo lass --nodes 8 --resources 16 --rounds 25
//! ```
//!
//! ## Example: LASS over real sockets
//!
//! ```
//! use mra_core::LassConfig;
//! use mra_net::{run_tcp_cluster, TcpClusterConfig};
//! use mra_sim::FixedWorkload;
//! use mra_types::Time;
//!
//! let cfg = LassConfig::with_loan(3, 6);
//! let workloads = (0..3)
//!     .map(|_| FixedWorkload {
//!         think: Time::from_micros(100),
//!         cs: Time::from_micros(200),
//!         m: 6,
//!         size: 2,
//!     })
//!     .collect();
//! let res = run_tcp_cluster(cfg.build_nodes(), workloads, 6, TcpClusterConfig::new(2, 7));
//! assert_eq!(res.cs_completed, 6); // 3 nodes x 2 rounds, zero violations
//! ```

mod cluster;
pub mod frame;
mod reactor;
mod runtime;
pub mod sys;

pub use cluster::{run_solo_node, run_tcp_cluster, NetBackend, PeerDirectory, TcpClusterConfig};

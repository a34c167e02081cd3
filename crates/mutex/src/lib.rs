//! Distributed single-resource mutual-exclusion substrates.
//!
//! The multi-resource baselines of the paper are built on classical mutual
//! exclusion algorithms:
//!
//! * [`naimi_trehel`] — the Naimi-Trehel token algorithm (O(log N) average
//!   message complexity, dynamic tree of "probable owner" pointers).  The
//!   **incremental** baseline runs `M` instances of it (one per resource)
//!   and **Bouabdallah–Laforest** uses one instance to circulate its control
//!   token (the paper's global lock).
//!
//! It is written *embedding-friendly*: handlers emit messages through a
//! caller-provided sink instead of owning a network handle, so a
//! multi-resource protocol can multiplex many instances over one message
//! type.  [`adapter::MutexAllocator`] lifts a [`NaimiTrehel`] instance into
//! the workspace-wide [`mra_protocol::Allocator`] interface for direct
//! testing.

pub mod adapter;
pub mod naimi_trehel;
pub mod wire;

pub use adapter::MutexAllocator;
pub use naimi_trehel::{NaimiTrehel, NtMsg};

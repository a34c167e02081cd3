//! # mra-baselines — comparison algorithms from the paper's evaluation
//!
//! The paper (§5) compares its algorithm against representatives of both
//! families of multi-resource solutions plus an ideal scheduler:
//!
//! * [`incremental`] — the **incremental family** (§2.1): one
//!   Naimi-Trehel mutual-exclusion instance per resource, acquired in
//!   ascending resource order.  Correct and simple, but suffers the *domino
//!   effect*: a process holds resources while blocked on later ones,
//!   freezing whole chains of waiters.
//! * [`bouabdallah_laforest`] — the strongest member of the **simultaneous
//!   family** (§2.2): a unique *control token* (circulated by Naimi-Trehel)
//!   serializes request registration; per-resource tokens then travel along
//!   INQUIRE chains.  Message-efficient, but the control token is a global
//!   lock: non-conflicting processes still synchronize on it, and the
//!   schedule is fixed by control-token acquisition order.
//! * [`central`] — the paper's *"in shared memory"* curve: a zero-cost
//!   global scheduler with one waiting queue, run with zero network latency.
//!   It upper-bounds what any distributed algorithm could achieve.
//! * [`maddi`] — the broadcast family (Maddi, SAC'97), described by the
//!   paper as multiple Suzuki-Kasami instances with Lamport-timestamped
//!   requests; O(N) messages per request.
//!
//! All four implement [`mra_protocol::Allocator`] and run unchanged under
//! the virtual test network, the discrete-event simulator and the
//! `mra-net` TCP transport ([`wire`] holds the codecs).

pub mod bouabdallah_laforest;
pub mod central;
pub mod incremental;
pub mod maddi;
pub mod wire;

pub use bouabdallah_laforest::{BlMsg, BouabdallahLaforest, ControlToken, CtEntry};
pub use central::{Central, CentralMsg, CentralSched, GrantPolicy};
pub use incremental::{IncMsg, Incremental};
pub use maddi::{MadMsg, Maddi};

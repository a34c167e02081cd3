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
//! type.  [`adapter::MutexAllocator`] lifts any [`SingleMutex`] into the
//! workspace-wide [`mra_protocol::Allocator`] interface for direct testing.

pub mod adapter;
pub mod naimi_trehel;
pub mod wire;

pub use adapter::MutexAllocator;
pub use naimi_trehel::{NaimiTrehel, NtMsg};

use mra_types::NodeId;

/// A single-resource distributed mutual-exclusion protocol with an
/// embeddable, sink-based interface.
///
/// `out` receives `(destination, message)` pairs; handlers return `true`
/// when the caller has just acquired the token (and may enter its critical
/// section).
pub trait SingleMutex {
    /// Wire message type of this mutex protocol.
    type Msg;

    /// Ask for the critical section.  Returns `true` if the token is already
    /// held (immediate acquisition).
    fn request(&mut self, out: &mut dyn FnMut(NodeId, Self::Msg)) -> bool;

    /// Deliver a protocol message.  Returns `true` if this message completed
    /// an acquisition.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        out: &mut dyn FnMut(NodeId, Self::Msg),
    ) -> bool;

    /// Leave the critical section.
    fn release(&mut self, out: &mut dyn FnMut(NodeId, Self::Msg));

    /// Does this node currently hold the token?
    fn holds_token(&self) -> bool;

    /// Is this node waiting for the token?
    fn is_requesting(&self) -> bool;
}

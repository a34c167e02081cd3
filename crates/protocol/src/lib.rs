//! Engine-independent protocol API.
//!
//! Every allocation algorithm in this workspace (the paper's LASS algorithm
//! and all baselines) is written as a *pure message-driven state machine*
//! implementing [`Allocator`].  Handlers never talk to a network or a clock
//! directly: they receive a [`Ctx`] that buffers outgoing messages and
//! records a "granted" signal.  This makes the same protocol code runnable
//! under three substrates without modification:
//!
//! 1. `mra-testkit`'s `VirtualNet` — a synchronous, randomized-interleaving
//!    network used for unit tests and property-based safety/liveness tests
//!    (a dev-only crate; every engine shares [`testkit::SafetyMonitor`]);
//! 2. `mra-sim`'s discrete-event simulator — adds virtual time, link
//!    latencies and the paper's workload model (the substrate used for all
//!    figure reproductions);
//! 3. `mra-net`'s TCP transport — real threads and real sockets, one
//!    process or many, using the [`wire`] codecs to put messages on an
//!    actual wire.
//!
//! Under the protocols sits the link layer: [`faults`] (what the wire does
//! to a frame), [`reliable`] (the session protocol that repairs it) and
//! [`link::Link`], which composes the two for the engines that own every
//! link of a run (1 and 2).

pub mod faults;
pub mod link;
pub mod reliable;
pub mod testkit;
pub mod wire;

pub use faults::{FaultPlan, FaultStats, LinkFaults};
pub use reliable::{Reliability, ReliabilityStats};
pub use wire::{DecodeError, WireCodec, WireReader};

use mra_types::{NodeId, ResourceSet, Time};
use std::fmt;

/// The four states of a process (paper Fig. 2).
///
/// * `Idle` — not requesting.
/// * `WaitS` — waiting for the requested counter values (LASS only; other
///   algorithms go straight to `WaitCS`).
/// * `WaitCS` — waiting for the right to access all requested resources.
/// * `InCS` — executing the critical section.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcState {
    Idle,
    WaitS,
    WaitCS,
    InCS,
}

impl fmt::Display for ProcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcState::Idle => "idle",
            ProcState::WaitS => "waitS",
            ProcState::WaitCS => "waitCS",
            ProcState::InCS => "inCS",
        };
        f.write_str(s)
    }
}

/// Metadata every wire message must expose so that engines can account for
/// message complexity without knowing concrete protocol types.
pub trait WireMsg: Clone + fmt::Debug + Send + 'static {
    /// Stable short name of the message kind (e.g. `"ReqCnt"`, `"Token"`),
    /// used to aggregate per-kind message counts.
    fn kind(&self) -> &'static str;

    /// Approximate payload size in integer-sized units.  Only used for the
    /// message-volume metric; the default of 1 suits fixed-size messages.
    fn weight(&self) -> usize {
        1
    }
}

/// Execution context handed to every protocol handler invocation.
///
/// Collects outgoing messages (the engine drains them after the handler
/// returns, preserving send order on each link) and the `granted` edge
/// signal raised when the process enters its critical section.  Between
/// handlers it holds nothing, so an engine that runs one handler at a time
/// keeps one and points it at each dispatching node ([`Ctx::set_me`]).
#[derive(Clone)]
pub struct Ctx<M> {
    now: Time,
    me: NodeId,
    n_nodes: usize,
    granted: bool,
    outbox: Vec<(NodeId, M)>,
}

impl<M> Ctx<M> {
    /// Create a context for node `me` in a system of `n_nodes` nodes.
    pub fn new(me: NodeId, n_nodes: usize) -> Self {
        assert!(me < n_nodes, "node id {me} out of range 0..{n_nodes}");
        Ctx {
            now: Time::ZERO,
            me,
            n_nodes,
            granted: false,
            outbox: Vec::new(),
        }
    }

    /// Current time.  Under `VirtualNet` this is a step counter; under the
    /// simulator it is virtual time; under the TCP runtime, wall time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Set the current time (engine-side; protocols only read it).
    #[inline]
    pub fn set_now(&mut self, t: Time) {
        self.now = t;
    }

    /// Point the context at node `me` (engine-side, before a handler; the
    /// outbox must have been drained and the grant edge taken).
    #[inline]
    pub fn set_me(&mut self, me: NodeId) {
        assert!(
            me < self.n_nodes,
            "node id {me} out of range 0..{}",
            self.n_nodes
        );
        debug_assert!(
            self.outbox.is_empty() && !self.granted,
            "context not drained"
        );
        self.me = me;
    }

    /// This node's identifier.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Total number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Queue `msg` for delivery to `to`.
    ///
    /// Self-sends are a protocol bug (every algorithm here short-circuits
    /// local decisions), so they panic in all builds.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        assert!(to < self.n_nodes, "send to unknown node {to}");
        assert!(to != self.me, "protocol bug: node {} sent a message to itself", self.me);
        self.outbox.push((to, msg));
    }

    /// Queue `msg` for every node except `me` (used by broadcast-based
    /// algorithms such as the Maddi baseline).
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for to in 0..self.n_nodes {
            if to != self.me {
                self.outbox.push((to, msg.clone()));
            }
        }
    }

    /// Signal that this process has just entered its critical section.
    ///
    /// Raised at most once per request; engines turn the edge into workload
    /// bookkeeping (start of CS hold timer, waiting-time metric).
    #[inline]
    pub fn grant(&mut self) {
        self.granted = true;
    }

    /// Engine-side: consume the granted edge, resetting it.
    #[inline]
    pub fn take_granted(&mut self) -> bool {
        std::mem::replace(&mut self.granted, false)
    }

    /// Engine-side: drain the queued outgoing messages in send order.
    ///
    /// Allocates a fresh `Vec` per call; engine hot loops should prefer
    /// [`Ctx::drain_outbox`], which drains in place and keeps the capacity.
    #[inline]
    pub fn take_outbox(&mut self) -> Vec<(NodeId, M)> {
        std::mem::take(&mut self.outbox)
    }

    /// Engine-side: drain the queued outgoing messages in place, in send
    /// order.  The outbox itself is the reused buffer — its capacity
    /// survives the drain — so this is the cheapest dispatch path: no
    /// allocation, no copy into a side buffer.
    #[inline]
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, (NodeId, M)> {
        self.outbox.drain(..)
    }

    /// True if there are buffered outgoing messages.  Engines ask before
    /// draining, so a step that sent nothing skips the send path.
    #[inline]
    pub fn has_output(&self) -> bool {
        !self.outbox.is_empty()
    }
}

/// A distributed multi-resource allocation protocol instance (one per node).
///
/// # Contract
///
/// * `request` may only be called in state `Idle`; `release` only in `InCS`
///   (the paper's hypothesis 4: one outstanding request per process).
/// * The protocol signals CS entry by calling [`Ctx::grant`] — either
///   synchronously inside `request` (everything locally available) or later
///   inside `on_message`.
/// * Handlers must not block; all waiting is encoded in protocol state.
pub trait Allocator {
    /// The protocol's wire message type.
    type Msg: WireMsg;

    /// Called once before any message flows (e.g. initial token placement).
    fn on_init(&mut self, ctx: &mut Ctx<Self::Msg>);

    /// Deliver one message from `from`.
    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Ask for exclusive access to `resources` (the paper's `Request_CS`).
    fn request(&mut self, ctx: &mut Ctx<Self::Msg>, resources: ResourceSet);

    /// Leave the critical section and release all resources
    /// (the paper's `Release_CS`).
    fn release(&mut self, ctx: &mut Ctx<Self::Msg>);

    /// Current process state.
    fn state(&self) -> ProcState;

    /// Short algorithm name for reports (e.g. `"lass+loan"`).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Ping;
    impl WireMsg for Ping {
        fn kind(&self) -> &'static str {
            "Ping"
        }
    }

    #[test]
    fn ctx_buffers_sends_in_order() {
        let mut ctx: Ctx<Ping> = Ctx::new(0, 3);
        ctx.send(1, Ping);
        ctx.send(2, Ping);
        ctx.send(1, Ping);
        let out = ctx.take_outbox();
        assert_eq!(out.iter().map(|(to, _)| *to).collect::<Vec<_>>(), vec![1, 2, 1]);
        assert!(!ctx.has_output());
    }

    #[test]
    fn drain_outbox_iterates_in_send_order_and_keeps_capacity() {
        let mut ctx: Ctx<Ping> = Ctx::new(0, 4);
        ctx.send(1, Ping);
        ctx.send(3, Ping);
        ctx.send(2, Ping);
        let cap = ctx.outbox.capacity();
        let to: Vec<usize> = ctx.drain_outbox().map(|(t, _)| t).collect();
        assert_eq!(to, vec![1, 3, 2]);
        assert!(!ctx.has_output());
        assert_eq!(ctx.outbox.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn ctx_rejects_self_send() {
        let mut ctx: Ctx<Ping> = Ctx::new(1, 3);
        ctx.send(1, Ping);
    }

    #[test]
    #[should_panic(expected = "node 2 sent a message to itself")]
    fn set_me_moves_the_self_send_check() {
        let mut ctx: Ctx<Ping> = Ctx::new(0, 3);
        ctx.send(2, Ping);
        ctx.drain_outbox();
        ctx.set_me(2);
        ctx.send(0, Ping);
        ctx.drain_outbox();
        ctx.send(2, Ping);
    }

    #[test]
    fn granted_is_an_edge() {
        let mut ctx: Ctx<Ping> = Ctx::new(0, 2);
        assert!(!ctx.take_granted());
        ctx.grant();
        assert!(ctx.take_granted());
        assert!(!ctx.take_granted());
    }

    #[test]
    fn broadcast_reaches_everyone_but_self() {
        let mut ctx: Ctx<Ping> = Ctx::new(1, 4);
        ctx.broadcast(Ping);
        let to: Vec<_> = ctx.take_outbox().into_iter().map(|(t, _)| t).collect();
        assert_eq!(to, vec![0, 2, 3]);
    }
}

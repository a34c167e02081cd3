//! The Naimi-Trehel token-based mutual exclusion algorithm.
//!
//! Reference: M. Naimi, M. Trehel, *An improvement of the log(n) distributed
//! algorithm for mutual exclusion* (ICDCS 1987) — citation \[18\] of the
//! paper.  The paper's **incremental** baseline uses `M` instances of it and
//! **Bouabdallah–Laforest** uses one instance to manage its control token.
//!
//! The algorithm maintains two distributed structures:
//!
//! * a dynamic logical tree of `father` ("probable owner") pointers whose
//!   root is the last requester — requests are forwarded along `father`
//!   pointers and every forwarder re-points its `father` to the new
//!   requester, which keeps paths short (O(log N) amortized);
//! * a distributed queue of pending requests threaded through `next`
//!   pointers — the token travels along `next` on release.
//!
//! The token is generic over a payload `T` so that embedding protocols can
//! piggyback state on it (Bouabdallah–Laforest's control token carries the
//! per-resource vector).

use mra_protocol::WireMsg;
use mra_types::NodeId;
use std::fmt;

/// Wire messages of the Naimi-Trehel algorithm.
#[derive(Clone)]
pub enum NtMsg<T> {
    /// `Request { origin }`: forwarded along the `father` chain until it
    /// reaches the root (last requester or idle holder).
    Request {
        /// The node asking for the token.
        origin: NodeId,
    },
    /// The token itself, carrying the embedded payload.
    Token(T),
}

impl<T> fmt::Debug for NtMsg<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NtMsg::Request { origin } => write!(f, "NtRequest(origin={origin})"),
            NtMsg::Token(_) => write!(f, "NtToken"),
        }
    }
}

impl<T: Clone + Send + 'static> WireMsg for NtMsg<T> {
    fn kind(&self) -> &'static str {
        match self {
            NtMsg::Request { .. } => "NT::Request",
            NtMsg::Token(_) => "NT::Token",
        }
    }
}

/// One node's state in one Naimi-Trehel instance.
#[derive(Clone)]
pub struct NaimiTrehel<T> {
    me: NodeId,
    /// Probable owner: `None` iff this node believes it is the tree root.
    father: Option<NodeId>,
    /// Successor in the distributed waiting queue.
    next: Option<NodeId>,
    /// True between `request` and `release`.
    requesting: bool,
    /// The token payload, when held.
    token: Option<T>,
}

impl<T> NaimiTrehel<T> {
    /// Create the instance for node `me`.  `elected` initially holds the
    /// token (and must call [`NaimiTrehel::give_initial_token`]); everyone
    /// else points their `father` at it.
    pub fn new(me: NodeId, elected: NodeId) -> Self {
        NaimiTrehel {
            me,
            father: if me == elected { None } else { Some(elected) },
            next: None,
            requesting: false,
            token: None,
        }
    }

    /// Install the initial token payload on the elected node.
    ///
    /// # Panics
    /// If called on a node whose `father` is set (not the elected root).
    pub fn give_initial_token(&mut self, payload: T) {
        assert!(self.father.is_none(), "initial token on a non-root node");
        assert!(self.token.is_none(), "token installed twice");
        self.token = Some(payload);
    }

    /// Read-only access to the held token payload.
    pub fn token(&self) -> Option<&T> {
        self.token.as_ref()
    }

    /// Mutable access to the held token payload (embedders update
    /// piggybacked state in place).
    pub fn token_mut(&mut self) -> Option<&mut T> {
        self.token.as_mut()
    }

    /// This node's current probable-owner pointer (test/diagnostic hook).
    pub fn father(&self) -> Option<NodeId> {
        self.father
    }

    /// Ask for the token.  Returns `true` if it is already here (this node
    /// was the idle root), in which case the caller is in its critical
    /// section immediately.
    pub fn request(&mut self, out: &mut dyn FnMut(NodeId, NtMsg<T>)) -> bool {
        assert!(!self.requesting, "NT node {} requested twice", self.me);
        self.requesting = true;
        match self.father {
            None => {
                debug_assert!(
                    self.token.is_some(),
                    "root without token cannot be idle (node {})",
                    self.me
                );
                true
            }
            Some(f) => {
                out(f, NtMsg::Request { origin: self.me });
                // We become a root-in-waiting: the last requester is the
                // root of the (new) tree.
                self.father = None;
                false
            }
        }
    }

    /// Deliver a message.  Returns `true` when the token has just arrived
    /// for our own pending request.
    pub fn on_message(
        &mut self,
        msg: NtMsg<T>,
        out: &mut dyn FnMut(NodeId, NtMsg<T>),
    ) -> bool {
        match msg {
            NtMsg::Request { origin } => {
                match self.father {
                    None => {
                        if self.requesting {
                            // We are the last requester: `origin` queues
                            // behind us.
                            debug_assert!(
                                self.next.is_none(),
                                "NT: second successor for node {}",
                                self.me
                            );
                            self.next = Some(origin);
                        } else {
                            // Idle holder: hand the token over directly.
                            let t = self
                                .token
                                .take()
                                .expect("idle NT root must hold the token");
                            out(origin, NtMsg::Token(t));
                        }
                    }
                    Some(f) => out(f, NtMsg::Request { origin }),
                }
                // In all cases the requester becomes the new probable owner.
                self.father = Some(origin);
                false
            }
            NtMsg::Token(t) => {
                debug_assert!(self.token.is_none(), "duplicate NT token");
                self.token = Some(t);
                // The token only travels toward requesters, so this node
                // must be waiting for it.
                debug_assert!(self.requesting, "NT token arrived unrequested");
                self.requesting
            }
        }
    }

    /// Leave the critical section: pass the token to the queued successor,
    /// if any; otherwise keep it (idle holder).
    pub fn release(&mut self, out: &mut dyn FnMut(NodeId, NtMsg<T>)) {
        assert!(self.requesting, "NT release without request");
        assert!(self.token.is_some(), "NT release without token");
        self.requesting = false;
        if let Some(nxt) = self.next.take() {
            let t = self.token.take().expect("checked above");
            out(nxt, NtMsg::Token(t));
        }
    }

    /// Does this node currently hold the token?
    pub fn holds_token(&self) -> bool {
        self.token.is_some()
    }

    /// Is this node waiting for (or using) the token?
    pub fn is_requesting(&self) -> bool {
        self.requesting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Tiny synchronous harness: delivers NT messages FIFO globally.
    struct Ring {
        nodes: Vec<NaimiTrehel<u32>>,
        queue: VecDeque<(NodeId, NtMsg<u32>)>,
        acquired: Vec<bool>,
    }

    impl Ring {
        fn new(n: usize) -> Self {
            let mut nodes: Vec<NaimiTrehel<u32>> =
                (0..n).map(|i| NaimiTrehel::new(i, 0)).collect();
            nodes[0].give_initial_token(42);
            Ring {
                nodes,
                queue: VecDeque::new(),
                acquired: vec![false; n],
            }
        }

        fn request(&mut self, i: NodeId) {
            let mut q = std::mem::take(&mut self.queue);
            let got = self.nodes[i].request(&mut |to, m| q.push_back((to, m)));
            self.queue = q;
            if got {
                self.acquired[i] = true;
            }
        }

        fn release(&mut self, i: NodeId) {
            let mut q = std::mem::take(&mut self.queue);
            self.nodes[i].release(&mut |to, m| q.push_back((to, m)));
            self.queue = q;
            self.acquired[i] = false;
        }

        fn pump(&mut self) {
            while let Some((to, msg)) = self.queue.pop_front() {
                let mut q = std::mem::take(&mut self.queue);
                let got = self.nodes[to].on_message(msg, &mut |t, m| q.push_back((t, m)));
                self.queue = q;
                if got {
                    self.acquired[to] = true;
                }
            }
        }

        fn holders(&self) -> Vec<NodeId> {
            (0..self.nodes.len())
                .filter(|&i| self.nodes[i].holds_token())
                .collect()
        }
    }

    #[test]
    fn initial_root_acquires_immediately() {
        let mut ring = Ring::new(3);
        ring.request(0);
        assert!(ring.acquired[0]);
        ring.release(0);
        assert_eq!(ring.holders(), vec![0]); // keeps token while idle
    }

    #[test]
    fn token_travels_to_requester() {
        let mut ring = Ring::new(3);
        ring.request(2);
        ring.pump();
        assert!(ring.acquired[2]);
        assert_eq!(ring.holders(), vec![2]);
        // Payload travelled with the token.
        assert_eq!(ring.nodes[2].token(), Some(&42));
    }

    #[test]
    fn queue_chains_through_next_pointers() {
        let mut ring = Ring::new(4);
        ring.request(0); // holder uses it
        ring.request(1);
        ring.pump();
        ring.request(2);
        ring.pump();
        ring.request(3);
        ring.pump();
        assert!(ring.acquired[0]);
        assert!(!ring.acquired[1] && !ring.acquired[2] && !ring.acquired[3]);
        ring.release(0);
        ring.pump();
        assert!(ring.acquired[1]);
        ring.release(1);
        ring.pump();
        assert!(ring.acquired[2]);
        ring.release(2);
        ring.pump();
        assert!(ring.acquired[3]);
        ring.release(3);
        ring.pump();
        assert_eq!(ring.holders(), vec![3]);
    }

    #[test]
    fn mutual_exclusion_over_many_rounds() {
        let n = 5;
        let mut ring = Ring::new(n);
        // Simple deterministic schedule: everyone requests, pump, the unique
        // acquirer releases; repeat.
        for round in 0..10 {
            for i in 0..n {
                if !ring.nodes[i].is_requesting() {
                    ring.request(i);
                }
            }
            ring.pump();
            let owners: Vec<_> = (0..n).filter(|&i| ring.acquired[i]).collect();
            assert_eq!(owners.len(), 1, "round {round}: owners = {owners:?}");
            ring.release(owners[0]);
            ring.pump();
            // After a release+pump someone else acquired (or nobody if all done).
        }
    }

    #[test]
    #[should_panic(expected = "requested twice")]
    fn double_request_panics() {
        let mut ring = Ring::new(2);
        ring.request(1);
        ring.request(1);
    }
}

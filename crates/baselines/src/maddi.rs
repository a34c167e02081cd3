//! The Maddi broadcast baseline (paper §2.2; citation \[14\]).
//!
//! Reference: A. Maddi, *Token based solutions to m resources allocation
//! problem* (SAC 1997).  The paper describes it as "multiple instances of
//! the Suzuki-Kasami mutual exclusion algorithm": each resource has a unique
//! token; each request is stamped with the requester's Lamport clock and
//! **broadcast to all nodes**, which store it in per-resource queues ordered
//! by `(timestamp, node)` — one shared total order.
//!
//! Tokens are granted strictly in that order: a token holder that is not in
//! its critical section yields the token to the head of the local queue.
//! Because every queue is a view of the same total order, the globally
//! minimal pending request can always gather all of its tokens — no
//! deadlock, and timestamps grow, so no starvation.
//!
//! The price is message complexity: `N − 1` broadcast messages per request
//! plus token moves — the "not scalable" family of the paper's related
//! work.  Implemented here as the broadcast representative for the
//! benchmark extensions.

use mra_protocol::{Allocator, Ctx, ProcState, WireMsg};
use mra_types::{NodeId, ResourceId, ResourceSet};
use std::fmt;

/// Per-resource token: carries the timestamp of the last served request of
/// every node (à la Suzuki-Kasami's `LN` array) so queues can be purged.
#[derive(Clone, Debug)]
pub struct MadToken {
    /// `served[i]`: Lamport timestamp of node `i`'s last completed request.
    pub served: Vec<u64>,
}

/// Wire messages of the Maddi algorithm.
#[derive(Clone)]
pub enum MadMsg {
    /// Broadcast to every node on request.
    Request {
        /// Requesting node.
        origin: NodeId,
        /// Lamport timestamp of the request.
        ts: u64,
        /// The full resource set requested.
        set: ResourceSet,
    },
    /// A resource token moving to its next holder.
    Token {
        /// The resource.
        r: ResourceId,
        /// The token payload.
        tok: MadToken,
    },
}

impl fmt::Debug for MadMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MadMsg::Request { origin, ts, set } => {
                write!(f, "Mad::Request({origin}@{ts} {:?})", set.to_vec())
            }
            MadMsg::Token { r, .. } => write!(f, "Mad::Token(r{r})"),
        }
    }
}

impl WireMsg for MadMsg {
    fn kind(&self) -> &'static str {
        match self {
            MadMsg::Request { .. } => "Mad::Request",
            MadMsg::Token { .. } => "Mad::Token",
        }
    }

    fn weight(&self) -> usize {
        match self {
            MadMsg::Request { .. } => 6,
            MadMsg::Token { tok, .. } => 1 + tok.served.len(),
        }
    }
}

/// One pending request as seen in a local per-resource queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct QEntry {
    ts: u64,
    origin: NodeId,
}

impl QEntry {
    fn key(&self) -> (u64, NodeId) {
        (self.ts, self.origin)
    }
}

/// One node of the Maddi algorithm.
#[derive(Clone)]
pub struct Maddi {
    me: NodeId,
    m: usize,
    state: ProcState,
    clock: u64,
    /// Timestamp of the current request.
    my_ts: u64,
    required: ResourceSet,
    /// Tokens currently held (authoritative `served` arrays).
    tokens: Vec<Option<MadToken>>,
    /// Local per-resource queues of known pending requests, sorted by
    /// `(ts, origin)`.
    queues: Vec<Vec<QEntry>>,
}

impl Maddi {
    /// Create node `me` of `n`; `elected` initially holds every token.
    pub fn new(me: NodeId, n: usize, m: usize, elected: NodeId) -> Self {
        Maddi {
            me,
            m,
            state: ProcState::Idle,
            clock: 0,
            my_ts: 0,
            required: ResourceSet::new(),
            tokens: (0..m)
                .map(|_| (me == elected).then(|| MadToken { served: vec![0; n] }))
                .collect(),
            queues: (0..m).map(|_| Vec::new()).collect(),
        }
    }

    /// Build all nodes of a system.
    pub fn build_nodes(n: usize, m: usize) -> Vec<Maddi> {
        (0..n).map(|i| Maddi::new(i, n, m, 0)).collect()
    }

    /// Tokens held (diagnostics).
    pub fn held(&self) -> ResourceSet {
        (0..self.m).filter(|&r| self.tokens[r].is_some()).collect()
    }

    fn insert_queue(&mut self, r: ResourceId, e: QEntry) {
        // A node has one outstanding request: an entry with a newer ts
        // supersedes older ones from the same origin.
        self.queues[r].retain(|q| q.origin != e.origin || q.ts >= e.ts);
        if self.queues[r].iter().any(|q| q.origin == e.origin) {
            return;
        }
        let pos = self.queues[r].partition_point(|q| q.key() <= e.key());
        self.queues[r].insert(pos, e);
    }

    /// Drop queue entries already served according to the held token.
    fn purge(&mut self, r: ResourceId) {
        if let Some(tok) = &self.tokens[r] {
            let served = tok.served.clone();
            self.queues[r].retain(|q| q.ts > served[q.origin]);
        }
    }

    /// Core scheduling step: for every held token, serve the queue head —
    /// ourselves (claim) or another node (yield) — unless we are using the
    /// resource in our CS.
    fn schedule(&mut self, ctx: &mut Ctx<MadMsg>) {
        for r in 0..self.m {
            if self.tokens[r].is_none() {
                continue;
            }
            self.purge(r);
            let Some(&head) = self.queues[r].first() else {
                continue;
            };
            if head.origin == self.me {
                continue; // our claim: hold on to it
            }
            if self.state == ProcState::InCS && self.required.contains(r) {
                continue; // in use; the head waits for our release
            }
            // Yield to the globally older request.
            let tok = self.tokens[r].take().expect("held");
            ctx.send(head.origin, MadMsg::Token { r, tok });
        }
        self.try_enter(ctx);
    }

    /// Enter the CS iff we hold every required token and head every queue.
    fn try_enter(&mut self, ctx: &mut Ctx<MadMsg>) {
        if self.state != ProcState::WaitCS {
            return;
        }
        for r in self.required.iter() {
            if self.tokens[r].is_none() {
                return;
            }
            match self.queues[r].first() {
                Some(head) if head.origin == self.me => {}
                _ => return, // purge keeps our own entry while pending
            }
        }
        self.state = ProcState::InCS;
        ctx.grant();
    }
}

impl Allocator for Maddi {
    type Msg = MadMsg;

    fn on_init(&mut self, _ctx: &mut Ctx<MadMsg>) {}

    fn on_message(&mut self, ctx: &mut Ctx<MadMsg>, _from: NodeId, msg: MadMsg) {
        match msg {
            MadMsg::Request { origin, ts, set } => {
                self.clock = self.clock.max(ts);
                for r in set.iter() {
                    self.insert_queue(r, QEntry { ts, origin });
                }
                self.schedule(ctx);
            }
            MadMsg::Token { r, tok } => {
                debug_assert!(self.tokens[r].is_none(), "duplicate token {r}");
                self.tokens[r] = Some(tok);
                self.schedule(ctx);
            }
        }
    }

    fn request(&mut self, ctx: &mut Ctx<MadMsg>, resources: ResourceSet) {
        assert_eq!(self.state, ProcState::Idle, "request while busy");
        assert!(!resources.is_empty());
        self.clock += 1;
        self.my_ts = self.clock;
        self.required = resources.clone();
        self.state = ProcState::WaitCS;
        let me = self.me;
        let ts = self.my_ts;
        for r in resources.iter() {
            self.insert_queue(r, QEntry { ts, origin: me });
        }
        ctx.broadcast(MadMsg::Request {
            origin: me,
            ts,
            set: resources,
        });
        self.schedule(ctx);
    }

    fn release(&mut self, ctx: &mut Ctx<MadMsg>) {
        assert_eq!(self.state, ProcState::InCS, "release outside CS");
        self.state = ProcState::Idle;
        let me = self.me;
        let ts = self.my_ts;
        for r in self.required.iter() {
            let tok = self.tokens[r].as_mut().expect("used token is held");
            tok.served[me] = ts;
        }
        self.required.clear();
        self.schedule(ctx);
    }

    fn state(&self) -> ProcState {
        self.state
    }

    fn name(&self) -> &'static str {
        "maddi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_testkit::{check_schedules, ExerciseCfg, VirtualNet};

    #[test]
    fn elected_holder_enters_immediately() {
        let mut nodes = Maddi::build_nodes(3, 4);
        let mut ctx = Ctx::new(0, 3);
        nodes[0].request(&mut ctx, [0, 2].into_iter().collect());
        assert!(ctx.take_granted());
        // Broadcast still goes out (2 messages).
        assert_eq!(ctx.take_outbox().len(), 2);
    }

    #[test]
    fn token_yields_to_older_timestamp() {
        let mut nodes = Maddi::build_nodes(3, 1);
        let mut c0 = Ctx::new(0, 3);
        let mut c1 = Ctx::new(1, 3);
        let mut c2 = Ctx::new(2, 3);
        let set = ResourceSet::singleton(0);
        // Node 1 and node 2 request concurrently, same clock values: the
        // node id breaks the tie, so node 1 must win.
        nodes[1].request(&mut c1, set.clone());
        nodes[2].request(&mut c2, set);
        // Deliver both broadcasts to node 0 (the idle holder).
        for (to, m) in c1.take_outbox() {
            if to == 0 {
                nodes[0].on_message(&mut c0, 1, m);
            }
        }
        let first = c0.take_outbox();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].0, 1, "token goes to node 1");
        for (to, m) in c2.take_outbox() {
            if to == 0 {
                nodes[0].on_message(&mut c0, 2, m);
            }
        }
        assert!(c0.take_outbox().is_empty(), "token already gone");
    }

    #[test]
    fn random_runs_safe_and_live() {
        let net = VirtualNet::new(Maddi::build_nodes(5, 8), 8);
        let cfg = ExerciseCfg {
            rounds_per_node: 6,
            max_req_size: 4,
            m: 8,
            hold_steps: 3,
            active_nodes: None,
            step_cap: 3_000_000,
        };
        check_schedules(&net, &cfg, 0..12, |net, _| {
            // Quiet: every token exists exactly once.
            let mut seen = ResourceSet::new();
            for i in 0..5 {
                let h = net.node(i).held();
                assert!(seen.is_disjoint(&h), "token duplicated");
                seen.union_with(&h);
            }
            assert_eq!(seen, ResourceSet::full(8), "token lost");
        });
    }
}

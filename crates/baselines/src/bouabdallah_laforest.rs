//! The Bouabdallah–Laforest algorithm (paper §2.2; citation \[5\]).
//!
//! Reference: A. Bouabdallah, C. Laforest, *A distributed token-based
//! algorithm for the dynamic resource allocation problem*, Operating
//! Systems Review 34(3), 2000.
//!
//! A unique **control token** holds, for every resource, either the
//! resource token itself or the identity of its *last requester*.  Before
//! requesting anything, a process must acquire the control token (here
//! circulated by a Naimi-Trehel instance — the "global lock" the paper sets
//! out to eliminate).  While holding it, the process atomically:
//!
//! * grabs the resource tokens present in the control token, and
//! * sends an `INQUIRE` to the last requester of each absent one, recording
//!   itself as the new last requester,
//!
//! then passes the control token on.  Because registration is serialized by
//! the control token, the per-resource waiting chains are prefixes of one
//! global order and can never form a cycle: deadlock-free.
//!
//! The cost is exactly what the paper attacks: two *non-conflicting*
//! processes still synchronize on the control token, and the schedule is
//! frozen at control-token acquisition time (no overtaking, no loans).

use mra_mutex::{NaimiTrehel, NtMsg};
use mra_protocol::{Allocator, Ctx, ProcState, WireMsg};
use mra_types::{NodeId, ResourceId, ResourceSet};
use std::fmt;

/// One entry of the control token.
///
/// A `Last` entry carries the **registration epoch**: the sequence number
/// of the registration that wrote it (strictly increasing per resource,
/// serialized by the control token).  Every `INQUIRE` cites the epoch it
/// chases, and a holder only surrenders a kept token to the inquirer of
/// the epoch the token was held under.  Without the epoch, a node that
/// kept a token, re-registered, and then received a *later* registrant's
/// inquire before the overdue inquire of an *earlier* registrant would
/// hand the token out of chain order — corrupting the per-resource waiting
/// chain into a cycle (a real deadlock, first reproduced by the reliable
/// session layer's maximally-late retransmission of a dropped inquire).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtEntry {
    /// The resource token itself is stored in the control token.
    Token,
    /// The resource token is (or will be) held by this last requester,
    /// registered at this epoch.
    Last(NodeId, u64),
}

/// The control token: one entry per resource.
#[derive(Clone, Debug)]
pub struct ControlToken {
    /// `entries[r]` describes where resource `r`'s token is.
    pub entries: Vec<CtEntry>,
}

impl ControlToken {
    /// Initial control token: every resource token inside.
    pub fn new(m: usize) -> Self {
        ControlToken {
            entries: vec![CtEntry::Token; m],
        }
    }
}

/// Wire messages of Bouabdallah–Laforest.
#[derive(Clone)]
pub enum BlMsg {
    /// Naimi-Trehel traffic circulating the control token.
    Nt(NtMsg<ControlToken>),
    /// "Send me resource `r`'s token once you are done with it."
    Inquire {
        /// The inquired resource.
        r: ResourceId,
        /// The requester (new last requester).
        from: NodeId,
        /// The registration epoch this inquire chases (the `CtEntry::Last`
        /// seq read at registration time): the receiver hands its kept
        /// token over only if it holds it *under this epoch*.
        pred: u64,
    },
    /// The resource token of `r`, travelling along the inquire chain.
    ResTok {
        /// The resource whose token this is.
        r: ResourceId,
    },
}

impl fmt::Debug for BlMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlMsg::Nt(m) => write!(f, "BL::{m:?}"),
            BlMsg::Inquire { r, from, pred } => {
                write!(f, "BL::Inquire(r{r} for {from} chasing #{pred})")
            }
            BlMsg::ResTok { r } => write!(f, "BL::ResTok(r{r})"),
        }
    }
}

impl WireMsg for BlMsg {
    fn kind(&self) -> &'static str {
        match self {
            BlMsg::Nt(NtMsg::Request { .. }) => "BL::CtRequest",
            BlMsg::Nt(NtMsg::Token(_)) => "BL::CtToken",
            BlMsg::Inquire { .. } => "BL::Inquire",
            BlMsg::ResTok { .. } => "BL::ResTok",
        }
    }

    fn weight(&self) -> usize {
        match self {
            BlMsg::Nt(NtMsg::Token(ct)) => 1 + ct.entries.len(),
            _ => 2,
        }
    }
}

/// One node of the Bouabdallah–Laforest algorithm.
#[derive(Clone)]
pub struct BouabdallahLaforest {
    me: NodeId,
    m: usize,
    state: ProcState,
    /// Naimi-Trehel instance circulating the control token.
    nt: NaimiTrehel<ControlToken>,
    /// Current request.
    required: ResourceSet,
    /// Resource tokens obtained for the current request.
    acquired: ResourceSet,
    /// Resource tokens physically held (kept after release until inquired).
    held: ResourceSet,
    /// Resources this node is *entitled* to use next, per the control-token
    /// order.  Holding a token without the claim means our own registration
    /// is queued behind another requester: an inquire must be served
    /// immediately even though we "need" the resource.
    claim: ResourceSet,
    /// Successor per resource (at most one thanks to CT serialization).
    next_r: Vec<Option<NodeId>>,
    /// Epoch of our latest registration per resource (the seq we wrote
    /// into the control token).
    reg_seq: Vec<u64>,
    /// Epoch under which each *physically held* token was obtained.  When
    /// we keep a token past its epoch and re-register, the held token is
    /// owed to the overdue inquire chasing `token_epoch[r]` — inquires
    /// chasing our newer registration must queue instead (see
    /// [`CtEntry`]).
    token_epoch: Vec<u64>,
}

impl BouabdallahLaforest {
    /// Create node `me`; `elected` starts with the control token (which
    /// contains every resource token).
    pub fn new(me: NodeId, _n: usize, m: usize, elected: NodeId) -> Self {
        let mut nt = NaimiTrehel::new(me, elected);
        if me == elected {
            nt.give_initial_token(ControlToken::new(m));
        }
        BouabdallahLaforest {
            me,
            m,
            state: ProcState::Idle,
            nt,
            required: ResourceSet::new(),
            acquired: ResourceSet::new(),
            held: ResourceSet::new(),
            claim: ResourceSet::new(),
            next_r: vec![None; m],
            reg_seq: vec![0; m],
            token_epoch: vec![0; m],
        }
    }

    /// Build all nodes of a system.
    pub fn build_nodes(n: usize, m: usize) -> Vec<BouabdallahLaforest> {
        (0..n)
            .map(|i| BouabdallahLaforest::new(i, n, m, 0))
            .collect()
    }

    /// Resource tokens currently held (diagnostics).
    pub fn held(&self) -> ResourceSet {
        self.held.clone()
    }

    fn nt_send(ctx: &mut Ctx<BlMsg>, out: Vec<(NodeId, NtMsg<ControlToken>)>) {
        for (to, m) in out {
            ctx.send(to, BlMsg::Nt(m));
        }
    }

    /// With the control token in hand: register the request, grab present
    /// tokens, inquire absent ones, pass the control token on.
    fn use_control_token(&mut self, ctx: &mut Ctx<BlMsg>) {
        debug_assert!(self.nt.holds_token());
        let me = self.me;
        let mut inquiries: Vec<(NodeId, ResourceId, u64)> = Vec::new();
        let mut claimed = ResourceSet::new();
        {
            let ct = self.nt.token_mut().expect("holds control token");
            for r in self.required.iter() {
                match ct.entries[r] {
                    CtEntry::Token => {
                        // First registration ever for `r`: epoch 1.
                        ct.entries[r] = CtEntry::Last(me, 1);
                        self.reg_seq[r] = 1;
                        self.token_epoch[r] = 1;
                        self.held.insert(r);
                        claimed.insert(r);
                        self.acquired.insert(r);
                    }
                    CtEntry::Last(s, e) if s == me => {
                        // We kept the token after an earlier CS and nobody
                        // registered since: it is rightfully ours again,
                        // under the same epoch.
                        debug_assert!(self.held.contains(r));
                        debug_assert_eq!(self.token_epoch[r], e);
                        self.reg_seq[r] = e;
                        claimed.insert(r);
                        self.acquired.insert(r);
                    }
                    CtEntry::Last(s, e) => {
                        // Queued behind `s` — even if we physically hold
                        // the token (possible when `s` overtook our own
                        // re-registration), the claim is not ours yet: the
                        // held token stays pledged to the overdue inquire
                        // chasing its own (older) epoch.
                        inquiries.push((s, r, e));
                        ct.entries[r] = CtEntry::Last(me, e + 1);
                        self.reg_seq[r] = e + 1;
                    }
                }
            }
        }
        self.claim.union_with(&claimed);
        for (s, r, pred) in inquiries {
            ctx.send(s, BlMsg::Inquire { r, from: me, pred });
        }
        // Surrendering held-but-unclaimed tokens cannot be needed here: an
        // inquire for them either already arrived (handled there) or will
        // arrive later.
        // Control-token critical section over: pass it on.
        let mut out = Vec::new();
        self.nt.release(&mut |to, m| out.push((to, m)));
        Self::nt_send(ctx, out);
        self.maybe_enter(ctx);
    }

    fn maybe_enter(&mut self, ctx: &mut Ctx<BlMsg>) {
        if self.state == ProcState::WaitCS && self.required.is_subset(&self.acquired) {
            self.state = ProcState::InCS;
            ctx.grant();
        }
    }
}

impl Allocator for BouabdallahLaforest {
    type Msg = BlMsg;

    fn on_init(&mut self, _ctx: &mut Ctx<BlMsg>) {}

    fn on_message(&mut self, ctx: &mut Ctx<BlMsg>, _from: NodeId, msg: BlMsg) {
        match msg {
            BlMsg::Nt(inner) => {
                let mut out = Vec::new();
                let got_ct = self.nt.on_message(inner, &mut |to, m| out.push((to, m)));
                Self::nt_send(ctx, out);
                if got_ct {
                    self.use_control_token(ctx);
                }
            }
            BlMsg::Inquire { r, from, pred } => {
                debug_assert_ne!(from, self.me);
                if self.held.contains(r)
                    && self.token_epoch[r] == pred
                    && !self.claim.contains(r)
                {
                    // The inquirer chases exactly the epoch our kept token
                    // is held under, and we are done with it: hand it
                    // over.  An inquire chasing a *newer* registration of
                    // ours (epoch mismatch) must queue below instead, even
                    // though we physically hold a token — that token is
                    // pledged to the overdue inquire of its own epoch.
                    self.held.remove(r);
                    ctx.send(from, BlMsg::ResTok { r });
                } else {
                    // We are using it, entitled to use it next, still
                    // awaiting it, or holding it for an older epoch:
                    // `from` becomes our unique successor.
                    debug_assert!(
                        self.next_r[r].is_none(),
                        "CT serialization guarantees one successor (node {}, r{r})",
                        self.me
                    );
                    self.next_r[r] = Some(from);
                }
            }
            BlMsg::ResTok { r } => {
                debug_assert!(!self.held.contains(r));
                // The inquire chain delivers the token exactly when it is
                // our turn — for our current registration's epoch.
                self.token_epoch[r] = self.reg_seq[r];
                self.held.insert(r);
                self.claim.insert(r);
                debug_assert!(
                    self.state == ProcState::WaitCS && self.required.contains(r),
                    "resource token {r} arrived unawaited at node {}",
                    self.me
                );
                self.acquired.insert(r);
                self.maybe_enter(ctx);
            }
        }
    }

    fn request(&mut self, ctx: &mut Ctx<BlMsg>, resources: ResourceSet) {
        assert_eq!(self.state, ProcState::Idle, "request while busy");
        assert!(!resources.is_empty());
        debug_assert!(resources.iter().all(|r| r < self.m));
        self.required = resources;
        self.acquired.clear();
        self.state = ProcState::WaitCS;
        let mut out = Vec::new();
        let got_ct = self.nt.request(&mut |to, m| out.push((to, m)));
        Self::nt_send(ctx, out);
        if got_ct {
            self.use_control_token(ctx);
        }
    }

    fn release(&mut self, ctx: &mut Ctx<BlMsg>) {
        assert_eq!(self.state, ProcState::InCS, "release outside CS");
        self.state = ProcState::Idle;
        for r in self.required.iter() {
            debug_assert!(self.held.contains(r));
            // Our claim over the used resources ends with the CS.
            self.claim.remove(r);
            if let Some(next) = self.next_r[r].take() {
                self.held.remove(r);
                ctx.send(next, BlMsg::ResTok { r });
            }
            // else: keep the token until someone inquires.
        }
        self.required.clear();
        self.acquired.clear();
    }

    fn state(&self) -> ProcState {
        self.state
    }

    fn name(&self) -> &'static str {
        "bouabdallah-laforest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_protocol::testkit::{check_schedules, ExerciseCfg, VirtualNet};

    #[test]
    fn elected_node_acquires_from_control_token() {
        let mut nodes = BouabdallahLaforest::build_nodes(3, 4);
        let mut ctx = Ctx::new(0, 3);
        nodes[0].request(&mut ctx, [0, 2].into_iter().collect());
        assert!(ctx.take_granted());
        assert_eq!(nodes[0].held(), [0, 2].into_iter().collect());
        nodes[0].release(&mut ctx);
        // Tokens stay until inquired.
        assert_eq!(nodes[0].held(), [0, 2].into_iter().collect());
        assert!(!ctx.has_output());
    }

    #[test]
    fn re_request_of_kept_tokens_is_local_after_ct() {
        let mut nodes = BouabdallahLaforest::build_nodes(2, 3);
        let mut ctx = Ctx::new(0, 2);
        let set: ResourceSet = [1].into_iter().collect();
        nodes[0].request(&mut ctx, set.clone());
        assert!(ctx.take_granted());
        nodes[0].release(&mut ctx);
        // Second request: entry says Last(0) and we still hold the token.
        nodes[0].request(&mut ctx, set);
        assert!(ctx.take_granted());
    }

    #[test]
    fn inquire_chain_moves_resource_token() {
        let mut nodes = BouabdallahLaforest::build_nodes(2, 2);
        let mut c0 = Ctx::new(0, 2);
        let mut c1 = Ctx::new(1, 2);
        let set: ResourceSet = [0].into_iter().collect();
        // Node 0 takes resource 0 and stays in CS.
        nodes[0].request(&mut c0, set.clone());
        assert!(c0.take_granted());
        // Node 1 requests: needs the CT first.
        nodes[1].request(&mut c1, set);
        let msgs = c1.take_outbox();
        assert_eq!(msgs.len(), 1); // CT request to node 0
        nodes[0].on_message(&mut c0, 1, msgs.into_iter().next().unwrap().1);
        // Node 0 passes the CT (it is not using it).
        let msgs = c0.take_outbox();
        assert_eq!(msgs.len(), 1);
        nodes[1].on_message(&mut c1, 0, msgs.into_iter().next().unwrap().1);
        // Node 1 read Last(0) and inquires node 0.
        let msgs = c1.take_outbox();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0].1, BlMsg::Inquire { r: 0, from: 1, .. }));
        nodes[0].on_message(&mut c0, 1, msgs.into_iter().next().unwrap().1);
        // Node 0 is still in CS: records the successor, sends nothing.
        assert!(c0.take_outbox().is_empty());
        // Release: resource token flows to node 1, which enters CS.
        nodes[0].release(&mut c0);
        let msgs = c0.take_outbox();
        assert_eq!(msgs.len(), 1);
        nodes[1].on_message(&mut c1, 0, msgs.into_iter().next().unwrap().1);
        assert!(c1.take_granted());
    }

    #[test]
    fn random_runs_safe_and_live() {
        let net = VirtualNet::new(BouabdallahLaforest::build_nodes(5, 8), 8);
        let cfg = ExerciseCfg {
            rounds_per_node: 6,
            max_req_size: 4,
            m: 8,
            hold_steps: 3,
            active_nodes: None,
            step_cap: 3_000_000,
        };
        check_schedules(&net, &cfg, 0..12, |net, _| {
            // Quiet: every resource token is held by at most one node;
            // tokens still in the control token account for the rest.
            let mut held_by_nodes = ResourceSet::new();
            for i in 0..5 {
                let h = net.node(i).held();
                assert!(held_by_nodes.is_disjoint(&h), "resource token duplicated");
                held_by_nodes.union_with(&h);
            }
        });
    }
}

#[cfg(test)]
mod chain_epoch_regression {
    use super::*;
    use mra_protocol::faults::FaultPlan;
    use mra_protocol::reliable::Reliability;
    use mra_protocol::testkit::{run_random_workload, ExerciseCfg, Schedule, VirtualNet};

    /// Replays the schedule that exposed the epoch-less chain corruption
    /// (PR 5): a dropped `INQUIRE` retransmitted maximally late arrived
    /// *after* a later registrant's inquire, the holder handed its kept
    /// token out of chain order, and the r11 waiting chain collapsed into
    /// the cycle `n1 ↔ n6` — a permanent deadlock.  With epochs on
    /// `CtEntry::Last`/`Inquire::pred` the harness (which re-arms the
    /// deadlock panic under reliability) completes every request.
    #[test]
    fn delayed_inquire_cannot_corrupt_the_waiting_chain() {
        let mut net = VirtualNet::new(BouabdallahLaforest::build_nodes(8, 16), 16);
        net.install_faults(&FaultPlan::new(7896035992339410799).drop_rate(0.20));
        net.enable_reliability(Reliability::default());
        let mut schedule = Schedule::seeded(5932657913863570347);
        let rep = run_random_workload(
            &mut net,
            &ExerciseCfg {
                rounds_per_node: 3,
                max_req_size: 3,
                m: 16,
                hold_steps: 2,
                active_nodes: None,
                step_cap: 2_000_000,
            },
            &mut schedule,
        );
        assert_eq!(rep.cs_completed, 24);
        assert!(rep.starved.is_empty());
        assert!(rep.stats.dropped_link > 0, "the plan did drop frames");
    }
}

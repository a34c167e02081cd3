//! The "in shared memory" scheduler (paper §5.2, fifth curve of Fig. 5).
//!
//! The paper compares its distributed algorithms against "a distributed
//! scheduling algorithm executed on a single shared-memory machine with a
//! global waiting queue and no network communication", i.e. a scheduler
//! whose synchronization cost is zero.  We reproduce it as a
//! coordinator-based [`Allocator`] run over a zero-latency network: the
//! client/coordinator messages then cost nothing, and the measured curves
//! reflect pure scheduling capacity.
//!
//! [`CentralSched`] is the pure scheduling core (directly unit- and
//! property-testable).  Two grant policies are provided:
//!
//! * [`GrantPolicy::Conservative`] — a request may not overtake an *earlier,
//!   conflicting* pending request (the resources of blocked requests are
//!   reserved while scanning).  Starvation-free; this is the paper's
//!   global-waiting-queue scheduler and the default.
//! * [`GrantPolicy::Greedy`] — pure first-fit over the arrival queue; higher
//!   instantaneous use rate, but large requests can starve.  Used by the
//!   ablation benchmarks.

use mra_protocol::{Allocator, Ctx, ProcState, WireMsg};
use mra_types::{NodeId, ResourceSet};
use std::collections::VecDeque;
use std::fmt;

/// How the central scheduler picks grantable requests from its queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GrantPolicy {
    /// No overtaking of earlier conflicting requests (fair, starvation-free).
    #[default]
    Conservative,
    /// First-fit: grant anything that fits right now.
    Greedy,
}

/// Pure global scheduler: one arrival-ordered waiting queue, a busy set,
/// and a grant policy.
#[derive(Clone, Debug)]
pub struct CentralSched {
    in_use: ResourceSet,
    holders: Vec<(NodeId, ResourceSet)>,
    pending: VecDeque<(NodeId, ResourceSet)>,
    policy: GrantPolicy,
}

impl CentralSched {
    /// Empty scheduler with the given policy.
    pub fn new(policy: GrantPolicy) -> Self {
        CentralSched {
            in_use: ResourceSet::new(),
            holders: Vec::new(),
            pending: VecDeque::new(),
            policy,
        }
    }

    /// Register a request; returns the nodes granted as a consequence
    /// (possibly including `node` itself).
    ///
    /// A request from a node still marked *holding* is an implicit release
    /// of that hold.  Links are FIFO per ordered pair, so the node's
    /// `Release` can never overtake its next `Request`: seeing the request
    /// first proves the release was lost on the wire (the fault-injection
    /// regime) — and by hypothesis 4 (one outstanding request per process)
    /// the node is provably out of its previous critical section.
    pub fn request(&mut self, node: NodeId, set: ResourceSet) -> Vec<NodeId> {
        assert!(!set.is_empty(), "empty request");
        debug_assert!(
            !self.pending.iter().any(|(s, _)| *s == node),
            "node {node} already queued"
        );
        if let Some(idx) = self.holders.iter().position(|(s, _)| *s == node) {
            let (_, held) = self.holders.swap_remove(idx);
            self.in_use.difference_with(&held);
        }
        self.pending.push_back((node, set));
        self.try_grant()
    }

    /// Release `node`'s resources; returns newly granted nodes.
    pub fn release(&mut self, node: NodeId) -> Vec<NodeId> {
        let idx = self
            .holders
            .iter()
            .position(|(s, _)| *s == node)
            .unwrap_or_else(|| panic!("node {node} released without holding"));
        let (_, set) = self.holders.swap_remove(idx);
        self.in_use.difference_with(&set);
        self.try_grant()
    }

    /// Scan the queue in arrival order and grant whatever the policy allows.
    fn try_grant(&mut self) -> Vec<NodeId> {
        let mut granted: Vec<NodeId> = Vec::new();
        let mut claimed = self.in_use.clone();
        let mut remaining: VecDeque<(NodeId, ResourceSet)> = VecDeque::new();
        while let Some((node, set)) = self.pending.pop_front() {
            let blocker = match self.policy {
                GrantPolicy::Conservative => claimed.clone(),
                GrantPolicy::Greedy => self.in_use.clone(),
            };
            if set.is_disjoint(&blocker) {
                self.in_use.union_with(&set);
                claimed.union_with(&set);
                self.holders.push((node, set));
                granted.push(node);
            } else {
                claimed.union_with(&set); // conservative: reserve for it
                remaining.push_back((node, set));
            }
        }
        self.pending = remaining;
        granted
    }

    /// Resources currently allocated.
    pub fn in_use(&self) -> ResourceSet {
        self.in_use.clone()
    }

    /// Number of waiting requests.
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of concurrent holders.
    pub fn holder_count(&self) -> usize {
        self.holders.len()
    }
}

/// Wire messages between clients and the coordinator.
#[derive(Clone)]
pub enum CentralMsg {
    /// Client → coordinator: request this resource set.
    Request {
        /// The requested resources.
        set: ResourceSet,
    },
    /// Coordinator → client: all resources granted, enter the CS.
    Grant,
    /// Client → coordinator: critical section finished.
    Release,
}

impl fmt::Debug for CentralMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CentralMsg::Request { set } => write!(f, "C::Request({:?})", set.to_vec()),
            CentralMsg::Grant => write!(f, "C::Grant"),
            CentralMsg::Release => write!(f, "C::Release"),
        }
    }
}

impl WireMsg for CentralMsg {
    fn kind(&self) -> &'static str {
        match self {
            CentralMsg::Request { .. } => "C::Request",
            CentralMsg::Grant => "C::Grant",
            CentralMsg::Release => "C::Release",
        }
    }
}

/// Coordinator-based allocator.  In a system of `n` nodes, node `n - 1` is
/// the coordinator (it never requests); nodes `0..n-1` are clients.
#[derive(Clone)]
pub struct Central {
    coordinator: NodeId,
    state: ProcState,
    /// Scheduler state (used on the coordinator only).
    sched: Option<CentralSched>,
}

impl Central {
    /// Create node `me` of `n` total nodes (coordinator = `n - 1`).
    pub fn new(me: NodeId, n: usize, policy: GrantPolicy) -> Self {
        let coordinator = n - 1;
        Central {
            coordinator,
            state: ProcState::Idle,
            sched: (me == coordinator).then(|| CentralSched::new(policy)),
        }
    }

    /// Build a system with `clients` client nodes plus one coordinator
    /// (total `clients + 1` nodes; drive only the first `clients`).
    pub fn build_nodes(clients: usize, policy: GrantPolicy) -> Vec<Central> {
        (0..clients + 1)
            .map(|i| Central::new(i, clients + 1, policy))
            .collect()
    }

    fn dispatch_grants(&mut self, ctx: &mut Ctx<CentralMsg>, granted: Vec<NodeId>) {
        for g in granted {
            ctx.send(g, CentralMsg::Grant);
        }
    }
}

impl Allocator for Central {
    type Msg = CentralMsg;

    fn on_init(&mut self, _ctx: &mut Ctx<CentralMsg>) {}

    fn on_message(&mut self, ctx: &mut Ctx<CentralMsg>, from: NodeId, msg: CentralMsg) {
        match msg {
            CentralMsg::Request { set } => {
                let sched = self.sched.as_mut().expect("request sent to non-coordinator");
                let granted = sched.request(from, set);
                self.dispatch_grants(ctx, granted);
            }
            CentralMsg::Release => {
                let sched = self.sched.as_mut().expect("release sent to non-coordinator");
                let granted = sched.release(from);
                self.dispatch_grants(ctx, granted);
            }
            CentralMsg::Grant => {
                debug_assert_eq!(self.state, ProcState::WaitCS);
                self.state = ProcState::InCS;
                ctx.grant();
            }
        }
    }

    fn request(&mut self, ctx: &mut Ctx<CentralMsg>, resources: ResourceSet) {
        assert_eq!(self.state, ProcState::Idle, "request while busy");
        assert!(self.sched.is_none(), "coordinator cannot request");
        self.state = ProcState::WaitCS;
        ctx.send(self.coordinator, CentralMsg::Request { set: resources });
    }

    fn release(&mut self, ctx: &mut Ctx<CentralMsg>) {
        assert_eq!(self.state, ProcState::InCS, "release outside CS");
        self.state = ProcState::Idle;
        ctx.send(self.coordinator, CentralMsg::Release);
    }

    fn state(&self) -> ProcState {
        self.state
    }

    fn name(&self) -> &'static str {
        match self.sched.as_ref().map(|s| s.policy) {
            Some(GrantPolicy::Greedy) => "central-greedy",
            _ => "central",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_protocol::testkit::{check_schedules, ExerciseCfg, VirtualNet};

    fn set(rs: &[usize]) -> ResourceSet {
        rs.iter().copied().collect()
    }

    #[test]
    fn grants_disjoint_requests_immediately() {
        let mut s = CentralSched::new(GrantPolicy::Conservative);
        assert_eq!(s.request(0, set(&[0, 1])), vec![0]);
        assert_eq!(s.request(1, set(&[2, 3])), vec![1]);
        assert_eq!(s.holder_count(), 2);
        assert_eq!(s.in_use(), set(&[0, 1, 2, 3]));
    }

    #[test]
    fn conflicting_request_waits_until_release() {
        let mut s = CentralSched::new(GrantPolicy::Conservative);
        assert_eq!(s.request(0, set(&[0])), vec![0]);
        assert_eq!(s.request(1, set(&[0, 1])), Vec::<NodeId>::new());
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.release(0), vec![1]);
        assert_eq!(s.in_use(), set(&[0, 1]));
    }

    #[test]
    fn conservative_blocks_overtaking_of_conflicting_earlier_request() {
        let mut s = CentralSched::new(GrantPolicy::Conservative);
        s.request(0, set(&[0]));
        // 1 waits on 0; 2 conflicts with 1 (resource 1) but not with 0.
        assert!(s.request(1, set(&[0, 1])).is_empty());
        assert!(s.request(2, set(&[1])).is_empty(), "must not overtake node 1");
        // 3 is disjoint from everything pending: sails through.
        assert_eq!(s.request(3, set(&[2])), vec![3]);
        let granted = s.release(0);
        assert_eq!(granted, vec![1]);
    }

    #[test]
    fn greedy_overtakes() {
        let mut s = CentralSched::new(GrantPolicy::Greedy);
        s.request(0, set(&[0]));
        assert!(s.request(1, set(&[0, 1])).is_empty());
        // Greedy: node 2 takes resource 1 although node 1 queued first.
        assert_eq!(s.request(2, set(&[1])), vec![2]);
    }

    #[test]
    fn no_double_allocation_ever() {
        let mut s = CentralSched::new(GrantPolicy::Conservative);
        s.request(0, set(&[0, 1]));
        s.request(1, set(&[1, 2]));
        s.request(2, set(&[2, 3]));
        // Only node 0 runs; its resources are allocated once.
        assert_eq!(s.holder_count(), 1);
        s.release(0);
        assert_eq!(s.holder_count(), 1); // node 1 got in
        assert_eq!(s.in_use(), set(&[1, 2]));
    }

    #[test]
    fn allocator_roundtrip_over_virtualnet() {
        let net = VirtualNet::new(Central::build_nodes(4, GrantPolicy::Conservative), 6);
        let cfg = ExerciseCfg {
            rounds_per_node: 6,
            max_req_size: 3,
            m: 6,
            hold_steps: 3,
            active_nodes: Some(4), // coordinator stays passive
            step_cap: 2_000_000,
        };
        check_schedules(&net, &cfg, 0..8, |_, _| {});
    }

    #[test]
    fn greedy_allocator_roundtrip() {
        let net = VirtualNet::new(Central::build_nodes(3, GrantPolicy::Greedy), 4);
        let cfg = ExerciseCfg {
            rounds_per_node: 5,
            max_req_size: 2,
            m: 4,
            hold_steps: 2,
            active_nodes: Some(3),
            step_cap: 1_000_000,
        };
        check_schedules(&net, &cfg, [99], |_, _| {});
    }
}

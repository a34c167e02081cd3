//! A synchronous virtual network with randomized message interleaving.
//!
//! `VirtualNet` is the workhorse for protocol unit tests and property-based
//! tests: it delivers messages one at a time in an order drawn from a
//! [`Schedule`] while preserving per-link FIFO, checks the *safety* property
//! on every critical section entry (no two processes ever hold the same
//! resource), and detects deadlocks (*liveness* failures) as stalls with
//! pending requests.  [`check_schedules`] runs a workload per seed and turns
//! any failure into a short [`Schedule::replay`] literal.
//!
//! There is no notion of time here — only causality and interleaving — which
//! makes it ideal for exploring protocol corner cases that a timed simulator
//! would rarely hit.

use crate::faults::{Admit, FaultPlan, FaultStats};
use crate::link::Link;
use crate::reliable::{Packet, Reliability, ReliabilityStats};
use crate::{Allocator, Ctx, ProcState, WireMsg};
use mra_obs::{EngineTracer, EventKind, ObsReport, TraceMode};
use mra_types::{NodeId, ResourceSet, Time};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// [`SafetyMonitor`]'s holder slot of a resource no site holds.
const FREE: u32 = u32::MAX;

/// Records who is inside a critical section with which resources and panics
/// on any exclusivity violation.  Shared by the test network and reusable by
/// other engines.
#[derive(Clone, Debug)]
pub struct SafetyMonitor {
    /// The site in CS with each resource, `FREE` if none: 4 bytes a
    /// resource, where an optional `NodeId` takes 16.
    holder: Vec<u32>,
    in_cs: Vec<Option<ResourceSet>>,
    /// Total number of critical sections entered so far.
    pub cs_entered: u64,
}

impl SafetyMonitor {
    /// Monitor for `n` nodes and `m` resources.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n <= FREE as usize, "sites are 32-bit ids below {FREE}");
        SafetyMonitor {
            holder: vec![FREE; m],
            in_cs: vec![None; n],
            cs_entered: 0,
        }
    }

    /// Register node `who` entering its CS holding `set`.
    ///
    /// # Panics
    /// If any resource in `set` is already held: that is a violation of the
    /// paper's safety property (Theorem 1).
    pub fn enter(&mut self, who: NodeId, set: ResourceSet) {
        assert!(
            self.in_cs[who].is_none(),
            "node {who} entered CS twice without releasing"
        );
        for r in set.iter() {
            let other = self.holder[r];
            if other != FREE {
                panic!(
                    "SAFETY VIOLATION: resource {r} granted to node {who} \
                     while still held by node {other}"
                );
            }
            self.holder[r] = who as u32;
        }
        self.in_cs[who] = Some(set);
        self.cs_entered += 1;
    }

    /// Register node `who` leaving its CS.
    ///
    /// # Panics
    /// If `who` was not in CS, or if the holder table disagrees about any
    /// released resource.  The holder check is a *real* assert (not
    /// `debug_assert`): release-mode runs — the TCP cluster tests build in
    /// release — must not silently pass through a corrupted holder table.
    pub fn exit(&mut self, who: NodeId) {
        let set = self.in_cs[who]
            .take()
            .unwrap_or_else(|| panic!("node {who} released without being in CS"));
        for r in set.iter() {
            assert_eq!(
                self.holder[r] as usize, who,
                "HOLDER CORRUPTION: node {who} releasing resource {r} it does not hold"
            );
            self.holder[r] = FREE;
        }
    }

    /// Is `who` currently inside its CS?
    pub fn is_in_cs(&self, who: NodeId) -> bool {
        self.in_cs[who].is_some()
    }

    /// Number of nodes currently in CS.
    pub fn concurrency(&self) -> usize {
        self.in_cs.iter().filter(|s| s.is_some()).count()
    }

    /// Number of resources currently marked held.
    pub fn held_resources(&self) -> usize {
        self.holder.iter().filter(|&&h| h != FREE).count()
    }

    /// Assert the conservation invariant of granted resources: every held
    /// resource belongs to exactly the node the CS table says is inside
    /// with it, and vice versa.  At quiescence (nobody in CS) this proves
    /// no granted resource leaked.
    ///
    /// # Panics
    /// On any holder/CS-table disagreement.
    pub fn assert_conservation(&self) {
        for (r, &w) in self.holder.iter().enumerate() {
            if w != FREE {
                let ok = self.in_cs[w as usize]
                    .as_ref()
                    .is_some_and(|set| set.contains(r));
                assert!(
                    ok,
                    "RESOURCE LEAK: resource {r} marked held by node {w}, \
                     which is not in CS with it"
                );
            }
        }
        for (w, s) in self.in_cs.iter().enumerate() {
            if let Some(set) = s {
                for r in set.iter() {
                    assert_eq!(
                        self.holder[r] as usize, w,
                        "RESOURCE LEAK: node {w} in CS with resource {r} \
                         not attributed to it in the holder table"
                    );
                }
            }
        }
    }
}

/// Fixed-size message of the [`EchoProbe`] pseudo-protocol.
#[derive(Clone, Copy, Debug)]
pub struct EchoPing(pub u64);

impl crate::WireMsg for EchoPing {
    fn kind(&self) -> &'static str {
        "Ping"
    }
}

/// A minimal message-driven state machine for engine probes: node 0 seeds
/// `fan` pings per peer on init, and every node echoes whatever it
/// receives back to the sender.  It never requests and never grants, so
/// an engine driving it with no active workload processes a pure stream
/// of message deliveries — the measurement surface for the engine-floor
/// benchmark and the zero-allocation dispatch guard.
pub struct EchoProbe {
    me: NodeId,
    fan: u64,
}

impl EchoProbe {
    /// One probe node; node 0 starts `fan` balls per peer.
    pub fn new(me: NodeId, fan: u64) -> Self {
        EchoProbe { me, fan }
    }
}

impl Allocator for EchoProbe {
    type Msg = EchoPing;

    fn on_init(&mut self, ctx: &mut Ctx<EchoPing>) {
        if self.me == 0 {
            for peer in 1..ctx.n_nodes() {
                for k in 0..self.fan {
                    ctx.send(peer, EchoPing(k));
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<EchoPing>, from: NodeId, msg: EchoPing) {
        ctx.send(from, EchoPing(msg.0 + 1));
    }

    fn request(&mut self, _ctx: &mut Ctx<EchoPing>, _resources: ResourceSet) {
        unreachable!("probe nodes never request");
    }

    fn release(&mut self, _ctx: &mut Ctx<EchoPing>) {
        unreachable!("probe nodes never release");
    }

    fn state(&self) -> ProcState {
        ProcState::Idle
    }

    fn name(&self) -> &'static str {
        "echo-probe"
    }
}

/// The one source of every choice a [`VirtualNet`] run makes: which action,
/// which link, the request size and which resources.  A schedule is the
/// sequence of its picks, and it records each pick it serves, so any run can
/// be replayed from [`Schedule::picks`] alone.
#[derive(Debug)]
pub struct Schedule {
    /// The generator of a seeded schedule; `None` when replaying.
    rng: Option<StdRng>,
    /// The literal a replay serves.
    script: Vec<u32>,
    /// Every pick served so far, in order.
    picks: Vec<u32>,
}

impl Schedule {
    /// Picks drawn from `StdRng::seed_from_u64(seed)`, each
    /// `next_u64() % bound`: exactly the draws of `gen_range(0..bound)`.
    pub fn seeded(seed: u64) -> Self {
        Schedule { rng: Some(StdRng::seed_from_u64(seed)), script: Vec::new(), picks: Vec::new() }
    }

    /// Picks served from `picks` (each modulo its bound), then `0` past the
    /// end, so a shortened literal is still a schedule.
    pub fn replay(picks: &[u32]) -> Self {
        Schedule { rng: None, script: picks.to_vec(), picks: Vec::new() }
    }

    /// One choice in `0..bound`.
    ///
    /// # Panics
    /// If `bound` is 0 or above 2^32.
    pub fn pick(&mut self, bound: usize) -> usize {
        assert!(
            bound > 0 && bound as u64 <= 1 << 32,
            "pick bound {bound} outside 1..=2^32"
        );
        let word = match &mut self.rng {
            Some(rng) => rng.next_u64(),
            None => self.script.get(self.picks.len()).map_or(0, |&p| p.into()),
        };
        let pick = (word % bound as u64) as u32;
        self.picks.push(pick);
        pick as usize
    }

    /// Every pick served so far, in order: the literal that replays them.
    pub fn picks(&self) -> &[u32] {
        &self.picks
    }

    /// Was the last pick served past the end of a replayed literal?
    fn past_end(&self) -> bool {
        self.rng.is_none() && self.picks.len() > self.script.len()
    }
}

/// Per-node bookkeeping inside the virtual network.
#[derive(Clone)]
struct Slot<A: Allocator> {
    proto: A,
    ctx: Ctx<A::Msg>,
    /// The resource set of the outstanding request, if any.
    pending: Option<ResourceSet>,
}

/// A synchronous network of `Allocator` nodes with per-link FIFO queues and
/// externally driven, randomized delivery.
#[derive(Clone)]
pub struct VirtualNet<A: Allocator> {
    slots: Vec<Slot<A>>,
    /// `links[src * n + dst]`: FIFO queue of in-flight frames, each
    /// carrying the Lamport stamp its sender's tracer minted (0 when
    /// tracing is disarmed, and on standalone ack frames, which are
    /// untraced).
    links: Vec<VecDeque<(u64, Packet<A::Msg>)>>,
    n: usize,
    steps: u64,
    delivered: u64,
    /// Fault plan (queue-pop injection) and session layer, if installed.
    link: Link<A::Msg>,
    /// Causal tracer; a disarmed no-op unless [`VirtualNet::arm_tracing`]
    /// was called.  Keys events by the step counter (the network's only
    /// clock).
    tracer: EngineTracer,
    /// Safety monitor; public so tests can inspect concurrency.
    pub monitor: SafetyMonitor,
}

impl<A: Allocator> VirtualNet<A> {
    /// Build a network from one protocol instance per node and run
    /// `on_init` on each.
    pub fn new(nodes: Vec<A>, m: usize) -> Self {
        let n = nodes.len();
        let mut slots: Vec<Slot<A>> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, proto)| Slot {
                proto,
                ctx: Ctx::new(i, n),
                pending: None,
            })
            .collect();
        let mut net = VirtualNet {
            links: (0..n * n).map(|_| VecDeque::new()).collect(),
            n,
            steps: 0,
            delivered: 0,
            link: Link::new(n),
            tracer: EngineTracer::disarmed(),
            monitor: SafetyMonitor::new(n, m),
            slots: Vec::new(),
        };
        for (i, slot) in slots.iter_mut().enumerate() {
            slot.ctx.set_now(Time::ZERO);
            slot.proto.on_init(&mut slot.ctx);
            assert!(
                !slot.ctx.take_granted(),
                "node {i} granted during on_init"
            );
        }
        net.slots = slots;
        // Drain any initialization messages.
        for i in 0..n {
            net.flush_outbox(i);
        }
        net
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Immutable access to a node's protocol state (for invariant checks).
    pub fn node(&self, i: NodeId) -> &A {
        &self.slots[i].proto
    }

    /// Current protocol state of node `i`.
    pub fn state(&self, i: NodeId) -> ProcState {
        self.slots[i].proto.state()
    }

    /// Is node `i` in its critical section (as observed by the monitor)?
    pub fn in_cs(&self, i: NodeId) -> bool {
        self.monitor.is_in_cs(i)
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.links.iter().map(|q| q.len()).sum()
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Install a fault plan: from now on every queue-pop runs through its
    /// per-link drop/duplicate filter (time-based faults — partitions,
    /// outages — do not apply here: the virtual network has no clock).
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.link.set_faults(plan.clone());
    }

    /// Arm causal tracing.  Events are keyed by the step counter — the
    /// network's only clock — so equal seeds give byte-identical traces.
    /// Messages already in flight (`on_init` token placement ran inside
    /// [`VirtualNet::new`], before arming was possible) are retroactively
    /// stamped with synthetic send events, so the causal checker sees a
    /// complete log.
    pub fn arm_tracing(&mut self, mode: TraceMode) {
        if mode == TraceMode::Off {
            return;
        }
        self.tracer = EngineTracer::armed(self.n, mode);
        self.tracer.set_key(Time::ZERO, 0);
        let tracer = &mut self.tracer;
        for (l, queue) in self.links.iter_mut().enumerate() {
            let (src, dst) = (l / self.n, l % self.n);
            for (stamp, packet) in queue.iter_mut() {
                // Acks stay untraced.
                if let Packet::Data { msg, .. } = packet {
                    *stamp = tracer.on_send(src, dst, msg.kind(), msg.weight() as u32);
                }
            }
        }
    }

    /// Take the tracer out and fold it into an [`ObsReport`] (disarmed
    /// default when tracing was never armed).  The net keeps running, but
    /// untraced from here on.
    pub fn take_obs(&mut self) -> ObsReport {
        std::mem::take(&mut self.tracer).finish()
    }

    /// Fault counters accumulated so far (zero when no plan is installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.link.fault_stats()
    }

    /// Enable the reliable-delivery session layer: every subsequent send is
    /// sequenced into a per-link session ([`crate::reliable`]), receivers
    /// dedup and ack, and [`VirtualNet::retransmit_all`] re-emits unacked
    /// frames — together upgrading a lossy fault plan back to exactly-once
    /// FIFO delivery.  Messages already in flight (e.g. `on_init` token
    /// placement) are retroactively sequenced so they are protected too.
    pub fn enable_reliability(&mut self, cfg: Reliability) {
        self.link.set_sessions(cfg);
        for (l, queue) in self.links.iter_mut().enumerate() {
            let (src, dst) = (l / self.n, l % self.n);
            for (_, packet) in queue.iter_mut() {
                if let Packet::Data { session, msg } = packet {
                    *session = self.link.stamp(src, dst, msg, Time::ZERO);
                }
            }
        }
    }

    /// Is the session layer installed?
    pub fn reliability_on(&self) -> bool {
        self.link.sessions_on()
    }

    /// Is liveness owed under the installed plan and session layer
    /// ([`Link::owes_liveness`])?
    pub fn owes_liveness(&self) -> bool {
        self.link.owes_liveness()
    }

    /// Session-layer counters accumulated so far (zero when disabled).
    pub fn reliability_stats(&self) -> ReliabilityStats {
        self.link.session_stats()
    }

    /// Re-enqueue every unacknowledged session frame on its link — the
    /// clockless analogue of all retransmit timers expiring at once.  The
    /// scheduler calls this when the network is otherwise stuck; the
    /// re-emitted frames run through the fault filter again on delivery,
    /// so under any drop rate `< 1.0` repeated calls eventually get every
    /// frame through.  Returns the number of frames re-enqueued (0 when
    /// reliability is off or everything is acked).
    pub fn retransmit_all(&mut self) -> usize {
        let links = &mut self.links;
        let tracer = &mut self.tracer;
        let n = self.n;
        self.link.retransmit_all(|from, to, packet| {
            // Each re-emitted copy is a distinct wire event: it gets a
            // fresh stamp (matching the simulator's RTO path).
            let stamp = match &packet {
                Packet::Data { msg, .. } => {
                    tracer.on_retransmit(from, to, msg.kind(), msg.weight() as u32)
                }
                _ => 0,
            };
            links[from * n + to].push_back((stamp, packet));
        })
    }

    /// Issue a request for `set` from node `i`.
    ///
    /// # Panics
    /// If `i` already has an outstanding request, or on a safety violation
    /// (when the grant happens synchronously).
    pub fn request(&mut self, i: NodeId, set: ResourceSet) {
        assert!(
            self.slots[i].pending.is_none() && !self.monitor.is_in_cs(i),
            "node {i} requested while busy"
        );
        assert!(!set.is_empty(), "empty request");
        self.slots[i].pending = Some(set.clone());
        self.tick();
        self.tracer.set_key(Time::from_nanos(self.steps), 0);
        self.tracer.on_cs(EventKind::CsRequest, i, set.len() as u32);
        let slot = &mut self.slots[i];
        slot.ctx.set_now(Time::from_nanos(self.steps));
        slot.proto.request(&mut slot.ctx, set);
        self.after_dispatch(i);
    }

    /// Release the critical section of node `i`.
    pub fn release(&mut self, i: NodeId) {
        assert!(self.monitor.is_in_cs(i), "node {i} released outside CS");
        self.monitor.exit(i);
        self.tick();
        self.tracer.set_key(Time::from_nanos(self.steps), 0);
        self.tracer.on_cs(EventKind::CsExit, i, 0);
        let slot = &mut self.slots[i];
        slot.ctx.set_now(Time::from_nanos(self.steps));
        slot.proto.release(&mut slot.ctx);
        self.after_dispatch(i);
    }

    /// Deliver the head message of the link `schedule` picks among those
    /// with a frame in flight (FIFO per link).  Returns `false`, picking
    /// nothing, if nothing was in flight.
    pub fn deliver_one(&mut self, schedule: &mut Schedule) -> bool {
        let open = self.deliverable().count();
        if open == 0 {
            return false;
        }
        let link = self.deliverable().nth(schedule.pick(open));
        self.deliver_from_link(link.expect("pick below the open-link count"));
        true
    }

    /// What can happen next on the wire: the links with a frame in flight,
    /// in link order.
    fn deliverable(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.links.len()).filter(|&l| !self.links[l].is_empty())
    }

    fn deliver_from_link(&mut self, link: usize) {
        let (stamp, frame) = self.links[link].pop_front().expect("link not empty");
        let (src, dst) = (link / self.n, link % self.n);
        // `at = None`: the net has no clock, so time-keyed faults
        // (partitions, outages) do not apply — and nothing ever defers.
        let verdict = self.link.arrive(&mut self.tracer, src, dst, None, stamp, &frame);
        match (verdict, frame) {
            (Admit::Deliver, Packet::Data { msg, .. }) => {
                self.tick();
                self.delivered += 1;
                // One dispatch key per delivery.
                self.tracer.set_key(Time::from_nanos(self.steps), 0);
                self.tracer
                    .on_recv(src, dst, msg.kind(), msg.weight() as u32, stamp);
                let slot = &mut self.slots[dst];
                slot.ctx.set_now(Time::from_nanos(self.steps));
                slot.proto.on_message(&mut slot.ctx, src, msg);
                self.after_dispatch(dst);
            }
            (Admit::Absorb, _) => {}
            // Lost on the wire: the pop consumed it, nobody sees it.
            (Admit::Drop, _) => return,
            (verdict, _) => unreachable!("{verdict:?} on the clockless net"),
        }
        // The handler's reply (flushed inside `after_dispatch`) piggybacks
        // an owed ack; otherwise it goes out standalone on the reverse
        // link.  Stamp 0: acks are session plumbing, untraced.
        if let Some(ack) = self.link.take_ack(src, dst) {
            self.links[dst * self.n + src].push_back((0, ack));
        }
    }

    /// Deliver messages in the order `schedule` picks until the network is
    /// quiet.
    ///
    /// # Panics
    /// If more than `cap` deliveries happen (runaway message loop).
    pub fn run_until_quiet(&mut self, schedule: &mut Schedule, cap: u64) {
        let mut count = 0u64;
        while self.deliver_one(schedule) {
            count += 1;
            assert!(count <= cap, "network did not quiesce within {cap} deliveries");
        }
    }

    fn tick(&mut self) {
        self.steps += 1;
    }

    fn after_dispatch(&mut self, i: NodeId) {
        self.flush_outbox(i);
        let granted = self.slots[i].ctx.take_granted();
        if granted {
            let set = self.slots[i]
                .pending
                .take()
                .unwrap_or_else(|| panic!("node {i} granted without a pending request"));
            self.tracer.on_cs(EventKind::CsEnter, i, set.len() as u32);
            self.monitor.enter(i, set);
        }
    }

    fn flush_outbox(&mut self, i: NodeId) {
        // Disjoint field borrows: the outbox drains in place while the
        // link queues are appended — no per-dispatch allocation.
        let slot = &mut self.slots[i];
        for (to, msg) in slot.ctx.drain_outbox() {
            let stamp = self.tracer.on_send(i, to, msg.kind(), msg.weight() as u32);
            let session = self.link.stamp(i, to, &msg, Time::ZERO);
            self.links[i * self.n + to].push_back((stamp, Packet::Data { session, msg }));
        }
    }
}

/// Outcome of [`explore_exhaustive`].
#[derive(Clone, Copy, Debug)]
pub struct ExploreReport {
    /// Interleavings fully explored (leaves reached).
    pub completions: u64,
    /// Scheduler states visited.
    pub states: u64,
    /// True if the state budget was exhausted before full coverage.
    pub truncated: bool,
}

/// Exhaustively explore **every** FIFO-consistent interleaving of message
/// deliveries and critical-section releases for a fixed set of requests —
/// bounded model checking in the small.
///
/// All `requests` are issued up-front (in slice order).  The explorer then
/// branches on every enabled action: deliver the head of any non-empty
/// link, or release any node currently in CS.  Each node performs exactly
/// one request.  At every quiescent leaf it asserts that **all** requests
/// were granted and released (liveness for that interleaving); safety is
/// asserted continuously by the [`SafetyMonitor`].
///
/// # Panics
/// On any safety violation, and on any leaf where a request was never
/// served (a real deadlock for that interleaving).
pub fn explore_exhaustive<A>(
    net: &VirtualNet<A>,
    requests: &[(NodeId, ResourceSet)],
    budget: u64,
) -> ExploreReport
where
    A: Allocator + Clone,
    A::Msg: Clone,
{
    let mut root = net.clone();
    let mut done = vec![false; root.len()];
    for (node, set) in requests {
        root.request(*node, set.clone());
    }
    let mut report = ExploreReport {
        completions: 0,
        states: 0,
        truncated: false,
    };
    dfs(root, &mut done, &mut report, budget);
    report
}

fn dfs<A>(net: VirtualNet<A>, done: &mut [bool], report: &mut ExploreReport, budget: u64)
where
    A: Allocator + Clone,
    A::Msg: Clone,
{
    report.states += 1;
    if report.states >= budget {
        report.truncated = true;
        return;
    }
    // Enabled actions: one per deliverable link, plus Release per node in CS.
    let mut acted = false;
    for link in net.deliverable() {
        acted = true;
        let mut next = net.clone();
        next.deliver_from_link(link);
        dfs(next, done, report, budget);
        if report.truncated {
            return;
        }
    }
    for i in 0..net.len() {
        if net.in_cs(i) && !done[i] {
            acted = true;
            let mut next = net.clone();
            next.release(i);
            done[i] = true;
            dfs(next, done, report, budget);
            done[i] = false;
            if report.truncated {
                return;
            }
        }
    }
    if !acted {
        // Quiescent leaf: every request must have been granted *and*
        // released — i.e. every node is idle again.
        let unserved: Vec<NodeId> = (0..net.len())
            .filter(|&i| net.state(i) != ProcState::Idle)
            .collect();
        assert!(
            unserved.is_empty(),
            "DEADLOCK in exhaustive exploration: nodes {unserved:?} never served"
        );
        report.completions += 1;
    }
}

/// Configuration for [`run_random_workload`].
#[derive(Clone, Debug)]
pub struct ExerciseCfg {
    /// Requests each active node must complete.
    pub rounds_per_node: usize,
    /// Maximum request size (the paper's φ); actual sizes are uniform in
    /// `1..=max_req_size`.
    pub max_req_size: usize,
    /// Number of resources (the paper's M).
    pub m: usize,
    /// Scheduler steps a node stays in CS before releasing (models CS
    /// duration as a number of interleaving opportunities).
    pub hold_steps: usize,
    /// Only nodes `0..active_nodes` issue requests (coordinator-style
    /// algorithms keep their coordinator passive).  `None` = all nodes.
    pub active_nodes: Option<usize>,
    /// Abort (liveness failure) after this many scheduler actions.
    pub step_cap: u64,
}

impl Default for ExerciseCfg {
    fn default() -> Self {
        ExerciseCfg {
            rounds_per_node: 5,
            max_req_size: 3,
            m: 6,
            hold_steps: 3,
            active_nodes: None,
            step_cap: 2_000_000,
        }
    }
}

/// Outcome of [`run_random_workload`].
#[derive(Clone, Debug, PartialEq)]
pub struct ExerciseReport {
    /// Critical sections completed (== rounds_per_node × active nodes
    /// whenever liveness is owed).
    pub cs_completed: u64,
    /// Nodes left waiting forever because the fault plan destroyed the
    /// liveness of their request (empty whenever liveness is owed).
    pub starved: Vec<NodeId>,
    /// Scheduler actions executed.
    pub actions: u64,
    /// Messages delivered to protocol handlers.
    pub delivered: u64,
    /// Maximum CS concurrency observed (≥ 2 proves the concurrency property
    /// is exploited on non-conflicting requests).
    pub max_concurrency: usize,
    /// What the fault layer did (all-zero without a plan).
    pub stats: FaultStats,
    /// What the reliable session layer did (all-zero when disabled).
    pub reliability: ReliabilityStats,
}

/// Drive a (possibly faulty) network with a random workload under the
/// interleaving `schedule` picks and check the invariants throughout.
///
/// Every active node performs `rounds_per_node` request/CS/release cycles
/// with resource sets the schedule picks.  Each action (deliver a message,
/// issue a request, progress a CS) is one pick among the enabled ones, so
/// every interleaving has positive probability under a seeded schedule.
/// Checked:
///
/// * **safety** — continuously, via the [`SafetyMonitor`];
/// * **conservation** — at quiescence nobody is left in CS and the holder
///   table is empty ([`SafetyMonitor::assert_conservation`]);
/// * **liveness, where owed** ([`VirtualNet::owes_liveness`]: no plan, a
///   non-lossy plan, or a recoverable plan with the session layer on) —
///   every request must complete.  When the scheduler runs out of actions
///   with nodes still waiting it first triggers
///   [`VirtualNet::retransmit_all`] (the clockless retransmission timer);
///   only a retransmission-free stall — a genuine protocol deadlock —
///   panics.  Where liveness is *not* owed (a lossy plan nothing repairs)
///   starved nodes are reported, not treated as failures: a dropped token
///   legitimately destroys liveness.
///
/// # Panics
/// On any safety violation, on a granted-resource leak at quiescence, on
/// deadlock or starvation where liveness is owed, and if `cfg.step_cap` is
/// exceeded.
pub fn run_random_workload<A: Allocator>(
    net: &mut VirtualNet<A>,
    cfg: &ExerciseCfg,
    schedule: &mut Schedule,
) -> ExerciseReport {
    let owed = net.owes_liveness();
    let n_active = cfg.active_nodes.unwrap_or(net.len());
    assert!(n_active <= net.len());
    assert!(cfg.max_req_size >= 1 && cfg.max_req_size <= cfg.m);

    let mut quota = vec![cfg.rounds_per_node; n_active];
    let mut holds = vec![0usize; n_active];
    let mut completed = 0u64;
    let mut actions = 0u64;
    let mut max_conc = 0usize;
    let mut starved: Vec<NodeId> = Vec::new();

    #[derive(Clone, Copy)]
    enum Act {
        Deliver,
        Issue(NodeId),
        Hold(NodeId),
    }

    loop {
        let mut candidates: Vec<Act> = Vec::new();
        if net.in_flight() > 0 {
            // Weight delivery in proportion to in-flight traffic so queues
            // drain; one entry per message keeps selection uniform-ish.
            for _ in 0..net.in_flight().min(8) {
                candidates.push(Act::Deliver);
            }
        }
        for (i, &q) in quota.iter().enumerate().take(n_active) {
            if net.in_cs(i) {
                candidates.push(Act::Hold(i));
            } else if q > 0 && net.state(i) == ProcState::Idle {
                candidates.push(Act::Issue(i));
            }
        }

        if candidates.is_empty() {
            let waiting: Vec<NodeId> = (0..n_active)
                .filter(|&i| !net.in_cs(i) && net.state(i) != ProcState::Idle)
                .collect();
            if waiting.is_empty() {
                break; // every request served, all quotas spent
            }
            if !owed {
                // Permanent starvation caused by message loss: an expected
                // liveness casualty, recorded and tolerated.
                starved = waiting;
                break;
            }
            // The clockless retransmission timer: unacked session frames go
            // back on the wire and the scheduler resumes (0 with sessions
            // off).  Counted as an action — without a pick — so
            // `step_cap` still bounds a pathological no-progress loop.
            if net.retransmit_all() == 0 {
                let states: Vec<String> = (0..net.len())
                    .map(|i| format!("n{}={}", i, net.state(i)))
                    .collect();
                panic!(
                    "DEADLOCK: nodes {waiting:?} waiting, nothing in flight, \
                     nobody in CS; states: {} (reliability {}; rel {:?}; faults {:?})",
                    states.join(" "),
                    if net.reliability_on() { "on" } else { "off" },
                    net.reliability_stats(),
                    net.fault_stats(),
                );
            }
        } else {
            match candidates[schedule.pick(candidates.len())] {
                Act::Deliver => {
                    net.deliver_one(schedule);
                }
                Act::Issue(i) => {
                    let size = 1 + schedule.pick(cfg.max_req_size);
                    let mut set = ResourceSet::new();
                    while set.len() < size {
                        // A taken resource is picked again; past a replay's
                        // end every pick is 0, so there the lowest free one
                        // is taken instead.
                        if !set.insert(schedule.pick(cfg.m)) && schedule.past_end() {
                            set.insert((0..cfg.m).find(|&r| !set.contains(r)).unwrap());
                        }
                    }
                    quota[i] -= 1;
                    holds[i] = cfg.hold_steps;
                    net.request(i, set);
                }
                Act::Hold(i) => {
                    if holds[i] > 0 {
                        holds[i] -= 1;
                    } else {
                        net.release(i);
                        completed += 1;
                    }
                }
            }
            max_conc = max_conc.max(net.monitor.concurrency());
        }
        actions += 1;
        assert!(
            actions <= cfg.step_cap,
            "LIVENESS FAILURE: exceeded {} actions with {completed} CS \
             completed (of {}); in flight: {}",
            cfg.step_cap,
            cfg.rounds_per_node * n_active,
            net.in_flight()
        );
    }

    // Quiescence invariants: no granted resource leaked.
    assert_eq!(net.monitor.concurrency(), 0, "nodes left inside CS at quiescence");
    assert_eq!(
        net.monitor.held_resources(),
        0,
        "resources left marked held at quiescence"
    );
    net.monitor.assert_conservation();
    if owed {
        assert_eq!(
            completed as usize,
            cfg.rounds_per_node * n_active,
            "where liveness is owed a plan must not cost a single critical section"
        );
    }

    ExerciseReport {
        cs_completed: completed,
        starved,
        actions,
        delivered: net.delivered(),
        max_concurrency: max_conc,
        stats: net.fault_stats(),
        reliability: net.reliability_stats(),
    }
}

/// Re-runs [`check_schedules`] spends minimising one failing schedule.
const SHRINK_RUNS: u32 = 2_000;

/// The property entry point: for each seed, run a clone of `net` through
/// [`run_random_workload`] under [`Schedule::seeded`], then `check` the
/// net and its report.
///
/// # Panics
/// When a run panics, in the harness or in `check`.  The recorded picks
/// are first minimised: chunks of halving size are deleted, then single
/// picks are lowered toward 0, and a candidate is kept while it still
/// fails the same way (the same message up to its first digit).  The
/// panic names the seed and prints the minimised run as a
/// `Schedule::replay(&[…])` literal that [`run_random_workload`] replays.
pub fn check_schedules<A>(
    net: &VirtualNet<A>,
    cfg: &ExerciseCfg,
    seeds: impl IntoIterator<Item = u64>,
    mut check: impl FnMut(&mut VirtualNet<A>, &ExerciseReport),
) where
    A: Allocator + Clone,
    A::Msg: Clone,
{
    for seed in seeds {
        let mut schedule = Schedule::seeded(seed);
        let Err(first) = run_checked(net, cfg, &mut schedule, &mut check) else {
            continue;
        };
        let seeded_picks = schedule.picks.len();
        let mut last = None;
        let (best, runs) = minimise(schedule.picks, |candidate| {
            let mut replay = Schedule::replay(&candidate);
            let failure = quietly(|| run_checked(net, cfg, &mut replay, &mut check)).err()?;
            if failure_kind(&failure.message) != failure_kind(&first.message) {
                return None;
            }
            last = Some(failure);
            // Keep only the picks the failing run read, as it served them.
            replay.picks.truncate(candidate.len());
            Some(replay.picks)
        });
        let last = last.as_ref().unwrap_or(&first);
        let literal: Vec<String> = best.iter().map(u32::to_string).collect();
        panic!(
            "{}\n\ncheck_schedules: seed {seed} failed after {} deliveries ({seeded_picks} \
             picks); {runs} re-runs minimised it to {} deliveries ({} picks), which fail \
             with:\n{}\nreplay it with:\n    Schedule::replay(&[{}])",
            first.message,
            first.delivered,
            last.delivered,
            best.len(),
            last.message,
            literal.join(", "),
        );
    }
}

/// Shrink the failing pick sequence `best` within [`SHRINK_RUNS`] re-runs:
/// delete chunks of halving size, then lower single picks toward 0, until
/// a round deletes nothing.  `fails` re-runs a candidate and returns the
/// picks its run served if it still fails.  Returns the shortest failing
/// sequence and the re-runs spent.
fn minimise(
    mut best: Vec<u32>,
    mut fails: impl FnMut(Vec<u32>) -> Option<Vec<u32>>,
) -> (Vec<u32>, u32) {
    let mut runs = 0;
    loop {
        let before = best.len();
        let mut chunk = best.len() / 2;
        while chunk > 0 {
            let mut at = 0;
            while at < best.len() {
                if runs == SHRINK_RUNS {
                    return (best, runs);
                }
                runs += 1;
                let mut candidate = best.clone();
                candidate.drain(at..(at + chunk).min(best.len()));
                match fails(candidate) {
                    Some(found) => best = found,
                    None => at += chunk,
                }
            }
            chunk /= 2;
        }
        let mut at = 0;
        while at < best.len() {
            for lower in [0, best[at] / 2, best[at].saturating_sub(1)] {
                if lower >= best[at] {
                    continue;
                }
                if runs == SHRINK_RUNS {
                    return (best, runs);
                }
                runs += 1;
                let mut candidate = best.clone();
                candidate[at] = lower;
                if let Some(found) = fails(candidate) {
                    best = found;
                    break;
                }
            }
            at += 1;
        }
        if best.len() == before {
            return (best, runs);
        }
    }
}

/// A run that panicked: its message and the deliveries it made first.
struct Failure {
    message: String,
    delivered: u64,
}

/// One run of a clone of `net` under `schedule`, then `check`.
fn run_checked<A>(
    net: &VirtualNet<A>,
    cfg: &ExerciseCfg,
    schedule: &mut Schedule,
    check: &mut impl FnMut(&mut VirtualNet<A>, &ExerciseReport),
) -> Result<(), Failure>
where
    A: Allocator + Clone,
    A::Msg: Clone,
{
    let mut net = net.clone();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let report = run_random_workload(&mut net, cfg, schedule);
        check(&mut net, &report);
    }));
    outcome.map_err(|payload| Failure {
        message: panic_message(&*payload),
        delivered: net.delivered(),
    })
}

/// The text a panic carried.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match payload.downcast_ref::<String>() {
        Some(text) => text.clone(),
        None => payload.downcast_ref::<&str>().unwrap_or(&"a non-text panic").to_string(),
    }
}

/// What kind of failure `message` reports: its text up to the first digit,
/// so the same violation between other nodes or resources still matches.
fn failure_kind(message: &str) -> &str {
    &message[..message.find(|c: char| c.is_ascii_digit()).unwrap_or(message.len())]
}

thread_local! {
    /// Set while this thread's panics are expected and go unprinted.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with this thread's panic output silenced.  The hook that reads
/// the flag is installed once and passes every other panic on, so tests on
/// other threads keep theirs.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let print = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                print(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let r = f();
    QUIET.with(|q| q.set(false));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially safe "protocol": a single-node system that grants itself.
    /// Exercises the harness plumbing.
    #[derive(Clone)]
    struct Solo {
        state: ProcState,
    }

    #[derive(Clone, Debug)]
    enum NoMsg {}
    impl WireMsg for NoMsg {
        fn kind(&self) -> &'static str {
            match *self {}
        }
    }

    impl Allocator for Solo {
        type Msg = NoMsg;
        fn on_init(&mut self, _ctx: &mut Ctx<NoMsg>) {}
        fn on_message(&mut self, _ctx: &mut Ctx<NoMsg>, _from: NodeId, msg: NoMsg) {
            match msg {}
        }
        fn request(&mut self, ctx: &mut Ctx<NoMsg>, _resources: ResourceSet) {
            self.state = ProcState::InCS;
            ctx.grant();
        }
        fn release(&mut self, _ctx: &mut Ctx<NoMsg>) {
            self.state = ProcState::Idle;
        }
        fn state(&self) -> ProcState {
            self.state
        }
        fn name(&self) -> &'static str {
            "solo"
        }
    }

    #[test]
    fn solo_workload_completes() {
        let mut net = VirtualNet::new(vec![Solo { state: ProcState::Idle }], 4);
        let cfg = ExerciseCfg {
            rounds_per_node: 10,
            max_req_size: 2,
            m: 4,
            ..Default::default()
        };
        let rep = run_random_workload(&mut net.clone(), &cfg, &mut Schedule::seeded(7));
        assert_eq!(rep.cs_completed, 10);
        assert_eq!(rep.delivered, 0);
        // The literal ends inside a 2-resource request, where every pick is
        // 0: the harness takes the lowest free resource instead.
        let rep = run_random_workload(&mut net, &cfg, &mut Schedule::replay(&[0, 1]));
        assert_eq!(rep.cs_completed, 10);
    }

    /// A protocol that sends from `on_init`: node 0 pings every peer, and a
    /// peer answers a first ping once.  It never requests.
    #[derive(Clone)]
    struct InitPing {
        me: NodeId,
    }

    #[derive(Clone, Copy, Debug)]
    struct Ping(u8);
    impl WireMsg for Ping {
        fn kind(&self) -> &'static str {
            "Ping"
        }
    }

    impl Allocator for InitPing {
        type Msg = Ping;
        fn on_init(&mut self, ctx: &mut Ctx<Ping>) {
            if self.me == 0 {
                for peer in 1..ctx.n_nodes() {
                    ctx.send(peer, Ping(0));
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<Ping>, from: NodeId, msg: Ping) {
            if msg.0 == 0 {
                ctx.send(from, Ping(1));
            }
        }
        fn request(&mut self, _ctx: &mut Ctx<Ping>, _resources: ResourceSet) {
            unreachable!("never requests");
        }
        fn release(&mut self, _ctx: &mut Ctx<Ping>) {
            unreachable!("never releases");
        }
        fn state(&self) -> ProcState {
            ProcState::Idle
        }
        fn name(&self) -> &'static str {
            "init-ping"
        }
    }

    /// Frames sent from `on_init` are in flight before tracing can be
    /// armed; arming stamps them with send events, so the trace of the run
    /// is causally complete: one send per delivered frame, no delivery
    /// without its send.
    #[test]
    fn arming_after_init_traces_the_frames_already_in_flight() {
        let mut net = VirtualNet::new((0..4).map(|me| InitPing { me }).collect(), 1);
        assert_eq!(net.in_flight(), 3);
        net.arm_tracing(TraceMode::Unbounded);
        net.run_until_quiet(&mut Schedule::seeded(5), 100);
        assert_eq!(net.delivered(), 6);
        let trace = net.take_obs().trace.expect("tracing was armed");
        let events = trace.to_owned_events();
        let check = mra_obs::check_events(&events, trace.dropped);
        assert!(check.ok(), "{:?}", check.details);
        let count = |kind| events.iter().filter(|e| e.kind == kind).count() as u64;
        assert_eq!((count(EventKind::Send), count(EventKind::Recv)), (6, 6));
    }

    /// A minimal two-node token lock (m = 1) for exercising the fault
    /// harness with real message traffic: the token starts at node 0; a
    /// node without it asks the peer; the holder hands it over when idle
    /// (or right after its own release).
    #[derive(Clone)]
    struct TinyLock {
        me: NodeId,
        has_token: bool,
        peer_wants: bool,
        state: ProcState,
        /// A planted bug: the holder hands the token over on `Req` even
        /// while it is in CS.
        yields_in_cs: bool,
    }

    impl TinyLock {
        fn pair() -> Vec<TinyLock> {
            (0..2)
                .map(|me| TinyLock {
                    me,
                    has_token: me == 0,
                    peer_wants: false,
                    state: ProcState::Idle,
                    yields_in_cs: false,
                })
                .collect()
        }
        fn peer(&self) -> NodeId {
            1 - self.me
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum TinyMsg {
        Req,
        Tok,
    }
    impl WireMsg for TinyMsg {
        fn kind(&self) -> &'static str {
            match self {
                TinyMsg::Req => "Req",
                TinyMsg::Tok => "Tok",
            }
        }
    }

    impl Allocator for TinyLock {
        type Msg = TinyMsg;
        fn on_init(&mut self, _ctx: &mut Ctx<TinyMsg>) {}
        fn on_message(&mut self, ctx: &mut Ctx<TinyMsg>, _from: NodeId, msg: TinyMsg) {
            match msg {
                TinyMsg::Req => {
                    // A holder is idle or in CS.
                    if self.has_token && (self.state == ProcState::Idle || self.yields_in_cs) {
                        self.has_token = false;
                        ctx.send(self.peer(), TinyMsg::Tok);
                    } else {
                        self.peer_wants = true;
                    }
                }
                TinyMsg::Tok => {
                    assert!(!self.has_token, "token duplicated");
                    self.has_token = true;
                    if self.state == ProcState::WaitCS {
                        self.state = ProcState::InCS;
                        ctx.grant();
                    }
                }
            }
        }
        fn request(&mut self, ctx: &mut Ctx<TinyMsg>, _resources: ResourceSet) {
            if self.has_token {
                self.state = ProcState::InCS;
                ctx.grant();
            } else {
                self.state = ProcState::WaitCS;
                ctx.send(self.peer(), TinyMsg::Req);
            }
        }
        fn release(&mut self, ctx: &mut Ctx<TinyMsg>) {
            self.state = ProcState::Idle;
            if self.peer_wants {
                self.peer_wants = false;
                self.has_token = false;
                ctx.send(self.peer(), TinyMsg::Tok);
            }
        }
        fn state(&self) -> ProcState {
            self.state
        }
        fn name(&self) -> &'static str {
            "tiny-lock"
        }
    }

    fn tiny_cfg(rounds: usize) -> ExerciseCfg {
        ExerciseCfg {
            rounds_per_node: rounds,
            max_req_size: 1,
            m: 1,
            hold_steps: 2,
            active_nodes: None,
            step_cap: 100_000,
        }
    }

    #[test]
    fn faulty_harness_clean_plan_completes_everything() {
        let mut net = VirtualNet::new(TinyLock::pair(), 1);
        net.install_faults(&crate::faults::FaultPlan::new(5));
        let rep = run_random_workload(&mut net, &tiny_cfg(6), &mut Schedule::seeded(3));
        assert_eq!(rep.cs_completed, 12);
        assert!(rep.starved.is_empty());
        assert_eq!(rep.stats, FaultStats::default());
    }

    #[test]
    fn faulty_harness_without_any_plan_behaves_like_clean() {
        let mut net = VirtualNet::new(TinyLock::pair(), 1);
        let rep = run_random_workload(&mut net, &tiny_cfg(6), &mut Schedule::seeded(4));
        assert_eq!(rep.cs_completed, 12);
    }

    #[test]
    fn reliability_recovers_every_cs_under_heavy_loss() {
        let mut net = VirtualNet::new(TinyLock::pair(), 1);
        net.install_faults(&crate::faults::FaultPlan::new(5).drop_rate(0.4).dup_rate(0.2));
        net.enable_reliability(crate::reliable::Reliability::default());
        // The harness itself asserts full completion: with the session
        // layer on, a 40% drop rate is recovered and liveness is owed.
        let rep = run_random_workload(&mut net, &tiny_cfg(6), &mut Schedule::seeded(11));
        assert_eq!(rep.cs_completed, 12);
        assert!(rep.starved.is_empty());
        assert!(rep.stats.dropped_link > 0, "the plan did drop frames");
        assert!(rep.reliability.retransmits > 0, "recovery took retransmissions");
        assert!(rep.reliability.acks_sent + rep.reliability.acks_piggybacked > 0);
    }

    #[test]
    fn reliability_on_clean_links_costs_no_retransmission() {
        let mut net = VirtualNet::new(TinyLock::pair(), 1);
        net.enable_reliability(crate::reliable::Reliability::default());
        let rep = run_random_workload(&mut net, &tiny_cfg(6), &mut Schedule::seeded(3));
        assert_eq!(rep.cs_completed, 12);
        assert_eq!(rep.reliability.retransmits, 0);
        assert_eq!(rep.reliability.gap_dropped, 0);
        assert_eq!(rep.reliability.dup_dropped, 0);
        assert!(rep.reliability.data_sent > 0);
    }

    #[test]
    fn total_loss_starves_the_tokenless_node_but_stays_safe() {
        let mut net = VirtualNet::new(TinyLock::pair(), 1);
        net.install_faults(&crate::faults::FaultPlan::new(5).drop_rate(1.0));
        let rep = run_random_workload(&mut net, &tiny_cfg(4), &mut Schedule::seeded(11));
        // Node 0 holds the token and completes locally; node 1's requests
        // all vanish on the wire.
        assert_eq!(rep.cs_completed, 4);
        assert_eq!(rep.starved, vec![1]);
        assert!(rep.stats.dropped_link > 0);
    }

    #[test]
    fn time_keyed_faults_do_not_apply_on_the_clockless_net() {
        // The step counter is not a clock: a pause and a partition that
        // cover all of time must leave the net untouched.
        let forever = Time::from_nanos(u64::MAX);
        let plan = crate::faults::FaultPlan::new(5)
            .pause(1, Time::ZERO, forever)
            .crash(0, Time::ZERO, forever)
            .partition(vec![0], Time::ZERO, forever);
        let mut net = VirtualNet::new(TinyLock::pair(), 1);
        net.install_faults(&plan);
        // Crash and partition windows make the plan lossy on paper, so
        // the harness would tolerate starvation — there must be none.
        assert!(!net.owes_liveness());
        let rep = run_random_workload(&mut net, &tiny_cfg(6), &mut Schedule::seeded(3));
        assert_eq!(rep.cs_completed, 12);
        assert!(rep.starved.is_empty());
        assert_eq!(rep.stats, FaultStats::default());
    }

    #[test]
    fn drop_decisions_are_reproducible_across_runs() {
        let run = |seed: u64| {
            let mut net = VirtualNet::new(TinyLock::pair(), 1);
            net.install_faults(&crate::faults::FaultPlan::new(seed).drop_rate(0.3));
            let mut schedule = Schedule::seeded(9);
            let rep = run_random_workload(&mut net, &tiny_cfg(5), &mut schedule);
            (rep.cs_completed, rep.stats)
        };
        assert_eq!(run(21), run(21));
    }

    #[test]
    fn replay_serves_its_literal_then_zeros_and_every_pick_is_below_its_bound() {
        let mut replay = Schedule::replay(&[4, 9, u32::MAX]);
        assert_eq!(replay.pick(5), 4);
        assert_eq!(replay.pick(4), 1, "a literal pick is taken modulo its bound");
        assert_eq!(replay.pick(1), 0);
        assert!(!replay.past_end());
        assert_eq!((0..8).map(|_| replay.pick(3)).collect::<Vec<_>>(), [0; 8]);
        assert!(replay.past_end());
        assert_eq!(replay.picks(), [4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let mut seeded = Schedule::seeded(5);
        for bound in (1..200).chain([1 << 20, 1 << 32]) {
            assert!(seeded.pick(bound) < bound);
        }
        assert_eq!(seeded.picks().len(), 201);
    }

    /// Unwind `f` quietly and return its panic message.
    fn panic_text(f: impl FnOnce()) -> String {
        panic_message(&*quietly(|| panic::catch_unwind(AssertUnwindSafe(f))).unwrap_err())
    }

    #[test]
    fn check_schedules_minimises_a_planted_bug_into_a_replay() {
        let mut nodes = TinyLock::pair();
        nodes.iter_mut().for_each(|node| node.yields_in_cs = true);
        let (net, cfg) = (VirtualNet::new(nodes, 1), tiny_cfg(6));
        let run = |schedule: &mut Schedule| {
            quietly(|| run_checked(&net, &cfg, schedule, &mut |_, _| {}))
        };
        let first = (0..20)
            .map(Schedule::seeded)
            .find_map(|mut seeded| run(&mut seeded).err().map(|_| seeded.picks.len()))
            .expect("the planted bug fails some seed");
        let text = panic_text(|| check_schedules(&net, &cfg, 0..20, |_, _| {}));
        assert!(text.starts_with("SAFETY VIOLATION"), "{text}");
        let literal: Vec<u32> = text
            .split("Schedule::replay(&[")
            .nth(1)
            .and_then(|rest| rest.split("])").next())
            .expect("the panic prints a replay literal")
            .split(", ")
            .filter(|p| !p.is_empty())
            .map(|p| p.parse().unwrap())
            .collect();
        assert!(literal.len() <= first, "{} picks, first failure {first}", literal.len());
        let replayed = run(&mut Schedule::replay(&literal)).unwrap_err().message;
        assert!(replayed.starts_with("SAFETY VIOLATION"), "{replayed}");
        assert!(text.contains(&format!("fail with:\n{replayed}\n")), "{text}");
    }

    #[test]
    fn monitor_catches_double_grant() {
        let mut mon = SafetyMonitor::new(2, 3);
        mon.enter(0, ResourceSet::singleton(1));
        let boom = panic_text(|| mon.enter(1, ResourceSet::singleton(1)));
        assert!(boom.starts_with("SAFETY VIOLATION"), "{boom}");
    }

    #[test]
    fn monitor_tracks_concurrency() {
        let mut mon = SafetyMonitor::new(3, 6);
        mon.enter(0, ResourceSet::singleton(0));
        mon.enter(1, ResourceSet::singleton(1));
        assert_eq!(mon.concurrency(), 2);
        mon.exit(0);
        assert_eq!(mon.concurrency(), 1);
        assert!(mon.is_in_cs(1));
        assert!(!mon.is_in_cs(0));
    }
}

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
//! would rarely hit.  A dev-only crate: the shipped crates take it only as a
//! dev-dependency.

use mra_obs::{EngineTracer, EventKind, ObsReport, TraceMode};
use mra_protocol::faults::{Admit, FaultPlan, FaultStats};
use mra_protocol::link::Link;
use mra_protocol::reliable::{Packet, Reliability, ReliabilityStats};
use mra_protocol::testkit::SafetyMonitor;
use mra_protocol::{Allocator, Ctx, ProcState, WireMsg};
use mra_types::{NodeId, ResourceSet, Time};
use proptest::test_runner::check_seeds;
use std::cell::RefCell;
use std::collections::VecDeque;

pub use proptest::test_runner::Schedule;

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

    /// Enable the reliable-delivery session layer: every subsequent send is
    /// sequenced into a per-link session ([`mra_protocol::reliable`]), receivers
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
        self.steps += 1;
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
        self.steps += 1;
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
                self.steps += 1;
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
/// * **liveness, where owed** ([`Link::owes_liveness`]: no plan, a
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
    let owed = net.link.owes_liveness();
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
                    if net.link.sessions_on() { "on" } else { "off" },
                    net.link.session_stats(),
                    net.link.fault_stats(),
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
        stats: net.link.fault_stats(),
        reliability: net.link.session_stats(),
    }
}

/// The property entry point: for each seed, run a clone of `net` through
/// [`run_random_workload`] under [`Schedule::seeded`], then `check` the
/// net and its report.
///
/// # Panics
/// When a run panics, in the harness or in `check`, once
/// [`check_seeds`] has minimised the recorded picks.  The panic names the
/// seed and both runs' deliveries, and prints the minimised run as a
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
    // The last run's net, kept past a panic so its deliveries can be read.
    let last = RefCell::new(net.clone());
    check_seeds(
        seeds,
        |schedule| {
            let mut run = last.borrow_mut();
            *run = net.clone();
            let report = run_random_workload(&mut run, cfg, schedule);
            check(&mut run, &report);
            Ok(())
        },
        |_| format!("a run of {} deliveries", last.borrow().delivered()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};

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
        net.install_faults(&mra_protocol::faults::FaultPlan::new(5));
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
        net.install_faults(&mra_protocol::faults::FaultPlan::new(5).drop_rate(0.4).dup_rate(0.2));
        net.enable_reliability(mra_protocol::reliable::Reliability::default());
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
        net.enable_reliability(mra_protocol::reliable::Reliability::default());
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
        net.install_faults(&mra_protocol::faults::FaultPlan::new(5).drop_rate(1.0));
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
        let plan = mra_protocol::faults::FaultPlan::new(5)
            .pause(1, Time::ZERO, forever)
            .crash(0, Time::ZERO, forever)
            .partition(vec![0], Time::ZERO, forever);
        let mut net = VirtualNet::new(TinyLock::pair(), 1);
        net.install_faults(&plan);
        // Crash and partition windows make the plan lossy on paper, so
        // the harness would tolerate starvation — there must be none.
        assert!(!net.link.owes_liveness());
        let rep = run_random_workload(&mut net, &tiny_cfg(6), &mut Schedule::seeded(3));
        assert_eq!(rep.cs_completed, 12);
        assert!(rep.starved.is_empty());
        assert_eq!(rep.stats, FaultStats::default());
    }

    #[test]
    fn drop_decisions_are_reproducible_across_runs() {
        let run = |seed: u64| {
            let mut net = VirtualNet::new(TinyLock::pair(), 1);
            net.install_faults(&mra_protocol::faults::FaultPlan::new(seed).drop_rate(0.3));
            let mut schedule = Schedule::seeded(9);
            let rep = run_random_workload(&mut net, &tiny_cfg(5), &mut schedule);
            (rep.cs_completed, rep.stats)
        };
        assert_eq!(run(21), run(21));
    }

    /// Unwind `f` and return its panic message.
    fn panic_text(f: impl FnOnce()) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(f)).unwrap_err();
        match payload.downcast_ref::<String>() {
            Some(text) => text.clone(),
            None => payload.downcast_ref::<&str>().expect("a text panic").to_string(),
        }
    }

    #[test]
    fn check_schedules_minimises_a_planted_bug_into_a_replay() {
        let mut nodes = TinyLock::pair();
        nodes.iter_mut().for_each(|node| node.yields_in_cs = true);
        let (net, cfg) = (VirtualNet::new(nodes, 1), tiny_cfg(6));
        let run = |schedule: &mut Schedule| {
            panic_text(|| {
                run_random_workload(&mut net.clone(), &cfg, schedule);
            })
        };
        let first = (0..20)
            .map(Schedule::seeded)
            .find_map(|mut seeded| {
                let failed = panic::catch_unwind(AssertUnwindSafe(|| {
                    run_random_workload(&mut net.clone(), &cfg, &mut seeded)
                }));
                failed.is_err().then(|| seeded.picks().len())
            })
            .expect("the planted bug fails some seed");
        let text = panic_text(|| check_schedules(&net, &cfg, 0..20, |_, _| {}));
        assert!(text.starts_with("SAFETY VIOLATION"), "{text}");
        let literal: Vec<u64> = text
            .split("Schedule::replay(&[")
            .nth(1)
            .and_then(|rest| rest.split("])").next())
            .expect("the panic prints a replay literal")
            .split(", ")
            .filter(|p| !p.is_empty())
            .map(|p| p.parse().unwrap())
            .collect();
        assert_eq!(literal, [1], "first failure read {first} picks");
        let replayed = run(&mut Schedule::replay(&literal));
        assert!(replayed.starts_with("SAFETY VIOLATION"), "{replayed}");
        assert!(text.contains(&format!("fails with:\n{replayed}\n")), "{text}");
    }
}

//! The discrete-event simulation engine.
//!
//! A [`Sim`] owns one [`Allocator`] instance and one workload per node, a
//! virtual clock, and an event queue per *shard*.  Two event classes
//! exist: message deliveries (after a sampled link latency, FIFO per
//! directed link) and node timers (think-time expiry → issue a request;
//! CS expiry → release).  Everything is deterministic given the seed.
//!
//! # Sharded conservative execution
//!
//! With `SimConfig::shards = k > 1` the nodes are split round-robin across
//! `k` shards (node `i` lives on shard `i % k`), each owning its own event
//! queue, and the engine runs a *conservative windowed* schedule, shard
//! after shard on the calling thread (there is no threaded driver, by
//! measurement: DESIGN §10.2).  The minimum link latency
//! `L = LatencyModel::min_latency()` is the **lookahead** — an event
//! executing at time `t` can only schedule a remote event at `t + L` or
//! later — so from the global minimum timestamp `T`, every shard can
//! process its events in `[T, T + L)` without hearing from anyone.
//! Cross-shard events wait in mail buffers delivered between windows; no
//! null messages are needed: the window boundary carries the time guarantee.
//!
//! Determinism does not stop at "some legal schedule": the sharded engine
//! is **bit-identical** to the sequential one.  Every pushed event carries
//! a canonical ordering key `(at, ord)` where `ord` encodes the single
//! writer *lane* that produced it (a directed link, or a node's local
//! timer lane) and a per-lane push counter.  Per-node processing order —
//! and hence per-lane push sequences — is the same under any shard count,
//! so the keys, and therefore the pop order, the RNG draws and every
//! metric, coincide exactly.
//!
//! Safety is *monitored*, not assumed: every grant is checked against the
//! holders of every resource (a violation panics).  The single-shard path
//! checks online; sharded runs log compact enter/exit notes per shard and
//! replay them in global `(at, ord)` order at the end of the run, so each
//! simulated experiment still doubles as a large randomized protocol test.

use crate::driver::{node_rng, Driver, DriverState, Workload};
use crate::latency::LatencyModel;
use crate::metrics::{Collector, RunResult};
use mra_obs::{EngineTracer, EventKind, ObsReport, TraceMode};
use mra_protocol::faults::{Admit, FaultPlan, FaultStats};
use mra_protocol::link::Link;
use mra_protocol::reliable::{Packet, Reliability, ReliabilityStats, RtoVerdict};
use mra_protocol::testkit::SafetyMonitor;
use mra_protocol::{Allocator, Ctx, WireMsg};
use mra_types::{IdMap, NodeId, ResourceSet, Time};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::time::Instant;

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Link latency model (the paper's γ).
    pub latency: LatencyModel,
    /// Master seed; all per-node and network randomness derives from it.
    pub seed: u64,
    /// Warmup prefix excluded from the measurement window.
    pub warmup: Time,
    /// Length of the measurement window.
    pub measure: Time,
    /// Extra time after the window for in-flight requests to finish
    /// (issuing stops at the window end).
    pub drain: Time,
    /// Only nodes `0..active` issue requests (`None` = all).  Used by the
    /// coordinator-based central scheduler.
    pub active_nodes: Option<usize>,
    /// Hard cap on processed events per shard (runaway guard).
    pub max_events: u64,
    /// Shards of the conservative windowed schedule, which runs on the
    /// calling thread (clamped to `[1, n]`; forced to 1 when the latency
    /// model has zero lookahead).  The result is bit-identical for every
    /// value.
    pub shards: usize,
}

impl SimConfig {
    /// Reasonable defaults for tests: paper LAN latency, 100 ms warmup,
    /// 1 s window, 1 s drain, one shard.
    pub fn quick(seed: u64) -> Self {
        SimConfig {
            latency: LatencyModel::paper_lan(),
            seed,
            warmup: Time::from_millis(100),
            measure: Time::from_secs(1),
            drain: Time::from_secs(1),
            active_nodes: None,
            max_events: 200_000_000,
            shards: 1,
        }
    }

    /// Shard count from the `MRA_SIM_SHARDS` environment variable
    /// (default 1).  Values are sanitized to at least 1; `Sim::new` clamps
    /// to the node count.
    pub fn env_shards() -> usize {
        std::env::var("MRA_SIM_SHARDS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&v| v >= 1)
            .unwrap_or(1)
    }
}

enum Ev<M> {
    /// A frame arriving at `to`: a protocol message (with a session header
    /// when reliability is on) or a standalone session ack.  `stamp` is
    /// the sender's Lamport stamp when tracing is armed (0 disarmed, and on
    /// acks, which are untraced): riding inside the event is what carries
    /// causality across shard mailboxes, loss and duplication without any
    /// side channel.
    Frame {
        from: NodeId,
        to: NodeId,
        stamp: u64,
        frame: Packet<M>,
    },
    /// Retransmit timer of the directed link `from → to`.
    Rto { from: NodeId, to: NodeId },
    Think { node: NodeId },
    CsEnd { node: NodeId },
}

impl<M> Ev<M> {
    /// The node at which this event executes — and therefore the shard
    /// that owns it.  Frames run at the receiver; timers (including
    /// retransmit timers) at the node that armed them.
    #[inline]
    fn executor(&self) -> NodeId {
        match *self {
            Ev::Frame { to, .. } => to,
            Ev::Rto { from, .. } => from,
            Ev::Think { node } | Ev::CsEnd { node } => node,
        }
    }
}

/// Node count cap: lane ids (`from * n + to` and `n * n + node`) must fit
/// in the upper 32 bits of an ordering key.
const LANE_MAX_NODES: usize = 65_534;

/// Per-lane state: the FIFO high-water mark of the wire lanes (never
/// deliver before an earlier message on the same directed link) and the
/// push counter that makes ordering keys unique.
#[derive(Clone, Copy, Default)]
struct LaneEnt {
    last: Time,
    ctr: u32,
}

/// One *lane* per single-writer push stream: `from * n + to` for frames on
/// the directed link `from → to` (written by the shard owning `from` for
/// data, by the shard owning the ack sender for acks), and `n * n + node`
/// for a node's local pushes — timers and fault deferrals (written by the
/// shard owning `node`).  Dense for paper-scale runs; a hash map above
/// [`LANE_DENSE_MAX_NODES`] nodes, where the `n² + n` dense table would
/// dwarf the live lane set (at 10 000 nodes: 100 M entries vs the few
/// links a node actually talks on).
enum LaneTable {
    Dense(Vec<LaneEnt>),
    Sparse(IdMap<u32, LaneEnt>),
}

/// Above this node count the lane table goes sparse.
const LANE_DENSE_MAX_NODES: usize = 512;

impl LaneTable {
    fn new(n: usize) -> Self {
        if n <= LANE_DENSE_MAX_NODES {
            LaneTable::Dense(vec![LaneEnt::default(); n * n + n])
        } else {
            LaneTable::Sparse(IdMap::default())
        }
    }

    #[inline]
    fn ent(&mut self, lane: u32) -> &mut LaneEnt {
        match self {
            LaneTable::Dense(v) => &mut v[lane as usize],
            LaneTable::Sparse(m) => m.entry(lane).or_default(),
        }
    }
}

/// Mint the canonical ordering key fragment for one push on `lane`:
/// `lane` in the high 32 bits, the bumped per-lane counter in the low 32.
/// Unique per lane forever, hence globally unique — and identical for any
/// shard count, because each lane has exactly one writer whose push
/// sequence does not depend on the execution layout.
#[inline]
fn mk_ord(lane: u32, e: &mut LaneEnt) -> u64 {
    let ord = (u64::from(lane) << 32) | u64::from(e.ctr);
    e.ctr = e.ctr.checked_add(1).expect("lane push counter overflow");
    ord
}

/// Compact heap entry: the canonical `(at, ord)` ordering key plus the
/// slab slot holding the event payload.  The heap sifts these small `Copy`
/// keys on every push/pop while the (potentially large) `Ev<M>` payloads
/// stay put in the slab.  `(at, ord)` is globally unique (see [`mk_ord`]),
/// so the derived lexicographic order never consults `slot` when comparing
/// distinct events.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EvKey {
    at: Time,
    ord: u64,
    slot: u32,
}

/// The simulator's event queue: a deque of frames in `(at, ord)` order
/// beside a 4-ary min-heap of packed [`EvKey`]s over a free-list slab of
/// event payloads.  Pops take the smaller head of the two, so the pop
/// order is the one total `(at, ord)` order whichever side holds an event.
///
/// The deque exists because on constant-latency links a frame is almost
/// always sent later than every frame in flight and so arrives after them
/// all: a frame whose `at` is not earlier than the deque's last joins it
/// (placed by `ord` among the equal-`at` tail), which costs a push and a
/// pop instead of two sifts.  Every other frame, and every timer, takes
/// the heap.  DESIGN §7.2 has the share each workload sends through it.
///
/// 4-ary because sift-down dominates a discrete-event workload (every pop
/// sifts, pushes often stop early): halving the tree depth trades two
/// extra (adjacent, same-cache-line) comparisons per level for half the
/// memory moves, and the hole-based sift moves each key once instead of
/// swapping.  In steady state (constant event population) every push
/// reuses a freed slot or deque cell, so the queue performs no heap
/// allocation after warmup.
struct EventQueue<M> {
    frames: VecDeque<(Time, u64, Ev<M>)>,
    heap: Vec<EvKey>,
    slab: Vec<Option<Ev<M>>>,
    free: Vec<u32>,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            frames: VecDeque::new(),
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    fn push(&mut self, at: Time, ord: u64, ev: Ev<M>) {
        if matches!(ev, Ev::Frame { .. }) && self.frames.back().map_or(true, |b| b.0 <= at) {
            let mut i = self.frames.len();
            while i > 0 && (self.frames[i - 1].0, self.frames[i - 1].1) > (at, ord) {
                i -= 1;
            }
            self.frames.insert(i, (at, ord, ev));
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slab[s as usize].is_none());
                self.slab[s as usize] = Some(ev);
                s
            }
            None => {
                assert!(self.slab.len() < u32::MAX as usize, "event slab overflow");
                self.slab.push(Some(ev));
                // The free list holds at most one entry per slab slot; keep
                // its capacity at that bound so popping without a matching
                // push (a fault-dropped event) never reallocates mid-run.
                let need = self.slab.len();
                if self.free.capacity() < need {
                    self.free.reserve_exact(need - self.free.len());
                }
                (self.slab.len() - 1) as u32
            }
        };
        let key = EvKey { at, ord, slot };
        // Sift up with a hole: parents shift down until `key` fits.
        let heap = &mut self.heap;
        heap.push(key);
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) >> 2;
            if heap[parent] <= key {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = key;
    }

    fn pop(&mut self) -> Option<(Time, u64, Ev<M>)> {
        let frame_first = match (self.frames.front(), self.heap.first()) {
            (Some(f), Some(h)) => (f.0, f.1) < (h.at, h.ord),
            (f, _) => f.is_some(),
        };
        if frame_first {
            return self.frames.pop_front();
        }
        let heap = &mut self.heap;
        let top = *heap.first()?;
        let tail = heap.pop().expect("heap is non-empty");
        let n = heap.len();
        if n > 0 {
            // Sift the former tail down from the root with a hole: the
            // smallest child moves up until `tail` fits.  Keys are copied
            // into locals so the child scan reads each slot once.
            let mut i = 0;
            loop {
                let first_child = (i << 2) + 1;
                if first_child >= n {
                    break;
                }
                let last_child = (first_child + 4).min(n);
                let mut min = first_child;
                let mut min_key = heap[first_child];
                for (off, &k) in heap[first_child + 1..last_child].iter().enumerate() {
                    if k < min_key {
                        min = first_child + 1 + off;
                        min_key = k;
                    }
                }
                if tail <= min_key {
                    break;
                }
                heap[i] = min_key;
                i = min;
            }
            heap[i] = tail;
        }
        let slot = top.slot;
        let ev = self.slab[slot as usize].take().expect("slab slot vacant");
        self.free.push(slot);
        Some((top.at, top.ord, ev))
    }

    /// Timestamp of the earliest queued event.
    #[inline]
    fn peek_at(&self) -> Option<Time> {
        let frame = self.frames.front().map(|f| f.0);
        let heap = self.heap.first().map(|k| k.at);
        match (frame, heap) {
            (Some(f), Some(h)) => Some(f.min(h)),
            (f, h) => f.or(h),
        }
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty() && self.heap.is_empty()
    }

    /// Pre-reserve deque, heap, slab and free-list capacity for `extra`
    /// more in-flight events, so a later population peak does not
    /// reallocate (the zero-alloc guard pre-sizes for retransmission
    /// bursts).
    fn reserve(&mut self, extra: usize) {
        self.frames.reserve(extra);
        self.heap.reserve(extra);
        self.slab.reserve(extra);
        self.free.reserve(self.slab.capacity().saturating_sub(self.free.len()));
    }
}

struct SimNode<A: Allocator, W> {
    proto: A,
    ctx: Ctx<A::Msg>,
    driver: Driver,
    workload: W,
    rng: StdRng,
    /// Per-node network RNG (jittered latency draws by this node's sends):
    /// giving each sender its own stream keeps the draw sequence
    /// independent of global event interleaving, which is what makes the
    /// sharded schedule bit-identical to the sequential one.
    net_rng: StdRng,
}

/// A cross-shard event in flight between windows.
struct Mail<M> {
    at: Time,
    ord: u64,
    ev: Ev<M>,
}

/// One CS enter/exit observation on a sharded run, replayed through a
/// [`SafetyMonitor`] in global `(at, ord)` order at the end.
struct CsNote {
    at: Time,
    ord: u64,
    /// Exit sorts before enter at identical `(at, ord)` (cannot happen
    /// today — one event never logs both — but the key is kept total).
    enter: bool,
    node: NodeId,
    /// The granted set (empty on exit).
    set: ResourceSet,
}

/// A shard's scheduling state: its event queue, the lane table that mints
/// ordering keys, and the outbound mail of events other shards execute.
struct Sched<M> {
    /// This shard's index, the shard count and the node count.
    id: usize,
    k: usize,
    n: usize,
    queue: EventQueue<M>,
    lanes: LaneTable,
    /// Outbound cross-shard events, one buffer per destination shard.
    mail_out: Vec<Vec<Mail<M>>>,
}

impl<M> Sched<M> {
    /// Route an event to its executor: push locally, or into the mail
    /// buffer of the owning shard.
    #[inline]
    fn route(&mut self, at: Time, ord: u64, ev: Ev<M>) {
        let dst = ev.executor() % self.k;
        if dst == self.id {
            self.queue.push(at, ord, ev);
        } else {
            self.mail_out[dst].push(Mail { at, ord, ev });
        }
    }

    /// Push an event `node` (owned by this shard) schedules for itself —
    /// a timer or a fault deferral — keyed on its local lane.
    #[inline]
    fn push_local(&mut self, node: NodeId, at: Time, ev: Ev<M>) {
        let lane = (self.n * self.n + node) as u32;
        let ord = mk_ord(lane, self.lanes.ent(lane));
        self.queue.push(at, ord, ev);
    }

    /// Put a data frame sent at `now` with sampled latency `lat` on the
    /// wire lane `from → to` — first transmissions and retransmissions
    /// alike.  Reliable FIFO links: never deliver before an earlier frame
    /// on the same link (1 ns separation keeps strict order even under
    /// jittered latency).  The `now + 1` floor makes delivery *strictly*
    /// after the send even under `LatencyModel::Zero`: the canonical trace
    /// key order `(at, ord)` then respects causality, which the per-lane
    /// `ord` counters alone cannot guarantee for same-instant cross-lane
    /// events.
    #[inline]
    fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        now: Time,
        lat: Time,
        stamp: u64,
        frame: Packet<M>,
    ) {
        let lane = (from * self.n + to) as u32;
        let e = self.lanes.ent(lane);
        let at = (now + lat)
            .max(now + Time::from_nanos(1))
            .max(e.last + Time::from_nanos(1));
        e.last = at;
        let ord = mk_ord(lane, e);
        self.route(at, ord, Ev::Frame { from, to, stamp, frame });
    }
}

/// One shard: the nodes `i ≡ id (mod k)`, their event queue, lanes, clock
/// and per-shard copies of every state the event handlers touch.  Fault
/// link filters are indexed by receiver, session-layer endpoints by their
/// owning node, so under the executor mapping every access lands on the
/// shard-local copy and a window never reads another shard's state.
struct Shard<A: Allocator, W: Workload> {
    nodes: Vec<SimNode<A, W>>,
    sched: Sched<A::Msg>,
    now: Time,
    events: u64,
    horizon_cut: bool,
    /// Fault plan and session layer, if installed.
    link: Link<A::Msg>,
    collector: Collector,
    /// Online safety monitor — single-shard runs only.
    monitor: Option<SafetyMonitor>,
    /// CS observations for the end-of-run replay — sharded runs only.
    cs_log: Vec<CsNote>,
    /// Causal tracing; disarmed by default (every hook is a
    /// single-branch no-op — the zero-alloc guard covers this state).
    tracer: EngineTracer,
    latency: LatencyModel,
    stop_issuing: Time,
    end_at: Time,
    max_events: u64,
    active: usize,
}

impl<A: Allocator, W: Workload> Shard<A, W> {
    /// Local slot of a node this shard owns.
    #[inline]
    fn local(&self, i: NodeId) -> usize {
        let Sched { id, k, .. } = self.sched;
        debug_assert_eq!(i % k, id, "node {i} not owned by shard {id}");
        i / k
    }

    /// The node in local slot `j`.
    #[inline]
    fn global(&self, j: usize) -> NodeId {
        j * self.sched.k + self.sched.id
    }

    /// Initialize this shard's protocols and seed their think timers.
    fn init_nodes(&mut self) {
        for node in &mut self.nodes {
            node.ctx.set_now(Time::ZERO);
            node.proto.on_init(&mut node.ctx);
        }
        for j in 0..self.nodes.len() {
            let i = self.global(j);
            // Init-time sends run before any dispatch has set a trace key:
            // give each node's init outbox a synthetic per-node key.  It
            // cannot collide with real dispatch keys — those are
            // `lane << 32 | ctr`, and small plain values live on lane 0,
            // the 0 → 0 self-link no protocol ever sends on.  Crucially
            // these keys are tracer-only: no engine lane counter is minted
            // for them, so arming tracing cannot perturb the schedule.
            self.tracer.set_key(Time::ZERO, i as u64);
            self.schedule_outbox(i);
        }
        for j in 0..self.nodes.len() {
            let i = self.global(j);
            if i < self.active {
                let think = {
                    let SimNode { workload, rng, .. } = &mut self.nodes[j];
                    workload.set_now(Time::ZERO);
                    workload.think_time(rng)
                };
                self.sched.push_local(i, think, Ev::Think { node: i });
            }
        }
    }

    fn schedule_outbox(&mut self, from: NodeId) {
        // Disjoint field borrows: the outbox drains in place (its capacity
        // is the reused buffer) while the queue, lane table and mail
        // buffers are updated — no per-dispatch side buffer, no copies.
        let j = self.local(from);
        let SimNode { ctx, net_rng, .. } = &mut self.nodes[j];
        if !ctx.has_output() {
            // Common case: the handler replied with nothing (counter
            // updates, absorbed tokens).
            return;
        }
        let now = self.now;
        for (to, msg) in ctx.drain_outbox() {
            // Session mode: stamp the frame, retain the retransmit copy,
            // piggyback the cumulative ack (`None` on perfect links).
            let session = self.link.stamp(from, to, &msg, now);
            // `sample` fast-paths deterministic models (the paper's
            // γ = const) without touching the RNG.
            let lat = self.latency.sample(from, to, net_rng);
            // Only an armed tracer reads the kind and the weight, and
            // `weight()` walks every token a message carries.
            let stamp = if self.tracer.is_armed() {
                self.tracer.on_send(from, to, msg.kind(), msg.weight() as u32)
            } else {
                0
            };
            self.sched.send(from, to, now, lat, stamp, Packet::Data { session, msg });
            // Make sure a retransmit timer is ticking for this link; it
            // executes at `from` = here.
            if let Some(delay) = self.link.arm_rto(from, to) {
                self.sched.push_local(from, now + delay, Ev::Rto { from, to });
            }
        }
    }

    /// If `to` still owes `from` an ack for the data link `from → to`
    /// (no reply piggybacked it), put the standalone ack frame on the
    /// reverse wire.  No-op with reliability off.
    fn flush_ack(&mut self, from: NodeId, to: NodeId) {
        let Some(ack) = self.link.take_ack(from, to) else {
            return;
        };
        let j = self.local(to);
        let lat = self.latency.sample(to, from, &mut self.nodes[j].net_rng);
        // Acks bypass the FIFO tiebreak on purpose: a cumulative ack is
        // order-insensitive (applying an older value after a newer one is
        // a no-op), and exempting it keeps data-frame timing — and thus
        // every protocol outcome under constant latency — identical to the
        // reliability-off schedule when no frame is ever lost.  The ack
        // still draws its key from the `to → from` wire lane (same writer:
        // this shard owns `to`), just without bumping the FIFO mark.
        let lane = (to * self.sched.n + from) as u32;
        let ord = mk_ord(lane, self.sched.lanes.ent(lane));
        let ev = Ev::Frame { from: to, to: from, stamp: 0, frame: ack };
        self.sched.route(self.now + lat, ord, ev);
    }

    /// Re-schedule `ev` for `node`, which is down (or paused) at `at`, at
    /// its restart instant `until` — strictly later, so the clock moves.
    fn defer(&mut self, node: NodeId, at: Time, until: Time, ev: Ev<A::Msg>) {
        let when = until.max(at + Time::from_nanos(1));
        self.sched.push_local(node, when, ev);
    }

    fn note_cs_enter(&mut self, node: NodeId, ord: u64, set: ResourceSet) {
        match self.monitor.as_mut() {
            Some(mon) => mon.enter(node, set),
            None => self.cs_log.push(CsNote {
                at: self.now,
                ord,
                enter: true,
                node,
                set,
            }),
        }
    }

    fn note_cs_exit(&mut self, node: NodeId, ord: u64) {
        match self.monitor.as_mut() {
            Some(mon) => mon.exit(node),
            None => self.cs_log.push(CsNote {
                at: self.now,
                ord,
                enter: false,
                node,
                set: ResourceSet::EMPTY,
            }),
        }
    }

    fn post_dispatch(&mut self, i: NodeId, ord: u64) {
        self.schedule_outbox(i);
        let j = self.local(i);
        if self.nodes[j].ctx.take_granted() {
            let set = self.nodes[j].driver.current_set();
            let size = set.len() as u32;
            let now = self.now;
            self.note_cs_enter(i, ord, set);
            self.collector.on_grant(i, now);
            self.nodes[j].workload.on_grant(now);
            self.tracer.on_cs(EventKind::CsEnter, i, size);
            let cs = self.nodes[j].driver.granted();
            self.sched.push_local(i, now + cs, Ev::CsEnd { node: i });
        }
    }

    /// Execute one event at its scheduled time.
    fn dispatch(&mut self, at: Time, ord: u64, ev: Ev<A::Msg>) {
        self.events += 1;
        assert!(
            self.events <= self.max_events,
            "simulation exceeded {} events — runaway protocol?",
            self.max_events
        );
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.tracer.set_key(at, ord);
        if !matches!(ev, Ev::Frame { .. }) {
            // A down node (paused or crashed) runs none of its timers —
            // its application lifecycle stops (a frozen node holds its
            // resources through the outage), its retransmissions too;
            // they all resume at restart.
            let node = ev.executor();
            if let Some(until) = self.link.down_until(node, at) {
                self.defer(node, at, until, ev);
                return;
            }
        }
        match ev {
            Ev::Frame { from, to, stamp, frame } => {
                // Fault admission at event pop: the zero-alloc hot path is
                // preserved — decisions are pure hashes over pre-sized
                // tables, a deferral re-pushes into the free-list slab.
                match self.link.arrive(&mut self.tracer, from, to, Some(at), stamp, &frame) {
                    Admit::Drop => return,
                    Admit::Defer(until) => {
                        self.defer(to, at, until, Ev::Frame { from, to, stamp, frame });
                        return;
                    }
                    Admit::Absorb => {}
                    Admit::Deliver => {
                        let Packet::Data { msg, .. } = frame else {
                            unreachable!("only data frames deliver");
                        };
                        // Session dedup absorbs stale frames before this
                        // point, so exactly one recv is traced per
                        // accepted frame.
                        let (kind, weight) = (msg.kind(), msg.weight());
                        self.tracer.on_recv(from, to, kind, weight as u32, stamp);
                        self.collector.on_message(kind, weight);
                        let j = self.local(to);
                        let node = &mut self.nodes[j];
                        node.ctx.set_now(at);
                        node.proto.on_message(&mut node.ctx, from, msg);
                        self.post_dispatch(to, ord);
                    }
                }
                // The handler's reply (if any) piggybacked the ack inside
                // `post_dispatch`; otherwise a standalone ack goes out now.
                self.flush_ack(from, to);
            }
            Ev::Rto { from, to } => {
                match self.link.on_rto(from, to, at) {
                    // Everything acked in the meantime; the timer dies and
                    // the next send re-arms it.
                    RtoVerdict::Idle => return,
                    // The oldest unacked frame is younger than the timeout
                    // (the timer was armed for an already-acked frame):
                    // follow it without retransmitting or backing off.
                    RtoVerdict::Rearm(when) => {
                        self.sched.push_local(from, when, Ev::Rto { from, to });
                        return;
                    }
                    RtoVerdict::Retransmit(_) => {}
                }
                // Re-send the whole unacked window (go-back-N) with fresh
                // latency samples, then re-arm with the backed-off delay.
                // Field-disjoint borrows: the session state is read while
                // the queue/lane table/RNG are written.
                let j = self.local(from);
                let net_rng = &mut self.nodes[j].net_rng;
                for (session, msg) in self.link.unacked(from, to) {
                    let lat = self.latency.sample(from, to, net_rng);
                    // A retransmission is a later event than the original
                    // send: it mints a fresh Lamport stamp.
                    let stamp =
                        self.tracer.on_retransmit(from, to, msg.kind(), msg.weight() as u32);
                    let frame = Packet::Data { session: Some(session), msg: msg.clone() };
                    self.sched.send(from, to, at, lat, stamp, frame);
                }
                let delay = self.link.rto_delay(from, to);
                self.sched.push_local(from, at + delay, Ev::Rto { from, to });
            }
            Ev::Think { node: i } => {
                let j = self.local(i);
                if at >= self.stop_issuing {
                    self.nodes[j].driver.park();
                    return;
                }
                let (set, arrival) = {
                    let SimNode {
                        driver,
                        workload,
                        rng,
                        ..
                    } = &mut self.nodes[j];
                    workload.set_now(at);
                    let set = driver.issue(workload, rng);
                    // An open-loop workload claims the request's intended
                    // arrival; closed-loop ones arrive when they issue.
                    (set, workload.intended_arrival().unwrap_or(at).min(at))
                };
                self.tracer.on_cs(EventKind::CsRequest, i, set.len() as u32);
                self.collector.on_issue(i, set.clone(), at, arrival);
                let node = &mut self.nodes[j];
                node.ctx.set_now(at);
                node.proto.request(&mut node.ctx, set);
                self.post_dispatch(i, ord);
            }
            Ev::CsEnd { node: i } => {
                self.collector.on_release(i, at);
                self.note_cs_exit(i, ord);
                self.tracer.on_cs(EventKind::CsExit, i, 0);
                let j = self.local(i);
                let node = &mut self.nodes[j];
                node.driver.released();
                node.ctx.set_now(at);
                node.proto.release(&mut node.ctx);
                self.post_dispatch(i, ord);
                let think = {
                    let SimNode { workload, rng, .. } = &mut self.nodes[j];
                    workload.on_release(at);
                    workload.set_now(at);
                    workload.think_time(rng)
                };
                self.sched.push_local(i, at + think, Ev::Think { node: i });
            }
        }
    }

    /// Sequential engine step: pop–check–dispatch.  Only valid when this
    /// shard is the whole simulation (`k == 1`).
    fn step_seq(&mut self) -> bool {
        let Some((at, ord, ev)) = self.sched.queue.pop() else {
            return false;
        };
        if at > self.end_at {
            self.horizon_cut = true;
            return false;
        }
        self.dispatch(at, ord, ev);
        true
    }

    /// Process every local event strictly below `horizon` (and not past
    /// the drain cut-off).
    fn process_window(&mut self, horizon: Time) {
        while let Some(top) = self.sched.queue.peek_at() {
            if top >= horizon {
                return;
            }
            if top > self.end_at {
                self.horizon_cut = true;
                return;
            }
            let (at, ord, ev) = self.sched.queue.pop().expect("peeked event vanished");
            self.dispatch(at, ord, ev);
        }
    }
}

/// The simulator.
pub struct Sim<A: Allocator, W: Workload> {
    shards: Vec<Shard<A, W>>,
    k: usize,
    n: usize,
    m: usize,
    /// The conservative lookahead: `latency.min_latency()`.
    lookahead: Time,
    end_at: Time,
    cfg: SimConfig,
    /// Set by [`Sim::init`]; guards against double initialization.
    initialized: bool,
}

impl<A: Allocator, W: Workload> Sim<A, W> {
    /// Build a simulation over one protocol instance and one workload per
    /// node.  `cfg.shards` picks the shard layout (clamped to `[1, n]`;
    /// a zero-lookahead latency model forces one shard) — the results are
    /// bit-identical for every value.
    pub fn new(protos: Vec<A>, workloads: Vec<W>, m: usize, cfg: SimConfig) -> Self {
        let n = protos.len();
        assert_eq!(n, workloads.len());
        assert!(n >= 1, "a simulation needs at least one node");
        assert!(n <= LANE_MAX_NODES, "node count exceeds lane id space");
        let window = (cfg.warmup, cfg.warmup + cfg.measure);
        let stop_issuing = window.1;
        let end_at = window.1 + cfg.drain;
        let lookahead = cfg.latency.min_latency();
        let mut k = cfg.shards.clamp(1, n);
        if lookahead == Time::ZERO {
            // No lookahead means no window is ever wider than one instant;
            // fall back to the sequential path silently (Zero latency is
            // the shared-memory scheduler's model).
            k = 1;
        }
        let active = cfg.active_nodes.unwrap_or(n);
        let mut per: Vec<Vec<SimNode<A, W>>> =
            (0..k).map(|_| Vec::with_capacity(n / k + 1)).collect();
        for (i, (proto, workload)) in protos.into_iter().zip(workloads).enumerate() {
            per[i % k].push(SimNode {
                proto,
                ctx: Ctx::new(i, n),
                driver: Driver::new(),
                workload,
                rng: node_rng(cfg.seed, i),
                net_rng: node_rng(cfg.seed ^ 0xDEAD_BEEF_CAFE_F00D, i),
            });
        }
        let shards = per
            .into_iter()
            .enumerate()
            .map(|(id, nodes)| Shard {
                nodes,
                sched: Sched {
                    id,
                    k,
                    n,
                    queue: EventQueue::new(),
                    lanes: LaneTable::new(n),
                    mail_out: (0..k).map(|_| Vec::new()).collect(),
                },
                now: Time::ZERO,
                events: 0,
                horizon_cut: false,
                link: Link::new(n),
                collector: Collector::new(n, m, window),
                monitor: if k == 1 {
                    Some(SafetyMonitor::new(n, m))
                } else {
                    None
                },
                cs_log: Vec::new(),
                tracer: EngineTracer::disarmed(),
                latency: cfg.latency.clone(),
                stop_issuing,
                end_at,
                max_events: cfg.max_events,
                active,
            })
            .collect();
        Sim {
            shards,
            k,
            n,
            m,
            lookahead,
            end_at,
            cfg,
            initialized: false,
        }
    }

    /// The effective shard count after clamping (1 on zero-lookahead
    /// latency models regardless of the configured value).
    pub fn shards(&self) -> usize {
        self.k
    }

    /// Install a [`FaultPlan`]: every subsequent event pop runs through its
    /// admission filter (drops, duplicate absorption, partitions, node
    /// outages — see [`mra_protocol::faults`]).  Fault decisions are
    /// counter-hashed from the plan's own seed, so installing a plan never
    /// perturbs the workload or latency RNG streams: a zero-rate plan is
    /// observationally identical to no plan.  On a sharded run each shard
    /// keeps its own filter state; every per-link counter is only ever
    /// touched by the link's receiving shard, so the decisions — like
    /// everything else — are independent of the layout.
    ///
    /// # Panics
    /// If called after [`Sim::init`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(!self.initialized, "install the fault plan before init()");
        for s in &mut self.shards {
            s.link.set_faults(plan.clone());
        }
    }

    /// Fault counters accumulated so far (zero when no plan is installed),
    /// aggregated over all shards.
    pub fn fault_stats(&self) -> FaultStats {
        let mut acc = FaultStats::default();
        for s in &self.shards {
            acc.absorb(&s.link.fault_stats());
        }
        acc
    }

    /// Enable the reliable-delivery session layer
    /// ([`mra_protocol::reliable`]): every protocol message is sequenced
    /// into a per-link session, receivers dedup and ack (piggybacked on
    /// reverse traffic, standalone otherwise), and retransmit timers —
    /// scheduled through the ordinary event heap — re-send unacked frames
    /// with capped exponential backoff.  Combined with a
    /// [recoverable](FaultPlan::is_recoverable) fault plan this restores
    /// the paper's exactly-once FIFO channel model, and the end-of-run
    /// deadlock check stays **armed** even though the plan is lossy.
    /// Session endpoints split cleanly across shards: the transmit side of
    /// a link lives at its sender, the receive side at its receiver.
    ///
    /// Off (the default) is the paper-faithful perfect-link mode: nothing
    /// about the simulation changes.
    ///
    /// # Panics
    /// If called after [`Sim::init`].
    pub fn set_reliability(&mut self, cfg: Reliability) {
        assert!(!self.initialized, "enable reliability before init()");
        for s in &mut self.shards {
            s.link.set_sessions(cfg);
        }
    }

    /// Session-layer counters accumulated so far (zero when disabled),
    /// aggregated over all shards.
    pub fn reliability_stats(&self) -> ReliabilityStats {
        let mut acc = ReliabilityStats::default();
        for s in &self.shards {
            acc.absorb(&s.link.session_stats());
        }
        acc
    }

    /// Arm causal trace capture (see [`mra_obs`]).
    ///
    /// Each shard gets its own [`EngineTracer`]; at the end of the run the
    /// per-shard buffers merge in canonical `(at, ord, seq)` order — the
    /// exact key the event queues order by — so the resulting trace (and
    /// its JSONL rendering) is **byte-identical for every shard count**,
    /// like everything else the engine produces.  Lamport stamps ride
    /// inside delivery events, so causality survives shard mailboxes,
    /// loss, duplication and retransmission with no side channel; each
    /// node's clock is only ever touched by the shard that owns the node.
    ///
    /// Arming never touches RNGs, lane counters or the schedule: a traced
    /// run executes the identical event sequence as an untraced one.  In
    /// `TraceMode::Ring` each *shard* keeps a ring of the given capacity
    /// and recording allocates nothing after this call; `Unbounded` keeps
    /// every event.  `TraceMode::Off` is a no-op.
    ///
    /// # Panics
    /// If called after [`Sim::init`].
    pub fn set_tracing(&mut self, mode: TraceMode) {
        assert!(!self.initialized, "arm tracing before init()");
        if mode == TraceMode::Off {
            return;
        }
        for s in &mut self.shards {
            s.tracer = EngineTracer::armed(self.n, mode);
        }
    }

    /// Pre-reserve event-queue capacity for `slots` more in-flight events
    /// on every shard.  Steady-state dispatch never allocates once the
    /// queues have grown to their peak population; this lets
    /// allocation-sensitive probes (the zero-alloc guard) put the peak —
    /// retransmission bursts included — inside pre-sized buffers up front.
    pub fn reserve_events(&mut self, slots: usize) {
        for s in &mut self.shards {
            s.sched.queue.reserve(slots);
            for buf in &mut s.sched.mail_out {
                buf.reserve(slots);
            }
        }
    }

    /// Initialize the protocols and seed the initial think timers.  Part of
    /// the stepping API; [`Sim::run`] calls it automatically when it was
    /// not already called.
    ///
    /// # Panics
    /// On a second call — protocols must not be initialized twice.
    pub fn init(&mut self) {
        assert!(!self.initialized, "Sim::init() called twice");
        self.initialized = true;
        for s in &mut self.shards {
            s.init_nodes();
        }
        // Init-time messages may cross shards (an elected node greeting
        // its peers); deliver them before anyone computes a window.
        self.exchange_mail();
    }

    /// Move every outbound cross-shard event into its destination queue.
    /// Buffers are taken, drained and put back, so their capacity — and
    /// the zero-alloc steady state — survives the exchange.
    fn exchange_mail(&mut self) {
        for src in 0..self.k {
            for dst in 0..self.k {
                if src == dst || self.shards[src].sched.mail_out[dst].is_empty() {
                    continue;
                }
                let mut buf = std::mem::take(&mut self.shards[src].sched.mail_out[dst]);
                let q = &mut self.shards[dst].sched.queue;
                for mail in buf.drain(..) {
                    q.push(mail.at, mail.ord, mail.ev);
                }
                self.shards[src].sched.mail_out[dst] = buf;
            }
        }
    }

    /// Process one event.  Returns `false` when the simulation is over:
    /// the queue ran dry, or the next event lies past the drain horizon
    /// (such events — e.g. a CS ending during the cut-off — are
    /// intentionally dropped).  Exposed so probes (tracing, allocation
    /// tests) can observe the loop mid-run; [`Sim::run`] is the normal
    /// entry point.
    ///
    /// # Panics
    /// On a sharded simulation — its unit of progress is a window; use
    /// [`Sim::step_window`] there.
    pub fn step(&mut self) -> bool {
        assert_eq!(self.k, 1, "step() requires a single shard — use step_window()");
        self.shards[0].step_seq()
    }

    /// Process one conservative window across all shards: take the global
    /// minimum timestamp `T`, let every shard in turn process
    /// `[T, T + lookahead)`, then exchange cross-shard mail.  Returns
    /// `false` when the simulation is over.  This is the loop [`Sim::run`]
    /// drives for `shards > 1` — exposed so probes (the zero-alloc guard)
    /// can observe it mid-run.
    ///
    /// # Panics
    /// On a single-shard simulation — use [`Sim::step`] there.
    pub fn step_window(&mut self) -> bool {
        assert!(self.k > 1, "step_window() requires shards > 1 — use step()");
        let next = self.shards.iter().filter_map(|s| s.sched.queue.peek_at()).min();
        let Some(t) = next.filter(|&t| t <= self.end_at) else {
            for s in &mut self.shards {
                if !s.sched.queue.is_empty() {
                    s.horizon_cut = true;
                }
            }
            return false;
        };
        let horizon = t + self.lookahead;
        for s in &mut self.shards {
            s.process_window(horizon);
        }
        self.exchange_mail();
        true
    }

    /// Run to completion and return the measured result.  Composes with
    /// the stepping API: a partially stepped simulation resumes instead of
    /// re-initializing.  Everything runs on the calling thread: one shard
    /// event by event, several window by window ([`Sim::step_window`]).
    ///
    /// Throughput accounting: `wall_ns` (and thus
    /// [`RunResult::events_per_sec`]) is only reported when `run` executed
    /// the *whole* simulation.  A resumed run cannot know how long the
    /// caller's stepping took, so pairing its partial wall time with the
    /// lifetime event count would inflate the rate — it reports 0
    /// ("not measured") instead.
    pub fn run(mut self) -> RunResult {
        let started = Instant::now();
        let whole_run = self.shards.iter().map(|s| s.events).sum::<u64>() == 0;
        if !self.initialized {
            self.init();
        }
        if self.k == 1 {
            while self.shards[0].step_seq() {}
        } else {
            while self.step_window() {}
        }
        let wall_ns = if whole_run {
            started.elapsed().as_nanos() as u64
        } else {
            0
        };
        self.into_result(wall_ns)
    }

    /// Liveness check, stats aggregation, safety replay and metric merge.
    fn into_result(mut self, wall_ns: u64) -> RunResult {
        let algo = self.shards[0].nodes[0].proto.name().to_string();
        let active = self.cfg.active_nodes.unwrap_or(self.n);
        let horizon_cut = self.shards.iter().any(|s| s.horizon_cut);
        let queues_empty = self.shards.iter().all(|s| s.sched.queue.is_empty());
        let now_max = self.shards.iter().map(|s| s.now).max().expect("k >= 1");
        // Sanity: a *naturally* exhausted event queue (no horizon cut) with
        // a node still waiting is a genuine deadlock — nothing can ever
        // unblock it.  A horizon cut is not: the unblocking event may have
        // been dropped.  Neither is a lossy fault plan *without* the
        // session layer: a dropped token legitimately starves its waiters
        // (the starvation shows up as `censored` requests instead).  With
        // reliability enabled the check is re-armed for every recoverable
        // plan (drop rates < 1.0): retransmission owes liveness again.
        if !horizon_cut && queues_empty && self.shards[0].link.owes_liveness() {
            for s in &self.shards {
                for (j, node) in s.nodes.iter().enumerate() {
                    let i = s.global(j);
                    if i < active && node.driver.state() == DriverState::Waiting {
                        panic!(
                            "liveness failure: node {i} still waiting at {now_max} \
                             with no events left (algo {algo})"
                        );
                    }
                }
            }
        }
        let fault_stats = self.fault_stats();
        let rel_stats = self.reliability_stats();
        // Safety replay for sharded runs: the per-shard enter/exit logs
        // merge into the global event order — `(at, ord)` is the exact key
        // the queues ordered by — and every grant is re-checked.
        if self.k > 1 {
            let total = self.shards.iter().map(|s| s.cs_log.len()).sum();
            let mut notes: Vec<CsNote> = Vec::with_capacity(total);
            for s in &mut self.shards {
                notes.append(&mut s.cs_log);
            }
            notes.sort_unstable_by_key(|nt| (nt.at, nt.ord, nt.enter));
            let mut mon = SafetyMonitor::new(self.n, self.m);
            for nt in notes {
                if nt.enter {
                    mon.enter(nt.node, nt.set);
                } else {
                    mon.exit(nt.node);
                }
            }
        }
        let end = now_max.min(self.end_at);
        let shard_events: Vec<u64> = self.shards.iter().map(|s| s.events).collect();
        let events: u64 = shard_events.iter().sum();
        let k = self.k;
        let n = self.n;
        // Per-shard trace buffers merge in the canonical `(at, ord, seq)`
        // order — the same global order the safety replay above uses.
        let obs =
            ObsReport::from_tracers(self.shards.iter_mut().map(|s| std::mem::take(&mut s.tracer)));
        let mut it = self.shards.into_iter();
        let mut collector = it.next().expect("k >= 1").collector;
        for s in it {
            collector.absorb(s.collector);
        }
        let mut res = collector.finish(&algo, n, end);
        res.events_processed = events;
        res.wall_ns = wall_ns;
        res.faults = fault_stats;
        res.reliability = rel_stats;
        res.shards = k;
        res.shard_events = shard_events;
        res.obs = obs;
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::FixedWorkload;
    use mra_baselines::{Central, GrantPolicy, Incremental};
    use mra_core::{Lass, LassConfig};
    use mra_protocol::testkit::EchoPing;
    use mra_protocol::ProcState;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn fixed(n: usize, m: usize, size: usize) -> Vec<FixedWorkload> {
        (0..n)
            .map(|_| FixedWorkload {
                think: Time::from_millis(5),
                cs: Time::from_millis(3),
                m,
                size,
            })
            .collect()
    }

    #[test]
    fn lass_simulation_completes_and_measures() {
        let cfg = LassConfig::with_loan(4, 8);
        let sim = Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(1));
        let res = sim.run();
        assert!(res.cs_completed > 20, "got {}", res.cs_completed);
        assert!(res.use_rate() > 0.0 && res.use_rate() <= 1.0);
        assert!(res.wait_stats().count > 0);
        assert_eq!(res.censored, 0);
        assert_eq!(res.shards, 1);
        assert_eq!(res.shard_events, vec![res.events_processed]);
    }

    #[test]
    fn incremental_simulation_completes() {
        let sim = Sim::new(
            Incremental::build_nodes(4, 8),
            fixed(4, 8, 2),
            8,
            SimConfig::quick(2),
        );
        let res = sim.run();
        assert!(res.cs_completed > 20);
        assert_eq!(res.algo, "incremental");
    }

    #[test]
    fn central_with_passive_coordinator() {
        let mut cfg = SimConfig::quick(3);
        cfg.latency = LatencyModel::Zero;
        cfg.active_nodes = Some(4);
        let sim = Sim::new(
            Central::build_nodes(4, GrantPolicy::Conservative),
            fixed(5, 8, 2),
            8,
            cfg,
        );
        let res = sim.run();
        assert!(res.cs_completed > 50, "zero latency is fast: {}", res.cs_completed);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = LassConfig::with_loan(4, 6);
            let sim = Sim::new(cfg.build_nodes(), fixed(4, 6, 2), 6, SimConfig::quick(seed));
            let r = sim.run();
            (r.cs_completed, r.msgs_total, r.wait_stats().mean_ms)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    #[test]
    fn messages_are_fifo_per_link() {
        // Statistical check via jittered latency: the engine must still
        // deliver FIFO (enforced by the lane table); the protocols would
        // panic / deadlock otherwise.  Run with heavy jitter and verify
        // completion.
        let mut cfg = SimConfig::quick(7);
        cfg.latency = LatencyModel::Uniform {
            lo: Time::from_micros(10),
            hi: Time::from_millis(5),
        };
        let lass = LassConfig::with_loan(4, 6);
        let res = Sim::new(lass.build_nodes(), fixed(4, 6, 2), 6, cfg).run();
        assert!(res.cs_completed > 10);
    }

    #[test]
    fn run_reports_event_throughput() {
        let cfg = LassConfig::with_loan(4, 8);
        let sim = Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(1));
        let res = sim.run();
        assert!(res.events_processed > 0);
        assert!(res.wall_ns > 0);
        assert!(res.events_per_sec() > 0.0);
        // Every delivered message is one event, so the count dominates.
        assert!(res.events_processed >= res.msgs_total);
    }

    #[test]
    fn stepping_api_matches_run() {
        let build = || {
            let cfg = LassConfig::with_loan(4, 6);
            Sim::new(cfg.build_nodes(), fixed(4, 6, 2), 6, SimConfig::quick(9))
        };
        let whole = build().run();
        let mut stepped = build();
        stepped.init();
        let mut steps = 0u64;
        while stepped.step() {
            steps += 1;
        }
        assert_eq!(steps, whole.events_processed);
    }

    #[test]
    fn run_resumes_a_stepped_simulation_without_reinit() {
        let build = || {
            let cfg = LassConfig::with_loan(4, 6);
            Sim::new(cfg.build_nodes(), fixed(4, 6, 2), 6, SimConfig::quick(13))
        };
        let whole = build().run();
        let mut hybrid = build();
        hybrid.init();
        for _ in 0..500 {
            assert!(hybrid.step());
        }
        let resumed = hybrid.run();
        assert_eq!(resumed.cs_completed, whole.cs_completed);
        assert_eq!(resumed.msgs_total, whole.msgs_total);
        assert_eq!(resumed.events_processed, whole.events_processed);
        // A resumed run must not report a throughput: its wall clock
        // covers only part of the event stream.
        assert_eq!(resumed.wall_ns, 0);
        assert_eq!(resumed.events_per_sec(), 0.0);
        assert!(whole.wall_ns > 0);
    }

    #[test]
    #[should_panic(expected = "init() called twice")]
    fn double_init_is_rejected() {
        let cfg = LassConfig::with_loan(2, 4);
        let mut sim = Sim::new(cfg.build_nodes(), fixed(2, 4, 1), 4, SimConfig::quick(1));
        sim.init();
        sim.init();
    }

    #[test]
    fn clean_and_dup_only_fault_plans_change_nothing_observable() {
        let run = |plan: Option<FaultPlan>| {
            let cfg = LassConfig::with_loan(4, 8);
            let mut sim = Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(17));
            if let Some(p) = plan {
                sim.set_fault_plan(p);
            }
            sim.run()
        };
        let bare = run(None);
        let clean = run(Some(FaultPlan::new(99)));
        let dup = run(Some(FaultPlan::new(99).dup_rate(0.5)));
        for other in [&clean, &dup] {
            assert_eq!(bare.cs_completed, other.cs_completed);
            assert_eq!(bare.msgs_total, other.msgs_total);
            assert_eq!(
                bare.wait_stats().mean_ms,
                other.wait_stats().mean_ms,
                "fault bookkeeping leaked into protocol timing"
            );
        }
        assert_eq!(clean.faults, FaultStats::default());
        assert!(dup.faults.duplicated > 0);
        assert_eq!(dup.faults.duplicated, dup.faults.deduped);
        assert_eq!(dup.faults.dropped_total(), 0);
    }

    #[test]
    fn lossy_plan_degrades_throughput_deterministically_and_safely() {
        let run = |loss: f64| {
            let cfg = LassConfig::with_loan(4, 8);
            let mut sim = Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(5));
            sim.set_fault_plan(FaultPlan::new(7).drop_rate(loss));
            sim.run()
        };
        let clean = run(0.0);
        let lossy = run(0.15);
        assert!(lossy.faults.dropped_link > 0);
        assert!(
            lossy.cs_completed < clean.cs_completed,
            "15% loss should cost critical sections: {} vs {}",
            lossy.cs_completed,
            clean.cs_completed
        );
        // Deterministic: the identical faulty run reproduces exactly.
        let again = run(0.15);
        assert_eq!(lossy.cs_completed, again.cs_completed);
        assert_eq!(lossy.msgs_total, again.msgs_total);
        assert_eq!(lossy.faults, again.faults);
    }

    #[test]
    fn pause_outage_defers_and_still_completes_everything() {
        let plan = FaultPlan::new(3).pause(
            1,
            Time::from_millis(200),
            Time::from_millis(400),
        );
        let cfg = LassConfig::with_loan(4, 8);
        let mut sim = Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(29));
        sim.set_fault_plan(plan);
        let res = sim.run();
        // Pause is non-lossy: the liveness check stays armed and passes;
        // the node was frozen for 200 ms of a 1 s window.
        assert!(res.faults.deferred > 0);
        assert!(res.cs_completed > 20);
        assert_eq!(res.faults.dropped_total(), 0);
    }

    #[test]
    fn crash_window_loses_inbound_messages() {
        let plan = FaultPlan::new(3).crash(
            0,
            Time::from_millis(200),
            Time::from_millis(300),
        );
        let cfg = LassConfig::with_loan(4, 8);
        let mut sim = Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(31));
        sim.set_fault_plan(plan);
        let res = sim.run();
        assert!(res.faults.dropped_crash > 0);
        assert!(res.cs_completed > 0);
    }

    #[test]
    fn partition_with_heal_degrades_but_does_not_panic() {
        // Nodes {0,1} cut off from {2,3} for half the window; crossing
        // messages are lost, so some requests starve (censored) — but
        // safety holds and the run completes.
        let plan = FaultPlan::new(11).partition(
            vec![0, 1],
            Time::from_millis(300),
            Time::from_millis(800),
        );
        let clean = {
            let cfg = LassConfig::with_loan(4, 8);
            Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(37)).run()
        };
        let cfg = LassConfig::with_loan(4, 8);
        let mut sim = Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(37));
        sim.set_fault_plan(plan);
        let cut = sim.run();
        assert!(cut.faults.dropped_partition > 0);
        assert!(cut.cs_completed < clean.cs_completed);
    }

    #[test]
    #[should_panic(expected = "before init()")]
    fn fault_plan_rejected_after_init() {
        let cfg = LassConfig::with_loan(2, 4);
        let mut sim = Sim::new(cfg.build_nodes(), fixed(2, 4, 1), 4, SimConfig::quick(1));
        sim.init();
        sim.set_fault_plan(FaultPlan::new(1));
    }

    #[test]
    fn reliability_recovers_heavy_loss_with_liveness_armed() {
        let run = |loss: f64, reliable: bool| {
            let cfg = LassConfig::with_loan(4, 8);
            let mut sim = Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(5));
            sim.set_fault_plan(FaultPlan::new(7).drop_rate(loss));
            if reliable {
                // A tight RTO (≈ 3 × the paper's γ RTT) keeps recovery
                // stalls comparable to the CS/think times of the workload.
                sim.set_reliability(Reliability::with_rto(Time::from_millis(2)));
            }
            sim.run()
        };
        let bare = run(0.2, false);
        let recovered = run(0.2, true);
        // 20% sustained loss collapses the bare protocol (every node's
        // request path eventually hits a fatal drop); the session layer
        // recovers every loss and multiplies throughput back.
        assert!(recovered.faults.dropped_link > 0);
        assert!(recovered.reliability.retransmits > 0);
        assert!(
            recovered.cs_completed > 3 * bare.cs_completed.max(1),
            "reliability did not recover throughput: {} vs bare {}",
            recovered.cs_completed,
            bare.cs_completed
        );
        // The liveness check ran armed (the plan is recoverable): reaching
        // here without a panic is the assertion; starved requests would
        // also show up as censored, which retransmission prevents.
        assert_eq!(recovered.censored, 0, "reliable run starved a request");
    }

    #[test]
    fn reliability_on_perfect_links_changes_no_protocol_outcome() {
        let run = |reliable: bool| {
            let cfg = LassConfig::with_loan(4, 8);
            let mut sim = Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(17));
            if reliable {
                sim.set_reliability(Reliability::default());
            }
            sim.run()
        };
        let off = run(false);
        let on = run(true);
        // Same protocol outcomes: no frame is ever lost, so no
        // retransmission and no reordering — the sessions are pure
        // bookkeeping plus ack traffic.
        assert_eq!(off.cs_completed, on.cs_completed);
        assert_eq!(off.msgs_total, on.msgs_total);
        assert_eq!(on.reliability.retransmits, 0);
        assert_eq!(on.reliability.gap_dropped, 0);
        assert_eq!(on.reliability.data_sent, on.msgs_total);
        assert!(on.reliability.acks_sent + on.reliability.acks_piggybacked > 0);
        assert_eq!(off.reliability, ReliabilityStats::default());
    }

    #[test]
    fn reliable_lossy_runs_are_deterministic() {
        let run = || {
            let cfg = LassConfig::with_loan(4, 8);
            let mut sim = Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(23));
            sim.set_fault_plan(FaultPlan::new(9).drop_rate(0.15).dup_rate(0.1));
            sim.set_reliability(Reliability::default());
            sim.run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.cs_completed, b.cs_completed);
        assert_eq!(a.msgs_total, b.msgs_total);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.reliability, b.reliability);
        assert!(a.reliability.dup_dropped > 0, "dups were delivered and absorbed");
    }

    #[test]
    fn rto_env_knob_shapes_recovery() {
        // A shorter RTO recovers lost frames sooner: strictly more (or
        // equal) critical sections inside the same window.
        let run = |rto_ms: u64| {
            let cfg = LassConfig::with_loan(4, 8);
            let mut sim = Sim::new(cfg.build_nodes(), fixed(4, 8, 2), 8, SimConfig::quick(5));
            sim.set_fault_plan(FaultPlan::new(7).drop_rate(0.2));
            sim.set_reliability(Reliability::with_rto(Time::from_millis(rto_ms)));
            sim.run()
        };
        let fast = run(2);
        let slow = run(80);
        assert!(
            fast.cs_completed >= slow.cs_completed,
            "2 ms RTO ({}) should beat 80 ms ({})",
            fast.cs_completed,
            slow.cs_completed
        );
        assert!(fast.reliability.retransmits > 0);
    }

    #[test]
    #[should_panic(expected = "before init()")]
    fn reliability_rejected_after_init() {
        let cfg = LassConfig::with_loan(2, 4);
        let mut sim = Sim::new(cfg.build_nodes(), fixed(2, 4, 1), 4, SimConfig::quick(1));
        sim.init();
        sim.set_reliability(Reliability::default());
    }

    #[test]
    fn use_rate_scales_with_load() {
        // Longer think time ⇒ lower use rate.
        let busy = |think_ms: u64| {
            let cfg = LassConfig::with_loan(3, 6);
            let wl: Vec<FixedWorkload> = (0..3)
                .map(|_| FixedWorkload {
                    think: Time::from_millis(think_ms),
                    cs: Time::from_millis(5),
                    m: 6,
                    size: 2,
                })
                .collect();
            Sim::new(cfg.build_nodes(), wl, 6, SimConfig::quick(11)).run().use_rate()
        };
        assert!(busy(1) > busy(50));
    }

    // ---- sharded engine ----------------------------------------------

    /// Everything in a [`RunResult`] that must be identical across shard
    /// counts (all of it except the layout report itself).
    fn fingerprint(r: &RunResult) -> impl PartialEq + std::fmt::Debug {
        (
            (
                r.algo.clone(),
                r.n,
                r.m,
                r.window,
                r.cs_completed,
                r.censored,
                r.events_processed,
            ),
            (r.msgs_total, r.msg_weight, r.msg_by_kind.clone()),
            r.busy.clone(),
            r.records
                .iter()
                .map(|rec| (rec.node, rec.size, rec.issued, rec.granted, rec.released))
                .collect::<Vec<_>>(),
            (r.faults, r.reliability),
        )
    }

    fn build_sharded(shards: usize, faulty: bool, reliable: bool) -> Sim<Lass, FixedWorkload> {
        let cfg = LassConfig::with_loan(6, 12);
        let mut sim_cfg = SimConfig::quick(61);
        sim_cfg.shards = shards;
        let mut sim = Sim::new(cfg.build_nodes(), fixed(6, 12, 3), 12, sim_cfg);
        if faulty {
            sim.set_fault_plan(
                FaultPlan::new(13)
                    .drop_rate(0.1)
                    .dup_rate(0.05)
                    .pause(2, Time::from_millis(200), Time::from_millis(350)),
            );
        }
        if reliable {
            sim.set_reliability(Reliability::with_rto(Time::from_millis(2)));
        }
        sim
    }

    fn run_sharded(shards: usize, faulty: bool, reliable: bool) -> RunResult {
        build_sharded(shards, faulty, reliable).run()
    }

    #[test]
    fn sharded_run_is_bit_identical_to_sequential() {
        let seq = run_sharded(1, false, false);
        for k in [2, 3, 6] {
            let par = run_sharded(k, false, false);
            assert_eq!(par.shards, k);
            assert_eq!(par.shard_events.len(), k);
            assert_eq!(par.shard_events.iter().sum::<u64>(), par.events_processed);
            assert_eq!(fingerprint(&seq), fingerprint(&par), "k = {k}");
        }
    }

    #[test]
    fn sharded_run_is_bit_identical_under_faults_and_reliability() {
        let seq = run_sharded(1, true, true);
        assert!(seq.faults.dropped_link > 0);
        assert!(seq.reliability.retransmits > 0);
        for k in [2, 4] {
            let par = run_sharded(k, true, true);
            assert_eq!(fingerprint(&seq), fingerprint(&par), "k = {k}");
        }
    }

    #[test]
    fn sharded_run_is_bit_identical_under_jittered_latency() {
        let run = |shards: usize| {
            let cfg = LassConfig::with_loan(5, 10);
            let mut sim_cfg = SimConfig::quick(71);
            sim_cfg.shards = shards;
            sim_cfg.latency = LatencyModel::Uniform {
                lo: Time::from_micros(200),
                hi: Time::from_millis(2),
            };
            Sim::new(cfg.build_nodes(), fixed(5, 10, 2), 10, sim_cfg).run()
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(fingerprint(&seq), fingerprint(&par));
    }

    #[test]
    fn shard_count_clamps_to_nodes_and_lookahead() {
        // More shards than nodes: clamped to n.
        let cfg = LassConfig::with_loan(3, 6);
        let mut sc = SimConfig::quick(5);
        sc.shards = 64;
        let sim = Sim::new(cfg.build_nodes(), fixed(3, 6, 2), 6, sc);
        assert_eq!(sim.shards(), 3);
        // Zero-lookahead latency: forced sequential.
        let mut sc = SimConfig::quick(5);
        sc.shards = 4;
        sc.latency = LatencyModel::Zero;
        let cfg = LassConfig::with_loan(4, 6);
        let sim = Sim::new(cfg.build_nodes(), fixed(4, 6, 2), 6, sc);
        assert_eq!(sim.shards(), 1);
        let res = sim.run();
        assert_eq!(res.shards, 1);
        assert!(res.cs_completed > 0);
    }

    #[test]
    fn stepped_windows_match_run() {
        let seq = run_sharded(1, false, false);
        // Step at most `limit` windows by hand, then let `run()` finish.
        let stepped = |limit: u64| {
            let mut sim = build_sharded(3, false, false);
            sim.init();
            let mut windows = 0u64;
            while windows < limit && sim.step_window() {
                windows += 1;
            }
            (windows, sim.run())
        };
        // To exhaustion (the closing `run()` only merges), then half-way:
        // `run()` resumes the windowed loop without re-initializing — the
        // sharded twin of `run_resumes_a_stepped_simulation_without_reinit`.
        let (windows, exhausted) = stepped(u64::MAX);
        assert!(windows > 10, "expected many conservative windows");
        let (half, resumed) = stepped(windows / 2);
        assert_eq!(half, windows / 2);
        for res in [exhausted, resumed] {
            assert_eq!(res.wall_ns, 0, "partially stepped runs report no throughput");
            assert_eq!(fingerprint(&seq), fingerprint(&res));
        }
    }

    #[test]
    #[should_panic(expected = "requires a single shard")]
    fn step_rejected_on_sharded_sim() {
        let cfg = LassConfig::with_loan(4, 6);
        let mut sc = SimConfig::quick(5);
        sc.shards = 2;
        let mut sim = Sim::new(cfg.build_nodes(), fixed(4, 6, 2), 6, sc);
        sim.init();
        sim.step();
    }

    #[test]
    #[should_panic(expected = "requires shards > 1")]
    fn step_window_rejected_on_sequential_sim() {
        let cfg = LassConfig::with_loan(4, 6);
        let mut sim = Sim::new(cfg.build_nodes(), fixed(4, 6, 2), 6, SimConfig::quick(5));
        sim.init();
        sim.step_window();
    }

    #[test]
    fn env_shards_defaults_to_one() {
        // The variable is not set in the test environment.
        assert_eq!(SimConfig::env_shards(), 1);
    }

    /// A broken allocator: every request is granted on the spot, so two
    /// nodes asking for the same resource hold it together.
    struct GrantAll;

    impl Allocator for GrantAll {
        type Msg = EchoPing;

        fn on_init(&mut self, _ctx: &mut Ctx<Self::Msg>) {}

        fn on_message(&mut self, _ctx: &mut Ctx<Self::Msg>, _from: NodeId, _msg: Self::Msg) {}

        fn request(&mut self, ctx: &mut Ctx<Self::Msg>, _resources: ResourceSet) {
            ctx.grant();
        }

        fn release(&mut self, _ctx: &mut Ctx<Self::Msg>) {}

        fn state(&self) -> ProcState {
            ProcState::Idle
        }

        fn name(&self) -> &'static str {
            "grant-all"
        }
    }

    /// Three nodes, two of them asking for both of two resources: one overlap
    /// at a time, so a single lost `CsNote` cannot hide behind another pair.
    fn grant_all_sim(shards: usize) -> Sim<GrantAll, FixedWorkload> {
        let cfg = SimConfig { shards, active_nodes: Some(2), ..SimConfig::quick(1) };
        let sim = Sim::new(vec![GrantAll, GrantAll, GrantAll], fixed(3, 2, 2), 2, cfg);
        assert_eq!(sim.shards(), shards);
        sim
    }

    #[test]
    #[should_panic(expected = "SAFETY VIOLATION")]
    fn online_monitor_panics_on_an_overlapping_grant() {
        grant_all_sim(1).run();
    }

    #[test]
    #[should_panic(expected = "SAFETY VIOLATION")]
    fn deferred_replay_panics_on_an_overlapping_grant() {
        // The windows themselves check nothing: a sharded run's only
        // safety check is the replay of its `CsNote`s inside `run()`.
        let mut sim = grant_all_sim(3);
        sim.init();
        while sim.step_window() {}
        sim.run();
    }

    /// The event a queue-property op pushes: a frame (`stamp` = its id) or
    /// a timer (`node` = its id).
    fn queue_ev(id: u64, frame: bool) -> Ev<()> {
        if frame {
            Ev::Frame { from: 0, to: 0, stamp: id, frame: Packet::Ack { ack: 0 } }
        } else {
            Ev::Think { node: id as usize }
        }
    }

    type Popped = Option<(Time, u64, u64)>;

    /// Pop the queue and the reference map once each, events as ids.
    fn pop_both(
        q: &mut EventQueue<()>,
        model: &mut BTreeMap<(Time, u64), u64>,
    ) -> (Popped, Popped) {
        let got = q.pop().map(|(at, ord, ev)| match ev {
            Ev::Frame { stamp, .. } => (at, ord, stamp),
            Ev::Think { node } => (at, ord, node as u64),
            _ => unreachable!("the property pushes frames and think timers only"),
        });
        (got, model.pop_first().map(|((at, ord), id)| (at, ord, id)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Deque plus heap is one priority queue: against a `BTreeMap` on
        /// `(at, ord)`, every pop, `peek_at` and `is_empty` agree, whatever
        /// mix of in-order frames, equal-`at` ties with shuffled `ord`,
        /// late frames and timers is pushed between pops.  Each push also
        /// lands on the side the routing rule names.
        #[test]
        fn event_queue_matches_a_sorted_map(
            ops in vec((0u8..7, 0u64..40, any::<u64>()), 0..400)
        ) {
            let mut q = EventQueue::<()>::new();
            let mut model = BTreeMap::<(Time, u64), u64>::new();
            // `now`: the last popped time, below which the engine never
            // schedules; `latest`: the latest frame pushed.
            let (mut now, mut latest, mut next_id) = (0u64, 0u64, 0u64);
            for (kind, dt, ord) in ops {
                latest = latest.max(now);
                let at = match kind {
                    0 => latest + dt,    // sent after every frame in flight
                    1 => latest,         // tied with the latest frame
                    2 => now + dt,       // late: may precede the deque's last
                    3 => now + 100 * dt, // a timer
                    _ => {
                        let (got, want) = pop_both(&mut q, &mut model);
                        prop_assert_eq!(got, want);
                        if let Some((at, ..)) = got {
                            now = at.as_nanos();
                        }
                        continue;
                    }
                };
                let key = (Time::from_nanos(at), ord);
                if model.contains_key(&key) {
                    continue; // the engine's keys are unique
                }
                let frame = kind < 3;
                let to_deque = frame && q.frames.back().map_or(true, |b| b.0 <= key.0);
                let sides = (q.frames.len(), q.heap.len());
                next_id += 1;
                q.push(key.0, key.1, queue_ev(next_id, frame));
                model.insert(key, next_id);
                let grew = if to_deque { (sides.0 + 1, sides.1) } else { (sides.0, sides.1 + 1) };
                prop_assert_eq!((q.frames.len(), q.heap.len()), grew);
                if frame {
                    latest = latest.max(at);
                }
                prop_assert_eq!(q.peek_at(), model.keys().next().map(|k| k.0));
                prop_assert_eq!(q.is_empty(), model.is_empty());
            }
            loop {
                let (got, want) = pop_both(&mut q, &mut model);
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(q.is_empty() && q.peek_at().is_none());
        }
    }
}

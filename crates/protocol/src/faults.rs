//! Deterministic fault injection: the scenario description every delivery
//! substrate shares.
//!
//! A [`FaultPlan`] describes an imperfect network and imperfect nodes:
//!
//! * **per-link frame faults** — drop and duplicate probabilities, either a
//!   single default for every directed link or per-link overrides;
//! * **partitions** — a node group cut off from the rest for a time window
//!   with a scheduled heal (messages crossing the cut are lost, exactly
//!   like a switch failure without retransmission);
//! * **node outages** — per-node pause windows (the node freezes: inbound
//!   messages and its own timers are deferred to the restart instant —
//!   think GC pause or live migration) and crash-restart windows (inbound
//!   messages during the window are *lost*; the node resumes with its
//!   protocol state intact, modelling fail-recovery with durable state).
//!
//! **Determinism.** Frame fault decisions are *counter-hashed*, not drawn
//! from a shared RNG: the verdict for the `k`-th frame sent on directed
//! link `i → j` is a pure function of `(plan seed, i, j, k)`.  Two
//! consequences the tests rely on:
//!
//! 1. the same seed produces the same per-link drop/duplicate verdict
//!    sequence on every substrate (`Sim`, `VirtualNet`, the TCP shim),
//!    because all three deliver each link FIFO — the `k`-th pop *is* the
//!    `k`-th send;
//! 2. installing a plan perturbs no other randomness: the workload and
//!    latency RNG streams are untouched, so a **zero-rate plan is
//!    observationally identical to no plan at all**.
//!
//! **Duplicates are absorbed, not delivered twice.**  Every protocol in
//! this workspace assumes reliable exactly-once FIFO links (the paper's
//! model); a raw re-delivered token genuinely duplicates a resource and
//! violates safety — that is a *model* violation, not a protocol bug.  The
//! fault layer therefore emulates what TCP's sequence numbers do on a real
//! wire: a duplicated frame consumes bandwidth and is counted
//! ([`FaultStats::duplicated`] / [`FaultStats::deduped`]) but the protocol
//! handler sees the message exactly once.  Drops model loss *above* any
//! retransmission horizon (connection reset, switch reboot) and are
//! surfaced to the protocol as genuine loss: safety must survive them,
//! liveness degrades — which is exactly what the fault test matrix
//! asserts.

use mra_types::{NodeId, Time};

/// Probabilistic faults of one directed link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability that a frame is dropped, in `[0, 1]`.
    pub drop: f64,
    /// Probability that a delivered frame is duplicated on the wire (the
    /// duplicate is absorbed by the receiver's dedup layer), in `[0, 1]`.
    pub dup: f64,
}

impl LinkFaults {
    /// A perfect link.
    pub const NONE: LinkFaults = LinkFaults { drop: 0.0, dup: 0.0 };

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.drop) && (0.0..=1.0).contains(&self.dup),
            "fault probabilities must be in [0, 1]: {self:?}"
        );
    }
}

/// A network partition: `group` vs everyone else, from `from` until the
/// scheduled heal at `until` (half-open window `[from, until)`).
#[derive(Clone, Debug)]
pub struct Partition {
    /// Nodes on one side of the cut.
    pub group: Vec<NodeId>,
    /// Start of the partition.
    pub from: Time,
    /// Scheduled heal: first instant the cut no longer applies.
    pub until: Time,
}

/// What a node outage does to the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutageKind {
    /// The node freezes: inbound messages and its own timers are deferred
    /// to the restart instant, nothing is lost.
    Pause,
    /// The node crashes and restarts with durable protocol state: inbound
    /// messages during the window are lost, its timers resume at restart.
    Crash,
}

/// One per-node outage window `[from, until)`.
#[derive(Clone, Debug)]
pub struct Outage {
    /// The affected node.
    pub node: NodeId,
    /// Pause or crash-restart semantics.
    pub kind: OutageKind,
    /// Start of the outage.
    pub from: Time,
    /// Restart instant.
    pub until: Time,
}

/// A complete, seeded fault scenario.  Built with the fluent methods and
/// installed on an engine (`Sim::set_fault_plan`,
/// `VirtualNet::install_faults`, `TcpClusterConfig::faults`).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed of the counter-hash; all frame verdicts derive from it.
    pub seed: u64,
    /// Default faults applied to every directed link.
    pub link: LinkFaults,
    /// Per-link `(from, to, faults)` overrides (take precedence).
    pub overrides: Vec<(NodeId, NodeId, LinkFaults)>,
    /// Partition windows.
    pub partitions: Vec<Partition>,
    /// Node outage windows.
    pub outages: Vec<Outage>,
}

impl FaultPlan {
    /// A clean plan (no faults) with the given decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            link: LinkFaults::NONE,
            overrides: Vec::new(),
            partitions: Vec::new(),
            outages: Vec::new(),
        }
    }

    /// Set the default per-link drop probability.
    pub fn drop_rate(mut self, p: f64) -> Self {
        self.link.drop = p;
        self.link.validate();
        self
    }

    /// Set the default per-link duplicate probability.
    pub fn dup_rate(mut self, p: f64) -> Self {
        self.link.dup = p;
        self.link.validate();
        self
    }

    /// Override the faults of one directed link.
    pub fn link_override(mut self, from: NodeId, to: NodeId, faults: LinkFaults) -> Self {
        faults.validate();
        self.overrides.push((from, to, faults));
        self
    }

    /// Partition `group` from the rest of the cluster during `[from, until)`.
    pub fn partition(mut self, group: Vec<NodeId>, from: Time, until: Time) -> Self {
        assert!(from < until, "empty partition window");
        self.partitions.push(Partition { group, from, until });
        self
    }

    /// Pause `node` (freeze, defer everything) during `[from, until)`.
    pub fn pause(mut self, node: NodeId, from: Time, until: Time) -> Self {
        assert!(from < until, "empty outage window");
        self.outages.push(Outage { node, kind: OutageKind::Pause, from, until });
        self
    }

    /// Crash-restart `node` (lose inbound messages) during `[from, until)`.
    pub fn crash(mut self, node: NodeId, from: Time, until: Time) -> Self {
        assert!(from < until, "empty outage window");
        self.outages.push(Outage { node, kind: OutageKind::Crash, from, until });
        self
    }

    /// True when the plan can *lose* messages (probabilistic drops,
    /// partitions, or crash windows).  Engines use this to relax liveness
    /// assertions: a lossy plan legitimately starves nodes, a non-lossy
    /// plan (clean, dup-only or pause-only) must not.
    pub fn is_lossy(&self) -> bool {
        self.link.drop > 0.0
            || self.overrides.iter().any(|(_, _, f)| f.drop > 0.0)
            || !self.partitions.is_empty()
            || self.outages.iter().any(|o| o.kind == OutageKind::Crash)
    }

    /// True when the reliable-delivery session layer
    /// ([`crate::reliable`]) can fully recover this plan's losses: every
    /// drop probability is `< 1.0`.  Partitions heal and outage windows
    /// end by construction (`from < until` is asserted), so only a
    /// total-loss link is unrecoverable — its retransmissions are dropped
    /// forever.  Engines running with reliability enabled re-arm their
    /// liveness/deadlock checks exactly when this holds.
    pub fn is_recoverable(&self) -> bool {
        self.link.drop < 1.0 && self.overrides.iter().all(|(_, _, f)| f.drop < 1.0)
    }

    /// True when the plan injects nothing at all.
    pub fn is_clean(&self) -> bool {
        self.link == LinkFaults::NONE
            && self.overrides.iter().all(|(_, _, f)| *f == LinkFaults::NONE)
            && self.partitions.is_empty()
            && self.outages.is_empty()
    }

    /// Resolved faults of the directed link `from → to`.
    pub fn link_faults(&self, from: NodeId, to: NodeId) -> LinkFaults {
        self.overrides
            .iter()
            .rev()
            .find(|(f, t, _)| *f == from && *t == to)
            .map(|(_, _, lf)| *lf)
            .unwrap_or(self.link)
    }

    /// The loss rate from `MRA_LOSS` (clamped to `[0, 1]`), if set.
    pub fn env_loss() -> Option<f64> {
        std::env::var("MRA_LOSS")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .map(|p| p.clamp(0.0, 1.0))
    }

    /// A plan from the environment: `Some` when `MRA_LOSS` is set, seeded
    /// with `0xFA17`.
    pub fn from_env() -> Option<FaultPlan> {
        Self::env_loss().map(|p| FaultPlan::new(0xFA17).drop_rate(p))
    }
}

/// Verdict for one frame on a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFate {
    /// Deliver normally.
    Deliver,
    /// Lose the frame.
    Drop,
    /// Deliver once; a duplicate copy was sent and absorbed by the dedup
    /// layer (counted, never handed to the protocol — see module docs).
    Duplicate,
}

/// Counters describing what a fault layer actually did during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames lost to the probabilistic per-link drop.
    pub dropped_link: u64,
    /// Frames lost crossing an active partition.
    pub dropped_partition: u64,
    /// Frames lost because the receiver was in a crash window.
    pub dropped_crash: u64,
    /// Duplicate frames put on the wire.
    pub duplicated: u64,
    /// Duplicate frames absorbed by the dedup layer.
    pub deduped: u64,
    /// Events (messages or timers) deferred past a pause/crash window.
    pub deferred: u64,
}

impl FaultStats {
    /// Total frames lost for any reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_link + self.dropped_partition + self.dropped_crash
    }
}

/// splitmix64 finalizer: a statistically solid pure mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a unit float in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_DROP: u64 = 0xD20_0001;
const SALT_DUP: u64 = 0xD0B_0002;

/// The verdict for the `k`-th frame on `link` under `seed` — the pure
/// decision function shared by every substrate.
#[inline]
pub fn frame_fate(seed: u64, link: u64, k: u64, faults: &LinkFaults) -> FrameFate {
    if faults.drop > 0.0 {
        let h = mix(seed ^ SALT_DROP ^ link.rotate_left(32) ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if unit(h) < faults.drop {
            return FrameFate::Drop;
        }
    }
    if faults.dup > 0.0 {
        let h = mix(seed ^ SALT_DUP ^ link.rotate_left(32) ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if unit(h) < faults.dup {
            return FrameFate::Duplicate;
        }
    }
    FrameFate::Deliver
}

/// Per-link fault filter for substrates that own one link at a time (the
/// TCP reactor).  Carries its own frame counter.
#[derive(Clone, Debug)]
pub struct LinkFilter {
    seed: u64,
    link: u64,
    faults: LinkFaults,
    k: u64,
}

impl LinkFilter {
    /// Filter for the directed link `from → to` of an `n`-node system.
    pub fn new(plan: &FaultPlan, from: NodeId, to: NodeId, n: usize) -> Self {
        LinkFilter {
            seed: plan.seed,
            link: (from * n + to) as u64,
            faults: plan.link_faults(from, to),
            k: 0,
        }
    }

    /// Verdict for the next frame on this link.
    #[inline]
    pub fn next_fate(&mut self) -> FrameFate {
        let k = self.k;
        self.k += 1;
        frame_fate(self.seed, self.link, k, &self.faults)
    }

    /// Frames seen so far.
    pub fn frames(&self) -> u64 {
        self.k
    }
}

/// What an engine should do with a popped delivery — the answer of
/// [`Link::arrive`](crate::link::Link::arrive), which composes this
/// module's wire verdict with the session layer's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Hand the message to the protocol.
    Deliver,
    /// The frame reached the receiver but carries nothing (new) for the
    /// protocol — a stale or out-of-order session frame, or a standalone
    /// ack: the link layer consumed it.
    Absorb,
    /// The message is lost (already counted in the stats, and traced
    /// unless it was an ack).
    Drop,
    /// The receiver is paused: re-schedule delivery at the given instant.
    Defer(Time),
}

/// Runtime fault state for engines that own *all* links (`Sim`,
/// `VirtualNet`): the plan resolved into dense per-link tables plus one
/// frame counter per link, and the running [`FaultStats`].
///
/// All allocation happens at construction; the per-frame decision path is
/// pure arithmetic over the pre-sized tables (the simulator's zero-alloc
/// guard runs with a plan installed).
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    n: usize,
    /// Resolved faults per directed link (`from * n + to`).
    links: Vec<LinkFaults>,
    /// Frame counter per directed link.
    counters: Vec<u64>,
    /// Partition windows with membership masks (`mask[node]`).
    partitions: Vec<(Vec<bool>, Time, Time)>,
    /// Outage windows per node.
    outages: Vec<Vec<(OutageKind, Time, Time)>>,
    /// What happened so far.
    pub stats: FaultStats,
}

impl FaultState {
    /// Instantiate `plan` for an `n`-node system.
    ///
    /// # Panics
    /// If the plan names a node `>= n`.
    pub fn new(plan: FaultPlan, n: usize) -> Self {
        for (f, t, _) in &plan.overrides {
            assert!(*f < n && *t < n, "link override ({f},{t}) outside 0..{n}");
        }
        let links = (0..n * n)
            .map(|l| plan.link_faults(l / n, l % n))
            .collect();
        let partitions = plan
            .partitions
            .iter()
            .map(|p| {
                let mut mask = vec![false; n];
                for &node in &p.group {
                    assert!(node < n, "partition node {node} outside 0..{n}");
                    mask[node] = true;
                }
                (mask, p.from, p.until)
            })
            .collect();
        let mut outages: Vec<Vec<(OutageKind, Time, Time)>> = vec![Vec::new(); n];
        for o in &plan.outages {
            assert!(o.node < n, "outage node {} outside 0..{n}", o.node);
            outages[o.node].push((o.kind, o.from, o.until));
        }
        FaultState {
            plan,
            n,
            links,
            counters: vec![0; n * n],
            partitions,
            outages,
            stats: FaultStats::default(),
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Is `node` inside an outage window at `at`?  Returns the kind and the
    /// restart instant.
    #[inline]
    pub fn outage(&self, node: NodeId, at: Time) -> Option<(OutageKind, Time)> {
        // Hot path: almost every node has no windows.
        let windows = &self.outages[node];
        if windows.is_empty() {
            return None;
        }
        windows
            .iter()
            .find(|(_, from, until)| at >= *from && at < *until)
            .map(|(kind, _, until)| (*kind, *until))
    }

    /// Does the link `from → to` cross an active partition at `at`?
    #[inline]
    pub fn partitioned(&self, from: NodeId, to: NodeId, at: Time) -> bool {
        self.partitions
            .iter()
            .any(|(mask, start, until)| {
                at >= *start && at < *until && mask[from] != mask[to]
            })
    }

    /// Probabilistic verdict for the next frame on `from → to` (bumps the
    /// link's frame counter and the drop/duplicated stats).  A
    /// [`FrameFate::Duplicate`] is counted as *duplicated on the wire*
    /// only; whoever absorbs the copy — the [`Link`](crate::link::Link) on
    /// a sessionless frame, or the session layer's dedup window — accounts
    /// for the absorption ([`FaultStats::deduped`] /
    /// `ReliabilityStats::dup_dropped`).
    #[inline]
    pub fn fate(&mut self, from: NodeId, to: NodeId) -> FrameFate {
        let link = from * self.n + to;
        let k = self.counters[link];
        self.counters[link] += 1;
        let fate = frame_fate(self.plan.seed, link as u64, k, &self.links[link]);
        match fate {
            FrameFate::Drop => self.stats.dropped_link += 1,
            FrameFate::Duplicate => self.stats.duplicated += 1,
            FrameFate::Deliver => {}
        }
        fate
    }

    /// The wire's verdict on a frame popped for delivery on `from → to`.
    /// With a clock (`at = Some(..)`) the receiver's outage windows come
    /// first — a pause returns `Err(restart instant)`: nothing happened to
    /// the frame yet, re-schedule it; a crash loses it — then partitions,
    /// then the probabilistic per-link verdict.  A clockless engine
    /// (`at = None`) gets the per-link verdict alone.  All counting
    /// happens here, except the absorption of a [`FrameFate::Duplicate`]
    /// (see [`FaultState::fate`]).
    #[inline]
    pub fn admit(&mut self, from: NodeId, to: NodeId, at: Option<Time>) -> Result<FrameFate, Time> {
        if let Some(at) = at {
            match self.outage(to, at) {
                Some((OutageKind::Pause, until)) => {
                    self.stats.deferred += 1;
                    return Err(until);
                }
                Some((OutageKind::Crash, _)) => {
                    self.stats.dropped_crash += 1;
                    return Ok(FrameFate::Drop);
                }
                None => {}
            }
            if self.partitioned(from, to, at) {
                self.stats.dropped_partition += 1;
                return Ok(FrameFate::Drop);
            }
        }
        Ok(self.fate(from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_is_deterministic_and_counter_indexed() {
        let faults = LinkFaults { drop: 0.3, dup: 0.2 };
        let a: Vec<FrameFate> = (0..200).map(|k| frame_fate(7, 5, k, &faults)).collect();
        let b: Vec<FrameFate> = (0..200).map(|k| frame_fate(7, 5, k, &faults)).collect();
        assert_eq!(a, b);
        let c: Vec<FrameFate> = (0..200).map(|k| frame_fate(8, 5, k, &faults)).collect();
        assert_ne!(a, c, "different seeds must give different verdicts");
        assert!(a.contains(&FrameFate::Drop));
        assert!(a.contains(&FrameFate::Duplicate));
        assert!(a.contains(&FrameFate::Deliver));
    }

    #[test]
    fn drop_frequency_tracks_probability() {
        let faults = LinkFaults { drop: 0.2, dup: 0.0 };
        let drops = (0..10_000)
            .filter(|&k| frame_fate(42, 3, k, &faults) == FrameFate::Drop)
            .count();
        assert!((1_700..2_300).contains(&drops), "got {drops} drops");
    }

    #[test]
    fn filter_matches_state_per_link() {
        let plan = FaultPlan::new(99).drop_rate(0.25).dup_rate(0.1);
        let n = 4;
        let mut state = FaultState::new(plan.clone(), n);
        let mut filter = LinkFilter::new(&plan, 1, 2, n);
        for _ in 0..500 {
            assert_eq!(state.fate(1, 2), filter.next_fate());
        }
        assert_eq!(filter.frames(), 500);
    }

    #[test]
    fn overrides_take_precedence() {
        let plan = FaultPlan::new(1)
            .drop_rate(0.0)
            .link_override(0, 1, LinkFaults { drop: 1.0, dup: 0.0 });
        assert_eq!(plan.link_faults(0, 1).drop, 1.0);
        assert_eq!(plan.link_faults(1, 0).drop, 0.0);
        let mut state = FaultState::new(plan, 2);
        assert_eq!(state.fate(0, 1), FrameFate::Drop);
        assert_eq!(state.fate(1, 0), FrameFate::Deliver);
    }

    #[test]
    fn partitions_cut_only_crossing_links_during_window() {
        let plan = FaultPlan::new(1).partition(
            vec![0, 1],
            Time::from_millis(10),
            Time::from_millis(20),
        );
        let state = FaultState::new(plan, 4);
        let mid = Time::from_millis(15);
        assert!(state.partitioned(0, 2, mid));
        assert!(state.partitioned(3, 1, mid));
        assert!(!state.partitioned(0, 1, mid), "intra-group link unaffected");
        assert!(!state.partitioned(2, 3, mid));
        // Before and after (heal) the window, nothing is cut.
        assert!(!state.partitioned(0, 2, Time::from_millis(9)));
        assert!(!state.partitioned(0, 2, Time::from_millis(20)));
    }

    #[test]
    fn outage_windows_and_admit_semantics() {
        let plan = FaultPlan::new(1)
            .pause(0, Time::from_millis(5), Time::from_millis(10))
            .crash(1, Time::from_millis(5), Time::from_millis(10));
        let mut state = FaultState::new(plan, 3);
        let mid = Time::from_millis(7);
        assert_eq!(
            state.outage(0, mid),
            Some((OutageKind::Pause, Time::from_millis(10)))
        );
        assert_eq!(state.outage(2, mid), None);
        assert_eq!(state.admit(2, 0, Some(mid)), Err(Time::from_millis(10)));
        assert_eq!(state.admit(2, 1, Some(mid)), Ok(FrameFate::Drop));
        assert_eq!(state.admit(0, 2, Some(mid)), Ok(FrameFate::Deliver));
        assert_eq!(state.stats.deferred, 1);
        assert_eq!(state.stats.dropped_crash, 1);
        // After the restart instant both nodes deliver again.
        let after = Time::from_millis(10);
        assert_eq!(state.admit(2, 0, Some(after)), Ok(FrameFate::Deliver));
        assert_eq!(state.admit(2, 1, Some(after)), Ok(FrameFate::Deliver));
    }

    #[test]
    fn lossy_and_clean_classification() {
        assert!(FaultPlan::new(1).is_clean());
        assert!(!FaultPlan::new(1).is_lossy());
        assert!(FaultPlan::new(1).drop_rate(0.1).is_lossy());
        let dup_only = FaultPlan::new(1).dup_rate(0.5);
        assert!(!dup_only.is_lossy(), "dup-only plans lose nothing");
        assert!(!dup_only.is_clean());
        let pause_only = FaultPlan::new(1).pause(0, Time::ZERO, Time::from_secs(1));
        assert!(!pause_only.is_lossy(), "pause defers, never loses");
        assert!(FaultPlan::new(1)
            .crash(0, Time::ZERO, Time::from_secs(1))
            .is_lossy());
        assert!(FaultPlan::new(1)
            .partition(vec![0], Time::ZERO, Time::from_secs(1))
            .is_lossy());
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn probabilities_are_validated() {
        let _ = FaultPlan::new(1).drop_rate(1.5);
    }

    #[test]
    fn recoverable_classification() {
        assert!(FaultPlan::new(1).is_recoverable());
        assert!(FaultPlan::new(1).drop_rate(0.999).is_recoverable());
        assert!(!FaultPlan::new(1).drop_rate(1.0).is_recoverable());
        assert!(!FaultPlan::new(1)
            .link_override(0, 1, LinkFaults { drop: 1.0, dup: 0.0 })
            .is_recoverable());
        // Partitions and crashes are time-bounded: recoverable.
        assert!(FaultPlan::new(1)
            .partition(vec![0], Time::ZERO, Time::from_secs(1))
            .crash(1, Time::ZERO, Time::from_secs(1))
            .is_recoverable());
    }
}

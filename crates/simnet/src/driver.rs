//! The per-node application driver: the request / critical-section / think
//! lifecycle of the paper's experimental processes (§5.1).
//!
//! Each active node loops forever:
//!
//! 1. think for β (drawn from the workload),
//! 2. issue a request for a random resource set (the workload draws the set
//!    and the critical-section duration α together, since the paper couples
//!    CS length to request size),
//! 3. wait for the grant — the *waiting time* metric,
//! 4. hold the resources for α, release, go to 1.
//!
//! The driver is engine-agnostic: both the discrete-event simulator and
//! `mra-net`'s wall-clock node loop embed it.  It is the one place a
//! request's lifecycle is recorded: each edge calls the workload hooks and
//! every recorder of the run's [`RunLog`] in one fixed order, and returns
//! only what the engine must schedule.  An edge takes the log as a function
//! that hands it out (a TCP run's under its lock) and calls it once, around
//! the recorders only: no workload hook runs under that lock.

use crate::metrics::{Collector, RunResult};
use mra_obs::EventKind::{CsEnter, CsExit, CsRequest};
use mra_obs::{EngineTracer, TraceMode};
use mra_protocol::testkit::SafetyMonitor;
use mra_types::{NodeId, ResourceSet, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::DerefMut;

/// Node `node`'s private random stream under master seed `seed` — the one
/// derivation every engine uses, so a workload draws the same think times
/// and request sets for a given `(seed, node)` on every substrate.
pub fn node_rng(seed: u64, node: NodeId) -> StdRng {
    StdRng::seed_from_u64(seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A request-generation model (implemented by `mra-workloads` for the
/// paper's parameters; simple fixed models live in tests).
///
/// The four optional hooks exist for *open-loop* workloads (the serving
/// layer in `mra-serve`): the engine reports its clock and the grant /
/// release edges, and the workload may claim an **intended arrival time**
/// for the request it just drew.  Closed-loop workloads (the paper's
/// model) ignore all four — the defaults are no-ops, and an absent
/// arrival makes the engine fall back to the issue instant, which is the
/// closed-loop definition of arrival.
pub trait Workload: Send {
    /// Draw the next think time (the paper's β).
    fn think_time(&mut self, rng: &mut StdRng) -> Time;

    /// Draw the next request: the resource set and the critical-section
    /// duration α (the paper couples α to the request size).
    fn next_request(&mut self, rng: &mut StdRng) -> (ResourceSet, Time);

    /// The engine clock, reported immediately before [`Self::think_time`]
    /// or [`Self::next_request`] runs.  Open-loop workloads advance their
    /// arrival process to this instant; the default discards it.
    fn set_now(&mut self, _now: Time) {}

    /// The intended arrival time of the request most recently drawn by
    /// [`Self::next_request`] — when it *would* have been issued had the
    /// node not been busy.  `None` (the default) means "arrived when
    /// issued": the engine then keys latency by the issue instant, which
    /// is exact for closed-loop workloads and is precisely the
    /// coordinated-omission bias for open-loop ones.
    fn intended_arrival(&self) -> Option<Time> {
        None
    }

    /// The request drawn by the last [`Self::next_request`] was granted.
    fn on_grant(&mut self, _now: Time) {}

    /// The corresponding critical section completed (resources released).
    fn on_release(&mut self, _now: Time) {}
}

/// Lifecycle state of one driven node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverState {
    /// Waiting out the think time before the next request.
    Thinking,
    /// Request issued, waiting for the grant.
    Waiting,
    /// Inside the critical section.
    InCs,
    /// Issuing stopped (measurement drain) — after the current cycle, park.
    Parked,
}

/// Everything one run records about its requests: the metrics, the
/// online safety check and the causal trace.  The simulator owns one;
/// the nodes of a TCP run share one behind one lock.
#[derive(Debug)]
pub struct RunLog {
    /// Metrics accumulator.
    pub collector: Collector,
    /// Mutual-exclusion safety checker (panics on violation).
    pub monitor: SafetyMonitor,
    /// Causal tracer; disarmed unless the run was built with a trace mode.
    pub tracer: EngineTracer,
}

impl RunLog {
    /// Recorders for `n` nodes and `m` resources, measuring inside
    /// `window` and tracing in `mode` (`TraceMode::Off` disarms).
    pub fn new(n: usize, m: usize, window: (Time, Time), mode: TraceMode) -> Self {
        RunLog {
            collector: Collector::new(n, m, window),
            monitor: SafetyMonitor::new(n, m),
            tracer: EngineTracer::armed(n, mode),
        }
    }

    /// Close the run at `end`: finish the collector and fold the trace
    /// into the result's `obs`.
    pub fn finish(self, algo: &str, n: usize, end: Time) -> RunResult {
        let mut res = self.collector.finish(algo, n, end);
        res.obs = self.tracer.finish();
        res
    }
}

/// Driver bookkeeping for one node.
#[derive(Debug)]
pub struct Driver {
    me: NodeId,
    state: DriverState,
    /// CS duration of the outstanding request.
    cs_len: Time,
    /// Resource set of the outstanding request, until the grant hands it
    /// to the monitor.
    set: ResourceSet,
    /// The node's workload stream ([`node_rng`]).
    rng: StdRng,
}

impl Driver {
    /// A fresh driver (thinking) for node `me` under master seed `seed`.
    pub fn new(me: NodeId, seed: u64) -> Self {
        Driver {
            me,
            state: DriverState::Thinking,
            cs_len: Time::ZERO,
            set: ResourceSet::new(),
            rng: node_rng(seed, me),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> DriverState {
        self.state
    }

    /// Start a think period at `now`; returns its length.
    pub fn think<W: Workload>(&mut self, wl: &mut W, now: Time) -> Time {
        debug_assert_eq!(self.state, DriverState::Thinking);
        wl.set_now(now);
        wl.think_time(&mut self.rng)
    }

    /// The think timer fired at `now`: draw and record a request.  Returns
    /// the set to request (the engine calls `Allocator::request`).
    pub fn issue<W: Workload, L: DerefMut<Target = RunLog>>(
        &mut self,
        wl: &mut W,
        now: Time,
        log: impl FnOnce() -> L,
    ) -> ResourceSet {
        debug_assert_eq!(self.state, DriverState::Thinking);
        wl.set_now(now);
        let (set, cs) = wl.next_request(&mut self.rng);
        debug_assert!(!set.is_empty());
        // An open-loop workload claims the request's intended arrival;
        // closed-loop ones arrive when they issue.
        let arrival = wl.intended_arrival().unwrap_or(now).min(now);
        self.state = DriverState::Waiting;
        self.set = set.clone();
        self.cs_len = cs;
        let mut log = log();
        log.tracer.on_cs(CsRequest, self.me, set.len() as u32);
        log.collector.on_issue(self.me, set.clone(), now, arrival);
        set
    }

    /// The protocol granted the request at `now`: record the CS entry.
    /// Returns the CS duration (the engine schedules the release).
    ///
    /// # Panics
    /// If the grant overlaps another node's critical section.
    pub fn grant<W: Workload, L: DerefMut<Target = RunLog>>(
        &mut self,
        wl: &mut W,
        now: Time,
        log: impl FnOnce() -> L,
    ) -> Time {
        debug_assert_eq!(self.state, DriverState::Waiting);
        let size = self.set.len() as u32;
        let mut log = log();
        log.monitor.enter(self.me, std::mem::take(&mut self.set));
        log.collector.on_grant(self.me, now);
        log.tracer.on_cs(CsEnter, self.me, size);
        drop(log);
        wl.on_grant(now);
        self.state = DriverState::InCs;
        self.cs_len
    }

    /// The CS timer fired at `now`: record the release (the engine then
    /// calls `Allocator::release`).
    pub fn release<W: Workload, L: DerefMut<Target = RunLog>>(
        &mut self,
        wl: &mut W,
        now: Time,
        log: impl FnOnce() -> L,
    ) {
        debug_assert_eq!(self.state, DriverState::InCs);
        let mut log = log();
        log.collector.on_release(self.me, now);
        log.monitor.exit(self.me);
        log.tracer.on_cs(CsExit, self.me, 0);
        drop(log);
        wl.on_release(now);
        self.state = DriverState::Thinking;
    }

    /// Stop issuing (drain phase).
    pub fn park(&mut self) {
        debug_assert_eq!(self.state, DriverState::Thinking);
        self.state = DriverState::Parked;
    }
}

/// A trivially simple workload for engine tests: fixed think time, fixed CS
/// length, uniformly random sets of exactly `size` resources out of `m`.
#[derive(Clone, Debug)]
pub struct FixedWorkload {
    /// Think time between CS cycles.
    pub think: Time,
    /// Critical-section duration.
    pub cs: Time,
    /// Resources in the system.
    pub m: usize,
    /// Request size.
    pub size: usize,
}

impl Workload for FixedWorkload {
    fn think_time(&mut self, _rng: &mut StdRng) -> Time {
        self.think
    }

    fn next_request(&mut self, rng: &mut StdRng) -> (ResourceSet, Time) {
        use rand::Rng;
        let mut set = ResourceSet::new();
        while set.len() < self.size {
            set.insert(rng.gen_range(0..self.m));
        }
        (set, self.cs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Requests resources {0, 1} for 10 ms after 5 ms of thought, each
    /// claiming an intended arrival after its issue instant.
    struct LateArrival;

    impl Workload for LateArrival {
        fn think_time(&mut self, _: &mut StdRng) -> Time {
            Time::from_millis(5)
        }
        fn next_request(&mut self, _: &mut StdRng) -> (ResourceSet, Time) {
            ([0, 1].into_iter().collect(), Time::from_millis(10))
        }
        fn intended_arrival(&self) -> Option<Time> {
            Some(Time::from_secs(60))
        }
    }

    /// One cycle through the four edges records request → enter → exit,
    /// clamps a late arrival to the issue instant, and has the monitor
    /// hold the set exactly between grant and release.
    #[test]
    fn lifecycle_roundtrip() {
        let (mut d, mut wl) = (Driver::new(1, 7), LateArrival);
        let mut log = RunLog::new(2, 6, (Time::ZERO, Time::MAX), TraceMode::Unbounded);
        let ms = Time::from_millis;
        assert_eq!(d.state(), DriverState::Thinking);
        assert_eq!(d.think(&mut wl, ms(0)), ms(5));
        let set = d.issue(&mut wl, ms(5), || &mut log);
        assert_eq!(set.len(), 2);
        assert_eq!(d.state(), DriverState::Waiting);
        assert_eq!(log.monitor.held_resources(), 0);
        assert_eq!(d.grant(&mut wl, ms(7), || &mut log), ms(10));
        assert_eq!(d.state(), DriverState::InCs);
        assert_eq!(log.monitor.held_resources(), 2);
        d.release(&mut wl, ms(17), || &mut log);
        assert_eq!(log.monitor.held_resources(), 0);
        assert_eq!(d.state(), DriverState::Thinking);
        d.park();
        assert_eq!(d.state(), DriverState::Parked);

        let res = log.finish("x", 2, ms(20));
        assert_eq!(res.cs_completed, 1);
        let rec = &res.records[0];
        assert_eq!((rec.arrival, rec.issued), (ms(5), ms(5)));
        let trace = res.obs.trace.expect("armed");
        let kinds: Vec<_> = trace.recs.iter().map(|r| r.ev.kind).collect();
        assert_eq!(kinds, [CsRequest, CsEnter, CsExit]);
    }

    #[test]
    fn fixed_workload_draws_exact_sizes() {
        let mut wl = FixedWorkload {
            think: Time::ZERO,
            cs: Time::from_millis(1),
            m: 10,
            size: 4,
        };
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let (set, cs) = wl.next_request(&mut rng);
            assert_eq!(set.len(), 4);
            assert!(set.iter().all(|r| r < 10));
            assert_eq!(cs, Time::from_millis(1));
        }
    }
}

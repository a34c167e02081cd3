//! `ServeWorkload`: the adapter that makes a closed-loop engine serve an
//! open-loop request stream.
//!
//! Both engines in this workspace (discrete-event `Sim`, the TCP
//! reactor cluster) drive nodes through the pull-based
//! [`Workload`] trait: *think, then ask for the next request*.  That is a
//! closed loop — a slow node asks less often, and latency measured from
//! the ask (issue time) silently forgives queueing delay.
//!
//! `ServeWorkload` inverts control without touching the engines, using the
//! `Workload` timing hooks:
//!
//! * [`set_now`](Workload::set_now) pumps the arrival generator up to the
//!   engine clock, offering every arrival to the admission queue (and
//!   accounting sheds) the moment it "happens";
//! * [`think_time`](Workload::think_time) returns the gap to the next
//!   arrival when idle, or ~0 when a backlog is queued — so the engine's
//!   think timer fires exactly at arrival instants, never before;
//! * [`next_request`](Workload::next_request) pops a batch of pairwise
//!   disjoint requests and presents their union as one critical-section
//!   request whose duration covers the longest member;
//! * [`intended_arrival`](Workload::intended_arrival) reports the oldest
//!   batched arrival, which the engine threads into its metrics — that is
//!   the coordinated-omission fix;
//! * [`on_grant`](Workload::on_grant) / [`on_release`](Workload::on_release)
//!   stamp per-member end-to-end latencies into [`ServeStats`].

use rand::rngs::StdRng;

use mra_sim::Workload;
use mra_types::{ResourceSet, Time};

use crate::admission::{Admission, AdmissionQueue, ServeReq};
use crate::arrivals::{ArrivalGen, Interarrival, RequestShape};
use crate::stats::{ServeStats, SharedServeStats};

/// Configuration for one node's serving front end.  These fields are the
/// one way to configure serving — there are no environment overrides.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Offered arrival rate per node, in requests/second.
    pub rate_hz: f64,
    /// Use heavy-tailed bounded-Pareto interarrivals (mean-matched to
    /// `rate_hz`) instead of Poisson.
    pub bursty: bool,
    /// Pareto shape parameter for bursty mode.
    pub pareto_alpha: f64,
    /// Admission-queue depth bound; arrivals past it are shed and
    /// accounted, never silently dropped.
    pub max_depth: usize,
    /// Max pairwise-disjoint requests folded into one critical-section
    /// batch.
    pub max_batch: usize,
    /// How many entries past the queue head to scan for disjoint sets
    /// (`0` = strict FIFO, no batching).
    pub batch_scan: usize,
    /// Number of service classes (keep `shape.classes` equal).
    pub classes: usize,
    /// Per-class queued-request quota (`None` = off); arrivals of a class
    /// at quota are shed as `ShedClass`.
    pub class_quota: Option<usize>,
    /// Shape of fabricated requests.
    pub shape: RequestShape,
    /// Base seed; node `i` derives its stream from `seed` and `i`.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            rate_hz: 200.0,
            bursty: false,
            pareto_alpha: 1.5,
            max_depth: 64,
            max_batch: 4,
            batch_scan: 8,
            classes: 2,
            class_quota: None,
            shape: RequestShape {
                m: 16,
                phi: 3,
                cs_min: Time::from_micros(500),
                cs_max: Time::from_millis(2),
                classes: 2,
            },
            seed: 0x5e21,
        }
    }
}

impl ServeConfig {
    fn interarrival(&self) -> Interarrival {
        if self.bursty {
            Interarrival::ParetoBurst {
                rate_hz: self.rate_hz,
                alpha: self.pareto_alpha,
            }
        } else {
            Interarrival::Poisson {
                rate_hz: self.rate_hz,
            }
        }
    }
}

/// Open-loop serving workload for one node.  See the module docs for how
/// it maps onto the closed-loop `Workload` trait.
#[derive(Debug)]
pub struct ServeWorkload {
    gen: ArrivalGen,
    queue: AdmissionQueue,
    max_batch: usize,
    batch_scan: usize,
    now: Time,
    /// Members of the in-flight critical-section batch.
    batch: Vec<ServeReq>,
    /// Oldest intended arrival in the in-flight batch.
    batch_arrival: Option<Time>,
    stats: SharedServeStats,
}

impl ServeWorkload {
    /// Build node `node`'s workload; its arrival stream is derived from
    /// `cfg.seed` and `node` so fleets are deterministic yet decorrelated.
    pub fn new(cfg: &ServeConfig, node: usize) -> Self {
        let mut shape = cfg.shape.clone();
        shape.classes = shape.classes.max(cfg.classes).max(1);
        let seed = cfg
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(node as u64 + 1);
        ServeWorkload {
            gen: ArrivalGen::new(cfg.interarrival(), shape, seed),
            queue: AdmissionQueue::new(cfg.max_depth, cfg.classes, cfg.class_quota),
            max_batch: cfg.max_batch.max(1),
            batch_scan: cfg.batch_scan,
            now: Time::ZERO,
            batch: Vec::new(),
            batch_arrival: None,
            stats: SharedServeStats::new(),
        }
    }

    /// Build a whole fleet plus the stats handles that outlive it.
    pub fn fleet(cfg: &ServeConfig, n: usize) -> (Vec<ServeWorkload>, Vec<SharedServeStats>) {
        let workloads: Vec<_> = (0..n).map(|i| ServeWorkload::new(cfg, i)).collect();
        let handles = workloads.iter().map(|w| w.stats()).collect();
        (workloads, handles)
    }

    /// Shared handle to this node's serving stats (keep it: the engine
    /// consumes the workload by value).
    pub fn stats(&self) -> SharedServeStats {
        self.stats.clone()
    }

    /// Offer every arrival up to (and including) the current clock to the
    /// admission queue, accounting the verdicts.
    fn pump(&mut self) {
        while self.gen.peek() <= self.now {
            let req = self.gen.take();
            let mut s = self.stats.lock();
            s.offered += 1;
            match self.queue.offer(req) {
                Admission::Admitted => s.admitted += 1,
                Admission::ShedDepth => s.shed_depth += 1,
                Admission::ShedClass => s.shed_class += 1,
            }
            s.depth_high_water = s.depth_high_water.max(self.queue.high_water);
        }
    }

    /// Requests the caller shed or left queued are gone from the engine's
    /// point of view; expose the queue for end-of-run accounting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

impl Workload for ServeWorkload {
    fn set_now(&mut self, now: Time) {
        // Engine clocks are monotone per node, but the wall-clock runtime
        // may deliver a slightly stale shared clock; never move backward.
        self.now = self.now.max(now);
        self.pump();
    }

    fn think_time(&mut self, _rng: &mut StdRng) -> Time {
        if !self.queue.is_empty() {
            // Backlog: issue the next batch essentially immediately.  1 ns
            // keeps the engine's strictly-forward event clock happy.
            return Time::from_nanos(1);
        }
        // Idle: sleep exactly until the next intended arrival.
        self.gen
            .peek()
            .saturating_sub(self.now)
            .max(Time::from_nanos(1))
    }

    fn next_request(&mut self, _rng: &mut StdRng) -> (ResourceSet, Time) {
        self.pump();
        if self.queue.is_empty() {
            // The think timer normally fires exactly at an arrival instant
            // (see `think_time`), so the queue cannot be empty here in the
            // simulator.  The wall-clock runtime can fire a hair early,
            // though: treat the imminent arrival as having happened.
            self.now = self.now.max(self.gen.peek());
            self.pump();
        }
        let batch = self.queue.pop_batch(self.max_batch, self.batch_scan);
        debug_assert!(!batch.is_empty(), "think timer fired with no arrival");
        let mut union = ResourceSet::default();
        let mut cs = Time::ZERO;
        for r in &batch {
            union.union_with(&r.set);
            cs = cs.max(r.cs);
        }
        {
            let mut s = self.stats.lock();
            s.batches += 1;
            s.batched_reqs += batch.len() as u64;
        }
        // FIFO admission means the head is the oldest member.
        self.batch_arrival = batch.first().map(|r| r.arrival);
        self.batch = batch;
        (union, cs)
    }

    fn intended_arrival(&self) -> Option<Time> {
        self.batch_arrival
    }

    fn on_grant(&mut self, now: Time) {
        let mut s = self.stats.lock();
        for r in &self.batch {
            s.on_grant(r.arrival, now);
        }
    }

    fn on_release(&mut self, now: Time) {
        let mut s = self.stats.lock();
        for r in self.batch.drain(..) {
            s.on_done(r.arrival, now);
        }
        drop(s);
        self.batch_arrival = None;
    }
}

/// Fleet-wide conservation check, usable from tests and benches: offered
/// splits exactly into admitted + shed, and everything admitted is either
/// served, still queued, or in flight.
pub fn check_conservation(total: &ServeStats, queued: u64, inflight: u64) -> Result<(), String> {
    if total.offered != total.admitted + total.shed_depth + total.shed_class {
        return Err(format!(
            "offered {} != admitted {} + shed {}",
            total.offered,
            total.admitted,
            total.shed()
        ));
    }
    if total.admitted != total.served + queued + inflight {
        return Err(format!(
            "admitted {} != served {} + queued {} + inflight {}",
            total.admitted, total.served, queued, inflight
        ));
    }
    if total.granted < total.served {
        return Err(format!(
            "granted {} < served {}",
            total.granted, total.served
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg() -> ServeConfig {
        ServeConfig {
            rate_hz: 1000.0,
            ..ServeConfig::default()
        }
    }

    /// Hand-drive the workload the way an engine does and check the
    /// open-loop contract end to end.
    #[test]
    fn manual_engine_loop_conserves_requests() {
        let mut w = ServeWorkload::new(&cfg(), 0);
        let stats = w.stats();
        let mut rng = StdRng::seed_from_u64(9);
        let mut now = Time::ZERO;
        let mut served = 0u64;
        for _ in 0..200 {
            w.set_now(now);
            let think = w.think_time(&mut rng);
            now += think;
            w.set_now(now);
            let (set, cs) = w.next_request(&mut rng);
            assert!(!set.is_empty());
            let arrival = w.intended_arrival().expect("batch in flight");
            assert!(arrival <= now, "arrival {arrival:?} after issue {now:?}");
            // Pretend the allocator granted after some protocol delay.
            now += Time::from_micros(300);
            w.on_grant(now);
            now += cs;
            served += w.batch.len() as u64;
            w.on_release(now);
        }
        let s = stats.lock();
        assert_eq!(s.batches, 200);
        assert_eq!(s.served, served);
        assert_eq!(s.granted, s.served);
        assert_eq!(s.offered, s.admitted + s.shed());
        assert_eq!(s.admitted, s.served + w.queue.len() as u64);
        // End-to-end latency includes queueing + protocol + CS.
        assert!(s.done_latency.mean() > s.grant_latency.mean());
    }

    #[test]
    fn idle_node_sleeps_to_next_arrival_exactly() {
        let mut w = ServeWorkload::new(&cfg(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        w.set_now(Time::ZERO);
        assert!(w.queue.is_empty());
        let think = w.think_time(&mut rng);
        assert_eq!(think, w.gen.peek());
        // Firing the timer at exactly that instant must find the arrival.
        w.set_now(think);
        assert_eq!(w.queue.len(), 1);
    }

    #[test]
    fn backlog_returns_epsilon_think() {
        let mut w = ServeWorkload::new(&cfg(), 2);
        let mut rng = StdRng::seed_from_u64(2);
        // Jump far ahead: many arrivals pile into the queue (some shed).
        w.set_now(Time::from_millis(50));
        assert!(!w.queue.is_empty());
        assert_eq!(w.think_time(&mut rng), Time::from_nanos(1));
        let depth = w.queue.len() as u64;
        let s = w.stats();
        let g = s.lock();
        assert_eq!(g.admitted, depth);
        assert!(g.offered >= depth);
        assert!(g.depth_high_water as u64 >= depth.min(64));
        drop(g);
        // Shedding kicked in at the 64-deep bound: ~50 ms at 1 kHz ≈ 50
        // arrivals normally, but jumping the clock pumps them all at once.
        assert!(w.queue.len() <= 64);
    }
}

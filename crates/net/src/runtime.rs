//! The wall-clock node loop, beside the one transport it runs over.
//!
//! Every node of a TCP run — a thread of `run_tcp_cluster` or the whole
//! process of `run_solo_node` — drives the same event loop: wait for
//! either a message or a workload timer, feed the protocol state machine,
//! flush its outbox, and account grants/releases against the shared
//! [`SafetyMonitor`] and [`Collector`].  [`drive_node`] is that loop and
//! `ReactorPort` its only port, so nothing here is generic over a
//! transport and nothing leaves the crate: the harnesses in `cluster` are
//! the public surface.
//!
//! The loop is the node's only thread.  The wait *is* the transport: the
//! port's `recv` / `recv_deadline` run the reactor (flush what the last
//! step queued, poll the sockets until a message or the deadline), so a
//! hop costs no hand-off between threads and the loop never sleeps
//! anywhere else.
//!
//! Lifecycle per active node: think → request → wait for grant → hold the
//! critical section → release, repeated `rounds` times.  After its quota a
//! node parks but keeps serving protocol traffic (forwarding requests,
//! relaying tokens) until the cluster-wide shutdown — which the port
//! coordinates, see `ReactorPort::quota_done` — reaches it.

use crate::cluster::TcpClusterConfig;
use crate::reactor::ReactorPort;
use mra_obs::{trace_mode_from_env, EngineTracer, EventKind, NetCounters, TraceMode};
use mra_protocol::testkit::SafetyMonitor;
use mra_protocol::{Allocator, Ctx, WireCodec, WireMsg};
use mra_sim::driver::{node_rng, Driver, DriverState, Workload};
use mra_sim::lock;
use mra_sim::metrics::{Collector, RunResult};
use mra_types::{NodeId, Time};
use std::sync::Mutex;
use std::time::Instant;

/// One delivery from the port to the node loop.
pub(crate) enum PortEvent<M> {
    /// A protocol message from `from`, due now (a port emulating extra
    /// link latency holds it back until then).
    Msg {
        /// Sending node.
        from: NodeId,
        /// The sender's Lamport stamp; 0 = unstamped, which is all the
        /// frame format can say today (see [`ReactorPort::send`]).
        stamp: u64,
        /// The protocol message.
        msg: M,
    },
    /// No message arrived before the requested deadline.
    TimedOut,
    /// The cluster is shutting down (or the transport collapsed); the node
    /// loop exits.
    Shutdown,
}

/// State shared by every node of one run: safety monitoring, metrics and
/// the common epoch that turns wall-clock instants into [`Time`] stamps.
#[derive(Debug)]
pub(crate) struct RunShared {
    /// Mutual-exclusion safety checker (panics on violation).
    pub monitor: Mutex<SafetyMonitor>,
    /// Metrics accumulator.
    pub collector: Mutex<Collector>,
    /// Causal tracer, `Some` only when armed via `MRA_TRACE` /
    /// `MRA_TRACE_FILE` (see [`mra_obs::trace_mode_from_env`]).  Disarmed
    /// runs pay exactly one `Option` check per hook site — the tracer
    /// itself is never constructed.  Real-time runs have no deterministic
    /// dispatch key, so every event is keyed `(shared.now(), 0)`; the
    /// per-record sequence number keeps the merged order stable.
    pub obs: Option<Mutex<EngineTracer>>,
    /// Wall-clock origin of the run.
    pub epoch: Instant,
}

impl RunShared {
    /// Fresh shared state for `n` nodes and `m` resources.  The collector
    /// window is open-ended (clamped to the actual end by
    /// [`Collector::finish`]).  Tracing arms from the environment
    /// ([`mra_obs::trace_mode_from_env`]).
    pub fn new(n: usize, m: usize) -> Self {
        let obs = match trace_mode_from_env() {
            TraceMode::Off => None,
            mode => Some(Mutex::new(EngineTracer::armed(n, mode))),
        };
        RunShared {
            monitor: Mutex::new(SafetyMonitor::new(n, m)),
            collector: Mutex::new(Collector::new(n, m, (Time::ZERO, Time::MAX))),
            obs,
            epoch: Instant::now(),
        }
    }

    /// Wall time elapsed since the run epoch.
    pub fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Close the run once every node loop has returned: stamp the end
    /// time, check the monitor, fold the tracer and finish the collector.
    ///
    /// # Panics
    /// If the monitor still has a node inside its CS or a resource marked
    /// held.  Every node loop exits outside its CS, so the holder table
    /// must be empty — a leak means a grant/release pair corrupted it.
    pub fn into_result(self, algo: &str, n: usize) -> RunResult {
        let end = self.now();
        let monitor = self.monitor.into_inner().unwrap_or_else(|e| e.into_inner());
        assert_eq!(monitor.concurrency(), 0, "node left inside CS after the run");
        assert_eq!(monitor.held_resources(), 0, "resources leaked after the run");
        monitor.assert_conservation();
        let collector = self.collector.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut res = collector.finish(algo, n, end);
        if let Some(tracer) = self.obs {
            res.obs = tracer.into_inner().unwrap_or_else(|e| e.into_inner()).finish();
        }
        res
    }
}

/// Run one node over `port` until the cluster-wide shutdown reaches it;
/// returns the port's transport counters.  Nodes `0..cfg.active(n)` run
/// `cfg.rounds` request/CS cycles (the harness checked it is at least
/// one); the rest are passive and only serve protocol traffic (e.g. a
/// central coordinator).
///
/// # Panics
/// On any safety violation (monitored exactly like the simulator) and on
/// protocol contract violations surfaced by the `Allocator` itself.
pub(crate) fn drive_node<A, W>(
    me: NodeId,
    n: usize,
    mut proto: A,
    mut workload: W,
    mut port: ReactorPort<A::Msg>,
    shared: &RunShared,
    cfg: &TcpClusterConfig,
) -> NetCounters
where
    A: Allocator,
    A::Msg: WireCodec,
    W: Workload,
{
    let is_active = me < cfg.active(n);
    let mut ctx: Ctx<A::Msg> = Ctx::new(me, n);
    let mut driver = Driver::new();
    let mut rng = node_rng(cfg.seed, me);

    ctx.set_now(shared.now());
    proto.on_init(&mut ctx);
    flush_and_grants(me, &mut ctx, &mut driver, &mut workload, &mut port, shared, &mut None);

    let mut rounds_left = if is_active { cfg.rounds } else { 0 };
    // The pending timer: think expiry or CS expiry, depending on state.
    let mut deadline: Option<Instant> = is_active.then(|| {
        workload.set_now(shared.now());
        Instant::now() + workload.think_time(&mut rng).to_std()
    });
    if !is_active {
        driver.park();
    }

    loop {
        let event = match deadline {
            Some(d) => port.recv_deadline(d),
            None => port.recv(),
        };

        match event {
            PortEvent::Shutdown => break,
            PortEvent::Msg { from, stamp, msg } => {
                ctx.set_now(shared.now());
                if let Some(obs) = &shared.obs {
                    let mut t = lock(obs);
                    t.set_key(shared.now(), 0);
                    t.on_recv(from, me, msg.kind(), msg.weight() as u32, stamp);
                }
                proto.on_message(&mut ctx, from, msg);
                flush_and_grants(
                    me,
                    &mut ctx,
                    &mut driver,
                    &mut workload,
                    &mut port,
                    shared,
                    &mut deadline,
                );
            }
            PortEvent::TimedOut => {
                // Timer fired.
                match driver.state() {
                    DriverState::Thinking => {
                        let now = shared.now();
                        workload.set_now(now);
                        let set = driver.issue(&mut workload, &mut rng);
                        // Open-loop workloads claim the request's intended
                        // arrival; closed-loop ones arrive at issue.
                        let arrival = workload.intended_arrival().unwrap_or(now).min(now);
                        if let Some(obs) = &shared.obs {
                            let mut t = lock(obs);
                            t.set_key(now, 0);
                            t.on_cs(EventKind::CsRequest, me, set.len() as u32);
                        }
                        lock(&shared.collector).on_issue(me, set.clone(), now, arrival);
                        deadline = None; // wait for the grant
                        ctx.set_now(shared.now());
                        proto.request(&mut ctx, set);
                        flush_and_grants(
                            me,
                            &mut ctx,
                            &mut driver,
                            &mut workload,
                            &mut port,
                            shared,
                            &mut deadline,
                        );
                    }
                    DriverState::InCs => {
                        if let Some(obs) = &shared.obs {
                            let mut t = lock(obs);
                            t.set_key(shared.now(), 0);
                            t.on_cs(EventKind::CsExit, me, 0);
                        }
                        let now = shared.now();
                        lock(&shared.collector).on_release(me, now);
                        workload.on_release(now);
                        lock(&shared.monitor).exit(me);
                        driver.released();
                        ctx.set_now(shared.now());
                        proto.release(&mut ctx);
                        deadline = None;
                        flush_and_grants(
                            me,
                            &mut ctx,
                            &mut driver,
                            &mut workload,
                            &mut port,
                            shared,
                            &mut deadline,
                        );
                        rounds_left -= 1;
                        if rounds_left == 0 {
                            driver.park();
                            if port.quota_done() {
                                // Last finisher: shutdown broadcast, exit.
                                break;
                            }
                        } else {
                            workload.set_now(shared.now());
                            deadline = Some(
                                Instant::now() + workload.think_time(&mut rng).to_std(),
                            );
                        }
                    }
                    // Waiting/Parked never arm a timer.
                    other => unreachable!("timer in state {other:?}"),
                }
            }
        }
    }
    port.into_counters()
}

/// Drain the outbox onto the port and turn a grant edge into CS
/// bookkeeping (+ CS-end timer).  The outbox drains in place (its
/// capacity is the reused buffer), under one collector lock per burst.
fn flush_and_grants<M: WireMsg + WireCodec, W: Workload>(
    me: NodeId,
    ctx: &mut Ctx<M>,
    driver: &mut Driver,
    workload: &mut W,
    port: &mut ReactorPort<M>,
    shared: &RunShared,
    deadline: &mut Option<Instant>,
) {
    if ctx.has_output() {
        let mut collector = lock(&shared.collector);
        // One tracer lock per outbox burst; every message in the burst
        // shares the key (now, 0), disambiguated by the tracer's seq.
        let mut obs = shared.obs.as_ref().map(|m| {
            let mut t = lock(m);
            t.set_key(shared.now(), 0);
            t
        });
        for (to, msg) in ctx.drain_outbox() {
            collector.on_message(msg.kind(), msg.weight());
            let stamp = match obs.as_deref_mut() {
                Some(t) => t.on_send(me, to, msg.kind(), msg.weight() as u32),
                None => 0,
            };
            port.send(to, msg, stamp);
        }
    }
    if ctx.take_granted() {
        let set = driver.current_set();
        let size = set.len() as u32;
        lock(&shared.monitor).enter(me, set);
        let now = shared.now();
        lock(&shared.collector).on_grant(me, now);
        workload.on_grant(now);
        if let Some(obs) = &shared.obs {
            let mut t = lock(obs);
            t.set_key(now, 0);
            t.on_cs(EventKind::CsEnter, me, size);
        }
        let cs = driver.granted();
        *deadline = Some(Instant::now() + cs.to_std());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_types::ResourceSet;

    /// The post-run monitor check guards both wall-clock harnesses (TCP
    /// cluster and solo), not the cluster alone.
    #[test]
    #[should_panic(expected = "node left inside CS after the run")]
    fn into_result_rejects_a_holder_left_inside() {
        let shared = RunShared::new(2, 2);
        lock(&shared.monitor).enter(1, ResourceSet::singleton(0));
        shared.into_result("x", 2);
    }

    /// The collector window is open-ended: a CS two hours into a long
    /// solo run counts like one in the first second.
    #[test]
    fn a_cs_two_hours_in_is_still_counted() {
        let shared = RunShared::new(1, 1);
        let at = |ms| Time::from_secs(7200) + Time::from_millis(ms);
        let mut c = shared.collector.into_inner().unwrap();
        c.on_issue(0, ResourceSet::singleton(0), at(0), at(0));
        c.on_grant(0, at(1));
        c.on_release(0, at(3));
        let res = c.finish("x", 1, at(4));
        assert_eq!(res.cs_completed, 1);
        assert_eq!(res.busy[0], Time::from_millis(2));
    }
}

//! The wall-clock node loop, beside the one transport it runs over.
//!
//! Every node of a TCP run — a thread of `run_tcp_cluster` or the whole
//! process of `run_solo_node` — drives the same event loop: wait for
//! either a message or a workload timer, feed the protocol state machine,
//! flush its outbox, and record each request's issue, grant and release
//! through the node's [`Driver`] into the run's one [`RunLog`], which
//! every node of the run shares behind one lock.  [`drive_node`] is that
//! loop and `ReactorPort` its only port, so nothing here is generic over
//! a transport and nothing leaves the crate: the harnesses in `cluster`
//! are the public surface.
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
use mra_obs::{trace_mode_from_env, NetCounters};
use mra_protocol::{Allocator, Ctx, WireCodec, WireMsg};
use mra_sim::driver::{Driver, DriverState, RunLog, Workload};
use mra_sim::lock;
use mra_sim::metrics::RunResult;
use mra_types::{NodeId, Time};
use std::sync::{Mutex, MutexGuard};
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

/// State shared by every node of one run: the run's one [`RunLog`] and
/// the common epoch that turns wall-clock instants into [`Time`] stamps.
#[derive(Debug)]
pub(crate) struct RunShared {
    /// Metrics, safety monitor and causal tracer, behind one lock.
    pub log: Mutex<RunLog>,
    /// Whether the tracer is armed (via `MRA_TRACE` / `MRA_TRACE_FILE`,
    /// see [`mra_obs::trace_mode_from_env`]): a disarmed run takes no lock
    /// on receive.
    pub traced: bool,
    /// Wall-clock origin of the run.
    pub epoch: Instant,
}

impl RunShared {
    /// Fresh shared state for `n` nodes and `m` resources.  The collector
    /// window is open-ended (clamped to the actual end by
    /// [`RunLog::finish`]).  Tracing arms from the environment.
    pub fn new(n: usize, m: usize) -> Self {
        let log = RunLog::new(n, m, (Time::ZERO, Time::MAX), trace_mode_from_env());
        RunShared {
            traced: log.tracer.is_armed(),
            log: Mutex::new(log),
            epoch: Instant::now(),
        }
    }

    /// Wall time elapsed since the run epoch.
    pub fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Lock the run's log.  Real-time runs have no deterministic dispatch
    /// key, so an armed tracer records under `(now, 0)`; the per-record
    /// sequence number keeps the merged order stable.
    pub fn log(&self) -> MutexGuard<'_, RunLog> {
        let mut log = lock(&self.log);
        if self.traced {
            log.tracer.set_key(self.now(), 0);
        }
        log
    }

    /// Close the run once every node loop has returned: stamp the end
    /// time, check the monitor and finish the log.
    ///
    /// # Panics
    /// If the monitor still has a node inside its CS or a resource marked
    /// held.  Every node loop exits outside its CS, so the holder table
    /// must be empty — a leak means a grant/release pair corrupted it.
    pub fn into_result(self, algo: &str, n: usize) -> RunResult {
        let end = self.now();
        let log = self.log.into_inner().unwrap_or_else(|e| e.into_inner());
        assert_eq!(log.monitor.concurrency(), 0, "node left inside CS after the run");
        assert_eq!(log.monitor.held_resources(), 0, "resources leaked after the run");
        log.monitor.assert_conservation();
        log.finish(algo, n, end)
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
    let mut driver = Driver::new(me, cfg.seed);
    let mut rounds_left = if is_active { cfg.rounds } else { 0 };
    // The pending timer: think expiry or CS expiry, depending on state.
    let mut deadline: Option<Instant> = None;
    // Did the last step end a critical section?
    let mut released = false;

    ctx.set_now(shared.now());
    proto.on_init(&mut ctx);
    if is_active {
        deadline = Some(Instant::now() + driver.think(&mut workload, shared.now()).to_std());
    } else {
        driver.park();
    }

    loop {
        // Finish the last step.  Its outbox drains in place (its capacity
        // is the reused buffer) under one log lock: every message of the
        // burst shares the tracer key, disambiguated by its seq.
        if ctx.has_output() {
            let mut log = shared.log();
            for (to, msg) in ctx.drain_outbox() {
                let (kind, weight) = (msg.kind(), msg.weight());
                log.collector.on_message(kind, weight);
                let stamp = log.tracer.on_send(me, to, kind, weight as u32);
                port.send(to, msg, stamp);
            }
        }
        if ctx.take_granted() {
            let cs = driver.grant(&mut workload, shared.now(), || shared.log());
            deadline = Some(Instant::now() + cs.to_std());
        }
        // A release counts against the quota once its messages are queued.
        if released {
            rounds_left -= 1;
            if rounds_left > 0 {
                let think = driver.think(&mut workload, shared.now());
                deadline = Some(Instant::now() + think.to_std());
            } else {
                driver.park();
                if port.quota_done() {
                    // Last finisher: shutdown broadcast, exit.
                    break;
                }
            }
        }

        let event = match deadline {
            Some(d) => port.recv_deadline(d),
            None => port.recv(),
        };
        released = match event {
            PortEvent::Shutdown => break,
            PortEvent::Msg { from, stamp, msg } => {
                ctx.set_now(shared.now());
                if shared.traced {
                    let (kind, weight) = (msg.kind(), msg.weight() as u32);
                    shared.log().tracer.on_recv(from, me, kind, weight, stamp);
                }
                proto.on_message(&mut ctx, from, msg);
                false
            }
            // Timer fired; Waiting/Parked never arm one.
            PortEvent::TimedOut => {
                let now = shared.now();
                deadline = None;
                ctx.set_now(now);
                match driver.state() {
                    DriverState::Thinking => {
                        let set = driver.issue(&mut workload, now, || shared.log());
                        proto.request(&mut ctx, set);
                        false
                    }
                    DriverState::InCs => {
                        driver.release(&mut workload, now, || shared.log());
                        proto.release(&mut ctx);
                        true
                    }
                    other => unreachable!("timer in state {other:?}"),
                }
            }
        };
    }
    port.into_counters()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_sim::FixedWorkload;

    /// The post-run monitor check guards both wall-clock harnesses (TCP
    /// cluster and solo), not the cluster alone.
    #[test]
    #[should_panic(expected = "node left inside CS after the run")]
    fn into_result_rejects_a_holder_left_inside() {
        let shared = RunShared::new(2, 2);
        let (mut d, mut wl) = (Driver::new(1, 0), one_resource());
        d.issue(&mut wl, Time::ZERO, || shared.log());
        d.grant(&mut wl, Time::ZERO, || shared.log());
        shared.into_result("x", 2);
    }

    /// The collector window is open-ended: a CS two hours into a long
    /// solo run counts like one in the first second.
    #[test]
    fn a_cs_two_hours_in_is_still_counted() {
        let shared = RunShared::new(1, 1);
        let at = |ms| Time::from_secs(7200) + Time::from_millis(ms);
        let (mut d, mut wl) = (Driver::new(0, 0), one_resource());
        d.issue(&mut wl, at(0), || shared.log());
        d.grant(&mut wl, at(1), || shared.log());
        d.release(&mut wl, at(3), || shared.log());
        let res = shared.log.into_inner().unwrap().finish("x", 1, at(4));
        assert_eq!(res.cs_completed, 1);
        assert_eq!(res.busy[0], Time::from_millis(2));
    }

    /// Requests for resource 0 alone.
    fn one_resource() -> FixedWorkload {
        FixedWorkload {
            think: Time::ZERO,
            cs: Time::ZERO,
            m: 1,
            size: 1,
        }
    }
}

//! Real-concurrency runtime: one OS thread per node, `std::sync::mpsc`
//! channels as links.
//!
//! The discrete-event simulator explores timing; this runtime validates
//! that the very same protocol state machines behave correctly under *real*
//! parallelism — true asynchrony, preemption and cross-thread message
//! passing — which is what the paper's C++/OpenMPI deployment faced.
//! Durations are wall-clock: keep them small in tests.
//!
//! The per-node event loop lives in [`crate::runtime`], shared with
//! `mra-net`'s TCP transport; this module contributes only the mpsc
//! [`NodePort`] backend.  Link latency is emulated by stamping each message
//! with a delivery deadline that the receiver waits out; channel order
//! preserves per-link FIFO.  The run is quota-based: every active node
//! completes `rounds` request/CS cycles, then keeps serving protocol
//! traffic until the last finisher broadcasts shutdown.

use crate::driver::Workload;
use crate::metrics::RunResult;
use crate::runtime::{drive_node, NodeCfg, NodePort, PortEvent, RunShared};
use mra_protocol::Allocator;
use mra_types::{NodeId, Time};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// Request/CS cycles per active node.
    pub rounds: usize,
    /// Emulated link latency (constant).
    pub latency: Time,
    /// Master seed for workload randomness.
    pub seed: u64,
    /// Only nodes `0..active` issue requests (`None` = all).
    pub active_nodes: Option<usize>,
}

enum Envelope<M> {
    Msg {
        from: NodeId,
        deliver_at: Instant,
        stamp: u64,
        msg: M,
    },
    Shutdown,
}

struct MpscShared<M> {
    senders: Vec<mpsc::Sender<Envelope<M>>>,
    /// Active nodes still short of their quota.
    remaining: AtomicUsize,
    latency: Time,
}

/// The mpsc channel backend of [`crate::runtime::NodePort`].
struct MpscPort<M> {
    me: NodeId,
    rx: mpsc::Receiver<Envelope<M>>,
    shared: Arc<MpscShared<M>>,
}

impl<M: Send> NodePort<M> for MpscPort<M> {
    fn send(&mut self, to: NodeId, msg: M, stamp: u64) {
        let deliver_at = Instant::now() + self.shared.latency.to_std();
        // A closed channel means the peer is past shutdown: drop silently.
        let _ = self.shared.senders[to].send(Envelope::Msg {
            from: self.me,
            deliver_at,
            stamp,
            msg,
        });
    }

    fn recv(&mut self) -> PortEvent<M> {
        match self.rx.recv() {
            Ok(Envelope::Msg { from, deliver_at, stamp, msg }) => {
                PortEvent::Msg { from, deliver_at, stamp, msg }
            }
            Ok(Envelope::Shutdown) | Err(_) => PortEvent::Shutdown,
        }
    }

    fn recv_deadline(&mut self, deadline: Instant) -> PortEvent<M> {
        let wait = deadline.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(wait) {
            Ok(Envelope::Msg { from, deliver_at, stamp, msg }) => {
                PortEvent::Msg { from, deliver_at, stamp, msg }
            }
            Ok(Envelope::Shutdown) => PortEvent::Shutdown,
            Err(RecvTimeoutError::Timeout) => PortEvent::TimedOut,
            Err(RecvTimeoutError::Disconnected) => PortEvent::Shutdown,
        }
    }

    fn quota_done(&mut self) -> bool {
        if self.shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last finisher: release everyone.
            for s in &self.shared.senders {
                let _ = s.send(Envelope::Shutdown);
            }
            return true;
        }
        false
    }
}

/// Run `protos` under real threads until every active node has completed
/// its round quota; returns the collected metrics.
///
/// # Panics
/// On any safety violation (monitored exactly like the simulator).
pub fn run_threaded<A, W>(
    protos: Vec<A>,
    workloads: Vec<W>,
    m: usize,
    cfg: ThreadedConfig,
) -> RunResult
where
    A: Allocator + Send + 'static,
    W: Workload + 'static,
{
    let n = protos.len();
    assert_eq!(n, workloads.len());
    let active = cfg.active_nodes.unwrap_or(n);
    assert!(active >= 1 && active <= n);

    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = mpsc::channel::<Envelope<A::Msg>>();
        senders.push(tx);
        receivers.push(rx);
    }

    let mpsc_shared = Arc::new(MpscShared {
        senders,
        remaining: AtomicUsize::new(active),
        latency: cfg.latency,
    });
    let shared = Arc::new(RunShared::new(n, m));

    let algo = protos[0].name().to_string();
    let mut handles = Vec::with_capacity(n);
    for (i, ((proto, workload), rx)) in protos
        .into_iter()
        .zip(workloads)
        .zip(receivers)
        .enumerate()
    {
        let shared = Arc::clone(&shared);
        let port = MpscPort {
            me: i,
            rx,
            shared: Arc::clone(&mpsc_shared),
        };
        let node_cfg = NodeCfg {
            rounds: cfg.rounds,
            seed: cfg.seed,
            is_active: i < active,
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("mra-node-{i}"))
                .spawn(move || drive_node(i, n, proto, workload, port, &shared, node_cfg))
                .expect("spawn node thread"),
        );
    }
    for h in handles {
        h.join().expect("node thread panicked");
    }

    Arc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("thread leaked a Shared reference"))
        .into_result(&algo, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::FixedWorkload;
    use mra_baselines::{BouabdallahLaforest, Central, GrantPolicy};
    use mra_core::LassConfig;

    fn quick_workloads(n: usize, m: usize, size: usize) -> Vec<FixedWorkload> {
        (0..n)
            .map(|_| FixedWorkload {
                think: Time::from_micros(200),
                cs: Time::from_micros(300),
                m,
                size,
            })
            .collect()
    }

    fn quick_cfg(seed: u64) -> ThreadedConfig {
        ThreadedConfig {
            rounds: 6,
            latency: Time::from_micros(50),
            seed,
            active_nodes: None,
        }
    }

    #[test]
    fn lass_runs_on_real_threads() {
        let cfg = LassConfig::with_loan(4, 8);
        let res = run_threaded(cfg.build_nodes(), quick_workloads(4, 8, 2), 8, quick_cfg(1));
        assert_eq!(res.cs_completed, 24);
        assert_eq!(res.censored, 0);
        assert!(res.wait_stats().count == 24);
    }

    #[test]
    fn bouabdallah_laforest_runs_on_real_threads() {
        let res = run_threaded(
            BouabdallahLaforest::build_nodes(4, 6),
            quick_workloads(4, 6, 2),
            6,
            quick_cfg(2),
        );
        assert_eq!(res.cs_completed, 24);
    }

    #[test]
    fn central_coordinator_runs_on_real_threads() {
        let mut cfg = quick_cfg(3);
        cfg.active_nodes = Some(3);
        let res = run_threaded(
            Central::build_nodes(3, GrantPolicy::Conservative),
            quick_workloads(4, 6, 2),
            6,
            cfg,
        );
        assert_eq!(res.cs_completed, 18);
    }
}

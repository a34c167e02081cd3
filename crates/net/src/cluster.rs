//! Cluster harnesses: spawn protocol nodes over the TCP mesh and collect
//! the same [`RunResult`] metrics as the simulator.
//!
//! Two deployment shapes share all the machinery:
//!
//! * [`run_tcp_cluster`] — N nodes as threads of one process, connected
//!   through real loopback sockets.  Safety is checked by the shared
//!   [`SafetyMonitor`](mra_protocol::testkit::SafetyMonitor) exactly like
//!   the other substrates, which makes this the integration point for
//!   wire-level testing: same assertions, real TCP underneath.
//! * [`run_solo_node`] — one node of a multi-process (or multi-host)
//!   cluster, addressed through an explicit [`PeerDirectory`].  Each
//!   process reports its own local metrics; cross-process safety is
//!   enforced by the protocols themselves (the monitor can only see the
//!   local node).

use crate::reactor::connect_reactor_mesh;
use crate::runtime::{drive_node, NodeCfg, RunShared};
use crate::sys;
use crate::transport::{MeshConfig, NetBackend, PeerDirectory, PortCtrl};
use mra_obs::NetCounters;
use mra_protocol::faults::FaultPlan;
use mra_protocol::reliable::Reliability;
use mra_protocol::{Allocator, WireCodec};
use mra_sim::{lock, RunResult, Workload};
use mra_types::{NodeId, Time};
use std::io;
use std::net::TcpListener;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of a loopback TCP cluster run.
#[derive(Clone, Debug)]
pub struct TcpClusterConfig {
    /// Request/CS cycles per active node.
    pub rounds: usize,
    /// Master seed for workload randomness.
    pub seed: u64,
    /// Artificial latency added on top of the real wire (`Time::ZERO`
    /// measures the raw transport).
    pub extra_latency: Time,
    /// Only nodes `0..active` issue requests (`None` = all).
    pub active_nodes: Option<usize>,
    /// Frame-level fault shim (see [`MeshConfig::faults`]).  A *lossy* plan
    /// on a quota-based cluster run with `reliability` off can stall it
    /// forever — lost tokens are never retransmitted; pair lossy plans
    /// with [`TcpClusterConfig::reliability`] (drops are then recovered)
    /// or keep them for bounded transport experiments.
    pub faults: Option<FaultPlan>,
    /// Reliable-delivery session layer (see [`MeshConfig::reliability`]):
    /// sequence numbers, cumulative acks and timer-driven retransmission
    /// around the frame codec, restoring exactly-once FIFO delivery under
    /// a lossy `faults` shim.
    pub reliability: Option<Reliability>,
    /// Vestige, read by nothing (see [`NetBackend`]).
    pub backend: NetBackend,
}

impl TcpClusterConfig {
    /// `rounds` cycles on every node, no artificial latency, no faults.
    pub fn new(rounds: usize, seed: u64) -> Self {
        TcpClusterConfig {
            rounds,
            seed,
            extra_latency: Time::ZERO,
            active_nodes: None,
            faults: None,
            reliability: None,
            backend: NetBackend::Reactor,
        }
    }
}

/// File descriptors an `n`-node loopback cluster needs inside one
/// process, with headroom: both endpoints of the `n·(n-1)/2` connections
/// live here (`n²` covers them), plus a listener and a poller fd per
/// node (`2n`).
fn fd_budget(n: usize) -> u64 {
    (n * n + 2 * n + 64) as u64
}

/// Run `protos` as an N-node cluster over loopback TCP until every active
/// node has completed its round quota; returns the collected metrics.
///
/// Same workload driver, safety monitoring and metrics as the simulator,
/// on wall-clock time with real sockets and the wire codec in between.
///
/// # Panics
/// On any safety violation, and on transport setup failure (a loopback
/// bind/connect failing means the host is misconfigured).
pub fn run_tcp_cluster<A, W>(
    protos: Vec<A>,
    workloads: Vec<W>,
    m: usize,
    cfg: TcpClusterConfig,
) -> RunResult
where
    A: Allocator + Send + 'static,
    A::Msg: WireCodec,
    W: Workload + 'static,
{
    let n = protos.len();
    assert_eq!(n, workloads.len());
    assert!(cfg.rounds >= 1, "a quota-based run needs at least one round");
    let active = cfg.active_nodes.unwrap_or(n);
    assert!(active >= 1 && active <= n);

    // Bind every listener up front so the concurrent connect phase cannot
    // race a missing acceptor (see `connect_reactor_mesh`).
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"))
        .collect();
    let dir = PeerDirectory::new(
        listeners
            .iter()
            .map(|l| l.local_addr().expect("listener addr"))
            .collect(),
    );

    // Big meshes exceed the default soft RLIMIT_NOFILE long before they
    // exceed the hard one; bump it best-effort (256 nodes ≈ 66 k fds).
    let _ = sys::raise_nofile_limit(fd_budget(n));

    let shared = Arc::new(RunShared::new(n, m));
    let remaining = Arc::new(AtomicUsize::new(active));
    // One counters slot per node: each port leaves its transport tallies
    // there when it drops and the harness folds them into the run's
    // observability report.
    let slots: Vec<Arc<Mutex<NetCounters>>> = (0..n)
        .map(|_| Arc::new(Mutex::new(NetCounters::default())))
        .collect();
    let mesh = MeshConfig {
        extra_latency: cfg.extra_latency,
        connect_timeout: Duration::from_secs(10),
        faults: cfg.faults.clone(),
        reliability: cfg.reliability,
        counters_slot: None,
    };

    let algo = protos[0].name().to_string();
    let mut handles = Vec::with_capacity(n);
    for (i, ((proto, workload), listener)) in protos
        .into_iter()
        .zip(workloads)
        .zip(listeners)
        .enumerate()
    {
        let shared = Arc::clone(&shared);
        let dir = dir.clone();
        let remaining = Arc::clone(&remaining);
        let mesh = MeshConfig {
            counters_slot: Some(Arc::clone(&slots[i])),
            ..mesh.clone()
        };
        let node_cfg = NodeCfg {
            rounds: cfg.rounds,
            seed: cfg.seed,
            is_active: i < active,
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("mra-tcp-node-{i}"))
                .spawn(move || {
                    let port =
                        connect_reactor_mesh(i, listener, &dir, PortCtrl::Cluster(remaining), mesh)
                            .expect("TCP mesh setup");
                    drive_node(i, n, proto, workload, port, &shared, node_cfg);
                })
                .expect("spawn node thread"),
        );
    }
    for h in handles {
        h.join().expect("node thread panicked");
    }

    let mut res = Arc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("thread leaked a RunShared reference"))
        .into_result(&algo, n);
    for slot in &slots {
        res.obs.net.merge(&lock(slot));
    }
    res
}

/// Configuration of one standalone node in a multi-process cluster.
#[derive(Clone, Debug)]
pub struct SoloConfig {
    /// Request/CS cycles per active node.
    pub rounds: usize,
    /// Master seed (must match across all processes of the cluster).
    pub seed: u64,
    /// Artificial latency on top of the real wire.
    pub extra_latency: Time,
    /// Number of request-issuing nodes, `0..active`.  Node 0 must be
    /// active: it coordinates the distributed shutdown.
    pub active: usize,
    /// How long to keep retrying connections while peers start up.
    pub connect_timeout: Duration,
    /// Frame-level fault shim for this node's inbound links (see
    /// [`MeshConfig::faults`]); every process must install the same plan
    /// for the cluster-wide fault pattern to be coherent.
    pub faults: Option<FaultPlan>,
    /// Reliable-delivery session layer (see [`MeshConfig::reliability`]);
    /// every process must enable it for the session framing to be
    /// coherent (`MRA_RELIABLE=1` across the cluster).
    pub reliability: Option<Reliability>,
}

/// Run node `me` of a multi-process cluster on the current thread (it
/// spawns none), binding `dir.addr(me)` and meshing with every peer in
/// `dir`.
///
/// Returns this node's local metrics once the cluster-wide shutdown
/// (coordinated through `Done` frames at node 0) releases it.
pub fn run_solo_node<A, W>(
    me: NodeId,
    proto: A,
    workload: W,
    m: usize,
    dir: &PeerDirectory,
    cfg: SoloConfig,
) -> io::Result<RunResult>
where
    A: Allocator,
    A::Msg: WireCodec,
    W: Workload,
{
    let n = dir.len();
    assert!(me < n, "node id {me} outside directory 0..{n}");
    assert!(cfg.rounds >= 1, "a quota-based run needs at least one round");
    assert!(cfg.active >= 1 && cfg.active <= n);

    let listener = TcpListener::bind(dir.addr(me))?;
    let _ = sys::raise_nofile_limit((4 * n + 64) as u64);
    let shared = RunShared::new(n, m);
    let algo = proto.name().to_string();
    let slot = Arc::new(Mutex::new(NetCounters::default()));
    let node_cfg = NodeCfg {
        rounds: cfg.rounds,
        seed: cfg.seed,
        is_active: me < cfg.active,
    };
    let port = connect_reactor_mesh(
        me,
        listener,
        dir,
        PortCtrl::Solo {
            active: cfg.active,
            done_seen: 0,
            self_done: false,
        },
        MeshConfig {
            extra_latency: cfg.extra_latency,
            connect_timeout: cfg.connect_timeout,
            faults: cfg.faults.clone(),
            reliability: cfg.reliability,
            counters_slot: Some(Arc::clone(&slot)),
        },
    )?;
    drive_node(me, n, proto, workload, port, &shared, node_cfg);

    let mut res = shared.into_result(&algo, n);
    res.obs.net.merge(&lock(&slot));
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_core::LassConfig;
    use mra_sim::FixedWorkload;

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

    #[test]
    fn lass_runs_over_loopback_tcp() {
        let cfg = LassConfig::with_loan(4, 8);
        let res = run_tcp_cluster(
            cfg.build_nodes(),
            quick_workloads(4, 8, 2),
            8,
            TcpClusterConfig::new(5, 11),
        );
        assert_eq!(res.cs_completed, 20);
        assert_eq!(res.censored, 0);
        assert_eq!(res.wait_stats().count, 20);
        assert!(res.msgs_total > 0);
    }

    #[test]
    fn dup_only_fault_shim_costs_no_critical_section() {
        // A non-lossy plan is safe on a quota run: every duplicate verdict
        // is absorbed at the receiver, the cluster completes its quota and
        // the holder table stays conserved (asserted inside the harness).
        let cfg = LassConfig::with_loan(4, 8);
        let res = run_tcp_cluster(
            cfg.build_nodes(),
            quick_workloads(4, 8, 2),
            8,
            TcpClusterConfig {
                faults: Some(FaultPlan::new(77).dup_rate(0.5)),
                ..TcpClusterConfig::new(5, 11)
            },
        );
        assert_eq!(res.cs_completed, 20);
        assert_eq!(res.censored, 0);
    }

    #[test]
    fn lossy_shim_with_reliability_completes_the_quota() {
        // The model-level fix of PR 5 on the wire: a 20% drop shim used to
        // be forbidden on quota runs (lost tokens stall the cluster
        // forever); with the session layer every drop is retransmitted and
        // the run completes with zero safety violations and a conserved
        // holder table (asserted inside the harness).
        let cfg = LassConfig::with_loan(4, 8);
        let res = run_tcp_cluster(
            cfg.build_nodes(),
            quick_workloads(4, 8, 2),
            8,
            TcpClusterConfig {
                faults: Some(FaultPlan::new(0xFA17).drop_rate(0.2).dup_rate(0.1)),
                reliability: Some(Reliability::with_rto(Time::from_millis(2))),
                ..TcpClusterConfig::new(5, 11)
            },
        );
        assert_eq!(res.cs_completed, 20);
        assert_eq!(res.censored, 0);
    }

    #[test]
    fn extra_latency_slows_the_wire() {
        let mk = || LassConfig::with_loan(3, 4).build_nodes();
        let fast = run_tcp_cluster(
            mk(),
            quick_workloads(3, 4, 2),
            4,
            TcpClusterConfig::new(4, 5),
        );
        let slow = run_tcp_cluster(
            mk(),
            quick_workloads(3, 4, 2),
            4,
            TcpClusterConfig {
                extra_latency: Time::from_millis(2),
                ..TcpClusterConfig::new(4, 5)
            },
        );
        assert_eq!(fast.cs_completed, slow.cs_completed);
        // With 2 ms per hop the contended waits must be visibly longer.
        assert!(
            slow.wait_stats().mean_ms >= fast.wait_stats().mean_ms,
            "latency emulation had no effect: fast {} vs slow {}",
            fast.wait_stats().mean_ms,
            slow.wait_stats().mean_ms
        );
    }

    /// Find `n` consecutive free ports below the kernel's ephemeral range
    /// (Linux auto-assigns from 32768 up, so nothing will grab these
    /// between the probe and `run_solo_node`'s own bind).  The base is
    /// salted with the pid so parallel test processes do not collide.
    fn probe_port_block(n: u16) -> u16 {
        let salt = (std::process::id() % 997) as u16 * 7;
        for base in (18000 + salt..30000).step_by(n as usize) {
            let probes: Vec<_> = (0..n)
                .map(|i| TcpListener::bind(("127.0.0.1", base + i)))
                .collect();
            if probes.iter().all(|p| p.is_ok()) {
                return base; // probes drop here, freeing the block
            }
        }
        panic!("no free port block for the solo cluster test");
    }

    #[test]
    fn solo_processes_complete_a_cluster() {
        // Three "processes" (threads running the solo path end to end,
        // each with its own listener, mesh and local metrics).
        let n = 3;
        let base = probe_port_block(n as u16);
        let dir = PeerDirectory::new(
            (0..n as u16)
                .map(|i| format!("127.0.0.1:{}", base + i).parse().unwrap())
                .collect(),
        );
        let mut handles = Vec::new();
        for i in 0..n {
            let dir = dir.clone();
            handles.push(std::thread::spawn(move || {
                let cfg = LassConfig::with_loan(n, 6);
                let workload = FixedWorkload {
                    think: Time::from_micros(200),
                    cs: Time::from_micros(300),
                    m: 6,
                    size: 2,
                };
                run_solo_node(
                    i,
                    cfg.build_nodes().remove(i),
                    workload,
                    6,
                    &dir,
                    SoloConfig {
                        rounds: 4,
                        seed: 3,
                        extra_latency: Time::ZERO,
                        active: n,
                        connect_timeout: Duration::from_secs(10),
                        faults: None,
                        reliability: None,
                    },
                )
                .expect("solo node run")
            }));
        }
        let results: Vec<RunResult> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, res) in results.iter().enumerate() {
            assert_eq!(res.cs_completed, 4, "node {i}");
            assert_eq!(res.censored, 0, "node {i}");
        }
    }
}

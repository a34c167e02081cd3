//! The two harnesses — a loopback cluster in one process and one node of
//! a multi-process cluster — and what they share: the peer directory and
//! the run configuration.
//!
//! Both are callers of one private runner, `run_node`: bind a listener,
//! mesh with every peer in the [`PeerDirectory`], drive the node loop
//! until the shutdown reaches it, hand back the transport counters.
//!
//! * [`run_tcp_cluster`] — N nodes as scoped threads of one process,
//!   sharing one run state, so the shared
//!   [`SafetyMonitor`](mra_protocol::testkit::SafetyMonitor) sees every
//!   node exactly like on the other substrates: same assertions, real TCP
//!   underneath.
//! * [`run_solo_node`] — one node per process (or host).  Each process
//!   reports its own local metrics; cross-process safety is enforced by
//!   the protocols themselves (the monitor can only see the local node).
//!
//! Shutdown is one protocol in both shapes: every active node but node 0
//! reports `TAG_DONE` to node 0 when its quota is done; node 0 counts
//! those reports and its own quota, then broadcasts `TAG_SHUTDOWN`.

use crate::reactor::ReactorPort;
use crate::runtime::{drive_node, RunShared};
use crate::sys;
use mra_obs::NetCounters;
use mra_protocol::faults::FaultPlan;
use mra_protocol::reliable::Reliability;
use mra_protocol::{Allocator, WireCodec};
use mra_sim::{RunResult, Workload};
use mra_types::{NodeId, Time};
use std::io;
use std::net::{SocketAddr, TcpListener};

/// The cluster map: `NodeId → SocketAddr` for every node.
#[derive(Clone, Debug)]
pub struct PeerDirectory {
    addrs: Vec<SocketAddr>,
}

impl PeerDirectory {
    /// Directory over explicit addresses (index = node id).
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        assert!(!addrs.is_empty(), "empty peer directory");
        PeerDirectory { addrs }
    }

    /// Parse a comma-separated `host:port,host:port,…` list (the
    /// `mra-node --peers` format).  Blank entries — trailing commas,
    /// doubled commas, stray whitespace — are tolerated and skipped;
    /// a malformed entry is reported with its position in the list.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut addrs = Vec::new();
        for (idx, entry) in spec.split(',').enumerate() {
            let entry = entry.trim();
            if entry.is_empty() {
                continue; // tolerate `a,b,` and `a,,b`
            }
            let addr = entry.parse::<SocketAddr>().map_err(|e| {
                format!("peer entry #{idx} ({entry:?}): {e}")
            })?;
            addrs.push(addr);
        }
        if addrs.is_empty() {
            return Err("empty peer list".into());
        }
        Ok(PeerDirectory::new(addrs))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True if the directory is empty (never: construction forbids it;
    /// present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Address of node `id`.
    pub fn addr(&self, id: NodeId) -> SocketAddr {
        self.addrs[id]
    }
}

/// Vestige kept only because `benchmark/src/{serve,probes}.rs` (frozen
/// outside `benchmark` PRs) name it; the next such PR removes it and
/// `TcpClusterConfig::backend`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetBackend {
    /// The epoll reactor, the only TCP transport.
    Reactor,
}

/// Configuration of a TCP run, loopback cluster or solo node alike.  A
/// multi-process cluster must start every process with the same values.
#[derive(Clone, Debug)]
pub struct TcpClusterConfig {
    /// Request/CS cycles per active node.
    pub rounds: usize,
    /// Master seed for workload randomness.
    pub seed: u64,
    /// Artificial latency added on top of the real wire: the receiving
    /// port holds each decoded message this long before handing it to the
    /// node loop, and keeps acking, retransmitting and flushing while it
    /// holds.  `Time::ZERO` measures the raw transport.  Together with
    /// `faults` this forms the frame-level drop/delay shim.
    pub extra_latency: Time,
    /// Only nodes `0..active` issue requests (`None` = all).  Node 0 is
    /// always active: it coordinates the shutdown.
    pub active_nodes: Option<usize>,
    /// Frame-level fault shim: each inbound link runs the plan's
    /// deterministic per-link drop filter (`k`-th frame on a link sees the
    /// same verdict as on the simulated substrates).  What TCP cannot
    /// reproduce: duplicate frames (the kernel's sequence numbers already
    /// absorb them, so dup verdicts are ignored here — unlike the
    /// simulated substrates nothing aggregates per-link counters into
    /// `RunResult::faults`) and time-based faults (partitions/outages name
    /// *simulated* instants; a real wire has no such clock).  See
    /// DESIGN.md §8.
    ///
    /// **Beware with quota-based runs and reliability off:** protocol
    /// messages lost to a drop filter are gone for good — token-based
    /// algorithms may then never finish their quota.  Enable
    /// [`TcpClusterConfig::reliability`] to recover the drops, or keep
    /// lossy plans for explicitly bounded transport experiments.
    pub faults: Option<FaultPlan>,
    /// Reliable-delivery session layer (`mra_protocol::reliable`): when
    /// set, every protocol message travels as a sequenced
    /// `TAG_RDATA` frame with a piggybacked cumulative ack, receivers ack
    /// (standalone `TAG_RACK` frames) and dedup, and the port
    /// retransmits unacked frames on a capped-backoff timer — so
    /// [`TcpClusterConfig::faults`] drops are *recovered* instead of
    /// absorbed into lost liveness.  `MRA_RELIABLE` / `MRA_RTO_MS` feed
    /// this in the `mra-node` binary.
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

    /// Number of request-issuing nodes, `0..active`, of an `n`-node run.
    pub(crate) fn active(&self, n: usize) -> usize {
        self.active_nodes.unwrap_or(n)
    }

    /// Reject a configuration no `n`-node quota run can finish.
    fn check(&self, n: usize) {
        assert!(self.rounds >= 1, "a quota-based run needs at least one round");
        let active = self.active(n);
        assert!((1..=n).contains(&active), "active nodes {active} outside 1..={n}");
    }
}

/// Run node `me` to the cluster-wide shutdown: mesh over `listener` with
/// every peer in `dir`, drive the node loop, return the transport
/// counters.  The two harnesses differ only in how many of these run in
/// one process.
fn run_node<A, W>(
    me: NodeId,
    proto: A,
    workload: W,
    listener: TcpListener,
    dir: &PeerDirectory,
    cfg: &TcpClusterConfig,
    shared: &RunShared,
) -> io::Result<NetCounters>
where
    A: Allocator,
    A::Msg: WireCodec,
    W: Workload,
{
    let port = ReactorPort::connect(me, listener, dir, cfg)?;
    Ok(drive_node(me, dir.len(), proto, workload, port, shared, cfg))
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
/// On any safety violation, on a node thread's panic (its peers leave on
/// the closed links, then the run fails), and on transport setup failure
/// (a loopback bind/connect failing means the host is misconfigured).
pub fn run_tcp_cluster<A, W>(
    protos: Vec<A>,
    workloads: Vec<W>,
    m: usize,
    cfg: TcpClusterConfig,
) -> RunResult
where
    A: Allocator + Send,
    A::Msg: WireCodec,
    W: Workload,
{
    let n = protos.len();
    assert_eq!(n, workloads.len());
    cfg.check(n);

    // Bind every listener up front so the concurrent connect phase cannot
    // race a missing acceptor (see `ReactorPort::connect`).
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

    let shared = RunShared::new(n, m);
    let algo = protos[0].name().to_string();
    let counters: Vec<NetCounters> = std::thread::scope(|s| {
        let (dir, cfg, shared) = (&dir, &cfg, &shared);
        let nodes = protos.into_iter().zip(workloads).zip(listeners).enumerate();
        let handles: Vec<_> = nodes
            .map(|(i, ((proto, workload), listener))| {
                std::thread::Builder::new()
                    .name(format!("mra-tcp-node-{i}"))
                    .spawn_scoped(s, move || {
                        run_node(i, proto, workload, listener, dir, cfg, shared)
                            .expect("TCP mesh setup")
                    })
                    .expect("spawn node thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    });

    let mut res = shared.into_result(&algo, n);
    for c in &counters {
        res.obs.net.merge(c);
    }
    res
}

/// Run node `me` of a multi-process cluster on the current thread (it
/// spawns none), binding `dir.addr(me)` and meshing with every peer in
/// `dir`.  Every process must pass the same `cfg`.
///
/// Returns this node's local metrics once the cluster-wide shutdown
/// (coordinated through `Done` frames at node 0) releases it.
pub fn run_solo_node<A, W>(
    me: NodeId,
    proto: A,
    workload: W,
    m: usize,
    dir: &PeerDirectory,
    cfg: TcpClusterConfig,
) -> io::Result<RunResult>
where
    A: Allocator,
    A::Msg: WireCodec,
    W: Workload,
{
    let n = dir.len();
    assert!(me < n, "node id {me} outside directory 0..{n}");
    cfg.check(n);

    let listener = TcpListener::bind(dir.addr(me))?;
    let _ = sys::raise_nofile_limit((4 * n + 64) as u64);
    let shared = RunShared::new(n, m);
    let algo = proto.name().to_string();
    let counters = run_node(me, proto, workload, listener, dir, &cfg, &shared)?;

    let mut res = shared.into_result(&algo, n);
    res.obs.net.merge(&counters);
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
                let proto = cfg.build_nodes().remove(i);
                run_solo_node(i, proto, workload, 6, &dir, TcpClusterConfig::new(4, 3))
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

    #[test]
    fn directory_parse() {
        let d = PeerDirectory::parse("127.0.0.1:9000, 127.0.0.1:9001").unwrap();
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.addr(1).port(), 9001);
        assert!(PeerDirectory::parse("not-an-addr").is_err());
        assert!(PeerDirectory::parse("").is_err());
    }

    #[test]
    fn directory_parse_tolerates_trailing_commas_and_blank_entries() {
        // Trailing comma (the classic shell-generated list), doubled
        // commas and stray whitespace all parse to the same directory.
        for spec in [
            "127.0.0.1:9000,127.0.0.1:9001,",
            "127.0.0.1:9000,,127.0.0.1:9001",
            " 127.0.0.1:9000 , 127.0.0.1:9001 , ",
        ] {
            let d = PeerDirectory::parse(spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(d.len(), 2, "{spec:?}");
            assert_eq!(d.addr(0).port(), 9000);
            assert_eq!(d.addr(1).port(), 9001);
        }
        // A list of only separators is still empty.
        assert_eq!(
            PeerDirectory::parse(", ,").unwrap_err(),
            "empty peer list"
        );
    }

    #[test]
    fn directory_parse_reports_the_offending_entry_with_its_index() {
        let err = PeerDirectory::parse("127.0.0.1:9000,bogus:addr,127.0.0.1:9001")
            .expect_err("malformed entry must fail");
        assert!(err.contains("#1"), "missing index: {err}");
        assert!(err.contains("bogus:addr"), "missing entry text: {err}");
        let err = PeerDirectory::parse("nope").expect_err("must fail");
        assert!(err.contains("#0"), "{err}");
    }
}

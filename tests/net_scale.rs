//! TCP transport scale smoke: big loopback clusters, one reactor thread
//! per node.
//!
//! * [`all_algorithms_complete_a_64_node_reactor_cluster`] runs in the
//!   regular suite: every protocol in the repertoire to quota at 64
//!   nodes — ~2 000 real TCP connections in one process, one reactor
//!   thread per node.
//! * [`lass_and_bl_complete_a_256_node_lossy_reactor_cluster`] is
//!   `#[ignore]`-gated: 256 nodes need ~66 k file descriptors in one
//!   process (the harness raises `RLIMIT_NOFILE`, but containers often
//!   cap the *hard* limit below that) and real CPU.  CI runs it in
//!   release with the ulimit raised; locally:
//!   `cargo test --release --test net_scale -- --ignored`
//!   (`MRA_NET_SCALE_N` overrides the node count if 256 exceeds the
//!   machine's hard fd limit).
//!
//! Safety is asserted the usual way — the shared `SafetyMonitor` panics
//! on violation and the harness checks post-run conservation — so exact
//! quota completion is the test.

use mra::baselines::{BouabdallahLaforest, Central, GrantPolicy, Incremental, Maddi};
use mra::core::LassConfig;
use mra::net::{run_tcp_cluster, TcpClusterConfig};
use mra::protocol::faults::FaultPlan;
use mra::protocol::reliable::Reliability;
use mra::protocol::{Allocator, WireCodec};
use mra::sim::FixedWorkload;
use mra::types::Time;

/// Per-node round quota; `MRA_FAST` (the CI knob) shrinks it.
fn rounds() -> usize {
    let fast = mra::types::env_flag("MRA_FAST");
    if fast {
        2
    } else {
        4
    }
}

fn workloads(count: usize, m: usize) -> Vec<FixedWorkload> {
    (0..count)
        .map(|_| FixedWorkload {
            think: Time::from_micros(100),
            cs: Time::from_micros(200),
            m,
            size: 2,
        })
        .collect()
}

/// Run `protos` to quota over loopback TCP and assert exact completion.
/// `active` may be smaller than `protos.len()` (central's passive
/// coordinator).
fn quota_run<A>(
    protos: Vec<A>,
    active: usize,
    m: usize,
    rounds: usize,
    cfg: TcpClusterConfig,
) -> mra::sim::RunResult
where
    A: Allocator + Send + 'static,
    A::Msg: WireCodec,
{
    let n = protos.len();
    let res = run_tcp_cluster(protos, workloads(n, m), m, cfg);
    assert_eq!(res.cs_completed, (active * rounds) as u64, "{}", res.algo);
    assert_eq!(res.censored, 0, "{}", res.algo);
    res
}

#[test]
fn all_algorithms_complete_a_64_node_reactor_cluster() {
    const N: usize = 64;
    const M: usize = 16;
    let rounds = rounds();
    let cfg = |seed: u64, active: Option<usize>| TcpClusterConfig {
        active_nodes: active,
        ..TcpClusterConfig::new(rounds, seed)
    };
    quota_run(
        LassConfig::with_loan(N, M).build_nodes(),
        N,
        M,
        rounds,
        cfg(0x64_01, None),
    );
    quota_run(
        LassConfig::without_loan(N, M).build_nodes(),
        N,
        M,
        rounds,
        cfg(0x64_02, None),
    );
    quota_run(
        BouabdallahLaforest::build_nodes(N, M),
        N,
        M,
        rounds,
        cfg(0x64_03, None),
    );
    quota_run(
        Incremental::build_nodes(N, M),
        N,
        M,
        rounds,
        cfg(0x64_04, None),
    );
    quota_run(Maddi::build_nodes(N, M), N, M, rounds, cfg(0x64_05, None));
    // Central appends one passive coordinator: N+1 nodes, N active.
    quota_run(
        Central::build_nodes(N, GrantPolicy::Conservative),
        N,
        M,
        rounds,
        cfg(0x64_06, Some(N)),
    );
}

/// The tentpole's scale acceptance: LASS and Bouabdallah–Laforest to
/// quota at 256 nodes on the reactor path, with the reliable session
/// layer recovering a 5% frame-drop shim.  `#[ignore]` because one
/// process needs ~66 k fds — see the module docs.
#[test]
#[ignore = "needs ~66k fds and release-build CPU; run explicitly / in CI"]
fn lass_and_bl_complete_a_256_node_lossy_reactor_cluster() {
    let n: usize = std::env::var("MRA_NET_SCALE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    const M: usize = 16;
    let rounds = rounds();
    let cfg = |seed: u64| TcpClusterConfig {
        faults: Some(FaultPlan::new(0xFA17).drop_rate(0.05)),
        reliability: Some(Reliability::with_rto(Time::from_millis(10))),
        ..TcpClusterConfig::new(rounds, seed)
    };
    let lass = quota_run(
        LassConfig::with_loan(n, M).build_nodes(),
        n,
        M,
        rounds,
        cfg(0x0256_0001),
    );
    // The wire saw real loss and the sessions recovered it.
    assert!(lass.obs.net.retransmit_frames > 0, "shim never dropped a frame");
    quota_run(BouabdallahLaforest::build_nodes(n, M), n, M, rounds, cfg(0x0256_0002));
}

//! Wire-level integration: an 8-node loopback cluster over **real TCP**
//! completes its round quota with zero safety violations, for LASS and for
//! a baseline.  A safety violation panics inside the shared
//! `SafetyMonitor` (same checker as every other substrate), so plain
//! completion is the assertion.
//!
//! Honors `MRA_FAST=1` by shrinking the per-node round quota.

use mra::baselines::BouabdallahLaforest;
use mra::core::LassConfig;
use mra::net::{run_tcp_cluster, TcpClusterConfig};
use mra::protocol::faults::FaultPlan;
use mra::protocol::reliable::Reliability;
use mra::sim::FixedWorkload;
use mra::types::Time;

const N: usize = 8;
const M: usize = 16;

/// Per-node round quota: `MRA_FAST` (the CI knob that shrinks every
/// workload in the workspace) quarters it.
fn rounds() -> usize {
    let fast = mra::types::env_flag("MRA_FAST");
    if fast {
        3
    } else {
        12
    }
}

fn workloads() -> Vec<FixedWorkload> {
    workloads_with(Time::from_micros(300), Time::from_micros(500))
}

fn workloads_with(think: Time, cs: Time) -> Vec<FixedWorkload> {
    (0..N)
        .map(|_| FixedWorkload {
            think,
            cs,
            m: M,
            size: 3,
        })
        .collect()
}

#[test]
fn lass_8_node_cluster_over_tcp() {
    let rounds = rounds();
    let cfg = LassConfig::with_loan(N, M);
    let res = run_tcp_cluster(
        cfg.build_nodes(),
        workloads(),
        M,
        TcpClusterConfig::new(rounds, 0xC0FF_EE00),
    );
    assert_eq!(res.algo, "lass+loan");
    assert_eq!(res.cs_completed, (N * rounds) as u64);
    assert_eq!(res.censored, 0);
    assert_eq!(res.wait_stats().count, N * rounds);
    // Real traffic flowed: LASS needs counters and tokens for remote sets.
    assert!(res.msgs_total > 0, "no messages crossed the wire");
}

#[test]
fn bouabdallah_laforest_8_node_cluster_over_tcp() {
    let rounds = rounds();
    let res = run_tcp_cluster(
        BouabdallahLaforest::build_nodes(N, M),
        workloads(),
        M,
        TcpClusterConfig::new(rounds, 0xBEEF),
    );
    assert_eq!(res.cs_completed, (N * rounds) as u64);
    assert_eq!(res.censored, 0);
    // The control token alone costs messages every cycle.
    assert!(res.msgs_per_cs() >= 1.0);
}

#[test]
fn lass_8_node_cluster_on_the_reactor_backend() {
    // Near-zero think/CS times: nodes re-request as fast as the transport
    // carries tokens, the loaded regime the coalescing claims below are
    // about (at idle rates a frame costs about one syscall, and the one
    // handshake write per connection is not amortized).
    let rounds = if mra::types::env_flag("MRA_FAST") { 20 } else { 80 };
    let res = run_tcp_cluster(
        LassConfig::with_loan(N, M).build_nodes(),
        workloads_with(Time::from_micros(5), Time::from_micros(10)),
        M,
        TcpClusterConfig::new(rounds, 0xC0FF_EE01),
    );
    assert_eq!(res.cs_completed, (N * rounds) as u64);
    assert_eq!(res.censored, 0);
    // The harness folds every node's transport counters into the run
    // report; any quota run moves frames and costs write syscalls.
    let net = &res.obs.net;
    assert!(net.frames_out > 0, "no outbound frames tallied");
    assert!(net.frames_in > 0, "no inbound frames tallied");
    assert!(net.write_calls > 0, "no write syscalls tallied");
    assert!(net.read_calls > 0, "no read syscalls tallied");
    // Syscall counts, unlike wall or CPU time, do not depend on how fast
    // the host is: the reactor coalesces, so at least one frame leaves per
    // write(2), and the run stays under 1.5 syscalls per frame (one write
    // plus a header and a payload read per frame — what
    // thread-per-connection I/O costs).
    let frames_per_write = net.frames_per_write().expect("writes were tallied");
    let syscalls_per_frame = net.syscalls_per_frame().expect("frames were tallied");
    eprintln!(
        "8-node reactor: {frames_per_write:.3} frames/write, \
         {syscalls_per_frame:.3} syscalls/frame"
    );
    assert!(frames_per_write >= 1.0, "writes not coalesced: {frames_per_write}");
    assert!(
        syscalls_per_frame < 1.5,
        "syscalls/frame at the blocking floor: {syscalls_per_frame}"
    );
}

#[test]
fn reactor_backend_recovers_a_lossy_wire_with_the_session_layer() {
    // Reliability + a 10% drop shim: the session layer runs *inside* the
    // reactor (RTOs on its timer wheel, acks coalesced into the next
    // flush), so the exact quota under loss is the end-to-end proof that
    // batching broke no session invariant.
    let rounds = rounds();
    let cfg = LassConfig::with_loan(N, M);
    let res = run_tcp_cluster(
        cfg.build_nodes(),
        workloads(),
        M,
        TcpClusterConfig {
            faults: Some(FaultPlan::new(0xFA17).drop_rate(0.1).dup_rate(0.05)),
            reliability: Some(Reliability::with_rto(Time::from_millis(2))),
            ..TcpClusterConfig::new(rounds, 0xC0FF_EE02)
        },
    );
    assert_eq!(res.cs_completed, (N * rounds) as u64);
    assert_eq!(res.censored, 0);
}

#[test]
fn lass_handles_emulated_wan_latency_over_tcp() {
    // A short run with 1 ms of artificial one-way latency stacked on the
    // loopback wire: still exact quota, still violation-free.
    let cfg = LassConfig::with_loan(4, 8);
    let res = run_tcp_cluster(
        cfg.build_nodes(),
        (0..4)
            .map(|_| FixedWorkload {
                think: Time::from_micros(200),
                cs: Time::from_micros(400),
                m: 8,
                size: 2,
            })
            .collect(),
        8,
        TcpClusterConfig {
            extra_latency: Time::from_millis(1),
            ..TcpClusterConfig::new(3, 42)
        },
    );
    assert_eq!(res.cs_completed, 12);
    assert_eq!(res.censored, 0);
}

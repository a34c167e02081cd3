//! Run the same LASS workload on the two real-time substrates — the mpsc
//! threaded runtime and the TCP loopback cluster — and compare their
//! metrics side by side.  This is the paper's deployment story in one
//! screen: identical protocol state machines, identical workload driver,
//! identical safety monitoring; only the bytes move differently.
//!
//! ```text
//! cargo run --release --example tcp_cluster
//! ```

use mra::core::LassConfig;
use mra::net::{run_tcp_cluster, TcpClusterConfig};
use mra::sim::{run_threaded, FixedWorkload, RunResult, ThreadedConfig};
use mra::types::Time;

const N: usize = 4;
const M: usize = 12;
const SIZE: usize = 3;

fn workloads() -> Vec<FixedWorkload> {
    (0..N)
        .map(|_| FixedWorkload {
            think: Time::from_micros(300),
            cs: Time::from_micros(500),
            m: M,
            size: SIZE,
        })
        .collect()
}

fn report(label: &str, res: &RunResult) {
    let w = res.wait_stats();
    println!(
        "{label:<18} {:>4} CS   wait mean {:7.3} ms (p95 {:7.3})   {:5.1} msgs/CS   weight {}",
        res.cs_completed,
        w.mean_ms,
        w.p95_ms,
        res.msgs_per_cs(),
        res.msg_weight,
    );
}

fn main() {
    let fast = mra::types::env_flag("MRA_FAST");
    let rounds = if fast { 4 } else { 12 };
    let seed = 7;

    println!(
        "LASS (with loan), {N} nodes x {M} resources, {SIZE} per request, \
         {rounds} rounds per node\n"
    );

    // Substrate 3: OS threads + mpsc channels, 50 us emulated latency.
    let mpsc_res = run_threaded(
        LassConfig::with_loan(N, M).build_nodes(),
        workloads(),
        M,
        ThreadedConfig {
            rounds,
            latency: Time::from_micros(50),
            seed,
            active_nodes: None,
        },
    );
    report("mpsc channels", &mpsc_res);

    // Substrate 4: the same protocol over real loopback TCP sockets, raw.
    let tcp_res = run_tcp_cluster(
        LassConfig::with_loan(N, M).build_nodes(),
        workloads(),
        M,
        TcpClusterConfig::new(rounds, seed),
    );
    report("tcp loopback", &tcp_res);

    // And once more with the same 50 us stacked on the wire, to make the
    // two runs directly comparable latency-wise.
    let tcp_lat = run_tcp_cluster(
        LassConfig::with_loan(N, M).build_nodes(),
        workloads(),
        M,
        TcpClusterConfig {
            extra_latency: Time::from_micros(50),
            ..TcpClusterConfig::new(rounds, seed)
        },
    );
    report("tcp + 50us", &tcp_lat);

    let quota = (N * rounds) as u64;
    assert_eq!(mpsc_res.cs_completed, quota);
    assert_eq!(tcp_res.cs_completed, quota);
    assert_eq!(tcp_lat.cs_completed, quota);
    println!(
        "\nAll three runs completed their quota of {quota} critical sections \
         with zero safety violations."
    );
}

//! Run the same LASS workload on the simulator and on the wall-clock
//! substrate — the TCP loopback cluster, raw and with the simulator's
//! link latency stacked on the wire — and compare their metrics side by
//! side.  This is the paper's deployment story in one screen: identical
//! protocol state machines, identical workload driver, identical safety
//! monitoring; only the clock and the bytes differ.
//!
//! ```text
//! cargo run --release --example tcp_cluster
//! ```

use mra::core::LassConfig;
use mra::net::{run_tcp_cluster, TcpClusterConfig};
use mra::sim::{FixedWorkload, LatencyModel, RunResult, Sim, SimConfig};
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

    // Substrate 2: the discrete-event simulator, 50 us per hop.  It runs
    // a window of virtual time, not a quota: compare its wait and msgs/CS
    // columns with the rows below, not its CS count.
    let sim_res = Sim::new(
        LassConfig::with_loan(N, M).build_nodes(),
        workloads(),
        M,
        SimConfig {
            latency: LatencyModel::Constant(Time::from_micros(50)),
            warmup: Time::ZERO,
            measure: Time::from_millis(rounds as u64),
            ..SimConfig::quick(seed)
        },
    )
    .run();
    report("sim, 50us links", &sim_res);

    // Substrate 3: the same protocol over real loopback TCP sockets, raw.
    let tcp_res = run_tcp_cluster(
        LassConfig::with_loan(N, M).build_nodes(),
        workloads(),
        M,
        TcpClusterConfig::new(rounds, seed),
    );
    report("tcp loopback", &tcp_res);

    // And once more with the same 50 us stacked on the wire, to make the
    // TCP run directly comparable with the simulated one latency-wise.
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
    assert_eq!(sim_res.censored, 0);
    assert_eq!(tcp_res.cs_completed, quota);
    assert_eq!(tcp_lat.cs_completed, quota);
    println!(
        "\nBoth TCP runs completed their quota of {quota} critical sections and the \
         simulated window starved nobody, all with zero safety violations."
    );
}

//! Determinism guarantees, and validation of the threaded wall-clock
//! runtime (one thread per node over the loopback TCP reactor).

use mra::core::LassConfig;
use mra::net::{run_tcp_cluster, TcpClusterConfig};
use mra::sim::FixedWorkload;
use mra::types::Time;
use mra::workloads::{run, Algorithm, Load, Scenario};

fn sc(seed: u64) -> Scenario {
    Scenario::builder()
        .load(Load::High)
        .max_request_size(6)
        .nodes(12)
        .resources(24)
        .seed(seed)
        .measure_secs(2.0)
        .build()
}

#[test]
fn identical_seeds_identical_runs() {
    for algo in [
        Algorithm::Incremental,
        Algorithm::BouabdallahLaforest,
        Algorithm::LassLoan,
        Algorithm::Maddi,
    ] {
        let a = run(algo, &sc(77));
        let b = run(algo, &sc(77));
        assert_eq!(a.cs_completed, b.cs_completed, "{}", algo.label());
        assert_eq!(a.msgs_total, b.msgs_total, "{}", algo.label());
        assert_eq!(
            a.wait_stats().mean_ms,
            b.wait_stats().mean_ms,
            "{}",
            algo.label()
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(Algorithm::LassLoan, &sc(1));
    let b = run(Algorithm::LassLoan, &sc(2));
    // Message totals virtually never coincide across seeds.
    assert_ne!(
        (a.cs_completed, a.msgs_total),
        (b.cs_completed, b.msgs_total)
    );
}

#[test]
fn threaded_runtime_agrees_with_simulator_on_safety_and_quota() {
    // Small but real: 6 node threads over loopback TCP, 12 resources,
    // everyone completes its quota under genuine parallelism (safety
    // checked by the monitor).
    let cfg = LassConfig::with_loan(6, 12);
    let workloads: Vec<FixedWorkload> = (0..6)
        .map(|_| FixedWorkload {
            think: Time::from_micros(300),
            cs: Time::from_micros(500),
            m: 12,
            size: 3,
        })
        .collect();
    let res = run_tcp_cluster(
        cfg.build_nodes(),
        workloads,
        12,
        TcpClusterConfig {
            extra_latency: Time::from_micros(100),
            ..TcpClusterConfig::new(8, 5)
        },
    );
    assert_eq!(res.cs_completed, 48);
    assert_eq!(res.censored, 0);
    assert!(res.use_rate() > 0.0);
    assert!(res.msgs_total > 0);
}

#[test]
fn threaded_runtime_runs_every_algorithm() {
    use mra::baselines::{BouabdallahLaforest, Incremental, Maddi};
    let workloads = |n: usize| -> Vec<FixedWorkload> {
        (0..n)
            .map(|_| FixedWorkload {
                think: Time::from_micros(200),
                cs: Time::from_micros(400),
                m: 8,
                size: 2,
            })
            .collect()
    };
    let tc = |seed| TcpClusterConfig {
        extra_latency: Time::from_micros(50),
        ..TcpClusterConfig::new(5, seed)
    };
    let r = run_tcp_cluster(Incremental::build_nodes(4, 8), workloads(4), 8, tc(1));
    assert_eq!(r.cs_completed, 20);
    let r = run_tcp_cluster(
        BouabdallahLaforest::build_nodes(4, 8),
        workloads(4),
        8,
        tc(2),
    );
    assert_eq!(r.cs_completed, 20);
    let r = run_tcp_cluster(Maddi::build_nodes(4, 8), workloads(4), 8, tc(3));
    assert_eq!(r.cs_completed, 20);
}

#[test]
fn gantt_rendering_of_a_real_run() {
    let res = run(Algorithm::LassLoan, &sc(3));
    let gantt = mra::sim::render_gantt(&res, 72);
    // One row per resource plus header/footer.
    assert_eq!(gantt.lines().count(), 24 + 2);
    assert!(gantt.contains("use rate"));
}

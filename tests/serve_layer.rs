//! End-to-end coverage of the allocation-as-a-service serving layer.
//!
//! Open-loop arrival streams drive every algorithm family through the
//! simulator and through the real TCP reactor; the tests pin the three
//! properties the layer exists for:
//!
//! 1. **No coordinated omission** — latency keyed by *intended arrival*
//!    (`RunResult::serve_stats`) must grow with offered load when the
//!    server falls behind, while the old issue-keyed `wait_stats` stays
//!    nearly flat (that flatness is exactly the measurement bug the
//!    serving layer fixes).
//! 2. **Conservation** — every offered request is admitted or shed,
//!    everything admitted is served / queued / in flight, nothing is
//!    duplicated or resurrected — including under lossy fault plans with
//!    the reliable session layer on.
//! 3. **Determinism** — seeded arrival streams make whole serving runs
//!    reproducible on the simulator.

use mra::net::{run_tcp_cluster, TcpClusterConfig};
use mra::protocol::faults::FaultPlan;
use mra::protocol::reliable::Reliability;
use mra::serve::{ServeConfig, ServeWorkload, SharedServeStats};
use mra::types::Time;
use mra_workloads::{run_serve, Algorithm, Scenario, ServeScenario};

fn scenario(seed: u64, measure_secs: f64) -> Scenario {
    Scenario::builder()
        .nodes(5)
        .resources(10)
        .max_request_size(3)
        .seed(seed)
        .measure_secs(measure_secs)
        .build()
}

fn serve_cfg(rate_hz: f64) -> ServeConfig {
    ServeConfig {
        rate_hz,
        ..ServeConfig::default()
    }
}

/// Open-loop generators drive all six algorithm families on the
/// simulator, deterministically.
#[test]
fn six_algorithms_serve_open_loop_deterministically() {
    for algo in Algorithm::fault_set() {
        let ssc = ServeScenario::new(scenario(0xA110C, 0.6), serve_cfg(120.0));
        let a = run_serve(algo, &ssc, None, None);
        assert!(a.serve.served > 0, "{algo:?} served nothing");
        assert!(a.result.cs_completed > 0, "{algo:?} completed no CS");
        a.check().unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        // Batching never inflates work: one engine CS per batch, at least
        // one member per batch.
        assert!(a.serve.batches <= a.serve.batched_reqs);
        assert!(a.serve.served <= a.serve.offered);
        let b = run_serve(algo, &ssc, None, None);
        assert_eq!(a.result.cs_completed, b.result.cs_completed, "{algo:?}");
        assert_eq!(a.result.msgs_total, b.result.msgs_total, "{algo:?}");
        assert_eq!(a.serve.offered, b.serve.offered, "{algo:?}");
        assert_eq!(a.serve.served, b.serve.served, "{algo:?}");
        assert_eq!(
            a.serve.grant_latency.p999(),
            b.serve.grant_latency.p999(),
            "{algo:?}"
        );
    }
}

/// **Regression test for the coordinated-omission bug** (the latency
/// accounting fix of this change).
///
/// A node is stalled by a pause fault while its open-loop arrivals keep
/// coming.  Requests that arrive during the stall only *issue* after it
/// ends, so issue-keyed waiting time barely notices the stall and barely
/// moves as offered load rises.  Arrival-keyed serving latency must show
/// the queueing delay — and show it growing with offered load.
///
/// Before the fix (`wait_stats` was the only latency metric) the first
/// assertion had nothing to measure and the reported p99 stayed flat:
/// re-keying this test to `wait_stats` makes it fail, which is the
/// "fails before the fix" witness.
#[test]
fn coordinated_omission_stalled_node_p99_grows_with_offered_load() {
    let stall = |seed| {
        // Node 0 freezes for 300 ms in the middle of the measurement
        // window; reliability keeps the protocols live through it.
        FaultPlan::new(seed).pause(0, Time::from_millis(400), Time::from_millis(700))
    };
    let run = |rate_hz: f64| {
        let ssc = ServeScenario::new(scenario(7, 1.2), serve_cfg(rate_hz));
        run_serve(
            Algorithm::LassLoan,
            &ssc,
            Some(&stall(1)),
            Some(Reliability::default()),
        )
    };
    let lo = run(40.0);
    let hi = run(400.0);
    lo.check().expect("low-load conservation");
    hi.check().expect("high-load conservation");

    let (lo_wait, lo_serve) = (lo.result.wait_stats(), lo.result.serve_stats());
    let (hi_wait, hi_serve) = (hi.result.wait_stats(), hi.result.serve_stats());

    // Per record, arrival precedes issue, so serving latency dominates.
    assert!(lo_serve.p99_ms >= lo_wait.p99_ms);
    assert!(hi_serve.p99_ms >= hi_wait.p99_ms);

    // The signal: arrival-keyed p99 grows with offered load on the
    // stalled system (measured ~2.9× here; require 2×)...
    assert!(
        hi_serve.p99_ms > 2.0 * lo_serve.p99_ms,
        "serve p99 should grow with load: lo {:.2} ms hi {:.2} ms",
        lo_serve.p99_ms,
        hi_serve.p99_ms
    );
    // ...and the issue-keyed metric hides much of the tail: the gap
    // between the two p99s *is* the coordinated-omission bias.  At low
    // load the stall dominates and the bias is enormous (~20× here); at
    // high load queueing leaks into issue-keyed waits too, but the bias
    // stays well over 1.5× (~2.1× here).
    assert!(
        lo_serve.p99_ms > 5.0 * lo_wait.p99_ms,
        "omission bias missing at low load: serve p99 {:.2} ms vs wait p99 {:.2} ms",
        lo_serve.p99_ms,
        lo_wait.p99_ms
    );
    assert!(
        hi_serve.p99_ms > 1.5 * hi_wait.p99_ms,
        "omission bias missing at high load: serve p99 {:.2} ms vs wait p99 {:.2} ms",
        hi_serve.p99_ms,
        hi_wait.p99_ms
    );
}

/// Serving accounting survives lossy links + pauses when the reliable
/// session layer is on: requests may be slow, but none are lost,
/// duplicated, or served after being shed.
#[test]
fn serve_conserves_under_faults_with_reliability() {
    for (seed, drop, pause_ms) in [(1u64, 0.05, 0u64), (2, 0.15, 200), (3, 0.0, 350)] {
        let mut plan = FaultPlan::new(seed).drop_rate(drop);
        if pause_ms > 0 {
            plan = plan.pause(
                1,
                Time::from_millis(300),
                Time::from_millis(300 + pause_ms),
            );
        }
        let ssc = ServeScenario::new(scenario(seed ^ 0xF00D, 0.8), serve_cfg(150.0));
        let out = run_serve(
            Algorithm::LassLoan,
            &ssc,
            Some(&plan),
            Some(Reliability::default()),
        );
        out.check()
            .unwrap_or_else(|e| panic!("plan {seed}: conservation broken: {e}"));
        assert!(out.serve.served > 0, "plan {seed}: nothing served");
        assert_eq!(
            out.serve.offered,
            out.serve.admitted + out.serve.shed(),
            "plan {seed}"
        );
        // Arrival-keyed latency can only dominate issue-keyed latency.
        let (w, s) = (out.result.wait_stats(), out.result.serve_stats());
        assert_eq!(w.count, s.count, "plan {seed}");
        assert!(s.mean_ms >= w.mean_ms, "plan {seed}");
    }
}

/// The open-loop serving front end also drives the real TCP reactor
/// transport: a 4-node loopback cluster serves batched open-loop arrivals
/// to completion with conserved accounting.
#[test]
fn serve_workload_over_tcp_reactor_cluster() {
    const N: usize = 4;
    const M: usize = 12;
    let rounds = {
        let fast = mra::types::env_flag("MRA_FAST");
        if fast {
            4
        } else {
            10
        }
    };
    let cfg = ServeConfig {
        // Wall-clock run: keep arrivals brisk so the quota fills fast.
        rate_hz: 2000.0,
        seed: 0x7C9,
        ..ServeConfig::default()
    };
    let mut shaped = cfg.clone();
    shaped.shape.m = M;
    let (workloads, handles): (Vec<ServeWorkload>, Vec<SharedServeStats>) =
        ServeWorkload::fleet(&shaped, N);
    let lass = mra::core::LassConfig::with_loan(N, M);
    let ccfg = TcpClusterConfig::new(rounds, 0x5EED);
    let res = run_tcp_cluster(lass.build_nodes(), workloads, M, ccfg);
    assert_eq!(res.cs_completed, (N * rounds) as u64);
    assert_eq!(res.censored, 0);
    assert!(res.msgs_total > 0, "no traffic crossed the wire");

    let total = SharedServeStats::merge_all(&handles);
    assert_eq!(total.batches, (N * rounds) as u64);
    assert!(total.batched_reqs >= total.batches);
    assert!(total.served > 0);
    assert_eq!(total.offered, total.admitted + total.shed());
    // Arrival precedes issue, so end-to-end grant latency dominates the
    // engine's issue-keyed waits even on a wall clock.
    let (w, s) = (res.wait_stats(), res.serve_stats());
    assert_eq!(w.count, s.count);
    assert!(s.mean_ms >= w.mean_ms);
}

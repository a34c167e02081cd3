//! Per-figure experiment definitions (the reproduction index of DESIGN.md).
//!
//! Each `figN` function runs the corresponding sweep of the paper's
//! evaluation and returns both structured rows and a rendered [`Table`]
//! whose series match what the figure plots.  This crate's binaries
//! (`src/bin/`, one per figure and ablation) are thin wrappers around these
//! functions.
//!
//! Runtime scaling: the full paper grid at 32×80 takes minutes; set
//! `MRA_FAST=1` (or `MRA_MEASURE_SECS=<s>`) to shrink the measurement
//! window for smoke runs.  Every sweep fans its grid points across cores
//! via [`pool::sweep`] (all runs are independent and individually seeded;
//! results come back in input order, so output is byte-identical to a
//! sequential run) — control the worker count with `MRA_THREADS`.

use crate::pool;
use crate::runner::{run, run_configured, run_serve, Algorithm, ServeScenario};
use crate::scenario::{Load, Scenario};
use crate::table::Table;
use mra_protocol::faults::FaultPlan;
use mra_protocol::reliable::Reliability;
use mra_serve::ServeConfig;
use mra_sim::WaitStats;
use mra_types::{env_flag, Time};

/// Measurement window (seconds) around a caller's default (the figure
/// binaries pass 10 s): `MRA_MEASURE_SECS` wins outright, `MRA_FAST=1`
/// quarters the default (floor 0.2 s), otherwise the default stands.
/// Binaries, examples and smoke tests route through this so CI can shrink
/// every simulation window with one environment variable.
pub fn measure_secs_or(default: f64) -> f64 {
    env_measure_secs().unwrap_or_else(|| {
        if mra_fast() {
            (default / 4.0).max(0.2)
        } else {
            default
        }
    })
}

fn mra_fast() -> bool {
    env_flag("MRA_FAST")
}

/// `MRA_MEASURE_SECS` if set and numeric, clamped to a 0.1 s floor.
fn env_measure_secs() -> Option<f64> {
    std::env::var("MRA_MEASURE_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(|v| v.max(0.1))
}

/// The φ grid used for Fig. 5 (the paper sweeps 1..80; this grid samples
/// it with extra density at small sizes where the curves cross).
pub const FIG5_PHIS: [usize; 11] = [1, 2, 4, 8, 12, 16, 20, 28, 40, 56, 80];

/// One point of Fig. 5.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Load level.
    pub load: Load,
    /// Maximum request size φ.
    pub phi: usize,
    /// Algorithm.
    pub algo: Algorithm,
    /// Resource use rate in percent (the figure's y axis).
    pub use_rate_pct: f64,
    /// Messages per critical section (extra column, §2's complexity talk).
    pub msgs_per_cs: f64,
    /// Critical sections completed in the window.
    pub cs_completed: u64,
}

/// Fig. 5: resource use rate vs maximum request size, for each load level
/// and each of the five algorithms.  Grid points run in parallel
/// (`MRA_THREADS` workers); row order matches the sequential nested loop.
pub fn fig5(loads: &[Load], phis: &[usize], seed: u64, measure_secs: f64) -> Vec<Fig5Row> {
    let mut grid = Vec::new();
    for &load in loads {
        for &phi in phis {
            for algo in Algorithm::fig5_set() {
                grid.push((load, phi, algo));
            }
        }
    }
    pool::sweep(grid, |(load, phi, algo)| {
        let sc = Scenario::builder()
            .load(load)
            .max_request_size(phi)
            .seed(seed)
            .measure_secs(measure_secs)
            .build();
        let res = run(algo, &sc);
        Fig5Row {
            load,
            phi,
            algo,
            use_rate_pct: 100.0 * res.use_rate(),
            msgs_per_cs: res.msgs_per_cs(),
            cs_completed: res.cs_completed,
        }
    })
}

/// Render Fig. 5 rows in the paper's layout: one row per φ, one column per
/// algorithm, one table per load level.
pub fn fig5_tables(rows: &[Fig5Row]) -> Vec<Table> {
    let mut tables = Vec::new();
    for load in [Load::Medium, Load::High] {
        let sub: Vec<&Fig5Row> = rows.iter().filter(|r| r.load == load).collect();
        if sub.is_empty() {
            continue;
        }
        let mut t = Table::new(
            &format!("Fig.5({}) resource use rate [%] vs max request size", load.label()),
            &[
                "phi",
                "Incremental",
                "Bouabdallah Laforest",
                "Without loan",
                "With loan",
                "in shared memory",
                "lass/BL ratio",
            ],
        );
        let mut phis: Vec<usize> = sub.iter().map(|r| r.phi).collect();
        phis.sort_unstable();
        phis.dedup();
        for phi in phis {
            let get = |a: Algorithm| {
                sub.iter()
                    .find(|r| r.phi == phi && r.algo == a)
                    .map(|r| r.use_rate_pct)
                    .unwrap_or(f64::NAN)
            };
            let bl = get(Algorithm::BouabdallahLaforest);
            let lass = get(Algorithm::LassLoan);
            t.row(vec![
                phi.to_string(),
                format!("{:.1}", get(Algorithm::Incremental)),
                format!("{:.1}", bl),
                format!("{:.1}", get(Algorithm::LassNoLoan)),
                format!("{:.1}", lass),
                format!("{:.1}", get(Algorithm::Central)),
                if bl > 0.0 {
                    format!("{:.2}x", lass / bl)
                } else {
                    "-".into()
                },
            ]);
        }
        tables.push(t);
    }
    tables
}

/// One bar of Fig. 6 (average waiting time at φ = 4).
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Load level.
    pub load: Load,
    /// Algorithm.
    pub algo: Algorithm,
    /// Waiting-time statistics (mean is the bar, std the error bar).
    pub wait: WaitStats,
    /// Requests never granted before the horizon (honesty column).
    pub censored: u64,
}

/// Fig. 6: average waiting time, φ = 4, for BL and both LASS variants.
/// Runs the (load, algorithm) grid in parallel, input order preserved.
pub fn fig6(loads: &[Load], seed: u64, measure_secs: f64) -> Vec<Fig6Row> {
    let mut grid = Vec::new();
    for &load in loads {
        for algo in Algorithm::fig6_set() {
            grid.push((load, algo));
        }
    }
    pool::sweep(grid, |(load, algo)| {
        let sc = Scenario::builder()
            .load(load)
            .max_request_size(4)
            .seed(seed)
            .measure_secs(measure_secs)
            .build();
        let res = run(algo, &sc);
        Fig6Row {
            load,
            algo,
            wait: res.wait_stats(),
            censored: res.censored,
        }
    })
}

/// Render Fig. 6 rows.
pub fn fig6_table(rows: &[Fig6Row]) -> Table {
    let mut t = Table::new(
        "Fig.6 average waiting time (phi = 4)",
        &[
            "load", "algorithm", "mean [ms]", "std [ms]", "median", "p95", "p99", "p999", "n",
            "censored",
        ],
    );
    for r in rows {
        t.row(vec![
            r.load.label().into(),
            r.algo.label().into(),
            WaitStats::cell(r.wait.mean_ms, 1),
            WaitStats::cell(r.wait.std_ms, 1),
            WaitStats::cell(r.wait.median_ms, 1),
            WaitStats::cell(r.wait.p95_ms, 1),
            WaitStats::cell(r.wait.p99_ms, 1),
            WaitStats::cell(r.wait.p999_ms, 1),
            r.wait.count.to_string(),
            r.censored.to_string(),
        ]);
    }
    t
}

/// One bar group of Fig. 7 (waiting time by request-size bucket, φ = 80).
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Load level.
    pub load: Load,
    /// Algorithm.
    pub algo: Algorithm,
    /// Bucket lower bound (the figure labels 1res, 17res, ..).
    pub size_lo: usize,
    /// Bucket upper bound.
    pub size_hi: usize,
    /// Waiting-time statistics for requests of that size range.
    pub wait: WaitStats,
}

/// Fig. 7: average waiting time split into 6 request-size buckets
/// (1,17,33,49,65,80 — the paper's labels are our bucket lower bounds
/// rounded to its grid), φ = 80.
pub fn fig7(loads: &[Load], seed: u64, measure_secs: f64) -> Vec<Fig7Row> {
    let mut grid = Vec::new();
    for &load in loads {
        for algo in Algorithm::fig6_set() {
            grid.push((load, algo));
        }
    }
    let per_point = pool::sweep(grid, |(load, algo)| {
        let sc = Scenario::builder()
            .load(load)
            .max_request_size(80)
            .seed(seed)
            .measure_secs(measure_secs)
            .build();
        let res = run(algo, &sc);
        res.wait_buckets(80, 6)
            .into_iter()
            .map(|(lo, hi, wait)| Fig7Row {
                load,
                algo,
                size_lo: lo,
                size_hi: hi,
                wait,
            })
            .collect::<Vec<_>>()
    });
    per_point.into_iter().flatten().collect()
}

/// Render Fig. 7 rows: one table per load level.
pub fn fig7_tables(rows: &[Fig7Row]) -> Vec<Table> {
    let mut tables = Vec::new();
    for load in [Load::Medium, Load::High] {
        let sub: Vec<&Fig7Row> = rows.iter().filter(|r| r.load == load).collect();
        if sub.is_empty() {
            continue;
        }
        let mut t = Table::new(
            &format!("Fig.7({}) waiting time by request size (phi = 80)", load.label()),
            &["algorithm", "sizes", "mean [ms]", "std [ms]", "n"],
        );
        for r in &sub {
            t.row(vec![
                r.algo.label().into(),
                format!("{}-{}", r.size_lo, r.size_hi),
                WaitStats::cell(r.wait.mean_ms, 1),
                WaitStats::cell(r.wait.std_ms, 1),
                r.wait.count.to_string(),
            ]);
        }
        tables.push(t);
    }
    tables
}

/// The loss-rate grid of the fault-robustness ablation (`fig_faults`).
/// With the session layer **off** the protocols have no retransmission
/// (the paper assumes reliable links), so under *sustained* loss every
/// node eventually hits a fatal drop on its request path and starves: the
/// per-mille points show partial degradation before the collapse cliff.
/// With the session layer **on**, losses are recovered at retransmission
/// cost, so the grid extends into the percent range where the overhead
/// curve becomes visible.  0 anchors the degradation baselines.  (The
/// fault *property tests* separately push drops to 20% on short quota
/// workloads.)
pub const FIG_FAULTS_LOSSES: [f64; 8] =
    [0.0, 1e-4, 5e-4, 2e-3, 1e-2, 5e-2, 1e-1, 2e-1];

/// One point of the fault sweep: one algorithm at one loss rate, with the
/// reliable session layer on or off.
#[derive(Clone, Debug)]
pub struct FaultRow {
    /// Per-link frame drop probability.
    pub loss: f64,
    /// Was the reliable-delivery session layer enabled?
    pub reliable: bool,
    /// Algorithm.
    pub algo: Algorithm,
    /// Critical sections completed in the window.
    pub cs_completed: u64,
    /// Completed CS per simulated second (the throughput the degradation
    /// column is computed from).
    pub cs_per_sec: f64,
    /// Requests issued in the window but never granted (starved by loss).
    pub censored: u64,
    /// Frames the fault layer dropped.
    pub dropped: u64,
    /// Data frames re-sent by retransmit timers (0 with reliability off).
    pub retransmits: u64,
    /// Ack frames: standalone + piggybacked (0 with reliability off).
    pub acks: u64,
    /// Session-layer wire overhead: `(retransmits + standalone acks) /
    /// data frames`, in percent (0 with reliability off).
    pub overhead_pct: f64,
    /// Throughput lost vs the same algorithm-and-mode's zero-loss
    /// baseline, in percent (0 at the baseline itself; `NaN` if the
    /// baseline is empty).
    pub degradation_pct: f64,
    /// Waiting-time statistics of the granted requests; loss fattens the
    /// tail (p99/p999) long before it moves the mean.  All-`NaN`
    /// percentiles when every request starved (rendered `"n/a"`).
    pub wait: WaitStats,
}

/// The [`Reliability`] used by the sweep's reliability-on mode: default
/// 10 ms RTO, overridable through `MRA_RTO_MS` (fractional milliseconds).
pub fn sweep_reliability() -> Reliability {
    Reliability::with_rto(Reliability::env_rto_or(Time::from_millis(10)))
}

/// Fault-robustness ablation: loss rate × reliability mode × algorithm
/// (all six protocol families) on an 8-node paper-LAN scenario, measuring
/// CS-throughput degradation as the network loses frames — and how much of
/// it the reliable session layer (`mra_protocol::reliable`) buys back, at
/// what retransmission overhead.  `fault_seed` seeds the deterministic
/// drop decisions (`0xFA17` in the binary); the workload seed stays
/// separate so loss is the *only* difference between grid columns.  Grid
/// points run in parallel (`MRA_THREADS`), output in input order.
pub fn fig_faults(
    losses: &[f64],
    modes: &[bool],
    seed: u64,
    fault_seed: u64,
    measure_secs: f64,
) -> Vec<FaultRow> {
    let mut grid = Vec::new();
    for &loss in losses {
        for &reliable in modes {
            for algo in Algorithm::fault_set() {
                grid.push((loss, reliable, algo));
            }
        }
    }
    let mut rows = pool::sweep(grid, |(loss, reliable, algo)| {
        let sc = Scenario::builder()
            .nodes(8)
            .resources(16)
            .max_request_size(3)
            .load(Load::High)
            .seed(seed)
            .measure_secs(measure_secs)
            .build();
        let plan = FaultPlan::new(fault_seed).drop_rate(loss);
        let rel = reliable.then(sweep_reliability);
        let res = run_configured(algo, &sc, Some(&plan), rel);
        FaultRow {
            loss,
            reliable,
            algo,
            cs_completed: res.cs_completed,
            // Normalized by the *nominal* window, not `res.window`: when
            // every node starves early the collector clamps the window to
            // the death instant, which would inflate the rate of a run
            // that did almost no work.
            cs_per_sec: res.cs_completed as f64 / measure_secs,
            censored: res.censored,
            dropped: res.faults.dropped_total(),
            retransmits: res.reliability.retransmits,
            acks: res.reliability.acks_sent + res.reliability.acks_piggybacked,
            overhead_pct: res.reliability.overhead_pct(),
            degradation_pct: f64::NAN, // filled below against the baseline
            wait: res.wait_stats(),
        }
    });
    // Baseline per (algorithm, mode): the row at the smallest swept loss
    // rate (conventionally 0).
    let base_loss = losses.iter().copied().fold(f64::INFINITY, f64::min);
    for algo in Algorithm::fault_set() {
        for &reliable in modes {
            let base = rows
                .iter()
                .find(|r| r.algo == algo && r.reliable == reliable && r.loss == base_loss)
                .map(|r| r.cs_per_sec)
                .unwrap_or(0.0);
            for r in rows
                .iter_mut()
                .filter(|r| r.algo == algo && r.reliable == reliable)
            {
                r.degradation_pct = if base > 0.0 {
                    100.0 * (1.0 - r.cs_per_sec / base)
                } else {
                    f64::NAN
                };
            }
        }
    }
    rows
}

/// The long-format CSV of the fault ablation: one row per (loss, mode,
/// algorithm) point.  The `fig_faults` binary writes exactly this table
/// and the sweep-determinism test compares exactly this table, so the
/// bytes the test certifies are the bytes that ship.
pub fn fig_faults_csv(rows: &[FaultRow]) -> Table {
    let mut csv = Table::new(
        "fig_faults",
        &[
            "loss",
            "reliable",
            "algorithm",
            "cs_completed",
            "cs_per_sec",
            "degradation_pct",
            "censored",
            "dropped_frames",
            "retransmits",
            "acks",
            "overhead_pct",
            "wait_mean_ms",
            "wait_p99_ms",
            "wait_p999_ms",
        ],
    );
    for r in rows {
        csv.row(vec![
            // 5 decimals: the interesting grid is per-mille and below.
            format!("{:.5}", r.loss),
            if r.reliable { "on".into() } else { "off".into() },
            r.algo.label().into(),
            r.cs_completed.to_string(),
            format!("{:.2}", r.cs_per_sec),
            format!("{:.2}", r.degradation_pct),
            r.censored.to_string(),
            r.dropped.to_string(),
            r.retransmits.to_string(),
            r.acks.to_string(),
            format!("{:.2}", r.overhead_pct),
            WaitStats::cell(r.wait.mean_ms, 2),
            WaitStats::cell(r.wait.p99_ms, 2),
            WaitStats::cell(r.wait.p999_ms, 2),
        ]);
    }
    csv
}

/// Render the fault ablation in matrix layout: one row per (loss rate,
/// reliability mode), one column per algorithm showing
/// `cs_completed (degradation%)`.
pub fn fig_faults_table(rows: &[FaultRow]) -> Table {
    let mut header: Vec<String> = vec!["loss".into(), "reliable".into()];
    header.extend(Algorithm::fault_set().iter().map(|a| a.label().to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "fig_faults: CS throughput degradation vs frame loss (reliability ablation)",
        &header_refs,
    );
    let mut keys: Vec<(u64, bool)> = rows
        .iter()
        .map(|r| (r.loss.to_bits(), r.reliable))
        .collect();
    keys.sort_by(|a, b| {
        f64::from_bits(a.0)
            .total_cmp(&f64::from_bits(b.0))
            .then(a.1.cmp(&b.1))
    });
    keys.dedup();
    for (loss_bits, reliable) in keys {
        let loss = f64::from_bits(loss_bits);
        let mut cells = vec![
            format!("{:.3}%", 100.0 * loss),
            if reliable { "on".into() } else { "off".into() },
        ];
        for algo in Algorithm::fault_set() {
            let cell = rows
                .iter()
                .find(|r| r.loss == loss && r.reliable == reliable && r.algo == algo)
                .map(|r| {
                    if r.degradation_pct.is_nan() {
                        format!("{} (-)", r.cs_completed)
                    } else {
                        format!("{} (-{:.0}%)", r.cs_completed, r.degradation_pct.max(0.0))
                    }
                })
                .unwrap_or_else(|| "-".into());
            cells.push(cell);
        }
        t.row(cells);
    }
    t
}

/// The load points of the serving figure (`fig_serve`): `(label,
/// algorithm, per-node arrival rate in requests/second)`.  LASS with loan
/// at three levels — comfortably under, near, and past the fleet's service
/// capacity for the 8-node topology — and every other family at the middle
/// level.
const FIG_SERVE_POINTS: [(&str, Algorithm, f64); 8] = [
    ("lass_loan_50hz", Algorithm::LassLoan, 50.0),
    ("lass_loan_200hz", Algorithm::LassLoan, 200.0),
    ("lass_loan_800hz", Algorithm::LassLoan, 800.0),
    ("lass_noloan_200hz", Algorithm::LassNoLoan, 200.0),
    ("bl_200hz", Algorithm::BouabdallahLaforest, 200.0),
    ("incremental_200hz", Algorithm::Incremental, 200.0),
    ("central_200hz", Algorithm::Central, 200.0),
    ("maddi_200hz", Algorithm::Maddi, 200.0),
];

/// One point of the serving figure: one algorithm at one offered load.
#[derive(Clone, Debug)]
pub struct FigServeRow {
    /// Point label, e.g. `lass_loan_200hz`.
    pub label: &'static str,
    /// Algorithm.
    pub algo: Algorithm,
    /// Fleet-wide measured offered load, requests per simulated second.
    pub offered_hz: f64,
    /// Fleet-wide goodput: fully served requests per simulated second.
    pub goodput_hz: f64,
    /// Arrivals generated.
    pub offered: u64,
    /// Arrivals the admission queues accepted.
    pub admitted: u64,
    /// Arrivals the admission queues refused.
    pub shed: u64,
    /// Engine critical-section requests issued (one per batch).
    pub batches: u64,
    /// Requests folded into those batches; over `batches` it is the
    /// batching factor.
    pub batched_reqs: u64,
    /// Arrival→grant latency percentiles in milliseconds — keyed by when
    /// the request *wanted* to run, so free of coordinated omission.
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    /// Issue-keyed p99 of the same run; its gap to `p99_ms` is the
    /// coordinated-omission bias the arrival-keyed metric removes.
    pub wait_p99_ms: f64,
}

/// Serving figure: offered load vs goodput and arrival-keyed tail latency
/// of the open-loop front end (`mra-serve`, Poisson arrivals per node) on
/// an 8-node × 16-resource simulated cluster, over `FIG_SERVE_POINTS`.
/// Simulated time throughout, so the rows track queueing and
/// synchronization cost and repeat exactly.  Points run in parallel
/// (`MRA_THREADS`), rows in input order.
pub fn fig_serve(measure_secs: f64) -> Vec<FigServeRow> {
    pool::sweep(FIG_SERVE_POINTS.to_vec(), |(label, algo, rate_hz)| {
        let sc = Scenario::builder()
            .nodes(8)
            .resources(16)
            .max_request_size(3)
            .seed(0x5E21)
            .measure_secs(measure_secs)
            .build();
        let serve = ServeConfig {
            rate_hz,
            ..ServeConfig::default()
        };
        let out = run_serve(algo, &ServeScenario::new(sc, serve), None, None);
        out.check()
            .unwrap_or_else(|e| panic!("{label}: conservation broken: {e}"));
        // The serve layer's histogram: `quantile` takes a percentile
        // (0–100) and returns what was recorded, nanoseconds.
        let ms = |q: f64| out.serve.grant_latency.quantile(q) / 1e6;
        FigServeRow {
            label,
            algo,
            offered_hz: out.offered_hz(),
            goodput_hz: out.goodput_hz(),
            offered: out.serve.offered,
            admitted: out.serve.admitted,
            shed: out.serve.shed(),
            batches: out.serve.batches,
            batched_reqs: out.serve.batched_reqs,
            p50_ms: ms(50.0),
            p95_ms: ms(95.0),
            p99_ms: ms(99.0),
            p999_ms: ms(99.9),
            wait_p99_ms: out.result.wait_stats().p99_ms,
        }
    })
}

/// The serving figure as one table, one row per point.  The `fig_serve`
/// binary prints and writes exactly this table and the sweep-determinism
/// test compares exactly this table.
pub fn fig_serve_table(rows: &[FigServeRow]) -> Table {
    let mut t = Table::new(
        "fig_serve: offered load vs goodput and arrival-keyed latency (8 nodes, simulated time)",
        &[
            "scenario",
            "algorithm",
            "offered_hz",
            "goodput_hz",
            "offered",
            "admitted",
            "shed",
            "batches",
            "batched_reqs",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "p999_ms",
            "wait_p99_ms",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.into(),
            r.algo.label().into(),
            format!("{:.1}", r.offered_hz),
            format!("{:.1}", r.goodput_hz),
            r.offered.to_string(),
            r.admitted.to_string(),
            r.shed.to_string(),
            r.batches.to_string(),
            r.batched_reqs.to_string(),
            WaitStats::cell(r.p50_ms, 3),
            WaitStats::cell(r.p95_ms, 3),
            WaitStats::cell(r.p99_ms, 3),
            WaitStats::cell(r.p999_ms, 3),
            WaitStats::cell(r.wait_p99_ms, 3),
        ]);
    }
    t
}

/// Loan-threshold ablation (the paper's §6 future work): use rate and mean
/// wait as the threshold grows, at a given φ and load.
pub fn ablation_loan(
    thresholds: &[usize],
    phi: usize,
    load: Load,
    seed: u64,
    measure_secs: f64,
) -> Table {
    let mut t = Table::new(
        &format!(
            "Loan threshold ablation (phi = {phi}, {} load)",
            load.label()
        ),
        &["threshold", "use rate [%]", "mean wait [ms]", "loan msgs/cs"],
    );
    let rows = pool::sweep(thresholds.to_vec(), |th| {
        let sc = Scenario::builder()
            .load(load)
            .max_request_size(phi)
            .seed(seed)
            .loan_threshold(th.max(1))
            .measure_secs(measure_secs)
            .build();
        let algo = if th == 0 {
            Algorithm::LassNoLoan
        } else {
            Algorithm::LassLoan
        };
        let res = run(algo, &sc);
        let loan_msgs = res
            .msg_by_kind
            .iter()
            .find(|(k, _)| *k == "ReqLoan")
            .map(|(_, c)| *c)
            .unwrap_or(0);
        let per_cs = if res.cs_completed > 0 {
            loan_msgs as f64 / res.cs_completed as f64
        } else {
            0.0
        };
        vec![
            if th == 0 { "off".into() } else { th.to_string() },
            format!("{:.1}", 100.0 * res.use_rate()),
            format!("{:.1}", res.wait_stats().mean_ms),
            format!("{:.3}", per_cs),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// Scheduling-policy (`A` function) ablation: use rate across policies.
pub fn ablation_policy(phi: usize, load: Load, seed: u64, measure_secs: f64) -> Table {
    use mra_core::SchedulingPolicy;
    let mut t = Table::new(
        &format!("Policy A ablation (phi = {phi}, {} load)", load.label()),
        &["policy", "use rate [%]", "mean wait [ms]", "p95 wait [ms]", "p99 wait [ms]"],
    );
    let rows = pool::sweep(SchedulingPolicy::all().to_vec(), |policy| {
        let sc = Scenario::builder()
            .load(load)
            .max_request_size(phi)
            .seed(seed)
            .policy(policy)
            .measure_secs(measure_secs)
            .build();
        let res = run(Algorithm::LassLoan, &sc);
        let w = res.wait_stats();
        vec![
            policy.name().into(),
            format!("{:.1}", 100.0 * res.use_rate()),
            WaitStats::cell(w.mean_ms, 1),
            WaitStats::cell(w.p95_ms, 1),
            WaitStats::cell(w.p99_ms, 1),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny smoke versions of every figure (scaled-down N/M via env would
    /// complicate determinism; instead we run the real shape very briefly).
    #[test]
    fn fig5_smoke() {
        let rows = fig5(&[Load::High], &[2], 3, 0.3);
        assert_eq!(rows.len(), 5);
        let tables = fig5_tables(&rows);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].render().contains("Fig.5(high)"));
    }

    #[test]
    fn fig6_smoke() {
        let rows = fig6(&[Load::Medium], 3, 0.3);
        assert_eq!(rows.len(), 3);
        let t = fig6_table(&rows);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn fig7_smoke() {
        let rows = fig7(&[Load::Medium], 3, 0.3);
        // 3 algorithms × 6 buckets
        assert_eq!(rows.len(), 18);
        let ts = fig7_tables(&rows);
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn measure_default_is_positive() {
        assert!(measure_secs_or(10.0) > 0.0);
    }

    #[test]
    fn fig_faults_smoke() {
        let rows = fig_faults(&[0.0, 0.01], &[false, true], 3, 0xFA17, 0.4);
        // 2 loss rates × 2 modes × 6 algorithms.
        assert_eq!(rows.len(), 24);
        for r in rows.iter().filter(|r| r.loss == 0.0) {
            assert_eq!(r.dropped, 0);
            assert!((r.degradation_pct - 0.0).abs() < 1e-9, "baseline degrades");
        }
        for r in rows.iter().filter(|r| r.loss > 0.0) {
            assert!(r.dropped > 0, "{:?} saw no drops at 1% loss", r.algo);
        }
        for r in rows.iter().filter(|r| !r.reliable) {
            assert_eq!(r.retransmits, 0);
            assert_eq!(r.overhead_pct, 0.0);
        }
        let cs = |loss: f64, reliable: bool, algo: Algorithm| {
            rows.iter()
                .find(|r| r.loss == loss && r.reliable == reliable && r.algo == algo)
                .unwrap()
                .cs_completed
        };
        // Sustained 1% loss is far past the collapse cliff of the
        // retransmission-free protocols: throughput must suffer...
        assert!(cs(0.01, false, Algorithm::LassLoan) < cs(0.0, false, Algorithm::LassLoan));
        // ...and the session layer must buy a large part of it back.
        assert!(
            cs(0.01, true, Algorithm::LassLoan) > cs(0.01, false, Algorithm::LassLoan),
            "reliability recovered nothing"
        );
        let lossy_reliable = rows
            .iter()
            .find(|r| r.loss > 0.0 && r.reliable && r.algo == Algorithm::LassLoan)
            .unwrap();
        assert!(lossy_reliable.retransmits > 0);
        assert!(lossy_reliable.overhead_pct > 0.0);
        let table = fig_faults_table(&rows).render();
        assert!(table.contains("fig_faults"), "{table}");
        assert!(table.contains("1.000%"), "{table}");
        assert!(table.contains("reliable"), "{table}");
    }

    #[test]
    fn fig_serve_rows_are_self_consistent() {
        let rows = fig_serve(0.5);
        assert_eq!(rows.len(), FIG_SERVE_POINTS.len());
        for r in &rows {
            assert!(r.offered > 0, "{r:?}");
            assert_eq!(r.offered, r.admitted + r.shed, "{r:?}");
            assert!(r.batches <= r.batched_reqs && r.batched_reqs <= r.admitted, "{r:?}");
            assert!(r.goodput_hz <= r.offered_hz + 1e-9, "goodput exceeds offered: {r:?}");
            assert!(
                r.p50_ms <= r.p95_ms && r.p95_ms <= r.p99_ms && r.p99_ms <= r.p999_ms,
                "percentiles out of order: {r:?}"
            );
            // Arrival precedes issue on every record, so the arrival-keyed
            // p99 dominates the issue-keyed one; the histogram's log2
            // bucketing is granted 2x slack.
            assert!(2.0 * r.p99_ms >= r.wait_p99_ms, "{r:?}");
        }
        assert!(
            rows.iter().any(|r| r.shed > 0),
            "sweep never pushed past saturation"
        );
        let t = fig_serve_table(&rows);
        assert_eq!(t.len(), rows.len());
        assert!(t.render().contains("lass_loan_800hz"));
    }
}

//! The two serving workloads: `serve-mid` and `serve-over`.
//!
//! A slice builds an open-loop `ServeWorkload` fleet and drives it through
//! a 4-node loopback reactor cluster with one `run_tcp_cluster` call.  Real
//! threads make the noise two-sided, so every metric is computed per slice
//! and the run reports the **median over slices**.  Each slice draws its
//! own arrival streams from a seed derived from the run's seed: 2 000
//! arrivals are one realization of the Poisson process (the offered load
//! alone swings ±2 %, latency with it), and the median over a run's slices
//! should estimate the workload, not one realization of it.

use crate::catalog::{insert_msgs_per_cs, Values};
use crate::estimate::{median, spread_pct};
use crate::slices::{run_slices, Outcome};
use crate::spans::{record_requests, Recorder, SpanId};
use crate::timed::{Layers, Timed, TimedWorkload};
use mra_core::LassConfig;
use mra_net::sys::process_cpu_time;
use mra_net::{run_tcp_cluster, NetBackend, TcpClusterConfig};
use mra_serve::{check_conservation, ServeConfig, ServeStats, ServeWorkload, SharedServeStats};
use mra_sim::stats::percentile;
use mra_sim::RunResult;
use std::time::Instant;

/// Cluster size: 8 mostly-blocked threads (driver + reactor per node) and
/// 6 connections — the largest loopback cluster that repeated within 4 %
/// on a 2-core host.
pub const NODES: usize = 4;

/// One serving workload: the default request shape at a fixed offered
/// rate, run until every node completed `rounds` batches.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    pub cfg: ServeConfig,
    pub rounds: usize,
}

/// `serve-mid`: Poisson 250 req/s/node, about 55 % of capacity.
pub fn mid(seed: u64) -> ServeSpec {
    spec(seed, 250.0, 500)
}

/// `serve-over`: Poisson 1000 req/s/node, about 2.2× capacity.
pub fn over(seed: u64) -> ServeSpec {
    spec(seed, 1000.0, 250)
}

fn spec(seed: u64, rate_hz: f64, rounds: usize) -> ServeSpec {
    ServeSpec {
        cfg: ServeConfig {
            rate_hz,
            seed,
            ..ServeConfig::default()
        },
        rounds,
    }
}

/// The goodput ceiling of a serving workload, from its inputs alone: the
/// fleet can hold at most `m` resource-seconds per second, and a node runs
/// one critical section at a time with at most `max_batch` requests in it.
/// Request sizes are uniform on `1..=φ` and the hold time is linear in the
/// size, so both means are exact.  Protocol and wire time are ignored —
/// this is a ceiling, not a prediction.
pub fn capacity_bound_rps(cfg: &ServeConfig, nodes: usize) -> f64 {
    let shape = &cfg.shape;
    let phi = shape.phi.clamp(1, shape.m.max(1));
    let hold = |x: usize| {
        let frac = if phi > 1 {
            (x - 1) as f64 / (phi - 1) as f64
        } else {
            0.0
        };
        let (lo, hi) = (shape.cs_min.as_secs_f64(), shape.cs_max.as_secs_f64());
        lo + (hi - lo) * frac
    };
    let mean_hold = (1..=phi).map(hold).sum::<f64>() / phi as f64;
    let mean_resource_seconds = (1..=phi).map(|x| x as f64 * hold(x)).sum::<f64>() / phi as f64;
    let by_resources = shape.m as f64 / mean_resource_seconds;
    let by_nodes = (nodes * cfg.max_batch.max(1)) as f64 / mean_hold;
    by_resources.min(by_nodes)
}

/// One executed cluster slice.
pub struct ServeSlice {
    pub res: RunResult,
    pub stats: ServeStats,
    /// Sum over nodes of arrivals offered ÷ the node's own issuing span.
    pub offered_rps: f64,
    /// Fleet construction + `run_tcp_cluster`, connect and teardown included.
    pub wall_s: f64,
    /// First issue → last release.
    pub active_s: f64,
    pub cpu_s: f64,
    pub layers: Option<Layers>,
}

/// The seed of a run's `index`-th slice (`None`: the warm-up slice).
fn slice_seed(run_seed: u64, index: Option<usize>) -> u64 {
    let i = index.map_or(u64::MAX, |i| i as u64);
    (run_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(23)
}

/// Build and run one slice on `spec`'s seed; `traced` wraps the fleet in
/// the `Timed` wrappers.
pub fn serve_slice(spec: &ServeSpec, traced: bool) -> Result<ServeSlice, String> {
    let started = Instant::now();
    let cpu0 = process_cpu_time();
    let m = spec.cfg.shape.m;
    let (workloads, handles) = ServeWorkload::fleet(&spec.cfg, NODES);
    let nodes = LassConfig::with_loan(NODES, m).build_nodes();
    let cluster = TcpClusterConfig {
        backend: NetBackend::Reactor,
        ..TcpClusterConfig::new(spec.rounds, spec.cfg.seed)
    };
    let (res, layers) = if traced {
        let layers = Layers::default();
        let res = run_tcp_cluster(
            Timed::fleet(nodes, &layers.alloc, None),
            TimedWorkload::fleet(workloads, &layers.workload),
            m,
            cluster,
        );
        (res, Some(layers))
    } else {
        (run_tcp_cluster(nodes, workloads, m, cluster), None)
    };
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_time().saturating_sub(cpu0).as_secs_f64();

    let first_issue = res
        .records
        .first()
        .map(|r| r.issued)
        .ok_or("the cluster issued nothing")?;
    let mut last_release = vec![first_issue; NODES];
    for r in &res.records {
        let released = r.released.ok_or("a request was never released")?;
        last_release[r.node] = last_release[r.node].max(released);
    }
    let end = last_release
        .iter()
        .copied()
        .max()
        .expect("at least one node");
    let offered_rps = handles
        .iter()
        .zip(&last_release)
        .map(|(h, until)| h.lock().offered as f64 / until.as_secs_f64())
        .sum();
    Ok(ServeSlice {
        stats: SharedServeStats::merge_all(&handles),
        offered_rps,
        wall_s,
        active_s: (end - first_issue).as_secs_f64(),
        cpu_s,
        res,
        layers,
    })
}

/// The output check of one slice: every node filled its quota and nothing
/// was lost between arrival and release.  Shedding is *not* checked, even
/// below capacity: on a shared host a 256 ms stall fills a 64-deep queue at
/// 250 req/s, and the queue shedding then is the program working — it
/// shows in `served_ratio` and in the run's notes instead.
fn check(slice: &ServeSlice, spec: &ServeSpec) -> Result<(), String> {
    let (res, s) = (&slice.res, &slice.stats);
    let quota = (NODES * spec.rounds) as u64;
    if res.cs_completed != quota || s.batches != quota || res.censored != 0 {
        return Err(format!(
            "quota {quota}: {} critical sections, {} batches, {} censored",
            res.cs_completed, s.batches, res.censored
        ));
    }
    let queued = s
        .admitted
        .checked_sub(s.batched_reqs)
        .ok_or("more requests batched than admitted")?;
    let inflight = s
        .batched_reqs
        .checked_sub(s.served)
        .ok_or("more requests served than batched")?;
    check_conservation(s, queued, inflight)?;
    if inflight != 0 {
        return Err(format!("{inflight} requests still in flight after the run"));
    }
    let configured = NODES as f64 * spec.cfg.rate_hz;
    if (slice.offered_rps / configured - 1.0).abs() > 0.10 {
        return Err(format!(
            "offered {:.1} req/s is not the configured {configured:.1}",
            slice.offered_rps
        ));
    }
    Ok(())
}

/// Every per-slice metric, end-to-end and per-layer, by name.
fn slice_values(slice: &ServeSlice, spec: &ServeSpec) -> Values {
    let (res, s) = (&slice.res, &slice.stats);
    let served = s.served as f64;
    let cs = res.cs_completed as f64;
    let ms = |f: &dyn Fn(&mra_sim::ReqRecord) -> Option<mra_types::Time>| -> Vec<f64> {
        res.records
            .iter()
            .filter_map(f)
            .map(|t| t.as_millis_f64())
            .collect()
    };
    let grant = ms(&|r| r.serve_wait());
    let queue = ms(&|r| Some(r.issued - r.arrival));
    let wait = ms(&|r| r.wait());
    let hold = ms(&|r| Some(r.released? - r.granted?));
    let mean = mra_sim::stats::mean;

    let mut v = Values::new();
    v.insert("setup_s".into(), slice.wall_s - slice.active_s);
    v.insert("goodput_rps".into(), served / slice.active_s);
    v.insert("cpu_us_per_req".into(), 1e6 * slice.cpu_s / served);
    v.insert("grant_mean_ms".into(), mean(&grant));
    v.insert("grant_p99_ms".into(), percentile(&grant, 99.0));
    v.insert("msgs_per_cs".into(), res.msgs_per_cs());
    v.insert("use_rate".into(), res.use_rate());
    // Of the arrivals whose fate the run decided (some are still queued
    // when the quota is reached).
    v.insert("served_ratio".into(), served / (served + s.shed() as f64));

    let net = &res.obs.net;
    let frames = net.wire_frames_out() as f64;
    v.insert("net.frames_per_req".into(), frames / served);
    v.insert("net.bytes_per_req".into(), net.bytes_out as f64 / served);
    v.insert(
        "net.syscalls_per_frame".into(),
        net.syscalls_per_frame().unwrap_or(0.0),
    );
    v.insert(
        "net.frames_per_write".into(),
        net.frames_per_write().unwrap_or(0.0),
    );
    v.insert(
        "net.mesh_connect_ms".into(),
        1e3 * (slice.wall_s - slice.active_s),
    );
    v.insert("serve.queue_wait_p50_ms".into(), percentile(&queue, 50.0));
    v.insert("serve.queue_wait_p99_ms".into(), percentile(&queue, 99.0));
    v.insert(
        "serve.issue_to_grant_p50_ms".into(),
        percentile(&wait, 50.0),
    );
    v.insert(
        "serve.issue_to_grant_p99_ms".into(),
        percentile(&wait, 99.0),
    );
    v.insert("serve.hold_mean_ms".into(), mean(&hold));
    v.insert("serve.grant_p50_ms".into(), percentile(&grant, 50.0));
    v.insert(
        "serve.shed_ratio".into(),
        s.shed() as f64 / s.offered as f64,
    );
    v.insert(
        "serve.batch_mean".into(),
        s.batched_reqs as f64 / s.batches as f64,
    );
    v.insert("serve.offered_rps".into(), slice.offered_rps);
    let configured = NODES as f64 * spec.cfg.rate_hz;
    v.insert(
        "serve.offered_error_pct".into(),
        100.0 * (slice.offered_rps / configured - 1.0),
    );
    let bound = capacity_bound_rps(&spec.cfg, NODES);
    v.insert("serve.capacity_bound_rps".into(), bound);
    v.insert(
        "serve.capacity_share".into(),
        served / slice.active_s / bound,
    );
    insert_msgs_per_cs(&mut v, &res.msg_by_kind, cs);
    if let Some(layers) = &slice.layers {
        let (step_ns, step_share, wl_share) = layers.shares(slice.cpu_s);
        v.insert("core.step_ns".into(), step_ns);
        v.insert("core.step_share".into(), step_share);
        v.insert("serve.workload_share".into(), wl_share);
        v.insert("net.runtime_share".into(), 1.0 - step_share - wl_share);
    }
    v
}

/// Median over `slices` of each named per-slice value.
fn medians(per_slice: &[&Values], out: &mut Values) {
    let Some(first) = per_slice.first() else {
        return;
    };
    for name in first.keys() {
        let xs: Vec<f64> = per_slice.iter().map(|v| v[name]).collect();
        out.insert(name.clone(), median(&xs));
    }
}

/// Run a serving workload for `seconds`.  Untraced: the end-to-end
/// metrics.  Traced: slices alternate bare and `Timed`-wrapped fleets and
/// the workload-derived per-layer metrics come out.
pub fn run(
    spec: &ServeSpec,
    seconds: f64,
    traced: bool,
    rec: &mut Recorder,
    run_span: SpanId,
) -> Result<Outcome, String> {
    let mut spanned = false;
    let (slices, first_slice_s) = run_slices(rec, run_span, seconds, |rec, span, idx| {
        let wrap = traced && idx.is_some_and(|i| i % 2 == 1);
        let mut spec = spec.clone();
        spec.cfg.seed = slice_seed(spec.cfg.seed, idx);
        let slice = serve_slice(&spec, wrap)?;
        check(&slice, &spec)?;
        if wrap && !spanned {
            spanned = true;
            // Record times count from the cluster's epoch, which
            // `run_tcp_cluster` sets within a few hundred µs of the slice
            // span's start.
            let base = rec.spans[span].start_ns;
            record_requests(rec, span, &slice.res.records, base, "wall");
        }
        Ok(slice)
    })?;

    let values: Vec<Values> = slices.iter().map(|s| slice_values(s, spec)).collect();
    let of = |wrapped: bool| -> Vec<&Values> {
        slices
            .iter()
            .zip(&values)
            .filter(|(s, _)| s.layers.is_some() == wrapped)
            .map(|(_, v)| v)
            .collect()
    };
    let (bare, wrapped) = (of(false), of(true));
    let mut v = Values::new();
    // Layer clocks first, so that bare slices have the last word on every
    // metric both kinds of slice produce.
    medians(&wrapped, &mut v);
    medians(&bare, &mut v);
    if !wrapped.is_empty() {
        let traced_cost: Vec<f64> = wrapped.iter().map(|x| x["cpu_us_per_req"]).collect();
        let overhead = 100.0 * (median(&traced_cost) / v["cpu_us_per_req"] - 1.0);
        v.insert("bench.span_overhead_pct".into(), overhead);
        let times = rec.self_times();
        let (total, own) = times.get(&("request", "wall")).copied().unwrap_or((1, 0));
        v.insert(
            "serve.budget_residual_pct".into(),
            100.0 * own as f64 / total as f64,
        );
    }
    let walls: Vec<f64> = slices.iter().map(|s| s.wall_s).collect();
    v.insert("bench.slice_spread_pct".into(), spread_pct(&walls));
    v.insert("bench.first_slice_s".into(), first_slice_s);
    v.insert("bench.slices".into(), slices.len() as f64);

    let admitted: u64 = slices.iter().map(|s| s.stats.admitted).sum();
    let samples = slices[0].res.records.len();
    let high_water = slices
        .iter()
        .map(|s| s.stats.depth_high_water)
        .max()
        .unwrap_or(0);
    let shedding = slices.iter().filter(|s| s.stats.shed() > 0).count();
    let worst_ms = slices
        .iter()
        .flat_map(|s| s.res.records.iter().filter_map(|r| r.serve_wait()))
        .max()
        .map_or(0.0, |t| t.as_millis_f64());
    Ok(Outcome {
        values: v,
        // A shed arrival is the admission queue's specified answer to
        // overload and is reported as `served_ratio`; the operations the
        // run attempts are the requests the queue admitted.
        attempted: admitted,
        notes: vec![
            format!(
                "{} timed slices ({} bare), median wall {:.4} s, slice spread {:.2} % (IQR/median of wall)",
                slices.len(),
                bare.len(),
                median(&walls),
                spread_pct(&walls)
            ),
            format!(
                "per slice: latency over {samples} batch-head samples on the wall clock; deepest \
                 admission queue {high_water}, {shedding} slices shed, worst grant latency {worst_ms:.1} ms"
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_of_a_run_get_distinct_reproducible_seeds() {
        let seeds: Vec<u64> = (0..12).map(|i| slice_seed(7, Some(i))).collect();
        let mut unique = seeds.clone();
        unique.push(slice_seed(7, None));
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 13);
        assert_eq!(seeds[3], slice_seed(7, Some(3)));
        assert_ne!(seeds[3], slice_seed(8, Some(3)));
    }

    #[test]
    fn capacity_bound_of_the_default_shape() {
        // m = 16, sizes 1..=3 held 0.5 / 1.25 / 2 ms: 3 resource-ms per
        // request on average, so resources cap the fleet at 16 / 3 ms.
        let cfg = ServeConfig::default();
        let bound = capacity_bound_rps(&cfg, NODES);
        assert!((bound - 16.0 / 0.003).abs() < 1e-6, "{bound}");
        // With one-request batches on one node the node is the bottleneck:
        // one 1.25 ms hold at a time.
        let single = ServeConfig {
            max_batch: 1,
            ..cfg
        };
        assert!((capacity_bound_rps(&single, 1) - 800.0).abs() < 1e-6);
    }

    #[test]
    fn a_short_slice_passes_its_checks_and_fills_the_budget() {
        let mut spec = mid(11);
        spec.rounds = 20;
        spec.cfg.rate_hz = 1500.0;
        let slice = serve_slice(&spec, true).unwrap();
        check(&slice, &spec).unwrap();
        let v = slice_values(&slice, &spec);
        assert!(v["goodput_rps"] > 0.0 && v["grant_p99_ms"] >= v["serve.grant_p50_ms"]);
        assert!(v["core.step_share"] > 0.0 && v["net.runtime_share"] < 1.0);
        let mut rec = Recorder::new();
        let span = rec.add("slice", None, 0, (slice.wall_s * 1e9) as u64, None, "wall");
        record_requests(&mut rec, span, &slice.res.records, 0, "wall");
        assert_eq!(rec.self_times()[&("request", "wall")].1, 0);
        // A quota the cluster did not fill is an error, not a metric.
        spec.rounds += 1;
        assert!(check(&slice, &spec).is_err());
    }
}

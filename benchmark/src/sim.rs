//! The two simulator workloads: `sim-paper` and `sim-scale`.
//!
//! A slice builds the LASS+loan fleet and the paper's workload for the
//! run's seed and calls `Sim::run` once.  Every slice of a run simulates
//! the same thing, so its outputs must be bit-identical (checked by
//! digest) and only the clocks differ.  Rates use the **median** slice: on
//! the shared host the undisturbed state is the rare one (clusters of
//! slices run ~15 % faster than the rest), so the fastest slice measures
//! whether a run caught such a moment, not the program — see the README
//! for the numbers.

use crate::catalog::{insert_msgs_per_cs, Values};
use crate::estimate::{median, min, spread_pct};
use crate::slices::{run_slices, Outcome};
use crate::spans::{record_requests, Recorder, SpanId};
use crate::timed::{Layers, Tap, Timed, TimedWorkload};
use mra_core::{Lass, LassConfig};
use mra_net::sys::process_cpu_time;
use mra_protocol::Allocator;
use mra_sim::{RunResult, Sim, WaitStats, Workload};
use mra_types::Time;
use mra_workloads::{Load, PaperWorkload, Scenario};
use std::time::Instant;

/// `sim-paper`: the paper's own experiment — 32 nodes × 80 resources,
/// φ = 16, high load, 500 simulated seconds on the sequential engine.
/// The drain is long enough for the slowest request to finish, so a
/// censored request is a liveness failure, not a window artefact.
pub fn paper_scenario(seed: u64) -> Scenario {
    let mut sc = Scenario::paper(Load::High, 16, seed);
    sc.warmup = Time::from_secs(10);
    sc.measure = Time::from_secs(500);
    sc.drain = Time::from_secs(60);
    sc.shards = Some(1);
    sc
}

/// `sim-scale`: 10 000 nodes × 100 000 resources (φ = 4, medium load),
/// 100 simulated ms, two shards — sparse tables, node construction and the
/// shard window dominate.
pub fn scale_scenario(seed: u64) -> Scenario {
    let mut sc = Scenario::large(10_000, 100_000, seed);
    sc.measure = Time::from_millis(100);
    sc.shards = Some(2);
    sc
}

/// The LASS+loan fleet exactly as `mra_workloads::run` builds it.
pub fn lass_loan_nodes(sc: &Scenario) -> Vec<Lass> {
    let mut cfg = LassConfig::with_loan(sc.n, sc.m);
    cfg.policy = sc.policy;
    cfg.loan = Some(sc.loan_threshold);
    cfg.build_nodes()
}

/// What the benchmark keeps of one executed slice.  The `RunResult` itself
/// is dropped as soon as it is summarized: at 100 000 resources every
/// request record carries a 12 KB set, and a run that kept them all would
/// be measuring its own bookkeeping.
pub struct SimSlice {
    pub digest: u64,
    pub censored: u64,
    pub issued: u64,
    pub completed: u64,
    pub events: u64,
    pub shard_events: Vec<u64>,
    pub msgs_per_cs: f64,
    pub msg_by_kind: Vec<(&'static str, u64)>,
    pub use_rate: f64,
    /// Arrival → grant on the simulated clock.
    pub latency: WaitStats,
    /// Building nodes, workloads and the `Sim`.
    pub setup_s: f64,
    /// `Sim::run`, as the engine timed it.
    pub wall_s: f64,
    /// Process CPU time over `Sim::run`.
    pub cpu_s: f64,
    /// Time inside the allocator / workload hooks (traced slices only).
    pub layers: Option<Layers>,
}

fn drive<A: Allocator + Send, W: Workload>(
    nodes: Vec<A>,
    workloads: Vec<W>,
    sc: &Scenario,
    started: Instant,
) -> (SimSlice, RunResult) {
    let sim = Sim::new(nodes, workloads, sc.m, sc.sim_config());
    let setup_s = started.elapsed().as_secs_f64();
    let cpu0 = process_cpu_time();
    let res = sim.run();
    let cpu_s = process_cpu_time().saturating_sub(cpu0).as_secs_f64();
    let slice = SimSlice {
        digest: digest(&res),
        censored: res.censored,
        issued: res.records.len() as u64,
        completed: res.cs_completed,
        events: res.events_processed,
        shard_events: res.shard_events.clone(),
        msgs_per_cs: res.msgs_per_cs(),
        msg_by_kind: res.msg_by_kind.clone(),
        use_rate: res.use_rate(),
        latency: res.serve_stats(),
        setup_s,
        wall_s: res.wall_ns as f64 / 1e9,
        cpu_s,
        layers: None,
    };
    (slice, res)
}

/// Build and run one slice; `traced` wraps the fleet in the `Timed`
/// wrappers (and copies messages into `tap`, if given).
pub fn sim_slice(
    sc: &Scenario,
    traced: bool,
    tap: Option<&Tap<mra_core::LassMsg>>,
) -> (SimSlice, RunResult) {
    let started = Instant::now();
    let nodes = lass_loan_nodes(sc);
    let workloads = PaperWorkload::per_node(sc, sc.n);
    if !traced {
        return drive(nodes, workloads, sc, started);
    }
    let layers = Layers::default();
    let (mut slice, res) = drive(
        Timed::fleet(nodes, &layers.alloc, tap),
        TimedWorkload::fleet(workloads, &layers.workload),
        sc,
        started,
    );
    slice.layers = Some(layers);
    (slice, res)
}

/// An order-sensitive digest of everything a run produced: the counters,
/// the per-kind message counts and an FNV-1a fold over the canonical
/// per-request records.  Equal digests mean the same requests were issued
/// and granted at the same simulated nanoseconds.
pub fn digest(r: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    fold(r.cs_completed);
    fold(r.events_processed);
    fold(r.msgs_total);
    fold(r.msg_weight);
    for (kind, count) in &r.msg_by_kind {
        kind.bytes().for_each(|b| fold(u64::from(b)));
        fold(*count);
    }
    for rec in &r.records {
        fold(rec.node as u64);
        fold(rec.size as u64);
        fold(rec.issued.as_nanos());
        fold(rec.granted.map_or(u64::MAX, |t| t.as_nanos()));
        fold(rec.released.map_or(u64::MAX, |t| t.as_nanos()));
    }
    h
}

/// Check a slice against the run's first one: same digest, same censored
/// count, nothing censored, every issued request completed.
fn check(slice: &SimSlice, reference: &mut Option<(u64, u64)>) -> Result<(), String> {
    let got = (slice.digest, slice.censored);
    let want = *reference.get_or_insert(got);
    if got != want {
        return Err(format!(
            "slices of one seed diverged: digest/censored {got:x?} vs the first slice's {want:x?}"
        ));
    }
    if slice.censored != 0 {
        return Err(format!(
            "{} requests were never granted within the drain",
            slice.censored
        ));
    }
    if slice.completed == 0 || slice.completed != slice.issued {
        return Err(format!(
            "{} of {} issued requests completed",
            slice.completed, slice.issued
        ));
    }
    Ok(())
}

/// Run a simulator workload for `seconds`.  Untraced: the end-to-end
/// metrics.  Traced: slices alternate bare and `Timed`-wrapped fleets and
/// the workload-derived per-layer metrics come out.
pub fn run(
    sc: &Scenario,
    seconds: f64,
    traced: bool,
    rec: &mut Recorder,
    run_span: SpanId,
) -> Result<Outcome, String> {
    let mut reference = None;
    let mut spanned = false;
    let (slices, first_slice_s) = run_slices(rec, run_span, seconds, |rec, span, idx| {
        let wrap = traced && idx.is_some_and(|i| i % 2 == 1);
        let (slice, res) = sim_slice(sc, wrap, None);
        check(&slice, &mut reference)?;
        let now = rec.now_ns();
        let run_ns = (slice.wall_s * 1e9) as u64;
        rec.add(
            "simnet.run",
            Some(span),
            now.saturating_sub(run_ns),
            now,
            None,
            "wall",
        );
        if wrap && !spanned {
            spanned = true;
            record_requests(rec, span, &res.records, 0, "sim");
        }
        Ok(slice)
    })?;

    let (bare, wrapped): (Vec<&SimSlice>, Vec<&SimSlice>) =
        slices.iter().partition(|s| s.layers.is_none());
    // Every slice simulated the same run (checked above); take the
    // simulated-clock outputs from the first.
    let one = &slices[0];
    let cs = one.completed as f64;
    let walls: Vec<f64> = bare.iter().map(|s| s.wall_s).collect();
    let cpus: Vec<f64> = bare.iter().map(|s| s.cpu_s).collect();
    let wall_s = median(&walls);
    let setups: Vec<f64> = slices.iter().map(|s| s.setup_s).collect();

    let mut v = Values::new();
    v.insert("setup_s".into(), median(&setups));
    v.insert("goodput_rps".into(), cs / wall_s);
    v.insert("cpu_us_per_req".into(), 1e6 * median(&cpus) / cs);
    v.insert("grant_mean_ms".into(), one.latency.mean_ms);
    v.insert("grant_p99_ms".into(), one.latency.p99_ms);
    v.insert("msgs_per_cs".into(), one.msgs_per_cs);
    v.insert("use_rate".into(), one.use_rate);
    v.insert("served_ratio".into(), cs / one.issued as f64);

    let events_per_s = one.events as f64 / wall_s;
    v.insert("simnet.events_per_s".into(), events_per_s);
    v.insert("bench.slice_spread_pct".into(), spread_pct(&walls));
    v.insert("bench.first_slice_s".into(), first_slice_s);
    v.insert("bench.slices".into(), slices.len() as f64);
    insert_msgs_per_cs(&mut v, &one.msg_by_kind, cs);
    if !wrapped.is_empty() {
        let shares: Vec<(f64, f64, f64)> = wrapped
            .iter()
            .map(|s| {
                s.layers
                    .as_ref()
                    .expect("wrapped slices carry clocks")
                    .shares(s.cpu_s)
            })
            .collect();
        let mid =
            |f: fn(&(f64, f64, f64)) -> f64| median(&shares.iter().map(f).collect::<Vec<_>>());
        let (step_share, wl_share) = (mid(|s| s.1), mid(|s| s.2));
        v.insert("core.step_ns".into(), mid(|s| s.0));
        v.insert("core.step_share".into(), step_share);
        v.insert("workloads.share".into(), wl_share);
        v.insert("simnet.engine_share".into(), 1.0 - step_share - wl_share);
        let traced_cpu: Vec<f64> = wrapped.iter().map(|s| s.cpu_s).collect();
        let overhead = 100.0 * (median(&traced_cpu) / median(&cpus) - 1.0);
        v.insert("bench.span_overhead_pct".into(), overhead);
    }

    let timed = slices.len() as u64;
    Ok(Outcome {
        values: v,
        attempted: timed * one.issued,
        notes: vec![
            format!(
                "{} timed slices ({} bare), median {:.4} s, fastest {:.4} s, slice spread {:.2} % \
                 (IQR/median of wall)",
                slices.len(),
                bare.len(),
                wall_s,
                min(&walls),
                spread_pct(&walls)
            ),
            format!(
                "per slice: {} events, {} critical sections, {:.0} events/s; latency over {} samples \
                 on the simulated clock",
                one.events, one.completed, events_per_s, one.latency.count
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Scenario {
        Scenario::builder()
            .nodes(6)
            .resources(12)
            .max_request_size(3)
            .load(Load::High)
            .seed(seed)
            .measure_secs(2.0)
            .shards(1)
            .build()
    }

    #[test]
    fn digest_is_stable_across_slices_and_sees_the_seed() {
        let (a, res) = sim_slice(&small(3), false, None);
        let (b, _) = sim_slice(&small(3), false, None);
        assert_eq!(a.digest, digest(&res));
        assert_eq!(a.digest, b.digest);
        let (other, _) = sim_slice(&small(4), false, None);
        assert_ne!(a.digest, other.digest);
    }

    #[test]
    fn timed_fleet_simulates_the_same_run() {
        let (bare, bare_res) = sim_slice(&small(5), false, None);
        let (wrapped, res) = sim_slice(&small(5), true, None);
        assert_eq!(bare.digest, wrapped.digest);
        assert_eq!(res.algo, bare_res.algo, "name() must pass through");
        let Layers {
            alloc,
            workload: wl,
        } = wrapped.layers.expect("traced slice carries clocks");
        assert!(
            alloc.calls() >= res.msgs_total,
            "every message is one timed call"
        );
        assert!(wl.calls() >= 2 * res.cs_completed);
        assert!(alloc.ns() > 0);
    }

    #[test]
    fn check_rejects_a_diverging_slice() {
        let (first, _) = sim_slice(&small(7), false, None);
        let mut reference = None;
        check(&first, &mut reference).unwrap();
        check(&first, &mut reference).unwrap();
        let (other, _) = sim_slice(&small(8), false, None);
        assert!(check(&other, &mut reference)
            .unwrap_err()
            .contains("diverged"));
    }

    #[test]
    fn a_short_run_yields_every_simulator_metric() {
        let mut rec = Recorder::new();
        let span = rec.open("run", None);
        let out = run(&small(9), 0.0, true, &mut rec, span).unwrap();
        for name in [
            "goodput_rps",
            "core.step_share",
            "simnet.engine_share",
            "workloads.share",
        ] {
            assert!(
                out.values[name].is_finite() && out.values[name] > 0.0,
                "{name}"
            );
        }
        let times = rec.self_times();
        assert_eq!(
            times[&("request", "sim")].1,
            0,
            "budget spans cover each request"
        );
    }
}

//! Fixed per-layer probes of the traced run.
//!
//! Each probe drives one layer through its public functions on inputs that
//! do not depend on which workload is being traced, so the same numbers
//! sit beside every workload's budget.  Micro-probes (nanosecond loops)
//! report the fastest of a few timed batches; engine probes the median of a
//! few short slices after an untimed first one, like the workloads.

use crate::catalog::{Values, BASELINES};
use crate::estimate::{median, min};
use crate::sim::{lass_loan_nodes, paper_scenario, scale_scenario, sim_slice};
use crate::spans::{Recorder, SpanId};
use crate::timed::Tap;
use mra_core::{LassConfig, LassMsg};
use mra_net::frame::{begin_frame, end_frame, FrameBuf};
use mra_net::sys::process_cpu_time;
use mra_net::{run_tcp_cluster, NetBackend, TcpClusterConfig};
use mra_obs::{LogHist, TraceMode};
use mra_protocol::testkit::EchoProbe;
use mra_protocol::{WireCodec, WireReader};
use mra_serve::{AdmissionQueue, ArrivalGen, Interarrival, ServeConfig, ServeReq};
use mra_sim::{FixedWorkload, LatencyModel, Sim, SimConfig, Workload};
use mra_types::{ResTable, ResourceSet, Time};
use mra_workloads::{Algorithm, PaperWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

/// Nanoseconds per call of `op`: the fastest of `reps` batches of `iters`
/// calls each.
fn fastest_ns(reps: usize, iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            (0..iters).for_each(&mut op);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    min(&batches)
}

/// `types`: the set algebra a LASS message handler does (clone, union,
/// disjointness) on the paper's 80-resource universe, and a lookup in the
/// sparse table a 100 000-resource node keeps.
fn types(v: &mut Values) {
    let a: ResourceSet = (0..80).step_by(2).collect();
    let b: ResourceSet = (0..80).step_by(3).collect();
    let c: ResourceSet = (1..80).step_by(6).collect();
    let ns = fastest_ns(5, 200_000, |_| {
        let mut u = black_box(&a).clone();
        u.union_with(black_box(&b));
        black_box(u.is_disjoint(black_box(&c)));
    });
    v.insert("types.dynset_union_ns".into(), ns);

    let mut table: ResTable<u64> = ResTable::new_with(100_000, |_| 0);
    let mut rng = StdRng::seed_from_u64(0x7AB1E);
    for _ in 0..20_000 {
        *table.get_or(rng.gen_range(0..100_000), |r| r as u64) += 1;
    }
    let ids: Vec<usize> = (0..4096).map(|_| rng.gen_range(0..100_000)).collect();
    let ns = fastest_ns(5, 400_000, |i| {
        black_box(table.get(black_box(ids[i % ids.len()])));
    });
    v.insert("types.restable_get_ns".into(), ns);
}

/// `baselines` (and `mutex` through them): events per second of the other
/// algorithm families on the paper shape — the engine-bound reference
/// beside LASS+loan.
fn baselines(v: &mut Values, seed: u64) {
    let algos = [
        Algorithm::Incremental,
        Algorithm::BouabdallahLaforest,
        Algorithm::Maddi,
        Algorithm::Central,
        Algorithm::LassNoLoan,
    ];
    let mut sc = paper_scenario(seed);
    sc.measure = Time::from_secs(40);
    sc.drain = Time::from_secs(10);
    for (family, algo) in BASELINES.iter().zip(algos) {
        let rates: Vec<f64> = (0..5)
            .map(|_| mra_workloads::run(algo, &sc).events_per_sec())
            .collect();
        v.insert(
            format!("baselines.{family}_events_per_s"),
            median(&rates[1..]),
        );
    }
}

/// `simnet`: the engine's ceiling — an echo protocol with near-zero
/// handler cost, so the event loop itself is what runs.
fn engine_floor(v: &mut Values) {
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let protos: Vec<EchoProbe> = (0..16).map(|me| EchoProbe::new(me, 4)).collect();
            let workloads: Vec<FixedWorkload> = (0..16)
                .map(|_| FixedWorkload {
                    think: Time::from_millis(1),
                    cs: Time::from_millis(1),
                    m: 4,
                    size: 1,
                })
                .collect();
            let mut cfg = SimConfig::quick(3);
            cfg.latency = LatencyModel::Constant(Time::from_micros(1));
            cfg.warmup = Time::ZERO;
            cfg.measure = Time::from_millis(40);
            cfg.drain = Time::ZERO;
            cfg.active_nodes = Some(0);
            cfg.shards = 1;
            Sim::new(protos, workloads, 4, cfg).run().events_per_sec()
        })
        .collect();
    v.insert("simnet.floor_events_per_s".into(), median(&rates[1..]));
}

/// `simnet` at scale: construction time and what the second shard buys at
/// 10 000 × 100 000 — one cold slice, then one shard and two.  Single
/// slices, so read the ratios to one digit.
fn shards(v: &mut Values, seed: u64) {
    let at = |k: usize| {
        let mut sc = scale_scenario(seed);
        sc.shards = Some(k);
        sim_slice(&sc, false, None).0
    };
    at(2);
    let (one, two) = (at(1), at(2));
    v.insert("simnet.build_s".into(), one.setup_s.min(two.setup_s));
    v.insert("simnet.shard_speedup".into(), one.wall_s / two.wall_s);
    v.insert("simnet.shard_cpu_ratio".into(), two.cpu_s / one.cpu_s);
    let (lo, hi) = two
        .shard_events
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &e| (lo.min(e), hi.max(e)));
    v.insert("simnet.shard_balance".into(), lo as f64 / hi.max(1) as f64);
}

/// `protocol`: encode + decode of the message mix LASS actually produces
/// (copied off a short traced paper run), per message.
fn codec(v: &mut Values, seed: u64) -> Result<(), String> {
    let tap: Tap<LassMsg> = Tap::default();
    let mut sc = paper_scenario(seed);
    sc.measure = Time::from_secs(5);
    sc.drain = Time::from_secs(10);
    sim_slice(&sc, true, Some(&tap));
    let msgs = std::mem::take(&mut *tap.lock().unwrap_or_else(|e| e.into_inner()));
    if msgs.is_empty() {
        return Err("the codec probe saw no LASS messages".into());
    }
    let mut buf = Vec::with_capacity(4096);
    let mut broken = false;
    let ns = fastest_ns(5, 100_000, |i| {
        let msg = &msgs[i % msgs.len()];
        buf.clear();
        msg.encode(&mut buf);
        let back = LassMsg::decode(&mut WireReader::new(black_box(&buf)));
        broken |= back.is_err();
        black_box(&back);
    });
    if broken {
        return Err("a LASS message did not survive encode + decode".into());
    }
    v.insert("protocol.codec_ns_per_msg".into(), ns);
    Ok(())
}

/// `net` framing: write 1024 small frames into one buffer, then feed them
/// back through the incremental decoder in read-sized chunks; per frame.
fn framing(v: &mut Values) -> Result<(), String> {
    const FRAMES: usize = 1024;
    let payload = [0xA5u8; 40];
    let mut wire = Vec::new();
    let mut frame = Vec::new();
    let mut scratch = Vec::new();
    let mut decoded = 0usize;
    let ns = fastest_ns(5, 40, |_| {
        wire.clear();
        for _ in 0..FRAMES {
            begin_frame(&mut frame);
            frame.extend_from_slice(black_box(&payload));
            end_frame(&mut frame, 1);
            wire.extend_from_slice(&frame);
        }
        let mut rx = FrameBuf::new();
        let mut src = Cursor::new(&wire[..]);
        while rx.read_from(&mut src).is_ok_and(|n| n > 0) {
            while let Ok(Some(tag)) = rx.next_frame_into(&mut scratch) {
                decoded += usize::from(tag);
            }
        }
    });
    if decoded != 5 * 40 * FRAMES {
        return Err(format!(
            "frame probe decoded {decoded} of {} frames",
            5 * 40 * FRAMES
        ));
    }
    v.insert("net.frame_codec_ns".into(), ns / FRAMES as f64);
    Ok(())
}

/// `net` under load: a 4-node closed loop with 20 µs think and hold, so
/// the transport — not the hold time — sets the pace.
fn closed_loop(v: &mut Values, seed: u64) {
    const N: usize = 4;
    const M: usize = 16;
    const ROUNDS: usize = 600;
    let mut cpu_per_frame = Vec::new();
    let mut cs_per_s = Vec::new();
    for slice in 0..6 {
        let workloads: Vec<FixedWorkload> = (0..N)
            .map(|_| FixedWorkload {
                think: Time::from_micros(20),
                cs: Time::from_micros(20),
                m: M,
                size: 3,
            })
            .collect();
        let cfg = TcpClusterConfig {
            backend: NetBackend::Reactor,
            ..TcpClusterConfig::new(ROUNDS, seed)
        };
        let cpu0 = process_cpu_time();
        let t0 = Instant::now();
        let res = run_tcp_cluster(LassConfig::with_loan(N, M).build_nodes(), workloads, M, cfg);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_us = process_cpu_time().saturating_sub(cpu0).as_secs_f64() * 1e6;
        if slice > 0 {
            cpu_per_frame.push(cpu_us / res.obs.net.wire_frames_out().max(1) as f64);
            cs_per_s.push(res.cs_completed as f64 / wall_s);
        }
    }
    v.insert("net.closed_cpu_us_per_frame".into(), median(&cpu_per_frame));
    v.insert("net.closed_cs_per_s".into(), median(&cs_per_s));
}

/// `serve` admission: `offer` into a fresh queue up to its depth bound,
/// and `pop_batch` (batch 4, scan 8) at queue depths 8 and 64.
fn admission(v: &mut Values, seed: u64) {
    let cfg = ServeConfig::default();
    let mut gen = ArrivalGen::new(
        Interarrival::Poisson {
            rate_hz: cfg.rate_hz,
        },
        cfg.shape.clone(),
        seed,
    );
    let pool: Vec<ServeReq> = (0..64).map(|_| gen.take()).collect();
    let queue_at = |depth: usize| {
        let mut q = AdmissionQueue::new(cfg.max_depth, cfg.classes, cfg.class_quota);
        pool[..depth].iter().for_each(|r| {
            q.offer(r.clone());
        });
        q
    };

    let mut feed = Vec::new();
    let offer_ns = min(&(0..200)
        .map(|_| {
            let mut q = queue_at(0);
            feed.clone_from(&pool);
            let t0 = Instant::now();
            for r in feed.drain(..) {
                black_box(q.offer(r));
            }
            t0.elapsed().as_nanos() as f64 / pool.len() as f64
        })
        .collect::<Vec<_>>());
    v.insert("serve.offer_ns".into(), offer_ns);

    for depth in [8usize, 64] {
        let mut queues: Vec<AdmissionQueue> = (0..256).map(|_| queue_at(depth)).collect();
        let mut popped = Vec::with_capacity(queues.len());
        let per_pop = min(&(0..40)
            .map(|_| {
                let t0 = Instant::now();
                for q in queues.iter_mut() {
                    popped.push(q.pop_batch(cfg.max_batch, cfg.batch_scan));
                }
                let ns = t0.elapsed().as_nanos() as f64 / queues.len() as f64;
                // Untimed: put the batches back so the depth holds.
                for (q, batch) in queues.iter_mut().zip(popped.drain(..)) {
                    batch.into_iter().for_each(|r| {
                        q.offer(r);
                    });
                }
                ns
            })
            .collect::<Vec<_>>());
        v.insert(format!("serve.pop_batch_ns_d{depth}"), per_pop);
    }
}

/// `obs`: what arming the ring tracer costs a paper run (median slice each
/// side, alternating), and one histogram record.
fn observability(v: &mut Values, seed: u64) {
    let mut sc = paper_scenario(seed);
    sc.measure = Time::from_secs(60);
    sc.drain = Time::from_secs(30);
    let wall = |mode: TraceMode| {
        let mut sim = Sim::new(
            lass_loan_nodes(&sc),
            PaperWorkload::per_node(&sc, sc.n),
            sc.m,
            sc.sim_config(),
        );
        sim.set_tracing(mode);
        sim.run().wall_ns as f64
    };
    wall(TraceMode::Off);
    let (mut off, mut ring) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        off.push(wall(TraceMode::Off));
        ring.push(wall(TraceMode::Ring(65_536)));
    }
    v.insert(
        "obs.trace_overhead_pct".into(),
        100.0 * (median(&ring) / median(&off) - 1.0),
    );

    let mut hist = LogHist::new();
    let ns = fastest_ns(5, 1_000_000, |i| {
        hist.record(black_box((i as u64).wrapping_mul(2_654_435_761) >> 8))
    });
    black_box(hist.count());
    v.insert("obs.loghist_record_ns".into(), ns);
}

/// `workloads`: one think-time draw plus one request draw of the paper's
/// generator (φ = 16 of 80 resources).
fn generator(v: &mut Values, seed: u64) {
    let mut wl = PaperWorkload::new(&paper_scenario(seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let ns = fastest_ns(5, 100_000, |_| {
        black_box(wl.think_time(&mut rng));
        black_box(wl.next_request(&mut rng));
    });
    v.insert("workloads.gen_ns_per_req".into(), ns);
}

/// Run every probe, one span each.
pub fn run_all(rec: &mut Recorder, parent: SpanId, seed: u64) -> Result<Values, String> {
    let mut v = Values::new();
    let p = Some(parent);
    rec.within("probe.types", p, |_, _| types(&mut v));
    rec.within("probe.baselines", p, |_, _| baselines(&mut v, seed));
    rec.within("probe.simnet_floor", p, |_, _| engine_floor(&mut v));
    rec.within("probe.simnet_shards", p, |_, _| shards(&mut v, seed));
    rec.within("probe.protocol_codec", p, |_, _| codec(&mut v, seed))?;
    rec.within("probe.net_framing", p, |_, _| framing(&mut v))?;
    rec.within("probe.net_closed_loop", p, |_, _| closed_loop(&mut v, seed));
    rec.within("probe.serve_admission", p, |_, _| admission(&mut v, seed));
    rec.within("probe.obs", p, |_, _| observability(&mut v, seed));
    rec.within("probe.workloads", p, |_, _| generator(&mut v, seed));
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_probes_report_positive_times() {
        let mut v = Values::new();
        types(&mut v);
        framing(&mut v).unwrap();
        admission(&mut v, 5);
        generator(&mut v, 5);
        for (name, value) in &v {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        assert_eq!(v.len(), 7);
    }

    #[test]
    fn fastest_ns_divides_by_the_iteration_count() {
        let mut calls = 0;
        let ns = fastest_ns(3, 10, |_| calls += 1);
        assert_eq!(calls, 30);
        assert!(ns >= 0.0);
    }
}

//! Property-based tests of the discrete-event simulator itself: for
//! arbitrary latency models, workload parameters and seeds, runs are
//! deterministic, conserve requests, and never violate safety (monitored
//! inside the engine).

use mra_baselines::Incremental;
use mra_core::LassConfig;
use mra_sim::{FixedWorkload, LatencyModel, Sim, SimConfig};
use mra_types::Time;
use proptest::prelude::*;

fn workloads(n: usize, m: usize, size: usize, think_us: u64, cs_us: u64) -> Vec<FixedWorkload> {
    (0..n)
        .map(|_| FixedWorkload {
            think: Time::from_micros(think_us),
            cs: Time::from_micros(cs_us),
            m,
            size,
        })
        .collect()
}

fn latency_strategy() -> impl Strategy<Value = LatencyModel> {
    prop_oneof![
        Just(LatencyModel::Zero),
        (10u64..2000).prop_map(|us| LatencyModel::Constant(Time::from_micros(us))),
        (10u64..500, 500u64..3000).prop_map(|(lo, hi)| LatencyModel::Uniform {
            lo: Time::from_micros(lo),
            hi: Time::from_micros(hi),
        }),
    ]
}

fn quick_cfg(seed: u64, latency: LatencyModel) -> SimConfig {
    SimConfig {
        latency,
        seed,
        warmup: Time::from_millis(20),
        measure: Time::from_millis(300),
        drain: Time::from_millis(400),
        active_nodes: None,
        max_events: 50_000_000,
        ..SimConfig::quick(seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the latency model and parameters: the run completes, the
    /// metrics are internally consistent and safety held throughout.
    #[test]
    fn lass_runs_under_any_latency(
        seed in any::<u64>(),
        latency in latency_strategy(),
        n in 2usize..6,
        m in 2usize..10,
        size in 1usize..4,
        think_us in 100u64..3000,
        cs_us in 100u64..3000,
    ) {
        let size = size.min(m);
        let cfg = LassConfig::with_loan(n, m);
        let res = Sim::new(
            cfg.build_nodes(),
            workloads(n, m, size, think_us, cs_us),
            m,
            quick_cfg(seed, latency),
        )
        .run();
        prop_assert!(res.cs_completed > 0);
        let u = res.use_rate();
        prop_assert!((0.0..=1.0).contains(&u), "use rate {u}");
        // Every granted record has grant ≥ issue and release ≥ grant.
        for rec in &res.records {
            if let Some(g) = rec.granted {
                prop_assert!(g >= rec.issued);
                if let Some(e) = rec.released {
                    prop_assert!(e >= g);
                }
            }
        }
        // cs_completed counts exactly the granted+released in-window issues.
        let counted = res
            .records
            .iter()
            .filter(|r| r.granted.is_some() && r.released.is_some())
            .count() as u64;
        prop_assert!(res.cs_completed <= counted + res.censored + 64);
    }

    /// Determinism: identical seeds give byte-identical metrics, for any
    /// algorithm and latency.
    #[test]
    fn determinism_under_any_latency(seed in any::<u64>(), jitter in any::<bool>()) {
        let latency = if jitter {
            LatencyModel::Uniform {
                lo: Time::from_micros(50),
                hi: Time::from_millis(2),
            }
        } else {
            LatencyModel::paper_lan()
        };
        let go = || {
            let res = Sim::new(
                Incremental::build_nodes(4, 6),
                workloads(4, 6, 2, 500, 800),
                6,
                quick_cfg(seed, latency.clone()),
            )
            .run();
            (res.cs_completed, res.msgs_total, res.msg_weight)
        };
        prop_assert_eq!(go(), go());
    }

    /// The use rate can never exceed the workload ceiling
    /// n·size / m (at most n·size of m resources ever in use).
    #[test]
    fn use_rate_bounded_by_structure(seed in any::<u64>(), n in 2usize..5, m in 4usize..10) {
        let size = 2usize.min(m);
        let cfg = LassConfig::without_loan(n, m);
        let res = Sim::new(
            cfg.build_nodes(),
            workloads(n, m, size, 100, 2000),
            m,
            quick_cfg(seed, LatencyModel::Zero),
        )
        .run();
        let ceiling = (n * size) as f64 / m as f64;
        prop_assert!(
            res.use_rate() <= ceiling + 1e-9,
            "use rate {} above structural ceiling {}",
            res.use_rate(),
            ceiling
        );
    }
}

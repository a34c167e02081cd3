//! Property-based tests: LASS is safe and live for *arbitrary* system
//! shapes, configurations and interleavings, and the `/` relation is a
//! strict total order for arbitrary marks.

use mra_core::{precedes, Lass, LassConfig, SchedulingPolicy};
use mra_protocol::testkit::{check_schedules, ExerciseCfg, VirtualNet};
use mra_types::ResourceSet;
use proptest::prelude::*;

fn policy_strategy() -> impl Strategy<Value = SchedulingPolicy> {
    prop_oneof![
        Just(SchedulingPolicy::AvgNonZero),
        Just(SchedulingPolicy::MaxNonZero),
        Just(SchedulingPolicy::SumNonZero),
        Just(SchedulingPolicy::MinNonZero),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: any configuration, any interleaving — every
    /// request completes, exclusivity always holds, and at quiescence each
    /// token exists exactly once.
    #[test]
    fn lass_safe_live_any_config(
        seed in any::<u64>(),
        n in 2usize..6,
        m in 1usize..9,
        loan in prop_oneof![Just(None), Just(Some(1)), Just(Some(2))],
        policy in policy_strategy(),
        single in any::<bool>(),
        stop_fwd in any::<bool>(),
        shortcut in any::<bool>(),
        elected in 0usize..4,
    ) {
        let cfg = LassConfig {
            n,
            m,
            elected: elected % n,
            policy,
            loan,
            opt_single_resource: single,
            opt_stop_forwarding: stop_fwd,
            opt_shortcut_on_counter: shortcut,
        };
        let ex = ExerciseCfg {
            rounds_per_node: 4,
            max_req_size: m.min(4),
            m,
            hold_steps: 2,
            active_nodes: None,
            step_cap: 2_000_000,
        };
        check_schedules(&VirtualNet::new(cfg.build_nodes(), m), &ex, [seed], |net, _| {
            // Token uniqueness at quiescence (lemmas 1-3 of the proof annex).
            assert_eq!(net.in_flight(), 0);
            let mut union = ResourceSet::new();
            let mut total = 0usize;
            for i in 0..n {
                let owned = net.node(i).owned();
                assert!(union.is_disjoint(&owned), "token owned twice");
                union.union_with(&owned);
                total += owned.len();
            }
            assert_eq!(total, m, "token lost");

            // Nobody is left lending or borrowing.
            for i in 0..n {
                assert!(net.node(i).lent().is_empty(), "node {i} still lends");
                let node: &Lass = net.node(i);
                for r in node.owned().iter() {
                    assert_eq!(node.token(r).lender, None, "node {i} still borrows");
                }
            }
        });
    }

    /// `/` (definition 1) is a strict total order for any marks ≥ 0.
    #[test]
    fn precedes_total_order(
        marks in proptest::collection::vec((0.0f64..1e12, 0usize..64), 3..12)
    ) {
        // Irreflexivity.
        for &(m, s) in &marks {
            prop_assert!(!precedes(m, s, m, s));
        }
        // Trichotomy: exactly one of a/b, b/a, a==b.
        for &(ma, a) in &marks {
            for &(mb, b) in &marks {
                let eq = ma == mb && a == b;
                let ab = precedes(ma, a, mb, b);
                let ba = precedes(mb, b, ma, a);
                prop_assert_eq!(1, eq as u8 + ab as u8 + ba as u8);
            }
        }
        // Transitivity.
        for &(ma, a) in &marks {
            for &(mb, b) in &marks {
                for &(mc, c) in &marks {
                    if precedes(ma, a, mb, b) && precedes(mb, b, mc, c) {
                        prop_assert!(precedes(ma, a, mc, c));
                    }
                }
            }
        }
    }

    /// Counter values handed out for one resource are unique across the
    /// whole run: requests are never confused (the heart of §3.3.1).
    #[test]
    fn counter_values_grow_monotonically(seed in any::<u64>()) {
        let cfg = LassConfig::without_loan(4, 3);
        let ex = ExerciseCfg {
            rounds_per_node: 5,
            max_req_size: 3,
            m: 3,
            hold_steps: 2,
            active_nodes: None,
            step_cap: 2_000_000,
        };
        check_schedules(&VirtualNet::new(cfg.build_nodes(), 3), &ex, [seed], |net, _| {
            // At quiescence the owner's counter is authoritative: it equals
            // 1 + (number of values handed out), and every handed-out value
            // was unique by construction (only the holder increments).  We
            // verify the owner's counter is strictly the max over all
            // snapshots.
            for r in 0..3 {
                let owner_counter = (0..4)
                    .find(|&i| net.node(i).owned().contains(r))
                    .map(|i| net.node(i).token(r).counter)
                    .expect("token exists");
                for i in 0..4 {
                    assert!(net.node(i).token(r).counter <= owner_counter, "counter {r} regressed");
                }
            }
        });
    }
}

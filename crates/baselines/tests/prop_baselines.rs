//! Property-based tests for the baseline algorithms: arbitrary system
//! shapes and interleavings, same guarantees as the core algorithm —
//! safety (monitored), liveness (completion), token conservation.

use mra_baselines::{BouabdallahLaforest, Central, GrantPolicy, Incremental, Maddi};
use mra_protocol::testkit::{check_schedules, ExerciseCfg, VirtualNet};
use mra_protocol::Allocator;
use mra_types::ResourceSet;
use proptest::prelude::*;

/// Four rounds per active node under `seed`'s schedule (the harness
/// asserts every one completes), then `check` at quiescence.
fn exercise<A: Allocator + Clone>(
    nodes: Vec<A>,
    n_active: usize,
    m: usize,
    phi: usize,
    seed: u64,
    mut check: impl FnMut(&mut VirtualNet<A>),
) where
    A::Msg: Clone,
{
    let cfg = ExerciseCfg {
        rounds_per_node: 4,
        max_req_size: phi.min(m),
        m,
        hold_steps: 2,
        active_nodes: Some(n_active),
        step_cap: 2_000_000,
    };
    check_schedules(&VirtualNet::new(nodes, m), &cfg, [seed], |net, _| check(net));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn incremental_safe_live(seed in any::<u64>(), n in 2usize..6, m in 2usize..9, phi in 1usize..5) {
        exercise(Incremental::build_nodes(n, m), n, m, phi, seed, |net| {
            // After quiescence no node still claims resources.
            for i in 0..n {
                assert!(net.node(i).acquired().is_empty(), "acquired set not cleared");
            }
        });
    }

    #[test]
    fn bouabdallah_laforest_safe_live(seed in any::<u64>(), n in 2usize..6, m in 2usize..9, phi in 1usize..5) {
        exercise(BouabdallahLaforest::build_nodes(n, m), n, m, phi, seed, |net| {
            // Resource tokens never duplicated across holders.
            let mut seen = ResourceSet::new();
            for i in 0..n {
                let h = net.node(i).held();
                assert!(seen.is_disjoint(&h), "duplicated resource token");
                seen.union_with(&h);
            }
        });
    }

    #[test]
    fn maddi_safe_live(seed in any::<u64>(), n in 2usize..6, m in 2usize..8, phi in 1usize..5) {
        exercise(Maddi::build_nodes(n, m), n, m, phi, seed, |net| {
            let mut seen = ResourceSet::new();
            let mut total = 0usize;
            for i in 0..n {
                let h = net.node(i).held();
                assert!(seen.is_disjoint(&h), "duplicated resource token");
                seen.union_with(&h);
                total += h.len();
            }
            assert_eq!(total, m, "every Maddi token exists exactly once");
        });
    }

    #[test]
    fn central_safe_live(seed in any::<u64>(), clients in 2usize..6, m in 2usize..9, phi in 1usize..5,
                         greedy in any::<bool>()) {
        let policy = if greedy { GrantPolicy::Greedy } else { GrantPolicy::Conservative };
        exercise(Central::build_nodes(clients, policy), clients, m, phi, seed, |_| {});
    }

    /// The central scheduler's core invariant under an arbitrary
    /// request/release trace: never over-allocates, conservative never
    /// lets a request overtake an earlier conflicting one.
    #[test]
    fn central_sched_never_overbooks(ops in proptest::collection::vec((0usize..6, proptest::collection::vec(0usize..8, 1..4)), 1..60)) {
        use mra_baselines::CentralSched;
        let mut sched = CentralSched::new(GrantPolicy::Conservative);
        let mut busy: Vec<Option<ResourceSet>> = vec![None; 6];
        let mut queued = [false; 6];
        let mut in_use = ResourceSet::new();
        let apply_grants = |grants: Vec<usize>,
                                busy: &mut Vec<Option<ResourceSet>>,
                                queued: &mut [bool; 6],
                                in_use: &mut ResourceSet,
                                requests: &std::collections::HashMap<usize, ResourceSet>| {
            for g in grants {
                let set = requests[&g].clone();
                //

                assert!(in_use.is_disjoint(&set), "over-allocation");
                in_use.union_with(&set);
                busy[g] = Some(set);
                queued[g] = false;
            }
        };
        let mut requests: std::collections::HashMap<usize, ResourceSet> = Default::default();
        for (node, rs) in ops {
            if busy[node].is_some() {
                // release
                let set = busy[node].take().expect("held");
                in_use.difference_with(&set);
                let grants = sched.release(node);
                apply_grants(grants, &mut busy, &mut queued, &mut in_use, &requests);
            } else if !queued[node] {
                let set: ResourceSet = rs.into_iter().collect();
                requests.insert(node, set.clone());
                queued[node] = true;
                let grants = sched.request(node, set);
                apply_grants(grants, &mut busy, &mut queued, &mut in_use, &requests);
            }
        }
        prop_assert_eq!(sched.in_use(), in_use);
    }
}

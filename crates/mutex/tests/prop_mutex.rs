//! Property-based tests of the mutual-exclusion substrates: mutual
//! exclusion, liveness and token conservation under arbitrary shapes and
//! interleavings.

use mra_mutex::{MutexAllocator, NaimiTrehel};
use mra_protocol::testkit::{check_schedules, ExerciseCfg, VirtualNet};
use proptest::prelude::*;

fn cfg(rounds: usize) -> ExerciseCfg {
    ExerciseCfg {
        rounds_per_node: rounds,
        max_req_size: 1,
        m: 1,
        hold_steps: 2,
        active_nodes: None,
        step_cap: 1_000_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn naimi_trehel_excludes(seed in any::<u64>(), n in 2usize..8, elected in 0usize..8) {
        let elected = elected % n;
        let nodes: Vec<_> = (0..n)
            .map(|i| {
                let mut nt = NaimiTrehel::new(i, elected);
                if i == elected {
                    nt.give_initial_token(());
                }
                MutexAllocator::new(nt, "nt")
            })
            .collect();
        check_schedules(&VirtualNet::new(nodes, 1), &cfg(4), [seed], |net, rep| {
            assert_eq!(rep.max_concurrency, 1);
            // Exactly one token survives.
            let holders = (0..n).filter(|&i| net.node(i).inner().holds_token()).count();
            assert_eq!(holders, 1, "token count");
        });
    }
}

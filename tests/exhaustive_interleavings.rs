//! Bounded model checking: explore **every** FIFO-consistent interleaving
//! of message deliveries and CS releases for small conflict scenarios, for
//! each algorithm.  Any safety violation panics inside the monitor; any
//! interleaving that strands a request panics at its leaf.
//!
//! This is the strongest correctness evidence in the suite: for these
//! scenario shapes the theorems of the paper's annex B (safety, deadlock
//! freedom) are verified *exhaustively*, not statistically.

use mra::baselines::{BouabdallahLaforest, Central, GrantPolicy, Incremental, Maddi};
use mra::core::LassConfig;
use mra::types::{NodeId, ResourceSet};
use mra_testkit::{explore_exhaustive, VirtualNet};

const BUDGET: u64 = 3_000_000;

fn pairwise_conflict() -> Vec<(NodeId, ResourceSet)> {
    // Three nodes, three resources, overlapping pairs: 0-1 conflict on r1,
    // 1-2 conflict on r2, plus r0 keeps node 0 and node 2 disjoint.
    vec![
        (0, [0, 1].into_iter().collect()),
        (1, [1, 2].into_iter().collect()),
        (2, [2].into_iter().collect()),
    ]
}

fn full_conflict() -> Vec<(NodeId, ResourceSet)> {
    // Everyone wants both resources: total serialization required.
    vec![
        (0, [0, 1].into_iter().collect()),
        (1, [0, 1].into_iter().collect()),
        (2, [0, 1].into_iter().collect()),
    ]
}

#[test]
fn lass_without_loan_pairwise() {
    let cfg = LassConfig::without_loan(3, 3);
    let net = VirtualNet::new(cfg.build_nodes(), 3);
    let rep = explore_exhaustive(&net, &pairwise_conflict(), BUDGET);
    assert!(!rep.truncated, "state budget too small: {} states", rep.states);
    assert!(rep.completions > 0);
}

#[test]
fn lass_with_loan_pairwise() {
    let cfg = LassConfig::with_loan(3, 3);
    let net = VirtualNet::new(cfg.build_nodes(), 3);
    let rep = explore_exhaustive(&net, &pairwise_conflict(), BUDGET);
    assert!(!rep.truncated, "state budget too small: {} states", rep.states);
    assert!(rep.completions > 0);
}

#[test]
fn lass_with_loan_full_conflict() {
    let cfg = LassConfig::with_loan(3, 2);
    let net = VirtualNet::new(cfg.build_nodes(), 2);
    let rep = explore_exhaustive(&net, &full_conflict(), BUDGET);
    assert!(!rep.truncated, "state budget too small: {} states", rep.states);
    assert!(rep.completions > 0);
}

#[test]
fn lass_without_optimizations_pairwise() {
    let mut cfg = LassConfig::with_loan(3, 3);
    cfg.opt_single_resource = false;
    cfg.opt_stop_forwarding = false;
    cfg.opt_shortcut_on_counter = false;
    let net = VirtualNet::new(cfg.build_nodes(), 3);
    let rep = explore_exhaustive(&net, &pairwise_conflict(), BUDGET);
    assert!(!rep.truncated);
    assert!(rep.completions > 0);
}

#[test]
fn bouabdallah_laforest_pairwise_and_full() {
    let net = VirtualNet::new(BouabdallahLaforest::build_nodes(3, 3), 3);
    let rep = explore_exhaustive(&net, &pairwise_conflict(), BUDGET);
    assert!(!rep.truncated);
    assert!(rep.completions > 0);

    let net = VirtualNet::new(BouabdallahLaforest::build_nodes(3, 2), 2);
    let rep = explore_exhaustive(&net, &full_conflict(), BUDGET);
    assert!(!rep.truncated);
    assert!(rep.completions > 0);
}

#[test]
fn incremental_pairwise_and_full() {
    let net = VirtualNet::new(Incremental::build_nodes(3, 3), 3);
    let rep = explore_exhaustive(&net, &pairwise_conflict(), BUDGET);
    assert!(!rep.truncated);
    assert!(rep.completions > 0);

    let net = VirtualNet::new(Incremental::build_nodes(3, 2), 2);
    let rep = explore_exhaustive(&net, &full_conflict(), BUDGET);
    assert!(!rep.truncated);
    assert!(rep.completions > 0);
}

#[test]
fn maddi_pairwise() {
    let net = VirtualNet::new(Maddi::build_nodes(3, 3), 3);
    let rep = explore_exhaustive(&net, &pairwise_conflict(), BUDGET);
    assert!(!rep.truncated, "state budget too small: {} states", rep.states);
    assert!(rep.completions > 0);
}

#[test]
fn central_pairwise() {
    // 3 clients + coordinator (node 3).
    let net = VirtualNet::new(Central::build_nodes(3, GrantPolicy::Conservative), 3);
    let rep = explore_exhaustive(&net, &pairwise_conflict(), BUDGET);
    assert!(!rep.truncated);
    assert!(rep.completions > 0);
}

#[test]
fn two_node_duel_every_algorithm() {
    // The minimal conflict: both nodes want the same two resources in
    // opposite "natural" orders — the classic deadlock shape.
    let duel: Vec<(NodeId, ResourceSet)> = vec![
        (0, [0, 1].into_iter().collect()),
        (1, [0, 1].into_iter().collect()),
    ];
    let cfg = LassConfig::with_loan(2, 2);
    let rep = explore_exhaustive(&VirtualNet::new(cfg.build_nodes(), 2), &duel, BUDGET);
    assert!(!rep.truncated);
    let rep_bl = explore_exhaustive(
        &VirtualNet::new(BouabdallahLaforest::build_nodes(2, 2), 2),
        &duel,
        BUDGET,
    );
    assert!(!rep_bl.truncated);
    let rep_inc = explore_exhaustive(
        &VirtualNet::new(Incremental::build_nodes(2, 2), 2),
        &duel,
        BUDGET,
    );
    assert!(!rep_inc.truncated);
    let rep_mad =
        explore_exhaustive(&VirtualNet::new(Maddi::build_nodes(2, 2), 2), &duel, BUDGET);
    assert!(!rep_mad.truncated);
}

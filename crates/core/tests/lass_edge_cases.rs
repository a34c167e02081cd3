//! Scripted message-level edge cases of the LASS protocol: behaviors that
//! randomized runs hit rarely but that the paper's §4.2.1 (message
//! problems), §4.6 (optimizations) and the deviation fixes rely on.

use mra_core::{Lass, LassConfig, LassMsg, LoanReq, Request, ResReq};
use mra_protocol::{Allocator, Ctx, ProcState, WireMsg};
use mra_types::{NodeSet, ResourceSet};

fn ctxs(n: usize) -> Vec<Ctx<LassMsg>> {
    (0..n).map(|i| Ctx::new(i, n)).collect()
}

/// Deliver every outgoing message of `from`'s context, returning how many
/// were dispatched.
fn pump(nodes: &mut [Lass], ctxs: &mut [Ctx<LassMsg>], from: usize) -> usize {
    let total = ctxs.len();
    let out = ctxs[from].take_outbox();
    let n = out.len();
    for (to, msg) in out {
        let mut ctx = std::mem::replace(&mut ctxs[to], Ctx::new(to, total));
        nodes[to].on_message(&mut ctx, from, msg);
        ctxs[to] = ctx;
    }
    n
}

#[test]
fn duplicate_res_request_is_queued_once() {
    let cfg = LassConfig::without_loan(3, 2);
    let mut nodes = cfg.build_nodes();
    let mut c = ctxs(3);
    // Node 0 holds everything and uses resource 0.
    nodes[0].request(&mut c[0], ResourceSet::singleton(0));
    assert!(c[0].take_granted());
    // The same ReqRes arrives twice (e.g. once forwarded, once replayed
    // from a pending history).
    let rr = Request::Res(ResReq {
        r: 0,
        sinit: 1,
        id: 1,
        mark: 4.0,
    });
    for _ in 0..2 {
        nodes[0].on_message(
            &mut c[0],
            1,
            LassMsg::Requests {
                visited: NodeSet::singleton(1),
                reqs: vec![rr.clone()],
            },
        );
    }
    assert_eq!(nodes[0].token(0).w_queue.len(), 1, "deduplicated");
}

#[test]
fn obsolete_loan_request_is_dropped() {
    let cfg = LassConfig::with_loan(3, 2);
    let mut nodes = cfg.build_nodes();
    let mut c = ctxs(3);
    // Mark node 1's request id 3 as already satisfied in token 0.
    nodes[0].request(&mut c[0], ResourceSet::singleton(0));
    assert!(c[0].take_granted());
    nodes[0].release(&mut c[0]);
    // Inject: pretend node 1 finished CS id 3 (future ids must still work).
    let stale = Request::Loan(Box::new(LoanReq {
        r: 0,
        sinit: 1,
        id: 0, // ids start at 1, so 0 is trivially obsolete (≤ lastCS = 0)
        mark: 1.0,
        missing: ResourceSet::singleton(0),
    }));
    nodes[0].on_message(
        &mut c[0],
        1,
        LassMsg::Requests {
            visited: NodeSet::singleton(1),
            reqs: vec![stale],
        },
    );
    assert!(c[0].take_outbox().is_empty(), "no token leaves for a stale loan");
    assert!(nodes[0].owned().contains(0));
}

#[test]
fn counter_for_stale_request_id_is_ignored() {
    // [deviation 1] regression: a Counter that does not match the current
    // request id must not touch MyVector.
    let cfg = LassConfig::without_loan(2, 2);
    let mut nodes = cfg.build_nodes();
    let mut c = ctxs(2);
    nodes[1].request(&mut c[1], [0, 1].into_iter().collect());
    let _ = c[1].take_outbox(); // drop the ReqCnt batch: we inject manually
    // A stale counter (id 0 ≠ current id 1):
    nodes[1].on_message(
        &mut c[1],
        0,
        LassMsg::Counters(vec![mra_core::CounterVal { r: 0, val: 9, id: 0 }]),
    );
    assert_eq!(nodes[1].vector()[0], 0, "stale counter ignored");
    assert_eq!(nodes[1].state(), ProcState::WaitS);
    // The genuine counters (id 1) complete the phase.
    nodes[1].on_message(
        &mut c[1],
        0,
        LassMsg::Counters(vec![
            mra_core::CounterVal { r: 0, val: 3, id: 1 },
            mra_core::CounterVal { r: 1, val: 4, id: 1 },
        ]),
    );
    assert_eq!(nodes[1].vector(), &[3, 4]);
    assert_eq!(nodes[1].state(), ProcState::WaitCS);
    assert_eq!(nodes[1].mark(), 3.5, "avg of non-null counters");
}

#[test]
fn forwarding_stops_at_visited_nodes() {
    // §4.2.1: a request whose next hop is already in the visited set is
    // not forwarded (it survives in pending histories instead).
    let cfg = LassConfig::without_loan(3, 1);
    let mut nodes = cfg.build_nodes();
    let mut c = ctxs(3);
    // Move the token 0 → 2 so node 0 has tok_dir = 2... easiest: node 2
    // requests it.
    nodes[2].request(&mut c[2], ResourceSet::singleton(0));
    pump(&mut nodes, &mut c, 2);
    pump(&mut nodes, &mut c, 0); // token to 2
    assert!(c[2].take_granted());
    // Now node 1 sends node 0 a ReqRes whose visited set already contains
    // node 2 (node 0's father): node 0 must park it, not forward.
    let rr = Request::Res(ResReq {
        r: 0,
        sinit: 1,
        id: 1,
        mark: 2.0,
    });
    let visited: NodeSet = [1usize, 2usize].into_iter().collect();
    nodes[0].on_message(
        &mut c[0],
        1,
        LassMsg::Requests {
            visited,
            reqs: vec![rr],
        },
    );
    assert!(
        c[0].take_outbox().is_empty(),
        "request must not be forwarded into its own visited set"
    );
}

#[test]
fn yield_to_higher_priority_then_win_back() {
    // Dynamic scheduling in action: node 0 (waitCS, mark from average
    // counters) receives a ReqRes with a *smaller* mark and must yield,
    // queueing itself in the departing token.
    let cfg = LassConfig::without_loan(3, 3);
    let mut nodes = cfg.build_nodes();
    let mut c = ctxs(3);
    // Ship token 2 to node 2 so node 0's request for {0, 2} must wait.
    nodes[2].request(&mut c[2], ResourceSet::singleton(2));
    pump(&mut nodes, &mut c, 2);
    pump(&mut nodes, &mut c, 0);
    assert!(c[2].take_granted());
    // Node 0: requests {0, 2}; takes counter of 0 locally, asks 2's.
    nodes[0].request(&mut c[0], [0, 2].into_iter().collect());
    pump(&mut nodes, &mut c, 0); // ReqCnt to node 2
    pump(&mut nodes, &mut c, 2); // Counter back
    assert_eq!(nodes[0].state(), ProcState::WaitCS);
    pump(&mut nodes, &mut c, 0); // deliver node 0's ReqRes for r2 to node 2
    assert!(nodes[0].owned().contains(0));
    let my_mark = nodes[0].mark();
    // A strictly higher-priority request for resource 0 arrives.
    let urgent = Request::Res(ResReq {
        r: 0,
        sinit: 1,
        id: 1,
        mark: my_mark - 1.0,
    });
    nodes[0].on_message(
        &mut c[0],
        1,
        LassMsg::Requests {
            visited: NodeSet::singleton(1),
            reqs: vec![urgent],
        },
    );
    // Node 0 yielded token 0 and left its own request in the queue.
    assert!(!nodes[0].owned().contains(0));
    let out = c[0].take_outbox();
    assert_eq!(out.len(), 1);
    match &out[0].1 {
        LassMsg::Tokens(toks) => {
            assert_eq!(toks.len(), 1);
            assert_eq!(toks[0].w_queue.len(), 1);
            assert_eq!(toks[0].w_queue[0].sinit, 0, "yielder queued itself");
        }
        other => panic!("expected token, got {other:?}"),
    }
    assert_eq!(nodes[0].stats.yields, 1);
}

#[test]
fn aggregation_batches_same_destination() {
    // §4.2.2: both ReqCnt of one request travel in a single wire message.
    let cfg = LassConfig::without_loan(2, 4);
    let mut nodes = cfg.build_nodes();
    let mut c = ctxs(2);
    nodes[1].request(&mut c[1], [0, 1, 2, 3].into_iter().collect());
    let out = c[1].take_outbox();
    assert_eq!(out.len(), 1, "four ReqCnt → one message");
    match &out[0].1 {
        LassMsg::Requests { reqs, .. } => assert_eq!(reqs.len(), 4),
        other => panic!("unexpected {other:?}"),
    }
    assert!(out[0].1.weight() > 4);
}

#[test]
fn idle_token_arrival_does_not_grant() {
    // [deviation 4] regression: a token arriving while Idle must never
    // trigger a critical-section entry.
    let cfg = LassConfig::with_loan(2, 2);
    let mut nodes = cfg.build_nodes();
    let mut c = ctxs(2);
    // Construct a bare token for resource 0 and deliver it to the idle
    // node 1 (as a stale grant would).
    let token = nodes[0].token(0).clone();
    // Make node 0 lose ownership so the system stays consistent.
    nodes[1].on_message(&mut c[1], 0, LassMsg::Tokens(vec![Box::new(token)]));
    assert!(!c[1].take_granted(), "no CS entry while idle");
    assert_eq!(nodes[1].state(), ProcState::Idle);
    assert!(nodes[1].owned().contains(0), "token absorbed for later");
}

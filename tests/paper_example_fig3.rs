//! Reproduction of the paper's **Figure 3** execution example (§4.4):
//! three processes (s1, s2, s3 — our nodes 0, 1, 2) and two resources
//! (r_red = 0, r_blue = 1).
//!
//! * Initially s1 holds the red token and s3 the blue token, each in CS on
//!   its resource (Fig. 3(a));
//! * s2 requests *both*: it sends a `ReqCnt` per resource to its fathers,
//!   receives the two counter values, then sends `ReqRes` messages along
//!   the trees (Fig. 3(b));
//! * when s1 and s3 release, the tokens travel to s2, which enters its
//!   critical section and becomes the root of both trees (Fig. 3(c)).

use mra::core::{LassConfig, LassMsg};
use mra::protocol::ProcState;
use mra::types::ResourceSet;
use mra_testkit::{Schedule, VirtualNet};

const RED: usize = 0;
const BLUE: usize = 1;

/// Build the Fig. 3(a) initial state: s1 (node 0) in CS on red, s3
/// (node 2) in CS on blue, s3 holding the blue token.
fn fig3_initial() -> VirtualNet<mra::core::Lass> {
    let cfg = LassConfig::with_loan(3, 2);
    let mut net = VirtualNet::new(cfg.build_nodes(), 2);
    let mut schedule = Schedule::seeded(1);

    // s3 acquires blue (token migrates from the elected node 0).
    net.request(2, ResourceSet::singleton(BLUE));
    net.run_until_quiet(&mut schedule, 100);
    assert!(net.in_cs(2), "s3 in CS on blue");
    assert!(net.node(2).owned().contains(BLUE));

    // s1 acquires red locally.
    net.request(0, ResourceSet::singleton(RED));
    assert!(net.in_cs(0), "s1 in CS on red");
    assert!(net.node(0).owned().contains(RED));
    net
}

#[test]
fn fig3_walkthrough() {
    let mut net = fig3_initial();
    let mut schedule = Schedule::seeded(2);

    // Fig. 3(b): s2 asks for both resources.
    let both: ResourceSet = [RED, BLUE].into_iter().collect();
    net.request(1, both);
    assert_eq!(net.state(1), ProcState::WaitS, "s2 first collects counters");

    // The ReqCnt for red reaches s1 directly; for blue the father pointer
    // still names the elected node 0, which forwards to s3 — deliver
    // everything and let the counters come back.
    net.run_until_quiet(&mut schedule, 200);
    assert_eq!(
        net.state(1),
        ProcState::WaitCS,
        "both counters received, ReqRes sent"
    );
    // The requests are queued at the two holders.
    assert_eq!(net.node(0).token(RED).w_queue.len(), 1);
    assert_eq!(net.node(0).token(RED).w_queue[0].sinit, 1);
    assert_eq!(net.node(2).token(BLUE).w_queue.len(), 1);
    assert_eq!(net.node(2).token(BLUE).w_queue[0].sinit, 1);
    // Path shortcut: after the blue counter reply, s2's blue father is s3.
    assert_eq!(net.node(1).father(BLUE), Some(2));
    assert_eq!(net.node(1).father(RED), Some(0));

    // s1 exits its critical section: the red token goes to s2.
    net.release(0);
    net.run_until_quiet(&mut schedule, 100);
    assert!(net.node(1).owned().contains(RED));
    assert_eq!(net.state(1), ProcState::WaitCS, "still missing blue");

    // s3 exits: the blue token completes s2's request (Fig. 3(c)).
    net.release(2);
    net.run_until_quiet(&mut schedule, 100);
    assert!(net.in_cs(1), "s2 enters CS with both resources");
    assert!(net.node(1).owned().contains(RED) && net.node(1).owned().contains(BLUE));

    // Final topology: s2 is the root of both trees; the old holders point
    // to it.
    assert_eq!(net.node(1).father(RED), None);
    assert_eq!(net.node(1).father(BLUE), None);
    assert_eq!(net.node(0).father(RED), Some(1));
    assert_eq!(net.node(2).father(BLUE), Some(1));

    net.release(1);
    net.run_until_quiet(&mut schedule, 100);
}

#[test]
fn fig3_message_sequence_kinds() {
    // Check the wire-level narrative of §4.4: s2 emits ReqCnt first, then
    // Counter replies come back, then ReqRes go out.
    let cfg = LassConfig::with_loan(3, 2);
    let nodes = cfg.build_nodes();
    let mut ctxs: Vec<mra::protocol::Ctx<LassMsg>> =
        (0..3).map(|i| mra::protocol::Ctx::new(i, 3)).collect();
    let mut nodes = nodes;
    use mra::protocol::Allocator;

    // s3 takes blue via a scripted exchange.
    nodes[2].request(&mut ctxs[2], ResourceSet::singleton(BLUE));
    let (to, m) = ctxs[2].take_outbox().pop().unwrap();
    assert_eq!(to, 0);
    nodes[0].on_message(&mut ctxs[0], 2, m);
    let (to, m) = ctxs[0].take_outbox().pop().unwrap();
    assert_eq!(to, 2);
    nodes[2].on_message(&mut ctxs[2], 0, m);
    assert!(ctxs[2].take_granted());

    // s1 takes red locally.
    nodes[0].request(&mut ctxs[0], ResourceSet::singleton(RED));
    assert!(ctxs[0].take_granted());

    // s2 requests both: one aggregated Requests message to node 0 with two
    // ReqCnt entries.
    nodes[1].request(&mut ctxs[1], [RED, BLUE].into_iter().collect());
    let out = ctxs[1].take_outbox();
    assert_eq!(out.len(), 1);
    let (to, m) = out.into_iter().next().unwrap();
    assert_eq!(to, 0);
    match &m {
        LassMsg::Requests { reqs, .. } => {
            assert_eq!(reqs.len(), 2);
            assert!(reqs.iter().all(|r| r.kind() == "ReqCnt"));
        }
        other => panic!("expected ReqCnt batch, got {other:?}"),
    }
    // Node 0 answers the red counter and forwards the blue ReqCnt to s3.
    nodes[0].on_message(&mut ctxs[0], 1, m);
    let out = ctxs[0].take_outbox();
    assert_eq!(out.len(), 2, "one Counter reply + one forward");
    let kinds: Vec<(usize, &'static str)> = out
        .iter()
        .map(|(to, m)| {
            use mra::protocol::WireMsg;
            (*to, m.kind())
        })
        .collect();
    assert!(kinds.contains(&(1, "Counter")));
    assert!(kinds.contains(&(2, "ReqCnt")));
}

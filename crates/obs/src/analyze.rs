//! Trace analysis: causal-consistency checks and the message-cost
//! breakdown behind the `mra-trace` binary.
//!
//! The checks are deliberately structural — they hold for *any* correct
//! run of *any* of the six algorithms, under any fault plan:
//!
//! 1. **No recv before send** — every `recv` of stamp `s` on link
//!    `peer → node` must appear after a `send` or `retransmit` that
//!    minted `s` on that link, in canonical trace order.  Minted stamps
//!    start at 1, so a recv of stamp `0` matches no send and fails —
//!    except in an *unstamped* trace, one whose every recv has cause 0:
//!    real TCP does not stamp the wire yet (DESIGN.md §11.2), so there
//!    is no send to match against.  Sim and VirtualNet stamp every data
//!    frame, so one nonzero cause makes a trace stamped throughout.
//! 2. **Lamport monotonicity** — each node's clock is strictly
//!    increasing over its own events.  `fault-verdict` records are
//!    excluded: a dropped delivery is a network observation, not an
//!    event at the node, so it does not tick the clock.
//! 3. **Causal recv** — a recv's clock strictly exceeds the stamp it
//!    joined (`lam > cause`).
//! 4. **Frame conservation** — per `(link, tag)`, deliveries never
//!    exceed transmissions: `recvs ≤ sends + retransmits`.  (Equality is
//!    not required: frames may be dropped by faults or still in flight
//!    at the horizon.)  This is the trace-level form of the paper's
//!    token-conservation argument: a token can only arrive somewhere it
//!    was sent.
//!
//! A ring-truncated trace (`dropped > 0`) only gets checks 2 and 3 — the
//! overwritten prefix would make 1 and 4 spuriously fail.

use crate::event::{EventKind, OwnedEvent};
use std::collections::{HashMap, HashSet};

pub use crate::jsonl::RunTrace;

/// Cap on per-violation detail strings kept in a [`CheckReport`]
/// (the total count is always exact).
const MAX_DETAILS: usize = 20;

/// Outcome of [`check_events`].
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Total events examined.
    pub events: usize,
    /// Total violations found (exact; only `details` is capped).
    pub violations: u64,
    /// Human-readable descriptions of the first violations.
    pub details: Vec<String>,
    /// Whether the positional checks (1 and 4) ran — false for
    /// ring-truncated traces.
    pub full: bool,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.violations == 0
    }

    fn flag(&mut self, msg: String) {
        self.violations += 1;
        if self.details.len() < MAX_DETAILS {
            self.details.push(msg);
        }
    }
}

/// Run the causal-consistency checks over a canonically ordered event
/// sequence.  `dropped` is the ring-overwrite count from the trace
/// header; when nonzero the positional checks are skipped (see module
/// docs).
pub fn check_events(events: &[OwnedEvent], dropped: u64) -> CheckReport {
    let mut rep = CheckReport { events: events.len(), full: dropped == 0, ..Default::default() };
    // (from, to, stamp) of every transmission seen so far.  Presence, not
    // consumption: duplicated deliveries of one frame are legal at the
    // network level (the session layer absorbs them before the protocol).
    let mut sent: HashSet<(u32, u32, u64)> = HashSet::new();
    // Per-node last Lamport value (clock-ticking events only).
    let mut last_lam: HashMap<u32, u64> = HashMap::new();
    // Per-(from, to, tag) transmission and delivery counts.
    let mut tx: HashMap<(u32, u32, String), u64> = HashMap::new();
    let mut rx: HashMap<(u32, u32, String), u64> = HashMap::new();
    // The TCP exemption from check 1 (module docs).
    let unstamped_tcp = !events.iter().any(|e| e.kind == EventKind::Recv && e.cause != 0);

    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::Send | EventKind::Retransmit => {
                sent.insert((e.node, e.peer, e.lamport));
                *tx.entry((e.node, e.peer, e.tag.clone())).or_insert(0) += 1;
            }
            EventKind::Recv => {
                if rep.full && !unstamped_tcp && !sent.contains(&(e.peer, e.node, e.cause)) {
                    rep.flag(format!(
                        "event {i}: recv of {} stamp {} on {}->{} with no prior send",
                        e.tag, e.cause, e.peer, e.node
                    ));
                }
                if e.lamport <= e.cause {
                    rep.flag(format!(
                        "event {i}: recv lamport {} does not exceed its cause {}",
                        e.lamport, e.cause
                    ));
                }
                *rx.entry((e.peer, e.node, e.tag.clone())).or_insert(0) += 1;
            }
            EventKind::CsRequest | EventKind::CsEnter | EventKind::CsExit => {}
            EventKind::FaultVerdict => continue, // does not tick the clock
        }
        let last = last_lam.entry(e.node).or_insert(0);
        if e.lamport <= *last {
            rep.flag(format!(
                "event {i}: node {} lamport not strictly increasing ({} after {})",
                e.node, e.lamport, last
            ));
        }
        *last = e.lamport;
    }

    if rep.full {
        let mut links: Vec<_> = rx.iter().collect();
        links.sort();
        for ((from, to, tag), &delivered) in links {
            let transmitted = tx.get(&(*from, *to, tag.clone())).copied().unwrap_or(0);
            if delivered > transmitted {
                rep.flag(format!(
                    "link {from}->{to} {tag}: {delivered} deliveries exceed {transmitted} transmissions"
                ));
            }
        }
    }
    rep
}

/// Per-message-type cost totals extracted from a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// `(tag, deliveries, delivered bytes)` sorted by tag.  Deliveries —
    /// not transmissions — so the counts reconcile with the engine's
    /// aggregate `msg_by_kind` collector, which also counts at delivery.
    pub by_tag: Vec<(String, u64, u64)>,
    pub sends: u64,
    pub recvs: u64,
    pub retransmits: u64,
    pub faults: u64,
    pub cs_requests: u64,
    pub cs_enters: u64,
    pub cs_exits: u64,
}

impl Breakdown {
    /// Total delivered messages across all tags (== `recvs`).
    pub fn delivered(&self) -> u64 {
        self.by_tag.iter().map(|(_, c, _)| c).sum()
    }

    /// Render a small human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("message-type        deliveries       bytes\n");
        for (tag, count, bytes) in &self.by_tag {
            out.push_str(&format!("{tag:<18} {count:>11} {bytes:>11}\n"));
        }
        out.push_str(&format!(
            "totals: {} sends, {} deliveries, {} retransmits, {} fault drops\n",
            self.sends, self.recvs, self.retransmits, self.faults
        ));
        out.push_str(&format!(
            "cs: {} requests, {} enters, {} exits\n",
            self.cs_requests, self.cs_enters, self.cs_exits
        ));
        out
    }
}

/// Compute the per-message-type cost breakdown of a trace.
pub fn message_breakdown(events: &[OwnedEvent]) -> Breakdown {
    let mut b = Breakdown::default();
    let mut by_tag: HashMap<&str, (u64, u64)> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Send => b.sends += 1,
            EventKind::Recv => {
                b.recvs += 1;
                let ent = by_tag.entry(e.tag.as_str()).or_insert((0, 0));
                ent.0 += 1;
                ent.1 += e.weight as u64;
            }
            EventKind::Retransmit => b.retransmits += 1,
            EventKind::FaultVerdict => b.faults += 1,
            EventKind::CsRequest => b.cs_requests += 1,
            EventKind::CsEnter => b.cs_enters += 1,
            EventKind::CsExit => b.cs_exits += 1,
        }
    }
    b.by_tag =
        by_tag.into_iter().map(|(t, (c, w))| (t.to_string(), c, w)).collect::<Vec<_>>();
    b.by_tag.sort();
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_PEER;

    fn ev(
        kind: EventKind,
        node: u32,
        peer: u32,
        tag: &str,
        lamport: u64,
        cause: u64,
        w: u32,
    ) -> OwnedEvent {
        OwnedEvent {
            kind,
            at_nanos: 0,
            ord: 0,
            seq: 0,
            node,
            peer,
            tag: tag.to_string(),
            lamport,
            cause,
            weight: w,
        }
    }

    fn good_run() -> Vec<OwnedEvent> {
        vec![
            ev(EventKind::CsRequest, 0, NO_PEER, "", 1, 0, 2),
            ev(EventKind::Send, 0, 1, "Req", 2, 2, 24),
            ev(EventKind::Recv, 1, 0, "Req", 3, 2, 24),
            ev(EventKind::Send, 1, 0, "Grant", 4, 4, 16),
            ev(EventKind::Recv, 0, 1, "Grant", 5, 4, 16),
            ev(EventKind::CsEnter, 0, NO_PEER, "", 6, 0, 2),
            ev(EventKind::CsExit, 0, NO_PEER, "", 7, 0, 2),
        ]
    }

    #[test]
    fn clean_run_passes() {
        let rep = check_events(&good_run(), 0);
        assert!(rep.ok(), "{:?}", rep.details);
        assert!(rep.full);
        assert_eq!(rep.events, 7);
    }

    #[test]
    fn recv_without_send_flagged() {
        let run = vec![ev(EventKind::Recv, 1, 0, "Req", 3, 2, 24)];
        let rep = check_events(&run, 0);
        // Two findings: the positional check and link conservation.
        assert_eq!(rep.violations, 2);
        assert!(rep.details[0].contains("no prior send"));
        assert!(rep.details[1].contains("exceed"));
        // ...but a ring-truncated trace skips the positional check.
        let rep = check_events(&run, 5);
        assert!(rep.ok());
        assert!(!rep.full);
    }

    /// The TCP substrate stamps sends from its local clocks but delivers
    /// recvs with cause 0 (the wire carries no stamp, DESIGN.md §11.2):
    /// in a trace whose every recv has cause 0 the positional send-match
    /// is exempt, while monotonicity and conservation still apply.
    #[test]
    fn stamp_zero_recvs_are_exempt_from_send_matching() {
        let run = vec![
            ev(EventKind::Send, 0, 1, "Req", 1, 1, 24),
            ev(EventKind::Recv, 1, 0, "Req", 1, 0, 24),
            ev(EventKind::Send, 1, 0, "Grant", 2, 2, 16),
            ev(EventKind::Recv, 0, 1, "Grant", 2, 0, 16),
        ];
        let rep = check_events(&run, 0);
        assert!(rep.ok(), "{:?}", rep.details);
        // Conservation is NOT exempt: an over-delivered stamp-0 frame
        // still counts against the link's transmissions.
        let mut over = run.clone();
        over.push(ev(EventKind::Recv, 0, 1, "Grant", 3, 0, 16));
        let rep = check_events(&over, 0);
        assert!(rep.details.iter().any(|d| d.contains("exceed")), "{:?}", rep.details);
    }

    /// In a stamped trace a recv of stamp 0 matches no send: a copy that
    /// reached the wire without a stamp, or without a send event, fails.
    #[test]
    fn a_stamp_zero_recv_in_a_stamped_trace_is_flagged() {
        let mut run = good_run();
        run[4].cause = 0;
        let rep = check_events(&run, 0);
        assert_eq!(rep.violations, 1, "{:?}", rep.details);
        assert!(rep.details[0].contains("Grant stamp 0 on 1->0 with no prior send"));
    }

    #[test]
    fn lamport_regression_flagged() {
        let mut run = good_run();
        run[3].lamport = 3; // node 1 repeats its clock
        let rep = check_events(&run, 0);
        assert!(!rep.ok());
        assert!(rep.details.iter().any(|d| d.contains("strictly increasing")));
    }

    #[test]
    fn recv_not_after_cause_flagged() {
        let mut run = good_run();
        run[2].lamport = 2; // equals its cause
        let rep = check_events(&run, 0);
        assert!(rep.details.iter().any(|d| d.contains("does not exceed")));
    }

    #[test]
    fn over_delivery_flagged() {
        let mut run = good_run();
        // Duplicate the Grant recv (same stamp): presence check passes,
        // conservation catches the extra delivery.
        let dup = run[4].clone();
        run.push(dup);
        // Keep node 0's clock monotone so only conservation fires.
        run.last_mut().unwrap().lamport = 8;
        let mut run2 = run.clone();
        run2.last_mut().unwrap().kind = EventKind::Recv;
        let rep = check_events(&run2, 0);
        assert!(rep.details.iter().any(|d| d.contains("exceed")), "{:?}", rep.details);
    }

    #[test]
    fn fault_verdicts_do_not_tick() {
        let mut run = good_run();
        // Two drops at node 1 with its current clock: legal.
        run.push(ev(EventKind::FaultVerdict, 1, 0, "Req", 4, 9, 0));
        run.push(ev(EventKind::FaultVerdict, 1, 0, "Req", 4, 10, 0));
        let rep = check_events(&run, 0);
        assert!(rep.ok(), "{:?}", rep.details);
    }

    #[test]
    fn breakdown_counts_deliveries() {
        let b = message_breakdown(&good_run());
        assert_eq!(b.sends, 2);
        assert_eq!(b.recvs, 2);
        assert_eq!(b.delivered(), 2);
        assert_eq!(b.cs_requests, 1);
        assert_eq!(b.cs_enters, 1);
        assert_eq!(b.cs_exits, 1);
        assert_eq!(
            b.by_tag,
            vec![("Grant".to_string(), 1, 16), ("Req".to_string(), 1, 24)]
        );
        let table = b.render();
        assert!(table.contains("Grant"));
        assert!(table.contains("2 deliveries"));
    }
}

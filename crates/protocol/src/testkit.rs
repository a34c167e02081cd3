//! What every engine shares to check a run: the [`SafetyMonitor`] it
//! records critical sections into, and the [`EchoProbe`] message stream.
//! The randomized clockless test network is the dev-only `mra-testkit`.

use crate::{Allocator, Ctx, ProcState};
use mra_types::{NodeId, ResourceSet};

/// [`SafetyMonitor`]'s holder slot of a resource no site holds.
const FREE: u32 = u32::MAX;

/// Records who is inside a critical section with which resources and panics
/// on any exclusivity violation.  Shared by the test network and reusable by
/// other engines.
#[derive(Clone, Debug)]
pub struct SafetyMonitor {
    /// The site in CS with each resource, `FREE` if none: 4 bytes a
    /// resource, where an optional `NodeId` takes 16.
    holder: Vec<u32>,
    in_cs: Vec<Option<ResourceSet>>,
    /// Total number of critical sections entered so far.
    pub cs_entered: u64,
}

impl SafetyMonitor {
    /// Monitor for `n` nodes and `m` resources.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n <= FREE as usize, "sites are 32-bit ids below {FREE}");
        SafetyMonitor {
            holder: vec![FREE; m],
            in_cs: vec![None; n],
            cs_entered: 0,
        }
    }

    /// Register node `who` entering its CS holding `set`.
    ///
    /// # Panics
    /// If any resource in `set` is already held: that is a violation of the
    /// paper's safety property (Theorem 1).
    pub fn enter(&mut self, who: NodeId, set: ResourceSet) {
        assert!(
            self.in_cs[who].is_none(),
            "node {who} entered CS twice without releasing"
        );
        for r in set.iter() {
            let other = self.holder[r];
            if other != FREE {
                panic!(
                    "SAFETY VIOLATION: resource {r} granted to node {who} \
                     while still held by node {other}"
                );
            }
            self.holder[r] = who as u32;
        }
        self.in_cs[who] = Some(set);
        self.cs_entered += 1;
    }

    /// Register node `who` leaving its CS.
    ///
    /// # Panics
    /// If `who` was not in CS, or if the holder table disagrees about any
    /// released resource.  The holder check is a *real* assert (not
    /// `debug_assert`): release-mode runs — the TCP cluster tests build in
    /// release — must not silently pass through a corrupted holder table.
    pub fn exit(&mut self, who: NodeId) {
        let set = self.in_cs[who]
            .take()
            .unwrap_or_else(|| panic!("node {who} released without being in CS"));
        for r in set.iter() {
            assert_eq!(
                self.holder[r] as usize, who,
                "HOLDER CORRUPTION: node {who} releasing resource {r} it does not hold"
            );
            self.holder[r] = FREE;
        }
    }

    /// Is `who` currently inside its CS?
    pub fn is_in_cs(&self, who: NodeId) -> bool {
        self.in_cs[who].is_some()
    }

    /// Number of nodes currently in CS.
    pub fn concurrency(&self) -> usize {
        self.in_cs.iter().filter(|s| s.is_some()).count()
    }

    /// Number of resources currently marked held.
    pub fn held_resources(&self) -> usize {
        self.holder.iter().filter(|&&h| h != FREE).count()
    }

    /// Assert the conservation invariant of granted resources: every held
    /// resource belongs to exactly the node the CS table says is inside
    /// with it, and vice versa.  At quiescence (nobody in CS) this proves
    /// no granted resource leaked.
    ///
    /// # Panics
    /// On any holder/CS-table disagreement.
    pub fn assert_conservation(&self) {
        for (r, &w) in self.holder.iter().enumerate() {
            if w != FREE {
                let ok = self.in_cs[w as usize]
                    .as_ref()
                    .is_some_and(|set| set.contains(r));
                assert!(
                    ok,
                    "RESOURCE LEAK: resource {r} marked held by node {w}, \
                     which is not in CS with it"
                );
            }
        }
        for (w, s) in self.in_cs.iter().enumerate() {
            if let Some(set) = s {
                for r in set.iter() {
                    assert_eq!(
                        self.holder[r] as usize, w,
                        "RESOURCE LEAK: node {w} in CS with resource {r} \
                         not attributed to it in the holder table"
                    );
                }
            }
        }
    }
}

/// Fixed-size message of the [`EchoProbe`] pseudo-protocol.
#[derive(Clone, Copy, Debug)]
pub struct EchoPing(pub u64);

impl crate::WireMsg for EchoPing {
    fn kind(&self) -> &'static str {
        "Ping"
    }
}

/// A minimal message-driven state machine for engine probes: node 0 seeds
/// `fan` pings per peer on init, and every node echoes whatever it
/// receives back to the sender.  It never requests and never grants, so
/// an engine driving it with no active workload processes a pure stream
/// of message deliveries — the measurement surface for the engine-floor
/// benchmark and the zero-allocation dispatch guard.
pub struct EchoProbe {
    me: NodeId,
    fan: u64,
}

impl EchoProbe {
    /// One probe node; node 0 starts `fan` balls per peer.
    pub fn new(me: NodeId, fan: u64) -> Self {
        EchoProbe { me, fan }
    }
}

impl Allocator for EchoProbe {
    type Msg = EchoPing;

    fn on_init(&mut self, ctx: &mut Ctx<EchoPing>) {
        if self.me == 0 {
            for peer in 1..ctx.n_nodes() {
                for k in 0..self.fan {
                    ctx.send(peer, EchoPing(k));
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<EchoPing>, from: NodeId, msg: EchoPing) {
        ctx.send(from, EchoPing(msg.0 + 1));
    }

    fn request(&mut self, _ctx: &mut Ctx<EchoPing>, _resources: ResourceSet) {
        unreachable!("probe nodes never request");
    }

    fn release(&mut self, _ctx: &mut Ctx<EchoPing>) {
        unreachable!("probe nodes never release");
    }

    fn state(&self) -> ProcState {
        ProcState::Idle
    }

    fn name(&self) -> &'static str {
        "echo-probe"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "SAFETY VIOLATION")]
    fn monitor_catches_double_grant() {
        let mut mon = SafetyMonitor::new(2, 3);
        mon.enter(0, ResourceSet::singleton(1));
        mon.enter(1, ResourceSet::singleton(1));
    }

    #[test]
    fn monitor_tracks_concurrency() {
        let mut mon = SafetyMonitor::new(3, 6);
        mon.enter(0, ResourceSet::singleton(0));
        mon.enter(1, ResourceSet::singleton(1));
        assert_eq!(mon.concurrency(), 2);
        mon.exit(0);
        assert_eq!(mon.concurrency(), 1);
        assert!(mon.is_in_cs(1));
        assert!(!mon.is_in_cs(0));
    }
}

//! The per-node application driver: the request / critical-section / think
//! lifecycle of the paper's experimental processes (§5.1).
//!
//! Each active node loops forever:
//!
//! 1. think for β (drawn from the workload),
//! 2. issue a request for a random resource set (the workload draws the set
//!    and the critical-section duration α together, since the paper couples
//!    CS length to request size),
//! 3. wait for the grant — the *waiting time* metric,
//! 4. hold the resources for α, release, go to 1.
//!
//! The driver is engine-agnostic: both the discrete-event simulator and
//! `mra-net`'s wall-clock node loop embed it.

use mra_types::{NodeId, ResourceSet, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Node `node`'s private random stream under master seed `seed` — the one
/// derivation every engine uses, so a workload draws the same think times
/// and request sets for a given `(seed, node)` on every substrate.
pub fn node_rng(seed: u64, node: NodeId) -> StdRng {
    StdRng::seed_from_u64(seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A request-generation model (implemented by `mra-workloads` for the
/// paper's parameters; simple fixed models live in tests).
///
/// The four optional hooks exist for *open-loop* workloads (the serving
/// layer in `mra-serve`): the engine reports its clock and the grant /
/// release edges, and the workload may claim an **intended arrival time**
/// for the request it just drew.  Closed-loop workloads (the paper's
/// model) ignore all four — the defaults are no-ops, and an absent
/// arrival makes the engine fall back to the issue instant, which is the
/// closed-loop definition of arrival.
pub trait Workload: Send {
    /// Draw the next think time (the paper's β).
    fn think_time(&mut self, rng: &mut StdRng) -> Time;

    /// Draw the next request: the resource set and the critical-section
    /// duration α (the paper couples α to the request size).
    fn next_request(&mut self, rng: &mut StdRng) -> (ResourceSet, Time);

    /// The engine clock, reported immediately before [`Self::think_time`]
    /// or [`Self::next_request`] runs.  Open-loop workloads advance their
    /// arrival process to this instant; the default discards it.
    fn set_now(&mut self, _now: Time) {}

    /// The intended arrival time of the request most recently drawn by
    /// [`Self::next_request`] — when it *would* have been issued had the
    /// node not been busy.  `None` (the default) means "arrived when
    /// issued": the engine then keys latency by the issue instant, which
    /// is exact for closed-loop workloads and is precisely the
    /// coordinated-omission bias for open-loop ones.
    fn intended_arrival(&self) -> Option<Time> {
        None
    }

    /// The request drawn by the last [`Self::next_request`] was granted.
    fn on_grant(&mut self, _now: Time) {}

    /// The corresponding critical section completed (resources released).
    fn on_release(&mut self, _now: Time) {}
}

/// Lifecycle state of one driven node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverState {
    /// Waiting out the think time before the next request.
    Thinking,
    /// Request issued, waiting for the grant.
    Waiting,
    /// Inside the critical section.
    InCs,
    /// Issuing stopped (measurement drain) — after the current cycle, park.
    Parked,
}

/// Driver bookkeeping for one node.
#[derive(Debug)]
pub struct Driver {
    state: DriverState,
    /// CS duration of the outstanding request.
    cs_len: Time,
    /// Resource set of the outstanding request.
    set: ResourceSet,
}

impl Driver {
    /// A fresh driver (thinking).
    pub fn new() -> Self {
        Driver {
            state: DriverState::Thinking,
            cs_len: Time::ZERO,
            set: ResourceSet::new(),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> DriverState {
        self.state
    }

    /// Called when the think timer fires: draw a request.  Returns the set
    /// to request (engine calls `Allocator::request`).
    pub fn issue<W: Workload>(&mut self, wl: &mut W, rng: &mut StdRng) -> ResourceSet {
        debug_assert_eq!(self.state, DriverState::Thinking);
        let (set, cs) = wl.next_request(rng);
        debug_assert!(!set.is_empty());
        self.state = DriverState::Waiting;
        self.set = set.clone();
        self.cs_len = cs;
        set
    }

    /// Called on grant.  Returns the CS duration to schedule the release.
    pub fn granted(&mut self) -> Time {
        debug_assert_eq!(self.state, DriverState::Waiting);
        self.state = DriverState::InCs;
        self.cs_len
    }

    /// Called when the CS timer fires (engine then calls
    /// `Allocator::release`).  Returns the resource set that was held.
    pub fn released(&mut self) -> ResourceSet {
        debug_assert_eq!(self.state, DriverState::InCs);
        self.state = DriverState::Thinking;
        std::mem::take(&mut self.set)
    }

    /// Stop issuing (drain phase).
    pub fn park(&mut self) {
        debug_assert_eq!(self.state, DriverState::Thinking);
        self.state = DriverState::Parked;
    }

    /// The outstanding request's resource set.
    pub fn current_set(&self) -> ResourceSet {
        self.set.clone()
    }
}

impl Default for Driver {
    fn default() -> Self {
        Self::new()
    }
}

/// A trivially simple workload for engine tests: fixed think time, fixed CS
/// length, uniformly random sets of exactly `size` resources out of `m`.
#[derive(Clone, Debug)]
pub struct FixedWorkload {
    /// Think time between CS cycles.
    pub think: Time,
    /// Critical-section duration.
    pub cs: Time,
    /// Resources in the system.
    pub m: usize,
    /// Request size.
    pub size: usize,
}

impl Workload for FixedWorkload {
    fn think_time(&mut self, _rng: &mut StdRng) -> Time {
        self.think
    }

    fn next_request(&mut self, rng: &mut StdRng) -> (ResourceSet, Time) {
        use rand::Rng;
        let mut set = ResourceSet::new();
        while set.len() < self.size {
            set.insert(rng.gen_range(0..self.m));
        }
        (set, self.cs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_roundtrip() {
        let mut d = Driver::new();
        let mut wl = FixedWorkload {
            think: Time::from_millis(5),
            cs: Time::from_millis(10),
            m: 6,
            size: 2,
        };
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(d.state(), DriverState::Thinking);
        let set = d.issue(&mut wl, &mut rng);
        assert_eq!(set.len(), 2);
        assert_eq!(d.state(), DriverState::Waiting);
        assert_eq!(d.granted(), Time::from_millis(10));
        assert_eq!(d.state(), DriverState::InCs);
        let released = d.released();
        assert_eq!(released, set);
        assert_eq!(d.state(), DriverState::Thinking);
        d.park();
        assert_eq!(d.state(), DriverState::Parked);
    }

    #[test]
    fn fixed_workload_draws_exact_sizes() {
        let mut wl = FixedWorkload {
            think: Time::ZERO,
            cs: Time::from_millis(1),
            m: 10,
            size: 4,
        };
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let (set, cs) = wl.next_request(&mut rng);
            assert_eq!(set.len(), 4);
            assert!(set.iter().all(|r| r < 10));
            assert_eq!(cs, Time::from_millis(1));
        }
    }
}

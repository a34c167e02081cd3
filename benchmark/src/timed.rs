//! Delegating wrappers that time the calls into a layer from outside it.
//!
//! The traced run wraps every allocator in [`Timed`] and every workload in
//! [`TimedWorkload`]: each hook is forwarded unchanged with a clock read
//! either side, so "time inside `mra-core`" and "time inside the workload
//! layer" are measured at the layer boundary without touching the program.
//! Totals are kept in plain fields and flushed to a shared [`LayerClock`]
//! when the engine drops the node — the hot path pays two clock reads and
//! two additions, no atomics.

use mra_protocol::{Allocator, Ctx, ProcState};
use mra_sim::Workload;
use mra_types::{NodeId, ResourceSet, Time};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Busy time and call count of one layer, summed over every wrapped node
/// of a slice.  `Relaxed` suffices: the values publish no other data and
/// are read only after the engine joined its threads.
#[derive(Debug, Default)]
pub struct LayerClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl LayerClock {
    /// Nanoseconds spent inside the layer.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Calls into the layer.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn add(&self, ns: u64, calls: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
    }
}

/// The two layer clocks of one traced slice: allocator hooks (`mra-core`)
/// and workload hooks (`mra-workloads` / `mra-serve`).
#[derive(Debug, Default)]
pub struct Layers {
    pub alloc: Arc<LayerClock>,
    pub workload: Arc<LayerClock>,
}

impl Layers {
    /// `(ns per allocator call, allocator share, workload share)` of a
    /// slice that used `cpu_s` seconds of process CPU.  Shares are of CPU
    /// time, so several engine threads do not read as more than the wall.
    pub fn shares(&self, cpu_s: f64) -> (f64, f64, f64) {
        let cpu_ns = cpu_s * 1e9;
        (
            self.alloc.ns() as f64 / self.alloc.calls() as f64,
            self.alloc.ns() as f64 / cpu_ns,
            self.workload.ns() as f64 / cpu_ns,
        )
    }
}

/// Messages copied off the wire side of an allocator (the codec probe
/// encodes and decodes exactly the mix the protocol produced).
pub type Tap<M> = Arc<Mutex<Vec<M>>>;

/// How many messages a [`Tap`] keeps.
pub const TAP_CAP: usize = 4096;

/// An [`Allocator`] that times every state-machine hook of `inner`.
pub struct Timed<A: Allocator> {
    inner: A,
    ns: u64,
    calls: u64,
    clock: Arc<LayerClock>,
    tap: Option<Tap<A::Msg>>,
}

impl<A: Allocator> Timed<A> {
    /// Wrap a fleet; all nodes flush into `clock`.
    pub fn fleet(nodes: Vec<A>, clock: &Arc<LayerClock>, tap: Option<&Tap<A::Msg>>) -> Vec<Self> {
        nodes
            .into_iter()
            .map(|inner| Timed {
                inner,
                ns: 0,
                calls: 0,
                clock: Arc::clone(clock),
                tap: tap.cloned(),
            })
            .collect()
    }

    #[inline]
    fn timed<R>(&mut self, f: impl FnOnce(&mut A) -> R) -> R {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

impl<A: Allocator> Drop for Timed<A> {
    fn drop(&mut self) {
        self.clock.add(self.ns, self.calls);
    }
}

impl<A: Allocator> Allocator for Timed<A> {
    type Msg = A::Msg;

    fn on_init(&mut self, ctx: &mut Ctx<A::Msg>) {
        self.timed(|a| a.on_init(ctx))
    }

    fn on_message(&mut self, ctx: &mut Ctx<A::Msg>, from: NodeId, msg: A::Msg) {
        if let Some(tap) = &self.tap {
            let mut seen = tap.lock().unwrap_or_else(|e| e.into_inner());
            if seen.len() < TAP_CAP {
                seen.push(msg.clone());
            }
        }
        self.timed(|a| a.on_message(ctx, from, msg))
    }

    fn request(&mut self, ctx: &mut Ctx<A::Msg>, resources: ResourceSet) {
        self.timed(|a| a.request(ctx, resources))
    }

    fn release(&mut self, ctx: &mut Ctx<A::Msg>) {
        self.timed(|a| a.release(ctx))
    }

    fn state(&self) -> ProcState {
        self.inner.state()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`Workload`] that times every mutating hook of `inner`.
pub struct TimedWorkload<W: Workload> {
    inner: W,
    ns: u64,
    calls: u64,
    clock: Arc<LayerClock>,
}

impl<W: Workload> TimedWorkload<W> {
    /// Wrap a fleet; all nodes flush into `clock`.
    pub fn fleet(workloads: Vec<W>, clock: &Arc<LayerClock>) -> Vec<Self> {
        workloads
            .into_iter()
            .map(|inner| TimedWorkload {
                inner,
                ns: 0,
                calls: 0,
                clock: Arc::clone(clock),
            })
            .collect()
    }

    #[inline]
    fn timed<R>(&mut self, f: impl FnOnce(&mut W) -> R) -> R {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

impl<W: Workload> Drop for TimedWorkload<W> {
    fn drop(&mut self) {
        self.clock.add(self.ns, self.calls);
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn think_time(&mut self, rng: &mut StdRng) -> Time {
        self.timed(|w| w.think_time(rng))
    }

    fn next_request(&mut self, rng: &mut StdRng) -> (ResourceSet, Time) {
        self.timed(|w| w.next_request(rng))
    }

    fn set_now(&mut self, now: Time) {
        self.timed(|w| w.set_now(now))
    }

    // A plain getter behind `&self`: forwarded untimed.
    fn intended_arrival(&self) -> Option<Time> {
        self.inner.intended_arrival()
    }

    fn on_grant(&mut self, now: Time) {
        self.timed(|w| w.on_grant(now))
    }

    fn on_release(&mut self, now: Time) {
        self.timed(|w| w.on_release(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_protocol::WireMsg;

    #[derive(Clone, Debug)]
    struct Note(u8);
    impl WireMsg for Note {
        fn kind(&self) -> &'static str {
            "Note"
        }
    }

    /// Records which hooks ran, and grants on `request`.
    #[derive(Default)]
    struct Spy {
        log: Vec<&'static str>,
    }

    impl Allocator for Spy {
        type Msg = Note;
        fn on_init(&mut self, _: &mut Ctx<Note>) {
            self.log.push("init");
        }
        fn on_message(&mut self, ctx: &mut Ctx<Note>, from: NodeId, msg: Note) {
            self.log.push("message");
            ctx.send(from, Note(msg.0 + 1));
        }
        fn request(&mut self, ctx: &mut Ctx<Note>, _: ResourceSet) {
            self.log.push("request");
            ctx.grant();
        }
        fn release(&mut self, _: &mut Ctx<Note>) {
            self.log.push("release");
        }
        fn state(&self) -> ProcState {
            if self.log.last() == Some(&"request") {
                ProcState::InCS
            } else {
                ProcState::Idle
            }
        }
        fn name(&self) -> &'static str {
            "spy"
        }
    }

    #[test]
    fn timed_forwards_every_hook_and_preserves_name_and_state() {
        let clock = Arc::new(LayerClock::default());
        let tap: Tap<Note> = Arc::default();
        let mut node = Timed::fleet(vec![Spy::default()], &clock, Some(&tap)).remove(0);
        let mut ctx: Ctx<Note> = Ctx::new(0, 2);
        assert_eq!(node.name(), "spy");
        assert_eq!(node.state(), ProcState::Idle);
        node.on_init(&mut ctx);
        node.on_message(&mut ctx, 1, Note(4));
        node.request(&mut ctx, ResourceSet::singleton(0));
        assert_eq!(node.state(), ProcState::InCS);
        assert!(ctx.take_granted(), "the grant edge must pass through");
        node.release(&mut ctx);
        assert_eq!(node.state(), ProcState::Idle);
        let sent = ctx.take_outbox();
        assert_eq!(sent.len(), 1);
        assert_eq!((sent[0].0, sent[0].1 .0), (1, 5));
        assert_eq!(node.inner.log, ["init", "message", "request", "release"]);
        assert_eq!(tap.lock().unwrap().len(), 1);
        // Nothing is published until the engine drops the node.
        assert_eq!(clock.calls(), 0);
        drop(node);
        assert_eq!(clock.calls(), 4);
    }

    #[test]
    fn timed_workload_forwards_draws_and_arrival() {
        use mra_sim::FixedWorkload;
        use rand::SeedableRng;
        let clock = Arc::new(LayerClock::default());
        let inner = FixedWorkload {
            think: Time::from_millis(3),
            cs: Time::from_millis(7),
            m: 8,
            size: 2,
        };
        let mut w = TimedWorkload::fleet(vec![inner], &clock).remove(0);
        let mut rng = StdRng::seed_from_u64(1);
        w.set_now(Time::from_millis(1));
        assert_eq!(w.think_time(&mut rng), Time::from_millis(3));
        let (set, cs) = w.next_request(&mut rng);
        assert_eq!((set.len(), cs), (2, Time::from_millis(7)));
        assert_eq!(w.intended_arrival(), None);
        w.on_grant(Time::from_millis(2));
        w.on_release(Time::from_millis(9));
        drop(w);
        assert_eq!(clock.calls(), 5);
    }
}

//! The simulator's event queue: one total `(at, ord)` order over a
//! send-ordered frame deque and a 4-ary heap (see [`EventQueue`]).

use crate::sim::Ev;
use mra_types::Time;
use std::collections::VecDeque;

/// Compact heap entry: the canonical `(at, ord)` ordering key plus the
/// slab slot holding the event payload.  The heap sifts these small `Copy`
/// keys on every push/pop while the (potentially large) `Ev<M>` payloads
/// stay put in the slab.  `(at, ord)` is globally unique (see
/// `sim::mk_ord`), so the derived lexicographic order never consults
/// `slot` when comparing distinct events.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EvKey {
    at: Time,
    ord: u64,
    slot: u32,
}

/// The simulator's event queue: a deque of frames in `(at, ord)` order
/// beside a 4-ary min-heap of packed [`EvKey`]s over a free-list slab of
/// event payloads.  Pops take the smaller head of the two, so the pop
/// order is the one total `(at, ord)` order whichever side holds an event.
///
/// The deque exists because on constant-latency links a frame is almost
/// always sent later than every frame in flight and so arrives after them
/// all: a frame whose `at` is not earlier than the deque's last joins it
/// (placed by `ord` among the equal-`at` tail), which costs a push and a
/// pop instead of two sifts.  Every other frame, and every timer, takes
/// the heap.  DESIGN §7.2 has the share each workload sends through it.
///
/// 4-ary because sift-down dominates a discrete-event workload (every pop
/// sifts, pushes often stop early): halving the tree depth trades two
/// extra (adjacent, same-cache-line) comparisons per level for half the
/// memory moves, and the hole-based sift moves each key once instead of
/// swapping.  In steady state (constant event population) every push
/// reuses a freed slot or deque cell, so the queue performs no heap
/// allocation after warmup.
pub(crate) struct EventQueue<M> {
    frames: VecDeque<(Time, u64, Ev<M>)>,
    heap: Vec<EvKey>,
    slab: Vec<Option<Ev<M>>>,
    free: Vec<u32>,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue {
            frames: VecDeque::new(),
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, at: Time, ord: u64, ev: Ev<M>) {
        if matches!(ev, Ev::Frame { .. }) && self.frames.back().map_or(true, |b| b.0 <= at) {
            let mut i = self.frames.len();
            while i > 0 && (self.frames[i - 1].0, self.frames[i - 1].1) > (at, ord) {
                i -= 1;
            }
            self.frames.insert(i, (at, ord, ev));
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slab[s as usize].is_none());
                self.slab[s as usize] = Some(ev);
                s
            }
            None => {
                assert!(self.slab.len() < u32::MAX as usize, "event slab overflow");
                self.slab.push(Some(ev));
                // The free list holds at most one entry per slab slot; keep
                // its capacity at that bound so popping without a matching
                // push (a fault-dropped event) never reallocates mid-run.
                // Amortized: growing it slot by slot would reallocate once
                // per slab slot while `init` schedules a timer per node.
                let need = self.slab.len();
                if self.free.capacity() < need {
                    self.free.reserve(need - self.free.len());
                }
                (self.slab.len() - 1) as u32
            }
        };
        let key = EvKey { at, ord, slot };
        // Sift up with a hole: parents shift down until `key` fits.
        let heap = &mut self.heap;
        heap.push(key);
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) >> 2;
            if heap[parent] <= key {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = key;
    }

    pub(crate) fn pop(&mut self) -> Option<(Time, u64, Ev<M>)> {
        let frame_first = match (self.frames.front(), self.heap.first()) {
            (Some(f), Some(h)) => (f.0, f.1) < (h.at, h.ord),
            (f, _) => f.is_some(),
        };
        if frame_first {
            return self.frames.pop_front();
        }
        let heap = &mut self.heap;
        let top = *heap.first()?;
        let tail = heap.pop().expect("heap is non-empty");
        let n = heap.len();
        if n > 0 {
            // Sift the former tail down from the root with a hole: the
            // smallest child moves up until `tail` fits.  Keys are copied
            // into locals so the child scan reads each slot once.
            let mut i = 0;
            loop {
                let first_child = (i << 2) + 1;
                if first_child >= n {
                    break;
                }
                let last_child = (first_child + 4).min(n);
                let mut min = first_child;
                let mut min_key = heap[first_child];
                for (off, &k) in heap[first_child + 1..last_child].iter().enumerate() {
                    if k < min_key {
                        min = first_child + 1 + off;
                        min_key = k;
                    }
                }
                if tail <= min_key {
                    break;
                }
                heap[i] = min_key;
                i = min;
            }
            heap[i] = tail;
        }
        let slot = top.slot;
        let ev = self.slab[slot as usize].take().expect("slab slot vacant");
        self.free.push(slot);
        Some((top.at, top.ord, ev))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.frames.is_empty() && self.heap.is_empty()
    }

    /// Pre-reserve deque, heap, slab and free-list capacity for `extra`
    /// more in-flight events, so a later population peak does not
    /// reallocate (the zero-alloc guard pre-sizes for retransmission
    /// bursts).
    pub(crate) fn reserve(&mut self, extra: usize) {
        self.frames.reserve(extra);
        self.heap.reserve(extra);
        self.slab.reserve(extra);
        self.free.reserve(self.slab.capacity().saturating_sub(self.free.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_protocol::reliable::Packet;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The event a queue-property op pushes: a frame (`stamp` = its id) or
    /// a timer (`node` = its id).
    fn queue_ev(id: u64, frame: bool) -> Ev<()> {
        if frame {
            Ev::Frame { from: 0, to: 0, stamp: id, frame: Packet::Ack { ack: 0 } }
        } else {
            Ev::Think { node: id as usize }
        }
    }

    type Popped = Option<(Time, u64, u64)>;

    /// Pop the queue and the reference map once each, events as ids.
    fn pop_both(
        q: &mut EventQueue<()>,
        model: &mut BTreeMap<(Time, u64), u64>,
    ) -> (Popped, Popped) {
        let got = q.pop().map(|(at, ord, ev)| match ev {
            Ev::Frame { stamp, .. } => (at, ord, stamp),
            Ev::Think { node } => (at, ord, node as u64),
            _ => unreachable!("the property pushes frames and think timers only"),
        });
        (got, model.pop_first().map(|((at, ord), id)| (at, ord, id)))
    }

    /// Scheduling a timer per node (10 000 on `sim-scale`) grows the free
    /// list's capacity O(log n) times, not once per slab slot, and keeps
    /// it at least the slab's length throughout.
    #[test]
    fn free_list_grows_amortized_and_covers_the_slab() {
        let mut q = EventQueue::<()>::new();
        let mut grew = 0;
        for id in 0..10_000u64 {
            let cap = q.free.capacity();
            q.push(Time::from_nanos(id), id, queue_ev(id, false));
            grew += usize::from(q.free.capacity() != cap);
            assert!(q.free.capacity() >= q.slab.len());
        }
        assert_eq!(q.slab.len(), 10_000);
        assert!(
            grew <= 16,
            "free list reallocated {grew} times for 10 000 timers"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Deque plus heap is one priority queue: against a `BTreeMap` on
        /// `(at, ord)`, every pop and `is_empty` agree, whatever
        /// mix of in-order frames, equal-`at` ties with shuffled `ord`,
        /// late frames and timers is pushed between pops.  Each push also
        /// lands on the side the routing rule names.
        #[test]
        fn event_queue_matches_a_sorted_map(
            ops in vec((0u8..7, 0u64..40, any::<u64>()), 0..400)
        ) {
            let mut q = EventQueue::<()>::new();
            let mut model = BTreeMap::<(Time, u64), u64>::new();
            // `now`: the last popped time, below which the engine never
            // schedules; `latest`: the latest frame pushed.
            let (mut now, mut latest, mut next_id) = (0u64, 0u64, 0u64);
            for (kind, dt, ord) in ops {
                latest = latest.max(now);
                let at = match kind {
                    0 => latest + dt,    // sent after every frame in flight
                    1 => latest,         // tied with the latest frame
                    2 => now + dt,       // late: may precede the deque's last
                    3 => now + 100 * dt, // a timer
                    _ => {
                        let (got, want) = pop_both(&mut q, &mut model);
                        prop_assert_eq!(got, want);
                        if let Some((at, ..)) = got {
                            now = at.as_nanos();
                        }
                        continue;
                    }
                };
                let key = (Time::from_nanos(at), ord);
                if model.contains_key(&key) {
                    continue; // the engine's keys are unique
                }
                let frame = kind < 3;
                let to_deque = frame && q.frames.back().map_or(true, |b| b.0 <= key.0);
                let sides = (q.frames.len(), q.heap.len());
                next_id += 1;
                q.push(key.0, key.1, queue_ev(next_id, frame));
                model.insert(key, next_id);
                let grew = if to_deque { (sides.0 + 1, sides.1) } else { (sides.0, sides.1 + 1) };
                prop_assert_eq!((q.frames.len(), q.heap.len()), grew);
                if frame {
                    latest = latest.max(at);
                }
                prop_assert_eq!(q.is_empty(), model.is_empty());
            }
            loop {
                let (got, want) = pop_both(&mut q, &mut model);
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(q.is_empty());
        }
    }
}

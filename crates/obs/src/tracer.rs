//! The engine-side tracer: armed/disarmed causal event capture.
//!
//! One [`EngineTracer`] lives per run — one per simulation, one shared
//! (mutex-guarded) instance in a TCP cluster run, one per `VirtualNet`.
//! Every hook starts with a single `if !self.armed { return }` check and
//! is `#[inline]`, so a disarmed tracer costs one predictable branch per
//! call site and touches no memory: the simulator's zero-alloc
//! steady-state guard runs with these hooks compiled in.
//!
//! ## Ordering and determinism
//!
//! Events are recorded under the engine's canonical dispatch key
//! `(at, ord)` — the same `(time, lane<<32|ctr)` key the simulator's
//! event queue pops by — plus a per-dispatch emission sequence `seq`.
//! [`EngineTracer::finish`] sorts the buffer by `(at, ord, seq)`: the
//! simulator already records in that order, and substrates whose
//! dispatch keys do not follow wall-clock order (`VirtualNet`, TCP) get
//! one canonical order too.  `trace_determinism` pins the rendered JSONL
//! of one run across commits.
//!
//! ## Lamport stamping
//!
//! The tracer owns the per-node Lamport clocks.  A send ticks the
//! sender's clock and returns the stamp; the engine carries that stamp
//! *inside the delivery event / wire frame* (so it survives loss,
//! duplication and retransmission without any side channel), and the
//! recv hook joins it: `C[to] = max(C[to], cause) + 1`.
//! Retransmissions mint fresh stamps — a retransmitted frame is a later
//! event than the original send, which keeps the order legitimately
//! Lamport even under go-back-N.  Arming or disarming tracing never
//! touches engine RNGs, lane counters or schedules: a traced run and an
//! untraced run execute the identical event sequence.

use crate::event::{EventKind, OwnedEvent, TraceEvent, NO_PEER};
use mra_types::Time;

/// Default ring capacity for `MRA_TRACE=ring` (events, not bytes).
pub const DEFAULT_RING_CAP: usize = 65_536;

/// How (and whether) events are captured.  See `trace_mode_from_env`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// Disarmed: hooks are single-branch no-ops, no memory is allocated.
    Off,
    /// Keep the most recent `cap` events in a pre-sized ring: recording
    /// never allocates after construction (old events are overwritten).
    Ring(usize),
    /// Keep every event (the buffer grows): for export and analysis.
    Unbounded,
}

/// One recorded event with its engine ordering key.
///
/// `seq` disambiguates multiple emissions within one dispatch (e.g. a
/// recv followed by the sends it triggers all share `(at, ord)`); it
/// restarts at 0 whenever the key changes, so it is deterministic too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRec {
    pub at: Time,
    pub ord: u64,
    pub seq: u32,
    pub ev: TraceEvent,
}

/// A captured event log, sorted canonically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Events in canonical `(at, ord, seq)` order.
    pub recs: Vec<TraceRec>,
    /// Events lost to ring overwrite (0 in unbounded mode).
    pub dropped: u64,
}

impl TraceLog {
    /// Sort one run's buffer into the canonical `(at, ord, seq)` order.
    ///
    /// Each engine keeps its dispatch keys `(at, ord)` unique and `seq`
    /// orders emissions within a dispatch, so the sort has no ties.
    pub fn merge(mut recs: Vec<TraceRec>, dropped: u64) -> TraceLog {
        recs.sort_unstable_by_key(|r| (r.at, r.ord, r.seq));
        TraceLog { recs, dropped }
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Owned copies of the events, in canonical order, for the analyzer.
    pub fn to_owned_events(&self) -> Vec<OwnedEvent> {
        self.recs
            .iter()
            .map(|r| OwnedEvent {
                kind: r.ev.kind,
                at_nanos: r.at.as_nanos(),
                ord: r.ord,
                seq: r.seq,
                node: r.ev.node,
                peer: r.ev.peer,
                tag: r.ev.tag.to_string(),
                lamport: r.ev.lamport,
                cause: r.ev.cause,
                weight: r.ev.weight,
            })
            .collect()
    }
}

/// Per-run observability summary attached to `RunResult`: the causal
/// trace and the transport counters.  Latency is not here — it is exact,
/// per request, in `RunResult::records`.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Whether tracing was armed for this run.
    pub armed: bool,
    /// The captured event log, if a capturing mode was armed.
    pub trace: Option<TraceLog>,
    /// Aggregate transport counters (all-zero for substrates with no real
    /// wire: the TCP harnesses fill this in after the run).
    pub net: crate::NetCounters,
}

/// The capture engine.  See the module docs for the ordering and
/// Lamport-stamping contracts.
#[derive(Clone, Debug)]
pub struct EngineTracer {
    armed: bool,
    /// Ring capacity; 0 = unbounded.
    ring: usize,
    /// Next overwrite position in ring mode.
    head: usize,
    dropped: u64,
    buf: Vec<TraceRec>,
    /// Per-node Lamport clocks (indexed by global node id).
    clocks: Vec<u64>,
    cur_at: Time,
    cur_ord: u64,
    next_seq: u32,
}

impl Default for EngineTracer {
    fn default() -> Self {
        Self::disarmed()
    }
}

impl EngineTracer {
    /// A disarmed tracer: every hook is a single-branch no-op and no
    /// buffers are allocated.  This is the default state everywhere.
    pub fn disarmed() -> Self {
        EngineTracer {
            armed: false,
            ring: 0,
            head: 0,
            dropped: 0,
            buf: Vec::new(),
            clocks: Vec::new(),
            cur_at: Time::ZERO,
            cur_ord: 0,
            next_seq: 0,
        }
    }

    /// Arm for `n` nodes in the given mode.  All memory the armed hot
    /// path will touch is allocated here: the ring buffer is pre-sized to
    /// capacity, so recording in ring mode performs zero allocations.
    pub fn armed(n: usize, mode: TraceMode) -> Self {
        let mut t = Self::disarmed();
        match mode {
            TraceMode::Off => return t,
            TraceMode::Ring(cap) => {
                t.ring = cap.max(1);
                t.buf = Vec::with_capacity(t.ring);
            }
            TraceMode::Unbounded => {
                t.buf = Vec::with_capacity(1024);
            }
        }
        t.armed = true;
        t.clocks = vec![0; n];
        t
    }

    /// Whether the hooks record anything.  For callers whose hook
    /// *arguments* are costly to compute: the hooks themselves already
    /// return at once when disarmed.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Events lost to ring overwrite so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Set the engine dispatch key subsequent emissions record under.
    /// Resets the intra-dispatch sequence counter.
    #[inline]
    pub fn set_key(&mut self, at: Time, ord: u64) {
        if !self.armed {
            return;
        }
        self.cur_at = at;
        self.cur_ord = ord;
        self.next_seq = 0;
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        let rec = TraceRec { at: self.cur_at, ord: self.cur_ord, seq: self.next_seq, ev };
        self.next_seq += 1;
        if self.ring == 0 || self.buf.len() < self.ring {
            self.buf.push(rec);
        } else {
            // Overwrite the oldest slot: fixed memory, no allocation.
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.ring;
            self.dropped += 1;
        }
    }

    #[inline]
    fn tick(&mut self, node: usize) -> u64 {
        let c = &mut self.clocks[node];
        *c += 1;
        *c
    }

    /// First transmission of a protocol message.  Returns the Lamport
    /// stamp the frame must carry; disarmed, returns 0 (a stamp the recv
    /// side joins as a no-op).
    #[inline]
    pub fn on_send(&mut self, from: usize, to: usize, tag: &'static str, weight: u32) -> u64 {
        if !self.armed {
            return 0;
        }
        let stamp = self.tick(from);
        self.push(TraceEvent {
            kind: EventKind::Send,
            node: from as u32,
            peer: to as u32,
            tag,
            lamport: stamp,
            cause: stamp,
            weight,
        });
        stamp
    }

    /// Delivery of a protocol message carrying stamp `cause`.
    /// Joins the receiver's clock: `C[to] = max(C[to], cause) + 1`.
    #[inline]
    pub fn on_recv(&mut self, from: usize, to: usize, tag: &'static str, weight: u32, cause: u64) {
        if !self.armed {
            return;
        }
        let c = &mut self.clocks[to];
        *c = (*c).max(cause) + 1;
        let lamport = *c;
        self.push(TraceEvent {
            kind: EventKind::Recv,
            node: to as u32,
            peer: from as u32,
            tag,
            lamport,
            cause,
            weight,
        });
    }

    /// The session layer re-sent a frame.  Mints a fresh stamp (the
    /// retransmission is a later event than the original send).
    #[inline]
    pub fn on_retransmit(&mut self, from: usize, to: usize, tag: &'static str, weight: u32) -> u64 {
        if !self.armed {
            return 0;
        }
        let stamp = self.tick(from);
        self.push(TraceEvent {
            kind: EventKind::Retransmit,
            node: from as u32,
            peer: to as u32,
            tag,
            lamport: stamp,
            cause: stamp,
            weight,
        });
        stamp
    }

    /// The fault plan dropped a delivery to `node` from `peer`.
    #[inline]
    pub fn on_fault(&mut self, node: usize, peer: usize, tag: &'static str, cause: u64) {
        if !self.armed {
            return;
        }
        let lamport = self.clocks[node];
        self.push(TraceEvent {
            kind: EventKind::FaultVerdict,
            node: node as u32,
            peer: peer as u32,
            tag,
            lamport,
            cause,
            weight: 0,
        });
    }

    /// A critical-section lifecycle event (request / enter / exit);
    /// `set_size` is the requested resource-set size.  Ticks the node's
    /// clock: local events order after anything the node has seen.
    #[inline]
    pub fn on_cs(&mut self, kind: EventKind, node: usize, set_size: u32) {
        if !self.armed {
            return;
        }
        debug_assert!(matches!(
            kind,
            EventKind::CsRequest | EventKind::CsEnter | EventKind::CsExit
        ));
        let lamport = self.tick(node);
        self.push(TraceEvent {
            kind,
            node: node as u32,
            peer: NO_PEER,
            tag: "",
            lamport,
            cause: 0,
            weight: set_size,
        });
    }

    /// Drain this tracer's buffer in canonical emission order (ring mode
    /// rotates so the oldest surviving event comes first).  Leaves the
    /// tracer disarmed and empty.
    pub fn take_buf(&mut self) -> Vec<TraceRec> {
        let head = self.head;
        let mut buf = std::mem::take(&mut self.buf);
        if head > 0 {
            buf.rotate_left(head);
        }
        self.armed = false;
        self.head = 0;
        buf
    }

    /// Finish a run's tracer into its [`ObsReport`]: the buffer sorted
    /// canonically ([`TraceLog::merge`]), or no trace when disarmed.
    pub fn finish(mut self) -> ObsReport {
        let trace = self.armed.then(|| {
            let dropped = self.dropped;
            TraceLog::merge(self.take_buf(), dropped)
        });
        ObsReport { armed: trace.is_some(), trace, net: Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hooks_are_noops() {
        let mut t = EngineTracer::disarmed();
        t.set_key(Time::from_millis(1), 7);
        assert_eq!(t.on_send(0, 1, "Req", 24), 0);
        t.on_recv(0, 1, "Req", 24, 0);
        assert_eq!(t.on_retransmit(0, 1, "Req", 24), 0);
        t.on_fault(1, 0, "Req", 0);
        t.on_cs(EventKind::CsEnter, 0, 2);
        let rep = t.finish();
        assert!(!rep.armed);
        assert!(rep.trace.is_none());
    }

    #[test]
    fn lamport_send_recv_join() {
        let mut t = EngineTracer::armed(3, TraceMode::Unbounded);
        t.set_key(Time::from_millis(1), 1);
        let s1 = t.on_send(0, 1, "Req", 10);
        assert_eq!(s1, 1);
        let s2 = t.on_send(0, 2, "Req", 10);
        assert_eq!(s2, 2);
        t.set_key(Time::from_millis(2), 2);
        t.on_recv(0, 1, "Req", 10, s1);
        t.set_key(Time::from_millis(3), 3);
        t.on_recv(0, 2, "Req", 10, s2);
        let rep = t.finish();
        let log = rep.trace.unwrap();
        assert_eq!(log.len(), 4);
        // recv lamport strictly exceeds its cause.
        for r in &log.recs {
            if r.ev.kind == EventKind::Recv {
                assert!(r.ev.lamport > r.ev.cause);
            }
        }
        // node 1 joined stamp 1 -> clock 2; node 2 joined stamp 2 -> 3.
        assert_eq!(log.recs[2].ev.lamport, 2);
        assert_eq!(log.recs[3].ev.lamport, 3);
    }

    #[test]
    fn seq_resets_per_dispatch_key() {
        let mut t = EngineTracer::armed(2, TraceMode::Unbounded);
        t.set_key(Time::from_millis(1), 5);
        t.on_recv(1, 0, "Req", 8, 1);
        t.on_send(0, 1, "Grant", 8);
        t.set_key(Time::from_millis(2), 6);
        t.on_recv(0, 1, "Grant", 8, 2);
        let log = t.finish().trace.unwrap();
        assert_eq!(log.recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1, 0]);
    }

    #[test]
    fn ring_overwrites_oldest_without_growing() {
        let mut t = EngineTracer::armed(2, TraceMode::Ring(4));
        for i in 0..10u64 {
            t.set_key(Time::from_nanos(i), i);
            t.on_send(0, 1, "Req", 1);
        }
        assert_eq!(t.dropped(), 6);
        let buf = t.take_buf();
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.capacity(), 4);
        // Oldest surviving first, and only the last 4 survive.
        let ords: Vec<u64> = buf.iter().map(|r| r.ord).collect();
        assert_eq!(ords, vec![6, 7, 8, 9]);
    }

    #[test]
    fn finish_sorts_into_canonical_order() {
        // Keys recorded out of order, as `VirtualNet` and TCP runs do:
        // `finish` sorts by (at, ord, seq).
        let mut a = EngineTracer::armed(4, TraceMode::Unbounded);
        a.set_key(Time::from_nanos(10), 2);
        a.on_send(0, 1, "Req", 1);
        a.set_key(Time::from_nanos(10), 1);
        a.on_send(2, 3, "Req", 1);
        a.set_key(Time::from_nanos(5), 9);
        a.on_cs(EventKind::CsRequest, 0, 2);
        let rep = a.finish();
        let log = rep.trace.as_ref().unwrap();
        let keys: Vec<(u64, u64)> = log.recs.iter().map(|r| (r.at.as_nanos(), r.ord)).collect();
        assert_eq!(keys, vec![(5, 9), (10, 1), (10, 2)]);
        assert!(rep.armed);
    }

    #[test]
    fn retransmit_mints_fresh_stamp() {
        let mut t = EngineTracer::armed(2, TraceMode::Unbounded);
        t.set_key(Time::from_millis(1), 1);
        let s = t.on_send(0, 1, "Req", 4);
        t.set_key(Time::from_millis(4), 2);
        let r = t.on_retransmit(0, 1, "Req", 4);
        assert!(r > s);
    }
}

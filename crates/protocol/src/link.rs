//! The link layer under the engines: faults, sessions and the liveness
//! rule composed once.
//!
//! Every algorithm here is specified over reliable FIFO channels (the
//! paper's hypothesis 2).  Two optional mechanisms model how far a run
//! departs from that: a [`FaultState`] (what the wire does to a frame) and
//! a [`ReliableState`] (the session protocol that repairs it).  A [`Link`]
//! owns both and answers, in one place, the four questions an engine that
//! owns all `n²` links has about them:
//!
//! * **stamp this outgoing message** — [`Link::stamp`] (the session header
//!   of the frame, `None` on perfect links);
//! * **what happens to this arriving frame** — [`Link::arrive`]: fault
//!   verdict → wire-duplicate policy → session dedup, then
//!   [`Link::take_ack`] once the handler has had its chance to piggyback;
//! * **is node X down, until when** — [`Link::down_until`];
//! * **is liveness owed** — [`Link::owes_liveness`].
//!
//! `Sim` and `VirtualNet` are its only two callers; each keeps what is
//! genuinely its own (the event heap and latency model, the per-link
//! queues and the random scheduler).  The TCP reactor stays on the
//! per-peer [`TxSession`](crate::reliable::TxSession) /
//! [`RxBatch`](crate::reliable::RxBatch) primitives — see DESIGN §9.

use crate::faults::{Admit, FaultPlan, FaultState, FaultStats, FrameFate};
use crate::reliable::{Packet, Reliability, ReliabilityStats, ReliableState, RtoVerdict};
use crate::WireMsg;
use mra_obs::EngineTracer;
use mra_types::{NodeId, Time};

/// The link layer of an engine that owns every link of an `n`-node run.
/// Perfect exactly-once FIFO links until a fault plan and/or the session
/// layer is installed.
#[derive(Clone, Debug)]
pub struct Link<M> {
    n: usize,
    faults: Option<FaultState>,
    sessions: Option<ReliableState<M>>,
}

impl<M: WireMsg> Link<M> {
    /// Perfect links between `n` nodes.
    pub fn new(n: usize) -> Self {
        Link { n, faults: None, sessions: None }
    }

    /// Install a fault plan (replacing any earlier one).
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultState::new(plan, self.n));
    }

    /// Install the session layer.
    ///
    /// # Panics
    /// If it is already installed.
    pub fn set_sessions(&mut self, cfg: Reliability) {
        assert!(self.sessions.is_none(), "reliability enabled twice");
        self.sessions = Some(ReliableState::new(cfg, self.n));
    }

    /// Is the session layer installed?
    pub fn sessions_on(&self) -> bool {
        self.sessions.is_some()
    }

    /// Fault counters so far (zero without a plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Session-layer counters so far (zero when disabled).
    pub fn session_stats(&self) -> ReliabilityStats {
        self.sessions.as_ref().map(|s| s.stats).unwrap_or_default()
    }

    /// Is liveness owed under the installed plan?  A plan that can lose
    /// messages legitimately starves waiters — unless the session layer
    /// is on and the plan is recoverable, which restores the reliable
    /// channel the protocols assume.  Engines arm their deadlock checks
    /// exactly when this holds.
    pub fn owes_liveness(&self) -> bool {
        match self.faults.as_ref().map(FaultState::plan) {
            None => true,
            Some(plan) if self.sessions_on() => plan.is_recoverable(),
            Some(plan) => !plan.is_lossy(),
        }
    }

    /// The session header `(seq, ack)` for `msg` leaving on `from → to` at
    /// `now` (clockless engines pass [`Time::ZERO`]); `None` on perfect
    /// links.  Retains the retransmit copy and piggybacks any owed ack.
    #[inline]
    pub fn stamp(&mut self, from: NodeId, to: NodeId, msg: &M, now: Time) -> Option<(u64, u64)> {
        self.sessions.as_mut().map(|st| st.on_send(from, to, msg, now))
    }

    /// A frame popped for delivery on `from → to`.  `at` is the delivery
    /// instant, `None` on a clockless engine — time-keyed faults
    /// (partitions, outages) then do not apply.  `stamp` is the frame's
    /// Lamport stamp, recorded with the fault verdict when a data frame is
    /// lost; standalone acks are session plumbing and stay untraced.
    ///
    /// A wire duplicate is a one-off copy arriving right behind the
    /// original.  It never re-enters the fault filter (a copy of a copy
    /// would cascade at high dup rates): on a sessionless frame the fault
    /// layer absorbs it, as TCP would; on a session frame the receive
    /// window sees it and discards it as stale; a duplicated ack is
    /// idempotent.
    #[inline]
    pub fn arrive(
        &mut self,
        tracer: &mut EngineTracer,
        from: NodeId,
        to: NodeId,
        at: Option<Time>,
        stamp: u64,
        frame: &Packet<M>,
    ) -> Admit {
        let mut dup = false;
        if let Some(fs) = self.faults.as_mut() {
            match fs.admit(from, to, at) {
                Err(until) => return Admit::Defer(until),
                Ok(FrameFate::Drop) => {
                    if let Packet::Data { msg, .. } = frame {
                        tracer.on_fault(to, from, msg.kind(), stamp);
                    }
                    return Admit::Drop;
                }
                Ok(FrameFate::Duplicate) => dup = true,
                Ok(FrameFate::Deliver) => {}
            }
        }
        match *frame {
            Packet::Data { session: None, .. } => {
                if dup {
                    self.faults.as_mut().expect("dup without a plan").stats.deduped += 1;
                }
                Admit::Deliver
            }
            Packet::Data { session: Some((seq, ack)), .. } => {
                let st = self.sessions.as_mut().expect("data frame without a session layer");
                let deliver = st.on_data(from, to, seq, ack);
                if dup {
                    // Stale by construction: the original just ran.
                    st.on_data(from, to, seq, ack);
                }
                if deliver {
                    Admit::Deliver
                } else {
                    Admit::Absorb
                }
            }
            Packet::Ack { ack } => {
                self.sessions
                    .as_mut()
                    .expect("ack frame without a session layer")
                    .on_ack(from, to, ack);
                Admit::Absorb
            }
        }
    }

    /// The standalone ack frame `to` owes `from` for data on `from → to`,
    /// if nothing piggybacked it.  Call after the arriving frame was
    /// dispatched, so a reply the handler sent wins.
    #[inline]
    pub fn take_ack(&mut self, from: NodeId, to: NodeId) -> Option<Packet<M>> {
        let ack = self.sessions.as_mut()?.pending_ack(from, to)?;
        Some(Packet::Ack { ack })
    }

    /// If `node` is inside an outage window at `at`: its restart instant
    /// (counted as one deferral).  A down node's timers resume then.
    #[inline]
    pub fn down_until(&mut self, node: NodeId, at: Time) -> Option<Time> {
        let fs = self.faults.as_mut()?;
        let (_, until) = fs.outage(node, at)?;
        fs.stats.deferred += 1;
        Some(until)
    }

    /// If a retransmit timer must be armed for `from → to` now (unacked
    /// frames, no timer in flight): the delay to arm it with.
    #[inline]
    pub fn arm_rto(&mut self, from: NodeId, to: NodeId) -> Option<Time> {
        let st = self.sessions.as_mut()?;
        st.needs_arm(from, to).then(|| st.rto_delay(from, to))
    }

    /// The retransmit timer of `from → to` fired at `now`.  On
    /// [`RtoVerdict::Retransmit`] re-send [`Link::unacked`] and re-arm at
    /// [`Link::rto_delay`].
    pub fn on_rto(&mut self, from: NodeId, to: NodeId, now: Time) -> RtoVerdict {
        self.sessions
            .as_mut()
            .expect("rto without a session layer")
            .on_rto(from, to, now)
    }

    /// The current (backed-off) retransmission delay of `from → to`.
    pub fn rto_delay(&self, from: NodeId, to: NodeId) -> Time {
        self.sessions.as_ref().map_or(Time::ZERO, |st| st.rto_delay(from, to))
    }

    /// The unacknowledged messages of `from → to`, oldest first, each with
    /// the session header it goes back on the wire with (its own `seq`,
    /// the current cumulative ack).
    pub fn unacked(&self, from: NodeId, to: NodeId) -> impl Iterator<Item = ((u64, u64), &M)> {
        self.sessions.iter().flat_map(move |st| {
            let ack = st.ack_for(from, to);
            st.unacked(from, to).map(move |(seq, msg)| ((seq, ack), msg))
        })
    }

    /// Re-emit every unacknowledged frame on every link (the clockless
    /// "all timers fired at once").  Returns the number re-emitted.
    pub fn retransmit_all(&mut self, emit: impl FnMut(NodeId, NodeId, Packet<M>)) -> usize {
        self.sessions.as_mut().map_or(0, |st| st.retransmit_all(emit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::LinkFaults;
    use mra_obs::TraceMode;

    #[derive(Clone, Debug)]
    struct Ping;
    impl WireMsg for Ping {
        fn kind(&self) -> &'static str {
            "Ping"
        }
    }

    const DROP: LinkFaults = LinkFaults { drop: 1.0, dup: 0.0 };
    const DUP: LinkFaults = LinkFaults { drop: 0.0, dup: 1.0 };

    fn link(plan: Option<FaultPlan>, sessions: bool) -> Link<Ping> {
        let mut link = Link::new(2);
        if let Some(p) = plan {
            link.set_faults(p);
        }
        if sessions {
            link.set_sessions(Reliability::default());
        }
        link
    }

    /// `(verdict, ack owed, [duplicated, deduped, dropped_link, dup_dropped], traced)`
    /// of one frame — data on `0 → 1`, or the standalone ack `1` sends back
    /// for it — whose own hop runs under `faults`.
    fn arrive(faults: LinkFaults, sessions: bool, ack: bool) -> (Admit, bool, [u64; 4], bool) {
        let (from, to) = if ack { (1, 0) } else { (0, 1) };
        let mut link = link(Some(FaultPlan::new(5).link_override(from, to, faults)), sessions);
        let mut tracer = EngineTracer::armed(2, TraceMode::Unbounded);
        tracer.set_key(Time::ZERO, 0);
        let mut frame = Packet::Data { session: link.stamp(0, 1, &Ping, Time::ZERO), msg: Ping };
        if ack {
            // The data frame crosses its (fault-free) hop, untraced.
            let mut quiet = EngineTracer::disarmed();
            assert_eq!(link.arrive(&mut quiet, 0, 1, None, 0, &frame), Admit::Deliver);
            frame = link.take_ack(0, 1).expect("ack owed");
        }
        let verdict = link.arrive(&mut tracer, from, to, None, 7, &frame);
        let (f, s) = (link.fault_stats(), link.session_stats());
        let stats = [f.duplicated, f.deduped, f.dropped_link, s.dup_dropped];
        (verdict, link.take_ack(from, to).is_some(), stats, !tracer.take_buf().is_empty())
    }

    #[test]
    fn arrival_truth_table() {
        use Admit::*;
        let none = LinkFaults::NONE;
        // Data, sessions off: the fault layer absorbs a wire copy itself.
        assert_eq!(arrive(none, false, false), (Deliver, false, [0, 0, 0, 0], false));
        assert_eq!(arrive(DROP, false, false), (Drop, false, [0, 0, 1, 0], true));
        assert_eq!(arrive(DUP, false, false), (Deliver, false, [1, 1, 0, 0], false));
        // Data, sessions on: the copy reaches the receive window, which
        // discards it as stale; every arrival owes an ack.
        assert_eq!(arrive(none, true, false), (Deliver, true, [0, 0, 0, 0], false));
        assert_eq!(arrive(DROP, true, false), (Drop, false, [0, 0, 1, 0], true));
        assert_eq!(arrive(DUP, true, false), (Deliver, true, [1, 0, 0, 1], false));
        // Acks (they only exist with sessions on) stay untraced — also
        // when dropped; a duplicated ack is idempotent.
        assert_eq!(arrive(none, true, true), (Absorb, false, [0, 0, 0, 0], false));
        assert_eq!(arrive(DROP, true, true), (Drop, false, [0, 0, 1, 0], false));
        assert_eq!(arrive(DUP, true, true), (Absorb, false, [1, 0, 0, 0], false));
    }

    #[test]
    fn stale_and_gap_frames_are_absorbed_and_reacked() {
        let mut link = link(None, true);
        let mut tr = EngineTracer::disarmed();
        let data = |seq| Packet::Data { session: Some((seq, 0)), msg: Ping };
        assert_eq!(link.arrive(&mut tr, 0, 1, None, 0, &data(1)), Admit::Absorb, "gap");
        assert!(link.take_ack(0, 1).is_some());
        assert_eq!(link.arrive(&mut tr, 0, 1, None, 0, &data(0)), Admit::Deliver);
        assert_eq!(link.arrive(&mut tr, 0, 1, None, 0, &data(0)), Admit::Absorb, "stale");
        assert!(link.take_ack(0, 1).is_some(), "duplicates are re-acked");
        assert!(link.take_ack(0, 1).is_none(), "flag consumed");
    }

    #[test]
    fn liveness_owed_table() {
        let owed = |plan: FaultPlan, sessions| link(Some(plan), sessions).owes_liveness();
        let windows = FaultPlan::new(1)
            .partition(vec![0], Time::ZERO, Time::from_secs(1))
            .crash(1, Time::ZERO, Time::from_secs(1));
        for sessions in [false, true] {
            assert!(link(None, sessions).owes_liveness(), "no plan");
            assert!(owed(FaultPlan::new(1), sessions), "clean");
            assert!(owed(FaultPlan::new(1).dup_rate(0.5), sessions), "dup-only");
            // Lossy but recoverable — drops below 1.0, windows that end:
            // owed exactly when retransmission exists.
            assert_eq!(owed(FaultPlan::new(1).drop_rate(0.99), sessions), sessions);
            assert_eq!(owed(windows.clone(), sessions), sessions);
            // Total loss, even on one link, is beyond repair.
            assert!(!owed(FaultPlan::new(1).drop_rate(1.0), sessions));
            assert!(!owed(FaultPlan::new(1).link_override(0, 1, DROP), sessions));
        }
    }

    #[test]
    fn time_keyed_faults_need_a_clock() {
        let secs = Time::from_secs;
        let plan = FaultPlan::new(1)
            .pause(1, Time::ZERO, secs(1))
            .partition(vec![0], Time::ZERO, secs(1));
        let mut link = link(Some(plan), false);
        let mut tr = EngineTracer::disarmed();
        let frame = Packet::Data { session: None, msg: Ping };
        let mid = Time::from_millis(500);
        assert_eq!(link.arrive(&mut tr, 0, 1, None, 0, &frame), Admit::Deliver, "clockless");
        assert_eq!(link.arrive(&mut tr, 0, 1, Some(mid), 0, &frame), Admit::Defer(secs(1)));
        assert_eq!(link.arrive(&mut tr, 1, 0, Some(mid), 0, &frame), Admit::Drop, "partitioned");
        assert_eq!(link.down_until(1, mid), Some(secs(1)));
        assert_eq!(link.down_until(0, mid), None);
        assert_eq!(link.fault_stats().deferred, 2);
    }
}

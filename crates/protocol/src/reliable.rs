//! The reliable-delivery session layer: exactly-once FIFO channels over
//! lossy links.
//!
//! Every algorithm in this workspace is specified over **reliable FIFO
//! channels** (the paper's hypothesis 2).  PR 4's fault sweep demonstrated
//! what happens when that hypothesis is silently dropped: with no
//! retransmission, every protocol collapses past per-mille sustained frame
//! loss, and liveness is simply "not owed".  This module makes the channel
//! contract real — a per-ordered-pair session protocol that upgrades any
//! lossy-but-FIFO link back to exactly-once FIFO delivery:
//!
//! * **monotone sequence numbers** — the sender stamps the `k`-th frame on
//!   a directed link with `seq = k`;
//! * **cumulative acks** — the receiver tracks `expected`, the next
//!   in-order sequence number; the value `expected` acknowledges every
//!   frame with `seq < expected`.  Acks are piggybacked on reverse-direction
//!   data traffic and sent as standalone ack frames when no reverse data is
//!   flowing;
//! * **timer-driven retransmission** — while unacknowledged frames exist
//!   the sender arms a retransmit timer; on expiry it re-sends the whole
//!   unacked window (go-back-N: the underlying channel is FIFO, so the
//!   receiver only ever accepts `expected` and discards the rest) and backs
//!   off exponentially up to a cap;
//! * **receive-side dedup window** — frames with `seq < expected` are
//!   duplicates (a retransmission that raced the ack, or a wire-level
//!   duplicate): they are discarded *and re-acked*, so a lost ack cannot
//!   wedge the sender.  Frames with `seq > expected` are gap frames (an
//!   earlier frame was lost); discarding them preserves FIFO and the
//!   retransmit timer recovers the gap.
//!
//! The state containers come in two granularities: [`TxSession`] /
//! [`RxBatch`] for substrates that own one link at a time (the TCP
//! transport keeps one pair per peer), and [`ReliableState`] for engines
//! that own all `n²` links of a run (`Sim`, `VirtualNet` — which reach it
//! only through [`crate::link::Link`]).  All buffers are
//! pre-sized at construction ([`Reliability::window`]), so the steady-state
//! send/ack path performs no heap allocation beyond cloning the message
//! payload into the retransmit window — the simulator's zero-alloc guard
//! runs with reliability enabled over a lossy plan.
//!
//! With reliability **off** the links are the paper-faithful perfect
//! channels (nothing changes); with reliability **on** the same protocols
//! survive any fault plan that is [recoverable](
//! crate::faults::FaultPlan::is_recoverable) — every drop rate below 1.0 —
//! and the engines re-arm their deadlock detectors accordingly.

use mra_types::{env_flag, NodeId, Time};
use std::collections::VecDeque;

/// Retransmission never backs off beyond `rto << MAX_BACKOFF`.
const MAX_BACKOFF: u32 = 6;

/// Session-layer configuration.  `off` is represented by *not installing*
/// a `Reliability` at all (`Option<Reliability>` everywhere): the engines
/// then run the paper's perfect-link model untouched.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reliability {
    /// Initial retransmission timeout (doubles per expiry while a frame
    /// stays unacknowledged).
    pub rto: Time,
    /// Upper bound of the exponential backoff.
    pub rto_cap: Time,
    /// Pre-sized per-link retransmit window (frames).  The window grows on
    /// demand; the pre-size only decides when the first reallocation
    /// happens (the zero-alloc guard uses a generous one).
    pub window: usize,
}

impl Default for Reliability {
    /// 10 ms initial RTO (≫ the paper's γ = 0.6 ms LAN latency), capped at
    /// `10 ms << MAX_BACKOFF` = 640 ms, 64-frame window pre-size.
    fn default() -> Self {
        Reliability::with_rto(Time::from_millis(10))
    }
}

impl Reliability {
    /// A configuration with the given initial RTO and the default cap
    /// (`rto << MAX_BACKOFF`) and window pre-size.
    pub fn with_rto(rto: Time) -> Self {
        assert!(rto > Time::ZERO, "RTO must be positive");
        Reliability {
            rto,
            rto_cap: Time::from_nanos(
                (rto.as_nanos() as u128) // u128: the shift cannot overflow
                    .checked_shl(MAX_BACKOFF)
                    .map_or(u64::MAX, |v| v.min(u64::MAX as u128) as u64),
            ),
            window: 64,
        }
    }

    /// Is `MRA_RELIABLE` switched on ([`env_flag`])?
    pub fn env_enabled() -> bool {
        env_flag("MRA_RELIABLE")
    }

    /// The initial RTO from `MRA_RTO_MS` (fractional milliseconds), or
    /// `default` when unset, unparsable or non-positive.  Shared by
    /// [`Reliability::from_env`] and sweeps that enable the session layer
    /// explicitly but still honour the RTO knob.
    pub fn env_rto_or(default: Time) -> Time {
        std::env::var("MRA_RTO_MS")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|ms| *ms > 0.0)
            .map(Time::from_millis_f64)
            .unwrap_or(default)
    }

    /// The session config from the environment: `Some` when `MRA_RELIABLE`
    /// is truthy, with the initial RTO overridden by `MRA_RTO_MS`.
    pub fn from_env() -> Option<Reliability> {
        if !Self::env_enabled() {
            return None;
        }
        Some(Reliability::with_rto(Self::env_rto_or(Time::from_millis(
            10,
        ))))
    }

    /// The retransmission delay after `backoff` consecutive expiries:
    /// `min(rto << backoff, rto_cap)`.
    pub fn delay(&self, backoff: u32) -> Time {
        let ns = (self.rto.as_nanos() as u128)
            .checked_shl(backoff.min(MAX_BACKOFF))
            .map_or(u128::MAX, |v| v);
        Time::from_nanos(ns.min(self.rto_cap.as_nanos() as u128) as u64)
    }
}

/// What the session layer did during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Data frames sent for the first time.
    pub data_sent: u64,
    /// Data frames re-sent by a retransmit timer.
    pub retransmits: u64,
    /// Retransmit timer expiries that found unacked frames.
    pub rto_fires: u64,
    /// Standalone ack frames sent.
    pub acks_sent: u64,
    /// Acks piggybacked on reverse-direction data frames.
    pub acks_piggybacked: u64,
    /// Received data frames discarded as duplicates (`seq < expected`).
    pub dup_dropped: u64,
    /// Received data frames discarded as gaps (`seq > expected`).
    pub gap_dropped: u64,
}

impl ReliabilityStats {
    /// Frames the session layer put on the wire beyond first-transmission
    /// data: the retransmission overhead numerator.
    pub fn overhead_frames(&self) -> u64 {
        self.retransmits + self.acks_sent
    }

    /// Overhead in percent of first-transmission data frames (0 when no
    /// data flowed).
    pub fn overhead_pct(&self) -> f64 {
        if self.data_sent == 0 {
            return 0.0;
        }
        100.0 * self.overhead_frames() as f64 / self.data_sent as f64
    }
}

/// One frame held in the retransmit window.
#[derive(Clone, Debug)]
struct Held<M> {
    seq: u64,
    /// When the frame was (re)transmitted last — the RTO compares against
    /// the *oldest* held frame so a timer armed for frame `k` never
    /// spuriously re-sends a younger frame `k+1` (clockless engines pass
    /// [`Time::ZERO`]; they trigger retransmission explicitly instead).
    sent_at: Time,
    msg: M,
}

/// Verdict of a retransmit timer expiry ([`TxSession::on_rto`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtoVerdict {
    /// Nothing unacknowledged: the timer dies (the next send re-arms it).
    Idle,
    /// The oldest unacked frame is younger than the timeout: nothing to
    /// re-send yet, re-arm at the contained instant (no backoff bump).
    Rearm(Time),
    /// The oldest unacked frame timed out: re-send the whole window
    /// (go-back-N; the receive window discards what it already has) — the
    /// contained count of frames — with the backoff bumped.
    Retransmit(usize),
}

/// Sender half of one directed link session.
#[derive(Clone, Debug)]
pub struct TxSession<M> {
    next_seq: u64,
    unacked: VecDeque<Held<M>>,
    backoff: u32,
}

impl<M: Clone> TxSession<M> {
    /// Fresh session with a pre-sized retransmit window.
    pub fn new(window: usize) -> Self {
        TxSession {
            next_seq: 0,
            unacked: VecDeque::with_capacity(window),
            backoff: 0,
        }
    }

    /// Stamp the next outgoing frame and retain a copy for retransmission.
    /// Returns the assigned sequence number.
    pub fn send(&mut self, msg: &M, now: Time) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back(Held { seq, sent_at: now, msg: msg.clone() });
        seq
    }

    /// Apply a cumulative ack (`upto` acknowledges every `seq < upto`).
    /// Returns true when at least one frame was newly acknowledged — the
    /// backoff resets on progress.
    pub fn ack(&mut self, upto: u64) -> bool {
        let mut progressed = false;
        while self.unacked.front().is_some_and(|h| h.seq < upto) {
            self.unacked.pop_front();
            progressed = true;
        }
        if progressed {
            self.backoff = 0;
        }
        progressed
    }

    /// Are frames awaiting acknowledgement?
    pub fn has_unacked(&self) -> bool {
        !self.unacked.is_empty()
    }

    /// The unacknowledged `(seq, msg)` pairs, oldest first.
    pub fn unacked(&self) -> impl Iterator<Item = (u64, &M)> {
        self.unacked.iter().map(|h| (h.seq, &h.msg))
    }

    /// A retransmit timer expired at `now` under `cfg`.  On
    /// [`RtoVerdict::Retransmit`] the whole window counts as re-sent at
    /// `now` (the frames' ages reset) and the backoff is bumped; the caller
    /// re-sends [`TxSession::unacked`] and re-arms at
    /// [`TxSession::rto_delay`].
    pub fn on_rto(&mut self, now: Time, cfg: &Reliability) -> RtoVerdict {
        let Some(oldest) = self.unacked.front() else {
            return RtoVerdict::Idle;
        };
        let due = oldest.sent_at + cfg.delay(self.backoff);
        if due > now {
            return RtoVerdict::Rearm(due);
        }
        self.backoff = (self.backoff + 1).min(MAX_BACKOFF);
        for h in self.unacked.iter_mut() {
            h.sent_at = now;
        }
        RtoVerdict::Retransmit(self.unacked.len())
    }

    /// The underlying link just came up.  Frames sent while the
    /// connection was still forming were parked locally, never on the
    /// wire, so their RTO clocks must restart from `now` (and the
    /// backoff with them) — otherwise the timer fires the instant a
    /// slow-forming link connects and "retransmits" frames whose first
    /// copy is still in the write queue.
    pub fn link_up(&mut self, now: Time) {
        self.backoff = 0;
        for h in self.unacked.iter_mut() {
            h.sent_at = now;
        }
    }

    /// Current retransmission delay under `cfg`.
    pub fn rto_delay(&self, cfg: &Reliability) -> Time {
        cfg.delay(self.backoff)
    }

    /// Data frames sent so far (first transmissions).
    pub fn sent(&self) -> u64 {
        self.next_seq
    }
}

/// Verdict of the receive-side dedup window for one data frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxVerdict {
    /// In order: hand the payload to the protocol exactly once.
    Deliver,
    /// `seq < expected`: a duplicate — discard, but re-ack (the ack that
    /// would have cleared it may have been lost).
    Stale,
    /// `seq > expected`: an earlier frame was lost — discard to preserve
    /// FIFO; the sender's timer retransmits the gap.
    Gap,
}

/// Receiver half of one directed link session: the next in-order
/// sequence number and the ack-owed flag.  Every substrate keeps one per
/// directed link ([`ReliableState`] one per link, the TCP reactor one per
/// peer).  An owed ack rides piggybacked on the next outbound data frame,
/// or is flushed as one standalone ack frame per servicing pass, instead
/// of one ack write per received frame.
#[derive(Clone, Copy, Debug, Default)]
pub struct RxBatch {
    expected: u64,
    owed: bool,
}

impl RxBatch {
    /// Classify an arriving sequence number, advancing the window on an
    /// in-order frame.  Every data frame — delivered, stale or gap — marks
    /// an ack owed: duplicates must be re-acked (the ack that would have
    /// cleared them may have been lost), and re-acking on a gap costs
    /// nothing since the flag batches.
    pub fn accept(&mut self, seq: u64) -> RxVerdict {
        use std::cmp::Ordering::*;
        self.owed = true;
        match seq.cmp(&self.expected) {
            Equal => {
                self.expected += 1;
                RxVerdict::Deliver
            }
            Less => RxVerdict::Stale,
            Greater => RxVerdict::Gap,
        }
    }

    /// The cumulative ack value: every `seq < cum()` has been delivered.
    pub fn cum(&self) -> u64 {
        self.expected
    }

    /// Is a cumulative ack owed to the peer?
    pub fn ack_owed(&self) -> bool {
        self.owed
    }

    /// The piggyback ack for an outbound data frame.  Consumes the owed
    /// flag: the data frame carries the ack, so no standalone ack is due.
    pub fn piggyback(&mut self) -> u64 {
        self.owed = false;
        self.expected
    }

    /// Consume the owed flag and return the value to send as a standalone
    /// ack frame, or `None` when nothing is owed (e.g. a data frame just
    /// piggybacked it).  Call once per servicing pass, after all sends.
    pub fn take_owed(&mut self) -> Option<u64> {
        if self.owed {
            self.owed = false;
            Some(self.expected)
        } else {
            None
        }
    }
}

/// A frame as it travels a link of an engine whose links carry typed
/// messages (`Sim`, `VirtualNet`); the TCP transport encodes the same
/// shapes as wire frames.
#[derive(Clone, Debug)]
pub enum Packet<M> {
    /// A protocol message.
    Data {
        /// The session header `(seq, ack)` — monotone per-link sequence
        /// number, piggybacked cumulative ack for the reverse direction —
        /// or `None` on a perfect link (reliability off).
        session: Option<(u64, u64)>,
        /// The protocol payload.
        msg: M,
    },
    /// A standalone cumulative ack for the reverse direction.
    Ack {
        /// Cumulative ack value.
        ack: u64,
    },
}

/// Session state for engines that own **all** links of an `n`-node run
/// (`Sim`, `VirtualNet`): one [`TxSession`]/[`RxBatch`] pair per directed
/// link (`from * n + to`), plus per-link timer-armed flags and the running
/// [`ReliabilityStats`].
///
/// Direction conventions (`L(a→b) = a * n + b`):
/// * a data frame on `L(a→b)` carries `seq` from `tx[L(a→b)]` and a
///   piggybacked `ack` describing `rx[L(b→a)]` (what `a` has received from
///   `b`);
/// * its receiver `b` feeds `seq` to `rx[L(a→b)]` and `ack` to
///   `tx[L(b→a)]`;
/// * a standalone ack from `b` to `a` acknowledges `L(a→b)` and is applied
///   to `tx[L(a→b)]`.
#[derive(Clone, Debug)]
pub struct ReliableState<M> {
    cfg: Reliability,
    n: usize,
    tx: Vec<TxSession<M>>,
    rx: Vec<RxBatch>,
    /// Is a retransmit timer event in flight for this tx link?  (Engines
    /// with an event heap keep exactly one timer per link.)
    armed: Vec<bool>,
    /// What happened so far.
    pub stats: ReliabilityStats,
}

impl<M: Clone> ReliableState<M> {
    /// Instantiate the session layer for an `n`-node system.
    pub fn new(cfg: Reliability, n: usize) -> Self {
        ReliableState {
            n,
            tx: (0..n * n).map(|_| TxSession::new(cfg.window)).collect(),
            rx: vec![RxBatch::default(); n * n],
            armed: vec![false; n * n],
            stats: ReliabilityStats::default(),
            cfg,
        }
    }

    #[inline]
    fn link(&self, from: NodeId, to: NodeId) -> usize {
        debug_assert!(from < self.n && to < self.n);
        from * self.n + to
    }

    /// Stamp an outgoing protocol message on `from → to` at `now` (the
    /// frame age drives the retransmit timer; clockless engines pass
    /// [`Time::ZERO`]): assigns the sequence number, retains the retransmit
    /// copy and computes the piggybacked ack (clearing the owed-ack flag of
    /// the reverse link).  Returns `(seq, ack)`.
    pub fn on_send(&mut self, from: NodeId, to: NodeId, msg: &M, now: Time) -> (u64, u64) {
        let l = self.link(from, to);
        let seq = self.tx[l].send(msg, now);
        let rev = self.link(to, from);
        let r = &mut self.rx[rev];
        if r.ack_owed() {
            self.stats.acks_piggybacked += 1;
        }
        self.stats.data_sent += 1;
        (seq, r.piggyback())
    }

    /// Process an arriving data frame on `from → to`.  Applies the
    /// piggybacked ack, classifies the sequence number and marks an ack
    /// owed (for *every* data frame — duplicates must be re-acked).
    /// Returns true when the payload is to be delivered to the protocol.
    pub fn on_data(&mut self, from: NodeId, to: NodeId, seq: u64, ack: u64) -> bool {
        let rev = self.link(to, from);
        self.tx[rev].ack(ack);
        let l = self.link(from, to);
        match self.rx[l].accept(seq) {
            RxVerdict::Deliver => true,
            RxVerdict::Stale => {
                self.stats.dup_dropped += 1;
                false
            }
            RxVerdict::Gap => {
                self.stats.gap_dropped += 1;
                false
            }
        }
    }

    /// Process a standalone ack sent by `from` to `to` (acknowledging data
    /// on `to → from`).
    pub fn on_ack(&mut self, from: NodeId, to: NodeId, ack: u64) {
        let l = self.link(to, from);
        self.tx[l].ack(ack);
    }

    /// If an ack is owed on the data link `from → to`, consume the flag and
    /// return the cumulative ack value the receiver (`to`) should send back
    /// to `from` as a standalone ack frame.  Engines call this after a
    /// dispatch: when the handler already replied with data, the piggyback
    /// in [`ReliableState::on_send`] cleared the flag and this returns
    /// `None`.
    pub fn pending_ack(&mut self, from: NodeId, to: NodeId) -> Option<u64> {
        let l = self.link(from, to);
        let ack = self.rx[l].take_owed()?;
        self.stats.acks_sent += 1;
        Some(ack)
    }

    /// The current piggyback ack value for data on `from → to` *without*
    /// consuming the owed flag (used when re-encoding retransmissions).
    pub fn ack_for(&self, from: NodeId, to: NodeId) -> u64 {
        self.rx[self.link(to, from)].cum()
    }

    /// Should the engine arm a retransmit timer for `from → to` now?
    /// True exactly once per armed period: when unacked frames exist and no
    /// timer is in flight (the flag is cleared by [`ReliableState::on_rto`]).
    pub fn needs_arm(&mut self, from: NodeId, to: NodeId) -> bool {
        let l = self.link(from, to);
        if !self.armed[l] && self.tx[l].has_unacked() {
            self.armed[l] = true;
            true
        } else {
            false
        }
    }

    /// The delay until the next retransmission of `from → to` under the
    /// current backoff.
    pub fn rto_delay(&self, from: NodeId, to: NodeId) -> Time {
        self.tx[self.link(from, to)].rto_delay(&self.cfg)
    }

    /// A retransmit timer for `from → to` fired at `now`.  On
    /// [`RtoVerdict::Retransmit`] the timer stays armed (the engine
    /// re-sends [`ReliableState::unacked`] and schedules the next expiry at
    /// [`ReliableState::rto_delay`], which the call just backed off); on
    /// [`RtoVerdict::Rearm`] it stays armed without a backoff bump (the
    /// oldest frame is younger than the timeout — re-arm at the returned
    /// instant); on [`RtoVerdict::Idle`] it is disarmed.
    pub fn on_rto(&mut self, from: NodeId, to: NodeId, now: Time) -> RtoVerdict {
        let l = self.link(from, to);
        let verdict = self.tx[l].on_rto(now, &self.cfg);
        match verdict {
            RtoVerdict::Retransmit(k) => {
                self.stats.rto_fires += 1;
                self.stats.retransmits += k as u64;
                self.armed[l] = true;
            }
            RtoVerdict::Rearm(_) => self.armed[l] = true,
            RtoVerdict::Idle => self.armed[l] = false,
        }
        verdict
    }

    /// The unacknowledged `(seq, msg)` pairs of `from → to`, oldest first.
    pub fn unacked(&self, from: NodeId, to: NodeId) -> impl Iterator<Item = (u64, &M)> {
        self.tx[self.link(from, to)].unacked()
    }

    /// Re-emit every unacknowledged frame on every link through `emit`
    /// (clockless engines call this when the network would otherwise be
    /// stuck — the abstract "all timers fired at once").  Returns the
    /// number of frames re-emitted.
    pub fn retransmit_all(
        &mut self,
        mut emit: impl FnMut(NodeId, NodeId, Packet<M>),
    ) -> usize {
        let n = self.n;
        let mut count = 0usize;
        for l in 0..n * n {
            let k = self.tx[l].unacked.len();
            if k == 0 {
                continue;
            }
            let (from, to) = (l / n, l % n);
            let ack = self.rx[to * n + from].cum();
            self.stats.rto_fires += 1;
            self.stats.retransmits += k as u64;
            for (seq, msg) in self.tx[l].unacked() {
                emit(from, to, Packet::Data { session: Some((seq, ack)), msg: msg.clone() });
            }
            count += k;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rx_batch_owes_one_ack_per_servicing_pass() {
        let mut rx = RxBatch::default();
        assert!(!rx.ack_owed());
        assert_eq!(rx.take_owed(), None);

        // A burst of in-order frames owes exactly one cumulative ack.
        assert_eq!(rx.accept(0), RxVerdict::Deliver);
        assert_eq!(rx.accept(1), RxVerdict::Deliver);
        assert_eq!(rx.accept(2), RxVerdict::Deliver);
        assert!(rx.ack_owed());
        assert_eq!(rx.take_owed(), Some(3));
        assert_eq!(rx.take_owed(), None, "flag consumed");

        // A duplicate re-owes an ack (the clearing ack may have been lost).
        assert_eq!(rx.accept(1), RxVerdict::Stale);
        assert_eq!(rx.take_owed(), Some(3));

        // Piggybacking onto outbound data consumes the flag too: no
        // standalone ack follows a data frame that already carried it.
        assert_eq!(rx.accept(3), RxVerdict::Deliver);
        assert_eq!(rx.piggyback(), 4);
        assert_eq!(rx.take_owed(), None);

        // A gap frame still owes (batched, so it costs no extra frame).
        assert_eq!(rx.accept(9), RxVerdict::Gap);
        assert_eq!(rx.cum(), 4);
        assert_eq!(rx.take_owed(), Some(4));
    }

    #[test]
    fn tx_session_sequences_acks_and_backs_off() {
        let cfg = Reliability::with_rto(Time::from_millis(10));
        let t0 = Time::ZERO;
        let mut tx: TxSession<u32> = TxSession::new(8);
        assert_eq!(tx.send(&10, t0), 0);
        assert_eq!(tx.send(&11, t0), 1);
        assert_eq!(tx.send(&12, t0), 2);
        assert!(tx.has_unacked());
        // Cumulative ack clears a prefix.
        assert!(tx.ack(2));
        assert_eq!(tx.unacked().count(), 1);
        assert!(!tx.ack(2), "re-ack makes no progress");
        // Due RTOs bump the backoff; progress resets it.
        assert_eq!(tx.rto_delay(&cfg), Time::from_millis(10));
        assert_eq!(tx.on_rto(Time::from_millis(10), &cfg), RtoVerdict::Retransmit(1));
        assert_eq!(tx.rto_delay(&cfg), Time::from_millis(20));
        assert_eq!(tx.on_rto(Time::from_millis(30), &cfg), RtoVerdict::Retransmit(1));
        assert_eq!(tx.rto_delay(&cfg), Time::from_millis(40));
        assert!(tx.ack(3));
        assert!(!tx.has_unacked());
        assert_eq!(tx.rto_delay(&cfg), Time::from_millis(10), "backoff reset");
        assert_eq!(
            tx.on_rto(Time::from_millis(99), &cfg),
            RtoVerdict::Idle,
            "nothing left to retransmit"
        );
        assert_eq!(tx.sent(), 3);
    }

    #[test]
    fn young_frames_rearm_instead_of_retransmitting() {
        // A timer armed for frame A must not re-send frame B that was sent
        // just before the expiry — the perfect-link regression PR 5 fixes.
        let cfg = Reliability::with_rto(Time::from_millis(10));
        let mut tx: TxSession<u32> = TxSession::new(8);
        tx.send(&1, Time::ZERO);
        // Frame 0 acked quickly; frame 1 sent at t = 8 ms.
        assert!(tx.ack(1));
        tx.send(&2, Time::from_millis(8));
        // The timer armed at t = 0 fires at t = 10: frame 1 is only 2 ms
        // old — re-arm at its own deadline (18 ms), no backoff bump.
        assert_eq!(
            tx.on_rto(Time::from_millis(10), &cfg),
            RtoVerdict::Rearm(Time::from_millis(18))
        );
        assert_eq!(tx.rto_delay(&cfg), Time::from_millis(10));
        assert_eq!(
            tx.on_rto(Time::from_millis(18), &cfg),
            RtoVerdict::Retransmit(1)
        );
    }

    #[test]
    fn backoff_is_capped() {
        let cfg = Reliability::with_rto(Time::from_millis(10));
        let mut tx: TxSession<u32> = TxSession::new(4);
        tx.send(&1, Time::ZERO);
        for k in 0..40u64 {
            // Always due: retransmission stamps `sent_at = now`, so fire
            // exactly one cap-delay later each round.
            tx.on_rto(Time::from_secs(1) * k, &cfg);
        }
        assert_eq!(tx.rto_delay(&cfg), cfg.rto_cap);
        assert_eq!(cfg.rto_cap, Time::from_millis(640));
    }

    #[test]
    fn rx_session_delivers_exactly_once_in_order() {
        let mut rx = RxBatch::default();
        assert_eq!(rx.accept(0), RxVerdict::Deliver);
        assert_eq!(rx.accept(0), RxVerdict::Stale, "retransmitted duplicate");
        assert_eq!(rx.accept(2), RxVerdict::Gap, "frame 1 was lost");
        assert_eq!(rx.accept(1), RxVerdict::Deliver);
        assert_eq!(rx.accept(2), RxVerdict::Deliver);
        assert_eq!(rx.cum(), 3);
    }

    #[test]
    fn state_piggybacks_and_emits_standalone_acks() {
        let mut st: ReliableState<u32> = ReliableState::new(Reliability::default(), 2);
        // 0 sends to 1; 1 receives and owes an ack.
        let (seq, ack) = st.on_send(0, 1, &7, Time::ZERO);
        assert_eq!((seq, ack), (0, 0));
        assert!(st.on_data(0, 1, seq, ack));
        // No reverse data: the ack surfaces as a standalone frame.
        assert_eq!(st.pending_ack(0, 1), Some(1));
        assert_eq!(st.pending_ack(0, 1), None, "flag consumed");
        st.on_ack(1, 0, 1);
        assert!(st.unacked(0, 1).next().is_none());
        assert_eq!(st.stats.acks_sent, 1);
        assert_eq!(st.stats.acks_piggybacked, 0);
    }

    #[test]
    fn reverse_data_consumes_the_owed_ack() {
        let mut st: ReliableState<u32> = ReliableState::new(Reliability::default(), 2);
        let (s0, a0) = st.on_send(0, 1, &7, Time::ZERO);
        assert!(st.on_data(0, 1, s0, a0));
        // 1 replies with data: the ack rides along.
        let (s1, a1) = st.on_send(1, 0, &8, Time::ZERO);
        assert_eq!((s1, a1), (0, 1), "piggyback carries cum ack 1");
        assert_eq!(st.pending_ack(0, 1), None, "consumed by the piggyback");
        assert!(st.on_data(1, 0, s1, a1));
        assert!(st.unacked(0, 1).next().is_none(), "0→1 frame acked");
        assert_eq!(st.stats.acks_piggybacked, 1);
    }

    #[test]
    fn duplicates_are_dropped_and_reacked() {
        let mut st: ReliableState<u32> = ReliableState::new(Reliability::default(), 2);
        let (seq, ack) = st.on_send(0, 1, &7, Time::ZERO);
        assert!(st.on_data(0, 1, seq, ack));
        let _ = st.pending_ack(0, 1);
        // The same frame again (wire duplicate or raced retransmission).
        assert!(!st.on_data(0, 1, seq, ack));
        assert_eq!(st.stats.dup_dropped, 1);
        assert_eq!(st.pending_ack(0, 1), Some(1), "duplicates are re-acked");
    }

    #[test]
    fn gaps_are_dropped_and_recovered_by_retransmission() {
        let mut st: ReliableState<u32> = ReliableState::new(Reliability::default(), 2);
        let (s0, _) = st.on_send(0, 1, &7, Time::ZERO);
        let (s1, a1) = st.on_send(0, 1, &8, Time::ZERO);
        assert_eq!((s0, s1), (0, 1));
        // Frame 0 lost on the wire; frame 1 arrives as a gap.
        assert!(!st.on_data(0, 1, s1, a1));
        assert_eq!(st.stats.gap_dropped, 1);
        // Timer path: both frames retransmit, in order.
        assert!(st.needs_arm(0, 1));
        assert!(!st.needs_arm(0, 1), "only one timer per link");
        assert_eq!(st.on_rto(0, 1, Time::from_secs(1)), RtoVerdict::Retransmit(2));
        let seqs: Vec<u64> = st.unacked(0, 1).map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1]);
        // Receiver accepts 0 then 1, each exactly once.
        assert!(st.on_data(0, 1, 0, 0));
        assert!(st.on_data(0, 1, 1, 0));
        assert!(!st.on_data(0, 1, 1, 0));
    }

    #[test]
    fn retransmit_all_re_emits_every_unacked_frame() {
        let mut st: ReliableState<u32> = ReliableState::new(Reliability::default(), 3);
        st.on_send(0, 1, &1, Time::ZERO);
        st.on_send(0, 1, &2, Time::ZERO);
        st.on_send(2, 0, &3, Time::ZERO);
        let mut seen = Vec::new();
        let k = st.retransmit_all(|from, to, p| {
            if let Packet::Data { session: Some((seq, _)), msg } = p {
                seen.push((from, to, seq, msg));
            }
        });
        assert_eq!(k, 3);
        assert_eq!(seen, vec![(0, 1, 0, 1), (0, 1, 1, 2), (2, 0, 0, 3)]);
        assert_eq!(st.stats.retransmits, 3);
    }

    #[test]
    fn delay_doubles_and_caps() {
        let cfg = Reliability::with_rto(Time::from_millis(5));
        assert_eq!(cfg.delay(0), Time::from_millis(5));
        assert_eq!(cfg.delay(3), Time::from_millis(40));
        assert_eq!(cfg.delay(63), cfg.rto_cap);
        assert_eq!(cfg.delay(200), cfg.rto_cap, "shift is clamped");
    }

    #[test]
    fn env_knobs() {
        // Serialized by being a single test: no other test reads these.
        std::env::remove_var("MRA_RELIABLE");
        assert!(Reliability::from_env().is_none());
        std::env::set_var("MRA_RELIABLE", "1");
        std::env::set_var("MRA_RTO_MS", "2.5");
        let r = Reliability::from_env().expect("enabled");
        assert_eq!(r.rto, Time::from_micros(2_500));
        std::env::set_var("MRA_RELIABLE", "off");
        assert!(Reliability::from_env().is_none());
        std::env::remove_var("MRA_RELIABLE");
        std::env::remove_var("MRA_RTO_MS");
    }
}

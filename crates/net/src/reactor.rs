//! The TCP transport: each node's own thread drives *every* peer socket
//! through an epoll/kqueue poller, between two steps of its protocol.
//!
//! A thread and a connection per directed link would cost `n-1` reader
//! threads and `2(n-1)` sockets per node and one `write(2)` per frame —
//! 65 k threads and 130 k sockets cluster-wide at 256 nodes, a syscall
//! per hot-path frame.  A reactor thread beside the node thread would
//! cost two thread hand-offs per message (a futex wake up, a wake-pipe
//! byte down).  Instead, per node:
//!
//! * **no thread of its own** — [`ReactorPort`] owns one
//!   [`polling::Poller`] and every socket, and runs on whoever calls it:
//!   `send` encodes into the peer's write queue, `recv` / `recv_deadline`
//!   pop an inbox and, when nothing in it is due, run one reactor *turn*
//!   (timers → owed acks → flush → wait → service readiness);
//! * **one bidirectional connection per unordered pair** — the smaller
//!   node id connects to the larger id's listener (the 4-byte handshake
//!   names the connector).  TCP is FIFO in both directions and the one
//!   caller serializes writes, so the per-directed-link FIFO contract
//!   the protocols assume still holds while the socket count halves;
//! * **incremental decode** — per-connection
//!   [`FrameBuf`](crate::frame::FrameBuf)s absorb reads wherever the
//!   kernel cuts them;
//! * **coalesced writes** — frames queue into a per-connection byte
//!   buffer and flush once per turn: protocol messages, retransmissions,
//!   control frames and piggybacked/standalone session acks to the same
//!   peer share a single `write(2)`.  A partial write parks the remainder
//!   and resumes on write-readiness;
//! * **one wait for every deadline** — reliability RTOs, connect
//!   retries, a held message's delivery instant and the node's own
//!   think/CS deadline all bound the same `poller.wait`, which is why the
//!   vendored poller waits with nanosecond precision.
//!
//! Retransmission and acking therefore happen *inside* `recv`: a node
//! that stops calling it stops its transport, and a node loop never does
//! (see `runtime`).  The port also runs the shutdown protocol: node 0
//! counts finished active nodes (its own quota and every `TAG_DONE`) and
//! broadcasts `TAG_SHUTDOWN` once all are done.  See DESIGN.md §12 for
//! the full contract.
//!
//! Everything here is unix-only (the vendored poller has no backend
//! elsewhere): `mra-net`'s TCP substrate requires epoll or kqueue.  On
//! other platforms the stub `ReactorPort::connect` below keeps the crate
//! compiling and reports `Unsupported`.

#[cfg(unix)]
pub(crate) use imp::ReactorPort;

#[cfg(unix)]
mod imp {
    use crate::frame::{
        begin_frame, end_frame, split_rack, split_rdata, FrameBuf, WriteBuf, READ_CHUNK, TAG_DONE,
        TAG_MSG, TAG_RACK, TAG_RDATA, TAG_SHUTDOWN,
    };
    use crate::cluster::{PeerDirectory, TcpClusterConfig};
    use crate::runtime::PortEvent;
    use crate::sys;
    use mra_obs::NetCounters;
    use mra_protocol::faults::{FrameFate, LinkFilter};
    use mra_protocol::reliable::{Reliability, RtoVerdict, RxBatch, RxVerdict, TxSession};
    use mra_protocol::WireCodec;
    use mra_types::{NodeId, Time};
    use polling::{Event, Events, Poller};
    use std::collections::VecDeque;
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    /// Wait this long between connect retries (a peer process may not
    /// have bound its listener yet — solo deployments).
    const RETRY_DELAY: Duration = Duration::from_millis(20);
    /// Keep retrying outbound connects this long before the link is
    /// declared dead.  It only bounds a failure: peers of a multi-process
    /// cluster may start later than this node.
    const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
    /// Reads serviced per connection per turn (~256 KiB).  See
    /// [`ReactorPort::service_read`] — the bound keeps one flooding peer
    /// from starving everyone else's acks and timers.
    const MAX_READS_PER_PASS: usize = 16;
    /// On drop, keep flushing parked write buffers at most this long.
    const DRAIN_LIMIT: Duration = Duration::from_secs(5);

    /// One peer's connection state.
    struct PeerConn {
        /// `None` until a socket exists (acceptor side: until the
        /// handshake names this peer).
        stream: Option<TcpStream>,
        /// Transport-level setup (connect, or accept + handshake) done?
        connected: bool,
        /// Pending outbound bytes (consumed-prefix-compacting, so a slow
        /// peer bounds memory at the live backlog instead of growing it
        /// monotonically).  Frames queued before the connection exists
        /// park here too — on the connector side the first four bytes are
        /// the handshake itself, so it always leads whatever was queued
        /// early.
        wbuf: WriteBuf,
        /// Incremental inbound decoder.
        rbuf: FrameBuf,
        /// Is write-readiness part of the registered interest right now?
        want_write: bool,
        /// Next connect attempt (connector side, after a refusal).
        retry_at: Option<Instant>,
        /// The link is gone (EOF, error, fatal connect failure) — or is
        /// the self-slot, which never carries traffic.
        dead: bool,
    }

    impl PeerConn {
        fn parked(&self) -> usize {
            self.wbuf.pending()
        }
    }

    /// An accepted socket whose 4-byte handshake has not fully arrived.
    struct Pending {
        stream: TcpStream,
        got: Vec<u8>,
    }

    /// Per-peer reliable-session state (the node loop never touches
    /// sequence numbers).
    struct Sessions<M> {
        cfg: Reliability,
        epoch: Instant,
        tx: Vec<TxSession<M>>,
        rx: Vec<RxBatch>,
        /// Retransmit deadline per peer — the RTO timer wheel (a min-scan
        /// over `n` slots; `n ≤ 256` keeps a real wheel unnecessary).
        deadline: Vec<Option<Instant>>,
    }

    impl<M: Clone> Sessions<M> {
        fn new(cfg: Reliability, n: usize) -> Self {
            Sessions {
                epoch: Instant::now(),
                tx: (0..n).map(|_| TxSession::new(cfg.window)).collect(),
                rx: vec![RxBatch::default(); n],
                deadline: vec![None; n],
                cfg,
            }
        }

        /// Now on the session time axis.
        fn now(&self) -> Time {
            Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
        }
    }

    /// A node's end of the mesh: every socket, session and transport
    /// timer, driven by the thread that calls its `recv`.
    pub(crate) struct ReactorPort<M: WireCodec + Clone> {
        me: NodeId,
        n: usize,
        addrs: Vec<SocketAddr>,
        /// Request-issuing nodes, `0..active`; node 0 waits for all of
        /// them before it broadcasts the shutdown.
        active: usize,
        /// Finished active nodes node 0 has counted (itself included).
        done_seen: usize,
        /// Has this node finished its own quota?
        self_done: bool,
        poller: Poller,
        /// Registered under key `n`; pending handshakes follow from `n + 1`.
        listener: TcpListener,
        /// Readiness buffer, reused across turns.
        events: Events,
        conns: Vec<PeerConn>,
        pending: Vec<Option<Pending>>,
        sess: Option<Sessions<M>>,
        /// Per-inbound-link fault filters (`None` off-plan and at `me`).
        filters: Vec<Option<LinkFilter>>,
        /// Deliverable events in arrival order, each held until its
        /// instant: arrival plus [`TcpClusterConfig::extra_latency`].  The
        /// delay is constant, so the head is always the earliest.  The
        /// session layer already ran: data frames enter deduplicated and
        /// acked.
        inbox: VecDeque<(Instant, PortEvent<M>)>,
        extra: Duration,
        connect_deadline: Instant,
        counters: NetCounters,
        /// Reusable encode scratch (one frame at a time).
        buf: Vec<u8>,
        /// Reusable decode scratch (frame body, tag at `[0]`).
        scratch: Vec<u8>,
    }

    impl<M: WireCodec + Clone> ReactorPort<M> {
        /// Build node `me`'s mesh.  Returns immediately with the outbound
        /// connects started: completing them, accepting and handshaking
        /// proceed inside the port's `recv`, and frames sent before the
        /// mesh completes park in the per-peer write queues.  The caller
        /// must have bound `listener` (on `dir.addr(me)` or, for loopback
        /// harnesses, wherever the directory says) before any node starts
        /// connecting: a connect then completes against the listen backlog
        /// even while the acceptor is still connecting out.
        pub(crate) fn connect(
            me: NodeId,
            listener: TcpListener,
            dir: &PeerDirectory,
            cfg: &TcpClusterConfig,
        ) -> io::Result<Self> {
            let n = dir.len();
            assert!(me < n, "node id {me} outside directory 0..{n}");
            let poller = Poller::new()?;
            listener.set_nonblocking(true)?;
            // std listens with backlog 128; every smaller peer SYNs at once
            // in a big mesh, and an overflow costs whole TCP-retry seconds.
            let _ = sys::listen_backlog(&listener, 4096);
            poller.add(&listener, Event::readable(n))?;

            let filters = (0..n)
                .map(|peer| {
                    (peer != me)
                        .then(|| cfg.faults.as_ref().map(|plan| LinkFilter::new(plan, peer, me, n)))
                        .flatten()
                })
                .collect();
            let conns = (0..n)
                .map(|peer| PeerConn {
                    stream: None,
                    connected: false,
                    wbuf: WriteBuf::new(),
                    rbuf: FrameBuf::new(),
                    want_write: false,
                    retry_at: None,
                    dead: peer == me,
                })
                .collect();
            let mut port = ReactorPort {
                me,
                n,
                addrs: (0..n).map(|i| dir.addr(i)).collect(),
                active: cfg.active(n),
                done_seen: 0,
                self_done: false,
                poller,
                listener,
                events: Events::new(),
                conns,
                pending: Vec::new(),
                sess: cfg.reliability.map(|r| Sessions::new(r, n)),
                filters,
                inbox: VecDeque::new(),
                extra: cfg.extra_latency.to_std(),
                connect_deadline: Instant::now() + CONNECT_TIMEOUT,
                counters: NetCounters::default(),
                buf: Vec::with_capacity(256),
                scratch: Vec::with_capacity(256),
            };
            for peer in (me + 1)..n {
                port.start_connect(peer);
            }
            Ok(port)
        }

        /// Queue `msg` for delivery to `to`: encoded into the peer's
        /// write queue now, on the wire at the next turn.  Sends after
        /// shutdown are dropped — the run is already over.  `_stamp` is
        /// the tracer's send-side Lamport stamp, dropped here: the frame
        /// format has no field for it (see [`Self::handle_frame`]).
        pub(crate) fn send(&mut self, to: NodeId, msg: M, _stamp: u64) {
            self.queue_data(to, &msg);
        }

        /// Block until the next event (never [`PortEvent::TimedOut`]).
        pub(crate) fn recv(&mut self) -> PortEvent<M> {
            self.wait(None)
        }

        /// Block until the next event or `deadline`, whichever is first.
        pub(crate) fn recv_deadline(&mut self, deadline: Instant) -> PortEvent<M> {
            self.wait(Some(deadline))
        }

        /// This node just completed its round quota.  Any node but 0
        /// reports [`TAG_DONE`] to node 0 and keeps serving; node 0 counts
        /// itself.  `true` means node 0 has now counted every active node
        /// and broadcast the shutdown: it must exit at once (the broadcast
        /// releases everyone else).
        pub(crate) fn quota_done(&mut self) -> bool {
            self.self_done = true;
            if self.me != 0 {
                self.queue_ctrl(0, TAG_DONE, "Done");
                return false;
            }
            self.count_done()
        }

        /// Count one finished active node at node 0 — its own quota or a
        /// peer's [`TAG_DONE`].  Once node 0 is done itself and the count
        /// covers every active node, queue [`TAG_SHUTDOWN`] to every peer
        /// and return `true`.
        fn count_done(&mut self) -> bool {
            self.done_seen += 1;
            let all = self.self_done && self.done_seen >= self.active;
            if all {
                for peer in 0..self.n {
                    self.queue_ctrl(peer, TAG_SHUTDOWN, "Shutdown");
                }
            }
            all
        }

        /// The transport counters so far.
        #[cfg(test)]
        pub(crate) fn counters(&self) -> &NetCounters {
            &self.counters
        }

        /// Drain (see [`Self::drain`]) and hand back the transport
        /// counters: the harness folds them into the run's report.
        pub(crate) fn into_counters(mut self) -> NetCounters {
            self.drain();
            std::mem::take(&mut self.counters)
        }

        /// Pop the next due event, turning the reactor until there is one
        /// or `deadline` passes.  A deadline already behind us returns
        /// [`PortEvent::TimedOut`] without a turn: what the node queues on
        /// that expiry (a release's tokens, then the next request behind
        /// it) leaves in one flush when it next has to wait — and a node
        /// loop always does, for its grant or through its hold.
        fn wait(&mut self, deadline: Option<Instant>) -> PortEvent<M> {
            loop {
                let now = Instant::now();
                if self.inbox.front().is_some_and(|(at, _)| *at <= now) {
                    return self.inbox.pop_front().expect("front checked above").1;
                }
                if deadline.is_some_and(|d| d <= now) {
                    return PortEvent::TimedOut;
                }
                self.turn(deadline);
            }
        }

        /// One reactor turn.  The order is the contract: everything the
        /// node produced since the last turn (and every retransmission or
        /// ack the timers owe) is written **before** the wait, so this
        /// node never sleeps on bytes a peer is waiting for, and an ack
        /// owed for what the last turn read rides the data frame the node
        /// just answered with.  Readiness is serviced after the wait; what
        /// it decodes lands in the inbox for the caller to pop.
        fn turn(&mut self, deadline: Option<Instant>) {
            self.fire_timers();
            self.queue_owed_acks();
            self.flush_all();
            let timeout = self.next_timeout(deadline);
            if let Err(e) = self.poll(timeout) {
                eprintln!("mra-net: reactor[{}] poll failed: {e}", self.me);
                self.deliver(PortEvent::Shutdown);
            }
        }

        /// Wait for readiness (at most `timeout`) and service it.
        fn poll(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            let mut events = std::mem::take(&mut self.events);
            self.counters.poll_calls += 1;
            let waited = self.poller.wait(&mut events, timeout);
            for ev in events.iter() {
                if ev.key == self.n {
                    self.accept_all();
                } else if ev.key > self.n {
                    self.service_pending(ev.key - self.n - 1);
                } else {
                    if !self.conns[ev.key].connected && ev.writable {
                        self.finish_connect(ev.key);
                    }
                    if ev.readable {
                        self.service_read(ev.key);
                    }
                }
            }
            self.events = events;
            waited.map(drop)
        }

        /// Hand `ev` to the node loop, [`TcpClusterConfig::extra_latency`]
        /// from now.
        fn deliver(&mut self, ev: PortEvent<M>) {
            self.inbox.push_back((Instant::now() + self.extra, ev));
        }

        /// The earliest pending instant — the caller's own deadline, a
        /// held message coming due, RTOs, connect retries — as a poll
        /// timeout.  `None` blocks until I/O.
        fn next_timeout(&self, deadline: Option<Instant>) -> Option<Duration> {
            let held = self.inbox.front().map(|(at, _)| *at);
            let retries = self.conns.iter().filter_map(|c| c.retry_at);
            let rtos = self.sess.iter().flat_map(|s| s.deadline.iter().flatten().copied());
            let next = deadline.into_iter().chain(held).chain(retries).chain(rtos).min();
            next.map(|t| t.saturating_duration_since(Instant::now()))
        }

        /// Encode one protocol message into `to`'s write queue (session
        /// framing + piggybacked ack when reliability is on).  The bytes
        /// ride the next flush — sharing a `write(2)` with every other
        /// frame queued to `to` since the last one.
        fn queue_data(&mut self, to: NodeId, msg: &M) {
            if to == self.me || self.conns[to].dead {
                return;
            }
            begin_frame(&mut self.buf);
            let (tag, label) = match self.sess.as_mut() {
                None => {
                    msg.encode(&mut self.buf);
                    (TAG_MSG, "Msg")
                }
                Some(s) => {
                    let now = s.now();
                    let seq = s.tx[to].send(msg, now);
                    // Piggybacking consumes the owed flag: no standalone
                    // ack will follow for what this frame already carries.
                    let ack = s.rx[to].piggyback();
                    self.buf.extend_from_slice(&seq.to_le_bytes());
                    self.buf.extend_from_slice(&ack.to_le_bytes());
                    msg.encode(&mut self.buf);
                    if s.deadline[to].is_none() {
                        s.deadline[to] =
                            Some(Instant::now() + s.tx[to].rto_delay(&s.cfg).to_std());
                    }
                    (TAG_RDATA, "RData")
                }
            };
            self.queue_frame(to, tag, label);
        }

        /// Queue an empty control frame ([`TAG_DONE`] / [`TAG_SHUTDOWN`]).
        fn queue_ctrl(&mut self, to: NodeId, tag: u8, label: &'static str) {
            if to == self.me || self.conns[to].dead {
                return;
            }
            begin_frame(&mut self.buf);
            self.queue_frame(to, tag, label);
        }

        /// Close the frame begun in `self.buf` and park it for `to`.
        fn queue_frame(&mut self, to: NodeId, tag: u8, label: &'static str) {
            end_frame(&mut self.buf, tag);
            self.conns[to].wbuf.queue(&self.buf);
            self.counters.frames_out += 1;
            self.counters.by_kind.bump(label, 1);
        }

        /// Connect retries and retransmit timers.
        fn fire_timers(&mut self) {
            let wall = Instant::now();
            for peer in 0..self.n {
                if self.conns[peer].retry_at.is_some_and(|t| t <= wall) {
                    self.conns[peer].retry_at = None;
                    self.start_connect(peer);
                }
            }
            let ReactorPort { sess, conns, buf, counters, .. } = self;
            let Some(s) = sess.as_mut() else {
                return;
            };
            let now = s.now();
            let Sessions { cfg, epoch, tx, rx, deadline } = s;
            for (peer, dl) in deadline.iter_mut().enumerate() {
                if !dl.is_some_and(|d| d <= wall) {
                    continue;
                }
                if !conns[peer].connected {
                    // The link is still forming (connect retry, handshake
                    // in flight): every frame is parked locally, nothing
                    // can have been lost yet.  Firing the RTO here would
                    // queue a duplicate copy of the whole unacked window
                    // per expiry — pure wbuf growth and bogus retransmit
                    // counts on a perfect link.  Defer without touching
                    // the session's backoff state.
                    *dl = Some(wall + tx[peer].rto_delay(cfg).to_std());
                    continue;
                }
                match tx[peer].on_rto(now, cfg) {
                    RtoVerdict::Idle => *dl = None,
                    RtoVerdict::Rearm(at) => *dl = Some(*epoch + at.to_std()),
                    RtoVerdict::Retransmit(_) => {
                        counters.rto_fires += 1;
                        // Re-ack without consuming the owed flag: a
                        // retransmission is not fresh inbound data, so it
                        // must not suppress a standalone ack the peer may
                        // still need.
                        let ack = rx[peer].cum();
                        if !conns[peer].dead {
                            for (seq, msg) in tx[peer].unacked() {
                                begin_frame(buf);
                                buf.extend_from_slice(&seq.to_le_bytes());
                                buf.extend_from_slice(&ack.to_le_bytes());
                                msg.encode(buf);
                                end_frame(buf, TAG_RDATA);
                                conns[peer].wbuf.queue(buf);
                                counters.retransmit_frames += 1;
                                counters.by_kind.bump("RData", 1);
                            }
                        }
                        *dl = Some(wall + tx[peer].rto_delay(cfg).to_std());
                    }
                }
            }
        }

        /// Flush owed session acks: at most **one** standalone
        /// [`TAG_RACK`] per peer per turn, and none at all when a data
        /// frame queued since the last turn already piggybacked it (its
        /// [`RxBatch::piggyback`] consumed the flag) — a burst of data
        /// frames costs one cumulative ack, not one ack per frame.
        fn queue_owed_acks(&mut self) {
            let ReactorPort { sess, conns, buf, counters, .. } = self;
            let Some(s) = sess.as_mut() else {
                return;
            };
            for (peer, c) in conns.iter_mut().enumerate() {
                if c.dead {
                    continue;
                }
                if let Some(ack) = s.rx[peer].take_owed() {
                    begin_frame(buf);
                    buf.extend_from_slice(&ack.to_le_bytes());
                    end_frame(buf, TAG_RACK);
                    c.wbuf.queue(buf);
                    counters.ack_frames += 1;
                    counters.by_kind.bump("RAck", 1);
                }
            }
        }

        /// Start (or retry) the nonblocking connect to `peer`.
        fn start_connect(&mut self, peer: NodeId) {
            debug_assert!(peer > self.me);
            if self.conns[peer].dead {
                return;
            }
            if self.conns[peer].wbuf.is_empty() {
                // First attempt: the handshake leads the write queue, so
                // it hits the wire before any frame queued while the
                // connection was still forming.
                let hs = (self.me as u32).to_le_bytes();
                self.conns[peer].wbuf.queue(&hs);
            }
            match sys::connect_nonblocking(self.addrs[peer]) {
                Ok(stream) => {
                    if self.poller.add(&stream, Event::writable(peer)).is_err() {
                        self.fatal_link(peer);
                        return;
                    }
                    let c = &mut self.conns[peer];
                    c.stream = Some(stream);
                    c.connected = false;
                    c.want_write = true;
                }
                Err(e) => self.retry_or_die(peer, e),
            }
        }

        /// A connect-in-flight socket became writable: resolve it.
        fn finish_connect(&mut self, peer: NodeId) {
            let verdict = match self.conns[peer].stream.as_ref() {
                None => return,
                Some(s) => s.take_error(),
            };
            match verdict {
                Ok(None) => {
                    let c = &mut self.conns[peer];
                    let s = c.stream.as_ref().expect("stream checked above");
                    let _ = s.set_nodelay(true);
                    let want = c.parked() > 0;
                    let ev = Event { key: peer, readable: true, writable: want };
                    if self.poller.modify(s, ev).is_err() {
                        self.fatal_link(peer);
                        return;
                    }
                    c.connected = true;
                    c.want_write = want;
                    self.session_link_up(peer);
                }
                Ok(Some(e)) | Err(e) => {
                    if let Some(s) = self.conns[peer].stream.take() {
                        let _ = self.poller.delete(&s);
                    }
                    self.retry_or_die(peer, e);
                }
            }
        }

        fn retry_or_die(&mut self, peer: NodeId, e: io::Error) {
            if Instant::now() < self.connect_deadline {
                self.conns[peer].retry_at = Some(Instant::now() + RETRY_DELAY);
            } else {
                eprintln!(
                    "mra-net: reactor[{}]: connecting to node {peer} ({}) timed out: {e}",
                    self.me, self.addrs[peer]
                );
                self.fatal_link(peer);
            }
        }

        /// Tear down one link and tell the node loop the run is over:
        /// peers only close links on shutdown (or breakage), and either
        /// way the node must exit rather than wedge.
        fn fatal_link(&mut self, peer: NodeId) {
            if let Some(s) = self.conns[peer].stream.take() {
                let _ = self.poller.delete(&s);
            }
            let c = &mut self.conns[peer];
            c.dead = true;
            c.connected = false;
            c.wbuf.clear();
            c.retry_at = None;
            self.deliver(PortEvent::Shutdown);
        }

        /// Accept every connection the backlog holds.
        fn accept_all(&mut self) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let idx = match self.pending.iter().position(Option::is_none) {
                            Some(i) => i,
                            None => {
                                self.pending.push(None);
                                self.pending.len() - 1
                            }
                        };
                        let key = self.n + 1 + idx;
                        if self.poller.add(&stream, Event::readable(key)).is_ok() {
                            self.pending[idx] =
                                Some(Pending { stream, got: Vec::with_capacity(4) });
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        eprintln!("mra-net: reactor[{}] accept failed: {e}", self.me);
                        break;
                    }
                }
            }
        }

        /// Read handshake bytes off an accepted socket; promote it into
        /// its peer slot once the 4-byte node id is complete.
        fn service_pending(&mut self, idx: usize) {
            let mut complete = false;
            let mut broken = false;
            {
                let Some(p) = self.pending.get_mut(idx).and_then(Option::as_mut) else {
                    return;
                };
                let mut b = [0u8; 4];
                loop {
                    let need = 4 - p.got.len();
                    if need == 0 {
                        complete = true;
                        break;
                    }
                    match p.stream.read(&mut b[..need]) {
                        Ok(0) => {
                            broken = true;
                            break;
                        }
                        Ok(k) => p.got.extend_from_slice(&b[..k]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            broken = true;
                            break;
                        }
                    }
                }
            }
            if broken {
                if let Some(p) = self.pending[idx].take() {
                    let _ = self.poller.delete(&p.stream);
                }
                return;
            }
            if !complete {
                return;
            }
            let p = self.pending[idx].take().expect("pending checked above");
            let id = u32::from_le_bytes(p.got[..4].try_into().expect("4 bytes")) as usize;
            // Bidirectional topology: only smaller ids connect to us, and
            // each unordered pair has exactly one connection.
            if id >= self.me || self.conns[id].stream.is_some() || self.conns[id].dead {
                eprintln!(
                    "mra-net: reactor[{}]: dropping connection with bad handshake id {id}",
                    self.me
                );
                let _ = self.poller.delete(&p.stream);
                return;
            }
            let _ = p.stream.set_nodelay(true);
            let _ = self.poller.delete(&p.stream);
            let want = self.conns[id].parked() > 0;
            let ev = Event { key: id, readable: true, writable: want };
            if self.poller.add(&p.stream, ev).is_err() {
                return;
            }
            let c = &mut self.conns[id];
            c.stream = Some(p.stream);
            c.connected = true;
            c.want_write = want;
            self.session_link_up(id);
        }

        /// The transport to `peer` just became usable: restart the RTO
        /// clocks of any frames that were queued (and session-stamped)
        /// while the link was still forming — their first copies only
        /// now get a wire to ride.
        fn session_link_up(&mut self, peer: NodeId) {
            if let Some(s) = self.sess.as_mut() {
                if s.tx[peer].has_unacked() {
                    let now = s.now();
                    s.tx[peer].link_up(now);
                    s.deadline[peer] =
                        Some(Instant::now() + s.tx[peer].rto_delay(&s.cfg).to_std());
                }
            }
        }

        /// Service a readable connection: reads into the incremental
        /// decoder, handling every complete frame as it appears, until a
        /// read comes back short.  The poller is level-triggered and
        /// persistent, so a short read *is* the drained socket — the
        /// `read` whose only outcome would be `WouldBlock` is never
        /// issued, and bytes that land a moment later re-report
        /// readability on the next `wait`.  EOF arrives the same way: a
        /// readable event and a 0-byte read.
        ///
        /// Bounded to [`MAX_READS_PER_PASS`] reads per call: a peer that
        /// floods faster than we decode would otherwise keep this loop
        /// spinning for as long as the kernel has bytes, deferring the
        /// owed-ack drain, RTO timers and flushes for *every other peer*
        /// past their RTOs — the reverse path then sees spurious go-back-N
        /// retransmits with zero actual loss.  Leftover bytes re-report
        /// readability immediately; bounding the pass costs nothing but
        /// interleaves the fairness-critical work.
        fn service_read(&mut self, peer: NodeId) {
            for _ in 0..MAX_READS_PER_PASS {
                let res = {
                    let c = &mut self.conns[peer];
                    let Some(s) = c.stream.as_mut() else {
                        return;
                    };
                    c.rbuf.read_from(s)
                };
                let got = match res {
                    Ok(0) => {
                        self.fatal_link(peer);
                        return;
                    }
                    Ok(k) => k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.counters.empty_reads += 1;
                        return;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.fatal_link(peer);
                        return;
                    }
                };
                self.counters.read_calls += 1;
                loop {
                    match self.conns[peer].rbuf.next_frame_into(&mut self.scratch) {
                        Ok(Some(tag)) => {
                            if !self.handle_frame(peer, tag) {
                                self.fatal_link(peer);
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            eprintln!(
                                "mra-net: reactor[{}]: dropping link from node {peer}: {e}",
                                self.me
                            );
                            self.fatal_link(peer);
                            return;
                        }
                    }
                }
                if got < READ_CHUNK {
                    return;
                }
            }
        }

        /// Process one decoded frame (body in `self.scratch`, tag at
        /// `[0]`).  Returns false when the link must die: mode-mismatched
        /// or unknown tags and undecodable payloads.
        ///
        /// Messages are delivered with stamp 0: the wire format carries no
        /// Lamport stamps, so the tracer has per-node ordering and
        /// counters but no cross-node edges (DESIGN.md §11).
        fn handle_frame(&mut self, peer: NodeId, tag: u8) -> bool {
            // The wire is tallied before the fault filter — these numbers
            // describe what arrived, not what was delivered.
            self.counters.frames_in += 1;
            self.counters.bytes_in += self.scratch.len() as u64 + 4;
            let reliable = self.sess.is_some();
            match tag {
                TAG_MSG if !reliable => {
                    let Ok(msg) = M::from_bytes(&self.scratch[1..]) else {
                        return false;
                    };
                    // Drop verdicts lose the frame here (the wire-level
                    // loss point); duplicate verdicts are absorbed — TCP
                    // already delivered exactly once (see
                    // `TcpClusterConfig::faults`).
                    if let Some(f) = self.filters[peer].as_mut() {
                        if f.next_fate() == FrameFate::Drop {
                            return true;
                        }
                    }
                    self.deliver(PortEvent::Msg { from: peer, stamp: 0, msg });
                    true
                }
                TAG_RDATA if reliable => {
                    let fate = self.filters[peer]
                        .as_mut()
                        .map_or(FrameFate::Deliver, LinkFilter::next_fate);
                    if fate == FrameFate::Drop {
                        return true;
                    }
                    let Ok((seq, ack, body)) = split_rdata(&self.scratch[1..]) else {
                        return false;
                    };
                    let Ok(msg) = M::from_bytes(body) else {
                        return false;
                    };
                    // A duplicate verdict replays the frame immediately
                    // behind the original; session dedup absorbs it.
                    let copies = if fate == FrameFate::Duplicate { 2 } else { 1 };
                    for _ in 0..copies {
                        self.session_data(peer, seq, ack, msg.clone());
                    }
                    true
                }
                TAG_RACK if reliable => {
                    let fate = self.filters[peer]
                        .as_mut()
                        .map_or(FrameFate::Deliver, LinkFilter::next_fate);
                    if fate == FrameFate::Drop {
                        return true;
                    }
                    let Ok(ack) = split_rack(&self.scratch[1..]) else {
                        return false;
                    };
                    // Cumulative acks are idempotent — a Duplicate verdict
                    // needs no second application.
                    self.session_ack(peer, ack);
                    true
                }
                TAG_DONE => {
                    if self.count_done() {
                        self.deliver(PortEvent::Shutdown);
                    }
                    true
                }
                TAG_SHUTDOWN => {
                    self.deliver(PortEvent::Shutdown);
                    true
                }
                _ => false,
            }
        }

        fn session_data(&mut self, peer: NodeId, seq: u64, ack: u64, msg: M) {
            // Piggybacked ack first, then the receive window.  Accepting
            // marks the ack owed; `queue_owed_acks` (or the piggyback of
            // the next outbound frame) settles it before the next flush.
            self.session_ack(peer, ack);
            let s = self.sess.as_mut().expect("rdata without reliability");
            match s.rx[peer].accept(seq) {
                RxVerdict::Deliver => self.deliver(PortEvent::Msg { from: peer, stamp: 0, msg }),
                RxVerdict::Stale | RxVerdict::Gap => {}
            }
        }

        fn session_ack(&mut self, peer: NodeId, ack: u64) {
            let s = self.sess.as_mut().expect("session frame without reliability");
            s.tx[peer].ack(ack);
            if !s.tx[peer].has_unacked() {
                s.deadline[peer] = None;
            }
        }

        /// Write every connection's queued bytes — one `write(2)` per
        /// connection when the socket buffer takes it all, which is the
        /// point: every frame queued to the same peer since the last turn
        /// shares that call.  A partial write parks the tail and arms
        /// write-readiness to resume.
        fn flush_all(&mut self) {
            for peer in 0..self.n {
                self.flush(peer);
            }
        }

        fn flush(&mut self, peer: NodeId) {
            let c = &mut self.conns[peer];
            if c.dead || !c.connected {
                return;
            }
            let Some(s) = c.stream.as_mut() else {
                return;
            };
            let mut broken = false;
            while !c.wbuf.is_empty() {
                match s.write(c.wbuf.unwritten()) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(k) => {
                        self.counters.write_calls += 1;
                        self.counters.bytes_out += k as u64;
                        // Partial writes advance a cursor; the consumed
                        // prefix compacts once it passes the threshold, so
                        // a slow peer costs the live backlog, not every
                        // byte ever parked.
                        c.wbuf.consume(k);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if broken {
                // Peer past shutdown: the write error is ignored; the
                // read side sees the EOF and ends the run if it matters.
                c.wbuf.clear();
                return;
            }
            let want = !c.wbuf.is_empty();
            if want != c.want_write {
                let ev = Event { key: peer, readable: true, writable: want };
                let s = c.stream.as_ref().expect("stream checked above");
                if self.poller.modify(s, ev).is_ok() {
                    c.want_write = want;
                }
            }
        }

        /// Nothing left that a socket could still take.  A link whose
        /// connect is still in flight holds its parked frames on a live
        /// socket and is *not* flushed; one that never got a socket
        /// (refused, awaiting retry, never accepted) has nowhere to send.
        fn all_flushed(&self) -> bool {
            self.conns.iter().all(|c| c.parked() == 0 || c.stream.is_none())
        }

        /// Write out what is parked — the last finisher's shutdown
        /// broadcast, a burst sent just before exit — for at most
        /// `DRAIN_LIMIT`; what a stuck peer has not taken by then is
        /// discarded, so a second drain returns at once.  Timers no longer
        /// run: nothing is retransmitted or acked for a node that left.
        fn drain(&mut self) {
            let limit = Instant::now() + DRAIN_LIMIT;
            loop {
                self.flush_all();
                let left = limit.saturating_duration_since(Instant::now());
                if self.all_flushed() || left.is_zero() || self.poll(Some(left)).is_err() {
                    break;
                }
            }
            for c in &mut self.conns {
                c.wbuf.clear();
            }
        }
    }

    impl<M: WireCodec + Clone> Drop for ReactorPort<M> {
        /// The same drain as [`ReactorPort::into_counters`], for a port
        /// dropped without it (a node loop unwinding from a panic).
        fn drop(&mut self) {
            self.drain();
        }
    }
}

#[cfg(not(unix))]
mod stub {
    use crate::cluster::{PeerDirectory, TcpClusterConfig};
    use crate::runtime::PortEvent;
    use mra_obs::NetCounters;
    use mra_protocol::WireCodec;
    use mra_types::NodeId;
    use std::io;
    use std::marker::PhantomData;
    use std::net::TcpListener;

    /// Unsupported on this platform (no epoll/kqueue); exists only to
    /// keep the crate compiling — `connect` never returns one.
    pub(crate) struct ReactorPort<M: WireCodec + Clone>(PhantomData<M>);

    impl<M: WireCodec + Clone> ReactorPort<M> {
        pub(crate) fn connect(
            _me: NodeId,
            _listener: TcpListener,
            _dir: &PeerDirectory,
            _cfg: &TcpClusterConfig,
        ) -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "mra-net's TCP transport needs epoll or kqueue (unix only)",
            ))
        }
        pub(crate) fn send(&mut self, _to: NodeId, _msg: M, _stamp: u64) {
            unreachable!("reactor transport is unix-only")
        }
        pub(crate) fn recv(&mut self) -> PortEvent<M> {
            unreachable!("reactor transport is unix-only")
        }
        pub(crate) fn recv_deadline(&mut self, _deadline: std::time::Instant) -> PortEvent<M> {
            unreachable!("reactor transport is unix-only")
        }
        pub(crate) fn quota_done(&mut self) -> bool {
            unreachable!("reactor transport is unix-only")
        }
        pub(crate) fn into_counters(self) -> NetCounters {
            unreachable!("reactor transport is unix-only")
        }
    }
}

#[cfg(not(unix))]
pub(crate) use stub::ReactorPort;

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::cluster::{PeerDirectory, TcpClusterConfig};
    use crate::runtime::PortEvent;
    use mra_protocol::faults::{FaultPlan, FrameFate, LinkFilter};
    use mra_protocol::reliable::Reliability;
    use mra_types::{NodeId, Time};
    use std::net::TcpListener;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    type Port = ReactorPort<u64>;

    /// A plain two-node port configuration (the round quota and the seed
    /// are the node loop's; a port never reads them).
    fn plain() -> TcpClusterConfig {
        TcpClusterConfig::new(1, 0)
    }

    /// A two-node loopback mesh under `shim`: node 0 runs `node0` on its
    /// own thread, node 1's port comes back.
    fn mesh_pair(
        shim: TcpClusterConfig,
        node0: impl FnOnce(Port) + Send + 'static,
    ) -> (Port, JoinHandle<()>, PeerDirectory) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = PeerDirectory::new(vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()]);
        let (d0, cfg0) = (dir.clone(), shim.clone());
        let t = std::thread::spawn(move || node0(Port::connect(0, l0, &d0, &cfg0).unwrap()));
        let p1 = Port::connect(1, l1, &dir, &shim).unwrap();
        (p1, t, dir)
    }

    /// The next message within 20 s, as `(from, payload)`.
    fn expect_msg(port: &mut Port) -> (NodeId, u64) {
        match port.recv_deadline(Instant::now() + Duration::from_secs(20)) {
            PortEvent::Msg { from, msg, .. } => (from, msg),
            PortEvent::TimedOut => panic!("expected a message, timed out"),
            PortEvent::Shutdown => panic!("expected a message, peer vanished"),
        }
    }

    /// Keep `port` serving (acks, flushes) until the other node's thread
    /// has left — its EOF shuts this port down.
    fn serve_until_gone(port: &mut Port, other: JoinHandle<()>) {
        while !other.is_finished() {
            let tick = Instant::now() + Duration::from_millis(50);
            if let PortEvent::Shutdown = port.recv_deadline(tick) {
                break;
            }
        }
        other.join().unwrap();
    }

    #[test]
    fn two_node_reactor_mesh_moves_messages() {
        let (mut p1, t, dir) = mesh_pair(plain(), |mut p0| {
            p0.send(1, 0xDEAD_BEEF, 0);
            assert_eq!(expect_msg(&mut p0), (1, 7));
        });
        // A connection whose handshake names an id that may not connect
        // here (only smaller ids do) is closed, not indexed or adopted.
        let mut rogue = std::net::TcpStream::connect(dir.addr(1)).unwrap();
        std::io::Write::write_all(&mut rogue, &7u32.to_le_bytes()).unwrap();
        rogue.set_nonblocking(true).unwrap();
        // Accepting and judging the handshake happen inside `p1`'s recv,
        // so drive it while watching for the close; node 0's message may
        // arrive meanwhile.
        let mut early = None;
        let limit = Instant::now() + Duration::from_secs(10);
        loop {
            match p1.recv_deadline(Instant::now() + Duration::from_millis(5)) {
                PortEvent::Msg { from, msg, .. } => early = Some((from, msg)),
                PortEvent::TimedOut => {}
                PortEvent::Shutdown => panic!("a rogue connection took the port down"),
            }
            match std::io::Read::read(&mut rogue, &mut [0u8; 1]) {
                Ok(0) => break,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < limit, "rogue connection never closed");
                }
                other => panic!("rogue connection: {other:?}"),
            }
        }
        p1.send(0, 7, 0);
        let got = early.unwrap_or_else(|| expect_msg(&mut p1));
        assert_eq!(got, (0, 0xDEAD_BEEF));
        serve_until_gone(&mut p1, t);
    }

    /// Node 0 sends `0..frames` to node 1 and drops its port at once —
    /// the connect is still in flight, every frame parked behind the
    /// handshake.  Returns what node 1 received before the EOF.
    fn send_then_drop(shim: TcpClusterConfig, frames: u64) -> Vec<u64> {
        let (mut p1, t, _) = mesh_pair(shim, move |mut p0| {
            for k in 0..frames {
                p0.send(1, k, 0);
            }
            // Dropping p0 drains it: the connect completes, the parked
            // frames flush, the socket closes; the peer then sees EOF.
        });
        let mut got = Vec::new();
        let limit = Instant::now() + Duration::from_secs(20);
        loop {
            match p1.recv_deadline(limit) {
                PortEvent::Msg { from, msg, .. } => {
                    assert_eq!(from, 0);
                    got.push(msg);
                }
                PortEvent::Shutdown => break,
                PortEvent::TimedOut => panic!("no EOF after {} frames", got.len()),
            }
        }
        t.join().unwrap();
        got
    }

    #[test]
    fn reactor_drop_shim_loses_exactly_the_planned_frames() {
        // Replay the plan's verdicts for link 0 → 1: without sessions
        // duplicates are absorbed by TCP semantics, so everything but
        // Drop arrives once.
        let plan = FaultPlan::new(0xC0FFEE).drop_rate(0.3).dup_rate(0.1);
        const FRAMES: u64 = 200;
        let mut filter = LinkFilter::new(&plan, 0, 1, 2);
        let expected = (0..FRAMES)
            .filter(|_| filter.next_fate() != FrameFate::Drop)
            .count() as u64;
        assert!(expected > 0 && expected < FRAMES, "degenerate plan");

        let got = send_then_drop(TcpClusterConfig { faults: Some(plan), ..plain() }, FRAMES);
        assert_eq!(got.len() as u64, expected, "shim lost the wrong frames");
        // FIFO survives the shim: payloads arrive in send order.
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn reactor_drop_while_connecting_delivers_every_parked_frame() {
        // Regression: the drain used to call a link whose connect was
        // still in flight "flushed" and close it with its frames parked.
        assert_eq!(send_then_drop(plain(), 200), (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn reliable_reactor_recovers_drops_and_batches_acks() {
        // The session contract — exactly-once, in-order delivery under a
        // lossy+duplicating shim — must survive coalesced acking, and the
        // receiver must *not* send one standalone ack per data frame.
        const FRAMES: u64 = 200;
        let plan = FaultPlan::new(0xC0FFEE).drop_rate(0.3).dup_rate(0.1);
        let shim = TcpClusterConfig {
            faults: Some(plan),
            reliability: Some(Reliability::with_rto(Time::from_millis(5))),
            ..plain()
        };
        let (mut p1, t, _) = mesh_pair(shim, |mut p0| {
            for k in 0..FRAMES {
                p0.send(1, k, 0);
            }
            // Retransmission runs on the port's timers inside
            // `recv_deadline`; the node loop just waits for the peer's
            // reliable confirmation.
            assert_eq!(expect_msg(&mut p0), (1, u64::MAX));
        });
        // Exactly once, in order — the session contract survives the
        // batched acking.
        for want in 0..FRAMES {
            assert_eq!(expect_msg(&mut p1), (0, want), "reliable link stalled or reordered");
        }
        let acks = p1.counters().ack_frames;
        // Ack batching: the receiver decoded ≥ FRAMES data frames (plus
        // duplicates and retransmissions) yet sent far fewer standalone
        // acks — a burst of arrivals owes one cumulative ack, and the
        // confirmation frame piggybacks instead of acking separately.
        assert!(acks < FRAMES / 2, "acks not batched: {acks} standalone acks for {FRAMES} frames");
        assert!(acks > 0, "one-way traffic must owe standalone acks");
        p1.send(0, u64::MAX, 0);
        serve_until_gone(&mut p1, t);
    }

    #[test]
    fn reactor_coalesces_frames_into_fewer_writes() {
        // A burst of sends — queued while the mesh is still forming or
        // between two turns — must share write syscalls: strictly fewer
        // `write(2)`s than frames.
        const BURST: u64 = 100;
        let (mut p1, t, _) = mesh_pair(plain(), |mut p0| {
            for k in 0..BURST {
                p0.send(1, k, 0);
            }
            assert_eq!(expect_msg(&mut p0), (1, 1));
            let c0 = p0.counters();
            assert_eq!(c0.frames_out, BURST);
            assert!(
                c0.write_calls < BURST,
                "no coalescing: {} writes for {BURST} frames",
                c0.write_calls
            );
        });
        for want in 0..BURST {
            assert_eq!(expect_msg(&mut p1), (0, want));
        }
        p1.send(0, 1, 0);
        serve_until_gone(&mut p1, t);
    }

    /// Re-bind a just-released address (the test advertises it before the
    /// listener exists to force connect retries on the other side).
    fn bind_retry(addr: std::net::SocketAddr) -> TcpListener {
        for _ in 0..50 {
            match TcpListener::bind(addr) {
                Ok(l) => return l,
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        panic!("could not re-bind {addr}");
    }

    #[test]
    fn reactor_rto_holds_while_link_forms() {
        // Regression: a frame queued while the peer's listener is not
        // even up must NOT trip the RTO.  fire_timers used to run
        // `on_rto` for unconnected peers, queueing a duplicate of the
        // whole unacked window per expiry — nonzero retransmit counters
        // on a link that never lost a byte (and, symmetrically, frames
        // session-stamped while parked used to fire the instant the
        // link came up).  RTO 250 ms << the 2 s the link spends forming,
        // but >> the loopback ack round-trip once it exists.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a1 = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        // The listener for node 1 is now dropped: node 0's connects get
        // refused and retried while its frame sits parked.
        let dir = PeerDirectory::new(vec![l0.local_addr().unwrap(), a1]);
        let shim = TcpClusterConfig {
            reliability: Some(Reliability::with_rto(Time::from_millis(250))),
            ..plain()
        };
        let (d0, cfg0) = (dir.clone(), shim.clone());
        let t = std::thread::spawn(move || {
            let mut p0 = Port::connect(0, l0, &d0, &cfg0).unwrap();
            p0.send(1, 42, 0);
            assert_eq!(expect_msg(&mut p0), (1, 7));
            let c0 = p0.counters();
            assert_eq!(
                (c0.rto_fires, c0.retransmit_frames),
                (0, 0),
                "perfect link, peer merely slow to start: nothing may retransmit"
            );
        });
        // Long enough for several RTO expiries (250, +500, +1000 ms)
        // while the connection cannot form.
        std::thread::sleep(Duration::from_secs(2));
        let l1 = bind_retry(a1);
        let mut p1 = Port::connect(1, l1, &dir, &shim).unwrap();
        assert_eq!(expect_msg(&mut p1), (0, 42), "the parked frame");
        p1.send(0, 7, 0);
        serve_until_gone(&mut p1, t);
    }

    #[test]
    fn reactor_asymmetric_flood_perfect_link_no_retransmits() {
        // Sustained one-way traffic with reliability on: every ack back
        // is a standalone TAG_RACK (no reverse data to piggyback on).
        // On a perfect link nothing may retransmit — the bounded
        // per-pass read drain guarantees the receiver's owed-ack queue
        // runs every turn even while inbound is saturated.
        const FRAMES: u64 = 20_000;
        const BURST: u64 = 500;
        let shim = TcpClusterConfig {
            reliability: Some(Reliability::with_rto(Time::from_millis(200))),
            ..plain()
        };
        let (mut p1, t, _) = mesh_pair(shim, |mut p0| {
            for k in 0..FRAMES {
                p0.send(1, k, 0);
                if (k + 1) % BURST == 0 && k + 1 < FRAMES {
                    // Open-loop pacing: keep the in-flight window modest
                    // so a retransmit could only come from deferred acks,
                    // never from frames aging in our own parked backlog.
                    // The pause is a `recv_deadline`, as in a node loop:
                    // that is where the burst is flushed and acks are read.
                    let pause = Instant::now() + Duration::from_millis(1);
                    assert!(matches!(p0.recv_deadline(pause), PortEvent::TimedOut));
                }
            }
            assert_eq!(expect_msg(&mut p0), (1, u64::MAX));
            let c0 = p0.counters();
            assert_eq!(
                c0.retransmit_frames, 0,
                "perfect link but {} RTO fires — acks deferred past the timer",
                c0.rto_fires
            );
        });
        for want in 0..FRAMES {
            assert_eq!(expect_msg(&mut p1), (0, want));
        }
        assert!(p1.counters().ack_frames > 0, "one-way traffic must owe standalone acks");
        p1.send(0, u64::MAX, 0);
        serve_until_gone(&mut p1, t);
    }

    #[test]
    fn reactor_extra_latency_delays_delivery_not_acks() {
        // Emulated latency above the RTO on a perfect link: a message is
        // held in the inbox for 100 ms, but the port keeps turning while
        // it holds — the ack leaves at once and nothing retransmits.  (A
        // node loop that slept out the latency would put its transport to
        // sleep with it.)  The 50 ms margin between an ack sent at once
        // and the RTO is far above scheduler noise on a loaded host.
        const ROUNDS: u64 = 5;
        let extra = Time::from_millis(100);
        let shim = TcpClusterConfig {
            extra_latency: extra,
            reliability: Some(Reliability::with_rto(Time::from_millis(50))),
            ..plain()
        };
        let (mut p1, t, _) = mesh_pair(shim, move |mut p0| {
            for k in 0..ROUNDS {
                let sent = Instant::now();
                p0.send(1, k, 0);
                assert_eq!(expect_msg(&mut p0), (1, k));
                assert!(sent.elapsed() >= 2 * extra.to_std(), "echo {k} beat the emulated wire");
            }
            assert_eq!(p0.counters().retransmit_frames, 0, "acks waited out the latency");
        });
        for want in 0..ROUNDS {
            assert_eq!(expect_msg(&mut p1), (0, want));
            p1.send(0, want, 0);
        }
        serve_until_gone(&mut p1, t);
        assert_eq!(p1.counters().retransmit_frames, 0, "acks waited out the latency");
    }

    #[test]
    fn node_0_counts_every_active_quota_then_releases_the_peers() {
        // Node 0 the only active node: its own quota is the whole count,
        // so it broadcasts at once.
        let only_0 = TcpClusterConfig { active_nodes: Some(1), ..plain() };
        let (mut p1, t, _) = mesh_pair(only_0, |mut p0| assert!(p0.quota_done()));
        assert!(matches!(p1.recv(), PortEvent::Shutdown));
        t.join().unwrap();

        // Both active, node 1 done first: it reports and keeps serving.
        // Node 0 counts the report without shutting down; its own quota
        // then completes the count and releases node 1.
        let (mut p1, t, _) = mesh_pair(plain(), |mut p0| {
            let limit = Instant::now() + Duration::from_secs(20);
            while p0.counters().frames_in == 0 {
                assert!(Instant::now() < limit, "node 1's Done never arrived");
                let tick = Instant::now() + Duration::from_millis(5);
                assert!(matches!(p0.recv_deadline(tick), PortEvent::TimedOut));
            }
            assert!(p0.quota_done(), "node 0 counted itself and the report");
        });
        assert!(!p1.quota_done(), "only node 0 broadcasts the shutdown");
        assert_eq!(p1.counters().by_kind.get("Done"), 1);
        assert!(matches!(p1.recv(), PortEvent::Shutdown));
        t.join().unwrap();
    }
}

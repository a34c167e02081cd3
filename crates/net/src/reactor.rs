//! The TCP transport: one reactor thread per node drives *every* peer
//! socket through an epoll/kqueue poller.
//!
//! A thread and a connection per directed link would cost `n-1` reader
//! threads and `2(n-1)` sockets per node and one `write(2)` per frame —
//! 65 k threads and 130 k sockets cluster-wide at 256 nodes, a syscall
//! per hot-path frame.  Instead, per node:
//!
//! * **one thread** — the reactor — owning one [`polling::Poller`] and
//!   every socket;
//! * **one bidirectional connection per unordered pair** — the smaller
//!   node id connects to the larger id's listener (the 4-byte handshake
//!   names the connector).  TCP is FIFO in both directions and the
//!   reactor serializes writes, so the per-directed-link FIFO contract
//!   the protocols assume still holds while the socket count halves;
//! * **incremental decode** — per-connection
//!   [`FrameBuf`](crate::frame::FrameBuf)s absorb reads wherever the
//!   kernel cuts them;
//! * **coalesced writes** — frames queue into a per-connection byte
//!   buffer and flush once per reactor iteration: protocol messages,
//!   retransmissions, control frames and piggybacked/standalone session
//!   acks to the same peer share a single `write(2)`.  A partial write
//!   parks the remainder and resumes on write-readiness;
//! * **reactor-owned timers** — reliability RTO deadlines and connect
//!   retries bound the poll timeout; retransmission is serviced by the
//!   reactor whether or not the node loop is sitting in `recv`.
//!
//! The node loop talks to the reactor through two mpsc channels plus a
//! socketpair-based wakeup: senders enqueue a command and write one byte
//! iff the `woken` flag was clear; the reactor drains the pipe, *then*
//! clears the flag, *then* drains the queue — the order that makes a
//! lost wakeup impossible.  See DESIGN.md §12 for the full contract.
//!
//! Everything here is unix-only (the vendored poller has no backend
//! elsewhere): `mra-net`'s TCP substrate requires epoll or kqueue.  On
//! other platforms the stub `connect_reactor_mesh` below keeps the crate
//! compiling and reports `Unsupported`.

#[cfg(unix)]
pub use imp::{connect_reactor_mesh, ReactorPort};

#[cfg(unix)]
mod imp {
    use crate::frame::{
        begin_frame, end_frame, split_rack, split_rdata, FrameBuf, WriteBuf, TAG_DONE, TAG_MSG,
        TAG_RACK, TAG_RDATA, TAG_SHUTDOWN,
    };
    use crate::sys;
    use crate::transport::{DoneAct, MeshConfig, PeerDirectory, PortCtrl};
    use mra_obs::NetCounters;
    use mra_protocol::faults::{FrameFate, LinkFilter};
    use mra_protocol::reliable::{Reliability, RtoVerdict, RxBatch, RxVerdict, TxSession};
    use crate::runtime::PortEvent;
    use mra_protocol::WireCodec;
    use mra_sim::lock;
    use mra_types::{NodeId, Time};
    use polling::{Event, Events, Poller};
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::{Duration, Instant};

    /// Wait this long between connect retries (a peer process may not
    /// have bound its listener yet — solo deployments).
    const RETRY_DELAY: Duration = Duration::from_millis(20);
    /// Reads serviced per connection per reactor iteration (~256 KiB).
    /// See [`Reactor::service_read`] — the bound keeps one flooding peer
    /// from starving everyone else's acks and timers.
    const MAX_READS_PER_PASS: usize = 16;
    /// On stop, keep flushing parked write buffers at most this long.
    const DRAIN_LIMIT: Duration = Duration::from_secs(5);

    /// Node-loop → reactor commands.
    enum Cmd<M> {
        /// Encode and send one protocol message.
        Send { to: NodeId, msg: M },
        /// Report quota completion to node 0 ([`TAG_DONE`], solo mode).
        Done,
        /// Broadcast [`TAG_SHUTDOWN`] to every peer (last finisher).
        Shutdown,
        /// Flush what can be flushed and exit the reactor.
        Stop,
    }

    /// Reactor → node-loop events.  The session layer already ran on the
    /// reactor side: data frames arrive deduplicated and acked, so only
    /// deliverable messages and control outcomes cross this channel.
    enum Up<M> {
        Msg {
            from: NodeId,
            deliver_at: Instant,
            msg: M,
        },
        Done,
        Shutdown,
    }

    /// One peer's connection state inside the reactor.
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

    /// Per-peer reliable-session state (reactor-owned; the node loop
    /// never touches sequence numbers).
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

    struct Reactor<M: WireCodec + Clone> {
        me: NodeId,
        n: usize,
        addrs: Vec<SocketAddr>,
        poller: Poller,
        listener: TcpListener,
        wake_rx: UnixStream,
        woken: Arc<AtomicBool>,
        cmds: mpsc::Receiver<Cmd<M>>,
        up: mpsc::Sender<Up<M>>,
        conns: Vec<PeerConn>,
        pending: Vec<Option<Pending>>,
        sess: Option<Sessions<M>>,
        /// Per-inbound-link fault filters (`None` off-plan and at `me`).
        filters: Vec<Option<LinkFilter>>,
        extra: Duration,
        connect_deadline: Instant,
        counters: NetCounters,
        slot: Arc<Mutex<NetCounters>>,
        /// Reusable encode scratch (one frame at a time).
        buf: Vec<u8>,
        /// Reusable decode scratch (frame body, tag at `[0]`).
        scratch: Vec<u8>,
        /// `Some(deadline)` once [`Cmd::Stop`] arrived.
        draining: Option<Instant>,
    }

    impl<M: WireCodec + Clone> Reactor<M> {
        fn key_listener(&self) -> usize {
            self.n
        }
        fn key_wake(&self) -> usize {
            self.n + 1
        }
        fn key_pending_base(&self) -> usize {
            self.n + 2
        }

        fn run(mut self) {
            for peer in (self.me + 1)..self.n {
                self.start_connect(peer);
            }
            let mut events = Events::new();
            loop {
                self.publish();
                let timeout = self.next_timeout();
                if let Err(e) = self.poller.wait(&mut events, timeout) {
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    eprintln!("mra-net: reactor[{}] poll failed: {e}", self.me);
                    break;
                }
                for ev in events.iter() {
                    if ev.key == self.key_wake() {
                        self.drain_wake();
                    } else if ev.key == self.key_listener() {
                        self.accept_all();
                    } else if ev.key >= self.key_pending_base() {
                        self.service_pending(ev.key - self.key_pending_base());
                    } else {
                        if !self.conns[ev.key].connected && ev.writable {
                            self.finish_connect(ev.key);
                        }
                        if ev.readable {
                            self.service_read(ev.key);
                        }
                    }
                }
                self.drain_cmds();
                if self.draining.is_none() {
                    self.fire_timers();
                    self.queue_owed_acks();
                }
                self.flush_all();
                if let Some(dl) = self.draining {
                    if self.all_flushed() || Instant::now() >= dl {
                        break;
                    }
                }
            }
            self.publish();
            // Dropping `up` here unblocks a node loop still in `recv`
            // (its channel errors into `PortEvent::Shutdown`).
        }

        fn publish(&self) {
            // `clone_from`, not assignment: reuses the slot's `by_kind`
            // allocation, keeping the once-per-iteration publish free of
            // heap traffic.
            lock(&self.slot).clone_from(&self.counters);
        }

        /// The earliest pending deadline — RTOs, connect retries, the
        /// drain limit — as a poll timeout.  `None` blocks until I/O or
        /// a wakeup.
        fn next_timeout(&self) -> Option<Duration> {
            let mut next: Option<Instant> = self.draining;
            let mut fold = |t: Instant| match next {
                Some(cur) if cur <= t => {}
                _ => next = Some(t),
            };
            for c in &self.conns {
                if let Some(t) = c.retry_at {
                    fold(t);
                }
            }
            if self.draining.is_none() {
                if let Some(s) = &self.sess {
                    for t in s.deadline.iter().flatten() {
                        fold(*t);
                    }
                }
            }
            next.map(|t| t.saturating_duration_since(Instant::now()))
        }

        fn drain_wake(&mut self) {
            let mut sink = [0u8; 64];
            loop {
                match (&self.wake_rx).read(&mut sink) {
                    Ok(0) => break, // port side gone; the cmd channel decides
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break, // WouldBlock: drained
                }
            }
            // Clear AFTER draining the pipe and BEFORE draining the cmd
            // queue: a sender enqueueing between this store and the drain
            // sees `false` and writes a fresh byte — no lost wakeup.
            self.woken.store(false, Ordering::Release);
        }

        fn drain_cmds(&mut self) {
            while let Ok(cmd) = self.cmds.try_recv() {
                match cmd {
                    Cmd::Send { to, msg } => self.queue_data(to, &msg),
                    Cmd::Done => self.queue_ctrl(0, TAG_DONE, "Done"),
                    Cmd::Shutdown => {
                        for peer in 0..self.n {
                            if peer != self.me {
                                self.queue_ctrl(peer, TAG_SHUTDOWN, "Shutdown");
                            }
                        }
                    }
                    Cmd::Stop => {
                        self.draining.get_or_insert(Instant::now() + DRAIN_LIMIT);
                    }
                }
            }
        }

        /// Encode one protocol message into `to`'s write queue (session
        /// framing + piggybacked ack when reliability is on).  The bytes
        /// ride the next flush — possibly sharing a `write(2)` with every
        /// other frame queued to `to` this iteration.
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
            end_frame(&mut self.buf, tag);
            self.conns[to].wbuf.queue(&self.buf);
            self.counters.frames_out += 1;
            self.counters.by_kind.bump(label, 1);
        }

        /// Queue an empty control frame ([`TAG_DONE`] / [`TAG_SHUTDOWN`]).
        fn queue_ctrl(&mut self, to: NodeId, tag: u8, label: &'static str) {
            if to == self.me || self.conns[to].dead {
                return;
            }
            begin_frame(&mut self.buf);
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
            let Reactor { sess, conns, buf, counters, .. } = self;
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
        /// [`TAG_RACK`] per peer per iteration, and none at all when a
        /// data frame queued this pass already piggybacked it (its
        /// [`RxBatch::piggyback`] consumed the flag) — a burst of data
        /// frames costs one cumulative ack, not one ack per frame.
        fn queue_owed_acks(&mut self) {
            let Reactor { sess, conns, buf, counters, .. } = self;
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

        /// Tear down one link.  Outside draining this also tells the node
        /// loop the run is over: peers only close links on shutdown (or
        /// breakage), and either way the node must exit rather than wedge.
        fn fatal_link(&mut self, peer: NodeId) {
            if let Some(s) = self.conns[peer].stream.take() {
                let _ = self.poller.delete(&s);
            }
            let c = &mut self.conns[peer];
            c.dead = true;
            c.connected = false;
            c.wbuf.clear();
            c.retry_at = None;
            if self.draining.is_none() {
                let _ = self.up.send(Up::Shutdown);
            }
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
                        let key = self.key_pending_base() + idx;
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
        /// decoder, handling every complete frame as it appears.
        ///
        /// Bounded to [`MAX_READS_PER_PASS`] reads per call: a peer that
        /// floods faster than we decode would otherwise keep this loop
        /// spinning for as long as the kernel has bytes, deferring the
        /// owed-ack drain, RTO timers and flushes for *every other peer*
        /// past their RTOs — the reverse path then sees spurious go-back-N
        /// retransmits with zero actual loss.  The poller is
        /// level-triggered and persistent, so leftover bytes re-report
        /// readability on the next `wait` immediately; bounding the pass
        /// costs nothing but interleaves the fairness-critical work.
        fn service_read(&mut self, peer: NodeId) {
            let mut reads = 0usize;
            loop {
                if reads >= MAX_READS_PER_PASS {
                    return;
                }
                reads += 1;
                let res = {
                    let c = &mut self.conns[peer];
                    let Some(s) = c.stream.as_mut() else {
                        return;
                    };
                    c.rbuf.read_from(s)
                };
                match res {
                    Ok(0) => {
                        self.fatal_link(peer);
                        return;
                    }
                    Ok(_) => {
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
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.fatal_link(peer);
                        return;
                    }
                }
            }
        }

        /// Process one decoded frame (body in `self.scratch`, tag at
        /// `[0]`).  Returns false when the link must die: mode-mismatched
        /// or unknown tags and undecodable payloads.
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
                    // already delivered exactly once (see `MeshConfig`).
                    if let Some(f) = self.filters[peer].as_mut() {
                        if f.next_fate() == FrameFate::Drop {
                            return true;
                        }
                    }
                    let _ = self.up.send(Up::Msg {
                        from: peer,
                        deliver_at: Instant::now() + self.extra,
                        msg,
                    });
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
                    let _ = self.up.send(Up::Done);
                    true
                }
                TAG_SHUTDOWN => {
                    let _ = self.up.send(Up::Shutdown);
                    true
                }
                _ => false,
            }
        }

        fn session_data(&mut self, peer: NodeId, seq: u64, ack: u64, msg: M) {
            let s = self.sess.as_mut().expect("rdata without reliability");
            // Piggybacked ack first, then the receive window.  Accepting
            // marks the ack owed; `queue_owed_acks` (or the piggyback of
            // the next outbound frame) settles it before the next flush.
            s.tx[peer].ack(ack);
            if !s.tx[peer].has_unacked() {
                s.deadline[peer] = None;
            }
            match s.rx[peer].accept(seq) {
                RxVerdict::Deliver => {
                    let _ = self.up.send(Up::Msg {
                        from: peer,
                        deliver_at: Instant::now() + self.extra,
                        msg,
                    });
                }
                RxVerdict::Stale | RxVerdict::Gap => {}
            }
        }

        fn session_ack(&mut self, peer: NodeId, ack: u64) {
            let s = self.sess.as_mut().expect("rack without reliability");
            s.tx[peer].ack(ack);
            if !s.tx[peer].has_unacked() {
                s.deadline[peer] = None;
            }
        }

        /// Write every connection's queued bytes — one `write(2)` per
        /// connection when the socket buffer takes it all, which is the
        /// point: every frame queued to the same peer this iteration
        /// shares that call.  A partial write parks the tail and arms
        /// write-readiness to resume.
        fn flush_all(&mut self) {
            for peer in 0..self.n {
                if peer != self.me {
                    self.flush(peer);
                }
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

        fn all_flushed(&self) -> bool {
            self.conns
                .iter()
                .all(|c| c.parked() == 0 || !c.connected || c.stream.is_none())
        }
    }

    /// The node loop's port onto the reactor: the thin end of the
    /// command/event channels.  All sockets, sessions and timers live on
    /// the reactor thread; `send` is an enqueue plus at most one one-byte
    /// wakeup write.
    pub struct ReactorPort<M> {
        me: NodeId,
        ctrl: PortCtrl,
        cmd: mpsc::Sender<Cmd<M>>,
        up: mpsc::Receiver<Up<M>>,
        wake_tx: UnixStream,
        woken: Arc<AtomicBool>,
        slot: Arc<Mutex<NetCounters>>,
        handle: Option<std::thread::JoinHandle<()>>,
    }

    impl<M> ReactorPort<M> {
        fn wake(&self) {
            if !self.woken.swap(true, Ordering::AcqRel) {
                // One pending byte at most; WouldBlock means a wakeup is
                // already in flight, which is all a wakeup can achieve.
                let _ = (&self.wake_tx).write(&[1]);
            }
        }

        /// Snapshot of the reactor's transport counters (refreshed every
        /// reactor iteration; final totals once the port has dropped).
        pub fn counters(&self) -> NetCounters {
            lock(&self.slot).clone()
        }

        fn wait(&mut self, deadline: Option<Instant>) -> PortEvent<M> {
            loop {
                let got = match deadline {
                    None => self.up.recv().map_err(|_| ()),
                    Some(d) => match self
                        .up
                        .recv_timeout(d.saturating_duration_since(Instant::now()))
                    {
                        Ok(up) => Ok(up),
                        Err(mpsc::RecvTimeoutError::Disconnected) => Err(()),
                        Err(mpsc::RecvTimeoutError::Timeout) => return PortEvent::TimedOut,
                    },
                };
                match got {
                    Err(()) => return PortEvent::Shutdown,
                    // Stamp 0: the wire format carries no Lamport stamps,
                    // so the tracer has per-node ordering and counters but
                    // no cross-node edges (DESIGN.md §11).
                    Ok(Up::Msg { from, deliver_at, msg }) => {
                        return PortEvent::Msg { from, deliver_at, stamp: 0, msg }
                    }
                    Ok(Up::Shutdown) => return PortEvent::Shutdown,
                    Ok(Up::Done) => {
                        if self.ctrl.peer_done() {
                            let _ = self.cmd.send(Cmd::Shutdown);
                            self.wake();
                            return PortEvent::Shutdown;
                        }
                    }
                }
            }
        }

        /// Queue `msg` for delivery to `to`.  Send failures after shutdown
        /// are ignored — the run is already over.  `_stamp` is the
        /// tracer's send-side Lamport stamp, dropped here: see the stamp-0
        /// note in [`Self::wait`].
        pub(crate) fn send(&mut self, to: NodeId, msg: M, _stamp: u64) {
            if self.cmd.send(Cmd::Send { to, msg }).is_ok() {
                self.wake();
            }
        }

        /// Block until the next event (never [`PortEvent::TimedOut`]).
        pub(crate) fn recv(&mut self) -> PortEvent<M> {
            self.wait(None)
        }

        /// Block until the next event or `deadline`, whichever is first.
        pub(crate) fn recv_deadline(&mut self, deadline: Instant) -> PortEvent<M> {
            self.wait(Some(deadline))
        }

        /// This node just completed its round quota.  The port coordinates
        /// the cluster-wide shutdown; `true` means this node was the last
        /// active finisher and must exit immediately (the shutdown it just
        /// broadcast releases everyone else).
        pub(crate) fn quota_done(&mut self) -> bool {
            match self.ctrl.self_done(self.me) {
                DoneAct::LastFinisher => {
                    let _ = self.cmd.send(Cmd::Shutdown);
                    self.wake();
                    true
                }
                DoneAct::ReportDone => {
                    let _ = self.cmd.send(Cmd::Done);
                    self.wake();
                    false
                }
                DoneAct::Wait => false,
            }
        }
    }

    impl<M> Drop for ReactorPort<M> {
        fn drop(&mut self) {
            let _ = self.cmd.send(Cmd::Stop);
            self.wake();
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }

    /// Build node `me`'s mesh.  Returns immediately: connecting,
    /// accepting and handshaking proceed on the reactor thread, and
    /// frames sent before the mesh completes park in the per-peer write
    /// queues.  The caller must have bound `listener` (on `dir.addr(me)`
    /// or, for loopback harnesses, wherever the directory says) before
    /// any node starts connecting: a connect then completes against the
    /// listen backlog even while the acceptor is still connecting out.
    pub fn connect_reactor_mesh<M>(
        me: NodeId,
        listener: TcpListener,
        dir: &PeerDirectory,
        ctrl: PortCtrl,
        cfg: MeshConfig,
    ) -> io::Result<ReactorPort<M>>
    where
        M: WireCodec + Clone + Send + 'static,
    {
        let n = dir.len();
        assert!(me < n, "node id {me} outside directory 0..{n}");
        let poller = Poller::new()?;
        listener.set_nonblocking(true)?;
        // std listens with backlog 128; every smaller peer SYNs at once
        // in a big mesh, and an overflow costs whole TCP-retry seconds.
        let _ = sys::listen_backlog(&listener, 4096);
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        poller.add(&listener, Event::readable(n))?;
        poller.add(&wake_rx, Event::readable(n + 1))?;

        let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd<M>>();
        let (up_tx, up_rx) = mpsc::channel::<Up<M>>();
        let woken = Arc::new(AtomicBool::new(false));
        let slot = cfg
            .counters_slot
            .clone()
            .unwrap_or_else(|| Arc::new(Mutex::new(NetCounters::default())));
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
        let reactor = Reactor {
            me,
            n,
            addrs: (0..n).map(|i| dir.addr(i)).collect(),
            poller,
            listener,
            wake_rx,
            woken: Arc::clone(&woken),
            cmds: cmd_rx,
            up: up_tx,
            conns,
            pending: Vec::new(),
            sess: cfg.reliability.map(|r| Sessions::new(r, n)),
            filters,
            extra: cfg.extra_latency.to_std(),
            connect_deadline: Instant::now() + cfg.connect_timeout,
            counters: NetCounters::default(),
            slot: Arc::clone(&slot),
            buf: Vec::with_capacity(256),
            scratch: Vec::with_capacity(256),
            draining: None,
        };
        let handle = std::thread::Builder::new()
            .name(format!("mra-net-reactor-{me}"))
            .spawn(move || reactor.run())?;
        Ok(ReactorPort {
            me,
            ctrl,
            cmd: cmd_tx,
            up: up_rx,
            wake_tx,
            woken,
            slot,
            handle: Some(handle),
        })
    }
}

#[cfg(not(unix))]
mod stub {
    use crate::transport::{MeshConfig, PeerDirectory, PortCtrl};
    use crate::runtime::PortEvent;
    use mra_protocol::WireCodec;
    use mra_types::NodeId;
    use std::io;
    use std::marker::PhantomData;
    use std::net::TcpListener;

    /// Unsupported on this platform (no epoll/kqueue); exists only to
    /// keep the crate compiling — `connect_reactor_mesh` never returns one.
    pub struct ReactorPort<M>(PhantomData<M>);

    impl<M> ReactorPort<M> {
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
    }

    pub fn connect_reactor_mesh<M>(
        _me: NodeId,
        _listener: TcpListener,
        _dir: &PeerDirectory,
        _ctrl: PortCtrl,
        _cfg: MeshConfig,
    ) -> io::Result<ReactorPort<M>>
    where
        M: WireCodec + Clone + Send + 'static,
    {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mra-net's TCP transport needs epoll or kqueue (unix only)",
        ))
    }
}

#[cfg(not(unix))]
pub use stub::{connect_reactor_mesh, ReactorPort};

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::transport::{MeshConfig, PeerDirectory, PortCtrl};
    use mra_protocol::faults::{FaultPlan, FrameFate, LinkFilter};
    use crate::runtime::PortEvent;
    use mra_protocol::reliable::Reliability;
    use mra_types::Time;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn pair_dir() -> (TcpListener, TcpListener, PeerDirectory) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = PeerDirectory::new(vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()]);
        (l0, l1, dir)
    }

    fn kind<M>(ev: &PortEvent<M>) -> &'static str {
        match ev {
            PortEvent::Msg { .. } => "Msg",
            PortEvent::TimedOut => "TimedOut",
            PortEvent::Shutdown => "Shutdown",
        }
    }

    #[test]
    fn two_node_reactor_mesh_moves_messages() {
        let (l0, l1, dir) = pair_dir();
        let d0 = dir.clone();
        let remaining = Arc::new(AtomicUsize::new(2));
        let r0 = Arc::clone(&remaining);
        let t = std::thread::spawn(move || {
            let mut p0: ReactorPort<u64> =
                connect_reactor_mesh(0, l0, &d0, PortCtrl::Cluster(r0), MeshConfig::default())
                    .unwrap();
            p0.send(1, 0xDEAD_BEEF, 0);
            match p0.recv() {
                PortEvent::Msg { from, msg, .. } => assert_eq!((from, msg), (1, 7)),
                other => panic!("expected message, got {}", kind(&other)),
            }
        });
        let mut p1: ReactorPort<u64> = connect_reactor_mesh(
            1,
            l1,
            &dir,
            PortCtrl::Cluster(Arc::clone(&remaining)),
            MeshConfig::default(),
        )
        .unwrap();
        // A connection whose handshake names an id that may not connect
        // here (only smaller ids do) is closed, not indexed or adopted.
        let mut rogue = std::net::TcpStream::connect(dir.addr(1)).unwrap();
        rogue.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        std::io::Write::write_all(&mut rogue, &7u32.to_le_bytes()).unwrap();
        assert_eq!(std::io::Read::read(&mut rogue, &mut [0u8; 1]).unwrap(), 0);
        p1.send(0, 7, 0);
        match p1.recv() {
            PortEvent::Msg { from, msg, .. } => assert_eq!((from, msg), (0, 0xDEAD_BEEF)),
            other => panic!("expected message, got {}", kind(&other)),
        }
        t.join().unwrap();
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

        let (l0, l1, dir) = pair_dir();
        let d0 = dir.clone();
        let shim = MeshConfig { faults: Some(plan), ..MeshConfig::default() };
        let cfg0 = shim.clone();
        let remaining = Arc::new(AtomicUsize::new(2));
        let r0 = Arc::clone(&remaining);
        let t = std::thread::spawn(move || {
            let mut p0: ReactorPort<u64> =
                connect_reactor_mesh(0, l0, &d0, PortCtrl::Cluster(r0), cfg0).unwrap();
            for k in 0..FRAMES {
                p0.send(1, k, 0);
            }
            // Dropping p0 stops its reactor, which flushes the parked
            // frames before closing; the peer then sees EOF.
        });
        let mut p1: ReactorPort<u64> = connect_reactor_mesh(
            1,
            l1,
            &dir,
            PortCtrl::Cluster(Arc::clone(&remaining)),
            shim,
        )
        .unwrap();
        let mut got = Vec::new();
        loop {
            match p1.recv() {
                PortEvent::Msg { from, msg, .. } => {
                    assert_eq!(from, 0);
                    got.push(msg);
                }
                PortEvent::Shutdown => break,
                PortEvent::TimedOut => unreachable!("recv never times out"),
            }
        }
        t.join().unwrap();
        assert_eq!(got.len() as u64, expected, "shim lost the wrong frames");
        // FIFO survives the shim: payloads arrive in send order.
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn reliable_reactor_recovers_drops_and_batches_acks() {
        // The session contract — exactly-once, in-order delivery under a
        // lossy+duplicating shim — must survive coalesced acking, and the
        // receiver must *not* send one standalone ack per data frame.
        const FRAMES: u64 = 200;
        let plan = FaultPlan::new(0xC0FFEE).drop_rate(0.3).dup_rate(0.1);
        let shim = MeshConfig {
            faults: Some(plan),
            reliability: Some(Reliability::with_rto(Time::from_millis(5))),
            ..MeshConfig::default()
        };
        let (l0, l1, dir) = pair_dir();
        let d0 = dir.clone();
        let cfg0 = shim.clone();
        let remaining = Arc::new(AtomicUsize::new(2));
        let r0 = Arc::clone(&remaining);
        let t = std::thread::spawn(move || {
            let mut p0: ReactorPort<u64> =
                connect_reactor_mesh(0, l0, &d0, PortCtrl::Cluster(r0), cfg0).unwrap();
            for k in 0..FRAMES {
                p0.send(1, k, 0);
            }
            // The reactor retransmits on its own timers; the node loop
            // just waits for the peer's reliable confirmation.
            match p0.recv_deadline(Instant::now() + Duration::from_secs(20)) {
                PortEvent::Msg { from, msg, .. } => assert_eq!((from, msg), (1, u64::MAX)),
                PortEvent::Shutdown => panic!("peer vanished early"),
                PortEvent::TimedOut => panic!("confirmation never arrived"),
            }
        });
        let mut p1: ReactorPort<u64> = connect_reactor_mesh(
            1,
            l1,
            &dir,
            PortCtrl::Cluster(Arc::clone(&remaining)),
            shim,
        )
        .unwrap();
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while (got.len() as u64) < FRAMES {
            match p1.recv_deadline(deadline) {
                PortEvent::Msg { from, msg, .. } => {
                    assert_eq!(from, 0);
                    got.push(msg);
                }
                PortEvent::Shutdown => panic!("sender vanished early"),
                PortEvent::TimedOut => {
                    panic!("reliable link stalled with {}/{FRAMES} frames", got.len())
                }
            }
        }
        // Exactly once, in order — the session contract survives the
        // batched acking.
        assert_eq!(got, (0..FRAMES).collect::<Vec<u64>>());
        let c1 = p1.counters();
        // Ack batching: the receiver decoded ≥ FRAMES data frames (plus
        // duplicates and retransmissions) yet sent far fewer standalone
        // acks — a burst of arrivals owes one cumulative ack, and the
        // confirmation frame piggybacks instead of acking separately.
        assert!(
            c1.ack_frames < FRAMES / 2,
            "acks not batched: {} standalone acks for {FRAMES} frames",
            c1.ack_frames
        );
        assert!(c1.ack_frames > 0, "one-way traffic must owe standalone acks");
        p1.send(0, u64::MAX, 0);
        // Serve until the peer exits (its reactor's EOF shuts ours down).
        while !t.is_finished() {
            match p1.recv_deadline(Instant::now() + Duration::from_millis(50)) {
                PortEvent::Shutdown => break,
                _ => continue,
            }
        }
        t.join().unwrap();
    }

    #[test]
    fn reactor_coalesces_frames_into_fewer_writes() {
        // A burst of sends — queued while the mesh is still forming or
        // between reactor iterations — must share write syscalls:
        // strictly fewer `write(2)`s than frames.
        const BURST: u64 = 100;
        let (l0, l1, dir) = pair_dir();
        let d0 = dir.clone();
        let remaining = Arc::new(AtomicUsize::new(2));
        let r0 = Arc::clone(&remaining);
        let t = std::thread::spawn(move || {
            let mut p0: ReactorPort<u64> =
                connect_reactor_mesh(0, l0, &d0, PortCtrl::Cluster(r0), MeshConfig::default())
                    .unwrap();
            for k in 0..BURST {
                p0.send(1, k, 0);
            }
            match p0.recv_deadline(Instant::now() + Duration::from_secs(10)) {
                PortEvent::Msg { from, msg, .. } => assert_eq!((from, msg), (1, 1)),
                other => panic!("expected confirmation, got {}", kind(&other)),
            }
            let c0 = p0.counters();
            assert_eq!(c0.frames_out, BURST);
            assert!(
                c0.write_calls < BURST,
                "no coalescing: {} writes for {BURST} frames",
                c0.write_calls
            );
        });
        let mut p1: ReactorPort<u64> = connect_reactor_mesh(
            1,
            l1,
            &dir,
            PortCtrl::Cluster(Arc::clone(&remaining)),
            MeshConfig::default(),
        )
        .unwrap();
        for want in 0..BURST {
            match p1.recv_deadline(Instant::now() + Duration::from_secs(10)) {
                PortEvent::Msg { from, msg, .. } => assert_eq!((from, msg), (0, want)),
                other => panic!("expected frame {want}, got {}", kind(&other)),
            }
        }
        p1.send(0, 1, 0);
        while !t.is_finished() {
            match p1.recv_deadline(Instant::now() + Duration::from_millis(50)) {
                PortEvent::Shutdown => break,
                _ => continue,
            }
        }
        t.join().unwrap();
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
        let shim = MeshConfig {
            reliability: Some(Reliability::with_rto(Time::from_millis(250))),
            ..MeshConfig::default()
        };
        let d0 = dir.clone();
        let cfg0 = shim.clone();
        let remaining = Arc::new(AtomicUsize::new(2));
        let r0 = Arc::clone(&remaining);
        let t = std::thread::spawn(move || {
            let mut p0: ReactorPort<u64> =
                connect_reactor_mesh(0, l0, &d0, PortCtrl::Cluster(r0), cfg0).unwrap();
            p0.send(1, 42, 0);
            match p0.recv_deadline(Instant::now() + Duration::from_secs(20)) {
                PortEvent::Msg { from, msg, .. } => assert_eq!((from, msg), (1, 7)),
                other => panic!("expected confirmation, got {}", kind(&other)),
            }
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
        let mut p1: ReactorPort<u64> = connect_reactor_mesh(
            1,
            l1,
            &dir,
            PortCtrl::Cluster(Arc::clone(&remaining)),
            shim,
        )
        .unwrap();
        match p1.recv_deadline(Instant::now() + Duration::from_secs(20)) {
            PortEvent::Msg { from, msg, .. } => assert_eq!((from, msg), (0, 42)),
            other => panic!("expected the parked frame, got {}", kind(&other)),
        }
        p1.send(0, 7, 0);
        while !t.is_finished() {
            match p1.recv_deadline(Instant::now() + Duration::from_millis(50)) {
                PortEvent::Shutdown => break,
                _ => continue,
            }
        }
        t.join().unwrap();
    }

    #[test]
    fn reactor_asymmetric_flood_perfect_link_no_retransmits() {
        // Sustained one-way traffic with reliability on: every ack back
        // is a standalone TAG_RACK (no reverse data to piggyback on).
        // On a perfect link nothing may retransmit — the bounded
        // per-pass read drain guarantees the receiver's owed-ack queue
        // runs every reactor iteration even while inbound is saturated.
        const FRAMES: u64 = 20_000;
        const BURST: u64 = 500;
        let shim = MeshConfig {
            reliability: Some(Reliability::with_rto(Time::from_millis(200))),
            ..MeshConfig::default()
        };
        let (l0, l1, dir) = pair_dir();
        let d0 = dir.clone();
        let cfg0 = shim.clone();
        let remaining = Arc::new(AtomicUsize::new(2));
        let r0 = Arc::clone(&remaining);
        let t = std::thread::spawn(move || {
            let mut p0: ReactorPort<u64> =
                connect_reactor_mesh(0, l0, &d0, PortCtrl::Cluster(r0), cfg0).unwrap();
            for k in 0..FRAMES {
                p0.send(1, k, 0);
                if (k + 1) % BURST == 0 {
                    // Open-loop pacing: keep the in-flight window modest
                    // so a retransmit could only come from deferred acks,
                    // never from frames aging in our own parked backlog.
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            match p0.recv_deadline(Instant::now() + Duration::from_secs(20)) {
                PortEvent::Msg { from, msg, .. } => assert_eq!((from, msg), (1, u64::MAX)),
                other => panic!("expected confirmation, got {}", kind(&other)),
            }
            let c0 = p0.counters();
            assert_eq!(
                c0.retransmit_frames, 0,
                "perfect link but {} RTO fires — acks deferred past the timer",
                c0.rto_fires
            );
        });
        let mut p1: ReactorPort<u64> = connect_reactor_mesh(
            1,
            l1,
            &dir,
            PortCtrl::Cluster(Arc::clone(&remaining)),
            shim,
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        for want in 0..FRAMES {
            match p1.recv_deadline(deadline) {
                PortEvent::Msg { from, msg, .. } => assert_eq!((from, msg), (0, want)),
                other => panic!("expected frame {want}, got {}", kind(&other)),
            }
        }
        let c1 = p1.counters();
        assert!(c1.ack_frames > 0, "one-way traffic must owe standalone acks");
        p1.send(0, u64::MAX, 0);
        while !t.is_finished() {
            match p1.recv_deadline(Instant::now() + Duration::from_millis(50)) {
                PortEvent::Shutdown => break,
                _ => continue,
            }
        }
        t.join().unwrap();
    }

    #[test]
    fn reactor_last_finisher_shutdown_reaches_peer() {
        let (l0, l1, dir) = pair_dir();
        let d0 = dir.clone();
        let remaining = Arc::new(AtomicUsize::new(1));
        let r0 = Arc::clone(&remaining);
        let t = std::thread::spawn(move || {
            let mut p0: ReactorPort<u64> =
                connect_reactor_mesh(0, l0, &d0, PortCtrl::Cluster(r0), MeshConfig::default())
                    .unwrap();
            assert!(p0.quota_done());
        });
        let mut p1: ReactorPort<u64> = connect_reactor_mesh(
            1,
            l1,
            &dir,
            PortCtrl::Cluster(Arc::clone(&remaining)),
            MeshConfig::default(),
        )
        .unwrap();
        assert!(matches!(p1.recv(), PortEvent::Shutdown));
        t.join().unwrap();
    }
}

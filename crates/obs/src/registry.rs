//! Counters: per-message-type counts and the transport's frame tallies.
//!
//! [`NetCounters`] is plain mergeable state — no atomics, no locks; each
//! owner keeps its own instance and either merges at the end or snapshots
//! on demand.  [`KindCounts`] is the workspace's one per-message-type
//! table (`Collector::on_message` and the reactor both bump it):
//! per-message-type tags are a handful of `&'static str`s, so a linear
//! probe with ptr-compare beats hashing.

/// Per-message-type counters keyed by the protocol's static tag strings.
#[derive(Clone, Debug, Default)]
pub struct KindCounts(Vec<(&'static str, u64)>);

impl KindCounts {
    /// Add `n` to the counter for `tag`.
    #[inline]
    pub fn bump(&mut self, tag: &'static str, n: u64) {
        // Tags come from a fixed set of statics, so a known tag almost
        // always matches by address; byte equality is the backstop for
        // equal literals at distinct addresses.  Two passes keep byte
        // compares off the per-message path.
        let by_addr = self.0.iter().position(|e| std::ptr::eq(e.0, tag));
        let hit = by_addr.or_else(|| self.0.iter().position(|e| e.0 == tag));
        match hit {
            Some(i) => self.0[i].1 += n,
            None => self.0.push((tag, n)),
        }
    }

    pub fn get(&self, tag: &str) -> u64 {
        self.0.iter().find(|(t, _)| *t == tag).map_or(0, |(_, n)| *n)
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Canonically sorted `(tag, count)` pairs.
    pub fn sorted(&self) -> Vec<(&'static str, u64)> {
        let mut v = self.0.clone();
        v.sort();
        v
    }

    pub fn merge(&mut self, other: &KindCounts) {
        for (tag, n) in &other.0 {
            self.bump(tag, *n);
        }
    }
}

/// Frame-level transport counters for one endpoint.
#[derive(Clone, Debug, Default)]
pub struct NetCounters {
    /// Protocol frames written (first transmissions).
    pub frames_out: u64,
    /// Bytes written, including framing overhead.
    pub bytes_out: u64,
    /// Protocol frames received and decoded.
    pub frames_in: u64,
    /// Bytes received, including framing overhead.
    pub bytes_in: u64,
    /// Frames re-sent by the reliable session layer.
    pub retransmit_frames: u64,
    /// Retransmission-timer expiries serviced.
    pub rto_fires: u64,
    /// `write(2)` calls issued for frame traffic; the reactor coalesces,
    /// so many frames can share one call.  `frames_out +
    /// retransmit_frames + standalone acks` divided by this is the
    /// coalescing ratio.
    pub write_calls: u64,
    /// `read(2)` calls that returned frame bytes.
    pub read_calls: u64,
    /// `read(2)` calls that returned nothing (`WouldBlock`): a syscall
    /// spent learning that a socket was already drained.
    pub empty_reads: u64,
    /// Poller waits (`epoll_pwait2` / `kevent`): one per reactor turn.
    pub poll_calls: u64,
    /// Standalone ack frames sent (not piggybacked on data).
    pub ack_frames: u64,
    /// Outbound frames by protocol message type.
    pub by_kind: KindCounts,
}

impl NetCounters {
    pub fn merge(&mut self, other: &NetCounters) {
        self.frames_out += other.frames_out;
        self.bytes_out += other.bytes_out;
        self.frames_in += other.frames_in;
        self.bytes_in += other.bytes_in;
        self.retransmit_frames += other.retransmit_frames;
        self.rto_fires += other.rto_fires;
        self.write_calls += other.write_calls;
        self.read_calls += other.read_calls;
        self.empty_reads += other.empty_reads;
        self.poll_calls += other.poll_calls;
        self.ack_frames += other.ack_frames;
        self.by_kind.merge(&other.by_kind);
    }

    /// Every frame that hit the wire outbound: first transmissions,
    /// retransmissions and standalone acks.
    pub fn wire_frames_out(&self) -> u64 {
        self.frames_out + self.retransmit_frames + self.ack_frames
    }

    /// Outbound frames per `write(2)` call — the coalescing ratio: 1.0
    /// with one write per frame, > 1.0 when the reactor batches.  `None`
    /// before any write happened.
    pub fn frames_per_write(&self) -> Option<f64> {
        (self.write_calls > 0).then(|| self.wire_frames_out() as f64 / self.write_calls as f64)
    }

    /// I/O syscalls (reads + writes) per frame moved in either direction.
    /// The tentpole acceptance metric: < 1.0 means coalescing amortizes
    /// syscall cost below one per frame.  `None` before any frame moved.
    pub fn syscalls_per_frame(&self) -> Option<f64> {
        let frames = self.wire_frames_out() + self.frames_in;
        (frames > 0).then(|| (self.write_calls + self.read_calls) as f64 / frames as f64)
    }

    /// One-line-per-field snapshot for `mra-node --metrics`:
    /// `metrics[node]: frames_out=… bytes_out=… …` then a `by_kind` line
    /// when any frame went out.  `node` labels whose counters these are
    /// (a node id, or a word for a cluster-wide sum).
    pub fn render(&self, node: impl std::fmt::Display) -> String {
        let mut out = format!(
            "metrics[{}]: frames_out={} bytes_out={} frames_in={} bytes_in={} retransmits={} rto_fires={}\n",
            node,
            self.frames_out,
            self.bytes_out,
            self.frames_in,
            self.bytes_in,
            self.retransmit_frames,
            self.rto_fires
        );
        if self.write_calls > 0 || self.read_calls > 0 {
            out.push_str(&format!(
                "metrics[{}]: write_calls={} read_calls={} ack_frames={} frames_per_write={:.2} syscalls_per_frame={:.2} poll_calls={} empty_reads={}\n",
                node,
                self.write_calls,
                self.read_calls,
                self.ack_frames,
                self.frames_per_write().unwrap_or(0.0),
                self.syscalls_per_frame().unwrap_or(0.0),
                self.poll_calls,
                self.empty_reads,
            ));
        }
        if !self.by_kind.is_empty() {
            out.push_str(&format!("metrics[{node}]: by_kind"));
            for (tag, n) in self.by_kind.sorted() {
                out.push_str(&format!(" {tag}={n}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_counts_bump_and_merge() {
        let mut a = KindCounts::default();
        a.bump("Req", 2);
        a.bump("Grant", 1);
        a.bump("Req", 3);
        assert_eq!(a.get("Req"), 5);
        assert_eq!(a.get("Grant"), 1);
        assert_eq!(a.get("Nope"), 0);
        let mut b = KindCounts::default();
        b.bump("Req", 10);
        b.bump("Release", 4);
        a.merge(&b);
        assert_eq!(
            a.sorted(),
            vec![("Grant", 1), ("Release", 4), ("Req", 15)]
        );
    }

    #[test]
    fn net_counters_merge_and_render() {
        let mut a = NetCounters {
            frames_out: 3,
            bytes_out: 120,
            ..Default::default()
        };
        a.by_kind.bump("Req", 3);
        let b = NetCounters {
            frames_in: 2,
            bytes_in: 64,
            retransmit_frames: 1,
            rto_fires: 1,
            ..Default::default()
        };
        a.merge(&b);
        let s = a.render(7);
        assert!(s.contains("metrics[7]: frames_out=3 bytes_out=120 frames_in=2 bytes_in=64 retransmits=1 rto_fires=1"));
        assert!(s.contains("by_kind Req=3"));
        // No syscall line until a transport reports calls.
        assert!(!s.contains("write_calls"));
    }

    #[test]
    fn syscall_ratios_expose_coalescing() {
        let mut c = NetCounters::default();
        assert_eq!(c.frames_per_write(), None);
        assert_eq!(c.syscalls_per_frame(), None);
        // 6 data frames + 1 retransmit + 1 standalone ack over 2 writes,
        // 8 inbound frames over 2 reads: reactor-style batching.
        c.frames_out = 6;
        c.retransmit_frames = 1;
        c.ack_frames = 1;
        c.write_calls = 2;
        c.frames_in = 8;
        c.read_calls = 2;
        assert_eq!(c.wire_frames_out(), 8);
        assert_eq!(c.frames_per_write(), Some(4.0));
        assert_eq!(c.syscalls_per_frame(), Some(0.25));
        // The two ratios count data-moving calls only; waits and empty
        // reads are reported beside them.
        c.poll_calls = 3;
        c.empty_reads = 1;
        assert_eq!(c.syscalls_per_frame(), Some(0.25));
        let s = c.render(0);
        assert!(s.contains(
            "write_calls=2 read_calls=2 ack_frames=1 frames_per_write=4.00 syscalls_per_frame=0.25 poll_calls=3 empty_reads=1"
        ));
    }
}

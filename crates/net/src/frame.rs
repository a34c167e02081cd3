//! Length-prefixed framing over a byte stream.
//!
//! Every frame is `[len: u32 LE][tag: u8][payload: len-1 bytes]`; the
//! payload of a [`TAG_MSG`] frame is one `WireCodec`-encoded protocol
//! message, control frames ([`TAG_SHUTDOWN`], [`TAG_DONE`]) carry none.
//! TCP guarantees byte order, so frames on one connection arrive intact
//! and FIFO — exactly the per-link delivery model the simulator assumes.
//!
//! A connection opens with a 4-byte handshake: the connector's `NodeId` as
//! `u32 LE`, written and parsed by the reactor, which runs one
//! **bidirectional** connection per unordered pair — the handshake is all
//! the acceptor needs to attribute traffic.
//!
//! Two decoders share the wire format: [`FrameBuf`] (incremental, for the
//! reactor's nonblocking sockets) and [`read_frame`] (blocking — the
//! reference decoder the property tests hold `FrameBuf` against).

use std::io::{self, Read, Write};

/// Frame tag: the payload is one encoded protocol message.
pub const TAG_MSG: u8 = 0;
/// Frame tag: cluster-wide shutdown (empty payload).
pub const TAG_SHUTDOWN: u8 = 1;
/// Frame tag: the sender completed its round quota (empty payload; solo
/// deployments route these to node 0, which coordinates shutdown).
pub const TAG_DONE: u8 = 2;
/// Frame tag: a reliable-session data frame — payload is
/// `[seq: u64 LE][ack: u64 LE]` followed by one encoded protocol message
/// (see `mra_protocol::reliable`).
pub const TAG_RDATA: u8 = 3;
/// Frame tag: a reliable-session standalone cumulative ack — payload is
/// `[ack: u64 LE]`.
pub const TAG_RACK: u8 = 4;

/// Upper bound on a frame's `len` field.  The largest legitimate message
/// (a full token batch with per-resource counters) is a few KiB; 64 KiB
/// leaves an order-of-magnitude margin while keeping a corrupt or hostile
/// length prefix — which used to provoke a multi-megabyte allocation
/// attempt before any validation — rejected before the buffer grows.
pub const MAX_FRAME: usize = 64 * 1024;

/// Size of the frame header (`len` field + tag byte).
pub const HEADER: usize = 5;

/// Size of the reliable-session data header inside a [`TAG_RDATA`] payload.
pub const RDATA_HEADER: usize = 16;

/// Start building a frame in `buf`: clear it and reserve the header.
/// Encode the payload directly after, then call [`end_frame`].  This pair
/// is the *only* owner of the header layout; senders that want the
/// single-write/reused-buffer fast path go through it instead of
/// hand-rolling the five bytes.
#[inline]
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0u8; HEADER]);
}

/// Finalize a frame started with [`begin_frame`]: patch the length and
/// tag into the reserved header.  The buffer is then ready to write as
/// one contiguous frame.
///
/// # Panics
/// If the frame body exceeds [`MAX_FRAME`]: the receiver would reject it
/// and kill the link with no hint of the cause, so an oversized frame
/// fails loudly at the *sender*.  Unreachable for every legitimate
/// message (the largest, a full control-token batch, is a few KiB — the
/// resource universe is hard-capped at 256).
#[inline]
pub fn end_frame(buf: &mut [u8], tag: u8) {
    debug_assert!(buf.len() >= HEADER);
    let len = buf.len() - 4;
    assert!(
        len <= MAX_FRAME,
        "frame body {len} bytes exceeds MAX_FRAME ({MAX_FRAME}); \
         the receiver would reject it"
    );
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[4] = tag;
}

/// Write one frame.  `payload` may be empty (control frames).
///
/// One `write_all` per frame keeps NODELAY sockets to a single segment.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(HEADER + payload.len());
    begin_frame(&mut buf);
    buf.extend_from_slice(payload);
    end_frame(&mut buf, tag);
    w.write_all(&buf)
}

/// Read one frame into `scratch` (resized to the frame body) and return
/// its tag; the payload is `&scratch[1..]`.  Errors on EOF, short reads
/// and out-of-range lengths.
pub fn read_frame(r: &mut impl Read, scratch: &mut Vec<u8>) -> io::Result<u8> {
    let mut lenb = [0u8; 4];
    r.read_exact(&mut lenb)?;
    let len = u32::from_le_bytes(lenb) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range"),
        ));
    }
    scratch.resize(len, 0);
    r.read_exact(scratch)?;
    Ok(scratch[0])
}

/// Split a [`TAG_RDATA`] payload (`scratch[1..]`) into `(seq, ack, body)`.
/// Errors on a short payload.
pub fn split_rdata(payload: &[u8]) -> io::Result<(u64, u64, &[u8])> {
    if payload.len() < RDATA_HEADER {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("rdata payload too short: {} bytes", payload.len()),
        ));
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let ack = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    Ok((seq, ack, &payload[RDATA_HEADER..]))
}

/// Incremental frame decoder for nonblocking sockets.
///
/// [`read_frame`] assumes it may block until a whole frame arrives —
/// useless under a readiness-polled reactor where a read returns
/// *whatever bytes the kernel has*, cutting frames anywhere
/// (mid-length-word, mid-payload, three frames at once).
/// `FrameBuf` accumulates those arbitrary chunks and yields complete
/// frames in the same `scratch` convention as [`read_frame`]: the body
/// (tag at `[0]`, payload after) with the length word stripped.
///
/// The length prefix is validated **before** its frame is awaited, so a
/// poisoned length word kills the connection immediately instead of
/// stalling it waiting for gigabytes that never come.
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// Backing storage.  Its *length* is a zero-initialized high-water
    /// mark, never shrunk: valid bytes live at `buf[pos..end]`, and reads
    /// land into already-initialized space past `end`.  Tracking `end`
    /// separately (instead of `truncate` + `resize` around every read)
    /// matters because `Vec::resize` re-zeroes everything past the len —
    /// a 16 KiB memset *per read syscall* on the reactor's hot path.
    buf: Vec<u8>,
    /// Start of undecoded bytes in `buf`; everything before is consumed.
    pos: usize,
    /// End of valid bytes in `buf`.
    end: usize,
}

/// Bytes asked of the kernel per [`FrameBuf::read_from`] call.
pub const READ_CHUNK: usize = 16 * 1024;

/// Consumed-prefix size past which the incremental buffers slide their
/// live bytes back to the front.  Compacting on *every* operation would
/// pay a `copy_within` per read/write; waiting until the dead prefix
/// reaches this threshold amortizes the copy to O(1) per consumed byte
/// while still bounding the prefix.
pub const COMPACT_THRESHOLD: usize = 4 * 1024;

/// High-water storage a buffer keeps across bursts.  A transient backlog
/// (a slow consumer, a retransmission storm) can legitimately grow the
/// backing store far past steady state; once the backlog drains, storage
/// beyond this bound is returned to the allocator instead of staying
/// resident for the lifetime of the connection.  Sized so steady-state
/// operation never touches it: the largest undecoded tail (one maximal
/// frame) plus one read chunk plus the compaction threshold.
pub const RETAIN_LIMIT: usize = COMPACT_THRESHOLD + HEADER + MAX_FRAME + READ_CHUNK;

impl FrameBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Issue **one** `read` against `r`, appending whatever arrives.
    /// Returns the byte count: `Ok(0)` is EOF.  `WouldBlock` propagates
    /// to the caller (the reactor treats it as "drained for now").
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.compact();
        // One syscall-sized chunk per call; the reactor loops while the
        // socket stays readable, so throughput doesn't hinge on this size.
        // Growing past the high-water mark zeroes new space once, ever.
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = r.read(&mut self.buf[self.end..self.end + READ_CHUNK])?;
        self.end += n;
        Ok(n)
    }

    /// Decode the next complete frame into `scratch`, returning its tag —
    /// or `Ok(None)` if the buffered bytes don't yet hold a whole frame.
    /// Mirrors [`read_frame`]'s contract: `scratch` ends up holding the
    /// frame body, payload at `&scratch[1..]`.
    pub fn next_frame_into(&mut self, scratch: &mut Vec<u8>) -> io::Result<Option<u8>> {
        let avail = &self.buf[self.pos..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} out of range"),
            ));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        scratch.clear();
        scratch.extend_from_slice(&avail[4..4 + len]);
        self.pos += 4 + len;
        Ok(Some(scratch[0]))
    }

    /// Bytes buffered but not yet decoded (partial frame tail).
    pub fn pending(&self) -> usize {
        self.end - self.pos
    }

    /// Bytes of backing storage currently held (the high-water mark, not
    /// the live span).  Bounded by [`RETAIN_LIMIT`] whenever the decode
    /// side keeps up — the regression guard `prop_frame.rs` asserts.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Slide unconsumed bytes to the front so the buffer doesn't grow
    /// without bound on a long-lived connection.  A fully drained buffer
    /// resets for free; otherwise the `copy_within` (at most one partial
    /// frame) runs only once the dead prefix passes [`COMPACT_THRESHOLD`],
    /// amortizing it.  Draining also releases burst storage past
    /// [`RETAIN_LIMIT`] — without this a single backlog spike would pin
    /// its high-water allocation for the connection's lifetime.
    fn compact(&mut self) {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
            // Gate on capacity, not length: amortized `Vec` growth can
            // leave the allocation ~2× the high-water length, and it is
            // the allocation this bound is about.
            if self.buf.capacity() > RETAIN_LIMIT {
                self.buf.truncate(RETAIN_LIMIT);
                self.buf.shrink_to(RETAIN_LIMIT);
            }
        } else if self.pos >= COMPACT_THRESHOLD {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
    }
}

/// Outbound byte queue with partial-write tracking, the write-side twin
/// of [`FrameBuf`].
///
/// The reactor parks unflushed frames per connection: [`queue`] appends
/// encoded bytes, [`unwritten`] exposes the tail still owed to the
/// kernel, [`consume`] advances past what `write(2)` accepted.  A slow
/// peer keeps the queue non-empty indefinitely, so the consumed prefix
/// is reclaimed once it exceeds [`COMPACT_THRESHOLD`] — the naive
/// cursor-into-a-`Vec` it replaces only reclaimed on full drain, which a
/// peer that never quite catches up never triggers: every byte ever
/// parked stayed resident (see the `writebuf_slow_peer_stays_bounded`
/// regression).
///
/// [`queue`]: WriteBuf::queue
/// [`unwritten`]: WriteBuf::unwritten
/// [`consume`]: WriteBuf::consume
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    /// Bytes already accepted by the kernel; `buf[pos..]` is owed.
    pos: usize,
}

impl WriteBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes to the tail of the queue.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes still owed to the kernel.
    pub fn unwritten(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Count of bytes still owed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when nothing is owed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Advance past `n` bytes the kernel accepted.  Compacts the consumed
    /// prefix past [`COMPACT_THRESHOLD`] and releases burst storage past
    /// [`RETAIN_LIMIT`] on full drain.
    pub fn consume(&mut self, n: usize) {
        self.pos += n;
        debug_assert!(self.pos <= self.buf.len());
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if self.buf.capacity() > RETAIN_LIMIT {
                self.buf.shrink_to(RETAIN_LIMIT);
            }
        } else if self.pos >= COMPACT_THRESHOLD {
            let len = self.buf.len();
            self.buf.copy_within(self.pos..len, 0);
            self.buf.truncate(len - self.pos);
            self.pos = 0;
        }
    }

    /// Drop everything, owed or not (link teardown).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
        if self.buf.capacity() > RETAIN_LIMIT {
            self.buf.shrink_to(RETAIN_LIMIT);
        }
    }

    /// Bytes of backing storage currently held.  Bounded by the live
    /// backlog plus [`COMPACT_THRESHOLD`] — *not* by the total bytes ever
    /// queued, which is the property the compaction buys.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Parse a [`TAG_RACK`] payload (`scratch[1..]`) into its ack value.
pub fn split_rack(payload: &[u8]) -> io::Result<u64> {
    if payload.len() != 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("rack payload must be 8 bytes, got {}", payload.len()),
        ));
    }
    Ok(u64::from_le_bytes(payload.try_into().expect("8 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_MSG, b"hello").unwrap();
        write_frame(&mut wire, TAG_SHUTDOWN, b"").unwrap();
        let mut r = Cursor::new(wire);
        let mut scratch = Vec::new();
        assert_eq!(read_frame(&mut r, &mut scratch).unwrap(), TAG_MSG);
        assert_eq!(&scratch[1..], b"hello");
        assert_eq!(read_frame(&mut r, &mut scratch).unwrap(), TAG_SHUTDOWN);
        assert_eq!(scratch.len(), 1);
        // EOF afterwards.
        assert!(read_frame(&mut r, &mut scratch).is_err());
    }

    #[test]
    fn buffer_built_frame_matches_write_frame() {
        let mut streamed = Vec::new();
        write_frame(&mut streamed, TAG_MSG, b"abc").unwrap();
        let mut built = Vec::new();
        begin_frame(&mut built);
        built.extend_from_slice(b"abc");
        end_frame(&mut built, TAG_MSG);
        assert_eq!(streamed, built);
    }

    #[test]
    fn zero_and_oversized_lengths_rejected() {
        let mut scratch = Vec::new();
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut Cursor::new(zero), &mut scratch).is_err());
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut Cursor::new(huge), &mut scratch).is_err());
    }

    #[test]
    fn poisoned_length_prefix_is_rejected_before_allocation() {
        // A corrupted/hostile length word (e.g. ASCII noise or 0xFFFFFFFF
        // from a misframed stream) must produce a decode error without the
        // scratch buffer ever growing toward the bogus size.
        for poison in [u32::MAX, 0x7FFF_FFFF, 0x2020_2020, MAX_FRAME as u32 + 1] {
            let mut wire = poison.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0u8; 64]); // some trailing garbage
            let mut scratch = Vec::new();
            let err = read_frame(&mut Cursor::new(wire), &mut scratch)
                .expect_err("poisoned length must be rejected");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{poison:#x}");
            assert!(
                scratch.capacity() <= MAX_FRAME,
                "scratch grew to {} for poisoned length {poison:#x}",
                scratch.capacity()
            );
        }
        // The cap itself is still a valid length.
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_MSG, &vec![7u8; MAX_FRAME - 1]).unwrap();
        let mut scratch = Vec::new();
        assert_eq!(read_frame(&mut Cursor::new(wire), &mut scratch).unwrap(), TAG_MSG);
        assert_eq!(scratch.len(), MAX_FRAME);
    }

    #[test]
    fn rdata_and_rack_payloads_roundtrip() {
        let mut buf = Vec::new();
        begin_frame(&mut buf);
        buf.extend_from_slice(&42u64.to_le_bytes());
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(b"payload");
        end_frame(&mut buf, TAG_RDATA);
        let mut scratch = Vec::new();
        let tag = read_frame(&mut Cursor::new(&buf), &mut scratch).unwrap();
        assert_eq!(tag, TAG_RDATA);
        let (seq, ack, body) = split_rdata(&scratch[1..]).unwrap();
        assert_eq!((seq, ack), (42, 7));
        assert_eq!(body, b"payload");
        assert!(split_rdata(&scratch[1..9]).is_err(), "short rdata rejected");

        let mut ackf = Vec::new();
        write_frame(&mut ackf, TAG_RACK, &9u64.to_le_bytes()).unwrap();
        let tag = read_frame(&mut Cursor::new(&ackf), &mut scratch).unwrap();
        assert_eq!(tag, TAG_RACK);
        assert_eq!(split_rack(&scratch[1..]).unwrap(), 9);
        assert!(split_rack(b"short").is_err());
    }

    #[test]
    fn framebuf_decodes_across_arbitrary_chunk_boundaries() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_MSG, b"hello").unwrap();
        write_frame(&mut wire, TAG_RACK, &9u64.to_le_bytes()).unwrap();
        write_frame(&mut wire, TAG_DONE, b"").unwrap();
        // Feed one byte at a time — the worst possible dribble.
        let mut fb = FrameBuf::new();
        let mut scratch = Vec::new();
        let mut got = Vec::new();
        for b in &wire {
            let mut one = Cursor::new(std::slice::from_ref(b));
            assert_eq!(fb.read_from(&mut one).unwrap(), 1);
            while let Some(tag) = fb.next_frame_into(&mut scratch).unwrap() {
                got.push((tag, scratch[1..].to_vec()));
            }
        }
        assert_eq!(
            got,
            vec![
                (TAG_MSG, b"hello".to_vec()),
                (TAG_RACK, 9u64.to_le_bytes().to_vec()),
                (TAG_DONE, vec![]),
            ]
        );
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn framebuf_decodes_many_frames_from_one_read() {
        let mut wire = Vec::new();
        for i in 0..10u8 {
            write_frame(&mut wire, TAG_MSG, &[i; 3]).unwrap();
        }
        let mut fb = FrameBuf::new();
        let mut r = Cursor::new(&wire);
        assert_eq!(fb.read_from(&mut r).unwrap(), wire.len());
        let mut scratch = Vec::new();
        for i in 0..10u8 {
            assert_eq!(fb.next_frame_into(&mut scratch).unwrap(), Some(TAG_MSG));
            assert_eq!(&scratch[1..], &[i; 3]);
        }
        assert_eq!(fb.next_frame_into(&mut scratch).unwrap(), None);
    }

    #[test]
    fn framebuf_rejects_poisoned_length_before_waiting_for_payload() {
        for poison in [0u32, u32::MAX, MAX_FRAME as u32 + 1] {
            let mut fb = FrameBuf::new();
            let bytes = poison.to_le_bytes();
            fb.read_from(&mut Cursor::new(&bytes)).unwrap();
            let mut scratch = Vec::new();
            let err = fb
                .next_frame_into(&mut scratch)
                .expect_err("poisoned length must fail immediately");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{poison:#x}");
        }
    }

    #[test]
    fn framebuf_releases_burst_storage_after_drain() {
        // A consumer that stalls while 4 MiB of frames pile up must not
        // pin that high-water allocation forever: once the backlog
        // drains, the next read cycle returns the burst storage.  This
        // fails without the RETAIN_LIMIT shrink in `compact` — the
        // high-water `buf` was never reduced.
        let mut frame = Vec::new();
        write_frame(&mut frame, TAG_MSG, &vec![7u8; MAX_FRAME - 1]).unwrap();
        let mut wire = Vec::new();
        for _ in 0..64 {
            wire.extend_from_slice(&frame);
        }
        let mut fb = FrameBuf::new();
        let mut r = Cursor::new(&wire);
        // Stalled consumer: read everything without decoding a frame.
        while fb.read_from(&mut r).unwrap() > 0 {}
        assert!(
            fb.capacity() >= wire.len(),
            "burst did not reach the buffer: {} < {}",
            fb.capacity(),
            wire.len()
        );
        // Consumer catches up, then the connection keeps running.
        let mut scratch = Vec::new();
        while fb.next_frame_into(&mut scratch).unwrap().is_some() {}
        assert_eq!(fb.pending(), 0);
        let mut tail = Cursor::new(&frame);
        while fb.read_from(&mut tail).unwrap() > 0 {
            while fb.next_frame_into(&mut scratch).unwrap().is_some() {}
        }
        assert!(
            fb.capacity() <= RETAIN_LIMIT + READ_CHUNK,
            "burst storage retained after drain: {} > {}",
            fb.capacity(),
            RETAIN_LIMIT + READ_CHUNK
        );
    }

    #[test]
    fn writebuf_slow_peer_stays_bounded() {
        // A peer that accepts exactly what we produce but never fully
        // drains the queue (one frame always parked).  The cursor-only
        // scheme this replaces grew the buffer by 64 bytes per cycle —
        // ~6 MiB over this loop, unbounded over a connection's lifetime.
        let mut wb = WriteBuf::new();
        let frame = [0xABu8; 64];
        wb.queue(&frame); // one frame permanently in flight
        for _ in 0..100_000 {
            wb.queue(&frame);
            wb.consume(frame.len()); // kernel accepts one frame per pass
            assert_eq!(wb.pending(), frame.len());
        }
        assert!(!wb.is_empty(), "the peer was never supposed to catch up");
        // The live backlog is one frame; the resident allocation may
        // reach the compaction threshold plus `Vec`'s amortized-doubling
        // slack, but no more — and crucially it stops growing there.
        assert!(
            wb.capacity() <= 2 * (COMPACT_THRESHOLD + 16 * frame.len()),
            "consumed prefix never reclaimed: {} bytes resident",
            wb.capacity()
        );
        // Full drain resets and releases.
        let owed = wb.pending();
        wb.consume(owed);
        assert!(wb.is_empty());
        assert_eq!(wb.pending(), 0);
    }

    #[test]
    fn writebuf_consume_queue_interleave_preserves_bytes() {
        // The compaction must be invisible to the byte stream: whatever
        // interleaving of queue/consume happens, the bytes coming out of
        // `unwritten` are exactly the bytes queued, in order.
        let mut wb = WriteBuf::new();
        let mut expect = std::collections::VecDeque::new();
        let mut x = 1u64;
        for step in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let chunk: Vec<u8> = (0..(x % 97) as u8).map(|i| i ^ step as u8).collect();
            wb.queue(&chunk);
            expect.extend(chunk.iter().copied());
            let take = ((x >> 32) as usize % 128).min(wb.pending());
            let got: Vec<u8> = wb.unwritten()[..take].to_vec();
            for b in got {
                assert_eq!(Some(b), expect.pop_front(), "byte stream corrupted");
            }
            wb.consume(take);
        }
        assert_eq!(wb.pending(), expect.len());
    }
}

//! The per-resource token (paper §4.2, annex A figure 8, `Type Token`).
//!
//! Exactly one token exists per resource (lemmas 1–3 of the proof annex).
//! It carries:
//!
//! * the resource **counter** — the only mutable copy; holders reserve
//!   values for requests by reading and incrementing it;
//! * `lastReqC` / `lastCS` — per-site timestamps used to discard obsolete
//!   request messages (a request can reach the holder multiple times via
//!   the pending-history replay mechanism);
//! * `wQueue` — the waiting queue of `ReqRes`, kept sorted by the total
//!   order `/` (this is what makes the scheduling *dynamic*: a
//!   higher-priority request overtakes);
//! * `wLoan` — pending loan requests, same order;
//! * `lender` — when the token travels as a loan, the owner it must return
//!   to.
//!
//! Being unique, a token moves rather than being copied: it lives in one
//! box from the first time it leaves its elected site, the message carries
//! that box, and the site it left keeps only the counter and stamps at
//! departure, which is all it reads of `lastTok[r]` (`lass::store`).

use crate::messages::{LoanReq, Request, ResReq};
use crate::policy::order_key;
use mra_protocol::wire::{put_u32, put_u64, put_usize, DecodeError, WireReader};
use mra_types::{NodeId, RequestId, ResourceId};

/// Index of `lastReqC` in [`Stamps::ids`] and [`Token::nonzero`].
const REQ_C: usize = 0;
/// Index of `lastCS` in [`Stamps::ids`] and [`Token::nonzero`].
const CS: usize = 1;

/// One site's row of the stamp table: `lastReqC[site]` and `lastCS[site]`,
/// 12 bytes.  A site is 32-bit everywhere (`Lass::new`), and so is a
/// stamped request id: `Lass::request` asserts it of its own ids, and the
/// decoder refuses a larger one in a `ReqCnt` or a stamp list.  Reads widen
/// the id back to a [`RequestId`]; the wire carries it as `u64`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Stamps {
    site: u32,
    ids: [u32; 2],
}

/// A site or request id as a stamp row keeps it.  Checked: an id that
/// does not fit must not alias a smaller one.
fn stamp32(v: u64, what: &str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("{what} {v} does not fit a 32-bit stamp"))
}

/// Rows a token keeps without a heap block.  At 10 000 sites most tokens
/// are stamped by one or two of them.
const INLINE_ROWS: usize = 2;

/// A token's stamp rows, sorted by site: inline while there are at most
/// [`INLINE_ROWS`], a heap vector past that.  The count alone decides the
/// form, in both directions, so whatever path built a table it is one
/// value; everything reads it as one slice.
#[derive(Clone)]
enum Rows {
    Inline { len: u8, rows: [Stamps; INLINE_ROWS] },
    Heap(Vec<Stamps>),
}

impl Rows {
    const EMPTY: Rows = Rows::Inline {
        len: 0,
        rows: [Stamps { site: 0, ids: [0; 2] }; INLINE_ROWS],
    };

    fn from_slice(rows: &[Stamps]) -> Rows {
        let mut out = Rows::EMPTY;
        out.resize(rows.len());
        out.as_mut_slice().copy_from_slice(rows);
        out
    }

    #[inline]
    fn as_slice(&self) -> &[Stamps] {
        match self {
            Rows::Inline { len, rows } => &rows[..usize::from(*len)],
            Rows::Heap(rows) => rows,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [Stamps] {
        match self {
            Rows::Inline { len, rows } => &mut rows[..usize::from(*len)],
            Rows::Heap(rows) => rows,
        }
    }

    /// Cut to `len` rows, or grow with empty ones, in the form `len` calls
    /// for.
    fn resize(&mut self, len: usize) {
        match self {
            Rows::Inline { len: n, rows } if len <= INLINE_ROWS => {
                let n = std::mem::replace(n, len as u8);
                rows[usize::from(n).min(len)..len].fill(Stamps::default());
            }
            Rows::Inline { len: n, rows } => {
                // At least four rows: what `Vec` itself first reserves for
                // elements of this size.
                let mut heap = Vec::with_capacity(len.max(4));
                heap.extend_from_slice(&rows[..usize::from(*n)]);
                heap.resize(len, Stamps::default());
                *self = Rows::Heap(heap);
            }
            Rows::Heap(heap) if len > INLINE_ROWS => heap.resize(len, Stamps::default()),
            Rows::Heap(heap) => {
                let mut rows = [Stamps::default(); INLINE_ROWS];
                rows[..len].copy_from_slice(&heap[..len]);
                *self = Rows::Inline { len: len as u8, rows };
            }
        }
    }

    fn insert(&mut self, i: usize, row: Stamps) {
        let len = self.as_slice().len();
        self.resize(len + 1);
        let rows = self.as_mut_slice();
        rows.copy_within(i..len, i + 1);
        rows[i] = row;
    }

    fn remove(&mut self, i: usize) {
        let rows = self.as_mut_slice();
        let len = rows.len();
        rows.copy_within(i + 1.., i);
        self.resize(len - 1);
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// The unique token of one resource.
///
/// `lastReqC` and `lastCS` live in one sparse table: a row per site with
/// either stamp nonzero, sorted by site.  A fresh stamp is 0 for every
/// site, so a fresh token costs O(1) memory regardless of `n` — the
/// property that lets a 10k-node system hold 100k tokens.  The two maps
/// cover nearly the same sites once a run warms up, so one table is one
/// search per obsolete test and one slice for a departing holder to keep
/// instead of two.  Up to two rows live in the token itself and more on
/// the heap: on the 10 000-site shape 46 103 of 49 370 held tokens have at
/// most two, so they keep no stamp block at all.
#[derive(Clone, Debug)]
pub struct Token {
    /// The resource this token controls.
    pub r: ResourceId,
    /// Next counter value to hand out (starts at 1; 0 means "not required"
    /// in request vectors).
    pub counter: u64,
    /// `lastReqC[s]` — id of the last counter request from site `s`
    /// answered by a holder — and `lastCS[s]` — id of the last
    /// critical-section request of site `s` that has been satisfied
    /// (updated by `s` itself at release time).
    stamps: Rows,
    /// Nonzero `lastReqC` and `lastCS` entries in `stamps`: the lengths of
    /// the two stamp lists on the wire.
    nonzero: [usize; 2],
    /// Pending resource requests, sorted by `/` (mark, then site id).
    pub w_queue: Vec<ResReq>,
    /// Pending loan requests, sorted by `/`.
    pub w_loan: Vec<LoanReq>,
    /// When the token is lent, the owner to return it to.
    pub lender: Option<NodeId>,
}

/// Where site `s`'s row of `rows` is (`Ok`) or would go (`Err`).  Once
/// every site has a stamp — the paper's shape soon after warm-up — row `s`
/// is site `s`, so that slot is tried before the search.
#[inline]
fn find(rows: &[Stamps], s: u32) -> Result<usize, usize> {
    match rows.get(s as usize) {
        Some(row) if row.site == s => Ok(s as usize),
        _ => rows.binary_search_by_key(&s, |row| row.site),
    }
}

/// Site `s`'s two stamps in `rows` (both 0 if it has no row, as for a
/// site past 32 bits, which none can have).
#[inline]
fn ids(rows: &[Stamps], s: NodeId) -> [RequestId; 2] {
    match u32::try_from(s).map(|s| find(rows, s)) {
        Ok(Ok(i)) => rows[i].ids.map(RequestId::from),
        _ => [0; 2],
    }
}

/// [`Token::obsolete`] against the stamp table `rows` — a token's, or the
/// one its last holder kept.
pub(crate) fn obsolete(rows: &[Stamps], req: &Request) -> bool {
    let [req_c, cs] = ids(rows, req.sinit());
    let id = req.id();
    match req {
        Request::Cnt { single: false, .. } => id <= req_c,
        Request::Cnt { single: true, .. } => id <= req_c || id <= cs,
        Request::Res(_) | Request::Loan(_) => id <= cs,
    }
}

/// Wire bytes of one `(site, id)` stamp: the least a stamp list's length
/// prefix may claim per entry.
const STAMP_BYTES: usize = 4 + 8;
/// What a decoded stamp list is and must keep ([`DecodeError::Invalid`]).
const REQ_C_RULE: &str = "Token.lastReqC (sites strictly increasing, ids in 1..2^32)";
const CS_RULE: &str = "Token.lastCS (sites strictly increasing, ids in 1..2^32)";

/// Read one `(site, id)` stamp of a list, which must be strictly sorted by
/// site (`after` is the previous site) and carry a nonzero id below 2^32:
/// the invariants of the table the list is decoded into.  (A site is a
/// `u32` on the wire, so it always fits its row.)
fn get_stamp(
    r: &mut WireReader<'_>,
    after: Option<u32>,
    what: &'static str,
) -> Result<(u32, u32), DecodeError> {
    let site = r.get_u32(what)?;
    let id = u32::try_from(r.get_u64(what)?).unwrap_or(0);
    if id == 0 || after.is_some_and(|prev| site <= prev) {
        return Err(DecodeError::Invalid { what });
    }
    Ok((site, id))
}

/// Read a stamp list's length prefix and check every pair it claims,
/// leaving them unread.  The prefix is bounded by the frame at
/// [`STAMP_BYTES`] a pair, but a row takes twice that, so the table grows
/// for a list only once all its pairs are valid.
fn get_stamp_count(
    r: &mut WireReader<'_>,
    what: &'static str,
    rule: &'static str,
) -> Result<usize, DecodeError> {
    let len = r.get_len(STAMP_BYTES, what)?;
    let mut ahead = r.clone();
    let mut after = None;
    for _ in 0..len {
        after = Some(get_stamp(&mut ahead, after, rule)?.0);
    }
    Ok(len)
}

impl Token {
    /// Fresh token for resource `r`.  All timestamps start at 0, so the
    /// stamp table starts empty whatever the system size.
    pub fn new(r: ResourceId) -> Self {
        Token {
            r,
            counter: 1,
            stamps: Rows::EMPTY,
            nonzero: [0; 2],
            w_queue: Vec::new(),
            w_loan: Vec::new(),
            lender: None,
        }
    }

    /// The token of resource `r` as a site that sent it knows it: `counter`
    /// and the stamp `rows` it left with, empty queues (diagnostics).
    pub(crate) fn with_stamps(r: ResourceId, counter: u64, rows: &[Stamps]) -> Token {
        let nonzero = [REQ_C, CS].map(|k| rows.iter().filter(|row| row.ids[k] != 0).count());
        Token { counter, stamps: Rows::from_slice(rows), nonzero, ..Token::new(r) }
    }

    /// The stamp rows, sorted by site.
    pub(crate) fn stamp_rows(&self) -> &[Stamps] {
        self.stamps.as_slice()
    }

    /// Record stamp `k` of site `s`: a row appears with its first nonzero
    /// stamp and goes with its last.  Panics if `s` or `id` does not fit
    /// 32 bits.
    fn set_stamp(&mut self, s: NodeId, k: usize, id: RequestId) {
        let (s, id) = (stamp32(s as u64, "site"), stamp32(id, "stamped request id"));
        let old = match find(self.stamps.as_slice(), s) {
            Ok(i) => {
                let row = &mut self.stamps.as_mut_slice()[i];
                let old = std::mem::replace(&mut row.ids[k], id);
                if row.ids == [0; 2] {
                    self.stamps.remove(i);
                }
                old
            }
            Err(i) => {
                if id != 0 {
                    let mut row = Stamps { site: s, ids: [0; 2] };
                    row.ids[k] = id;
                    self.stamps.insert(i, row);
                }
                0
            }
        };
        self.nonzero[k] = self.nonzero[k] + usize::from(id != 0) - usize::from(old != 0);
    }

    /// `lastReqC[s]` (0 if never answered).
    #[inline]
    pub fn last_req_c(&self, s: NodeId) -> RequestId {
        ids(self.stamps.as_slice(), s)[REQ_C]
    }

    /// Record `lastReqC[s] = id`.
    pub fn set_last_req_c(&mut self, s: NodeId, id: RequestId) {
        self.set_stamp(s, REQ_C, id);
    }

    /// `lastCS[s]` (0 if site `s` has never completed a CS on `r`).
    #[inline]
    pub fn last_cs(&self, s: NodeId) -> RequestId {
        ids(self.stamps.as_slice(), s)[CS]
    }

    /// Record `lastCS[s] = id`.
    pub fn set_last_cs(&mut self, s: NodeId, id: RequestId) {
        self.set_stamp(s, CS, id);
    }

    /// Write the two stamp lists of the wire format (`lastReqC`, then
    /// `lastCS`: each a count and its `(site, id)` pairs in site order)
    /// straight from the rows.
    pub(crate) fn encode_stamps(&self, out: &mut Vec<u8>) {
        for k in [REQ_C, CS] {
            put_usize(out, self.nonzero[k]);
            for row in self.stamps.as_slice().iter().filter(|row| row.ids[k] != 0) {
                put_u32(out, row.site);
                put_u64(out, u64::from(row.ids[k]));
            }
        }
    }

    /// Read the two stamp lists [`Token::encode_stamps`] writes into this
    /// token's empty table.  The `lastReqC` pairs become rows as they
    /// come; the table is then shifted right by the `lastCS` count and the
    /// `lastCS` pairs merge in from the front, so the write position never
    /// passes an unread row and no temporary list is built.  Each list is
    /// checked before the table grows for it.
    pub(crate) fn decode_stamps(&mut self, r: &mut WireReader<'_>) -> Result<(), DecodeError> {
        debug_assert!(self.stamps.as_slice().is_empty(), "stamps decode into an empty table");
        let n = get_stamp_count(r, "Token.lastReqC", REQ_C_RULE)?;
        self.stamps.resize(n);
        let mut after = None;
        for row in self.stamps.as_mut_slice() {
            let (site, id) = get_stamp(r, after, REQ_C_RULE)?;
            *row = Stamps { site, ids: [id, 0] };
            after = Some(site);
        }
        let m = get_stamp_count(r, "Token.lastCS", CS_RULE)?;
        self.stamps.resize(n + m);
        let rows = self.stamps.as_mut_slice();
        rows.copy_within(0..n, m);
        // Rows `i..` are unread `lastReqC` rows; `..w` is the merged table.
        let (mut w, mut i) = (0, m);
        let mut after = None;
        for _ in 0..m {
            let (site, id) = get_stamp(r, after, CS_RULE)?;
            after = Some(site);
            while i < n + m && rows[i].site < site {
                rows[w] = rows[i];
                (w, i) = (w + 1, i + 1);
            }
            let mut row = Stamps { site, ids: [0, id] };
            if i < n + m && rows[i].site == site {
                row.ids[REQ_C] = rows[i].ids[REQ_C];
                i += 1;
            }
            rows[w] = row;
            w += 1;
        }
        rows.copy_within(i.., w);
        self.stamps.resize(w + (n + m - i));
        self.nonzero = [n, m];
        Ok(())
    }

    /// Reserve the current counter value (and advance the counter).  Only
    /// the token holder may call this — exclusivity of the counter is
    /// exactly what the token guarantees.
    #[inline]
    pub fn take_counter(&mut self) -> u64 {
        let v = self.counter;
        self.counter += 1;
        v
    }

    /// Is `req` obsolete with respect to this token's timestamps?
    ///
    /// * A counter request is obsolete once a holder has answered a counter
    ///   request with the same or a later id (`id ≤ lastReqC[sinit]`).
    /// * A resource/loan request is obsolete once the requester's CS with
    ///   the same or a later id has completed (`id ≤ lastCS[sinit]`).
    /// * A single-resource `ReqCnt` acts as both, so either condition
    ///   retires it.
    pub fn obsolete(&self, req: &Request) -> bool {
        obsolete(self.stamps.as_slice(), req)
    }

    /// Has site `s` completed its critical section `id` (or a later one)?
    /// The rule that retires resource and loan requests.
    pub(crate) fn cs_done(&self, s: NodeId, id: RequestId) -> bool {
        id <= self.last_cs(s)
    }

    /// Does the queue already contain this exact request?
    pub fn queue_contains(&self, sinit: NodeId, id: RequestId) -> bool {
        self.w_queue.iter().any(|q| q.sinit == sinit && q.id == id)
    }

    /// Insert a resource request in `/` order; duplicates (same site & id)
    /// are ignored.  Returns true if inserted.
    pub fn enqueue_res(&mut self, req: ResReq) -> bool {
        if self.queue_contains(req.sinit, req.id) {
            return false;
        }
        let key = order_key(req.mark, req.sinit);
        let pos = self
            .w_queue
            .partition_point(|q| order_key(q.mark, q.sinit) <= key);
        self.w_queue.insert(pos, req);
        true
    }

    /// Highest-priority pending resource request, if any.
    pub fn head(&self) -> Option<&ResReq> {
        self.w_queue.first()
    }

    /// Pop the highest-priority pending resource request.
    pub fn dequeue(&mut self) -> Option<ResReq> {
        if self.w_queue.is_empty() {
            None
        } else {
            Some(self.w_queue.remove(0))
        }
    }

    /// Remove every queued resource request from site `s` (used when a loan
    /// or a release satisfies that site out of band).
    pub fn remove_site(&mut self, s: NodeId) {
        self.w_queue.retain(|q| q.sinit != s);
    }

    /// Insert a loan request in `/` order; duplicates ignored.  Returns true
    /// if inserted.
    pub fn enqueue_loan(&mut self, req: LoanReq) -> bool {
        if self
            .w_loan
            .iter()
            .any(|q| q.sinit == req.sinit && q.id == req.id)
        {
            return false;
        }
        let key = order_key(req.mark, req.sinit);
        let pos = self
            .w_loan
            .partition_point(|q| order_key(q.mark, q.sinit) <= key);
        self.w_loan.insert(pos, req);
        true
    }

    /// Does the token carry work for its holder: a queued resource or loan
    /// request, or a lender to go back to?  A site keeps every owned token
    /// that does on its work list.
    pub(crate) fn has_work(&self) -> bool {
        !self.w_queue.is_empty() || !self.w_loan.is_empty() || self.lender.is_some()
    }

    /// Approximate message size in integer units (metrics only).  Counts
    /// the stamps actually carried on the wire: only nonzero ones ship.
    pub fn weight(&self) -> usize {
        2 + 2 * (self.nonzero[REQ_C] + self.nonzero[CS])
            + 5 * self.w_queue.len()
            + 9 * self.w_loan.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_types::ResourceSet;

    fn res(r: ResourceId, s: NodeId, id: RequestId, mark: f64) -> ResReq {
        ResReq { r, sinit: s, id, mark }
    }

    fn row(site: u32, req_c: u32, cs: u32) -> Stamps {
        Stamps { site, ids: [req_c, cs] }
    }

    #[test]
    fn counter_hands_out_unique_increasing_values() {
        let mut t = Token::new(0);
        assert_eq!(t.take_counter(), 1);
        assert_eq!(t.take_counter(), 2);
        assert_eq!(t.take_counter(), 3);
        assert_eq!(t.counter, 4);
    }

    #[test]
    fn queue_is_priority_ordered() {
        let mut t = Token::new(0);
        assert!(t.enqueue_res(res(0, 2, 1, 5.0)));
        assert!(t.enqueue_res(res(0, 1, 1, 3.0)));
        assert!(t.enqueue_res(res(0, 3, 1, 5.0))); // tie on mark: site order
        assert!(t.enqueue_res(res(0, 0, 1, 9.0)));
        let order: Vec<NodeId> = t.w_queue.iter().map(|q| q.sinit).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert_eq!(t.head().unwrap().sinit, 1);
        assert_eq!(t.dequeue().unwrap().sinit, 1);
        assert_eq!(t.head().unwrap().sinit, 2);
    }

    #[test]
    fn queue_deduplicates_by_site_and_id() {
        let mut t = Token::new(0);
        assert!(t.enqueue_res(res(0, 2, 1, 5.0)));
        assert!(!t.enqueue_res(res(0, 2, 1, 5.0)));
        assert!(t.enqueue_res(res(0, 2, 2, 6.0))); // new request id: distinct
        assert_eq!(t.w_queue.len(), 2);
        t.remove_site(2);
        assert!(t.w_queue.is_empty());
    }

    #[test]
    fn obsolete_rules() {
        let mut t = Token::new(0);
        t.set_last_req_c(1, 5);
        t.set_last_cs(1, 3);
        let cnt_old = Request::Cnt { r: 0, sinit: 1, id: 5, single: false };
        let cnt_new = Request::Cnt { r: 0, sinit: 1, id: 6, single: false };
        assert!(t.obsolete(&cnt_old));
        assert!(!t.obsolete(&cnt_new));
        let res_old = Request::Res(res(0, 1, 3, 1.0));
        let res_new = Request::Res(res(0, 1, 4, 1.0));
        assert!(t.obsolete(&res_old));
        assert!(!t.obsolete(&res_new));
        // single-resource Cnt retires on either timestamp
        let single_by_cnt = Request::Cnt { r: 0, sinit: 1, id: 5, single: true };
        let single_by_cs = Request::Cnt { r: 0, sinit: 1, id: 2, single: true };
        let single_live = Request::Cnt { r: 0, sinit: 1, id: 6, single: true };
        assert!(t.obsolete(&single_by_cnt));
        assert!(t.obsolete(&single_by_cs));
        assert!(!t.obsolete(&single_live));
    }

    #[test]
    fn loan_queue_ordered_and_deduplicated() {
        let mut t = Token::new(1);
        let l = |s: NodeId, id: RequestId, mark: f64| LoanReq {
            r: 1,
            sinit: s,
            id,
            mark,
            missing: ResourceSet::singleton(1),
        };
        assert!(t.enqueue_loan(l(3, 1, 2.0)));
        assert!(t.enqueue_loan(l(1, 1, 1.0)));
        assert!(!t.enqueue_loan(l(3, 1, 2.0)));
        assert_eq!(t.w_loan[0].sinit, 1);
        assert_eq!(t.w_loan[1].sinit, 3);
    }

    #[test]
    fn weight_grows_with_queue() {
        let mut t = Token::new(0);
        let w0 = t.weight();
        t.enqueue_res(res(0, 1, 1, 1.0));
        assert!(t.weight() > w0);
    }

    #[test]
    fn sparse_stamps_default_to_zero_and_drop_zero_writes() {
        let mut t = Token::new(0);
        assert_eq!(t.last_req_c(12_345), 0);
        assert_eq!(t.last_cs(0), 0);
        assert_eq!(t.weight(), 2, "fresh token carries no stamps");
        t.set_last_req_c(7, 4);
        t.set_last_req_c(3, 9);
        t.set_last_cs(7, 2);
        assert_eq!(t.last_req_c(7), 4);
        assert_eq!(t.last_req_c(3), 9);
        assert_eq!(t.last_cs(7), 2);
        assert_eq!(t.weight(), 2 + 2 * 3);
        // Overwrite keeps one entry; a zero write removes it.
        t.set_last_req_c(7, 5);
        assert_eq!(t.last_req_c(7), 5);
        t.set_last_req_c(7, 0);
        assert_eq!(t.last_req_c(7), 0);
        assert_eq!(t.weight(), 2 + 2 * 2);
        // Rows stay sorted by site whatever the insertion order, and a row
        // lives while either of its stamps is nonzero.
        assert_eq!(t.stamps.as_slice(), [row(3, 9, 0), row(7, 0, 2)]);
        t.set_last_cs(7, 0);
        assert_eq!((t.stamps.as_slice(), t.weight()), ([row(3, 9, 0)].as_slice(), 2 + 2));
    }

    /// A stamp row holds 32-bit ids: `u32::MAX` reads back whole, and an
    /// id past it is refused rather than cut to another id.
    #[test]
    fn stamps_hold_32_bit_ids_and_refuse_larger_ones() {
        let mut t = Token::new(0);
        let max = RequestId::from(u32::MAX);
        t.set_last_req_c(7, max);
        t.set_last_cs(7, max - 1);
        assert_eq!((t.last_req_c(7), t.last_cs(7)), (max, max - 1));
        let retired = Request::Cnt { r: 0, sinit: 7, id: max, single: false };
        assert!(t.obsolete(&retired));
        let res = Request::Res(ResReq { r: 0, sinit: 7, id: max + 1, mark: 1.0 });
        assert!(!t.obsolete(&res), "an id past the stamp is live");
        let refused = std::panic::catch_unwind(move || t.set_last_cs(7, max + 1));
        assert!(refused.is_err());
    }

    #[test]
    fn stamp_slot_shortcut_agrees_with_the_search() {
        let mut t = Token::new(0);
        // Every site stamped: pair `s` is site `s` (the shortcut's case).
        for s in 0..6 {
            t.set_last_cs(s, 10 + s as RequestId);
        }
        assert!((0..6).all(|s| t.last_cs(s) == 10 + s as RequestId));
        // A gap shifts later sites off their slot: slot 2 now holds site 3,
        // so sites 3.. and the gap itself fall back to the search.
        t.set_last_cs(2, 0);
        let sites: Vec<u32> = t.stamps.as_slice().iter().map(|row| row.site).collect();
        assert_eq!(sites, [0, 1, 3, 4, 5]);
        assert_eq!((t.last_cs(2), t.last_cs(3), t.last_cs(5)), (0, 13, 15));
        t.set_last_cs(4, 40);
        t.set_last_cs(2, 20);
        let cs: Vec<u32> = t.stamps.as_slice().iter().map(|row| row.ids[CS]).collect();
        assert_eq!(cs, [10, 11, 20, 13, 40, 15]);
        assert_eq!(t.last_cs(6), 0);
    }

    /// Two rows stay in the token, a third moves them all to the heap, and
    /// zeroing rows back out brings them home: in either form the rows are
    /// sorted by site, and a lookup through the slot shortcut (site `s` in
    /// slot `s`) answers what the search answers.
    #[test]
    fn stamp_rows_cross_the_inline_boundary_both_ways() {
        let inline = |t: &Token| matches!(t.stamps, Rows::Inline { .. });
        let agree = |t: &Token| {
            let rows = t.stamps.as_slice();
            assert!(rows.windows(2).all(|p| p[0].site < p[1].site), "unsorted {rows:?}");
            for s in 0..8 {
                let searched = rows.binary_search_by_key(&s, |row| row.site).map_or([0; 2], |i| rows[i].ids);
                let searched = searched.map(RequestId::from);
                assert_eq!(ids(rows, s as NodeId), searched, "site {s}");
            }
        };
        let mut t = Token::new(0);
        // Sites 1 and 0 fill the inline rows, in reverse order: each sits in
        // its own slot.
        t.set_last_cs(1, 11);
        t.set_last_req_c(0, 10);
        assert!(inline(&t));
        assert_eq!(t.stamps.as_slice(), [row(0, 10, 0), row(1, 0, 11)]);
        agree(&t);
        // A third row moves the table to the heap; a fourth lands between.
        t.set_last_cs(5, 55);
        t.set_last_req_c(2, 22);
        assert!(!inline(&t));
        assert_eq!(
            t.stamps.as_slice(),
            [row(0, 10, 0), row(1, 0, 11), row(2, 22, 0), row(5, 0, 55)]
        );
        agree(&t);
        // Zero rows out from the front: at two rows the table is inline
        // again, still sorted.
        t.set_last_req_c(0, 0);
        t.set_last_cs(1, 0);
        assert!(inline(&t));
        assert_eq!(t.stamps.as_slice(), [row(2, 22, 0), row(5, 0, 55)]);
        agree(&t);
        assert_eq!((t.last_req_c(2), t.last_cs(5), t.last_cs(0)), (22, 55, 0));
        assert_eq!(t.weight(), 2 + 2 * 2);
        t.set_last_cs(5, 0);
        t.set_last_req_c(2, 0);
        assert!(inline(&t) && t.stamps.as_slice().is_empty());
        assert_eq!(t.weight(), 2);
    }
}

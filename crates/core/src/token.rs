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

use crate::messages::{LoanReq, Request, ResReq};
use crate::policy::order_key;
use mra_types::{NodeId, RequestId, ResourceId};

/// The unique token of one resource.
///
/// The `lastReqC`/`lastCS` timestamp maps are stored sparsely: only sites
/// with a nonzero stamp appear, sorted by site id.  A fresh stamp is 0 for
/// every site, so a fresh token costs O(1) memory regardless of `n` — the
/// property that lets a 10k-node system hold 100k tokens.
#[derive(Debug)]
pub struct Token {
    /// The resource this token controls.
    pub r: ResourceId,
    /// Next counter value to hand out (starts at 1; 0 means "not required"
    /// in request vectors).
    pub counter: u64,
    /// `lastReqC[s]`: id of the last counter request from site `s` answered
    /// by a holder.  Sparse `(site, id)` pairs, sorted by site, nonzero ids
    /// only.
    pub(crate) last_req_c: Vec<(NodeId, RequestId)>,
    /// `lastCS[s]`: id of the last critical-section request of site `s`
    /// that has been satisfied (updated by `s` itself at release time).
    /// Same sparse representation as `last_req_c`.
    pub(crate) last_cs: Vec<(NodeId, RequestId)>,
    /// Pending resource requests, sorted by `/` (mark, then site id).
    pub w_queue: Vec<ResReq>,
    /// Pending loan requests, sorted by `/`.
    pub w_loan: Vec<LoanReq>,
    /// When the token is lent, the owner to return it to.
    pub lender: Option<NodeId>,
}

/// Field-wise on purpose: the derived `clone_from` is `*self = src.clone()`,
/// which frees and reallocates all four vectors.  This one refills them in
/// place, so snapshotting a token into a spare one (`Lass::send_token`)
/// costs no allocation once the spare's vectors are large enough.
impl Clone for Token {
    fn clone(&self) -> Self {
        Token {
            r: self.r,
            counter: self.counter,
            last_req_c: self.last_req_c.clone(),
            last_cs: self.last_cs.clone(),
            w_queue: self.w_queue.clone(),
            w_loan: self.w_loan.clone(),
            lender: self.lender,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.r = src.r;
        self.counter = src.counter;
        self.last_req_c.clone_from(&src.last_req_c);
        self.last_cs.clone_from(&src.last_cs);
        self.w_queue.clone_from(&src.w_queue);
        self.w_loan.clone_from(&src.w_loan);
        self.lender = src.lender;
    }
}

impl Token {
    /// Fresh token for resource `r`.  All timestamps start at 0, so the
    /// sparse maps start empty whatever the system size.
    pub fn new(r: ResourceId) -> Self {
        Token {
            r,
            counter: 1,
            last_req_c: Vec::new(),
            last_cs: Vec::new(),
            w_queue: Vec::new(),
            w_loan: Vec::new(),
            lender: None,
        }
    }

    /// Where site `s`'s pair is (`Ok`) or would go (`Err`).  Once every
    /// site has a stamp — the paper's shape soon after warm-up — pair `s`
    /// is site `s`, so that slot is tried before the search.
    #[inline]
    fn find(stamps: &[(NodeId, RequestId)], s: NodeId) -> Result<usize, usize> {
        match stamps.get(s) {
            Some(&(site, _)) if site == s => Ok(s),
            _ => stamps.binary_search_by_key(&s, |&(site, _)| site),
        }
    }

    fn stamp(stamps: &[(NodeId, RequestId)], s: NodeId) -> RequestId {
        match Self::find(stamps, s) {
            Ok(i) => stamps[i].1,
            Err(_) => 0,
        }
    }

    fn set_stamp(stamps: &mut Vec<(NodeId, RequestId)>, s: NodeId, id: RequestId) {
        match Self::find(stamps, s) {
            Ok(i) => {
                if id == 0 {
                    stamps.remove(i);
                } else {
                    stamps[i].1 = id;
                }
            }
            Err(i) => {
                if id != 0 {
                    stamps.insert(i, (s, id));
                }
            }
        }
    }

    /// `lastReqC[s]` (0 if never answered).
    #[inline]
    pub fn last_req_c(&self, s: NodeId) -> RequestId {
        Self::stamp(&self.last_req_c, s)
    }

    /// Record `lastReqC[s] = id`.
    pub fn set_last_req_c(&mut self, s: NodeId, id: RequestId) {
        Self::set_stamp(&mut self.last_req_c, s, id);
    }

    /// `lastCS[s]` (0 if site `s` has never completed a CS on `r`).
    #[inline]
    pub fn last_cs(&self, s: NodeId) -> RequestId {
        Self::stamp(&self.last_cs, s)
    }

    /// Record `lastCS[s] = id`.
    pub fn set_last_cs(&mut self, s: NodeId, id: RequestId) {
        Self::set_stamp(&mut self.last_cs, s, id);
    }

    /// Drop everything the token carries but keep the capacity of its stamp
    /// and queue vectors: what is left is only worth refilling with
    /// `clone_from`.  The loan queue goes entirely — a travelling token
    /// rarely has one, and a spare that once did would hand its 288 bytes
    /// to every snapshot made from it.
    pub(crate) fn clear(&mut self) {
        self.last_req_c.clear();
        self.last_cs.clear();
        self.w_queue.clear();
        self.w_loan = Vec::new();
        self.lender = None;
    }

    /// Has this token any buffer a `clone_from` into it would reuse?  A
    /// never-used token has none, and keeping it as a spare saves nothing.
    pub(crate) fn has_capacity(&self) -> bool {
        self.last_req_c.capacity() + self.last_cs.capacity() + self.w_queue.capacity() > 0
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
        let s = req.sinit();
        let id = req.id();
        match req {
            Request::Cnt { single: false, .. } => id <= self.last_req_c(s),
            Request::Cnt { single: true, .. } => id <= self.last_req_c(s) || self.cs_done(s, id),
            Request::Res(_) | Request::Loan(_) => self.cs_done(s, id),
        }
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

    /// Approximate message size in integer units (metrics only).  Counts
    /// the stamps actually carried on the wire: the sparse maps only ship
    /// nonzero entries.
    pub fn weight(&self) -> usize {
        2 + 2 * (self.last_req_c.len() + self.last_cs.len())
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
    fn clone_from_refills_a_cleared_token_in_place() {
        let mut src = Token::new(3);
        src.counter = 9;
        src.set_last_req_c(1, 4);
        src.set_last_cs(2, 5);
        src.enqueue_res(res(3, 1, 6, 2.0));
        src.lender = Some(2);
        let mut spare = src.clone();
        spare.enqueue_loan(LoanReq {
            r: 3,
            sinit: 4,
            id: 1,
            mark: 1.0,
            missing: ResourceSet::singleton(3),
        });
        spare.clear();
        assert_eq!(spare.weight(), 2, "a cleared token carries nothing");
        assert_eq!((spare.lender, spare.w_loan.capacity()), (None, 0));
        let buffers = (spare.last_req_c.as_ptr(), spare.last_cs.as_ptr(), spare.w_queue.as_ptr());
        spare.clone_from(&src);
        assert_eq!(format!("{spare:?}"), format!("{src:?}"));
        assert_eq!(
            (spare.last_req_c.as_ptr(), spare.last_cs.as_ptr(), spare.w_queue.as_ptr()),
            buffers,
            "clone_from must reuse the vectors it overwrites"
        );
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
        // Pairs stay sorted by site whatever the insertion order.
        assert_eq!(t.last_req_c, vec![(3, 9)]);
        assert_eq!(t.last_cs, vec![(7, 2)]);
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
        assert_eq!(t.last_cs, vec![(0, 10), (1, 11), (3, 13), (4, 14), (5, 15)]);
        assert_eq!((t.last_cs(2), t.last_cs(3), t.last_cs(5)), (0, 13, 15));
        t.set_last_cs(4, 40);
        t.set_last_cs(2, 20);
        assert_eq!(
            t.last_cs,
            vec![(0, 10), (1, 11), (2, 20), (3, 13), (4, 40), (5, 15)]
        );
        assert_eq!(t.last_cs(6), 0);
    }
}

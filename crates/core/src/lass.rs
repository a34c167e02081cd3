//! The LASS algorithm (paper §3–4, annex A).
//!
//! Named after its authors (Lejeune, Arantes, Sopena, Sens), LASS allocates
//! sets of resources with neither a priori knowledge of the conflict graph
//! nor a global lock:
//!
//! 1. **Counter phase** (`Idle → waitS`): the requester obtains, for every
//!    required resource, the current value of the resource's counter — read
//!    and incremented exclusively by the token holder.  The resulting vector
//!    identifies the request and, reduced by the scheduling function `A`,
//!    totally orders all requests (with site ids as tie-break), which rules
//!    out deadlock (annex B, theorem 2).
//! 2. **Collection phase** (`waitS → waitCS`): the requester sends a
//!    `ReqRes` per missing resource along the corresponding token tree.
//!    Holders yield tokens to higher-priority requests and queue the rest in
//!    the token's priority queue.
//! 3. **Loan phase** (optional): a process missing at most `threshold`
//!    resources may borrow them from a *single* process owning them all,
//!    provided the lender is not in CS, is not itself borrowing and has not
//!    lent already — restrictions that preserve both deadlock- and
//!    starvation-freedom (§3.4).
//!
//! Each resource's token tree is a simplified Mueller-style prioritized
//! structure: `tokDir` father pointers are rewired as requests and tokens
//! travel, forwarded requests carry a visited-node set to cut cycles, and
//! every forwarder keeps the request in a local pending history that is
//! replayed when the token reaches it (§4.2.1).
//!
//! Deviations from the paper's pseudo-code are marked `[deviation N]` and
//! catalogued in DESIGN.md §6.

use crate::messages::{CounterVal, LassMsg, LoanReq, Request, ResReq};
use crate::policy::{precedes, SchedulingPolicy};
use crate::token::{Seen, Token};
use mra_protocol::{Allocator, Ctx, ProcState};
use mra_types::{NodeId, NodeSet, RequestId, ResTable, ResourceId, ResourceSet};
use std::cell::Cell;

/// Static configuration of a LASS system (identical on every node).
#[derive(Clone, Copy, Debug)]
pub struct LassConfig {
    /// Number of sites.
    pub n: usize,
    /// Number of resources.
    pub m: usize,
    /// The site that initially holds every token.
    pub elected: NodeId,
    /// The scheduling function `A`.
    pub policy: SchedulingPolicy,
    /// Loan mechanism: `Some(threshold)` sends a loan request when at most
    /// `threshold` resources are missing (§4.5; the paper evaluates
    /// threshold = 1).  `None` disables loans ("without loan").
    pub loan: Option<usize>,
    /// §4.6.1: serve single-resource requests without the counter
    /// round-trip.
    pub opt_single_resource: bool,
    /// §4.6.2: stop forwarding a `ReqRes` that this node will overtake
    /// anyway (keeping it in the pending history).
    pub opt_stop_forwarding: bool,
    /// §4.6.2: re-point the father at the counter's sender (path
    /// shortcutting; annex A line 260).
    pub opt_shortcut_on_counter: bool,
}

impl LassConfig {
    /// Paper-default configuration: avg-of-non-null policy, all
    /// optimizations on, loan disabled ("without loan" variant).
    pub fn without_loan(n: usize, m: usize) -> Self {
        LassConfig {
            n,
            m,
            elected: 0,
            policy: SchedulingPolicy::AvgNonZero,
            loan: None,
            opt_single_resource: true,
            opt_stop_forwarding: true,
            opt_shortcut_on_counter: true,
        }
    }

    /// Paper-default "with loan" variant (threshold 1).
    pub fn with_loan(n: usize, m: usize) -> Self {
        LassConfig {
            loan: Some(1),
            ..Self::without_loan(n, m)
        }
    }

    /// Build the protocol instances for all `n` nodes.
    pub fn build_nodes(&self) -> Vec<Lass> {
        (0..self.n).map(|i| Lass::new(i, *self)).collect()
    }
}

/// Internal event counters exposed for tests and diagnostics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LassStats {
    /// Loan requests this node issued.
    pub loans_requested: u64,
    /// Loans this node granted (as lender).
    pub loans_granted: u64,
    /// Loans received that completed the request (entered CS borrowed).
    pub loans_used: u64,
    /// Borrowed tokens returned unused (failed loan, §4.5).
    pub loans_failed: u64,
    /// Tokens yielded to higher-priority requests while waiting.
    pub yields: u64,
}

/// The aggregation buffer of one message kind (§4.2.2): items staged per
/// destination, built directly in the `Vec` that travels as the message
/// payload.
///
/// Ordering contract (run digests depend on it): [`Batches::flush`] emits
/// destinations in the order of their first [`Batches::push`] since the last
/// flush, and each batch holds its items in push order.
///
/// Spares keep two rules, per thread since a thread's handlers share one
/// [`Staging`].  **Bounded:** one is kept for every
/// [`Batches::MISSES_PER_SPARE`] times `push` found none, and never more
/// than [`Batches::MAX_SPARES`] — a thread whose handlers send in bursts of
/// eight soon keeps eight, and never more, however many nodes it runs.
/// **Capacity, never payload:** a spare is emptied before it is kept, so
/// nothing a message carried outlives its handler here.
#[derive(Clone)]
struct Batches<T> {
    /// Open batches; drained in place by `flush`, so the capacity stays.
    open: Vec<(NodeId, Vec<T>)>,
    /// Emptied payload vectors of received messages, for the next batches.
    spares: Vec<Vec<T>>,
    /// How many times `push` found no spare (saturating).
    misses: usize,
}

impl<T> Default for Batches<T> {
    fn default() -> Self {
        Batches {
            open: Vec::new(),
            spares: Vec::new(),
            misses: 0,
        }
    }
}

impl<T> Batches<T> {
    /// Constants, not knobs: a handler answers a handful of messages, and a
    /// node that ran out of spares four times is one that keeps sending.
    const MAX_SPARES: usize = 8;
    const MISSES_PER_SPARE: usize = 4;

    /// Stage `item` for `dest`.
    fn push(&mut self, dest: NodeId, item: T) {
        match self.open.iter_mut().find(|(d, _)| *d == dest) {
            Some((_, batch)) => batch.push(item),
            None => {
                let mut batch = self.spares.pop().unwrap_or_else(|| {
                    self.misses = (self.misses + 1).min(Self::MAX_SPARES * Self::MISSES_PER_SPARE);
                    Vec::new()
                });
                batch.push(item);
                self.open.push((dest, batch));
            }
        }
    }

    /// Hand every open batch to `send` (see the ordering contract).
    fn flush(&mut self, mut send: impl FnMut(NodeId, Vec<T>)) {
        for (dest, batch) in self.open.drain(..) {
            send(dest, batch);
        }
    }

    /// Keep the payload vector of a consumed message for a later batch.
    fn recycle(&mut self, mut payload: Vec<T>) {
        if self.spares.len() < self.misses / Self::MISSES_PER_SPARE {
            payload.clear();
            self.spares.push(payload);
        }
    }
}

/// What a handler stages and what it recycles: one heap block per thread,
/// lent to a node's handler on its first push or recycle and handed back
/// by its flush, which every handler ends with.  Its buffers are empty
/// between handlers, so no node keeps one: a simulator runs one handler at
/// a time, and 10 000 nodes of the scale-out shape share one block instead
/// of holding about 6 MB of blocks that are almost never warm.  A handler
/// that panics keeps what it borrowed, so nothing it staged can reach
/// another node; the thread makes a new block when it next needs one.
#[derive(Clone, Default)]
struct Staging {
    // --- aggregation buffers (§4.2.2) ---
    buf_req: Batches<Request>,
    buf_cnt: Batches<CounterVal>,
    buf_tok: Batches<Box<Token>>,
}

thread_local! {
    /// The thread's [`Staging`] while no handler has borrowed it.
    static STAGING: Cell<Option<Box<Staging>>> = const { Cell::new(None) };
}

impl Staging {
    /// The block lent to the running handler (`Lass::stage`), borrowed
    /// from the thread on first use.
    fn lent(stage: &mut Option<Box<Staging>>) -> &mut Staging {
        stage.get_or_insert_with(|| STAGING.take().unwrap_or_default())
    }

    /// Hand a flushed block back to the thread.
    fn give_back(self: Box<Self>) {
        debug_assert!(
            self.buf_req.open.is_empty()
                && self.buf_cnt.open.is_empty()
                && self.buf_tok.open.is_empty(),
            "staging handed back with open batches"
        );
        STAGING.set(Some(self));
    }
}

/// What a site knows about one resource's token: the paper's `tokDir[r]`
/// and `lastTok[r]`, kept together so that a handler finds both with one
/// table lookup.  40 bytes, what every entry needs: the token itself is
/// here only while this site owns it, boxed, and the pending history,
/// which few entries ever hold, has its own table ([`Lass`]).
#[derive(Clone)]
struct ResState {
    /// Father pointer in the resource's tree; `None` iff this site holds
    /// the token (is the tree root).  A site in 32 bits, as on the wire.
    father: Option<u32>,
    /// The token, `Some` only while this site owns it.  `None` on an owned
    /// resource means a fresh token, boxed on its first change.
    held: Option<Box<Token>>,
    /// The token's counter and stamps when it last left this site.
    seen: Seen,
}

/// A site as an entry's father pointer keeps it (`Lass::new` checks that
/// every site fits in 32 bits).
fn site32(s: NodeId) -> u32 {
    s as u32
}

impl ResState {
    /// The state of a resource this site has not touched yet.
    fn initial(father: Option<NodeId>) -> Self {
        ResState {
            father: father.map(site32),
            held: None,
            seen: Seen::fresh(),
        }
    }

    /// The owned token of resource `r`, boxed on its first change.
    fn token_mut(&mut self, r: ResourceId) -> &mut Token {
        self.held.get_or_insert_with(|| Box::new(Token::new(r)))
    }

    /// Is `req` obsolete against the token while held, else against its
    /// stamps when it left (fresh if it never did)?
    fn obsolete(&self, req: &Request) -> bool {
        match &self.held {
            Some(t) => t.obsolete(req),
            None => self.seen.obsolete(req),
        }
    }
}

/// The requests a site forwarded towards one resource's holder (§4.2.1),
/// in the order they were kept: inline while there is at most one, which
/// is most histories (14 353 of 18 165 on the 10 000-site shape), a heap
/// vector past that.  As with a token's stamp rows, the count alone
/// decides the form, in both directions.
#[derive(Clone)]
enum History {
    Inline(Option<Request>),
    Heap(Vec<Request>),
}

impl History {
    const EMPTY: History = History::Inline(None);

    #[cfg(test)]
    fn as_slice(&self) -> &[Request] {
        match self {
            History::Inline(None) => &[],
            History::Inline(Some(req)) => std::slice::from_ref(req),
            History::Heap(reqs) => reqs,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Request] {
        match self {
            History::Inline(None) => &mut [],
            History::Inline(Some(req)) => std::slice::from_mut(req),
            History::Heap(reqs) => reqs,
        }
    }

    fn push(&mut self, req: Request) {
        match self {
            History::Inline(slot) => match slot.take() {
                None => *slot = Some(req),
                Some(first) => {
                    // Four: what `Vec` itself first reserves for requests.
                    let mut reqs = Vec::with_capacity(4);
                    reqs.extend([first, req]);
                    *self = History::Heap(reqs);
                }
            },
            History::Heap(reqs) => reqs.push(req),
        }
    }

    /// Keep the requests `keep` accepts, in order.  A replay usually
    /// retires most of what piled up while the token was away: one request
    /// left goes back inline, and more left in under a quarter of their
    /// buffer move to a tight one (2 560 buffers held at their peak are
    /// 3.4 MB on the 32 x 80 shape, a quarter of that run's heap; not
    /// `shrink_to`: a buffer cut in place leaves a tail the allocator
    /// cannot merge).
    fn retain(&mut self, mut keep: impl FnMut(&Request) -> bool) {
        match self {
            History::Inline(slot) => {
                if slot.as_ref().is_some_and(|req| !keep(req)) {
                    *slot = None;
                }
            }
            History::Heap(reqs) => {
                reqs.retain(keep);
                if reqs.len() <= 1 {
                    *self = History::Inline(reqs.pop());
                } else if reqs.capacity() >= 4 * reqs.len() {
                    let mut tight = Vec::with_capacity(2 * reqs.len());
                    tight.append(reqs);
                    *reqs = tight;
                }
            }
        }
    }
}

/// `res`'s entry for `r`, materialized on first touch with `father` (the
/// node's `initial_father`) as its father pointer.  The one way handlers
/// reach an entry; a free function so that a handler can hold the entry
/// while it touches the node's other fields.
fn res_entry(res: &mut ResTable<ResState>, r: ResourceId, father: Option<NodeId>) -> &mut ResState {
    res.get_or(r, |_| ResState::initial(father))
}

/// `MyVector[r] = v` on the sparse pair vector.
fn set_vector(vector: &mut Vec<(ResourceId, u64)>, r: ResourceId, v: u64) {
    match vector.binary_search_by_key(&r, |&(rr, _)| rr) {
        Ok(i) => vector[i].1 = v,
        Err(i) => vector.insert(i, (r, v)),
    }
}

/// The owner `me` of `tok` reserves its counter for its own request `id`
/// (`MyVector[r]`).
fn reserve_counter(
    tok: &mut Token,
    my_vector: &mut Vec<(ResourceId, u64)>,
    me: NodeId,
    id: RequestId,
) {
    let v = tok.take_counter();
    // [deviation 2] record the served counter request so a wandering
    // duplicate ReqCnt of ours becomes obsolete.
    tok.set_last_req_c(me, id);
    set_vector(my_vector, tok.r, v);
}

/// §4.6.1: the holder of `tok` turns a single-resource `ReqCnt` into a
/// `ReqRes`, computing the mark itself from the counter value it assigns.
fn convert_single(
    tok: &mut Token,
    policy: SchedulingPolicy,
    sinit: NodeId,
    id: RequestId,
) -> ResReq {
    let val = tok.take_counter();
    tok.set_last_req_c(sinit, id);
    ResReq {
        r: tok.r,
        sinit,
        id,
        mark: policy.mark_single(val),
    }
}

/// One site's LASS state (annex A figure 9).
///
/// Per-resource state lives in two [`ResTable`]s, each a dense vector at
/// paper scale (M ≤ 4096) and a map materialized on first write above — a
/// node only pays for the resources it actually touches, which is what
/// lets 10k nodes each face 100k resources.  `res` holds `ResState {
/// father, held, seen }`, which every touched resource needs; `pending`
/// holds the forwarded-request histories, which only a resource this site
/// forwarded a request for needs.  An absent entry means the initial
/// state: the father pointer is the elected site (none on the elected site
/// itself), the token is fresh, the pending history is empty.  Handlers
/// look a resource up once per table they need and work on the entry they
/// got (DESIGN §10.1 counts the lookups per handler).
#[derive(Clone)]
pub struct Lass {
    cfg: LassConfig,
    me: NodeId,
    state: ProcState,
    /// Father pointer, token and departure stamps per resource.
    res: ResTable<ResState>,
    /// Requests forwarded towards each resource's holder, replayed when
    /// its token arrives (§4.2.1).  Forwarding writes here only, so a
    /// resource this site merely forwards for has no `res` entry.
    pending: ResTable<History>,
    /// Father pointer of a resource this site has not touched: the
    /// elected site, none on the elected site itself.
    initial_father: Option<NodeId>,
    /// Counter vector of the current request: sparse `(resource, value)`
    /// pairs sorted by resource, nonzero values only (zero = not required).
    my_vector: Vec<(ResourceId, u64)>,
    /// Resources of the current request.
    t_required: ResourceSet,
    /// Owned tokens.
    t_owned: ResourceSet,
    /// Required resources whose counter value is still missing.
    cnt_needed: ResourceSet,
    /// Current request id (incremented per request).
    cur_id: RequestId,
    /// Resources currently lent out (as lender).
    t_lent: ResourceSet,
    /// Has a loan been requested for the current request?
    loan_asked: bool,
    /// Whether the current CS was entered thanks to borrowed tokens.
    borrowed_in_cs: bool,
    /// The thread's aggregation buffers while a handler runs; `None`
    /// between handlers.
    stage: Option<Box<Staging>>,
    /// Event counters.
    pub stats: LassStats,
}

impl Lass {
    /// Create the instance of site `me`.
    pub fn new(me: NodeId, cfg: LassConfig) -> Self {
        assert!(me < cfg.n);
        assert!(u32::try_from(cfg.n).is_ok(), "sites are 32-bit ids");
        assert!(cfg.m >= 1);
        let is_elected = me == cfg.elected;
        let initial_father = if is_elected { None } else { Some(cfg.elected) };
        Lass {
            me,
            state: ProcState::Idle,
            res: ResTable::new_with(cfg.m, |_| ResState::initial(initial_father)),
            pending: ResTable::new_with(cfg.m, |_| History::EMPTY),
            initial_father,
            my_vector: Vec::new(),
            t_required: ResourceSet::new(),
            t_owned: if is_elected {
                ResourceSet::full(cfg.m)
            } else {
                ResourceSet::new()
            },
            cnt_needed: ResourceSet::new(),
            cur_id: 0,
            t_lent: ResourceSet::new(),
            loan_asked: false,
            borrowed_in_cs: false,
            stage: None,
            stats: LassStats::default(),
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Introspection (tests, invariant checks, diagnostics)
    // ------------------------------------------------------------------

    /// Set of tokens currently owned.
    pub fn owned(&self) -> ResourceSet {
        self.t_owned.clone()
    }

    /// Set of resources currently lent out.
    pub fn lent(&self) -> ResourceSet {
        self.t_lent.clone()
    }

    /// Resources of the outstanding request.
    pub fn required(&self) -> ResourceSet {
        self.t_required.clone()
    }

    /// Father pointer of resource `r`'s tree (`None` = this site is root).
    pub fn father(&self, r: ResourceId) -> Option<NodeId> {
        match self.res.get(r) {
            Some(st) => st.father.map(|f| f as NodeId),
            None => self.initial_father,
        }
    }

    /// The token of `r` if owned; otherwise its counter and stamps when it
    /// last left this site, with empty queues (fresh if it never did).
    /// Diagnostics only — clones.
    pub fn token(&self, r: ResourceId) -> Token {
        match self.res.get(r) {
            Some(ResState { held: Some(t), .. }) => Token::clone(t),
            Some(st) => st.seen.token(r),
            None => Token::new(r),
        }
    }

    /// Current request id.
    pub fn current_id(&self) -> RequestId {
        self.cur_id
    }

    /// The counter vector of the current request, densified (diagnostics
    /// only — allocates `m` entries).
    pub fn vector(&self) -> Vec<u64> {
        let mut v = vec![0; self.cfg.m];
        for &(r, val) in &self.my_vector {
            v[r] = val;
        }
        v
    }

    /// The scheduling mark `A(MyVector)` of the current request.
    pub fn mark(&self) -> f64 {
        self.cfg.policy.mark_sparse(self.my_vector.iter().map(|&(_, v)| v))
    }

    // ------------------------------------------------------------------
    // Sparse-table plumbing
    // ------------------------------------------------------------------

    /// The token of `r`, if held boxed (an owned token that never left is
    /// fresh: no lender, empty queues, all-zero stamps).
    fn held(&self, r: ResourceId) -> Option<&Token> {
        self.res.get(r).and_then(|st| st.held.as_deref())
    }

    /// Is `req` obsolete w.r.t. what this site knows of `r`'s token?
    /// Nothing is, against an untouched one.
    fn tok_obsolete(&self, r: ResourceId, req: &Request) -> bool {
        self.res.get(r).is_some_and(|st| {
            debug_assert!(st.held.is_none() || self.t_owned.contains(r), "token {r} held unowned");
            st.obsolete(req)
        })
    }

    // ------------------------------------------------------------------
    // Aggregation buffers (§4.2.2)
    // ------------------------------------------------------------------

    /// Send everything the handler staged: responses first (`SendBuf`:
    /// counters, then tokens), then requests (`SendBufReq`), every batch of
    /// requests tagged with the same visited set.  Then hand the staging
    /// back to the thread.
    fn flush_all(&mut self, ctx: &mut Ctx<LassMsg>, visited: &NodeSet) {
        let Some(mut stage) = self.stage.take() else {
            return; // nothing staged or recycled
        };
        stage.buf_cnt.flush(|to, vals| ctx.send(to, LassMsg::Counters(vals)));
        stage.buf_tok.flush(|to, toks| ctx.send(to, LassMsg::Tokens(toks)));
        stage.buf_req.flush(|to, reqs| {
            ctx.send(to, LassMsg::Requests { visited: visited.clone(), reqs })
        });
        stage.give_back();
    }

    /// [`Lass::flush_all`] for a handler whose requests start here: the
    /// visited set is `{me}`.
    fn flush_own(&mut self, ctx: &mut Ctx<LassMsg>) {
        self.flush_all(ctx, &NodeSet::singleton(self.me));
    }

    // ------------------------------------------------------------------
    // Token plumbing
    // ------------------------------------------------------------------

    /// `SendToken` (annex A line 102): move the token to `dest`, keep its
    /// stamps, rewire the father pointer and drop ownership.
    fn send_token(&mut self, r: ResourceId, dest: NodeId) {
        debug_assert!(self.t_owned.contains(r), "sending unowned token {r}");
        debug_assert_ne!(dest, self.me, "token self-send");
        let st = res_entry(&mut self.res, r, self.initial_father);
        let tok = st.held.take().unwrap_or_else(|| Box::new(Token::new(r)));
        st.seen.record(&tok);
        st.father = Some(site32(dest));
        Staging::lent(&mut self.stage).buf_tok.push(dest, tok);
        self.t_owned.remove(r);
    }

    fn enter_cs(&mut self, ctx: &mut Ctx<LassMsg>) {
        debug_assert_ne!(self.state, ProcState::InCS);
        debug_assert!(self.t_required.is_subset(&self.t_owned));
        self.borrowed_in_cs = self
            .t_required
            .iter()
            .any(|r| self.held(r).is_some_and(|t| t.lender.is_some()));
        if self.borrowed_in_cs {
            self.stats.loans_used += 1;
        }
        self.state = ProcState::InCS;
        ctx.grant();
    }

    /// Reserve the counter of an owned token for the current request.
    fn take_counter_locally(&mut self, r: ResourceId) {
        debug_assert!(self.t_owned.contains(r));
        let (me, id) = (self.me, self.cur_id);
        let tok = res_entry(&mut self.res, r, self.initial_father).token_mut(r);
        reserve_counter(tok, &mut self.my_vector, me, id);
    }

    // ------------------------------------------------------------------
    // processCntNeededEmpty (annex A line 108)
    // ------------------------------------------------------------------

    /// `waitS → waitCS`: all counter values are known; send a `ReqRes` for
    /// every required resource not yet owned.  Buffers only — callers flush.
    fn on_counters_complete(&mut self) {
        debug_assert_eq!(self.state, ProcState::WaitS);
        debug_assert!(self.cnt_needed.is_empty());
        self.state = ProcState::WaitCS;
        let mark = self.mark();
        for r in self.t_required.iter() {
            if !self.t_owned.contains(r) {
                let father = self.father(r).expect("non-owner has a father");
                Staging::lent(&mut self.stage).buf_req.push(
                    father,
                    Request::Res(ResReq {
                        r,
                        sinit: self.me,
                        id: self.cur_id,
                        mark,
                    }),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // canLend (annex A line 117)
    // ------------------------------------------------------------------

    fn can_lend(&self, req: &LoanReq) -> bool {
        if !req.missing.is_subset(&self.t_owned) {
            return false;
        }
        // None of our owned tokens may itself be borrowed...
        if self
            .t_owned
            .iter()
            .any(|r| self.held(r).is_some_and(|t| t.lender.is_some()))
        {
            return false;
        }
        // ...we must not have lent already, and must not be in CS.
        if !self.t_lent.is_empty() || self.state == ProcState::InCS {
            return false;
        }
        if self.state == ProcState::WaitCS {
            if !self.loan_asked {
                return true;
            }
            // Both of us want a loan: the borrower wins only with strictly
            // higher priority.
            return precedes(req.mark, req.sinit, self.mark(), self.me);
        }
        true // Idle or waitS: lend freely
    }

    // ------------------------------------------------------------------
    // processReqLoan (annex A line 190)
    // ------------------------------------------------------------------

    fn process_req_loan(&mut self, req: LoanReq) {
        debug_assert!(self.t_owned.contains(req.r));
        if self.held(req.r).is_some_and(|t| t.cs_done(req.sinit, req.id)) {
            return; // obsolete
        }
        if req.sinit == self.me {
            // [guard] our own wandering loan request: our need is tracked
            // locally; a self-loan is meaningless.
            return;
        }
        if self.can_lend(&req) {
            self.stats.loans_granted += 1;
            let me = self.me;
            for r2 in req.missing.iter() {
                debug_assert!(self.t_owned.contains(r2));
                let tok = res_entry(&mut self.res, r2, self.initial_father).token_mut(r2);
                tok.lender = Some(me);
                // The borrower's queued ReqRes is satisfied by the loan
                // (annex A line 201).
                tok.remove_site(req.sinit);
                self.send_token(r2, req.sinit);
            }
            self.t_lent = req.missing;
        } else {
            let r = req.r;
            let free = !self.t_required.contains(r) || self.state == ProcState::WaitS;
            let tok = res_entry(&mut self.res, r, self.initial_father).token_mut(r);
            if free {
                // Not a possible loan, but the token itself is free to go.
                tok.remove_site(req.sinit);
                self.send_token(r, req.sinit);
            } else {
                tok.enqueue_loan(req);
            }
        }
    }

    // ------------------------------------------------------------------
    // processUpdate (annex A line 133)
    // ------------------------------------------------------------------

    fn process_update(&mut self, mut t: Box<Token>) {
        let r = t.r;
        debug_assert!(!self.t_owned.contains(r), "duplicate token {r}");
        if t.lender == Some(self.me) {
            // [deviation 3] a token we lent came home; it is ours again,
            // not "borrowed from ourselves".
            t.lender = None;
        }
        let me = self.me;
        let st = res_entry(&mut self.res, r, self.initial_father);
        let stage = Staging::lent(&mut self.stage);
        self.t_owned.insert(r);
        st.father = None;
        self.t_lent.remove(r);
        // [guard] our own queued request (left behind when we yielded this
        // token earlier) is satisfied by ownership; purge it so it can never
        // be "granted" back to ourselves.
        let tok = st.held.insert(t);
        tok.remove_site(me);
        if self.cnt_needed.remove(r) {
            reserve_counter(tok, &mut self.my_vector, me, self.cur_id);
        }
        // Replay the pending history for r (§4.2.1): requests we forwarded
        // may never have reached the holder; now that the token is here, we
        // are the holder.  The history is filtered in place: only resource
        // and loan requests stay (they may have to be replayed again).
        let Some(history) = self.pending.get_mut(r) else {
            return; // never forwarded a request for r
        };
        let policy = self.cfg.policy;
        history.retain(|req| {
            if tok.obsolete(req) {
                return false; // retired for good
            }
            if req.sinit() == me {
                // [guard] our own request: ownership of the token satisfies
                // it (counter taken above; CS entry checked by the caller).
                return false;
            }
            match *req {
                Request::Cnt {
                    single: false,
                    sinit,
                    id,
                    ..
                } => {
                    tok.set_last_req_c(sinit, id);
                    let val = tok.take_counter();
                    stage.buf_cnt.push(sinit, CounterVal { r, val, id });
                    false
                }
                Request::Cnt {
                    single: true,
                    sinit,
                    id,
                    ..
                } => {
                    let rr = convert_single(tok, policy, sinit, id);
                    tok.enqueue_res(rr);
                    false
                }
                Request::Res(ref rr) => {
                    tok.enqueue_res(rr.clone());
                    true
                }
                Request::Loan(ref lr) => {
                    tok.enqueue_loan(LoanReq::clone(lr));
                    true
                }
            }
        });
    }

    // ------------------------------------------------------------------
    // Receive Request (annex A line 159)
    // ------------------------------------------------------------------

    fn on_requests(
        &mut self,
        ctx: &mut Ctx<LassMsg>,
        mut visited: NodeSet,
        mut reqs: Vec<Request>,
    ) {
        for req in reqs.drain(..) {
            let r = req.r();
            let sinit = req.sinit();
            if self.tok_obsolete(r, &req) {
                continue;
            }
            if self.t_owned.contains(r) {
                if sinit == self.me {
                    continue; // [guard] own request met by ownership
                }
                match req {
                    Request::Loan(lr) => self.process_req_loan(*lr),
                    ref q => {
                        // Single-resource counter requests behave as
                        // resource requests everywhere below (§4.6.1).
                        let acts_as_res = !matches!(
                            q,
                            Request::Cnt { single: false, .. }
                        );
                        if !self.t_required.contains(r)
                            || (self.state == ProcState::WaitS && acts_as_res)
                        {
                            // Holder does not need r (or is still counting
                            // and yields): hand the token over.
                            self.send_token(r, sinit);
                        } else if let Request::Cnt {
                            single: false, id, ..
                        } = *q
                        {
                            // Plain counter request: reply with the value.
                            let tok = res_entry(&mut self.res, r, self.initial_father).token_mut(r);
                            tok.set_last_req_c(sinit, id);
                            let val = tok.take_counter();
                            Staging::lent(&mut self.stage)
                                .buf_cnt
                                .push(sinit, CounterVal { r, val, id });
                        } else {
                            // ReqRes (or converted single): conflict.
                            self.resolve_conflict(q);
                        }
                    }
                }
            } else {
                let father = self.father(r).expect("non-owner has a father");
                // §4.6.2 stop-forwarding: we are certain to receive the
                // token before the requester, so park the request here.
                if self.cfg.opt_stop_forwarding {
                    if let Request::Res(ref rr) = req {
                        let lent = self.t_lent.contains(r);
                        let overtaking = self.state == ProcState::WaitCS
                            && self.cnt_needed.is_empty()
                            && self.t_required.contains(r)
                            && precedes(self.mark(), self.me, rr.mark, rr.sinit);
                        if lent || overtaking {
                            self.push_pending(r, &req);
                            continue;
                        }
                    }
                }
                if !visited.contains(father) {
                    self.push_pending(r, &req);
                    Staging::lent(&mut self.stage).buf_req.push(father, req);
                }
                // else: a site on the visited path keeps it in its pending
                // history; the token must cross that path (lemma 6).
            }
        }
        Staging::lent(&mut self.stage).buf_req.recycle(reqs);
        visited.insert(self.me);
        self.flush_all(ctx, &visited);
    }

    /// Keep `req` in `r`'s pending history, copied only if it is new there.
    /// Only the history table is written: above 4 096 resources this is
    /// where a history entry first materializes, and `r`'s `ResState`
    /// stays absent if nothing else touched it.
    fn push_pending(&mut self, r: ResourceId, req: &Request) {
        // One live entry per (site, kind) is enough: ids only grow.  A
        // newer request replaces its older one and moves to the end, as if
        // removed and pushed, without the history changing its length.
        let key = |q: &Request| (q.sinit(), std::mem::discriminant(q));
        let hist = self.pending.get_or(r, |_| History::EMPTY);
        let reqs = hist.as_mut_slice();
        match reqs.iter().position(|q| key(q) == key(req)) {
            Some(i) if reqs[i].id() >= req.id() => {}
            Some(i) => {
                reqs[i..].rotate_left(1);
                reqs[reqs.len() - 1] = req.clone();
            }
            None => hist.push(req.clone()),
        }
    }

    /// Owner in `waitCS`/`inCS` receives a conflicting `ReqRes`, or a
    /// single-resource `ReqCnt` it converts into one (annex A lines
    /// 176–184): yield to strictly higher priority, queue otherwise.
    fn resolve_conflict(&mut self, req: &Request) {
        let r = req.r();
        let my_mark = self.mark();
        let tok = res_entry(&mut self.res, r, self.initial_father).token_mut(r);
        let rr = match *req {
            Request::Res(ref rr) => rr.clone(),
            Request::Cnt { sinit, id, .. } => convert_single(tok, self.cfg.policy, sinit, id),
            Request::Loan(_) => unreachable!("loan requests are not conflicts"),
        };
        if tok.queue_contains(rr.sinit, rr.id) {
            return;
        }
        if self.state == ProcState::WaitCS
            && precedes(rr.mark, rr.sinit, my_mark, self.me)
        {
            // The newcomer overtakes us: queue ourselves, hand the token
            // over directly.
            tok.enqueue_res(ResReq {
                r,
                sinit: self.me,
                id: self.cur_id,
                mark: my_mark,
            });
            self.stats.yields += 1;
            self.send_token(r, rr.sinit);
        } else {
            // (waitCS ∧ we precede) ∨ inCS: the request waits.
            tok.enqueue_res(rr);
        }
    }

    // ------------------------------------------------------------------
    // Receive Counter (annex A line 255)
    // ------------------------------------------------------------------

    fn on_counters(&mut self, ctx: &mut Ctx<LassMsg>, from: NodeId, mut vals: Vec<CounterVal>) {
        for c in vals.drain(..) {
            // [deviation 1] only accept values for the current request and
            // still-missing resources; stale replies are dropped.
            if c.id != self.cur_id || !self.cnt_needed.contains(c.r) {
                continue;
            }
            set_vector(&mut self.my_vector, c.r, c.val);
            self.cnt_needed.remove(c.r);
            if self.cfg.opt_shortcut_on_counter {
                // Path shortcut: the replier held the token just now.
                debug_assert!(!self.t_owned.contains(c.r));
                res_entry(&mut self.res, c.r, self.initial_father).father = Some(site32(from));
            }
        }
        Staging::lent(&mut self.stage).buf_cnt.recycle(vals);
        if self.state == ProcState::WaitS && self.cnt_needed.is_empty() {
            self.on_counters_complete();
        }
        self.flush_own(ctx);
    }

    // ------------------------------------------------------------------
    // Receive Token (annex A line 208)
    // ------------------------------------------------------------------

    #[allow(clippy::vec_box)] // each token keeps its one box as it moves
    fn on_tokens(&mut self, ctx: &mut Ctx<LassMsg>, mut toks: Vec<Box<Token>>) {
        for t in toks.drain(..) {
            self.process_update(t);
        }
        Staging::lent(&mut self.stage).buf_tok.recycle(toks);
        let requesting = matches!(self.state, ProcState::WaitS | ProcState::WaitCS);
        if requesting && self.t_required.is_subset(&self.t_owned) {
            self.enter_cs(ctx);
        } else if self.state != ProcState::InCS {
            // The loan failed (or the token is a stale grant): return every
            // borrowed token to its legitimate owner (annex A lines
            // 217-223).
            let mut returned = false;
            let my_mark = self.mark();
            for r in self.t_owned.iter() {
                let Some(tok) = self.res.get_mut(r).and_then(|st| st.held.as_deref_mut()) else {
                    continue; // fresh token: not borrowed
                };
                // [deviation 3] clear the loan marker on return.
                let Some(lender) = tok.lender.take() else {
                    continue;
                };
                debug_assert_ne!(lender, self.me);
                // [deviation 8] the lender removed our ReqRes from the
                // queue when it granted the loan (annex A line 201); as
                // the loan failed, our request must be re-queued or it
                // would be lost forever (liveness hole in the paper's
                // pseudo-code — see DESIGN.md §6).
                if self.state == ProcState::WaitCS && self.t_required.contains(r) {
                    tok.enqueue_res(ResReq {
                        r,
                        sinit: self.me,
                        id: self.cur_id,
                        mark: my_mark,
                    });
                }
                self.send_token(r, lender);
                returned = true;
            }
            if returned {
                self.stats.loans_failed += 1;
                self.loan_asked = false;
            }
            if self.state == ProcState::WaitS && self.cnt_needed.is_empty() {
                self.on_counters_complete();
            }
            self.reschedule_owned();
            self.retry_pending_loans();
            self.maybe_request_loan();
        }
        // Even when entering CS, counter replies buffered by processUpdate
        // must go out.
        self.flush_own(ctx);
    }

    /// Annex A lines 226–238: after a token arrives, re-examine every owned
    /// token's queue; yield whenever the head has priority over us (or
    /// unconditionally if we are still in `waitS`, idle, or do not require
    /// the resource).
    fn reschedule_owned(&mut self) {
        let my_mark = self.mark();
        for r in self.t_owned.iter() {
            if !self.t_owned.contains(r) {
                continue; // handed away by a previous iteration's loan
            }
            let Some(tok) = self.res.get_mut(r).and_then(|st| st.held.as_deref_mut()) else {
                continue; // fresh token: empty queue
            };
            let Some(&ResReq { sinit, mark, .. }) = tok.head() else {
                continue;
            };
            debug_assert_ne!(sinit, self.me, "own request queued in own token");
            let yield_now = match self.state {
                // Still gathering counters: always yield (we will re-request
                // via ReqRes once counters are complete).
                ProcState::WaitS => true,
                // [deviation 7] a queued request on a token we do not even
                // require must be served, or it could wait forever.
                ProcState::Idle => true,
                ProcState::WaitCS => {
                    if !self.t_required.contains(r) {
                        true // [deviation 7]
                    } else {
                        precedes(mark, sinit, my_mark, self.me)
                    }
                }
                ProcState::InCS => unreachable!("rescheduling while in CS"),
            };
            if yield_now {
                tok.dequeue();
                if self.state == ProcState::WaitCS && self.t_required.contains(r) {
                    tok.enqueue_res(ResReq {
                        r,
                        sinit: self.me,
                        id: self.cur_id,
                        mark: my_mark,
                    });
                    self.stats.yields += 1;
                }
                self.send_token(r, sinit);
            }
        }
    }

    /// Annex A lines 241–247: retry queued loan requests of owned tokens.
    fn retry_pending_loans(&mut self) {
        for r in self.t_owned.iter() {
            if !self.t_owned.contains(r) {
                continue;
            }
            let Some(tok) = self.res.get_mut(r).and_then(|st| st.held.as_deref_mut()) else {
                continue; // fresh token: nothing queued
            };
            if tok.w_loan.is_empty() {
                continue;
            }
            let queued = std::mem::take(&mut tok.w_loan);
            for lr in queued {
                if self.t_owned.contains(lr.r) {
                    self.process_req_loan(lr);
                }
            }
        }
    }

    /// Annex A lines 248–252: initiate a loan request when few enough
    /// resources are missing.
    fn maybe_request_loan(&mut self) {
        let Some(threshold) = self.cfg.loan else {
            return;
        };
        if self.state != ProcState::WaitCS || self.loan_asked {
            return;
        }
        let missing = self.t_required.difference(&self.t_owned);
        // [deviation 5] the paper's text says "smaller or equal to a given
        // threshold" (§4.5); the pseudo-code uses equality.  `≤` dominates
        // and coincides at the paper's threshold of 1.
        if missing.is_empty() || missing.len() > threshold {
            return;
        }
        self.loan_asked = true;
        self.stats.loans_requested += 1;
        let mark = self.mark();
        for r in missing.iter() {
            let father = self.father(r).expect("missing resource has a father");
            Staging::lent(&mut self.stage).buf_req.push(
                father,
                Request::Loan(Box::new(LoanReq {
                    r,
                    sinit: self.me,
                    id: self.cur_id,
                    mark,
                    missing: missing.clone(),
                })),
            );
        }
    }
}

impl Allocator for Lass {
    type Msg = LassMsg;

    fn on_init(&mut self, _ctx: &mut Ctx<LassMsg>) {}

    fn on_message(&mut self, ctx: &mut Ctx<LassMsg>, from: NodeId, msg: LassMsg) {
        match msg {
            LassMsg::Requests { visited, reqs } => self.on_requests(ctx, visited, reqs),
            LassMsg::Counters(vals) => self.on_counters(ctx, from, vals),
            LassMsg::Tokens(toks) => self.on_tokens(ctx, toks),
        }
    }

    /// `Request_CS` (annex A line 68).
    fn request(&mut self, ctx: &mut Ctx<LassMsg>, resources: ResourceSet) {
        assert_eq!(self.state, ProcState::Idle, "request while busy");
        assert!(!resources.is_empty(), "empty request");
        debug_assert!(resources.iter().all(|r| r < self.cfg.m));
        self.cur_id += 1;
        self.t_required = resources;
        self.cnt_needed.clear();
        self.loan_asked = false;

        // §4.6.1: single-resource requests skip the counter phase; the
        // holder computes the mark.  (Only when the token is remote —
        // locally we just take the counter.)
        if self.cfg.opt_single_resource && self.t_required.len() == 1 {
            let r = self.t_required.first().expect("non-empty");
            if !self.t_owned.contains(r) {
                self.state = ProcState::WaitCS;
                // processUpdate reserves the counter on token arrival.
                self.cnt_needed.insert(r);
                let father = self.father(r).expect("non-owner has a father");
                Staging::lent(&mut self.stage).buf_req.push(
                    father,
                    Request::Cnt {
                        r,
                        sinit: self.me,
                        id: self.cur_id,
                        single: true,
                    },
                );
                self.flush_own(ctx);
                return;
            }
        }

        self.state = ProcState::WaitS;
        for r in self.t_required.iter() {
            if self.t_owned.contains(r) {
                self.take_counter_locally(r);
            } else {
                self.cnt_needed.insert(r);
                let father = self.father(r).expect("non-owner has a father");
                Staging::lent(&mut self.stage).buf_req.push(
                    father,
                    Request::Cnt {
                        r,
                        sinit: self.me,
                        id: self.cur_id,
                        single: false,
                    },
                );
            }
        }
        self.flush_own(ctx);
        if self.cnt_needed.is_empty() {
            // Every required token is already here: counters were taken
            // locally and the CS can start at once.
            debug_assert!(self.t_required.is_subset(&self.t_owned));
            self.enter_cs(ctx);
        }
    }

    /// `Release_CS` (annex A line 85).
    fn release(&mut self, ctx: &mut Ctx<LassMsg>) {
        assert_eq!(self.state, ProcState::InCS, "release outside CS");
        self.state = ProcState::Idle;
        self.loan_asked = false;
        self.borrowed_in_cs = false;
        let me = self.me;
        let id = self.cur_id;
        for r in self.t_required.iter() {
            debug_assert!(self.t_owned.contains(r));
            let tok = res_entry(&mut self.res, r, self.initial_father).token_mut(r);
            tok.set_last_cs(me, id);
            let next = match tok.lender.take() {
                None => tok.dequeue().map(|next| next.sinit),
                Some(lender) => {
                    // Borrowed token: straight back to the lender, dropping
                    // any queued request of the lender itself (annex A
                    // line 96).
                    debug_assert_ne!(lender, me);
                    tok.remove_site(lender);
                    Some(lender)
                }
            };
            if let Some(dest) = next {
                self.send_token(r, dest);
            }
        }
        // [deviation 7] tokens we own but did not use can carry queued
        // requests (e.g. they returned from a borrower mid-CS); serve them
        // now — release() never visits them otherwise.
        for r in self.t_owned.iter() {
            if self.t_required.contains(r) {
                continue;
            }
            let next = self.res.get_mut(r).and_then(|st| st.held.as_mut()?.dequeue());
            if let Some(next) = next {
                self.send_token(r, next.sinit);
            }
        }
        self.t_required.clear();
        self.my_vector.clear();
        // [deviation 9] pending loan requests parked in the wLoan of tokens
        // we keep would otherwise only be retried on a future token receipt
        // — which may never come once we are idle.  Retrying them here (we
        // are now an idle owner, so canLend generally succeeds) closes the
        // liveness hole.
        self.retry_pending_loans();
        self.flush_own(ctx);
    }

    fn state(&self) -> ProcState {
        self.state
    }

    fn name(&self) -> &'static str {
        if self.cfg.loan.is_some() {
            "lass+loan"
        } else {
            "lass"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes() -> (Vec<Lass>, Vec<Ctx<LassMsg>>) {
        let cfg = LassConfig::without_loan(2, 3);
        let nodes = cfg.build_nodes();
        let ctxs = (0..2).map(|i| Ctx::new(i, 2)).collect();
        (nodes, ctxs)
    }

    #[test]
    fn batches_flush_by_first_appearance_and_keep_push_order() {
        let mut b: Batches<u32> = Batches::default();
        for (dest, item) in [(5, 1), (2, 2), (5, 3), (9, 4), (2, 5)] {
            b.push(dest, item);
        }
        let mut sent = Vec::new();
        b.flush(|to, batch| sent.push((to, batch)));
        assert_eq!(sent, vec![(5, vec![1, 3]), (2, vec![2, 5]), (9, vec![4])]);
        b.flush(|_, _| panic!("a flushed buffer is empty"));
    }

    #[test]
    fn spares_keep_one_per_four_misses_emptied_and_bounded() {
        type S = Batches<u32>;
        let mut b: Batches<u32> = Batches::default();
        // Never found empty: nothing is worth keeping.
        b.recycle(vec![1, 2, 3]);
        assert!(b.spares.is_empty());
        // Found empty a few times: still nothing (a node that rarely sends).
        for _ in 1..S::MISSES_PER_SPARE {
            b.push(1, 7);
            b.flush(|_, _| ());
            b.recycle(vec![4]);
            assert!(b.spares.is_empty());
        }
        // The next miss earns one spare — emptied, capacity intact.
        b.push(1, 7);
        b.flush(|_, _| ());
        let payload = Vec::with_capacity(32);
        let buffer = payload.as_ptr();
        b.recycle(payload);
        b.recycle(vec![4]);
        assert_eq!(b.spares.len(), 1);
        b.push(2, 8);
        b.flush(|_, batch| {
            assert_eq!(batch, vec![8]);
            assert_eq!((batch.as_ptr(), batch.capacity()), (buffer, 32));
        });
        // However often it runs dry, a stash stops at MAX.
        for dest in 0..2 * S::MAX_SPARES * S::MISSES_PER_SPARE {
            b.push(dest, 0);
        }
        b.flush(|_, _| ());
        for _ in 0..3 * S::MAX_SPARES {
            b.recycle(vec![1]);
        }
        assert_eq!(b.spares.len(), S::MAX_SPARES);
        assert!(b.spares.iter().all(Vec::is_empty));
    }

    /// "Absent means initial": on a sparse table (m = 100 000) an entry
    /// never touched and one materialized but untouched answer what a
    /// dense table's (m = 80) entry answers — father, token, obsolescence —
    /// on the elected site and on another.  (Request ids start at 1.)
    #[test]
    fn absent_and_untouched_entries_answer_alike() {
        let r = 17;
        let reqs = [
            Request::Cnt {
                r,
                sinit: 1,
                id: 1,
                single: false,
            },
            Request::Cnt {
                r,
                sinit: 2,
                id: 3,
                single: true,
            },
            Request::Res(ResReq {
                r,
                sinit: 1,
                id: 2,
                mark: 1.5,
            }),
            Request::Loan(Box::new(LoanReq {
                r,
                sinit: 2,
                id: 1,
                mark: 1.0,
                missing: ResourceSet::singleton(r),
            })),
        ];
        let answers = |node: &Lass| {
            let obsolete: Vec<bool> = reqs.iter().map(|q| node.tok_obsolete(r, q)).collect();
            (node.father(r), format!("{:?}", node.token(r)), obsolete)
        };
        for me in [0, 2] {
            let dense = Lass::new(me, LassConfig::with_loan(3, 80));
            let absent = Lass::new(me, LassConfig::with_loan(3, 100_000));
            let mut touched = absent.clone();
            res_entry(&mut touched.res, r, touched.initial_father);
            assert!(dense.res.is_dense() && !absent.res.is_dense());
            assert_eq!(
                (absent.res.materialized(), touched.res.materialized()),
                (0, 1)
            );
            let want = answers(&dense);
            assert_eq!(want.0, if me == 0 { None } else { Some(0) });
            assert_eq!(answers(&absent), want, "absent entry, site {me}");
            assert_eq!(answers(&touched), want, "untouched entry, site {me}");
        }
    }

    /// The token leaves with its queue; the sender keeps the counter and
    /// stamps it left with, and still drops what those stamps retire.
    #[test]
    fn a_sent_token_leaves_its_stamps_not_a_copy() {
        assert!(std::mem::size_of::<ResState>() <= 40, "an entry holds no token or history inline");
        assert!(std::mem::size_of::<Token>() <= 152, "a token holds two stamp rows inline");
        let mut nodes = LassConfig::without_loan(3, 1).build_nodes();
        let mut ctxs: Vec<Ctx<LassMsg>> = (0..3).map(|i| Ctx::new(i, 3)).collect();
        nodes[0].request(&mut ctxs[0], ResourceSet::singleton(0));
        assert!(ctxs[0].take_granted());
        for s in [2, 1] {
            nodes[s].request(&mut ctxs[s], ResourceSet::singleton(0));
            let (_, msg) = ctxs[s].take_outbox().pop().unwrap();
            nodes[0].on_message(&mut ctxs[0], s, msg);
        }
        nodes[0].release(&mut ctxs[0]);
        let out = ctxs[0].take_outbox();
        let LassMsg::Tokens(toks) = &out[0].1 else {
            panic!("expected the token, got {:?}", out[0].1);
        };
        assert_eq!(toks[0].w_queue.len(), 1, "the other request travels with the token");
        let left = nodes[0].token(0);
        assert_eq!((left.counter, left.last_cs(0), left.last_req_c(1)), (toks[0].counter, 1, 1));
        assert!(left.w_queue.is_empty() && left.w_loan.is_empty() && left.lender.is_none());
        // Our served ReqRes and site 1's answered ReqCnt1 are not forwarded
        // to the new holder.
        let stale = vec![
            Request::Res(ResReq { r: 0, sinit: 0, id: 1, mark: 1.0 }),
            Request::Cnt { r: 0, sinit: 1, id: 1, single: true },
        ];
        let msg = LassMsg::Requests { visited: NodeSet::singleton(1), reqs: stale };
        nodes[0].on_message(&mut ctxs[0], 1, msg);
        assert!(!ctxs[0].has_output());
    }

    /// Forwarding a request writes its history entry and nothing else:
    /// over 100 000 resources the forwarder materializes no `ResState`.
    /// The history survives until the token reaches the forwarder, is
    /// replayed into the token's queue there, and stays for a later replay
    /// after the token leaves again.
    #[test]
    fn a_forwarded_request_is_replayed_from_its_own_table() {
        let r = 99_999;
        let mut nodes = LassConfig::without_loan(3, 100_000).build_nodes();
        let mut ctxs: Vec<Ctx<LassMsg>> = (0..3).map(|i| Ctx::new(i, 3)).collect();
        let theirs = Request::Res(ResReq { r, sinit: 2, id: 1, mark: 1.0 });
        let msg = LassMsg::Requests { visited: NodeSet::singleton(2), reqs: vec![theirs.clone()] };
        nodes[1].on_message(&mut ctxs[1], 2, msg);
        let out = ctxs[1].take_outbox();
        assert!(matches!(&out[..], [(0, LassMsg::Requests { reqs, .. })] if reqs[..] == [theirs.clone()]));
        assert_eq!((nodes[1].res.materialized(), nodes[1].pending.materialized()), (0, 1));
        // The forwarded copy is still on its way when site 1 asks for the
        // token itself and gets it.
        nodes[1].request(&mut ctxs[1], ResourceSet::singleton(r));
        let (_, ask) = ctxs[1].take_outbox().pop().unwrap();
        nodes[0].on_message(&mut ctxs[0], 1, ask);
        let (to, tok) = ctxs[0].take_outbox().pop().unwrap();
        assert!(to == 1 && matches!(tok, LassMsg::Tokens(_)));
        nodes[1].on_message(&mut ctxs[1], 0, tok);
        assert!(ctxs[1].take_granted());
        let queued: Vec<NodeId> = nodes[1].token(r).w_queue.iter().map(|q| q.sinit).collect();
        assert_eq!(queued, [2], "the history was replayed into the queue");
        nodes[1].release(&mut ctxs[1]);
        let out = ctxs[1].take_outbox();
        assert!(matches!(&out[..], [(2, LassMsg::Tokens(_))]), "the token went to the replayed request");
        assert_eq!(nodes[1].pending.get(r).map(History::as_slice), Some([theirs].as_slice()));
    }

    /// A history holds one request in itself and more on the heap; a
    /// replay that leaves one or none brings it back inline, and a newer
    /// request of the same site and kind replaces the older one at the end.
    #[test]
    fn a_history_crosses_the_inline_boundary_both_ways() {
        assert!(std::mem::size_of::<History>() <= 40, "a history is one request wide");
        let res = |sinit, id| Request::Res(ResReq { r: 0, sinit, id, mark: 1.0 });
        let cnt = |sinit, id| Request::Cnt { r: 0, sinit, id, single: false };
        let mut node = Lass::new(0, LassConfig::without_loan(3, 1));
        let form = |node: &Lass| match node.pending.get(0) {
            Some(History::Inline(_)) => "inline",
            _ => "heap",
        };
        node.push_pending(0, &res(1, 1));
        node.push_pending(0, &res(1, 1));
        assert_eq!(form(&node), "inline");
        node.push_pending(0, &cnt(1, 2));
        node.push_pending(0, &res(2, 1));
        node.push_pending(0, &res(1, 3));
        let hist = node.pending.get_mut(0).unwrap();
        assert_eq!(hist.as_slice(), [cnt(1, 2), res(2, 1), res(1, 3)]);
        hist.retain(|q| q.sinit() == 2);
        assert_eq!(form(&node), "inline");
        let hist = node.pending.get_mut(0).unwrap();
        assert_eq!(hist.as_slice(), [res(2, 1)]);
        hist.retain(|_| false);
        assert!(hist.as_slice().is_empty() && form(&node) == "inline");
    }

    /// The staging is lent for one handler: after every entry point the
    /// node holds none, and the thread's block has no open batch.  Site 1
    /// asks site 0 for counters while site 0 holds two of them in its
    /// critical section and site 2 waits for the third, so every entry
    /// point and message kind runs.
    #[test]
    fn every_entry_point_hands_its_staging_back_flushed() {
        use mra_protocol::testkit::{Schedule, VirtualNet};
        let check = |net: &VirtualNet<Lass>| {
            assert!(
                (0..3).all(|i| net.node(i).stage.is_none()),
                "a site kept its staging"
            );
            let stage = STAGING.take().expect("the block went back to the thread");
            let open = [
                stage.buf_req.open.len(),
                stage.buf_cnt.open.len(),
                stage.buf_tok.open.len(),
            ];
            STAGING.set(Some(stage));
            assert_eq!(open, [0; 3], "open batches between handlers");
        };
        let mut net = VirtualNet::new(LassConfig::with_loan(3, 4).build_nodes(), 4);
        for (i, set) in [(1, vec![1, 2, 3]), (0, vec![0, 1, 2]), (2, vec![3])] {
            net.request(i, set.into_iter().collect());
            check(&net);
        }
        let (mut schedule, mut done) = (Schedule::seeded(1), 0);
        loop {
            while net.deliver_one(&mut schedule) {
                check(&net);
            }
            let Some(i) = (0..3).find(|&i| net.in_cs(i)) else {
                break;
            };
            net.release(i);
            check(&net);
            done += 1;
        }
        assert_eq!(done, 3, "every site ran its critical section");
    }

    #[test]
    fn elected_owns_everything_initially() {
        let (nodes, _) = two_nodes();
        assert_eq!(nodes[0].owned().len(), 3);
        assert!(nodes[1].owned().is_empty());
        assert_eq!(nodes[1].father(0), Some(0));
        assert_eq!(nodes[0].father(0), None);
    }

    #[test]
    fn local_request_grants_immediately() {
        let (mut nodes, mut ctxs) = two_nodes();
        let set: ResourceSet = [0, 2].into_iter().collect();
        nodes[0].request(&mut ctxs[0], set);
        assert!(ctxs[0].take_granted());
        assert_eq!(nodes[0].state(), ProcState::InCS);
        // Counters were reserved for the request.
        assert_eq!(nodes[0].vector()[0], 1);
        assert_eq!(nodes[0].vector()[2], 1);
        assert_eq!(nodes[0].vector()[1], 0);
        assert_eq!(nodes[0].mark(), 1.0);
        nodes[0].release(&mut ctxs[0]);
        assert_eq!(nodes[0].state(), ProcState::Idle);
        assert!(!ctxs[0].has_output(), "no messages for a purely local cycle");
    }

    #[test]
    fn remote_multi_resource_request_uses_counter_phase() {
        let (mut nodes, mut ctxs) = two_nodes();
        let set: ResourceSet = [0, 1].into_iter().collect();
        nodes[1].request(&mut ctxs[1], set);
        assert_eq!(nodes[1].state(), ProcState::WaitS);
        let out = ctxs[1].take_outbox();
        assert_eq!(out.len(), 1, "both ReqCnt aggregate to one message");
        let (to, msg) = &out[0];
        assert_eq!(*to, 0);
        match msg {
            LassMsg::Requests { reqs, visited } => {
                assert_eq!(reqs.len(), 2);
                assert!(visited.contains(1));
                assert!(reqs.iter().all(|q| q.kind() == "ReqCnt"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_resource_request_is_one_message() {
        let (mut nodes, mut ctxs) = two_nodes();
        nodes[1].request(&mut ctxs[1], ResourceSet::singleton(2));
        assert_eq!(nodes[1].state(), ProcState::WaitCS, "skips waitS");
        let out = ctxs[1].take_outbox();
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            LassMsg::Requests { reqs, .. } => {
                assert_eq!(reqs.len(), 1);
                assert_eq!(reqs[0].kind(), "ReqCnt1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn idle_holder_answers_counter_and_keeps_token() {
        let (mut nodes, mut ctxs) = two_nodes();
        // Make node 0 require resources 0,1 so it answers with a counter
        // value instead of shipping the token.
        let set01: ResourceSet = [0, 1].into_iter().collect();
        nodes[0].request(&mut ctxs[0], set01.clone());
        assert!(ctxs[0].take_granted());

        nodes[1].request(&mut ctxs[1], set01);
        let out = ctxs[1].take_outbox();
        let (_, msg) = out.into_iter().next().unwrap();
        nodes[0].on_message(&mut ctxs[0], 1, msg);
        let reply = ctxs[0].take_outbox();
        assert_eq!(reply.len(), 1);
        match &reply[0].1 {
            LassMsg::Counters(vals) => {
                assert_eq!(vals.len(), 2);
                // Node 0 took value 1 for itself; node 1 gets value 2.
                assert!(vals.iter().all(|c| c.val == 2));
            }
            other => panic!("expected counters, got {other:?}"),
        }
        assert_eq!(nodes[0].owned().len(), 3, "token stays with the user");
    }

    #[test]
    fn holder_ships_token_for_unrequired_resource() {
        let (mut nodes, mut ctxs) = two_nodes();
        // Node 0 idle; node 1 asks counters for {0,1}: tokens come straight
        // over because node 0 does not require them.
        let set: ResourceSet = [0, 1].into_iter().collect();
        nodes[1].request(&mut ctxs[1], set);
        let (_, msg) = ctxs[1].take_outbox().into_iter().next().unwrap();
        nodes[0].on_message(&mut ctxs[0], 1, msg);
        let reply = ctxs[0].take_outbox();
        assert_eq!(reply.len(), 1);
        match &reply[0].1 {
            LassMsg::Tokens(toks) => assert_eq!(toks.len(), 2),
            other => panic!("expected tokens, got {other:?}"),
        }
        assert_eq!(nodes[0].owned().len(), 1);
        // Deliver the tokens: node 1 enters CS.
        let (_, msg) = reply.into_iter().next().unwrap();
        nodes[1].on_message(&mut ctxs[1], 0, msg);
        assert!(ctxs[1].take_granted());
        assert_eq!(nodes[1].state(), ProcState::InCS);
        // Counters were reserved by processUpdate on arrival.
        assert_eq!(nodes[1].vector()[0], 1);
        assert_eq!(nodes[1].vector()[1], 1);
    }

    #[test]
    fn release_passes_token_to_queue_head() {
        let (mut nodes, mut ctxs) = two_nodes();
        let set: ResourceSet = ResourceSet::singleton(0);
        // Node 0 enters CS on resource 0.
        nodes[0].request(&mut ctxs[0], set.clone());
        assert!(ctxs[0].take_granted());
        // Node 1 requests the same resource (single-resource fast path).
        nodes[1].request(&mut ctxs[1], set);
        let (_, msg) = ctxs[1].take_outbox().into_iter().next().unwrap();
        nodes[0].on_message(&mut ctxs[0], 1, msg);
        assert!(ctxs[0].take_outbox().is_empty(), "request queued, not answered");
        assert_eq!(nodes[0].token(0).w_queue.len(), 1);
        // Release: token goes to node 1.
        nodes[0].release(&mut ctxs[0]);
        let out = ctxs[0].take_outbox();
        assert_eq!(out.len(), 1);
        nodes[1].on_message(&mut ctxs[1], 0, out.into_iter().next().unwrap().1);
        assert!(ctxs[1].take_granted());
    }

    #[test]
    fn obsolete_requests_are_dropped() {
        let (mut nodes, mut ctxs) = two_nodes();
        // Simulate a stale wandering request: id 0 is always obsolete after
        // any CS of node 1... here last_cs starts at 0 so id must be ≤ 0.
        let stale = LassMsg::Requests {
            visited: NodeSet::singleton(1),
            reqs: vec![Request::Res(ResReq {
                r: 0,
                sinit: 1,
                id: 0,
                mark: 0.5,
            })],
        };
        nodes[0].on_message(&mut ctxs[0], 1, stale);
        assert!(ctxs[0].take_outbox().is_empty());
        assert!(nodes[0].token(0).w_queue.is_empty());
    }

    #[test]
    fn waits_yields_token_to_res_request() {
        let cfg = LassConfig::without_loan(3, 3);
        let mut nodes = cfg.build_nodes();
        let mut ctxs: Vec<Ctx<LassMsg>> = (0..3).map(|i| Ctx::new(i, 3)).collect();
        // Node 0 starts a request for {0,1,2}: takes counters locally,
        // enters CS immediately... avoid that: give node 0 a request for
        // {0,1} and let it be in waitS? It owns everything, so it can't
        // wait.  Instead: ship token 0 to node 1 first.
        nodes[2].request(&mut ctxs[2], ResourceSet::singleton(0));
        let (_, m) = ctxs[2].take_outbox().into_iter().next().unwrap();
        nodes[0].on_message(&mut ctxs[0], 2, m);
        let (_, m) = ctxs[0].take_outbox().into_iter().next().unwrap();
        nodes[2].on_message(&mut ctxs[2], 0, m);
        assert!(ctxs[2].take_granted());
        // Now node 0 requests {0,1}: it owns 1 (takes counter locally) and
        // needs the counter of 0 from node 2 → waitS.
        nodes[0].request(&mut ctxs[0], [0, 1].into_iter().collect());
        assert_eq!(nodes[0].state(), ProcState::WaitS);
        let out = ctxs[0].take_outbox(); // ReqCnt for 0 to node 2
        assert_eq!(out[0].0, 2);
        // While node 0 is in waitS, node 1 sends it a ReqRes for resource 1.
        let rr = LassMsg::Requests {
            visited: NodeSet::singleton(1),
            reqs: vec![Request::Res(ResReq {
                r: 1,
                sinit: 1,
                id: 1,
                mark: 3.0,
            })],
        };
        nodes[0].on_message(&mut ctxs[0], 1, rr);
        let sent = ctxs[0].take_outbox();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, 1, "token 1 yielded to node 1 despite waitS");
        assert!(!nodes[0].owned().contains(1));
    }
}

//! What a LASS site keeps per resource, and the one way its handlers reach
//! it.  Every layout of the per-resource state lives here:
//! * [`ResState`], 40 bytes per touched resource: `tokDir[r]`, the token
//!   while owned (boxed on its first change) and [`Seen`] (`lastTok[r]`);
//! * [`History`], the requests forwarded towards a holder (§4.2.1), in a
//!   table of their own: few entries ever hold one;
//! * the owned tokens and the work list, the owned tokens with work
//!   ([`Token::has_work`]), which the "every owned token" scans (annex A
//!   lines 217–252) walk instead.
//!
//! Both tables are a dense vector at paper scale (M ≤ 4096) and a map
//! materialized on first write above.  An absent entry is the initial
//! state: the father is the elected site (none on the elected site
//! itself), the token is fresh, the history empty.
//!
//! A token changes only through a [`Held`] guard, which puts the token on
//! the work list or takes it off when it drops: every owned token with
//! work is on the list, and no other resource is.

use crate::messages::Request;
use crate::token::{obsolete, Stamps, Token};
use mra_types::{NodeId, ResTable, ResourceId, ResourceSet, SetIter};
use std::ops::{Deref, DerefMut};

/// One resource as this site knows it; 40 bytes, what every entry needs.
#[derive(Clone)]
struct ResState {
    /// Father pointer in the resource's tree; `None` iff this site owns
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
    fn initial(father: Option<NodeId>) -> Self {
        ResState { father: father.map(site32), held: None, seen: Seen::fresh() }
    }
}

/// `res`'s entry for `r`, materialized on first touch with `father` as its
/// father pointer.  A free function, so that a caller can hold the entry
/// while it touches the store's other fields.
fn entry(res: &mut ResTable<ResState>, r: ResourceId, father: Option<NodeId>) -> &mut ResState {
    res.get_or(r, |_| ResState::initial(father))
}

/// What a site keeps of a token it sent away: the counter and stamp rows
/// at departure, the paper's `lastTok[r]` as far as anything reads it
/// (obsolete requests are dropped against it).  The queues and the lender
/// went with the token, which has one copy only.  The rows sit in an
/// exact-size box of 12 bytes a row (none allocated while empty), refilled
/// in place while the row count stays.
#[derive(Clone)]
struct Seen {
    counter: u64,
    stamps: Box<[Stamps]>,
}

impl Seen {
    /// What a site knows of a token it has never sent: a fresh one.
    fn fresh() -> Seen {
        Seen { counter: 1, stamps: Box::default() }
    }

    /// Keep `tok`'s counter and stamps as it leaves.
    fn record(&mut self, tok: &Token) {
        self.counter = tok.counter;
        let rows = tok.stamp_rows();
        if self.stamps.len() == rows.len() {
            self.stamps.copy_from_slice(rows);
        } else {
            self.stamps = rows.into();
        }
    }
}

/// The requests a site forwarded towards one resource's holder (§4.2.1),
/// in the order they were kept: inline while there is at most one, which
/// is most histories (14 353 of 18 165 on the 10 000-site shape), a heap
/// vector past that.  As with a token's stamp rows, the count alone
/// decides the form, in both directions.
#[derive(Clone)]
pub(super) enum History {
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

    /// Keep `req`, copied only if it is new here.  One live entry per
    /// (site, kind) is enough: ids only grow.  A newer request replaces its
    /// older one and moves to the end, as if removed and pushed, without
    /// the history changing its length.
    pub(super) fn keep(&mut self, req: &Request) {
        let key = |q: &Request| (q.sinit(), std::mem::discriminant(q));
        let reqs = self.as_mut_slice();
        match reqs.iter().position(|q| key(q) == key(req)) {
            Some(i) if reqs[i].id() >= req.id() => {}
            Some(i) => {
                reqs[i..].rotate_left(1);
                reqs[reqs.len() - 1] = req.clone();
            }
            None => self.push(req.clone()),
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
    pub(super) fn retain(&mut self, mut keep: impl FnMut(&Request) -> bool) {
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

#[derive(Clone)]
pub(super) struct Store {
    /// Father pointer, token and departure stamps per resource.
    res: ResTable<ResState>,
    /// Forwarded requests per resource.  Forwarding writes here only, so a
    /// resource this site merely forwards for has no `res` entry.
    pending: ResTable<History>,
    /// Father pointer of a resource this site has not touched.
    initial_father: Option<NodeId>,
    /// Owned tokens (`tOwned`), and those with work, kept by [`Held`].
    owned: ResourceSet,
    work: ResourceSet,
}

impl Store {
    /// The store of a site over `m` resources whose untouched entries point
    /// at `initial_father`; with none, the site is the elected one and owns
    /// every token.
    pub(super) fn new(m: usize, initial_father: Option<NodeId>) -> Store {
        Store {
            res: ResTable::new_with(m, |_| ResState::initial(initial_father)),
            pending: ResTable::new_with(m, |_| History::EMPTY),
            initial_father,
            owned: if initial_father.is_none() { ResourceSet::full(m) } else { ResourceSet::new() },
            work: ResourceSet::new(),
        }
    }

    /// The owned tokens (`tOwned`).
    pub(super) fn owned(&self) -> &ResourceSet {
        &self.owned
    }

    /// The owned tokens with work, ascending: a snapshot, so a walk may
    /// send tokens away ([`Store::with_work`] skips those).
    pub(super) fn owned_with_work(&self) -> SetIter {
        self.work.iter()
    }

    /// `tokDir[r]`: `None` iff this site owns the token.
    pub(super) fn father(&self, r: ResourceId) -> Option<NodeId> {
        match self.res.get(r) {
            Some(st) => st.father.map(|f| f as NodeId),
            None => self.initial_father,
        }
    }

    /// Re-point the father of `r`, a token this site does not own, at `s`.
    pub(super) fn set_father(&mut self, r: ResourceId, s: NodeId) {
        debug_assert!(!self.owned.contains(r), "re-pointing owned token {r}");
        entry(&mut self.res, r, self.initial_father).father = Some(site32(s));
    }

    /// Is `req` obsolete against the token while held, else against its
    /// stamps when it left?  Nothing is, against an untouched one.
    pub(super) fn obsolete(&self, r: ResourceId, req: &Request) -> bool {
        self.res.get(r).is_some_and(|st| match &st.held {
            Some(t) => {
                debug_assert!(self.owned.contains(r), "token {r} held unowned");
                t.obsolete(req)
            }
            None => obsolete(&st.seen.stamps, req),
        })
    }

    /// The token of `r`, if held boxed (an owned token that never changed
    /// is fresh: no lender, empty queues, all-zero stamps).
    pub(super) fn held(&self, r: ResourceId) -> Option<&Token> {
        self.res.get(r).and_then(|st| st.held.as_deref())
    }

    /// Is the token of `r` here on loan?  Only a token with work can be.
    pub(super) fn borrowed(&self, r: ResourceId) -> bool {
        self.work.contains(r) && self.held(r).is_some_and(|t| t.lender.is_some())
    }

    /// The owned token of `r`, boxed on its first change.
    pub(super) fn held_mut(&mut self, r: ResourceId) -> Held<'_> {
        debug_assert!(self.owned.contains(r), "changing unowned token {r}");
        let st = entry(&mut self.res, r, self.initial_father);
        st.held.get_or_insert_with(|| Box::new(Token::new(r)));
        Held { st, r, owned: &mut self.owned, work: &mut self.work }
    }

    /// The token of `r` if it is still an owned token with work.
    pub(super) fn with_work(&mut self, r: ResourceId) -> Option<Held<'_>> {
        if !self.work.contains(r) {
            return None;
        }
        let st = self.res.get_mut(r)?;
        debug_assert!(st.held.is_some(), "token {r} with work is not held");
        Some(Held { st, r, owned: &mut self.owned, work: &mut self.work })
    }

    /// `tok` arrives: this site owns it and roots its tree.  With its guard
    /// comes the history of its resource, if one was ever kept, to replay.
    pub(super) fn arrive(&mut self, tok: Box<Token>) -> (Held<'_>, Option<&mut History>) {
        let r = tok.r;
        debug_assert!(!self.owned.contains(r), "duplicate token {r}");
        self.owned.insert(r);
        let st = entry(&mut self.res, r, self.initial_father);
        st.father = None;
        st.held = Some(tok);
        let held = Held { st, r, owned: &mut self.owned, work: &mut self.work };
        (held, self.pending.get_mut(r))
    }

    /// The history of `r`, materialized on first use.
    pub(super) fn history_mut(&mut self, r: ResourceId) -> &mut History {
        self.pending.get_or(r, |_| History::EMPTY)
    }

    /// The token of `r` if owned; otherwise its counter and stamps when it
    /// last left this site, with empty queues (fresh if it never did).
    pub(super) fn token(&self, r: ResourceId) -> Token {
        match self.res.get(r) {
            Some(ResState { held: Some(t), .. }) => Token::clone(t),
            Some(st) => Token::with_stamps(r, st.seen.counter, &st.seen.stamps),
            None => Token::new(r),
        }
    }
}

/// An owned token open for change.  When the guard drops, the token is on
/// the work list if it has work and off it if not; [`Held::depart`] sends
/// it away instead.
pub(super) struct Held<'a> {
    st: &'a mut ResState,
    r: ResourceId,
    owned: &'a mut ResourceSet,
    work: &'a mut ResourceSet,
}

const HELD: &str = "a guard holds its token";

impl Held<'_> {
    /// `SendToken` (annex A line 102): the token leaves for `dest`, which
    /// becomes the father; the entry keeps its counter and stamps.
    pub(super) fn depart(self, dest: NodeId) -> Box<Token> {
        let tok = self.st.held.take().expect(HELD);
        self.st.seen.record(&tok);
        self.st.father = Some(site32(dest));
        self.owned.remove(self.r);
        tok
    }
}

impl Deref for Held<'_> {
    type Target = Token;
    fn deref(&self) -> &Token {
        self.st.held.as_deref().expect(HELD)
    }
}

impl DerefMut for Held<'_> {
    fn deref_mut(&mut self) -> &mut Token {
        self.st.held.as_deref_mut().expect(HELD)
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        if self.st.held.as_deref().is_some_and(Token::has_work) {
            self.work.insert(self.r);
        } else {
            self.work.remove(self.r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lass::LassConfig;
    use crate::messages::{LassMsg, LoanReq, ResReq};
    use mra_protocol::{Allocator, Ctx};
    use mra_types::NodeSet;

    /// "Absent means initial": on a sparse table (m = 100 000) an entry
    /// never touched and one materialized but untouched answer what a
    /// dense table's (m = 80) entry answers — father, token, obsolescence —
    /// on the elected site and on another.  (Request ids start at 1.)
    #[test]
    fn absent_and_untouched_entries_answer_alike() {
        assert!(std::mem::size_of::<ResState>() <= 40, "an entry holds no token or history inline");
        let r = 17;
        let reqs = [
            Request::Cnt { r, sinit: 1, id: 1, single: false },
            Request::Cnt { r, sinit: 2, id: 3, single: true },
            Request::Res(ResReq { r, sinit: 1, id: 2, mark: 1.5 }),
            Request::Loan(Box::new(LoanReq {
                r,
                sinit: 2,
                id: 1,
                mark: 1.0,
                missing: ResourceSet::singleton(r),
            })),
        ];
        let answers = |store: &Store| {
            let obsolete: Vec<bool> = reqs.iter().map(|q| store.obsolete(r, q)).collect();
            (store.father(r), format!("{:?}", store.token(r)), obsolete)
        };
        for father in [None, Some(0)] {
            let dense = Store::new(80, father);
            let absent = Store::new(100_000, father);
            let mut touched = absent.clone();
            entry(&mut touched.res, r, father);
            assert!(dense.res.is_dense() && !absent.res.is_dense());
            assert_eq!((absent.res.materialized(), touched.res.materialized()), (0, 1));
            let want = answers(&dense);
            assert_eq!(want.0, father);
            assert_eq!(answers(&absent), want, "absent entry, father {father:?}");
            assert_eq!(answers(&touched), want, "untouched entry, father {father:?}");
        }
    }

    /// The guard keeps the work list: a token joins it when a change leaves
    /// it with work, leaves it when its work is done, and leaves it when
    /// it departs; a fresh token changed without work never joins.
    #[test]
    fn the_guard_keeps_the_work_list() {
        let mut store = Store::new(100_000, None);
        let list = |store: &Store| store.owned_with_work().collect::<Vec<_>>();
        store.held_mut(7).set_last_cs(1, 1);
        assert!(list(&store).is_empty());
        store.held_mut(7).enqueue_res(ResReq { r: 7, sinit: 1, id: 2, mark: 1.0 });
        store.held_mut(99_999).lender = Some(3);
        assert_eq!(list(&store), [7, 99_999]);
        assert!(store.borrowed(99_999) && !store.borrowed(7));
        store.with_work(7).expect("on the list").dequeue();
        assert_eq!(list(&store), [99_999]);
        let tok = store.with_work(99_999).expect("on the list").depart(3);
        assert!(list(&store).is_empty() && store.with_work(99_999).is_none());
        assert_eq!((store.father(99_999), store.owned().contains(99_999)), (Some(3), false));
        let (held, history) = store.arrive(tok);
        assert!(history.is_none());
        drop(held);
        assert_eq!(list(&store), [99_999], "a token arriving on loan has work");
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
        let store = &nodes[1].store;
        assert_eq!((store.res.materialized(), store.pending.materialized()), (0, 1));
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
        assert_eq!(nodes[1].store.pending.get(r).map(History::as_slice), Some([theirs].as_slice()));
    }

    /// A history holds one request in itself and more on the heap; a
    /// replay that leaves one or none brings it back inline, and a newer
    /// request of the same site and kind replaces the older one at the end.
    #[test]
    fn a_history_crosses_the_inline_boundary_both_ways() {
        assert!(std::mem::size_of::<History>() <= 40, "a history is one request wide");
        let res = |sinit, id| Request::Res(ResReq { r: 0, sinit, id, mark: 1.0 });
        let cnt = |sinit, id| Request::Cnt { r: 0, sinit, id, single: false };
        let inline = |hist: &History| matches!(hist, History::Inline(_));
        let mut hist = History::EMPTY;
        hist.keep(&res(1, 1));
        hist.keep(&res(1, 1));
        assert!(inline(&hist));
        hist.keep(&cnt(1, 2));
        hist.keep(&res(2, 1));
        hist.keep(&res(1, 3));
        assert_eq!(hist.as_slice(), [cnt(1, 2), res(2, 1), res(1, 3)]);
        hist.retain(|q| q.sinit() == 2);
        assert!(inline(&hist));
        assert_eq!(hist.as_slice(), [res(2, 1)]);
        hist.retain(|_| false);
        assert!(hist.as_slice().is_empty() && inline(&hist));
    }
}

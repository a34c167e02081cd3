//! Wire messages of the LASS algorithm (paper §4.2, annex A figure 8).
//!
//! The five logical message types of the paper map onto three wire messages
//! because of the aggregation mechanism (§4.2.2): request messages travelling
//! to the same destination are batched and share one visited-node set, and
//! response messages (counters, tokens) are batched per destination.

use crate::token::Token;
use mra_protocol::WireMsg;
use mra_types::{NodeId, NodeSet, RequestId, ResourceId, ResourceSet};

/// A resource request (`ReqRes`): "give me the token of `r` for my request
/// `id`, whose scheduling mark is `mark`".
#[derive(Clone, Debug, PartialEq)]
pub struct ResReq {
    /// Requested resource.
    pub r: ResourceId,
    /// Requesting site.
    pub sinit: NodeId,
    /// The requester's critical-section request id.
    pub id: RequestId,
    /// `A(MyVector)` of the requester, fixed at send time.
    pub mark: f64,
}

/// A loan request (`ReqLoan`): "I wait in `waitCS` for exactly the resources
/// in `missing`; if you own them all, lend them to me".
#[derive(Clone, Debug, PartialEq)]
pub struct LoanReq {
    /// The resource whose token tree carries this request.
    pub r: ResourceId,
    /// Requesting (borrower) site.
    pub sinit: NodeId,
    /// The borrower's critical-section request id.
    pub id: RequestId,
    /// The borrower's scheduling mark.
    pub mark: f64,
    /// The full set of resources the borrower is missing.
    pub missing: ResourceSet,
}

/// A request message, forwarded hop by hop along the token tree of its
/// resource until it reaches the token holder (or is cut off and replayed
/// from a forwarder's pending history).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `ReqCnt`: ask the holder for the current counter value of `r`.
    ///
    /// With `single == true` this is a whole single-resource request
    /// (optimization §4.6.1): the holder computes the mark itself and treats
    /// the message as a `ReqRes`.
    Cnt {
        /// Requested resource.
        r: ResourceId,
        /// Requesting site.
        sinit: NodeId,
        /// Critical-section request id.
        id: RequestId,
        /// Single-resource-request optimization flag.
        single: bool,
    },
    /// `ReqRes`: ask for the token itself.
    Res(ResReq),
    /// `ReqLoan`: ask for a loan of all missing resources.
    ///
    /// Boxed: a loan is about one request in fifty, and its 40-byte
    /// `missing` set inline would size every `ReqCnt` and `ReqRes` in
    /// request batches and pending histories (72 bytes, not 40).
    Loan(Box<LoanReq>),
}

impl Request {
    /// The resource this request concerns.
    pub fn r(&self) -> ResourceId {
        match self {
            Request::Cnt { r, .. } => *r,
            Request::Res(q) => q.r,
            Request::Loan(q) => q.r,
        }
    }

    /// The requesting site.
    pub fn sinit(&self) -> NodeId {
        match self {
            Request::Cnt { sinit, .. } => *sinit,
            Request::Res(q) => q.sinit,
            Request::Loan(q) => q.sinit,
        }
    }

    /// The critical-section request id.
    pub fn id(&self) -> RequestId {
        match self {
            Request::Cnt { id, .. } => *id,
            Request::Res(q) => q.id,
            Request::Loan(q) => q.id,
        }
    }

    /// Short kind tag (metrics, debugging).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Cnt { single: false, .. } => "ReqCnt",
            Request::Cnt { single: true, .. } => "ReqCnt1",
            Request::Res(_) => "ReqRes",
            Request::Loan(_) => "ReqLoan",
        }
    }
}

/// A counter value returned to a requester (`Counter` message).
///
/// `[deviation]` The paper's `Counter` carries only `(r, val)`; we add the
/// request `id` so stale replies (left over after the requester obtained the
/// token, and its counter value, directly) can be discarded instead of
/// corrupting `MyVector`.  See DESIGN.md §6.1.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterVal {
    /// Resource whose counter was read.
    pub r: ResourceId,
    /// The value reserved for this request.
    pub val: u64,
    /// The request id the value was assigned to.
    pub id: RequestId,
}

/// The three wire messages (after aggregation).
#[derive(Clone, Debug)]
pub enum LassMsg {
    /// A batch of request messages sharing a visited-node set (§4.2.1-2).
    Requests {
        /// Nodes already visited by these requests; forwarding stops when
        /// the next hop is already in the set.
        visited: NodeSet,
        /// The batched requests.
        reqs: Vec<Request>,
    },
    /// A batch of counter replies, sent directly to the requester.
    Counters(Vec<CounterVal>),
    /// A batch of resource tokens, sent directly to their next holder: each
    /// moves in the one box it keeps for life.
    Tokens(Vec<Box<Token>>),
}

impl WireMsg for LassMsg {
    fn kind(&self) -> &'static str {
        match self {
            LassMsg::Requests { reqs, .. } => {
                // Dominant kind of the batch (batches are homogeneous in
                // practice: they are flushed per handler invocation).
                reqs.first().map(|r| r.kind()).unwrap_or("Requests")
            }
            LassMsg::Counters(_) => "Counter",
            LassMsg::Tokens(_) => "Token",
        }
    }

    fn weight(&self) -> usize {
        match self {
            LassMsg::Requests { reqs, .. } => {
                4 + reqs
                    .iter()
                    .map(|q| match q {
                        Request::Cnt { .. } => 4,
                        Request::Res(_) => 5,
                        Request::Loan(_) => 9,
                    })
                    .sum::<usize>()
            }
            LassMsg::Counters(cs) => 3 * cs.len(),
            LassMsg::Tokens(ts) => ts.iter().map(|t| t.weight()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_res() -> ResReq {
        ResReq {
            r: 3,
            sinit: 1,
            id: 7,
            mark: 2.5,
        }
    }

    #[test]
    fn request_accessors() {
        let c = Request::Cnt {
            r: 2,
            sinit: 4,
            id: 9,
            single: false,
        };
        assert_eq!((c.r(), c.sinit(), c.id(), c.kind()), (2, 4, 9, "ReqCnt"));
        let r = Request::Res(sample_res());
        assert_eq!((r.r(), r.sinit(), r.id(), r.kind()), (3, 1, 7, "ReqRes"));
        let l = Request::Loan(Box::new(LoanReq {
            r: 0,
            sinit: 2,
            id: 1,
            mark: 0.0,
            missing: ResourceSet::singleton(0),
        }));
        assert_eq!((l.r(), l.sinit(), l.id(), l.kind()), (0, 2, 1, "ReqLoan"));
        let s = Request::Cnt {
            r: 2,
            sinit: 4,
            id: 9,
            single: true,
        };
        assert_eq!(s.kind(), "ReqCnt1");
    }

    #[test]
    fn message_kinds_and_weights() {
        let m = LassMsg::Requests {
            visited: NodeSet::singleton(0),
            reqs: vec![Request::Res(sample_res())],
        };
        assert_eq!(m.kind(), "ReqRes");
        assert_eq!(m.weight(), 9);
        let c = LassMsg::Counters(vec![CounterVal { r: 0, val: 1, id: 1 }]);
        assert_eq!(c.kind(), "Counter");
        assert_eq!(c.weight(), 3);
    }
}

//! Binary wire codecs for the LASS messages (see `mra_protocol::wire`).
//!
//! Layouts (all integers little-endian, ids as `u32`, counters as `u64`,
//! marks as `f64` bit patterns, sets as length-prefixed
//! [`mra_types::DynSet`] words):
//!
//! ```text
//! ResReq     := r:u32 sinit:u32 id:u64 mark:f64
//! LoanReq    := r:u32 sinit:u32 id:u64 mark:f64 missing:set
//! Request    := 0 r:u32 sinit:u32 id:u64 single:u8   (Cnt)
//!             | 1 ResReq                              (Res)
//!             | 2 LoanReq                             (Loan)
//! CounterVal := r:u32 val:u64 id:u64
//! stamps     := vec<(site:u32, id:u64)>             (sparse, sorted by site)
//! Token      := r:u32 counter:u64 lastReqC:stamps lastCS:stamps
//!               wQueue:vec<ResReq> wLoan:vec<LoanReq> lender:opt<u32>
//! LassMsg    := 0 visited:set reqs:vec<Request>       (Requests)
//!             | 1 vec<CounterVal>                     (Counters)
//!             | 2 vec<Token>                          (Tokens)
//! ```
//!
//! In memory a token keeps both stamp maps as one table of
//! `(site, lastReqC, lastCS)` rows; the codec writes the two `stamps` lists
//! from those rows and merges them back on decode, so the wire format is
//! the two sparse lists above, unchanged.
//!
//! Decoding rejects ([`DecodeError::Invalid`]) what the handlers assume
//! cannot happen: a mark that is not finite with the sign bit clear
//! (`order_key` orders marks by their bit pattern), a stamp list not
//! strictly sorted by site or holding a zero id (the table is searched by
//! site and holds nonzero stamps only), a wait or loan queue out of `/`
//! order (insertion is a binary search), and a stamped id of 2^32 or more
//! — in a stamp list or a `ReqCnt`, whose id a holder stamps — since a
//! table row keeps ids in 32 bits.  Every other id stays a full `u64`.

use crate::messages::{CounterVal, LassMsg, LoanReq, Request, ResReq};
use crate::policy::order_key;
use crate::token::Token;
use mra_protocol::wire::{put_bool, put_f64, put_u64, put_usize, DecodeError, WireReader};
use mra_protocol::WireCodec;
use mra_types::NodeId;

/// Read a scheduling mark: finite, with the sign bit clear (so `-0.0` too
/// is refused), the only marks on which `order_key` agrees with `/`.
fn get_mark(r: &mut WireReader<'_>, what: &'static str) -> Result<f64, DecodeError> {
    let mark = r.get_f64(what)?;
    if mark.is_sign_negative() || !mark.is_finite() {
        return Err(DecodeError::Invalid { what });
    }
    Ok(mark)
}

/// Read the id of a request a holder stamps into a token (`lastReqC`):
/// carried as a `u64`, it must fit the stamp row's 32 bits.
fn get_stamped_id(r: &mut WireReader<'_>, what: &'static str) -> Result<u64, DecodeError> {
    let id = r.get_u64(what)?;
    if u32::try_from(id).is_err() {
        return Err(DecodeError::Invalid { what });
    }
    Ok(id)
}

/// Accept a decoded wait queue only in `/` order, the order its insertion
/// search assumes.
fn check_order<T>(
    queue: &[T],
    key: impl Fn(&T) -> (u64, NodeId),
    what: &'static str,
) -> Result<(), DecodeError> {
    if queue.windows(2).all(|p| key(&p[0]) <= key(&p[1])) {
        Ok(())
    } else {
        Err(DecodeError::Invalid { what })
    }
}

impl WireCodec for ResReq {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.r);
        put_usize(out, self.sinit);
        put_u64(out, self.id);
        put_f64(out, self.mark);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(ResReq {
            r: r.get_usize("ResReq.r")?,
            sinit: r.get_usize("ResReq.sinit")?,
            id: r.get_u64("ResReq.id")?,
            mark: get_mark(r, "ResReq.mark (finite, sign bit clear)")?,
        })
    }
}

impl WireCodec for LoanReq {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.r);
        put_usize(out, self.sinit);
        put_u64(out, self.id);
        put_f64(out, self.mark);
        self.missing.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(LoanReq {
            r: r.get_usize("LoanReq.r")?,
            sinit: r.get_usize("LoanReq.sinit")?,
            id: r.get_u64("LoanReq.id")?,
            mark: get_mark(r, "LoanReq.mark (finite, sign bit clear)")?,
            missing: WireCodec::decode(r)?,
        })
    }
}

impl WireCodec for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Cnt { r, sinit, id, single } => {
                out.push(0);
                put_usize(out, *r);
                put_usize(out, *sinit);
                put_u64(out, *id);
                put_bool(out, *single);
            }
            Request::Res(q) => {
                out.push(1);
                q.encode(out);
            }
            Request::Loan(q) => {
                out.push(2);
                q.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8("Request tag")? {
            0 => Ok(Request::Cnt {
                r: r.get_usize("Request::Cnt.r")?,
                sinit: r.get_usize("Request::Cnt.sinit")?,
                id: get_stamped_id(r, "Request::Cnt.id (below 2^32)")?,
                single: r.get_bool("Request::Cnt.single")?,
            }),
            1 => Ok(Request::Res(ResReq::decode(r)?)),
            2 => Ok(Request::Loan(Box::new(LoanReq::decode(r)?))),
            tag => Err(DecodeError::BadTag { what: "Request", tag }),
        }
    }
}

impl WireCodec for CounterVal {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.r);
        put_u64(out, self.val);
        put_u64(out, self.id);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(CounterVal {
            r: r.get_usize("CounterVal.r")?,
            val: r.get_u64("CounterVal.val")?,
            id: r.get_u64("CounterVal.id")?,
        })
    }
}

impl WireCodec for Token {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.r);
        put_u64(out, self.counter);
        self.encode_stamps(out);
        self.w_queue.encode(out);
        self.w_loan.encode(out);
        self.lender.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let mut t = Token::new(r.get_usize("Token.r")?);
        t.counter = r.get_u64("Token.counter")?;
        t.decode_stamps(r)?;
        t.w_queue = WireCodec::decode(r)?;
        check_order(&t.w_queue, |q| order_key(q.mark, q.sinit), "Token.wQueue (in / order)")?;
        t.w_loan = WireCodec::decode(r)?;
        check_order(&t.w_loan, |q| order_key(q.mark, q.sinit), "Token.wLoan (in / order)")?;
        t.lender = WireCodec::decode(r)?;
        Ok(t)
    }
}

/// A token travels boxed; its bytes are the token's.
impl WireCodec for Box<Token> {
    fn encode(&self, out: &mut Vec<u8>) {
        Token::encode(self, out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Token::decode(r).map(Box::new)
    }
}

impl WireCodec for LassMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LassMsg::Requests { visited, reqs } => {
                out.push(0);
                visited.encode(out);
                reqs.encode(out);
            }
            LassMsg::Counters(cs) => {
                out.push(1);
                cs.encode(out);
            }
            LassMsg::Tokens(ts) => {
                out.push(2);
                ts.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8("LassMsg tag")? {
            0 => Ok(LassMsg::Requests {
                visited: WireCodec::decode(r)?,
                reqs: WireCodec::decode(r)?,
            }),
            1 => Ok(LassMsg::Counters(WireCodec::decode(r)?)),
            2 => Ok(LassMsg::Tokens(WireCodec::decode(r)?)),
            tag => Err(DecodeError::BadTag { what: "LassMsg", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_types::{NodeSet, ResourceSet};

    #[test]
    fn lass_msg_roundtrips() {
        let tok = {
            let mut t = Token::new(3);
            t.counter = u64::MAX;
            t.set_last_req_c(1, 7);
            t.set_last_cs(2, 9);
            t.enqueue_res(ResReq { r: 3, sinit: 0, id: 2, mark: 1.25 });
            t.enqueue_loan(LoanReq {
                r: 3,
                sinit: 1,
                id: 4,
                mark: 0.5,
                missing: ResourceSet::full(256),
            });
            t.lender = Some(2);
            t
        };
        let msgs = [
            LassMsg::Requests {
                visited: NodeSet::singleton(255),
                reqs: vec![
                    Request::Cnt { r: 1, sinit: 2, id: 3, single: true },
                    Request::Res(ResReq { r: 0, sinit: 1, id: u64::MAX, mark: 2.5 }),
                    Request::Loan(Box::new(LoanReq {
                        r: 2,
                        sinit: 3,
                        id: 1,
                        mark: 8.0,
                        missing: ResourceSet::singleton(2),
                    })),
                ],
            },
            LassMsg::Counters(vec![CounterVal { r: 9, val: u64::MAX, id: 1 }]),
            LassMsg::Tokens(vec![Box::new(tok)]),
        ];
        for m in &msgs {
            let bytes = m.to_bytes();
            let back = LassMsg::from_bytes(&bytes).unwrap();
            // LassMsg has no PartialEq (Token is stateful); byte and Debug
            // equality together pin the roundtrip.
            assert_eq!(back.to_bytes(), bytes);
            assert_eq!(format!("{back:?}"), format!("{m:?}"));
        }
    }

    /// The token's wire bytes, written out field by field: both stamp kinds
    /// over different site sets (row 4 carries both), a wait queue, a loan
    /// queue and a lender.  A format change fails here even where the
    /// round-trip laws would still hold.
    #[test]
    fn token_wire_bytes_are_pinned() {
        let mut t = Token::new(3);
        t.counter = 17;
        t.set_last_cs(6, 1);
        t.set_last_req_c(4, 2);
        t.set_last_cs(0, 5);
        t.set_last_req_c(1, 7);
        t.set_last_cs(4, 9);
        t.enqueue_res(ResReq { r: 3, sinit: 5, id: 3, mark: 2.0 });
        t.enqueue_res(ResReq { r: 3, sinit: 2, id: 8, mark: 1.5 });
        let missing = ResourceSet::singleton(3);
        t.enqueue_loan(LoanReq { r: 3, sinit: 6, id: 4, mark: 0.75, missing });
        t.lender = Some(1);
        #[rustfmt::skip]
        let golden: &[u8] = &[
            // LassMsg::Tokens, one token
            2, 1, 0, 0, 0,
            // r = 3, counter = 17
            3, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0, 0,
            // lastReqC: 1 -> 7, 4 -> 2
            2, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
            // lastCS: 0 -> 5, 4 -> 9, 6 -> 1
            3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 6,
            0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
            // wQueue: (site 2, id 8, mark 1.5), (site 5, id 3, mark 2.0)
            2, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 248, 63,
            3, 0, 0, 0, 5, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 64,
            // wLoan: (site 6, id 4, mark 0.75, missing {3})
            1, 0, 0, 0, 3, 0, 0, 0, 6, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 232, 63,
            1, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
            // lender: Some(1)
            1, 1, 0, 0, 0,
        ];
        let msg = LassMsg::Tokens(vec![Box::new(t)]);
        assert_eq!(msg.to_bytes(), golden);
        let back = LassMsg::from_bytes(golden).unwrap();
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
    }

    /// A one-token frame with the given stamp lists and queues, written
    /// without any of the checks the decoder applies.
    fn token_frame(
        req_c: &[(usize, u64)],
        cs: &[(usize, u64)],
        queue: &[ResReq],
        loans: &[LoanReq],
    ) -> Vec<u8> {
        let mut out = vec![2];
        put_usize(&mut out, 1);
        put_usize(&mut out, 0);
        put_u64(&mut out, 1);
        req_c.to_vec().encode(&mut out);
        cs.to_vec().encode(&mut out);
        queue.to_vec().encode(&mut out);
        loans.to_vec().encode(&mut out);
        None::<usize>.encode(&mut out);
        out
    }

    /// Does decoding `bytes` fail on the rule of the value named `value`?
    fn rejected(bytes: &[u8], value: &str) -> bool {
        let err = LassMsg::from_bytes(bytes).err();
        matches!(err, Some(DecodeError::Invalid { what }) if what.starts_with(value))
    }

    #[test]
    fn malformed_frames_are_rejected_one_rule_each() {
        let res = |sinit, mark| ResReq { r: 0, sinit, id: 1, mark };
        let loan = |sinit, mark| LoanReq { r: 0, sinit, id: 1, mark, missing: ResourceSet::EMPTY };
        let ok = token_frame(&[(1, 7), (4, 2)], &[(0, 5), (4, 9), (6, 1)], &[], &[]);
        assert!(LassMsg::from_bytes(&ok).is_ok());
        // Marks: finite with the sign bit clear; `-0.0 >= 0.0` holds, yet
        // it would sort last in a queue and first under `/`.
        for mark in [-0.0, -1.0, f64::INFINITY, f64::NAN] {
            let reqs = vec![Request::Res(res(1, mark))];
            let bytes = LassMsg::Requests { visited: NodeSet::EMPTY, reqs }.to_bytes();
            assert!(rejected(&bytes, "ResReq.mark"), "mark {mark}");
            let reqs = vec![Request::Loan(Box::new(loan(1, mark)))];
            let bytes = LassMsg::Requests { visited: NodeSet::EMPTY, reqs }.to_bytes();
            assert!(rejected(&bytes, "LoanReq.mark"), "mark {mark}");
        }
        // Stamp lists: strictly sorted by site...
        assert!(rejected(&token_frame(&[(4, 2), (1, 7)], &[], &[], &[]), "Token.lastReqC"));
        // ...so no site twice...
        assert!(rejected(&token_frame(&[], &[(4, 9), (4, 9)], &[], &[]), "Token.lastCS"));
        // ...and nonzero ids only.
        assert!(rejected(&token_frame(&[(1, 0)], &[], &[], &[]), "Token.lastReqC"));
        // Queues in `/` order: mark first, then site.
        let queue = [res(5, 2.0), res(2, 1.5)];
        assert!(rejected(&token_frame(&[], &[], &queue, &[]), "Token.wQueue"));
        let loans = [loan(3, 1.0), loan(1, 1.0)];
        assert!(rejected(&token_frame(&[], &[], &[], &loans), "Token.wLoan"));
    }

    /// A token keeps stamped ids in 32 bits: a `ReqCnt` id (a holder
    /// stamps it as `lastReqC`) or a stamp-list id of 2^32 is refused, and
    /// `u32::MAX` goes through.  A site is a `u32` on the wire, so none can
    /// be too large.  Ids that are never stamped keep 64 bits.
    #[test]
    fn stamped_ids_must_fit_32_bits() {
        let big = 1u64 << 32;
        let max = u64::from(u32::MAX);
        let cnt = |id| LassMsg::Requests {
            visited: NodeSet::EMPTY,
            reqs: vec![Request::Cnt { r: 0, sinit: 1, id, single: false }],
        };
        assert!(rejected(&cnt(big).to_bytes(), "Request::Cnt.id"));
        assert!(rejected(&token_frame(&[(1, big)], &[], &[], &[]), "Token.lastReqC"));
        assert!(rejected(&token_frame(&[], &[(0, 5), (2, big)], &[], &[]), "Token.lastCS"));
        let bytes = cnt(max).to_bytes();
        assert_eq!(LassMsg::from_bytes(&bytes).unwrap().to_bytes(), bytes);
        let bytes = token_frame(&[(1, max), (3, 1)], &[(1, max)], &[], &[]);
        let LassMsg::Tokens(toks) = LassMsg::from_bytes(&bytes).unwrap() else {
            panic!("a token frame decodes to tokens");
        };
        let t = &toks[0];
        assert_eq!((t.last_req_c(1), t.last_cs(1), t.last_req_c(3)), (max, max, 1));
        assert_eq!(LassMsg::Tokens(toks).to_bytes(), bytes);
        let res = Request::Res(ResReq { r: 0, sinit: 1, id: u64::MAX, mark: 1.0 });
        let bytes = LassMsg::Requests { visited: NodeSet::EMPTY, reqs: vec![res] }.to_bytes();
        assert!(LassMsg::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn corrupt_tag_rejected() {
        assert!(matches!(
            LassMsg::from_bytes(&[9]),
            Err(DecodeError::BadTag { what: "LassMsg", tag: 9 })
        ));
    }
}

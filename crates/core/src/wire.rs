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

use crate::messages::{CounterVal, LassMsg, LoanReq, Request, ResReq};
use crate::token::Token;
use mra_protocol::wire::{put_bool, put_f64, put_u64, put_usize, DecodeError, WireReader};
use mra_protocol::WireCodec;

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
            mark: r.get_f64("ResReq.mark")?,
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
            mark: r.get_f64("LoanReq.mark")?,
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
                id: r.get_u64("Request::Cnt.id")?,
                single: r.get_bool("Request::Cnt.single")?,
            }),
            1 => Ok(Request::Res(ResReq::decode(r)?)),
            2 => Ok(Request::Loan(LoanReq::decode(r)?)),
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
        self.last_req_c.encode(out);
        self.last_cs.encode(out);
        self.w_queue.encode(out);
        self.w_loan.encode(out);
        self.lender.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(Token {
            r: r.get_usize("Token.r")?,
            counter: r.get_u64("Token.counter")?,
            last_req_c: WireCodec::decode(r)?,
            last_cs: WireCodec::decode(r)?,
            w_queue: WireCodec::decode(r)?,
            w_loan: WireCodec::decode(r)?,
            lender: WireCodec::decode(r)?,
        })
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
                    Request::Res(ResReq { r: 0, sinit: 1, id: u64::MAX, mark: -2.5 }),
                    Request::Loan(LoanReq {
                        r: 2,
                        sinit: 3,
                        id: 1,
                        mark: 8.0,
                        missing: ResourceSet::singleton(2),
                    }),
                ],
            },
            LassMsg::Counters(vec![CounterVal { r: 9, val: u64::MAX, id: 1 }]),
            LassMsg::Tokens(vec![tok]),
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

    #[test]
    fn corrupt_tag_rejected() {
        assert!(matches!(
            LassMsg::from_bytes(&[9]),
            Err(DecodeError::BadTag { what: "LassMsg", tag: 9 })
        ));
    }
}

//! Binary wire codecs for the mutual-exclusion substrate messages.
//!
//! [`NtMsg`] is generic over its token payload, so its codec requires the
//! payload to be [`WireCodec`] too — embedders (Bouabdallah–Laforest's
//! control token, the incremental baseline's `()` payload) provide theirs
//! and get the tree traffic encoding for free.
//!
//! ```text
//! NtMsg<T>  := 0 origin:u32 | 1 T
//! SkToken   := ln:vec<u64> queue:vecdeque<u32>
//! SkMsg     := 0 origin:u32 seq:u64 | 1 SkToken
//! ```

use crate::naimi_trehel::NtMsg;
use crate::suzuki_kasami::{SkMsg, SkToken};
use mra_protocol::wire::{put_u64, put_usize, DecodeError, WireReader};
use mra_protocol::WireCodec;

impl<T: WireCodec> WireCodec for NtMsg<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NtMsg::Request { origin } => {
                out.push(0);
                put_usize(out, *origin);
            }
            NtMsg::Token(t) => {
                out.push(1);
                t.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8("NtMsg tag")? {
            0 => Ok(NtMsg::Request { origin: r.get_usize("NtMsg.origin")? }),
            1 => Ok(NtMsg::Token(T::decode(r)?)),
            tag => Err(DecodeError::BadTag { what: "NtMsg", tag }),
        }
    }
}

impl WireCodec for SkToken {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ln.encode(out);
        self.queue.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(SkToken {
            ln: WireCodec::decode(r)?,
            queue: WireCodec::decode(r)?,
        })
    }
}

impl WireCodec for SkMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SkMsg::Request { origin, seq } => {
                out.push(0);
                put_usize(out, *origin);
                put_u64(out, *seq);
            }
            SkMsg::Token(t) => {
                out.push(1);
                t.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8("SkMsg tag")? {
            0 => Ok(SkMsg::Request {
                origin: r.get_usize("SkMsg.origin")?,
                seq: r.get_u64("SkMsg.seq")?,
            }),
            1 => Ok(SkMsg::Token(SkToken::decode(r)?)),
            tag => Err(DecodeError::BadTag { what: "SkMsg", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::fmt;

    fn roundtrip_bytes<T: WireCodec + fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(format!("{back:?}"), format!("{v:?}"));
    }

    #[test]
    fn nt_roundtrips() {
        roundtrip_bytes(&NtMsg::<u64>::Request { origin: 5 });
        roundtrip_bytes(&NtMsg::Token(u64::MAX));
        roundtrip_bytes(&NtMsg::Token(()));
    }

    #[test]
    fn sk_roundtrips() {
        roundtrip_bytes(&SkMsg::Request { origin: 3, seq: u64::MAX });
        roundtrip_bytes(&SkMsg::Token(SkToken {
            ln: vec![0, u64::MAX, 7],
            queue: VecDeque::from([2usize, 0, 1]),
        }));
    }
}

//! Binary wire codecs for the mutual-exclusion substrate messages.
//!
//! [`NtMsg`] is generic over its token payload, so its codec requires the
//! payload to be [`WireCodec`] too — embedders (Bouabdallah–Laforest's
//! control token, the incremental baseline's `()` payload) provide theirs
//! and get the tree traffic encoding for free.
//!
//! ```text
//! NtMsg<T>  := 0 origin:u32 | 1 T
//! ```

use crate::naimi_trehel::NtMsg;
use mra_protocol::wire::{put_usize, DecodeError, WireReader};
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

#[cfg(test)]
mod tests {
    use super::*;
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
}

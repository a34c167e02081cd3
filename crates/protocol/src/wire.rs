//! Hand-rolled binary wire codec for protocol messages.
//!
//! The build environment is offline, so there is no serde: every protocol
//! message type implements [`WireCodec`] by hand over a flat little-endian
//! byte format.  The format is deliberately boring:
//!
//! * fixed-width little-endian integers (`u8`/`u32`/`u64`);
//! * `f64` as its IEEE-754 bit pattern (NaN-preserving);
//! * ids (`NodeId`, `ResourceId`, lengths) as `u32` — sets are dynamic
//!   and the largest universe anything runs is 100 000 resources, so 32
//!   bits leave ample headroom;
//! * enums as a leading `u8` variant tag;
//! * sequences as a `u32` element count followed by the elements;
//! * sets ([`DynSet`], i.e. `ResourceSet`/`NodeSet`) as a `u32` word count
//!   followed by that many raw words, trailing zero words trimmed (see
//!   [`DynSet::to_words`]).
//!
//! Codecs are *total on the encode side* and *validating on the decode
//! side*: [`WireCodec::decode`] returns [`DecodeError`] instead of
//! panicking on truncated or corrupt input, so a malformed frame can never
//! take a node down.  The law every implementation upholds (and the codec
//! proptests in `mra-net` check) is
//!
//! ```text
//! decode(encode(m)) == m      (and consumes exactly encode(m).len() bytes)
//! ```
//!
//! Framing (length prefixes on the wire, peer handshakes) is the
//! transport's job — see the `mra-net` crate.

use mra_types::{DynSet, Time};
use std::fmt;

/// Decoding failure: the input was truncated or structurally invalid.
///
/// Carries enough context to debug a corrupt frame without dragging the
/// payload around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    Eof {
        /// What was being decoded when the input ran out.
        what: &'static str,
    },
    /// An enum tag byte had no matching variant.
    BadTag {
        /// The enum being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix exceeded the bytes remaining in the input.
    BadLen {
        /// The sequence being decoded.
        what: &'static str,
        /// The claimed element count.
        len: usize,
    },
    /// A well-formed value broke a rule the receiving handlers rely on
    /// (a sort order, a sign, a nonzero id).
    Invalid {
        /// The value being decoded and the rule it must keep.
        what: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Eof { what } => write!(f, "input truncated while decoding {what}"),
            DecodeError::BadTag { what, tag } => write!(f, "unknown {what} variant tag {tag}"),
            DecodeError::BadLen { what, len } => {
                write!(f, "{what} length {len} exceeds remaining input")
            }
            DecodeError::Invalid { what } => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Cursor over an encoded byte slice.
///
/// All `get_*` methods advance the cursor and fail with
/// [`DecodeError::Eof`] on truncation.  A clone reads ahead without
/// moving the original.
#[derive(Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every input byte has been consumed (decoders of framed
    /// messages should check this: trailing garbage means a framing bug).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Eof { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Read an id or count stored as `u32` (the format for `usize` values).
    pub fn get_usize(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        Ok(self.get_u32(what)? as usize)
    }

    /// Read a bool stored as one byte (0 or 1; anything else is a bad tag).
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what, tag }),
        }
    }

    /// Read a `u32` element count and validate it against the remaining
    /// input, assuming each element costs at least `min_elem_bytes` bytes.
    /// Prevents a corrupt length prefix from triggering a huge allocation.
    pub fn get_len(
        &mut self,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, DecodeError> {
        let len = self.get_usize(what)?;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::BadLen { what, len });
        }
        Ok(len)
    }
}

/// Append a little-endian `u32` to `out`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64` to `out`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` bit pattern to `out`.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a `usize` as `u32` (ids and counts; far below `u32::MAX` in
/// every universe this workspace runs — asserted anyway).
#[inline]
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    debug_assert!(v <= u32::MAX as usize, "usize {v} exceeds wire width");
    put_u32(out, v as u32);
}

/// Append a bool as one byte.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// A type with a self-describing binary wire encoding.
///
/// Implemented for every protocol message in `mra-core`, `mra-mutex` and
/// `mra-baselines`, plus the primitives and containers they are built
/// from.  `encode ∘ decode` must be the identity, and `decode` must
/// consume exactly the bytes `encode` produced.
pub trait WireCodec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value, advancing the reader past its bytes.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError>;

    /// Encode into a fresh buffer (convenience).
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode from a complete buffer, rejecting trailing bytes.
    fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(DecodeError::BadLen {
                what: "trailing bytes after message",
                len: r.remaining(),
            });
        }
        Ok(v)
    }
}

impl WireCodec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(_r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        r.get_u64("u64")
    }
}

impl WireCodec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, *self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        r.get_usize("usize")
    }
}

impl WireCodec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        r.get_f64("f64")
    }
}

impl WireCodec for Time {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.as_nanos());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(Time::from_nanos(r.get_u64("Time")?))
    }
}

impl WireCodec for DynSet {
    fn encode(&self, out: &mut Vec<u8>) {
        let words = self.to_words();
        put_usize(out, words.len());
        for w in words {
            put_u64(out, w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let len = r.get_len(8, "DynSet")?;
        let mut words = vec![0u64; len];
        for w in &mut words {
            *w = r.get_u64("DynSet")?;
        }
        Ok(DynSet::from_words(&words))
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.len());
        for x in self {
            x.encode(out);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        // The count is only known to fit the input at one byte per
        // element, and an element can be a hundred times that in memory
        // (a token): reserve for a typical batch, let `push` grow the rest
        // as elements actually decode.
        let len = r.get_len(1, "Vec")?;
        let mut v = Vec::with_capacity(len.min(PREALLOC_ELEMS));
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

/// Elements a sequence decoder reserves room for before any has decoded.
const PREALLOC_ELEMS: usize = 16;

/// Pairs encode as their fields, in order (the sparse `(site, id)` stamp
/// maps of a token travel as `Vec<(usize, u64)>`).
impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8("Option")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::BadTag { what: "Option", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireCodec + PartialEq + fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(42usize);
        roundtrip(1.5f64);
        roundtrip(Time::from_millis(7));
        roundtrip(());
        // NaN survives via the bit pattern (compare bits, not values).
        let nan_bytes = f64::NAN.to_bytes();
        assert!(f64::from_bytes(&nan_bytes).unwrap().is_nan());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(9u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![(3usize, 9u64), (7, 1)]);
        // A pair is its fields back to back: id as u32, then the u64.
        assert_eq!((3usize, 9u64).to_bytes().len(), 4 + 8);
    }

    #[test]
    fn dynset_roundtrip_is_length_prefixed() {
        roundtrip(DynSet::EMPTY);
        roundtrip(DynSet::full(80));
        roundtrip(DynSet::full(1000));
        roundtrip([0usize, 63, 64, 255, 256, 99_999].into_iter().collect::<DynSet>());
        // The empty set costs exactly the 4-byte length prefix; a small set
        // costs prefix + one word.
        assert_eq!(DynSet::EMPTY.to_bytes().len(), 4);
        assert_eq!(DynSet::singleton(3).to_bytes().len(), 4 + 8);
    }

    #[test]
    fn dynset_corrupt_word_count_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 1000); // claims 1000 words, provides none
        assert!(matches!(
            DynSet::from_bytes(&bytes),
            Err(DecodeError::BadLen { .. })
        ));
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = 7u64.to_bytes();
        assert_eq!(
            u64::from_bytes(&bytes[..5]),
            Err(DecodeError::Eof { what: "u64" })
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u64.to_bytes();
        bytes.push(0);
        assert!(matches!(
            u64::from_bytes(&bytes),
            Err(DecodeError::BadLen { .. })
        ));
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        // Claims 2^31 elements with 4 bytes of payload.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX / 2);
        put_u32(&mut bytes, 0);
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(DecodeError::BadLen { .. })
        ));
    }

    #[test]
    fn bad_option_tag_rejected() {
        assert_eq!(
            Option::<u64>::from_bytes(&[3]),
            Err(DecodeError::BadTag { what: "Option", tag: 3 })
        );
    }

    #[test]
    fn bool_roundtrip_and_validation() {
        let mut out = Vec::new();
        put_bool(&mut out, true);
        put_bool(&mut out, false);
        let mut r = WireReader::new(&out);
        assert!(r.get_bool("b").unwrap());
        assert!(!r.get_bool("b").unwrap());
        assert!(r.is_empty());
        let mut r = WireReader::new(&[7]);
        assert!(matches!(r.get_bool("b"), Err(DecodeError::BadTag { .. })));
    }
}

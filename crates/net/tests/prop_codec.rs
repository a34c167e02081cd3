//! Property-based round-trip coverage of every wire message variant:
//! `decode(encode(m)) == m` for the LASS, mutex and baseline protocols,
//! including max-size `ResourceSet`s and boundary counter values.
//!
//! Most message types deliberately omit `PartialEq` (tokens are stateful),
//! so equality is pinned two ways at once: the decoded value must
//! re-encode to byte-identical output (encode is deterministic and
//! injective on the value's wire image) and must render the same `Debug`
//! form.

use mra_baselines::{BlMsg, CentralMsg, ControlToken, CtEntry, IncMsg, MadMsg};
use mra_baselines::maddi::MadToken;
use mra_core::{CounterVal, LassMsg, LoanReq, Request, ResReq, Token};
use mra_mutex::NtMsg;
use mra_protocol::WireCodec;
use mra_types::{NodeSet, ResourceSet};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fmt::Debug;

fn assert_roundtrip<T: WireCodec + Debug>(v: &T) -> Result<(), TestCaseError> {
    let bytes = v.to_bytes();
    let back = T::from_bytes(&bytes)
        .map_err(|e| TestCaseError::fail(format!("decode failed: {e} for {v:?}")))?;
    prop_assert_eq!(&back.to_bytes(), &bytes, "re-encode differs for {:?}", v);
    prop_assert_eq!(format!("{back:?}"), format!("{v:?}"));
    Ok(())
}

/// Arbitrary dynamic set, biased toward interesting shapes: empty, sparse,
/// dense, full inline capacity, and sets past the 256-element inline
/// boundary (heap representation, length-prefixed multi-word encoding).
fn any_set() -> impl Strategy<Value = ResourceSet> {
    prop_oneof![
        Just(ResourceSet::EMPTY),
        Just(ResourceSet::full(256)),
        vec(0usize..256, 0..12).prop_map(|els| els.into_iter().collect()),
        (0usize..257).prop_map(ResourceSet::full),
        vec(0usize..100_000, 0..12).prop_map(|els| els.into_iter().collect()),
        (256usize..2000).prop_map(ResourceSet::full),
    ]
}

/// Counter-ish u64 including the boundary values.
fn any_counter() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        any::<u64>(),
    ]
}

/// A request id a token stamps (`lastReqC`, `lastCS`, a `ReqCnt`'s id):
/// 32 bits, boundary values included.
fn any_stamped_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::from(u32::MAX)),
        Just(u64::from(u32::MAX) - 1),
        any::<u32>().prop_map(u64::from),
    ]
}

/// Scheduling marks.  The protocol only ever produces finite marks with the
/// sign bit clear (`order_key` asserts it, the decoder refuses any other,
/// `-0.0` included), so generators stay inside that range; bit-exact
/// transport of NaN/inf is covered by the primitive codec tests in
/// `mra_protocol::wire`.
fn any_mark() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        0.0f64..1e9,
    ]
}

fn any_res_req() -> impl Strategy<Value = ResReq> {
    (0usize..256, 0usize..256, any_counter(), any_mark())
        .prop_map(|(r, sinit, id, mark)| ResReq { r, sinit, id, mark })
}

fn any_loan_req() -> impl Strategy<Value = LoanReq> {
    (0usize..256, 0usize..256, any_counter(), any_mark(), any_set())
        .prop_map(|(r, sinit, id, mark, missing)| LoanReq { r, sinit, id, mark, missing })
}

fn any_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0usize..256, 0usize..256, any_stamped_id(), any::<bool>())
            .prop_map(|(r, sinit, id, single)| Request::Cnt { r, sinit, id, single }),
        any_res_req().prop_map(Request::Res),
        any_loan_req().prop_map(|l| Request::Loan(Box::new(l))),
    ]
}

fn any_token() -> impl Strategy<Value = Token> {
    (
        (0usize..256, any_counter(), 1usize..33),
        vec(any_res_req(), 0..6),
        vec(any_loan_req(), 0..4),
        prop_oneof![Just(None), (0usize..256).prop_map(Some)],
        vec(any_stamped_id(), 0..8),
    )
        .prop_map(|((r, counter, n), w_queue, w_loan, lender, stamps)| {
            let mut t = Token::new(r);
            t.counter = counter;
            for (i, s) in stamps.iter().enumerate() {
                t.set_last_req_c(i % n, *s);
                t.set_last_cs((i + 1) % n, s.wrapping_mul(3) & u64::from(u32::MAX));
            }
            // Route queue entries through the real insertion paths so the
            // encoded token is one the protocol could actually produce.
            for q in w_queue {
                t.enqueue_res(q);
            }
            for q in w_loan {
                t.enqueue_loan(q);
            }
            t.lender = lender;
            t
        })
}

fn any_lass_msg() -> impl Strategy<Value = LassMsg> {
    prop_oneof![
        (any_set(), vec(any_request(), 0..8))
            .prop_map(|(visited, reqs)| LassMsg::Requests { visited, reqs }),
        vec(
            (0usize..256, any_counter(), any_counter())
                .prop_map(|(r, val, id)| CounterVal { r, val, id }),
            0..8
        )
        .prop_map(LassMsg::Counters),
        vec(any_token().prop_map(Box::new), 0..4).prop_map(LassMsg::Tokens),
    ]
}

fn any_control_token() -> impl Strategy<Value = ControlToken> {
    vec(
        prop_oneof![
            Just(CtEntry::Token),
            (0usize..256, 0u64..1 << 40).prop_map(|(s, e)| CtEntry::Last(s, e)),
        ],
        0..24,
    )
    .prop_map(|entries| ControlToken { entries })
}

fn any_bl_msg() -> impl Strategy<Value = BlMsg> {
    prop_oneof![
        (0usize..256).prop_map(|origin| BlMsg::Nt(NtMsg::Request { origin })),
        any_control_token().prop_map(|ct| BlMsg::Nt(NtMsg::Token(ct))),
        (0usize..256, 0usize..256, 0u64..1 << 40)
            .prop_map(|(r, from, pred)| BlMsg::Inquire { r, from, pred }),
        (0usize..256).prop_map(|r| BlMsg::ResTok { r }),
    ]
}

fn any_inc_msg() -> impl Strategy<Value = IncMsg> {
    prop_oneof![
        (0usize..256, 0usize..256)
            .prop_map(|(r, origin)| IncMsg { r, inner: NtMsg::Request { origin } }),
        (0usize..256).prop_map(|r| IncMsg { r, inner: NtMsg::Token(()) }),
    ]
}

fn any_mad_msg() -> impl Strategy<Value = MadMsg> {
    prop_oneof![
        (0usize..256, any_counter(), any_set())
            .prop_map(|(origin, ts, set)| MadMsg::Request { origin, ts, set }),
        (0usize..256, vec(any_counter(), 0..16))
            .prop_map(|(r, served)| MadMsg::Token { r, tok: MadToken { served } }),
    ]
}

fn any_central_msg() -> impl Strategy<Value = CentralMsg> {
    prop_oneof![
        any_set().prop_map(|set| CentralMsg::Request { set }),
        Just(CentralMsg::Grant),
        Just(CentralMsg::Release),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lass_messages_roundtrip(m in any_lass_msg()) {
        assert_roundtrip(&m)?;
    }

    #[test]
    fn naimi_trehel_messages_roundtrip(m in prop_oneof![
        (0usize..256).prop_map(|origin| NtMsg::<u64>::Request { origin }),
        any::<u64>().prop_map(NtMsg::Token),
    ]) {
        assert_roundtrip(&m)?;
    }

    #[test]
    fn bouabdallah_laforest_messages_roundtrip(m in any_bl_msg()) {
        assert_roundtrip(&m)?;
    }

    #[test]
    fn incremental_messages_roundtrip(m in any_inc_msg()) {
        assert_roundtrip(&m)?;
    }

    #[test]
    fn maddi_messages_roundtrip(m in any_mad_msg()) {
        assert_roundtrip(&m)?;
    }

    #[test]
    fn central_messages_roundtrip(m in any_central_msg()) {
        assert_roundtrip(&m)?;
    }

    #[test]
    fn truncation_never_panics(m in any_lass_msg(), cut in 0usize..64) {
        // Any prefix of a valid encoding must decode to Err, not panic
        // (and never loop): the codec is total on corrupt input.
        let bytes = m.to_bytes();
        if cut < bytes.len() {
            prop_assert!(LassMsg::from_bytes(&bytes[..cut]).is_err());
        }
    }
}

/// Deterministic boundary cases the random generators might miss.
#[test]
fn boundary_values_roundtrip() {
    // Max-size resource set in every position that carries one.
    let full = ResourceSet::full(256);
    assert_roundtrip(&LassMsg::Requests {
        visited: full.clone(),
        reqs: vec![Request::Loan(Box::new(LoanReq {
            r: 255,
            sinit: 255,
            id: u64::MAX,
            mark: f64::MAX,
            missing: full.clone(),
        }))],
    })
    .unwrap();
    assert_roundtrip(&MadMsg::Request { origin: 255, ts: u64::MAX, set: full.clone() }).unwrap();
    assert_roundtrip(&CentralMsg::Request { set: full }).unwrap();

    // A set past the inline boundary in every position that carries one.
    let big: ResourceSet = [0usize, 255, 256, 99_999].into_iter().collect();
    assert_roundtrip(&MadMsg::Request { origin: 255, ts: 1, set: big.clone() }).unwrap();
    assert_roundtrip(&CentralMsg::Request { set: big.clone() }).unwrap();
    assert_roundtrip(&LassMsg::Requests {
        visited: NodeSet::EMPTY,
        reqs: vec![Request::Loan(Box::new(LoanReq {
            r: 99_999,
            sinit: 0,
            id: 1,
            mark: 0.5,
            missing: big,
        }))],
    })
    .unwrap();

    // Boundary counters everywhere a token carries them (stamped ids are
    // 32-bit).
    let mut t = Token::new(255);
    t.counter = u64::MAX;
    for s in 0..32 {
        t.set_last_req_c(s, u64::from(u32::MAX));
        t.set_last_cs(s, u64::from(u32::MAX));
    }
    assert_roundtrip(&LassMsg::Tokens(vec![Box::new(t)])).unwrap();

    // Empty batches are legal wire messages.
    assert_roundtrip(&LassMsg::Counters(Vec::new())).unwrap();
    assert_roundtrip(&LassMsg::Tokens(Vec::new())).unwrap();
    assert_roundtrip(&LassMsg::Requests { visited: NodeSet::EMPTY, reqs: Vec::new() })
        .unwrap();
}

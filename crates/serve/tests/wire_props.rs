//! Property tests for the `ccapsp serve` wire protocol, mirroring
//! `snapshot_props.rs`: encode → decode is lossless for arbitrary requests
//! and replies, and every class of corruption — truncation at any point, a
//! bit-flip anywhere, a lying length, random soup — maps to a typed
//! [`WireError`] instead of a panic or a silently different message.

use cc_serve::service::{Query, Response};
use cc_serve::wire::{
    decode_frame, Reply, Request, ServeInfo, WireError, DEFAULT_FRAME_CAP, HEADER_LEN, WIRE_MAGIC,
};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    collection::vec(0u8..26, 0..12)
        .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

fn arb_text() -> impl Strategy<Value = String> {
    collection::vec(0x20u8..0x7f, 0..60).prop_map(|v| v.into_iter().map(char::from).collect())
}

fn arb_query() -> impl Strategy<Value = Query> {
    (0u8..3, 0usize..1000, 0usize..1000).prop_map(|(sel, a, b)| match sel {
        0 => Query::Dist(a, b),
        1 => Query::Route(a, b),
        _ => Query::KNearest(a, b % 64),
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..4,
        any::<u64>(),
        collection::vec((0usize..1000, any::<u64>()), 0..12),
    )
        .prop_map(|(sel, d, rows)| match sel {
            0 => Response::Dist(d),
            1 => Response::Route(None),
            2 => Response::Route(Some(rows.into_iter().map(|(v, _)| v).collect())),
            _ => Response::KNearest(rows),
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..6,
        arb_name(),
        collection::vec(arb_query(), 0..40),
        collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(sel, name, queries, bytes)| match sel {
            0 => Request::Batch { name, queries },
            1 => Request::MetricsV2,
            2 => Request::Info { name },
            3 => Request::ApplyDelta { name, delta: bytes },
            4 => Request::SwapSnapshot {
                name,
                snapshot: bytes,
            },
            _ => Request::Shutdown,
        })
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    (
        0u8..7,
        arb_name(),
        arb_text(),
        collection::vec(arb_response(), 0..40),
        (any::<u64>(), any::<u32>(), 0usize..10_000),
    )
        .prop_map(|(sel, name, text, responses, (x, version, n))| match sel {
            0 => Reply::Batch(responses),
            1 => Reply::MetricsV2(text),
            2 => Reply::Info(ServeInfo {
                name,
                version,
                n,
                algo: text,
                mem_bytes: x,
                cache_hits: x ^ 0xff,
                cache_misses: x >> 7,
            }),
            3 => Reply::AdminOk(text),
            4 => Reply::Overload(x),
            5 => Reply::Error(text),
            _ => Reply::ShutdownOk,
        })
}

/// Wire bytes of an arbitrary message (requests and replies share one frame
/// grammar, so the corruption properties quantify over both).
fn arb_frame_bytes() -> impl Strategy<Value = Vec<u8>> {
    (any::<bool>(), arb_request(), arb_reply()).prop_map(|(is_req, req, reply)| {
        if is_req {
            req.to_frame().encode()
        } else {
            reply.to_frame().encode()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The round-trip law for requests: decode(encode(r)) == r and the
    /// canonical bytes are stable.
    #[test]
    fn request_round_trip_is_bit_identical(req in arb_request()) {
        let frame = req.to_frame();
        let bytes = frame.encode();
        let (decoded, consumed) = decode_frame(&bytes, DEFAULT_FRAME_CAP)
            .expect("decode of freshly encoded frame");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(Request::from_frame(&decoded).expect("payload decode"), req);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// The round-trip law for replies.
    #[test]
    fn reply_round_trip_is_bit_identical(reply in arb_reply()) {
        let frame = reply.to_frame();
        let bytes = frame.encode();
        let (decoded, consumed) = decode_frame(&bytes, DEFAULT_FRAME_CAP)
            .expect("decode of freshly encoded frame");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(Reply::from_frame(&decoded).expect("payload decode"), reply);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Every strict prefix of a valid frame is Truncated — never a panic,
    /// never a success, never a misdiagnosis.
    #[test]
    fn every_truncation_point_is_detected(bytes in arb_frame_bytes(), cut in 0u64..1000) {
        let len = (bytes.len() - 1) * cut as usize / 1000;
        let err = decode_frame(&bytes[..len], DEFAULT_FRAME_CAP).unwrap_err();
        prop_assert!(
            matches!(err, WireError::Truncated { .. }),
            "prefix {} of {} gave {:?}", len, bytes.len(), err
        );
    }

    /// A single bit-flip ANYWHERE in a frame yields a typed error — the
    /// checksum covers the kind and length fields as well as the payload,
    /// so no flip can smuggle through a quietly different message.
    #[test]
    fn any_bit_flip_is_detected(bytes in arb_frame_bytes(), pos in 0usize..4096, bit in 0u8..8) {
        let mut corrupt = bytes.clone();
        let pos = pos % corrupt.len();
        corrupt[pos] ^= 1 << bit;
        match decode_frame(&corrupt, DEFAULT_FRAME_CAP) {
            Err(
                WireError::BadMagic
                | WireError::UnsupportedVersion(_)
                | WireError::UnknownKind(_)
                | WireError::Truncated { .. }
                | WireError::ChecksumMismatch
                | WireError::Oversized { .. },
            ) => {}
            other => prop_assert!(false, "flip at {} bit {} gave {:?}", pos, bit, other),
        }
    }

    /// Flipping a payload byte specifically is always a checksum mismatch
    /// (framing intact, content corrupt — the precise diagnosis).
    #[test]
    fn payload_corruption_is_a_checksum_mismatch(req in arb_request(), off in 0usize..4096, flip in 1u8..=255) {
        let frame = req.to_frame();
        if frame.payload.is_empty() {
            return;
        }
        let mut bytes = frame.encode();
        let off = HEADER_LEN + off % frame.payload.len();
        bytes[off] ^= flip;
        prop_assert!(matches!(
            decode_frame(&bytes, DEFAULT_FRAME_CAP),
            Err(WireError::ChecksumMismatch)
        ));
    }

    /// A header that lies about its length is capped before any allocation:
    /// a declared size past the cap is Oversized no matter how big.
    #[test]
    fn lying_length_is_capped(bytes in arb_frame_bytes(), declared in (DEFAULT_FRAME_CAP + 1)..u64::MAX) {
        let mut corrupt = bytes.clone();
        corrupt[16..24].copy_from_slice(&declared.to_le_bytes());
        prop_assert!(matches!(
            decode_frame(&corrupt, DEFAULT_FRAME_CAP),
            Err(WireError::Oversized { declared: d, cap: DEFAULT_FRAME_CAP }) if d == declared
        ));
    }

    /// Any version other than WIRE_VERSION (1) is rejected as unsupported.
    #[test]
    fn other_versions_are_rejected(bytes in arb_frame_bytes(), version in 2u32..u32::MAX) {
        let mut corrupt = bytes.clone();
        corrupt[WIRE_MAGIC.len()..WIRE_MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
        prop_assert!(matches!(
            decode_frame(&corrupt, DEFAULT_FRAME_CAP),
            Err(WireError::UnsupportedVersion(v)) if v == version
        ));
    }
}

/// Random byte soup (wrong magic with overwhelming probability) never
/// panics the decoder.
#[test]
fn fuzz_soup_never_panics() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..500 {
        let len = rng.gen_range(0..300usize);
        let soup: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let _ = decode_frame(&soup, DEFAULT_FRAME_CAP);
    }
    // Soup that keeps the magic intact exercises the header paths too.
    for _ in 0..500 {
        let len = rng.gen_range(0..300usize);
        let mut soup: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let keep = soup.len().min(WIRE_MAGIC.len());
        soup[..keep].copy_from_slice(&WIRE_MAGIC[..keep]);
        let _ = decode_frame(&soup, DEFAULT_FRAME_CAP);
    }
}

//! Property and hostile-input tests for the TCP frame codec.
//!
//! The frame layer is pure over `Read`/`Write`, so everything here runs
//! on in-memory cursors: round-trips over arbitrary envelopes (traced
//! and untraced), truncations at every boundary, oversized length
//! prefixes that must be rejected *before* allocation, and garbage
//! mid-stream. The invariant under attack: the reader never panics —
//! it either yields an envelope or a typed [`FrameError`].

use bytes::Bytes;
use mendel_net::envelope::{Envelope, NodeAddr};
use mendel_net::frame::{read_frame, write_frame, FrameError, MAX_FRAME};
use mendel_obs::{SpanId, TraceContext, TraceId};
use proptest::prelude::*;
use std::io::Cursor;

/// Arbitrary envelope: any addresses, correlation, payload, and an
/// optional trace tail covering both the sampled and unsampled flavor.
fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..256),
        proptest::option::of((any::<u64>(), any::<u64>(), any::<bool>())),
    )
        .prop_map(|(from, to, correlation, payload, trace)| Envelope {
            from: NodeAddr(from),
            to: NodeAddr(to),
            correlation,
            payload: Bytes::from(payload),
            trace: trace.map(|(t, p, sampled)| TraceContext {
                trace: TraceId(t),
                parent: SpanId(p),
                sampled,
            }),
        })
}

/// The pre-tracing (and pre-sampling-flag) frame layout, built by hand:
/// `len:u32 LE · from:u16 LE · to:u16 LE · correlation:u64 LE ·
/// payload_len:u32 LE · payload`. Untraced frames must still encode to
/// exactly these bytes, and a *sampled* trace tail must be exactly the
/// legacy 17-byte tag-1 tail — the compatibility promise that lets old
/// and new nodes interoperate.
fn legacy_frame_bytes(env: &Envelope) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&env.from.0.to_le_bytes());
    body.extend_from_slice(&env.to.0.to_le_bytes());
    body.extend_from_slice(&env.correlation.to_le_bytes());
    body.extend_from_slice(&(env.payload.len() as u32).to_le_bytes());
    body.extend_from_slice(&env.payload);
    if let Some(ctx) = &env.trace {
        body.push(1); // legacy frames knew only the sampled flavor
        body.extend_from_slice(&ctx.trace.0.to_le_bytes());
        body.extend_from_slice(&ctx.parent.0.to_le_bytes());
    }
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any envelope — traced or not — round-trips through a frame
    /// byte-for-byte, and the reported sizes agree.
    #[test]
    fn frame_roundtrip_any_envelope(env in arb_envelope()) {
        let mut wire = Vec::new();
        let wrote = write_frame(&mut wire, &env).unwrap();
        prop_assert_eq!(wrote, wire.len());
        let (back, read) = read_frame(&mut Cursor::new(&wire)).unwrap();
        prop_assert_eq!(back, env);
        prop_assert_eq!(read, wrote);
    }

    /// Untraced frames (and sampled trace tails) are byte-identical to
    /// the hand-built legacy layout — adding the sampling flag must not
    /// have moved a single untraced byte.
    #[test]
    fn untraced_and_sampled_frames_match_legacy_bytes(env in arb_envelope()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &env).unwrap();
        match &env.trace {
            None => prop_assert_eq!(&wire, &legacy_frame_bytes(&env)),
            Some(ctx) if ctx.sampled => {
                prop_assert_eq!(&wire, &legacy_frame_bytes(&env))
            }
            Some(_) => {
                // Unsampled: same length, same bytes except the tag.
                let legacy = legacy_frame_bytes(&env);
                prop_assert_eq!(wire.len(), legacy.len());
                let tag_at = wire.len() - 17;
                prop_assert_eq!(&wire[..tag_at], &legacy[..tag_at]);
                prop_assert_eq!(wire[tag_at], 2);
                prop_assert_eq!(&wire[tag_at + 1..], &legacy[tag_at + 1..]);
            }
        }
    }

    /// A stream of several frames reads back in order, then reports an
    /// orderly close — no trailing garbage, no lost frame.
    #[test]
    fn frame_stream_roundtrip(envs in proptest::collection::vec(arb_envelope(), 1..8)) {
        let mut wire = Vec::new();
        for env in &envs {
            write_frame(&mut wire, env).unwrap();
        }
        let mut cursor = Cursor::new(&wire);
        for env in &envs {
            let (back, _) = read_frame(&mut cursor).unwrap();
            prop_assert_eq!(&back, env);
        }
        prop_assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    /// Truncating a frame at any interior byte is a typed error, never a
    /// panic and never a bogus success. Cutting at 0 is an orderly
    /// close; cutting anywhere inside is `Truncated` (the length prefix
    /// always promises more than a shortened body can deliver).
    #[test]
    fn frame_truncation_is_typed(env in arb_envelope(), cut_seed in any::<usize>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &env).unwrap();
        let cut = cut_seed % wire.len(); // strictly interior
        match read_frame(&mut Cursor::new(&wire[..cut])) {
            Err(FrameError::Closed) => prop_assert_eq!(cut, 0),
            Err(FrameError::Truncated { needed }) => {
                prop_assert!(needed > 0);
                prop_assert!(cut > 0);
            }
            other => prop_assert!(false, "cut at {}: {:?}", cut, other),
        }
    }

    /// Length prefixes above the cap are rejected without allocating,
    /// whatever follows them.
    #[test]
    fn oversized_prefix_rejected(
        over in (MAX_FRAME as u64 + 1..=u32::MAX as u64),
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut wire = (over as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&tail);
        match read_frame(&mut Cursor::new(&wire)) {
            Err(FrameError::Oversized(len)) => prop_assert_eq!(len as u64, over),
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// Garbage mid-stream: a valid frame followed by junk either parses
    /// by luck (tiny lengths can frame real envelopes) or fails with a
    /// typed error — the reader must not panic, and the first frame is
    /// always recovered intact.
    #[test]
    fn garbage_after_valid_frame_never_panics(
        env in arb_envelope(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &env).unwrap();
        wire.extend_from_slice(&junk);
        let mut cursor = Cursor::new(&wire);
        let (back, _) = read_frame(&mut cursor).unwrap();
        prop_assert_eq!(back, env);
        // Keep reading until the stream ends; every outcome is typed.
        for _ in 0..8 {
            match read_frame(&mut cursor) {
                Ok(_) => continue,
                Err(
                    FrameError::Closed
                    | FrameError::Truncated { .. }
                    | FrameError::Oversized(_)
                    | FrameError::Decode(_),
                ) => break,
                Err(e) => prop_assert!(false, "unexpected error class: {:?}", e),
            }
        }
    }

    /// Pure byte soup never panics the reader.
    #[test]
    fn byte_soup_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..96)) {
        let mut cursor = Cursor::new(&junk);
        for _ in 0..4 {
            if read_frame(&mut cursor).is_err() {
                break;
            }
        }
    }

    /// A flipped length prefix (the classic desync) yields a typed
    /// error: either the inflated length overruns the stream
    /// (`Truncated`), busts the cap (`Oversized`), or reframes bytes
    /// that no longer decode (`Decode`).
    #[test]
    fn corrupted_length_prefix_is_typed(env in arb_envelope(), flip in 0usize..4, bit in 0u8..8) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &env).unwrap();
        wire[flip] ^= 1 << bit;
        match read_frame(&mut Cursor::new(&wire)) {
            // A downward flip can still frame a decodable prefix; the
            // envelope then differs from what was sent, which the RPC
            // correlation layer (not the framer) is responsible for
            // surviving. Everything else must be typed.
            Ok(_)
            | Err(
                FrameError::Closed
                | FrameError::Truncated { .. }
                | FrameError::Oversized(_)
                | FrameError::Decode(_),
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {:?}", e),
        }
    }
}

//! Property tests for the wire codec.

use bytes::Bytes;
use mendel_net::codec::{Decode, Encode};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every supported shape round-trips exactly and reports its size.
    #[test]
    fn codec_roundtrip_nested(
        v in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..40), any::<bool>()),
            0..20,
        )
    ) {
        let bytes = v.to_bytes();
        prop_assert_eq!(bytes.len(), v.encoded_len());
        let back = Vec::<(u32, Vec<u8>, bool)>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Strings with arbitrary unicode round-trip.
    #[test]
    fn codec_roundtrip_strings(s in ".{0,60}") {
        let owned = s.to_string();
        let bytes = owned.to_bytes();
        prop_assert_eq!(String::from_bytes(&bytes).unwrap(), owned);
    }

    /// Options and numeric extremes round-trip.
    #[test]
    fn codec_roundtrip_options(v in proptest::option::of(any::<i64>())) {
        let bytes = v.to_bytes();
        prop_assert_eq!(Option::<i64>::from_bytes(&bytes).unwrap(), v);
    }

    /// Decoding any truncation of a valid frame fails cleanly rather than
    /// panicking or succeeding bogusly — except complete prefixes that are
    /// themselves valid (`from_bytes` requires full consumption, so only
    /// the untruncated frame may succeed).
    #[test]
    fn codec_truncation_never_panics(
        v in proptest::collection::vec(any::<u64>(), 1..10),
        cut in 0usize..200,
    ) {
        let bytes = v.to_bytes();
        let cut = cut.min(bytes.len());
        let sliced = bytes.slice(0..cut);
        let out = Vec::<u64>::from_bytes(&sliced);
        if cut == bytes.len() {
            prop_assert_eq!(out.unwrap(), v);
        } else {
            prop_assert!(out.is_err());
        }
    }

    /// Random byte soup never panics the decoder.
    #[test]
    fn codec_fuzz_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..120)) {
        let bytes = Bytes::from(junk);
        let _ = Vec::<u32>::from_bytes(&bytes);
        let _ = String::from_bytes(&bytes);
        let _ = Option::<u64>::from_bytes(&bytes);
        let _ = Vec::<(u8, Vec<u16>)>::from_bytes(&bytes);
    }
}

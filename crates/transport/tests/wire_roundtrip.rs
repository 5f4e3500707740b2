//! Wire-format properties: the byte layer under the socket backend.
//!
//! Three levels are pinned down here, each by proptests over arbitrary
//! inputs:
//!
//! * **Varints** — LEB128 round-trips every `u64` through the exact bytes it
//!   produced.
//! * **`Wire` values** — `f64` payloads round-trip *bit-exactly*, including
//!   NaN payloads and signed zeros; this is what lets the fractional
//!   pipeline's `f64` messages cross a socket without perturbing the
//!   derandomized run.
//! * **Frames** — `encode_frame`/`write_frame` and `read_frame` are
//!   inverses; every truncation of a valid frame is a typed [`FrameError`],
//!   and no single-byte corruption can panic or round-trip back to the
//!   original frame. Frames are read back off a `&[u8]`, the same `Read`
//!   path a TCP stream takes.

use congest_sim::message::{decode_varint, encode_varint, Wire};
use congest_transport::frame::{
    encode_frame, read_frame, write_frame, FrameError, FrameKind, MAGIC, MAX_PAYLOAD,
};
use proptest::prelude::*;

/// Full-range `u64` from two 32-bit halves (plain `Range` excludes its end,
/// so a single range could never draw `u64::MAX`).
fn any_u64() -> impl Strategy<Value = u64> {
    (0u64..1 << 32, 0u64..1 << 32).prop_map(|(hi, lo)| (hi << 32) | lo)
}

fn kind_strategy() -> impl Strategy<Value = FrameKind> {
    (0u32..2).prop_map(|k| {
        if k == 0 {
            FrameKind::Hello
        } else {
            FrameKind::Round
        }
    })
}

/// Arbitrary bytes, all 256 values reachable.
fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..max_len)
}

/// Reads one frame off the front of `bytes`.
fn read(bytes: &[u8]) -> Result<(FrameKind, Vec<u8>), FrameError> {
    read_frame(&mut &bytes[..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn varints_round_trip_every_u64(x in any_u64()) {
        let mut buf = Vec::new();
        encode_varint(x, &mut buf);
        prop_assert!(buf.len() <= 10);
        let mut pos = 0;
        prop_assert_eq!(decode_varint(&buf, &mut pos), Some(x));
        prop_assert_eq!(pos, buf.len(), "decode must consume exactly what encode produced");
    }

    #[test]
    fn f64_payloads_round_trip_bit_exactly(bits in any_u64()) {
        // Drawing the *bit pattern* covers NaN payloads, infinities,
        // subnormals and both zeros — cases a decimal rendering would lose.
        let x = f64::from_bits(bits);
        let mut buf = Vec::new();
        x.encode(&mut buf);
        let mut pos = 0;
        let back = f64::decode(&buf, &mut pos).expect("encoded f64 decodes");
        prop_assert_eq!(back.to_bits(), bits);
        prop_assert_eq!(pos, buf.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frames_round_trip_through_a_buffer_and_a_stream(
        kind in kind_strategy(),
        payload in bytes(2048),
    ) {
        let mut buf = Vec::new();
        encode_frame(kind, &payload, &mut buf);
        let mut stream = Vec::new();
        write_frame(&mut stream, kind, &payload).expect("write to a Vec succeeds");
        prop_assert_eq!(&stream, &buf, "stream and buffer encodings are the same bytes");

        let mut reader = &stream[..];
        let (got_kind, got_payload) = read_frame(&mut reader).expect("valid frame reads");
        prop_assert_eq!(got_kind, kind);
        prop_assert_eq!(got_payload, payload);
        prop_assert!(reader.is_empty(), "read must consume the whole frame");
    }

    #[test]
    fn concatenated_frames_decode_in_sequence(
        frames in proptest::collection::vec((kind_strategy(), bytes(128)), 1..6),
    ) {
        let mut buf = Vec::new();
        for (kind, payload) in &frames {
            encode_frame(*kind, payload, &mut buf);
        }
        let mut reader = &buf[..];
        for (kind, payload) in &frames {
            let (got_kind, got_payload) = read_frame(&mut reader).expect("frame reads");
            prop_assert_eq!(got_kind, *kind);
            prop_assert_eq!(&got_payload, payload);
        }
        // One more read off the exhausted stream is a clean close, not junk.
        prop_assert!(matches!(read_frame(&mut reader), Err(FrameError::Closed)));
    }

    #[test]
    fn every_truncation_is_a_typed_error(
        kind in kind_strategy(),
        payload in bytes(256),
        cut_at in 0usize..1 << 20,
    ) {
        let mut buf = Vec::new();
        encode_frame(kind, &payload, &mut buf);
        let cut = cut_at % buf.len(); // strict prefix: 0..len

        // The reader distinguishes a peer hanging up *between* frames (clean
        // close) from one cut off *inside* a frame.
        let expected_close = cut == 0;
        match read(&buf[..cut]) {
            Err(FrameError::Closed) => prop_assert!(expected_close),
            Err(FrameError::Truncated) => prop_assert!(!expected_close),
            other => prop_assert!(false, "prefix read must fail typed, got {:?}", other),
        }
    }

    #[test]
    fn single_byte_corruption_never_panics_or_restores_the_frame(
        kind in kind_strategy(),
        payload in bytes(256),
        corrupt_at in 0usize..1 << 20,
        flip in 1u32..256,
    ) {
        let mut buf = Vec::new();
        encode_frame(kind, &payload, &mut buf);
        let at = corrupt_at % buf.len();
        buf[at] ^= flip as u8;

        // Whatever happens, it is a typed result — never a panic — and a
        // corrupted frame can never be mistaken for the original: the
        // checksum covers kind + payload, and FNV-1a's update step is
        // injective in its running state, so any in-payload flip changes it.
        let mut reader = &buf[..];
        if let Ok((got_kind, got_payload)) = read_frame(&mut reader) {
            prop_assert!(
                got_kind != kind || got_payload != payload || !reader.is_empty(),
                "corruption at byte {at} round-tripped to the original frame"
            );
        }
    }
}

#[test]
fn varint_boundaries_use_the_minimal_byte_count() {
    for (value, bytes) in [
        (0u64, 1usize),
        (0x7f, 1),
        (0x80, 2),
        (0x3fff, 2),
        (0x4000, 3),
        (u64::from(u32::MAX), 5),
        (u64::MAX, 10),
    ] {
        let mut buf = Vec::new();
        encode_varint(value, &mut buf);
        assert_eq!(buf.len(), bytes, "varint({value:#x})");
        let mut pos = 0;
        assert_eq!(decode_varint(&buf, &mut pos), Some(value));
    }
}

#[test]
fn oversized_length_prefixes_are_rejected_before_any_payload_is_read() {
    // A syntactically valid header whose declared length exceeds the cap.
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.push(FrameKind::Round as u8);
    encode_varint(MAX_PAYLOAD as u64 + 1, &mut buf);
    assert!(matches!(
        read(&buf),
        Err(FrameError::Oversized { len }) if len == MAX_PAYLOAD as u64 + 1
    ));

    // A length varint that overflows u64 entirely: the reader rejects it
    // while still reading byte-by-byte, before any allocation.
    let mut overflow = Vec::new();
    overflow.extend_from_slice(&MAGIC);
    overflow.push(FrameKind::Round as u8);
    overflow.extend_from_slice(&[0xff; 10]);
    assert!(matches!(read(&overflow), Err(FrameError::Oversized { .. })));
}

#[test]
fn bad_magic_and_bad_kind_are_reported_as_such() {
    let mut buf = Vec::new();
    encode_frame(FrameKind::Hello, b"payload", &mut buf);

    let mut wrong_magic = buf.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        read(&wrong_magic),
        Err(FrameError::BadMagic(m)) if m == *b"XGT1"
    ));

    // Kind 2 was once a broadcast frame; no backend sends it any more.
    for kind in [2u8, 0x7e] {
        let mut wrong_kind = buf.clone();
        wrong_kind[4] = kind;
        assert!(
            matches!(read(&wrong_kind), Err(FrameError::BadKind(k)) if k == kind),
            "kind={kind}"
        );
    }

    let mut wrong_sum = buf;
    let last = wrong_sum.len() - 1;
    wrong_sum[last] ^= 0xff;
    assert!(matches!(read(&wrong_sum), Err(FrameError::BadChecksum)));
}

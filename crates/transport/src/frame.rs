//! The byte-level frame format of the socket backend.
//!
//! A frame is the unit the two processes of a socket session exchange:
//!
//! ```text
//! +-------+------+-------------+---------+----------+
//! | magic | kind | payload_len | payload | checksum |
//! | 4 B   | 1 B  | varint      | ...     | 8 B LE   |
//! +-------+------+-------------+---------+----------+
//! ```
//!
//! * `magic` is [`MAGIC`] (`b"CGT1"`), catching endpoint or protocol mixups.
//! * `kind` is a [`FrameKind`] tag.
//! * `payload_len` is an LEB128 varint (same codec as message payloads),
//!   bounded by [`MAX_PAYLOAD`] so a corrupt length cannot request absurd
//!   allocations.
//! * `checksum` is the FNV-1a 64-bit hash of `kind` followed by the payload,
//!   little-endian — cheap, dependency-free corruption detection.
//!
//! Every malformed input surfaces as a typed [`FrameError`]; nothing in this
//! module panics on bytes from the wire.

use congest_sim::message::encode_varint;
use std::fmt;
use std::io::{Read, Write};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"CGT1";

/// Upper bound on a frame payload, in bytes. Far above anything the engine
/// produces per round at supported scales, far below anything that would let
/// a corrupt length prefix exhaust memory.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Session handshake: protocol version, topology fingerprint, split and
    /// executor configuration.
    Hello = 0,
    /// One round's traffic: sub-totals, newly-halted outputs, first error,
    /// the cross-shard `(slot, msg)` batch and the cross-shard broadcasts.
    Round = 1,
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::Round),
            _ => None,
        }
    }
}

/// Typed decoding/transport failures. Every way a frame can be bad is its own
/// variant so tests (and operators) can tell corruption from truncation from
/// version skew.
#[derive(Debug)]
pub enum FrameError {
    /// The input ended before a complete frame was read.
    Truncated,
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: u64,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown [`FrameKind`] tag.
    BadKind(u8),
    /// The checksum does not match the payload.
    BadChecksum,
    /// The payload's content failed to decode as the expected shape.
    BadPayload(&'static str),
    /// The peer closed the connection.
    Closed,
    /// An OS-level I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_PAYLOAD}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::BadPayload(what) => write!(f, "malformed frame payload: {what}"),
            FrameError::Closed => write!(f, "peer closed the connection"),
            FrameError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            _ => FrameError::Io(e),
        }
    }
}

/// FNV-1a 64-bit hash — the frame checksum.
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Appends one complete frame to `out`.
pub fn encode_frame(kind: FrameKind, payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.push(kind as u8);
    encode_varint(payload.len() as u64, out);
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(&[&[kind as u8], payload]).to_le_bytes());
}

/// Writes one frame to a byte stream (one buffered `write_all`, so a frame is
/// a single syscall on a socket).
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), FrameError> {
    let mut buf = Vec::with_capacity(payload.len() + 24);
    encode_frame(kind, payload, &mut buf);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from a byte stream. A clean EOF at a frame boundary is
/// [`FrameError::Closed`]; EOF inside a frame is [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), FrameError> {
    let mut magic = [0u8; 4];
    // Distinguish "peer hung up between frames" from "frame cut short".
    let mut got = 0;
    while got < magic.len() {
        let k = r.read(&mut magic[got..])?;
        if k == 0 {
            return Err(if got == 0 {
                FrameError::Closed
            } else {
                FrameError::Truncated
            });
        }
        got += k;
    }
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let mut byte = [0u8; 1];
    r.read_exact(&mut byte)?;
    let kind = FrameKind::from_byte(byte[0]).ok_or(FrameError::BadKind(byte[0]))?;
    let kind_byte = byte[0];
    // Varint length, byte by byte off the stream.
    let mut len: u64 = 0;
    let mut shift = 0u32;
    loop {
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift == 63 && (b & 0x7f) > 1 {
            return Err(FrameError::Oversized { len: u64::MAX });
        }
        len |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            return Err(FrameError::Oversized { len: u64::MAX });
        }
    }
    if len > MAX_PAYLOAD as u64 {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    if u64::from_le_bytes(sum) != fnv1a64(&[&[kind_byte], &payload]) {
        return Err(FrameError::BadChecksum);
    }
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        encode_frame(FrameKind::Round, b"hello world", &mut buf);
        encode_frame(FrameKind::Hello, b"", &mut buf);
        let mut reader = &buf[..];
        let (kind, payload) = read_frame(&mut reader).unwrap();
        assert_eq!(kind, FrameKind::Round);
        assert_eq!(payload, b"hello world");
        let (kind, payload) = read_frame(&mut reader).unwrap();
        assert_eq!(kind, FrameKind::Hello);
        assert!(payload.is_empty());
        assert!(reader.is_empty());
    }

    #[test]
    fn frame_round_trips_through_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Round, &[1, 2, 3]).unwrap();
        let mut cursor = &buf[..];
        let (kind, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!(kind, FrameKind::Round);
        assert_eq!(payload, vec![1, 2, 3]);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn corruption_is_detected_with_typed_errors() {
        let mut good = Vec::new();
        encode_frame(FrameKind::Round, b"payload", &mut good);
        let read = |bytes: &[u8]| read_frame(&mut &bytes[..]);

        // Flip a payload byte: checksum mismatch.
        let mut bad = good.clone();
        bad[8] ^= 0x40;
        assert!(matches!(read(&bad), Err(FrameError::BadChecksum)));

        // Break the magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(read(&bad), Err(FrameError::BadMagic(_))));

        // Unknown kinds, including the retired kind 2 (checksum never
        // consulted).
        for kind in [2u8, 77] {
            let mut bad = good.clone();
            bad[4] = kind;
            assert!(
                matches!(read(&bad), Err(FrameError::BadKind(k)) if k == kind),
                "kind={kind}"
            );
        }

        // Truncations at every prefix length: nothing at all is a clean
        // close, anything else is a frame cut short.
        assert!(matches!(read(&[]), Err(FrameError::Closed)));
        for cut in 1..good.len() {
            assert!(
                matches!(read(&good[..cut]), Err(FrameError::Truncated)),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(FrameKind::Round as u8);
        congest_sim::message::encode_varint(u64::MAX, &mut buf);
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized { .. })
        ));
    }
}

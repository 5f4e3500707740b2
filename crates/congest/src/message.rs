//! Message size accounting for the CONGEST bandwidth restriction, and the
//! [`Wire`] byte codec that lets messages leave the process.
//!
//! [`MessageSize`] is the *model-level* contract: what a message costs against
//! the `O(log n)` budget. [`Wire`] is the *system-level* contract: how the
//! message is laid out as bytes when a transport backend (see the
//! `congest_transport` crate) carries it between OS processes.
//! Both live here because they are two views of the same object — the encoded
//! form a real network would transmit.
//!
//! The encoding is deliberately minimal (hand-rolled, no external
//! dependencies): LEB128 varints for integers, fixed 8-byte little-endian
//! IEEE-754 bit patterns for `f64` (bit-exact round trips, including NaN
//! payloads and signed zeros), one tag byte for `Option`, and a
//! length-prefixed element sequence for `Vec`. Decoding is strict: trailing
//! garbage, truncated buffers and non-canonical tags all return `None`, so a
//! malformed frame surfaces as a typed transport error rather than a panic or
//! a silently wrong message.

/// Types that can report their size in bits when sent as a CONGEST message.
///
/// The executor uses this to check every message against the `O(log n)` budget
/// (see [`crate::congest_bandwidth_bits`]). Implementations should report the
/// size of the *encoded* message a real system would transmit, not the size of
/// the in-memory representation.
pub trait MessageSize {
    /// Size of the encoded message in bits.
    fn size_bits(&self) -> usize;
}

/// Width of the minimal binary encoding of `x`, in bits (at least 1).
///
/// The shared building block for [`MessageSize`] implementations that charge
/// log-sized payloads (identifiers, spans, hop counters).
pub fn bit_width(x: u64) -> usize {
    (u64::BITS - x.max(1).leading_zeros()) as usize
}

impl MessageSize for () {
    fn size_bits(&self) -> usize {
        1
    }
}

impl MessageSize for bool {
    fn size_bits(&self) -> usize {
        1
    }
}

impl MessageSize for u8 {
    fn size_bits(&self) -> usize {
        8
    }
}

impl MessageSize for u32 {
    fn size_bits(&self) -> usize {
        32
    }
}

impl MessageSize for u64 {
    fn size_bits(&self) -> usize {
        64
    }
}

impl MessageSize for usize {
    fn size_bits(&self) -> usize {
        usize::BITS as usize
    }
}

/// 64-bit IEEE-754 values are used to carry *transmittable* fractional values
/// (multiples of `2^-ι`, Section 2); they fit in `O(log n)` bits because only
/// `ι = O(log n)` significant bits are ever used.
impl MessageSize for f64 {
    fn size_bits(&self) -> usize {
        64
    }
}

impl<A: MessageSize, B: MessageSize> MessageSize for (A, B) {
    fn size_bits(&self) -> usize {
        self.0.size_bits() + self.1.size_bits()
    }
}

impl<A: MessageSize, B: MessageSize, C: MessageSize> MessageSize for (A, B, C) {
    fn size_bits(&self) -> usize {
        self.0.size_bits() + self.1.size_bits() + self.2.size_bits()
    }
}

impl<T: MessageSize> MessageSize for Option<T> {
    fn size_bits(&self) -> usize {
        1 + self.as_ref().map_or(0, MessageSize::size_bits)
    }
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn size_bits(&self) -> usize {
        32 + self.iter().map(MessageSize::size_bits).sum::<usize>()
    }
}

impl MessageSize for crate::NodeId {
    fn size_bits(&self) -> usize {
        // A node identifier is an O(log n) bit quantity; we charge the size of
        // the smallest power-of-two word that can hold it, bounded below by 1.
        let v = self.0.max(1);
        (usize::BITS - v.leading_zeros()) as usize
    }
}

/// Appends `x` to `out` as an LEB128 varint (7 payload bits per byte,
/// high bit = continuation). One to ten bytes.
pub fn encode_varint(mut x: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf` at `*pos`, advancing `*pos` past it.
/// Returns `None` on a truncated buffer or a value that overflows `u64`.
pub fn decode_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && (b & 0x7f) > 1 {
            return None;
        }
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Types with a canonical byte encoding, used by transport backends to carry
/// messages (and halting outputs) between OS processes.
///
/// The contract mirrors what bit-identical execution needs:
///
/// * **Round trip**: `decode(encode(x)) == x` for every value a program can
///   produce — in particular `f64` payloads round-trip *bit-exactly* (the
///   encoding is the IEEE-754 bit pattern, not a decimal rendering).
/// * **Self-delimiting**: `decode` consumes exactly the bytes `encode`
///   produced, so values concatenate into batches without extra framing.
/// * **Strict**: `decode` returns `None` (never panics) on truncated or
///   malformed input, so transport backends can surface a typed error.
///
/// Every [`crate::program::NodeProgram`] message and output type must
/// implement `Wire`; implementations for the primitives and containers used
/// across the workspace are provided here.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from `buf` starting at `*pos`, advancing `*pos`
    /// past the consumed bytes. Returns `None` on malformed input, leaving
    /// `*pos` unspecified.
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self>;
}

/// Encoded as a single zero byte (not zero bytes), so that every element of
/// an encoded `Vec` occupies at least one byte and a length prefix can be
/// validated against the remaining buffer before any allocation.
impl Wire for () {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(0);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let b = *buf.get(*pos)?;
        *pos += 1;
        (b == 0).then_some(())
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let b = *buf.get(*pos)?;
        *pos += 1;
        match b {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let b = *buf.get(*pos)?;
        *pos += 1;
        Some(b)
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_varint(u64::from(*self), out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        u32::try_from(decode_varint(buf, pos)?).ok()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_varint(*self, out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        decode_varint(buf, pos)
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_varint(*self as u64, out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        usize::try_from(decode_varint(buf, pos)?).ok()
    }
}

/// Fixed 8-byte little-endian IEEE-754 bit pattern: the round trip preserves
/// every bit, including NaN payloads and the sign of zero — the property the
/// transport conformance suite depends on for the fractional pipeline's
/// `f64` messages.
impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let bytes = buf.get(*pos..*pos + 8)?;
        *pos += 8;
        Some(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("slice of length 8"),
        )))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((A::decode(buf, pos)?, B::decode(buf, pos)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((
            A::decode(buf, pos)?,
            B::decode(buf, pos)?,
            C::decode(buf, pos)?,
        ))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            0 => Some(None),
            1 => Some(Some(T::decode(buf, pos)?)),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_varint(self.len() as u64, out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = usize::try_from(decode_varint(buf, pos)?).ok()?;
        // Every element encodes to at least one byte, so a length prefix
        // beyond the remaining buffer is malformed — reject it before
        // allocating, so a corrupt frame cannot request absurd memory.
        if len > buf.len().saturating_sub(*pos) {
            return None;
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(buf, pos)?);
        }
        Some(v)
    }
}

impl Wire for crate::NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_varint(self.0 as u64, out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(crate::NodeId(
            usize::try_from(decode_varint(buf, pos)?).ok()?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn primitive_sizes() {
        assert_eq!(().size_bits(), 1);
        assert_eq!(true.size_bits(), 1);
        assert_eq!(0u8.size_bits(), 8);
        assert_eq!(0u32.size_bits(), 32);
        assert_eq!(0u64.size_bits(), 64);
        assert_eq!(1.5f64.size_bits(), 64);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!((1u32, 2u32).size_bits(), 64);
        assert_eq!((1u8, 2u8, true).size_bits(), 17);
        assert_eq!(Some(3u8).size_bits(), 9);
        assert_eq!(None::<u8>.size_bits(), 1);
        assert_eq!(vec![1u8, 2u8].size_bits(), 32 + 16);
    }

    #[test]
    fn bit_width_values() {
        assert_eq!(bit_width(0), 1);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(255), 8);
        assert_eq!(bit_width(256), 9);
    }

    #[test]
    fn node_id_size_is_logarithmic() {
        assert!(NodeId(1).size_bits() <= 1);
        assert_eq!(NodeId(255).size_bits(), 8);
        assert_eq!(NodeId(256).size_bits(), 9);
        assert!(NodeId(1_000_000).size_bits() <= 20);
    }

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let mut pos = 0;
        let decoded = T::decode(&buf, &mut pos).expect("decodes");
        assert_eq!(decoded, value);
        assert_eq!(pos, buf.len(), "decode consumes exactly the encoding");
    }

    #[test]
    fn varint_round_trips_and_rejects_overflow() {
        for x in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            encode_varint(x, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_varint(&buf, &mut pos), Some(x));
            assert_eq!(pos, buf.len());
        }
        // Eleven continuation bytes overflow the 64-bit value space.
        let buf = [0xffu8; 11];
        assert_eq!(decode_varint(&buf, &mut 0), None);
        // u64::MAX + 1: tenth byte claims a bit beyond position 63.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_eq!(decode_varint(&buf, &mut 0), None);
        // Truncated mid-varint.
        assert_eq!(decode_varint(&[0x80], &mut 0), None);
    }

    #[test]
    fn wire_round_trips_every_workspace_shape() {
        round_trip(());
        round_trip(true);
        round_trip(false);
        round_trip(9u8);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(0.0f64);
        round_trip(NodeId(123_456));
        round_trip((NodeId(7), 42u64));
        round_trip((1u32, 2u64, Some(3.5f64)));
        round_trip(Some(vec![1u64, 2, 3]));
        round_trip(None::<f64>);
        round_trip(vec![(), (), ()]);
        round_trip(Vec::<u32>::new());
    }

    #[test]
    fn f64_wire_encoding_is_bit_exact() {
        for bits in [
            0u64,
            f64::NAN.to_bits(),
            (-0.0f64).to_bits(),
            f64::INFINITY.to_bits(),
            0x7ff8_dead_beef_0001, // NaN with a payload
            1.0f64.to_bits(),
        ] {
            let x = f64::from_bits(bits);
            let mut buf = Vec::new();
            x.encode(&mut buf);
            let mut pos = 0;
            let y = f64::decode(&buf, &mut pos).unwrap();
            assert_eq!(y.to_bits(), bits);
        }
    }

    #[test]
    fn wire_decode_rejects_malformed_input() {
        // Truncated f64.
        assert_eq!(f64::decode(&[0u8; 7], &mut 0), None);
        // Non-canonical bool / Option tags.
        assert_eq!(bool::decode(&[2], &mut 0), None);
        assert_eq!(Option::<u8>::decode(&[9], &mut 0), None);
        // Vec length prefix beyond the buffer: rejected before allocating.
        let mut buf = Vec::new();
        encode_varint(u64::MAX, &mut buf);
        assert_eq!(Vec::<u64>::decode(&buf, &mut 0), None);
        // u32 overflow.
        let mut buf = Vec::new();
        encode_varint(u64::from(u32::MAX) + 1, &mut buf);
        assert_eq!(u32::decode(&buf, &mut 0), None);
    }
}

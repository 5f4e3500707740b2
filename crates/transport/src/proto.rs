//! Protocol payloads of the socket backend.
//!
//! Per round, each process ships its peer the shard's cross-shard
//! `(destination slot, message)` batch plus everything the peer needs to
//! assemble the *complete* [`RunReport`] on its own: the shard's accounting
//! sub-totals, its newly-halted node outputs, and its first error.
//! [`RoundPayload`] is that round unit;
//! [`Hello`] is the handshake that pins protocol version, topology shape and
//! executor configuration before any round traffic flows.
//!
//! Everything here encodes through the engine's [`Wire`] codec, so f64
//! payloads stay bit-exact across the wire and decode failures surface as
//! typed [`FrameError::BadPayload`] values instead of panics.
//!
//! [`RunReport`]: congest_sim::RunReport

use crate::frame::FrameError;
use congest_sim::engine::Accounting;
use congest_sim::message::Wire;
use congest_sim::ExecutionError;

/// Transport protocol version; bumped whenever the frame or payload layout
/// changes incompatibly.
///
/// v2: [`Accounting`] gained a `payloads` field and [`RoundPayload`] a
/// `bcast` batch (one `(sender, payload)` entry per broadcasting node).
/// v3: [`ExecutionError`] gained the `ProgramPanicked` tag.
/// v4: [`Hello`] dropped `bandwidth_bits` and `record_round_stats`: every
/// run is charged against the CONGEST budget of its `n` and records round
/// statistics, so neither can differ between two endpoints that agree on `n`.
pub const PROTOCOL_VERSION: u32 = 4;

/// The handshake payload. Both endpoints send theirs first and verify the
/// peer's before any round traffic: a mismatch anywhere except `role` means
/// the two processes would silently compute different runs, so the session
/// aborts with a typed handshake error instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// [`PROTOCOL_VERSION`] of the sender.
    pub version: u32,
    /// `0` = leader (owns the low node block), `1` = follower.
    pub role: u8,
    /// Node count of the graph.
    pub n: usize,
    /// Directed-edge slot count of the graph — a cheap topology fingerprint.
    pub slot_count: usize,
    /// First node of the follower's block.
    pub split: usize,
    /// Configured round limit.
    pub max_rounds: u64,
    /// Whether bandwidth is enforced.
    pub enforce_bandwidth: bool,
}

impl Hello {
    /// Serializes the handshake.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.version.encode(&mut out);
        self.role.encode(&mut out);
        self.n.encode(&mut out);
        self.slot_count.encode(&mut out);
        self.split.encode(&mut out);
        self.max_rounds.encode(&mut out);
        self.enforce_bandwidth.encode(&mut out);
        out
    }

    /// Deserializes a handshake payload.
    pub fn decode(buf: &[u8]) -> Result<Hello, FrameError> {
        let pos = &mut 0;
        let hello = Hello {
            version: u32::decode(buf, pos).ok_or(FrameError::BadPayload("hello.version"))?,
            role: u8::decode(buf, pos).ok_or(FrameError::BadPayload("hello.role"))?,
            n: usize::decode(buf, pos).ok_or(FrameError::BadPayload("hello.n"))?,
            slot_count: usize::decode(buf, pos)
                .ok_or(FrameError::BadPayload("hello.slot_count"))?,
            split: usize::decode(buf, pos).ok_or(FrameError::BadPayload("hello.split"))?,
            max_rounds: u64::decode(buf, pos).ok_or(FrameError::BadPayload("hello.max_rounds"))?,
            enforce_bandwidth: bool::decode(buf, pos)
                .ok_or(FrameError::BadPayload("hello.enforce_bandwidth"))?,
        };
        if *pos != buf.len() {
            return Err(FrameError::BadPayload("hello has trailing bytes"));
        }
        Ok(hello)
    }
}

fn encode_acct(acct: &Accounting, out: &mut Vec<u8>) {
    acct.messages.encode(out);
    acct.payloads.encode(out);
    acct.bits.encode(out);
    acct.max_message_bits.encode(out);
    acct.violations.encode(out);
}

fn decode_acct(buf: &[u8], pos: &mut usize) -> Option<Accounting> {
    Some(Accounting {
        messages: u64::decode(buf, pos)?,
        payloads: u64::decode(buf, pos)?,
        bits: u64::decode(buf, pos)?,
        max_message_bits: usize::decode(buf, pos)?,
        violations: u64::decode(buf, pos)?,
    })
}

/// One shard's contribution to one round, shipped to the peer so both sides
/// can fold identical run totals and deliver the cross-shard messages.
#[derive(Debug, Clone)]
pub struct RoundPayload<M, O> {
    /// The round the payload belongs to (`0` covers `init`); a mismatch with
    /// the receiver's own round counter means the sessions desynchronized.
    pub round: u64,
    /// The sending shard's charging sub-totals for this round.
    pub acct: Accounting,
    /// Nodes of the sending shard that halted this round, with their outputs,
    /// in node order.
    pub newly_halted: Vec<(usize, O)>,
    /// The first error the sending shard's block produced, in node/send
    /// order, if any.
    pub error: Option<ExecutionError>,
    /// Cross-shard messages: `(destination arena slot, message)` in sender
    /// node/send order — destination slots all belong to the receiver.
    pub batch: Vec<(usize, M)>,
    /// Cross-shard broadcasts: one `(sender node, payload)` entry per
    /// broadcasting node in sender node order. The receiver stores each
    /// entry once in its sender-indexed broadcast table, where all of the
    /// sender's neighbors it owns read it, so the wire carries one copy
    /// instead of `deg(sender)`.
    pub bcast: Vec<(usize, M)>,
}

impl<M: Wire, O: Wire> RoundPayload<M, O> {
    /// Serializes the round payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.round.encode(&mut out);
        encode_acct(&self.acct, &mut out);
        self.newly_halted.encode(&mut out);
        self.error.encode(&mut out);
        self.batch.encode(&mut out);
        self.bcast.encode(&mut out);
        out
    }

    /// Deserializes a round payload.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        let pos = &mut 0;
        let payload = RoundPayload {
            round: u64::decode(buf, pos).ok_or(FrameError::BadPayload("round.round"))?,
            acct: decode_acct(buf, pos).ok_or(FrameError::BadPayload("round.acct"))?,
            newly_halted: Vec::<(usize, O)>::decode(buf, pos)
                .ok_or(FrameError::BadPayload("round.newly_halted"))?,
            error: Option::<ExecutionError>::decode(buf, pos)
                .ok_or(FrameError::BadPayload("round.error"))?,
            batch: Vec::<(usize, M)>::decode(buf, pos)
                .ok_or(FrameError::BadPayload("round.batch"))?,
            bcast: Vec::<(usize, M)>::decode(buf, pos)
                .ok_or(FrameError::BadPayload("round.bcast"))?,
        };
        if *pos != buf.len() {
            return Err(FrameError::BadPayload("round payload has trailing bytes"));
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::NodeId;

    #[test]
    fn hello_round_trips_and_rejects_trailing_bytes() {
        let hello = Hello {
            version: PROTOCOL_VERSION,
            role: 1,
            n: 1000,
            slot_count: 5998,
            split: 500,
            max_rounds: 1_000_000,
            enforce_bandwidth: true,
        };
        let mut bytes = hello.encode();
        assert_eq!(Hello::decode(&bytes).unwrap(), hello);
        bytes.push(0);
        assert!(matches!(
            Hello::decode(&bytes),
            Err(FrameError::BadPayload(_))
        ));
    }

    #[test]
    fn round_payload_round_trips_with_f64_messages_bit_exactly() {
        let payload: RoundPayload<(f64, bool), u64> = RoundPayload {
            round: 7,
            acct: Accounting {
                messages: 12,
                payloads: 7,
                bits: 640,
                max_message_bits: 96,
                violations: 1,
            },
            newly_halted: vec![(3, 99), (5, 0)],
            error: Some(ExecutionError::NotANeighbor {
                from: NodeId(1),
                to: NodeId(9),
            }),
            batch: vec![(0, (-0.0, true)), (17, (f64::MIN_POSITIVE, false))],
            bcast: vec![(4, (1.5, true))],
        };
        let bytes = payload.encode();
        let back = RoundPayload::<(f64, bool), u64>::decode(&bytes).unwrap();
        assert_eq!(back.round, payload.round);
        assert_eq!(back.acct, payload.acct);
        assert_eq!(back.newly_halted, payload.newly_halted);
        assert_eq!(back.error, payload.error);
        assert_eq!(back.batch.len(), 2);
        assert_eq!(back.batch[0].1 .0.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.batch[1].1 .0, f64::MIN_POSITIVE);
        assert_eq!(back.bcast, vec![(4, (1.5, true))]);
    }

    #[test]
    fn truncated_round_payload_is_a_typed_error() {
        let payload: RoundPayload<u64, ()> = RoundPayload {
            round: 1,
            acct: Accounting::default(),
            newly_halted: vec![(0, ())],
            error: None,
            batch: vec![(4, 42)],
            bcast: vec![(1, 7)],
        };
        let bytes = payload.encode();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    RoundPayload::<u64, ()>::decode(&bytes[..cut]),
                    Err(FrameError::BadPayload(_))
                ),
                "cut={cut}"
            );
        }
    }
}

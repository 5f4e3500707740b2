//! The two-process socket backend for the CONGEST engine.
//!
//! [`SocketExecutor`] / [`SocketSession`] split one run across **two OS
//! processes** over loopback TCP with a replicated control plane: each side
//! runs its own node block through the engine's round kernel on an
//! `ArenaDelivery`, ships the peer the cross-shard
//! `(destination slot, message)` batch as serialized bytes, and both sides
//! fold the two blocks' sub-totals through the engine's `RoundFold` into
//! the complete report.
//!
//! Both sides produce [`RunReport`]s bit-identical to `SyncExecutor` — same
//! outputs, same round count, same message/bit accounting, same first error
//! — for the reasons every executor does (see the round kernel in
//! `congest_sim::engine`), plus a lossless codec: [`Wire`] round-trips
//! every workspace message type bit-exactly, including `f64` payloads. The
//! loopback suite in `tests/transport_conformance.rs` (repo root) proptests
//! this identity over all graph families and both pipeline routes.
//!
//! The wire format is hand-rolled (LEB128 varints, length-prefixed frames,
//! FNV-1a checksums — see [`frame`]) because this workspace builds fully
//! offline: no serde, no postcard, no registry dependencies.
//!
//! [`Wire`]: congest_sim::Wire
//! [`RunReport`]: congest_sim::RunReport

pub mod frame;
pub mod proto;
pub mod socket;

pub use frame::{FrameError, FrameKind};
pub use proto::{Hello, RoundPayload, PROTOCOL_VERSION};
pub use socket::{Role, SocketExecutor, SocketListener, SocketSession};

use congest_sim::ExecutionError;
use std::fmt;

/// Errors a transport backend can surface, keeping wire-level failures apart
/// from program-level ones.
#[derive(Debug)]
pub enum TransportError {
    /// A frame failed to arrive intact: truncation, corruption, bad magic,
    /// an oversized length prefix, a malformed payload, a closed peer, or an
    /// OS-level I/O error.
    Frame(FrameError),
    /// The peers disagree about the run: protocol version, topology,
    /// configuration, roles, or round counters do not line up.
    Protocol(String),
    /// The peer produced no frame within the session's receive timeout.
    Timeout,
    /// The run itself failed — a program misbehaved or the round limit was
    /// hit. Both sides of a socket session fold the *same* error, exactly as
    /// an in-process executor would return it.
    Execution(ExecutionError),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Frame(e) => write!(f, "{e}"),
            TransportError::Protocol(what) => write!(f, "protocol error: {what}"),
            TransportError::Timeout => write!(f, "timed out waiting for the peer"),
            TransportError::Execution(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Frame(e) => Some(e),
            TransportError::Execution(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

impl From<ExecutionError> for TransportError {
    fn from(e: ExecutionError) -> Self {
        TransportError::Execution(e)
    }
}

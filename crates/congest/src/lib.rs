//! # congest-sim
//!
//! A round-synchronous simulator for the **CONGEST** and **LOCAL** models of
//! distributed computing (Peleg, 2000), built as the substrate for the
//! reproduction of *Deurer, Kuhn, Maus — "Deterministic Distributed Dominating
//! Set Approximation in the CONGEST Model" (PODC 2019)*.
//!
//! The crate provides five layers:
//!
//! * [`Graph`] — a compact, immutable undirected network topology (CSR
//!   adjacency) on which all algorithms in the workspace operate.
//! * [`program::NodeProgram`] — the programming model: every node runs the
//!   same state machine, rounds are synchronous, messages arrive in a
//!   zero-copy [`program::Inbox`] sorted by sender and leave through a
//!   reusable [`program::Outbox`].
//! * [`engine`] — the execution engine: a CSR-indexed, double-buffered
//!   message arena plus a sender-indexed broadcast table, driven by
//!   deterministic [`engine::Executor`]s
//!   ([`engine::SyncExecutor`] and the persistent worker-pool
//!   [`pool::PooledExecutor`], bit-identical for any thread count) that
//!   all run one round kernel ([`engine::NodeBlock`], [`engine::RoundFold`]),
//!   charging every message against the CONGEST bandwidth budget of
//!   `O(log n)` bits and recording per-round [`engine::RoundStats`]. The
//!   per-graph routing table is built once and cached inside [`Graph`], so
//!   repeated runs and multi-phase compositions share the setup.
//! * [`compose::ComposedProgram`] — the program composition layer: sequences
//!   heterogeneous node programs as the phases of one multi-phase algorithm,
//!   carrying typed state between phases and recording every phase once, as
//!   one measured engine run, in a single ledger.
//! * [`ledger::RoundLedger`] — round/message accounting for *composite*
//!   algorithms whose communication pattern is specified by the paper through
//!   well-defined primitives (e.g. "aggregate a sum along a cluster tree of
//!   depth `d` costs `O(d)` rounds"). Its one per-phase record,
//!   [`ledger::PhaseCost`], holds the phase's [`ledger::PhaseKind`], whether
//!   it was measured or charged, the simulated cost and the closed-form cost
//!   stated in the paper, messages, payloads and engine wall time, so
//!   experiments can report either cost and split it by component. Measured
//!   engine runs feed the same ledger through [`engine::RunReport::charge`].
//!
//! # Example
//!
//! ```
//! use congest_sim::{Graph, NodeId};
//!
//! // A 5-cycle.
//! let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
//! assert_eq!(g.n(), 5);
//! assert_eq!(g.m(), 5);
//! assert_eq!(g.degree(NodeId(0)), 2);
//! assert_eq!(g.max_degree(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod engine;
mod error;
mod graph;
pub mod ledger;
pub mod message;
pub mod pool;
pub mod program;
pub mod topology;

pub use compose::ComposedProgram;
pub use engine::{
    Accounting, ArenaDelivery, ArenaSide, BlockRound, Committed, ExecutionError, Executor,
    ExecutorConfig, NodeBlock, RoundFold, RoundStats, RunReport, SyncExecutor, Verdict,
};
pub use error::GraphError;
pub use graph::{Graph, GraphBuilder, NodeId};
pub use ledger::{PhaseCost, PhaseKind, PhaseMode, PhaseSpec, RoundLedger};
pub use message::{MessageSize, Wire};
pub use pool::PooledExecutor;
pub use program::{
    Inbox, NodeContext, NodeProgram, OutMsg, Outbox, Pending, RoundAction, INVALID_SLOT,
};
pub use topology::TopologyCache;

/// The size, in bits, of the canonical CONGEST message budget for an `n`-node
/// network: `ceil(log2 n)` multiplied by a small constant factor.
///
/// The paper allows messages of `O(log n)` bits ("a constant number of node
/// identifiers"); the simulator uses [`BANDWIDTH_ID_FACTOR`] identifiers per
/// message as its default budget; the factor is 16 because transmittable
/// values (Section 2) occupy roughly `10·log2(n)` bits.
pub fn congest_bandwidth_bits(n: usize) -> usize {
    let id_bits = usize::BITS as usize - n.max(2).leading_zeros() as usize;
    BANDWIDTH_ID_FACTOR * id_bits.max(1)
}

/// Number of `O(log n)`-bit identifiers that fit into one CONGEST message in
/// the simulator's default configuration.
pub const BANDWIDTH_ID_FACTOR: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_grows_logarithmically() {
        assert!(congest_bandwidth_bits(16) <= congest_bandwidth_bits(1 << 20));
        assert_eq!(congest_bandwidth_bits(16), BANDWIDTH_ID_FACTOR * 5);
        assert!(congest_bandwidth_bits(100) >= 64);
    }

    #[test]
    fn bandwidth_handles_tiny_networks() {
        assert!(congest_bandwidth_bits(1) >= BANDWIDTH_ID_FACTOR);
        assert!(congest_bandwidth_bits(2) >= BANDWIDTH_ID_FACTOR);
    }
}

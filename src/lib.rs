//! # congest-mds
//!
//! Umbrella crate for the reproduction of *Deurer, Kuhn, Maus — "Deterministic
//! Distributed Dominating Set Approximation in the CONGEST Model" (PODC 2019)*.
//!
//! It re-exports the public API of every workspace crate so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`congest`] — the CONGEST/LOCAL round-synchronous simulator.
//! * [`graphs`] — graph generators, analysis, bipartite representations.
//! * [`fractional`] — constrained fractional dominating sets and the two
//!   Part I node-program solvers of Lemma 2.1 (distributed MWU, KW05).
//! * [`rounding`] — the abstract randomized rounding process, `k`-wise
//!   independent coins and conditional-expectation derandomization
//!   (Section 3.1–3.3).
//! * [`decomposition`] — cluster graphs, network decompositions, colorings,
//!   ruling sets and spanners.
//! * [`mds`] — the deterministic dominating-set algorithms of Theorems 1.1
//!   and 1.2 / Corollary 1.3 plus baselines.
//! * [`cds`] — the connected dominating set algorithm of Theorem 1.4.
//! * [`transport`] — the socket backend that runs the same node programs
//!   across two OS processes over serialized frames, bit-identical to the
//!   in-process executors.
//!
//! See `README.md` for a guided tour and `DESIGN.md` for the mapping from the
//! paper to modules.

pub use congest_sim as congest;
pub use congest_transport as transport;
pub use mds_cds as cds;
pub use mds_core as mds;
pub use mds_decomposition as decomposition;
pub use mds_fractional as fractional;
pub use mds_graphs as graphs;
pub use mds_rounding as rounding;

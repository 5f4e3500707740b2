//! # mds-graphs
//!
//! Graph substrate for the PODC 2019 dominating-set reproduction: workload
//! generators, structural analysis and the *bipartite representation* of a
//! graph used by the degree-dependent derandomization (Section 3.3 of the
//! paper).
//!
//! All generators are deterministic given a seed, so every experiment in the
//! workspace is reproducible bit-for-bit.
//!
//! ```
//! use mds_graphs::generators::{self, GraphFamily};
//! use mds_graphs::analysis;
//!
//! let g = generators::generate(&GraphFamily::Gnp { n: 200, p: 0.05 }, 42);
//! assert_eq!(g.n(), 200);
//! let comps = analysis::connected_components(&g);
//! assert!(comps.count >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bipartite;
pub mod generators;

pub use bipartite::BipartiteGraph;
pub use generators::GraphFamily;

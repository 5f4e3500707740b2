//! # mds-decomposition
//!
//! The clustering and symmetry-breaking substrates the paper builds on:
//!
//! * [`cluster`] — cluster graphs (Definition 3.1): partitions of the nodes
//!   into connected clusters with leaders, spanning trees of bounded depth and
//!   a cluster coloring.
//! * [`netdecomp`] — deterministic strong-diameter *k-hop* network
//!   decompositions (Definition 3.2). The GK18 construction the paper cites as
//!   a black box (Theorem 3.2) is replaced by deterministic ball carving with
//!   `k`-wide separators (substitution R2 in `DESIGN.md`); the object produced
//!   has the same `(k·O(log n), O(log n))` quality parameters. The carving is
//!   planned as a pure `CarvingSchedule` and runs **measured** on the engine
//!   (`NetDecompProgram`: per-phase BFS join waves, one broadcast per node),
//!   bit-identical to the retained central oracle.
//! * [`coloring`] — deterministic distance-two colorings, in particular the
//!   bipartite coloring of Lemma 3.12 with at most `Δ_L·Δ_R` colors.
//! * [`ruling_set`] — deterministic `(α, α-1)`-ruling sets, used by the CDS
//!   clustering of Section 4.
//! * [`spanner`] — the Baswana–Sen cluster-sampling spanner and a
//!   derandomized variant (conditional expectation over the sampling coins),
//!   the ingredient Theorem 1.4 uses to connect dominating-set clusters.
//!
//! ```
//! use mds_graphs::generators;
//! use mds_decomposition::netdecomp::{strong_diameter_decomposition, DecompositionConfig};
//!
//! let g = generators::grid(8, 8);
//! let nd = strong_diameter_decomposition(&g, 2, &DecompositionConfig::default());
//! assert!(nd.verify(&g).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod coloring;
pub mod netdecomp;
pub mod ruling_set;
pub mod spanner;

pub use cluster::{Cluster, ClusterGraph};
pub use netdecomp::{
    assemble_decomposition, carving_schedule, clusters_from_schedule, netdecomp_programs,
    strong_diameter_decomposition, CarvingSchedule, DecompositionConfig, NetDecompOutput,
    NetDecompProgram, NetworkDecomposition,
};

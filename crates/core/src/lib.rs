//! # mds-core
//!
//! The paper's primary contribution: deterministic CONGEST-model dominating
//! set approximation with an essentially optimal approximation factor.
//!
//! * [`pipeline`] — the three-part algorithm of Section 3.4 (initial
//!   fractional solution → iterated factor-two rounding → one-shot rounding)
//!   with both derandomization routes:
//!   [`pipeline::theorem_1_1`] (network decompositions, runtime as a function
//!   of `n`) and [`pipeline::theorem_1_2`] (distance-two colorings of the
//!   degree-reduced bipartite representation, runtime as a function of `Δ`),
//!   plus the LOCAL-model variant of Corollary 1.3.
//! * [`greedy`] — the sequential `ln(Δ+1)`-approximation \[Joh74\], the
//!   baseline every distributed algorithm is compared against.
//! * [`exact`] — an exact branch-and-bound solver for small instances, used
//!   to measure true approximation ratios in experiment E1.
//! * [`randomized`] — the randomized counterparts of the rounding pipeline
//!   (what the paper derandomizes), used as baselines in experiments E6/E9.
//! * [`verify`] — dominating-set verification.
//!
//! ```
//! use mds_graphs::generators;
//! use mds_core::pipeline::{theorem_1_1, MdsConfig};
//! use mds_core::verify;
//!
//! let g = generators::gnp(60, 0.1, 7);
//! let result = theorem_1_1(&g, &MdsConfig::default());
//! assert!(verify::is_dominating_set(&g, &result.dominating_set));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod greedy;
pub mod pipeline;
pub mod randomized;
pub mod verify;

pub use pipeline::{theorem_1_1, theorem_1_2, DerandRoute, MdsConfig, MdsResult};

//! # mds-rounding
//!
//! The abstract randomized rounding process of Section 3.1 of *Deurer, Kuhn,
//! Maus (PODC 2019)* together with everything needed to **derandomize** it in
//! the CONGEST model:
//!
//! * [`problem`] — the rounding problem abstraction: one value node per
//!   graph node carrying its `(x(v), p(v))` pair, and covering constraints
//!   over them. Both the plain graph instantiation (Section 3.2) and the
//!   bipartite, degree-split instantiation (Section 3.3) reduce to this
//!   structure.
//! * [`process`] — the two-phase randomized rounding process (Lemma 3.1),
//!   executable with a true RNG, with `k`-wise independent coins, or with an
//!   explicitly fixed coin assignment.
//! * [`kwise`] — `k`-wise independent biased coins extracted from a short
//!   seed (Lemma 3.3).
//! * [`estimator`] — computable upper bounds on
//!   `E[Σ Z_v] = Σ E[X_v] + Σ Pr(constraint violated)`: the exact product
//!   form for one-shot rounding, an exact discretized DP, and the
//!   Chernoff-style pessimistic estimator.
//! * [`mod@derandomize`] — the method of conditional expectations: fixing the
//!   biased coins one group at a time so the estimator never increases
//!   (Lemmas 3.4 and 3.10; see substitution R3 in `DESIGN.md`).
//! * [`one_shot`] / [`factor_two`] — the two instantiations of the process
//!   used by the main algorithm (Sections 3.2 and 3.3): one-shot rounding to
//!   an integral solution and factor-two rounding that doubles the
//!   fractionality, each a pair of functions that build a [`RoundingProblem`]
//!   on `G` or on its degree-split bipartite representation.
//!
//! ```
//! use mds_graphs::generators;
//! use mds_fractional::FractionalAssignment;
//! use mds_rounding::one_shot;
//! use mds_rounding::derandomize::{derandomize, DerandomizeConfig};
//!
//! let g = generators::cycle(12);
//! // A 1/2-fractional dominating set of the cycle.
//! let x = FractionalAssignment::from_values(vec![0.5; 12]);
//! let problem = one_shot::on_graph(&g, &x);
//! let outcome = derandomize(&problem, &DerandomizeConfig::default());
//! assert!(outcome.output.is_integral());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod derandomize;
pub mod estimator;
pub mod factor_two;
pub mod kwise;
pub mod one_shot;
pub mod problem;
pub mod process;

pub use derandomize::{derandomize, DerandomizeConfig};
pub use estimator::EstimatorKind;
pub use kwise::KWiseGenerator;
pub use problem::{ConstraintNode, RoundingProblem, ValueNode};
pub use process::{execute_with_coins, execute_with_kwise, execute_with_rng, RoundedOutcome};

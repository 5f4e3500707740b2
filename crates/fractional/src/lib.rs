//! # mds-fractional
//!
//! Fractional dominating sets for the PODC 2019 reproduction:
//!
//! * [`cfds`] — fractional dominating sets (the values `x` of
//!   Definition 2.1): feasibility, size and fractionality.
//! * [`transmittable`] — CONGEST-transmittable values (multiples of `2^-ι`
//!   with `2^-ι ≤ n^-10`, Section 2).
//! * [`lp`] — a fractional dominating set via a distributed
//!   multiplicative-weights covering-LP program with a bit-identical central
//!   replay; the stand-in for the \[KMW06\] algorithm invoked by Lemma 2.1
//!   (substitution R1 in `DESIGN.md`).
//! * [`kw05`] — the strictly local, constant-time fractional algorithm of
//!   Kuhn–Wattenhofer (2005), implemented as a genuine message-passing
//!   [`congest_sim::NodeProgram`]; used as the "purely local" ablation.
//! * [`lemma21`] — the Lemma 2.1 wrapper: run one of the two node-program
//!   solvers, then raise every value to the floor `ε/(2·Δ̃)` so the result is
//!   `ε/(2Δ̃)`-fractional while staying a `(1+ε)`-approximation.
//!
//! ```
//! use mds_graphs::generators;
//! use mds_fractional::lemma21::{initial_fractional_solution, InitialSolutionConfig};
//!
//! let g = generators::star(20);
//! let out = initial_fractional_solution(&g, &InitialSolutionConfig::default());
//! assert!(out.assignment.is_feasible_dominating_set(&g));
//! // A star is dominated by its center: the fractional optimum is 1.
//! assert!(out.assignment.size() < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfds;
pub mod kw05;
pub mod lemma21;
pub mod lp;
pub mod transmittable;

pub use cfds::FractionalAssignment;
pub use lemma21::{initial_fractional_solution, InitialSolutionConfig};

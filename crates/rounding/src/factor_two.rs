//! Factor-two rounding (Section 3.2, Lemmas 3.7, 3.9 and 3.14).
//!
//! The input fractional values are boosted by `(1+ε)`; nodes whose boosted
//! value is below the threshold `2/r` double it with probability `1/2` (and
//! drop it to zero otherwise), all other nodes keep their value. One
//! application therefore (roughly) doubles the fractionality while the size
//! grows only by the `(1+ε)` boost plus the rare phase-two repairs; iterating
//! `O(log Δ)` times turns the `ε/(2Δ̃)`-fractional initial solution of
//! Lemma 2.1 into a `poly log`-fractional one (Part II of the main algorithm).
//!
//! Two constructions, both with the same boosted value node per graph node:
//!
//! * [`on_graph`] — Lemma 3.9: constraints are the inclusive neighborhoods of
//!   `G`; used by the network-decomposition route.
//! * [`bipartite_split`] — Lemma 3.14: the bipartite representation with
//!   every constraint split into pieces of `Θ(s)` participating members (plus
//!   one piece holding the non-participating, high-value members), which
//!   keeps constraint degrees at `O(s)` and hence the distance-two coloring
//!   small, at the cost of requiring the concentration argument of Lemma 3.7
//!   per piece.
//!
//! The paper's constants `r ≥ 256·ε⁻³·ln Δ̃` and `s = 64·ε⁻²·ln Δ̃` are
//! provided by [`paper_r_threshold`] and [`paper_split_size`]; they are far
//! too large to be exercised on laptop-scale graphs (the paper itself notes
//! that Part II is skipped for small Δ), so both take a `scale` argument, and
//! the pipeline passes its `MdsConfig::concentration_scale` (substitution
//! R6). The caller computes `s` and hands it to [`bipartite_split`].

use crate::problem::RoundingProblem;
use congest_sim::{Graph, NodeId};
use mds_fractional::FractionalAssignment;

/// The paper's lower bound on `r`: `256·ε⁻³·ln Δ̃` (Lemma 3.7), optionally
/// scaled by `scale` for laptop-sized experiments.
pub fn paper_r_threshold(epsilon: f64, delta_tilde: usize, scale: f64) -> f64 {
    let eps = epsilon.max(1e-6);
    (256.0 * scale) * eps.powi(-3) * (delta_tilde.max(2) as f64).ln()
}

/// The paper's split size `s = 64·ε⁻²·ln Δ̃` (Lemma 3.14), optionally scaled.
pub fn paper_split_size(epsilon: f64, delta_tilde: usize, scale: f64) -> usize {
    let eps = epsilon.max(1e-6);
    (((64.0 * scale) * eps.powi(-2) * (delta_tilde.max(2) as f64).ln()).ceil() as usize).max(1)
}

/// Parameters of one doubling step starting from a `1/r`-fractional input.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorTwoConfig {
    /// The ε of the step (values are boosted by `1+ε`).
    pub epsilon: f64,
    /// The fractionality parameter `r`: nodes with boosted value `< 2/r`
    /// participate in the rounding.
    pub r: f64,
}

/// A problem holding the value nodes of both constructions and no constraint
/// yet: node `v` takes the boosted value `min(1, (1+ε)·x'(v))` and flips a
/// coin of probability `max(1/2, x)` when that value is below the threshold
/// `2/r`, and keeps it otherwise.
fn doubling_values(
    graph: &Graph,
    x_prime: &FractionalAssignment,
    config: &FactorTwoConfig,
) -> RoundingProblem {
    assert_eq!(x_prime.len(), graph.n(), "assignment/graph size mismatch");
    let threshold = 2.0 / config.r.max(2.0);
    let mut problem = RoundingProblem::new();
    for v in graph.nodes() {
        let x = ((1.0 + config.epsilon) * x_prime.value(v)).min(1.0);
        let p = if x < threshold { 0.5f64.max(x) } else { 1.0 };
        problem.add_value(x, p);
    }
    problem
}

/// Lemma 3.9 instantiation on the graph itself.
pub fn on_graph(
    graph: &Graph,
    x_prime: &FractionalAssignment,
    config: &FactorTwoConfig,
) -> RoundingProblem {
    let mut problem = doubling_values(graph, x_prime, config);
    for v in graph.nodes() {
        let members: Vec<usize> = graph.inclusive_neighbors(v).map(|u| u.0).collect();
        problem.add_constraint(v.0, 1.0, members);
    }
    problem
}

/// Lemma 3.14 instantiation: the bipartite representation with every
/// constraint's participating members split into pieces of `s` to `2s - 1`
/// (the pipeline passes the scaled [`paper_split_size`]).
///
/// # Panics
///
/// Panics if `s` is zero.
pub fn bipartite_split(
    graph: &Graph,
    x_prime: &FractionalAssignment,
    config: &FactorTwoConfig,
    s: usize,
) -> RoundingProblem {
    assert!(s >= 1, "split size s must be at least 1");
    let mut problem = doubling_values(graph, x_prime, config);
    for v in graph.nodes() {
        // Separate the inclusive neighborhood into participating (low
        // value) and non-participating (high value) members.
        let mut low: Vec<NodeId> = Vec::new();
        let mut high: Vec<NodeId> = Vec::new();
        for u in graph.inclusive_neighbors(v) {
            if problem.values[u.0].participates() {
                low.push(u);
            } else {
                high.push(u);
            }
        }
        let constraint_of = |members: &[NodeId]| -> (f64, Vec<usize>) {
            let c: f64 = members
                .iter()
                .map(|&u| x_prime.value(u))
                .sum::<f64>()
                .min(1.0);
            (c, members.iter().map(|&u| u.0).collect())
        };
        if low.len() < s {
            // v1-type: everything stays in one constraint.
            let mut members = high.clone();
            members.extend_from_slice(&low);
            let (c, ms) = constraint_of(&members);
            problem.add_constraint(v.0, c, ms);
        } else {
            // v1 keeps the non-participating members.
            if !high.is_empty() {
                let (c, ms) = constraint_of(&high);
                problem.add_constraint(v.0, c, ms);
            }
            // The participating members are split into chunks of size in
            // [s, 2s).
            let mut rest = low.as_slice();
            while !rest.is_empty() {
                let take = if rest.len() >= 2 * s { s } else { rest.len() };
                let (chunk, tail) = rest.split_at(take);
                let (c, ms) = constraint_of(chunk);
                problem.add_constraint(v.0, c, ms);
                rest = tail;
            }
        }
    }
    problem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derandomize::{derandomize, DerandomizeConfig};
    use mds_graphs::generators;

    fn small_fractional(graph: &Graph, r: f64) -> FractionalAssignment {
        // A uniform 1/r-ish fractional dominating set on a regular graph:
        // value 1/min_inclusive_degree, scaled down to be "low" relative to r
        // when possible while staying feasible.
        let _ = r;
        mds_fractional::lp::degree_heuristic(graph)
    }

    #[test]
    fn paper_constants_match_formulas() {
        let r = paper_r_threshold(0.5, 33, 1.0);
        assert!((r - 256.0 * 8.0 * (33f64).ln()).abs() < 1e-9);
        let s = paper_split_size(0.5, 33, 1.0);
        assert_eq!(s, (64.0 * 4.0 * (33f64).ln()).ceil() as usize);
        // Scaling down shrinks both.
        assert!(paper_r_threshold(0.5, 33, 0.01) < r);
        assert!(paper_split_size(0.5, 33, 0.01) < s);
    }

    #[test]
    fn participation_follows_the_threshold() {
        let g = generators::cycle(24);
        let x = FractionalAssignment::from_values(vec![1.0 / 8.0; 24]);
        // r = 8: threshold 2/r = 0.25; boosted values (1.1/8 ≈ 0.1375) < 0.25,
        // so everyone participates.
        let cfg = FactorTwoConfig {
            epsilon: 0.1,
            r: 8.0,
        };
        let problem = on_graph(&g, &x, &cfg);
        assert!(problem.values.iter().all(|v| v.participates()));
        // r = 2: threshold 1.0; still everyone participates (values < 1).
        // r huge: threshold tiny; nobody participates.
        let cfg = FactorTwoConfig {
            epsilon: 0.1,
            r: 1e9,
        };
        let problem = on_graph(&g, &x, &cfg);
        assert!(problem.values.iter().all(|v| !v.participates()));
    }

    #[test]
    fn output_fractionality_roughly_doubles() {
        let g = generators::cycle(36);
        let x = FractionalAssignment::from_values(vec![1.0 / 12.0; 36]);
        let cfg = FactorTwoConfig {
            epsilon: 0.25,
            r: 12.0,
        };
        let problem = on_graph(&g, &x, &cfg);
        let out = derandomize(&problem, &DerandomizeConfig::default());
        // All surviving non-zero values are either doubled low values or 1s
        // introduced in phase two.
        let min_nonzero = out.output.fractionality();
        assert!(
            min_nonzero >= 2.0 * (1.0 / 12.0) - 1e-9,
            "fractionality {min_nonzero} did not double"
        );
        assert!(out.output.is_feasible_dominating_set(&g));
    }

    #[test]
    fn derandomized_size_respects_lemma_3_9_shape() {
        // Size after one step is at most (1+ε)·A plus the phase-two repairs,
        // which the estimator accounts for exactly.
        let g = generators::gnp(60, 0.15, 4);
        let x = small_fractional(&g, 8.0);
        let a = x.size();
        let cfg = FactorTwoConfig {
            epsilon: 0.25,
            r: 8.0,
        };
        let problem = on_graph(&g, &x, &cfg);
        let out = derandomize(&problem, &DerandomizeConfig::default());
        assert!(out.output.is_feasible_dominating_set(&g));
        assert!(
            out.output_size() <= out.initial_estimate + 1e-6,
            "derandomization exceeded its expectation bound"
        );
        // The expectation bound itself should not be much larger than (1+ε)A
        // unless many constraints are at risk; on this dense graph the risk
        // term stays moderate.
        assert!(out.initial_estimate <= (1.0 + 0.25) * a + g.n() as f64 * 0.5 + 1.0);
    }

    #[test]
    fn bipartite_split_caps_participating_degree() {
        let g = generators::star(200);
        let x = FractionalAssignment::from_values(vec![0.02; 200]);
        let cfg = FactorTwoConfig {
            epsilon: 0.25,
            r: 50.0,
        };
        // The most participating members of one constraint: the quantity the
        // split keeps at O(s) so that the Lemma 3.12 coloring stays cheap.
        let participating_degree = |problem: &RoundingProblem| {
            let degrees = problem.constraints.iter().map(|c| {
                let members = c.members.iter();
                members
                    .filter(|&&m| problem.values[m].participates())
                    .count()
            });
            degrees.max().unwrap_or(0)
        };
        let split = bipartite_split(&g, &x, &cfg, 8);
        assert!(participating_degree(&split) <= 16);
        let full = on_graph(&g, &x, &cfg);
        assert_eq!(participating_degree(&full), 200);
        // Splitting multiplies the number of constraints.
        assert!(split.constraints.len() > full.constraints.len());
    }

    #[test]
    fn bipartite_split_rounding_is_feasible_on_the_original_graph() {
        let g = generators::gnp(70, 0.2, 11);
        let x = small_fractional(&g, 10.0);
        let cfg = FactorTwoConfig {
            epsilon: 0.3,
            r: 10.0,
        };
        let problem = bipartite_split(&g, &x, &cfg, 6);
        let out = derandomize(&problem, &DerandomizeConfig::default());
        assert!(out.output.is_feasible_dominating_set(&g));
    }

    #[test]
    fn split_constraints_cover_every_member_exactly_once() {
        let g = generators::gnp(40, 0.3, 2);
        let x = small_fractional(&g, 12.0);
        let cfg = FactorTwoConfig {
            epsilon: 0.2,
            r: 12.0,
        };
        let split = bipartite_split(&g, &x, &cfg, 4);
        // For every original node, the union of its split constraints' members
        // equals its inclusive neighborhood.
        use std::collections::BTreeSet;
        let mut union: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); g.n()];
        let mut counts: Vec<usize> = vec![0; g.n()];
        for c in &split.constraints {
            for &m in &c.members {
                union[c.original].insert(m);
                counts[c.original] += 1;
            }
        }
        for v in g.nodes() {
            let expected: BTreeSet<usize> = g.inclusive_neighbors(v).map(|u| u.0).collect();
            assert_eq!(union[v.0], expected, "member union mismatch at {v}");
            assert_eq!(counts[v.0], expected.len(), "members duplicated at {v}");
        }
    }

    #[test]
    #[should_panic(expected = "split size s must be at least 1")]
    fn zero_split_size_panics() {
        // Every node participates (boosted 0.125 < 2/r = 0.25), so every node
        // reaches the split branch, where chunks of `s = 0` never shrink the
        // member list.
        let g = generators::star(4);
        let x = FractionalAssignment::from_values(vec![0.1; 4]);
        let cfg = FactorTwoConfig {
            epsilon: 0.25,
            r: 8.0,
        };
        let _ = bipartite_split(&g, &x, &cfg, 0);
    }
}

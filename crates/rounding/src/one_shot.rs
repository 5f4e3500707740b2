//! One-shot rounding (Section 3.2, Lemmas 3.6, 3.8 and 3.13).
//!
//! The input fractional values are boosted by a factor `ln Δ̃` and every node
//! is rounded with probability equal to its boosted value, producing an
//! *integral* dominating set. When the input is `1/F`-fractional the
//! probability that a constraint ends up violated is at most `Δ̃^{-1}`
//! (Lemma 3.6), so the expected output size is at most
//! `ln Δ̃ · A + n/Δ̃` (Lemmas 3.8 / 3.13).
//!
//! Two constructions are provided, both with the same boosted value node per
//! graph node:
//!
//! * [`on_graph`] — the plain instantiation on `G` (Section 3.2), used by the
//!   network-decomposition route (Theorem 1.1).
//! * [`degree_reduced`] — the bipartite-representation instantiation of
//!   Lemma 3.13, in which each constraint keeps only a set of at most `F`
//!   value nodes that already cover it; this makes the left-hand degrees
//!   (and hence the coloring cost of Lemma 3.12) small, which is what the
//!   degree-dependent route (Theorem 1.2) needs.

use crate::problem::RoundingProblem;
use congest_sim::{Graph, NodeId};
use mds_fractional::FractionalAssignment;

/// The boost factor `ln Δ̃` used for a graph (at least 1, so that tiny graphs
/// still make progress).
pub fn boost_factor(graph: &Graph) -> f64 {
    (graph.delta_tilde().max(2) as f64).ln().max(1.0)
}

/// A problem holding the value nodes of both constructions and no constraint
/// yet: node `v` is rounded with probability equal to its boosted value
/// `min(1, ln Δ̃ · x'(v))`.
fn boosted_values(graph: &Graph, x_prime: &FractionalAssignment) -> RoundingProblem {
    assert_eq!(x_prime.len(), graph.n(), "assignment/graph size mismatch");
    let boost = boost_factor(graph);
    let mut problem = RoundingProblem::new();
    for v in graph.nodes() {
        let x = (x_prime.value(v) * boost).min(1.0);
        problem.add_value(x, x);
    }
    problem
}

/// Plain instantiation on the graph: every node is both a value node and the
/// owner of a unit constraint over its inclusive neighborhood.
pub fn on_graph(graph: &Graph, x_prime: &FractionalAssignment) -> RoundingProblem {
    let mut problem = boosted_values(graph, x_prime);
    for v in graph.nodes() {
        let members: Vec<usize> = graph.inclusive_neighbors(v).map(|u| u.0).collect();
        problem.add_constraint(v.0, 1.0, members);
    }
    problem
}

/// Lemma 3.13 instantiation: each constraint keeps only a covering set of at
/// most `f` value nodes (possible whenever the input is `1/f`-fractional),
/// which reduces the constraint degrees to `f`.
pub fn degree_reduced(graph: &Graph, x_prime: &FractionalAssignment, f: usize) -> RoundingProblem {
    assert!(f >= 1, "F must be at least 1");
    let mut problem = boosted_values(graph, x_prime);
    for v in graph.nodes() {
        // Pick neighbors by decreasing input value until they cover the
        // constraint; a 1/F-fractional input needs at most F of them.
        let mut candidates: Vec<NodeId> = graph
            .inclusive_neighbors(v)
            .filter(|&u| x_prime.value(u) > 0.0)
            .collect();
        candidates.sort_by(|&a, &b| {
            x_prime
                .value(b)
                .partial_cmp(&x_prime.value(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut members = Vec::new();
        let mut covered = 0.0f64;
        for u in candidates {
            if covered >= 1.0 - 1e-9 || members.len() >= f {
                break;
            }
            covered += x_prime.value(u);
            members.push(u.0);
        }
        if members.is_empty() {
            // Degenerate inputs (infeasible x'): keep the whole inclusive
            // neighborhood so phase two can repair the constraint.
            members = graph.inclusive_neighbors(v).map(|u| u.0).collect();
        }
        problem.add_constraint(v.0, 1.0, members);
    }
    problem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derandomize::{derandomize, DerandomizeConfig};
    use crate::process::execute_with_rng;
    use mds_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_fds(graph: &Graph) -> FractionalAssignment {
        // 1/Δ̃ everywhere is always a feasible fractional dominating set on a
        // regular graph; for irregular graphs we use the degree heuristic.
        mds_fractional::lp::degree_heuristic(graph)
    }

    #[test]
    fn on_graph_values_are_their_own_probabilities() {
        let g = generators::cycle(9);
        let x = FractionalAssignment::from_values(vec![1.0 / 3.0; 9]);
        let problem = on_graph(&g, &x);
        for v in &problem.values {
            assert!((v.p - v.x).abs() < 1e-12);
            assert!(v.x >= 1.0 / 3.0);
        }
        assert_eq!(problem.constraints.len(), 9);
    }

    #[test]
    fn rounding_result_is_integral_and_dominating() {
        for seed in 0..3 {
            let g = generators::gnp(50, 0.1, seed);
            let x = uniform_fds(&g);
            let problem = on_graph(&g, &x);
            let out = derandomize(&problem, &DerandomizeConfig::default());
            assert!(out.output.is_integral());
            assert!(out.output.is_feasible_dominating_set(&g));
        }
    }

    #[test]
    fn derandomized_size_respects_lemma_3_8_bound() {
        let g = generators::gnp(80, 0.08, 2);
        let x = uniform_fds(&g);
        let a = x.size();
        let boost = boost_factor(&g);
        let problem = on_graph(&g, &x);
        let out = derandomize(&problem, &DerandomizeConfig::default());
        let bound = boost * a + g.n() as f64 / g.delta_tilde() as f64 + 1.0;
        assert!(
            out.output_size() <= bound + 1e-6,
            "size {} exceeds Lemma 3.8 bound {bound}",
            out.output_size()
        );
    }

    #[test]
    fn empirical_violation_probability_respects_lemma_3_6() {
        // With a 1/F-fractional input, Pr(E_v = 1) ≤ 1/Δ̃ for every node.
        let g = generators::cycle(30);
        let x = FractionalAssignment::from_values(vec![1.0 / 3.0; 30]);
        let problem = on_graph(&g, &x);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 2000;
        let mut violations = vec![0usize; problem.constraints.len()];
        for _ in 0..trials {
            let out = execute_with_rng(&problem, &mut rng);
            for &c in &out.violated_constraints {
                violations[c] += 1;
            }
        }
        let delta_tilde = g.delta_tilde() as f64;
        for (ci, &count) in violations.iter().enumerate() {
            let freq = count as f64 / trials as f64;
            assert!(
                freq <= 1.0 / delta_tilde + 0.05,
                "constraint {ci} violated with frequency {freq} > 1/Δ̃ + slack"
            );
        }
    }

    #[test]
    fn degree_reduction_caps_constraint_degree() {
        let g = generators::star(64);
        // A 1/4-fractional dominating set: center 1/2, a few leaves 1/4.
        let mut values = vec![0.0; 64];
        values[0] = 0.5;
        for leaf in values.iter_mut().take(5).skip(1) {
            *leaf = 0.25;
        }
        // Every leaf needs its own coverage: give all leaves 1/4 as well, the
        // center covers them anyway after boosting.
        for v in values.iter_mut().skip(1) {
            *v = 0.25;
        }
        let x = FractionalAssignment::from_values(values);
        let f = 4;
        let max_degree = |problem: &RoundingProblem| {
            let degrees = problem.constraints.iter().map(|c| c.members.len());
            degrees.max().unwrap_or(0)
        };
        assert!(max_degree(&degree_reduced(&g, &x, f)) <= f);
        // The full representation would have a constraint of degree 64.
        assert_eq!(max_degree(&on_graph(&g, &x)), 64);
    }

    #[test]
    fn degree_reduced_rounding_still_dominates() {
        let g = generators::gnp(60, 0.12, 7);
        let x = uniform_fds(&g);
        // The degree heuristic is 1/Δ̃-fractional, so F = Δ̃ always works.
        let problem = degree_reduced(&g, &x, g.delta_tilde());
        let out = derandomize(&problem, &DerandomizeConfig::default());
        assert!(out.output.is_integral());
        assert!(out.output.is_feasible_dominating_set(&g));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_assignment_panics() {
        let g = generators::path(4);
        let x = FractionalAssignment::from_values(vec![0.0; 3]);
        let _ = on_graph(&g, &x);
    }
}

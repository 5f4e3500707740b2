//! Randomized baselines: the processes the paper derandomizes.
//!
//! These are used by experiments E6 (empirical violation probabilities vs the
//! Lemma 3.6/3.7 bounds) and E9 (derandomized vs randomized output quality).

use congest_sim::{Graph, NodeId};
use mds_fractional::lemma21::{initial_fractional_solution, InitialSolutionConfig};
use mds_rounding::one_shot;
use mds_rounding::process::execute_with_rng;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of a randomized rounding run.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomizedResult {
    /// The dominating set produced.
    pub dominating_set: Vec<NodeId>,
    /// Number of constraints repaired in phase two.
    pub repaired: usize,
}

impl RandomizedResult {
    /// Size of the dominating set.
    pub fn size(&self) -> usize {
        self.dominating_set.len()
    }
}

/// Randomized one-shot rounding with fully independent coins: Part I (the
/// default distributed MWU solver) followed by a single randomized execution
/// of the one-shot process.
pub fn randomized_one_shot(graph: &Graph, epsilon: f64, seed: u64) -> RandomizedResult {
    let initial = initial_fractional_solution(
        graph,
        &InitialSolutionConfig {
            epsilon,
            ..InitialSolutionConfig::default()
        },
    );
    let problem = one_shot::on_graph(graph, &initial.assignment);
    let mut rng = StdRng::seed_from_u64(seed);
    let out = execute_with_rng(&problem, &mut rng);
    RandomizedResult {
        dominating_set: out.output.selected_nodes(),
        repaired: out.violated_constraints.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_dominating_set;
    use mds_graphs::generators;

    #[test]
    fn randomized_one_shot_always_dominates() {
        for seed in 0..5 {
            let g = generators::gnp(40, 0.12, 3);
            let result = randomized_one_shot(&g, 0.3, seed);
            assert!(is_dominating_set(&g, &result.dominating_set));
        }
    }

    #[test]
    fn expected_size_is_comparable_to_deterministic_pipeline() {
        let g = generators::gnp(50, 0.15, 6);
        let det = crate::pipeline::theorem_1_1(&g, &crate::pipeline::MdsConfig::default());
        let trials = 15;
        let mean: f64 = (0..trials)
            .map(|s| randomized_one_shot(&g, 0.3, s).size() as f64)
            .sum::<f64>()
            / trials as f64;
        // The derandomized algorithm is within a small factor of the
        // randomized mean (it optimizes the same expectation bound).
        assert!(
            (det.size() as f64) <= mean * 1.6 + 2.0,
            "deterministic {} vs randomized mean {mean}",
            det.size()
        );
    }

    #[test]
    fn repaired_count_matches_lemma_3_6_scale() {
        // With a near-optimal fractional input the number of phase-two repairs
        // stays around n/Δ̃.
        let g = generators::gnp(80, 0.15, 9);
        let mut total = 0usize;
        let trials = 10;
        for s in 0..trials {
            total += randomized_one_shot(&g, 0.3, s).repaired;
        }
        let mean = total as f64 / trials as f64;
        let bound = g.n() as f64 / g.delta_tilde() as f64;
        assert!(
            mean <= 3.0 * bound + 2.0,
            "mean repairs {mean} vs n/Δ̃ = {bound}"
        );
    }
}

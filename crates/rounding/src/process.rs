//! Execution of the abstract randomized rounding process (Lemma 3.1).
//!
//! Phase one: every participating value node flips its biased coin and either
//! raises its value to `x(v)/p(v)` or drops it to zero. Phase two: every
//! constraint that ended up violated makes its owner join the dominating set
//! with value 1. The process can be driven by a true RNG, by `k`-wise
//! independent coins ([`crate::KWiseGenerator`]), or by an explicit coin
//! assignment produced by the derandomizer.

use crate::estimator::CoinState;
use crate::kwise::KWiseGenerator;
use crate::problem::RoundingProblem;
use mds_fractional::FractionalAssignment;
use rand::Rng;

/// The result of one execution of the rounding process.
#[derive(Debug, Clone)]
pub struct RoundedOutcome {
    /// The new assignment on the graph (each node's realised value, with
    /// violated constraint owners raised to 1).
    pub output: FractionalAssignment,
    /// Realised phase-one value of every value node.
    pub realised_values: Vec<f64>,
    /// Indices of the constraints violated after phase one.
    pub violated_constraints: Vec<usize>,
}

impl RoundedOutcome {
    /// Size of the output assignment.
    pub fn output_size(&self) -> f64 {
        self.output.size()
    }
}

/// Executes both phases with an explicit coin assignment.
///
/// # Panics
///
/// Panics if `coins` has the wrong length or leaves a participating value
/// node undecided.
pub fn execute_with_coins(problem: &RoundingProblem, coins: &[CoinState]) -> RoundedOutcome {
    assert_eq!(
        coins.len(),
        problem.values.len(),
        "one coin state per value node"
    );
    let realised: Vec<f64> = problem
        .values
        .iter()
        .zip(coins)
        .map(|(v, &coin)| v.realised(coin))
        .collect();

    let violated: Vec<usize> = problem
        .constraints
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            let coverage: f64 = c.members.iter().map(|&m| realised[m]).sum();
            coverage < c.c - 1e-9
        })
        .map(|(i, _)| i)
        .collect();

    let output = problem.assemble_output(&realised, &violated);
    RoundedOutcome {
        output,
        realised_values: realised,
        violated_constraints: violated,
    }
}

/// Executes the process with fully independent coins drawn from `rng`, one
/// draw per participating value node in index order; non-participating nodes
/// never read their coin and get [`CoinState::Zero`].
pub fn execute_with_rng<R: Rng + ?Sized>(problem: &RoundingProblem, rng: &mut R) -> RoundedOutcome {
    let coins: Vec<CoinState> = problem
        .values
        .iter()
        .map(|v| {
            if v.participates() && rng.gen::<f64>() < v.p {
                CoinState::Take
            } else {
                CoinState::Zero
            }
        })
        .collect();
    execute_with_coins(problem, &coins)
}

/// Executes the process with `k`-wise independent coins: value node `i` uses
/// the generator's coin at point `i`.
pub fn execute_with_kwise(problem: &RoundingProblem, generator: &KWiseGenerator) -> RoundedOutcome {
    let coins: Vec<CoinState> = problem
        .values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if v.participates() && generator.coin(i as u64, v.p) {
                CoinState::Take
            } else {
                CoinState::Zero
            }
        })
        .collect();
    execute_with_coins(problem, &coins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{Estimator, EstimatorKind};
    use congest_sim::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_problem() -> RoundingProblem {
        let mut p = RoundingProblem::new();
        let a = p.add_value(0.5, 0.5);
        let b = p.add_value(0.5, 0.5);
        let c = p.add_value(0.25, 1.0);
        p.add_constraint(0, 1.0, vec![a, b, c]);
        p.add_constraint(2, 0.25, vec![c]);
        p
    }

    #[test]
    fn explicit_coins_drive_the_outcome() {
        let p = toy_problem();
        let out = execute_with_coins(&p, &[CoinState::Take, CoinState::Zero, CoinState::Zero]);
        assert_eq!(out.realised_values, vec![1.0, 0.0, 0.25]);
        // Constraint 0 needs 1.0 and gets 1.25: satisfied; constraint 1 gets
        // 0.25 ≥ 0.25: satisfied.
        assert!(out.violated_constraints.is_empty());
        assert_eq!(out.output.value(NodeId(0)), 1.0);
        assert_eq!(out.output.value(NodeId(1)), 0.0);
    }

    #[test]
    fn violations_force_owner_into_the_set() {
        let p = toy_problem();
        let out = execute_with_coins(&p, &[CoinState::Zero, CoinState::Zero, CoinState::Zero]);
        // Coverage of constraint 0 is only 0.25 < 1: owner (node 0) joins.
        assert_eq!(out.violated_constraints, vec![0]);
        assert_eq!(out.output.value(NodeId(0)), 1.0);
    }

    #[test]
    #[should_panic(expected = "left undecided")]
    fn undecided_participating_coin_panics() {
        let p = toy_problem();
        let _ = execute_with_coins(
            &p,
            &[CoinState::Undecided, CoinState::Zero, CoinState::Zero],
        );
    }

    #[test]
    fn output_is_always_a_feasible_cfds_after_phase_two() {
        // Lemma 3.1 (1): after phase two every constraint is satisfied
        // (owners of violated constraints have value 1 and c ≤ 1).
        let p = toy_problem();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let out = execute_with_rng(&p, &mut rng);
            for (ci, c) in p.constraints.iter().enumerate() {
                let coverage: f64 = c.members.iter().map(|&m| out.realised_values[m]).sum();
                let owner_value = out.output.value(NodeId(c.original));
                assert!(
                    coverage >= c.c - 1e-9 || owner_value == 1.0,
                    "constraint {ci} unsatisfied and owner not in set"
                );
            }
        }
    }

    #[test]
    fn empirical_mean_matches_estimator_total() {
        // Lemma 3.1 (2): the expected output size is bounded by
        // Σ E[X] + Σ Pr(violated), which the estimator computes exactly here.
        let p = toy_problem();
        let est = Estimator::new(&p, EstimatorKind::ExactDp { resolution: 2000 });
        let coins = vec![crate::estimator::CoinState::Undecided; p.values.len()];
        let bound = est.total(&coins);
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 4000;
        let mean: f64 = (0..trials)
            .map(|_| {
                let out = execute_with_rng(&p, &mut rng);
                out.realised_values.iter().sum::<f64>() + out.violated_constraints.len() as f64
            })
            .sum::<f64>()
            / trials as f64;
        assert!(mean <= bound + 0.05, "mean {mean} exceeds bound {bound}");
        assert!(
            mean >= bound - 0.25,
            "estimator is unexpectedly loose: {mean} vs {bound}"
        );
    }

    #[test]
    fn kwise_execution_is_deterministic_given_generator() {
        let p = toy_problem();
        let bits: Vec<bool> = (0..8 * 61).map(|i| (i * 7) % 5 == 0).collect();
        let g = KWiseGenerator::from_fair_coins(&bits, 8);
        let a = execute_with_kwise(&p, &g);
        let b = execute_with_kwise(&p, &g);
        assert_eq!(a.realised_values, b.realised_values);
        assert_eq!(a.violated_constraints, b.violated_constraints);
    }
}

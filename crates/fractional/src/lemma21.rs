//! Lemma 2.1: the initial fractional dominating set.
//!
//! > *For any ε > 0 there is a deterministic CONGEST algorithm that computes a
//! > (1+ε)-approximation for MDS that is ε/(2Δ)-fractional and has runtime
//! > O(ε⁻⁴ log² Δ).*
//!
//! The construction: run a `(1+ε/2)`-approximate fractional solver, then raise
//! every value below the floor `ε/(2Δ̃)` to the floor. Since any dominating set
//! has size at least `n/Δ̃`, the floor adds at most `(ε/2)·OPT`, so the result
//! stays a `(1+ε)`-approximation while becoming `ε/(2Δ̃)`-fractional — exactly
//! the fractionality the gradual rounding of Section 3 starts from.
//!
//! Both solvers are node programs. The composed pipeline
//! (`mds_core::pipeline::run_on`) runs them as one measured engine phase and
//! applies [`apply_lemma21_floor`] to the outputs; the floor is local
//! arithmetic and spends no round, so it has no ledger record.
//! [`initial_fractional_solution`] is the executor-free form the central
//! oracle and the randomized baselines use.

use crate::cfds::FractionalAssignment;
use crate::kw05::{self, Kw05Program};
use crate::lp::{self, DistributedLpConfig};
use crate::transmittable;
use congest_sim::ledger::formulas;
use congest_sim::{
    Executor, ExecutorConfig, Graph, PhaseKind, PhaseSpec, RoundLedger, SyncExecutor,
};

/// Which fractional solver produces the pre-floor solution. Neither takes
/// parameters: each runs with the fixed setting its variant documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FractionalMethod {
    /// The distributed multiplicative-weights covering-LP solver
    /// ([`lp::DistributedLpProgram`], substitution R1 in `DESIGN.md`) under
    /// [`distributed_mwu_config`] of the default [`DistributedLpConfig`]: at
    /// most `4T+1` rounds, and a node halts once every constraint it serves
    /// is covered. The default.
    DistributedMwu,
    /// The strictly local KW05 algorithm with locality parameter
    /// [`kw05::default_k`] `= ⌈log₂ Δ̃⌉` (`O(log Δ)` quality, `O(k²)`
    /// rounds); the purely local ablation.
    Kw05,
}

/// Configuration of [`initial_fractional_solution`].
#[derive(Debug, Clone, PartialEq)]
pub struct InitialSolutionConfig {
    /// The ε of Lemma 2.1.
    pub epsilon: f64,
    /// Fractional solver to use.
    pub method: FractionalMethod,
}

impl Default for InitialSolutionConfig {
    fn default() -> Self {
        InitialSolutionConfig {
            epsilon: 0.25,
            method: FractionalMethod::DistributedMwu,
        }
    }
}

/// Resolves the solver ε the Lemma 2.1 wrapper hands to the distributed MWU
/// solver: half of the lemma's ε, never larger than the solver's own
/// configured accuracy. Exposed so the composed pipeline resolves the exact
/// same configuration as the central oracle.
pub fn distributed_mwu_config(config: &DistributedLpConfig, epsilon: f64) -> DistributedLpConfig {
    let mut c = config.clone();
    c.epsilon = (epsilon / 2.0).min(c.epsilon);
    c
}

/// Applies the Lemma 2.1 post-processing shared by
/// [`initial_fractional_solution`] and the composed pipeline: raise every
/// value to the fractionality floor `ε/(2Δ̃)` and round up to
/// CONGEST-transmittable values, as the derandomization lemmas require.
/// Returns the finished assignment and the floor that was applied.
pub fn apply_lemma21_floor(
    graph: &Graph,
    mut values: Vec<f64>,
    epsilon: f64,
) -> (FractionalAssignment, f64) {
    let delta_tilde = graph.delta_tilde().max(1);
    let epsilon = epsilon.max(1e-6);
    let floor = (epsilon / (2.0 * delta_tilde as f64)).min(1.0);
    for v in values.iter_mut() {
        if *v < floor {
            *v = floor;
        }
    }
    let assignment =
        transmittable::round_assignment_up(&FractionalAssignment::from_values(values), graph.n());
    (assignment, floor)
}

/// Output of Lemma 2.1.
#[derive(Debug, Clone)]
pub struct InitialSolution {
    /// The ε/(2Δ̃)-fractional, `(1+ε)`-approximate fractional dominating set.
    pub assignment: FractionalAssignment,
    /// The fractionality floor that was applied (`ε/(2Δ̃)`).
    pub floor: f64,
    /// A certified lower bound on the LP optimum (and hence on the MDS size).
    pub lp_lower_bound: f64,
    /// The solver's one Part I record (see [`initial_fractional_solution`]).
    pub ledger: RoundLedger,
}

/// A Part I phase: every ledger entry of Lemma 2.1 is [`PhaseKind::Fractional`].
fn part_one(name: &str) -> PhaseSpec {
    PhaseSpec::new(PhaseKind::Fractional, name)
}

/// Computes the initial fractional dominating set of Lemma 2.1 without an
/// executor in scope. Its ledger holds the one Part I record: under
/// [`FractionalMethod::DistributedMwu`] the exact rounds and messages of
/// [`lp::central_mwu_reference`], charged (bit-identical to the engine run,
/// proptest-enforced); under [`FractionalMethod::Kw05`], which has no
/// central replay, a measured run on [`SyncExecutor`].
pub fn initial_fractional_solution(
    graph: &Graph,
    config: &InitialSolutionConfig,
) -> InitialSolution {
    let epsilon = config.epsilon.max(1e-6);
    let mut ledger = RoundLedger::new();

    let values = match config.method {
        FractionalMethod::DistributedMwu => {
            let replay = lp::central_mwu_reference(
                graph,
                &distributed_mwu_config(&DistributedLpConfig::default(), epsilon),
            );
            ledger.charge(
                part_one("part I: distributed MWU covering LP (central oracle)")
                    .with_formula(formulas::kmw_fractional_rounds(graph.max_degree(), epsilon)),
                replay.rounds,
                replay.messages,
            );
            replay.assignment.values().to_vec()
        }
        FractionalMethod::Kw05 => {
            let k = kw05::default_k(graph);
            let report = SyncExecutor
                .run(
                    graph,
                    vec![Kw05Program::new(k); graph.n()],
                    &ExecutorConfig::default(),
                )
                .expect("KW05 program is well-formed");
            report.charge(
                &mut ledger,
                part_one("part I: KW05 local fractional solution (measured)")
                    .with_formula(formulas::kw05_rounds(k)),
            );
            report.outputs
        }
    };

    let (assignment, floor) = apply_lemma21_floor(graph, values, epsilon);
    InitialSolution {
        assignment,
        floor,
        lp_lower_bound: lp::dual_lower_bound(graph),
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_graphs::generators;

    #[test]
    fn output_is_feasible_and_floor_fractional() {
        let g = generators::gnp(80, 0.08, 3);
        let cfg = InitialSolutionConfig::default();
        let out = initial_fractional_solution(&g, &cfg);
        assert!(out.assignment.is_feasible_dominating_set(&g));
        assert!(out.assignment.fractionality() >= out.floor - 1e-12);
        assert!(out.floor > 0.0);
        assert!(out.ledger.total_simulated_rounds() > 0);
    }

    #[test]
    fn floor_increase_is_bounded_by_epsilon_fraction() {
        // On a Δ-regular-ish graph, the floor adds at most (ε/2 + o(1))·OPT.
        let g = generators::cycle(90);
        let eps = 0.5;
        let base = lp::degree_heuristic(&g);
        let (floored, floor) = apply_lemma21_floor(&g, base.values().to_vec(), eps);
        assert!(floored.is_feasible_dominating_set(&g));
        assert!(floored.fractionality() >= floor - 1e-12);
        // floor adds ≤ n·ε/(2Δ̃) = 90·0.5/6 = 7.5, but values are already
        // above the floor on a cycle, so only the transmittable round-up adds
        // anything: at most n·2^-ι ≤ n^-9.
        assert!(floored.size() <= base.size() + 1e-9);
    }

    #[test]
    fn all_four_methods_are_feasible() {
        let g = generators::gnp(50, 0.1, 9);
        for method in [FractionalMethod::DistributedMwu, FractionalMethod::Kw05] {
            let cfg = InitialSolutionConfig {
                epsilon: 0.3,
                method,
            };
            let out = initial_fractional_solution(&g, &cfg);
            assert!(out.assignment.is_feasible_dominating_set(&g));
            assert!(out.lp_lower_bound <= out.assignment.size() + 1e-9);
            assert_eq!(out.ledger.phases().len(), 1);
        }
    }

    #[test]
    fn transmittable_flag_quantizes_values() {
        let g = generators::star(30);
        let cfg = InitialSolutionConfig::default();
        let out = initial_fractional_solution(&g, &cfg);
        for &v in out.assignment.values() {
            assert!(
                crate::transmittable::is_transmittable(v, g.n()),
                "{v} not transmittable"
            );
        }
    }

    #[test]
    fn star_solution_stays_near_optimal() {
        let g = generators::star(100);
        let out = initial_fractional_solution(
            &g,
            &InitialSolutionConfig {
                epsilon: 0.2,
                ..InitialSolutionConfig::default()
            },
        );
        // OPT = 1; floor adds at most n·ε/(2Δ̃) = 100·0.1/101 < 0.1.
        assert!(
            out.assignment.size() <= 1.5,
            "size {}",
            out.assignment.size()
        );
    }

    #[test]
    fn empty_graph_yields_empty_solution() {
        let g = congest_sim::Graph::empty(0);
        let out = initial_fractional_solution(&g, &InitialSolutionConfig::default());
        assert_eq!(out.assignment.len(), 0);
        assert_eq!(out.assignment.size(), 0.0);
    }
}

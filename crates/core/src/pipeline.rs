//! The three-part deterministic MDS pipeline (Section 3.4).
//!
//! * **Part I** — the `ε/(2Δ̃)`-fractional, `(1+ε)`-approximate initial
//!   solution of Lemma 2.1 (`mds-fractional`).
//! * **Part II** — `O(log Δ)` iterations of factor-two rounding (Lemmas 3.9 /
//!   3.14) that raise the fractionality to `1/F` with `F = Θ(ε⁻³ log Δ̃)`.
//! * **Part III** — one application of one-shot rounding (Lemmas 3.8 / 3.13)
//!   that produces the integral dominating set, losing the final `ln Δ̃`
//!   factor.
//!
//! The derandomization route decides who fixes their coins when and therefore
//! the round complexity:
//!
//! * [`theorem_1_1`] — clusters of a 2-hop network decomposition fix coins
//!   cluster-by-cluster, color class by color class, run in conflict order
//!   (runtime `2^{O(√(log n log log n))}` in the paper's accounting).
//! * [`theorem_1_2`] — a distance-two coloring of the degree-reduced
//!   bipartite representation; color classes fix their coins in parallel
//!   (runtime `O(Δ·poly log Δ + poly log Δ·log* n)`).
//! * [`corollary_1_3`] — the LOCAL-model variant of the coloring route.
//!
//! # Execution modes
//!
//! [`run`] / [`run_on`] assemble the pipeline as a
//! [`congest_sim::ComposedProgram`] and execute its hot path on the engine:
//! the Part I fractional solver (the default
//! [`FractionalMethod::DistributedMwu`] or the [`FractionalMethod::Kw05`]
//! ablation), every Lemma 3.12 distance-two coloring of the coloring routes,
//! and every conditional-expectation schedule of Parts II/III run as real
//! node programs with *measured* round counts — and the
//! Theorem 1.1 network decomposition runs as the measured GK18-carving join
//! waves ([`mds_decomposition::netdecomp::NetDecompProgram`]), so **both**
//! theorem routes are engine-measured end to end: every round-spending phase
//! is measured, with one interleaved accounting stream either way. That
//! engine run is the pipeline's only cost model.
//! [`central_oracle`] retains the pure in-memory implementation of the same
//! decisions and charges nothing beyond its Part I record; the engine
//! execution is property-tested bit-identical to it on both executors
//! (`tests/properties.rs`).
//!
//! The paper's constants (`F = 256·ε⁻³·ln Δ̃`, `s = 64·ε⁻²·ln Δ̃`) make Part II
//! vacuous on any graph that fits in memory (the paper notes this itself for
//! small `Δ`); [`MdsConfig::concentration_scale`] scales them down so the
//! doubling loop is actually exercised (substitution R6 in `DESIGN.md`).

use congest_sim::ledger::formulas;
use congest_sim::{
    ComposedProgram, Executor, Graph, NodeId, PhaseKind, PhaseSpec, RoundLedger, SyncExecutor,
};
use mds_decomposition::coloring::{
    assemble_coloring, bipartite_distance_two_coloring, distance_two_coloring_programs,
    BipartiteColoring,
};
use mds_decomposition::netdecomp::{
    assemble_decomposition, netdecomp_programs, strong_diameter_decomposition, DecompositionConfig,
};
use mds_decomposition::NetworkDecomposition;
use mds_fractional::kw05::{self, Kw05Program};
use mds_fractional::lemma21::{
    apply_lemma21_floor, distributed_mwu_config, initial_fractional_solution, FractionalMethod,
    InitialSolutionConfig,
};
use mds_fractional::lp::{dual_lower_bound, DistributedLpConfig, DistributedLpProgram};
use mds_fractional::FractionalAssignment;
use mds_graphs::BipartiteGraph;
use mds_rounding::derandomize::{
    assemble_derand_outputs, derandomize, scheduled_derand_programs, DerandSchedule,
    DerandomizeConfig,
};
use mds_rounding::factor_two::{self, paper_r_threshold, paper_split_size, FactorTwoConfig};
use mds_rounding::one_shot;
use mds_rounding::problem::RoundingProblem;
use mds_rounding::EstimatorKind;

/// The separation `k` of the Theorem 1.1 route's network decomposition:
/// Lemma 3.4 derandomizes over a 2-hop decomposition, whose same-colored
/// clusters are at distance `> 2` and so share no constraint.
pub const SEPARATION: usize = 2;

/// Which derandomization machinery drives the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DerandRoute {
    /// Theorem 1.1: a [`SEPARATION`]-hop network decomposition (Lemma 3.4),
    /// runtime as a function of `n`.
    NetworkDecomposition,
    /// Theorem 1.2: distance-two colorings of the degree-reduced bipartite
    /// representation, runtime as a function of `Δ` (CONGEST model).
    Coloring,
    /// Corollary 1.3: the coloring route with LOCAL-model round accounting.
    ColoringLocal,
}

/// Configuration of the deterministic MDS pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MdsConfig {
    /// The ε of Theorems 1.1/1.2; the guarantee is `(1+ε)(1+ln(Δ+1))`.
    pub epsilon: f64,
    /// Derandomization route.
    pub route: DerandRoute,
    /// Which fractional solver provides the Part I solution.
    pub fractional: FractionalMethod,
    /// Estimator used by the method of conditional expectations.
    pub estimator: EstimatorKind,
    /// Scale factor on the paper's concentration constants (R6); `1.0` is the
    /// literal paper, smaller values exercise Part II on small graphs.
    pub concentration_scale: f64,
    /// Safety cap on the number of factor-two iterations.
    pub max_doubling_iterations: usize,
}

impl Default for MdsConfig {
    fn default() -> Self {
        MdsConfig {
            epsilon: 0.5,
            route: DerandRoute::NetworkDecomposition,
            fractional: FractionalMethod::DistributedMwu,
            estimator: EstimatorKind::default(),
            concentration_scale: 0.02,
            max_doubling_iterations: 40,
        }
    }
}

/// A snapshot of the assignment after one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name (`"part I"`, `"factor-two #3"`, `"one-shot"`, …).
    pub name: String,
    /// Size of the assignment after the stage.
    pub size: f64,
    /// Fractionality of the assignment after the stage.
    pub fractionality: f64,
}

/// The output of the deterministic pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MdsResult {
    /// The computed dominating set.
    pub dominating_set: Vec<NodeId>,
    /// The final (integral) assignment.
    pub assignment: FractionalAssignment,
    /// Round/message accounting across all parts: one record per phase, in
    /// execution order. Every record of a [`run_on`] ledger is an engine run
    /// ([`congest_sim::PhaseMode::Measured`]); a [`central_oracle`] ledger
    /// holds only the Part I record.
    pub ledger: RoundLedger,
    /// Per-stage size/fractionality trajectory (experiment E5).
    pub stages: Vec<StageRecord>,
    /// Certified lower bound on the LP optimum (and hence on OPT).
    pub lp_lower_bound: f64,
    /// The ε the pipeline was run with.
    pub epsilon: f64,
}

impl MdsResult {
    /// Size of the dominating set.
    pub fn size(&self) -> usize {
        self.dominating_set.len()
    }

    /// Rounds actually executed on the engine across all measured phases.
    /// A [`central_oracle`] run reports its Part I record only: the rounds
    /// of [`FractionalMethod::Kw05`], `0` under
    /// [`FractionalMethod::DistributedMwu`] (charged from its replay).
    pub fn measured_engine_rounds(&self) -> u64 {
        self.ledger.measured_rounds(None)
    }

    /// Rounds the measured Lemma 3.12 distance-two coloring phases spent on
    /// the engine, summed over all rounding steps (`0` on the
    /// network-decomposition route and for [`central_oracle`] runs, whose
    /// ledger is their Part I record).
    pub fn measured_coloring_rounds(&self) -> u64 {
        self.ledger.measured_rounds(Some(PhaseKind::Coloring))
    }

    /// Rounds the measured GK18-carving network decomposition spent on the
    /// engine (`0` on the coloring routes and for [`central_oracle`] runs,
    /// whose ledger is their Part I record).
    pub fn measured_netdecomp_rounds(&self) -> u64 {
        self.ledger.measured_rounds(Some(PhaseKind::NetDecomp))
    }

    /// The approximation guarantee `(1+ε)(1+ln(Δ+1))` for this run.
    pub fn guarantee(&self, graph: &Graph) -> f64 {
        (1.0 + self.epsilon) * (1.0 + (graph.delta_tilde().max(2) as f64).ln())
    }
}

/// Builds the constraint/value bipartite graph of a rounding problem together
/// with the owner (original node) of every constraint node and the
/// participating value nodes — the raw inputs of the Lemma 3.12 coloring,
/// central or measured. Public so examples and tests can build the instance
/// exactly as the pipeline does.
pub fn problem_bipartite(problem: &RoundingProblem) -> (BipartiteGraph, Vec<usize>, Vec<usize>) {
    let mut b = BipartiteGraph::new(problem.constraints.len(), problem.values.len());
    let mut left_owner = Vec::with_capacity(problem.constraints.len());
    for (ci, c) in problem.constraints.iter().enumerate() {
        left_owner.push(c.original);
        for &m in &c.members {
            b.add_edge(ci, m);
        }
    }
    (b, left_owner, problem.participating_values())
}

/// Colors the participating value nodes of a rounding problem on its
/// constraint/value bipartite graph (Lemma 3.12 applied to the problem) —
/// the grouping the Theorem 1.2 route schedules its coin fixing by. Public so
/// examples and tests color problems exactly as the pipeline does.
pub fn color_problem(problem: &RoundingProblem) -> BipartiteColoring {
    let (b, _owners, targets) = problem_bipartite(problem);
    bipartite_distance_two_coloring(&b, &targets)
}

/// Executes one derandomization step on the engine through the composer: the
/// one place where a step's coin-fixing groups, ledger name and paper formula
/// are decided for each route.
///
/// `decomposition` is the run's measured network decomposition with its
/// coin-fixing groups, present exactly on the Theorem 1.1 route. On the
/// coloring routes the Lemma 3.12 distance-two coloring itself runs first,
/// as a measured engine phase (substitution R4 made measured): the
/// [`DistanceTwoColoringProgram`](mds_decomposition::coloring::DistanceTwoColoringProgram)
/// executes the iterative color reduction in exactly
/// [`formulas::measured_coloring_rounds`] rounds, recorded next to the
/// Lemma 3.12 charge (which does not bound them; see that formula), and its
/// assembled output — bit-identical to the central
/// [`bipartite_distance_two_coloring`] oracle — provides the color classes,
/// which are the steps of the [`DerandSchedule`]: a smallest-free greedy
/// class `c` waits exactly for class `c − 1`. On the Theorem 1.1 route the
/// cluster order becomes its conflict order
/// ([`DerandSchedule::conflict_order`]). Then the scheduled
/// conditional-expectation program runs as a measured phase.
fn composed_derandomization<E: Executor>(
    composer: &mut ComposedProgram<'_, E>,
    graph: &Graph,
    problem: &RoundingProblem,
    config: &MdsConfig,
    decomposition: Option<&(NetworkDecomposition, Vec<Vec<usize>>)>,
) -> FractionalAssignment {
    let n = graph.n().max(2);
    let (schedule, name, formula) = match decomposition {
        Some((nd, groups)) => (
            DerandSchedule::conflict_order(groups, problem),
            "derandomization via network decomposition (Lemma 3.4)",
            formulas::netdecomp_derandomization_rounds(n, nd.num_colors(), nd.diameter() + 1),
        ),
        None => {
            let (bipartite, left_owner, targets) = problem_bipartite(problem);
            let (programs, schedule) =
                distance_two_coloring_programs(graph, &bipartite, &left_owner, &targets)
                    .expect("pipeline rounding problems are graph-aligned");
            let charge = formulas::bipartite_coloring_rounds(
                bipartite.max_left_degree(),
                bipartite.max_right_degree(),
                n,
            );
            let report = composer
                .measured(
                    PhaseSpec::new(
                        PhaseKind::Coloring,
                        "distance-two coloring (Lemma 3.12, measured)",
                    )
                    .with_formula(charge),
                    programs,
                )
                .expect("distance-two coloring program is well-formed");
            assert_eq!(
                report.rounds,
                formulas::measured_coloring_rounds(schedule.num_steps as u64)
            );
            let coloring = assemble_coloring(&report.outputs);
            let mut formula = formulas::coloring_derandomization_rounds(coloring.num_colors);
            if matches!(config.route, DerandRoute::ColoringLocal) {
                // Corollary 1.3: the coloring can be computed in
                // O(F·Δ + log* n) rounds in the LOCAL model.
                formula += (bipartite.max_left_degree() * graph.max_degree().max(1)) as u64
                    + formulas::log_star(n) as u64;
            }
            (
                DerandSchedule {
                    steps: coloring.classes(),
                },
                "derandomization via distance-two coloring (Lemma 3.10)",
                formula,
            )
        }
    };
    let programs = scheduled_derand_programs(graph, problem, &schedule, config.estimator)
        .expect("pipeline rounding problems are graph-aligned");
    let report = composer
        .measured(
            PhaseSpec::new(PhaseKind::Derandomization, format!("{name} (measured)"))
                .with_formula(formula),
            programs,
        )
        .expect("scheduled derandomization program is well-formed");
    assert_eq!(
        report.rounds,
        formulas::derandomization_schedule_rounds(schedule.len() as u64)
    );
    let (assignment, _violated) = assemble_derand_outputs(&report.outputs);
    assignment
}

/// The shared Part II/III control flow: builds each rounding problem exactly
/// as the paper prescribes and hands it to `round_step` for derandomization,
/// recording the stage trajectory from the Part I solution on. Both execution
/// modes instantiate this with their own `round_step`, so the engine run and
/// the central oracle follow bit-identical control flow.
fn rounding_parts<F>(
    graph: &Graph,
    config: &MdsConfig,
    mut assignment: FractionalAssignment,
    mut round_step: F,
) -> (FractionalAssignment, Vec<StageRecord>)
where
    F: FnMut(&RoundingProblem) -> FractionalAssignment,
{
    let mut stages = vec![StageRecord {
        name: "part I: initial fractional solution".to_owned(),
        size: assignment.size(),
        fractionality: assignment.fractionality(),
    }];
    let delta_tilde = graph.delta_tilde().max(2);

    // ---- Part II: factor-two doubling loop (Lemmas 3.9 / 3.14). ----
    let rho = ((delta_tilde as f64 / config.epsilon).log2().ceil()).max(1.0);
    let eps2 = (config.epsilon / (4.0 * rho)).max(1e-4);
    let f_target =
        paper_r_threshold(config.epsilon, delta_tilde, config.concentration_scale).max(4.0);
    let split_size =
        paper_split_size(config.epsilon, delta_tilde, config.concentration_scale).max(2);
    let mut iteration = 0usize;
    loop {
        let r = 1.0 / assignment.fractionality().max(1e-12);
        if r <= f_target || iteration >= config.max_doubling_iterations {
            break;
        }
        iteration += 1;
        let ft_config = FactorTwoConfig { epsilon: eps2, r };
        let problem = match config.route {
            DerandRoute::NetworkDecomposition => {
                factor_two::on_graph(graph, &assignment, &ft_config)
            }
            DerandRoute::Coloring | DerandRoute::ColoringLocal => {
                factor_two::bipartite_split(graph, &assignment, &ft_config, split_size)
            }
        };
        assignment = round_step(&problem);
        stages.push(StageRecord {
            name: format!("part II: factor-two rounding #{iteration}"),
            size: assignment.size(),
            fractionality: assignment.fractionality(),
        });
        if assignment.is_integral() {
            break;
        }
    }

    // ---- Part III: one-shot rounding (Lemmas 3.8 / 3.13). ----
    let assignment = if assignment.is_integral() {
        assignment
    } else {
        let f_actual = (1.0 / assignment.fractionality().max(1e-12)).ceil() as usize;
        let problem = match config.route {
            DerandRoute::NetworkDecomposition => one_shot::on_graph(graph, &assignment),
            DerandRoute::Coloring | DerandRoute::ColoringLocal => {
                one_shot::degree_reduced(graph, &assignment, f_actual.max(1))
            }
        };
        round_step(&problem)
    };
    stages.push(StageRecord {
        name: "part III: one-shot rounding".to_owned(),
        size: assignment.size(),
        fractionality: assignment.fractionality(),
    });
    (assignment, stages)
}

/// Flattens a decomposition's clusters, in color order, into the coin-fixing
/// groups of the Theorem 1.1 route (member identifiers per cluster) — shared
/// by the measured engine run and the central oracle.
fn nd_groups_of(nd: &NetworkDecomposition) -> Vec<Vec<usize>> {
    nd.clusters_by_color()
        .into_iter()
        .flatten()
        .map(|ci| {
            nd.clusters.clusters[ci]
                .members
                .iter()
                .map(|v| v.0)
                .collect()
        })
        .collect()
}

/// The Lemma 2.1 configuration of Part I: `ε/4`, clamped, with the solver the
/// pipeline is configured with and transmittable values.
fn part_one_config(config: &MdsConfig) -> InitialSolutionConfig {
    InitialSolutionConfig {
        epsilon: (config.epsilon / 4.0).clamp(1e-3, 0.25),
        method: config.fractional,
    }
}

/// Runs the pipeline as a composed engine execution on the sequential
/// executor (see [`run_on`]).
pub fn run(graph: &Graph, config: &MdsConfig) -> MdsResult {
    run_on(graph, config, &SyncExecutor)
}

/// Assembles the pipeline as a [`ComposedProgram`] and executes it end to end
/// on `executor`: measured node programs for the fractional solver, for
/// every Lemma 3.12 distance-two coloring of the coloring routes, for every
/// conditional-expectation schedule, and for the Theorem 1.1 network
/// decomposition (the GK18-carving join waves of
/// [`mds_decomposition::netdecomp::NetDecompProgram`]) — every round-spending
/// phase runs measured on the engine, and every ledger record is one such
/// run. The result is bit-identical to [`central_oracle`]
/// (property-tested); only this run's ledger carries the pipeline's round
/// accounting.
pub fn run_on<E: Executor>(graph: &Graph, config: &MdsConfig, executor: &E) -> MdsResult {
    let mut composer = ComposedProgram::new(graph, executor);

    // ---- Part I: initial fractional solution (Lemma 2.1), one measured
    // phase; the floor is local arithmetic and spends no round. ----
    let eps1 = part_one_config(config).epsilon;
    let values = match config.fractional {
        FractionalMethod::DistributedMwu => {
            let cfg = distributed_mwu_config(&DistributedLpConfig::default(), eps1);
            let formula = if graph.n() == 0 {
                0
            } else {
                formulas::kmw_fractional_rounds(graph.max_degree(), eps1)
            };
            let report = composer
                .measured(
                    PhaseSpec::new(
                        PhaseKind::Fractional,
                        "part I: distributed MWU covering LP (measured)",
                    )
                    .with_formula(formula),
                    DistributedLpProgram::programs(graph, &cfg),
                )
                .expect("distributed MWU program is well-formed");
            // Two integer compares, checked in release too: the exact count
            // is the O(T·m) replay's, which the tests compare against.
            let bound =
                formulas::mwu_fractional_rounds(cfg.resolve(graph.delta_tilde()).iterations as u64);
            assert!(
                report.rounds <= bound.min(formula),
                "measured MWU rounds {} exceed 4T + 1 = {bound} or the KMW06 charge {formula}",
                report.rounds
            );
            report.outputs
        }
        FractionalMethod::Kw05 => {
            let k = kw05::default_k(graph);
            composer
                .measured(
                    PhaseSpec::new(
                        PhaseKind::Fractional,
                        "part I: KW05 local fractional solution (measured)",
                    )
                    .with_formula(formulas::kw05_rounds(k)),
                    vec![Kw05Program::new(k); graph.n()],
                )
                .expect("KW05 program is well-formed")
                .outputs
        }
    };
    let (assignment, _floor) = apply_lemma21_floor(graph, values, eps1);
    let lp_lower_bound = dual_lower_bound(graph);

    // ---- Network decomposition (Theorem 1.1 route), measured on the
    // engine: the pure carving schedule runs as per-phase BFS join waves
    // (substitution R2 made measured), bit-identical to the central
    // [`strong_diameter_decomposition`] oracle by construction. ----
    let decomposition = match config.route {
        DerandRoute::NetworkDecomposition => {
            let (programs, schedule) =
                netdecomp_programs(graph, SEPARATION, &DecompositionConfig::default());
            let charge = formulas::netdecomp_charge_rounds(graph.n(), SEPARATION);
            let report = composer
                .measured(
                    PhaseSpec::new(
                        PhaseKind::NetDecomp,
                        "network decomposition (GK18 carving, measured)",
                    )
                    .with_formula(charge),
                    programs,
                )
                .expect("network decomposition program is well-formed");
            assert_eq!(
                report.rounds,
                formulas::measured_netdecomp_rounds(
                    schedule.num_phases as u64,
                    schedule.total_wave_depth()
                )
            );
            assert!(
                report.rounds <= charge,
                "measured netdecomp rounds {} exceed the Theorem 3.2 charge {charge}",
                report.rounds
            );
            let nd = assemble_decomposition(&report.outputs, &schedule);
            let groups = nd_groups_of(&nd);
            Some((nd, groups))
        }
        DerandRoute::Coloring | DerandRoute::ColoringLocal => None,
    };

    // ---- Parts II and III, every rounding step measured on the engine. ----
    let (assignment, stages) = rounding_parts(graph, config, assignment, |problem| {
        composed_derandomization(
            &mut composer,
            graph,
            problem,
            config,
            decomposition.as_ref(),
        )
    });

    assert!(assignment.is_integral());
    assert!(assignment.is_feasible_dominating_set(graph));
    MdsResult {
        dominating_set: assignment.selected_nodes(),
        assignment,
        ledger: composer.finish(),
        stages,
        lp_lower_bound,
        epsilon: config.epsilon,
    }
}

/// The pure in-memory implementation of the pipeline: identical decisions,
/// no engine. Part I runs through [`initial_fractional_solution`]; every
/// rounding step takes its groups from the central decomposition
/// ([`strong_diameter_decomposition`]) or from the problem's central coloring
/// ([`color_problem`]) and fixes its coins with the central [`derandomize`].
/// Retained as the oracle every composed run is property-tested equal to
/// (`tests/properties.rs`), and usable where no executor is wanted.
///
/// The pipeline's round accounting is the engine run of [`run_on`]; the
/// oracle charges nothing of its own. Its ledger is the record
/// [`initial_fractional_solution`] returns, which holds measured engine
/// rounds only under [`FractionalMethod::Kw05`] (KW05 has no central replay,
/// so Lemma 2.1 runs it on the engine).
pub fn central_oracle(graph: &Graph, config: &MdsConfig) -> MdsResult {
    let initial = initial_fractional_solution(graph, &part_one_config(config));
    let nd_groups = match config.route {
        DerandRoute::NetworkDecomposition => {
            let nd =
                strong_diameter_decomposition(graph, SEPARATION, &DecompositionConfig::default());
            Some(nd_groups_of(&nd))
        }
        DerandRoute::Coloring | DerandRoute::ColoringLocal => None,
    };
    let (assignment, stages) = rounding_parts(graph, config, initial.assignment, |problem| {
        let groups = match &nd_groups {
            Some(groups) => groups.clone(),
            None => color_problem(problem).classes(),
        };
        derandomize(
            problem,
            &DerandomizeConfig {
                estimator: config.estimator,
                groups: Some(groups),
            },
        )
        .output
    });

    assert!(assignment.is_integral());
    assert!(assignment.is_feasible_dominating_set(graph));
    MdsResult {
        dominating_set: assignment.selected_nodes(),
        assignment,
        ledger: initial.ledger,
        stages,
        lp_lower_bound: initial.lp_lower_bound,
        epsilon: config.epsilon,
    }
}

/// Theorem 1.1: the network-decomposition route.
pub fn theorem_1_1(graph: &Graph, config: &MdsConfig) -> MdsResult {
    theorem_1_1_on(graph, config, &SyncExecutor)
}

/// Theorem 1.1 on an arbitrary [`Executor`].
pub fn theorem_1_1_on<E: Executor>(graph: &Graph, config: &MdsConfig, executor: &E) -> MdsResult {
    let mut config = config.clone();
    config.route = DerandRoute::NetworkDecomposition;
    run_on(graph, &config, executor)
}

/// Theorem 1.2: the coloring route (CONGEST).
pub fn theorem_1_2(graph: &Graph, config: &MdsConfig) -> MdsResult {
    theorem_1_2_on(graph, config, &SyncExecutor)
}

/// Theorem 1.2 on an arbitrary [`Executor`].
pub fn theorem_1_2_on<E: Executor>(graph: &Graph, config: &MdsConfig, executor: &E) -> MdsResult {
    let mut config = config.clone();
    config.route = DerandRoute::Coloring;
    run_on(graph, &config, executor)
}

/// Corollary 1.3: the coloring route with LOCAL-model accounting.
pub fn corollary_1_3(graph: &Graph, config: &MdsConfig) -> MdsResult {
    let mut config = config.clone();
    config.route = DerandRoute::ColoringLocal;
    run(graph, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_dominating_set;
    use congest_sim::{
        ExecutionError, ExecutorConfig, NodeProgram, PhaseMode, PooledExecutor, RunReport,
    };
    use mds_graphs::generators;
    use PhaseKind::{Coloring, Derandomization, Fractional, NetDecomp};
    use PhaseMode::Measured;

    fn quick_config() -> MdsConfig {
        MdsConfig::default()
    }

    fn kw05_config() -> MdsConfig {
        MdsConfig {
            fractional: FractionalMethod::Kw05,
            ..MdsConfig::default()
        }
    }

    #[test]
    fn theorem_1_1_produces_a_dominating_set() {
        for seed in 0..3 {
            let g = generators::gnp(50, 0.1, seed);
            let result = theorem_1_1(&g, &quick_config());
            assert!(is_dominating_set(&g, &result.dominating_set));
            assert!(result.assignment.is_integral());
            assert!(result.ledger.total_simulated_rounds() > 0);
        }
    }

    #[test]
    fn theorem_1_2_produces_a_dominating_set() {
        for seed in 0..3 {
            let g = generators::gnp(50, 0.1, seed + 10);
            let result = theorem_1_2(&g, &quick_config());
            assert!(is_dominating_set(&g, &result.dominating_set));
        }
    }

    #[test]
    fn corollary_1_3_matches_coloring_route_output() {
        let g = generators::gnp(40, 0.12, 3);
        let congest = theorem_1_2(&g, &quick_config());
        let local = corollary_1_3(&g, &quick_config());
        // Same algorithm, same output; only the round accounting differs.
        assert_eq!(congest.dominating_set, local.dominating_set);
    }

    #[test]
    fn composed_run_matches_central_oracle_on_both_routes_and_executors() {
        for seed in 0..3 {
            let g = generators::gnp(45, 0.1, seed + 30);
            for config in [quick_config(), kw05_config()] {
                for route in [DerandRoute::NetworkDecomposition, DerandRoute::Coloring] {
                    let config = MdsConfig {
                        route,
                        ..config.clone()
                    };
                    let oracle = central_oracle(&g, &config);
                    let sync = run(&g, &config);
                    let par = run_on(&g, &config, &PooledExecutor::new(3));
                    assert_eq!(
                        sync.dominating_set, oracle.dominating_set,
                        "seed {seed}, route {route:?}"
                    );
                    assert_eq!(sync.assignment, oracle.assignment);
                    assert_eq!(sync.stages, oracle.stages);
                    assert_eq!(par.dominating_set, oracle.dominating_set);
                    assert_eq!(par.ledger, sync.ledger);
                }
            }
        }
    }

    #[test]
    fn coloring_route_derandomization_rounds_equal_the_paper_formula() {
        let g = generators::gnp(50, 0.1, 4);
        let result = theorem_1_2(&g, &quick_config());
        let measured: Vec<_> = result
            .ledger
            .phases()
            .iter()
            .filter(|p| p.kind == Derandomization && p.mode == Measured)
            .collect();
        assert!(!measured.is_empty(), "no measured derandomization phase");
        for phase in measured {
            // 2 rounds per color class: measured == Lemma 3.10's O(C) bound
            // with the exact constant.
            assert_eq!(phase.formula_rounds, Some(phase.simulated_rounds));
        }
    }

    #[test]
    fn coloring_phases_are_measured_and_below_the_lemma_charge() {
        let g = generators::gnp(50, 0.1, 4);
        let config = MdsConfig {
            route: DerandRoute::Coloring,
            ..quick_config()
        };
        let result = run(&g, &config);
        let coloring_phases: Vec<_> = result
            .ledger
            .phases()
            .iter()
            .filter(|p| p.kind == Coloring)
            .collect();
        assert!(
            !coloring_phases.is_empty(),
            "no coloring phase on the Theorem 1.2 route"
        );
        for phase in &coloring_phases {
            assert_eq!(phase.mode, Measured);
            // Two rounds per reduction step (one observing round when there
            // is nothing to color); on this instance not above the
            // Lemma 3.12 charge.
            assert!(phase.simulated_rounds >= 1);
            assert!(
                phase.simulated_rounds <= phase.formula_rounds.unwrap(),
                "measured {} > Lemma 3.12 charge {:?}",
                phase.simulated_rounds,
                phase.formula_rounds
            );
        }
        let total: u64 = coloring_phases.iter().map(|p| p.simulated_rounds).sum();
        assert_eq!(result.measured_coloring_rounds(), total);
        assert!(result.measured_coloring_rounds() > 0);
        // The oracle colors centrally, the decomposition route never colors.
        assert_eq!(central_oracle(&g, &config).measured_coloring_rounds(), 0);
        assert_eq!(
            theorem_1_1(&g, &quick_config()).measured_coloring_rounds(),
            0
        );
    }

    #[test]
    fn coloring_may_exceed_the_lemma_charge_and_still_equals_the_oracle() {
        // The coloring schedule's step count is the longest conflict chain of
        // its (batch, id) order, which the Lemma 3.12 charge does not bound:
        // on this random-regular graph one coloring spends 48 rounds against
        // a charge of 45. The output is still the oracle's on both executors.
        let g = generators::random_regular(60, 4, 1);
        let oracle = central_oracle(
            &g,
            &MdsConfig {
                route: DerandRoute::Coloring,
                ..quick_config()
            },
        );
        let sync = theorem_1_2(&g, &quick_config());
        let pooled = theorem_1_2_on(&g, &quick_config(), &PooledExecutor::new(3));
        for result in [&sync, &pooled] {
            assert_eq!(result.dominating_set, oracle.dominating_set);
            assert_eq!(result.assignment, oracle.assignment);
        }
        assert_eq!(pooled.ledger, sync.ledger);
        assert!(
            sync.ledger
                .phases()
                .iter()
                .any(|p| p.kind == Coloring && Some(p.simulated_rounds) > p.formula_rounds),
            "{}",
            sync.ledger
        );
    }

    #[test]
    fn netdecomp_phase_is_measured_and_below_the_paper_charge() {
        let g = generators::gnp(50, 0.1, 4);
        let result = theorem_1_1(&g, &quick_config());
        let nd_phases: Vec<_> = result
            .ledger
            .phases()
            .iter()
            .filter(|p| p.kind == NetDecomp)
            .collect();
        assert_eq!(nd_phases.len(), 1, "exactly one decomposition per run");
        let phase = nd_phases[0];
        assert_eq!(phase.mode, Measured);
        assert!(phase.simulated_rounds >= 1);
        assert!(
            phase.simulated_rounds <= phase.formula_rounds.unwrap(),
            "measured {} > Theorem 3.2 charge {:?}",
            phase.simulated_rounds,
            phase.formula_rounds
        );
        assert_eq!(result.measured_netdecomp_rounds(), phase.simulated_rounds);
        // With the decomposition measured, every round-spending phase of the
        // Theorem 1.1 route runs on the engine.
        assert_eq!(
            result.measured_engine_rounds(),
            result.ledger.total_simulated_rounds(),
            "a charged phase spends rounds"
        );
        // The oracle decomposes centrally; the coloring route never does.
        assert_eq!(
            central_oracle(&g, &quick_config()).measured_netdecomp_rounds(),
            0
        );
        assert_eq!(
            theorem_1_2(&g, &quick_config()).measured_netdecomp_rounds(),
            0
        );
    }

    #[test]
    fn mwu_phase_is_measured_and_below_the_kmw_charge() {
        let g = generators::gnp(50, 0.1, 5);
        let result = theorem_1_2(&g, &quick_config());
        let mwu = result
            .ledger
            .phases()
            .iter()
            .find(|p| p.kind == Fractional && p.mode == Measured)
            .expect("measured MWU phase present");
        assert!(mwu.simulated_rounds > 0);
        // Measured rounds stay below the paper's O(ε⁻⁴ log² Δ) bound.
        assert!(mwu.formula_rounds.unwrap() >= mwu.simulated_rounds);
        // And equal the central replay's count, halting included.
        let cfg = distributed_mwu_config(
            &mds_fractional::lp::DistributedLpConfig::default(),
            part_one_config(&quick_config()).epsilon,
        );
        assert_eq!(
            mwu.simulated_rounds,
            mds_fractional::lp::central_mwu_reference(&g, &cfg).rounds
        );
        assert_eq!(
            result.ledger.measured_rounds(Some(Fractional)),
            mwu.simulated_rounds
        );
        assert!(result.measured_engine_rounds() > mwu.simulated_rounds);
        assert_eq!(
            central_oracle(&g, &quick_config()).measured_engine_rounds(),
            0,
            "the oracle never touches the engine"
        );
    }

    #[test]
    fn guarantee_holds_against_exact_optimum_on_small_graphs() {
        for (seed, p) in [(1u64, 0.15), (2, 0.25)] {
            let g = generators::gnp(28, p, seed);
            let opt = crate::exact::exact_mds(&g, 40).unwrap().size() as f64;
            for result in [
                theorem_1_1(&g, &quick_config()),
                theorem_1_2(&g, &quick_config()),
            ] {
                let ratio = result.size() as f64 / opt;
                assert!(
                    ratio <= result.guarantee(&g) + 1e-9,
                    "ratio {ratio} exceeds guarantee {}",
                    result.guarantee(&g)
                );
            }
        }
    }

    #[test]
    fn star_is_solved_near_optimally() {
        let g = generators::star(60);
        let result = theorem_1_1(&g, &quick_config());
        assert!(is_dominating_set(&g, &result.dominating_set));
        // OPT = 1; the guarantee allows (1+ε)(1+ln 61) ≈ 7.7.
        assert!(result.size() as f64 <= result.guarantee(&g));
    }

    #[test]
    fn caterpillar_stays_within_guarantee() {
        let g = generators::caterpillar(8, 4);
        let opt = 8.0;
        let result = theorem_1_2(&g, &quick_config());
        assert!(is_dominating_set(&g, &result.dominating_set));
        assert!(result.size() as f64 / opt <= result.guarantee(&g));
    }

    #[test]
    fn stage_trajectory_is_recorded() {
        let g = generators::gnp(40, 0.1, 5);
        let result = theorem_1_1(&g, &quick_config());
        assert!(result.stages.len() >= 2);
        assert_eq!(
            result.stages.first().unwrap().name,
            "part I: initial fractional solution"
        );
        assert_eq!(
            result.stages.last().unwrap().name,
            "part III: one-shot rounding"
        );
        // The final stage is integral.
        assert_eq!(result.stages.last().unwrap().fractionality, 1.0);
    }

    #[test]
    fn doubling_loop_runs_when_concentration_scale_is_tiny() {
        let g = generators::gnp(60, 0.2, 8);
        let mut config = quick_config();
        config.concentration_scale = 0.002;
        let result = theorem_1_1(&g, &config);
        let doubling_stages = result
            .stages
            .iter()
            .filter(|s| s.name.starts_with("part II"))
            .count();
        assert!(
            doubling_stages >= 1,
            "expected at least one factor-two iteration"
        );
        assert!(is_dominating_set(&g, &result.dominating_set));
    }

    #[test]
    fn a_rounding_step_without_coins_is_one_measured_round() {
        // Experiment E5's tiny concentration scale runs enough factor-two
        // iterations that a rounding step is left with no coin.
        let g = generators::gnp(40, 0.08, 2);
        for route in [DerandRoute::NetworkDecomposition, DerandRoute::Coloring] {
            let config = MdsConfig {
                route,
                concentration_scale: 0.0005,
                ..quick_config()
            };
            let result = run(&g, &config);
            let steps: Vec<_> = result
                .ledger
                .phases()
                .iter()
                .filter(|p| p.kind == Derandomization)
                .collect();
            assert!(steps.iter().all(|p| p.mode == Measured), "{steps:?}");
            assert!(
                steps
                    .iter()
                    .any(|p| (p.simulated_rounds, p.messages) == (1, 0)),
                "no coin-free step: {steps:?}"
            );
            assert_eq!(
                result.dominating_set,
                central_oracle(&g, &config).dominating_set
            );
        }
    }

    fn kinds_and_modes(result: &MdsResult) -> Vec<(PhaseKind, PhaseMode)> {
        result
            .ledger
            .phases()
            .iter()
            .map(|p| (p.kind, p.mode))
            .collect()
    }

    #[test]
    fn theorem_1_2_phases_are_part_one_then_coloring_and_derandomization_pairs() {
        let g = generators::gnp(50, 0.1, 4);
        let trace = kinds_and_modes(&theorem_1_2(&g, &quick_config()));
        assert_eq!(trace[0], (Fractional, Measured));
        let steps = &trace[1..];
        assert!(
            !steps.is_empty() && steps.len().is_multiple_of(2),
            "{trace:?}"
        );
        for step in steps.chunks(2) {
            assert_eq!(step, [(Coloring, Measured), (Derandomization, Measured)]);
        }
    }

    #[test]
    fn theorem_1_1_phases_are_part_one_then_netdecomp_then_derandomization() {
        let g = generators::gnp(50, 0.1, 4);
        let trace = kinds_and_modes(&theorem_1_1(&g, &quick_config()));
        assert_eq!(trace[..2], [(Fractional, Measured), (NetDecomp, Measured)]);
        let steps = &trace[2..];
        assert!(!steps.is_empty(), "{trace:?}");
        assert!(steps.iter().all(|&s| s == (Derandomization, Measured)));
    }

    #[test]
    fn kw05_part_one_is_measured_on_the_engine() {
        let g = generators::gnp(60, 0.1, 3);
        let config = MdsConfig {
            route: DerandRoute::Coloring,
            fractional: FractionalMethod::Kw05,
            ..quick_config()
        };
        let result = run(&g, &config);
        let kw05 = &result.ledger.phases()[0];
        assert_eq!((kw05.kind, kw05.mode), (Fractional, Measured));
        // Every round executed is measured: KW05's 32 plus the rounding
        // steps, so no charged phase spends rounds.
        assert_eq!(result.measured_engine_rounds(), 98);
        assert_eq!(result.ledger.total_simulated_rounds(), 98);
        // The oracle runs KW05 on the engine too, and reports it as measured.
        assert_eq!(
            central_oracle(&g, &config).measured_engine_rounds(),
            kw05.simulated_rounds
        );
    }

    #[test]
    fn central_oracle_ledger_is_its_part_one_record() {
        let g = generators::gnp(60, 0.1, 3);
        for fractional in [quick_config().fractional, FractionalMethod::Kw05] {
            for route in [DerandRoute::Coloring, DerandRoute::NetworkDecomposition] {
                let config = MdsConfig {
                    route,
                    fractional,
                    ..quick_config()
                };
                let part_one = initial_fractional_solution(&g, &part_one_config(&config));
                assert_eq!(
                    central_oracle(&g, &config).ledger,
                    part_one.ledger,
                    "{config:?}"
                );
            }
        }
    }

    #[test]
    fn measured_part_one_equals_the_lemma_charge_on_both_routes() {
        // The golden's instance: every node halts early (502 of
        // 4T + 1 = 745 rounds). The completion round of a truncated run is
        // covered by `lp::tests`.
        let g = generators::gnp(40, 0.12, 7);
        for route in [DerandRoute::Coloring, DerandRoute::NetworkDecomposition] {
            let config = MdsConfig {
                route,
                ..quick_config()
            };
            let charged = initial_fractional_solution(&g, &part_one_config(&config)).ledger;
            let charged = &charged.phases()[0];
            let measured = run(&g, &config).ledger;
            let measured = &measured.phases()[0];
            assert_eq!((measured.kind, measured.mode), (Fractional, Measured));
            assert_eq!(measured.simulated_rounds, 502);
            assert_eq!(
                (measured.simulated_rounds, measured.messages),
                (charged.simulated_rounds, charged.messages),
                "{config:?}"
            );
        }
    }

    /// Forwards every run to [`SyncExecutor`] and keeps each run's
    /// `(max_message_bits, bandwidth_bits, bandwidth_violations)`.
    #[derive(Default)]
    struct CountingExecutor {
        runs: std::cell::RefCell<Vec<(usize, usize, u64)>>,
    }

    impl Executor for CountingExecutor {
        fn run<P>(
            &self,
            graph: &Graph,
            programs: Vec<P>,
            config: &ExecutorConfig,
        ) -> Result<RunReport<P::Output>, ExecutionError>
        where
            P: NodeProgram + Send,
            P::Message: Send + Sync,
            P::Output: Send,
        {
            let report = SyncExecutor.run(graph, programs, config)?;
            self.runs.borrow_mut().push((
                report.max_message_bits,
                report.bandwidth_bits,
                report.bandwidth_violations,
            ));
            Ok(report)
        }
    }

    #[test]
    fn every_measured_phase_runs_on_the_callers_executor() {
        let g = generators::gnp(60, 0.1, 3);
        for fractional in [quick_config().fractional, FractionalMethod::Kw05] {
            for route in [DerandRoute::Coloring, DerandRoute::NetworkDecomposition] {
                let config = MdsConfig {
                    route,
                    fractional,
                    ..quick_config()
                };
                let counting = CountingExecutor::default();
                let result = run_on(&g, &config, &counting);
                // Every ledger record is one engine run on the caller's
                // executor.
                let phases = result.ledger.phases();
                assert!(phases.iter().all(|p| p.mode == Measured), "{config:?}");
                assert_eq!(counting.runs.borrow().len(), phases.len(), "{config:?}");
                // Part I ran under the composer, which stamps its wall.
                assert_eq!(phases[0].kind, Fractional);
                assert!(phases[0].wall_nanos > 0, "{config:?}");
            }
        }
    }

    #[test]
    fn only_derandomization_replies_exceed_the_bandwidth_budget_below_n_256() {
        // The default budget is 16·(⌊log₂ n⌋ + 1) bits: 96 on the golden's
        // n = 40, 144 from n = 256 on. Every program but the conditional-
        // expectation schedule sends at most 65 bits; a schedule reply is
        // 2 + 128 bits, so it overflows below n = 256 and fits from there on.
        for g in [
            generators::gnp(40, 0.12, 7),
            generators::gnp(256, 0.03, 2),
            generators::unit_disk(300, 0.1, 1),
        ] {
            for fractional in [quick_config().fractional, FractionalMethod::Kw05] {
                for route in [DerandRoute::Coloring, DerandRoute::NetworkDecomposition] {
                    let config = MdsConfig {
                        route,
                        fractional,
                        ..quick_config()
                    };
                    let counting = CountingExecutor::default();
                    let result = run_on(&g, &config, &counting);
                    let runs = counting.runs.borrow();
                    let phases = result.ledger.phases();
                    assert_eq!(runs.len(), phases.len(), "{config:?}");
                    let mut derand_violations = 0;
                    for (phase, &(max_bits, budget, violations)) in phases.iter().zip(&*runs) {
                        let context = format!("n = {}, {config:?}, {}", g.n(), phase.name);
                        assert_eq!(budget, congest_sim::congest_bandwidth_bits(g.n()));
                        if phase.kind == Derandomization {
                            assert!(max_bits <= 130, "{max_bits} bits: {context}");
                            derand_violations += violations;
                        } else {
                            assert!(max_bits <= 65, "{max_bits} bits: {context}");
                            assert_eq!(violations, 0, "{context}");
                        }
                    }
                    if g.n() >= 256 {
                        assert_eq!(derand_violations, 0, "n = {}, {config:?}", g.n());
                    } else {
                        assert!(derand_violations > 0, "n = {}, {config:?}", g.n());
                    }
                }
            }
        }
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = congest_sim::Graph::empty(0);
        let result = run(&g, &quick_config());
        assert!(result.dominating_set.is_empty());
        let oracle = central_oracle(&g, &quick_config());
        assert_eq!(result.dominating_set, oracle.dominating_set);
    }

    #[test]
    fn isolated_nodes_all_join_the_set() {
        let g = congest_sim::Graph::empty(6);
        let result = theorem_1_2(&g, &quick_config());
        assert_eq!(result.size(), 6);
    }
}

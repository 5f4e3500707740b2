//! Anatomy of the derandomization: watch the method of conditional
//! expectations beat the randomized rounding it derandomizes — then watch the
//! same decisions run as a measured CONGEST execution on the engine.
//!
//! The example builds the one-shot rounding problem of Lemma 3.8 on a random
//! graph and runs it four ways: (a) with truly random coins, (b) with k-wise
//! independent coins derived from a short seed (Lemma 3.3), (c)
//! deterministically via conditional expectations (Lemma 3.10), and (d) as a
//! composed program on the execution engine, where the color classes of a
//! distance-two coloring fix their coins in parallel — two real rounds per
//! class, bit-identical to (c).
//!
//! Run with `cargo run --example derandomization_anatomy`.

use congest_mds::congest::ledger::formulas;
use congest_mds::congest::{ComposedProgram, PhaseKind, PhaseSpec, SyncExecutor};
use congest_mds::fractional::lemma21::{initial_fractional_solution, InitialSolutionConfig};
use congest_mds::graphs::generators;
use congest_mds::mds::pipeline::color_problem;
use congest_mds::mds::verify::is_dominating_set;
use congest_mds::rounding::derandomize::{
    assemble_derand_outputs, derandomize, scheduled_derand_programs, DerandSchedule,
    DerandomizeConfig,
};
use congest_mds::rounding::kwise::KWiseGenerator;
use congest_mds::rounding::one_shot;
use congest_mds::rounding::process::{execute_with_kwise, execute_with_rng};
use congest_mds::rounding::EstimatorKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let graph = generators::gnp(120, 0.07, 11);
    println!(
        "graph: n = {}, m = {}, Δ = {}",
        graph.n(),
        graph.m(),
        graph.max_degree()
    );

    // Part I: the (1+ε)-approximate fractional dominating set of Lemma 2.1.
    let initial = initial_fractional_solution(&graph, &InitialSolutionConfig::default());
    println!(
        "fractional input: size = {:.3} (LP lower bound {:.3}), fractionality = {:.4}",
        initial.assignment.size(),
        initial.lp_lower_bound,
        initial.assignment.fractionality()
    );

    // The one-shot rounding problem (Lemma 3.8).
    let problem = one_shot::on_graph(&graph, &initial.assignment);

    // (a) Truly random coins, averaged over many runs.
    let mut rng = StdRng::seed_from_u64(1);
    let trials = 200;
    let mut sizes = Vec::with_capacity(trials);
    for _ in 0..trials {
        let out = execute_with_rng(&problem, &mut rng);
        assert!(is_dominating_set(&graph, &out.output.selected_nodes()));
        sizes.push(out.output.size());
    }
    let mean: f64 = sizes.iter().sum::<f64>() / trials as f64;
    let worst = sizes.iter().cloned().fold(0.0f64, f64::max);

    // (b) k-wise independent coins from a 61·k-bit seed (Lemma 3.3).
    let mut seed_rng = StdRng::seed_from_u64(2);
    let mut kwise_sizes = Vec::with_capacity(trials);
    for _ in 0..trials {
        let generator = KWiseGenerator::from_rng(16, &mut seed_rng);
        kwise_sizes.push(execute_with_kwise(&problem, &generator).output.size());
    }
    let kwise_mean: f64 = kwise_sizes.iter().sum::<f64>() / trials as f64;

    // The distance-two coloring of the constraint/value graph (Lemma 3.12):
    // same-colored values share no constraint, so a whole class can fix its
    // coins in one parallel step. `color_problem` is the exact grouping the
    // Theorem 1.2 pipeline route uses, and its classes are the schedule's
    // steps.
    let coloring = color_problem(&problem);
    let schedule = DerandSchedule {
        steps: coloring.classes(),
    };

    // (c) The deterministic choice (Lemma 3.10 core), color class by class.
    let det = derandomize(
        &problem,
        &DerandomizeConfig {
            estimator: EstimatorKind::default(),
            groups: Some(schedule.steps.clone()),
        },
    );
    assert!(is_dominating_set(&graph, &det.output.selected_nodes()));

    // (d) The same decisions as a *measured* engine execution: a composed
    // program runs the scheduled conditional expectations as real node
    // programs — two CONGEST rounds per color class. The coloring above is
    // the central oracle and costs nothing here; the pipeline measures it as
    // an engine phase of its own.
    let mut composed = ComposedProgram::new(&graph, &SyncExecutor);
    let programs = scheduled_derand_programs(&graph, &problem, &schedule, EstimatorKind::default())
        .expect("one-shot problems are graph-aligned");
    let report = composed
        .measured(
            PhaseSpec::new(
                PhaseKind::Derandomization,
                "derandomization via distance-two coloring (measured)",
            )
            .with_formula(formulas::coloring_derandomization_rounds(
                coloring.num_colors,
            )),
            programs,
        )
        .expect("scheduled derandomization program is well-formed");
    let (engine_output, _violated) = assemble_derand_outputs(&report.outputs);
    assert_eq!(
        engine_output.values(),
        det.output.values(),
        "engine run must be bit-identical to the central oracle"
    );
    let ledger = composed.finish();

    println!(
        "\nexpectation bound (Lemma 3.1):        {:.2}",
        det.initial_estimate
    );
    println!("randomized one-shot, mean of {trials}:    {mean:.2} (worst {worst:.0})");
    println!("k-wise independent coins, mean:       {kwise_mean:.2}");
    println!(
        "derandomized (cond. expectations):    {:.0}",
        det.output.size()
    );
    println!(
        "measured on the engine:               {:.0} (identical), {} color classes → {} rounds",
        engine_output.size(),
        coloring.num_colors,
        report.rounds
    );
    println!(
        "\nThe deterministic run never exceeds the expectation bound ({:.2} ≤ {:.2}),",
        det.output.size(),
        det.initial_estimate
    );
    println!("which is exactly the guarantee the paper's Lemmas 3.4 and 3.10 formalise.");
    println!("\ncomposed-program accounting (the measured phase):");
    print!("{ledger}");
}

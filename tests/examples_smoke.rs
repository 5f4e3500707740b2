//! Smoke tests pinning the core paths of the three `examples/` binaries, so
//! the examples cannot silently rot even when CI skips `cargo run --example`.
//! Each test walks the same API sequence as its example on a slightly smaller
//! instance.

use congest_mds::cds::build::{connect_dominating_set, theorem_1_4, CdsConfig};
use congest_mds::cds::verify::is_connected_dominating_set;
use congest_mds::fractional::lemma21::{initial_fractional_solution, InitialSolutionConfig};
use congest_mds::graphs::analysis;
use congest_mds::graphs::generators::{self, GraphFamily};
use congest_mds::mds::pipeline::{theorem_1_1, theorem_1_2, MdsConfig};
use congest_mds::mds::{exact, greedy, verify};
use congest_mds::rounding::derandomize::{derandomize, DerandomizeConfig};
use congest_mds::rounding::kwise::KWiseGenerator;
use congest_mds::rounding::one_shot;
use congest_mds::rounding::process::{execute_with_kwise, execute_with_rng};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Core path of `examples/quickstart.rs`: baselines, both theorem routes,
/// the approximation guarantee and the CDS extension.
#[test]
fn quickstart_example_core_path() {
    let family = GraphFamily::Gnp { n: 60, p: 0.1 };
    let graph = generators::generate(&family, 42);

    let greedy = greedy::greedy_mds(&graph);
    assert!(verify::is_dominating_set(&graph, &greedy.set));
    let optimum = exact::exact_mds(&graph, 64).map(|r| r.size());

    let config = MdsConfig::default();
    let t11 = theorem_1_1(&graph, &config);
    assert!(verify::is_dominating_set(&graph, &t11.dominating_set));
    assert!(t11.ledger.total_simulated_rounds() > 0);
    assert!(t11.ledger.total_formula_rounds() > 0);
    assert!(!t11.stages.is_empty());

    let t12 = theorem_1_2(&graph, &config);
    assert!(verify::is_dominating_set(&graph, &t12.dominating_set));

    if let Some(opt) = optimum {
        // Both deterministic routes stay within the paper's guarantee.
        let guarantee = t11.guarantee(&graph);
        assert!(t11.size() as f64 / opt as f64 <= guarantee);
        assert!(t12.size() as f64 / opt as f64 <= guarantee);
    }

    let cds = connect_dominating_set(&graph, &t11.dominating_set, &CdsConfig::default());
    if analysis::is_connected(&graph) {
        assert!(is_connected_dominating_set(&graph, &cds.cds));
    }
    assert!(cds.overhead() >= 1.0);
}

/// Core path of `examples/derandomization_anatomy.rs`: random, k-wise and
/// derandomized execution of the same one-shot rounding problem.
#[test]
fn derandomization_anatomy_example_core_path() {
    let graph = generators::gnp(80, 0.08, 11);
    let initial = initial_fractional_solution(&graph, &InitialSolutionConfig::default());
    assert!(initial.assignment.is_feasible_dominating_set(&graph));

    let problem = one_shot::on_graph(&graph, &initial.assignment);

    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..20 {
        let out = execute_with_rng(&problem, &mut rng);
        assert!(verify::is_dominating_set(
            &graph,
            &out.output.selected_nodes()
        ));
    }

    let mut seed_rng = StdRng::seed_from_u64(2);
    let generator = KWiseGenerator::from_rng(16, &mut seed_rng);
    let kwise_out = execute_with_kwise(&problem, &generator);
    assert!(verify::is_dominating_set(
        &graph,
        &kwise_out.output.selected_nodes()
    ));

    let det = derandomize(&problem, &DerandomizeConfig::default());
    assert!(verify::is_dominating_set(
        &graph,
        &det.output.selected_nodes()
    ));
    // The defining guarantee of the method of conditional expectations: the
    // deterministic outcome never exceeds the initial expectation bound.
    assert!(det.output.size() <= det.initial_estimate + 1e-6);

    // The example's final act: the same decisions as a measured engine run
    // through the composed-program API, bit-identical to the central oracle.
    use congest_mds::congest::{ComposedProgram, PhaseKind, PhaseSpec, SyncExecutor};
    use congest_mds::mds::pipeline::color_problem;
    use congest_mds::rounding::derandomize::{
        assemble_derand_outputs, scheduled_derand_programs, DerandSchedule,
    };
    use congest_mds::rounding::EstimatorKind;

    let schedule = DerandSchedule {
        steps: color_problem(&problem).classes(),
    };
    let central = derandomize(
        &problem,
        &DerandomizeConfig {
            estimator: EstimatorKind::default(),
            groups: Some(schedule.steps.clone()),
        },
    );
    let mut composed = ComposedProgram::new(&graph, &SyncExecutor);
    let programs = scheduled_derand_programs(&graph, &problem, &schedule, EstimatorKind::default())
        .expect("one-shot problems are graph-aligned");
    let report = composed
        .measured(
            PhaseSpec::new(PhaseKind::Derandomization, "measured schedule"),
            programs,
        )
        .expect("well-formed program");
    assert_eq!(report.rounds, 2 * schedule.len() as u64);
    let (engine_output, _) = assemble_derand_outputs(&report.outputs);
    assert_eq!(engine_output.values(), central.output.values());
    assert!(composed.finish().measured_rounds(None) > 0);
}

/// Core path of `examples/wireless_clustering.rs`: a unit-disk deployment,
/// the greedy backbone and the Theorem 1.4 backbone.
#[test]
fn wireless_clustering_example_core_path() {
    let family = GraphFamily::UnitDisk {
        n: 100,
        radius: 0.25,
    };
    let mut graph = None;
    for seed in 0..20u64 {
        let g = generators::generate(&family, seed);
        if analysis::is_connected(&g) {
            graph = Some(g);
            break;
        }
    }
    let graph = graph.expect("no connected unit-disk deployment in 20 seeds");

    let greedy_ds = greedy::greedy_mds(&graph).set;
    let greedy_cds = connect_dominating_set(&graph, &greedy_ds, &CdsConfig::default());
    assert!(is_connected_dominating_set(&graph, &greedy_cds.cds));

    let (mds, cds) = theorem_1_4(&graph, &MdsConfig::default(), &CdsConfig::default());
    assert!(verify::is_dominating_set(&graph, &mds.dominating_set));
    assert!(is_connected_dominating_set(&graph, &cds.cds));
    assert!(cds.ledger.total_formula_rounds() > 0);
}

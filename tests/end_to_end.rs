//! Workspace-level integration tests: the full deterministic pipeline, the
//! baselines and the CDS extension, exercised together across graph families.

use congest_mds::cds::build::{connect_dominating_set, CdsConfig};
use congest_mds::cds::verify::is_connected_dominating_set;
use congest_mds::graphs::analysis;
use congest_mds::graphs::generators::{self, GraphFamily};
use congest_mds::mds::pipeline::{theorem_1_1, theorem_1_2, DerandRoute, MdsConfig};
use congest_mds::mds::{exact, greedy, verify};

fn families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::Gnp { n: 60, p: 0.08 },
        GraphFamily::Grid { rows: 7, cols: 8 },
        GraphFamily::RandomTree { n: 50 },
        GraphFamily::Caterpillar { spine: 8, legs: 4 },
        GraphFamily::UnitDisk {
            n: 60,
            radius: 0.25,
        },
        GraphFamily::BarabasiAlbert { n: 60, m: 2 },
        GraphFamily::Star { n: 40 },
        GraphFamily::Cycle { n: 45 },
    ]
}

#[test]
fn both_theorems_dominate_every_family() {
    let config = MdsConfig::default();
    for family in families() {
        let graph = generators::generate(&family, 7);
        for result in [theorem_1_1(&graph, &config), theorem_1_2(&graph, &config)] {
            assert!(
                verify::is_dominating_set(&graph, &result.dominating_set),
                "family {} produced a non-dominating set",
                family.label()
            );
            assert!(result.assignment.is_integral());
        }
    }
}

#[test]
fn approximation_guarantee_vs_exact_optimum() {
    let config = MdsConfig::default();
    for family in [
        GraphFamily::Gnp { n: 32, p: 0.15 },
        GraphFamily::Grid { rows: 5, cols: 6 },
        GraphFamily::Cycle { n: 30 },
        GraphFamily::Caterpillar { spine: 6, legs: 3 },
    ] {
        let graph = generators::generate(&family, 3);
        let opt = exact::exact_mds(&graph, 64).expect("small instance").size() as f64;
        for (name, result) in [
            ("Theorem 1.1", theorem_1_1(&graph, &config)),
            ("Theorem 1.2", theorem_1_2(&graph, &config)),
        ] {
            let ratio = result.size() as f64 / opt;
            assert!(
                ratio <= result.guarantee(&graph) + 1e-9,
                "{name} on {}: ratio {ratio:.2} exceeds guarantee {:.2}",
                family.label(),
                result.guarantee(&graph)
            );
        }
        // Greedy respects its own guarantee too.
        let greedy_ratio = greedy::greedy_mds(&graph).size() as f64 / opt;
        assert!(greedy_ratio <= 1.0 + (graph.delta_tilde() as f64).ln() + 1e-9);
    }
}

/// The distributed MWU solver's fractional size stays within a factor two
/// (plus one) of the exact integral optimum, which bounds the LP optimum
/// from above.
#[test]
fn distributed_mwu_quality_is_within_twice_the_exact_optimum() {
    use congest_mds::congest::{Executor, ExecutorConfig, SyncExecutor};
    use congest_mds::fractional::lp::{DistributedLpConfig, DistributedLpProgram};

    for seed in 20..23 {
        let graph = generators::gnp(60, 0.1, seed);
        let opt = exact::exact_mds(&graph, 64).expect("small instance").size() as f64;
        let programs =
            DistributedLpProgram::programs(&graph, &DistributedLpConfig::with_epsilon(0.1));
        let report = SyncExecutor
            .run(&graph, programs, &ExecutorConfig::default())
            .unwrap();
        let size: f64 = report.outputs.iter().sum();
        assert!(
            size <= 2.0 * opt + 1.0,
            "seed {seed}: distributed {size} vs OPT {opt}"
        );
    }
}

#[test]
fn deterministic_results_are_reproducible() {
    let config = MdsConfig::default();
    let graph = generators::generate(&GraphFamily::Gnp { n: 50, p: 0.1 }, 9);
    let a = theorem_1_1(&graph, &config);
    let b = theorem_1_1(&graph, &config);
    assert_eq!(a.dominating_set, b.dominating_set);
    assert_eq!(
        a.ledger.total_formula_rounds(),
        b.ledger.total_formula_rounds()
    );
    let c = theorem_1_2(&graph, &config);
    let d = theorem_1_2(&graph, &config);
    assert_eq!(c.dominating_set, d.dominating_set);
}

#[test]
fn cds_extension_preserves_domination_and_connectivity() {
    let config = MdsConfig::default();
    for family in [
        GraphFamily::Gnp { n: 60, p: 0.1 },
        GraphFamily::Grid { rows: 8, cols: 8 },
        GraphFamily::UnitDisk { n: 70, radius: 0.3 },
    ] {
        let graph = generators::generate(&family, 5);
        if !analysis::is_connected(&graph) {
            continue;
        }
        let mds = theorem_1_1(&graph, &config);
        let cds = connect_dominating_set(&graph, &mds.dominating_set, &CdsConfig::default());
        assert!(
            is_connected_dominating_set(&graph, &cds.cds),
            "family {}: CDS invalid",
            family.label()
        );
        assert!(
            cds.overhead() <= 5.0,
            "family {}: overhead {}",
            family.label(),
            cds.overhead()
        );
    }
}

#[test]
fn ledger_reports_sane_round_counts() {
    let config = MdsConfig::default();
    let graph = generators::generate(&GraphFamily::Gnp { n: 80, p: 0.06 }, 2);
    let t11 = theorem_1_1(&graph, &config);
    let t12 = theorem_1_2(&graph, &config);
    // Both routes must record non-trivial work in both accounting views.
    for result in [&t11, &t12] {
        assert!(result.ledger.total_simulated_rounds() > 0);
        assert!(result.ledger.total_formula_rounds() > 0);
        assert!(result.ledger.total_messages() > 0);
        assert!(!result.ledger.phases().is_empty());
    }
}

#[test]
fn explicit_route_selection_matches_wrappers() {
    let graph = generators::generate(&GraphFamily::Gnp { n: 40, p: 0.12 }, 4);
    let config = MdsConfig {
        route: DerandRoute::Coloring,
        ..MdsConfig::default()
    };
    let direct = congest_mds::mds::pipeline::run(&graph, &config);
    let wrapper = theorem_1_2(&graph, &config);
    assert_eq!(direct.dominating_set, wrapper.dominating_set);
}

/// The engine-measured KW05 and ruling-set programs hit their paper round
/// formulas exactly on every test family.
#[test]
fn engine_round_counts_match_paper_formulas_across_families() {
    use congest_mds::congest::ledger::formulas;
    use congest_mds::congest::{Executor, ExecutorConfig, SyncExecutor};
    use congest_mds::decomposition::ruling_set::{
        assemble_ruling_set, ruling_set, ruling_set_programs,
    };
    use congest_mds::fractional::kw05::{self, Kw05Program};

    let config = ExecutorConfig::default();
    for (i, family) in families().into_iter().enumerate() {
        let graph = generators::generate(&family, i as u64);

        let k = kw05::default_k(&graph);
        let frac = SyncExecutor
            .run(&graph, vec![Kw05Program::new(k); graph.n()], &config)
            .unwrap();
        assert_eq!(frac.rounds, formulas::kw05_rounds(k));

        let candidates = greedy::greedy_mds(&graph).set;
        let rs = SyncExecutor
            .run(&graph, ruling_set_programs(&graph, &candidates, 3), &config)
            .unwrap();
        let (selected, phases) = assemble_ruling_set(&rs.outputs);
        assert_eq!(rs.rounds, formulas::ruling_set_phase_rounds(phases, 3));
        assert_eq!(selected, ruling_set(&graph, &candidates, 3).selected);
    }
}

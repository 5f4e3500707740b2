//! Conformance suite for the measured distance-two coloring (Lemma 3.12,
//! substitution R4): the [`DistanceTwoColoringProgram`] engine execution is
//! property-tested bit-identical to the central
//! `bipartite_distance_two_coloring` oracle, proper under
//! `verify_bipartite_coloring`, within the `Δ_L·Δ_R` color bound, and within
//! the Lemma 3.12 round charge — across ring / star / unit-disk / bipartite
//! generator sweeps, on both executors, honoring `PARALLEL_THREADS`.

#[path = "support/threads.rs"]
mod threads;

use congest_mds::congest::ledger::formulas;
use congest_mds::congest::{Executor, ExecutorConfig, Graph, PooledExecutor, SyncExecutor};
use congest_mds::decomposition::coloring::{
    assemble_coloring, bipartite_distance_two_coloring, coloring_schedule,
    distance_two_coloring_programs, verify_bipartite_coloring,
};
use congest_mds::fractional::lp;
use congest_mds::graphs::bipartite::BipartiteGraph;
use congest_mds::graphs::generators;
use congest_mds::mds::pipeline::problem_bipartite;
use congest_mds::rounding::derandomize::DerandSchedule;
use congest_mds::rounding::one_shot;
use proptest::prelude::*;
use threads::forced_threads;

/// The generator sweep named by the issue: ring, star, unit-disk and
/// (complete-)bipartite topologies, plus a G(n,p) mix.
fn sweep_graph(which: u8, size: usize, seed: u64) -> Graph {
    match which % 5 {
        0 => generators::cycle(size.max(3)),
        1 => generators::star(size.max(2)),
        2 => generators::unit_disk(size.max(4), 0.3, seed),
        3 => generators::complete_bipartite(2 + size % 5, 2 + size / 3),
        _ => generators::gnp(size.max(2), 0.12, seed),
    }
}

/// A deterministic target subset: every node, or a seed-dependent subset.
fn pick_targets(n: usize, selector: u64) -> Vec<usize> {
    (0..n)
        .filter(|&r| {
            selector == 0
                || !(r as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add(selector)
                    .is_multiple_of(3)
        })
        .collect()
}

/// Runs the full conformance check for one graph-aligned instance (the
/// vendored proptest shim is panic-based, so failures assert directly).
fn assert_conformance(
    graph: &Graph,
    b: &BipartiteGraph,
    left_owner: &[usize],
    targets: &[usize],
    threads: usize,
) {
    let oracle = bipartite_distance_two_coloring(b, targets);
    verify_bipartite_coloring(b, &oracle, targets).expect("oracle coloring invalid");
    if !targets.is_empty() {
        let bound = (b.max_left_degree() * b.max_right_degree()).max(1);
        assert!(
            oracle.num_colors <= bound,
            "{} colors exceed Δ_L·Δ_R = {bound}",
            oracle.num_colors
        );
    }

    let config = ExecutorConfig::default();
    let programs = || {
        distance_two_coloring_programs(graph, b, left_owner, targets)
            .expect("graph-aligned instance")
    };
    let (sync_programs, schedule) = programs();
    let sync = SyncExecutor
        .run(graph, sync_programs, &config)
        .expect("sequential engine run failed");
    let par = PooledExecutor::new(threads)
        .run(graph, programs().0, &config)
        .expect("pooled engine run failed");
    let coloring = assemble_coloring(&sync.outputs);

    // Bit-identical to the central oracle, on both executors.
    assert_eq!(coloring.colors, oracle.colors);
    assert_eq!(coloring.num_colors, oracle.num_colors);
    assert_eq!(sync, par);
    verify_bipartite_coloring(b, &coloring, targets).expect("engine coloring invalid");

    // Exactly two engine rounds per reduction step of the central plan, at
    // most the Lemma 3.12 paper charge.
    assert_eq!(schedule, coloring_schedule(b, targets));
    assert_eq!(
        sync.rounds,
        formulas::measured_coloring_rounds(schedule.num_steps as u64)
    );
    let charge = formulas::bipartite_coloring_rounds(
        b.max_left_degree(),
        b.max_right_degree(),
        graph.n().max(2),
    );
    assert!(
        sync.rounds <= charge,
        "measured {} rounds exceed the Lemma 3.12 charge {charge}",
        sync.rounds
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The bipartite representation B_G across the generator sweep: every
    // left node is hosted by its own original node.
    #[test]
    fn representation_coloring_conforms_across_the_sweep(
        which in 0u8..5,
        size in 3usize..40,
        seed in 0u64..500,
        selector in 0u64..4,
        threads in 2usize..6,
    ) {
        let graph = sweep_graph(which, size, seed);
        let rep = BipartiteGraph::from_graph(&graph);
        let owners: Vec<usize> = (0..graph.n()).collect();
        let targets = pick_targets(graph.n(), selector);
        assert_conformance(
            &graph,
            &rep,
            &owners,
            &targets,
            forced_threads(threads),
        );
    }

    // The pipeline's own instances: degree-reduced (split) one-shot rounding
    // problems, where an owner hosts several constraint nodes — exactly the
    // shape the Theorem 1.2 route colors at every rounding step. The route
    // runs the color classes as its derandomization steps, which is sound
    // because they are the conflict order of the class order: a smallest-free
    // greedy class `c` waits exactly for class `c − 1`.
    #[test]
    fn degree_reduced_problem_coloring_conforms(
        which in 0u8..5,
        size in 4usize..36,
        seed in 0u64..300,
        split in 2usize..6,
        threads in 2usize..6,
    ) {
        let graph = sweep_graph(which, size, seed);
        let x = lp::degree_heuristic(&graph);
        let problem = one_shot::degree_reduced(&graph, &x, split);
        let (b, left_owner, targets) = problem_bipartite(&problem);
        assert_conformance(&graph, &b, &left_owner, &targets, forced_threads(threads));
        let classes = bipartite_distance_two_coloring(&b, &targets).classes();
        let schedule = DerandSchedule::conflict_order(&classes, &problem);
        assert_eq!(schedule.steps, classes);
    }
}

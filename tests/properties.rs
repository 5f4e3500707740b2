//! Property-based integration tests (proptest): invariants of the core data
//! structures and algorithms over randomly generated graphs and assignments.

#[path = "support/insomniac.rs"]
mod insomniac;
#[path = "support/threads.rs"]
mod threads;
#[path = "support/workloads.rs"]
mod workloads;

use congest_mds::congest::ledger::formulas;
use congest_mds::congest::{
    Executor, ExecutorConfig, Graph, Inbox, NodeContext, NodeId, NodeProgram, Outbox,
    PooledExecutor, RoundAction, RunReport, SyncExecutor,
};
use congest_mds::decomposition::coloring::distance_two_coloring_programs;
use congest_mds::decomposition::netdecomp::{
    carving_schedule, strong_diameter_decomposition, DecompositionConfig,
};
use congest_mds::decomposition::spanner::{derandomized_spanner, verify_spanner};
use congest_mds::fractional::kw05::{self, Kw05Program};
use congest_mds::fractional::lp;
use congest_mds::fractional::FractionalAssignment;
use congest_mds::graphs::{analysis, generators};
use congest_mds::mds::pipeline::{self, DerandRoute, MdsConfig};
use congest_mds::mds::{exact, greedy, verify};
use congest_mds::rounding::derandomize::{
    assemble_derand_outputs, derandomize, scheduled_derand_programs, DerandSchedule,
    DerandomizeConfig,
};
use congest_mds::rounding::kwise::KWiseGenerator;
use congest_mds::rounding::one_shot;
use congest_mds::rounding::EstimatorKind;
use insomniac::insomniacs;
use proptest::prelude::*;
use threads::forced_threads;
use workloads::{family_graph_strategy, mixed_programs, sends_programs, staggered_programs};

/// Strategy: a random graph described by (n, edge probability numerator, seed).
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (2usize..60, 1u32..30, 0u64..1000)
        .prop_map(|(n, p_num, seed)| generators::gnp(n, p_num as f64 / 100.0, seed))
}

/// Asserts two reports agree on every field *except* `payloads` — the one
/// field the broadcast fast path is allowed (and expected) to shrink.
fn assert_identical_modulo_payloads(bcast: &RunReport<usize>, sends: &RunReport<usize>) {
    prop_assert_eq!(&bcast.outputs, &sends.outputs);
    prop_assert_eq!(bcast.rounds, sends.rounds);
    prop_assert_eq!(bcast.messages, sends.messages);
    prop_assert_eq!(bcast.total_bits, sends.total_bits);
    prop_assert_eq!(bcast.max_message_bits, sends.max_message_bits);
    prop_assert_eq!(bcast.bandwidth_violations, sends.bandwidth_violations);
    prop_assert_eq!(bcast.bandwidth_bits, sends.bandwidth_bits);
    prop_assert_eq!(&bcast.round_stats, &sends.round_stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn greedy_always_dominates_and_beats_nothing_smaller_than_lp(graph in graph_strategy()) {
        let result = greedy::greedy_mds(&graph);
        prop_assert!(verify::is_dominating_set(&graph, &result.set));
        let lb = lp::dual_lower_bound(&graph);
        prop_assert!(result.size() as f64 >= lb - 1e-9);
    }

    #[test]
    fn degree_heuristic_is_feasible_and_dominated_by_n(graph in graph_strategy()) {
        let x = lp::degree_heuristic(&graph);
        prop_assert!(x.is_feasible_dominating_set(&graph));
        prop_assert!(x.size() <= graph.n() as f64 + 1e-9);
        prop_assert!(x.fractionality() >= 1.0 / graph.delta_tilde() as f64 - 1e-12);
    }

    #[test]
    fn one_shot_derandomization_dominates_and_respects_its_bound(graph in graph_strategy()) {
        let x = lp::degree_heuristic(&graph);
        let problem = one_shot::on_graph(&graph, &x);
        let out = derandomize(&problem, &DerandomizeConfig::default());
        prop_assert!(out.output.is_integral());
        prop_assert!(out.output.is_feasible_dominating_set(&graph));
        prop_assert!(out.output.size() <= out.initial_estimate + 1e-6);
    }

    #[test]
    fn network_decomposition_is_always_valid(graph in graph_strategy()) {
        let nd = strong_diameter_decomposition(&graph, 2, &DecompositionConfig::default());
        prop_assert!(nd.verify(&graph).is_ok());
        // Every node belongs to exactly one cluster.
        let total: usize = nd.clusters.clusters.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, graph.n());
    }

    #[test]
    fn spanner_preserves_components_and_never_adds_edges(graph in graph_strategy()) {
        let sp = derandomized_spanner(&graph);
        prop_assert!(verify_spanner(&graph, &sp).is_ok());
        prop_assert!(sp.edges.len() <= graph.m());
    }

    #[test]
    fn exact_is_never_larger_than_greedy(seed in 0u64..200) {
        let graph = generators::gnp(22, 0.18, seed);
        let opt = exact::exact_mds(&graph, 30).unwrap();
        let greedy_size = greedy::greedy_mds(&graph).size();
        prop_assert!(verify::is_dominating_set(&graph, &opt.set));
        prop_assert!(opt.size() <= greedy_size);
    }

    #[test]
    fn kwise_coins_respect_their_bias_direction(k in 1usize..8, seed in 0u64..500, prob in 0.0f64..1.0) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let generator = KWiseGenerator::from_rng(k, &mut rng);
        // A coin with probability 0 never fires; probability 1 always fires.
        prop_assert!(!generator.coin(3, 0.0));
        prop_assert!(generator.coin(3, 1.0 + 1e-12));
        let value = generator.value(17);
        prop_assert!((0.0..1.0).contains(&value));
        // The coin is monotone in its probability.
        if generator.coin(5, prob) {
            prop_assert!(generator.coin(5, (prob + 0.1).min(1.0 + 1e-12)));
        }
    }

    #[test]
    fn connected_components_partition_the_nodes(graph in graph_strategy()) {
        let comps = analysis::connected_components(&graph);
        prop_assert_eq!(comps.sizes.iter().sum::<usize>(), graph.n());
        for v in graph.nodes() {
            prop_assert!(comps.component[v.0] < comps.count);
        }
    }

    #[test]
    fn parallel_executor_is_bit_identical_to_sequential(
        graph in graph_strategy(),
        threads in 1usize..9,
        depth in 1u64..12,
    ) {
        let config = ExecutorConfig::default();
        let seq = SyncExecutor
            .run(&graph, staggered_programs(graph.n(), depth), &config)
            .unwrap();
        let par = PooledExecutor::new(threads)
            .run(&graph, staggered_programs(graph.n(), depth), &config)
            .unwrap();
        // The full report — outputs, rounds, messages, bits, max message
        // size, violations and per-round stats — must match bit for bit.
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn parallel_kw05_matches_sequential_on_the_engine(
        graph in graph_strategy(),
        threads in 2usize..6,
    ) {
        let k = kw05::default_k(&graph);
        let programs = || vec![Kw05Program::new(k); graph.n()];
        let config = ExecutorConfig::default();
        let seq = SyncExecutor.run(&graph, programs(), &config).unwrap();
        let par = PooledExecutor::new(forced_threads(threads))
            .run(&graph, programs(), &config)
            .unwrap();
        prop_assert_eq!(seq, par);
    }
}

/// Engine property-test workload that misaddresses a message: `bad` nodes
/// send to `id + 2` at round `bad_round`, which on a path graph is never a
/// neighbor. Used to pin the pooled executor's first-error semantics.
struct Misaddresser {
    bad: bool,
    bad_round: u64,
}

impl NodeProgram for Misaddresser {
    type Message = u64;
    type Output = u64;

    fn init(&mut self, _ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u64>) {
        outbox.broadcast(0);
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        _inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<'_, u64>,
    ) -> RoundAction<u64> {
        if self.bad && ctx.round == self.bad_round {
            outbox.send(NodeId(ctx.id.0 + 2), 7);
        }
        if ctx.round >= 6 {
            RoundAction::Halt(ctx.id.0 as u64)
        } else {
            outbox.broadcast(ctx.round);
            RoundAction::Continue
        }
    }
}

/// The thread counts every pooled-executor property is checked against; the
/// CI matrix additionally forces `PARALLEL_THREADS` ∈ {1, 2, 4} through
/// [`forced_threads`], so the union covers under-, exactly- and
/// over-subscribed pools.
const POOL_THREADS: [usize; 5] = [1, 2, 3, 5, 16];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // The persistent-pool executor is bit-identical to the sequential
    // executor — outputs, rounds, messages, bits, max message size,
    // violations and per-round stats — for every tested thread count and
    // across structurally distinct graph families.
    #[test]
    fn pooled_executor_is_bit_identical_to_sequential_across_thread_counts(
        graph in family_graph_strategy(),
        depth in 1u64..10,
    ) {
        let config = ExecutorConfig::default();
        let seq = SyncExecutor
            .run(&graph, staggered_programs(graph.n(), depth), &config)
            .unwrap();
        for threads in POOL_THREADS.into_iter().chain([forced_threads(4)]) {
            let pooled = PooledExecutor::new(threads)
                .run(&graph, staggered_programs(graph.n(), depth), &config)
                .unwrap();
            prop_assert_eq!(&seq, &pooled, "thread count {}", threads);
        }
    }

    // A program that broadcasts and its per-edge-send twin produce the same
    // RunReport — outputs, rounds, messages, bits, violations, round stats —
    // on every executor; only `payloads` differs, and exactly as the storage
    // model predicts: the send twin stores one payload per charged message,
    // the broadcast twin strictly fewer as soon as any node has degree ≥ 2.
    #[test]
    fn broadcast_and_per_edge_sends_are_bit_identical_modulo_payloads(
        graph in family_graph_strategy(),
        depth in 1u64..10,
    ) {
        let config = ExecutorConfig::default();
        let bcast = SyncExecutor
            .run(&graph, staggered_programs(graph.n(), depth), &config)
            .unwrap();
        let sends = SyncExecutor
            .run(&graph, sends_programs(graph.n(), depth), &config)
            .unwrap();
        assert_identical_modulo_payloads(&bcast, &sends);
        // Per-edge sends store exactly what they charge; broadcast stores
        // one payload per node per round instead.
        prop_assert_eq!(sends.payloads, sends.messages);
        prop_assert!(bcast.payloads <= sends.payloads);
        if graph.max_degree() >= 2 {
            prop_assert!(bcast.payloads < sends.payloads);
        }
        // Every executor reproduces its sync reference bit for bit —
        // payloads included — on both twins.
        let threads = forced_threads(4);
        let pool_b = PooledExecutor::new(threads)
            .run(&graph, staggered_programs(graph.n(), depth), &config)
            .unwrap();
        prop_assert_eq!(&bcast, &pool_b);
        let pool_s = PooledExecutor::new(threads)
            .run(&graph, sends_programs(graph.n(), depth), &config)
            .unwrap();
        prop_assert_eq!(&sends, &pool_s);
    }

    // Mixed inboxes: in one round a receiver hears some neighbors through
    // the broadcast table and others through edge slots, while halted and
    // silent neighbors leave their entries empty. The mixed program and its
    // all-sends twin agree on every field but `payloads` on the sync engine
    // and on the pool at several widths, and each pool run reproduces its
    // sync reference exactly.
    #[test]
    fn mixed_broadcasts_and_sends_match_their_all_sends_twin(
        graph in family_graph_strategy(),
        depth in 1u64..10,
    ) {
        let config = ExecutorConfig::default();
        let n = graph.n();
        let mixed = SyncExecutor
            .run(&graph, mixed_programs(n, depth, false), &config)
            .unwrap();
        let sends = SyncExecutor
            .run(&graph, mixed_programs(n, depth, true), &config)
            .unwrap();
        assert_identical_modulo_payloads(&mixed, &sends);
        prop_assert_eq!(sends.payloads, sends.messages);
        prop_assert!(mixed.payloads <= sends.payloads);
        for threads in [2, 3, 5, forced_threads(4)] {
            let pool_m = PooledExecutor::new(threads)
                .run(&graph, mixed_programs(n, depth, false), &config)
                .unwrap();
            let pool_s = PooledExecutor::new(threads)
                .run(&graph, mixed_programs(n, depth, true), &config)
                .unwrap();
            assert_identical_modulo_payloads(&pool_m, &pool_s);
            prop_assert_eq!(&mixed, &pool_m, "thread count {}", threads);
            prop_assert_eq!(&sends, &pool_s, "thread count {}", threads);
        }
    }

    // When several nodes misaddress a message in the same round, the pooled
    // executor reports exactly the sequential executor's error: the offender
    // first in node order, regardless of which worker block finds it first.
    #[test]
    fn pooled_executor_reports_the_first_error_in_node_order(
        n in 5usize..48,
        bad_mask in 1u32..0xff,
        // `round()` is first invoked at ctx.round == 1 (round 0 is init).
        bad_round in 1u64..5,
    ) {
        let graph = generators::path(n);
        // Offenders are spread over the first few nodes (capped at n - 2 so
        // `v + 2` stays in range, and it is never a neighbor on the path);
        // the mask is forced non-zero so at least one node misaddresses.
        let limit = (n - 2).min(8) as u32;
        let mask = (bad_mask % (1u32 << limit)).max(1);
        let programs = |_: ()| -> Vec<Misaddresser> {
            (0..n)
                .map(|v| Misaddresser {
                    bad: (v as u32) < limit && mask & (1 << v) != 0,
                    bad_round,
                })
                .collect()
        };
        let config = ExecutorConfig::default();
        let seq = SyncExecutor
            .run(&graph, programs(()), &config)
            .unwrap_err();
        prop_assert!(matches!(seq, congest_mds::congest::ExecutionError::NotANeighbor { .. }));
        for threads in POOL_THREADS {
            let pooled = PooledExecutor::new(threads)
                .run(&graph, programs(()), &config)
                .unwrap_err();
            prop_assert_eq!(&seq, &pooled, "thread count {}", threads);
        }
    }

    // Reusing the per-graph TopologyCache — across repeated runs, executors
    // and clones — changes no reported number.
    #[test]
    fn topology_cache_reuse_changes_no_reported_numbers(
        graph in family_graph_strategy(),
        depth in 1u64..8,
    ) {
        let config = ExecutorConfig::default();
        prop_assert!(!graph.topology_cached());
        let cold = SyncExecutor
            .run(&graph, staggered_programs(graph.n(), depth), &config)
            .unwrap();
        prop_assert!(graph.topology_cached());
        let warm = SyncExecutor
            .run(&graph, staggered_programs(graph.n(), depth), &config)
            .unwrap();
        prop_assert_eq!(&cold, &warm);
        // A clone taken after warming shares the cache; its reports agree.
        let clone = graph.clone();
        prop_assert!(clone.topology_cached());
        let cloned = PooledExecutor::new(3)
            .run(&clone, staggered_programs(clone.n(), depth), &config)
            .unwrap();
        prop_assert_eq!(&cold, &cloned);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The measured distributed MWU solver is bit-identical to its central
    // oracle and to itself across executors (R1 made measured), and the
    // replay of its halting and broadcast rules gives the engine's exact
    // rounds, messages and payloads. ε is the pipeline's 1/16 or the
    // default 0.25; a truncated T makes the completion round do real work.
    #[test]
    fn distributed_mwu_equals_central_oracle(
        graph in graph_strategy(),
        threads in 2usize..6,
        epsilon in (0usize..2).prop_map(|i| [1.0 / 16.0, 0.25][i]),
        iterations in (0u8..2, 1usize..41).prop_map(|(auto, t)| (auto == 0).then_some(t)),
    ) {
        let config = lp::DistributedLpConfig { epsilon, iterations };
        let oracle = lp::central_mwu_reference(&graph, &config);
        let exec_config = ExecutorConfig::default();
        let seq = SyncExecutor
            .run(&graph, lp::DistributedLpProgram::programs(&graph, &config), &exec_config)
            .unwrap();
        let assignment = FractionalAssignment::from_values(seq.outputs.clone());
        prop_assert_eq!(assignment.values(), oracle.assignment.values());
        prop_assert_eq!(
            (seq.rounds, seq.messages, seq.payloads),
            (oracle.rounds, oracle.messages, oracle.payloads)
        );
        prop_assert!(assignment.is_feasible_dominating_set(&graph));
        let par = PooledExecutor::new(forced_threads(threads))
            .run(&graph, lp::DistributedLpProgram::programs(&graph, &config), &exec_config)
            .unwrap();
        prop_assert_eq!(seq, par);
    }

    // The scheduled conditional-expectation program, run in conflict order,
    // is bit-identical to the central derandomizer fixing one coin at a time
    // in the same processing order (R3 made measured).
    #[test]
    fn scheduled_derandomization_equals_central_oracle(
        graph in graph_strategy(),
        threads in 2usize..6,
        shuffle in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let x = lp::degree_heuristic(&graph);
        let problem = one_shot::on_graph(&graph, &x);
        let mut order = problem.participating_values();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(shuffle));
        let order = vec![order];
        let schedule = DerandSchedule::conflict_order(&order, &problem);
        prop_assert!(schedule.len() <= order[0].len());
        let central = derandomize(
            &problem,
            &DerandomizeConfig {
                estimator: EstimatorKind::default(),
                groups: Some(order.clone()),
            },
        );
        let programs =
            scheduled_derand_programs(&graph, &problem, &schedule, EstimatorKind::default())
                .unwrap();
        let report = PooledExecutor::new(forced_threads(threads))
            .run(&graph, programs, &ExecutorConfig::default())
            .unwrap();
        let (output, _) = assemble_derand_outputs(&report.outputs);
        prop_assert_eq!(output.values(), central.output.values());
        // Two rounds per step; without coin flips, the one round in which
        // every node evaluates its constraint.
        prop_assert_eq!(
            report.rounds,
            congest_mds::congest::ledger::formulas::derandomization_schedule_rounds(
                schedule.len() as u64
            )
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Sleeping changes no reported number. The distance-two coloring and
    // the scheduled derandomization sleep between their scheduled rounds;
    // on the pipeline's one-shot rounding instance, each reports on sync
    // and on the pool exactly what its insomniac twin, run every round,
    // reports on sync: outputs, counts and round stats.
    #[test]
    fn sleeping_programs_report_what_their_insomniac_twins_report(
        graph in family_graph_strategy(),
        threads in 2usize..6,
    ) {
        let problem = one_shot::on_graph(&graph, &lp::degree_heuristic(&graph));
        let (bipartite, owners, targets) = pipeline::problem_bipartite(&problem);
        let coloring = || {
            distance_two_coloring_programs(&graph, &bipartite, &owners, &targets)
                .unwrap()
                .0
        };
        let schedule =
            DerandSchedule::conflict_order(&[problem.participating_values()], &problem);
        let derand = || {
            scheduled_derand_programs(&graph, &problem, &schedule, EstimatorKind::default())
                .unwrap()
        };
        let config = ExecutorConfig::default();
        let pool = PooledExecutor::new(forced_threads(threads));

        let reference = SyncExecutor.run(&graph, insomniacs(coloring()), &config).unwrap();
        prop_assert_eq!(&SyncExecutor.run(&graph, coloring(), &config).unwrap(), &reference);
        prop_assert_eq!(&pool.run(&graph, coloring(), &config).unwrap(), &reference);
        prop_assert_eq!(&pool.run(&graph, insomniacs(coloring()), &config).unwrap(), &reference);

        let reference = SyncExecutor.run(&graph, insomniacs(derand()), &config).unwrap();
        prop_assert_eq!(&SyncExecutor.run(&graph, derand(), &config).unwrap(), &reference);
        prop_assert_eq!(&pool.run(&graph, derand(), &config).unwrap(), &reference);
        prop_assert_eq!(&pool.run(&graph, insomniacs(derand()), &config).unwrap(), &reference);
    }
}

proptest! {
    // The end-to-end pipeline runs several engine executions per case; keep
    // the case count lower than the cheap structural properties above.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The headline acceptance property: the composed pipeline — distributed
    // MWU plus scheduled derandomization on the engine — produces exactly
    // the dominating set of the central oracle, on both derandomization
    // routes and both executors.
    #[test]
    fn composed_pipeline_equals_central_oracle_on_both_routes_and_executors(
        n in 2usize..36,
        p_num in 2u32..30,
        seed in 0u64..500,
        threads in 2usize..6,
    ) {
        let graph = generators::gnp(n, p_num as f64 / 100.0, seed);
        for route in [DerandRoute::NetworkDecomposition, DerandRoute::Coloring] {
            let config = MdsConfig { route, ..MdsConfig::default() };
            let oracle = pipeline::central_oracle(&graph, &config);
            let sync = pipeline::run(&graph, &config);
            let pooled = pipeline::run_on(
                &graph,
                &config,
                &PooledExecutor::new(forced_threads(threads)),
            );
            prop_assert_eq!(&sync.dominating_set, &oracle.dominating_set);
            prop_assert_eq!(&sync.assignment, &oracle.assignment);
            prop_assert_eq!(&pooled.dominating_set, &oracle.dominating_set);
            prop_assert_eq!(&pooled.ledger, &sync.ledger);
            prop_assert!(verify::is_dominating_set(&graph, &sync.dominating_set));
        }
    }

    // The end-to-end Theorem 1.2 acceptance property, now that all three of
    // its phase kinds — the distributed MWU, the Lemma 3.12 distance-two
    // coloring (R4), and the conditional-expectation schedule — are measured:
    // the composed run is bit-for-bit the central oracle on both executors,
    // every measured phase stays at or below its paper charge, and the
    // measured total never exceeds the summed paper charges.
    #[test]
    fn theorem_1_2_is_engine_measured_end_to_end(
        n in 2usize..36,
        p_num in 2u32..30,
        seed in 0u64..500,
        threads in 2usize..6,
    ) {
        use congest_mds::congest::{PhaseKind, PhaseMode};

        let graph = generators::gnp(n, p_num as f64 / 100.0, seed);
        let config = MdsConfig { route: DerandRoute::Coloring, ..MdsConfig::default() };
        let oracle = pipeline::central_oracle(&graph, &config);
        let sync = pipeline::theorem_1_2(&graph, &config);
        let pooled = pipeline::theorem_1_2_on(
            &graph,
            &config,
            &PooledExecutor::new(forced_threads(threads)),
        );

        // Bit-for-bit the central oracle, on both executors.
        prop_assert_eq!(&sync.dominating_set, &oracle.dominating_set);
        prop_assert_eq!(&sync.assignment, &oracle.assignment);
        prop_assert_eq!(&sync.stages, &oracle.stages);
        prop_assert_eq!(&pooled.dominating_set, &oracle.dominating_set);
        prop_assert_eq!(&pooled.ledger, &sync.ledger);
        prop_assert!(verify::is_dominating_set(&graph, &sync.dominating_set));

        // Every rounding step ran a measured coloring phase whose rounds are
        // exactly the measured formula and at most the Lemma 3.12 charge.
        let coloring_phases: Vec<_> = sync
            .ledger
            .phases()
            .iter()
            .filter(|p| p.kind == PhaseKind::Coloring)
            .collect();
        if n > 0 {
            for phase in &coloring_phases {
                prop_assert_eq!(phase.mode, PhaseMode::Measured);
                prop_assert!(phase.simulated_rounds >= 1);
                prop_assert!(
                    phase.simulated_rounds <= phase.formula_rounds.unwrap(),
                    "coloring phase measured {} rounds > Lemma 3.12 charge {:?}",
                    phase.simulated_rounds,
                    phase.formula_rounds
                );
            }
        }
        prop_assert_eq!(
            sync.measured_coloring_rounds(),
            coloring_phases.iter().map(|p| p.simulated_rounds).sum::<u64>()
        );
        prop_assert_eq!(oracle.measured_coloring_rounds(), 0);

        // Engine-measured end to end: every phase of the composed run that
        // spent rounds ran on the engine — the only charged phases left on
        // this route are zero-round bookkeeping. The oracle never touches
        // the engine. The measured total stays at or below the summed paper
        // charges.
        prop_assert!(sync
            .ledger
            .phases()
            .iter()
            .all(|p| p.mode == PhaseMode::Measured || p.simulated_rounds == 0));
        prop_assert_eq!(oracle.measured_engine_rounds(), 0);
        prop_assert!(
            sync.measured_engine_rounds() <= sync.ledger.total_formula_rounds(),
            "measured total {} exceeds the summed paper charges {}",
            sync.measured_engine_rounds(),
            sync.ledger.total_formula_rounds()
        );
    }

    // The end-to-end Theorem 1.1 acceptance property, now that the GK18
    // network decomposition (R2) runs measured alongside the MWU and the
    // conditional-expectation schedules: the composed run is bit-for-bit the
    // central oracle on both executors, the decomposition phase spends
    // exactly the carving schedule's wave rounds (never more than the
    // Theorem 3.2 paper charge), and no round-spending phase on the route is
    // charged.
    #[test]
    fn theorem_1_1_is_engine_measured_end_to_end(
        n in 2usize..36,
        p_num in 2u32..30,
        seed in 0u64..500,
        threads in 2usize..6,
    ) {
        use congest_mds::congest::{PhaseKind, PhaseMode};

        let graph = generators::gnp(n, p_num as f64 / 100.0, seed);
        let config = MdsConfig {
            route: DerandRoute::NetworkDecomposition,
            ..MdsConfig::default()
        };
        let oracle = pipeline::central_oracle(&graph, &config);
        let sync = pipeline::theorem_1_1(&graph, &config);
        let pooled = pipeline::theorem_1_1_on(
            &graph,
            &config,
            &PooledExecutor::new(forced_threads(threads)),
        );

        // Bit-for-bit the central oracle, on both executors.
        prop_assert_eq!(&sync.dominating_set, &oracle.dominating_set);
        prop_assert_eq!(&sync.assignment, &oracle.assignment);
        prop_assert_eq!(&sync.stages, &oracle.stages);
        prop_assert_eq!(&pooled.dominating_set, &oracle.dominating_set);
        prop_assert_eq!(&pooled.ledger, &sync.ledger);
        prop_assert!(verify::is_dominating_set(&graph, &sync.dominating_set));

        // The decomposition ran as exactly one measured phase whose rounds
        // are exactly the carving schedule's wave total and at most the
        // Theorem 3.2 paper charge.
        let nd_phases: Vec<_> = sync
            .ledger
            .phases()
            .iter()
            .filter(|p| p.kind == PhaseKind::NetDecomp)
            .collect();
        prop_assert_eq!(nd_phases.len(), 1);
        let nd_phase = nd_phases[0];
        prop_assert_eq!(nd_phase.mode, PhaseMode::Measured);
        let schedule = carving_schedule(&graph, 2, &DecompositionConfig::default());
        prop_assert_eq!(nd_phase.simulated_rounds, schedule.wave_rounds());
        prop_assert_eq!(
            nd_phase.simulated_rounds,
            formulas::measured_netdecomp_rounds(
                schedule.num_phases as u64,
                schedule.total_wave_depth()
            )
        );
        prop_assert!(
            nd_phase.simulated_rounds <= nd_phase.formula_rounds.unwrap(),
            "netdecomp phase measured {} rounds > Theorem 3.2 charge {:?}",
            nd_phase.simulated_rounds,
            nd_phase.formula_rounds
        );
        prop_assert_eq!(
            nd_phase.formula_rounds,
            Some(formulas::netdecomp_charge_rounds(graph.n(), 2))
        );
        prop_assert_eq!(sync.measured_netdecomp_rounds(), nd_phase.simulated_rounds);
        prop_assert_eq!(oracle.measured_netdecomp_rounds(), 0);

        // Engine-measured end to end: every phase of the composed run that
        // spent rounds ran on the engine — the only charged phases left on
        // this route are zero-round bookkeeping. The oracle never touches
        // the engine. The measured total stays at or below the summed paper
        // charges.
        prop_assert!(sync
            .ledger
            .phases()
            .iter()
            .all(|p| p.mode == PhaseMode::Measured || p.simulated_rounds == 0));
        prop_assert_eq!(oracle.measured_engine_rounds(), 0);
        prop_assert!(
            sync.measured_engine_rounds() <= sync.ledger.total_formula_rounds(),
            "measured total {} exceeds the summed paper charges {}",
            sync.measured_engine_rounds(),
            sync.ledger.total_formula_rounds()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The batched owner-reply kernel returns, in one member pass, exactly
    // what the scalar oracle kernel returns from two passes with the target
    // member's coin forced each way — bit-for-bit, for every estimator kind,
    // including targets past the end of the member list (where both branches
    // degenerate to the plain estimate) and with dirty reused scratch.
    #[test]
    fn batched_estimator_kernel_is_bit_identical_to_the_scalar_kernel(
        raw in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0u8..4),
            0..12,
        ),
        target in 0usize..14,
        kind_sel in 0usize..5,
        c in 0.0f64..3.0,
    ) {
        use congest_mds::rounding::estimator::{
            member_violation_branches, member_violation_probability, CoinState, EstimatorScratch,
        };
        use congest_mds::rounding::ValueNode;

        let members: Vec<(ValueNode, CoinState)> = raw
            .into_iter()
            .map(|(x, pf, tag)| {
                // tag 3: non-participating (p = 1); otherwise p ∈ (x, 1).
                let p = if tag == 3 {
                    1.0
                } else {
                    (x + pf * (1.0 - x)).clamp(1e-6, 1.0 - 1e-9)
                };
                let coin = match tag {
                    0 => CoinState::Undecided,
                    1 => CoinState::Take,
                    _ => CoinState::Zero,
                };
                (ValueNode { x, p }, coin)
            })
            .collect();
        let kind = [
            EstimatorKind::ExactProduct,
            EstimatorKind::ExactDp { resolution: 64 },
            EstimatorKind::Chernoff,
            EstimatorKind::Auto { resolution: 8 },
            EstimatorKind::Auto { resolution: 512 },
        ][kind_sel];

        let mut scratch = EstimatorScratch::default();
        let batched = member_violation_branches(
            kind,
            members.iter().map(|(v, coin)| (v, *coin)),
            target,
            c,
            &mut scratch,
        );
        let scalar = |state: CoinState| {
            member_violation_probability(
                kind,
                members.iter().enumerate().map(|(i, (v, coin))| {
                    (v, if i == target { state } else { *coin })
                }),
                c,
            )
        };
        prop_assert_eq!(batched.0.to_bits(), scalar(CoinState::Take).to_bits());
        prop_assert_eq!(batched.1.to_bits(), scalar(CoinState::Zero).to_bits());

        // Reusing the (now dirty) scratch must not perturb a single bit.
        let again = member_violation_branches(
            kind,
            members.iter().map(|(v, coin)| (v, *coin)),
            target,
            c,
            &mut scratch,
        );
        prop_assert_eq!(batched.0.to_bits(), again.0.to_bits());
        prop_assert_eq!(batched.1.to_bits(), again.1.to_bits());
    }
}

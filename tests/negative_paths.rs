//! Negative-path coverage for the program-composition layer and the measured
//! distance-two coloring: phase/graph misalignment, empty graphs, and the
//! `Δ_L = 0` degenerate bipartite inputs — paths that are validated in the
//! library but were previously untested end to end.

use congest_mds::congest::ledger::formulas;
use congest_mds::congest::{
    ComposedProgram, ExecutionError, Executor, ExecutorConfig, Graph, Inbox, NodeContext,
    NodeProgram, Outbox, PhaseKind, PhaseMode, PhaseSpec, PooledExecutor, RoundAction, RunReport,
    SyncExecutor,
};
use congest_mds::decomposition::coloring::{
    assemble_coloring, bipartite_distance_two_coloring, distance_two_coloring_programs,
    verify_bipartite_coloring,
};
use congest_mds::graphs::bipartite::BipartiteGraph;
use congest_mds::graphs::generators;
use congest_mds::mds::pipeline::{self, DerandRoute, MdsConfig};

fn spec(name: &str) -> PhaseSpec {
    PhaseSpec::new(PhaseKind::Other, name)
}

/// A trivial one-round program for exercising the composer.
struct Noop;

impl NodeProgram for Noop {
    type Message = ();
    type Output = usize;

    fn init(&mut self, _: &NodeContext<'_>, _: &mut Outbox<'_, ()>) {}

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        _: &Inbox<'_, ()>,
        _: &mut Outbox<'_, ()>,
    ) -> RoundAction<usize> {
        RoundAction::Halt(ctx.id.0)
    }
}

// ---- congest_sim::compose ----

#[test]
fn composer_rejects_phase_graph_misalignment_and_records_nothing() {
    let g = generators::path(4);
    let mut composed = ComposedProgram::new(&g, &SyncExecutor);
    // A phase sized for a different graph: 2 programs for 4 nodes.
    let err = composed
        .measured(spec("misaligned"), vec![Noop, Noop])
        .unwrap_err();
    assert!(matches!(
        err,
        ExecutionError::ProgramCountMismatch {
            programs: 2,
            nodes: 4
        }
    ));
    // The failed phase leaves no trace in the ledger; the composer remains
    // usable for a correctly sized phase.
    assert_eq!(composed.ledger().phases().len(), 0);
    let ok = composed
        .measured(spec("aligned"), (0..4).map(|_| Noop).collect::<Vec<_>>())
        .unwrap();
    assert_eq!(ok.outputs, vec![0, 1, 2, 3]);
    let ledger = composed.finish();
    assert_eq!(ledger.phases().len(), 1);
    assert_eq!(ledger.phases()[0].mode, PhaseMode::Measured);
}

#[test]
fn composer_handles_the_empty_graph() {
    let g = Graph::empty(0);
    let mut composed = ComposedProgram::new(&g, &SyncExecutor);
    // A measured phase over zero nodes is legal and spends zero rounds.
    let report = composed
        .measured(spec("empty measured"), Vec::<Noop>::new())
        .unwrap();
    assert_eq!(report.rounds, 0);
    assert!(report.outputs.is_empty());
    let finished = composed.finish();
    assert_eq!(finished.phases().len(), 1);
    assert_eq!(finished.measured_rounds(None), 0);
    assert_eq!(finished.total_formula_rounds(), 0);
}

#[test]
fn pipeline_survives_empty_and_edgeless_graphs_on_the_coloring_route() {
    let config = MdsConfig {
        route: DerandRoute::Coloring,
        ..MdsConfig::default()
    };
    let empty = Graph::empty(0);
    let run = pipeline::run(&empty, &config);
    let oracle = pipeline::central_oracle(&empty, &config);
    assert!(run.dominating_set.is_empty());
    assert_eq!(run.dominating_set, oracle.dominating_set);

    // Isolated nodes: every node must join; the routes agree bit for bit.
    let isolated = Graph::empty(5);
    let run = pipeline::run(&isolated, &config);
    let oracle = pipeline::central_oracle(&isolated, &config);
    assert_eq!(run.dominating_set.len(), 5);
    assert_eq!(run.dominating_set, oracle.dominating_set);
    assert_eq!(run.assignment, oracle.assignment);
}

// ---- the measured distance-two coloring ----

#[test]
fn coloring_program_rejects_misaligned_instances() {
    let g = generators::path(4);
    let rep = BipartiteGraph::from_graph(&g);
    let owners: Vec<usize> = (0..4).collect();

    // Right side not aligned with the network.
    let foreign = BipartiteGraph::new(2, 7);
    let err = distance_two_coloring_programs(&g, &foreign, &[0, 1], &[]).unwrap_err();
    assert!(err.contains("graph-aligned"), "{err}");

    // Owner list of the wrong length.
    let err = distance_two_coloring_programs(&g, &rep, &owners[..3], &[]).unwrap_err();
    assert!(err.contains("left owners"), "{err}");

    // An owner that cannot reach its constraint's members in one hop.
    let far = vec![3, 1, 2, 3];
    let err = distance_two_coloring_programs(&g, &rep, &far, &[0]).unwrap_err();
    assert!(err.contains("inclusive neighborhood"), "{err}");

    // Duplicate / out-of-range targets.
    let err = distance_two_coloring_programs(&g, &rep, &owners, &[2, 2]).unwrap_err();
    assert!(err.contains("twice"), "{err}");
    let err = distance_two_coloring_programs(&g, &rep, &owners, &[11]).unwrap_err();
    assert!(err.contains("out of range"), "{err}");
}

#[test]
fn degenerate_bipartite_input_without_left_nodes_is_colored_in_one_step() {
    // Δ_L = 0: no constraint node exists, so nothing conflicts. The oracle
    // and the engine agree on the all-zero coloring, and the measured run
    // spends one decide plus one observing round — within the (floored)
    // Lemma 3.12 charge.
    let g = generators::cycle(6);
    let b = BipartiteGraph::new(0, 6);
    let targets: Vec<usize> = (0..6).collect();
    assert_eq!(b.max_left_degree(), 0);

    let oracle = bipartite_distance_two_coloring(&b, &targets);
    assert_eq!(oracle.num_colors, 1);
    verify_bipartite_coloring(&b, &oracle, &targets).unwrap();

    let (programs, schedule) = distance_two_coloring_programs(&g, &b, &[], &targets).unwrap();
    let report = SyncExecutor
        .run(&g, programs, &ExecutorConfig::default())
        .unwrap();
    assert_eq!(assemble_coloring(&report.outputs).colors, oracle.colors);
    assert_eq!(schedule.num_steps, 1);
    assert_eq!(report.rounds, formulas::measured_coloring_rounds(1));
    assert!(report.rounds <= formulas::bipartite_coloring_rounds(0, 0, g.n()));
}

// ---- the broadcast fast path's degenerate case ----

/// Broadcasts every round until round 3, then halts with the number of
/// messages ever received.
struct CountingBroadcaster {
    seen: usize,
}

impl NodeProgram for CountingBroadcaster {
    type Message = u32;
    type Output = usize;

    fn init(&mut self, _: &NodeContext<'_>, outbox: &mut Outbox<'_, u32>) {
        outbox.broadcast(7);
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, u32>,
        outbox: &mut Outbox<'_, u32>,
    ) -> RoundAction<usize> {
        self.seen += inbox.len();
        if ctx.round >= 3 {
            RoundAction::Halt(self.seen)
        } else {
            outbox.broadcast(7);
            RoundAction::Continue
        }
    }
}

fn counting_broadcasters(n: usize) -> Vec<CountingBroadcaster> {
    (0..n).map(|_| CountingBroadcaster { seen: 0 }).collect()
}

#[test]
fn broadcast_on_isolated_nodes_is_a_free_noop_on_every_backend() {
    use congest_mds::transport::{Role, SocketListener, SocketSession};
    use std::time::Duration;

    // Nodes 3 and 4 are isolated: their broadcasts must be no-ops — zero
    // charged messages, zero stored payloads, zero bits. The triangle 0-1-2
    // keeps the run from being trivially empty: each of its nodes broadcasts
    // in rounds 0..3 (2 messages charged, 1 payload stored per broadcast)
    // and hears both neighbors in rounds 1..=3.
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let config = ExecutorConfig::default();
    let seq = SyncExecutor
        .run(&g, counting_broadcasters(5), &config)
        .unwrap();
    assert_eq!(seq.outputs, vec![6, 6, 6, 0, 0]);
    assert_eq!(seq.messages, 18);
    assert_eq!(seq.payloads, 9);

    // All five nodes isolated: every broadcast in the run is the degenerate
    // case, and the whole report is zeros.
    let empty = Graph::empty(5);
    let quiet = SyncExecutor
        .run(&empty, counting_broadcasters(5), &config)
        .unwrap();
    assert_eq!(quiet.outputs, vec![0; 5]);
    assert_eq!(quiet.messages, 0);
    assert_eq!(quiet.payloads, 0);
    assert_eq!(quiet.total_bits, 0);

    // The worker pool agrees bit for bit on both graphs.
    let pool = PooledExecutor::new(2);
    let report = pool.run(&g, counting_broadcasters(5), &config).unwrap();
    assert_eq!(seq, report, "pool diverged on the isolated-node graph");
    let report = pool.run(&empty, counting_broadcasters(5), &config).unwrap();
    assert_eq!(quiet, report, "pool diverged on the edgeless graph");

    // And so does the socket backend over loopback, on the mixed graph.
    let listener = SocketListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let follower = s.spawn(|| {
            let mut session = SocketSession::connect(addr, Duration::from_secs(30)).unwrap();
            session.set_timeout(Duration::from_secs(120));
            session.run_program(Role::Follower, &g, counting_broadcasters(5), &config)
        });
        let mut session = listener.accept().unwrap();
        session.set_timeout(Duration::from_secs(120));
        let leader = session
            .run_program(Role::Leader, &g, counting_broadcasters(5), &config)
            .unwrap();
        assert_eq!(seq, leader, "socket leader diverged");
        let follower = follower.join().expect("follower thread").unwrap();
        assert_eq!(seq, follower, "socket follower diverged");
    });
}

// ---- the measured network decomposition ----

/// Builds the decomposition programs of `graph` (k = 2), runs them on the
/// sequential executor and assembles the decomposition, as the pipeline
/// does.
fn measured_decomposition(
    graph: &Graph,
) -> (
    congest_mds::decomposition::NetworkDecomposition,
    RunReport<congest_mds::decomposition::NetDecompOutput>,
    congest_mds::decomposition::CarvingSchedule,
) {
    use congest_mds::decomposition::netdecomp::{
        assemble_decomposition, netdecomp_programs, DecompositionConfig,
    };

    let (programs, schedule) = netdecomp_programs(graph, 2, &DecompositionConfig::default());
    let report = SyncExecutor
        .run(graph, programs, &ExecutorConfig::default())
        .unwrap();
    (
        assemble_decomposition(&report.outputs, &schedule),
        report,
        schedule,
    )
}

#[test]
fn netdecomp_program_survives_empty_edgeless_and_single_node_graphs() {
    // The empty graph: no phase is scheduled, so the run spends zero rounds
    // and produces zero clusters. The pipeline agrees with its oracle.
    let empty = Graph::empty(0);
    let (nd, report, schedule) = measured_decomposition(&empty);
    assert_eq!(report.rounds, 0);
    assert_eq!(schedule.num_phases(), 0);
    assert!(nd.clusters.is_empty());
    let nd_config = MdsConfig {
        route: DerandRoute::NetworkDecomposition,
        ..MdsConfig::default()
    };
    let pipeline_run = pipeline::run(&empty, &nd_config);
    assert!(pipeline_run.dominating_set.is_empty());
    assert_eq!(
        pipeline_run.dominating_set,
        pipeline::central_oracle(&empty, &nd_config).dominating_set
    );

    // Edgeless: every node is its own carve center — one phase, zero wave
    // depth, one observing round, zero messages; the floored Theorem 3.2
    // charge still covers it.
    let edgeless = Graph::empty(5);
    let (nd, report, schedule) = measured_decomposition(&edgeless);
    assert_eq!(schedule.num_phases(), 1);
    assert_eq!(report.rounds, 1);
    assert_eq!(report.messages, 0);
    assert_eq!(nd.clusters.len(), 5);
    assert!(report.rounds <= formulas::netdecomp_charge_rounds(5, 2));
    let pipeline_run = pipeline::run(&edgeless, &nd_config);
    assert_eq!(pipeline_run.dominating_set.len(), 5);
    assert_eq!(
        pipeline_run.dominating_set,
        pipeline::central_oracle(&edgeless, &nd_config).dominating_set
    );

    // A single node: the fully degenerate instance of the same shape.
    let single = Graph::empty(1);
    let (nd, report, _) = measured_decomposition(&single);
    assert_eq!(report.rounds, 1);
    assert_eq!(nd.clusters.len(), 1);
    assert!(report.rounds <= formulas::netdecomp_charge_rounds(1, 2));
}

#[test]
fn misaligned_decomposition_plan_is_rejected_and_records_nothing() {
    use congest_mds::decomposition::netdecomp::{netdecomp_programs, DecompositionConfig};

    let g = generators::path(6);
    let config = DecompositionConfig::default();

    // Feeding a phase built for the wrong graph through the composer fails
    // with the engine's alignment error and leaves no ledger trace — the
    // composer stays usable for the correctly sized decomposition phase.
    let (programs, _) = netdecomp_programs(&generators::path(4), 2, &config);
    let mut composed = ComposedProgram::new(&g, &SyncExecutor);
    let err = composed
        .measured(
            PhaseSpec::new(PhaseKind::NetDecomp, "misaligned netdecomp"),
            programs,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ExecutionError::ProgramCountMismatch {
            programs: 4,
            nodes: 6
        }
    ));
    assert_eq!(composed.ledger().phases().len(), 0);
    let (programs, schedule) = netdecomp_programs(&g, 2, &config);
    let ok = composed
        .measured(
            PhaseSpec::new(PhaseKind::NetDecomp, "aligned netdecomp"),
            programs,
        )
        .unwrap();
    assert_eq!(ok.rounds, schedule.wave_rounds());
    let ledger = composed.finish();
    assert_eq!(ledger.phases().len(), 1);
    assert_eq!(
        ledger.measured_rounds(Some(PhaseKind::NetDecomp)),
        ok.rounds
    );
}

#[test]
fn degenerate_one_center_instance_spends_the_floored_charge() {
    use congest_mds::decomposition::netdecomp::{
        strong_diameter_decomposition, DecompositionConfig,
    };

    // A complete graph is carved in a single phase by a single center (node
    // 0): the join wave takes one round, every other node joins at depth 1,
    // and all nodes halt in the observing round after it — exactly
    // `measured_netdecomp_rounds(1, 1) = 2` rounds, which is the floor of
    // the Theorem 3.2 charge.
    let g = generators::complete(12);
    let config = DecompositionConfig::default();
    let oracle = strong_diameter_decomposition(&g, 2, &config);
    assert_eq!(oracle.clusters.len(), 1);
    assert_eq!(oracle.num_colors(), 1);
    let (nd, report, schedule) = measured_decomposition(&g);
    assert_eq!(nd.clusters, oracle.clusters);
    assert_eq!(schedule.num_phases(), 1);
    assert_eq!(schedule.total_wave_depth(), 1);
    assert_eq!(report.rounds, formulas::measured_netdecomp_rounds(1, 1));
    assert_eq!(report.rounds, 2);
    assert!(report.rounds <= formulas::netdecomp_charge_rounds(g.n(), 2));
}

#[test]
fn coloring_program_on_the_empty_graph_is_a_noop() {
    let g = Graph::empty(0);
    let b = BipartiteGraph::new(0, 0);
    let (programs, _) = distance_two_coloring_programs(&g, &b, &[], &[]).unwrap();
    let report = SyncExecutor
        .run(&g, programs, &ExecutorConfig::default())
        .unwrap();
    assert_eq!(report.rounds, 0);
    let coloring = assemble_coloring(&report.outputs);
    assert_eq!(coloring.num_colors, 0);
    assert!(coloring.colors.is_empty());
}

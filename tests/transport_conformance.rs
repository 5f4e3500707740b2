//! Transport-conformance suite: every backend must produce [`RunReport`]s
//! bit-identical to the sequential executor — same outputs, rounds,
//! message/bit accounting and first error — over the seven structurally
//! distinct graph families and both pipeline routes. The two-process socket
//! backend is held to this on *both* endpoints.
//!
//! The backend-matrix properties run the persistent pool (at a width drawn
//! per case) and the socket side by side; the tests prefixed `socket_` pin
//! the socket alone. Every socket run opens a real loopback TCP session
//! between threads; `examples/socket_pipeline.rs --self-spawn` covers real
//! processes.
//!
//! [`RunReport`]: congest_mds::congest::RunReport

#[path = "support/insomniac.rs"]
mod insomniac;
#[path = "support/workloads.rs"]
mod workloads;

use congest_mds::congest::{
    ExecutionError, Executor, ExecutorConfig, Graph, Inbox, NodeContext, NodeId, NodeProgram,
    Outbox, PooledExecutor, RoundAction, RunReport, SyncExecutor,
};
use congest_mds::decomposition::coloring::distance_two_coloring_programs;
use congest_mds::fractional::lp;
use congest_mds::graphs::generators;
use congest_mds::mds::pipeline::{self, DerandRoute, MdsConfig, MdsResult};
use congest_mds::mds::verify;
use congest_mds::rounding::derandomize::{scheduled_derand_programs, DerandSchedule};
use congest_mds::rounding::one_shot;
use congest_mds::rounding::EstimatorKind;
use congest_mds::transport::{
    FrameError, Role, SocketExecutor, SocketListener, SocketSession, TransportError,
};
use insomniac::insomniacs;
use proptest::prelude::*;
use std::thread;
use std::time::Duration;
use workloads::{family_graph_strategy, mixed_programs, sends_programs, staggered_programs};

/// A run's outcome on one endpoint or executor.
type Outcome<O> = Result<RunReport<O>, ExecutionError>;

/// Runs `mk()` programs on both ends of a loopback socket session (the peer
/// on a second thread) and returns `[leader, follower]` outcomes. A
/// wire-level failure panics: only program errors are outcomes.
fn socket_run_both<P, F>(graph: &Graph, mk: F, config: &ExecutorConfig) -> [Outcome<P::Output>; 2]
where
    P: NodeProgram + Send,
    P::Output: Send,
    F: Fn() -> Vec<P> + Sync,
{
    let listener = SocketListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (leader, follower) = thread::scope(|s| {
        let follower = s.spawn(|| {
            let mut session = SocketSession::connect(addr, Duration::from_secs(30)).unwrap();
            session.set_timeout(Duration::from_secs(120));
            session.run_program(Role::Follower, graph, mk(), config)
        });
        let mut session = listener.accept().unwrap();
        session.set_timeout(Duration::from_secs(120));
        let leader = session.run_program(Role::Leader, graph, mk(), config);
        (leader, follower.join().expect("follower thread"))
    });
    [leader, follower].map(|result| {
        result.map_err(|e| match e {
            TransportError::Execution(e) => e,
            other => panic!("socket transport failure: {other}"),
        })
    })
}

/// Runs the composed pipeline on both ends of one persistent loopback
/// socket session and returns `[leader, follower]` results.
fn socket_pipeline_both(graph: &Graph, config: &MdsConfig) -> [MdsResult; 2] {
    let listener = SocketListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let timeout = Duration::from_secs(120);
    thread::scope(|s| {
        let follower = s.spawn(|| {
            let executor = SocketExecutor::connect(addr.to_string()).with_timeout(timeout);
            pipeline::run_on(graph, config, &executor)
        });
        let session = listener.accept().unwrap();
        let executor = SocketExecutor::from_session(Role::Leader, session).with_timeout(timeout);
        let leader = pipeline::run_on(graph, config, &executor);
        [leader, follower.join().expect("follower thread")]
    })
}

/// A backend the matrix properties hold to the sequential executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// The persistent pool with this many workers.
    Pool(usize),
    /// Both endpoints of a loopback socket session.
    Socket,
}

/// The backends every matrix case runs: the pool at `threads` workers and
/// the socket.
fn selected_backends(threads: usize) -> [Backend; 2] {
    [Backend::Pool(threads), Backend::Socket]
}

/// Runs `mk()` programs on `backend` and returns every outcome it reaches:
/// the pool's one, or the socket leader's and follower's.
fn run_backend<P, F>(
    backend: Backend,
    graph: &Graph,
    mk: F,
    config: &ExecutorConfig,
) -> Vec<Outcome<P::Output>>
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
    P::Output: Send,
    F: Fn() -> Vec<P> + Sync,
{
    match backend {
        Backend::Pool(threads) => vec![PooledExecutor::new(threads).run(graph, mk(), config)],
        Backend::Socket => socket_run_both(graph, mk, config).into(),
    }
}

/// Runs the composed pipeline on `backend` and returns every result it
/// assembles, as [`run_backend`] does for raw programs.
fn pipeline_backend(backend: Backend, graph: &Graph, config: &MdsConfig) -> Vec<MdsResult> {
    match backend {
        Backend::Pool(threads) => vec![pipeline::run_on(
            graph,
            config,
            &PooledExecutor::new(threads),
        )],
        Backend::Socket => socket_pipeline_both(graph, config).into(),
    }
}

/// Asserts two reports agree on everything except `payloads`, then pins the
/// payload relation itself: the send twin stores one payload per charged
/// message, the broadcast twin at most that.
fn assert_twins_agree(bcast: &RunReport<usize>, sends: &RunReport<usize>) {
    prop_assert_eq!(&bcast.outputs, &sends.outputs);
    prop_assert_eq!(bcast.rounds, sends.rounds);
    prop_assert_eq!(bcast.messages, sends.messages);
    prop_assert_eq!(bcast.total_bits, sends.total_bits);
    prop_assert_eq!(bcast.max_message_bits, sends.max_message_bits);
    prop_assert_eq!(bcast.bandwidth_violations, sends.bandwidth_violations);
    prop_assert_eq!(bcast.bandwidth_bits, sends.bandwidth_bits);
    prop_assert_eq!(&bcast.round_stats, &sends.round_stats);
    prop_assert_eq!(sends.payloads, sends.messages);
    prop_assert!(bcast.payloads <= sends.payloads);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Raw node programs: every backend's report — on the socket, both
    // endpoints' — is bit-for-bit the sequential one across the graph
    // families and pool widths.
    #[test]
    fn selected_backends_are_bit_identical_to_sequential(
        graph in family_graph_strategy(),
        depth in 1u64..10,
        threads in 1usize..7,
    ) {
        let config = ExecutorConfig::default();
        let seq = SyncExecutor
            .run(&graph, staggered_programs(graph.n(), depth), &config)
            .unwrap();
        for backend in selected_backends(threads) {
            for report in run_backend(
                backend,
                &graph,
                || staggered_programs(graph.n(), depth),
                &config,
            ) {
                prop_assert_eq!(&seq, &report.unwrap(), "backend {:?}", backend);
            }
        }
    }

    // The broadcast program and its per-edge-send twin stay bit-identical
    // modulo `payloads` on every backend: each backend reproduces its own
    // sync reference exactly (payloads included — the socket ships one
    // cross-shard broadcast entry per broadcasting node, not per edge), and
    // the two sync references differ only in stored payloads.
    #[test]
    fn broadcast_and_send_twins_agree_on_selected_backends(
        graph in family_graph_strategy(),
        depth in 1u64..10,
        threads in 1usize..7,
    ) {
        let config = ExecutorConfig::default();
        let bcast = SyncExecutor
            .run(&graph, staggered_programs(graph.n(), depth), &config)
            .unwrap();
        let sends = SyncExecutor
            .run(&graph, sends_programs(graph.n(), depth), &config)
            .unwrap();
        assert_twins_agree(&bcast, &sends);
        for backend in selected_backends(threads) {
            let n = graph.n();
            for b in run_backend(backend, &graph, || staggered_programs(n, depth), &config) {
                prop_assert_eq!(&bcast, &b.unwrap(), "broadcast twin, backend {:?}", backend);
            }
            for s in run_backend(backend, &graph, || sends_programs(n, depth), &config) {
                prop_assert_eq!(&sends, &s.unwrap(), "send twin, backend {:?}", backend);
            }
        }
    }
}

/// The round every [`Offender`] halts in.
const OFFENDER_HALT: u64 = 4;

/// Broadcasts an empty payload every round until [`OFFENDER_HALT`], except
/// that node `node` misbehaves in round `round` (0 = init): it sends to
/// `NodeId(n)`, which is never a neighbor, or, with `fat`, broadcasts 64
/// bytes. An empty payload costs 32 bits, within every budget (at least 32
/// bits); 64 bytes exceed the budget of every graph here.
struct Offender {
    node: usize,
    round: u64,
    fat: bool,
}

impl Offender {
    fn act(&self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, Vec<u8>>) {
        if (ctx.id.0, ctx.round) != (self.node, self.round) {
            outbox.broadcast(Vec::new());
        } else if self.fat {
            outbox.broadcast(vec![0; 64]);
        } else {
            outbox.send(NodeId(ctx.n()), Vec::new());
        }
    }
}

impl NodeProgram for Offender {
    type Message = Vec<u8>;
    type Output = ();

    fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, Vec<u8>>) {
        self.act(ctx, outbox);
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        _: &Inbox<'_, Vec<u8>>,
        outbox: &mut Outbox<'_, Vec<u8>>,
    ) -> RoundAction<()> {
        if ctx.round >= OFFENDER_HALT {
            return RoundAction::Halt(());
        }
        self.act(ctx, outbox);
        RoundAction::Continue
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Every backend returns the sequential executor's first error, whichever
    // block the offender sits in and whichever round it misbehaves in: a
    // send to a non-neighbor under the default configuration, or a message
    // over the budget under strict CONGEST. A fat broadcast from an isolated
    // node sends nothing, so that run alone succeeds, identically everywhere.
    #[test]
    fn selected_backends_return_the_sequential_first_error(
        graph in family_graph_strategy(),
        node in 0usize..64,
        round in 0..OFFENDER_HALT,
        fat in 0usize..2,
        threads in 1usize..7,
    ) {
        let n = graph.n();
        let (node, fat) = (node % n, fat == 1);
        let config = if fat {
            ExecutorConfig::strict_congest()
        } else {
            ExecutorConfig::default()
        };
        let mk = || (0..n).map(|_| Offender { node, round, fat }).collect::<Vec<_>>();
        let seq = SyncExecutor.run(&graph, mk(), &config);
        prop_assert_eq!(seq.is_err(), !fat || graph.degree(NodeId(node)) > 0);
        for backend in selected_backends(threads) {
            for outcome in run_backend(backend, &graph, mk, &config) {
                prop_assert_eq!(&seq, &outcome, "backend {:?}", backend);
            }
        }
    }
}

proptest! {
    // Each case runs full composed pipelines (several engine executions per
    // route), so the case count stays low like the pipeline properties.
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Both pipeline routes: the composed measured pipeline on every backend
    // reproduces the sequential run's dominating set, assignment and
    // complete round ledger.
    #[test]
    fn pipeline_routes_are_bit_identical_across_backends(
        n in 2usize..32,
        p_num in 2u32..30,
        seed in 0u64..500,
        threads in 1usize..6,
    ) {
        let graph = generators::gnp(n, p_num as f64 / 100.0, seed);
        for route in [DerandRoute::NetworkDecomposition, DerandRoute::Coloring] {
            let config = MdsConfig { route, ..MdsConfig::default() };
            let sync = pipeline::run(&graph, &config);
            for backend in selected_backends(threads) {
                for result in pipeline_backend(backend, &graph, &config) {
                    prop_assert_eq!(&result.dominating_set, &sync.dominating_set,
                        "backend {:?}", backend);
                    prop_assert_eq!(&result.assignment, &sync.assignment,
                        "backend {:?}", backend);
                    prop_assert_eq!(&result.ledger, &sync.ledger, "backend {:?}", backend);
                }
            }
            prop_assert!(verify::is_dominating_set(&graph, &sync.dominating_set));
        }
    }
}

proptest! {
    // Every case opens a real TCP session and runs the program across it;
    // keep the count small — the families still rotate across cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Socket smoke over loopback: both OS-level endpoints (threads here;
    // `examples/socket_pipeline.rs --self-spawn` covers real processes)
    // assemble the complete sequential report.
    #[test]
    fn socket_backend_is_bit_identical_to_sequential_over_loopback(
        graph in family_graph_strategy(),
        depth in 1u64..6,
    ) {
        let config = ExecutorConfig::default();
        let seq = SyncExecutor
            .run(&graph, staggered_programs(graph.n(), depth), &config)
            .unwrap();
        for report in socket_run_both(&graph, || staggered_programs(graph.n(), depth), &config) {
            prop_assert_eq!(&seq, &report.unwrap());
        }
    }
}

// The broadcast/send twin equivalence over a real loopback socket: the
// broadcast twin ships one cross-shard broadcast entry per node per round,
// the send twin one entry per edge — both endpoints still assemble reports
// that match their sync references bit for bit, and the two references
// differ only in stored payloads.
#[test]
fn socket_broadcast_and_send_twins_agree_over_loopback() {
    let graph = generators::gnp(30, 0.2, 11);
    let config = ExecutorConfig::default();
    let bcast = SyncExecutor
        .run(&graph, staggered_programs(graph.n(), 4), &config)
        .unwrap();
    let sends = SyncExecutor
        .run(&graph, sends_programs(graph.n(), 4), &config)
        .unwrap();
    assert_eq!(bcast.outputs, sends.outputs);
    assert_eq!(bcast.messages, sends.messages);
    assert_eq!(sends.payloads, sends.messages);
    assert!(bcast.payloads < sends.payloads);
    for report in socket_run_both(&graph, || staggered_programs(graph.n(), 4), &config) {
        assert_eq!(bcast, report.unwrap());
    }
    for report in socket_run_both(&graph, || sends_programs(graph.n(), 4), &config) {
        assert_eq!(sends, report.unwrap());
    }
}

// Mixed inboxes over a real loopback socket: a receiver hears some
// neighbors through the broadcast table (local or shipped by the peer) and
// others through edge slots in the same round. A star's hub feeds both
// shards at once. Both endpoints reproduce the sync report of the mixed
// program and of its all-sends twin, which differ only in `payloads`.
#[test]
fn socket_mixed_inbox_matches_its_all_sends_twin_over_loopback() {
    let config = ExecutorConfig::default();
    for graph in [
        generators::gnp(30, 0.2, 11),
        generators::star(9),
        generators::cycle(7),
    ] {
        let n = graph.n();
        let mixed = SyncExecutor
            .run(&graph, mixed_programs(n, 6, false), &config)
            .unwrap();
        let sends = SyncExecutor
            .run(&graph, mixed_programs(n, 6, true), &config)
            .unwrap();
        assert_twins_agree(&mixed, &sends);
        for report in socket_run_both(&graph, || mixed_programs(n, 6, false), &config) {
            assert_eq!(mixed, report.unwrap(), "n={n}");
        }
        for report in socket_run_both(&graph, || mixed_programs(n, 6, true), &config) {
            assert_eq!(sends, report.unwrap(), "n={n}");
        }
    }
}

// Sleeping over the wire: a sleeper on one endpoint can be woken by a
// broadcast or an edge send from the peer's block. On the pipeline's
// one-shot rounding instance of a unit-disk graph, the distance-two
// coloring and the scheduled derandomization report on both endpoints
// exactly what their insomniac twins report on the sequential executor.
#[test]
fn socket_sleeping_programs_match_their_insomniac_twins() {
    let graph = generators::unit_disk(60, 0.25, 3);
    let config = ExecutorConfig::default();
    let problem = one_shot::on_graph(&graph, &lp::degree_heuristic(&graph));
    let (bipartite, owners, targets) = pipeline::problem_bipartite(&problem);
    let coloring = || {
        distance_two_coloring_programs(&graph, &bipartite, &owners, &targets)
            .unwrap()
            .0
    };
    let reference = SyncExecutor.run(&graph, insomniacs(coloring()), &config);
    assert!(reference.as_ref().unwrap().rounds > 2);
    for outcome in socket_run_both(&graph, coloring, &config) {
        assert_eq!(outcome, reference);
    }
    let schedule = DerandSchedule::conflict_order(&[problem.participating_values()], &problem);
    let derand = || {
        scheduled_derand_programs(&graph, &problem, &schedule, EstimatorKind::default()).unwrap()
    };
    let reference = SyncExecutor.run(&graph, insomniacs(derand()), &config);
    for outcome in socket_run_both(&graph, derand, &config) {
        assert_eq!(outcome, reference);
    }
}

/// Floods its id every round until round 4, except that every node in
/// `nodes` panics in round `round` (0 = `init`).
struct PanicsAt {
    nodes: &'static [usize],
    round: u64,
}

impl PanicsAt {
    fn act(&self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, usize>) {
        if ctx.round == self.round && self.nodes.contains(&ctx.id.0) {
            panic!("node {} fails in round {}", ctx.id, ctx.round);
        }
        outbox.broadcast(ctx.id.0);
    }
}

impl NodeProgram for PanicsAt {
    type Message = usize;
    type Output = ();

    fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, usize>) {
        self.act(ctx, outbox);
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        _: &Inbox<'_, usize>,
        outbox: &mut Outbox<'_, usize>,
    ) -> RoundAction<()> {
        if ctx.round >= 4 {
            return RoundAction::Halt(());
        }
        self.act(ctx, outbox);
        RoundAction::Continue
    }
}

// A panicking program is a typed error, not a hung barrier: the first
// panicking node in node order comes back as `ProgramPanicked` on sync, on
// the pool at every width and on both socket endpoints — in `init`, in a
// later round, and with panics in two blocks of one round.
#[test]
fn a_panicking_program_is_the_same_error_on_every_backend() {
    let graph = generators::path(12);
    let config = ExecutorConfig::default();
    let cases: [(&'static [usize], u64, usize); 4] =
        [(&[0], 0, 0), (&[5], 2, 5), (&[11], 3, 11), (&[9, 2], 1, 2)];
    for (nodes, round, first) in cases {
        let mk = || {
            (0..12)
                .map(|_| PanicsAt { nodes, round })
                .collect::<Vec<_>>()
        };
        let expected: Outcome<()> = Err(ExecutionError::ProgramPanicked {
            node: NodeId(first),
        });
        assert_eq!(SyncExecutor.run(&graph, mk(), &config), expected);
        for threads in [1, 2, 3, 5, 16, 64] {
            let pooled = PooledExecutor::new(threads).run(&graph, mk(), &config);
            assert_eq!(pooled, expected, "nodes={nodes:?} threads={threads}");
        }
        for outcome in socket_run_both(&graph, mk, &config) {
            assert_eq!(outcome, expected, "nodes={nodes:?}");
        }
    }
}

// Both pipeline routes across one persistent socket session: a composed
// pipeline issues one engine run per measured phase, every phase
// re-handshakes over the same connection, and both endpoints finish with the
// sequential run's dominating set and ledger — the Theorem 1.2 acceptance
// path of the transport layer.
#[test]
fn socket_pipeline_routes_match_the_sequential_pipeline() {
    let graph = generators::gnp(24, 0.15, 7);
    let listener = SocketListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let timeout = Duration::from_secs(120);
    thread::scope(|s| {
        let follower = s.spawn(|| {
            let executor = SocketExecutor::connect(addr.to_string()).with_timeout(timeout);
            let t11 = pipeline::theorem_1_1_on(&graph, &MdsConfig::default(), &executor);
            let t12 = pipeline::theorem_1_2_on(&graph, &MdsConfig::default(), &executor);
            (t11, t12)
        });
        let session = listener.accept().unwrap();
        let executor = SocketExecutor::from_session(Role::Leader, session).with_timeout(timeout);
        let leader_t11 = pipeline::theorem_1_1_on(&graph, &MdsConfig::default(), &executor);
        let leader_t12 = pipeline::theorem_1_2_on(&graph, &MdsConfig::default(), &executor);
        let (follower_t11, follower_t12) = follower.join().expect("follower thread");

        let sync_t11 = pipeline::theorem_1_1(&graph, &MdsConfig::default());
        let sync_t12 = pipeline::theorem_1_2(&graph, &MdsConfig::default());
        for (side, sync) in [
            (&leader_t11, &sync_t11),
            (&follower_t11, &sync_t11),
            (&leader_t12, &sync_t12),
            (&follower_t12, &sync_t12),
        ] {
            assert_eq!(side.dominating_set, sync.dominating_set);
            assert_eq!(side.assignment, sync.assignment);
            assert_eq!(side.ledger, sync.ledger);
        }
        assert!(verify::is_dominating_set(&graph, &sync_t12.dominating_set));
    });
}

// Negative path at the integration level: a peer speaking garbage instead of
// the frame protocol surfaces a typed error from the socket backend — never
// a panic.
#[test]
fn socket_malformed_peer_is_a_typed_error_not_a_panic() {
    use std::io::Write;

    let graph = generators::cycle(6);
    let listener = SocketListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::scope(|s| {
        s.spawn(move || {
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.write_all(b"HTTP/1.1 200 OK\r\n\r\nthis is not a frame")
                .unwrap();
        });
        let mut session = listener.accept().unwrap();
        session.set_timeout(Duration::from_secs(30));
        let err = session
            .run_program(
                Role::Leader,
                &graph,
                staggered_programs(6, 3),
                &ExecutorConfig::default(),
            )
            .unwrap_err();
        assert!(
            matches!(err, TransportError::Frame(FrameError::BadMagic(_))),
            "got {err:?}"
        );
    });
}

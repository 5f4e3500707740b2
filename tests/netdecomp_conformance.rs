//! Conformance suite for the measured GK18 network decomposition
//! (Theorem 3.2, substitution R2): the [`NetDecompProgram`] engine execution
//! is property-tested bit-identical to the central
//! `strong_diameter_decomposition` oracle — valid under `verify`, within the
//! `O(log n)` chromatic and `k·O(log n)` diameter bounds, spending exactly
//! `measured_netdecomp_rounds` engine rounds and never more than the
//! Theorem 3.2 paper charge — across the ring / star / unit-disk / gnp / gnm
//! generator sweep, on the sync and pooled executors (plus a loopback-socket
//! smoke), honoring `PARALLEL_THREADS`.
//!
//! [`NetDecompProgram`]: congest_mds::decomposition::netdecomp::NetDecompProgram

#[path = "support/threads.rs"]
mod threads;

use congest_mds::congest::ledger::formulas;
use congest_mds::congest::{
    Executor, ExecutorConfig, Graph, NodeId, PooledExecutor, RunReport, SyncExecutor,
};
use congest_mds::decomposition::netdecomp::{
    assemble_decomposition, carving_schedule, netdecomp_programs, strong_diameter_decomposition,
    DecompositionConfig, NetDecompOutput, NetworkDecomposition,
};
use congest_mds::graphs::generators;
use congest_mds::transport::{Role, SocketExecutor, SocketListener};
use proptest::prelude::*;
use std::thread;
use std::time::Duration;
use threads::forced_threads;

/// Runs the decomposition programs of `graph` on `executor`.
fn run_programs<E: Executor>(graph: &Graph, k: usize, executor: &E) -> RunReport<NetDecompOutput> {
    let (programs, _) = netdecomp_programs(graph, k, &DecompositionConfig::default());
    executor
        .run(graph, programs, &ExecutorConfig::default())
        .expect("engine run failed")
}

/// The generator sweep named by the issue: ring, star, unit-disk, G(n,p) and
/// G(n,m) topologies.
fn sweep_graph(which: u8, size: usize, seed: u64) -> Graph {
    match which % 5 {
        0 => generators::cycle(size.max(3)),
        1 => generators::star(size.max(2)),
        2 => generators::unit_disk(size.max(4), 0.3, seed),
        3 => generators::gnp(size.max(2), 0.12, seed),
        _ => generators::gnm(size.max(2), size * 2, seed),
    }
}

/// Validity of the decomposition object itself: Definition 3.1/3.2
/// invariants plus the carving's `O(log n)` quality parameters and full
/// coverage.
fn assert_decomposition_quality(graph: &Graph, nd: &NetworkDecomposition, k: usize) {
    nd.verify(graph).expect("decomposition invalid");
    let clustered: usize = nd.clusters.clusters.iter().map(|c| c.len()).sum();
    assert_eq!(clustered, graph.n(), "every node must be clustered");
    let log_n = (graph.n().max(2) as f64).log2();
    assert!(
        nd.num_colors() as f64 <= 2.0 * log_n + 1.0,
        "{} colors exceed the O(log n) chromatic bound for n = {}",
        nd.num_colors(),
        graph.n()
    );
    assert!(
        nd.diameter() as f64 <= k as f64 * (log_n + 1.0),
        "diameter {} exceeds the k·O(log n) bound for k = {k}, n = {}",
        nd.diameter(),
        graph.n()
    );
}

/// Runs the full conformance check for one instance (the vendored proptest
/// shim is panic-based, so failures assert directly).
fn assert_conformance(graph: &Graph, k: usize, threads: usize) {
    let config = DecompositionConfig::default();
    let oracle = strong_diameter_decomposition(graph, k, &config);
    assert_decomposition_quality(graph, &oracle, k);

    let sync = run_programs(graph, k, &SyncExecutor);
    let schedule = carving_schedule(graph, k, &config);
    let measured = assemble_decomposition(&sync.outputs, &schedule);

    // Bit-identical clusters and colors (the ledgers differ by design: the
    // engine's carries measured payload counts).
    assert_eq!(measured.clusters, oracle.clusters);
    assert_eq!(measured.k, oracle.k);
    assert_decomposition_quality(graph, &measured, k);

    // Exactly the carving schedule's wave rounds, at most the Theorem 3.2
    // paper charge; every node broadcasts its join once (2m messages, one
    // stored payload per non-isolated node via the broadcast fast path).
    assert_eq!(sync.rounds, schedule.wave_rounds());
    assert_eq!(
        sync.rounds,
        formulas::measured_netdecomp_rounds(
            schedule.num_phases as u64,
            schedule.total_wave_depth()
        )
    );
    let charge = formulas::netdecomp_charge_rounds(graph.n(), k);
    assert!(
        sync.rounds <= charge,
        "measured {} rounds exceed the Theorem 3.2 charge {charge}",
        sync.rounds
    );
    assert_eq!(sync.messages, 2 * graph.m() as u64);
    let isolated = (0..graph.n())
        .filter(|&v| graph.degree(NodeId(v)) == 0)
        .count();
    assert_eq!(sync.payloads, (graph.n() - isolated) as u64);

    // The worker pool reproduces the sequential report — and hence the
    // oracle's clusters — bit for bit.
    let pooled = run_programs(graph, k, &PooledExecutor::new(threads));
    assert_eq!(pooled, sync);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The headline conformance property over the generator sweep, the
    // separation parameters the paper uses (k = 2) and beyond.
    #[test]
    fn netdecomp_program_conforms_across_the_sweep(
        which in 0u8..5,
        size in 3usize..44,
        seed in 0u64..500,
        k in 1usize..4,
        threads in 2usize..6,
    ) {
        let graph = sweep_graph(which, size, seed);
        assert_conformance(&graph, k, forced_threads(threads));
    }

    // The carving schedule is a pure function of IDs and topology: centers
    // are the minimum member identifiers of their clusters, phases tile the
    // round timeline, and every cluster's color is its members' phase.
    #[test]
    fn carving_schedule_is_consistent_with_its_clusters(
        which in 0u8..5,
        size in 3usize..44,
        seed in 0u64..500,
        k in 1usize..4,
    ) {
        let graph = sweep_graph(which, size, seed);
        let config = DecompositionConfig::default();
        let schedule = carving_schedule(&graph, k, &config);
        let nd = strong_diameter_decomposition(&graph, k, &config);
        let mut next = 0usize;
        for p in 0..schedule.num_phases {
            prop_assert_eq!(schedule.phase_start[p], next);
            next += schedule.wave_depth[p] + 1;
        }
        prop_assert_eq!(schedule.total_rounds, next);
        for (ci, cluster) in nd.clusters.clusters.iter().enumerate() {
            prop_assert_eq!(cluster.leader, *cluster.members.iter().min().unwrap());
            prop_assert!(schedule.center[cluster.leader.0]);
            for &v in &cluster.members {
                prop_assert_eq!(schedule.phase[v.0], nd.clusters.colors[ci]);
            }
        }
    }
}

/// The socket smoke of the conformance suite: the decomposition programs
/// run across a real loopback TCP session, and both OS-level endpoints
/// assemble the sequential report — and hence the oracle's clusters — bit
/// for bit.
#[test]
fn netdecomp_program_over_loopback_socket_matches_the_oracle() {
    let graph = generators::gnp(36, 0.12, 19);
    let k = 2;
    let config = DecompositionConfig::default();
    let oracle = strong_diameter_decomposition(&graph, k, &config);
    let sync = run_programs(&graph, k, &SyncExecutor);

    let listener = SocketListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let timeout = Duration::from_secs(120);
    let (leader, follower) = thread::scope(|s| {
        let follower = s.spawn(|| {
            let executor = SocketExecutor::connect(addr.to_string()).with_timeout(timeout);
            run_programs(&graph, k, &executor)
        });
        let session = listener.accept().unwrap();
        let executor = SocketExecutor::from_session(Role::Leader, session).with_timeout(timeout);
        let leader = run_programs(&graph, k, &executor);
        (leader, follower.join().expect("follower thread"))
    });
    assert_eq!(leader, sync);
    assert_eq!(follower, sync);
    let schedule = carving_schedule(&graph, k, &config);
    let assembled = assemble_decomposition(&leader.outputs, &schedule);
    assert_eq!(assembled.clusters, oracle.clusters);
}

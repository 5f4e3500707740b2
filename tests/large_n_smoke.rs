//! Large-`n` smoke tests: the full measured pipeline at scales the ordinary
//! proptests never reach (`10⁴`–`10⁵` nodes).
//!
//! All tests are `#[ignore]`d — they take seconds to minutes in release mode
//! and are not part of the tier-1 suite. The CI `perf-trend` job runs them
//! explicitly on the multicore runner:
//!
//! ```console
//! $ PARALLEL_THREADS=4 cargo test --release --test large_n_smoke -- --ignored
//! ```
//!
//! What they pin down, beyond the small-graph proptests:
//!
//! * the engine run stays **bit-identical to the central oracle** when the
//!   message arena holds hundreds of millions of slots and the worker pool
//!   actually splits nodes across blocks;
//! * every measured phase stays **at or below its paper charge** at scale;
//! * the pool commits in node order regardless of thread count.

#[path = "support/threads.rs"]
mod threads;

use congest_mds::congest::{PhaseMode, PooledExecutor};
use congest_mds::graphs::generators;
use congest_mds::mds::pipeline::{self, DerandRoute, MdsConfig};
use congest_mds::mds::verify;
use threads::forced_threads;

/// Shared assertion block: engine (sync + pool) vs central oracle,
/// feasibility, and the measured-rounds-versus-charges gate.
fn assert_engine_matches_oracle_at_scale(
    graph: &congest_mds::congest::Graph,
    config: &MdsConfig,
    label: &str,
) {
    let oracle = pipeline::central_oracle(graph, config);
    let sync = pipeline::run(graph, config);
    let pooled = pipeline::run_on(graph, config, &PooledExecutor::new(forced_threads(4)));

    assert!(
        verify::is_dominating_set(graph, &sync.dominating_set),
        "{label}: engine output is not dominating"
    );
    assert_eq!(
        sync.dominating_set, oracle.dominating_set,
        "{label}: sync engine diverged from the central oracle"
    );
    assert_eq!(
        sync.assignment, oracle.assignment,
        "{label}: sync engine assignment diverged"
    );
    assert_eq!(
        pooled.dominating_set, oracle.dominating_set,
        "{label}: pooled engine diverged from the central oracle"
    );
    assert_eq!(
        pooled.ledger, sync.ledger,
        "{label}: pooled ledger diverged from sync"
    );
    assert!(
        sync.measured_engine_rounds() > 0,
        "{label}: nothing was measured on the engine"
    );
    assert!(
        sync.measured_engine_rounds() <= sync.ledger.total_formula_rounds(),
        "{label}: measured rounds {} exceed the summed paper charges {}",
        sync.measured_engine_rounds(),
        sync.ledger.total_formula_rounds()
    );
    let measured = sync.ledger.phases().iter();
    for phase in measured.filter(|p| p.mode == PhaseMode::Measured) {
        assert!(
            phase.simulated_rounds > 0 || phase.messages == 0,
            "{label}: measured phase {:?} spent messages in zero rounds",
            phase.name
        );
    }
}

#[test]
#[ignore = "large-n smoke: run explicitly with --ignored (seconds-to-minutes in release)"]
fn full_pipeline_at_ten_thousand_nodes_on_a_ring() {
    let graph = generators::cycle(10_000);
    let config = MdsConfig {
        route: DerandRoute::Coloring,
        ..MdsConfig::default()
    };
    assert_engine_matches_oracle_at_scale(&graph, &config, "ring n=10^4");
}

#[test]
#[ignore = "large-n smoke: run explicitly with --ignored (seconds-to-minutes in release)"]
fn full_pipeline_at_ten_thousand_nodes_on_gnp() {
    let graph = generators::gnp(10_000, 8.0 / 10_000.0, 3);
    let config = MdsConfig {
        route: DerandRoute::Coloring,
        ..MdsConfig::default()
    };
    assert_engine_matches_oracle_at_scale(&graph, &config, "gnp n=10^4");
}

#[test]
#[ignore = "large-n smoke: minutes in release; the CI perf-trend job runs it explicitly"]
fn theorem_1_2_at_one_million_nodes_matches_the_oracle() {
    // The instance of the benchmark sweep's n = 10⁶ `pooled4` row. The
    // sequential reference would double the wall budget, so this smoke pins
    // the scale executor directly against the central oracle: same
    // dominating set, same assignment, feasible, and the broadcast fast
    // path's stored payloads strictly below the charged messages.
    let graph = generators::gnm(1_000_000, 4_000_000, 3);
    let config = MdsConfig {
        route: DerandRoute::Coloring,
        ..MdsConfig::default()
    };
    let oracle = pipeline::central_oracle(&graph, &config);
    let pooled = pipeline::theorem_1_2_on(&graph, &config, &PooledExecutor::new(forced_threads(4)));
    assert!(
        verify::is_dominating_set(&graph, &pooled.dominating_set),
        "gnm n=10^6: pooled output is not dominating"
    );
    assert_eq!(
        pooled.dominating_set, oracle.dominating_set,
        "gnm n=10^6: pooled executor diverged from the central oracle"
    );
    assert_eq!(
        pooled.assignment, oracle.assignment,
        "gnm n=10^6: pooled assignment diverged"
    );
    assert!(
        pooled.ledger.total_payloads() < pooled.ledger.total_messages(),
        "gnm n=10^6: broadcast fast path stored {} payloads vs {} charged messages",
        pooled.ledger.total_payloads(),
        pooled.ledger.total_messages()
    );
}

#[test]
#[ignore = "large-n smoke: run explicitly with --ignored (seconds-to-minutes in release)"]
fn theorem_1_2_at_one_hundred_thousand_nodes_matches_the_oracle() {
    // The same instance the benchmark sweep and `BENCH_baseline.json` use at
    // this size, so a green run here certifies the baseline numbers were
    // produced by an oracle-faithful pipeline.
    let graph = generators::gnm(100_000, 400_000, 3);
    let config = MdsConfig {
        route: DerandRoute::Coloring,
        ..MdsConfig::default()
    };
    assert_engine_matches_oracle_at_scale(&graph, &config, "gnm n=10^5");
}

#[test]
#[ignore = "large-n smoke: run explicitly with --ignored (seconds-to-minutes in release)"]
fn theorem_1_1_at_one_hundred_thousand_nodes_matches_the_oracle() {
    // The baseline's Theorem 1.1 row at this size: the conflict-order
    // Lemma 3.4 schedule fixes the coins of the sequential cluster order.
    let graph = generators::gnm(100_000, 400_000, 3);
    let config = MdsConfig {
        route: DerandRoute::NetworkDecomposition,
        ..MdsConfig::default()
    };
    assert_engine_matches_oracle_at_scale(&graph, &config, "gnm n=10^5, Theorem 1.1");
}

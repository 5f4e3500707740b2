//! Criterion benches for the execution engine: rounds/sec of the sequential
//! executor and the worker pool on ring, star and random geometric
//! topologies at n ∈ {10³, 10⁴, 10⁵}.
//!
//! The workload is a fixed-depth min-identifier flood — the engine-bound
//! regime where mailbox management, not program logic, dominates. Both
//! executors produce bit-identical reports; only wall-clock differs.

use congest_sim::{
    Executor, ExecutorConfig, Graph, Inbox, NodeContext, NodeId, NodeProgram, Outbox,
    PooledExecutor, RoundAction, SyncExecutor,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mds_graphs::generators;
use std::time::Duration;

const FLOOD_ROUNDS: u64 = 8;

struct MinFlood {
    best: usize,
}

impl NodeProgram for MinFlood {
    type Message = NodeId;
    type Output = usize;

    fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, NodeId>) {
        self.best = ctx.id.0;
        outbox.broadcast(NodeId(self.best));
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, NodeId>,
        outbox: &mut Outbox<'_, NodeId>,
    ) -> RoundAction<usize> {
        for (_, m) in inbox.iter() {
            self.best = self.best.min(m.0);
        }
        if ctx.round >= FLOOD_ROUNDS {
            RoundAction::Halt(self.best)
        } else {
            outbox.broadcast(NodeId(self.best));
            RoundAction::Continue
        }
    }
}

fn programs(n: usize) -> Vec<MinFlood> {
    (0..n).map(|_| MinFlood { best: usize::MAX }).collect()
}

/// Radius giving an expected average degree of ~8 on the unit square.
fn geometric_radius(n: usize) -> f64 {
    (8.0 / (std::f64::consts::PI * n as f64)).sqrt()
}

fn topologies(n: usize) -> Vec<(&'static str, Graph)> {
    vec![
        ("ring", generators::cycle(n)),
        ("star", generators::star(n)),
        (
            "geometric",
            generators::unit_disk(n, geometric_radius(n), 7),
        ),
    ]
}

fn bench_executors(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_rounds");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let config = ExecutorConfig {
        record_round_stats: false,
        ..ExecutorConfig::default()
    };
    let pool = PooledExecutor::new(std::thread::available_parallelism().map_or(1, |c| c.get()));
    for &n in &[1_000usize, 10_000, 100_000] {
        for (name, graph) in topologies(n) {
            group.bench_with_input(
                BenchmarkId::new(format!("sync/{name}"), n),
                &graph,
                |b, g| {
                    b.iter(|| SyncExecutor.run(g, programs(g.n()), &config).unwrap());
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("pool{}/{name}", pool.threads()), n),
                &graph,
                |b, g| {
                    b.iter(|| pool.run(g, programs(g.n()), &config).unwrap());
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);

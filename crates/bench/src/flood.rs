//! Raw-executor throughput sweep: a deliberately trivial flooding program so
//! the measurement is dominated by the engine's round loop (arena swap,
//! commit, inbox construction) rather than by per-node compute.
//!
//! `experiments --executor-sweep` drives this up to `n = 10⁶` on four
//! topologies (cycles, sparse `G(n, 2n)`, stars and random geometric graphs)
//! and prints a wall-time table over the in-process executors:
//! sequential, and the persistent worker pool at `T` threads — the
//! pool-`T`-vs-sync speedup column decides whether the pool earns its place.
//! The run also doubles as a scale test of the bit-identity contract, since
//! every pool report is asserted equal to the sequential one at every size.

use congest_sim::{
    Executor, ExecutorConfig, Inbox, NodeContext, NodeProgram, Outbox, PooledExecutor, RoundAction,
    SyncExecutor,
};
use mds_graphs::generators;

/// Rounds every flood run executes — enough to propagate labels a useful
/// distance while keeping the largest sweep size affordable in CI.
pub const FLOOD_ROUNDS: u64 = 16;

/// Minimum-label flooding: every node repeatedly broadcasts the smallest id
/// it has heard of and halts after [`FLOOD_ROUNDS`] rounds. Every node
/// broadcasts every round, so the per-round charged message volume is
/// exactly `2m`, stored as `n` broadcast payloads that every inbox gathers.
#[derive(Debug, Clone)]
pub struct FloodMin {
    label: u32,
}

impl FloodMin {
    /// Program instances for an `n`-node graph (node `v` starts with label
    /// `v`).
    pub fn programs(n: usize) -> Vec<FloodMin> {
        (0..n).map(|v| FloodMin { label: v as u32 }).collect()
    }
}

impl NodeProgram for FloodMin {
    type Message = u32;
    type Output = u32;

    fn init(&mut self, _ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u32>) {
        outbox.broadcast(self.label);
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, u32>,
        outbox: &mut Outbox<'_, u32>,
    ) -> RoundAction<u32> {
        for (_, &m) in inbox.iter() {
            self.label = self.label.min(m);
        }
        if ctx.round >= FLOOD_ROUNDS {
            return RoundAction::Halt(self.label);
        }
        outbox.broadcast(self.label);
        RoundAction::Continue
    }
}

/// The thread count the multi-threaded sweep columns use: the
/// `PARALLEL_THREADS` environment variable when set (CI pins it for
/// reproducible tables), the detected core count otherwise.
fn sweep_threads() -> usize {
    std::env::var("PARALLEL_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
        .max(1)
}

/// Radius giving a unit-disk graph on `n` nodes an expected average degree
/// of about 8 on the unit square.
fn geometric_radius(n: usize) -> f64 {
    (8.0 / (std::f64::consts::PI * n as f64)).sqrt()
}

/// Runs the flood program on cycles, sparse `G(n, 2n)` instances, stars
/// (one hub whose inbox holds every other node) and unit-disk graphs of
/// average degree about 8 at decade sizes up to `max_n` (a single miniature
/// size when `max_n` is below the first decade, so tests still exercise the
/// cross-executor assertion), on the sequential executor and the persistent
/// pool at `T` threads, and returns a Markdown table of wall times and the
/// speedup. `T` follows `PARALLEL_THREADS` (else the core count).
///
/// # Panics
///
/// Panics if the pool's report diverges from the sequential one — the
/// sweep is also a large-`n` regression test of the engine's determinism
/// contract.
pub fn executor_sweep_markdown(max_n: usize) -> String {
    let threads = sweep_threads();
    let pool_t = PooledExecutor::new(threads);
    let mut out = format!(
        "## Executor sweep — flood program, {FLOOD_ROUNDS} rounds, T = {threads} threads\n\n",
    );
    out.push_str(&format!(
        "| graph | n | m | messages | sync (ms) | pool×{threads} (ms) | pool×{threads} vs sync |\n\
         | --- | --- | --- | --- | --- | --- | --- |\n",
    ));
    let mut n = 10_000usize;
    let mut sizes = Vec::new();
    while n <= max_n {
        sizes.push(n);
        n = n.saturating_mul(10);
    }
    if sizes.is_empty() {
        // Miniature mode for tests: one small size keeps the bit-identity
        // assertions live without the 10⁴-node warm-up cost.
        sizes.push(512);
    }
    for &n in &sizes {
        for (label, g) in [
            ("cycle", generators::cycle(n)),
            ("gnm_2n", generators::gnm(n, 2 * n, 3)),
            ("star", generators::star(n)),
            (
                "geometric",
                generators::unit_disk(n, geometric_radius(n), 7),
            ),
        ] {
            let config = ExecutorConfig::default();
            // Warm the per-graph routing table up front so every executor
            // column measures the round loop, not the one-off setup.
            g.warm_topology();
            let time = |run: &dyn Fn() -> congest_sim::RunReport<u32>| {
                let started = std::time::Instant::now();
                let report = run();
                (started.elapsed().as_secs_f64() * 1e3, report)
            };
            let (sync_ms, seq) = time(&|| {
                SyncExecutor
                    .run(&g, FloodMin::programs(n), &config)
                    .expect("flood program is well-formed")
            });
            let (pool_t_ms, pool_t_report) = time(&|| {
                pool_t
                    .run(&g, FloodMin::programs(n), &config)
                    .expect("flood program is well-formed")
            });
            assert_eq!(
                seq, pool_t_report,
                "pool×T diverged from the sequential run at n = {n} on {label}"
            );
            out.push_str(&format!(
                "| {label} | {n} | {} | {} | {sync_ms:.1} | {pool_t_ms:.1} | {:.2}× |\n",
                g.m(),
                seq.messages,
                sync_ms / pool_t_ms.max(f64::EPSILON),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_converges_to_the_minimum_label_within_reach() {
        let g = generators::cycle(12);
        let run = SyncExecutor
            .run(&g, FloodMin::programs(12), &ExecutorConfig::default())
            .expect("flood runs");
        // 16 rounds cover a 12-cycle completely: everyone learns label 0.
        assert!(run.outputs.iter().all(|&o| o == 0));
        assert_eq!(run.rounds, FLOOD_ROUNDS);
    }

    #[test]
    fn sweep_table_renders_and_executors_agree() {
        // A miniature sweep (the real one starts at 10⁴) runs one small size,
        // exercising the pool-vs-sync bit-identity assertion inside.
        let table = executor_sweep_markdown(0);
        assert!(table.contains("| graph |"));
        assert!(table.contains("vs sync"));
        for label in ["cycle", "gnm_2n", "star", "geometric"] {
            assert!(table.contains(&format!("| {label} | 512 |")), "{label}");
        }
    }
}

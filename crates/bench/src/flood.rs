//! Raw-executor throughput sweep: a deliberately trivial flooding program so
//! the measurement is dominated by the engine's round loop (arena swap,
//! commit, inbox construction) rather than by per-node compute.
//!
//! `experiments --executor-sweep` drives this up to `n = 10⁶` on four
//! topologies (cycles, sparse `G(n, 2n)`, stars and random geometric graphs)
//! and prints a wall-time table over the in-process executors:
//! sequential, and the persistent worker pool at `T` threads — the
//! pool-`T`-vs-sync speedup column decides whether the pool earns its place.
//! Two extra rows run [`WaveMin`], the same flood with sleeping nodes, on
//! `G(n, 2n)` and the geometric graphs: most of its node-rounds are skipped,
//! so its per-node-round column is the engine's sparse-round cost. The run
//! also doubles as a scale test of the bit-identity contract, since every
//! pool report is asserted equal to the sequential one at every size, and
//! every wave run's outputs equal the flood's.

use congest_sim::{
    Executor, ExecutorConfig, Graph, Inbox, NodeContext, NodeProgram, Outbox, PooledExecutor,
    RoundAction, RunReport, SyncExecutor,
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

/// Minimum-label flooding with sleeping nodes: a node rebroadcasts only in
/// a round its label improved, and otherwise sleeps until mail arrives or
/// round [`FLOOD_ROUNDS`]. Every label a neighbor holds was broadcast the
/// round it was set, so after round `r` each node still holds the minimum
/// over its `r`-hop ball, and the outputs equal [`FloodMin`]'s; only the
/// message count shrinks, along with the nodes that run each round.
#[derive(Debug, Clone)]
pub struct WaveMin {
    label: u32,
}

impl WaveMin {
    /// Program instances for an `n`-node graph (node `v` starts with label
    /// `v`).
    pub fn programs(n: usize) -> Vec<WaveMin> {
        (0..n).map(|v| WaveMin { label: v as u32 }).collect()
    }
}

impl NodeProgram for WaveMin {
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
        let heard = inbox
            .iter_or(&u32::MAX)
            .fold(u32::MAX, |heard, &m| heard.min(m));
        if ctx.round >= FLOOD_ROUNDS {
            return RoundAction::Halt(self.label.min(heard));
        }
        if heard < self.label {
            self.label = heard;
            outbox.broadcast(self.label);
        }
        RoundAction::SleepUntil(FLOOD_ROUNDS)
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

/// Runs `programs` on the sequential executor and on `pool`, asserts the
/// two reports equal, and returns both wall times (ms) and the report.
fn timed_pair<P>(
    g: &Graph,
    programs: impl Fn() -> Vec<P>,
    pool: &PooledExecutor,
    what: &str,
) -> (f64, f64, RunReport<u32>)
where
    P: NodeProgram<Output = u32> + Send,
    P::Message: Send + Sync,
{
    let config = ExecutorConfig::default();
    let time = |executor: &dyn Fn() -> RunReport<u32>| {
        let started = std::time::Instant::now();
        let report = executor();
        (started.elapsed().as_secs_f64() * 1e3, report)
    };
    let run = |report: Result<RunReport<u32>, _>| report.expect("flood program is well-formed");
    let (sync_ms, seq) = time(&|| run(SyncExecutor.run(g, programs(), &config)));
    let (pool_ms, pooled) = time(&|| run(pool.run(g, programs(), &config)));
    assert_eq!(
        seq, pooled,
        "pool×T diverged from the sequential run: {what}"
    );
    (sync_ms, pool_ms, seq)
}

/// Runs the flood program on cycles, sparse `G(n, 2n)` instances, stars
/// (one hub whose inbox holds every other node) and unit-disk graphs of
/// average degree about 8, and [`WaveMin`] on the `G(n, 2n)` and unit-disk
/// graphs, at decade sizes up to `max_n` (a single miniature size when
/// `max_n` is below the first decade, so tests still exercise the
/// cross-executor assertion), on the sequential executor and the persistent
/// pool at `T` threads. Returns a Markdown table of wall times, the
/// sequential cost per node-round (`n` × rounds, skipped ones included) and
/// the speedup. `T` follows `PARALLEL_THREADS` (else the core count).
///
/// # Panics
///
/// Panics if the pool's report diverges from the sequential one, or a wave
/// run's outputs from the flood's — the sweep is also a large-`n`
/// regression test of the engine's determinism and wake rule.
pub fn executor_sweep_markdown(max_n: usize) -> String {
    let threads = sweep_threads();
    let pool_t = PooledExecutor::new(threads);
    let mut out = format!(
        "## Executor sweep — flood program, {FLOOD_ROUNDS} rounds, T = {threads} threads\n\n",
    );
    out.push_str(&format!(
        "| graph | program | n | m | messages | sync (ms) | sync ns/node-round | pool×{threads} (ms) | pool×{threads} vs sync |\n\
         | --- | --- | --- | --- | --- | --- | --- | --- | --- |\n",
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
        for (label, g, wave) in [
            ("cycle", generators::cycle(n), false),
            ("gnm_2n", generators::gnm(n, 2 * n, 3), true),
            ("star", generators::star(n), false),
            (
                "geometric",
                generators::unit_disk(n, geometric_radius(n), 7),
                true,
            ),
        ] {
            // Warm the per-graph routing table up front so every executor
            // column measures the round loop, not the one-off setup.
            g.warm_topology();
            let mut row =
                |program: &str, (sync_ms, pool_ms, report): (f64, f64, RunReport<u32>)| {
                    let node_rounds = (n as u64 * report.rounds).max(1) as f64;
                    out.push_str(&format!(
                    "| {label} | {program} | {n} | {} | {} | {sync_ms:.1} | {:.1} | {pool_ms:.1} | {:.2}× |\n",
                    g.m(),
                    report.messages,
                    sync_ms * 1e6 / node_rounds,
                    sync_ms / pool_ms.max(f64::EPSILON),
                ));
                    report.outputs
                };
            let what = format!("n = {n} on {label}");
            let flood = row(
                "flood",
                timed_pair(&g, || FloodMin::programs(n), &pool_t, &what),
            );
            if wave {
                let waved = row(
                    "wave",
                    timed_pair(&g, || WaveMin::programs(n), &pool_t, &what),
                );
                assert_eq!(waved, flood, "wave outputs diverged from the flood: {what}");
            }
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
    fn wave_outputs_equal_the_flood_with_fewer_messages() {
        for g in [generators::cycle(40), generators::gnm(300, 600, 5)] {
            let config = ExecutorConfig::default();
            let flood = SyncExecutor
                .run(&g, FloodMin::programs(g.n()), &config)
                .expect("flood runs");
            let wave = SyncExecutor
                .run(&g, WaveMin::programs(g.n()), &config)
                .expect("wave runs");
            assert_eq!(wave.outputs, flood.outputs);
            assert_eq!(wave.rounds, FLOOD_ROUNDS);
            assert!(wave.messages < flood.messages);
        }
    }

    #[test]
    fn sweep_table_renders_and_executors_agree() {
        // A miniature sweep (the real one starts at 10⁴) runs one small size,
        // exercising the pool-vs-sync bit-identity assertion and the
        // wave-vs-flood output assertion inside.
        let table = executor_sweep_markdown(0);
        assert!(table.contains("| graph | program |"));
        assert!(table.contains("vs sync"));
        for label in ["cycle", "gnm_2n", "star", "geometric"] {
            assert!(
                table.contains(&format!("| {label} | flood | 512 |")),
                "{label}"
            );
        }
        for label in ["gnm_2n", "geometric"] {
            assert!(
                table.contains(&format!("| {label} | wave | 512 |")),
                "{label}"
            );
        }
        assert_eq!(table.matches(" | wave | ").count(), 2);
    }
}

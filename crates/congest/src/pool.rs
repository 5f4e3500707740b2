//! The persistent worker-pool executor: threads spawned once per run, a
//! reusable barrier instead of per-round thread churn, and the round
//! kernel's pass split across workers — all bit-identical to
//! [`SyncExecutor`].
//!
//! # Why a pool
//!
//! A run takes rounds in the thousands (the measured Theorem 1.2 pipeline
//! runs ~1.3k engine rounds at `n = 10⁵`), so spawning threads per round,
//! or committing every outbox on one thread, would eat any parallel gain.
//! [`PooledExecutor`] spawns its workers once per [`Executor::run`], keeps
//! them in lockstep with one reusable [`Barrier`] (two waits per round), and
//! lets every worker run the engine's round kernel on its own contiguous
//! [`NodeBlock`]. Whether that beats [`SyncExecutor`] on a given host and
//! graph is an open measurement; the report is the same either way.
//!
//! # Round protocol
//!
//! Worker 0 is the calling thread; it also holds the run's [`RoundFold`].
//! Each worker owns one node block and the contiguous receiver-side chunk
//! of the message arena covering its nodes' CSR ranges; a destination slot's
//! receiver block is the last block whose chunk starts at or before it. One
//! round proceeds as:
//!
//! 1. **wake, then pass** — if its block has sleepers, each worker first
//!    wakes the ones the last delivery sent mail to: the owners of the
//!    occupied slots of its own chunk, and its nodes among the neighbors of
//!    every broadcaster on the broadcaster lists published next to the
//!    shared table. It then runs its block's pass against its chunk and the
//!    shared broadcast table. The pass's sink routes each `(slot, msg)` into
//!    a per-destination-block batch and keeps each broadcast as one
//!    `(sender, payload)` entry. Batches are handed over through one
//!    mutex-protected transfer cell per (sender-block, receiver-block) pair
//!    via `mem::swap` — no steady-state allocation, and each cell is touched
//!    by exactly one sender and one receiver per round, so the locks never
//!    contend. Finally the worker publishes its block's [`BlockRound`].
//! 2. **barrier A.**
//! 3. **deliver / fold** — each worker sparse-clears the slots of its arena
//!    chunk written last round and drains its incoming transfer cells into
//!    the chunk (last write per slot wins, in sender order). It then stores
//!    its own nodes' broadcasts in the run's one sender-indexed broadcast
//!    table, after clearing the entries it stored last round, and publishes
//!    their senders as its broadcaster list. Concurrently worker 0 folds the
//!    published sub-totals in block order and stores the verdict in the
//!    stop flag.
//! 4. **barrier B** — after which every worker reads the stop flag and
//!    either loops or exits.
//!
//! # Why the report is bit-identical to [`SyncExecutor`]
//!
//! The pass, the wake rule and the fold are the engine's round kernel, so
//! the argument is the kernel's (see the [engine docs](crate::engine)); what
//! the pool adds is delivery. The mirror table is a bijection between
//! directed-edge slots, so distinct senders write **disjoint** arena slots,
//! and all slots of one receiver block land in that block's chunk: routing
//! touches only the sender's private batch and delivery only the receiver's
//! own chunk, which is why the scheme works under `#![forbid(unsafe_code)]`.
//! All messages for one slot come from one sender, in its send order, so the
//! last write is the sequential engine's. Only a node's own worker writes
//! its broadcast table entry and its broadcaster list, and only between the
//! barriers; the wake step and inboxes read them only before barrier A, so
//! the table needs no second buffer and its write lock only orders the
//! workers' disjoint stores. A worker wakes from the same units the
//! sequential engine's arena holds, so it wakes the same nodes.
//!
//! A panicking program does not break the lockstep: the pass catches the
//! unwind and reports [`ExecutionError::ProgramPanicked`] as its block's
//! error, so the worker still publishes, reaches both barriers, and the
//! fold ends the run with the first error in node order.
//!
//! [`SyncExecutor`]: crate::engine::SyncExecutor

use crate::engine::{
    merged_inbox, run_engine, BlockRound, Committed, ExecutionError, Executor, ExecutorConfig,
    NodeBlock, RoundFold, RunReport, Verdict,
};
use crate::program::{Inbox, NodeProgram};
use crate::{Graph, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, RwLock};
use std::thread;

/// A batch of committed `(destination slot, message)` pairs routed to one
/// receiver block, in sender order.
type RoutedBatch<M> = Vec<(usize, M)>;

/// The persistent worker-pool executor. See the [module docs](self) for the
/// protocol and the determinism argument.
///
/// Like every [`Executor`], it produces [`RunReport`]s bit-identical to
/// [`SyncExecutor`](crate::engine::SyncExecutor) for any thread count — the
/// choice is purely wall-clock.
#[derive(Debug, Clone)]
pub struct PooledExecutor {
    threads: usize,
}

impl PooledExecutor {
    /// Creates an executor using up to `threads` workers (at least one): one
    /// per node when the graph has fewer nodes than that. With one worker
    /// the run degenerates to the sequential engine — same report, no pool.
    pub fn new(threads: usize) -> Self {
        PooledExecutor {
            threads: threads.max(1),
        }
    }

    /// The configured number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Executor for PooledExecutor {
    fn run<P>(
        &self,
        graph: &Graph,
        programs: Vec<P>,
        config: &ExecutorConfig,
    ) -> Result<RunReport<P::Output>, ExecutionError>
    where
        P: NodeProgram + Send,
        P::Message: Send + Sync,
        P::Output: Send,
    {
        // At most one worker per node. A width of one means there is nothing
        // to split — run sequentially.
        let width = graph.n().clamp(1, self.threads);
        if width <= 1 {
            return run_engine(graph, programs, config);
        }
        run_engine_pooled(graph, programs, config, width)
    }
}

/// State shared (read-only or synchronized) by all workers of one run.
struct PoolShared<'g, M> {
    graph: &'g Graph,
    /// Number of worker blocks.
    width: usize,
    /// `first_slots[w]` is the first arena slot of block `w`'s chunk
    /// (`width` entries, nondecreasing). A block of isolated nodes has an
    /// empty chunk that starts where the next one does.
    first_slots: Vec<usize>,
    /// One reusable barrier, waited on twice per round (A and B).
    barrier: Barrier,
    /// `width × width` transfer cells; `xfer[from * width + to]` carries the
    /// batch sender block `from` committed for receiver block `to`. Each
    /// cell is written by one worker and drained by one worker per round.
    xfer: Vec<Mutex<RoutedBatch<M>>>,
    /// The broadcast table and the broadcaster lists: read by every worker
    /// before barrier A, written by each worker for its own nodes during
    /// delivery.
    table: RwLock<Table<M>>,
    /// Per-worker published [`BlockRound`] sub-totals.
    published: Vec<Mutex<BlockRound>>,
    /// Worker 0's verdict, written between barriers A and B and read by
    /// workers only after B.
    stop: AtomicBool,
}

impl<M> PoolShared<'_, M> {
    /// The block whose chunk holds arena slot `slot`: the last one starting
    /// at or before it, which skips the empty chunks of isolated blocks.
    fn receiver_block(&self, slot: usize) -> usize {
        self.first_slots.partition_point(|&start| start <= slot) - 1
    }
}

/// The run's one sender-indexed broadcast table and, per worker, the
/// senders whose entries it stored in the last delivery.
struct Table<M> {
    /// One entry per node.
    entries: Vec<Option<M>>,
    /// `senders[w]` lists block `w`'s broadcasters of the round, each once.
    senders: Vec<Vec<usize>>,
}

/// Hands this worker's routed batches to the transfer cells via `mem::swap`
/// (the cell is empty — its receiver drained it last round — so the worker
/// gets an empty buffer back and the steady state allocates nothing).
fn flush<M>(shared: &PoolShared<'_, M>, me: usize, local_out: &mut [RoutedBatch<M>]) {
    for (to, batch) in local_out.iter_mut().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let mut cell = shared.xfer[me * shared.width + to]
            .lock()
            .expect("xfer lock");
        debug_assert!(cell.is_empty(), "receiver drained the cell last round");
        std::mem::swap(&mut *cell, batch);
    }
}

/// One worker's side of delivery: its chunk of the per-edge arena.
struct Delivered<'a, M> {
    /// First arena slot of the chunk.
    slot_base: usize,
    /// The arena slots covering every inbox of the block's nodes.
    cur: &'a mut [Option<M>],
    /// Chunk-local slots occupied in `cur`.
    cur_written: Vec<usize>,
}

impl<M> Delivered<'_, M> {
    /// Node `v`'s inbox over the chunk and the shared `table` (see
    /// [`merged_inbox`]).
    fn inbox<'b>(&'b self, graph: &'b Graph, v: NodeId, table: &'b [Option<M>]) -> Inbox<'b, M> {
        let edges_delivered = !self.cur_written.is_empty();
        let range = graph.slot_range(v);
        let slots = &self.cur[range.start - self.slot_base..range.end - self.slot_base];
        merged_inbox(graph, v, slots, edges_delivered, table)
    }

    /// Sparse-clears the chunk, then drains this worker's incoming transfer
    /// cells into it, in sender-block order. All messages for one slot come
    /// from one sender block in send order, so "last write wins" matches the
    /// sequential arena semantics. Finally replaces this block's entries of
    /// the shared table, and its broadcaster list, with the broadcasts in
    /// `bcast`.
    fn deliver(
        &mut self,
        shared: &PoolShared<'_, M>,
        me: usize,
        scratch: &mut RoutedBatch<M>,
        bcast: &mut Vec<(usize, M)>,
    ) {
        for &s in &self.cur_written {
            self.cur[s] = None;
        }
        self.cur_written.clear();
        for from in 0..shared.width {
            {
                let mut cell = shared.xfer[from * shared.width + me]
                    .lock()
                    .expect("xfer lock");
                std::mem::swap(&mut *cell, scratch);
            }
            for (slot, msg) in scratch.drain(..) {
                let local = slot - self.slot_base;
                if self.cur[local].replace(msg).is_none() {
                    self.cur_written.push(local);
                }
            }
        }
        let mut table = shared.table.write().expect("table lock");
        let Table { entries, senders } = &mut *table;
        let stored = &mut senders[me];
        for &sender in stored.iter() {
            entries[sender] = None;
        }
        stored.clear();
        for (sender, msg) in bcast.drain(..) {
            entries[sender] = Some(msg);
            stored.push(sender);
        }
    }
}

/// One worker's run: the kernel's wake step and pass over `block` per
/// round, then the hand-over between the barriers. Worker 0 passes the
/// run's `fold` and folds the published sub-totals there; everyone delivers
/// their own chunk.
fn pooled_worker<P: NodeProgram>(
    shared: &PoolShared<'_, P::Message>,
    me: usize,
    block: &mut NodeBlock<'_, P>,
    mut delivered: Delivered<'_, P::Message>,
    mut fold: Option<&mut RoundFold<'_>>,
) {
    let graph = shared.graph;
    let mut local_out: Vec<RoutedBatch<P::Message>> =
        (0..shared.width).map(|_| Vec::new()).collect();
    let mut bcast: Vec<(usize, P::Message)> = Vec::new();
    let mut scratch: RoutedBatch<P::Message> = Vec::new();
    let mut round = 0u64;
    loop {
        let sub = {
            // The table guard is dropped before barrier A, so delivery's
            // write locks never wait on a reader.
            let table = shared.table.read().expect("table lock");
            block.wake_receivers(
                table.senders.iter().flatten().copied(),
                delivered
                    .cur_written
                    .iter()
                    .map(|&local| delivered.slot_base + local),
            );
            block.run_round(
                round,
                |v| delivered.inbox(graph, v, &table.entries),
                |from, unit| match unit {
                    Committed::Edge(dest, msg) => {
                        local_out[shared.receiver_block(dest)].push((dest, msg))
                    }
                    Committed::Fan(msg) => bcast.push((from.0, msg)),
                },
            )
        };
        flush(shared, me, &mut local_out);
        *shared.published[me].lock().expect("publish lock") = sub;

        shared.barrier.wait(); // A: all commits of this round are flushed.
        if let Some(fold) = fold.as_deref_mut() {
            let subs = shared
                .published
                .iter()
                .map(|cell| std::mem::take(&mut *cell.lock().expect("publish lock")));
            let verdict = fold.fold(subs);
            shared
                .stop
                .store(verdict == Verdict::Stop, Ordering::Release);
        }
        delivered.deliver(shared, me, &mut scratch, &mut bcast);
        shared.barrier.wait(); // B: delivery done, verdict published.
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        round += 1;
    }
}

/// Runs `programs` on the pool with `width` worker blocks (`width >= 2`,
/// `graph.n() >= width`). See the module docs for the protocol.
fn run_engine_pooled<P>(
    graph: &Graph,
    mut programs: Vec<P>,
    config: &ExecutorConfig,
    width: usize,
) -> Result<RunReport<P::Output>, ExecutionError>
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
    P::Output: Send,
{
    let mut fold = RoundFold::new(graph, programs.len(), config)?;
    let n = graph.n();
    let chunk = n.div_ceil(width);
    // Effective width: drop trailing empty blocks (width <= n keeps >= 2).
    let width = n.div_ceil(chunk);
    debug_assert!(width >= 2);
    let mut blocks: Vec<NodeBlock<'_, P>> = programs
        .chunks_mut(chunk)
        .enumerate()
        .map(|(w, programs)| fold.block(w * chunk, programs))
        .collect();

    let shared = PoolShared::<P::Message> {
        graph,
        width,
        first_slots: (0..width)
            .map(|w| graph.slot_range(NodeId(w * chunk)).start)
            .collect(),
        barrier: Barrier::new(width),
        xfer: (0..width * width).map(|_| Mutex::new(Vec::new())).collect(),
        table: RwLock::new(Table {
            entries: std::iter::repeat_with(|| None).take(n).collect(),
            senders: vec![Vec::new(); width],
        }),
        published: (0..width).map(|_| Mutex::default()).collect(),
        stop: AtomicBool::new(false),
    };
    // One delivered-message arena, carved into per-worker chunks: the
    // transfer cells play the role of the sequential engine's write side.
    let mut cur: Vec<Option<P::Message>> = std::iter::repeat_with(|| None)
        .take(graph.slot_count())
        .collect();

    let shared_ref = &shared;
    thread::scope(|s| {
        // Each block's chunk ends where the next one starts.
        let mut rest: &mut [Option<P::Message>] = &mut cur;
        let mut workers = blocks.iter_mut().enumerate().map(|(w, block)| {
            let slot_base = shared.first_slots[w];
            let end = shared
                .first_slots
                .get(w + 1)
                .copied()
                .unwrap_or(graph.slot_count());
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(end - slot_base);
            rest = tail;
            let delivered = Delivered {
                slot_base,
                cur: mine,
                cur_written: Vec::new(),
            };
            (w, block, delivered)
        });
        let (_, block0, delivered0) = workers.next().expect("width >= 2");
        for (me, block, delivered) in workers {
            s.spawn(move || pooled_worker(shared_ref, me, block, delivered, None));
        }
        pooled_worker(shared_ref, 0, block0, delivered0, Some(&mut fold));
    });

    fold.finish(blocks.into_iter().flat_map(NodeBlock::into_outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncExecutor;
    use crate::program::{NodeContext, Outbox, RoundAction};

    /// Every node floods its identifier and outputs the smallest it heard,
    /// with staggered halting so blocks mix live and halted nodes.
    struct MinId {
        best: usize,
        rounds: u64,
    }

    impl NodeProgram for MinId {
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
            if ctx.round >= self.rounds + (ctx.id.0 % 3) as u64 {
                RoundAction::Halt(self.best)
            } else {
                outbox.broadcast(NodeId(self.best));
                RoundAction::Continue
            }
        }
    }

    fn min_id_programs(n: usize, rounds: u64) -> Vec<MinId> {
        (0..n)
            .map(|_| MinId {
                best: usize::MAX,
                rounds,
            })
            .collect()
    }

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    const THREADS: [usize; 6] = [1, 2, 3, 5, 16, 64];

    #[test]
    fn pooled_matches_sequential_bit_for_bit() {
        let g = path_graph(17);
        let seq = SyncExecutor
            .run(&g, min_id_programs(17, 20), &ExecutorConfig::default())
            .unwrap();
        for threads in THREADS {
            let pooled = PooledExecutor::new(threads)
                .run(&g, min_id_programs(17, 20), &ExecutorConfig::default())
                .unwrap();
            assert_eq!(seq, pooled, "threads={threads}");
        }
    }

    /// Sends to a non-neighbor at a configurable node and round.
    struct BadSender {
        bad_node: usize,
        bad_round: u64,
    }
    impl NodeProgram for BadSender {
        type Message = usize;
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, usize>) {
            if ctx.id.0 == self.bad_node && self.bad_round == 0 {
                outbox.send(NodeId(ctx.id.0 + 2), 1);
            }
        }
        fn round(
            &mut self,
            ctx: &NodeContext<'_>,
            _: &Inbox<'_, usize>,
            outbox: &mut Outbox<'_, usize>,
        ) -> RoundAction<()> {
            if ctx.id.0 == self.bad_node && self.bad_round == ctx.round {
                outbox.send(NodeId(ctx.id.0 + 2), 1);
            }
            if ctx.round >= 3 {
                RoundAction::Halt(())
            } else {
                RoundAction::Continue
            }
        }
    }

    #[test]
    fn first_error_matches_sequential_from_any_block() {
        let g = path_graph(12);
        // The offending node sits in the first, a middle, and the last block.
        for bad_node in [0usize, 5, 9] {
            for bad_round in [0u64, 2] {
                let mk = || {
                    (0..12)
                        .map(|_| BadSender {
                            bad_node,
                            bad_round,
                        })
                        .collect::<Vec<_>>()
                };
                let seq = SyncExecutor
                    .run(&g, mk(), &ExecutorConfig::default())
                    .unwrap_err();
                assert_eq!(
                    seq,
                    ExecutionError::NotANeighbor {
                        from: NodeId(bad_node),
                        to: NodeId(bad_node + 2),
                    }
                );
                for threads in THREADS {
                    let pooled = PooledExecutor::new(threads)
                        .run(&g, mk(), &ExecutorConfig::default())
                        .unwrap_err();
                    assert_eq!(seq, pooled, "bad_node={bad_node} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn two_offenders_resolve_in_node_order() {
        // Nodes 2 and 9 both misbehave in the same round; every executor
        // must report node 2 — the first in node order — even when node 9's
        // block is executed by a different worker.
        let g = path_graph(12);
        let mk = || {
            (0..12)
                .map(|id| BadSender {
                    bad_node: if id == 2 || id == 9 { id } else { usize::MAX },
                    bad_round: 1,
                })
                .collect::<Vec<_>>()
        };
        let seq = SyncExecutor
            .run(&g, mk(), &ExecutorConfig::default())
            .unwrap_err();
        assert_eq!(
            seq,
            ExecutionError::NotANeighbor {
                from: NodeId(2),
                to: NodeId(4),
            }
        );
        for threads in THREADS {
            let pooled = PooledExecutor::new(threads)
                .run(&g, mk(), &ExecutorConfig::default())
                .unwrap_err();
            assert_eq!(seq, pooled, "threads={threads}");
        }
    }

    struct NeverHalts;
    impl NodeProgram for NeverHalts {
        type Message = ();
        type Output = ();
        fn init(&mut self, _: &NodeContext<'_>, _: &mut Outbox<'_, ()>) {}
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            _: &Inbox<'_, ()>,
            _: &mut Outbox<'_, ()>,
        ) -> RoundAction<()> {
            RoundAction::Continue
        }
    }

    #[test]
    fn round_limit_matches_sequential() {
        let g = path_graph(6);
        let config = ExecutorConfig {
            max_rounds: 10,
            ..ExecutorConfig::default()
        };
        let mk = || (0..6).map(|_| NeverHalts).collect::<Vec<_>>();
        let seq = SyncExecutor.run(&g, mk(), &config).unwrap_err();
        assert_eq!(seq, ExecutionError::RoundLimitExceeded { limit: 10 });
        for threads in THREADS {
            let pooled = PooledExecutor::new(threads)
                .run(&g, mk(), &config)
                .unwrap_err();
            assert_eq!(seq, pooled, "threads={threads}");
        }
    }

    struct FatMessage;
    impl NodeProgram for FatMessage {
        type Message = Vec<u64>;
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, Vec<u64>>) {
            // Only odd nodes violate, so violation *counts* (not just the
            // first error) must line up across executors.
            if ctx.id.0 % 2 == 1 {
                outbox.broadcast(vec![0u64; 64]);
            } else {
                outbox.broadcast(vec![0u64; 1]);
            }
        }
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            _: &Inbox<'_, Vec<u64>>,
            _: &mut Outbox<'_, Vec<u64>>,
        ) -> RoundAction<()> {
            RoundAction::Halt(())
        }
    }

    #[test]
    fn bandwidth_counting_and_enforcement_match_sequential() {
        let g = path_graph(8);
        let mk = || (0..8).map(|_| FatMessage).collect::<Vec<_>>();
        let seq = SyncExecutor
            .run(&g, mk(), &ExecutorConfig::default())
            .unwrap();
        assert!(seq.bandwidth_violations > 0);
        for threads in THREADS {
            let pooled = PooledExecutor::new(threads)
                .run(&g, mk(), &ExecutorConfig::default())
                .unwrap();
            assert_eq!(seq, pooled, "threads={threads}");
        }
        let seq = SyncExecutor
            .run(&g, mk(), &ExecutorConfig::strict_congest())
            .unwrap_err();
        for threads in THREADS {
            let pooled = PooledExecutor::new(threads)
                .run(&g, mk(), &ExecutorConfig::strict_congest())
                .unwrap_err();
            assert_eq!(seq, pooled, "threads={threads}");
        }
    }

    /// Duplicate sends in one round: last message wins, both charged.
    struct DoubleSender {
        heard: Option<u32>,
    }
    impl NodeProgram for DoubleSender {
        type Message = u32;
        type Output = Option<u32>;
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u32>) {
            if ctx.id.0 == 0 {
                outbox.send(NodeId(1), 7);
                outbox.send(NodeId(1), 9);
            }
        }
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            inbox: &Inbox<'_, u32>,
            _: &mut Outbox<'_, u32>,
        ) -> RoundAction<Option<u32>> {
            if let Some(&m) = inbox.from(NodeId(0)) {
                self.heard = Some(m);
            }
            RoundAction::Halt(self.heard)
        }
    }

    #[test]
    fn duplicate_sends_keep_the_last_message() {
        let g = path_graph(2);
        let programs: Vec<_> = (0..2).map(|_| DoubleSender { heard: None }).collect();
        let report = PooledExecutor::new(2)
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap();
        assert_eq!(report.outputs[1], Some(9));
        assert_eq!(report.messages, 2, "both sends are charged");
    }

    /// Sends every neighbor its own message with explicit `send`s, so every
    /// unit is routed per edge, and folds what it hears.
    struct EdgeRelay {
        acc: u64,
    }

    impl EdgeRelay {
        fn send_all(&self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u64>) {
            for &u in ctx.neighbors() {
                outbox.send(u, self.acc.wrapping_add(u.0 as u64));
            }
        }
    }

    impl NodeProgram for EdgeRelay {
        type Message = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u64>) {
            self.acc = ctx.id.0 as u64;
            self.send_all(ctx, outbox);
        }

        fn round(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<'_, u64>,
        ) -> RoundAction<u64> {
            for (from, &m) in inbox.iter() {
                self.acc = self.acc.wrapping_mul(31).wrapping_add(m ^ from.0 as u64);
            }
            if ctx.round >= 4 {
                return RoundAction::Halt(self.acc);
            }
            self.send_all(ctx, outbox);
            RoundAction::Continue
        }
    }

    #[test]
    fn edge_sends_skip_blocks_of_isolated_nodes() {
        // Nodes 4..8 are isolated: at widths 3 and 6 whole middle blocks own
        // no arena slot, and the units past them must reach the next block.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 8),
            (0, 11),
            (8, 9),
            (9, 10),
            (10, 11),
        ];
        let g = Graph::from_edges(12, &edges).unwrap();
        let mk = || (0..12).map(|_| EdgeRelay { acc: 0 }).collect::<Vec<_>>();
        let seq = SyncExecutor
            .run(&g, mk(), &ExecutorConfig::default())
            .unwrap();
        // Init and rounds 1–3 send one message per directed edge.
        assert_eq!(seq.messages, 4 * 2 * edges.len() as u64);
        for threads in 2..=6 {
            let pooled = PooledExecutor::new(threads)
                .run(&g, mk(), &ExecutorConfig::default())
                .unwrap();
            assert_eq!(seq, pooled, "threads={threads}");
        }
    }

    #[test]
    fn degenerate_inputs_fall_back_to_the_sequential_path() {
        let g = Graph::empty(0);
        let report = PooledExecutor::new(8)
            .run(&g, Vec::<MinId>::new(), &ExecutorConfig::default())
            .unwrap();
        assert_eq!(report.rounds, 0);
        assert!(report.outputs.is_empty());

        let g = path_graph(3);
        let err = PooledExecutor::new(8)
            .run(&g, Vec::<MinId>::new(), &ExecutorConfig::default())
            .unwrap_err();
        assert!(matches!(err, ExecutionError::ProgramCountMismatch { .. }));
    }

    #[test]
    fn topology_cache_is_shared_across_runs_and_executors() {
        let g = path_graph(11);
        assert!(!g.topology_cached());
        let cold = SyncExecutor
            .run(&g, min_id_programs(11, 12), &ExecutorConfig::default())
            .unwrap();
        assert!(g.topology_cached(), "first run builds the cache");
        let warm = SyncExecutor
            .run(&g, min_id_programs(11, 12), &ExecutorConfig::default())
            .unwrap();
        assert_eq!(cold, warm, "cache reuse changes no reported number");
        let pooled = PooledExecutor::new(3)
            .run(&g, min_id_programs(11, 12), &ExecutorConfig::default())
            .unwrap();
        assert_eq!(cold, pooled);
    }

    #[test]
    fn new_clamps_the_worker_count_to_at_least_one() {
        assert_eq!(PooledExecutor::new(0).threads(), 1);
        assert_eq!(PooledExecutor::new(3).threads(), 3);
    }
}

//! The persistent worker-pool executor: threads spawned once per run, a
//! reusable barrier instead of per-round thread churn, and a parallelized
//! outbox-commit phase — all bit-identical to [`SyncExecutor`].
//!
//! # Why a pool
//!
//! A run takes rounds in the thousands (the measured Theorem 1.2 pipeline
//! runs ~1.3k engine rounds at `n = 10⁵`), so spawning threads per round,
//! or committing every outbox on one thread, would eat any parallel gain.
//! [`PooledExecutor`] spawns its workers once per [`Executor::run`], keeps
//! them in lockstep with one reusable [`Barrier`] (two waits per round), and
//! lets every worker execute *and commit* its own contiguous node block.
//! Whether that beats [`SyncExecutor`] on a given host and graph is an open
//! measurement; the report is the same either way.
//!
//! # Round protocol
//!
//! Worker 0 is the calling thread; it doubles as the coordinator. Each
//! worker owns a contiguous block of nodes, the matching slice of every
//! per-node table, and the contiguous receiver-side chunk of the message
//! arena covering its nodes' CSR ranges. One round proceeds as:
//!
//! 1. **execute + commit** — each worker runs its live programs, then drains
//!    each outbox in node order: it resolves the delivery slot through the
//!    shared `TopologyCache` mirror, charges the message into its private
//!    `WorkerRound` sub-totals, and routes `(slot, msg)` into a per-
//!    destination-block batch. Batches are handed over through one mutex-
//!    protected transfer cell per (sender-block, receiver-block) pair via
//!    `mem::swap` — no steady-state allocation, and each cell is touched by
//!    exactly one sender and one receiver per round, so the locks never
//!    contend. A broadcast is not routed: the worker keeps it as one
//!    `(sender, payload)` entry. Finally the worker publishes its
//!    sub-totals.
//! 2. **barrier A.**
//! 3. **deliver / reduce** — each worker sparse-clears the slots of its arena
//!    chunk written last round and drains its incoming transfer cells into
//!    the chunk (last write per slot wins, in sender order). It then stores
//!    its own nodes' broadcasts in the run's one sender-indexed broadcast
//!    table, after clearing the entries it stored last round. Every inbox
//!    reads its chunk and that table. Concurrently the coordinator folds
//!    the published sub-totals *in block order* into the run totals and
//!    decides: continue, stop (all halted), or stop with the run's error.
//! 4. **barrier B** — after which every worker reads the coordinator's
//!    command and either loops or exits.
//!
//! # Why the report is bit-identical to [`SyncExecutor`]
//!
//! *Disjoint slots.* The mirror table is a bijection between directed-edge
//! slots; distinct senders therefore write **disjoint** arena slots, and all
//! slots of one receiver block land in that block's chunk. Routing a message
//! touches only the sender's private batch; delivery touches only the
//! receiver's own chunk — no write is ever racy, which is why the whole
//! scheme works under `#![forbid(unsafe_code)]`.
//!
//! *Per-slot order.* All messages for one slot come from one sender (the
//! slot names the directed edge), are batched in that sender's send order,
//! and are delivered in that order — so "last message wins" picks the same
//! message as the sequential commit.
//!
//! *Broadcasts.* Only a node's own worker writes its table entry, and only
//! during delivery, between the barriers; inboxes read the table only
//! during execute. The table therefore needs no second buffer, and its lock
//! is never contended by a reader and a writer at once (the write lock only
//! orders the workers' disjoint stores). A broadcasting node stages nothing
//! else that round, so its neighbors read exactly the sequential engine's
//! table entry.
//!
//! *Accounting.* Message and bit counters are saturating-`u64` folds;
//! saturating addition is associative, so folding per-worker sub-totals in
//! block order equals the sequential left-to-right accumulation exactly
//! (see `engine::Accounting`). `max_message_bits` is a max; violation
//! counts are sums.
//!
//! *First error.* Within a worker, the first error is found in node order
//! (outboxes drain in node order, messages in send order, with the same
//! check order as the sequential `commit_round`). Across workers, the
//! coordinator keeps the error of the **lowest block**, which is exactly
//! the first error in global node order. Everything a higher node did after
//! that point is discarded along with the report, just as in the sequential
//! engine.
//!
//! # Caveats
//!
//! The synchronous protocol assumes node programs do not panic: a worker
//! that unwinds never reaches the barrier and the run would hang rather
//! than propagate the panic ([`SyncExecutor`] surfaces it instead).
//! Engine-facing programs in this workspace are panic-free by contract.
//!
//! [`SyncExecutor`]: crate::engine::SyncExecutor

use crate::engine::{
    drain_outbox, merged_inbox, run_engine, Accounting, Committed, ExecutionError, Executor,
    ExecutorConfig, RoundStats, RunReport,
};
use crate::message::MessageSize;
use crate::program::{Inbox, NodeContext, NodeProgram, Outbox, Pending, RoundAction};
use crate::topology::TopologyCache;
use crate::{Graph, NodeId};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Barrier, Mutex, RwLock};
use std::thread;

/// Coordinator verdict after folding a round: keep going.
const CMD_RUN: u8 = 0;
/// Coordinator verdict after folding a round: exit the round loop (all nodes
/// halted, or the run ends with an error).
const CMD_STOP: u8 = 1;

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

/// One worker's sub-totals for one round, published to the coordinator
/// through a mutex and folded in block order.
#[derive(Default)]
struct WorkerRound {
    acct: Accounting,
    newly_halted: usize,
    /// First error this worker's block produced, in node/send order.
    error: Option<ExecutionError>,
}

/// State shared (read-only or synchronized) by all workers of one run.
struct PoolShared<'g, M> {
    graph: &'g Graph,
    topo: &'g TopologyCache,
    /// Number of worker blocks.
    width: usize,
    /// Nodes per block (the last block may be smaller).
    chunk: usize,
    bandwidth: usize,
    enforce: bool,
    /// One reusable barrier, waited on twice per round (A and B).
    barrier: Barrier,
    /// `width × width` transfer cells; `xfer[from * width + to]` carries the
    /// batch sender block `from` committed for receiver block `to`. Each
    /// cell is written by one worker and drained by one worker per round.
    xfer: Vec<Mutex<RoutedBatch<M>>>,
    /// The sender-indexed broadcast table (`n` entries): read by every
    /// worker during execute, written by each worker for its own nodes
    /// during delivery.
    table: RwLock<Vec<Option<M>>>,
    /// Per-worker published [`WorkerRound`] sub-totals.
    published: Vec<Mutex<WorkerRound>>,
    /// The coordinator's verdict, written between barriers A and B and read
    /// by workers only after B.
    command: AtomicU8,
}

/// The coordinator's run-level state (held by worker 0, the calling thread).
struct Coordinator<'c> {
    config: &'c ExecutorConfig,
    n: usize,
    acct: Accounting,
    round_stats: Vec<RoundStats>,
    halted: usize,
    /// The round whose sub-totals the next `reduce` folds (0 = init).
    rounds: u64,
    error: Option<ExecutionError>,
}

impl Coordinator<'_> {
    /// Folds the per-worker sub-totals of the round that just committed, in
    /// block (= node) order, and decides whether the pool continues. Runs
    /// between barriers A and B, concurrently with delivery.
    fn reduce<M>(&mut self, shared: &PoolShared<'_, M>) {
        let mut messages = 0u64;
        let mut payloads = 0u64;
        let mut bits = 0u64;
        let mut newly = 0usize;
        let mut error: Option<ExecutionError> = None;
        for cell in &shared.published {
            let rep = std::mem::take(&mut *cell.lock().expect("publish lock"));
            messages += rep.acct.messages;
            payloads += rep.acct.payloads;
            bits = bits.saturating_add(rep.acct.bits);
            self.acct.max_message_bits = self.acct.max_message_bits.max(rep.acct.max_message_bits);
            self.acct.violations += rep.acct.violations;
            newly += rep.newly_halted;
            if error.is_none() {
                // Lowest block wins: the first error in global node order.
                error = rep.error;
            }
        }
        if let Some(e) = error {
            self.error = Some(e);
            shared.command.store(CMD_STOP, Ordering::Release);
            return;
        }
        self.acct.messages = self.acct.messages.saturating_add(messages);
        self.acct.payloads = self.acct.payloads.saturating_add(payloads);
        self.acct.bits = self.acct.bits.saturating_add(bits);
        self.halted += newly;
        if self.config.record_round_stats {
            self.round_stats.push(RoundStats {
                round: self.rounds,
                messages,
                bits,
                halted: self.halted,
            });
        }
        if self.halted == self.n {
            shared.command.store(CMD_STOP, Ordering::Release);
        } else if self.rounds + 1 > self.config.max_rounds {
            self.error = Some(ExecutionError::RoundLimitExceeded {
                limit: self.config.max_rounds,
            });
            shared.command.store(CMD_STOP, Ordering::Release);
        } else {
            self.rounds += 1;
        }
    }
}

/// One worker's slice of the run state: a contiguous node block plus the
/// matching contiguous chunk of the delivered-message arena.
struct WorkerBlock<'a, P: NodeProgram> {
    /// First node of the block.
    first: usize,
    programs: &'a mut [P],
    halted: &'a mut [bool],
    outputs: &'a mut [Option<P::Output>],
    pending: &'a mut [Pending<P::Message>],
    invalid: &'a mut [Option<NodeId>],
    /// The arena slots covering every inbox of the block's nodes.
    cur: &'a mut [Option<P::Message>],
}

/// Drains one node's staged output through the engine's shared
/// [`drain_outbox`] primitive: charges each message into `report` and routes
/// it to the destination block's batch, with the exact per-message check
/// order of the sequential `commit_round`. A broadcast stays one
/// `(sender, payload)` entry in `bcast`, stored in the shared table at
/// delivery.
fn route_outbox<M: MessageSize>(
    shared: &PoolShared<'_, M>,
    from: NodeId,
    staged: &mut Pending<M>,
    invalid_to: &Option<NodeId>,
    local_out: &mut [RoutedBatch<M>],
    bcast: &mut Vec<(usize, M)>,
    report: &mut WorkerRound,
) {
    if report.error.is_some() {
        // A lower node of this block already errored; everything after it is
        // discarded with the report, so don't route or charge.
        staged.clear();
        return;
    }
    let range = shared.graph.slot_range(from);
    let (base, degree) = (range.start, range.len());
    let (topo, chunk) = (shared.topo, shared.chunk);
    if let Err(e) = drain_outbox(
        &topo.mirror,
        base,
        degree,
        from,
        staged,
        *invalid_to,
        shared.bandwidth,
        shared.enforce,
        &mut report.acct,
        |unit| match unit {
            Committed::Edge(dest, msg) => {
                let owner = topo.slot_owner[dest] as usize;
                local_out[owner / chunk].push((dest, msg));
            }
            Committed::Fan(msg) => bcast.push((from.0, msg)),
        },
    ) {
        report.error = Some(e);
    }
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

/// One worker's side of delivery: its chunk of the per-edge arena and the
/// shared-table entries its own nodes occupy.
struct Delivered<'a, M> {
    /// First arena slot of the chunk.
    slot_base: usize,
    /// The arena slots covering every inbox of the block's nodes.
    cur: &'a mut [Option<M>],
    /// Chunk-local slots occupied in `cur`.
    cur_written: Vec<usize>,
    /// This block's senders whose entries occupy the shared table.
    stored: Vec<usize>,
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
    /// the shared table with the broadcasts in `bcast`.
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
        for &sender in &self.stored {
            table[sender] = None;
        }
        self.stored.clear();
        for (sender, msg) in bcast.drain(..) {
            table[sender] = Some(msg);
            self.stored.push(sender);
        }
    }
}

/// The per-worker round loop. Worker 0 passes a [`Coordinator`] and folds
/// the published sub-totals between the barriers; everyone delivers their
/// own chunk there.
fn pooled_worker<P: NodeProgram>(
    shared: &PoolShared<'_, P::Message>,
    me: usize,
    block: WorkerBlock<'_, P>,
    mut coord: Option<&mut Coordinator<'_>>,
) {
    let WorkerBlock {
        first,
        programs,
        halted,
        outputs,
        pending,
        invalid,
        cur,
    } = block;
    let graph = shared.graph;
    let mut delivered = Delivered {
        slot_base: graph.slot_range(NodeId(first)).start,
        cur,
        cur_written: Vec::new(),
        stored: Vec::new(),
    };
    let mut local_out: Vec<RoutedBatch<P::Message>> =
        (0..shared.width).map(|_| Vec::new()).collect();
    let mut bcast: Vec<(usize, P::Message)> = Vec::new();
    let mut scratch: RoutedBatch<P::Message> = Vec::new();

    // Round 0: init + commit.
    let mut report = WorkerRound::default();
    for (i, program) in programs.iter_mut().enumerate() {
        let v = NodeId(first + i);
        let ctx = NodeContext {
            id: v,
            graph,
            round: 0,
        };
        let mut outbox = Outbox::over(graph.neighbors(v), &mut pending[i], &mut invalid[i]);
        program.init(&ctx, &mut outbox);
        route_outbox(
            shared,
            v,
            &mut pending[i],
            &invalid[i],
            &mut local_out,
            &mut bcast,
            &mut report,
        );
    }
    flush(shared, me, &mut local_out);
    *shared.published[me].lock().expect("publish lock") = report;

    let mut round = 0u64;
    loop {
        shared.barrier.wait(); // A: all commits of this round are flushed.
        if let Some(c) = coord.as_deref_mut() {
            c.reduce(shared);
        }
        delivered.deliver(shared, me, &mut scratch, &mut bcast);
        shared.barrier.wait(); // B: delivery done, verdict published.
        if shared.command.load(Ordering::Acquire) == CMD_STOP {
            break;
        }
        round += 1;

        // Execute + commit this round's block. The table guard is dropped
        // before barrier A, so delivery's write locks never wait on a reader.
        let mut report = WorkerRound::default();
        let table = shared.table.read().expect("table lock");
        for i in 0..programs.len() {
            if halted[i] {
                continue;
            }
            let v = NodeId(first + i);
            let ctx = NodeContext {
                id: v,
                graph,
                round,
            };
            let inbox = delivered.inbox(graph, v, &table);
            pending[i].clear();
            invalid[i] = None;
            let mut outbox = Outbox::over(graph.neighbors(v), &mut pending[i], &mut invalid[i]);
            match programs[i].round(&ctx, &inbox, &mut outbox) {
                RoundAction::Continue => {}
                RoundAction::Halt(out) => {
                    outputs[i] = Some(out);
                    halted[i] = true;
                    report.newly_halted += 1;
                    pending[i].clear();
                }
            }
            route_outbox(
                shared,
                v,
                &mut pending[i],
                &invalid[i],
                &mut local_out,
                &mut bcast,
                &mut report,
            );
        }
        drop(table);
        flush(shared, me, &mut local_out);
        *shared.published[me].lock().expect("publish lock") = report;
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
    let n = graph.n();
    if programs.len() != n {
        return Err(ExecutionError::ProgramCountMismatch {
            programs: programs.len(),
            nodes: n,
        });
    }
    let bandwidth = config
        .bandwidth_bits
        .unwrap_or_else(|| crate::congest_bandwidth_bits(n));
    let chunk = n.div_ceil(width).max(1);
    // Effective width: drop trailing empty blocks (width <= n keeps >= 2).
    let width = n.div_ceil(chunk);
    debug_assert!(width >= 2);

    let topo = graph.topology();
    let shared = PoolShared::<P::Message> {
        graph,
        topo,
        width,
        chunk,
        bandwidth,
        enforce: config.enforce_bandwidth,
        barrier: Barrier::new(width),
        xfer: (0..width * width).map(|_| Mutex::new(Vec::new())).collect(),
        table: RwLock::new(std::iter::repeat_with(|| None).take(n).collect()),
        published: (0..width)
            .map(|_| Mutex::new(WorkerRound::default()))
            .collect(),
        command: AtomicU8::new(CMD_RUN),
    };

    let mut outputs: Vec<Option<P::Output>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut halted = vec![false; n];
    // Empty outboxes, as in the sequential engine: a lone broadcast stores
    // one payload and never grows the per-edge vec.
    let mut pending: Vec<Pending<P::Message>> =
        std::iter::repeat_with(Pending::new).take(n).collect();
    let mut invalid: Vec<Option<NodeId>> = vec![None; n];
    // Single delivered-message arena: the transfer cells play the role of
    // the sequential engine's write side.
    let mut cur: Vec<Option<P::Message>> = std::iter::repeat_with(|| None)
        .take(graph.slot_count())
        .collect();

    let mut coord = Coordinator {
        config,
        n,
        acct: Accounting::default(),
        round_stats: Vec::new(),
        halted: 0,
        rounds: 0,
        error: None,
    };

    let shared_ref = &shared;
    thread::scope(|s| {
        // Carve the flat state into per-worker blocks: node-indexed tables
        // by `chunk`, the arena at the matching CSR boundaries.
        let mut blocks: Vec<WorkerBlock<'_, P>> = Vec::with_capacity(width);
        let mut cur_rest: &mut [Option<P::Message>] = &mut cur;
        let mut carved = 0usize;
        let node_tables = programs
            .chunks_mut(chunk)
            .zip(halted.chunks_mut(chunk))
            .zip(outputs.chunks_mut(chunk))
            .zip(pending.chunks_mut(chunk))
            .zip(invalid.chunks_mut(chunk))
            .enumerate();
        for (w, ((((progs, halts), outs), pends), invs)) in node_tables {
            let first = w * chunk;
            let last = first + progs.len();
            let hi = if last == n {
                graph.slot_count()
            } else {
                graph.slot_range(NodeId(last)).start
            };
            let (mine, rest) = cur_rest.split_at_mut(hi - carved);
            cur_rest = rest;
            carved = hi;
            blocks.push(WorkerBlock {
                first,
                programs: progs,
                halted: halts,
                outputs: outs,
                pending: pends,
                invalid: invs,
                cur: mine,
            });
        }
        let mut iter = blocks.into_iter();
        let block0 = iter.next().expect("width >= 2");
        for (i, block) in iter.enumerate() {
            s.spawn(move || pooled_worker::<P>(shared_ref, i + 1, block, None));
        }
        pooled_worker::<P>(shared_ref, 0, block0, Some(&mut coord));
    });

    if let Some(e) = coord.error {
        return Err(e);
    }
    Ok(RunReport {
        outputs: outputs
            .into_iter()
            .map(|o| o.expect("halted node has output"))
            .collect(),
        rounds: coord.rounds,
        messages: coord.acct.messages,
        payloads: coord.acct.payloads,
        total_bits: coord.acct.bits,
        max_message_bits: coord.acct.max_message_bits,
        bandwidth_violations: coord.acct.violations,
        bandwidth_bits: bandwidth,
        round_stats: coord.round_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SyncExecutor;

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

    #[test]
    fn pooled_matches_sequential_without_round_stats() {
        let g = path_graph(9);
        let config = ExecutorConfig {
            record_round_stats: false,
            ..ExecutorConfig::default()
        };
        let seq = SyncExecutor
            .run(&g, min_id_programs(9, 9), &config)
            .unwrap();
        let pooled = PooledExecutor::new(4)
            .run(&g, min_id_programs(9, 9), &config)
            .unwrap();
        assert_eq!(seq, pooled);
        assert!(pooled.round_stats.is_empty());
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

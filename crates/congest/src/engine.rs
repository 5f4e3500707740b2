//! The batched execution engine: drives [`NodeProgram`]s round by round.
//!
//! The engine stores in-flight messages in two double-buffered stores. An
//! explicit send goes to a CSR-indexed arena: directed edge `(u, v)` owns a
//! fixed slot in a flat `Vec<Option<M>>`, located inside receiver `v`'s CSR
//! range at the position of `u` in `v`'s sorted adjacency list, and the
//! sender writes it through a precomputed mirror index. A broadcast is
//! stored once, in a sender-indexed table of `n` entries, and receivers
//! pull it from there. Delivery is a buffer swap, and inboxes are zero-copy
//! views over both stores, sorted by sender — the steady-state round loop
//! allocates nothing.
//!
//! # The round kernel
//!
//! Every executor runs a round the same way. Its nodes live in contiguous
//! [`NodeBlock`]s, and each block makes **one pass** over its nodes in node
//! order: a node whose wake round has come runs against the inbox the
//! backend supplies, and its outbox is drained at once, charged and handed
//! to the sink the backend supplies. One [`RoundFold`] takes the blocks'
//! per-round [`BlockRound`] sub-totals in block order, applies the halting,
//! round-limit and first-error rules, records [`RoundStats`] and assembles
//! the [`RunReport`]. Only where inboxes come from and where committed units
//! go differs per backend:
//!
//! * [`SyncExecutor`] — one block over an [`ArenaDelivery`] on the calling
//!   thread; the reference semantics every other backend is pinned against.
//! * [`crate::pool::PooledExecutor`] — one block per worker thread, moving
//!   committed units through transfer cells between two barriers.
//! * the socket backend of the `congest_transport` crate — one block per
//!   process, exchanging cross-block units with its peer once per round.
//!
//! # Sleeping nodes
//!
//! A block keeps one wake round per node: `0` runs every round, `u64::MAX`
//! marks a halted node, and anything between is a timer set by
//! [`RoundAction::SleepUntil`]. A node whose wake round lies ahead is
//! skipped at the cost of one compare, unless mail wakes it: after each
//! delivery, a block with sleepers calls [`NodeBlock::wake_receivers`] on
//! the round's units, which wakes every neighbor of each broadcaster and
//! the owner of each delivered edge slot. A round in which nobody sleeps
//! pays nothing for this.
//!
//! Reports are bit-identical across backends, and with or without sleeping,
//! because:
//! * block order is node order, and the lowest block's error is the first
//!   error in node order — a panicking program included, which the pass
//!   catches and reports as [`ExecutionError::ProgramPanicked`];
//! * a slot's last write wins in its one sender's send order;
//! * [`Accounting::fold`] is associative;
//! * a node is skipped only in a round that delivers it nothing and that
//!   its own `SleepUntil` covers, which is a call the [`NodeProgram`]
//!   contract says would have sent nothing and changed nothing. The mail
//!   wakes are derived from the round's delivered units alone, which are
//!   the same on every backend.
//!
//! The per-graph mirror table is built once and cached inside [`Graph`]
//! (see `crate::topology`), so repeated runs and multi-phase compositions
//! share the `O(m log Δ)` setup.
//!
//! Every run produces a [`RunReport`] with per-round [`RoundStats`]; the
//! report feeds the same [`RoundLedger`] used for closed-form charging via
//! [`RunReport::charge`], which records the run as one measured
//! [`PhaseCost`], so measured and formula-derived round counts flow through
//! one accounting path.

use crate::ledger::{PhaseCost, PhaseMode, PhaseSpec};
use crate::message::MessageSize;
use crate::program::{
    Inbox, NodeContext, NodeProgram, OutMsg, Outbox, Pending, RoundAction, INVALID_SLOT,
};
use crate::{Graph, NodeId, RoundLedger};
use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

/// Configuration of an [`Executor`] run. Every run is charged against the
/// CONGEST budget [`crate::congest_bandwidth_bits`] of its graph and records
/// one [`RoundStats`] entry per round; only the round limit and what a
/// message over the budget does are settable.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Abort with [`ExecutionError::RoundLimitExceeded`] after this many rounds.
    pub max_rounds: u64,
    /// If `true`, a message exceeding the budget aborts the run; if `false`
    /// the violation is only counted in the report.
    pub enforce_bandwidth: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            max_rounds: 1_000_000,
            enforce_bandwidth: false,
        }
    }
}

impl ExecutorConfig {
    /// A strict CONGEST configuration: the bandwidth budget is enforced.
    pub fn strict_congest() -> Self {
        ExecutorConfig {
            enforce_bandwidth: true,
            ..ExecutorConfig::default()
        }
    }
}

/// Per-round instrumentation: what the network did in one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundStats {
    /// The round the statistics describe (`0` covers `init`).
    pub round: u64,
    /// Messages sent during the round.
    pub messages: u64,
    /// Total bits sent during the round (saturating).
    pub bits: u64,
    /// Number of nodes that have halted by the end of the round.
    pub halted: usize,
}

/// Statistics and outputs of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Number of rounds executed until the last node halted.
    pub rounds: u64,
    /// Total number of messages sent.
    pub messages: u64,
    /// Stored payloads committed: an explicit send counts one, a broadcast
    /// counts one *per broadcasting node per round* regardless of degree.
    /// This is the storage/wire-traffic side of the ledger — `messages`
    /// stays the CONGEST charge (`deg(v)` per broadcast), so
    /// `messages / payloads` is the fan-out factor the broadcast fast path
    /// avoids materializing.
    pub payloads: u64,
    /// Total bits sent across all messages (saturating).
    pub total_bits: u64,
    /// Largest message observed, in bits.
    pub max_message_bits: usize,
    /// Number of messages that exceeded the bandwidth budget.
    pub bandwidth_violations: u64,
    /// The bandwidth budget the run was charged against.
    pub bandwidth_bits: usize,
    /// Per-round statistics, one entry per round from `0` (init) on.
    pub round_stats: Vec<RoundStats>,
}

impl<O> RunReport<O> {
    /// Records this run in `ledger` as one [`PhaseMode::Measured`] phase.
    /// This is the unified instrumentation path: algorithms executed on the
    /// engine and algorithms charged in closed form land in the same
    /// [`RoundLedger`], and `spec`'s formula becomes the paper column, so
    /// reports can compare measured vs claimed.
    pub fn charge(&self, ledger: &mut RoundLedger, spec: PhaseSpec) {
        ledger.phases.push(self.cost(spec, 0));
    }

    /// The measured [`PhaseCost`] of this run under `spec`, stamped with the
    /// wall time the caller observed around it.
    pub(crate) fn cost(&self, spec: PhaseSpec, wall_nanos: u64) -> PhaseCost {
        PhaseCost {
            name: spec.name,
            kind: spec.kind,
            mode: PhaseMode::Measured,
            simulated_rounds: self.rounds,
            formula_rounds: spec.formula_rounds,
            messages: self.messages,
            payloads: self.payloads,
            wall_nanos,
        }
    }
}

/// Errors produced by [`Executor::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutionError {
    /// A node addressed a message to a non-neighbor.
    NotANeighbor {
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
    },
    /// The round limit was reached before all nodes halted.
    RoundLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// The number of supplied programs does not match the number of nodes.
    ProgramCountMismatch {
        /// Programs supplied.
        programs: usize,
        /// Nodes in the graph.
        nodes: usize,
    },
    /// A message exceeded the bandwidth budget while enforcement was enabled.
    BandwidthExceeded {
        /// Sender of the offending message.
        from: NodeId,
        /// Size of the offending message in bits.
        bits: usize,
        /// The configured budget in bits.
        budget: usize,
    },
    /// A node program panicked in `init` or `round`; the run stops in that
    /// round on every backend instead of unwinding through it.
    ProgramPanicked {
        /// The node whose program panicked.
        node: NodeId,
    },
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::NotANeighbor { from, to } => {
                write!(f, "node {from} attempted to send to non-neighbor {to}")
            }
            ExecutionError::RoundLimitExceeded { limit } => {
                write!(f, "round limit of {limit} exceeded before termination")
            }
            ExecutionError::ProgramCountMismatch { programs, nodes } => {
                write!(f, "{programs} programs supplied for {nodes} nodes")
            }
            ExecutionError::BandwidthExceeded { from, bits, budget } => {
                write!(
                    f,
                    "message of {bits} bits from {from} exceeds budget of {budget} bits"
                )
            }
            ExecutionError::ProgramPanicked { node } => {
                write!(f, "the program of node {node} panicked")
            }
        }
    }
}

impl Error for ExecutionError {}

/// Tagged-union encoding, so multi-process transport backends can ship the
/// run's first error to the peer and both sides fail identically.
impl crate::message::Wire for ExecutionError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ExecutionError::NotANeighbor { from, to } => {
                out.push(0);
                from.encode(out);
                to.encode(out);
            }
            ExecutionError::RoundLimitExceeded { limit } => {
                out.push(1);
                limit.encode(out);
            }
            ExecutionError::ProgramCountMismatch { programs, nodes } => {
                out.push(2);
                programs.encode(out);
                nodes.encode(out);
            }
            ExecutionError::BandwidthExceeded { from, bits, budget } => {
                out.push(3);
                from.encode(out);
                bits.encode(out);
                budget.encode(out);
            }
            ExecutionError::ProgramPanicked { node } => {
                out.push(4);
                node.encode(out);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => ExecutionError::NotANeighbor {
                from: NodeId::decode(buf, pos)?,
                to: NodeId::decode(buf, pos)?,
            },
            1 => ExecutionError::RoundLimitExceeded {
                limit: u64::decode(buf, pos)?,
            },
            2 => ExecutionError::ProgramCountMismatch {
                programs: usize::decode(buf, pos)?,
                nodes: usize::decode(buf, pos)?,
            },
            3 => ExecutionError::BandwidthExceeded {
                from: NodeId::decode(buf, pos)?,
                bits: usize::decode(buf, pos)?,
                budget: usize::decode(buf, pos)?,
            },
            4 => ExecutionError::ProgramPanicked {
                node: NodeId::decode(buf, pos)?,
            },
            _ => return None,
        })
    }
}

/// A deterministic driver for [`NodeProgram`]s.
///
/// All implementations must produce identical [`RunReport`]s for identical
/// inputs — the choice of executor is purely a wall-clock decision.
pub trait Executor {
    /// Runs `programs[v]` on node `v` of `graph` under `config`.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecutionError`] if a program misbehaves (sends to a
    /// non-neighbor, exceeds an enforced bandwidth budget, panics) or if the
    /// round limit is hit.
    fn run<P>(
        &self,
        graph: &Graph,
        programs: Vec<P>,
        config: &ExecutorConfig,
    ) -> Result<RunReport<P::Output>, ExecutionError>
    where
        P: NodeProgram + Send,
        P::Message: Send + Sync,
        P::Output: Send;
}

/// The sequential executor: drives all node programs on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncExecutor;

impl Executor for SyncExecutor {
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
        run_engine(graph, programs, config)
    }
}

/// CSR-indexed, double-buffered message store: how committed units move
/// between rounds on the sequential engine and on each side of the socket
/// backend. Each of its two [`ArenaSide`]s has two parts:
///
/// * the per-edge arena for explicit sends — slot `slot_range(v).start + i`
///   holds the message *received by* `v` from its `i`-th CSR neighbor;
///   senders write through the [`TopologyCache`](crate::TopologyCache)
///   mirror so the write side is the receiver's inbox range;
/// * the sender-indexed broadcast table — entry `u` holds the one payload
///   node `u` broadcast, which every neighbor's [`Inbox`] reads (a pull, so
///   a broadcast costs one store instead of `deg(u)` scattered copies).
///
/// Within one round, several [`ArenaSide::queue`] calls for the same slot
/// keep the *last* message (all writes to one slot come from one sender, in
/// that sender's send order), and [`ArenaDelivery::advance`] publishes
/// exactly the queued units as the next round's delivered side.
pub struct ArenaDelivery<M> {
    /// Units delivered this round (read side).
    cur: ArenaSide<M>,
    /// Units queued for the next round (write side).
    next: ArenaSide<M>,
}

/// One round's units in an [`ArenaDelivery`]: the per-edge arena and the
/// broadcast table, each with the list of entries it occupies. The lists
/// make the clear in [`ArenaDelivery::advance`] sparse, so a sparse round (a
/// few deciders in an otherwise idle schedule, the tail of a mostly-halted
/// run) pays for the units it carried instead of an `O(m)` sweep, and they
/// name the receivers [`NodeBlock::wake_receivers`] wakes.
pub struct ArenaSide<M> {
    /// One slot per directed edge, in receiver CSR order.
    slots: Vec<Option<M>>,
    /// Occupied slots, each listed once (a duplicate send to one neighbor
    /// overwrites in place).
    written: Vec<usize>,
    /// Broadcast payloads, indexed by sender.
    table: Vec<Option<M>>,
    /// Senders occupying `table`, each listed once.
    senders: Vec<usize>,
}

impl<M> ArenaSide<M> {
    fn new(graph: &Graph) -> Self {
        let none = |len| std::iter::repeat_with(|| None).take(len).collect();
        ArenaSide {
            slots: none(graph.slot_count()),
            written: Vec::new(),
            table: none(graph.n()),
            senders: Vec::new(),
        }
    }

    /// Stages `msg` for delivery into destination arena slot `slot` at the
    /// start of the next round. A later `queue` to the same slot within the
    /// same round replaces the message (one message per edge per round).
    pub fn queue(&mut self, slot: usize, msg: M) {
        // Record the slot only on first occupancy, so the sparse clear and
        // the wake pass touch each slot once.
        if self.slots[slot].replace(msg).is_some() {
            debug_assert!(self.written.contains(&slot));
        } else {
            self.written.push(slot);
        }
    }

    /// Stages `sender`'s broadcast payload: one table entry that every
    /// neighbor of `sender` reads next round. Caller contract: `sender` has
    /// staged nothing else this round — no other broadcast and no per-edge
    /// send (`Outbox::broadcast` keeps a lone payload only on an otherwise
    /// empty outbox), so each of its neighbors has exactly one source.
    /// Backends that take senders from untrusted input check
    /// [`ArenaSide::broadcast_staged`] first.
    pub fn queue_broadcast(&mut self, sender: usize, msg: M) {
        debug_assert!(!self.broadcast_staged(sender), "one broadcast per sender");
        self.table[sender] = Some(msg);
        self.senders.push(sender);
    }

    /// Whether `sender` already has a broadcast staged on this side.
    pub fn broadcast_staged(&self, sender: usize) -> bool {
        self.table[sender].is_some()
    }

    /// Node `v`'s inbox: its arena slots merged with the broadcast table.
    pub fn inbox<'a>(&'a self, graph: &'a Graph, v: NodeId) -> Inbox<'a, M> {
        let edges_delivered = !self.written.is_empty();
        let slots = &self.slots[graph.slot_range(v)];
        merged_inbox(graph, v, slots, edges_delivered, &self.table)
    }

    /// The broadcasters of this side's round, each once.
    pub fn senders(&self) -> &[usize] {
        &self.senders
    }

    /// The occupied arena slots of this side's round, each once.
    pub fn written(&self) -> &[usize] {
        &self.written
    }

    /// Empties the side, touching only the occupied entries.
    fn clear(&mut self) {
        for &slot in &self.written {
            self.slots[slot] = None;
        }
        for &sender in &self.senders {
            self.table[sender] = None;
        }
        self.written.clear();
        self.senders.clear();
    }
}

impl<M> ArenaDelivery<M> {
    /// An empty store: one arena slot per directed edge of `graph` and one
    /// table entry per node, on each side.
    pub fn new(graph: &Graph) -> Self {
        ArenaDelivery {
            cur: ArenaSide::new(graph),
            next: ArenaSide::new(graph),
        }
    }

    /// The delivered side, which inboxes read, and the staging side, which
    /// the kernel's sink writes, borrowed together for the one pass.
    pub fn split(&mut self) -> (&ArenaSide<M>, &mut ArenaSide<M>) {
        (&self.cur, &mut self.next)
    }

    /// Ends the round: the queued units become current and the previous
    /// round's are dropped, clearing only the entries that were actually
    /// occupied (no allocation).
    pub fn advance(&mut self) {
        self.cur.clear();
        std::mem::swap(&mut self.cur, &mut self.next);
    }
}

/// Node `v`'s inbox over `slots`, its range of delivered arena slots, and
/// the sender-indexed broadcast `table`. When `edges_delivered` is false —
/// no per-edge message reached the store this round, as in every round of
/// a broadcast-only program — the view gets an empty edge slice and is a
/// pure gather from the table. Every executor builds its inboxes here.
pub(crate) fn merged_inbox<'a, M>(
    graph: &'a Graph,
    v: NodeId,
    slots: &'a [Option<M>],
    edges_delivered: bool,
    table: &'a [Option<M>],
) -> Inbox<'a, M> {
    let slots = if edges_delivered { slots } else { &[] };
    Inbox::over(graph.neighbors(v), slots, table)
}

/// Running totals for the charging path. All accumulation is saturating so
/// absurdly long runs cannot overflow.
/// Saturating `u64` addition is associative (it is ordinary addition clamped
/// at a ceiling none of the partial sums can exceed without the total also
/// exceeding it), which is what lets [`RoundFold`] fold per-block sub-totals
/// and still match the sequential left-to-right accumulation bit for bit.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Accounting {
    /// Messages charged.
    pub messages: u64,
    /// Stored payloads committed (one per explicit send, one per broadcast
    /// regardless of degree) — see [`RunReport::payloads`].
    pub payloads: u64,
    /// Bits charged (saturating).
    pub bits: u64,
    /// Largest message observed, in bits.
    pub max_message_bits: usize,
    /// Messages that exceeded the bandwidth budget.
    pub violations: u64,
}

impl Accounting {
    /// Folds `other` into `self`. Saturating sums, max of maxima — the
    /// associative/commutative-per-field merge that makes block-order folds
    /// of sub-totals equal the sequential accumulation.
    pub fn fold(&mut self, other: &Accounting) {
        self.messages = self.messages.saturating_add(other.messages);
        self.payloads = self.payloads.saturating_add(other.payloads);
        self.bits = self.bits.saturating_add(other.bits);
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.violations = self.violations.saturating_add(other.violations);
    }
}

/// One committed unit the kernel's pass hands to the backend's sink: either
/// a single per-edge message already resolved to its destination arena
/// slot, or a broadcast payload the backend stores once under the sender's
/// id (the storage/wire fast path — the CONGEST charge for all `deg` copies
/// has already been applied by the time the sink sees it).
#[derive(Debug)]
pub enum Committed<M> {
    /// One message for one destination arena slot.
    Edge(usize, M),
    /// One broadcast payload standing for a copy to every neighbor. It is
    /// stored once in a sender-indexed table; each neighbor's [`Inbox`]
    /// pulls it from there (see [`ArenaSide::queue_broadcast`]).
    Fan(M),
}

/// One block's sub-totals for one round, as its pass leaves them.
/// [`RoundFold::fold`] folds them in block order.
#[derive(Debug, Default)]
pub struct BlockRound {
    /// Messages, payloads, bits, largest message and violations charged by
    /// the block's pass.
    pub acct: Accounting,
    /// Nodes of the block that halted in the round.
    pub newly_halted: usize,
    /// The block's first error, in node and send order; the pass stops
    /// there.
    pub error: Option<ExecutionError>,
}

/// The wake round of a halted node: it never runs again.
const HALTED: u64 = u64::MAX;

/// Wakes a sleeping node for the round whose mail was just delivered; a
/// halted node stays halted.
fn wake_by_mail(wake: &mut u64) {
    if *wake != HALTED {
        *wake = 0;
    }
}

/// The round kernel's node block: a contiguous node range with its
/// programs, wake rounds, outputs and one staging outbox. The programs stay
/// in the caller's vector; the block borrows its range.
///
/// Every executor runs a round as the same [pass](NodeBlock::run_round)
/// over its blocks, after [waking](NodeBlock::wake_receivers) the sleepers
/// that the last delivery sent mail to. Blocks are built by
/// [`RoundFold::block`].
pub struct NodeBlock<'a, P: NodeProgram> {
    graph: &'a Graph,
    /// First node of the block.
    first: usize,
    bandwidth: usize,
    enforce: bool,
    programs: &'a mut [P],
    /// Per node, the first round it runs in again: `0` for every round, a
    /// later round for a [`RoundAction::SleepUntil`] timer, [`HALTED`] for
    /// never.
    wake: Vec<u64>,
    outputs: Vec<Option<P::Output>>,
    /// The staging outbox, kept between passes for its capacity. A pass
    /// moves it to the running thread's stack: every node writes it, and
    /// the pool's blocks sit side by side, so a field here would share a
    /// cache line with the fields the next worker's pass reads.
    pending: Pending<P::Message>,
    /// Block-local indices of the nodes that halted in the last pass, in
    /// node order.
    newly: Vec<usize>,
    /// Live nodes the last pass left asleep beyond the next round; while
    /// there are none, mail wakes nobody.
    sleepers: usize,
}

impl<P: NodeProgram> NodeBlock<'_, P> {
    /// Round `round` of the block, as one pass in node order. Each node
    /// whose wake round has come runs `init` (round 0) or `round` against
    /// `inbox(v)`; a node that halts records its output and sends nothing,
    /// and any other node's staged output is checked, charged and handed to
    /// `sink` as [`Committed`] units before the next node runs. A sleeping
    /// or halted node costs one compare.
    ///
    /// The pass stops at the block's first error in node and send order and
    /// leaves the rest of the block unrun and uncharged. A panicking program
    /// is such an error, [`ExecutionError::ProgramPanicked`]: the unwind is
    /// caught once for the whole pass, so every backend finishes the round
    /// and reports it.
    pub fn run_round<'i>(
        &mut self,
        round: u64,
        inbox: impl Fn(NodeId) -> Inbox<'i, P::Message>,
        mut sink: impl FnMut(NodeId, Committed<P::Message>),
    ) -> BlockRound
    where
        P::Message: 'i,
    {
        self.newly.clear();
        let mut staging = std::mem::take(&mut self.pending);
        let mut acct = Accounting::default();
        let mut at = 0;
        let pass = panic::catch_unwind(AssertUnwindSafe(|| {
            self.pass(round, &inbox, &mut sink, &mut staging, &mut acct, &mut at)
        }));
        staging.clear();
        self.pending = staging;
        let error = match pass {
            Ok(result) => result.err(),
            Err(_) => Some(ExecutionError::ProgramPanicked {
                node: NodeId(self.first + at),
            }),
        };
        BlockRound {
            acct,
            newly_halted: self.newly.len(),
            error,
        }
    }

    /// The body of [`NodeBlock::run_round`]: every node stages its output
    /// in `staging`, and `at` tracks the node being run for the panic
    /// report.
    fn pass<'i>(
        &mut self,
        round: u64,
        inbox: &impl Fn(NodeId) -> Inbox<'i, P::Message>,
        sink: &mut impl FnMut(NodeId, Committed<P::Message>),
        staging: &mut Pending<P::Message>,
        acct: &mut Accounting,
        at: &mut usize,
    ) -> Result<(), ExecutionError>
    where
        P::Message: 'i,
    {
        let graph = self.graph;
        let mirror = &graph.topology().mirror;
        let next = round + 1;
        let mut sleepers = 0;
        // The first non-neighbor target of the node being run.
        let mut invalid = None;
        for i in 0..self.programs.len() {
            let wake = self.wake[i];
            if wake > round {
                sleepers += usize::from(wake > next && wake != HALTED);
                continue;
            }
            *at = i;
            let id = NodeId(self.first + i);
            let ctx = NodeContext { id, graph, round };
            let mut outbox = Outbox::over(graph.neighbors(id), staging, &mut invalid);
            let program = &mut self.programs[i];
            if round == 0 {
                program.init(&ctx, &mut outbox);
            } else {
                match program.round(&ctx, &inbox(id), &mut outbox) {
                    RoundAction::Continue => {}
                    RoundAction::SleepUntil(r) => {
                        // A timer at `HALTED` would read as halted; one below
                        // it, only mail wakes the node.
                        self.wake[i] = r.min(HALTED - 1);
                        sleepers += usize::from(r > next);
                    }
                    RoundAction::Halt(out) => {
                        self.outputs[i] = Some(out);
                        self.wake[i] = HALTED;
                        self.newly.push(i);
                        staging.clear();
                        invalid = None;
                        continue;
                    }
                }
            }
            self.drain(id, mirror, staging, &mut invalid, acct, sink)?;
        }
        self.sleepers = sleepers;
        Ok(())
    }

    /// Drains node `from`'s staged output from `pending`: resolves each send
    /// to its destination arena slot through `mirror`, charges it into
    /// `acct`, and hands each committed unit to `sink` in send order.
    /// `invalid` holds the first non-neighbor target the node addressed.
    /// `pending` is empty afterwards, on the error path too.
    ///
    /// The check order is [`INVALID_SLOT`] → [`ExecutionError::NotANeighbor`]
    /// first, then the bandwidth charge and (if enforced)
    /// [`ExecutionError::BandwidthExceeded`]. On an error the remaining queued
    /// messages are discarded uncharged.
    ///
    /// A pending broadcast (one stored payload — the fast path
    /// [`Outbox::broadcast`] takes on an otherwise empty outbox) is charged in
    /// one step that is arithmetically identical to committing the `deg`
    /// materialized copies: the max-update is idempotent across identical
    /// messages, the per-message violation/message counts become one
    /// `+= deg`, and the saturating bit sum `deg × bits` clamps at the same
    /// ceiling any sequential partial sum would have clamped at. It then
    /// reaches `sink` as a single [`Committed::Fan`]; per-edge sends arrive as
    /// [`Committed::Edge`] with the destination slot resolved. `acct.payloads`
    /// counts stored payloads — `1` for the whole broadcast versus `deg` for
    /// the materialized equivalent — which is the only field where the two
    /// paths differ.
    fn drain(
        &self,
        from: NodeId,
        mirror: &[usize],
        pending: &mut Pending<P::Message>,
        invalid: &mut Option<NodeId>,
        acct: &mut Accounting,
        sink: &mut impl FnMut(NodeId, Committed<P::Message>),
    ) -> Result<(), ExecutionError> {
        let budget = self.bandwidth;
        let targets = &mirror[self.graph.slot_range(from)];
        if let Some(msg) = pending.broadcast.take() {
            debug_assert!(pending.sends.is_empty(), "broadcast implies no sends");
            let degree = targets.len() as u64;
            if degree == 0 {
                return Ok(());
            }
            let bits = msg.size_bits();
            acct.max_message_bits = acct.max_message_bits.max(bits);
            if bits > budget {
                if self.enforce {
                    // Sequential execution errors on the first copy: one
                    // violation charged, no messages.
                    acct.violations += 1;
                    return Err(ExecutionError::BandwidthExceeded { from, bits, budget });
                }
                acct.violations += degree;
            }
            acct.messages += degree;
            acct.bits = acct
                .bits
                .saturating_add((bits as u64).saturating_mul(degree));
            acct.payloads += 1;
            sink(from, Committed::Fan(msg));
            return Ok(());
        }
        for OutMsg { slot, msg } in pending.sends.drain(..) {
            if slot == INVALID_SLOT {
                // The outbox records the first non-neighbor target, which is
                // exactly the send this first sentinel belongs to.
                let to = invalid
                    .take()
                    .expect("invalid slot without recorded target");
                return Err(ExecutionError::NotANeighbor { from, to });
            }
            let bits = msg.size_bits();
            acct.max_message_bits = acct.max_message_bits.max(bits);
            if bits > budget {
                acct.violations += 1;
                if self.enforce {
                    return Err(ExecutionError::BandwidthExceeded { from, bits, budget });
                }
            }
            acct.messages += 1;
            acct.payloads += 1;
            acct.bits = acct.bits.saturating_add(bits as u64);
            sink(from, Committed::Edge(targets[slot as usize], msg));
        }
        Ok(())
    }

    /// Wakes the block's sleepers that the round just delivered mail to:
    /// every neighbor inside the block of each broadcaster in `senders`,
    /// and the owner of each occupied arena slot in `slots` (all in the
    /// block's own CSR range). Halted nodes stay halted. A block in which
    /// nobody sleeps returns at once without reading either list, so dense
    /// rounds pay nothing.
    pub fn wake_receivers(
        &mut self,
        senders: impl IntoIterator<Item = usize>,
        slots: impl IntoIterator<Item = usize>,
    ) {
        if self.sleepers == 0 {
            return;
        }
        let graph = self.graph;
        let (lo, hi) = (NodeId(self.first), NodeId(self.first + self.wake.len()));
        for u in senders {
            let neighbors = graph.neighbors(NodeId(u));
            let start = neighbors.partition_point(|&v| v < lo);
            for &v in neighbors[start..].iter().take_while(|&&v| v < hi) {
                wake_by_mail(&mut self.wake[v.0 - self.first]);
            }
        }
        for slot in slots {
            let v = graph.slot_owner(slot);
            wake_by_mail(&mut self.wake[v.0 - self.first]);
        }
    }

    /// The nodes that halted in the last pass, in node order, with their
    /// outputs.
    pub fn newly_halted(&self) -> impl Iterator<Item = (NodeId, &P::Output)> + '_ {
        self.newly.iter().map(|&i| {
            let out = self.outputs[i].as_ref().expect("halted node has output");
            (NodeId(self.first + i), out)
        })
    }

    /// The block's outputs in node order; `None` for a node still running.
    pub fn into_outputs(self) -> Vec<Option<P::Output>> {
        self.outputs
    }
}

/// What [`RoundFold::fold`] decided about the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A node is still live and the round limit allows another round.
    Continue,
    /// The run is over: every node halted, or it ends with an error.
    Stop,
}

/// The run-level half of the round kernel, shared by every executor. It
/// checks the program count and resolves the bandwidth budget once, builds
/// the run's [`NodeBlock`]s, folds their per-round [`BlockRound`]s in block
/// order, applies the halting, round-limit and lowest-block-first error
/// rules, records [`RoundStats`] and assembles the [`RunReport`].
#[derive(Debug)]
pub struct RoundFold<'g> {
    graph: &'g Graph,
    max_rounds: u64,
    bandwidth: usize,
    enforce: bool,
    acct: Accounting,
    round_stats: Vec<RoundStats>,
    halted: usize,
    /// The round the next [`RoundFold::fold`] folds (`0` = init).
    rounds: u64,
    error: Option<ExecutionError>,
}

impl<'g> RoundFold<'g> {
    /// Starts a run of `programs` node programs on `graph` under `config`.
    ///
    /// # Errors
    ///
    /// [`ExecutionError::ProgramCountMismatch`] unless there is exactly one
    /// program per node.
    pub fn new(
        graph: &'g Graph,
        programs: usize,
        config: &ExecutorConfig,
    ) -> Result<Self, ExecutionError> {
        let n = graph.n();
        if programs != n {
            return Err(ExecutionError::ProgramCountMismatch { programs, nodes: n });
        }
        Ok(RoundFold {
            graph,
            max_rounds: config.max_rounds,
            bandwidth: crate::congest_bandwidth_bits(n),
            enforce: config.enforce_bandwidth,
            acct: Accounting::default(),
            round_stats: Vec::new(),
            halted: 0,
            rounds: 0,
            error: None,
        })
    }

    /// The block of nodes `first..first + programs.len()`, running
    /// `programs` in node order.
    pub fn block<'a, P: NodeProgram>(&self, first: usize, programs: &'a mut [P]) -> NodeBlock<'a, P>
    where
        'g: 'a,
    {
        let len = programs.len();
        NodeBlock {
            graph: self.graph,
            first,
            bandwidth: self.bandwidth,
            enforce: self.enforce,
            programs,
            wake: vec![0; len],
            outputs: std::iter::repeat_with(|| None).take(len).collect(),
            // The staging outbox starts empty: a lone broadcast stores one
            // payload, and mixed send patterns grow its vec to the widest
            // node's and keep the capacity.
            pending: Pending::new(),
            newly: Vec::new(),
            sleepers: 0,
        }
    }

    /// Folds the sub-totals of the round that just committed; `blocks` must
    /// arrive in block order, which is node order. The lowest block's error
    /// ends the run. Otherwise the round is charged and recorded, and the run
    /// stops once every node has halted or fails once the next round would
    /// exceed the limit.
    pub fn fold(&mut self, blocks: impl IntoIterator<Item = BlockRound>) -> Verdict {
        let mut round = Accounting::default();
        let mut newly = 0;
        for block in blocks {
            if let Some(e) = block.error {
                self.error = Some(e);
                return Verdict::Stop;
            }
            round.fold(&block.acct);
            newly += block.newly_halted;
        }
        self.acct.fold(&round);
        self.halted += newly;
        self.round_stats.push(RoundStats {
            round: self.rounds,
            messages: round.messages,
            bits: round.bits,
            halted: self.halted,
        });
        if self.halted == self.graph.n() {
            Verdict::Stop
        } else if self.rounds >= self.max_rounds {
            self.error = Some(ExecutionError::RoundLimitExceeded {
                limit: self.max_rounds,
            });
            Verdict::Stop
        } else {
            self.rounds += 1;
            Verdict::Continue
        }
    }

    /// Finishes the run: the folded error if there is one, otherwise the
    /// report over `outputs`, one per node in node order.
    ///
    /// # Errors
    ///
    /// The error that stopped the run.
    pub fn finish<O>(
        self,
        outputs: impl IntoIterator<Item = Option<O>>,
    ) -> Result<RunReport<O>, ExecutionError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        // Sized up front: a concatenation of block outputs gives no exact
        // length hint, and a growing vector would briefly hold two copies.
        let mut all = Vec::with_capacity(self.graph.n());
        all.extend(
            outputs
                .into_iter()
                .map(|o| o.expect("halted node has output")),
        );
        Ok(RunReport {
            outputs: all,
            rounds: self.rounds,
            messages: self.acct.messages,
            payloads: self.acct.payloads,
            total_bits: self.acct.bits,
            max_message_bits: self.acct.max_message_bits,
            bandwidth_violations: self.acct.violations,
            bandwidth_bits: self.bandwidth,
            round_stats: self.round_stats,
        })
    }
}

/// The sequential executor's run: one [`NodeBlock`] over an
/// [`ArenaDelivery`]. It is the reference semantics of every executor.
pub(crate) fn run_engine<P: NodeProgram>(
    graph: &Graph,
    mut programs: Vec<P>,
    config: &ExecutorConfig,
) -> Result<RunReport<P::Output>, ExecutionError> {
    let mut fold = RoundFold::new(graph, programs.len(), config)?;
    let mut block = fold.block(0, &mut programs);
    let mut delivery = ArenaDelivery::new(graph);
    let mut round = 0;
    loop {
        let (delivered, staged) = delivery.split();
        block.wake_receivers(
            delivered.senders().iter().copied(),
            delivered.written().iter().copied(),
        );
        let sub = block.run_round(
            round,
            |v| delivered.inbox(graph, v),
            |from, unit| match unit {
                Committed::Edge(slot, msg) => staged.queue(slot, msg),
                Committed::Fan(msg) => staged.queue_broadcast(from.0, msg),
            },
        );
        let verdict = fold.fold([sub]);
        delivery.advance();
        if verdict == Verdict::Stop {
            break;
        }
        round += 1;
    }
    fold.finish(block.into_outputs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PooledExecutor;
    use crate::program::{Inbox, NodeContext, Outbox, RoundAction};

    /// Every node floods its identifier for `k` rounds and outputs the
    /// smallest identifier it has heard of — after `diameter` rounds every
    /// node knows the global minimum.
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
            if ctx.round >= self.rounds {
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

    #[test]
    fn min_id_flood_converges_on_a_path() {
        let g = path_graph(6);
        let report = SyncExecutor
            .run(&g, min_id_programs(6, 6), &ExecutorConfig::default())
            .unwrap();
        assert!(report.outputs.iter().all(|&o| o == 0));
        assert_eq!(report.rounds, 6);
        assert!(report.messages > 0);
        assert!(report.max_message_bits <= report.bandwidth_bits);
        assert_eq!(report.bandwidth_violations, 0);
        // init + 6 executed rounds of statistics.
        assert_eq!(report.round_stats.len(), 7);
        assert_eq!(report.round_stats[0].round, 0);
        assert_eq!(
            report.round_stats.iter().map(|r| r.messages).sum::<u64>(),
            report.messages
        );
        assert_eq!(report.round_stats.last().unwrap().halted, 6);
        assert!(report.total_bits > 0);
    }

    #[test]
    fn broadcast_charges_per_edge_but_stores_one_payload_per_node() {
        let g = path_graph(6);
        let report = SyncExecutor
            .run(&g, min_id_programs(6, 6), &ExecutorConfig::default())
            .unwrap();
        // Every node broadcasts in init and rounds 1–5: 6 node-rounds × 6
        // nodes store one payload each, while the CONGEST charge stays one
        // message per edge copy (sum of degrees = 10 per broadcasting round).
        assert_eq!(report.payloads, 36);
        assert_eq!(report.messages, 60);
    }

    #[test]
    fn explicit_sends_charge_one_payload_per_message() {
        let g = path_graph(2);
        let programs: Vec<_> = (0..2).map(|_| DoubleSender { heard: None }).collect();
        let report = SyncExecutor
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap();
        assert_eq!(report.messages, 2);
        assert_eq!(report.payloads, 2, "per-edge sends store per-edge payloads");
    }

    #[test]
    fn too_few_rounds_does_not_converge() {
        let g = path_graph(8);
        let report = SyncExecutor
            .run(&g, min_id_programs(8, 2), &ExecutorConfig::default())
            .unwrap();
        // Node 7 is at distance 7 from node 0; after 2 rounds it cannot know 0.
        assert_ne!(report.outputs[7], 0);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let g = path_graph(17);
        let seq = SyncExecutor
            .run(&g, min_id_programs(17, 20), &ExecutorConfig::default())
            .unwrap();
        for threads in [1usize, 2, 3, 5, 16, 64] {
            let par = PooledExecutor::new(threads)
                .run(&g, min_id_programs(17, 20), &ExecutorConfig::default())
                .unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn program_count_mismatch_is_an_error() {
        let g = path_graph(3);
        let programs: Vec<MinId> = vec![];
        let err = SyncExecutor
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap_err();
        assert!(matches!(err, ExecutionError::ProgramCountMismatch { .. }));
    }

    struct BadSender;
    impl NodeProgram for BadSender {
        type Message = usize;
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, usize>) {
            if ctx.id.0 == 0 {
                // Node 2 is not a neighbor of node 0 on a path.
                outbox.send(NodeId(2), 1);
            }
        }
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            _: &Inbox<'_, usize>,
            _: &mut Outbox<'_, usize>,
        ) -> RoundAction<()> {
            RoundAction::Halt(())
        }
    }

    #[test]
    fn sending_to_non_neighbor_is_an_error() {
        let g = path_graph(3);
        let programs: Vec<_> = (0..3).map(|_| BadSender).collect();
        let seq = SyncExecutor
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap_err();
        assert!(matches!(seq, ExecutionError::NotANeighbor { .. }));
        let programs: Vec<_> = (0..3).map(|_| BadSender).collect();
        let par = PooledExecutor::new(4)
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap_err();
        assert_eq!(seq, par, "executors agree on the first error");
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
    fn round_limit_is_enforced() {
        let g = path_graph(2);
        let programs: Vec<_> = (0..2).map(|_| NeverHalts).collect();
        let config = ExecutorConfig {
            max_rounds: 10,
            ..ExecutorConfig::default()
        };
        let err = SyncExecutor.run(&g, programs, &config).unwrap_err();
        assert_eq!(err, ExecutionError::RoundLimitExceeded { limit: 10 });
    }

    struct FatMessage;
    impl NodeProgram for FatMessage {
        type Message = Vec<u64>;
        type Output = ();
        fn init(&mut self, _: &NodeContext<'_>, outbox: &mut Outbox<'_, Vec<u64>>) {
            outbox.broadcast(vec![0u64; 64]);
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
    fn bandwidth_violations_counted_and_enforced() {
        let g = path_graph(2);
        let programs: Vec<_> = (0..2).map(|_| FatMessage).collect();
        let report = SyncExecutor
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap();
        assert!(report.bandwidth_violations > 0);

        let programs: Vec<_> = (0..2).map(|_| FatMessage).collect();
        let err = SyncExecutor
            .run(&g, programs, &ExecutorConfig::strict_congest())
            .unwrap_err();
        assert!(matches!(err, ExecutionError::BandwidthExceeded { .. }));
    }

    /// Sends twice to the same neighbor in one round: the engine charges both
    /// but delivers only the last (one message per edge per round).
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
        let report = SyncExecutor
            .run(&g, programs, &ExecutorConfig::default())
            .unwrap();
        assert_eq!(report.outputs[1], Some(9));
        assert_eq!(report.messages, 2, "both sends are charged");
    }

    /// Triple-sends every round: the arena delivers one message per edge per
    /// round (the last one), every send is charged, the deduped written-slot
    /// list keeps the sparse clear linear in *slots*, and executors agree.
    struct TripleSender {
        limit: u64,
        last: Option<u32>,
    }
    impl NodeProgram for TripleSender {
        type Message = u32;
        type Output = Option<u32>;
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u32>) {
            if ctx.id.0 == 0 {
                for k in 0..3 {
                    outbox.send(NodeId(1), k);
                }
            }
        }
        fn round(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &Inbox<'_, u32>,
            outbox: &mut Outbox<'_, u32>,
        ) -> RoundAction<Option<u32>> {
            if let Some(&m) = inbox.from(NodeId(0)) {
                self.last = Some(m);
            }
            if ctx.round >= self.limit {
                return RoundAction::Halt(self.last);
            }
            if ctx.id.0 == 0 {
                for k in 0..3 {
                    outbox.send(NodeId(1), 100 * ctx.round as u32 + k);
                }
            }
            RoundAction::Continue
        }
    }

    #[test]
    fn duplicate_sends_across_rounds_stay_deduped_and_fully_charged() {
        let g = path_graph(2);
        let mk = || {
            (0..2)
                .map(|_| TripleSender {
                    limit: 3,
                    last: None,
                })
                .collect::<Vec<_>>()
        };
        let seq = SyncExecutor
            .run(&g, mk(), &ExecutorConfig::default())
            .unwrap();
        // Last of round 2's batch survives; init + rounds 1–2 charge 3 each.
        assert_eq!(seq.outputs[1], Some(202));
        assert_eq!(seq.messages, 9, "every duplicate send is charged");
        assert_eq!(seq.rounds, 3);
        let par = PooledExecutor::new(3)
            .run(&g, mk(), &ExecutorConfig::default())
            .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_graph_runs_zero_rounds() {
        let g = Graph::empty(0);
        let report = SyncExecutor
            .run(&g, Vec::<MinId>::new(), &ExecutorConfig::default())
            .unwrap();
        assert_eq!(report.rounds, 0);
        assert!(report.outputs.is_empty());
    }

    /// What a [`Scripted`] node does in one round.
    #[derive(Clone, Copy)]
    enum Step {
        /// Broadcast the round number, then sleep until the given round.
        Broadcast(u64),
        /// Send the round number to the given neighbor, then sleep until the
        /// given round.
        SendTo(usize, u64),
        /// Send nothing and sleep until the given round.
        Sleep(u64),
        Halt,
    }

    /// Logs every round it runs in, then each message it heard from node `u`
    /// as `1000·(u + 1) + message`, and acts by `script(id, round)`. The log
    /// is the output, so it shows exactly which calls the executor made.
    struct Scripted {
        script: fn(usize, u64) -> Step,
        log: Vec<u64>,
    }

    impl NodeProgram for Scripted {
        type Message = u64;
        type Output = Vec<u64>;

        fn init(&mut self, _: &NodeContext<'_>, _: &mut Outbox<'_, u64>) {}

        fn round(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<'_, u64>,
        ) -> RoundAction<Vec<u64>> {
            self.log.push(ctx.round);
            for (from, &m) in inbox.iter() {
                self.log.push(1000 * (from.0 as u64 + 1) + m);
            }
            match (self.script)(ctx.id.0, ctx.round) {
                Step::Broadcast(wake) => {
                    outbox.broadcast(ctx.round);
                    RoundAction::SleepUntil(wake)
                }
                Step::SendTo(to, wake) => {
                    outbox.send(NodeId(to), ctx.round);
                    RoundAction::SleepUntil(wake)
                }
                Step::Sleep(wake) => RoundAction::SleepUntil(wake),
                Step::Halt => RoundAction::Halt(std::mem::take(&mut self.log)),
            }
        }
    }

    fn scripted(n: usize, script: fn(usize, u64) -> Step) -> Vec<Scripted> {
        (0..n)
            .map(|_| Scripted {
                script,
                log: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn a_sleeper_is_woken_by_a_broadcast_an_edge_send_and_its_timer() {
        // Path 0 – 1 – 2. Node 1 sleeps until round 9; node 0 broadcasts in
        // round 3 and node 2 sends to it in round 6. Nodes 0 and 2 run every
        // round (a timer at the next round is `Continue`).
        let g = path_graph(3);
        let report = SyncExecutor
            .run(
                &g,
                scripted(3, |id, round| match (id, round) {
                    (_, 12) => Step::Halt,
                    (1, r) if r < 9 => Step::Sleep(9),
                    (1, _) => Step::Sleep(12),
                    (0, 3) => Step::Broadcast(0),
                    (2, 6) => Step::SendTo(1, round + 1),
                    (_, r) => Step::Sleep(r + 1),
                }),
                &ExecutorConfig::default(),
            )
            .unwrap();
        // Round 1; round 4 with node 0's round-3 broadcast; round 7 with
        // node 2's round-6 send; the timer in round 9; then round 12.
        assert_eq!(report.outputs[1], vec![1, 4, 1003, 7, 3006, 9, 12]);
        assert_eq!(report.outputs[0].len(), 12, "node 0 runs every round");
        assert_eq!(report.rounds, 12);
        assert_eq!(report.messages, 2);
    }

    #[test]
    fn sleeping_until_the_next_round_or_earlier_is_continue() {
        let g = path_graph(2);
        let report = SyncExecutor
            .run(
                &g,
                scripted(2, |id, round| match (id, round) {
                    (_, 6) => Step::Halt,
                    (0, r) => Step::Sleep(r + 1),
                    (_, r) => Step::Sleep([0, r][r as usize % 2]),
                }),
                &ExecutorConfig::default(),
            )
            .unwrap();
        assert_eq!(report.outputs, vec![vec![1, 2, 3, 4, 5, 6]; 2]);
    }

    #[test]
    fn a_node_halts_while_its_neighbors_sleep_and_stays_halted() {
        // Path 0 – 1 – 2: node 1 halts in round 3, node 2 sleeps from round
        // 1 to 10, and node 0 keeps broadcasting to the halted node 1.
        let g = path_graph(3);
        let report = SyncExecutor
            .run(
                &g,
                scripted(3, |id, round| match (id, round) {
                    (1, 3) | (_, 10) => Step::Halt,
                    (0, r) => Step::Broadcast(r + 1),
                    (1, r) => Step::Sleep(r + 1),
                    _ => Step::Sleep(10),
                }),
                &ExecutorConfig::default(),
            )
            .unwrap();
        assert_eq!(
            report.outputs[1],
            vec![1, 2, 1001, 3, 1002],
            "never run after halting"
        );
        assert_eq!(report.outputs[2], vec![1, 10]);
        let halted: Vec<_> = report.round_stats.iter().map(|r| r.halted).collect();
        assert_eq!(halted, [0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 3]);
    }

    /// Nodes on the path of [`MIXED_N`] nodes.
    const MIXED_N: usize = 40;

    /// Every node sends, broadcasts or stays silent by `(id, round)` and
    /// sleeps for a node-dependent stretch, so on a long path the wakers and
    /// sleepers of a round sit in different pool blocks.
    fn mixed_sleep(id: usize, round: u64) -> Step {
        if round >= 24 + id as u64 % 3 {
            return Step::Halt;
        }
        let wake = round + 1 + 4 * (id as u64 % 3);
        match (id as u64 * 7 + round * 3) % 5 {
            0 => Step::Broadcast(wake),
            1 if id > 0 => Step::SendTo(id - 1, wake),
            2 if id + 1 < MIXED_N => Step::SendTo(id + 1, wake),
            _ => Step::Sleep(wake),
        }
    }

    #[test]
    fn pool_wakes_exactly_the_sync_sleepers_across_blocks() {
        let g = path_graph(MIXED_N);
        let seq = SyncExecutor
            .run(
                &g,
                scripted(MIXED_N, mixed_sleep),
                &ExecutorConfig::default(),
            )
            .unwrap();
        let runs = seq.outputs.iter().flatten().filter(|&&e| e < 1000).count();
        assert!(seq.messages > 0, "nodes woke each other");
        assert!(runs < MIXED_N * 24, "some node-rounds slept: {runs}");
        for threads in [1usize, 2, 3, 5, 16, 64] {
            let par = PooledExecutor::new(threads)
                .run(
                    &g,
                    scripted(MIXED_N, mixed_sleep),
                    &ExecutorConfig::default(),
                )
                .unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn report_charges_ledger_through_unified_path() {
        use crate::ledger::PhaseKind;
        let g = path_graph(5);
        let report = SyncExecutor
            .run(&g, min_id_programs(5, 5), &ExecutorConfig::default())
            .unwrap();
        let mut ledger = RoundLedger::new();
        report.charge(
            &mut ledger,
            PhaseSpec::new(PhaseKind::Other, "min-id flood"),
        );
        report.charge(
            &mut ledger,
            PhaseSpec::new(PhaseKind::Other, "min-id flood vs diameter bound").with_formula(5),
        );
        assert_eq!(ledger.total_simulated_rounds(), 2 * report.rounds);
        assert_eq!(ledger.total_messages(), 2 * report.messages);
        assert_eq!(ledger.measured_rounds(None), 2 * report.rounds);
        assert_eq!(ledger.phases()[1].formula_rounds, Some(5));
        assert_eq!(ledger.phases()[1].mode, PhaseMode::Measured);
    }
}

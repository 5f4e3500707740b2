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
//! [`NodeBlock`]s; each block runs an **execute pass** (every live node
//! against the inbox the backend supplies), then a **commit pass** (every
//! outbox drained in node order into the sink the backend supplies). One
//! [`RoundFold`] takes the blocks' per-round [`BlockRound`] sub-totals in
//! block order, applies the halting, round-limit and first-error rules,
//! records [`RoundStats`] and assembles the [`RunReport`]. Only where
//! inboxes come from and where committed units go differs per backend:
//!
//! * [`SyncExecutor`] — one block over an [`ArenaDelivery`] on the calling
//!   thread; the reference semantics every other backend is pinned against.
//! * [`crate::pool::PooledExecutor`] — one block per worker thread, moving
//!   committed units through transfer cells between two barriers.
//! * the socket backend of the `congest_transport` crate — one block per
//!   process, exchanging cross-block units with its peer once per round.
//!
//! Reports are bit-identical across backends because block order is node
//! order, a slot's last write wins in its one sender's send order,
//! [`Accounting::fold`] is associative, and the lowest block's error is the
//! first error in node order.
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

/// Configuration of an [`Executor`] run.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Abort with [`ExecutionError::RoundLimitExceeded`] after this many rounds.
    pub max_rounds: u64,
    /// Bandwidth budget per message in bits; `None` selects
    /// [`crate::congest_bandwidth_bits`] for the graph (CONGEST). Use a huge
    /// budget to simulate the LOCAL model (all charging is saturating, so
    /// `usize::MAX` is safe).
    pub bandwidth_bits: Option<usize>,
    /// If `true`, a message exceeding the budget aborts the run; if `false`
    /// the violation is only counted in the report.
    pub enforce_bandwidth: bool,
    /// If `true` (the default), the report carries one [`RoundStats`] entry
    /// per executed round. Disable for very long runs where only totals
    /// matter.
    pub record_round_stats: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            max_rounds: 1_000_000,
            bandwidth_bits: None,
            enforce_bandwidth: false,
            record_round_stats: true,
        }
    }
}

impl ExecutorConfig {
    /// A configuration for the LOCAL model: unbounded messages. The engine's
    /// charging path uses saturating arithmetic throughout, so the
    /// `usize::MAX` budget cannot overflow any accumulator.
    pub fn local_model() -> Self {
        ExecutorConfig {
            bandwidth_bits: Some(usize::MAX),
            ..ExecutorConfig::default()
        }
    }

    /// A strict CONGEST configuration: the default bandwidth is enforced.
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
    /// Per-round statistics (empty if `record_round_stats` was off).
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
    /// non-neighbor, exceeds an enforced bandwidth budget) or if the round
    /// limit is hit.
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
/// backend. It has two parts, both double-buffered:
///
/// * the per-edge arena for explicit sends — slot `slot_range(v).start + i`
///   holds the message *received by* `v` from its `i`-th CSR neighbor;
///   senders write through the [`TopologyCache`](crate::TopologyCache)
///   mirror so the write side is the receiver's inbox range;
/// * the sender-indexed broadcast table — entry `u` holds the one payload
///   node `u` broadcast, which every neighbor's [`Inbox`] reads (a pull, so
///   a broadcast costs one store instead of `deg(u)` scattered copies).
///
/// Within one round, several [`ArenaDelivery::queue`] calls for the same
/// slot keep the *last* message (all writes to one slot come from one
/// sender, in that sender's send order), and [`ArenaDelivery::advance`]
/// publishes exactly the queued units as the next round's
/// [`ArenaDelivery::inbox`] views.
pub struct ArenaDelivery<M> {
    /// Messages delivered this round (read side).
    cur: Vec<Option<M>>,
    /// Messages queued for the next round (write side).
    next: Vec<Option<M>>,
    /// Slots occupied on the read side — the ones to clear on the next
    /// [`ArenaDelivery::advance`], so a sparse round (a few deciders in an
    /// otherwise idle schedule, the tail of a mostly-halted run) pays for the
    /// messages it actually carried instead of an `O(m)` full-arena sweep.
    cur_written: Vec<usize>,
    /// Slots written on the write side this round, each listed exactly once
    /// (duplicate sends to one neighbor overwrite in place).
    next_written: Vec<usize>,
    /// Broadcast payloads delivered this round, indexed by sender.
    cur_table: Vec<Option<M>>,
    /// Broadcast payloads queued for the next round, indexed by sender.
    next_table: Vec<Option<M>>,
    /// Senders occupying `cur_table`, cleared through this list.
    cur_senders: Vec<usize>,
    /// Senders queued into `next_table` this round, each listed once.
    next_senders: Vec<usize>,
}

impl<M> ArenaDelivery<M> {
    /// An empty store: one arena slot per directed edge of `graph` and one
    /// table entry per node, on each side.
    pub fn new(graph: &Graph) -> Self {
        let none = |len| std::iter::repeat_with(|| None).take(len).collect();
        ArenaDelivery {
            cur: none(graph.slot_count()),
            next: none(graph.slot_count()),
            cur_written: Vec::new(),
            next_written: Vec::new(),
            cur_table: none(graph.n()),
            next_table: none(graph.n()),
            cur_senders: Vec::new(),
            next_senders: Vec::new(),
        }
    }

    /// Stages `msg` for delivery into destination arena slot `slot` at the
    /// start of the next round. A later `queue` to the same slot within the
    /// same round replaces the message (one message per edge per round).
    pub fn queue(&mut self, slot: usize, msg: M) {
        // Record the slot in `next_written` only on first occupancy so the
        // sparse clear in `advance` touches each slot once.
        if self.next[slot].replace(msg).is_some() {
            debug_assert!(self.next_written.contains(&slot));
        } else {
            self.next_written.push(slot);
        }
    }

    /// Stages `sender`'s broadcast payload: one table entry that every
    /// neighbor of `sender` reads next round. Caller contract: `sender` has
    /// staged nothing else this round — no other broadcast and no per-edge
    /// send (`Outbox::broadcast` keeps a lone payload only on an otherwise
    /// empty outbox), so each of its neighbors has exactly one source.
    /// Backends that take senders from untrusted input check
    /// [`ArenaDelivery::broadcast_staged`] first.
    pub fn queue_broadcast(&mut self, sender: usize, msg: M) {
        debug_assert!(!self.broadcast_staged(sender), "one broadcast per sender");
        self.next_table[sender] = Some(msg);
        self.next_senders.push(sender);
    }

    /// Whether `sender` already has a broadcast staged for the next round.
    pub fn broadcast_staged(&self, sender: usize) -> bool {
        self.next_table[sender].is_some()
    }

    /// Ends the round: the queued messages become current and the previous
    /// round's are dropped, clearing only the slots and table entries that
    /// were actually occupied (no allocation).
    pub fn advance(&mut self) {
        for &slot in &self.cur_written {
            self.cur[slot] = None;
        }
        for &sender in &self.cur_senders {
            self.cur_table[sender] = None;
        }
        self.cur_written.clear();
        self.cur_senders.clear();
        std::mem::swap(&mut self.cur, &mut self.next);
        std::mem::swap(&mut self.cur_written, &mut self.next_written);
        std::mem::swap(&mut self.cur_table, &mut self.next_table);
        std::mem::swap(&mut self.cur_senders, &mut self.next_senders);
    }

    /// The current round's inbox of node `v`: its delivered arena slots
    /// merged with the broadcast table.
    pub fn inbox<'a>(&'a self, graph: &'a Graph, v: NodeId) -> Inbox<'a, M> {
        let edges_delivered = !self.cur_written.is_empty();
        let slots = &self.cur[graph.slot_range(v)];
        merged_inbox(graph, v, slots, edges_delivered, &self.cur_table)
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

/// Running totals for the charging path. All accumulation is saturating so a
/// LOCAL-model `usize::MAX` budget (or absurdly long runs) cannot overflow.
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

/// One committed unit the commit pass hands to the backend's sink: either a
/// single per-edge message already resolved to its destination arena slot,
/// or a broadcast payload the backend stores once under the sender's id (the
/// storage/wire fast path — the CONGEST charge for all `deg` copies has
/// already been applied by the time the sink sees it).
#[derive(Debug)]
pub enum Committed<M> {
    /// One message for one destination arena slot.
    Edge(usize, M),
    /// One broadcast payload standing for a copy to every neighbor. It is
    /// stored once in a sender-indexed table; each neighbor's [`Inbox`]
    /// pulls it from there (see [`ArenaDelivery::queue_broadcast`]).
    Fan(M),
}

/// One block's sub-totals for one round, as its commit pass leaves them.
/// [`RoundFold::fold`] folds them in block order.
#[derive(Debug, Default)]
pub struct BlockRound {
    /// Messages, payloads, bits, largest message and violations charged by
    /// the block's commit pass.
    pub acct: Accounting,
    /// Nodes of the block that halted in the round's execute pass.
    pub newly_halted: usize,
    /// The block's first error, in node and send order; the commit pass
    /// stops there.
    pub error: Option<ExecutionError>,
}

/// The round kernel's node block: a contiguous node range with its programs,
/// halted flags, outputs, staged outboxes and invalid-target slots. The
/// programs stay in the caller's vector; the block borrows its range.
///
/// Every executor runs a round as the same two passes over its blocks: the
/// [execute pass](NodeBlock::execute) runs every live node against the inbox
/// the backend supplies, then the [commit pass](NodeBlock::commit) drains
/// every outbox in node order into the sink the backend supplies. Blocks are
/// built by [`RoundFold::block`].
pub struct NodeBlock<'a, P: NodeProgram> {
    graph: &'a Graph,
    /// First node of the block.
    first: usize,
    bandwidth: usize,
    enforce: bool,
    programs: &'a mut [P],
    halted: Vec<bool>,
    outputs: Vec<Option<P::Output>>,
    pending: Vec<Pending<P::Message>>,
    invalid: Vec<Option<NodeId>>,
    /// Block-local indices of the nodes that halted in the last execute
    /// pass, in node order.
    newly: Vec<usize>,
}

impl<P: NodeProgram> NodeBlock<'_, P> {
    /// The execute pass of round `round`: `init` (round 0) or `round` of
    /// every live node in node order, each against `inbox(v)` and a fresh
    /// outbox. A node that halts records its output and stages nothing.
    pub fn execute<'i>(&mut self, round: u64, inbox: impl Fn(NodeId) -> Inbox<'i, P::Message>)
    where
        P::Message: 'i,
    {
        let graph = self.graph;
        self.newly.clear();
        for (i, program) in self.programs.iter_mut().enumerate() {
            if self.halted[i] {
                continue;
            }
            let id = NodeId(self.first + i);
            let ctx = NodeContext { id, graph, round };
            self.pending[i].clear();
            self.invalid[i] = None;
            let mut outbox = Outbox::over(
                graph.neighbors(id),
                &mut self.pending[i],
                &mut self.invalid[i],
            );
            if round == 0 {
                program.init(&ctx, &mut outbox);
            } else if let RoundAction::Halt(out) = program.round(&ctx, &inbox(id), &mut outbox) {
                self.outputs[i] = Some(out);
                self.halted[i] = true;
                self.newly.push(i);
                self.pending[i].clear();
            }
        }
    }

    /// The commit pass: drains every staged outbox in node order, charging
    /// each message and handing each committed unit to `sink` with its
    /// sender. It stops at the block's first error, which is the first in
    /// node and send order, and leaves the rest uncharged.
    pub fn commit(&mut self, mut sink: impl FnMut(NodeId, Committed<P::Message>)) -> BlockRound {
        let graph = self.graph;
        let mirror = &graph.topology().mirror;
        let mut sub = BlockRound {
            newly_halted: self.newly.len(),
            ..BlockRound::default()
        };
        for i in 0..self.programs.len() {
            if let Err(e) = self.drain_outbox(i, mirror, &mut sub.acct, &mut sink) {
                sub.error = Some(e);
                break;
            }
        }
        sub
    }

    /// Drains node `i`'s staged output: resolves each send to its destination
    /// arena slot through `mirror`, charges it into `acct`, and hands each
    /// committed unit to `sink` in send order.
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
    fn drain_outbox(
        &mut self,
        i: usize,
        mirror: &[usize],
        acct: &mut Accounting,
        sink: &mut impl FnMut(NodeId, Committed<P::Message>),
    ) -> Result<(), ExecutionError> {
        let from = NodeId(self.first + i);
        let budget = self.bandwidth;
        let targets = &mirror[self.graph.slot_range(from)];
        let pending = &mut self.pending[i];
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
                let to = self.invalid[i].expect("invalid slot without recorded target");
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

    /// The nodes that halted in the last execute pass, in node order, with
    /// their outputs.
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
    record_round_stats: bool,
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
            record_round_stats: config.record_round_stats,
            bandwidth: config
                .bandwidth_bits
                .unwrap_or_else(|| crate::congest_bandwidth_bits(n)),
            enforce: config.enforce_bandwidth,
            acct: Accounting::default(),
            round_stats: Vec::new(),
            halted: 0,
            rounds: 0,
            error: None,
        })
    }

    /// The bandwidth budget the run is charged against, in bits.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
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
            halted: vec![false; len],
            outputs: std::iter::repeat_with(|| None).take(len).collect(),
            // Outboxes start empty: a lone broadcast stores one payload, and
            // mixed send patterns grow their vec once and keep the capacity.
            pending: std::iter::repeat_with(Pending::new).take(len).collect(),
            invalid: vec![None; len],
            newly: Vec::new(),
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
        if self.record_round_stats {
            self.round_stats.push(RoundStats {
                round: self.rounds,
                messages: round.messages,
                bits: round.bits,
                halted: self.halted,
            });
        }
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
        block.execute(round, |v| delivery.inbox(graph, v));
        let sub = block.commit(|from, unit| match unit {
            Committed::Edge(slot, msg) => delivery.queue(slot, msg),
            Committed::Fan(msg) => delivery.queue_broadcast(from.0, msg),
        });
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

        // The same messages are fine in the LOCAL model, and the saturating
        // charging path digests the usize::MAX budget without overflow.
        let programs: Vec<_> = (0..2).map(|_| FatMessage).collect();
        let report = SyncExecutor
            .run(&g, programs, &ExecutorConfig::local_model())
            .unwrap();
        assert_eq!(report.bandwidth_violations, 0);
        assert_eq!(report.bandwidth_bits, usize::MAX);
        assert!(report.total_bits > 0);
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

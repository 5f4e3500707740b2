//! The CONGEST programming model: per-node state machines.
//!
//! Algorithms implemented against [`NodeProgram`] run exactly as the CONGEST
//! model prescribes: in every round each node may send one message to each of
//! its neighbors, all messages are delivered at the beginning of the next
//! round, and each message is charged against the bandwidth budget. The
//! executors that drive programs live in [`crate::engine`].

use crate::message::{MessageSize, Wire};
use crate::{Graph, NodeId};

/// Read-only view of a node's environment handed to the node program.
#[derive(Debug, Clone, Copy)]
pub struct NodeContext<'a> {
    /// The node executing the program.
    pub id: NodeId,
    /// The network graph. Programs may only use *local* information (their
    /// own adjacency); the full reference is exposed for convenience but
    /// well-behaved programs restrict themselves to `neighbors()`/`degree()`.
    pub graph: &'a Graph,
    /// The current round, starting at `1` for the first invocation of
    /// [`NodeProgram::round`]. During [`NodeProgram::init`] the value is `0`.
    pub round: u64,
}

impl<'a> NodeContext<'a> {
    /// Number of nodes in the network (global knowledge of `n` is standard in
    /// the CONGEST model).
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Degree of the executing node.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.id)
    }

    /// Neighbors of the executing node.
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.graph.neighbors(self.id)
    }

    /// Maximum degree of the network (also commonly assumed global knowledge).
    pub fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }
}

/// Messages received by a node at the start of a round, tagged by sender.
///
/// An inbox is a zero-copy view over two delivery sources: the node's range
/// of the engine's per-edge arena, where slot `i` holds an explicit send
/// from the node's `i`-th CSR neighbor, and the sender-indexed broadcast
/// table, where entry `u` holds the one payload node `u` broadcast. The
/// message from neighbor `u` is its edge slot if `u` sent explicitly and its
/// table entry otherwise; a broadcasting node sends nothing else in that
/// round (see [`Pending`]), so at most one of the two is set. Senders are in
/// CSR order, so iteration is sorted by sender and [`Inbox::from`] is an
/// `O(log deg)` binary search (at most one message per neighbor per round —
/// the CONGEST contract).
///
/// Which reader to use: a program that folds every neighbor's message into
/// one value (a sum, a maximum, a minimum), where a silent neighbor counts
/// as the fold's identity, reads with [`Inbox::iter_or`]. It picks between
/// the table entry and the identity without a branch, which pays when
/// senders fall silent in no predictable pattern. A program that acts per
/// sender, or must tell silence from a message, matches with
/// [`Inbox::iter`], [`Inbox::iter_slots`] or [`Inbox::from`].
#[derive(Debug, Clone, Copy)]
pub struct Inbox<'a, M> {
    senders: &'a [NodeId],
    slots: &'a [Option<M>],
    table: &'a [Option<M>],
}

impl<'a, M> Inbox<'a, M> {
    /// Builds the view over a node's (sorted) neighbor slice, the matching
    /// arena slots and the sender-indexed broadcast table (one entry per
    /// node of the graph). `slots` may be empty when no per-edge message was
    /// delivered this round; the view is then a pure gather from `table`.
    /// Part of the engine SPI: the executors' delivered-message stores
    /// construct inboxes; programs only ever consume them.
    pub fn over(senders: &'a [NodeId], slots: &'a [Option<M>], table: &'a [Option<M>]) -> Self {
        debug_assert!(slots.is_empty() || slots.len() == senders.len());
        Inbox {
            senders,
            slots,
            table,
        }
    }

    /// The message from the `i`-th CSR neighbor `sender`: its edge slot if
    /// it sent explicitly, its broadcast table entry otherwise.
    fn get(&self, i: usize, sender: NodeId) -> Option<&'a M> {
        match self.slots.get(i) {
            Some(Some(m)) => Some(m),
            _ => self.table[sender.0].as_ref(),
        }
    }

    /// Iterates over `(sender, message)` pairs, in increasing sender order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &'a M)> + '_ {
        self.iter_slots().filter_map(|(s, m)| m.map(|m| (s, m)))
    }

    /// Iterates over every neighbor slot — `(neighbor, received message)` —
    /// whether or not the neighbor sent this round. Slot `i` is the `i`-th
    /// CSR neighbor, which lets programs keep per-neighbor state in a dense
    /// vector indexed by neighbor position.
    pub fn iter_slots(&self) -> impl Iterator<Item = (NodeId, Option<&'a M>)> + '_ {
        self.senders
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, self.get(i, s)))
    }

    /// Iterates over every neighbor slot's message in CSR order, yielding
    /// `absent` for a neighbor that sent nothing: the same sequence as
    /// `iter_slots().map(|(_, m)| m.unwrap_or(absent))`. Pass the identity
    /// of the fold that consumes it (`0` for a sum, `-∞` for a maximum).
    ///
    /// The table read has no branch on the entry's discriminant: both
    /// candidates are one-element slices, and
    /// [`std::hint::select_unpredictable`] picks one with a conditional
    /// move, so a table with silent senders in random places costs no
    /// mispredictions. Only the edge-slot lookup of a round that mixes
    /// sends and broadcasts branches.
    pub fn iter_or(&self, absent: &'a M) -> impl Iterator<Item = &'a M> + '_ {
        let absent = std::slice::from_ref(absent);
        self.senders
            .iter()
            .enumerate()
            .map(move |(i, &s)| match self.slots.get(i) {
                Some(Some(m)) => m,
                _ => {
                    let entry = &self.table[s.0];
                    &std::hint::select_unpredictable(entry.is_some(), entry.as_slice(), absent)[0]
                }
            })
    }

    /// The message received from `sender`, if any. `O(log deg)`.
    pub fn from(&self, sender: NodeId) -> Option<&'a M> {
        let idx = self.senders.binary_search(&sender).ok()?;
        self.get(idx, sender)
    }

    /// Number of messages received this round (`O(deg)`).
    pub fn len(&self) -> usize {
        self.iter_slots().filter(|(_, m)| m.is_some()).count()
    }

    /// Whether no messages were received this round.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A queued outgoing message: the target's position in the sender's CSR
/// neighbor list (resolved at send time; [`INVALID_SLOT`] if the target is
/// not a neighbor) and the payload.
///
/// Deliberately compact — the commit loop streams millions of these per
/// round at scale. The slot is a `u32` (a degree beyond `u32::MAX - 1` is
/// unrepresentable in a single node's CSR range long before memory runs out)
/// and the target id is *not* stored: a valid slot already identifies the
/// receiver, and the one case that needs the raw target — reporting a send
/// to a non-neighbor — parks it in the outbox's invalid-target scratch
/// instead of widening every message by 8 bytes.
#[derive(Debug, Clone)]
pub struct OutMsg<M> {
    /// Target's position in the sender's CSR neighbor list, or
    /// [`INVALID_SLOT`].
    pub slot: u32,
    /// The payload.
    pub msg: M,
}

/// Sentinel slot for a send to a non-neighbor; the engine turns it into
/// [`crate::engine::ExecutionError::NotANeighbor`] when the round commits.
pub const INVALID_SLOT: u32 = u32::MAX;

/// A node's staged output for one round: the per-edge send list plus an
/// optional *pending broadcast* — one stored payload that stands for a copy
/// to every neighbor. It is delivered once into the sender-indexed broadcast
/// table, where every neighbor's [`Inbox`] reads it, instead of being
/// materialized `deg` times.
///
/// Invariant: `broadcast.is_some()` implies `sends.is_empty()`. The fast
/// path only engages for a lone [`Outbox::broadcast`] on an otherwise empty
/// outbox; any subsequent call (a second broadcast, or an explicit send)
/// first materializes the stored payload into per-edge sends, so the commit
/// order the sequential engine would have observed is preserved exactly.
/// This is also what lets an inbox merge the two delivery sources: a sender
/// either fills its table entry or its edge slots in a round, never both.
#[derive(Debug)]
pub struct Pending<M> {
    pub(crate) sends: Vec<OutMsg<M>>,
    pub(crate) broadcast: Option<M>,
}

impl<M> Pending<M> {
    /// An empty staging area. Engine SPI: the round kernel keeps one per
    /// node block, drains it right after each node runs and reuses it, so
    /// the steady-state loop performs no allocation.
    pub fn new() -> Self {
        Pending {
            sends: Vec::new(),
            broadcast: None,
        }
    }

    /// Discards everything staged for this round.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.broadcast = None;
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.broadcast.is_none()
    }
}

impl<M> Default for Pending<M> {
    fn default() -> Self {
        Pending::new()
    }
}

/// Staging area for the messages a node sends at the end of a round.
///
/// The [`Pending`] buffer behind an outbox is owned by the engine and reused
/// across rounds, so the steady-state round loop performs no allocation.
/// A lone [`Outbox::broadcast`] stores *one* payload (delivered once, read by
/// every neighbor); mixed with explicit sends it falls back to enumerating
/// the CSR neighbor list directly, so broadcast messages carry their
/// delivery slot for free. Explicit [`Outbox::send`]s resolve the slot with one
/// `O(log deg)` search. Sending twice to the same neighbor in one round is
/// allowed; the engine keeps the *last* message (one message per edge per
/// round, as CONGEST prescribes).
#[derive(Debug)]
pub struct Outbox<'a, M> {
    neighbors: &'a [NodeId],
    pending: &'a mut Pending<M>,
    /// First non-neighbor target this node addressed this round, if any —
    /// the engine resolves the [`INVALID_SLOT`] it finds first (which is the
    /// send recorded here) into a
    /// [`crate::engine::ExecutionError::NotANeighbor`] carrying this target.
    invalid_to: &'a mut Option<NodeId>,
}

impl<'a, M> Outbox<'a, M> {
    /// Wraps a reusable staging area (and invalid-target scratch) for the
    /// node whose neighbor list is given. Part of the engine SPI: the round
    /// kernel hands one to every node it runs.
    pub fn over(
        neighbors: &'a [NodeId],
        pending: &'a mut Pending<M>,
        invalid_to: &'a mut Option<NodeId>,
    ) -> Self {
        Outbox {
            neighbors,
            pending,
            invalid_to,
        }
    }

    /// Converts a stored broadcast payload into the per-edge sends the
    /// sequential commit would have seen, preserving slot order.
    fn materialize(&mut self)
    where
        M: Clone,
    {
        if let Some(msg) = self.pending.broadcast.take() {
            for slot in 0..self.neighbors.len() {
                self.pending.sends.push(OutMsg {
                    slot: slot as u32,
                    msg: msg.clone(),
                });
            }
        }
    }

    /// Queues a message to `to`. The engine reports an error for a `to` that
    /// is not a neighbor when the round is committed.
    pub fn send(&mut self, to: NodeId, message: M)
    where
        M: Clone,
    {
        self.materialize();
        let slot = match self.neighbors.binary_search(&to) {
            Ok(i) => i as u32,
            Err(_) => {
                if self.invalid_to.is_none() {
                    *self.invalid_to = Some(to);
                }
                INVALID_SLOT
            }
        };
        self.pending.sends.push(OutMsg { slot, msg: message });
    }

    /// Queues a copy of `message` to every neighbor. On an otherwise empty
    /// outbox this stores the payload *once*; the engine delivers it once
    /// into the sender-indexed broadcast table, where every neighbor's inbox
    /// reads it (charging `deg` messages against the CONGEST budget all the
    /// same). On an isolated node (degree 0) this is a complete no-op.
    pub fn broadcast(&mut self, message: M)
    where
        M: Clone,
    {
        if self.neighbors.is_empty() {
            return;
        }
        if self.pending.is_empty() {
            self.pending.broadcast = Some(message);
            return;
        }
        self.materialize();
        for slot in 0..self.neighbors.len() {
            self.pending.sends.push(OutMsg {
                slot: slot as u32,
                msg: message.clone(),
            });
        }
    }

    /// Number of messages queued so far this round (a pending broadcast
    /// counts one per neighbor — the CONGEST charge, not the stored size).
    pub fn queued(&self) -> usize {
        self.pending.sends.len()
            + if self.pending.broadcast.is_some() {
                self.neighbors.len()
            } else {
                0
            }
    }
}

/// The decision a node takes at the end of a round.
#[derive(Debug, Clone)]
pub enum RoundAction<O> {
    /// Keep running; the messages queued in the [`Outbox`] are sent at the
    /// end of this round, and the node runs again next round.
    Continue,
    /// Keep running, but there is nothing to do before round `r` unless a
    /// message arrives. The queued messages are sent as with `Continue`;
    /// the node then runs again in round `r`, or in the first earlier round
    /// that delivers it a message. `SleepUntil(r)` with `r <= ctx.round + 1`
    /// is `Continue`, and `SleepUntil(u64::MAX)` sleeps until mail arrives.
    ///
    /// The executor skips the rounds in between. That is sound only if each
    /// skipped call, made with an empty inbox, would have queued nothing,
    /// changed no state a later round reads, and slept on: a sleeping
    /// program keys its schedule on [`NodeContext::round`], never on how
    /// often [`NodeProgram::round`] was called.
    SleepUntil(u64),
    /// Terminate locally with the given output. A halted node sends no
    /// further messages (its outbox is discarded) and ignores incoming ones.
    Halt(O),
}

/// A per-node state machine executed by an [`crate::engine::Executor`].
///
/// All nodes run the same program type but each node owns its own instance
/// (and therefore its own local state).
pub trait NodeProgram {
    /// Message type exchanged with neighbors. The [`Wire`] bound gives every
    /// message a canonical byte encoding, so any program can run unchanged on
    /// the socket backend that moves batches between OS processes (see the
    /// `congest_transport` crate).
    type Message: Clone + MessageSize + Wire;
    /// Local output produced when the node halts. Outputs are [`Wire`] too:
    /// multi-process backends ship each newly-halted node's output to the
    /// peer so every participant assembles the same complete
    /// [`crate::engine::RunReport`].
    type Output: Clone + Wire;

    /// Called once before the first round; messages queued in `outbox` are
    /// delivered in round 1.
    fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, Self::Message>);

    /// Called with the messages received in a round, once in every round
    /// from round 1 until the node halts, except the rounds a
    /// [`RoundAction::SleepUntil`] lets the executor skip. `ctx.round` says
    /// which round it is; a program that sleeps must read it rather than
    /// count its calls.
    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, Self::Message>,
        outbox: &mut Outbox<'_, Self::Message>,
    ) -> RoundAction<Self::Output>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `iter_or` is `iter_slots` with each silent neighbor read as
    /// `absent`.
    fn assert_iter_or_reads_silence_as<M: Copy + PartialEq + std::fmt::Debug>(
        inbox: &Inbox<'_, M>,
        absent: M,
    ) {
        let folded: Vec<M> = inbox.iter_or(&absent).copied().collect();
        let slotted: Vec<M> = inbox
            .iter_slots()
            .map(|(_, m)| *m.unwrap_or(&absent))
            .collect();
        assert_eq!(folded, slotted);
    }

    #[test]
    fn inbox_lookup_by_sender_is_binary_search_over_sorted_senders() {
        let senders = [NodeId(1), NodeId(3), NodeId(7)];
        let slots = [None, Some(42usize), Some(7)];
        let table = [None; 8];
        let inbox = Inbox::over(&senders, &slots, &table);
        assert_eq!(inbox.from(NodeId(3)), Some(&42));
        assert_eq!(inbox.from(NodeId(7)), Some(&7));
        assert_eq!(inbox.from(NodeId(1)), None, "neighbor that sent nothing");
        assert_eq!(inbox.from(NodeId(2)), None, "not a neighbor");
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        let collected: Vec<_> = inbox.iter().map(|(s, &m)| (s, m)).collect();
        assert_eq!(collected, vec![(NodeId(3), 42), (NodeId(7), 7)]);
        assert_eq!(inbox.iter_slots().count(), 3);
    }

    /// Node with neighbors 1, 3, 5, 7: 1 broadcast (table), 3 and 7 sent
    /// explicitly (edge slots), 5 stayed silent. Table entries of
    /// non-neighbors 0 and 4 must never show up.
    #[test]
    fn inbox_merges_edge_slots_and_the_broadcast_table_in_csr_order() {
        let senders = [NodeId(1), NodeId(3), NodeId(5), NodeId(7)];
        let slots = [None, Some(30u32), None, Some(70)];
        let mut table = [None; 8];
        table[0] = Some(0);
        table[1] = Some(10);
        table[4] = Some(40);
        let inbox = Inbox::over(&senders, &slots, &table);
        let heard: Vec<_> = inbox.iter().map(|(s, &m)| (s.0, m)).collect();
        assert_eq!(heard, vec![(1, 10), (3, 30), (7, 70)]);
        let slotted: Vec<_> = inbox.iter_slots().map(|(s, m)| (s.0, m.copied())).collect();
        assert_eq!(
            slotted,
            vec![(1, Some(10)), (3, Some(30)), (5, None), (7, Some(70))]
        );
        assert_eq!(inbox.from(NodeId(1)), Some(&10), "read from the table");
        assert_eq!(inbox.from(NodeId(3)), Some(&30), "read from the edge slot");
        assert_eq!(inbox.from(NodeId(5)), None, "silent neighbor");
        assert_eq!(inbox.from(NodeId(4)), None, "table entry of a non-neighbor");
        assert_eq!(inbox.len(), 3);
        let folded: Vec<_> = inbox.iter_or(&u32::MAX).copied().collect();
        assert_eq!(folded, vec![10, 30, u32::MAX, 70]);
        assert_iter_or_reads_silence_as(&inbox, u32::MAX);
        assert_iter_or_reads_silence_as(&inbox, 0);
    }

    /// With no per-edge message delivered, executors pass an empty edge
    /// slice and the view is a pure gather from the table.
    #[test]
    fn inbox_over_an_empty_edge_slice_reads_only_the_table() {
        let senders = [NodeId(0), NodeId(2), NodeId(4)];
        let table = [Some(1u32), Some(5), None, Some(7), Some(9)];
        let inbox = Inbox::over(&senders, &[], &table);
        let heard: Vec<_> = inbox.iter().map(|(s, &m)| (s.0, m)).collect();
        assert_eq!(heard, vec![(0, 1), (4, 9)]);
        let slotted: Vec<_> = inbox.iter_slots().map(|(s, m)| (s.0, m.copied())).collect();
        assert_eq!(slotted, vec![(0, Some(1)), (2, None), (4, Some(9))]);
        assert_eq!(inbox.from(NodeId(4)), Some(&9));
        assert_eq!(inbox.from(NodeId(2)), None);
        assert_eq!(inbox.from(NodeId(3)), None, "not a neighbor");
        assert_eq!(inbox.len(), 2);
        let folded: Vec<_> = inbox.iter_or(&0).copied().collect();
        assert_eq!(folded, vec![1, 0, 9]);
        assert_iter_or_reads_silence_as(&inbox, 0);
        let silent: [Option<u32>; 5] = [None; 5];
        let silent = Inbox::over(&senders, &[], &silent);
        assert!(silent.is_empty());
        assert_eq!(silent.iter_or(&3).copied().collect::<Vec<_>>(), vec![3; 3]);
        assert_iter_or_reads_silence_as(&silent, 3);
    }

    #[test]
    fn empty_inbox() {
        let inbox: Inbox<'_, u32> = Inbox::over(&[], &[], &[]);
        assert!(inbox.is_empty());
        assert_eq!(inbox.len(), 0);
        assert_eq!(inbox.from(NodeId(0)), None);
        assert_eq!(inbox.iter_or(&0).count(), 0);
        assert_iter_or_reads_silence_as(&inbox, 0);
    }

    #[test]
    fn outbox_broadcast_reaches_every_neighbor() {
        let neighbors = [NodeId(2), NodeId(5)];
        let mut pending = Pending::new();
        let mut invalid = None;
        let mut outbox = Outbox::over(&neighbors, &mut pending, &mut invalid);
        outbox.broadcast(9u8);
        outbox.send(NodeId(2), 4u8);
        outbox.send(NodeId(3), 6u8);
        assert_eq!(outbox.queued(), 4);
        // The send after the broadcast materialized the stored payload into
        // per-edge messages, in exactly the order the legacy per-edge
        // broadcast produced.
        assert!(pending.broadcast.is_none());
        let queued: Vec<_> = pending.sends.iter().map(|m| (m.slot, m.msg)).collect();
        assert_eq!(queued, vec![(0, 9), (1, 9), (0, 4), (INVALID_SLOT, 6)]);
        assert_eq!(invalid, Some(NodeId(3)), "first bad target recorded");
    }

    #[test]
    fn lone_broadcast_stores_one_payload() {
        let neighbors = [NodeId(2), NodeId(5), NodeId(8)];
        let mut pending = Pending::new();
        let mut invalid = None;
        let mut outbox = Outbox::over(&neighbors, &mut pending, &mut invalid);
        outbox.broadcast(7u8);
        assert_eq!(outbox.queued(), 3, "CONGEST charge is still per neighbor");
        assert!(pending.sends.is_empty(), "no per-edge copies materialized");
        assert_eq!(pending.broadcast, Some(7));
        pending.clear();
        assert!(pending.is_empty());
    }

    #[test]
    fn double_broadcast_materializes_both_in_order() {
        let neighbors = [NodeId(1), NodeId(4)];
        let mut pending = Pending::new();
        let mut invalid = None;
        let mut outbox = Outbox::over(&neighbors, &mut pending, &mut invalid);
        outbox.broadcast(1u8);
        outbox.broadcast(2u8);
        assert_eq!(outbox.queued(), 4);
        assert!(pending.broadcast.is_none());
        let queued: Vec<_> = pending.sends.iter().map(|m| (m.slot, m.msg)).collect();
        assert_eq!(queued, vec![(0, 1), (1, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn broadcast_on_an_isolated_node_is_a_no_op() {
        let neighbors: [NodeId; 0] = [];
        let mut pending = Pending::new();
        let mut invalid = None;
        let mut outbox = Outbox::over(&neighbors, &mut pending, &mut invalid);
        outbox.broadcast(3u8);
        assert_eq!(outbox.queued(), 0);
        assert!(pending.is_empty(), "degree 0 stores nothing at all");
    }

    #[test]
    fn outbox_records_the_first_invalid_target_only() {
        let neighbors = [NodeId(1)];
        let mut pending = Pending::new();
        let mut invalid = None;
        let mut outbox = Outbox::over(&neighbors, &mut pending, &mut invalid);
        outbox.send(NodeId(9), 1u8);
        outbox.send(NodeId(4), 2u8);
        assert_eq!(invalid, Some(NodeId(9)));
    }

    #[test]
    fn outmsg_is_compact() {
        // The commit loop streams these; the `to` field was deliberately
        // dropped and the slot narrowed so small payloads stay small.
        assert_eq!(std::mem::size_of::<OutMsg<f64>>(), 16);
        assert!(std::mem::size_of::<OutMsg<u32>>() <= 8);
    }
}

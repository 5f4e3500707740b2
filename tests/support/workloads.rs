//! Engine workloads shared by the executor-equivalence suite
//! (`tests/properties.rs`) and the transport-conformance suite
//! (`tests/transport_conformance.rs`), so every backend is held to the same
//! programs over the same graph families.

use congest_mds::congest::{Graph, Inbox, NodeContext, NodeId, NodeProgram, Outbox, RoundAction};
use congest_mds::graphs::generators;
use proptest::prelude::*;

/// Strategy: a graph drawn from one of several structurally distinct
/// families (sparse and dense random, trees, hubs, geometric, regular),
/// exercising very different CSR block shapes for the pooled executor.
pub fn family_graph_strategy() -> impl Strategy<Value = Graph> {
    (0usize..7, 2usize..60, 1u32..30, 0u64..1000).prop_map(
        |(family, n, p_num, seed)| match family {
            0 => generators::gnp(n, p_num as f64 / 100.0, seed),
            1 => generators::cycle(n),
            2 => generators::star(n),
            3 => generators::random_tree(n, seed),
            4 => generators::unit_disk(n, 0.05 + p_num as f64 / 60.0, seed),
            5 => generators::random_regular(n, (p_num as usize % 4 + 1).min(n - 1), seed),
            _ => generators::grid(1 + n / 8, 1 + p_num as usize % 6),
        },
    )
}

/// Engine property-test workload: floods the minimum id for `depth` rounds.
/// Nodes halt at staggered times (`depth + id % 3`), exercising the halted
/// bookkeeping of both executors.
pub struct StaggeredFlood {
    best: usize,
    depth: u64,
}

impl NodeProgram for StaggeredFlood {
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
        if ctx.round >= self.depth + (ctx.id.0 % 3) as u64 {
            RoundAction::Halt(self.best)
        } else {
            outbox.broadcast(NodeId(self.best));
            RoundAction::Continue
        }
    }
}

pub fn staggered_programs(n: usize, depth: u64) -> Vec<StaggeredFlood> {
    (0..n)
        .map(|_| StaggeredFlood {
            best: usize::MAX,
            depth,
        })
        .collect()
}

/// The per-edge twin of [`StaggeredFlood`]: identical logic, but every
/// `broadcast` is replaced by one explicit `send` per neighbor. The engine
/// stores `deg(v)` payloads per round for this twin where the broadcast
/// program stores one, and a socket ships one batch entry per edge instead
/// of one broadcast entry per node — everything else it reports must be
/// bit-identical.
pub struct StaggeredFloodSends {
    best: usize,
    depth: u64,
}

impl NodeProgram for StaggeredFloodSends {
    type Message = NodeId;
    type Output = usize;

    fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, NodeId>) {
        self.best = ctx.id.0;
        for &to in ctx.neighbors() {
            outbox.send(to, NodeId(self.best));
        }
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
        if ctx.round >= self.depth + (ctx.id.0 % 3) as u64 {
            RoundAction::Halt(self.best)
        } else {
            for &to in ctx.neighbors() {
                outbox.send(to, NodeId(self.best));
            }
            RoundAction::Continue
        }
    }
}

pub fn sends_programs(n: usize, depth: u64) -> Vec<StaggeredFloodSends> {
    (0..n)
        .map(|_| StaggeredFloodSends {
            best: usize::MAX,
            depth,
        })
        .collect()
}

/// One node's action in one round of [`MixedFlood`], picked from
/// `(id, round)` so that a receiver hears some neighbors through the
/// broadcast table and others through edge slots in the same round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MixedAction {
    /// A lone broadcast: one stored payload.
    Broadcast,
    /// Explicit sends to the neighbors at even positions.
    Subset,
    /// A broadcast, then a send to the first neighbor, which materializes
    /// the broadcast into per-edge sends (the first neighbor keeps the last).
    BroadcastThenSend,
    /// Nothing at all.
    Silent,
}

impl MixedAction {
    fn pick(id: usize, round: u64) -> MixedAction {
        match (id as u64 * 7 + round * 3 + id as u64 * round) % 4 {
            0 => MixedAction::Broadcast,
            1 => MixedAction::Subset,
            2 => MixedAction::BroadcastThenSend,
            _ => MixedAction::Silent,
        }
    }
}

/// Min-id flood whose nodes mix the four [`MixedAction`]s and halt at
/// staggered times (`depth + id % 3`). The output digests every
/// `(sender, message)` pair of every inbox — read through `iter`,
/// `iter_slots`, `iter_or`, `from` and `len` — so any difference in what a
/// node heard shows up in the outputs. With `sends_only` every broadcast is
/// replaced by one explicit send per neighbor: the all-sends twin.
pub struct MixedFlood {
    best: u64,
    digest: usize,
    depth: u64,
    sends_only: bool,
}

impl MixedFlood {
    fn broadcast(&self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u64>, msg: u64) {
        if self.sends_only {
            for &to in ctx.neighbors() {
                outbox.send(to, msg);
            }
        } else {
            outbox.broadcast(msg);
        }
    }

    fn act(&self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u64>) {
        let msg = self.best << 8 | (ctx.round & 0xff);
        match MixedAction::pick(ctx.id.0, ctx.round) {
            MixedAction::Broadcast => self.broadcast(ctx, outbox, msg),
            MixedAction::Subset => {
                for &to in ctx.neighbors().iter().step_by(2) {
                    outbox.send(to, msg + 1);
                }
            }
            MixedAction::BroadcastThenSend => {
                self.broadcast(ctx, outbox, msg);
                if let Some(&first) = ctx.neighbors().first() {
                    outbox.send(first, msg + 2);
                }
            }
            MixedAction::Silent => {}
        }
    }
}

impl NodeProgram for MixedFlood {
    type Message = u64;
    type Output = usize;

    fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u64>) {
        self.best = ctx.id.0 as u64;
        self.act(ctx, outbox);
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, u64>,
        outbox: &mut Outbox<'_, u64>,
    ) -> RoundAction<usize> {
        // No assertions in here: a failed one would only end the run as
        // `ProgramPanicked`. Everything read goes into the digest, so a
        // difference shows up in the outputs.
        let heard = |m: Option<&u64>| m.map_or(0, |&m| m as usize + 1);
        let mut digest = self.digest.wrapping_mul(31).wrapping_add(inbox.len());
        for (i, (sender, msg)) in inbox.iter_slots().enumerate() {
            digest = digest
                .wrapping_mul(1_000_003)
                .wrapping_add(heard(msg) ^ i)
                .wrapping_mul(31)
                .wrapping_add(heard(inbox.from(sender)));
        }
        for (sender, &m) in inbox.iter() {
            self.best = self.best.min(m >> 8);
            digest = digest.wrapping_mul(31).wrapping_add(sender.0);
        }
        // A silent neighbor folds in as `u64::MAX`, which no message is.
        for &m in inbox.iter_or(&u64::MAX) {
            digest = digest.wrapping_mul(1_000_033).wrapping_add(m as usize);
        }
        self.digest = digest;
        if ctx.round >= self.depth + (ctx.id.0 % 3) as u64 {
            RoundAction::Halt(self.digest ^ self.best as usize)
        } else {
            self.act(ctx, outbox);
            RoundAction::Continue
        }
    }
}

pub fn mixed_programs(n: usize, depth: u64, sends_only: bool) -> Vec<MixedFlood> {
    (0..n)
        .map(|_| MixedFlood {
            best: u64::MAX,
            digest: 0,
            depth,
            sends_only,
        })
        .collect()
}

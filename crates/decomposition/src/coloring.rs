//! Deterministic distance-two colorings (Lemma 3.12).
//!
//! The coloring-based derandomization (Lemma 3.10) processes the nodes that
//! flip coins one color class at a time, where two nodes of the same color
//! must not share a constraint (i.e. they are at distance > 2 in the bipartite
//! constraint/value graph). Lemma 3.12 colors the right-hand side of a
//! bipartite graph with at most `Δ_L·Δ_R` colors in
//! `O(Δ_L·Δ_R + Δ_L·log* n)` CONGEST rounds via \[BEK15\]; as documented in
//! `DESIGN.md` (substitution R4) we obtain the same number of colors with an
//! *ID-based initial coloring followed by iterative color reduction* on the
//! conflict graph, and the reduction runs as a **measured** engine program.
//!
//! Two executions of the same reduction rule are provided:
//!
//! * [`bipartite_distance_two_coloring`] — the **central oracle**: computes
//!   the [`ColoringSchedule`] (residue batches of the trivial ID coloring
//!   and reduction steps, both functions of the IDs and the topology only)
//!   and fixes the final colors step by step in one loop. It charges no
//!   rounds: the measured engine run below is the only cost model.
//! * [`DistanceTwoColoringProgram`] — the **measured** CONGEST execution on
//!   the original network, built by [`distance_two_coloring_programs`], run
//!   by any [`congest_sim::Executor`] and read back by [`assemble_coloring`]:
//!   every reduction step spends exactly two engine rounds. In the odd round
//!   the step's nodes fix the smallest color not yet taken in their conflict
//!   neighborhood and broadcast it; in the even round the constraint owners
//!   (the left nodes, each hosted by the original node owning the
//!   constraint) relay the newly fixed colors to the still-undecided right
//!   nodes at distance two. Both executions evaluate the same smallest-free
//!   rule over the same processing order, so the engine output is
//!   bit-identical to the central oracle (proptest-enforced in
//!   `tests/coloring_conformance.rs`). Whoever runs it records the engine's
//!   `RunReport` as one measured phase (the pipeline's composer does).
//!
//! **Why the engine output equals the central greedy.** The schedule orders
//! the targets by `(batch, id)` — batches are the identifier residues modulo
//! `D + 1` for conflict degree `D` — and assigns each target the step
//! `1 + max(step of conflicting targets with smaller order)`. Two conflicting
//! targets therefore never share a step, and when a target decides, exactly
//! its smaller-order conflict partners have already fixed (and relayed) their
//! colors — the same forbidden set the sequential greedy sees when it
//! processes the targets in `(batch, id)` order. The final colors are *not*
//! derivable from the schedule: they genuinely depend on the relayed
//! messages (the schedule only says when a node decides, never what it
//! decides).

use congest_sim::{
    Graph, Inbox, MessageSize, NodeContext, NodeId, NodeProgram, Outbox, RoundAction, Wire,
};
use mds_graphs::BipartiteGraph;

/// A coloring of the right-hand side of a bipartite graph such that two right
/// nodes sharing a left neighbor receive different colors.
#[derive(Debug, Clone, PartialEq)]
pub struct BipartiteColoring {
    /// Color of each right node (`usize::MAX` for nodes that were not asked
    /// to be colored).
    pub colors: Vec<usize>,
    /// Number of colors used.
    pub num_colors: usize,
}

impl BipartiteColoring {
    /// Right-node indices grouped by color, in increasing color order.
    pub fn classes(&self) -> Vec<Vec<usize>> {
        let mut classes = vec![Vec::new(); self.num_colors];
        for (r, &c) in self.colors.iter().enumerate() {
            if c != usize::MAX {
                classes[c].push(r);
            }
        }
        classes
    }
}

/// Marks `c` in a growable color set.
fn mark(set: &mut Vec<bool>, c: usize) {
    if c >= set.len() {
        set.resize(c + 1, false);
    }
    set[c] = true;
}

/// The smallest color not present in the set.
fn mex(set: &[bool]) -> usize {
    set.iter().position(|&taken| !taken).unwrap_or(set.len())
}

/// The static processing plan of the iterative color reduction: who belongs
/// to which residue batch of the ID coloring and who fixes its final color
/// at which step. Both are functions of the identifiers and the topology
/// only, so the central oracle and the distributed program derive the
/// identical plan — while the *colors* exist nowhere in the plan; they
/// emerge from the reduction itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringSchedule {
    /// Residue batch of each right node: its identifier modulo
    /// [`ColoringSchedule::num_batches`] (`usize::MAX` for non-targets).
    /// The ID-based initial coloring is the trivial identifier coloring;
    /// the reduction visits it batched by residue so the step count tracks
    /// the conflict degree instead of `n`.
    pub batch: Vec<usize>,
    /// Number of residue batches (`D + 1` for conflict degree `D`; two
    /// conflicting targets share a batch only when their identifiers differ
    /// by a multiple of it, so batches are conflict-sparse).
    pub num_batches: usize,
    /// Reduction step at which each right node fixes its final color
    /// (`usize::MAX` for non-targets). Conflicting targets never share a
    /// step; residual same-batch conflicts are serialized by identifier.
    pub step: Vec<usize>,
    /// Number of reduction steps (each costs two engine rounds).
    pub num_steps: usize,
    /// The targets in `(batch, id)` order — the order the central greedy
    /// fixes final colors in.
    pub order: Vec<usize>,
}

/// Calls `visit` for every conflict partner of target `r` (targets sharing a
/// left neighbor with `r`), possibly several times per partner — the same
/// neighbors-of-neighbors scan for every use, so no quadratic adjacency is
/// ever materialized.
fn for_each_conflict(
    b: &BipartiteGraph,
    is_target: &[bool],
    r: usize,
    mut visit: impl FnMut(usize),
) {
    for &l in b.neighbors_of_right(r) {
        for &r2 in b.neighbors_of_left(l) {
            if r2 != r && is_target[r2] {
                visit(r2);
            }
        }
    }
}

/// Computes the [`ColoringSchedule`] together with the target indicator it
/// was derived from (so the oracle does not have to rebuild it).
fn schedule_and_targets(b: &BipartiteGraph, targets: &[usize]) -> (ColoringSchedule, Vec<bool>) {
    let rc = b.right_count();
    let mut is_target = vec![false; rc];
    for &t in targets {
        is_target[t] = true;
    }
    let mut sorted: Vec<usize> = targets.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    // Phase A — the ID-based initial coloring is the trivial identifier
    // coloring (proper by construction). Batch its classes by identifier
    // residue modulo D + 1, D the maximum conflict degree: conflicting
    // targets land in one batch only when their identifiers differ by a
    // multiple of D + 1, so batches are nearly independent and the
    // reduction depth tracks D instead of n.
    let mut seen = vec![false; rc];
    let mut touched: Vec<usize> = Vec::new();
    let mut d_max = 0usize;
    for &r in &sorted {
        let mut degree = 0usize;
        for_each_conflict(b, &is_target, r, |r2| {
            if !seen[r2] {
                seen[r2] = true;
                touched.push(r2);
                degree += 1;
            }
        });
        d_max = d_max.max(degree);
        for &t in &touched {
            seen[t] = false;
        }
        touched.clear();
    }
    let num_batches = if sorted.is_empty() { 0 } else { d_max + 1 };
    let mut batch = vec![usize::MAX; rc];
    for &r in &sorted {
        batch[r] = r % num_batches.max(1);
    }

    // Phase B schedule — reduction steps: targets in (batch, id) order;
    // each target decides one step after the last of its smaller-order
    // conflict partners, so conflicting targets are never scheduled
    // together and every decision sees exactly its processed partners.
    let mut order = sorted;
    order.sort_unstable_by_key(|&r| (batch[r], r));
    let mut step = vec![usize::MAX; rc];
    let mut num_steps = 0usize;
    for &r in &order {
        let mut lvl = 0usize;
        for_each_conflict(b, &is_target, r, |r2| {
            if step[r2] != usize::MAX {
                lvl = lvl.max(step[r2] + 1);
            }
        });
        step[r] = lvl;
        num_steps = num_steps.max(lvl + 1);
    }

    (
        ColoringSchedule {
            batch,
            num_batches,
            step,
            num_steps,
            order,
        },
        is_target,
    )
}

/// Computes the static reduction schedule for coloring `targets` on the
/// bipartite graph `b` — the plan shared by the central oracle and the
/// measured program.
pub fn coloring_schedule(b: &BipartiteGraph, targets: &[usize]) -> ColoringSchedule {
    schedule_and_targets(b, targets).0
}

/// Colors the right nodes listed in `targets` of the bipartite graph `b` so
/// that no two targets sharing a left neighbor get the same color
/// (Lemma 3.12).
///
/// This is the central oracle of the measured [`DistanceTwoColoringProgram`]:
/// it fixes the final colors in the schedule's `(initial class, id)` order
/// with the smallest-free rule, which is exactly what the engine execution
/// computes step by step.
pub fn bipartite_distance_two_coloring(b: &BipartiteGraph, targets: &[usize]) -> BipartiteColoring {
    let (schedule, is_target) = schedule_and_targets(b, targets);
    let mut colors = vec![usize::MAX; b.right_count()];
    let mut num_colors = 0usize;
    for &r in &schedule.order {
        let mut forb: Vec<bool> = Vec::new();
        for_each_conflict(b, &is_target, r, |r2| {
            if colors[r2] != usize::MAX {
                mark(&mut forb, colors[r2]);
            }
        });
        let color = mex(&forb);
        colors[r] = color;
        num_colors = num_colors.max(color + 1);
    }
    BipartiteColoring { colors, num_colors }
}

/// Verifies that `coloring` is a proper distance-two coloring of `targets`.
pub fn verify_bipartite_coloring(
    b: &BipartiteGraph,
    coloring: &BipartiteColoring,
    targets: &[usize],
) -> Result<(), String> {
    let mut is_target = vec![false; b.right_count()];
    for &t in targets {
        is_target[t] = true;
        if coloring.colors[t] == usize::MAX {
            return Err(format!("target right node {t} is uncolored"));
        }
    }
    for l in 0..b.left_count() {
        let colored: Vec<usize> = b
            .neighbors_of_left(l)
            .iter()
            .copied()
            .filter(|&r| is_target[r])
            .collect();
        for (i, &a) in colored.iter().enumerate() {
            for &c in colored.iter().skip(i + 1) {
                if a != c && coloring.colors[a] == coloring.colors[c] {
                    return Err(format!(
                        "right nodes {a} and {c} share left node {l} and color {}",
                        coloring.colors[a]
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Messages of the measured distance-two coloring.
///
/// A `Forbid` relay carries the colors a constraint owner saw fixed in the
/// previous step, as full 64-bit values, charged honestly — like the
/// estimator replies of the derandomization schedule this can exceed the
/// simulator's default bandwidth budget on small networks; the run report
/// records those as bandwidth violations rather than hiding them behind an
/// undersized charge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColoringMessage {
    /// Decider → neighbors: the node fixed its final color.
    Announce {
        /// The fixed color.
        color: usize,
    },
    /// Constraint owner → still-undecided member: colors newly fixed by the
    /// other members of a shared constraint (the distance-two relay).
    Forbid {
        /// Newly forbidden colors, sorted and deduplicated.
        colors: Vec<usize>,
    },
}

impl MessageSize for ColoringMessage {
    fn size_bits(&self) -> usize {
        match self {
            ColoringMessage::Announce { .. } => 1 + 64,
            ColoringMessage::Forbid { colors } => 1 + 64 * colors.len(),
        }
    }
}

impl Wire for ColoringMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ColoringMessage::Announce { color } => {
                out.push(0);
                color.encode(out);
            }
            ColoringMessage::Forbid { colors } => {
                out.push(1);
                colors.encode(out);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => ColoringMessage::Announce {
                color: usize::decode(buf, pos)?,
            },
            1 => ColoringMessage::Forbid {
                colors: Vec::<usize>::decode(buf, pos)?,
            },
            _ => return None,
        })
    }
}

/// A member of the executing node's owned constraints, as tracked by the
/// owner for the relay: one per distinct member, however many of the owned
/// constraints contain it.
#[derive(Debug, Clone)]
struct ConflictMember {
    /// The member's node id (equal to its right/value index).
    id: usize,
    /// The member's fixed color, once announced.
    color: Option<usize>,
    /// Within a relay round, the position of the member's entry in the
    /// round's list of `Forbid` messages; [`NO_DELTA`] otherwise.
    delta: u32,
    /// Whether the member is one of the coloring targets.
    is_target: bool,
    /// Whether the color was fixed since the owner last relayed.
    fresh: bool,
}

/// [`ConflictMember::delta`] of a member no `Forbid` is addressed to yet.
const NO_DELTA: u32 = u32::MAX;

/// Per-node state machine of the measured distance-two coloring
/// (substitution R4 made measured).
///
/// Rounds alternate between *decide* rounds (odd engine rounds: the nodes of
/// the current reduction step fix the smallest color absent from their
/// accumulated forbidden set — relayed colors plus the fixed colors of
/// members of their own constraints — and broadcast it) and *relay* rounds
/// (even engine rounds: constraint owners absorb the announcements and
/// forward the newly fixed colors to the still-undecided targets of their
/// constraints). After `2·steps` rounds every target holds its final color
/// and all nodes halt. Build instances with
/// [`distance_two_coloring_programs`].
///
/// Between its own rounds of work a node sleeps
/// ([`RoundAction::SleepUntil`]): until its decide round `2·step + 1`, or
/// else until the final round `2·steps`, unless mail wakes it. A decider
/// stays awake one more round to relay its own fresh color. Every skipped
/// round would have found an empty inbox and nothing fresh to relay.
#[derive(Debug, Clone)]
pub struct DistanceTwoColoringProgram {
    num_steps: usize,
    my_step: Option<usize>,
    my_color: Option<usize>,
    /// Forbidden colors accumulated from owner relays; at the decide round
    /// the co-members' colors of owned constraints join them.
    forbidden: Vec<bool>,
    /// Constraints owned by this node (its left copies), each as its
    /// members' positions in `members`, in neighbor order.
    owned: Vec<Vec<u32>>,
    /// The distinct members of the owned constraints, sorted by id.
    members: Vec<ConflictMember>,
}

impl DistanceTwoColoringProgram {
    /// The next round this node has work in without mail: its decide round
    /// while undecided, else the final round.
    fn next_wake(&self) -> u64 {
        match (self.my_step, self.my_color) {
            (Some(step), None) => 2 * step as u64 + 1,
            _ => 2 * self.num_steps as u64,
        }
    }

    /// Records a fixed color in the owner-side member state of `id`, if `id`
    /// is a member of an owned constraint.
    fn record_color(&mut self, id: usize, color: usize) {
        if let Ok(i) = self.members.binary_search_by_key(&id, |m| m.id) {
            let m = &mut self.members[i];
            m.color = Some(color);
            m.fresh = true;
        }
    }
}

impl NodeProgram for DistanceTwoColoringProgram {
    type Message = ColoringMessage;
    type Output = Option<usize>;

    fn init(&mut self, _: &NodeContext<'_>, _: &mut Outbox<'_, ColoringMessage>) {
        // The first step's nodes have empty conflict pasts; nothing to seed.
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, ColoringMessage>,
        outbox: &mut Outbox<'_, ColoringMessage>,
    ) -> RoundAction<Option<usize>> {
        let my_id = ctx.id.0;
        // Absorb: announcements update the owner-side member states, relayed
        // colors accumulate in the value-side forbidden set.
        for (sender, msg) in inbox.iter() {
            match msg {
                ColoringMessage::Announce { color } => self.record_color(sender.0, *color),
                ColoringMessage::Forbid { colors } => {
                    for &c in colors {
                        mark(&mut self.forbidden, c);
                    }
                }
            }
        }
        if self.num_steps == 0 {
            return RoundAction::Halt(self.my_color);
        }
        if ctx.round % 2 == 1 {
            // Decide round for step (round - 1) / 2.
            let step = ((ctx.round - 1) / 2) as usize;
            if self.my_step == Some(step) {
                // The forbidden set: relayed colors plus the fixed colors of
                // the co-members of owned constraints this node itself
                // belongs to — together exactly the final colors of the
                // conflict partners with smaller schedule order. Owned
                // constraints *not* containing this node contribute nothing:
                // their members are not conflict partners. A node decides
                // once and never reads the set again, so the co-members'
                // colors are marked into it in place.
                for oc in &self.owned {
                    if !oc
                        .iter()
                        .any(|&slot| self.members[slot as usize].id == my_id)
                    {
                        continue;
                    }
                    for &slot in oc {
                        let m = &self.members[slot as usize];
                        if m.id != my_id {
                            if let Some(c) = m.color {
                                mark(&mut self.forbidden, c);
                            }
                        }
                    }
                }
                let color = mex(&self.forbidden);
                self.my_color = Some(color);
                self.record_color(my_id, color);
                outbox.broadcast(ColoringMessage::Announce { color });
                // Awake for the relay round: the own color is fresh.
                return RoundAction::Continue;
            }
            RoundAction::SleepUntil(self.next_wake())
        } else {
            // Relay round after step round / 2 - 1.
            let step = (ctx.round / 2) as usize - 1;
            if step + 1 >= self.num_steps {
                return RoundAction::Halt(self.my_color);
            }
            // Forward the freshly fixed colors of every owned constraint to
            // its still-undecided targets (the distance-two relay). Each
            // target gets one message, sent in the order the scan first
            // reaches it.
            let mut deltas: Vec<(usize, Vec<usize>)> = Vec::new();
            let mut fresh: Vec<usize> = Vec::new();
            for oc in &self.owned {
                fresh.clear();
                fresh.extend(
                    oc.iter()
                        .map(|&slot| &self.members[slot as usize])
                        .filter(|m| m.fresh)
                        .filter_map(|m| m.color),
                );
                if fresh.is_empty() {
                    continue;
                }
                for &slot in oc {
                    let m = &mut self.members[slot as usize];
                    if m.is_target && m.color.is_none() && m.id != my_id {
                        if m.delta == NO_DELTA {
                            // One entry per distinct member at most: fewer
                            // than `n < u32::MAX`.
                            m.delta = deltas.len() as u32;
                            deltas.push((m.id, fresh.clone()));
                        } else {
                            deltas[m.delta as usize].1.extend_from_slice(&fresh);
                        }
                    }
                }
            }
            for (id, mut colors) in deltas {
                colors.sort_unstable();
                colors.dedup();
                outbox.send(NodeId(id), ColoringMessage::Forbid { colors });
            }
            for m in &mut self.members {
                m.fresh = false;
                m.delta = NO_DELTA;
            }
            RoundAction::SleepUntil(self.next_wake())
        }
    }
}

/// Validates the instance against the locality assumptions of the measured
/// coloring and builds one [`DistanceTwoColoringProgram`] per node, together
/// with the schedule the programs follow.
///
/// The instance must be *graph-aligned*: one right (value) node per original
/// node (in node order), and every left (constraint) node hosted by the
/// original node `left_owner[l]` with all its right neighbors inside the
/// owner's inclusive neighborhood — which holds for the bipartite
/// representation `B_G` and for every rounding problem of the pipeline.
/// `targets` must list distinct right nodes. A degenerate instance without
/// left nodes (`Δ_L = 0`) is valid: nothing conflicts, so all targets take
/// color 0 in one step.
///
/// # Errors
///
/// Returns a description of the violated assumption.
pub fn distance_two_coloring_programs(
    graph: &Graph,
    b: &BipartiteGraph,
    left_owner: &[usize],
    targets: &[usize],
) -> Result<(Vec<DistanceTwoColoringProgram>, ColoringSchedule), String> {
    let n = graph.n();
    if b.right_count() != n {
        return Err(format!(
            "bipartite graph is not graph-aligned: {} right (value) nodes for an {n}-node network",
            b.right_count()
        ));
    }
    if n >= u32::MAX as usize {
        // The owner-side member positions are compacted to u32.
        return Err(format!(
            "network too large for the compact member index: {n} nodes"
        ));
    }
    if left_owner.len() != b.left_count() {
        return Err(format!(
            "{} left owners supplied for {} left (constraint) nodes",
            left_owner.len(),
            b.left_count()
        ));
    }
    for (l, &owner) in left_owner.iter().enumerate() {
        if owner >= n {
            return Err(format!("left node {l}: owner {owner} out of range"));
        }
        for &r in b.neighbors_of_left(l) {
            if r != owner && !graph.has_edge(NodeId(owner), NodeId(r)) {
                return Err(format!(
                    "left node {l}: right node {r} is not in the inclusive neighborhood of owner {owner}"
                ));
            }
        }
    }
    let mut seen = vec![false; n];
    for &t in targets {
        if t >= n {
            return Err(format!("target right node {t} out of range"));
        }
        if seen[t] {
            return Err(format!("target right node {t} listed twice"));
        }
        seen[t] = true;
    }

    let schedule = coloring_schedule(b, targets);
    let mut owned_lefts: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (l, &owner) in left_owner.iter().enumerate() {
        owned_lefts[owner].push(l);
    }
    let programs = owned_lefts
        .into_iter()
        .enumerate()
        .map(|(v, lefts)| {
            // Index the owned constraints' members by id once.
            let mut ids: Vec<usize> = lefts
                .iter()
                .flat_map(|&l| b.neighbors_of_left(l).iter().copied())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            let owned = lefts
                .iter()
                .map(|&l| {
                    b.neighbors_of_left(l)
                        .iter()
                        .map(|r| ids.binary_search(r).expect("indexed member") as u32)
                        .collect()
                })
                .collect();
            let members = ids
                .into_iter()
                .map(|r| ConflictMember {
                    id: r,
                    color: None,
                    delta: NO_DELTA,
                    is_target: schedule.step[r] != usize::MAX,
                    fresh: false,
                })
                .collect();
            DistanceTwoColoringProgram {
                num_steps: schedule.num_steps,
                my_step: match schedule.step[v] {
                    usize::MAX => None,
                    s => Some(s),
                },
                my_color: None,
                forbidden: Vec::new(),
                owned,
                members,
            }
        })
        .collect();
    Ok((programs, schedule))
}

/// Assembles a [`BipartiteColoring`] from the per-node engine outputs; the
/// run that produced them is the coloring's cost.
pub fn assemble_coloring(outputs: &[Option<usize>]) -> BipartiteColoring {
    let colors: Vec<usize> = outputs.iter().map(|c| c.unwrap_or(usize::MAX)).collect();
    let num_colors = outputs.iter().flatten().map(|&c| c + 1).max().unwrap_or(0);
    BipartiteColoring { colors, num_colors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::ledger::formulas;
    use congest_sim::{Executor, ExecutorConfig, PooledExecutor, RunReport, SyncExecutor};
    use mds_graphs::generators;

    /// Builds the measured programs, runs them on `executor` and assembles
    /// the coloring, as the pipeline does; also returns the engine report
    /// and the number of reduction steps.
    fn run_measured<E: Executor>(
        g: &Graph,
        b: &BipartiteGraph,
        owners: &[usize],
        targets: &[usize],
        executor: &E,
    ) -> (BipartiteColoring, RunReport<Option<usize>>, usize) {
        let (programs, schedule) = distance_two_coloring_programs(g, b, owners, targets).unwrap();
        let report = executor
            .run(g, programs, &ExecutorConfig::default())
            .unwrap();
        (
            assemble_coloring(&report.outputs),
            report,
            schedule.num_steps,
        )
    }

    /// The representation instance of the measured coloring: `B_G` with every
    /// left node hosted by its own original node.
    fn representation_instance(g: &Graph) -> (BipartiteGraph, Vec<usize>) {
        (BipartiteGraph::from_graph(g), (0..g.n()).collect())
    }

    #[test]
    fn coloring_of_bipartite_representation_is_proper_and_small() {
        let g = generators::gnp(60, 0.1, 4);
        let rep = BipartiteGraph::from_graph(&g);
        let targets: Vec<usize> = (0..g.n()).collect();
        let coloring = bipartite_distance_two_coloring(&rep, &targets);
        verify_bipartite_coloring(&rep, &coloring, &targets).unwrap();
        let bound = rep.max_left_degree() * rep.max_right_degree();
        assert!(
            coloring.num_colors <= bound,
            "{} colors > Δ_L·Δ_R = {bound}",
            coloring.num_colors
        );
    }

    #[test]
    fn partial_targets_leave_other_nodes_uncolored() {
        let g = generators::path(6);
        let rep = BipartiteGraph::from_graph(&g);
        let targets = vec![0, 2, 4];
        let coloring = bipartite_distance_two_coloring(&rep, &targets);
        verify_bipartite_coloring(&rep, &coloring, &targets).unwrap();
        assert_eq!(coloring.colors[1], usize::MAX);
        let classes = coloring.classes();
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn star_center_conflicts_force_many_colors() {
        // In the bipartite representation of a star, all value copies share
        // the center's constraint, so they all need distinct colors.
        let g = generators::star(12);
        let rep = BipartiteGraph::from_graph(&g);
        let targets: Vec<usize> = (0..g.n()).collect();
        let coloring = bipartite_distance_two_coloring(&rep, &targets);
        assert_eq!(coloring.num_colors, 12);
        verify_bipartite_coloring(&rep, &coloring, &targets).unwrap();
    }

    #[test]
    fn verifier_detects_conflicts() {
        let g = generators::star(4);
        let rep = BipartiteGraph::from_graph(&g);
        let targets: Vec<usize> = (0..4).collect();
        let mut coloring = bipartite_distance_two_coloring(&rep, &targets);
        // Corrupt: give two conflicting nodes the same color.
        coloring.colors[1] = coloring.colors[2];
        assert!(verify_bipartite_coloring(&rep, &coloring, &targets).is_err());
    }

    #[test]
    fn schedule_never_puts_conflicting_targets_in_one_step() {
        let g = generators::gnp(40, 0.12, 9);
        let rep = BipartiteGraph::from_graph(&g);
        let targets: Vec<usize> = (0..g.n()).collect();
        let (schedule, is_target) = schedule_and_targets(&rep, &targets);
        assert!(schedule.num_steps >= 1);
        assert!(schedule.num_batches >= 1);
        for &r in &targets {
            for_each_conflict(&rep, &is_target, r, |r2| {
                assert_ne!(schedule.step[r], schedule.step[r2]);
            });
            assert_eq!(schedule.batch[r], r % schedule.num_batches);
        }
    }

    #[test]
    fn reduction_computes_colors_the_schedule_does_not_contain() {
        // The regression against a schedule that secretly precomputes the
        // answer: on a ring the residue batches over-provision (D + 1
        // batches for a cycle-power conflict graph), so the reduction must
        // genuinely compress — final colors diverge from both the batch and
        // the step of some target, i.e. they only exist in the message flow.
        let g = generators::cycle(47);
        let rep = BipartiteGraph::from_graph(&g);
        let targets: Vec<usize> = (0..g.n()).collect();
        let schedule = coloring_schedule(&rep, &targets);
        let coloring = bipartite_distance_two_coloring(&rep, &targets);
        verify_bipartite_coloring(&rep, &coloring, &targets).unwrap();
        assert!(targets
            .iter()
            .any(|&r| coloring.colors[r] != schedule.step[r]));
        assert!(targets
            .iter()
            .any(|&r| coloring.colors[r] != schedule.batch[r]));
        // And the engine agrees bit for bit.
        let owners: Vec<usize> = (0..g.n()).collect();
        let (run, _, _) = run_measured(&g, &rep, &owners, &targets, &SyncExecutor);
        assert_eq!(run.colors, coloring.colors);
    }

    #[test]
    fn measured_program_matches_oracle_on_a_ring_within_the_paper_charge() {
        let g = generators::cycle(50);
        let (b, owners) = representation_instance(&g);
        let targets: Vec<usize> = (0..g.n()).collect();
        let oracle = bipartite_distance_two_coloring(&b, &targets);
        let (coloring, report, steps) = run_measured(&g, &b, &owners, &targets, &SyncExecutor);
        assert_eq!(coloring.colors, oracle.colors);
        assert_eq!(coloring.num_colors, oracle.num_colors);
        assert_eq!(
            report.rounds,
            formulas::measured_coloring_rounds(steps as u64)
        );
        // The measured rounds stay below the Lemma 3.12 charge even on the
        // sparse ring, where the budget is tight.
        assert!(
            report.rounds
                <= formulas::bipartite_coloring_rounds(
                    b.max_left_degree(),
                    b.max_right_degree(),
                    g.n()
                )
        );
        verify_bipartite_coloring(&b, &coloring, &targets).unwrap();
    }

    #[test]
    fn measured_program_is_identical_on_both_executors() {
        let g = generators::gnp(35, 0.12, 8);
        let (b, owners) = representation_instance(&g);
        let targets: Vec<usize> = (0..g.n()).collect();
        let (seq, seq_report, _) = run_measured(&g, &b, &owners, &targets, &SyncExecutor);
        let (par, par_report, _) = run_measured(&g, &b, &owners, &targets, &PooledExecutor::new(3));
        assert_eq!(seq_report, par_report);
        assert_eq!(seq.colors, par.colors);
    }

    #[test]
    fn degenerate_instance_without_left_nodes_colors_everything_zero() {
        // Δ_L = 0: no constraint exists, nothing conflicts — one step gives
        // every target color 0 and the oracle agrees.
        let g = generators::path(5);
        let b = BipartiteGraph::new(0, 5);
        let targets: Vec<usize> = (0..5).collect();
        let oracle = bipartite_distance_two_coloring(&b, &targets);
        assert_eq!(oracle.num_colors, 1);
        assert!(oracle.colors.iter().all(|&c| c == 0));
        let (coloring, report, steps) = run_measured(&g, &b, &[], &targets, &SyncExecutor);
        assert_eq!(coloring.colors, oracle.colors);
        assert_eq!(steps, 1);
        assert_eq!(report.rounds, 2);
        assert!(report.rounds <= formulas::bipartite_coloring_rounds(0, 0, 5));
    }

    #[test]
    fn empty_target_set_spends_the_single_observing_round() {
        let g = generators::path(4);
        let (b, owners) = representation_instance(&g);
        let (coloring, report, steps) = run_measured(&g, &b, &owners, &[], &SyncExecutor);
        assert_eq!(steps, 0);
        assert_eq!(report.rounds, 1);
        assert_eq!(coloring.num_colors, 0);
        assert!(coloring.colors.iter().all(|&c| c == usize::MAX));
    }

    #[test]
    fn validation_rejects_misaligned_instances() {
        let g = generators::path(4);
        let (b, owners) = representation_instance(&g);

        // Right side not graph-aligned.
        let small = BipartiteGraph::new(2, 3);
        let err = distance_two_coloring_programs(&g, &small, &[0, 1], &[]).unwrap_err();
        assert!(err.contains("graph-aligned"), "{err}");

        // Owner count mismatch.
        let err = distance_two_coloring_programs(&g, &b, &owners[..2], &[]).unwrap_err();
        assert!(err.contains("left owners"), "{err}");

        // Owner out of range.
        let bad_owners = vec![9, 1, 2, 3];
        let err = distance_two_coloring_programs(&g, &b, &bad_owners, &[]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");

        // Member outside the owner's inclusive neighborhood: claim node 3
        // owns the constraint that contains node 0's value copy.
        let far_owners = vec![3, 1, 2, 3];
        let err = distance_two_coloring_programs(&g, &b, &far_owners, &[0]).unwrap_err();
        assert!(err.contains("inclusive neighborhood"), "{err}");

        // Duplicate and out-of-range targets.
        let err = distance_two_coloring_programs(&g, &b, &owners, &[1, 1]).unwrap_err();
        assert!(err.contains("twice"), "{err}");
        let err = distance_two_coloring_programs(&g, &b, &owners, &[7]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }
}

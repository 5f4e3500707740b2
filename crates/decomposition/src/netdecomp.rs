//! Deterministic strong-diameter k-hop network decompositions
//! (Definition 3.2, Theorem 3.2), measured on the engine.
//!
//! The paper consumes the GK18 decomposition as a black box: a partition of
//! the nodes into connected clusters of diameter `k·f(n)` colored with `f(n)`
//! colors such that same-colored clusters are at `G`-distance `> k`, computed
//! in `2^{O(√(log n log log n))}` CONGEST rounds. Reproducing the GK18
//! construction itself is out of scope (substitution R2 in `DESIGN.md`);
//! instead we build the same *object* with deterministic ball carving:
//!
//! repeatedly (one color class at a time) grow a BFS ball around the smallest
//! unclustered identifier inside the still-unclustered subgraph, extending the
//! radius in steps of `k` as long as the ball at least doubles; the final ball
//! becomes a cluster of the current color, and the `k`-wide annulus around it
//! is *deferred* to later colors. Deferral never exceeds the clustered mass,
//! so `O(log n)` colors suffice, and radii double at most `log₂ n` times, so
//! cluster diameters are `O(k·log n)` — the same `(k·O(log n), O(log n))`
//! shape as Theorem 3.2. Same-colored clusters are separated by the deferred
//! annuli, i.e. at distance `> k`.
//!
//! Two executions of the same carving are provided, following the pattern of
//! [`crate::coloring`] (substitution R4):
//!
//! * [`strong_diameter_decomposition`] — the **central oracle**: computes the
//!   [`CarvingSchedule`] (which node is clustered in which phase, who carves,
//!   and how deep each phase's join wave runs — all functions of the IDs and
//!   the topology only) and materializes the clusters from it in one pass.
//!   It charges no rounds: the measured engine run below is the only cost
//!   model.
//! * [`NetDecompProgram`] — the **measured** CONGEST execution, built by
//!   [`netdecomp_programs`], run by any [`congest_sim::Executor`] and read
//!   back by [`assemble_decomposition`]: phase by phase, the carve centers
//!   open with a broadcast and the cluster memberships spread as BFS join
//!   waves through the phase's nodes, each join re-broadcast to the
//!   neighbors (one stored payload per join via the engine's broadcast fast
//!   path). The run spends exactly
//!   [`formulas::measured_netdecomp_rounds`] rounds — at most the
//!   [`formulas::netdecomp_charge_rounds`] paper charge — and its assembled
//!   output is bit-identical to the central oracle (proptest-enforced in
//!   `tests/netdecomp_conformance.rs`). Whoever runs it records the engine's
//!   `RunReport` as one measured phase (the pipeline's composer does).
//!
//! **Why the engine output equals the central carving.** The schedule fixes,
//! per node, the phase in which it is clustered and whether it is a carve
//! center (the minimum member identifier of its cluster — the ID-ordered
//! carving loop always starts a carve at the smallest eligible identifier,
//! so no smaller member can exist). Within one phase, distinct clusters are
//! `k`-separated (`k ≥ 1`), hence never adjacent: a join wave flooding only
//! through same-phase nodes can never leave its own cluster, and because
//! every shortest in-ball path stays inside the ball, the wave reaches each
//! member at exactly its carving BFS distance. Phase windows are disjoint
//! in time — phase `p` occupies the `D_p + 1` rounds after
//! `A_p = Σ_{q<p}(D_q + 1)` — so a node attributes incoming joins to its own
//! phase purely by timing. The memberships are schedule-determined; what the
//! wave genuinely computes is the spanning tree (each join picks its
//! smallest-ID predecessor as parent) and the leader announcement carried by
//! the messages.

use crate::cluster::{Cluster, ClusterGraph};
use congest_sim::ledger::formulas;
use congest_sim::{Graph, Inbox, NodeContext, NodeId, NodeProgram, Outbox, RoundAction, Wire};
use std::collections::VecDeque;

/// Configuration of the decomposition construction.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompositionConfig {
    /// Required growth factor to keep extending a ball; `2.0` gives the
    /// textbook `O(log n)` bounds.
    pub growth_factor: f64,
}

impl Default for DecompositionConfig {
    fn default() -> Self {
        DecompositionConfig { growth_factor: 2.0 }
    }
}

/// A strong-diameter k-hop `(d, c)`-decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkDecomposition {
    /// The separation parameter `k` the decomposition was built for.
    pub k: usize,
    /// The colored cluster graph.
    pub clusters: ClusterGraph,
}

impl NetworkDecomposition {
    /// The diameter parameter `d`: the maximum cluster tree depth.
    pub fn diameter(&self) -> usize {
        self.clusters.max_depth()
    }

    /// The number of colors `c`.
    pub fn num_colors(&self) -> usize {
        self.clusters.num_colors()
    }

    /// Cluster indices grouped by color, in increasing color order.
    pub fn clusters_by_color(&self) -> Vec<Vec<usize>> {
        let mut by_color = vec![Vec::new(); self.num_colors()];
        for (ci, &color) in self.clusters.colors.iter().enumerate() {
            by_color[color].push(ci);
        }
        by_color
    }

    /// Verifies all Definition 3.1/3.2 invariants, including `k`-separation.
    pub fn verify(&self, graph: &Graph) -> Result<(), String> {
        self.clusters.verify(graph)?;
        self.clusters.verify_separation(graph, self.k)
    }
}

/// The static carving plan of the decomposition: who is clustered in which
/// phase, who carves, and how the phases tile the round timeline. Every
/// field is a function of the identifiers and the topology only, so the
/// central oracle and the distributed program derive the identical plan —
/// while the spanning trees and leader announcements exist nowhere in the
/// plan; they emerge from the join waves themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarvingSchedule {
    /// The separation parameter `k` the schedule was carved for.
    pub k: usize,
    /// Phase (= cluster color) in which each node is clustered.
    pub phase: Vec<usize>,
    /// Number of phases (= number of colors).
    pub num_phases: usize,
    /// Whether each node is a carve center — the start of the ID-ordered
    /// ball carving, which is always the minimum member identifier of its
    /// cluster and therefore doubles as the cluster leader.
    pub center: Vec<bool>,
    /// Per phase, the maximum join-wave depth `D_p` (the deepest cluster
    /// tree of the phase).
    pub wave_depth: Vec<usize>,
    /// Per phase, the first sending round `A_p` of its window:
    /// `A_0 = 0` and `A_{p+1} = A_p + D_p + 1`, so windows are disjoint and
    /// receivers attribute joins to phases purely by timing.
    pub phase_start: Vec<usize>,
    /// The exact engine round count `Σ_p (D_p + 1)`; every node halts there.
    pub total_rounds: usize,
}

impl CarvingSchedule {
    /// Total join-wave depth `Σ_p D_p` across all phases.
    pub fn total_wave_depth(&self) -> u64 {
        self.wave_depth.iter().map(|&d| d as u64).sum()
    }

    /// The exact measured round count of the schedule,
    /// [`formulas::measured_netdecomp_rounds`].
    pub fn wave_rounds(&self) -> u64 {
        formulas::measured_netdecomp_rounds(self.num_phases as u64, self.total_wave_depth())
    }
}

/// Computes the [`CarvingSchedule`] of `graph` for separation `k` — the pure
/// plan shared by the central oracle and the measured program.
///
/// # Panics
///
/// Panics if `k == 0`, or if a degenerate `config` keeps the carving from
/// converging.
pub fn carving_schedule(graph: &Graph, k: usize, config: &DecompositionConfig) -> CarvingSchedule {
    assert!(k >= 1, "k must be at least 1");
    let n = graph.n();
    let growth = config.growth_factor.max(1.01);

    let mut phase = vec![usize::MAX; n];
    let mut center = vec![false; n];
    let mut wave_depth: Vec<usize> = Vec::new();
    let mut unclustered: Vec<bool> = vec![true; n];
    let mut remaining = n;
    let mut color = 0usize;

    while remaining > 0 {
        // Nodes deferred in this color round (the separating annuli); they
        // stay unclustered but cannot be carved again until the next color.
        let mut deferred = vec![false; n];
        let mut phase_depth = 0usize;
        for start in 0..n {
            if !unclustered[start] || deferred[start] {
                continue;
            }
            // Grow a ball around `start` inside the unclustered, undeferred
            // subgraph, extending the radius in steps of k while it keeps
            // growing by the configured factor.
            let (ball, fence, depth) =
                grow_ball(graph, NodeId(start), k, growth, &unclustered, &deferred);
            center[start] = true;
            phase_depth = phase_depth.max(depth);
            for &v in &ball {
                unclustered[v.0] = false;
                phase[v.0] = color;
                remaining -= 1;
            }
            for &v in &fence {
                deferred[v.0] = true;
            }
        }
        wave_depth.push(phase_depth);
        color += 1;
        if color > 2 * (usize::BITS as usize) {
            // Cannot happen for the default growth factor; guards against a
            // degenerate configuration looping forever.
            panic!("network decomposition failed to converge");
        }
    }

    let num_phases = wave_depth.len();
    let mut phase_start = Vec::with_capacity(num_phases);
    let mut next = 0usize;
    for &d in &wave_depth {
        phase_start.push(next);
        next += d + 1;
    }
    CarvingSchedule {
        k,
        phase,
        num_phases,
        center,
        wave_depth,
        phase_start,
        total_rounds: next,
    }
}

/// Materializes the colored [`ClusterGraph`] a [`CarvingSchedule`] describes:
/// per phase, a multi-source BFS from the phase's carve centers through the
/// phase's nodes — the central replay of exactly the join waves the measured
/// program runs. Each member's parent is its smallest-identifier neighbor one
/// wave step closer to the center, so oracle and engine agree on the spanning
/// trees by construction.
pub fn clusters_from_schedule(graph: &Graph, schedule: &CarvingSchedule) -> ClusterGraph {
    let n = graph.n();
    let mut cluster_of = vec![usize::MAX; n];
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut colors: Vec<usize> = Vec::new();
    // Wave distance from the carve center; global because phases partition
    // the nodes, so every node is set by exactly one wave.
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for p in 0..schedule.num_phases {
        for c in 0..n {
            if !schedule.center[c] || schedule.phase[c] != p {
                continue;
            }
            let ci = clusters.len();
            let mut members = vec![NodeId(c)];
            let mut depth = 0usize;
            dist[c] = 0;
            cluster_of[c] = ci;
            queue.push_back(NodeId(c));
            while let Some(u) = queue.pop_front() {
                depth = depth.max(dist[u.0]);
                for &v in graph.neighbors(u) {
                    if schedule.phase[v.0] == p && dist[v.0] == usize::MAX {
                        dist[v.0] = dist[u.0] + 1;
                        cluster_of[v.0] = ci;
                        members.push(v);
                        queue.push_back(v);
                    }
                }
            }
            members.sort_unstable();
            let parents = members
                .iter()
                .map(|&v| {
                    if v.0 == c {
                        return None;
                    }
                    graph
                        .neighbors(v)
                        .iter()
                        .copied()
                        .filter(|u| cluster_of[u.0] == ci && dist[u.0] + 1 == dist[v.0])
                        .min()
                })
                .collect();
            clusters.push(Cluster {
                leader: NodeId(c),
                members,
                parents,
                depth,
            });
            colors.push(p);
        }
    }
    ClusterGraph {
        clusters,
        cluster_of,
        colors,
    }
}

/// Builds a deterministic strong-diameter `k`-hop decomposition of `graph`.
///
/// This is the central oracle of the measured [`NetDecompProgram`]: it
/// computes the [`CarvingSchedule`] and replays its join waves centrally, so
/// the engine execution is bit-identical by construction. It charges no
/// rounds; the measured run's [`CarvingSchedule::wave_rounds`] is the cost.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn strong_diameter_decomposition(
    graph: &Graph,
    k: usize,
    config: &DecompositionConfig,
) -> NetworkDecomposition {
    let schedule = carving_schedule(graph, k, config);
    NetworkDecomposition {
        k,
        clusters: clusters_from_schedule(graph, &schedule),
    }
}

/// Grows a ball around `start` in the subgraph induced by nodes that are
/// still unclustered and not deferred. Returns the ball (the new cluster),
/// the *fence* — every still-eligible node within full-`G` distance `k` of the
/// ball, which must be deferred to guarantee `k`-separation — and the ball's
/// depth (the maximum BFS distance of a member from `start`, which is the
/// cluster tree depth and the member's join-wave arrival time).
///
/// The ball itself grows only through eligible nodes (so the cluster is
/// connected in `G`), but the fence is measured in the **full** graph: a later
/// same-color cluster could otherwise sneak within distance `k` through
/// already-clustered nodes of earlier colors.
fn grow_ball(
    graph: &Graph,
    start: NodeId,
    k: usize,
    growth: f64,
    unclustered: &[bool],
    deferred: &[bool],
) -> (Vec<NodeId>, Vec<NodeId>, usize) {
    let eligible = |v: NodeId| unclustered[v.0] && !deferred[v.0];
    // Full BFS from start in the eligible subgraph.
    let mut dist = vec![usize::MAX; graph.n()];
    let mut order: Vec<NodeId> = Vec::new();
    dist[start.0] = 0;
    order.push(start);
    let mut queue = VecDeque::new();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors(u) {
            if eligible(v) && dist[v.0] == usize::MAX {
                dist[v.0] = dist[u.0] + 1;
                order.push(v);
                queue.push_back(v);
            }
        }
    }
    let ball_at =
        |r: usize| -> Vec<NodeId> { order.iter().copied().filter(|v| dist[v.0] <= r).collect() };
    // Every eligible node within full-G distance ≤ k of the ball, excluding
    // the ball itself.
    let fence_of = |ball: &[NodeId]| -> Vec<NodeId> {
        let mut fdist = vec![usize::MAX; graph.n()];
        let mut queue = VecDeque::new();
        for &v in ball {
            fdist[v.0] = 0;
            queue.push_back(v);
        }
        let mut fence = Vec::new();
        while let Some(u) = queue.pop_front() {
            if fdist[u.0] == k {
                continue;
            }
            for &v in graph.neighbors(u) {
                if fdist[v.0] == usize::MAX {
                    fdist[v.0] = fdist[u.0] + 1;
                    queue.push_back(v);
                }
            }
        }
        for v in graph.nodes() {
            if fdist[v.0] != usize::MAX && fdist[v.0] > 0 && eligible(v) {
                fence.push(v);
            }
        }
        fence
    };
    let mut radius = 0usize;
    loop {
        let ball = ball_at(radius);
        let fence = fence_of(&ball);
        let bigger = ball_at(radius + k);
        let can_grow = bigger.len() > ball.len();
        if can_grow && (fence.len() as f64) > (growth - 1.0) * ball.len() as f64 {
            radius += k;
            continue;
        }
        let depth = ball.iter().map(|v| dist[v.0]).max().unwrap_or(0);
        return (ball, fence, depth);
    }
}

/// Per-node engine output of the measured decomposition: the node's view of
/// its cluster, as learned from the join wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetDecompOutput {
    /// The cluster leader (the carve center's identifier, announced by the
    /// wave messages).
    pub leader: usize,
    /// The node's parent in the cluster spanning tree (`None` for the
    /// leader): the smallest-identifier neighbor whose join it heard first.
    pub parent: Option<usize>,
    /// The node's depth in the cluster tree (its join round relative to the
    /// phase window).
    pub depth: usize,
}

impl Wire for NetDecompOutput {
    fn encode(&self, out: &mut Vec<u8>) {
        self.leader.encode(out);
        self.parent.encode(out);
        self.depth.encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(NetDecompOutput {
            leader: usize::decode(buf, pos)?,
            parent: Option::<usize>::decode(buf, pos)?,
            depth: usize::decode(buf, pos)?,
        })
    }
}

/// Per-node state machine of the measured network decomposition
/// (substitution R2 made measured).
///
/// Each message is the cluster leader's identifier (`O(log n)` bits). In the
/// first round of its phase's window the carve center broadcasts its own
/// identifier; every other node joins on the first message received inside
/// its window — necessarily from same-cluster neighbors one wave step closer
/// to the center, because same-phase clusters are never adjacent and the
/// phase windows are disjoint in time — records the smallest sender as its
/// tree parent, and re-broadcasts the leader in the same round. All nodes
/// halt together at the schedule's exact round count, so the measured rounds
/// equal [`formulas::measured_netdecomp_rounds`]. Build instances with
/// [`netdecomp_programs`].
#[derive(Debug, Clone)]
pub struct NetDecompProgram {
    /// First sending round `A_p` of this node's phase.
    phase_start: u64,
    /// Round at which every node halts (`Σ_p (D_p + 1)`).
    total_rounds: u64,
    /// Whether this node opens its phase as a carve center.
    center: bool,
    leader: Option<usize>,
    parent: Option<usize>,
    depth: usize,
}

impl NodeProgram for NetDecompProgram {
    type Message = usize;
    type Output = NetDecompOutput;

    fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, usize>) {
        if self.center {
            self.leader = Some(ctx.id.0);
            if self.phase_start == 0 {
                outbox.broadcast(ctx.id.0);
            }
        }
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, usize>,
        outbox: &mut Outbox<'_, usize>,
    ) -> RoundAction<NetDecompOutput> {
        if self.center {
            if ctx.round == self.phase_start {
                outbox.broadcast(ctx.id.0);
            }
        } else if self.leader.is_none() && ctx.round > self.phase_start {
            // A message arriving in this node's phase window was sent by a
            // same-phase (hence same-cluster) neighbor one step closer to
            // the center: earlier phases finished sending before A_p, later
            // ones have not started. The first such round is the join.
            let mut parent: Option<usize> = None;
            let mut leader: Option<usize> = None;
            for (sender, &l) in inbox.iter() {
                if parent.is_none_or(|p| sender.0 < p) {
                    parent = Some(sender.0);
                }
                leader = Some(l);
            }
            if let Some(l) = leader {
                self.leader = Some(l);
                self.parent = parent;
                self.depth = (ctx.round - self.phase_start) as usize;
                outbox.broadcast(l);
            }
        }
        if ctx.round >= self.total_rounds {
            debug_assert!(self.leader.is_some(), "node missed its join wave");
            RoundAction::Halt(NetDecompOutput {
                leader: self.leader.unwrap_or(ctx.id.0),
                parent: self.parent,
                depth: self.depth,
            })
        } else {
            RoundAction::Continue
        }
    }
}

/// Builds one [`NetDecompProgram`] per node from an already-computed
/// [`CarvingSchedule`], validating that the schedule fits the network.
///
/// # Errors
///
/// Returns a description of the misalignment.
pub fn netdecomp_programs_from_schedule(
    graph: &Graph,
    schedule: &CarvingSchedule,
) -> Result<Vec<NetDecompProgram>, String> {
    let n = graph.n();
    if schedule.phase.len() != n || schedule.center.len() != n {
        return Err(format!(
            "carving schedule is not graph-aligned: {} phase entries and {} center flags for an {n}-node network",
            schedule.phase.len(),
            schedule.center.len()
        ));
    }
    if schedule.wave_depth.len() != schedule.num_phases
        || schedule.phase_start.len() != schedule.num_phases
    {
        return Err(format!(
            "schedule windows are malformed: {} wave depths and {} phase starts for {} phases",
            schedule.wave_depth.len(),
            schedule.phase_start.len(),
            schedule.num_phases
        ));
    }
    let mut next = 0usize;
    for p in 0..schedule.num_phases {
        if schedule.phase_start[p] != next {
            return Err(format!(
                "phase windows do not tile: phase {p} starts at {} instead of {next}",
                schedule.phase_start[p]
            ));
        }
        next += schedule.wave_depth[p] + 1;
    }
    if schedule.total_rounds != next {
        return Err(format!(
            "phase windows do not tile: {} total rounds recorded, windows end at {next}",
            schedule.total_rounds
        ));
    }
    for (v, &p) in schedule.phase.iter().enumerate() {
        if p >= schedule.num_phases {
            return Err(format!("node {v}: phase {p} out of range"));
        }
    }
    Ok((0..n)
        .map(|v| NetDecompProgram {
            phase_start: schedule.phase_start[schedule.phase[v]] as u64,
            total_rounds: schedule.total_rounds as u64,
            center: schedule.center[v],
            leader: None,
            parent: None,
            depth: 0,
        })
        .collect())
}

/// Computes the carving schedule of `graph` and builds one
/// [`NetDecompProgram`] per node, together with the schedule the programs
/// follow.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn netdecomp_programs(
    graph: &Graph,
    k: usize,
    config: &DecompositionConfig,
) -> (Vec<NetDecompProgram>, CarvingSchedule) {
    let schedule = carving_schedule(graph, k, config);
    let programs = netdecomp_programs_from_schedule(graph, &schedule)
        .expect("a freshly carved schedule is graph-aligned");
    (programs, schedule)
}

/// Assembles a [`NetworkDecomposition`] from the per-node engine outputs; the
/// run that produced them is the decomposition's cost. Clusters are grouped
/// by their announced leader and ordered by `(phase, leader)` — the carving
/// order of the central oracle.
pub fn assemble_decomposition(
    outputs: &[NetDecompOutput],
    schedule: &CarvingSchedule,
) -> NetworkDecomposition {
    let n = outputs.len();
    let mut leaders: Vec<usize> = (0..n).filter(|&v| outputs[v].leader == v).collect();
    leaders.sort_unstable_by_key(|&l| (schedule.phase[l], l));
    let mut cluster_index = vec![usize::MAX; n];
    for (ci, &l) in leaders.iter().enumerate() {
        cluster_index[l] = ci;
    }
    let mut clusters: Vec<Cluster> = leaders
        .iter()
        .map(|&l| Cluster {
            leader: NodeId(l),
            members: Vec::new(),
            parents: Vec::new(),
            depth: 0,
        })
        .collect();
    let colors: Vec<usize> = leaders.iter().map(|&l| schedule.phase[l]).collect();
    let mut cluster_of = vec![usize::MAX; n];
    for (v, out) in outputs.iter().enumerate() {
        let ci = cluster_index[out.leader];
        cluster_of[v] = ci;
        let cluster = &mut clusters[ci];
        cluster.members.push(NodeId(v));
        cluster.parents.push(out.parent.map(NodeId));
        cluster.depth = cluster.depth.max(out.depth);
    }
    NetworkDecomposition {
        k: schedule.k,
        clusters: ClusterGraph {
            clusters,
            cluster_of,
            colors,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{Executor, ExecutorConfig, PooledExecutor, RunReport, SyncExecutor};
    use mds_graphs::generators;

    /// Builds the measured programs, runs them on `executor` and assembles
    /// the decomposition, as the pipeline does; also returns the engine
    /// report and the schedule the programs followed.
    fn run_measured<E: Executor>(
        graph: &Graph,
        k: usize,
        executor: &E,
    ) -> (
        NetworkDecomposition,
        RunReport<NetDecompOutput>,
        CarvingSchedule,
    ) {
        let (programs, schedule) = netdecomp_programs(graph, k, &DecompositionConfig::default());
        let report = executor
            .run(graph, programs, &ExecutorConfig::default())
            .unwrap();
        (
            assemble_decomposition(&report.outputs, &schedule),
            report,
            schedule,
        )
    }

    fn check(graph: &Graph, k: usize) -> NetworkDecomposition {
        let nd = strong_diameter_decomposition(graph, k, &DecompositionConfig::default());
        nd.verify(graph).expect("valid decomposition");
        nd
    }

    /// Runs the measured program and pins it bit-identical to the oracle,
    /// with the exact round formula and the paper charge.
    fn check_measured(
        graph: &Graph,
        k: usize,
    ) -> (
        NetworkDecomposition,
        RunReport<NetDecompOutput>,
        CarvingSchedule,
    ) {
        let oracle = check(graph, k);
        let (nd, report, schedule) = run_measured(graph, k, &SyncExecutor);
        assert_eq!(nd.clusters, oracle.clusters);
        assert_eq!(nd.k, oracle.k);
        assert_eq!(report.rounds, schedule.wave_rounds());
        assert_eq!(
            report.rounds,
            formulas::measured_netdecomp_rounds(
                schedule.num_phases as u64,
                schedule.total_wave_depth()
            )
        );
        assert!(
            report.rounds <= formulas::netdecomp_charge_rounds(graph.n(), k),
            "measured {} rounds exceed the paper charge {}",
            report.rounds,
            formulas::netdecomp_charge_rounds(graph.n(), k)
        );
        assert_eq!(report.messages, 2 * graph.m() as u64);
        (nd, report, schedule)
    }

    #[test]
    fn decomposition_of_paths_grids_and_random_graphs_is_valid() {
        check(&generators::path(40), 2);
        check(&generators::grid(6, 7), 2);
        check(&generators::gnp(80, 0.05, 3), 2);
        check(&generators::random_tree(60, 4), 3);
    }

    #[test]
    fn quality_parameters_are_logarithmic() {
        let g = generators::grid(12, 12);
        let nd = check(&g, 2);
        let n = g.n() as f64;
        let log_n = n.log2();
        assert!(
            nd.num_colors() as f64 <= 2.0 * log_n + 1.0,
            "{} colors for n={}",
            nd.num_colors(),
            g.n()
        );
        assert!(
            nd.diameter() as f64 <= 2.0 * 2.0 * log_n + 2.0,
            "diameter {} too large",
            nd.diameter()
        );
    }

    #[test]
    fn complete_graph_is_a_single_cluster() {
        let g = generators::complete(30);
        let nd = check(&g, 2);
        assert_eq!(nd.clusters.len(), 1);
        assert_eq!(nd.num_colors(), 1);
        // The degenerate one-center instance on the engine: one phase of
        // depth 1, so the run spends exactly two rounds.
        let (_, report, schedule) = check_measured(&g, 2);
        assert_eq!(schedule.num_phases, 1);
        assert_eq!(report.rounds, 2);
    }

    #[test]
    fn clusters_by_color_partition_the_clusters() {
        let g = generators::gnp(70, 0.04, 9);
        let nd = check(&g, 2);
        let by_color = nd.clusters_by_color();
        let total: usize = by_color.iter().map(Vec::len).sum();
        assert_eq!(total, nd.clusters.len());
        assert_eq!(by_color.len(), nd.num_colors());
    }

    #[test]
    fn separation_parameter_is_respected_for_k_three() {
        let g = generators::gnp(50, 0.06, 12);
        let nd = check(&g, 3);
        assert_eq!(nd.k, 3);
        check_measured(&g, 3);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = congest_sim::Graph::empty(0);
        let nd = strong_diameter_decomposition(&g, 2, &DecompositionConfig::default());
        assert_eq!(nd.clusters.len(), 0);
        let (measured, report, _) = run_measured(&g, 2, &SyncExecutor);
        assert_eq!(report.rounds, 0);
        assert!(measured.clusters.is_empty());

        let g = congest_sim::Graph::empty(1);
        let nd = check(&g, 2);
        assert_eq!(nd.clusters.len(), 1);
        let (_, report, _) = check_measured(&g, 2);
        assert_eq!(report.rounds, 1, "one phase, zero wave depth");
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let _ =
            strong_diameter_decomposition(&generators::path(3), 0, &DecompositionConfig::default());
    }

    #[test]
    fn schedule_centers_are_the_minimum_member_identifiers() {
        let g = generators::gnp(60, 0.08, 21);
        let schedule = carving_schedule(&g, 2, &DecompositionConfig::default());
        let clusters = clusters_from_schedule(&g, &schedule);
        for cluster in &clusters.clusters {
            assert_eq!(cluster.leader, *cluster.members.iter().min().unwrap());
            assert!(schedule.center[cluster.leader.0]);
            assert!(cluster
                .members
                .iter()
                .all(|&v| schedule.phase[v.0] == schedule.phase[cluster.leader.0]));
        }
        // Every center leads exactly one cluster.
        let centers = schedule.center.iter().filter(|&&c| c).count();
        assert_eq!(centers, clusters.clusters.len());
    }

    #[test]
    fn schedule_windows_tile_the_timeline() {
        let g = generators::grid(7, 9);
        let schedule = carving_schedule(&g, 2, &DecompositionConfig::default());
        let mut next = 0usize;
        for p in 0..schedule.num_phases {
            assert_eq!(schedule.phase_start[p], next);
            next += schedule.wave_depth[p] + 1;
        }
        assert_eq!(schedule.total_rounds, next);
        assert_eq!(schedule.wave_rounds(), next as u64);
        // The wave depth of a phase is its deepest cluster tree.
        let clusters = clusters_from_schedule(&g, &schedule);
        for p in 0..schedule.num_phases {
            let deepest = clusters
                .clusters
                .iter()
                .zip(clusters.colors.iter())
                .filter(|(_, &color)| color == p)
                .map(|(c, _)| c.depth)
                .max()
                .unwrap_or(0);
            assert_eq!(schedule.wave_depth[p], deepest);
        }
    }

    #[test]
    fn schedule_replay_matches_the_legacy_member_bfs_depths() {
        // The schedule-driven replay changes only the parent rule (smallest
        // wave predecessor instead of BFS discovery order); member sets,
        // leaders and depths must match a from-members rebuild.
        let g = generators::gnp(55, 0.07, 5);
        let nd = check(&g, 2);
        for cluster in &nd.clusters.clusters {
            let rebuilt = ClusterGraph::cluster_from_members(&g, &cluster.members);
            assert_eq!(cluster.members, rebuilt.members);
            assert_eq!(cluster.leader, rebuilt.leader);
            assert_eq!(cluster.depth, rebuilt.depth);
        }
    }

    #[test]
    fn measured_program_matches_oracle_across_generators_and_executors() {
        for (g, k) in [
            (generators::path(40), 2),
            (generators::cycle(48), 2),
            (generators::star(30), 2),
            (generators::grid(6, 8), 2),
            (generators::gnp(70, 0.06, 11), 2),
            (generators::random_tree(45, 7), 3),
        ] {
            let (nd, report, _) = check_measured(&g, k);
            nd.verify(&g).expect("valid decomposition");
            let (par, par_report, _) = run_measured(&g, k, &PooledExecutor::new(3));
            assert_eq!(par_report, report);
            assert_eq!(par.clusters, nd.clusters);
        }
    }

    #[test]
    fn join_messages_use_the_broadcast_fast_path() {
        // Every node broadcasts its join exactly once: 2m messages charged,
        // one stored payload per non-isolated node.
        let g = generators::gnp(50, 0.1, 3);
        let (_, report, _) = check_measured(&g, 2);
        let isolated = (0..g.n()).filter(|&v| g.degree(NodeId(v)) == 0).count();
        assert_eq!(report.payloads, (g.n() - isolated) as u64);
    }

    #[test]
    fn from_schedule_validation_rejects_misaligned_plans() {
        let g = generators::path(6);
        let schedule = carving_schedule(&g, 2, &DecompositionConfig::default());

        // Plan carved for a different graph.
        let err = netdecomp_programs_from_schedule(&generators::path(4), &schedule).unwrap_err();
        assert!(err.contains("graph-aligned"), "{err}");

        // Windows that do not tile the timeline.
        let mut shifted = schedule.clone();
        shifted.total_rounds += 1;
        let err = netdecomp_programs_from_schedule(&g, &shifted).unwrap_err();
        assert!(err.contains("do not tile"), "{err}");

        // A phase index beyond the recorded phase count.
        let mut wild = schedule.clone();
        wild.phase[3] = wild.num_phases + 7;
        let err = netdecomp_programs_from_schedule(&g, &wild).unwrap_err();
        assert!(err.contains("out of range"), "{err}");

        // Truncated window tables.
        let mut torn = schedule;
        torn.wave_depth.pop();
        let err = netdecomp_programs_from_schedule(&g, &torn).unwrap_err();
        assert!(err.contains("malformed"), "{err}");
    }
}

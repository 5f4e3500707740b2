//! The Theorem 1.4 construction: from a dominating set to a connected
//! dominating set with constant-factor overhead.
//!
//! Outline (Section 4 of the paper):
//!
//! 1. Build `G_S` (Claim 4.1) with witness paths of length ≤ 3.
//! 2. Select cluster centers `S' ⊆ S` with a ruling set, so that the number
//!    of clusters is a small fraction of `|S|` (Lemma 4.2 uses separation
//!    `Θ(log² n)`; the separation is configurable here — substitution R6).
//! 3. Cluster every set node to its nearest center in `G_S` and realise the
//!    cluster trees in `G` through the witness paths (the BFS-phase
//!    construction of Lemma 4.2).
//! 4. Build the reduced cluster graph `G'_S`, run the derandomized
//!    Baswana–Sen spanner on it (R5), and realise every spanner edge through
//!    its witness path.
//! 5. The connected dominating set is `S` plus all witness (Steiner) nodes
//!    used by cluster trees and spanner edges.

use crate::gs::build_gs;
use congest_sim::ledger::formulas;
use congest_sim::{Graph, GraphBuilder, NodeId, PhaseKind, PhaseSpec, RoundLedger};
use mds_decomposition::ruling_set::ruling_set;
use mds_decomposition::spanner::derandomized_spanner;
use std::collections::{BTreeMap, VecDeque};

/// Configuration of the CDS construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdsConfig {
    /// Separation (in `G_S` hops) of the ruling set that selects cluster
    /// centers. The paper uses `Θ(log² n)` (in `G` hops) to make the spanner
    /// overhead an `ε`-fraction of `|S|`; larger values mean fewer clusters
    /// and deeper cluster trees.
    pub center_separation: usize,
}

impl Default for CdsConfig {
    fn default() -> Self {
        CdsConfig {
            center_separation: 3,
        }
    }
}

/// Result of the CDS construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CdsResult {
    /// The connected dominating set (a superset of the input dominating set).
    pub cds: Vec<NodeId>,
    /// Size of the input dominating set.
    pub input_size: usize,
    /// Number of clusters (ruling-set centers).
    pub num_clusters: usize,
    /// Number of cluster-graph edges kept by the spanner.
    pub spanner_edges: usize,
    /// Number of Steiner (non-set) nodes added.
    pub steiner_nodes: usize,
    /// Round accounting.
    pub ledger: RoundLedger,
}

impl CdsResult {
    /// Size of the connected dominating set.
    pub fn size(&self) -> usize {
        self.cds.len()
    }

    /// The overhead factor `|CDS| / |S|`.
    pub fn overhead(&self) -> f64 {
        if self.input_size == 0 {
            1.0
        } else {
            self.size() as f64 / self.input_size as f64
        }
    }
}

/// Extends the dominating set `ds` of `graph` to a connected dominating set
/// (per connected component of `graph`).
pub fn connect_dominating_set(graph: &Graph, ds: &[NodeId], config: &CdsConfig) -> CdsResult {
    let mut ledger = RoundLedger::new();
    let mut set: Vec<NodeId> = ds.to_vec();
    set.sort_unstable();
    set.dedup();
    let input_size = set.len();
    if input_size <= 1 {
        return CdsResult {
            cds: set,
            input_size,
            num_clusters: input_size,
            spanner_edges: 0,
            steiner_nodes: 0,
            ledger,
        };
    }

    // Step 1: G_S with witness paths.
    let gs = build_gs(graph, &set);
    ledger.charge(
        PhaseSpec::new(PhaseKind::Other, "G_S construction (paths of length ≤ 3)")
            .with_formula((3 + (graph.n().max(2) as f64).log2().ceil() as u64).max(3)),
        3,
        3 * graph.m() as u64,
    );

    // Step 2: ruling-set cluster centers on G_S.
    let candidates: Vec<NodeId> = gs.graph.nodes().collect();
    let rs = ruling_set(&gs.graph, &candidates, config.center_separation.max(1));
    ledger.absorb(rs.ledger.clone());
    let centers = rs.selected;

    // Step 3: cluster every G_S node to its nearest center and realise the
    // cluster trees through witness paths.
    let (cluster_of, parent_in_gs) = cluster_assignment(&gs.graph, &centers);
    let mut in_cds = vec![false; graph.n()];
    for &v in &set {
        in_cds[v.0] = true;
    }
    let mut steiner_nodes = 0usize;
    for i in 0..gs.graph.n() {
        if let Some(p) = parent_in_gs[i] {
            if let Some(inner) = gs.witness(i, p.0) {
                for &w in inner {
                    if !in_cds[w.0] {
                        in_cds[w.0] = true;
                        steiner_nodes += 1;
                    }
                }
            }
        }
    }
    ledger.charge(
        PhaseSpec::new(PhaseKind::Other, "cluster trees (Lemma 4.2)")
            .with_formula(formulas::cds_clustering_rounds(graph.n().max(2))),
        centers.len().max(1) as u64,
        gs.graph.m() as u64,
    );

    // Step 4: the reduced cluster graph G'_S with one representative G_S edge
    // per cluster pair.
    let mut representative: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
    let mut builder = GraphBuilder::new(centers.len());
    for (i, j) in gs.graph.edges() {
        let (a, b) = (cluster_of[i.0], cluster_of[j.0]);
        if a == b {
            continue;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        representative.entry(key).or_insert((i.0, j.0));
        builder.add_edge(key.0, key.1).expect("in-range");
    }
    let cluster_graph = builder.build();

    // Step 5: derandomized spanner on G'_S; realise its edges via witnesses.
    let spanner = derandomized_spanner(&cluster_graph);
    ledger.absorb(spanner.ledger.clone());
    for &(a, b) in &spanner.edges {
        let key = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        let (i, j) = representative[&key];
        if let Some(inner) = gs.witness(i, j) {
            for &w in inner {
                if !in_cds[w.0] {
                    in_cds[w.0] = true;
                    steiner_nodes += 1;
                }
            }
        }
    }

    let cds: Vec<NodeId> = (0..graph.n()).filter(|&v| in_cds[v]).map(NodeId).collect();
    CdsResult {
        cds,
        input_size,
        num_clusters: centers.len(),
        spanner_edges: spanner.edges.len(),
        steiner_nodes,
        ledger,
    }
}

/// Assigns every `G_S` node to its nearest center (ties towards the smaller
/// center identifier) and records its BFS parent, which realises the cluster
/// tree inside `G_S`.
fn cluster_assignment(gs_graph: &Graph, centers: &[NodeId]) -> (Vec<usize>, Vec<Option<NodeId>>) {
    let n = gs_graph.n();
    let mut cluster_of = vec![usize::MAX; n];
    let mut parent = vec![None; n];
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for (ci, &c) in centers.iter().enumerate() {
        cluster_of[c.0] = ci;
        dist[c.0] = 0;
        queue.push_back(c);
    }
    while let Some(u) = queue.pop_front() {
        for &v in gs_graph.neighbors(u) {
            if dist[v.0] == usize::MAX {
                dist[v.0] = dist[u.0] + 1;
                cluster_of[v.0] = cluster_of[u.0];
                parent[v.0] = Some(u);
                queue.push_back(v);
            }
        }
    }
    // Nodes unreachable from any center (isolated G_S components without a
    // candidate center cannot occur because every node is a candidate, but be
    // defensive): make them their own cluster.
    for v in 0..n {
        if cluster_of[v] == usize::MAX {
            cluster_of[v] = 0;
        }
    }
    (cluster_of, parent)
}

/// Convenience wrapper for Theorem 1.4: run the deterministic MDS pipeline of
/// Theorem 1.1 and connect its output.
pub fn theorem_1_4(
    graph: &Graph,
    mds_config: &mds_core::pipeline::MdsConfig,
    cds_config: &CdsConfig,
) -> (mds_core::pipeline::MdsResult, CdsResult) {
    let mds = mds_core::pipeline::theorem_1_1(graph, mds_config);
    let mut cds = connect_dominating_set(graph, &mds.dominating_set, cds_config);
    let mut ledger = mds.ledger.clone();
    ledger.absorb(cds.ledger);
    cds.ledger = ledger;
    (mds, cds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_connected_dominating_set;
    use mds_core::greedy::greedy_mds;
    use mds_graphs::generators;

    #[test]
    fn path_dominating_set_gets_connected() {
        let g = generators::path(9);
        let ds = vec![NodeId(1), NodeId(4), NodeId(7)];
        let out = connect_dominating_set(&g, &ds, &CdsConfig::default());
        assert!(is_connected_dominating_set(&g, &out.cds));
        assert!(out.size() >= 3);
        assert!(out.size() <= 9);
    }

    #[test]
    fn greedy_plus_connection_is_a_cds_on_connected_graphs() {
        for seed in 0..4 {
            let g = generators::gnp(70, 0.08, seed);
            if !mds_graphs::analysis::is_connected(&g) {
                continue;
            }
            let ds = greedy_mds(&g).set;
            let out = connect_dominating_set(&g, &ds, &CdsConfig::default());
            assert!(is_connected_dominating_set(&g, &out.cds), "seed {seed}");
            assert!(out.cds.len() >= ds.len());
        }
    }

    #[test]
    fn overhead_stays_constant_factor() {
        // Claim 4.1 / Theorem 1.4: the CDS is at most a constant factor larger
        // than the dominating set (3 in the paper's tree construction, plus
        // the spanner's ε|S| term).
        let g = generators::grid(10, 10);
        let ds = greedy_mds(&g).set;
        let out = connect_dominating_set(&g, &ds, &CdsConfig::default());
        assert!(is_connected_dominating_set(&g, &out.cds));
        assert!(
            out.overhead() <= 4.0,
            "overhead {} too large ({} → {})",
            out.overhead(),
            out.input_size,
            out.size()
        );
    }

    #[test]
    fn theorem_1_4_end_to_end_respects_the_log_delta_guarantee() {
        let g = generators::gnp(40, 0.15, 5);
        if !mds_graphs::analysis::is_connected(&g) {
            return;
        }
        let (mds, cds) = theorem_1_4(
            &g,
            &mds_core::pipeline::MdsConfig::default(),
            &CdsConfig::default(),
        );
        assert!(is_connected_dominating_set(&g, &cds.cds));
        let opt = mds_core::exact::exact_mds(&g, 64).unwrap().size() as f64;
        // CDS optimum is at least the MDS optimum; the algorithm promises
        // O(ln Δ) — allow the constant-factor connection overhead on top of
        // the MDS guarantee.
        let bound = 4.0 * mds.guarantee(&g) * opt + 2.0;
        assert!(
            cds.size() as f64 <= bound,
            "CDS {} exceeds bound {bound}",
            cds.size()
        );
    }

    #[test]
    fn single_node_and_tiny_sets() {
        let g = generators::star(5);
        let out = connect_dominating_set(&g, &[NodeId(0)], &CdsConfig::default());
        assert_eq!(out.cds, vec![NodeId(0)]);
        assert_eq!(out.overhead(), 1.0);
        let empty =
            connect_dominating_set(&congest_sim::Graph::empty(0), &[], &CdsConfig::default());
        assert!(empty.cds.is_empty());
    }

    #[test]
    fn disconnected_graphs_connect_within_components() {
        // Two far-apart paths; the CDS connects each component's dominators.
        let mut edges: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 1)).collect();
        edges.extend((10..18).map(|i| (i, i + 1)));
        let g = congest_sim::Graph::from_edges(19, &edges).unwrap();
        let ds = greedy_mds(&g).set;
        let out = connect_dominating_set(&g, &ds, &CdsConfig::default());
        // Still dominates, and within each component the induced CDS is
        // connected.
        assert!(mds_core::verify::is_dominating_set(&g, &out.cds));
        let comps = mds_graphs::analysis::connected_components(&g);
        for comp in 0..comps.count {
            let members: Vec<NodeId> = out
                .cds
                .iter()
                .copied()
                .filter(|v| comps.component[v.0] == comp)
                .collect();
            if members.len() > 1 {
                let (induced, _) = mds_graphs::analysis::induced_subgraph(&g, &members);
                assert!(mds_graphs::analysis::is_connected(&induced));
            }
        }
    }

    #[test]
    fn larger_separation_means_fewer_clusters() {
        let g = generators::grid(12, 12);
        let ds = greedy_mds(&g).set;
        let near = connect_dominating_set(
            &g,
            &ds,
            &CdsConfig {
                center_separation: 2,
            },
        );
        let far = connect_dominating_set(
            &g,
            &ds,
            &CdsConfig {
                center_separation: 6,
            },
        );
        assert!(far.num_clusters <= near.num_clusters);
        assert!(is_connected_dominating_set(&g, &near.cds));
        assert!(is_connected_dominating_set(&g, &far.cds));
    }
}

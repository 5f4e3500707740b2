//! The auxiliary graph `G_S` of Section 4 and Claim 4.1.
//!
//! For a dominating set `S` of `G`, the graph `G_S` has the nodes of `S` and
//! an edge between two set nodes whenever their distance in `G` is at most 3.
//! Claim 4.1: `G_S` is connected if and only if `G` is connected — which is
//! why connecting the dominating set through paths of length ≤ 3 suffices.

use congest_sim::{Graph, GraphBuilder, NodeId};

/// `G_S` together with a witness path (of length ≤ 3 in `G`) for each edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GsGraph {
    /// The dominating-set nodes, sorted; node `i` of [`GsGraph::graph`]
    /// corresponds to `set[i]`.
    pub set: Vec<NodeId>,
    /// The graph on the set nodes (indices into [`GsGraph::set`]).
    pub graph: Graph,
    /// For each edge `(i, j)` of `graph` with `i < j`, the inner nodes (at
    /// most two) of a `G`-path of length ≤ 3 from `set[i]` to `set[j]`,
    /// sorted by `(i, j)`.
    pub witnesses: Vec<((usize, usize), Vec<NodeId>)>,
}

impl GsGraph {
    /// The witness path's inner nodes for the `G_S` edge `{i, j}`, if the edge
    /// exists.
    pub fn witness(&self, i: usize, j: usize) -> Option<&[NodeId]> {
        let key = if i < j { (i, j) } else { (j, i) };
        self.witnesses
            .binary_search_by_key(&key, |(e, _)| *e)
            .ok()
            .map(|k| self.witnesses[k].1.as_slice())
    }
}

/// Builds `G_S` for the dominating set `set` of `graph`.
pub fn build_gs(graph: &Graph, set: &[NodeId]) -> GsGraph {
    let mut set: Vec<NodeId> = set.to_vec();
    set.sort_unstable();
    set.dedup();
    let mut builder = GraphBuilder::new(set.len());
    let mut witnesses = Vec::new();
    // Bounded BFS (depth 3) from every set node with parent tracking. The
    // scratch is shared by all sources: `reached` is the BFS queue in visit
    // order, and only its entries are reset after each source.
    let mut dist = vec![usize::MAX; graph.n()];
    let mut parent = vec![NodeId(usize::MAX); graph.n()];
    let mut reached = Vec::new();
    for (i, &s) in set.iter().enumerate() {
        dist[s.0] = 0;
        reached.push(s);
        let mut head = 0;
        while let Some(&u) = reached.get(head) {
            head += 1;
            if dist[u.0] == 3 {
                continue;
            }
            for &v in graph.neighbors(u) {
                if dist[v.0] == usize::MAX {
                    dist[v.0] = dist[u.0] + 1;
                    parent[v.0] = u;
                    reached.push(v);
                }
            }
        }
        for (j, &t) in set.iter().enumerate() {
            if j <= i || dist[t.0] == usize::MAX {
                continue;
            }
            builder.add_edge(i, j).expect("in-range");
            // Reconstruct the inner nodes of the path s → t, ordered from the
            // s side to the t side. Inner nodes may themselves be set nodes;
            // the CDS builder deduplicates.
            let mut inner = Vec::new();
            let mut cur = t;
            while parent[cur.0].0 != usize::MAX && parent[cur.0] != s {
                cur = parent[cur.0];
                inner.push(cur);
            }
            inner.reverse();
            witnesses.push(((i, j), inner));
        }
        for v in reached.drain(..) {
            dist[v.0] = usize::MAX;
            parent[v.0] = NodeId(usize::MAX);
        }
    }
    GsGraph {
        set,
        graph: builder.build(),
        witnesses,
    }
}

/// Claim 4.1: for a dominating set `S` of `G`, `G_S` is connected iff `G` is.
pub fn claim_4_1_holds(graph: &Graph, set: &[NodeId]) -> bool {
    let gs = build_gs(graph, set);
    let g_connected = mds_graphs::analysis::is_connected(graph);
    let gs_connected = mds_graphs::analysis::is_connected(&gs.graph);
    g_connected == gs_connected
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_core::greedy::greedy_mds;
    use mds_graphs::generators;

    #[test]
    fn path_dominating_set_forms_a_connected_gs() {
        // On P9, {1, 4, 7} is a dominating set; consecutive picks are at
        // distance 3, so G_S is a path.
        let g = generators::path(9);
        let set = vec![NodeId(1), NodeId(4), NodeId(7)];
        let gs = build_gs(&g, &set);
        assert_eq!(gs.graph.n(), 3);
        assert_eq!(gs.graph.m(), 2);
        assert!(mds_graphs::analysis::is_connected(&gs.graph));
        // The witness between set indices 0 and 1 consists of the two inner
        // path nodes 2 and 3.
        let w = gs.witness(0, 1).unwrap();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn witnesses_are_real_short_paths() {
        let g = generators::gnp(50, 0.1, 2);
        let ds = greedy_mds(&g).set;
        let gs = build_gs(&g, &ds);
        for ((i, j), inner) in &gs.witnesses {
            assert!(inner.len() <= 2, "witness longer than 2 inner nodes");
            // Walking set[i] → inner… → set[j] must follow graph edges.
            let mut walk = vec![gs.set[*i]];
            walk.extend_from_slice(inner);
            walk.push(gs.set[*j]);
            for pair in walk.windows(2) {
                assert!(
                    g.has_edge(pair[0], pair[1]),
                    "witness step {}-{} missing",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn claim_4_1_on_connected_and_disconnected_graphs() {
        for seed in 0..3 {
            let g = generators::gnp(60, 0.1, seed);
            let ds = greedy_mds(&g).set;
            assert!(claim_4_1_holds(&g, &ds));
        }
        // Two disjoint stars: G disconnected, G_S must be too.
        let mut edges = vec![];
        for v in 1..5 {
            edges.push((0, v));
        }
        for v in 6..10 {
            edges.push((5, v));
        }
        let g = congest_sim::Graph::from_edges(10, &edges).unwrap();
        let ds = vec![NodeId(0), NodeId(5)];
        assert!(claim_4_1_holds(&g, &ds));
        let gs = build_gs(&g, &ds);
        assert_eq!(gs.graph.m(), 0);
    }

    #[test]
    fn witness_lookup_agrees_with_a_linear_scan() {
        for seed in 0..3 {
            let g = generators::gnp(80, 0.06, seed);
            let gs = build_gs(&g, &greedy_mds(&g).set);
            assert!(gs.witnesses.windows(2).all(|w| w[0].0 < w[1].0));
            let scan = |key: (usize, usize)| {
                gs.witnesses
                    .iter()
                    .find(|(e, _)| *e == key)
                    .map(|(_, path)| path.as_slice())
            };
            let k = gs.set.len();
            for i in 0..k {
                for j in 0..k {
                    let key = (i.min(j), i.max(j));
                    assert_eq!(gs.witness(i, j), scan(key), "({i}, {j})");
                    let adjacent = gs.graph.has_edge(NodeId(i), NodeId(j));
                    assert_eq!(gs.witness(i, j).is_some(), adjacent);
                }
            }
        }
    }

    #[test]
    fn duplicate_set_entries_are_collapsed() {
        let g = generators::star(6);
        let gs = build_gs(&g, &[NodeId(0), NodeId(0), NodeId(3)]);
        assert_eq!(gs.set.len(), 2);
        assert_eq!(gs.graph.m(), 1);
        // Adjacent set nodes need no inner witness nodes.
        assert!(gs.witness(0, 1).unwrap().is_empty());
    }
}

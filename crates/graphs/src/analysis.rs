//! Structural graph analysis: bounded BFS, connectivity and induced
//! subgraphs.

use congest_sim::{Graph, NodeId};
use std::collections::VecDeque;

/// Result of a connected-components computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `component[v]` is the component index of node `v`.
    pub component: Vec<usize>,
    /// Number of components.
    pub count: usize,
    /// Sizes of the components, indexed by component index.
    pub sizes: Vec<usize>,
}

/// BFS distances restricted to hops of at most `limit`; nodes further away get
/// `usize::MAX`. Used by the `G_S` construction of Section 4 (paths of length
/// at most 3).
pub fn bounded_bfs(graph: &Graph, source: NodeId, limit: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; graph.n()];
    let mut queue = VecDeque::new();
    dist[source.0] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        if dist[u.0] == limit {
            continue;
        }
        for &v in graph.neighbors(u) {
            if dist[v.0] == usize::MAX {
                dist[v.0] = dist[u.0] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Computes connected components via repeated BFS.
pub fn connected_components(graph: &Graph) -> Components {
    let n = graph.n();
    let mut component = vec![usize::MAX; n];
    let mut sizes = Vec::new();
    let mut count = 0;
    for s in 0..n {
        if component[s] != usize::MAX {
            continue;
        }
        let mut size = 0usize;
        let mut queue = VecDeque::new();
        component[s] = count;
        queue.push_back(NodeId(s));
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in graph.neighbors(u) {
                if component[v.0] == usize::MAX {
                    component[v.0] = count;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
        count += 1;
    }
    Components {
        component,
        count,
        sizes,
    }
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(graph: &Graph) -> bool {
    graph.n() == 0 || connected_components(graph).count == 1
}

/// Builds the subgraph induced by `keep` (nodes are re-labelled `0..keep.len()`
/// in the order given) and returns it together with the mapping from new
/// indices back to the original [`NodeId`]s.
pub fn induced_subgraph(graph: &Graph, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
    let mut index_of = vec![usize::MAX; graph.n()];
    for (i, &v) in keep.iter().enumerate() {
        index_of[v.0] = i;
    }
    let mut builder = congest_sim::GraphBuilder::new(keep.len());
    for (i, &v) in keep.iter().enumerate() {
        for &u in graph.neighbors(v) {
            let j = index_of[u.0];
            if j != usize::MAX && i < j {
                builder.add_edge(i, j).expect("in-range");
            }
        }
    }
    (builder.build(), keep.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bounded_bfs_stops_at_limit() {
        let g = generators::path(6);
        let d = bounded_bfs(&g, NodeId(0), 2);
        assert_eq!(d[2], 2);
        assert_eq!(d[3], usize::MAX);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = congest_sim::Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.sizes.iter().sum::<usize>(), 6);
        assert!(!is_connected(&g));
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = generators::cycle(6);
        let (sub, map) = induced_subgraph(&g, &[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 1); // only the edge 0-1 survives
        assert_eq!(map[0], NodeId(0));
        assert_eq!(map[2], NodeId(3));
    }

    #[test]
    fn empty_graph_is_connected_by_convention() {
        assert!(is_connected(&congest_sim::Graph::empty(0)));
        assert!(is_connected(&congest_sim::Graph::empty(1)));
        assert!(!is_connected(&congest_sim::Graph::empty(2)));
    }
}

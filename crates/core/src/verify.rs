//! Dominating-set verification.

use congest_sim::{Graph, NodeId};

/// Whether `set` is a dominating set of `graph`: every node is in the set or
/// has a neighbor in it.
pub fn is_dominating_set(graph: &Graph, set: &[NodeId]) -> bool {
    let mut in_set = vec![false; graph.n()];
    for &v in set {
        if v.0 >= graph.n() {
            return false;
        }
        in_set[v.0] = true;
    }
    graph
        .nodes()
        .all(|v| in_set[v.0] || graph.neighbors(v).iter().any(|&u| in_set[u.0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_graphs::generators;

    #[test]
    fn star_center_dominates() {
        let g = generators::star(10);
        assert!(is_dominating_set(&g, &[NodeId(0)]));
        assert!(!is_dominating_set(&g, &[NodeId(1)]));
        assert!(is_dominating_set(&g, &[NodeId(1), NodeId(0)]));
    }

    #[test]
    fn empty_set_dominates_only_empty_graph() {
        assert!(is_dominating_set(&congest_sim::Graph::empty(0), &[]));
        assert!(!is_dominating_set(&generators::path(2), &[]));
    }

    #[test]
    fn out_of_range_node_is_rejected() {
        let g = generators::path(3);
        assert!(!is_dominating_set(&g, &[NodeId(7)]));
    }
}

//! Bipartite graphs and the *bipartite representation* `B_G` of Section 3.3.
//!
//! The bipartite representation splits every node `v` of `G` into a
//! **constraint node** (left side, carries the covering constraint `c(v)`) and
//! a **value node** (right side, carries the fractional value `x(v)`), with an
//! edge between a constraint node `u` and a value node `v` whenever `u = v` or
//! `{u, v} ∈ E(G)`. The degree-dependent derandomization (Lemmas 3.13, 3.14)
//! further *splits* high-degree constraint nodes; that transformation lives in
//! `mds-rounding` because it depends on the fractional values.

use congest_sim::Graph;

/// A bipartite graph with dense left indices `0..left_count` and dense right
/// indices `0..right_count`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BipartiteGraph {
    left_adj: Vec<Vec<usize>>,
    right_adj: Vec<Vec<usize>>,
}

impl BipartiteGraph {
    /// Creates a bipartite graph with the given side sizes and no edges.
    pub fn new(left_count: usize, right_count: usize) -> Self {
        BipartiteGraph {
            left_adj: vec![Vec::new(); left_count],
            right_adj: vec![Vec::new(); right_count],
        }
    }

    /// Adds an edge between left node `l` and right node `r`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        assert!(l < self.left_adj.len(), "left endpoint out of range");
        assert!(r < self.right_adj.len(), "right endpoint out of range");
        self.left_adj[l].push(r);
        self.right_adj[r].push(l);
    }

    /// Number of left nodes.
    pub fn left_count(&self) -> usize {
        self.left_adj.len()
    }

    /// Number of right nodes.
    pub fn right_count(&self) -> usize {
        self.right_adj.len()
    }

    /// Right neighbors of left node `l`.
    pub fn neighbors_of_left(&self, l: usize) -> &[usize] {
        &self.left_adj[l]
    }

    /// Left neighbors of right node `r`.
    pub fn neighbors_of_right(&self, r: usize) -> &[usize] {
        &self.right_adj[r]
    }

    /// Maximum degree `Δ_L` over left nodes (0 if there are none).
    pub fn max_left_degree(&self) -> usize {
        self.left_adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Maximum degree `Δ_R` over right nodes (0 if there are none).
    pub fn max_right_degree(&self) -> usize {
        self.right_adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The bipartite representation `B_G` of `graph` (Section 3.3): left
    /// nodes are constraint copies, right nodes are value copies, both
    /// indexed by the original node index.
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.n();
        let mut b = BipartiteGraph::new(n, n);
        for v in graph.nodes() {
            // Each constraint node is adjacent to the value copies of its
            // inclusive neighborhood.
            for u in graph.inclusive_neighbors(v) {
                b.add_edge(v.0, u.0);
            }
        }
        b
    }

    /// Iterates over all edges as `(left, right)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.left_adj
            .iter()
            .enumerate()
            .flat_map(|(l, rs)| rs.iter().map(move |&r| (l, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bipartite_graph_basics() {
        let mut b = BipartiteGraph::new(2, 3);
        b.add_edge(0, 0);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        assert_eq!(b.neighbors_of_left(0).len(), 2);
        assert_eq!(b.neighbors_of_right(2).len(), 2);
        assert_eq!(b.max_left_degree(), 2);
        assert_eq!(b.max_right_degree(), 2);
        assert_eq!(b.neighbors_of_left(1), &[2]);
        assert_eq!(b.neighbors_of_right(0), &[0]);
        assert_eq!(b.edges().count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = BipartiteGraph::new(1, 1);
        b.add_edge(0, 1);
    }

    #[test]
    fn representation_of_path() {
        let g = generators::path(3);
        let b = BipartiteGraph::from_graph(&g);
        assert_eq!(b.left_count(), 3);
        assert_eq!(b.right_count(), 3);
        // Constraint node of the middle vertex sees all three value copies.
        assert_eq!(b.neighbors_of_left(1).len(), 3);
        // Endpoints see themselves and the middle node.
        assert_eq!(b.neighbors_of_left(0).len(), 2);
        // Every node's constraint copy is adjacent to its own value copy.
        for v in 0..3 {
            assert!(b.neighbors_of_left(v).contains(&v));
        }
    }

    #[test]
    fn representation_degrees_match_inclusive_degrees() {
        let g = generators::generate(&crate::GraphFamily::Gnp { n: 40, p: 0.1 }, 3);
        let b = BipartiteGraph::from_graph(&g);
        for v in g.nodes() {
            assert_eq!(b.neighbors_of_left(v.0).len(), g.inclusive_degree(v));
            assert_eq!(b.neighbors_of_right(v.0).len(), g.inclusive_degree(v));
        }
        assert_eq!(b.edges().count(), g.n() + 2 * g.m());
    }

    #[test]
    fn empty_bipartite_graph() {
        let b = BipartiteGraph::default();
        assert_eq!(b.left_count(), 0);
        assert_eq!(b.max_left_degree(), 0);
        assert_eq!(b.edges().count(), 0);
    }
}

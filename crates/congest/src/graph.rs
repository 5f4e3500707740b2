//! Immutable undirected network topology in compressed sparse row form.

use crate::error::GraphError;
use crate::topology::TopologyCache;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of a node of the network graph.
///
/// Node identifiers are dense indices `0..n`. The CONGEST model assumes
/// globally unique identifiers of `O(log n)` bits; a dense index satisfies
/// that and keeps adjacency structures compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

impl From<NodeId> for usize {
    fn from(value: NodeId) -> Self {
        value.0
    }
}

/// An immutable, simple, undirected graph stored in CSR (compressed sparse
/// row) form.
///
/// This is the network topology over which all distributed algorithms in the
/// workspace run. Construction deduplicates parallel edges and rejects
/// self-loops and out-of-range endpoints.
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    m: usize,
    max_degree: usize,
    /// Lazily built engine routing table ([`TopologyCache`]), shared across
    /// runs and across clones made after the first build. Not part of the
    /// graph's identity: equality compares structure only.
    topo: OnceLock<Arc<TopologyCache>>,
}

/// Structural equality: two graphs are equal iff they have the same CSR
/// representation. The lazily built topology cache is deliberately excluded —
/// a graph that has run on the engine stays equal to a fresh copy that has
/// not.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.neighbors == other.neighbors
            && self.m == other.m
            && self.max_degree == other.max_degree
    }
}

impl Eq for Graph {}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Parallel edges are collapsed; edge direction is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] if an edge of the form `(v, v)` is supplied.
    ///
    /// # Example
    ///
    /// ```
    /// use congest_sim::Graph;
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (1, 2)]).unwrap();
    /// assert_eq!(g.m(), 2);
    /// ```
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut builder = GraphBuilder::new(n);
        for &(u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Builds a graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of node `v` (number of distinct neighbors, excluding `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the graph.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.0 + 1] - self.offsets[v.0]
    }

    /// The neighbors of `v`, sorted by identifier.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the graph.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v.0]..self.offsets[v.0 + 1]]
    }

    /// Iterator over the *inclusive* neighborhood `N(v) = {v} ∪ Γ(v)` used
    /// throughout the paper (Section 2).
    pub fn inclusive_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(v).chain(self.neighbors(v).iter().copied())
    }

    /// Size of the inclusive neighborhood of `v`, i.e. `deg(v) + 1`.
    pub fn inclusive_degree(&self, v: NodeId) -> usize {
        self.degree(v) + 1
    }

    /// Maximum degree `Δ` of the graph.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The quantity `Δ̃ = Δ + 1`, the maximum size of an inclusive
    /// neighborhood (Section 2).
    pub fn delta_tilde(&self) -> usize {
        self.max_degree + 1
    }

    /// Returns `true` if `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The range of CSR slots belonging to `v`'s adjacency list. Part of the
    /// engine SPI: executors (including external transport backends) use it
    /// to index per-edge message arenas.
    pub fn slot_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v.0]..self.offsets[v.0 + 1]
    }

    /// Position of `u` within `v`'s sorted adjacency list, if `{v, u}` is an
    /// edge. `O(log deg(v))`.
    pub fn neighbor_index(&self, v: NodeId, u: NodeId) -> Option<usize> {
        self.neighbors(v).binary_search(&u).ok()
    }

    /// Total number of directed adjacency slots (`2m`).
    pub fn slot_count(&self) -> usize {
        self.neighbors.len()
    }

    /// The node whose slot range holds `slot` — the receiver of a message
    /// delivered there, which is the neighbor the slot's mirror twin
    /// points back to.
    pub(crate) fn slot_owner(&self, slot: usize) -> NodeId {
        self.neighbors[self.topology().mirror[slot]]
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n()).map(NodeId)
    }

    /// Iterator over all edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The engine's routing table for this graph, built on first use and
    /// cached. Every executor run, every phase of a composed program and
    /// every clone taken after the first build shares one allocation. Part
    /// of the engine SPI, exposed so external transport backends route
    /// through the same cached tables.
    pub fn topology(&self) -> &Arc<TopologyCache> {
        self.topo
            .get_or_init(|| Arc::new(TopologyCache::build(self)))
    }

    /// Eagerly builds the engine's per-graph routing table (`O(m log Δ)`)
    /// so that subsequent executor runs pay no setup cost. Idempotent; called
    /// automatically on first use, so this only controls *when* the cost is
    /// paid (e.g. outside a measured phase's wall time).
    pub fn warm_topology(&self) {
        let _ = self.topology();
    }

    /// Returns `true` if the engine routing table has already been built
    /// for this graph instance (directly, via [`Graph::warm_topology`], or by
    /// a previous executor run).
    pub fn topology_cached(&self) -> bool {
        self.topo.get().is_some()
    }

    /// Average degree `2m / n`; `0.0` for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m as f64 / self.n() as f64
        }
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use congest_sim::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(2, 3).unwrap();
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    adjacency: Vec<Vec<NodeId>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// See [`Graph::from_edges`].
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<&mut Self, GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.adjacency[u].push(NodeId(v));
        self.adjacency[v].push(NodeId(u));
        Ok(self)
    }

    /// Finalizes the graph: sorts adjacency lists, removes duplicates and
    /// computes degree statistics.
    pub fn build(mut self) -> Graph {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0usize);
        let mut max_degree = 0usize;
        let mut m2 = 0usize;
        for list in self.adjacency.iter_mut() {
            list.sort_unstable();
            list.dedup();
            max_degree = max_degree.max(list.len());
            m2 += list.len();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        Graph {
            offsets,
            neighbors,
            m: m2 / 2,
            max_degree,
            topo: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn slot_owner_is_the_node_whose_range_holds_the_slot() {
        // Nodes 2 and 5 are isolated: their empty ranges sit between others.
        let g = Graph::from_edges(7, &[(0, 1), (0, 3), (1, 3), (3, 4), (4, 6)]).unwrap();
        for v in g.nodes() {
            for slot in g.slot_range(v) {
                assert_eq!(g.slot_owner(slot), v, "slot {slot}");
            }
        }
    }

    #[test]
    fn csr_construction_is_correct() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 3)]).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.neighbors(NodeId(3)), &[NodeId(2)]);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.delta_tilde(), 3);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Graph::from_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
    }

    #[test]
    fn inclusive_neighborhood_contains_self() {
        let g = path(3);
        let inc: Vec<_> = g.inclusive_neighbors(NodeId(1)).collect();
        assert!(inc.contains(&NodeId(1)));
        assert_eq!(inc.len(), g.inclusive_degree(NodeId(1)));
        assert_eq!(inc.len(), 3);
    }

    #[test]
    fn has_edge_and_edges_iterator_agree() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]).unwrap();
        let listed: Vec<_> = g.edges().collect();
        assert_eq!(listed.len(), g.m());
        for (u, v) in listed {
            assert!(u < v);
            assert!(g.has_edge(u, v));
            assert!(g.has_edge(v, u));
        }
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
        assert!(!g.has_edge(NodeId(2), NodeId(2)));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(4);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        let g0 = Graph::empty(0);
        assert_eq!(g0.n(), 0);
        assert_eq!(g0.average_degree(), 0.0);
    }

    #[test]
    fn average_degree_of_cycle_is_two() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn node_id_display_and_conversions() {
        let v = NodeId::from(7usize);
        assert_eq!(usize::from(v), 7);
        assert_eq!(v.index(), 7);
        assert_eq!(v.to_string(), "v7");
    }
}

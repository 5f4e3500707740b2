//! The per-graph routing table shared by every engine run.
//!
//! The execution engine resolves delivery slots at send time: directed edge
//! `(u, v)` owns a fixed arena slot inside receiver `v`'s CSR range, and the
//! sender-side write goes through a precomputed *mirror* index. Building that
//! index costs `O(m log Δ)` (one adjacency binary search per directed edge) —
//! cheap once, but wasteful when an 8-phase [`crate::compose::ComposedProgram`]
//! rebuilds it for every phase, or a benchmark re-runs the same graph dozens
//! of times.
//!
//! [`TopologyCache`] packages the mirror table and lives inside [`Graph`]
//! behind a `OnceLock<Arc<..>>`: the first run on a graph builds it, every
//! later run — and every clone of the graph made after that — shares the
//! same allocation.

use crate::Graph;

/// Precomputed slot-routing table for one [`Graph`].
///
/// Immutable once built; shared across executors, phases and runs via
/// [`Graph::topology`].
#[derive(Debug)]
pub struct TopologyCache {
    /// `mirror[s]` is the reverse-direction twin of directed-edge slot `s`:
    /// for slot `s = slot_range(v).start + i` (the message *received by* `v`
    /// from its `i`-th neighbor `u`), `mirror[s]` is `u`'s slot for messages
    /// received from `v`. Sender-side writes go through this table.
    pub mirror: Vec<usize>,
}

impl TopologyCache {
    /// Builds the table for `graph` in `O(m log Δ)`.
    pub fn build(graph: &Graph) -> Self {
        let mut mirror = vec![0usize; graph.slot_count()];
        for v in graph.nodes() {
            let range = graph.slot_range(v);
            for (i, &u) in graph.neighbors(v).iter().enumerate() {
                let j = graph
                    .neighbor_index(u, v)
                    .expect("undirected CSR adjacency is symmetric");
                mirror[range.start + i] = graph.slot_range(u).start + j;
            }
        }
        TopologyCache { mirror }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_is_an_involution_and_owners_match_ranges() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]).unwrap();
        let t = TopologyCache::build(&g);
        assert_eq!(t.mirror.len(), g.slot_count());
        for s in 0..t.mirror.len() {
            assert_eq!(t.mirror[t.mirror[s]], s, "mirror must be an involution");
        }
        for v in g.nodes() {
            for (s, &u) in g.slot_range(v).zip(g.neighbors(v)) {
                // The mirror of v's slot for neighbor u is u's slot for v.
                let range = g.slot_range(u);
                assert!(range.contains(&t.mirror[s]));
                assert_eq!(g.neighbors(u)[t.mirror[s] - range.start], v);
            }
        }
    }

    #[test]
    fn cache_is_built_once_and_shared_across_clones() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(!g.topology_cached());
        let first = std::sync::Arc::as_ptr(g.topology());
        assert!(g.topology_cached());
        assert_eq!(std::sync::Arc::as_ptr(g.topology()), first);
        // A clone made after warming shares the same allocation.
        let c = g.clone();
        assert!(c.topology_cached());
        assert_eq!(std::sync::Arc::as_ptr(c.topology()), first);
    }

    #[test]
    fn warm_topology_builds_eagerly_and_equality_ignores_the_cache() {
        let warm = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let cold = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        warm.warm_topology();
        assert!(warm.topology_cached());
        assert!(!cold.topology_cached());
        assert_eq!(warm, cold, "structural equality must ignore the cache");
    }

    #[test]
    fn empty_graph_has_empty_tables() {
        let g = Graph::empty(3);
        let t = g.topology();
        assert!(t.mirror.is_empty());
    }
}

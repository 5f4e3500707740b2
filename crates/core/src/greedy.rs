//! The greedy `(1 + ln(Δ+1))`-approximation \[Joh74\].
//!
//! [`greedy_mds`] is the classic centralized baseline: repeatedly add the
//! node covering the most still-uncovered nodes. Its approximation factor is
//! what the paper's distributed algorithms match up to a `(1+ε)` factor, and
//! it doubles as a cheap upper bound for the exact solver and experiments.

use congest_sim::{Graph, NodeId};

/// Result of the greedy algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyResult {
    /// The dominating set, in the order the nodes were picked.
    pub set: Vec<NodeId>,
}

impl GreedyResult {
    /// Size of the dominating set.
    pub fn size(&self) -> usize {
        self.set.len()
    }
}

/// Runs the greedy MDS algorithm. Ties are broken towards smaller identifiers,
/// so the output is deterministic.
pub fn greedy_mds(graph: &Graph) -> GreedyResult {
    let n = graph.n();
    let mut covered = vec![false; n];
    let mut uncovered = n;
    let mut gain: Vec<usize> = graph.nodes().map(|v| graph.inclusive_degree(v)).collect();
    let mut set = Vec::new();
    while uncovered > 0 {
        // Pick the node with the largest number of uncovered nodes in its
        // inclusive neighborhood.
        let best = graph
            .nodes()
            .max_by(|&a, &b| gain[a.0].cmp(&gain[b.0]).then(b.cmp(&a)))
            .expect("nonempty graph");
        debug_assert!(gain[best.0] > 0, "greedy stalled with uncovered nodes");
        set.push(best);
        for u in graph.inclusive_neighbors(best) {
            if !covered[u.0] {
                covered[u.0] = true;
                uncovered -= 1;
                // Every node that could have covered u loses one unit of gain.
                for w in graph.inclusive_neighbors(u) {
                    gain[w.0] -= 1;
                }
            }
        }
    }
    GreedyResult { set }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_dominating_set;
    use mds_graphs::generators;

    #[test]
    fn star_greedy_is_optimal() {
        let g = generators::star(20);
        let r = greedy_mds(&g);
        assert_eq!(r.size(), 1);
        assert_eq!(r.set, vec![NodeId(0)]);
    }

    #[test]
    fn path_greedy_close_to_optimal() {
        let g = generators::path(9);
        let r = greedy_mds(&g);
        assert!(is_dominating_set(&g, &r.set));
        // Optimal is 3 for P9; greedy should be 3 or 4.
        assert!(r.size() <= 4);
    }

    #[test]
    fn greedy_output_is_always_dominating() {
        for seed in 0..5 {
            let g = generators::gnp(70, 0.08, seed);
            let r = greedy_mds(&g);
            assert!(is_dominating_set(&g, &r.set));
        }
        let g = generators::caterpillar(8, 3);
        let r = greedy_mds(&g);
        assert!(is_dominating_set(&g, &r.set));
    }

    #[test]
    fn caterpillar_greedy_picks_the_spine() {
        let g = generators::caterpillar(6, 4);
        let r = greedy_mds(&g);
        // The spine of 6 nodes is optimal; greedy finds exactly it.
        assert_eq!(r.size(), 6);
    }

    #[test]
    fn empty_graph_gives_empty_set() {
        let g = congest_sim::Graph::empty(0);
        assert_eq!(greedy_mds(&g).size(), 0);
    }

    #[test]
    fn isolated_nodes_are_all_selected() {
        let g = congest_sim::Graph::empty(4);
        let r = greedy_mds(&g);
        assert_eq!(r.size(), 4);
    }

    #[test]
    fn greedy_respects_the_ln_delta_guarantee_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::gnp(50, 0.15, seed);
            let r = greedy_mds(&g);
            let lb = mds_fractional::lp::dual_lower_bound(&g);
            let guarantee = 1.0 + (g.delta_tilde() as f64).ln();
            assert!(
                r.size() as f64 <= guarantee * lb.max(1.0) * 1.5 + 1.0,
                "greedy {} vs bound {}",
                r.size(),
                guarantee * lb
            );
        }
    }
}

//! Sparse connectivity-preserving spanners (Section 4).
//!
//! Theorem 1.4 connects the clusters of the dominating set through a sparse
//! spanning subgraph of the cluster graph. The paper uses the Baswana–Sen
//! cluster-sampling spanner \[BS07\], derandomized as in \[GK18\]. This module
//! provides:
//!
//! * [`baswana_sen_spanner`] — the classic randomized algorithm with
//!   `⌈log₂ n⌉` sampling phases (stretch `O(log n)`, `O(n log n)` edges in
//!   expectation).
//! * [`derandomized_spanner`] — the same algorithm with every cluster's
//!   sampling coin fixed by the method of conditional expectations on the
//!   exact expected number of edges added in the current phase (substitution
//!   R5 in `DESIGN.md`). The edge bound becomes deterministic and
//!   connectivity is preserved structurally.

use congest_sim::{Graph, NodeId, PhaseKind, PhaseSpec, RoundLedger};
use rand::Rng;
use std::collections::BTreeMap;

/// A computed spanner.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannerResult {
    /// The selected edges (a subset of the input graph's edges).
    pub edges: Vec<(NodeId, NodeId)>,
    /// Number of sampling phases executed.
    pub phases: usize,
    /// Round accounting (each phase is `O(1)` rounds on the cluster graph).
    pub ledger: RoundLedger,
}

impl SpannerResult {
    /// The spanner as a [`Graph`] on the same node set.
    pub fn to_graph(&self, n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = self.edges.iter().map(|&(u, v)| (u.0, v.0)).collect();
        Graph::from_edges(n, &edges).expect("spanner edges are valid")
    }
}

/// How the per-phase cluster sampling decisions are made.
enum Sampling<'a> {
    Random(&'a mut dyn FnMut() -> bool),
    Derandomized,
}

/// The default number of phases, `⌈log₂ n⌉`.
pub fn default_phases(n: usize) -> usize {
    ((n.max(2) as f64).log2().ceil() as usize).max(1)
}

/// Computes a Baswana–Sen spanner with random cluster sampling.
pub fn baswana_sen_spanner<R: Rng + ?Sized>(graph: &Graph, rng: &mut R) -> SpannerResult {
    let mut flip = || rng.gen_bool(0.5);
    run_spanner(
        graph,
        default_phases(graph.n()),
        Sampling::Random(&mut flip),
    )
}

/// Computes a spanner with the cluster sampling derandomized by conditional
/// expectations on the number of edges added per phase.
pub fn derandomized_spanner(graph: &Graph) -> SpannerResult {
    run_spanner(graph, default_phases(graph.n()), Sampling::Derandomized)
}

fn run_spanner(graph: &Graph, phases: usize, mut sampling: Sampling<'_>) -> SpannerResult {
    let n = graph.n();
    // cluster[v] = Some(center id) while v is active, None once v has retired.
    let mut cluster: Vec<Option<usize>> = (0..n).map(Some).collect();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut ledger = RoundLedger::new();
    let norm = |a: NodeId, b: NodeId| if a < b { (a, b) } else { (b, a) };

    for phase in 0..phases {
        // Current cluster centers.
        let centers: Vec<usize> = {
            let mut cs: Vec<usize> = cluster.iter().flatten().copied().collect();
            cs.sort_unstable();
            cs.dedup();
            cs
        };
        if centers.len() <= 1 {
            break;
        }
        let sampled = match &mut sampling {
            Sampling::Random(flip) => centers
                .iter()
                .map(|&c| (c, flip()))
                .collect::<BTreeMap<_, _>>(),
            Sampling::Derandomized => derandomize_phase(graph, &cluster, &centers),
        };

        let old_cluster = cluster.clone();
        let mut added_this_phase = 0u64;
        for v in graph.nodes() {
            let Some(own) = old_cluster[v.0] else {
                continue;
            };
            if *sampled.get(&own).unwrap_or(&false) {
                continue; // stays in its sampled cluster, no edge needed
            }
            // Neighboring clusters (via still-active neighbors), with one
            // representative neighbor each.
            let mut reps: BTreeMap<usize, NodeId> = BTreeMap::new();
            for &u in graph.neighbors(v) {
                if let Some(cu) = old_cluster[u.0] {
                    if cu != own {
                        reps.entry(cu).or_insert(u);
                    }
                }
            }
            // Prefer joining a sampled neighboring cluster.
            if let Some((&target, &rep)) =
                reps.iter().find(|(c, _)| *sampled.get(c).unwrap_or(&false))
            {
                edges.push(norm(v, rep));
                added_this_phase += 1;
                cluster[v.0] = Some(target);
            } else {
                // Retire: connect to every neighboring cluster once.
                for (_, &rep) in reps.iter() {
                    edges.push(norm(v, rep));
                    added_this_phase += 1;
                }
                cluster[v.0] = None;
            }
        }
        ledger.charge(
            PhaseSpec::new(PhaseKind::Other, format!("spanner phase {phase}")),
            2,
            added_this_phase,
        );
    }

    // Final phase: remaining active nodes connect to every neighboring
    // cluster.
    let old_cluster = cluster.clone();
    let mut final_edges = 0u64;
    for v in graph.nodes() {
        let Some(own) = old_cluster[v.0] else {
            continue;
        };
        let mut reps: BTreeMap<usize, NodeId> = BTreeMap::new();
        for &u in graph.neighbors(v) {
            if let Some(cu) = old_cluster[u.0] {
                if cu != own {
                    reps.entry(cu).or_insert(u);
                }
            }
        }
        for (_, &rep) in reps.iter() {
            edges.push(norm(v, rep));
            final_edges += 1;
        }
    }
    ledger.charge(
        PhaseSpec::new(PhaseKind::Other, "spanner final inter-cluster edges"),
        1,
        final_edges,
    );

    edges.sort_unstable();
    edges.dedup();
    SpannerResult {
        edges,
        phases,
        ledger,
    }
}

/// Fixes the sampling coin of every cluster center for one phase such that the
/// expected number of edges added in the phase never increases — the exact
/// conditional expectation has the closed form described in `DESIGN.md` (R5).
fn derandomize_phase(
    graph: &Graph,
    cluster: &[Option<usize>],
    centers: &[usize],
) -> BTreeMap<usize, bool> {
    // For every active node, its own cluster and the set of neighboring
    // clusters.
    struct NodeView {
        own: usize,
        neighbors: Vec<usize>,
    }
    let mut views: Vec<NodeView> = Vec::new();
    for v in graph.nodes() {
        let Some(own) = cluster[v.0] else { continue };
        let mut ds: Vec<usize> = graph
            .neighbors(v)
            .iter()
            .filter_map(|&u| cluster[u.0])
            .filter(|&c| c != own)
            .collect();
        ds.sort_unstable();
        ds.dedup();
        views.push(NodeView { own, neighbors: ds });
    }

    let mut decision: BTreeMap<usize, Option<bool>> = centers.iter().map(|&c| (c, None)).collect();
    // Balance constraint: exactly ⌈|centers|/2⌉ clusters get sampled, so the
    // number of surviving clusters halves every phase (the progress guarantee
    // of Baswana–Sen that pure per-phase edge minimisation would destroy).
    let sample_budget = centers.len().div_ceil(2);
    let mut sampled_so_far = 0usize;
    let mut unsampled_so_far = 0usize;

    // Expected number of edges contributed by one node given the current
    // partial decisions (undecided clusters are sampled with probability 1/2).
    let expected_for = |view: &NodeView, decision: &BTreeMap<usize, Option<bool>>| -> f64 {
        let p_own_not_sampled = match decision.get(&view.own).copied().flatten() {
            Some(true) => 0.0,
            Some(false) => 1.0,
            None => 0.5,
        };
        if p_own_not_sampled == 0.0 {
            return 0.0;
        }
        let mut p_no_neighbor_sampled = 1.0f64;
        for c in &view.neighbors {
            match decision.get(c).copied().flatten() {
                Some(true) => {
                    p_no_neighbor_sampled = 0.0;
                    break;
                }
                Some(false) => {}
                None => p_no_neighbor_sampled *= 0.5,
            }
        }
        let d = view.neighbors.len() as f64;
        p_own_not_sampled * ((1.0 - p_no_neighbor_sampled) + p_no_neighbor_sampled * d)
    };

    for &center in centers {
        let choice = if sampled_so_far >= sample_budget {
            false
        } else if unsampled_so_far >= centers.len() - sample_budget {
            true
        } else {
            let total = |decision: &BTreeMap<usize, Option<bool>>| -> f64 {
                views.iter().map(|v| expected_for(v, decision)).sum()
            };
            decision.insert(center, Some(true));
            let sampled_cost = total(&decision);
            decision.insert(center, Some(false));
            let unsampled_cost = total(&decision);
            sampled_cost <= unsampled_cost
        };
        decision.insert(center, Some(choice));
        if choice {
            sampled_so_far += 1;
        } else {
            unsampled_so_far += 1;
        }
    }

    decision
        .into_iter()
        .map(|(c, d)| (c, d.unwrap_or(false)))
        .collect()
}

/// Verifies that a spanner preserves connectivity component-by-component and
/// only uses edges of the original graph.
pub fn verify_spanner(graph: &Graph, spanner: &SpannerResult) -> Result<(), String> {
    for &(u, v) in &spanner.edges {
        if !graph.has_edge(u, v) {
            return Err(format!("spanner edge {u}-{v} is not a graph edge"));
        }
    }
    let original = mds_graphs::analysis::connected_components(graph);
    let sub = spanner.to_graph(graph.n());
    let reduced = mds_graphs::analysis::connected_components(&sub);
    if original.count != reduced.count {
        return Err(format!(
            "spanner has {} components but the graph has {}",
            reduced.count, original.count
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn randomized_spanner_preserves_connectivity() {
        let mut rng = StdRng::seed_from_u64(4);
        for seed in 0..3 {
            let g = generators::gnp(80, 0.1, seed);
            let sp = baswana_sen_spanner(&g, &mut rng);
            verify_spanner(&g, &sp).unwrap();
        }
    }

    #[test]
    fn derandomized_spanner_preserves_connectivity_and_is_sparse() {
        for seed in 0..3 {
            let g = generators::gnp(100, 0.15, seed);
            let sp = derandomized_spanner(&g);
            verify_spanner(&g, &sp).unwrap();
            let n = g.n() as f64;
            let bound = 3.0 * n * n.log2() + n;
            assert!(
                (sp.edges.len() as f64) < bound.min(g.m() as f64 + 1.0),
                "{} edges exceeds the O(n log n) bound {bound}",
                sp.edges.len()
            );
        }
    }

    #[test]
    fn dense_graph_spanner_is_much_sparser_than_input() {
        let g = generators::complete(60);
        let sp = derandomized_spanner(&g);
        verify_spanner(&g, &sp).unwrap();
        assert!(
            sp.edges.len() < g.m() / 4,
            "{} vs {}",
            sp.edges.len(),
            g.m()
        );
    }

    #[test]
    fn spanner_of_a_tree_is_the_tree() {
        let g = generators::random_tree(40, 7);
        let sp = derandomized_spanner(&g);
        verify_spanner(&g, &sp).unwrap();
        // A tree has no redundant edges: connectivity requires all of them.
        assert_eq!(sp.edges.len(), g.m());
    }

    #[test]
    fn disconnected_graphs_are_handled_per_component() {
        let g = congest_sim::Graph::from_edges(8, &[(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
        let sp = derandomized_spanner(&g);
        verify_spanner(&g, &sp).unwrap();
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = congest_sim::Graph::empty(3);
        let sp = derandomized_spanner(&g);
        assert!(sp.edges.is_empty());
        let g = generators::path(2);
        let sp = derandomized_spanner(&g);
        verify_spanner(&g, &sp).unwrap();
        assert_eq!(sp.edges.len(), 1);
    }

    #[test]
    fn derandomized_edge_count_not_worse_than_random_average() {
        let g = generators::gnp(70, 0.2, 5);
        let det = derandomized_spanner(&g).edges.len() as f64;
        let mut rng = StdRng::seed_from_u64(10);
        let trials = 20;
        let mean: f64 = (0..trials)
            .map(|_| baswana_sen_spanner(&g, &mut rng).edges.len() as f64)
            .sum::<f64>()
            / trials as f64;
        assert!(
            det <= mean * 1.5 + 5.0,
            "derandomized {det} vs random mean {mean}"
        );
    }
}

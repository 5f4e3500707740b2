//! Cluster graphs (Definition 3.1).
//!
//! A cluster graph partitions the nodes into clusters, each inducing a
//! connected subgraph of `G`, with a leader known to all members and a rooted
//! spanning tree of bounded depth. The network decomposition of
//! [`crate::netdecomp`] and the CDS clustering of Section 4 both produce this
//! structure.

use congest_sim::{Graph, NodeId};
use std::collections::VecDeque;

/// One cluster of a [`ClusterGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// The leader (root of the spanning tree); its identifier doubles as the
    /// cluster identifier.
    pub leader: NodeId,
    /// The members of the cluster (including the leader).
    pub members: Vec<NodeId>,
    /// Parent of each member in the cluster spanning tree (`None` for the
    /// leader), indexed in parallel with `members`.
    pub parents: Vec<Option<NodeId>>,
    /// Depth of the spanning tree (maximum distance from the leader inside
    /// the cluster).
    pub depth: usize,
}

impl Cluster {
    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members (never true for valid clusters).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A partition of the graph into clusters, optionally colored.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterGraph {
    /// The clusters.
    pub clusters: Vec<Cluster>,
    /// For every node, the index of its cluster in [`ClusterGraph::clusters`].
    pub cluster_of: Vec<usize>,
    /// Color of each cluster (same-colored clusters are separated); empty if
    /// no coloring has been assigned.
    pub colors: Vec<usize>,
}

impl ClusterGraph {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Number of distinct colors (0 if uncolored).
    pub fn num_colors(&self) -> usize {
        self.colors.iter().copied().max().map_or(0, |c| c + 1)
    }

    /// Maximum spanning-tree depth over all clusters.
    pub fn max_depth(&self) -> usize {
        self.clusters.iter().map(|c| c.depth).max().unwrap_or(0)
    }

    /// Builds a cluster from a member set by a BFS from the lowest-identifier
    /// member inside the induced subgraph.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or does not induce a connected subgraph.
    pub fn cluster_from_members(graph: &Graph, members: &[NodeId]) -> Cluster {
        assert!(
            !members.is_empty(),
            "a cluster must have at least one member"
        );
        let leader = *members.iter().min().expect("nonempty");
        let mut in_cluster = vec![false; graph.n()];
        for &v in members {
            in_cluster[v.0] = true;
        }
        let mut parent: Vec<Option<NodeId>> = vec![None; graph.n()];
        let mut dist = vec![usize::MAX; graph.n()];
        let mut queue = VecDeque::new();
        dist[leader.0] = 0;
        queue.push_back(leader);
        let mut reached = 0usize;
        let mut depth = 0usize;
        while let Some(u) = queue.pop_front() {
            reached += 1;
            depth = depth.max(dist[u.0]);
            for &w in graph.neighbors(u) {
                if in_cluster[w.0] && dist[w.0] == usize::MAX {
                    dist[w.0] = dist[u.0] + 1;
                    parent[w.0] = Some(u);
                    queue.push_back(w);
                }
            }
        }
        assert_eq!(
            reached,
            members.len(),
            "cluster members must induce a connected subgraph"
        );
        let mut members = members.to_vec();
        members.sort_unstable();
        let parents = members.iter().map(|&v| parent[v.0]).collect();
        Cluster {
            leader,
            members,
            parents,
            depth,
        }
    }

    /// Verifies the Definition 3.1 invariants: the clusters partition the
    /// nodes, each induces a connected subgraph, parents are `G`-edges inside
    /// the cluster and depths are consistent.
    pub fn verify(&self, graph: &Graph) -> Result<(), String> {
        let n = graph.n();
        if self.cluster_of.len() != n {
            return Err(format!(
                "cluster_of has length {} for {} nodes",
                self.cluster_of.len(),
                n
            ));
        }
        let mut seen = vec![false; n];
        for (ci, cluster) in self.clusters.iter().enumerate() {
            if cluster.is_empty() {
                return Err(format!("cluster {ci} is empty"));
            }
            for &v in &cluster.members {
                if seen[v.0] {
                    return Err(format!("node {v} appears in two clusters"));
                }
                seen[v.0] = true;
                if self.cluster_of[v.0] != ci {
                    return Err(format!("cluster_of({v}) does not point at cluster {ci}"));
                }
            }
            // Parents are cluster-internal graph edges.
            for (&v, parent) in cluster.members.iter().zip(cluster.parents.iter()) {
                match parent {
                    None => {
                        if v != cluster.leader {
                            return Err(format!("non-leader {v} has no parent in cluster {ci}"));
                        }
                    }
                    Some(p) => {
                        if !graph.has_edge(v, *p) {
                            return Err(format!("tree edge {v}-{p} is not a graph edge"));
                        }
                        if self.cluster_of[p.0] != ci {
                            return Err(format!("parent {p} of {v} lies outside cluster {ci}"));
                        }
                    }
                }
            }
            // Connectivity via the rebuilt BFS.
            let rebuilt = ClusterGraph::cluster_from_members(graph, &cluster.members);
            if rebuilt.members.len() != cluster.members.len() {
                return Err(format!("cluster {ci} is not connected"));
            }
        }
        if let Some(unassigned) = seen.iter().position(|&s| !s) {
            return Err(format!("node v{unassigned} is not in any cluster"));
        }
        if !self.colors.is_empty() && self.colors.len() != self.clusters.len() {
            return Err("colors must be empty or one per cluster".to_owned());
        }
        Ok(())
    }

    /// Verifies that same-colored clusters are `k`-separated in `G`
    /// (Definition 3.2). Quadratic in the number of nodes; intended for tests
    /// and experiments.
    pub fn verify_separation(&self, graph: &Graph, k: usize) -> Result<(), String> {
        if self.colors.is_empty() {
            return Err("decomposition has no colors".to_owned());
        }
        for (ci, a) in self.clusters.iter().enumerate() {
            for &v in &a.members {
                // BFS up to depth k from v; any reached node in a different
                // cluster of the same color violates separation.
                let dist = mds_graphs::analysis::bounded_bfs(graph, v, k);
                for (u, &d) in dist.iter().enumerate() {
                    if d == usize::MAX || d == 0 {
                        continue;
                    }
                    let cj = self.cluster_of[u];
                    if cj != ci && self.colors[cj] == self.colors[ci] {
                        return Err(format!(
                            "clusters {ci} and {cj} share color {} but are at distance {d} ≤ {k}",
                            self.colors[ci]
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_graphs::generators;

    #[test]
    fn cluster_from_members_builds_a_tree() {
        let g = generators::path(6);
        let members: Vec<NodeId> = (1..5).map(NodeId).collect();
        let c = ClusterGraph::cluster_from_members(&g, &members);
        assert_eq!(c.leader, NodeId(1));
        assert_eq!(c.len(), 4);
        assert_eq!(c.depth, 3);
        assert_eq!(c.parents[0], None);
        assert_eq!(c.parents[1], Some(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_members_panic() {
        let g = generators::path(6);
        let _ = ClusterGraph::cluster_from_members(&g, &[NodeId(0), NodeId(5)]);
    }

    #[test]
    fn verify_catches_partition_violations() {
        let g = generators::path(4);
        let c0 = ClusterGraph::cluster_from_members(&g, &[NodeId(0), NodeId(1)]);
        let c1 = ClusterGraph::cluster_from_members(&g, &[NodeId(2), NodeId(3)]);
        let good = ClusterGraph {
            clusters: vec![c0.clone(), c1.clone()],
            cluster_of: vec![0, 0, 1, 1],
            colors: vec![0, 1],
        };
        assert!(good.verify(&g).is_ok());
        assert_eq!(good.num_colors(), 2);
        assert_eq!(good.max_depth(), 1);

        let bad = ClusterGraph {
            clusters: vec![c0, c1],
            cluster_of: vec![0, 0, 1, 0],
            colors: vec![],
        };
        assert!(bad.verify(&g).is_err());
    }

    #[test]
    fn separation_check_detects_adjacent_same_color_clusters() {
        let g = generators::path(4);
        let c0 = ClusterGraph::cluster_from_members(&g, &[NodeId(0), NodeId(1)]);
        let c1 = ClusterGraph::cluster_from_members(&g, &[NodeId(2), NodeId(3)]);
        let cg = ClusterGraph {
            clusters: vec![c0, c1],
            cluster_of: vec![0, 0, 1, 1],
            colors: vec![0, 0],
        };
        assert!(cg.verify_separation(&g, 1).is_err());
        let cg = ClusterGraph {
            colors: vec![0, 1],
            ..cg
        };
        assert!(cg.verify_separation(&g, 2).is_ok());
    }
}

//! Fractional dominating sets: the values `x` of Definition 2.1. Its
//! constraints `c(v)` are the `ConstraintNode::c` of a rounding problem in
//! `mds_rounding::problem`.

use congest_sim::{Graph, NodeId};

/// Numerical tolerance used in feasibility checks. Fractional values in this
/// workspace are CONGEST-transmittable (multiples of `2^-ι`), so all relevant
/// quantities are exactly representable; the tolerance only absorbs benign
/// floating-point summation error.
pub const FEASIBILITY_TOLERANCE: f64 = 1e-9;

/// An assignment of a fractional value `x(v) ∈ [0, 1]` to every node.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalAssignment {
    values: Vec<f64>,
}

impl FractionalAssignment {
    /// Builds an assignment from raw values.
    ///
    /// # Panics
    ///
    /// Panics if any value is outside `[0, 1]` (beyond tolerance) or not
    /// finite.
    pub fn from_values(values: Vec<f64>) -> Self {
        for (i, &v) in values.iter().enumerate() {
            assert!(v.is_finite(), "value of node {i} is not finite");
            assert!(
                (-FEASIBILITY_TOLERANCE..=1.0 + FEASIBILITY_TOLERANCE).contains(&v),
                "value {v} of node {i} outside [0, 1]"
            );
        }
        FractionalAssignment {
            values: values.into_iter().map(|v| v.clamp(0.0, 1.0)).collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the assignment covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of node `v`.
    pub fn value(&self, v: NodeId) -> f64 {
        self.values[v.0]
    }

    /// Sets the value of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside `[0, 1]` or not finite.
    pub fn set(&mut self, v: NodeId, value: f64) {
        assert!(value.is_finite(), "value must be finite");
        assert!(
            (-FEASIBILITY_TOLERANCE..=1.0 + FEASIBILITY_TOLERANCE).contains(&value),
            "value {value} outside [0, 1]"
        );
        self.values[v.0] = value.clamp(0.0, 1.0);
    }

    /// Read-only view of the raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The size `Σ_v x(v)` of the assignment.
    pub fn size(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The *fractionality*: the minimum non-zero value, or `1.0` if all values
    /// are zero. An assignment is `λ`-fractional when every non-zero value is
    /// at least `λ` (Section 1.2, footnote 6).
    pub fn fractionality(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .filter(|&v| v > 0.0)
            .fold(1.0f64, f64::min)
    }

    /// Support of the assignment: nodes with non-zero value.
    pub fn support(&self) -> Vec<NodeId> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.0)
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Whether every value is `0` or `1`.
    pub fn is_integral(&self) -> bool {
        self.values.iter().all(|&v| v == 0.0 || v == 1.0)
    }

    /// The nodes with value `1` (meaningful for integral assignments; for
    /// fractional ones it returns the fully-selected nodes).
    pub fn selected_nodes(&self) -> Vec<NodeId> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v >= 1.0 - FEASIBILITY_TOLERANCE)
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Coverage `Σ_{u ∈ N(v)} x(u)` of node `v` under `graph` (inclusive
    /// neighborhood).
    pub fn coverage(&self, graph: &Graph, v: NodeId) -> f64 {
        graph.inclusive_neighbors(v).map(|u| self.values[u.0]).sum()
    }

    /// Whether the assignment is a feasible *fractional dominating set* of
    /// `graph` (all constraints equal to 1).
    pub fn is_feasible_dominating_set(&self, graph: &Graph) -> bool {
        graph
            .nodes()
            .all(|v| self.coverage(graph, v) >= 1.0 - FEASIBILITY_TOLERANCE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_graphs::generators;

    #[test]
    fn size_and_fractionality() {
        let x = FractionalAssignment::from_values(vec![0.0, 0.25, 0.5, 1.0]);
        assert!((x.size() - 1.75).abs() < 1e-12);
        assert_eq!(x.fractionality(), 0.25);
        assert_eq!(x.support().len(), 3);
        assert!(!x.is_integral());
        assert_eq!(x.selected_nodes(), vec![NodeId(3)]);
    }

    #[test]
    fn all_zero_assignment() {
        let x = FractionalAssignment::from_values(vec![0.0; 3]);
        assert_eq!(x.size(), 0.0);
        assert_eq!(x.fractionality(), 1.0);
        assert!(x.is_integral());
        assert!(x.support().is_empty());
        assert!(!x.is_empty());
        assert_eq!(x.len(), 3);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_value_rejected() {
        let _ = FractionalAssignment::from_values(vec![1.5]);
    }

    #[test]
    fn indicator_of_set_is_integral_and_feasible_when_dominating() {
        let g = generators::star(10);
        let mut values = vec![0.0; 10];
        values[0] = 1.0;
        let x = FractionalAssignment::from_values(values);
        assert!(x.is_integral());
        assert!(x.is_feasible_dominating_set(&g));
        let mut values = vec![0.0; 10];
        values[1] = 1.0;
        let y = FractionalAssignment::from_values(values);
        assert!(!y.is_feasible_dominating_set(&g));
    }

    #[test]
    fn coverage_uses_inclusive_neighborhood() {
        let g = generators::path(3);
        let mut x = FractionalAssignment::from_values(vec![0.0; 3]);
        x.set(NodeId(1), 0.5);
        assert!((x.coverage(&g, NodeId(0)) - 0.5).abs() < 1e-12);
        assert!((x.coverage(&g, NodeId(1)) - 0.5).abs() < 1e-12);
        x.set(NodeId(0), 0.5);
        assert!((x.coverage(&g, NodeId(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_values_dominate_regular_graphs() {
        let g = generators::cycle(9);
        // Every inclusive neighborhood has 3 nodes, so 1/3 everywhere is
        // feasible and has size 3 = n/Δ̃.
        let x = FractionalAssignment::from_values(vec![1.0 / 3.0; 9]);
        assert!(x.is_feasible_dominating_set(&g));
        assert!((x.size() - 3.0).abs() < 1e-9);
    }
}

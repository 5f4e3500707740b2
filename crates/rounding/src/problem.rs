//! The rounding-problem abstraction.
//!
//! Section 3.1 of the paper describes the abstract randomized rounding process
//! on a constrained fractional dominating set: every node has a value `x(v)`,
//! a rounding probability `p(v) ≥ x(v)` and a covering constraint. Sections
//! 3.2 and 3.3 instantiate the process on two different structures (the graph
//! itself and a degree-split bipartite representation). Both are captured by a
//! [`RoundingProblem`]: a list of **value nodes** (each belonging to an
//! original graph node) and a list of **constraint nodes** (each owned by an
//! original graph node and covered by a subset of the value nodes).
//!
//! After the two rounding phases the result is mapped back to the original
//! graph: an original node's new value is the maximum of (a) the rounded
//! values of its value nodes and (b) `1` if one of its constraints ended up
//! violated (that node joins the dominating set in phase two).

use mds_fractional::FractionalAssignment;

/// A value node of a rounding problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueNode {
    /// Index of the original graph node this value belongs to.
    pub original: usize,
    /// The value `x(v)` before the first phase.
    pub x: f64,
    /// The rounding probability `p(v) ≥ x(v)`; `1.0` means the node does not
    /// take part in the randomized rounding.
    pub p: f64,
}

impl ValueNode {
    /// The value the node takes when its coin succeeds: `x(v)/p(v)`.
    pub fn raised_value(&self) -> f64 {
        if self.p <= 0.0 {
            0.0
        } else {
            (self.x / self.p).min(1.0)
        }
    }

    /// Whether the node actually flips a coin (`p ∈ (0, 1)`).
    pub fn participates(&self) -> bool {
        self.p > 0.0 && self.p < 1.0
    }

    /// Expected value after phase one (with an undecided coin).
    pub fn expected_value(&self) -> f64 {
        if self.participates() {
            self.p * self.raised_value()
        } else if self.p >= 1.0 {
            self.x
        } else {
            0.0
        }
    }
}

/// A covering constraint of a rounding problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintNode {
    /// Index of the original graph node that owns the constraint (the node
    /// that joins the dominating set if the constraint is violated).
    pub original: usize,
    /// The threshold `c(v) ∈ [0, 1]`.
    pub c: f64,
    /// Indices (into [`RoundingProblem::values`]) of the value nodes whose
    /// rounded values must sum to at least `c`.
    pub members: Vec<usize>,
}

/// A complete rounding problem: the input to the abstract randomized rounding
/// process and to its derandomization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundingProblem {
    /// Number of nodes of the original graph.
    pub n_original: usize,
    /// The value nodes.
    pub values: Vec<ValueNode>,
    /// The covering constraints.
    pub constraints: Vec<ConstraintNode>,
}

impl RoundingProblem {
    /// Creates an empty problem over `n_original` original nodes.
    pub fn new(n_original: usize) -> Self {
        RoundingProblem {
            n_original,
            values: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Adds a value node, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `p` is outside `[0, 1]`, if `p < x` (the process
    /// requires `p(v) ≥ x(v)`), or if `original` is out of range.
    pub fn add_value(&mut self, original: usize, x: f64, p: f64) -> usize {
        assert!(original < self.n_original, "original node out of range");
        assert!((0.0..=1.0).contains(&x), "x must be in [0, 1], got {x}");
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
        assert!(
            p >= x - 1e-12,
            "rounding probability p={p} must be at least x={x}"
        );
        self.values.push(ValueNode { original, x, p });
        self.values.len() - 1
    }

    /// Adds a constraint node, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside `[0, 1]`, a member index is invalid, or
    /// `original` is out of range.
    pub fn add_constraint(&mut self, original: usize, c: f64, members: Vec<usize>) -> usize {
        assert!(original < self.n_original, "original node out of range");
        assert!(
            (0.0..=1.0 + 1e-12).contains(&c),
            "c must be in [0, 1], got {c}"
        );
        for &m in &members {
            assert!(m < self.values.len(), "member index {m} out of range");
        }
        self.constraints.push(ConstraintNode {
            original,
            c: c.min(1.0),
            members,
        });
        self.constraints.len() - 1
    }

    /// Indices of the value nodes that flip a coin (`p ∈ (0, 1)`).
    pub fn participating_values(&self) -> Vec<usize> {
        (0..self.values.len())
            .filter(|&i| self.values[i].participates())
            .collect()
    }

    /// The size `Σ_v x(v)` of the input assignment (over value nodes).
    pub fn input_size(&self) -> f64 {
        self.values.iter().map(|v| v.x).sum()
    }

    /// Builds the output assignment on the original graph from final value
    /// realisations and the set of violated constraints.
    pub fn assemble_output(
        &self,
        realised_values: &[f64],
        violated_constraints: &[usize],
    ) -> FractionalAssignment {
        assert_eq!(realised_values.len(), self.values.len());
        let mut out = vec![0.0f64; self.n_original];
        for (value_node, &val) in self.values.iter().zip(realised_values.iter()) {
            out[value_node.original] = out[value_node.original].max(val.min(1.0));
        }
        for &ci in violated_constraints {
            let owner = self.constraints[ci].original;
            out[owner] = 1.0;
        }
        FractionalAssignment::from_values(out)
    }

    /// For each value-node index, the list of constraint indices it appears
    /// in. Used by the derandomizer to find the terms a coin influences.
    pub fn constraints_of_values(&self) -> Vec<Vec<usize>> {
        let mut map = vec![Vec::new(); self.values.len()];
        for (ci, c) in self.constraints.iter().enumerate() {
            for &m in &c.members {
                map[m].push(ci);
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_problem() -> RoundingProblem {
        // Two original nodes; node 0 has a value of 0.5 rounded with p=0.5,
        // node 1 keeps a deterministic 0.25; one constraint owned by node 1
        // covered by both.
        let mut p = RoundingProblem::new(2);
        let a = p.add_value(0, 0.5, 0.5);
        let b = p.add_value(1, 0.25, 1.0);
        p.add_constraint(1, 1.0, vec![a, b]);
        p
    }

    #[test]
    fn value_node_derived_quantities() {
        let v = ValueNode {
            original: 0,
            x: 0.2,
            p: 0.5,
        };
        assert!((v.raised_value() - 0.4).abs() < 1e-12);
        assert!(v.participates());
        assert!((v.expected_value() - 0.2).abs() < 1e-12);

        let fixed = ValueNode {
            original: 0,
            x: 0.3,
            p: 1.0,
        };
        assert!(!fixed.participates());
        assert_eq!(fixed.expected_value(), 0.3);

        let zero = ValueNode {
            original: 0,
            x: 0.0,
            p: 0.0,
        };
        assert_eq!(zero.raised_value(), 0.0);
        assert_eq!(zero.expected_value(), 0.0);
    }

    #[test]
    fn problem_bookkeeping() {
        let p = toy_problem();
        assert_eq!(p.participating_values(), vec![0]);
        assert!((p.input_size() - 0.75).abs() < 1e-12);
        assert_eq!(p.constraints_of_values(), vec![vec![0], vec![0]]);
    }

    #[test]
    fn assemble_output_takes_max_and_violations() {
        let p = toy_problem();
        let out = p.assemble_output(&[1.0, 0.25], &[]);
        assert_eq!(out.value(congest_sim::NodeId(0)), 1.0);
        assert_eq!(out.value(congest_sim::NodeId(1)), 0.25);
        let out = p.assemble_output(&[0.0, 0.25], &[0]);
        assert_eq!(out.value(congest_sim::NodeId(1)), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be at least")]
    fn p_below_x_rejected() {
        let mut p = RoundingProblem::new(1);
        p.add_value(0, 0.5, 0.25);
    }

    #[test]
    #[should_panic(expected = "member index")]
    fn bad_member_rejected() {
        let mut p = RoundingProblem::new(1);
        p.add_constraint(0, 1.0, vec![3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_original_rejected() {
        let mut p = RoundingProblem::new(1);
        p.add_value(5, 0.1, 0.5);
    }
}

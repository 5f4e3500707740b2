//! The rounding-problem abstraction.
//!
//! Section 3.1 of the paper describes the abstract randomized rounding process
//! on a constrained fractional dominating set: every node has a value `x(v)`,
//! a rounding probability `p(v) ≥ x(v)` and a covering constraint. Sections
//! 3.2 and 3.3 instantiate the process on two different structures (the graph
//! itself and a degree-split bipartite representation). Both keep exactly one
//! value per graph node and are captured by a [`RoundingProblem`]: a list of
//! **value nodes** (value node `v` is graph node `v`) and a list of
//! **constraint nodes** (each owned by a graph node and covered by a subset of
//! the value nodes; the degree split gives an owner several constraints).
//!
//! After the two rounding phases the result is read back on the graph: a
//! node's new value is its rounded value, or `1` if one of its constraints
//! ended up violated (that node joins the dominating set in phase two).

use crate::estimator::CoinState;
use mds_fractional::FractionalAssignment;

/// A value node of a rounding problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueNode {
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
        } else {
            self.realised(CoinState::Zero)
        }
    }

    /// The phase-one realisation under `coin`: `x(v)/p(v)` or `0` for a
    /// participating node, `x(v)` for `p = 1` and `0` for `p = 0`, whatever
    /// the coin. Every execution of the process (central, estimator and
    /// engine) realises values through this rule.
    ///
    /// # Panics
    ///
    /// Panics if the node participates and `coin` is undecided.
    pub fn realised(&self, coin: CoinState) -> f64 {
        if self.participates() {
            match coin {
                CoinState::Take => self.raised_value(),
                CoinState::Zero => 0.0,
                CoinState::Undecided => panic!("participating value node left undecided"),
            }
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
    /// The graph node that owns the constraint (the node that joins the
    /// dominating set if the constraint is violated).
    pub original: usize,
    /// The threshold `c(v) ∈ [0, 1]`.
    pub c: f64,
    /// Indices (into [`RoundingProblem::values`]) of the value nodes whose
    /// rounded values must sum to at least `c`.
    pub members: Vec<usize>,
}

/// A complete rounding problem: the input to the abstract randomized rounding
/// process and to its derandomization. Value node `v` belongs to graph node
/// `v`, so a problem over an `n`-node graph has `n` values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundingProblem {
    /// The value nodes, one per graph node.
    pub values: Vec<ValueNode>,
    /// The covering constraints.
    pub constraints: Vec<ConstraintNode>,
}

impl RoundingProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        RoundingProblem::default()
    }

    /// Adds the value of the next graph node, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `p` is outside `[0, 1]`, or if `p < x` (the process
    /// requires `p(v) ≥ x(v)`).
    pub fn add_value(&mut self, x: f64, p: f64) -> usize {
        assert!((0.0..=1.0).contains(&x), "x must be in [0, 1], got {x}");
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
        assert!(
            p >= x - 1e-12,
            "rounding probability p={p} must be at least x={x}"
        );
        self.values.push(ValueNode { x, p });
        self.values.len() - 1
    }

    /// Adds a constraint node owned by graph node `owner`, returning its
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside `[0, 1]`, a member index is invalid, or
    /// `owner` has no value node yet.
    pub fn add_constraint(&mut self, owner: usize, c: f64, members: Vec<usize>) -> usize {
        assert!(owner < self.values.len(), "constraint owner out of range");
        assert!(
            (0.0..=1.0 + 1e-12).contains(&c),
            "c must be in [0, 1], got {c}"
        );
        for &m in &members {
            assert!(m < self.values.len(), "member index {m} out of range");
        }
        self.constraints.push(ConstraintNode {
            original: owner,
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

    /// Builds the output assignment on the graph from final value
    /// realisations (node `i` takes realisation `i`) and the set of violated
    /// constraints (whose owners take `1`).
    pub fn assemble_output(
        &self,
        realised_values: &[f64],
        violated_constraints: &[usize],
    ) -> FractionalAssignment {
        assert_eq!(realised_values.len(), self.values.len());
        let mut out: Vec<f64> = realised_values.iter().map(|val| val.min(1.0)).collect();
        for &ci in violated_constraints {
            out[self.constraints[ci].original] = 1.0;
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
        // Two nodes; node 0 has a value of 0.5 rounded with p=0.5, node 1
        // keeps a deterministic 0.25; one constraint owned by node 1 covered
        // by both.
        let mut p = RoundingProblem::new();
        let a = p.add_value(0.5, 0.5);
        let b = p.add_value(0.25, 1.0);
        p.add_constraint(1, 1.0, vec![a, b]);
        p
    }

    #[test]
    fn value_node_derived_quantities() {
        let v = ValueNode { x: 0.2, p: 0.5 };
        assert!((v.raised_value() - 0.4).abs() < 1e-12);
        assert!(v.participates());
        assert!((v.expected_value() - 0.2).abs() < 1e-12);
        assert!((v.realised(CoinState::Take) - 0.4).abs() < 1e-12);
        assert_eq!(v.realised(CoinState::Zero), 0.0);

        let fixed = ValueNode { x: 0.3, p: 1.0 };
        assert!(!fixed.participates());
        assert_eq!(fixed.expected_value(), 0.3);
        assert_eq!(fixed.realised(CoinState::Undecided), 0.3);

        let zero = ValueNode { x: 0.0, p: 0.0 };
        assert_eq!(zero.raised_value(), 0.0);
        assert_eq!(zero.expected_value(), 0.0);
        assert_eq!(zero.realised(CoinState::Take), 0.0);
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
        let mut p = RoundingProblem::new();
        p.add_value(0.5, 0.25);
    }

    #[test]
    #[should_panic(expected = "member index")]
    fn bad_member_rejected() {
        let mut p = RoundingProblem::new();
        p.add_value(0.5, 0.5);
        p.add_constraint(0, 1.0, vec![3]);
    }

    #[test]
    #[should_panic(expected = "owner out of range")]
    fn bad_original_rejected() {
        let mut p = RoundingProblem::new();
        p.add_value(0.1, 0.5);
        p.add_constraint(5, 1.0, vec![0]);
    }
}

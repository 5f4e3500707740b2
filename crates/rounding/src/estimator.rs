//! Computable (pessimistic) estimators of the rounding objective.
//!
//! The method of conditional expectations (Lemmas 3.4 and 3.10) needs, for a
//! partially fixed coin assignment, an upper bound on
//! `E[Σ_v Z_v] ≤ Σ_i E[X_i] + Σ_j Pr(constraint j violated)` that
//!
//! 1. equals the true quantity when all coins are fixed, and
//! 2. never increases when a coin is fixed to the better of its two outcomes
//!    (it is a *pessimistic estimator*).
//!
//! Three interchangeable estimators are provided; experiment E9 compares them:
//!
//! * [`EstimatorKind::ExactProduct`] — `Π (1 - p_i)` over the undecided
//!   members whose raised value alone satisfies the residual constraint.
//!   Exact for one-shot rounding (members contribute 0/1), an upper bound in
//!   general.
//! * [`EstimatorKind::ExactDp`] — a discretized subset-sum DP with
//!   contributions rounded *down* to the grid, hence an upper bound on the
//!   violation probability; exact up to the grid resolution. This mirrors the
//!   paper's rounding of the conditional expectations to multiples of
//!   `1/n^10`.
//! * [`EstimatorKind::Chernoff`] — the exponential-moment bound
//!   `min_t e^{t·need} · Π E[e^{-t X_i}]`, the estimator classically used to
//!   derandomize Chernoff-based arguments.
//! * [`EstimatorKind::Auto`] — per constraint: the product form when it is
//!   exact, otherwise the DP.

use crate::problem::{ConstraintNode, RoundingProblem, ValueNode};

/// Tolerance below which a residual constraint counts as satisfied.
const NEED_TOLERANCE: f64 = 1e-12;

/// The state of a participating value node's biased coin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoinState {
    /// Not yet decided; contributes in expectation.
    Undecided,
    /// Fixed to success: the node takes the value `x/p`.
    Take,
    /// Fixed to failure: the node takes the value `0`.
    Zero,
}

/// Which estimator to use for violation probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Product form over "single-handedly satisfying" members.
    ExactProduct,
    /// Discretized subset-sum DP with the given number of buckets.
    ExactDp {
        /// Number of DP buckets (grid resolution).
        resolution: usize,
    },
    /// Exponential-moment (Chernoff) pessimistic estimator.
    Chernoff,
    /// Product form where exact, DP (with the given resolution) otherwise.
    Auto {
        /// Number of DP buckets used when the product form is not exact.
        resolution: usize,
    },
}

impl Default for EstimatorKind {
    fn default() -> Self {
        EstimatorKind::Auto { resolution: 512 }
    }
}

/// An estimator bound to a rounding problem.
#[derive(Debug, Clone)]
pub struct Estimator<'a> {
    problem: &'a RoundingProblem,
    kind: EstimatorKind,
}

impl<'a> Estimator<'a> {
    /// Creates an estimator of the given kind for `problem`.
    pub fn new(problem: &'a RoundingProblem, kind: EstimatorKind) -> Self {
        Estimator { problem, kind }
    }

    /// The expected phase-one value of value node `i` under the coin state.
    pub fn expected_value(&self, i: usize, coins: &[CoinState]) -> f64 {
        let v = &self.problem.values[i];
        match coins[i] {
            CoinState::Undecided => v.expected_value(),
            coin => v.realised(coin),
        }
    }

    /// An upper bound on the probability that `constraint` is violated after
    /// phase one, given the current coin states.
    pub fn violation_probability(&self, constraint: &ConstraintNode, coins: &[CoinState]) -> f64 {
        member_violation_probability(
            self.kind,
            constraint
                .members
                .iter()
                .map(|&i| (&self.problem.values[i], coins[i])),
            constraint.c,
        )
    }

    /// The full objective `Σ_i E[X_i] + Σ_j Pr(j violated)` under the coin
    /// states.
    pub fn total(&self, coins: &[CoinState]) -> f64 {
        let values: f64 = (0..self.problem.values.len())
            .map(|i| self.expected_value(i, coins))
            .sum();
        let violations: f64 = self
            .problem
            .constraints
            .iter()
            .map(|c| self.violation_probability(c, coins))
            .sum();
        values + violations
    }
}

/// An upper bound on the probability that a constraint with threshold `c` is
/// violated, given `(value node, coin state)` pairs for its members *in
/// member-list order*.
///
/// This is the shared computational kernel of the central [`Estimator`] and
/// of the distributed conditional-expectation schedule
/// ([`crate::derandomize::ScheduledDerandProgram`]), where each constraint
/// owner evaluates it from purely local state. Because both paths run the
/// identical float operations in the identical order, the engine execution is
/// bit-identical to the central oracle.
pub fn member_violation_probability<'v>(
    kind: EstimatorKind,
    members: impl Iterator<Item = (&'v ValueNode, CoinState)>,
    c: f64,
) -> f64 {
    // Deterministic part: non-participating members with p = 1 and fixed
    // coins.
    let mut base = 0.0f64;
    let mut undecided: Vec<(f64, f64)> = Vec::new(); // (p, raised)
    for (v, coin) in members {
        if !v.participates() {
            if v.p >= 1.0 {
                base += v.x;
            }
            continue;
        }
        match coin {
            CoinState::Take => base += v.raised_value(),
            CoinState::Zero => {}
            CoinState::Undecided => undecided.push((v.p, v.raised_value())),
        }
    }
    let need = c - base;
    if need <= NEED_TOLERANCE {
        return 0.0;
    }
    if undecided.is_empty() {
        return 1.0;
    }
    match kind {
        EstimatorKind::ExactProduct => product_bound(&undecided, need),
        EstimatorKind::ExactDp { resolution } => dp_bound(&undecided, need, resolution),
        EstimatorKind::Chernoff => chernoff_bound(&undecided, need),
        EstimatorKind::Auto { resolution } => {
            if undecided
                .iter()
                .all(|&(_, raised)| raised + NEED_TOLERANCE >= need)
            {
                product_bound(&undecided, need)
            } else {
                dp_bound(&undecided, need, resolution)
            }
        }
    }
}

/// Reusable scratch for [`member_violation_branches`]: the undecided-member
/// list shared by both branches plus the two ping-pong DP rows.
///
/// One instance per constraint owner amortizes every per-call allocation of
/// the scalar kernel across an entire derandomization schedule; steady-state
/// evaluation allocates nothing once the buffers have reached the owner's
/// maximum constraint degree / DP resolution.
#[derive(Debug, Clone, Default)]
pub struct EstimatorScratch {
    /// `(p, raised)` for the undecided members, in member-list order.
    undecided: Vec<(f64, f64)>,
    /// Current DP row (`dp[j]` = probability the discretized sum is `j`).
    dp: Vec<f64>,
    /// Next DP row, swapped with `dp` after each member.
    next: Vec<f64>,
}

impl EstimatorScratch {
    /// Scratch with the member pass pre-sized for owners holding up to
    /// `members` members per constraint, so the run's reply rounds never
    /// grow it. The DP rows deliberately stay lazy: they cost
    /// `2 · (resolution + 1)` floats *per owner*, and only owners whose
    /// constraints actually take the DP path (the auto kind decides per
    /// constraint) ever need them — eagerly sizing them for every node is
    /// hundreds of megabytes of dead allocation at bench scale, while the
    /// lazy first resize is a one-time cost that then sticks for the run.
    pub fn pre_sized(members: usize) -> EstimatorScratch {
        EstimatorScratch {
            undecided: Vec::with_capacity(members),
            dp: Vec::new(),
            next: Vec::new(),
        }
    }
}

/// Both conditional-expectation branches of one constraint in a single member
/// pass: the violation-probability bound with the `target`-th member's coin
/// forced to [`CoinState::Take`] and to [`CoinState::Zero`].
///
/// `target` is the position (in iteration order) of the member whose coin is
/// being decided; its stored coin state is ignored, exactly as the scalar
/// kernel ignores it when a forced state is substituted.
///
/// This is the batched kernel of the owner-reply round
/// ([`crate::derandomize::ScheduledDerandProgram`]): where the scalar path
/// walks the member list twice (once per forced state) and allocates a fresh
/// undecided list — plus one DP row per member — per walk, this walks it
/// once, shares the undecided list between the two branches and reuses the
/// caller's [`EstimatorScratch`] across calls.
///
/// # Bit-identity
///
/// The result is guaranteed bit-identical to two calls of
/// [`member_violation_probability`] (property-tested): each branch's base
/// accumulator performs the same float additions in the same member order as
/// the scalar fold, the shared undecided list is what either scalar walk
/// would collect (a forced member is never undecided), and the scratch DP
/// applies the same update sequence as the allocating DP — skipped
/// zero-probability cells contribute exact `+0.0` terms in the scalar sum, so
/// eliding them preserves every bit.
pub fn member_violation_branches<'v>(
    kind: EstimatorKind,
    members: impl Iterator<Item = (&'v ValueNode, CoinState)>,
    target: usize,
    c: f64,
    scratch: &mut EstimatorScratch,
) -> (f64, f64) {
    scratch.undecided.clear();
    let mut base_take = 0.0f64;
    let mut base_zero = 0.0f64;
    for (idx, (v, coin)) in members.enumerate() {
        if !v.participates() {
            if v.p >= 1.0 {
                base_take += v.x;
                base_zero += v.x;
            }
            continue;
        }
        if idx == target {
            // Forced Take contributes the raised value; forced Zero nothing.
            base_take += v.raised_value();
            continue;
        }
        match coin {
            CoinState::Take => {
                let raised = v.raised_value();
                base_take += raised;
                base_zero += raised;
            }
            CoinState::Zero => {}
            CoinState::Undecided => scratch.undecided.push((v.p, v.raised_value())),
        }
    }
    let EstimatorScratch {
        ref undecided,
        ref mut dp,
        ref mut next,
    } = *scratch;
    (
        branch_tail(kind, undecided, c - base_take, dp, next),
        branch_tail(kind, undecided, c - base_zero, dp, next),
    )
}

/// The tail of the kernel after the member fold: residual-need checks and the
/// estimator dispatch, with the DP running on caller scratch.
fn branch_tail(
    kind: EstimatorKind,
    undecided: &[(f64, f64)],
    need: f64,
    dp: &mut Vec<f64>,
    next: &mut Vec<f64>,
) -> f64 {
    if need <= NEED_TOLERANCE {
        return 0.0;
    }
    if undecided.is_empty() {
        return 1.0;
    }
    match kind {
        EstimatorKind::ExactProduct => product_bound(undecided, need),
        EstimatorKind::ExactDp { resolution } => {
            dp_bound_scratch(undecided, need, resolution, dp, next)
        }
        EstimatorKind::Chernoff => chernoff_bound(undecided, need),
        EstimatorKind::Auto { resolution } => {
            if undecided
                .iter()
                .all(|&(_, raised)| raised + NEED_TOLERANCE >= need)
            {
                product_bound(undecided, need)
            } else {
                dp_bound_scratch(undecided, need, resolution, dp, next)
            }
        }
    }
}

/// [`dp_bound`] on reusable ping-pong rows: no allocation once the rows have
/// reached `resolution + 1` capacity, and each member's update only walks the
/// currently reachable prefix of the grid.
///
/// Bit-identical to [`dp_bound`]: the allocating version visits cells in the
/// same ascending order and skips zero masses, and all reachable mass lives
/// in `[0, hi]`, so restricting the walk changes no float operation.
fn dp_bound_scratch(
    undecided: &[(f64, f64)],
    need: f64,
    resolution: usize,
    dp: &mut Vec<f64>,
    next: &mut Vec<f64>,
) -> f64 {
    let r = resolution.max(2);
    let width = need / r as f64;
    dp.clear();
    dp.resize(r + 1, 0.0);
    next.clear();
    next.resize(r + 1, 0.0);
    dp[0] = 1.0;
    // Highest grid index any mass can have reached so far.
    let mut hi = 0usize;
    for &(p, raised) in undecided {
        let bump = ((raised / width).floor() as usize).min(r);
        let reach = (hi + bump).min(r);
        for slot in next[..=reach].iter_mut() {
            *slot = 0.0;
        }
        for j in 0..=hi {
            let mass = dp[j];
            if mass == 0.0 {
                continue;
            }
            // Coin fails.
            next[j] += mass * (1.0 - p);
            // Coin succeeds.
            let target = (j + bump).min(r);
            next[target] += mass * p;
        }
        std::mem::swap(dp, next);
        hi = reach;
    }
    dp[..r].iter().sum::<f64>().min(1.0)
}

/// `Π (1 - p_i)` over undecided members that can satisfy the residual need on
/// their own. Exact when every undecided member can; an upper bound otherwise.
fn product_bound(undecided: &[(f64, f64)], need: f64) -> f64 {
    let mut prob = 1.0f64;
    let mut any = false;
    for &(p, raised) in undecided {
        if raised + NEED_TOLERANCE >= need {
            prob *= 1.0 - p;
            any = true;
        }
    }
    if any {
        prob
    } else {
        1.0
    }
}

/// Discretized subset-sum DP: contributions rounded down to the grid, so the
/// result upper-bounds the true violation probability.
fn dp_bound(undecided: &[(f64, f64)], need: f64, resolution: usize) -> f64 {
    let r = resolution.max(2);
    let width = need / r as f64;
    // dp[j] = probability that the (discretized) sum equals j grid units;
    // index r is the absorbing "at least `need`" bucket.
    let mut dp = vec![0.0f64; r + 1];
    dp[0] = 1.0;
    for &(p, raised) in undecided {
        let bump = ((raised / width).floor() as usize).min(r);
        let mut next = vec![0.0f64; r + 1];
        for (j, &mass) in dp.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            // Coin fails.
            next[j] += mass * (1.0 - p);
            // Coin succeeds.
            let target = (j + bump).min(r);
            next[target] += mass * p;
        }
        dp = next;
    }
    dp[..r].iter().sum::<f64>().min(1.0)
}

/// Exponential-moment bound `min_t e^{t·need} Π E[e^{-t X_i}]`, capped at 1.
fn chernoff_bound(undecided: &[(f64, f64)], need: f64) -> f64 {
    let max_raised = undecided.iter().map(|&(_, r)| r).fold(0.0f64, f64::max);
    if max_raised <= 0.0 {
        return 1.0;
    }
    let mut best = 1.0f64;
    // Geometric grid of t values around the natural scale 1/max_raised.
    for exp in -2..=14 {
        let t = 2.0f64.powi(exp) / max_raised;
        let mut log_bound = t * need;
        for &(p, raised) in undecided {
            log_bound += ((1.0 - p) + p * (-t * raised).exp()).ln();
        }
        best = best.min(log_bound.exp());
    }
    best.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::RoundingProblem;

    /// One constraint of threshold 1 over `m` participating members, each with
    /// value `x` and probability `p`.
    fn uniform_problem(m: usize, x: f64, p: f64) -> RoundingProblem {
        let mut prob = RoundingProblem::new();
        let members: Vec<usize> = (0..m).map(|_| prob.add_value(x, p)).collect();
        prob.add_constraint(0, 1.0, members);
        prob
    }

    #[test]
    fn one_shot_style_product_is_exact() {
        // Members contribute 0/1 with probability 0.4: Pr(violated) = 0.6^3.
        let problem = uniform_problem(3, 0.4, 0.4);
        let coins = vec![CoinState::Undecided; 3];
        let est = Estimator::new(&problem, EstimatorKind::ExactProduct);
        let p = est.violation_probability(&problem.constraints[0], &coins);
        assert!((p - 0.6f64.powi(3)).abs() < 1e-12);
        // Auto picks the product form here.
        let est = Estimator::new(&problem, EstimatorKind::default());
        let p = est.violation_probability(&problem.constraints[0], &coins);
        assert!((p - 0.6f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn fixed_coins_override_probabilities() {
        let problem = uniform_problem(3, 0.4, 0.4);
        let est = Estimator::new(&problem, EstimatorKind::default());
        let mut coins = vec![CoinState::Undecided; 3];
        coins[0] = CoinState::Take; // contributes 1, constraint satisfied
        assert_eq!(
            est.violation_probability(&problem.constraints[0], &coins),
            0.0
        );
        let coins = vec![CoinState::Zero; 3];
        assert_eq!(
            est.violation_probability(&problem.constraints[0], &coins),
            1.0
        );
    }

    #[test]
    fn dp_bound_matches_exact_enumeration() {
        // 4 members, each contributing 0.4 w.p. 0.5; need 1.0.
        // Violated iff at most 2 successes: P = (C(4,0)+C(4,1)+C(4,2))/16 = 11/16.
        let problem = uniform_problem(4, 0.2, 0.5);
        let coins = vec![CoinState::Undecided; 4];
        let est = Estimator::new(&problem, EstimatorKind::ExactDp { resolution: 1000 });
        let p = est.violation_probability(&problem.constraints[0], &coins);
        assert!((p - 11.0 / 16.0).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn dp_is_a_valid_upper_bound_at_coarse_resolution() {
        let problem = uniform_problem(4, 0.2, 0.5);
        let coins = vec![CoinState::Undecided; 4];
        let coarse = Estimator::new(&problem, EstimatorKind::ExactDp { resolution: 7 });
        let p = coarse.violation_probability(&problem.constraints[0], &coins);
        assert!(p >= 11.0 / 16.0 - 1e-12);
        assert!(p <= 1.0);
    }

    #[test]
    fn chernoff_upper_bounds_truth_and_is_nontrivial() {
        // 40 members each contributing 0.05 w.p. 0.5; E[sum] = 1, need 1.
        let problem = uniform_problem(40, 0.025, 0.5);
        let coins = vec![CoinState::Undecided; 40];
        let exact = Estimator::new(&problem, EstimatorKind::ExactDp { resolution: 4000 })
            .violation_probability(&problem.constraints[0], &coins);
        let chern = Estimator::new(&problem, EstimatorKind::Chernoff)
            .violation_probability(&problem.constraints[0], &coins);
        assert!(
            chern >= exact - 1e-9,
            "chernoff {chern} below exact {exact}"
        );
        assert!(chern <= 1.0);
        // With a much larger expected surplus the Chernoff bound becomes small.
        let problem = uniform_problem(200, 0.02, 0.5);
        let coins = vec![CoinState::Undecided; 200];
        let chern = Estimator::new(&problem, EstimatorKind::Chernoff)
            .violation_probability(&problem.constraints[0], &coins);
        assert!(
            chern < 0.25,
            "chernoff should detect the large surplus, got {chern}"
        );
    }

    #[test]
    fn total_decomposes_into_values_and_violations() {
        let problem = uniform_problem(3, 0.4, 0.4);
        let est = Estimator::new(&problem, EstimatorKind::default());
        let coins = vec![CoinState::Undecided; 3];
        let total = est.total(&coins);
        let expected = 3.0 * 0.4 + 0.6f64.powi(3);
        assert!((total - expected).abs() < 1e-12);
    }

    #[test]
    fn pessimistic_property_holds_when_fixing_a_coin() {
        // For every estimator kind, the estimate of the better branch never
        // exceeds the undecided estimate (the inequality the method of
        // conditional expectations relies on).
        let problem = uniform_problem(5, 0.15, 0.5);
        for kind in [
            EstimatorKind::ExactProduct,
            EstimatorKind::ExactDp { resolution: 256 },
            EstimatorKind::Chernoff,
            EstimatorKind::default(),
        ] {
            let est = Estimator::new(&problem, kind);
            let coins = vec![CoinState::Undecided; 5];
            let before = est.total(&coins);
            let mut take = coins.clone();
            take[2] = CoinState::Take;
            let mut zero = coins.clone();
            zero[2] = CoinState::Zero;
            let best = est.total(&take).min(est.total(&zero));
            assert!(
                best <= before + 1e-9,
                "{kind:?}: best branch {best} exceeds undecided estimate {before}"
            );
        }
    }

    /// Scalar reference for one branch: force `target`'s coin and call the
    /// retained scalar kernel.
    fn scalar_branch(
        kind: EstimatorKind,
        members: &[(ValueNode, CoinState)],
        target: usize,
        forced: CoinState,
        c: f64,
    ) -> f64 {
        member_violation_probability(
            kind,
            members.iter().enumerate().map(|(i, (v, coin))| {
                let coin = if i == target { forced } else { *coin };
                (v, coin)
            }),
            c,
        )
    }

    fn all_kinds() -> [EstimatorKind; 5] {
        [
            EstimatorKind::ExactProduct,
            EstimatorKind::ExactDp { resolution: 64 },
            EstimatorKind::ExactDp { resolution: 513 },
            EstimatorKind::Chernoff,
            EstimatorKind::Auto { resolution: 128 },
        ]
    }

    #[test]
    fn batched_branches_are_bit_identical_to_the_scalar_kernel() {
        let value = |x: f64, p: f64| ValueNode { x, p };
        // Mixed bag: deterministic p=1 members, non-participating p=0, fixed
        // coins on both sides, heterogeneous raised values.
        let members = vec![
            (value(0.3, 1.0), CoinState::Undecided),
            (value(0.2, 0.5), CoinState::Undecided),
            (value(0.1, 0.25), CoinState::Take),
            (value(0.0, 0.0), CoinState::Undecided),
            (value(0.05, 0.9), CoinState::Zero),
            (value(0.4, 0.6), CoinState::Undecided),
            (value(0.15, 0.3), CoinState::Undecided),
        ];
        let mut scratch = EstimatorScratch::default();
        for kind in all_kinds() {
            for c in [0.2, 0.6, 0.95, 1.0] {
                for target in 0..members.len() {
                    let (take, zero) = member_violation_branches(
                        kind,
                        members.iter().map(|(v, coin)| (v, *coin)),
                        target,
                        c,
                        &mut scratch,
                    );
                    let want_take = scalar_branch(kind, &members, target, CoinState::Take, c);
                    let want_zero = scalar_branch(kind, &members, target, CoinState::Zero, c);
                    assert_eq!(
                        take.to_bits(),
                        want_take.to_bits(),
                        "{kind:?} c={c} target={target} take: {take} vs {want_take}"
                    );
                    assert_eq!(
                        zero.to_bits(),
                        want_zero.to_bits(),
                        "{kind:?} c={c} target={target} zero: {zero} vs {want_zero}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_kernel_handles_degenerate_member_lists() {
        let mut scratch = EstimatorScratch::default();
        // No members at all: need > 0 and nothing undecided → certain violation
        // in both branches, matching the scalar kernel.
        let empty: Vec<(ValueNode, CoinState)> = Vec::new();
        for kind in all_kinds() {
            let (take, zero) = member_violation_branches(
                kind,
                empty.iter().map(|(v, coin)| (v, *coin)),
                0,
                0.5,
                &mut scratch,
            );
            assert_eq!(take, 1.0);
            assert_eq!(zero, 1.0);
            // Target index past the end: both branches degenerate to the plain
            // estimate, exactly like a scalar call whose forced id never matches.
            let members = [(ValueNode { x: 0.4, p: 0.5 }, CoinState::Undecided)];
            let (take, zero) = member_violation_branches(
                kind,
                members.iter().map(|(v, coin)| (v, *coin)),
                7,
                0.3,
                &mut scratch,
            );
            let plain =
                member_violation_probability(kind, members.iter().map(|(v, coin)| (v, *coin)), 0.3);
            assert_eq!(take.to_bits(), plain.to_bits());
            assert_eq!(zero.to_bits(), plain.to_bits());
        }
    }

    #[test]
    fn expected_value_of_non_participating_nodes() {
        let mut problem = RoundingProblem::new();
        problem.add_value(0.3, 1.0);
        problem.add_value(0.0, 0.0);
        let est = Estimator::new(&problem, EstimatorKind::default());
        let coins = vec![CoinState::Undecided; 2];
        assert_eq!(est.expected_value(0, &coins), 0.3);
        assert_eq!(est.expected_value(1, &coins), 0.0);
    }
}

//! Fractional dominating sets via distributed multiplicative weights.
//!
//! Lemma 2.1 of the paper obtains its initial fractional solution from the
//! distributed `(1+ε)` LP algorithm of \[KMW06\]. As documented in
//! `DESIGN.md` (substitution R1), this module stands in for that algorithm
//! with [`DistributedLpProgram`], a genuine message-passing MWU
//! solver built by [`DistributedLpProgram::programs`] and run by any
//! [`congest_sim::Executor`]; each node outputs its value. Every
//! width-reduction iteration costs four CONGEST rounds (value exchange,
//! constraint weights, server scores, best-server maxima), and a node halts
//! as soon as every constraint it serves is covered, so the total round
//! count is **measured**: at most
//! `congest_sim::ledger::formulas::mwu_fractional_rounds` (`4T + 1`), and
//! below the paper's `O(ε⁻⁴ log² Δ)` charge
//! (`formulas::kmw_fractional_rounds`). [`central_mwu_reference`] replays
//! the same update and halting rules centrally and is bit-identical to the
//! engine run, rounds, messages and payloads included — the oracle the
//! property tests compare against. A node whose own constraint is covered
//! sends only what its neighbors still read, its scores and values; the
//! weight and best-server broadcasts of an iteration come from the owners of
//! uncovered constraints alone.
//!
//! The module also exposes [`dual_lower_bound`], a certified feasible
//! solution of the dual packing LP, used by the experiments to bound the
//! optimum from below on instances too large for the exact solver, and the
//! always-feasible [`degree_heuristic`].

use crate::cfds::FractionalAssignment;
use congest_sim::ledger::formulas;
use congest_sim::{Graph, Inbox, NodeContext, NodeProgram, Outbox, RoundAction};

/// A certified lower bound on the dominating-set LP optimum: the value of the
/// dual-feasible packing solution `y_v = 1 / max_{u ∈ N(v)} |N(u)|`.
///
/// Feasibility: for every node `u`,
/// `Σ_{v ∈ N(u)} y_v ≤ Σ_{v ∈ N(u)} 1/|N(u)| = 1`.
pub fn dual_lower_bound(graph: &Graph) -> f64 {
    graph
        .nodes()
        .map(|v| {
            let m = graph
                .inclusive_neighbors(v)
                .map(|u| graph.inclusive_degree(u))
                .max()
                .unwrap_or(1);
            1.0 / m as f64
        })
        .sum()
}

/// The simple always-feasible degree heuristic
/// `x(u) = max_{w ∈ N(u)} 1/|N(w)|` (inclusive neighborhoods): a cheap
/// feasible input for the rounding experiments (E6, E7) and the tests.
pub fn degree_heuristic(graph: &Graph) -> FractionalAssignment {
    let values = graph
        .nodes()
        .map(|u| {
            graph
                .inclusive_neighbors(u)
                .map(|w| 1.0 / graph.inclusive_degree(w) as f64)
                .fold(0.0f64, f64::max)
        })
        .collect();
    FractionalAssignment::from_values(values)
}

/// Tolerance below which a constraint counts as covered (matches the
/// feasibility tolerance used throughout the workspace).
const COVERAGE_TOL: f64 = 1e-9;

/// The constraint-weight kernel of the distributed MWU solver: a constraint
/// with coverage `cov` has weight `e^{-α·cov}` until covered (within the
/// workspace feasibility tolerance `1e-9`), `0` afterwards.
///
/// Both [`DistributedLpProgram`] and [`central_mwu_reference`] evaluate their
/// weights through this one function, so the engine run and the central
/// oracle agree bit for bit by construction rather than by parallel
/// maintenance of two formulas.
#[inline]
pub fn constraint_weight(alpha: f64, cov: f64) -> f64 {
    if cov >= 1.0 - COVERAGE_TOL {
        0.0
    } else {
        (-alpha * cov).exp()
    }
}

/// Configuration of the *distributed* multiplicative-weights solver.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedLpConfig {
    /// Accuracy parameter: nodes within a `(1-ε)` factor of the best server
    /// of one of their constraints raise their value by a `(1+ε)` factor per
    /// width-reduction iteration.
    pub epsilon: f64,
    /// Number of width-reduction iterations; `None` selects enough iterations
    /// for a value to climb the full `(1+ε)`-ladder from the starting floor
    /// `Δ̃⁻²` to `1` twice, capped at [`DistributedLpConfig::MAX_ITERATIONS`].
    pub iterations: Option<usize>,
}

impl DistributedLpConfig {
    /// Cap on automatically chosen iteration counts.
    pub const MAX_ITERATIONS: usize = 4000;

    /// Config with a given ε and automatic iteration count.
    pub fn with_epsilon(epsilon: f64) -> Self {
        DistributedLpConfig {
            epsilon,
            iterations: None,
        }
    }

    /// Resolves the derived parameters for a network with the given
    /// `Δ̃ = Δ + 1`. Both the node program and the central oracle use this
    /// resolution, so the two executions share every constant bit for bit.
    pub fn resolve(&self, delta_tilde: usize) -> MwuParameters {
        let eps = self.epsilon.clamp(1e-3, 0.5);
        let dt = delta_tilde.max(2) as f64;
        // Values start on the floor 2^-ι ≤ Δ̃⁻²: a whole inclusive
        // neighborhood entering at the floor adds at most 1/Δ̃ of coverage, so
        // fresh entries never overshoot a constraint.
        let iota = 2 * (dt.log2().ceil() as i32);
        let floor = 0.5f64.powi(iota);
        // Constraint weights decay multiplicatively with coverage.
        let alpha = (dt + 1.0).ln();
        let ladder = ((iota as f64) * std::f64::consts::LN_2 / (1.0 + eps).ln()).ceil() as usize;
        let iterations = self
            .iterations
            .unwrap_or(2 * ladder + 2)
            .clamp(1, Self::MAX_ITERATIONS);
        MwuParameters {
            epsilon: eps,
            floor,
            alpha,
            iterations,
        }
    }
}

impl Default for DistributedLpConfig {
    fn default() -> Self {
        DistributedLpConfig::with_epsilon(0.25)
    }
}

/// Parameters of one distributed MWU run, resolved from a
/// [`DistributedLpConfig`] and the network's `Δ̃`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MwuParameters {
    /// The clamped accuracy parameter ε.
    pub epsilon: f64,
    /// The starting value `2^-ι ≤ Δ̃⁻²` of a freshly raised node.
    pub floor: f64,
    /// The weight decay rate: a constraint with coverage `c` has weight
    /// `e^{-α·c}` until covered, `0` afterwards.
    pub alpha: f64,
    /// The number of width-reduction iterations.
    pub iterations: usize,
}

/// Per-node state machine of the distributed MWU covering-LP solver.
///
/// Every width-reduction iteration spends four rounds:
///
/// 1. values `x` are exchanged and every node derives the weight
///    `w(v) = e^{-α·cov(v)}` of its own (still uncovered) constraint;
/// 2. weights are exchanged and every node derives its server score
///    `s(u) = Σ_{v ∈ N⁺(u)} w(v)` — how much constraint weight it can serve;
/// 3. scores are exchanged and the owner of every uncovered constraint
///    derives its best-server score `m(v) = max_{u ∈ N⁺(v)} s(u)`;
/// 4. maxima are exchanged and every node within a `(1-ε)` factor of the
///    best server of some uncovered constraint it serves multiplies its value
///    by `(1+ε)` (entering at the floor `Δ̃⁻²`).
///
/// After the configured number of iterations one completion round raises the
/// value of any still-uncovered constraint's owner to `1`, so the output is
/// always feasible: at most `4T + 1` rounds
/// ([`congest_sim::ledger::formulas::mwu_fractional_rounds`]), measured on
/// the engine.
///
/// **Halting.** Coverage only grows, so a covered constraint stays covered:
/// once `w(v) = 0`, `v` stops re-summing its coverage and skips the
/// completion raise (sticky coverage). A node `u` halts in step 2 of the
/// first iteration in which its own weight and every weight it receives are
/// `0` (a missing inbox entry reads as `0`): every constraint it serves is
/// covered, so its value can never change again. No uncovered constraint has
/// a halted node in its `N⁺`, so every `w`, `s` and `m` read for one is what
/// it would be without halting, and the values are bit-identical to a run
/// without the rule. If every node halts in iteration `i* < T` the run ends
/// after `4i* + 2` rounds; [`central_mwu_reference`] reports the exact count.
///
/// **Broadcasts.** Every live node broadcasts `x` at init and in step 4, and
/// `s` in step 2. Only a node with `w > 0` broadcasts in steps 1 and 3:
/// a missing weight reads as `0`, and `m(v)` is read only while `w(v) > 0`.
/// A node with `w > 0` never halts in step 2, so a neighbor's `m` arrives
/// exactly when that neighbor's constraint is uncovered, and step 4 tests
/// every `m` it receives. Every sum starts at a non-negative own term, to
/// which the `+0` of a missing entry adds nothing, so the values are
/// bit-identical to a run in which covered nodes broadcast `w = 0` and `m`.
/// [`MwuReplay::messages`] gives the resulting count per node.
///
/// **Folds.** Every step reads its inbox with [`Inbox::iter_or`], which
/// yields a neighbor that sent nothing as the fold's identity, so the gather
/// does not branch on which neighbors fell silent. In steps 2 and 4 those
/// are the covered ones, about a quarter of the live node-iterations on
/// `gnm(10⁴, 4·10⁴)`, in no predictable pattern.
///
/// - steps 1 and 2 sum values and weights with identity `0`;
/// - step 3 takes the best-server maximum, starting at the own score, with
///   identity `-∞`;
/// - step 4 compares `s` with `(1-ε)·min m` over the received maxima, with
///   identity `+∞`, which no finite score reaches when no neighbor's
///   constraint is uncovered. This is the same decision as asking whether
///   `s ≥ (1-ε)·m` for some received `m`: `1-ε ≥ 1/2` is positive, and an
///   IEEE product with a positive constant is monotone in the other factor,
///   so the least of the rounded products `(1-ε)·m` is the rounded product
///   with the least `m`.
///
/// Adding `+0` to a non-negative sum, or taking the maximum with `-∞`,
/// leaves the running value as it was, so steps 1 to 3 compute what loops
/// over the received messages alone compute, bit for bit.
///
/// All messages are single 64-bit values, charged per the workspace's
/// convention for fractional payloads ([`congest_sim::MessageSize`] on
/// `f64`). Strictly, the broadcast weights `e^{-α·cov}` carry a full float
/// mantissa rather than being rounded to the `2^-ι` transmittable grid of
/// Section 2 — a precision shortcut in the spirit of substitution R6, noted
/// here rather than hidden.
#[derive(Debug, Clone)]
pub struct DistributedLpProgram {
    params: MwuParameters,
    x: f64,
    /// The own constraint's weight; `0` exactly when it is covered (after the
    /// first exchange — it starts at `e^0 = 1`, the weight at coverage `0`).
    w: f64,
    s: f64,
    /// Whether the own constraint is uncovered and `s` is within a `(1-ε)`
    /// factor of its best-server score; decided in step 3, read in step 4.
    near_best_own: bool,
    iteration: usize,
}

impl DistributedLpProgram {
    /// One identical program per node of `graph`, all sharing the parameters
    /// `config` resolves for the graph's `Δ̃`.
    pub fn programs(graph: &Graph, config: &DistributedLpConfig) -> Vec<Self> {
        let program = DistributedLpProgram {
            params: config.resolve(graph.delta_tilde()),
            x: 0.0,
            w: 1.0,
            s: 0.0,
            near_best_own: false,
            iteration: 0,
        };
        vec![program; graph.n()]
    }
}

impl NodeProgram for DistributedLpProgram {
    type Message = f64;
    type Output = f64;

    fn init(&mut self, _ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, f64>) {
        outbox.broadcast(self.x);
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, f64>,
        outbox: &mut Outbox<'_, f64>,
    ) -> RoundAction<f64> {
        let p = self.params;
        match (ctx.round - 1) % 4 {
            // Values arrive: derive the own-constraint weight; after the last
            // iteration this round doubles as the feasibility completion. A
            // covered constraint is never re-summed: a halted neighbor no
            // longer sends its value.
            0 => {
                let done = self.iteration >= p.iterations;
                if self.w > 0.0 {
                    let cov = inbox.iter_or(&0.0).fold(self.x, |cov, x| cov + x);
                    if !done {
                        self.w = constraint_weight(p.alpha, cov);
                    } else if cov < 1.0 - COVERAGE_TOL {
                        self.x = 1.0;
                    }
                }
                if done {
                    return RoundAction::Halt(self.x);
                }
                // A covered constraint's weight is 0, which its neighbors
                // read from a missing entry as well.
                if self.w > 0.0 {
                    outbox.broadcast(self.w);
                }
                RoundAction::Continue
            }
            // Weights arrive: derive the server score. Weights are never
            // negative, so a zero score means every constraint in `N⁺(u)` is
            // covered: the value is final and the node halts.
            1 => {
                self.s = inbox.iter_or(&0.0).fold(self.w, |s, w| s + w);
                if self.s == 0.0 {
                    return RoundAction::Halt(self.x);
                }
                outbox.broadcast(self.s);
                RoundAction::Continue
            }
            // Scores arrive: the owner of an uncovered constraint derives its
            // best-server score `m`, tests its own score against it and
            // broadcasts it. Nobody reads the `m` of a covered constraint.
            2 => {
                self.near_best_own = false;
                if self.w > 0.0 {
                    let m = inbox
                        .iter_or(&f64::NEG_INFINITY)
                        .fold(self.s, |m, &s| m.max(s));
                    self.near_best_own = self.s >= (1.0 - p.epsilon) * m;
                    outbox.broadcast(m);
                }
                RoundAction::Continue
            }
            // Best-server maxima arrive, one from each neighbor with an
            // uncovered constraint: near-best servers of an uncovered
            // constraint climb one rung of the (1+ε)-ladder. A server near
            // the best of some neighbor's constraint is near the best of the
            // one with the least `m` (see **Folds** above).
            _ => {
                let least = || {
                    inbox
                        .iter_or(&f64::INFINITY)
                        .fold(f64::INFINITY, |least, &m| least.min(m))
                };
                let qualifies = self.near_best_own || self.s >= (1.0 - p.epsilon) * least();
                if qualifies {
                    self.x = (self.x * (1.0 + p.epsilon)).max(p.floor).min(1.0);
                }
                self.iteration += 1;
                outbox.broadcast(self.x);
                RoundAction::Continue
            }
        }
    }
}

/// The central replay of a distributed MWU run: the values every node
/// outputs and the exact counts the engine reports for the run.
#[derive(Debug, Clone, PartialEq)]
pub struct MwuReplay {
    /// The nodes' output values.
    pub assignment: FractionalAssignment,
    /// Rounds until the last node halts: `4i* + 2` if every node has halted
    /// by iteration `i* < T`, else `4T + 1`.
    pub rounds: u64,
    /// Messages sent: `Σ deg(u)·b(u)`. A node halting in iteration `i_u`
    /// (`i_u = T` for one that reaches the completion round), whose own
    /// weight stays positive after the weight update of its first `c_u`
    /// iterations, broadcasts `b(u) = 1 + 2i_u + 2c_u` times: `x` at init,
    /// `s` and `x` per completed iteration, and `w` and `m` while its
    /// constraint is uncovered. A never-covered node broadcasts `4T + 1`
    /// times.
    pub messages: u64,
    /// Stored payloads: one per broadcast, `Σ b(u)` over non-isolated nodes.
    pub payloads: u64,
}

/// Replays the distributed MWU update and halting rules centrally, in the
/// same order and with the same floating-point operations as the engine run —
/// the oracle the engine execution is property-tested equal to.
pub fn central_mwu_reference(graph: &Graph, config: &DistributedLpConfig) -> MwuReplay {
    let n = graph.n();
    let p = config.resolve(graph.delta_tilde());
    let mut x = vec![0.0f64; n];
    // Per-iteration scratch, sized once: the loop body reuses these buffers
    // instead of collecting three fresh vectors every iteration. Each slot is
    // overwritten in index order before it is read, and the accumulation
    // order within a slot is unchanged, so the floats are bit-identical to
    // the collecting version (and to the engine run). Weights start at the
    // program's `e^0 = 1`.
    let mut w = vec![1.0f64; n];
    let mut s = vec![0.0f64; n];
    let mut m = vec![0.0f64; n];
    // The iteration each node halted in; `T` for one that reaches the
    // completion round.
    let mut halted_in = vec![p.iterations; n];
    // How many iterations left each node's weight positive after the
    // update: it broadcasts `w` and `m` in exactly those.
    let mut uncovered_in = vec![0u64; n];
    let mut live = n;
    let coverage = |x: &[f64], v: usize| -> f64 {
        let mut cov = x[v];
        for &u in graph.neighbors(congest_sim::NodeId(v)) {
            cov += x[u.0];
        }
        cov
    };
    for i in 0..p.iterations {
        // Sticky coverage, as on the engine: a covered constraint keeps
        // weight 0 without being re-summed.
        for v in 0..n {
            if w[v] > 0.0 {
                w[v] = constraint_weight(p.alpha, coverage(&x, v));
                if w[v] > 0.0 {
                    uncovered_in[v] += 1;
                }
            }
        }
        for u in 0..n {
            let mut acc = w[u];
            for &v in graph.neighbors(congest_sim::NodeId(u)) {
                acc += w[v.0];
            }
            s[u] = acc;
            if acc == 0.0 && halted_in[u] == p.iterations {
                halted_in[u] = i;
                live -= 1;
            }
        }
        if live == 0 {
            break;
        }
        for v in 0..n {
            let mut best = s[v];
            for &u in graph.neighbors(congest_sim::NodeId(v)) {
                best = best.max(s[u.0]);
            }
            m[v] = best;
        }
        let threshold = 1.0 - p.epsilon;
        for u in 0..n {
            let mut qualifies = w[u] > 0.0 && s[u] >= threshold * m[u];
            if !qualifies {
                for &v in graph.neighbors(congest_sim::NodeId(u)) {
                    if w[v.0] > 0.0 && s[u] >= threshold * m[v.0] {
                        qualifies = true;
                        break;
                    }
                }
            }
            if qualifies {
                x[u] = (x[u] * (1.0 + p.epsilon)).max(p.floor).min(1.0);
            }
        }
    }
    // Completion from a frozen snapshot: on the engine, every node decides
    // from the *pre-completion* broadcasts, so the coverage check must not
    // observe values raised within this same pass. Covered constraints are
    // sticky and skip it; when every node halted early, none is uncovered.
    let uncovered: Vec<bool> = (0..n)
        .map(|v| w[v] > 0.0 && coverage(&x, v) < 1.0 - COVERAGE_TOL)
        .collect();
    for v in 0..n {
        if uncovered[v] {
            x[v] = 1.0;
        }
    }
    // A node halts in round 4i + 2 after halting in iteration i, and in
    // round 4T + 1 at completion; the run ends with the largest. It
    // broadcasts `x` at init, `s` and `x` in every iteration it completes,
    // and `w` and `m` in every iteration its constraint is uncovered.
    let t = p.iterations as u64;
    let (mut rounds, mut messages, mut payloads) = (0, 0, 0);
    for (u, (&i, &c)) in halted_in.iter().zip(&uncovered_in).enumerate() {
        let i = i as u64;
        let halt_round = if i < t {
            4 * i + 2
        } else {
            formulas::mwu_fractional_rounds(t)
        };
        let broadcasts = 1 + 2 * i + 2 * c;
        let degree = graph.degree(congest_sim::NodeId(u)) as u64;
        rounds = rounds.max(halt_round);
        messages += degree * broadcasts;
        if degree > 0 {
            payloads += broadcasts;
        }
    }
    MwuReplay {
        assignment: FractionalAssignment::from_values(x),
        rounds,
        messages,
        payloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{Executor, ExecutorConfig, PooledExecutor, RunReport, SyncExecutor};
    use mds_graphs::generators;

    /// Builds the MWU programs, runs them on `executor` and assembles the
    /// node outputs into the fractional assignment.
    fn run_measured<E: Executor>(
        g: &Graph,
        config: &DistributedLpConfig,
        executor: &E,
    ) -> (FractionalAssignment, RunReport<f64>) {
        let programs = DistributedLpProgram::programs(g, config);
        let report = executor
            .run(g, programs, &ExecutorConfig::default())
            .unwrap();
        (
            FractionalAssignment::from_values(report.outputs.clone()),
            report,
        )
    }

    #[test]
    fn dual_lower_bound_is_valid_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::gnp(60, 0.1, seed);
            let lb = dual_lower_bound(&g);
            let (primal, _) = run_measured(&g, &DistributedLpConfig::default(), &SyncExecutor);
            assert!(primal.is_feasible_dominating_set(&g));
            assert!(
                lb <= primal.size() + 1e-9,
                "dual {lb} must lower-bound primal {}",
                primal.size()
            );
        }
    }

    #[test]
    fn degree_heuristic_is_always_feasible() {
        for seed in 0..5 {
            let g = generators::gnp(80, 0.05, seed);
            assert!(degree_heuristic(&g).is_feasible_dominating_set(&g));
        }
        let g = generators::caterpillar(10, 4);
        assert!(degree_heuristic(&g).is_feasible_dominating_set(&g));
    }

    /// Asserts that `report` has exactly the replay's rounds, messages and
    /// payloads.
    fn assert_counts_match(report: &RunReport<f64>, replay: &MwuReplay) {
        assert_eq!(
            (report.rounds, report.messages, report.payloads),
            (replay.rounds, replay.messages, replay.payloads)
        );
    }

    #[test]
    fn distributed_mwu_round_count_matches_formula_exactly() {
        for seed in 0..3 {
            let g = generators::gnp(50, 0.1, seed);
            let config = DistributedLpConfig::default();
            let (_, report) = run_measured(&g, &config, &SyncExecutor);
            let t = config.resolve(g.delta_tilde()).iterations;
            // Measured: exactly the replay's count, at most 4T + 1 rounds.
            assert_counts_match(&report, &central_mwu_reference(&g, &config));
            assert!(report.rounds <= formulas::mwu_fractional_rounds(t as u64));
            // And strictly below the paper's O(ε⁻⁴ log² Δ) charge (R1).
            assert!(
                report.rounds <= formulas::kmw_fractional_rounds(g.max_degree(), config.epsilon)
            );
            assert_eq!(report.bandwidth_violations, 0);
        }
    }

    #[test]
    fn nodes_halt_once_their_constraints_are_covered() {
        // The pipeline's Part I solver (ε = 1/16). Every constraint is
        // covered before T here, so the run ends with the last node's halt,
        // 4i* + 2 rounds, instead of after all 4T + 1.
        let config = DistributedLpConfig::with_epsilon(1.0 / 16.0);
        for (g, full, early) in [
            (generators::star(1000), 1841, 922),
            (generators::cycle(300), 377, 118),
            (generators::gnp(40, 0.12, 7), 745, 502),
        ] {
            let t = config.resolve(g.delta_tilde()).iterations as u64;
            assert_eq!(formulas::mwu_fractional_rounds(t), full);
            let replay = central_mwu_reference(&g, &config);
            let (out, report) = run_measured(&g, &config, &SyncExecutor);
            assert_eq!(report.rounds, early);
            assert_counts_match(&report, &replay);
            assert_eq!(out.values(), replay.assignment.values());
            assert!(out.is_feasible_dominating_set(&g));
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn program_state_holds_only_the_resolved_parameters() {
        // The parameters (32 B), `x`, `w`, `s`, the iteration and the
        // near-best flag; no heap state.
        assert_eq!(std::mem::size_of::<DistributedLpProgram>(), 72);
    }

    /// Delegates to the MWU program and asserts, after each of its weight
    /// and best-server rounds, that a node whose own constraint is covered
    /// queued nothing. Outputs the value and the number of rounds checked.
    struct CoveredStaysQuiet(DistributedLpProgram, u64);

    impl NodeProgram for CoveredStaysQuiet {
        type Message = f64;
        type Output = (f64, u64);

        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, f64>) {
            self.0.init(ctx, outbox);
        }

        fn round(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &Inbox<'_, f64>,
            outbox: &mut Outbox<'_, f64>,
        ) -> RoundAction<(f64, u64)> {
            let action = self.0.round(ctx, inbox, outbox);
            if matches!((ctx.round - 1) % 4, 0 | 2) && self.0.w == 0.0 {
                assert_eq!(outbox.queued(), 0, "{:?} in round {}", ctx.id, ctx.round);
                self.1 += 1;
            }
            match action {
                RoundAction::Halt(x) => RoundAction::Halt((x, self.1)),
                RoundAction::Continue => RoundAction::Continue,
                RoundAction::SleepUntil(r) => RoundAction::SleepUntil(r),
            }
        }
    }

    #[test]
    fn covered_nodes_broadcast_neither_weight_nor_best_server_score() {
        let config = DistributedLpConfig::with_epsilon(1.0 / 16.0);
        for g in [
            generators::gnp(40, 0.12, 7),
            generators::star(1000),
            generators::cycle(300),
        ] {
            let programs = DistributedLpProgram::programs(&g, &config)
                .into_iter()
                .map(|p| CoveredStaysQuiet(p, 0))
                .collect();
            let report = SyncExecutor
                .run(&g, programs, &ExecutorConfig::default())
                .unwrap();
            let checked: u64 = report.outputs.iter().map(|&(_, c)| c).sum();
            assert!(checked > 0, "no covered node ran a weight or maxima round");
            let replay = central_mwu_reference(&g, &config);
            let values: Vec<f64> = report.outputs.iter().map(|&(x, _)| x).collect();
            assert_eq!(values, replay.assignment.values());
            assert_eq!(
                (report.rounds, report.messages, report.payloads),
                (replay.rounds, replay.messages, replay.payloads)
            );
        }
    }

    #[test]
    fn distributed_mwu_equals_central_oracle_on_both_executors() {
        for seed in 0..4 {
            let g = generators::gnp(40, 0.12, seed);
            let config = DistributedLpConfig::default();
            let oracle = central_mwu_reference(&g, &config);
            let (seq, seq_report) = run_measured(&g, &config, &SyncExecutor);
            assert_eq!(seq.values(), oracle.assignment.values(), "seed {seed}");
            assert_counts_match(&seq_report, &oracle);
            let (_, par_report) = run_measured(&g, &config, &PooledExecutor::new(3));
            assert_eq!(seq_report, par_report, "seed {seed}");
        }
    }

    #[test]
    fn truncated_runs_still_match_the_oracle_through_the_completion_pass() {
        // With a deliberately insufficient iteration count the feasibility
        // completion does real work; the oracle must evaluate it from a
        // frozen snapshot, exactly like the engine's synchronous round.
        for iterations in [1usize, 2, 5] {
            let g = generators::path(4);
            let config = DistributedLpConfig {
                epsilon: 0.25,
                iterations: Some(iterations),
            };
            let (engine, report) = run_measured(&g, &config, &SyncExecutor);
            let oracle = central_mwu_reference(&g, &config);
            assert_eq!(
                engine.values(),
                oracle.assignment.values(),
                "iterations {iterations}"
            );
            assert_counts_match(&report, &oracle);
            assert!(engine.is_feasible_dominating_set(&g));
        }
    }

    #[test]
    fn distributed_mwu_is_feasible_across_families() {
        for g in [
            generators::gnp(60, 0.08, 7),
            generators::caterpillar(8, 4),
            generators::grid(6, 7),
            generators::cycle(30),
            generators::path(17),
        ] {
            let (out, _) = run_measured(&g, &DistributedLpConfig::default(), &SyncExecutor);
            assert!(out.is_feasible_dominating_set(&g));
            assert!(out.size() >= dual_lower_bound(&g) - 1e-9);
        }
    }

    #[test]
    fn distributed_mwu_star_stays_near_optimal() {
        let g = generators::star(80);
        let (out, _) = run_measured(&g, &DistributedLpConfig::default(), &SyncExecutor);
        assert!(out.is_feasible_dominating_set(&g));
        // The LP optimum is 1: only the center qualifies as a near-best
        // server, so the leaves never raise.
        assert!(out.size() <= 1.5, "{}", out.size());
    }

    #[test]
    fn distributed_mwu_cycle_is_within_doubling_of_lp() {
        let g = generators::cycle(30);
        let (out, _) = run_measured(&g, &DistributedLpConfig::default(), &SyncExecutor);
        // LP optimum of C_30 is 10, and the dual bound certifies it exactly;
        // a (1+ε)-ladder overshoots each value by at most (1+ε), so the size
        // stays close.
        assert!((dual_lower_bound(&g) - 10.0).abs() < 1e-9);
        assert!(out.size() >= 10.0 - 1e-6);
        assert!(out.size() <= 14.0, "{}", out.size());
    }

    #[test]
    fn distributed_mwu_isolated_and_empty_graphs() {
        let g = congest_sim::Graph::empty(5);
        let (out, report) = run_measured(&g, &DistributedLpConfig::default(), &SyncExecutor);
        assert!(out.is_feasible_dominating_set(&g));
        assert!((out.size() - 5.0).abs() < 1e-6);
        assert_eq!(dual_lower_bound(&g), 5.0);
        let replay = central_mwu_reference(&g, &DistributedLpConfig::default());
        assert_eq!(replay.assignment.values(), out.values());
        assert_counts_match(&report, &replay);

        let g0 = congest_sim::Graph::empty(0);
        let (out0, report0) = run_measured(&g0, &DistributedLpConfig::default(), &SyncExecutor);
        assert_eq!(out0.len(), 0);
        assert_eq!(report0.rounds, 0);
        assert_counts_match(
            &report0,
            &central_mwu_reference(&g0, &DistributedLpConfig::default()),
        );
    }
}

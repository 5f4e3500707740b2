//! Round and message accounting for composite algorithms.
//!
//! The paper's main algorithms are compositions of communication primitives
//! whose CONGEST round cost is stated in closed form (e.g. "aggregating a sum
//! along the spanning tree of a cluster with diameter `d` takes `O(d)`
//! rounds", Lemma 3.4). The [`RoundLedger`] records, per phase, both the
//! *simulated* cost (what our implementation of the primitive actually
//! spends) and the *paper formula* cost (the closed-form bound from the
//! paper), so experiments can report either view and compare the two.
//!
//! Every phase is recorded exactly once, as one [`PhaseCost`], by the code
//! that runs or composes it. There is one charge path per [`PhaseMode`]:
//! [`RoundLedger::charge`] records a centrally simulated phase and
//! [`crate::RunReport::charge`] a phase that ran on the engine;
//! [`crate::ComposedProgram::measured`] also stamps the engine wall time.
//! Consumers tell phases apart by [`PhaseKind`], never by name.

use std::fmt;

/// The pipeline component a phase belongs to: what consumers split rounds
/// and wall time by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Part I: the initial fractional solution of Lemma 2.1.
    Fractional,
    /// The network decomposition of the Theorem 1.1 route (Theorem 3.2).
    NetDecomp,
    /// The distance-two coloring of the Theorem 1.2 route (Lemma 3.12).
    Coloring,
    /// Coin fixing by conditional expectations (Lemmas 3.4 / 3.10).
    Derandomization,
    /// Everything else: CDS, spanner, ruling set and the baselines.
    Other,
}

/// How a phase was accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseMode {
    /// The phase ran as node programs on the engine; its round count is real.
    Measured,
    /// The phase was simulated centrally and charged to the ledger.
    Charged,
}

/// Name, kind and optional closed-form round bound of one phase: what the
/// code recording the phase knows before it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Phase name, e.g. `"part II: factor-two rounding"`; printed, never
    /// matched on.
    pub name: String,
    /// The component the phase belongs to.
    pub kind: PhaseKind,
    /// The paper's closed-form round bound for the phase, if one is stated;
    /// recorded as the ledger's "paper" column next to the measured or
    /// simulated cost.
    pub formula_rounds: Option<u64>,
}

impl PhaseSpec {
    /// A spec with the given kind and name and no closed-form bound.
    pub fn new(kind: PhaseKind, name: impl Into<String>) -> Self {
        PhaseSpec {
            name: name.into(),
            kind,
            formula_rounds: None,
        }
    }

    /// Attaches the paper's closed-form round bound.
    pub fn with_formula(mut self, formula_rounds: u64) -> Self {
        self.formula_rounds = Some(formula_rounds);
        self
    }
}

/// The cost of one phase of an algorithm: the one per-phase record.
///
/// Equality compares every field except [`PhaseCost::wall_nanos`]: host time
/// is not accounting, so executor-equivalence asserts on whole ledgers stay
/// exact.
#[derive(Debug, Clone)]
pub struct PhaseCost {
    /// Human-readable phase name.
    pub name: String,
    /// The component the phase belongs to.
    pub kind: PhaseKind,
    /// Whether the cost was measured on the engine or charged centrally.
    pub mode: PhaseMode,
    /// Rounds spent by the simulated implementation of the phase (the engine
    /// rounds for a measured phase).
    pub simulated_rounds: u64,
    /// Rounds charged by the paper's closed-form bound for the phase, when one
    /// is stated.
    pub formula_rounds: Option<u64>,
    /// Number of point-to-point messages sent during the phase (simulated).
    pub messages: u64,
    /// Number of payloads actually stored/shipped by the engine during the
    /// phase: a broadcast stores one payload per broadcasting node per round
    /// while `messages` charges `deg(v)`. Charged phases (no engine run)
    /// record `payloads == messages`.
    pub payloads: u64,
    /// Wall-clock time spent inside [`crate::engine::Executor::run`], in
    /// nanoseconds, for a measured phase of a [`crate::ComposedProgram`];
    /// `0` otherwise. Host-dependent, so excluded from equality and from the
    /// golden trajectories.
    pub wall_nanos: u64,
}

impl PartialEq for PhaseCost {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.kind == other.kind
            && self.mode == other.mode
            && self.simulated_rounds == other.simulated_rounds
            && self.formula_rounds == other.formula_rounds
            && self.messages == other.messages
            && self.payloads == other.payloads
    }
}

/// Accumulates [`PhaseCost`]s over the course of an algorithm run.
///
/// ```
/// use congest_sim::{PhaseKind, PhaseSpec, RoundLedger};
/// let mut ledger = RoundLedger::new();
/// ledger.charge(PhaseSpec::new(PhaseKind::Other, "neighbor exchange"), 1, 24);
/// ledger.charge(
///     PhaseSpec::new(PhaseKind::Other, "cluster aggregation").with_formula(40),
///     12,
///     64,
/// );
/// assert_eq!(ledger.total_simulated_rounds(), 13);
/// assert_eq!(ledger.total_formula_rounds(), 1 + 40);
/// assert_eq!(ledger.measured_rounds(None), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundLedger {
    pub(crate) phases: Vec<PhaseCost>,
}

impl RoundLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        RoundLedger::default()
    }

    /// Records a centrally simulated phase as [`PhaseMode::Charged`]. Payloads
    /// equal the message count (no engine run, so no broadcast compression to
    /// report).
    pub fn charge(&mut self, spec: PhaseSpec, simulated_rounds: u64, messages: u64) {
        self.phases.push(PhaseCost {
            name: spec.name,
            kind: spec.kind,
            mode: PhaseMode::Charged,
            simulated_rounds,
            formula_rounds: spec.formula_rounds,
            messages,
            payloads: messages,
            wall_nanos: 0,
        });
    }

    /// Appends all phases of `other` to this ledger, each with its mode and
    /// kind.
    pub fn absorb(&mut self, other: RoundLedger) {
        self.phases.extend(other.phases);
    }

    /// The recorded phases, in charge order.
    pub fn phases(&self) -> &[PhaseCost] {
        &self.phases
    }

    /// Rounds actually executed on the engine: the simulated rounds of the
    /// measured phases of `kind`, or of every kind for `None`.
    pub fn measured_rounds(&self, kind: Option<PhaseKind>) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.mode == PhaseMode::Measured && kind.is_none_or(|k| p.kind == k))
            .map(|p| p.simulated_rounds)
            .sum()
    }

    /// Total simulated rounds across all phases.
    pub fn total_simulated_rounds(&self) -> u64 {
        self.phases.iter().map(|p| p.simulated_rounds).sum()
    }

    /// Total rounds using the paper formula wherever one was recorded and the
    /// simulated cost otherwise.
    pub fn total_formula_rounds(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.formula_rounds.unwrap_or(p.simulated_rounds))
            .sum()
    }

    /// Total messages sent across all phases.
    pub fn total_messages(&self) -> u64 {
        self.phases.iter().map(|p| p.messages).sum()
    }

    /// Total stored payloads across all phases.
    pub fn total_payloads(&self) -> u64 {
        self.phases.iter().map(|p| p.payloads).sum()
    }
}

/// A totals line followed by the per-phase breakdown.
impl fmt::Display for RoundLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "rounds(sim)={} rounds(paper)={} messages={} payloads={}",
            self.total_simulated_rounds(),
            self.total_formula_rounds(),
            self.total_messages(),
            self.total_payloads()
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "  {:<40} sim={:<10} paper={:<10} msgs={} payloads={}",
                p.name,
                p.simulated_rounds,
                p.formula_rounds
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "-".to_owned()),
                p.messages,
                p.payloads
            )?;
        }
        Ok(())
    }
}

/// Closed-form round bounds stated in the paper, used to populate the
/// "paper formula" column of the ledger.
pub mod formulas {
    /// `2^{O(sqrt(log n * log log n))}` — the deterministic network
    /// decomposition bound of Theorem 3.2 (\[GK18\]) and hence the runtime of
    /// Theorems 1.1 and 1.4. The hidden constant is taken to be 1.
    pub fn gk18_decomposition_rounds(n: usize) -> u64 {
        if n < 2 {
            return 1;
        }
        let log_n = (n as f64).log2();
        let log_log_n = log_n.max(2.0).log2();
        (2f64.powf((log_n * log_log_n).sqrt())).ceil() as u64
    }

    /// `O(ε^{-4} log^2 Δ)` — Lemma 2.1 (\[KMW06\]) initial fractional solution.
    pub fn kmw_fractional_rounds(max_degree: usize, epsilon: f64) -> u64 {
        let delta = (max_degree.max(2)) as f64;
        let log_d = delta.log2().max(1.0);
        ((log_d * log_d) / epsilon.powi(4)).ceil() as u64
    }

    /// `O(Δ_L · Δ_R + Δ_L · log* n)` — Lemma 3.12 bipartite distance-two
    /// coloring. Floored at 2 rounds: even a conflict-free instance spends
    /// one round deciding and one round observing quiescence
    /// (cf. [`measured_coloring_rounds`]).
    pub fn bipartite_coloring_rounds(delta_l: usize, delta_r: usize, n: usize) -> u64 {
        ((delta_l * delta_r + delta_l * log_star(n)) as u64).max(2)
    }

    /// `2S` — the exact round count of the measured distance-two coloring
    /// program over `S` color-reduction steps: every step spends one round in
    /// which the step's nodes fix their final color and announce it, and one
    /// round in which constraint owners relay the newly fixed colors to the
    /// still-undecided nodes at distance two. A schedule with no step at all
    /// (no target to color) still spends the single round in which every node
    /// observes there is nothing to do. The step count is the longest
    /// conflict chain of the schedule's `(batch, id)` order, which the paper
    /// charge [`bipartite_coloring_rounds`] does not bound: the count stays
    /// below it on the tests' small `G(n, p)` families, but not on most
    /// sparse random-regular graphs.
    pub fn measured_coloring_rounds(steps: u64) -> u64 {
        if steps == 0 {
            1
        } else {
            2 * steps
        }
    }

    /// `Σ_p (D_p + 1)` — the exact round count of the measured GK18-style
    /// network decomposition over its carving schedule: phase `p`'s join
    /// wave needs `D_p` rounds to reach the deepest cluster member (the
    /// phase's maximum cluster depth) plus one round for the centers'
    /// opening broadcast, and the phase windows are disjoint so the totals
    /// add. `total_wave_depth` is `Σ_p D_p`. An empty graph runs no phase
    /// and spends zero rounds. Under Theorem 3.2 this must stay at or below
    /// the paper charge [`netdecomp_charge_rounds`].
    pub fn measured_netdecomp_rounds(phases: u64, total_wave_depth: u64) -> u64 {
        if phases == 0 {
            0
        } else {
            total_wave_depth + phases
        }
    }

    /// `k · 2^{O(√(log n log log n))}` — the paper charge for the `k`-hop
    /// network decomposition (Theorem 3.2 scaled by the separation
    /// parameter), floored at 2 rounds: even a degenerate one-phase instance
    /// spends one wave round plus the observing round in which every node
    /// halts — the same convention as the `Δ_L = 0` floor of
    /// [`bipartite_coloring_rounds`], so zero-growth instances never assert
    /// `measured > charged`.
    pub fn netdecomp_charge_rounds(n: usize, k: usize) -> u64 {
        ((k.max(1) as u64) * gk18_decomposition_rounds(n)).max(2)
    }

    /// `O(C)` — Lemma 3.10: one round per color class of the distance-two
    /// coloring, with a constant number of rounds of bookkeeping per class.
    pub fn coloring_derandomization_rounds(num_colors: usize) -> u64 {
        (2 * num_colors.max(1)) as u64
    }

    /// `O(K · c · d)` — Lemma 3.4: fixing `K = poly log n` seed bits per
    /// cluster, per color class, with `O(d)` rounds per bit.
    pub fn netdecomp_derandomization_rounds(n: usize, colors: usize, diameter: usize) -> u64 {
        let k = seed_length_bits(n) as u64;
        k * colors.max(1) as u64 * diameter.max(1) as u64
    }

    /// `K = O(k log^2 N)` — Lemma 3.3 seed length for `k`-wise independence
    /// with `k = poly log n`; we use `k = ceil(log^2 n)` and a unit constant.
    pub fn seed_length_bits(n: usize) -> usize {
        let log_n = (n.max(2) as f64).log2();
        ((log_n * log_n) * log_n * log_n).ceil() as usize
    }

    /// The iterated logarithm `log* n` (number of times `log2` must be applied
    /// before the value drops to at most 1).
    pub fn log_star(n: usize) -> usize {
        let mut x = n as f64;
        let mut count = 0;
        while x > 1.0 {
            x = x.log2();
            count += 1;
            if count > 10 {
                break;
            }
        }
        count
    }

    /// `O(log^3 n)` — the CDS clustering construction of Lemma 4.2.
    pub fn cds_clustering_rounds(n: usize) -> u64 {
        let log_n = (n.max(2) as f64).log2();
        (log_n * log_n * log_n).ceil() as u64
    }

    /// `2k²` — the exact round count of the \[KW05\] local fractional
    /// algorithm as implemented (`k²` phases of a value/covered message
    /// exchange pair). The paper states `O(k²)`.
    pub fn kw05_rounds(k: usize) -> u64 {
        2 * (k.max(1) as u64).pow(2)
    }

    /// `4T + 1` — the round count of the distributed multiplicative-weights
    /// covering-LP solver when it runs all `T` width-reduction iterations:
    /// each iteration spends four rounds (value exchange, constraint weights,
    /// server scores, best-server maxima) and one final round performs the
    /// feasibility completion. A node halts once every constraint it serves
    /// is covered, so this is an upper bound: a run in which every node has
    /// halted by iteration `i* < T` ends after `4i* + 2` rounds, and the
    /// solver's central replay gives the exact count. The paper charges
    /// [`kmw_fractional_rounds`] for this step; the measured count must stay
    /// below that bound.
    pub fn mwu_fractional_rounds(iterations: u64) -> u64 {
        4 * iterations + 1
    }

    /// `2S` — the exact round count of the distributed conditional-expectation
    /// schedule over `S` steps: every step spends one round delivering the
    /// owners' estimator replies and one round delivering the deciders'
    /// announcements. The steps follow the conflict order of the processing
    /// order: under a distance-two coloring they are the color classes, so
    /// for `S ≥ 1` this equals [`coloring_derandomization_rounds`]; under a
    /// network decomposition there are as many as the longest conflict chain
    /// of the cluster order. A schedule with no step (no coin to fix) still
    /// spends the single round in which every node evaluates its constraint
    /// (cf. [`measured_coloring_rounds`]).
    pub fn derandomization_schedule_rounds(steps: u64) -> u64 {
        if steps == 0 {
            1
        } else {
            2 * steps
        }
    }

    /// `2(α−1)P + (α−1)` — the exact round count of the distributed
    /// `(α, α−1)`-ruling set after `P` phases: each phase floods candidate
    /// identifiers for `α−1` rounds and blocking notices for another `α−1`,
    /// and one trailing select-flood lets every node observe quiescence.
    /// `α = 1` selects all candidates in a single round.
    pub fn ruling_set_phase_rounds(phases: u64, alpha: usize) -> u64 {
        if alpha <= 1 {
            1
        } else {
            let hops = alpha as u64 - 1;
            2 * hops * phases + hops
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn log_star_values() {
            assert_eq!(log_star(1), 0);
            assert_eq!(log_star(2), 1);
            assert_eq!(log_star(4), 2);
            assert_eq!(log_star(16), 3);
            assert_eq!(log_star(65536), 4);
        }

        #[test]
        fn gk18_is_subpolynomial_but_superpolylog() {
            let r1 = gk18_decomposition_rounds(1 << 10);
            let r2 = gk18_decomposition_rounds(1 << 20);
            assert!(r2 > r1);
            // Far below linear growth.
            assert!((r2 as f64) < (1u64 << 20) as f64);
        }

        #[test]
        fn kmw_rounds_scale_with_epsilon() {
            assert!(kmw_fractional_rounds(64, 0.1) > kmw_fractional_rounds(64, 0.5));
            assert!(kmw_fractional_rounds(1024, 0.5) > kmw_fractional_rounds(4, 0.5));
        }

        #[test]
        fn measured_round_formulas() {
            assert_eq!(kw05_rounds(3), 18);
            assert_eq!(kw05_rounds(0), 2);
            assert_eq!(ruling_set_phase_rounds(7, 3), 30);
            assert_eq!(ruling_set_phase_rounds(0, 3), 2);
            assert_eq!(ruling_set_phase_rounds(5, 1), 1);
            assert_eq!(mwu_fractional_rounds(10), 41);
            assert_eq!(mwu_fractional_rounds(0), 1);
            assert_eq!(derandomization_schedule_rounds(6), 12);
            assert_eq!(measured_coloring_rounds(7), 14);
            // Zero steps still cost the one observing round.
            assert_eq!(derandomization_schedule_rounds(0), 1);
            assert_eq!(measured_coloring_rounds(0), 1);
            // One wave round per unit of depth plus one opening round per
            // phase; an empty graph runs no phase at all.
            assert_eq!(measured_netdecomp_rounds(3, 4), 7);
            assert_eq!(measured_netdecomp_rounds(1, 0), 1);
            assert_eq!(measured_netdecomp_rounds(0, 0), 0);
            // Under a coloring schedule the exact measured formula coincides
            // with the paper's Lemma 3.10 bound.
            assert_eq!(
                derandomization_schedule_rounds(6),
                coloring_derandomization_rounds(6)
            );
        }

        #[test]
        fn formulas_are_nonzero_for_tiny_inputs() {
            assert!(gk18_decomposition_rounds(1) >= 1);
            assert!(bipartite_coloring_rounds(1, 1, 2) >= 1);
            // The degenerate Δ_L = 0 charge still covers the measured
            // program's decide + observe rounds.
            assert_eq!(bipartite_coloring_rounds(0, 0, 2), 2);
            assert!(measured_coloring_rounds(1) <= bipartite_coloring_rounds(0, 0, 2));
            // The floored netdecomp charge covers the degenerate one-phase,
            // zero-depth decomposition (a single node, or all-singleton
            // clusters) for every k, including k = 0 inputs clamped to 1.
            assert_eq!(netdecomp_charge_rounds(1, 1), 2);
            assert_eq!(netdecomp_charge_rounds(1, 0), 2);
            assert!(measured_netdecomp_rounds(1, 0) <= netdecomp_charge_rounds(1, 2));
            assert!(netdecomp_charge_rounds(64, 2) >= 2 * gk18_decomposition_rounds(64));
            assert!(coloring_derandomization_rounds(0) >= 1);
            assert!(netdecomp_derandomization_rounds(2, 1, 1) >= 1);
            assert!(cds_clustering_rounds(2) >= 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunReport;

    fn spec(name: &str) -> PhaseSpec {
        PhaseSpec::new(PhaseKind::Other, name)
    }

    /// A finished engine run with the given totals and no outputs.
    fn run(rounds: u64, messages: u64, payloads: u64) -> RunReport<()> {
        RunReport {
            outputs: Vec::new(),
            rounds,
            messages,
            payloads,
            total_bits: 0,
            max_message_bits: 0,
            bandwidth_violations: 0,
            bandwidth_bits: 0,
            round_stats: Vec::new(),
        }
    }

    #[test]
    fn ledger_totals_and_merge() {
        let mut a = RoundLedger::new();
        a.charge(spec("x"), 3, 10);
        let mut b = RoundLedger::new();
        b.charge(spec("y").with_formula(100), 5, 20);
        a.absorb(b);
        assert_eq!(a.phases().len(), 2);
        assert_eq!(a.total_simulated_rounds(), 8);
        assert_eq!(a.total_formula_rounds(), 103);
        assert_eq!(a.total_messages(), 30);
    }

    #[test]
    fn display_contains_phase_names() {
        let mut a = RoundLedger::new();
        a.charge(spec("alpha phase"), 1, 2);
        let s = a.to_string();
        assert!(s.contains("alpha phase"));
        assert!(s.contains("rounds(sim)=1"));
    }

    /// The ledger's `Display` is its cost report: totals first, then one
    /// line per phase.
    #[test]
    fn cost_report_display_formats_totals_and_phases() {
        let mut l = RoundLedger::new();
        l.charge(spec("alpha phase"), 4, 12);
        l.charge(spec("beta phase").with_formula(99), 6, 8);
        let s = l.to_string();
        assert!(s.starts_with("rounds(sim)=10 rounds(paper)=103 messages=20"));
        assert!(s.contains("alpha phase"));
        assert!(s.contains("beta phase"));
        // A phase without a formula renders a dash; one with a formula
        // renders the bound.
        assert!(s.contains("sim=4"));
        assert!(s.contains("paper=-"));
        assert!(s.contains("paper=99"));
    }

    #[test]
    fn measured_charges_record_stored_payloads() {
        let mut l = RoundLedger::new();
        l.charge(PhaseSpec::new(PhaseKind::Coloring, "closed form"), 2, 10);
        run(4, 40, 10).charge(&mut l, PhaseSpec::new(PhaseKind::Coloring, "broadcast"));
        run(5, 40, 10).charge(&mut l, spec("broadcast with bound").with_formula(99));
        assert_eq!(
            l.phases()[0].payloads,
            10,
            "closed-form charge defaults payloads to messages"
        );
        let modes: Vec<_> = l.phases().iter().map(|p| p.mode).collect();
        assert_eq!(
            modes,
            [PhaseMode::Charged, PhaseMode::Measured, PhaseMode::Measured]
        );
        assert_eq!(l.phases()[2].formula_rounds, Some(99));
        assert_eq!(l.total_messages(), 90);
        assert_eq!(l.total_payloads(), 30);
        assert!(l.to_string().contains("payloads=30"));
        // Measured rounds skip the charged entry and filter by kind.
        assert_eq!(l.measured_rounds(None), 9);
        assert_eq!(l.measured_rounds(Some(PhaseKind::Coloring)), 4);
        assert_eq!(l.measured_rounds(Some(PhaseKind::NetDecomp)), 0);
    }

    #[test]
    fn phase_costs_compare_accounting_but_not_wall_time() {
        let mut l = RoundLedger::new();
        run(3, 6, 2).charge(&mut l, spec("phase"));
        let base = l.phases()[0].clone();
        let with = |f: fn(&mut PhaseCost)| {
            let mut p = base.clone();
            f(&mut p);
            p
        };
        assert_eq!(with(|p| p.wall_nanos = 12_345), base);
        assert_ne!(with(|p| p.mode = PhaseMode::Charged), base);
        assert_ne!(with(|p| p.kind = PhaseKind::Coloring), base);
    }

    #[test]
    fn empty_ledger_is_zero() {
        let l = RoundLedger::new();
        assert_eq!(l.total_simulated_rounds(), 0);
        assert_eq!(l.total_formula_rounds(), 0);
        assert_eq!(l.total_messages(), 0);
        assert_eq!(l.measured_rounds(None), 0);
    }

    #[test]
    fn formula_total_falls_back_to_simulated_when_no_formula_recorded() {
        // A phase without a closed-form bound contributes its simulated cost
        // to the paper view; a phase with one contributes the formula.
        let mut l = RoundLedger::new();
        l.charge(spec("measured only"), 7, 3);
        assert_eq!(l.phases()[0].formula_rounds, None);
        assert_eq!(l.total_formula_rounds(), 7);
        l.charge(spec("with paper bound").with_formula(50), 2, 1);
        assert_eq!(l.total_formula_rounds(), 7 + 50);
        assert_eq!(l.total_simulated_rounds(), 9);
    }
}

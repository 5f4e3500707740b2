//! Program composition: sequencing heterogeneous [`NodeProgram`]s — and
//! centrally simulated, closed-form-charged steps — as the *phases* of one
//! distributed algorithm.
//!
//! The paper's main algorithms are pipelines: a fractional solver feeds a
//! doubling loop feeds a one-shot rounding, with derandomization schedules
//! in between. Each stage is a different node program with its own message
//! type, so no single [`crate::engine::Executor::run`] call can drive the
//! whole pipeline. A [`ComposedProgram`] closes that gap: it owns the graph,
//! the executor and one [`RoundLedger`], runs **measured** phases (real node
//! programs on the engine, their [`RunReport`]s charged through
//! [`RunReport::charge_with_formula`]) and records **charged** phases
//! (combinatorial constructions simulated centrally, charged with the paper's
//! closed-form bound) into the same accounting stream, in execution order.
//! Typed state flows between phases as ordinary Rust values — the outputs of
//! one phase parameterize the node programs of the next. Each step calls
//! [`ComposedProgram::measured`] or [`ComposedProgram::charged`].
//!
//! ```
//! use congest_sim::compose::{ComposedProgram, PhaseSpec};
//! use congest_sim::{Graph, SyncExecutor, ExecutorConfig};
//! # use congest_sim::{Inbox, NodeContext, NodeProgram, Outbox, RoundAction};
//! # struct Noop;
//! # impl NodeProgram for Noop {
//! #     type Message = ();
//! #     type Output = usize;
//! #     fn init(&mut self, _: &NodeContext<'_>, _: &mut Outbox<'_, ()>) {}
//! #     fn round(&mut self, ctx: &NodeContext<'_>, _: &Inbox<'_, ()>, _: &mut Outbox<'_, ()>)
//! #         -> RoundAction<usize> { RoundAction::Halt(ctx.id.0) }
//! # }
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
//! let mut composed = ComposedProgram::new(&g, &SyncExecutor, ExecutorConfig::default());
//! let ids = composed
//!     .measured(PhaseSpec::named("identify"), (0..3).map(|_| Noop).collect::<Vec<_>>())
//!     .unwrap();
//! assert_eq!(ids.outputs, vec![0, 1, 2]);
//! composed.charged(PhaseSpec::named("table lookup").with_formula(5), 1, 6);
//! let report = composed.finish();
//! assert_eq!(report.phases.len(), 2);
//! assert_eq!(report.ledger.total_formula_rounds(), 1 + 5);
//! ```

use crate::engine::{ExecutionError, Executor, ExecutorConfig, RunReport};
use crate::ledger::RoundLedger;
use crate::program::NodeProgram;
use crate::Graph;

/// Name and optional closed-form round bound of one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Phase name, used as the [`RoundLedger`] entry.
    pub name: String,
    /// The paper's closed-form round bound for the phase, if one is stated;
    /// recorded as the ledger's "paper" column next to the measured or
    /// simulated cost.
    pub formula_rounds: Option<u64>,
}

impl PhaseSpec {
    /// A spec with the given name and no closed-form bound.
    pub fn named(name: impl Into<String>) -> Self {
        PhaseSpec {
            name: name.into(),
            formula_rounds: None,
        }
    }

    /// Attaches the paper's closed-form round bound.
    pub fn with_formula(mut self, formula_rounds: u64) -> Self {
        self.formula_rounds = Some(formula_rounds);
        self
    }
}

/// How one executed phase was accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseMode {
    /// The phase ran as node programs on the engine; its round count is real.
    Measured,
    /// The phase was simulated centrally and charged to the ledger.
    Charged,
}

/// Cost summary of one completed phase of a [`ComposedProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseOutcome {
    /// The phase name.
    pub name: String,
    /// Whether the cost was measured on the engine or charged centrally.
    pub mode: PhaseMode,
    /// Rounds spent (measured or simulated).
    pub rounds: u64,
    /// Messages sent (measured or simulated).
    pub messages: u64,
    /// Wall-clock time spent inside [`crate::engine::Executor::run`] for
    /// measured phases, in nanoseconds; `0` for charged phases (their central
    /// simulation happens outside the composer). Host-dependent — excluded
    /// from golden trajectories and only compared as a trend, never exactly.
    pub wall_nanos: u64,
}

/// Everything a finished composition reports: the unified ledger and the
/// per-phase execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionReport {
    /// The unified accounting stream (measured and charged phases interleaved
    /// in execution order).
    pub ledger: RoundLedger,
    /// Per-phase summaries, in execution order.
    pub phases: Vec<PhaseOutcome>,
}

/// Total rounds across the phases of a trace that actually ran on the engine
/// — the one definition of "measured rounds", shared by
/// [`CompositionReport::measured_rounds`] and downstream result types that
/// retain a phase trace.
pub fn measured_rounds(phases: &[PhaseOutcome]) -> u64 {
    phases
        .iter()
        .filter(|p| p.mode == PhaseMode::Measured)
        .map(|p| p.rounds)
        .sum()
}

impl CompositionReport {
    /// Total rounds across phases that actually ran on the engine.
    pub fn measured_rounds(&self) -> u64 {
        measured_rounds(&self.phases)
    }

    /// Number of phases that ran on the engine.
    pub fn measured_phase_count(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| p.mode == PhaseMode::Measured)
            .count()
    }
}

/// Sequences heterogeneous [`NodeProgram`]s (and charged central steps) as
/// one multi-phase algorithm run: one graph, one executor, one accounting
/// stream. See the module documentation for the full story.
#[derive(Debug)]
pub struct ComposedProgram<'a, E: Executor> {
    graph: &'a Graph,
    executor: &'a E,
    config: ExecutorConfig,
    ledger: RoundLedger,
    phases: Vec<PhaseOutcome>,
}

impl<'a, E: Executor> ComposedProgram<'a, E> {
    /// Creates a composition over `graph` driven by `executor`; every
    /// measured phase runs under `config`.
    ///
    /// Eagerly builds the graph's shared `crate::topology` routing tables,
    /// so every measured phase (and any later run on the same graph) reuses
    /// one `O(m log Δ)` setup *and* the build cost is attributed to
    /// composition setup rather than to the first phase's wall time.
    pub fn new(graph: &'a Graph, executor: &'a E, config: ExecutorConfig) -> Self {
        graph.warm_topology();
        ComposedProgram {
            graph,
            executor,
            config,
            ledger: RoundLedger::new(),
            phases: Vec::new(),
        }
    }

    /// The ledger accumulated so far.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Runs `programs` on the engine as one measured phase: the resulting
    /// [`RunReport`] is charged to the unified ledger (against
    /// `spec.formula_rounds` when given) and summarized in the phase trace.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (these indicate a bug in the programs, not a
    /// property of the input).
    pub fn measured<P>(
        &mut self,
        spec: PhaseSpec,
        programs: Vec<P>,
    ) -> Result<RunReport<P::Output>, ExecutionError>
    where
        P: NodeProgram + Send,
        P::Message: Send + Sync,
        P::Output: Send,
    {
        let started = std::time::Instant::now();
        let report = self.executor.run(self.graph, programs, &self.config)?;
        let wall_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match spec.formula_rounds {
            Some(f) => report.charge_with_formula(&mut self.ledger, &spec.name, f),
            None => report.charge(&mut self.ledger, &spec.name),
        }
        self.phases.push(PhaseOutcome {
            name: spec.name,
            mode: PhaseMode::Measured,
            rounds: report.rounds,
            messages: report.messages,
            wall_nanos,
        });
        Ok(report)
    }

    /// Records a centrally simulated phase: `simulated_rounds`/`messages` are
    /// charged to the ledger (against `spec.formula_rounds` when given).
    pub fn charged(&mut self, spec: PhaseSpec, simulated_rounds: u64, messages: u64) {
        match spec.formula_rounds {
            Some(f) => self
                .ledger
                .charge_with_formula(&spec.name, simulated_rounds, f, messages),
            None => self.ledger.charge(&spec.name, simulated_rounds, messages),
        }
        self.phases.push(PhaseOutcome {
            name: spec.name,
            mode: PhaseMode::Charged,
            rounds: simulated_rounds,
            messages,
            wall_nanos: 0,
        });
    }

    /// Absorbs a sub-ledger produced by a helper (e.g. a decomposition or
    /// coloring construction) as charged phases, preserving its entries.
    pub fn absorb(&mut self, ledger: RoundLedger) {
        for phase in ledger.phases() {
            self.phases.push(PhaseOutcome {
                name: phase.name.clone(),
                mode: PhaseMode::Charged,
                rounds: phase.simulated_rounds,
                messages: phase.messages,
                wall_nanos: 0,
            });
        }
        self.ledger.absorb(ledger);
    }

    /// Finishes the composition, yielding the unified ledger and phase trace.
    pub fn finish(self) -> CompositionReport {
        CompositionReport {
            ledger: self.ledger,
            phases: self.phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Inbox, NodeContext, Outbox, RoundAction};
    use crate::{NodeId, SyncExecutor};

    /// Broadcasts the node id once and halts with the smallest id heard.
    struct OneShotMin {
        best: usize,
    }

    impl NodeProgram for OneShotMin {
        type Message = NodeId;
        type Output = usize;

        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, NodeId>) {
            self.best = ctx.id.0;
            outbox.broadcast(ctx.id);
        }

        fn round(
            &mut self,
            _: &NodeContext<'_>,
            inbox: &Inbox<'_, NodeId>,
            _: &mut Outbox<'_, NodeId>,
        ) -> RoundAction<usize> {
            for (_, m) in inbox.iter() {
                self.best = self.best.min(m.0);
            }
            RoundAction::Halt(self.best)
        }
    }

    /// Echoes a preloaded f64 to all neighbors and halts with the sum heard —
    /// a second, message-type-heterogeneous phase.
    struct SumFloats {
        value: f64,
        sum: f64,
    }

    impl NodeProgram for SumFloats {
        type Message = f64;
        type Output = f64;

        fn init(&mut self, _: &NodeContext<'_>, outbox: &mut Outbox<'_, f64>) {
            outbox.broadcast(self.value);
        }

        fn round(
            &mut self,
            _: &NodeContext<'_>,
            inbox: &Inbox<'_, f64>,
            _: &mut Outbox<'_, f64>,
        ) -> RoundAction<f64> {
            self.sum = self.value + inbox.iter().map(|(_, m)| *m).sum::<f64>();
            RoundAction::Halt(self.sum)
        }
    }

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn heterogeneous_phases_share_one_ledger_and_carry_state() {
        let g = path(4);
        let mut composed = ComposedProgram::new(&g, &SyncExecutor, ExecutorConfig::default());

        // Phase 1: integer messages.
        let mins = composed
            .measured(
                PhaseSpec::named("min ids").with_formula(1),
                (0..4).map(|_| OneShotMin { best: 0 }).collect::<Vec<_>>(),
            )
            .unwrap();

        // Charged interlude.
        composed.charged(PhaseSpec::named("central table").with_formula(7), 2, 9);

        // Phase 2: float messages parameterized by phase-1 outputs.
        let sums = composed
            .measured(
                PhaseSpec::named("neighborhood sums"),
                mins.outputs
                    .iter()
                    .map(|&b| SumFloats {
                        value: b as f64 + 1.0,
                        sum: 0.0,
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert_eq!(sums.outputs.len(), 4);

        let report = composed.finish();
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.phases[0].mode, PhaseMode::Measured);
        assert_eq!(report.phases[1].mode, PhaseMode::Charged);
        assert_eq!(report.measured_phase_count(), 2);
        assert_eq!(report.measured_rounds(), mins.rounds + sums.rounds);
        // Ledger: measured 1 + charged 2 + measured 1 simulated rounds; the
        // paper view swaps in the formulas where recorded.
        assert_eq!(report.ledger.total_simulated_rounds(), 1 + 2 + 1);
        assert_eq!(report.ledger.total_formula_rounds(), 1 + 7 + 1);
        assert_eq!(report.ledger.phases()[1].name, "central table");
    }

    #[test]
    fn absorb_preserves_sub_ledger_entries_as_charged_phases() {
        let g = path(2);
        let mut composed = ComposedProgram::new(&g, &SyncExecutor, ExecutorConfig::default());
        let mut sub = RoundLedger::new();
        sub.charge_with_formula("decomposition", 11, 40, 5);
        sub.charge("coloring", 3, 6);
        composed.absorb(sub);
        let report = composed.finish();
        assert_eq!(report.phases.len(), 2);
        assert!(report.phases.iter().all(|p| p.mode == PhaseMode::Charged));
        assert_eq!(report.ledger.total_simulated_rounds(), 14);
        assert_eq!(report.ledger.total_formula_rounds(), 43);
    }

    #[test]
    fn engine_errors_propagate_out_of_measured_phases() {
        let g = path(3);
        let mut composed = ComposedProgram::new(&g, &SyncExecutor, ExecutorConfig::default());
        // Wrong program count.
        let err = composed
            .measured(
                PhaseSpec::named("broken"),
                vec![OneShotMin { best: 0 }], // 1 program for 3 nodes
            )
            .unwrap_err();
        assert!(matches!(err, ExecutionError::ProgramCountMismatch { .. }));
        // The failed phase is not recorded.
        assert!(composed.finish().phases.is_empty());
    }
}

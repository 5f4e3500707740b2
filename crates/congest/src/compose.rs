//! Program composition: sequencing heterogeneous [`NodeProgram`]s as the
//! *phases* of one distributed algorithm.
//!
//! The paper's main algorithms are pipelines: a fractional solver feeds a
//! doubling loop feeds a one-shot rounding, with derandomization schedules
//! in between. Each stage is a different node program with its own message
//! type, so no single [`crate::engine::Executor::run`] call can drive the
//! whole pipeline. A [`ComposedProgram`] closes that gap: it owns the graph,
//! the executor and one [`RoundLedger`], and [`ComposedProgram::measured`]
//! runs each phase's node programs on the engine under the default
//! [`ExecutorConfig`] and records the run as one
//! measured [`crate::PhaseCost`] stamped with its engine wall time, in
//! execution order. Every record of a composed ledger is therefore an engine
//! run. Typed state flows between phases as ordinary Rust values — the
//! outputs of one phase parameterize the node programs of the next; central
//! steps between phases (planning, assembly) are plain code and have no
//! ledger record.
//!
//! ```
//! use congest_sim::{ComposedProgram, PhaseKind, PhaseMode, PhaseSpec};
//! use congest_sim::{Graph, SyncExecutor};
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
//! let mut composed = ComposedProgram::new(&g, &SyncExecutor);
//! let ids = composed
//!     .measured(
//!         PhaseSpec::new(PhaseKind::Other, "identify"),
//!         (0..3).map(|_| Noop).collect::<Vec<_>>(),
//!     )
//!     .unwrap();
//! assert_eq!(ids.outputs, vec![0, 1, 2]);
//! let ledger = composed.finish();
//! assert_eq!(ledger.phases()[0].mode, PhaseMode::Measured);
//! assert_eq!(ledger.measured_rounds(None), ids.rounds);
//! ```

use crate::engine::{ExecutionError, Executor, ExecutorConfig, RunReport};
use crate::ledger::{PhaseSpec, RoundLedger};
use crate::program::NodeProgram;
use crate::Graph;

/// Sequences heterogeneous [`NodeProgram`]s as one multi-phase algorithm
/// run: one graph, one executor, one ledger of measured phases. See the
/// module documentation for the full story.
#[derive(Debug)]
pub struct ComposedProgram<'a, E: Executor> {
    graph: &'a Graph,
    executor: &'a E,
    ledger: RoundLedger,
}

impl<'a, E: Executor> ComposedProgram<'a, E> {
    /// Creates a composition over `graph` driven by `executor`; every
    /// measured phase runs under [`ExecutorConfig::default`].
    ///
    /// Eagerly builds the graph's shared `crate::topology` routing table,
    /// so every measured phase (and any later run on the same graph) reuses
    /// one `O(m log Δ)` setup *and* the build cost is attributed to
    /// composition setup rather than to the first phase's wall time.
    pub fn new(graph: &'a Graph, executor: &'a E) -> Self {
        graph.warm_topology();
        ComposedProgram {
            graph,
            executor,
            ledger: RoundLedger::new(),
        }
    }

    /// The ledger accumulated so far.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Runs `programs` on the engine as one measured phase: the resulting
    /// [`RunReport`] is recorded in the ledger under `spec`, stamped with the
    /// wall time spent inside [`Executor::run`].
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
        let report = self
            .executor
            .run(self.graph, programs, &ExecutorConfig::default())?;
        let wall_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ledger.phases.push(report.cost(spec, wall_nanos));
        Ok(report)
    }

    /// Finishes the composition, yielding the ledger.
    pub fn finish(self) -> RoundLedger {
        self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{PhaseKind, PhaseMode};
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

    fn spec(name: &str) -> PhaseSpec {
        PhaseSpec::new(PhaseKind::Other, name)
    }

    #[test]
    fn heterogeneous_phases_share_one_ledger_and_carry_state() {
        let g = path(4);
        let mut composed = ComposedProgram::new(&g, &SyncExecutor);

        // Phase 1: integer messages.
        let mins = composed
            .measured(
                spec("min ids").with_formula(1),
                (0..4).map(|_| OneShotMin { best: 0 }).collect::<Vec<_>>(),
            )
            .unwrap();

        // Phase 2: float messages parameterized by phase-1 outputs.
        let sums = composed
            .measured(
                spec("neighborhood sums"),
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

        let ledger = composed.finish();
        let modes: Vec<_> = ledger.phases().iter().map(|p| p.mode).collect();
        assert_eq!(modes, [PhaseMode::Measured, PhaseMode::Measured]);
        assert_eq!(ledger.measured_rounds(None), mins.rounds + sums.rounds);
        // Ledger: measured 1 + measured 1 simulated rounds; the paper view
        // swaps in the formula where recorded.
        assert_eq!(ledger.total_simulated_rounds(), 1 + 1);
        assert_eq!(ledger.total_formula_rounds(), 1 + 1);
        assert_eq!(ledger.phases()[1].name, "neighborhood sums");
    }

    #[test]
    fn engine_errors_propagate_out_of_measured_phases() {
        let g = path(3);
        let mut composed = ComposedProgram::new(&g, &SyncExecutor);
        // Wrong program count.
        let err = composed
            .measured(
                spec("broken"),
                vec![OneShotMin { best: 0 }], // 1 program for 3 nodes
            )
            .unwrap_err();
        assert!(matches!(err, ExecutionError::ProgramCountMismatch { .. }));
        // The failed phase is not recorded.
        assert!(composed.finish().phases().is_empty());
    }
}

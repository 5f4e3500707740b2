//! The greedy `(1 + ln(Δ+1))`-approximation \[Joh74\], in two guises.
//!
//! [`greedy_mds`] is the classic centralized baseline: repeatedly add the
//! node covering the most still-uncovered nodes. Its approximation factor is
//! what the paper's distributed algorithms match up to a `(1+ε)` factor, and
//! it doubles as a cheap upper bound for the exact solver and experiments.
//!
//! [`distributed_greedy_mds`] runs the same charging argument as a genuine
//! CONGEST [`NodeProgram`] on the execution engine: in each four-round phase
//! every node learns its neighbors' covered bits, exchanges *spans* (number
//! of uncovered nodes in the closed neighborhood), computes the span maximum
//! over its distance-two neighborhood, and the unique local maxima join the
//! dominating set. Because a selected node's span dominates every node that
//! could cover one of its newly covered elements, the classical `H(Δ+1)`
//! analysis applies phase by phase — and the round count is *measured*
//! against [`congest_sim::ledger::formulas::greedy_span_rounds`] instead of
//! only charged.

use congest_sim::{
    ExecutionError, Executor, ExecutorConfig, Graph, Inbox, MessageSize, NodeContext, NodeId,
    NodeProgram, Outbox, RoundAction, RunReport, SyncExecutor, Wire,
};

/// Result of the greedy algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyResult {
    /// The dominating set, in the order the nodes were picked.
    pub set: Vec<NodeId>,
}

impl GreedyResult {
    /// Size of the dominating set.
    pub fn size(&self) -> usize {
        self.set.len()
    }
}

/// Runs the greedy MDS algorithm. Ties are broken towards smaller identifiers,
/// so the output is deterministic.
pub fn greedy_mds(graph: &Graph) -> GreedyResult {
    let n = graph.n();
    let mut covered = vec![false; n];
    let mut uncovered = n;
    let mut gain: Vec<usize> = graph.nodes().map(|v| graph.inclusive_degree(v)).collect();
    let mut set = Vec::new();
    while uncovered > 0 {
        // Pick the node with the largest number of uncovered nodes in its
        // inclusive neighborhood.
        let best = graph
            .nodes()
            .max_by(|&a, &b| gain[a.0].cmp(&gain[b.0]).then(b.cmp(&a)))
            .expect("nonempty graph");
        debug_assert!(gain[best.0] > 0, "greedy stalled with uncovered nodes");
        set.push(best);
        for u in graph.inclusive_neighbors(best) {
            if !covered[u.0] {
                covered[u.0] = true;
                uncovered -= 1;
                // Every node that could have covered u loses one unit of gain.
                for w in graph.inclusive_neighbors(u) {
                    gain[w.0] -= 1;
                }
            }
        }
    }
    GreedyResult { set }
}

/// Messages of the distributed span-greedy. All payloads are `O(log n)` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreedyMessage {
    /// The sender's covered bit (start-of-phase synchronization).
    Covered(bool),
    /// The sender's span: uncovered nodes in its closed neighborhood.
    Span(u64),
    /// The best `(span, id)` pair in the sender's closed neighborhood.
    Best {
        /// The maximal span.
        span: u64,
        /// Identifier attaining it (ties towards smaller ids).
        id: u64,
    },
    /// The sender joined the dominating set this phase.
    Joined,
}

impl MessageSize for GreedyMessage {
    fn size_bits(&self) -> usize {
        use congest_sim::message::bit_width;
        // Two tag bits plus the log-sized payloads.
        match self {
            GreedyMessage::Covered(_) => 3,
            GreedyMessage::Span(s) => 2 + bit_width(*s),
            GreedyMessage::Best { span, id } => 2 + bit_width(*span) + bit_width(*id),
            GreedyMessage::Joined => 2,
        }
    }
}

impl Wire for GreedyMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GreedyMessage::Covered(c) => {
                out.push(0);
                c.encode(out);
            }
            GreedyMessage::Span(s) => {
                out.push(1);
                s.encode(out);
            }
            GreedyMessage::Best { span, id } => {
                out.push(2);
                span.encode(out);
                id.encode(out);
            }
            GreedyMessage::Joined => out.push(3),
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => GreedyMessage::Covered(bool::decode(buf, pos)?),
            1 => GreedyMessage::Span(u64::decode(buf, pos)?),
            2 => GreedyMessage::Best {
                span: u64::decode(buf, pos)?,
                id: u64::decode(buf, pos)?,
            },
            3 => GreedyMessage::Joined,
            _ => return None,
        })
    }
}

/// Local output of [`GreedySpanProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedyNodeOutput {
    /// Whether the node joined the dominating set.
    pub in_set: bool,
    /// Number of complete selection phases the node observed before halting.
    pub phases: u64,
}

impl Wire for GreedyNodeOutput {
    fn encode(&self, out: &mut Vec<u8>) {
        self.in_set.encode(out);
        self.phases.encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(GreedyNodeOutput {
            in_set: bool::decode(buf, pos)?,
            phases: u64::decode(buf, pos)?,
        })
    }
}

/// Per-node state machine of the distributed greedy (one selection phase per
/// four engine rounds).
#[derive(Debug, Clone)]
pub struct GreedySpanProgram {
    covered: bool,
    in_set: bool,
    span: u64,
    best_span: u64,
    best_id: u64,
    neighbor_covered: Vec<bool>,
    phase: u64,
}

impl GreedySpanProgram {
    /// Creates the initial (uncovered) state.
    pub fn new() -> Self {
        GreedySpanProgram {
            covered: false,
            in_set: false,
            span: 0,
            best_span: 0,
            best_id: 0,
            neighbor_covered: Vec::new(),
            phase: 0,
        }
    }

    /// `(span, id)` ordering: larger span wins, ties go to the smaller id.
    fn improves(span: u64, id: u64, best_span: u64, best_id: u64) -> bool {
        span > best_span || (span == best_span && id < best_id)
    }
}

impl Default for GreedySpanProgram {
    fn default() -> Self {
        GreedySpanProgram::new()
    }
}

impl NodeProgram for GreedySpanProgram {
    type Message = GreedyMessage;
    type Output = GreedyNodeOutput;

    fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, GreedyMessage>) {
        self.neighbor_covered = vec![false; ctx.degree()];
        outbox.broadcast(GreedyMessage::Covered(false));
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, GreedyMessage>,
        outbox: &mut Outbox<'_, GreedyMessage>,
    ) -> RoundAction<GreedyNodeOutput> {
        let id = ctx.id.0 as u64;
        match (ctx.round - 1) % 4 {
            // Phase start: learn neighbors' covered bits, compute the span.
            // A halted neighbor stays covered forever, so its cached bit
            // remains valid even though it no longer sends.
            0 => {
                for (idx, (_, msg)) in inbox.iter_slots().enumerate() {
                    if let Some(GreedyMessage::Covered(c)) = msg {
                        self.neighbor_covered[idx] = *c;
                    }
                }
                self.span = u64::from(!self.covered)
                    + self.neighbor_covered.iter().filter(|&&c| !c).count() as u64;
                if self.span == 0 {
                    // The whole closed neighborhood is covered: this node can
                    // never join again and nobody needs its span.
                    return RoundAction::Halt(GreedyNodeOutput {
                        in_set: self.in_set,
                        phases: self.phase,
                    });
                }
                outbox.broadcast(GreedyMessage::Span(self.span));
                RoundAction::Continue
            }
            // Distance-one maximum of (span, id).
            1 => {
                self.best_span = self.span;
                self.best_id = id;
                for (u, msg) in inbox.iter() {
                    if let GreedyMessage::Span(s) = msg {
                        if Self::improves(*s, u.0 as u64, self.best_span, self.best_id) {
                            self.best_span = *s;
                            self.best_id = u.0 as u64;
                        }
                    }
                }
                outbox.broadcast(GreedyMessage::Best {
                    span: self.best_span,
                    id: self.best_id,
                });
                RoundAction::Continue
            }
            // Distance-two maximum; unique local maxima join the set.
            2 => {
                let (mut m2_span, mut m2_id) = (self.best_span, self.best_id);
                for (_, msg) in inbox.iter() {
                    if let GreedyMessage::Best { span, id } = msg {
                        if Self::improves(*span, *id, m2_span, m2_id) {
                            m2_span = *span;
                            m2_id = *id;
                        }
                    }
                }
                if m2_span == self.span && m2_id == id {
                    self.in_set = true;
                    self.covered = true;
                    outbox.broadcast(GreedyMessage::Joined);
                }
                RoundAction::Continue
            }
            // Joiners announced themselves; everyone updates coverage.
            _ => {
                for (idx, (_, msg)) in inbox.iter_slots().enumerate() {
                    if let Some(GreedyMessage::Joined) = msg {
                        self.neighbor_covered[idx] = true;
                        self.covered = true;
                    }
                }
                self.phase += 1;
                outbox.broadcast(GreedyMessage::Covered(self.covered));
                RoundAction::Continue
            }
        }
    }
}

/// Result of the distributed greedy run.
#[derive(Debug, Clone)]
pub struct DistributedGreedyResult {
    /// The dominating set, in increasing node order.
    pub set: Vec<NodeId>,
    /// The engine report (rounds, messages, per-round stats).
    pub report: RunReport<GreedyNodeOutput>,
    /// Number of selection phases until global quiescence.
    pub phases: u64,
}

impl DistributedGreedyResult {
    /// Size of the dominating set.
    pub fn size(&self) -> usize {
        self.set.len()
    }
}

/// Runs the distributed span-greedy on the sequential executor.
///
/// # Errors
///
/// Propagates engine errors (these indicate a bug in the program, not a
/// property of the input).
pub fn distributed_greedy_mds(graph: &Graph) -> Result<DistributedGreedyResult, ExecutionError> {
    distributed_greedy_on(graph, &SyncExecutor, &ExecutorConfig::default())
}

/// Runs the distributed span-greedy on an arbitrary [`Executor`]. Outputs and
/// reports are identical across executors.
///
/// # Errors
///
/// Propagates engine errors (these indicate a bug in the program, not a
/// property of the input).
pub fn distributed_greedy_on<E: Executor>(
    graph: &Graph,
    executor: &E,
    config: &ExecutorConfig,
) -> Result<DistributedGreedyResult, ExecutionError> {
    let programs: Vec<_> = (0..graph.n()).map(|_| GreedySpanProgram::new()).collect();
    let report = executor.run(graph, programs, config)?;
    let set: Vec<NodeId> = report
        .outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| o.in_set)
        .map(|(v, _)| NodeId(v))
        .collect();
    let phases = report.outputs.iter().map(|o| o.phases).max().unwrap_or(0);
    Ok(DistributedGreedyResult {
        set,
        report,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_dominating_set;
    use congest_sim::ledger::formulas;
    use mds_graphs::generators;

    #[test]
    fn star_greedy_is_optimal() {
        let g = generators::star(20);
        let r = greedy_mds(&g);
        assert_eq!(r.size(), 1);
        assert_eq!(r.set, vec![NodeId(0)]);
    }

    #[test]
    fn path_greedy_close_to_optimal() {
        let g = generators::path(9);
        let r = greedy_mds(&g);
        assert!(is_dominating_set(&g, &r.set));
        // Optimal is 3 for P9; greedy should be 3 or 4.
        assert!(r.size() <= 4);
    }

    #[test]
    fn greedy_output_is_always_dominating() {
        for seed in 0..5 {
            let g = generators::gnp(70, 0.08, seed);
            let r = greedy_mds(&g);
            assert!(is_dominating_set(&g, &r.set));
        }
        let g = generators::caterpillar(8, 3);
        let r = greedy_mds(&g);
        assert!(is_dominating_set(&g, &r.set));
    }

    #[test]
    fn caterpillar_greedy_picks_the_spine() {
        let g = generators::caterpillar(6, 4);
        let r = greedy_mds(&g);
        // The spine of 6 nodes is optimal; greedy finds exactly it.
        assert_eq!(r.size(), 6);
    }

    #[test]
    fn empty_graph_gives_empty_set() {
        let g = congest_sim::Graph::empty(0);
        assert_eq!(greedy_mds(&g).size(), 0);
    }

    #[test]
    fn isolated_nodes_are_all_selected() {
        let g = congest_sim::Graph::empty(4);
        let r = greedy_mds(&g);
        assert_eq!(r.size(), 4);
    }

    #[test]
    fn distributed_greedy_star_selects_the_center_in_one_phase() {
        let g = generators::star(20);
        let r = distributed_greedy_mds(&g).unwrap();
        assert_eq!(r.set, vec![NodeId(0)]);
        assert_eq!(r.phases, 1);
        // Measured rounds equal the formula exactly: 4 rounds per phase plus
        // the final quiescence round.
        assert_eq!(r.report.rounds, formulas::greedy_span_rounds(1));
    }

    #[test]
    fn distributed_greedy_path_is_optimal_and_matches_round_formula() {
        let g = generators::path(9);
        let r = distributed_greedy_mds(&g).unwrap();
        assert_eq!(r.set, vec![NodeId(1), NodeId(4), NodeId(7)]);
        assert_eq!(r.phases, 3);
        assert_eq!(r.report.rounds, formulas::greedy_span_rounds(3));
    }

    #[test]
    fn distributed_greedy_dominates_and_matches_formula_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::gnp(60, 0.08, seed);
            let r = distributed_greedy_mds(&g).unwrap();
            assert!(is_dominating_set(&g, &r.set));
            assert_eq!(
                r.report.rounds,
                formulas::greedy_span_rounds(r.phases),
                "seed {seed}"
            );
            assert_eq!(r.report.bandwidth_violations, 0);
            // The classical H(Δ̃) charging argument applies to the
            // distance-two-maxima selection rule as well.
            let lb = mds_fractional::lp::dual_lower_bound(&g);
            let guarantee = 1.0 + (g.delta_tilde() as f64).ln();
            assert!(r.size() as f64 <= guarantee * lb.max(1.0) * 1.5 + 1.0);
        }
    }

    #[test]
    fn distributed_greedy_is_identical_on_both_executors() {
        let g = generators::gnp(50, 0.1, 11);
        let seq = distributed_greedy_mds(&g).unwrap();
        let par = distributed_greedy_on(
            &g,
            &congest_sim::PooledExecutor::new(3),
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(seq.report, par.report);
        assert_eq!(seq.set, par.set);
    }

    #[test]
    fn distributed_greedy_isolated_nodes_join_in_one_phase() {
        let g = congest_sim::Graph::empty(4);
        let r = distributed_greedy_mds(&g).unwrap();
        assert_eq!(r.size(), 4);
        assert_eq!(r.report.rounds, formulas::greedy_span_rounds(1));
        let g0 = congest_sim::Graph::empty(0);
        let r0 = distributed_greedy_mds(&g0).unwrap();
        assert_eq!(r0.size(), 0);
        assert_eq!(r0.report.rounds, 0);
    }

    #[test]
    fn greedy_message_sizes_fit_congest() {
        assert!(GreedyMessage::Covered(true).size_bits() <= 3);
        assert!(GreedyMessage::Joined.size_bits() <= 2);
        assert!(
            GreedyMessage::Best {
                span: 1 << 20,
                id: 1 << 20
            }
            .size_bits()
                <= 44
        );
    }

    #[test]
    fn greedy_respects_the_ln_delta_guarantee_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::gnp(50, 0.15, seed);
            let r = greedy_mds(&g);
            let lb = mds_fractional::lp::dual_lower_bound(&g);
            let guarantee = 1.0 + (g.delta_tilde() as f64).ln();
            assert!(
                r.size() as f64 <= guarantee * lb.max(1.0) * 1.5 + 1.0,
                "greedy {} vs bound {}",
                r.size(),
                guarantee * lb
            );
        }
    }
}

//! The strictly local fractional dominating-set algorithm of Kuhn and
//! Wattenhofer (PODC 2003 / Distributed Computing 2005), run as a genuine
//! message-passing [`NodeProgram`] on the CONGEST simulator.
//!
//! The algorithm is parameterized by `k`; it runs `O(k²)` rounds and computes
//! a fractional dominating set whose size is `O(k·Δ̃^{2/k})` times the LP
//! optimum. With `k = Θ(log Δ̃)` this is an `O(log Δ̃)`-approximation. The
//! paper's Lemma 2.1 uses the stronger `(1+ε)` algorithm of \[KMW06\]; this
//! module serves as the *purely local* ablation (experiment E9) and as the
//! workspace's reference implementation of a non-trivial [`NodeProgram`].
//!
//! A final completion round raises the value of any node whose constraint is
//! still uncovered to 1, so the output is always feasible. Every node runs
//! its own [`Kw05Program::new`] on any [`congest_sim::Executor`] and outputs
//! its value; the Lemma 2.1 wrapper and the composed pipeline both read the
//! assignment straight off the run's outputs.

use congest_sim::{Graph, Inbox, MessageSize, NodeContext, NodeProgram, Outbox, RoundAction, Wire};

/// Messages exchanged by [`Kw05Program`]: either the sender's current
/// fractional value or the sender's "my constraint is covered" bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kw05Message {
    /// The sender's current fractional value (a transmittable quantity).
    Value(f64),
    /// Whether the sender's own covering constraint is satisfied.
    Covered(bool),
}

impl MessageSize for Kw05Message {
    fn size_bits(&self) -> usize {
        match self {
            // A transmittable value needs O(log n) bits; we charge one
            // identifier worth of bits plus a tag.
            Kw05Message::Value(_) => 1 + 32,
            Kw05Message::Covered(_) => 2,
        }
    }
}

/// Tag byte plus payload; the `f64` payload rides the bit-exact fixed-width
/// encoding, so values survive transport backends unchanged.
impl Wire for Kw05Message {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Kw05Message::Value(x) => {
                out.push(0);
                x.encode(out);
            }
            Kw05Message::Covered(c) => {
                out.push(1);
                c.encode(out);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => Kw05Message::Value(f64::decode(buf, pos)?),
            1 => Kw05Message::Covered(bool::decode(buf, pos)?),
            _ => return None,
        })
    }
}

/// Per-node state machine of the Kuhn–Wattenhofer algorithm.
#[derive(Debug, Clone)]
pub struct Kw05Program {
    k: usize,
    x: f64,
    covered: bool,
    dynamic_degree: usize,
    neighbor_values: Vec<f64>,
    phase: usize,
}

impl Kw05Program {
    /// Creates the program with locality parameter `k ≥ 1`.
    pub fn new(k: usize) -> Self {
        Kw05Program {
            k: k.max(1),
            x: 0.0,
            covered: false,
            dynamic_degree: 0,
            neighbor_values: Vec::new(),
            phase: 0,
        }
    }

    fn delta_tilde(ctx: &NodeContext<'_>) -> f64 {
        (ctx.max_degree() + 1) as f64
    }

    fn maybe_raise(&mut self, ctx: &NodeContext<'_>) {
        // phase counts completed (value, covered) exchange pairs; decode the
        // (l, m) loop indices it corresponds to.
        let step = self.phase;
        let l = self.k - 1 - step / self.k;
        let m = self.k - 1 - step % self.k;
        let delta_tilde = Self::delta_tilde(ctx);
        let threshold = delta_tilde.powf(l as f64 / self.k as f64);
        if self.dynamic_degree as f64 >= threshold {
            let target = delta_tilde.powf(-((m + 1) as f64) / self.k as f64);
            self.x = self.x.max(target);
        }
    }

    fn coverage(&self) -> f64 {
        self.x + self.neighbor_values.iter().sum::<f64>()
    }
}

impl NodeProgram for Kw05Program {
    type Message = Kw05Message;
    type Output = f64;

    fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, Kw05Message>) {
        self.neighbor_values = vec![0.0; ctx.degree()];
        self.dynamic_degree = ctx.degree() + 1;
        self.maybe_raise(ctx);
        outbox.broadcast(Kw05Message::Value(self.x));
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, Kw05Message>,
        outbox: &mut Outbox<'_, Kw05Message>,
    ) -> RoundAction<f64> {
        // Odd simulator rounds deliver values, even rounds deliver covered
        // bits; the program itself alternates between the two.
        let receiving_values = ctx.round % 2 == 1;
        if receiving_values {
            // Inbox slots align with the CSR neighbor order, so the slot
            // index doubles as the index into `neighbor_values`.
            for (idx, (_, msg)) in inbox.iter_slots().enumerate() {
                if let Some(Kw05Message::Value(v)) = msg {
                    self.neighbor_values[idx] = *v;
                }
            }
            self.covered = self.coverage() >= 1.0 - 1e-9;
            outbox.broadcast(Kw05Message::Covered(self.covered));
            RoundAction::Continue
        } else {
            let mut uncovered = usize::from(!self.covered);
            for (_, msg) in inbox.iter() {
                if let Kw05Message::Covered(c) = msg {
                    if !c {
                        uncovered += 1;
                    }
                }
            }
            self.dynamic_degree = uncovered;
            self.phase += 1;
            if self.phase >= self.k * self.k {
                // Completion: uncovered constraints are fixed by their owner.
                if !self.covered {
                    self.x = 1.0;
                }
                return RoundAction::Halt(self.x);
            }
            self.maybe_raise(ctx);
            outbox.broadcast(Kw05Message::Value(self.x));
            RoundAction::Continue
        }
    }
}

/// The default locality parameter `k = ceil(log2(Δ̃))`, the choice that gives
/// the `O(log Δ)` approximation.
pub fn default_k(graph: &Graph) -> usize {
    ((graph.delta_tilde() as f64).log2().ceil() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfds::FractionalAssignment;
    use congest_sim::ledger::formulas;
    use congest_sim::{Executor, ExecutorConfig, PooledExecutor, RunReport, SyncExecutor};
    use mds_graphs::generators;

    /// Runs one [`Kw05Program`] per node on `executor` and assembles the
    /// node outputs into the fractional assignment.
    fn run_measured<E: Executor>(
        g: &Graph,
        k: usize,
        executor: &E,
    ) -> (FractionalAssignment, RunReport<f64>) {
        let report = executor
            .run(
                g,
                vec![Kw05Program::new(k); g.n()],
                &ExecutorConfig::default(),
            )
            .unwrap();
        (
            FractionalAssignment::from_values(report.outputs.clone()),
            report,
        )
    }

    #[test]
    fn output_is_always_feasible() {
        for seed in 0..3 {
            let g = generators::gnp(60, 0.08, seed);
            let (out, _) = run_measured(&g, default_k(&g), &SyncExecutor);
            assert!(out.is_feasible_dominating_set(&g));
        }
    }

    #[test]
    fn star_output_is_small() {
        let g = generators::star(64);
        let (out, _) = run_measured(&g, default_k(&g), &SyncExecutor);
        assert!(out.is_feasible_dominating_set(&g));
        // The LP optimum is 1; the local algorithm's O(k·Δ̃^{2/k}) guarantee
        // with k = 6 allows roughly 24-48; it must in any case stay far below n.
        assert!(out.size() <= 40.0, "size {}", out.size());
    }

    #[test]
    fn round_complexity_is_quadratic_in_k() {
        let g = generators::cycle(40);
        let k = 3;
        let (_, report) = run_measured(&g, k, &SyncExecutor);
        assert_eq!(report.rounds, (k * k * 2) as u64);
        // The measured round count matches the paper's O(k²) formula exactly.
        assert_eq!(report.rounds, formulas::kw05_rounds(k));
    }

    #[test]
    fn parallel_executor_reproduces_sequential_outcome() {
        let g = generators::gnp(80, 0.06, 7);
        let k = default_k(&g);
        let (seq, seq_report) = run_measured(&g, k, &SyncExecutor);
        let (par, par_report) = run_measured(&g, k, &PooledExecutor::new(4));
        assert_eq!(seq_report, par_report);
        assert_eq!(seq.values(), par.values());
    }

    #[test]
    fn messages_fit_congest_bandwidth() {
        let g = generators::gnp(100, 0.05, 1);
        let (_, report) = run_measured(&g, default_k(&g), &SyncExecutor);
        assert_eq!(report.bandwidth_violations, 0);
    }

    #[test]
    fn k_one_still_produces_feasible_solution() {
        let g = generators::path(10);
        let (out, _) = run_measured(&g, 1, &SyncExecutor);
        assert!(out.is_feasible_dominating_set(&g));
    }

    #[test]
    fn larger_k_does_not_hurt_quality_on_cycles() {
        let g = generators::cycle(60);
        let small = run_measured(&g, 1, &SyncExecutor).0.size();
        let large = run_measured(&g, 4, &SyncExecutor).0.size();
        assert!(large <= small + 1e-9, "k=4 gave {large}, k=1 gave {small}");
    }

    #[test]
    fn message_sizes() {
        assert!(Kw05Message::Value(0.5).size_bits() <= 40);
        assert_eq!(Kw05Message::Covered(true).size_bits(), 2);
    }
}

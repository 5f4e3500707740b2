//! The shard-order fold both sides of a socket session run.
//!
//! This is the same reduce the engine's pooled executor performs (see
//! `congest_sim::pool`): per-shard sub-totals folded **in shard order** —
//! which is node order, because shards are contiguous node blocks — with the
//! lowest shard's error winning. Replicating it verbatim is what makes the
//! socket backend's [`RunReport`] bit-identical to `SyncExecutor`:
//! saturating-`u64` accumulation is associative, `max_message_bits` is a
//! max, and the first error in shard order is the first error in global
//! node order.
//!
//! [`RunReport`]: congest_sim::RunReport

use congest_sim::engine::{Accounting, ExecutionError, ExecutorConfig, RoundStats, RunReport};

/// One shard's sub-totals for one round.
#[derive(Debug, Default)]
pub(crate) struct ShardRound {
    /// Messages/bits/max/violations charged by the shard's commit.
    pub acct: Accounting,
    /// Nodes of the shard that halted this round.
    pub newly_halted: usize,
    /// First error the shard's block produced, in node/send order.
    pub error: Option<ExecutionError>,
}

/// The coordinator's decision after folding one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// At least one node is still live and the round limit permits another
    /// round; `rounds` has been advanced to the upcoming round number.
    Continue,
    /// The run is over: all nodes halted, or `error` is set.
    Stop,
}

/// Run-level totals, folded round by round from per-shard sub-totals.
pub(crate) struct Reducer<'c> {
    config: &'c ExecutorConfig,
    n: usize,
    pub acct: Accounting,
    pub round_stats: Vec<RoundStats>,
    pub halted: usize,
    /// The round whose sub-totals the next [`Reducer::fold_round`] folds
    /// (`0` = init); after a `Continue` verdict it names the upcoming round.
    pub rounds: u64,
    pub error: Option<ExecutionError>,
}

impl<'c> Reducer<'c> {
    pub fn new(config: &'c ExecutorConfig, n: usize) -> Self {
        Reducer {
            config,
            n,
            acct: Accounting::default(),
            round_stats: Vec::new(),
            halted: 0,
            rounds: 0,
            error: None,
        }
    }

    /// Folds the sub-totals of the round that just committed. `cells` must
    /// arrive in shard order (= node order).
    pub fn fold_round(&mut self, cells: impl IntoIterator<Item = ShardRound>) -> Verdict {
        let mut messages = 0u64;
        let mut payloads = 0u64;
        let mut bits = 0u64;
        let mut newly = 0usize;
        let mut error: Option<ExecutionError> = None;
        for rep in cells {
            messages += rep.acct.messages;
            payloads += rep.acct.payloads;
            bits = bits.saturating_add(rep.acct.bits);
            self.acct.max_message_bits = self.acct.max_message_bits.max(rep.acct.max_message_bits);
            self.acct.violations += rep.acct.violations;
            newly += rep.newly_halted;
            if error.is_none() {
                // Lowest shard wins: the first error in global node order.
                error = rep.error;
            }
        }
        if let Some(e) = error {
            self.error = Some(e);
            return Verdict::Stop;
        }
        self.acct.messages = self.acct.messages.saturating_add(messages);
        self.acct.payloads = self.acct.payloads.saturating_add(payloads);
        self.acct.bits = self.acct.bits.saturating_add(bits);
        self.halted += newly;
        if self.config.record_round_stats {
            self.round_stats.push(RoundStats {
                round: self.rounds,
                messages,
                bits,
                halted: self.halted,
            });
        }
        if self.halted == self.n {
            Verdict::Stop
        } else if self.rounds + 1 > self.config.max_rounds {
            self.error = Some(ExecutionError::RoundLimitExceeded {
                limit: self.config.max_rounds,
            });
            Verdict::Stop
        } else {
            self.rounds += 1;
            Verdict::Continue
        }
    }

    /// Finishes the run: the error if one was folded, otherwise the report.
    pub fn into_report<O>(
        self,
        outputs: Vec<O>,
        bandwidth: usize,
    ) -> Result<RunReport<O>, ExecutionError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(RunReport {
            outputs,
            rounds: self.rounds,
            messages: self.acct.messages,
            payloads: self.acct.payloads,
            total_bits: self.acct.bits,
            max_message_bits: self.acct.max_message_bits,
            bandwidth_violations: self.acct.violations,
            bandwidth_bits: bandwidth,
            round_stats: self.round_stats,
        })
    }
}

//! Derandomization via the method of conditional expectations.
//!
//! This module implements the deterministic core shared by Lemma 3.4
//! (derandomization with network decompositions) and Lemma 3.10
//! (derandomization with distance-two colorings): the biased coins of the
//! abstract rounding process are fixed one *group* at a time such that the
//! pessimistic estimator `Σ E[X_v] + Σ Pr(E_v)` never increases. When all
//! coins are fixed the estimator equals the actual output size contribution,
//! so the final dominating set is no larger than the randomized process'
//! expected size bound (Lemma 3.1).
//!
//! The *groups* encode who decides when:
//!
//! * Lemma 3.10: one group per color class of a distance-two coloring; nodes
//!   of the same color have disjoint constraint neighborhoods, so their
//!   decisions do not interact and a class can decide in `O(1)` CONGEST
//!   rounds.
//! * Lemma 3.4: one group per cluster of a 2-hop network decomposition,
//!   ordered by color class; the paper fixes a cluster's decisions one after
//!   the other through the cluster leader, here every member waits only for
//!   the earlier members it shares a constraint with (substitution R3 in
//!   `DESIGN.md`).
//!
//! The caller supplies the groups (and the per-group round cost is accounted
//! by the caller); this module guarantees the size bound regardless of the
//! grouping.
//!
//! Two executions of the same decision rule are provided:
//!
//! * [`derandomize`] — the **central oracle**: fixes the coins group by group
//!   in one loop.
//! * [`ScheduledDerandProgram`] — the **measured** CONGEST execution, built
//!   by [`scheduled_derand_programs`], run by any [`congest_sim::Executor`]
//!   and read back by [`assemble_derand_outputs`]: the groups become the
//!   *steps* of a [`DerandSchedule`], and each step spends exactly two
//!   engine rounds — constraint owners send the two estimator branches
//!   (coin taken / coin zeroed) of each deciding member, the deciders pick
//!   the branch that does not increase the estimator and announce the fixed
//!   coin. Under the Theorem 1.2 route the steps are the distance-two color
//!   classes. The Theorem 1.1 route builds them with
//!   [`DerandSchedule::conflict_order`]: a value decides one step after the
//!   last earlier-ordered value it shares a constraint with, so the cluster
//!   order collapses to its longest conflict chain instead of one coin per
//!   step. Both paths evaluate the same estimator kernel over the same
//!   member order — the oracle through the scalar
//!   [`crate::estimator::member_violation_probability`], the engine through
//!   the batched [`crate::estimator::member_violation_branches`] (both
//!   branches of a decision in one member pass over reusable
//!   [`EstimatorScratch`]) — so the engine output is bit-identical to the
//!   central oracle (proptest-enforced in `tests/properties.rs`).

use crate::estimator::{
    member_violation_branches, CoinState, Estimator, EstimatorKind, EstimatorScratch,
};
use crate::problem::{RoundingProblem, ValueNode};
use crate::process::{execute_with_coins, RoundedOutcome};
use congest_sim::{
    Graph, Inbox, MessageSize, NodeContext, NodeId, NodeProgram, Outbox, RoundAction, Wire,
};
use mds_fractional::FractionalAssignment;

/// Configuration of [`derandomize`].
#[derive(Debug, Clone, Default)]
pub struct DerandomizeConfig {
    /// Estimator used for the conditional expectations.
    pub estimator: EstimatorKind,
    /// Processing groups of value-node indices (color classes or clusters).
    /// `None` processes all participating value nodes in index order as a
    /// single group.
    pub groups: Option<Vec<Vec<usize>>>,
}

/// Result of the derandomized rounding.
#[derive(Debug, Clone)]
pub struct DerandomizedOutcome {
    /// The rounded assignment on the original graph.
    pub output: mds_fractional::FractionalAssignment,
    /// Indices of constraints that ended up violated (their owners joined the
    /// dominating set in phase two).
    pub violated_constraints: Vec<usize>,
    /// Value of the pessimistic estimator before any coin was fixed — the
    /// randomized process' expected-size bound `A' + Σ Pr(E_v)`.
    pub initial_estimate: f64,
    /// Value of the estimator after all coins were fixed.
    pub final_estimate: f64,
    /// The deterministic coin assignment that was chosen.
    pub coins: Vec<CoinState>,
    /// Number of coins that were fixed.
    pub coins_fixed: usize,
}

impl DerandomizedOutcome {
    /// Size of the output assignment.
    pub fn output_size(&self) -> f64 {
        self.output.size()
    }
}

/// Runs the method of conditional expectations on `problem` and executes the
/// rounding process with the chosen coins.
pub fn derandomize(problem: &RoundingProblem, config: &DerandomizeConfig) -> DerandomizedOutcome {
    let estimator = Estimator::new(problem, config.estimator);
    let constraints_of = problem.constraints_of_values();
    let mut coins = vec![CoinState::Undecided; problem.values.len()];
    // Normalise: non-participating nodes never flip a coin.
    for (i, v) in problem.values.iter().enumerate() {
        if !v.participates() {
            coins[i] = CoinState::Zero;
        }
    }

    let initial_estimate = estimator.total(&coins);

    let default_group: Vec<usize>;
    let groups: Vec<&[usize]> = match &config.groups {
        Some(gs) => gs.iter().map(|g| g.as_slice()).collect(),
        None => {
            default_group = problem.participating_values();
            vec![default_group.as_slice()]
        }
    };

    let mut coins_fixed = 0usize;
    for group in groups {
        for &i in group {
            if !problem.values[i].participates() || coins[i] != CoinState::Undecided {
                continue;
            }
            // Local objective: this node's own expected value plus the
            // violation probabilities of the constraints it appears in —
            // exactly the terms influenced by the coin (the paper's N(v),
            // resp. N(C)).
            let local = |coins: &[CoinState]| -> f64 {
                let mut total = estimator.expected_value(i, coins);
                for &ci in &constraints_of[i] {
                    total += estimator.violation_probability(&problem.constraints[ci], coins);
                }
                total
            };
            coins[i] = CoinState::Take;
            let take = local(&coins);
            coins[i] = CoinState::Zero;
            let zero = local(&coins);
            coins[i] = if take < zero {
                CoinState::Take
            } else {
                CoinState::Zero
            };
            coins_fixed += 1;
        }
    }

    let final_estimate = estimator.total(&coins);
    let RoundedOutcome {
        output,
        violated_constraints,
        ..
    } = execute_with_coins(problem, &coins);

    DerandomizedOutcome {
        output,
        violated_constraints,
        initial_estimate,
        final_estimate,
        coins,
        coins_fixed,
    }
}

/// The processing schedule of the distributed conditional expectations: step
/// `t` lists the value nodes that fix their coins during engine rounds
/// `2t+1` / `2t+2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerandSchedule {
    /// Value-node indices per step, in processing order.
    pub steps: Vec<Vec<usize>>,
}

impl DerandSchedule {
    /// The schedule that runs the processing order given by `groups`
    /// (flattened, groups in order) in *conflict order*: every participating
    /// value node decides at step `1 + max(step of earlier-listed values
    /// sharing a constraint with it)`, or at step 0 without such a value.
    /// Non-participating members and repeated listings are dropped.
    ///
    /// A coin decision reads only the coins of values sharing a constraint
    /// with it, so every linear extension of this conflict order — the
    /// sequential [`derandomize`] over `groups` included — fixes the same
    /// coins bit for bit; the schedule is one such extension with as many
    /// steps as the longest conflict chain of the order.
    ///
    /// * Lemma 3.4 (clusters of a network decomposition, in color order):
    ///   instead of one coin per step, which costs `Θ(n)` steps, every value
    ///   waits only for its earlier conflict partners.
    /// * Lemma 3.10 (distance-two color classes): a greedy smallest-free
    ///   coloring gives every value of color `c` a conflict partner of color
    ///   `c − 1`, so the steps are exactly the color classes, and the
    ///   pipeline runs the classes as steps without this constructor.
    pub fn conflict_order(groups: &[Vec<usize>], problem: &RoundingProblem) -> Self {
        let constraints_of = problem.constraints_of_values();
        let mut step_of = vec![usize::MAX; problem.values.len()];
        let mut steps: Vec<Vec<usize>> = Vec::new();
        for &i in groups.iter().flatten() {
            if !problem.values[i].participates() || step_of[i] != usize::MAX {
                continue;
            }
            let mut step = 0;
            for &ci in &constraints_of[i] {
                for &m in &problem.constraints[ci].members {
                    if step_of[m] != usize::MAX {
                        step = step.max(step_of[m] + 1);
                    }
                }
            }
            step_of[i] = step;
            if step == steps.len() {
                steps.push(Vec::new());
            }
            steps[step].push(i);
        }
        DerandSchedule { steps }
    }

    /// Number of steps (each costs two engine rounds).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule fixes no coin at all.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Messages of the distributed conditional-expectation schedule.
///
/// A reply carries the two estimator branches as full 64-bit values and is
/// charged honestly at `2 + 128` bits. That is `O(log n)` in the model sense
/// (the paper transmits conditional expectations rounded to multiples of
/// `n^-10`, i.e. `Θ(log n)` bits each), but it exceeds the simulator's
/// default budget of 16 identifiers, `16·(⌊log₂ n⌋ + 1)` bits, on networks
/// smaller than `n = 2^8 = 256` — the run report counts those as bandwidth
/// violations rather than hiding them behind an undersized charge. A
/// strict-CONGEST deployment would spread the two branches over the step's
/// two rounds or halve the precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DerandMessage {
    /// Owner → deciding member: the estimator value of the owner's constraint
    /// with the member's coin fixed to each branch.
    Reply {
        /// Violation probability if the member takes its coin.
        take: f64,
        /// Violation probability if the member zeroes its coin.
        zero: f64,
    },
    /// Decider → neighbors: the coin was fixed to this branch.
    Announce {
        /// `true` for [`CoinState::Take`], `false` for [`CoinState::Zero`].
        take: bool,
    },
}

impl MessageSize for DerandMessage {
    fn size_bits(&self) -> usize {
        match self {
            DerandMessage::Reply { .. } => 2 + 64 + 64,
            DerandMessage::Announce { .. } => 3,
        }
    }
}

/// Tag byte plus payload. The estimator branches are `f64`s carried by the
/// bit-exact fixed-width encoding — a requirement here, since the
/// conditional-expectation comparisons are exact floating-point comparisons
/// and any rounding in transit would change decisions.
impl Wire for DerandMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DerandMessage::Reply { take, zero } => {
                out.push(0);
                take.encode(out);
                zero.encode(out);
            }
            DerandMessage::Announce { take } => {
                out.push(1);
                take.encode(out);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        Some(match tag {
            0 => DerandMessage::Reply {
                take: f64::decode(buf, pos)?,
                zero: f64::decode(buf, pos)?,
            },
            1 => DerandMessage::Announce {
                take: bool::decode(buf, pos)?,
            },
            _ => return None,
        })
    }
}

/// A member of a constraint, as tracked by the constraint's owner.
#[derive(Debug, Clone)]
struct MemberState {
    /// The member's node id (equal to its value-node index).
    id: usize,
    value: ValueNode,
    /// The schedule step in which the member decides, if it participates.
    step: Option<usize>,
    coin: CoinState,
}

/// A constraint owned by the executing node.
#[derive(Debug, Clone)]
struct OwnedConstraint {
    c: f64,
    members: Vec<MemberState>,
}

impl OwnedConstraint {
    /// The two estimator branches for the member at position `target`,
    /// evaluated in member-list order through the batched kernel — one member
    /// pass for both branches, scratch reused across calls, bit-identical to
    /// the central oracle's scalar evaluation.
    fn branches(
        &self,
        kind: EstimatorKind,
        target: usize,
        scratch: &mut EstimatorScratch,
    ) -> (f64, f64) {
        member_violation_branches(
            kind,
            self.members.iter().map(|m| (&m.value, m.coin)),
            target,
            self.c,
            scratch,
        )
    }

    fn violated(&self) -> bool {
        let coverage: f64 = self.members.iter().map(|m| m.value.realised(m.coin)).sum();
        coverage < self.c - 1e-9
    }
}

/// Local output of [`ScheduledDerandProgram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledDerandOutput {
    /// The node's realised phase-one value.
    pub realised: f64,
    /// Whether one of the node's own constraints ended up violated (the node
    /// then joins the dominating set in phase two).
    pub violated_owner: bool,
}

impl Wire for ScheduledDerandOutput {
    fn encode(&self, out: &mut Vec<u8>) {
        self.realised.encode(out);
        self.violated_owner.encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(ScheduledDerandOutput {
            realised: f64::decode(buf, pos)?,
            violated_owner: bool::decode(buf, pos)?,
        })
    }
}

/// Per-node state machine of the distributed conditional expectations.
///
/// Rounds alternate between *reply* rounds (even engine rounds, including
/// `init`: every constraint owner sends the deciding members of the upcoming
/// step their two estimator branches) and *decide* rounds (odd engine rounds:
/// the deciders aggregate the replies of all constraints they appear in — in
/// constraint order, merging their own constraints at the owner's position —
/// pick the branch that does not increase the estimator, and announce the
/// fixed coin). After `2·steps` rounds every owner knows all member coins,
/// evaluates its constraints, and halts. Build instances with
/// [`scheduled_derand_programs`].
///
/// Between its own rounds of work a node sleeps
/// ([`RoundAction::SleepUntil`]) until the earliest of its decide round
/// `2s + 1` while undecided, the reply round `2t` of its next agenda step
/// `t`, and the final round `2·steps`, unless mail wakes it. Every skipped
/// round would have found an empty inbox and nothing to reply.
#[derive(Debug, Clone)]
pub struct ScheduledDerandProgram {
    estimator: EstimatorKind,
    num_steps: usize,
    value: ValueNode,
    my_step: Option<usize>,
    coin: CoinState,
    owned: Vec<OwnedConstraint>,
    /// `(step, owned-constraint index, member index)` of every other
    /// deciding member, sorted by step: the owner-side reply agenda. A reply
    /// round binary-searches its step range instead of scanning every owned
    /// member, turning the owner's total scheduling work from
    /// `O(members · steps)` into `O(steps · log members + members)`.
    agenda: Vec<(u32, u32, u32)>,
    /// `(member id, owned-constraint index, member index)` sorted by id, for
    /// coin recording and own-branch lookup by binary search.
    member_slots: Vec<(u32, u32, u32)>,
    /// Reusable estimator scratch shared by every branch evaluation this
    /// owner performs — the "per-step scratch" of the batched kernel.
    scratch: EstimatorScratch,
}

impl ScheduledDerandProgram {
    /// Queues the reply messages for the deciders of `step`; the executing
    /// node's own decisions are evaluated locally at decision time instead,
    /// so the agenda does not list them.
    fn send_replies(&mut self, outbox: &mut Outbox<'_, DerandMessage>, step: usize) {
        let lo = self
            .agenda
            .partition_point(|&(s, _, _)| (s as usize) < step);
        let hi = self
            .agenda
            .partition_point(|&(s, _, _)| (s as usize) <= step);
        for idx in lo..hi {
            let (_, ci, mi) = self.agenda[idx];
            let constraint = &self.owned[ci as usize];
            let to = NodeId(constraint.members[mi as usize].id);
            let (take, zero) = constraint.branches(self.estimator, mi as usize, &mut self.scratch);
            outbox.send(to, DerandMessage::Reply { take, zero });
        }
    }

    /// The next round after `round` in which this node has work without
    /// mail: the earliest of its decide round while undecided, the reply
    /// round of its next agenda step, and the final round.
    fn next_wake(&self, round: u64) -> u64 {
        let mut wake = 2 * self.num_steps as u64;
        if let (Some(step), CoinState::Undecided) = (self.my_step, self.coin) {
            wake = wake.min(2 * step as u64 + 1);
        }
        let next = self
            .agenda
            .partition_point(|&(s, _, _)| 2 * u64::from(s) <= round);
        if let Some(&(step, _, _)) = self.agenda.get(next) {
            wake = wake.min(2 * u64::from(step));
        }
        wake
    }

    /// The summed estimator branches of the executing node's own constraints
    /// that contain the node itself, in owned order.
    fn own_branches(&mut self, my_id: usize) -> (f64, f64) {
        let mut take = 0.0f64;
        let mut zero = 0.0f64;
        let lo = self
            .member_slots
            .partition_point(|&(id, _, _)| (id as usize) < my_id);
        for &(id, ci, mi) in &self.member_slots[lo..] {
            if id as usize != my_id {
                break;
            }
            let (t, z) =
                self.owned[ci as usize].branches(self.estimator, mi as usize, &mut self.scratch);
            take += t;
            zero += z;
        }
        (take, zero)
    }

    fn record_coin(&mut self, id: usize, coin: CoinState) {
        let lo = self
            .member_slots
            .partition_point(|&(slot_id, _, _)| (slot_id as usize) < id);
        for idx in lo..self.member_slots.len() {
            let (slot_id, ci, mi) = self.member_slots[idx];
            if slot_id as usize != id {
                break;
            }
            self.owned[ci as usize].members[mi as usize].coin = coin;
        }
    }

    fn finalize(&self) -> ScheduledDerandOutput {
        ScheduledDerandOutput {
            realised: self.value.realised(self.coin),
            violated_owner: self.owned.iter().any(OwnedConstraint::violated),
        }
    }
}

impl NodeProgram for ScheduledDerandProgram {
    type Message = DerandMessage;
    type Output = ScheduledDerandOutput;

    fn init(&mut self, _: &NodeContext<'_>, outbox: &mut Outbox<'_, DerandMessage>) {
        if self.num_steps > 0 {
            self.send_replies(outbox, 0);
        }
    }

    fn round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<'_, DerandMessage>,
        outbox: &mut Outbox<'_, DerandMessage>,
    ) -> RoundAction<ScheduledDerandOutput> {
        if self.num_steps == 0 {
            return RoundAction::Halt(self.finalize());
        }
        let round = ctx.round;
        if round % 2 == 1 {
            // Decide round for step (round - 1) / 2.
            let step = ((round - 1) / 2) as usize;
            if self.my_step == Some(step) {
                // Aggregate the constraint terms in constraint-index order:
                // owners reply in increasing id, and the problem lists every
                // owner's constraints consecutively, so merging the own
                // contribution at the own-id position reproduces the central
                // oracle's summation order exactly.
                let my_id = ctx.id.0;
                let mut take_total = self.value.raised_value();
                let mut zero_total = 0.0f64;
                let mut merged_own = false;
                for (sender, msg) in inbox.iter() {
                    if let DerandMessage::Reply { take, zero } = msg {
                        if !merged_own && sender.0 > my_id {
                            let (t, z) = self.own_branches(my_id);
                            take_total += t;
                            zero_total += z;
                            merged_own = true;
                        }
                        take_total += take;
                        zero_total += zero;
                    }
                }
                if !merged_own {
                    let (t, z) = self.own_branches(my_id);
                    take_total += t;
                    zero_total += z;
                }
                self.coin = if take_total < zero_total {
                    CoinState::Take
                } else {
                    CoinState::Zero
                };
                self.record_coin(my_id, self.coin);
                outbox.broadcast(DerandMessage::Announce {
                    take: self.coin == CoinState::Take,
                });
            }
            RoundAction::SleepUntil(self.next_wake(round))
        } else {
            // Absorb round for step (round / 2) - 1.
            let step = (round / 2) as usize - 1;
            for (sender, msg) in inbox.iter() {
                if let DerandMessage::Announce { take } = msg {
                    let coin = if *take {
                        CoinState::Take
                    } else {
                        CoinState::Zero
                    };
                    self.record_coin(sender.0, coin);
                }
            }
            if step + 1 < self.num_steps {
                self.send_replies(outbox, step + 1);
                RoundAction::SleepUntil(self.next_wake(round))
            } else {
                RoundAction::Halt(self.finalize())
            }
        }
    }
}

/// Validates `problem` against the locality assumptions of the distributed
/// schedule and builds one [`ScheduledDerandProgram`] per node.
///
/// The problem must be *graph-aligned*, which all four rounding
/// instantiations of the pipeline are: one value node per graph node, every
/// constraint's members inside the owner's inclusive neighborhood, and at
/// most one constraint per (owner, member) pair (so a single reply per owner
/// carries the whole estimator delta). The schedule must fix every
/// participating coin exactly once, and the members of one step must not
/// share a constraint — the independence that makes parallel fixing equal to
/// the central sequential rule.
///
/// # Errors
///
/// Returns a description of the violated assumption.
pub fn scheduled_derand_programs(
    graph: &Graph,
    problem: &RoundingProblem,
    schedule: &DerandSchedule,
    estimator: EstimatorKind,
) -> Result<Vec<ScheduledDerandProgram>, String> {
    let n = graph.n();
    if problem.values.len() != n {
        return Err(format!(
            "problem is not graph-aligned: {} values for an {n}-node graph",
            problem.values.len()
        ));
    }
    if n >= u32::MAX as usize || schedule.steps.len() >= u32::MAX as usize {
        // The owner-side agenda and member index compact ids/steps to u32.
        return Err(format!(
            "problem too large for the compact schedule index: {n} nodes, {} steps",
            schedule.steps.len()
        ));
    }
    // Assign steps and check the schedule covers participants exactly once.
    let mut step_of: Vec<Option<usize>> = vec![None; n];
    for (s, step) in schedule.steps.iter().enumerate() {
        for &i in step {
            if i >= n {
                return Err(format!("scheduled value node {i} out of range"));
            }
            if !problem.values[i].participates() {
                return Err(format!("scheduled value node {i} does not flip a coin"));
            }
            if step_of[i].is_some() {
                return Err(format!("value node {i} scheduled twice"));
            }
            step_of[i] = Some(s);
        }
    }
    for (i, v) in problem.values.iter().enumerate() {
        if v.participates() && step_of[i].is_none() {
            return Err(format!("participating value node {i} never scheduled"));
        }
    }

    // Locality + (owner, member) uniqueness + same-step independence. Both
    // checks are one compare per member: `owner_of_member[m]` is the last
    // owner with an earlier constraint containing `m` (owners come in
    // increasing order, so the marks never need a reset), and
    // `constraint_of_step[s]` is the last constraint with a member deciding
    // in step `s`.
    let mut owned: Vec<Vec<OwnedConstraint>> = vec![Vec::new(); n];
    let mut owner_of_member = vec![usize::MAX; n];
    let mut constraint_of_step = vec![usize::MAX; schedule.steps.len()];
    for (ci, c) in problem.constraints.iter().enumerate() {
        if c.original >= n {
            return Err(format!("constraint {ci} owner out of range"));
        }
        if ci > 0 && c.original < problem.constraints[ci - 1].original {
            // The deciders aggregate replies in owner order; the central
            // oracle aggregates in constraint order. The two only coincide
            // when constraints are grouped by owner in increasing order.
            return Err(format!(
                "constraint {ci} breaks the increasing-owner grouping required by the schedule"
            ));
        }
        let owner = NodeId(c.original);
        let mut members = Vec::with_capacity(c.members.len());
        for &m in &c.members {
            if m != owner.0 && !graph.has_edge(owner, NodeId(m)) {
                return Err(format!(
                    "constraint {ci}: member {m} is not in the inclusive neighborhood of owner {owner}"
                ));
            }
            if owner_of_member[m] == owner.0 {
                return Err(format!(
                    "owner {owner} has several constraints containing member {m}"
                ));
            }
            if let Some(s) = step_of[m] {
                if constraint_of_step[s] == ci {
                    return Err(format!(
                        "constraint {ci}: two members decide in step {s}; steps must be independent"
                    ));
                }
                constraint_of_step[s] = ci;
            }
            members.push(MemberState {
                id: m,
                value: problem.values[m].clone(),
                step: step_of[m],
                coin: if problem.values[m].participates() {
                    CoinState::Undecided
                } else {
                    CoinState::Zero
                },
            });
        }
        for &m in &c.members {
            owner_of_member[m] = owner.0;
        }
        owned[owner.0].push(OwnedConstraint { c: c.c, members });
    }

    let num_steps = schedule.steps.len();
    Ok(owned
        .into_iter()
        .enumerate()
        .map(|(i, owned)| {
            // Owner-side indexes: both are pushed in (constraint, member)
            // order and stable-sorted, so ties preserve the scan order of the
            // unindexed implementation — the estimator sums stay bit-identical.
            let mut agenda: Vec<(u32, u32, u32)> = Vec::new();
            let mut member_slots: Vec<(u32, u32, u32)> = Vec::new();
            for (ci, oc) in owned.iter().enumerate() {
                for (mi, m) in oc.members.iter().enumerate() {
                    member_slots.push((m.id as u32, ci as u32, mi as u32));
                    match m.step {
                        Some(s) if m.id != i => agenda.push((s as u32, ci as u32, mi as u32)),
                        _ => {}
                    }
                }
            }
            agenda.sort_by_key(|&(s, _, _)| s);
            member_slots.sort_by_key(|&(id, _, _)| id);
            // Pre-size the estimator's member pass for the widest constraint
            // this owner holds, so reply rounds never grow the scratch.
            let widest = owned.iter().map(|oc| oc.members.len()).max().unwrap_or(0);
            ScheduledDerandProgram {
                estimator,
                num_steps,
                value: problem.values[i].clone(),
                my_step: step_of[i],
                coin: if problem.values[i].participates() {
                    CoinState::Undecided
                } else {
                    CoinState::Zero
                },
                owned,
                agenda,
                member_slots,
                scratch: EstimatorScratch::pre_sized(widest),
            }
        })
        .collect())
}

/// Assembles the output assignment from the per-node engine outputs, exactly
/// as [`crate::problem::RoundingProblem::assemble_output`] does centrally.
pub fn assemble_derand_outputs(
    outputs: &[ScheduledDerandOutput],
) -> (FractionalAssignment, Vec<usize>) {
    let values: Vec<f64> = outputs
        .iter()
        .map(|o| {
            if o.violated_owner {
                1.0
            } else {
                o.realised.min(1.0)
            }
        })
        .collect();
    let violated: Vec<usize> = outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| o.violated_owner)
        .map(|(v, _)| v)
        .collect();
    (FractionalAssignment::from_values(values), violated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::RoundingProblem;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn random_problem(seed: u64, n: usize) -> RoundingProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = RoundingProblem::new();
        let values: Vec<usize> = (0..n)
            .map(|_| {
                let x: f64 = rng.gen_range(0.05..0.4);
                let prob = (x + rng.gen_range(0.0..0.5)).min(1.0);
                p.add_value(x, prob)
            })
            .collect();
        for orig in 0..n {
            let mut members: Vec<usize> = values
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.3))
                .collect();
            if members.is_empty() {
                members.push(values[orig]);
            }
            let c: f64 = rng.gen_range(0.1..0.9);
            p.add_constraint(orig, c, members);
        }
        p
    }

    #[test]
    fn derandomized_size_never_exceeds_the_expectation_bound() {
        // The central guarantee of Lemmas 3.4/3.10: the deterministic outcome
        // is at most the randomized expectation bound (up to estimator slack,
        // which is zero for the exact estimators used here).
        for seed in 0..10 {
            let problem = random_problem(seed, 20);
            let out = derandomize(&problem, &DerandomizeConfig::default());
            let achieved: f64 = out.violated_constraints.len() as f64
                + problem
                    .values
                    .iter()
                    .zip(out.coins.iter())
                    .map(|(v, &c)| v.realised(c))
                    .sum::<f64>();
            assert!(
                achieved <= out.initial_estimate + 1e-6,
                "seed {seed}: achieved {achieved} > bound {}",
                out.initial_estimate
            );
            assert!(out.final_estimate <= out.initial_estimate + 1e-6);
        }
    }

    #[test]
    fn final_estimate_is_monotone_along_groups() {
        let problem = random_problem(3, 30);
        let participating = problem.participating_values();
        // Split into three arbitrary groups; the guarantee must not depend on
        // the grouping.
        let groups: Vec<Vec<usize>> = participating.chunks(7).map(|c| c.to_vec()).collect();
        let grouped = derandomize(
            &problem,
            &DerandomizeConfig {
                groups: Some(groups),
                ..DerandomizeConfig::default()
            },
        );
        let ungrouped = derandomize(&problem, &DerandomizeConfig::default());
        assert!(grouped.final_estimate <= grouped.initial_estimate + 1e-9);
        assert!(ungrouped.final_estimate <= ungrouped.initial_estimate + 1e-9);
        assert_eq!(grouped.coins_fixed, ungrouped.coins_fixed);
    }

    #[test]
    fn derandomization_beats_the_average_random_run() {
        // On average over seeds, the derandomized size should not exceed the
        // mean randomized size (it is at most the expectation bound).
        let problem = random_problem(5, 25);
        let det = derandomize(&problem, &DerandomizeConfig::default());
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 300;
        let mean: f64 = (0..trials)
            .map(|_| {
                crate::process::execute_with_rng(&problem, &mut rng)
                    .output
                    .size()
            })
            .sum::<f64>()
            / trials as f64;
        assert!(
            det.output_size() <= mean + 0.5,
            "derandomized {} much worse than random mean {mean}",
            det.output_size()
        );
    }

    #[test]
    fn all_participating_coins_get_fixed() {
        let problem = random_problem(8, 15);
        let out = derandomize(&problem, &DerandomizeConfig::default());
        assert_eq!(out.coins_fixed, problem.participating_values().len());
        assert!(out.coins.iter().all(|c| *c != CoinState::Undecided));
    }

    #[test]
    fn problem_without_participants_is_a_noop() {
        let mut problem = RoundingProblem::new();
        let a = problem.add_value(0.4, 1.0);
        problem.add_constraint(a, 0.3, vec![a]);
        let out = derandomize(&problem, &DerandomizeConfig::default());
        assert_eq!(out.coins_fixed, 0);
        assert!(out.violated_constraints.is_empty());
        assert!((out.output_size() - 0.4).abs() < 1e-12);
    }

    // ---- distributed schedule ----

    use crate::one_shot;
    use congest_sim::{Executor, ExecutorConfig, PooledExecutor, RunReport, SyncExecutor};
    use mds_graphs::generators;

    /// Builds the schedule's programs, runs them on `executor` and assembles
    /// the rounded assignment and the violated owners, as the pipeline does.
    fn run_schedule<E: Executor>(
        graph: &Graph,
        problem: &RoundingProblem,
        schedule: &DerandSchedule,
        executor: &E,
    ) -> (
        FractionalAssignment,
        Vec<usize>,
        RunReport<ScheduledDerandOutput>,
    ) {
        let programs =
            scheduled_derand_programs(graph, problem, schedule, EstimatorKind::default()).unwrap();
        let report = executor
            .run(graph, programs, &ExecutorConfig::default())
            .unwrap();
        let (output, violated_owners) = assemble_derand_outputs(&report.outputs);
        (output, violated_owners, report)
    }

    /// A graph-aligned one-shot problem plus a parallel schedule derived from
    /// a greedy distance-two coloring of the constraint/value graph.
    fn one_shot_setup(
        graph: &congest_sim::Graph,
    ) -> (RoundingProblem, DerandSchedule, Vec<Vec<usize>>) {
        let x = mds_fractional::lp::degree_heuristic(graph);
        let problem = one_shot::on_graph(graph, &x);
        // Greedy distance-two coloring over the constraint graph: same-color
        // values never share a constraint.
        let constraints_of = problem.constraints_of_values();
        let participating = problem.participating_values();
        let mut color = vec![usize::MAX; problem.values.len()];
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for &i in &participating {
            let mut forbidden: Vec<usize> = Vec::new();
            for &ci in &constraints_of[i] {
                for &m in &problem.constraints[ci].members {
                    if m != i && color[m] != usize::MAX {
                        forbidden.push(color[m]);
                    }
                }
            }
            let mut c = 0;
            while forbidden.contains(&c) {
                c += 1;
            }
            color[i] = c;
            if c == classes.len() {
                classes.push(Vec::new());
            }
            classes[c].push(i);
        }
        let schedule = DerandSchedule::conflict_order(&classes, &problem);
        (problem, schedule, classes)
    }

    /// Whether values `a` and `b` share a constraint.
    fn conflict(problem: &RoundingProblem, a: usize, b: usize) -> bool {
        problem
            .constraints
            .iter()
            .any(|c| c.members.contains(&a) && c.members.contains(&b))
    }

    #[test]
    fn conflict_order_steps_are_the_longest_conflict_chains() {
        for seed in 0..6 {
            let problem = random_problem(seed, 24);
            // A shuffled processing order split into arbitrary groups.
            let mut order = problem.participating_values();
            order.shuffle(&mut StdRng::seed_from_u64(seed + 100));
            let groups: Vec<Vec<usize>> = order.chunks(5).map(<[usize]>::to_vec).collect();
            let schedule = DerandSchedule::conflict_order(&groups, &problem);
            let position = |v: usize| order.iter().position(|&u| u == v).unwrap();
            let step_of = |v: usize| schedule.steps.iter().position(|s| s.contains(&v));
            let mut scheduled: Vec<usize> = schedule.steps.concat();
            scheduled.sort_unstable();
            assert_eq!(scheduled, problem.participating_values(), "seed {seed}");
            for (s, step) in schedule.steps.iter().enumerate() {
                for &v in step {
                    for &u in &order {
                        if u == v || !conflict(&problem, u, v) {
                            continue;
                        }
                        // Earlier partners decide strictly before, later ones
                        // strictly after: the order's conflict edges are kept.
                        let su = step_of(u).unwrap();
                        if position(u) < position(v) {
                            assert!(su < s, "seed {seed}: {u} before {v}");
                        } else {
                            assert!(su > s, "seed {seed}: {u} after {v}");
                        }
                    }
                    // And no step is wasted: a value past step 0 waits for an
                    // earlier partner of the step just before it.
                    if s > 0 {
                        assert!(schedule.steps[s - 1]
                            .iter()
                            .any(|&u| conflict(&problem, u, v) && position(u) < position(v)));
                    }
                }
            }
            // Any linear extension fixes the coins of the sequential order.
            let sequential = derandomize(
                &problem,
                &DerandomizeConfig {
                    groups: Some(groups),
                    ..DerandomizeConfig::default()
                },
            );
            let by_steps = derandomize(
                &problem,
                &DerandomizeConfig {
                    groups: Some(schedule.steps.clone()),
                    ..DerandomizeConfig::default()
                },
            );
            assert_eq!(sequential.coins, by_steps.coins, "seed {seed}");
        }
    }

    #[test]
    fn conflict_order_of_greedy_color_classes_is_the_class_partition() {
        for seed in 0..5 {
            let graph = generators::gnp(40, 0.12, seed);
            let (_, schedule, classes) = one_shot_setup(&graph);
            assert_eq!(schedule.steps, classes, "seed {seed}");
        }
    }

    #[test]
    fn parallel_schedule_matches_central_oracle_bit_for_bit() {
        for seed in 0..5 {
            let graph = generators::gnp(40, 0.12, seed);
            let (problem, schedule, classes) = one_shot_setup(&graph);
            let central = derandomize(
                &problem,
                &DerandomizeConfig {
                    estimator: EstimatorKind::default(),
                    groups: Some(classes),
                },
            );
            let (output, violated_owners, report) =
                run_schedule(&graph, &problem, &schedule, &SyncExecutor);
            assert_eq!(output.values(), central.output.values(), "seed {seed}");
            assert_eq!(
                violated_owners,
                central
                    .violated_constraints
                    .iter()
                    .map(|&ci| problem.constraints[ci].original)
                    .collect::<Vec<_>>(),
                "seed {seed}"
            );
            // Exactly two rounds per schedule step, as the formula states.
            assert_eq!(
                report.rounds,
                congest_sim::ledger::formulas::derandomization_schedule_rounds(
                    schedule.len() as u64
                ),
                "seed {seed}"
            );
            // A reply carries two 64-bit estimator branches, charged
            // honestly; at n = 40 that exceeds the 16-identifier default
            // budget, and the report records (not hides) the violations.
            assert_eq!(report.max_message_bits, 2 + 128, "seed {seed}");
            assert!(report.bandwidth_violations > 0, "seed {seed}");
        }
    }

    #[test]
    fn sequential_schedule_matches_central_oracle_and_parallel_output() {
        for seed in [3u64, 11] {
            let graph = generators::gnp(30, 0.15, seed);
            let (problem, parallel, _) = one_shot_setup(&graph);
            // Sequential index order (the Theorem 1.1 shape), run in conflict
            // order, against the central oracle fixing one coin at a time in
            // that same order.
            let order: Vec<Vec<usize>> = vec![problem.participating_values()];
            let schedule = DerandSchedule::conflict_order(&order, &problem);
            let central = derandomize(
                &problem,
                &DerandomizeConfig {
                    estimator: EstimatorKind::default(),
                    groups: Some(order.clone()),
                },
            );
            let (output, _, report) = run_schedule(&graph, &problem, &schedule, &SyncExecutor);
            assert_eq!(output.values(), central.output.values());
            assert_eq!(report.rounds, 2 * schedule.len() as u64);
            assert!(
                schedule.len() < order[0].len(),
                "seed {seed}: no step shared"
            );
            // Different schedules may fix different coins, but both respect
            // the expectation bound and stay feasible.
            let (via_parallel, _, _) = run_schedule(&graph, &problem, &parallel, &SyncExecutor);
            assert!(via_parallel.is_feasible_dominating_set(&graph));
            assert!(output.is_feasible_dominating_set(&graph));
        }
    }

    #[test]
    fn distributed_schedule_is_identical_on_both_executors() {
        let graph = generators::gnp(35, 0.12, 8);
        let (problem, schedule, _) = one_shot_setup(&graph);
        let (seq, _, seq_report) = run_schedule(&graph, &problem, &schedule, &SyncExecutor);
        let (par, _, par_report) =
            run_schedule(&graph, &problem, &schedule, &PooledExecutor::new(3));
        assert_eq!(seq_report, par_report);
        assert_eq!(seq.values(), par.values());
    }

    #[test]
    fn empty_schedule_executes_the_deterministic_part_only() {
        let graph = generators::path(4);
        let mut problem = RoundingProblem::new();
        for _ in 0..4 {
            problem.add_value(0.5, 1.0);
        }
        for v in 0..4usize {
            let members: Vec<usize> = graph
                .inclusive_neighbors(congest_sim::NodeId(v))
                .map(|u| u.0)
                .collect();
            problem.add_constraint(v, 1.0, members);
        }
        let schedule = DerandSchedule { steps: vec![] };
        let (output, _, report) = run_schedule(&graph, &problem, &schedule, &SyncExecutor);
        assert_eq!(report.rounds, 1);
        let central = derandomize(&problem, &DerandomizeConfig::default());
        assert_eq!(output.values(), central.output.values());
    }

    #[test]
    fn validation_rejects_non_local_and_dependent_problems() {
        let graph = generators::path(4);
        // Constraint member outside the owner's inclusive neighborhood.
        let mut problem = RoundingProblem::new();
        for _ in 0..4 {
            problem.add_value(0.3, 0.5);
        }
        problem.add_constraint(0, 1.0, vec![0, 3]);
        let schedule = DerandSchedule::conflict_order(&[vec![0, 1, 2, 3]], &problem);
        let err = scheduled_derand_programs(&graph, &problem, &schedule, EstimatorKind::default())
            .unwrap_err();
        assert!(err.contains("inclusive neighborhood"), "{err}");

        // Two members of one constraint in the same step.
        let mut problem = RoundingProblem::new();
        for _ in 0..4 {
            problem.add_value(0.3, 0.5);
        }
        problem.add_constraint(1, 1.0, vec![0, 1, 2]);
        let schedule = DerandSchedule {
            steps: vec![vec![0, 1], vec![2], vec![3]],
        };
        let err = scheduled_derand_programs(&graph, &problem, &schedule, EstimatorKind::default())
            .unwrap_err();
        assert!(err.contains("independent"), "{err}");

        // A participating coin the schedule never fixes.
        let mut problem = RoundingProblem::new();
        for _ in 0..4 {
            problem.add_value(0.3, 0.5);
        }
        problem.add_constraint(1, 1.0, vec![0, 1]);
        let schedule = DerandSchedule {
            steps: vec![vec![0], vec![1], vec![2]],
        };
        let err = scheduled_derand_programs(&graph, &problem, &schedule, EstimatorKind::default())
            .unwrap_err();
        assert!(err.contains("never scheduled"), "{err}");

        // A problem built on a smaller graph than the one it runs on.
        let x = FractionalAssignment::from_values(vec![0.3; 3]);
        let problem = one_shot::on_graph(&generators::path(3), &x);
        let schedule = DerandSchedule::conflict_order(&[problem.participating_values()], &problem);
        let err = scheduled_derand_programs(&graph, &problem, &schedule, EstimatorKind::default())
            .unwrap_err();
        assert!(err.contains("graph-aligned"), "{err}");

        // Constraints added with a decreasing owner.
        let mut problem = RoundingProblem::new();
        for _ in 0..4 {
            problem.add_value(0.3, 0.5);
        }
        problem.add_constraint(1, 1.0, vec![0, 1]);
        problem.add_constraint(0, 1.0, vec![0, 1]);
        let schedule = DerandSchedule::conflict_order(&[vec![0, 1, 2, 3]], &problem);
        let err = scheduled_derand_programs(&graph, &problem, &schedule, EstimatorKind::default())
            .unwrap_err();
        assert!(err.contains("increasing-owner grouping"), "{err}");

        // One owner with two constraints that share a member.
        let mut problem = RoundingProblem::new();
        for _ in 0..4 {
            problem.add_value(0.3, 0.5);
        }
        problem.add_constraint(1, 1.0, vec![0, 1]);
        problem.add_constraint(1, 1.0, vec![1, 2]);
        let schedule = DerandSchedule::conflict_order(&[vec![0, 1, 2, 3]], &problem);
        let err = scheduled_derand_programs(&graph, &problem, &schedule, EstimatorKind::default())
            .unwrap_err();
        assert!(
            err.contains("several constraints containing member 1"),
            "{err}"
        );
    }
}

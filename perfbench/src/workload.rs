//! The three workloads: instance generation (the benchmark's set-up), one
//! solve through the public pipeline API, and the checks on its output.

use crate::trace::Trace;
use congest_sim::{Executor, Graph, NodeId};
use mds_cds::build::{connect_dominating_set, CdsConfig, CdsResult};
use mds_cds::verify::is_connected_dominating_set;
use mds_core::pipeline::{theorem_1_1_on, theorem_1_2_on, MdsConfig, MdsResult};
use mds_core::verify::is_dominating_set;
use mds_graphs::{analysis, generators};
use std::time::{Duration, Instant};

/// Name of the span around the Theorem 1.4 CDS construction.
pub const CDS_BUILD: &str = "mds_cds::build::connect_dominating_set";

/// Unit-disk seeds tried, from the benchmark seed on, before giving up on a
/// connected deployment.
const MAX_CONNECTIVITY_RETRIES: u64 = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 1.2 on `gnm`, sequential executor.
    T12Gnm,
    /// The same instance and route on the persistent worker pool.
    T12GnmPool,
    /// Theorem 1.1 + Theorem 1.4 on a connected unit-disk graph.
    CdsUdg,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::T12Gnm, Workload::T12GnmPool, Workload::CdsUdg];

    pub fn name(self) -> &'static str {
        match self {
            Workload::T12Gnm => "mds_t12_gnm",
            Workload::T12GnmPool => "mds_t12_gnm_pool",
            Workload::CdsUdg => "cds_t11_udg",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instance sizes. Both gnm workloads share one instance shape; the
/// unit-disk radius is `√(12/(πn))`, about 11.7 average degree at any `n`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub gnm_n: usize,
    pub gnm_m: usize,
    pub udg_n: usize,
}

/// The sizes the benchmark measures.
pub const FULL: Scale = Scale {
    gnm_n: 10_000,
    gnm_m: 40_000,
    udg_n: 4_000,
};

/// Sizes for the smoke test.
#[cfg(test)]
pub const TINY: Scale = Scale {
    gnm_n: 300,
    gnm_m: 1_200,
    udg_n: 200,
};

pub struct Instance {
    pub graph: Graph,
    /// The generator seed after the connectivity retries.
    pub seed_used: u64,
}

/// Set-up time, split into the generator and the routing tables.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate: Duration,
    pub warm: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.generate + self.warm
    }
}

/// Generates the workload's instance from `seed` and builds its routing
/// tables, timing both.
pub fn setup(workload: Workload, scale: Scale, seed: u64) -> (Instance, SetupTimes) {
    let start = Instant::now();
    let instance = generate(workload, scale, seed);
    let generated = Instant::now();
    instance.graph.warm_topology();
    let times = SetupTimes {
        generate: generated - start,
        warm: generated.elapsed(),
    };
    (instance, times)
}

fn generate(workload: Workload, scale: Scale, seed: u64) -> Instance {
    match workload {
        Workload::T12Gnm | Workload::T12GnmPool => Instance {
            graph: generators::gnm(scale.gnm_n, scale.gnm_m, seed),
            seed_used: seed,
        },
        Workload::CdsUdg => {
            let n = scale.udg_n;
            let radius = (12.0 / (std::f64::consts::PI * n as f64)).sqrt();
            (0..MAX_CONNECTIVITY_RETRIES)
                .map(|k| seed.wrapping_add(k))
                .map(|s| (generators::unit_disk(n, radius, s), s))
                .find(|(g, _)| analysis::is_connected(g))
                .map(|(graph, seed_used)| Instance { graph, seed_used })
                .unwrap_or_else(|| {
                    panic!("no connected unit-disk graph in {MAX_CONNECTIVITY_RETRIES} seeds from {seed}")
                })
        }
    }
}

/// The raw output of one solve.
pub struct Solve {
    pub mds: MdsResult,
    pub cds: Option<CdsResult>,
}

/// One solve: `theorem_1_2_on`, or `theorem_1_1_on` followed by the
/// Theorem 1.4 construction on the backbone workload. With a trace, the CDS
/// construction is recorded as a span of its own.
pub fn solve<E: Executor>(
    workload: Workload,
    graph: &Graph,
    executor: &E,
    trace: Option<&Trace>,
) -> Solve {
    let config = MdsConfig::default();
    match workload {
        Workload::T12Gnm | Workload::T12GnmPool => Solve {
            mds: theorem_1_2_on(graph, &config, executor),
            cds: None,
        },
        Workload::CdsUdg => {
            let mds = theorem_1_1_on(graph, &config, executor);
            let build =
                || connect_dominating_set(graph, &mds.dominating_set, &CdsConfig::default());
            let cds = match trace {
                Some(t) => t.span(CDS_BUILD, build),
                None => build(),
            };
            Solve {
                mds,
                cds: Some(cds),
            }
        }
    }
}

/// The checked figures of one solve. Every field is deterministic, so two
/// solves of one instance must agree on all of them, on any executor.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outcome {
    /// Size of the delivered set: the DS, or the CDS on the backbone.
    pub delivered: usize,
    pub approx_ratio: f64,
    /// Ledger totals of the solve, CDS charges included.
    pub rounds: u64,
    pub messages: u64,
    pub paper_rounds: u64,
    /// The CDS ledger's rounds, `|CDS|/|S|` and Steiner nodes (zero
    /// without a CDS).
    pub cds_rounds: u64,
    pub cds_overhead: f64,
    pub steiner_nodes: usize,
}

/// Checks one solve: the delivered set dominates (and is connected on the
/// backbone workload), the pipeline's LP bound is the independently computed
/// `lower_bound`, and the ratio to it is within the paper's guarantee.
pub fn check(graph: &Graph, lower_bound: f64, solve: &Solve) -> Result<Outcome, String> {
    let mds = &solve.mds;
    let (set, valid): (&[NodeId], bool) = match &solve.cds {
        Some(cds) => (&cds.cds, is_connected_dominating_set(graph, &cds.cds)),
        None => (
            &mds.dominating_set,
            is_dominating_set(graph, &mds.dominating_set),
        ),
    };
    if !valid {
        let what = if solve.cds.is_some() {
            "connected dominating set"
        } else {
            "dominating set"
        };
        return Err(format!(
            "the delivered set of {} nodes is not a {what}",
            set.len()
        ));
    }
    if mds.lp_lower_bound != lower_bound {
        return Err(format!(
            "pipeline LP bound {} differs from dual_lower_bound {lower_bound}",
            mds.lp_lower_bound
        ));
    }
    let approx_ratio = set.len() as f64 / lower_bound;
    let guarantee = mds.guarantee(graph);
    if approx_ratio > guarantee {
        return Err(format!(
            "approx_ratio {approx_ratio} exceeds the guarantee {guarantee}"
        ));
    }
    let cds_ledger = solve.cds.as_ref().map(|c| &c.ledger);
    Ok(Outcome {
        delivered: set.len(),
        approx_ratio,
        rounds: mds.ledger.total_simulated_rounds()
            + cds_ledger.map_or(0, |l| l.total_simulated_rounds()),
        messages: mds.ledger.total_messages() + cds_ledger.map_or(0, |l| l.total_messages()),
        paper_rounds: mds.ledger.total_formula_rounds()
            + cds_ledger.map_or(0, |l| l.total_formula_rounds()),
        cds_rounds: cds_ledger.map_or(0, |l| l.total_simulated_rounds()),
        cds_overhead: solve.cds.as_ref().map_or(0.0, |c| c.overhead()),
        steiner_nodes: solve.cds.as_ref().map_or(0, |c| c.steiner_nodes),
    })
}

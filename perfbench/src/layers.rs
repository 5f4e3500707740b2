//! Charges the spans of one traced solve to the repository's layers, by the
//! node-program type each executor run was called with.

use crate::trace::{Span, SOLVE};
use crate::workload::{Outcome, CDS_BUILD};
use crate::{median, Report};
use mds_decomposition::coloring::DistanceTwoColoringProgram;
use mds_decomposition::netdecomp::NetDecompProgram;
use mds_fractional::lp::DistributedLpProgram;
use mds_rounding::derandomize::ScheduledDerandProgram;
use std::any::type_name;

/// Wall time and counts of the executor runs charged to one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sums {
    pub wall: f64,
    pub calls: u64,
    pub rounds: u64,
    pub messages: u64,
    pub payloads: u64,
}

impl Sums {
    fn add(&mut self, span: &Span) {
        self.wall += span.wall().as_secs_f64();
        self.calls += 1;
        self.rounds += span.rounds;
        self.messages += span.messages;
        self.payloads += span.payloads;
    }

    fn counts(&self) -> [u64; 4] {
        [self.calls, self.rounds, self.messages, self.payloads]
    }
}

/// The layer split of one traced solve.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    pub solve: f64,
    /// Every executor run, whatever its program.
    pub engine: Sums,
    /// `Σ n·rounds` over the executor runs.
    pub node_rounds: u64,
    pub mwu: Sums,
    pub coloring: Sums,
    pub netdecomp: Sums,
    pub derand: Sums,
    pub cds_build: f64,
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Self {
        let mut b = Breakdown::default();
        for s in spans {
            if s.engine {
                b.engine.add(s);
                b.node_rounds += s.nodes as u64 * s.rounds;
                let layer = match s.name {
                    n if n == type_name::<DistributedLpProgram>() => &mut b.mwu,
                    n if n == type_name::<DistanceTwoColoringProgram>() => &mut b.coloring,
                    n if n == type_name::<NetDecompProgram>() => &mut b.netdecomp,
                    n if n == type_name::<ScheduledDerandProgram>() => &mut b.derand,
                    _ => continue,
                };
                layer.add(s);
            } else if s.name == SOLVE {
                b.solve = s.wall().as_secs_f64();
            } else if s.name == CDS_BUILD {
                b.cds_build = s.wall().as_secs_f64();
            }
        }
        b
    }

    /// Central pipeline time: the solve minus every executor run and the
    /// CDS construction.
    pub fn central(&self) -> f64 {
        self.solve - self.engine.wall - self.cds_build
    }

    /// Whether two solves charged identical counts to every layer.
    pub fn same_counts(&self, other: &Breakdown) -> bool {
        let counts = |b: &Breakdown| {
            [b.engine, b.mwu, b.coloring, b.netdecomp, b.derand].map(|s| s.counts())
        };
        counts(self) == counts(other) && self.node_rounds == other.node_rounds
    }

    /// One accounting line: the parts sum to the solve.
    pub fn note(&self, id: usize) -> String {
        format!(
            "traced solve {id}: solve_s={:.4} = engine {:.4} (mwu {:.4}, coloring {:.4}, netdecomp {:.4}, derand {:.4}) + central {:.4} + cds {:.4}",
            self.solve,
            self.engine.wall,
            self.mwu.wall,
            self.coloring.wall,
            self.netdecomp.wall,
            self.derand.wall,
            self.central(),
            self.cds_build,
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Adds the executor, layer, pipeline and CDS metrics: times are medians
/// over the traced solves, counts come from the first one (they repeat).
pub fn report_layers(report: &mut Report, breakdowns: &[Breakdown], outcome: &Outcome) {
    let med = |f: &dyn Fn(&Breakdown) -> f64| median(&breakdowns.iter().map(f).collect::<Vec<_>>());
    let first = breakdowns.first().cloned().unwrap_or_default();

    let engine_wall = med(&|b| b.engine.wall);
    report.metric("engine.wall_s", engine_wall, "s");
    report.metric("engine.calls", first.engine.calls as f64, "count");
    report.metric("engine.rounds", first.engine.rounds as f64, "count");
    report.metric("engine.payloads", first.engine.payloads as f64, "count");
    report.metric(
        "engine.ns_per_node_round",
        ratio(engine_wall * 1e9, first.node_rounds as f64),
        "ns",
    );

    let mwu_wall = med(&|b| b.mwu.wall);
    report.metric("fractional.mwu.wall_s", mwu_wall, "s");
    report.metric("fractional.mwu.rounds", first.mwu.rounds as f64, "count");
    report.metric(
        "fractional.mwu.messages",
        first.mwu.messages as f64,
        "count",
    );
    report.metric(
        "fractional.mwu.payloads",
        first.mwu.payloads as f64,
        "count",
    );
    report.metric(
        "fractional.mwu.ns_per_payload",
        ratio(mwu_wall * 1e9, first.mwu.payloads as f64),
        "ns",
    );

    report.metric("coloring.wall_s", med(&|b| b.coloring.wall), "s");
    report.metric("coloring.calls", first.coloring.calls as f64, "count");
    report.metric("coloring.rounds", first.coloring.rounds as f64, "count");
    report.metric("coloring.messages", first.coloring.messages as f64, "count");
    report.metric("coloring.payloads", first.coloring.payloads as f64, "count");

    report.metric("netdecomp.wall_s", med(&|b| b.netdecomp.wall), "s");
    report.metric("netdecomp.rounds", first.netdecomp.rounds as f64, "count");
    report.metric(
        "netdecomp.messages",
        first.netdecomp.messages as f64,
        "count",
    );

    let derand_wall = med(&|b| b.derand.wall);
    report.metric("derand.wall_s", derand_wall, "s");
    report.metric("derand.calls", first.derand.calls as f64, "count");
    report.metric("derand.rounds", first.derand.rounds as f64, "count");
    report.metric("derand.messages", first.derand.messages as f64, "count");
    report.metric(
        "derand.us_per_round",
        ratio(derand_wall * 1e6, first.derand.rounds as f64),
        "us",
    );
    report.metric(
        "derand.messages_per_round",
        ratio(first.derand.messages as f64, first.derand.rounds as f64),
        "msgs/round",
    );

    report.metric("pipeline.central_s", med(&|b| b.central()), "s");
    report.metric(
        "pipeline.central_share",
        med(&|b| ratio(b.central(), b.solve)),
        "ratio",
    );
    report.metric(
        "pipeline.paper_rounds",
        outcome.paper_rounds as f64,
        "count",
    );

    report.metric("cds.build_s", med(&|b| b.cds_build), "s");
    report.metric("cds.rounds", outcome.cds_rounds as f64, "count");
    report.metric("cds.overhead", outcome.cds_overhead, "ratio");
    report.metric("cds.steiner_nodes", outcome.steiner_nodes as f64, "count");
}

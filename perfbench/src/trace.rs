//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! [`Traced`] wraps any [`Executor`] and records one [`Span`] per `run` call:
//! the node-program type, start and end, the solve it belongs to, and the
//! run report's counts and per-round statistics. The benchmark adds the
//! spans of its own steps (one per solve, one per CDS construction) through
//! [`Trace::span`]. Nothing here touches the program: the wrapper is handed
//! to the public `theorem_1_*_on` entry points like any other executor.

use congest_sim::{
    ExecutionError, Executor, ExecutorConfig, Graph, NodeProgram, RoundStats, RunReport,
};
use std::any::type_name;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Name of the span that covers one whole solve.
pub const SOLVE: &str = "solve";

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The solve the call belongs to.
    pub solve: usize,
    /// The node-program type of an executor run, or the benchmark step.
    pub name: &'static str,
    /// Start and end, relative to the trace's creation.
    pub start: Duration,
    pub end: Duration,
    /// Whether the span is an executor run rather than a benchmark step.
    pub engine: bool,
    /// Nodes the program ran on (`0` for benchmark steps).
    pub nodes: usize,
    pub rounds: u64,
    pub messages: u64,
    pub payloads: u64,
    pub round_stats: Vec<RoundStats>,
}

impl Span {
    /// Wall time of the call.
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }
}

/// The span store of one benchmark run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    solve: Cell<usize>,
    spans: RefCell<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            solve: Cell::new(0),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Starts solve `id`: later spans name it as their parent.
    pub fn begin_solve(&self, id: usize) {
        self.solve.set(id);
    }

    /// Times `f` as a benchmark step named `name` of the current solve.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.push::<()>(name, start, end, None);
        out
    }

    fn push<O>(
        &self,
        name: &'static str,
        start: Duration,
        end: Duration,
        engine: Option<(usize, Option<&RunReport<O>>)>,
    ) {
        let nodes = engine.map_or(0, |(n, _)| n);
        let report = engine.and_then(|(_, r)| r);
        self.spans.borrow_mut().push(Span {
            solve: self.solve.get(),
            name,
            start,
            end,
            engine: engine.is_some(),
            nodes,
            rounds: report.map_or(0, |r| r.rounds),
            messages: report.map_or(0, |r| r.messages),
            payloads: report.map_or(0, |r| r.payloads),
            round_stats: report.map_or_else(Vec::new, |r| r.round_stats.clone()),
        });
    }

    /// The spans of solve `id`, in start order.
    pub fn solve_spans(&self, id: usize) -> Vec<Span> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.solve == id)
            .cloned()
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in self.spans.borrow().iter() {
            let mut line = format!(
                "{{\"solve\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"engine\": {}, \"nodes\": {}, \"rounds\": {}, \"messages\": {}, \"payloads\": {}, \"round_messages\": [",
                s.solve,
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                s.engine,
                s.nodes,
                s.rounds,
                s.messages,
                s.payloads,
            );
            for (i, r) in s.round_stats.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                write!(line, "{sep}{}", r.messages).expect("writing to a String cannot fail");
            }
            line.push_str("]}");
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

/// An executor that forwards to `inner` and records one span per run.
pub struct Traced<'t, E> {
    pub inner: &'t E,
    pub trace: &'t Trace,
}

impl<E: Executor> Executor for Traced<'_, E> {
    fn run<P>(
        &self,
        graph: &Graph,
        programs: Vec<P>,
        config: &ExecutorConfig,
    ) -> Result<RunReport<P::Output>, ExecutionError>
    where
        P: NodeProgram + Send,
        P::Message: Send + Sync,
        P::Output: Send,
    {
        let start = self.trace.origin.elapsed();
        let report = self.inner.run(graph, programs, config);
        let end = self.trace.origin.elapsed();
        self.trace.push(
            type_name::<P>(),
            start,
            end,
            Some((graph.n(), report.as_ref().ok())),
        );
        report
    }
}

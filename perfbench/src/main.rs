//! The repository benchmark: solves one workload's instance end to end
//! through the public pipeline API for a fixed time, verifies every solve,
//! and prints the metrics as one JSON object on the last line of stdout.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mds_t12_gnm|mds_t12_gnm_pool|cds_t11_udg> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced solves.
//! `--trace 1` alternates untraced and traced solves and reports the
//! per-layer metrics; its spans go to `perfbench/traces/`. See `README.md`
//! for the workloads and for which end-to-end metric each layer moves.

mod layers;
mod trace;
mod workload;

use congest_sim::{Executor, PooledExecutor, SyncExecutor};
use layers::Breakdown;
use mds_core::pipeline::MdsConfig;
use mds_decomposition::netdecomp::{carving_schedule, DecompositionConfig};
use mds_fractional::lemma21::distributed_mwu_config;
use mds_fractional::lp::{dual_lower_bound, DistributedLpConfig, DistributedLpProgram};
use std::hint::black_box;
use std::time::{Duration, Instant};
use trace::{Trace, Traced, SOLVE};
use workload::{Outcome, Scale, Solve, Workload};

const USAGE: &str = "usage: perfbench --workload <mds_t12_gnm|mds_t12_gnm_pool|cds_t11_udg> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Repeats of each standalone layer timing in a traced run.
const STANDALONE_REPEATS: usize = 5;
/// Timed solves per run, however short `--seconds` is.
const MIN_SOLVES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| bad())?)
                    .filter(|s| s.is_finite() && *s >= 0.0)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be a non-negative number")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let traces = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let report = match args.workload {
        Workload::T12GnmPool => {
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            run(
                &args,
                workload::FULL,
                &PooledExecutor::new(threads),
                Some(&traces),
            )
        }
        _ => run(&args, workload::FULL, &SyncExecutor, Some(&traces)),
    };
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.json());
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Lines printed before the result: fingerprint, samples, failures.
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks every solve of a run against the workload's invariants and
/// against the run's reference outcome: the first solve, or the sequential
/// solve of the same instance on the pool workload.
struct Verifier<'g> {
    graph: &'g congest_sim::Graph,
    lower_bound: f64,
    reference: Option<Outcome>,
    times: Vec<f64>,
}

impl Verifier<'_> {
    fn verify(&mut self, solve: &Solve, report: &mut Report) -> bool {
        report.attempted += 1;
        let start = Instant::now();
        let result = workload::check(self.graph, self.lower_bound, solve).and_then(|outcome| {
            match self.reference {
                None => {
                    self.reference = Some(outcome);
                    Ok(())
                }
                Some(r) if r == outcome => Ok(()),
                Some(r) => Err(format!(
                    "outcome {outcome:?} differs from the reference {r:?}"
                )),
            }
        });
        self.times.push(start.elapsed().as_secs_f64());
        if let Err(e) = &result {
            report.failed += 1;
            report
                .notes
                .push(format!("FAILED solve {}: {e}", report.attempted));
        }
        result.is_ok()
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of `repeats` timings of `f`, in seconds.
fn time_median<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn timed_solve<E: Executor>(w: Workload, g: &congest_sim::Graph, executor: &E) -> (Solve, f64) {
    let start = Instant::now();
    let solve = black_box(workload::solve(w, g, executor, None));
    (solve, start.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sample_note(label: &str, times: &[f64]) -> String {
    let max = times.iter().copied().fold(0.0, f64::max);
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let all: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    format!(
        "{label}: median={:.4} min={min:.4} max={max:.4} samples={} [{}]",
        median(times),
        times.len(),
        all.join(" ")
    )
}

/// One benchmark run of `args.workload` at `scale` on `executor`; traces go
/// to `traces` when given.
fn run<E: Executor>(
    args: &Args,
    scale: Scale,
    executor: &E,
    traces: Option<&std::path::Path>,
) -> Report {
    let w = args.workload;
    let mut report = Report::default();

    // Every solve of the run uses this instance. Set-up is timed again
    // before every timed solve, on a copy that is dropped at once, so the
    // set-up samples span the run as the solve samples do.
    let (instance, first_setup) = workload::setup(w, scale, args.seed);
    let mut setups = vec![first_setup];
    let g = &instance.graph;
    report.notes.push(format!(
        "instance: workload={} seed={} seed_used={} n={} m={} max_degree={}",
        w.name(),
        args.seed,
        instance.seed_used,
        g.n(),
        g.m(),
        g.max_degree()
    ));

    let mut verifier = Verifier {
        graph: g,
        lower_bound: dual_lower_bound(g),
        reference: None,
        times: Vec::new(),
    };
    // On the pool workload the sequential solve of the same instance is the
    // reference every pool solve must reproduce.
    if w == Workload::T12GnmPool {
        let (solve, _) = timed_solve(w, g, &SyncExecutor);
        verifier.verify(&solve, &mut report);
    }
    // The first solve in a process is slow (heap growth); it is verified but
    // not timed.
    let (solve, _) = timed_solve(w, g, executor);
    verifier.verify(&solve, &mut report);

    let seconds = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let start = Instant::now();
        let mut times = Vec::new();
        while times.len() < MIN_SOLVES || start.elapsed() < seconds {
            setups.push(workload::setup(w, scale, args.seed).1);
            let (solve, t) = timed_solve(w, g, executor);
            times.push(t);
            verifier.verify(&solve, &mut report);
        }
        let outcome = verifier.reference.unwrap_or_default();
        report.notes.push(sample_note("solve_s", &times));
        report.metric("solve_s", median(&times), "s");
        let setup: Vec<f64> = setups.iter().map(|t| t.total().as_secs_f64()).collect();
        report.metric("setup_s", median(&setup), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("approx_ratio", outcome.approx_ratio, "ratio");
        report.metric("rounds", outcome.rounds as f64, "count");
        report.metric("messages", outcome.messages as f64, "count");
        return report;
    }

    // Standalone timings of the public calls the pipeline makes: the
    // per-node MWU programs (with the pipeline's ε₁ = ε/4), the LP bound and
    // the Theorem 1.1 carving schedule.
    let eps1 = (MdsConfig::default().epsilon / 4.0).clamp(1e-3, 0.25);
    let mwu_config = distributed_mwu_config(&DistributedLpConfig::default(), eps1);
    let mwu_programs_s = time_median(STANDALONE_REPEATS, || {
        DistributedLpProgram::programs(g, &mwu_config)
    });
    let lower_bound_s = time_median(STANDALONE_REPEATS, || dual_lower_bound(g));
    let carving_s = time_median(STANDALONE_REPEATS, || {
        carving_schedule(g, 2, &DecompositionConfig::default())
    });

    // Untraced and traced solves alternate, so the overhead of tracing is
    // the difference of their medians.
    let trace = Trace::new();
    let traced = Traced {
        inner: executor,
        trace: &trace,
    };
    let start = Instant::now();
    let (mut untraced_times, mut breakdowns) = (Vec::new(), Vec::<Breakdown>::new());
    while breakdowns.len() < MIN_SOLVES || start.elapsed() < seconds {
        setups.push(workload::setup(w, scale, args.seed).1);
        let (solve, t) = timed_solve(w, g, executor);
        untraced_times.push(t);
        verifier.verify(&solve, &mut report);

        let id = breakdowns.len() + 1;
        trace.begin_solve(id);
        let solve = trace.span(SOLVE, || {
            black_box(workload::solve(w, g, &traced, Some(&trace)))
        });
        let ok = verifier.verify(&solve, &mut report);
        let b = Breakdown::of(&trace.solve_spans(id));
        report.notes.push(b.note(id));
        if ok
            && breakdowns
                .first()
                .is_some_and(|first| !first.same_counts(&b))
        {
            report.failed += 1;
            report.notes.push(format!(
                "FAILED traced solve {id}: per-layer counts differ from solve 1"
            ));
        }
        breakdowns.push(b);
    }
    if let Some(dir) = traces {
        let path = dir.join(format!("{}-seed{}.jsonl", w.name(), args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .map(std::io::BufWriter::new)
            .and_then(|mut out| {
                trace.write_jsonl(&mut out)?;
                std::io::Write::flush(&mut out)
            });
        report.notes.push(match written {
            Ok(()) => format!("trace: spans written to {}", path.display()),
            Err(e) => format!("trace: could not write {}: {e}", path.display()),
        });
    }

    let setup_generate: Vec<f64> = setups.iter().map(|t| t.generate.as_secs_f64()).collect();
    let setup_warm: Vec<f64> = setups.iter().map(|t| t.warm.as_secs_f64()).collect();
    let outcome = verifier.reference.unwrap_or_default();
    let traced_times: Vec<f64> = breakdowns.iter().map(|b| b.solve).collect();
    report
        .notes
        .push(sample_note("traced solve_s", &traced_times));
    report.metric("graphs.generate_s", median(&setup_generate), "s");
    report.metric("topology.warm_s", median(&setup_warm), "s");
    layers::report_layers(&mut report, &breakdowns, &outcome);
    report.metric("fractional.mwu_programs_s", mwu_programs_s, "s");
    report.metric("fractional.dual_lower_bound_s", lower_bound_s, "s");
    report.metric("netdecomp.carving_schedule_s", carving_s, "s");
    report.metric("verify.s", median(&verifier.times), "s");
    report.metric(
        "trace.overhead_s",
        median(&traced_times) - median(&untraced_times),
        "s",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// `(name, unit)` of every metric in a section of `BENCHMARK.json`.
    fn declared(section: &str) -> BTreeMap<String, String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |line: &str, key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_owned())
        };
        body.lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    fn emitted(w: Workload, trace: bool) -> BTreeMap<String, String> {
        let args = Args {
            workload: w,
            seed: 3,
            seconds: 0.0,
            trace,
        };
        let report = match w {
            Workload::T12GnmPool => run(&args, workload::TINY, &PooledExecutor::new(2), None),
            _ => run(&args, workload::TINY, &SyncExecutor, None),
        };
        assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.notes);
        assert!(report.attempted as usize >= MIN_SOLVES);
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
        }
        report
            .metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn every_declared_metric_is_emitted_with_its_unit_on_a_tiny_instance() {
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        assert_eq!(end_to_end.len(), 6);
        assert!(per_layer.len() > 30);
        for w in Workload::ALL {
            assert_eq!(emitted(w, false), end_to_end, "{} end to end", w.name());
            assert_eq!(emitted(w, true), per_layer, "{} per layer", w.name());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        assert!(parse("--workload cds_t11_udg --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload cds_t11_udg --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload cds_t11_udg --seed 1 --seconds -1 --trace 0").is_err());
        assert!(parse("--workload cds_t11_udg --seed 1 --trace 0").is_err());
    }
}

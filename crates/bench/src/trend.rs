//! Perf-trend gate: compares a freshly measured `BENCH_pipeline.json` against
//! the committed `BENCH_baseline.json`.
//!
//! The benchmark JSON is written by [`crate::pipeline_benchmark_json`] in a
//! fixed one-run-per-line shape, so this module parses it with plain string
//! scanning instead of pulling in a JSON dependency (the workspace is
//! deliberately std-only below the algorithm crates).
//!
//! Two classes of checks, reflecting what is and is not deterministic:
//!
//! * **Exact**: instance shape (`n`, `m`, `max_degree`), solution size, and
//!   every round/message count. The pipeline is deterministic and the `gnm`/
//!   `gnp` instances are platform-identical, so *any* drift in these fields
//!   is a real behavioral change — the gate fails hard and the fix is either
//!   a bug fix or an intentional accounting change plus a baseline bump.
//! * **Trend**: wall-clock time. Host-dependent, so only a regression beyond
//!   [`WALL_REGRESSION_FACTOR`] *and* [`WALL_ABSOLUTE_FLOOR_MS`] fails; a
//!   baseline recorded on a slower machine can only make the gate laxer,
//!   never spuriously red.

use std::collections::BTreeMap;

/// A current run must be no slower than `factor × baseline` wall time…
pub const WALL_REGRESSION_FACTOR: f64 = 1.30;

/// …unless the absolute slowdown stays under this floor (sub-100 ms deltas on
/// tiny instances are scheduler noise, not regressions).
pub const WALL_ABSOLUTE_FLOOR_MS: f64 = 100.0;

/// One benchmark run parsed back out of the JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Instance label (graph family + parameters).
    pub graph: String,
    /// `"theorem_1_1"` or `"theorem_1_2"`.
    pub route: String,
    /// `"sync"` for the sequential rows, `"pooled4"` for the 4-thread
    /// persistent-pool rows of the Theorem 1.2 route (schema v3).
    pub executor: String,
    /// Nodes.
    pub n: u64,
    /// Edges.
    pub m: u64,
    /// Maximum degree.
    pub max_degree: u64,
    /// Dominating-set size.
    pub size: u64,
    /// Rounds executed on the engine across measured phases.
    pub measured_engine_rounds: u64,
    /// Engine rounds of the measured Lemma 3.12 coloring phases.
    pub measured_coloring_rounds: u64,
    /// Engine rounds of the measured GK18 carving-wave network-decomposition
    /// phase of the Theorem 1.1 route (schema v6); zero on the coloring
    /// route, which never decomposes.
    pub measured_netdecomp_rounds: u64,
    /// Total simulated rounds charged in the ledger.
    pub simulated_rounds: u64,
    /// Total paper-formula rounds charged in the ledger.
    pub formula_rounds: u64,
    /// Total messages charged in the ledger.
    pub messages: u64,
    /// Total payloads stored by the engine (schema v5). A broadcast stores
    /// one payload where the CONGEST accounting charges `deg(v)` messages,
    /// so this tracks what the runtime actually materializes — and any drift
    /// is a behavioral change in the broadcast fast path, gated exactly.
    pub payloads: u64,
    /// End-to-end wall time of the run, milliseconds.
    pub wall_ms: f64,
}

impl BenchRun {
    /// The identity a run is matched on across files.
    pub fn key(&self) -> (String, String, String) {
        (
            self.graph.clone(),
            self.route.clone(),
            self.executor.clone(),
        )
    }
}

/// A parsed benchmark file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// The schema version stamped by the writer.
    pub schema_version: u64,
    /// All runs, in file order.
    pub runs: Vec<BenchRun>,
}

/// The raw token for `"key"` in `line` (value up to the next `,` or `}`).
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn u64_field(line: &str, key: &str) -> Result<u64, String> {
    raw_field(line, key)
        .ok_or_else(|| format!("missing field {key:?} in run line {line:?}"))?
        .parse()
        .map_err(|e| format!("bad integer for {key:?} in run line {line:?}: {e}"))
}

fn f64_field(line: &str, key: &str) -> Result<f64, String> {
    raw_field(line, key)
        .ok_or_else(|| format!("missing field {key:?} in run line {line:?}"))?
        .parse()
        .map_err(|e| format!("bad number for {key:?} in run line {line:?}: {e}"))
}

fn str_field(line: &str, key: &str) -> Result<String, String> {
    let raw = raw_field(line, key)
        .ok_or_else(|| format!("missing field {key:?} in run line {line:?}"))?;
    Ok(raw.trim_matches('"').to_string())
}

/// Parses a benchmark JSON produced by [`crate::pipeline_benchmark_json`].
///
/// # Errors
///
/// Returns a description of the first malformed or missing field. A file
/// stamped with a schema version this binary does not write is rejected up
/// front with a directional message — "rebuild the binary" when the file is
/// newer (its run lines carry fields this parser has never heard of, so a
/// field-level error would only mislead), "regenerate the file" when it is
/// older.
pub fn parse(json: &str) -> Result<BenchFile, String> {
    let binary_version = u64::from(crate::BENCH_SCHEMA_VERSION);
    let mut schema_version = None;
    let mut runs = Vec::new();
    for line in json.lines() {
        if line.contains("\"schema_version\"") {
            let version = u64_field(line, "schema_version")?;
            if version > binary_version {
                return Err(format!(
                    "benchmark file declares schema v{version}, newer than this binary's \
                     v{binary_version} — rebuild the binary (cargo build --release -p mds_bench) \
                     or regenerate the file with this binary (experiments --json)"
                ));
            }
            if version < binary_version {
                return Err(format!(
                    "benchmark file declares schema v{version}, older than this binary's \
                     v{binary_version} — regenerate it with this binary (experiments --json)"
                ));
            }
            schema_version = Some(version);
        }
        if line.contains("\"route\"") {
            runs.push(BenchRun {
                graph: str_field(line, "graph")?,
                route: str_field(line, "route")?,
                executor: str_field(line, "executor")?,
                n: u64_field(line, "n")?,
                m: u64_field(line, "m")?,
                max_degree: u64_field(line, "max_degree")?,
                size: u64_field(line, "size")?,
                measured_engine_rounds: u64_field(line, "measured_engine_rounds")?,
                measured_coloring_rounds: u64_field(line, "measured_coloring_rounds")?,
                measured_netdecomp_rounds: u64_field(line, "measured_netdecomp_rounds")?,
                simulated_rounds: u64_field(line, "simulated_rounds")?,
                formula_rounds: u64_field(line, "formula_rounds")?,
                messages: u64_field(line, "messages")?,
                payloads: u64_field(line, "payloads")?,
                wall_ms: f64_field(line, "wall_ms")?,
            });
        }
    }
    let schema_version = schema_version.ok_or("no \"schema_version\" field found")?;
    if runs.is_empty() {
        return Err("no runs found in benchmark file".into());
    }
    Ok(BenchFile {
        schema_version,
        runs,
    })
}

/// Result of gating `current` against `baseline`.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// A GitHub-flavored Markdown comparison table (one row per run).
    pub table: String,
    /// Everything that should fail the gate; empty means green.
    pub violations: Vec<String>,
}

impl TrendReport {
    /// Whether the gate passes.
    pub fn is_green(&self) -> bool {
        self.violations.is_empty()
    }
}

fn check_exact(
    key: &str,
    field: &str,
    base: u64,
    cur: u64,
    violations: &mut Vec<String>,
) -> &'static str {
    if base == cur {
        "ok"
    } else {
        violations.push(format!(
            "{key}: {field} drifted from {base} to {cur} (deterministic field — \
             this is a behavioral change, not noise)"
        ));
        "DRIFT"
    }
}

/// Compares `current` against `baseline` and renders the verdict.
pub fn compare(baseline: &BenchFile, current: &BenchFile) -> TrendReport {
    let mut violations = Vec::new();
    if baseline.schema_version != current.schema_version {
        violations.push(format!(
            "schema version mismatch: baseline v{} vs current v{} — regenerate \
             BENCH_baseline.json with the current binary",
            baseline.schema_version, current.schema_version
        ));
    }
    let current_by_key: BTreeMap<_, _> = current.runs.iter().map(|r| (r.key(), r)).collect();
    let baseline_keys: std::collections::BTreeSet<_> =
        baseline.runs.iter().map(|r| r.key()).collect();

    let mut table = String::from(
        "| graph | route | executor | rounds (engine) | rounds (sim) | messages | payloads | \
         wall base (ms) | wall now (ms) | Δ wall | status |\n\
         | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |\n",
    );
    for base in &baseline.runs {
        let key = format!("{} / {} / {}", base.graph, base.route, base.executor);
        let Some(cur) = current_by_key.get(&base.key()) else {
            violations.push(format!(
                "{key}: present in baseline but missing from current run"
            ));
            table.push_str(&format!(
                "| {} | {} | {} | - | - | - | - | {:.1} | - | - | MISSING |\n",
                base.graph, base.route, base.executor, base.wall_ms
            ));
            continue;
        };
        let mut status = "ok";
        for (field, b, c) in [
            ("n", base.n, cur.n),
            ("m", base.m, cur.m),
            ("max_degree", base.max_degree, cur.max_degree),
            ("size", base.size, cur.size),
            (
                "measured_engine_rounds",
                base.measured_engine_rounds,
                cur.measured_engine_rounds,
            ),
            (
                "measured_coloring_rounds",
                base.measured_coloring_rounds,
                cur.measured_coloring_rounds,
            ),
            (
                "measured_netdecomp_rounds",
                base.measured_netdecomp_rounds,
                cur.measured_netdecomp_rounds,
            ),
            (
                "simulated_rounds",
                base.simulated_rounds,
                cur.simulated_rounds,
            ),
            ("formula_rounds", base.formula_rounds, cur.formula_rounds),
            ("messages", base.messages, cur.messages),
            ("payloads", base.payloads, cur.payloads),
        ] {
            if check_exact(&key, field, b, c, &mut violations) != "ok" {
                status = "DRIFT";
            }
        }
        let delta_ms = cur.wall_ms - base.wall_ms;
        if cur.wall_ms > base.wall_ms * WALL_REGRESSION_FACTOR && delta_ms > WALL_ABSOLUTE_FLOOR_MS
        {
            violations.push(format!(
                "{key}: wall time regressed {:.1} ms → {:.1} ms ({:+.0}%, beyond the \
                 {:.0}% / {:.0} ms gate)",
                base.wall_ms,
                cur.wall_ms,
                delta_ms / base.wall_ms.max(f64::EPSILON) * 100.0,
                (WALL_REGRESSION_FACTOR - 1.0) * 100.0,
                WALL_ABSOLUTE_FLOOR_MS,
            ));
            if status == "ok" {
                status = "SLOW";
            }
        }
        table.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.1} | {:.1} | {:+.0}% | {} |\n",
            cur.graph,
            cur.route,
            cur.executor,
            cur.measured_engine_rounds,
            cur.simulated_rounds,
            cur.messages,
            cur.payloads,
            base.wall_ms,
            cur.wall_ms,
            delta_ms / base.wall_ms.max(f64::EPSILON) * 100.0,
            status,
        ));
    }
    // New runs (sizes added to the sweep) are informational, never a failure.
    for cur in &current.runs {
        if !baseline_keys.contains(&cur.key()) {
            table.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | - | {:.1} | - | new |\n",
                cur.graph,
                cur.route,
                cur.executor,
                cur.measured_engine_rounds,
                cur.simulated_rounds,
                cur.messages,
                cur.payloads,
                cur.wall_ms,
            ));
        }
    }
    TrendReport { table, violations }
}

/// Reads, parses and compares two benchmark files.
///
/// # Errors
///
/// Returns a description of the first unreadable or malformed file.
pub fn compare_files(baseline_path: &str, current_path: &str) -> Result<TrendReport, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read benchmark file {p}: {e}"))
    };
    let baseline = parse(&read(baseline_path)?)
        .map_err(|e| format!("baseline {baseline_path} is malformed: {e}"))?;
    let current = parse(&read(current_path)?)
        .map_err(|e| format!("current {current_path} is malformed: {e}"))?;
    Ok(compare(&baseline, &current))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(wall: f64, rounds: u64) -> String {
        format!(
            concat!(
                "{{\n  \"benchmark\": \"pipeline\",\n  \"schema_version\": 8,\n",
                "  \"runs\": [\n",
                "    {{\"n\": 50, \"m\": 180, \"max_degree\": 11, ",
                "\"graph\": \"gnp_n50_p0.16\", \"route\": \"theorem_1_1\", ",
                "\"executor\": \"sync\", ",
                "\"size\": 17, \"lp_lower_bound\": 7.1, ",
                "\"measured_engine_rounds\": {rounds}, ",
                "\"measured_coloring_rounds\": 0, ",
                "\"measured_netdecomp_rounds\": 7, \"simulated_rounds\": 900, ",
                "\"formula_rounds\": 5000, \"messages\": 12345, ",
                "\"payloads\": 678, ",
                "\"wall_ms\": {wall:.3}, \"wall_mwu_ms\": 1.0, ",
                "\"wall_coloring_ms\": 0.0, \"wall_netdecomp_ms\": 0.5, ",
                "\"wall_derand_ms\": 2.0, ",
                "\"wall_other_ms\": 3.0}}\n",
                "  ]\n}}\n"
            ),
            rounds = rounds,
            wall = wall,
        )
    }

    #[test]
    fn roundtrip_parses_the_writers_output() {
        let file = parse(&sample(12.5, 700)).expect("parses");
        assert_eq!(file.schema_version, u64::from(crate::BENCH_SCHEMA_VERSION));
        assert_eq!(file.runs.len(), 1);
        let run = &file.runs[0];
        assert_eq!(run.graph, "gnp_n50_p0.16");
        assert_eq!(run.route, "theorem_1_1");
        assert_eq!(run.executor, "sync");
        assert_eq!(run.n, 50);
        assert_eq!(run.measured_engine_rounds, 700);
        assert_eq!(run.messages, 12345);
        assert_eq!(run.payloads, 678);
        assert!((run.wall_ms - 12.5).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("not json").is_err());
        assert!(parse("{\n \"schema_version\": 2,\n \"runs\": []\n}").is_err());
        // A run line with a missing field names the field.
        let bad = sample(1.0, 5).replace("\"messages\": 12345, ", "");
        let err = parse(&bad).unwrap_err();
        assert!(err.contains("messages"), "{err}");
    }

    #[test]
    fn foreign_schema_versions_get_directional_errors_not_field_noise() {
        // A file from a *newer* binary: its lines carry fields this parser
        // has never heard of — the guard must fire before any field error.
        let newer = sample(1.0, 5).replace("\"schema_version\": 8", "\"schema_version\": 99");
        let err = parse(&newer).unwrap_err();
        assert!(err.contains("newer than this binary"), "{err}");
        assert!(err.contains("rebuild the binary"), "{err}");

        // A file from an *older* binary points at regeneration instead.
        // A v5 file predates both netdecomp fields.
        let older = sample(1.0, 5)
            .replace("\"schema_version\": 8", "\"schema_version\": 5")
            .replace("\"measured_netdecomp_rounds\": 7, ", "")
            .replace("\"wall_netdecomp_ms\": 0.5, ", "");
        let err = parse(&older).unwrap_err();
        assert!(err.contains("older than this binary"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
        assert!(
            !err.contains("measured_netdecomp_rounds"),
            "no field-level noise: {err}"
        );
    }

    #[test]
    fn identical_files_are_green() {
        let f = parse(&sample(10.0, 100)).unwrap();
        let report = compare(&f, &f);
        assert!(report.is_green(), "{:?}", report.violations);
        assert!(report.table.contains("| ok |"));
    }

    #[test]
    fn round_drift_is_a_hard_failure_even_when_faster() {
        let base = parse(&sample(10.0, 100)).unwrap();
        let cur = parse(&sample(5.0, 99)).unwrap();
        let report = compare(&base, &cur);
        assert!(!report.is_green());
        assert!(report.violations[0].contains("measured_engine_rounds"));
        assert!(report.table.contains("DRIFT"));
    }

    #[test]
    fn payload_drift_is_a_hard_failure_even_when_faster() {
        let base = parse(&sample(10.0, 100)).unwrap();
        // Fewer stored payloads and a faster wall time still fail: the
        // broadcast fast path's storage behavior changed.
        let cur =
            parse(&sample(5.0, 100).replace("\"payloads\": 678", "\"payloads\": 677")).unwrap();
        let report = compare(&base, &cur);
        assert!(!report.is_green());
        assert!(report.violations[0].contains("payloads"));
        assert!(report.table.contains("DRIFT"));
    }

    #[test]
    fn wall_regressions_respect_factor_and_floor() {
        let base = parse(&sample(10.0, 100)).unwrap();
        // +500% but only +50 ms: under the absolute floor, green.
        let small = compare(&base, &parse(&sample(60.0, 100)).unwrap());
        assert!(small.is_green(), "{:?}", small.violations);
        // Past both the factor and the floor: red.
        let slow_base = parse(&sample(1000.0, 100)).unwrap();
        let slow = compare(&slow_base, &parse(&sample(1400.0, 100)).unwrap());
        assert!(!slow.is_green());
        assert!(slow.violations[0].contains("wall time regressed"));
        // +30% exactly on a big number is within the gate.
        let ok = compare(&slow_base, &parse(&sample(1299.0, 100)).unwrap());
        assert!(ok.is_green(), "{:?}", ok.violations);
    }

    #[test]
    fn schema_and_coverage_mismatches_fail() {
        let base = parse(&sample(10.0, 100)).unwrap();
        let mut newer = base.clone();
        newer.schema_version = 9;
        assert!(compare(&base, &newer)
            .violations
            .iter()
            .any(|v| v.contains("schema version mismatch")));

        let mut empty_current = base.clone();
        empty_current.runs[0].route = "theorem_1_2".into();
        let report = compare(&base, &empty_current);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("missing from current")));
        assert!(report.table.contains("MISSING"));
        assert!(report.table.contains("| new |"));
    }
}

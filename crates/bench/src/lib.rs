//! Experiment harness for every experiment listed in `DESIGN.md` (E1–E10).
//! Each function returns a Markdown table, which the `experiments` binary
//! prints on stdout; the same binary writes the pipeline benchmark JSON
//! ([`pipeline_benchmark_json`]), compares two of them ([`trend`]) and runs
//! the raw-executor sweep ([`flood`]).
//!
//! The paper itself has no measurement section (it is a theory paper), so the
//! experiments validate the *stated bounds*: approximation guarantees, round
//! complexities, per-lemma probability bounds and object quality parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use congest_sim::{Graph, PhaseKind, PhaseMode, PooledExecutor, RoundLedger};
use mds_cds::build::{connect_dominating_set, CdsConfig};
use mds_cds::verify::is_connected_dominating_set;
use mds_core::pipeline::{theorem_1_1, theorem_1_2, theorem_1_2_on, MdsConfig, MdsResult};
use mds_core::{exact, greedy, randomized, verify};
use mds_decomposition::netdecomp::{strong_diameter_decomposition, DecompositionConfig};
use mds_fractional::lemma21::FractionalMethod;
use mds_fractional::lp;
use mds_graphs::generators::{self, GraphFamily};
use mds_rounding::kwise::KWiseGenerator;
use mds_rounding::one_shot;
use mds_rounding::process::execute_with_rng;
use mds_rounding::EstimatorKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fmt_row(cells: &[String]) -> String {
    format!("| {} |\n", cells.join(" | "))
}

fn header(cols: &[&str]) -> String {
    let mut s = fmt_row(&cols.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    s.push_str(&fmt_row(
        &cols.iter().map(|_| "---".to_string()).collect::<Vec<_>>(),
    ));
    s
}

/// The small graph families used by E1 (exact optimum still computable).
pub fn small_families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::Gnp { n: 30, p: 0.15 },
        GraphFamily::Grid { rows: 5, cols: 6 },
        GraphFamily::Cycle { n: 30 },
        GraphFamily::Caterpillar { spine: 6, legs: 3 },
        GraphFamily::UnitDisk {
            n: 30,
            radius: 0.35,
        },
        GraphFamily::RandomTree { n: 30 },
    ]
}

/// The larger families used by E2 (compared against the LP dual bound).
pub fn large_families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::Gnp { n: 400, p: 0.02 },
        GraphFamily::Grid { rows: 20, cols: 20 },
        GraphFamily::BarabasiAlbert { n: 400, m: 3 },
        GraphFamily::UnitDisk {
            n: 300,
            radius: 0.12,
        },
    ]
}

/// E1: approximation ratios against the exact optimum on small graphs.
pub fn e1_approximation_vs_exact() -> String {
    let config = MdsConfig::default();
    let mut out =
        String::from("## E1 — approximation ratio vs exact optimum (Theorems 1.1/1.2)\n\n");
    out.push_str(&header(&[
        "family",
        "n",
        "Δ",
        "OPT",
        "greedy",
        "rand. one-shot",
        "Thm 1.1",
        "Thm 1.2",
        "guarantee",
    ]));
    for family in small_families() {
        let g = generators::generate(&family, 11);
        let opt = exact::exact_mds(&g, 64).map(|r| r.size()).unwrap_or(0);
        let greedy_size = greedy::greedy_mds(&g).size();
        let rand_size = randomized::randomized_one_shot(&g, 0.5, 1).size();
        let t11 = theorem_1_1(&g, &config);
        let t12 = theorem_1_2(&g, &config);
        assert!(verify::is_dominating_set(&g, &t11.dominating_set));
        assert!(verify::is_dominating_set(&g, &t12.dominating_set));
        out.push_str(&fmt_row(&[
            family.label(),
            g.n().to_string(),
            g.max_degree().to_string(),
            opt.to_string(),
            format!(
                "{greedy_size} ({:.2}×)",
                greedy_size as f64 / opt.max(1) as f64
            ),
            format!("{rand_size} ({:.2}×)", rand_size as f64 / opt.max(1) as f64),
            format!(
                "{} ({:.2}×)",
                t11.size(),
                t11.size() as f64 / opt.max(1) as f64
            ),
            format!(
                "{} ({:.2}×)",
                t12.size(),
                t12.size() as f64 / opt.max(1) as f64
            ),
            format!("{:.2}×", t11.guarantee(&g)),
        ]));
    }
    out
}

/// E2: approximation against the certified LP dual lower bound on larger
/// graphs.
pub fn e2_approximation_at_scale() -> String {
    let config = MdsConfig::default();
    let mut out = String::from("## E2 — approximation vs LP lower bound at scale\n\n");
    out.push_str(&header(&[
        "family",
        "n",
        "Δ",
        "LP lower bound",
        "greedy",
        "Thm 1.1",
        "Thm 1.2",
        "guarantee",
    ]));
    for family in large_families() {
        let g = generators::generate(&family, 5);
        let lb = lp::dual_lower_bound(&g);
        let greedy_size = greedy::greedy_mds(&g).size();
        let t11 = theorem_1_1(&g, &config);
        let t12 = theorem_1_2(&g, &config);
        out.push_str(&fmt_row(&[
            family.label(),
            g.n().to_string(),
            g.max_degree().to_string(),
            format!("{lb:.1}"),
            format!("{greedy_size} ({:.2}×)", greedy_size as f64 / lb),
            format!("{} ({:.2}×)", t11.size(), t11.size() as f64 / lb),
            format!("{} ({:.2}×)", t12.size(), t12.size() as f64 / lb),
            format!("{:.2}×", t11.guarantee(&g)),
        ]));
    }
    out
}

/// E3: round complexity of the Theorem 1.1 route as `n` grows.
pub fn e3_rounds_vs_n() -> String {
    let config = MdsConfig::default();
    let mut out =
        String::from("## E3 — rounds vs n (Theorem 1.1, network-decomposition route)\n\n");
    out.push_str(&header(&[
        "n",
        "rounds (measured)",
        "rounds (paper formula)",
        "2^sqrt(log n loglog n)",
        "size",
    ]));
    for &n in &[50usize, 100, 200, 400, 800, 1600, 3200, 6400] {
        let g = generators::gnp(n, 8.0 / n as f64, 3);
        let result = theorem_1_1(&g, &config);
        out.push_str(&fmt_row(&[
            n.to_string(),
            result.measured_engine_rounds().to_string(),
            result.ledger.total_formula_rounds().to_string(),
            congest_sim::ledger::formulas::gk18_decomposition_rounds(n).to_string(),
            result.size().to_string(),
        ]));
    }
    out
}

/// E4: round complexity of the Theorem 1.2 route as `Δ` grows (n fixed).
pub fn e4_rounds_vs_delta() -> String {
    let config = MdsConfig::default();
    let mut out = String::from("## E4 — rounds vs Δ (Theorem 1.2, coloring route), n = 300\n\n");
    out.push_str(&header(&[
        "target degree",
        "Δ",
        "rounds (measured)",
        "rounds (paper formula)",
        "size",
    ]));
    for &d in &[4usize, 8, 16, 32] {
        let g = generators::random_regular(300, d, 9);
        let result = theorem_1_2(&g, &config);
        out.push_str(&fmt_row(&[
            d.to_string(),
            g.max_degree().to_string(),
            result.measured_engine_rounds().to_string(),
            result.ledger.total_formula_rounds().to_string(),
            result.size().to_string(),
        ]));
    }
    out
}

/// E5: the size/fractionality trajectory of the doubling loop.
pub fn e5_doubling_trajectory() -> String {
    let config = MdsConfig {
        concentration_scale: 0.0005, // force several factor-two iterations
        ..MdsConfig::default()
    };
    let g = generators::gnp(150, 0.08, 4);
    let result = theorem_1_1(&g, &config);
    let mut out =
        String::from("## E5 — factor-two doubling trajectory (Lemma 3.9 per-step inflation)\n\n");
    out.push_str(&header(&[
        "stage",
        "size",
        "fractionality",
        "size inflation vs previous",
    ]));
    let mut prev: Option<f64> = None;
    for stage in &result.stages {
        let inflation = prev
            .map(|p| format!("{:.3}×", stage.size / p))
            .unwrap_or_else(|| "-".into());
        out.push_str(&fmt_row(&[
            stage.name.clone(),
            format!("{:.2}", stage.size),
            format!("{:.5}", stage.fractionality),
            inflation,
        ]));
        prev = Some(stage.size);
    }
    out
}

/// E6: empirical violation probabilities vs the Lemma 3.6 bound `1/Δ̃`.
pub fn e6_violation_probabilities() -> String {
    let mut out = String::from("## E6 — empirical Pr(E_v = 1) vs the Lemma 3.6 bound\n\n");
    out.push_str(&header(&[
        "family",
        "Δ̃",
        "bound 1/Δ̃",
        "max empirical Pr",
        "mean empirical Pr",
        "trials",
    ]));
    let trials = 400usize;
    for family in [
        GraphFamily::Cycle { n: 60 },
        GraphFamily::Grid { rows: 8, cols: 8 },
        GraphFamily::Gnp { n: 80, p: 0.1 },
    ] {
        let g = generators::generate(&family, 2);
        let x = lp::degree_heuristic(&g);
        let problem = one_shot::on_graph(&g, &x);
        let mut violations = vec![0usize; problem.constraints.len()];
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..trials {
            for &c in &execute_with_rng(&problem, &mut rng).violated_constraints {
                violations[c] += 1;
            }
        }
        let max = violations.iter().copied().max().unwrap_or(0) as f64 / trials as f64;
        let mean = violations.iter().sum::<usize>() as f64
            / (trials as f64 * violations.len().max(1) as f64);
        out.push_str(&fmt_row(&[
            family.label(),
            g.delta_tilde().to_string(),
            format!("{:.4}", 1.0 / g.delta_tilde() as f64),
            format!("{max:.4}"),
            format!("{mean:.4}"),
            trials.to_string(),
        ]));
    }
    out
}

/// E7: the k-wise independent generator (Lemma 3.3) — empirical bias and the
/// quality of rounding under limited independence.
pub fn e7_kwise_independence() -> String {
    let mut out = String::from("## E7 — k-wise independent coins (Lemma 3.3)\n\n");
    out.push_str(&header(&[
        "k",
        "seed bits",
        "empirical bias (target 0.3)",
        "one-shot mean size (k-wise)",
        "one-shot mean size (fully independent)",
    ]));
    let g = generators::gnp(100, 0.08, 6);
    let x = lp::degree_heuristic(&g);
    let problem = one_shot::on_graph(&g, &x);
    let trials = 120usize;
    let mut rng = StdRng::seed_from_u64(3);
    let independent_mean: f64 = (0..trials)
        .map(|_| execute_with_rng(&problem, &mut rng).output.size())
        .sum::<f64>()
        / trials as f64;
    for &k in &[2usize, 4, 16, 64] {
        let mut seed_rng = StdRng::seed_from_u64(17);
        let mut bias_hits = 0usize;
        let mut size_sum = 0.0f64;
        for _ in 0..trials {
            let gen = KWiseGenerator::from_rng(k, &mut seed_rng);
            for point in 0..50u64 {
                if gen.coin(point, 0.3) {
                    bias_hits += 1;
                }
            }
            size_sum += mds_rounding::process::execute_with_kwise(&problem, &gen)
                .output
                .size();
        }
        out.push_str(&fmt_row(&[
            k.to_string(),
            mds_rounding::kwise::seed_length_bits(k).to_string(),
            format!("{:.3}", bias_hits as f64 / (trials as f64 * 50.0)),
            format!("{:.1}", size_sum / trials as f64),
            format!("{independent_mean:.1}"),
        ]));
    }
    out
}

/// E8: connected dominating set overhead (Theorem 1.4).
pub fn e8_cds_overhead() -> String {
    let config = MdsConfig::default();
    let mut out = String::from("## E8 — CDS overhead (Theorem 1.4)\n\n");
    out.push_str(&header(&[
        "family",
        "|S| (Thm 1.1)",
        "|CDS|",
        "overhead",
        "3·|S| (tree bound)",
        "clusters",
        "spanner edges",
        "connected",
    ]));
    for family in [
        GraphFamily::Grid { rows: 10, cols: 10 },
        GraphFamily::UnitDisk {
            n: 150,
            radius: 0.2,
        },
        GraphFamily::Gnp { n: 150, p: 0.04 },
        GraphFamily::BarabasiAlbert { n: 150, m: 2 },
    ] {
        let mut g = generators::generate(&family, 13);
        let mut seed = 13u64;
        while !mds_graphs::analysis::is_connected(&g) && seed < 40 {
            seed += 1;
            g = generators::generate(&family, seed);
        }
        if !mds_graphs::analysis::is_connected(&g) {
            continue;
        }
        let mds = theorem_1_1(&g, &config);
        let cds = connect_dominating_set(&g, &mds.dominating_set, &CdsConfig::default());
        let ok = is_connected_dominating_set(&g, &cds.cds);
        out.push_str(&fmt_row(&[
            family.label(),
            mds.size().to_string(),
            cds.size().to_string(),
            format!("{:.2}×", cds.overhead()),
            (3 * mds.size()).to_string(),
            cds.num_clusters.to_string(),
            cds.spanner_edges.to_string(),
            ok.to_string(),
        ]));
    }
    out
}

/// E9: ablations — estimator choice, fractional solver choice, one-shot-only
/// vs full pipeline.
pub fn e9_ablations() -> String {
    let g = generators::gnp(120, 0.07, 21);
    let opt_proxy = greedy::greedy_mds(&g).size() as f64;
    let mut out =
        String::from("## E9 — ablations (estimator, fractional solver, pipeline depth)\n\n");
    out.push_str(&header(&["variant", "size", "vs greedy", "notes"]));
    let mut rows: Vec<[String; 4]> = Vec::new();

    for (label, estimator) in [
        ("exact/auto estimator", EstimatorKind::default()),
        ("Chernoff pessimistic estimator", EstimatorKind::Chernoff),
        (
            "coarse DP estimator (64 buckets)",
            EstimatorKind::ExactDp { resolution: 64 },
        ),
    ] {
        let config = MdsConfig {
            estimator,
            ..MdsConfig::default()
        };
        let r = theorem_1_1(&g, &config);
        rows.push([
            label.to_string(),
            r.size().to_string(),
            format!("{:.2}×", r.size() as f64 / opt_proxy),
            "Theorem 1.1 route".to_string(),
        ]);
    }

    let config = MdsConfig {
        fractional: FractionalMethod::Kw05,
        ..MdsConfig::default()
    };
    let r = theorem_1_1(&g, &config);
    rows.push([
        "KW05 local fractional solver".to_string(),
        r.size().to_string(),
        format!("{:.2}×", r.size() as f64 / opt_proxy),
        "Part I ablation".to_string(),
    ]);

    let config = MdsConfig {
        max_doubling_iterations: 0,
        ..MdsConfig::default()
    };
    let r = theorem_1_1(&g, &config);
    rows.push([
        "one-shot only (skip Part II)".to_string(),
        r.size().to_string(),
        format!("{:.2}×", r.size() as f64 / opt_proxy),
        "why gradual rounding matters".to_string(),
    ]);

    let rand_mean: f64 = (0..10)
        .map(|s| randomized::randomized_one_shot(&g, 0.5, s).size() as f64)
        .sum::<f64>()
        / 10.0;
    rows.push([
        "randomized one-shot (mean of 10)".to_string(),
        format!("{:.0}", rand_mean),
        format!("{:.2}×", rand_mean / opt_proxy),
        "the process the paper derandomizes".to_string(),
    ]);

    for row in rows {
        out.push_str(&fmt_row(&row));
    }
    out
}

/// E10: network decomposition quality vs the `O(log n)` targets.
pub fn e10_decomposition_quality() -> String {
    let mut out =
        String::from("## E10 — network decomposition quality (Definition 3.2 objects)\n\n");
    out.push_str(&header(&[
        "family",
        "n",
        "colors c",
        "diameter d",
        "log2 n",
        "clusters",
        "valid",
    ]));
    for family in [
        GraphFamily::Grid { rows: 15, cols: 15 },
        GraphFamily::Gnp { n: 300, p: 0.02 },
        GraphFamily::RandomTree { n: 300 },
        GraphFamily::Cycle { n: 256 },
    ] {
        let g = generators::generate(&family, 7);
        let nd = strong_diameter_decomposition(&g, 2, &DecompositionConfig::default());
        let valid = nd.verify(&g).is_ok();
        out.push_str(&fmt_row(&[
            family.label(),
            g.n().to_string(),
            nd.num_colors().to_string(),
            nd.diameter().to_string(),
            format!("{:.1}", (g.n() as f64).log2()),
            nd.clusters.len().to_string(),
            valid.to_string(),
        ]));
    }
    out
}

/// Runs one experiment by id (`"e1"`..`"e10"`) and returns its Markdown
/// table. Returns `None` for any other id.
pub fn run_experiment(id: &str) -> Option<String> {
    Some(match id {
        "e1" => e1_approximation_vs_exact(),
        "e2" => e2_approximation_at_scale(),
        "e3" => e3_rounds_vs_n(),
        "e4" => e4_rounds_vs_delta(),
        "e5" => e5_doubling_trajectory(),
        "e6" => e6_violation_probabilities(),
        "e7" => e7_kwise_independence(),
        "e8" => e8_cds_overhead(),
        "e9" => e9_ablations(),
        "e10" => e10_decomposition_quality(),
        _ => return None,
    })
}

/// Schema version stamped into the benchmark JSON. The perf-trend CI job
/// refuses to compare files with different versions, so bump this whenever a
/// field is added, removed or changes meaning — and regenerate
/// `BENCH_baseline.json` in the same commit.
///
/// v3 added the `"executor"` field (`"sync"` for the historical rows,
/// `"pooled4"` for the persistent-pool runs of the Theorem 1.2 route at
/// [`POOLED_BENCH_MIN_N`] nodes and above) and made it part of the run
/// identity the trend gate matches on.
///
/// v4 added the `"transport"` field — `"arena"` for every in-process-arena
/// executor row, `"channels"` for the serialized channel-backend rows of the
/// Theorem 1.2 route at `n = 10³` (`"executor": "channels4"`) — and made it
/// the fourth component of the run identity.
///
/// v5 added the `"payloads"` field: payloads *stored* by the engine per the
/// ledger, as opposed to the `"messages"` the CONGEST model charges. A
/// broadcast stores one payload and charges `deg(v)` messages, so the ratio
/// `messages / payloads` is the fan-out the broadcast fast path avoids
/// materializing; the trend gate pins the count exactly. v5 also extended the
/// sweep past [`SYNC_BENCH_MAX_N`]: above it only the `"pooled4"` row runs
/// (the sequential reference would double the sweep's wall budget at
/// `n = 10⁶`), so determinism there is pinned by the baseline comparison
/// instead of an in-process assert.
///
/// v6 added the `"measured_netdecomp_rounds"` field: engine rounds of the
/// measured GK18 carving-wave phase of the Theorem 1.1 route (zero on the
/// coloring route). Until v6 the network decomposition was a centrally
/// simulated *charged* phase; now that the carving schedule runs on the
/// engine, the trend gate pins its per-instance round cost exactly, just
/// like the coloring rounds.
///
/// v7 removed the `"transport"` field together with the channel backend and
/// its `"channels4"` row: every remaining row runs over the in-process
/// arena, so the run identity is `(graph, route, executor)` again.
///
/// v8 added the `"wall_netdecomp_ms"` field and made every wall bucket a
/// sum over the ledger's measured phases of one `PhaseKind` instead of a
/// match on phase names. Until v8 the measured GK18 carving of the
/// Theorem 1.1 route fell into `"wall_derand_ms"`; now it has its own
/// bucket, and `"wall_derand_ms"` holds only the coin fixing. Every exact
/// field is unchanged.
pub const BENCH_SCHEMA_VERSION: u32 = 8;

/// Smallest `n` at which the benchmark additionally times the Theorem 1.2
/// route on the 4-thread persistent-pool executor. Below this the run is
/// dominated by setup and the pool column would only measure noise.
pub const POOLED_BENCH_MIN_N: usize = 1000;

/// Largest `n` at which the benchmark runs the sequential `SyncExecutor`
/// reference alongside the pooled executor. Above this only the `"pooled4"`
/// row is produced: at `n = 10⁶` the sequential run roughly doubles the
/// sweep's wall time while adding no information the baseline's exact
/// round/message/payload gate does not already pin.
pub const SYNC_BENCH_MAX_N: usize = 100_000;

/// The instance a sweep size maps to: the historical `G(n, 8/n)` instances
/// for the seed sizes (so trend lines stay comparable across PRs) and sparse
/// `G(n, m=4n)` for the extended sizes, where the `O(n²)` `gnp` pair walk is
/// no longer affordable and the integer-only `gnm` sampler keeps the graph —
/// and therefore the round/message gate — identical on every platform.
pub fn bench_family(n: usize) -> GraphFamily {
    if n <= 200 {
        GraphFamily::Gnp {
            n,
            p: 8.0 / n.max(9) as f64,
        }
    } else {
        GraphFamily::Gnm { n, m: 4 * n }
    }
}

/// The sweep sizes for a given ceiling: the three seed sizes plus decade
/// steps `10³, 10⁴, …` up to and including `max_n`.
pub fn sweep_sizes(max_n: usize) -> Vec<usize> {
    let mut sizes = JSON_BENCH_SIZES.to_vec();
    let mut n = 1000usize;
    while n <= max_n {
        sizes.push(n);
        n = n.saturating_mul(10);
    }
    sizes
}

/// Engine wall time of the measured phases of `kind`, in milliseconds.
fn kind_wall_ms(ledger: &RoundLedger, kind: PhaseKind) -> f64 {
    // `+ 0.0` normalizes the `-0.0` an empty `Sum<f64>` starts from, so
    // routes without a matching phase print `0.000`, not `-0.000`.
    ledger
        .phases()
        .iter()
        .filter(|p| p.mode == PhaseMode::Measured && p.kind == kind)
        .map(|p| p.wall_nanos as f64 / 1e6)
        .sum::<f64>()
        + 0.0
}

/// One benchmark JSON run line for a completed pipeline result.
fn bench_entry(
    g: &Graph,
    family_label: &str,
    route: &str,
    executor: &str,
    r: &MdsResult,
    wall_ms: f64,
) -> String {
    let [mwu_ms, coloring_ms, netdecomp_ms, derand_ms] = [
        PhaseKind::Fractional,
        PhaseKind::Coloring,
        PhaseKind::NetDecomp,
        PhaseKind::Derandomization,
    ]
    .map(|kind| kind_wall_ms(&r.ledger, kind));
    let other_ms = (wall_ms - mwu_ms - coloring_ms - netdecomp_ms - derand_ms).max(0.0);
    format!(
        concat!(
            "    {{\"n\": {}, \"m\": {}, \"max_degree\": {}, \"graph\": \"{}\", ",
            "\"route\": \"{}\", \"executor\": \"{}\", ",
            "\"size\": {}, \"lp_lower_bound\": {:.3}, ",
            "\"measured_engine_rounds\": {}, \"measured_coloring_rounds\": {}, ",
            "\"measured_netdecomp_rounds\": {}, ",
            "\"simulated_rounds\": {}, ",
            "\"formula_rounds\": {}, \"messages\": {}, \"payloads\": {}, ",
            "\"wall_ms\": {:.3}, ",
            "\"wall_mwu_ms\": {:.3}, \"wall_coloring_ms\": {:.3}, ",
            "\"wall_netdecomp_ms\": {:.3}, ",
            "\"wall_derand_ms\": {:.3}, \"wall_other_ms\": {:.3}}}"
        ),
        g.n(),
        g.m(),
        g.max_degree(),
        family_label,
        route,
        executor,
        r.size(),
        r.lp_lower_bound,
        r.measured_engine_rounds(),
        r.measured_coloring_rounds(),
        r.measured_netdecomp_rounds(),
        r.ledger.total_simulated_rounds(),
        r.ledger.total_formula_rounds(),
        r.ledger.total_messages(),
        r.ledger.total_payloads(),
        wall_ms,
        mwu_ms,
        coloring_ms,
        netdecomp_ms,
        derand_ms,
        other_ms,
    )
}

/// Machine-readable pipeline benchmark: runs both theorem routes of the
/// *composed* engine pipeline over a size sweep and reports, per run, the
/// instance shape, the dominating-set size, measured vs paper-formula round
/// totals, wall time and its per-phase breakdown — the JSON written to
/// `BENCH_pipeline.json` by `experiments --json` and gated against
/// `BENCH_baseline.json` by the CI perf-trend job.
///
/// The Theorem 1.1 route runs on the sequential executor only, so it stops
/// at [`SYNC_BENCH_MAX_N`]; sizes at or above [`POOLED_BENCH_MIN_N`] additionally
/// time the Theorem 1.2 route on the 4-thread persistent-pool executor
/// (`"executor": "pooled4"`), asserting its rounds, messages and solution
/// bit-identical to the sequential run so the extra row can only ever differ
/// in wall time. Sizes above [`SYNC_BENCH_MAX_N`] drop the sequential reference and
/// produce the `"pooled4"` row alone; its determinism is pinned by the
/// baseline's exact field gate. The wall breakdown sums the measured phases'
/// engine wall time by [`PhaseKind`]: `mwu` (`Fractional`, the Part I LP),
/// `coloring` (`Coloring`, the Lemma 3.12 distance-two coloring), `netdecomp`
/// (`NetDecomp`, the GK18 carving of the Theorem 1.1 route), `derand`
/// (`Derandomization`, the scheduled coin fixing), and `other` (the
/// remainder: central bookkeeping, charged simulations, graph-local setup).
pub fn pipeline_benchmark_json(sizes: &[usize]) -> String {
    let config = MdsConfig::default();
    let mut entries = Vec::new();
    for &n in sizes {
        let family = bench_family(n);
        let g = generators::generate(&family, 3);
        for route in ["theorem_1_1", "theorem_1_2"] {
            let reference = if n <= SYNC_BENCH_MAX_N {
                let start = std::time::Instant::now();
                let r = if route == "theorem_1_1" {
                    theorem_1_1(&g, &config)
                } else {
                    theorem_1_2(&g, &config)
                };
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                assert!(verify::is_dominating_set(&g, &r.dominating_set));
                entries.push(bench_entry(&g, &family.label(), route, "sync", &r, wall_ms));
                Some(r)
            } else {
                None
            };
            if route == "theorem_1_2" && n >= POOLED_BENCH_MIN_N {
                let start = std::time::Instant::now();
                let pooled = theorem_1_2_on(&g, &config, &PooledExecutor::new(4));
                let pooled_ms = start.elapsed().as_secs_f64() * 1e3;
                if let Some(r) = &reference {
                    assert_eq!(
                        pooled.dominating_set, r.dominating_set,
                        "pooled run diverged from sequential at n = {n}"
                    );
                    assert_eq!(
                        pooled.ledger, r.ledger,
                        "pooled ledger diverged from sequential at n = {n}"
                    );
                } else {
                    assert!(verify::is_dominating_set(&g, &pooled.dominating_set));
                }
                entries.push(bench_entry(
                    &g,
                    &family.label(),
                    route,
                    "pooled4",
                    &pooled,
                    pooled_ms,
                ));
            }
        }
    }
    format!(
        concat!(
            "{{\n  \"benchmark\": \"pipeline\",\n",
            "  \"schema_version\": {},\n",
            "  \"runs\": [\n{}\n  ]\n}}\n"
        ),
        BENCH_SCHEMA_VERSION,
        entries.join(",\n")
    )
}

/// Writes [`pipeline_benchmark_json`] over the given size sweep to `path`.
///
/// # Errors
///
/// Propagates the I/O error if `path` is not writable.
pub fn write_pipeline_benchmark(path: &str, sizes: &[usize]) -> std::io::Result<()> {
    std::fs::write(path, pipeline_benchmark_json(sizes))
}

/// The seed size sweep `experiments --json` uses by default; `--max-n`
/// extends it with decade steps via [`sweep_sizes`].
pub const JSON_BENCH_SIZES: [usize; 3] = [50, 100, 200];

pub mod flood;
pub mod trend;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_experiments_produce_tables() {
        for id in ["e5", "e6", "e10"] {
            let table = run_experiment(id).expect("known experiment id");
            assert!(table.contains('|'), "{id} produced no table");
            assert!(table.contains("##"), "{id} has no heading");
        }
    }

    #[test]
    fn unknown_experiment_is_reported() {
        assert!(run_experiment("e99").is_none());
    }

    #[test]
    fn pipeline_benchmark_json_carries_measured_and_formula_rounds() {
        let json = pipeline_benchmark_json(&[30]);
        for key in [
            "\"benchmark\": \"pipeline\"",
            "\"schema_version\": 8",
            "\"graph\": \"gnp_n30_",
            "\"route\": \"theorem_1_1\"",
            "\"route\": \"theorem_1_2\"",
            "\"executor\": \"sync\"",
            "\"measured_engine_rounds\"",
            "\"measured_coloring_rounds\"",
            "\"measured_netdecomp_rounds\"",
            "\"simulated_rounds\"",
            "\"formula_rounds\"",
            "\"payloads\"",
            "\"wall_ms\"",
            "\"wall_mwu_ms\"",
            "\"wall_coloring_ms\"",
            "\"wall_netdecomp_ms\"",
            "\"wall_derand_ms\"",
            "\"wall_other_ms\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Two routes over one size; below POOLED_BENCH_MIN_N there is no
        // extra pooled-executor row.
        assert_eq!(json.matches("\"route\"").count(), 2);
        assert!(!json.contains("pooled4"));
        assert!(!json.contains("\"transport\""));
        // The decomposition route never colors; the coloring route measures
        // its Lemma 3.12 phases on the engine.
        assert!(json.contains("\"route\": \"theorem_1_1\", \"executor\": \"sync\", \"size\""));
        let coloring_route = json
            .lines()
            .find(|l| l.contains("theorem_1_2"))
            .expect("theorem_1_2 entry present");
        assert!(!coloring_route.contains("\"measured_coloring_rounds\": 0"));
        assert!(coloring_route.contains("\"measured_netdecomp_rounds\": 0"));
        assert!(coloring_route.contains("\"wall_netdecomp_ms\": 0.000"));
        let nd_route = json
            .lines()
            .find(|l| l.contains("theorem_1_1"))
            .expect("theorem_1_1 entry present");
        assert!(nd_route.contains("\"measured_coloring_rounds\": 0"));
        assert!(!nd_route.contains("\"measured_netdecomp_rounds\": 0"));
        assert!(nd_route.contains("\"wall_coloring_ms\": 0.000"));
    }

    #[test]
    fn wall_buckets_take_each_measured_phase_by_kind_and_no_charged_phase() {
        let field = |line: &str, key: &str| -> f64 {
            let rest = line.split(&format!("\"{key}\": ")).nth(1).unwrap();
            rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
        };
        let g = generators::gnp(40, 0.12, 7);
        for r in [
            theorem_1_1(&g, &MdsConfig::default()),
            theorem_1_2(&g, &MdsConfig::default()),
        ] {
            let phases = r.ledger.phases();
            assert!(phases
                .iter()
                .all(|p| (p.mode == PhaseMode::Measured) == (p.wall_nanos > 0)));
            // One second of wall outside every phase lands in "other" only.
            let measured_ms = phases.iter().map(|p| p.wall_nanos).sum::<u64>() as f64 / 1e6;
            let line = bench_entry(&g, "g", "route", "sync", &r, measured_ms + 1000.0);
            assert!(
                (field(&line, "wall_other_ms") - 1000.0).abs() < 1e-3,
                "{line}"
            );
            for (kind, key) in [
                (PhaseKind::Fractional, "wall_mwu_ms"),
                (PhaseKind::Coloring, "wall_coloring_ms"),
                (PhaseKind::NetDecomp, "wall_netdecomp_ms"),
                (PhaseKind::Derandomization, "wall_derand_ms"),
            ] {
                let own = phases.iter().filter(|p| p.kind == kind);
                let want = own.map(|p| p.wall_nanos).sum::<u64>() as f64 / 1e6;
                assert!((field(&line, key) - want).abs() < 1e-3, "{key}: {line}");
            }
        }
    }

    #[test]
    fn sweep_sizes_extend_the_seed_sweep_by_decades() {
        assert_eq!(sweep_sizes(0), vec![50, 100, 200]);
        assert_eq!(sweep_sizes(999), vec![50, 100, 200]);
        assert_eq!(sweep_sizes(1000), vec![50, 100, 200, 1000]);
        assert_eq!(
            sweep_sizes(100_000),
            vec![50, 100, 200, 1000, 10_000, 100_000]
        );
    }

    #[test]
    fn theorem_1_1_route_is_capped_in_the_sweep() {
        // The seed sizes stay on gnp; extended sizes switch to gnm.
        assert!(matches!(bench_family(200), GraphFamily::Gnp { .. }));
        assert!(matches!(
            bench_family(1000),
            GraphFamily::Gnm { n: 1000, m: 4000 }
        ));
        // The Theorem 1.1 route runs wherever the sequential reference does;
        // above SYNC_BENCH_MAX_N only the coloring route's pooled row runs.
        let json = pipeline_benchmark_json(&[30]);
        assert!(json.contains("theorem_1_1"), "below cap: both routes");
    }
}

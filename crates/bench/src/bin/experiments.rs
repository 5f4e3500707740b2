//! Experiment driver: prints the E1–E10 experiment tables as Markdown on
//! stdout, writes the machine-readable pipeline benchmark, prints the
//! perf-trend comparison and the raw-executor scale sweep.
//!
//! Usage:
//!
//! ```console
//! $ cargo run --release -p mds_bench --bin experiments -- [--exp e1|...|e10|all]
//! $ cargo run --release -p mds_bench --bin experiments -- --json [path] [--max-n N]
//! $ cargo run --release -p mds_bench --bin experiments -- --compare BASELINE CURRENT
//! $ cargo run --release -p mds_bench --bin experiments -- --executor-sweep [max_n]
//! ```
//!
//! `--json` runs both composed pipeline routes over the size sweep (the seed
//! sizes 50/100/200, extended by `--max-n` to decade steps — sizes beyond
//! 10⁵ run the Theorem 1.2 route only) and writes sizes, measured vs
//! paper-formula round counts, wall times and the per-phase wall breakdown
//! to `BENCH_pipeline.json` (or the given path).
//!
//! `--compare` parses two such files, prints the trend table (Markdown — CI
//! pipes it into `GITHUB_STEP_SUMMARY`) and exits nonzero on any violation:
//! exact drift in rounds/messages/sizes, a wall-time regression beyond the
//! 30% / 100 ms gate, a schema mismatch, or a missing run.
//!
//! `--exp all` (the default) prints the ten tables in order, each followed by
//! a blank line and flushed as soon as it is done, so a table that fails
//! leaves the finished ones on stdout. `--exp` with no id, or with an id
//! other than `e1`..`e10` / `all`, is a usage error (exit code 2).
//!
//! `--executor-sweep` runs the flood throughput benchmark on cycles, sparse
//! `G(n, 2n)` graphs, stars and unit-disk graphs, plus its sleeping variant
//! on the `G(n, 2n)` and unit-disk graphs, at decade sizes up to `max_n`
//! (default 10⁶) on the sequential executor and the worker pool and prints
//! the speedup table.

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(baseline), Some(current)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!("usage: experiments --compare <baseline.json> <current.json>");
            std::process::exit(2);
        };
        match mds_bench::trend::compare_files(baseline, current) {
            Ok(report) => {
                println!("### Perf trend: {current} vs baseline {baseline}\n");
                println!("{}", report.table);
                if report.is_green() {
                    println!(
                        "perf trend: OK ({} runs compared)",
                        report.table.lines().count().saturating_sub(2)
                    );
                } else {
                    println!("\n**Violations:**\n");
                    for v in &report.violations {
                        println!("- {v}");
                    }
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("perf trend comparison failed: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--executor-sweep") {
        let max_n = args
            .get(i + 1)
            .and_then(|a| a.parse().ok())
            .unwrap_or(1_000_000);
        print!("{}", mds_bench::flood::executor_sweep_markdown(max_n));
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--json") {
        let path = args
            .get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("BENCH_pipeline.json");
        let sizes = match args.iter().position(|a| a == "--max-n") {
            Some(j) => {
                let max_n = args
                    .get(j + 1)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("usage: experiments --json [path] --max-n <N>");
                        std::process::exit(2);
                    });
                mds_bench::sweep_sizes(max_n)
            }
            None => mds_bench::JSON_BENCH_SIZES.to_vec(),
        };
        mds_bench::write_pipeline_benchmark(path, &sizes)
            .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote {path} (sizes: {sizes:?})");
        return;
    }
    let exp = match args.iter().position(|a| a == "--exp") {
        None => "all",
        Some(i) => match args.get(i + 1).filter(|a| !a.starts_with("--")) {
            Some(id) => id.as_str(),
            None => {
                eprintln!("usage: experiments --exp <e1..e10|all>");
                std::process::exit(2);
            }
        },
    };
    let (ids, separator) = match exp {
        "all" => ((1..=10).map(|i| format!("e{i}")).collect(), "\n"),
        id => (vec![id.to_owned()], ""),
    };
    for id in ids {
        let Some(table) = mds_bench::run_experiment(&id) else {
            eprintln!("unknown experiment id {exp:?}; expected e1..e10 or all");
            std::process::exit(2);
        };
        print!("{table}{separator}");
        std::io::stdout().flush().expect("stdout is writable");
    }
}

//! Golden-trajectory regression: the per-phase ledger records and the stage
//! trajectory of a fixed-seed Theorem 1.1, Theorem 1.2 and Corollary 1.3 run
//! are serialized field-by-field and compared against the checked-in files
//! under `tests/golden/`, so future refactors cannot silently change the
//! round accounting of any route. Wall time is host-dependent and never
//! serialized.
//!
//! On mismatch the actual serialization is written to
//! `target/golden-actual/<route>.txt` (uploaded as a CI artifact) and the
//! first differing fields are reported. After an *intentional* accounting
//! change, regenerate with:
//!
//! ```console
//! $ UPDATE_GOLDEN=1 cargo test --test golden_trajectory
//! ```

use congest_mds::congest::PhaseMode;
use congest_mds::graphs::generators;
use congest_mds::mds::pipeline::{corollary_1_3, theorem_1_1, theorem_1_2, MdsConfig, MdsResult};
use std::fmt::Write as _;
use std::path::PathBuf;

const GRAPH_N: usize = 40;
const GRAPH_P: f64 = 0.12;
const GRAPH_SEED: u64 = 7;

/// Serializes every accounting field of a pipeline result into a stable,
/// line-per-field text form.
fn serialize(route: &str, result: &MdsResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Golden cost trajectory — regenerate with UPDATE_GOLDEN=1 cargo test --test golden_trajectory"
    );
    let _ = writeln!(out, "route={route}");
    let _ = writeln!(out, "graph=gnp n={GRAPH_N} p={GRAPH_P} seed={GRAPH_SEED}");
    let _ = writeln!(out, "set_size={}", result.size());
    for (i, p) in result.ledger.phases().iter().enumerate() {
        let mode = match p.mode {
            PhaseMode::Measured => "measured",
            PhaseMode::Charged => "charged",
        };
        let _ = writeln!(out, "phase[{i}].name={}", p.name);
        let _ = writeln!(out, "phase[{i}].mode={mode}");
        let _ = writeln!(out, "phase[{i}].rounds={}", p.simulated_rounds);
        let _ = writeln!(out, "phase[{i}].messages={}", p.messages);
    }
    for (i, p) in result.ledger.phases().iter().enumerate() {
        let _ = writeln!(out, "ledger[{i}].name={}", p.name);
        let _ = writeln!(out, "ledger[{i}].simulated_rounds={}", p.simulated_rounds);
        let _ = writeln!(
            out,
            "ledger[{i}].formula_rounds={}",
            p.formula_rounds
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".to_owned())
        );
        let _ = writeln!(out, "ledger[{i}].messages={}", p.messages);
    }
    let _ = writeln!(
        out,
        "totals.simulated_rounds={}",
        result.ledger.total_simulated_rounds()
    );
    let _ = writeln!(
        out,
        "totals.formula_rounds={}",
        result.ledger.total_formula_rounds()
    );
    let _ = writeln!(out, "totals.messages={}", result.ledger.total_messages());
    let _ = writeln!(
        out,
        "totals.measured_engine_rounds={}",
        result.measured_engine_rounds()
    );
    let _ = writeln!(
        out,
        "totals.measured_coloring_rounds={}",
        result.measured_coloring_rounds()
    );
    let _ = writeln!(
        out,
        "totals.measured_netdecomp_rounds={}",
        result.measured_netdecomp_rounds()
    );
    for (i, s) in result.stages.iter().enumerate() {
        let _ = writeln!(out, "stage[{i}].name={}", s.name);
        let _ = writeln!(out, "stage[{i}].size={}", s.size);
        let _ = writeln!(out, "stage[{i}].fractionality={}", s.fractionality);
    }
    out
}

/// The `key=value` fields of a serialization, comments and blanks dropped.
fn fields(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| match l.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (l.to_owned(), String::new()),
        })
        .collect()
}

fn compare_against_golden(route: &str, result: &MdsResult) {
    let actual = serialize(route, result);
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{route}.txt"));

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &actual).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        stash_actual(route, &actual);
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_trajectory",
            golden_path.display()
        )
    });

    let want = fields(&golden);
    let got = fields(&actual);
    let mut diffs: Vec<String> = Vec::new();
    for i in 0..want.len().max(got.len()) {
        match (want.get(i), got.get(i)) {
            (Some(w), Some(g)) if w == g => {}
            (w, g) => diffs.push(format!(
                "  field #{i}: golden {:?} vs actual {:?}",
                w.map(|(k, v)| format!("{k}={v}")),
                g.map(|(k, v)| format!("{k}={v}"))
            )),
        }
    }
    if !diffs.is_empty() {
        stash_actual(route, &actual);
        let shown = diffs.len().min(12);
        panic!(
            "{route}: round accounting diverged from tests/golden/{route}.txt in {} field(s):\n{}\n\
             (full actual serialization stashed in target/golden-actual/{route}.txt; \
             if the change is intentional, regenerate with UPDATE_GOLDEN=1)",
            diffs.len(),
            diffs[..shown].join("\n")
        );
    }
}

/// Writes the actual serialization where CI can pick it up as an artifact.
fn stash_actual(route: &str, actual: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/golden-actual");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{route}.txt")), actual);
    }
}

#[test]
fn theorem_1_1_trajectory_matches_golden() {
    let g = generators::gnp(GRAPH_N, GRAPH_P, GRAPH_SEED);
    let result = theorem_1_1(&g, &MdsConfig::default());
    compare_against_golden("theorem_1_1", &result);
}

#[test]
fn theorem_1_2_trajectory_matches_golden() {
    let g = generators::gnp(GRAPH_N, GRAPH_P, GRAPH_SEED);
    let result = theorem_1_2(&g, &MdsConfig::default());
    compare_against_golden("theorem_1_2", &result);
}

#[test]
fn corollary_1_3_trajectory_matches_golden() {
    let g = generators::gnp(GRAPH_N, GRAPH_P, GRAPH_SEED);
    let result = corollary_1_3(&g, &MdsConfig::default());
    compare_against_golden("corollary_1_3", &result);
}

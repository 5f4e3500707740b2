//! Exit codes of the `experiments` binary's `--exp` selector: a missing or
//! unknown experiment id is a usage error, never a silent fallback.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn unknown_experiment_id_is_a_usage_error() {
    let out = experiments(&["--exp", "e99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment id \"e99\""));
}

#[test]
fn exp_without_an_id_is_a_usage_error() {
    for args in [&["--exp"][..], &["--exp", "--max-n"]] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: experiments --exp"));
    }
}

#[test]
fn known_experiment_id_prints_its_table() {
    let out = experiments(&["--exp", "e5"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains('|'));
}

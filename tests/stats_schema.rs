//! Golden-file tests for the `--stats-json` sidecar schema.
//!
//! The sidecar is a machine-readable contract: downstream tooling (the
//! bench reporter, `scripts/lint_report.py`, CI diff legs) keys on exact
//! field names. These tests pin the key *lists and order* per subcommand
//! and the semantics of the shared fields (`schema_version`,
//! `inprocess`, `degraded`) so a rename or reorder is a deliberate,
//! reviewed schema bump rather than an accident.

use std::path::PathBuf;
use std::process::Command;

use serde::Value;

const STATS_SCHEMA_VERSION: u64 = 3;

fn run_with_stats(args: &[&str], name: &str) -> (std::process::Output, Value) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("stats_schema_{name}_{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_mmsynth"))
        .args(args)
        .arg("--stats-json")
        .arg(&path)
        .output()
        .expect("mmsynth runs");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "stats file missing for {name}: {e}; stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    let _ = std::fs::remove_file(&path);
    (output, serde_json::from_str(&text).expect("stats parse"))
}

fn keys(stats: &Value) -> Vec<String> {
    match stats {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("stats is not an object: {other:?}"),
    }
}

fn get(stats: &Value, key: &str) -> Value {
    match stats {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("stats field {key} missing")),
        other => panic!("stats is not an object: {other:?}"),
    }
}

#[test]
fn synth_stats_schema_is_stable() {
    let (output, stats) = run_with_stats(
        &["synth", "--function", "xor2", "--rops", "2", "--steps", "3"],
        "synth",
    );
    assert!(output.status.success());
    assert_eq!(
        keys(&stats),
        [
            "schema_version",
            "command",
            "function",
            "result",
            "n_vars",
            "n_clauses",
            "solver_stats",
        ]
    );
    assert_eq!(
        get(&stats, "schema_version"),
        Value::UInt(STATS_SCHEMA_VERSION)
    );
    assert_eq!(get(&stats, "command"), Value::Str("synth".into()));
    assert_eq!(get(&stats, "result"), Value::Str("realizable".into()));
}

#[test]
fn minimize_stats_schema_is_stable() {
    // One worker: with more, a rung can be cancelled by a cheaper SAT rung
    // before its first propagation and truthfully record zero work.
    let (output, stats) = run_with_stats(
        &[
            "minimize",
            "--function",
            "xor2",
            "--max-rops",
            "2",
            "--jobs",
            "1",
        ],
        "minimize",
    );
    assert!(output.status.success());
    assert_eq!(
        keys(&stats),
        [
            "schema_version",
            "command",
            "function",
            "proven_optimal",
            "degraded",
            "inprocess",
            "n_calls",
            "certified_unsat",
            "total_solver_time_us",
            "calls",
        ]
    );
    assert_eq!(
        get(&stats, "schema_version"),
        Value::UInt(STATS_SCHEMA_VERSION)
    );
    assert_eq!(get(&stats, "command"), Value::Str("minimize".into()));
    // Inprocessing is on by default and this run completes.
    assert_eq!(get(&stats, "inprocess"), Value::Bool(true));
    assert_eq!(get(&stats, "degraded"), Value::Bool(false));
    // Every call record carries the solver work behind it.
    let Value::Array(calls) = get(&stats, "calls") else {
        panic!("calls is not an array");
    };
    assert!(!calls.is_empty());
    for call in &calls {
        assert!(matches!(get(call, "conflicts"), Value::UInt(_)), "{call:?}");
        assert!(matches!(get(call, "propagations"), Value::UInt(n) if n > 0));
    }
}

#[test]
fn minimize_stats_track_the_inprocess_flag() {
    let (output, stats) = run_with_stats(
        &[
            "minimize",
            "--function",
            "xor2",
            "--max-rops",
            "2",
            "--no-inprocess",
        ],
        "no_inprocess",
    );
    assert!(output.status.success());
    assert_eq!(get(&stats, "inprocess"), Value::Bool(false));
}

#[test]
fn minimize_stats_report_degradation_and_exit_2() {
    let (output, stats) = run_with_stats(
        &[
            "minimize",
            "--function",
            "xor2",
            "--max-rops",
            "2",
            "--deadline",
            "0",
        ],
        "degraded",
    );
    assert_eq!(
        output.status.code(),
        Some(2),
        "degraded runs exit 2 (inconclusive)"
    );
    assert_eq!(get(&stats, "degraded"), Value::Bool(true));
    assert_eq!(get(&stats, "proven_optimal"), Value::Bool(false));
}

#[test]
fn fuzz_stats_schema_is_stable() {
    let (output, stats) = run_with_stats(&["fuzz", "--seed", "42", "--budget", "3"], "fuzz");
    assert!(output.status.success());
    assert_eq!(
        keys(&stats),
        [
            "schema_version",
            "command",
            "seed",
            "budget",
            "scenarios",
            "degraded_scenarios",
            "violations",
            "fingerprint",
            "archived",
        ]
    );
    assert_eq!(
        get(&stats, "schema_version"),
        Value::UInt(STATS_SCHEMA_VERSION)
    );
    assert_eq!(get(&stats, "command"), Value::Str("fuzz".into()));
    assert_eq!(get(&stats, "seed"), Value::UInt(42));
    assert_eq!(get(&stats, "scenarios"), Value::UInt(3));
    assert_eq!(get(&stats, "violations"), Value::UInt(0));
    match get(&stats, "fingerprint") {
        Value::Str(hex) => {
            assert_eq!(hex.len(), 16, "fingerprint is a zero-padded u64 hex string");
            assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        }
        other => panic!("fingerprint is not a string: {other:?}"),
    }
}

//! `mmsynth` and `mmsynthd` reject what they cannot read: a subcommand
//! `mmsynth` does not have, a flag the command does not know, or a count
//! that is missing, does not parse or does not fit, exits 1 with an error
//! naming the word, flag (and value) instead of running with a default.

use std::process::{Command, Output};

fn mmsynth(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmsynth"))
        .args(args)
        .output()
        .expect("mmsynth runs")
}

fn assert_rejected(output: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{needle:?} not in stderr: {stderr}"
        );
    }
    assert!(output.stdout.is_empty(), "nothing ran, so nothing printed");
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    let out = mmsynth(&[
        "minimize",
        "--function",
        "xor2",
        "--max-rops",
        "3",
        "--max-steps",
        "2",
        "--certfy",
        "--bogus-flag",
    ]);
    assert_rejected(&out, &["--certfy", "minimize"]);
    // A flag another subcommand reads is still foreign here.
    let out = mmsynth(&["run", "--function", "xor2", "--input", "01", "--jobs", "2"]);
    assert_rejected(&out, &["--jobs", "run"]);
}

#[test]
fn malformed_numbers_are_rejected_with_flag_and_value() {
    let out = mmsynth(&["minimize", "--function", "xor2", "--max-rops", "abc"]);
    assert_rejected(&out, &["--max-rops", "\"abc\""]);
    let out = mmsynth(&["fuzz", "--seed", "-3"]);
    assert_rejected(&out, &["--seed", "\"-3\""]);
}

#[test]
fn count_flags_without_a_value_say_so() {
    let out = mmsynth(&["minimize", "--function", "xor2", "--max-rops"]);
    assert_rejected(&out, &["--max-rops needs a value"]);
    let out = mmsynth(&["faultsim", "--function", "xor2", "--trials", "--seed", "3"]);
    assert_rejected(&out, &["--trials needs a value"]);
}

#[test]
fn counts_too_large_for_their_field_are_rejected() {
    // 2^32 + 1 trials used to truncate to one.
    let out = mmsynth(&[
        "faultsim",
        "--function",
        "xor2",
        "--rops",
        "1",
        "--trials",
        "4294967297",
    ]);
    assert_rejected(&out, &["--trials", "4294967297"]);
}

#[test]
fn census_inputs_outside_one_to_five_are_rejected() {
    // 258 used to truncate to a 2-input census; 0 and 6 panicked.
    for n in ["0", "6", "258"] {
        let out = mmsynth(&["census", "--inputs", n]);
        assert_rejected(&out, &["--inputs", n]);
    }
    let out = mmsynth(&["census", "--inputs", "2"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("2-input functions"));
}

#[test]
fn unknown_subcommands_are_rejected_by_name() {
    let out = mmsynth(&["minimise", "--function", "xor2"]);
    assert_rejected(&out, &["minimise"]);
    let out = mmsynth(&["frobnicate"]);
    assert_rejected(&out, &["frobnicate"]);
    // No subcommand, `help` and `--help` still print the usage text.
    for args in [&[][..], &["help"], &["--help"]] {
        let out = mmsynth(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: mmsynth"));
    }
}

#[test]
fn every_subcommand_still_takes_the_telemetry_flags() {
    let out = mmsynth(&["list", "--progress"]);
    assert_eq!(out.status.code(), Some(0));
    let out = mmsynth(&["run", "--function", "xor2", "--input", "01", "--progress"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("xor2(01) = 1"));
    // The local ticker is unfiltered: even the trace's `meta` point shows.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mmsynth: progress meta "), "{stderr}");
}

#[test]
fn cache_dir_refuses_flags_it_cannot_honour() {
    let dir = std::env::temp_dir().join(format!("cli_flags_cache_{}", std::process::id()));
    let dir = dir.to_str().expect("temp path is UTF-8");
    let base = [
        "minimize",
        "--function",
        "xor2",
        "--max-rops",
        "3",
        "--max-steps",
        "3",
    ];
    for extra in [
        &["--stats-json", "s.json"][..],
        &["--proof-dir", "pd", "--certify"],
        &["--no-inprocess"],
        &["--deadline", "5"],
    ] {
        let args: Vec<&str> = base
            .iter()
            .copied()
            .chain(["--cache-dir", dir])
            .chain(extra.iter().copied())
            .collect();
        assert_rejected(&mmsynth(&args), &["--cache-dir", extra[0]]);
    }
    assert!(
        !std::path::Path::new(dir).exists(),
        "a refused run opens no cache"
    );
}

#[test]
fn the_daemon_rejects_flags_it_does_not_read() {
    let dir = std::env::temp_dir().join(format!("cli_flags_daemon_{}", std::process::id()));
    let dir = dir.to_str().expect("temp path is UTF-8");
    let daemon = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_mmsynthd"))
            .args(args)
            .output()
            .expect("mmsynthd runs")
    };
    // A misspelt flag used to serve stdio with no cache and exit 0.
    let out = daemon(&["--cache-dirr", dir, "--workerz", "9"]);
    assert_rejected(&out, &["--cache-dirr", "mmsynthd"]);
    assert!(!std::path::Path::new(dir).exists(), "nothing ran");
    // Every job runs once; there is no retry count to set.
    assert_rejected(&daemon(&["--retries", "3"]), &["--retries", "mmsynthd"]);
    assert_rejected(&daemon(&["--workers", "two"]), &["--workers", "\"two\""]);
}

#[test]
fn a_circuit_at_the_ladder_floor_is_proven_without_a_call_below() {
    let dir = std::env::temp_dir().join(format!("cli_flags_floor_{}", std::process::id()));
    let dir = dir.to_str().expect("temp path is UTF-8");
    let _ = std::fs::remove_dir_all(dir);
    let base = [
        "minimize",
        "--function",
        "0011",
        "--max-rops",
        "3",
        "--max-steps",
        "3",
        "--jobs",
        "1",
        "--certify",
    ];
    // The plain path and the cached one answer the same claim: N_R = 0,
    // N_VS = 1 is the first point, so no UNSAT call (and no proof) backs it.
    for extra in [&[][..], &["--cache-dir", dir]] {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        let out = mmsynth(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(
            stdout.contains("N_R=0 N_L=1 N_VS=1")
                && stdout.contains("optimality: proven (lattice minimum)\n"),
            "{args:?}: {stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn synth_is_bounded_by_its_deadline_alone() {
    let base = [
        "synth",
        "--function",
        "xor2",
        "--rops",
        "1",
        "--legs",
        "2",
        "--steps",
        "2",
    ];
    let synth = |extra: &[&str]| {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        mmsynth(&args)
    };
    // `--budget` was a second, per-call time limit that a longer
    // `--deadline` could not extend.
    assert_rejected(&synth(&["--budget", "5"]), &["--budget", "synth"]);

    let out = synth(&["--deadline", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "inconclusive: {stderr}");
    let flags: Vec<&str> = stderr
        .split_whitespace()
        .filter(|w| w.starts_with("--"))
        .collect();
    assert_eq!(flags, ["--deadline"], "{stderr}");
}

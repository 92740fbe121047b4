//! `mmsynth` — command-line front end for memristive mixed-mode synthesis.
//!
//! ```text
//! mmsynth synth    --function gf22_mul --rops 4 --legs 6 --steps 3 [--deadline 300]
//!                  [--avoid-cells 0,3 --array-size 16] [--conflicts N]
//!                  [--certify] [--proof FILE] [--dot | --json | --dimacs | --schedule]
//! mmsynth minimize --function gf22_mul [--max-rops N] [--max-steps N] [--r-only]
//!                  [--jobs N] [--conflicts N] [--deadline SECS] [--certify]
//!                  [--no-inprocess] [--proof-dir DIR] [--dot | --json | --schedule]
//!                  [--cache-dir DIR [--paranoid]]
//! mmsynth faultsim --function xor2 --rops 1 --legs 2 --steps 2
//!                  [--stuck CELL:lrs,CELL:hrs] [--flip CELL:CYCLE,...]
//!                  [--variability SIGMA] [--trials N] [--seed N]
//!                  [--array-size N] [--repair [--retries N]] [--certify]
//!                  [--out FILE]
//! mmsynth fuzz     [--seed 42] [--budget 100] [--corpus tests/corpus]
//!                  [--replay tests/corpus] [--inject-violation]
//! mmsynth map      --function adder3 [--dot | --json]
//! mmsynth run      --function gf22_mul --input 1011 [--trace] [--seed 42]
//! mmsynth census   --inputs 3 [--pre K] [--post K] [--tebe K]
//! mmsynth list
//! mmsynth client   --socket PATH | --tcp ADDR:PORT [--op minimize|synth|faultsim|ping|stats|metrics|shutdown]
//!                  [--function NAME|BITS,...] [--id ID] [--no-cache] [--progress] [...op flags]
//! ```
//!
//! `minimize` turns its flags into one `MinimizeRequest` and runs it with
//! `MinimizeRequest::run`. With `--cache-dir DIR` it runs that request
//! through `mmsynthd`'s engine on the same persistent NPN result cache,
//! so it answers as the daemon would. `client` is a one-shot JSON-lines
//! client for a running `mmsynthd`; its `--op synth` is the wire op
//! `synthesize`.
//!
//! `--certify` runs every SAT call with DRAT proof logging and checks each
//! UNSAT answer with the in-tree backward checker before reporting it;
//! `--proof`/`--proof-dir` additionally archive the accepted proofs as
//! standard DRAT text for cross-checking with external tools (`drat-trim`).
//!
//! `minimize` scans its budget ladder upward with `--jobs` workers (one
//! worker is the plain sequential scan). Every rung is encoded and solved
//! on its own, so every archived proof refutes its own rung's formula.
//!
//! Every subcommand also accepts the telemetry flags: `--trace-out F.jsonl`
//! streams the raw span/counter/point event stream as JSON lines,
//! `--report-json F` aggregates it into a versioned per-phase timing report
//! ([`RunReport`](memristive_mm::telemetry::RunReport)), and `--progress`
//! renders every point event on stderr as a `mmsynth: progress` line.
//! `synth` and `minimize` additionally accept `--stats-json [FILE]` for a
//! machine-readable summary (solver statistics, per-rung call records) on
//! stdout or in FILE.
//!
//! `synth` and `minimize` have one wall-clock bound, `--deadline SECS`,
//! anchored when the command starts; `synth` defaults it to 120 s.
//!
//! `faultsim` synthesizes a circuit, places its schedule on a physical
//! array, and runs a fault-injection campaign against it; `--repair` closes
//! the loop, avoiding the implicated cells and resynthesizing.
//!
//! `fuzz` runs `--budget` seeded end-to-end scenarios (randomized functions
//! × budgets × fault plans × job counts) through synthesize → certify →
//! device-verify → campaign → repair, checking cross-cutting invariants.
//! Failing scenarios are shrunk and archived as replayable JSON to
//! `--corpus DIR`; `--replay DIR` re-runs an archived corpus instead. The
//! whole sweep is bit-for-bit reproducible from `--seed`.
//!
//! Each subcommand accepts only the flags it reads (plus the telemetry
//! flags); an unknown flag, a count given no value, or a count that does
//! not parse or does not fit is an error naming the flag and its value,
//! never a silent default. An unknown subcommand is an error too; `help`
//! or no subcommand prints the usage text.
//!
//! Exit codes: 0 on success (including a proven UNSAT), 1 on errors, and
//! 2 when the answer is *inconclusive* — a budget or deadline expired
//! before the search finished, or a repair loop gave up. Degraded runs
//! still print their best-known circuit before exiting with 2.
//!
//! Functions are either named generators (see `mmsynth list`) or comma-
//! separated truth-table bitstrings (`--function 0110,1000` = two outputs).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use memristive_mm::boolfn::{generators, MultiOutputFn, TruthTable};
use memristive_mm::circuit::campaign::{run_campaign_traced, CampaignConfig, CampaignReport};
use memristive_mm::circuit::MmCircuit;
use memristive_mm::circuit::{FaultPlan, Schedule};
use memristive_mm::device::{DeviceState, ElectricalParams, LineArray};
use memristive_mm::sat::{Budget, Deadline};
use memristive_mm::service::{CacheOutcome, Engine, Op, ResultCache};
use memristive_mm::synth::optimize::{self, OptimizeStatus};
use memristive_mm::synth::repair::{synthesize_with_repair, RepairConfig, RepairStatus};
use memristive_mm::synth::request::MinimizeRequest;
use memristive_mm::synth::universality::{census, CensusConfig};
use memristive_mm::synth::{heuristic, EncodeOptions, SynthResult, SynthSpec, Synthesizer};
use memristive_mm::telemetry::atomic_write;
use serde::{Serialize, Value};

mod cli;
use cli::{render_progress_frame, Args, TelemetrySetup};

/// `synth`'s wall-clock bound when `--deadline` is not given.
const SYNTH_DEADLINE: Duration = Duration::from_secs(120);

/// Exit code for inconclusive answers: a budget/deadline expired before the
/// search finished, or a repair loop gave up. Distinct from 1 (errors) so
/// scripts can retry with a larger budget instead of failing hard.
const EXIT_INCONCLUSIVE: u8 = 2;

fn named_functions() -> Vec<(&'static str, MultiOutputFn)> {
    vec![
        ("adder1", generators::ripple_adder(1)),
        ("adder2", generators::ripple_adder(2)),
        ("adder3", generators::ripple_adder(3)),
        ("adder4", generators::ripple_adder(4)),
        ("gf22_mul", generators::gf22_multiplier()),
        ("gf16_inv", generators::gf16_inversion()),
        ("and2", generators::and_gate(2)),
        ("and4", generators::and_gate(4)),
        ("or4", generators::or_gate(4)),
        ("nand4", generators::nand_gate(4)),
        ("nor4", generators::nor_gate(4)),
        ("xor2", generators::xor_gate(2)),
        ("xor3", generators::xor_gate(3)),
        ("maj3", generators::majority_gate(3)),
        ("mux21", generators::mux21()),
        ("mul2", generators::int_multiplier(2)),
        ("cmp2", generators::comparator(2)),
        ("popcount4", generators::popcount(4)),
    ]
}

fn parse_function(spec: &str) -> Result<MultiOutputFn, String> {
    for (name, f) in named_functions() {
        if name == spec {
            return Ok(f);
        }
    }
    // Comma-separated bitstrings.
    let tables: Result<Vec<TruthTable>, _> =
        spec.split(',').map(TruthTable::from_bitstring).collect();
    match tables {
        Ok(ts) => MultiOutputFn::new("cli", ts).map_err(|e| e.to_string()),
        Err(e) => Err(format!(
            "{spec:?} is neither a known function name nor a truth-table list: {e}"
        )),
    }
}

/// Flags every subcommand accepts: the telemetry sinks.
const TELEMETRY_FLAGS: &str = "trace-out report-json progress";

/// The flags `command` reads besides [`TELEMETRY_FLAGS`], space-separated;
/// `None` for `help` (the usage text, which reads none and rejects none)
/// and for a word that is no command.
fn command_flags(command: &str) -> Option<&'static str> {
    Some(match command {
        "synth" => {
            "function rops r-only legs steps avoid-cells array-size conflicts deadline \
             no-inprocess certify proof stats-json dimacs dot json schedule"
        }
        "minimize" => {
            "function max-rops max-steps r-only adder jobs conflicts deadline no-inprocess \
             certify proof-dir stats-json cache-dir paranoid dot json schedule"
        }
        "faultsim" => {
            "function rops legs steps stuck flip variability trials seed array-size repair \
             retries certify out"
        }
        "fuzz" => "seed budget corpus replay inject-violation emit-seed-corpus stats-json",
        "client" => {
            "socket tcp op function id no-cache max-rops max-steps conflicts rops legs steps \
             trials seed deadline r-only adder certify stuck-lrs"
        }
        "map" => "function dot json schedule",
        "run" => "function input trace seed",
        "census" => "inputs pre post tebe",
        "list" => "",
        _ => return None,
    })
}

/// Rejects a word that is no command, and the first flag `command` does
/// not read.
fn check_command(args: &Args, command: &str) -> Result<(), String> {
    match command_flags(command) {
        Some(known) => args.check_flags(&[known, TELEMETRY_FLAGS], &format!("mmsynth {command}")),
        None if command == "help" => Ok(()),
        None => Err(format!(
            "unknown command `{command}`; `mmsynth help` lists the commands"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv);
    let command = args.bare.first().map(String::as_str).unwrap_or("help");
    match check_command(&args, command).and_then(|()| run(command, &args)) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Comma-separated cell indices (`0,3,5`).
fn parse_cells(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|e| format!("bad cell index {s:?}: {e}"))
        })
        .collect()
}

/// The run limits shared by `synth` and `minimize`: `--conflicts` keeps
/// portfolio results deterministic across `--jobs`; `--deadline` is the
/// one wall-clock bound, for the whole run, under which minimization
/// degrades gracefully (`synth` defaults it to [`SYNTH_DEADLINE`]).
fn limits_from(args: &Args) -> Result<(Option<u64>, Option<Duration>), String> {
    let conflicts = match args.get("conflicts") {
        Some(c) => Some(c.parse().map_err(|e| format!("bad --conflicts: {e}"))?),
        None => None,
    };
    let deadline = match args.get("deadline") {
        Some(d) => {
            let secs: f64 = d.parse().map_err(|e| format!("bad --deadline: {e}"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(format!("--deadline must be a nonnegative number, got {d}"));
            }
            Some(Duration::from_secs_f64(secs))
        }
        None => None,
    };
    Ok((conflicts, deadline))
}

/// The minimize job `mmsynth minimize`'s flags describe, cached or not.
fn minimize_request(args: &Args, f: &MultiOutputFn) -> Result<MinimizeRequest, String> {
    let max_rops = args.get_usize("max-rops", 8)?;
    let mut request = if args.has("r-only") {
        MinimizeRequest::r_only(max_rops)
    } else {
        let is_adder = args.has("adder") || f.name().starts_with("adder");
        MinimizeRequest::mixed_mode(max_rops, args.get_usize("max-steps", 6)?, is_adder)
    };
    (request.max_conflicts, request.deadline) = limits_from(args)?;
    request.certify = args.has("certify");
    Ok(request)
}

/// Version of the `--stats-json` sidecar schema. Version 2 dropped
/// `solver_stats.eliminated_vars` and added `solver_stats.inprocess_visits`;
/// version 3 dropped the top-level `incremental` key and added `conflicts`
/// and `propagations` to every `calls[]` entry.
const STATS_SCHEMA_VERSION: u64 = 3;

/// `--stats-json` with no value prints to stdout; with a value, writes to
/// that path.
fn write_stats_json(dest: &str, value: &Value) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    if dest == "true" {
        println!("{json}");
    } else {
        atomic_write(dest, json).map_err(|e| format!("writing {dest}: {e}"))?;
        eprintln!("stats written to {dest}");
    }
    Ok(())
}

fn run(command: &str, args: &Args) -> Result<ExitCode, String> {
    let tel = TelemetrySetup::from_args(args, command)?;
    let result = dispatch(command, args, &tel);
    tel.finish()?;
    result
}

fn dispatch(command: &str, args: &Args, tel: &TelemetrySetup) -> Result<ExitCode, String> {
    match command {
        "list" => {
            println!("named functions:");
            for (name, f) in named_functions() {
                println!(
                    "  {name:<12} {} inputs, {} outputs",
                    f.n_inputs(),
                    f.n_outputs()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "census" => {
            let n = match args.get_usize("inputs", 3)? {
                n @ 1..=5 => n as u8,
                n => return Err(format!("--inputs must be 1..=5, got {n}")),
            };
            let cfg = CensusConfig::new(n)
                .with_pre(args.get_u32("pre", 0)?)
                .with_post(args.get_u32("post", 0)?)
                .with_tebe(args.get_u32("tebe", 0)?);
            let reached = census(&cfg);
            println!(
                "{reached} of {} {n}-input functions realizable with {cfg:?}",
                1u64 << (1 << n)
            );
            Ok(ExitCode::SUCCESS)
        }
        "map" => {
            let f = parse_function(args.get("function").ok_or("--function required")?)?;
            let circuit = heuristic::map(&f).map_err(|e| e.to_string())?;
            emit_circuit(&circuit, args)?;
            Ok(ExitCode::SUCCESS)
        }
        "synth" => {
            let f = parse_function(args.get("function").ok_or("--function required")?)?;
            let rops = args.get_usize("rops", 0)?;
            let mut spec = if args.has("r-only") {
                SynthSpec::r_only(&f, args.get_usize("r-only", 1)?)
            } else {
                let legs = args.get_usize(
                    "legs",
                    SynthSpec::paper_legs(&f, rops, f.name().starts_with("adder")),
                )?;
                SynthSpec::mixed_mode(&f, rops, legs, args.get_usize("steps", 3)?)
            }
            .map_err(|e| e.to_string())?;
            if let Some(cells) = args.get("avoid-cells") {
                let avoid = parse_cells(cells)?;
                spec = spec.with_cell_avoidance(args.get_usize("array-size", 16)?, avoid);
            }
            let (conflicts, deadline) = limits_from(args)?;
            let deadline = deadline.unwrap_or(SYNTH_DEADLINE);
            let mut budget = Budget::new()
                .with_deadline(Deadline::after(deadline))
                .with_inprocess(!args.has("no-inprocess"));
            if let Some(c) = conflicts {
                budget = budget.with_max_conflicts(c);
            }
            let synth = Synthesizer::new()
                .with_budget(budget)
                .with_certification(args.has("certify"))
                .with_telemetry(tel.telemetry.clone());
            if args.has("dimacs") {
                print!("{}", synth.export_dimacs(&spec).map_err(|e| e.to_string())?);
                return Ok(ExitCode::SUCCESS);
            }
            let outcome = synth.run(&spec).map_err(|e| e.to_string())?;
            eprintln!(
                "{} vars, {} clauses, {}",
                outcome.encode_stats.n_vars, outcome.encode_stats.n_clauses, outcome.solver_stats
            );
            if let Some(dest) = args.get("stats-json") {
                let result = match &outcome.result {
                    SynthResult::Realizable(_) => "realizable",
                    SynthResult::Unrealizable => "unrealizable",
                    SynthResult::Unknown => "unknown",
                };
                let stats = Value::Object(vec![
                    ("schema_version".into(), Value::UInt(STATS_SCHEMA_VERSION)),
                    ("command".into(), Value::Str("synth".into())),
                    ("function".into(), Value::Str(f.name().to_string())),
                    ("result".into(), Value::Str(result.into())),
                    (
                        "n_vars".into(),
                        Value::UInt(outcome.encode_stats.n_vars as u64),
                    ),
                    (
                        "n_clauses".into(),
                        Value::UInt(outcome.encode_stats.n_clauses as u64),
                    ),
                    ("solver_stats".into(), outcome.solver_stats.to_value()),
                ]);
                write_stats_json(dest, &stats)?;
            }
            if let Some(cert) = &outcome.certificate {
                eprintln!(
                    "certificate: {} proof steps, {} core, checked in {:.3}s",
                    cert.proof.n_steps(),
                    cert.check.core_additions,
                    cert.check.check_time.as_secs_f64()
                );
                if let Some(path) = args.get("proof") {
                    atomic_write(path, cert.proof.to_drat_string())
                        .map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("proof written to {path}");
                }
            }
            match outcome.result {
                SynthResult::Realizable(circuit) => {
                    if let Some(placement) = &outcome.placement {
                        eprintln!(
                            "placed on {} cells, avoiding {:?} (used: {:?})",
                            placement.n_cells(),
                            args.get("avoid-cells").unwrap_or(""),
                            placement.used_cells()
                        );
                    }
                    emit_circuit(&circuit, args)?;
                    Ok(ExitCode::SUCCESS)
                }
                SynthResult::Unrealizable => {
                    println!(
                        "UNSAT: no circuit exists within these budgets (optimality certificate{})",
                        if outcome.certificate.is_some() {
                            ", DRAT-checked"
                        } else {
                            ""
                        }
                    );
                    Ok(ExitCode::SUCCESS)
                }
                SynthResult::Unknown => {
                    if outcome.solver_stats.deadline_expired {
                        eprintln!(
                            "inconclusive: the {}s deadline expired; raise --deadline",
                            deadline.as_secs_f64()
                        );
                    } else {
                        eprintln!("inconclusive: conflict budget exhausted; raise --conflicts");
                    }
                    Ok(ExitCode::from(EXIT_INCONCLUSIVE))
                }
            }
        }
        "minimize" => {
            let f = parse_function(args.get("function").ok_or("--function required")?)?;
            let jobs = args.get_usize("jobs", optimize::default_jobs())?.max(1);
            if let Some(dir) = args.get("cache-dir") {
                return minimize_cached(args, tel, &f, jobs, dir);
            }
            let request = minimize_request(args, &f)?;
            // Inprocessing is on by default; --no-inprocess disables it for
            // differential testing and clean benchmark baselines.
            let synth = Synthesizer::new()
                .with_budget(Budget::new().with_inprocess(!args.has("no-inprocess")))
                .with_telemetry(tel.telemetry.clone());
            let report = request
                .run(&synth, &f, &EncodeOptions::recommended(), jobs)
                .map_err(|e| e.to_string())?;
            if let Some(dir) = args.get("proof-dir") {
                std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
            }
            for c in &report.calls {
                eprintln!(
                    "  N_R={} N_L={} N_VS={} -> {:?} ({} vars, {} clauses, {:.3}s{})",
                    c.n_rops,
                    c.n_legs,
                    c.n_vsteps,
                    c.result,
                    c.n_vars,
                    c.n_clauses,
                    c.time.as_secs_f64(),
                    if c.certified {
                        format!(
                            ", certified: {} proof steps checked in {:.3}s",
                            c.proof_steps,
                            c.check_time.as_secs_f64()
                        )
                    } else {
                        String::new()
                    }
                );
                if let (Some(dir), Some(proof)) = (args.get("proof-dir"), &c.proof) {
                    let path = format!(
                        "{dir}/{}_nR{}_nL{}_nVS{}.drat",
                        f.name(),
                        c.n_rops,
                        c.n_legs,
                        c.n_vsteps
                    );
                    atomic_write(&path, proof.to_drat_string())
                        .map_err(|e| format!("writing {path}: {e}"))?;
                }
            }
            let certified = report.calls.iter().filter(|c| c.certified).count();
            eprintln!(
                "{} calls ({certified} certified UNSAT), {:.3}s solver time, {jobs} jobs",
                report.calls.len(),
                report.total_time().as_secs_f64()
            );
            let degraded = report.status.is_degraded();
            if let OptimizeStatus::Degraded { reason } = &report.status {
                eprintln!("degraded: {reason}; the result below is the best known");
            }
            if let Some(dest) = args.get("stats-json") {
                let stats = Value::Object(vec![
                    ("schema_version".into(), Value::UInt(STATS_SCHEMA_VERSION)),
                    ("command".into(), Value::Str("minimize".into())),
                    ("function".into(), Value::Str(f.name().to_string())),
                    ("proven_optimal".into(), Value::Bool(report.proven_optimal)),
                    ("degraded".into(), Value::Bool(degraded)),
                    ("inprocess".into(), Value::Bool(!args.has("no-inprocess"))),
                    ("n_calls".into(), Value::UInt(report.calls.len() as u64)),
                    ("certified_unsat".into(), Value::UInt(certified as u64)),
                    (
                        "total_solver_time_us".into(),
                        Value::UInt(report.total_time().as_micros() as u64),
                    ),
                    (
                        "calls".into(),
                        Value::Array(report.calls.iter().map(Serialize::to_value).collect()),
                    ),
                ]);
                write_stats_json(dest, &stats)?;
            }
            print_minimized(
                report.best.as_ref(),
                report.proven_optimal,
                certified > 0,
                degraded,
                args,
            )
        }
        "run" => {
            let f = parse_function(args.get("function").ok_or("--function required")?)?;
            let input = args
                .get("input")
                .ok_or("--input required (e.g. --input 1011)")?;
            if input.len() != f.n_inputs() as usize {
                return Err(format!("--input must have {} bits", f.n_inputs()));
            }
            let x = u32::from_str_radix(input, 2).map_err(|e| e.to_string())?;
            let circuit = heuristic::map(&f).map_err(|e| e.to_string())?;
            let schedule = Schedule::compile(&circuit).map_err(|e| e.to_string())?;
            let seed = args.get_usize("seed", 42)? as u64;
            let mut array = LineArray::bfo(schedule.n_cells(), ElectricalParams::bfo(), seed);
            let out = schedule.execute(x, &mut array);
            array.trace().emit_telemetry(&tel.telemetry);
            if args.has("trace") {
                print!("{}", array.trace().to_table());
            }
            let bits: String = out.iter().map(|&b| if b { '1' } else { '0' }).collect();
            println!("{}({input}) = {bits}", f.name());
            Ok(ExitCode::SUCCESS)
        }
        "faultsim" => faultsim(args, tel),
        "fuzz" => fuzz(args),
        "client" => client(args),
        // `help`, or no command: `check_flags` rejected every other word.
        _ => {
            println!(
                "usage: mmsynth <synth|minimize|faultsim|fuzz|map|run|census|list|client> [--function NAME|BITS,...]\n\
                 \x20      synth:    --rops N [--legs N] [--steps N] [--r-only N]\n\
                 \x20                [--deadline SECS (default 120)] [--conflicts N]\n\
                 \x20                [--avoid-cells 0,3 --array-size N]\n\
                 \x20                [--certify] [--proof FILE]\n\
                 \x20                [--dot | --json | --dimacs | --schedule]\n\
                 \x20      minimize: [--max-rops N] [--max-steps N] [--r-only] [--adder]\n\
                 \x20                [--jobs N] [--conflicts N] [--deadline SECS]\n\
                 \x20                [--no-inprocess]\n\
                 \x20                [--certify] [--proof-dir DIR]\n\
                 \x20                [--cache-dir DIR [--paranoid]]\n\
                 \x20                [--dot | --json | --schedule]\n\
                 \x20      client:   --socket PATH | --tcp ADDR:PORT [--op OP]\n\
                 \x20                [--function NAME|BITS,...] [--id ID] [--no-cache]\n\
                 \x20                [--progress] (streams frames on stderr)\n\
                 \x20                (forwards minimize/synth/faultsim flags to mmsynthd)\n\
                 \x20      faultsim: --rops N [--legs N] [--steps N]\n\
                 \x20                [--stuck CELL:lrs,...] [--flip CELL:CYCLE,...]\n\
                 \x20                [--variability SIGMA] [--trials N] [--seed N]\n\
                 \x20                [--array-size N] [--repair [--retries N]]\n\
                 \x20                [--certify] [--out FILE]\n\
                 \x20      fuzz:     [--seed N] [--budget N] [--corpus DIR]\n\
                 \x20                [--replay DIR] [--inject-violation]\n\
                 \x20                [--emit-seed-corpus --corpus DIR]\n\
                 \x20      map:      [--dot | --json | --schedule]\n\
                 \x20      run:      --input BITS [--trace] [--seed N]\n\
                 \x20      census:   --inputs N [--pre K] [--post K] [--tebe K]\n\
                 \n\
                 \x20      --certify checks every UNSAT answer against its DRAT proof\n\
                 \x20      before any optimality claim; --proof/--proof-dir archive the\n\
                 \x20      accepted proofs as DRAT text\n\
                 \x20      minimize scans its budget ladder upward, solving every rung\n\
                 \x20      on its own encoding (proofs refute each rung's formula)\n\
                 \x20      the solver inprocesses (subsumption, self-subsuming\n\
                 \x20      resolution, vivification) at restart boundaries;\n\
                 \x20      --no-inprocess turns that off — verdicts are identical\n\
                 \x20      either way\n\
                 \x20      telemetry (all subcommands): --trace-out FILE.jsonl streams\n\
                 \x20      raw events, --report-json FILE writes the aggregated phase\n\
                 \x20      timing report, --progress renders point events on stderr;\n\
                 \x20      synth/minimize also take --stats-json [FILE]\n\
                 \x20      exit codes: 0 ok, 1 error, 2 inconclusive (budget/deadline\n\
                 \x20      expired or repair gave up; best-known result still printed)"
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Prints a minimize answer: the circuit with its `optimality:` line, or
/// why there is none. A circuit at the ladder's first point (`N_R = 0,
/// N_VS = 1`; `N_R = 1` for `--r-only`) is optimal with no call below it;
/// otherwise `certified` says whether checked DRAT proofs back the claim.
/// Degraded runs exit 2.
fn print_minimized(
    best: Option<&MmCircuit>,
    proven_optimal: bool,
    certified: bool,
    degraded: bool,
    args: &Args,
) -> Result<ExitCode, String> {
    match best {
        Some(circuit) => {
            emit_circuit(circuit, args)?;
            let m = circuit.metrics();
            let lattice_minimum = if args.has("r-only") {
                m.n_rops == 1
            } else {
                (m.n_rops, m.n_vsteps) == (0, 1)
            };
            println!(
                "optimality: {}",
                match (proven_optimal, certified, degraded) {
                    (true, ..) if lattice_minimum => "proven (lattice minimum)",
                    (true, true, _) => "proven (UNSAT below, DRAT-certified)",
                    (true, false, _) => "proven (UNSAT below)",
                    (false, _, true) => "upper bound only (degraded run)",
                    (false, _, false) => "upper bound only",
                }
            );
            if degraded {
                Ok(ExitCode::from(EXIT_INCONCLUSIVE))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        None if degraded => {
            eprintln!("inconclusive: no circuit found before the budget ran out");
            Ok(ExitCode::from(EXIT_INCONCLUSIVE))
        }
        None => {
            Err("no circuit found within the search limits; raise --max-rops/--max-steps".into())
        }
    }
}

/// `mmsynth minimize --cache-dir DIR`: the job runs through the daemon's
/// [`Engine`] on the same persistent NPN result cache `mmsynthd` serves
/// from, so a CLI run warms (and is warmed by) the daemon and answers as
/// the daemon would.
fn minimize_cached(
    args: &Args,
    tel: &TelemetrySetup,
    f: &MultiOutputFn,
    jobs: usize,
    dir: &str,
) -> Result<ExitCode, String> {
    // A deadline makes the verdict timing-dependent, so it can neither be
    // stored nor validly served (--conflicts bounds work instead); and a
    // cached ladder is served whole, with no per-rung records, proof files
    // or solver settings to apply. These are refused, not ignored.
    if let Some(flag) = ["deadline", "stats-json", "proof-dir", "no-inprocess"]
        .into_iter()
        .find(|flag| args.has(flag))
    {
        return Err(format!(
            "--cache-dir does not take --{flag}; drop one of them"
        ));
    }
    let request = minimize_request(args, f)?;

    let (cache, recovery) =
        ResultCache::open(dir).map_err(|e| format!("opening cache {dir}: {e}"))?;
    if recovery.quarantined > 0 || recovery.temps_removed > 0 {
        eprintln!(
            "cache recovery: {} valid, {} quarantined, {} temp files removed",
            recovery.valid, recovery.quarantined, recovery.temps_removed
        );
    }
    let engine = Arc::new(
        Engine::new(jobs)
            .with_cache(cache.with_paranoid(args.has("paranoid")))
            .with_telemetry(tel.telemetry.clone()),
    );
    let op = Op::Minimize {
        tables: f.outputs().iter().map(TruthTable::to_bitstring).collect(),
        request,
        no_cache: false,
    };
    let resp = engine.run("cli", &op);
    if let Some(error) = resp.error {
        return Err(error);
    }
    let degraded = resp.status == "degraded";
    if let Some(reason) = &resp.degraded_reason {
        eprintln!("degraded: {reason}; the result below is the best known (not cached)");
    }
    let cache = engine.cache.as_ref().expect("attached above");
    eprintln!(
        "cache: {} ({} entries, {} stored this run)",
        resp.cache.map_or("bypass", CacheOutcome::as_str),
        cache.len(),
        cache.stats().stores
    );
    // Only a certified request is answered with the stored proof, as a
    // cold solve of the same request would be, and only a proof makes the
    // claim DRAT-certified.
    print_minimized(
        resp.circuit.as_ref(),
        resp.proven_optimal == Some(true),
        resp.proof.is_some(),
        degraded,
        args,
    )
}

/// `mmsynth client`: one-shot JSON-lines client for a running `mmsynthd`.
/// Resolves `--function` to truth tables locally, sends a single request
/// over `--socket`/`--tcp`, prints the raw response line, and maps the
/// response status onto the usual exit codes (`degraded` → 2).
/// `--progress` subscribes to the daemon's progress stream: interleaved
/// `progress` frames render on stderr as they arrive, stdout still
/// carries exactly the final response line.
fn client(args: &Args) -> Result<ExitCode, String> {
    // `synth` is the CLI's word for the wire op `synthesize`.
    let op = match args.get("op").unwrap_or("minimize") {
        "synth" => "synthesize",
        op => op,
    };
    let id = args.get("id").unwrap_or("cli").to_string();
    let mut fields: Vec<(String, Value)> = vec![
        ("op".into(), Value::Str(op.into())),
        ("id".into(), Value::Str(id)),
    ];
    if matches!(op, "minimize" | "synthesize" | "faultsim") {
        let f = parse_function(args.get("function").ok_or("--function required")?)?;
        let tables: Vec<Value> = f
            .outputs()
            .iter()
            .map(|t| Value::Str(t.to_bitstring()))
            .collect();
        fields.push(("tables".into(), Value::Array(tables)));
    }
    for (flag, wire) in [
        ("max-rops", "max_rops"),
        ("max-steps", "max_steps"),
        ("conflicts", "max_conflicts"),
        ("rops", "rops"),
        ("legs", "legs"),
        ("steps", "steps"),
        ("trials", "trials"),
        ("seed", "seed"),
    ] {
        if let Some(v) = args.get(flag) {
            let n: u64 = v.parse().map_err(|e| format!("bad --{flag}: {e}"))?;
            fields.push((wire.into(), Value::UInt(n)));
        }
    }
    if let Some(d) = args.get("deadline") {
        let secs: f64 = d.parse().map_err(|e| format!("bad --deadline: {e}"))?;
        fields.push(("deadline_secs".into(), Value::Float(secs)));
    }
    for (flag, wire) in [
        ("r-only", "r_only"),
        ("adder", "adder"),
        ("certify", "certify"),
        ("no-cache", "no_cache"),
    ] {
        if args.has(flag) {
            fields.push((wire.into(), Value::Bool(true)));
        }
    }
    if let Some(stuck) = args.get("stuck-lrs") {
        let cells = parse_cells(stuck)?;
        fields.push((
            "stuck_lrs".into(),
            Value::Array(cells.into_iter().map(|c| Value::UInt(c as u64)).collect()),
        ));
    }
    let progress = args.has("progress");
    if progress {
        fields.push(("subscribe".into(), Value::Bool(true)));
    }
    let line = serde_json::to_string(&Value::Object(fields)).map_err(|e| e.to_string())?;

    let response = if let Some(path) = args.get("socket") {
        let stream = std::os::unix::net::UnixStream::connect(path)
            .map_err(|e| format!("connecting to {path}: {e}"))?;
        client_exchange(stream, &line, progress)?
    } else if let Some(addr) = args.get("tcp") {
        let stream =
            std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        client_exchange(stream, &line, progress)?
    } else {
        return Err("client needs --socket PATH or --tcp ADDR:PORT".into());
    };
    let reply = response.trim_end();
    if reply.is_empty() {
        return Err("daemon closed the connection without a response".into());
    }
    println!("{reply}");
    let status = serde_json::from_str::<Value>(reply)
        .ok()
        .and_then(|v| match v.get("status") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_default();
    match status.as_str() {
        "ok" => Ok(ExitCode::SUCCESS),
        "degraded" => Ok(ExitCode::from(EXIT_INCONCLUSIVE)),
        _ => Ok(ExitCode::FAILURE),
    }
}

/// Sends one request line and reads until the final response, rendering
/// any interleaved `progress` frames on stderr (when `progress` is set;
/// frames only arrive if the request subscribed).
fn client_exchange<S: std::io::Read + std::io::Write>(
    mut stream: S,
    line: &str,
    progress: bool,
) -> Result<String, String> {
    use std::io::{BufRead, BufReader};

    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    stream.flush().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    loop {
        let mut reply = String::new();
        let n = reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        if n == 0 {
            return Ok(String::new()); // EOF: caller reports the hangup
        }
        let trimmed = reply.trim_end();
        match serde_json::from_str::<Value>(trimmed) {
            Ok(v) if matches!(v.get("frame"), Some(Value::Str(f)) if f == "progress") => {
                if progress {
                    render_progress_frame(&v);
                }
            }
            _ => return Ok(trimmed.to_string()),
        }
    }
}

/// `mmsynth fuzz`: run seeded end-to-end scenarios, archive shrunk failures.
fn fuzz(args: &Args) -> Result<ExitCode, String> {
    use memristive_mm::synth::fuzz::{run_fuzz, run_scenario, seed_corpus, Corpus, FuzzConfig};

    let seed = args.get_usize("seed", 42)? as u64;
    let budget = args.get_usize("budget", 25)?;
    let cfg = FuzzConfig {
        inject_violation: args.has("inject-violation"),
    };

    // --emit-seed-corpus: (re)write the hand-picked seed cases into
    // --corpus DIR. Used to regenerate `tests/corpus/` after a schema
    // change; the cases themselves live in `fuzz::seed_corpus`.
    if args.has("emit-seed-corpus") {
        let dir = args
            .get("corpus")
            .ok_or("--emit-seed-corpus needs --corpus DIR")?;
        let corpus = Corpus::open(dir).map_err(|e| format!("opening corpus {dir}: {e}"))?;
        for case in seed_corpus() {
            let path = corpus
                .archive(&case)
                .map_err(|e| format!("archiving {}: {e}", case.scenario.name))?;
            println!("wrote {}", path.display());
        }
        return Ok(ExitCode::SUCCESS);
    }

    // --replay DIR: re-run every archived corpus case (twice, pinning
    // replay determinism) instead of generating new scenarios.
    if let Some(dir) = args.get("replay") {
        let corpus = Corpus::open(dir).map_err(|e| format!("opening corpus {dir}: {e}"))?;
        let cases = corpus.load().map_err(|e| format!("loading corpus: {e}"))?;
        let mut violations = 0usize;
        for (path, case) in &cases {
            let first = run_scenario(&case.scenario, &cfg);
            let second = run_scenario(&case.scenario, &cfg);
            match (first, second) {
                (Ok(a), Ok(b)) => {
                    if a.fingerprint != b.fingerprint {
                        violations += 1;
                        eprintln!("{}: replay diverged", path.display());
                    }
                    for v in &a.violations {
                        violations += 1;
                        eprintln!("{}: {v}", path.display());
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    violations += 1;
                    eprintln!("{}: scenario error: {e}", path.display());
                }
            }
        }
        println!(
            "replayed {} corpus cases, {violations} violations",
            cases.len()
        );
        return Ok(if violations == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let corpus = match args.get("corpus") {
        Some(dir) => Some(Corpus::open(dir).map_err(|e| format!("opening corpus {dir}: {e}"))?),
        None => None,
    };
    let summary = run_fuzz(seed, budget, corpus.as_ref(), &cfg, |index, report| {
        if !report.violations.is_empty() {
            eprintln!("scenario {index} ({}) FAILED", report.name);
        }
    });
    for v in &summary.violations {
        eprintln!("violation: {v}");
    }
    for path in &summary.archived {
        eprintln!("archived shrunk reproducer: {}", path.display());
    }
    println!(
        "fuzz: {} scenarios (seed {seed}), {} degraded, {} violations, fingerprint {:016x}",
        summary.scenarios,
        summary.degraded,
        summary.violations.len(),
        summary.fingerprint
    );
    if let Some(dest) = args.get("stats-json") {
        let stats = Value::Object(vec![
            ("schema_version".into(), Value::UInt(STATS_SCHEMA_VERSION)),
            ("command".into(), Value::Str("fuzz".into())),
            ("seed".into(), Value::UInt(seed)),
            ("budget".into(), Value::UInt(budget as u64)),
            ("scenarios".into(), Value::UInt(summary.scenarios as u64)),
            (
                "degraded_scenarios".into(),
                Value::UInt(summary.degraded as u64),
            ),
            (
                "violations".into(),
                Value::UInt(summary.violations.len() as u64),
            ),
            (
                "fingerprint".into(),
                Value::Str(format!("{:016x}", summary.fingerprint)),
            ),
            (
                "archived".into(),
                Value::Array(
                    summary
                        .archived
                        .iter()
                        .map(|p| Value::Str(p.display().to_string()))
                        .collect(),
                ),
            ),
        ]);
        write_stats_json(dest, &stats)?;
    }
    Ok(if summary.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `mmsynth faultsim`: synthesize, place, inject faults, optionally repair.
fn faultsim(args: &Args, tel: &TelemetrySetup) -> Result<ExitCode, String> {
    let f = parse_function(args.get("function").ok_or("--function required")?)?;
    let rops = args.get_usize("rops", 1)?;
    let legs = args.get_usize(
        "legs",
        SynthSpec::paper_legs(&f, rops, f.name().starts_with("adder")),
    )?;
    let spec = SynthSpec::mixed_mode(&f, rops, legs, args.get_usize("steps", 3)?)
        .map_err(|e| e.to_string())?;

    // Fault plans: an always-present healthy control, plus one injected
    // plan when any fault flag is given.
    let mut injected = FaultPlan::named("injected");
    if let Some(stuck) = args.get("stuck") {
        for part in stuck.split(',').filter(|s| !s.is_empty()) {
            let (cell, state) = part
                .split_once(':')
                .ok_or_else(|| format!("bad --stuck entry {part:?}, want CELL:lrs|hrs"))?;
            let cell: usize = cell.trim().parse().map_err(|e| format!("bad cell: {e}"))?;
            let state = match state.trim().to_ascii_lowercase().as_str() {
                "lrs" | "1" => DeviceState::Lrs,
                "hrs" | "0" => DeviceState::Hrs,
                other => return Err(format!("bad stuck state {other:?}, want lrs|hrs")),
            };
            injected = injected.with_stuck(cell, state);
        }
    }
    if let Some(flips) = args.get("flip") {
        for part in flips.split(',').filter(|s| !s.is_empty()) {
            let (cell, cycle) = part
                .split_once(':')
                .ok_or_else(|| format!("bad --flip entry {part:?}, want CELL:CYCLE"))?;
            injected = injected.with_transient(
                cell.trim().parse().map_err(|e| format!("bad cell: {e}"))?,
                cycle
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad cycle: {e}"))?,
            );
        }
    }
    if let Some(v) = args.get("variability") {
        let sigma: f64 = v.parse().map_err(|e| format!("bad --variability: {e}"))?;
        injected = injected.with_variability(memristive_mm::device::Variability {
            d2d_sigma: sigma,
            c2c_sigma: sigma / 4.0,
        });
    }
    let mut plans = vec![FaultPlan::named("control")];
    if !injected.is_healthy() {
        plans.push(injected);
    }

    let mut campaign = CampaignConfig::default();
    campaign.trials = args.get_u32("trials", campaign.trials)?;
    campaign.seed = args.get_usize("seed", campaign.seed as usize)? as u64;

    let synth = Synthesizer::new()
        .with_certification(args.has("certify"))
        .with_telemetry(tel.telemetry.clone());

    if args.has("repair") {
        let array_size = args.get_usize("array-size", 16)?;
        let config = RepairConfig {
            array_size,
            max_retries: args.get_usize("retries", 4)?,
            campaign,
        };
        let outcome =
            synthesize_with_repair(&synth, &spec, &plans, &config).map_err(|e| e.to_string())?;
        for (i, attempt) in outcome.attempts.iter().enumerate() {
            eprintln!(
                "round {i}: {} failures with cells {:?} avoided; newly implicated: {:?}",
                attempt.failures, attempt.avoided, attempt.newly_implicated
            );
        }
        match &outcome.status {
            RepairStatus::Clean => eprintln!("clean: schedule survives the campaign unrepaired"),
            RepairStatus::Repaired => eprintln!(
                "repaired: schedule routed around cells {:?} and survives the campaign",
                outcome.avoided
            ),
            RepairStatus::Unrepairable { reason } => eprintln!("unrepairable: {reason}"),
        }
        if let Some(report) = &outcome.report {
            write_report(report, args)?;
        }
        if outcome.succeeded() {
            Ok(ExitCode::SUCCESS)
        } else {
            Ok(ExitCode::from(EXIT_INCONCLUSIVE))
        }
    } else {
        let outcome = synth.run(&spec).map_err(|e| e.to_string())?;
        let circuit = match outcome.result {
            SynthResult::Realizable(c) => c,
            SynthResult::Unrealizable => {
                return Err("no circuit exists within these budgets; raise --rops/--steps".into())
            }
            SynthResult::Unknown => {
                eprintln!("inconclusive: synthesis budget exhausted");
                return Ok(ExitCode::from(EXIT_INCONCLUSIVE));
            }
        };
        let schedule = Schedule::compile(&circuit).map_err(|e| e.to_string())?;
        let n_cells = schedule.n_cells();
        let array_size = args.get_usize("array-size", n_cells)?;
        let placed = schedule
            .place_avoiding(array_size, &[])
            .map_err(|e| e.to_string())?;
        let report = run_campaign_traced(&placed, &plans, &campaign, &tel.telemetry)
            .map_err(|e| e.to_string())?;
        for plan in &report.plans {
            eprintln!(
                "plan {:?}: {}/{} executions failed (error rate {:.3}; \
                 {} stuck, {} transient, {} variability), first divergence: {:?}",
                plan.plan.name,
                plan.failures,
                plan.executions,
                plan.error_rate,
                plan.stuck_failures,
                plan.transient_failures,
                plan.variability_failures,
                plan.first_divergence_cycle,
            );
        }
        write_report(&report, args)?;
        Ok(ExitCode::SUCCESS)
    }
}

/// Prints the campaign report as JSON to stdout, or to `--out FILE`.
fn write_report(report: &CampaignReport, args: &Args) -> Result<(), String> {
    let json = report.to_json();
    match args.get("out") {
        Some(path) => {
            atomic_write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("campaign report written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn emit_circuit(circuit: &MmCircuit, args: &Args) -> Result<(), String> {
    if args.has("dot") {
        print!("{}", circuit.to_dot());
    } else if args.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(circuit).map_err(|e| e.to_string())?
        );
    } else if args.has("schedule") {
        let schedule = Schedule::compile(circuit).map_err(|e| e.to_string())?;
        println!(
            "{}",
            serde_json::to_string_pretty(&schedule).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", circuit.to_text());
        let m = circuit.metrics();
        println!(
            "metrics: N_R={} N_L={} N_VS={} N_St={} N_Dev={}",
            m.n_rops, m.n_legs, m.n_vsteps, m.n_steps, m.n_devices_structural
        );
    }
    Ok(())
}

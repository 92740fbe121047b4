//! Emits the performance-trajectory report (`BENCH_<n>.json`).
//!
//! Runs a fixed probe set — single-worker synthesis ladders with telemetry
//! attached, a seeded fuzz sweep, a Monte-Carlo device sweep, a DRAT
//! re-check of certified ladders' proofs, and stuck-cell fault campaigns —
//! and folds the results into a [`BenchReport`]: deterministic workload
//! counters (solver conflicts, CNF sizes, synthesis-call and rung counts,
//! degraded-scenario counts, checker work, campaign failures) plus advisory
//! wall-clock timings. CI diffs
//! the emitted file against the committed baseline with
//! `scripts/bench_diff.py`.
//!
//! ```text
//! bench_report --pr 7 --out BENCH_7.json
//! ```

use std::sync::Arc;
use std::time::Instant;

use mm_bench::report::{BenchReport, Direction};
use mm_boolfn::{generators, MultiOutputFn};
use mm_device::ElectricalParams;
use mm_sat::SolverCounter;
use mm_service::{Engine, JobRequest, ResultCache};
use mm_synth::fuzz::{run_fuzz, FuzzConfig};
use mm_synth::optimize::{minimize_mixed_mode, OptimizeReport};
use mm_synth::{EncodeOptions, Synthesizer};
use mm_telemetry::{MemorySink, RunReport, Telemetry};

/// Fuzz probe parameters: small enough to finish in seconds, large enough
/// to hit every scenario regime (budget regimes, fault plans, repair).
const FUZZ_SEED: u64 = 42;
const FUZZ_BUDGET: usize = 20;

/// Monte-Carlo probe size.
const MC_TRIALS: u32 = 256;
const MC_SEED: u64 = 7;

/// Fault-campaign probe: functions, synthesis budget and trials per plan
/// (the daemon's `faultsim` requests in the `serve` benchmark workload).
const CAMPAIGN_FUNCTIONS: usize = 16;
const CAMPAIGN_ROPS: usize = 4;
const CAMPAIGN_STEPS: usize = 3;
const CAMPAIGN_TRIALS: u32 = 256;

/// `(max_rops, max_vsteps)` budgets of the aggregate inprocessing probe.
const INPROCESS_LADDER_BUDGETS: [(usize, usize); 5] = [(2, 2), (3, 3), (4, 4), (4, 3), (3, 4)];

fn ladder_probe(report: &mut BenchReport, tag: &str, f: &MultiOutputFn, max_rops: usize) {
    let sink = Arc::new(MemorySink::new());
    let synth = Synthesizer::new().with_telemetry(Telemetry::new(sink.clone()));
    let out = minimize_mixed_mode(&synth, f, max_rops, 3, false, &EncodeOptions::default(), 1)
        .expect("probe ladder must synthesize");
    assert!(out.proven_optimal, "probe ladder must prove optimality");
    let run = RunReport::from_events(&sink.snapshot());

    let conflicts: u64 = run.rungs.iter().map(|r| r.conflicts).sum();
    let vars: u64 = out.calls.iter().map(|c| c.n_vars as u64).max().unwrap_or(0);
    let clauses: u64 = out
        .calls
        .iter()
        .map(|c| c.n_clauses as u64)
        .max()
        .unwrap_or(0);
    let lower = Direction::Lower;
    report.push(
        format!("ladder_{tag}_conflicts"),
        conflicts as f64,
        "count",
        lower,
        true,
    );
    report.push(
        format!("ladder_{tag}_max_vars"),
        vars as f64,
        "count",
        lower,
        true,
    );
    report.push(
        format!("ladder_{tag}_max_clauses"),
        clauses as f64,
        "count",
        lower,
        true,
    );
    report.push(
        format!("ladder_{tag}_calls"),
        out.calls.len() as f64,
        "count",
        lower,
        true,
    );
}

fn fuzz_probe(report: &mut BenchReport) {
    let started = Instant::now();
    let summary = run_fuzz(
        FUZZ_SEED,
        FUZZ_BUDGET,
        None,
        &FuzzConfig::default(),
        |_, _| {},
    );
    let elapsed = started.elapsed();
    assert!(
        summary.violations.is_empty(),
        "fuzz probe found violations: {:?}",
        summary.violations
    );
    report.push(
        "fuzz_seed42_degraded",
        summary.degraded as f64,
        "count",
        Direction::None,
        true,
    );
    report.push(
        "fuzz_seed42_scenarios_per_s",
        summary.scenarios as f64 / elapsed.as_secs_f64(),
        "rate",
        Direction::Higher,
        false,
    );
    report.push(
        "fuzz_seed42_time_us",
        elapsed.as_micros() as f64,
        "us",
        Direction::Lower,
        false,
    );
}

fn device_probe(report: &mut BenchReport) {
    let started = Instant::now();
    let v_rate =
        mm_device::monte_carlo::v_op_error_rate(ElectricalParams::bfo(), MC_TRIALS, MC_SEED);
    let r_rate =
        mm_device::monte_carlo::r_op_error_rate(ElectricalParams::bfo(), MC_TRIALS, MC_SEED);
    let elapsed = started.elapsed();
    report.push(
        "mc_vop_error_rate_bfo",
        v_rate,
        "rate",
        Direction::Lower,
        true,
    );
    report.push(
        "mc_rop_error_rate_bfo",
        r_rate,
        "rate",
        Direction::Lower,
        true,
    );
    report.push(
        "mc_sweep_time_us",
        elapsed.as_micros() as f64,
        "us",
        Direction::Lower,
        false,
    );
}

/// The service-cache probe: one deterministic minimize request served
/// three ways — cold miss, warm hit, and warm hit with `--paranoid`
/// device re-execution. Deterministic gates: a hit must not invoke the
/// solver, and a hit must serve the same circuit step count as the cold
/// solve. The paranoid reopen must still serve a hit; its single-sample
/// wall time is not reported (perfbench's `serve` workload times hits).
fn service_cache_probe(report: &mut BenchReport) {
    let dir = std::env::temp_dir().join(format!("bench_service_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let line = r#"{"op":"minimize","id":"bench","tables":["0110"],"max_rops":3,"max_steps":3}"#;
    let request = JobRequest::parse(line).expect("probe request parses");
    let run = |engine: &Arc<Engine>| engine.run("bench", &request.op);

    let (cache, _) = ResultCache::open(&dir).expect("probe cache opens");
    let engine = Arc::new(Engine::new(1).with_cache(cache));
    let cold = run(&engine);
    let warm = run(&engine);
    drop(engine);
    let (cache, recovery) = ResultCache::open(&dir).expect("probe cache reopens");
    assert_eq!(recovery.quarantined, 0, "probe cache must survive reopen");
    let engine = Arc::new(Engine::new(1).with_cache(cache.with_paranoid(true)));
    let paranoid = run(&engine);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(cold.cache.map(|c| c.as_str()), Some("miss"));
    assert_eq!(warm.cache.map(|c| c.as_str()), Some("hit"));
    assert_eq!(paranoid.cache.map(|c| c.as_str()), Some("hit"));
    let steps = |r: &mm_service::JobResponse| {
        r.metrics
            .as_ref()
            .map(|m| m.n_steps as f64)
            .expect("probe solve yields a circuit")
    };
    assert_eq!(steps(&warm), steps(&cold), "hit must match the cold solve");

    let lower = Direction::Lower;
    report.push(
        "service_cache_hit_solver_calls",
        warm.solver_calls.unwrap_or(u64::MAX) as f64,
        "count",
        lower,
        true,
    );
    report.push(
        "service_cache_cold_solver_calls",
        cold.solver_calls.unwrap_or(0) as f64,
        "count",
        lower,
        true,
    );
    report.push("service_cache_steps", steps(&cold), "count", lower, true);
}

/// Inprocessing probe: the 1-bit adder's mixed-mode ladder run with one
/// worker, inprocessing on and off. The inprocessing activity counters and
/// per-run conflict totals are deterministic (one worker, cold rungs); the
/// on/off wall-clock ratio is the advisory speedup headline. Both runs
/// must agree on the verdict — that is the same invariant
/// `tests/inprocess_differential.rs` locks down, re-checked here on the
/// exact workload the trajectory tracks.
fn inprocess_probe(report: &mut BenchReport) {
    use mm_sat::Budget;

    let f = generators::ripple_adder(1);
    let run = |inprocess: bool| {
        let sink = Arc::new(MemorySink::new());
        let synth = Synthesizer::new()
            .with_budget(Budget::new().with_inprocess(inprocess))
            .with_telemetry(Telemetry::new(sink.clone()));
        let started = Instant::now();
        let out = minimize_mixed_mode(&synth, &f, 4, 4, true, &EncodeOptions::default(), 1)
            .expect("probe ladder must synthesize");
        let elapsed = started.elapsed();
        assert!(out.proven_optimal, "probe ladder must prove optimality");
        (out, RunReport::from_events(&sink.snapshot()), elapsed)
    };
    let (on, on_run, on_t) = run(true);
    let (off, off_run, off_t) = run(false);
    let metrics = |o: &OptimizeReport| {
        let b = o.best.as_ref().expect("adder1 is MM-realizable");
        (b.metrics().n_rops, b.metrics().n_vsteps, b.metrics().n_legs)
    };
    assert_eq!(
        metrics(&on),
        metrics(&off),
        "inprocessing changed a verdict"
    );
    assert_eq!(
        off_run.counter(SolverCounter::INPROCESS_SUBSUMED.event)
            + off_run.counter(SolverCounter::INPROCESS_VIVIFIED.event),
        0,
        "--no-inprocess run must not inprocess"
    );

    let none = Direction::None;
    report.push(
        "inprocess_adder1_subsumed",
        on_run.counter(SolverCounter::INPROCESS_SUBSUMED.event) as f64,
        "count",
        none,
        true,
    );
    report.push(
        "inprocess_adder1_vivified",
        on_run.counter(SolverCounter::INPROCESS_VIVIFIED.event) as f64,
        "count",
        none,
        true,
    );
    report.push(
        "inprocess_adder1_conflicts",
        on_run.counter(SolverCounter::CONFLICTS.event) as f64,
        "count",
        Direction::Lower,
        true,
    );
    report.push(
        "noinprocess_adder1_conflicts",
        off_run.counter(SolverCounter::CONFLICTS.event) as f64,
        "count",
        Direction::Lower,
        true,
    );
    report.push(
        "inprocess_adder1_speedup",
        off_t.as_secs_f64() / on_t.as_secs_f64().max(f64::EPSILON),
        "ratio",
        Direction::Higher,
        false,
    );
}

/// Aggregate inprocessing probe: summed solver conflicts over a fixed set
/// of single-worker mixed-mode ladders — four functions crossed with
/// several `(max_rops, max_vsteps)` budgets and both encoding-option sets.
/// One search trajectory is chaotic (a small change to the search can
/// swing `inprocess_adder1_conflicts` by ±50% without being better or
/// worse); the sum over many ladders moves only when the search does.
fn inprocess_ladders_probe(report: &mut BenchReport) {
    let functions = [
        (generators::ripple_adder(1), true),
        (generators::xor_gate(3), false),
        (generators::majority_gate(3), false),
        (generators::mux21(), false),
    ];
    let sink = Arc::new(MemorySink::new());
    let synth = Synthesizer::new().with_telemetry(Telemetry::new(sink.clone()));
    for (f, is_adder) in &functions {
        for (max_rops, max_vsteps) in INPROCESS_LADDER_BUDGETS {
            for options in [EncodeOptions::default(), EncodeOptions::recommended()] {
                minimize_mixed_mode(&synth, f, max_rops, max_vsteps, *is_adder, &options, 1)
                    .expect("probe ladder must run");
            }
        }
    }
    let run = RunReport::from_events(&sink.snapshot());
    report.push(
        "inprocess_ladders_conflicts",
        run.counter(SolverCounter::CONFLICTS.event) as f64,
        "count",
        Direction::Lower,
        true,
    );
}

/// DRAT-checker probe: the certified `xor3`, `adder1` and `cmp2` ladders
/// at `(max_rops, max_vsteps) = (8, 6)` with one worker, and every UNSAT
/// rung's proof checked once more against the rung's DIMACS export. One
/// worker makes the proofs, and with them the checker's core-lemma and
/// propagation counts, deterministic; the summed check time is advisory.
fn drat_check_probe(report: &mut BenchReport) {
    use mm_sat::{dimacs, drat};
    use mm_synth::optimize::SynthResultKind;
    use mm_synth::SynthSpec;

    let options = EncodeOptions::recommended();
    let synth = Synthesizer::new().with_certification(true);
    let (mut core_additions, mut propagations, mut checked) = (0u64, 0u64, 0usize);
    let mut check_time = std::time::Duration::ZERO;
    for (f, is_adder) in [
        (generators::xor_gate(3), false),
        (generators::ripple_adder(1), true),
        (generators::comparator(2), false),
    ] {
        let out = minimize_mixed_mode(&synth, &f, 8, 6, is_adder, &options, 1)
            .expect("probe ladder must synthesize");
        assert!(out.proven_optimal, "probe ladder must prove optimality");
        for call in &out.calls {
            if call.result != SynthResultKind::Unrealizable {
                continue;
            }
            let proof = call
                .proof
                .as_ref()
                .expect("certified UNSAT keeps its proof");
            let spec = SynthSpec::mixed_mode(&f, call.n_rops, call.n_legs, call.n_vsteps)
                .expect("probe rung is a valid spec")
                .with_options(options.clone());
            let text = Synthesizer::new()
                .export_dimacs(&spec)
                .expect("probe rung encodes");
            let cnf = dimacs::parse(&text).expect("exported DIMACS parses");
            let stats = drat::check(&cnf, proof).expect("probe proof checks");
            core_additions += stats.core_additions as u64;
            propagations += stats.propagations;
            check_time += stats.check_time;
            checked += 1;
        }
    }
    assert!(checked > 0, "probe ladders have UNSAT rungs");
    let lower = Direction::Lower;
    report.push(
        "drat_check_core_additions",
        core_additions as f64,
        "count",
        lower,
        true,
    );
    report.push(
        "drat_check_propagations",
        propagations as f64,
        "count",
        lower,
        true,
    );
    report.push(
        "drat_check_time_us",
        check_time.as_micros() as f64,
        "us",
        lower,
        false,
    );
}

/// Fault-campaign probe: the daemon's `faultsim` shape — a circuit
/// synthesized at 4 R-ops and 3 steps per leg, then a control plan and one
/// stuck-at-LRS cell, 256 trials each — over [`CAMPAIGN_FUNCTIONS`] 3-input
/// functions. The summed failures and masked divergences are deterministic
/// (seeded trials, variation-free corner); the campaigns' wall time,
/// synthesis excluded, is advisory.
fn fault_campaign_probe(report: &mut BenchReport) {
    use mm_boolfn::TruthTable;
    use mm_circuit::campaign::{run_campaign, CampaignConfig};
    use mm_circuit::{DeviceState, FaultPlan, Schedule};
    use mm_synth::{SynthResult, SynthSpec};

    let synth = Synthesizer::new();
    let (mut failures, mut masked) = (0u64, 0u64);
    let mut campaign_time = std::time::Duration::ZERO;
    for i in 0..CAMPAIGN_FUNCTIONS {
        // Every 16th truth table, skipping the constant 0.
        let bits = format!("{:08b}", 16 * i + 1);
        let table = TruthTable::from_bitstring(&bits).expect("8 bits are a 3-input table");
        let f = MultiOutputFn::new("probe", vec![table]).expect("one output");
        let legs = SynthSpec::paper_legs(&f, CAMPAIGN_ROPS, false);
        let spec = SynthSpec::mixed_mode(&f, CAMPAIGN_ROPS, legs, CAMPAIGN_STEPS)
            .expect("probe budget is a valid spec");
        let SynthResult::Realizable(circuit) = synth.run(&spec).expect("probe solves").result
        else {
            panic!("every 3-input function is realizable at the probe budget");
        };
        let schedule = Schedule::compile(&circuit).expect("synthesized circuits compile");
        let plans = [
            FaultPlan::named("control"),
            FaultPlan::named("injected").with_stuck(i % 3, DeviceState::Lrs),
        ];
        let config = CampaignConfig {
            trials: CAMPAIGN_TRIALS,
            seed: i as u64,
            ..CampaignConfig::default()
        };
        let started = Instant::now();
        let campaign = run_campaign(&schedule, &plans, &config).expect("plans are in range");
        campaign_time += started.elapsed();
        assert_eq!(campaign.plans[0].failures, 0, "control plan {bits} failed");
        for plan in &campaign.plans {
            failures += u64::from(plan.failures);
            masked += u64::from(plan.masked_divergences);
        }
    }
    let none = Direction::None;
    report.push(
        "fault_campaign_failures",
        failures as f64,
        "count",
        none,
        true,
    );
    report.push("fault_campaign_masked", masked as f64, "count", none, true);
    report.push(
        "fault_campaign_time_us",
        campaign_time.as_micros() as f64,
        "us",
        Direction::Lower,
        false,
    );
}

/// Metrics-registry overhead probe: the hot-path cost the observability
/// layer adds to every job — one counter increment and one histogram
/// observation per attempt — plus a full Prometheus render with the
/// daemon's family set registered. The registered-family count is the
/// deterministic gate (it moves only when instrumentation is added or
/// removed); the per-op timings are advisory wall-clock.
fn metrics_overhead_probe(report: &mut BenchReport) {
    use mm_service::ServiceMetrics;
    use mm_telemetry::metrics::MetricsRegistry;

    let registry = Arc::new(MetricsRegistry::new());
    let _service = ServiceMetrics::register(registry.clone());
    let counter = registry.counter("bench_probe_total", "Overhead probe counter.");
    let histogram = registry.histogram("bench_probe_us", "Overhead probe histogram.");

    const OPS: u64 = 1_000_000;
    let started = Instant::now();
    for _ in 0..OPS {
        counter.inc();
    }
    let inc_ns = started.elapsed().as_nanos() as f64 / OPS as f64;
    let started = Instant::now();
    for i in 0..OPS {
        histogram.observe(i % 1_000_000);
    }
    let observe_ns = started.elapsed().as_nanos() as f64 / OPS as f64;
    assert_eq!(counter.get(), OPS, "probe counter must not drop increments");
    assert_eq!(
        histogram.count(),
        OPS,
        "probe histogram must not drop observations"
    );

    const RENDERS: u32 = 1_000;
    let started = Instant::now();
    let mut rendered_len = 0usize;
    for _ in 0..RENDERS {
        rendered_len = registry.render_prometheus().len();
    }
    let render_us = started.elapsed().as_micros() as f64 / f64::from(RENDERS);
    assert!(rendered_len > 0, "render must produce output");

    let families = match registry.to_value() {
        serde::Value::Object(fields) => fields
            .into_iter()
            .find(|(k, _)| k == "families")
            .map(|(_, v)| match v {
                serde::Value::Array(items) => items.len(),
                _ => 0,
            })
            .unwrap_or(0),
        _ => 0,
    };
    report.push(
        "metrics_overhead_families",
        families as f64,
        "count",
        Direction::None,
        true,
    );
    report.push(
        "metrics_overhead_counter_inc_ns",
        inc_ns,
        "ns",
        Direction::Lower,
        false,
    );
    report.push(
        "metrics_overhead_histogram_observe_ns",
        observe_ns,
        "ns",
        Direction::Lower,
        false,
    );
    report.push(
        "metrics_overhead_render_us",
        render_us,
        "us",
        Direction::Lower,
        false,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pr: u64 = 0;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pr" => pr = it.next().and_then(|v| v.parse().ok()).unwrap_or(0),
            "--out" => out_path = it.next().cloned(),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_report --pr <n> [--out BENCH_<n>.json]");
                std::process::exit(2);
            }
        }
    }

    let mut report = BenchReport::new(pr);
    ladder_probe(&mut report, "xor2", &generators::xor_gate(2), 3);
    ladder_probe(&mut report, "maj3", &generators::majority_gate(3), 4);
    inprocess_probe(&mut report);
    inprocess_ladders_probe(&mut report);
    fuzz_probe(&mut report);
    device_probe(&mut report);
    service_cache_probe(&mut report);
    drat_check_probe(&mut report);
    fault_campaign_probe(&mut report);
    metrics_overhead_probe(&mut report);

    let json = report.to_json().expect("bench report serializes");
    match out_path {
        Some(path) => {
            mm_telemetry::atomic_write(&path, format!("{json}\n")).expect("write bench report");
            eprintln!("wrote {path} ({} metrics)", report.metrics.len());
        }
        None => println!("{json}"),
    }
}

//! Thread-count invariance of the parallel portfolio minimizer.
//!
//! The engine's contract (see `optimize`): for fixed inputs and a
//! conflict-limited or unlimited budget, the reported optimum's cost
//! metrics and the `proven_optimal` bit are identical for every `jobs`
//! value; only the order and number of recorded calls may differ. These
//! tests pin that contract on Table IV workloads across `jobs` 1, 2 and 8,
//! plus whatever the `MMSYNTH_TEST_JOBS` environment variable names (the CI
//! matrix sets it to 1 and 4).

use memristive_mm::boolfn::generators;
use memristive_mm::sat::Budget;
use memristive_mm::synth::optimize::{self, OptimizeReport};
use memristive_mm::synth::{EncodeOptions, Synthesizer};

/// The jobs values every determinism test compares.
fn job_counts() -> Vec<usize> {
    let mut jobs = vec![1, 2, 8];
    if let Some(extra) = std::env::var("MMSYNTH_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        jobs.push(extra.max(1));
    }
    jobs.sort_unstable();
    jobs.dedup();
    jobs
}

/// Asserts the schedule-independent parts of two reports are identical.
fn assert_reports_identical(reference: &OptimizeReport, other: &OptimizeReport, label: &str) {
    assert_eq!(
        reference.proven_optimal, other.proven_optimal,
        "{label}: proven_optimal differs"
    );
    match (&reference.best, &other.best) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.metrics(), b.metrics(), "{label}: best op-counts differ");
        }
        _ => panic!("{label}: best presence differs across thread counts"),
    }
}

#[test]
fn adder1_mixed_mode_is_thread_count_invariant() {
    // Table IV row 1: the 1-bit adder's full minimization (N_R = 2,
    // N_VS = 3, proven) completes unbudgeted in well under a second.
    let f = generators::ripple_adder(1);
    let opts = EncodeOptions::recommended();
    let synth = Synthesizer::new();
    let mut reports = Vec::new();
    for jobs in job_counts() {
        let report = optimize::minimize_mixed_mode(&synth, &f, 3, 4, true, &opts, jobs)
            .expect("adder specs encode");
        reports.push((jobs, report));
    }
    for (jobs, report) in &reports[1..] {
        assert_reports_identical(&reports[0].1, report, &format!("adder1 jobs={jobs}"));
    }
    let best = reports[0].1.best.as_ref().expect("adder1 is MM-realizable");
    assert_eq!(best.metrics().n_rops, 2, "Table IV: N_R = 2");
    assert_eq!(best.metrics().n_vsteps, 3, "Table IV: N_VS = 3");
    assert!(reports[0].1.proven_optimal, "Table IV prints no ≤ marker");
}

#[test]
fn conflict_capped_adder2_is_thread_count_invariant() {
    // Table IV row 2, too hard to finish here: under a conflict cap the
    // ladder's Unknown/Unrealizable pattern — and therefore best and
    // proven_optimal — must still be identical for every thread count,
    // because a capped solver call is a deterministic function of the
    // formula alone.
    let f = generators::ripple_adder(2);
    let opts = EncodeOptions::recommended();
    let synth = Synthesizer::new().with_budget(Budget::new().with_max_conflicts(2_000));
    let mut reports = Vec::new();
    for jobs in job_counts() {
        let report = optimize::minimize_mixed_mode(&synth, &f, 4, 5, true, &opts, jobs)
            .expect("adder specs encode");
        reports.push((jobs, report));
    }
    for (jobs, report) in &reports[1..] {
        assert_reports_identical(&reports[0].1, report, &format!("adder2 jobs={jobs}"));
    }
    // Whatever the cap allowed, an unproven or missing optimum must never
    // be claimed proven.
    if reports[0].1.best.is_none() {
        assert!(!reports[0].1.proven_optimal);
    }
}

#[test]
fn telemetry_report_is_thread_count_invariant() {
    // Aggregate telemetry — the winning rung, the largest UNSAT rung, the
    // phase-name tree — must be identical for every jobs value, even though
    // the raw event stream (ordering, cancelled rungs, counter totals) is
    // schedule-dependent. Within one run, the rung events must agree with
    // the returned call records exactly.
    use std::sync::Arc;

    use memristive_mm::synth::optimize::SynthResultKind;
    use memristive_mm::telemetry::{MemorySink, RunReport, Telemetry};

    /// Phase names of the tree, flattened depth-first (counts and times are
    /// schedule-dependent; the shape is not).
    fn phase_names(nodes: &[memristive_mm::telemetry::PhaseNode], out: &mut Vec<String>) {
        for n in nodes {
            out.push(n.name.clone());
            phase_names(&n.children, out);
        }
    }

    let f = generators::xor_gate(2);
    let opts = EncodeOptions::recommended();
    let mut invariants = Vec::new();
    for jobs in job_counts() {
        let sink = Arc::new(MemorySink::new());
        let synth = Synthesizer::new().with_telemetry(Telemetry::new(sink.clone()));
        let report =
            optimize::minimize_r_only(&synth, &f, 5, &opts, jobs).expect("xor specs encode");
        let run = RunReport::from_events(&sink.snapshot());

        // Per-run consistency: every completed solver call appears as
        // exactly one rung event with the same budget and outcome.
        let mut from_calls: Vec<(u64, &str)> = report
            .calls
            .iter()
            .map(|c| {
                let outcome = match c.result {
                    SynthResultKind::Realizable => "sat",
                    SynthResultKind::Unrealizable => "unsat",
                    SynthResultKind::Unknown => "unknown",
                };
                (c.n_rops as u64, outcome)
            })
            .collect();
        let mut from_rungs: Vec<(u64, &str)> = run
            .rungs
            .iter()
            .filter(|r| r.outcome != "skipped")
            .map(|r| (r.n_rops, r.outcome.as_str()))
            .collect();
        from_calls.sort_unstable();
        from_rungs.sort_unstable();
        assert_eq!(
            from_calls, from_rungs,
            "jobs={jobs}: rung events and call records disagree"
        );

        // The verdict the rung events roll up to matches the returned
        // report: cheapest SAT rung = the optimum, largest UNSAT = its
        // optimality proof.
        let winner = run
            .rungs
            .iter()
            .filter(|r| r.outcome == "sat")
            .map(|r| r.n_rops)
            .min();
        assert_eq!(
            winner,
            report.best.as_ref().map(|c| c.metrics().n_rops as u64),
            "jobs={jobs}: winning rung disagrees with the returned circuit"
        );
        let max_unsat = run
            .rungs
            .iter()
            .filter(|r| r.outcome == "unsat")
            .map(|r| r.n_rops)
            .max();
        assert_eq!(max_unsat, Some(2), "jobs={jobs}: XOR2 is UNSAT at N_R ≤ 2");
        assert!(report.proven_optimal, "jobs={jobs}");

        let mut phases = Vec::new();
        phase_names(&run.phases, &mut phases);
        invariants.push((jobs, winner, max_unsat, phases));
    }
    for pair in invariants.windows(2) {
        let (ja, wa, ua, pa) = &pair[0];
        let (jb, wb, ub, pb) = &pair[1];
        assert_eq!(
            (wa, ua, pa),
            (wb, ub, pb),
            "jobs={ja} vs jobs={jb}: telemetry aggregates differ"
        );
    }
}

#[test]
fn xor2_r_only_is_thread_count_invariant() {
    // XOR2 needs exactly 3 MAGIC NOR gates; the proof (UNSAT at 1 and 2)
    // must survive any scheduling of the portfolio.
    let f = generators::xor_gate(2);
    let opts = EncodeOptions::recommended();
    let synth = Synthesizer::new();
    for jobs in job_counts() {
        let report =
            optimize::minimize_r_only(&synth, &f, 5, &opts, jobs).expect("xor specs encode");
        assert_eq!(
            report.best.expect("XOR2 is R-realizable").metrics().n_rops,
            3,
            "jobs={jobs}"
        );
        assert!(report.proven_optimal, "jobs={jobs}");
    }
}

//! Golden search trajectories of the CDCL solver.
//!
//! Clause storage, buffers and value lookups are layout: they must never
//! change which decisions, propagations or conflicts the solver makes. This
//! test pins the exact work counters of three fixed solves — a pigeonhole
//! refutation and two real synthesis rungs — so any change that perturbs the
//! search order (watch-list order, `reduce_db` ordering, vivification's
//! rotation, learnt-clause minimization) fails here, even when every verdict
//! stays right.
//!
//! If a change is *meant* to alter the search, re-pin the numbers and say
//! why in the change log.

use memristive_mm::boolfn::{generators, MultiOutputFn};
use memristive_mm::sat::{dimacs, Budget, CnfFormula, Lit, Solver, SolverStats};
use memristive_mm::synth::{EncodeOptions, SynthSpec, Synthesizer};

/// The pinned counters of one uncertified solve, plus the proof length of
/// the same solve with DRAT logging on.
#[derive(Debug, PartialEq, Eq)]
struct Trajectory {
    sat: bool,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    restarts: u64,
    learnt_clauses: u64,
    deleted_clauses: u64,
    minimized_literals: u64,
    subsumed_clauses: u64,
    strengthened_clauses: u64,
    vivified_clauses: u64,
    inprocess_visits: u64,
    proof_steps: u64,
}

fn counters(sat: bool, s: &SolverStats, proof_steps: u64) -> Trajectory {
    Trajectory {
        sat,
        conflicts: s.conflicts,
        decisions: s.decisions,
        propagations: s.propagations,
        restarts: s.restarts,
        learnt_clauses: s.learnt_clauses,
        deleted_clauses: s.deleted_clauses,
        minimized_literals: s.minimized_literals,
        subsumed_clauses: s.subsumed_clauses,
        strengthened_clauses: s.strengthened_clauses,
        vivified_clauses: s.vivified_clauses,
        inprocess_visits: s.inprocess_visits,
        proof_steps,
    }
}

/// Solves `cnf` once plainly and once certified. Proof logging must not
/// steer the search, so both runs share every counter but `proof_steps`.
fn trajectory(cnf: CnfFormula) -> Trajectory {
    let (plain, stats) = Solver::new(cnf.clone()).solve_with_budget(Budget::new());
    let (certified, cstats, proof) = Solver::new(cnf).solve_certified(Budget::new());
    assert_eq!(plain, certified);
    assert!(proof.is_some());
    let logged = counters(certified.is_sat(), &cstats, cstats.proof_steps);
    let unlogged = counters(plain.is_sat(), &stats, cstats.proof_steps);
    assert_eq!(unlogged, logged, "proof logging changed the search");
    logged
}

/// Pigeonhole principle: `pigeons` into `holes`.
fn pigeonhole(pigeons: usize, holes: usize) -> CnfFormula {
    let mut cnf = CnfFormula::new();
    let p: Vec<Vec<Lit>> = (0..pigeons).map(|_| cnf.new_lits(holes)).collect();
    for row in &p {
        cnf.add_clause(row.iter().copied());
    }
    for h in 0..holes {
        let column: Vec<Lit> = p.iter().map(|row| row[h]).collect();
        for (a, &x) in column.iter().enumerate() {
            for &y in &column[a + 1..] {
                cnf.add_clause([!x, !y]);
            }
        }
    }
    cnf
}

/// The mixed-mode rung `(n_rops, n_legs, n_vsteps)` of `f`, as the ladder
/// encodes it.
fn rung(f: &MultiOutputFn, n_rops: usize, n_legs: usize, n_vsteps: usize) -> CnfFormula {
    let spec = SynthSpec::mixed_mode(f, n_rops, n_legs, n_vsteps)
        .expect("valid rung")
        .with_options(EncodeOptions::recommended());
    let text = Synthesizer::new()
        .export_dimacs(&spec)
        .expect("rung encodes");
    dimacs::parse(&text).expect("exported DIMACS parses")
}

#[test]
fn pigeonhole_6_5_trajectory_is_pinned() {
    let got = trajectory(pigeonhole(6, 5));
    let want = Trajectory {
        sat: false,
        conflicts: 141,
        decisions: 170,
        propagations: 1645,
        restarts: 1,
        learnt_clauses: 125,
        deleted_clauses: 0,
        minimized_literals: 176,
        subsumed_clauses: 0,
        strengthened_clauses: 0,
        vivified_clauses: 0,
        inprocess_visits: 0,
        proof_steps: 141,
    };
    assert_eq!(got, want);
}

#[test]
fn xor3_rung_trajectory_is_pinned() {
    let got = trajectory(rung(&generators::xor_gate(3), 3, 3, 3));
    let want = Trajectory {
        sat: true,
        conflicts: 6473,
        decisions: 15_853,
        propagations: 215_216,
        restarts: 27,
        learnt_clauses: 6422,
        deleted_clauses: 1921,
        minimized_literals: 24_348,
        subsumed_clauses: 348,
        strengthened_clauses: 961,
        vivified_clauses: 237,
        inprocess_visits: 158_300,
        proof_steps: 11_322,
    };
    assert_eq!(got, want);
}

#[test]
fn adder1_top_rung_trajectory_is_pinned() {
    let f = generators::ripple_adder(1);
    let legs = SynthSpec::paper_legs(&f, 8, true);
    let got = trajectory(rung(&f, 8, legs, 6));
    let want = Trajectory {
        sat: true,
        conflicts: 1458,
        decisions: 10_964,
        propagations: 52_866,
        restarts: 6,
        learnt_clauses: 1455,
        deleted_clauses: 0,
        minimized_literals: 1185,
        subsumed_clauses: 0,
        strengthened_clauses: 0,
        vivified_clauses: 78,
        inprocess_visits: 39_022,
        proof_steps: 2666,
    };
    assert_eq!(got, want);
}

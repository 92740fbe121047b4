//! Property-based validation of the inprocessing layer: simplification
//! preserves satisfiability, models satisfy every original clause, every
//! certified verdict stays checkable, and verdicts under added units
//! survive a pass.

use mm_sat::{drat, Budget, CnfFormula, Lit, SatResult, Solver, Var};
use proptest::prelude::*;

/// A random clause set over `n_vars` variables, as (var, polarity) pairs.
/// Length-1 clauses are included deliberately: they drive the level-0
/// stripping and unit-cascade paths of subsumption.
fn clauses_strategy(n_vars: u32) -> impl Strategy<Value = Vec<Vec<(u32, bool)>>> {
    let clause = prop::collection::vec((0..n_vars, any::<bool>()), 1..=4);
    prop::collection::vec(clause, 1..60)
}

fn build(n_vars: u32, raw: &[Vec<(u32, bool)>]) -> (CnfFormula, Vec<Vec<Lit>>) {
    let mut cnf = CnfFormula::new();
    cnf.reserve_vars(n_vars);
    let mut list = Vec::new();
    for c in raw {
        let clause: Vec<Lit> = c
            .iter()
            .map(|&(v, pos)| Var::from_index(v).lit(pos))
            .collect();
        list.push(clause.clone());
        cnf.add_clause(clause);
    }
    (cnf, list)
}

fn brute_force_sat(n_vars: u32, clauses: &[Vec<Lit>]) -> bool {
    (0u64..(1 << n_vars)).any(|bits| {
        clauses.iter().all(|c| {
            c.iter()
                .any(|l| ((bits >> l.var().index()) & 1 == 1) == l.is_positive())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn inprocessing_preserves_satisfiability_and_models(
        raw in clauses_strategy(10)
    ) {
        // An explicit inprocessing pass before search must not change the
        // verdict, and a SAT model must satisfy every ORIGINAL clause, not
        // just the rewritten database.
        let (cnf, clauses) = build(10, &raw);
        let expected = brute_force_sat(10, &clauses);
        let mut solver = Solver::new(cnf);
        solver.inprocess_now();
        match solver.solve() {
            SatResult::Sat(model) => {
                prop_assert!(expected, "inprocessed solver SAT but brute force UNSAT");
                for c in &clauses {
                    prop_assert!(
                        c.iter().any(|&l| model.value(l)),
                        "model violates an original clause {:?}",
                        c
                    );
                }
            }
            SatResult::Unsat => {
                prop_assert!(!expected, "inprocessed solver UNSAT but brute force SAT")
            }
            SatResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    #[test]
    fn repeated_passes_are_safe(raw in clauses_strategy(9)) {
        // Inprocessing is idempotent-safe: running the pass several times
        // back to back leaves a database that still answers correctly.
        let (cnf, clauses) = build(9, &raw);
        let expected = brute_force_sat(9, &clauses);
        let mut solver = Solver::new(cnf);
        for _ in 0..3 {
            solver.inprocess_now();
        }
        prop_assert_eq!(solver.solve().is_sat(), expected);
    }

    #[test]
    fn inprocessed_unsat_proofs_always_check(raw in clauses_strategy(10)) {
        // With the proof log attached BEFORE the pass, every inprocessing
        // step (unit additions, strengthened/vivified clauses, deletions)
        // lands in the proof, and the backward checker accepts
        // the refutation built on the rewritten database.
        let (cnf, clauses) = build(10, &raw);
        let mut solver =
            Solver::new(cnf.clone()).with_proof();
        solver.inprocess_now();
        let (result, stats, proof) = solver.solve_certified(Budget::new());
        let proof = proof.expect("certified solve always returns the log");
        prop_assert_eq!(stats.proof_steps as usize, proof.n_steps());
        match result {
            SatResult::Sat(model) => {
                for c in &clauses {
                    prop_assert!(c.iter().any(|&l| model.value(l)));
                }
                prop_assert!(!proof.is_concluded());
            }
            SatResult::Unsat => {
                prop_assert!(proof.is_concluded());
                let verdict = drat::check(&cnf, &proof);
                prop_assert!(
                    verdict.is_ok(),
                    "checker rejected an inprocessed proof: {:?}",
                    verdict
                );
            }
            SatResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    #[test]
    fn unit_verdicts_survive_inprocessing(
        raw in clauses_strategy(9),
        a0 in 0u32..9,
        p0 in any::<bool>(),
        a1 in 0u32..9,
        p1 in any::<bool>(),
    ) {
        // The formula plus one or two units answers like brute force after
        // an explicit pass: a pass may rewrite clauses over any variable,
        // never the set of models.
        for units in [vec![(a0, p0)], vec![(a0, p0), (a1, p1)]] {
            let mut with_units = raw.clone();
            with_units.extend(units.iter().map(|&u| vec![u]));
            let (cnf, clauses) = build(9, &with_units);
            let expected = brute_force_sat(9, &clauses);
            let mut solver = Solver::new(cnf);
            solver.inprocess_now();
            match solver.solve() {
                SatResult::Sat(model) => {
                    prop_assert!(expected, "SAT under {:?}", units);
                    for c in &clauses {
                        prop_assert!(c.iter().any(|&l| model.value(l)));
                    }
                }
                SatResult::Unsat => prop_assert!(!expected, "UNSAT under {:?}", units),
                SatResult::Unknown => prop_assert!(false, "no budget was set"),
            }
        }
    }

    #[test]
    fn no_inprocess_budget_is_bit_identical_to_legacy(raw in clauses_strategy(9)) {
        // `--no-inprocess` must reproduce the pre-inprocessing solver: same
        // verdict AND same conflict/decision counts as a default-budget run
        // on formulas too small to ever reach the inprocessing threshold.
        let (cnf, _) = build(9, &raw);
        let (r_off, s_off) = Solver::new(cnf.clone())
            .solve_with_budget(Budget::new().with_inprocess(false));
        let (r_on, s_on) = Solver::new(cnf).solve_with_budget(Budget::new());
        prop_assert_eq!(r_off.is_sat(), r_on.is_sat());
        if s_on.conflicts < 1_000 {
            // Below the first-pass threshold the knob must be a no-op.
            prop_assert_eq!(s_off.conflicts, s_on.conflicts);
            prop_assert_eq!(s_off.decisions, s_on.decisions);
        }
    }
}

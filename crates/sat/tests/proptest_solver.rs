//! Property-based cross-validation of the CDCL solver against brute force,
//! and of every certified verdict against the DRAT checker.

use mm_sat::{drat, Budget, CnfFormula, DratProof, ExactlyOne, Lit, SatResult, Solver, Var};
use proptest::prelude::*;

/// A random clause set over `n_vars` variables, as (var, polarity) pairs.
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
    fn solver_agrees_with_brute_force(raw in clauses_strategy(10)) {
        let (cnf, clauses) = build(10, &raw);
        let expected = brute_force_sat(10, &clauses);
        match Solver::new(cnf).solve() {
            SatResult::Sat(model) => {
                prop_assert!(expected, "solver SAT but brute force UNSAT");
                for c in &clauses {
                    prop_assert!(c.iter().any(|&l| model.value(l)), "model violates a clause");
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "solver UNSAT but brute force SAT"),
            SatResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    #[test]
    fn exactly_one_models_are_exact(k in 1usize..10, pick in any::<prop::sample::Index>()) {
        for enc in [ExactlyOne::Pairwise, ExactlyOne::Sequential, ExactlyOne::Commander] {
            let mut cnf = CnfFormula::new();
            let ys: Vec<Lit> = (0..k).map(|_| cnf.new_lit()).collect();
            cnf.exactly_one(&ys, enc);
            // Forcing any single y_i to be true must be satisfiable with all
            // other block literals false.
            let chosen = pick.index(k);
            cnf.add_unit(ys[chosen]);
            match Solver::new(cnf).solve() {
                SatResult::Sat(m) => {
                    for (i, &y) in ys.iter().enumerate() {
                        prop_assert_eq!(m.value(y), i == chosen);
                    }
                }
                other => prop_assert!(false, "expected SAT, got {:?}", other),
            }
        }
    }

    #[test]
    fn certified_verdicts_are_independently_checkable(raw in clauses_strategy(10)) {
        // Every UNSAT verdict's DRAT proof passes the checker (including
        // after a round trip through the textual format), and every SAT
        // model satisfies the formula clause by clause.
        let (cnf, clauses) = build(10, &raw);
        let (result, stats, proof) = Solver::new(cnf.clone()).solve_certified(Budget::new());
        let proof = proof.expect("certified solve always returns the log");
        prop_assert_eq!(stats.proof_steps as usize, proof.n_steps());
        match result {
            SatResult::Sat(model) => {
                for c in &clauses {
                    prop_assert!(c.iter().any(|&l| model.value(l)), "model violates a clause");
                }
                prop_assert!(!proof.is_concluded(), "SAT must not conclude a refutation");
                prop_assert!(drat::check(&cnf, &proof).is_err());
            }
            SatResult::Unsat => {
                prop_assert!(proof.is_concluded());
                let direct = drat::check(&cnf, &proof);
                prop_assert!(direct.is_ok(), "checker rejected a solver proof: {:?}", direct);
                let reparsed = DratProof::parse(&proof.to_drat_string())
                    .expect("solver proofs serialize to valid DRAT text");
                prop_assert_eq!(&reparsed, &proof);
                prop_assert!(drat::check(&cnf, &reparsed).is_ok());
            }
            SatResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    #[test]
    fn truncated_proofs_never_check(raw in clauses_strategy(9)) {
        // Dropping the concluding empty clause — what a crash or abort
        // leaves behind — must always be rejected.
        let (cnf, _) = build(9, &raw);
        let (result, _, proof) = Solver::new(cnf.clone()).solve_certified(Budget::new());
        if result.is_unsat() {
            let proof = proof.expect("log present");
            let truncated =
                DratProof::from_steps(proof.steps()[..proof.n_steps() - 1].to_vec());
            prop_assert!(!truncated.is_concluded());
            prop_assert_eq!(
                drat::check(&cnf, &truncated),
                Err(drat::DratError::NoEmptyClause)
            );
        }
    }

    #[test]
    fn budgeted_solves_never_lie(raw in clauses_strategy(10)) {
        // With a tiny budget the solver may return Unknown, but when it does
        // answer, the answer must match brute force.
        let (cnf, clauses) = build(10, &raw);
        let expected = brute_force_sat(10, &clauses);
        let (result, _) =
            Solver::new(cnf).solve_with_budget(Budget::new().with_max_conflicts(8));
        match result {
            SatResult::Sat(_) => prop_assert!(expected),
            SatResult::Unsat => prop_assert!(!expected),
            SatResult::Unknown => {}
        }
    }
}

//! Negative certification tests: the checker must reject every corrupted
//! or incomplete proof a hostile (or buggy) solver could present.
//!
//! The corruption classes mirror the ways a certification pipeline can
//! actually fail: truncation (crash/abort mid-proof), reordering (a lemma
//! claimed before its antecedents exist), single-literal mutation (memory
//! corruption or an emission bug), and cancellation (a solve that never
//! finished must not look finished).

use std::time::Duration;

use mm_sat::drat::{check, DratError, ProofStep};
use mm_sat::{
    Budget, CancellationToken, CnfFormula, Deadline, DratProof, Lit, SatResult, Solver, Var,
};

/// Pigeonhole `pigeons` into `holes` — UNSAT for pigeons > holes, with no
/// unit clauses, so the empty clause is never RUP of the bare formula.
#[allow(clippy::needless_range_loop)]
fn pigeonhole(pigeons: usize, holes: usize) -> CnfFormula {
    let mut cnf = CnfFormula::new();
    let vars: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| cnf.new_lit()).collect())
        .collect();
    for p in &vars {
        cnf.add_clause(p.iter().copied());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                cnf.add_clause([!vars[p1][h], !vars[p2][h]]);
            }
        }
    }
    cnf
}

/// A deterministic certified refutation of php(5, 4).
fn certified_php() -> (CnfFormula, DratProof) {
    let cnf = pigeonhole(5, 4);
    let (result, _, proof) = Solver::new(cnf.clone()).solve_certified(Budget::new());
    assert_eq!(result, SatResult::Unsat);
    let proof = proof.expect("certified solve returns the log");
    check(&cnf, &proof).expect("the unmodified proof checks");
    (cnf, proof)
}

#[test]
fn truncated_proof_is_rejected() {
    let (cnf, proof) = certified_php();
    // Drop the conclusion, then progressively more of the tail: every
    // prefix lacks the empty clause and must be rejected.
    for keep in [proof.n_steps() - 1, proof.n_steps() / 2, 1, 0] {
        let truncated = DratProof::from_steps(proof.steps()[..keep].to_vec());
        assert_eq!(
            check(&cnf, &truncated),
            Err(DratError::NoEmptyClause),
            "truncated to {keep} steps"
        );
    }
}

#[test]
fn reordered_proof_is_rejected() {
    let (cnf, proof) = certified_php();
    // Move the concluding empty clause to the front: the formula has no
    // unit clauses, so nothing propagates and the claim cannot be RUP.
    let mut steps = proof.steps().to_vec();
    let conclusion = steps.pop().expect("non-empty proof");
    assert_eq!(conclusion, ProofStep::Add(Vec::new()));
    steps.insert(0, conclusion);
    let reordered = DratProof::from_steps(steps);
    assert_eq!(check(&cnf, &reordered), Err(DratError::NotRup { step: 0 }));
}

#[test]
fn single_literal_mutations_are_caught() {
    let (cnf, proof) = certified_php();
    // Flip the polarity of one literal at a time, in every position of
    // every addition. Corruptions of non-core lemmas are legitimately
    // ignored (lazy core marking, exactly like drat-trim), but the
    // derivation's load-bearing steps must be protected: at least one flip
    // in the spine must produce a rejection, and no flip may crash the
    // checker or mis-report anything but a clean verdict.
    let mut rejected = 0usize;
    let mut tried = 0usize;
    for (s, step) in proof.steps().iter().enumerate() {
        let ProofStep::Add(lits) = step else {
            continue;
        };
        for k in 0..lits.len() {
            tried += 1;
            let mut steps = proof.steps().to_vec();
            if let ProofStep::Add(ref mut mutated) = steps[s] {
                mutated[k] = !mutated[k];
            }
            if check(&cnf, &DratProof::from_steps(steps)).is_err() {
                rejected += 1;
            }
        }
    }
    assert!(tried > 0, "php(5,4) proof has addition literals to mutate");
    assert!(
        rejected > 0,
        "no single-literal mutation was rejected across {tried} flips"
    );
}

#[test]
fn foreign_empty_clause_claim_is_rejected() {
    // A "proof" that only claims the empty clause for a formula that is
    // not propagation-refutable must fail, even though the formula is
    // genuinely UNSAT — RUP is a derivation check, not an oracle.
    let cnf = pigeonhole(4, 3);
    let bare_claim = DratProof::from_steps(vec![ProofStep::Add(Vec::new())]);
    assert_eq!(check(&cnf, &bare_claim), Err(DratError::NotRup { step: 0 }));
}

#[test]
fn cancelled_solve_yields_unknown_without_checkable_proof() {
    // Pre-tripped token: the solver must bail out before any conclusion.
    let cnf = pigeonhole(6, 5);
    let token = CancellationToken::new();
    token.cancel();
    let (result, stats, proof) =
        Solver::new(cnf.clone()).solve_certified(Budget::new().with_cancellation(token));
    assert_eq!(result, SatResult::Unknown);
    assert!(stats.cancelled);
    let proof = proof.expect("the log itself is still returned");
    assert!(!proof.is_concluded());
    assert_eq!(check(&cnf, &proof), Err(DratError::NoEmptyClause));
}

#[test]
fn mid_run_cancellation_never_concludes_a_proof() {
    // Cancel from another thread while the solver is deep in a hard
    // instance: whatever partial derivation exists must not check.
    let cnf = pigeonhole(11, 10);
    let token = CancellationToken::new();
    let budget = Budget::new()
        .with_deadline(Deadline::after(Duration::from_secs(120)))
        .with_cancellation(token.clone());
    let solver_cnf = cnf.clone();
    let handle = std::thread::spawn(move || Solver::new(solver_cnf).solve_certified(budget));
    std::thread::sleep(Duration::from_millis(30));
    token.cancel();
    let (result, stats, proof) = handle.join().expect("solver thread");
    assert_eq!(result, SatResult::Unknown);
    assert!(stats.cancelled);
    let proof = proof.expect("log present");
    assert!(!proof.is_concluded());
    assert_eq!(check(&cnf, &proof), Err(DratError::NoEmptyClause));
}

#[test]
fn proof_for_a_different_formula_is_rejected() {
    // A valid php(5,4) proof replayed against php(4,3): the clause ids
    // cannot line up — additions reference variables the smaller formula
    // does not even have.
    let (_, proof) = certified_php();
    let smaller = pigeonhole(4, 3);
    assert!(check(&smaller, &proof).is_err());
}

/// A deterministic certified refutation whose proof contains genuine
/// inprocessing steps: the pass runs with the log attached, so its
/// strengthened clauses and deletions appear in the stream before the
/// search-derived lemmas.
///
/// The formula is php(5, 4) plus, per pigeon `i`, the clause
/// `(¬p_i0 ∨ p_i1 ∨ p_i2 ∨ p_i3)`: self-subsuming resolution with the
/// pigeon's row strengthens it to `(p_i1 ∨ p_i2 ∨ p_i3)` (an addition
/// followed by the deletion of its parent), which then subsumes the row (a
/// pure deletion). The refutation needs every pigeon's strengthened row.
fn certified_inprocessed_php() -> (CnfFormula, DratProof) {
    let mut cnf = pigeonhole(5, 4);
    let p = |i: u32, h: u32| Var::from_index(i * 4 + h).positive();
    for i in 0..5 {
        cnf.add_clause([!p(i, 0), p(i, 1), p(i, 2), p(i, 3)]);
    }
    let mut solver = Solver::new(cnf.clone()).with_proof();
    solver.inprocess_now();
    let stats = solver.stats();
    assert!(
        stats.strengthened_clauses >= 5 && stats.subsumed_clauses >= 5,
        "the pass must strengthen and subsume every pigeon's clauses: {stats}"
    );
    let (result, _, proof) = solver.solve_certified(Budget::new());
    assert_eq!(result, SatResult::Unsat);
    let proof = proof.expect("certified solve returns the log");
    assert!(
        proof
            .steps()
            .iter()
            .any(|s| matches!(s, ProofStep::Delete(_))),
        "inprocessing must emit deletions"
    );
    check(&cnf, &proof).expect("the unmodified inprocessed proof checks");
    (cnf, proof)
}

#[test]
fn corrupted_inprocessing_deletion_is_rejected() {
    let (cnf, proof) = certified_inprocessed_php();
    // Mutate each deletion by flipping one literal. A corruption that
    // names no live clause must surface as DeleteUnknownClause at exactly
    // that step — deletions are matched against the live database, not
    // taken on faith.
    let mut tried = 0usize;
    let mut rejected_at_step = 0usize;
    for (s, step) in proof.steps().iter().enumerate() {
        let ProofStep::Delete(lits) = step else {
            continue;
        };
        if lits.is_empty() {
            continue;
        }
        tried += 1;
        let mut steps = proof.steps().to_vec();
        if let ProofStep::Delete(ref mut mutated) = steps[s] {
            mutated[0] = !mutated[0];
        }
        // Flipping may accidentally name another live clause, in which
        // case that clause vanishes instead: the proof may then fail
        // later, or — for a non-core clause — legitimately pass.
        if let Err(DratError::DeleteUnknownClause { step }) =
            check(&cnf, &DratProof::from_steps(steps))
        {
            assert_eq!(step, s, "rejection must name the corrupted step");
            rejected_at_step += 1;
        }
        if tried >= 25 {
            break; // bounded: the first deletions are the inprocessing ones
        }
    }
    assert!(tried > 0, "inprocessed php(5,4) proof has deletions");
    assert!(
        rejected_at_step > 0,
        "no corrupted deletion was pinned to its step across {tried} tries"
    );
}

#[test]
fn fabricated_inprocessing_addition_is_rejected() {
    let (cnf, proof) = certified_inprocessed_php();
    // Splice a fabricated "resolvent" in front of the first real addition:
    // a fresh clause over the formula's variables that no propagation
    // derives (php row disjunction negated pairwise would be RUP, so use a
    // unit that nothing implies). A checker that trusted inprocessing
    // additions blindly would accept it.
    let bogus = ProofStep::Add(vec![Lit::from_code(0)]);
    let mut steps = proof.steps().to_vec();
    steps.insert(0, bogus);
    assert_eq!(
        check(&cnf, &DratProof::from_steps(steps)),
        Err(DratError::NotRup { step: 0 })
    );
}

#[test]
fn early_deletion_of_a_parent_breaks_the_derivation() {
    let (cnf, proof) = certified_inprocessed_php();
    // Inprocessing's discipline is add-before-delete: a resolvent is only
    // RUP while its parents are still in the database. Hoisting the first
    // deletion in front of the first addition must therefore break either
    // the deletion itself (clause not yet present — it may have been
    // emitted by a rewrite) or a later RUP step that needed the clause.
    let first_add = proof
        .steps()
        .iter()
        .position(|s| matches!(s, ProofStep::Add(_)))
        .expect("proof has additions");
    let first_del = proof
        .steps()
        .iter()
        .position(|s| matches!(s, ProofStep::Delete(_)))
        .expect("proof has deletions");
    if first_del < first_add {
        // Deletions of satisfied originals can legitimately precede any
        // addition; move the first post-addition deletion instead.
        return;
    }
    let mut steps = proof.steps().to_vec();
    let del = steps.remove(first_del);
    steps.insert(0, del);
    let verdict = check(&cnf, &DratProof::from_steps(steps));
    assert!(
        verdict.is_err(),
        "hoisted deletion must invalidate the proof, got {verdict:?}"
    );
}

#[test]
fn inprocessed_cancelled_solve_has_no_checkable_proof() {
    // Inprocessing plus cancellation: a pass may have emitted additions
    // and deletions, but without the concluding empty clause the stream
    // must never check.
    let cnf = pigeonhole(6, 5);
    let token = CancellationToken::new();
    let mut solver = Solver::new(cnf.clone()).with_proof();
    solver.inprocess_now();
    token.cancel();
    let (result, stats, proof) = solver.solve_certified(Budget::new().with_cancellation(token));
    assert_eq!(result, SatResult::Unknown);
    assert!(stats.cancelled);
    let proof = proof.expect("log present");
    assert!(!proof.is_concluded());
    assert_eq!(check(&cnf, &proof), Err(DratError::NoEmptyClause));
}

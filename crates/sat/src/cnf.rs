use std::fmt;

use crate::{Lit, Var};

/// Available encodings for the *exactly-one* constraint μ(y₁, …, y_k) of the
/// paper's Eq. 3.
///
/// The paper uses the naive pairwise encoding (`(y₁ ∨ … ∨ y_k) ∧
/// ⋀_{i<j}(¬y_i ∨ ¬y_j)`); the sequential and commander encodings trade
/// auxiliary variables for asymptotically fewer clauses and are provided for
/// the encoder ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExactlyOne {
    /// `O(k²)` binary clauses, no auxiliary variables (the paper's μ).
    #[default]
    Pairwise,
    /// Sinz's sequential counter: `O(k)` clauses, `k − 1` auxiliaries.
    Sequential,
    /// Commander encoding with groups of 3: `O(k)` clauses and auxiliaries,
    /// recursing on the commanders.
    Commander,
}

/// A CNF formula under construction.
///
/// Variables are allocated through [`new_var`](Self::new_var) /
/// [`new_lit`](Self::new_lit); clauses are added through
/// [`add_clause`](Self::add_clause) and the higher-level helpers
/// ([`add_guarded_iff`](Self::add_guarded_iff), [`exactly_one`](Self::exactly_one), …) used
/// by the synthesis encoder.
///
/// # Example
///
/// ```
/// use mm_sat::{CnfFormula, ExactlyOne};
///
/// let mut cnf = CnfFormula::new();
/// let ys: Vec<_> = (0..4).map(|_| cnf.new_lit()).collect();
/// cnf.exactly_one(&ys, ExactlyOne::Pairwise);
/// assert_eq!(cnf.n_clauses(), 1 + 6); // 1 at-least-one + C(4,2) at-most-one
/// ```
#[derive(Debug, Clone, Default)]
pub struct CnfFormula {
    n_vars: u32,
    clauses: Vec<Vec<Lit>>,
}

impl CnfFormula {
    /// Creates an empty formula with no variables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.n_vars);
        self.n_vars += 1;
        v
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        self.new_var().positive()
    }

    /// Allocates `n` fresh variables at once, returning their positive
    /// literals.
    pub fn new_lits(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.new_lit()).collect()
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: u32) {
        self.n_vars = self.n_vars.max(n);
    }

    /// Number of allocated variables.
    pub fn n_vars(&self) -> u32 {
        self.n_vars
    }

    /// Number of clauses added so far.
    pub fn n_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses added so far.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Duplicated literals are removed and tautological clauses (containing
    /// both polarities of a variable) are dropped. Variables mentioned by
    /// the clause are implicitly allocated.
    ///
    /// # Panics
    ///
    /// Panics if the clause is empty: an empty clause makes the formula
    /// trivially unsatisfiable, and constructing one is always an encoder
    /// bug in this workspace.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        assert!(!clause.is_empty(), "attempted to add an empty clause");
        clause.sort_unstable_by_key(|l| l.code());
        clause.dedup();
        // Tautology: adjacent codes 2v, 2v+1 after sort.
        if clause.windows(2).any(|w| w[0].code() ^ 1 == w[1].code()) {
            return;
        }
        if let Some(max) = clause.iter().map(|l| l.var().index()).max() {
            self.reserve_vars(max + 1);
        }
        self.clauses.push(clause);
    }

    /// Adds the unit clause `(l)`.
    pub fn add_unit(&mut self, l: Lit) {
        self.add_clause([l]);
    }

    /// Adds `a → b` as the clause `(¬a ∨ b)`.
    pub fn add_implies(&mut self, a: Lit, b: Lit) {
        self.add_clause([!a, b]);
    }

    /// Adds `guard → (a ≡ b)` as two ternary clauses.
    ///
    /// This is the shape of the paper's Eqs. 5, 7 and 10 after expanding the
    /// connectivity guards.
    pub fn add_guarded_iff(&mut self, guard: &[Lit], a: Lit, b: Lit) {
        let mut c1: Vec<Lit> = guard.iter().map(|&g| !g).collect();
        let mut c2 = c1.clone();
        c1.extend([!a, b]);
        c2.extend([a, !b]);
        self.add_clause(c1);
        self.add_clause(c2);
    }

    /// Adds `guard → (r ≡ ¬(a ∨ b))` (a guarded NOR definition, Eq. 7).
    pub fn add_guarded_nor(&mut self, guard: &[Lit], r: Lit, a: Lit, b: Lit) {
        let neg: Vec<Lit> = guard.iter().map(|&g| !g).collect();
        let mut c = neg.clone();
        c.extend([!a, !r]);
        self.add_clause(c);
        let mut c = neg.clone();
        c.extend([!b, !r]);
        self.add_clause(c);
        let mut c = neg;
        c.extend([a, b, r]);
        self.add_clause(c);
    }

    /// Adds `guard → (r ≡ (a ∧ ¬b))` (a guarded NIMP definition, for
    /// IMPLY-family R-ops).
    pub fn add_guarded_nimp(&mut self, guard: &[Lit], r: Lit, a: Lit, b: Lit) {
        let neg: Vec<Lit> = guard.iter().map(|&g| !g).collect();
        let mut c = neg.clone();
        c.extend([a, !r]);
        self.add_clause(c);
        let mut c = neg.clone();
        c.extend([!b, !r]);
        self.add_clause(c);
        let mut c = neg;
        c.extend([!a, b, r]);
        self.add_clause(c);
    }

    /// Adds the *at-least-one* clause `(y₁ ∨ … ∨ y_k)`.
    ///
    /// # Panics
    ///
    /// Panics if `ys` is empty.
    pub fn at_least_one(&mut self, ys: &[Lit]) {
        self.add_clause(ys.iter().copied());
    }

    /// Adds an *at-most-one* constraint over `ys` using `encoding`.
    pub fn at_most_one(&mut self, ys: &[Lit], encoding: ExactlyOne) {
        match encoding {
            ExactlyOne::Pairwise => {
                for i in 0..ys.len() {
                    for j in (i + 1)..ys.len() {
                        self.add_clause([!ys[i], !ys[j]]);
                    }
                }
            }
            ExactlyOne::Sequential => self.at_most_one_sequential(ys),
            ExactlyOne::Commander => self.at_most_one_commander(ys),
        }
    }

    /// Adds the paper's mutex μ(y₁, …, y_k) (Eq. 3): exactly one of `ys`
    /// is true.
    ///
    /// # Panics
    ///
    /// Panics if `ys` is empty.
    pub fn exactly_one(&mut self, ys: &[Lit], encoding: ExactlyOne) {
        self.at_least_one(ys);
        self.at_most_one(ys, encoding);
    }

    /// Adds an *at-most-k* cardinality constraint over `ys` (Sinz's
    /// sequential counter, `O(k·n)` clauses and auxiliaries).
    ///
    /// With `k ≥ ys.len()` the constraint is vacuous and nothing is added;
    /// with `k = 0` every literal is forced false by a unit clause. The
    /// synthesis encoder uses this to cap the number of distinct literal
    /// feeds a schedule may claim, so cell-avoidance placement provably
    /// succeeds on the remaining working cells.
    pub fn at_most_k(&mut self, ys: &[Lit], k: usize) {
        let n = ys.len();
        if n <= k {
            return;
        }
        if k == 0 {
            for &y in ys {
                self.add_unit(!y);
            }
            return;
        }
        if k == 1 {
            return self.at_most_one(ys, ExactlyOne::Sequential);
        }
        // prev[j] accumulates "at least j+1 of y₀..y_i are true".
        let mut prev: Vec<Lit> = (0..k).map(|_| self.new_lit()).collect();
        self.add_implies(ys[0], prev[0]);
        for &s in &prev[1..] {
            self.add_unit(!s);
        }
        for &y in &ys[1..n - 1] {
            let cur: Vec<Lit> = (0..k).map(|_| self.new_lit()).collect();
            self.add_implies(y, cur[0]);
            self.add_implies(prev[0], cur[0]);
            for j in 1..k {
                self.add_clause([!y, !prev[j - 1], cur[j]]);
                self.add_implies(prev[j], cur[j]);
            }
            // y_i on top of an already-full prefix overflows.
            self.add_clause([!y, !prev[k - 1]]);
            prev = cur;
        }
        self.add_clause([!ys[n - 1], !prev[k - 1]]);
    }

    fn at_most_one_sequential(&mut self, ys: &[Lit]) {
        if ys.len() <= 4 {
            return self.at_most_one(ys, ExactlyOne::Pairwise);
        }
        // Sinz sequential counter with k = 1.
        let mut prev_s = ys[0];
        for i in 1..ys.len() {
            let s = if i + 1 < ys.len() {
                self.new_lit()
            } else {
                prev_s
            };
            if i + 1 < ys.len() {
                // s_i is an OR-accumulator: y_i → s_i, s_{i-1} → s_i.
                self.add_implies(ys[i], s);
                self.add_implies(prev_s, s);
            }
            // y_i conflicts with the accumulated prefix.
            self.add_clause([!ys[i], !prev_s]);
            if i + 1 < ys.len() {
                prev_s = s;
            }
        }
    }

    fn at_most_one_commander(&mut self, ys: &[Lit]) {
        if ys.len() <= 6 {
            return self.at_most_one(ys, ExactlyOne::Pairwise);
        }
        let mut commanders = Vec::new();
        for group in ys.chunks(3) {
            let c = self.new_lit();
            // At most one inside the group.
            self.at_most_one(group, ExactlyOne::Pairwise);
            // c is true iff some group member is true.
            for &y in group {
                self.add_implies(y, c);
            }
            let mut clause: Vec<Lit> = vec![!c];
            clause.extend(group.iter().copied());
            self.add_clause(clause);
            commanders.push(c);
        }
        self.at_most_one_commander(&commanders);
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cnf with {} vars, {} clauses",
            self.n_vars,
            self.clauses.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SatResult, Solver};

    fn count_models(cnf: &CnfFormula, over: &[Lit]) -> usize {
        // Enumerate assignments over the given literals by brute force using
        // the solver with blocking clauses.
        let mut cnf = cnf.clone();
        let mut count = 0;
        loop {
            match Solver::new(cnf.clone()).solve() {
                SatResult::Sat(model) => {
                    count += 1;
                    let block: Vec<Lit> = over
                        .iter()
                        .map(|&l| if model.value(l) { !l } else { l })
                        .collect();
                    cnf.add_clause(block);
                }
                SatResult::Unsat => return count,
                SatResult::Unknown => panic!("solver gave up on a tiny instance"),
            }
        }
    }

    #[test]
    fn clause_dedup_and_tautology() {
        let mut cnf = CnfFormula::new();
        let a = cnf.new_lit();
        let b = cnf.new_lit();
        cnf.add_clause([a, a, b]);
        assert_eq!(cnf.clauses()[0].len(), 2);
        cnf.add_clause([a, !a]);
        assert_eq!(cnf.n_clauses(), 1, "tautologies must be dropped");
    }

    #[test]
    #[should_panic(expected = "empty clause")]
    fn empty_clause_panics() {
        let mut cnf = CnfFormula::new();
        cnf.add_clause([]);
    }

    #[test]
    fn exactly_one_encodings_agree() {
        for k in 1..=9usize {
            let mut counts = Vec::new();
            for enc in [
                ExactlyOne::Pairwise,
                ExactlyOne::Sequential,
                ExactlyOne::Commander,
            ] {
                let mut cnf = CnfFormula::new();
                let ys: Vec<Lit> = (0..k).map(|_| cnf.new_lit()).collect();
                cnf.exactly_one(&ys, enc);
                counts.push(count_models(&cnf, &ys));
            }
            assert_eq!(
                counts,
                vec![k, k, k],
                "k = {k}: each encoding must admit exactly k models"
            );
        }
    }

    #[test]
    fn at_most_k_admits_exactly_the_bounded_models() {
        fn binomial(n: usize, r: usize) -> usize {
            (0..r).fold(1, |acc, i| acc * (n - i) / (i + 1))
        }
        for n in 1..=6usize {
            for k in 0..=n {
                let mut cnf = CnfFormula::new();
                let ys: Vec<Lit> = (0..n).map(|_| cnf.new_lit()).collect();
                cnf.at_most_k(&ys, k);
                let expect: usize = (0..=k).map(|r| binomial(n, r)).sum();
                // A vacuous constraint adds no clauses at all.
                if k >= n {
                    assert_eq!(cnf.n_clauses(), 0, "n = {n}, k = {k}");
                }
                assert_eq!(
                    count_models(&cnf, &ys),
                    expect,
                    "n = {n}, k = {k}: wrong model count"
                );
            }
        }
    }

    #[test]
    fn at_most_k_zero_forces_all_false() {
        let mut cnf = CnfFormula::new();
        let ys: Vec<Lit> = (0..3).map(|_| cnf.new_lit()).collect();
        cnf.at_most_k(&ys, 0);
        match Solver::new(cnf).solve() {
            SatResult::Sat(m) => {
                for &y in &ys {
                    assert!(!m.value(y));
                }
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn guarded_iff_semantics() {
        let mut cnf = CnfFormula::new();
        let g = cnf.new_lit();
        let a = cnf.new_lit();
        let b = cnf.new_lit();
        cnf.add_guarded_iff(&[g], a, b);
        cnf.add_unit(g);
        cnf.add_unit(a);
        match Solver::new(cnf).solve() {
            SatResult::Sat(m) => assert!(m.value(b)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn guarded_nor_semantics() {
        for (av, bv, expect) in [
            (false, false, true),
            (true, false, false),
            (true, true, false),
        ] {
            let mut cnf = CnfFormula::new();
            let g = cnf.new_lit();
            let a = cnf.new_lit();
            let b = cnf.new_lit();
            let r = cnf.new_lit();
            cnf.add_guarded_nor(&[g], r, a, b);
            cnf.add_unit(g);
            cnf.add_unit(if av { a } else { !a });
            cnf.add_unit(if bv { b } else { !b });
            match Solver::new(cnf).solve() {
                SatResult::Sat(m) => assert_eq!(m.value(r), expect, "NOR({av},{bv})"),
                other => panic!("expected SAT, got {other:?}"),
            }
        }
    }

    #[test]
    fn guarded_nimp_semantics() {
        for (av, bv, expect) in [
            (false, false, false),
            (true, false, true),
            (true, true, false),
            (false, true, false),
        ] {
            let mut cnf = CnfFormula::new();
            let g = cnf.new_lit();
            let a = cnf.new_lit();
            let b = cnf.new_lit();
            let r = cnf.new_lit();
            cnf.add_guarded_nimp(&[g], r, a, b);
            cnf.add_unit(g);
            cnf.add_unit(if av { a } else { !a });
            cnf.add_unit(if bv { b } else { !b });
            match Solver::new(cnf).solve() {
                SatResult::Sat(m) => assert_eq!(m.value(r), expect, "NIMP({av},{bv})"),
                other => panic!("expected SAT, got {other:?}"),
            }
        }
    }

    #[test]
    fn unguarded_helpers() {
        let mut cnf = CnfFormula::new();
        let a = cnf.new_lit();
        let b = cnf.new_lit();
        let c = cnf.new_lit();
        cnf.add_implies(a, b);
        cnf.add_clause([!a, !b, c]);
        cnf.add_unit(a);
        match Solver::new(cnf).solve() {
            SatResult::Sat(m) => {
                assert!(m.value(b));
                assert!(m.value(c));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }
}

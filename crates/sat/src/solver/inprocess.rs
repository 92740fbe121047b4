//! Inprocessing: clause-database simplification at restart boundaries.
//!
//! A pass runs in two phases, both at decision level 0 and both in place
//! on the solver's own clause indices:
//!
//! 1. **Vivification** — each candidate clause is temporarily detached and
//!    its literals' negations are asserted one by one with real unit
//!    propagation. A conflict, an implied literal, or a falsified literal
//!    shrinks the clause in place.
//! 2. **Subsumption / self-subsuming resolution** — occurrence lists are
//!    rebuilt over the live long clauses (dropping clauses satisfied at
//!    level 0 and stripping literals falsified there). The clauses learnt,
//!    added or rewritten since the previous pass — the whole database on
//!    the first pass — then serve as subsumers, long clauses and binaries
//!    alike: each is tried against the full occurrence lists of its
//!    rarest variable, which hold every clause it can subsume or
//!    strengthen. A long candidate is first checked against the binary
//!    layer, which may subsume or strengthen it in turn. A subsumed clause
//!    is marked `deleted` and its watches are dropped lazily by
//!    propagation, exactly as `reduce_db` does; a strengthened clause is
//!    rewritten in place through `detach_watches`/`attach_watches` and
//!    becomes a candidate itself.
//!
//! Each pass starts by compacting the database: deleted long-clause slots
//! are dropped and the binaries satisfied at level 0 or duplicated (bus
//! imports do not deduplicate) are deleted.
//!
//! # Effort
//!
//! Subsumption may spend one visit — an occurrence entry or clause literal
//! examined — per propagation the search has made, minus the visits
//! inprocessing has already spent, so inprocessing stays a bounded share
//! of solve time by construction; the work done is counted in
//! `SolverStats::inprocess_visits` together with vivification's probed
//! literals. Candidates the budget does not reach are dropped, not carried
//! over: the encoding's own clauses rarely subsume each other, the freshly
//! learnt ones do. Candidates are popped newest first, so the learnt
//! binaries and the latest learnt clauses go first.
//!
//! # DRAT coverage
//!
//! Every step is logged so `--certify` keeps checking:
//!
//! - Implied level-0 literals are logged as unit additions *before* any
//!   deletion can remove the clauses that derive them (each unit is RUP:
//!   its negation propagates to a conflict along the recorded reasons).
//! - A vivified or strengthened clause is a subset of a clause still in
//!   the database, with every dropped literal falsified by unit
//!   propagation from the asserted negations — RUP by construction. The
//!   candidate is detached during the probe precisely so the derivation
//!   never passes through the clause being rewritten.
//! - Additions are always emitted before the deletions they justify, and
//!   deletions are emitted for exact clauses previously in the database
//!   (the checker matches sorted literal multisets).
//!
//! Subsumption and plain deletion only ever *remove* clauses, which can
//! never invalidate a later RUP derivation recorded by the solver, because
//! the solver's own database shrinks in lockstep with the proof's.
//!
//! # Invariants
//!
//! - Every live long clause is free of duplicate and complementary
//!   literals (`CnfFormula` and `add_simplified_clause` normalize them),
//!   which lets the subset test count literal hits against one mark array.
//! - A rewritten clause keeps only literals unassigned at level 0, so its
//!   new watches satisfy the two-watched-literal invariant without a
//!   re-propagation of the trail.

use super::{Reason, Solver, Watch, UNASSIGNED};
use crate::Lit;

/// Max candidate clauses probed by vivification per pass.
const VIVIFY_MAX_CLAUSES: usize = 256;
/// Max trail pushes vivification may spend per pass.
const VIVIFY_PROP_BUDGET: usize = 20_000;
/// Subsumption visits every pass may spend regardless of the search work
/// behind it, so an explicit pass on a fresh solver still simplifies.
const SUBSUME_MIN_EFFORT: u64 = 10_000;

/// 64-bit variable-set signature: `sig(a) & !sig(b) != 0` proves `a ⊄ b`
/// over variables, pruning most subset tests in one AND.
fn var_sig(lits: &[Lit]) -> u64 {
    lits.iter()
        .fold(0u64, |s, l| s | 1u64 << (l.var().index() % 64))
}

/// A subsumption candidate: a long clause by index, or a binary clause.
#[derive(Clone, Copy)]
enum Candidate {
    Long(usize),
    Binary(Lit, Lit),
}

/// Per-pass subsumption state: occurrence lists and signatures over the
/// live long clauses, the candidate stack, and the remaining effort.
struct Subsumption {
    /// Every live long clause under each of its literals.
    occ: Vec<Vec<u32>>,
    sig: Vec<u64>,
    /// `marked[l.code()]`: `l` belongs to the current candidate.
    marked: Vec<bool>,
    queue: Vec<Candidate>,
    effort: u64,
}

impl Subsumption {
    /// Spends `n` visits of the effort budget and records them in
    /// `stats`; returns whether any budget is left.
    fn charge(&mut self, stats: &mut crate::SolverStats, n: u64) -> bool {
        stats.inprocess_visits += n;
        self.effort = self.effort.saturating_sub(n);
        self.effort > 0
    }
}

impl Solver {
    /// Runs an inprocessing pass if the budget allows it and enough
    /// conflicts have accumulated since the last one. Called at call entry
    /// and at every restart, always at decision level 0.
    pub(super) fn maybe_inprocess(&mut self, budget: &crate::Budget) {
        if !budget.inprocess() || !self.ok {
            return;
        }
        if self.stats.conflicts < self.next_inprocess {
            return;
        }
        self.inprocess_now();
        // Geometric back-off keeps inprocessing a vanishing fraction of
        // total search effort on long runs.
        self.inprocess_interval = self.inprocess_interval.saturating_mul(3) / 2;
        self.next_inprocess = self.stats.conflicts + self.inprocess_interval;
    }

    /// Runs one full inprocessing pass immediately.
    ///
    /// Public as a deterministic hook for tests and tools; normal solving
    /// schedules passes automatically at restart boundaries. Must be
    /// called at decision level 0 (between solve calls qualifies).
    pub fn inprocess_now(&mut self) {
        assert_eq!(
            self.current_level(),
            0,
            "inprocessing only runs at decision level 0"
        );
        if !self.ok {
            return;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return;
        }
        self.log_level0_units();
        self.collect_garbage();
        let vivified = self.vivify();
        if self.ok {
            // Vivification's trailing propagate can derive further level-0
            // facts; log them while their reason clauses are still alive,
            // before subsumption deletes any clause that derives them.
            self.log_level0_units();
            self.subsume(vivified);
        }
        self.subsume_from = self.clauses.len();
        for (mark, bins) in self.bin_mark.iter_mut().zip(&self.bin_implications) {
            *mark = bins.len() as u32;
        }
    }

    /// Emits unit additions for implied level-0 literals not yet logged.
    ///
    /// Must run before any deletion that could remove a deriving clause:
    /// afterwards the units carry the facts in the proof database
    /// themselves, so the derivers become deletable.
    fn log_level0_units(&mut self) {
        if self.proof.is_none() {
            self.l0_units_logged = self.trail.len();
            return;
        }
        for i in self.l0_units_logged..self.trail.len() {
            let l = self.trail[i];
            // Decision-reason level-0 literals are original or previously
            // logged unit clauses — already in the proof database.
            if !matches!(self.reason[l.var().index() as usize], Reason::Decision) {
                self.proof_add(&[l]);
            }
        }
        self.l0_units_logged = self.trail.len();
    }

    /// Compacts the database at level 0: drops the deleted long-clause
    /// slots (renumbering the survivors and their watches in place) and
    /// deletes the binaries that are satisfied at level 0 or duplicated.
    ///
    /// Runs after `log_level0_units`, so no level-0 fact needs its reason
    /// clause any more, in the proof or in conflict analysis.
    fn collect_garbage(&mut self) {
        let mut renumber = vec![u32::MAX; self.clauses.len()];
        let mut live = 0u32;
        for (idx, c) in self.clauses.iter().enumerate() {
            if !c.deleted {
                renumber[idx] = live;
                live += 1;
            }
        }
        self.subsume_from = renumber[..self.subsume_from]
            .iter()
            .filter(|&&n| n != u32::MAX)
            .count();
        self.clauses.retain(|c| !c.deleted);
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                w.clause = renumber[w.clause as usize];
                w.clause != u32::MAX
            });
        }
        for &l in &self.trail {
            self.reason[l.var().index() as usize] = Reason::Decision;
        }

        // Each binary sits in both its literals' lists and is dropped from
        // both; the deletion is logged from the smaller literal's side.
        let mut listed = vec![false; self.bin_implications.len()];
        for code in 0..self.bin_implications.len() {
            let l = Lit::from_code(code as u32);
            let mut partners = std::mem::take(&mut self.bin_implications[code]);
            let (mut kept, mut mark) = (0, 0);
            for k in 0..partners.len() {
                let p = partners[k];
                if self.value(l) != UNASSIGNED
                    || self.value(p) != UNASSIGNED
                    || listed[p.code() as usize]
                {
                    if l.code() < p.code() {
                        self.proof_delete(&[l, p]);
                    }
                    continue;
                }
                listed[p.code() as usize] = true;
                partners[kept] = p;
                kept += 1;
                if k < self.bin_mark[code] as usize {
                    mark = kept;
                }
            }
            partners.truncate(kept);
            for p in &partners {
                listed[p.code() as usize] = false;
            }
            self.bin_implications[code] = partners;
            self.bin_mark[code] = mark as u32;
        }
    }

    /// Removes this clause's two watch entries (positions 0 and 1).
    fn detach_watches(&mut self, idx: usize) {
        for k in 0..2 {
            let l = self.clauses[idx].lits[k];
            let ws = &mut self.watches[l.code() as usize];
            if let Some(p) = ws.iter().position(|w| w.clause as usize == idx) {
                ws.swap_remove(p);
            }
        }
    }

    /// Re-adds watch entries on the clause's first two literals.
    pub(super) fn attach_watches(&mut self, idx: usize) {
        let (l0, l1) = (self.clauses[idx].lits[0], self.clauses[idx].lits[1]);
        self.watches[l0.code() as usize].push(Watch {
            clause: idx as u32,
            blocker: l1,
        });
        self.watches[l1.code() as usize].push(Watch {
            clause: idx as u32,
            blocker: l0,
        });
    }

    /// Asserts a derived unit at level 0 and propagates it, logging the
    /// cascade's facts while their deriving clauses are alive.
    fn assert_unit(&mut self, unit: Lit) {
        match self.value(unit) {
            -1 => self.ok = false,
            UNASSIGNED => {
                self.enqueue(unit, Reason::Decision);
                if self.propagate().is_some() {
                    self.ok = false;
                } else {
                    self.log_level0_units();
                }
            }
            _ => {}
        }
    }

    /// Replaces long clause `idx` by `lits`, a proper subset of it that is
    /// logged as an addition before the old clause's deletion. A unit is
    /// asserted, a binary moves to the binary layer, and a long clause is
    /// rewritten in place. Returns the index when it stays a long clause.
    fn shrink_clause(&mut self, idx: usize, lits: Vec<Lit>) -> Option<usize> {
        self.proof_add(&lits);
        match lits.len() {
            1 => {
                self.delete_clause(idx);
                self.assert_unit(lits[0]);
                None
            }
            2 => {
                self.delete_clause(idx);
                self.add_binary(lits[0], lits[1]);
                None
            }
            n => {
                self.detach_watches(idx);
                let old = std::mem::replace(&mut self.clauses[idx].lits, lits);
                self.proof_delete(&old);
                self.clauses[idx].lbd = self.clauses[idx].lbd.min(n as u32);
                self.attach_watches(idx);
                Some(idx)
            }
        }
    }

    /// Phase 1: clause vivification with the solver's own propagation.
    /// Returns the clauses it shrank in place (subsumption candidates).
    fn vivify(&mut self) -> Vec<usize> {
        let mut shrunk = Vec::new();
        let n = self.clauses.len();
        if n == 0 {
            return shrunk;
        }
        let mut prop_budget = VIVIFY_PROP_BUDGET;
        let mut examined = 0usize;
        // Rotate the starting point across passes so long databases get
        // full coverage over time (deterministic: driven by the conflict
        // counter, not a clock).
        let start = self.stats.conflicts as usize % n;
        let mut step = 0usize;
        while step < n && examined < VIVIFY_MAX_CLAUSES && prop_budget > 0 && self.ok {
            let idx = (start + step) % n;
            step += 1;
            if self.clauses[idx].deleted || self.clauses[idx].lits.len() < 3 {
                continue;
            }
            examined += 1;
            if self.vivify_one(idx, &mut prop_budget) {
                shrunk.push(idx);
            }
        }
        if self.ok && self.propagate().is_some() {
            self.ok = false;
        }
        shrunk
    }

    /// Probes one clause and shrinks it on success. Returns whether it is
    /// still a long clause that was shrunk in place.
    fn vivify_one(&mut self, idx: usize, prop_budget: &mut usize) -> bool {
        let lits = self.clauses[idx].lits.clone();
        // Detach for the probe: the clause must not propagate in its own
        // test, and the shrunk clause must be RUP without it.
        self.detach_watches(idx);

        let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut satisfied_at_top = false;
        let mut conclusive = false; // conflict or implied literal
        let mut dropped = false;
        let mut exhausted = false;
        self.trail_lim.push(self.trail.len()); // one probe level
        for &l in &lits {
            self.stats.inprocess_visits += 1;
            match self.value(l) {
                1 => {
                    if self.level[l.var().index() as usize] == 0 {
                        // Permanently satisfied: delete instead of shrink.
                        satisfied_at_top = true;
                    } else {
                        // The asserted prefix implies `l`: the clause
                        // shrinks to the prefix plus `l`.
                        kept.push(l);
                        conclusive = true;
                    }
                    break;
                }
                -1 => {
                    // Falsified (at level 0 or by the prefix): drop it.
                    dropped = true;
                }
                _ => {
                    kept.push(l);
                    self.enqueue(!l, Reason::Decision);
                    let before = self.trail.len();
                    let conflict = self.propagate().is_some();
                    *prop_budget = prop_budget.saturating_sub(self.trail.len() - before + 1);
                    if conflict {
                        conclusive = true;
                        break;
                    }
                    if *prop_budget == 0 {
                        exhausted = true;
                        break;
                    }
                }
            }
        }
        self.backtrack_to(0);

        if satisfied_at_top {
            self.delete_clause(idx);
            return false;
        }
        // A shrink is only valid when the probe finished its case
        // analysis: a conflict / implied literal is conclusive on its own,
        // dropped literals need the whole clause examined.
        let valid = (conclusive || (dropped && !exhausted)) && kept.len() < lits.len();
        if !valid || kept.is_empty() {
            self.attach_watches(idx);
            return false;
        }
        self.stats.vivified_clauses += 1;
        // Still detached: re-watch the original literals so the in-place
        // rewrite finds the watches it replaces.
        self.attach_watches(idx);
        self.shrink_clause(idx, kept).is_some()
    }

    /// Phase 2: subsumption and self-subsuming resolution with the clauses
    /// new since the previous pass (plus `rewritten`) as candidates, in
    /// place on the clause indices.
    fn subsume(&mut self, rewritten: Vec<usize>) {
        debug_assert_eq!(self.current_level(), 0);
        // One visit per propagation the search made, less those spent.
        let funded = self
            .stats
            .propagations
            .saturating_sub(self.stats.inprocess_visits);
        let mut pass = Subsumption {
            occ: vec![Vec::new(); 2 * self.n_vars],
            sig: vec![0; self.clauses.len()],
            marked: vec![false; 2 * self.n_vars],
            queue: rewritten.into_iter().map(Candidate::Long).collect(),
            effort: funded.max(SUBSUME_MIN_EFFORT),
        };

        // ---- occurrence lists over the live long clauses ----
        for idx in 0..self.clauses.len() {
            if self.clauses[idx].deleted || !self.simplify_at_top(idx, &mut pass.queue) {
                continue;
            }
            for &l in &self.clauses[idx].lits {
                pass.occ[l.code() as usize].push(idx as u32);
            }
            pass.sig[idx] = var_sig(&self.clauses[idx].lits);
        }

        // ---- candidates: popped newest first, binaries before clauses ----
        pass.queue
            .extend((self.subsume_from..self.clauses.len()).map(Candidate::Long));
        for code in 0..self.bin_implications.len() {
            let l = Lit::from_code(code as u32);
            for k in self.bin_mark[code] as usize..self.bin_implications[code].len() {
                let p = self.bin_implications[code][k];
                if l.code() < p.code() {
                    pass.queue.push(Candidate::Binary(l, p));
                }
            }
        }

        while let Some(candidate) = pass.queue.pop() {
            if pass.effort == 0 || !self.ok {
                break;
            }
            let (own, base) = match candidate {
                Candidate::Long(i) if self.clauses[i].deleted => continue,
                Candidate::Long(i) => (Some(i), self.clauses[i].lits.clone()),
                Candidate::Binary(a, b) => (None, vec![a, b]),
            };
            if base.iter().any(|&l| self.value(l) == 1) {
                continue; // satisfied at level 0: subsumes nothing useful
            }
            self.subsume_with(own, &base, &mut pass);
        }
    }

    /// Drops long clause `idx` if satisfied at level 0 and strips the
    /// literals falsified there, queueing a stripped clause as a
    /// candidate. Returns whether it is still a live long clause.
    ///
    /// After a full level-0 propagation a clause that is not satisfied
    /// watches two unassigned literals, so stripping in place keeps the
    /// watches valid.
    fn simplify_at_top(&mut self, idx: usize, queue: &mut Vec<Candidate>) -> bool {
        let lits = &self.clauses[idx].lits;
        if lits.iter().any(|&l| self.value(l) == 1) {
            self.delete_clause(idx);
            return false;
        }
        if lits.iter().all(|&l| self.value(l) == UNASSIGNED) {
            return true;
        }
        let reduced: Vec<Lit> = lits
            .iter()
            .copied()
            .filter(|&l| self.value(l) == UNASSIGNED)
            .collect();
        debug_assert!(reduced.len() >= 2, "watch invariant: ≥2 unassigned lits");
        self.shrink_and_queue(idx, reduced, queue).is_some()
    }

    /// Tries one candidate: first whether a binary subsumes or
    /// strengthens it (long candidates only), then which clauses it
    /// subsumes or strengthens itself.
    fn subsume_with(&mut self, own: Option<usize>, base: &[Lit], pass: &mut Subsumption) {
        for &l in base {
            pass.marked[l.code() as usize] = true;
        }
        let rewritten = match own {
            Some(i) => self.subsumed_by_binary(i, base, pass),
            None => false,
        };
        if !rewritten {
            self.subsume_clauses(own, base, pass);
        }
        for &l in base {
            pass.marked[l.code() as usize] = false;
        }
    }

    /// Checks long candidate `i` against the binary layer: a binary
    /// `(l ∨ p)` with `l` in `i` subsumes it when `p` is in `i` too, and
    /// strengthens it by `¬p` when `¬p` is. Applies the first found and
    /// returns whether `i` changed.
    fn subsumed_by_binary(&mut self, i: usize, base: &[Lit], pass: &mut Subsumption) -> bool {
        for &l in base {
            let code = l.code() as usize;
            for k in 0..self.bin_implications[code].len() {
                if !pass.charge(&mut self.stats, 1) {
                    return false;
                }
                let p = self.bin_implications[code][k];
                if pass.marked[p.code() as usize] {
                    self.delete_clause(i);
                    self.stats.subsumed_clauses += 1;
                    return true;
                }
                if pass.marked[(!p).code() as usize] {
                    self.strengthen(i, !p, pass);
                    return true;
                }
            }
        }
        false
    }

    /// Scans the occurrence lists of `base`'s sparsest variable (both
    /// polarities, which covers every clause `base` can subsume or
    /// strengthen) and applies each subsumption and strengthening found.
    fn subsume_clauses(&mut self, own: Option<usize>, base: &[Lit], pass: &mut Subsumption) {
        let base_sig = var_sig(base);
        let best = base
            .iter()
            .copied()
            .min_by_key(|l| {
                pass.occ[l.code() as usize].len() + pass.occ[(!*l).code() as usize].len()
            })
            .expect("candidates are non-empty");
        for polarity in [best, !best] {
            let code = polarity.code() as usize;
            for k in 0..pass.occ[code].len() {
                if !self.ok || !pass.charge(&mut self.stats, 1) {
                    return;
                }
                let j = pass.occ[code][k] as usize;
                let target = &self.clauses[j];
                if Some(j) == own
                    || target.deleted
                    || target.lits.len() < base.len()
                    || base_sig & !pass.sig[j] != 0
                {
                    continue;
                }
                pass.charge(&mut self.stats, target.lits.len() as u64);
                // Targets are duplicate- and tautology-free, so counting
                // hits decides the subset relation.
                let mut hits = 0usize;
                let mut flipped = None;
                for &l in &target.lits {
                    if pass.marked[l.code() as usize] {
                        hits += 1;
                    } else if pass.marked[(!l).code() as usize] {
                        flipped = Some(l);
                    }
                }
                if hits == base.len() {
                    // Subsuming an irredundant clause makes the subsumer
                    // irredundant: it now carries the constraint alone.
                    if let (Some(i), false) = (own, target.learnt) {
                        self.clauses[i].learnt = false;
                    }
                    self.delete_clause(j);
                    self.stats.subsumed_clauses += 1;
                } else if let (true, Some(drop)) = (hits + 1 == base.len(), flipped) {
                    self.strengthen(j, drop, pass);
                }
            }
        }
    }

    /// Self-subsuming resolution: removes `drop` from clause `j` (and the
    /// literals level-0 units have falsified since the occurrence build).
    fn strengthen(&mut self, j: usize, drop: Lit, pass: &mut Subsumption) {
        let lits = &self.clauses[j].lits;
        if lits.iter().any(|&l| self.value(l) == 1) {
            // Satisfied by a unit derived earlier in this pass.
            self.delete_clause(j);
            return;
        }
        let reduced: Vec<Lit> = lits
            .iter()
            .copied()
            .filter(|&l| l != drop && self.value(l) == UNASSIGNED)
            .collect();
        self.stats.strengthened_clauses += 1;
        if reduced.is_empty() {
            // Every literal is falsified: the resolvent is the empty
            // clause, RUP while both parents stay in the database.
            self.ok = false;
            return;
        }
        if let Some(i) = self.shrink_and_queue(j, reduced, &mut pass.queue) {
            pass.sig[i] = var_sig(&self.clauses[i].lits);
        }
    }

    /// [`shrink_clause`](Self::shrink_clause), then queues what remains of
    /// the clause (long or binary) as a subsumption candidate.
    fn shrink_and_queue(
        &mut self,
        idx: usize,
        lits: Vec<Lit>,
        queue: &mut Vec<Candidate>,
    ) -> Option<usize> {
        let pair = (lits.len() == 2).then(|| Candidate::Binary(lits[0], lits[1]));
        let kept = self.shrink_clause(idx, lits);
        queue.extend(kept.map(Candidate::Long).or(pair));
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::VIVIFY_MAX_CLAUSES;
    use crate::{drat, Budget, CnfFormula, SatResult, Solver};

    #[test]
    fn subsumption_drops_a_duplicate_clause() {
        let mut cnf = CnfFormula::new();
        let (a, b, c) = {
            let v = cnf.new_lits(3);
            (v[0], v[1], v[2])
        };
        // An exact duplicate is the one redundancy vivification cannot
        // shrink away first, so it must fall to subsumption.
        cnf.add_clause([a, b, c]);
        cnf.add_clause([a, b, c]);
        cnf.add_clause([!a, !b, c]);
        let mut solver = Solver::new(cnf);
        solver.inprocess_now();
        assert!(solver.stats().subsumed_clauses >= 1, "{}", solver.stats());
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn self_subsuming_resolution_strengthens() {
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(4);
        let (a, b, c, d) = (v[0], v[1], v[2], v[3]);
        // (a b c) and (¬a b c) strengthen each other to (b c); the d
        // clauses keep every variable live.
        cnf.add_clause([a, b, c]);
        cnf.add_clause([!a, b, c]);
        cnf.add_clause([a, !b, d]);
        cnf.add_clause([!a, !c, !d]);
        let mut solver = Solver::new(cnf);
        solver.inprocess_now();
        assert!(
            solver.stats().strengthened_clauses >= 1,
            "{}",
            solver.stats()
        );
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn vivification_shrinks_an_implied_clause() {
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(5);
        let (a, b, c, d, e) = (v[0], v[1], v[2], v[3], v[4]);
        // ¬a → b, so (a b c) vivifies to (a b). Extra clauses keep the
        // database from collapsing to nothing before the probe runs.
        cnf.add_clause([a, b]);
        cnf.add_clause([a, b, c]);
        cnf.add_clause([c, d, e]);
        cnf.add_clause([!c, !d, e]);
        cnf.add_clause([!a, !b, !e]);
        let mut solver = Solver::new(cnf);
        solver.inprocess_now();
        assert!(solver.stats().vivified_clauses >= 1, "{}", solver.stats());
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn binary_strengthens_a_long_clause_in_place() {
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(5);
        let (a, b, c, d, e) = (v[0], v[1], v[2], v[3], v[4]);
        // The binary (¬a b) resolves a out of (a b c d), which shrinks in
        // place to (b c d) and must keep answering like the original.
        cnf.add_clause([!a, b]);
        cnf.add_clause([a, b, c, d]);
        cnf.add_clause([!b, !c, e]);
        cnf.add_clause([!b, !d, !e]);
        let originals = cnf.clauses().to_vec();
        let mut solver = Solver::new(cnf);
        solver.inprocess_now();
        assert!(
            solver.stats().strengthened_clauses >= 1,
            "{}",
            solver.stats()
        );
        match solver.solve_under_assumptions(&[!b], crate::Budget::new()) {
            SatResult::Sat(m) => {
                for clause in &originals {
                    assert!(clause.iter().any(|&l| m.value(l)), "{clause:?}");
                }
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn an_old_binary_strengthens_a_new_clause() {
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(4);
        let (a, b, c, d) = (v[0], v[1], v[2], v[3]);
        cnf.add_clause([!a, b]);
        // More independent clauses than vivification probes per pass, so
        // the clause added last lies outside its window.
        for _ in 0..VIVIFY_MAX_CLAUSES {
            let filler = cnf.new_lits(3);
            cnf.add_clause(filler);
        }
        let mut solver = Solver::new(cnf);
        solver.inprocess_now();
        // The binary is no candidate any more; only the new clause is, and
        // resolving it with (¬a b) on b drops ¬b.
        solver.add_clause(&[!a, !b, c, d]);
        let before = solver.stats();
        solver.inprocess_now();
        let after = solver.stats();
        assert_eq!(after.vivified_clauses, before.vivified_clauses);
        assert_eq!(after.strengthened_clauses, before.strengthened_clauses + 1);
        let live: Vec<&[crate::Lit]> = solver
            .clauses
            .iter()
            .filter(|c| !c.deleted)
            .map(|c| &c.lits[..])
            .collect();
        assert!(
            live.iter().any(|l| l.len() == 3 && !l.contains(&!b)),
            "{live:?}"
        );
    }

    #[test]
    fn garbage_collection_drops_dead_slots_and_binaries_with_a_checked_proof() {
        // php(3,2) plus a duplicated binary, a binary satisfied by the unit
        // [u], and a long clause satisfied by it too. The pass must compact
        // all of them away and log each binary deletion exactly once, so
        // the refutation still checks against the original formula.
        let mut cnf = CnfFormula::new();
        let p: Vec<Vec<crate::Lit>> = (0..3).map(|_| cnf.new_lits(2)).collect();
        let u = cnf.new_lit();
        let w = cnf.new_lits(2);
        for row in &p {
            cnf.add_clause(row.clone());
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    cnf.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        cnf.add_clause([!p[0][0], !p[1][0]]);
        cnf.add_clause([u]);
        cnf.add_clause([u, w[0]]);
        cnf.add_clause([u, w[0], w[1]]);
        let mut solver = Solver::new(cnf.clone()).with_proof();
        // The first pass deletes the satisfied long clause, the second
        // drops its slot.
        solver.inprocess_now();
        solver.inprocess_now();
        assert!(solver.clauses.iter().all(|c| !c.deleted));
        let bins: usize = solver.bin_implications.iter().map(Vec::len).sum();
        assert_eq!(bins, 2 * 9, "only php's nine binary clauses remain");
        let (result, _, proof) = solver.solve_certified(Budget::new());
        assert!(result.is_unsat());
        drat::check(&cnf, &proof.expect("log present")).expect("collected proof must check");
    }

    #[test]
    fn later_passes_only_try_new_clauses() {
        // Two passes back to back with no search in between: the second
        // has no new candidates, so it examines no occurrence lists and
        // only pays for its occurrence build.
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(8);
        for w in v.windows(4) {
            cnf.add_clause([w[0], w[1], w[2], w[3]]);
            cnf.add_clause([!w[0], w[1], !w[2], w[3]]);
        }
        let mut solver = Solver::new(cnf);
        solver.inprocess_now();
        let first = solver.stats().inprocess_visits;
        let live: u64 = solver
            .clauses
            .iter()
            .filter(|c| !c.deleted)
            .map(|c| c.lits.len() as u64)
            .sum();
        solver.inprocess_now();
        let second = solver.stats().inprocess_visits - first;
        assert!(first > live, "the first pass tries every clause");
        // Vivification probes at most the live literals once more.
        assert!(
            second <= 2 * live,
            "second pass visited {second} > 2×{live}"
        );
    }

    #[test]
    fn inprocessed_pigeonhole_proof_checks() {
        // PHP(3,2): 3 pigeons, 2 holes — UNSAT. The pass runs with the
        // proof log attached, so every rewrite lands in the proof and the
        // backward checker must still accept the final refutation.
        let mut cnf = CnfFormula::new();
        let p: Vec<Vec<crate::Lit>> = (0..3).map(|_| cnf.new_lits(2)).collect();
        for row in &p {
            cnf.add_clause(row.clone());
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    cnf.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        let mut solver = Solver::new(cnf.clone()).with_proof();
        solver.inprocess_now();
        let (result, _, proof) = solver.solve_certified(Budget::new());
        assert!(result.is_unsat());
        let proof = proof.expect("log present");
        assert!(proof.is_concluded());
        drat::check(&cnf, &proof).expect("inprocessed refutation must check");
    }

    #[test]
    fn vivify_cascade_facts_reach_the_proof_before_their_derivers_die() {
        // Vivifying (a b c) against the binaries (a x)(a ¬x) shrinks it to
        // the unit [a], whose propagation derives d through the long
        // clause (¬a ¬u d). A later probe in the same pass then deletes
        // that deriver as satisfied-at-top, and the probe after it shrinks
        // (¬d e f) to [e] — an addition that is RUP only if the fact d
        // entered the proof while its deriver was still alive. The
        // pigeonhole test cannot catch this: its clauses are all binary,
        // so vivification never shrinks anything there.
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(8);
        let (u, a, x, b, c, d, e, f) = (v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]);
        cnf.add_clause([u]);
        cnf.add_clause([a, x]);
        cnf.add_clause([a, !x]);
        cnf.add_clause([a, b, c]); // vivifies to the unit [a]
        cnf.add_clause([!a, !u, d]); // derives d when a lands, then dies
        cnf.add_clause([!d, e, f]);
        cnf.add_clause([!d, e, !f]);
        cnf.add_clause([!d, !e, f]);
        cnf.add_clause([!d, !e, !f]);
        let mut solver = Solver::new(cnf.clone()).with_proof();
        solver.inprocess_now();
        assert!(solver.stats().vivified_clauses >= 1, "{}", solver.stats());
        let (result, _, proof) = solver.solve_certified(Budget::new());
        assert!(result.is_unsat());
        let proof = proof.expect("log present");
        assert!(proof.is_concluded());
        drat::check(&cnf, &proof).expect("cascade-derived units must be in the proof");
    }

    #[test]
    fn pass_is_deterministic() {
        let mk = || {
            let mut cnf = CnfFormula::new();
            let v = cnf.new_lits(6);
            for w in v.windows(3) {
                cnf.add_clause([w[0], w[1], w[2]]);
                cnf.add_clause([!w[0], w[1], !w[2]]);
            }
            cnf.add_clause([v[0], !v[5]]);
            let mut s = Solver::new(cnf);
            s.inprocess_now();
            let (verdict, stats) = s.solve_with_budget(Budget::new());
            (verdict.is_sat(), stats)
        };
        let (r1, s1) = mk();
        let (r2, s2) = mk();
        assert_eq!(r1, r2);
        assert_eq!(s1.inprocess_visits, s2.inprocess_visits);
        assert_eq!(s1.subsumed_clauses, s2.subsumed_clauses);
        assert_eq!(s1.strengthened_clauses, s2.strengthened_clauses);
        assert_eq!(s1.vivified_clauses, s2.vivified_clauses);
        assert_eq!(s1.conflicts, s2.conflicts);
    }
}

//! Inprocessing: clause-database simplification at restart boundaries.
//!
//! A pass runs in two phases, both at decision level 0 and both in place
//! in the solver's own clause arena:
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
//! Each pass starts by cleaning the database: the watches on deleted long
//! clauses go, the arena is compacted once fragmented, and the binaries
//! satisfied at level 0 or duplicated are deleted. The pass then names the live long clauses by their rank
//! in creation order.
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
//!   literals (`CnfFormula` normalizes them; learning never adds any),
//!   which lets the subset test count literal hits against one mark array.
//! - A rewritten clause keeps only literals unassigned at level 0, so its
//!   new watches satisfy the two-watched-literal invariant without a
//!   re-propagation of the trail.

use super::arena::CRef;
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

/// A subsumption candidate: a long clause by its position in
/// [`Pass::refs`], or a binary clause.
#[derive(Clone, Copy)]
enum Candidate {
    Long(usize),
    Binary(Lit, Lit),
}

/// Per-pass state. The pass names long clauses by their position in
/// `refs` — their rank in creation order — which no step of the pass
/// reorders or extends.
#[derive(Default)]
struct Pass {
    /// The live long clauses at the start of the pass, in arena order.
    refs: Vec<CRef>,
    /// Occurrence lists in one block: the clauses (positions in `refs`)
    /// containing literal `l` are `occ[occ_start[l]..occ_start[l + 1]]`.
    occ_start: Vec<u32>,
    occ: Vec<u32>,
    sig: Vec<u64>,
    /// `marked[l.code()]`: `l` belongs to the current candidate.
    marked: Vec<bool>,
    queue: Vec<Candidate>,
    effort: u64,
    /// Scratch: the clause under test and its shrunk replacement.
    base: Vec<Lit>,
    reduced: Vec<Lit>,
}

impl Pass {
    /// Spends `n` visits of the effort budget and records them in
    /// `stats`; returns whether any budget is left.
    fn charge(&mut self, stats: &mut crate::SolverStats, n: u64) -> bool {
        stats.inprocess_visits += n;
        self.effort = self.effort.saturating_sub(n);
        self.effort > 0
    }

    /// The occurrence list of `l`.
    fn occ_range(&self, l: Lit) -> std::ops::Range<usize> {
        let code = l.code() as usize;
        self.occ_start[code] as usize..self.occ_start[code + 1] as usize
    }
}

impl Solver {
    /// Runs an inprocessing pass if the budget allows it and enough
    /// conflicts have accumulated since the last one. Called at every
    /// restart, at decision level 0.
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
    /// schedules passes automatically at restart boundaries. Runs before
    /// the solve, when the solver is still at decision level 0.
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
        let arena = &self.arena;
        let mut pass = Pass {
            refs: arena.refs().filter(|&c| !arena.is_deleted(c)).collect(),
            ..Pass::default()
        };
        self.vivify(&mut pass);
        if self.ok {
            // Vivification's trailing propagate can derive further level-0
            // facts; log them while their reason clauses are still alive,
            // before subsumption deletes any clause that derives them.
            self.log_level0_units();
            self.subsume(&mut pass);
        }
        self.subsume_from = self.arena.end();
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

    /// Cleans the database at level 0: the watches on deleted long clauses
    /// go, the arena is compacted once fragmented (the survivors move in
    /// order, their watches with them), and the binaries that are
    /// satisfied at level 0 or duplicated are deleted.
    ///
    /// Runs after `log_level0_units`, so no level-0 fact needs its reason
    /// clause any more, in the proof or in conflict analysis.
    fn collect_garbage(&mut self) {
        if self.arena.is_fragmented() {
            self.compact_during_search();
        }
        let arena = &self.arena;
        for ws in &mut self.watches {
            ws.retain(|w| !arena.is_deleted(w.clause));
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
    fn detach_watches(&mut self, c: CRef) {
        for k in 0..2 {
            let l = self.arena.lits(c)[k];
            let ws = &mut self.watches[l.code() as usize];
            if let Some(p) = ws.iter().position(|w| w.clause == c) {
                ws.swap_remove(p);
            }
        }
    }

    /// Re-adds watch entries on the clause's first two literals.
    pub(super) fn attach_watches(&mut self, c: CRef) {
        let (l0, l1) = (self.arena.lits(c)[0], self.arena.lits(c)[1]);
        self.watches[l0.code() as usize].push(Watch {
            clause: c,
            blocker: l1,
        });
        self.watches[l1.code() as usize].push(Watch {
            clause: c,
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

    /// Replaces long clause `c` by `lits`, a proper subset of it that is
    /// logged as an addition before the old clause's deletion. A unit is
    /// asserted, a binary moves to the binary layer, and a long clause is
    /// rewritten in place. Returns whether it stays a long clause.
    fn shrink_clause(&mut self, c: CRef, lits: &[Lit]) -> bool {
        self.proof_add(lits);
        match lits.len() {
            1 => {
                self.delete_clause(c);
                self.assert_unit(lits[0]);
                false
            }
            2 => {
                self.delete_clause(c);
                self.add_binary(lits[0], lits[1]);
                false
            }
            n => {
                self.detach_watches(c);
                self.proof_delete_clause(c);
                self.arena.shrink(c, lits);
                self.arena.set_lbd(c, self.arena.lbd(c).min(n as u32));
                self.attach_watches(c);
                true
            }
        }
    }

    /// Phase 1: clause vivification with the solver's own propagation.
    /// Queues the clauses it shrank in place as subsumption candidates.
    fn vivify(&mut self, pass: &mut Pass) {
        let n = pass.refs.len();
        if n == 0 {
            return;
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
            let c = pass.refs[idx];
            if self.arena.is_deleted(c) || self.arena.len(c) < 3 {
                continue;
            }
            examined += 1;
            if self.vivify_one(c, &mut prop_budget, pass) {
                pass.queue.push(Candidate::Long(idx));
            }
        }
        if self.ok && self.propagate().is_some() {
            self.ok = false;
        }
    }

    /// Probes one clause and shrinks it on success. Returns whether it is
    /// still a long clause that was shrunk in place.
    fn vivify_one(&mut self, c: CRef, prop_budget: &mut usize, pass: &mut Pass) -> bool {
        let lits = &mut pass.base;
        lits.clear();
        lits.extend_from_slice(self.arena.lits(c));
        // Detach for the probe: the clause must not propagate in its own
        // test, and the shrunk clause must be RUP without it.
        self.detach_watches(c);

        let kept = &mut pass.reduced;
        kept.clear();
        let mut satisfied_at_top = false;
        let mut conclusive = false; // conflict or implied literal
        let mut dropped = false;
        let mut exhausted = false;
        self.trail_lim.push(self.trail.len()); // one probe level
        for &l in lits.iter() {
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
            self.delete_clause(c);
            return false;
        }
        // A shrink is only valid when the probe finished its case
        // analysis: a conflict / implied literal is conclusive on its own,
        // dropped literals need the whole clause examined.
        let valid = (conclusive || (dropped && !exhausted)) && kept.len() < lits.len();
        if !valid || kept.is_empty() {
            self.attach_watches(c);
            return false;
        }
        self.stats.vivified_clauses += 1;
        // Still detached: re-watch the original literals so the in-place
        // rewrite finds the watches it replaces.
        self.attach_watches(c);
        self.shrink_clause(c, kept)
    }

    /// Phase 2: subsumption and self-subsuming resolution with the clauses
    /// new since the previous pass (plus those vivification rewrote, already
    /// queued) as candidates, in place in the arena.
    fn subsume(&mut self, pass: &mut Pass) {
        debug_assert_eq!(self.current_level(), 0);
        // One visit per propagation the search made, less those spent.
        let funded = self
            .stats
            .propagations
            .saturating_sub(self.stats.inprocess_visits);
        pass.effort = funded.max(SUBSUME_MIN_EFFORT);
        pass.marked = vec![false; 2 * self.n_vars];
        self.build_occurrences(pass);

        // ---- candidates: popped newest first, binaries before clauses ----
        let first_new = pass.refs.partition_point(|&c| c < self.subsume_from);
        pass.queue
            .extend((first_new..pass.refs.len()).map(Candidate::Long));
        for code in 0..self.bin_implications.len() {
            let l = Lit::from_code(code as u32);
            for k in self.bin_mark[code] as usize..self.bin_implications[code].len() {
                let p = self.bin_implications[code][k];
                if l.code() < p.code() {
                    pass.queue.push(Candidate::Binary(l, p));
                }
            }
        }

        let mut base = std::mem::take(&mut pass.base);
        while let Some(candidate) = pass.queue.pop() {
            if pass.effort == 0 || !self.ok {
                break;
            }
            base.clear();
            let own = match candidate {
                Candidate::Long(i) if self.arena.is_deleted(pass.refs[i]) => continue,
                Candidate::Long(i) => {
                    base.extend_from_slice(self.arena.lits(pass.refs[i]));
                    Some(i)
                }
                Candidate::Binary(a, b) => {
                    base.extend([a, b]);
                    None
                }
            };
            if base.iter().any(|&l| self.value(l) == 1) {
                continue; // satisfied at level 0: subsumes nothing useful
            }
            self.subsume_with(own, &base, pass);
        }
        pass.base = base;
    }

    /// Builds the occurrence lists and signatures over the live long
    /// clauses, simplifying each against level 0 first. Lists hold clauses
    /// in arena order: counted in a first sweep, filled back to front in a
    /// second.
    fn build_occurrences(&mut self, pass: &mut Pass) {
        let n = pass.refs.len();
        pass.occ_start = vec![0; 2 * self.n_vars + 1];
        pass.sig = vec![0; n];
        for idx in 0..n {
            let c = pass.refs[idx];
            if self.arena.is_deleted(c) || !self.simplify_at_top(c, idx, pass) {
                continue;
            }
            let lits = self.arena.lits(c);
            for &l in lits {
                pass.occ_start[l.code() as usize] += 1;
            }
            pass.sig[idx] = var_sig(lits);
        }
        // Each entry becomes the end of its literal's block …
        let mut total = 0;
        for slot in &mut pass.occ_start {
            total += *slot;
            *slot = total;
        }
        // … and moves down to its start as the block fills.
        pass.occ = vec![0; total as usize];
        for idx in (0..n).rev() {
            let c = pass.refs[idx];
            if self.arena.is_deleted(c) {
                continue;
            }
            for &l in self.arena.lits(c) {
                let slot = &mut pass.occ_start[l.code() as usize];
                *slot -= 1;
                pass.occ[*slot as usize] = idx as u32;
            }
        }
    }

    /// Drops long clause `c` (at `idx` in the pass) if satisfied at level
    /// 0 and strips the literals falsified there, queueing a stripped
    /// clause as a candidate. Returns whether it is still a live long
    /// clause.
    ///
    /// After a full level-0 propagation a clause that is not satisfied
    /// watches two unassigned literals, so stripping in place keeps the
    /// watches valid.
    fn simplify_at_top(&mut self, c: CRef, idx: usize, pass: &mut Pass) -> bool {
        let lits = self.arena.lits(c);
        let mut falsified = false;
        for &l in lits {
            match self.value(l) {
                1 => {
                    self.delete_clause(c);
                    return false;
                }
                UNASSIGNED => {}
                _ => falsified = true,
            }
        }
        if !falsified {
            return true;
        }
        pass.reduced.clear();
        pass.reduced.extend(
            lits.iter()
                .copied()
                .filter(|&l| self.value(l) == UNASSIGNED),
        );
        debug_assert!(
            pass.reduced.len() >= 2,
            "watch invariant: ≥2 unassigned lits"
        );
        self.shrink_and_queue(c, idx, &pass.reduced, &mut pass.queue)
    }

    /// Tries one candidate: first whether a binary subsumes or
    /// strengthens it (long candidates only), then which clauses it
    /// subsumes or strengthens itself.
    fn subsume_with(&mut self, own: Option<usize>, base: &[Lit], pass: &mut Pass) {
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
    fn subsumed_by_binary(&mut self, i: usize, base: &[Lit], pass: &mut Pass) -> bool {
        for &l in base {
            let code = l.code() as usize;
            for k in 0..self.bin_implications[code].len() {
                if !pass.charge(&mut self.stats, 1) {
                    return false;
                }
                let p = self.bin_implications[code][k];
                if pass.marked[p.code() as usize] {
                    self.delete_clause(pass.refs[i]);
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
    fn subsume_clauses(&mut self, own: Option<usize>, base: &[Lit], pass: &mut Pass) {
        let base_sig = var_sig(base);
        let best = base
            .iter()
            .copied()
            .min_by_key(|&l| pass.occ_range(l).len() + pass.occ_range(!l).len())
            .expect("candidates are non-empty");
        for polarity in [best, !best] {
            for k in pass.occ_range(polarity) {
                if !self.ok || !pass.charge(&mut self.stats, 1) {
                    return;
                }
                let j = pass.occ[k] as usize;
                let target = pass.refs[j];
                if Some(j) == own
                    || self.arena.is_deleted(target)
                    || self.arena.len(target) < base.len()
                    || base_sig & !pass.sig[j] != 0
                {
                    continue;
                }
                pass.charge(&mut self.stats, self.arena.len(target) as u64);
                // Targets are duplicate- and tautology-free, so counting
                // hits decides the subset relation.
                let mut hits = 0usize;
                let mut flipped = None;
                for &l in self.arena.lits(target) {
                    if pass.marked[l.code() as usize] {
                        hits += 1;
                    } else if pass.marked[(!l).code() as usize] {
                        flipped = Some(l);
                    }
                }
                if hits == base.len() {
                    // Subsuming an irredundant clause makes the subsumer
                    // irredundant: it now carries the constraint alone.
                    if let (Some(i), false) = (own, self.arena.is_learnt(target)) {
                        self.arena.make_irredundant(pass.refs[i]);
                    }
                    self.delete_clause(target);
                    self.stats.subsumed_clauses += 1;
                } else if let (true, Some(drop)) = (hits + 1 == base.len(), flipped) {
                    self.strengthen(j, drop, pass);
                }
            }
        }
    }

    /// Self-subsuming resolution: removes `drop` from clause `j` (and the
    /// literals level-0 units have falsified since the occurrence build).
    fn strengthen(&mut self, j: usize, drop: Lit, pass: &mut Pass) {
        let c = pass.refs[j];
        let lits = self.arena.lits(c);
        if lits.iter().any(|&l| self.value(l) == 1) {
            // Satisfied by a unit derived earlier in this pass.
            self.delete_clause(c);
            return;
        }
        pass.reduced.clear();
        pass.reduced.extend(
            lits.iter()
                .copied()
                .filter(|&l| l != drop && self.value(l) == UNASSIGNED),
        );
        self.stats.strengthened_clauses += 1;
        if pass.reduced.is_empty() {
            // Every literal is falsified: the resolvent is the empty
            // clause, RUP while both parents stay in the database.
            self.ok = false;
            return;
        }
        if self.shrink_and_queue(c, j, &pass.reduced, &mut pass.queue) {
            pass.sig[j] = var_sig(self.arena.lits(c));
        }
    }

    /// [`shrink_clause`](Self::shrink_clause), then queues what remains of
    /// the clause (long, as `idx`, or binary) as a subsumption candidate.
    fn shrink_and_queue(
        &mut self,
        c: CRef,
        idx: usize,
        lits: &[Lit],
        queue: &mut Vec<Candidate>,
    ) -> bool {
        let pair = (lits.len() == 2).then(|| Candidate::Binary(lits[0], lits[1]));
        let kept = self.shrink_clause(c, lits);
        queue.extend(kept.then_some(Candidate::Long(idx)).or(pair));
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
        // The fact ¬b enters after the pass, so the solve must answer
        // through the rewritten (b c d). A unit [¬b] in the formula would
        // not do: level-0 propagation would strip the long clause before
        // the binary could strengthen it.
        solver.enqueue(!b, super::Reason::Decision);
        match solver.solve() {
            SatResult::Sat(m) => {
                assert!(!m.value(b));
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
        solver.push_clause(&[!a, !b, c, d], false, 1.0, 4);
        let before = solver.stats();
        solver.inprocess_now();
        let after = solver.stats();
        assert_eq!(after.vivified_clauses, before.vivified_clauses);
        assert_eq!(after.strengthened_clauses, before.strengthened_clauses + 1);
        let arena = &solver.arena;
        let live: Vec<&[crate::Lit]> = arena
            .refs()
            .filter(|&c| !arena.is_deleted(c))
            .map(|c| arena.lits(c))
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
        assert!(solver.arena.refs().all(|c| !solver.arena.is_deleted(c)));
        let bins: usize = solver.bin_implications.iter().map(Vec::len).sum();
        assert_eq!(bins, 2 * 9, "only php's nine binary clauses remain");
        let (result, _, proof) = solver.solve_certified(Budget::new());
        assert!(result.is_unsat());
        drat::check(&cnf, &proof.expect("log present")).expect("collected proof must check");
    }

    #[test]
    fn a_clause_shrunk_then_deleted_is_reclaimed_once() {
        // Under the units ¬x1..¬x12, vivification shrinks C = (a b c x1..x12)
        // in place to (a b c), and subsumption then deletes it as a
        // duplicate of D = (a b c). The next pass compacts: the slots the
        // shrink freed must not be counted again with the deletion.
        let mut cnf = CnfFormula::new();
        let v = cnf.new_lits(3);
        let x = cnf.new_lits(12);
        for &xi in &x {
            cnf.add_clause([!xi]);
        }
        let mut c = v.clone();
        c.extend(&x);
        cnf.add_clause(c);
        cnf.add_clause(v.clone());
        let mut solver = Solver::new(cnf);
        solver.inprocess_now();
        let s = solver.stats();
        assert_eq!((s.vivified_clauses, s.subsumed_clauses), (1, 1), "{s}");
        solver.inprocess_now();
        let arena = &solver.arena;
        let live: Vec<Vec<crate::Lit>> = arena
            .refs()
            .map(|c| {
                let mut lits = arena.lits(c).to_vec();
                lits.sort();
                lits
            })
            .collect();
        assert_eq!(live, vec![v]);
        assert!(solver.solve().is_sat());
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
        let arena = &solver.arena;
        let live: u64 = arena
            .refs()
            .filter(|&c| !arena.is_deleted(c))
            .map(|c| arena.len(c) as u64)
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

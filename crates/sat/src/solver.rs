// Index loops below are deliberate: they sidestep aliasing between the
// iterated buffer and `&mut self` calls inside the loop bodies.
#![allow(clippy::needless_range_loop)]

mod arena;
mod inprocess;

use std::time::Instant;

use mm_telemetry::Telemetry;

use crate::drat::DratProof;
use crate::{Budget, CnfFormula, Lit, Model, SolverCounter, SolverStats, Var};

use arena::{CRef, ClauseArena, STUB};

/// Conflicts accumulated before the first inprocessing pass fires, and the
/// base of the geometric growth between passes. Small one-shot solves never
/// reach it and pay nothing; hard rungs cross it where database reduction
/// pays off most.
const INPROCESS_FIRST_AT: u64 = 1_000;

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// The formula is satisfiable; a witness assignment is attached.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
    /// The solver exhausted its [`Budget`] before reaching an answer.
    Unknown,
}

impl SatResult {
    /// The model, if the result is [`SatResult::Sat`].
    pub fn model(&self) -> Option<&Model> {
        match self {
            Self::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the result is [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Self::Sat(_))
    }

    /// Whether the result is [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, Self::Unsat)
    }
}

/// Why a variable is assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// A decision or a top-level fact.
    Decision,
    /// Implied by the long clause with this reference.
    Clause(CRef),
    /// Implied by a binary clause whose other literal (now false) is given.
    Binary(Lit),
}

/// A clause read in place by conflict analysis: a binary clause `(a ∨ b)`
/// or a long clause in the arena. Propagation reports conflicts as one.
#[derive(Debug, Clone, Copy)]
enum Antecedent {
    Binary(Lit, Lit),
    Long(CRef),
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: CRef,
    blocker: Lit,
}

const UNASSIGNED: i8 = 0;

/// A conflict-driven clause-learning (CDCL) SAT solver.
///
/// One-shot: construct with a finished [`CnfFormula`], then call one of
/// [`solve`](Self::solve), [`solve_with_budget`](Self::solve_with_budget)
/// or [`solve_certified`](Self::solve_certified), each of which consumes
/// the solver. No clause is added after construction and nothing carries
/// over between solves; a constraint such as a cube of fixed literals
/// goes into the formula as unit clauses.
///
/// # Example
///
/// ```
/// use mm_sat::{CnfFormula, SatResult, Solver};
///
/// let mut cnf = CnfFormula::new();
/// let a = cnf.new_lit();
/// cnf.add_clause([a]);
/// cnf.add_clause([!a]);
/// assert_eq!(Solver::new(cnf).solve(), SatResult::Unsat);
/// ```
#[derive(Debug)]
pub struct Solver {
    /// Every long clause, header and literals, in one flat block.
    arena: ClauseArena,
    /// `bin_implications[l.code()]` lists the partner literals of all binary
    /// clauses containing `l`; traversed when `l` becomes false (each entry
    /// is then implied).
    bin_implications: Vec<Vec<Lit>>,
    /// `watches[l.code()]` lists clauses currently watching literal `l`;
    /// traversed when `l` becomes false.
    watches: Vec<Vec<Watch>>,
    /// `vals[l.code()]`: 1 if `l` is true, -1 if false, 0 if unassigned.
    vals: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    saved_phase: Vec<bool>,
    seen: Vec<bool>,
    analyze_stack: Vec<Lit>,
    analyze_clear: Vec<Var>,
    /// The clause conflict analysis builds, reused across conflicts.
    learnt: Vec<Lit>,
    /// `level_stamp[lvl] == lbd_epoch` marks a level already counted by the
    /// current LBD computation.
    level_stamp: Vec<u64>,
    lbd_epoch: u64,
    /// Scratch list of deletion candidates for `reduce_db`.
    reduce_buf: Vec<CRef>,
    cla_inc: f32,
    ok: bool,
    stats: SolverStats,
    n_vars: usize,
    /// DRAT log; `None` keeps the hot path to a single well-predicted
    /// branch per learn/delete site.
    proof: Option<DratProof>,
    /// Telemetry handle; disabled by default, same single-branch discipline
    /// as `proof`. Counter deltas are emitted at the cancel-poll cadence.
    telemetry: Telemetry,
    /// Counter totals already emitted to telemetry, one per
    /// [`SolverCounter::ALL`] row, so each emission sends only the delta.
    tel_emitted: [u64; SolverCounter::ALL.len()],
    /// Long clauses from this arena offset on were learnt or added since
    /// the previous inprocessing pass: the next pass's subsumption
    /// candidates.
    subsume_from: CRef,
    /// `bin_mark[l.code()]` is the length `bin_implications[l.code()]` had
    /// at the end of the previous pass; entries past it are new binaries.
    bin_mark: Vec<u32>,
    /// Cumulative-conflict threshold for the next inprocessing pass.
    next_inprocess: u64,
    /// Current gap between passes; grows geometrically so inprocessing
    /// stays a vanishing fraction of total effort.
    inprocess_interval: u64,
    /// Trail prefix whose implied level-0 literals have already been
    /// emitted to the DRAT log as unit additions (see `log_level0_units`).
    l0_units_logged: usize,
}

impl Solver {
    /// Builds a solver from a formula.
    pub fn new(cnf: CnfFormula) -> Self {
        let n = cnf.n_vars() as usize;
        let mut solver = Self {
            arena: ClauseArena::new(),
            bin_implications: vec![Vec::new(); 2 * n],
            watches: vec![Vec::new(); 2 * n],
            vals: vec![UNASSIGNED; 2 * n],
            level: vec![0; n],
            reason: vec![Reason::Decision; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            heap: VarHeap::new(n),
            saved_phase: vec![false; n],
            seen: vec![false; n],
            analyze_stack: Vec::new(),
            analyze_clear: Vec::new(),
            learnt: Vec::new(),
            level_stamp: vec![0; n + 1],
            lbd_epoch: 0,
            reduce_buf: Vec::new(),
            cla_inc: 1.0,
            ok: true,
            stats: SolverStats::default(),
            n_vars: n,
            proof: None,
            telemetry: Telemetry::disabled(),
            tel_emitted: [0; SolverCounter::ALL.len()],
            subsume_from: 0,
            bin_mark: vec![0; 2 * n],
            next_inprocess: INPROCESS_FIRST_AT,
            inprocess_interval: INPROCESS_FIRST_AT,
            l0_units_logged: 0,
        };
        for clause in cnf.clauses() {
            solver.add_original_clause(clause);
            if !solver.ok {
                break;
            }
        }
        solver
    }

    /// Installs an empty in-memory DRAT log. Every learnt clause, every
    /// database deletion, and (on UNSAT) the final empty clause are
    /// recorded in it; [`solve_certified`](Self::solve_certified) hands it
    /// back. Needed only when work on the solver before that call (such as
    /// an inprocessing pass) must already be logged.
    ///
    /// Without a log the logging sites compile down to one `Option` check
    /// each; see the `certify_overhead` bench.
    pub fn with_proof(mut self) -> Self {
        self.proof = Some(DratProof::new());
        self
    }

    /// Installs a telemetry handle. The search loop then emits
    /// `solver.conflicts` / `solver.propagations` / `solver.decisions` /
    /// `solver.restarts` counter *deltas* at the existing cancel-poll cadence
    /// (every `CANCEL_POLL_INTERVAL` loop rounds), plus one final delta when
    /// the solve returns — so counter totals always equal [`SolverStats`].
    ///
    /// A disabled handle keeps the loop byte-for-byte on its old path: the
    /// poll guard stays false and no emission code runs.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Statistics of the work done so far, such as an explicit
    /// [`inprocess_now`](Self::inprocess_now) pass before the solve.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Solves the formula to completion (no budget).
    pub fn solve(self) -> SatResult {
        self.solve_with_budget(Budget::new()).0
    }

    /// Solves under a [`Budget`], also returning the search statistics.
    pub fn solve_with_budget(mut self, budget: Budget) -> (SatResult, SolverStats) {
        let result = self.run(budget);
        (result, self.stats)
    }

    /// Solves with an in-memory [`DratProof`] log, for certification.
    ///
    /// The returned proof is `Some` whenever logging ran (it always does
    /// here) and is concluded only on a genuine UNSAT — a cancelled or
    /// budget-exhausted run hands back an unconcluded log the checker
    /// rejects. Pass it to [`drat::check`](crate::drat::check) together
    /// with the original formula to certify the answer.
    pub fn solve_certified(
        mut self,
        budget: Budget,
    ) -> (SatResult, SolverStats, Option<DratProof>) {
        self.proof.get_or_insert_with(DratProof::new);
        let result = self.run(budget);
        (result, self.stats, self.proof)
    }

    /// The one search behind every public entry: flushes the telemetry
    /// deltas, concludes the proof log on UNSAT and records the wall time.
    fn run(&mut self, budget: Budget) -> SatResult {
        let start = Instant::now();
        let result = self.search(budget);
        self.emit_counter_deltas();
        if result.is_unsat() {
            if let Some(w) = self.proof.as_mut() {
                w.conclude_unsat();
                self.stats.proof_steps += 1;
            }
        }
        self.stats.solve_time = start.elapsed();
        result
    }

    /// Sends each counter's delta since the previous emission; a zero
    /// delta sends nothing. No-op (one branch) when telemetry is disabled.
    fn emit_counter_deltas(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for (counter, emitted) in SolverCounter::ALL.iter().zip(&mut self.tel_emitted) {
            let total = (counter.value)(&self.stats);
            self.telemetry.counter(counter.event, total - *emitted);
            *emitted = total;
        }
    }

    #[inline]
    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(w) = self.proof.as_mut() {
            w.add_clause(lits);
            self.stats.proof_steps += 1;
            self.stats.proof_literals += lits.len() as u64;
        }
    }

    #[inline]
    fn proof_delete(&mut self, lits: &[Lit]) {
        if let Some(w) = self.proof.as_mut() {
            w.delete_clause(lits);
            self.stats.proof_steps += 1;
            self.stats.proof_literals += lits.len() as u64;
        }
    }

    /// Logs the deletion of long clause `c` with its current literals.
    #[inline]
    fn proof_delete_clause(&mut self, c: CRef) {
        if let Some(w) = self.proof.as_mut() {
            let lits = self.arena.lits(c);
            w.delete_clause(lits);
            self.stats.proof_steps += 1;
            self.stats.proof_literals += lits.len() as u64;
        }
    }

    fn add_original_clause(&mut self, lits: &[Lit]) {
        debug_assert!(!lits.is_empty());
        match lits.len() {
            1 => match self.value(lits[0]) {
                v if v == UNASSIGNED => {
                    self.enqueue(lits[0], Reason::Decision);
                }
                -1 => self.ok = false,
                _ => {}
            },
            2 => self.add_binary(lits[0], lits[1]),
            _ => {
                self.push_clause(lits, false, 0.0, 0);
            }
        }
    }

    /// Records the binary clause `(a ∨ b)`: each literal's list gets the
    /// partner that becomes implied when it is falsified.
    fn add_binary(&mut self, a: Lit, b: Lit) {
        self.bin_implications[a.code() as usize].push(b);
        self.bin_implications[b.code() as usize].push(a);
    }

    /// Appends a long clause watched on its first two literals; returns
    /// its reference.
    fn push_clause(&mut self, lits: &[Lit], learnt: bool, activity: f32, lbd: u32) -> CRef {
        let c = self.arena.alloc(lits, learnt, lbd, activity);
        self.attach_watches(c);
        c
    }

    #[inline]
    fn value(&self, l: Lit) -> i8 {
        self.vals[l.code() as usize]
    }

    #[inline]
    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.value(l), UNASSIGNED);
        self.vals[l.code() as usize] = 1;
        self.vals[(!l).code() as usize] = -1;
        let v = l.var().index() as usize;
        self.level[v] = self.current_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause on conflict.
    fn propagate(&mut self) -> Option<Antecedent> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let fcode = false_lit.code() as usize;

            // Binary layer first: cheapest propagations.
            let bins = std::mem::take(&mut self.bin_implications[fcode]);
            let mut conflict = None;
            for &q in &bins {
                match self.value(q) {
                    1 => {}
                    UNASSIGNED => {
                        self.stats.propagations += 1;
                        self.enqueue(q, Reason::Binary(false_lit));
                    }
                    _ => {
                        conflict = Some(Antecedent::Binary(q, false_lit));
                        break;
                    }
                }
            }
            self.bin_implications[fcode] = bins;
            if conflict.is_some() {
                return conflict;
            }

            // Long clauses watching `false_lit`. Values are read from the
            // field directly: `lits` holds the arena borrowed mutably.
            let mut ws = std::mem::take(&mut self.watches[fcode]);
            let mut i = 0;
            'watches: while i < ws.len() {
                let w = ws[i];
                if self.value(w.blocker) == 1 {
                    i += 1;
                    continue;
                }
                let Some(lits) = self.arena.live_lits_mut(w.clause) else {
                    ws.swap_remove(i);
                    continue;
                };
                // Normalize: watched literals sit at positions 0 and 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if first != w.blocker && self.vals[first.code() as usize] == 1 {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let cand = lits[k];
                    if self.vals[cand.code() as usize] != -1 {
                        lits.swap(1, k);
                        self.watches[cand.code() as usize].push(Watch {
                            clause: w.clause,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watches;
                    }
                }
                // No replacement: clause is unit or conflicting.
                if self.vals[first.code() as usize] == -1 {
                    conflict = Some(Antecedent::Long(w.clause));
                    break;
                }
                self.stats.propagations += 1;
                self.enqueue(first, Reason::Clause(w.clause));
                i += 1;
            }
            // Restore the (possibly shrunk) watch list.
            debug_assert!(self.watches[fcode].is_empty());
            self.watches[fcode] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// The clause that implied the assigned literal `p`, with `p` among
    /// its literals. Decisions have none; analysis never asks for one.
    fn reason_of(&self, p: Lit) -> Antecedent {
        match self.reason[p.var().index() as usize] {
            Reason::Binary(other) => Antecedent::Binary(p, other),
            Reason::Clause(c) => Antecedent::Long(c),
            Reason::Decision => unreachable!("a decision has no reason clause"),
        }
    }

    #[inline]
    fn antecedent_len(&self, a: Antecedent) -> usize {
        match a {
            Antecedent::Binary(..) => 2,
            Antecedent::Long(c) => self.arena.len(c),
        }
    }

    #[inline]
    fn antecedent_lit(&self, a: Antecedent, k: usize) -> Lit {
        match a {
            Antecedent::Binary(x, y) => [x, y][k],
            Antecedent::Long(c) => self.arena.lit(c, k),
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `self.learnt` and returns the backtrack level.
    fn analyze(&mut self, conflict: Antecedent) -> u32 {
        let current = self.current_level();
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::from_code(0)); // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut clause = conflict;
        let mut skip: Option<Lit> = None;
        let mut idx = self.trail.len();

        loop {
            if let Some(p) = skip {
                if let Reason::Clause(c) = self.reason[p.var().index() as usize] {
                    self.bump_clause(c);
                }
            }
            for i in 0..self.antecedent_len(clause) {
                let q = self.antecedent_lit(clause, i);
                if Some(q) == skip {
                    continue;
                }
                let v = q.var().index() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk back to the next marked trail literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index() as usize] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var().index() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p;
                break;
            }
            clause = self.reason_of(p);
            skip = Some(p);
        }

        // Mark remaining literals as seen for minimization bookkeeping.
        for &l in &learnt[1..] {
            self.seen[l.var().index() as usize] = true;
        }
        self.minimize_learnt(&mut learnt);

        // Compute backtrack level and move that literal to position 1.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index() as usize]
                    > self.level[learnt[max_i].var().index() as usize]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index() as usize]
        };

        for &l in &learnt {
            self.seen[l.var().index() as usize] = false;
        }
        for v in self.analyze_clear.drain(..) {
            self.seen[v.index() as usize] = false;
        }

        self.learnt = learnt;
        bt_level
    }

    /// One bit per decision level (modulo 32): a set of these over-
    /// approximates the levels of a clause's literals.
    #[inline]
    fn abstract_level(&self, v: usize) -> u32 {
        1 << (self.level[v] & 31)
    }

    /// Removes learnt-clause literals that are implied by the rest
    /// (recursive minimization à la MiniSat, conservative variant),
    /// compacting `learnt` in place.
    fn minimize_learnt(&mut self, learnt: &mut Vec<Lit>) {
        let before = learnt.len();
        let levels = learnt[1..].iter().fold(0, |set, l| {
            set | self.abstract_level(l.var().index() as usize)
        });
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.literal_is_redundant(l, levels) {
                // The removed literal's seen flag must be cleared after
                // analysis like every other mark.
                self.analyze_clear.push(l.var());
            } else {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        self.stats.minimized_literals += (before - learnt.len()) as u64;
    }

    /// Whether `lit` is implied by the marked (seen) literals. `levels` is
    /// the abstract level set of the learnt clause: a literal on a level
    /// outside it traces back to that level's decision, which no mark can
    /// stop, so the search fails there at once — the same answer the full
    /// walk would give (Sörensson & Biere, SAT 2009).
    fn literal_is_redundant(&mut self, lit: Lit, levels: u32) -> bool {
        if matches!(self.reason[lit.var().index() as usize], Reason::Decision) {
            return false;
        }
        self.analyze_stack.clear();
        self.analyze_stack.push(lit);
        // Marks set by this search sit past `top`: kept on success (and
        // cleared after analysis), undone on failure.
        let top = self.analyze_clear.len();
        while let Some(l) = self.analyze_stack.pop() {
            let skip = !l;
            let reason = self.reason_of(skip);
            for i in 0..self.antecedent_len(reason) {
                let q = self.antecedent_lit(reason, i);
                if q == skip {
                    continue;
                }
                let v = q.var().index() as usize;
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if matches!(self.reason[v], Reason::Decision)
                    || self.abstract_level(v) & levels == 0
                {
                    // Not implied: undo speculative marks and keep the literal.
                    for u in self.analyze_clear.drain(top..) {
                        self.seen[u.index() as usize] = false;
                    }
                    return false;
                }
                self.seen[v] = true;
                self.analyze_clear.push(q.var());
                self.analyze_stack.push(q);
            }
        }
        true
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.current_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index() as usize;
            self.saved_phase[v] = l.is_positive();
            self.vals[l.code() as usize] = UNASSIGNED;
            self.vals[(!l).code() as usize] = UNASSIGNED;
            self.heap.insert(l.var(), &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    /// Adds the clause `analyze` left in `self.learnt` and asserts its
    /// first literal.
    fn learn(&mut self) {
        let learnt = std::mem::take(&mut self.learnt);
        // One emission site covers both analysis and minimization: `learnt`
        // is the final (post-minimization) clause, which is RUP w.r.t. the
        // clauses currently alive, so the derivation stays checkable.
        self.proof_add(&learnt);
        let lbd = self.compute_lbd(&learnt);
        match learnt.len() {
            1 => {
                self.enqueue(learnt[0], Reason::Decision);
            }
            2 => {
                self.add_binary(learnt[0], learnt[1]);
                self.enqueue(learnt[0], Reason::Binary(learnt[1]));
            }
            _ => {
                let c = self.push_clause(&learnt, true, self.cla_inc, lbd);
                self.stats.learnt_clauses += 1;
                self.enqueue(learnt[0], Reason::Clause(c));
            }
        }
        self.learnt = learnt;
    }

    /// Number of distinct decision levels among `lits`.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_epoch += 1;
        let mut lbd = 0;
        for l in lits {
            let lvl = self.level[l.var().index() as usize] as usize;
            if lvl >= self.level_stamp.len() {
                self.level_stamp.resize(lvl + 1, 0);
            }
            if self.level_stamp[lvl] != self.lbd_epoch {
                self.level_stamp[lvl] = self.lbd_epoch;
                lbd += 1;
            }
        }
        lbd
    }

    fn bump_var(&mut self, v: Var) {
        let i = v.index() as usize;
        self.activity[i] += self.var_inc;
        if self.activity[i] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    fn bump_clause(&mut self, c: CRef) {
        if !self.arena.is_learnt(c) {
            return;
        }
        let activity = self.arena.activity(c) + self.cla_inc;
        self.arena.set_activity(c, activity);
        if activity > 1e20 {
            self.arena.scale_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_clause_activity(&mut self) {
        self.cla_inc /= 0.999;
    }

    fn is_reason(&self, c: CRef) -> bool {
        let first = self.arena.lits(c)[0];
        self.value(first) == 1 && self.reason[first.var().index() as usize] == Reason::Clause(c)
    }

    fn reduce_db(&mut self) {
        let mut candidates = std::mem::take(&mut self.reduce_buf);
        candidates.clear();
        candidates.extend(self.arena.refs().filter(|&c| {
            self.arena.is_learnt(c)
                && !self.arena.is_deleted(c)
                && self.arena.lbd(c) > 2
                && !self.is_reason(c)
        }));
        let arena = &self.arena;
        candidates.sort_by(|&a, &b| {
            arena.lbd(b).cmp(&arena.lbd(a)).then(
                arena
                    .activity(a)
                    .partial_cmp(&arena.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let delete_count = candidates.len() / 2;
        for &c in &candidates[..delete_count] {
            self.delete_clause(c);
            self.stats.deleted_clauses += 1;
        }
        self.reduce_buf = candidates;
        if self.arena.is_fragmented() {
            self.compact_during_search();
        }
    }

    /// Marks a long clause deleted and logs the deletion; its words are
    /// reclaimed by the next compaction and its watch entries are dropped
    /// lazily during propagation.
    fn delete_clause(&mut self, c: CRef) {
        self.proof_delete_clause(c);
        self.arena.delete(c);
    }

    /// Compacts the arena at any decision level without touching the
    /// search: every reference moves with its clause, and a watch on a
    /// dropped clause is pointed at the deleted stub, so it keeps its place
    /// in its list until propagation removes it — exactly when it would
    /// have removed the dropped clause's watch. Reasons of assigned
    /// literals are live clauses except for level-0 facts, whose stale
    /// reasons are never read and go to the stub as well.
    fn compact_during_search(&mut self) {
        let moved = self.arena.compact();
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                w.clause = moved.get(w.clause).unwrap_or(STUB);
            }
        }
        for &l in &self.trail {
            let v = l.var().index() as usize;
            if let Reason::Clause(c) = self.reason[v] {
                self.reason[v] = Reason::Clause(moved.get(c).unwrap_or(STUB));
            }
        }
        self.subsume_from = moved.boundary(self.subsume_from);
    }

    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.value(v.positive()) == UNASSIGNED {
                let phase = self.saved_phase[v.index() as usize];
                return Some(v.lit(phase));
            }
        }
        None
    }

    fn extract_model(&self) -> Model {
        Model::new(self.vals.iter().step_by(2).map(|&x| x == 1).collect())
    }

    fn search(&mut self, budget: Budget) -> SatResult {
        if !self.ok || self.propagate().is_some() {
            return SatResult::Unsat;
        }

        let mut restart_idx: u64 = 0;
        let mut conflicts_until_restart = restart_interval(restart_idx);
        let mut next_reduce: u64 = 4000;

        // Cancellation is polled every `CANCEL_POLL_INTERVAL` propagate/decide
        // rounds — far more often than restarts — so an external cancel()
        // aborts the call promptly even when the search is deep in a run
        // between restarts. The poll itself is one relaxed atomic load.
        const CANCEL_POLL_INTERVAL: u32 = 1024;
        let cancel = budget.cancellation().cloned();
        let deadline = budget.deadline();
        // Telemetry sampling rides the same cadence: enabling it turns the
        // poll guard on but adds no additional hot-loop checks.
        let poll_abort = cancel.is_some() || deadline.is_some() || self.telemetry.is_enabled();
        let mut cancel_countdown = 1u32; // poll on the first iteration

        loop {
            if poll_abort {
                cancel_countdown -= 1;
                if cancel_countdown == 0 {
                    cancel_countdown = CANCEL_POLL_INTERVAL;
                    self.stats.cancel_polls += 1;
                    if let Some(token) = &cancel {
                        if token.is_cancelled() {
                            self.stats.cancelled = true;
                            return SatResult::Unknown;
                        }
                    }
                    if let Some(d) = deadline {
                        if d.expired() {
                            self.stats.deadline_expired = true;
                            return SatResult::Unknown;
                        }
                    }
                    self.emit_counter_deltas();
                }
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.current_level() == 0 {
                    return SatResult::Unsat;
                }
                let bt = self.analyze(conflict);
                self.backtrack_to(bt);
                self.learn();
                self.decay_var_activity();
                self.decay_clause_activity();

                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if self.stats.conflicts >= next_reduce {
                    next_reduce += 4000 + 600 * (self.stats.conflicts / 4000);
                    self.reduce_db();
                }
            } else {
                if conflicts_until_restart == 0 {
                    // Budget checks piggyback on restarts.
                    if let Some(max) = budget.max_conflicts() {
                        if self.stats.conflicts >= max {
                            return SatResult::Unknown;
                        }
                    }
                    restart_idx += 1;
                    conflicts_until_restart = restart_interval(restart_idx);
                    self.stats.restarts += 1;
                    self.backtrack_to(0);
                    // Restarts are the natural low-cost moment to inprocess
                    // the accumulated database: the trail is back at level
                    // 0 anyway.
                    self.maybe_inprocess(&budget);
                    if !self.ok {
                        return SatResult::Unsat;
                    }
                    continue;
                }
                match self.decide() {
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, Reason::Decision);
                    }
                    None => return SatResult::Sat(self.extract_model()),
                }
            }
        }
    }
}

/// Conflicts allotted to restart run `idx`: the Luby sequence times 128.
fn restart_interval(idx: u64) -> u64 {
    luby(idx) * 128
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …), 0-indexed.
fn luby(x: u64) -> u64 {
    let mut x = x;
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Max-heap over variables keyed by activity, with index positions for
/// `update`.
#[derive(Debug)]
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<usize>,
}

const NOT_IN_HEAP: usize = usize::MAX;

impl VarHeap {
    fn new(n: usize) -> Self {
        let heap: Vec<Var> = (0..n as u32).map(Var::from_index).collect();
        let pos = (0..n).collect();
        Self { heap, pos }
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.pos[v.index() as usize] != NOT_IN_HEAP {
            return;
        }
        self.pos[v.index() as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn update(&mut self, v: Var, act: &[f64]) {
        let p = self.pos[v.index() as usize];
        if p != NOT_IN_HEAP {
            self.sift_up(p, act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap non-empty");
        self.pos[top.index() as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index() as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index() as usize] <= act[self.heap[parent].index() as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < self.heap.len()
                && act[self.heap[l].index() as usize] > act[self.heap[largest].index() as usize]
            {
                largest = l;
            }
            if r < self.heap.len()
                && act[self.heap[r].index() as usize] > act[self.heap[largest].index() as usize]
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.swap(i, largest);
            i = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index() as usize] = a;
        self.pos[self.heap[b].index() as usize] = b;
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::CnfFormula;

    fn lits(cnf: &mut CnfFormula, n: usize) -> Vec<Lit> {
        (0..n).map(|_| cnf.new_lit()).collect()
    }

    /// Pigeonhole principle: `pigeons` into `holes`; UNSAT iff pigeons > holes.
    fn pigeonhole(pigeons: usize, holes: usize) -> CnfFormula {
        let mut cnf = CnfFormula::new();
        let vars: Vec<Vec<Lit>> = (0..pigeons).map(|_| lits(&mut cnf, holes)).collect();
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

    #[test]
    fn trivial_cases() {
        let mut cnf = CnfFormula::new();
        let a = cnf.new_lit();
        cnf.add_clause([a]);
        assert!(Solver::new(cnf.clone()).solve().is_sat());
        cnf.add_clause([!a]);
        assert!(Solver::new(cnf).solve().is_unsat());
        assert!(Solver::new(CnfFormula::new()).solve().is_sat());
    }

    #[test]
    fn pigeonhole_unsat() {
        for holes in 1..=5usize {
            let cnf = pigeonhole(holes + 1, holes);
            assert!(
                Solver::new(cnf).solve().is_unsat(),
                "php({}, {holes})",
                holes + 1
            );
        }
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        for holes in 1..=6usize {
            let cnf = pigeonhole(holes, holes);
            let clauses: Vec<Vec<Lit>> = cnf.clauses().to_vec();
            match Solver::new(cnf).solve() {
                SatResult::Sat(m) => {
                    for c in &clauses {
                        assert!(c.iter().any(|&l| m.value(l)), "model violates clause");
                    }
                }
                other => panic!("php({holes},{holes}) must be SAT, got {other:?}"),
            }
        }
    }

    #[test]
    fn models_satisfy_all_clauses_on_random_instances() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let n_vars = 8 + (rng() % 8) as usize;
            let n_clauses = (3 * n_vars) + (rng() % 10) as usize;
            let mut cnf = CnfFormula::new();
            let vars = lits(&mut cnf, n_vars);
            let mut clause_list = Vec::new();
            for _ in 0..n_clauses {
                let len = 1 + (rng() % 3) as usize;
                let clause: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = vars[(rng() % n_vars as u64) as usize];
                        if rng() % 2 == 0 {
                            v
                        } else {
                            !v
                        }
                    })
                    .collect();
                clause_list.push(clause.clone());
                cnf.add_clause(clause);
            }
            // Brute-force ground truth.
            let expected_sat = (0..(1u32 << n_vars)).any(|bits| {
                clause_list.iter().all(|c| {
                    c.iter().any(|l| {
                        let val = (bits >> l.var().index()) & 1 == 1;
                        val == l.is_positive()
                    })
                })
            });
            match Solver::new(cnf).solve() {
                SatResult::Sat(m) => {
                    assert!(
                        expected_sat,
                        "round {round}: solver said SAT, brute force UNSAT"
                    );
                    for c in &clause_list {
                        assert!(c.iter().any(|&l| m.value(l)), "round {round}: bad model");
                    }
                }
                SatResult::Unsat => {
                    assert!(
                        !expected_sat,
                        "round {round}: solver said UNSAT, brute force SAT"
                    )
                }
                SatResult::Unknown => panic!("round {round}: no budget was set"),
            }
        }
    }

    #[test]
    fn budget_returns_unknown() {
        let cnf = pigeonhole(9, 8); // hard enough to exceed a 10-conflict budget
        let (result, stats) =
            Solver::new(cnf).solve_with_budget(Budget::new().with_max_conflicts(10));
        assert_eq!(result, SatResult::Unknown);
        assert!(stats.conflicts >= 10);
    }

    #[test]
    fn cancellation_aborts_promptly() {
        use crate::{CancellationToken, Deadline};
        use std::time::Duration;

        // php(11, 10) takes a CDCL solver far longer than the test's
        // tolerance, so finishing under it proves the abort worked. The
        // generous deadline exists only to bound the test if cancellation
        // were broken.
        let cnf = pigeonhole(11, 10);
        let token = CancellationToken::new();
        let budget = Budget::new()
            .with_deadline(Deadline::after(Duration::from_secs(120)))
            .with_cancellation(token.clone());

        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            let (result, stats) = Solver::new(cnf).solve_with_budget(budget);
            (result, stats, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(50));
        let cancel_time = Instant::now();
        token.cancel();
        let (result, stats, elapsed) = handle.join().expect("solver thread panicked");

        assert_eq!(result, SatResult::Unknown);
        assert!(stats.cancelled, "abort must be attributed to the token");
        assert!(stats.cancel_polls > 0);
        // Prompt: the solver noticed the trip in well under the time budget
        // (poll interval is 1024 propagate/decide rounds, i.e. milliseconds).
        assert!(
            cancel_time.elapsed() < Duration::from_secs(10),
            "solver took {:?} after cancel",
            cancel_time.elapsed()
        );
        assert!(elapsed < Duration::from_secs(60));
    }

    #[test]
    fn pre_cancelled_budget_returns_unknown_immediately() {
        use crate::CancellationToken;

        let token = CancellationToken::new();
        token.cancel();
        let cnf = pigeonhole(8, 7);
        let (result, stats) =
            Solver::new(cnf).solve_with_budget(Budget::new().with_cancellation(token));
        assert_eq!(result, SatResult::Unknown);
        assert!(stats.cancelled);
        assert_eq!(stats.conflicts, 0, "no search work after a pre-trip");
    }

    #[test]
    fn expired_deadline_returns_unknown_immediately() {
        use crate::Deadline;

        let cnf = pigeonhole(8, 7);
        let deadline = Deadline::after(Duration::ZERO);
        let (result, stats) =
            Solver::new(cnf).solve_with_budget(Budget::new().with_deadline(deadline));
        assert_eq!(result, SatResult::Unknown);
        assert!(stats.deadline_expired);
        assert!(!stats.cancelled);
        assert_eq!(
            stats.conflicts, 0,
            "no search work past an expired deadline"
        );
    }

    #[test]
    fn mid_search_deadline_aborts_promptly() {
        use crate::Deadline;

        // Hard enough that a 50 ms deadline expires mid-search; the hot-loop
        // poll must then abort well before the instance would finish.
        let cnf = pigeonhole(10, 9);
        let deadline = Deadline::after(Duration::from_millis(50));
        let start = Instant::now();
        let (result, stats) =
            Solver::new(cnf).solve_with_budget(Budget::new().with_deadline(deadline));
        assert_eq!(result, SatResult::Unknown);
        assert!(stats.deadline_expired);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "deadline abort took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn certified_pigeonhole_proofs_check() {
        for holes in 1..=4usize {
            let cnf = pigeonhole(holes + 1, holes);
            let (result, stats, proof) = Solver::new(cnf.clone()).solve_certified(Budget::new());
            assert!(result.is_unsat(), "php({}, {holes})", holes + 1);
            let proof = proof.expect("certified solve returns the log");
            assert!(proof.is_concluded());
            assert_eq!(stats.proof_steps as usize, proof.n_steps());
            let check = crate::drat::check(&cnf, &proof)
                .unwrap_or_else(|e| panic!("php({}, {holes}) proof rejected: {e}", holes + 1));
            assert_eq!(check.additions + check.deletions + 1, proof.n_steps());
        }
    }

    #[test]
    fn sat_solve_leaves_proof_unconcluded() {
        let cnf = pigeonhole(4, 4);
        let (result, _, proof) = Solver::new(cnf.clone()).solve_certified(Budget::new());
        assert!(result.is_sat());
        let proof = proof.expect("log present");
        assert!(!proof.is_concluded());
        assert_eq!(
            crate::drat::check(&cnf, &proof),
            Err(crate::drat::DratError::NoEmptyClause)
        );
    }

    #[test]
    fn cancelled_solve_yields_unknown_and_uncheckable_proof() {
        use crate::CancellationToken;

        let token = CancellationToken::new();
        token.cancel();
        let cnf = pigeonhole(8, 7);
        let (result, stats, proof) =
            Solver::new(cnf.clone()).solve_certified(Budget::new().with_cancellation(token));
        assert_eq!(result, SatResult::Unknown);
        assert!(stats.cancelled);
        let proof = proof.expect("log present even when aborted");
        assert!(!proof.is_concluded());
        assert!(crate::drat::check(&cnf, &proof).is_err());
    }

    #[test]
    fn proofs_with_db_reduction_still_check() {
        // Large enough to cross the 4000-conflict reduce_db threshold, so
        // the proof contains deletion steps the checker must undo.
        let cnf = pigeonhole(8, 7);
        let (result, stats, proof) = Solver::new(cnf.clone()).solve_certified(Budget::new());
        assert!(result.is_unsat());
        let proof = proof.expect("log present");
        if stats.deleted_clauses == 0 {
            // Deletions are what this test is about; the instance must be
            // hard enough to trigger at least one reduction.
            panic!("php(8,7) no longer triggers reduce_db; grow the instance");
        }
        let check = crate::drat::check(&cnf, &proof).expect("proof with deletions checks");
        assert!(check.deletions > 0);
        assert!(check.core_additions <= check.additions);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expected.len() as u64).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn at_most_one_chain_propagates() {
        // A long implication chain mixed with an exactly-one block exercises
        // binary propagation, learning and backtracking together.
        let mut cnf = CnfFormula::new();
        let chain = lits(&mut cnf, 50);
        for w in chain.windows(2) {
            cnf.add_clause([!w[0], w[1]]);
        }
        let block = lits(&mut cnf, 10);
        cnf.exactly_one(&block, crate::ExactlyOne::Pairwise);
        cnf.add_clause([chain[0]]);
        cnf.add_clause([!chain[49], block[3]]);
        match Solver::new(cnf).solve() {
            SatResult::Sat(m) => {
                assert!(m.value(block[3]));
                assert_eq!(block.iter().filter(|&&b| m.value(b)).count(), 1);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn stats_are_populated() {
        let cnf = pigeonhole(6, 5);
        let (result, stats) = Solver::new(cnf).solve_with_budget(Budget::new());
        assert!(result.is_unsat());
        assert!(stats.conflicts > 0);
        assert!(stats.propagations > 0);
        assert!(stats.solve_time.as_nanos() > 0);
    }

    #[test]
    fn telemetry_counter_totals_equal_stats() {
        use mm_telemetry::{MemorySink, RunReport};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(sink.clone());
        let cnf = pigeonhole(8, 7); // past INPROCESS_FIRST_AT conflicts
        let (result, stats) = Solver::new(cnf)
            .with_telemetry(telemetry.clone())
            .solve_with_budget(Budget::new());
        assert!(result.is_unsat());
        assert!(stats.inprocess_visits > 0, "the solve must inprocess");

        // Sampled emission batches deltas, but the final flush makes the
        // totals exact regardless of how many polls happened.
        let report = RunReport::from_events(&sink.snapshot());
        for counter in SolverCounter::ALL {
            assert_eq!(
                report.counter(counter.event),
                (counter.value)(&stats),
                "{}",
                counter.event
            );
        }
        // Enabling telemetry turns the poll guard on even with no budget.
        assert!(stats.cancel_polls > 0);
    }
}

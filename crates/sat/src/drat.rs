//! DRAT proofs and a from-scratch backward proof checker.
//!
//! An UNSAT answer from the CDCL solver is only as trustworthy as the
//! solver's code. This module removes the solver from the trusted base:
//! with proof logging on, every learnt clause and every database deletion
//! is recorded as a [`ProofStep`], and [`check`] independently verifies
//! that the recorded derivation really ends in the empty clause.
//!
//! The checker implements the classic *backward* scheme of `drat-trim`:
//!
//! 1. a forward pass replays additions/deletions to build the clause
//!    database active at the point the empty clause is claimed;
//! 2. the empty clause is verified by unit propagation (RUP: reverse unit
//!    propagation), marking the clauses of the conflict derivation *core*;
//! 3. walking the proof backwards, each addition is removed from the
//!    database and — only if it was marked core by a later check — itself
//!    RUP-verified, lazily marking its own antecedents core. Deletion
//!    steps are undone by re-activating the clause.
//!
//! Only active clauses sit in the watch lists: a clause is detached when a
//! deletion (forward) or the peeling of its addition (backward) deactivates
//! it, and re-attached when the backward pass undoes its deletion, so
//! propagation never visits a clause it must ignore.
//!
//! Lazy core marking means redundant learnt clauses (ones no later
//! derivation depends on) are never propagated over, which is the main
//! cost saving of backward over forward checking.
//!
//! # Layout
//!
//! The checker keeps its own clause storage, independent of the solver it
//! audits: every clause's literals sit back to back in one flat `Vec<Lit>`,
//! addressed by a `u32` clause id (originals first, then proof additions
//! in step order). Watch entries carry a *blocking literal*, so a clause
//! satisfied by it is skipped without reading its literals; values are
//! indexed by literal code, reasons are `u32` ids, and the RUP check reads
//! a lemma straight from the storage instead of cloning it.
//!
//! # Core-first propagation
//!
//! As in `drat-trim` (Wetzler, Heule and Hunt, SAT 2014), the core and
//! non-core clauses sit in two *separate* watch-list sets. Propagation runs
//! the core clauses to a fixpoint, then scans the non-core lists only until
//! one non-core clause yields a unit, and goes back to the core lists with
//! it. Conflicts are thereby found through clauses that are core already,
//! so fewer lemmas become core and fewer get verified. A clause moves to
//! the core lists the first time it is marked. (One shared list that
//! skipped the entries of the other mode would be walked once per mode.)
//!
//! # Deletion index
//!
//! A deletion names its clause by content, in any literal order. Live
//! clauses are filed under an order-independent hash of their literal
//! multiset (a wrapping sum of mixed literal codes) in a bucket array
//! sized for the whole proof; each bucket chains clause ids most recent
//! first, and a hit is confirmed by an exact content comparison. A
//! deletion therefore removes the most recent live copy of a duplicated
//! clause.
//!
//! The checker accepts the RUP fragment of DRAT, and everything `mm-sat`
//! emits lands in that fragment by construction:
//!
//! * every first-UIP learnt clause, minimized or not, is RUP with respect
//!   to the clauses alive when it was learnt;
//! * inprocessing (`solver/inprocess.rs`) stays inside the fragment too —
//!   a vivified clause is exactly what unit propagation proved, a
//!   self-subsumption-strengthened clause is RUP against its two parents,
//!   and subsumption only emits *deletions*. All rewrites log
//!   Add-before-Delete (with level-0 implied units logged ahead of the
//!   first deletion that could depend on them), so no step ever
//!   references a clause the checker has already dropped.
//!
//! Completeness for `mm-sat` proofs is therefore by construction, and
//! soundness needs no assumption about the solver at all —
//! `tests/drat_negative.rs` pins that corrupted inprocessing deletions,
//! fabricated additions, and reordered parent deletions are all rejected.

use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::{CnfFormula, Lit, SatError};

/// One step of a DRAT derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep {
    /// A clause addition; the empty clause concludes the proof.
    Add(Vec<Lit>),
    /// A clause deletion.
    Delete(Vec<Lit>),
}

/// An in-memory DRAT derivation: the solver's proof log (installed by
/// [`Solver::with_proof`](crate::Solver::with_proof) or
/// [`Solver::solve_certified`](crate::Solver::solve_certified)) and the
/// [`check`] input. [`to_drat_string`](Self::to_drat_string) and
/// [`parse`](Self::parse) convert to and from the textual format for
/// archiving or cross-checking with `drat-trim`.
///
/// # Example
///
/// ```
/// use mm_sat::{drat, Budget, CnfFormula, SatResult, Solver};
///
/// let mut cnf = CnfFormula::new();
/// let a = cnf.new_lit();
/// let b = cnf.new_lit();
/// cnf.add_clause([a, b]);
/// cnf.add_clause([a, !b]);
/// cnf.add_clause([!a, b]);
/// cnf.add_clause([!a, !b]);
/// let (result, _, proof) = Solver::new(cnf.clone()).solve_certified(Budget::new());
/// assert_eq!(result, SatResult::Unsat);
/// let proof = proof.expect("certified solve always returns the log");
/// assert!(proof.is_concluded());
/// drat::check(&cnf, &proof).expect("solver proofs pass the checker");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DratProof {
    steps: Vec<ProofStep>,
    concluded: bool,
}

impl DratProof {
    /// An empty derivation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a proof from explicit steps (mainly for tests and tooling);
    /// the proof counts as concluded iff it contains an empty addition.
    pub fn from_steps(steps: Vec<ProofStep>) -> Self {
        let concluded = steps
            .iter()
            .any(|s| matches!(s, ProofStep::Add(lits) if lits.is_empty()));
        Self { steps, concluded }
    }

    /// The recorded steps, in emission order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Total number of steps (additions + deletions).
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// Whether the derivation reached the empty clause. A cancelled or
    /// budget-exhausted solve leaves this `false`, and [`check`] rejects
    /// such a proof.
    pub fn is_concluded(&self) -> bool {
        self.concluded
    }

    /// Records the addition of a derived (learnt) clause.
    pub(crate) fn add_clause(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Add(lits.to_vec()));
    }

    /// Records the deletion of a clause from the active set.
    pub(crate) fn delete_clause(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Delete(lits.to_vec()));
    }

    /// Records the empty clause. The solver calls this only when it
    /// returns a genuine UNSAT, so a cancelled or budget-exhausted run
    /// leaves an unconcluded log that [`check`] rejects.
    pub(crate) fn conclude_unsat(&mut self) {
        self.steps.push(ProofStep::Add(Vec::new()));
        self.concluded = true;
    }

    /// Serializes to the textual DRAT format understood by external
    /// checkers (`drat-trim`, `gratgen`).
    pub fn to_drat_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for step in &self.steps {
            let lits = match step {
                ProofStep::Add(lits) => lits,
                ProofStep::Delete(lits) => {
                    out.push_str("d ");
                    lits
                }
            };
            for &l in lits {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            out.push_str("0\n");
        }
        out
    }

    /// Parses textual DRAT: one step per line, `d`-prefixed deletions,
    /// `0`-terminated DIMACS literals, `c` comments.
    ///
    /// # Errors
    ///
    /// Returns [`SatError::ParseDimacs`] for malformed tokens, a missing
    /// terminator, or trailing literals after the terminator.
    pub fn parse(text: &str) -> Result<Self, SatError> {
        let mut steps = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let (is_delete, body) = match line.strip_prefix('d') {
                Some(rest) => (true, rest),
                None => (false, line),
            };
            let mut lits = Vec::new();
            let mut terminated = false;
            for token in body.split_whitespace() {
                if terminated {
                    return Err(SatError::ParseDimacs {
                        line: lineno + 1,
                        reason: "literals after the 0 terminator".into(),
                    });
                }
                let value: i64 = token.parse().map_err(|_| SatError::ParseDimacs {
                    line: lineno + 1,
                    reason: format!("invalid literal token {token:?}"),
                })?;
                if value == 0 {
                    terminated = true;
                } else {
                    lits.push(
                        Lit::from_dimacs(value).ok_or_else(|| SatError::ParseDimacs {
                            line: lineno + 1,
                            reason: format!("literal {value} out of range"),
                        })?,
                    );
                }
            }
            if !terminated {
                return Err(SatError::ParseDimacs {
                    line: lineno + 1,
                    reason: "proof step is not 0-terminated".into(),
                });
            }
            steps.push(if is_delete {
                ProofStep::Delete(lits)
            } else {
                ProofStep::Add(lits)
            });
        }
        Ok(Self::from_steps(steps))
    }
}

// Serde uses the textual DRAT form: it is the interchange format external
// checkers already understand, round-trips exactly through
// [`DratProof::parse`], and keeps `CallRecord` (which embeds an optional
// proof) derivable without exposing `ProofStep` internals as JSON.
impl serde::Serialize for DratProof {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_drat_string())
    }
}

impl serde::Deserialize for DratProof {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(text) => DratProof::parse(text)
                .map_err(|e| serde::Error::msg(format!("invalid DRAT text: {e}"))),
            _ => Err(serde::Error::msg("expected DRAT text string")),
        }
    }
}

/// Why a proof was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DratError {
    /// The proof never adds the empty clause — typical of a truncated file
    /// or a cancelled solve.
    NoEmptyClause,
    /// A step references a variable the formula does not have.
    LiteralOutOfRange {
        /// 0-based index of the offending step.
        step: usize,
    },
    /// A deletion names a clause that is not currently in the database.
    DeleteUnknownClause {
        /// 0-based index of the offending step.
        step: usize,
    },
    /// An addition (or the final empty clause) is not derivable by unit
    /// propagation from the clauses active at that point.
    NotRup {
        /// 0-based index of the offending step.
        step: usize,
    },
}

impl fmt::Display for DratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoEmptyClause => {
                write!(f, "proof does not derive the empty clause (truncated?)")
            }
            Self::LiteralOutOfRange { step } => {
                write!(f, "step {step} references a variable outside the formula")
            }
            Self::DeleteUnknownClause { step } => {
                write!(
                    f,
                    "step {step} deletes a clause that is not in the database"
                )
            }
            Self::NotRup { step } => {
                write!(
                    f,
                    "step {step} is not a reverse-unit-propagation consequence"
                )
            }
        }
    }
}

impl Error for DratError {}

/// Work counters of one [`check`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CheckStats {
    /// Clause additions in the (truncated) proof.
    pub additions: usize,
    /// Clause deletions in the (truncated) proof.
    pub deletions: usize,
    /// Additions that were core-marked and therefore RUP-verified.
    pub core_additions: usize,
    /// Unit propagations performed across all RUP checks.
    pub propagations: u64,
    /// Wall-clock time of the check.
    pub check_time: Duration,
}

/// How a forward-pass step resolved against the clause database.
enum Resolved {
    Add(u32),
    Delete(u32),
}

/// "No clause": the reason of an assumption or an unassigned variable, and
/// the end of a deletion-index chain.
const NONE: u32 = u32::MAX;

const TRUE: i8 = 1;
const FALSE: i8 = -1;

/// One watch-list entry: a clause and a *blocking* literal of it. When the
/// blocker is true the clause is satisfied and its literals are not read.
#[derive(Debug, Clone, Copy)]
struct Watch {
    cid: u32,
    blocker: Lit,
}

/// What scanning one watch list found.
enum Scan {
    /// Every entry was visited without a conflict.
    Done,
    /// A non-core clause became unit; resume the list at this index.
    Unit(usize),
    /// This clause is falsified.
    Conflict(u32),
}

/// The order-independent hash of a literal multiset that the deletion
/// index files clauses under: a wrapping sum of mixed literal codes.
fn multiset_hash(lits: &[Lit]) -> u64 {
    lits.iter().fold(0u64, |h, l| {
        // splitmix64's finalizer: every code spreads over all 64 bits.
        let mut z = u64::from(l.code()).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h.wrapping_add(z ^ (z >> 31))
    })
}

struct Checker {
    /// Every clause's literals back to back, by clause id (originals first,
    /// then proof additions in step order): clause `id` is
    /// `lits[start[id]..start[id + 1]]`, its watched literals first.
    lits: Vec<Lit>,
    start: Vec<usize>,
    active: Vec<bool>,
    core: Vec<bool>,
    /// `watches[1][l.code()]` lists the active *core* clauses (len ≥ 2)
    /// watching literal `l`, `watches[0][l.code()]` the other active ones.
    /// A clause moves from the second set to the first when first marked.
    watches: [Vec<Vec<Watch>>; 2],
    /// Ids of every unit clause ever created; activity is checked at use.
    units: Vec<u32>,
    /// Deletion index: `buckets[multiset_hash & mask]` heads a chain of
    /// live clause ids through `next`, most recent first.
    buckets: Vec<u32>,
    mask: u64,
    next: Vec<u32>,
    /// Literal values by code.
    vals: Vec<i8>,
    /// Reason clause by variable, [`NONE`] for assumptions.
    reason: Vec<u32>,
    trail: Vec<Lit>,
    seen: Vec<bool>,
    /// Scratch for deletion matching.
    key: Vec<Lit>,
    candidate: Vec<Lit>,
    propagations: u64,
}

impl Checker {
    /// A checker for `n_vars` variables expecting at most `max_clauses`
    /// clause records (which sizes the deletion index).
    fn new(n_vars: usize, max_clauses: usize) -> Self {
        let n_buckets = max_clauses.max(16).next_power_of_two();
        Self {
            lits: Vec::new(),
            start: vec![0],
            active: Vec::new(),
            core: Vec::new(),
            watches: [vec![Vec::new(); 2 * n_vars], vec![Vec::new(); 2 * n_vars]],
            units: Vec::new(),
            buckets: vec![NONE; n_buckets],
            mask: n_buckets as u64 - 1,
            next: Vec::new(),
            vals: vec![0; 2 * n_vars],
            reason: vec![NONE; n_vars],
            trail: Vec::new(),
            seen: vec![false; n_vars],
            key: Vec::new(),
            candidate: Vec::new(),
            propagations: 0,
        }
    }

    /// Where clause `id`'s literals sit in `lits`.
    fn range(&self, id: u32) -> Range<usize> {
        self.start[id as usize]..self.start[id as usize + 1]
    }

    fn clause(&self, id: u32) -> &[Lit] {
        &self.lits[self.range(id)]
    }

    /// Stores a non-empty clause, activates it and files it in the
    /// deletion index.
    fn add_record(&mut self, lits: &[Lit]) -> u32 {
        debug_assert!(!lits.is_empty());
        let id = u32::try_from(self.active.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("a proof names fewer than 2^32 - 1 clauses");
        if lits.len() == 1 {
            self.units.push(id);
        }
        self.lits.extend_from_slice(lits);
        self.start.push(self.lits.len());
        self.active.push(false);
        self.core.push(false);
        let bucket = &mut self.buckets[(multiset_hash(lits) & self.mask) as usize];
        self.next.push(*bucket);
        *bucket = id;
        self.activate(id);
        id
    }

    /// Unfiles and returns the most recent live clause whose literals are
    /// the multiset `lits`, if any.
    fn take_match(&mut self, lits: &[Lit]) -> Option<u32> {
        self.key.clear();
        self.key.extend_from_slice(lits);
        self.key.sort_unstable();
        let bucket = (multiset_hash(lits) & self.mask) as usize;
        let mut prev = NONE;
        let mut id = self.buckets[bucket];
        while id != NONE {
            if self.clause(id).len() == lits.len() {
                self.candidate.clear();
                let range = self.range(id);
                self.candidate.extend_from_slice(&self.lits[range]);
                self.candidate.sort_unstable();
                if self.candidate == self.key {
                    let after = self.next[id as usize];
                    match prev {
                        NONE => self.buckets[bucket] = after,
                        p => self.next[p as usize] = after,
                    }
                    return Some(id);
                }
            }
            prev = id;
            id = self.next[id as usize];
        }
        None
    }

    /// Adds `id`'s watches on its first two literals to `id`'s list set.
    fn watch(&mut self, id: u32) {
        let c = self.clause(id);
        if c.len() >= 2 {
            let (a, b) = (c[0], c[1]);
            let lists = &mut self.watches[usize::from(self.core[id as usize])];
            for (l, blocker) in [(a, b), (b, a)] {
                lists[l.code() as usize].push(Watch { cid: id, blocker });
            }
        }
    }

    /// Removes `id`'s two watches from `id`'s list set.
    fn unwatch(&mut self, id: u32) {
        let c = self.clause(id);
        if c.len() >= 2 {
            let (a, b) = (c[0], c[1]);
            let lists = &mut self.watches[usize::from(self.core[id as usize])];
            for l in [a, b] {
                let ws = &mut lists[l.code() as usize];
                let p = ws
                    .iter()
                    .position(|w| w.cid == id)
                    .expect("an active clause is watched on its first two literals");
                ws.swap_remove(p);
            }
        }
    }

    fn activate(&mut self, id: u32) {
        debug_assert!(!self.active[id as usize]);
        self.active[id as usize] = true;
        self.watch(id);
    }

    fn deactivate(&mut self, id: u32) {
        debug_assert!(self.active[id as usize]);
        self.active[id as usize] = false;
        self.unwatch(id);
    }

    /// Marks the active clause `id` core, moving its watches to the core
    /// lists the first time.
    fn make_core(&mut self, id: u32) {
        if !self.core[id as usize] {
            self.unwatch(id);
            self.core[id as usize] = true;
            self.watch(id);
        }
    }

    #[inline]
    fn value(&self, l: Lit) -> i8 {
        self.vals[l.code() as usize]
    }

    fn assign(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value(l), 0);
        self.vals[l.code() as usize] = TRUE;
        self.vals[(!l).code() as usize] = FALSE;
        self.reason[l.var().index() as usize] = reason;
        self.trail.push(l);
    }

    /// Visits the watches of the now-false `false_lit` in the core
    /// (`core`) or non-core list set from index `i` on, moving watches off
    /// it and assigning unit literals. A non-core scan stops after its
    /// first unit so that propagation goes back to the core clauses.
    fn scan(&mut self, false_lit: Lit, core: bool, mut i: usize) -> Scan {
        let set = usize::from(core);
        let code = false_lit.code() as usize;
        let mut ws = std::mem::take(&mut self.watches[set][code]);
        let found = loop {
            let Some(&w) = ws.get(i) else {
                break Scan::Done;
            };
            if self.vals[w.blocker.code() as usize] == TRUE {
                i += 1;
                continue;
            }
            let range = self.range(w.cid);
            let c = &mut self.lits[range];
            if c[0] == false_lit {
                c.swap(0, 1);
            }
            let first = c[0];
            if self.vals[first.code() as usize] == TRUE {
                ws[i].blocker = first;
                i += 1;
                continue;
            }
            if let Some(k) = (2..c.len()).find(|&k| self.vals[c[k].code() as usize] != FALSE) {
                c.swap(1, k);
                let moved = Watch {
                    cid: w.cid,
                    blocker: first,
                };
                // `c[1]` is not false, so this is never the list in hand.
                self.watches[set][c[1].code() as usize].push(moved);
                ws.swap_remove(i);
                continue;
            }
            if self.vals[first.code() as usize] == FALSE {
                break Scan::Conflict(w.cid);
            }
            self.propagations += 1;
            self.assign(first, w.cid);
            i += 1;
            if !core {
                break Scan::Unit(i);
            }
        };
        self.watches[set][code] = ws;
        found
    }

    /// Core-first unit propagation over the active clauses: the core
    /// clauses run to a fixpoint before any non-core clause is visited,
    /// and each unit a non-core clause yields goes back to the core lists
    /// first. Returns a falsified clause if one arises.
    fn propagate(&mut self) -> Option<u32> {
        let mut core_head = 0;
        // Non-core position: the trail literal whose list is being
        // scanned, and the index to resume that list at.
        let (mut head, mut at) = (0, 0);
        loop {
            while core_head < self.trail.len() {
                let p = self.trail[core_head];
                core_head += 1;
                if let Scan::Conflict(cid) = self.scan(!p, true, 0) {
                    return Some(cid);
                }
            }
            loop {
                if head == self.trail.len() {
                    return None;
                }
                match self.scan(!self.trail[head], false, at) {
                    Scan::Conflict(cid) => return Some(cid),
                    Scan::Unit(resume) => {
                        at = resume;
                        break;
                    }
                    Scan::Done => (head, at) = (head + 1, 0),
                }
            }
        }
    }

    /// Marks the falsified clause `conflict` and, walking the trail
    /// backwards, every reason clause that contributed to it, as core.
    fn mark_core(&mut self, conflict: u32) {
        self.make_core(conflict);
        for k in self.range(conflict) {
            self.seen[self.lits[k].var().index() as usize] = true;
        }
        for i in (0..self.trail.len()).rev() {
            let v = self.trail[i].var().index() as usize;
            if !std::mem::take(&mut self.seen[v]) {
                continue;
            }
            let r = self.reason[v];
            if r != NONE {
                self.make_core(r);
                for k in self.range(r) {
                    let u = self.lits[k].var().index() as usize;
                    if u != v {
                        self.seen[u] = true;
                    }
                }
            }
        }
    }

    /// RUP check of the clause stored at `lits[range]` (empty for the empty
    /// clause, which must be inactive): is a conflict derivable by unit
    /// propagation after assuming the negation of every literal? On
    /// success the conflict's antecedents are core-marked. The trail is
    /// fully undone either way.
    fn rup(&mut self, range: Range<usize>) -> bool {
        debug_assert!(self.trail.is_empty());
        // `Some(Some(id))` = conflict on clause `id`; `Some(None)` =
        // conflict among the assumptions alone (a tautological clause).
        let mut conflict: Option<Option<u32>> = None;
        for k in range {
            let l = self.lits[k];
            match self.value(!l) {
                TRUE => {}
                FALSE => {
                    conflict = Some(None);
                    break;
                }
                _ => self.assign(!l, NONE),
            }
        }
        if conflict.is_none() {
            for idx in 0..self.units.len() {
                let uid = self.units[idx];
                if !self.active[uid as usize] {
                    continue;
                }
                let u = self.clause(uid)[0];
                match self.value(u) {
                    TRUE => {}
                    FALSE => {
                        conflict = Some(Some(uid));
                        break;
                    }
                    _ => self.assign(u, uid),
                }
            }
        }
        if conflict.is_none() {
            conflict = self.propagate().map(Some);
        }
        let derived = conflict.is_some();
        if let Some(Some(cid)) = conflict {
            self.mark_core(cid);
        }
        for i in 0..self.trail.len() {
            let l = self.trail[i];
            self.vals[l.code() as usize] = 0;
            self.vals[(!l).code() as usize] = 0;
            self.reason[l.var().index() as usize] = NONE;
        }
        self.trail.clear();
        derived
    }
}

/// Verifies that `proof` is a valid DRAT (RUP fragment) refutation of
/// `cnf`, using backward checking with lazy core marking.
///
/// The proof must contain an empty-clause addition; steps after the first
/// one are ignored, exactly like `drat-trim`.
///
/// # Errors
///
/// Returns a [`DratError`] describing the first step that fails, or
/// [`DratError::NoEmptyClause`] when the derivation never concludes (e.g.
/// a truncated file, or a solve that was cancelled mid-run).
pub fn check(cnf: &CnfFormula, proof: &DratProof) -> Result<CheckStats, DratError> {
    let start = Instant::now();
    let n_vars = cnf.n_vars() as usize;
    let mut checker = Checker::new(n_vars, cnf.n_clauses() + proof.n_steps());
    let mut stats = CheckStats::default();
    for clause in cnf.clauses() {
        checker.add_record(clause);
    }

    // Forward pass: replay the derivation up to the empty clause.
    let mut resolved: Vec<Resolved> = Vec::new();
    let mut empty_at = None;
    for (s, step) in proof.steps().iter().enumerate() {
        let lits = match step {
            ProofStep::Add(lits) | ProofStep::Delete(lits) => lits,
        };
        if lits.is_empty() && matches!(step, ProofStep::Add(_)) {
            empty_at = Some(s);
            break;
        }
        if lits.iter().any(|l| l.var().index() as usize >= n_vars) {
            return Err(DratError::LiteralOutOfRange { step: s });
        }
        match step {
            ProofStep::Add(_) => {
                resolved.push(Resolved::Add(checker.add_record(lits)));
                stats.additions += 1;
            }
            ProofStep::Delete(_) => {
                let id = checker
                    .take_match(lits)
                    .ok_or(DratError::DeleteUnknownClause { step: s })?;
                checker.deactivate(id);
                resolved.push(Resolved::Delete(id));
                stats.deletions += 1;
            }
        }
    }
    let empty_at = empty_at.ok_or(DratError::NoEmptyClause)?;

    // The claimed empty clause must follow from the final database.
    if !checker.rup(0..0) {
        return Err(DratError::NotRup { step: empty_at });
    }

    // Backward pass: peel additions off, verifying the core ones against
    // exactly the database that was active when they were derived.
    for s in (0..empty_at).rev() {
        match resolved[s] {
            Resolved::Add(id) => {
                checker.deactivate(id);
                if checker.core[id as usize] {
                    stats.core_additions += 1;
                    if !checker.rup(checker.range(id)) {
                        return Err(DratError::NotRup { step: s });
                    }
                }
            }
            Resolved::Delete(id) => checker.activate(id),
        }
    }

    stats.propagations = checker.propagations;
    stats.check_time = start.elapsed();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i64) -> Lit {
        Lit::from_dimacs(v).expect("non-zero")
    }

    /// x1, ¬x1: empty clause is RUP with no derivation steps.
    #[test]
    fn contradictory_units_need_no_steps() {
        let mut cnf = CnfFormula::new();
        let a = cnf.new_lit();
        cnf.add_clause([a]);
        cnf.add_clause([!a]);
        let proof = DratProof::from_steps(vec![ProofStep::Add(Vec::new())]);
        let stats = check(&cnf, &proof).expect("trivially refutable");
        assert_eq!(stats.additions, 0);
    }

    #[test]
    fn hand_built_rup_chain_checks() {
        // (a ∨ b)(a ∨ ¬b)(¬a ∨ b)(¬a ∨ ¬b): derive (a), then empty.
        let cnf = crate::dimacs::parse("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(1)]),
            ProofStep::Add(Vec::new()),
        ]);
        let stats = check(&cnf, &proof).expect("valid RUP chain");
        assert_eq!(stats.core_additions, 1);
    }

    #[test]
    fn non_rup_addition_is_rejected() {
        // (1 ∨ 2)(1 ∨ ¬2) implies 1, so the formula is SAT and (¬1) is not
        // RUP — assuming 1 satisfies both clauses with no conflict. The
        // empty clause *is* RUP once (¬1) is (bogusly) in the database,
        // which core-marks (¬1); the backward pass must then reject it.
        let cnf = crate::dimacs::parse("p cnf 2 2\n1 2 0\n1 -2 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(-1)]),
            ProofStep::Add(Vec::new()),
        ]);
        assert_eq!(check(&cnf, &proof), Err(DratError::NotRup { step: 0 }));
    }

    #[test]
    fn non_core_bogus_addition_is_ignored_like_drat_trim() {
        // A redundant (even bogus) lemma that no later step depends on is
        // never verified — the lazy-core contract, matching drat-trim.
        let cnf = crate::dimacs::parse("p cnf 2 3\n1 0\n-1 2 0\n-1 -2 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(-1), lit(2)]), // duplicate, harmless
            ProofStep::Add(Vec::new()),
        ]);
        // Empty clause conflicts via unit (1) and the *original* clauses;
        // whether the duplicate gets core-marked is resolution-order luck,
        // but the proof must check either way.
        check(&cnf, &proof).expect("redundant lemma never invalidates a proof");
    }

    #[test]
    fn unconcluded_proof_is_rejected() {
        let cnf = crate::dimacs::parse("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let proof = DratProof::new();
        assert_eq!(check(&cnf, &proof), Err(DratError::NoEmptyClause));
    }

    #[test]
    fn delete_of_unknown_clause_is_rejected() {
        let cnf = crate::dimacs::parse("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Delete(vec![lit(1), lit(-1)]),
            ProofStep::Add(Vec::new()),
        ]);
        assert_eq!(
            check(&cnf, &proof),
            Err(DratError::DeleteUnknownClause { step: 0 })
        );
    }

    #[test]
    fn deleting_a_needed_clause_breaks_the_proof() {
        let cnf = crate::dimacs::parse("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Delete(vec![lit(-1), lit(2)]),
            ProofStep::Delete(vec![lit(-1), lit(-2)]),
            ProofStep::Add(vec![lit(1)]),
            ProofStep::Add(Vec::new()),
        ]);
        // With both ¬1-clauses deleted, (1) is still RUP? Assuming ¬1
        // propagates 2 (from 1 2) and ¬2 (from 1 -2): conflict, so (1) is
        // fine — but the empty clause then needs a conflict from {1 2,
        // 1 -2, 1}: assigning 1 satisfies everything. Rejected at the end.
        assert!(matches!(
            check(&cnf, &proof),
            Err(DratError::NotRup { step: 3 })
        ));
    }

    #[test]
    fn clause_deleted_after_its_use_is_reattached_for_the_earlier_lemma() {
        // (1) is RUP only through (1 2) and (1 ¬2); the proof then deletes
        // (1 2), which the empty clause no longer needs. Backward, undoing
        // that deletion must put (1 2) back into the watch lists before
        // the core lemma (1) is re-verified, or its RUP check fails.
        let cnf = crate::dimacs::parse("p cnf 3 4\n1 2 0\n1 -2 0\n-1 3 0\n-1 -3 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(1)]),
            ProofStep::Delete(vec![lit(2), lit(1)]),
            ProofStep::Add(Vec::new()),
        ]);
        let stats = check(&cnf, &proof).expect("the deleted clause is restored");
        assert_eq!(stats.deletions, 1);
        assert_eq!(stats.core_additions, 1);
    }

    #[test]
    fn drat_text_round_trip() {
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(1), lit(-2)]),
            ProofStep::Delete(vec![lit(1), lit(-2)]),
            ProofStep::Add(Vec::new()),
        ]);
        let text = proof.to_drat_string();
        assert_eq!(text, "1 -2 0\nd 1 -2 0\n0\n");
        let parsed = DratProof::parse(&text).expect("round trip");
        assert_eq!(parsed, proof);
        assert!(parsed.is_concluded());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(DratProof::parse("1 2\n").is_err(), "missing terminator");
        assert!(DratProof::parse("1 x 0\n").is_err(), "bad token");
        assert!(DratProof::parse("1 0 2\n").is_err(), "trailing literal");
        let ok = DratProof::parse("c comment\n\nd 1 0\n0\n").expect("comments and blanks");
        assert_eq!(ok.n_steps(), 2);
    }

    #[test]
    fn literal_out_of_range_is_rejected() {
        let cnf = crate::dimacs::parse("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(5)]),
            ProofStep::Add(Vec::new()),
        ]);
        assert_eq!(
            check(&cnf, &proof),
            Err(DratError::LiteralOutOfRange { step: 0 })
        );
    }

    #[test]
    fn permuted_deletion_matches_its_clause() {
        // The formula stores (1 2 3) sorted; the deletion names it as
        // (3 1 2). Matching is by literal multiset, not by order.
        let cnf =
            crate::dimacs::parse("p cnf 3 5\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n1 2 3 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Delete(vec![lit(3), lit(1), lit(2)]),
            ProofStep::Add(vec![lit(1)]),
            ProofStep::Add(Vec::new()),
        ]);
        let stats = check(&cnf, &proof).expect("the permuted deletion matches");
        assert_eq!(stats.deletions, 1);
    }

    #[test]
    fn deletion_removes_the_most_recent_identical_copy() {
        let mut checker = Checker::new(2, 4);
        let original = checker.add_record(&[lit(1), lit(2)]);
        let copy = checker.add_record(&[lit(2), lit(1)]);
        assert_eq!(checker.take_match(&[lit(1), lit(2)]), Some(copy));
        assert_eq!(checker.take_match(&[lit(2), lit(1)]), Some(original));
        assert_eq!(checker.take_match(&[lit(1), lit(2)]), None);

        // End to end: deleting the re-added copy leaves it out of every
        // later RUP check, so only (1) is core. Had the original been
        // deleted instead, verifying (1) would use the copy and make it
        // core as well.
        let cnf = crate::dimacs::parse("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n").unwrap();
        let proof = DratProof::from_steps(vec![
            ProofStep::Add(vec![lit(2), lit(1)]),
            ProofStep::Delete(vec![lit(1), lit(2)]),
            ProofStep::Add(vec![lit(1)]),
            ProofStep::Add(Vec::new()),
        ]);
        let stats = check(&cnf, &proof).expect("valid proof");
        assert_eq!(stats.core_additions, 1);
    }

    #[test]
    fn clause_first_marked_core_is_then_propagated_in_core_mode() {
        let watchers = |c: &Checker, set: usize, l: Lit| -> Vec<u32> {
            let mut ids: Vec<u32> = c.watches[set][l.code() as usize]
                .iter()
                .map(|w| w.cid)
                .collect();
            ids.sort_unstable();
            ids
        };
        let mut checker = Checker::new(2, 3);
        let a = checker.add_record(&[lit(1), lit(2)]);
        let b = checker.add_record(&[lit(1), lit(-2)]);
        let lemma = checker.add_record(&[lit(1)]);
        checker.deactivate(lemma);
        assert_eq!(watchers(&checker, 0, lit(1)), vec![a, b]);
        assert!(watchers(&checker, 1, lit(1)).is_empty());

        // Verifying (1) conflicts on `a` and `b` and marks both core,
        // which moves their watches to the core lists.
        assert!(checker.rup(checker.range(lemma)));
        assert!(checker.core[a as usize] && checker.core[b as usize]);
        assert!(watchers(&checker, 0, lit(1)).is_empty());
        assert_eq!(watchers(&checker, 1, lit(1)), vec![a, b]);

        // A core-mode scan alone now finds the conflict.
        checker.assign(lit(-1), NONE);
        assert!(matches!(
            checker.scan(lit(1), true, 0),
            Scan::Conflict(id) if id == a || id == b
        ));
    }

    #[test]
    fn distinct_clauses_in_one_hash_chain_are_told_apart() {
        let mut checker = Checker::new(8, 2);
        let mask = checker.mask;
        let bucket = move |c: &[Lit]| multiset_hash(c) & mask;
        let first = [lit(1), lit(2)];
        let second = (3..=8)
            .flat_map(|u| (1..=8).map(move |v| [lit(u), lit(-v)]))
            .find(|c| bucket(c) == bucket(&first))
            .expect("48 clauses in 16 buckets share a chain with the first");
        let f = checker.add_record(&first);
        let s = checker.add_record(&second);
        assert_eq!(checker.buckets[bucket(&first) as usize], s, "one chain");
        assert_eq!(checker.take_match(&first), Some(f));
        assert_eq!(checker.take_match(&first), None);
        assert_eq!(checker.take_match(&second), Some(s));
    }
}

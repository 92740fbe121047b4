//! Minimization loops: the procedure behind the paper's Table IV.
//!
//! The synthesis call itself is a decision procedure for fixed budgets; the
//! paper obtains *optimal* circuits by "iteratively calling the procedure
//! with decreasing `N_V` and `N_R`" (§III). This module automates those
//! loops and records every call, so a Table IV row can report the found
//! circuit, whether its minimality was *proved* (UNSAT at the next smaller
//! budget) or only *bounded* (the paper's "≤" rows, where the solver timed
//! out).
//!
//! # Portfolio ladders
//!
//! Every loop is an ascending ladder of independent `(N_V, N_R)` decision
//! problems, dispatched across `jobs` worker threads. Each in-flight solver
//! call is wired to a [`CancellationToken`]:
//!
//! * a **SAT** answer at budget `k` cancels every call at a budget `> k`
//!   (a smaller witness already exists, larger budgets are uninteresting);
//! * an **UNSAT** answer at budget `k` cancels every call at a budget `< k`
//!   (the budget lattice is monotone, so everything below is also UNSAT).
//!
//! With one worker the ladder is the sequential scan-up: every point after
//! the first SAT is skipped before launch.
//!
//! # Determinism
//!
//! For fixed inputs and a conflict-limited (or unlimited) per-call budget,
//! the reported optimum and `proven_optimal` are identical for every thread
//! count; only the order and number of entries in
//! [`OptimizeReport::calls`] may vary. The argument rests on the monotone
//! budget lattice (realizable at `k` implies realizable at `k + 1`):
//!
//! * Let `k*` be the smallest ladder point the (deterministic) solver
//!   answers SAT. Nothing can cancel `k*`: a completed SAT strictly below
//!   it cannot exist (by minimality of `k*`), and a completed UNSAT
//!   strictly above it would contradict monotone truth. So `k*` always
//!   completes and `best` is always its (deterministic) witness.
//! * Let `u*` be the largest ladder point the solver answers UNSAT
//!   (`u* < k*`). By the same case analysis `u*` always completes, and
//!   every point `≤ u*` is UNSAT by the lattice closure whether or not its
//!   own call was cancelled.
//! * Points in `(u*, k*)` — where the solver gives up with Unknown — can
//!   never be cancelled (no SAT exists below them, no UNSAT above them),
//!   so they always report Unknown.
//!
//! Hence `proven_optimal` — "`k* `is the ladder minimum, or every point
//! below `k*` is conclusively UNSAT" — is schedule-independent. Wall-clock
//! time limits break the first premise (the solver's answer at a point
//! stops being a function of the formula), so determinism across thread
//! counts is only guaranteed for conflict-limited or unlimited budgets.
//!
//! # Certified UNSAT
//!
//! Running the ladder with a
//! [certifying](crate::Synthesizer::with_certification) synthesizer makes
//! every UNSAT rung pass through the DRAT checker before it is allowed to
//! contribute to `proven_optimal`: each `Unrealizable` point carries a
//! checker-accepted refutation in its [`CallRecord`] (`certified`,
//! `proof`), and a rejected proof aborts the whole run with
//! [`SynthError::CertificationFailed`]. Cancellation composes soundly with
//! certification by construction — a cancelled solve returns `Unknown`
//! *before* the proof log is ever concluded with the empty clause, so an
//! aborted rung can never present a proof that checks, let alone assert an
//! UNSAT it did not finish.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mm_boolfn::MultiOutputFn;
use mm_circuit::MmCircuit;
use mm_sat::{CancellationToken, DratProof};
use mm_telemetry::{kv, AttrValue};

use crate::{EncodeOptions, SynthError, SynthOutcome, SynthResult, SynthSpec, Synthesizer};

/// One synthesis call made during a minimization run.
///
/// The serde representation backs `mmsynth --stats-json` and is schema-stable
/// (see the golden test in this module): `Duration` fields serialize as
/// `{"secs", "nanos"}` objects and the optional proof as DRAT text.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CallRecord {
    /// R-op budget of the call.
    pub n_rops: usize,
    /// Leg budget of the call.
    pub n_legs: usize,
    /// Steps-per-leg budget of the call.
    pub n_vsteps: usize,
    /// What the call concluded.
    pub result: SynthResultKind,
    /// CNF variables of the instance.
    pub n_vars: u32,
    /// CNF clauses of the instance.
    pub n_clauses: usize,
    /// Encode + solve time.
    pub time: Duration,
    /// Conflicts the solver analyzed during the call.
    pub conflicts: u64,
    /// Literals the solver propagated during the call.
    pub propagations: u64,
    /// DRAT steps emitted by the call (0 when proof logging was off).
    pub proof_steps: u64,
    /// Whether the call aborted because the run's wall-clock
    /// [`Deadline`](mm_sat::Deadline) expired (a subset of `Unknown`
    /// results).
    pub deadline_expired: bool,
    /// Time spent checking the call's proof (zero when not certified).
    pub check_time: Duration,
    /// Whether an `Unrealizable` answer is backed by a checker-accepted
    /// proof. Always `false` for `Realizable`/`Unknown` calls.
    pub certified: bool,
    /// The checker-accepted refutation itself, retained so certified runs
    /// can archive per-call proof files. `None` unless `certified`.
    pub proof: Option<DratProof>,
}

/// A [`SynthResult`] variant tag without the circuit
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SynthResultKind {
    /// The instance was satisfiable.
    Realizable,
    /// The instance was proved unsatisfiable.
    Unrealizable,
    /// The budget ran out.
    Unknown,
}

/// Why a minimization run degraded instead of concluding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// The run's wall-clock [`Deadline`](mm_sat::Deadline) expired with
    /// budget points still undecided.
    DeadlineExpired,
    /// A per-call resource budget (conflicts, time, proof steps) was
    /// exhausted on a point that mattered for the optimality claim.
    BudgetExhausted,
    /// A worker thread panicked; its point is treated as undecided and the
    /// rest of the run continued.
    WorkerPanicked {
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DeadlineExpired => write!(f, "deadline expired"),
            Self::BudgetExhausted => write!(f, "budget exhausted"),
            Self::WorkerPanicked { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

/// Whether a minimization run ran to a conclusive end or degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeStatus {
    /// Every budget point that mattered was decided (SAT or UNSAT).
    Complete,
    /// The run returned its best-known answer without deciding every
    /// relevant point. `best` is then an *unproven upper bound* (possibly a
    /// heuristic seed), and `proven_optimal` is guaranteed `false`.
    Degraded {
        /// What cut the run short.
        reason: DegradeReason,
    },
}

impl OptimizeStatus {
    /// Whether the run degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Self::Degraded { .. })
    }
}

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    /// The best circuit found, if any. On a
    /// [`Degraded`](OptimizeStatus::Degraded) run this is the best *known*
    /// circuit — possibly the heuristic seed — and only an upper bound.
    pub best: Option<MmCircuit>,
    /// Whether the next-smaller budget was *proved* infeasible. Never
    /// `true` on a degraded run.
    pub proven_optimal: bool,
    /// Whether the run concluded or degraded (deadline, budget, panic).
    pub status: OptimizeStatus,
    /// Every synthesis call, in completion order.
    pub calls: Vec<CallRecord>,
}

impl OptimizeReport {
    /// Total time across all recorded calls.
    pub fn total_time(&self) -> Duration {
        self.calls.iter().map(|c| c.time).sum()
    }
}

/// Falls back to the heuristic mapper as a best-known upper bound when a
/// degraded run found no circuit at all. The seed is functionally verified
/// by the mapper; failure to map (never expected) just leaves `best` empty.
fn seed_upper_bound(f: &MultiOutputFn) -> Option<MmCircuit> {
    crate::heuristic::map(f).ok()
}

/// A sensible default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The call record of `outcome`; the proof moves out of its certificate.
fn record(outcome: &mut SynthOutcome, spec: &SynthSpec) -> CallRecord {
    CallRecord {
        n_rops: spec.n_rops(),
        n_legs: spec.n_legs(),
        n_vsteps: spec.n_vsteps(),
        result: match outcome.result {
            SynthResult::Realizable(_) => SynthResultKind::Realizable,
            SynthResult::Unrealizable => SynthResultKind::Unrealizable,
            SynthResult::Unknown => SynthResultKind::Unknown,
        },
        n_vars: outcome.encode_stats.n_vars,
        n_clauses: outcome.encode_stats.n_clauses,
        time: outcome.total_time(),
        conflicts: outcome.solver_stats.conflicts,
        propagations: outcome.solver_stats.propagations,
        proof_steps: outcome.solver_stats.proof_steps,
        deadline_expired: outcome.solver_stats.deadline_expired,
        check_time: outcome.solver_stats.proof_check_time,
        certified: outcome.certificate.is_some(),
        proof: outcome.certificate.take().map(|c| c.proof),
    }
}

/// The conclusive outcome of one ladder point after the portfolio run.
#[derive(Debug)]
enum PointOutcome {
    /// The solver returned a verified circuit.
    Sat(Box<MmCircuit>),
    /// The solver proved the point infeasible.
    Unsat,
    /// The solver gave up (budget exhausted, deadline expired — possibly
    /// before launch — or cancelled mid-run).
    Unknown {
        /// Whether the run's wall-clock deadline caused it.
        deadline: bool,
    },
    /// The worker solving this point panicked. The point counts as
    /// undecided; the rest of the run continued normally.
    Panicked(String),
    /// The point's token was already tripped before the call started
    /// (its answer is implied by the lattice), so no solver was ever
    /// launched and no [`CallRecord`] exists for it.
    Skipped,
}

/// What one budget ladder run concluded.
struct LadderOutcome {
    /// Ladder index of the cheapest SAT point, with its circuit.
    best: Option<(usize, MmCircuit)>,
    /// Whether every point below the best is conclusively UNSAT (directly
    /// or via the lattice closure under the largest completed UNSAT).
    proven: bool,
    /// Why the ladder degraded, when any point that mattered for the
    /// optimality claim was left undecided (or any worker panicked).
    degrade: Option<DegradeReason>,
    /// Call records in completion order.
    calls: Vec<CallRecord>,
}

/// Solves an ascending budget ladder (`specs[i]` strictly weaker than
/// `specs[i + 1]`) with `jobs` workers and lattice-driven cancellation.
/// Every rung is a cold [`Synthesizer::run`] on its own encoding.
fn run_ladder(
    synth: &Synthesizer,
    specs: &[SynthSpec],
    jobs: usize,
) -> Result<LadderOutcome, SynthError> {
    let n = specs.len();
    let jobs = jobs.max(1).min(n.max(1));
    let tokens: Vec<CancellationToken> = (0..n).map(|_| CancellationToken::new()).collect();
    let outcomes: Mutex<Vec<Option<PointOutcome>>> = Mutex::new((0..n).map(|_| None).collect());
    let calls: Mutex<Vec<CallRecord>> = Mutex::new(Vec::new());
    let first_error: Mutex<Option<SynthError>> = Mutex::new(None);
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Shadow with references so the `move` closures copy pointers, not
        // the shared state itself.
        let (tokens, cursor) = (&tokens, &cursor);
        let (outcomes, calls, first_error) = (&outcomes, &calls, &first_error);
        for worker_idx in 0..jobs {
            scope.spawn(move || {
                worker(
                    synth,
                    specs,
                    tokens,
                    cursor,
                    outcomes,
                    calls,
                    first_error,
                    worker_idx,
                );
            });
        }
    });

    if let Some(e) = first_error.into_inner().expect("no poisoned lock") {
        return Err(e);
    }
    let outcomes = outcomes.into_inner().expect("no poisoned lock");
    let calls = calls.into_inner().expect("no poisoned lock");

    let mut best: Option<(usize, MmCircuit)> = None;
    let mut u_max: Option<usize> = None;
    let mut unknowns: Vec<(usize, bool)> = Vec::new();
    let mut panic_message: Option<(usize, String)> = None;
    for (idx, outcome) in outcomes.into_iter().enumerate() {
        match outcome.expect("every ladder point is visited") {
            PointOutcome::Sat(c) => {
                if best.is_none() {
                    best = Some((idx, *c));
                }
            }
            PointOutcome::Unsat => u_max = Some(idx),
            PointOutcome::Unknown { deadline } => unknowns.push((idx, deadline)),
            PointOutcome::Panicked(message) => {
                if panic_message.is_none() {
                    panic_message = Some((idx, message));
                }
                unknowns.push((idx, false));
            }
            PointOutcome::Skipped => {}
        }
    }
    let proven = match &best {
        None => false,
        Some((0, _)) => true,
        Some((k, _)) => u_max.is_some_and(|u| u >= k - 1),
    };
    // A point degrades the run when its answer could still change the
    // outcome: anything below the best witness (or anywhere, if no witness
    // exists) that neither completed nor was closed by the lattice. A panic
    // is always surfaced, wherever it happened.
    let best_idx = best.as_ref().map(|(k, _)| *k);
    let closed = |idx: usize| u_max.is_some_and(|u| idx <= u);
    let relevant = |idx: usize| best_idx.is_none_or(|k| idx < k) && !closed(idx);
    let degrade = if let Some((_, message)) = panic_message {
        Some(DegradeReason::WorkerPanicked { message })
    } else if unknowns
        .iter()
        .any(|&(idx, deadline)| deadline && relevant(idx))
    {
        Some(DegradeReason::DeadlineExpired)
    } else if unknowns.iter().any(|&(idx, _)| relevant(idx)) {
        Some(DegradeReason::BudgetExhausted)
    } else {
        None
    };
    // One ladder-summary event per run: the verdict the rung events roll
    // up to, so a trace is self-contained.
    synth.telemetry().point(
        "ladder",
        vec![
            kv("points", n),
            kv("proven", proven && degrade.is_none()),
            kv("degraded", degrade.is_some()),
            kv(
                "reason",
                degrade
                    .as_ref()
                    .map(ToString::to_string)
                    .unwrap_or_default(),
            ),
        ],
    );
    Ok(LadderOutcome {
        best,
        proven: proven && degrade.is_none(),
        degrade,
        calls,
    })
}

/// Shared attributes of every `rung` / `rung.spawned` event: the ladder
/// index, the point's budgets, and the worker that handled it.
fn rung_attrs(idx: usize, spec: &SynthSpec, worker_idx: usize) -> Vec<(String, AttrValue)> {
    vec![
        kv("idx", idx),
        kv("n_rops", spec.n_rops()),
        kv("n_legs", spec.n_legs()),
        kv("n_vsteps", spec.n_vsteps()),
        kv("worker", format!("w{worker_idx}")),
    ]
}

#[allow(clippy::too_many_arguments)] // one call site; mirrors the shared state
fn worker(
    synth: &Synthesizer,
    specs: &[SynthSpec],
    tokens: &[CancellationToken],
    cursor: &AtomicUsize,
    outcomes: &Mutex<Vec<Option<PointOutcome>>>,
    calls: &Mutex<Vec<CallRecord>>,
    first_error: &Mutex<Option<SynthError>>,
    worker_idx: usize,
) {
    let telemetry = synth.telemetry().clone();
    loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= specs.len() {
            return;
        }
        let rung = |outcome: &str| {
            let mut attrs = rung_attrs(idx, &specs[idx], worker_idx);
            attrs.push(kv("outcome", outcome));
            attrs
        };
        if first_error.lock().expect("no poisoned lock").is_some() {
            telemetry.point("rung", rung("skipped"));
            set_outcome(outcomes, idx, PointOutcome::Skipped);
            continue;
        }
        if tokens[idx].is_cancelled() {
            // Lattice-closed before launch: the "cancelled" lifecycle case.
            let mut attrs = rung("skipped");
            attrs.push(kv("cancelled", true));
            telemetry.point("rung", attrs);
            set_outcome(outcomes, idx, PointOutcome::Skipped);
            continue;
        }
        // An already-expired deadline means the solver could only return
        // Unknown; skip the launch (and the encode) but record the point as
        // undecided, not as lattice-closed.
        if synth.budget().deadline().is_some_and(|d| d.expired()) {
            let mut attrs = rung("unknown");
            attrs.push(kv("deadline", true));
            telemetry.point("rung", attrs);
            set_outcome(outcomes, idx, PointOutcome::Unknown { deadline: true });
            continue;
        }
        telemetry.point("rung.spawned", rung_attrs(idx, &specs[idx], worker_idx));
        let budget = synth.budget().with_cancellation(tokens[idx].clone());
        let run = catch_unwind(AssertUnwindSafe(|| {
            synth.clone().with_budget(budget).run(&specs[idx])
        }));
        match run {
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                telemetry.point("rung", rung("panicked"));
                set_outcome(outcomes, idx, PointOutcome::Panicked(message));
            }
            Ok(Ok(mut outcome)) => {
                let record = record(&mut outcome, &specs[idx]);
                let deadline = record.deadline_expired;
                let mut attrs = rung(match outcome.result {
                    SynthResult::Realizable(_) => "sat",
                    SynthResult::Unrealizable => "unsat",
                    SynthResult::Unknown => "unknown",
                });
                attrs.extend([
                    kv("conflicts", outcome.solver_stats.conflicts),
                    kv("vars", record.n_vars),
                    kv("clauses", record.n_clauses),
                    kv("time_us", record.time.as_micros() as u64),
                    kv("certified", record.certified),
                    kv("cancelled", outcome.solver_stats.cancelled),
                    kv("deadline", deadline),
                ]);
                calls.lock().expect("no poisoned lock").push(record);
                let point = match outcome.result {
                    SynthResult::Realizable(c) => {
                        // A witness at `idx` settles every larger budget.
                        for token in &tokens[idx + 1..] {
                            token.cancel();
                        }
                        attrs.push(kv("cancels_above", specs.len() - idx - 1));
                        PointOutcome::Sat(Box::new(c))
                    }
                    SynthResult::Unrealizable => {
                        // Lattice monotonicity: UNSAT here closes everything
                        // below.
                        for token in &tokens[..idx] {
                            token.cancel();
                        }
                        attrs.push(kv("cancels_below", idx));
                        PointOutcome::Unsat
                    }
                    SynthResult::Unknown => PointOutcome::Unknown { deadline },
                };
                telemetry.point("rung", attrs);
                set_outcome(outcomes, idx, point);
            }
            Ok(Err(e)) => {
                let mut slot = first_error.lock().expect("no poisoned lock");
                if slot.is_none() {
                    *slot = Some(e);
                }
                drop(slot);
                for token in tokens {
                    token.cancel();
                }
                telemetry.point("rung", rung("skipped"));
                set_outcome(outcomes, idx, PointOutcome::Skipped);
            }
        }
    }
}

fn set_outcome(outcomes: &Mutex<Vec<Option<PointOutcome>>>, idx: usize, outcome: PointOutcome) {
    outcomes.lock().expect("no poisoned lock")[idx] = Some(outcome);
}

/// Lifts a ladder's degrade verdict into an [`OptimizeStatus`].
fn status_of(degrade: Option<DegradeReason>) -> OptimizeStatus {
    match degrade {
        Some(reason) => OptimizeStatus::Degraded { reason },
        None => OptimizeStatus::Complete,
    }
}

/// Runs one single-phase ladder over `specs` (ascending) and reports its
/// verdict.
fn minimize_ladder(
    synth: &Synthesizer,
    specs: &[SynthSpec],
    jobs: usize,
) -> Result<OptimizeReport, SynthError> {
    let ladder = run_ladder(synth, specs, jobs)?;
    Ok(OptimizeReport {
        best: ladder.best.map(|(_, c)| c),
        proven_optimal: ladder.proven,
        status: status_of(ladder.degrade),
        calls: ladder.calls,
    })
}

/// Finds the minimal `N_R` for an R-only realization `Φ(f, 0, N_R)`,
/// probing `N_R = 1..=max_rops` with `jobs` workers (the
/// conventional-paradigm baseline of Table IV).
///
/// The reported optimum and `proven_optimal` are independent of `jobs` (see
/// the module docs); `calls` ordering may differ. Degraded R-only runs have
/// no heuristic fallback: the mapper emits mixed-mode circuits, which are
/// not valid R-only upper bounds.
///
/// # Errors
///
/// Propagates [`SynthError`] from spec construction or synthesis.
pub fn minimize_r_only(
    synth: &Synthesizer,
    f: &MultiOutputFn,
    max_rops: usize,
    options: &EncodeOptions,
    jobs: usize,
) -> Result<OptimizeReport, SynthError> {
    let specs = (1..=max_rops)
        .map(|n_rops| Ok(SynthSpec::r_only(f, n_rops)?.with_options(options.clone())))
        .collect::<Result<Vec<_>, SynthError>>()?;
    minimize_ladder(synth, &specs, jobs)
}

/// Finds the minimal `N_VS` for fixed `N_R` and `N_L`, probing
/// `N_VS = 1..=max_vsteps` with `jobs` workers.
///
/// Mirrors the paper's inner loop: "`N_VS` is the smallest value for that
/// `N_R`". `proven_optimal` is true iff the witness sits at one step or the
/// budget just below it was a genuine UNSAT (not a timeout).
///
/// # Errors
///
/// Propagates [`SynthError`] from spec construction or synthesis.
pub fn minimize_vsteps(
    synth: &Synthesizer,
    f: &MultiOutputFn,
    n_rops: usize,
    n_legs: usize,
    max_vsteps: usize,
    options: &EncodeOptions,
    jobs: usize,
) -> Result<OptimizeReport, SynthError> {
    let specs = (1..=max_vsteps)
        .map(|vs| Ok(SynthSpec::mixed_mode(f, n_rops, n_legs, vs)?.with_options(options.clone())))
        .collect::<Result<Vec<_>, SynthError>>()?;
    minimize_ladder(synth, &specs, jobs)
}

/// Finds the minimal `N_R` (with the paper's leg convention
/// `N_L = N_R + N_O [− 1 for adders]`), minimizing `N_VS` for the smallest
/// feasible `N_R`.
///
/// Mirrors the paper's outer loop for the MM rows of Table IV in two
/// portfolio phases: an `N_R` ladder at `max_vsteps` (`N_R` is the smallest
/// number for which `Φ(f, N_V, N_R)` is satisfiable), then an `N_VS` ladder
/// at the smallest feasible `N_R`. Within each phase all points run
/// concurrently under the cancellation protocol.
///
/// # Errors
///
/// Propagates [`SynthError`] from spec construction or synthesis.
pub fn minimize_mixed_mode(
    synth: &Synthesizer,
    f: &MultiOutputFn,
    max_rops: usize,
    max_vsteps: usize,
    is_adder: bool,
    options: &EncodeOptions,
    jobs: usize,
) -> Result<OptimizeReport, SynthError> {
    // Phase 1: find the smallest feasible N_R at the full V-step budget.
    let rop_specs = (0..=max_rops)
        .map(|n_rops| {
            let n_legs = SynthSpec::paper_legs(f, n_rops, is_adder);
            Ok(SynthSpec::mixed_mode(f, n_rops, n_legs, max_vsteps)?.with_options(options.clone()))
        })
        .collect::<Result<Vec<_>, SynthError>>()?;
    let outer = run_ladder(synth, &rop_specs, jobs)?;
    let mut calls = outer.calls;
    let Some((rop_idx, outer_circuit)) = outer.best else {
        // No witness at any N_R. If the ladder degraded (deadline, budget,
        // panic) the search is inconclusive: fall back to the heuristic
        // mapper's circuit as the best-known upper bound rather than
        // returning nothing.
        let status = status_of(outer.degrade);
        return Ok(OptimizeReport {
            best: status.is_degraded().then(|| seed_upper_bound(f)).flatten(),
            proven_optimal: false,
            status,
            calls,
        });
    };

    // Phase 2: shrink the V-step budget at that N_R, below the witness's
    // own point (N_R, N_L, max_vsteps), which phase 1 already solved.
    let n_rops = rop_idx; // ladder index 0 is N_R = 0
    let n_legs = SynthSpec::paper_legs(f, n_rops, is_adder);
    let vs_specs = (1..max_vsteps)
        .map(|vs| Ok(SynthSpec::mixed_mode(f, n_rops, n_legs, vs)?.with_options(options.clone())))
        .collect::<Result<Vec<_>, SynthError>>()?;
    let inner = run_ladder(synth, &vs_specs, jobs)?;
    calls.extend(inner.calls);
    // Without a cheaper witness the phase-1 one stands. It is N_VS-minimal
    // when the inner ladder did not degrade: with no SAT point, every
    // inner point then completed UNSAT or was closed by one (an empty
    // ladder, at max_vsteps = 1, trivially).
    let (best, inner_proven) = match inner.best {
        Some((_, circuit)) => (circuit, inner.proven),
        None => (outer_circuit, inner.degrade.is_none()),
    };
    let status = status_of(outer.degrade.or(inner.degrade));
    Ok(OptimizeReport {
        best: Some(best),
        // N_R minimality comes from the outer ladder's closure, N_VS
        // minimality from the inner one.
        proven_optimal: outer.proven && inner_proven && !status.is_degraded(),
        status,
        calls,
    })
}

#[cfg(test)]
mod tests {
    use mm_boolfn::generators;
    use mm_sat::Budget;

    use super::*;

    fn reports_agree(a: &OptimizeReport, b: &OptimizeReport) {
        assert_eq!(a.proven_optimal, b.proven_optimal);
        match (&a.best, &b.best) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.metrics().n_rops, y.metrics().n_rops);
                assert_eq!(x.metrics().n_vsteps, y.metrics().n_vsteps);
                assert_eq!(x.metrics().n_legs, y.metrics().n_legs);
            }
            other => panic!("best presence differs across thread counts: {other:?}"),
        }
    }

    #[test]
    fn r_only_xor_takes_three_gates_at_every_width() {
        let f = generators::xor_gate(2);
        let opts = EncodeOptions::recommended();
        let synth = Synthesizer::new();
        let baseline = minimize_r_only(&synth, &f, 5, &opts, 1).unwrap();
        // One worker scans up: 1, 2 UNSAT; 3 SAT; 4, 5 skipped.
        assert_eq!(baseline.calls.len(), 3);
        for jobs in [1, 2, 8] {
            let par = minimize_r_only(&synth, &f, 5, &opts, jobs).unwrap();
            reports_agree(&baseline, &par);
            assert_eq!(
                par.best.as_ref().map(|c| c.metrics().n_rops),
                Some(3),
                "XOR2 needs 3 R-ops (Table IV)"
            );
            assert!(par.proven_optimal);
        }
    }

    #[test]
    fn vsteps_ladder_proves_and2_optimum_at_any_width() {
        let f = generators::and_gate(2);
        let opts = EncodeOptions::recommended();
        let synth = Synthesizer::new();
        for jobs in [1, 3] {
            let report = minimize_vsteps(&synth, &f, 0, 1, 4, &opts, jobs).unwrap();
            let best = report.best.expect("AND2 is V-realizable");
            assert_eq!(
                best.metrics().n_vsteps,
                1,
                "AND2 = V(0, x1, ~x2) in one step"
            );
            assert!(report.proven_optimal);
        }
    }

    #[test]
    fn mixed_mode_xor_is_jobs_invariant() {
        let f = generators::xor_gate(2);
        let opts = EncodeOptions::recommended();
        let synth = Synthesizer::new();
        let mut reports = Vec::new();
        for jobs in [1, 2, 8] {
            let report = minimize_mixed_mode(&synth, &f, 3, 3, false, &opts, jobs).unwrap();
            let best = report.best.as_ref().expect("XOR2 is MM-realizable");
            assert!(best.implements(&f));
            // XOR needs at least one R-op (V-ops alone cannot do it).
            assert!(best.metrics().n_rops >= 1);
            reports.push(report);
        }
        for pair in reports.windows(2) {
            reports_agree(&pair[0], &pair[1]);
        }
    }

    #[test]
    fn mixed_mode_solves_each_point_once() {
        // XOR2 at max_steps 2: the optimum sits at the top N_VS, the point
        // phase 1 already solved, so phase 2 must not solve it again.
        let f = generators::xor_gate(2);
        let opts = EncodeOptions::recommended();
        for jobs in [1, 2] {
            let report =
                minimize_mixed_mode(&Synthesizer::new(), &f, 3, 2, false, &opts, jobs).unwrap();
            let mut points: Vec<_> = report
                .calls
                .iter()
                .map(|c| (c.n_rops, c.n_legs, c.n_vsteps))
                .collect();
            points.sort_unstable();
            let solved = points.len();
            points.dedup();
            assert_eq!(points.len(), solved, "a point solved twice: {points:?}");
            let best = report.best.expect("XOR2 is MM-realizable");
            assert!(best.implements(&f));
            let m = best.metrics();
            assert_eq!((m.n_rops, m.n_legs, m.n_vsteps), (1, 2, 2));
            assert!(report.proven_optimal);
            assert_eq!(report.status, OptimizeStatus::Complete);
        }
        // An empty inner ladder (max_steps 1) is proven by phase 1 alone.
        let report = minimize_mixed_mode(&Synthesizer::new(), &f, 3, 1, false, &opts, 1).unwrap();
        assert!(report.best.is_some());
        assert!(report.proven_optimal);
    }

    #[test]
    fn skipped_points_leave_no_call_records() {
        // With one worker the ladder is the sequential scan-up: every point
        // after the first SAT is skipped before launch.
        let f = generators::nor_gate(2);
        let opts = EncodeOptions::recommended();
        let report = minimize_r_only(&Synthesizer::new(), &f, 4, &opts, 1).unwrap();
        assert_eq!(report.calls.len(), 1, "NOR2 is SAT at N_R = 1");
        assert_eq!(report.calls[0].result, SynthResultKind::Realizable);
        assert_eq!(report.best.expect("NOR2 is one R-op").metrics().n_rops, 1);
        assert!(report.proven_optimal, "the ladder floor is optimal");
    }

    /// Golden-JSON schema stability for [`CallRecord`]: `--stats-json`
    /// consumers parse this exact shape. A field rename or re-ordering is a
    /// schema break.
    #[test]
    fn call_record_serde_schema_is_stable() {
        let record = CallRecord {
            n_rops: 2,
            n_legs: 3,
            n_vsteps: 4,
            result: SynthResultKind::Unrealizable,
            n_vars: 120,
            n_clauses: 456,
            time: Duration::new(0, 7_000),
            conflicts: 9,
            propagations: 210,
            proof_steps: 5,
            deadline_expired: false,
            check_time: Duration::new(0, 1_000),
            certified: true,
            proof: Some(mm_sat::DratProof::from_steps(vec![
                mm_sat::drat::ProofStep::Add(vec![]),
            ])),
        };
        let json = serde_json::to_string(&record).expect("record serialize");
        let golden = concat!(
            "{\"n_rops\":2,\"n_legs\":3,\"n_vsteps\":4,\"result\":\"Unrealizable\",",
            "\"n_vars\":120,\"n_clauses\":456,\"time\":{\"secs\":0,\"nanos\":7000},",
            "\"conflicts\":9,\"propagations\":210,\"proof_steps\":5,\"deadline_expired\":false,",
            "\"check_time\":{\"secs\":0,\"nanos\":1000},\"certified\":true,",
            "\"proof\":\"0\\n\"}"
        );
        assert_eq!(json, golden);

        let back: CallRecord = serde_json::from_str(&json).expect("record parse");
        assert_eq!(serde_json::to_string(&back).expect("reserialize"), json);
        assert!(back.proof.expect("proof survives").is_concluded());
    }

    #[test]
    fn certified_ladder_agrees_and_backs_every_unsat_with_a_proof() {
        let f = generators::xor_gate(2);
        let opts = EncodeOptions::recommended();
        let plain = Synthesizer::new();
        let certifying = Synthesizer::new().with_certification(true);
        let baseline = minimize_r_only(&plain, &f, 5, &opts, 2).unwrap();
        for jobs in [1, 4] {
            let report = minimize_r_only(&certifying, &f, 5, &opts, jobs).unwrap();
            reports_agree(&baseline, &report);
            let unsat_calls: Vec<_> = report
                .calls
                .iter()
                .filter(|c| c.result == SynthResultKind::Unrealizable)
                .collect();
            assert!(
                !unsat_calls.is_empty(),
                "XOR2 R-only has UNSAT rungs at N_R = 1, 2"
            );
            for call in unsat_calls {
                assert!(call.certified, "uncertified UNSAT at N_R = {}", call.n_rops);
                let proof = call.proof.as_ref().expect("certified call keeps its proof");
                assert!(proof.is_concluded());
                assert!(call.proof_steps > 0);
                // The proof refutes the rung's own encoding, re-checked from
                // its DIMACS export.
                let spec = SynthSpec::r_only(&f, call.n_rops)
                    .unwrap()
                    .with_options(opts.clone());
                let text = Synthesizer::new().export_dimacs(&spec).unwrap();
                let cnf = mm_sat::dimacs::parse(&text).unwrap();
                mm_sat::drat::check(&cnf, proof).expect("proof refutes the rung formula");
            }
            // Non-UNSAT calls never carry a certificate.
            for call in report
                .calls
                .iter()
                .filter(|c| c.result != SynthResultKind::Unrealizable)
            {
                assert!(!call.certified);
                assert!(call.proof.is_none());
            }
        }
    }

    #[test]
    fn budget_exhaustion_never_claims_optimality() {
        // The budget is checked at solver restarts, so tiny calls may still
        // complete under a 1-conflict budget; the invariants are that a
        // missing circuit is never "optimal" and that any Unknown below the
        // found budget forfeits the optimality claim. (With more workers a
        // rung below the optimum may also be Unknown because a larger UNSAT
        // cancelled it mid-run, which the lattice closure already covers.)
        let f = generators::gf22_multiplier();
        let synth = Synthesizer::new().with_budget(Budget::new().with_max_conflicts(1));
        for jobs in [1, 4] {
            let report =
                minimize_r_only(&synth, &f, 5, &EncodeOptions::recommended(), jobs).unwrap();
            if report.best.is_none() {
                assert!(!report.proven_optimal, "no circuit, no optimality claim");
            }
            let found = report
                .best
                .as_ref()
                .map_or(usize::MAX, |c| c.metrics().n_rops);
            let unknown_below = report
                .calls
                .iter()
                .any(|c| c.result == SynthResultKind::Unknown && c.n_rops < found);
            if jobs == 1 && unknown_below {
                assert!(
                    !report.proven_optimal,
                    "Unknown below the optimum forfeits the proof"
                );
            }
            assert!(report.total_time() > Duration::ZERO);
        }
    }
}

//! Minimization loops: the procedure behind the paper's Table IV.
//!
//! The synthesis call itself is a decision procedure for fixed budgets; the
//! paper obtains *optimal* circuits by "iteratively calling the procedure
//! with decreasing `N_V` and `N_R`" (§III). This module automates those
//! loops and records every call, so a Table IV row can report the found
//! circuit, whether its minimality was *proved* (UNSAT at the next smaller
//! budget) or only *bounded* (the paper's "≤" rows, where the solver timed
//! out).

pub mod parallel;

use std::sync::Arc;
use std::time::Duration;

use mm_boolfn::MultiOutputFn;
use mm_circuit::MmCircuit;
use mm_sat::{Budget, ClauseBus, Diversity, DratProof, Solver};

use crate::encoder::{self, SharedBase};
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
    /// Every synthesis call, in execution order.
    pub calls: Vec<CallRecord>,
}

impl OptimizeReport {
    /// Total time across all recorded calls.
    pub fn total_time(&self) -> Duration {
        self.calls.iter().map(|c| c.time).sum()
    }
}

/// The degradation reason implied by a set of undecided calls: a deadline
/// expiry anywhere wins over plain budget exhaustion.
fn degrade_reason_from<'a>(
    mut unknowns: impl Iterator<Item = &'a CallRecord>,
) -> Option<DegradeReason> {
    let mut any = false;
    if unknowns.any(|c| {
        any = true;
        c.deadline_expired
    }) {
        return Some(DegradeReason::DeadlineExpired);
    }
    any.then_some(DegradeReason::BudgetExhausted)
}

/// Falls back to the heuristic mapper as a best-known upper bound when a
/// degraded run found no circuit at all. The seed is functionally verified
/// by the mapper; failure to map (never expected) just leaves `best` empty.
fn seed_upper_bound(f: &MultiOutputFn) -> Option<MmCircuit> {
    crate::heuristic::map(f).ok()
}

/// The solving engine for one ladder: either the classic cold path (a fresh
/// encode + solver per rung) or a warm path holding one long-lived solver
/// over a [`SharedBase`], activating rungs via assumptions.
///
/// Warm engines keep their learned clauses across rungs; attaching a
/// [`ClauseBus`] additionally shares strong learned clauses between the
/// engines of a parallel portfolio. The engine choice never changes
/// verdicts — see the equisatisfiability argument on [`SharedBase`] and
/// `tests/incremental_differential.rs`.
pub(crate) enum RungEngine<'a> {
    /// Cold per-rung solving via [`Synthesizer::run`].
    Cold(&'a Synthesizer),
    /// One long-lived solver descending the ladder on a shared base.
    /// Boxed: a `Solver` is hundreds of bytes of watch/heap state, far
    /// larger than the `Cold` variant.
    Warm {
        synth: &'a Synthesizer,
        base: Arc<SharedBase>,
        solver: Box<Solver>,
    },
}

impl<'a> RungEngine<'a> {
    /// The engine a serial ladder topped by `top` should use: warm when the
    /// synthesizer [asks for it](Synthesizer::with_incremental) and the spec
    /// is expressible in a shared base, cold otherwise.
    fn for_ladder(synth: &'a Synthesizer, top: &SynthSpec) -> Result<Self, SynthError> {
        if synth.incremental_for(top) {
            let _encode_span = synth.telemetry().span("encode");
            let base = Arc::new(encoder::encode_shared_base(top)?);
            Ok(Self::warm(synth, base, None, Diversity::canonical()))
        } else {
            Ok(Self::Cold(synth))
        }
    }

    /// A warm engine over an already-encoded base, optionally wired to a
    /// portfolio clause bus, with a per-worker [`Diversity`] profile
    /// (serial ladders use [`Diversity::canonical`], which changes
    /// nothing).
    fn warm(
        synth: &'a Synthesizer,
        base: Arc<SharedBase>,
        bus: Option<&ClauseBus>,
        diversity: Diversity,
    ) -> Self {
        let mut solver = Solver::new(base.cnf.clone())
            .with_telemetry(synth.telemetry().clone())
            .with_diversity(diversity);
        if let Some(bus) = bus {
            solver = solver.with_clause_bus(bus.clone());
        }
        Self::Warm {
            synth,
            base,
            solver: Box::new(solver),
        }
    }

    /// Solves one rung under the synthesizer's configured budget.
    fn run(&mut self, spec: &SynthSpec) -> Result<SynthOutcome, SynthError> {
        let budget = match self {
            Self::Cold(synth) => synth.budget(),
            Self::Warm { synth, .. } => synth.budget(),
        };
        self.run_with_budget(spec, budget)
    }

    /// Solves one rung under an explicit per-call budget (the parallel
    /// portfolio threads its cancellation token through here).
    fn run_with_budget(
        &mut self,
        spec: &SynthSpec,
        budget: Budget,
    ) -> Result<SynthOutcome, SynthError> {
        match self {
            Self::Cold(synth) => synth.clone().with_budget(budget).run(spec),
            Self::Warm {
                synth,
                base,
                solver,
            } => synth.run_on_base(solver, base, spec, budget),
        }
    }
}

fn record(outcome: &crate::SynthOutcome, spec: &SynthSpec) -> CallRecord {
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
        proof_steps: outcome.solver_stats.proof_steps,
        deadline_expired: outcome.solver_stats.deadline_expired,
        check_time: outcome.solver_stats.proof_check_time,
        certified: outcome.certificate.is_some(),
        proof: outcome.certificate.as_ref().map(|c| c.proof.clone()),
    }
}

/// Finds the minimal `N_VS` for fixed `N_R` and `N_L`, starting from
/// `max_vsteps` and decreasing while satisfiable.
///
/// Mirrors the paper's inner loop: "`N_VS` is the smallest value for that
/// `N_R`". `proven_optimal` is true iff the first failing budget was a
/// genuine UNSAT (not a timeout).
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
) -> Result<OptimizeReport, SynthError> {
    let top = SynthSpec::mixed_mode(f, n_rops, n_legs, max_vsteps)?.with_options(options.clone());
    let mut engine = RungEngine::for_ladder(synth, &top)?;
    minimize_vsteps_on(&mut engine, f, n_rops, n_legs, max_vsteps, options)
}

/// [`minimize_vsteps`] on a caller-supplied engine, so an enclosing ladder
/// (e.g. [`minimize_mixed_mode`]'s outer loop) can keep one warm solver —
/// and its learned clauses — across both phases.
fn minimize_vsteps_on(
    engine: &mut RungEngine<'_>,
    f: &MultiOutputFn,
    n_rops: usize,
    n_legs: usize,
    max_vsteps: usize,
    options: &EncodeOptions,
) -> Result<OptimizeReport, SynthError> {
    let mut calls = Vec::new();
    let mut best: Option<MmCircuit> = None;
    let mut proven = false;
    let mut degraded = false;
    let mut vsteps = max_vsteps;
    while vsteps >= 1 {
        let spec = SynthSpec::mixed_mode(f, n_rops, n_legs, vsteps)?.with_options(options.clone());
        let outcome = engine.run(&spec)?;
        calls.push(record(&outcome, &spec));
        match outcome.result {
            SynthResult::Realizable(c) => {
                best = Some(c);
                vsteps -= 1;
            }
            SynthResult::Unrealizable => {
                proven = best.is_some();
                break;
            }
            SynthResult::Unknown => {
                degraded = true;
                break;
            }
        }
    }
    // Ran all the way down to 1 step satisfiable: optimal by construction.
    if best.as_ref().is_some_and(|c| c.metrics().n_vsteps == 1) {
        proven = true;
    }
    let status = if degraded {
        OptimizeStatus::Degraded {
            reason: degrade_reason_from(
                calls
                    .iter()
                    .filter(|c| c.result == SynthResultKind::Unknown),
            )
            .unwrap_or(DegradeReason::BudgetExhausted),
        }
    } else {
        OptimizeStatus::Complete
    };
    Ok(OptimizeReport {
        best,
        proven_optimal: proven && !status.is_degraded(),
        status,
        calls,
    })
}

/// Finds the minimal `N_R` (with the paper's leg convention
/// `N_L = N_R + N_O [− 1 for adders]`), minimizing `N_VS` for the smallest
/// feasible `N_R`.
///
/// Mirrors the paper's outer loop for the MM rows of Table IV: `N_R` is the
/// smallest number for which `Φ(f, N_V, N_R)` is satisfiable within
/// `max_vsteps`, and `N_VS` the smallest for that `N_R`.
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
) -> Result<OptimizeReport, SynthError> {
    let mut calls = Vec::new();
    // The outer ladder's top rung: maximal R-ops and (by the monotone leg
    // convention) maximal legs, so every outer probe is a sub-budget of it.
    let top_legs = SynthSpec::paper_legs(f, max_rops, is_adder);
    let top =
        SynthSpec::mixed_mode(f, max_rops, top_legs, max_vsteps)?.with_options(options.clone());
    let mut engine = RungEngine::for_ladder(synth, &top)?;
    for n_rops in 0..=max_rops {
        let n_legs = SynthSpec::paper_legs(f, n_rops, is_adder);
        let spec =
            SynthSpec::mixed_mode(f, n_rops, n_legs, max_vsteps)?.with_options(options.clone());
        let outcome = engine.run(&spec)?;
        calls.push(record(&outcome, &spec));
        if let SynthResult::Realizable(c) = outcome.result {
            // Feasible at this N_R: shrink the V-step budget on the same
            // engine, so a warm solver carries its outer-ladder clauses
            // into the inner descent.
            let mut inner =
                minimize_vsteps_on(&mut engine, f, n_rops, n_legs, max_vsteps, options)?;
            calls.append(&mut inner.calls);
            // Outer-loop Unknowns below the found N_R also degrade the run.
            let status = match (
                inner.status,
                degrade_reason_from(
                    calls
                        .iter()
                        .filter(|r| r.n_vsteps == max_vsteps && r.n_rops < n_rops)
                        .filter(|r| r.result == SynthResultKind::Unknown),
                ),
            ) {
                (s @ OptimizeStatus::Degraded { .. }, _) => s,
                (OptimizeStatus::Complete, Some(reason)) => OptimizeStatus::Degraded { reason },
                (OptimizeStatus::Complete, None) => OptimizeStatus::Complete,
            };
            return Ok(OptimizeReport {
                // The inner loop re-solves the SAT point, but under a
                // deadline it may come back empty — the outer witness is
                // then still a valid upper bound.
                best: inner.best.or(Some(c)),
                // N_R minimality is proven iff every smaller N_R was a real
                // UNSAT; N_VS minimality comes from the inner loop.
                proven_optimal: inner.proven_optimal
                    && !status.is_degraded()
                    && calls
                        .iter()
                        .filter(|c| c.n_rops < n_rops && c.n_vsteps == max_vsteps)
                        .all(|c| c.result == SynthResultKind::Unrealizable),
                status,
                calls,
            });
        }
    }
    // No feasible N_R found. If every point was conclusively UNSAT the
    // absence is a theorem; otherwise degrade with the heuristic mapper's
    // circuit as the best-known upper bound.
    let status = match degrade_reason_from(
        calls
            .iter()
            .filter(|c| c.result == SynthResultKind::Unknown),
    ) {
        Some(reason) => OptimizeStatus::Degraded { reason },
        None => OptimizeStatus::Complete,
    };
    Ok(OptimizeReport {
        best: status.is_degraded().then(|| seed_upper_bound(f)).flatten(),
        proven_optimal: false,
        status,
        calls,
    })
}

/// Finds the minimal `N_R` for an R-only realization `Φ(f, 0, N_R)`,
/// searching upward from 1 (the conventional-paradigm baseline of
/// Table IV).
///
/// # Errors
///
/// Propagates [`SynthError`] from spec construction or synthesis.
pub fn minimize_r_only(
    synth: &Synthesizer,
    f: &MultiOutputFn,
    max_rops: usize,
    options: &EncodeOptions,
) -> Result<OptimizeReport, SynthError> {
    let mut calls = Vec::new();
    let mut unknown_below = false;
    let mut engine = if max_rops >= 1 {
        let top = SynthSpec::r_only(f, max_rops)?.with_options(options.clone());
        RungEngine::for_ladder(synth, &top)?
    } else {
        RungEngine::Cold(synth)
    };
    for n_rops in 1..=max_rops {
        let spec = SynthSpec::r_only(f, n_rops)?.with_options(options.clone());
        let outcome = engine.run(&spec)?;
        calls.push(record(&outcome, &spec));
        match outcome.result {
            SynthResult::Realizable(c) => {
                let status = match degrade_reason_from(
                    calls
                        .iter()
                        .filter(|c| c.result == SynthResultKind::Unknown),
                ) {
                    Some(reason) => OptimizeStatus::Degraded { reason },
                    None => OptimizeStatus::Complete,
                };
                return Ok(OptimizeReport {
                    best: Some(c),
                    proven_optimal: !unknown_below && !status.is_degraded(),
                    status,
                    calls,
                });
            }
            SynthResult::Unrealizable => {}
            SynthResult::Unknown => unknown_below = true,
        }
    }
    // Degraded R-only runs have no heuristic fallback: the mapper emits
    // mixed-mode circuits, which are not valid R-only upper bounds.
    let status = match degrade_reason_from(
        calls
            .iter()
            .filter(|c| c.result == SynthResultKind::Unknown),
    ) {
        Some(reason) => OptimizeStatus::Degraded { reason },
        None => OptimizeStatus::Complete,
    };
    Ok(OptimizeReport {
        best: None,
        proven_optimal: false,
        status,
        calls,
    })
}

#[cfg(test)]
mod tests {
    use mm_boolfn::generators;

    use super::*;

    #[test]
    fn minimize_vsteps_finds_and2_optimum() {
        let f = generators::and_gate(2);
        let report = minimize_vsteps(
            &Synthesizer::new(),
            &f,
            0,
            1,
            4,
            &EncodeOptions::recommended(),
        )
        .unwrap();
        let best = report.best.expect("AND2 is V-realizable");
        assert_eq!(
            best.metrics().n_vsteps,
            1,
            "AND2 = V(0, x1, ~x2) in one step"
        );
        assert!(
            report.proven_optimal,
            "reaching 1 step is optimal by construction"
        );
        assert_eq!(report.calls.len(), 4);
    }

    #[test]
    fn minimize_r_only_nor_takes_one_gate() {
        let f = generators::nor_gate(2);
        let report =
            minimize_r_only(&Synthesizer::new(), &f, 4, &EncodeOptions::recommended()).unwrap();
        assert_eq!(report.best.expect("NOR2 is one R-op").metrics().n_rops, 1);
        assert!(report.proven_optimal);
    }

    #[test]
    fn minimize_r_only_xor_takes_three_gates() {
        let f = generators::xor_gate(2);
        let report =
            minimize_r_only(&Synthesizer::new(), &f, 5, &EncodeOptions::recommended()).unwrap();
        assert_eq!(report.best.expect("XOR2 from NORs").metrics().n_rops, 3);
        assert!(report.proven_optimal);
        assert_eq!(report.calls.len(), 3); // 1, 2 UNSAT; 3 SAT
    }

    #[test]
    fn budget_exhaustion_never_claims_optimality() {
        use mm_sat::Budget;
        // The budget is checked at solver restarts, so tiny calls may still
        // complete under a 1-conflict budget; the invariants are that a
        // missing circuit is never "optimal" and that any Unknown below the
        // found budget forfeits the optimality claim.
        let f = generators::gf22_multiplier();
        let synth = Synthesizer::new().with_budget(Budget::new().with_max_conflicts(1));
        let report = minimize_r_only(&synth, &f, 5, &EncodeOptions::recommended()).unwrap();
        if report.best.is_none() {
            assert!(!report.proven_optimal, "no circuit, no optimality claim");
        }
        let unknown_below_sat = report
            .calls
            .iter()
            .take_while(|c| c.result != SynthResultKind::Realizable)
            .any(|c| c.result == SynthResultKind::Unknown);
        if unknown_below_sat {
            assert!(
                !report.proven_optimal,
                "Unknown below the optimum forfeits the proof"
            );
        }
        assert!(report.total_time() > std::time::Duration::ZERO);
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
            "\"proof_steps\":5,\"deadline_expired\":false,",
            "\"check_time\":{\"secs\":0,\"nanos\":1000},\"certified\":true,",
            "\"proof\":\"0\\n\"}"
        );
        assert_eq!(json, golden);

        let back: CallRecord = serde_json::from_str(&json).expect("record parse");
        assert_eq!(serde_json::to_string(&back).expect("reserialize"), json);
        assert!(back.proof.expect("proof survives").is_concluded());
    }

    #[test]
    fn incremental_vsteps_ladder_agrees_with_cold() {
        let f = generators::and_gate(2);
        let opts = EncodeOptions::recommended();
        let cold = minimize_vsteps(&Synthesizer::new(), &f, 0, 1, 4, &opts).unwrap();
        let warm = minimize_vsteps(
            &Synthesizer::new().with_incremental(true),
            &f,
            0,
            1,
            4,
            &opts,
        )
        .unwrap();
        assert_eq!(cold.proven_optimal, warm.proven_optimal);
        assert_eq!(
            cold.best.as_ref().map(|c| c.metrics().n_vsteps),
            warm.best.as_ref().map(|c| c.metrics().n_vsteps),
        );
        assert!(warm.best.expect("AND2 is V-realizable").implements(&f));
        // The warm ladder re-encodes nothing: every rung reports the same
        // shared-base CNF size, strictly larger than any cold rung's.
        let base_vars = warm.calls[0].n_vars;
        assert!(warm.calls.iter().all(|c| c.n_vars == base_vars));
        assert!(cold.calls.iter().all(|c| c.n_vars < base_vars));
    }

    #[test]
    fn incremental_r_only_ladder_agrees_with_cold() {
        let f = generators::xor_gate(2);
        let opts = EncodeOptions::recommended();
        let cold = minimize_r_only(&Synthesizer::new(), &f, 5, &opts).unwrap();
        let warm =
            minimize_r_only(&Synthesizer::new().with_incremental(true), &f, 5, &opts).unwrap();
        assert_eq!(cold.proven_optimal, warm.proven_optimal);
        assert!(warm.proven_optimal);
        assert_eq!(
            warm.best.expect("XOR2 from NORs").metrics().n_rops,
            3,
            "incremental engine must find the same optimum (Table IV)"
        );
    }

    #[test]
    fn incremental_mixed_mode_agrees_with_cold() {
        let f = generators::xor_gate(2);
        let opts = EncodeOptions::recommended();
        let cold = minimize_mixed_mode(&Synthesizer::new(), &f, 3, 3, false, &opts).unwrap();
        let warm = minimize_mixed_mode(
            &Synthesizer::new().with_incremental(true),
            &f,
            3,
            3,
            false,
            &opts,
        )
        .unwrap();
        assert_eq!(cold.proven_optimal, warm.proven_optimal);
        let (c, w) = (
            cold.best.expect("XOR2 is MM-realizable"),
            warm.best.expect("XOR2 is MM-realizable"),
        );
        assert!(w.implements(&f));
        assert_eq!(c.metrics().n_rops, w.metrics().n_rops);
        assert_eq!(c.metrics().n_vsteps, w.metrics().n_vsteps);
    }

    #[test]
    fn certification_forces_the_cold_engine() {
        // --certify --incremental must fall back to per-rung cold solves
        // with a checkable DRAT proof on every UNSAT rung.
        let f = generators::xor_gate(2);
        let opts = EncodeOptions::recommended();
        let synth = Synthesizer::new()
            .with_incremental(true)
            .with_certification(true);
        assert!(!synth.incremental_for(&SynthSpec::r_only(&f, 3).unwrap()));
        let report = minimize_r_only(&synth, &f, 4, &opts).unwrap();
        assert_eq!(report.best.expect("XOR2 from NORs").metrics().n_rops, 3);
        assert!(report.proven_optimal);
        let unsat: Vec<_> = report
            .calls
            .iter()
            .filter(|c| c.result == SynthResultKind::Unrealizable)
            .collect();
        assert_eq!(unsat.len(), 2, "N_R = 1, 2 are UNSAT");
        for call in unsat {
            assert!(call.certified, "uncertified UNSAT at N_R = {}", call.n_rops);
            let proof = call.proof.as_ref().expect("certified call keeps its proof");
            assert!(proof.is_concluded());
        }
    }

    #[test]
    fn incompatible_constraints_force_the_cold_engine() {
        use mm_boolfn::Literal;
        let f = generators::and_gate(2);
        let synth = Synthesizer::new().with_incremental(true);
        let avoidance = SynthSpec::mixed_mode(&f, 1, 2, 2)
            .unwrap()
            .with_cell_avoidance(8, vec![0]);
        assert!(!synth.incremental_for(&avoidance));
        let forced = SynthSpec::mixed_mode(&f, 0, 1, 2)
            .unwrap()
            .with_options(EncodeOptions {
                forced_te: vec![(0, 0, Literal::Pos(2))],
                ..EncodeOptions::default()
            });
        assert!(!synth.incremental_for(&forced));
        let plain = SynthSpec::mixed_mode(&f, 0, 1, 2).unwrap();
        assert!(synth.incremental_for(&plain));
    }

    #[test]
    fn minimize_mixed_mode_xor() {
        let f = generators::xor_gate(2);
        let report = minimize_mixed_mode(
            &Synthesizer::new(),
            &f,
            3,
            3,
            false,
            &EncodeOptions::recommended(),
        )
        .unwrap();
        let best = report.best.expect("XOR2 is MM-realizable");
        assert!(best.implements(&f));
        // XOR needs at least one R-op (V-ops alone cannot do it).
        assert!(best.metrics().n_rops >= 1);
    }
}

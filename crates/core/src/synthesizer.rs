use std::time::Duration;

use mm_circuit::{MmCircuit, Schedule};
use mm_sat::drat::{self, CheckStats};
use mm_sat::{Budget, DratProof, SatResult, Solver, SolverStats};
use mm_telemetry::{kv, AttrValue, Telemetry};

use crate::{decoder, encoder, EncodeStats, SynthError, SynthSpec};

/// The answer of one synthesis call.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthResult {
    /// A valid circuit realizing the function was found (and verified).
    Realizable(MmCircuit),
    /// `Φ(f, N_V, N_R)` is unsatisfiable: *no* circuit with these budgets
    /// exists. This is the optimality certificate of the paper.
    Unrealizable,
    /// The solver exhausted its budget — corresponds to the paper's "≤"
    /// rows where the optimality proof timed out.
    Unknown,
}

/// A checker-accepted DRAT refutation backing one
/// [`SynthResult::Unrealizable`] answer.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsatCertificate {
    /// The solver's derivation, ending in the empty clause.
    pub proof: DratProof,
    /// Work counters of the successful check.
    pub check: CheckStats,
}

/// Outcome of [`Synthesizer::run`]: the result plus encode/solve
/// statistics (the paper's `Vars`, `Clauses` and `T[s]` columns).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthOutcome {
    /// The synthesis answer.
    pub result: SynthResult,
    /// Size and timing of the CNF encoding.
    pub encode_stats: EncodeStats,
    /// Search statistics of the SAT solver.
    pub solver_stats: SolverStats,
    /// The verified refutation, when the synthesizer ran with
    /// [certification](Synthesizer::with_certification) and the answer was
    /// [`SynthResult::Unrealizable`]; `None` otherwise.
    pub certificate: Option<UnsatCertificate>,
    /// The circuit's schedule placed onto the constrained physical array,
    /// when the spec carried a [cell-avoidance
    /// constraint](crate::SynthSpec::with_cell_avoidance) and the answer was
    /// [`SynthResult::Realizable`] with a MAGIC-NOR schedule; `None`
    /// otherwise. The placement provably touches no avoided cell.
    pub placement: Option<Schedule>,
}

impl SynthOutcome {
    /// The synthesized circuit, if one was found.
    pub fn circuit(&self) -> Option<&MmCircuit> {
        match &self.result {
            SynthResult::Realizable(c) => Some(c),
            _ => None,
        }
    }

    /// Whether the call proved unrealizability.
    pub fn is_unrealizable(&self) -> bool {
        matches!(self.result, SynthResult::Unrealizable)
    }

    /// Total wall-clock time (encoding + solving).
    pub fn total_time(&self) -> Duration {
        self.encode_stats.encode_time + self.solver_stats.solve_time
    }
}

/// Encode → solve → decode → verify driver for one `Φ(f, N_V, N_R)`
/// instance.
///
/// Every decoded circuit is *functionally verified* against the
/// specification (all `2^n` rows of every output) before being returned;
/// an encoder bug can therefore never produce a silently wrong circuit.
///
/// # Example
///
/// ```
/// use mm_boolfn::generators;
/// use mm_synth::{SynthSpec, Synthesizer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // AND2 needs no R-ops: one V-leg with two steps suffices (Eq. 1).
/// let f = generators::and_gate(2);
/// let outcome = Synthesizer::new().run(&SynthSpec::mixed_mode(&f, 0, 1, 2)?)?;
/// assert!(outcome.circuit().is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Synthesizer {
    budget: Budget,
    certify: bool,
    telemetry: Telemetry,
}

impl Synthesizer {
    /// A synthesizer with an unlimited solver budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the per-call solver budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Turns certification on or off (default: off).
    ///
    /// With certification on, every UNSAT answer is solved with DRAT
    /// logging and the proof is run through the in-tree checker
    /// ([`mm_sat::drat::check`]) before `Unrealizable` is returned — a
    /// rejected proof surfaces as [`SynthError::CertificationFailed`]
    /// instead of a silently untrustworthy optimality claim. SAT answers
    /// are additionally re-verified by exhaustive simulation of the
    /// compiled schedule on the device line-array model, closing the
    /// encoder → decoder → device loop.
    pub fn with_certification(mut self, certify: bool) -> Self {
        self.certify = certify;
        self
    }

    /// A no-op kept so external callers that still select the removed
    /// incremental ladder engine keep building: every ladder rung is a cold
    /// [`run`](Self::run) on its own encoding.
    #[deprecated(note = "ladders always solve each rung cold; this is a no-op")]
    pub fn with_incremental(self, _: bool) -> Self {
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> Budget {
        self.budget.clone()
    }

    /// Installs a telemetry handle; every [`run`](Self::run) then emits a
    /// `synth` span with `encode` / `solve` / `decode` (and, under
    /// certification, `certify` / `device-verify`) child spans, an
    /// `encoder.cnf` size event, and the solver's sampled counters. The
    /// handle is cloned into the SAT solver for each call.
    ///
    /// Disabled handles (the default) keep all instrumentation to one branch
    /// per site — see the `telemetry_overhead` bench.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The installed telemetry handle (disabled unless
    /// [`with_telemetry`](Self::with_telemetry) was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Builds `Φ(f, N_V, N_R)` and returns it as DIMACS CNF text, for
    /// archiving or cross-checking with an external solver.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError`] for invalid specs or constraints.
    pub fn export_dimacs(&self, spec: &SynthSpec) -> Result<String, SynthError> {
        let encoded = encoder::encode(spec)?;
        Ok(mm_sat::dimacs::to_string(&encoded.cnf))
    }

    /// Builds and solves `Φ(f, N_V, N_R)` for one spec.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError`] for invalid specs/constraints, or for
    /// decode/verification failures (which indicate an internal bug, not a
    /// property of the function).
    pub fn run(&self, spec: &SynthSpec) -> Result<SynthOutcome, SynthError> {
        let _synth_span = self.telemetry.span_with("synth", span_attrs(spec));
        let encoded = self.encode_traced(spec)?;
        // The checker refutes the rung's own formula, which the solver
        // consumes: keep a copy when certifying.
        let cnf = self.certify.then(|| encoded.cnf.clone());
        let (result, mut solver_stats, proof) = {
            let _solve_span = self.telemetry.span("solve");
            let solver = Solver::new(encoded.cnf).with_telemetry(self.telemetry.clone());
            if self.certify {
                solver.solve_certified(self.budget.clone())
            } else {
                let (result, stats) = solver.solve_with_budget(self.budget.clone());
                (result, stats, None)
            }
        };
        // A model is decoded and verified against the spec (and, when
        // certifying, replayed on the device model) before the circuit is
        // placed; a refutation must pass the DRAT checker against the rung's
        // formula when certifying; Unknown passes through.
        let mut certificate = None;
        let mut placement = None;
        let result = match result {
            SatResult::Sat(model) => {
                let circuit = {
                    let _decode_span = self.telemetry.span("decode");
                    let circuit = decoder::decode(spec, &encoded.map, &model)?;
                    verify(&circuit, spec)?;
                    circuit
                };
                if self.certify {
                    let _device_span = self.telemetry.span("device-verify");
                    verify_on_device(&circuit, spec)?;
                }
                placement = place(&circuit, spec)?;
                SynthResult::Realizable(circuit)
            }
            SatResult::Unsat => {
                if let Some(cnf) = cnf {
                    let proof = proof.expect("certified solves return the log");
                    let _certify_span = self.telemetry.span("certify");
                    let check =
                        drat::check(&cnf, &proof).map_err(|e| SynthError::CertificationFailed {
                            reason: e.to_string(),
                        })?;
                    solver_stats.proof_checked = true;
                    solver_stats.proof_check_time = check.check_time;
                    certificate = Some(UnsatCertificate { proof, check });
                }
                SynthResult::Unrealizable
            }
            SatResult::Unknown => SynthResult::Unknown,
        };
        Ok(SynthOutcome {
            result,
            encode_stats: encoded.stats,
            solver_stats,
            certificate,
            placement,
        })
    }

    /// Encodes under an `encode` span and emits the CNF-size event.
    fn encode_traced(&self, spec: &SynthSpec) -> Result<encoder::Encoded, SynthError> {
        let encoded = {
            let _encode_span = self.telemetry.span("encode");
            encoder::encode(spec)?
        };
        self.telemetry.point(
            "encoder.cnf",
            vec![
                kv("n_rops", spec.n_rops()),
                kv("n_legs", spec.n_legs()),
                kv("n_vsteps", spec.n_vsteps()),
                kv("vars", encoded.stats.n_vars),
                kv("clauses", encoded.stats.n_clauses),
            ],
        );
        Ok(encoded)
    }
}

/// Budget attributes stamped on every `synth` span.
fn span_attrs(spec: &SynthSpec) -> Vec<(String, AttrValue)> {
    vec![
        kv("n_rops", spec.n_rops()),
        kv("n_legs", spec.n_legs()),
        kv("n_vsteps", spec.n_vsteps()),
    ]
}

/// Places the circuit's schedule onto the spec's constrained array, routing
/// around the avoided cells.
///
/// Returns `Ok(None)` when the spec has no avoidance constraint or the R-op
/// family has no line-array schedule (NIMP). A placement failure is an
/// internal bug: the encoder's feed-cardinality constraint guarantees the
/// schedule fits into the working cells.
fn place(circuit: &MmCircuit, spec: &SynthSpec) -> Result<Option<Schedule>, SynthError> {
    let Some(avoidance) = spec.cell_avoidance() else {
        return Ok(None);
    };
    let schedule = match Schedule::compile(circuit) {
        Ok(s) => s,
        Err(mm_circuit::CircuitError::UnsupportedROpKind { .. }) => return Ok(None),
        Err(e) => return Err(SynthError::from(e)),
    };
    let placed = schedule.place_avoiding(avoidance.array_size, &avoidance.dead_cells())?;
    Ok(Some(placed))
}

/// Compiles the circuit to a line-array schedule and replays all `2^n`
/// input rows on the ideal device model.
///
/// R-op families without a MAGIC-NOR schedule (e.g. NIMP) are skipped — the
/// truth-table check in [`verify`] remains their functional verification.
fn verify_on_device(circuit: &MmCircuit, spec: &SynthSpec) -> Result<(), SynthError> {
    let schedule = match mm_circuit::Schedule::compile(circuit) {
        Ok(s) => s,
        Err(mm_circuit::CircuitError::UnsupportedROpKind { .. }) => return Ok(()),
        Err(e) => return Err(SynthError::from(e)),
    };
    if !schedule.verify(spec.function()) {
        return Err(SynthError::DeviceVerificationFailed);
    }
    Ok(())
}

fn verify(circuit: &MmCircuit, spec: &SynthSpec) -> Result<(), SynthError> {
    let outputs = circuit.eval_outputs();
    for (i, tt) in outputs.iter().enumerate() {
        if tt
            != spec
                .function()
                .output(i)
                .expect("arity checked by construction")
        {
            return Err(SynthError::VerificationFailed { output: i });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use mm_boolfn::{generators, Literal};
    use mm_sat::Budget;

    use super::*;
    use crate::{EncodeMode, EncodeOptions, SharedBe};

    #[test]
    fn and2_with_v_ops_only() {
        let f = generators::and_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 2).unwrap();
        let outcome = Synthesizer::new().run(&spec).unwrap();
        let c = outcome
            .circuit()
            .expect("AND2 is V-op realizable in 2 steps");
        assert!(c.implements(&f));
        assert_eq!(c.metrics().n_steps, 2);
    }

    #[test]
    fn and2_is_realizable_in_one_v_op() {
        // From the cleared state, V(0, te, be) = te·¬be — a single V-op
        // already computes two-literal products like x1·x2 = V(0, x1, ~x2).
        let f = generators::and_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 1).unwrap();
        let outcome = Synthesizer::new().run(&spec).unwrap();
        assert!(outcome
            .circuit()
            .expect("AND2 = V(0, x1, ~x2)")
            .implements(&f));
    }

    #[test]
    fn and3_is_not_realizable_in_one_v_op() {
        // Three-literal products exceed what one V-op can express.
        let f = generators::and_gate(3);
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 1).unwrap();
        let outcome = Synthesizer::new().run(&spec).unwrap();
        assert!(outcome.is_unrealizable());
    }

    #[test]
    fn xor2_is_never_v_op_realizable() {
        // The paper's non-universality witness (§II-C): no amount of V-op
        // steps realizes XOR.
        let f = generators::xor_gate(2);
        for steps in 1..=4 {
            let spec = SynthSpec::mixed_mode(&f, 0, 1, steps).unwrap();
            let outcome = Synthesizer::new().run(&spec).unwrap();
            assert!(outcome.is_unrealizable(), "XOR with {steps} V-op steps");
        }
    }

    #[test]
    fn xor2_with_one_rop_and_legs() {
        // x1 ⊕ x2 = NOR(x1·x2, ~x1·~x2)? NOR gives ~(a+b): with a = x1·x2,
        // b = ~x1·~x2: ~(x1x2 + ~x1~x2) = XOR ✓ — needs 2 legs, 2 steps, 1 R-op.
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 1, 2, 2).unwrap();
        let outcome = Synthesizer::new().run(&spec).unwrap();
        let c = outcome.circuit().expect("XOR2 = NOR of two product legs");
        assert!(c.implements(&f));
    }

    #[test]
    fn nor2_r_only() {
        let f = generators::nor_gate(2);
        let spec = SynthSpec::r_only(&f, 1).unwrap();
        let outcome = Synthesizer::new().run(&spec).unwrap();
        let c = outcome.circuit().expect("NOR2 is one R-op over literals");
        assert!(c.implements(&f));
        assert_eq!(c.metrics().n_rops, 1);
    }

    #[test]
    fn xor2_r_only_needs_more_gates() {
        let f = generators::xor_gate(2);
        // NOR-only realization of XOR needs 4 gates in general (with
        // literals free the solver may find fewer; assert monotonicity).
        assert!(Synthesizer::new()
            .run(&SynthSpec::r_only(&f, 1).unwrap())
            .unwrap()
            .is_unrealizable());
        assert!(Synthesizer::new()
            .run(&SynthSpec::r_only(&f, 2).unwrap())
            .unwrap()
            .is_unrealizable());
        let three = Synthesizer::new()
            .run(&SynthSpec::r_only(&f, 3).unwrap())
            .unwrap();
        let c = three.circuit().expect("XOR2 from 3 NORs over L_2");
        assert!(c.implements(&f));
    }

    #[test]
    fn multi_output_synthesis() {
        // Both AND and OR of two inputs from one leg pair + R-ops.
        let f = mm_boolfn::MultiOutputFn::new(
            "andor",
            vec![
                generators::and_gate(2).output(0).unwrap().clone(),
                generators::or_gate(2).output(0).unwrap().clone(),
            ],
        )
        .unwrap();
        let spec = SynthSpec::mixed_mode(&f, 0, 2, 2).unwrap();
        let outcome = Synthesizer::new().run(&spec).unwrap();
        assert!(outcome
            .circuit()
            .expect("both outputs are AND/OR chains")
            .implements(&f));
    }

    #[test]
    fn faithful_and_folded_agree_on_satisfiability() {
        let f = generators::xor_gate(2);
        for (n_r, n_l, n_vs, expect_sat) in [(1usize, 2usize, 2usize, true), (0, 2, 2, false)] {
            let base = SynthSpec::mixed_mode(&f, n_r, n_l, n_vs).unwrap();
            let folded = Synthesizer::new().run(&base).unwrap();
            let faithful = Synthesizer::new()
                .run(&base.clone().with_options(EncodeOptions {
                    mode: EncodeMode::Faithful,
                    shared_be: SharedBe::EqualityClauses,
                    ..EncodeOptions::recommended()
                }))
                .unwrap();
            assert_eq!(folded.circuit().is_some(), expect_sat);
            assert_eq!(faithful.circuit().is_some(), expect_sat);
        }
    }

    #[test]
    fn shared_be_is_actually_enforced() {
        // A function needing different BE literals per leg in the same step
        // under a 1-step budget: leg1 must produce x1·x2 — impossible in
        // one step anyway; instead check schedules compile (shared BE holds).
        let f = generators::gf22_multiplier();
        let spec = SynthSpec::mixed_mode(&f, 4, 6, 3).unwrap();
        let outcome = Synthesizer::new()
            .with_budget(Budget::new().with_max_conflicts(2_000_000))
            .run(&spec)
            .unwrap();
        if let Some(c) = outcome.circuit() {
            // The schedule compiler re-checks the shared-BE property.
            mm_circuit::Schedule::compile(c).expect("decoded circuits obey shared BE");
        }
    }

    #[test]
    fn forced_te_constraint_is_respected() {
        let f = generators::and_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 2)
            .unwrap()
            .with_options(EncodeOptions {
                forced_te: vec![(0, 0, Literal::Pos(2))],
                ..EncodeOptions::default()
            });
        let outcome = Synthesizer::new().run(&spec).unwrap();
        let c = outcome
            .circuit()
            .expect("AND2 still realizable with forced first TE");
        assert_eq!(c.legs()[0].ops()[0].te, Literal::Pos(2));
    }

    #[test]
    fn no_cascade_constraint() {
        // XOR needs 3 NORs with cascading; forbidding cascades makes the
        // R-only 3-gate budget insufficient (outputs must still combine).
        let f = generators::xor_gate(2);
        let spec = SynthSpec::r_only(&f, 3)
            .unwrap()
            .with_options(EncodeOptions {
                forbid_rop_cascade: true,
                ..EncodeOptions::recommended()
            });
        let outcome = Synthesizer::new().run(&spec).unwrap();
        assert!(
            outcome.is_unrealizable(),
            "XOR from non-cascaded NORs of literals"
        );
    }

    #[test]
    fn nimp_technology_synthesis() {
        // Ta2O5-class devices exhibit NIMP (IMPLY family) instead of NOR
        // (paper §II-A). NIMP + const literals is universal, so XOR must
        // be realizable; NIMP is non-commutative, so input-order symmetry
        // breaking must NOT be applied (covered by is_commutative()).
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 2, 2, 2)
            .unwrap()
            .with_rop_kind(mm_circuit::ROpKind::Nimp);
        let outcome = Synthesizer::new().run(&spec).unwrap();
        let c = outcome.circuit().expect("XOR2 from two NIMPs over legs");
        assert!(c.implements(&f));
        assert!(c.rops().iter().all(|r| r.kind == mm_circuit::ROpKind::Nimp));
    }

    #[test]
    fn nimp_single_gate() {
        // NIMP(x1, x2) = x1·~x2 directly as one R-op over literals.
        let f = mm_boolfn::MultiOutputFn::new(
            "nimp",
            vec![
                mm_boolfn::TruthTable::var(2, 1).unwrap()
                    & !mm_boolfn::TruthTable::var(2, 2).unwrap(),
            ],
        )
        .unwrap();
        let spec = SynthSpec::r_only(&f, 1)
            .unwrap()
            .with_rop_kind(mm_circuit::ROpKind::Nimp);
        let outcome = Synthesizer::new().run(&spec).unwrap();
        assert!(outcome.circuit().expect("one NIMP suffices").implements(&f));
    }

    #[test]
    fn dimacs_export_is_solvable_and_equisatisfiable() {
        let f = generators::xor_gate(2);
        let sat_spec = SynthSpec::mixed_mode(&f, 1, 2, 2).unwrap();
        let unsat_spec = SynthSpec::mixed_mode(&f, 0, 2, 2).unwrap();
        let synth = Synthesizer::new();
        for (spec, expect_sat) in [(&sat_spec, true), (&unsat_spec, false)] {
            let text = synth.export_dimacs(spec).unwrap();
            assert!(text.starts_with("p cnf "));
            let cnf = mm_sat::dimacs::parse(&text).unwrap();
            let result = mm_sat::Solver::new(cnf).solve();
            assert_eq!(result.is_sat(), expect_sat);
        }
    }

    #[test]
    fn certified_unrealizable_carries_checked_proof() {
        let f = generators::and_gate(3);
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 1).unwrap();
        let outcome = Synthesizer::new()
            .with_certification(true)
            .run(&spec)
            .unwrap();
        assert!(outcome.is_unrealizable());
        let cert = outcome
            .certificate
            .as_ref()
            .expect("certified UNSAT carries its certificate");
        assert!(cert.proof.is_concluded());
        assert!(outcome.solver_stats.proof_checked);
        assert_eq!(outcome.solver_stats.proof_check_time, cert.check.check_time);
        // The proof really refutes the exported formula, re-checked from
        // the DIMACS round trip (independent of the in-process CNF object).
        let text = Synthesizer::new().export_dimacs(&spec).unwrap();
        let cnf = mm_sat::dimacs::parse(&text).unwrap();
        mm_sat::drat::check(&cnf, &cert.proof).expect("proof checks against exported CNF");
    }

    #[test]
    fn certified_sat_passes_device_model_and_has_no_certificate() {
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 1, 2, 2).unwrap();
        let outcome = Synthesizer::new()
            .with_certification(true)
            .run(&spec)
            .unwrap();
        let c = outcome.circuit().expect("XOR2 is MM-realizable");
        assert!(c.implements(&f));
        assert!(outcome.certificate.is_none());
        assert!(!outcome.solver_stats.proof_checked);
    }

    #[test]
    fn certified_nimp_sat_skips_schedule_but_still_verifies() {
        // NIMP circuits have no MAGIC-NOR schedule; certification must not
        // reject them (truth-table verification still applies).
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 2, 2, 2)
            .unwrap()
            .with_rop_kind(mm_circuit::ROpKind::Nimp);
        let outcome = Synthesizer::new()
            .with_certification(true)
            .run(&spec)
            .unwrap();
        assert!(outcome.circuit().expect("XOR2 from NIMPs").implements(&f));
    }

    #[test]
    fn uncertified_run_logs_no_proof() {
        let f = generators::and_gate(3);
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 1).unwrap();
        let outcome = Synthesizer::new().run(&spec).unwrap();
        assert!(outcome.is_unrealizable());
        assert!(outcome.certificate.is_none());
        assert_eq!(outcome.solver_stats.proof_steps, 0);
        assert_eq!(outcome.solver_stats.proof_literals, 0);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let f = generators::gf22_multiplier();
        let spec = SynthSpec::mixed_mode(&f, 4, 6, 3).unwrap();
        let outcome = Synthesizer::new()
            .with_budget(Budget::new().with_max_conflicts(1))
            .run(&spec)
            .unwrap();
        assert_eq!(outcome.result, SynthResult::Unknown);
    }

    #[test]
    fn avoidance_placement_routes_around_dead_cells() {
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 1, 2, 2)
            .unwrap()
            .with_cell_avoidance(8, vec![0, 2]);
        let outcome = Synthesizer::new().run(&spec).unwrap();
        let circuit = outcome.circuit().expect("XOR2 fits on 6 working cells");
        assert!(circuit.implements(&f));
        let placement = outcome
            .placement
            .expect("avoidance spec yields a placement");
        let used = placement.used_cells();
        assert!(!used.contains(&0) && !used.contains(&2));
        assert!(placement.verify(&f));
    }

    #[test]
    fn avoidance_without_room_for_the_schedule_is_rejected() {
        // 2 legs + 1 R-op need 3 cells; a 4-cell array with 2 dead has 2.
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 1, 2, 2)
            .unwrap()
            .with_cell_avoidance(4, vec![1, 3]);
        let err = Synthesizer::new().run(&spec).unwrap_err();
        assert!(matches!(err, SynthError::InvalidConstraint { .. }));
    }

    #[test]
    fn tight_feed_budget_still_synthesizes_when_feasible() {
        // 4 working cells leave exactly one literal-feed cell beyond the
        // 2 legs + 1 R-op footprint; the encoder must cap distinct feeds
        // at 1 and the solver must still find a schedule (or prove none).
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 1, 2, 2)
            .unwrap()
            .with_cell_avoidance(4, vec![]);
        let outcome = Synthesizer::new().run(&spec).unwrap();
        match outcome.result {
            SynthResult::Realizable(_) => {
                let placement = outcome.placement.expect("placement accompanies SAT");
                assert!(placement.n_cells() <= 4);
                assert!(placement.verify(&f));
            }
            SynthResult::Unrealizable => {} // a proof is an acceptable answer
            SynthResult::Unknown => panic!("unlimited budget cannot be Unknown"),
        }
    }

    #[test]
    fn specs_without_avoidance_carry_no_placement() {
        let f = generators::and_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 2).unwrap();
        let outcome = Synthesizer::new().run(&spec).unwrap();
        assert!(outcome.circuit().is_some());
        assert!(outcome.placement.is_none());
    }
}

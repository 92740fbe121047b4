//! End-to-end certification harness over the 2-input example set.
//!
//! This is the executable form of the PR's acceptance criterion: every
//! UNSAT produced during certified minimization is backed by a DRAT proof
//! that the in-tree checker accepts — and accepts against a *freshly
//! re-encoded* formula, so the certificate does not depend on the CNF
//! object the solver happened to see. A deliberately corrupted proof is
//! demonstrably rejected on the same instances.
//!
//! When a proof fails to check, its DRAT text is dumped to
//! `$MMSYNTH_PROOF_ARTIFACT_DIR` (if set) before the test panics; the CI
//! certify leg uploads that directory so the failing certificate can be
//! inspected — or fed to an external checker — offline.

use memristive_mm::boolfn::{generators, MultiOutputFn, TruthTable};
use memristive_mm::sat::drat::{check, DratError};
use memristive_mm::sat::DratProof;
use memristive_mm::synth::optimize::{self, CallRecord, SynthResultKind};
use memristive_mm::synth::{EncodeOptions, SynthSpec, Synthesizer};

/// The 2-input example set: every Table-IV-style small spec the README
/// walks through.
fn example_set() -> Vec<(&'static str, MultiOutputFn)> {
    vec![
        ("and2", generators::and_gate(2)),
        ("or2", generators::or_gate(2)),
        ("xor2", generators::xor_gate(2)),
        ("nor2", generators::nor_gate(2)),
        ("xnor2", {
            let tt = TruthTable::from_packed(2, 0b1001).expect("2-input table");
            MultiOutputFn::new("xnor2", vec![tt]).expect("one output")
        }),
    ]
}

fn dump_artifact(name: &str, proof: &DratProof) {
    if let Ok(dir) = std::env::var("MMSYNTH_PROOF_ARTIFACT_DIR") {
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = format!("{dir}/{name}.drat");
            let _ = std::fs::write(&path, proof.to_drat_string());
            eprintln!("failing proof dumped to {path}");
        }
    }
}

/// Re-encodes the call's spec from scratch (via the DIMACS round trip, so
/// not even the in-process `CnfFormula` is shared) and checks the archived
/// proof against it.
fn check_against_reencoded(name: &str, call: &CallRecord, spec: &SynthSpec) {
    let proof = call.proof.as_ref().expect("certified call keeps its proof");
    let text = Synthesizer::new()
        .export_dimacs(spec)
        .expect("spec re-encodes");
    let cnf = memristive_mm::sat::dimacs::parse(&text).expect("exported DIMACS parses");
    if let Err(e) = check(&cnf, proof) {
        let label = format!(
            "{name}_nR{}_nL{}_nVS{}",
            call.n_rops, call.n_legs, call.n_vsteps
        );
        dump_artifact(&label, proof);
        panic!("{label}: archived proof rejected against re-encoded formula: {e}");
    }
}

#[test]
fn every_unsat_in_certified_minimization_is_proof_backed() {
    let opts = EncodeOptions::recommended();
    let synth = Synthesizer::new().with_certification(true);
    let mut certified_total = 0usize;
    for (name, f) in example_set() {
        // R-only ladder (the conventional-paradigm baseline).
        let report = optimize::minimize_r_only(&synth, &f, 4, &opts, 2)
            .unwrap_or_else(|e| panic!("{name} r-only ladder: {e}"));
        for call in &report.calls {
            if call.result == SynthResultKind::Unrealizable {
                assert!(
                    call.certified,
                    "{name}: uncertified UNSAT at N_R={}",
                    call.n_rops
                );
                let spec = SynthSpec::r_only(&f, call.n_rops)
                    .expect("recorded budgets are valid")
                    .with_options(opts.clone());
                check_against_reencoded(name, call, &spec);
                certified_total += 1;
            }
        }

        // Mixed-mode V-step ladder at N_R = 0 (the universality boundary —
        // XOR-likes produce UNSAT at every rung).
        let report = optimize::minimize_vsteps(&synth, &f, 0, 1, 3, &opts, 2)
            .unwrap_or_else(|e| panic!("{name} vsteps ladder: {e}"));
        for call in &report.calls {
            if call.result == SynthResultKind::Unrealizable {
                assert!(
                    call.certified,
                    "{name}: uncertified UNSAT at N_VS={}",
                    call.n_vsteps
                );
                let spec = SynthSpec::mixed_mode(&f, call.n_rops, call.n_legs, call.n_vsteps)
                    .expect("recorded budgets are valid")
                    .with_options(opts.clone());
                check_against_reencoded(name, call, &spec);
                certified_total += 1;
            }
        }
    }
    assert!(
        certified_total >= 3,
        "the example set must exercise real UNSAT rungs (got {certified_total})"
    );
}

#[test]
fn corrupted_certificates_are_rejected_end_to_end() {
    // Produce one genuine certificate, then corrupt it the ways a broken
    // archive could: truncation, a dropped conclusion line in the text,
    // and a flipped literal in the spine.
    let f = generators::xor_gate(2);
    let spec = SynthSpec::mixed_mode(&f, 0, 2, 2).expect("valid spec");
    let outcome = Synthesizer::new()
        .with_certification(true)
        .run(&spec)
        .expect("certified run");
    assert!(outcome.is_unrealizable(), "XOR2 is not V-op realizable");
    let cert = outcome.certificate.expect("certificate present");
    let text = Synthesizer::new().export_dimacs(&spec).expect("re-encode");
    let cnf = memristive_mm::sat::dimacs::parse(&text).expect("parses");
    check(&cnf, &cert.proof).expect("the genuine certificate checks");

    // Truncation at the binary level.
    let truncated = DratProof::from_steps(cert.proof.steps()[..cert.proof.n_steps() - 1].to_vec());
    assert_eq!(check(&cnf, &truncated), Err(DratError::NoEmptyClause));

    // Truncation at the text level: strip the final conclusion line, as a
    // partially written proof file would look after a crash.
    let drat_text = cert.proof.to_drat_string();
    let stripped = drat_text
        .trim_end()
        .strip_suffix("0")
        .expect("DRAT text ends with the bare empty-clause terminator");
    let reparsed = DratProof::parse(stripped).expect("still valid DRAT text");
    assert_eq!(check(&cnf, &reparsed), Err(DratError::NoEmptyClause));

    // Reordering: claiming the conclusion first.
    let mut steps = cert.proof.steps().to_vec();
    let conclusion = steps.pop().expect("non-empty");
    steps.insert(0, conclusion);
    assert!(
        check(&cnf, &DratProof::from_steps(steps)).is_err(),
        "conclusion-first proof must not check"
    );
}

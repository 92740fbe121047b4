//! Cross-crate integration tests: specification → SAT synthesis → circuit
//! IR → schedule → (electrical) line-array execution, checked at every
//! stage.

use memristive_mm::boolfn::{generators, MultiOutputFn};
use memristive_mm::circuit::Schedule;
use memristive_mm::device::{ElectricalParams, LineArray};
use memristive_mm::sat::{Budget, Deadline};
use memristive_mm::synth::{SynthSpec, Synthesizer};
use std::time::Duration;

fn synthesize(
    f: &MultiOutputFn,
    n_r: usize,
    n_l: usize,
    n_vs: usize,
) -> memristive_mm::circuit::MmCircuit {
    let spec = SynthSpec::mixed_mode(f, n_r, n_l, n_vs).expect("valid spec");
    let synth = Synthesizer::new()
        .with_budget(Budget::new().with_deadline(Deadline::after(Duration::from_secs(300))));
    let outcome = synth.run(&spec).expect("encode/solve never errors here");
    outcome
        .circuit()
        .expect("instance known satisfiable")
        .clone()
}

/// Runs a circuit end to end on ideal devices for every input and checks
/// it against the spec (this exercises scheduling and the device model, on
/// top of the synthesizer's own symbolic verification).
fn check_executes(f: &MultiOutputFn, circuit: &memristive_mm::circuit::MmCircuit) {
    let schedule = Schedule::compile(circuit).expect("decoded circuits are schedulable");
    assert!(
        schedule.verify(f),
        "{}: executed outputs differ from spec",
        f.name()
    );
}

#[test]
fn adder_full_pipeline() {
    let f = generators::ripple_adder(1);
    let circuit = synthesize(&f, 2, 3, 3);
    assert!(circuit.implements(&f));
    check_executes(&f, &circuit);
    let m = circuit.metrics();
    assert_eq!(m.n_steps, 5, "paper Table IV: N_St = 5");
    assert_eq!(m.n_devices_structural, 5, "paper Table IV: N_Dev = 5");
}

#[test]
fn xor_and_mux_pipelines() {
    for (f, n_r, n_l, n_vs) in [
        (generators::xor_gate(2), 1, 2, 2),
        (generators::mux21(), 1, 2, 2),
        (generators::xnor_gate(2), 1, 2, 2),
    ] {
        let circuit = synthesize(&f, n_r, n_l, n_vs);
        check_executes(&f, &circuit);
    }
}

#[test]
fn electrical_execution_matches_ideal_without_variation() {
    let f = generators::xor_gate(2);
    let circuit = synthesize(&f, 1, 2, 2);
    let schedule = Schedule::compile(&circuit).expect("schedulable");
    for x in 0..4u32 {
        let ideal = schedule.run_ideal(x);
        let mut array = LineArray::bfo(schedule.n_cells(), ElectricalParams::bfo(), x as u64);
        let electrical = schedule.execute(x, &mut array);
        assert_eq!(ideal, electrical, "x = {x:02b}");
        // Each cycle of the trace carries consistent per-cell vectors.
        for rec in array.trace().cycles() {
            assert_eq!(rec.states.len(), schedule.n_cells());
            assert_eq!(rec.resistances.len(), schedule.n_cells());
            assert_eq!(rec.te_voltages.len(), schedule.n_cells());
        }
    }
}

#[test]
fn multi_output_circuit_shares_legs() {
    // AND and NAND together: one leg's work can serve both via taps.
    let f = MultiOutputFn::new(
        "and_nand",
        vec![
            generators::and_gate(2)
                .output(0)
                .expect("one output")
                .clone(),
            generators::nand_gate(2)
                .output(0)
                .expect("one output")
                .clone(),
        ],
    )
    .expect("two outputs");
    let circuit = synthesize(&f, 1, 2, 2);
    assert!(circuit.implements(&f));
    check_executes(&f, &circuit);
}

#[test]
fn serde_round_trip_of_synthesized_circuit() {
    let f = generators::xor_gate(2);
    let circuit = synthesize(&f, 1, 2, 2);
    let json = serde_json::to_string(&circuit).expect("serializes");
    let back: memristive_mm::circuit::MmCircuit =
        serde_json::from_str(&json).expect("deserializes");
    assert_eq!(circuit, back);
    assert!(back.implements(&f));
}

#[test]
fn prelude_surface_compiles() {
    use memristive_mm::prelude::*;
    let f = generators::and_gate(2);
    let spec = SynthSpec::mixed_mode(&f, 0, 1, 2).expect("valid");
    let outcome = Synthesizer::new().run(&spec).expect("runs");
    let circuit: &MmCircuit = outcome.circuit().expect("realizable");
    let tt: TruthTable = circuit.eval_outputs().remove(0);
    assert_eq!(tt, f.outputs()[0]);
    let _ = (
        DeviceState::Lrs,
        Literal::Pos(1),
        Signal::Leg(0),
        ROpKind::MagicNor,
    );
    let _unused: (LiteralSet, Gf2m) = (LiteralSet::new(2), Gf2m::gf4().expect("field"));
    let _ = LineArray::ideal(1);
    let _ = ElectricalParams::bfo();
    let _ = CnfFormula::new();
    let _ = Budget::new();
    assert!(matches!(SatResult::Unsat, SatResult::Unsat));
    let _ = SynthOutcome::clone(&outcome);
    let _: SynthResult = outcome.result.clone();
}

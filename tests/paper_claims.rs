//! Integration tests pinning the paper's qualitative claims, beyond the
//! per-crate unit tests.

use memristive_mm::boolfn::{generators, Literal, TruthTable};
use memristive_mm::sat::{Budget, Deadline};
use memristive_mm::synth::universality::{census, CensusConfig};
use memristive_mm::synth::{heuristic, SynthSpec, Synthesizer};
use std::time::Duration;

fn synth() -> Synthesizer {
    Synthesizer::new()
        .with_budget(Budget::new().with_deadline(Deadline::after(Duration::from_secs(300))))
}

/// §II-C: "all functions of shape x1x2 + x3x4 with pairwise different
/// variables are not realizable by V-ops alone", but one R-op suffices.
#[test]
fn and_or_shape_needs_an_rop() {
    let f = generators::and_or_22();
    for steps in 1..=4 {
        let spec = SynthSpec::mixed_mode(&f, 0, 1, steps).expect("valid");
        let outcome = synth().run(&spec).expect("runs");
        assert!(
            outcome.is_unrealizable(),
            "x1x2+x3x4 with {steps} V-op steps"
        );
    }
    // One-step legs cannot even produce x1·x2 and x3·x4 *simultaneously*:
    // the shared BE would have to be ~x2 and ~x4 in the same cycle. Two
    // steps (a load cycle with BE = const-0, an AND cycle with BE =
    // const-1) resolve the conflict; two R-ops then OR the products
    // (NOR + inversion).
    let spec = SynthSpec::mixed_mode(&f, 2, 2, 2).expect("valid");
    let outcome = synth().run(&spec).expect("runs");
    assert!(
        outcome.circuit().is_some(),
        "2 R-ops over 2 two-step product legs realize x1x2+x3x4"
    );
}

/// §II-C universality: V-ops alone reach exactly 104 of the 256 3-input
/// functions; each of the paper's escalations closes the gap.
#[test]
fn universality_ladder() {
    let v_only = census(&CensusConfig::new(3));
    assert_eq!(v_only, 104);
    assert!(census(&CensusConfig::new(3).with_pre(4)) == 256);
    assert!(census(&CensusConfig::new(3).with_post(2)) == 256);
    assert!(census(&CensusConfig::new(3).with_tebe(2)) == 256);
}

/// Every V-op-reachable 3-input function is synthesizable with zero R-ops,
/// and (spot-checked) the census and the SAT synthesizer agree both ways.
#[test]
fn census_and_synthesizer_agree_on_samples() {
    // Sampled functions: a few known-reachable and known-unreachable ones.
    let reachable = [
        generators::and_gate(3),
        generators::or_gate(3),
        generators::majority_gate(3), // V(V(0, x1, const-0), x2, ~x3)
    ];
    for f in reachable {
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 3).expect("valid");
        assert!(
            synth().run(&spec).expect("runs").circuit().is_some(),
            "{} should be V-op realizable",
            f.name()
        );
    }
    let unreachable = [generators::xor_gate(3), generators::xnor_gate(3)];
    for f in unreachable {
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 4).expect("valid");
        assert!(
            synth().run(&spec).expect("runs").is_unrealizable(),
            "{} must not be V-op realizable",
            f.name()
        );
    }
}

/// The heuristic mapper is universal: every 4-input function maps and
/// verifies (an instance of the paper's "MM architectures are universal").
#[test]
fn heuristic_is_universal_on_samples() {
    // A structured sample of the 65536 4-input functions.
    for seed in 0..64u64 {
        let bits = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .rotate_left((seed % 63) as u32)
            & 0xFFFF;
        let tt = TruthTable::from_packed(4, bits).expect("4-input table");
        let f = memristive_mm::boolfn::MultiOutputFn::new(format!("s{seed}"), vec![tt])
            .expect("one output");
        let c = heuristic::map(&f).expect("maps");
        assert!(c.implements(&f), "function {bits:#06x}");
    }
}

/// The paper's Eq. 1/2 identities, across every literal and a pile of
/// random functions (integration-level check of the V-op algebra used by
/// both encoder and simulator).
#[test]
fn vop_identities_hold_broadly() {
    let n = 4;
    let c0 = TruthTable::new_false(n).expect("valid");
    let c1 = TruthTable::new_true(n).expect("valid");
    for seed in 0..32u64 {
        let bits = seed.wrapping_mul(0xD1B54A32D192ED03) & 0xFFFF;
        let f = TruthTable::from_packed(n, bits).expect("valid");
        for v in 1..=n {
            for l in [Literal::Pos(v), Literal::Neg(v)] {
                let lt = l.truth_table(n);
                let nlt = l.complement().truth_table(n);
                assert_eq!(f.v_op(&lt, &c1), &f & &lt);
                assert_eq!(f.v_op(&c0, &nlt), &f & &lt);
                assert_eq!(f.v_op(&lt, &c0), &f | &lt);
                assert_eq!(f.v_op(&c1, &nlt), &f | &lt);
            }
        }
    }
}

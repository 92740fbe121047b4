//! Cross-validation of two independent implementations of the same
//! question: the universality census (bit-mask closure) and the SAT
//! synthesizer (CNF + CDCL) must agree on which functions are V-op
//! realizable.

use memristive_mm::boolfn::{MultiOutputFn, TruthTable};
use memristive_mm::synth::optimize::{self, SynthResultKind};
use memristive_mm::synth::universality::{census_set, CensusConfig};
use memristive_mm::synth::{EncodeOptions, SynthSpec, Synthesizer};

/// Exhaustive for n = 2: all 16 functions, census vs SAT.
#[test]
fn census_and_sat_agree_on_all_2_input_functions() {
    let reachable = census_set(&CensusConfig::new(2));
    for bits in 0..16u64 {
        let tt = TruthTable::from_packed(2, bits).expect("2-input table");
        let f = MultiOutputFn::new(format!("f{bits:x}"), vec![tt]).expect("one output");
        // 4 V-op steps are enough to reach the fixed point for n = 2.
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 4).expect("valid");
        let sat_realizable = Synthesizer::new()
            .run(&spec)
            .expect("runs")
            .circuit()
            .is_some();
        let census_realizable = reachable.contains(&(bits as u32));
        assert_eq!(
            sat_realizable, census_realizable,
            "disagreement on function {bits:04b}"
        );
    }
    // Sanity: V-ops reach every 2-input function except XOR and XNOR.
    assert_eq!(reachable.len(), 14);
    assert!(!reachable.contains(&0b0110), "XOR2 must be unreachable");
    assert!(!reachable.contains(&0b1001), "XNOR2 must be unreachable");
}

/// The canonical (smallest) NPN representative of a 2-input function:
/// minimum over all input permutations, input negations, and output
/// negation.
fn npn_canonical_2(bits: u32) -> u32 {
    let row = |b: u32, x1: u32, x2: u32| (b >> (x1 | (x2 << 1))) & 1;
    let mut best = u32::MAX;
    for swap in [false, true] {
        for neg1 in [0u32, 1] {
            for neg2 in [0u32, 1] {
                for negout in [0u32, 1] {
                    let mut t = 0u32;
                    for x1 in 0..2u32 {
                        for x2 in 0..2u32 {
                            let (a, b) = if swap { (x2, x1) } else { (x1, x2) };
                            let v = row(bits, a ^ neg1, b ^ neg2) ^ negout;
                            t |= v << (x1 | (x2 << 1));
                        }
                    }
                    best = best.min(t);
                }
            }
        }
    }
    best
}

/// The jobs values the certified ladder is exercised under; the CI certify
/// matrix adds its own via `MMSYNTH_TEST_JOBS`.
fn job_counts() -> Vec<usize> {
    let mut jobs = vec![1, 4];
    if let Some(extra) = std::env::var("MMSYNTH_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        jobs.push(extra.max(1));
    }
    jobs.sort_unstable();
    jobs.dedup();
    jobs
}

/// Certified-UNSAT ladder vs. brute-force census, over every 2-input NPN
/// class, under multiple thread counts.
///
/// NPN classification only shrinks the workload, not the claim: V-op
/// reachability is *not* NPN-invariant (the census set is not closed under
/// input/output negation), so every class member is still compared against
/// the census individually — the class structure just picks which ladders
/// to run certified.
#[test]
fn certified_ladder_agrees_with_census_on_all_npn_classes() {
    let reachable = census_set(&CensusConfig::new(2));
    let opts = EncodeOptions::recommended();
    let synth = Synthesizer::new().with_certification(true);

    // n = 2 has exactly 4 NPN classes: const, projection, AND, XOR.
    let mut representatives: Vec<u32> = (0..16u32).map(npn_canonical_2).collect();
    representatives.sort_unstable();
    representatives.dedup();
    assert_eq!(representatives.len(), 4, "2-input NPN classes");

    for &bits in &representatives {
        let tt = TruthTable::from_packed(2, u64::from(bits)).expect("2-input table");
        let f = MultiOutputFn::new(format!("npn{bits:x}"), vec![tt]).expect("one output");
        let census_realizable = reachable.contains(&bits);
        for jobs in job_counts() {
            let report = optimize::minimize_vsteps(&synth, &f, 0, 1, 4, &opts, jobs)
                .expect("certified ladder runs");
            assert_eq!(
                report.best.is_some(),
                census_realizable,
                "ladder vs census on NPN class {bits:04b}, jobs={jobs}"
            );
            for call in &report.calls {
                match call.result {
                    SynthResultKind::Unrealizable => {
                        assert!(
                            call.certified,
                            "uncertified UNSAT rung N_VS={} on {bits:04b}, jobs={jobs}",
                            call.n_vsteps
                        );
                        let proof = call.proof.as_ref().expect("certified rung keeps proof");
                        assert!(proof.is_concluded());
                    }
                    _ => assert!(call.proof.is_none()),
                }
            }
            // 4 steps reach the V-op fixed point for n = 2, so realizable
            // classes are always proven minimal; and an unrealizable class
            // has no circuit to claim optimal.
            if census_realizable {
                assert!(report.proven_optimal, "class {bits:04b}, jobs={jobs}");
            }
        }
    }
}

/// Spot checks for n = 3 (exhaustive would be 256 SAT calls; sample the
/// interesting boundary).
#[test]
fn census_and_sat_agree_on_3_input_samples() {
    let reachable = census_set(&CensusConfig::new(3));
    for bits in [
        0x00u64, 0xff, 0x96, /* xor3 */
        0x17, /* maj3' */
        0x80, 0x7f, 0x01, 0xe8,
    ] {
        let tt = TruthTable::from_packed(3, bits).expect("3-input table");
        let f = MultiOutputFn::new(format!("f{bits:02x}"), vec![tt]).expect("one output");
        let spec = SynthSpec::mixed_mode(&f, 0, 1, 5).expect("valid");
        let sat_realizable = Synthesizer::new()
            .run(&spec)
            .expect("runs")
            .circuit()
            .is_some();
        assert_eq!(
            sat_realizable,
            reachable.contains(&(bits as u32)),
            "disagreement on function {bits:08b}"
        );
    }
}

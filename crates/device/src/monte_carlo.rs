//! Monte-Carlo reliability analysis of V-ops and R-ops under variation.
//!
//! The paper motivates mixed-mode circuits with the observation that
//! stateful R-ops "suffer from high sensitivity to non-ideal electrical
//! behavior, especially device-to-device (D2D) and cycle-to-cycle (C2C)
//! variations during the voltage divider operation, leading to higher error
//! rates than for V-ops", and that cascaded R-ops are worse still (§I,
//! §II-B). This module quantifies those claims on the electrical model:
//!
//! * [`v_op_error_rate`] — a single write cycle with random target value.
//! * [`r_op_error_rate`] — a single MAGIC NOR with random input states.
//! * [`cascade_cumulative_error_rates`] — chains of NORs up to a given
//!   depth, where each stage consumes the previous stage's (possibly
//!   corrupted) output. Errors compound with depth — the paper's argument
//!   against deeply cascaded stateful logic.
//!
//! # Example
//!
//! ```
//! use mm_device::{monte_carlo, ElectricalParams, Variability};
//!
//! let params = ElectricalParams::bfo().with_variability(Variability::HIGH);
//! let v = monte_carlo::v_op_error_rate(params, 2_000, 1);
//! let r = monte_carlo::r_op_error_rate(params, 2_000, 1);
//! assert!(v <= r, "V-ops should be at least as reliable as R-ops");
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{seeds, DeviceState, ElectricalParams, LineArray};

/// Fraction of failed single-device V-op writes over `trials` random
/// (initial state, TE, BE) triples.
pub fn v_op_error_rate(params: ElectricalParams, trials: u32, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seeds::substream(seed, seeds::STREAM_MC_VOP));
    let mut failures = 0u32;
    // One array for the whole run; reseeding re-draws D2D per trial without
    // re-boxing the device models (this loop used to allocate per trial).
    let mut array = LineArray::bfo(1, params, seed);
    for t in 0..trials {
        let s0 = rng.gen::<bool>();
        let te = rng.gen::<bool>();
        let be = rng.gen::<bool>();
        array.reseed(seeds::trial_seed(seed, t));
        array.reset(&[s0]);
        array.v_op_cycle(&[Some(te)], be);
        let expected = crate::vop::apply(DeviceState::from_bool(s0), te, be);
        if array.state(0) != expected {
            failures += 1;
        }
    }
    f64::from(failures) / f64::from(trials.max(1))
}

/// Fraction of failed single MAGIC NOR executions over `trials` random
/// input-state pairs (fresh devices each trial, so D2D is resampled).
pub fn r_op_error_rate(params: ElectricalParams, trials: u32, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seeds::substream(seed, seeds::STREAM_MC_ROP));
    let mut failures = 0u32;
    let mut array = LineArray::bfo(3, params, seed);
    for t in 0..trials {
        let a = rng.gen::<bool>();
        let b = rng.gen::<bool>();
        array.reseed(seeds::trial_seed(seed, t));
        array.reset(&[a, b, true]);
        array.magic_nor(&[0, 1], 2);
        if array.state(2).to_bool() == (a | b) {
            failures += 1;
        }
    }
    f64::from(failures) / f64::from(trials.max(1))
}

/// Cumulative probability that a NOR chain of each depth produces a wrong
/// final value (errors are *not* forgiven downstream).
pub fn cascade_cumulative_error_rates(
    params: ElectricalParams,
    max_depth: usize,
    trials: u32,
    seed: u64,
) -> Vec<f64> {
    let mut failures = vec![0u32; max_depth];
    let mut rng = SmallRng::seed_from_u64(seeds::substream(seed, seeds::STREAM_MC_CUMULATIVE));
    let n_cells = 1 + max_depth + max_depth;
    let mut array = LineArray::bfo(n_cells, params, seed);
    for t in 0..trials {
        let mut init = vec![false; n_cells];
        let x0 = rng.gen::<bool>();
        init[0] = x0;
        let mut aux_values = Vec::with_capacity(max_depth);
        for k in 0..max_depth {
            let aux = rng.gen::<bool>();
            init[1 + k] = aux;
            aux_values.push(aux);
            init[1 + max_depth + k] = true;
        }
        array.reseed(seeds::trial_seed(seed, t));
        array.reset(&init);
        let mut ideal = x0;
        let mut prev = 0usize;
        for k in 0..max_depth {
            let out = 1 + max_depth + k;
            array.magic_nor(&[prev, 1 + k], out);
            ideal = !(ideal | aux_values[k]);
            if array.state(out).to_bool() != ideal {
                failures[k] += 1;
            }
            prev = out;
        }
    }
    failures
        .into_iter()
        .map(|f| f64::from(f) / f64::from(trials.max(1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Variability;

    #[test]
    fn no_variation_means_no_errors() {
        let params = ElectricalParams::bfo();
        assert_eq!(v_op_error_rate(params, 300, 7), 0.0);
        assert_eq!(r_op_error_rate(params, 300, 7), 0.0);
        assert!(cascade_cumulative_error_rates(params, 4, 100, 7)
            .iter()
            .all(|&e| e == 0.0));
    }

    #[test]
    fn r_ops_are_less_reliable_than_v_ops_under_d2d() {
        // D2D only: the voltage divider senses resistances, a direct write
        // does not — the paper's core reliability argument.
        let params = ElectricalParams::bfo().with_variability(Variability {
            d2d_sigma: 0.5,
            c2c_sigma: 0.0,
        });
        let v = v_op_error_rate(params, 1500, 11);
        let r = r_op_error_rate(params, 1500, 11);
        assert_eq!(v, 0.0, "V-ops are immune to pure D2D variation");
        assert!(r > 0.0, "R-ops must show D2D-induced failures");
    }

    #[test]
    fn cumulative_cascade_errors_grow_with_depth() {
        let params = ElectricalParams::bfo().with_variability(Variability {
            d2d_sigma: 0.45,
            c2c_sigma: 0.05,
        });
        let rates = cascade_cumulative_error_rates(params, 5, 1200, 23);
        assert!(
            rates.last().expect("non-empty") >= rates.first().expect("non-empty"),
            "deep chains cannot be more reliable than shallow ones: {rates:?}"
        );
        assert!(rates.iter().any(|&e| e > 0.0));
    }
}

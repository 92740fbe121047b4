use rand::Rng;
use serde::{Deserialize, Serialize};

/// Device-to-device (D2D) and cycle-to-cycle (C2C) variation parameters.
///
/// Both are modeled as log-normal multiplicative factors, the standard
/// first-order model for resistive-switching variability:
///
/// * **D2D** perturbs each device's nominal LRS/HRS resistances once at
///   fabrication time.
/// * **C2C** jitters the switching thresholds on every write cycle.
///
/// The paper's motivation (§I, §II-B) is that R-ops suffer from both kinds
/// of variation — the voltage divider senses the perturbed resistances —
/// while V-ops apply the full write voltage regardless of device resistance
/// and are only exposed to threshold jitter. [`crate::monte_carlo`]
/// quantifies this.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Variability {
    /// Log-normal σ of the per-device resistance factor (0 = ideal).
    pub d2d_sigma: f64,
    /// Log-normal σ of the per-cycle threshold factor (0 = ideal).
    pub c2c_sigma: f64,
}

impl Variability {
    /// No variation at all: every device is nominal on every cycle.
    pub const NONE: Self = Self {
        d2d_sigma: 0.0,
        c2c_sigma: 0.0,
    };

    /// A mild corner representative of a mature process.
    pub const LOW: Self = Self {
        d2d_sigma: 0.05,
        c2c_sigma: 0.02,
    };

    /// A harsh corner representative of an emerging technology.
    pub const HIGH: Self = Self {
        d2d_sigma: 0.25,
        c2c_sigma: 0.08,
    };

    /// Whether this corner draws nothing from an RNG: both factors are
    /// exactly 1.0 without a draw, so devices at this corner behave the same
    /// under every seed. Fault campaigns rely on this to simulate one trial
    /// of such a corner instead of `trials` identical ones.
    pub fn is_deterministic(&self) -> bool {
        draws_nothing(self.d2d_sigma) && draws_nothing(self.c2c_sigma)
    }

    /// Draws a log-normal multiplicative factor `exp(σ·Z)` for D2D.
    pub fn d2d_factor(&self, rng: &mut impl Rng) -> f64 {
        lognormal_factor(self.d2d_sigma, rng)
    }

    /// Draws a log-normal multiplicative factor `exp(σ·Z)` for C2C.
    pub fn c2c_factor(&self, rng: &mut impl Rng) -> f64 {
        lognormal_factor(self.c2c_sigma, rng)
    }
}

impl Default for Variability {
    fn default() -> Self {
        Self::NONE
    }
}

/// Whether [`lognormal_factor`] returns 1.0 for `sigma` without drawing.
fn draws_nothing(sigma: f64) -> bool {
    sigma == 0.0
}

/// `exp(σ·Z)` with `Z ~ N(0,1)` via Box–Muller (avoids an extra dependency
/// on a distributions crate).
fn lognormal_factor(sigma: f64, rng: &mut impl Rng) -> f64 {
    if draws_nothing(sigma) {
        return 1.0;
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zero_sigma_is_exactly_one() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(Variability::NONE.d2d_factor(&mut rng), 1.0);
        assert_eq!(Variability::NONE.c2c_factor(&mut rng), 1.0);
    }

    #[test]
    fn only_zero_sigma_corners_are_deterministic() {
        assert!(Variability::NONE.is_deterministic());
        assert!(!Variability::LOW.is_deterministic());
        assert!(!Variability::HIGH.is_deterministic());
        let c2c_only = Variability {
            d2d_sigma: 0.0,
            c2c_sigma: 0.01,
        };
        assert!(!c2c_only.is_deterministic());
        // A deterministic corner leaves the RNG stream untouched.
        let mut rng = SmallRng::seed_from_u64(3);
        let mut fresh = SmallRng::seed_from_u64(3);
        Variability::NONE.d2d_factor(&mut rng);
        Variability::NONE.c2c_factor(&mut rng);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn lognormal_statistics_are_plausible() {
        let mut rng = SmallRng::seed_from_u64(42);
        let v = Variability {
            d2d_sigma: 0.2,
            c2c_sigma: 0.0,
        };
        let n = 20_000;
        let mut sum_log = 0.0;
        let mut sum_log_sq = 0.0;
        for _ in 0..n {
            let f = v.d2d_factor(&mut rng);
            assert!(f > 0.0);
            let l = f.ln();
            sum_log += l;
            sum_log_sq += l * l;
        }
        let mean = sum_log / n as f64;
        let var = sum_log_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "log-mean {mean} should be near 0");
        assert!(
            (var.sqrt() - 0.2).abs() < 0.01,
            "log-σ {} should be near 0.2",
            var.sqrt()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let v = Variability::HIGH;
        let a: Vec<f64> = {
            let mut rng = SmallRng::seed_from_u64(7);
            (0..5).map(|_| v.d2d_factor(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = SmallRng::seed_from_u64(7);
            (0..5).map(|_| v.d2d_factor(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}

//! Randomized generators (and shrinkers) for Boolean-function fuzz inputs.
//!
//! The scenario fuzzer draws target functions from these generators instead
//! of the named benchmark set, so synthesis is exercised on the whole
//! function space rather than the handful of functions the paper tabulates.
//! All draws are pure functions of the passed RNG; shrinking goes through
//! the vendored [`proptest::shrink::Shrink`] trait and only ever clears
//! minterms or drops outputs — a shrunk function is always "closer to
//! constant false" than its parent.

use proptest::shrink::Shrink;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::{MultiOutputFn, TruthTable};

/// Draws a uniformly random truth table over `n_inputs` variables.
///
/// # Panics
///
/// Panics if `n_inputs` is 0 or exceeds [`crate::TruthTable`]'s input limit.
pub fn truth_table(rng: &mut SmallRng, n_inputs: u8) -> TruthTable {
    let mut t = TruthTable::new_false(n_inputs).expect("valid input count");
    for q in 0..t.n_rows() {
        if rng.gen::<bool>() {
            t.set(q, true);
        }
    }
    t
}

/// Draws a random multi-output function with `n_inputs` variables and
/// `n_outputs` independent uniformly random outputs.
pub fn multi_output(
    rng: &mut SmallRng,
    name: impl Into<String>,
    n_inputs: u8,
    n_outputs: usize,
) -> MultiOutputFn {
    let outputs = (0..n_outputs).map(|_| truth_table(rng, n_inputs)).collect();
    MultiOutputFn::new(name, outputs).expect("outputs share an input count by construction")
}

impl Shrink for TruthTable {
    fn shrink_candidates(&self) -> Vec<Self> {
        // Clearing one minterm at a time descends monotonically toward
        // constant false (which has no candidates and ends the walk).
        (0..self.n_rows())
            .filter(|&q| self.get(q))
            .map(|q| {
                let mut t = self.clone();
                t.set(q, false);
                t
            })
            .collect()
    }
}

impl Shrink for MultiOutputFn {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.n_outputs() > 1 {
            for i in 0..self.n_outputs() {
                let mut tables = self.outputs().to_vec();
                tables.remove(i);
                out.push(
                    MultiOutputFn::new(self.name(), tables).expect("removal keeps inputs equal"),
                );
            }
        }
        for (i, table) in self.outputs().iter().enumerate() {
            for cand in table.shrink_candidates() {
                let mut tables = self.outputs().to_vec();
                tables[i] = cand;
                out.push(
                    MultiOutputFn::new(self.name(), tables)
                        .expect("shrinking preserves the input count"),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::shrink::minimize;
    use rand::SeedableRng;

    #[test]
    fn generation_is_seed_deterministic() {
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..8)
                .map(|_| multi_output(&mut rng, "f", 3, 2).outputs().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn truth_table_shrinks_toward_constant_false() {
        let mut rng = SmallRng::seed_from_u64(3);
        let t = truth_table(&mut rng, 3);
        let shrunk = minimize(t, |_| true);
        assert_eq!(shrunk.count_ones(), 0);
    }

    #[test]
    fn shrinking_finds_a_minimal_failing_function() {
        let mut rng = SmallRng::seed_from_u64(11);
        let f = multi_output(&mut rng, "f", 3, 2);
        // Pretend the failure is "some output has at least 2 minterms set":
        // the unique local minimum is a single output with exactly 2 ones.
        let fails = |f: &MultiOutputFn| f.outputs().iter().any(|t| t.count_ones() >= 2);
        assert!(fails(&f), "seed must start failing");
        let shrunk = minimize(f, fails);
        assert_eq!(shrunk.n_outputs(), 1);
        assert_eq!(shrunk.outputs()[0].count_ones(), 2);
    }
}

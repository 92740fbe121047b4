//! NPN-style canonicalization of multi-output functions under the
//! **cost-preserving** symmetry subgroup of the mixed-mode architecture.
//!
//! Classic NPN equivalence relates two functions by input negation, input
//! permutation and *output* negation. For MAGIC-NOR/V-op synthesis the
//! output-negation part is **not** cost-preserving: complementing an output
//! costs an extra R-op (a NOR with const-0), so an optimal circuit for `f`
//! does not yield an optimal circuit for `¬f` by relabeling. The subgroup
//! that *does* preserve the paper's cost metrics exactly is:
//!
//! * **input permutation** — relabels `x_i ↦ x_{π(i)}` in every V-op
//!   electrode literal and R-op literal feed;
//! * **input polarity flips** — `x_i ↦ ~x_i` is a bijection on the admitted
//!   driver set `L_n` (paper §II-C), so it relabels literals without adding
//!   devices or cycles;
//! * **output permutation** — reorders the output taps.
//!
//! Applying any such transform to a circuit is a pure literal relabeling
//! plus an output reorder: `N_R`, `N_L`, `N_VS` and every other metric are
//! untouched, and UNSAT ladder rungs transfer verbatim. That is what makes
//! the transform safe as a **result-cache key**: a minimal circuit (and its
//! optimality certificate) for the canonical representative converts into a
//! minimal circuit for every member of the class.
//!
//! [`canonicalize`] searches the full subgroup (`n! · 2^n` input transforms,
//! outputs sorted canonically) for functions of up to
//! [`CANON_MAX_INPUTS`] inputs — comfortably covering the paper's n ≤ 4
//! benchmark space — and degrades to the identity transform above that (the
//! cache then keys on the raw function, which is still sound, just less
//! shared).

use serde::{Deserialize, Serialize};

use crate::{BoolFnError, Literal, MultiOutputFn, TruthTable};

/// Largest input count [`canonicalize`] searches exhaustively. `6! · 2^6 =
/// 46 080` input transforms is still sub-millisecond work; beyond that the
/// factorial wins and canonicalization falls back to the identity.
pub const CANON_MAX_INPUTS: u8 = 6;

/// An element of the cost-preserving transform subgroup: input permutation
/// × input polarity flips × output permutation.
///
/// Semantics of `g = t.apply(f)`: `g`'s input `x_i` *reads* `f`'s input
/// `x_{perm[i-1]}`, complemented when flip bit `i-1` is set, and `g`'s
/// output `k` is `f`'s output `output_perm[k]` over the transformed inputs.
/// Row-wise: `g(q) = f(q')` where bit `x_{perm[i-1]}` of `q'` equals bit
/// `x_i` of `q` XOR flip `i-1` (see [`map_row`](Self::map_row)).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NpnTransform {
    n_inputs: u8,
    /// `perm[i]` (0-based slot `i`) is the 1-based source variable feeding
    /// the transform's input `x_{i+1}`.
    perm: Vec<u8>,
    /// Bit `i` set ⇒ input `x_{i+1}` is complemented.
    flips: u32,
    /// `output_perm[k]` is the source output index of transformed output
    /// `k`.
    output_perm: Vec<usize>,
}

impl NpnTransform {
    /// The identity transform for a function shape.
    pub fn identity(n_inputs: u8, n_outputs: usize) -> Self {
        Self {
            n_inputs,
            perm: (1..=n_inputs).collect(),
            flips: 0,
            output_perm: (0..n_outputs).collect(),
        }
    }

    /// Builds a transform from its parts, validating both permutations.
    ///
    /// # Errors
    ///
    /// Returns [`BoolFnError::InvalidTransform`] when `perm` is not a
    /// permutation of `1..=n`, `flips` has bits above `n`, or
    /// `output_perm` is not a permutation of `0..n_outputs`.
    pub fn new(
        n_inputs: u8,
        perm: Vec<u8>,
        flips: u32,
        output_perm: Vec<usize>,
    ) -> Result<Self, BoolFnError> {
        let invalid = |reason: &str| BoolFnError::InvalidTransform {
            reason: reason.to_string(),
        };
        if perm.len() != usize::from(n_inputs) {
            return Err(invalid("input permutation has the wrong length"));
        }
        let mut seen = vec![false; usize::from(n_inputs)];
        for &v in &perm {
            if v == 0 || v > n_inputs || seen[usize::from(v - 1)] {
                return Err(invalid("input permutation is not a bijection on 1..=n"));
            }
            seen[usize::from(v - 1)] = true;
        }
        if n_inputs < 32 && flips >= 1u32 << n_inputs {
            return Err(invalid("polarity flips reference variables above n"));
        }
        let mut seen = vec![false; output_perm.len()];
        for &k in &output_perm {
            if k >= output_perm.len() || seen[k] {
                return Err(invalid("output permutation is not a bijection"));
            }
            seen[k] = true;
        }
        Ok(Self {
            n_inputs,
            perm,
            flips,
            output_perm,
        })
    }

    /// Number of inputs the transform acts on.
    pub fn n_inputs(&self) -> u8 {
        self.n_inputs
    }

    /// Number of outputs the transform acts on.
    pub fn n_outputs(&self) -> usize {
        self.output_perm.len()
    }

    /// The output permutation (`output_perm[k]` = source output of
    /// transformed output `k`).
    pub fn output_perm(&self) -> &[usize] {
        &self.output_perm
    }

    /// Maps a row index `q` of the transformed function to the row `q'` of
    /// the source function it evaluates: bit `x_{perm[i-1]}` of `q'` is bit
    /// `x_i` of `q` XOR flip `i-1`.
    pub fn map_row(&self, q: u32) -> u32 {
        let n = self.n_inputs;
        let mut out = 0u32;
        for i in 0..usize::from(n) {
            // Value of the transform's input x_{i+1} under q.
            let bit = (q >> (usize::from(n) - 1 - i)) & 1;
            let bit = bit ^ ((self.flips >> i) & 1);
            // Feed it into source variable perm[i] (1-based).
            let src = usize::from(self.perm[i]);
            out |= bit << (usize::from(n) - src);
        }
        out
    }

    /// Maps a literal of the *source* function's input space into the
    /// transformed space. This is the relabeling that converts a circuit
    /// implementing `g` into one implementing [`apply`](Self::apply)`(g)`:
    /// replace every literal `l` with `map_literal(l)` and reorder outputs
    /// by [`output_perm`](Self::output_perm).
    ///
    /// # Panics
    ///
    /// Panics if the literal references a variable outside `1..=n`.
    pub fn map_literal(&self, lit: Literal) -> Literal {
        let var = match lit {
            Literal::Const0 | Literal::Const1 => return lit,
            Literal::Pos(v) | Literal::Neg(v) => v,
        };
        let slot = self
            .perm
            .iter()
            .position(|&v| v == var)
            .unwrap_or_else(|| panic!("literal x{var} out of range for transform"));
        let mapped = match lit {
            Literal::Pos(_) => Literal::Pos(slot as u8 + 1),
            Literal::Neg(_) => Literal::Neg(slot as u8 + 1),
            _ => unreachable!(),
        };
        if (self.flips >> slot) & 1 == 1 {
            mapped.complement()
        } else {
            mapped
        }
    }

    /// Applies the input part of the transform to a single truth table.
    pub fn apply_table(&self, tt: &TruthTable) -> TruthTable {
        TruthTable::from_index_fn(self.n_inputs, |q| tt.get(self.map_row(q) as usize))
            .expect("n_inputs already validated by the source table")
    }

    /// Applies the transform to a multi-output function.
    ///
    /// # Panics
    ///
    /// Panics when the function shape disagrees with the transform shape.
    pub fn apply(&self, f: &MultiOutputFn) -> MultiOutputFn {
        assert_eq!(f.n_inputs(), self.n_inputs, "input count mismatch");
        assert_eq!(
            f.n_outputs(),
            self.output_perm.len(),
            "output count mismatch"
        );
        let outputs = self
            .output_perm
            .iter()
            .map(|&k| self.apply_table(f.output(k).expect("validated bijection")))
            .collect();
        MultiOutputFn::new(f.name(), outputs).expect("shape preserved")
    }

    /// The inverse transform: `t.inverse().apply(&t.apply(f))` equals `f`
    /// (up to the name metadata [`apply`](Self::apply) carries over).
    pub fn inverse(&self) -> Self {
        let n = usize::from(self.n_inputs);
        let mut perm = vec![0u8; n];
        let mut flips = 0u32;
        for (i, &src) in self.perm.iter().enumerate() {
            let j = usize::from(src - 1);
            perm[j] = i as u8 + 1;
            flips |= ((self.flips >> i) & 1) << j;
        }
        let mut output_perm = vec![0usize; self.output_perm.len()];
        for (k, &src) in self.output_perm.iter().enumerate() {
            output_perm[src] = k;
        }
        Self {
            n_inputs: self.n_inputs,
            perm,
            flips,
            output_perm,
        }
    }
}

/// Generates all permutations of `1..=n` in lexicographic order.
fn permutations(n: u8) -> Vec<Vec<u8>> {
    let mut current: Vec<u8> = (1..=n).collect();
    let mut all = vec![current.clone()];
    // Deterministic next-permutation loop (lexicographic successor).
    loop {
        let len = current.len();
        let Some(i) = (0..len.saturating_sub(1))
            .rev()
            .find(|&i| current[i] < current[i + 1])
        else {
            return all;
        };
        let j = (i + 1..len)
            .rev()
            .find(|&j| current[j] > current[i])
            .expect("successor exists by choice of i");
        current.swap(i, j);
        current[i + 1..].reverse();
        all.push(current.clone());
    }
}

/// The packed comparison key of a transformed function: every output table
/// as a `u64` word, in canonical (sorted) output order.
fn candidate_key(t: &NpnTransform, f: &MultiOutputFn) -> Vec<u64> {
    t.output_perm
        .iter()
        .map(|&k| {
            t.apply_table(f.output(k).expect("in range"))
                .to_packed()
                .expect("n ≤ CANON_MAX_INPUTS ≤ 6 fits one word")
        })
        .collect()
}

/// Canonicalizes `f` under the cost-preserving subgroup, returning the
/// canonical representative `g` and the transform `t` with `g = t.apply(f)`.
/// De-canonicalize results with `t.inverse()`.
///
/// The canonical representative is deterministic: among all `n! · 2^n`
/// input transforms (outputs sorted by packed table value, ties kept in
/// source order) the lexicographically smallest output-table vector wins,
/// first winner kept. Functions with more than [`CANON_MAX_INPUTS`] inputs
/// return the identity transform unchanged.
pub fn canonicalize(f: &MultiOutputFn) -> (MultiOutputFn, NpnTransform) {
    let n = f.n_inputs();
    if n > CANON_MAX_INPUTS {
        return (f.clone(), NpnTransform::identity(n, f.n_outputs()));
    }
    let mut best: Option<(Vec<u64>, NpnTransform)> = None;
    for perm in permutations(n) {
        for flips in 0..(1u32 << n) {
            let mut t = NpnTransform {
                n_inputs: n,
                perm: perm.clone(),
                flips,
                output_perm: (0..f.n_outputs()).collect(),
            };
            // Canonical output order: sort transformed tables ascending,
            // breaking ties by source index (sort_by_key is stable).
            let packed: Vec<u64> = (0..f.n_outputs())
                .map(|k| {
                    t.apply_table(f.output(k).expect("in range"))
                        .to_packed()
                        .expect("n ≤ 6")
                })
                .collect();
            t.output_perm.sort_by_key(|&k| packed[k]);
            let key = candidate_key(&t, f);
            if best.as_ref().is_none_or(|(b, _)| key < *b) {
                best = Some((key, t));
            }
        }
    }
    let (_, t) = best.expect("at least the identity was considered");
    (t.apply(f), t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn random_fn(seed: u64, n: u8, n_out: usize) -> MultiOutputFn {
        // Deterministic xorshift-filled tables.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let outputs = (0..n_out)
            .map(|_| {
                let bits = next();
                TruthTable::from_index_fn(n, |q| (bits >> (q % 64)) & 1 == 1).unwrap()
            })
            .collect();
        MultiOutputFn::new("rand", outputs).unwrap()
    }

    fn random_transform(seed: u64, n: u8, n_out: usize) -> NpnTransform {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut perm: Vec<u8> = (1..=n).collect();
        for i in (1..perm.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let mut output_perm: Vec<usize> = (0..n_out).collect();
        for i in (1..output_perm.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            output_perm.swap(i, j);
        }
        let flips = (next() % (1 << n)) as u32;
        NpnTransform::new(n, perm, flips, output_perm).unwrap()
    }

    #[test]
    fn identity_is_identity() {
        let f = generators::gf22_multiplier();
        let id = NpnTransform::identity(f.n_inputs(), f.n_outputs());
        assert_eq!(id.apply(&f).outputs(), f.outputs());
        assert_eq!(id.inverse(), id);
    }

    #[test]
    fn validation_rejects_malformed_transforms() {
        assert!(NpnTransform::new(3, vec![1, 2], 0, vec![0]).is_err());
        assert!(NpnTransform::new(3, vec![1, 2, 2], 0, vec![0]).is_err());
        assert!(NpnTransform::new(3, vec![1, 2, 4], 0, vec![0]).is_err());
        assert!(NpnTransform::new(3, vec![1, 2, 3], 0b1000, vec![0]).is_err());
        assert!(NpnTransform::new(3, vec![1, 2, 3], 0, vec![1, 1]).is_err());
        assert!(NpnTransform::new(3, vec![3, 1, 2], 0b101, vec![1, 0]).is_ok());
    }

    #[test]
    fn apply_matches_pointwise_semantics() {
        // x1 (of the transform) reads source x2 complemented; x2 reads x1.
        let f = generators::gf22_multiplier();
        let t = NpnTransform::new(4, vec![2, 1, 4, 3], 0b0001, vec![0, 1]).unwrap();
        let g = t.apply(&f);
        for q in 0..16u32 {
            assert_eq!(
                g.output(0).unwrap().get(q as usize),
                f.output(0).unwrap().get(t.map_row(q) as usize)
            );
        }
    }

    #[test]
    fn inverse_roundtrips_functions() {
        for seed in 1..30u64 {
            for (n, n_out) in [(2u8, 1usize), (3, 2), (4, 3)] {
                let f = random_fn(seed * 77, n, n_out);
                let t = random_transform(seed * 131, n, n_out);
                let g = t.apply(&f);
                assert_eq!(
                    t.inverse().apply(&g).outputs(),
                    f.outputs(),
                    "seed {seed} n {n}"
                );
            }
        }
    }

    #[test]
    fn inverse_composes_to_identity_on_rows_and_literals() {
        let t = random_transform(99, 4, 2);
        let inv = t.inverse();
        for q in 0..16u32 {
            assert_eq!(inv.map_row(t.map_row(q)), q);
        }
        for lit in [
            Literal::Const0,
            Literal::Const1,
            Literal::Pos(1),
            Literal::Neg(2),
            Literal::Pos(3),
            Literal::Neg(4),
        ] {
            assert_eq!(inv.map_literal(t.map_literal(lit)), lit);
        }
    }

    #[test]
    fn canonical_form_is_class_invariant() {
        // Every transform of f canonicalizes to the same representative.
        for seed in 1..12u64 {
            let f = random_fn(seed * 13, 3, 2);
            let (canon, t) = canonicalize(&f);
            assert_eq!(t.apply(&f).outputs(), canon.outputs());
            for s in 1..8u64 {
                let g = random_transform(seed * 1000 + s, 3, 2).apply(&f);
                let (canon2, t2) = canonicalize(&g);
                assert_eq!(canon2.outputs(), canon.outputs(), "seed {seed}/{s}");
                assert_eq!(t2.apply(&g).outputs(), canon2.outputs());
            }
        }
    }

    #[test]
    fn canonicalize_is_deterministic_and_idempotent() {
        let f = generators::gf22_multiplier();
        let (c1, t1) = canonicalize(&f);
        let (c2, t2) = canonicalize(&f);
        assert_eq!(c1.outputs(), c2.outputs());
        assert_eq!(t1, t2);
        // A canonical representative canonicalizes to itself.
        let (c3, _) = canonicalize(&c1);
        assert_eq!(c3.outputs(), c1.outputs());
    }

    #[test]
    fn class_structure_matches_the_subgroup() {
        // For XOR an input flip *is* an output complement (¬a⊕b = ¬(a⊕b)),
        // so xor and xnor share a class — relabeling literals genuinely
        // converts one optimal circuit into the other.
        let xor = generators::xor_gate(2);
        let xnor = generators::xnor_gate(2);
        assert_eq!(
            canonicalize(&xor).0.outputs(),
            canonicalize(&xnor).0.outputs()
        );
        // AND and NAND do not: no input relabeling complements AND's single
        // minterm into NAND's three, and the subgroup deliberately excludes
        // output negation (it costs an extra R-op).
        let and = generators::and_gate(2);
        let nand = generators::nand_gate(2);
        assert_ne!(
            canonicalize(&and).0.outputs(),
            canonicalize(&nand).0.outputs()
        );
        // AND's class under input flips contains all 4 minterm-singletons.
        for bits in ["0001", "0010", "0100", "1000"] {
            let g =
                MultiOutputFn::new("m", vec![TruthTable::from_bitstring(bits).unwrap()]).unwrap();
            assert_eq!(canonicalize(&g).0.outputs(), canonicalize(&and).0.outputs());
        }
    }

    #[test]
    fn large_inputs_fall_back_to_identity() {
        let f = random_fn(5, 7, 1);
        let (c, t) = canonicalize(&f);
        assert_eq!(t, NpnTransform::identity(7, 1));
        assert_eq!(c.outputs(), f.outputs());
    }

    #[test]
    fn serde_roundtrip() {
        let t = random_transform(7, 4, 2);
        let json = serde_json::to_string(&t).unwrap();
        let back: NpnTransform = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}

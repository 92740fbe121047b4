use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

use serde::{Deserialize, Serialize};

use crate::{BoolFnError, MAX_INPUTS};

/// A bit-packed truth table of an `n`-input Boolean function.
///
/// Row `q` (with `q ∈ 0..2^n`) stores `f(x_1, …, x_n)` where input `x_i`
/// (1-based) is bit `n - i` of `q`; see the crate-level documentation for the
/// ordering rationale. Bits are packed into `u64` words, row `q` living at
/// bit `q % 64` of word `q / 64`. All unused bits of the last word are kept
/// at zero, so equality and hashing are structural.
///
/// # Example
///
/// ```
/// use mm_boolfn::TruthTable;
///
/// # fn main() -> Result<(), mm_boolfn::BoolFnError> {
/// let xor = TruthTable::from_index_fn(2, |q| (q.count_ones() & 1) == 1)?;
/// assert_eq!(xor.to_bitstring(), "0110");
/// assert_eq!(xor.count_ones(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TruthTable {
    n_inputs: u8,
    words: Vec<u64>,
}

impl TruthTable {
    /// Creates the constant-0 function of `n` inputs.
    ///
    /// # Errors
    ///
    /// Returns [`BoolFnError::TooManyInputs`] if `n > MAX_INPUTS`.
    pub fn new_false(n: u8) -> Result<Self, BoolFnError> {
        if n > MAX_INPUTS {
            return Err(BoolFnError::TooManyInputs {
                requested: n.into(),
            });
        }
        let n_words = Self::word_count(n);
        Ok(Self {
            n_inputs: n,
            words: vec![0; n_words],
        })
    }

    /// Creates the constant-1 function of `n` inputs.
    ///
    /// # Errors
    ///
    /// Returns [`BoolFnError::TooManyInputs`] if `n > MAX_INPUTS`.
    pub fn new_true(n: u8) -> Result<Self, BoolFnError> {
        let mut tt = Self::new_false(n)?;
        for w in &mut tt.words {
            *w = u64::MAX;
        }
        tt.mask_tail();
        Ok(tt)
    }

    /// Creates the projection function `x_i` of an `n`-input function.
    ///
    /// `var` is 1-based, matching the paper's `x_1 … x_n`.
    ///
    /// # Errors
    ///
    /// Returns [`BoolFnError::VariableOutOfRange`] when `var` is zero or
    /// exceeds `n`, and [`BoolFnError::TooManyInputs`] when `n > MAX_INPUTS`.
    pub fn var(n: u8, var: u8) -> Result<Self, BoolFnError> {
        if var == 0 || var > n {
            return Err(BoolFnError::VariableOutOfRange {
                var: var.into(),
                n_inputs: n,
            });
        }
        let shift = n - var; // x_1 is the most significant index bit
        Self::from_index_fn(n, |q| (q >> shift) & 1 == 1)
    }

    /// Builds a table by evaluating `f` on every row index.
    ///
    /// # Errors
    ///
    /// Returns [`BoolFnError::TooManyInputs`] if `n > MAX_INPUTS`.
    pub fn from_index_fn(n: u8, mut f: impl FnMut(u32) -> bool) -> Result<Self, BoolFnError> {
        let mut tt = Self::new_false(n)?;
        for q in 0..tt.n_rows() {
            if f(q as u32) {
                tt.words[q / 64] |= 1u64 << (q % 64);
            }
        }
        Ok(tt)
    }

    /// Parses a table from a bitstring such as `"0110"`.
    ///
    /// The string length must be a power of two; character `i` becomes row
    /// `i`, so the leftmost character is the all-zero input row (as printed
    /// in the paper's tables).
    ///
    /// # Errors
    ///
    /// Returns [`BoolFnError::ParseBitstring`] for characters other than
    /// `0`/`1` or a length that is not a power of two, and
    /// [`BoolFnError::TooManyInputs`] if the implied input count is too big.
    pub fn from_bitstring(s: &str) -> Result<Self, BoolFnError> {
        let len = s.len();
        if len == 0 || !len.is_power_of_two() {
            return Err(BoolFnError::ParseBitstring {
                reason: format!("length {len} is not a positive power of two"),
            });
        }
        let n = len.trailing_zeros();
        if n > MAX_INPUTS as u32 {
            return Err(BoolFnError::TooManyInputs { requested: n });
        }
        let mut tt = Self::new_false(n as u8)?;
        for (q, c) in s.chars().enumerate() {
            match c {
                '0' => {}
                '1' => tt.words[q / 64] |= 1u64 << (q % 64),
                other => {
                    return Err(BoolFnError::ParseBitstring {
                        reason: format!("unexpected character {other:?} at position {q}"),
                    })
                }
            }
        }
        Ok(tt)
    }

    /// Builds an `n ≤ 6` input table from a packed word (bit `q` = row `q`).
    ///
    /// This is the fast path used by the universality census, where 3- and
    /// 4-input functions are manipulated as raw `u64` masks.
    ///
    /// # Errors
    ///
    /// Returns [`BoolFnError::TooManyInputs`] if `n > 6` (the packed form
    /// only holds 64 rows).
    pub fn from_packed(n: u8, word: u64) -> Result<Self, BoolFnError> {
        if n > 6 {
            return Err(BoolFnError::TooManyInputs {
                requested: n.into(),
            });
        }
        let mut tt = Self::new_false(n)?;
        tt.words[0] = word;
        tt.mask_tail();
        Ok(tt)
    }

    /// Returns the packed `u64` form for tables with at most 6 inputs.
    ///
    /// Returns `None` for larger tables.
    pub fn to_packed(&self) -> Option<u64> {
        (self.n_inputs <= 6).then(|| self.words[0])
    }

    /// Number of inputs `n`.
    pub fn n_inputs(&self) -> u8 {
        self.n_inputs
    }

    /// Number of rows `2^n`.
    pub fn n_rows(&self) -> usize {
        1usize << self.n_inputs
    }

    /// Returns the value of row `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= 2^n`.
    pub fn get(&self, q: usize) -> bool {
        assert!(
            q < self.n_rows(),
            "row {q} out of range for {} rows",
            self.n_rows()
        );
        (self.words[q / 64] >> (q % 64)) & 1 == 1
    }

    /// Sets the value of row `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= 2^n`.
    pub fn set(&mut self, q: usize, value: bool) {
        assert!(
            q < self.n_rows(),
            "row {q} out of range for {} rows",
            self.n_rows()
        );
        let bit = 1u64 << (q % 64);
        if value {
            self.words[q / 64] |= bit;
        } else {
            self.words[q / 64] &= !bit;
        }
    }

    /// Evaluates the function on an input assignment packed as a row index.
    ///
    /// Bit `n - i` of `assignment` is the value of `x_i`, identical to the
    /// row-index convention.
    ///
    /// # Panics
    ///
    /// Panics if `assignment >= 2^n`.
    pub fn eval(&self, assignment: u32) -> bool {
        self.get(assignment as usize)
    }

    /// Number of rows on which the function is 1.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The NOR of two functions — the logical behaviour of the paper's
    /// MAGIC R-op on BiFeO₃ devices.
    ///
    /// # Panics
    ///
    /// Panics if the input counts differ.
    pub fn nor(&self, other: &Self) -> Self {
        self.check_same(other);
        !(self | other)
    }

    /// The negated implication `self · ~other` — the R-op exhibited by
    /// Ta₂O₅ devices (IMPLY family), per the paper §II-A.
    ///
    /// # Panics
    ///
    /// Panics if the input counts differ.
    pub fn nimp(&self, other: &Self) -> Self {
        self.check_same(other);
        self & &!other
    }

    /// The voltage-input operation `V(self, te, be)` of the paper's Table I:
    /// the device keeps its state when `TE = BE` and otherwise assumes the
    /// TE value.
    ///
    /// This identity is validated against the paper's worked Table II
    /// example and the algebraic laws (1)–(2):
    /// `f·l = V(f, l, 1) = V(f, 0, ~l)` and `f+l = V(f, l, 0) = V(f, 1, ~l)`.
    ///
    /// # Panics
    ///
    /// Panics if the input counts differ.
    pub fn v_op(&self, te: &Self, be: &Self) -> Self {
        self.check_same(te);
        self.check_same(be);
        let mut out = self.clone();
        for i in 0..out.words.len() {
            let s = self.words[i];
            let t = te.words[i];
            let b = be.words[i];
            // keep s where t == b, take t where t != b
            out.words[i] = (t & !b) | (s & !(t ^ b));
        }
        out.mask_tail();
        out
    }

    /// Iterator over the row values, from row 0 upward.
    pub fn iter(&self) -> Iter<'_> {
        Iter { tt: self, q: 0 }
    }

    /// Renders the table as a `0`/`1` string, row 0 first (paper style).
    pub fn to_bitstring(&self) -> String {
        (0..self.n_rows())
            .map(|q| if self.get(q) { '1' } else { '0' })
            .collect()
    }

    /// Indices of the rows on which the function is 1 (its minterms).
    pub fn minterms(&self) -> Vec<u32> {
        (0..self.n_rows() as u32)
            .filter(|&q| self.get(q as usize))
            .collect()
    }

    fn word_count(n: u8) -> usize {
        (1usize << n).div_ceil(64)
    }

    fn mask_tail(&mut self) {
        let rows = self.n_rows();
        if rows < 64 {
            let mask = (1u64 << rows) - 1;
            self.words[0] &= mask;
        }
    }

    fn check_same(&self, other: &Self) {
        assert_eq!(
            self.n_inputs, other.n_inputs,
            "truth tables must have the same number of inputs ({} vs {})",
            self.n_inputs, other.n_inputs
        );
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_bitstring())
    }
}

/// Iterator over the rows of a [`TruthTable`]; see [`TruthTable::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    tt: &'a TruthTable,
    q: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.q >= self.tt.n_rows() {
            return None;
        }
        let v = self.tt.get(self.q);
        self.q += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.tt.n_rows() - self.q;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign:tt) => {
        impl $trait for &TruthTable {
            type Output = TruthTable;

            fn $method(self, rhs: &TruthTable) -> TruthTable {
                self.check_same(rhs);
                let mut out = self.clone();
                for (w, r) in out.words.iter_mut().zip(&rhs.words) {
                    *w $assign *r;
                }
                out.mask_tail();
                out
            }
        }

        impl $trait for TruthTable {
            type Output = TruthTable;

            fn $method(self, rhs: TruthTable) -> TruthTable {
                (&self).$method(&rhs)
            }
        }
    };
}

impl_binop!(BitAnd, bitand, &=);
impl_binop!(BitOr, bitor, |=);
impl_binop!(BitXor, bitxor, ^=);

impl Not for &TruthTable {
    type Output = TruthTable;

    fn not(self) -> TruthTable {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.mask_tail();
        out
    }
}

impl Not for TruthTable {
    type Output = TruthTable;

    fn not(self) -> TruthTable {
        !&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_matches_paper_ordering() {
        // Paper Table II: for n = 4, the table of x4 is 0101…, x2 is 00001111….
        let x4 = TruthTable::var(4, 4).unwrap();
        assert_eq!(x4.to_bitstring(), "0101010101010101");
        let x2 = TruthTable::var(4, 2).unwrap();
        assert_eq!(x2.to_bitstring(), "0000111100001111");
        let x1 = TruthTable::var(4, 1).unwrap();
        assert_eq!(x1.to_bitstring(), "0000000011111111");
    }

    #[test]
    fn literal_example_from_paper_eq4() {
        // Paper §III-A: literal ~x1 of a 2-input function has entries 1,1,0,0.
        let nx1 = !TruthTable::var(2, 1).unwrap();
        assert_eq!(nx1.to_bitstring(), "1100");
    }

    #[test]
    fn v_op_identities_eq1_eq2() {
        let n = 3;
        let f = TruthTable::from_bitstring("01100101").unwrap();
        let c0 = TruthTable::new_false(n).unwrap();
        let c1 = TruthTable::new_true(n).unwrap();
        for v in 1..=n {
            let l = TruthTable::var(n, v).unwrap();
            let nl = !&l;
            let and = &f & &l;
            let or = &f | &l;
            assert_eq!(f.v_op(&l, &c1), and, "Eq.(1) first form");
            assert_eq!(f.v_op(&c0, &nl), and, "Eq.(1) second form");
            assert_eq!(f.v_op(&l, &c0), or, "Eq.(2) first form");
            assert_eq!(f.v_op(&c1, &nl), or, "Eq.(2) second form");
        }
    }

    #[test]
    fn v_op_reproduces_table2_transitions() {
        // Paper Table II, f1 = x1x2x3x4, transition s1 -> s2. The shared-BE
        // row is labeled "~x3" but prints the pattern 0011001100110011,
        // which is x3 under the table's own variable ordering; the paper's
        // worked example ("for input (0,0,1,0): BE = 1") confirms the
        // printed pattern is the authoritative one (label erratum).
        let s1 = TruthTable::from_bitstring("0101010101010101").unwrap();
        let te = TruthTable::var(4, 2).unwrap();
        let be = TruthTable::from_bitstring("0011001100110011").unwrap();
        assert_eq!(be, TruthTable::var(4, 3).unwrap());
        let s2 = s1.v_op(&te, &be);
        assert_eq!(s2.to_bitstring(), "0100110101001101");

        // Same step of f2 = NAND: s1 = 1010…, TE = x1, shared BE, and the
        // paper's s2 = 1000100011101110.
        let s1 = TruthTable::from_bitstring("1010101010101010").unwrap();
        let te = TruthTable::var(4, 1).unwrap();
        let s2 = s1.v_op(&te, &be);
        assert_eq!(s2.to_bitstring(), "1000100011101110");
    }

    #[test]
    fn nor_and_nimp() {
        let a = TruthTable::var(2, 1).unwrap();
        let b = TruthTable::var(2, 2).unwrap();
        assert_eq!(a.nor(&b).to_bitstring(), "1000");
        assert_eq!(a.nimp(&b).to_bitstring(), "0010");
    }

    #[test]
    fn packed_round_trip() {
        let tt = TruthTable::from_bitstring("01100101").unwrap();
        let packed = tt.to_packed().unwrap();
        let back = TruthTable::from_packed(3, packed).unwrap();
        assert_eq!(tt, back);
    }

    #[test]
    fn bitstring_round_trip_and_errors() {
        let tt = TruthTable::from_bitstring("0110").unwrap();
        assert_eq!(TruthTable::from_bitstring(&tt.to_bitstring()).unwrap(), tt);
        assert!(TruthTable::from_bitstring("011").is_err());
        assert!(TruthTable::from_bitstring("01a0").is_err());
        assert!(TruthTable::from_bitstring("").is_err());
    }

    #[test]
    fn large_tables_span_words() {
        // n = 7 → 128 rows → 2 words; exercised by the paper's 3-bit adder.
        let x7 = TruthTable::var(7, 7).unwrap();
        assert_eq!(x7.count_ones(), 64);
        assert!(x7.get(1));
        assert!(!x7.get(126));
        assert!(x7.get(127));
        let neg = !&x7;
        assert_eq!(neg.count_ones(), 64);
        assert_eq!((&x7 & &neg).count_ones(), 0);
        assert_eq!((&x7 | &neg).count_ones(), 128);
    }

    #[test]
    fn minterms_listing() {
        let f = TruthTable::from_bitstring("0110").unwrap();
        assert_eq!(f.minterms(), vec![1, 2]);
    }

    #[test]
    fn eval_matches_get() {
        let f = TruthTable::from_bitstring("00010010").unwrap();
        for q in 0..8 {
            assert_eq!(f.eval(q), f.get(q as usize));
        }
    }

    #[test]
    fn zero_input_tables() {
        let t = TruthTable::new_true(0).unwrap();
        assert_eq!(t.n_rows(), 1);
        assert!(t.get(0));
        assert_eq!(t.to_bitstring(), "1");
    }
}

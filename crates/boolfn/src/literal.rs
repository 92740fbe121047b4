use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{BoolFnError, TruthTable};

/// One element of the electrode driver set
/// `L_n = (const-0, const-1, ~x_1, x_1, …, ~x_n, x_n)` (paper §II-C).
///
/// Because reading resistance states back out of the array is undesirable,
/// the paper restricts every top/bottom electrode of a V-op to this set; it
/// is "much easier to realize" in peripherals than input-dependent writes.
///
/// Variable indices are 1-based to match the paper's `x_1 … x_n`.
///
/// # Example
///
/// ```
/// use mm_boolfn::Literal;
///
/// let l = Literal::Neg(4);
/// assert_eq!(l.to_string(), "~x4");
/// assert_eq!(l.truth_table(4).to_bitstring(), "1010101010101010");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Literal {
    /// The constant 0 (ground / no write pulse).
    Const0,
    /// The constant 1 (write pulse).
    Const1,
    /// The positive literal `x_i` (1-based).
    Pos(u8),
    /// The negated literal `~x_i` (1-based).
    Neg(u8),
}

impl Literal {
    /// The literal's value under an input assignment packed as a row index
    /// (bit `n - i` of `assignment` is `x_i`).
    ///
    /// # Panics
    ///
    /// Panics if the literal references a variable outside `1..=n`.
    pub fn eval(self, n: u8, assignment: u32) -> bool {
        match self {
            Self::Const0 => false,
            Self::Const1 => true,
            Self::Pos(v) => {
                assert!(v >= 1 && v <= n, "literal x{v} out of range for n = {n}");
                (assignment >> (n - v)) & 1 == 1
            }
            Self::Neg(v) => !Self::Pos(v).eval(n, assignment),
        }
    }

    /// The literal's truth table as an `n`-input function.
    ///
    /// # Panics
    ///
    /// Panics if the literal references a variable outside `1..=n` or if
    /// `n` exceeds [`MAX_INPUTS`](crate::MAX_INPUTS).
    pub fn truth_table(self, n: u8) -> TruthTable {
        match self {
            Self::Const0 => TruthTable::new_false(n).expect("n validated by caller"),
            Self::Const1 => TruthTable::new_true(n).expect("n validated by caller"),
            Self::Pos(v) => TruthTable::var(n, v).expect("variable validated by caller"),
            Self::Neg(v) => !TruthTable::var(n, v).expect("variable validated by caller"),
        }
    }

    /// The complementary literal (`x_i` ↔ `~x_i`, `0` ↔ `1`).
    pub fn complement(self) -> Self {
        match self {
            Self::Const0 => Self::Const1,
            Self::Const1 => Self::Const0,
            Self::Pos(v) => Self::Neg(v),
            Self::Neg(v) => Self::Pos(v),
        }
    }

    /// The variable the literal refers to, if any (1-based).
    pub fn variable(self) -> Option<u8> {
        match self {
            Self::Pos(v) | Self::Neg(v) => Some(v),
            _ => None,
        }
    }

    /// The literal at 0-based position `index` of the canonical ordering
    /// of `L_n` (`const-0`, `const-1`, `~x_1`, `x_1`, …, `~x_n`, `x_n`).
    ///
    /// This ordering is exactly the one used when the paper decodes SAT
    /// models (§III-B: "literal 9 out of the list
    /// `L_4 = (const-0, const-1, ~x_1, x_1, …, ~x_4, x_4)`" is `~x_4` with
    /// 1-based indexing).
    ///
    /// # Errors
    ///
    /// Returns [`BoolFnError::VariableOutOfRange`] if `index ≥ 2 + 2n`.
    pub fn from_index(n: u8, index: usize) -> Result<Self, BoolFnError> {
        if index >= 2 + 2 * n as usize {
            return Err(BoolFnError::VariableOutOfRange {
                var: index as u32,
                n_inputs: n,
            });
        }
        Ok(match index {
            0 => Self::Const0,
            1 => Self::Const1,
            i if i % 2 == 0 => Self::Neg((i / 2) as u8),
            i => Self::Pos((i / 2) as u8),
        })
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Const0 => write!(f, "const-0"),
            Self::Const1 => write!(f, "const-1"),
            Self::Pos(v) => write!(f, "x{v}"),
            Self::Neg(v) => write!(f, "~x{v}"),
        }
    }
}

/// The full driver set `L_n` for an `n`-input function, in canonical order.
///
/// # Example
///
/// ```
/// use mm_boolfn::{Literal, LiteralSet};
///
/// let l2 = LiteralSet::new(2);
/// assert_eq!(l2.len(), 6);
/// assert_eq!(l2.get(3), Some(Literal::Pos(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiteralSet {
    n_inputs: u8,
}

impl LiteralSet {
    /// The canonical literal set for an `n`-input function.
    pub fn new(n: u8) -> Self {
        Self { n_inputs: n }
    }

    /// Number of literals, `2 + 2n`.
    pub fn len(&self) -> usize {
        2 + 2 * self.n_inputs as usize
    }

    /// Always false; `L_n` contains at least the two constants.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of inputs `n`.
    pub fn n_inputs(&self) -> u8 {
        self.n_inputs
    }

    /// The literal at 0-based position `index`, or `None` out of range.
    pub fn get(&self, index: usize) -> Option<Literal> {
        Literal::from_index(self.n_inputs, index).ok()
    }

    /// Iterates over the literals in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = Literal> + '_ {
        (0..self.len())
            .map(|i| Literal::from_index(self.n_inputs, i).expect("index < len is always valid"))
    }

    /// Truth tables of every literal, in canonical order.
    ///
    /// This is the base set fed to both the SAT encoder (Eq. 4) and the
    /// universality census of Table III.
    pub fn truth_tables(&self) -> Vec<TruthTable> {
        self.iter().map(|l| l.truth_table(self.n_inputs)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_matches_paper() {
        let l4 = LiteralSet::new(4);
        let expected = [
            Literal::Const0,
            Literal::Const1,
            Literal::Neg(1),
            Literal::Pos(1),
            Literal::Neg(2),
            Literal::Pos(2),
            Literal::Neg(3),
            Literal::Pos(3),
            Literal::Neg(4),
            Literal::Pos(4),
        ];
        let got: Vec<_> = l4.iter().collect();
        assert_eq!(got, expected);
        // §III-B: 1-based literal 9 (0-based 8) of L_4 drives V1.2 and is ~x4.
        assert_eq!(l4.get(8), Some(Literal::Neg(4)));
    }

    #[test]
    fn from_index_follows_the_canonical_order() {
        let n = 5;
        for (i, l) in LiteralSet::new(n).iter().enumerate() {
            assert_eq!(Literal::from_index(n, i).unwrap(), l);
        }
        assert!(Literal::from_index(n, 12).is_err());
    }

    #[test]
    fn eval_and_truth_table_agree() {
        let n = 3;
        for l in LiteralSet::new(n).iter() {
            let tt = l.truth_table(n);
            for q in 0..(1u32 << n) {
                assert_eq!(l.eval(n, q), tt.eval(q), "literal {l} row {q}");
            }
        }
    }

    #[test]
    fn complement_is_involution() {
        for l in LiteralSet::new(4).iter() {
            assert_eq!(l.complement().complement(), l);
        }
        assert_eq!(Literal::Const0.complement(), Literal::Const1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Literal::Pos(3).to_string(), "x3");
        assert_eq!(Literal::Neg(1).to_string(), "~x1");
        assert_eq!(Literal::Const0.to_string(), "const-0");
        assert_eq!(Literal::Const1.to_string(), "const-1");
    }
}

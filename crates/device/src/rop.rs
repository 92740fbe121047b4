use std::fmt;

use serde::{Deserialize, Serialize};

/// The stateful (resistance-input) operation family of a technology.
///
/// R-ops are technology-dependent (paper §II-A): BiFeO₃ devices implement
/// the MAGIC NOR gate, whereas Ta₂O₅ devices exhibit negated implication
/// (NIMP), compatible with the IMPLY logic family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ROpKind {
    /// MAGIC NOR: `r = ¬(a ∨ b)` (BiFeO₃, used in all of the paper's
    /// experiments).
    #[default]
    MagicNor,
    /// Negated implication: `r = a · ¬b` (Ta₂O₅ / IMPLY family).
    Nimp,
}

impl ROpKind {
    /// The logical function computed on the two input states.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            Self::MagicNor => !(a | b),
            Self::Nimp => a & !b,
        }
    }

    /// Whether the operation is commutative in its inputs.
    pub fn is_commutative(self) -> bool {
        matches!(self, Self::MagicNor)
    }
}

impl fmt::Display for ROpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MagicNor => write!(f, "MAGIC-NOR"),
            Self::Nimp => write!(f, "NIMP"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables() {
        assert!(ROpKind::MagicNor.eval(false, false));
        assert!(!ROpKind::MagicNor.eval(true, false));
        assert!(!ROpKind::MagicNor.eval(false, true));
        assert!(!ROpKind::MagicNor.eval(true, true));

        assert!(!ROpKind::Nimp.eval(false, false));
        assert!(ROpKind::Nimp.eval(true, false));
        assert!(!ROpKind::Nimp.eval(false, true));
        assert!(!ROpKind::Nimp.eval(true, true));
    }

    #[test]
    fn commutativity() {
        assert!(ROpKind::MagicNor.is_commutative());
        assert!(!ROpKind::Nimp.is_commutative());
    }
}

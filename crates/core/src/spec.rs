use mm_boolfn::{Literal, MultiOutputFn};
use mm_circuit::ROpKind;
use mm_sat::ExactlyOne;

use crate::SynthError;

/// How literal truth tables enter the formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodeMode {
    /// Literal and output truth tables are constant-folded into the
    /// connectivity clauses. Produces the smallest formulas and is the
    /// recommended default.
    #[default]
    Folded,
    /// Paper-shaped encoding: explicit `l_{i,q}` and `o_{i,q}` variables
    /// pinned by unit clauses (Eqs. 4 and 9), with the V-op/R-op defining
    /// equations written over those variables. Produces variable/clause
    /// counts comparable to the paper's Table IV.
    Faithful,
}

/// How the line array's shared bottom electrode is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharedBe {
    /// One BE selector per V-op *step*, shared by construction (smallest
    /// formula; the default).
    #[default]
    PerStepVar,
    /// Paper-shaped: one BE selector per V-op plus pairwise equality
    /// clauses `(g ∨ ¬g') ∧ (¬g ∨ g')` between legs.
    EqualityClauses,
    /// No constraint — models a hypothetical array with per-device BEs.
    Free,
}

/// Tunable aspects of the CNF encoding (the ablation axes of the bench
/// suite).
#[derive(Debug, Clone, Default)]
pub struct EncodeOptions {
    /// Literal handling; see [`EncodeMode`].
    pub mode: EncodeMode,
    /// Shared-BE realization; see [`SharedBe`].
    pub shared_be: SharedBe,
    /// Encoding of the mutex μ (paper Eq. 3).
    pub mutex: ExactlyOne,
    /// Break inter-leg permutation symmetry and (for commutative R-ops)
    /// input-order symmetry. Sound; often decisive for UNSAT proofs.
    pub symmetry_breaking: bool,
    /// Forbid R-ops from consuming earlier R-op outputs (no cascading).
    /// Useful for low-fidelity technologies where cascaded stateful
    /// operations are unreliable (paper §I).
    pub forbid_rop_cascade: bool,
    /// Pin the TE literal of specific V-ops: `(leg, step, literal)`.
    /// Realizes the paper's "forcing TE of V-op i to a specific literal j
    /// by adding a unit clause" (§III-A).
    pub forced_te: Vec<(usize, usize, Literal)>,
    /// Restrict the admissible literal set for all electrodes (defaults to
    /// the full `L_n`).
    pub allowed_literals: Option<Vec<Literal>>,
}

impl EncodeOptions {
    /// The default options with symmetry breaking enabled — the
    /// configuration used by the Table IV harness.
    pub fn recommended() -> Self {
        Self {
            symmetry_breaking: true,
            ..Self::default()
        }
    }
}

/// A physical-array constraint attached to a spec: the schedule must fit
/// on an `array_size`-cell line array while never placing anything on the
/// `avoid_cells` (known-defective positions).
///
/// The constraint is enforced *inside the CNF formula*: the encoder bounds
/// the number of distinct literal feeds so that legs + feeds + R-op outputs
/// fit into the working cells, making avoidance part of the optimality
/// claim rather than a post-hoc placement check. The synthesizer then
/// returns the concrete placed schedule
/// ([`SynthOutcome::placement`](crate::SynthOutcome)) routing around the
/// avoided cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellAvoidance {
    /// Total cells of the physical array.
    pub array_size: usize,
    /// Defective cell indices the schedule must never touch.
    pub avoid_cells: Vec<usize>,
}

impl CellAvoidance {
    /// The avoided cells, sorted and deduplicated.
    pub fn dead_cells(&self) -> Vec<usize> {
        let mut cells = self.avoid_cells.clone();
        cells.sort_unstable();
        cells.dedup();
        cells
    }
}

/// A synthesis problem instance: the `Φ(f, N_V, N_R)` parameters.
///
/// Construct via [`SynthSpec::mixed_mode`] or [`SynthSpec::r_only`]; the
/// paper's leg-count conventions are available through
/// [`SynthSpec::paper_legs`].
#[derive(Debug, Clone)]
pub struct SynthSpec {
    function: MultiOutputFn,
    n_rops: usize,
    n_legs: usize,
    n_vsteps: usize,
    rop_kind: ROpKind,
    options: EncodeOptions,
    avoidance: Option<CellAvoidance>,
}

impl SynthSpec {
    /// A mixed-mode spec: `n_rops` R-ops fed by `n_legs` V-legs of
    /// `n_vsteps` steps each (`N_V = N_L · N_VS`).
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::InvalidSpec`] when the combination cannot
    /// possibly realize any function (no legs *and* no R-ops, or legs with
    /// zero steps).
    pub fn mixed_mode(
        function: &MultiOutputFn,
        n_rops: usize,
        n_legs: usize,
        n_vsteps: usize,
    ) -> Result<Self, SynthError> {
        if n_legs == 0 && n_rops == 0 {
            return Err(SynthError::InvalidSpec {
                reason: "need at least one V-leg or R-op".into(),
            });
        }
        if n_legs > 0 && n_vsteps == 0 {
            return Err(SynthError::InvalidSpec {
                reason: "V-legs must have at least one step".into(),
            });
        }
        if n_legs == 0 && n_vsteps > 0 {
            return Err(SynthError::InvalidSpec {
                reason: "V-op steps without legs are meaningless".into(),
            });
        }
        Ok(Self {
            function: function.clone(),
            n_rops,
            n_legs,
            n_vsteps,
            rop_kind: ROpKind::MagicNor,
            options: EncodeOptions::recommended(),
            avoidance: None,
        })
    }

    /// An R-only spec `Φ(f, 0, N_R)`: the conventional stateful-logic
    /// baseline of the paper's Table IV.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::InvalidSpec`] if `n_rops` is zero.
    pub fn r_only(function: &MultiOutputFn, n_rops: usize) -> Result<Self, SynthError> {
        Self::mixed_mode(function, n_rops, 0, 0)
    }

    /// The paper's leg-count convention (§IV): `N_L = N_R + N_O`, minus one
    /// for adders whose global carry is realizable by V-ops alone.
    pub fn paper_legs(function: &MultiOutputFn, n_rops: usize, is_adder: bool) -> usize {
        let base = n_rops + function.n_outputs();
        if is_adder {
            base.saturating_sub(1)
        } else {
            base
        }
    }

    /// Replaces the R-op family (default: MAGIC NOR).
    pub fn with_rop_kind(mut self, kind: ROpKind) -> Self {
        self.rop_kind = kind;
        self
    }

    /// Replaces the encoding options.
    pub fn with_options(mut self, options: EncodeOptions) -> Self {
        self.options = options;
        self
    }

    /// Constrains the synthesized schedule to an `array_size`-cell array
    /// with the given defective cells, provably avoided (see
    /// [`CellAvoidance`]). Cells may be listed in any order and repeats are
    /// ignored; validation happens at encode time.
    pub fn with_cell_avoidance(mut self, array_size: usize, avoid_cells: Vec<usize>) -> Self {
        self.avoidance = Some(CellAvoidance {
            array_size,
            avoid_cells,
        });
        self
    }

    /// The attached array constraint, if any.
    pub fn cell_avoidance(&self) -> Option<&CellAvoidance> {
        self.avoidance.as_ref()
    }

    /// The specified function.
    pub fn function(&self) -> &MultiOutputFn {
        &self.function
    }

    /// Number of R-ops `N_R`.
    pub fn n_rops(&self) -> usize {
        self.n_rops
    }

    /// Number of V-legs `N_L`.
    pub fn n_legs(&self) -> usize {
        self.n_legs
    }

    /// Number of V-op steps per leg `N_VS`.
    pub fn n_vsteps(&self) -> usize {
        self.n_vsteps
    }

    /// Total number of V-ops `N_V = N_L · N_VS`.
    pub fn n_vops(&self) -> usize {
        self.n_legs * self.n_vsteps
    }

    /// The R-op family.
    pub fn rop_kind(&self) -> ROpKind {
        self.rop_kind
    }

    /// The encoding options.
    pub fn options(&self) -> &EncodeOptions {
        &self.options
    }
}

#[cfg(test)]
mod tests {
    use mm_boolfn::generators;

    use super::*;

    #[test]
    fn constructors_validate() {
        let f = generators::and_gate(2);
        assert!(SynthSpec::mixed_mode(&f, 1, 2, 3).is_ok());
        assert!(SynthSpec::mixed_mode(&f, 0, 0, 0).is_err());
        assert!(SynthSpec::mixed_mode(&f, 1, 2, 0).is_err());
        assert!(SynthSpec::mixed_mode(&f, 1, 0, 2).is_err());
        assert!(SynthSpec::r_only(&f, 0).is_err());
        let spec = SynthSpec::r_only(&f, 3).unwrap();
        assert_eq!(spec.n_vops(), 0);
        assert_eq!(spec.n_rops(), 3);
    }

    #[test]
    fn paper_leg_convention() {
        // GF(2^2) multiplier: N_R = 4, N_O = 2, not an adder -> 6 legs.
        let gf = generators::gf22_multiplier();
        assert_eq!(SynthSpec::paper_legs(&gf, 4, false), 6);
        // 1-bit adder: N_R = 2, N_O = 2, adder -> 3 legs.
        let add = generators::ripple_adder(1);
        assert_eq!(SynthSpec::paper_legs(&add, 2, true), 3);
        // 3-bit adder: N_R = 5, N_O = 4, adder -> 8 legs (Table IV).
        let add3 = generators::ripple_adder(3);
        assert_eq!(SynthSpec::paper_legs(&add3, 5, true), 8);
    }
}

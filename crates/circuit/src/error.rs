use std::error::Error;
use std::fmt;

use mm_boolfn::Literal;
use mm_device::ROpKind;

/// Errors produced when constructing or validating a mixed-mode circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CircuitError {
    /// A literal references a variable outside `1..=n`.
    LiteralOutOfRange {
        /// The 1-based variable index.
        var: u8,
        /// The circuit's input count.
        n_inputs: u8,
    },
    /// A signal references a V-leg that does not exist.
    UnknownLeg {
        /// The referenced leg index.
        leg: usize,
        /// The number of legs in the circuit.
        n_legs: usize,
    },
    /// A signal references an R-op that does not exist or (for R-op inputs)
    /// does not precede the consumer.
    InvalidROpReference {
        /// The referenced R-op index.
        referenced: usize,
        /// Index of the consuming R-op, or `None` for an output tap.
        consumer: Option<usize>,
    },
    /// The circuit has no outputs.
    NoOutputs,
    /// A V-leg is empty.
    EmptyLeg {
        /// Index of the offending leg.
        leg: usize,
    },
    /// Two legs demand different BE literals in the same V-op step, which
    /// a shared bottom electrode cannot provide.
    SharedBeConflict {
        /// The V-op step (0-based).
        step: usize,
        /// BE literal demanded by an earlier leg.
        left: Literal,
        /// Conflicting BE literal demanded by a later leg.
        right: Literal,
    },
    /// An R-op input taps an intermediate leg value, which is overwritten
    /// before any R-op executes (only circuit *outputs* may tap mid-leg
    /// values, via interleaved readout).
    MidLegROpInput {
        /// The tapped leg.
        leg: usize,
        /// The tapped step.
        step: usize,
    },
    /// Too few working cells remain on the target array to place the
    /// schedule.
    InsufficientWorkingCells {
        /// Cells the schedule needs.
        needed: usize,
        /// Working cells available.
        available: usize,
        /// Total array size.
        array_size: usize,
    },
    /// A fault plan references a cell outside the schedule's array.
    FaultPlanOutOfRange {
        /// Name of the offending plan.
        plan: String,
        /// The out-of-range cell index.
        cell: usize,
        /// The schedule's cell count.
        n_cells: usize,
    },
    /// A campaign's `trials × 2^n` executions per plan do not fit a `u32`.
    CampaignTooLarge {
        /// Requested trials per plan.
        trials: u32,
        /// The schedule's input count.
        n_inputs: u8,
    },
    /// The schedule backend does not implement this R-op family.
    UnsupportedROpKind {
        /// Index of the offending R-op.
        rop: usize,
        /// Its family.
        kind: ROpKind,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LiteralOutOfRange { var, n_inputs } => {
                write!(
                    f,
                    "literal x{var} out of range for a {n_inputs}-input circuit"
                )
            }
            Self::UnknownLeg { leg, n_legs } => {
                write!(
                    f,
                    "signal references leg {leg} but the circuit has {n_legs} legs"
                )
            }
            Self::InvalidROpReference {
                referenced,
                consumer: Some(c),
            } => {
                write!(
                    f,
                    "R-op {c} references R-op {referenced}, which does not precede it"
                )
            }
            Self::InvalidROpReference {
                referenced,
                consumer: None,
            } => {
                write!(
                    f,
                    "output references R-op {referenced}, which does not exist"
                )
            }
            Self::NoOutputs => write!(f, "circuit must have at least one output"),
            Self::EmptyLeg { leg } => write!(f, "V-leg {leg} has no operations"),
            Self::SharedBeConflict { step, left, right } => write!(
                f,
                "V-op step {step} demands both {left} and {right} on the shared bottom electrode"
            ),
            Self::MidLegROpInput { leg, step } => write!(
                f,
                "R-op input taps intermediate value V{}.{}, which is overwritten before R-ops run",
                leg + 1,
                step + 1
            ),
            Self::InsufficientWorkingCells {
                needed,
                available,
                array_size,
            } => write!(
                f,
                "schedule needs {needed} cells but only {available} of {array_size} work"
            ),
            Self::FaultPlanOutOfRange {
                plan,
                cell,
                n_cells,
            } => write!(
                f,
                "fault plan {plan:?} references cell {cell}, but the schedule has {n_cells} cells"
            ),
            Self::CampaignTooLarge { trials, n_inputs } => write!(
                f,
                "a campaign of {trials} trials over {n_inputs} inputs needs more than {} \
                 executions per plan",
                u32::MAX
            ),
            Self::UnsupportedROpKind { rop, kind } => {
                write!(
                    f,
                    "R-op {rop} uses {kind}, which the line-array backend does not execute"
                )
            }
        }
    }
}

impl Error for CircuitError {}

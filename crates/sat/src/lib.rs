//! A from-scratch CDCL SAT solver and CNF construction toolkit.
//!
//! The synthesis procedure of *Optimal Synthesis of Memristive Mixed-Mode
//! Circuits* (DATE 2025) reduces circuit design to Boolean satisfiability;
//! the paper ran the competition solver SLIME 5. This crate is the
//! equivalent substrate built from scratch: a complete conflict-driven
//! clause-learning solver with
//!
//! * two-watched-literal propagation with a dedicated binary-clause layer,
//! * first-UIP conflict analysis with recursive clause minimization,
//! * exponential VSIDS decision ordering with phase saving,
//! * Luby-sequence restarts,
//! * LBD-based learnt-clause database reduction, and
//! * conflict/time budgets that let callers bound optimality proofs
//!   (returning [`SatResult::Unknown`] instead of running for the tens of
//!   hours the paper reports for its largest UNSAT instances), and
//! * DRAT proof logging into an in-memory log ([`DratProof`]) with an
//!   in-tree backward checker ([`drat`]) so UNSAT answers — the substance
//!   of every optimality claim — are independently certified rather than
//!   trusted.
//!
//! CNF construction helpers live on [`CnfFormula`], including the three
//! *exactly-one* encodings ([`ExactlyOne`]) used to study the paper's
//! mutex constraint μ (Eq. 3). DIMACS import/export is provided by the
//! [`dimacs`] module for cross-checking against external solvers.
//!
//! # Example
//!
//! ```
//! use mm_sat::{CnfFormula, Lit, SatResult, Solver};
//!
//! let mut cnf = CnfFormula::new();
//! let a = cnf.new_lit();
//! let b = cnf.new_lit();
//! cnf.add_clause([a, b]);
//! cnf.add_clause([!a, b]);
//! cnf.add_clause([a, !b]);
//!
//! match Solver::new(cnf).solve() {
//!     SatResult::Sat(model) => {
//!         assert!(model.value(a) && model.value(b));
//!     }
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod cnf;
mod error;
mod lit;
mod model;
mod solver;
mod stats;

pub mod dimacs;
pub mod drat;

pub use budget::{Budget, CancellationToken, Deadline};
pub use cnf::{CnfFormula, ExactlyOne};
pub use drat::DratProof;
pub use error::SatError;
pub use lit::{Lit, Var};
pub use model::Model;
pub use solver::{SatResult, Solver};
pub use stats::{SolverCounter, SolverStats};

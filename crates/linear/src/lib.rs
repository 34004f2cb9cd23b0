//! # argus-linear — exact linear arithmetic for termination analysis
//!
//! The linear-programming substrate of the `argus` workspace, which
//! reproduces *Sohn & Van Gelder, “Termination Detection in Logic Programs
//! using Argument Sizes” (PODS 1991)*. Everything the paper's method needs
//! from linear algebra lives here:
//!
//! * [`BigInt`] / [`Rat`] — arbitrary-precision integers and exact
//!   rationals. Fourier–Motzkin and simplex pivots multiply coefficients,
//!   so fixed-width arithmetic would silently overflow; exactness is a
//!   soundness requirement, not an optimization.
//! * [`LinExpr`], [`Constraint`], [`ConstraintSystem`] — sparse linear
//!   expressions and `≤ / =` constraint conjunctions.
//! * [`fm`] — Fourier–Motzkin elimination, the technique the paper uses to
//!   reduce its dual system (Eq. 8) to constraints on the θ vectors (Eq. 9).
//! * [`simplex`] — a two-phase exact primal simplex (Bland's rule) used to
//!   decide feasibility of the final θ system, and for implication tests.
//! * [`Poly`] — closed convex polyhedra (meet, project, hull, widening),
//!   the abstract domain behind inter-argument size-relation inference.
//! * [`farkas`] — Farkas refutation certificates solved on the simplex, so
//!   infeasibility claims are independently checkable.
//!
//! ```
//! use argus_linear::{Constraint, ConstraintSystem, LinExpr, Rat};
//! use argus_linear::simplex::feasible_point;
//! use std::collections::BTreeSet;
//!
//! // The final constraint of the paper's Example 4.1: 2θ ≥ 1, θ ≥ 0.
//! let theta = 0;
//! let mut sys = ConstraintSystem::new();
//! sys.push(Constraint::ge(
//!     LinExpr::term(theta, Rat::from_int(2)),
//!     LinExpr::constant(Rat::one()),
//! ));
//! let nonneg: BTreeSet<_> = [theta].into_iter().collect();
//! let witness = feasible_point(&sys, &nonneg).expect("terminates");
//! assert_eq!(witness[&theta], Rat::new(1.into(), 2.into()));
//! ```

#![warn(missing_docs)]

pub mod bigint;
pub mod canon;
pub mod expr;
pub mod farkas;
pub mod fm;
pub mod generators;
pub mod poly;
pub mod rat;
pub mod simplex;

pub use bigint::{BigInt, Sign};
pub use canon::IntRow;
pub use expr::{Constraint, ConstraintSystem, LinExpr, Rel, Var, VarPool};
pub use farkas::{refute, FarkasCertificate};
pub use fm::{FmBlowup, FmConfig, FmResult, FmStats, FmTier};
pub use poly::Poly;
pub use rat::Rat;
pub use simplex::{LpOutcome, LpProblem};

//! # argus-logic — logic-program substrate
//!
//! Terms, rules, programs, a Prolog-subset parser, unification, predicate
//! dependency graphs with SCC condensation, and bound–free mode analysis.
//! This crate knows nothing about termination; it supplies the syntactic
//! machinery that *Sohn & Van Gelder (PODS 1991)* presuppose:
//!
//! * [`Term`] with the paper's *structural term size* measure (§2.2);
//! * [`Program`] / [`Rule`] / [`Atom`] with IDB/EDB classification (§2);
//! * [`parser`] for the Prolog-like rule syntax of the paper's examples;
//! * [`unify`](mod@crate::unify) — unification with optional occurs check, used by the
//!   syntactic transformations of Appendix A;
//! * [`DepGraph`] — the predicate dependency digraph, Tarjan SCCs, and the
//!   recursive-subgoal / linear-recursion classification of §2.3;
//! * [`modes`] — bound–free adornment propagation (§3's preprocessing
//!   assumption).
//!
//! ```
//! use argus_logic::{parser::parse_program, DepGraph, PredKey};
//!
//! let program = parse_program(
//!     "append([], Ys, Ys).\n\
//!      append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
//! ).unwrap();
//! let graph = DepGraph::build(&program);
//! assert!(graph.is_recursive(&PredKey::new("append", 3)));
//! ```

#![warn(missing_docs)]

pub mod adorn;
pub mod cond;
pub mod depgraph;
pub mod groundness;
pub mod hash;
pub mod intern;
pub mod json;
pub mod modes;
pub mod norm;
pub mod parser;
pub mod program;
pub mod span;
pub mod term;
pub mod unify;

pub use adorn::{adorn_program, AdornedProgram};
pub use cond::Dnf;
pub use depgraph::DepGraph;
pub use groundness::{analyze_groundness, Groundness};
pub use intern::Sym;
pub use modes::{parse_pred_spec, parse_query_spec, Adornment, Mode, ModeMap};
pub use norm::Norm;
pub use program::{Atom, Literal, PredKey, Program, Rule};
pub use span::{LineIndex, Span, SpanSlot};
pub use term::{SizePolynomial, Term};
pub use unify::{mgu, unify, unify_atoms, Subst};

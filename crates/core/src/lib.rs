//! # argus-core — termination detection using argument sizes
//!
//! A faithful implementation of *Kirack Sohn & Allen Van Gelder,
//! “Termination Detection in Logic Programs using Argument Sizes”
//! (PODS 1991)*.
//!
//! The method proves that top-down (Prolog-style, left-to-right) evaluation
//! of a logic procedure terminates by finding, for every predicate of a
//! recursive SCC, a **nonnegative linear combination of bound-argument
//! sizes** that strictly decreases across every recursive call. The search
//! for the combination is itself a linear program: the universally
//! quantified decrease condition is dualized (LP duality), the coefficient
//! vectors θ appear linearly in the dual, the undistinguished dual
//! variables are eliminated by Fourier–Motzkin, and the remaining system
//! over the θ's is tested for feasibility. Mutual recursion is handled with
//! per-edge level decrements δᵢⱼ validated by a min-plus closure (§6.1) or,
//! more generally, path constraints permitting negative δ's (Appendix C).
//!
//! ```
//! use argus_core::analyze_source;
//! use argus_core::Verdict;
//!
//! // The paper's Example 3.1: perm/2 terminates with its first argument
//! // bound — a fact no earlier published method could establish.
//! let report = analyze_source(
//!     "perm([], []).\n\
//!      perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).\n\
//!      append([], Ys, Ys).\n\
//!      append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
//!     "perm/2",
//!     "bf",
//! ).unwrap();
//! assert_eq!(report.verdict, Verdict::Terminates);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod backwards;
pub mod certificate;
pub mod delta;
pub mod dual;
pub mod engine;
pub mod incremental;
pub mod json;
pub mod lexico;
pub mod negweight;
pub mod pairs;
pub mod par;
pub mod theta;

pub use analyze::{
    analyze, analyze_prepared, analyze_source, analyze_with_caches, prepare, AnalysisOptions,
    BlameKind, DeltaMode, PairBlame, Prepared, RunStats, SccAnalysis, SccOutcome, SccStats,
    TerminationReport, Verdict,
};
pub use argus_linear::{FmStats, FmTier};
pub use backwards::{
    check_condition, infer_conditions, infer_conditions_for, BackwardsOptions, CandidateOutcome,
    InferenceReport, ProbeFn, ProbeHook, TerminationCondition,
};
pub use certificate::{verify_report, CertificateError};
pub use delta::{assign_deltas, DeltaAssignment, DeltaOutcome};
pub use engine::{
    run_portfolio, Engine, EngineCtx, EngineEntry, EngineRun, EngineVerdict, PortfolioReport,
};
pub use incremental::{IncrementalRunStats, SccCache};
pub use lexico::{prove_lexicographic, LexicographicProof};
pub use pairs::{build_pair, ProjectionCache, RuleSubgoalSystem};
pub use theta::ThetaSpace;

//! # argus-diag — span-aware static diagnostics for logic programs
//!
//! The Sohn & Van Gelder termination method (PODS 1991) only applies to
//! programs that are well-moded, range-restricted, and reachable from the
//! analyzed adorned predicate — and when the θ-search fails, the bare
//! "not proved" hides *which recursive call* defeats every argument-size
//! measure. This crate turns those preconditions and failure explanations
//! into a conventional linting experience: a registry of [`LintPass`]es
//! over a parsed [`Program`] (with source spans threaded from the lexer),
//! each producing structured [`Diagnostic`]s that renderers turn into
//! caret-annotated text or stable JSON.
//!
//! ## Lint codes
//!
//! | code | meaning |
//! |------|---------|
//! | L000 | parse error |
//! | L001 | singleton variable |
//! | L002 | call to an undefined predicate |
//! | L003 | unused (unreachable) predicate |
//! | L004 | predicate used with inconsistent arities |
//! | L005 | probable predicate-name typo (edit distance 1) |
//! | L006 | non-range-restricted clause |
//! | L007 | non-well-moded goal (unbound argument where a binding is required) |
//! | L008 | unsafe negation (`\+` over an unbound variable — floundering) |
//! | L009 | recursive call defeats every argument-size measure |
//! | L010 | zero-weight recursion cycle (strong nontermination evidence) |
//! | L011 | unproven query with a nearby provable instantiation (inferred condition) |
//!
//! L007–L011 are *moded* lints: they need a query predicate and adornment
//! ([`LintOptions::query`]). Without one, L007/L008 fall back to assuming
//! every head argument bound, and L009–L011 are skipped. L009–L011 share
//! one raw analysis of the query per lint run. The worker count
//! ([`lint_program_memo`]'s `jobs`) also decides where it runs: with more
//! than one worker, on a second thread beside the syntactic passes
//! L001–L008; with one, on the calling thread. When it fails, L011 runs
//! the full pipeline and the backwards condition inference of
//! `argus_core::backwards`, and suggests the disjunct closest to the
//! queried adornment.
//!
//! ```
//! use argus_diag::{lint_source, LintOptions};
//!
//! let diags = lint_source("p(X) :- q(X).", &LintOptions::default());
//! assert!(diags.iter().any(|d| d.code == "L002")); // q/1 undefined
//! ```

#![warn(missing_docs)]

pub mod blame;
pub mod delta;
pub mod lsp;
pub mod moded;
pub mod passes;
pub mod render;
pub mod suggest;

use argus_core::incremental::{IncrementalRunStats, SccCache};
use argus_core::{analyze_with_caches, par, AnalysisOptions, TerminationReport};
use argus_logic::modes::Adornment;
use argus_logic::parser::parse_program;
use argus_logic::span::Span;
use argus_logic::{DepGraph, PredKey, Program};
use std::cell::{Cell, OnceCell};
use std::fmt;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program is meaningless or the analysis cannot proceed.
    Error,
    /// Almost certainly a mistake, but the program still has a meaning.
    Warning,
    /// Advisory: a precondition of some analysis is not met.
    Note,
}

impl Severity {
    /// Lowercase name, as rendered.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`L000`…); downstream tooling keys on this.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Source location, when the offending syntax was parsed from source.
    pub span: Option<Span>,
    /// Primary message.
    pub message: String,
    /// Secondary explanations (rendered as `= note:` lines).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(
        code: &'static str,
        severity: Severity,
        span: Option<Span>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic { code, severity, span, message: message.into(), notes: Vec::new() }
    }

    /// Attach a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }
}

/// Options controlling a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Query predicate and adornment for the moded lints (L007–L010).
    pub query: Option<(PredKey, Adornment)>,
}

/// Everything a [`LintPass`] may inspect.
pub struct LintContext<'a> {
    /// The original source text (for sub-atom spans, e.g. variables).
    pub src: &'a str,
    /// The parsed program.
    pub program: &'a Program,
    /// Predicate dependency graph of `program`.
    pub graph: &'a DepGraph,
    /// Query predicate + adornment, when supplied.
    pub query: Option<&'a (PredKey, Adornment)>,
    /// Per-SCC memo for the analysis-backed passes (L009–L011). When
    /// supplied, their termination analyses answer unchanged SCCs from
    /// the memo (see [`argus_core::incremental`]); diagnostics are
    /// byte-identical either way.
    pub memo: Option<Arc<SccCache>>,
    /// Worker threads for the analysis-backed passes (`0` = one per
    /// core, as [`argus_core::AnalysisOptions::parallelism`]). With a
    /// query and more than one worker, [`lint_program_memo`] also runs the
    /// shared raw analysis on a second thread beside the syntactic passes.
    pub jobs: usize,
    /// Accumulated memo hit/miss counters from the analysis-backed
    /// passes, populated when `memo` is set (passes merge via
    /// [`LintContext::record_incremental`]).
    pub incremental: Cell<Option<IncrementalRunStats>>,
    /// The shared raw analysis behind [`LintContext::raw_report`], run at
    /// most once per lint run.
    raw_report: OnceCell<Option<TerminationReport>>,
    /// The raw analysis already running on the lint run's second thread:
    /// [`LintContext::raw_report`] awaits it instead of analysing on the
    /// calling thread.
    raw_pending: Cell<Option<ScopedJoinHandle<'a, Option<TerminationReport>>>>,
}

impl LintContext<'_> {
    /// The termination analysis of the query on the program exactly as
    /// written (preprocessing disabled, so rule spans survive
    /// untransformed), computed on first use and shared by every
    /// analysis-backed pass of this lint run. When [`lint_program_memo`]
    /// started it on a second thread, the first use waits for it instead.
    /// Its memo counters are recorded once. `None` without a query, or
    /// when the query predicate has no clauses (L002 already covers that).
    pub(crate) fn raw_report(&self) -> Option<&TerminationReport> {
        self.raw_report
            .get_or_init(|| {
                let report = match self.raw_pending.take() {
                    Some(handle) => handle.join().unwrap_or_else(|panic| resume_unwind(panic)),
                    None => raw_analysis(self.program, self.query, self.memo.as_deref(), self.jobs),
                };
                self.record_incremental(report.as_ref().and_then(|r| r.incremental));
                report
            })
            .as_ref()
    }

    /// Merge one analysis run's memo counters into the accumulated
    /// per-lint-run total.
    pub fn record_incremental(&self, stats: Option<IncrementalRunStats>) {
        let Some(s) = stats else { return };
        let mut merged = self.incremental.get().unwrap_or_default();
        merged.merge(&s);
        self.incremental.set(Some(merged));
    }
}

/// The raw analysis behind [`LintContext::raw_report`]. It reads only
/// shared inputs, so it may run on a thread of its own.
fn raw_analysis(
    program: &Program,
    query: Option<&(PredKey, Adornment)>,
    memo: Option<&SccCache>,
    jobs: usize,
) -> Option<TerminationReport> {
    let (root, adornment) = query?;
    if !program.rules.iter().any(|r| r.head.key() == *root) {
        return None;
    }
    let options =
        AnalysisOptions { transform_phases: 0, parallelism: jobs, ..AnalysisOptions::default() };
    Some(analyze_with_caches(program, root, adornment.clone(), &options, None, memo))
}

/// One lint: inspects the program and appends diagnostics.
pub trait LintPass {
    /// Stable pass name (for `--explain`-style tooling and debugging).
    fn name(&self) -> &'static str;
    /// Run the pass.
    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// The default pass registry, in execution order.
pub fn default_passes() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(passes::SingletonVariables),
        Box::new(passes::UndefinedPredicates),
        Box::new(passes::UnusedPredicates),
        Box::new(passes::ArityMismatch),
        Box::new(passes::RangeRestriction),
        Box::new(moded::WellModedness),
        Box::new(moded::UnsafeNegation),
        Box::new(blame::TerminationBlame),
        Box::new(suggest::ConditionSuggestion),
    ]
}

/// The result of a memo-aware lint run: the diagnostics plus the memo
/// counters accumulated across the analysis-backed passes.
#[derive(Debug, Clone)]
pub struct LintRun {
    /// The diagnostics, sorted and deduplicated exactly as
    /// [`lint_program`] returns them.
    pub diagnostics: Vec<Diagnostic>,
    /// Summed memo hit/miss counters from every termination analysis the
    /// run performed; `None` when no memo was supplied or no
    /// analysis-backed pass ran.
    pub incremental: Option<IncrementalRunStats>,
}

/// Lint an already-parsed program.
///
/// `src` must be the text `program` was parsed from (it supplies variable
/// occurrence spans); pass `""` for programs built programmatically —
/// span-dependent lints then degrade gracefully.
pub fn lint_program(src: &str, program: &Program, options: &LintOptions) -> Vec<Diagnostic> {
    lint_program_memo(src, program, options, None, 0).diagnostics
}

/// [`lint_program`] with a per-SCC memo and a worker count for the
/// analysis-backed passes (the LSP server's entry point). Diagnostics are
/// byte-identical to [`lint_program`] at every memo/jobs setting; only
/// [`LintRun::incremental`] reflects the configuration.
///
/// `jobs` also decides where the shared raw analysis runs. With a query
/// and more than one worker ([`argus_core::par::effective_workers`]), it
/// starts on a scoped second thread before the syntactic passes
/// (L001–L008), which the calling thread runs meanwhile; the first
/// analysis-backed pass waits for it. With one worker the first
/// analysis-backed pass computes it on the calling thread.
pub fn lint_program_memo(
    src: &str,
    program: &Program,
    options: &LintOptions,
    memo: Option<Arc<SccCache>>,
    jobs: usize,
) -> LintRun {
    let query = options.query.as_ref();
    let overlap = query.is_some() && par::effective_workers(jobs, 2) > 1;
    let mut out = Vec::new();
    let incremental = std::thread::scope(|scope| {
        let raw_pending = overlap.then(|| {
            let memo = memo.as_deref();
            scope.spawn(move || raw_analysis(program, query, memo, jobs))
        });
        let graph = DepGraph::build(program);
        let ctx = LintContext {
            src,
            program,
            graph: &graph,
            query,
            memo: memo.clone(),
            jobs,
            incremental: Cell::new(None),
            raw_report: OnceCell::new(),
            raw_pending: Cell::new(raw_pending),
        };
        for pass in default_passes() {
            pass.run(&ctx, &mut out);
        }
        ctx.incremental.get()
    });
    // Deterministic order: by position, then code, then message; dedup.
    out.sort_by(|a, b| {
        let ka = (a.span.map(|s| (s.start, s.end)).unwrap_or((usize::MAX, usize::MAX)), a.code);
        let kb = (b.span.map(|s| (s.start, s.end)).unwrap_or((usize::MAX, usize::MAX)), b.code);
        ka.cmp(&kb).then_with(|| a.message.cmp(&b.message))
    });
    out.dedup();
    LintRun { diagnostics: out, incremental }
}

/// Lint source text. A parse failure yields a single `L000` diagnostic.
pub fn lint_source(src: &str, options: &LintOptions) -> Vec<Diagnostic> {
    lint_source_memo(src, options, None, 0).diagnostics
}

/// [`lint_source`] with a per-SCC memo and worker count (see
/// [`lint_program_memo`]).
pub fn lint_source_memo(
    src: &str,
    options: &LintOptions,
    memo: Option<Arc<SccCache>>,
    jobs: usize,
) -> LintRun {
    match parse_program(src) {
        Ok(program) => lint_program_memo(src, &program, options, memo, jobs),
        Err(e) => {
            // Reconstruct a byte offset for the error position so renderers
            // can excerpt the line.
            let index = argus_logic::span::LineIndex::new(src);
            let line_start = index.line_start(e.line).unwrap_or(src.len());
            let off = src[line_start..]
                .char_indices()
                .nth(e.col.saturating_sub(1))
                .map(|(i, _)| line_start + i)
                .unwrap_or(src.len());
            LintRun {
                diagnostics: vec![Diagnostic::new(
                    "L000",
                    Severity::Error,
                    Some(Span::new(off, (off + 1).min(src.len()), e.line, e.col)),
                    e.message,
                )],
                incremental: None,
            }
        }
    }
}

/// Does any diagnostic have [`Severity::Error`]?
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_is_l000() {
        let diags = lint_source("p(a) q(b).", &LintOptions::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "L000");
        assert_eq!(diags[0].severity, Severity::Error);
        let span = diags[0].span.unwrap();
        assert_eq!((span.line, span.col), (1, 6));
    }

    #[test]
    fn clean_program_is_quiet() {
        let src = "edge(a, b).\nedge(b, c).\n\
                   path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n\
                   main(X) :- path(a, X).\n";
        let diags = lint_source(src, &LintOptions::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn diagnostics_are_sorted_and_deduped() {
        let src = "main(Xs) :- missing(Xs), missing(Xs).\n";
        let diags = lint_source(src, &LintOptions::default());
        let starts: Vec<usize> = diags.iter().filter_map(|d| d.span.map(|s| s.start)).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }
}

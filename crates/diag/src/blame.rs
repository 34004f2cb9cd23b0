//! Termination-blame lints: L009 and L010.
//!
//! When the θ-search fails for an SCC, the analyzer's bare "not proved"
//! hides *which recursive call* defeats every argument-size measure. This
//! pass reads the lint run's shared raw analysis
//! ([`LintContext::raw_report`]: preprocessing disabled, so rule spans
//! survive untransformed) and surfaces the failure explanation as
//! ordinary diagnostics:
//!
//! * **L010** — a zero-weight recursion cycle (§6.1 step 3): strong
//!   evidence of actual nontermination, reported at the first recursive
//!   rule of the cycle;
//! * **L009** — no linear decrease: the [`PairBlame`] isolated by the
//!   analyzer points at the recursive call whose size constraints admit no
//!   decreasing measure (alone, or in conjunction with its siblings).
//!
//! Both need a query ([`crate::LintOptions::query`]); without one the pass
//! is silent.

use crate::{Diagnostic, LintContext, LintPass, Severity};
use argus_core::SccOutcome;
use argus_logic::span::Span;
use argus_logic::PredKey;

/// Surfaces termination-analysis failures (L009/L010) as lints.
pub struct TerminationBlame;

/// Span of the first parsed recursive rule whose head is in `members`.
fn cycle_span(ctx: &LintContext<'_>, members: &[PredKey]) -> Option<Span> {
    ctx.program
        .rules
        .iter()
        .filter(|r| members.contains(&r.head.key()))
        .filter(|r| r.body.iter().any(|l| members.contains(&l.atom.key())))
        .find_map(|r| r.head.span.get().or_else(|| r.span.get()))
}

impl LintPass for TerminationBlame {
    fn name(&self) -> &'static str {
        "termination-blame"
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(report) = ctx.raw_report() else { return };
        for scc in &report.sccs {
            match &scc.outcome {
                SccOutcome::ZeroWeightCycle(cycle) => {
                    let names: Vec<String> = cycle.iter().map(|p| p.to_string()).collect();
                    out.push(
                        Diagnostic::new(
                            "L010",
                            Severity::Warning,
                            cycle_span(ctx, cycle),
                            format!("zero-weight recursion cycle through {}", names.join(" -> ")),
                        )
                        .with_note(
                            "every step of this cycle can keep all bound argument sizes \
                             unchanged, so no argument-size measure decreases: strong \
                             evidence of nontermination",
                        ),
                    );
                }
                SccOutcome::NoLinearDecrease { refutation } => {
                    let (span, message) = match &scc.blame {
                        Some(blame) => (blame.subgoal_span(), blame.describe()),
                        None => {
                            let names: Vec<String> =
                                scc.members.iter().map(|p| p.to_string()).collect();
                            (
                                cycle_span(ctx, &scc.members),
                                format!(
                                    "no decreasing argument-size measure found for the \
                                     recursion through {}",
                                    names.join(", ")
                                ),
                            )
                        }
                    };
                    let mut d = Diagnostic::new("L009", Severity::Warning, span, message)
                        .with_note(
                            "no nonnegative linear combination of bound argument sizes \
                             decreases on every recursive call; termination is unproved \
                             (the method is sound, not complete)",
                        );
                    if refutation.is_some() {
                        d = d.with_note(
                            "the infeasibility is certified by a Farkas refutation \
                             (see `argus analyze` for the certificate)",
                        );
                    }
                    out.push(d);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_source, LintOptions};
    use argus_logic::parse_query_spec;

    fn options(spec: &str, adn: &str) -> LintOptions {
        LintOptions { query: Some(parse_query_spec(spec, adn).unwrap()) }
    }

    #[test]
    fn growing_recursion_is_l009_with_blame_span() {
        let src = "grow([], _).\ngrow([X|Xs], Ys) :- grow([X, X|Xs], Ys).\n";
        let diags = lint_source(src, &options("grow/2", "bf"));
        let d = diags.iter().find(|d| d.code == "L009").expect("L009");
        assert!(d.message.contains("grow"), "{}", d.message);
        let span = d.span.expect("blame span");
        assert_eq!(span.slice(src), Some("grow([X, X|Xs], Ys)"));
    }

    #[test]
    fn zero_weight_mutual_recursion_is_l010() {
        let src = "loop(X) :- hoop(X).\nhoop(X) :- loop(X).\nmain(X) :- loop(X).\n";
        let diags = lint_source(src, &options("main/1", "b"));
        let d = diags.iter().find(|d| d.code == "L010").expect("L010");
        assert!(d.message.contains("loop") && d.message.contains("hoop"), "{}", d.message);
        assert!(d.span.is_some());
    }

    #[test]
    fn terminating_program_has_no_blame_lints() {
        let src = "append([], Ys, Ys).\n\
                   append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).\n";
        let diags = lint_source(src, &options("append/3", "bbf"));
        assert!(!diags.iter().any(|d| d.code == "L009" || d.code == "L010"), "{diags:?}");
    }

    #[test]
    fn blame_lints_need_a_query() {
        let src = "grow([], _).\ngrow([X|Xs], Ys) :- grow([X, X|Xs], Ys).\n";
        let diags = lint_source(src, &LintOptions::default());
        assert!(!diags.iter().any(|d| d.code == "L009" || d.code == "L010"), "{diags:?}");
    }
}

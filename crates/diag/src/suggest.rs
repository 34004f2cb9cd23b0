//! L011 — suggest an inferred termination condition.
//!
//! L009/L010 explain *why* a query is unproven; this pass tells the user
//! what would make it provable. When the queried adornment fails, the
//! backwards inference engine ([`argus_core::backwards`]) computes the
//! predicate's full termination condition, and the diagnostic names the
//! condition plus the *nearest* disjunct — the one needing the fewest
//! additional bound arguments over what the query already binds:
//!
//! ```text
//! note[L011]: termination of append/3 with adornment fbf is unproven;
//!             provable if arg1 bound or arg3 bound
//!   = note: nearest provable instantiation: additionally bind arg1
//! ```
//!
//! Like the blame lints, L011 needs a query and is silent without one.
//! It is also silent when the condition is `false` (L009/L010 already
//! cover "nothing helps") — there is no instantiation to suggest.

use crate::{Diagnostic, LintContext, LintPass, Severity};
use argus_core::{
    analyze_with_caches, infer_conditions_for, AnalysisOptions, BackwardsOptions, Verdict,
};
use argus_logic::span::Span;
use argus_logic::PredKey;
use std::collections::BTreeSet;

/// Cap on exhaustive condition search inside a lint pass: 2⁴ probes with
/// the raw-first pipeline stays interactive even on FM-heavy programs.
const LINT_MAX_ARITY: usize = 4;

/// Suggests the nearest inferred termination condition (L011).
pub struct ConditionSuggestion;

/// Span of the first parsed recursive rule of `pred`'s SCC — the anchor
/// the blame lints use, so L009 and L011 point at the same place. Falls
/// back to any rule defining `pred` when the recursion is elsewhere in
/// the SCC chain.
fn recursion_span(ctx: &LintContext<'_>, pred: &PredKey) -> Option<Span> {
    let members: Vec<PredKey> =
        ctx.graph.scc_id(pred).map(|id| ctx.graph.scc(id)).unwrap_or_default();
    ctx.program
        .rules
        .iter()
        .filter(|r| r.head.key() == *pred || members.contains(&r.head.key()))
        .filter(|r| r.body.iter().any(|l| members.contains(&l.atom.key())))
        .chain(ctx.program.rules.iter().filter(|r| r.head.key() == *pred))
        .find_map(|r| r.head.span.get().or_else(|| r.span.get()))
}

impl LintPass for ConditionSuggestion {
    fn name(&self) -> &'static str {
        "condition-suggestion"
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        // The full pipeline below starts with the same raw analysis and
        // returns it unchanged when it proves termination, so the shared
        // report decides the common case without a second analysis.
        let (Some(raw), Some((root, adornment))) = (ctx.raw_report(), ctx.query) else { return };
        if raw.verdict == Verdict::Terminates {
            return;
        }
        let analysis = AnalysisOptions { parallelism: ctx.jobs, ..AnalysisOptions::default() };
        let report = analyze_with_caches(
            ctx.program,
            root,
            adornment.clone(),
            &analysis,
            None,
            ctx.memo.as_deref(),
        );
        ctx.record_incremental(report.incremental);
        if report.verdict == Verdict::Terminates {
            return;
        }
        let options = BackwardsOptions {
            max_arity: LINT_MAX_ARITY,
            analysis,
            scc_memo: ctx.memo.clone(),
            ..Default::default()
        };
        let inferred =
            infer_conditions_for(ctx.program, &[root.clone()].into_iter().collect(), &options);
        let Some(cond) = inferred.conditions.iter().find(|c| c.pred == *root) else { return };
        if cond.condition.is_false() {
            return; // L009/L010 already say nothing helps
        }

        let bound: BTreeSet<usize> = adornment.bound_positions().into_iter().collect();
        let nearest = cond
            .condition
            .disjuncts()
            .min_by_key(|d| (d.difference(&bound).count(), (*d).clone()))
            .expect("non-false condition has a disjunct");
        let missing: Vec<String> =
            nearest.difference(&bound).map(|p| format!("arg{}", p + 1)).collect();

        let with_adornment = if adornment.arity() == 0 {
            String::new()
        } else {
            format!(" with adornment {adornment}")
        };
        let mut d = Diagnostic::new(
            "L011",
            Severity::Note,
            recursion_span(ctx, root),
            format!(
                "termination of {root}{with_adornment} is unproven; provable if {}",
                cond.condition
            ),
        );
        d = if missing.is_empty() {
            // The condition covers the queried adornment even though the
            // direct analysis failed (possible on the fringes of the
            // abstraction); point at the disjunct that establishes it.
            d.with_note(format!(
                "the inferred condition already covers this instantiation \
                 (disjunct: {})",
                nearest.iter().map(|p| format!("arg{}", p + 1)).collect::<Vec<_>>().join(" and ")
            ))
        } else {
            d.with_note(format!(
                "nearest provable instantiation: additionally bind {}",
                missing.join(" and ")
            ))
        };
        if cond.capped {
            d = d.with_note(format!(
                "arity exceeds the inference cap ({LINT_MAX_ARITY}): only the all-bound \
                 instantiation was probed, so a weaker condition may exist"
            ));
        }
        out.push(d);
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_source, LintOptions};
    use argus_logic::parse_query_spec;

    fn options(spec: &str, adn: &str) -> LintOptions {
        LintOptions { query: Some(parse_query_spec(spec, adn).unwrap()) }
    }

    const APPEND: &str = "append([], Ys, Ys).\n\
                          append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).\n";

    #[test]
    fn unproven_query_gets_a_condition_suggestion() {
        let diags = lint_source(APPEND, &options("append/3", "fbf"));
        let d = diags.iter().find(|d| d.code == "L011").expect("L011");
        assert!(d.message.contains("arg1 bound or arg3 bound"), "{}", d.message);
        assert!(d.message.contains("fbf"), "{}", d.message);
        assert!(d.notes.iter().any(|n| n.contains("additionally bind arg1")), "{:?}", d.notes);
        assert!(d.span.is_some(), "anchored at the recursive rule");
    }

    #[test]
    fn proved_query_is_silent() {
        let diags = lint_source(APPEND, &options("append/3", "bff"));
        assert!(!diags.iter().any(|d| d.code == "L011"), "{diags:?}");
    }

    #[test]
    fn hopeless_query_is_left_to_blame_lints() {
        let diags = lint_source("p(X) :- p(X).\n", &options("p/1", "f"));
        assert!(!diags.iter().any(|d| d.code == "L011"), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "L009" || d.code == "L010"), "{diags:?}");
    }

    #[test]
    fn suggestion_needs_a_query() {
        let diags = lint_source(APPEND, &LintOptions::default());
        assert!(!diags.iter().any(|d| d.code == "L011"), "{diags:?}");
    }
}

//! Structural lint passes: L001–L006.
//!
//! These need only the parsed program (plus the source text for sub-atom
//! spans); none of them depend on a query adornment.

use crate::{Diagnostic, LintContext, LintPass, Severity};
use argus_logic::modes::is_builtin;
use argus_logic::parser::variable_spans;
use argus_logic::span::Span;
use argus_logic::{PredKey, Program, Rule, Sym};
use std::collections::{BTreeMap, BTreeSet};

/// L001: a named variable occurring exactly once in its clause. Almost
/// always a typo (the classic `Xs`/`X` slip); intentional one-shot
/// variables should be written `_` or `_Name`.
pub struct SingletonVariables;

impl LintPass for SingletonVariables {
    fn name(&self) -> &'static str {
        "singleton-variables"
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        // Lexer-level occurrences give per-occurrence spans, in source
        // order; bucket them into clauses by rule span. Each rule's bucket
        // is a binary search to its first occurrence plus a scan to its
        // end, so the pass stays linear in the file.
        let occurrences = variable_spans(ctx.src);
        for rule in &ctx.program.rules {
            let Some(rule_span) = rule.span.get() else { continue };
            let first = occurrences.partition_point(|(_, s)| s.start < rule_span.start);
            let in_rule: Vec<&(String, Span)> = occurrences[first..]
                .iter()
                .take_while(|(_, s)| s.start < rule_span.end)
                .filter(|(_, s)| s.within(&rule_span))
                .collect();
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for (name, _) in &in_rule {
                *counts.entry(name.as_str()).or_insert(0) += 1;
            }
            for (name, span) in &in_rule {
                if counts[name.as_str()] == 1 && !name.starts_with('_') {
                    out.push(
                        Diagnostic::new(
                            "L001",
                            Severity::Warning,
                            Some(*span),
                            format!("singleton variable `{name}`"),
                        )
                        .with_note(
                            "a variable used once binds nothing; name it `_` (or `_Name`) \
                             if intentional",
                        ),
                    );
                }
            }
        }
    }
}

/// L002: a body goal calls a predicate with no clauses (and which is not a
/// builtin). Top-down it just fails; for the termination analysis its SCC
/// simply never decreases anything.
pub struct UndefinedPredicates;

impl LintPass for UndefinedPredicates {
    fn name(&self) -> &'static str {
        "undefined-predicates"
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let idb = ctx.program.idb_predicates();
        let defined: Vec<PredKey> = idb.iter().cloned().collect();
        for rule in &ctx.program.rules {
            for lit in &rule.body {
                let key = lit.atom.key();
                if idb.contains(&key) || is_builtin(&key) {
                    continue;
                }
                let span = lit.atom.span.get().or_else(|| rule.span.get());
                out.push(Diagnostic::new(
                    "L002",
                    Severity::Error,
                    span,
                    format!("call to undefined predicate {key}"),
                ));
                // L005 piggybacks on the undefined-call scan: a defined
                // predicate of the same arity one edit away is almost
                // certainly what was meant.
                if let Some(candidate) = best_typo_candidate(&key, &defined) {
                    out.push(
                        Diagnostic::new(
                            "L005",
                            Severity::Warning,
                            span,
                            format!("`{}` looks like a typo", key.name),
                        )
                        .with_note(format!("did you mean `{}`?", candidate.name)),
                    );
                }
            }
        }
    }
}

/// The L002 error for a predicate named outside the program, such as a
/// query or an `infer` target, that `program` does not define. It reads
/// "`{what} {key} is not defined in {place}`", with a `did you mean` note
/// when [`best_typo_candidate`] finds a defined predicate one edit away.
pub fn undefined_predicate_error(
    program: &Program,
    what: &str,
    key: &PredKey,
    place: &str,
) -> Diagnostic {
    let defined: Vec<PredKey> = program.idb_predicates().into_iter().collect();
    let message = format!("{what} {key} is not defined in {place}");
    let d = Diagnostic::new("L002", Severity::Error, None, message);
    match best_typo_candidate(key, &defined) {
        Some(hit) => d.with_note(format!("did you mean `{hit}`?")),
        None => d,
    }
}

/// The unique defined predicate with the same arity within Damerau-
/// Levenshtein distance 1 of `key`, if any.
fn best_typo_candidate<'a>(key: &PredKey, defined: &'a [PredKey]) -> Option<&'a PredKey> {
    let mut hits =
        defined.iter().filter(|d| d.arity == key.arity && osa_distance(&d.name, &key.name) == 1);
    let first = hits.next()?;
    // Ambiguous suggestions help nobody.
    if hits.next().is_some() {
        return None;
    }
    Some(first)
}

/// Optimal-string-alignment edit distance (Levenshtein + adjacent
/// transposition) — catches `lenght`/`length`-style slips at distance 1.
fn osa_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return n.max(m);
    }
    let mut d = vec![vec![0usize; m + 1]; n + 1];
    for (i, row) in d.iter_mut().enumerate() {
        row[0] = i;
    }
    for (j, cell) in d[0].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=n {
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            d[i][j] = (d[i - 1][j] + 1).min(d[i][j - 1] + 1).min(d[i - 1][j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                d[i][j] = d[i][j].min(d[i - 2][j - 2] + 1);
            }
        }
    }
    d[n][m]
}

/// L003: a defined predicate that nothing uses. With a query, "used" means
/// reachable from the query predicate through positive or negative body
/// goals; without one, it means appearing in some body (entry points named
/// `main` are exempt).
pub struct UnusedPredicates;

impl LintPass for UnusedPredicates {
    fn name(&self) -> &'static str {
        "unused-predicates"
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let idb = ctx.program.idb_predicates();
        let live: BTreeSet<PredKey> = match ctx.query {
            Some((root, _)) => reachable_from(ctx, root),
            None => {
                let mut used: BTreeSet<PredKey> = ctx
                    .program
                    .rules
                    .iter()
                    .flat_map(|r| r.body.iter().map(|l| l.atom.key()))
                    .collect();
                used.extend(idb.iter().filter(|p| &*p.name == "main").cloned());
                used
            }
        };
        for pred in &idb {
            if live.contains(pred) {
                continue;
            }
            let span = first_head_span(ctx.program.procedure(pred).first().copied());
            let how = match ctx.query {
                Some((root, _)) => format!("not reachable from {root}"),
                None => "never called".to_string(),
            };
            out.push(Diagnostic::new(
                "L003",
                Severity::Warning,
                span,
                format!("predicate {pred} is unused ({how})"),
            ));
        }
    }
}

fn reachable_from(ctx: &LintContext<'_>, root: &PredKey) -> BTreeSet<PredKey> {
    let mut seen: BTreeSet<PredKey> = BTreeSet::new();
    let mut work = vec![root.clone()];
    while let Some(p) = work.pop() {
        if !seen.insert(p.clone()) {
            continue;
        }
        for rule in ctx.program.procedure(&p) {
            for lit in &rule.body {
                let k = lit.atom.key();
                if !seen.contains(&k) {
                    work.push(k);
                }
            }
        }
    }
    seen
}

fn first_head_span(rule: Option<&Rule>) -> Option<Span> {
    let rule = rule?;
    rule.head.span.get().or_else(|| rule.span.get())
}

/// L004: one name used with several arities. Legal (predicates are keyed
/// by name *and* arity) but, in a program that also fails to prove
/// something, overwhelmingly a forgotten argument.
pub struct ArityMismatch;

impl LintPass for ArityMismatch {
    fn name(&self) -> &'static str {
        "arity-mismatch"
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        // Count occurrences (heads + body goals) of each (name, arity).
        let mut by_name: BTreeMap<Sym, BTreeMap<usize, usize>> = BTreeMap::new();
        let mut record = |name: Sym, arity: usize| {
            *by_name.entry(name).or_default().entry(arity).or_insert(0) += 1;
        };
        for rule in &ctx.program.rules {
            record(rule.head.name, rule.head.args.len());
            for lit in &rule.body {
                record(lit.atom.name, lit.atom.args.len());
            }
        }
        // Flag occurrences of every arity other than the majority one.
        for rule in &ctx.program.rules {
            let heads = std::iter::once((&rule.head, rule.span.get()));
            let goals = rule.body.iter().map(|l| (&l.atom, l.span.get()));
            for (atom, fallback) in heads.chain(goals) {
                if is_builtin(&atom.key()) {
                    continue;
                }
                let arities = &by_name[&atom.name];
                if arities.len() < 2 {
                    continue;
                }
                let majority = arities
                    .iter()
                    .max_by_key(|(arity, count)| (**count, std::cmp::Reverse(**arity)))
                    .map(|(a, _)| *a)
                    .unwrap();
                let here = atom.args.len();
                if here != majority {
                    out.push(
                        Diagnostic::new(
                            "L004",
                            Severity::Warning,
                            atom.span.get().or(fallback),
                            format!(
                                "`{}` is used with arity {here} here but with arity \
                                 {majority} elsewhere",
                                atom.name
                            ),
                        )
                        .with_note(
                            "predicates are keyed by name AND arity; these are \
                             different predicates",
                        ),
                    );
                }
            }
        }
    }
}

/// L006: a clause whose head mentions a variable that no positive body
/// goal mentions. Such clauses derive non-ground facts: bottom-up (magic)
/// evaluation may not terminate on them and the size-relation inference
/// treats the unconstrained argument as unbounded.
pub struct RangeRestriction;

impl LintPass for RangeRestriction {
    fn name(&self) -> &'static str {
        "range-restriction"
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for rule in &ctx.program.rules {
            let positive_vars: BTreeSet<Sym> =
                rule.body.iter().filter(|l| l.positive).flat_map(|l| l.atom.vars()).collect();
            let loose: Vec<String> = rule
                .head
                .vars()
                .into_iter()
                .filter(|v| !positive_vars.contains(v) && !v.starts_with('_'))
                .map(|v| format!("`{v}`"))
                .collect();
            if loose.is_empty() {
                continue;
            }
            out.push(
                Diagnostic::new(
                    "L006",
                    Severity::Note,
                    rule.head.span.get().or_else(|| rule.span.get()),
                    format!(
                        "clause is not range-restricted: head variable{} {} {} in no \
                         positive body goal",
                        if loose.len() == 1 { "" } else { "s" },
                        loose.join(", "),
                        if loose.len() == 1 { "occurs" } else { "occur" },
                    ),
                )
                .with_note("bottom-up evaluation derives non-ground facts from such clauses"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, LintOptions};
    use argus_logic::modes::Adornment;

    fn codes(src: &str) -> Vec<&'static str> {
        lint_source(src, &LintOptions::default()).iter().map(|d| d.code).collect()
    }

    #[test]
    fn singleton_variable_found_with_span() {
        let src = "main(Xs) :- length(Xs, Len).\nlength([], 0).\nlength([_|T], N) :- length(T, M), N is M + 1.\n";
        let diags = lint_source(src, &LintOptions::default());
        let l001: Vec<_> = diags.iter().filter(|d| d.code == "L001").collect();
        assert_eq!(l001.len(), 1, "{diags:?}");
        assert!(l001[0].message.contains("`Len`"));
        assert_eq!(l001[0].span.unwrap().slice(src), Some("Len"));
    }

    #[test]
    fn singleton_scan_matches_a_per_rule_filter() {
        let src = "p(X, Y) :- q(Y).  q(Z).\nr(A, _B, A) :- s(C).\n\
                   s(W) :- t(V, W).\nt(K, L) :- q(K), u(M).\nu(a).\n";
        let mut program = argus_logic::parser::parse_program(src).unwrap();
        program.rules[4].span = argus_logic::span::SpanSlot::none();
        // Brute force: every occurrence tested against every rule span.
        let occurrences = variable_spans(src);
        let mut expected: Vec<(Span, String)> = Vec::new();
        for rule in &program.rules {
            let Some(rule_span) = rule.span.get() else { continue };
            let in_rule: Vec<_> =
                occurrences.iter().filter(|(_, s)| s.within(&rule_span)).collect();
            for (name, span) in &in_rule {
                let count = in_rule.iter().filter(|(n, _)| n == name).count();
                if count == 1 && !name.starts_with('_') {
                    expected.push((*span, format!("singleton variable `{name}`")));
                }
            }
        }
        expected.sort_by_key(|(s, _)| s.start);
        let got: Vec<(Span, String)> = crate::lint_program(src, &program, &LintOptions::default())
            .into_iter()
            .filter(|d| d.code == "L001")
            .map(|d| (d.span.unwrap(), d.message))
            .collect();
        assert_eq!(got, expected);
        let names: Vec<&str> = got.iter().filter_map(|(s, _)| s.slice(src)).collect();
        assert_eq!(names, ["X", "Z", "C", "V"], "the spanless rule's L and M are skipped");
    }

    #[test]
    fn underscore_variables_are_not_singletons() {
        let src = "p(_, _Ignored, X) :- q(X).\nq(a).\n";
        assert!(!codes(src).contains(&"L001"), "{:?}", codes(src));
    }

    #[test]
    fn undefined_predicate_found() {
        let src = "main(X) :- missing(X).\n";
        let diags = lint_source(src, &LintOptions::default());
        let d = diags.iter().find(|d| d.code == "L002").expect("L002");
        assert!(d.message.contains("missing/1"));
        assert_eq!(d.span.unwrap().slice(src), Some("missing(X)"));
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn typo_suggestion_at_distance_one() {
        // Transposition: lenght -> length (OSA distance 1).
        let src = "main(Xs, N) :- lenght(Xs, N).\n\
                   length([], 0).\nlength([_|T], N) :- length(T, M), N is M + 1.\n";
        let diags = lint_source(src, &LintOptions::default());
        let d = diags.iter().find(|d| d.code == "L005").expect("L005");
        assert!(d.notes.iter().any(|n| n.contains("length")), "{diags:?}");
    }

    #[test]
    fn osa_distance_handles_transpositions() {
        assert_eq!(osa_distance("lenght", "length"), 1);
        assert_eq!(osa_distance("append", "append"), 0);
        assert_eq!(osa_distance("mebmer", "member"), 1);
        assert_eq!(osa_distance("ab", "ba"), 1);
        assert_eq!(osa_distance("abc", "cab"), 2);
    }

    #[test]
    fn unused_predicate_without_query() {
        let src = "main(X) :- used(X).\nused(a).\norphan(b).\n";
        let diags = lint_source(src, &LintOptions::default());
        let d = diags.iter().find(|d| d.code == "L003").expect("L003");
        assert!(d.message.contains("orphan/1"));
        assert_eq!(d.span.unwrap().slice(src), Some("orphan(b)"));
    }

    #[test]
    fn unused_predicate_by_reachability() {
        let src = "entry(X) :- used(X).\nused(a).\nother(b).\n";
        let options = LintOptions {
            query: Some((argus_logic::PredKey::new("entry", 1), Adornment::parse("b").unwrap())),
        };
        let diags = lint_source(src, &options);
        let unused: Vec<_> =
            diags.iter().filter(|d| d.code == "L003").map(|d| d.message.clone()).collect();
        assert_eq!(unused.len(), 1, "{diags:?}");
        assert!(unused[0].contains("other/1"));
    }

    #[test]
    fn arity_mismatch_flags_minority_use() {
        let src = "main(Xs) :- length(Xs), length(Xs, _).\n\
                   length([], 0).\nlength([_|T], N) :- length(T, M), N is M + 1.\n";
        let diags = lint_source(src, &LintOptions::default());
        let d = diags.iter().find(|d| d.code == "L004").expect("L004");
        assert!(d.message.contains("arity 1"), "{}", d.message);
        assert_eq!(d.span.unwrap().slice(src), Some("length(Xs)"));
    }

    #[test]
    fn range_restriction_flags_non_ground_fact() {
        let src = "pair(X, 7).\nmain(Y) :- pair(Y, Z), use(Z).\nuse(_).\n";
        let diags = lint_source(src, &LintOptions::default());
        let d = diags.iter().find(|d| d.code == "L006").expect("L006");
        assert!(d.message.contains("`X`"), "{}", d.message);
        assert_eq!(d.span.unwrap().slice(src), Some("pair(X, 7)"));
    }

    #[test]
    fn range_restriction_ok_for_chained_vars() {
        let src = "main(Y) :- gen(Y).\ngen([]).\n";
        assert!(!codes(src).contains(&"L006"));
    }
}

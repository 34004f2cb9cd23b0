//! Moded lint passes: L007 (well-modedness) and L008 (unsafe negation).
//!
//! Both run an abstract left-to-right execution of every clause body,
//! tracking the set of variables certainly ground at each goal — the same
//! discipline as [`argus_logic::groundness`], specialized to diagnosis:
//!
//! * a **test builtin** (`<`, `=<`, …) demands all its variables ground
//!   and grounds nothing;
//! * `is`/2 demands its right-hand side ground and grounds its left;
//! * `=`/2 grounds either side once the other is ground;
//! * a call to a **defined** predicate grounds all its variables on
//!   success (success-groundness of range-restricted procedures);
//! * a call to an **undefined** predicate grounds nothing (it cannot
//!   succeed);
//! * a **negated** goal demands all its variables ground (else the
//!   negation-as-failure test floats over an unbound variable —
//!   "floundering") and grounds nothing.
//!
//! With a query adornment ([`crate::LintOptions::query`]), head-argument
//! groundness comes from propagating that adornment ([`infer_modes`]);
//! without one, every head argument is assumed bound (the most permissive
//! assumption — anything flagged is wrong under *every* adornment).

use crate::{Diagnostic, LintContext, LintPass, Severity};
use argus_logic::modes::{infer_modes, is_builtin, Mode, ModeMap, TEST_BUILTINS};
use argus_logic::{Literal, PredKey, Rule, Sym};
use std::collections::{BTreeSet, HashSet};

/// The ground-variable set at one program point.
type GroundSet = HashSet<Sym>;

/// What the abstract execution of one literal observed.
enum Step {
    /// Fine; the literal grounded these variables.
    Ok,
    /// The literal needs these variables ground and they are not.
    Unbound(Vec<Sym>),
}

fn unbound_vars(vars: impl IntoIterator<Item = Sym>, ground: &GroundSet) -> Vec<Sym> {
    vars.into_iter().filter(|v| !ground.contains(v)).collect()
}

/// Abstractly execute `lit`, updating `ground`. Returns what was observed.
fn step(lit: &Literal, defined: &BTreeSet<PredKey>, ground: &mut GroundSet) -> Step {
    let key = lit.atom.key();
    if !lit.positive {
        let missing = unbound_vars(lit.atom.vars(), ground);
        return if missing.is_empty() { Step::Ok } else { Step::Unbound(missing) };
    }
    if key.arity == 2 && TEST_BUILTINS.contains(&&*key.name) {
        let missing = unbound_vars(lit.atom.vars(), ground);
        return if missing.is_empty() { Step::Ok } else { Step::Unbound(missing) };
    }
    if &*key.name == "is" && key.arity == 2 {
        let missing = unbound_vars(lit.atom.args[1].vars(), ground);
        if !missing.is_empty() {
            return Step::Unbound(missing);
        }
        ground.extend(lit.atom.args[0].vars());
        return Step::Ok;
    }
    if &*key.name == "=" && key.arity == 2 {
        let lhs = lit.atom.args[0].vars();
        let rhs = lit.atom.args[1].vars();
        if lhs.iter().all(|v| ground.contains(v)) {
            ground.extend(rhs);
        } else if rhs.iter().all(|v| ground.contains(v)) {
            ground.extend(lhs);
        }
        return Step::Ok;
    }
    if defined.contains(&key) && !is_builtin(&key) {
        ground.extend(lit.atom.vars());
    }
    Step::Ok
}

/// The initially-ground variables of a rule head under `modes` (or all
/// head variables when the head predicate has no recorded adornment).
fn initial_ground(rule: &Rule, modes: Option<&ModeMap>) -> GroundSet {
    let adornment = modes.and_then(|m| m.get(&rule.head.key()));
    let mut ground = GroundSet::new();
    for (i, arg) in rule.head.args.iter().enumerate() {
        let bound = match adornment {
            Some(a) => a.0.get(i) == Some(&Mode::Bound),
            None => true,
        };
        if bound {
            ground.extend(arg.vars());
        }
    }
    ground
}

/// Propagated adornments for the lint query, if one was given.
fn query_modes(ctx: &LintContext<'_>) -> Option<ModeMap> {
    let (root, adornment) = ctx.query?;
    Some(infer_modes(ctx.program, root, adornment.clone()))
}

fn fmt_vars(vars: &[Sym]) -> String {
    let parts: Vec<String> = vars.iter().map(|v| format!("`{v}`")).collect();
    parts.join(", ")
}

/// L007: a goal that demands ground arguments is reached with unbound
/// variables — the clause is not well-moded for the analyzed adornment,
/// and at runtime the goal would throw an instantiation error (or compare
/// unbound cells by address).
pub struct WellModedness;

impl LintPass for WellModedness {
    fn name(&self) -> &'static str {
        "well-modedness"
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let modes = query_modes(ctx);
        let defined = ctx.program.idb_predicates();
        for rule in &ctx.program.rules {
            // Skip rules unreachable under the query's adornment: their
            // binding pattern is unknown, not wrong.
            if let Some(m) = &modes {
                if m.get(&rule.head.key()).is_none() {
                    continue;
                }
            }
            let mut ground = initial_ground(rule, modes.as_ref());
            for lit in &rule.body {
                let is_moded_goal = lit.positive
                    && (TEST_BUILTINS.contains(&&*lit.atom.name) || &*lit.atom.name == "is");
                let before = ground.clone();
                if let Step::Unbound(missing) = step(lit, &defined, &mut ground) {
                    if !is_moded_goal {
                        continue; // negation is L008's business
                    }
                    ground = before;
                    let what = if &*lit.atom.name == "is" {
                        "arithmetic on unbound"
                    } else {
                        "comparison of unbound"
                    };
                    // Prefer the goal as written (`N > 3`) to the parsed
                    // functor form (`>(N, 3)`).
                    let shown = lit
                        .span
                        .get()
                        .and_then(|s| s.slice(ctx.src))
                        .map(str::to_string)
                        .unwrap_or_else(|| lit.atom.to_string());
                    out.push(
                        Diagnostic::new(
                            "L007",
                            Severity::Warning,
                            lit.span.get().or_else(|| rule.span.get()),
                            format!(
                                "goal `{}` is not well-moded: {what} variable{} {}",
                                shown,
                                if missing.len() == 1 { "" } else { "s" },
                                fmt_vars(&missing),
                            ),
                        )
                        .with_note(match ctx.query {
                            Some((root, a)) => format!(
                                "under the adornment propagated from {root} ({})",
                                a.0.iter()
                                    .map(|m| if *m == Mode::Bound { 'b' } else { 'f' })
                                    .collect::<String>()
                            ),
                            None => "assuming every head argument bound".to_string(),
                        }),
                    );
                }
            }
        }
    }
}

/// L008: a negated goal over variables that nothing has bound. Negation
/// as failure is only sound on ground goals; an unbound variable makes
/// the query flounder (the paper's method likewise assumes negated
/// subgoals are fully bound when reached).
pub struct UnsafeNegation;

impl LintPass for UnsafeNegation {
    fn name(&self) -> &'static str {
        "unsafe-negation"
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let modes = query_modes(ctx);
        let defined = ctx.program.idb_predicates();
        for rule in &ctx.program.rules {
            if let Some(m) = &modes {
                if m.get(&rule.head.key()).is_none() {
                    continue;
                }
            }
            let mut ground = initial_ground(rule, modes.as_ref());
            for lit in &rule.body {
                let before = ground.clone();
                if let Step::Unbound(missing) = step(lit, &defined, &mut ground) {
                    ground = before;
                    if lit.positive {
                        continue; // moded builtins are L007's business
                    }
                    out.push(
                        Diagnostic::new(
                            "L008",
                            Severity::Warning,
                            lit.span.get().or_else(|| rule.span.get()),
                            format!(
                                "unsafe negation `{lit}`: variable{} {} {} unbound here",
                                if missing.len() == 1 { "" } else { "s" },
                                fmt_vars(&missing),
                                if missing.len() == 1 { "is" } else { "are" },
                            ),
                        )
                        .with_note(
                            "negation as failure is only sound on ground goals; \
                             this query flounders",
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_source, LintOptions};
    use argus_logic::parse_query_spec;

    fn moded_options(spec: &str, adn: &str) -> LintOptions {
        LintOptions { query: Some(parse_query_spec(spec, adn).unwrap()) }
    }

    #[test]
    fn comparison_on_unbound_is_l007() {
        let src = "main(Xs) :- N > 3, use(Xs, N).\nuse(_, _).\n";
        let diags = lint_source(src, &moded_options("main/1", "b"));
        let d = diags.iter().find(|d| d.code == "L007").expect("L007");
        assert!(d.message.contains("`N`"), "{}", d.message);
        assert_eq!(d.span.unwrap().slice(src), Some("N > 3"));
    }

    #[test]
    fn is_with_unbound_rhs_is_l007() {
        let src = "main(X) :- Y is X + Z, use(Y, Z).\nuse(_, _).\n";
        let diags = lint_source(src, &moded_options("main/1", "b"));
        let d = diags.iter().find(|d| d.code == "L007").expect("L007");
        assert!(d.message.contains("`Z`"), "{}", d.message);
        assert!(!d.message.contains("`X`"), "X is bound: {}", d.message);
    }

    #[test]
    fn bound_comparison_is_clean() {
        let src = "main(X, Y) :- X =< Y.\n";
        let diags = lint_source(src, &moded_options("main/2", "bb"));
        assert!(!diags.iter().any(|d| d.code == "L007"), "{diags:?}");
    }

    #[test]
    fn defined_call_grounds_its_variables() {
        // length/2 is defined, so N is ground by the time of the test.
        let src = "main(Xs) :- length(Xs, N), N > 0.\n\
                   length([], 0).\nlength([_|T], N) :- length(T, M), N is M + 1.\n";
        let diags = lint_source(src, &moded_options("main/1", "b"));
        assert!(!diags.iter().any(|d| d.code == "L007"), "{diags:?}");
    }

    #[test]
    fn negation_over_unbound_is_l008() {
        let src = "main(Xs) :- \\+ member(Y, Xs).\n\
                   member(X, [X|_]).\nmember(X, [_|T]) :- member(X, T).\n";
        let diags = lint_source(src, &moded_options("main/1", "b"));
        let d = diags.iter().find(|d| d.code == "L008").expect("L008");
        assert!(d.message.contains("`Y`"), "{}", d.message);
        assert_eq!(d.span.unwrap().slice(src), Some("\\+ member(Y, Xs)"));
    }

    #[test]
    fn ground_negation_is_safe() {
        let src = "main(X, Ys) :- \\+ member(X, Ys).\n\
                   member(X, [X|_]).\nmember(X, [_|T]) :- member(X, T).\n";
        let diags = lint_source(src, &moded_options("main/2", "bb"));
        assert!(!diags.iter().any(|d| d.code == "L008"), "{diags:?}");
    }

    #[test]
    fn zero_arity_goals_are_harmless() {
        // Zero-arity predicates have no variables to bind; neither pass
        // should trip over them (negated or not).
        let src = "go :- init, \\+ stopped, run(X), X > 0.\n\
                   init.\nstopped.\nrun(1).\n";
        let diags = lint_source(src, &moded_options("go/0", ""));
        assert!(!diags.iter().any(|d| d.code == "L008"), "{diags:?}");
        // X is grounded by run/1 (defined), so the comparison is moded.
        assert!(!diags.iter().any(|d| d.code == "L007"), "{diags:?}");
    }

    #[test]
    fn moded_lints_without_query_assume_bound_heads() {
        let src = "p(X) :- X > 0.\np(X) :- Y > X, use(Y).\nuse(_).\n";
        let diags = lint_source(src, &LintOptions::default());
        let l007: Vec<_> = diags.iter().filter(|d| d.code == "L007").collect();
        assert_eq!(l007.len(), 1, "{diags:?}");
        assert!(l007[0].message.contains("`Y`"));
    }
}

//! # argus-baselines — earlier termination-detection methods
//!
//! Implementations (faithful in decision power on this corpus, simplified
//! in engineering) of the methods the paper compares against in its
//! related-work discussion (§1.1), so that the "earlier published methods
//! fail on these programs" claims can be regenerated:
//!
//! * [`NaishSubset`] — Naish \[Nai83\] / Sagiv–Ullman \[SU84\]: find a subset
//!   of bound argument positions such that every recursive call strictly
//!   reduces at least one (by the proper-subterm order) and increases
//!   none. Handles `append`; cannot handle `perm` (no argument is a
//!   subterm) and does not treat mutual recursion.
//! * [`UvgSingleArgument`] — Ullman–Van Gelder \[UVG88\]: a term-*size*
//!   measure ("length of right spine") on a single bound argument that
//!   provably decreases in every recursive call, with pairwise
//!   inequalities only. Handles `append`; cannot handle `merge` (neither
//!   argument decreases in both rules) nor `perm`.
//! * [`BrodskySagivBinary`] — Brodsky–Sagiv \[BS89a/b\] via the paper's
//!   Appendix B translation: the full LP-duality engine, but with imported
//!   relations truncated to *binary partial-order constraints*. Handles
//!   `merge` and the parser of Example 6.1; loses `perm`, whose `append`
//!   constraint relates three argument sizes (exactly the paper's
//!   Appendix B observation).
//! * [`SohnVanGelder`] — the paper's own method (a thin wrapper over
//!   `argus-core`), for the comparison matrix.

#![warn(missing_docs)]

pub mod engines;

pub use engines::{
    engine_by_id, engines_for, standard_engines, SctEngine, ThetaEngine, ENGINE_IDS,
};

use argus_core::{AnalysisOptions, Verdict};
use argus_logic::modes::Adornment;
use argus_logic::{DepGraph, PredKey, Program, Term};

/// The outcome of running one method on one (program, query, adornment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodResult {
    /// Did the method prove termination?
    pub proved: bool,
    /// Human-readable explanation (witness or failure reason).
    pub detail: String,
}

/// A termination-detection method, for side-by-side comparison.
pub trait TerminationMethod {
    /// Short display name.
    fn name(&self) -> &'static str;
    /// Attempt to prove top-down termination of `query` with `adornment`.
    fn prove(&self, program: &Program, query: &PredKey, adornment: &Adornment) -> MethodResult;
}

/// Is `needle` a subterm of `haystack` (reflexive)?
fn is_subterm(needle: &Term, haystack: &Term) -> bool {
    if needle == haystack {
        return true;
    }
    match haystack {
        Term::Var(_) => false,
        Term::App(_, args) => args.iter().any(|a| is_subterm(needle, a)),
    }
}

/// Is `needle` a *proper* subterm of `haystack`?
fn is_proper_subterm(needle: &Term, haystack: &Term) -> bool {
    needle != haystack && is_subterm(needle, haystack)
}

/// Naish \[Nai83\] / Sagiv–Ullman \[SU84\]: subset-of-arguments descent by the
/// proper-subterm order.
///
/// For each directly-recursive predicate, search for a nonempty subset `S`
/// of its bound argument positions such that in every rule, every
/// same-predicate recursive subgoal has (a) each argument in `S` a
/// (reflexive) subterm of the corresponding head argument, and (b) at
/// least one argument in `S` a *proper* subterm. Mutual recursion is out
/// of scope for the method (no positional correspondence between different
/// predicates), and is reported as failure.
pub struct NaishSubset;

impl TerminationMethod for NaishSubset {
    fn name(&self) -> &'static str {
        "Naish/Sagiv-Ullman subset"
    }

    fn prove(&self, program: &Program, query: &PredKey, adornment: &Adornment) -> MethodResult {
        let adorned = argus_logic::adorn_program(program, query, adornment.clone());
        let program = &adorned.program;
        let graph = DepGraph::build(program);

        for scc_id in graph.sccs_bottom_up() {
            let members = graph.scc(scc_id);
            if !members.iter().any(|p| adorned.modes.get(p).is_some()) {
                continue;
            }
            let recursive = members.iter().any(|p| graph.is_recursive(p));
            if !recursive {
                continue;
            }
            if members.len() > 1 {
                return MethodResult {
                    proved: false,
                    detail: format!(
                        "mutual recursion among {{{}}} is outside the method",
                        members.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(", ")
                    ),
                };
            }
            let pred = &members[0];
            let bound = adorned
                .modes
                .get(pred)
                .map(|a| a.bound_positions())
                .unwrap_or_else(|| (0..pred.arity).collect());
            if bound.is_empty() {
                return MethodResult {
                    proved: false,
                    detail: format!("{pred} has no bound arguments"),
                };
            }
            // Enumerate subsets (bound-argument counts are tiny).
            let mut found = false;
            'subset: for mask in 1u32..(1u32 << bound.len()) {
                let subset: Vec<usize> = bound
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| mask & (1 << bit) != 0)
                    .map(|(_, &pos)| pos)
                    .collect();
                for rule in program.procedure(pred) {
                    for si in graph.recursive_subgoals(rule) {
                        let sub = &rule.body[si].atom;
                        if sub.key() != *pred {
                            continue 'subset; // different predicate: no mapping
                        }
                        let mut some_proper = false;
                        for &k in &subset {
                            let h = &rule.head.args[k];
                            let s = &sub.args[k];
                            if !is_subterm(s, h) {
                                continue 'subset;
                            }
                            if is_proper_subterm(s, h) {
                                some_proper = true;
                            }
                        }
                        if !some_proper {
                            continue 'subset;
                        }
                    }
                }
                found = true;
                break;
            }
            if !found {
                return MethodResult {
                    proved: false,
                    detail: format!("no decreasing argument subset for {pred}"),
                };
            }
        }
        MethodResult { proved: true, detail: "argument subset descent found".into() }
    }
}

/// Length of the right spine of a term, as a pair
/// `(constant, Option<variable>)`: `rs(v) = v`, `rs(c) = 0`,
/// `rs(f(t1…tn)) = 1 + rs(tn)`. This is the measure of \[UVG88\] ("length
/// of right spine … corresponds to length for lists").
fn right_spine(t: &Term) -> (i64, Option<argus_logic::Sym>) {
    match t {
        Term::Var(v) => (0, Some(*v)),
        Term::App(_, args) => match args.last() {
            None => (0, None),
            Some(last) => {
                let (k, v) = right_spine(last);
                (k + 1, v)
            }
        },
    }
}

/// Ullman–Van Gelder \[UVG88\]: one bound argument position per predicate
/// whose right-spine length strictly decreases in every recursive call.
/// Only pairwise (same-position) comparisons are made — no imported
/// multi-argument constraints — which is what limits the method on `merge`
/// and `perm`.
pub struct UvgSingleArgument;

impl TerminationMethod for UvgSingleArgument {
    fn name(&self) -> &'static str {
        "Ullman-Van Gelder single argument"
    }

    fn prove(&self, program: &Program, query: &PredKey, adornment: &Adornment) -> MethodResult {
        let adorned = argus_logic::adorn_program(program, query, adornment.clone());
        let program = &adorned.program;
        let graph = DepGraph::build(program);

        for scc_id in graph.sccs_bottom_up() {
            let members = graph.scc(scc_id);
            if !members.iter().any(|p| adorned.modes.get(p).is_some()) {
                continue;
            }
            if !members.iter().any(|p| graph.is_recursive(p)) {
                continue;
            }
            // One argument index, shared positionally across the SCC, that
            // decreases across every recursive call (the method's
            // "uniqueness"-style restriction).
            let bound_sets: Vec<Vec<usize>> = members
                .iter()
                .map(|p| adorned.modes.get(p).map(|a| a.bound_positions()).unwrap_or_default())
                .collect();
            let common: Vec<usize> = bound_sets
                .iter()
                .fold(None::<Vec<usize>>, |acc, s| match acc {
                    None => Some(s.clone()),
                    Some(a) => Some(a.into_iter().filter(|k| s.contains(k)).collect()),
                })
                .unwrap_or_default();
            let mut ok_pos = None;
            'pos: for &k in &common {
                for rule in graph.scc_rules(program, scc_id) {
                    for si in graph.recursive_subgoals(rule) {
                        let sub = &rule.body[si].atom;
                        if k >= rule.head.args.len() || k >= sub.args.len() {
                            continue 'pos;
                        }
                        let (hc, hv) = right_spine(&rule.head.args[k]);
                        let (sc, sv) = right_spine(&sub.args[k]);
                        // Provable strict decrease: same spine variable (or
                        // both closed) and smaller constant.
                        let comparable = hv == sv;
                        if !(comparable && sc < hc) {
                            continue 'pos;
                        }
                    }
                }
                ok_pos = Some(k);
                break;
            }
            if ok_pos.is_none() {
                return MethodResult {
                    proved: false,
                    detail: format!(
                        "no single bound argument decreases in every recursive call of {{{}}}",
                        members.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(", ")
                    ),
                };
            }
        }
        MethodResult { proved: true, detail: "right-spine measure decreases".into() }
    }
}

/// Brodsky–Sagiv-style method via the paper's Appendix B translation: the
/// full duality engine restricted to binary partial-order information.
pub struct BrodskySagivBinary;

impl TerminationMethod for BrodskySagivBinary {
    fn name(&self) -> &'static str {
        "Brodsky-Sagiv binary orders"
    }

    fn prove(&self, program: &Program, query: &PredKey, adornment: &Adornment) -> MethodResult {
        let options = AnalysisOptions {
            restrict_imports_to_binary_orders: true,
            ..AnalysisOptions::default()
        };
        let report = argus_core::analyze(program, query, adornment.clone(), &options);
        MethodResult {
            proved: report.verdict == Verdict::Terminates,
            detail: format!("{:?} under binary-order imports", report.verdict),
        }
    }
}

/// The paper's method (this library), wrapped for the comparison matrix.
pub struct SohnVanGelder;

impl TerminationMethod for SohnVanGelder {
    fn name(&self) -> &'static str {
        "Sohn-Van Gelder (this paper)"
    }

    fn prove(&self, program: &Program, query: &PredKey, adornment: &Adornment) -> MethodResult {
        let report =
            argus_core::analyze(program, query, adornment.clone(), &AnalysisOptions::default());
        MethodResult {
            proved: report.verdict == Verdict::Terminates,
            detail: format!("{:?}", report.verdict),
        }
    }
}

/// Size-change termination (`argus-sct`), wrapped for the comparison
/// matrix beside the methods above. Not a "prior" method — it is the
/// portfolio's second engine — but the E15 win-count experiment wants it
/// in the same table.
pub struct SizeChange;

impl TerminationMethod for SizeChange {
    fn name(&self) -> &'static str {
        "Size-change termination"
    }

    fn prove(&self, program: &Program, query: &PredKey, adornment: &Adornment) -> MethodResult {
        let options = AnalysisOptions::default();
        let prepared = argus_core::prepare(program, query, adornment.clone(), &options, None);
        let report = argus_sct::analyze_sct(&prepared, &options, None);
        MethodResult { proved: report.proved, detail: report.detail() }
    }
}

/// All five methods, in presentation order.
pub fn all_methods() -> Vec<Box<dyn TerminationMethod>> {
    vec![
        Box::new(NaishSubset),
        Box::new(UvgSingleArgument),
        Box::new(BrodskySagivBinary),
        Box::new(SizeChange),
        Box::new(SohnVanGelder),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_logic::parser::parse_program;

    fn run(m: &dyn TerminationMethod, src: &str, name: &str, arity: usize, adn: &str) -> bool {
        let p = parse_program(src).unwrap();
        m.prove(&p, &PredKey::new(name, arity), &Adornment::parse(adn).unwrap()).proved
    }

    const APPEND: &str = "append([], Ys, Ys).\n\
                          append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).";

    const MERGE: &str = "merge([], Ys, Ys).\n\
                         merge(Xs, [], Xs).\n\
                         merge([X|Xs], [Y|Ys], [X|Zs]) :- X =< Y, merge([Y|Ys], Xs, Zs).\n\
                         merge([X|Xs], [Y|Ys], [Y|Zs]) :- Y =< X, merge(Ys, [X|Xs], Zs).";

    const PERM: &str = "perm([], []).\n\
                        perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).\n\
                        append([], Ys, Ys).\n\
                        append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).";

    const PARSER: &str = "e(L, T) :- t(L, ['+'|C]), e(C, T).\n\
                          e(L, T) :- t(L, T).\n\
                          t(L, T) :- n(L, ['*'|C]), t(C, T).\n\
                          t(L, T) :- n(L, T).\n\
                          n(['('|A], T) :- e(A, [')'|T]).\n\
                          n([L|T], T) :- z(L).";

    #[test]
    fn naish_proves_append() {
        assert!(run(&NaishSubset, APPEND, "append", 3, "bff"));
    }

    #[test]
    fn naish_fails_merge_variant() {
        // Naish's original method picks the decreasing argument per rule;
        // our positional-subset variant (Sagiv–Ullman flavored) requires
        // non-increase of the whole subset, which merge's argument-swap
        // violates ([Y|Ys] is not a subterm of [X|Xs]). Documented in
        // EXPERIMENTS.md E5.
        assert!(!run(&NaishSubset, MERGE, "merge", 3, "bbf"));
    }

    #[test]
    fn naish_fails_perm_and_mutual() {
        assert!(!run(&NaishSubset, PERM, "perm", 2, "bf"));
        assert!(!run(&NaishSubset, PARSER, "e", 2, "bf"));
    }

    #[test]
    fn uvg_proves_append_fails_merge_perm() {
        assert!(run(&UvgSingleArgument, APPEND, "append", 3, "bff"));
        assert!(!run(&UvgSingleArgument, MERGE, "merge", 3, "bbf"));
        assert!(!run(&UvgSingleArgument, PERM, "perm", 2, "bf"));
    }

    #[test]
    fn bs_binary_proves_merge_and_parser_not_perm() {
        assert!(run(&BrodskySagivBinary, MERGE, "merge", 3, "bbf"));
        assert!(run(&BrodskySagivBinary, PARSER, "e", 2, "bf"));
        // Appendix B: "This translation was found to be sufficient to
        // handle Example 5.1 and Example 6.1, but not Example 3.1."
        assert!(!run(&BrodskySagivBinary, PERM, "perm", 2, "bf"));
    }

    #[test]
    fn svg_proves_all_four() {
        assert!(run(&SohnVanGelder, APPEND, "append", 3, "bff"));
        assert!(run(&SohnVanGelder, MERGE, "merge", 3, "bbf"));
        assert!(run(&SohnVanGelder, PERM, "perm", 2, "bf"));
        assert!(run(&SohnVanGelder, PARSER, "e", 2, "bf"));
    }

    #[test]
    fn nobody_proves_a_plain_loop() {
        let loop_src = "p(X) :- p(X).\np(a).";
        for m in all_methods() {
            assert!(
                !run(m.as_ref(), loop_src, "p", 1, "b"),
                "{} must not prove the trivial loop",
                m.name()
            );
        }
    }

    #[test]
    fn subterm_helpers() {
        let t = argus_logic::parser::parse_term("f(g(X), [a|T])").unwrap();
        let x = argus_logic::parser::parse_term("X").unwrap();
        let gx = argus_logic::parser::parse_term("g(X)").unwrap();
        assert!(is_subterm(&x, &t));
        assert!(is_proper_subterm(&gx, &t));
        assert!(is_subterm(&t, &t));
        assert!(!is_proper_subterm(&t, &t));
        let b = argus_logic::parser::parse_term("b").unwrap();
        assert!(!is_subterm(&b, &t));
    }

    #[test]
    fn right_spine_measure() {
        let list = argus_logic::parser::parse_term("[a, b | T]").unwrap();
        let (k, v) = right_spine(&list);
        assert_eq!(k, 2);
        assert_eq!(v.as_deref(), Some("T"));
        let closed = argus_logic::parser::parse_term("[a, b]").unwrap();
        assert_eq!(right_spine(&closed), (2, None));
        let c = argus_logic::parser::parse_term("c").unwrap();
        assert_eq!(right_spine(&c), (0, None));
    }
}

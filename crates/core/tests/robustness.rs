//! Failure injection and degenerate inputs: the analyzer must return a
//! structured answer (never panic, never hang) on malformed or extreme
//! programs, and `analyze_source` must surface parse/usage errors cleanly.

use argus_core::{analyze, analyze_source, AnalysisOptions, Verdict};
use argus_logic::parser::parse_program;
use argus_logic::{Adornment, PredKey};

#[test]
fn analyze_source_reports_parse_errors() {
    let err = analyze_source("p(a", "p/1", "b").unwrap_err();
    assert!(err.contains("parse error"), "{err}");
}

#[test]
fn analyze_source_reports_bad_query_spec() {
    let err = analyze_source("p(a).", "p", "b").unwrap_err();
    assert!(err.contains("bad query spec"), "{err}");
    let err = analyze_source("p(a).", "p/x", "b").unwrap_err();
    assert!(err.contains("bad arity"), "{err}");
}

#[test]
fn analyze_source_reports_bad_adornment() {
    let err = analyze_source("p(a).", "p/1", "q").unwrap_err();
    assert!(err.contains("bad adornment"), "{err}");
    let err = analyze_source("p(a, b).", "p/2", "b").unwrap_err();
    assert!(err.contains("arity"), "{err}");
}

#[test]
fn empty_program_is_fine() {
    // A query over a predicate with no rules: nothing reachable, nothing
    // recursive, trivially terminating (the call just fails).
    let report = analyze_source("", "p/1", "b").unwrap();
    assert_eq!(report.verdict, Verdict::Terminates);
    assert!(report.sccs.is_empty());
}

#[test]
fn undefined_query_predicate() {
    let report = analyze_source("q(a).", "p/1", "b").unwrap();
    assert_eq!(report.verdict, Verdict::Terminates);
}

#[test]
fn facts_only_program() {
    let report = analyze_source("p(a).\np(b).\np(c).", "p/1", "b").unwrap();
    assert_eq!(report.verdict, Verdict::Terminates);
}

#[test]
fn zero_arity_recursion() {
    // go :- go. has no arguments at all: nothing can decrease.
    let report = analyze_source("go :- go.", "go/0", "").unwrap();
    assert_ne!(report.verdict, Verdict::Terminates);
}

#[test]
fn zero_arity_nonrecursive() {
    let report = analyze_source("go :- init.\ninit.", "go/0", "").unwrap();
    assert_eq!(report.verdict, Verdict::Terminates);
}

#[test]
fn recursion_through_negation() {
    // p :- \+ p is pathological (non-stratified); Appendix D treats the
    // negative recursive subgoal as positive, so this must be rejected
    // like the direct loop — and must not crash.
    let report = analyze_source("p(X) :- \\+ p(X).", "p/1", "b").unwrap();
    assert_ne!(report.verdict, Verdict::Terminates);
}

#[test]
fn negative_recursive_subgoal_with_decrease() {
    // Appendix D: a negative recursive subgoal is analyzed as positive;
    // the size decrease still certifies termination.
    let report = analyze_source("p([]).\np([X|Xs]) :- \\+ p(Xs).", "p/1", "b").unwrap();
    assert_eq!(report.verdict, Verdict::Terminates, "{report}");
}

#[test]
fn deep_terms_do_not_blow_up() {
    // A rule with a deeply nested head argument.
    let mut term = String::from("z");
    for _ in 0..60 {
        term = format!("s({term})");
    }
    let src = format!("p({term}).\np(s(X)) :- p(X).");
    let report = analyze_source(&src, "p/1", "b").unwrap();
    assert_eq!(report.verdict, Verdict::Terminates);
}

#[test]
fn wide_bodies_do_not_blow_up() {
    // One rule with many nonrecursive subgoals before the recursive one.
    let goals: Vec<String> = (0..30).map(|i| format!("e{i}(Xs)")).collect();
    let src = format!("p([]).\np([X|Xs]) :- {}, p(Xs).", goals.join(", "));
    let report = analyze_source(&src, "p/1", "b").unwrap();
    assert_eq!(report.verdict, Verdict::Terminates);
}

#[test]
fn many_rules_same_predicate() {
    let mut src = String::from("p([]).\n");
    for i in 0..25 {
        src.push_str(&format!("p([a{i}|Xs]) :- p(Xs).\n"));
    }
    let report = analyze_source(&src, "p/1", "b").unwrap();
    assert_eq!(report.verdict, Verdict::Terminates);
}

#[test]
fn duplicate_rules_are_harmless() {
    let src = "p([]).\np([_|Xs]) :- p(Xs).\np([_|Xs]) :- p(Xs).";
    let report = analyze_source(src, "p/1", "b").unwrap();
    assert_eq!(report.verdict, Verdict::Terminates);
}

#[test]
fn options_zero_phases_disable_transformation() {
    // Example A.1 needs the transformations; with phases = 0 the raw
    // failure must be returned unchanged.
    let src = "p(g(X)) :- e(X).\np(g(X)) :- q(f(X)).\nq(Y) :- p(Y).\nq(f(Z)) :- p(Z), q(Z).";
    let program = parse_program(src).unwrap();
    let options = AnalysisOptions { transform_phases: 0, ..AnalysisOptions::default() };
    let report = analyze(&program, &PredKey::new("p", 1), Adornment::parse("b").unwrap(), &options);
    assert_ne!(report.verdict, Verdict::Terminates);
}

/// The lexicographic fallback runs under the analysis deadline like the
/// base θ search: with the budget already spent, `ackermann` (which only
/// the fallback proves) must not come back `Terminates`.
#[test]
fn lexicographic_fallback_honours_the_deadline() {
    let entry = argus_corpus::find("ackermann").unwrap();
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    let options = AnalysisOptions {
        lexicographic: true,
        deadline: Some(std::time::Instant::now()),
        ..AnalysisOptions::default()
    };
    let report = analyze(&program, &query, adornment, &options);
    assert_ne!(report.verdict, Verdict::Terminates, "{report}");
}

/// The base θ search stops at a spent deadline even when no projection
/// eliminates a variable (FM, which checks the clock only between
/// eliminations, never sees it): `ackermann`'s SCC must come back with
/// neither the Farkas refutation nor the blame a finished search computes.
#[test]
fn theta_search_honours_the_deadline_without_eliminations() {
    let entry = argus_corpus::find("ackermann").unwrap();
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    let options = AnalysisOptions {
        lexicographic: false,
        deadline: Some(std::time::Instant::now()),
        ..AnalysisOptions::default()
    };
    let report = analyze(&program, &query, adornment, &options);
    let scc = report.scc_of(&query).expect("the query's SCC is analyzed");
    match &scc.outcome {
        argus_core::SccOutcome::NoLinearDecrease { refutation } => {
            assert!(refutation.is_none(), "a refutation was computed past the deadline")
        }
        other => panic!("expected NoLinearDecrease, got {other:?}"),
    }
    assert!(scc.blame.is_none(), "blame was computed past the deadline");
}

#[test]
fn manual_imported_constraints_are_honoured() {
    // Deliberately hide q's rules (EDB) and supply its size relation
    // manually, as the paper's own implementation did.
    use argus_linear::{Constraint, ConstraintSystem, LinExpr, Poly, Rat};
    let src = "p([]).\np(P) :- q(P, P1), p(P1).";
    let program = parse_program(src).unwrap();

    // Without any knowledge of q: unprovable.
    let none = analyze(
        &program,
        &PredKey::new("p", 1),
        Adornment::parse("b").unwrap(),
        &AnalysisOptions::default(),
    );
    assert_ne!(none.verdict, Verdict::Terminates);

    // With the manual constraint q1 >= 1 + q2: provable.
    let mut sys = ConstraintSystem::new();
    let mut e = LinExpr::var(1); // q2
    e.add_constant(&Rat::one());
    sys.push(Constraint::ge(LinExpr::var(0), e)); // q1 >= q2 + 1
    sys.push(Constraint::nonneg(0));
    sys.push(Constraint::nonneg(1));
    let options = AnalysisOptions {
        imported: vec![(PredKey::new("q", 2), Poly::from_constraints(2, sys))],
        ..AnalysisOptions::default()
    };
    let with = analyze(&program, &PredKey::new("p", 1), Adornment::parse("b").unwrap(), &options);
    assert_eq!(with.verdict, Verdict::Terminates, "{with}");
}

#[test]
fn variable_shadowing_across_rules() {
    // The same variable names in different rules must not interfere.
    let src = "p([], X).\np([X|Xs], X) :- p(Xs, X).";
    let report = analyze_source(src, "p/2", "bf").unwrap();
    assert_eq!(report.verdict, Verdict::Terminates);
}

#[test]
fn report_accessors_behave() {
    let report = analyze_source(
        "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
        "append/3",
        "bff",
    )
    .unwrap();
    let key = PredKey::new("append", 3);
    assert!(report.scc_of(&key).is_some());
    assert!(report.witness_for(&key).is_some());
    assert!(report.scc_of(&PredKey::new("nope", 1)).is_none());
    assert!(report.witness_for(&PredKey::new("nope", 1)).is_none());
}

/// The groundness-aware adornment does not overclaim: a wildcard fact
/// `q(_)` succeeds without grounding its argument, so the recursive call
/// below runs with a FREE argument and must not be treated as a bound,
/// shrinking one.
#[test]
fn wildcard_fact_does_not_ground() {
    // Without groundness analysis, Ys would be marked bound after q(Ys)
    // and the imported relation q1 = q2 (from q(A, A)) would "prove" a
    // decrease for a call whose argument is not actually ground.
    let report = analyze_source(
        "q(_, _).\n\
         p([X|Xs]) :- q(Ys, Xs), p(Ys).\n\
         p([]).",
        "p/1",
        "b",
    )
    .unwrap();
    // Ys is free at the recursive call: p is reached with adornment f,
    // where no linear decrease exists. The analysis must NOT prove it.
    assert_ne!(report.verdict, Verdict::Terminates, "{report}");
}

/// But when the helper genuinely grounds its output, the proof goes
/// through as before.
#[test]
fn grounding_helper_still_proves() {
    let report = analyze_source(
        "shrink([_|Xs], Xs).\n\
         p([X|Xs]) :- shrink([X|Xs], Ys), p(Ys).\n\
         p([]).",
        "p/1",
        "b",
    )
    .unwrap();
    assert_eq!(report.verdict, Verdict::Terminates, "{report}");
}

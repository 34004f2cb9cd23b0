//! Every proof produced on the corpus is independently certified (primal
//! LP re-check of the θ/δ witness), and the Appendix A transformations are
//! validated as semantics-preserving by comparing SLD answer sets before
//! and after.

use argus::interp::sld::{solve, InterpOptions};
use argus::logic::parser::parse_query;
use argus::logic::{Norm, PredKey};
use argus::prelude::*;
use std::collections::BTreeSet;

#[test]
fn every_corpus_proof_is_certified() {
    let mut total_checks = 0usize;
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let report = analyze(&program, &query, adornment, &AnalysisOptions::default());
        if report.verdict != Verdict::Terminates {
            continue;
        }
        match argus::core::verify_report(&report, Norm::StructuralSize) {
            Ok(n) => total_checks += n,
            Err(e) => panic!("{}: certificate rejected: {e}\n{report}", entry.name),
        }
    }
    assert!(total_checks >= 20, "expected many pair checks, got {total_checks}");
}

/// A lexicographic proof carries no θ/δ witness the primal checker can
/// re-check, so certification must reject it rather than report it
/// verified after zero checks — through the library and through the CLI.
#[test]
fn lexicographic_proof_is_not_certified() {
    let entry = argus::corpus::corpus().into_iter().find(|e| e.name == "ackermann").unwrap();
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    let options = AnalysisOptions { lexicographic: true, ..Default::default() };
    let report = analyze(&program, &query, adornment, &options);
    assert_eq!(report.verdict, Verdict::Terminates, "{report}");
    match argus::core::verify_report(&report, options.norm) {
        Ok(n) => panic!("lexicographic proof reported verified after {n} check(s)"),
        Err(e) => assert!(e.to_string().contains("ack/3"), "{e}"),
    }

    let path = std::env::temp_dir().join(format!("argus-cert-lex-{}.pl", std::process::id()));
    std::fs::write(&path, entry.source).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_argus"))
        .args(["analyze", path.to_str().unwrap(), "ack/3", "bbf", "--lexicographic", "--certify"])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("VERIFIED"), "{stdout}");
    assert!(stdout.contains("certificate: REJECTED"), "{stdout}");
    assert!(!out.status.success(), "{stdout}");
}

/// Transformations preserve the answers of the query predicate: for each
/// corpus entry where the Appendix A driver changes the program, the SLD
/// answer sets for the sample queries must be identical before and after.
#[test]
fn transformations_preserve_answers() {
    let opts = InterpOptions { max_steps: 60_000, ..InterpOptions::default() };
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, _) = entry.query_key();
        let roots: BTreeSet<PredKey> = [query.clone()].into_iter().collect();
        let (transformed, _) = argus::transform::transform_fixed_phases(&program, &roots, 3);
        if transformed == program {
            continue;
        }
        for q in entry.sample_queries {
            let goals = parse_query(q).unwrap();
            let before = solve(&program, &goals, &opts);
            let after = solve(&transformed, &goals, &opts);
            // Compare answer multisets only when both complete (the
            // nonterminating controls exhaust the budget both ways).
            if before.terminated() && after.terminated() {
                let (
                    argus::interp::Outcome::Completed { solutions: s1, .. },
                    argus::interp::Outcome::Completed { solutions: s2, .. },
                ) = (&before, &after)
                else {
                    unreachable!()
                };
                let mut a: Vec<String> = s1.iter().map(|m| format!("{m:?}")).collect();
                let mut b: Vec<String> = s2.iter().map(|m| format!("{m:?}")).collect();
                a.sort();
                b.sort();
                assert_eq!(
                    a, b,
                    "{}: answers changed for {q}\nbefore: {before:?}\nafter: {after:?}\ntransformed:\n{transformed}",
                    entry.name
                );
            } else {
                assert_eq!(
                    before.terminated(),
                    after.terminated(),
                    "{}: termination behaviour changed for {q}",
                    entry.name
                );
            }
        }
    }
}

/// The same check with randomized inputs on the transformation-sensitive
/// Appendix A.1 program: answers agree on every g-chain depth.
#[test]
fn appendix_a1_transform_preserves_answers_deeply() {
    let entry = argus::corpus::find("appendix_a1").unwrap();
    let program = entry.program().unwrap();
    let roots: BTreeSet<PredKey> = [PredKey::new("p", 1)].into_iter().collect();
    let (transformed, _) = argus::transform::transform_fixed_phases(&program, &roots, 3);
    let opts = InterpOptions::default();
    for depth in 0..6 {
        let mut term = String::from("c");
        for _ in 0..depth {
            term = format!("g({term})");
        }
        for wrap in ["", "f"] {
            let arg = if wrap.is_empty() { term.clone() } else { format!("f({term})") };
            let goals = parse_query(&format!("p({arg})")).unwrap();
            let before = solve(&program, &goals, &opts);
            let after = solve(&transformed, &goals, &opts);
            assert_eq!(
                before.solution_count() > 0,
                after.solution_count() > 0,
                "p({arg}) provability changed"
            );
        }
    }
}

/// Failed proofs on the corpus carry verifiable Farkas refutations of
/// their θ systems: the "no linear decrease" claim is as checkable as the
/// proofs. Five corpus SCCs end with an infeasible θ system.
#[test]
fn refutations_verify_on_corpus() {
    let mut verified = 0usize;
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let report = analyze(&program, &query, adornment, &AnalysisOptions::default());
        for scc in &report.sccs {
            if let Some(ok) = scc.verify_refutation() {
                assert!(ok, "{}: invalid refutation certificate", entry.name);
                verified += 1;
            }
        }
    }
    assert_eq!(verified, 5, "expected one refutation per infeasible corpus θ system");
}

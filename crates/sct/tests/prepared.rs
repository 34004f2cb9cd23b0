//! The size-change engine decides the same prepared program the θ-method
//! decides: [`argus_core::prepare`]'s size relations, imported relations
//! applied. (That the portfolio's SCT run reads them through the SCC memo
//! is pinned in the root crate's `parallel_determinism` tests.)

use argus_core::{analyze, prepare, AnalysisOptions, Verdict};
use argus_linear::{Constraint, ConstraintSystem, LinExpr, Poly, Rat};
use argus_logic::modes::Adornment;
use argus_logic::parser::parse_program;
use argus_logic::PredKey;
use argus_sct::analyze_sct;

/// `q/2` is EDB (no rules), so nothing is known of its sizes unless the
/// relation `q1 ≥ q2 + 1` is imported by hand, as the paper's own
/// implementation did.
#[test]
fn imported_relations_are_honoured() {
    let program = parse_program("p([]).\np(P) :- q(P, P1), p(P1).").unwrap();
    let query = PredKey::new("p", 1);
    let adornment = Adornment::parse("b").unwrap();

    let plain = AnalysisOptions::default();
    let none =
        analyze_sct(&prepare(&program, &query, adornment.clone(), &plain, None), &plain, None);
    assert!(!none.proved, "{none}");

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
    let theta = analyze(&program, &query, adornment.clone(), &options);
    assert_eq!(theta.verdict, Verdict::Terminates, "{theta}");
    let sct = analyze_sct(&prepare(&program, &query, adornment, &options, None), &options, None);
    assert!(sct.proved, "{sct}");
}

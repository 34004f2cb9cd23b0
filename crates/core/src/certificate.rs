//! Independent verification of termination certificates.
//!
//! A [`crate::SccOutcome::Proved`] outcome carries a witness: the θ vector
//! per predicate and the δ decrement per dependency edge. This module
//! re-checks that witness *without* trusting the machinery that produced
//! it: where the prover went through the LP dual and Fourier–Motzkin
//! (paper §4), the checker evaluates the PRIMAL condition directly —
//!
//! > for every rule × recursive-subgoal pair, the minimum of
//! > `θᵀx − βᵀy` over Eq. (1)'s feasible region is at least `δᵢⱼ`
//!
//! — with one exact LP per pair (the paper's Eq. 4), plus a fresh min-plus
//! closure confirming every dependency cycle has positive total δ. The two
//! code paths share only the Eq. (1) assembly and the rational arithmetic,
//! so a bug in the dual construction, the elimination order, or the
//! feasibility reduction would be caught here.

use crate::analyze::{SccOutcome, TerminationReport};
use crate::pairs::{primal_system, scc_pairs};
use argus_linear::{LinExpr, LpOutcome, LpProblem, Rat};
use argus_logic::{DepGraph, Norm, PredKey};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why certificate verification failed.
///
/// Boxed at use sites is unnecessary: verification is cold-path, so the
/// large variant is acceptable; the lint is silenced deliberately.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::result_large_err)]
pub enum CertificateError {
    /// A predicate of a proved SCC has no θ vector in the witness.
    MissingWitness(PredKey),
    /// A dependency edge of a proved SCC has no δ in the witness.
    MissingDelta(PredKey, PredKey),
    /// A θ coefficient is negative.
    NegativeTheta(PredKey),
    /// The decrease condition fails for a rule × subgoal pair: the minimum
    /// of `θᵀx − βᵀy` is below δ (or unbounded below).
    DecreaseViolated {
        /// Head predicate.
        head: PredKey,
        /// Recursive subgoal predicate.
        sub: PredKey,
        /// Index of the rule within the SCC's rule list.
        rule_index: usize,
        /// The minimum found, if bounded.
        minimum: Option<Rat>,
        /// The δ that was required.
        required: Rat,
    },
    /// The δ assignment admits a nonpositive-weight dependency cycle.
    NonPositiveCycle(Vec<PredKey>),
    /// An SCC is reported proved by a method this checker cannot re-check
    /// (the lexicographic extension), so the report is not certified.
    Uncertified(Vec<PredKey>),
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::MissingWitness(p) => write!(f, "no θ witness for {p}"),
            CertificateError::MissingDelta(a, b) => write!(f, "no δ for edge {a} -> {b}"),
            CertificateError::NegativeTheta(p) => write!(f, "negative θ coefficient for {p}"),
            CertificateError::DecreaseViolated { head, sub, rule_index, minimum, required } => {
                write!(
                    f,
                    "decrease violated for {head} -> {sub} (rule #{rule_index}): min = {}, required ≥ {required}",
                    minimum.as_ref().map(|m| m.to_string()).unwrap_or_else(|| "-∞".into())
                )
            }
            CertificateError::NonPositiveCycle(cycle) => {
                let names: Vec<String> = cycle.iter().map(|p| p.to_string()).collect();
                write!(f, "dependency cycle with nonpositive δ sum: {}", names.join(" -> "))
            }
            CertificateError::Uncertified(members) => {
                let names: Vec<String> = members.iter().map(|p| p.to_string()).collect();
                write!(f, "no checkable certificate for the proof of {{{}}}", names.join(", "))
            }
        }
    }
}

impl std::error::Error for CertificateError {}

/// Verify every proved SCC of `report` against the primal decrease
/// condition, under the `norm` the analysis used. An SCC proved by the
/// lexicographic extension is [`CertificateError::Uncertified`]: its
/// levels are not re-checked, so the report cannot pass.
///
/// Returns the number of (pair, LP) checks performed on success.
#[allow(clippy::result_large_err)] // cold path; see CertificateError
pub fn verify_report(report: &TerminationReport, norm: Norm) -> Result<usize, CertificateError> {
    let graph = DepGraph::build(&report.program);
    let mut checks = 0usize;

    for scc in &report.sccs {
        let (witness, deltas) = match &scc.outcome {
            SccOutcome::Proved { witness, deltas } => (witness, deltas),
            SccOutcome::ProvedLexicographic { .. } => {
                return Err(CertificateError::Uncertified(scc.members.clone()));
            }
            _ => continue,
        };
        // θ sanity.
        for p in &scc.members {
            let theta =
                witness.get(p).ok_or_else(|| CertificateError::MissingWitness(p.clone()))?;
            if theta.iter().any(|t| t.is_negative()) {
                return Err(CertificateError::NegativeTheta(p.clone()));
            }
        }
        // Positive cycles over the δ assignment.
        verify_positive_cycles(&scc.members, deltas)?;

        // Primal decrease per rule × recursive subgoal.
        let scc_id =
            graph.scc_id(&scc.members[0]).expect("proved SCC exists in the report's program");
        let (_, pairs) =
            scc_pairs(&graph, &report.program, scc_id, &report.modes, &report.size_relations, norm);
        for pair in &pairs {
            let theta = witness
                .get(&pair.head_pred)
                .ok_or_else(|| CertificateError::MissingWitness(pair.head_pred.clone()))?;
            let beta = witness
                .get(&pair.sub_pred)
                .ok_or_else(|| CertificateError::MissingWitness(pair.sub_pred.clone()))?;
            let delta = deltas
                .get(&(pair.head_pred.clone(), pair.sub_pred.clone()))
                .cloned()
                .ok_or_else(|| {
                    CertificateError::MissingDelta(pair.head_pred.clone(), pair.sub_pred.clone())
                })?;

            // Objective θᵀx − βᵀy over the primal variables.
            let (primal, x_vars, y_vars, _) = primal_system(pair);
            let mut objective = LinExpr::zero();
            for (i, &xv) in x_vars.iter().enumerate() {
                objective.add_term(xv, theta[i].clone());
            }
            for (j, &yv) in y_vars.iter().enumerate() {
                objective.add_term(yv, -beta[j].clone());
            }
            let nonneg: BTreeSet<usize> = primal.vars().into_iter().collect();
            let lp = LpProblem { objective, constraints: primal, nonneg };
            checks += 1;
            match lp.solve() {
                LpOutcome::Infeasible => {
                    // Eq. (1) unsatisfiable: this call path can never
                    // execute; the decrease holds vacuously.
                }
                LpOutcome::Optimal { value, .. } if value >= delta => {}
                LpOutcome::Optimal { value, .. } => {
                    return Err(CertificateError::DecreaseViolated {
                        head: pair.head_pred.clone(),
                        sub: pair.sub_pred.clone(),
                        rule_index: pair.rule_index,
                        minimum: Some(value),
                        required: delta,
                    });
                }
                LpOutcome::Unbounded => {
                    return Err(CertificateError::DecreaseViolated {
                        head: pair.head_pred.clone(),
                        sub: pair.sub_pred.clone(),
                        rule_index: pair.rule_index,
                        minimum: None,
                        required: delta,
                    });
                }
            }
        }
    }
    Ok(checks)
}

/// Check all simple cycles have positive δ sum via min-plus closure.
#[allow(clippy::result_large_err)] // cold path; see CertificateError
fn verify_positive_cycles(
    members: &[PredKey],
    deltas: &BTreeMap<(PredKey, PredKey), Rat>,
) -> Result<(), CertificateError> {
    let n = members.len();
    let index: BTreeMap<&PredKey, usize> =
        members.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let inf = Rat::from_int(i64::MAX / 4);
    let mut dist = vec![vec![inf.clone(); n]; n];
    for ((h, s), d) in deltas {
        // Edges may mention predicates outside `members` only if the
        // report is malformed; ignore such entries defensively.
        let (Some(&i), Some(&j)) = (index.get(h), index.get(s)) else { continue };
        if *d < dist[i][j] {
            dist[i][j] = d.clone();
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let through = &dist[i][k] + &dist[k][j];
                if through < dist[i][j] {
                    dist[i][j] = through;
                }
            }
        }
    }
    for (i, member) in members.iter().enumerate() {
        if dist[i][i] < inf && !dist[i][i].is_positive() {
            return Err(CertificateError::NonPositiveCycle(vec![member.clone()]));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, AnalysisOptions};
    use argus_logic::parser::parse_program;
    use argus_logic::Adornment;

    fn certified(src: &str, name: &str, arity: usize, adn: &str) -> usize {
        let program = parse_program(src).unwrap();
        let report = analyze(
            &program,
            &PredKey::new(name, arity),
            Adornment::parse(adn).unwrap(),
            &AnalysisOptions::default(),
        );
        assert_eq!(report.verdict, crate::Verdict::Terminates, "{report}");
        verify_report(&report, Norm::StructuralSize).expect("certificate verifies")
    }

    #[test]
    fn append_certificate() {
        let n = certified(
            "append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
            "append",
            3,
            "bff",
        );
        assert_eq!(n, 1, "one rule × subgoal pair");
    }

    #[test]
    fn perm_certificate() {
        let n = certified(
            "perm([], []).\n\
             perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).\n\
             append([], Ys, Ys).\n\
             append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
            "perm",
            2,
            "bf",
        );
        // perm pair + two adorned append copies.
        assert_eq!(n, 3);
    }

    #[test]
    fn parser_certificate_covers_all_pairs() {
        let n = certified(
            "e(L, T) :- t(L, ['+'|C]), e(C, T).\n\
             e(L, T) :- t(L, T).\n\
             t(L, T) :- n(L, ['*'|C]), t(C, T).\n\
             t(L, T) :- n(L, T).\n\
             n(['('|A], T) :- e(A, [')'|T]).\n\
             n([L|T], T) :- z(L).",
            "e",
            2,
            "bf",
        );
        // Rules 1 and 3 have two recursive subgoals each; rules 2, 4, 5
        // one each: 7 pairs.
        assert_eq!(n, 7);
    }

    #[test]
    fn tampered_witness_is_rejected() {
        let program =
            parse_program("append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).")
                .unwrap();
        let mut report = analyze(
            &program,
            &PredKey::new("append", 3),
            Adornment::parse("bff").unwrap(),
            &AnalysisOptions::default(),
        );
        // Corrupt the witness: zero out θ.
        for scc in report.sccs.iter_mut() {
            if let SccOutcome::Proved { witness, .. } = &mut scc.outcome {
                for theta in witness.values_mut() {
                    for t in theta.iter_mut() {
                        *t = Rat::zero();
                    }
                }
            }
        }
        let err = verify_report(&report, Norm::StructuralSize).unwrap_err();
        assert!(matches!(err, CertificateError::DecreaseViolated { .. }), "{err}");
    }

    #[test]
    fn tampered_delta_cycle_is_rejected() {
        let program = parse_program(
            "e(L, T) :- t(L, ['+'|C]), e(C, T).\n\
             e(L, T) :- t(L, T).\n\
             t(L, T) :- n(L, ['*'|C]), t(C, T).\n\
             t(L, T) :- n(L, T).\n\
             n(['('|A], T) :- e(A, [')'|T]).\n\
             n([L|T], T) :- z(L).",
        )
        .unwrap();
        let mut report = analyze(
            &program,
            &PredKey::new("e", 2),
            Adornment::parse("bf").unwrap(),
            &AnalysisOptions::default(),
        );
        // Zero the n→e delta: the e→t→n→e cycle now weighs 0.
        for scc in report.sccs.iter_mut() {
            if let SccOutcome::Proved { deltas, .. } = &mut scc.outcome {
                if let Some(d) = deltas.get_mut(&(PredKey::new("n", 2), PredKey::new("e", 2))) {
                    *d = Rat::zero();
                }
            }
        }
        let err = verify_report(&report, Norm::StructuralSize).unwrap_err();
        assert!(matches!(err, CertificateError::NonPositiveCycle(_)), "{err}");
    }

    #[test]
    fn missing_witness_detected() {
        let program =
            parse_program("append([], Ys, Ys).\nappend([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).")
                .unwrap();
        let mut report = analyze(
            &program,
            &PredKey::new("append", 3),
            Adornment::parse("bff").unwrap(),
            &AnalysisOptions::default(),
        );
        for scc in report.sccs.iter_mut() {
            if let SccOutcome::Proved { witness, .. } = &mut scc.outcome {
                witness.clear();
            }
        }
        let err = verify_report(&report, Norm::StructuralSize).unwrap_err();
        assert!(matches!(err, CertificateError::MissingWitness(_)), "{err}");
    }
}

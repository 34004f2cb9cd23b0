//! The three soundness oracles run against every generated case.
//!
//! 1. **Differential soundness** — when the analyzer claims `Terminates`,
//!    the SLD interpreter must complete every bounded ground query of the
//!    claimed mode within budget. Budget exhaustion is an unbounded
//!    derivation witness and a hard violation.
//! 2. **Certificate cross-check** — every `Terminates` report must pass
//!    the independent primal checker [`argus_core::verify_report`]; and an
//!    `Unknown` verdict should not be refutable by a brute-force search
//!    over small-coefficient θ witnesses (that would mean the LP pipeline
//!    missed a proof the certificate checker accepts — completeness drift,
//!    reported warn-only).
//! 3. **Metamorphic invariance** — the verdict is a semantic property, so
//!    it must survive rule shuffling, predicate renaming, variable
//!    renaming, and consistent argument permutation; and the report JSON
//!    must be byte-identical across analysis parallelism settings.

use crate::gen::{ground_inputs, ground_query, GenCase};
use argus_core::{
    analyze, analyze_with_caches, infer_conditions, verify_report, AnalysisOptions,
    BackwardsOptions, SccCache, SccOutcome, TerminationReport, Verdict,
};
use argus_interp::sld::{solve, InterpOptions};
use argus_linear::Rat;
use argus_logic::modes::Adornment;
use argus_logic::program::{Atom, Literal, PredKey, Program, Rule};
use argus_logic::term::Term;
use argus_prng::Rng64;
use std::collections::BTreeMap;

/// What a failed oracle reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// `Terminates` was claimed but a bounded ground query exhausted the
    /// interpreter budget.
    Soundness,
    /// `Terminates` was claimed but the certificate checker rejected the
    /// witness.
    Certificate,
    /// A semantics-preserving transformation changed the verdict.
    Metamorphic,
    /// Report JSON differed across parallelism settings.
    JobsDivergence,
    /// A running `argus serve` instance returned a response that is not
    /// byte-identical to the local report (or failed the round-trip).
    ServeDivergence,
    /// Backwards inference produced a disjunct the forward analyzer, the
    /// certificate checker, or the SLD interpreter does not confirm.
    InferSoundness,
    /// An engine in the portfolio claimed a termination proof that the
    /// differential interpreter check refutes, or that contradicts the
    /// θ-method's zero-weight-cycle evidence.
    Portfolio,
    /// A re-analysis through the per-SCC incremental memo produced a
    /// report that is not byte-identical to a from-scratch analysis of
    /// the same (edited) program.
    IncrementalDivergence,
}

impl ViolationKind {
    /// Stable lowercase label used in JSON and repro headers.
    pub fn label(&self) -> &'static str {
        match self {
            ViolationKind::Soundness => "soundness",
            ViolationKind::Certificate => "certificate",
            ViolationKind::Metamorphic => "metamorphic",
            ViolationKind::JobsDivergence => "jobs-divergence",
            ViolationKind::ServeDivergence => "serve-divergence",
            ViolationKind::InferSoundness => "infer-soundness",
            ViolationKind::Portfolio => "portfolio",
            ViolationKind::IncrementalDivergence => "incremental-divergence",
        }
    }
}

/// Interpreter budget used by the differential oracle.
pub fn interp_options(max_steps: u64) -> InterpOptions {
    InterpOptions { max_steps, ..InterpOptions::default() }
}

/// Analysis options used inside the harness: sequential (case-level
/// parallelism lives in the runner), otherwise defaults.
pub fn analysis_options() -> AnalysisOptions {
    AnalysisOptions { parallelism: 1, ..AnalysisOptions::default() }
}

/// Why the serve round-trip oracle failed.
#[derive(Debug, Clone)]
pub enum ServeCheckFailure {
    /// The HTTP round-trip itself failed (connect, IO, non-200). Treated
    /// as a violation in a run, but not replayed by the shrinker.
    Transport(String),
    /// The server answered 200 with bytes that differ from the local
    /// report.
    Divergence(String),
}

/// Oracle 4 (opt-in, `--serve ADDR`): a running `argus serve` instance
/// must return the byte-identical `analyze --json` report for this case.
///
/// The request carries no option keys, so the server applies its
/// defaults — which match [`analysis_options`] (`parallelism` differs,
/// but the report is byte-identical at every parallelism setting by the
/// jobs-divergence oracle's invariant).
pub fn check_serve(
    program: &Program,
    query: &PredKey,
    adornment: &Adornment,
    report: &TerminationReport,
    addr: &str,
) -> Result<(), ServeCheckFailure> {
    use argus_serve::jsonval::json_str;
    let src = program.to_string();
    let body = format!(
        "{{\"program\":{},\"query\":{},\"adornment\":{}}}",
        json_str(&src),
        json_str(&query.to_string()),
        json_str(&adornment.to_string()),
    );
    let resp = argus_serve::client::request_once(
        addr,
        "POST",
        "/v1/analyze",
        body.as_bytes(),
        std::time::Duration::from_secs(30),
    )
    .map_err(|e| ServeCheckFailure::Transport(format!("serve round-trip failed: {e}")))?;
    if resp.status != 200 {
        return Err(ServeCheckFailure::Transport(format!(
            "serve returned {} for a valid case: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body).trim_end()
        )));
    }
    let expected = format!("{}\n", report.to_json());
    if resp.body == expected.as_bytes() {
        return Ok(());
    }
    // Rule out a Display→parse round-trip artifact (the server analyzed
    // the *printed* program) before calling it a divergence.
    let reparsed = match argus_logic::parser::parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            return Err(ServeCheckFailure::Divergence(format!(
                "program text does not reparse locally: {e}"
            )))
        }
    };
    let local = analyze(&reparsed, query, adornment.clone(), &analysis_options());
    let expected2 = format!("{}\n", local.to_json());
    if resp.body == expected2.as_bytes() {
        return Ok(());
    }
    Err(ServeCheckFailure::Divergence(format!(
        "serve response ({} bytes) differs from the local report ({} bytes)",
        resp.body.len(),
        expected.len()
    )))
}

/// Oracle 1: every bounded ground query of the claimed mode completes.
/// Returns the offending query on failure.
pub fn check_differential(
    program: &Program,
    query: &PredKey,
    max_steps: u64,
) -> Result<(), String> {
    let opts = interp_options(max_steps);
    for input in ground_inputs() {
        let goals = ground_query(query, input);
        let out = solve(program, &goals, &opts);
        if !out.terminated() {
            return Err(format!(
                "query `{}` exhausted the {}-step budget",
                goals[0].atom, opts.max_steps
            ));
        }
    }
    Ok(())
}

/// Like [`check_differential`] but for an arbitrary adornment: ground
/// terms at every bound position (rotating through the input pool so the
/// positions get distinct shapes), fresh variables at the free ones. A
/// fully-free adornment — the `true` condition — is one all-free query.
pub fn check_differential_adorned(
    program: &Program,
    query: &PredKey,
    adornment: &Adornment,
    max_steps: u64,
) -> Result<(), String> {
    let opts = interp_options(max_steps);
    let inputs = ground_inputs();
    let bound = adornment.bound_positions();
    let rounds = if bound.is_empty() { 1 } else { inputs.len() };
    for k in 0..rounds {
        let args: Vec<Term> = (0..adornment.arity())
            .map(|j| match bound.iter().position(|&b| b == j) {
                Some(slot) => inputs[(k + slot) % inputs.len()].clone(),
                None => Term::var(format!("Out{j}")),
            })
            .collect();
        let goals = vec![Literal::pos(Atom::new(query.name.as_ref(), args))];
        let out = solve(program, &goals, &opts);
        if !out.terminated() {
            return Err(format!(
                "query `{}` exhausted the {}-step budget",
                goals[0].atom, opts.max_steps
            ));
        }
    }
    Ok(())
}

/// Oracle 5 (opt-in, `--infer`): every disjunct of every inferred
/// termination condition must be independently confirmed — the forward
/// analyzer proves it, the certificate checker accepts the proof, and
/// the SLD interpreter completes every bounded query of that adornment.
pub fn check_infer(program: &Program, max_steps: u64) -> Result<(), String> {
    let bopts = BackwardsOptions { analysis: analysis_options(), ..BackwardsOptions::default() };
    let inferred = infer_conditions(program, &bopts);
    let aopts = analysis_options();
    for cond in &inferred.conditions {
        for adn in cond.disjunct_adornments() {
            let report = analyze(program, &cond.pred, adn.clone(), &aopts);
            if report.verdict != Verdict::Terminates {
                return Err(format!(
                    "inferred disjunct `{adn}` of {} is not forward-provable ({:?})",
                    cond.pred, report.verdict
                ));
            }
            if let Err(e) = verify_report(&report, aopts.norm) {
                return Err(format!(
                    "certificate for inferred disjunct `{adn}` of {} rejected: {e}",
                    cond.pred
                ));
            }
            check_differential_adorned(program, &cond.pred, &adn, max_steps)
                .map_err(|e| format!("inferred disjunct `{adn}` of {} diverges: {e}", cond.pred))?;
        }
    }
    Ok(())
}

/// Oracle 6 (opt-in, `--portfolio`): run every registered engine on the
/// case (un-raced, so every verdict is real) and cross-check the proofs.
///
/// The engines prove *incomparable* program classes, so a plain
/// `Terminates`-vs-`Unknown` disagreement is expected — it is the whole
/// point of racing them. Only two outcomes are violations:
///
/// * an engine claims a proof but a bounded ground evaluation of the
///   claimed mode exhausts the interpreter budget (per-engine
///   differential soundness), or
/// * an engine claims a proof while the θ-method exhibits a zero-weight
///   cycle — a concrete witness that some recursion path never shrinks
///   any bound argument, which no sound engine may contradict.
pub fn check_portfolio(
    program: &Program,
    query: &PredKey,
    adornment: &Adornment,
    theta_verdict: Verdict,
    max_steps: u64,
) -> Result<(), String> {
    let engines = argus_baselines::standard_engines();
    let report = argus_core::run_portfolio(
        &engines,
        program,
        query,
        adornment,
        &analysis_options(),
        1,
        false,
        None,
    );
    let provers: Vec<&str> = report
        .entries
        .iter()
        .filter(|e| e.run.verdict == argus_core::EngineVerdict::Proved)
        .map(|e| e.id)
        .collect();
    if provers.is_empty() {
        return Ok(());
    }
    if theta_verdict == Verdict::ZeroWeightCycle {
        return Err(format!(
            "engine(s) {} proved termination but the theta-method found a zero-weight cycle",
            provers.join("/")
        ));
    }
    check_differential_adorned(program, query, adornment, max_steps).map_err(|e| {
        format!("engine(s) {} proved termination but evaluation diverges: {e}", provers.join("/"))
    })
}

/// Oracle 7 (opt-in, `--incremental`): the per-SCC memo must be invisible
/// in the output under an edit stream. Starting from the generated
/// program, apply single-clause edits (delete rule `i`, then restore it)
/// one step at a time, re-analyzing after each step against one
/// persistent memo, and require the report — default text and JSON — to
/// be byte-identical to a from-scratch analysis at every step. The
/// restore step re-analyzes the unedited program through a memo that now
/// also holds entries for every edited variant, so stale-entry reuse and
/// key collisions both surface as divergences.
pub fn check_incremental(
    program: &Program,
    query: &PredKey,
    adornment: &Adornment,
) -> Result<(), String> {
    let opts = analysis_options();
    let memo = SccCache::unbounded();
    let render = |r: &TerminationReport| (r.to_string(), r.to_json());
    let cold = render(&analyze(program, query, adornment.clone(), &opts));
    let warm =
        render(&analyze_with_caches(program, query, adornment.clone(), &opts, None, Some(&memo)));
    if cold != warm {
        return Err("memoized report differs from cold on the unedited program".to_string());
    }
    for i in 0..program.rules.len() {
        let mut rules = program.rules.clone();
        rules.remove(i);
        let edited = Program::from_rules(rules);
        let cold_e = render(&analyze(&edited, query, adornment.clone(), &opts));
        let incr_e = render(&analyze_with_caches(
            &edited,
            query,
            adornment.clone(),
            &opts,
            None,
            Some(&memo),
        ));
        if cold_e != incr_e {
            return Err(format!("incremental report diverges after deleting clause {i}"));
        }
        let undo = render(&analyze_with_caches(
            program,
            query,
            adornment.clone(),
            &opts,
            None,
            Some(&memo),
        ));
        if cold != undo {
            return Err(format!("incremental report diverges after restoring clause {i}"));
        }
    }
    Ok(())
}

/// Oracle 2a: a `Terminates` report must pass the certificate checker.
pub fn check_certificate(report: &TerminationReport, opts: &AnalysisOptions) -> Result<(), String> {
    verify_report(report, opts.norm).map(|_| ()).map_err(|e| e.to_string())
}

/// Oracle 2b (warn-only): brute-force small θ witnesses for unproved SCCs.
///
/// For every `NoLinearDecrease` SCC small enough to enumerate, try each
/// θ ∈ {0, 1, 2}^bound-args with δ = 1 on every intra-SCC edge, and ask the
/// *certificate checker* whether it would accept. Acceptance means the LP
/// pipeline failed to find a proof the independent checker can validate —
/// completeness drift worth a warning, not a failure (the analyzer is only
/// claimed sound, not complete).
pub fn theta_refutes_unknown(report: &TerminationReport, opts: &AnalysisOptions) -> Option<String> {
    for (si, scc) in report.sccs.iter().enumerate() {
        if !matches!(scc.outcome, SccOutcome::NoLinearDecrease { .. }) {
            continue;
        }
        if scc.members.len() > 2 {
            continue;
        }
        let bound_args: Vec<(PredKey, usize)> = scc
            .members
            .iter()
            .map(|p| {
                let n = report.modes.get(p).map(|a| a.bound_positions().len()).unwrap_or(0);
                (p.clone(), n)
            })
            .collect();
        let total: usize = bound_args.iter().map(|(_, n)| n).sum();
        if total == 0 || total > 3 {
            continue;
        }
        // δ = 1 on every ordered pair of members (covers every edge the
        // checker can look up, and makes every cycle positive).
        let mut deltas: BTreeMap<(PredKey, PredKey), Rat> = BTreeMap::new();
        for a in &scc.members {
            for b in &scc.members {
                deltas.insert((a.clone(), b.clone()), Rat::one());
            }
        }
        let mut coeffs = vec![0u8; total];
        loop {
            if coeffs.iter().any(|&c| c > 0) {
                let mut witness: BTreeMap<PredKey, Vec<Rat>> = BTreeMap::new();
                let mut k = 0;
                for (p, n) in &bound_args {
                    let v: Vec<Rat> =
                        (0..*n).map(|j| Rat::from_int(i64::from(coeffs[k + j]))).collect();
                    witness.insert(p.clone(), v);
                    k += n;
                }
                let mut patched = report.clone();
                patched.sccs[si].outcome =
                    SccOutcome::Proved { witness: witness.clone(), deltas: deltas.clone() };
                if verify_report(&patched, opts.norm).is_ok() {
                    return Some(format!(
                        "SCC {{{}}} reported NoLinearDecrease but θ = {:?} certifies",
                        scc.members.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(", "),
                        coeffs
                    ));
                }
            }
            // Odometer over {0, 1, 2}^total.
            let mut i = 0;
            loop {
                if i == coeffs.len() {
                    return None;
                }
                if coeffs[i] < 2 {
                    coeffs[i] += 1;
                    break;
                }
                coeffs[i] = 0;
                i += 1;
            }
        }
    }
    None
}

/// The metamorphic transformations, applied deterministically from a
/// dedicated rng so the shrinker can re-derive them per candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// Fisher–Yates shuffle of the rule list.
    ShuffleRules,
    /// Rename every IDB/EDB predicate (`p` → `p_mr`), including the query.
    RenamePredicates,
    /// Rename every variable in every rule (`X` → `X_mv`).
    RenameVariables,
    /// Apply one consistent argument permutation per predicate, permuting
    /// the query adornment the same way.
    PermuteArguments,
}

/// All transforms, in the order the oracle applies them.
pub const TRANSFORMS: &[Transform] = &[
    Transform::ShuffleRules,
    Transform::RenamePredicates,
    Transform::RenameVariables,
    Transform::PermuteArguments,
];

impl Transform {
    /// Stable label for JSON/violation messages.
    pub fn label(&self) -> &'static str {
        match self {
            Transform::ShuffleRules => "shuffle-rules",
            Transform::RenamePredicates => "rename-predicates",
            Transform::RenameVariables => "rename-variables",
            Transform::PermuteArguments => "permute-arguments",
        }
    }

    /// Apply the transform, returning the transformed program, query, and
    /// adornment.
    pub fn apply(
        &self,
        r: &mut Rng64,
        program: &Program,
        query: &PredKey,
        adornment: &Adornment,
    ) -> (Program, PredKey, Adornment) {
        match self {
            Transform::ShuffleRules => {
                let mut rules = program.rules.clone();
                for i in (1..rules.len()).rev() {
                    let j = r.below(i as u64 + 1) as usize;
                    rules.swap(i, j);
                }
                (Program::from_rules(rules), query.clone(), adornment.clone())
            }
            Transform::RenamePredicates => {
                let rename = |a: &Atom| Atom::new(format!("{}_mr", a.name), a.args.clone());
                let rules = program
                    .rules
                    .iter()
                    .map(|rule| {
                        Rule::new(
                            rename(&rule.head),
                            rule.body
                                .iter()
                                .map(|l| {
                                    let atom = rename(&l.atom);
                                    if l.positive {
                                        Literal::pos(atom)
                                    } else {
                                        Literal::neg(atom)
                                    }
                                })
                                .collect(),
                        )
                    })
                    .collect();
                (
                    Program::from_rules(rules),
                    PredKey::new(format!("{}_mr", query.name), query.arity),
                    adornment.clone(),
                )
            }
            Transform::RenameVariables => {
                let rules = program.rules.iter().map(|rule| rule.rename_suffix("_mv")).collect();
                (Program::from_rules(rules), query.clone(), adornment.clone())
            }
            Transform::PermuteArguments => {
                // One permutation per predicate (keyed by name/arity).
                let mut perms: BTreeMap<PredKey, Vec<usize>> = BTreeMap::new();
                for p in program.all_predicates() {
                    let mut perm: Vec<usize> = (0..p.arity).collect();
                    for i in (1..perm.len()).rev() {
                        let j = r.below(i as u64 + 1) as usize;
                        perm.swap(i, j);
                    }
                    perms.insert(p, perm);
                }
                let permute = |a: &Atom| -> Atom {
                    match perms.get(&a.key()) {
                        Some(perm) => Atom::new(
                            a.name.as_ref(),
                            perm.iter().map(|&i| a.args[i].clone()).collect(),
                        ),
                        None => a.clone(),
                    }
                };
                let rules = program
                    .rules
                    .iter()
                    .map(|rule| {
                        Rule::new(
                            permute(&rule.head),
                            rule.body
                                .iter()
                                .map(|l| {
                                    let atom = permute(&l.atom);
                                    if l.positive {
                                        Literal::pos(atom)
                                    } else {
                                        Literal::neg(atom)
                                    }
                                })
                                .collect(),
                        )
                    })
                    .collect();
                let adorned = match perms.get(query) {
                    Some(perm) => Adornment(perm.iter().map(|&i| adornment.0[i]).collect()),
                    None => adornment.clone(),
                };
                (Program::from_rules(rules), query.clone(), adorned)
            }
        }
    }
}

/// Oracle 3: run every metamorphic transform and compare verdicts; also
/// compare report JSON across parallelism 1 vs 2. Returns the first
/// violation as `(kind, detail)`.
pub fn check_metamorphic(
    case: &GenCase,
    base: &TerminationReport,
    transform_seed: u64,
) -> Result<(), (ViolationKind, String)> {
    let opts = analysis_options();
    for (ti, t) in TRANSFORMS.iter().enumerate() {
        let mut r = Rng64::new(transform_seed.wrapping_add(ti as u64));
        let (p2, q2, a2) = t.apply(&mut r, &case.program, &case.query, &case.adornment);
        let report2 = analyze(&p2, &q2, a2, &opts);
        if report2.verdict != base.verdict {
            return Err((
                ViolationKind::Metamorphic,
                format!(
                    "{}: verdict changed {:?} -> {:?}",
                    t.label(),
                    base.verdict,
                    report2.verdict
                ),
            ));
        }
        // A proof must stay checkable after the transform.
        if report2.verdict == Verdict::Terminates {
            if let Err(e) = verify_report(&report2, opts.norm) {
                return Err((
                    ViolationKind::Metamorphic,
                    format!("{}: transformed certificate rejected: {e}", t.label()),
                ));
            }
        }
    }
    // Parallelism invariance of the report artifact itself.
    let mut par2 = analysis_options();
    par2.parallelism = 2;
    let report_par = analyze(&case.program, &case.query, case.adornment.clone(), &par2);
    if report_par.to_json() != base.to_json() {
        return Err((
            ViolationKind::JobsDivergence,
            "report JSON differs between --jobs 1 and --jobs 2".to_string(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenOptions};

    #[test]
    fn transforms_preserve_parse_and_shape() {
        let mut r = Rng64::new(5);
        let case = generate(&mut r, &GenOptions::default());
        for t in TRANSFORMS {
            let mut tr = Rng64::new(99);
            let (p, q, a) = t.apply(&mut tr, &case.program, &case.query, &case.adornment);
            assert_eq!(p.rules.len(), case.program.rules.len(), "{}", t.label());
            assert_eq!(a.arity(), q.arity, "{}", t.label());
            // The transformed program still parses back from its printed form.
            let printed = p.to_string();
            argus_logic::parser::parse_program(&printed)
                .unwrap_or_else(|e| panic!("{}: {e}\n{printed}", t.label()));
        }
    }

    #[test]
    fn transforms_are_deterministic() {
        let mut r = Rng64::new(6);
        let case = generate(&mut r, &GenOptions::default());
        for t in TRANSFORMS {
            let (p1, ..) = t.apply(&mut Rng64::new(3), &case.program, &case.query, &case.adornment);
            let (p2, ..) = t.apply(&mut Rng64::new(3), &case.program, &case.query, &case.adornment);
            assert_eq!(p1, p2, "{}", t.label());
        }
    }
}

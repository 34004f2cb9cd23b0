//! # argus-fuzz — randomized soundness harness for the termination analyzer
//!
//! The analyzer's contract is *soundness*: a `Terminates` verdict must mean
//! top-down evaluation really terminates for the claimed mode. This crate
//! turns that contract into a continuously testable invariant:
//!
//! * [`gen`] emits seeded, well-moded logic programs with tunable shape
//!   (SCC count, mutual-recursion width, nonlinear recursion, list/nat
//!   measures, optional same-size "growth" recursion);
//! * [`oracle`] runs three checks per case — differential soundness
//!   against the SLD interpreter, certificate cross-checks (both
//!   directions), and metamorphic invariance under semantics-preserving
//!   program rewrites — plus three opt-in ones: byte-identical round-trips
//!   through a live `argus serve` (`--serve`), confirmation of every
//!   backwards-inferred termination-condition disjunct (`--infer`), and a
//!   cross-engine portfolio differential in which every registered
//!   engine's claimed proof must survive the interpreter and θ's
//!   zero-weight-cycle evidence (`--portfolio`), and a seventh
//!   (`--incremental`) that replays single-clause edits through the
//!   per-SCC incremental memo and requires the report to stay
//!   byte-identical to a from-scratch analysis at every step;
//! * [`shrink`] minimizes any failing program to a small reproducer.
//!
//! Everything is keyed on [`argus_prng::Rng64`], so a run is identified by
//! `(seed, cases)` alone and replays byte-for-byte on any platform. The
//! case loop is parallelized with the same deterministic fork-join used by
//! the analyzer itself, so the report — including its JSON form — is
//! identical at every `--jobs` setting.

#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod shrink;

use argus_core::par::{effective_workers, par_map_indexed};
use argus_core::{analyze, Verdict};
use argus_logic::json::json_str;
use argus_logic::program::Program;
use argus_prng::Rng64;
use gen::{generate, GenCase, GenOptions};
use oracle::{
    analysis_options, check_certificate, check_differential, check_incremental, check_infer,
    check_metamorphic, check_portfolio, check_serve, theta_refutes_unknown, ServeCheckFailure,
    ViolationKind,
};
use std::fmt;
use std::fmt::Write as _;

/// Options for a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed; case `i` derives its own seed from `(seed, i)`.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: usize,
    /// Worker threads for the case loop (`0` = one per core). The report
    /// is byte-identical at every setting.
    pub jobs: usize,
    /// Interpreter step budget for the differential oracle.
    pub max_steps: u64,
    /// Candidate-evaluation budget for the shrinker.
    pub shrink_budget: usize,
    /// Run the metamorphic oracle (on by default; it multiplies analysis
    /// cost per case by the number of transforms).
    pub metamorphic: bool,
    /// Run the brute-force θ completeness-drift detector (warn-only).
    pub theta_search: bool,
    /// Program-shape knobs.
    pub gen: GenOptions,
    /// Round-trip every case through a running `argus serve` instance at
    /// this address and require byte-identical reports (`--serve ADDR`).
    pub serve_addr: Option<String>,
    /// Run the backwards-inference soundness oracle (`--infer`): every
    /// disjunct of every inferred condition must be confirmed by the
    /// forward analyzer, the certificate checker, and the interpreter.
    /// Off by default — it multiplies analysis cost per case.
    pub infer: bool,
    /// Run the cross-engine portfolio oracle (`--portfolio`): every
    /// registered engine analyzes every case un-raced, and any claimed
    /// proof is checked against the interpreter and against θ's
    /// zero-weight-cycle evidence. Off by default — it runs five engines
    /// per case.
    pub portfolio: bool,
    /// Run the incremental-analysis oracle (`--incremental`): mutate the
    /// generated program one clause at a time and require every
    /// memo-backed re-analysis to be byte-identical to a from-scratch
    /// run. Off by default — it re-analyzes the case ~3× per clause.
    pub incremental: bool,
    /// Test-only hook: treat every `Unknown` verdict as a claimed
    /// `Terminates` so the differential oracle and the shrinker can be
    /// exercised end-to-end. Never set outside tests.
    #[doc(hidden)]
    pub inject_soundness_bug: bool,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            seed: 0,
            cases: 100,
            jobs: 0,
            max_steps: 300_000,
            shrink_budget: 400,
            metamorphic: true,
            theta_search: true,
            gen: GenOptions::default(),
            serve_addr: None,
            infer: false,
            portfolio: false,
            incremental: false,
            inject_soundness_bug: false,
        }
    }
}

/// One confirmed oracle failure, with its minimized reproducer.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the case within the run.
    pub case_index: usize,
    /// The case's derived seed (replays the case alone).
    pub case_seed: u64,
    /// Which oracle failed.
    pub kind: ViolationKind,
    /// Human-readable failure detail.
    pub detail: String,
    /// The original generated program.
    pub program: String,
    /// The shrunk reproducer.
    pub shrunk: String,
    /// Clause count of the shrunk reproducer.
    pub shrunk_clauses: usize,
    /// Query spec (`name/arity`).
    pub query: String,
    /// Query adornment (`b`/`f` string).
    pub adornment: String,
}

/// A warn-only observation (completeness drift).
#[derive(Debug, Clone)]
pub struct Warning {
    /// Index of the case within the run.
    pub case_index: usize,
    /// Stable warning label.
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// Aggregate statistics over the generated population.
#[derive(Debug, Clone, Default)]
pub struct ShapeStats {
    /// Total rules across all cases.
    pub rules_total: usize,
    /// Smallest program, in rules.
    pub rules_min: usize,
    /// Largest program, in rules.
    pub rules_max: usize,
    /// Cases containing a nonlinear recursive clause.
    pub nonlinear_cases: usize,
    /// Cases containing a same-size/growing recursive call.
    pub growth_cases: usize,
}

/// Result of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The master seed.
    pub seed: u64,
    /// Number of cases run.
    pub cases: usize,
    /// `Terminates` verdict count.
    pub terminates: usize,
    /// `Unknown` verdict count.
    pub unknown: usize,
    /// `ZeroWeightCycle` verdict count.
    pub zero_weight_cycle: usize,
    /// Shape statistics.
    pub shape: ShapeStats,
    /// Confirmed violations (hard failures).
    pub violations: Vec<Violation>,
    /// Warn-only observations.
    pub warnings: Vec<Warning>,
}

impl FuzzReport {
    /// True iff no oracle reported a hard violation.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic JSON rendering (no timing, no host information), so
    /// output is byte-identical across runs and `--jobs` settings.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"seed\":{},\"cases\":{},\"verdicts\":{{\"terminates\":{},\"unknown\":{},\"zero_weight_cycle\":{}}},",
            self.seed, self.cases, self.terminates, self.unknown, self.zero_weight_cycle
        );
        let _ = write!(
            s,
            "\"shape\":{{\"rules_total\":{},\"rules_min\":{},\"rules_max\":{},\"nonlinear_cases\":{},\"growth_cases\":{}}},",
            self.shape.rules_total,
            self.shape.rules_min,
            self.shape.rules_max,
            self.shape.nonlinear_cases,
            self.shape.growth_cases
        );
        s.push_str("\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"case\":{},\"case_seed\":{},\"kind\":\"{}\",\"detail\":{},\"query\":{},\"adornment\":{},\"shrunk_clauses\":{},\"program\":{},\"shrunk\":{}}}",
                v.case_index,
                v.case_seed,
                v.kind.label(),
                json_str(&v.detail),
                json_str(&v.query),
                json_str(&v.adornment),
                v.shrunk_clauses,
                json_str(&v.program),
                json_str(&v.shrunk)
            );
        }
        s.push_str("],\"warnings\":[");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"case\":{},\"kind\":\"{}\",\"detail\":{}}}",
                w.case_index,
                w.kind,
                json_str(&w.detail)
            );
        }
        s.push_str("]}");
        s
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz: seed {} — {} cases: {} terminates, {} unknown, {} zero-weight-cycle",
            self.seed, self.cases, self.terminates, self.unknown, self.zero_weight_cycle
        )?;
        writeln!(
            f,
            "shape: {} rules total (min {}, max {}), {} nonlinear, {} with growth",
            self.shape.rules_total,
            self.shape.rules_min,
            self.shape.rules_max,
            self.shape.nonlinear_cases,
            self.shape.growth_cases
        )?;
        for w in &self.warnings {
            writeln!(f, "warning [case {}] {}: {}", w.case_index, w.kind, w.detail)?;
        }
        for v in &self.violations {
            writeln!(
                f,
                "VIOLATION [case {} seed {}] {}: {}",
                v.case_index,
                v.case_seed,
                v.kind.label(),
                v.detail
            )?;
            writeln!(
                f,
                "  query {} mode {} — shrunk to {} clause(s):",
                v.query, v.adornment, v.shrunk_clauses
            )?;
            for line in v.shrunk.lines() {
                writeln!(f, "    {line}")?;
            }
        }
        if self.clean() {
            writeln!(f, "no violations")?;
        }
        Ok(())
    }
}

/// Derive the per-case seed from the master seed. Index 0 is the master
/// seed itself, so `--seed <case-seed> --cases 1` replays exactly the
/// offending case; the odd-multiple stride keeps later indices
/// uncorrelated after `Rng64`'s own SplitMix scrambling.
pub fn case_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Outcome of one case, before aggregation.
struct CaseResult {
    verdict: Verdict,
    rules: usize,
    nonlinear: bool,
    growth: bool,
    violation: Option<Violation>,
    warning: Option<Warning>,
}

/// The failing-oracle predicate the shrinker replays: re-analyze the
/// candidate and re-run only the oracle that originally failed.
fn still_fails(
    candidate: &Program,
    case: &GenCase,
    kind: &ViolationKind,
    transform_seed: u64,
    opts: &FuzzOptions,
) -> bool {
    let aopts = analysis_options();
    let report = analyze(candidate, &case.query, case.adornment.clone(), &aopts);
    let claimed = report.verdict == Verdict::Terminates
        || (opts.inject_soundness_bug && report.verdict == Verdict::Unknown);
    match kind {
        ViolationKind::Soundness => {
            claimed && check_differential(candidate, &case.query, opts.max_steps).is_err()
        }
        ViolationKind::Certificate => {
            report.verdict == Verdict::Terminates && check_certificate(&report, &aopts).is_err()
        }
        ViolationKind::Metamorphic | ViolationKind::JobsDivergence => {
            let c2 = GenCase { program: candidate.clone(), ..case.clone() };
            check_metamorphic(&c2, &report, transform_seed).is_err()
        }
        ViolationKind::InferSoundness => check_infer(candidate, opts.max_steps).is_err(),
        ViolationKind::Portfolio => {
            check_portfolio(candidate, &case.query, &case.adornment, report.verdict, opts.max_steps)
                .is_err()
        }
        ViolationKind::IncrementalDivergence => {
            check_incremental(candidate, &case.query, &case.adornment).is_err()
        }
        ViolationKind::ServeDivergence => {
            let Some(addr) = opts.serve_addr.as_deref() else { return false };
            // Only a confirmed divergence keeps the shrinker going; a
            // transport hiccup must not steer minimization.
            matches!(
                check_serve(candidate, &case.query, &case.adornment, &report, addr),
                Err(ServeCheckFailure::Divergence(_))
            )
        }
    }
}

/// Run one case end to end.
fn run_case(index: usize, opts: &FuzzOptions) -> CaseResult {
    let cs = case_seed(opts.seed, index);
    let mut rng = Rng64::new(cs);
    let case = generate(&mut rng, &opts.gen);
    let transform_seed = cs.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let aopts = analysis_options();
    let report = analyze(&case.program, &case.query, case.adornment.clone(), &aopts);

    let mut result = CaseResult {
        verdict: report.verdict,
        rules: case.program.rules.len(),
        nonlinear: case.has_nonlinear,
        growth: case.has_growth,
        violation: None,
        warning: None,
    };

    let claimed_terminates = report.verdict == Verdict::Terminates
        || (opts.inject_soundness_bug && report.verdict == Verdict::Unknown);

    let mut failure: Option<(ViolationKind, String)> = None;

    // Oracle 1: differential soundness.
    if claimed_terminates {
        if let Err(detail) = check_differential(&case.program, &case.query, opts.max_steps) {
            failure = Some((ViolationKind::Soundness, detail));
        }
    }
    // Oracle 2a: certificate check on proofs.
    if failure.is_none() && report.verdict == Verdict::Terminates {
        if let Err(detail) = check_certificate(&report, &aopts) {
            failure = Some((ViolationKind::Certificate, detail));
        }
    }
    // Oracle 2b: completeness drift (warn-only).
    if failure.is_none() && opts.theta_search && report.verdict == Verdict::Unknown {
        if let Some(detail) = theta_refutes_unknown(&report, &aopts) {
            result.warning =
                Some(Warning { case_index: index, kind: "completeness-drift", detail });
        }
    }
    // Oracle 3: metamorphic invariance.
    if failure.is_none() && opts.metamorphic {
        if let Err((kind, detail)) = check_metamorphic(&case, &report, transform_seed) {
            failure = Some((kind, detail));
        }
    }
    // Oracle 5 (opt-in): every inferred condition disjunct is confirmed
    // by the forward analyzer, the checker, and the interpreter.
    if failure.is_none() && opts.infer {
        if let Err(detail) = check_infer(&case.program, opts.max_steps) {
            failure = Some((ViolationKind::InferSoundness, detail));
        }
    }
    // Oracle 6 (opt-in): cross-engine portfolio differential — any
    // engine's claimed proof must survive the interpreter and θ's
    // zero-weight-cycle evidence.
    if failure.is_none() && opts.portfolio {
        if let Err(detail) = check_portfolio(
            &case.program,
            &case.query,
            &case.adornment,
            report.verdict,
            opts.max_steps,
        ) {
            failure = Some((ViolationKind::Portfolio, detail));
        }
    }
    // Oracle 7 (opt-in): the per-SCC incremental memo is invisible in the
    // output under a single-clause edit stream.
    if failure.is_none() && opts.incremental {
        if let Err(detail) = check_incremental(&case.program, &case.query, &case.adornment) {
            failure = Some((ViolationKind::IncrementalDivergence, detail));
        }
    }
    // Oracle 4 (opt-in): byte-identical round-trip through a live server.
    if failure.is_none() {
        if let Some(addr) = opts.serve_addr.as_deref() {
            if let Err(f) = check_serve(&case.program, &case.query, &case.adornment, &report, addr)
            {
                let detail = match f {
                    ServeCheckFailure::Transport(d) => format!("transport: {d}"),
                    ServeCheckFailure::Divergence(d) => d,
                };
                failure = Some((ViolationKind::ServeDivergence, detail));
            }
        }
    }

    if let Some((kind, detail)) = failure {
        let mut fails =
            |candidate: &Program| still_fails(candidate, &case, &kind, transform_seed, opts);
        let shrunk = shrink::shrink(&case.program, &mut fails, opts.shrink_budget);
        result.violation = Some(Violation {
            case_index: index,
            case_seed: cs,
            kind,
            detail,
            program: case.program.to_string(),
            shrunk: shrunk.to_string(),
            shrunk_clauses: shrunk.rules.len(),
            query: case.query.to_string(),
            adornment: case.adornment.to_string(),
        });
    }
    result
}

/// Run the harness.
pub fn run(opts: &FuzzOptions) -> FuzzReport {
    let indices: Vec<usize> = (0..opts.cases).collect();
    let workers = effective_workers(opts.jobs, indices.len());
    let results = par_map_indexed(&indices, workers, |_, &i| run_case(i, opts));

    let mut report = FuzzReport {
        seed: opts.seed,
        cases: opts.cases,
        terminates: 0,
        unknown: 0,
        zero_weight_cycle: 0,
        shape: ShapeStats { rules_min: usize::MAX, ..ShapeStats::default() },
        violations: Vec::new(),
        warnings: Vec::new(),
    };
    for r in results {
        match r.verdict {
            Verdict::Terminates => report.terminates += 1,
            Verdict::Unknown => report.unknown += 1,
            Verdict::ZeroWeightCycle => report.zero_weight_cycle += 1,
        }
        report.shape.rules_total += r.rules;
        report.shape.rules_min = report.shape.rules_min.min(r.rules);
        report.shape.rules_max = report.shape.rules_max.max(r.rules);
        report.shape.nonlinear_cases += usize::from(r.nonlinear);
        report.shape.growth_cases += usize::from(r.growth);
        if let Some(v) = r.violation {
            report.violations.push(v);
        }
        if let Some(w) = r.warning {
            report.warnings.push(w);
        }
    }
    if opts.cases == 0 {
        report.shape.rules_min = 0;
    }
    report
}

/// Render one violation as a standalone reproducer file: a commented
/// header the regression replayer parses, followed by the shrunk program.
pub fn repro_file(v: &Violation) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "% argus fuzz reproducer");
    let _ = writeln!(s, "% kind: {}", v.kind.label());
    let _ = writeln!(s, "% seed: {}", v.case_seed);
    let _ = writeln!(s, "% query: {}", v.query);
    let _ = writeln!(s, "% adornment: {}", v.adornment);
    let _ = writeln!(s, "% detail: {}", v.detail.replace('\n', " "));
    s.push_str(&v.shrunk);
    if !s.ends_with('\n') {
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_deterministic_across_jobs() {
        let base = FuzzOptions { cases: 12, seed: 7, ..FuzzOptions::default() };
        let a = run(&FuzzOptions { jobs: 1, ..base.clone() });
        let b = run(&FuzzOptions { jobs: 4, ..base.clone() });
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn single_case_replay_uses_the_printed_seed_directly() {
        // A violation report prints case_seed; `--seed <case_seed> --cases 1`
        // must regenerate the same program, i.e. index 0 is the identity.
        for s in [0u64, 1, 0xDEAD_BEEF] {
            for i in 0..4 {
                let cs = case_seed(s, i);
                assert_eq!(case_seed(cs, 0), cs);
            }
        }
    }

    #[test]
    fn small_run_is_clean() {
        let opts = FuzzOptions { cases: 25, seed: 3, ..FuzzOptions::default() };
        let report = run(&opts);
        assert!(report.clean(), "{report}");
        assert_eq!(report.terminates + report.unknown + report.zero_weight_cycle, 25);
    }

    #[test]
    fn infer_oracle_confirms_inferred_conditions() {
        let opts = FuzzOptions {
            cases: 10,
            seed: 11,
            metamorphic: false,
            theta_search: false,
            infer: true,
            ..FuzzOptions::default()
        };
        let report = run(&opts);
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn portfolio_oracle_small_run_is_clean() {
        let opts = FuzzOptions {
            cases: 15,
            seed: 21,
            metamorphic: false,
            theta_search: false,
            portfolio: true,
            ..FuzzOptions::default()
        };
        let report = run(&opts);
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn incremental_oracle_small_run_is_clean() {
        let opts = FuzzOptions {
            cases: 12,
            seed: 17,
            metamorphic: false,
            theta_search: false,
            incremental: true,
            ..FuzzOptions::default()
        };
        let report = run(&opts);
        assert!(report.clean(), "{report}");
    }

    #[test]
    fn injected_soundness_bug_is_caught_and_shrunk() {
        // Flip Unknown -> claimed-Terminates: the differential oracle must
        // catch at least one runaway program, and the shrinker must cut it
        // down to a tiny reproducer.
        let opts = FuzzOptions {
            cases: 40,
            seed: 1,
            metamorphic: false,
            theta_search: false,
            inject_soundness_bug: true,
            max_steps: 30_000,
            ..FuzzOptions::default()
        };
        let report = run(&opts);
        let soundness: Vec<&Violation> =
            report.violations.iter().filter(|v| v.kind == ViolationKind::Soundness).collect();
        assert!(!soundness.is_empty(), "injected bug went unnoticed\n{report}");
        for v in soundness {
            assert!(
                v.shrunk_clauses <= 5,
                "reproducer not minimal ({} clauses):\n{}",
                v.shrunk_clauses,
                v.shrunk
            );
        }
    }
}

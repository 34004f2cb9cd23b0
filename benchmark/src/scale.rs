//! `scale-cold`: cold analysis of a generated scale program, which must
//! verdict `Terminates`.

use crate::layers::{self, Accounting, AnalysisInput, Counters};
use crate::trace::Tracer;
use crate::{calib, end_to_end, gen, ms_since, timed_setups, Args, OpSample, Outcome};
use argus_core::Verdict;
use argus_logic::{PredKey, Program, Rule};
use std::time::Instant;

/// Clause target of the scale program.
pub const CLAUSES: usize = 250;

/// Generator seed of the scale programs' structure: the program the
/// repository's `scale` bench suite analyzes.
const STRUCTURE_SEED: u64 = 0xA11CE;

/// The scale program for `seed`: `scale_case(STRUCTURE_SEED, clauses)`
/// with its procedures (each predicate's clauses, kept in order) laid
/// out in a seeded order. The structure is fixed because the generator's
/// per-SCC cost is heavy-tailed (the ten slowest of ~390 SCCs take about
/// half of the fixpoint), so programs drawn from different seeds differ
/// by 15% in cold cost; the seed varies the text, the symbol order and
/// the SCC numbering instead.
pub fn scale_program(seed: u64, clauses: usize) -> AnalysisInput {
    let case = argus_fuzz::gen::scale_case(STRUCTURE_SEED, clauses);
    let mut procedures: Vec<(PredKey, Vec<Rule>)> = Vec::new();
    for rule in &case.program.rules {
        let key = rule.head.key();
        match procedures.iter_mut().find(|(k, _)| *k == key) {
            Some((_, rules)) => rules.push(rule.clone()),
            None => procedures.push((key, vec![rule.clone()])),
        }
    }
    let order = gen::permutation(&mut gen::rng(seed, 0x5CA1E), procedures.len());
    let rules: Vec<Rule> = order.iter().flat_map(|&i| procedures[i].1.iter().cloned()).collect();
    let src = Program::from_rules(rules).to_string();
    // The text must round-trip: the op parses it.
    let reparsed = argus_logic::parser::parse_program(&src).expect("scale program reparses");
    assert_eq!(reparsed.rules.len(), case.program.rules.len());
    AnalysisInput { src, query: case.query, adornment: case.adornment }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Set-up builds the program and analyzes it once untimed, so lazily
    // built process state (the symbol interner) is filled before the window.
    let (setup_s, program) = timed_setups(|| {
        let program = scale_program(args.seed, CLAUSES);
        std::hint::black_box(layers::cold_analysis(&program));
        program
    });

    if args.trace {
        traced(args, &program, &mut out);
        return out;
    }

    // Each op is scaled by a calibration run just before it.
    let mut ops: Vec<OpSample> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let factor = calib::factor();
        let t0 = Instant::now();
        let report = layers::cold_analysis(&program);
        ops.push(OpSample { kind: "cold", ms: ms_since(t0), factor });
        check(report.verdict, &mut out);
    }
    out.note(format!("{CLAUSES}-clause program, {} cold analyses", ops.len()));
    let window_s = ops.iter().map(OpSample::scaled_ms).sum::<f64>() / 1e3;
    end_to_end(&mut out, &setup_s, &ops, window_s);
    out
}

/// Count one verdict, which must be `Terminates`.
fn check(verdict: Verdict, out: &mut Outcome) {
    out.attempted += 1;
    if verdict != Verdict::Terminates {
        out.failed += 1;
        out.note(format!("verdict {verdict:?}, want Terminates"));
    }
}

/// The traced run: each op runs untraced and then traced, back to back, so
/// a change in host speed during the run shifts both alike.
fn traced(args: &Args, program: &AnalysisInput, out: &mut Outcome) {
    let mut t = Tracer::new();
    let mut counters = Counters::default();
    let mut untraced_ms = 0.0;
    let mut replayed = 0;
    let start = Instant::now();
    while replayed == 0 || start.elapsed() < args.seconds {
        let t0 = Instant::now();
        let report = layers::cold_analysis(program);
        untraced_ms += ms_since(t0);
        check(report.verdict, out);
        let report = layers::traced_analysis(&mut t, replayed as u64, program, &mut counters);
        check(report.verdict, out);
        replayed += 1;
    }
    layers::per_op(&mut counters, replayed, &["sizerel.fm.peak_rows"]);
    layers::finish_projcache(&mut counters);
    // The per-SCC distribution comes from a separate replay, outside the
    // op spans.
    counters.add("sizerel.scc_top1pct_share", layers::scc_top1pct_share(program));
    layers::report(
        out,
        t.spans(),
        replayed,
        untraced_ms / replayed as f64,
        &counters,
        &Accounting { contained: &[], remainder: None },
    );
    crate::write_trace(&t, args);
}

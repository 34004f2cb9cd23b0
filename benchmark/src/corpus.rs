//! `corpus-cold`: repeated passes of cold analysis over every corpus
//! entry, each checked against the entry's pinned verdict.

use crate::layers::{self, Accounting, AnalysisInput, Counters};
use crate::trace::Tracer;
use crate::{calib, end_to_end, gen, ms_since, timed_setups, Args, OpSample, Outcome};
use argus_core::Verdict;
use std::time::Instant;

/// One corpus entry prepared for analysis.
struct Entry {
    name: &'static str,
    input: AnalysisInput,
    expected_provable: bool,
    terminates: bool,
}

/// Load every corpus entry and analyze each once, so lazily built
/// process state (the symbol interner) is filled before the window.
fn setup() -> Vec<Entry> {
    let entries: Vec<Entry> = argus_corpus::corpus()
        .into_iter()
        .map(|e| {
            let (query, adornment) = e.query_key();
            Entry {
                name: e.name,
                input: AnalysisInput { src: e.source.to_string(), query, adornment },
                expected_provable: e.expected_provable,
                terminates: e.terminates,
            }
        })
        .collect();
    for e in &entries {
        std::hint::black_box(layers::cold_analysis(&e.input));
    }
    entries
}

/// The op order: passes over the corpus, each a seeded permutation.
fn pass_order(seed: u64, entries: usize, passes: usize) -> Vec<usize> {
    let mut r = gen::rng(seed, 0xC0C0);
    (0..passes).flat_map(|_| gen::permutation(&mut r, entries)).collect()
}

/// Check one verdict; returns whether it is wrong.
fn wrong(e: &Entry, verdict: Verdict, out: &mut Outcome) -> bool {
    let proved = verdict == Verdict::Terminates;
    if proved && !e.terminates {
        out.note(format!(
            "SOUNDNESS FAILURE: {} reported Terminates but does not terminate",
            e.name
        ));
    }
    if proved != e.expected_provable {
        out.note(format!("wrong verdict on {}: {verdict:?}", e.name));
        return true;
    }
    false
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, entries) = timed_setups(setup);
    // Far more passes than any window can use; the window stops the loop.
    let order = pass_order(args.seed, entries.len(), 1000);
    if args.trace {
        traced(args, &entries, &order, &mut out);
        return out;
    }

    // Whole passes until the window has elapsed, each scaled by a
    // calibration run just before it.
    let n = entries.len();
    let mut ops: Vec<OpSample> = Vec::new();
    let mut pass_ms = Vec::new();
    let start = Instant::now();
    for pass in order.chunks(n) {
        if start.elapsed() >= args.seconds {
            break;
        }
        let factor = calib::factor();
        let pass_start = Instant::now();
        for &i in pass {
            let e = &entries[i];
            let t0 = Instant::now();
            let report = layers::cold_analysis(&e.input);
            ops.push(OpSample { kind: e.name, ms: ms_since(t0), factor });
            out.attempted += 1;
            out.failed += u64::from(wrong(e, report.verdict, &mut out));
        }
        pass_ms.push(ms_since(pass_start) * factor);
    }
    out.note(format!(
        "{} passes over {n} entries, median pass {:.1} ms",
        pass_ms.len(),
        crate::stats::median(&pass_ms).unwrap_or(f64::NAN)
    ));
    let window_s = pass_ms.iter().sum::<f64>() / 1e3;
    end_to_end(&mut out, &setup_s, &ops, window_s);
    out
}

/// The traced run: each op runs untraced and then traced, back to back, so
/// a change in host speed during the run shifts both alike.
fn traced(args: &Args, entries: &[Entry], order: &[usize], out: &mut Outcome) {
    let mut t = Tracer::new();
    let mut counters = Counters::default();
    let mut untraced_ms = 0.0;
    let mut replayed = 0;
    let start = Instant::now();
    for (k, &i) in order.iter().enumerate() {
        if replayed > 0 && start.elapsed() >= args.seconds {
            break;
        }
        let e = &entries[i];
        let t0 = Instant::now();
        let report = layers::cold_analysis(&e.input);
        untraced_ms += ms_since(t0);
        let traced = layers::traced_analysis(&mut t, k as u64, &e.input, &mut counters);
        for verdict in [report.verdict, traced.verdict] {
            out.attempted += 1;
            out.failed += u64::from(wrong(e, verdict, out));
        }
        replayed += 1;
    }
    layers::per_op(&mut counters, replayed, &["sizerel.fm.peak_rows"]);
    layers::finish_projcache(&mut counters);
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

//! E7 (quick form) — analysis cost without the Criterion harness.
//!
//! Single-shot wall-clock timings (median of 5 runs) for the rows
//! EXPERIMENTS.md reports: per-corpus-program analysis time, the
//! chained-SCC scaling family, and the FM-vs-simplex feasibility
//! crossover. For statistically careful numbers use `bench_report
//! --suite <name> --out -`; this binary reproduces the table's shape in
//! seconds instead of minutes.

use argus_bench::workload;
use argus_bench::ExperimentLog;
use argus_core::{analyze, AnalysisOptions};
use argus_linear::{fm, simplex};
use std::collections::BTreeSet;
use std::time::Instant;

fn median_ms(mut runs: Vec<f64>) -> f64 {
    runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    runs[runs.len() / 2]
}

fn time_ms(mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median_ms(runs)
}

fn main() {
    let mut log = ExperimentLog::new(
        "E7-quick",
        "analysis cost (median of 5, wall clock)",
        "§4: \"in practice, Fourier-Motzkin elimination is simple and adequate\"",
        &["workload", "time (ms)"],
    );

    // Per-program analysis cost.
    for name in ["append_bff", "merge", "perm", "tree_insert", "quicksort", "expr_parser", "hanoi"]
    {
        let entry = argus_corpus::find(name).expect("entry");
        let program = entry.program().expect("parse");
        let (query, adornment) = entry.query_key();
        let ms = time_ms(|| {
            let _ = analyze(&program, &query, adornment.clone(), &AnalysisOptions::default());
        });
        log.row(&[format!("analyze {name}"), format!("{ms:.1}")]);
    }

    // Chained-SCC scaling.
    for depth in [1usize, 2, 4, 8] {
        let src = workload::chained_append_program(depth);
        let program = argus_logic::parser::parse_program(&src).expect("parse");
        let query = argus_logic::PredKey::new("p0", 2);
        let adornment = argus_logic::Adornment::parse("bf").unwrap();
        let ms = time_ms(|| {
            let _ = analyze(&program, &query, adornment.clone(), &AnalysisOptions::default());
        });
        log.row(&[format!("chained depth {depth}"), format!("{ms:.1}")]);
    }

    // FM vs simplex feasibility crossover.
    for nvars in [3usize, 4, 5, 6] {
        let mut r = workload::rng(13 + nvars as u64);
        let sys = workload::random_feasible_system(&mut r, nvars, nvars * 2, 3);
        let ms_sx = time_ms(|| {
            let _ = simplex::feasible_point(&sys, &BTreeSet::new());
        });
        log.row(&[format!("simplex feasibility, {nvars} vars"), format!("{ms_sx:.2}")]);
        let ms_fm = time_ms(|| {
            let _ = fm::project_onto_with(
                &sys,
                &BTreeSet::new(),
                &fm::FmConfig::capped(50_000),
                &mut fm::FmStats::default(),
            );
        });
        log.row(&[format!("FM feasibility, {nvars} vars"), format!("{ms_fm:.2}")]);
    }

    log.note(
        "Shapes to expect: per-program cost in single/double-digit ms; chained \
         scaling roughly linear; FM beats simplex up to ~5 dense variables, \
         then falls off a cliff (the reason for the row caps).",
    );
    log.emit();
}

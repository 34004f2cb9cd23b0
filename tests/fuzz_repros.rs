//! Regression replay of every minimized fuzz reproducer.
//!
//! `argus fuzz` writes a `.pl` file under `tests/golden/fuzz-repros/` for
//! each violation that survives shrinking (see the README there for the
//! format). This test re-runs the full oracle battery on every file: once
//! the underlying bug is fixed, the reproducer must stay clean forever.

use argus::fuzz::gen::GenCase;
use argus::fuzz::oracle::{
    analysis_options, check_certificate, check_differential, check_metamorphic,
};
use argus::logic::parser::parse_program;
use argus::prelude::*;
use std::path::Path;

/// Parse the `% key: value` header lines of a reproducer.
fn header(src: &str, key: &str) -> Option<String> {
    let prefix = format!("% {key}: ");
    src.lines().find_map(|l| l.strip_prefix(&prefix).map(str::to_string))
}

fn replay(path: &Path) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let query_spec = header(&src, "query").ok_or("missing `% query:` header")?;
    let mode = header(&src, "adornment").ok_or("missing `% adornment:` header")?;
    let (query, adornment) = argus::logic::parse_query_spec(&query_spec, &mode)?;
    let program = parse_program(&src).map_err(|e| format!("parse: {e}"))?;

    let opts = analysis_options();
    let report = analyze(&program, &query, adornment.clone(), &opts);
    // FM redundancy tiers must be invisible in the report — replay each
    // reproducer at every tier and demand byte-identical JSON.
    let baseline = report.to_json();
    for tier in FmTier::ALL {
        let variant = AnalysisOptions { fm_tier: tier, ..opts.clone() };
        let tiered = analyze(&program, &query, adornment.clone(), &variant);
        if tiered.to_json() != baseline {
            return Err(format!("fm tier {tier:?} changed the report"));
        }
    }
    if report.verdict == Verdict::Terminates {
        check_differential(&program, &query, 300_000)
            .map_err(|e| format!("differential oracle failed again: {e}"))?;
        check_certificate(&report, &opts)
            .map_err(|e| format!("certificate oracle failed again: {e}"))?;
    }
    let case = GenCase { program, query, adornment, has_growth: false, has_nonlinear: false };
    check_metamorphic(&case, &report, 0)
        .map_err(|(k, e)| format!("metamorphic oracle ({}) failed again: {e}", k.label()))?;
    Ok(())
}

#[test]
fn all_reproducers_stay_fixed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fuzz-repros");
    let mut replayed = 0usize;
    let mut failures = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("fuzz-repros directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("pl") {
            continue;
        }
        replayed += 1;
        if let Err(e) = replay(&path) {
            failures.push(format!("{}: {e}", path.display()));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // The committed sample fixture guarantees the replayer always has work.
    assert!(replayed >= 1, "no reproducers found in {}", dir.display());
}

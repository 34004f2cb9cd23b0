//! `fm_gate` — bench-regression gate for the FM redundancy tiers.
//!
//! Reads a `BENCH_argus.json` written by `bench_report` (any scale) and
//! fails if the row-reduction counters of the `fm_redundancy` suite fall
//! below pinned floors. Wall time is deliberately *not* gated here: the
//! counters are deterministic by construction, timings are not, so this
//! gate stays green on loaded CI machines while still catching a change
//! that quietly disables dedup/subsumption/Chernikov dropping or the
//! per-run projection cache.
//!
//! Usage: `fm_gate [PATH]` (default `BENCH_argus.json`).

use argus_bench::json::{scan_num_field, scan_str_field};
use std::collections::BTreeMap;

/// Pinned floors. Chosen well below the measured values (see
/// EXPERIMENTS.md E11) so scheduler noise can never trip them, but far
/// above what any regression to the redundancy machinery would produce.
const FLOORS: &[Check] = &[
    // ≥5× peak-row reduction on the FM-heavy corpus entry (measured ~21×).
    Check::Ratio {
        num: "fm_redundancy/infer-rules/mutual_fib_ring/tier0",
        den: "fm_redundancy/infer-rules/mutual_fib_ring/tier2",
        key: "peak_rows",
        floor: 5.0,
    },
    // Dense random projection: tier 0 must still blow up relative to the
    // default tier (measured ~10×); if this ratio collapses, either tier 0
    // got redundancy elimination (wrong) or tier 2 stopped eliminating.
    Check::Ratio {
        num: "fm_redundancy/project/6v12r/tier0",
        den: "fm_redundancy/project/6v12r/tier2",
        key: "peak_rows",
        floor: 4.0,
    },
    // The individual mechanisms must actually fire on the corpus entry.
    Check::Min {
        id: "fm_redundancy/infer-rules/mutual_fib_ring/tier1",
        key: "subsume_hits",
        floor: 1.0,
    },
    // Chernikov dropping fires on the dense projection (the ring's
    // per-rule projections are already minimal after subsumption, so
    // tiers 1 and 2 coincide there — measured 1512 drops here).
    Check::Min { id: "fm_redundancy/project/6v12r/tier2", key: "chernikov_drops", floor: 1.0 },
    Check::Min {
        id: "fm_redundancy/infer-rules/mutual_fib_ring/tier2",
        key: "dedup_hits",
        floor: 1.0,
    },
    // The per-run projection cache must hit at least once end-to-end.
    Check::Min { id: "fm_redundancy/analyze/mutual_fib_ring/tier2", key: "cache_hits", floor: 1.0 },
];

enum Check {
    /// `counters[key]` of sample `num` divided by sample `den` must be ≥ `floor`.
    Ratio { num: &'static str, den: &'static str, key: &'static str, floor: f64 },
    /// `counters[key]` of sample `id` must be ≥ `floor`.
    Min { id: &'static str, key: &'static str, floor: f64 },
}

fn counter(samples: &BTreeMap<String, String>, id: &str, key: &str) -> Result<f64, String> {
    let line = samples.get(id).ok_or_else(|| format!("sample `{id}` missing from report"))?;
    scan_num_field(line, key).ok_or_else(|| format!("sample `{id}` has no counter `{key}`"))
}

fn run(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        if let Some(id) = scan_str_field(line, "id") {
            samples.insert(id, line.to_string());
        }
    }
    if samples.is_empty() {
        return Err(format!("no samples found in {path}"));
    }

    let mut failures = Vec::new();
    let mut report = Vec::new();
    for check in FLOORS {
        match check {
            Check::Ratio { num, den, key, floor } => {
                let n = counter(&samples, num, key)?;
                let d = counter(&samples, den, key)?;
                if d <= 0.0 {
                    failures.push(format!("{den}: {key} is {d}, expected > 0"));
                    continue;
                }
                let ratio = n / d;
                let ok = ratio >= *floor;
                report.push(format!(
                    "{} {key} ratio {num} / {den} = {n:.0}/{d:.0} = {ratio:.1} (floor {floor})",
                    if ok { "ok  " } else { "FAIL" }
                ));
                if !ok {
                    failures.push(format!("{key} ratio {num}/{den} = {ratio:.2} < {floor}"));
                }
            }
            Check::Min { id, key, floor } => {
                let v = counter(&samples, id, key)?;
                let ok = v >= *floor;
                report.push(format!(
                    "{} {id} {key} = {v:.0} (floor {floor})",
                    if ok { "ok  " } else { "FAIL" }
                ));
                if !ok {
                    failures.push(format!("{id} {key} = {v:.0} < {floor}"));
                }
            }
        }
    }
    for line in &report {
        eprintln!("fm_gate: {line}");
    }
    Ok(failures)
}

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_argus.json".to_string());
    match run(&path) {
        Ok(failures) if failures.is_empty() => {
            eprintln!("fm_gate: all row-reduction floors hold ({path})");
        }
        Ok(failures) => {
            for f in &failures {
                eprintln!("fm_gate: FAIL {f}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("fm_gate: {e}");
            std::process::exit(1);
        }
    }
}

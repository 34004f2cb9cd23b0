//! `bench_report` — run the bench workloads at a fixed iteration count and
//! emit a machine-readable `BENCH_argus.json`, so the performance
//! trajectory of the repo is tracked from commit to commit.
//!
//! Usage:
//!
//! ```text
//! bench_report [--smoke] [--out PATH] [--baseline PATH] [--suite NAME]
//! ```
//!
//! * `--smoke` — CI-sized workloads (seconds, not minutes).
//! * `--out PATH` — where to write the report (default `BENCH_argus.json`
//!   in the current directory; `-` for stdout only).
//! * `--baseline PATH` — a previous `BENCH_argus.json`; matching case ids
//!   get `baseline_ns_per_iter` and `speedup` fields embedded so the
//!   committed report carries its own before/after comparison.
//! * `--suite NAME` — run only the named suite (repeatable). The CI
//!   regression lane uses this to run `fm_redundancy` alone.
//! * `--merge` — with `--suite`, keep the other suites' sample lines
//!   from the existing `--out` file instead of dropping them, so one
//!   suite can be re-benchmarked without discarding the rest of the
//!   committed report.

use argus_bench::json::{json_f64, json_str, read_samples};
use argus_bench::suites::{self, Scale};
use argus_bench::timing::{render_line, Sample};
use std::collections::BTreeMap;

struct Args {
    scale: Scale,
    out: String,
    baseline: Option<String>,
    suites: Vec<String>,
    merge: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = Scale::Full;
    let mut out = "BENCH_argus.json".to_string();
    let mut baseline = None;
    let mut suites = Vec::new();
    let mut merge = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--out" => out = args.next().ok_or("--out needs a path")?,
            "--baseline" => baseline = Some(args.next().ok_or("--baseline needs a path")?),
            "--suite" => suites.push(args.next().ok_or("--suite needs a name")?),
            "--merge" => merge = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if merge && suites.is_empty() {
        return Err("--merge only makes sense with --suite".to_string());
    }
    Ok(Args { scale, out, baseline, suites, merge })
}

/// Raw sample lines of the existing report, keyed by suite (the id's
/// first path segment), preserved verbatim for `--merge`.
fn read_kept_lines(path: &str, rerun: &[String]) -> Result<BTreeMap<String, Vec<String>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut kept: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for sample in read_samples(&text).map_err(|e| format!("{path}: {e}"))? {
        let suite = sample.id.split('/').next().unwrap_or_default().to_string();
        if rerun.contains(&suite) {
            continue;
        }
        kept.entry(suite).or_default().push(sample.line.to_string());
    }
    Ok(kept)
}

/// Read `id → ns_per_iter` back from a previous report.
fn read_baseline(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut map = BTreeMap::new();
    for sample in read_samples(&text).map_err(|e| format!("{path}: {e}"))? {
        if let Some(ns) = sample.value.get("ns_per_iter").and_then(|v| v.as_f64()) {
            map.insert(sample.id, ns);
        }
    }
    if map.is_empty() {
        return Err(format!("no samples found in baseline {path}"));
    }
    Ok(map)
}

fn render_sample(s: &Sample, baseline: &BTreeMap<String, f64>) -> String {
    let mut obj = format!(
        "    {{\"id\": {}, \"iters\": {}, \"ns_per_iter\": {}",
        json_str(&s.id()),
        s.iters,
        json_f64(s.ns_per_iter)
    );
    if let Some(base) = baseline.get(&s.id()) {
        obj.push_str(&format!(
            ", \"baseline_ns_per_iter\": {}, \"speedup\": {}",
            json_f64(*base),
            json_f64_ratio(*base, s.ns_per_iter)
        ));
    }
    if !s.counters.is_empty() {
        let fields: Vec<String> = s.counters.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        obj.push_str(&format!(", \"counters\": {{{}}}", fields.join(", ")));
    }
    obj.push('}');
    obj
}

fn render_report(mode: Scale, lines: &[String]) -> String {
    format!(
        "{{\n  \"schema\": \"argus-bench-report/v1\",\n  \"mode\": {},\n  \"samples\": [\n{}\n  ]\n}}\n",
        json_str(if mode == Scale::Smoke { "smoke" } else { "full" }),
        lines.join(",\n")
    )
}

fn json_f64_ratio(base: f64, now: f64) -> String {
    if now > 0.0 && base.is_finite() {
        format!("{:.2}", base / now)
    } else {
        "null".to_string()
    }
}

fn main() {
    let Args { scale, out, baseline: baseline_path, suites: only, merge } = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_report: {e}");
            std::process::exit(1);
        }
    };
    let known = suites::all_suites();
    for s in &only {
        if !known.iter().any(|(name, _)| name == s) {
            eprintln!("bench_report: unknown suite `{s}`");
            std::process::exit(1);
        }
    }
    let baseline = match baseline_path.as_deref().map(read_baseline).transpose() {
        Ok(b) => b.unwrap_or_default(),
        Err(e) => {
            eprintln!("bench_report: {e}");
            std::process::exit(1);
        }
    };
    let kept = if merge {
        match read_kept_lines(&out, &only) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("bench_report: --merge: {e}");
                std::process::exit(1);
            }
        }
    } else {
        BTreeMap::new()
    };

    let mut lines = Vec::new();
    let mut ran = 0usize;
    for (name, f) in known {
        if only.is_empty() || only.iter().any(|s| s == name) {
            eprintln!("== suite: {name}");
            let suite = f(scale);
            for s in &suite {
                eprintln!("{}", render_line(s));
                lines.push(render_sample(s, &baseline));
            }
            ran += suite.len();
        } else if let Some(old) = kept.get(name) {
            lines.extend(old.iter().cloned());
        }
    }

    let report = render_report(scale, &lines);
    if out == "-" {
        println!("{report}");
    } else {
        if let Err(e) = std::fs::write(&out, &report) {
            eprintln!("bench_report: write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {out} ({ran} fresh samples, {} total)", lines.len());
    }
}

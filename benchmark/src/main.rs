//! The argus benchmark: one command, four seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <corpus-cold|scale-cold|edit-session|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets the workload up three times, measures its
//! ops for `--seconds`, checks every output, and prints the end-to-end
//! metrics, with every time scaled to the reference host speed (see
//! `calib`). With `--trace 1` it runs each op untraced and, right after,
//! replays it calling each layer's entry point inside a span, and prints
//! the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `benchmark/README.md` for the metric definitions.

mod calib;
mod corpus;
mod edit;
mod gen;
mod layers;
mod scale;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// One timed op: its kind (for per-kind medians) and latency.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Op kind, e.g. a corpus entry name or `noop`.
    pub kind: &'static str,
    /// Latency in milliseconds, as measured.
    pub ms: f64,
    /// Calibration factor of the kernel run next to the op.
    pub factor: f64,
}

impl OpSample {
    /// Latency scaled to the reference host speed.
    pub fn scaled_ms(&self) -> f64 {
        self.ms * self.factor
    }
}

/// What a workload hands back to the reporter.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted (plus end-of-run checks).
    pub attempted: u64,
    /// Ops (and checks) whose output was wrong.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Record a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The end-to-end metrics of an untraced run: `setup` holds each set-up's
/// seconds and `window_s` the time the ops ran in, both scaled to the
/// reference host speed, and `ops` the timed ops.
pub fn end_to_end(out: &mut Outcome, setup: &[f64], ops: &[OpSample], window_s: f64) {
    let ms: Vec<f64> = ops.iter().map(OpSample::scaled_ms).collect();
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for o in ops {
        by_kind.entry(o.kind).or_default().push(o.scaled_ms());
    }
    let kind_medians: Vec<f64> = by_kind.values().filter_map(|v| stats::median(v)).collect();
    out.metric("setup_s", stats::median(setup).unwrap_or(f64::NAN), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("p50_ms", stats::median(&ms).unwrap_or(f64::NAN), "ms");
    out.metric("p90_ms", stats::percentile(&ms, 90.0).unwrap_or(f64::NAN), "ms");
    out.metric("throughput_per_s", ops.len() as f64 / window_s, "1/s");
    out.metric("geomean_ms", stats::geomean(&kind_medians).unwrap_or(f64::NAN), "ms");
    let tail = match stats::tail(&ms) {
        Some((p, v)) => format!("p{p} {v:.3} ms"),
        None => "no percentile has 10 samples beyond it".to_string(),
    };
    out.note(format!(
        "{} ops in {window_s:.2} s ({} kinds); tail: {tail}; set-ups: {}",
        ops.len(),
        by_kind.len(),
        setup.iter().map(|s| format!("{s:.3} s")).collect::<Vec<_>>().join(", ")
    ));
    let factors: Vec<f64> = ops.iter().map(|o| o.factor).collect();
    let unscaled: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    out.note(format!(
        "host speed factor (reference {} ms / kernel ms) per op: median {:.3}, \
         min {:.3}, max {:.3}; unscaled p50 {:.4} ms, p90 {:.4} ms",
        calib::REFERENCE_MS,
        stats::median(&factors).unwrap_or(f64::NAN),
        factors.iter().copied().fold(f64::INFINITY, f64::min),
        factors.iter().copied().fold(0.0, f64::max),
        stats::median(&unscaled).unwrap_or(f64::NAN),
        stats::percentile(&unscaled, 90.0).unwrap_or(f64::NAN),
    ));
    if by_kind.len() <= 8 {
        let medians: Vec<String> = by_kind
            .iter()
            .map(|(k, v)| {
                format!("{k} {:.3} ms (n={})", stats::median(v).unwrap_or(f64::NAN), v.len())
            })
            .collect();
        out.note(format!("per-kind p50: {}", medians.join(", ")));
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run `f` `SETUPS` times, timing each and scaling it by a calibration
/// run just before; returns every timing and the last result.
pub fn timed_setups<T>(mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let factor = calib::factor();
        let start = Instant::now();
        let value = f();
        times.push(start.elapsed().as_secs_f64() * factor);
        // Drop the previous set-up's state outside the timed region.
        last = Some(value);
    }
    (times, last.expect("at least one set-up"))
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Write the traced run's spans under `.bench_trace/` in the working
/// directory. A failed write is reported and does not fail the run.
pub fn write_trace(t: &trace::Tracer, args: &Args) {
    let path = std::path::Path::new(".bench_trace")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    if let Err(e) = t.write_tsv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn render_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            let v = if value.is_finite() { format!("{value}") } else { "null".to_string() };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "corpus-cold" => corpus::run(&args),
        "scale-cold" => scale::run(&args),
        "edit-session" => edit::run(&args),
        "serve-mix" => serve::run(&args),
        other => {
            eprintln!(
                "error: unknown workload {other:?} \
                 (corpus-cold, scale-cold, edit-session, serve-mix)"
            );
            std::process::exit(2);
        }
    };
    if args.trace {
        layers::fill_missing(&mut out);
    }
    for line in &out.notes {
        println!("{}: {line}", args.workload);
    }
    println!("{}", render_json(&out));
}

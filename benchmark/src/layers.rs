//! Per-layer metrics of the traced run, and the traced replay of one
//! cold analysis shared by `corpus-cold` and `scale-cold`.

use crate::trace::{self_ms_by_name, Span, Tracer};
use crate::Outcome;
use argus_core::{analyze_with_caches, AnalysisOptions, FmTier, SccCache, TerminationReport};
use argus_logic::hash::{hash_rule, Fnv64};
use argus_logic::{Adornment, DepGraph, PredKey, Program};
use std::collections::{BTreeMap, BTreeSet};

/// Every per-layer metric (`--trace 1`): name, unit. Workloads print all
/// of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("logic.parse.ms", "ms"),
    ("logic.adorn.ms", "ms"),
    ("logic.depgraph.ms", "ms"),
    ("logic.hash.ms", "ms"),
    ("logic.depgraph.sccs", "count"),
    ("sizerel.fixpoint.ms", "ms"),
    ("sizerel.fm.rows_in", "count"),
    ("sizerel.fm.pairs_combined", "count"),
    ("sizerel.fm.peak_rows", "count"),
    ("sizerel.scc_top1pct_share", "ratio"),
    ("core.theta.ms", "ms"),
    ("core.theta.projections", "count"),
    ("core.theta.fm.rows_in", "count"),
    ("core.theta.fm.pairs_combined", "count"),
    ("core.projcache.hit_ratio", "ratio"),
    ("transform.ms", "ms"),
    ("transform.retries", "count"),
    ("core.incremental.size_hits", "count"),
    ("core.incremental.size_misses", "count"),
    ("core.incremental.theta_hits", "count"),
    ("core.incremental.theta_misses", "count"),
    ("core.incremental.dirty_ratio", "ratio"),
    ("core.incremental.replay.ms", "ms"),
    ("core.scccache.resident_bytes", "bytes"),
    ("diag.lint.ms", "ms"),
    ("diag.lint.analyses", "count"),
    ("diag.lint.diagnostics", "count"),
    ("diag.render.ms", "ms"),
    ("diag.render.bytes", "bytes"),
    ("lsp.framing.ms", "ms"),
    ("lsp.framing.bytes", "bytes"),
    ("lsp.client_parse.ms", "ms"),
    ("lsp.dispatch.ms", "ms"),
    ("serve.handle.ms", "ms"),
    ("serve.http.ms", "ms"),
    ("serve.jsonval.ms", "ms"),
    ("serve.reportcache.hit_ratio", "ratio"),
    ("serve.scccache.hit_ratio", "ratio"),
    ("trace.ops", "count"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
];

/// Unit of a per-layer metric.
fn unit_of(name: &str) -> &'static str {
    PER_LAYER.iter().find(|(n, _)| *n == name).map_or("count", |(_, u)| u)
}

/// Give every per-layer metric the run did not measure the value 0.
pub fn fill_missing(out: &mut Outcome) {
    for (name, unit) in PER_LAYER {
        out.metrics.entry(name.to_string()).or_insert((0.0, unit));
    }
}

/// Deterministic counters summed over the traced ops.
#[derive(Debug, Default)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    /// Add `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    /// Raise counter `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_default();
        *e = e.max(v);
    }

    /// Current value of counter `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// How far the measured layers' summed self time may stray from the
/// untraced op time, as a share of it, before the traced run counts as
/// failed: the bound of the end-to-end metrics.
pub const COVERAGE_BOUND: f64 = 0.25;

/// How the layers of one workload add up to its untraced op.
pub struct Accounting<'a> {
    /// Span names whose work also runs inside another span of the same
    /// op (re-measurements, e.g. `logic.adorn` beside `diag.lint`): they
    /// are reported but left out of the coverage sum.
    pub contained: &'a [&'a str],
    /// The layer that gets the untraced time no span accounts for
    /// (`lsp.dispatch`), if any. It is reported but, being computed, never
    /// counts towards the coverage.
    pub remainder: Option<&'a str>,
}

/// Fold the spans of `ops` traced ops into per-op layer times, compare
/// them with the untraced per-op mean `untraced_ms` over the same ops, and
/// record every per-layer metric. The comparison is itself a check: when
/// the measured layers' self times miss the untraced op time by more than
/// [`COVERAGE_BOUND`], the run counts one failure.
pub fn report(
    out: &mut Outcome,
    spans: &[Span],
    ops: usize,
    untraced_ms: f64,
    counters: &Counters,
    accounting: &Accounting<'_>,
) {
    let n = ops.max(1) as f64;
    let self_ms = self_ms_by_name(spans);
    let traced_ms: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum::<f64>()
        / n;
    let mut covered = 0.0;
    for (name, total) in &self_ms {
        let per_op = total / n;
        if *name != "op" {
            out.metric(&format!("{name}.ms"), per_op, "ms");
        }
        if !accounting.contained.contains(name) {
            covered += per_op;
        }
    }
    for (name, value) in &counters.0 {
        out.metric(name, *value, unit_of(name));
    }
    if let Some(rest) = accounting.remainder {
        out.metric(&format!("{rest}.ms"), untraced_ms - covered, "ms");
    }
    let coverage = covered / untraced_ms;
    out.attempted += 1;
    // A NaN coverage (no untraced time) fails too.
    let consistent = (coverage - 1.0).abs() <= COVERAGE_BOUND;
    if !consistent {
        out.failed += 1;
        out.note(format!(
            "FAILED trace consistency: the measured layers cover {:.1}% of the untraced op, \
             outside 100% ± {:.0}%",
            coverage * 100.0,
            COVERAGE_BOUND * 100.0
        ));
    }
    out.metric("trace.ops", ops as f64, "count");
    out.metric("trace.untraced_ms", untraced_ms, "ms");
    out.metric("trace.traced_ms", traced_ms, "ms");
    out.metric("trace.overhead_ms", traced_ms - untraced_ms, "ms");
    out.metric("trace.coverage", coverage, "ratio");
    let mut layers: Vec<(&str, f64)> = self_ms.iter().map(|(k, v)| (*k, v / n)).collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = layers.iter().map(|(k, v)| format!("{k} {v:.3}")).collect();
    out.note(format!(
        "traced {ops} ops: untraced {untraced_ms:.3} ms/op, traced {traced_ms:.3} ms/op, \
         overhead {:.3} ms/op, layer self times cover {:.1}% of the untraced op{}",
        traced_ms - untraced_ms,
        coverage * 100.0,
        accounting.remainder.map_or(String::new(), |r| format!(" (remainder to {r})"))
    ));
    out.note(format!("self ms/op: {}", top.join(", ")));
}

/// Divide every counter by the op count, turning sums into per-op means;
/// `keep` names counters that are already ratios or gauges.
pub fn per_op(counters: &mut Counters, ops: usize, keep: &[&str]) {
    let n = ops.max(1) as f64;
    for (name, v) in counters.0.iter_mut() {
        if !keep.contains(name) {
            *v /= n;
        }
    }
}

/// One cold-analysis op's inputs.
pub struct AnalysisInput {
    /// Program source text.
    pub src: String,
    /// Query predicate.
    pub query: PredKey,
    /// Query adornment.
    pub adornment: Adornment,
}

/// The parsed program of `input`.
pub fn parse(input: &AnalysisInput) -> Program {
    argus_logic::parser::parse_program(&input.src).expect("benchmark inputs parse")
}

/// Untraced op: parse and analyze from cold with default options.
pub fn cold_analysis(input: &AnalysisInput) -> TerminationReport {
    let program = parse(input);
    argus_core::analyze(
        &program,
        &input.query,
        input.adornment.clone(),
        &AnalysisOptions::default(),
    )
}

/// Traced replay of [`cold_analysis`] as op number `op`.
///
/// The layers run in pipeline order, each in its own span: parse, adorn,
/// condensation, rule hashing, the size-relation fixpoint, the Appendix A
/// transform retry when the raw program fails (with its own adorn,
/// condensation and fixpoint), and θ. The library exposes no θ-only entry
/// point, so θ is measured as `analyze_with_caches` against a memo whose
/// size-relation entries were filled, outside the op, by a run at another
/// FM tier: tiers give byte-identical results but distinct θ memo keys, so
/// every size-relation SCC replays from the memo and every θ SCC is
/// computed. That span also holds the pipeline's own adorn and
/// condensation, which the logic spans measure again.
pub fn traced_analysis(
    t: &mut Tracer,
    op: u64,
    input: &AnalysisInput,
    counters: &mut Counters,
) -> TerminationReport {
    let defaults = AnalysisOptions::default();
    let warm_options = AnalysisOptions { fm_tier: FmTier::Lp, ..AnalysisOptions::default() };
    let memo = SccCache::unbounded();
    // Outside the op: fill the memo, and learn whether the raw program
    // fails (so the op retries on the transformed one).
    let raw_fails = {
        let program = parse(input);
        let a = input.adornment.clone();
        analyze_with_caches(&program, &input.query, a.clone(), &warm_options, None, Some(&memo));
        let raw = AnalysisOptions { transform_phases: 0, ..warm_options.clone() };
        let raw = analyze_with_caches(&program, &input.query, a, &raw, None, Some(&memo));
        raw.verdict != argus_core::Verdict::Terminates
    };

    let root = t.begin_op(op);
    let program = t.span("logic.parse", || parse(input));
    fixpoint_prefix(t, &program, input, counters);
    if raw_fails && defaults.transform_phases > 0 {
        let roots: BTreeSet<PredKey> = [input.query.clone()].into_iter().collect();
        let (transformed, _) = t.span("transform", || {
            argus_transform::transform_fixed_phases(&program, &roots, defaults.transform_phases)
        });
        if transformed != program && transformed.rules.len() <= 1000 {
            counters.add("transform.retries", 1.0);
            fixpoint_prefix(t, &transformed, input, counters);
        }
    }
    let report = t.span("core.theta", || {
        analyze_with_caches(
            &program,
            &input.query,
            input.adornment.clone(),
            &defaults,
            None,
            Some(&memo),
        )
    });
    t.exit(root);

    let mut fm = argus_core::FmStats::default();
    let mut projections = 0;
    for scc in &report.sccs {
        fm.merge(&scc.stats.fm);
        projections += scc.stats.projections;
    }
    counters.add("core.theta.projections", projections as f64);
    counters.add("core.theta.fm.rows_in", fm.rows_in as f64);
    counters.add("core.theta.fm.pairs_combined", fm.pairs_combined as f64);
    counters.add("core.projcache.requests", report.run_stats.cache_requests as f64);
    counters.add("core.projcache.hits", report.run_stats.cache_hits() as f64);
    report
}

/// Adorn, condense, hash and run the size-relation fixpoint on `program`,
/// each in its own span.
fn fixpoint_prefix(t: &mut Tracer, program: &Program, input: &AnalysisInput, c: &mut Counters) {
    let adorned = t.span("logic.adorn", || {
        argus_logic::adorn_program(program, &input.query, input.adornment.clone())
    });
    let graph = t.span("logic.depgraph", || DepGraph::build(&adorned.program));
    c.add("logic.depgraph.sccs", graph.scc_count() as f64);
    let digest = t.span("logic.hash", || hash_rules(&adorned.program));
    std::hint::black_box(digest);
    let mut fm = argus_core::FmStats::default();
    let rels = t.span("sizerel.fixpoint", || {
        argus_sizerel::infer_size_relations_instrumented(
            &adorned.program,
            &argus_sizerel::InferOptions::default(),
            &argus_linear::fm::FmConfig::default(),
            &mut fm,
        )
    });
    std::hint::black_box(rels);
    c.add("sizerel.fm.rows_in", fm.rows_in as f64);
    c.add("sizerel.fm.pairs_combined", fm.pairs_combined as f64);
    c.max("sizerel.fm.peak_rows", fm.peak_rows as f64);
}

/// The content digest of every rule, as the per-SCC memo keys hash them.
pub fn hash_rules(program: &Program) -> u64 {
    let mut h = Fnv64::new();
    for r in &program.rules {
        hash_rule(&mut h, r);
    }
    h.finish()
}

/// Turn the projection-cache hit and request sums into a hit ratio.
pub fn finish_projcache(counters: &mut Counters) {
    let requests = counters.get("core.projcache.requests");
    let hits = counters.get("core.projcache.hits");
    counters.0.remove("core.projcache.requests");
    counters.0.remove("core.projcache.hits");
    counters.add("core.projcache.hit_ratio", if requests > 0.0 { hits / requests } else { 0.0 });
}

/// Share of the size-relation fixpoint's time spent in its slowest 1% of
/// SCCs, from a per-SCC replay (`infer_scc_sizes`, bottom-up) of the
/// adorned program.
pub fn scc_top1pct_share(input: &AnalysisInput) -> f64 {
    let program = parse(input);
    let adorned = argus_logic::adorn_program(&program, &input.query, input.adornment.clone());
    let program = adorned.program;
    let graph = DepGraph::build(&program);
    let index = argus_logic::program::ProcIndex::build(&program);
    let options = argus_sizerel::InferOptions::default();
    let mut rels = argus_sizerel::SizeRelations::new();
    let mut times = Vec::new();
    for scc_id in graph.sccs_bottom_up() {
        let members: Vec<PredKey> =
            graph.scc(scc_id).into_iter().filter(|p| !index.rule_indices(p).is_empty()).collect();
        if members.is_empty() {
            continue;
        }
        let recursive = members.iter().any(|p| graph.is_recursive(p));
        let start = std::time::Instant::now();
        argus_sizerel::infer_scc_sizes(&program, &index, &members, recursive, &mut rels, &options);
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = times.iter().sum();
    let top = times.len().div_ceil(100);
    if total > 0.0 {
        times[..top].iter().sum::<f64>() / total
    } else {
        0.0
    }
}

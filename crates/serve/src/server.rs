//! The analysis server: routing, the worker pool, and graceful drain.
//!
//! [`ServerState::handle`] is a pure `Request → Response` dispatcher — no
//! sockets — so the API surface can be unit-tested and benchmarked
//! in-process. [`Server`] wraps it in the runtime: a nonblocking accept
//! loop feeding a bounded queue of connections, a pool of worker threads
//! draining it, and a drain protocol (stop accepting, let in-flight
//! connections finish, join the workers) triggered by `SIGTERM`/`SIGINT`
//! or `POST /v1/shutdown`.
//!
//! Every `/v1/analyze` response is byte-identical to `argus analyze
//! --json` on the same program and options: the handler renders the same
//! [`TerminationReport`] JSON (plus the CLI's trailing newline), whether
//! the report was just computed or served from the content-addressed
//! report cache, an [`SccCache`]. The `x-argus-cache` response header says
//! which (`hit`, `miss`, or `bypass` for `stats` requests, which skip the
//! report cache so their `run_stats` match a fresh CLI run exactly).

use crate::http::{read_request, write_response, Limits, ReadError, Request, Response};
use crate::jsonval::{self, json_str, Json};
use crate::metrics::Metrics;
use argus_core::par::{effective_workers, par_map_indexed};
use argus_core::{
    analyze_with_caches, infer_conditions_for, AnalysisOptions, BackwardsOptions, DeltaMode,
    SccCache,
};
use argus_diag::passes::undefined_predicate_error;
use argus_diag::render::{render_json, render_text};
use argus_diag::{lint_source, Diagnostic, LintOptions, Severity};
use argus_logic::modes::Adornment;
use argus_logic::parser::parse_program;
use argus_logic::span::{LineIndex, Span};
use argus_logic::{Norm, PredKey, Program};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Most items accepted in one `/v1/batch` envelope.
pub const MAX_BATCH_ITEMS: usize = 256;

/// Server configuration (`argus serve` flags).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7177` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads (0 = one per available core).
    pub jobs: usize,
    /// Combined byte budget for the caches, in MiB (half to the report
    /// cache, a quarter to the condition cache, an eighth to the per-SCC
    /// cache; `0` keeps at most one resident entry per cache).
    pub cache_mb: usize,
    /// Directory for the persistent per-SCC cache, shared with `argus
    /// analyze --incremental --cache-dir`. `None` keeps the SCC memo
    /// in-memory only.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Per-request wall-clock analysis deadline, in milliseconds.
    pub deadline_ms: u64,
    /// Reading-side limits (body cap, head cap, read timeout).
    pub limits: Limits,
    /// Accepted connections queued ahead of the workers before the
    /// server answers 503 inline.
    pub queue_depth: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7177".to_string(),
            jobs: 0,
            cache_mb: 64,
            cache_dir: None,
            deadline_ms: 10_000,
            limits: Limits::default(),
            queue_depth: 256,
        }
    }
}

/// Shared per-process state: options, caches, counters, drain flag.
pub struct ServerState {
    options: ServeOptions,
    /// Live counters surfaced by `GET /metrics`.
    pub metrics: Metrics,
    reports: SccCache,
    conditions: SccCache,
    scc: SccCache,
    started: Instant,
    draining: AtomicBool,
}

/// How an analyze response relates to the report cache.
enum AnalyzeOutcome {
    /// A rendered report body (already newline-terminated).
    Report {
        body: Vec<u8>,
        /// `hit` | `miss` | `bypass` (the `x-argus-cache` header value).
        cache: &'static str,
    },
    /// A request-level failure; `error_obj` is the inner JSON object.
    Error { status: u16, error_obj: String },
}

/// Top-level keys accepted by `/v1/analyze` (and batch items).
const ANALYZE_KEYS: [&str; 10] = [
    "program",
    "query",
    "adornment",
    "norm",
    "delta",
    "no_transform",
    "lexicographic",
    "jobs",
    "stats",
    "engine",
];

/// Top-level keys accepted by `/v1/infer`.
const INFER_KEYS: [&str; 5] = ["program", "predicates", "jobs", "max_arity", "no_propagate"];

/// The report-cache key of an analyze request: every input that
/// determines the response bytes (`jobs` is a byte-identical knob by
/// construction, so it is left out). `/v1/infer` primes the cache
/// under the key of a default-options request, the shape its probes ran
/// with, so primed entries answer exactly those future requests.
fn analyze_key(
    query: &PredKey,
    adornment: &Adornment,
    options: &AnalysisOptions,
    engine: &str,
    src: &str,
) -> String {
    let norm = match options.norm {
        Norm::StructuralSize => "structural",
        Norm::ListLength => "list-length",
    };
    let delta = match options.delta_mode {
        DeltaMode::Paper => "paper",
        DeltaMode::PathConstraints => "appendix-c",
    };
    format!(
        "argus/v1\u{1}q={query}\u{1}a={adornment}\u{1}norm={norm}\u{1}\
         delta={delta}\u{1}transform={}\u{1}lex={}\u{1}engine={engine}\u{1}\n{src}",
        options.transform_phases, options.lexicographic as u8,
    )
}

/// One validated analyze request.
struct Prepared {
    program: Program,
    query: PredKey,
    adornment: Adornment,
    options: AnalysisOptions,
    stats: bool,
    /// The engines to run and whether to race them, resolved from the
    /// `engine` tag; `None` for `theta` (the default), which keeps the
    /// classic report JSON instead of `argus-engine/v1`.
    engines: Option<(Vec<Box<dyn argus_core::Engine>>, bool)>,
    /// Canonical content address (everything that determines the bytes).
    cache_key: String,
}

impl ServerState {
    /// Fresh state for `options`.
    pub fn new(options: ServeOptions) -> ServerState {
        let budget = options.cache_mb.saturating_mul(1024 * 1024);
        let scc_budget = (budget / 8).max(1);
        let scc = match &options.cache_dir {
            Some(dir) => SccCache::with_disk(scc_budget, dir.clone()),
            None => SccCache::new(scc_budget),
        };
        ServerState {
            metrics: Metrics::default(),
            reports: SccCache::new(budget / 2),
            conditions: SccCache::new(budget / 4),
            scc,
            started: Instant::now(),
            draining: AtomicBool::new(false),
            options,
        }
    }

    /// The configuration this state was built with.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// The content-addressed report cache.
    pub fn reports(&self) -> &SccCache {
        &self.reports
    }

    /// The content-addressed termination-condition cache.
    pub fn conditions(&self) -> &SccCache {
        &self.conditions
    }

    /// The per-SCC incremental memo (persistent when `--cache-dir` is
    /// set).
    pub fn scc_cache(&self) -> &SccCache {
        &self.scc
    }

    /// Stop accepting new connections; in-flight requests finish.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Has a drain been requested?
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The `GET /metrics` document (no trailing newline).
    pub fn metrics_snapshot(&self) -> String {
        self.metrics.snapshot_json(
            self.started.elapsed(),
            &self.reports,
            &self.conditions,
            &self.scc,
        )
    }

    /// Dispatch one request, recording response metrics.
    pub fn handle(&self, req: &Request) -> Response {
        let resp = self.route(req);
        if resp.status == 400 {
            self.metrics.malformed_requests.fetch_add(1, Ordering::Relaxed);
        }
        if resp.status == 504 {
            self.metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.count_status(resp.status);
        resp
    }

    fn route(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                self.metrics.healthz_requests.fetch_add(1, Ordering::Relaxed);
                Response::json(200, "{\"status\":\"ok\"}\n")
            }
            ("GET", "/metrics") => {
                self.metrics.metrics_requests.fetch_add(1, Ordering::Relaxed);
                Response::json(200, format!("{}\n", self.metrics_snapshot()))
            }
            ("POST", "/v1/analyze") => self.handle_analyze(req),
            ("POST", "/v1/batch") => self.handle_batch(req),
            ("POST", "/v1/infer") => self.handle_infer(req),
            ("POST", "/v1/lint") => self.handle_lint(req),
            ("POST", "/v1/shutdown") => {
                self.begin_drain();
                Response::json(200, "{\"status\":\"draining\"}\n").closing()
            }
            (_, "/healthz" | "/metrics") => {
                error_response(405, "method not allowed", &[]).with_header("allow", "GET")
            }
            (_, "/v1/analyze" | "/v1/batch" | "/v1/infer" | "/v1/lint" | "/v1/shutdown") => {
                error_response(405, "method not allowed", &[]).with_header("allow", "POST")
            }
            (_, path) => error_response(404, &format!("no such endpoint {path}"), &[]),
        }
    }

    fn handle_analyze(&self, req: &Request) -> Response {
        self.metrics.analyze_requests.fetch_add(1, Ordering::Relaxed);
        let v = match parse_body_json(&req.body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        match self.analyze_value(&v) {
            AnalyzeOutcome::Report { body, cache } => {
                Response::json(200, body).with_header("x-argus-cache", cache)
            }
            AnalyzeOutcome::Error { status, error_obj } => {
                Response::json(status, format!("{{\"error\":{error_obj}}}\n"))
            }
        }
    }

    fn handle_batch(&self, req: &Request) -> Response {
        self.metrics.batch_requests.fetch_add(1, Ordering::Relaxed);
        let v = match parse_body_json(&req.body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let Json::Obj(map) = &v else {
            return error_response(
                400,
                &format!("batch request must be a JSON object, got {}", v.type_name()),
                &[],
            );
        };
        if let Some(key) = map.keys().find(|k| k.as_str() != "items") {
            return error_response(400, &format!("unknown batch key {key:?}"), &[]);
        }
        let Some(items) = v.get("items").and_then(Json::as_array) else {
            return error_response(400, "batch request wants an \"items\" array", &[]);
        };
        if items.len() > MAX_BATCH_ITEMS {
            return error_response(
                400,
                &format!("batch of {} items exceeds the {MAX_BATCH_ITEMS}-item cap", items.len()),
                &[("limit", MAX_BATCH_ITEMS.to_string())],
            );
        }
        self.metrics.batch_items.fetch_add(items.len() as u64, Ordering::Relaxed);
        let workers = effective_workers(0, items.len());
        let results = par_map_indexed(items, workers, |_, item| match self.analyze_value(item) {
            AnalyzeOutcome::Report { body, .. } => {
                let text = String::from_utf8(body).expect("report bodies are UTF-8");
                format!("{{\"status\":200,\"report\":{}}}", text.trim_end())
            }
            AnalyzeOutcome::Error { status, error_obj } => {
                format!("{{\"status\":{status},\"error\":{error_obj}}}")
            }
        });
        Response::json(200, format!("{{\"results\":[{}]}}\n", results.join(",")))
    }

    fn handle_infer(&self, req: &Request) -> Response {
        self.metrics.infer_requests.fetch_add(1, Ordering::Relaxed);
        let v = match parse_body_json(&req.body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        match self.infer_value(&v) {
            AnalyzeOutcome::Report { body, cache } => {
                Response::json(200, body).with_header("x-argus-cache", cache)
            }
            AnalyzeOutcome::Error { status, error_obj } => {
                Response::json(status, format!("{{\"error\":{error_obj}}}\n"))
            }
        }
    }

    /// Run one `/v1/infer` request: look the condition table up in the
    /// content-addressed cache, or compute it and prime the analyze
    /// report cache with every probe the inference already paid for.
    fn infer_value(&self, v: &Json) -> AnalyzeOutcome {
        let bad = |message: String| AnalyzeOutcome::Error {
            status: 400,
            error_obj: error_obj(400, &message, &[]),
        };
        let Json::Obj(map) = v else {
            return bad(format!("request must be a JSON object, got {}", v.type_name()));
        };
        if let Some(key) = map.keys().find(|k| !INFER_KEYS.contains(&k.as_str())) {
            return bad(format!("unknown key {key:?}"));
        }
        let Some(Json::Str(src)) = map.get("program") else {
            return bad("missing required key \"program\" (a string)".to_string());
        };
        let mut options = BackwardsOptions { collect_reports: true, ..BackwardsOptions::default() };
        options.analysis.parallelism = 1;
        match map.get("jobs") {
            None | Some(Json::Null) => {}
            Some(other) => match other.as_u64() {
                Some(n) => options.analysis.parallelism = n as usize,
                None => {
                    return bad(format!(
                        "\"jobs\" must be a nonnegative integer, got {}",
                        other.type_name()
                    ));
                }
            },
        }
        match map.get("max_arity") {
            None | Some(Json::Null) => {}
            Some(other) => match other.as_u64() {
                Some(n) => options.max_arity = n as usize,
                None => {
                    return bad(format!(
                        "\"max_arity\" must be a nonnegative integer, got {}",
                        other.type_name()
                    ));
                }
            },
        }
        match map.get("no_propagate") {
            None | Some(Json::Null) => {}
            Some(Json::Bool(b)) => options.propagate = !b,
            Some(other) => {
                return bad(format!(
                    "\"no_propagate\" must be a boolean, got {}",
                    other.type_name()
                ));
            }
        }

        let program = match parse_program(src) {
            Ok(p) => p,
            Err(e) => {
                let (status, error_obj) = program_parse_error(src, &e);
                return AnalyzeOutcome::Error { status, error_obj };
            }
        };
        let idb = program.idb_predicates();
        let mut preds_tag = "*".to_string();
        let mut wanted = idb.clone();
        match map.get("predicates") {
            None | Some(Json::Null) => {}
            Some(Json::Arr(items)) => {
                let mut set = std::collections::BTreeSet::new();
                for item in items {
                    let Json::Str(spec) = item else {
                        return bad(format!(
                            "\"predicates\" entries must be name/arity strings, got {}",
                            item.type_name()
                        ));
                    };
                    let key = match argus_logic::parse_pred_spec(spec) {
                        Ok(key) => key,
                        Err(e) => return bad(e),
                    };
                    if !idb.contains(&key) {
                        let error_obj = undefined_predicate_body(&program, "predicate", &key);
                        return AnalyzeOutcome::Error { status: 422, error_obj };
                    }
                    set.insert(key);
                }
                preds_tag = set.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(",");
                wanted = set;
            }
            Some(other) => {
                return bad(format!("\"predicates\" must be an array, got {}", other.type_name()));
            }
        }

        let cache_key = format!(
            "argus-infer/v1\u{1}preds={preds_tag}\u{1}maxarity={}\u{1}propagate={}\u{1}\n{src}",
            options.max_arity, options.propagate as u8,
        );
        let started = Instant::now();
        if let Some(body) = self.conditions.get(&cache_key) {
            self.metrics.analyze_latency_cached.record(started.elapsed());
            return AnalyzeOutcome::Report { body: body.to_vec(), cache: "hit" };
        }
        let deadline = Instant::now() + Duration::from_millis(self.options.deadline_ms);
        options.analysis.deadline = Some(deadline);
        let report = infer_conditions_for(&program, &wanted, &options);
        if report.partial || Instant::now() >= deadline {
            // A deadline abort leaves conditions (and probe reports) that
            // reflect interrupted analyses: discard rather than cache.
            let message =
                format!("inference exceeded the {} ms deadline", self.options.deadline_ms);
            return AnalyzeOutcome::Error {
                status: 504,
                error_obj: error_obj(
                    504,
                    &message,
                    &[("deadline_ms", self.options.deadline_ms.to_string())],
                ),
            };
        }
        // Every probe that reached a default-analyzer verdict is a future
        // `/v1/analyze` answer the inference already paid for: prime the
        // report cache under the exact key `prepare` would build.
        for primed in &report.reports {
            let key = analyze_key(
                &primed.query,
                &primed.adornment,
                &AnalysisOptions::default(),
                "theta",
                src,
            );
            self.reports.put(&key, format!("{}\n", primed.json).as_bytes());
        }
        self.metrics.infer_predicates.fetch_add(report.conditions.len() as u64, Ordering::Relaxed);
        self.metrics.infer_analyses.fetch_add(report.analyses as u64, Ordering::Relaxed);
        self.metrics.infer_primed.fetch_add(report.reports.len() as u64, Ordering::Relaxed);
        let body = format!("{}\n", report.to_json()).into_bytes();
        self.metrics.analyze_latency_computed.record(started.elapsed());
        self.conditions.put(&cache_key, &body);
        AnalyzeOutcome::Report { body, cache: "miss" }
    }

    fn handle_lint(&self, req: &Request) -> Response {
        self.metrics.lint_requests.fetch_add(1, Ordering::Relaxed);
        let v = match parse_body_json(&req.body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let Json::Obj(map) = &v else {
            return error_response(
                400,
                &format!("lint request must be a JSON object, got {}", v.type_name()),
                &[],
            );
        };
        if let Some(key) = map.keys().find(|k| !matches!(k.as_str(), "program" | "query" | "mode"))
        {
            return error_response(400, &format!("unknown lint key {key:?}"), &[]);
        }
        let Some(program) = v.get("program").and_then(Json::as_str) else {
            return error_response(400, "lint request wants a \"program\" string", &[]);
        };
        let query = v.get("query").and_then(Json::as_str);
        let mode = v.get("mode").and_then(Json::as_str);
        let mut options = LintOptions::default();
        match (query, mode) {
            (None, None) => {}
            (Some(q), Some(m)) => match argus_logic::parse_query_spec(q, m) {
                Ok(spec) => options.query = Some(spec),
                Err(e) => return error_response(400, &e, &[]),
            },
            _ => {
                return error_response(400, "\"query\" and \"mode\" must be given together", &[]);
            }
        }
        let diags = lint_source(program, &options);
        Response::json(200, render_json(&diags, "request"))
    }

    /// Run one analyze request (an `/v1/analyze` body or a batch item).
    fn analyze_value(&self, v: &Json) -> AnalyzeOutcome {
        let prepared = match self.prepare(v) {
            Ok(p) => p,
            Err((status, error_obj)) => return AnalyzeOutcome::Error { status, error_obj },
        };
        let started = Instant::now();
        if !prepared.stats {
            if let Some(body) = self.reports.get(&prepared.cache_key) {
                self.metrics.analyze_latency_cached.record(started.elapsed());
                return AnalyzeOutcome::Report { body: body.to_vec(), cache: "hit" };
            }
        }
        let deadline = Instant::now() + Duration::from_millis(self.options.deadline_ms);
        let mut options = prepared.options;
        options.deadline = Some(deadline);
        if let Some((engines, race)) = &prepared.engines {
            // Engine-selected requests render `argus-engine/v1` bodies;
            // they share the report cache (the engine tag is part of the
            // cache key).
            let memo = if prepared.stats { None } else { Some(&self.scc) };
            let report = argus_core::run_portfolio(
                engines,
                &prepared.program,
                &prepared.query,
                &prepared.adornment,
                &options,
                options.parallelism,
                *race,
                memo,
            );
            if Instant::now() >= deadline {
                let message =
                    format!("analysis exceeded the {} ms deadline", self.options.deadline_ms);
                return AnalyzeOutcome::Error {
                    status: 504,
                    error_obj: error_obj(
                        504,
                        &message,
                        &[("deadline_ms", self.options.deadline_ms.to_string())],
                    ),
                };
            }
            let body = format!("{}\n", report.to_json(prepared.stats)).into_bytes();
            self.metrics.analyze_latency_computed.record(started.elapsed());
            if prepared.stats {
                return AnalyzeOutcome::Report { body, cache: "bypass" };
            }
            self.reports.put(&prepared.cache_key, &body);
            return AnalyzeOutcome::Report { body, cache: "miss" };
        }
        // `stats` requests get no SCC memo, so their `run_stats` are
        // byte-identical to `argus analyze --stats --json`.
        let memo = if prepared.stats { None } else { Some(&self.scc) };
        let report = analyze_with_caches(
            &prepared.program,
            &prepared.query,
            prepared.adornment,
            &options,
            None,
            memo,
        );
        if let Ok(mut totals) = self.metrics.fm.lock() {
            for scc in &report.sccs {
                totals.merge(&scc.stats.fm);
            }
        }
        if Instant::now() >= deadline {
            // The report may have been degraded by a mid-flight FM abort:
            // discard it rather than cache or present a fake verdict.
            let message = format!("analysis exceeded the {} ms deadline", self.options.deadline_ms);
            return AnalyzeOutcome::Error {
                status: 504,
                error_obj: error_obj(
                    504,
                    &message,
                    &[("deadline_ms", self.options.deadline_ms.to_string())],
                ),
            };
        }
        let body = format!("{}\n", report.to_json_with(prepared.stats)).into_bytes();
        self.metrics.analyze_latency_computed.record(started.elapsed());
        if prepared.stats {
            return AnalyzeOutcome::Report { body, cache: "bypass" };
        }
        self.reports.put(&prepared.cache_key, &body);
        AnalyzeOutcome::Report { body, cache: "miss" }
    }

    /// Validate one analyze request object into a [`Prepared`] run.
    fn prepare(&self, v: &Json) -> Result<Prepared, (u16, String)> {
        let bad = |message: String| (400, error_obj(400, &message, &[]));
        let Json::Obj(map) = v else {
            return Err(bad(format!("request must be a JSON object, got {}", v.type_name())));
        };
        if let Some(key) = map.keys().find(|k| !ANALYZE_KEYS.contains(&k.as_str())) {
            return Err(bad(format!("unknown key {key:?}")));
        }
        let str_field = |name: &str| -> Result<Option<&str>, (u16, String)> {
            match map.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.as_str())),
                Some(other) => {
                    Err(bad(format!("{name:?} must be a string, got {}", other.type_name())))
                }
            }
        };
        let bool_field = |name: &str| -> Result<bool, (u16, String)> {
            match map.get(name) {
                None | Some(Json::Null) => Ok(false),
                Some(Json::Bool(b)) => Ok(*b),
                Some(other) => {
                    Err(bad(format!("{name:?} must be a boolean, got {}", other.type_name())))
                }
            }
        };
        let uint_field = |name: &str| -> Result<Option<u64>, (u16, String)> {
            match map.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(other) => match other.as_u64() {
                    Some(n) => Ok(Some(n)),
                    None => Err(bad(format!(
                        "{name:?} must be a nonnegative integer, got {}",
                        other.type_name()
                    ))),
                },
            }
        };

        let Some(src) = str_field("program")? else {
            return Err(bad("missing required key \"program\"".to_string()));
        };
        let Some(query_spec) = str_field("query")? else {
            return Err(bad("missing required key \"query\"".to_string()));
        };
        let Some(adn_spec) = str_field("adornment")? else {
            return Err(bad("missing required key \"adornment\"".to_string()));
        };

        let mut options = AnalysisOptions { parallelism: 1, ..AnalysisOptions::default() };
        options.norm = match str_field("norm")? {
            None | Some("structural") => Norm::StructuralSize,
            Some("list-length") => Norm::ListLength,
            Some(other) => {
                return Err(bad(format!("\"norm\" wants structural|list-length, got {other:?}")));
            }
        };
        options.delta_mode = match str_field("delta")? {
            None | Some("paper") => DeltaMode::Paper,
            Some("appendix-c") => DeltaMode::PathConstraints,
            Some(other) => {
                return Err(bad(format!("\"delta\" wants paper|appendix-c, got {other:?}")));
            }
        };
        if bool_field("no_transform")? {
            options.transform_phases = 0;
        }
        options.lexicographic = bool_field("lexicographic")?;
        if let Some(jobs) = uint_field("jobs")? {
            options.parallelism = jobs as usize;
        }
        let stats = bool_field("stats")?;
        let engine = str_field("engine")?.unwrap_or("theta");
        let Some(resolved) = argus_baselines::engines_for(engine) else {
            return Err(bad(format!(
                "\"engine\" wants theta|sct|bs|uvg|naish|portfolio, got {engine:?}"
            )));
        };
        let engines = (engine != "theta").then_some(resolved);

        let (query, adornment) =
            argus_logic::parse_query_spec(query_spec, adn_spec).map_err(bad)?;

        let program = match parse_program(src) {
            Ok(p) => p,
            Err(e) => return Err(program_parse_error(src, &e)),
        };
        if !program.idb_predicates().contains(&query) {
            return Err((422, undefined_predicate_body(&program, "query predicate", &query)));
        }

        let cache_key = analyze_key(&query, &adornment, &options, engine, src);
        Ok(Prepared { program, query, adornment, options, stats, engines, cache_key })
    }
}

/// Render the inner `{"status":…,"message":…}` error object. `extra`
/// holds pre-rendered JSON values.
fn error_obj(status: u16, message: &str, extra: &[(&str, String)]) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{{\"status\":{status},\"message\":{}", json_str(message));
    for (k, v) in extra {
        let _ = write!(s, ",\"{k}\":{v}");
    }
    s.push('}');
    s
}

/// A complete error response with the standard envelope.
fn error_response(status: u16, message: &str, extra: &[(&str, String)]) -> Response {
    Response::json(status, format!("{{\"error\":{}}}\n", error_obj(status, message, extra)))
}

/// Byte offset → 1-based (line, column), flooring to a char boundary.
fn line_col(src: &str, offset: usize) -> (usize, usize, usize) {
    let mut off = offset.min(src.len());
    while off > 0 && !src.is_char_boundary(off) {
        off -= 1;
    }
    let prefix = &src[..off];
    let line = prefix.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = prefix[prefix.rfind('\n').map_or(0, |i| i + 1)..].chars().count() + 1;
    (off, line, col)
}

/// The 422 body for a predicate `key` the program does not define: the
/// L002 message plus the rendered diagnostic, `did you mean` note included.
fn undefined_predicate_body(program: &Program, what: &str, key: &PredKey) -> String {
    let d = undefined_predicate_error(program, what, key, "the program");
    let rendered = render_text(std::slice::from_ref(&d), "", "program");
    error_obj(422, &d.message, &[("diagnostic", json_str(&rendered))])
}

/// A caret-rendered one-span diagnostic over `src`.
fn caret_diagnostic(code: &'static str, src: &str, offset: usize, message: String) -> String {
    let (off, line, col) = line_col(src, offset);
    let end = (off + 1..=src.len()).find(|&i| src.is_char_boundary(i)).unwrap_or(src.len());
    let d = Diagnostic::new(code, Severity::Error, Some(Span::new(off, end, line, col)), message);
    render_text(&[d], src, "request")
}

/// Decode and parse a request body as JSON, or produce the 400.
fn parse_body_json(body: &[u8]) -> Result<Json, Response> {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(e) => {
            let off = e.valid_up_to();
            // The valid prefix survives lossy decoding unchanged, so `off`
            // is a char boundary in the lossy text too.
            let lossy = String::from_utf8_lossy(body);
            let rendered = caret_diagnostic(
                "S002",
                &lossy,
                off,
                format!("request body is not valid UTF-8 at byte {off}"),
            );
            return Err(error_response(
                400,
                "request body is not valid UTF-8",
                &[("offset", off.to_string()), ("diagnostic", json_str(&rendered))],
            ));
        }
    };
    jsonval::parse(text).map_err(|e| {
        let rendered = caret_diagnostic("S001", text, e.offset, e.message.clone());
        error_response(
            400,
            &format!("malformed JSON request: {}", e.message),
            &[("offset", e.offset.to_string()), ("diagnostic", json_str(&rendered))],
        )
    })
}

/// The 400 for an unparseable program, with the same `L000` caret
/// diagnostic `argus lint` would print.
fn program_parse_error(src: &str, e: &argus_logic::parser::ParseError) -> (u16, String) {
    let index = LineIndex::new(src);
    let line_start = index.line_start(e.line).unwrap_or(src.len());
    let off = src[line_start..]
        .char_indices()
        .nth(e.col.saturating_sub(1))
        .map(|(i, _)| line_start + i)
        .unwrap_or(src.len());
    let d = Diagnostic::new(
        "L000",
        Severity::Error,
        Some(Span::new(off, (off + 1).min(src.len()), e.line, e.col)),
        e.message.clone(),
    );
    let rendered = render_text(&[d], src, "program");
    (
        400,
        error_obj(
            400,
            &format!("program parse error: {}", e.message),
            &[("diagnostic", json_str(&rendered))],
        ),
    )
}

/// Process-wide signal plumbing (`SIGTERM`/`SIGINT` → drain).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Route `SIGTERM` and `SIGINT` to the drain flag.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: the handler only stores to an atomic, which is
        // async-signal-safe; `signal` itself is only called at startup.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    /// Has a shutdown signal arrived?
    pub fn received() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    /// No-op off unix.
    pub fn install() {}
    /// Always false off unix.
    pub fn received() -> bool {
        false
    }
}

/// Install the `SIGTERM`/`SIGINT` → graceful-drain handlers. Call once
/// from the CLI before [`Server::run`]; tests skip this and drain via
/// [`ServerState::begin_drain`] instead.
pub fn install_signal_handlers() {
    sig::install();
}

/// A bound listener plus its shared state, ready to run.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    addr: SocketAddr,
}

/// A handle to a server running on a background thread (tests, ci).
pub struct ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The shared state (caches, metrics, drain flag).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Drain and wait for the accept loop and workers to finish.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.state.begin_drain();
        self.thread.join().expect("server thread panicked")
    }
}

impl Server {
    /// Bind the listener configured in `state.options()`.
    pub fn bind(state: Arc<ServerState>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(state.options().addr.as_str())?;
        let addr = listener.local_addr()?;
        Ok(Server { listener, state, addr })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bind and run on a background thread.
    pub fn spawn(state: Arc<ServerState>) -> std::io::Result<ServerHandle> {
        let server = Server::bind(Arc::clone(&state))?;
        let addr = server.local_addr();
        let thread = std::thread::Builder::new()
            .name("argus-serve-accept".to_string())
            .spawn(move || server.run())?;
        Ok(ServerHandle { addr, state, thread })
    }

    /// Accept connections until a drain is requested (signal, shutdown
    /// endpoint, or [`ServerState::begin_drain`]), then let in-flight
    /// connections finish and join the workers.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let jobs = match self.state.options().jobs {
            0 => argus_core::par::available_cores(),
            n => n,
        };
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(self.state.options().queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(jobs);
        for i in 0..jobs {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("argus-serve-{i}"))
                    .spawn(move || worker_loop(&state, &rx))?,
            );
        }

        loop {
            if self.state.draining() || sig::received() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => reject_or_enqueue(&self.state, &tx, stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        self.state.begin_drain();
        drop(tx); // workers exit once the queue drains
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// Queue an accepted connection, or answer 503 inline when full.
fn reject_or_enqueue(state: &ServerState, tx: &SyncSender<TcpStream>, stream: TcpStream) {
    match tx.try_send(stream) {
        Ok(()) => {}
        Err(TrySendError::Full(mut stream)) => {
            state.metrics.queue_rejections.fetch_add(1, Ordering::Relaxed);
            state.metrics.count_status(503);
            let resp = error_response(503, "accept queue full; retry with backoff", &[]).closing();
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = write_response(&mut stream, &resp);
        }
        Err(TrySendError::Disconnected(_)) => {}
    }
}

fn worker_loop(state: &ServerState, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let next = { rx.lock().expect("accept queue lock poisoned").recv() };
        let Ok(mut stream) = next else { return };
        let _ = stream.set_nodelay(true);
        // The OS-level timeout is only the poll quantum; `read_request`
        // enforces the real deadline across polls.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        serve_connection(state, &mut stream);
    }
}

/// Serve one (possibly keep-alive) connection to completion.
fn serve_connection(state: &ServerState, stream: &mut TcpStream) {
    let limits = state.options().limits;
    loop {
        if state.draining() {
            return;
        }
        match read_request(stream, &limits) {
            Ok(req) => {
                let mut resp = state.handle(&req);
                if state.draining() || !req.keep_alive {
                    resp.close = true;
                }
                if write_response(stream, &resp).is_err() || resp.close {
                    return;
                }
            }
            Err(ReadError::Closed) | Err(ReadError::Timeout { partial: false }) => return,
            Err(ReadError::Timeout { partial: true }) => {
                state.metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
                state.metrics.count_status(408);
                let resp = error_response(408, "request read timed out (slow peer)", &[]).closing();
                let _ = write_response(stream, &resp);
                return;
            }
            Err(ReadError::TooLarge { limit, declared }) => {
                state.metrics.count_status(413);
                let resp = error_response(
                    413,
                    &format!("request body of {declared} bytes exceeds the {limit}-byte limit"),
                    &[("limit", limit.to_string()), ("declared", declared.to_string())],
                )
                .closing();
                let _ = write_response(stream, &resp);
                return;
            }
            Err(ReadError::Malformed(message)) => {
                state.metrics.malformed_requests.fetch_add(1, Ordering::Relaxed);
                state.metrics.count_status(400);
                let resp = error_response(400, &message, &[]).closing();
                let _ = write_response(stream, &resp);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn state() -> ServerState {
        ServerState::new(ServeOptions::default())
    }

    const APPEND: &str = "append([], Y, Y).\nappend([H|T], Y, [H|Z]) :- append(T, Y, Z).\n";

    fn analyze_body(program: &str) -> String {
        format!(
            "{{\"program\":{},\"query\":\"append/3\",\"adornment\":\"bff\"}}",
            json_str(program)
        )
    }

    #[test]
    fn analyze_matches_cli_json_and_caches() {
        let s = state();
        let req = post("/v1/analyze", &analyze_body(APPEND));
        let first = s.handle(&req);
        assert_eq!(first.status, 200);
        let expected = format!(
            "{}\n",
            argus_core::analyze_source(APPEND, "append/3", "bff").unwrap().to_json()
        );
        assert_eq!(String::from_utf8(first.body).unwrap(), expected);
        assert_eq!(
            first
                .extra_headers
                .iter()
                .find(|(n, _)| *n == "x-argus-cache")
                .map(|(_, v)| v.as_str()),
            Some("miss")
        );
        let second = s.handle(&req);
        assert_eq!(String::from_utf8(second.body).unwrap(), expected);
        assert_eq!(
            second
                .extra_headers
                .iter()
                .find(|(n, _)| *n == "x-argus-cache")
                .map(|(_, v)| v.as_str()),
            Some("hit")
        );
        assert_eq!(s.reports().hits(), 1);
    }

    #[test]
    fn unknown_key_is_rejected() {
        let s = state();
        for key in ["bogus", "no_fm_cache", "fm_tier"] {
            let body =
                format!("{{\"program\":\"p.\",\"query\":\"p/0\",\"adornment\":\"\",\"{key}\":1}}");
            let resp = s.handle(&post("/v1/analyze", &body));
            assert_eq!(resp.status, 400, "{key}");
            let text = String::from_utf8(resp.body).unwrap();
            assert!(text.contains(&format!("unknown key \\\"{key}\\\"")), "{text}");
        }
    }

    #[test]
    fn malformed_json_gets_caret_diagnostic() {
        let s = state();
        let resp = s.handle(&post("/v1/analyze", "{\"program\": }"));
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"diagnostic\""), "{body}");
        assert!(body.contains("S001"), "{body}");
    }

    #[test]
    fn undefined_query_predicate_is_422() {
        let s = state();
        let body = format!(
            "{{\"program\":{},\"query\":\"appendd/3\",\"adornment\":\"bff\"}}",
            json_str(APPEND)
        );
        let resp = s.handle(&post("/v1/analyze", &body));
        assert_eq!(resp.status, 422);
        let text = String::from_utf8(resp.body).unwrap();
        // The whole body, so the rendered L002 diagnostic is pinned byte
        // for byte, `did you mean` note and summary line included.
        let expected = concat!(
            r#"{"error":{"status":422,"#,
            r#""message":"query predicate appendd/3 is not defined in the program","#,
            r#""diagnostic":"error[L002]: query predicate appendd/3 is not defined in the program"#,
            r#"\n   = note: did you mean `append/3`?"#,
            r#"\n\nprogram: 1 error(s), 0 warning(s), 0 note(s)\n"}}"#,
            "\n",
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn batch_mixes_successes_and_failures() {
        let s = state();
        let body = format!(
            "{{\"items\":[{},{{\"program\":\"p(\",\"query\":\"p/0\",\"adornment\":\"\"}}]}}",
            analyze_body(APPEND)
        );
        let resp = s.handle(&post("/v1/batch", &body));
        assert_eq!(resp.status, 200);
        let v = jsonval::parse(std::str::from_utf8(&resp.body).unwrap().trim_end()).unwrap();
        let results = v.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("status").and_then(Json::as_u64), Some(200));
        assert!(results[0].get("report").is_some());
        assert_eq!(results[1].get("status").and_then(Json::as_u64), Some(400));
    }

    #[test]
    fn lint_renders_diag_json() {
        let s = state();
        let resp = s.handle(&post("/v1/lint", "{\"program\":\"p(X) :- q(X).\"}"));
        assert_eq!(resp.status, 200);
        let v = jsonval::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(v.get("diagnostics").is_some());
    }

    #[test]
    fn metrics_and_healthz_respond() {
        let s = state();
        assert_eq!(s.handle(&get("/healthz")).status, 200);
        let resp = s.handle(&get("/metrics"));
        assert_eq!(resp.status, 200);
        let v = jsonval::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(crate::metrics::METRICS_SCHEMA));
    }

    #[test]
    fn unknown_route_and_method() {
        let s = state();
        assert_eq!(s.handle(&get("/nope")).status, 404);
        assert_eq!(s.handle(&get("/v1/analyze")).status, 405);
        assert_eq!(s.handle(&post("/healthz", "")).status, 405);
    }

    #[test]
    fn infer_returns_conditions_and_caches() {
        let s = state();
        let body = format!("{{\"program\":{}}}", json_str(APPEND));
        let first = s.handle(&post("/v1/infer", &body));
        assert_eq!(first.status, 200);
        let text = String::from_utf8(first.body).unwrap();
        assert!(text.contains("argus-infer/v1"), "{text}");
        assert!(text.contains("\"disjuncts\":[[1],[3]]"), "{text}");
        let second = s.handle(&post("/v1/infer", &body));
        assert_eq!(
            second
                .extra_headers
                .iter()
                .find(|(n, _)| *n == "x-argus-cache")
                .map(|(_, v)| v.as_str()),
            Some("hit")
        );
        assert_eq!(s.conditions().hits(), 1);
        assert_eq!(String::from_utf8(second.body).unwrap(), text);
    }

    #[test]
    fn infer_primes_the_analyze_cache() {
        let s = state();
        let body = format!("{{\"program\":{}}}", json_str(APPEND));
        assert_eq!(s.handle(&post("/v1/infer", &body)).status, 200);
        assert!(s.reports().entries() > 0, "inference probes primed nothing");
        // A default-options analyze covered by a probe is answered from
        // the primed cache, byte-identical to a fresh CLI run.
        let req = post(
            "/v1/analyze",
            &format!(
                "{{\"program\":{},\"query\":\"append/3\",\"adornment\":\"bff\"}}",
                json_str(APPEND)
            ),
        );
        let resp = s.handle(&req);
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.extra_headers.iter().find(|(n, _)| *n == "x-argus-cache").map(|(_, v)| v.as_str()),
            Some("hit")
        );
        let expected = format!(
            "{}\n",
            argus_core::analyze_source(APPEND, "append/3", "bff").unwrap().to_json()
        );
        assert_eq!(String::from_utf8(resp.body).unwrap(), expected);
    }

    #[test]
    fn infer_rejects_unknown_predicates_and_keys() {
        let s = state();
        let body = format!("{{\"program\":{},\"predicates\":[\"appendd/3\"]}}", json_str(APPEND));
        let resp = s.handle(&post("/v1/infer", &body));
        assert_eq!(resp.status, 422);
        // The same L002 body `/v1/analyze` sends for an unknown query.
        let expected = concat!(
            r#"{"error":{"status":422,"#,
            r#""message":"predicate appendd/3 is not defined in the program","#,
            r#""diagnostic":"error[L002]: predicate appendd/3 is not defined in the program"#,
            r#"\n   = note: did you mean `append/3`?"#,
            r#"\n\nprogram: 1 error(s), 0 warning(s), 0 note(s)\n"}}"#,
            "\n",
        );
        assert_eq!(String::from_utf8(resp.body).unwrap(), expected);
        let resp = s.handle(&post("/v1/infer", "{\"program\":\"p.\",\"bogus\":1}"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn scc_memo_survives_program_edits() {
        let s = state();
        assert_eq!(s.handle(&post("/v1/analyze", &analyze_body(APPEND))).status, 200);
        // An edit that adds an unrelated predicate: the append SCC is
        // outside the dirty cone and must be answered from the memo,
        // with the body byte-identical to a fresh server's.
        let edited = format!("{APPEND}len([], z).\nlen([_|T], s(N)) :- len(T, N).\n");
        let resp = s.handle(&post("/v1/analyze", &analyze_body(&edited)));
        assert_eq!(resp.status, 200);
        assert!(s.scc_cache().hits() > 0, "append SCC did not hit the memo after the edit");
        let fresh = state().handle(&post("/v1/analyze", &analyze_body(&edited)));
        assert_eq!(resp.body, fresh.body, "memoized body differs from a cold server");
    }

    /// The `/metrics` counters after a fixed request sequence: analyze a
    /// program twice, infer it, analyze a query the inference primed, then
    /// lint. Every cache count and FM counter is pinned, so a change to
    /// the stores or the FM totals that moves a number fails here.
    #[test]
    fn metrics_counters_after_fixed_sequence() {
        let s = state();
        let perm = argus_corpus::find("perm").expect("corpus entry").source;
        let header = |resp: &Response| {
            resp.extra_headers.iter().find(|(n, _)| *n == "x-argus-cache").map(|(_, v)| v.clone())
        };
        let analyze = |query: &str, adornment: &str| {
            let body = format!(
                "{{\"program\":{},\"query\":\"{query}\",\"adornment\":\"{adornment}\"}}",
                json_str(perm)
            );
            let resp = s.handle(&post("/v1/analyze", &body));
            assert_eq!(resp.status, 200, "{query} {adornment}");
            header(&resp)
        };
        assert_eq!(analyze("perm/2", "bf").as_deref(), Some("miss"));
        assert_eq!(analyze("perm/2", "bf").as_deref(), Some("hit"));
        let program = format!("{{\"program\":{}}}", json_str(perm));
        let infer = s.handle(&post("/v1/infer", &program));
        assert_eq!((infer.status, header(&infer).as_deref()), (200, Some("miss")));
        assert_eq!(analyze("append/3", "ffb").as_deref(), Some("hit"), "primed by the inference");
        assert_eq!(s.handle(&post("/v1/lint", &program)).status, 200);

        let snapshot = jsonval::parse(&s.metrics_snapshot()).expect("snapshot parses");
        let block = |name: &str, keys: &[&str]| -> Vec<u64> {
            let b = snapshot.get(name).unwrap_or_else(|| panic!("no {name} block"));
            keys.iter().map(|k| b.get(k).and_then(Json::as_u64).expect(k)).collect()
        };
        // Resident bytes charge key + body + a fixed 96-byte overhead per
        // entry, the same accounting in all three stores.
        let counts = ["hits", "misses", "insertions", "evictions", "entries", "resident_bytes"];
        assert_eq!(block("report_cache", &counts), [2, 1, 7, 0, 7, 4717]);
        assert_eq!(block("condition_cache", &counts), [0, 1, 1, 0, 1, 1122]);
        let scc_keys = ["hits", "misses", "evictions", "entries", "resident_bytes"];
        assert_eq!(block("scc_cache", &scc_keys), [0, 6, 0, 6, 3119]);
        let fm_keys = [
            "eliminations",
            "gauss_steps",
            "rows_in",
            "rows_out",
            "pairs_combined",
            "dedup_hits",
            "subsume_hits",
            "chernikov_drops",
            "lp_drops",
            "peak_rows",
            "small_combs",
            "big_combs",
        ];
        assert_eq!(block("fm", &fm_keys), [2, 0, 7, 4, 3, 1, 3, 0, 0, 4, 3, 0]);
    }

    #[test]
    fn stats_request_bypasses_report_cache() {
        let s = state();
        let body = format!(
            "{{\"program\":{},\"query\":\"append/3\",\"adornment\":\"bff\",\"stats\":true}}",
            json_str(APPEND)
        );
        let resp = s.handle(&post("/v1/analyze", &body));
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8(resp.body).unwrap().contains("\"run_stats\""));
        assert_eq!(s.reports().entries(), 0);
    }
}

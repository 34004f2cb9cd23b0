//! `argus` — command-line front end for the termination analyzer.
//!
//! ```text
//! argus analyze <file.pl> <name/arity> <adornment> [--norm list-length]
//!               [--delta appendix-c] [--no-transform] [--certify]
//!               [--lexicographic] [--json] [--jobs N] [--stats] [--engine ID]
//!               [--incremental] [--cache-dir DIR]
//! argus watch   <file.pl> <name/arity> <adornment> [--cache-dir DIR]
//!               [--jobs N] [--poll-ms N] [--iterations N]
//! argus infer   <file.pl> [<name/arity> ...] [--json] [--jobs N]
//!               [--max-arity N] [--no-propagate] [--certify] [--engine ID]
//! argus infer   --corpus [--certify]
//! argus lint    <file.pl> [--query <name/arity> --mode <adornment>] [--json]
//! argus compare <file.pl> <name/arity> <adornment>
//! argus run     <file.pl> '<goal>'  [--steps N]
//! argus corpus  [<entry-name>]
//! argus fuzz    [--seed S] [--cases N] [--jobs J] [--json] [--max-steps N]
//!               [--shrink-budget N] [--no-metamorphic] [--no-theta-search]
//!               [--negation] [--infer] [--portfolio] [--incremental]
//!               [--repro-dir DIR] [--serve ADDR]
//! argus serve   [--addr HOST:PORT] [--jobs N] [--cache-mb N]
//!               [--deadline-ms N] [--cache-dir DIR]
//! argus lsp     [--jobs N] [--debounce-ms N] [--cache-dir DIR]
//!               [--query <name/arity> --mode <adornment>]
//! ```
//!
//! `--incremental` memoizes per-SCC results so repeated analyses of a
//! lightly-edited file recompute only the dirty SCC cone; `--cache-dir`
//! persists the memo on disk (and implies `--incremental`). `argus watch`
//! re-analyzes the file whenever it changes and prints only the changed
//! report lines.
//!
//! Exit codes: 0 = proved / clean (or command succeeded), 2 = not proved
//! (or lint produced warnings), 1 = usage/parse/lint error.

use argus::baselines::all_methods;
use argus::diag::passes::undefined_predicate_error;
use argus::interp::sld::{solve, InterpOptions};
use argus::logic::parser::{parse_program, parse_query};
use argus::logic::Norm;
use argus::prelude::*;
use std::io::Write;
use std::process::ExitCode;

/// Print a line to stdout, exiting quietly if the consumer closed the pipe
/// (e.g. `argus corpus | head`).
fn say(line: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    if writeln!(out, "{line}").is_err() {
        std::process::exit(0);
    }
}

macro_rules! say {
    ($($arg:tt)*) => { say(format_args!($($arg)*)) };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  argus analyze <file.pl> <name/arity> <adornment> \
         [--norm structural|list-length] [--delta paper|appendix-c] \
         [--no-transform] [--certify] [--lexicographic] [--jobs N] \
         [--stats] \
         [--engine theta|sct|bs|uvg|naish|portfolio] \
         [--incremental] [--cache-dir DIR]\n  \
         argus watch <file.pl> <name/arity> <adornment> [--cache-dir DIR] \
         [--jobs N] [--poll-ms N] [--iterations N]\n  \
         argus infer <file.pl> [<name/arity> ...] [--json] [--jobs N] \
         [--max-arity N] [--no-propagate] [--certify] \
         [--engine theta|sct|bs|uvg|naish|portfolio]\n  \
         argus infer --corpus [--certify]\n  \
         argus lint <file.pl> [--query <name/arity> --mode <adornment>] [--json]\n  \
         argus compare <file.pl> <name/arity> <adornment>\n  \
         argus run <file.pl> '<goal>' [--steps N]\n  \
         argus corpus [<entry>]\n  \
         argus fuzz [--seed S] [--cases N] [--jobs J] [--json] [--max-steps N] \
         [--shrink-budget N] [--no-metamorphic] [--no-theta-search] [--negation] \
         [--infer] [--portfolio] [--incremental] [--repro-dir DIR] [--serve ADDR]\n  \
         argus serve [--addr HOST:PORT] [--jobs N] [--cache-mb N] [--deadline-ms N] \
         [--cache-dir DIR]\n  \
         argus lsp [--jobs N] [--debounce-ms N] [--cache-dir DIR] \
         [--query <name/arity> --mode <adornment>]"
    );
    ExitCode::FAILURE
}

/// Parse `<name/arity> <adornment>`, printing the error on failure.
fn parse_query_arg(spec: &str, adn: &str) -> Option<(PredKey, Adornment)> {
    argus::logic::parse_query_spec(spec, adn).map_err(|e| eprintln!("{e}")).ok()
}

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_program(&src).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("infer") => cmd_infer(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("lsp") => cmd_lsp(&args[1..]),
        _ => usage(),
    }
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let mut positional: Vec<&str> = Vec::new();
    let mut options = AnalysisOptions::default();
    let mut certify = false;
    let mut json = false;
    let mut stats = false;
    let mut engine_id = "theta".to_string();
    let mut incremental = false;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--no-transform" => options.transform_phases = 0,
            "--certify" => certify = true,
            "--lexicographic" => options.lexicographic = true,
            "--json" => json = true,
            "--stats" => stats = true,
            "--incremental" => incremental = true,
            "--cache-dir" => {
                i += 1;
                cache_dir = match args.get(i) {
                    Some(v) => Some(std::path::PathBuf::from(v)),
                    None => {
                        eprintln!("--cache-dir wants a directory");
                        return ExitCode::FAILURE;
                    }
                };
                // A persistent cache is only useful incrementally.
                incremental = true;
            }
            "--engine" => {
                i += 1;
                engine_id = match args.get(i) {
                    Some(v) => v.clone(),
                    None => {
                        eprintln!("--engine wants theta|sct|bs|uvg|naish|portfolio");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--norm" => {
                i += 1;
                options.norm = match args.get(i).map(String::as_str) {
                    Some("structural") => Norm::StructuralSize,
                    Some("list-length") => Norm::ListLength,
                    v => {
                        eprintln!("--norm wants structural|list-length, got {v:?}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--delta" => {
                i += 1;
                options.delta_mode = match args.get(i).map(String::as_str) {
                    Some("paper") => DeltaMode::Paper,
                    Some("appendix-c") => DeltaMode::PathConstraints,
                    v => {
                        eprintln!("--delta wants paper|appendix-c, got {v:?}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--jobs" => {
                i += 1;
                options.parallelism = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--jobs wants a thread count (0 = one per core)");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => positional.push(other),
        }
        i += 1;
    }
    let [path, spec, adn] = positional.as_slice() else { return usage() };

    let program = match load(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some((query, adornment)) = parse_query_arg(spec, adn) else { return ExitCode::FAILURE };
    if !program.idb_predicates().contains(&query) {
        // Route the failure through the diagnostics renderer so the error
        // reads like any other lint finding.
        let d = undefined_predicate_error(&program, "query predicate", &query, path);
        eprint!("{}", argus::diag::render::render_text(&[d], "", path));
        return ExitCode::FAILURE;
    }

    // `--incremental` memoizes per-SCC results; with `--cache-dir` (or a
    // resolvable default cache directory) the memo persists across runs,
    // so only the SCC cone dirtied since the last invocation recomputes.
    let memo = if incremental { Some(open_scc_cache(cache_dir)) } else { None };

    if engine_id != "theta" {
        if certify {
            eprintln!("--certify re-checks theta witnesses; rerun with --engine theta");
            return ExitCode::FAILURE;
        }
        return engine_analyze(
            &program,
            &query,
            adornment,
            &options,
            &engine_id,
            json,
            stats,
            memo.as_ref(),
        );
    }

    let report = argus::core::analyze_with_caches(
        &program,
        &query,
        adornment,
        &options,
        None,
        memo.as_ref(),
    );
    if json {
        println!("{}", report.to_json_with(stats));
    } else {
        println!("{report}");
        if stats {
            print!("{}", report.render_stats());
        }
    }
    if certify && report.verdict == Verdict::Terminates {
        match argus::core::verify_report(&report, options.norm) {
            Ok(n) => println!("certificate: VERIFIED ({n} pair check(s), primal LP)"),
            Err(e) => {
                println!("certificate: REJECTED — {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.verdict == Verdict::Terminates {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Open the per-SCC memo for `--incremental`: the given `--cache-dir`,
/// else the default per-user cache directory, else (no resolvable home)
/// a process-local in-memory memo. The CLI memo is unbounded — a run
/// lives for one analysis, and the disk tier is pruned by content hash,
/// not residency.
fn open_scc_cache(cache_dir: Option<std::path::PathBuf>) -> argus::core::SccCache {
    use argus::core::SccCache;
    match cache_dir.or_else(SccCache::default_disk_dir) {
        Some(dir) => SccCache::with_disk(usize::MAX, dir),
        None => SccCache::unbounded(),
    }
}

/// `argus analyze --engine <id>`: run one engine (or the racing
/// portfolio) and render the `argus-engine/v1` report. The default
/// `--engine theta` never reaches here — it keeps the original
/// `TerminationReport` output byte-for-byte.
#[allow(clippy::too_many_arguments)]
fn engine_analyze(
    program: &Program,
    query: &PredKey,
    adornment: Adornment,
    options: &AnalysisOptions,
    engine_id: &str,
    json: bool,
    stats: bool,
    memo: Option<&argus::core::SccCache>,
) -> ExitCode {
    let Some((engines, race)) = argus::baselines::engines_for(engine_id) else {
        eprintln!("--engine wants theta|sct|bs|uvg|naish|portfolio, got {engine_id:?}");
        return ExitCode::FAILURE;
    };
    let report = argus::core::run_portfolio(
        &engines,
        program,
        query,
        &adornment,
        options,
        options.parallelism,
        race,
        memo,
    );
    if json {
        println!("{}", report.to_json(stats));
    } else {
        print!("{report}");
        if stats {
            print!("{}", report.render_stats());
        }
    }
    if report.verdict == Verdict::Terminates {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// `argus watch <file.pl> <name/arity> <adornment>`: re-analyze the file
/// whenever its mtime changes, keeping a per-SCC memo warm across
/// re-analyses so each edit recomputes only its dirty SCC cone. The first
/// report prints in full; every subsequent one prints only the changed
/// lines (`- ` removed, `+ ` added) via [`argus::diag::delta`]. A file
/// that stops parsing reports the error and keeps watching.
fn cmd_watch(args: &[String]) -> ExitCode {
    use argus::core::{analyze_with_caches, SccCache};

    let mut positional: Vec<&str> = Vec::new();
    let mut options = AnalysisOptions::default();
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut poll_ms: u64 = 200;
    let mut iterations: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cache-dir" => {
                i += 1;
                cache_dir = match args.get(i) {
                    Some(v) => Some(std::path::PathBuf::from(v)),
                    None => {
                        eprintln!("--cache-dir wants a directory");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--jobs" => {
                i += 1;
                options.parallelism = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--jobs wants a thread count (0 = one per core)");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--poll-ms" => {
                i += 1;
                poll_ms = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("bad --poll-ms value");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--iterations" => {
                i += 1;
                iterations = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => Some(n),
                    None => {
                        eprintln!("bad --iterations value");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other if other.starts_with("--") => {
                eprintln!("unknown watch flag {other}");
                return ExitCode::FAILURE;
            }
            other => positional.push(other),
        }
        i += 1;
    }
    let [path, spec, adn] = positional.as_slice() else { return usage() };
    let Some((query, adornment)) = parse_query_arg(spec, adn) else { return ExitCode::FAILURE };

    // `--cache-dir` only; no implicit default dir — a watcher's memo is
    // already warm across edits in memory, so disk is opt-in here.
    let memo = match cache_dir {
        Some(dir) => SccCache::with_disk(usize::MAX, dir),
        None => SccCache::unbounded(),
    };

    // Change detection compares mtime AND (length, FNV-1a content hash):
    // mtime alone misses rapid same-second edits on coarse-granularity
    // filesystems, and editors that restore a file byte-for-byte (undo)
    // would re-trigger on mtime alone. The content read here is reused
    // for parsing, so detection costs no extra I/O.
    type WatchSig = (Option<std::time::SystemTime>, Option<(u64, u64)>);
    let mut last_sig: Option<WatchSig> = None;
    let mut last_render: Option<String> = None;
    let mut analyses = 0usize;
    loop {
        let mtime = std::fs::metadata(path).and_then(|m| m.modified()).ok();
        let content = std::fs::read_to_string(path);
        let sig: WatchSig = (
            mtime,
            content
                .as_ref()
                .ok()
                .map(|s| (s.len() as u64, argus::logic::hash::Fnv64::digest(s.as_bytes()))),
        );
        let changed = last_render.is_none() || last_sig.as_ref() != Some(&sig);
        if changed {
            last_sig = Some(sig);
            let loaded = match &content {
                Ok(src) => parse_program(src).map_err(|e| e.to_string()),
                Err(e) => Err(format!("cannot read {path}: {e}")),
            };
            match loaded {
                Ok(program) if !program.idb_predicates().contains(&query) => {
                    say!("watch: {query} is not defined in {path} — waiting for edits");
                }
                Ok(program) => {
                    let started = std::time::Instant::now();
                    let report = analyze_with_caches(
                        &program,
                        &query,
                        adornment.clone(),
                        &options,
                        None,
                        Some(&memo),
                    );
                    let elapsed = started.elapsed();
                    let rendered = report.to_string();
                    match &last_render {
                        None => print!("{rendered}"),
                        Some(prev) => {
                            let delta = argus::diag::delta::render_delta(prev, &rendered);
                            if delta.is_empty() {
                                say!("watch: report unchanged");
                            } else {
                                print!("{delta}");
                            }
                        }
                    }
                    let incr = report
                        .incremental
                        .map(|s| format!(", {}/{} SCCs recomputed", s.dirty(), s.total()))
                        .unwrap_or_default();
                    say!("watch: analyzed {path} in {:.1}ms{incr}", elapsed.as_secs_f64() * 1e3);
                    last_render = Some(rendered);
                }
                Err(e) => {
                    // Mid-edit files often fail to parse; report and keep
                    // watching — the next save gets a fresh chance.
                    say!("watch: {e}");
                }
            }
            analyses += 1;
            if iterations.is_some_and(|n| analyses >= n) {
                return ExitCode::SUCCESS;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(1)));
    }
}

fn cmd_infer(args: &[String]) -> ExitCode {
    use argus::core::{check_condition, infer_conditions_for, BackwardsOptions};

    let mut positional: Vec<&str> = Vec::new();
    let mut options = BackwardsOptions::default();
    let mut json = false;
    let mut certify = false;
    let mut corpus_mode = false;
    let mut engine_id = "theta".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--certify" => certify = true,
            "--corpus" => corpus_mode = true,
            "--no-propagate" => options.propagate = false,
            "--engine" => {
                i += 1;
                engine_id = match args.get(i) {
                    Some(v) => v.clone(),
                    None => {
                        eprintln!("--engine wants theta|sct|bs|uvg|naish|portfolio");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--jobs" => {
                i += 1;
                options.analysis.parallelism = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--jobs wants a thread count (0 = one per core)");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--max-arity" => {
                i += 1;
                options.max_arity = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("bad --max-arity value");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => positional.push(other),
        }
        i += 1;
    }

    if engine_id != "theta" {
        if corpus_mode {
            eprintln!("--engine is not supported with --corpus (the corpus lane is theta-only)");
            return ExitCode::FAILURE;
        }
        let Some((engines, race)) = argus::baselines::engines_for(&engine_id) else {
            eprintln!("--engine wants theta|sct|bs|uvg|naish|portfolio, got {engine_id:?}");
            return ExitCode::FAILURE;
        };
        // Every probe of the lattice sweep goes through the selected
        // engine (or the racing portfolio) instead of the θ pipeline.
        // Probes stay sequential — run_portfolio with jobs 1 — because
        // infer's parallelism lives at the predicate level.
        let engines = std::sync::Arc::new(engines);
        options.probe_override =
            Some(argus::core::ProbeHook::new(move |program, pred, adn, opts| {
                argus::core::run_portfolio(&engines, program, pred, adn, opts, 1, race, None)
                    .verdict
            }));
    }

    if corpus_mode {
        return infer_corpus(&options, certify);
    }
    let Some((path, specs)) = positional.split_first() else { return usage() };

    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let idb = program.idb_predicates();
    let preds: std::collections::BTreeSet<PredKey> = if specs.is_empty() {
        idb.clone()
    } else {
        let mut set = std::collections::BTreeSet::new();
        for spec in specs {
            let pred = match argus::logic::parse_pred_spec(spec) {
                Ok(pred) => pred,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if !idb.contains(&pred) {
                let d = undefined_predicate_error(&program, "predicate", &pred, path);
                eprint!("{}", argus::diag::render::render_text(&[d], &src, path));
                return ExitCode::FAILURE;
            }
            set.insert(pred);
        }
        set
    };

    let report = infer_conditions_for(&program, &preds, &options);
    if json {
        say!("{}", report.to_json());
    } else {
        let mut carets: Vec<Diagnostic> = Vec::new();
        for cond in &report.conditions {
            if cond.condition.is_true() {
                say!("{}: terminates unconditionally", cond.pred);
            } else if cond.condition.is_false() {
                say!("{}: no terminating instantiation found", cond.pred);
                carets.push(unprovable_diagnostic(&program, &cond.pred));
            } else {
                let capped =
                    if cond.capped { " (arity-capped: only all-bound probed)" } else { "" };
                say!("{}: terminates if {}{capped}", cond.pred, cond.condition);
            }
        }
        say!(
            "inference: {} predicate(s), {} forward analyses, {} pruned{}",
            report.conditions.len(),
            report.analyses,
            report.pruned,
            if report.partial { " (PARTIAL: deadline hit)" } else { "" }
        );
        if !carets.is_empty() {
            print!("{}", argus::diag::render::render_text(&carets, &src, path));
        }
    }
    if certify {
        let mut disjuncts = 0;
        for cond in &report.conditions {
            if let Some(hook) = &options.probe_override {
                // Non-theta engines have no LP certificate to re-check;
                // the strongest re-validation is an independent re-run of
                // the probe on every disjunct.
                let seq = AnalysisOptions { parallelism: 1, ..options.analysis.clone() };
                for adn in cond.disjunct_adornments() {
                    if hook.call(&program, &cond.pred, &adn, &seq) != Verdict::Terminates {
                        eprintln!(
                            "certificate: REJECTED — {} disjunct {adn} not reproducible \
                             under --engine {engine_id}",
                            cond.pred
                        );
                        return ExitCode::FAILURE;
                    }
                    disjuncts += 1;
                }
            } else {
                match check_condition(&program, cond, &options.analysis) {
                    Ok(n) => disjuncts += n,
                    Err(e) => {
                        eprintln!("certificate: REJECTED — {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        say!("certificates: VERIFIED ({disjuncts} disjunct(s) re-checked)");
    }
    if report.conditions.iter().all(|c| !c.condition.is_false()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// A caret diagnostic for a predicate with no provable instantiation,
/// anchored at its first recursive rule (mirrors the L009/L010 spans).
fn unprovable_diagnostic(program: &Program, pred: &PredKey) -> Diagnostic {
    let span = program
        .rules
        .iter()
        .filter(|r| r.head.key() == *pred)
        .filter(|r| r.body.iter().any(|l| l.atom.key() == *pred))
        .find_map(|r| r.head.span.get().or_else(|| r.span.get()));
    Diagnostic::new(
        "L011",
        Severity::Warning,
        span,
        format!("no adornment of {pred} yields a termination proof"),
    )
    .with_note(
        "even the all-bound instantiation was refuted, so no further \
         binding can help (provability is monotone in boundness)",
    )
}

/// `argus infer --corpus [--certify]`: whole-program inference over every
/// corpus entry — the CI smoke lane.
fn infer_corpus(options: &argus::core::BackwardsOptions, certify: bool) -> ExitCode {
    use argus::core::{check_condition, infer_conditions};
    let mut analyses = 0;
    let mut preds = 0;
    let mut disjuncts = 0;
    for entry in argus::corpus::corpus() {
        let program = match entry.program() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}: corpus source fails to parse: {e}", entry.name);
                return ExitCode::FAILURE;
            }
        };
        let report = infer_conditions(&program, options);
        for cond in &report.conditions {
            say!("{:24} {:16} {}", entry.name, cond.pred.to_string(), cond.condition);
            if certify {
                match check_condition(&program, cond, &options.analysis) {
                    Ok(n) => disjuncts += n,
                    Err(e) => {
                        eprintln!("{}: certificate REJECTED — {e}", entry.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        analyses += report.analyses;
        preds += report.conditions.len();
    }
    say!("corpus inference: {preds} predicate(s), {analyses} forward analyses");
    if certify {
        say!("certificates: VERIFIED ({disjuncts} disjunct(s) re-checked)");
    }
    ExitCode::SUCCESS
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut positional: Vec<&str> = Vec::new();
    let mut json = false;
    let mut query_spec: Option<&str> = None;
    let mut mode_spec: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--query" => {
                i += 1;
                match args.get(i) {
                    Some(v) => query_spec = Some(v),
                    None => {
                        eprintln!("--query wants <name/arity>");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--mode" => {
                i += 1;
                match args.get(i) {
                    Some(v) => mode_spec = Some(v),
                    None => {
                        eprintln!("--mode wants an adornment like bf");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => positional.push(other),
        }
        i += 1;
    }
    let [path] = positional.as_slice() else { return usage() };

    let mut options = LintOptions::default();
    match (query_spec, mode_spec) {
        (None, None) => {}
        (Some(q), Some(m)) => match argus::logic::parse_query_spec(q, m) {
            Ok(query) => options.query = Some(query),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!("--query and --mode must be given together");
            return ExitCode::FAILURE;
        }
    }

    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let diags = lint_source(&src, &options);
    if json {
        print!("{}", argus::diag::render::render_json(&diags, path));
    } else {
        print!("{}", argus::diag::render::render_text(&diags, &src, path));
    }
    if argus::diag::has_errors(&diags) {
        ExitCode::FAILURE
    } else if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [path, spec, adn] = args else { return usage() };
    let program = match load(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some((query, adornment)) = parse_query_arg(spec, adn) else { return ExitCode::FAILURE };
    for m in all_methods() {
        let r = m.prove(&program, &query, &adornment);
        println!(
            "{:38} {}",
            m.name(),
            if r.proved { "PROVED".to_string() } else { format!("fails — {}", r.detail) }
        );
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut positional: Vec<&str> = Vec::new();
    let mut options = InterpOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--steps" => {
                i += 1;
                options.max_steps = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("bad --steps value");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => positional.push(other),
        }
        i += 1;
    }
    let [path, goal_src] = positional.as_slice() else { return usage() };
    let program = match load(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let goals = match parse_query(goal_src) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let out = solve(&program, &goals, &options);
    match out {
        argus::interp::Outcome::Completed { solutions, steps } => {
            for (i, s) in solutions.iter().enumerate() {
                let bindings: Vec<String> = s.iter().map(|(v, t)| format!("{v} = {t}")).collect();
                println!(
                    "answer {}: {}",
                    i + 1,
                    if bindings.is_empty() { "true".into() } else { bindings.join(", ") }
                );
            }
            println!("{} answer(s), {} steps, search complete", solutions.len(), steps);
            ExitCode::SUCCESS
        }
        argus::interp::Outcome::OutOfBudget { steps, solutions_so_far } => {
            println!("budget exhausted after {steps} steps ({solutions_so_far} answer(s) so far)");
            ExitCode::from(2)
        }
    }
}

fn cmd_corpus(args: &[String]) -> ExitCode {
    match args.first() {
        None => {
            say!("{:24} {:12} {:6} {:10} {}", "name", "query", "mode", "terminates", "description");
            for e in argus::corpus::corpus() {
                say!(
                    "{:24} {:12} {:6} {:10} {}",
                    e.name,
                    e.query,
                    e.adornment,
                    if e.terminates { "yes" } else { "no" },
                    e.description.split_whitespace().collect::<Vec<_>>().join(" ")
                );
            }
            ExitCode::SUCCESS
        }
        Some(name) => match argus::corpus::find(name) {
            Some(e) => {
                println!("% {} ({})", e.name, e.description);
                if let Some(r) = e.paper_ref {
                    println!("% paper: {r}");
                }
                println!("% query: {} mode {}\n", e.query, e.adornment);
                print!("{}", e.source);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("no corpus entry named {name:?}");
                ExitCode::FAILURE
            }
        },
    }
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    use argus::fuzz::{repro_file, run as run_fuzz, FuzzOptions};

    let mut options = FuzzOptions { cases: 200, ..FuzzOptions::default() };
    let mut json = false;
    let mut repro_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let want_value = |args: &[String], i: usize, flag: &str| -> Option<String> {
            match args.get(i + 1) {
                Some(v) => Some(v.clone()),
                None => {
                    eprintln!("{flag} wants a value");
                    None
                }
            }
        };
        match args[i].as_str() {
            "--json" => json = true,
            "--no-metamorphic" => options.metamorphic = false,
            "--no-theta-search" => options.theta_search = false,
            "--negation" => options.gen.negation = true,
            "--infer" => options.infer = true,
            "--portfolio" => options.portfolio = true,
            "--incremental" => options.incremental = true,
            "--seed" => {
                let Some(v) = want_value(args, i, "--seed") else { return ExitCode::FAILURE };
                let Ok(n) = v.parse() else {
                    eprintln!("bad --seed value {v:?}");
                    return ExitCode::FAILURE;
                };
                options.seed = n;
                i += 1;
            }
            "--cases" => {
                let Some(v) = want_value(args, i, "--cases") else { return ExitCode::FAILURE };
                let Ok(n) = v.parse() else {
                    eprintln!("bad --cases value {v:?}");
                    return ExitCode::FAILURE;
                };
                options.cases = n;
                i += 1;
            }
            "--jobs" => {
                let Some(v) = want_value(args, i, "--jobs") else { return ExitCode::FAILURE };
                let Ok(n) = v.parse() else {
                    eprintln!("--jobs wants a thread count (0 = one per core)");
                    return ExitCode::FAILURE;
                };
                options.jobs = n;
                i += 1;
            }
            "--max-steps" => {
                let Some(v) = want_value(args, i, "--max-steps") else { return ExitCode::FAILURE };
                let Ok(n) = v.parse() else {
                    eprintln!("bad --max-steps value {v:?}");
                    return ExitCode::FAILURE;
                };
                options.max_steps = n;
                i += 1;
            }
            "--shrink-budget" => {
                let Some(v) = want_value(args, i, "--shrink-budget") else {
                    return ExitCode::FAILURE;
                };
                let Ok(n) = v.parse() else {
                    eprintln!("bad --shrink-budget value {v:?}");
                    return ExitCode::FAILURE;
                };
                options.shrink_budget = n;
                i += 1;
            }
            "--repro-dir" => {
                let Some(v) = want_value(args, i, "--repro-dir") else { return ExitCode::FAILURE };
                repro_dir = Some(v);
                i += 1;
            }
            "--serve" => {
                let Some(v) = want_value(args, i, "--serve") else { return ExitCode::FAILURE };
                options.serve_addr = Some(v);
                i += 1;
            }
            other => {
                eprintln!("unknown fuzz argument {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let started = std::time::Instant::now();
    let report = run_fuzz(&options);
    let elapsed = started.elapsed();

    if json {
        say!("{}", report.to_json());
    } else {
        print!("{report}");
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            say!(
                "throughput: {} cases in {:.2}s ({:.0} cases/s)",
                report.cases,
                secs,
                report.cases as f64 / secs
            );
        }
    }

    // Write minimized reproducers where the regression suite replays them.
    if !report.violations.is_empty() {
        let dir = repro_dir.unwrap_or_else(|| "tests/golden/fuzz-repros".to_string());
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for v in &report.violations {
            let path = format!("{dir}/seed{}-{}.pl", v.case_seed, v.kind.label());
            if let Err(e) = std::fs::write(&path, repro_file(v)) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("reproducer written to {path}");
        }
    }

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    use argus::serve::{install_signal_handlers, ServeOptions, Server, ServerState};

    let mut options = ServeOptions::default();
    let mut i = 0;
    while i < args.len() {
        let want_value = |args: &[String], i: usize, flag: &str| -> Option<String> {
            match args.get(i + 1) {
                Some(v) => Some(v.clone()),
                None => {
                    eprintln!("{flag} wants a value");
                    None
                }
            }
        };
        match args[i].as_str() {
            "--addr" => {
                let Some(v) = want_value(args, i, "--addr") else { return ExitCode::FAILURE };
                options.addr = v;
                i += 1;
            }
            "--jobs" => {
                let Some(v) = want_value(args, i, "--jobs") else { return ExitCode::FAILURE };
                let Ok(n) = v.parse() else {
                    eprintln!("--jobs wants a thread count (0 = one per core)");
                    return ExitCode::FAILURE;
                };
                options.jobs = n;
                i += 1;
            }
            "--cache-mb" => {
                let Some(v) = want_value(args, i, "--cache-mb") else { return ExitCode::FAILURE };
                let Ok(n) = v.parse() else {
                    eprintln!("bad --cache-mb value {v:?}");
                    return ExitCode::FAILURE;
                };
                options.cache_mb = n;
                i += 1;
            }
            "--deadline-ms" => {
                let Some(v) = want_value(args, i, "--deadline-ms") else {
                    return ExitCode::FAILURE;
                };
                let Ok(n) = v.parse() else {
                    eprintln!("bad --deadline-ms value {v:?}");
                    return ExitCode::FAILURE;
                };
                options.deadline_ms = n;
                i += 1;
            }
            "--cache-dir" => {
                let Some(v) = want_value(args, i, "--cache-dir") else {
                    return ExitCode::FAILURE;
                };
                options.cache_dir = Some(std::path::PathBuf::from(v));
                i += 1;
            }
            other => {
                eprintln!("unknown serve argument {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let state = std::sync::Arc::new(ServerState::new(options));
    let server = match Server::bind(state) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The startup line scripts parse to learn the real port (`--addr :0`).
    say!("listening on {}", server.local_addr());
    install_signal_handlers();
    match server.run() {
        Ok(()) => {
            say!("drained cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_lsp(args: &[String]) -> ExitCode {
    let mut options = argus::lsp::LspOptions::default();
    let mut query_spec: Option<&str> = None;
    let mut mode_spec: Option<&str> = None;
    let want_value = |args: &[String], i: usize, flag: &str| -> Option<String> {
        match args.get(i + 1) {
            Some(v) => Some(v.clone()),
            None => {
                eprintln!("{flag} wants a value");
                None
            }
        }
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                let Some(v) = want_value(args, i, "--jobs") else { return ExitCode::FAILURE };
                let Ok(n) = v.parse() else {
                    eprintln!("bad --jobs value {v:?}");
                    return ExitCode::FAILURE;
                };
                options.jobs = n;
                i += 1;
            }
            "--debounce-ms" => {
                let Some(v) = want_value(args, i, "--debounce-ms") else {
                    return ExitCode::FAILURE;
                };
                let Ok(n) = v.parse() else {
                    eprintln!("bad --debounce-ms value {v:?}");
                    return ExitCode::FAILURE;
                };
                options.debounce_ms = n;
                i += 1;
            }
            "--cache-dir" => {
                let Some(v) = want_value(args, i, "--cache-dir") else {
                    return ExitCode::FAILURE;
                };
                options.cache_dir = Some(std::path::PathBuf::from(v));
                i += 1;
            }
            "--query" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--query wants <name/arity>");
                    return ExitCode::FAILURE;
                };
                query_spec = Some(v);
                i += 1;
            }
            "--mode" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--mode wants an adornment like bf");
                    return ExitCode::FAILURE;
                };
                mode_spec = Some(v);
                i += 1;
            }
            other => {
                eprintln!("unknown lsp argument {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    match (query_spec, mode_spec) {
        (None, None) => {}
        (Some(q), Some(m)) => match argus::logic::parse_query_spec(q, m) {
            Ok(query) => options.query = Some(query),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!("--query and --mode must be given together");
            return ExitCode::FAILURE;
        }
    }
    let code = argus::lsp::run_server(std::io::stdin(), std::io::stdout().lock(), options);
    ExitCode::from(code.clamp(0, 255) as u8)
}

//! Golden snapshots of the machine-readable JSON surfaces.
//!
//! Downstream consumers parse `argus analyze --json` and `argus fuzz
//! --json`; these tests pin the exact bytes both emit on fixed inputs, so
//! any schema change (renamed key, reordered field, new escaping) shows up
//! as a reviewed diff to `tests/golden/` instead of a silent break.
//!
//! To bless an intentional change: `UPDATE_GOLDEN=1 cargo test -q
//! --test json_snapshots`, then commit the updated files.

use argus::fuzz::{run as run_fuzz, FuzzOptions};
use argus::prelude::*;
use std::path::{Path, PathBuf};

fn golden_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(rel)
}

fn check_golden(rel: &str, actual: &str) {
    let path = golden_path(rel);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create", path.display())
    });
    assert_eq!(
        expected,
        actual,
        "{} drifted; if intentional, re-bless with UPDATE_GOLDEN=1",
        path.display()
    );
}

/// Light structural validation shared by both snapshot tests: the JSON
/// must at least contain the advertised top-level keys.
fn assert_has_keys(json: &str, keys: &[&str]) {
    for k in keys {
        assert!(json.contains(&format!("\"{k}\":")), "missing key {k:?} in {json}");
    }
}

#[test]
fn analyze_json_snapshots_on_corpus() {
    // One proved entry, one proved-with-multiple-sccs entry, one
    // zero-weight-cycle control: together they exercise every outcome
    // branch of the serializer.
    for name in ["append_bff", "perm", "loop_mutual"] {
        let entry = argus::corpus::find(name).expect(name);
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let options = AnalysisOptions { parallelism: 1, ..AnalysisOptions::default() };
        let report = analyze(&program, &query, adornment, &options);
        let json = report.to_json();
        assert_has_keys(&json, &["query", "verdict", "sccs"]);
        check_golden(&format!("analyze/{name}.json"), &json);
    }
}

/// Every corpus entry's text report and default JSON under one analysis
/// option set, concatenated in corpus order.
fn corpus_reports(options: &AnalysisOptions) -> String {
    let mut out = String::new();
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let report = analyze(&program, &query, adornment, options);
        out.push_str(&format!("== {} ==\n{report}{}\n", entry.name, report.to_json()));
    }
    out
}

/// The Appendix C δ mode over the whole corpus: symbolic δ's with the
/// positive-cycle rows, their read-back values, blame and refutations.
#[test]
fn analyze_corpus_snapshot_path_constraints() {
    let options = AnalysisOptions {
        delta_mode: DeltaMode::PathConstraints,
        parallelism: 1,
        ..AnalysisOptions::default()
    };
    check_golden("analyze/corpus-path-constraints.txt", &corpus_reports(&options));
}

/// The lexicographic fallback over the whole corpus: every level of every
/// `ProvedLexicographic` SCC, and the base outcome where it still fails.
#[test]
fn analyze_corpus_snapshot_lexicographic() {
    let options =
        AnalysisOptions { lexicographic: true, parallelism: 1, ..AnalysisOptions::default() };
    check_golden("analyze/corpus-lexicographic.txt", &corpus_reports(&options));
}

/// Replace every integer that appears as a JSON *value* (a digit run
/// right after `:`) with `0`, leaving key names (`le_50`) and the schema
/// string untouched. Counter values vary run to run; the key set, nesting,
/// and field order must not.
fn normalize_counter_values(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == ':' && chars.peek().is_some_and(|d| d.is_ascii_digit()) {
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                chars.next();
            }
            out.push('0');
        }
    }
    out
}

/// The `/metrics` snapshot is a public machine-readable surface like the
/// analyze JSON: pin its exact shape (schema string, key set, field
/// order) with counter values normalized to `0`.
#[test]
fn serve_metrics_snapshot_schema() {
    use argus::serve::{ServeOptions, ServerState};
    let state = ServerState::new(ServeOptions::default());
    let request = |path: &str, body: &[u8]| argus::serve::Request {
        method: if body.is_empty() { "GET" } else { "POST" }.to_string(),
        path: path.to_string(),
        headers: Vec::new(),
        body: body.to_vec(),
        keep_alive: true,
    };
    // Touch every counter family: a computed analyze, a cached repeat, a
    // malformed request, and a metrics read.
    let entry = argus::corpus::find("append_bff").unwrap();
    let body = format!(
        "{{\"program\":{},\"query\":{},\"adornment\":{}}}",
        argus::serve::jsonval::json_str(entry.source),
        argus::serve::jsonval::json_str(entry.query),
        argus::serve::jsonval::json_str(entry.adornment)
    );
    assert_eq!(state.handle(&request("/v1/analyze", body.as_bytes())).status, 200);
    assert_eq!(state.handle(&request("/v1/analyze", body.as_bytes())).status, 200);
    assert_eq!(state.handle(&request("/v1/analyze", b"not json")).status, 400);
    assert_eq!(state.handle(&request("/metrics", b"")).status, 200);

    let snapshot = state.metrics_snapshot();
    assert!(snapshot.contains(argus::serve::METRICS_SCHEMA), "{snapshot}");
    argus::serve::jsonval::parse(&snapshot).expect("metrics snapshot parses as JSON");
    check_golden("serve/metrics.json", &normalize_counter_values(&snapshot));
}

/// Pin the `argus-engine/v1` surface: a portfolio race with an SCT win
/// (later engines rewritten to `cancelled`), a single-engine run, and a
/// no-winner race, each with the per-engine stats objects included. The
/// counters are deterministic by construction (no wall clock), so the
/// snapshots pin them verbatim — any drift in SCT's graph/closure
/// accounting or θ's per-SCC counters shows up here as a reviewed diff.
#[test]
fn engine_json_snapshots_on_corpus() {
    use argus::baselines::{engine_by_id, standard_engines};
    use argus::core::run_portfolio;
    let options = AnalysisOptions { parallelism: 1, ..AnalysisOptions::default() };
    let cases: [(&str, &str, bool); 3] = [
        ("sct_lex_reset", "portfolio", true), // sct wins, bs/uvg/naish cancelled
        ("sct_lex_reset", "sct", false),      // single engine, un-raced
        ("loop_direct", "portfolio", true),   // no winner, every verdict real
    ];
    for (name, engine, race) in cases {
        let entry = argus::corpus::find(name).expect(name);
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let engines = if engine == "portfolio" {
            standard_engines()
        } else {
            vec![engine_by_id(engine).unwrap()]
        };
        let report = run_portfolio(&engines, &program, &query, &adornment, &options, 1, race, None);
        let json = report.to_json(true);
        assert_has_keys(&json, &["schema", "query", "adornment", "verdict", "winner", "engines"]);
        assert!(json.contains("\"schema\":\"argus-engine/v1\""), "{json}");
        check_golden(&format!("engine/{name}-{engine}.json"), &json);
        // The text rendering and its stats block ride along in one file.
        let text = format!("{}{}", report, report.render_stats());
        check_golden(&format!("engine/{name}-{engine}.txt"), &text);
    }
}

#[test]
fn fuzz_json_snapshot() {
    let opts = FuzzOptions { seed: 1, cases: 20, jobs: 1, ..FuzzOptions::default() };
    let report = run_fuzz(&opts);
    let json = report.to_json();
    assert_has_keys(&json, &["seed", "cases", "verdicts", "shape", "violations", "warnings"]);
    check_golden("fuzz/seed1-cases20.json", &json);
}

/// The size-relation fixpoint's output for one program, as text: the
/// rendered (minimized) [`SizeRelations`] of the whole-program pass, then
/// every SCC's raw work-state polyhedra from the per-SCC pass — the rows,
/// in order, that the incremental memo stores and downstream fixpoints
/// consume. Both are pinned byte for byte, so a fixpoint shortcut that
/// changes a row's order, its coefficients, or which redundant rows
/// survive shows up as a diff.
fn sizerel_snapshot(program: &Program) -> String {
    let options = InferOptions::default();
    let mut out = String::from("== relations\n");
    out.push_str(&infer_size_relations(program, &options).to_string());
    out.push_str("== work state\n");
    per_scc_sizes(program, &options, |members, recursive, work| {
        for p in members {
            let poly = work.get(p).expect("inferred");
            let state = if poly.is_empty() { "empty" } else { "rows" };
            out.push_str(&format!("{p}{}: {state}\n", if recursive { " (rec)" } else { "" }));
            if !poly.is_empty() {
                for c in poly.to_system().constraints() {
                    out.push_str(&format!("  {c}\n"));
                }
            }
        }
    });
    out
}

/// The per-SCC pass the incremental memo runs: `infer_scc_sizes` over
/// every SCC with rules, bottom-up, calling `visit` with the SCC's
/// members, its recursiveness and the work state after it. Returns the
/// final work state.
fn per_scc_sizes(
    program: &Program,
    options: &InferOptions,
    mut visit: impl FnMut(&[PredKey], bool, &SizeRelations),
) -> SizeRelations {
    use argus::logic::program::ProcIndex;
    use argus::logic::DepGraph;
    let graph = DepGraph::build(program);
    let index = ProcIndex::build(program);
    let mut work = SizeRelations::new();
    for scc in graph.sccs_bottom_up() {
        let members: Vec<PredKey> =
            graph.scc(scc).into_iter().filter(|p| !index.rule_indices(p).is_empty()).collect();
        if members.is_empty() {
            continue;
        }
        let recursive = members.iter().any(|p| graph.is_recursive(p));
        argus::sizerel::infer_scc_sizes(program, &index, &members, recursive, &mut work, options);
        visit(&members, recursive, &work);
    }
    work
}

/// The raw program and its query-adorned copy (the program the analyzer
/// actually infers size relations for), one golden file per input.
fn sizerel_snapshot_raw_and_adorned(
    program: &Program,
    query: &PredKey,
    adornment: Adornment,
) -> String {
    let adorned = argus::logic::adorn_program(program, query, adornment);
    format!(
        "# raw\n{}# adorned {}\n{}",
        sizerel_snapshot(program),
        adorned.query,
        sizerel_snapshot(&adorned.program)
    )
}

#[test]
fn sizerel_snapshots_on_corpus() {
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let text = sizerel_snapshot_raw_and_adorned(&program, &query, adornment);
        check_golden(&format!("sizerel/{}.txt", entry.name), &text);
    }
}

#[test]
fn sizerel_snapshot_on_scale_case() {
    let case = argus::fuzz::gen::scale_case(0xA11CE, 250);
    let text = sizerel_snapshot_raw_and_adorned(&case.program, &case.query, case.adornment);
    check_golden("sizerel/scale_a11ce_250.txt", &text);
}

/// The rendered [`infer_size_relations`] output for a spread of
/// `scale_case` programs (60–300 clauses, one golden file), each checked
/// first against the per-SCC `infer_scc_sizes` path, minimized the same
/// way: the memoized and whole-program fixpoints must agree on every
/// predicate.
#[test]
fn sizerel_relations_on_scale_seeds() {
    let options = InferOptions::default();
    let mut text = String::new();
    for (seed, clauses) in
        [(1, 60), (2, 90), (3, 120), (5, 150), (8, 180), (13, 220), (21, 260), (34, 300)]
    {
        let program = argus::fuzz::gen::scale_case(seed, clauses).program;
        let whole = infer_size_relations(&program, &options).to_string();
        let work = per_scc_sizes(&program, &options, |_, _, _| {});
        let mut per_scc = SizeRelations::new();
        for (p, poly) in work.iter() {
            per_scc.insert(p.clone(), poly.minimized());
        }
        assert_eq!(whole, per_scc.to_string(), "seed {seed}, {clauses} clauses");
        text.push_str(&format!("# seed {seed}, {clauses} clauses\n{whole}"));
    }
    check_golden("sizerel/scale_seeds.txt", &text);
}

/// The rendered [`infer_size_relations`] output under `Norm::ListLength`
/// (the right-spine norm) for every corpus entry, raw and query-adorned,
/// and for the 250-clause `scale_case`: the goldens above all run the
/// structural norm. Each is checked first against the per-SCC
/// `infer_scc_sizes` path under the same norm.
#[test]
fn sizerel_relations_under_list_length() {
    let options = InferOptions { norm: argus::logic::Norm::ListLength, ..InferOptions::default() };
    let relations = |program: &Program| {
        let whole = infer_size_relations(program, &options).to_string();
        let mut per_scc = SizeRelations::new();
        for (p, poly) in per_scc_sizes(program, &options, |_, _, _| {}).iter() {
            per_scc.insert(p.clone(), poly.minimized());
        }
        assert_eq!(whole, per_scc.to_string());
        whole
    };
    let mut inputs: Vec<(String, Program, PredKey, Adornment)> = argus::corpus::corpus()
        .iter()
        .map(|entry| {
            let (query, adornment) = entry.query_key();
            (entry.name.to_string(), entry.program().unwrap(), query, adornment)
        })
        .collect();
    let case = argus::fuzz::gen::scale_case(0xA11CE, 250);
    inputs.push(("scale_a11ce_250".into(), case.program, case.query, case.adornment));
    let mut text = String::new();
    for (name, program, query, adornment) in &inputs {
        let adorned = argus::logic::adorn_program(program, query, adornment.clone());
        text.push_str(&format!("# {name} raw\n{}", relations(program)));
        text.push_str(&format!(
            "# {name} adorned {}\n{}",
            adorned.query,
            relations(&adorned.program)
        ));
    }
    check_golden("sizerel/list_length.txt", &text);
}

/// A recursive SCC whose members settle in different rounds: `a` stops
/// growing once `b` is nonempty, while `b`'s second argument keeps growing
/// until widening. `b`'s last rule reads only `a`, so the later rounds
/// evaluate it against an unchanged input.
#[test]
fn sizerel_snapshot_on_members_settling_apart() {
    let program = argus::logic::parser::parse_program(
        "a([]).\n\
         a([x]) :- b(_, _).\n\
         b([], []).\n\
         b(X, [y|Ys]) :- b(X, Ys), a(X).\n\
         b(X, [z]) :- a(X).\n",
    )
    .unwrap();
    check_golden("sizerel/members_settling_apart.txt", &sizerel_snapshot(&program));
}

/// Predicates of arity 6 and 7, one at the generator route's dimension
/// bound (`argus_linear::poly::GENERATOR_DIM_MAX`) and one past it, where
/// `Poly` answers its implication and redundancy tests by LP. Both are
/// recursive, so widening, inclusion and minimization all run on each
/// side of the bound.
#[test]
fn sizerel_snapshot_on_high_arity() {
    let program = argus::logic::parser::parse_program(
        "split6([], Ys, Ys, [], Zs, Zs).\n\
         split6([X|Xs], Ys, W, [X|Ls], Zs, V) :- split6(Xs, [X|Ys], W, Ls, Zs, V).\n\
         split6([X|Xs], Ys, W, Ls, Zs, [X|V]) :- split6(Xs, Ys, W, Ls, [X|Zs], V).\n\
         walk7([], A, A, B, B, [], N) :- split6(A, [], _, _, B, N).\n\
         walk7([X|Xs], A, W, B, V, [X|Ls], s(N)) :- walk7(Xs, [X|A], W, B, V, Ls, N).\n\
         walk7([_|Xs], A, W, B, V, Ls, N) :- walk7(Xs, A, W, [a|B], V, Ls, N).\n",
    )
    .unwrap();
    check_golden("sizerel/high_arity.txt", &sizerel_snapshot(&program));
}

/// The larger fixpoints, pinned by digest: one Fnv64 line per
/// `scale_case` program, raw and query-adorned, under each norm. A line
/// digests the rendered [`infer_size_relations`] text, every SCC's
/// work-state rows with its members' empty and minimal flags from the
/// per-SCC pass, and every `FmStats` counter of the whole-program
/// fixpoint at each FM tier. The programs are too large to pin as text.
#[test]
fn sizerel_digests_on_larger_scale_cases() {
    use argus::linear::fm::{FmConfig, FmStats, FmTier};
    use argus::logic::hash::Fnv64;
    use argus::logic::Norm;
    fn digest(program: &Program, norm: Norm) -> u64 {
        let options = InferOptions { norm, ..InferOptions::default() };
        let mut h = Fnv64::new();
        h.write_str(&infer_size_relations(program, &options).to_string());
        per_scc_sizes(program, &options, |members, recursive, work| {
            h.write(&[u8::from(recursive)]);
            for p in members {
                let poly = work.get(p).expect("inferred");
                h.write_str(&p.to_string());
                h.write(&[u8::from(poly.is_empty()), u8::from(poly.is_minimal())]);
                h.write_str(&poly.to_string());
            }
        });
        for tier in FmTier::ALL {
            let mut stats = FmStats::default();
            argus::sizerel::infer_size_relations_instrumented(
                program,
                &options,
                &FmConfig::tiered(tier),
                &mut stats,
            );
            for (name, v) in stats.counters() {
                h.write_str(name);
                h.write_u64(v);
            }
        }
        h.finish()
    }
    let mut text = String::new();
    for (seed, clauses) in [(0xA11CE, 250), (0xA11CE, 2000), (7919, 250), (1, 2000)] {
        let case = argus::fuzz::gen::scale_case(seed, clauses);
        let adorned = argus::logic::adorn_program(&case.program, &case.query, case.adornment);
        for (form, program) in [("raw", &case.program), ("adorned", &adorned.program)] {
            for norm in [Norm::StructuralSize, Norm::ListLength] {
                let d = digest(program, norm);
                text.push_str(&format!("{seed:#x}/{clauses} {form} {norm:?}: {d:016x}\n"));
            }
        }
    }
    check_golden("sizerel/scale_digests.txt", &text);
}

/// Every [`argus::linear::fm::FmStats`] counter of the whole-program
/// fixpoint, per corpus entry (raw and query-adorned) and for the
/// 250-clause `scale_case`. The relation goldens above pin FM's output
/// rows; this pins its decisions: how many rows each dedup, subsumption
/// and Chernikov cut dropped, how many pairs were combined and on which
/// integer kernel. The trailing `lp` lines do the same at tier 3, whose
/// LP implication tests also drop rows: the fixpoint's counters and the
/// θ projections' counters summed over the SCCs of `analyze`.
#[test]
fn sizerel_fm_counters_snapshot() {
    use argus::linear::fm::{FmConfig, FmStats, FmTier};
    fn counters_line(label: &str, stats: &FmStats) -> String {
        let counters: Vec<String> =
            stats.counters().iter().map(|(name, v)| format!("{name}={v}")).collect();
        format!("{label}: {}\n", counters.join(" "))
    }
    fn sizerel_line(label: &str, program: &Program, cfg: &FmConfig) -> String {
        let mut stats = FmStats::default();
        argus::sizerel::infer_size_relations_instrumented(
            program,
            &InferOptions::default(),
            cfg,
            &mut stats,
        );
        counters_line(label, &stats)
    }
    let line = |label: &str, program: &Program| sizerel_line(label, program, &FmConfig::default());
    let mut text = String::new();
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let adorned = argus::logic::adorn_program(&program, &query, adornment);
        text.push_str(&line(&format!("{} raw", entry.name), &program));
        text.push_str(&line(&format!("{} adorned", entry.name), &adorned.program));
    }
    let case = argus::fuzz::gen::scale_case(0xA11CE, 250);
    let adorned = argus::logic::adorn_program(&case.program, &case.query, case.adornment);
    text.push_str(&line("scale_a11ce_250 raw", &case.program));
    text.push_str(&line("scale_a11ce_250 adorned", &adorned.program));
    let lp = FmConfig::tiered(FmTier::Lp);
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let adorned = argus::logic::adorn_program(&program, &query, adornment.clone());
        text.push_str(&sizerel_line(&format!("{} raw lp", entry.name), &program, &lp));
        text.push_str(&sizerel_line(&format!("{} adorned lp", entry.name), &adorned.program, &lp));
        let options =
            AnalysisOptions { parallelism: 1, fm_tier: FmTier::Lp, ..AnalysisOptions::default() };
        let mut theta = FmStats::default();
        for scc in &analyze(&program, &query, adornment, &options).sccs {
            theta.merge(&scc.stats.fm);
        }
        text.push_str(&counters_line(&format!("{} theta lp", entry.name), &theta));
    }
    check_golden("sizerel/fm_counters.txt", &text);
}

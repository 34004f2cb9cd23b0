//! The bench workloads as plain functions.
//!
//! Each suite is one `bench_report --suite <name>` (`bench_report --suite
//! fm --out -` prints one to stdout), so the workload measured ad hoc is
//! the one behind the committed `BENCH_argus.json`.

use crate::timing::{bench_case, Sample};
use crate::workload;
use argus_core::{analyze, AnalysisOptions, DeltaMode};
use argus_linear::{fm, simplex, ConstraintSystem, FmTier};
use std::collections::BTreeSet;
use std::hint::black_box;

/// Workload scale: `Smoke` keeps every case in the few-millisecond range
/// so CI can afford to run the whole report; `Full` matches the historical
/// criterion sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: small systems, few iterations.
    Smoke,
    /// Full benchmark sizes.
    Full,
}

impl Scale {
    fn iters(self) -> u32 {
        match self {
            Scale::Smoke => 3,
            Scale::Full => 10,
        }
    }
}

/// FM satisfiability with a generous row cap: on dense random systems FM's
/// intermediate row count grows doubly exponentially, so past ~6 variables
/// a cap is needed to keep the bench finite at all — which is itself the
/// measured result (simplex keeps scaling where FM falls off a cliff).
fn fm_satisfiable_capped(sys: &ConstraintSystem) -> Option<bool> {
    match fm::project_onto_capped(sys, &BTreeSet::new(), 50_000).ok()? {
        fm::FmResult::Projected(rest) => Some(rest.simplify_trivial().is_some()),
        fm::FmResult::Infeasible => Some(false),
    }
}

/// E7c — simplex vs FM feasibility on random systems of growing size.
pub fn simplex_suite(scale: Scale) -> Vec<Sample> {
    let mut out = Vec::new();
    let nvars_list: &[usize] = match scale {
        Scale::Smoke => &[3, 4, 5],
        Scale::Full => &[3, 4, 5, 6],
    };
    for (label, feasible) in [("feasible", true), ("mixed", false)] {
        for &nvars in nvars_list {
            let mut r = workload::rng(13 + nvars as u64);
            let sys = if feasible {
                workload::random_feasible_system(&mut r, nvars, nvars * 2, 3)
            } else {
                workload::random_system(&mut r, nvars, nvars * 2, 3)
            };
            out.push(bench_case(
                "simplex",
                &format!("{label}/simplex/{nvars}"),
                1,
                scale.iters(),
                || black_box(simplex::feasible_point(black_box(&sys), &BTreeSet::new())),
            ));
            out.push(bench_case(
                "simplex",
                &format!("{label}/fm/{nvars}"),
                1,
                scale.iters(),
                || black_box(fm_satisfiable_capped(black_box(&sys))),
            ));
        }
    }
    // Redundancy removal of the heaviest `scale-cold` hull. The counters
    // pin the LP form: a dual leave-one-out test costs one tableau row per
    // variable, where a primal one would cost a row per constraint.
    let hull = workload::scale_cold_hull();
    let mut stats = simplex::LpStats::default();
    let kept = simplex::irredundant(&hull, &mut stats).expect("the hull is feasible");
    let sample = bench_case("simplex", "minimize/a11ce-250-top", 1, scale.iters(), || {
        black_box(simplex::irredundant(black_box(&hull), &mut simplex::LpStats::default()))
    });
    out.push(sample.with_counters(vec![
        ("dim", hull.vars().len() as u64),
        ("rows_in", hull.len() as u64),
        ("rows_out", kept.len() as u64),
        ("lp_solves", stats.solves),
        ("tableau_rows", stats.tableau_rows),
        ("mean_tableau_rows", stats.tableau_rows.div_ceil(stats.solves.max(1))),
    ]));
    out
}

/// E7b — Fourier–Motzkin projection cost against variables eliminated and
/// row count.
pub fn fm_suite(scale: Scale) -> Vec<Sample> {
    let mut out = Vec::new();
    let nvars_list: &[usize] = match scale {
        Scale::Smoke => &[3, 5, 7],
        Scale::Full => &[3, 5, 7, 9],
    };
    for &nvars in nvars_list {
        let mut r = workload::rng(7);
        let sys = workload::random_feasible_system(&mut r, nvars, nvars * 2, 3);
        let keep: BTreeSet<usize> = [0usize].into_iter().collect();
        out.push(bench_case("fm", &format!("eliminate-vars/{nvars}"), 1, scale.iters(), || {
            black_box(fm::project_onto_capped(black_box(&sys), &keep, 100_000))
        }));
    }
    let nrows_list: &[usize] = match scale {
        Scale::Smoke => &[4, 8, 16],
        Scale::Full => &[4, 8, 16, 32],
    };
    for &nrows in nrows_list {
        let mut r = workload::rng(11);
        let sys = workload::random_feasible_system(&mut r, 4, nrows, 3);
        let keep: BTreeSet<usize> = [0usize, 1].into_iter().collect();
        out.push(bench_case("fm", &format!("rows/{nrows}"), 1, scale.iters(), || {
            black_box(fm::project_onto_capped(black_box(&sys), &keep, 100_000))
        }));
    }
    out
}

/// E7a — end-to-end analysis cost per corpus program plus the synthetic
/// chained-append scaling family.
pub fn analysis_suite(scale: Scale) -> Vec<Sample> {
    let mut out = Vec::new();
    let corpus: &[&str] = match scale {
        Scale::Smoke => &["append_bff", "perm", "merge", "quicksort"],
        Scale::Full => {
            &["append_bff", "perm", "merge", "expr_parser", "quicksort", "hanoi", "tree_insert"]
        }
    };
    for name in corpus {
        let entry = argus_corpus::find(name).expect("corpus entry");
        let program = entry.program().expect("parse");
        let (query, adornment) = entry.query_key();
        out.push(bench_case("analysis", &format!("corpus/{name}"), 1, scale.iters(), || {
            black_box(analyze(
                black_box(&program),
                &query,
                adornment.clone(),
                &AnalysisOptions::default(),
            ))
        }));
    }
    let depths: &[usize] = match scale {
        Scale::Smoke => &[1, 2, 4],
        Scale::Full => &[1, 2, 4, 8],
    };
    for &depth in depths {
        let src = workload::chained_append_program(depth);
        let program = argus_logic::parser::parse_program(&src).expect("parse");
        let query = argus_logic::PredKey::new("p0", 2);
        let adornment = argus_logic::Adornment::parse("bf").unwrap();
        out.push(bench_case(
            "analysis",
            &format!("chained-depth/{depth}"),
            1,
            scale.iters(),
            || {
                black_box(analyze(
                    black_box(&program),
                    &query,
                    adornment.clone(),
                    &AnalysisOptions::default(),
                ))
            },
        ));
    }
    out
}

/// E7d — ablations: δ selection mode, imported-constraint power, and
/// transformation policy.
pub fn ablation_suite(scale: Scale) -> Vec<Sample> {
    let mut out = Vec::new();
    let subjects: &[&str] = match scale {
        Scale::Smoke => &["perm", "merge"],
        Scale::Full => &["perm", "merge", "expr_parser"],
    };
    for name in subjects {
        let e = argus_corpus::find(name).expect("entry");
        let program = e.program().expect("parse");
        let (query, adornment) = e.query_key();
        for (label, mode) in
            [("paper-6.1", DeltaMode::Paper), ("appendix-c", DeltaMode::PathConstraints)]
        {
            let options = AnalysisOptions { delta_mode: mode, ..AnalysisOptions::default() };
            out.push(bench_case(
                "ablation",
                &format!("delta-mode/{name}/{label}"),
                1,
                scale.iters(),
                || black_box(analyze(black_box(&program), &query, adornment.clone(), &options)),
            ));
        }
        for (label, binary) in [("polyhedral", false), ("binary-orders", true)] {
            let options = AnalysisOptions {
                restrict_imports_to_binary_orders: binary,
                ..AnalysisOptions::default()
            };
            out.push(bench_case(
                "ablation",
                &format!("imports/{name}/{label}"),
                1,
                scale.iters(),
                || black_box(analyze(black_box(&program), &query, adornment.clone(), &options)),
            ));
        }
    }
    // appendix_a1 NEEDS the transformations; merge must not pay for them.
    for name in ["appendix_a1", "merge"] {
        let e = argus_corpus::find(name).expect("entry");
        let program = e.program().expect("parse");
        let (query, adornment) = e.query_key();
        for (label, phases) in [("no-transform", 0usize), ("lazy-3-phases", 3)] {
            let options =
                AnalysisOptions { transform_phases: phases, ..AnalysisOptions::default() };
            out.push(bench_case(
                "ablation",
                &format!("transform/{name}/{label}"),
                1,
                scale.iters(),
                || black_box(analyze(black_box(&program), &query, adornment.clone(), &options)),
            ));
        }
    }
    out
}

/// E7f — the level-scheduled parallel pipeline: multi-SCC workloads
/// analyzed sequentially (`--jobs 1`) vs with the worker pool
/// (`--jobs 0` = one per core). The wide program is the pipeline's home
/// turf (many independent SCCs per level); the deep chain is the
/// adversarial case (one SCC per level — parallelism can only add
/// overhead, which must stay negligible).
pub fn parallel_suite(scale: Scale) -> Vec<Sample> {
    let mut out = Vec::new();
    let (layers, width) = match scale {
        Scale::Smoke => (2, 4),
        Scale::Full => (3, 8),
    };
    let mut src = workload::wide_scc_program(layers, width);
    // A root rule calling every column, so the whole width is reachable
    // from one query.
    let calls: Vec<String> = (0..width).map(|w| format!("q0_{w}(Xs, _Y{w})")).collect();
    src.push_str(&format!("root(Xs) :- {}.\n", calls.join(", ")));
    let program = argus_logic::parser::parse_program(&src).expect("parse");
    let query = argus_logic::PredKey::new("root", 1);
    let adornment = argus_logic::Adornment::parse("b").unwrap();
    for (label, jobs) in [("jobs-1", 1usize), ("jobs-auto", 0)] {
        let options = AnalysisOptions { parallelism: jobs, ..AnalysisOptions::default() };
        out.push(bench_case(
            "parallel",
            &format!("wide-scc/{layers}x{width}/{label}"),
            1,
            scale.iters(),
            || black_box(analyze(black_box(&program), &query, adornment.clone(), &options)),
        ));
    }
    let depth = match scale {
        Scale::Smoke => 4,
        Scale::Full => 8,
    };
    let src = workload::chained_append_program(depth);
    let program = argus_logic::parser::parse_program(&src).expect("parse");
    let query = argus_logic::PredKey::new("p0", 2);
    let adornment = argus_logic::Adornment::parse("bf").unwrap();
    for (label, jobs) in [("jobs-1", 1usize), ("jobs-auto", 0)] {
        let options = AnalysisOptions { parallelism: jobs, ..AnalysisOptions::default() };
        out.push(bench_case(
            "parallel",
            &format!("deep-chain/{depth}/{label}"),
            1,
            scale.iters(),
            || black_box(analyze(black_box(&program), &query, adornment.clone(), &options)),
        ));
    }
    out
}

/// Flatten an [`fm::FmStats`] into bench counters.
fn fm_counters(stats: &fm::FmStats) -> Vec<(&'static str, u64)> {
    vec![
        ("peak_rows", stats.peak_rows),
        ("rows_in", stats.rows_in),
        ("rows_out", stats.rows_out),
        ("pairs_combined", stats.pairs_combined),
        ("dedup_hits", stats.dedup_hits),
        ("subsume_hits", stats.subsume_hits),
        ("chernikov_drops", stats.chernikov_drops),
        ("lp_drops", stats.lp_drops),
    ]
}

/// E11 — FM blowup control: the redundancy-elimination tiers measured on
/// (a) raw dense projections, (b) the instrumented size-relation inference
/// of the FM-heavy `mutual_fib_ring` corpus entry, and (c) the end-to-end
/// analysis with the per-SCC projection cache on and off. Every sample
/// carries the deterministic FM row counters, so `bench_gate` can pin floors
/// on the *row reduction* itself rather than on noisy wall time.
pub fn fm_redundancy_suite(scale: Scale) -> Vec<Sample> {
    let mut out = Vec::new();

    // (a) Dense random projections per tier. The row cap keeps the low
    // tiers bounded on adversarial instances — hitting it is itself the
    // measured result, recorded by `peak_rows` slamming into the cap while
    // tier ≥ 2 finishes two orders of magnitude below it. (Uncapped, tier 0
    // peaks at ~82k rows on the 6v12 instance and tier 1's quadratic
    // subsumption scan does 4×10⁸ row comparisons: minutes, not benchable.)
    let sizes: &[(usize, usize)] = match scale {
        Scale::Smoke => &[(6, 12)],
        Scale::Full => &[(6, 12), (7, 14), (8, 16)],
    };
    for &(nvars, nrows) in sizes {
        let mut r = workload::rng(29 + nvars as u64);
        let sys = workload::random_system(&mut r, nvars, nrows, 3);
        let keep: BTreeSet<usize> = [0usize].into_iter().collect();
        for tier in FmTier::ALL {
            let cfg = fm::FmConfig { max_rows: 2_000, ..fm::FmConfig::tiered(tier) };
            let mut stats = fm::FmStats::default();
            let _ = fm::project_onto_with(&sys, &keep, &cfg, &mut stats);
            // Low tiers can be seconds per iteration here; keep them cheap.
            let iters = if tier.index() < 2 { 1 } else { scale.iters() };
            out.push(
                bench_case(
                    "fm_redundancy",
                    &format!("project/{nvars}v{nrows}r/tier{}", tier.index()),
                    0,
                    iters,
                    || {
                        let mut s = fm::FmStats::default();
                        black_box(fm::project_onto_with(black_box(&sys), &keep, &cfg, &mut s))
                    },
                )
                .with_counters(fm_counters(&stats)),
            );
        }
    }

    // (b) Per-rule size-relation projections of the FM-heavy corpus entry,
    // at the inferred fixpoint, with the row cap lifted: this exposes the
    // full blowup the production cap would truncate. Tier 0 peaks ~20×
    // higher than tiers ≥ 1 — the committed ≥5× row-reduction criterion.
    let entry = argus_corpus::find("mutual_fib_ring").expect("corpus entry");
    let program = entry.program().expect("parse");
    let rels =
        argus_sizerel::infer_size_relations(&program, &argus_sizerel::InferOptions::default());
    let project_rules = |cfg: &fm::FmConfig, stats: &mut fm::FmStats| {
        for p in program.idb_predicates() {
            for rule in program.procedure(&p) {
                black_box(argus_sizerel::rule_poly_instrumented(
                    rule,
                    &rels,
                    argus_logic::Norm::default(),
                    cfg,
                    stats,
                ));
            }
        }
    };
    for tier in FmTier::ALL {
        let cfg = fm::FmConfig { max_rows: 2_000_000, ..fm::FmConfig::tiered(tier) };
        let mut stats = fm::FmStats::default();
        project_rules(&cfg, &mut stats);
        out.push(
            bench_case(
                "fm_redundancy",
                &format!("infer-rules/mutual_fib_ring/tier{}", tier.index()),
                1,
                scale.iters(),
                || {
                    let mut s = fm::FmStats::default();
                    project_rules(&cfg, &mut s);
                },
            )
            .with_counters(fm_counters(&stats)),
        );
    }

    // (c) End-to-end analysis of the ring at the feasible tiers, with the
    // per-run projection cache's totals. (Tiers 0–1 are omitted: on this
    // entry their pair projections run for minutes — the blowup the tiers
    // exist to prevent.)
    let (query, adornment) = entry.query_key();
    for tier in [FmTier::Chernikov, FmTier::Lp] {
        let options = AnalysisOptions { fm_tier: tier, ..AnalysisOptions::default() };
        let report = analyze(&program, &query, adornment.clone(), &options);
        let mut stats = fm::FmStats::default();
        for scc in &report.sccs {
            stats.merge(&scc.stats.fm);
        }
        let mut counters = fm_counters(&stats);
        counters.push(("cache_requests", report.run_stats.cache_requests));
        counters.push(("cache_hits", report.run_stats.cache_hits()));
        out.push(
            bench_case(
                "fm_redundancy",
                &format!("analyze/mutual_fib_ring/tier{}", tier.index()),
                1,
                scale.iters(),
                || black_box(analyze(black_box(&program), &query, adornment.clone(), &options)),
            )
            .with_counters(counters),
        );
    }
    out
}

/// E12 — the analysis server measured at the dispatch layer (no
/// sockets, so the numbers isolate request handling from kernel
/// buffering): each corpus entry is submitted **cold** (fresh caches
/// every iteration — the full analysis runs) and **warm** (the
/// content-addressed report cache primed — a repeat submission is one
/// FNV pass, a bucket probe, and a body clone). The warm/cold ratio is
/// the headline number for `argus serve`'s repeat-submission latency;
/// the socket path is measured separately by the `loadgen` binary.
pub fn serve_suite(scale: Scale) -> Vec<Sample> {
    use argus_serve::jsonval::json_str;
    use argus_serve::{Request, ServeOptions, ServerState};

    let entries: &[&str] = match scale {
        Scale::Smoke => &["append_bff", "perm"],
        Scale::Full => &["append_bff", "perm", "quicksort", "mutual_fib_ring"],
    };
    let request = |entry: &argus_corpus::CorpusEntry| Request {
        method: "POST".to_string(),
        path: "/v1/analyze".to_string(),
        headers: Vec::new(),
        body: format!(
            "{{\"program\":{},\"query\":{},\"adornment\":{}}}",
            json_str(entry.source),
            json_str(entry.query),
            json_str(entry.adornment)
        )
        .into_bytes(),
        keep_alive: true,
    };

    let mut out = Vec::new();
    for name in entries {
        let entry = argus_corpus::find(name).expect("corpus entry");
        let req = request(&entry);
        out.push(bench_case("serve", &format!("analyze/cold/{name}"), 0, scale.iters(), || {
            let state = ServerState::new(ServeOptions::default());
            let resp = state.handle(black_box(&req));
            assert_eq!(resp.status, 200);
            resp
        }));

        let state = ServerState::new(ServeOptions::default());
        assert_eq!(state.handle(&req).status, 200, "priming request");
        // Hits are microseconds; run plenty of iterations for signal.
        let warm_iters = scale.iters().max(200);
        let warm = bench_case("serve", &format!("analyze/warm/{name}"), 1, warm_iters, || {
            let resp = state.handle(black_box(&req));
            assert_eq!(resp.status, 200);
            resp
        })
        .with_counters(vec![
            ("report_cache_hits", state.reports().hits()),
            ("report_cache_misses", state.reports().misses()),
        ]);
        out.push(warm);
    }
    out
}

/// E13 — backwards condition inference: whole-program inference per corpus
/// entry (probe counters attached: a low `analyses`-to-candidates ratio is
/// the backwards-propagation pruning at work), then the serve condition
/// cache measured cold vs warm at the dispatch layer, and the priming
/// effect — an analyze submitted after an infer of the same program is a
/// pure report-cache hit.
pub fn infer_suite(scale: Scale) -> Vec<Sample> {
    use argus_core::{infer_conditions, BackwardsOptions};
    use argus_serve::jsonval::json_str;
    use argus_serve::{Request, ServeOptions, ServerState};

    let entries: &[&str] = match scale {
        Scale::Smoke => &["append_bff", "perm"],
        Scale::Full => &["append_bff", "perm", "reverse_acc", "quicksort"],
    };
    let mut out = Vec::new();
    let options = BackwardsOptions::default();
    for name in entries {
        let entry = argus_corpus::find(name).expect("corpus entry");
        let program = entry.program().expect("parse");
        let report = infer_conditions(&program, &options);
        let disjuncts: usize =
            report.conditions.iter().map(|c| c.condition.disjuncts().count()).sum();
        out.push(
            bench_case("infer", &format!("whole-program/{name}"), 1, scale.iters(), || {
                black_box(infer_conditions(black_box(&program), &options))
            })
            .with_counters(vec![
                ("predicates", report.conditions.len() as u64),
                ("analyses", report.analyses as u64),
                ("pruned", report.pruned as u64),
                ("disjuncts", disjuncts as u64),
            ]),
        );
    }

    let post = |path: &str, body: String| Request {
        method: "POST".to_string(),
        path: path.to_string(),
        headers: Vec::new(),
        body: body.into_bytes(),
        keep_alive: true,
    };
    for name in entries {
        let entry = argus_corpus::find(name).expect("corpus entry");
        let infer_req = post("/v1/infer", format!("{{\"program\":{}}}", json_str(entry.source)));
        out.push(bench_case("infer", &format!("serve-cold/{name}"), 0, scale.iters(), || {
            let state = ServerState::new(ServeOptions::default());
            let resp = state.handle(black_box(&infer_req));
            assert_eq!(resp.status, 200);
            resp
        }));

        let state = ServerState::new(ServeOptions::default());
        assert_eq!(state.handle(&infer_req).status, 200, "priming infer");
        let warm_iters = scale.iters().max(200);
        out.push(
            bench_case("infer", &format!("serve-warm/{name}"), 1, warm_iters, || {
                let resp = state.handle(black_box(&infer_req));
                assert_eq!(resp.status, 200);
                resp
            })
            .with_counters(vec![
                ("condition_cache_hits", state.conditions().hits()),
                ("condition_cache_misses", state.conditions().misses()),
            ]),
        );

        // The priming effect: the analyze below never runs an analysis —
        // the infer above already deposited its report bytes.
        let analyze_req = post(
            "/v1/analyze",
            format!(
                "{{\"program\":{},\"query\":{},\"adornment\":{}}}",
                json_str(entry.source),
                json_str(entry.query),
                json_str(entry.adornment)
            ),
        );
        out.push(
            bench_case("infer", &format!("primed-analyze/{name}"), 1, warm_iters, || {
                let resp = state.handle(black_box(&analyze_req));
                assert_eq!(resp.status, 200);
                resp
            })
            .with_counters(vec![
                ("report_cache_hits", state.reports().hits()),
                ("report_cache_misses", state.reports().misses()),
            ]),
        );
    }
    out
}

/// Runs behind each fixpoint and end-to-end sample of [`scale_suite`] up
/// to 10k clauses: the sample records their median.
const MEDIAN_RUNS: usize = 5;

/// Time `runs` calls of `f` one at a time: the median time in ns, and the
/// first run's result (so counters it returns are one run's, not a sum).
fn median_run<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut first = None;
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = std::time::Instant::now();
        let out = f();
        times.push(start.elapsed().as_nanos() as f64);
        first.get_or_insert(out);
    }
    times.sort_by(f64::total_cmp);
    (times[runs / 2], first.expect("at least one run"))
}

/// E14 — the million-clause substrate: generated chains of thousands of
/// SCCs at 10k–100k clauses, timed per stage (parse, adorn, size-relation
/// FM, end-to-end analyze). These are the cases the interner and the
/// sparse-row layout exist for; each sample carries deterministic
/// workload counters (rules, predicates, SCCs, FM rows) so `bench_gate`
/// floors can pin the substrate, not just wall time.
///
/// The fixpoint and end-to-end samples are timed without warmup, with
/// their counters read off one run: at 50k and 100k a single run
/// (seconds each), up to 10k the median of [`MEDIAN_RUNS`] runs, since
/// one run there spreads by ±25% on a 2-core host, more than a change to
/// one layer moves it. `ARGUS_SCALE_ONLY=50k,100k` restricts the size
/// list — used to split a long capture across processes.
pub fn scale_suite(scale: Scale) -> Vec<Sample> {
    let sizes: &[(&str, usize)] = match scale {
        Scale::Smoke => &[("2k", 2_000)],
        Scale::Full => &[("10k", 10_000), ("50k", 50_000), ("100k", 100_000)],
    };
    let only: Option<Vec<String>> = std::env::var("ARGUS_SCALE_ONLY")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
    let mut out = Vec::new();
    for &(label, clauses) in sizes {
        if let Some(only) = &only {
            if !only.iter().any(|o| o == label) {
                continue;
            }
        }
        let case = argus_fuzz::gen::scale_case(0xA11CE, clauses);
        let src = case.program.to_string();
        let program = argus_logic::parser::parse_program(&src).expect("scale case reparses");
        let graph = argus_logic::DepGraph::build(&program);
        let shape = vec![
            ("rules", program.rules.len() as u64),
            ("predicates", graph.predicates().len() as u64),
            ("sccs", graph.scc_count() as u64),
        ];
        // Parse and adorn are cheap and steady: a mean over two iterations
        // at 10k, one run at 50k and 100k.
        let iters = if clauses >= 50_000 { 1 } else { scale.iters().min(2) };
        // Runs per fixpoint and end-to-end sample (see the doc comment).
        let runs = if clauses <= 10_000 { MEDIAN_RUNS } else { 1 };

        out.push(
            bench_case("scale", &format!("parse/{label}"), 0, iters, || {
                black_box(argus_logic::parser::parse_program(black_box(&src)).expect("parse"))
            })
            .with_counters(shape.clone()),
        );
        out.push(
            bench_case("scale", &format!("adorn/{label}"), 0, iters, || {
                black_box(argus_logic::adorn::adorn_program(
                    black_box(&program),
                    &case.query,
                    case.adornment.clone(),
                ))
            })
            .with_counters(shape.clone()),
        );
        // The FM-dominated size-relation stage in isolation, at the small
        // size only: it re-runs the per-SCC fixpoint the end-to-end sample
        // already contains, so one size is enough to pin the stage. Its
        // FM counters come from one timed run (each run starts from fresh
        // counters), through the instrumented entry point at the default
        // configuration (what `infer_size_relations` runs).
        if clauses <= 10_000 {
            let (ns, fm_stats) = median_run(runs, || {
                let mut fm_stats = fm::FmStats::default();
                black_box(argus_sizerel::infer_size_relations_instrumented(
                    black_box(&program),
                    &argus_sizerel::InferOptions::default(),
                    &fm::FmConfig::default(),
                    &mut fm_stats,
                ));
                fm_stats
            });
            let mut counters = shape.clone();
            counters.push(("fm_rows_in", fm_stats.rows_in));
            counters.push(("fm_pairs_combined", fm_stats.pairs_combined));
            out.push(
                Sample {
                    suite: "scale".to_string(),
                    name: format!("sizerel-fm/{label}"),
                    iters: runs as u32,
                    ns_per_iter: ns,
                    counters: Vec::new(),
                }
                .with_counters(counters),
            );
        }
        let options = AnalysisOptions::default();
        let (analyze_ns, report) = median_run(runs, || {
            black_box(analyze(&program, &case.query, case.adornment.clone(), &options))
        });
        let mut fm_stats = fm::FmStats::default();
        for scc in &report.sccs {
            fm_stats.merge(&scc.stats.fm);
        }
        let mut counters = shape.clone();
        counters.push(("analyzed_sccs", report.sccs.len() as u64));
        counters.push(("fm_rows_in", fm_stats.rows_in));
        counters.push(("fm_pairs_combined", fm_stats.pairs_combined));
        out.push(
            Sample {
                suite: "scale".to_string(),
                name: format!("analyze/{label}"),
                iters: runs as u32,
                ns_per_iter: analyze_ns,
                counters: Vec::new(),
            }
            .with_counters(counters),
        );
    }
    out
}

/// E16 — incremental re-analysis: a per-SCC memo is primed on a
/// generated scale program, then a one-clause edit is re-analyzed
/// through the memo and timed against a from-scratch analysis of the
/// same edited program. The edit duplicates the middle clause: the
/// edited SCC's canonical rule content changes (forcing its recompute)
/// while its exported size summary does not — the early-cutoff shape
/// real edits overwhelmingly have, so the dirty cone stays a handful of
/// SCC computations out of thousands. Each warm sample carries the
/// dirty-cone counters (`dirty_sccs` / `total_sccs`) that `bench_gate`
/// pins; the committed 50k numbers back the ≥10× warm-vs-cold claim.
/// `ARGUS_SCALE_ONLY` restricts the size list exactly as in
/// [`scale_suite`].
pub fn incremental_suite(scale: Scale) -> Vec<Sample> {
    use argus_core::analyze_with_caches;
    use argus_core::SccCache;

    let sizes: &[(&str, usize)] = match scale {
        Scale::Smoke => &[("2k", 2_000)],
        Scale::Full => &[("10k", 10_000), ("50k", 50_000)],
    };
    let only: Option<Vec<String>> = std::env::var("ARGUS_SCALE_ONLY")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
    let mut out = Vec::new();
    for &(label, clauses) in sizes {
        if let Some(only) = &only {
            if !only.iter().any(|o| o == label) {
                continue;
            }
        }
        let case = argus_fuzz::gen::scale_case(0xA11CE, clauses);
        let base = &case.program;
        let mut rules = base.rules.clone();
        rules.push(rules[rules.len() / 2].clone());
        let edited = argus_logic::Program::from_rules(rules);
        let options = AnalysisOptions::default();
        let timed = |name: String, counters: Vec<(&'static str, u64)>, ns: f64| Sample {
            suite: "incremental".to_string(),
            name,
            iters: 1,
            ns_per_iter: ns,
            counters,
        };

        // Cold baseline: from-scratch analysis of the edited program.
        let start = std::time::Instant::now();
        let cold = black_box(analyze(&edited, &case.query, case.adornment.clone(), &options));
        out.push(timed(
            format!("cold/{label}"),
            vec![("rules", edited.rules.len() as u64), ("sccs", cold.sccs.len() as u64)],
            start.elapsed().as_nanos() as f64,
        ));

        // Prime the memo (untimed) with the pre-edit program.
        let memo = SccCache::unbounded();
        let _ = black_box(analyze_with_caches(
            base,
            &case.query,
            case.adornment.clone(),
            &options,
            None,
            Some(&memo),
        ));

        // Warm edit: only the duplicated clause's SCC cone recomputes.
        let start = std::time::Instant::now();
        let report = black_box(analyze_with_caches(
            &edited,
            &case.query,
            case.adornment.clone(),
            &options,
            None,
            Some(&memo),
        ));
        let ns = start.elapsed().as_nanos() as f64;
        let incr = report.incremental.expect("memoized run records incremental stats");
        let mut counters = vec![("dirty_sccs", incr.dirty()), ("total_sccs", incr.total())];
        counters.extend(incr.counters().into_iter().filter(|(name, _)| name.ends_with("_hits")));
        out.push(timed(format!("warm-edit/{label}"), counters, ns));

        // Warm no-op: the unchanged program resubmitted — a pure hit.
        let start = std::time::Instant::now();
        let report = black_box(analyze_with_caches(
            base,
            &case.query,
            case.adornment.clone(),
            &options,
            None,
            Some(&memo),
        ));
        let ns = start.elapsed().as_nanos() as f64;
        let incr = report.incremental.expect("memoized run records incremental stats");
        out.push(timed(
            format!("warm-noop/{label}"),
            vec![("dirty_sccs", incr.dirty()), ("total_sccs", incr.total())],
            ns,
        ));
    }
    out
}

/// E15 — the engine portfolio: every engine timed alone on the corpus
/// separator entries (θ-only, SCT-only, and both-prove programs) and on
/// the fixpoint-heavy `mutual_fib_ring`, then the full five-engine race
/// sequentially and with the worker pool. Each single-engine sample
/// carries that engine's deterministic work counters (θ's FM rows, SCT's
/// graph/closure/idempotent counts), so the report records *why* an
/// engine wins an entry, not just how fast; the race samples carry the
/// winner index so attribution drift is visible in the committed report.
pub fn portfolio_suite(scale: Scale) -> Vec<Sample> {
    use argus_baselines::{engine_by_id, standard_engines, ENGINE_IDS};
    use argus_core::run_portfolio;

    let entries: &[&str] = match scale {
        Scale::Smoke => &["append_bff", "sct_lex_reset"],
        Scale::Full => &[
            "append_bff",
            "quicksort",
            "sct_lex_reset",
            "ackermann",
            "theta_crossed_descent",
            "mutual_fib_ring",
        ],
    };
    let options = AnalysisOptions { parallelism: 1, ..AnalysisOptions::default() };
    let mut out = Vec::new();
    for name in entries {
        let entry = argus_corpus::find(name).expect("corpus entry");
        let program = entry.program().expect("parse");
        let (query, adornment) = entry.query_key();
        for id in ENGINE_IDS {
            let engines = vec![engine_by_id(id).expect("known engine id")];
            let report =
                run_portfolio(&engines, &program, &query, &adornment, &options, 1, false, None);
            out.push(
                bench_case("portfolio", &format!("engine/{name}/{id}"), 1, scale.iters(), || {
                    black_box(run_portfolio(
                        black_box(&engines),
                        &program,
                        &query,
                        &adornment,
                        &options,
                        1,
                        false,
                        None,
                    ))
                })
                .with_counters(report.entries[0].run.stats.clone()),
            );
        }
        let engines = standard_engines();
        for (label, jobs) in [("jobs-1", 1usize), ("jobs-auto", 0)] {
            let race_options = AnalysisOptions { parallelism: jobs, ..AnalysisOptions::default() };
            let report = run_portfolio(
                &engines,
                &program,
                &query,
                &adornment,
                &race_options,
                jobs,
                true,
                None,
            );
            let winner = report.winner.map(|w| w as u64).unwrap_or(u64::MAX);
            out.push(
                bench_case("portfolio", &format!("race/{name}/{label}"), 1, scale.iters(), || {
                    black_box(run_portfolio(
                        black_box(&engines),
                        &program,
                        &query,
                        &adornment,
                        &race_options,
                        jobs,
                        true,
                        None,
                    ))
                })
                .with_counters(vec![("engines", engines.len() as u64), ("winner_index", winner)]),
            );
        }
    }
    out
}

/// E17 — LSP edit-session replay: a scripted client drives the
/// in-process `argus-lsp` server through a realistic editing session on
/// a generated scale program and measures end-to-end
/// `didChange` → `publishDiagnostics` latency — framing, JSON-RPC
/// dispatch, the full lint battery, and the memoized termination
/// analysis, exactly what an editor user waits on. One cold open primes
/// the per-SCC memo, then a burst of one-clause warm edits (each
/// appending a duplicate of a distinct mid-program rule) and a no-op
/// edit replay the `incremental` suite's shapes through the protocol.
/// Warm samples carry client-observed p50/p99 latencies and the
/// worst-case dirty-cone counters (`dirty_sccs` / `total_sccs`) that
/// `bench_gate` pins.
pub fn lsp_suite(scale: Scale) -> Vec<Sample> {
    use argus_lsp::{spawn_in_process, LspOptions};
    use argus_serve::jsonval::Json;

    let (label, clauses, edits) = match scale {
        Scale::Smoke => ("2k", 2_000usize, 4usize),
        Scale::Full => ("10k", 10_000, 16),
    };
    let case = argus_fuzz::gen::scale_case(0xA11CE, clauses);
    let mut text = case.program.to_string();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&format!("% argus query: {} {}\n", case.query, case.adornment));
    let uri = "file:///bench/session.pl";
    let stat = |params: &Json, key: &str| params.get(key).and_then(Json::as_u64).unwrap_or(0);

    let (mut client, handle) = spawn_in_process(LspOptions::default());
    client.initialize(None);

    // Cold open: the whole document analyzed against an empty memo.
    let start = std::time::Instant::now();
    client.did_open(uri, 1, &text);
    let publish = client.wait_publish(uri, 1);
    let stats = client.wait_stats(uri, 1);
    let cold_ns = start.elapsed().as_nanos() as f64;
    let diags = publish.get("diagnostics").and_then(Json::as_array).map_or(0, <[Json]>::len);
    let mut out = vec![Sample {
        suite: "lsp".to_string(),
        name: format!("cold-open/{label}"),
        iters: 1,
        ns_per_iter: cold_ns,
        counters: vec![
            ("rules", case.program.rules.len() as u64),
            ("diagnostics", diags as u64),
            ("total_sccs", stat(&stats, "total")),
        ],
    }];

    // Warm edits: append duplicates of distinct mid-program rules at the
    // end of the document — the early-cutoff shape real edits have.
    let first_line = text.lines().count();
    let mut version = 1i64;
    let mut latencies = Vec::new();
    let (mut worst_dirty, mut worst_total) = (0u64, stat(&stats, "total").max(1));
    for k in 0..edits {
        let line = first_line + k;
        let rule = case.program.rules[case.program.rules.len() / 2 + k].to_string();
        version += 1;
        let start = std::time::Instant::now();
        client.did_change_range(uri, version, ((line, 0), (line, 0)), &format!("{rule}\n"));
        client.wait_publish(uri, version);
        let stats = client.wait_stats(uri, version);
        latencies.push(start.elapsed().as_nanos() as f64);
        let (dirty, total) = (stat(&stats, "dirty"), stat(&stats, "total"));
        if dirty * worst_total >= worst_dirty * total.max(1) {
            (worst_dirty, worst_total) = (dirty, total.max(1));
        }
    }
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let pct = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    out.push(Sample {
        suite: "lsp".to_string(),
        name: format!("warm-edit/{label}"),
        iters: edits as u32,
        ns_per_iter: mean,
        counters: vec![
            ("dirty_sccs", worst_dirty),
            ("total_sccs", worst_total),
            ("p50_us", (pct(0.50) / 1_000.0) as u64),
            ("p99_us", (pct(0.99) / 1_000.0) as u64),
        ],
    });

    // Warm no-op: replace the first character with itself — the text is
    // unchanged, so the memo must satisfy every SCC computation.
    let first = text.chars().next().expect("nonempty program").to_string();
    version += 1;
    let start = std::time::Instant::now();
    client.did_change_range(uri, version, ((0, 0), (0, 1)), &first);
    client.wait_publish(uri, version);
    let stats = client.wait_stats(uri, version);
    out.push(Sample {
        suite: "lsp".to_string(),
        name: format!("warm-noop/{label}"),
        iters: 1,
        ns_per_iter: start.elapsed().as_nanos() as f64,
        counters: vec![
            ("dirty_sccs", stat(&stats, "dirty")),
            ("total_sccs", stat(&stats, "total")),
        ],
    });

    client.shutdown_exit();
    drop(client);
    assert_eq!(handle.join().expect("server thread"), 0, "orderly LSP shutdown");
    out
}

/// A suite entry point: workloads at a given scale, as samples.
pub type SuiteFn = fn(Scale) -> Vec<Sample>;

/// Every suite, by name, in report order. `bench_report` iterates this so
/// the committed `BENCH_argus.json` always covers the full set.
pub fn all_suites() -> Vec<(&'static str, SuiteFn)> {
    vec![
        ("simplex", simplex_suite),
        ("fm", fm_suite),
        ("fm_redundancy", fm_redundancy_suite),
        ("analysis", analysis_suite),
        ("ablation", ablation_suite),
        ("parallel", parallel_suite),
        ("serve", serve_suite),
        ("infer", infer_suite),
        ("portfolio", portfolio_suite),
        ("scale", scale_suite),
        ("incremental", incremental_suite),
        ("lsp", lsp_suite),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suites_produce_samples() {
        assert!(!simplex_suite(Scale::Smoke).is_empty());
        assert!(!fm_suite(Scale::Smoke).is_empty());
        // The analysis/ablation suites are exercised end-to-end by
        // `bench_report --smoke` in CI; here just check the cheap ones.
    }
}

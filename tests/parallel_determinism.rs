//! The parallel analysis pipeline must be invisible in the output: for any
//! worker count, the report — human-readable text AND machine JSON — must
//! be byte-identical to the fully sequential run. SCC results are computed
//! level-concurrently but emitted in the sequential bottom-up order, and
//! per-pair projections truncate at the first failure exactly like the
//! sequential early-break, so nothing downstream can tell the difference.

use argus::prelude::*;

fn render(report: &TerminationReport) -> (String, String) {
    (report.to_string(), report.to_json())
}

/// The worker counts every test here compares against the sequential
/// `--jobs 1` run: auto (which fans out only where the estimated work
/// pays, so mostly inline), and explicit fan-outs of 2 and 8.
const JOBS: [usize; 3] = [0, 2, 8];

fn analyze_with_jobs(
    entry: &argus::corpus::CorpusEntry,
    options: &AnalysisOptions,
) -> (String, String) {
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    render(&analyze(&program, &query, adornment, options))
}

/// Every corpus entry, default options: `--jobs 0/2/8` == `--jobs 1`, byte
/// for byte, on both the Display text and the JSON report.
#[test]
fn corpus_reports_identical_across_worker_counts() {
    for entry in argus::corpus::corpus() {
        let seq =
            analyze_with_jobs(&entry, &AnalysisOptions { parallelism: 1, ..Default::default() });
        for jobs in JOBS {
            let par = analyze_with_jobs(
                &entry,
                &AnalysisOptions { parallelism: jobs, ..Default::default() },
            );
            assert_eq!(seq.0, par.0, "{}: text differs at --jobs {jobs}", entry.name);
            assert_eq!(seq.1, par.1, "{}: JSON differs at --jobs {jobs}", entry.name);
        }
    }
}

/// The non-default analysis paths (Appendix C δ variables, lexicographic
/// fallback, list-length norm) go through the same fan-out points and must
/// be deterministic too.
#[test]
fn variant_options_identical_across_worker_counts() {
    let variants = [
        AnalysisOptions { delta_mode: DeltaMode::PathConstraints, ..Default::default() },
        AnalysisOptions { lexicographic: true, ..Default::default() },
        AnalysisOptions { norm: argus::logic::Norm::ListLength, ..Default::default() },
    ];
    for entry in argus::corpus::corpus() {
        for variant in &variants {
            let seq =
                analyze_with_jobs(&entry, &AnalysisOptions { parallelism: 1, ..variant.clone() });
            for jobs in JOBS {
                let par = analyze_with_jobs(
                    &entry,
                    &AnalysisOptions { parallelism: jobs, ..variant.clone() },
                );
                assert_eq!(
                    seq, par,
                    "{}: variant {variant:?} differs at --jobs {jobs}",
                    entry.name
                );
            }
        }
    }
}

/// The FM redundancy tiers are performance knobs, not semantic ones: every
/// corpus entry must render the identical report at every tier, at any
/// worker count (so whichever worker publishes a projection first cannot
/// show either).
///
/// `mutual_fib_ring` exists precisely because tiers 0–1 cannot finish its
/// pair projections in useful time (minutes-plus where tier 2 takes
/// milliseconds), so for that entry only the feasible tiers are swept; the
/// fuzz-reproducer replay covers tiers 0–1 identity on small programs.
#[test]
fn corpus_reports_identical_across_fm_tiers_and_cache() {
    for entry in argus::corpus::corpus() {
        let base = analyze_with_jobs(&entry, &AnalysisOptions::default());
        for tier in FmTier::ALL {
            if entry.name == "mutual_fib_ring" && tier.index() < FmTier::default().index() {
                continue;
            }
            for jobs in [1, 4] {
                let options =
                    AnalysisOptions { fm_tier: tier, parallelism: jobs, ..Default::default() };
                let got = analyze_with_jobs(&entry, &options);
                assert_eq!(
                    base, got,
                    "{}: report differs at fm tier {tier:?}, --jobs {jobs}",
                    entry.name
                );
            }
        }
    }
}

/// The `--stats` counters are deterministic by design (cache hits replay the
/// stored counters), so even the stats-bearing JSON must be byte-identical
/// across worker counts.
#[test]
fn stats_json_identical_across_worker_counts() {
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let seq = analyze(
            &program,
            &query,
            adornment.clone(),
            &AnalysisOptions { parallelism: 1, ..Default::default() },
        )
        .to_json_with(true);
        for jobs in JOBS {
            let par = analyze(
                &program,
                &query,
                adornment.clone(),
                &AnalysisOptions { parallelism: jobs, ..Default::default() },
            )
            .to_json_with(true);
            assert_eq!(seq, par, "{}: stats JSON differs at --jobs {jobs}", entry.name);
        }
    }
}

/// Certificates produced under parallel analysis verify exactly like the
/// sequential ones (the witness/refutation objects are identical).
#[test]
fn certificates_survive_parallel_analysis() {
    for entry in argus::corpus::corpus() {
        let options = AnalysisOptions { parallelism: 4, ..Default::default() };
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let report = analyze(&program, &query, adornment, &options);
        if report.verdict == Verdict::Terminates {
            argus::core::verify_report(&report, options.norm).unwrap_or_else(|e| {
                panic!("{}: certificate rejected under --jobs 4: {e}", entry.name)
            });
        }
        for scc in &report.sccs {
            if let Some(ok) = scc.verify_refutation() {
                assert!(ok, "{}: Farkas refutation failed to verify under --jobs 4", entry.name);
            }
        }
    }
}

/// Concurrent publishes into one projection cache (what the `--jobs` pool
/// and `infer`'s parallel probes do) must be invisible: hammer one cache
/// from many threads analyzing overlapping programs concurrently, and every
/// report must stay byte-identical to the isolated sequential run.
///
/// This also checks publish-race accounting: each distinct key is
/// computed-and-inserted exactly once no matter how many threads race on
/// it, so `computed == entries` — a lost update (insert overwritten or
/// dropped) would break the equality.
#[test]
fn shared_projection_cache_hammer() {
    use argus::core::{analyze_with_caches, ProjectionCache};
    let entries: Vec<_> = argus::corpus::corpus()
        .into_iter()
        .filter(|e| e.name != "mutual_fib_ring") // heavy; the others cover the races
        .collect();
    let baselines: Vec<(String, String)> = entries
        .iter()
        .map(|e| {
            (
                e.name.to_string(),
                analyze_with_jobs(e, &AnalysisOptions { parallelism: 1, ..Default::default() }).1,
            )
        })
        .collect();

    let shared = ProjectionCache::new();
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let entries = &entries;
            let baselines = &baselines;
            let shared = &shared;
            scope.spawn(move || {
                for round in 0..3 {
                    for i in 0..entries.len() {
                        let idx = (i + worker + round) % entries.len();
                        let entry = &entries[idx];
                        let program = entry.program().unwrap();
                        let (query, adornment) = entry.query_key();
                        let report = analyze_with_caches(
                            &program,
                            &query,
                            adornment,
                            &AnalysisOptions { parallelism: 1, ..Default::default() },
                            Some(shared),
                            None,
                        );
                        assert_eq!(
                            report.to_json(),
                            baselines[idx].1,
                            "{}: shared-cache report diverges (worker {worker}, round {round})",
                            baselines[idx].0
                        );
                    }
                }
            });
        }
    });
    assert_eq!(
        shared.computed(),
        shared.entries(),
        "shared cache lost an update: computed != resident entries"
    );
    assert!(shared.hits() > 0, "hammer never hit the shared cache");
}

/// Backwards condition inference schedules whole-SCC analysis jobs across
/// workers; like the forward pipeline, the worker count must be invisible
/// in the inference JSON, byte for byte.
///
/// `mutual_fib_ring` is excluded for runtime (its full adornment lattice
/// is minutes of work in debug builds); `tests/infer.rs` covers it
/// sequentially and the cheap entries exercise the same fan-out points.
#[test]
fn inference_json_identical_across_worker_counts() {
    for entry in argus::corpus::corpus() {
        if entry.name == "mutual_fib_ring" {
            continue;
        }
        let program = entry.program().unwrap();
        let seq = infer_conditions(
            &program,
            &BackwardsOptions {
                analysis: AnalysisOptions { parallelism: 1, ..Default::default() },
                ..Default::default()
            },
        )
        .to_json();
        for jobs in JOBS {
            let par = infer_conditions(
                &program,
                &BackwardsOptions {
                    analysis: AnalysisOptions { parallelism: jobs, ..Default::default() },
                    ..Default::default()
                },
            )
            .to_json();
            assert_eq!(seq, par, "{}: inference JSON differs at --jobs {jobs}", entry.name);
        }
    }
}

/// The racing portfolio's first-proof-wins cancellation is a pure
/// efficiency knob: the rendered report — Display text, JSON, and the
/// per-engine stats — must be byte-identical at every `--jobs` setting,
/// including the fully sequential run, on every corpus entry.
#[test]
fn portfolio_reports_identical_across_worker_counts() {
    use argus::baselines::standard_engines;
    use argus::core::run_portfolio;
    let engines = standard_engines();
    let options = AnalysisOptions::default();
    for entry in argus::corpus::corpus() {
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let render = |jobs: usize| {
            let r =
                run_portfolio(&engines, &program, &query, &adornment, &options, jobs, true, None);
            (r.to_string(), r.to_json(true), r.render_stats())
        };
        let seq = render(1);
        for jobs in [0, 2, 8] {
            let par = render(jobs);
            assert_eq!(seq, par, "{}: portfolio output differs at --jobs {jobs}", entry.name);
        }
    }
}

/// The portfolio's size-change engine reads its size relations through the
/// run's SCC memo: after a θ run has filled the memo, it answers every
/// size-relation SCC from it.
#[test]
fn portfolio_sct_reads_size_relations_through_the_memo() {
    use argus::baselines::engine_by_id;
    use argus::core::{analyze_with_caches, run_portfolio, SccCache};
    let entry = argus::corpus::find("perm").unwrap();
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    let options = AnalysisOptions::default();
    let memo = SccCache::unbounded();
    analyze_with_caches(&program, &query, adornment.clone(), &options, None, Some(&memo));
    let (hits, misses) = (memo.hits(), memo.misses());
    let engines = vec![engine_by_id("sct").unwrap()];
    let warm =
        run_portfolio(&engines, &program, &query, &adornment, &options, 1, false, Some(&memo));
    assert!(memo.hits() > hits, "sct probed no size relation");
    assert_eq!(memo.misses(), misses, "sct recomputed a size relation");
    let cold = run_portfolio(&engines, &program, &query, &adornment, &options, 1, false, None);
    assert_eq!(warm.to_json(true), cold.to_json(true));
}

/// θ and size-change share one prepared raw program per portfolio run.
/// Both read it through the memo (the test above), so a second preparation
/// would show as extra memo probes: on a fresh memo the whole portfolio
/// probes it exactly as often as θ alone — unraced at `--jobs 1`, and
/// raced on 2 workers where θ and size-change start together.
#[test]
fn portfolio_prepares_the_raw_program_once() {
    use argus::baselines::standard_engines;
    use argus::core::{analyze_with_caches, run_portfolio, EngineVerdict, SccCache};
    let entry = argus::corpus::find("mutual_fib_ring").unwrap();
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    let options = AnalysisOptions::default();
    let probes = |memo: &SccCache| (memo.hits(), memo.misses());
    let theta = SccCache::unbounded();
    analyze_with_caches(&program, &query, adornment.clone(), &options, None, Some(&theta));
    let engines = standard_engines();
    for (jobs, race) in [(1, false), (2, true)] {
        let memo = SccCache::unbounded();
        let report = run_portfolio(
            &engines,
            &program,
            &query,
            &adornment,
            &options,
            jobs,
            race,
            Some(&memo),
        );
        if !race {
            assert_ne!(report.entries[1].run.verdict, EngineVerdict::Cancelled);
        }
        assert_eq!(probes(&memo), probes(&theta), "--jobs {jobs}, race {race}");
    }
}

/// The serve condition table must be consistent under concurrency: eight
/// threads hammering `/v1/infer` and `/v1/analyze` on one shared
/// `ServerState` must every time receive bodies byte-identical to an
/// isolated single-request server, whether served fresh or from cache.
#[test]
fn serve_condition_table_consistent_under_hammer() {
    use argus::serve::{jsonval::json_str, Request, ServeOptions, ServerState};

    fn post(path: &str, body: String) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.into_bytes(),
            keep_alive: true,
        }
    }
    fn infer_body(src: &str) -> String {
        format!("{{\"program\":{}}}", json_str(src))
    }
    fn analyze_body(entry: &argus::corpus::CorpusEntry) -> String {
        format!(
            "{{\"program\":{},\"query\":{},\"adornment\":{}}}",
            json_str(entry.source),
            json_str(entry.query),
            json_str(entry.adornment),
        )
    }

    let entries: Vec<_> = argus::corpus::corpus()
        .into_iter()
        .filter(|e| e.name != "mutual_fib_ring") // heavy; same routes either way
        .collect();

    // Generous deadline: debug builds under 8-way contention must never
    // trip the 504 path, which would turn a slow machine into a failure.
    let options = || ServeOptions { deadline_ms: 300_000, ..ServeOptions::default() };

    // Baselines from a fresh state per request pair: no cross-request
    // cache effects can leak into the expected bytes.
    let baselines: Vec<(Vec<u8>, Vec<u8>)> = entries
        .iter()
        .map(|entry| {
            let isolated = ServerState::new(options());
            let inf = isolated.handle(&post("/v1/infer", infer_body(entry.source)));
            assert_eq!(inf.status, 200, "{}: isolated infer failed", entry.name);
            let ana = isolated.handle(&post("/v1/analyze", analyze_body(entry)));
            assert_eq!(ana.status, 200, "{}: isolated analyze failed", entry.name);
            (inf.body, ana.body)
        })
        .collect();

    let shared = ServerState::new(options());
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let entries = &entries;
            let baselines = &baselines;
            let shared = &shared;
            scope.spawn(move || {
                for round in 0..3 {
                    for i in 0..entries.len() {
                        let idx = (i + worker + round) % entries.len();
                        let entry = &entries[idx];
                        // Half the workers lead with infer (priming the
                        // analyze cache), half with analyze: both orders
                        // must converge on the same bytes.
                        let reqs = if worker % 2 == 0 {
                            [("/v1/infer", 0), ("/v1/analyze", 1)]
                        } else {
                            [("/v1/analyze", 1), ("/v1/infer", 0)]
                        };
                        for (path, which) in reqs {
                            let body = if which == 0 {
                                infer_body(entry.source)
                            } else {
                                analyze_body(entry)
                            };
                            let resp = shared.handle(&post(path, body));
                            assert_eq!(
                                resp.status, 200,
                                "{}: {path} failed under hammer (worker {worker}, round {round})",
                                entry.name
                            );
                            let expected =
                                if which == 0 { &baselines[idx].0 } else { &baselines[idx].1 };
                            assert_eq!(
                                &resp.body, expected,
                                "{}: {path} bytes diverge under hammer (worker {worker}, round {round})",
                                entry.name
                            );
                        }
                    }
                }
            });
        }
    });
    assert!(shared.conditions().hits() > 0, "hammer never hit the shared condition cache");
}

/// The incremental per-SCC memo must be invisible in the output through
/// an edit session: prime a memo on a program, then replay every
/// single-clause deletion (plus the no-op edit) and check that the
/// memoized report is byte-identical to a from-scratch run of the edited
/// program — text and JSON, at `--jobs 0` and `--jobs 8`. This is the
/// incremental layer's core soundness property: a stale or over-shared
/// cache entry would surface here as a divergence.
#[test]
fn incremental_reports_identical_under_clause_edits() {
    use argus::core::{analyze_with_caches, SccCache};
    for entry in argus::corpus::corpus() {
        if entry.name == "mutual_fib_ring" {
            continue; // FM-heavy; the cheap entries cover the same memo paths
        }
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let memo = SccCache::unbounded();
        let options = |jobs: usize| AnalysisOptions { parallelism: jobs, ..Default::default() };

        // Prime on the original program; the primed run itself must match.
        let cold0 = render(&analyze(&program, &query, adornment.clone(), &options(1)));
        let warm0 = render(&analyze_with_caches(
            &program,
            &query,
            adornment.clone(),
            &options(1),
            None,
            Some(&memo),
        ));
        assert_eq!(cold0, warm0, "{}: primed report differs from cold", entry.name);

        // The no-op edit, then every single-clause deletion, against the
        // memo that still holds the pre-edit entries.
        let mut edits: Vec<Program> = vec![program.clone()];
        for i in 0..program.rules.len() {
            let mut edited = program.clone();
            edited.rules.remove(i);
            edits.push(edited);
        }
        for (edit, edited) in edits.iter().enumerate() {
            for jobs in [0usize, 8] {
                let cold = render(&analyze(edited, &query, adornment.clone(), &options(jobs)));
                let warm = render(&analyze_with_caches(
                    edited,
                    &query,
                    adornment.clone(),
                    &options(jobs),
                    None,
                    Some(&memo),
                ));
                assert_eq!(
                    cold, warm,
                    "{}: edit {edit} memoized report differs at --jobs {jobs}",
                    entry.name
                );
            }
        }
    }
}

/// Backwards inference under a shared per-SCC memo — including a memo
/// already primed by forward analysis — must render byte-identical
/// inference JSON to the memo-free run, at several worker counts.
#[test]
fn inference_json_identical_with_scc_memo() {
    use argus::core::{analyze_with_caches, SccCache};
    use std::sync::Arc;
    for entry in argus::corpus::corpus() {
        if entry.name == "mutual_fib_ring" {
            continue; // runtime; see inference_json_identical_across_worker_counts
        }
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let cold = infer_conditions(&program, &BackwardsOptions::default()).to_json();
        let memo = Arc::new(SccCache::unbounded());
        // Prime from the forward side first: inference probes must then
        // hit entries written by plain `analyze`, bytes unchanged.
        analyze_with_caches(
            &program,
            &query,
            adornment,
            &AnalysisOptions::default(),
            None,
            Some(&memo),
        );
        for jobs in [1usize, 4] {
            let warm = infer_conditions(
                &program,
                &BackwardsOptions {
                    analysis: AnalysisOptions { parallelism: jobs, ..Default::default() },
                    scc_memo: Some(Arc::clone(&memo)),
                    ..Default::default()
                },
            )
            .to_json();
            assert_eq!(
                cold, warm,
                "{}: inference JSON differs under scc memo at --jobs {jobs}",
                entry.name
            );
        }
    }
}

/// The example program shipped in `examples/` analyzes identically at any
/// worker count, under both text and JSON rendering.
#[test]
fn example_file_identical_across_worker_counts() {
    let src =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/lint_demo.pl"))
            .expect("examples/lint_demo.pl");
    let program = argus::logic::parser::parse_program(&src).unwrap();
    // Analyze every IDB predicate with an all-bound adornment: exercises
    // multi-SCC level scheduling on a real file.
    for pred in program.idb_predicates() {
        let adornment = Adornment::parse(&"b".repeat(pred.arity)).unwrap();
        let seq = render(&analyze(
            &program,
            &pred,
            adornment.clone(),
            &AnalysisOptions { parallelism: 1, ..Default::default() },
        ));
        let par = render(&analyze(
            &program,
            &pred,
            adornment,
            &AnalysisOptions { parallelism: 4, ..Default::default() },
        ));
        assert_eq!(seq, par, "{pred}: report differs at --jobs 4");
    }
}

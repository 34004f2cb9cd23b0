//! Robustness of the persistent per-SCC cache (`argus analyze
//! --incremental`): a damaged, truncated, stale, or concurrently-written
//! on-disk cache must NEVER change the analysis output or crash the
//! process — every corruption degrades to a silent miss and the report
//! stays byte-identical to a cold run.

use argus::core::{analyze_with_caches, SccCache};
use argus::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn render(report: &TerminationReport) -> (String, String) {
    (report.to_string(), report.to_json())
}

/// A unique scratch directory under the system temp dir (no tempfile
/// crate: the workspace is dependency-free).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("argus-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The cheap half of the corpus: plenty of SCC shapes without the
/// FM-stress entries that dominate debug-build runtime.
fn light_entries() -> Vec<argus::corpus::CorpusEntry> {
    let keep =
        ["append_bff", "perm", "even_odd", "quicksort", "reverse_acc", "expr_parser", "zip_pairs"];
    argus::corpus::corpus().into_iter().filter(|e| keep.contains(&e.name)).collect()
}

fn analyze_cold(entry: &argus::corpus::CorpusEntry) -> (String, String) {
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    render(&analyze(&program, &query, adornment, &AnalysisOptions::default()))
}

fn analyze_memo(entry: &argus::corpus::CorpusEntry, memo: &SccCache) -> (String, String) {
    let program = entry.program().unwrap();
    let (query, adornment) = entry.query_key();
    render(&analyze_with_caches(
        &program,
        &query,
        adornment,
        &AnalysisOptions::default(),
        None,
        Some(memo),
    ))
}

/// Warm in-memory memo: the second run must be byte-identical to the cold
/// run AND fully warm — zero sizerel misses, zero θ misses.
#[test]
fn warm_memo_is_byte_identical_and_fully_warm() {
    for entry in argus::corpus::corpus() {
        let cold = analyze_cold(&entry);
        let memo = SccCache::unbounded();
        let first = analyze_memo(&entry, &memo);
        assert_eq!(cold, first, "{}: first memoized run differs from cold", entry.name);
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let second = analyze_with_caches(
            &program,
            &query,
            adornment,
            &AnalysisOptions::default(),
            None,
            Some(&memo),
        );
        assert_eq!(cold, render(&second), "{}: warm run differs from cold", entry.name);
        let incr = second.incremental.expect("memoized run records incremental stats");
        assert_eq!(incr.size_misses, 0, "{}: warm run missed in sizerel memo", entry.name);
        assert_eq!(incr.theta_misses, 0, "{}: warm run missed in theta memo", entry.name);
    }
}

/// A memo primed sequentially must serve parallel runs the identical
/// bytes (the key must not depend on worker count), and vice versa.
#[test]
fn memo_is_worker_count_transparent() {
    for entry in light_entries() {
        let cold = analyze_cold(&entry);
        let memo = SccCache::unbounded();
        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        for jobs in [1usize, 0, 8] {
            let options = AnalysisOptions { parallelism: jobs, ..Default::default() };
            let got = render(&analyze_with_caches(
                &program,
                &query,
                adornment.clone(),
                &options,
                None,
                Some(&memo),
            ));
            assert_eq!(cold, got, "{}: memoized report differs at --jobs {jobs}", entry.name);
        }
    }
}

/// One lint run performs one raw analysis: its diagnostics match an
/// unmemoized lint cold and warm, and on every query the raw analysis
/// proves, the warm run's memo counters total exactly one memoized
/// analysis — L009/L010 and L011 share the report instead of repeating it.
#[test]
fn lint_runs_one_raw_analysis() {
    use argus::diag::{lint_source, lint_source_memo, LintOptions};
    let mut proved = 0;
    for entry in argus::corpus::corpus() {
        let options = LintOptions { query: Some(entry.query_key()) };
        let plain = lint_source(entry.source, &options);
        let memo = Arc::new(SccCache::unbounded());
        let cold = lint_source_memo(entry.source, &options, Some(memo.clone()), 0);
        let warm = lint_source_memo(entry.source, &options, Some(memo.clone()), 0);
        assert_eq!(plain, cold.diagnostics, "{}: cold memoized lint differs", entry.name);
        assert_eq!(plain, warm.diagnostics, "{}: warm memoized lint differs", entry.name);

        let program = entry.program().unwrap();
        let (query, adornment) = entry.query_key();
        let raw_options = AnalysisOptions { transform_phases: 0, ..Default::default() };
        let raw = analyze_with_caches(&program, &query, adornment, &raw_options, None, Some(&memo));
        if raw.verdict != Verdict::Terminates {
            continue;
        }
        proved += 1;
        let one = raw.incremental.expect("memoized run records incremental stats").total();
        let lint = warm.incremental.expect("memoized lint records incremental stats").total();
        assert_eq!(
            lint, one,
            "{}: lint ran {lint} SCC computations, one analysis is {one}",
            entry.name
        );
    }
    assert!(proved > 0, "some corpus query is proved by the raw analysis");
}

fn cache_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "argusscc"))
        .collect();
    files.sort();
    files
}

/// Prime a disk cache from scratch so every corruption round starts from
/// a fully valid file set.
fn prime(dir: &Path, entries: &[argus::corpus::CorpusEntry], cold: &[(String, String)]) {
    let cache = SccCache::with_disk(usize::MAX, dir.to_path_buf());
    for (entry, cold) in entries.iter().zip(cold) {
        assert_eq!(&analyze_memo(entry, &cache), cold, "{}: priming run differs", entry.name);
    }
    assert!(!cache_files(dir).is_empty(), "priming wrote no cache files");
}

/// After corrupting the files, a FRESH cache instance (empty memory, so
/// every probe goes to disk) must still produce cold-identical reports.
fn assert_cold_identical(
    dir: &Path,
    entries: &[argus::corpus::CorpusEntry],
    cold: &[(String, String)],
    what: &str,
) {
    let cache = SccCache::with_disk(usize::MAX, dir.to_path_buf());
    for (entry, cold) in entries.iter().zip(cold) {
        assert_eq!(
            &analyze_memo(entry, &cache),
            cold,
            "{}: report differs after {what}",
            entry.name
        );
    }
}

/// Every way a cache file can rot — truncation at any structural
/// boundary, bit flips in header and payload, a wrong schema version,
/// emptiness, garbage — must degrade to a silent miss.
#[test]
fn corrupted_disk_cache_falls_back_to_cold() {
    let dir = scratch_dir("corrupt");
    let entries = light_entries();
    let cold: Vec<_> = entries.iter().map(analyze_cold).collect();

    // Truncations: at offsets spanning magic, header, and payload.
    prime(&dir, &entries, &cold);
    for path in cache_files(&dir) {
        let bytes = std::fs::read(&path).unwrap();
        let cut = [0, 4, 8, 12, 20, 27, bytes.len() / 2, bytes.len().saturating_sub(1)];
        let keep = cut[(bytes.len() / 7) % cut.len()].min(bytes.len());
        std::fs::write(&path, &bytes[..keep]).unwrap();
    }
    assert_cold_identical(&dir, &entries, &cold, "truncation");

    // Bit flips: one flipped bit somewhere in every file (position varies
    // per file: header on short offsets, payload on long ones).
    prime(&dir, &entries, &cold);
    for (i, path) in cache_files(&dir).iter().enumerate() {
        let mut bytes = std::fs::read(path).unwrap();
        let pos = (i * 13) % bytes.len();
        bytes[pos] ^= 1 << (i % 8);
        std::fs::write(path, &bytes).unwrap();
    }
    assert_cold_identical(&dir, &entries, &cold, "bit flip");

    // Wrong schema version: a future/past argus wrote these files.
    prime(&dir, &entries, &cold);
    for path in cache_files(&dir) {
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
    }
    assert_cold_identical(&dir, &entries, &cold, "wrong schema version");

    // Empty and garbage files, plus an alien file that was never ours.
    prime(&dir, &entries, &cold);
    for (i, path) in cache_files(&dir).iter().enumerate() {
        if i % 2 == 0 {
            std::fs::write(path, b"").unwrap();
        } else {
            std::fs::write(path, vec![0xAB; 64 + i]).unwrap();
        }
    }
    std::fs::write(dir.join("00000000deadbeef.argusscc"), b"not a cache entry").unwrap();
    assert_cold_identical(&dir, &entries, &cold, "empty/garbage files");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Several writers (the CLI and `argus serve` sharing one `--cache-dir`)
/// racing on the same directory must not corrupt it: every concurrent
/// report and every later read of the directory stays cold-identical.
#[test]
fn concurrent_writers_share_a_cache_dir_safely() {
    let dir = scratch_dir("concurrent");
    let entries = light_entries();
    let cold: Vec<_> = entries.iter().map(analyze_cold).collect();

    std::thread::scope(|scope| {
        for worker in 0..4 {
            let dir = &dir;
            let entries = &entries;
            let cold = &cold;
            scope.spawn(move || {
                // Each worker is its own process stand-in: a private
                // in-memory cache over the shared directory.
                let cache = SccCache::with_disk(usize::MAX, dir.clone());
                for round in 0..2 {
                    for i in 0..entries.len() {
                        let idx = (i + worker + round) % entries.len();
                        assert_eq!(
                            analyze_memo(&entries[idx], &cache),
                            cold[idx],
                            "{}: concurrent-writer report diverges (worker {worker})",
                            entries[idx].name
                        );
                    }
                }
            });
        }
    });

    // No stray temp files may survive the races.
    let strays: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_none_or(|x| x != "argusscc"))
        .collect();
    assert!(strays.is_empty(), "leftover temp files after concurrent writes: {strays:?}");

    // A fresh reader of the shared directory sees only valid entries.
    assert_cold_identical(&dir, &entries, &cold, "concurrent writes");
    let _ = std::fs::remove_dir_all(&dir);
}

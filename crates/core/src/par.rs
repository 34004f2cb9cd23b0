//! A tiny deterministic fork-join helper for the analysis pipeline.
//!
//! The analyzer's parallel units (SCCs at one topological level, θ
//! projection probes within an SCC, predicates at one level of the
//! backwards inference) are pure functions of immutable shared inputs, so
//! parallelism here is just a work-stealing index over a slice plus a
//! deterministic merge: results are reassembled **in input order**, which
//! makes every downstream artifact (reports, certificates, JSON)
//! byte-identical to a sequential run regardless of thread scheduling.
//!
//! Each fan-out starts its own scoped threads, and a spawn plus join costs
//! tens of microseconds. So under auto (`parallelism: 0`) an analysis
//! fan-out asks `gated_workers`, which runs it inline on the calling
//! thread unless the caller's deterministic work estimate reaches
//! `FAN_OUT_MIN_WORK`. An explicit worker count of 2 or more always fans
//! out. The decision depends only on the input, never on timing, and the
//! output bytes do not depend on it at all.
//!
//! `std::thread::scope` keeps lifetimes simple (no `'static` bounds, no
//! channels) and propagates worker panics to the caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The machine's core count (`available_parallelism`, or 1 when it cannot
/// be determined), resolved once per process. On Linux the query reads
/// cgroup files on every call, and the analyzer asks once per topological
/// level; worker counts never affect output bytes, so one answer serves
/// the whole process.
#[allow(clippy::disallowed_methods)] // the one place the core count is queried
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolve a requested parallelism degree: `0` means "use the machine"
/// ([`available_cores`], resolved once per process), anything else is
/// taken literally. The result is additionally clamped to the number of
/// work items.
pub fn effective_workers(requested: usize, items: usize) -> usize {
    let base = if requested == 0 { available_cores() } else { requested };
    base.clamp(1, items.max(1))
}

/// The estimated sequential work, in microseconds on the 2-core reference
/// host, from which auto fans an analysis call out; below it the items run
/// inline. Each call site converts its own deterministic measure to this
/// unit (θ: Σ rows × eliminated variables of the Eq. (9) systems, about
/// 1 µs each).
///
/// Measured once, sequential against two workers (medians of 24–54 runs):
/// the θ projections of `mutual_fib_ring`-shaped rings broke even at an
/// estimate of 120 (281 µs vs 283 µs) and paid from 382 (607 → 518 µs),
/// while `mergesort`'s 180 lost (83 → 116 µs); a level of 8 one-pair SCCs
/// lost (80 → 115 µs) and one of 32 paid (430 → 325 µs). The threshold
/// sits between those break-evens, above every corpus call but
/// `mutual_fib_ring`'s θ projection (1 468).
pub(crate) const FAN_OUT_MIN_WORK: u64 = 256;

/// [`effective_workers`] for an analysis fan-out that pays only past
/// [`FAN_OUT_MIN_WORK`]: under auto (`requested == 0`) it is one worker,
/// the calling thread, while `work()` (the call's estimated sequential
/// work in that constant's unit) stays below the threshold. `work` is only
/// evaluated when auto has more than one item to place. An explicit
/// request is taken literally, as in [`effective_workers`].
pub(crate) fn gated_workers(requested: usize, items: usize, work: impl FnOnce() -> u64) -> usize {
    if requested == 0 && items > 1 && work() < FAN_OUT_MIN_WORK {
        return 1;
    }
    effective_workers(requested, items)
}

/// Map `f` over `items` with up to `workers` OS threads, returning results
/// in input order. With `workers <= 1` (or one item) this degrades to a
/// plain sequential map on the calling thread — no threads, no overhead.
///
/// `f` receives `(index, &item)`. Work is claimed from a shared atomic
/// counter, so threads self-balance across items of uneven cost. The
/// calling thread is one of the `workers`: it spawns `workers − 1`
/// threads and works through its own share beside them.
pub fn par_map_indexed<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let w = workers.clamp(1, n.max(1));
    if w <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let share = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i, &items[i])));
        }
        local
    };
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let share = &share;
        let handles: Vec<_> = (1..w).map(|_| scope.spawn(share)).collect();
        // A panic in this share unwinds out of the scope once the spawned
        // workers finish; a panic in theirs surfaces at `join`.
        collected.extend(share());
        for h in handles {
            collected.extend(h.join().expect("analysis worker panicked"));
        }
    });
    collected.sort_unstable_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 4, 7] {
            let out = par_map_indexed(&items, workers, |i, &x| {
                // Uneven cost to shuffle completion order.
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        // `workers` items behind a barrier of `workers` parties: every
        // share claims exactly one item before any item finishes, so the
        // panic lands in the chosen share, the calling thread's or a
        // spawned worker's, and the caller must see it either way.
        let caller = std::thread::current().id();
        for workers in [1, 2, 4] {
            let items: Vec<usize> = (0..workers).collect();
            for in_caller in [true, false] {
                if workers == 1 && !in_caller {
                    continue; // one worker spawns nothing
                }
                let barrier = std::sync::Barrier::new(workers);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    par_map_indexed(&items, workers, |_, &x| {
                        barrier.wait();
                        let here = std::thread::current().id() == caller;
                        assert_ne!(here, in_caller, "this share's item fails on purpose");
                        x
                    })
                }));
                assert!(run.is_err(), "workers={workers}, in_caller={in_caller}: panic lost");
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_indexed(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map_indexed(&[7u8], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn effective_worker_resolution() {
        assert_eq!(effective_workers(1, 100), 1);
        assert_eq!(effective_workers(4, 2), 2, "clamped to item count");
        assert_eq!(effective_workers(4, 0), 1, "no items still means one worker");
        assert!(effective_workers(0, 100) >= 1, "auto resolves to at least one");
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the reference value for the cached count
    fn auto_workers_are_the_cached_core_count() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(available_cores(), cores);
        for n in [1, 2, 3, 100] {
            let first = effective_workers(0, n);
            assert_eq!(effective_workers(0, n), first, "repeated calls agree");
            assert_eq!(first, cores.clamp(1, n), "clamped to {n} items");
        }
    }

    /// The thread ids that ran each of `n` items at `workers`. With two
    /// or more workers the first two items meet at a barrier, so each is
    /// claimed by a different share before either finishes.
    fn item_threads(n: usize, workers: usize) -> Vec<std::thread::ThreadId> {
        let items: Vec<usize> = (0..n).collect();
        let barrier = std::sync::Barrier::new(2);
        par_map_indexed(&items, workers, |i, _| {
            if workers > 1 && i < 2 {
                barrier.wait();
            }
            std::thread::current().id()
        })
    }

    #[test]
    fn auto_below_the_threshold_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for work in [0, 1, FAN_OUT_MIN_WORK - 1] {
            let workers = gated_workers(0, 8, || work);
            assert_eq!(workers, 1, "work={work}");
            assert!(item_threads(8, workers).iter().all(|&t| t == caller), "work={work}");
        }
    }

    #[test]
    fn auto_at_the_threshold_reaches_a_second_thread() {
        let caller = std::thread::current().id();
        for work in [FAN_OUT_MIN_WORK, u64::MAX] {
            let workers = gated_workers(0, 8, || work);
            assert_eq!(workers, available_cores().min(8), "work={work}");
            if workers > 1 {
                assert!(item_threads(8, workers).iter().any(|&t| t != caller), "work={work}");
            }
        }
    }

    #[test]
    fn explicit_workers_always_fan_out() {
        let caller = std::thread::current().id();
        for requested in [2, 8] {
            let workers = gated_workers(requested, 4, || 0);
            assert_eq!(workers, requested.min(4));
            assert!(item_threads(4, workers).iter().any(|&t| t != caller), "{requested}");
        }
        assert_eq!(gated_workers(1, 4, || u64::MAX), 1, "an explicit 1 stays sequential");
        assert_eq!(gated_workers(0, 1, || unreachable!("one item needs no estimate")), 1);
    }

    #[test]
    fn index_matches_item() {
        let items = vec!["a", "b", "c", "d"];
        let out = par_map_indexed(&items, 3, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }
}

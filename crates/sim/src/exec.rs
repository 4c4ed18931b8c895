//! Deterministic parallel execution: an ordered parallel map.
//!
//! Every hot path in the reproduction is a pile of *independent
//! repetitions* — one scan pipeline per device, one SVM fit per grid
//! point, one capture per sweep trial. [`par_map_indexed`] fans those
//! repetitions out over a scoped thread pool and returns the results **in
//! input order**, so callers are bit-for-bit identical to their sequential
//! equivalents: parallelism changes wall-clock time and nothing else.
//!
//! The determinism contract has three legs:
//!
//! 1. Work items are pure functions of `(index, item)` — no shared mutable
//!    state, no locks, no RNG handed across items. Seeded components derive
//!    per-index streams via [`rng::derive_indexed_seed`](crate::rng).
//! 2. Results are written back by index, so scheduling order (which worker
//!    ran which item, in what order) is unobservable.
//! 3. The worker count only partitions the index space; it never feeds
//!    into any computed value.
//!
//! Worker count comes from [`std::thread::available_parallelism`], clamped
//! by the `ROOMSENSE_THREADS` environment variable (a per-process knob for
//! benchmarks and CI) or a scoped [`with_thread_override`] (a per-test
//! knob that does not race across test threads).
//!
//! # Examples
//!
//! ```
//! use roomsense_sim::exec;
//!
//! let inputs = [1u64, 2, 3, 4, 5];
//! let squares = exec::par_map_indexed(&inputs, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! // Same results at any worker count:
//! let sequential = exec::with_thread_override(1, || {
//!     exec::par_map_indexed(&inputs, |_, &x| x * x)
//! });
//! assert_eq!(squares, sequential);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread's worker count pinned to `threads`.
///
/// Unlike `ROOMSENSE_THREADS` this is scoped and thread-local, so
/// concurrent tests can compare sequential and parallel runs without
/// racing on process-global environment state. Nested parallel sections
/// spawned onto worker threads fall back to the process-wide setting;
/// with `threads == 1` everything runs inline on the calling thread, so
/// the override propagates through arbitrarily deep nesting.
pub fn with_thread_override<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let previous = THREAD_OVERRIDE.with(|o| o.replace(Some(threads.max(1))));
    let result = f();
    THREAD_OVERRIDE.with(|o| o.set(previous));
    result
}

/// The worker count parallel sections use on this thread.
///
/// Resolution order: [`with_thread_override`] scope, then the
/// `ROOMSENSE_THREADS` environment variable (ignored unless it parses to a
/// positive integer), then [`std::thread::available_parallelism`]
/// (defaulting to 1 where that is unavailable).
pub fn thread_count() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n;
    }
    if let Some(n) = std::env::var("ROOMSENSE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|n| *n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// `f(index, &items[index])` must be a pure function of its arguments;
/// under that contract the output is identical — bit for bit — for every
/// worker count, including the inline sequential path used when only one
/// worker is available (or when there are fewer than two items).
///
/// Work is distributed dynamically through an atomic cursor, so uneven
/// item costs (a 600-second faulted run next to a 10-second clean one)
/// still keep all workers busy.
///
/// # Panics
///
/// Propagates a panic from `f`; remaining items may or may not have run.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = thread_count().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, U)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|_| {
                    let mut chunk = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        chunk.push((i, f(i, item)));
                    }
                    chunk
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    })
    .expect("scope itself does not panic");

    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, value) in chunks.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index is visited exactly once"))
        .collect()
}

/// Splits `0..len` into contiguous ranges of at most `chunk` items.
///
/// The partition depends only on `len` and `chunk` — never on the worker
/// count — so chunk boundaries (and anything derived from them, like
/// per-chunk telemetry children) are identical at every thread count.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<std::ops::Range<usize>> {
    assert!(chunk > 0, "chunk size must be non-zero");
    (0..len.div_ceil(chunk))
        .map(|c| c * chunk..((c + 1) * chunk).min(len))
        .collect()
}

/// Maps `f` over `items` in parallel, dispatching whole contiguous chunks
/// of `chunk_size` items per task instead of one item per task, and
/// returns the per-item results flattened back into input order.
///
/// Use this when per-item work is too small to amortise the dispatch cost
/// of [`par_map_indexed`] — the 3×3 coefficient-sweep cells, or batched
/// fleet rows. `f` still sees the *global* item index, so seed-derivation
/// keyed on the index is unchanged and the output is bit-identical to
/// `par_map_indexed(items, f)` at every worker count.
///
/// # Panics
///
/// Panics if `chunk_size` is zero, and propagates panics from `f`.
pub fn par_map_chunked<T, U, F>(items: &[T], chunk_size: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let ranges = chunk_ranges(items.len(), chunk_size);
    par_map_indexed(&ranges, |_, range| {
        range.clone().map(|i| f(i, &items[i])).collect::<Vec<U>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = par_map_indexed(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = vec![];
        assert!(par_map_indexed(&none, |_, &x| x).is_empty());
        assert_eq!(par_map_indexed(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn override_is_scoped_and_restored() {
        let outer = thread_count();
        let inner = with_thread_override(3, thread_count);
        assert_eq!(inner, 3);
        assert_eq!(thread_count(), outer);
        // Nested overrides unwind correctly.
        with_thread_override(2, || {
            assert_eq!(thread_count(), 2);
            with_thread_override(5, || assert_eq!(thread_count(), 5));
            assert_eq!(thread_count(), 2);
        });
    }

    #[test]
    fn any_worker_count_matches_sequential() {
        let items: Vec<u64> = (0..50).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9e37)).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = with_thread_override(workers, || {
                par_map_indexed(&items, |_, &x| x.wrapping_mul(0x9e37))
            });
            assert_eq!(got, expected, "worker count {workers}");
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let got = with_thread_override(32, || par_map_indexed(&[1u8, 2], |_, &x| x * 2));
        assert_eq!(got, vec![2, 4]);
    }

    #[test]
    fn chunk_ranges_partition_the_index_space() {
        assert_eq!(chunk_ranges(0, 4), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(chunk_ranges(3, 4), vec![0..3]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(9, 4), vec![0..4, 4..8, 8..9]);
        // Independent of worker count by construction: no thread input.
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_panics() {
        let _ = chunk_ranges(5, 0);
    }

    #[test]
    fn chunked_map_matches_per_item_map_at_any_worker_count() {
        let items: Vec<u64> = (0..23).collect();
        let expected = par_map_indexed(&items, |i, &x| x * 7 + i as u64);
        for workers in [1, 2, 5, 16] {
            for chunk in [1, 3, 8, 64] {
                let got = with_thread_override(workers, || {
                    par_map_chunked(&items, chunk, |i, &x| x * 7 + i as u64)
                });
                assert_eq!(got, expected, "workers {workers} chunk {chunk}");
            }
        }
    }
}

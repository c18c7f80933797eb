//! Deterministic data parallelism on scoped threads — no work stealing, no
//! external crates, and **bit-identical results at every thread count**.
//!
//! The estimator stack parallelizes three kinds of loops: sharded counting
//! (density-grid construction), independent per-item evaluation (split
//! candidates), and load-imbalanced per-item work (exact
//! ground-truth counting, where query cost varies by orders of magnitude).
//! This crate provides one primitive per shape, all built on
//! [`std::thread::scope`]:
//!
//! * [`map_slice`] — order-preserving parallel map over contiguous chunks.
//! * [`map_chunks_queued`] — order-preserving parallel map driven by a
//!   chunked work *queue* (an atomic cursor over fixed chunk boundaries), so
//!   slow items do not serialize the whole batch. Not work stealing: chunk
//!   boundaries are fixed up front and results are reassembled by chunk
//!   index, so scheduling order can never leak into the output.
//! * [`fold_shards`] — one accumulator per chunk, returned in chunk order,
//!   for sharded-counts-then-merge patterns.
//!
//! # Determinism contract
//!
//! Every function here returns output whose value depends only on the input
//! and the (pure) closure — never on the number of threads or on how the OS
//! schedules them. The building blocks:
//!
//! 1. chunk boundaries are a pure function of `(len, threads)`
//!    ([`chunk_ranges`]);
//! 2. each chunk is processed left-to-right by exactly one worker;
//! 3. results are reassembled in chunk order, not completion order.
//!
//! Callers keep the contract by merging shard accumulators with
//! order-independent operations (integer addition) or by folding them in
//! chunk order. Floating-point *reductions across items* are the one shape
//! deliberately not offered: `(a + b) + c != a + (b + c)` in general, so a
//! parallel f64 sum cannot be bit-identical to the serial sweep. Hot paths
//! that accumulate f64 (the final bucket-assignment pass of Min-Skew) stay
//! serial for exactly this reason.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a `threads` knob: `0` means "auto" (one worker per available
/// core), any other value is taken literally. Never returns 0.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Deterministic contiguous chunk boundaries: `len` items split into at most
/// `chunks` ranges, the first `len % chunks` ranges one item longer. Empty
/// ranges are never emitted, so fewer than `chunks` ranges come back when
/// `len < chunks`.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1).min(len);
    if chunks == 0 {
        return Vec::new();
    }
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Order-preserving parallel map: `out[i] = f(&items[i])`.
///
/// The slice is split into one contiguous chunk per worker; with
/// `threads <= 1` (or a single-item input) the map runs inline on the
/// calling thread. The output is identical at every thread count.
pub fn map_slice<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = effective_threads(threads).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let ranges = chunk_ranges(items.len(), threads);
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let f = &f;
                scope.spawn(move || items[r].iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("parallel map worker panicked"));
        }
    });
    out
}

/// Order-preserving parallel map over a **chunked work queue**: the slice is
/// cut into fixed chunks of `chunk_size`, workers claim chunks through an
/// atomic cursor (cheapest-possible dynamic load balancing — no stealing,
/// no per-item locks), and results are reassembled by chunk index.
///
/// Use this instead of [`map_slice`] when per-item cost is wildly uneven
/// (e.g. range queries whose result sizes span orders of magnitude), so one
/// expensive region of the input does not serialize a whole static chunk.
/// Output is still `out[i] = f(&items[i])`, independent of scheduling.
pub fn map_chunks_queued<T, R, F>(threads: usize, chunk_size: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = effective_threads(threads).min(items.len());
    let chunk_size = chunk_size.max(1);
    let n_chunks = items.len().div_ceil(chunk_size);
    if threads <= 1 || n_chunks <= 1 {
        return items.iter().map(&f).collect();
    }
    let workers = threads.min(n_chunks);
    let registry = minskew_obs::Registry::global();
    registry.counter("par.queued.calls").inc();
    registry.counter("par.queued.chunks").add(n_chunks as u64);
    registry.counter("par.queued.workers").add(workers as u64);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Vec<R>>> = (0..n_chunks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    // Per-worker observability, accumulated locally and
                    // flushed once at worker exit — the claim loop itself
                    // stays two relaxed atomics per chunk.
                    let clock = minskew_obs::Stopwatch::start();
                    let mut contended: u64 = 0;
                    let mut prev_ci: Option<usize> = None;
                    let mut done: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let ci = cursor.fetch_add(1, Ordering::Relaxed);
                        if ci >= n_chunks {
                            break;
                        }
                        // A gap in this worker's claim sequence means another
                        // worker claimed in between: the queue was contended.
                        if prev_ci.is_some_and(|p| ci != p + 1) {
                            contended += 1;
                        }
                        prev_ci = Some(ci);
                        let lo = ci * chunk_size;
                        let hi = (lo + chunk_size).min(items.len());
                        done.push((ci, items[lo..hi].iter().map(f).collect()));
                    }
                    let registry = minskew_obs::Registry::global();
                    registry
                        .histogram("par.worker.busy_ns")
                        .record(clock.total());
                    registry
                        .counter("par.queue.contended_claims")
                        .add(contended);
                    done
                })
            })
            .collect();
        for h in handles {
            for (ci, chunk) in h.join().expect("queued map worker panicked") {
                slots[ci] = Some(chunk);
            }
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        out.extend(slot.expect("every chunk claimed exactly once"));
    }
    out
}

/// Sharded fold: splits `items` into one contiguous chunk per worker, folds
/// each chunk left-to-right into its own accumulator (`init()` per shard),
/// and returns the accumulators **in chunk order**.
///
/// The caller merges the shards; the merge is bit-identical to a serial fold
/// whenever the accumulation is order-independent (integer counters) or the
/// caller folds shards in the returned order and the operation is
/// associative.
pub fn fold_shards<T, A, I, F>(threads: usize, items: &[T], init: I, fold: F) -> Vec<A>
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, &T) + Sync,
{
    let threads = effective_threads(threads).min(items.len());
    if threads <= 1 {
        let mut acc = init();
        for item in items {
            fold(&mut acc, item);
        }
        return vec![acc];
    }
    let ranges = chunk_ranges(items.len(), threads);
    let mut out = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let init = &init;
                let fold = &fold;
                scope.spawn(move || {
                    let mut acc = init();
                    for item in &items[r] {
                        fold(&mut acc, item);
                    }
                    acc
                })
            })
            .collect();
        for h in handles {
            out.push(h.join().expect("sharded fold worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let rs = chunk_ranges(len, chunks);
                let mut next = 0;
                for r in &rs {
                    assert_eq!(r.start, next, "len={len} chunks={chunks}");
                    assert!(!r.is_empty(), "empty chunk for len={len} chunks={chunks}");
                    next = r.end;
                }
                assert_eq!(next, len);
                assert!(rs.len() <= chunks);
                // Balanced: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    rs.iter().map(ExactSizeIterator::len).min(),
                    rs.iter().map(ExactSizeIterator::len).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn map_slice_is_order_preserving_at_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            assert_eq!(map_slice(threads, &items, |x| x * x + 1), expect);
        }
        assert_eq!(map_slice(4, &[] as &[u64], |x| *x), Vec::<u64>::new());
    }

    #[test]
    fn queued_map_matches_serial_under_uneven_load() {
        let items: Vec<usize> = (0..500).collect();
        let spin = |x: &usize| {
            // Uneven per-item cost: some items loop far longer.
            let mut acc = *x as u64;
            for _ in 0..(x % 97) * 10 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (*x, acc)
        };
        let expect: Vec<(usize, u64)> = items.iter().map(spin).collect();
        for threads in [1usize, 2, 3, 8] {
            for chunk in [1usize, 7, 64, 1000] {
                assert_eq!(map_chunks_queued(threads, chunk, &items, spin), expect);
            }
        }
    }

    #[test]
    fn fold_shards_merge_exactly_for_integers() {
        // Sharded histogram counting: u32 addition is order-independent, so
        // the merged shards equal the serial fold bit-for-bit.
        let items: Vec<usize> = (0..1000).map(|i| (i * 7) % 16).collect();
        let serial = {
            let mut h = vec![0u32; 16];
            for &i in &items {
                h[i] += 1;
            }
            h
        };
        for threads in [1usize, 2, 3, 8] {
            let shards = fold_shards(threads, &items, || vec![0u32; 16], |h, &i| h[i] += 1);
            let mut merged = vec![0u32; 16];
            for shard in shards {
                for (m, s) in merged.iter_mut().zip(shard) {
                    *m += s;
                }
            }
            assert_eq!(merged, serial);
        }
    }

    #[test]
    fn queued_map_publishes_worker_metrics() {
        let registry = minskew_obs::Registry::global();
        let read = |snap: &minskew_obs::RegistrySnapshot, name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        let before = registry.snapshot();
        let busy_before = registry.histogram("par.worker.busy_ns").count();
        let items: Vec<usize> = (0..640).collect();
        let out = map_chunks_queued(4, 64, &items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let after = registry.snapshot();
        // The global registry is shared across concurrently running
        // tests, so assert deltas as lower bounds.
        assert!(read(&after, "par.queued.calls") > read(&before, "par.queued.calls"));
        assert!(read(&after, "par.queued.chunks") >= read(&before, "par.queued.chunks") + 10);
        assert!(read(&after, "par.queued.workers") >= read(&before, "par.queued.workers") + 4);
        assert!(registry.histogram("par.worker.busy_ns").count() >= busy_before + 4);
    }

    #[test]
    fn effective_threads_resolves_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
    }
}

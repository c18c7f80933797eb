//! Deterministic data parallelism on scoped threads — no work stealing, no
//! external crates, and **bit-identical results at every thread count**.
//!
//! One loop in the stack runs in parallel: exact ground-truth counting
//! (`GroundTruth::counts`), where per-query cost varies by orders of
//! magnitude. [`map_chunks_queued`] serves it: an order-preserving parallel
//! map driven by a chunked work *queue* (an atomic cursor over fixed chunk
//! boundaries), built on [`std::thread::scope`], so slow items do not
//! serialize the whole batch.
//!
//! # Determinism contract
//!
//! The output depends only on the input and the (pure) closure — never on
//! the number of threads or on how the OS schedules them: chunk boundaries
//! are fixed up front, each chunk is mapped left-to-right by exactly one
//! worker, and results are reassembled by chunk index, not completion
//! order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

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

/// Order-preserving parallel map over a **chunked work queue**: the slice is
/// cut into fixed chunks of `chunk_size`, workers claim chunks through an
/// atomic cursor (cheapest-possible dynamic load balancing — no stealing,
/// no per-item locks), and results are reassembled by chunk index.
///
/// Per-item cost may be wildly uneven (e.g. range queries whose result
/// sizes span orders of magnitude): one expensive region of the input does
/// not serialize a whole static chunk. Output is `out[i] = f(&items[i])`,
/// independent of scheduling; with `threads <= 1` (or a single chunk) the
/// map runs inline on the calling thread.
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
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Vec<R>>> = (0..n_chunks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut done: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let ci = cursor.fetch_add(1, Ordering::Relaxed);
                        if ci >= n_chunks {
                            break;
                        }
                        let lo = ci * chunk_size;
                        let hi = (lo + chunk_size).min(items.len());
                        done.push((ci, items[lo..hi].iter().map(f).collect()));
                    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn effective_threads_resolves_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
    }
}

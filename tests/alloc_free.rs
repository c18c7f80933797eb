//! The serving path's "allocates nothing" claims, counted.
//!
//! This test binary's global allocator wraps the system allocator and
//! counts, per thread, every allocation and reallocation. Each test warms
//! its path up first (buffers grow to size, the accuracy reservoir fills,
//! a latency histogram is resolved), then counts the allocations its own
//! thread makes over many more calls and asserts an exact 0. Counting per
//! thread keeps the tests independent of each other under the default
//! parallel test runner; CI also runs the binary on one test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minskew::prelude::*;
use minskew_datagen::charminar_with;

/// The system allocator, counting allocations per thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread's locals are being torn
    // down, after any test body has finished counting.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's. The counter is
// a const-initialised thread local without a destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const QUERIES: usize = 4096;

/// An analyzed Charminar table.
fn table(options: TableOptions) -> SpatialTable {
    let mut table = SpatialTable::new(options);
    table.insert_many(charminar_with(5_000, 3).rects().iter().copied());
    table.analyze();
    table
}

/// `QUERIES` distinct queries of assorted sizes over the 10 000-wide
/// Charminar space, from a fixed xorshift stream.
fn queries() -> Vec<Rect> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 10_000) as f64
    };
    (0..QUERIES)
        .map(|_| {
            let (x, y, w, h) = (next(), next(), next() / 4.0, next() / 4.0);
            Rect::new(x, y, x + w, y + h)
        })
        .collect()
}

#[test]
fn the_counter_sees_an_allocation() {
    let allocations = allocations_in(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(16))));
    assert_eq!(allocations, 1);
}

#[test]
fn warm_reader_estimates_allocate_nothing() {
    let queries = queries();
    for metrics in [true, false] {
        let table = table(TableOptions {
            metrics,
            ..TableOptions::default()
        });
        let mut reader = table.reader();
        let mut total = 0.0;
        for q in &queries {
            total += reader.estimate(q);
        }
        let allocations = allocations_in(|| {
            for q in &queries {
                total += reader.estimate(q);
            }
        });
        assert!(total > 0.0);
        assert_eq!(allocations, 0, "metrics {metrics}");
    }
}

#[test]
fn warm_reader_batches_allocate_nothing() {
    let queries = queries();
    let table = table(TableOptions::default());
    let mut reader = table.reader();
    let mut out = Vec::new();
    reader
        .try_estimate_batch_into(&queries, &mut out)
        .expect("finite queries");
    let allocations = allocations_in(|| {
        for _ in 0..10 {
            reader
                .try_estimate_batch_into(&queries, &mut out)
                .expect("finite queries");
        }
    });
    assert_eq!(out.len(), QUERIES);
    assert_eq!(allocations, 0);
}

#[test]
fn sampled_table_estimates_allocate_nothing() {
    let queries = queries();
    let table = table(TableOptions {
        metrics: true,
        metrics_sampling: 256,
        ..TableOptions::default()
    });
    // The warm-up fills the accuracy reservoir and resolves the latency
    // histogram; 16 of the counted calls are sampled and timed.
    let mut total = 0.0;
    for q in &queries {
        total += table.estimate(q);
    }
    let allocations = allocations_in(|| {
        for q in &queries {
            total += table.estimate(q);
        }
    });
    assert!(total > 0.0);
    assert_eq!(allocations, 0);
    let sampled = table
        .metrics()
        .counters
        .iter()
        .find(|(name, _)| name == "engine.query.sampled")
        .map(|&(_, n)| n);
    assert_eq!(sampled, Some(2 * QUERIES as u64 / 256));
}

//! The "allocates nothing" claims and a first load's memory peak, counted.
//!
//! This test binary's global allocator wraps the system allocator and
//! counts every allocation and reallocation, per thread and process-wide,
//! and keeps the process's live heap bytes with their high-water mark.
//! Each test warms its path up first (buffers grow to size, the accuracy
//! reservoir fills, a latency histogram is resolved), then counts the
//! allocations over many more calls and asserts an exact count. The
//! in-process tests count their own thread; the wire tests count the whole
//! process, server threads included, once those threads are idle. Every
//! test holds one lock, so under the default parallel test runner no other
//! test allocates while one counts; CI also runs the binary on one test
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use minskew::prelude::*;
use minskew_datagen::charminar_with;

/// The system allocator, counting allocations and live bytes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations and reallocations by every thread.
static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` since [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn count_one() {
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only while the thread's locals are being torn
    // down, after any test body has finished counting.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's. The counters
// are atomics and a const-initialised thread local without a destructor,
// so touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, hence from `System`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Grown before shrunk: a realloc that moves the block holds
            // both for a moment, so the peak counts both.
            grow(new_size);
            shrink(layout.size());
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by every test for its whole run. It guards no data, so a test
/// that panicked holding it leaves nothing to repair.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations the calling thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations every thread makes while `f` runs, counted from once the
/// process's other threads have had [`SETTLE`] to go idle.
fn process_allocations_in(f: impl FnOnce()) -> u64 {
    std::thread::sleep(SETTLE);
    let before = PROCESS_ALLOCATIONS.load(Ordering::SeqCst);
    f();
    PROCESS_ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// How long the other threads get to go idle before a process-wide count
/// starts: the test runner's own bookkeeping for the test it just started,
/// and a server's threads, whose connection thread parks in its 25 ms read
/// poll.
const SETTLE: Duration = Duration::from_millis(100);

/// Live bytes now, after restarting the high-water mark from them.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::SeqCst);
    PEAK.store(live, Ordering::SeqCst);
    live
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
    let _serial = serial();
    let allocations = allocations_in(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(16))));
    assert_eq!(allocations, 1);
}

#[test]
fn warm_reader_estimates_allocate_nothing() {
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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

#[test]
fn the_process_counters_see_an_allocation_and_its_bytes() {
    let _serial = serial();
    let (mut before, mut peak, mut after) = (0, 0, 0);
    let allocations = process_allocations_in(|| {
        before = reset_peak();
        drop(std::hint::black_box(Vec::<u8>::with_capacity(1 << 20)));
        peak = PEAK.load(Ordering::SeqCst);
        after = LIVE.load(Ordering::SeqCst);
    });
    assert_eq!(allocations, 1);
    assert_eq!(peak - before, 1 << 20);
    assert_eq!(after, before);
}

/// Bytes per row that a first load may hold at its peak beyond what it
/// holds at its start or its end, whichever is more. The STR sort keys
/// are 16 bytes per row, and loading 100 000 Charminar rows peaks 16.2
/// bytes per row over its end state. Packing from a `Vec<Item>` copy of
/// the rows, sorted with a merge buffer, peaked 52.7 bytes per row over it.
const LOAD_PEAK_BYTES_PER_ROW: usize = 20;

#[test]
fn a_first_load_peaks_at_its_sort_keys() {
    let _serial = serial();
    const ROWS: usize = 100_000;
    let rects = charminar_with(ROWS, 5).into_rects();
    let mut table = SpatialTable::new(TableOptions::default());
    let before = reset_peak();
    table.insert_many(rects.iter().copied());
    let after = LIVE.load(Ordering::SeqCst);
    let over = PEAK.load(Ordering::SeqCst) - before.max(after);
    assert_eq!(table.len(), ROWS);
    table.validate_index().expect("a valid index");
    assert!(
        over <= LOAD_PEAK_BYTES_PER_ROW * ROWS,
        "a first load of {ROWS} rows peaked {over} bytes ({:.1} per row) over its start or end",
        over as f64 / ROWS as f64
    );
}

/// A server over an analyzed Charminar table named `t`, and one client
/// connection to it.
fn wire() -> (ServerHandle, TcpStream) {
    wire_with(TableOptions::default())
}

/// [`wire`] over a table created with `options`.
fn wire_with(options: TableOptions) -> (ServerHandle, TcpStream) {
    let catalog = Arc::new(SpatialCatalog::new());
    let entry = catalog.create("t", options).expect("a fresh catalog");
    {
        let mut table = entry.table();
        table.insert_many(charminar_with(5_000, 3).rects().iter().copied());
        table.analyze();
    }
    let server = serve(catalog, ServeOptions::default()).expect("a loopback port");
    let client = TcpStream::connect(server.addr()).expect("the server accepts");
    client.set_nodelay(true).expect("nodelay");
    (server, client)
}

/// One request line per query: `ESTIMATE t x1 y1 x2 y2`, or `BATCH t n`
/// and the `n` queries' coordinates.
fn request_lines(verb: &str, queries: &[Rect], per_line: usize) -> Vec<Vec<u8>> {
    queries
        .chunks(per_line)
        .map(|chunk| {
            let mut line = match verb {
                "BATCH" => format!("BATCH t {}", chunk.len()),
                _ => format!("{verb} t"),
            };
            for q in chunk {
                line.push_str(&format!(" {} {} {} {}", q.lo.x, q.lo.y, q.hi.x, q.hi.y));
            }
            line.push('\n');
            line.into_bytes()
        })
        .collect()
}

/// Sends each request and reads its one-line reply, into `buf`; panics
/// on a reply that is not `OK`. Allocates nothing.
fn round_trips(client: &mut TcpStream, requests: &[Vec<u8>], buf: &mut [u8]) {
    round_trips_replying(client, requests, buf, b"OK ");
}

/// [`round_trips`], where every reply must start with `reply`.
fn round_trips_replying(
    client: &mut TcpStream,
    requests: &[Vec<u8>],
    buf: &mut [u8],
    reply: &[u8],
) {
    for request in requests {
        client.write_all(request).expect("the server reads");
        let mut len = 0;
        loop {
            let n = client.read(&mut buf[len..]).expect("the server replies");
            assert!(n > 0, "the server closed the connection");
            len += n;
            if buf[len - 1] == b'\n' {
                break;
            }
        }
        assert!(buf.starts_with(reply), "a reply that is not OK");
    }
}

#[test]
fn wire_estimates_allocate_nothing() {
    let _serial = serial();
    let (server, mut client) = wire();
    let requests = request_lines("ESTIMATE", &queries()[..2048], 1);
    let mut buf = vec![0u8; 1 << 16];
    // Warm-up: the connection's buffers grow, its reader is minted, the
    // sampled requests fill the table's accuracy reservoir.
    round_trips(&mut client, &requests, &mut buf);
    let allocations = process_allocations_in(|| round_trips(&mut client, &requests, &mut buf));
    assert_eq!(allocations, 0);
    drop(client);
    server.shutdown();
}

#[test]
fn wire_batches_allocate_nothing() {
    let _serial = serial();
    let (server, mut client) = wire();
    let queries = queries();
    let requests: Vec<Vec<u8>> = request_lines("BATCH", &queries, 64)
        .into_iter()
        .cycle()
        .take(100)
        .collect();
    let mut buf = vec![0u8; 1 << 16];
    round_trips(&mut client, &requests, &mut buf);
    let allocations = process_allocations_in(|| round_trips(&mut client, &requests, &mut buf));
    assert_eq!(allocations, 0);
    drop(client);
    server.shutdown();
}

#[test]
fn an_idle_server_allocates_nothing() {
    let _serial = serial();
    let (server, mut client) = wire();
    let mut buf = vec![0u8; 64];
    round_trips(&mut client, &[b"PING\n".to_vec()], &mut buf);
    let allocations = process_allocations_in(|| std::thread::sleep(Duration::from_millis(500)));
    assert_eq!(allocations, 0);
    drop(client);
    server.shutdown();
}

/// Wire `ESTIMATE`s on a table that samples and records every call, so
/// each one enters the flight recorder: untagged requests allocate nothing,
/// and a `TID=` prefix costs the record's one copy of the id, which the
/// ring truncates in place to its 16 bytes.
#[test]
fn recorded_wire_estimates_allocate_only_their_trace_ids() {
    let _serial = serial();
    let (server, mut client) = wire_with(TableOptions {
        metrics_sampling: 1,
        flight_sample: 1,
        ..TableOptions::default()
    });
    let untagged = request_lines("ESTIMATE", &queries()[..1024], 1);
    let tagged: Vec<Vec<u8>> = untagged
        .iter()
        .map(|line| [b"TID=req-0123456789abcdef ".as_slice(), line].concat())
        .collect();
    let mut buf = vec![0u8; 1 << 16];
    // Warm-up: the connection's buffers grow and the ring fills, so every
    // counted record evicts one.
    round_trips(&mut client, &untagged, &mut buf);
    round_trips_replying(
        &mut client,
        &tagged,
        &mut buf,
        b"TID=req-0123456789abcdef OK ",
    );
    let allocations = process_allocations_in(|| round_trips(&mut client, &untagged, &mut buf));
    assert_eq!(allocations, 0, "untagged");
    let allocations = process_allocations_in(|| {
        round_trips_replying(
            &mut client,
            &tagged,
            &mut buf,
            b"TID=req-0123456789abcdef OK ",
        );
    });
    assert_eq!(allocations, tagged.len() as u64, "one per tagged request");
    // The newest record is the last tagged request, its id cut to 16 bytes.
    client.write_all(b"FLIGHT t 1\n").expect("the server reads");
    let mut drained = Vec::new();
    while drained.iter().filter(|&&b| b == b'\n').count() < 2 {
        let n = client.read(&mut buf).expect("the server replies");
        assert!(n > 0, "the server closed the connection");
        drained.extend_from_slice(&buf[..n]);
    }
    let drained = String::from_utf8(drained).expect("UTF-8");
    assert!(drained.starts_with("OK 1\n"), "{drained:?}");
    assert!(
        drained.contains("\"tid\":\"req-0123456789ab\""),
        "{drained:?}"
    );
    drop(client);
    server.shutdown();
}

/// What `serve`'s docs give for an `EXPLAIN` whose query overlaps no
/// bucket.
const EXPLAIN_ALLOCATIONS: u64 = 9;

#[test]
fn a_wire_explain_allocates_its_documented_count() {
    let _serial = serial();
    let (server, mut client) = wire();
    let mut buf = vec![0u8; 1 << 16];
    // No bucket overlaps the query, so the trace has no terms.
    let request = [b"EXPLAIN t 50000 50000 50001 50001\n".to_vec()];
    round_trips(&mut client, &request, &mut buf);
    let allocations = process_allocations_in(|| round_trips(&mut client, &request, &mut buf));
    assert_eq!(allocations, EXPLAIN_ALLOCATIONS);
    drop(client);
    server.shutdown();
}

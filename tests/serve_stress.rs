//! Concurrency stress for the lock-free serving path: reader threads
//! hammer `estimate` while a writer loops statistics installs, and every
//! observed estimate must be **exactly** the value computed under one of
//! the published statistics — the old install or the new one, never a
//! torn mixture and never a stale cache hit.
//!
//! This is the teeth behind the publication protocol in
//! `minskew_engine::publish`: snapshots are immutable and installed via an
//! epoch-flip cell, so a reader's estimate is always computed against one
//! coherent snapshot. The suite runs ≥1000 install cycles under 4
//! concurrent readers (CI pins `RUST_TEST_THREADS=1` so the stress owns
//! its thread budget).
//!
//! A fault drill covers the network edge: a client that pipelines
//! requests and never reads its replies must neither disturb another
//! client's bit-exact estimates nor hang the server's shutdown.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use minskew::prelude::*;
use minskew_datagen::charminar_with;

const INSTALL_CYCLES: usize = 1_200;
const READER_THREADS: usize = 4;

/// Builds the shared table (4 shards, cache on) plus two distinct valid
/// statistics payloads and the exact per-query bits each one serves.
struct Fixture {
    table: SpatialTable,
    queries: Vec<Rect>,
    stats_a: Vec<u8>,
    stats_b: Vec<u8>,
    bits_a: Vec<u64>,
    bits_b: Vec<u64>,
}

fn fixture() -> Fixture {
    let data = charminar_with(2_000, 53);
    let mut table = SpatialTable::new(TableOptions {
        shards: 4,
        ..TableOptions::default()
    });
    for r in data.rects() {
        table.insert(*r);
    }
    let stats_a = MinSkewBuilder::new(8).regions(256).build(&data).to_bytes();
    let stats_b = MinSkewBuilder::new(40).regions(256).build(&data).to_bytes();
    let mbr = data.stats().mbr;
    let (w, h) = (mbr.width(), mbr.height());
    let mut queries = Vec::new();
    for i in 0..12 {
        let f = i as f64 / 12.0;
        let x = mbr.lo.x + f * w * 0.8;
        let y = mbr.lo.y + (1.0 - f) * h * 0.8;
        queries.push(Rect::new(x, y, x + 0.15 * w, y + 0.15 * h));
    }
    queries.push(mbr);
    queries.push(Rect::from_point(mbr.center()));
    let expected = |table: &mut SpatialTable, stats: &[u8]| -> Vec<u64> {
        table.load_stats(stats);
        queries
            .iter()
            .map(|q| table.estimate(q).to_bits())
            .collect()
    };
    let bits_a = expected(&mut table, &stats_a);
    let bits_b = expected(&mut table, &stats_b);
    assert_ne!(
        bits_a, bits_b,
        "the two installs must serve distinguishable estimates"
    );
    Fixture {
        table,
        queries,
        stats_a,
        stats_b,
        bits_a,
        bits_b,
    }
}

#[test]
fn concurrent_readers_never_observe_torn_or_stale_estimates() {
    let fx = fixture();
    let queries = Arc::new(fx.queries);
    let bits_a = Arc::new(fx.bits_a);
    let bits_b = Arc::new(fx.bits_b);
    // Mint one lock-free reader per thread before the table goes behind
    // the writer's mutex — readers never take that lock.
    let reader_protos: Vec<SpatialReader> =
        (0..READER_THREADS).map(|_| fx.table.reader()).collect();
    let table = Arc::new(Mutex::new(fx.table));
    let done = Arc::new(AtomicBool::new(false));
    let observed = Arc::new(AtomicU64::new(0));
    // Start line: the writer may not begin installing until every reader
    // is live, so installs genuinely race with estimate traffic.
    let start = Arc::new(Barrier::new(READER_THREADS + 1));

    let writer = {
        let table = Arc::clone(&table);
        let done = Arc::clone(&done);
        let start = Arc::clone(&start);
        let (a, b) = (fx.stats_a.clone(), fx.stats_b.clone());
        std::thread::spawn(move || {
            start.wait();
            for cycle in 0..INSTALL_CYCLES {
                let stats = if cycle % 2 == 0 { &a } else { &b };
                table.lock().expect("writer lock").load_stats(stats);
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    let readers: Vec<_> = reader_protos
        .into_iter()
        .map(|mut reader| {
            let queries = Arc::clone(&queries);
            let bits_a = Arc::clone(&bits_a);
            let bits_b = Arc::clone(&bits_b);
            let done = Arc::clone(&done);
            let observed = Arc::clone(&observed);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut last_generation = 0u64;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    for (i, q) in queries.iter().enumerate() {
                        let got = reader.estimate(q).to_bits();
                        assert!(
                            got == bits_a[i] || got == bits_b[i],
                            "torn estimate: query {i} returned {got:#x}, expected \
                             {:#x} (stats A) or {:#x} (stats B)",
                            bits_a[i],
                            bits_b[i]
                        );
                        observed.fetch_add(1, Ordering::Relaxed);
                    }
                    let generation = reader.generation();
                    assert!(
                        generation >= last_generation,
                        "generation went backwards: {last_generation} -> {generation}"
                    );
                    last_generation = generation;
                    if finished {
                        break;
                    }
                }
            })
        })
        .collect();

    writer.join().expect("writer thread");
    for r in readers {
        r.join().expect("reader thread");
    }
    let total = observed.load(Ordering::Relaxed);
    assert!(
        total >= (READER_THREADS * queries.len()) as u64,
        "readers must have observed estimates ({total})"
    );
    // After the dust settles every reader value equals the final install
    // (cycle count is even, so stats B was installed last).
    let mut reader = table.lock().expect("final lock").reader();
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            reader.estimate(q).to_bits(),
            bits_b[i],
            "final state, query {i}"
        );
    }
}

#[test]
fn cache_hits_never_serve_pre_install_estimates() {
    // The satellite fix under test: cache flush is atomic with snapshot
    // publication, so an estimate cached under generation g can never be
    // served after a publication bumped the generation.
    let fx = fixture();
    let mut table = fx.table;
    let q = &fx.queries[0];

    // Warm both the table's serving cache and a lock-free reader's cache
    // under stats B (installed last by the fixture).
    let mut reader = table.reader();
    assert_eq!(table.estimate(q).to_bits(), fx.bits_b[0]);
    assert_eq!(table.estimate(q).to_bits(), fx.bits_b[0], "cached");
    assert_eq!(reader.estimate(q).to_bits(), fx.bits_b[0]);
    assert_eq!(reader.estimate(q).to_bits(), fx.bits_b[0], "cached");

    // Install stats A: the very next estimate must be A's value on both
    // paths — a hit on the pre-install cache entry would return B's.
    table.load_stats(&fx.stats_a);
    assert_eq!(
        table.estimate(q).to_bits(),
        fx.bits_a[0],
        "table served a pre-install cached estimate"
    );
    assert_eq!(
        reader.estimate(q).to_bits(),
        fx.bits_a[0],
        "reader served a pre-install cached estimate"
    );

    // Same contract through row churn (publication without a new stats
    // era): inserts republish, so caches flush and the estimate may only
    // change to the freshly computed value, never a stale one.
    let before = table.estimate(&fx.queries[1]);
    let id = table.insert(Rect::new(0.0, 0.0, 1.0, 1.0));
    let after_table = table.estimate(&fx.queries[1]);
    let after_reader = reader.estimate(&fx.queries[1]);
    assert_eq!(after_table.to_bits(), after_reader.to_bits());
    table.delete(id);
    let _ = before;
    assert_eq!(
        table.estimate(&fx.queries[1]).to_bits(),
        reader.estimate(&fx.queries[1]).to_bits()
    );
}

#[test]
fn readers_and_tables_agree_while_writer_holds_the_lock() {
    // A reader minted from a locked table serves the last publication —
    // locking a table for a slow ANALYZE must not block estimate traffic.
    let fx = fixture();
    let table = Arc::new(Mutex::new(fx.table));
    let mut reader = table.lock().expect("lock").reader();
    let guard = table.lock().expect("hold");
    for (i, q) in fx.queries.iter().enumerate() {
        assert_eq!(
            reader.estimate(q).to_bits(),
            fx.bits_b[i],
            "reader blocked or diverged under a held table lock (query {i})"
        );
    }
    drop(guard);
}

#[test]
fn a_client_that_never_reads_stalls_neither_other_clients_nor_shutdown() {
    // Fault drill: one client pipelines requests and never reads a reply,
    // until every socket buffer between it and the server is full and the
    // server's write to it blocks. Another client must still get
    // bit-exact estimates, and `SHUTDOWN` must finish within the server's
    // write timeout (plus slack) instead of waiting on the stalled write
    // forever.
    use std::io::{BufRead, BufReader, ErrorKind, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let data = charminar_with(1_500, 67);
    let catalog = Arc::new(SpatialCatalog::new());
    let entry = catalog
        .create("roads", TableOptions::default())
        .expect("create");
    {
        let mut table = entry.table();
        for r in data.rects() {
            table.insert(*r);
        }
        table.analyze();
    }
    let handle = serve(catalog, ServeOptions::default()).expect("bind");

    // `METRICS` replies are kilobytes per 8-byte request, so the buffers
    // fill after a few hundred kilobytes of requests.
    let mut hog = TcpStream::connect(handle.addr()).expect("connect hog");
    hog.set_write_timeout(Some(Duration::from_millis(200)))
        .expect("hog timeout");
    let burst = "METRICS\n".repeat(256);
    let filling = Instant::now();
    loop {
        match hog.write_all(burst.as_bytes()) {
            Ok(()) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) => panic!("hog write failed before its buffers filled: {e}"),
        }
        assert!(
            filling.elapsed() < Duration::from_secs(60),
            "the hog's socket buffers never filled"
        );
    }

    let mut client = BufReader::new(TcpStream::connect(handle.addr()).expect("connect"));
    let mut ask = |line: &str| -> String {
        client
            .get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
        let mut reply = String::new();
        client.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_string()
    };
    let mbr = data.stats().mbr;
    let (w, h) = (mbr.width(), mbr.height());
    for i in 0..16 {
        let f = f64::from(i) / 16.0;
        let q = Rect::new(
            mbr.lo.x + f * w * 0.7,
            mbr.lo.y + f * h * 0.7,
            mbr.lo.x + f * w * 0.7 + 0.2 * w,
            mbr.lo.y + f * h * 0.7 + 0.2 * h,
        );
        let want = entry.table().estimate(&q);
        let reply = ask(&format!(
            "ESTIMATE roads {} {} {} {}",
            q.lo.x, q.lo.y, q.hi.x, q.hi.y
        ));
        let got: f64 = reply
            .strip_prefix("OK ")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("query {i}: bad reply {reply:?}"));
        assert_eq!(got.to_bits(), want.to_bits(), "query {i}: {reply:?}");
    }

    let stopping = Instant::now();
    assert_eq!(ask("SHUTDOWN"), "OK bye");
    handle.join();
    let took = stopping.elapsed();
    assert!(
        took < SERVE_WRITE_TIMEOUT + Duration::from_secs(2),
        "shutdown waited {took:?} on a client that never reads"
    );
    drop(hog);
}

//! The traced run's per-layer probes: each layer's public entry point,
//! called on the run's own seeded inputs, with a span around every call.
//!
//! Each metric names the end-to-end metric it should move (see README.md):
//! a faster layer can save at most its share of the blocking steps of the
//! workload that exercises it.

use std::time::Instant;

use minskew_core::{BucketPlane, MinSkewBuilder};
use minskew_data::{Dataset, DensityGrid, GridPrefixSums};
use minskew_engine::{
    serve, EstimateScratch, MaintenanceAction, ServeOptions, SpatialTable, TableOptions,
};
use minskew_geom::Rect;
use minskew_rtree::{RStarTree, RTreeConfig};

use crate::run::{metric, Metric, Oracle, RunArgs};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::wire::{Client, Echo};
use crate::workload::{self, churn_rect, mix, Workload, BATCH, TABLE};

/// Grid regions `ANALYZE` uses (the engine's default).
const REGIONS: usize = 10_000;

/// Request ids group the spans of one probe.
#[derive(Clone, Copy)]
enum Req {
    Reader = 1,
    Publish,
    Echo,
    Server,
    Table,
    Histogram,
    RTree,
    Pieces,
    Obs,
}

fn call<T>(t: &mut Tracer, req: Req, name: &'static str, f: impl FnOnce() -> T) -> T {
    t.span(req as u64, 0, name, f)
}

/// Runs every probe and derives the per-layer metrics from the spans.
pub fn probe(
    t: &mut Tracer,
    oracle: &Oracle,
    live: &Dataset,
    queries: &[Rect],
    w: Workload,
    args: &RunArgs,
) -> Result<Vec<Metric>, String> {
    let scale = if args.quick { 10 } else { 1 };
    let queries = &queries[..queries.len().min(10_000 / scale)];
    let mut out = Vec::new();

    // Reader: the lock-free serving path with its query cache, on the
    // workload's queries in the order the workload sends them.
    let mut reader = oracle.entry.reader();
    for q in queries {
        call(t, Req::Reader, "reader.estimate", || reader.estimate(q));
    }
    let (hits, misses) = reader.cache_stats();
    out.push(metric(
        "cache.hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    ));
    // A connection that only sends batches has a reader of its own.
    let mut reader = oracle.entry.reader();
    for chunk in queries.chunks(BATCH).take(200 / scale) {
        call(t, Req::Reader, "reader.batch", || {
            reader.estimate_batch(chunk)
        });
    }

    // Publish: the snapshot's estimate kernel, no cache.
    let snapshot = oracle.entry.table().current_snapshot();
    let mut scratch = EstimateScratch::new();
    for q in queries {
        call(t, Req::Publish, "publish.estimate", || {
            snapshot.estimate(q, &mut scratch)
        });
    }
    let (mut classified, mut blocks, mut pruned, mut explained) = (0, 0, 0, 0);
    for q in queries.iter().take(2000 / scale) {
        let trace = call(t, Req::Publish, "publish.explain", || {
            snapshot.explain(q, &mut scratch)
        });
        if let Some(detail) = trace.detail {
            classified += detail.kernel.prune.buckets_classified;
            blocks += detail.kernel.prune.blocks;
            pruned += detail.kernel.prune.blocks_pruned;
            explained += 1;
        }
    }
    out.push(metric(
        "publish.buckets_classified_per_query",
        "count",
        classified as f64 / f64::from(explained.max(1)),
    ));
    out.push(metric(
        "publish.blocks_pruned_share",
        "ratio",
        pruned as f64 / blocks.max(1) as f64,
    ));

    echo_probe(t, 2000 / scale)?;
    server_probe(t, oracle, queries, args, scale)?;
    out.push(table_probe(t, oracle, queries, live, args, scale));
    let mut tree = RStarTree::new(RTreeConfig::with_max_entries(
        TableOptions::default().index_fanout,
    ));
    for (i, r) in live.rects().iter().enumerate().take(20_000 / scale) {
        call(t, Req::RTree, "rtree.insert", || tree.insert(*r, i as u64));
    }
    pieces_probe(t, live, w, &mut out);
    out.push(obs_probe(t, live, queries, w, scale));

    let by = t.self_times_by_name();
    let ns = |name: &str| -> Vec<f64> {
        let mut v = by.get(name).cloned().unwrap_or_default();
        v.sort_by(f64::total_cmp);
        v
    };
    let p50 = |name: &str| median(&ns(name));
    let p99 = |name: &str| percentile(&ns(name), 0.99);
    let us = 1e-3;
    let ms = 1e-6;
    out.extend([
        metric("gen.echo_rtt_p50_us", "us", p50("gen.echo") * us),
        metric("server.ping_rtt_p50_us", "us", p50("server.ping") * us),
        metric(
            "server.estimate_rtt_p50_us",
            "us",
            p50("server.estimate") * us,
        ),
        metric(
            "server.estimate_self_p50_us",
            "us",
            (p50("server.estimate") - p50("reader.estimate")) * us,
        ),
        metric("server.batch_rtt_p50_us", "us", p50("server.batch") * us),
        metric(
            "server.batch_self_us",
            "us",
            (p50("server.batch") - p50("reader.batch")) * us,
        ),
        metric(
            "server.write_self_p50_us",
            "us",
            (p50("server.insert") - p50("table.insert")) * us,
        ),
        metric(
            "server.analyze_self_ms",
            "ms",
            (p50("server.analyze") - p50("table.analyze")) * ms,
        ),
        metric("reader.estimate_p50_ns", "ns", p50("reader.estimate")),
        metric("reader.estimate_p99_ns", "ns", p99("reader.estimate")),
        metric(
            "reader.batch_ns_per_query",
            "ns",
            p50("reader.batch") / BATCH as f64,
        ),
        metric(
            "reader.first_after_publish_p50_us",
            "us",
            p50("reader.first_after_publish") * us,
        ),
        metric("publish.estimate_p50_ns", "ns", p50("publish.estimate")),
        metric("table.insert_p50_us", "us", p50("table.insert") * us),
        metric("table.insert_p99_us", "us", p99("table.insert") * us),
        metric("table.delete_p50_us", "us", p50("table.delete") * us),
        metric("table.analyze_ms", "ms", p50("table.analyze") * ms),
        metric("table.maintain_ms", "ms", p50("table.maintain") * ms),
        metric("table.bulk_load_s", "s", p50("table.bulk_load") * 1e-9),
        metric("histogram.clone_us", "us", p50("histogram.clone") * us),
        metric(
            "histogram.plane_build_us",
            "us",
            p50("histogram.plane_build") * us,
        ),
        metric("rtree.insert_p50_us", "us", p50("rtree.insert") * us),
        metric("data.csv_read_ms", "ms", p50("data.csv_read") * ms),
        metric("data.rows_copy_ms", "ms", p50("data.rows_copy") * ms),
        metric("data.density_grid_ms", "ms", p50("data.density_grid") * ms),
        metric("data.prefix_sums_ms", "ms", p50("data.prefix_sums") * ms),
        metric("minskew.build_ms", "ms", p50("minskew.build") * ms),
        metric(
            "minskew.split_search_ms",
            "ms",
            (p50("minskew.build") - p50("data.density_grid") - p50("data.prefix_sums")) * ms,
        ),
    ]);
    // Coverage: how much of one `SpatialTable::analyze` the replayed
    // pieces (rows copy, Min-Skew build, histogram clone) account for.
    let pieces: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "analyze.pieces")
        .map(|s| s.duration_ns() as f64)
        .collect();
    let covered: Vec<f64> = pieces
        .iter()
        .zip(by.get("analyze.pieces").into_iter().flatten())
        .map(|(whole, glue)| whole - glue)
        .collect();
    out.push(metric(
        "analyze.coverage",
        "ratio",
        median(&covered) / p50("table.analyze"),
    ));
    Ok(out)
}

/// The loopback floor: a thread that echoes lines back.
fn echo_probe(t: &mut Tracer, n: usize) -> Result<(), String> {
    let io = |e: std::io::Error| format!("echo probe: {e}");
    let mut echo = Echo::start().map_err(io)?;
    for _ in 0..n {
        call(t, Req::Echo, "gen.echo", || echo.call(b"PING\n")).map_err(io)?;
    }
    Ok(())
}

/// The server front-end, in process, on the oracle's catalog: round trips
/// whose layer-side cost the other probes measure directly.
fn server_probe(
    t: &mut Tracer,
    oracle: &Oracle,
    queries: &[Rect],
    args: &RunArgs,
    scale: usize,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("in-process server probe: {e}");
    let handle = serve(oracle.catalog.clone(), ServeOptions::default()).map_err(io)?;
    let mut client = Client::connect(handle.addr()).map_err(io)?;
    let mut expect_ok =
        |t: &mut Tracer, name: &'static str, line: &[u8]| -> Result<Vec<u8>, String> {
            let reply = call(t, Req::Server, name, || client.call(line)).map_err(io)?;
            if reply.starts_with(b"OK ") {
                Ok(reply)
            } else {
                Err(format!("{name}: {:?}", String::from_utf8_lossy(&reply)))
            }
        };
    for _ in 0..2000 / scale {
        expect_ok(t, "server.ping", b"PING\n")?;
    }
    for q in queries {
        expect_ok(t, "server.estimate", &workload::estimate_line(q))?;
    }
    for chunk in queries.chunks(BATCH).take(200 / scale) {
        expect_ok(t, "server.batch", &workload::batch_line(chunk))?;
    }
    for i in 0..(500 / scale) as u64 {
        let r = churn_rect(mix(args.seed, 7), i);
        let reply = expect_ok(t, "server.insert", &workload::insert_line(&r))?;
        let id = String::from_utf8_lossy(&reply[3..]).trim().to_string();
        expect_ok(
            t,
            "server.delete",
            format!("DELETE {TABLE} {id}\n").as_bytes(),
        )?;
    }
    for _ in 0..5 {
        expect_ok(t, "server.analyze", format!("ANALYZE {TABLE}\n").as_bytes())?;
    }
    drop(client);
    handle.shutdown();
    Ok(())
}

/// The table's write path, `ANALYZE`, and `MAINTAIN`, plus the reader's
/// first estimate after each publish.
fn table_probe(
    t: &mut Tracer,
    oracle: &Oracle,
    queries: &[Rect],
    live: &Dataset,
    args: &RunArgs,
    scale: usize,
) -> Metric {
    let mut table = oracle.entry.table();
    let mut reader = table.reader();
    let seed = mix(args.seed, 8);
    let mut ids = Vec::new();
    for i in 0..(1000 / scale) as u64 {
        let r = churn_rect(seed, i);
        ids.push(call(t, Req::Table, "table.insert", || table.insert(r)));
    }
    for id in ids.drain(..) {
        call(t, Req::Table, "table.delete", || table.delete(id));
    }
    for (i, q) in queries.iter().enumerate().take(300 / scale) {
        let id = table.insert(churn_rect(seed, 10_000 + i as u64));
        call(t, Req::Reader, "reader.first_after_publish", || {
            reader.estimate(q)
        });
        table.delete(id);
    }
    for _ in 0..5 {
        call(t, Req::Table, "table.analyze", || table.analyze());
    }
    let hist = table.stats().expect("analyzed").clone();
    for _ in 0..200 / scale {
        call(t, Req::Histogram, "histogram.clone", || {
            std::hint::black_box(hist.clone())
        });
        call(t, Req::Histogram, "histogram.plane_build", || {
            std::hint::black_box(BucketPlane::build(hist.buckets(), hist.extension_rule()))
        });
    }
    // Maintenance after churn the statistics cannot absorb: each round
    // inserts a tenth of the rows beyond the data's extent (further out
    // every round), so staleness crosses the default re-analyze threshold
    // of 0.2 in the third round.
    let per_round = (live.len() / 10).max(100);
    let mbr = live.stats().mbr;
    let mut reanalyzed = 0;
    for round in 1..=4 {
        let x = mbr.hi.x + f64::from(round) * (mbr.width() + 1.0);
        for i in 0..per_round {
            let y = mbr.lo.y + (i % 1000) as f64 * mbr.height() / 1000.0;
            table.insert(Rect::new(x, y, x + 1.0, y + 1.0));
        }
        let report = call(t, Req::Table, "table.maintain", || table.maintain());
        reanalyzed += u32::from(report.action == MaintenanceAction::Reanalyzed);
    }
    metric("table.maintain_reanalyze", "count", f64::from(reanalyzed))
}

/// `ANALYZE` taken apart: the rows copy, the density grid and prefix sums,
/// and the Min-Skew build, each called directly.
fn pieces_probe(t: &mut Tracer, live: &Dataset, w: Workload, out: &mut Vec<Metric>) {
    let builder = MinSkewBuilder::new(w.buckets()).regions(REGIONS);
    let side = (REGIONS as f64).sqrt().round() as usize;
    let mbr = live.stats().mbr;
    for rep in 0..5u64 {
        let req = Req::Pieces as u64 * 100 + rep;
        let parent = t.open(req, 0, "analyze.pieces");
        let copy = t.span(req, parent, "data.rows_copy", || {
            Dataset::new(live.rects().to_vec())
        });
        let hist = t.span(req, parent, "minskew.build", || builder.build(&copy));
        t.span(req, parent, "histogram.clone", || {
            std::hint::black_box(hist.clone())
        });
        t.close(parent);
        let grid = t.span(req, 0, "data.density_grid", || {
            DensityGrid::build(copy.rects(), mbr, side, side)
        });
        t.span(req, 0, "data.prefix_sums", || {
            GridPrefixSums::from_grid(&grid)
        });
    }
    let (_, trace) = builder.build_from_source_traced(live);
    out.push(metric("minskew.splits", "count", trace.splits.len() as f64));
}

/// Metrics-on versus metrics-off cost of the table's uncached estimate
/// path, alternating segments so drift hits both sides alike.
fn obs_probe(
    t: &mut Tracer,
    live: &Dataset,
    queries: &[Rect],
    w: Workload,
    scale: usize,
) -> Metric {
    let rows = &live.rects()[..live.len().min(40_000)];
    let table = |metrics: bool| {
        let mut options = TableOptions::default();
        options.analyze.buckets = w.buckets();
        options.metrics = metrics;
        options.query_cache = false;
        let mut table = SpatialTable::new(options);
        for r in rows {
            table.insert(*r);
        }
        table.analyze();
        table
    };
    let tables = [table(false), table(true)];
    let mut segment_ns = [Vec::new(), Vec::new()];
    for segment in 0..10 {
        let on = segment % 2;
        let start = Instant::now();
        t.span(
            Req::Obs as u64,
            0,
            if on == 1 {
                "obs.metrics_on"
            } else {
                "obs.metrics_off"
            },
            || {
                for q in queries.iter().take(4000 / scale) {
                    std::hint::black_box(tables[on].estimate(q));
                }
            },
        );
        segment_ns[on].push(start.elapsed().as_nanos() as f64);
    }
    let (off, on) = (median(&segment_ns[0]), median(&segment_ns[1]));
    metric("obs.metrics_overhead_pct", "%", 100.0 * (on - off) / off)
}

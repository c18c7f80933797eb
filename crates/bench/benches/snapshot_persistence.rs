//! Snapshot persistence cost: how fast can statistics be saved, verified,
//! and loaded from the durable snapshot container — and how does loading a
//! snapshot compare with the alternative recovery path of rebuilding the
//! statistics from the raw data (`ANALYZE`)?
//!
//! The operational question the numbers answer: after a restart, is
//! restoring the catalog from a snapshot actually cheaper than re-running
//! ANALYZE? The snapshot path does one decode + checksum pass over a few
//! KB; the rebuild scans every rectangle. The ratio is the payoff of the
//! durability subsystem. A restarted table holds no maintained density
//! grid, so the rebuild is timed cold, on a freshly loaded table.
//!
//! Writes machine-readable results to `BENCH_snapshot.json` at the
//! workspace root. `host_cpus` is recorded honestly; every timed path here
//! is single-threaded. `MINSKEW_QUICK=1` shrinks the inputs for a smoke
//! run.

use minskew_bench::{charminar_scaled, record_path, time_it, Scale, DEFAULT_REGIONS};
use minskew_core::{verify_snapshot, SpatialHistogram};
use minskew_engine::{AnalyzeOptions, SpatialTable, StatsTechnique, TableOptions};
use std::hint::black_box;

const BUCKETS: usize = 200;
const REPS: usize = 7;

/// Best-of-`REPS` wall-clock seconds for `f`.
fn best_of<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let (_, secs) = time_it(&mut f);
        best = best.min(secs);
    }
    best
}

fn main() {
    let scale = Scale::from_env();
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let quick = scale.data_divisor != 1;
    eprintln!("[snapshot] host_cpus = {host_cpus}, quick = {quick}");

    let data = charminar_scaled(scale);
    let load = || {
        let mut table = SpatialTable::new(TableOptions {
            analyze: AnalyzeOptions {
                technique: StatsTechnique::MinSkew,
                buckets: BUCKETS,
                regions: DEFAULT_REGIONS,
                refinements: 0,
            },
            ..TableOptions::default()
        });
        table.insert_many(data.rects().iter().copied());
        table
    };

    // The rebuild-from-data alternative: a cold ANALYZE, as after a
    // restart. Each rep analyzes a freshly loaded table, so no rep reuses
    // the density grid an earlier one left behind; the load is not timed.
    let mut analyze_s = f64::INFINITY;
    for _ in 0..REPS {
        let mut fresh = load();
        let (_, secs) = time_it(|| {
            fresh.analyze();
            black_box(fresh.stats().map(|s| s.num_buckets()))
        });
        analyze_s = analyze_s.min(secs);
    }
    let mut table = load();
    table.analyze();

    let dir = std::env::temp_dir().join(format!("minskew-bench-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let path = dir.join("bench.snap");

    // Save: encode + checksum + atomic install (temp, fsync, rename).
    let save_s = best_of(|| {
        table.save_snapshot(&path).expect("save");
    });
    let bytes = std::fs::read(&path).expect("snapshot readable");
    let snapshot_bytes = bytes.len();

    // Verify: the read-only integrity pass a health check would run.
    let verify_s = best_of(|| black_box(verify_snapshot(black_box(&bytes)).expect("verifies")));

    // Load (decode only): bytes -> histogram, the pure recovery cost.
    let decode_s = best_of(|| {
        black_box(SpatialHistogram::from_snapshot_bytes(black_box(&bytes)).expect("decodes"))
    });

    // Load (end to end): file read + decode + install into the engine.
    let load_s = best_of(|| {
        table.try_load_snapshot(&path).expect("load");
    });

    std::fs::remove_dir_all(&dir).ok();

    let ratio = analyze_s / load_s.max(1e-12);
    eprintln!(
        "[snapshot] analyze {:.3} ms, save {:.3} ms, verify {:.4} ms, decode {:.4} ms, \
         load {:.3} ms ({}x cheaper than rebuild)",
        analyze_s * 1e3,
        save_s * 1e3,
        verify_s * 1e3,
        decode_s * 1e3,
        load_s * 1e3,
        ratio as u64,
    );

    println!("\n## Snapshot persistence latency (best of {REPS})\n");
    println!("| operation | latency (ms) |");
    println!("|-----------|--------------|");
    for (name, secs) in [
        ("rebuild from data (ANALYZE)", analyze_s),
        ("save (encode + atomic install)", save_s),
        ("verify (checksum pass)", verify_s),
        ("decode (bytes -> histogram)", decode_s),
        ("load (read + decode + install)", load_s),
    ] {
        println!("| {name} | {:.4} |", secs * 1e3);
    }
    println!("\nsnapshot restore is {ratio:.0}x cheaper than rebuilding from data");

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"rects\": {},\n", data.len()));
    json.push_str(&format!("  \"buckets\": {BUCKETS},\n"));
    json.push_str(&format!("  \"snapshot_bytes\": {snapshot_bytes},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(
        "  \"note\": \"durable snapshot save/verify/load latency vs rebuilding \
         statistics from the raw data (a cold ANALYZE of a freshly loaded table); \
         save includes the atomic temp+fsync+rename install; all paths \
         single-threaded\",\n",
    );
    json.push_str(&format!("  \"analyze_ms\": {:.4},\n", analyze_s * 1e3));
    json.push_str(&format!("  \"save_ms\": {:.4},\n", save_s * 1e3));
    json.push_str(&format!("  \"verify_ms\": {:.4},\n", verify_s * 1e3));
    json.push_str(&format!("  \"decode_ms\": {:.4},\n", decode_s * 1e3));
    json.push_str(&format!("  \"load_ms\": {:.4},\n", load_s * 1e3));
    json.push_str(&format!("  \"load_vs_rebuild_speedup\": {ratio:.1}\n"));
    json.push_str("}\n");

    let out = record_path("BENCH_snapshot.json");
    std::fs::write(&out, json).expect("write BENCH_snapshot.json");
    println!("\nwrote {}", out.display());
}

//! Observability overhead: the engine's serving path timed with metrics
//! enabled (default sampling, accuracy reservoir on) against the same path
//! with `TableOptions::metrics = false` — with the bit-identity contract
//! re-checked before timing (instrumentation that changes an estimate is a
//! bug, not an acceptable cost). A third column arms the flight recorder
//! at its worst case (`flight_sample = 1`: every sampled query, 1 in
//! `metrics_sampling`, is moved into the flight ring) and holds it to
//! the same ≤5% budget.
//!
//! The contract under test is the observability layer's ≤5% serving
//! overhead budget: with metrics on, every call pays a few plain integer
//! bumps under the already-held serving lock, one in
//! `metrics_sampling` calls pays two clock reads and one per-technique
//! latency record, and every call pays one splitmix64 step for the
//! accuracy reservoir.
//! The serving counters are bumped with metrics off too; nothing on the
//! hot path touches the registry (the counters are merged into the
//! metrics snapshot when it is read).
//!
//! Writes machine-readable results to `BENCH_obs.json` at the workspace
//! root. `host_cpus` is recorded honestly; the serving path is
//! single-threaded, so the overhead ratio is meaningful on a 1-CPU
//! container too. `MINSKEW_QUICK=1` shrinks the inputs for a smoke run.

use minskew_bench::{charminar_scaled, record_path, time_it, Scale, DEFAULT_REGIONS};
use minskew_engine::{AnalyzeOptions, SpatialTable, StatsTechnique, TableOptions};
use minskew_geom::Rect;
use minskew_workload::QueryWorkload;
use std::hint::black_box;

const BUCKETS: usize = 200;
const REPS: usize = 41;

struct Row {
    path: &'static str,
    qps_metrics_off: f64,
    qps_metrics_on: f64,
    qps_recorder_on: f64,
}

impl Row {
    /// Metrics overhead against the uninstrumented table.
    fn overhead_pct(&self) -> f64 {
        (self.qps_metrics_off - self.qps_metrics_on) / self.qps_metrics_off * 100.0
    }

    /// Recorder-on overhead against recorder-off — both with metrics on,
    /// so this isolates the flight ring's own cost (the ≤5% contract).
    fn recorder_overhead_pct(&self) -> f64 {
        (self.qps_metrics_on - self.qps_recorder_on) / self.qps_metrics_on * 100.0
    }
}

fn build_table(data: &minskew_data::Dataset, metrics: bool, flight_sample: u32) -> SpatialTable {
    let mut table = SpatialTable::new(TableOptions {
        analyze: AnalyzeOptions {
            technique: StatsTechnique::MinSkew,
            buckets: BUCKETS,
            regions: DEFAULT_REGIONS,
            refinements: 0,
        },
        metrics,
        flight_sample,
        ..TableOptions::default()
    });
    for r in data.rects() {
        table.insert(*r);
    }
    table.analyze();
    table
}

/// Times `rounds` passes over the query pool on both tables and returns
/// the row — after asserting the two configurations agree to the bit.
fn bench_path(
    path: &'static str,
    off: &SpatialTable,
    on: &SpatialTable,
    recorder: &SpatialTable,
    pool: &[Rect],
    rounds: usize,
) -> Row {
    let reference: Vec<u64> = pool.iter().map(|q| off.estimate(q).to_bits()).collect();
    for (label, table) in [("metrics", on), ("recorder", recorder)] {
        let instrumented: Vec<u64> = pool.iter().map(|q| table.estimate(q).to_bits()).collect();
        assert_eq!(
            instrumented, reference,
            "{label} changed an estimate on the {path} path"
        );
    }

    // Split the work into many short passes: on a shared 1-CPU container,
    // scheduler-steal windows last longer than one long pass, so a few
    // long repetitions let one configuration eat the whole window. Short
    // passes interleaved across the three configurations land steal on all
    // of them alike, and the median discards the poisoned passes.
    let pass_rounds = (rounds / 8).max(1);
    let calls = (pool.len() * pass_rounds) as f64;
    let one_pass = |table: &SpatialTable| {
        let (_, secs) = time_it(|| {
            let mut acc = 0.0;
            for _ in 0..pass_rounds {
                for q in pool {
                    acc += table.estimate(q);
                }
            }
            black_box(acc)
        });
        secs
    };
    let mut samples = [[0.0f64; 3]; REPS];
    for pass in samples.iter_mut() {
        for (slot, table) in [off, on, recorder].into_iter().enumerate() {
            pass[slot] = one_pass(table);
        }
    }
    let median = |slot: usize| {
        let mut s: Vec<f64> = samples.iter().map(|pass| pass[slot]).collect();
        s.sort_by(f64::total_cmp);
        s[REPS / 2]
    };
    Row {
        path,
        qps_metrics_off: calls / median(0),
        qps_metrics_on: calls / median(1),
        qps_recorder_on: calls / median(2),
    }
}

fn main() {
    let scale = Scale::from_env();
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!(
        "[obs] host_cpus = {host_cpus}, quick = {}",
        scale.data_divisor != 1
    );

    let data = charminar_scaled(scale);
    let pool_size = scale.queries.min(1_000);
    let workload = QueryWorkload::generate(&data, 0.05, pool_size, 0xB0B5);
    let pool: Vec<Rect> = workload.queries().to_vec();
    let rounds = (200_000 / (pool.len() * scale.data_divisor)).max(2);

    let off = build_table(&data, false, 0);
    let on = build_table(&data, true, 0);
    // Worst-case recorder: every sampled query (1 in `metrics_sampling`)
    // encoded into the flight ring.
    let recorder = build_table(&data, true, 1);
    let row = bench_path("estimate", &off, &on, &recorder, &pool, rounds);
    eprintln!(
        "[obs] estimate: metrics off {:.0} q/s, on {:.0} q/s ({:.2}%), \
         recorder on {:.0} q/s ({:+.2}% vs recorder-off)",
        row.qps_metrics_off,
        row.qps_metrics_on,
        row.overhead_pct(),
        row.qps_recorder_on,
        row.recorder_overhead_pct()
    );
    let rows = [row];

    println!("\n## Observability overhead (queries/sec, median of {REPS})\n");
    println!("| path | metrics off | metrics on | overhead | recorder on | vs recorder-off |");
    println!("|------|-------------|------------|----------|-------------|-----------------|");
    for r in &rows {
        println!(
            "| {} | {:.0} | {:.0} | {:.2}% | {:.0} | {:+.2}% |",
            r.path,
            r.qps_metrics_off,
            r.qps_metrics_on,
            r.overhead_pct(),
            r.qps_recorder_on,
            r.recorder_overhead_pct()
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"rects\": {},\n", data.len()));
    json.push_str(&format!("  \"buckets\": {BUCKETS},\n"));
    json.push_str(&format!(
        "  \"metrics_sampling\": {},\n",
        TableOptions::default().metrics_sampling
    ));
    json.push_str(&format!("  \"quick\": {},\n", scale.data_divisor != 1));
    json.push_str(
        "  \"note\": \"single-query serving, metrics on (default sampling + \
         accuracy reservoir) vs TableOptions::metrics = false; recorder_on \
         additionally arms the flight recorder at flight_sample = 1 (every \
         sampled query, 1 in metrics_sampling, moved into the flight \
         ring, the worst case) and its \
         recorder_overhead_pct is measured against metrics-on with the \
         recorder off, isolating the ring's own cost; estimates bit-checked \
         equal before timing; contract is <= 5% overhead\",\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"path\": \"{}\", \"qps_metrics_off\": {:.1}, \
             \"qps_metrics_on\": {:.1}, \"overhead_pct\": {:.2}, \
             \"qps_recorder_on\": {:.1}, \"recorder_overhead_pct\": {:.2}}}{}\n",
            r.path,
            r.qps_metrics_off,
            r.qps_metrics_on,
            r.overhead_pct(),
            r.qps_recorder_on,
            r.recorder_overhead_pct(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = record_path("BENCH_obs.json");
    std::fs::write(&out, json).expect("write BENCH_obs.json");
    println!("\nwrote {}", out.display());
}

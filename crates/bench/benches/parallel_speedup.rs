//! Parallel speedup of the one parallel loop in the stack, batch
//! ground-truth counting (`GroundTruth::counts_with_threads`): serial vs
//! threaded wall-clock, with the differential contract re-checked inline
//! (a speedup that changes the answer is a bug, not a win).
//!
//! Writes machine-readable results to `BENCH_parallel.json` at the
//! workspace root so CI can assert the file exists and reviewers can diff
//! numbers across machines. `host_cpus` is recorded alongside the timings:
//! speedup is only attainable up to the physical core count, so a 1-CPU
//! container will honestly report ~1.0x and that is the expected reading
//! there, not a regression.
//!
//! `MINSKEW_QUICK=1` shrinks the inputs for a smoke run.

use minskew_bench::{record_path, time_it, Scale};
use minskew_datagen::charminar_with;
use minskew_workload::{GroundTruth, QueryWorkload};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

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
    let n = 400_000 / scale.data_divisor;
    let queries = 20_000 / scale.data_divisor;
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());

    eprintln!("[parallel] host_cpus = {host_cpus}, N = {n}, queries = {queries}");
    let data = charminar_with(n, 0xBA11);
    let truth = GroundTruth::index(&data);
    let workload = QueryWorkload::generate(&data, 0.05, queries, 0x5EED);
    let serial_counts = truth.counts_with_threads(workload.queries(), 1);
    let times: Vec<(usize, f64)> = THREADS
        .iter()
        .map(|&t| {
            let secs = best_of(|| {
                let counts = truth.counts_with_threads(workload.queries(), t);
                assert_eq!(counts, serial_counts, "differential!");
                counts
            });
            eprintln!("[parallel] counts threads={t}: {secs:.4}s");
            (t, secs)
        })
        .collect();
    let speedup = |threads: usize| {
        let at = times.iter().find(|(k, _)| *k == threads).map(|(_, s)| *s);
        at.map_or(1.0, |s| times[0].1 / s)
    };

    println!("\n## Parallel speedup (wall-clock, best of {REPS})\n");
    println!("| layer | t=1 (s) | t=2 | t=4 | t=8 | speedup@2 | speedup@4 |");
    println!("|-------|---------|-----|-----|-----|-----------|-----------|");
    println!(
        "| ground_truth_batch_counts | {:.4} | {:.4} | {:.4} | {:.4} | {:.2}x | {:.2}x |",
        times[0].1,
        times[1].1,
        times[2].1,
        times[3].1,
        speedup(2),
        speedup(4),
    );

    let seconds: Vec<String> = times
        .iter()
        .map(|(t, secs)| format!("\"{t}\": {secs:.6}"))
        .collect();
    let json = format!(
        "{{\n  \"host_cpus\": {host_cpus},\n  \"dataset_rects\": {n},\n  \
         \"queries\": {queries},\n  \"quick\": {},\n  \"note\": \"speedup is bounded \
         by host_cpus; on a 1-CPU host ~1.0x is the expected honest result\",\n  \
         \"sections\": [\n    {{\n      \"name\": \"ground_truth_batch_counts\",\n      \
         \"seconds_by_threads\": {{{}}},\n      \"speedup_at_2_threads\": {:.4},\n      \
         \"speedup_at_4_threads\": {:.4}\n    }}\n  ]\n}}\n",
        scale.data_divisor != 1,
        seconds.join(", "),
        speedup(2),
        speedup(4),
    );

    // The bench binary runs with the bench crate as manifest dir; the JSON
    // belongs at the workspace root next to the other committed artefacts.
    let out = record_path("BENCH_parallel.json");
    std::fs::write(&out, json).expect("write BENCH_parallel.json");
    println!("\nwrote {}", out.display());
}

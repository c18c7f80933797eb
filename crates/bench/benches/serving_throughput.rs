//! Serving-path throughput: queries/sec for the scalar AoS reference fold
//! vs the production block-pruned SoA kernel path vs its portable scalar
//! body, at bucket budgets β ∈ {50, 200, 1000} on Charminar and the
//! NJ-Road stand-in — with the bit-identity contract re-checked before
//! timing (a speedup that changes the answer is a bug, not a win).
//!
//! `qps_linear` times the linear oracle (`estimate_count_reference`), so
//! `kernel_speedup` measures exactly what the pruned SoA clip-and-accumulate
//! plane buys over the fold every differential suite pins it to.
//! `qps_kernel_scalar` times the same scan through its portable scalar
//! body (`BucketPlane::accumulate_pruned_scalar`), so
//! `qps_kernel / qps_kernel_scalar` is what the explicit-SIMD body, the
//! workspace's only `unsafe`, buys. `simd_level` records which body
//! `qps_kernel` ran on the measurement host (avx2, or scalar where the
//! CPU has no AVX2).
//!
//! Writes machine-readable results to `BENCH_estimate.json` at the
//! workspace root so CI can assert the file exists and reviewers can diff
//! numbers across machines. `host_cpus` is recorded honestly; the kernel's
//! win is algorithmic (fewer buckets touched per query), so it shows up on
//! a 1-CPU host too.
//!
//! `MINSKEW_QUICK=1` shrinks the inputs for a smoke run.

use minskew_bench::{charminar_scaled, nj_road, time_it, Scale, DEFAULT_REGIONS};
use minskew_core::{simd_level, KernelScratch, MinSkewBuilder, QueryPrep, TermBuf};
use minskew_data::Dataset;
use minskew_geom::Rect;
use minskew_workload::QueryWorkload;
use std::hint::black_box;
use std::path::Path;

const BUCKETS: [usize; 3] = [50, 200, 1000];
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

struct Row {
    dataset: &'static str,
    buckets: usize,
    qps_linear: f64,
    qps_kernel: f64,
    qps_kernel_scalar: f64,
}

fn bench_dataset(name: &'static str, data: &Dataset, scale: Scale, rows: &mut Vec<Row>) {
    // A fixed pool of distinct queries, served repeatedly: `rounds` passes
    // give stable timings.
    let pool_size = scale.queries.min(1_000);
    let workload = QueryWorkload::generate(data, 0.05, pool_size, 0x5E4F);
    let pool: Vec<Rect> = workload.queries().to_vec();
    let rounds = (100_000 / (pool.len() * scale.data_divisor)).max(2);

    for buckets in BUCKETS {
        let hist = MinSkewBuilder::new(buckets)
            .regions(DEFAULT_REGIONS)
            .build(data);
        let mut scratch = KernelScratch::new();
        let mut terms = TermBuf::new();
        let plane = hist.bucket_plane();
        // Differential check first: the timed loops must agree to the bit.
        for q in &pool {
            let reference = hist.estimate_count_reference(q);
            assert_eq!(
                reference.to_bits(),
                hist.estimate_count_indexed(q, &mut scratch).to_bits(),
                "kernel indexed estimate diverged: {name} buckets={buckets} q={q}"
            );
            assert_eq!(
                reference.to_bits(),
                plane
                    .accumulate_pruned_scalar(&QueryPrep::new(q), &mut terms)
                    .to_bits(),
                "scalar kernel body diverged: {name} buckets={buckets} q={q}"
            );
        }

        let calls = (pool.len() * rounds) as f64;
        let secs_linear = best_of(|| {
            let mut acc = 0.0;
            for _ in 0..rounds {
                for q in &pool {
                    acc += hist.estimate_count_reference(q);
                }
            }
            black_box(acc)
        });
        let secs_kernel = best_of(|| {
            let mut acc = 0.0;
            for _ in 0..rounds {
                for q in &pool {
                    acc += hist.estimate_count_indexed(q, &mut scratch);
                }
            }
            black_box(acc)
        });
        let secs_kernel_scalar = best_of(|| {
            let mut acc = 0.0;
            for _ in 0..rounds {
                for q in &pool {
                    acc += plane.accumulate_pruned_scalar(&QueryPrep::new(q), &mut terms);
                }
            }
            black_box(acc)
        });

        let row = Row {
            dataset: name,
            buckets,
            qps_linear: calls / secs_linear,
            qps_kernel: calls / secs_kernel,
            qps_kernel_scalar: calls / secs_kernel_scalar,
        };
        eprintln!(
            "[serving] {name} beta={buckets}: linear {:.0} q/s, kernel {:.0} q/s \
             ({:.2}x), scalar kernel {:.0} q/s ({:.2}x)",
            row.qps_linear,
            row.qps_kernel,
            row.qps_kernel / row.qps_linear,
            row.qps_kernel_scalar,
            row.qps_kernel_scalar / row.qps_linear,
        );
        rows.push(row);
    }
}

fn main() {
    let scale = Scale::from_env();
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!(
        "[serving] host_cpus = {host_cpus}, quick = {}",
        scale.data_divisor != 1
    );

    let charminar = charminar_scaled(scale);
    let road = nj_road(scale);
    let mut rows = Vec::new();
    bench_dataset("charminar", &charminar, scale, &mut rows);
    bench_dataset("nj_road_like", &road, scale, &mut rows);

    println!("\n## Serving throughput (queries/sec, best of {REPS})\n");
    println!(
        "| dataset | beta | linear | kernel | scalar kernel | kernel speedup | simd speedup |"
    );
    println!(
        "|---------|------|--------|--------|---------------|----------------|--------------|"
    );
    for r in &rows {
        println!(
            "| {} | {} | {:.0} | {:.0} | {:.0} | {:.2}x | {:.2}x |",
            r.dataset,
            r.buckets,
            r.qps_linear,
            r.qps_kernel,
            r.qps_kernel_scalar,
            r.qps_kernel / r.qps_linear,
            r.qps_kernel / r.qps_kernel_scalar,
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"simd_level\": \"{}\",\n", simd_level()));
    json.push_str(&format!(
        "  \"charminar_rects\": {},\n  \"nj_road_like_rects\": {},\n",
        charminar.len(),
        road.len()
    ));
    json.push_str(&format!("  \"quick\": {},\n", scale.data_divisor != 1));
    json.push_str(
        "  \"note\": \"single-query serving on one thread; qps_linear times the \
         AoS reference fold, qps_kernel the production block-pruned SoA \
         clip-and-accumulate plane (bit-identical; body in simd_level), \
         qps_kernel_scalar the same scan through its portable scalar body; \
         kernel_speedup is qps_kernel / qps_linear\",\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"buckets\": {}, \"qps_linear\": {:.1}, \
             \"qps_kernel\": {:.1}, \"qps_kernel_scalar\": {:.1}, \
             \"kernel_speedup\": {:.4}}}{}\n",
            r.dataset,
            r.buckets,
            r.qps_linear,
            r.qps_kernel,
            r.qps_kernel_scalar,
            r.qps_kernel / r.qps_linear,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_estimate.json");
    std::fs::write(&out, json).expect("write BENCH_estimate.json");
    println!("\nwrote {}", out.display());
}

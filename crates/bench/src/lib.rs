//! Shared machinery for the experiment benches.
//!
//! Every table and figure of the paper's evaluation section has a
//! corresponding `harness = false` bench target in `benches/`; this library
//! holds what they share — dataset construction at the configured scale,
//! the full technique roster, and table printing.
//!
//! # Scale control
//!
//! The defaults reproduce the paper's parameters (414 442-rectangle NJ-road
//! stand-in, 40 000-rectangle Charminar, 10 000 queries per point). Set
//! `MINSKEW_QUICK=1` to divide dataset sizes by 10 and query counts by 10
//! for a fast smoke run of the whole suite.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use minskew_core::{
    build_equi_area, build_equi_count, build_rtree_partitioning, build_uniform, FractalEstimator,
    MinSkewBuilder, RTreeBuildMethod, RTreePartitioningOptions, SamplingEstimator,
    SpatialEstimator,
};
use minskew_data::Dataset;
use minskew_datagen::{charminar_with, RoadNetworkSpec};
use minskew_workload::{evaluate, ErrorReport, GroundTruth, QueryWorkload};

/// Experiment scale, derived from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Divisor applied to dataset cardinalities.
    pub data_divisor: usize,
    /// Number of queries per experiment point.
    pub queries: usize,
}

impl Scale {
    /// Reads the scale from `MINSKEW_QUICK`.
    pub fn from_env() -> Scale {
        if std::env::var("MINSKEW_QUICK").is_ok_and(|v| v != "0" && !v.is_empty()) {
            Scale {
                data_divisor: 10,
                queries: 1_000,
            }
        } else {
            Scale {
                data_divisor: 1,
                queries: QueryWorkload::PAPER_QUERY_COUNT,
            }
        }
    }
}

/// The NJ-Road stand-in dataset at the configured scale (paper: 414 442
/// segment bounding boxes).
pub fn nj_road(scale: Scale) -> Dataset {
    let spec = RoadNetworkSpec {
        segments: 414_442 / scale.data_divisor,
        ..RoadNetworkSpec::default()
    };
    spec.generate(0xBE11_1AB5)
}

/// The Charminar dataset at the configured scale (paper: 40 000 rects).
pub fn charminar_scaled(scale: Scale) -> Dataset {
    charminar_with(40_000 / scale.data_divisor, 0xC4A2)
}

/// Default Min-Skew region count used across §5.5 ("the number of regions
/// used by the Min-Skew construction algorithm was set to 10,000").
pub const DEFAULT_REGIONS: usize = 10_000;

/// Builds the full §5 technique roster at a bucket budget.
///
/// Order matches the paper's plots: Min-Skew, Equi-Count, Equi-Area,
/// R-Tree, Sample, Fractal, Uniform.
pub fn all_techniques(data: &Dataset, buckets: usize) -> Vec<Box<dyn SpatialEstimator>> {
    vec![
        Box::new(
            MinSkewBuilder::new(buckets)
                .regions(DEFAULT_REGIONS)
                .build(data),
        ),
        Box::new(build_equi_count(data, buckets)),
        Box::new(build_equi_area(data, buckets)),
        Box::new(build_rtree_partitioning(
            data,
            buckets,
            RTreePartitioningOptions {
                // Error experiments need not pay insertion time.
                method: RTreeBuildMethod::StrBulk,
                ..Default::default()
            },
        )),
        Box::new(SamplingEstimator::build(data, buckets, 0x5A11)),
        Box::new(FractalEstimator::build(data)),
        Box::new(build_uniform(data)),
    ]
}

/// Runs one experiment point: evaluates `estimators` on a fresh workload.
pub fn run_point(
    data: &Dataset,
    truth: &GroundTruth,
    estimators: &[Box<dyn SpatialEstimator>],
    qsize: f64,
    queries: usize,
    seed: u64,
) -> Vec<ErrorReport> {
    let w = QueryWorkload::generate(data, qsize, queries, seed);
    let counts = truth.counts(w.queries());
    estimators
        .iter()
        .map(|e| evaluate(e.as_ref(), &w, &counts))
        .collect()
}

/// Prints a markdown-style table: first column label plus one column per
/// technique, values as percentages.
pub fn print_error_table(title: &str, col0: &str, names: &[String], rows: &[(String, Vec<f64>)]) {
    println!("\n## {title}\n");
    print!("| {col0:<14} |");
    for n in names {
        print!(" {n:>10} |");
    }
    println!();
    print!("|{}|", "-".repeat(16));
    for _ in names {
        print!("{}|", "-".repeat(12));
    }
    println!();
    for (label, vals) in rows {
        print!("| {label:<14} |");
        for v in vals {
            print!(" {:>9.1}% |", v * 100.0);
        }
        println!();
    }
    println!();
}

/// Wall-clock helper for construction-time tables.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Where a record bench writes its `BENCH_*.json` file: the workspace root
/// of the checkout the bench runs in, found from the `CARGO_MANIFEST_DIR`
/// that cargo sets for every bench process at run time. (The compile-time
/// `env!` would name the checkout a cached binary was built in.) A bench
/// binary run without cargo writes to the working directory.
pub fn record_path(name: &str) -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(manifest) => Path::new(&manifest).join("../..").join(name),
        None => PathBuf::from(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_reads_env() {
        // Note: avoids mutating the process env; just checks the default.
        let s = Scale {
            data_divisor: 10,
            queries: 1_000,
        };
        assert_eq!(s.data_divisor, 10);
        let def = Scale::from_env();
        assert!(def.queries == 1_000 || def.queries == 10_000);
    }

    #[test]
    fn roster_has_all_seven_techniques() {
        let ds = charminar_with(1_000, 1);
        let ts = all_techniques(&ds, 20);
        let names: Vec<&str> = ts.iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            vec![
                "Min-Skew",
                "Equi-Count",
                "Equi-Area",
                "R-Tree",
                "Sample",
                "Fractal",
                "Uniform"
            ]
        );
    }

    #[test]
    fn run_point_produces_report_per_technique() {
        let ds = charminar_with(2_000, 2);
        let truth = GroundTruth::index(&ds);
        let ts = all_techniques(&ds, 20);
        let reports = run_point(&ds, &truth, &ts, 0.1, 100, 3);
        assert_eq!(reports.len(), ts.len());
        for r in &reports {
            assert!(r.avg_relative_error.is_finite());
        }
    }
}

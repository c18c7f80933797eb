//! # minskew — Selectivity Estimation in Spatial Databases
//!
//! A production-quality Rust implementation of *Acharya, Poosala,
//! Ramaswamy: "Selectivity Estimation in Spatial Databases" (SIGMOD 1999)*:
//! the **Min-Skew** BSP histogram for spatial selectivity estimation,
//! every baseline technique the paper evaluates (Uniform, Equi-Area,
//! Equi-Count, R-tree partitioning, Sampling, the Belussi–Faloutsos fractal
//! method), the substrates they need (geometry, density grids, a full
//! R\*-tree), dataset generators, and an evaluation harness reproducing the
//! paper's experiments.
//!
//! This crate is a facade: it re-exports the public API of the workspace
//! crates so applications can depend on one crate. See the individual
//! modules for details:
//!
//! * [`geom`] — points, rectangles, MBR algebra.
//! * [`data`] — datasets, summary statistics, density grids.
//! * [`datagen`] — Charminar, Zipf-parameterised synthetics, road networks.
//! * [`rtree`] — a from-scratch R\*-tree with STR bulk loading.
//! * [`estimators`] — the seven techniques plus persistence.
//! * [`engine`] — a mini query engine whose cost-based planner consumes
//!   the estimates (the paper's motivating use case).
//! * [`workload`] — query generation, ground truth, error metrics.
//! * [`viz`] — SVG rendering of datasets and partitionings.
//!
//! # Example
//!
//! ```
//! use minskew::prelude::*;
//!
//! // 1. Data: 40,000 rectangles concentrated at the corners.
//! let data = minskew::datagen::charminar_with(10_000, 42);
//!
//! // 2. Summarise with a 50-bucket Min-Skew histogram (~3 KB).
//! let hist = MinSkewBuilder::new(50).regions(2_500).build(&data);
//!
//! // 3. Estimate a range query's result size without touching the data.
//! let query = Rect::new(0.0, 0.0, 2_000.0, 2_000.0);
//! let estimate = hist.estimate_count(&query);
//! let actual = data.count_intersecting(&query) as f64;
//! assert!((estimate - actual).abs() / actual < 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use minskew_core as estimators;
pub use minskew_data as data;
pub use minskew_datagen as datagen;
pub use minskew_engine as engine;
pub use minskew_geom as geom;
pub use minskew_obs as obs;
pub use minskew_par as par;
pub use minskew_rtree as rtree;
pub use minskew_viz as viz;
pub use minskew_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use minskew_core::{
        build_equi_area, build_equi_count, build_grid, build_optimal_bsp, build_rtree_partitioning,
        build_rtree_partitioning_default, build_uniform, morton_key, morton_schedule, simd_level,
        try_build_equi_area, try_build_equi_count, try_build_grid, try_build_optimal_bsp,
        try_build_rtree_partitioning, try_build_uniform, verify_snapshot, Bucket, BucketPlane,
        BuildError, EstimateError, EstimateExplain, ExplainTerm, ExtensionRule, FormatVersion,
        FractalEstimator, KernelExplain, KernelScratch, MinSkewBuildTrace, MinSkewBuilder,
        PruneStats, QueryPrep, RTreeBuildMethod, RefineObservation, RefineOptions, RefineReport,
        SamplingEstimator, ServingFootprint, SnapshotError, SnapshotInfo, SpatialEstimator,
        SpatialHistogram, SplitEvent, SplitStrategy,
    };
    pub use minskew_data::{
        write_atomic, CsvRectSource, Dataset, DensityGrid, FaultInjector, FaultKind, RectSource,
    };
    pub use minskew_engine::{
        serve, AccuracyReport, AnalyzeOptions, BatchQueryError, CacheDisposition, CatalogEntry,
        CatalogError, EstimatePath, EstimateScratch, EstimateTrace, MaintenanceAction,
        MaintenanceMode, MaintenanceReport, ServeOptions, ServerHandle, SnapshotCell,
        SnapshotIoError, SnapshotLoadReport, SpatialCatalog, SpatialReader, SpatialTable,
        StatsDiagnostics, StatsFallback, StatsTechnique, TableOptions, TableSnapshot,
        MAX_TABLE_NAME, SERVE_WRITE_TIMEOUT,
    };
    pub use minskew_geom::{Point, Rect};
    pub use minskew_workload::{
        evaluate, tune_min_skew, CenterMode, GroundTruth, QueryWorkload, TuneOptions,
    };
}

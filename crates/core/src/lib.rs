//! Spatial selectivity estimators: the paper's Min-Skew technique and every
//! baseline it is evaluated against.
//!
//! A selectivity estimator summarises a rectangle dataset in a few hundred
//! bytes and answers "how many input rectangles does this query intersect?"
//! without touching the data. This crate implements the complete technique
//! spectrum of *Acharya, Poosala, Ramaswamy — Selectivity Estimation in
//! Spatial Databases (SIGMOD 1999)*:
//!
//! | Technique | Constructor | Paper section |
//! |---|---|---|
//! | Uniform (single bucket) | [`build_uniform`] | §3.1 |
//! | Equi-Area BSP | [`build_equi_area`] | §3.3 |
//! | Equi-Count BSP | [`build_equi_count`] | §3.3 |
//! | R-tree index partitioning | [`build_rtree_partitioning`] | §3.4 |
//! | Sampling | [`SamplingEstimator`] | §5.3 |
//! | Fractal (Belussi–Faloutsos) | [`FractalEstimator`] | §5.3 |
//! | **Min-Skew** | [`MinSkewBuilder`] | §4.1, §5.6 |
//! | Uniform grid (extension) | [`build_grid`] | — (equi-width ablation baseline) |
//!
//! All bucket-based techniques share the [`SpatialHistogram`] estimator: a
//! flat set of [`Bucket`]s, each storing the paper's eight-word summary
//! (bounding box, rectangle count, average width/height), queried under the
//! per-bucket uniformity assumption of §3.1/§3.2. What distinguishes the
//! techniques is only *how the buckets are chosen* — which is exactly the
//! paper's framing of the problem.
//!
//! # Quickstart
//!
//! ```
//! use minskew_core::{MinSkewBuilder, SpatialEstimator};
//! use minskew_datagen::charminar_with;
//! use minskew_geom::Rect;
//!
//! let data = charminar_with(5_000, 42);
//! let hist = MinSkewBuilder::new(50).regions(2_500).build(&data);
//! let query = Rect::new(0.0, 0.0, 2_000.0, 2_000.0);
//! let est = hist.estimate_count(&query);
//! let actual = data.count_intersecting(&query) as f64;
//! // The corner is dense; the estimate lands in the right ballpark.
//! assert!(est > actual * 0.5 && est < actual * 2.0);
//! ```

#![warn(missing_docs)]
// The kernel's x86_64 AVX2 scan is the one sanctioned use of
// `unsafe` in this crate: it is denied everywhere else, and the kernel
// module allows it only in its `simd` module and dispatch, with SAFETY
// comments.
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod bucket;
mod codec;
mod diagnostics;
mod equi;
pub mod error;
mod fractal;
mod gridhist;
mod histogram;
mod kernel;
mod maintenance;
mod minskew;
mod morton;
mod optimal;
mod refine;
mod rtree_part;
mod sampling;
pub mod snapshot;
mod uniform;

pub use bucket::{Bucket, ExtensionRule};
pub use codec::CodecError;
pub use diagnostics::HistogramDiagnostics;
pub use equi::{build_equi_area, build_equi_count, try_build_equi_area, try_build_equi_count};
pub use error::{BuildError, EstimateError};
pub use fractal::FractalEstimator;
pub use gridhist::build_grid;
pub use histogram::{EstimateExplain, ServingFootprint, SpatialHistogram};
pub use kernel::{
    simd_level, BucketPlane, ExplainTerm, KernelExplain, KernelScratch, PruneStats, QueryPrep,
    TermBuf,
};
pub use minskew::{MinSkewBuildTrace, MinSkewBuilder, MinSkewDetail, SplitEvent, SplitStrategy};
pub use morton::{morton_key, morton_schedule, morton_schedule_into};
pub use optimal::{build_optimal_bsp, optimal_bsp_skew, OptimalBsp};
pub use refine::{RefineObservation, RefineOptions, RefineReport};
pub use rtree_part::{
    build_rtree_partitioning, build_rtree_partitioning_default, try_build_rtree_partitioning,
    RTreeBuildMethod, RTreePartitioningOptions,
};
pub use sampling::SamplingEstimator;
pub use snapshot::{
    verify_snapshot, FormatVersion, SnapshotError, SnapshotInfo, MAX_SNAPSHOT_BUCKETS,
};
pub use uniform::{build_uniform, try_build_uniform};

use minskew_geom::Rect;

/// A query-result-size estimator over a summarised spatial dataset.
///
/// Implementations answer point queries too: a point query is simply a
/// degenerate rectangle (`lo == hi`), per the paper's problem formulation.
pub trait SpatialEstimator {
    /// Estimated number of input rectangles intersecting `query`
    /// (an estimate of `|Q|`). Always finite and non-negative.
    fn estimate_count(&self, query: &Rect) -> f64;

    /// Number of rectangles in the summarised input (`N`).
    fn input_len(&self) -> usize;

    /// Technique name as used in the paper's plots.
    fn name(&self) -> &str;

    /// Approximate size of the summary in bytes, for space-budget
    /// accounting (§5.4 of the paper).
    ///
    /// This is the **serving footprint**: everything the estimator keeps
    /// resident to answer queries, including derived acceleration
    /// structures. For the paper's space-budget comparisons use
    /// [`SpatialEstimator::summary_bytes`].
    fn size_bytes(&self) -> usize;

    /// Size of the *summary alone* under the paper's accounting (§5.4) —
    /// what competes for the space budget in the accuracy/space plots.
    /// Defaults to [`SpatialEstimator::size_bytes`]; estimators that cache
    /// derived serving structures override it to exclude them.
    fn summary_bytes(&self) -> usize {
        self.size_bytes()
    }

    /// Estimated selectivity `|Q| / N` (zero for an empty input).
    fn estimate_selectivity(&self, query: &Rect) -> f64 {
        if self.input_len() == 0 {
            0.0
        } else {
            self.estimate_count(query) / self.input_len() as f64
        }
    }
}

//! Dataset model, summary statistics, density grids, and exact counting.
//!
//! This crate provides the input-side substrate of the selectivity-estimation
//! pipeline:
//!
//! * [`Dataset`] — an immutable collection of input rectangles together with
//!   the summary statistics the paper's formulas use (`N`, the input MBR,
//!   the total rectangle area `TA`, and average width/height).
//! * [`DensityGrid`] — a uniform grid of rectangular regions over the input
//!   MBR where each region carries its *spatial density* (the number of input
//!   rectangles intersecting it, §4 of the paper). The grid is the compact
//!   approximation Min-Skew partitions instead of the raw data.
//! * [`GridSet`] — density grids kept equal to a fresh build under inserts
//!   and deletes, so a statistics rebuild over unchanged bounds can skip
//!   the sweep.
//! * [`CentreSums`] — per-cell counts and exact fixed-point width and
//!   height sums of the rectangles centred in each cell of a grid, from
//!   which Min-Skew's bucket summaries fold without a sweep.
//! * [`GridPrefixSums`] — 2-D prefix-sum tables of density and squared
//!   density, giving O(1) evaluation of the sum / sum-of-squares / SSE of any
//!   axis-aligned block of cells. The SSE of a block equals `n·s` from the
//!   paper's spatial-skew definition (Definition 4.1), so split searches
//!   become linear scans of O(1) probes.
//! * [`CellBlock`] — an inclusive rectangular range of grid cells, the unit a
//!   BSP over the grid manipulates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod atomic;
mod dataset;
pub mod fault;
mod grid;
mod io;
mod prefix;
mod source;

pub use atomic::{
    write_atomic, write_atomic_chaos, write_atomic_with, AtomicWriteError, AtomicWriteOptions,
    WriteStage,
};
pub use dataset::{Dataset, DatasetStats};
pub use fault::{ChaosReader, FaultInjector, FaultKind, FaultSource};
pub use grid::{CellBlock, CentreSums, DensityGrid, GridSet};
pub use io::{read_rects_csv, read_rects_csv_from, write_rects_csv, CsvError};
pub use prefix::GridPrefixSums;
pub use source::{source_mbr, CsvRectSource, RectSource};

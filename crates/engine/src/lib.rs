//! A miniature spatial query engine demonstrating selectivity estimation in
//! its native habitat: **cost-based query optimization**.
//!
//! The paper's opening motivation is that "query optimizers use query
//! result size estimates to determine the most efficient way to execute
//! queries". This crate closes that loop end to end:
//!
//! * [`SpatialTable`] stores rectangles behind a stable row-id interface,
//!   maintains an R\*-tree index, and keeps optimizer statistics (a
//!   Min-Skew histogram by default) refreshed via `ANALYZE`.
//! * The [`planner`](Plan) chooses between a **sequential scan** and an
//!   **index scan** per query using the histogram's estimated result size
//!   and a configurable [`CostModel`] — exactly the access-path-selection
//!   decision of [SAC+79] transplanted to spatial data.
//! * [`Explain`] reports the decision, the estimate, and (after execution)
//!   the actual row count — the `EXPLAIN ANALYZE` a DBA would read.
//! * Mutations feed the histogram's staleness tracker; the table re-runs
//!   ANALYZE automatically past a configurable churn threshold.
//! * Statistics are **degradation-protected**: when the configured build
//!   cannot succeed or a persisted summary is corrupt, the table walks a
//!   fallback ladder (achievable bucket budget → rebuild from data → the
//!   uniform assumption) recorded in [`StatsDiagnostics`], and every
//!   estimate is clamped to `[0, N]`.
//!
//! # Example
//!
//! ```
//! use minskew_engine::{SpatialTable, TableOptions};
//! use minskew_geom::Rect;
//!
//! let mut table = SpatialTable::new(TableOptions::default());
//! for i in 0..1_000 {
//!     let x = (i % 100) as f64 * 10.0;
//!     let y = (i / 100) as f64 * 10.0;
//!     table.insert(Rect::new(x, y, x + 5.0, y + 5.0));
//! }
//! table.analyze();
//!
//! // A tiny query: the planner picks the index.
//! let (rows, explain) = table.execute_explain(&Rect::new(0.0, 0.0, 30.0, 30.0));
//! assert!(explain.plan.is_index_scan());
//! assert_eq!(explain.actual_rows, Some(rows.len()));
//!
//! // A query covering everything: scanning is cheaper than chasing the
//! // whole index.
//! let (_, explain) = table.execute_explain(&Rect::new(0.0, 0.0, 1e4, 1e4));
//! assert!(!explain.plan.is_index_scan());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod catalog;
mod monitor;
mod persist;
mod planner;
mod publish;
mod reader;
mod rows;
mod server;
mod table;

pub use catalog::{CatalogEntry, CatalogError, SpatialCatalog, MAX_TABLE_NAME};
pub use monitor::AccuracyReport;
pub use persist::{SnapshotIoError, SnapshotLoadReport};
pub use planner::{CostModel, Explain, Plan};
pub use publish::{EstimatePath, EstimateScratch, EstimateTrace, SnapshotCell, TableSnapshot};
pub use reader::{BatchQueryError, SpatialReader};
pub use server::{serve, ServeOptions, ServerHandle, SERVE_WRITE_TIMEOUT};
pub use table::{
    AnalyzeOptions, MaintenanceAction, MaintenanceMode, MaintenanceReport, RowId, SpatialTable,
    StatsDiagnostics, StatsFallback, StatsTechnique, TableOptions,
};

//! Lock-free reader handles over a table's published snapshots.

use std::sync::Arc;

use minskew_core::EstimateError;
use minskew_geom::Rect;

use crate::publish::{EstimateScratch, EstimateTrace, SnapshotCell, TableSnapshot};

/// A lock-free serving handle for one table, obtained via
/// [`crate::SpatialTable::reader`].
///
/// A reader never takes the table's serving lock and never blocks on a
/// writer: each estimate loads the currently published [`TableSnapshot`]
/// from the table's [`SnapshotCell`] (a few nanoseconds; see the
/// publication protocol there) and computes against that
/// immutable view. Every value it returns is therefore **exactly** the
/// value [`crate::SpatialTable::estimate`] would return against the same
/// publication — old snapshot or new, never a mixture. The table serves
/// through a reader of its own, so both run one estimate, batch and
/// EXPLAIN body.
///
/// Readers carry their own scratch buffers and keep no results: every
/// estimate is computed by [`TableSnapshot::estimate`] against the
/// snapshot it loaded, so nothing a reader holds can outlive a
/// publication.
#[derive(Debug)]
pub struct SpatialReader {
    cell: Arc<SnapshotCell<TableSnapshot>>,
    scratch: EstimateScratch,
    /// Generation of the snapshot the most recent estimate ran against.
    generation: u64,
    /// A batch's Morton order and its scratch keys, kept between batches.
    order: Vec<u32>,
    keys: Vec<u64>,
}

/// Error from [`SpatialReader::try_estimate_batch_into`]: the first offending
/// query (in request order) and why it was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchQueryError {
    /// Zero-based index of the failing query in the request batch.
    pub index: usize,
    /// The underlying rejection.
    pub error: EstimateError,
}

impl std::fmt::Display for BatchQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query {}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchQueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl SpatialReader {
    /// Creates a reader over `cell`.
    pub fn new(cell: Arc<SnapshotCell<TableSnapshot>>) -> SpatialReader {
        SpatialReader {
            cell,
            scratch: EstimateScratch::new(),
            generation: 0,
            order: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Estimated result size for `query` against the latest published
    /// snapshot (`0.0` for non-finite queries, like
    /// [`crate::SpatialTable::estimate`]).
    pub fn estimate(&mut self, query: &Rect) -> f64 {
        self.try_estimate(query).unwrap_or(0.0)
    }

    /// Estimated result size for `query`, rejecting non-finite queries.
    pub fn try_estimate(&mut self, query: &Rect) -> Result<f64, EstimateError> {
        if !query.is_finite() {
            return Err(EstimateError::NonFiniteQuery);
        }
        let snapshot = self.cell.load();
        Ok(self.estimate_on(&snapshot, query))
    }

    /// The one estimate body, shared by every reader and by
    /// [`crate::SpatialTable`], against the caller's `snapshot`. `query`
    /// must be finite.
    pub(crate) fn estimate_on(&mut self, snapshot: &TableSnapshot, query: &Rect) -> f64 {
        self.generation = snapshot.generation();
        snapshot.estimate(query, &mut self.scratch)
    }

    /// [`SpatialReader::try_estimate`] with the evidence attached: the
    /// trace's headline estimate is bit-identical to what `try_estimate`
    /// would return for the same query against the same snapshot, since
    /// EXPLAIN recomputes through the identical serving path.
    pub fn try_explain(&mut self, query: &Rect) -> Result<EstimateTrace, EstimateError> {
        if !query.is_finite() {
            return Err(EstimateError::NonFiniteQuery);
        }
        let snapshot = self.cell.load();
        Ok(self.explain_on(&snapshot, query))
    }

    /// The one EXPLAIN body, against the caller's `snapshot`. `query` must
    /// be finite.
    pub(crate) fn explain_on(&mut self, snapshot: &TableSnapshot, query: &Rect) -> EstimateTrace {
        self.generation = snapshot.generation();
        snapshot.explain(query, &mut self.scratch)
    }

    /// Estimated result sizes for a batch of queries (`0.0` for any
    /// non-finite query, like [`SpatialReader::estimate`]).
    pub fn estimate_batch(&mut self, queries: &[Rect]) -> Vec<f64> {
        let snapshot = self.cell.load();
        let mut out = Vec::new();
        self.estimate_batch_on(&snapshot, queries, &mut out);
        out
    }

    /// Estimated result sizes for a batch of queries, rejecting the batch
    /// on the first (request-order) non-finite query. `out` is overwritten
    /// with the batch's estimates in request order (and left empty on
    /// error).
    ///
    /// The whole batch is served against **one** snapshot load — a mid-batch
    /// publication cannot split the batch across generations — and is
    /// evaluated in Morton order of the query centres
    /// ([`minskew_core::morton_schedule`]) so consecutive estimates touch
    /// neighbouring pruning blocks and SoA cache lines. Every value is
    /// bit-identical to what a request-order [`SpatialReader::try_estimate`]
    /// loop against the same snapshot would produce: each estimate is
    /// independent, so the order cannot change any answer. The Morton order
    /// lives in buffers the reader keeps, so once `out` and those buffers
    /// have grown to the batch size, a batch allocates nothing.
    pub fn try_estimate_batch_into(
        &mut self,
        queries: &[Rect],
        out: &mut Vec<f64>,
    ) -> Result<(), BatchQueryError> {
        out.clear();
        if let Some(index) = queries.iter().position(|q| !q.is_finite()) {
            return Err(BatchQueryError {
                index,
                error: EstimateError::NonFiniteQuery,
            });
        }
        let snapshot = self.cell.load();
        self.estimate_batch_on(&snapshot, queries, out);
        Ok(())
    }

    /// The one batch body, against the caller's `snapshot`: `out` is
    /// overwritten with the estimates in request order, each computed by
    /// [`TableSnapshot::estimate`] in Morton order, and `0.0` for a
    /// non-finite query.
    pub(crate) fn estimate_batch_on(
        &mut self,
        snapshot: &TableSnapshot,
        queries: &[Rect],
        out: &mut Vec<f64>,
    ) {
        self.generation = snapshot.generation();
        minskew_core::morton_schedule_into(queries, &mut self.order, &mut self.keys);
        out.clear();
        out.resize(queries.len(), 0.0);
        for &i in &self.order {
            let query = &queries[i as usize];
            if query.is_finite() {
                out[i as usize] = snapshot.estimate(query, &mut self.scratch);
            }
        }
    }

    /// The latest published snapshot (what the next estimate will serve
    /// against).
    pub fn snapshot(&self) -> Arc<TableSnapshot> {
        self.cell.load()
    }

    /// Generation of the snapshot the most recent estimate ran against
    /// (`0` before any estimate).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Always `(0, 0)`: readers keep no query cache. Inert; it stays only
    /// because the benchmark package still calls it, and goes with
    /// ROADMAP item 2's benchmark half.
    pub fn cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Clone for SpatialReader {
    /// Clones the subscription, not the state: the clone shares the
    /// publication cell but starts with fresh scratch, so clones can be
    /// handed to other threads.
    fn clone(&self) -> SpatialReader {
        SpatialReader::new(self.cell.clone())
    }
}

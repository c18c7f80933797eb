//! Lock-free reader handles over a table's published snapshots.

use std::sync::Arc;

use minskew_core::EstimateError;
use minskew_geom::Rect;

use crate::cache::{cache_key, QueryCache};
use crate::publish::{
    CacheDisposition, EstimateScratch, EstimateTrace, SnapshotCell, TableSnapshot,
};

/// A lock-free serving handle for one table, obtained via
/// [`crate::SpatialTable::reader`].
///
/// A reader never takes the table's serving lock and never blocks on a
/// writer: each estimate loads the currently published [`TableSnapshot`]
/// from the table's [`SnapshotCell`] (a few nanoseconds; see the
/// publication protocol in [`crate::publish`]) and computes against that
/// immutable view. Every value it returns is therefore **exactly** the
/// value [`crate::SpatialTable::estimate`] would return against the same
/// publication — old snapshot or new, never a mixture. The table serves
/// through a reader of its own, so both run one estimate, batch and
/// EXPLAIN body.
///
/// Readers carry their own scratch buffers and their own query-result
/// cache. The cache is keyed on the snapshot generation: when a load
/// observes a new generation, the cache is flushed *before* any probe, so
/// a cache hit can never serve an estimate computed under superseded
/// statistics. That makes cache invalidation atomic with snapshot
/// publication by construction.
#[derive(Debug)]
pub struct SpatialReader {
    cell: Arc<SnapshotCell<TableSnapshot>>,
    scratch: EstimateScratch,
    pub(crate) cache: QueryCache,
    /// Generation the cache's entries were filled under.
    generation: u64,
    /// A batch's Morton order and its scratch keys, kept between batches.
    order: Vec<u32>,
    keys: Vec<u64>,
}

/// Error from [`SpatialReader::try_estimate_batch`]: the first offending
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
    /// Creates a reader over `cell` with a query cache of
    /// `cache_capacity` entries (`0` disables caching).
    pub fn new(cell: Arc<SnapshotCell<TableSnapshot>>, cache_capacity: usize) -> SpatialReader {
        SpatialReader {
            cell,
            scratch: EstimateScratch::new(),
            cache: QueryCache::new(cache_capacity),
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
        Ok(self.estimate_on(&snapshot, query).0)
    }

    /// The one estimate body, shared by every reader and by
    /// [`crate::SpatialTable`], against the caller's `snapshot`. Returns
    /// the served value and whether it was computed (`false`: a cache
    /// hit). `query` must be finite.
    pub(crate) fn estimate_on(&mut self, snapshot: &TableSnapshot, query: &Rect) -> (f64, bool) {
        self.sync(snapshot);
        serve(&mut self.cache, &mut self.scratch, snapshot, query)
    }

    /// Flushes the cache when `snapshot` is a new publication: every cached
    /// value is potentially stale. Flushing here — on the load that first
    /// observes the new generation, before any probe — is what makes the
    /// flush atomic with publication.
    fn sync(&mut self, snapshot: &TableSnapshot) {
        if snapshot.generation() != self.generation {
            self.cache.invalidate();
            self.generation = snapshot.generation();
        }
    }

    /// [`SpatialReader::try_estimate`] with the evidence attached: the
    /// trace's headline estimate is bit-identical to what `try_estimate`
    /// would return for the same query against the same snapshot (EXPLAIN
    /// recomputes through the identical serving path; the cache's
    /// coherence contract pins a would-be hit to the same bits). The
    /// reported cache disposition is what `try_estimate` *would* have
    /// done; EXPLAIN neither inserts nor counts a hit or miss nor touches
    /// recency, so tracing a query perturbs nothing.
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
        self.sync(snapshot);
        let cache = if self.cache.capacity() == 0 {
            CacheDisposition::Bypassed
        } else if self.cache.contains(&cache_key(query)) {
            CacheDisposition::Hit
        } else {
            CacheDisposition::Miss
        };
        EstimateTrace {
            cache,
            ..snapshot.explain(query, &mut self.scratch)
        }
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
    /// on the first (request-order) non-finite query.
    ///
    /// The whole batch is served against **one** snapshot load — a mid-batch
    /// publication cannot split the batch across generations — and is
    /// evaluated in Morton order of the query centres
    /// ([`minskew_core::morton_schedule`]) so consecutive estimates touch
    /// neighbouring pruning blocks and SoA cache lines. Results are returned
    /// in request order, and every value is bit-identical to what a
    /// request-order [`SpatialReader::try_estimate`] loop against the same
    /// snapshot would produce: each estimate is independent, and the
    /// reader's query cache stores exact previously returned values keyed
    /// by query bits, so probe order cannot change any answer.
    pub fn try_estimate_batch(&mut self, queries: &[Rect]) -> Result<Vec<f64>, BatchQueryError> {
        let mut out = Vec::new();
        self.try_estimate_batch_into(queries, &mut out)?;
        Ok(out)
    }

    /// [`SpatialReader::try_estimate_batch`] into a caller's buffer: `out`
    /// is overwritten with the batch's estimates in request order (and
    /// left empty on error). The Morton order lives in buffers the reader
    /// keeps, so once `out` and those buffers have grown to the batch
    /// size, a batch allocates nothing.
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
    /// overwritten with the estimates in request order, each served by the
    /// [`SpatialReader::estimate_on`] cache body in Morton order, and
    /// `0.0` for a non-finite query.
    pub(crate) fn estimate_batch_on(
        &mut self,
        snapshot: &TableSnapshot,
        queries: &[Rect],
        out: &mut Vec<f64>,
    ) {
        self.sync(snapshot);
        minskew_core::morton_schedule_into(queries, &mut self.order, &mut self.keys);
        out.clear();
        out.resize(queries.len(), 0.0);
        for &i in &self.order {
            let query = &queries[i as usize];
            if query.is_finite() {
                out[i as usize] = serve(&mut self.cache, &mut self.scratch, snapshot, query).0;
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

    /// `(hits, misses)` of this reader's private query cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }
}

/// Answers `query` from `cache` or computes it against `snapshot` and fills
/// the cache; `true` when computed. A disabled cache (capacity 0) is
/// neither hashed nor probed.
fn serve(
    cache: &mut QueryCache,
    scratch: &mut EstimateScratch,
    snapshot: &TableSnapshot,
    query: &Rect,
) -> (f64, bool) {
    if cache.capacity() == 0 {
        return (snapshot.estimate(query, scratch), true);
    }
    let key = cache_key(query);
    if let Some(cached) = cache.get(&key) {
        return (cached, false);
    }
    let value = snapshot.estimate(query, scratch);
    cache.insert(key, value);
    (value, true)
}

impl Clone for SpatialReader {
    /// Clones the subscription, not the state: the clone shares the
    /// publication cell but starts with fresh scratch and an empty cache
    /// (sized like the original), so clones can be handed to other threads.
    fn clone(&self) -> SpatialReader {
        SpatialReader::new(self.cell.clone(), self.cache.capacity())
    }
}

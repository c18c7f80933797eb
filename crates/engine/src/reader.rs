//! Reader handles over a table's published snapshots, which never take
//! the table lock, and the one instrumented estimate body every front end
//! runs.

use std::sync::Arc;

use minskew_core::EstimateError;
use minskew_geom::Rect;
use minskew_obs::{FlightRecorder, FlightTrigger, QueryRecord, Stopwatch};

use crate::publish::{EstimateScratch, EstimateTrace, SnapshotCell, TableSnapshot};
use crate::table::TableOptions;

/// How a table's readers capture the estimates they serve: which calls are
/// sampled and timed, and which sampled calls enter the table's one flight
/// ring. Built once per table from its [`TableOptions`] and published with
/// every [`TableSnapshot`], so the table's own reader and every wire
/// connection's reader apply the same policy.
#[derive(Debug)]
pub(crate) struct Capture {
    /// A reader samples its `n`-th call (from 0) when `n & mask == 0`;
    /// `None` when metrics are off, which samples nothing.
    mask: Option<u64>,
    /// [`TableOptions::flight_slow_ns`].
    slow_ns: u64,
    /// [`TableOptions::flight_sample`].
    sample: u32,
    /// The table's flight recorder, sized to 0 when metrics are off.
    pub(crate) flight: Arc<FlightRecorder>,
}

impl Capture {
    pub(crate) fn new(options: &TableOptions) -> Capture {
        // Metrics off ⇒ no recording at all; sizing the ring to zero makes
        // that structural instead of a per-call check.
        let capacity = if options.metrics {
            options.flight_capacity
        } else {
            0
        };
        Capture {
            mask: options
                .metrics
                .then(|| u64::from(options.metrics_sampling.max(1)).next_power_of_two() - 1),
            slow_ns: options.flight_slow_ns,
            sample: options.flight_sample,
            flight: Arc::new(FlightRecorder::new(capacity)),
        }
    }
}

/// A serving handle for one table, obtained via
/// [`crate::SpatialTable::reader`].
///
/// A reader never takes the table lock and never waits on an `ANALYZE` or
/// a write: each estimate loads the currently published [`TableSnapshot`]
/// from the table's [`SnapshotCell`] (one uncontended mutex held for an
/// `Arc` clone) and computes against that immutable view. Every value it returns is therefore **exactly** the
/// value [`crate::SpatialTable::estimate`] would return against the same
/// publication — old snapshot or new, never a mixture. The table serves
/// through a reader of its own, so both run one estimate, batch and
/// EXPLAIN body.
///
/// That estimate body is instrumented once, here: with the table's
/// metrics on, a reader times one call in
/// [`TableOptions::metrics_sampling`] of its own and offers each timed
/// call to the table's flight recorder (see
/// [`TableOptions::flight_sample`]). Unsampled calls read no clock and
/// touch no shared state.
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
    /// Single-query estimates this reader served.
    calls: u64,
    /// Of `calls`, how many were sampled and timed.
    sampled: u64,
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
            calls: 0,
            sampled: 0,
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
        self.try_estimate_tagged(query, "")
    }

    /// [`SpatialReader::try_estimate`] for a request carrying trace id
    /// `tid`, which a flight record of this call carries.
    pub(crate) fn try_estimate_tagged(
        &mut self,
        query: &Rect,
        tid: &str,
    ) -> Result<f64, EstimateError> {
        if !query.is_finite() {
            return Err(EstimateError::NonFiniteQuery);
        }
        let snapshot = self.cell.load();
        Ok(self.estimate_on(&snapshot, query, tid).0)
    }

    /// The one estimate body, shared by every reader and by
    /// [`crate::SpatialTable`], against the caller's `snapshot`. `query`
    /// must be finite. Counts the call, and times it when it is sampled
    /// (see [`TableOptions::metrics_sampling`]): a timed call is offered
    /// to the flight recorder with trace id `tid` (empty in process), and
    /// its latency is returned. Recording happens strictly after the value
    /// is fixed, so it is bit-invisible.
    pub(crate) fn estimate_on(
        &mut self,
        snapshot: &TableSnapshot,
        query: &Rect,
        tid: &str,
    ) -> (f64, Option<u64>) {
        self.generation = snapshot.generation();
        self.calls += 1;
        let capture = snapshot.capture();
        let clock = capture
            .mask
            .is_some_and(|mask| (self.calls - 1) & mask == 0)
            .then(Stopwatch::start);
        let value = snapshot.estimate(query, &mut self.scratch);
        let Some(clock) = clock else {
            return (value, None);
        };
        let latency_ns = clock.total();
        self.sampled += 1;
        if let Some(trigger) = FlightTrigger::for_served(
            latency_ns,
            capture.slow_ns,
            self.sampled - 1,
            capture.sample,
        ) {
            capture.flight.record(QueryRecord {
                trigger,
                tid: tid.to_owned(),
                query: [query.lo.x, query.lo.y, query.hi.x, query.hi.y],
                estimate: value,
                exact: None,
                latency_ns,
                generation: self.generation,
            });
        }
        (value, Some(latency_ns))
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

    /// Single-query estimates served, and how many of them were sampled.
    pub(crate) fn served(&self) -> (u64, u64) {
        (self.calls, self.sampled)
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
    /// publication cell but starts with fresh scratch and counters, so
    /// clones can be handed to other threads.
    fn clone(&self) -> SpatialReader {
        SpatialReader::new(self.cell.clone())
    }
}

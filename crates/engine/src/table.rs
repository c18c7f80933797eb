//! The spatial table: storage, index, statistics, and the execution loop.

use std::sync::{Arc, Mutex, PoisonError};

use minskew_core::{
    build_uniform, try_build_equi_area, try_build_equi_count, try_build_uniform, BuildError,
    EstimateError, MinSkewBuilder, RefineObservation, RefineOptions, RefineReport,
    SpatialEstimator, SpatialHistogram,
};
use minskew_data::Dataset;
use minskew_geom::Rect;
use minskew_obs::{
    FlightRecorder, FlightTrigger, Gauge, Histogram, QueryRecord, Registry, Stopwatch,
};
use minskew_rtree::{RStarTree, RTreeConfig};

use crate::cache::{cache_key, QueryCache};
use crate::monitor::{AccuracyReport, Reservoir};
use crate::publish::{
    CacheDisposition, EstimateScratch, EstimateTrace, SnapshotCell, TableSnapshot,
};
use crate::reader::SpatialReader;
use crate::rows::RowStore;
use crate::{CostModel, Explain, Plan};

/// Stable identifier of a row in a [`SpatialTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(u64);

impl RowId {
    /// The raw id value, for wire protocols and diagnostics.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a [`RowId`] from [`RowId::raw`]. An id that never came
    /// from an insert is harmless: `get`/`delete` treat it as unknown.
    pub fn from_raw(raw: u64) -> RowId {
        RowId(raw)
    }
}

/// Which statistics technique `ANALYZE` builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsTechnique {
    /// Min-Skew (the paper's recommendation) — the default.
    #[default]
    MinSkew,
    /// Equi-Area BSP.
    EquiArea,
    /// Equi-Count BSP.
    EquiCount,
    /// Single-bucket uniformity assumption.
    Uniform,
}

/// How the table repairs drifted statistics when
/// [`SpatialTable::maintain`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// Audit only: report drift, never touch the statistics.
    Off,
    /// A drifted (or stale) audit triggers a full re-`ANALYZE` — the
    /// behaviour the engine always had. The default.
    #[default]
    DriftReAnalyze,
    /// A drifted (or stale) audit triggers one bounded online refine step
    /// ([`minskew_core::SpatialHistogram::refine`]): split the
    /// highest-error bucket, merge the lowest-skew adjacent pair, re-fit
    /// counts against the replayed (query, exact) feedback — no data
    /// re-read. Falls back to a full re-`ANALYZE` when there is nothing to
    /// refine (no statistics installed, or no replayed feedback yet).
    OnlineRefine,
}

impl MaintenanceMode {
    /// Stable lowercase label, used in metric names, `Display` output, and
    /// the wire protocol.
    pub fn label(self) -> &'static str {
        match self {
            MaintenanceMode::Off => "off",
            MaintenanceMode::DriftReAnalyze => "reanalyze",
            MaintenanceMode::OnlineRefine => "refine",
        }
    }
}

impl std::fmt::Display for MaintenanceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for MaintenanceMode {
    type Err = String;

    fn from_str(s: &str) -> Result<MaintenanceMode, String> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(MaintenanceMode::Off),
            "reanalyze" => Ok(MaintenanceMode::DriftReAnalyze),
            "refine" => Ok(MaintenanceMode::OnlineRefine),
            other => Err(format!(
                "unknown maintenance mode {other:?} (expected off, reanalyze, or refine)"
            )),
        }
    }
}

/// The repair a [`SpatialTable::maintain`] pass performed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaintenanceAction {
    /// No repair was needed (the audit is healthy) or the mode is
    /// [`MaintenanceMode::Off`].
    None,
    /// A full re-`ANALYZE` rebuilt the statistics from the live rows.
    Reanalyzed,
    /// One bounded online refine step repaired the histogram in place from
    /// the replayed feedback.
    Refined(minskew_core::RefineReport),
}

/// The result of one [`SpatialTable::maintain`] pass: the audit that drove
/// the decision plus the repair taken.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MaintenanceReport {
    /// The accuracy audit (see [`SpatialTable::audit_accuracy`]); `None`
    /// when nothing has been sampled yet.
    pub audit: Option<AccuracyReport>,
    /// The repair performed.
    pub action: MaintenanceAction,
}

impl std::fmt::Display for MaintenanceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.audit {
            Some(audit) => write!(f, "{audit}")?,
            None => f.write_str("accuracy: no sampled queries yet")?,
        }
        match &self.action {
            MaintenanceAction::None => write!(f, "; action: none"),
            MaintenanceAction::Reanalyzed => write!(f, "; action: reanalyzed"),
            MaintenanceAction::Refined(r) => write!(f, "; action: {r}"),
        }
    }
}

/// `ANALYZE` parameters.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeOptions {
    /// Technique to build.
    pub technique: StatsTechnique,
    /// Bucket budget.
    pub buckets: usize,
    /// Min-Skew grid regions (ignored by the other techniques).
    pub regions: usize,
    /// Min-Skew progressive refinements.
    pub refinements: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> AnalyzeOptions {
        AnalyzeOptions {
            technique: StatsTechnique::MinSkew,
            buckets: 100,
            regions: 10_000,
            refinements: 0,
        }
    }
}

/// Table-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct TableOptions {
    /// Plan-cost constants.
    pub cost_model: CostModel,
    /// Statistics configuration used by [`SpatialTable::analyze`] and by
    /// automatic re-analysis.
    pub analyze: AnalyzeOptions,
    /// When statistics staleness exceeds this fraction, the next plan
    /// triggers an automatic `ANALYZE` first (`None` disables).
    pub auto_analyze_threshold: Option<f64>,
    /// R\*-tree node capacity.
    pub index_fanout: usize,
    /// Worker threads for parallel paths (`ANALYZE`-time Min-Skew
    /// construction, [`SpatialTable::estimate_batch`]). `1` (the default)
    /// keeps every path on the serial reference implementation; `0` means
    /// one worker per available core. Results are bit-identical at every
    /// setting.
    pub threads: usize,
    /// Enables the per-table query-result cache: repeated single-query
    /// estimates with the same rectangle bits are answered from a bounded
    /// LRU instead of re-scanning the histogram. The cache is invalidated
    /// by every mutation (`insert`, `delete`, any statistics install), so a
    /// cached value is always bit-identical to a fresh computation. Batch
    /// estimation bypasses the cache (recorded in
    /// [`StatsDiagnostics::batch_cache_bypass`]). Defaults to `true`.
    pub query_cache: bool,
    /// Capacity of the query-result cache in entries (applied at table
    /// construction or via [`SpatialTable::set_query_cache`]). Defaults to
    /// 1024 (~48 KiB).
    pub query_cache_capacity: usize,
    /// Enables in-process metrics and the online accuracy monitor.
    ///
    /// Instrumentation is **bit-invisible**: every estimate and every
    /// encoded statistics summary is byte-identical whether this is `true`,
    /// `false`, or the `minskew-obs` crate is compiled with its `noop`
    /// feature. The serving-path cost with metrics on is a few plain
    /// integer operations per call plus sampled stage timing (see
    /// [`TableOptions::metrics_sampling`]). Defaults to `true`.
    pub metrics: bool,
    /// Sample one in this many single-query estimates for stage timing
    /// (cache probe → index scan → clamp) and per-technique latency
    /// histograms. Rounded up to a power of two; values `<= 1` time every
    /// call. Unsampled calls never read the clock. Defaults to 256.
    pub metrics_sampling: u32,
    /// Capacity of the accuracy monitor's query reservoir (`0` disables the
    /// monitor). The serving path samples computed queries into the
    /// reservoir; [`SpatialTable::audit_accuracy`] replays them against
    /// exact index counts. Defaults to 256.
    pub accuracy_reservoir: usize,
    /// Average relative error (the paper's §5 metric, `Σ|r−e| / Σr`) above
    /// which [`SpatialTable::audit_accuracy`] reports drift and recommends
    /// re-`ANALYZE`. Defaults to 0.5.
    pub accuracy_drift_threshold: f64,
    /// How [`SpatialTable::maintain`] repairs drifted statistics. Defaults
    /// to [`MaintenanceMode::DriftReAnalyze`] (the pre-refine behaviour);
    /// [`MaintenanceMode::OnlineRefine`] repairs in place from query
    /// feedback instead of re-reading the data.
    pub maintenance: MaintenanceMode,
    /// Capacity of the table's flight recorder
    /// ([`minskew_obs::FlightRecorder`]): the ring of structured records
    /// for slow / wrong / sampled queries, drained via
    /// [`SpatialTable::flight_recorder`] (or the server's `FLIGHT` verb).
    /// `0` disables recording. Recording is bit-invisible like the rest of
    /// the instrumentation and inert when [`TableOptions::metrics`] is
    /// off. Defaults to 256.
    pub flight_capacity: usize,
    /// Latency (nanoseconds) at or above which a *sampled* estimate is
    /// captured as a `slow` flight record. Only sampled calls read the
    /// clock (see [`TableOptions::metrics_sampling`]), so slow-query
    /// detection rides the sampled path and adds no timing to the
    /// unsampled fast path. `0` disables the slow trigger. Defaults to
    /// 1 ms.
    pub flight_slow_ns: u64,
    /// Relative residual `|exact − estimate| / max(|exact|, 1)` above
    /// which [`SpatialTable::audit_accuracy`]'s replay captures a `wrong`
    /// flight record for the offending query. Non-positive disables the
    /// wrong trigger. Defaults to 1.0 (estimate off by 100%).
    pub flight_residual: f64,
    /// Capture one in this many sampled (timed) estimates as a `sampled`
    /// flight record regardless of latency, so the ring always carries a
    /// baseline of ordinary traffic. `0` disables the sampled trigger.
    /// Defaults to 0.
    pub flight_sample: u32,
}

impl Default for TableOptions {
    fn default() -> TableOptions {
        TableOptions {
            cost_model: CostModel::default(),
            analyze: AnalyzeOptions::default(),
            auto_analyze_threshold: Some(0.2),
            index_fanout: 16,
            threads: 1,
            query_cache: true,
            query_cache_capacity: 1024,
            metrics: true,
            metrics_sampling: 256,
            accuracy_reservoir: 256,
            accuracy_drift_threshold: 0.5,
            maintenance: MaintenanceMode::default(),
            flight_capacity: 256,
            flight_slow_ns: 1_000_000,
            flight_residual: 1.0,
            flight_sample: 0,
        }
    }
}

/// How far down the degradation ladder the current statistics sit.
///
/// The engine never refuses to answer an estimate: when the configured
/// statistics build fails, it walks this ladder — degrade the bucket budget
/// to what the data supports, rebuild from the live rows, and finally fall
/// back to the single-bucket uniform assumption of §3.1 — and records where
/// it landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsFallback {
    /// The configured technique built at the requested budget.
    #[default]
    None,
    /// The requested bucket count was unreachable; statistics were rebuilt
    /// at the achievable budget.
    DegradedBuckets,
    /// A persisted summary was corrupt or a refresh failed; statistics were
    /// rebuilt from the live rows instead.
    RebuiltFromData,
    /// Every richer build failed; the single-bucket uniform assumption is
    /// in force (the floor of the ladder — always constructible).
    Uniform,
}

impl StatsFallback {
    /// Stable lowercase label, used in metric names and `Display` output.
    fn label(self) -> &'static str {
        match self {
            StatsFallback::None => "none",
            StatsFallback::DegradedBuckets => "degraded_buckets",
            StatsFallback::RebuiltFromData => "rebuilt_from_data",
            StatsFallback::Uniform => "uniform",
        }
    }
}

impl std::fmt::Display for StatsFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Diagnostics for the most recent statistics build or load.
///
/// Marked `#[non_exhaustive]`: construct it with
/// [`SpatialTable::stats_diagnostics`] (or `Default` + struct update),
/// never field-by-field, so new counters can land without breaking callers.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct StatsDiagnostics {
    /// Bucket budget the configuration asked for.
    pub requested_buckets: usize,
    /// Buckets the installed histogram actually has.
    pub achieved_buckets: usize,
    /// `true` whenever the installed statistics are anything less than the
    /// configured technique at the requested budget.
    pub degraded: bool,
    /// Which rung of the degradation ladder produced the statistics.
    pub fallback: StatsFallback,
    /// Build attempts made (1 = first try succeeded).
    pub attempts: usize,
    /// The error that forced degradation, if any.
    pub last_error: Option<String>,
    /// Query-cache hits since the table was created (or the cache was
    /// reconfigured). Counted by [`SpatialTable::estimate`] /
    /// [`SpatialTable::try_estimate`]. Batch traffic never shows up here —
    /// it is tallied separately in [`StatsDiagnostics::batch_queries`] /
    /// [`StatsDiagnostics::batch_cache_bypass`], which is why
    /// `hits + misses` need not equal the total queries served.
    pub cache_hits: u64,
    /// Query-cache misses (lookups that had to compute).
    pub cache_misses: u64,
    /// Times the cache was flushed because a mutation made its entries
    /// potentially stale (only non-empty flushes are counted).
    pub cache_invalidations: u64,
    /// Queries served through [`SpatialTable::estimate_batch`] /
    /// [`SpatialTable::try_estimate_batch`] (which never consult the
    /// cache).
    pub batch_queries: u64,
    /// Of [`StatsDiagnostics::batch_queries`], how many bypassed an
    /// *enabled* query cache — cacheable work the batch path skipped
    /// because its workers use lock-free per-worker scratch instead.
    pub batch_cache_bypass: u64,
}

impl std::fmt::Display for StatsDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stats {}/{} buckets (fallback: {}, attempts: {}{})",
            self.achieved_buckets,
            self.requested_buckets,
            self.fallback,
            self.attempts,
            if self.degraded { ", degraded" } else { "" },
        )?;
        write!(
            f,
            "; cache {} hits / {} misses / {} flushes; batch {} queries ({} cache-bypassed)",
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidations,
            self.batch_queries,
            self.batch_cache_bypass,
        )?;
        if let Some(err) = &self.last_error {
            write!(f, "; last error: {err}")?;
        }
        Ok(())
    }
}

/// Per-table serving state: the query-result cache, the reusable index
/// scratch for single-query estimates, and the per-call bookkeeping that is
/// cheap precisely because the serving lock is already held — plain `u64`
/// arithmetic, no atomics, no clock reads. Behind a [`Mutex`] so `&self`
/// estimation stays `Sync` (batch workers use their own scratch and never
/// touch this lock).
#[derive(Debug)]
struct ServingState {
    cache: QueryCache,
    scratch: EstimateScratch,
    /// Publication generation the cache's entries were filled under; a
    /// mismatch with the table's current generation flushes before any
    /// probe, making cache invalidation atomic with snapshot publication
    /// by construction (not by remembering to call a flush).
    seen_generation: u64,
    /// Data era the reservoir's cached exact counts were replayed under.
    /// Row churn advances the table's data era, which invalidates the
    /// cached exact counts (they are no longer exact) but keeps the
    /// sampled queries resident — the workload is as representative as
    /// before, and the sample surviving churn is precisely what lets the
    /// audit *detect* the drift the churn caused. Statistics installs do
    /// not touch the reservoir at all: a refine install must retain the
    /// replayed (query, exact) pairs it was driven by.
    seen_era: u64,
    /// Single-query estimates served (cached or computed).
    calls: u64,
    /// Of `calls`, how many took the sampled stage-timing path.
    sampled: u64,
    /// Batch API invocations.
    batch_calls: u64,
    /// Queries served through the batch APIs.
    batch_queries: u64,
    /// Of `batch_queries`, how many bypassed an enabled query cache.
    batch_bypass: u64,
    /// Accuracy-monitor reservoir of computed (non-cache-hit) queries.
    reservoir: Reservoir,
    /// High-water marks already published into the registry; publication is
    /// delta-based so it can run on every read without double counting.
    published: PublishedCounters,
}

impl ServingState {
    fn new(options: &TableOptions) -> ServingState {
        ServingState {
            cache: QueryCache::new(if options.query_cache {
                options.query_cache_capacity
            } else {
                0
            }),
            scratch: EstimateScratch::new(),
            seen_generation: 0,
            seen_era: 0,
            calls: 0,
            sampled: 0,
            batch_calls: 0,
            batch_queries: 0,
            batch_bypass: 0,
            reservoir: Reservoir::new(if options.metrics {
                options.accuracy_reservoir
            } else {
                0
            }),
            published: PublishedCounters::default(),
        }
    }
}

/// Registry-published high-water marks for the serving counters.
#[derive(Debug, Default)]
struct PublishedCounters {
    calls: u64,
    sampled: u64,
    batch_calls: u64,
    batch_queries: u64,
    batch_bypass: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
}

/// The hot-path latency histograms, resolved once at table construction so
/// sampled calls record through the `Arc` without a registry lookup.
#[derive(Debug)]
struct TableMetrics {
    cache_probe_ns: Arc<Histogram>,
    index_scan_ns: Arc<Histogram>,
    clamp_ns: Arc<Histogram>,
    /// Current publication generation, resolved once so the per-mutation
    /// publish path avoids a registry lookup.
    generation: Arc<Gauge>,
}

impl TableMetrics {
    fn new(registry: &Registry) -> TableMetrics {
        TableMetrics {
            cache_probe_ns: registry.histogram("engine.query.cache_probe_ns"),
            index_scan_ns: registry.histogram("engine.query.index_scan_ns"),
            clamp_ns: registry.histogram("engine.query.clamp_ns"),
            generation: registry.gauge("engine.stats.generation"),
        }
    }
}

/// A spatial table: rows of rectangles with a stable id, an R\*-tree index,
/// and optimizer statistics.
pub struct SpatialTable {
    // (Debug is implemented manually below: the index and serving state
    // are large and uninformative to dump.)
    pub(crate) options: TableOptions,
    rows: RowStore,
    live: usize,
    index: RStarTree<u64>,
    stats: Option<SpatialHistogram>,
    pub(crate) diagnostics: StatsDiagnostics,
    serving: Mutex<ServingState>,
    /// Per-table metrics registry (see [`SpatialTable::metrics`]).
    pub(crate) registry: Registry,
    metrics: TableMetrics,
    /// Monotonic publication counter; bumped by every mutation.
    generation: u64,
    /// Monotonic statistics-install counter; bumped by installs only.
    stats_era: u64,
    /// Monotonic data-churn counter; bumped by row inserts/deletes only.
    /// Keys the validity of the accuracy reservoir's cached exact counts
    /// (see [`ServingState::seen_era`]).
    data_era: u64,
    /// The latest published snapshot (the same `Arc` the cell holds); the
    /// table's own serving path estimates against it so locked and
    /// lock-free readers agree structurally, not by parallel maintenance.
    current: Arc<TableSnapshot>,
    /// The publication cell lock-free readers subscribe to.
    cell: Arc<SnapshotCell<TableSnapshot>>,
    /// The table's flight recorder: slow / wrong / sampled query records
    /// (see [`TableOptions::flight_capacity`]). Shared by `Arc` so the
    /// server can drain it without the table lock.
    flight: Arc<FlightRecorder>,
}

impl std::fmt::Debug for SpatialTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpatialTable")
            .field("live", &self.live)
            .field("next_row_id", &self.rows.next_id())
            .field("has_stats", &self.stats.is_some())
            .field("generation", &self.generation)
            .field("stats_era", &self.stats_era)
            .finish_non_exhaustive()
    }
}

impl SpatialTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if the options are invalid; use [`SpatialTable::try_new`] to
    /// handle that as an error.
    pub fn new(options: TableOptions) -> SpatialTable {
        match SpatialTable::try_new(options) {
            Ok(table) => table,
            Err(e) => panic!("invalid table options: {e}"),
        }
    }

    /// Creates an empty table, reporting invalid options
    /// ([`TableOptions::index_fanout`] below the R\*-tree minimum, a zero
    /// bucket budget) as errors instead of panicking.
    pub fn try_new(options: TableOptions) -> Result<SpatialTable, BuildError> {
        let config = RTreeConfig::try_with_max_entries(options.index_fanout)
            .map_err(|e| BuildError::InvalidConfig(e.to_string()))?;
        if options.analyze.buckets == 0 {
            return Err(BuildError::ZeroBucketBudget);
        }
        let registry = Registry::new();
        let metrics = TableMetrics::new(&registry);
        let current = Arc::new(TableSnapshot::new(0, 0, 0, None, None));
        let cell = Arc::new(SnapshotCell::new(current.clone()));
        // Metrics off ⇒ no recording at all; sizing the ring to zero makes
        // that structural instead of a per-call check.
        let flight = Arc::new(FlightRecorder::new(if options.metrics {
            options.flight_capacity
        } else {
            0
        }));
        Ok(SpatialTable {
            rows: RowStore::default(),
            live: 0,
            index: RStarTree::new(config),
            stats: None,
            diagnostics: StatsDiagnostics::default(),
            serving: Mutex::new(ServingState::new(&options)),
            registry,
            metrics,
            generation: 0,
            stats_era: 0,
            data_era: 0,
            current,
            cell,
            flight,
            options,
        })
    }

    /// Publishes the table's current serving state as an immutable
    /// snapshot: readers obtained via [`SpatialTable::reader`] observe it
    /// atomically (the whole snapshot or the previous one, never a mix).
    /// Called by every path that changes what an estimate could return.
    fn publish(&mut self) {
        self.generation += 1;
        let stats = self.stats.as_ref().map(|h| {
            // Build the kernel plane on the table's own histogram before
            // cloning it: every snapshot then shares it, and the next
            // write patches it (copy-on-write) instead of each snapshot
            // rebuilding it on its first read.
            h.bucket_plane();
            Arc::new(h.clone())
        });
        let mbr = (self.live > 0).then(|| self.index.mbr());
        let snapshot = Arc::new(TableSnapshot::new(
            self.generation,
            self.stats_era,
            self.live,
            mbr,
            stats,
        ));
        self.current = snapshot.clone();
        self.cell.store(snapshot);
        if self.options.metrics && minskew_obs::enabled() {
            self.metrics.generation.set(self.generation as f64);
        }
    }

    /// A lock-free reader handle over this table's published snapshots:
    /// `estimate` on the handle never takes the table's serving lock and
    /// never blocks on `ANALYZE`/mutations, yet is bit-identical to
    /// [`SpatialTable::estimate`] against the same publication. Readers
    /// carry their own scratch and their own generation-keyed query cache;
    /// any number may run concurrently with each other and with a writer.
    pub fn reader(&self) -> SpatialReader {
        SpatialReader::new(
            self.cell.clone(),
            if self.options.query_cache {
                self.options.query_cache_capacity
            } else {
                0
            },
        )
    }

    /// The publication cell behind [`SpatialTable::reader`], for callers
    /// that need to hand out readers without holding the table (e.g. the
    /// catalog's connection handlers).
    pub fn snapshot_cell(&self) -> Arc<SnapshotCell<TableSnapshot>> {
        self.cell.clone()
    }

    /// The most recently published snapshot.
    pub fn current_snapshot(&self) -> Arc<TableSnapshot> {
        self.current.clone()
    }

    /// Current publication generation (bumped by every mutation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drops every cached estimate. Called by every path that changes what
    /// an estimate could return: row mutations and statistics installs.
    fn invalidate_cache(&mut self) {
        // A poisoned lock only means some estimating thread panicked; the
        // cache itself is a plain value and flushing it is always safe.
        self.serving
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .cache
            .invalidate();
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The current statistics histogram, if `ANALYZE` has run.
    pub fn stats(&self) -> Option<&SpatialHistogram> {
        self.stats.as_ref()
    }

    /// Inserts a rectangle; returns its row id.
    ///
    /// The index is maintained eagerly (as a DBMS would); the statistics
    /// are patched incrementally and their staleness grows.
    pub fn insert(&mut self, rect: Rect) -> RowId {
        let id = self.rows.insert(rect);
        self.live += 1;
        self.index.insert(rect, id);
        if let Some(stats) = &mut self.stats {
            stats.note_insert(&rect);
        }
        self.data_era += 1;
        self.invalidate_cache();
        self.publish();
        RowId(id)
    }

    /// Deletes a row; returns `false` if the id was unknown or already
    /// deleted.
    pub fn delete(&mut self, id: RowId) -> bool {
        let Some(rect) = self.rows.remove(id.0) else {
            return false;
        };
        self.live -= 1;
        let removed = self.index.remove(&rect, &id.0);
        debug_assert!(removed, "index out of sync with storage");
        if let Some(stats) = &mut self.stats {
            stats.note_delete(&rect);
        }
        self.data_era += 1;
        self.invalidate_cache();
        self.publish();
        true
    }

    /// Fetches a row's rectangle.
    pub fn get(&self, id: RowId) -> Option<Rect> {
        self.rows.get(id.0)
    }

    /// Builds the configured statistics over `data` via the strict `try_*`
    /// constructors — one rung of the ladder, no fallback.
    fn build_stats(
        data: &Dataset,
        opts: AnalyzeOptions,
        threads: usize,
    ) -> Result<SpatialHistogram, BuildError> {
        match opts.technique {
            StatsTechnique::MinSkew => {
                let mut b = MinSkewBuilder::try_new(opts.buckets)?
                    .try_regions(opts.regions)?
                    .threads(threads);
                if opts.refinements > 0 {
                    b = b.try_progressive_refinements(opts.refinements)?;
                }
                b.try_build(data)
            }
            StatsTechnique::EquiArea => try_build_equi_area(data, opts.buckets),
            StatsTechnique::EquiCount => try_build_equi_count(data, opts.buckets),
            StatsTechnique::Uniform => try_build_uniform(data),
        }
    }

    /// Snapshots the live rows as an in-memory dataset.
    fn snapshot(&self) -> Dataset {
        Dataset::new(self.rows.iter().map(|(_, rect)| rect).collect())
    }

    /// Installs `hist` and records how it was obtained. New statistics mean
    /// new estimates, so the query cache is flushed here — this covers
    /// `analyze`, `try_analyze`, `load_stats`, and auto-`ANALYZE` alike.
    pub(crate) fn install_stats(&mut self, hist: SpatialHistogram, mut diag: StatsDiagnostics) {
        diag.requested_buckets = self.options.analyze.buckets;
        diag.achieved_buckets = hist.buckets().len();
        if self.options.metrics && minskew_obs::enabled() {
            // Degradation-ladder outcome counters: one per fallback rung, so
            // a fleet of tables exposes how often ANALYZE lands where.
            self.registry
                .counter(&format!(
                    "engine.analyze.fallback.{}",
                    diag.fallback.label()
                ))
                .inc();
            self.registry
                .gauge("engine.stats.buckets")
                .set(diag.achieved_buckets as f64);
            self.registry
                .gauge("engine.stats.bytes")
                .set(hist.size_bytes() as f64);
        }
        self.stats = Some(hist);
        self.diagnostics = diag;
        // A statistics install starts a new era: flush the query cache
        // *before* publishing, so no path — locked or lock-free — can pair
        // the new statistics with state from the old ones. The
        // era/generation stamps in the published snapshot enforce the same
        // discipline on every reader cache. The accuracy reservoir is
        // deliberately **not** cleared: its sample is of the served
        // workload (still representative) and its cached exact counts are
        // a property of the *data*, not of the statistics — they are keyed
        // to the data era and survive any install. Clearing here would
        // discard exactly the feedback pairs the online refiner needs on
        // its next pass.
        self.stats_era += 1;
        self.invalidate_cache();
        self.publish();
    }

    /// Records one completed `ANALYZE` in the registry: a run counter plus a
    /// per-technique build-time histogram.
    fn note_analyze(&self, technique: &str, build_ns: u64) {
        if !self.options.metrics || !minskew_obs::enabled() {
            return;
        }
        self.registry.counter("engine.analyze.runs").inc();
        self.registry
            .histogram(&format!(
                "engine.analyze.{}.build_ns",
                minskew_obs::name_component(technique)
            ))
            .record(build_ns);
    }

    /// Rebuilds the optimizer statistics from the live rows, strictly: the
    /// configured technique at the configured budget, or an error. Nothing
    /// is installed on failure (the previous statistics stay in force).
    pub fn try_analyze(&mut self) -> Result<(), BuildError> {
        let mut clock = Stopwatch::start();
        let hist = Self::build_stats(&self.snapshot(), self.options.analyze, self.options.threads)?;
        self.note_analyze(hist.name(), clock.lap());
        self.install_stats(
            hist,
            StatsDiagnostics {
                attempts: 1,
                ..StatsDiagnostics::default()
            },
        );
        Ok(())
    }

    /// Rebuilds the optimizer statistics from the live rows
    /// (the `ANALYZE` command).
    ///
    /// Unlike [`SpatialTable::try_analyze`], this never fails: when the
    /// configured build cannot succeed it walks the degradation ladder —
    /// retry at the achievable bucket budget, then fall back to the
    /// single-bucket uniform assumption — and records the outcome in
    /// [`SpatialTable::stats_diagnostics`].
    pub fn analyze(&mut self) {
        let opts = self.options.analyze;
        let data = self.snapshot();
        let mut clock = Stopwatch::start();
        let mut diag = StatsDiagnostics {
            attempts: 1,
            ..StatsDiagnostics::default()
        };
        let err = match Self::build_stats(&data, opts, self.options.threads) {
            Ok(hist) => {
                self.note_analyze(hist.name(), clock.lap());
                self.install_stats(hist, diag);
                return;
            }
            Err(e) => e,
        };
        diag.last_error = Some(err.to_string());
        // Rung 2: the grid supports fewer buckets than requested — degrade
        // the budget to the achievable count and retry once.
        if let BuildError::GridTooCoarse { regions, .. } = err {
            if regions > 0 {
                diag.attempts += 1;
                let degraded = AnalyzeOptions {
                    buckets: regions,
                    ..opts
                };
                if let Ok(hist) = Self::build_stats(&data, degraded, self.options.threads) {
                    diag.degraded = true;
                    diag.fallback = StatsFallback::DegradedBuckets;
                    self.note_analyze(hist.name(), clock.lap());
                    self.install_stats(hist, diag);
                    return;
                }
            }
        }
        // Floor: the uniform assumption is constructible in every state
        // (including the empty table).
        diag.attempts += 1;
        diag.degraded = true;
        diag.fallback = StatsFallback::Uniform;
        let hist = build_uniform(&data);
        self.note_analyze(hist.name(), clock.lap());
        self.install_stats(hist, diag);
    }

    /// Installs a persisted statistics summary (the bytes of
    /// [`SpatialHistogram::to_bytes`]).
    ///
    /// A summary that fails to decode is never installed; instead the table
    /// falls back down the ladder — rebuild from the live rows (itself
    /// degradation-protected via [`SpatialTable::analyze`]) — and the
    /// returned diagnostics say so. Estimates therefore stay available and
    /// bounded through a corrupt-summary / recovery cycle.
    pub fn load_stats(&mut self, bytes: &[u8]) -> StatsDiagnostics {
        match SpatialHistogram::from_bytes(bytes) {
            Ok(hist) => {
                self.install_stats(
                    hist,
                    StatsDiagnostics {
                        attempts: 1,
                        ..StatsDiagnostics::default()
                    },
                );
            }
            Err(e) => {
                let corrupt = e.to_string();
                if self.options.metrics && minskew_obs::enabled() {
                    self.registry.counter("engine.stats.corrupt_summary").inc();
                }
                self.analyze();
                // analyze() recorded its own outcome; stamp on top that the
                // trigger was a corrupt summary, preserving a deeper rung.
                self.diagnostics.degraded = true;
                self.diagnostics.attempts += 1;
                if self.diagnostics.fallback != StatsFallback::Uniform {
                    self.diagnostics.fallback = StatsFallback::RebuiltFromData;
                }
                self.diagnostics.last_error = Some(format!("corrupt summary: {corrupt}"));
            }
        }
        self.stats_diagnostics()
    }

    /// Diagnostics for the most recent statistics build or load, with the
    /// query-cache counters merged in. Returned by value: the counters live
    /// with the cache behind the serving lock, so a borrow cannot carry
    /// them.
    pub fn stats_diagnostics(&self) -> StatsDiagnostics {
        let serving = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
        let mut diag = self.diagnostics.clone();
        diag.cache_hits = serving.cache.hits();
        diag.cache_misses = serving.cache.misses();
        diag.cache_invalidations = serving.cache.invalidations();
        diag.batch_queries = serving.batch_queries;
        diag.batch_cache_bypass = serving.batch_bypass;
        diag
    }

    /// Sets the worker-thread count used by ANALYZE and batch estimation
    /// (`1` = inline serial reference, `0` = one worker per available core).
    ///
    /// Thread count is a performance knob only: every result is
    /// bit-identical at every setting, so it can be changed at any time
    /// without invalidating existing statistics.
    pub fn set_threads(&mut self, threads: usize) {
        self.options.threads = threads;
    }

    /// Replaces the `ANALYZE` configuration (technique, bucket budget,
    /// grid regions, refinements). Takes effect on the next analysis; the
    /// installed statistics are untouched.
    pub fn set_analyze_options(&mut self, analyze: AnalyzeOptions) {
        self.options.analyze = analyze;
    }

    /// Reconfigures the query-result cache: on/off and capacity. The cache
    /// (and its hit/miss counters) is reset.
    pub fn set_query_cache(&mut self, enabled: bool, capacity: usize) {
        self.options.query_cache = enabled;
        self.options.query_cache_capacity = capacity;
        let serving = self
            .serving
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        serving.cache = QueryCache::new(if enabled { capacity } else { 0 });
        // The fresh cache restarts its counters from zero; reset their
        // published high-water marks so later deltas stay non-negative.
        serving.published.cache_hits = 0;
        serving.published.cache_misses = 0;
        serving.published.cache_invalidations = 0;
    }

    /// Estimated result size for `query`, falling back to the global
    /// uniformity assumption when the table was never analyzed.
    ///
    /// The result is always finite and clamped to `[0, N]` (no statistics
    /// state, however degraded, can claim more rows than the table holds).
    pub fn estimate(&self, query: &Rect) -> f64 {
        // A non-finite query cannot intersect anything real.
        self.try_estimate(query).unwrap_or(0.0)
    }

    /// Estimated result size for `query`, rejecting non-finite queries
    /// instead of guessing. The `Ok` value is finite and within `[0, N]`.
    ///
    /// Serving path: the estimate goes through the histogram's block-pruned
    /// kernel ([`SpatialHistogram::estimate_count_indexed`], sub-linear in
    /// the bucket count, bit-identical to the linear scan) and, when
    /// [`TableOptions::query_cache`] is on, through the per-table LRU —
    /// also bit-identical, because every mutation flushes it.
    pub fn try_estimate(&self, query: &Rect) -> Result<f64, EstimateError> {
        if !query.is_finite() {
            return Err(EstimateError::NonFiniteQuery);
        }
        let mut guard = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
        let serving = &mut *guard;
        // Sync with the published snapshot before any cache probe: a stale
        // generation flushes the cache, a stale data era invalidates the
        // reservoir's cached exact counts (churn made them inexact — the
        // sampled queries themselves stay resident). Mutations also flush
        // eagerly (they hold `&mut self`), so this is normally a no-op —
        // it exists so cache coherence is a property of publication itself
        // rather than of every mutation path remembering to flush.
        if serving.seen_generation != self.generation {
            serving.cache.invalidate();
            serving.seen_generation = self.generation;
        }
        if serving.seen_era != self.data_era {
            serving.reservoir.invalidate_exact();
            serving.seen_era = self.data_era;
        }
        serving.calls += 1;
        if !self.options.metrics || !minskew_obs::enabled() {
            // Metrics off: the original serving path, untouched. The counter
            // bump above is a plain u64 add under the already-held lock.
            if !self.options.query_cache {
                return Ok(self.estimate_finite(query, &mut serving.scratch));
            }
            let key = cache_key(query);
            if let Some(cached) = serving.cache.get(&key) {
                return Ok(cached);
            }
            let value = self.estimate_finite(query, &mut serving.scratch);
            serving.cache.insert(key, value);
            return Ok(value);
        }
        // Metrics on: 1-in-`metrics_sampling` calls take the timed path;
        // the rest run the exact same estimator functions with counter-only
        // bookkeeping (crucially: no clock reads off the sampled path).
        let mask = u64::from(self.options.metrics_sampling.max(1)).next_power_of_two() - 1;
        if (serving.calls - 1) & mask == 0 {
            serving.sampled += 1;
            return Ok(self.estimate_timed(query, serving));
        }
        if !self.options.query_cache {
            let value = self.estimate_finite(query, &mut serving.scratch);
            serving.reservoir.observe(*query);
            return Ok(value);
        }
        let key = cache_key(query);
        if let Some(cached) = serving.cache.get(&key) {
            return Ok(cached);
        }
        let value = self.estimate_finite(query, &mut serving.scratch);
        serving.cache.insert(key, value);
        serving.reservoir.observe(*query);
        Ok(value)
    }

    /// The sampled serving path: same functions in the same order as the
    /// unsampled path (so the result is bit-identical), with a [`Stopwatch`]
    /// lap between stages feeding the `engine.query.*_ns` histograms.
    ///
    /// This is also where the flight recorder's `slow` and `sampled`
    /// triggers live: only sampled calls read the clock, so slow-query
    /// detection rides this path and the unsampled fast path stays exactly
    /// as it was. Recording happens strictly after the value is computed
    /// and only writes the ring's atomics — bit-invisible by construction.
    fn estimate_timed(&self, query: &Rect, serving: &mut ServingState) -> f64 {
        let mut clock = Stopwatch::start();
        if self.options.query_cache {
            let key = cache_key(query);
            let cached = serving.cache.get(&key);
            self.metrics.cache_probe_ns.record(clock.lap());
            if let Some(value) = cached {
                // A cache hit cannot be slow and carries no scan evidence;
                // it is never flight-recorded.
                return value;
            }
            let raw = self.estimate_raw(query, &mut serving.scratch);
            self.metrics.index_scan_ns.record(clock.lap());
            let value = self.clamp_estimate(raw);
            self.metrics.clamp_ns.record(clock.lap());
            let total_ns = clock.total();
            self.record_estimate_latency(total_ns);
            self.note_flight(query, value, total_ns, serving.sampled);
            serving.cache.insert(key, value);
            serving.reservoir.observe(*query);
            return value;
        }
        let raw = self.estimate_raw(query, &mut serving.scratch);
        self.metrics.index_scan_ns.record(clock.lap());
        let value = self.clamp_estimate(raw);
        self.metrics.clamp_ns.record(clock.lap());
        let total_ns = clock.total();
        self.record_estimate_latency(total_ns);
        self.note_flight(query, value, total_ns, serving.sampled);
        serving.reservoir.observe(*query);
        value
    }

    /// Offers one computed, timed estimate to the flight recorder: `slow`
    /// when the latency threshold fires, else a 1-in-N `sampled` baseline
    /// record. Table-level records carry no trace id (wire records, which
    /// do, are captured by the server).
    fn note_flight(&self, query: &Rect, estimate: f64, latency_ns: u64, sampled: u64) {
        if self.flight.capacity() == 0 {
            return;
        }
        let slow = self.options.flight_slow_ns > 0 && latency_ns >= self.options.flight_slow_ns;
        // `sampled` is the 1-based index of this call within the timed
        // stream, so `(sampled - 1) % N == 0` captures the 1st, N+1th, ….
        let trigger = if slow {
            FlightTrigger::Slow
        } else if self.options.flight_sample > 0
            && (sampled.wrapping_sub(1)).is_multiple_of(u64::from(self.options.flight_sample))
        {
            FlightTrigger::Sampled
        } else {
            return;
        };
        self.flight.record(&QueryRecord {
            trigger,
            tid: String::new(),
            query: [query.lo.x, query.lo.y, query.hi.x, query.hi.y],
            estimate,
            exact: None,
            latency_ns,
            generation: self.generation,
        });
    }

    /// [`SpatialTable::try_estimate`] with the evidence attached: which
    /// serving path ran, what the cache would have done, per-bucket
    /// contributions, extension-rule inputs, and pruning counters. The
    /// trace's headline estimate is **bit-identical** to `try_estimate`
    /// for the same query — EXPLAIN recomputes through the identical
    /// serving path and never inserts into (or evicts from) the query
    /// cache, so tracing perturbs nothing.
    pub fn try_explain(&self, query: &Rect) -> Result<EstimateTrace, EstimateError> {
        if !query.is_finite() {
            return Err(EstimateError::NonFiniteQuery);
        }
        let mut guard = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
        let serving = &mut *guard;
        if serving.seen_generation != self.generation {
            serving.cache.invalidate();
            serving.seen_generation = self.generation;
        }
        let cached = self.options.query_cache && serving.cache.get(&cache_key(query)).is_some();
        let mut trace = self.current.explain(query, &mut serving.scratch);
        trace.cache = if !self.options.query_cache {
            CacheDisposition::Bypassed
        } else if cached {
            CacheDisposition::Hit
        } else {
            CacheDisposition::Miss
        };
        Ok(trace)
    }

    /// The table's flight recorder: the ring of slow / wrong / sampled
    /// query records (see [`TableOptions::flight_capacity`]). The `Arc`
    /// lets a server drain records without holding the table lock.
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.flight)
    }

    /// Records a sampled end-to-end estimate latency into the per-technique
    /// histogram `engine.estimate.<technique>.ns`.
    fn record_estimate_latency(&self, ns: u64) {
        let technique = match &self.stats {
            Some(stats) => minskew_obs::name_component(stats.name()),
            None => String::from("fallback"),
        };
        self.registry
            .histogram(&format!("engine.estimate.{technique}.ns"))
            .record(ns);
    }

    /// The uncached estimator core for a query already validated finite.
    /// All serving entry points (single-query, batch, planner) funnel here,
    /// so they agree bit for bit.
    fn estimate_finite(&self, query: &Rect, scratch: &mut EstimateScratch) -> f64 {
        self.clamp_estimate(self.estimate_raw(query, scratch))
    }

    /// The raw (unclamped) estimate, computed against the current published
    /// [`TableSnapshot`] — the same object lock-free readers load — so the
    /// locked and lock-free serving paths agree by construction.
    fn estimate_raw(&self, query: &Rect, scratch: &mut EstimateScratch) -> f64 {
        self.current.estimate_raw(query, scratch)
    }

    /// Clamp to `[0, N]`: degraded or stale statistics may over- or
    /// under-shoot, but the bound always holds.
    fn clamp_estimate(&self, raw: f64) -> f64 {
        if raw.is_finite() {
            raw.clamp(0.0, self.live as f64)
        } else {
            0.0
        }
    }

    /// Estimated result sizes for a batch of queries, fanned out across
    /// [`TableOptions::threads`] worker threads (`1` = inline serial, `0` =
    /// one worker per available core).
    ///
    /// Semantically `queries.iter().map(|q| self.estimate(q)).collect()`,
    /// and **bit-identical** to that serial loop at every thread count:
    /// each estimate is computed independently against the immutable
    /// statistics and written back at its query's index — no cross-query
    /// accumulation, so no floating-point reordering. Batch estimation is
    /// the planner's bulk entry point (multi-query optimization, workload
    /// what-if analysis, auto-tuning sweeps).
    ///
    /// Each worker reuses one [`EstimateScratch`] across every query it
    /// serves, so the loop is allocation-free once the scratch warms up.
    /// The batch path bypasses the query cache — with per-worker scratch
    /// there is no shared state to lock — so cached single-query answers are
    /// neither consulted nor refreshed here. That silent bypass is itself
    /// observable: every batch bumps [`StatsDiagnostics::batch_queries`],
    /// and when the cache is enabled the bypassed queries are counted in
    /// [`StatsDiagnostics::batch_cache_bypass`].
    ///
    /// Internally the pool is evaluated in **Morton order** of the query
    /// centres ([`minskew_core::morton_schedule`]): consecutive queries are
    /// spatial neighbours, so they survive the same pruning blocks and touch
    /// the same stretches of the SoA kernel plane instead of bouncing across it.
    /// Each estimate is computed independently, so the schedule cannot move
    /// a bit; results are scattered back to input order before returning.
    pub fn estimate_batch(&self, queries: &[Rect]) -> Vec<f64> {
        self.note_batch(queries.len());
        let order = minskew_core::morton_schedule(queries);
        let sorted: Vec<Rect> = order.iter().map(|&i| queries[i as usize]).collect();
        // Chunked queue rather than static chunks: estimate cost varies
        // with how many buckets a query overlaps.
        let results = minskew_par::map_chunks_queued_with(
            self.options.threads,
            64,
            &sorted,
            EstimateScratch::new,
            |scratch, q| {
                if q.is_finite() {
                    self.estimate_finite(q, scratch)
                } else {
                    0.0
                }
            },
        );
        let mut out = vec![0.0f64; queries.len()];
        for (&value, &i) in results.iter().zip(&order) {
            out[i as usize] = value;
        }
        out
    }

    /// Strict counterpart of [`SpatialTable::estimate_batch`]: any
    /// non-finite query fails the whole batch instead of estimating zero.
    ///
    /// Validation runs as one upfront pass over the batch, so the worker
    /// loop itself is branch-light; the reported error is the same
    /// first-in-input-order failure the per-query loop would hit.
    pub fn try_estimate_batch(&self, queries: &[Rect]) -> Result<Vec<f64>, EstimateError> {
        if queries.iter().any(|q| !q.is_finite()) {
            return Err(EstimateError::NonFiniteQuery);
        }
        self.note_batch(queries.len());
        let order = minskew_core::morton_schedule(queries);
        let sorted: Vec<Rect> = order.iter().map(|&i| queries[i as usize]).collect();
        let results = minskew_par::map_chunks_queued_with(
            self.options.threads,
            64,
            &sorted,
            EstimateScratch::new,
            |scratch, q| self.estimate_finite(q, scratch),
        );
        let mut out = vec![0.0f64; queries.len()];
        for (&value, &i) in results.iter().zip(&order) {
            out[i as usize] = value;
        }
        Ok(out)
    }

    /// Records one batch invocation of `n` queries in the serving counters.
    fn note_batch(&self, n: usize) {
        let mut serving = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
        serving.batch_calls += 1;
        serving.batch_queries += n as u64;
        if self.options.query_cache {
            serving.batch_bypass += n as u64;
        }
    }

    /// Publishes the serving counters into the per-table registry as deltas
    /// over the previously published high-water marks. Runs only on metric
    /// reads, never on the serving path.
    fn publish_serving_metrics(&self, serving: &mut ServingState) {
        if !self.options.metrics || !minskew_obs::enabled() {
            return;
        }
        let calls = serving.calls;
        let sampled = serving.sampled;
        let batch_calls = serving.batch_calls;
        let batch_queries = serving.batch_queries;
        let batch_bypass = serving.batch_bypass;
        let cache_hits = serving.cache.hits();
        let cache_misses = serving.cache.misses();
        let cache_invalidations = serving.cache.invalidations();
        let published = &mut serving.published;
        // `saturating_sub`: reconfiguring the cache resets its counters, so
        // a current value may briefly sit below its published shadow.
        let bump = |name: &str, current: u64, shadow: &mut u64| {
            self.registry
                .counter(name)
                .add(current.saturating_sub(*shadow));
            *shadow = current;
        };
        bump("engine.query.calls", calls, &mut published.calls);
        bump("engine.query.sampled", sampled, &mut published.sampled);
        bump(
            "engine.batch.calls",
            batch_calls,
            &mut published.batch_calls,
        );
        bump(
            "engine.batch.queries",
            batch_queries,
            &mut published.batch_queries,
        );
        bump(
            "engine.batch.cache_bypass",
            batch_bypass,
            &mut published.batch_bypass,
        );
        bump("engine.cache.hits", cache_hits, &mut published.cache_hits);
        bump(
            "engine.cache.misses",
            cache_misses,
            &mut published.cache_misses,
        );
        bump(
            "engine.cache.invalidations",
            cache_invalidations,
            &mut published.cache_invalidations,
        );
    }

    /// A snapshot of this table's metrics registry (`engine.*` counters,
    /// gauges, and latency histograms). Serving counters are published into
    /// the registry lazily, on this read — the hot path only does plain
    /// arithmetic under its own lock.
    ///
    /// Build-time metrics (`core.build.*`) and parallel-runtime metrics
    /// (`par.*`) live in the process-wide [`minskew_obs::Registry::global`]
    /// registry, not here: they aggregate work that is not owned by any one
    /// table.
    pub fn metrics(&self) -> minskew_obs::RegistrySnapshot {
        {
            let mut serving = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
            self.publish_serving_metrics(&mut serving);
        }
        self.registry.snapshot()
    }

    /// This table's metrics as a self-describing JSON document
    /// (schema `minskew-obs/v1`).
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// Replays the accuracy monitor's reservoir of sampled served queries
    /// against exact index counts and reports the paper's §5 error metric
    /// `Σ|r_i − e_i| / Σ r_i` over that sample.
    ///
    /// Returns `None` when nothing has been sampled yet (metrics disabled,
    /// [`TableOptions::accuracy_reservoir`] zero, or no uncached queries
    /// served since the last statistics install). The audit runs the exact
    /// counts outside the serving lock, so concurrent estimates are not
    /// blocked; it publishes `engine.accuracy.avg_rel_error` /
    /// `engine.accuracy.samples` gauges and, on drift, bumps the
    /// `engine.accuracy.drift_detected` counter.
    pub fn audit_accuracy(&self) -> Option<AccuracyReport> {
        let (samples, observed) = {
            let mut serving = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
            // Sync the data era first so any exact counts cached by a
            // previous audit are dropped if churn made them inexact.
            if serving.seen_era != self.data_era {
                serving.reservoir.invalidate_exact();
                serving.seen_era = self.data_era;
            }
            (
                serving.reservoir.samples().to_vec(),
                serving.reservoir.seen(),
            )
        };
        if samples.is_empty() {
            return None;
        }
        let mut scratch = EstimateScratch::new();
        let mut num = 0.0;
        let mut den = 0.0;
        let mut exacts = Vec::with_capacity(samples.len());
        for sample in &samples {
            // Exact counts replayed by a previous audit in the same data
            // era are still exact; only fresh samples pay the index count.
            let actual = sample
                .exact
                .unwrap_or_else(|| self.index.count_intersecting(&sample.query) as f64);
            let estimate = self.estimate_finite(&sample.query, &mut scratch);
            exacts.push(actual);
            num += (actual - estimate).abs();
            den += actual;
            // The replay is the only place the system holds a (query,
            // exact, estimate) triple: a residual past the threshold files
            // a `wrong` flight record so the offending query is
            // inspectable after the fact.
            let residual = (actual - estimate).abs() / actual.abs().max(1.0);
            if self.flight.capacity() > 0
                && self.options.flight_residual > 0.0
                && residual > self.options.flight_residual
            {
                self.flight.record(&QueryRecord {
                    trigger: FlightTrigger::Wrong,
                    tid: String::new(),
                    query: [
                        sample.query.lo.x,
                        sample.query.lo.y,
                        sample.query.hi.x,
                        sample.query.hi.y,
                    ],
                    estimate,
                    exact: Some(actual),
                    latency_ns: 0,
                    generation: self.generation,
                });
            }
        }
        // Cache the replayed exact counts back into the reservoir so the
        // online refiner (and the next audit) can reuse them. Mutations
        // need `&mut self`, so the data era cannot have advanced since the
        // sync above; individual slots may have rotated under concurrent
        // estimates, which `record_exact` guards with a bit-exact query
        // match.
        {
            let mut serving = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
            for (i, (sample, &actual)) in samples.iter().zip(&exacts).enumerate() {
                serving.reservoir.record_exact(i, &sample.query, actual);
            }
        }
        let avg_relative_error = num / den.max(1.0);
        let drifted = avg_relative_error > self.options.accuracy_drift_threshold;
        let report = AccuracyReport {
            samples: samples.len(),
            observed,
            avg_relative_error,
            drifted,
            recommend_reanalyze: drifted || self.stats_stale(),
        };
        if self.options.metrics && minskew_obs::enabled() {
            self.registry
                .gauge("engine.accuracy.avg_rel_error")
                .set(avg_relative_error);
            self.registry
                .gauge("engine.accuracy.samples")
                .set(samples.len() as f64);
            if drifted {
                self.registry
                    .counter("engine.accuracy.drift_detected")
                    .inc();
            }
        }
        Some(report)
    }

    fn stats_stale(&self) -> bool {
        match (&self.stats, self.options.auto_analyze_threshold) {
            (None, _) => true,
            (Some(stats), Some(threshold)) => stats.staleness() > threshold,
            (Some(_), None) => false,
        }
    }

    /// Staleness of the installed statistics (weighted unabsorbed churn
    /// over the stable mutation base; see
    /// [`minskew_core::SpatialHistogram::staleness`]). `None` when the
    /// table was never analyzed.
    pub fn stats_staleness(&self) -> Option<f64> {
        self.stats.as_ref().map(|s| s.staleness())
    }

    /// The active maintenance mode (see [`TableOptions::maintenance`]).
    pub fn maintenance_mode(&self) -> MaintenanceMode {
        self.options.maintenance
    }

    /// Switches the maintenance mode. Takes effect on the next
    /// [`SpatialTable::maintain`] pass; the installed statistics and the
    /// accuracy reservoir are untouched.
    pub fn set_maintenance_mode(&mut self, mode: MaintenanceMode) {
        self.options.maintenance = mode;
    }

    /// One maintenance pass: audit accuracy, and — when the audit (or
    /// staleness) recommends repair — apply the configured
    /// [`MaintenanceMode`]'s remedy.
    ///
    /// * [`MaintenanceMode::Off`] — audit only, never repairs.
    /// * [`MaintenanceMode::DriftReAnalyze`] — full re-`ANALYZE` from the
    ///   live rows (exactly what a caller reacting to
    ///   [`AccuracyReport::recommend_reanalyze`] would do by hand).
    /// * [`MaintenanceMode::OnlineRefine`] — one bounded refine step from
    ///   the reservoir's replayed (query, exact) feedback, published
    ///   through the same snapshot cell as any install (generation bump,
    ///   caches invalidated, readers never see a torn install); falls back
    ///   to a full re-`ANALYZE` when there is nothing to refine.
    ///
    /// With no sampled queries yet, repair is driven by staleness alone.
    pub fn maintain(&mut self) -> MaintenanceReport {
        let audit = self.audit_accuracy();
        let needs_repair = audit
            .as_ref()
            .map_or_else(|| self.stats_stale(), |report| report.recommend_reanalyze);
        if self.options.metrics && minskew_obs::enabled() {
            self.registry.counter("engine.maintenance.runs").inc();
        }
        let action = if !needs_repair || self.options.maintenance == MaintenanceMode::Off {
            MaintenanceAction::None
        } else if self.options.maintenance == MaintenanceMode::OnlineRefine {
            match self.refine_step() {
                Some(report) => MaintenanceAction::Refined(report),
                None => {
                    self.analyze();
                    MaintenanceAction::Reanalyzed
                }
            }
        } else {
            self.analyze();
            MaintenanceAction::Reanalyzed
        };
        if self.options.metrics && minskew_obs::enabled() {
            let name = match action {
                MaintenanceAction::None => "none",
                MaintenanceAction::Reanalyzed => "reanalyze",
                MaintenanceAction::Refined(_) => "refine",
            };
            self.registry
                .counter(&format!("engine.maintenance.action.{name}"))
                .inc();
        }
        MaintenanceReport { audit, action }
    }

    /// One bounded online refine step: gathers the reservoir's replayed
    /// (query, exact, estimate) triples and runs
    /// [`minskew_core::SpatialHistogram::refine`] over the installed
    /// statistics. Returns `None` — without touching anything — when there
    /// are no statistics or no replayed feedback to refine from.
    fn refine_step(&mut self) -> Option<RefineReport> {
        self.stats.as_ref()?;
        let samples: Vec<_> = {
            let serving = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
            serving.reservoir.samples().to_vec()
        };
        let mut scratch = EstimateScratch::new();
        let observations: Vec<RefineObservation> = samples
            .iter()
            .filter_map(|sample| {
                sample.exact.map(|actual| RefineObservation {
                    query: sample.query,
                    actual,
                    estimate: self.estimate_finite(&sample.query, &mut scratch),
                })
            })
            .collect();
        if observations.is_empty() {
            return None;
        }
        let mut clock = Stopwatch::start();
        let (hist, report) = self
            .stats
            .as_ref()?
            .refine(&observations, &RefineOptions::default());
        let refine_ns = clock.lap();
        self.install_refined(hist);
        if self.options.metrics && minskew_obs::enabled() {
            self.registry
                .histogram("engine.maintenance.refine_ns")
                .record(refine_ns);
        }
        Some(report)
    }

    /// Installs a refined histogram: same publication discipline as
    /// [`SpatialTable::install_stats`] (era bump, cache flush, snapshot
    /// publish — readers never see a torn install), except the diagnostics
    /// are preserved (the statistics are still the product of the last
    /// `ANALYZE`, incrementally repaired) and the accuracy reservoir keeps
    /// its replayed feedback.
    fn install_refined(&mut self, hist: SpatialHistogram) {
        if self.options.metrics && minskew_obs::enabled() {
            self.registry
                .gauge("engine.stats.buckets")
                .set(hist.buckets().len() as f64);
            self.registry
                .gauge("engine.stats.bytes")
                .set(hist.size_bytes() as f64);
        }
        self.diagnostics.achieved_buckets = hist.buckets().len();
        self.stats = Some(hist);
        self.stats_era += 1;
        self.invalidate_cache();
        self.publish();
    }

    /// Plans `query` without executing it. Runs auto-`ANALYZE` first when
    /// the statistics are missing or too stale (and auto-analysis is
    /// enabled).
    pub fn plan(&mut self, query: &Rect) -> Explain {
        if self.stats_stale() && self.options.auto_analyze_threshold.is_some() && self.live > 0 {
            self.analyze();
        }
        let stale = self.stats_stale();
        let est = self.estimate(query);
        let model = self.options.cost_model;
        let plan = model.choose(self.live, est);
        let (cost, rejected) = match plan {
            Plan::IndexScan => (model.index_scan_cost(est), model.seq_scan_cost(self.live)),
            Plan::SeqScan => (model.seq_scan_cost(self.live), model.index_scan_cost(est)),
        };
        Explain {
            plan,
            estimated_rows: est,
            estimated_cost: cost,
            rejected_cost: rejected,
            actual_rows: None,
            stats_stale: stale,
        }
    }

    /// Executes `query`, returning matching row ids (ascending).
    pub fn execute(&mut self, query: &Rect) -> Vec<RowId> {
        self.execute_explain(query).0
    }

    /// Executes `query` and returns the `EXPLAIN ANALYZE` record alongside
    /// the matching row ids.
    pub fn execute_explain(&mut self, query: &Rect) -> (Vec<RowId>, Explain) {
        let mut explain = self.plan(query);
        let mut ids: Vec<RowId> = match explain.plan {
            Plan::SeqScan => self
                .rows
                .iter()
                .filter(|(_, r)| r.intersects(query))
                .map(|(id, _)| RowId(id))
                .collect(),
            Plan::IndexScan => {
                let mut out = Vec::new();
                self.index.for_each_intersecting(query, |item| {
                    out.push(RowId(item.data));
                });
                out
            }
        };
        ids.sort_unstable();
        explain.actual_rows = Some(ids.len());
        (ids, explain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_datagen::charminar_with;

    fn grid_table(side: usize) -> SpatialTable {
        let mut t = SpatialTable::new(TableOptions::default());
        for iy in 0..side {
            for ix in 0..side {
                let (x, y) = (ix as f64 * 10.0, iy as f64 * 10.0);
                t.insert(Rect::new(x, y, x + 5.0, y + 5.0));
            }
        }
        t
    }

    #[test]
    fn both_plans_return_identical_results() {
        let mut t = grid_table(40); // 1600 rows
        t.analyze();
        let q = Rect::new(33.0, 33.0, 180.0, 90.0);
        // Force each plan by manipulating the cost model.
        t.options.cost_model.index_tuple_cost = 0.0;
        t.options.cost_model.index_setup_cost = 0.0;
        let (via_index, e1) = t.execute_explain(&q);
        assert!(e1.plan.is_index_scan());
        t.options.cost_model.index_tuple_cost = f64::INFINITY;
        let (via_scan, e2) = t.execute_explain(&q);
        assert_eq!(e2.plan, Plan::SeqScan);
        assert_eq!(via_index, via_scan);
        assert!(!via_index.is_empty());
    }

    #[test]
    fn fifo_churn_reclaims_rows_and_plans_agree() {
        // Alternately delete the oldest row and insert a new one, through
        // more than four row chunks' worth of ids: the table keeps a
        // bounded number of chunks, and a sequential scan over the chunked
        // rows returns exactly what the index returns.
        let mut t = grid_table(40); // 1600 rows
        t.analyze();
        let mut oldest = 0u64;
        for i in 0..6_000u64 {
            if i % 2 == 0 {
                assert!(t.delete(RowId(oldest)));
                oldest += 1;
            } else {
                let (x, y) = ((i * 7 % 400) as f64, (i * 13 % 400) as f64);
                t.insert(Rect::new(x, y, x + 3.0, y + 3.0));
            }
        }
        assert_eq!(t.len(), 1600);
        assert_eq!(t.get(RowId(0)), None);
        assert!(
            t.rows.allocated_chunks() <= 3,
            "{}",
            t.rows.allocated_chunks()
        );
        for q in [
            Rect::new(33.0, 33.0, 180.0, 90.0),
            Rect::new(-10.0, -10.0, 1_000.0, 1_000.0),
            Rect::new(200.0, 0.0, 201.0, 400.0),
        ] {
            t.options.cost_model.index_tuple_cost = 0.0;
            t.options.cost_model.index_setup_cost = 0.0;
            let (via_index, e1) = t.execute_explain(&q);
            assert!(e1.plan.is_index_scan());
            t.options.cost_model.index_tuple_cost = f64::INFINITY;
            let (via_scan, e2) = t.execute_explain(&q);
            assert_eq!(e2.plan, Plan::SeqScan);
            assert_eq!(via_index, via_scan, "q={q}");
            assert!(!via_index.is_empty());
        }
    }

    #[test]
    fn held_snapshot_is_isolated_from_later_writes() {
        // Writes patch the kernel plane the published snapshots share;
        // the patch must copy it first, so a snapshot held across writes
        // keeps serving exactly what it served when it was taken.
        let mut t = SpatialTable::new(TableOptions::default());
        for r in charminar_with(3_000, 5).rects() {
            t.insert(*r);
        }
        t.analyze();
        let held = t.current_snapshot();
        let queries: Vec<Rect> = (0..40)
            .map(|i| {
                let (x, y) = ((i % 8) as f64 * 1_200.0, (i / 8) as f64 * 1_900.0);
                Rect::new(x, y, x + 1_500.0, y + 1_500.0)
            })
            .collect();
        let mut scratch = EstimateScratch::new();
        let before: Vec<u64> = queries
            .iter()
            .map(|q| held.estimate_raw(q, &mut scratch).to_bits())
            .collect();
        let mut ids = Vec::new();
        for i in 0..100u64 {
            if i % 3 == 2 {
                assert!(t.delete(ids.remove(0)));
            } else {
                let (x, y) = ((i * 97 % 9_000) as f64, (i * 61 % 9_000) as f64);
                ids.push(t.insert(Rect::new(x, y, x + 100.0, y + 100.0)));
            }
        }
        let now = t.current_snapshot();
        let (held_stats, now_stats) = (
            held.stats().expect("analyzed"),
            now.stats().expect("analyzed"),
        );
        let mut moved = false;
        for (q, want) in queries.iter().zip(&before) {
            let got = held.estimate_raw(q, &mut scratch);
            assert_eq!(got.to_bits(), *want, "held snapshot moved: q={q}");
            assert_eq!(
                got.to_bits(),
                held_stats.estimate_count_reference(q).to_bits(),
                "held snapshot left its own buckets: q={q}"
            );
            let fresh = now.estimate_raw(q, &mut scratch);
            assert_eq!(
                fresh.to_bits(),
                now_stats.estimate_count_reference(q).to_bits(),
                "patched plane left the buckets: q={q}"
            );
            moved |= fresh.to_bits() != got.to_bits();
        }
        assert!(moved, "100 writes must move some estimate");
    }

    #[test]
    fn planner_switches_with_query_size() {
        let mut t = grid_table(50); // 2500 rows
        t.analyze();
        let small = t.plan(&Rect::new(0.0, 0.0, 20.0, 20.0));
        assert!(small.plan.is_index_scan(), "{small}");
        let huge = t.plan(&Rect::new(-10.0, -10.0, 1_000.0, 1_000.0));
        assert_eq!(huge.plan, Plan::SeqScan, "{huge}");
        // Estimates should be near reality after ANALYZE on uniform data.
        let (rows, e) = t.execute_explain(&Rect::new(0.0, 0.0, 100.0, 100.0));
        let actual = rows.len() as f64;
        assert!(
            (e.estimated_rows - actual).abs() / actual < 0.5,
            "estimate {} vs actual {}",
            e.estimated_rows,
            actual
        );
    }

    #[test]
    fn unanalyzed_table_plans_with_fallback() {
        let mut t = SpatialTable::new(TableOptions {
            auto_analyze_threshold: None, // keep it unanalyzed
            ..TableOptions::default()
        });
        for i in 0..100 {
            t.insert(Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0));
        }
        let e = t.plan(&Rect::new(0.0, 0.0, 10.0, 1.0));
        assert!(e.stats_stale);
        assert!(e.estimated_rows > 0.0);
    }

    #[test]
    fn delete_updates_results_and_index() {
        let mut t = grid_table(10);
        t.analyze();
        let q = Rect::new(0.0, 0.0, 9.0, 9.0); // exactly the first cell
        let (rows, _) = t.execute_explain(&q);
        assert_eq!(rows.len(), 1);
        assert!(t.delete(rows[0]));
        assert!(!t.delete(rows[0]), "double delete must fail");
        let (rows, _) = t.execute_explain(&q);
        assert!(rows.is_empty());
        assert_eq!(t.len(), 99);
        assert_eq!(t.get(RowId(0)), None);
    }

    #[test]
    fn auto_analyze_fires_on_churn() {
        let mut t = SpatialTable::new(TableOptions::default());
        for r in charminar_with(2_000, 1).rects() {
            t.insert(*r);
        }
        t.analyze();
        assert_eq!(t.stats().expect("analyzed").staleness(), 0.0);
        // Churn well past the 20% threshold.
        for i in 0..1_500 {
            let x = 4_000.0 + (i % 40) as f64 * 20.0;
            let y = 4_000.0 + (i / 40) as f64 * 20.0;
            t.insert(Rect::new(x, y, x + 50.0, y + 50.0));
        }
        assert!(t.stats().expect("analyzed").staleness() > 0.2);
        // The next plan triggers ANALYZE; afterwards staleness resets.
        let _ = t.plan(&Rect::new(4_000.0, 4_000.0, 5_000.0, 5_000.0));
        assert!(t.stats().expect("analyzed").staleness() < 1e-9);
    }

    #[test]
    fn estimates_drive_better_plans_after_analyze() {
        // Skewed table: a hot corner plus sparse background. A stats-less
        // planner (uniform fallback) badly misestimates corner queries;
        // after ANALYZE the estimate is good enough to pick the right plan.
        let mut t = SpatialTable::new(TableOptions {
            auto_analyze_threshold: None,
            ..TableOptions::default()
        });
        for r in charminar_with(10_000, 2).rects() {
            t.insert(*r);
        }
        let corner = Rect::new(0.0, 0.0, 1_500.0, 1_500.0);
        let before = t.plan(&corner);
        t.analyze();
        let after = t.plan(&corner);
        let (rows, _) = t.execute_explain(&corner);
        let actual = rows.len() as f64;
        let err = |e: &Explain| (e.estimated_rows - actual).abs() / actual.max(1.0);
        assert!(
            err(&after) < err(&before),
            "ANALYZE must improve the corner estimate ({:.2} -> {:.2})",
            err(&before),
            err(&after)
        );
    }

    #[test]
    fn empty_table_is_sane() {
        let mut t = SpatialTable::new(TableOptions::default());
        assert!(t.is_empty());
        let (rows, e) = t.execute_explain(&Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(rows.is_empty());
        assert_eq!(e.actual_rows, Some(0));
        assert!(!t.delete(RowId(5)));
    }

    #[test]
    fn estimate_batch_equals_per_query_loop_at_every_thread_count() {
        let mut t = SpatialTable::new(TableOptions::default());
        for r in charminar_with(3_000, 4).rects() {
            t.insert(*r);
        }
        t.analyze();
        let queries: Vec<Rect> = (0..200)
            .map(|i| {
                let s = (i % 50) as f64 * 180.0;
                Rect::new(s, s * 0.5, s + 700.0, s * 0.5 + 700.0)
            })
            .collect();
        let serial: Vec<f64> = queries.iter().map(|q| t.estimate(q)).collect();
        for threads in [0usize, 1, 2, 3, 8] {
            t.options.threads = threads;
            let batch = t.estimate_batch(&queries);
            // Bit-identical, not approximately equal.
            let serial_bits: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
            let batch_bits: Vec<u64> = batch.iter().map(|v| v.to_bits()).collect();
            assert_eq!(batch_bits, serial_bits, "threads = {threads}");
            assert_eq!(t.try_estimate_batch(&queries).expect("finite"), serial);
        }
        // Strict batch rejects a poisoned query; graceful batch maps it to 0.
        let poisoned = Rect {
            lo: minskew_geom::Point::new(f64::NAN, 0.0),
            hi: minskew_geom::Point::new(1.0, 1.0),
        };
        let mut with_bad = queries;
        with_bad.push(poisoned);
        assert!(t.try_estimate_batch(&with_bad).is_err());
        assert_eq!(t.estimate_batch(&with_bad).last(), Some(&0.0));
    }

    #[test]
    fn threaded_analyze_builds_identical_statistics() {
        let data = charminar_with(9_000, 6);
        let mut serial_table = SpatialTable::new(TableOptions::default());
        let mut par_table = SpatialTable::new(TableOptions {
            threads: 4,
            ..TableOptions::default()
        });
        for r in data.rects() {
            serial_table.insert(*r);
            par_table.insert(*r);
        }
        serial_table.analyze();
        par_table.analyze();
        let a = serial_table.stats().expect("analyzed").to_bytes();
        let b = par_table.stats().expect("analyzed").to_bytes();
        assert_eq!(a, b, "ANALYZE must not depend on the thread count");
    }

    #[test]
    fn try_new_rejects_bad_options() {
        let bad_fanout = TableOptions {
            index_fanout: 2,
            ..TableOptions::default()
        };
        assert!(matches!(
            SpatialTable::try_new(bad_fanout),
            Err(minskew_core::BuildError::InvalidConfig(_))
        ));
        let zero_buckets = TableOptions {
            analyze: AnalyzeOptions {
                buckets: 0,
                ..Default::default()
            },
            ..TableOptions::default()
        };
        assert!(matches!(
            SpatialTable::try_new(zero_buckets),
            Err(minskew_core::BuildError::ZeroBucketBudget)
        ));
        assert!(SpatialTable::try_new(TableOptions::default()).is_ok());
    }

    #[test]
    fn try_analyze_is_strict_where_analyze_degrades() {
        // An empty table: strict analysis refuses, graceful analysis
        // degrades to the uniform floor and records it.
        let mut t = SpatialTable::new(TableOptions::default());
        assert!(matches!(
            t.try_analyze(),
            Err(minskew_core::BuildError::EmptyDataset)
        ));
        assert!(
            t.stats().is_none(),
            "failed strict analyze must not install"
        );
        t.analyze();
        let d = t.stats_diagnostics();
        assert!(d.degraded);
        assert_eq!(d.fallback, StatsFallback::Uniform);
        assert!(d.last_error.is_some());
        assert_eq!(t.estimate(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0.0);
    }

    #[test]
    fn analyze_degrades_bucket_budget_to_achievable() {
        // 4-region grid but 100 requested buckets: Min-Skew cannot reach
        // the budget, so graceful analyze retries at the achievable count.
        let mut t = SpatialTable::new(TableOptions {
            analyze: AnalyzeOptions {
                regions: 4,
                ..Default::default()
            },
            ..TableOptions::default()
        });
        for r in charminar_with(500, 7).rects() {
            t.insert(*r);
        }
        assert!(matches!(
            t.try_analyze(),
            Err(minskew_core::BuildError::GridTooCoarse { .. })
        ));
        t.analyze();
        let d = t.stats_diagnostics();
        assert_eq!(d.fallback, StatsFallback::DegradedBuckets);
        assert!(d.degraded);
        assert_eq!(d.requested_buckets, 100);
        assert!(d.achieved_buckets <= 4 && d.achieved_buckets > 0, "{d:?}");
        assert_eq!(d.attempts, 2);
        // The degraded histogram still estimates, bounded by N.
        let est = t.estimate(&Rect::new(-1e6, -1e6, 1e6, 1e6));
        assert!(est >= 0.0 && est <= t.len() as f64);
    }

    #[test]
    fn load_stats_ladder_survives_corruption() {
        let mut t = SpatialTable::new(TableOptions::default());
        for r in charminar_with(2_000, 9).rects() {
            t.insert(*r);
        }
        t.analyze();
        let good = t.stats().expect("analyzed").to_bytes();
        // A healthy summary round-trips and reports no degradation.
        let d = t.load_stats(&good);
        assert_eq!(d.fallback, StatsFallback::None);
        assert!(!d.degraded);
        // A corrupt summary is never installed: the table rebuilds from its
        // own rows and says so.
        let mut corrupt = good.clone();
        corrupt[10] ^= 0xFF;
        let d = t.load_stats(&corrupt);
        assert_eq!(d.fallback, StatsFallback::RebuiltFromData);
        assert!(d.degraded);
        assert!(d
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("corrupt")));
        let q = Rect::new(0.0, 0.0, 2_000.0, 2_000.0);
        let est = t.estimate(&q);
        assert!(est.is_finite() && est >= 0.0 && est <= t.len() as f64);
    }

    #[test]
    fn estimates_are_clamped_and_total_queries_bounded() {
        let mut t = grid_table(20); // 400 rows
        t.analyze();
        // A query covering everything can never claim more than N rows.
        let everything = Rect::new(-1e9, -1e9, 1e9, 1e9);
        let est = t.estimate(&everything);
        assert!(est <= t.len() as f64 + 1e-9, "estimate {est} exceeds N");
        assert!(est >= 0.0);
        // A non-finite query (constructed through the public fields, as
        // in-memory corruption would) is rejected strictly and estimated
        // as empty gracefully.
        let poisoned = Rect {
            lo: minskew_geom::Point::new(f64::NAN, 0.0),
            hi: minskew_geom::Point::new(1.0, 1.0),
        };
        assert!(t.try_estimate(&poisoned).is_err());
        assert_eq!(t.estimate(&poisoned), 0.0);
    }

    #[test]
    fn cached_estimates_equal_uncached_and_invalidate_on_mutation() {
        let data = charminar_with(2_500, 11);
        let mut cached = SpatialTable::new(TableOptions::default());
        let mut plain = SpatialTable::new(TableOptions {
            query_cache: false,
            ..TableOptions::default()
        });
        for r in data.rects() {
            cached.insert(*r);
            plain.insert(*r);
        }
        cached.analyze();
        plain.analyze();
        let queries: Vec<Rect> = (0..60)
            .map(|i| {
                let s = (i % 20) as f64 * 300.0;
                Rect::new(s, s, s + 900.0, s + 900.0)
            })
            .collect();
        // Repeated queries: the second pass over the same 20 distinct
        // rectangles must hit the cache and return the same bits.
        for pass in 0..3 {
            for q in &queries {
                assert_eq!(
                    cached.estimate(q).to_bits(),
                    plain.estimate(q).to_bits(),
                    "pass={pass} q={q}"
                );
            }
        }
        let d = cached.stats_diagnostics();
        assert!(d.cache_hits > 0, "repeated queries must hit: {d:?}");
        assert!(d.cache_misses >= 20);
        // Mutations flush the cache; estimates immediately reflect them.
        let q = queries[0];
        let before = cached.estimate(&q);
        let id = cached.insert(Rect::new(10.0, 10.0, 60.0, 60.0));
        plain.insert(Rect::new(10.0, 10.0, 60.0, 60.0));
        assert_eq!(
            cached.estimate(&q).to_bits(),
            plain.estimate(&q).to_bits(),
            "post-insert estimates must agree (no stale cache entry)"
        );
        cached.delete(id);
        plain.delete(RowId(plain.rows.next_id() - 1));
        assert_eq!(
            cached.estimate(&q).to_bits(),
            plain.estimate(&q).to_bits(),
            "post-delete estimates must agree"
        );
        assert_eq!(cached.estimate(&q).to_bits(), before.to_bits());
        assert!(cached.stats_diagnostics().cache_invalidations >= 2);
    }

    #[test]
    fn query_cache_can_be_reconfigured() {
        let mut t = grid_table(20);
        t.analyze();
        let q = Rect::new(0.0, 0.0, 50.0, 50.0);
        let reference = t.estimate(&q);
        t.set_query_cache(false, 0);
        assert_eq!(t.estimate(&q).to_bits(), reference.to_bits());
        assert_eq!(t.stats_diagnostics().cache_hits, 0);
        t.set_query_cache(true, 4);
        let _ = t.estimate(&q);
        assert_eq!(t.estimate(&q).to_bits(), reference.to_bits());
        assert_eq!(t.stats_diagnostics().cache_hits, 1);
    }

    #[test]
    fn try_estimate_batch_error_position_regression() {
        // Hoisted validation must preserve the old semantics: the batch
        // fails with the same error whether the bad query sits first, in
        // the middle, or last — and a clean batch matches the per-query
        // loop exactly.
        let mut t = grid_table(15);
        t.analyze();
        let good: Vec<Rect> = (0..130)
            .map(|i| {
                let s = (i % 30) as f64 * 5.0;
                Rect::new(s, s, s + 20.0, s + 20.0)
            })
            .collect();
        let serial: Vec<f64> = good.iter().map(|q| t.estimate(q)).collect();
        assert_eq!(t.try_estimate_batch(&good).expect("all finite"), serial);
        let poisoned = Rect {
            lo: minskew_geom::Point::new(f64::INFINITY, 0.0),
            hi: minskew_geom::Point::new(1.0, 1.0),
        };
        for position in [0usize, 64, good.len()] {
            let mut batch = good.clone();
            batch.insert(position, poisoned);
            let err = t.try_estimate_batch(&batch).expect_err("must reject");
            assert!(
                matches!(err, EstimateError::NonFiniteQuery),
                "position={position}"
            );
        }
    }

    #[test]
    fn alternative_stats_techniques() {
        for technique in [
            StatsTechnique::EquiArea,
            StatsTechnique::EquiCount,
            StatsTechnique::Uniform,
        ] {
            let mut t = SpatialTable::new(TableOptions {
                analyze: AnalyzeOptions {
                    technique,
                    buckets: 30,
                    ..Default::default()
                },
                ..TableOptions::default()
            });
            for r in charminar_with(1_000, 3).rects() {
                t.insert(*r);
            }
            t.analyze();
            let e = t.plan(&Rect::new(0.0, 0.0, 2_000.0, 2_000.0));
            assert!(e.estimated_rows.is_finite() && e.estimated_rows >= 0.0);
        }
    }

    #[test]
    fn batch_counters_and_diagnostics_display() {
        let mut t = grid_table(15);
        t.analyze();
        let queries: Vec<Rect> = (0..10)
            .map(|i| Rect::new(0.0, 0.0, 10.0 + i as f64, 10.0))
            .collect();
        t.estimate_batch(&queries);
        let _ = t.try_estimate_batch(&queries[..4]).expect("finite");
        let diag = t.stats_diagnostics();
        assert_eq!(diag.batch_queries, 14);
        // The default table has the cache on, so every batch query bypassed
        // it.
        assert_eq!(diag.batch_cache_bypass, 14);
        let text = diag.to_string();
        assert!(
            text.contains("batch 14 queries (14 cache-bypassed)"),
            "{text}"
        );

        // With the cache off, batches are counted but nothing is "bypassed".
        t.set_query_cache(false, 0);
        t.estimate_batch(&queries);
        let diag = t.stats_diagnostics();
        assert_eq!(diag.batch_queries, 24);
        assert_eq!(diag.batch_cache_bypass, 14);
    }

    #[test]
    fn metrics_are_bit_invisible_to_estimates() {
        let queries: Vec<Rect> = (0..300)
            .map(|i| {
                let s = (i % 40) as f64 * 3.0;
                Rect::new(s, s, s + 25.0 + (i / 40) as f64, s + 25.0)
            })
            .collect();
        let run = |metrics: bool, sampling: u32| {
            let mut t = SpatialTable::new(TableOptions {
                metrics,
                metrics_sampling: sampling,
                ..TableOptions::default()
            });
            for iy in 0..30 {
                for ix in 0..30 {
                    let (x, y) = (ix as f64 * 10.0, iy as f64 * 10.0);
                    t.insert(Rect::new(x, y, x + 5.0, y + 5.0));
                }
            }
            t.analyze();
            let single: Vec<u64> = queries.iter().map(|q| t.estimate(q).to_bits()).collect();
            let batch: Vec<u64> = t
                .estimate_batch(&queries)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            (single, batch)
        };
        let off = run(false, 256);
        // Sampling 1 forces every call down the timed path.
        for sampling in [1, 256] {
            assert_eq!(run(true, sampling), off, "sampling={sampling}");
        }
    }

    #[test]
    fn metrics_snapshot_counts_queries() {
        let mut t = grid_table(10);
        t.analyze();
        for i in 0..20 {
            let _ = t.estimate(&Rect::new(0.0, 0.0, 5.0 + i as f64, 5.0));
        }
        t.estimate_batch(&[Rect::new(0.0, 0.0, 9.0, 9.0); 3]);
        let snap = t.metrics();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        if minskew_obs::enabled() {
            assert_eq!(counter("engine.query.calls"), Some(20));
            assert_eq!(counter("engine.batch.queries"), Some(3));
            assert_eq!(counter("engine.batch.cache_bypass"), Some(3));
            // Publication is delta-based: a second read must not double
            // count.
            let again = t.metrics();
            assert_eq!(
                again
                    .counters
                    .iter()
                    .find(|(n, _)| n == "engine.query.calls"),
                Some(&("engine.query.calls".to_owned(), 20))
            );
            assert!(t.metrics_json().contains("\"engine.query.calls\": 20"));
        } else {
            // Compiled to no-ops: nothing is ever published.
            assert_eq!(counter("engine.query.calls").unwrap_or(0), 0);
        }
    }

    #[test]
    fn accuracy_audit_matches_offline_error() {
        if !minskew_obs::enabled() {
            // The serving path never samples the reservoir when the obs
            // crate is compiled to no-ops; there is nothing to audit.
            return;
        }
        let mut t = SpatialTable::new(TableOptions {
            accuracy_reservoir: 1024, // larger than the workload: no eviction
            ..TableOptions::default()
        });
        for r in charminar_with(2_000, 5).rects() {
            t.insert(*r);
        }
        t.analyze();
        let queries: Vec<Rect> = (0..100)
            .map(|i| {
                let s = (i % 10) as f64 * 700.0;
                Rect::new(s, s, s + 2_000.0, s + 1_500.0 + i as f64)
            })
            .collect();
        for q in &queries {
            let _ = t.estimate(q);
        }
        let report = t.audit_accuracy().expect("reservoir is non-empty");
        assert_eq!(report.samples, 100);
        assert_eq!(report.observed, 100);
        // Recompute the paper's metric offline over the same queries.
        let mut num = 0.0;
        let mut den = 0.0;
        for q in &queries {
            let actual = t.index.count_intersecting(q) as f64;
            num += (actual - t.estimate(q)).abs();
            den += actual;
        }
        let offline = num / den.max(1.0);
        assert!(
            (report.avg_relative_error - offline).abs() < 1e-12,
            "audit {} vs offline {offline}",
            report.avg_relative_error
        );
        assert!(!report.drifted, "{report}");
        assert!(report.to_string().starts_with("accuracy:"));
    }

    #[test]
    fn accuracy_drift_detected_after_churn_and_healed_by_analyze() {
        if !minskew_obs::enabled() {
            return;
        }
        let mut t = SpatialTable::new(TableOptions {
            accuracy_reservoir: 512,
            auto_analyze_threshold: None, // drift must not self-heal here
            ..TableOptions::default()
        });
        for iy in 0..20 {
            for ix in 0..20 {
                let (x, y) = (ix as f64 * 10.0, iy as f64 * 10.0);
                t.insert(Rect::new(x, y, x + 5.0, y + 5.0));
            }
        }
        t.analyze();
        // Pile new rows into one corner cell: the installed histogram knows
        // nothing about them beyond a staleness patch.
        for _ in 0..4_000 {
            t.insert(Rect::new(1.0, 1.0, 2.0, 2.0));
        }
        for i in 0..50 {
            let _ = t.estimate(&Rect::new(0.0, 0.0, 3.0 + (i % 7) as f64, 3.0));
        }
        let report = t.audit_accuracy().expect("queries were sampled");
        assert!(report.drifted, "{report}");
        assert!(report.recommend_reanalyze);
        // Re-ANALYZE installs fresh statistics; the reservoir's sampled
        // workload survives the install (only data churn invalidates its
        // cached exact counts), so the very next audit can already verify
        // the heal — no waiting for the sample to refill.
        t.analyze();
        let healed = t.audit_accuracy().expect("sample survives the install");
        assert_eq!(healed.samples, report.samples);
        assert!(!healed.drifted, "{healed}");
        assert!(!healed.recommend_reanalyze, "{healed}");
    }

    #[test]
    fn reservoir_exacts_survive_refine_but_not_data_churn() {
        if !minskew_obs::enabled() {
            return;
        }
        let mut t = SpatialTable::new(TableOptions {
            accuracy_reservoir: 512,
            auto_analyze_threshold: None,
            // Any audited error counts as drift, so maintain() always
            // repairs — this test is about what survives the repair.
            accuracy_drift_threshold: 0.0,
            maintenance: MaintenanceMode::OnlineRefine,
            ..TableOptions::default()
        });
        for r in charminar_with(2_000, 7).rects() {
            t.insert(*r);
        }
        t.analyze();
        for i in 0..60 {
            let s = (i % 12) as f64 * 600.0;
            let _ = t.estimate(&Rect::new(s, s, s + 1_800.0, s + 1_400.0 + i as f64));
        }
        // First audit replays exact counts and caches them in the slots.
        let audited = t.audit_accuracy().expect("queries were sampled");
        assert!(audited.samples > 0);
        let cached = |t: &SpatialTable| {
            let serving = t.serving.lock().unwrap_or_else(PoisonError::into_inner);
            let samples = serving.reservoir.samples();
            (
                samples.len(),
                samples.iter().filter(|s| s.exact.is_some()).count(),
            )
        };
        let (n0, with_exact) = cached(&t);
        assert_eq!(with_exact, n0, "audit must cache every exact count");
        // A refine install keeps both the queries and the exact counts.
        let report = t.maintain();
        assert!(
            matches!(report.action, MaintenanceAction::Refined(_)),
            "{report}"
        );
        let (n1, exact1) = cached(&t);
        assert_eq!((n1, exact1), (n0, n0), "refine must retain the feedback");
        // Data churn invalidates the exact counts but keeps the queries.
        t.insert(Rect::new(1.0, 1.0, 2.0, 2.0));
        let _ = t.estimate(&Rect::new(0.0, 0.0, 10.0, 10.0));
        let (n2, exact2) = cached(&t);
        assert!(n2 >= n0, "queries must survive churn");
        assert_eq!(exact2, 0, "churn must invalidate cached exact counts");
    }

    #[test]
    fn maintain_modes_repair_or_observe() {
        if !minskew_obs::enabled() {
            return;
        }
        let drifted_table = |mode: MaintenanceMode| {
            let mut t = SpatialTable::new(TableOptions {
                accuracy_reservoir: 512,
                auto_analyze_threshold: None,
                maintenance: mode,
                ..TableOptions::default()
            });
            for iy in 0..20 {
                for ix in 0..20 {
                    let (x, y) = (ix as f64 * 10.0, iy as f64 * 10.0);
                    t.insert(Rect::new(x, y, x + 5.0, y + 5.0));
                }
            }
            t.analyze();
            for _ in 0..4_000 {
                t.insert(Rect::new(1.0, 1.0, 2.0, 2.0));
            }
            for i in 0..50 {
                let _ = t.estimate(&Rect::new(0.0, 0.0, 3.0 + (i % 7) as f64, 3.0));
            }
            t
        };
        // Off: the drift is reported but nothing changes.
        let mut t = drifted_table(MaintenanceMode::Off);
        let era = t.stats_era;
        let report = t.maintain();
        assert!(report.audit.as_ref().is_some_and(|a| a.drifted));
        assert_eq!(report.action, MaintenanceAction::None);
        assert_eq!(t.stats_era, era, "Off must not install anything");
        // DriftReAnalyze: a full rebuild heals the drift.
        let mut t = drifted_table(MaintenanceMode::DriftReAnalyze);
        let report = t.maintain();
        assert_eq!(report.action, MaintenanceAction::Reanalyzed);
        let after = t.maintain();
        assert_eq!(after.action, MaintenanceAction::None, "{after}");
        // OnlineRefine with no replayed feedback falls back to a full
        // re-ANALYZE (maintain's own audit fills the exact counts, so the
        // first maintain can normally refine — force the fallback by
        // clearing the reservoir and letting staleness drive the repair).
        let mut t = drifted_table(MaintenanceMode::OnlineRefine);
        {
            let serving = t.serving.get_mut().unwrap_or_else(PoisonError::into_inner);
            serving.reservoir.clear();
        }
        t.options.auto_analyze_threshold = Some(0.25);
        let report = t.maintain();
        assert_eq!(report.action, MaintenanceAction::Reanalyzed, "{report}");
        t.options.auto_analyze_threshold = None;
        // OnlineRefine with feedback refines in place: the stats era
        // advances, the action carries the refine report, and repeated
        // passes drive the audited error down without any re-ANALYZE.
        let mut t = drifted_table(MaintenanceMode::OnlineRefine);
        let before = t
            .audit_accuracy()
            .expect("queries were sampled")
            .avg_relative_error;
        let era = t.stats_era;
        let report = t.maintain();
        let MaintenanceAction::Refined(refined) = report.action else {
            panic!("expected a refine, got {report}");
        };
        assert!(refined.observations > 0);
        assert!(t.stats_era > era, "refine must publish a new stats era");
        let mut error = before;
        for _ in 0..6 {
            let r = t.maintain();
            if let Some(audit) = r.audit {
                error = audit.avg_relative_error;
            }
            if matches!(r.action, MaintenanceAction::None) {
                break;
            }
        }
        assert!(
            error < before && error <= t.options.accuracy_drift_threshold,
            "refine passes must heal the drift: {before} -> {error}"
        );
        // Estimates remain clamped in [0, N] throughout.
        for i in 0..20 {
            let q = Rect::new(0.0, 0.0, 3.0 + i as f64 * 11.0, 3.0 + i as f64 * 7.0);
            let est = t.estimate(&q);
            assert!((0.0..=t.len() as f64).contains(&est));
        }
    }

    #[test]
    fn metrics_off_disables_sampling_and_reservoir() {
        let mut t = SpatialTable::new(TableOptions {
            metrics: false,
            ..TableOptions::default()
        });
        for iy in 0..10 {
            for ix in 0..10 {
                let (x, y) = (ix as f64 * 10.0, iy as f64 * 10.0);
                t.insert(Rect::new(x, y, x + 5.0, y + 5.0));
            }
        }
        t.analyze();
        for i in 0..40 {
            let _ = t.estimate(&Rect::new(0.0, 0.0, 5.0 + i as f64, 5.0));
        }
        assert!(t.audit_accuracy().is_none());
        // Diagnostics counters still work (they are plain bookkeeping, not
        // registry metrics)...
        assert_eq!(t.stats_diagnostics().cache_misses, 40);
        // ...but nothing was published to the registry.
        let snap = t.metrics();
        assert!(snap.counters.iter().all(|&(_, v)| v == 0), "{snap:?}");
    }
}

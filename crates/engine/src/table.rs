//! The spatial table: storage, index, statistics, and the execution loop.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use minskew_core::{
    build_uniform, try_build_equi_area, try_build_equi_count, try_build_uniform, BuildError,
    EstimateError, MinSkewBuilder, RefineObservation, RefineOptions, RefineReport,
    SpatialEstimator, SpatialHistogram,
};
use minskew_data::GridSet;
use minskew_geom::Rect;
use minskew_obs::{
    FlightRecorder, FlightTrigger, Histogram, QueryRecord, Registry, RegistrySnapshot, Stopwatch,
};
use minskew_rtree::{Item, RStarTree, RTreeConfig, StrLoader, ValidationError};

use crate::monitor::{AccuracyReport, Reservoir};
use crate::publish::{EstimateScratch, EstimateTrace, SnapshotCell, TableSnapshot};
use crate::reader::{Capture, SpatialReader};
use crate::rows::{LiveRows, RowStore};
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

/// A one-row change as the statistics see it: the rectangle inserted or
/// deleted.
#[derive(Debug, Clone, Copy)]
enum RowChange {
    Insert(Rect),
    Delete(Rect),
}

impl RowChange {
    /// Folds the change into `stats`.
    fn apply(self, stats: &mut SpatialHistogram) {
        match self {
            RowChange::Insert(rect) => stats.note_insert(&rect),
            RowChange::Delete(rect) => stats.note_delete(&rect),
        };
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

impl std::str::FromStr for StatsTechnique {
    type Err = String;

    /// Parses the technique names the CLI and the wire protocol accept:
    /// `min-skew` (or `minskew`), `equi-area`, `equi-count` and `uniform`.
    fn from_str(s: &str) -> Result<StatsTechnique, String> {
        match s {
            "min-skew" | "minskew" => Ok(StatsTechnique::MinSkew),
            "equi-area" => Ok(StatsTechnique::EquiArea),
            "equi-count" => Ok(StatsTechnique::EquiCount),
            "uniform" => Ok(StatsTechnique::Uniform),
            other => Err(format!(
                "unknown technique {other:?} (want min-skew|equi-area|equi-count|uniform)"
            )),
        }
    }
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
    /// Inert: nothing reads it, and every estimate is computed. It stays
    /// only because the benchmark package still sets it, and goes with
    /// ROADMAP item 2's benchmark half. Defaults to `false`.
    pub query_cache: bool,
    /// Enables in-process metrics and the online accuracy monitor.
    ///
    /// Instrumentation is **bit-invisible**: every estimate and every
    /// encoded statistics summary is byte-identical whether this is `true`
    /// or `false`. Off, the serving path never takes the sampled, timed
    /// path, the accuracy reservoir and flight recorder have capacity 0, and
    /// no registry metric is recorded; the plain serving counters in
    /// [`SpatialTable::metrics`] still count. On, it adds sampled latency
    /// timing (see [`TableOptions::metrics_sampling`]). Defaults to `true`.
    pub metrics: bool,
    /// Time one in this many single-query estimates, counted per reader
    /// (the table's own, and each wire connection's per table). A sampled
    /// call is offered to the flight recorder, and a sampled table estimate
    /// records its latency in the per-technique histogram
    /// `engine.estimate.<technique>.ns`. Rounded up to a power of two;
    /// values `<= 1` time every call. Unsampled calls never read the clock.
    /// Defaults to 256.
    pub metrics_sampling: u32,
    /// Capacity of the accuracy monitor's query reservoir (`0` disables the
    /// monitor). The serving path samples every single-query estimate into
    /// the reservoir; [`SpatialTable::audit_accuracy`] replays them against
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
    /// ([`minskew_obs::FlightRecorder`]): the one ring of structured
    /// records for the table's slow / wrong / sampled queries, whether the
    /// table, a reader or a wire `ESTIMATE` served them, drained
    /// via [`SpatialTable::flight_recorder`] (or the server's
    /// `FLIGHT <table>` verb).
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
    /// baseline of ordinary traffic. Counted per reader, like
    /// [`TableOptions::metrics_sampling`], so on the wire per connection.
    /// `0` disables the sampled trigger. Defaults to 0.
    pub flight_sample: u32,
}

impl Default for TableOptions {
    fn default() -> TableOptions {
        TableOptions {
            cost_model: CostModel::default(),
            analyze: AnalyzeOptions::default(),
            auto_analyze_threshold: Some(0.2),
            index_fanout: 16,
            query_cache: false,
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

/// Diagnostics for the most recent statistics build or load: where it
/// landed on the degradation ladder. Serving counters (single and batch
/// queries) are not here; read them from [`SpatialTable::metrics`].
///
/// Marked `#[non_exhaustive]`: construct it with
/// [`SpatialTable::stats_diagnostics`] (or `Default` + struct update),
/// never field-by-field, so new fields can land without breaking callers.
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
        if let Some(err) = &self.last_error {
            write!(f, "; last error: {err}")?;
        }
        Ok(())
    }
}

/// Per-table serving state: the table's own [`SpatialReader`] (its kernel
/// scratch, Morton buffers and single-query counters), the accuracy
/// reservoir, and the batch counters. The counters are the only store of
/// these counts: plain `u64` fields bumped under the serving lock the call
/// already holds (no atomics, no clock reads), merged into
/// [`SpatialTable::metrics`] when it is read. Behind a [`Mutex`] so `&self`
/// estimation stays `Sync`.
#[derive(Debug)]
struct ServingState {
    /// Serves every estimate, batch and EXPLAIN against the table's
    /// current snapshot: the same body every reader runs.
    reader: SpatialReader,
    /// Data era the reservoir's cached exact counts were replayed under.
    /// Row churn advances the table's data era, which invalidates the
    /// cached exact counts (they are no longer exact) but keeps the
    /// sampled queries resident — the workload is as representative as
    /// before, and the sample surviving churn is precisely what lets the
    /// audit *detect* the drift the churn caused. Statistics installs do
    /// not touch the reservoir at all: a refine install must retain the
    /// replayed (query, exact) pairs it was driven by.
    seen_era: u64,
    /// Batch API invocations.
    batch_calls: u64,
    /// Queries served through the batch APIs.
    batch_queries: u64,
    /// Accuracy-monitor reservoir of served single-query estimates.
    reservoir: Reservoir,
}

impl ServingState {
    fn new(options: &TableOptions, cell: &Arc<SnapshotCell<TableSnapshot>>) -> ServingState {
        ServingState {
            reader: SpatialReader::new(cell.clone()),
            seen_era: 0,
            batch_calls: 0,
            batch_queries: 0,
            reservoir: Reservoir::new(if options.metrics {
                options.accuracy_reservoir
            } else {
                0
            }),
        }
    }

    /// Drops the reservoir's cached exact counts when row churn advanced
    /// the data era since they were replayed.
    fn sync_era(&mut self, data_era: u64) {
        if self.seen_era != data_era {
            self.reservoir.invalidate_exact();
            self.seen_era = data_era;
        }
    }

    /// The serving counters under their metric names.
    fn counters(&self) -> Vec<(String, u64)> {
        let (calls, sampled) = self.reader.served();
        [
            ("engine.batch.calls", self.batch_calls),
            ("engine.batch.queries", self.batch_queries),
            ("engine.query.calls", calls),
            ("engine.query.sampled", sampled),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_owned(), value))
        .collect()
    }
}

/// A spatial table: rows of rectangles with a stable id, an R\*-tree index,
/// and optimizer statistics.
pub struct SpatialTable {
    // (Debug is implemented manually below: the index and serving state
    // are large and uninformative to dump.)
    pub(crate) options: TableOptions,
    rows: RowStore,
    index: RStarTree<u64>,
    /// The density grids and final-grid centre sums the last Min-Skew
    /// `ANALYZE` used, patched by every write so the next one can reuse
    /// them (see [`GridSet`]).
    grids: GridSet,
    /// The installed statistics: the `Arc` the latest snapshot publishes,
    /// so a publication copies nothing.
    stats: Option<Arc<SpatialHistogram>>,
    /// The histogram published before `stats` and the one row change it
    /// has not seen, kept so the next one-row write can replay both onto
    /// it instead of copying `stats` (see [`SpatialTable::note_row`]).
    retired: Option<(Arc<SpatialHistogram>, RowChange)>,
    /// One-row writes that copied the statistics instead of replaying onto
    /// the retired histogram. A freed histogram's address can be reused by
    /// its copy, so only this count shows a test that no copy was made.
    #[cfg(test)]
    stats_copies: u64,
    pub(crate) diagnostics: StatsDiagnostics,
    serving: Mutex<ServingState>,
    /// Per-table metrics registry (see [`SpatialTable::metrics`]).
    pub(crate) registry: Registry,
    /// `engine.estimate.<technique>.ns` for the installed statistics,
    /// resolved by the first sampled estimate after each install.
    estimate_ns: OnceLock<Arc<Histogram>>,
    /// Monotonic publication counter; bumped by every mutation (a bulk
    /// insert is one).
    generation: u64,
    /// Monotonic statistics-install counter; bumped by installs only.
    stats_era: u64,
    /// Monotonic data-churn counter; bumped by row inserts/deletes only.
    /// Keys the validity of the accuracy reservoir's cached exact counts
    /// (see [`ServingState::seen_era`]).
    data_era: u64,
    /// The latest published snapshot (the same `Arc` the cell holds); the
    /// table's own serving path estimates against it so the table and its
    /// readers agree structurally, not by parallel maintenance.
    current: Arc<TableSnapshot>,
    /// The publication cell readers subscribe to.
    cell: Arc<SnapshotCell<TableSnapshot>>,
    /// How served estimates are sampled and captured, and the table's one
    /// flight recorder; every snapshot publishes it to the readers.
    capture: Arc<Capture>,
}

impl std::fmt::Debug for SpatialTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpatialTable")
            .field("live", &self.rows.len())
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
        let capture = Arc::new(Capture::new(&options));
        let current = Arc::new(TableSnapshot::new(0, 0, 0, None, None, capture.clone()));
        let cell = Arc::new(SnapshotCell::new(current.clone()));
        Ok(SpatialTable {
            rows: RowStore::default(),
            index: RStarTree::new(config),
            grids: GridSet::default(),
            stats: None,
            retired: None,
            #[cfg(test)]
            stats_copies: 0,
            diagnostics: StatsDiagnostics::default(),
            serving: Mutex::new(ServingState::new(&options, &cell)),
            registry,
            estimate_ns: OnceLock::new(),
            generation: 0,
            stats_era: 0,
            data_era: 0,
            current,
            cell,
            capture,
            options,
        })
    }

    /// Publishes the table's current serving state as an immutable
    /// snapshot: readers obtained via [`SpatialTable::reader`] observe it
    /// atomically (the whole snapshot or the previous one, never a mix).
    /// Called by every path that changes what an estimate could return.
    fn publish(&mut self) {
        self.generation += 1;
        if let Some(stats) = &self.stats {
            // Build the kernel plane before publishing, so no reader
            // builds it on its first estimate.
            stats.bucket_plane();
        }
        let mbr = (self.rows.len() > 0).then(|| self.index.mbr());
        let snapshot = Arc::new(TableSnapshot::new(
            self.generation,
            self.stats_era,
            self.rows.len(),
            mbr,
            self.stats.clone(),
            self.capture.clone(),
        ));
        self.current = snapshot.clone();
        self.cell.store(snapshot);
    }

    /// A reader handle over this table's published snapshots: `estimate`
    /// on the handle never takes the table lock and never waits on
    /// `ANALYZE`/mutations, yet is bit-identical to
    /// [`SpatialTable::estimate`] against the same publication. Readers
    /// carry their own scratch; any number may run concurrently with each
    /// other and with a writer.
    pub fn reader(&self) -> SpatialReader {
        SpatialReader::new(self.cell.clone())
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

    /// Current publication generation (bumped once by every mutation; an
    /// [`SpatialTable::insert_many`] batch is one mutation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// The current statistics histogram, if `ANALYZE` has run.
    pub fn stats(&self) -> Option<&SpatialHistogram> {
        self.stats.as_deref()
    }

    /// Inserts a rectangle; returns its row id.
    ///
    /// The index is maintained eagerly (as a DBMS would); the statistics
    /// are patched incrementally and their staleness grows. This is the
    /// one-row case of [`SpatialTable::insert_many`].
    pub fn insert(&mut self, rect: Rect) -> RowId {
        self.insert_many([rect]).start
    }

    /// Inserts `rects` as rows, in order; returns their ids, which are
    /// consecutive.
    ///
    /// Equivalent to one [`SpatialTable::insert`] per rectangle in every
    /// row id, statistics bit, estimate and exact count, with two
    /// differences. The batch is published once, so
    /// [`SpatialTable::generation`] advances by 1, not by the row count
    /// (by 0 for an empty batch). And when the index holds no rows (a
    /// first load, or a table emptied by deletes) it is packed with
    /// Sort-Tile-Recursive bulk loading instead of one R\*-tree insertion
    /// per row; otherwise each row is inserted through R\*.
    ///
    /// Memory: the pack copies no row. It sorts 16 bytes of keys per row
    /// and writes the leaves from the row store, so at its peak a first
    /// load holds the input, the rows and the tree being built, plus those
    /// keys, which it frees before it packs the levels above the leaves.
    pub fn insert_many(&mut self, rects: impl IntoIterator<Item = Rect>) -> Range<RowId> {
        let start = self.rows.next_id();
        let rects = rects.into_iter();
        // Allocated while `rects` still holds its buffer, if it has one: the
        // buffer's release raises glibc's mmap threshold, and keys
        // allocated after it would stay resident once freed.
        let mut pack = self
            .index
            .is_empty()
            .then(|| StrLoader::new(*self.index.config(), rects.size_hint().0));
        for rect in rects {
            let id = self.rows.insert(rect);
            match &mut pack {
                Some(loader) => loader.push(&rect),
                None => self.index.insert(rect, id),
            }
            self.note_row(RowChange::Insert(rect));
            self.grids.patch(&rect, 1);
        }
        let end = self.rows.next_id();
        if end > start {
            if let Some(loader) = pack {
                let rows = &self.rows;
                self.index = loader.finish(|p| {
                    let id = start + p as u64;
                    Item::new(rows.get(id).expect("a row of this batch is live"), id)
                });
            }
            self.data_era += end - start;
            self.publish();
        }
        RowId(start)..RowId(end)
    }

    /// Deletes a row; returns `false` if the id was unknown or already
    /// deleted.
    pub fn delete(&mut self, id: RowId) -> bool {
        let Some(rect) = self.rows.remove(id.0) else {
            return false;
        };
        let removed = self.index.remove(&rect, &id.0);
        debug_assert!(removed, "index out of sync with storage");
        self.note_row(RowChange::Delete(rect));
        self.grids.patch(&rect, -1);
        self.data_era += 1;
        self.publish();
        true
    }

    /// Folds one row change into the statistics, if any are installed.
    ///
    /// While `stats` is unpublished (a later row of an
    /// [`SpatialTable::insert_many`] batch) it is patched in place, and the
    /// retired histogram is dropped: it now lags by more than one row.
    /// Otherwise the snapshot shares `stats`, so the change goes to a new
    /// histogram, which becomes `stats` while the old one retires with
    /// `change`. That new histogram is the retired one, with its missed
    /// row and `change` replayed onto it in place, when nothing else holds
    /// it (its snapshot was superseded and no reader kept it); else a copy
    /// of `stats`. Both paths make the same `note_insert`/`note_delete`
    /// calls on the same state, so they agree bit for bit.
    fn note_row(&mut self, change: RowChange) {
        let Some(stats) = &mut self.stats else {
            return;
        };
        if let Some(unpublished) = Arc::get_mut(stats) {
            self.retired = None;
            change.apply(unpublished);
            return;
        }
        let reused = self.retired.take().and_then(|(mut old, missed)| {
            missed.apply(Arc::get_mut(&mut old)?);
            Some(old)
        });
        #[cfg(test)]
        {
            self.stats_copies += u64::from(reused.is_none());
        }
        let mut next = reused.unwrap_or_else(|| stats.clone());
        change.apply(Arc::make_mut(&mut next));
        self.retired = Some((std::mem::replace(stats, next), change));
    }

    /// Fetches a row's rectangle.
    pub fn get(&self, id: RowId) -> Option<Rect> {
        self.rows.get(id.0)
    }

    /// Checks the index: every R\*-tree invariant holds and it holds
    /// exactly one entry per live row.
    pub fn validate_index(&self) -> Result<(), ValidationError> {
        self.index.validate()?;
        if self.index.len() != self.rows.len() {
            return Err(ValidationError(format!(
                "index holds {} entries for {} live rows",
                self.index.len(),
                self.rows.len()
            )));
        }
        Ok(())
    }

    /// Builds the configured statistics over the live rows via the strict
    /// `try_*` constructors — one rung of the ladder, no fallback.
    ///
    /// Min-Skew takes each phase's density grid from `grids` when it holds
    /// one over the live MBR, and on success leaves there the grids it used.
    /// It counts them in `engine.analyze.grid_reused` and
    /// `engine.analyze.grid_built`, and a successful build records its
    /// parts in `engine.analyze.min_skew.{grid,prefix,split,assign}_ns`.
    /// Equi-Area and Equi-Count sort a resident slice, so they build from a
    /// copy of the rows. It records into `metrics`, the table's registry
    /// when metrics are on.
    fn build_stats(
        metrics: Option<&Registry>,
        rows: &LiveRows<'_>,
        opts: AnalyzeOptions,
        grids: &mut GridSet,
    ) -> Result<SpatialHistogram, BuildError> {
        match opts.technique {
            StatsTechnique::MinSkew => {
                let mut b = MinSkewBuilder::try_new(opts.buckets)?.try_regions(opts.regions)?;
                if opts.refinements > 0 {
                    b = b.try_progressive_refinements(opts.refinements)?;
                }
                let built = b.try_build_with_grids(rows, grids);
                if let Some(registry) = metrics {
                    // Registered on every attempt, so both names always
                    // appear once a Min-Skew ANALYZE has run.
                    let (reused, fresh) = built
                        .as_ref()
                        .map_or((0, 0), |(_, d)| (d.grids_reused, d.grids_built));
                    registry
                        .counter("engine.analyze.grid_reused")
                        .add(reused as u64);
                    registry
                        .counter("engine.analyze.grid_built")
                        .add(fresh as u64);
                    if let Ok((_, d)) = &built {
                        for (part, ns) in [
                            ("grid", d.grid_ns),
                            ("prefix", d.prefix_ns),
                            ("split", d.split_ns),
                            ("assign", d.assign_ns),
                        ] {
                            registry
                                .histogram(&format!("engine.analyze.min_skew.{part}_ns"))
                                .record(ns);
                        }
                    }
                }
                built.map(|(hist, _)| hist)
            }
            StatsTechnique::EquiArea => try_build_equi_area(&rows.to_dataset(), opts.buckets),
            StatsTechnique::EquiCount => try_build_equi_count(&rows.to_dataset(), opts.buckets),
            StatsTechnique::Uniform => try_build_uniform(rows),
        }
    }

    /// Installs `hist` and records how it was obtained: `analyze`,
    /// `load_stats`, and auto-`ANALYZE` alike. New statistics mean new
    /// estimates from the next load of the published snapshot on.
    pub(crate) fn install_stats(&mut self, hist: SpatialHistogram, mut diag: StatsDiagnostics) {
        diag.requested_buckets = self.options.analyze.buckets;
        diag.achieved_buckets = hist.buckets().len();
        if self.options.metrics {
            // Degradation-ladder outcome counters: one per fallback rung, so
            // a fleet of tables exposes how often ANALYZE lands where.
            self.registry
                .counter(&format!(
                    "engine.analyze.fallback.{}",
                    diag.fallback.label()
                ))
                .inc();
        }
        self.diagnostics = diag;
        // The accuracy reservoir is deliberately **not** cleared: its
        // sample is of the served workload (still representative) and its
        // cached exact counts are a property of the *data*, not of the
        // statistics — they are keyed to the data era and survive any
        // install. Clearing here would discard exactly the feedback pairs
        // the online refiner needs on its next pass.
        let clock = Stopwatch::start();
        self.install(hist);
        if self.options.metrics {
            self.registry
                .histogram("engine.analyze.publish_ns")
                .record(clock.total());
        }
    }

    /// Installs `hist` as the statistics and publishes it in a new
    /// statistics era. The retired histogram is dropped: it belongs to the
    /// statistics `hist` replaces, and so is the latency histogram its
    /// estimates were recorded in.
    fn install(&mut self, hist: SpatialHistogram) {
        self.stats = Some(Arc::new(hist));
        self.retired = None;
        self.estimate_ns = OnceLock::new();
        self.stats_era += 1;
        self.publish();
    }

    /// Records one completed `ANALYZE` in the registry: a run counter plus a
    /// per-technique build-time histogram.
    fn note_analyze(&self, technique: &str, build_ns: u64) {
        if !self.options.metrics {
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

    /// The live rows for an `ANALYZE`, with their MBR settled, timed in
    /// `engine.analyze.stats_ns`: a check of a flag, and a sweep of the
    /// rows only when a write has left the MBR dirty.
    fn live_rows<'a>(rows: &'a mut RowStore, metrics: Option<&Registry>) -> LiveRows<'a> {
        let clock = Stopwatch::start();
        let live = rows.live();
        if let Some(registry) = metrics {
            registry
                .histogram("engine.analyze.stats_ns")
                .record(clock.total());
        }
        live
    }

    /// Counts an `ANALYZE` in `engine.analyze.row_sweeps` when it swept
    /// the rows for its statistics: for a dirty MBR, a density grid or
    /// centre sums that were not held, the full statistics Uniform reads,
    /// or the copy Equi-Area and Equi-Count sort. Registered by every
    /// `ANALYZE`.
    fn note_row_sweeps(metrics: Option<&Registry>, rows: &LiveRows<'_>) {
        if let Some(registry) = metrics {
            registry
                .counter("engine.analyze.row_sweeps")
                .add(u64::from(rows.swept()));
        }
    }

    /// Holds on to the grids a successful build at `opts` used: Min-Skew's
    /// phase grids, none for the other techniques.
    fn keep_grids(&mut self, opts: AnalyzeOptions, grids: GridSet) {
        if opts.technique == StatsTechnique::MinSkew {
            self.grids = grids;
        }
    }

    /// Rebuilds the optimizer statistics from the live rows
    /// (the `ANALYZE` command).
    ///
    /// This never fails: when the configured build cannot succeed it walks
    /// the degradation ladder — retry at the achievable bucket budget, then
    /// fall back to the single-bucket uniform assumption — and records the
    /// outcome in [`SpatialTable::stats_diagnostics`].
    ///
    /// Min-Skew and Uniform read the rows in place. Min-Skew also reuses
    /// each density grid, and the final grid's centre sums, that the writes
    /// since the last Min-Skew `ANALYZE` have patched, as long as the live
    /// MBR and the grid's dimensions are unchanged; it then sweeps no rows
    /// at all. The statistics are byte-identical to a build from scratch.
    pub fn analyze(&mut self) {
        let opts = self.options.analyze;
        let metrics = self.options.metrics.then_some(&self.registry);
        let rows = Self::live_rows(&mut self.rows, metrics);
        let mut grids = std::mem::take(&mut self.grids);
        let mut clock = Stopwatch::start();
        let (hist, diag, kept) = Self::build_on_ladder(metrics, &rows, opts, &mut grids);
        Self::note_row_sweeps(metrics, &rows);
        if let Some(kept) = kept {
            self.keep_grids(kept, grids);
        }
        self.note_analyze(hist.name(), clock.lap());
        self.install_stats(hist, diag);
    }

    /// The degradation ladder behind [`SpatialTable::analyze`]: the
    /// statistics, how they were obtained, and the options of the build
    /// whose grids to keep (`None` for the Uniform floor).
    fn build_on_ladder(
        metrics: Option<&Registry>,
        rows: &LiveRows<'_>,
        opts: AnalyzeOptions,
        grids: &mut GridSet,
    ) -> (SpatialHistogram, StatsDiagnostics, Option<AnalyzeOptions>) {
        let mut diag = StatsDiagnostics {
            attempts: 1,
            ..StatsDiagnostics::default()
        };
        let err = match Self::build_stats(metrics, rows, opts, grids) {
            Ok(hist) => return (hist, diag, Some(opts)),
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
                if let Ok(hist) = Self::build_stats(metrics, rows, degraded, grids) {
                    diag.degraded = true;
                    diag.fallback = StatsFallback::DegradedBuckets;
                    return (hist, diag, Some(degraded));
                }
            }
        }
        // Floor: the uniform assumption is constructible in every state
        // (including the empty table).
        diag.attempts += 1;
        diag.degraded = true;
        diag.fallback = StatsFallback::Uniform;
        (build_uniform(rows), diag, None)
    }

    /// Diagnostics for the most recent statistics build or load.
    pub fn stats_diagnostics(&self) -> &StatsDiagnostics {
        &self.diagnostics
    }

    /// Replaces the `ANALYZE` configuration (technique, bucket budget,
    /// grid regions, refinements). Takes effect on the next analysis; the
    /// installed statistics are untouched.
    pub fn set_analyze_options(&mut self, analyze: AnalyzeOptions) {
        self.options.analyze = analyze;
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
    /// Serving path: the table's own [`SpatialReader`] body against the
    /// current snapshot — the histogram's block-pruned kernel
    /// ([`SpatialHistogram::estimate_count_indexed`]), bit-identical to a
    /// fresh linear scan.
    ///
    /// With metrics on, the reader body times one call in
    /// [`TableOptions::metrics_sampling`] and offers it to the flight
    /// recorder's `slow` and `sampled` triggers; the table records a timed
    /// call's latency in `engine.estimate.<technique>.ns`. Unsampled calls
    /// never read the clock. Every query is offered to the accuracy
    /// reservoir, so it samples the served workload, repeats included; with
    /// metrics off it has capacity 0 and no call is sampled.
    pub fn try_estimate(&self, query: &Rect) -> Result<f64, EstimateError> {
        if !query.is_finite() {
            return Err(EstimateError::NonFiniteQuery);
        }
        let mut guard = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
        let serving = &mut *guard;
        serving.sync_era(self.data_era);
        let (value, latency_ns) = serving.reader.estimate_on(&self.current, query, "");
        if let Some(latency_ns) = latency_ns {
            self.record_estimate_latency(latency_ns);
        }
        serving.reservoir.observe(*query);
        Ok(value)
    }

    /// [`SpatialTable::try_estimate`] with the evidence attached: which
    /// serving path ran, per-bucket contributions, extension-rule inputs,
    /// and pruning counters. The trace's headline estimate is
    /// **bit-identical** to `try_estimate` for the same query — EXPLAIN
    /// recomputes through the identical serving path, and counts no call
    /// and samples nothing, so tracing perturbs nothing.
    pub fn try_explain(&self, query: &Rect) -> Result<EstimateTrace, EstimateError> {
        if !query.is_finite() {
            return Err(EstimateError::NonFiniteQuery);
        }
        let mut serving = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(serving.reader.explain_on(&self.current, query))
    }

    /// The table's flight recorder: the one ring of slow / wrong / sampled
    /// query records, which the table's own estimates and every reader's
    /// (wire connections included) enter (see
    /// [`TableOptions::flight_capacity`]).
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.capture.flight)
    }

    /// Records a sampled end-to-end estimate latency into the per-technique
    /// histogram `engine.estimate.<technique>.ns`, which the first sampled
    /// call under each installed statistics resolves; later calls take no
    /// registry lock and allocate nothing.
    fn record_estimate_latency(&self, ns: u64) {
        self.estimate_ns
            .get_or_init(|| {
                let technique = match &self.stats {
                    Some(stats) => minskew_obs::name_component(stats.name()),
                    None => String::from("fallback"),
                };
                self.registry
                    .histogram(&format!("engine.estimate.{technique}.ns"))
            })
            .record(ns);
    }

    /// Estimated result sizes for a batch of queries: semantically
    /// `queries.iter().map(|q| self.estimate(q)).collect()` (`0.0` for a
    /// non-finite query) and **bit-identical** to that loop.
    ///
    /// The batch is served by the table's [`SpatialReader`] batch body
    /// under the serving lock: one pass over the current snapshot in
    /// **Morton order** of the query centres
    /// ([`minskew_core::morton_schedule`]), so consecutive queries are
    /// spatial neighbours that survive the same pruning blocks. Each
    /// estimate is independent, so the schedule cannot move a bit; results
    /// come back in input order. Every batch bumps `engine.batch.calls`
    /// and `engine.batch.queries` (see [`SpatialTable::metrics`]); batch
    /// queries are not sampled for latency or offered to the accuracy
    /// reservoir.
    pub fn estimate_batch(&self, queries: &[Rect]) -> Vec<f64> {
        let mut serving = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
        serving.batch_calls += 1;
        serving.batch_queries += queries.len() as u64;
        let mut out = Vec::new();
        serving
            .reader
            .estimate_batch_on(&self.current, queries, &mut out);
        out
    }

    /// A snapshot of this table's metrics: the registry's `engine.*`
    /// counters, gauges, and latency histograms, with the values that
    /// live elsewhere merged in at read time. Every value has one store:
    ///
    /// * the serving counters (`engine.query.*`, `engine.batch.*`) live
    ///   only in the serving state, where the hot path bumps them as plain
    ///   integers under the lock it already holds;
    /// * `engine.flight.recorded`, the records the table's flight recorder
    ///   ever captured (from the table, every reader and the audit), is
    ///   read from the recorder;
    /// * the state gauges (`engine.rows`, `engine.stats.generation`,
    ///   `engine.stats.buckets`, `engine.stats.bytes`, and
    ///   `engine.stats.staleness` while statistics exist) are read from the
    ///   table itself, metrics on or off. `engine.stats.bytes` is the
    ///   published histogram's [`SpatialEstimator::size_bytes`], kernel
    ///   plane included.
    pub fn metrics(&self) -> RegistrySnapshot {
        let mut counters = self
            .serving
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counters();
        counters.push((
            "engine.flight.recorded".to_owned(),
            self.capture.flight.total(),
        ));
        let stats = self.current.stats();
        let mut gauges = vec![
            ("engine.rows", self.rows.len() as f64),
            (
                "engine.stats.buckets",
                stats.map_or(0, |s| s.num_buckets()) as f64,
            ),
            (
                "engine.stats.bytes",
                stats.map_or(0, |s| s.size_bytes()) as f64,
            ),
            ("engine.stats.generation", self.generation as f64),
        ];
        if let Some(staleness) = self.stats_staleness() {
            gauges.push(("engine.stats.staleness", staleness));
        }
        let mut snapshot = self.registry.snapshot();
        snapshot.merge(RegistrySnapshot {
            counters,
            gauges: gauges
                .into_iter()
                .map(|(name, value)| (name.to_owned(), value))
                .collect(),
            ..RegistrySnapshot::default()
        });
        snapshot
    }

    /// Replays the accuracy monitor's reservoir of sampled served queries
    /// against exact index counts and reports the paper's §5 error metric
    /// `Σ|r_i − e_i| / Σ r_i` over that sample.
    ///
    /// Returns `None` when nothing has been sampled yet (metrics disabled,
    /// [`TableOptions::accuracy_reservoir`] zero, or no single-query
    /// estimate served yet). The audit runs the exact counts outside the
    /// serving lock, so concurrent estimates are not blocked; it publishes
    /// `engine.accuracy.avg_rel_error` / `engine.accuracy.samples` gauges
    /// and, on drift, bumps the `engine.accuracy.drift_detected` counter.
    pub fn audit_accuracy(&self) -> Option<AccuracyReport> {
        let (samples, observed) = {
            let mut serving = self.serving.lock().unwrap_or_else(PoisonError::into_inner);
            // Sync the data era first so any exact counts cached by a
            // previous audit are dropped if churn made them inexact.
            serving.sync_era(self.data_era);
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
            let estimate = self.current.estimate(&sample.query, &mut scratch);
            exacts.push(actual);
            num += (actual - estimate).abs();
            den += actual;
            // The replay is the only place the system holds a (query,
            // exact, estimate) triple: a residual past the threshold files
            // a `wrong` flight record so the offending query is
            // inspectable after the fact.
            let residual = (actual - estimate).abs() / actual.abs().max(1.0);
            if self.capture.flight.capacity() > 0
                && self.options.flight_residual > 0.0
                && residual > self.options.flight_residual
            {
                self.capture.flight.record(QueryRecord {
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
        if self.options.metrics {
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
    ///   readers never see a torn install); falls back
    ///   to a full re-`ANALYZE` when there is nothing to refine.
    ///
    /// With no sampled queries yet, repair is driven by staleness alone.
    pub fn maintain(&mut self) -> MaintenanceReport {
        let audit = self.audit_accuracy();
        let needs_repair = audit
            .as_ref()
            .map_or_else(|| self.stats_stale(), |report| report.recommend_reanalyze);
        if self.options.metrics {
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
        if self.options.metrics {
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
                    estimate: self.current.estimate(&sample.query, &mut scratch),
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
        if self.options.metrics {
            self.registry
                .histogram("engine.maintenance.refine_ns")
                .record(refine_ns);
        }
        Some(report)
    }

    /// Installs a refined histogram: same publication discipline as
    /// [`SpatialTable::install_stats`] (era bump, snapshot
    /// publish — readers never see a torn install), except the diagnostics
    /// are preserved (the statistics are still the product of the last
    /// `ANALYZE`, incrementally repaired) and the accuracy reservoir keeps
    /// its replayed feedback.
    fn install_refined(&mut self, hist: SpatialHistogram) {
        self.diagnostics.achieved_buckets = hist.buckets().len();
        self.install(hist);
    }

    /// Plans `query` without executing it. Runs auto-`ANALYZE` first when
    /// the statistics are missing or too stale (and auto-analysis is
    /// enabled).
    pub fn plan(&mut self, query: &Rect) -> Explain {
        if self.stats_stale()
            && self.options.auto_analyze_threshold.is_some()
            && self.rows.len() > 0
        {
            self.analyze();
        }
        let stale = self.stats_stale();
        let est = self.estimate(query);
        let model = self.options.cost_model;
        let plan = model.choose(self.rows.len(), est);
        let (cost, rejected) = match plan {
            Plan::IndexScan => (
                model.index_scan_cost(est),
                model.seq_scan_cost(self.rows.len()),
            ),
            Plan::SeqScan => (
                model.seq_scan_cost(self.rows.len()),
                model.index_scan_cost(est),
            ),
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
    use crate::reader::BatchQueryError;
    use minskew_datagen::charminar_with;

    /// The counter `name` in the table's metrics snapshot (0 if absent).
    fn counter(t: &SpatialTable, name: &str) -> u64 {
        t.metrics().counter(name).unwrap_or(0)
    }

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
    fn one_row_writes_reuse_the_retired_histogram() {
        // With no reader holding an older snapshot, write n + 2 replays
        // onto the histogram write n published instead of copying: the
        // two publications share one allocation, and only the first write
        // after ANALYZE (which has nothing retired) copies. A copy would
        // pass every bit-identity suite, so only this test sees a
        // fallback to it.
        let mut t = SpatialTable::new(TableOptions::default());
        t.insert_many(charminar_with(3_000, 5).rects().iter().copied());
        t.analyze();
        let published = |t: &SpatialTable| -> *const SpatialHistogram {
            t.current_snapshot().stats().expect("analyzed")
        };
        let mut history = Vec::new();
        let mut ids = Vec::new();
        for i in 0..12u64 {
            if i % 3 == 2 {
                assert!(t.delete(ids.remove(0)));
            } else {
                let (x, y) = ((i * 97 % 9_000) as f64, (i * 61 % 9_000) as f64);
                ids.push(t.insert(Rect::new(x, y, x + 100.0, y + 100.0)));
            }
            history.push(published(&t));
        }
        for (n, pair) in history.windows(3).enumerate() {
            assert!(std::ptr::eq(pair[0], pair[2]), "writes {n} and {}", n + 2);
            assert!(!std::ptr::eq(pair[0], pair[1]), "writes {n} and {}", n + 1);
        }
        assert_eq!(t.stats_copies, 1);
    }

    #[test]
    fn held_snapshot_is_isolated_from_later_writes() {
        // A held snapshot's histogram is never patched: writes replay
        // onto it only once no snapshot holds it, and copy it otherwise,
        // so a snapshot held across writes keeps serving exactly what it
        // served when it was taken.
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
    fn estimate_batch_equals_per_query_loop() {
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
        // Bit-identical, not approximately equal.
        let serial_bits: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
        let batch_bits: Vec<u64> = t
            .estimate_batch(&queries)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(batch_bits, serial_bits);
        let mut reader = t.reader();
        let mut strict = Vec::new();
        reader
            .try_estimate_batch_into(&queries, &mut strict)
            .expect("finite");
        assert_eq!(strict, serial);
        // Strict batch rejects a poisoned query; graceful batch maps it to 0.
        let poisoned = Rect {
            lo: minskew_geom::Point::new(f64::NAN, 0.0),
            hi: minskew_geom::Point::new(1.0, 1.0),
        };
        let mut with_bad = queries;
        with_bad.push(poisoned);
        assert!(reader
            .try_estimate_batch_into(&with_bad, &mut strict)
            .is_err());
        assert_eq!(t.estimate_batch(&with_bad).last(), Some(&0.0));
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
    fn analyze_degrades_an_empty_table_to_uniform() {
        // An empty table: the configured build refuses, and analyze
        // degrades to the uniform floor and records why.
        let mut t = SpatialTable::new(TableOptions::default());
        t.analyze();
        let d = t.stats_diagnostics();
        assert!(d.degraded);
        assert_eq!(d.fallback, StatsFallback::Uniform);
        assert_eq!(
            d.last_error,
            Some(minskew_core::BuildError::EmptyDataset.to_string())
        );
        assert_eq!(t.estimate(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "dataset rectangles must have finite coordinates")]
    fn analyze_after_a_non_finite_insert_panics_as_a_dataset_would() {
        let mut t = SpatialTable::new(TableOptions::default());
        t.insert_many(charminar_with(500, 3).rects().iter().copied());
        // Warm: the MBR, grid and centre sums are all maintained.
        t.analyze();
        t.analyze();
        assert_eq!(counter(&t, "engine.analyze.row_sweeps"), 1);
        t.insert(Rect {
            lo: minskew_geom::Point::new(1.0, f64::NAN),
            hi: minskew_geom::Point::new(2.0, 2.0),
        });
        t.analyze();
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
        t.analyze();
        let d = t.stats_diagnostics();
        let too_coarse = minskew_core::BuildError::GridTooCoarse {
            regions: 4,
            buckets: 100,
        };
        assert_eq!(d.last_error, Some(too_coarse.to_string()));
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
    fn repeated_queries_reach_the_reservoir() {
        let mut t = grid_table(20);
        t.analyze();
        let q = Rect::new(0.0, 0.0, 50.0, 50.0);
        let first = t.estimate(&q);
        for _ in 1..10 {
            assert_eq!(t.estimate(&q).to_bits(), first.to_bits());
        }
        // Every served estimate is offered to the reservoir, so a query
        // asked ten times is seen ten times, and reading the metrics
        // again never counts anything twice.
        let report = t.audit_accuracy().expect("queries were served");
        assert_eq!(report.observed, 10);
        for _ in 0..3 {
            assert_eq!(counter(&t, "engine.query.calls"), 10);
        }
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
        let mut reader = t.reader();
        let mut out = Vec::new();
        reader
            .try_estimate_batch_into(&good, &mut out)
            .expect("all finite");
        assert_eq!(out, serial);
        let poisoned = Rect {
            lo: minskew_geom::Point::new(f64::INFINITY, 0.0),
            hi: minskew_geom::Point::new(1.0, 1.0),
        };
        for position in [0usize, 64, good.len()] {
            let mut batch = good.clone();
            batch.insert(position, poisoned);
            let err = reader
                .try_estimate_batch_into(&batch, &mut out)
                .expect_err("must reject");
            assert_eq!(
                err,
                BatchQueryError {
                    index: position,
                    error: EstimateError::NonFiniteQuery,
                },
            );
            assert!(out.is_empty(), "position={position}");
        }
    }

    #[test]
    fn technique_names_parse() {
        for (name, technique) in [
            ("min-skew", StatsTechnique::MinSkew),
            ("minskew", StatsTechnique::MinSkew),
            ("equi-area", StatsTechnique::EquiArea),
            ("equi-count", StatsTechnique::EquiCount),
            ("uniform", StatsTechnique::Uniform),
        ] {
            assert_eq!(name.parse::<StatsTechnique>(), Ok(technique), "{name}");
        }
        assert_eq!(
            "rtree".parse::<StatsTechnique>(),
            Err(String::from(
                "unknown technique \"rtree\" (want min-skew|equi-area|equi-count|uniform)"
            ))
        );
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
        t.estimate_batch(&queries[..4]);
        assert_eq!(counter(&t, "engine.batch.calls"), 2);
        assert_eq!(counter(&t, "engine.batch.queries"), 14);
        // Batch queries are not single-query calls.
        assert_eq!(counter(&t, "engine.query.calls"), 0);
        let text = t.stats_diagnostics().to_string();
        assert_eq!(text, "stats 51/100 buckets (fallback: none, attempts: 1)");
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
        // Sampling 1 times every call.
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
        assert_eq!(counter(&t, "engine.query.calls"), 20);
        assert_eq!(counter(&t, "engine.batch.queries"), 3);
        // A second read must not double count.
        assert_eq!(counter(&t, "engine.query.calls"), 20);
        assert!(t.metrics().to_json().contains("\"engine.query.calls\": 20"));
    }

    #[test]
    fn accuracy_audit_matches_offline_error() {
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
    fn state_gauges_are_read_from_the_table_with_metrics_off() {
        let mut t = SpatialTable::new(TableOptions {
            metrics: false,
            ..TableOptions::default()
        });
        let snap = t.metrics();
        assert_eq!(snap.gauge("engine.stats.buckets"), Some(0.0));
        assert_eq!(snap.gauge("engine.stats.bytes"), Some(0.0));
        assert_eq!(snap.gauge("engine.stats.staleness"), None, "no statistics");
        for i in 0..100 {
            let x = f64::from(i % 10) * 10.0;
            let y = f64::from(i / 10) * 10.0;
            t.insert(Rect::new(x, y, x + 5.0, y + 5.0));
        }
        t.analyze();
        t.insert(Rect::new(1.0, 1.0, 2.0, 2.0));
        let snap = t.metrics();
        let stats = t.stats().expect("analyzed");
        assert_eq!(
            snap.gauge("engine.stats.generation"),
            Some(t.generation() as f64)
        );
        assert_eq!(
            snap.gauge("engine.stats.buckets"),
            Some(stats.num_buckets() as f64)
        );
        assert_eq!(snap.gauge("engine.rows"), Some(t.len() as f64));
        assert_eq!(snap.gauge("engine.stats.staleness"), t.stats_staleness());
        assert!(t.stats_staleness().is_some_and(|s| s > 0.0));
    }

    #[test]
    fn stats_bytes_gauge_counts_the_published_kernel_plane() {
        let mut t = grid_table(10);
        t.analyze();
        let published = t.current_snapshot();
        let stats = published.stats().expect("analyzed");
        let bytes = t.metrics().gauge("engine.stats.bytes").expect("gauge");
        assert_eq!(bytes, stats.size_bytes() as f64);
        let without_plane = stats.summary_bytes() + stats.serving_footprint().ext_table;
        assert!(bytes > without_plane as f64, "{bytes} vs {without_plane}");
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
        // The serving counters still count (they are plain bookkeeping)...
        assert_eq!(counter(&t, "engine.query.calls"), 40);
        assert_eq!(counter(&t, "engine.query.sampled"), 0);
        // ...but nothing was timed into a histogram.
        let snap = t.metrics();
        assert!(
            snap.histograms.iter().all(|(_, h)| h.count == 0),
            "{snap:?}"
        );
    }
}

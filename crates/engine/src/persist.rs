//! Durable statistics snapshots for [`SpatialTable`].
//!
//! A snapshot is the table's optimizer statistics sealed in the
//! checksummed container of [`minskew_core::snapshot`] and installed on
//! disk through the crash-safe atomic protocol of
//! [`minskew_data::atomic`]. This module wires the two together and — the
//! part that makes it *robust* rather than merely persistent — routes every
//! possible corruption into the engine's degradation ladder:
//!
//! * [`SpatialTable::save_snapshot`] — encode, checksum, install
//!   atomically (temp + fsync + rename + dir fsync, bounded retry).
//! * [`SpatialTable::try_load_snapshot`] — strict: a corrupt file is a
//!   typed error and nothing changes.
//! * [`SpatialTable::load_snapshot`] — graceful: a corrupt file is
//!   **quarantined** (renamed aside so the next load cannot trip over it),
//!   the table rebuilds statistics from its live rows via the
//!   degradation ladder, and the outcome is recorded in
//!   [`StatsDiagnostics`] and the `engine.snapshot.*` metrics. Estimates
//!   stay available and clamped to `[0, N]` through the whole cycle.
//! * [`SpatialTable::load_stats`] — the same graceful load from bytes
//!   already in memory, with the same recovery and nothing to quarantine.
//!
//! Every path decodes through [`SpatialHistogram::from_snapshot_bytes`], so
//! each accepts a container or a legacy bare-codec blob.

use std::path::{Path, PathBuf};

use minskew_core::{FormatVersion, SnapshotError, SnapshotInfo, SpatialHistogram};
use minskew_data::atomic::{write_atomic, AtomicWriteError};
use minskew_obs::Stopwatch;

use crate::table::{SpatialTable, StatsDiagnostics, StatsFallback};

/// Error from the strict snapshot I/O paths.
#[derive(Debug)]
pub enum SnapshotIoError {
    /// The table has no statistics to save (`ANALYZE` never ran).
    NoStats,
    /// Reading the snapshot file failed at the filesystem level.
    Io(std::io::Error),
    /// Writing the snapshot failed (stage and attempt count inside).
    Write(AtomicWriteError),
    /// The file's bytes fail the container's integrity checks.
    Corrupt(SnapshotError),
}

impl std::fmt::Display for SnapshotIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotIoError::NoStats => {
                f.write_str("table has no statistics to snapshot (run ANALYZE first)")
            }
            SnapshotIoError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotIoError::Write(e) => write!(f, "snapshot write: {e}"),
            SnapshotIoError::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
        }
    }
}

impl std::error::Error for SnapshotIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotIoError::NoStats => None,
            SnapshotIoError::Io(e) => Some(e),
            SnapshotIoError::Write(e) => Some(e),
            SnapshotIoError::Corrupt(e) => Some(e),
        }
    }
}

/// Outcome of a graceful [`SpatialTable::load_snapshot`].
#[derive(Debug)]
#[non_exhaustive]
pub struct SnapshotLoadReport {
    /// `true` when the snapshot's statistics were installed verbatim;
    /// `false` when recovery rebuilt statistics instead.
    pub installed: bool,
    /// Container metadata, when the file decoded (including legacy files).
    pub info: Option<SnapshotInfo>,
    /// Where the corrupt file was moved, when quarantine succeeded.
    pub quarantined: Option<PathBuf>,
    /// The statistics diagnostics after the load — on recovery this shows
    /// the ladder rung ([`StatsFallback::RebuiltFromData`] or
    /// [`StatsFallback::Uniform`]) and the triggering error.
    pub diagnostics: StatsDiagnostics,
}

/// Moves `path` aside to the first free `<path>.corrupt-N` name so the
/// damaged bytes are preserved for forensics but can never be loaded again
/// by accident. Returns `None` when the rename fails (e.g. a read-only
/// directory) — recovery proceeds regardless.
fn quarantine(path: &Path) -> Option<PathBuf> {
    let name = path.file_name()?.to_string_lossy().into_owned();
    for n in 1..10_000u32 {
        let candidate = path.with_file_name(format!("{name}.corrupt-{n}"));
        if candidate.exists() {
            continue;
        }
        if std::fs::rename(path, &candidate).is_ok() {
            return Some(candidate);
        }
        return None;
    }
    None
}

impl SpatialTable {
    /// Saves the current statistics to `path` as a durable snapshot.
    ///
    /// The bytes are the checksummed container of
    /// [`SpatialHistogram::to_snapshot_bytes`], installed with the atomic
    /// temp + fsync + rename protocol: a crash at any point leaves `path`
    /// holding either the complete previous snapshot or the complete new
    /// one, never a torn mix.
    pub fn save_snapshot(&self, path: &Path) -> Result<SnapshotInfo, SnapshotIoError> {
        let stats = self.stats().ok_or(SnapshotIoError::NoStats)?;
        let mut clock = Stopwatch::start();
        let bytes = stats.to_snapshot_bytes();
        write_atomic(path, &bytes).map_err(SnapshotIoError::Write)?;
        self.note_snapshot("save", clock.lap());
        // Encoding is total, so describing our own bytes cannot fail.
        minskew_core::verify_snapshot(&bytes).map_err(SnapshotIoError::Corrupt)
    }

    /// Loads a snapshot strictly: the statistics are installed only if the
    /// file passes every integrity check. On any error — unreadable file,
    /// bad checksum, malformed payload — nothing changes: the previous
    /// statistics (if any) stay in force and the file is left where it is.
    ///
    /// Legacy bare-codec files (the pre-container format) are accepted and
    /// reported as [`FormatVersion::Legacy`] in the returned info.
    pub fn try_load_snapshot(&mut self, path: &Path) -> Result<SnapshotInfo, SnapshotIoError> {
        let mut clock = Stopwatch::start();
        let bytes = std::fs::read(path).map_err(SnapshotIoError::Io)?;
        let (hist, info) =
            SpatialHistogram::from_snapshot_bytes(&bytes).map_err(SnapshotIoError::Corrupt)?;
        self.install_snapshot_stats(hist, &info);
        self.note_snapshot("load", clock.lap());
        Ok(info)
    }

    /// Loads a snapshot gracefully: corruption is survived, not returned.
    ///
    /// On a healthy file this is [`SpatialTable::try_load_snapshot`]. On a
    /// corrupt or unreadable file the engine:
    ///
    /// 1. **quarantines** the file (rename to `<path>.corrupt-N`) so the
    ///    damaged bytes are kept for forensics but never reloaded,
    /// 2. walks the degradation ladder — rebuild from the live rows, or
    ///    the uniform floor when even that fails — exactly as
    ///    [`SpatialTable::load_stats`] does for corrupt bytes,
    /// 3. records the outcome in [`StatsDiagnostics`] (fallback rung,
    ///    `last_error`) and the `engine.snapshot.*` metrics.
    ///
    /// Estimates remain available and clamped to `[0, N]` throughout.
    pub fn load_snapshot(&mut self, path: &Path) -> SnapshotLoadReport {
        let mut clock = Stopwatch::start();
        let decoded = std::fs::read(path)
            .map_err(SnapshotIoError::Io)
            .and_then(|bytes| {
                SpatialHistogram::from_snapshot_bytes(&bytes).map_err(SnapshotIoError::Corrupt)
            });
        match decoded {
            Ok((hist, info)) => {
                self.install_snapshot_stats(hist, &info);
                self.note_snapshot("load", clock.lap());
                SnapshotLoadReport {
                    installed: true,
                    info: Some(info),
                    quarantined: None,
                    diagnostics: self.diagnostics.clone(),
                }
            }
            Err(err) => {
                // Quarantine only what exists: an Io error usually means
                // the file is absent, and there is nothing to move.
                let quarantined = if matches!(err, SnapshotIoError::Corrupt(_)) {
                    let moved = quarantine(path);
                    if moved.is_some() {
                        self.bump_snapshot_counter("engine.snapshot.quarantined");
                    }
                    moved
                } else {
                    None
                };
                self.recover(&err);
                self.note_snapshot("recover", clock.lap());
                SnapshotLoadReport {
                    installed: false,
                    info: None,
                    quarantined,
                    diagnostics: self.diagnostics.clone(),
                }
            }
        }
    }

    /// Installs persisted statistics from bytes: a snapshot container, or
    /// a legacy bare-codec blob (the bytes of
    /// [`SpatialHistogram::to_bytes`]).
    ///
    /// Bytes that fail to decode are never installed; the table recovers
    /// as [`SpatialTable::load_snapshot`] does — rebuild from the live
    /// rows, count `engine.snapshot.corrupt` — and the returned
    /// diagnostics say so. Estimates therefore stay available and bounded
    /// through a corrupt-statistics / recovery cycle.
    pub fn load_stats(&mut self, bytes: &[u8]) -> StatsDiagnostics {
        match SpatialHistogram::from_snapshot_bytes(bytes) {
            Ok((hist, info)) => self.install_snapshot_stats(hist, &info),
            Err(e) => self.recover(&SnapshotIoError::Corrupt(e)),
        }
        self.diagnostics.clone()
    }

    /// Installs decoded snapshot statistics with clean diagnostics and
    /// bumps the per-format load counter.
    fn install_snapshot_stats(&mut self, hist: SpatialHistogram, info: &SnapshotInfo) {
        self.install_stats(
            hist,
            StatsDiagnostics {
                attempts: 1,
                ..StatsDiagnostics::default()
            },
        );
        self.bump_snapshot_counter(match info.version {
            FormatVersion::Container => "engine.snapshot.load_ok",
            FormatVersion::Legacy => "engine.snapshot.load_legacy",
        });
    }

    /// The one recovery body for statistics that could not be loaded:
    /// count corrupt input, rebuild from the rows the table still has, and
    /// stamp the diagnostics with the trigger. `analyze` is itself
    /// degradation-protected, so this always installs *something*; a
    /// deeper rung (the uniform floor) is preserved.
    fn recover(&mut self, err: &SnapshotIoError) {
        if matches!(err, SnapshotIoError::Corrupt(_)) {
            self.bump_snapshot_counter("engine.snapshot.corrupt");
        }
        self.analyze();
        self.diagnostics.degraded = true;
        self.diagnostics.attempts += 1;
        if self.diagnostics.fallback != StatsFallback::Uniform {
            self.diagnostics.fallback = StatsFallback::RebuiltFromData;
        }
        self.diagnostics.last_error = Some(err.to_string());
    }

    /// Records one snapshot operation: an `engine.snapshot.<op>` counter
    /// plus its latency histogram.
    fn note_snapshot(&self, op: &str, ns: u64) {
        if !self.options.metrics {
            return;
        }
        self.registry
            .counter(&format!("engine.snapshot.{op}"))
            .inc();
        self.registry
            .histogram(&format!("engine.snapshot.{op}_ns"))
            .record(ns);
    }

    /// Bumps a snapshot counter, respecting the metrics switch.
    fn bump_snapshot_counter(&self, name: &str) {
        if self.options.metrics {
            self.registry.counter(name).inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableOptions;
    use minskew_datagen::charminar_with;
    use minskew_geom::Rect;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("minskew-persist-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn analyzed_table(n: usize, seed: u64) -> SpatialTable {
        let mut t = SpatialTable::new(TableOptions::default());
        for r in charminar_with(n, seed).rects() {
            t.insert(*r);
        }
        t.analyze();
        t
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("stats.snap");
        let t = analyzed_table(2_000, 21);
        let info = t.save_snapshot(&path).expect("save");
        assert_eq!(info.version, FormatVersion::Container);
        assert_eq!(info.technique, "Min-Skew");

        let mut fresh = SpatialTable::new(TableOptions::default());
        for r in charminar_with(2_000, 21).rects() {
            fresh.insert(*r);
        }
        let loaded = fresh.try_load_snapshot(&path).expect("load");
        assert_eq!(loaded.buckets, info.buckets);
        assert_eq!(
            fresh.stats().expect("installed").to_bytes(),
            t.stats().expect("analyzed").to_bytes(),
            "snapshot round trip must preserve the statistics bit for bit"
        );
        let d = fresh.stats_diagnostics();
        assert!(!d.degraded);
        assert_eq!(d.fallback, StatsFallback::None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_without_stats_is_a_typed_error() {
        let dir = tmp_dir("nostats");
        let t = SpatialTable::new(TableOptions::default());
        let err = t.save_snapshot(&dir.join("x.snap")).expect_err("no stats");
        assert!(matches!(err, SnapshotIoError::NoStats));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_load_rejects_corruption_and_keeps_previous_stats() {
        let dir = tmp_dir("strict");
        let path = dir.join("stats.snap");
        let mut t = analyzed_table(1_000, 22);
        t.save_snapshot(&path).expect("save");
        let before = t.stats().expect("analyzed").to_bytes();

        let mut bytes = std::fs::read(&path).expect("readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");

        let err = t.try_load_snapshot(&path).expect_err("corrupt");
        assert!(matches!(err, SnapshotIoError::Corrupt(_)), "{err}");
        assert_eq!(
            t.stats().expect("still installed").to_bytes(),
            before,
            "strict load must not disturb the installed statistics"
        );
        assert!(path.exists(), "strict load must not quarantine");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graceful_load_quarantines_and_rebuilds() {
        let dir = tmp_dir("graceful");
        let path = dir.join("stats.snap");
        let mut t = analyzed_table(1_500, 23);
        t.save_snapshot(&path).expect("save");
        let mut bytes = std::fs::read(&path).expect("readable");
        bytes.truncate(bytes.len() / 3); // a torn write survivor
        std::fs::write(&path, &bytes).expect("rewrite");

        let report = t.load_snapshot(&path);
        assert!(!report.installed);
        let q = report.quarantined.as_ref().expect("quarantined");
        assert!(q.exists(), "quarantine file must exist");
        assert!(!path.exists(), "original path must be clear");
        assert_eq!(report.diagnostics.fallback, StatsFallback::RebuiltFromData);
        assert!(report
            .diagnostics
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("corrupt snapshot")));
        // Recovery must leave the table estimating within bounds.
        let est = t.estimate(&Rect::new(0.0, 0.0, 3_000.0, 3_000.0));
        assert!(est.is_finite() && est >= 0.0 && est <= t.len() as f64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graceful_load_of_missing_file_rebuilds_without_quarantine() {
        let dir = tmp_dir("missing");
        let mut t = analyzed_table(800, 24);
        let report = t.load_snapshot(&dir.join("never-written.snap"));
        assert!(!report.installed);
        assert!(report.quarantined.is_none());
        assert_eq!(report.diagnostics.fallback, StatsFallback::RebuiltFromData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_bare_codec_file_loads_with_legacy_format_version() {
        let dir = tmp_dir("legacy");
        let path = dir.join("legacy.stats");
        let t = analyzed_table(1_200, 25);
        std::fs::write(&path, t.stats().expect("analyzed").to_bytes()).expect("write legacy");

        let mut fresh = SpatialTable::new(TableOptions::default());
        let info = fresh.try_load_snapshot(&path).expect("legacy decodes");
        assert_eq!(info.version, FormatVersion::Legacy);
        assert_eq!(
            fresh.stats().expect("installed").to_bytes(),
            t.stats().expect("analyzed").to_bytes()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_stats_installs_containers_and_recovers_from_corrupt_ones() {
        let mut t = analyzed_table(1_000, 27);
        let container = t.stats().expect("analyzed").to_snapshot_bytes();
        let d = t.load_stats(&container);
        assert_eq!(d.fallback, StatsFallback::None);
        assert_eq!(t.stats().expect("installed").to_snapshot_bytes(), container);
        let mut corrupt = container.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        let d = t.load_stats(&corrupt);
        assert_eq!(d.fallback, StatsFallback::RebuiltFromData);
        assert!(d
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("corrupt snapshot")));
        let snap = t.metrics();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        assert_eq!(counter("engine.snapshot.load_ok"), Some(1));
        assert_eq!(counter("engine.snapshot.corrupt"), Some(1));
        assert_eq!(counter("engine.stats.corrupt_summary"), None);
    }

    #[test]
    fn snapshot_metrics_count_operations() {
        let dir = tmp_dir("metrics");
        let path = dir.join("stats.snap");
        let mut t = analyzed_table(1_000, 26);
        t.save_snapshot(&path).expect("save");
        t.try_load_snapshot(&path).expect("load");
        std::fs::write(&path, b"garbage").expect("corrupt");
        let _ = t.load_snapshot(&path);
        let snap = t.metrics();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        assert_eq!(counter("engine.snapshot.save"), 1);
        assert_eq!(counter("engine.snapshot.load"), 1);
        assert_eq!(counter("engine.snapshot.load_ok"), 1);
        assert_eq!(counter("engine.snapshot.corrupt"), 1);
        assert_eq!(counter("engine.snapshot.quarantined"), 1);
        assert_eq!(counter("engine.snapshot.recover"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

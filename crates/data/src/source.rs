//! Streaming access to rectangle collections.
//!
//! A central advantage the paper claims for Min-Skew is that "the
//! construction algorithm does not require the entire data distribution to
//! fit in main memory" — it only ever needs sequential sweeps. This module
//! makes that concrete: [`RectSource`] abstracts "something that can be
//! swept", implemented both by the in-memory [`Dataset`] and by
//! [`CsvRectSource`], which re-reads a CSV file per sweep and keeps only
//! summary statistics resident.

use std::io::BufRead;
use std::path::{Path, PathBuf};

use minskew_geom::{mbr_of, Rect};

use crate::io::{parse_line, CsvError};
use crate::{Dataset, DatasetStats};

/// A rectangle collection that supports repeated sequential sweeps.
///
/// Construction algorithms that honour the paper's memory model
/// (Min-Skew's density-grid builds) consume data exclusively through this
/// trait.
pub trait RectSource {
    /// Starts a fresh sweep over all rectangles.
    fn scan(&self) -> Box<dyn Iterator<Item = Rect> + '_>;

    /// Summary statistics (`N`, MBR, total area, average dimensions),
    /// computed once when the source is opened.
    fn stats(&self) -> DatasetStats;

    /// `N` and the MBR, the two statistics a grid build reads. The default
    /// takes them from [`RectSource::stats`]; a source that maintains them
    /// answers without computing the rest.
    fn len_and_mbr(&self) -> (usize, Rect) {
        let stats = self.stats();
        (stats.n, stats.mbr)
    }

    /// Starts a fresh sweep, surfacing source failures as errors instead of
    /// panicking: the outer `Result` reports failure to *start* the sweep
    /// (e.g. the backing file vanished), each inner `Result` a failure to
    /// produce one rectangle (e.g. a row corrupted since validation).
    ///
    /// The default implementation wraps [`RectSource::scan`] and never
    /// fails, which is correct for in-memory sources; disk-backed sources
    /// override it.
    fn try_scan(&self) -> Result<Box<dyn Iterator<Item = Result<Rect, CsvError>> + '_>, CsvError> {
        Ok(Box::new(self.scan().map(Ok)))
    }

    /// Sweeps every rectangle, in [`RectSource::scan`] order, handing `f`
    /// one contiguous slice at a time, so a sweep over resident rows runs
    /// as a plain loop per slice.
    ///
    /// The default buffers `scan()` in slices of 1024 rects, so it
    /// yields (and fails) exactly as `scan()` does; sources that hold
    /// their rows in slices pass those instead.
    fn for_each_run(&self, f: &mut dyn FnMut(&[Rect])) {
        let mut run = Vec::with_capacity(RUN);
        for r in self.scan() {
            run.push(r);
            if run.len() == RUN {
                f(&run);
                run.clear();
            }
        }
        if !run.is_empty() {
            f(&run);
        }
    }
}

/// Rects per slice in the default [`RectSource::for_each_run`].
const RUN: usize = 1024;

impl RectSource for Dataset {
    fn scan(&self) -> Box<dyn Iterator<Item = Rect> + '_> {
        Box::new(self.rects().iter().copied())
    }

    fn stats(&self) -> DatasetStats {
        *Dataset::stats(self)
    }

    fn for_each_run(&self, f: &mut dyn FnMut(&[Rect])) {
        f(self.rects());
    }
}

/// A disk-resident rectangle collection: each sweep re-reads the CSV file,
/// so resident memory stays O(1) regardless of dataset size.
///
/// The file is fully validated once at [`CsvRectSource::open`]; subsequent
/// sweeps assume the file is unchanged (a malformed or vanished file
/// mid-sweep panics with a clear message rather than silently corrupting
/// statistics).
#[derive(Debug, Clone)]
pub struct CsvRectSource {
    path: PathBuf,
    stats: DatasetStats,
}

impl CsvRectSource {
    /// Opens and validates a `x1,y1,x2,y2` CSV file, computing the summary
    /// statistics in one pass.
    pub fn open(path: impl AsRef<Path>) -> Result<CsvRectSource, CsvError> {
        let path = path.as_ref().to_path_buf();
        // The parser rejects non-finite values, so the sweep never panics.
        let mut failure = None;
        let stats = DatasetStats::of(
            scan_file(&path)?.map_while(|r| r.map_err(|e| failure = Some(e)).ok()),
        );
        match failure {
            Some(e) => Err(e),
            None => Ok(CsvRectSource { path, stats }),
        }
    }

    /// The file backing this source.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl RectSource for CsvRectSource {
    fn scan(&self) -> Box<dyn Iterator<Item = Rect> + '_> {
        let iter = scan_file(&self.path)
            .unwrap_or_else(|e| panic!("re-opening {}: {e}", self.path.display()));
        Box::new(iter.map(|r| r.unwrap_or_else(|e| panic!("file changed since validation: {e}"))))
    }

    fn stats(&self) -> DatasetStats {
        self.stats
    }

    fn try_scan(&self) -> Result<Box<dyn Iterator<Item = Result<Rect, CsvError>> + '_>, CsvError> {
        Ok(Box::new(scan_file(&self.path)?))
    }
}

/// Lazily parses a rect CSV, yielding one result per data line.
fn scan_file(path: &Path) -> Result<impl Iterator<Item = Result<Rect, CsvError>>, CsvError> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    Ok(reader
        .lines()
        .enumerate()
        .filter_map(|(i, line)| match line {
            Err(e) => Some(Err(CsvError::Io(e))),
            Ok(line) => {
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    return None;
                }
                Some(parse_line(trimmed, i + 1))
            }
        }))
}

/// Computes the MBR of a source by sweeping it (for callers holding only
/// the trait object; concrete sources answer from their cached stats).
pub fn source_mbr<S: RectSource + ?Sized>(source: &S) -> Option<Rect> {
    mbr_of(source.scan())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_rects_csv;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("minskew-source-{}-{name}", std::process::id()))
    }

    #[test]
    fn csv_source_stats_match_dataset() {
        let ds = Dataset::new(vec![
            Rect::new(0.0, 0.0, 2.0, 2.0),
            Rect::new(5.0, 1.0, 9.0, 4.0),
            Rect::new(-1.0, -2.0, 0.0, 0.0),
        ]);
        let path = tmp("stats.csv");
        write_rects_csv(&ds, &path).unwrap();
        let src = CsvRectSource::open(&path).unwrap();
        let a = src.stats();
        let b = *ds.stats();
        assert_eq!(a.n, b.n);
        assert_eq!(a.mbr, b.mbr);
        assert!((a.total_area - b.total_area).abs() < 1e-12);
        assert!((a.avg_width - b.avg_width).abs() < 1e-12);
        // Sweeps yield the same rects, repeatedly.
        for _ in 0..2 {
            let got: Vec<Rect> = src.scan().collect();
            assert_eq!(got, ds.rects());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn default_runs_of_a_csv_source_concatenate_to_its_scan() {
        // 2 500 rows: two full slices and a partial one.
        let ds = Dataset::new(
            (0..2_500)
                .map(|i| {
                    let x = (i * 37 % 1000) as f64;
                    Rect::new(x, i as f64, x + 2.5, i as f64 + 0.5)
                })
                .collect(),
        );
        let path = tmp("runs.csv");
        write_rects_csv(&ds, &path).unwrap();
        let src = CsvRectSource::open(&path).unwrap();
        let mut lens = Vec::new();
        let mut swept = Vec::new();
        src.for_each_run(&mut |run| {
            lens.push(run.len());
            swept.extend_from_slice(run);
        });
        assert_eq!(lens, [RUN, RUN, 2_500 - 2 * RUN]);
        assert_eq!(swept, src.scan().collect::<Vec<_>>());
        assert_eq!(swept, ds.rects());
        // A resident source hands over its one slice.
        let mut runs = 0;
        ds.for_each_run(&mut |run| {
            runs += 1;
            assert_eq!(run, ds.rects());
        });
        assert_eq!(runs, 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn dataset_is_a_source() {
        let ds = Dataset::new(vec![Rect::new(0.0, 0.0, 1.0, 1.0)]);
        let src: &dyn RectSource = &ds;
        assert_eq!(src.scan().count(), 1);
        assert_eq!(src.stats().n, 1);
        assert_eq!(source_mbr(src), Some(Rect::new(0.0, 0.0, 1.0, 1.0)));
    }

    #[test]
    fn try_scan_surfaces_failures_instead_of_panicking() {
        let ds = Dataset::new(vec![
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(2.0, 2.0, 3.0, 3.0),
        ]);
        let path = tmp("tryscan.csv");
        write_rects_csv(&ds, &path).unwrap();
        let src = CsvRectSource::open(&path).unwrap();
        // Healthy file: every row comes back Ok.
        let rows: Result<Vec<Rect>, CsvError> = src.try_scan().unwrap().collect();
        assert_eq!(rows.unwrap(), ds.rects());
        // File corrupted after validation: the sweep yields an Err row.
        std::fs::write(&path, "1,2,3,4\ngarbage\n").unwrap();
        let rows: Vec<Result<Rect, CsvError>> = src.try_scan().unwrap().collect();
        assert!(rows.iter().any(|r| r.is_err()));
        // File removed after validation: starting the sweep fails cleanly.
        std::fs::remove_file(&path).unwrap();
        assert!(src.try_scan().is_err());
        // The in-memory default implementation never fails.
        let rows: Result<Vec<Rect>, CsvError> = ds.try_scan().unwrap().collect();
        assert_eq!(rows.unwrap(), ds.rects());
    }

    #[test]
    fn open_rejects_malformed_files() {
        let path = tmp("bad.csv");
        std::fs::write(&path, "1,2,3,4\noops\n").unwrap();
        assert!(matches!(
            CsvRectSource::open(&path),
            Err(CsvError::Parse(2, _))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_file_is_an_empty_source() {
        let path = tmp("empty.csv");
        std::fs::write(&path, "# just a header\n").unwrap();
        let src = CsvRectSource::open(&path).unwrap();
        assert_eq!(src.stats().n, 0);
        assert_eq!(src.scan().count(), 0);
        std::fs::remove_file(path).ok();
    }
}

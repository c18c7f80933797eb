//! Statistics publication: a one-slot cell that installs immutable
//! `Arc`-published table snapshots, so readers never wait on the table lock
//! and never observe a half-installed histogram. The cell is documented on
//! [`SnapshotCell`], and what a snapshot holds on [`TableSnapshot`].

use std::sync::{Arc, Mutex, PoisonError};

use minskew_core::{KernelScratch, SpatialHistogram};
use minskew_geom::Rect;

use crate::reader::Capture;

/// Reusable serving scratch: the kernel's term buffer, so every estimate
/// entry point is allocation-free once warm.
pub type EstimateScratch = KernelScratch;

/// An immutable, fully-built view of a table's serving state, published
/// atomically via [`SnapshotCell`].
///
/// # What a snapshot carries
///
/// Everything the serving path needs: the live row count (for clamping),
/// the fallback MBR (for never-analyzed tables), the statistics, the
/// table's capture policy (which calls a reader samples, and the flight
/// recorder they enter; see [`crate::SpatialReader`]), and two monotonic
/// counters — `generation` (bumped by every publication) and `stats_era`
/// (bumped only by statistics installs). Readers keep no results between
/// loads, so a publication needs no flush: the next estimate simply runs
/// against the new snapshot.
#[derive(Debug)]
pub struct TableSnapshot {
    generation: u64,
    stats_era: u64,
    live: usize,
    /// Index MBR at publication time (`None` when the table was empty);
    /// used only by the never-analyzed fallback estimate.
    mbr: Option<Rect>,
    stats: Option<Arc<SpatialHistogram>>,
    /// The table's capture policy, shared by every publication.
    capture: Arc<Capture>,
}

impl TableSnapshot {
    pub(crate) fn new(
        generation: u64,
        stats_era: u64,
        live: usize,
        mbr: Option<Rect>,
        stats: Option<Arc<SpatialHistogram>>,
        capture: Arc<Capture>,
    ) -> TableSnapshot {
        TableSnapshot {
            generation,
            stats_era,
            live,
            mbr,
            stats,
            capture,
        }
    }

    /// Monotonic publication counter (every mutation publishes).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Monotonic statistics-install counter (only `ANALYZE`/loads bump it).
    pub fn stats_era(&self) -> u64 {
        self.stats_era
    }

    /// Live rows at publication time.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The published statistics, if `ANALYZE` has run.
    pub fn stats(&self) -> Option<&SpatialHistogram> {
        self.stats.as_deref()
    }

    /// The table's capture policy, which the reader body applies.
    pub(crate) fn capture(&self) -> &Capture {
        &self.capture
    }

    /// The raw (unclamped) estimate against this snapshot. Every serving
    /// entry point — the table, every reader, the network front-end —
    /// funnels here, so they agree bit for bit.
    pub(crate) fn estimate_raw(&self, query: &Rect, scratch: &mut EstimateScratch) -> f64 {
        match &self.stats {
            Some(stats) => stats.estimate_count_indexed(query, scratch),
            None => {
                // Planner fallback: treat the whole table as one bucket
                // covering the index MBR (a DBMS guesses without stats too).
                let (live, Some(mbr)) = (self.live, self.mbr) else {
                    return 0.0;
                };
                if live == 0 {
                    return 0.0;
                }
                let frac = if mbr.area() > 0.0 {
                    query.intersection_area(&mbr) / mbr.area()
                } else if query.intersects(&mbr) {
                    1.0
                } else {
                    0.0
                };
                live as f64 * frac
            }
        }
    }

    /// Clamp to `[0, N]` against this snapshot's row count: degraded or
    /// stale statistics may over- or under-shoot, but the bound always
    /// holds, and a non-finite raw value serves as `0.0`.
    fn clamp(&self, raw: f64) -> f64 {
        if raw.is_finite() {
            raw.clamp(0.0, self.live as f64)
        } else {
            0.0
        }
    }

    /// The clamped estimate for a query already validated finite: raw
    /// estimate, then clamp to `[0, N]` against this snapshot's row count.
    pub fn estimate(&self, query: &Rect, scratch: &mut EstimateScratch) -> f64 {
        self.clamp(self.estimate_raw(query, scratch))
    }

    /// [`TableSnapshot::estimate`] with the evidence attached. The headline
    /// number is produced by *calling the serving path itself*
    /// (`TableSnapshot::estimate_raw` plus the identical clamp), so it is
    /// bit-identical to what `ESTIMATE` would have returned by
    /// construction. The per-bucket breakdown then comes from the kernel's
    /// explained scan — the same scan with recording on the side, pinned
    /// bit-identical to the serving path by the trace differential suite.
    pub fn explain(&self, query: &Rect, scratch: &mut EstimateScratch) -> EstimateTrace {
        let raw = self.estimate_raw(query, scratch);
        let estimate = self.clamp(raw);
        let path = match &self.stats {
            Some(_) => EstimatePath::Indexed,
            None => EstimatePath::Fallback,
        };
        let detail = self
            .stats
            .as_ref()
            .map(|s| s.estimate_count_explained(query, scratch));
        EstimateTrace {
            estimate,
            raw,
            clamped: raw.to_bits() != estimate.to_bits(),
            path,
            generation: self.generation,
            stats_era: self.stats_era,
            live: self.live,
            detail,
        }
    }
}

/// Which serving path computed an estimate (see
/// `TableSnapshot::estimate_raw`'s two-way dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatePath {
    /// The block-pruned kernel path.
    Indexed,
    /// The never-analyzed MBR-fraction fallback.
    Fallback,
}

impl EstimatePath {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            EstimatePath::Indexed => "indexed",
            EstimatePath::Fallback => "fallback",
        }
    }
}

/// A traced estimate: the exact serving-path result plus everything an
/// operator needs to see why it came out that way. Produced by
/// [`TableSnapshot::explain`] (and the reader/table/server surfaces built
/// on it); named `EstimateTrace` to stay clear of the planner's
/// [`crate::Explain`].
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateTrace {
    /// The clamped estimate — bit-identical to what
    /// [`TableSnapshot::estimate`] returns for the same query.
    pub estimate: f64,
    /// The raw pre-clamp fold result.
    pub raw: f64,
    /// `true` when clamping (or the non-finite guard) changed the raw
    /// value.
    pub clamped: bool,
    /// Which serving path computed it.
    pub path: EstimatePath,
    /// Publication generation of the snapshot that served it.
    pub generation: u64,
    /// Statistics era of that snapshot.
    pub stats_era: u64,
    /// Live rows the clamp was taken against.
    pub live: usize,
    /// The kernel's per-bucket breakdown (`None` when the fallback path
    /// served — there are no buckets to blame).
    pub detail: Option<minskew_core::EstimateExplain>,
}

/// The publication cell that publishes a table's [`TableSnapshot`]s to its
/// readers: one `Mutex<Arc<T>>`.
///
/// `load` locks the slot, clones the `Arc` and unlocks; `store` swaps the
/// new `Arc` in under the same lock. The lock is held only for a pointer
/// copy, never across an estimate or a build, so an estimate is always
/// computed against exactly one fully-built [`TableSnapshot`], each thread
/// sees publications in non-decreasing order, and a reader never waits on
/// the table lock, an `ANALYZE` or a write. The cell holds only the
/// current value, so a superseded snapshot is freed as soon as no reader
/// holds it, and the table can reuse its statistics (see `SpatialTable`'s
/// retired histogram).
#[derive(Debug)]
pub struct SnapshotCell<T> {
    slot: Mutex<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    /// Creates a cell publishing `initial`.
    pub fn new(initial: Arc<T>) -> SnapshotCell<T> {
        SnapshotCell {
            slot: Mutex::new(initial),
        }
    }

    /// The currently published value: a complete, fully-built `T`.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `value`. Readers observe either the previous value or
    /// `value`, never a mixture; the displaced value is dropped after the
    /// lock is released, and freed once no reader holds it.
    pub fn store(&self, value: Arc<T>) {
        let displaced = std::mem::replace(
            &mut *self.slot.lock().unwrap_or_else(PoisonError::into_inner),
            value,
        );
        drop(displaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn store_frees_the_displaced_value() {
        let initial = Arc::new(0u64);
        let cell = SnapshotCell::new(initial.clone());
        let a = Arc::new(1u64);
        cell.store(a.clone());
        assert_eq!(Arc::strong_count(&initial), 1, "the initial value");
        cell.store(Arc::new(2));
        assert_eq!(Arc::strong_count(&a), 1, "the cell still holds a");
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn load_returns_latest_store() {
        let cell = SnapshotCell::new(Arc::new(0u64));
        assert_eq!(*cell.load(), 0);
        for i in 1..10 {
            cell.store(Arc::new(i));
            assert_eq!(*cell.load(), i);
        }
    }

    #[test]
    fn concurrent_readers_only_see_complete_values() {
        // Publish (k, k * 3) pairs; a torn read would pair mismatched
        // halves. Readers assert the invariant while the writer spins.
        let cell = Arc::new(SnapshotCell::new(Arc::new((0u64, 0u64))));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let v = cell.load();
                        assert_eq!(v.1, v.0 * 3, "torn snapshot observed");
                        assert!(v.0 >= last, "publication went backwards");
                        last = v.0;
                    }
                })
            })
            .collect();
        for k in 1..=2_000u64 {
            cell.store(Arc::new((k, k * 3)));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
        assert_eq!(*cell.load(), (2_000, 6_000));
    }
}

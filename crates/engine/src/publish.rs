//! Lock-free statistics publication: an epoch/two-slot cell that installs
//! immutable `Arc`-published table snapshots, so readers never block on a
//! writer and never observe a half-installed histogram.
//!
//! # The publication protocol
//!
//! [`SnapshotCell`] is a hand-rolled arc-swap (no external crates, no
//! `unsafe`): an atomic epoch plus two slots, each a `Mutex<Arc<T>>`.
//!
//! * **Readers** load the epoch with `Acquire`, lock the *current* slot
//!   (`epoch & 1`), clone the `Arc`, drop the lock, and load the epoch
//!   again. If it moved, they retry. A few nanoseconds, and never a lock
//!   the writer is holding for the current epoch.
//! * **The writer** (serialized by its own mutex) writes the new `Arc` into
//!   the *inactive* slot, then flips the epoch with `Release`. The only
//!   shared mutation is an `Arc` pointer swap performed under the slot's
//!   mutex, so an estimate is always computed against exactly one
//!   fully-built [`TableSnapshot`].
//! * **After the flip** the writer also writes the new `Arc` into the slot
//!   it displaced, which is now the inactive one. The cell then holds only
//!   the current value, so a superseded snapshot is freed as soon as no
//!   reader holds it, and the table can reuse its statistics (see
//!   `SpatialTable`'s retired histogram). A reader that read the old
//!   epoch and clones from that slot gets the new value, sees the epoch
//!   move, and retries, exactly as it would after a staged write.
//!
//! **Contract: each reader sees publications in non-decreasing order**, and
//! only published ones. While the epoch stays `e`, the writer writes only
//! slot `(e + 1) & 1`, so a clone of slot `e & 1` taken between two loads
//! that both read `e` is the value published at `e`. Without the second
//! load, a reader that stalls after reading `e` could clone the value the
//! writer is staging for `e + 2` before it is published, and then return
//! the older `e + 1` on its next load.
//!
//! # What a snapshot carries
//!
//! [`TableSnapshot`] is everything the serving path needs: the live row
//! count (for clamping), the fallback MBR (for never-analyzed tables), the
//! statistics, and two monotonic counters — `generation` (bumped by
//! every publication) and `stats_era` (bumped only by statistics
//! installs). Readers keep no results between loads, so a publication
//! needs no flush: the next estimate simply runs against the new snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use minskew_core::{KernelScratch, SpatialHistogram};
use minskew_geom::Rect;

/// Reusable serving scratch: the kernel's term buffer, so every estimate
/// entry point is allocation-free once warm.
pub type EstimateScratch = KernelScratch;

/// An immutable, fully-built view of a table's serving state, published
/// atomically via [`SnapshotCell`]. See the module docs.
#[derive(Debug)]
pub struct TableSnapshot {
    generation: u64,
    stats_era: u64,
    live: usize,
    /// Index MBR at publication time (`None` when the table was empty);
    /// used only by the never-analyzed fallback estimate.
    mbr: Option<Rect>,
    stats: Option<Arc<SpatialHistogram>>,
}

impl TableSnapshot {
    pub(crate) fn new(
        generation: u64,
        stats_era: u64,
        live: usize,
        mbr: Option<Rect>,
        stats: Option<Arc<SpatialHistogram>>,
    ) -> TableSnapshot {
        TableSnapshot {
            generation,
            stats_era,
            live,
            mbr,
            stats,
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

    /// The raw (unclamped) estimate against this snapshot. Every serving
    /// entry point — the table, every lock-free reader, the network
    /// front-end — funnels here, so they agree bit for bit.
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

/// The epoch/two-slot publication cell. See the module docs for the
/// protocol and its torn-read-freedom argument.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    epoch: AtomicU64,
    /// Serializes writers so concurrent `store`s cannot race the epoch
    /// flip. Readers never touch this lock.
    writer: Mutex<()>,
    slots: [Mutex<Arc<T>>; 2],
    /// Pause points a test can arm to drive an exact interleaving:
    /// [`READER_PAUSE`] and [`WRITER_PAUSE`].
    #[cfg(test)]
    pauses: [Mutex<Option<tests::Gate>>; 2],
}

/// In `load`, between the epoch load and the slot lock.
#[cfg(test)]
const READER_PAUSE: usize = 0;
/// In `store`, between the slot write and the epoch flip.
#[cfg(test)]
const WRITER_PAUSE: usize = 1;

impl<T> SnapshotCell<T> {
    /// Creates a cell publishing `initial`.
    pub fn new(initial: Arc<T>) -> SnapshotCell<T> {
        SnapshotCell {
            epoch: AtomicU64::new(0),
            writer: Mutex::new(()),
            slots: [Mutex::new(initial.clone()), Mutex::new(initial)],
            #[cfg(test)]
            pauses: Default::default(),
        }
    }

    /// The currently published value. Never blocks on a writer installing
    /// the next value (the writer works in the other slot), always returns
    /// a complete, fully-built `T`, and never returns an older value than
    /// an earlier `load` on the same thread did.
    pub fn load(&self) -> Arc<T> {
        loop {
            let epoch = self.epoch.load(Ordering::Acquire);
            #[cfg(test)]
            self.pause(READER_PAUSE);
            let value = self.slots[(epoch & 1) as usize]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            // A writer flips to `epoch + 1` before it locks this slot to
            // stage `epoch + 2`, and our lock acquire orders that flip
            // before this load; so an unchanged epoch means the clone is
            // the value published at `epoch`.
            if self.epoch.load(Ordering::Acquire) == epoch {
                return value;
            }
        }
    }

    /// Publishes `value`: writes it into the inactive slot, then flips the
    /// epoch. Readers observe either the previous value or `value`, never
    /// a mixture. Then `value` also replaces the displaced value in the
    /// other slot, so the cell no longer holds the superseded value: it is
    /// freed once no reader holds it.
    pub fn store(&self, value: Arc<T>) {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = self.epoch.load(Ordering::Relaxed);
        *self.slots[((epoch + 1) & 1) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = value.clone();
        #[cfg(test)]
        self.pause(WRITER_PAUSE);
        self.epoch.store(epoch + 1, Ordering::Release);
        // The displaced slot is now the inactive one, which the protocol
        // lets the writer write while the epoch is `epoch + 1`. The
        // displaced value is dropped after the slot lock is released.
        let displaced = std::mem::replace(
            &mut *self.slots[(epoch & 1) as usize]
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
            value,
        );
        drop(displaced);
    }

    /// Blocks the first thread to reach pause point `at` after a test armed
    /// it, until the test releases it.
    #[cfg(test)]
    fn pause(&self, at: usize) {
        let gate = self.pauses[at]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some((arrived, go)) = gate {
            arrived.send(()).expect("the test waits for arrival");
            go.recv().expect("the test releases the pause");
        }
    }

    /// Number of publications so far (the current epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// An armed pause point: the paused thread signals arrival on the
    /// sender, then waits on the receiver.
    pub(super) type Gate = (Sender<()>, Receiver<()>);

    /// Arms pause point `at`; returns the arrival signal and the release.
    fn arm<T>(cell: &SnapshotCell<T>, at: usize) -> (Receiver<()>, Sender<()>) {
        let (arrived_tx, arrived) = channel();
        let (go, go_rx) = channel();
        *cell.pauses[at].lock().expect("gate lock") = Some((arrived_tx, go_rx));
        (arrived, go)
    }

    /// The stalled-reader race, driven step by step: a reader reads epoch
    /// `e`, the writer publishes `e + 1` and stages `e + 2` in slot `e & 1`,
    /// and only then does the reader lock that slot. It must return the
    /// published `e + 1`, never the staged `e + 2` followed by an older
    /// value.
    #[test]
    fn a_stalled_reader_never_returns_an_unpublished_value() {
        let cell = Arc::new(SnapshotCell::new(Arc::new(0u64)));
        let (reader_arrived, reader_go) = arm(&cell, READER_PAUSE);
        let reader = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || *cell.load())
        };
        reader_arrived.recv().expect("reader read epoch 0");
        cell.store(Arc::new(1));
        let (writer_arrived, writer_go) = arm(&cell, WRITER_PAUSE);
        let writer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || cell.store(Arc::new(2)))
        };
        writer_arrived.recv().expect("writer staged 2 in slot 0");
        reader_go.send(()).expect("reader waits");
        let first = reader.join().expect("reader panicked");
        let next = *cell.load();
        assert!(
            first <= next,
            "publication went backwards: {first} -> {next}"
        );
        assert_eq!(first, 1, "the reader returned a value not yet published");
        writer_go.send(()).expect("writer waits");
        writer.join().expect("writer panicked");
        assert_eq!(*cell.load(), 2);
    }

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
            assert_eq!(cell.epoch(), i);
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
        assert_eq!(cell.epoch(), 2_000);
    }
}

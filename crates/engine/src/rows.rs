//! Row storage behind [`crate::SpatialTable`].
//!
//! A row id is the row's position in insertion order, so ids are
//! monotonic, never reused, and found in O(1). Rows live in fixed
//! [`CHUNK`]-slot chunks: a dense array of rects plus a bitmap of which
//! slots are live. Once every row of a full chunk is deleted, the chunk is
//! freed. A table under first-in-first-out churn therefore holds a bounded
//! number of chunks instead of one tombstone per row it ever stored.
//!
//! The store also keeps the live row count and MBR under writes, so a
//! Min-Skew `ANALYZE` reads both without a sweep. `ANALYZE` reads the rows
//! where they are, through [`LiveRows`], a run of consecutive live rows at
//! a time, and only when it must.

use std::cell::{Cell, OnceCell};

use minskew_data::{Dataset, DatasetStats, RectSource};
use minskew_geom::{mbr_of, Rect};

/// Row slots per chunk.
const CHUNK: usize = 1024;

/// Words of a chunk's live bitmap.
const WORDS: usize = CHUNK / 64;

/// One chunk of rows. A slot's rect counts only while its live bit is set;
/// a deleted (or not yet assigned) slot keeps a stale rect nobody reads.
struct Chunk {
    rects: Box<[Rect]>,
    /// Bit `s % 64` of word `s / 64` is set while slot `s` is live.
    bits: [u64; WORDS],
    live: usize,
}

impl Chunk {
    fn is_live(&self, s: usize) -> bool {
        self.bits[s / 64] >> (s % 64) & 1 == 1
    }

    /// The first slot at or after `from` whose live bit is `live`, or
    /// [`CHUNK`] if there is none.
    fn next_slot(&self, from: usize, live: bool) -> usize {
        let flip = if live { 0 } else { u64::MAX };
        let mut w = from / 64;
        if w == WORDS {
            return CHUNK;
        }
        let mut word = (self.bits[w] ^ flip) & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                return w * 64 + word.trailing_zeros() as usize;
            }
            w += 1;
            if w == WORDS {
                return CHUNK;
            }
            word = self.bits[w] ^ flip;
        }
    }

    /// The maximal runs of live slots, as `(first slot, rects)` in slot
    /// order.
    fn runs(&self) -> impl Iterator<Item = (usize, &[Rect])> + '_ {
        let mut from = 0;
        std::iter::from_fn(move || {
            let start = self.next_slot(from, true);
            if start == CHUNK {
                return None;
            }
            from = self.next_slot(start, false);
            Some((start, &self.rects[start..from]))
        })
    }
}

/// Row slots by id, chunked so that deleted rows can be reclaimed, with
/// the live row count and MBR.
///
/// The MBR is the one [`DatasetStats::of`] folds over the live rows in id
/// order. An insert folds its rect in the same way, accumulator first. A
/// delete leaves the MBR alone unless the row has a coordinate `==` to
/// the MBR edge on its side (which also matches a `-0.0` edge against a
/// `0.0` row): then the MBR is *dirty*, and the next [`RowStore::live`]
/// sweeps the rows for it. A non-finite insert also makes it dirty, so the
/// sweep rejects that row as a [`Dataset`] would. Between sweeps every
/// deleted row lies strictly inside the MBR on each side, so it never
/// decided an edge value, nor the sign of a zero edge: the maintained MBR
/// equals a fresh fold bit for bit.
#[derive(Default)]
pub(crate) struct RowStore {
    /// Chunk `c` holds ids `c * CHUNK .. (c + 1) * CHUNK`; `None` once
    /// freed.
    chunks: Vec<Option<Chunk>>,
    /// The id the next insert gets.
    next: u64,
    /// Live rows.
    len: usize,
    /// The live rows' MBR, `None` while there are none; stale while
    /// `mbr_dirty`.
    mbr: Option<Rect>,
    mbr_dirty: bool,
}

/// Chunk index and slot of row `id`.
fn locate(id: u64) -> (usize, usize) {
    let id = usize::try_from(id).unwrap_or(usize::MAX);
    (id / CHUNK, id % CHUNK)
}

impl RowStore {
    /// The id the next insert will get: every id below it was assigned.
    pub(crate) fn next_id(&self) -> u64 {
        self.next
    }

    /// Live rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Stores `rect` under the next id and returns that id.
    pub(crate) fn insert(&mut self, rect: Rect) -> u64 {
        if !rect.is_finite() {
            self.mbr_dirty = true;
        } else if !self.mbr_dirty {
            self.mbr = Some(self.mbr.map_or(rect, |m| m.union(&rect)));
        }
        self.len += 1;
        let id = self.next;
        let (c, s) = locate(id);
        if s == 0 {
            self.chunks.push(Some(Chunk {
                rects: vec![rect; CHUNK].into_boxed_slice(),
                bits: [0; WORDS],
                live: 0,
            }));
        }
        let chunk = self.chunks[c]
            .as_mut()
            .expect("the chunk being filled is never freed");
        chunk.rects[s] = rect;
        chunk.bits[s / 64] |= 1 << (s % 64);
        chunk.live += 1;
        self.next += 1;
        id
    }

    /// The live row `id`, if any.
    pub(crate) fn get(&self, id: u64) -> Option<Rect> {
        let (c, s) = locate(id);
        let chunk = self.chunks.get(c)?.as_ref()?;
        chunk.is_live(s).then(|| chunk.rects[s])
    }

    /// Deletes row `id` and returns its rectangle; `None` if the id was
    /// never assigned or is already deleted. Frees the row's chunk when it
    /// is full and this was its last live row.
    pub(crate) fn remove(&mut self, id: u64) -> Option<Rect> {
        let (c, s) = locate(id);
        let chunk = self.chunks.get_mut(c)?.as_mut()?;
        if !chunk.is_live(s) {
            return None;
        }
        chunk.bits[s / 64] &= !(1 << (s % 64));
        chunk.live -= 1;
        let rect = chunk.rects[s];
        self.len -= 1;
        if let Some(m) = self.mbr {
            if rect.lo.x == m.lo.x
                || rect.lo.y == m.lo.y
                || rect.hi.x == m.hi.x
                || rect.hi.y == m.hi.y
            {
                self.mbr_dirty = true;
            }
        }
        if chunk.live == 0 && ((c + 1) * CHUNK) as u64 <= self.next {
            self.chunks[c] = None;
        }
        Some(rect)
    }

    /// The maximal runs of consecutive live rows within a chunk, as
    /// `(id of the first, rects)`, in ascending id order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (u64, &[Rect])> + '_ {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(c, chunk)| Some((c, chunk.as_ref()?)))
            .flat_map(|(c, chunk)| {
                chunk
                    .runs()
                    .map(move |(s, rects)| ((c * CHUNK + s) as u64, rects))
            })
    }

    /// The live rows in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, Rect)> + '_ {
        self.runs()
            .flat_map(|(first, rects)| (first..).zip(rects.iter().copied()))
    }

    /// The live rows as a [`RectSource`], read in place. A dirty MBR is
    /// swept for here, and only then; otherwise their count and MBR come
    /// without a sweep.
    ///
    /// # Panics
    ///
    /// Panics if the MBR is dirty and a live row has a non-finite
    /// coordinate, as [`Dataset::new`] does.
    pub(crate) fn live(&mut self) -> LiveRows<'_> {
        let swept = self.mbr_dirty;
        if swept {
            self.mbr = mbr_of(
                self.runs()
                    .flat_map(|(_, rects)| rects.iter().copied())
                    .inspect(|r| {
                        assert!(
                            r.is_finite(),
                            "dataset rectangles must have finite coordinates"
                        );
                    }),
            );
            self.mbr_dirty = false;
        }
        LiveRows {
            mbr: self.mbr.unwrap_or_else(|| Rect::new(0.0, 0.0, 0.0, 0.0)),
            rows: self,
            stats: OnceCell::new(),
            swept: Cell::new(swept),
        }
    }

    /// Chunks currently allocated.
    #[cfg(test)]
    pub(crate) fn allocated_chunks(&self) -> usize {
        self.chunks.iter().flatten().count()
    }
}

/// The live rows of a [`RowStore`] as a [`RectSource`], swept in ascending
/// id order. That is the order a copy into a [`Dataset`] keeps, so the
/// statistics and every sweep match that copy's bit for bit.
///
/// `N` and the MBR ([`RectSource::len_and_mbr`]) are the store's; the rest
/// of [`RectSource::stats`] is computed by a sweep on first use.
pub(crate) struct LiveRows<'a> {
    rows: &'a RowStore,
    mbr: Rect,
    stats: OnceCell<DatasetStats>,
    /// Set by anything that read the rows: the dirty-MBR sweep, the full
    /// statistics, a scan, a run visit or a copy.
    swept: Cell<bool>,
}

impl LiveRows<'_> {
    /// Copies the live rows into a [`Dataset`], for the builders that sort
    /// a resident slice.
    pub(crate) fn to_dataset(&self) -> Dataset {
        let mut rects = Vec::with_capacity(self.rows.len);
        self.for_each_run(&mut |run| rects.extend_from_slice(run));
        Dataset::new(rects)
    }

    /// Whether anything has swept the rows since [`RowStore::live`].
    pub(crate) fn swept(&self) -> bool {
        self.swept.get()
    }
}

impl RectSource for LiveRows<'_> {
    fn scan(&self) -> Box<dyn Iterator<Item = Rect> + '_> {
        self.swept.set(true);
        Box::new(
            self.rows
                .runs()
                .flat_map(|(_, rects)| rects.iter().copied()),
        )
    }

    fn stats(&self) -> DatasetStats {
        *self.stats.get_or_init(|| DatasetStats::of(self.scan()))
    }

    fn len_and_mbr(&self) -> (usize, Rect) {
        (self.rows.len, self.mbr)
    }

    fn for_each_run(&self, f: &mut dyn FnMut(&[Rect])) {
        self.swept.set(true);
        for (_, run) in self.rows.runs() {
            f(run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(i: u64) -> Rect {
        let x = i as f64;
        Rect::new(x, x, x + 1.0, x + 1.0)
    }

    #[test]
    fn ids_are_positions_and_never_reused() {
        let mut rows = RowStore::default();
        for i in 0..3 * CHUNK as u64 {
            assert_eq!(rows.insert(rect(i)), i);
        }
        // Empty a full chunk: it is freed, its ids stay dead.
        for i in 0..CHUNK as u64 {
            assert_eq!(rows.remove(i), Some(rect(i)));
        }
        assert_eq!(rows.allocated_chunks(), 2);
        assert_eq!(rows.get(5), None);
        assert_eq!(rows.remove(5), None);
        assert_eq!(rows.get(CHUNK as u64), Some(rect(CHUNK as u64)));
        assert_eq!(rows.insert(rect(7)), 3 * CHUNK as u64);
        assert_eq!(rows.get(u64::MAX), None);
        assert_eq!(rows.remove(u64::MAX), None);
    }

    #[test]
    fn the_chunk_being_filled_survives_emptying() {
        let mut rows = RowStore::default();
        let a = rows.insert(rect(0));
        assert_eq!(rows.remove(a), Some(rect(0)));
        assert_eq!(rows.allocated_chunks(), 1);
        assert_eq!(rows.insert(rect(1)), 1);
        assert_eq!(rows.iter().collect::<Vec<_>>(), vec![(1, rect(1))]);
    }

    /// Checks that `runs()` holds exactly the rows of `want`, as maximal
    /// runs in id order, and that `iter()` and the sweeps agree.
    fn assert_runs(rows: &mut RowStore, want: &[(u64, Rect)]) {
        let runs: Vec<(u64, &[Rect])> = rows.runs().collect();
        let flat: Vec<(u64, Rect)> = runs
            .iter()
            .flat_map(|&(first, rects)| (first..).zip(rects.iter().copied()))
            .collect();
        assert_eq!(flat, want);
        for pair in runs.windows(2) {
            let ((a, ra), (b, _)) = (pair[0], pair[1]);
            let end = a + ra.len() as u64;
            // Runs are non-empty, and two runs that touch straddle a chunk
            // boundary.
            assert!(!ra.is_empty());
            assert!(end < b || locate(end).1 == 0, "runs {a} and {b}");
        }
        assert_eq!(rows.iter().collect::<Vec<_>>(), want);
        let live = rows.live();
        let rects: Vec<Rect> = want.iter().map(|&(_, r)| r).collect();
        assert!(live.scan().eq(rects.iter().copied()));
        let mut swept = Vec::new();
        live.for_each_run(&mut |run| swept.extend_from_slice(run));
        assert_eq!(swept, rects);
    }

    #[test]
    fn runs_concatenate_to_the_live_rows_through_churn() {
        let mut rows = RowStore::default();
        let mut want: Vec<(u64, Rect)> = Vec::new();
        assert_runs(&mut rows, &want);
        // Three full chunks and part of a fourth, the one being filled.
        for i in 0..3 * CHUNK as u64 + 100 {
            rows.insert(rect(i));
            want.push((i, rect(i)));
        }
        assert_runs(&mut rows, &want);
        let delete = |rows: &mut RowStore, want: &mut Vec<(u64, Rect)>, id: u64| {
            assert_eq!(rows.remove(id), Some(rect(id)));
            want.retain(|&(i, _)| i != id);
        };
        // The first and last slot of the second chunk, and slots on either
        // side of a bitmap word boundary.
        let c = CHUNK as u64;
        for id in [c, 2 * c - 1, c + 63, c + 64, c + 127] {
            delete(&mut rows, &mut want, id);
        }
        assert_runs(&mut rows, &want);
        // Free the first chunk.
        for id in 0..c {
            delete(&mut rows, &mut want, id);
        }
        assert_eq!(rows.allocated_chunks(), 3);
        assert_runs(&mut rows, &want);
        // Every other row of the third chunk and of the one being filled:
        // runs one row long.
        for id in (2 * c..3 * c).chain(3 * c..3 * c + 100).step_by(2) {
            delete(&mut rows, &mut want, id);
        }
        assert_runs(&mut rows, &want);
        // The chunk being filled keeps filling behind its deleted slots.
        for i in 0..50 {
            let id = rows.insert(rect(10_000 + i));
            want.push((id, rect(10_000 + i)));
        }
        assert_runs(&mut rows, &want);
        // Dead slots are never read, whatever stale rect they hold.
        for id in [0, c, 2 * c, 2 * c - 1, 3 * c + 98] {
            assert_eq!(rows.get(id), None, "id {id}");
            assert_eq!(rows.remove(id), None, "id {id}");
        }
        assert_eq!(rows.get(rows.next_id()), None);
        assert_eq!(rows.remove(rows.next_id()), None);
        assert_runs(&mut rows, &want);
    }

    #[test]
    fn live_rows_match_a_dataset_copy_bit_for_bit() {
        // Irregular rects, so the float sums depend on the fold order.
        let rect = |i: u64| {
            let x = (i * 7919 % 1009) as f64 * 0.37;
            let y = (i * 104_729 % 997) as f64 * 1.13;
            Rect::new(
                x,
                y,
                x + 0.1 + (i % 11) as f64 * 0.71,
                y + (i % 5) as f64 * 2.9,
            )
        };
        let mut rows = RowStore::default();
        for i in 0..4 * CHUNK as u64 {
            rows.insert(rect(i));
        }
        // Free the first chunk, thin the others, and add fresh rows.
        for id in (0..CHUNK as u64).chain((CHUNK as u64..4 * CHUNK as u64).step_by(3)) {
            rows.remove(id);
        }
        for i in 0..500 {
            rows.insert(rect(10_000 + i));
        }
        assert_eq!(rows.allocated_chunks(), 4);
        let copy = Dataset::new(rows.iter().map(|(_, r)| r).collect());
        let live = rows.live();
        let (a, b) = (live.stats(), *copy.stats());
        assert_eq!(a.n, b.n);
        assert_eq!(a.mbr, b.mbr);
        for (x, y) in [
            (a.total_area, b.total_area),
            (a.avg_width, b.avg_width),
            (a.avg_height, b.avg_height),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(live.scan().eq(copy.rects().iter().copied()));
        assert_eq!(live.to_dataset().rects(), copy.rects());
    }

    #[test]
    fn the_maintained_mbr_is_a_fresh_fold_through_edge_churn() {
        // Checks `N` and the MBR's bits against a fold over a copy, and
        // that `live` swept exactly when `sweeps`.
        fn check(rows: &mut RowStore, sweeps: bool, step: &str) {
            let fresh = DatasetStats::of(rows.iter().map(|(_, r)| r));
            let live = rows.live();
            assert_eq!(live.swept(), sweeps, "{step}: sweep");
            let bits = |r: Rect| [r.lo.x, r.lo.y, r.hi.x, r.hi.y].map(f64::to_bits);
            let (n, mbr) = live.len_and_mbr();
            assert_eq!((n, bits(mbr)), (fresh.n, bits(fresh.mbr)), "{step}");
            assert_eq!(
                live.swept(),
                sweeps,
                "{step}: reading N and the MBR sweeps nothing"
            );
            assert_eq!(live.stats(), fresh, "{step}");
            assert!(live.swept(), "{step}: the full statistics sweep");
        }
        let at = |x0: f64, y0: f64, x1: f64, y1: f64| Rect {
            lo: minskew_geom::Point::new(x0, y0),
            hi: minskew_geom::Point::new(x1, y1),
        };
        let mut rows = RowStore::default();
        check(&mut rows, false, "empty");
        let ids: Vec<u64> = [
            at(0.0, 5.0, 1.0, 6.0),
            at(-0.0, 7.0, 2.0, 8.0),
            at(3.0, 3.0, 4.0, 4.0),
            at(5.0, -2.0, 9.0, 1.0),
            at(6.0, 2.0, 9.0, 3.0),
        ]
        .into_iter()
        .map(|r| rows.insert(r))
        .collect();
        check(&mut rows, false, "inserts fold in");
        rows.remove(ids[2]);
        check(&mut rows, false, "an interior delete");
        // Rows 3 and 4 share the right edge: either delete re-sweeps.
        rows.remove(ids[4]);
        check(&mut rows, true, "one of two right-edge rows");
        check(&mut rows, false, "settled");
        // The left edge is a zero held at both signs.
        rows.remove(ids[0]);
        check(&mut rows, true, "the 0.0 edge row");
        rows.insert(at(0.0, 1.0, 0.5, 1.5));
        check(&mut rows, false, "a 0.0 row onto a -0.0 edge");
        rows.remove(ids[1]);
        check(&mut rows, true, "the -0.0 edge row");
        rows.remove(ids[3]);
        check(&mut rows, true, "the bottom edge shrinks");
        rows.remove(5);
        check(&mut rows, true, "the last row");
        rows.insert(at(1.0, 1.0, 2.0, 2.0));
        check(&mut rows, false, "a first row again");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn a_non_finite_row_is_rejected_as_by_a_dataset() {
        let mut rows = RowStore::default();
        rows.insert(Rect::new(0.0, 0.0, 1.0, 1.0));
        rows.insert(Rect {
            lo: minskew_geom::Point::new(0.0, f64::NAN),
            hi: minskew_geom::Point::new(1.0, 1.0),
        });
        rows.live();
    }

    #[test]
    fn fifo_churn_holds_a_bounded_chunk_count() {
        // 200k writes: 5000 rows loaded, then alternately delete the
        // oldest live row and insert a new one.
        let mut rows = RowStore::default();
        let live = 5_000u64;
        for i in 0..live {
            rows.insert(rect(i));
        }
        let mut oldest = 0;
        for w in 0..200_000u64 {
            if w % 2 == 0 {
                assert!(rows.remove(oldest).is_some());
                oldest += 1;
            } else {
                rows.insert(rect(live + w));
            }
            if w % 1000 == 0 {
                assert!(rows.allocated_chunks() <= live as usize / CHUNK + 2);
            }
        }
        let ids: Vec<u64> = rows.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, (oldest..rows.next_id()).collect::<Vec<_>>());
    }
}

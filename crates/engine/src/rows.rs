//! Row storage behind [`crate::SpatialTable`].
//!
//! A row id is the row's position in insertion order, so ids are
//! monotonic, never reused, and found in O(1). Slots live in fixed
//! [`CHUNK`]-slot chunks with a live count each; once every row of a full
//! chunk is deleted, the chunk is freed. A table under first-in-first-out
//! churn therefore holds a bounded number of chunks instead of one
//! tombstone per row it ever stored.
//!
//! `ANALYZE` reads the rows where they are, through [`LiveRows`].

use minskew_data::{Dataset, DatasetStats, RectSource};
use minskew_geom::Rect;

/// Row slots per chunk.
const CHUNK: usize = 1024;

/// One chunk of row slots; `None` marks a deleted (or not yet assigned)
/// row.
struct Chunk {
    slots: Box<[Option<Rect>]>,
    live: usize,
}

/// Row slots by id, chunked so that deleted rows can be reclaimed.
#[derive(Default)]
pub(crate) struct RowStore {
    /// Chunk `c` holds ids `c * CHUNK .. (c + 1) * CHUNK`; `None` once
    /// freed.
    chunks: Vec<Option<Chunk>>,
    /// The id the next insert gets.
    next: u64,
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

    /// Stores `rect` under the next id and returns that id.
    pub(crate) fn insert(&mut self, rect: Rect) -> u64 {
        let id = self.next;
        let (c, s) = locate(id);
        if s == 0 {
            self.chunks.push(Some(Chunk {
                slots: vec![None; CHUNK].into_boxed_slice(),
                live: 0,
            }));
        }
        let chunk = self.chunks[c]
            .as_mut()
            .expect("the chunk being filled is never freed");
        chunk.slots[s] = Some(rect);
        chunk.live += 1;
        self.next += 1;
        id
    }

    /// The live row `id`, if any.
    pub(crate) fn get(&self, id: u64) -> Option<Rect> {
        let (c, s) = locate(id);
        self.chunks.get(c)?.as_ref()?.slots[s]
    }

    /// Deletes row `id` and returns its rectangle; `None` if the id was
    /// never assigned or is already deleted. Frees the row's chunk when it
    /// is full and this was its last live row.
    pub(crate) fn remove(&mut self, id: u64) -> Option<Rect> {
        let (c, s) = locate(id);
        let chunk = self.chunks.get_mut(c)?.as_mut()?;
        let rect = chunk.slots[s].take()?;
        chunk.live -= 1;
        if chunk.live == 0 && ((c + 1) * CHUNK) as u64 <= self.next {
            self.chunks[c] = None;
        }
        Some(rect)
    }

    /// The live rows in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, Rect)> + '_ {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(c, chunk)| Some((c, chunk.as_ref()?)))
            .flat_map(|(c, chunk)| {
                chunk
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(move |(s, slot)| slot.map(|rect| ((c * CHUNK + s) as u64, rect)))
            })
    }

    /// The live rows as a [`RectSource`], read in place.
    ///
    /// # Panics
    ///
    /// Panics if a live row has a non-finite coordinate, as
    /// [`Dataset::new`] does.
    pub(crate) fn live(&self) -> LiveRows<'_> {
        LiveRows {
            rows: self,
            stats: DatasetStats::of(self.iter().map(|(_, rect)| rect)),
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
pub(crate) struct LiveRows<'a> {
    rows: &'a RowStore,
    stats: DatasetStats,
}

impl LiveRows<'_> {
    /// Copies the live rows into a [`Dataset`], for the builders that sort
    /// a resident slice.
    pub(crate) fn to_dataset(&self) -> Dataset {
        Dataset::new(self.scan().collect())
    }
}

impl RectSource for LiveRows<'_> {
    fn scan(&self) -> Box<dyn Iterator<Item = Rect> + '_> {
        Box::new(self.rows.iter().map(|(_, rect)| rect))
    }

    fn stats(&self) -> DatasetStats {
        self.stats
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
        let live = rows.live();
        let copy = Dataset::new(rows.iter().map(|(_, r)| r).collect());
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

//! Row storage behind [`crate::SpatialTable`].
//!
//! A row id is the row's position in insertion order, so ids are
//! monotonic, never reused, and found in O(1). Slots live in fixed
//! [`CHUNK`]-slot chunks with a live count each; once every row of a full
//! chunk is deleted, the chunk is freed. A table under first-in-first-out
//! churn therefore holds a bounded number of chunks instead of one
//! tombstone per row it ever stored.

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

    /// Chunks currently allocated.
    #[cfg(test)]
    pub(crate) fn allocated_chunks(&self) -> usize {
        self.chunks.iter().flatten().count()
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

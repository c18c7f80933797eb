//! A bounded LRU cache for query estimates, keyed on the query's raw f64
//! bits.
//!
//! Caching an estimate is sound only because every mutation of a
//! [`crate::SpatialTable`] publishes a new snapshot generation, and the
//! one cache owner ([`crate::SpatialReader`], which the table also serves
//! through) flushes on the first read that observes a new generation,
//! before any probe: a cached value is therefore always the value the
//! estimator would recompute, bit for bit. Keys are the four raw `f64` bit
//! patterns of the query rectangle, so two queries share an entry only when
//! they are the *same bits* — no epsilon matching, no rounding.
//!
//! The LRU list is intrusive: a slab of slots doubly linked through `u32`
//! indices, so a hit costs one hash lookup plus a few pointer swaps and
//! eviction is O(1) — no per-entry allocation after the slab fills.

use std::collections::HashMap;

use minskew_geom::Rect;

/// Sentinel index for "no slot".
const NONE: u32 = u32::MAX;

/// Cache key: the query rectangle's raw bit patterns
/// (`lo.x, lo.y, hi.x, hi.y`).
pub(crate) fn cache_key(query: &Rect) -> [u64; 4] {
    [
        query.lo.x.to_bits(),
        query.lo.y.to_bits(),
        query.hi.x.to_bits(),
        query.hi.y.to_bits(),
    ]
}

#[derive(Debug, Clone)]
struct Slot {
    key: [u64; 4],
    value: f64,
    prev: u32,
    next: u32,
}

/// Bounded LRU over `(query bits) -> estimate`. A capacity of `0` disables
/// insertion entirely (every lookup misses).
#[derive(Debug, Clone)]
pub(crate) struct QueryCache {
    capacity: usize,
    map: HashMap<[u64; 4], u32>,
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot (the eviction victim).
    tail: u32,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl QueryCache {
    pub(crate) fn new(capacity: usize) -> QueryCache {
        QueryCache {
            // The slab is indexed by u32; reserve the sentinel.
            capacity: capacity.min(NONE as usize - 1),
            map: HashMap::new(),
            slots: Vec::new(),
            head: NONE,
            tail: NONE,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Configured capacity in entries (`0` = caching disabled).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a cached estimate, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &[u64; 4]) -> Option<f64> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.hits += 1;
                self.move_to_front(i);
                Some(self.slots[i as usize].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether `key` is resident, without counting a hit or a miss and
    /// without touching its recency (what EXPLAIN asks).
    pub(crate) fn contains(&self, key: &[u64; 4]) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts (or refreshes) an estimate, evicting the least recently used
    /// entry when full.
    pub(crate) fn insert(&mut self, key: [u64; 4], value: f64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i as usize].value = value;
            self.move_to_front(i);
            return;
        }
        let i = if self.slots.len() < self.capacity {
            let i = self.slots.len() as u32;
            self.slots.push(Slot {
                key,
                value,
                prev: NONE,
                next: NONE,
            });
            i
        } else {
            // Reuse the LRU victim's slot in place.
            let i = self.tail;
            debug_assert_ne!(i, NONE, "non-empty cache must have a tail");
            self.unlink(i);
            let slot = &mut self.slots[i as usize];
            self.map.remove(&slot.key);
            slot.key = key;
            slot.value = value;
            i
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    /// Drops every entry (the table mutated: all cached estimates are
    /// potentially stale). Counted only when the cache held something.
    pub(crate) fn invalidate(&mut self) {
        if !self.map.is_empty() {
            self.invalidations += 1;
        }
        self.map.clear();
        self.slots.clear();
        self.head = NONE;
        self.tail = NONE;
    }

    /// Changes the capacity in place (`0` disables caching). The entries
    /// are dropped, without counting an invalidation; the hit, miss and
    /// invalidation counters carry on.
    pub(crate) fn resize(&mut self, capacity: usize) {
        *self = QueryCache {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            ..QueryCache::new(capacity)
        };
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    pub(crate) fn invalidations(&self) -> u64 {
        self.invalidations
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev != NONE {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NONE;
        self.slots[i as usize].next = self.head;
        if self.head != NONE {
            self.slots[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NONE {
            self.tail = i;
        }
    }

    fn move_to_front(&mut self, i: u32) {
        if self.head == i {
            return;
        }
        self.unlink(i);
        self.push_front(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> [u64; 4] {
        [n, n + 1, n + 2, n + 3]
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c = QueryCache::new(8);
        assert_eq!(c.get(&key(1)), None);
        c.insert(key(1), 42.5);
        assert_eq!(c.get(&key(1)), Some(42.5));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = QueryCache::new(3);
        c.insert(key(1), 1.0);
        c.insert(key(2), 2.0);
        c.insert(key(3), 3.0);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(&key(1)), Some(1.0));
        c.insert(key(4), 4.0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&key(2)), None, "LRU entry must be evicted");
        assert_eq!(c.get(&key(1)), Some(1.0));
        assert_eq!(c.get(&key(3)), Some(3.0));
        assert_eq!(c.get(&key(4)), Some(4.0));
    }

    #[test]
    fn contains_neither_counts_nor_reorders() {
        let mut c = QueryCache::new(3);
        c.insert(key(1), 1.0);
        c.insert(key(2), 2.0);
        c.insert(key(3), 3.0);
        // 1 is the LRU victim; asking about it must not save it.
        assert!(c.contains(&key(1)));
        assert!(!c.contains(&key(9)));
        assert_eq!((c.hits(), c.misses()), (0, 0));
        c.insert(key(4), 4.0);
        assert!(!c.contains(&key(1)), "contains must not refresh recency");
        assert!(c.contains(&key(2)) && c.contains(&key(3)) && c.contains(&key(4)));
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = QueryCache::new(2);
        c.insert(key(1), 1.0);
        c.insert(key(2), 2.0);
        c.insert(key(1), 10.0); // refresh: 2 is now the victim
        c.insert(key(3), 3.0);
        assert_eq!(c.get(&key(1)), Some(10.0));
        assert_eq!(c.get(&key(2)), None);
    }

    #[test]
    fn capacity_one_and_zero() {
        let mut c = QueryCache::new(1);
        c.insert(key(1), 1.0);
        c.insert(key(2), 2.0);
        assert_eq!(c.get(&key(1)), None);
        assert_eq!(c.get(&key(2)), Some(2.0));
        let mut off = QueryCache::new(0);
        off.insert(key(1), 1.0);
        assert_eq!(off.get(&key(1)), None);
        assert_eq!(off.len(), 0);
    }

    #[test]
    fn invalidate_clears_and_counts_once_per_nonempty_flush() {
        let mut c = QueryCache::new(4);
        c.invalidate(); // empty: not counted
        assert_eq!(c.invalidations(), 0);
        c.insert(key(1), 1.0);
        c.invalidate();
        c.invalidate(); // already empty again
        assert_eq!(c.invalidations(), 1);
        assert_eq!(c.get(&key(1)), None);
        // Still usable after a flush.
        c.insert(key(5), 5.0);
        assert_eq!(c.get(&key(5)), Some(5.0));
    }

    #[test]
    fn resize_keeps_counters_and_drops_entries() {
        let mut c = QueryCache::new(4);
        c.insert(key(1), 1.0);
        assert_eq!(c.get(&key(1)), Some(1.0));
        assert_eq!(c.get(&key(2)), None);
        c.invalidate();
        c.insert(key(1), 1.0);
        c.resize(1);
        assert_eq!((c.hits(), c.misses(), c.invalidations()), (1, 1, 1));
        assert_eq!((c.capacity(), c.len()), (1, 0));
        c.insert(key(1), 1.0);
        c.insert(key(2), 2.0);
        assert_eq!(c.len(), 1, "the new capacity bounds the cache");
        c.resize(0);
        c.insert(key(3), 3.0);
        assert_eq!(c.get(&key(3)), None);
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }

    #[test]
    fn cache_key_is_raw_bits() {
        let a = cache_key(&Rect::new(0.0, 0.0, 1.0, 1.0));
        let b = cache_key(&Rect::new(-0.0, 0.0, 1.0, 1.0));
        assert_ne!(a, b, "-0.0 and 0.0 are distinct keys (conservative)");
        assert_eq!(a, cache_key(&Rect::new(0.0, 0.0, 1.0, 1.0)));
    }

    #[test]
    fn churn_past_capacity_stays_consistent() {
        let mut c = QueryCache::new(16);
        for round in 0u64..50 {
            for k in 0u64..40 {
                c.insert(key(round * 40 + k), (round * 40 + k) as f64);
            }
        }
        assert_eq!(c.len(), 16);
        // The 16 most recent survive, in full.
        for k in (50 * 40 - 16)..(50 * 40) {
            assert_eq!(c.get(&key(k)), Some(k as f64), "k={k}");
        }
    }
}

//! The flight recorder: a fixed-capacity ring of structured
//! [`QueryRecord`]s capturing the queries worth a second look — slow ones
//! (latency threshold), wrong ones (residual threshold, fed by the accuracy
//! monitor's replay), and a 1-in-N sample of everything else.
//!
//! ## Ring semantics
//!
//! The ring is one `Mutex` over a deque preallocated to its capacity, plus
//! the count of records ever captured. A writer takes the lock, evicts the
//! oldest record when the ring is full and appends its own; a reader takes
//! the lock and clones the newest records out. Every record is whole and
//! every drain is exact: `recent(max)` returns the newest
//! `min(max, capacity, total)` records with consecutive sequence numbers.
//!
//! Recording moves the caller's record into the ring, so it never
//! allocates; the lock is held for a few word moves, and only sampled
//! calls that trip a trigger take it. A ring of capacity 0 takes no lock
//! at all.
//!
//! ## Bit-invisibility
//!
//! Recording happens strictly *after* an estimate is computed and only
//! touches this ring; it can never perturb an estimate or the
//! statistics. The trace differential suite pins that
//! estimates and encoded stats are byte-identical with the recorder on
//! (capacity > 0), off (capacity 0), and sampling every query.
//!
//! Drained output is pinned JSONL, one record per line, schema
//! `minskew-obs/flight-v1`.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::export::{json_escape, json_f64};

/// Why a query was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightTrigger {
    /// Sampled-path latency at or above the slow threshold.
    Slow,
    /// Audit replay found a relative residual above the wrong threshold.
    Wrong,
    /// 1-in-N sample, captured regardless of latency.
    Sampled,
}

impl FlightTrigger {
    /// Stable wire label (pinned by the `flight-v1` schema).
    pub fn label(self) -> &'static str {
        match self {
            FlightTrigger::Slow => "slow",
            FlightTrigger::Wrong => "wrong",
            FlightTrigger::Sampled => "sampled",
        }
    }

    /// The capture rule every serving front end applies to one served,
    /// timed estimate: `slow` when `slow_ns > 0` and `latency_ns ≥
    /// slow_ns`, else `sampled` for the 1st, (N+1)th, … call of the offered
    /// stream (`index` counts from 0, `sample_every` is N, `0` disables),
    /// else nothing.
    pub fn for_served(
        latency_ns: u64,
        slow_ns: u64,
        index: u64,
        sample_every: u32,
    ) -> Option<FlightTrigger> {
        if slow_ns > 0 && latency_ns >= slow_ns {
            Some(FlightTrigger::Slow)
        } else if sample_every > 0 && index.is_multiple_of(u64::from(sample_every)) {
            Some(FlightTrigger::Sampled)
        } else {
            None
        }
    }
}

/// Maximum trace-id bytes a record retains (longer ids are truncated).
pub const TID_BYTES: usize = 16;

/// One captured query: what was asked, what was answered, and why it was
/// recorded. The wire trace id (`TID=<token>`) travels with the record so
/// an operator can join a flight line back to the client that sent it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Why this query was captured.
    pub trigger: FlightTrigger,
    /// Client-supplied trace id (empty when none); at most
    /// [`TID_BYTES`] bytes survive the ring.
    pub tid: String,
    /// The query rectangle as `[x1, y1, x2, y2]`.
    pub query: [f64; 4],
    /// The estimate that was served.
    pub estimate: f64,
    /// The exact count, when the capture site knows it (audit replay);
    /// `None` on the serving path.
    pub exact: Option<f64>,
    /// Wall latency of the estimate in nanoseconds (0 when the capture
    /// site did not time it).
    pub latency_ns: u64,
    /// Statistics generation that served the estimate.
    pub generation: u64,
}

impl QueryRecord {
    /// One pinned `minskew-obs/flight-v1` JSONL line (no trailing newline).
    /// Non-finite floats serialise as `null` so the line is always valid
    /// JSON.
    pub fn to_json(&self, seq: u64) -> String {
        format!(
            "{{\"schema\":\"minskew-obs/flight-v1\",\"seq\":{seq},\"trigger\":\"{}\",\
             \"tid\":\"{}\",\"query\":[{},{},{},{}],\"estimate\":{},\"exact\":{},\
             \"latency_ns\":{},\"generation\":{}}}",
            self.trigger.label(),
            json_escape(&self.tid),
            json_f64(self.query[0]),
            json_f64(self.query[1]),
            json_f64(self.query[2]),
            json_f64(self.query[3]),
            json_f64(self.estimate),
            self.exact.map_or_else(|| String::from("null"), json_f64),
            self.latency_ns,
            self.generation,
        )
    }
}

/// The fixed-capacity ring of [`QueryRecord`]s. Shared by `Arc`; every
/// method takes `&self`. Capacity `0` disables recording entirely.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

struct Ring {
    /// Records ever captured; the newest has sequence number `total - 1`.
    total: u64,
    /// The newest `min(capacity, total)` records, oldest first.
    records: VecDeque<QueryRecord>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("total", &self.total())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` records (`0`
    /// disables it).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            ring: Mutex::new(Ring {
                total: 0,
                records: VecDeque::with_capacity(capacity),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Slot count (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records ever captured (including those since overwritten).
    pub fn total(&self) -> u64 {
        self.lock().total
    }

    /// Captures one record, keeping at most [`TID_BYTES`] bytes of its
    /// trace id (cut at a char boundary). Allocation-free; a no-op that
    /// takes no lock when capacity is 0.
    pub fn record(&self, mut record: QueryRecord) {
        if self.capacity == 0 {
            return;
        }
        record
            .tid
            .truncate(record.tid.floor_char_boundary(TID_BYTES));
        let mut ring = self.lock();
        ring.total += 1;
        let evicted = if ring.records.len() == self.capacity {
            ring.records.pop_front()
        } else {
            None
        };
        ring.records.push_back(record);
        drop(ring);
        drop(evicted);
    }

    /// The newest `min(max, capacity, total)` records, oldest first, each
    /// with its sequence number.
    pub fn recent(&self, max: usize) -> Vec<(u64, QueryRecord)> {
        let ring = self.lock();
        let len = ring.records.len();
        let first = ring.total - len as u64;
        let skip = len.saturating_sub(max);
        (skip..len)
            .map(|i| (first + i as u64, ring.records[i].clone()))
            .collect()
    }

    /// Drains the most recent `max` records as pinned
    /// `minskew-obs/flight-v1` JSONL, oldest first, one record per line
    /// (empty string when nothing is recorded). Non-destructive: the ring
    /// keeps its contents.
    pub fn to_jsonl(&self, max: usize) -> String {
        let mut out = String::new();
        for (seq, record) in self.recent(max) {
            out.push_str(&record.to_json(seq));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> QueryRecord {
        QueryRecord {
            trigger: FlightTrigger::Slow,
            tid: format!("t{i}"),
            query: [i as f64, 0.0, i as f64 + 1.0, 1.0],
            estimate: i as f64 * 0.5,
            exact: i.is_multiple_of(2).then_some(i as f64),
            latency_ns: i * 100,
            generation: i,
        }
    }

    #[test]
    fn round_trips_records_in_order() {
        let ring = FlightRecorder::new(4);
        for i in 0..3 {
            ring.record(rec(i));
        }
        let got = ring.recent(10);
        assert_eq!(got.len(), 3);
        for (i, (seq, r)) in got.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*r, rec(i as u64));
        }
        assert_eq!(ring.total(), 3);
    }

    #[test]
    fn served_trigger_rule() {
        let rule = FlightTrigger::for_served;
        assert_eq!(rule(5, 5, 1, 0), Some(FlightTrigger::Slow));
        assert_eq!(rule(4, 5, 1, 0), None);
        assert_eq!(rule(u64::MAX, 0, 1, 0), None, "0 disables slow");
        let sampled: Vec<u64> = (0..7).filter(|&i| rule(0, 0, i, 3).is_some()).collect();
        assert_eq!(sampled, [0, 3, 6], "the 1st, 4th, 7th call");
        assert_eq!(rule(9, 5, 1, 3), Some(FlightTrigger::Slow), "slow wins");
    }

    #[test]
    fn wraps_keeping_newest() {
        let ring = FlightRecorder::new(4);
        for i in 0..10 {
            ring.record(rec(i));
        }
        let got = ring.recent(100);
        let seqs: Vec<u64> = got.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(got[0].1, rec(6));
        // `recent(max)` keeps the newest `max`, oldest first.
        let last_two: Vec<u64> = ring.recent(2).iter().map(|&(s, _)| s).collect();
        assert_eq!(last_two, vec![8, 9]);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let ring = FlightRecorder::new(0);
        ring.record(rec(1));
        assert_eq!(ring.total(), 0);
        assert!(ring.recent(10).is_empty());
        assert_eq!(ring.to_jsonl(10), "");
    }

    #[test]
    fn long_tids_truncate_and_survive() {
        let ring = FlightRecorder::new(2);
        let mut r = rec(0);
        r.tid = "abcdefghijklmnopqrstuvwxyz".to_string();
        ring.record(r);
        let got = ring.recent(1);
        assert_eq!(got[0].1.tid, "abcdefghijklmnop");
    }

    #[test]
    fn jsonl_lines_are_pinned() {
        let ring = FlightRecorder::new(2);
        ring.record(QueryRecord {
            trigger: FlightTrigger::Wrong,
            tid: "req-1".to_string(),
            query: [0.0, 0.5, 2.0, 1.5],
            estimate: 3.25,
            exact: Some(4.0),
            latency_ns: 1200,
            generation: 7,
        });
        ring.record(QueryRecord {
            trigger: FlightTrigger::Sampled,
            tid: String::new(),
            query: [0.0, 0.0, 1.0, f64::NAN],
            estimate: f64::INFINITY,
            exact: None,
            latency_ns: 0,
            generation: 0,
        });
        let jsonl = ring.to_jsonl(10);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"schema\":\"minskew-obs/flight-v1\",\"seq\":0,\"trigger\":\"wrong\",\
             \"tid\":\"req-1\",\"query\":[0,0.5,2,1.5],\"estimate\":3.25,\"exact\":4,\
             \"latency_ns\":1200,\"generation\":7}"
        );
        // Non-finite floats must serialise as null, never bare tokens.
        assert_eq!(
            lines[1],
            "{\"schema\":\"minskew-obs/flight-v1\",\"seq\":1,\"trigger\":\"sampled\",\
             \"tid\":\"\",\"query\":[0,0,1,null],\"estimate\":null,\"exact\":null,\
             \"latency_ns\":0,\"generation\":0}"
        );
    }

    #[test]
    fn concurrent_writers_never_tear() {
        use std::sync::Arc;
        let ring = Arc::new(FlightRecorder::new(8));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..500 {
                        ring.record(rec(t * 1_000 + i));
                    }
                });
            }
            for _ in 0..200 {
                for (_, r) in ring.recent(8) {
                    // A torn record would mix fields from two writers;
                    // every field of `rec(i)` is derived from `i`, so
                    // consistency is checkable.
                    let i = r.generation;
                    assert_eq!(r, rec(i));
                }
            }
        });
        assert_eq!(ring.total(), 2_000);
    }

    #[test]
    fn drains_are_exact_while_writers_lap_the_ring() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        // Three writers lap a two-record ring for about a second; every
        // drain must come back whole: both records, consecutive sequence
        // numbers, each equal to the record its writer built.
        let ring = FlightRecorder::new(2);
        let stop = AtomicBool::new(false);
        let bad = std::thread::scope(|scope| {
            for t in 0..3u64 {
                let (ring, stop) = (&ring, &stop);
                scope.spawn(move || {
                    let mut i = t * 1_000_000_000;
                    while !stop.load(Ordering::Relaxed) {
                        ring.record(rec(i));
                        i += 1;
                    }
                });
            }
            let deadline = Instant::now() + Duration::from_secs(1);
            let mut bad = None;
            while bad.is_none() && Instant::now() < deadline {
                if ring.total() < 2 {
                    continue;
                }
                let got = ring.recent(2);
                let exact = got.len() == 2
                    && got[1].0 == got[0].0 + 1
                    && got.iter().all(|(_, r)| *r == rec(r.generation));
                if !exact {
                    bad = Some(got);
                }
            }
            stop.store(true, Ordering::Relaxed);
            bad
        });
        assert_eq!(bad, None, "a drain came back short or torn");
        assert!(ring.total() >= 2);
    }
}

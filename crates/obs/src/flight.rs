//! The flight recorder: a fixed-capacity lock-free ring of structured
//! [`QueryRecord`]s capturing the queries worth a second look — slow ones
//! (latency threshold), wrong ones (residual threshold, fed by the accuracy
//! monitor's replay), and a 1-in-N sample of everything else.
//!
//! ## Ring semantics (safe-code seqlock)
//!
//! Each slot is a stamp word plus a fixed array of payload words, all
//! `AtomicU64` — no `unsafe`, no locks. A writer claims a slot by bumping
//! the global head (`fetch_add`, so claims never collide), stores the
//! odd stamp `2·seq + 1`, writes the payload words relaxed, then stores the
//! even stamp `2·seq + 2`. A reader snapshots the stamp, skips empty (`0`)
//! or in-progress (odd) slots, reads the payload, and re-reads the stamp:
//! any concurrent overwrite changes the stamp (seq is globally unique and
//! monotone), so a torn read is always detected and dropped. Torn *words*
//! are impossible — every payload word is itself atomic — so the only
//! failure mode is a skipped record, never a corrupt one.
//!
//! Writers therefore never block, never allocate, and never wait on
//! readers; recording costs a handful of relaxed stores. Draining is
//! best-effort by design: records overwritten mid-drain are silently
//! dropped, which is the correct trade for a diagnostics buffer on a hot
//! serving path.
//!
//! ## Bit-invisibility
//!
//! Recording happens strictly *after* an estimate is computed and only
//! touches this ring's atomics; it can never perturb an estimate, the
//! query cache, or the statistics. The trace differential suite pins that
//! estimates and encoded stats are byte-identical with the recorder on
//! (capacity > 0), off (capacity 0), and sampling every query.
//!
//! Drained output is pinned JSONL, one record per line, schema
//! `minskew-obs/flight-v1`.

use std::sync::atomic::{AtomicU64, Ordering};

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

    fn from_code(code: u64) -> FlightTrigger {
        match code {
            0 => FlightTrigger::Slow,
            1 => FlightTrigger::Wrong,
            _ => FlightTrigger::Sampled,
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
        let mut tid = self.tid.as_str();
        if tid.len() > TID_BYTES {
            let mut end = TID_BYTES;
            while !tid.is_char_boundary(end) {
                end -= 1;
            }
            tid = &tid[..end];
        }
        format!(
            "{{\"schema\":\"minskew-obs/flight-v1\",\"seq\":{seq},\"trigger\":\"{}\",\
             \"tid\":\"{}\",\"query\":[{},{},{},{}],\"estimate\":{},\"exact\":{},\
             \"latency_ns\":{},\"generation\":{}}}",
            self.trigger.label(),
            json_escape(tid),
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

/// Payload words per slot: flags, 4 query coords, estimate, exact,
/// latency, generation, 2 trace-id words.
const WORDS: usize = 11;

struct Slot {
    /// `0` = never written; odd = write in progress; `2·seq + 2` = record
    /// `seq` committed.
    stamp: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn encode(record: &QueryRecord) -> [u64; WORDS] {
    let mut tid = [0u8; TID_BYTES];
    let take = record.tid.len().min(TID_BYTES);
    tid[..take].copy_from_slice(&record.tid.as_bytes()[..take]);
    let trigger = match record.trigger {
        FlightTrigger::Slow => 0u64,
        FlightTrigger::Wrong => 1,
        FlightTrigger::Sampled => 2,
    };
    [
        trigger | (u64::from(record.exact.is_some()) << 8),
        record.query[0].to_bits(),
        record.query[1].to_bits(),
        record.query[2].to_bits(),
        record.query[3].to_bits(),
        record.estimate.to_bits(),
        record.exact.unwrap_or(0.0).to_bits(),
        record.latency_ns,
        record.generation,
        u64::from_le_bytes(tid[..8].try_into().unwrap_or([0; 8])),
        u64::from_le_bytes(tid[8..].try_into().unwrap_or([0; 8])),
    ]
}

fn decode(words: &[u64; WORDS]) -> QueryRecord {
    let mut tid = [0u8; TID_BYTES];
    tid[..8].copy_from_slice(&words[9].to_le_bytes());
    tid[8..].copy_from_slice(&words[10].to_le_bytes());
    let len = tid.iter().position(|&b| b == 0).unwrap_or(TID_BYTES);
    QueryRecord {
        trigger: FlightTrigger::from_code(words[0] & 0xff),
        tid: String::from_utf8_lossy(&tid[..len]).into_owned(),
        query: [
            f64::from_bits(words[1]),
            f64::from_bits(words[2]),
            f64::from_bits(words[3]),
            f64::from_bits(words[4]),
        ],
        estimate: f64::from_bits(words[5]),
        exact: ((words[0] >> 8) & 1 == 1).then(|| f64::from_bits(words[6])),
        latency_ns: words[7],
        generation: words[8],
    }
}

/// The fixed-capacity lock-free ring of [`QueryRecord`]s. Shared by `Arc`;
/// every method takes `&self`. Capacity `0` disables recording entirely.
pub struct FlightRecorder {
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
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
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
        }
    }

    /// Slot count (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever captured (including those since overwritten).
    pub fn total(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Captures one record. Lock-free, allocation-free, wait-free for
    /// writers; a no-op when capacity is 0.
    pub fn record(&self, record: &QueryRecord) {
        if self.slots.is_empty() {
            return;
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let words = encode(record);
        slot.stamp
            .store(seq.wrapping_mul(2).wrapping_add(1), Ordering::Release);
        for (dst, &src) in slot.words.iter().zip(words.iter()) {
            dst.store(src, Ordering::Relaxed);
        }
        slot.stamp
            .store(seq.wrapping_mul(2).wrapping_add(2), Ordering::Release);
    }

    /// The most recent `max` committed records, oldest first, each with
    /// its sequence number. Best-effort: slots overwritten mid-read are
    /// skipped, never returned torn.
    pub fn recent(&self, max: usize) -> Vec<(u64, QueryRecord)> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        if cap == 0 || head == 0 || max == 0 {
            return Vec::new();
        }
        let span = head.min(cap).min(max as u64);
        let mut out = Vec::with_capacity(span as usize);
        for seq in (head - span)..head {
            let slot = &self.slots[(seq % cap) as usize];
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 != seq.wrapping_mul(2).wrapping_add(2) {
                continue; // empty, in progress, or already overwritten
            }
            let mut words = [0u64; WORDS];
            for (dst, src) in words.iter_mut().zip(slot.words.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            if slot.stamp.load(Ordering::Acquire) != s1 {
                continue; // overwritten while reading: drop, never tear
            }
            out.push((seq, decode(&words)));
        }
        out
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
            ring.record(&rec(i));
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
            ring.record(&rec(i));
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
        ring.record(&rec(1));
        assert_eq!(ring.total(), 0);
        assert!(ring.recent(10).is_empty());
        assert_eq!(ring.to_jsonl(10), "");
    }

    #[test]
    fn long_tids_truncate_and_survive() {
        let ring = FlightRecorder::new(2);
        let mut r = rec(0);
        r.tid = "abcdefghijklmnopqrstuvwxyz".to_string();
        ring.record(&r);
        let got = ring.recent(1);
        assert_eq!(got[0].1.tid, "abcdefghijklmnop");
    }

    #[test]
    fn jsonl_lines_are_pinned() {
        let ring = FlightRecorder::new(2);
        ring.record(&QueryRecord {
            trigger: FlightTrigger::Wrong,
            tid: "req-1".to_string(),
            query: [0.0, 0.5, 2.0, 1.5],
            estimate: 3.25,
            exact: Some(4.0),
            latency_ns: 1200,
            generation: 7,
        });
        ring.record(&QueryRecord {
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
                        ring.record(&rec(t * 1_000 + i));
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
}

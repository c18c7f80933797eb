//! Monotonic-clock timing: stopwatches, RAII histogram timers, and named
//! trace spans.

use crate::Histogram;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Saturating nanoseconds since an earlier instant (u64 covers ~584 years).
fn nanos_since(earlier: Instant) -> u64 {
    u64::try_from(earlier.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A monotonic lap timer: [`Stopwatch::lap`] returns the nanoseconds since
/// the previous lap (or since [`Stopwatch::start`]) and restarts the lap.
///
/// This is the building block for staged hot-path timing (probe → scan →
/// clamp): one `Stopwatch`, one clock read per stage boundary.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    origin: Instant,
    last: Instant,
}

impl Stopwatch {
    /// Starts (or restarts) a stopwatch now.
    #[inline]
    pub fn start() -> Stopwatch {
        let now = Instant::now();
        Stopwatch {
            origin: now,
            last: now,
        }
    }

    /// Nanoseconds since the previous lap; the lap restarts.
    #[inline]
    pub fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = u64::try_from(now.duration_since(self.last).as_nanos()).unwrap_or(u64::MAX);
        self.last = now;
        ns
    }

    /// Nanoseconds since [`Stopwatch::start`] (independent of laps).
    #[inline]
    pub fn total(&self) -> u64 {
        nanos_since(self.origin)
    }
}

/// RAII timer: records elapsed nanoseconds into a [`Histogram`] on drop.
#[derive(Debug)]
pub struct Timer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl<'a> Timer<'a> {
    /// Starts timing; the elapsed time lands in `histogram` when the timer
    /// drops.
    #[inline]
    pub fn start(histogram: &'a Histogram) -> Timer<'a> {
        Timer {
            histogram,
            start: Instant::now(),
        }
    }
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.histogram.record(nanos_since(self.start));
    }
}

/// One completed span in a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The span's name.
    pub name: String,
    /// Nanoseconds from the trace's creation to the span's start.
    pub start_ns: u64,
    /// The span's duration in nanoseconds.
    pub dur_ns: u64,
}

/// An append-only buffer of completed [`Span`]s, ordered by completion.
///
/// A `Trace` is cheap to create and intended to be short-lived — one per
/// CLI invocation or per diagnosed request — so events are plain `String`s
/// behind a mutex, not a lock-free ring.
#[derive(Debug, Default)]
pub struct Trace {
    epoch: Option<Instant>,
    events: Mutex<Vec<TraceEvent>>,
}

impl Trace {
    /// Creates an empty trace; span offsets are measured from this moment.
    pub fn new() -> Trace {
        Trace {
            epoch: Some(Instant::now()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Opens a named span; it records itself into the trace when dropped.
    #[inline]
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        Span {
            trace: self,
            name: name.into(),
            start: Instant::now(),
        }
    }

    /// All completed spans, in completion order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// An open trace span; completes (and records itself) on drop.
#[derive(Debug)]
pub struct Span<'a> {
    trace: &'a Trace,
    name: String,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let start_ns = self.trace.epoch.map_or(0, |epoch| {
            u64::try_from(self.start.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
        });
        let event = TraceEvent {
            name: std::mem::take(&mut self.name),
            start_ns,
            dur_ns: nanos_since(self.start),
        };
        self.trace
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_laps_are_monotone() {
        let mut sw = Stopwatch::start();
        let a = sw.lap();
        let b = sw.lap();
        // Laps are non-negative by construction; both reads succeeded,
        // and the total covers at least both laps.
        assert!(a < u64::MAX && b < u64::MAX);
        assert!(sw.total() >= a + b);
    }

    #[test]
    fn timer_records_into_histogram_on_drop() {
        let h = Histogram::new();
        {
            let _t = Timer::start(&h);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn trace_collects_spans_in_completion_order() {
        let trace = Trace::new();
        {
            let _outer = trace.span("outer");
            let _inner = trace.span("inner");
            // `inner` drops first, so it completes first.
        }
        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        assert!(events[1].start_ns <= events[0].start_ns);
    }
}

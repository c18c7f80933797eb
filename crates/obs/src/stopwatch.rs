//! Monotonic-clock timing: a lap stopwatch.

use std::time::Instant;

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

    /// Nanoseconds since [`Stopwatch::start`] (independent of laps),
    /// saturating (u64 covers ~584 years).
    #[inline]
    pub fn total(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
}

//! The three metric primitives: counters, gauges, and log₂ histograms.
//!
//! All recording is relaxed-atomic: metrics are statistical summaries, not
//! synchronization points, so no ordering stronger than `Relaxed` is needed
//! and none is paid for. Snapshots taken concurrently with writers are
//! internally consistent per field but not across fields (a histogram's
//! `count` and `sum` may disagree by in-flight samples); exporters document
//! this.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets in a [`Histogram`]: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` (bucket 0 also absorbs zero), which spans the full
/// `u64` range — sub-nanosecond to half a millennium of nanoseconds.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Index of the log₂ bucket for `value`: `floor(log2(max(value, 1)))`.
fn bucket_of(value: u64) -> usize {
    63 - (value | 1).leading_zeros() as usize
}

/// Inclusive-exclusive bounds `[lo, hi)` of log₂ bucket `i`; the final
/// bucket's upper bound saturates at `u64::MAX`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let lo = if i == 0 { 0 } else { 1u64 << i };
    let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
    (lo, hi)
}

/// A lock-free monotonically increasing counter.
///
/// Increments are single relaxed atomic adds, cheap enough for per-call hot
/// paths; reads are relaxed loads. Counters only ever grow, so merging two
/// counters (or publishing a locally accumulated delta) is plain addition —
/// order-independent by construction.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free `f64` cell: the most recent [`Gauge::set`] wins.
///
/// The value is stored as raw bits in an atomic `u64`, so concurrent reads
/// always observe some previously written value (never a torn one).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at `0.0`.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Stores a new value.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The most recently stored value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket log₂ histogram of `u64` samples.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` (bucket 0 also holds
/// zero), so resolution is a constant factor of two at every magnitude —
/// the right shape for latencies, where nanoseconds and milliseconds must
/// coexist in one distribution. Recording is two relaxed atomic adds
/// (bucket + sum) and one for the total count; there is no lock, no
/// allocation, and no clamping (the bucket range covers all of `u64`).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution. Per-field consistent; the
    /// fields may disagree by samples recorded mid-snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`], sparse over non-empty buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// `(bucket index, sample count)` for every non-empty bucket, in
    /// ascending bucket order. Bounds come from [`bucket_bounds`].
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` clamped to `[0, 1]`), or `0` when empty. A factor-of-two
    /// over-approximation by construction — good enough for "p99 is tens of
    /// microseconds", which is what a log₂ histogram is for.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bucket_bounds(i).1;
            }
        }
        self.buckets.last().map_or(0, |&(i, _)| bucket_bounds(i).1)
    }

    /// Adds another snapshot's samples into this one, bucket by bucket.
    /// `count` and `sum` use wrapping arithmetic (matching the live
    /// histogram's wrapping `sum`), and the sparse bucket list stays in
    /// ascending bucket order. Commutative and associative, so merging a
    /// set of per-shard snapshots yields the same distribution regardless
    /// of merge order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, nb));
                        b.next();
                    } else {
                        merged.push((ia, na.wrapping_add(nb)));
                        a.next();
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(a.by_ref().copied());
                    break;
                }
                (None, Some(_)) => {
                    merged.extend(b.by_ref().copied());
                    break;
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_reads() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_latest_wins() {
        let g = Gauge::new();
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
    }

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        assert_eq!(bucket_bounds(0), (0, 2));
        assert_eq!(bucket_bounds(1), (2, 4));
        assert_eq!(bucket_bounds(10), (1 << 10, 1 << 11));
        assert_eq!(bucket_bounds(63), (1 << 63, u64::MAX));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        // 0,1 -> bucket 0; 2,3 -> bucket 1; 1023 -> bucket 9;
        // 1024 -> bucket 10; u64::MAX -> bucket 63.
        assert_eq!(snap.buckets, vec![(0, 2), (1, 2), (9, 1), (10, 1), (63, 1)]);
        assert!(snap.mean() > 0.0);
        assert_eq!(snap.quantile_upper_bound(0.0), 2);
        assert_eq!(snap.quantile_upper_bound(1.0), u64::MAX);
    }

    #[test]
    fn quantile_of_empty_snapshot_is_zero() {
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(empty.quantile_upper_bound(q), 0, "q={q}");
        }
    }

    #[test]
    fn quantile_extremes_and_single_bucket() {
        // A single-bucket distribution answers every quantile with that
        // bucket's upper bound — including the q=0.0 floor (the target
        // rank is floored at 1 so "the 0th sample" still means "the
        // smallest recorded sample's bucket", not a phantom rank).
        let single = HistogramSnapshot {
            count: 5,
            sum: 5 * 700,
            buckets: vec![(9, 5)],
        };
        for q in [0.0, 0.25, 0.5, 1.0, 7.0] {
            assert_eq!(single.quantile_upper_bound(q), 1 << 10, "q={q}");
        }
        // Out-of-range q clamps rather than indexing past the ends.
        let two = HistogramSnapshot {
            count: 4,
            sum: 0,
            buckets: vec![(0, 2), (5, 2)],
        };
        assert_eq!(two.quantile_upper_bound(-3.0), 2);
        assert_eq!(two.quantile_upper_bound(0.5), 2);
        // Rank ceil(0.51 * 4) = 3 lands in the second bucket.
        assert_eq!(two.quantile_upper_bound(0.51), 1 << 6);
        assert_eq!(two.quantile_upper_bound(2.0), 1 << 6);
        // The top bucket's upper bound saturates at u64::MAX.
        let top = HistogramSnapshot {
            count: 1,
            sum: u64::MAX,
            buckets: vec![(63, 1)],
        };
        assert_eq!(top.quantile_upper_bound(1.0), u64::MAX);
    }

    #[test]
    fn concurrent_counts_merge_exactly() {
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4_000);
        assert_eq!(h.count(), 4_000);
        assert_eq!(h.sum(), 4 * (999 * 1000 / 2));
    }
}

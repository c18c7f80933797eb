//! Online accuracy monitoring: a deterministic reservoir of served queries
//! and the audit report comparing their estimates against exact counts.
//!
//! The paper's entire evaluation (§5) reduces to one number — the average
//! relative error `Σ|r_i − e_i| / Σ r_i` over a query workload — but a
//! running system has no offline workload to measure against. The monitor
//! closes that gap: the table's serving path offers every single-query
//! estimate it serves, repeats included, to a bounded reservoir, so the
//! sample weights each query by how often clients ask for it; and
//! [`crate::SpatialTable::audit_accuracy`] periodically replays the
//! reservoir against exact index counts to publish a live error gauge and
//! a drift signal that recommends re-`ANALYZE`.

use minskew_geom::Rect;

/// SplitMix64: a tiny, high-quality 64-bit mixer. Used to derive the
/// reservoir's replacement decisions deterministically from the number of
/// queries seen, so monitoring never perturbs — and is never perturbed by —
/// any other randomness in the process.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One reservoir slot: a sampled query plus, once an audit has replayed it,
/// the exact result count measured for it.
///
/// The cached exact count is keyed to the table's **data era** (its
/// insert/delete counter): data churn invalidates it (the exact count is no
/// longer exact), while statistics installs — including online-refine
/// installs — leave it intact. That retention is what feeds the refiner:
/// the (query, exact) pairs survive the very install they triggered, so the
/// next refine pass starts from replayed feedback instead of an empty
/// reservoir.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FeedbackSample {
    /// The sampled query rectangle.
    pub(crate) query: Rect,
    /// Exact `|Q|` from the last audit, valid for the current data era;
    /// `None` until audited or after data churn invalidated it.
    pub(crate) exact: Option<f64>,
}

/// A fixed-capacity uniform reservoir over an unbounded query stream
/// (Vitter's Algorithm R with a deterministic splitmix64 coin).
///
/// After `seen` observations every query ever offered has the same
/// `capacity / seen` probability of being resident, so the reservoir is an
/// unbiased sample of the served workload — exactly what the paper's error
/// metric wants to be computed over.
#[derive(Debug)]
pub(crate) struct Reservoir {
    capacity: usize,
    seen: u64,
    samples: Vec<FeedbackSample>,
}

impl Reservoir {
    pub(crate) fn new(capacity: usize) -> Reservoir {
        Reservoir {
            capacity,
            seen: 0,
            samples: Vec::new(),
        }
    }

    /// Offers one query to the reservoir.
    #[inline]
    pub(crate) fn observe(&mut self, query: Rect) {
        if self.capacity == 0 {
            return;
        }
        self.seen += 1;
        let sample = FeedbackSample { query, exact: None };
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
            return;
        }
        // Replace slot j with probability capacity/seen: keep when the
        // deterministic coin lands outside [0, capacity).
        let j = (splitmix64(self.seen) % self.seen) as usize;
        if j < self.capacity {
            self.samples[j] = sample;
        }
    }

    /// The resident sample (at most `capacity` slots).
    pub(crate) fn samples(&self) -> &[FeedbackSample] {
        &self.samples
    }

    /// Records the exact count replayed for slot `idx`, guarded by a
    /// bit-exact query match: the audit computes exact counts outside the
    /// serving lock, so the slot may have rotated to a different query in
    /// the meantime — a mismatch simply drops the write.
    pub(crate) fn record_exact(&mut self, idx: usize, query: &Rect, exact: f64) {
        if let Some(slot) = self.samples.get_mut(idx) {
            if slot.query == *query {
                slot.exact = Some(exact);
            }
        }
    }

    /// Drops every cached exact count (the queries stay resident). Called
    /// when the data era advances: churn makes the cached counts stale but
    /// leaves the sampled workload as representative as before.
    pub(crate) fn invalidate_exact(&mut self) {
        for slot in &mut self.samples {
            slot.exact = None;
        }
    }

    /// Total queries offered since creation or the last reset.
    pub(crate) fn seen(&self) -> u64 {
        self.seen
    }

    /// Empties the reservoir entirely (queries included). Statistics
    /// installs must *not* clear the reservoir — that would discard exactly
    /// the feedback pairs the online refiner needs on its next pass — so no
    /// production path calls this; tests use it to force the empty-feedback
    /// fallback.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.seen = 0;
        self.samples.clear();
    }
}

/// The result of one [`crate::SpatialTable::audit_accuracy`] pass: the
/// paper's §5 error metric computed over the reservoir of sampled queries.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct AccuracyReport {
    /// Queries audited (the reservoir's resident sample size).
    pub samples: usize,
    /// Queries observed by the reservoir since it was last cleared.
    pub observed: u64,
    /// Average relative error `Σ|r_i − e_i| / Σ r_i` over the sample
    /// (denominator floored at 1 so all-empty workloads stay finite).
    pub avg_relative_error: f64,
    /// `true` when the error exceeds the configured drift threshold.
    pub drifted: bool,
    /// `true` when the table recommends running `ANALYZE`: the error
    /// drifted, or the statistics are already past their staleness
    /// threshold.
    pub recommend_reanalyze: bool,
}

impl std::fmt::Display for AccuracyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accuracy: {:.4} avg rel error over {} sampled queries ({} observed){}{}",
            self.avg_relative_error,
            self.samples,
            self.observed,
            if self.drifted { "; DRIFTED" } else { "" },
            if self.recommend_reanalyze {
                "; recommend ANALYZE"
            } else {
                ""
            },
        )
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
    fn fills_then_stays_bounded() {
        let mut r = Reservoir::new(8);
        for i in 0..1_000 {
            r.observe(rect(i));
        }
        assert_eq!(r.samples().len(), 8);
        assert_eq!(r.seen(), 1_000);
    }

    #[test]
    fn is_deterministic() {
        let run = || {
            let mut r = Reservoir::new(16);
            for i in 0..500 {
                r.observe(rect(i));
            }
            r.samples().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn samples_spread_over_the_stream() {
        // An unbiased reservoir over 0..10_000 must not hold only the first
        // (or only the last) observations.
        let mut r = Reservoir::new(64);
        for i in 0..10_000 {
            r.observe(rect(i));
        }
        let late = r
            .samples()
            .iter()
            .filter(|s| s.query.lo.x >= 5_000.0)
            .count();
        assert!(late > 8, "late-stream samples: {late}/64");
        assert!(late < 56, "early-stream samples: {}/64", 64 - late);
    }

    #[test]
    fn zero_capacity_observes_nothing() {
        let mut r = Reservoir::new(0);
        r.observe(rect(1));
        assert!(r.samples().is_empty());
        assert_eq!(r.seen(), 0);
    }

    #[test]
    fn exact_counts_record_and_invalidate_without_losing_queries() {
        let mut r = Reservoir::new(4);
        for i in 0..4 {
            r.observe(rect(i));
        }
        // New observations carry no exact count.
        assert!(r.samples().iter().all(|s| s.exact.is_none()));
        let q = rect(2);
        r.record_exact(2, &q, 7.0);
        assert_eq!(r.samples()[2].exact, Some(7.0));
        // A bit-mismatched query (rotated slot) drops the write.
        r.record_exact(3, &q, 9.0);
        assert_eq!(r.samples()[3].exact, None);
        // Invalidation clears the counts but keeps the sample.
        r.invalidate_exact();
        assert_eq!(r.samples().len(), 4);
        assert!(r.samples().iter().all(|s| s.exact.is_none()));
        assert_eq!(r.samples()[2].query, q);
    }

    #[test]
    fn clear_resets_the_era() {
        let mut r = Reservoir::new(4);
        for i in 0..100 {
            r.observe(rect(i));
        }
        r.clear();
        assert_eq!(r.seen(), 0);
        assert!(r.samples().is_empty());
    }
}

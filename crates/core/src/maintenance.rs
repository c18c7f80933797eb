//! Incremental histogram maintenance.
//!
//! A DBMS cannot rebuild statistics on every update; it patches them and
//! rebuilds when they drift too far. This module gives [`SpatialHistogram`]
//! that lifecycle:
//!
//! * [`SpatialHistogram::note_insert`] / [`SpatialHistogram::note_delete`]
//!   fold a single data change into the bucket counts (running averages for
//!   the width/height statistics included). Only one bucket changes and its
//!   MBR never does, so the kernel plane is patched, not rebuilt.
//! * A **staleness** measure tracks how much of the mutation stream the
//!   bucket grid could not absorb faithfully — inserts outside every bucket,
//!   deletes that no bucket could account for, and raw churn volume —
//!   so callers can trigger a rebuild once
//!   [`SpatialHistogram::staleness`] crosses their threshold (the usual
//!   "ANALYZE after X% churn" policy).
//!
//! Rebuilding is no longer the only remedy. The paper's construction is
//! cheap enough that a full rebuild is never painful (Table 1), but the
//! [`crate::refine`] module also offers a *bounded* middle path: repair the
//! histogram in place from observed (query, exact, estimate) feedback —
//! split the worst bucket, merge the lowest-skew pair, re-fit counts —
//! without touching the base data at all. The patched histogram stays
//! *approximately* correct between either kind of repair.
//!
//! Staleness is measured against a **stable mutation base**: the data size
//! at construction time (or the current size, whichever is larger).
//! Dividing by the live `input_len` would let delete-heavy churn inflate
//! staleness quadratically — every delete both grows the churn numerator
//! and shrinks the denominator — triggering spurious re-ANALYZE runs.

use minskew_geom::Rect;

use crate::SpatialHistogram;

impl SpatialHistogram {
    /// Records the insertion of `rect` into the underlying relation.
    ///
    /// The rectangle is credited to the bucket containing its centre; its
    /// dimensions update that bucket's running averages. Returns `true` if
    /// a bucket absorbed it; inserts that no bucket covers (outside the
    /// histogram's original data extent) only increase staleness — exactly
    /// the situation that requires a rebuild.
    pub fn note_insert(&mut self, rect: &Rect) -> bool {
        self.input_len_mut(1);
        let Some(id) = self.bucket_containing(rect) else {
            self.churn_mut(1.0);
            return false;
        };
        self.update_bucket(id, |bucket| {
            let n = bucket.count;
            bucket.avg_width = (bucket.avg_width * n + rect.width()) / (n + 1.0);
            bucket.avg_height = (bucket.avg_height * n + rect.height()) / (n + 1.0);
            bucket.count = n + 1.0;
        });
        self.churn_mut(0.5);
        true
    }

    /// Records the deletion of `rect` from the underlying relation.
    ///
    /// Decrements the covering bucket with a **saturating-at-zero**
    /// decrement: a fractional-count bucket (post-refit or post-churn)
    /// absorbs as much of the delete as it can and the shortfall is
    /// charged as unabsorbable churn. The average dimensions are left
    /// alone: without the full data we cannot un-average exactly, and the
    /// bias is part of what staleness accounts for. Returns `true` only
    /// when a bucket fully accounted for the delete.
    pub fn note_delete(&mut self, rect: &Rect) -> bool {
        self.input_len_mut(-1);
        let Some(id) = self.bucket_containing(rect) else {
            self.churn_mut(1.0);
            return false;
        };
        let absorbed = self.update_bucket(id, |bucket| {
            let dec = bucket.count.clamp(0.0, 1.0);
            bucket.count -= dec;
            dec
        });
        // The absorbed fraction carries half weight, the shortfall full
        // weight — a fully absorbable delete costs 0.5, an empty-bucket
        // delete the same 1.0 an uncovered delete costs.
        self.churn_mut(0.5 * absorbed + (1.0 - absorbed));
        absorbed >= 1.0
    }

    /// The first bucket whose MBR contains `rect`'s centre: the bucket a
    /// one-row change is credited to.
    fn bucket_containing(&self, rect: &Rect) -> Option<usize> {
        let center = rect.center();
        self.buckets()
            .iter()
            .position(|b| b.mbr.contains_point(center))
    }

    /// Fraction of the (weighted) mutation stream since construction that
    /// the histogram could not absorb faithfully, relative to its data
    /// size. `0.0` for a freshly built histogram; typical rebuild policies
    /// trigger around `0.1`–`0.3`.
    ///
    /// Every mutation contributes: absorbed changes half weight (counts
    /// stay right but the partition boundaries no longer minimise skew),
    /// unabsorbable changes full weight. The denominator is the **stable
    /// mutation base** — the data size at construction, or the current
    /// size if the relation has since grown — never the shrinking live
    /// size, so delete-heavy workloads cannot inflate the ratio from both
    /// ends.
    pub fn staleness(&self) -> f64 {
        use crate::SpatialEstimator;
        let base = self.mutation_base().max(self.input_len()).max(1) as f64;
        self.churn() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MinSkewBuilder, SpatialEstimator};
    use minskew_datagen::charminar_with;
    use minskew_geom::Point;

    fn hist() -> (minskew_data::Dataset, SpatialHistogram) {
        let ds = charminar_with(5_000, 1);
        let h = MinSkewBuilder::new(40).regions(1_600).build(&ds);
        (ds, h)
    }

    #[test]
    fn insert_updates_count_and_estimates() {
        let (_, mut h) = hist();
        let before_n = h.input_len();
        let before_total = h.total_count();
        let r = Rect::from_center_size(Point::new(500.0, 500.0), 100.0, 100.0);
        assert!(h.note_insert(&r));
        assert_eq!(h.input_len(), before_n + 1);
        assert!((h.total_count() - before_total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn delete_reverses_insert() {
        let (_, mut h) = hist();
        let baseline = h.total_count();
        let r = Rect::from_center_size(Point::new(1_000.0, 1_000.0), 80.0, 80.0);
        assert!(h.note_insert(&r));
        assert!(h.note_delete(&r));
        assert!((h.total_count() - baseline).abs() < 1e-9);
        assert_eq!(h.input_len(), 5_000);
    }

    #[test]
    fn outside_inserts_raise_staleness_without_counting() {
        let (_, mut h) = hist();
        let far = Rect::from_center_size(Point::new(1e7, 1e7), 10.0, 10.0);
        assert!(!h.note_insert(&far));
        // input_len still tracks the relation truthfully.
        assert_eq!(h.input_len(), 5_001);
        // No bucket absorbed it.
        assert!((h.total_count() - 5_000.0).abs() < 1e-9);
        assert!(h.staleness() > 0.0);
    }

    #[test]
    fn staleness_grows_with_churn_and_guides_rebuild() {
        let (ds, mut h) = hist();
        assert_eq!(h.staleness(), 0.0);
        // Apply a heavy churn of inserts into a previously sparse corner.
        for i in 0..2_000 {
            let x = 4_000.0 + (i % 50) as f64 * 10.0;
            let y = 4_000.0 + (i / 50) as f64 * 10.0;
            h.note_insert(&Rect::from_center_size(Point::new(x, y), 100.0, 100.0));
        }
        assert!(
            h.staleness() > 0.1,
            "2000 mutations on 5000 rects must register: {}",
            h.staleness()
        );
        // The patched histogram still answers, and the rebuild policy
        // would kick in; a rebuilt histogram has zero staleness.
        let rebuilt = MinSkewBuilder::new(40).regions(1_600).build(&ds);
        assert_eq!(rebuilt.staleness(), 0.0);
    }

    #[test]
    fn patched_estimates_track_inserts() {
        let (_, mut h) = hist();
        // Insert a block of rects into the sparse centre region.
        let q = Rect::new(4_500.0, 4_500.0, 5_500.0, 5_500.0);
        let est_before = h.estimate_count(&q);
        let mass_before = h.total_count();
        for i in 0..500 {
            let x = 4_600.0 + (i % 25) as f64 * 30.0;
            let y = 4_600.0 + (i / 25) as f64 * 30.0;
            assert!(h.note_insert(&Rect::from_center_size(Point::new(x, y), 50.0, 50.0)));
        }
        // Global mass is exact; the local estimate moves in the right
        // direction but is *diluted* across the covering bucket — patching
        // preserves totals, not detail, which is why staleness exists.
        assert!((h.total_count() - mass_before - 500.0).abs() < 1e-9);
        let est_after = h.estimate_count(&q);
        assert!(
            est_after > est_before,
            "local estimate must increase ({est_before} -> {est_after})"
        );
        // A whole-space query reflects the inserts exactly.
        let whole = Rect::new(-1e6, -1e6, 1e6, 1e6);
        assert!((h.estimate_count(&whole) - mass_before - 500.0).abs() < 1e-6);
    }

    #[test]
    fn delete_heavy_staleness_uses_stable_base() {
        // Regression: staleness used to divide churn by the *current*
        // input_len, so deleting 4000 of 5000 rects reported
        // 2000/1000 = 2.0 — every delete grew the numerator and shrank
        // the denominator. Against the stable construction base the same
        // stream stays bounded by churn/5000 <= 0.8.
        let (ds, mut h) = hist();
        use minskew_data::RectSource;
        let rects = ds.as_slice().expect("dataset is materialised");
        for r in rects.iter().take(4_000) {
            h.note_delete(r);
        }
        assert_eq!(h.input_len(), 1_000);
        let s = h.staleness();
        assert!(
            s <= 0.85,
            "delete-heavy staleness must stay bounded by the stable base: {s}"
        );
        assert!(
            s >= 0.35,
            "4000 absorbed deletes on a 5000-rect base must still register: {s}"
        );
    }

    #[test]
    fn staleness_base_follows_growth() {
        // Inserts beyond the construction size raise the base, so a
        // histogram that doubled its relation is not judged against the
        // original (smaller) denominator.
        let (_, mut h) = hist();
        for i in 0..5_000 {
            let x = 100.0 + (i % 70) as f64 * 30.0;
            let y = 100.0 + (i / 70) as f64 * 30.0;
            h.note_insert(&Rect::from_center_size(Point::new(x, y), 20.0, 20.0));
        }
        // 5000 absorbed inserts at half weight = 2500 churn over a base
        // of max(5000, 10000) = 10000.
        assert!((h.staleness() - 0.25).abs() < 1e-9, "{}", h.staleness());
    }

    #[test]
    fn fractional_bucket_absorbs_delete_saturating_at_zero() {
        // Regression: note_delete skipped buckets with count < 1.0, so a
        // fractional-count bucket (post-refit or post-churn) could never
        // absorb a delete and the mutation was charged as fully
        // unabsorbable even though the centre was covered.
        let mut h = SpatialHistogram::from_parts(
            "frac",
            vec![
                crate::Bucket {
                    mbr: Rect::new(0.0, 0.0, 10.0, 10.0),
                    count: 0.6,
                    avg_width: 1.0,
                    avg_height: 1.0,
                },
                crate::Bucket {
                    mbr: Rect::new(10.0, 0.0, 20.0, 10.0),
                    count: 5.0,
                    avg_width: 1.0,
                    avg_height: 1.0,
                },
            ],
            6,
            crate::ExtensionRule::Minkowski,
        );
        let in_frac = Rect::from_center_size(Point::new(5.0, 5.0), 1.0, 1.0);
        // Partially absorbed: the 0.6 drains to exactly zero, the
        // neighbour is untouched, and the 0.4 shortfall is charged at
        // full weight (0.5 * 0.6 + 0.4 = 0.7 churn).
        assert!(!h.note_delete(&in_frac));
        assert_eq!(h.buckets()[0].count, 0.0);
        assert_eq!(h.buckets()[1].count, 5.0);
        assert!((h.churn() - 0.7).abs() < 1e-9, "churn = {}", h.churn());
        // A second delete at the same spot finds an empty bucket: nothing
        // to absorb, full churn weight, count stays at zero.
        assert!(!h.note_delete(&in_frac));
        assert_eq!(h.buckets()[0].count, 0.0);
        assert!((h.churn() - 1.7).abs() < 1e-9, "churn = {}", h.churn());
        // A fully absorbable delete still costs only half weight.
        let in_whole = Rect::from_center_size(Point::new(15.0, 5.0), 1.0, 1.0);
        assert!(h.note_delete(&in_whole));
        assert_eq!(h.buckets()[1].count, 4.0);
        assert!((h.churn() - 2.2).abs() < 1e-9, "churn = {}", h.churn());
    }

    #[test]
    fn delete_never_goes_negative() {
        let (_, mut h) = hist();
        // Hammer deletes at one spot until its bucket is empty.
        let r = Rect::from_center_size(Point::new(200.0, 200.0), 100.0, 100.0);
        for _ in 0..10_000 {
            h.note_delete(&r);
        }
        assert!(h.buckets().iter().all(|b| b.count >= 0.0));
    }
}

//! The bucket summary and the per-bucket uniformity-assumption estimate.

use minskew_geom::Rect;

/// How a query is extended before intersecting it with a bucket, to account
/// for rectangles whose *centres* lie outside the query but which still
/// intersect it (§3.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtensionRule {
    /// Extend each query side outward by **half** the bucket's average
    /// rectangle width/height — the Minkowski-sum form `(qw + W̄)(qh + H̄)`.
    ///
    /// This is the geometrically exact correction under the uniformity
    /// assumption: a rectangle of width `w` centred at distance `< w/2`
    /// beyond the query edge still intersects the query. It also makes the
    /// range formula consistent with the paper's own *point-query* formula
    /// (a point query extended by `(W̄/2, H̄/2)` covers area `W̄·H̄`, giving
    /// the paper's `TA / Area(T)` under identical sizes). This is the
    /// default.
    #[default]
    Minkowski,
    /// Extend each query side outward by the **full** average width/height,
    /// as §3.1's text literally states (`qx'¹ = min(x¹_T, qx¹ − W_avg)`).
    ///
    /// Double-counts the correction and overestimates small queries; kept
    /// for paper fidelity and for the ablation bench comparing the two.
    PaperLiteral,
    /// No extension: assumes only rectangles whose centres fall inside the
    /// query intersect it. Underestimates; the paper calls this out as
    /// inaccurate. Useful as an ablation baseline.
    None,
}

impl ExtensionRule {
    /// Per-side extension amounts for a bucket with the given average
    /// rectangle dimensions.
    #[inline]
    pub fn amounts(self, avg_w: f64, avg_h: f64) -> (f64, f64) {
        match self {
            ExtensionRule::Minkowski => (avg_w / 2.0, avg_h / 2.0),
            ExtensionRule::PaperLiteral => (avg_w, avg_h),
            ExtensionRule::None => (0.0, 0.0),
        }
    }

    /// Stable lowercase label, used by wire formats (`EXPLAIN` replies)
    /// and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            ExtensionRule::Minkowski => "minkowski",
            ExtensionRule::PaperLiteral => "paper_literal",
            ExtensionRule::None => "none",
        }
    }
}

/// One histogram bucket: the paper's eight-word summary of a group of
/// rectangles (§5.4): four words of bounding box, the rectangle count, the
/// average density, and the average width and height.
///
/// (The average density is derivable as `count`-per-area and is therefore
/// not stored; we still charge the paper's eight words in
/// [`Bucket::SIZE_BYTES`] to keep space accounting comparable.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Bounding box of the bucket's region.
    pub mbr: Rect,
    /// Number of input rectangles assigned to the bucket (by centre).
    pub count: f64,
    /// Average width of the assigned rectangles.
    pub avg_width: f64,
    /// Average height of the assigned rectangles.
    pub avg_height: f64,
}

impl Bucket {
    /// Space charged per bucket: eight 8-byte words (§5.4).
    pub const SIZE_BYTES: usize = 8 * 8;

    /// Estimated number of this bucket's rectangles intersecting `query`,
    /// under the uniformity assumption within the bucket.
    ///
    /// The query is extended per `rule`, clipped to the bucket's bounding
    /// box, and the bucket count is scaled by the covered fraction. The
    /// fraction is computed per axis so that *degenerate* bucket boxes
    /// (all rectangles on a line or at a point) behave sensibly: a
    /// zero-length axis counts as fully covered when the clipped query
    /// reaches it.
    pub fn estimate(&self, query: &Rect, rule: ExtensionRule) -> f64 {
        let (ex, ey) = rule.amounts(self.avg_width, self.avg_height);
        self.estimate_with_extension(query, ex, ey)
    }

    /// [`Bucket::estimate`] with the per-side extension amounts already
    /// computed (`rule.amounts(avg_width, avg_height)`).
    ///
    /// This is the hot-path entry point: [`crate::SpatialHistogram`]
    /// precomputes the per-bucket amounts once per histogram instead of
    /// re-deriving them on every query. Passing the amounts produced by
    /// [`ExtensionRule::amounts`] for this bucket makes the result
    /// bit-identical to [`Bucket::estimate`].
    #[inline]
    pub fn estimate_with_extension(&self, query: &Rect, ex: f64, ey: f64) -> f64 {
        if self.count == 0.0 {
            return 0.0;
        }
        let extended = query.expanded(ex, ey);
        if !extended.intersects(&self.mbr) {
            return 0.0;
        }
        let fx = axis_fraction(
            extended.overlap_len(&self.mbr, minskew_geom::Axis::X),
            self.mbr.width(),
        );
        let fy = axis_fraction(
            extended.overlap_len(&self.mbr, minskew_geom::Axis::Y),
            self.mbr.height(),
        );
        self.count * fx * fy
    }

    /// Fraction of this bucket covered by `query` extended by `(ex, ey)` —
    /// the factor `fx·fy` such that [`Bucket::estimate_with_extension`]
    /// returns `count · fx · fy`.
    ///
    /// Unlike the estimate itself this is meaningful for *empty* buckets
    /// too, which is what the selectivity refit of
    /// [`crate::SpatialHistogram::refine`] needs: there the counts are the
    /// unknowns being solved for, so the `count == 0` shortcut cannot
    /// apply.
    pub fn coverage_fraction(&self, query: &Rect, ex: f64, ey: f64) -> f64 {
        let extended = query.expanded(ex, ey);
        if !extended.intersects(&self.mbr) {
            return 0.0;
        }
        let fx = axis_fraction(
            extended.overlap_len(&self.mbr, minskew_geom::Axis::X),
            self.mbr.width(),
        );
        let fy = axis_fraction(
            extended.overlap_len(&self.mbr, minskew_geom::Axis::Y),
            self.mbr.height(),
        );
        fx * fy
    }
}

/// Fraction of a bucket axis covered by an overlap of length `overlap`.
/// `0/0` (degenerate axis touched by the query) counts as full coverage.
#[inline]
fn axis_fraction(overlap: f64, extent: f64) -> f64 {
    if extent <= 0.0 {
        1.0
    } else {
        (overlap / extent).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_geom::Point;

    fn bucket() -> Bucket {
        Bucket {
            mbr: Rect::new(0.0, 0.0, 10.0, 10.0),
            count: 100.0,
            avg_width: 2.0,
            avg_height: 2.0,
        }
    }

    #[test]
    fn fully_covering_query_returns_count() {
        let b = bucket();
        let q = Rect::new(-5.0, -5.0, 15.0, 15.0);
        for rule in [
            ExtensionRule::Minkowski,
            ExtensionRule::PaperLiteral,
            ExtensionRule::None,
        ] {
            assert_eq!(b.estimate(&q, rule), 100.0);
        }
    }

    #[test]
    fn disjoint_query_returns_zero() {
        let b = bucket();
        let q = Rect::new(100.0, 100.0, 110.0, 110.0);
        assert_eq!(b.estimate(&q, ExtensionRule::Minkowski), 0.0);
    }

    #[test]
    fn partial_query_scales_by_extended_fraction() {
        let b = bucket();
        // Query = left half [0,5]x[0,10]; Minkowski extension adds 1.0 per
        // side -> [-1,6]x[-1,11], clipped to bucket: [0,6]x[0,10].
        let q = Rect::new(0.0, 0.0, 5.0, 10.0);
        let est = b.estimate(&q, ExtensionRule::Minkowski);
        assert!((est - 100.0 * 0.6).abs() < 1e-9, "est = {est}");
        // Paper-literal extends by 2.0 per side -> [0,7]x[0,10] clipped.
        let est_lit = b.estimate(&q, ExtensionRule::PaperLiteral);
        assert!((est_lit - 100.0 * 0.7).abs() < 1e-9);
        // No extension: exactly half.
        let est_none = b.estimate(&q, ExtensionRule::None);
        assert!((est_none - 50.0).abs() < 1e-9);
    }

    #[test]
    fn point_query_extension() {
        let b = bucket();
        let q = Rect::from_point(Point::new(5.0, 5.0));
        // Minkowski: extended to 2x2 around the point -> fraction 4/100.
        let est = b.estimate(&q, ExtensionRule::Minkowski);
        assert!((est - 100.0 * (2.0 * 2.0) / 100.0).abs() < 1e-9);
        // None: a zero-area query selects nothing under centre counting.
        assert_eq!(b.estimate(&q, ExtensionRule::None), 0.0);
    }

    #[test]
    fn empty_bucket_estimates_zero() {
        let b = Bucket {
            count: 0.0,
            ..bucket()
        };
        assert_eq!(
            b.estimate(&Rect::new(0.0, 0.0, 10.0, 10.0), ExtensionRule::Minkowski),
            0.0
        );
    }

    #[test]
    fn degenerate_bucket_axes_count_fully() {
        // All 40 rects are points on a vertical line x = 5.
        let b = Bucket {
            mbr: Rect::new(5.0, 0.0, 5.0, 10.0),
            count: 40.0,
            avg_width: 0.0,
            avg_height: 0.0,
        };
        // Query crossing the line over 30% of its height.
        let q = Rect::new(4.0, 0.0, 6.0, 3.0);
        let est = b.estimate(&q, ExtensionRule::Minkowski);
        assert!((est - 40.0 * 0.3).abs() < 1e-9, "est = {est}");
        // Query missing the line.
        let q2 = Rect::new(6.0, 0.0, 8.0, 10.0);
        assert_eq!(b.estimate(&q2, ExtensionRule::Minkowski), 0.0);
        // Point-at-a-point bucket.
        let pb = Bucket {
            mbr: Rect::from_point(Point::new(1.0, 1.0)),
            count: 7.0,
            avg_width: 0.0,
            avg_height: 0.0,
        };
        assert_eq!(
            pb.estimate(&Rect::new(0.0, 0.0, 2.0, 2.0), ExtensionRule::Minkowski),
            7.0
        );
        assert_eq!(
            pb.estimate(&Rect::new(2.0, 2.0, 3.0, 3.0), ExtensionRule::Minkowski),
            0.0
        );
    }

    #[test]
    fn estimates_never_exceed_bucket_count() {
        let b = bucket();
        for (x, y, w, h) in [
            (0.0, 0.0, 100.0, 100.0),
            (-50.0, -50.0, 60.0, 60.0),
            (9.0, 9.0, 0.5, 0.5),
        ] {
            let q = Rect::new(x, y, x + w, y + h);
            for rule in [
                ExtensionRule::Minkowski,
                ExtensionRule::PaperLiteral,
                ExtensionRule::None,
            ] {
                let e = b.estimate(&q, rule);
                assert!((0.0..=b.count).contains(&e));
            }
        }
    }
}

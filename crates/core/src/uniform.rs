//! The single-bucket uniformity-assumption estimator (§3.1).

use minskew_data::RectSource;

use crate::error::BuildError;
use crate::{Bucket, ExtensionRule, SpatialHistogram};

/// Fallible counterpart of [`build_uniform`].
///
/// An empty dataset is *not* an error here — the uniform estimator is the
/// engine's degradation floor and must be constructible in every state —
/// but a non-finite bounding box still is.
pub fn try_build_uniform<S: RectSource + ?Sized>(data: &S) -> Result<SpatialHistogram, BuildError> {
    let s = data.stats();
    if s.n > 0 && !s.mbr.is_finite() {
        return Err(BuildError::NonFiniteMbr);
    }
    Ok(build_uniform(data))
}

/// Builds the *Uniform* technique: one bucket spanning the input MBR, with
/// the global average rectangle dimensions.
///
/// This is the spatial analogue of the classic relational uniform-
/// distribution assumption [SAC+79]; the paper uses it as the floor
/// baseline and shows 57–80 % error on real data. Point queries estimate
/// `N·W̄·H̄ / Area(T)`, which for identically-sized rectangles equals the
/// paper's `TA / Area(T)` average.
///
/// Reads only the source's summary statistics, never its rectangles.
pub fn build_uniform<S: RectSource + ?Sized>(data: &S) -> SpatialHistogram {
    let s = data.stats();
    let bucket = Bucket {
        mbr: s.mbr,
        count: s.n as f64,
        avg_width: s.avg_width,
        avg_height: s.avg_height,
    };
    let buckets = if s.n == 0 { vec![] } else { vec![bucket] };
    SpatialHistogram::from_parts("Uniform", buckets, s.n, ExtensionRule::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpatialEstimator;
    use minskew_datagen::uniform_rects;
    use minskew_geom::{Point, Rect};

    #[test]
    fn accurate_on_truly_uniform_data() {
        let space = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let ds = uniform_rects(20_000, space, 10.0, 10.0, 1);
        let est = build_uniform(&ds);
        // Interior range query: estimate within ~10% of the truth.
        let q = Rect::new(200.0, 200.0, 500.0, 600.0);
        let actual = ds.count_intersecting(&q) as f64;
        let e = est.estimate_count(&q);
        assert!(
            (e - actual).abs() / actual < 0.1,
            "estimate {e} vs actual {actual}"
        );
    }

    #[test]
    fn point_query_matches_ta_over_area() {
        let space = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let ds = uniform_rects(10_000, space, 20.0, 10.0, 2);
        let est = build_uniform(&ds);
        let q = Rect::from_point(Point::new(500.0, 500.0));
        let s = ds.stats();
        let expected = s.total_area / s.mbr.area();
        let e = est.estimate_count(&q);
        assert!(
            (e - expected).abs() / expected < 0.05,
            "point estimate {e}, TA/Area {expected}"
        );
    }

    #[test]
    fn single_bucket_and_size() {
        let ds = uniform_rects(100, Rect::new(0.0, 0.0, 10.0, 10.0), 1.0, 1.0, 3);
        let est = build_uniform(&ds);
        assert_eq!(est.num_buckets(), 1);
        assert_eq!(est.summary_bytes(), Bucket::SIZE_BYTES);
        // The serving footprint additionally counts the eagerly seeded
        // extension table (and, once serving forces them, index + plane).
        assert_eq!(est.size_bytes(), est.serving_footprint().total());
        assert!(est.size_bytes() >= est.summary_bytes());
        assert_eq!(est.name(), "Uniform");
    }

    #[test]
    fn empty_dataset() {
        let est = build_uniform(&minskew_data::Dataset::new(vec![]));
        assert_eq!(est.num_buckets(), 0);
        assert_eq!(est.estimate_count(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0.0);
    }
}

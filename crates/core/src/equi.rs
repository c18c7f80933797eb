//! Equi-partitionings of spatial data (§3.3): *Equi-Area* and *Equi-Count*,
//! the spatial analogues of equi-width and equi-height histograms.
//!
//! Both construct a binary space partitioning top-down from a single bucket
//! holding everything:
//!
//! * **Equi-Area** always splits the bucket with the longest MBR side, at
//!   the midpoint of that side — driving bucket areas towards equality.
//! * **Equi-Count** always splits the bucket with the most rectangles, along
//!   the dimension with the higher *projected rectangle count* (number of
//!   distinct centre coordinates), at the member median — driving bucket
//!   cardinalities towards equality.
//!
//! Rectangles move to the half containing their centre and bucket MBRs are
//! recomputed from the member rectangles, so buckets track the data rather
//! than blindly tiling space.

use minskew_data::Dataset;
use minskew_geom::{mbr_of, Axis, Point, Rect};

use crate::error::BuildError;
use crate::{Bucket, ExtensionRule, SpatialHistogram};

/// Builds the *Equi-Area* partitioning with (up to) `buckets` buckets.
///
/// Fewer buckets are returned when the data cannot be divided further
/// (e.g. all rectangles identical).
///
/// # Panics
///
/// Panics if `buckets == 0`; use [`try_build_equi_area`] to handle that as
/// an error.
pub fn build_equi_area(data: &Dataset, buckets: usize) -> SpatialHistogram {
    build_equi(data, buckets, Strategy::Area, "Equi-Area")
}

/// Builds the *Equi-Count* partitioning with (up to) `buckets` buckets.
///
/// # Panics
///
/// Panics if `buckets == 0`; use [`try_build_equi_count`] to handle that as
/// an error.
pub fn build_equi_count(data: &Dataset, buckets: usize) -> SpatialHistogram {
    build_equi(data, buckets, Strategy::Count, "Equi-Count")
}

/// Fallible counterpart of [`build_equi_area`].
pub fn try_build_equi_area(data: &Dataset, buckets: usize) -> Result<SpatialHistogram, BuildError> {
    try_build_equi(data, buckets, Strategy::Area, "Equi-Area")
}

/// Fallible counterpart of [`build_equi_count`].
pub fn try_build_equi_count(
    data: &Dataset,
    buckets: usize,
) -> Result<SpatialHistogram, BuildError> {
    try_build_equi(data, buckets, Strategy::Count, "Equi-Count")
}

fn try_build_equi(
    data: &Dataset,
    buckets: usize,
    strategy: Strategy,
    name: &str,
) -> Result<SpatialHistogram, BuildError> {
    if buckets == 0 {
        return Err(BuildError::ZeroBucketBudget);
    }
    if data.is_empty() {
        return Err(BuildError::EmptyDataset);
    }
    if !data.stats().mbr.is_finite() {
        return Err(BuildError::NonFiniteMbr);
    }
    Ok(build_equi(data, buckets, strategy, name))
}

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    Area,
    Count,
}

struct BuildBucket {
    members: Vec<u32>,
    /// MBR over the member *rectangles* (not just centres).
    mbr: Rect,
    splittable: bool,
}

impl BuildBucket {
    fn new(members: Vec<u32>, rects: &[Rect]) -> BuildBucket {
        let mbr = mbr_of(members.iter().map(|&i| rects[i as usize]))
            .unwrap_or_else(|| Rect::new(0.0, 0.0, 0.0, 0.0));
        BuildBucket {
            splittable: members.len() >= 2,
            members,
            mbr,
        }
    }
}

fn build_equi(data: &Dataset, buckets: usize, strategy: Strategy, name: &str) -> SpatialHistogram {
    assert!(buckets >= 1, "need at least one bucket");
    let rects = data.rects();
    if rects.is_empty() {
        return SpatialHistogram::from_parts(name, vec![], 0, ExtensionRule::default());
    }
    let centers: Vec<Point> = rects.iter().map(Rect::center).collect();
    let mut parts = vec![BuildBucket::new((0..rects.len() as u32).collect(), rects)];

    while parts.len() < buckets {
        let candidate = match strategy {
            Strategy::Area => parts
                .iter()
                .enumerate()
                .filter(|(_, b)| b.splittable)
                .max_by(|(_, a), (_, b)| {
                    let la = a.mbr.side(a.mbr.longest_axis());
                    let lb = b.mbr.side(b.mbr.longest_axis());
                    la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i),
            Strategy::Count => parts
                .iter()
                .enumerate()
                .filter(|(_, b)| b.splittable)
                .max_by_key(|(_, b)| b.members.len())
                .map(|(i, _)| i),
        };
        let Some(i) = candidate else { break };
        match try_split(&parts[i], &centers, rects, strategy) {
            Some((a, b)) => {
                parts[i] = a;
                parts.push(b);
            }
            None => parts[i].splittable = false,
        }
    }

    let input_len = rects.len();
    let buckets = parts
        .into_iter()
        .filter(|p| !p.members.is_empty())
        .map(|p| finalize(&p, rects))
        .collect();
    SpatialHistogram::from_parts(name, buckets, input_len, ExtensionRule::default())
}

fn finalize(p: &BuildBucket, rects: &[Rect]) -> Bucket {
    let n = p.members.len() as f64;
    let mut sum_w = 0.0;
    let mut sum_h = 0.0;
    for &i in &p.members {
        sum_w += rects[i as usize].width();
        sum_h += rects[i as usize].height();
    }
    Bucket {
        mbr: p.mbr,
        count: n,
        avg_width: sum_w / n,
        avg_height: sum_h / n,
    }
}

fn try_split(
    bucket: &BuildBucket,
    centers: &[Point],
    rects: &[Rect],
    strategy: Strategy,
) -> Option<(BuildBucket, BuildBucket)> {
    let axes: [Axis; 2] = match strategy {
        // Equi-Area: longest MBR side first, the other as fallback.
        Strategy::Area => {
            let first = bucket.mbr.longest_axis();
            [first, first.other()]
        }
        // Equi-Count: higher projected (distinct-centre) count first. On
        // continuous data the distinct counts almost always tie (every
        // centre is unique), so ties fall back to the larger centre spread —
        // otherwise the technique would degenerate into always-X splits.
        Strategy::Count => {
            let dx = distinct_coords(bucket, centers, Axis::X);
            let dy = distinct_coords(bucket, centers, Axis::Y);
            match dx.cmp(&dy) {
                std::cmp::Ordering::Greater => [Axis::X, Axis::Y],
                std::cmp::Ordering::Less => [Axis::Y, Axis::X],
                std::cmp::Ordering::Equal => {
                    let spread = |axis: Axis| {
                        let mut lo = f64::INFINITY;
                        let mut hi = f64::NEG_INFINITY;
                        for &i in &bucket.members {
                            let c = centers[i as usize].coord(axis);
                            lo = lo.min(c);
                            hi = hi.max(c);
                        }
                        hi - lo
                    };
                    if spread(Axis::X) >= spread(Axis::Y) {
                        [Axis::X, Axis::Y]
                    } else {
                        [Axis::Y, Axis::X]
                    }
                }
            }
        }
    };
    for axis in axes {
        let threshold = match strategy {
            Strategy::Area => Some(midpoint(bucket, axis)),
            Strategy::Count => median_gap(bucket, centers, axis),
        };
        if let Some(t) = threshold {
            let (lo, hi): (Vec<u32>, Vec<u32>) = bucket
                .members
                .iter()
                .partition(|&&i| centers[i as usize].coord(axis) < t);
            if !lo.is_empty() && !hi.is_empty() {
                return Some((BuildBucket::new(lo, rects), BuildBucket::new(hi, rects)));
            }
        }
    }
    None
}

fn midpoint(bucket: &BuildBucket, axis: Axis) -> f64 {
    (bucket.mbr.lo.coord(axis) + bucket.mbr.hi.coord(axis)) / 2.0
}

fn distinct_coords(bucket: &BuildBucket, centers: &[Point], axis: Axis) -> usize {
    let mut coords: Vec<f64> = bucket
        .members
        .iter()
        .map(|&i| centers[i as usize].coord(axis))
        .collect();
    coords.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    1 + coords.windows(2).filter(|w| w[0] != w[1]).count()
}

/// Finds a split threshold near the member median along `axis` such that
/// both halves are non-empty; `None` when every centre shares the same
/// coordinate.
fn median_gap(bucket: &BuildBucket, centers: &[Point], axis: Axis) -> Option<f64> {
    let mut coords: Vec<f64> = bucket
        .members
        .iter()
        .map(|&i| centers[i as usize].coord(axis))
        .collect();
    coords.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = coords.len();
    let mid = n / 2;
    // Walk outward from the middle to the nearest position where adjacent
    // coordinates differ; the threshold between them separates the bucket.
    for d in 0..n {
        for pos in [mid.checked_sub(d), Some(mid + d)].into_iter().flatten() {
            if pos >= 1 && pos < n && coords[pos - 1] != coords[pos] {
                return Some((coords[pos - 1] + coords[pos]) / 2.0);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpatialEstimator;
    use minskew_datagen::{charminar_with, uniform_rects};

    fn space() -> Rect {
        Rect::new(0.0, 0.0, 1000.0, 1000.0)
    }

    #[test]
    fn bucket_counts_cover_input() {
        let ds = charminar_with(5_000, 1);
        for builder in [build_equi_area, build_equi_count] {
            let h = builder(&ds, 50);
            assert!(h.num_buckets() <= 50);
            assert!(h.num_buckets() > 10, "got {}", h.num_buckets());
            assert!((h.total_count() - 5_000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn equi_count_balances_cardinalities() {
        let ds = uniform_rects(8_000, space(), 4.0, 4.0, 2);
        let h = build_equi_count(&ds, 64);
        assert_eq!(h.num_buckets(), 64);
        let avg = 8_000.0 / 64.0;
        for b in h.buckets() {
            assert!(
                b.count > avg * 0.4 && b.count < avg * 2.5,
                "bucket count {} far from balanced {avg}",
                b.count
            );
        }
    }

    #[test]
    fn equi_area_balances_areas_on_uniform_data() {
        let ds = uniform_rects(8_000, space(), 4.0, 4.0, 3);
        let h = build_equi_area(&ds, 64);
        assert_eq!(h.num_buckets(), 64);
        let areas: Vec<f64> = h.buckets().iter().map(|b| b.mbr.area()).collect();
        let max = areas.iter().cloned().fold(0.0, f64::max);
        let min = areas.iter().cloned().fold(f64::INFINITY, f64::min);
        // MBR shrinking makes areas unequal, but within a small factor on
        // uniform data.
        assert!(max / min < 6.0, "area ratio {}", max / min);
    }

    #[test]
    fn equi_count_puts_more_buckets_in_dense_areas() {
        let ds = charminar_with(20_000, 4);
        let h = build_equi_count(&ds, 50);
        // Count buckets whose centre is within 2000 of a corner of the
        // 10000x10000 space vs the rest.
        let near_corner = h
            .buckets()
            .iter()
            .filter(|b| {
                let c = b.mbr.center();
                let dx = c.x.min(10_000.0 - c.x);
                let dy = c.y.min(10_000.0 - c.y);
                dx < 2_000.0 && dy < 2_000.0
            })
            .count();
        assert!(
            near_corner * 2 > h.num_buckets(),
            "only {near_corner}/{} buckets near corners",
            h.num_buckets()
        );
    }

    #[test]
    fn identical_rects_stop_early_without_looping() {
        let rects = vec![Rect::new(5.0, 5.0, 6.0, 6.0); 100];
        let ds = Dataset::new(rects);
        for builder in [build_equi_area, build_equi_count] {
            let h = builder(&ds, 16);
            assert_eq!(h.num_buckets(), 1, "indivisible data: one bucket");
            assert_eq!(h.total_count(), 100.0);
        }
    }

    #[test]
    fn estimates_beat_uniform_on_skewed_data() {
        let ds = charminar_with(10_000, 5);
        let uni = crate::build_uniform(&ds);
        let ea = build_equi_area(&ds, 100);
        let ec = build_equi_count(&ds, 100);
        // Query a dense corner; grouped techniques must be much closer.
        let q = Rect::new(0.0, 0.0, 1_200.0, 1_200.0);
        let actual = ds.count_intersecting(&q) as f64;
        let err = |e: f64| (e - actual).abs() / actual;
        assert!(err(ea.estimate_count(&q)) < err(uni.estimate_count(&q)));
        assert!(err(ec.estimate_count(&q)) < err(uni.estimate_count(&q)));
    }

    #[test]
    fn empty_dataset_yields_empty_histogram() {
        let ds = Dataset::new(vec![]);
        assert_eq!(build_equi_area(&ds, 10).num_buckets(), 0);
        assert_eq!(build_equi_count(&ds, 10).num_buckets(), 0);
    }

    #[test]
    fn single_bucket_request_is_uniform_like() {
        let ds = uniform_rects(500, space(), 4.0, 4.0, 6);
        let h = build_equi_area(&ds, 1);
        assert_eq!(h.num_buckets(), 1);
        assert_eq!(h.buckets()[0].count, 500.0);
    }
}

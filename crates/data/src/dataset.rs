//! The input rectangle distribution and its summary statistics.

use minskew_geom::Rect;

/// Summary statistics of a [`Dataset`], in the paper's notation.
///
/// These are exactly the aggregates the uniformity-assumption formulas of
/// §3.1 consume: `Area(T)` (the input MBR area), `TA` (summed rectangle
/// area), and the average width/height `W_avg`, `H_avg`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// `N`: the number of input rectangles.
    pub n: usize,
    /// Minimum bounding rectangle of the whole input (`T`).
    pub mbr: Rect,
    /// `TA`: the sum of the areas of all input rectangles.
    pub total_area: f64,
    /// `W_avg`: average rectangle width.
    pub avg_width: f64,
    /// `H_avg`: average rectangle height.
    pub avg_height: f64,
}

impl DatasetStats {
    /// The statistics of `rects`, computed in one sweep that folds the MBR
    /// and the area, width and height sums in iteration order. Every source
    /// that yields the same rectangles in the same order therefore gets
    /// bit-identical statistics.
    ///
    /// # Panics
    ///
    /// Panics if any rectangle has a non-finite coordinate: it would poison
    /// every downstream aggregate.
    pub fn of(rects: impl IntoIterator<Item = Rect>) -> DatasetStats {
        let mut n = 0usize;
        let mut mbr: Option<Rect> = None;
        let mut total_area = 0.0;
        let mut sum_w = 0.0;
        let mut sum_h = 0.0;
        for r in rects {
            assert!(
                r.is_finite(),
                "dataset rectangles must have finite coordinates"
            );
            n += 1;
            // The fold `mbr_of` makes: accumulator first, then the next rect.
            mbr = Some(mbr.map_or(r, |m| m.union(&r)));
            total_area += r.area();
            sum_w += r.width();
            sum_h += r.height();
        }
        let denom = n.max(1) as f64;
        DatasetStats {
            n,
            mbr: mbr.unwrap_or_else(|| Rect::new(0.0, 0.0, 0.0, 0.0)),
            total_area,
            avg_width: sum_w / denom,
            avg_height: sum_h / denom,
        }
    }
}

/// An immutable collection of input rectangles (the distribution `T`).
///
/// Construction computes the summary statistics in a single pass; the
/// rectangle storage is kept so that partitioners can make their
/// (one or more) sweeps over the data and so that exact selectivities can be
/// computed for evaluation.
///
/// # Examples
///
/// ```
/// use minskew_geom::Rect;
/// use minskew_data::Dataset;
///
/// let ds = Dataset::new(vec![
///     Rect::new(0.0, 0.0, 2.0, 2.0),
///     Rect::new(4.0, 4.0, 6.0, 8.0),
/// ]);
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.stats().mbr, Rect::new(0.0, 0.0, 6.0, 8.0));
/// assert_eq!(ds.stats().total_area, 4.0 + 8.0);
/// assert_eq!(ds.count_intersecting(&Rect::new(1.0, 1.0, 5.0, 5.0)), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    rects: Vec<Rect>,
    stats: DatasetStats,
}

impl Dataset {
    /// Builds a dataset from its rectangles, computing summary statistics.
    ///
    /// Non-finite rectangles are rejected with a panic: they would poison
    /// every downstream aggregate. (Input validation belongs at load time,
    /// not in every estimator.)
    ///
    /// # Panics
    ///
    /// Panics if any rectangle has a non-finite coordinate.
    pub fn new(rects: Vec<Rect>) -> Dataset {
        let stats = DatasetStats::of(rects.iter().copied());
        Dataset { rects, stats }
    }

    /// Number of rectangles (`N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Returns `true` if the dataset holds no rectangles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// The input rectangles.
    #[inline]
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Consumes the dataset, handing back its rectangles without a copy.
    pub fn into_rects(self) -> Vec<Rect> {
        self.rects
    }

    /// Precomputed summary statistics.
    #[inline]
    pub fn stats(&self) -> &DatasetStats {
        &self.stats
    }

    /// Exact result size of a range query: the number of input rectangles
    /// with a non-empty (closed) intersection with `query`.
    ///
    /// This is the brute-force O(N) ground truth. For large evaluation runs
    /// prefer the R\*-tree count in `minskew-rtree`, which answers the same
    /// question in roughly O(√N + k).
    pub fn count_intersecting(&self, query: &Rect) -> usize {
        self.rects.iter().filter(|r| r.intersects(query)).count()
    }

    /// Exact selectivity of a query: `|Q| / N` (zero for an empty dataset).
    pub fn selectivity(&self, query: &Rect) -> f64 {
        if self.rects.is_empty() {
            0.0
        } else {
            self.count_intersecting(query) as f64 / self.rects.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_geom::Point;

    fn sample() -> Dataset {
        Dataset::new(vec![
            Rect::new(0.0, 0.0, 2.0, 2.0),
            Rect::new(1.0, 1.0, 3.0, 3.0),
            Rect::new(8.0, 8.0, 10.0, 10.0),
        ])
    }

    #[test]
    fn stats_are_correct() {
        let ds = sample();
        let s = ds.stats();
        assert_eq!(s.n, 3);
        assert_eq!(s.mbr, Rect::new(0.0, 0.0, 10.0, 10.0));
        assert_eq!(s.total_area, 4.0 + 4.0 + 4.0);
        assert_eq!(s.avg_width, 2.0);
        assert_eq!(s.avg_height, 2.0);
    }

    #[test]
    fn empty_dataset_is_well_defined() {
        let ds = Dataset::new(vec![]);
        assert!(ds.is_empty());
        assert_eq!(ds.stats().n, 0);
        assert_eq!(ds.stats().avg_width, 0.0);
        assert_eq!(ds.count_intersecting(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0);
        assert_eq!(ds.selectivity(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0.0);
    }

    #[test]
    fn exact_counting_includes_touching() {
        let ds = sample();
        // Query touching the corner of the third rectangle intersects it.
        assert_eq!(ds.count_intersecting(&Rect::new(7.0, 7.0, 8.0, 8.0)), 1);
        assert_eq!(ds.count_intersecting(&Rect::new(0.0, 0.0, 10.0, 10.0)), 3);
        assert_eq!(ds.count_intersecting(&Rect::new(4.0, 0.0, 6.0, 2.0)), 0);
    }

    #[test]
    fn point_query_counts_covering_rects() {
        let ds = sample();
        let q = Rect::from_point(Point::new(1.5, 1.5));
        assert_eq!(ds.count_intersecting(&q), 2);
        assert!((ds.selectivity(&q) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_input_rejected() {
        // Rect::new's min/max normalisation silently drops NaN, so build the
        // corrupt rect directly through the public fields.
        let bad = Rect {
            lo: Point::new(0.0, 0.0),
            hi: Point::new(f64::NAN, 1.0),
        };
        Dataset::new(vec![bad]);
    }

    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Closed-interval overlap written from the 1-D definition, without
        /// going through `Rect::intersects` — an independent oracle.
        fn overlap_1d(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> bool {
            a_lo <= b_hi && b_lo <= a_hi
        }

        /// Rects on a small integer lattice so touching edges, shared
        /// corners, and exact containment occur constantly, plus degenerate
        /// zero-width / zero-height / point rectangles (w or h = 0).
        fn lattice_rect() -> impl Strategy<Value = Rect> {
            (0i32..12, 0i32..12, 0i32..4, 0i32..4).prop_map(|(x, y, w, h)| {
                Rect::new(x as f64, y as f64, (x + w) as f64, (y + h) as f64)
            })
        }

        proptest! {
            /// `Dataset::count_intersecting` agrees with counting via the
            /// per-axis closed-interval definition, including touching-edge
            /// and point-query cases (the lattice makes ties common).
            #[test]
            fn prop_count_matches_interval_oracle(
                rects in proptest::collection::vec(lattice_rect(), 1..60),
                query in lattice_rect(),
            ) {
                let expected = rects
                    .iter()
                    .filter(|r| {
                        overlap_1d(r.lo.x, r.hi.x, query.lo.x, query.hi.x)
                            && overlap_1d(r.lo.y, r.hi.y, query.lo.y, query.hi.y)
                    })
                    .count();
                let ds = Dataset::new(rects);
                prop_assert_eq!(ds.count_intersecting(&query), expected);
                let sel = ds.selectivity(&query);
                prop_assert!((sel - expected as f64 / ds.len() as f64).abs() < 1e-12);
            }

            /// A point query at a rectangle's corner still counts it, and a
            /// query strictly outside the MBR counts nothing.
            #[test]
            fn prop_corner_point_queries_count(
                rects in proptest::collection::vec(lattice_rect(), 1..40),
                pick in 0usize..40,
            ) {
                let ds = Dataset::new(rects);
                let r = ds.rects()[pick % ds.len()];
                for corner in [
                    Point::new(r.lo.x, r.lo.y),
                    Point::new(r.hi.x, r.lo.y),
                    Point::new(r.lo.x, r.hi.y),
                    Point::new(r.hi.x, r.hi.y),
                ] {
                    let q = Rect::from_point(corner);
                    prop_assert!(ds.count_intersecting(&q) >= 1);
                }
                let mbr = ds.stats().mbr;
                let outside = Rect::new(mbr.hi.x + 1.0, mbr.hi.y + 1.0, mbr.hi.x + 2.0, mbr.hi.y + 2.0);
                prop_assert_eq!(ds.count_intersecting(&outside), 0);
            }
        }
    }
}

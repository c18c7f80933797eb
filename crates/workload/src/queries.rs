//! Query-set generation (§5.2 of the paper).

use minskew_data::Dataset;
use minskew_geom::{Point, Rect};
use rand::{Rng, SeedableRng};

/// Where query centres come from.
///
/// The paper draws centres from the *data* (each query centre is the centre
/// of a random input rectangle), which concentrates queries where objects
/// live and guarantees non-empty results in expectation. Uniform centres
/// are provided as an ablation: they probe empty space too, which changes
/// which technique errors dominate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CenterMode {
    /// Centres sampled from input-rectangle centres (the paper's §5.2 model).
    #[default]
    DataCenters,
    /// Centres uniform over the input MBR.
    UniformInMbr,
}

/// A set of range queries generated per the paper's query model.
///
/// The centres of the query rectangles are chosen randomly *from the set of
/// centres of the input rectangles* (so queries land where data lives, and
/// no query returns an empty result set in expectation), and the side
/// lengths are uniform in `[0.5·√a, 1.5·√a]` where the average query area
/// `a` is `(QSize · width(MBR)) × (QSize · height(MBR))`.
#[derive(Debug, Clone)]
pub struct QueryWorkload {
    queries: Vec<Rect>,
    qsize: f64,
}

impl QueryWorkload {
    /// The paper's standard query count per experiment point.
    pub const PAPER_QUERY_COUNT: usize = 10_000;

    /// Generates `count` queries with the given *QSize* (average query side
    /// as a fraction of the corresponding input-MBR side; the paper sweeps
    /// 2 %–25 %).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, `count == 0`, or `qsize` is not in
    /// `(0, 1]`... except that `qsize == 0` is allowed and produces *point
    /// queries* at data-rectangle centres (the paper's point-query case).
    pub fn generate(data: &Dataset, qsize: f64, count: usize, seed: u64) -> QueryWorkload {
        Self::generate_with_centers(data, qsize, count, seed, CenterMode::DataCenters)
    }

    /// Like [`Self::generate`] with an explicit query-centre model.
    pub fn generate_with_centers(
        data: &Dataset,
        qsize: f64,
        count: usize,
        seed: u64,
        centers: CenterMode,
    ) -> QueryWorkload {
        assert!(!data.is_empty(), "cannot generate queries over empty data");
        assert!(count > 0, "need at least one query");
        assert!(
            (0.0..=1.0).contains(&qsize),
            "QSize must be a fraction in [0, 1]"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mbr = data.stats().mbr;
        let avg_area = (qsize * mbr.width()) * (qsize * mbr.height());
        let side = avg_area.sqrt();
        let rects = data.rects();
        let queries = (0..count)
            .map(|_| {
                let center = match centers {
                    CenterMode::DataCenters => rects[rng.gen_range(0..rects.len())].center(),
                    CenterMode::UniformInMbr => Point::new(
                        rng.gen_range(mbr.lo.x..=mbr.hi.x),
                        rng.gen_range(mbr.lo.y..=mbr.hi.y),
                    ),
                };
                if side == 0.0 {
                    return Rect::from_point(center);
                }
                let w = rng.gen_range(0.5 * side..=1.5 * side);
                let h = rng.gen_range(0.5 * side..=1.5 * side);
                clamp_into(Rect::from_center_size(center, w, h), &mbr)
            })
            .collect();
        QueryWorkload { queries, qsize }
    }

    /// Generates point queries at `count` randomly chosen data-rectangle
    /// centres.
    pub fn points(data: &Dataset, count: usize, seed: u64) -> QueryWorkload {
        Self::generate(data, 0.0, count, seed)
    }

    /// Wraps an explicit query list (e.g. a workload captured from a query
    /// log) so it can be fed to the evaluation machinery. `qsize` is
    /// recorded for reporting only.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty.
    pub fn from_queries(queries: Vec<Rect>, qsize: f64) -> QueryWorkload {
        assert!(!queries.is_empty(), "need at least one query");
        QueryWorkload { queries, qsize }
    }

    /// The generated queries.
    pub fn queries(&self) -> &[Rect] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` if the workload has no queries (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The QSize parameter this workload was generated with.
    pub fn qsize(&self) -> f64 {
        self.qsize
    }
}

/// Translates `r` so it lies within `bounds` (§5.2: "rectangles lying within
/// the MBR of the input"); rectangles larger than a bounds dimension are
/// clipped instead.
fn clamp_into(r: Rect, bounds: &Rect) -> Rect {
    let mut lo = r.lo;
    let mut hi = r.hi;
    for (lo_c, hi_c, b_lo, b_hi) in [
        (&mut lo.x, &mut hi.x, bounds.lo.x, bounds.hi.x),
        (&mut lo.y, &mut hi.y, bounds.lo.y, bounds.hi.y),
    ] {
        let len = *hi_c - *lo_c;
        if len > b_hi - b_lo {
            *lo_c = b_lo;
            *hi_c = b_hi;
        } else if *lo_c < b_lo {
            *lo_c = b_lo;
            *hi_c = b_lo + len;
        } else if *hi_c > b_hi {
            *hi_c = b_hi;
            *lo_c = b_hi - len;
        }
    }
    Rect::from_corners(Point::new(lo.x, lo.y), Point::new(hi.x, hi.y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_datagen::charminar_with;

    #[test]
    fn queries_lie_within_input_mbr() {
        let ds = charminar_with(2_000, 1);
        let w = QueryWorkload::generate(&ds, 0.25, 500, 2);
        let mbr = ds.stats().mbr;
        assert_eq!(w.len(), 500);
        assert!(w.queries().iter().all(|q| mbr.contains_rect(q)));
        assert_eq!(w.qsize(), 0.25);
    }

    #[test]
    fn sides_follow_the_uniform_band() {
        let ds = charminar_with(2_000, 3);
        let qsize = 0.1;
        let w = QueryWorkload::generate(&ds, qsize, 2_000, 4);
        let mbr = ds.stats().mbr;
        let side = ((qsize * mbr.width()) * (qsize * mbr.height())).sqrt();
        let mut mean_w = 0.0;
        for q in w.queries() {
            // Clamping can only shrink, so widths stay <= 1.5 * side.
            assert!(q.width() <= 1.5 * side + 1e-9);
            mean_w += q.width();
        }
        mean_w /= w.len() as f64;
        // Mean close to `side` (the clamp rarely shrinks interior queries).
        assert!(
            (mean_w - side).abs() / side < 0.1,
            "mean width {mean_w} vs expected {side}"
        );
    }

    #[test]
    fn queries_hit_data() {
        // Because centres come from data centres, every query intersects at
        // least the rectangle it was seeded from... unless clamping moved
        // it; on Charminar that is rare. Check an overwhelming majority hit.
        let ds = charminar_with(2_000, 5);
        let w = QueryWorkload::generate(&ds, 0.05, 300, 6);
        let hits = w
            .queries()
            .iter()
            .filter(|q| ds.count_intersecting(q) > 0)
            .count();
        assert!(hits >= 295, "{hits}/300 queries hit data");
    }

    #[test]
    fn point_queries_are_degenerate() {
        let ds = charminar_with(500, 7);
        let w = QueryWorkload::points(&ds, 100, 8);
        assert!(w
            .queries()
            .iter()
            .all(|q| q.area() == 0.0 && q.width() == 0.0));
        // Every point query sits at a rect centre, so it hits that rect.
        assert!(w.queries().iter().all(|q| ds.count_intersecting(q) > 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = charminar_with(500, 9);
        let a = QueryWorkload::generate(&ds, 0.1, 50, 10);
        let b = QueryWorkload::generate(&ds, 0.1, 50, 10);
        assert_eq!(a.queries(), b.queries());
    }

    #[test]
    fn uniform_centers_probe_empty_space() {
        // On Charminar most of the interior is empty, so uniform-centred
        // small queries frequently return nothing, unlike data-centred ones.
        let ds = charminar_with(2_000, 13);
        let w = QueryWorkload::generate_with_centers(&ds, 0.02, 300, 14, CenterMode::UniformInMbr);
        let misses = w
            .queries()
            .iter()
            .filter(|q| ds.count_intersecting(q) == 0)
            .count();
        assert!(misses > 50, "expected many empty results, got {misses}");
        let mbr = ds.stats().mbr;
        assert!(w.queries().iter().all(|q| mbr.contains_rect(q)));
    }

    #[test]
    fn oversized_queries_clip_to_bounds() {
        let ds = charminar_with(100, 11);
        let w = QueryWorkload::generate(&ds, 1.0, 50, 12);
        let mbr = ds.stats().mbr;
        assert!(w.queries().iter().all(|q| mbr.contains_rect(q)));
    }
}

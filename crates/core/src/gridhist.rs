//! A fixed uniform-grid histogram (equi-width baseline).
//!
//! Not one of the paper's techniques, but the natural "do nothing clever"
//! bucket layout: tile the input MBR with a `g × g` grid, one bucket per
//! tile. Comparing Min-Skew against this shows how much of its win comes
//! from *adaptive* bucket placement rather than from bucketisation itself.

use minskew_data::{Dataset, DensityGrid};

use crate::{Bucket, ExtensionRule, SpatialHistogram};

/// Builds a uniform `⌊√buckets⌋ × ⌊√buckets⌋` grid histogram.
///
/// Rectangles are assigned to the tile containing their centre; empty tiles
/// are dropped (they estimate zero and would waste quota).
///
/// # Panics
///
/// Panics if `buckets == 0`.
pub fn build_grid(data: &Dataset, buckets: usize) -> SpatialHistogram {
    assert!(buckets >= 1, "need at least one bucket");
    if data.is_empty() {
        return SpatialHistogram::from_parts("Grid", vec![], 0, ExtensionRule::default());
    }
    let side = ((buckets as f64).sqrt().floor() as usize).max(1);
    let mbr = data.stats().mbr;
    // Reuse the density grid's geometry for tiling and point location; the
    // densities themselves are not needed here.
    let grid = DensityGrid::build(std::iter::empty::<&minskew_geom::Rect>(), mbr, side, side);
    let cells = grid.nx() * grid.ny();
    let mut count = vec![0f64; cells];
    let mut sum_w = vec![0f64; cells];
    let mut sum_h = vec![0f64; cells];
    for r in data.rects() {
        let (ix, iy) = grid.cell_containing(r.center());
        let c = iy * grid.nx() + ix;
        count[c] += 1.0;
        sum_w[c] += r.width();
        sum_h[c] += r.height();
    }
    let mut out = Vec::new();
    for iy in 0..grid.ny() {
        for ix in 0..grid.nx() {
            let c = iy * grid.nx() + ix;
            if count[c] == 0.0 {
                continue;
            }
            out.push(Bucket {
                mbr: grid.cell_rect(ix, iy),
                count: count[c],
                avg_width: sum_w[c] / count[c],
                avg_height: sum_h[c] / count[c],
            });
        }
    }
    SpatialHistogram::from_parts("Grid", out, data.len(), ExtensionRule::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpatialEstimator;
    use minskew_datagen::{charminar_with, uniform_rects};
    use minskew_geom::Rect as R;

    #[test]
    fn covers_input_within_budget() {
        let ds = charminar_with(5_000, 1);
        let h = build_grid(&ds, 100);
        assert!(h.num_buckets() <= 100);
        assert!((h.total_count() - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn accurate_on_uniform_data() {
        let ds = uniform_rects(20_000, R::new(0.0, 0.0, 1000.0, 1000.0), 4.0, 4.0, 2);
        let h = build_grid(&ds, 100);
        let q = R::new(130.0, 130.0, 580.0, 580.0);
        let actual = ds.count_intersecting(&q) as f64;
        let e = h.estimate_count(&q);
        assert!((e - actual).abs() / actual < 0.1, "est {e} vs {actual}");
    }

    #[test]
    fn minskew_beats_grid_on_skewed_data() {
        let ds = charminar_with(20_000, 3);
        let grid = build_grid(&ds, 50);
        let minskew = crate::MinSkewBuilder::new(50).regions(2_500).build(&ds);
        let queries: Vec<R> = (0..15)
            .map(|i| {
                let t = i as f64 * 600.0;
                R::new(t, t, t + 800.0, t + 800.0)
            })
            .collect();
        let err = |est: &dyn SpatialEstimator| {
            let mut num = 0.0;
            let mut den = 0.0;
            for q in &queries {
                let actual = ds.count_intersecting(q) as f64;
                num += (est.estimate_count(q) - actual).abs();
                den += actual;
            }
            num / den
        };
        assert!(
            err(&minskew) < err(&grid),
            "Min-Skew {} vs Grid {}",
            err(&minskew),
            err(&grid)
        );
    }

    #[test]
    fn empty_input() {
        let h = build_grid(&Dataset::new(vec![]), 10);
        assert_eq!(h.num_buckets(), 0);
    }
}

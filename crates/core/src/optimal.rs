//! Exact minimum-spatial-skew BSP by dynamic programming — the infeasible
//! baseline that motivates greedy Min-Skew.
//!
//! The paper (§4): "The best known algorithms for constructing BSPs use
//! dynamic programming and have a complexity of at least O(N^2.5) [MPS99]
//! and also require the input to be in memory. Clearly this is infeasible
//! for large GIS data." This module implements that exact algorithm over
//! the density grid, so the repository can *measure* the claim: how much
//! skew (and estimation accuracy) does the greedy heuristic give up, and at
//! what cost does optimality come?
//!
//! The DP is over rectangular cell blocks: `best(B, k)` is the minimum
//! total SSE achievable by partitioning block `B` into at most `k` buckets
//! with guillotine (BSP) cuts:
//!
//! ```text
//! best(B, 1) = SSE(B)
//! best(B, k) = min( SSE(B),
//!                   min over axis, position, k₁+k₂=k of
//!                       best(B₁, k₁) + best(B₂, k₂) )
//! ```
//!
//! A `g × g` grid has `O(g⁴)` blocks and each state scans `O(g·k)`
//! transitions, so the whole table costs `O(g⁵·β²)` — perfectly fine for
//! the small grids this baseline exists to be compared on (`g ≲ 16`), and
//! exactly why it cannot replace the greedy algorithm at the paper's
//! 10,000-region operating point.

use minskew_data::{CellBlock, Dataset, DensityGrid, GridPrefixSums};
use minskew_geom::Axis;

use crate::minskew::blocks_to_histogram;
use crate::{ExtensionRule, SpatialHistogram};

/// Upper bound on the DP state space (`side⁴ × (buckets + 1)`); beyond this
/// the exact baseline is infeasible and callers should use the greedy
/// algorithm instead.
const MAX_DP_STATES: usize = 64_000_000;

/// Result of an optimal-BSP construction.
#[derive(Debug)]
pub struct OptimalBsp {
    /// The histogram built from the optimal partitioning.
    pub histogram: SpatialHistogram,
    /// The partitioning's total spatial skew (Definition 4.1) — the DP's
    /// objective value, directly comparable to
    /// [`crate::MinSkewDetail::spatial_skew`].
    pub spatial_skew: f64,
}

/// Builds the *optimal* BSP histogram over a `side × side` density grid.
///
/// # Panics
///
/// Panics if `buckets == 0`, or if the state space
/// (`side⁴ × (buckets + 1)`) would exceed ~64 M entries — this algorithm is
/// a measurement baseline for small grids, not a production path; use
/// [`crate::MinSkewBuilder`] for real workloads.
pub fn build_optimal_bsp(data: &Dataset, buckets: usize, side: usize) -> OptimalBsp {
    assert!(buckets >= 1, "need at least one bucket");
    assert!(side >= 1, "need at least one grid cell per axis");
    if data.is_empty() {
        return OptimalBsp {
            histogram: SpatialHistogram::from_parts(
                "Optimal-BSP",
                vec![],
                0,
                ExtensionRule::default(),
            ),
            spatial_skew: 0.0,
        };
    }
    let mbr = data.stats().mbr;
    let (grid, centres) = DensityGrid::build_with_centres(data, mbr, side, side);
    let prefix = GridPrefixSums::from_grid(&grid);
    let solver = Solver::new(&grid, &prefix, buckets);
    let (skew, blocks) = solver.solve(grid.full_block());
    let histogram = blocks_to_histogram(
        "Optimal-BSP",
        data.len(),
        &grid,
        &centres,
        &blocks,
        ExtensionRule::default(),
    );
    OptimalBsp {
        histogram,
        spatial_skew: skew,
    }
}

/// Computes only the optimal achievable spatial skew (no data pass),
/// useful for optimality-gap studies against
/// [`crate::MinSkewDetail::spatial_skew`].
pub fn optimal_bsp_skew(grid: &DensityGrid, buckets: usize) -> f64 {
    assert!(buckets >= 1, "need at least one bucket");
    let prefix = GridPrefixSums::from_grid(grid);
    let solver = Solver::new(grid, &prefix, buckets);
    solver.best(grid.full_block(), buckets)
}

struct Solver<'a> {
    prefix: &'a GridPrefixSums,
    nx: usize,
    ny: usize,
    max_k: usize,
    /// `memo[block_id * (max_k + 1) + k]`; NaN = not yet computed.
    memo: std::cell::RefCell<Vec<f64>>,
}

impl<'a> Solver<'a> {
    fn new(grid: &DensityGrid, prefix: &'a GridPrefixSums, max_k: usize) -> Solver<'a> {
        let (nx, ny) = (grid.nx(), grid.ny());
        let states = nx * nx * ny * ny * (max_k + 1);
        assert!(
            states <= MAX_DP_STATES,
            "optimal BSP state space too large ({states}); this exact \
             baseline is for small grids — use MinSkewBuilder instead"
        );
        Solver {
            prefix,
            nx,
            ny,
            max_k,
            memo: std::cell::RefCell::new(vec![f64::NAN; states]),
        }
    }

    #[inline]
    fn state_id(&self, b: CellBlock, k: usize) -> usize {
        (((b.x0 * self.nx + b.x1) * self.ny + b.y0) * self.ny + b.y1) * (self.max_k + 1) + k
    }

    /// Minimum SSE for partitioning `b` into at most `k` buckets.
    fn best(&self, b: CellBlock, k: usize) -> f64 {
        debug_assert!(k >= 1);
        let id = self.state_id(b, k);
        {
            let memo = self.memo.borrow();
            if !memo[id].is_nan() {
                return memo[id];
            }
        }
        let unsplit = self.prefix.block_sse(&b);
        let mut result = unsplit;
        if k > 1 && !b.is_unit() && unsplit > 0.0 {
            for axis in Axis::BOTH {
                let (lo, hi) = match axis {
                    Axis::X => (b.x0, b.x1),
                    Axis::Y => (b.y0, b.y1),
                };
                for i in lo..hi {
                    let (l, r) = b.split_after(axis, i);
                    // Allocate buckets between the halves; `best` is
                    // non-increasing in k, so scanning all splits of k is
                    // required for optimality.
                    for k1 in 1..k {
                        let v = self.best(l, k1) + self.best(r, k - k1);
                        if v < result {
                            result = v;
                        }
                    }
                }
            }
        }
        self.memo.borrow_mut()[id] = result;
        result
    }

    /// Solves and reconstructs the optimal block set for the full budget.
    fn solve(&self, root: CellBlock) -> (f64, Vec<CellBlock>) {
        let total = self.best(root, self.max_k);
        let mut blocks = Vec::new();
        self.reconstruct(root, self.max_k, total, &mut blocks);
        (total, blocks)
    }

    /// Re-derives the argmin decisions (cheap: every sub-result is memoised).
    fn reconstruct(&self, b: CellBlock, k: usize, value: f64, out: &mut Vec<CellBlock>) {
        const EPS: f64 = 1e-7;
        if k > 1 && !b.is_unit() {
            for axis in Axis::BOTH {
                let (lo, hi) = match axis {
                    Axis::X => (b.x0, b.x1),
                    Axis::Y => (b.y0, b.y1),
                };
                for i in lo..hi {
                    let (l, r) = b.split_after(axis, i);
                    for k1 in 1..k {
                        let lv = self.best(l, k1);
                        let rv = self.best(r, k - k1);
                        if (lv + rv - value).abs() <= EPS * value.max(1.0)
                            && lv + rv < self.prefix.block_sse(&b) - EPS
                        {
                            self.reconstruct(l, k1, lv, out);
                            self.reconstruct(r, k - k1, rv, out);
                            return;
                        }
                    }
                }
            }
        }
        out.push(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MinSkewBuilder, SpatialEstimator};
    use minskew_datagen::charminar_with;
    use minskew_geom::Rect;

    #[test]
    fn optimal_never_worse_than_greedy_skew() {
        let ds = charminar_with(3_000, 1);
        for buckets in [2usize, 5, 10, 16] {
            let side = 10;
            let grid = DensityGrid::build(ds.rects().iter(), ds.stats().mbr, side, side);
            let optimal = optimal_bsp_skew(&grid, buckets);
            let (_, detail) = MinSkewBuilder::new(buckets)
                .regions(side * side)
                .build_detailed(&ds);
            assert!(
                optimal <= detail.spatial_skew + 1e-6,
                "buckets {buckets}: optimal {optimal} vs greedy {}",
                detail.spatial_skew
            );
        }
    }

    #[test]
    fn skew_non_increasing_in_buckets_and_zero_at_saturation() {
        let ds = charminar_with(2_000, 2);
        let side = 6;
        let grid = DensityGrid::build(ds.rects().iter(), ds.stats().mbr, side, side);
        let mut last = f64::INFINITY;
        for k in [1usize, 2, 4, 8, 16, 36] {
            let v = optimal_bsp_skew(&grid, k);
            assert!(v <= last + 1e-9, "k = {k}");
            last = v;
        }
        // Guillotine cuts reach every unit cell, so skew hits exactly zero
        // once k >= cells.
        assert_eq!(optimal_bsp_skew(&grid, side * side), 0.0);
    }

    #[test]
    fn reconstruction_matches_objective_and_tiles_grid() {
        let ds = charminar_with(2_500, 3);
        let result = build_optimal_bsp(&ds, 8, 8);
        // Recompute the skew from the emitted partition blocks: rebuild the
        // grid and sum SSEs via bucket MBRs? Instead verify the histogram's
        // mass and bounds, and the skew's consistency bound.
        assert!((result.histogram.total_count() - 2_500.0).abs() < 1e-9);
        assert!(result.spatial_skew >= 0.0);
        assert!(result.histogram.num_buckets() <= 8);
        // Buckets are disjoint (BSP) and lie within the data MBR.
        let bs = result.histogram.buckets();
        for (i, a) in bs.iter().enumerate() {
            assert!(ds.stats().mbr.contains_rect(&a.mbr));
            for b in &bs[i + 1..] {
                assert!(a.mbr.intersection_area(&b.mbr) < 1e-9);
            }
        }
    }

    #[test]
    fn hand_checkable_instance() {
        // 2x2 grid with cell densities [10, 0 / 0, 1] (10 rects of 0.2x0.2
        // at the bottom-left, one at the top-right).
        let mut rects = Vec::new();
        for i in 0..10 {
            let x = 1.0 + 0.01 * i as f64;
            rects.push(Rect::new(x, 1.0, x + 0.2, 1.2));
        }
        rects.push(Rect::new(9.0, 9.0, 9.2, 9.2));
        let ds = Dataset::new(rects);
        // k = 2: a single guillotine cut. Column split gives groups
        // {10, 0} and {0, 1}: SSE = 50 + 0.5 (row split is symmetric; the
        // unsplit grid has SSE = 10² + 1² − 11²/4 = 70.75). Optimal = 50.5.
        let result = build_optimal_bsp(&ds, 2, 2);
        assert!((result.spatial_skew - 50.5).abs() < 1e-9);
        // k = 3: isolate the dense cell entirely: 0 + 0 + SSE({0,1}) = 0.5.
        let grid = DensityGrid::build(ds.rects().iter(), ds.stats().mbr, 2, 2);
        assert!((optimal_bsp_skew(&grid, 3) - 0.5).abs() < 1e-9);
        // k = 4: every cell its own bucket: skew 0.
        assert_eq!(optimal_bsp_skew(&grid, 4), 0.0);
        // With 4 buckets the dense cluster's cell is its own bucket, so a
        // query covering that whole cell (and none of the top-right cell)
        // estimates exactly 10.
        let result4 = build_optimal_bsp(&ds, 4, 2);
        // Query reaching exactly the cell boundary (5.1) after Minkowski
        // extension (+0.1 from the 0.2-wide rects): covers the dense bucket
        // fully and overlaps the top-right bucket with zero area.
        let q = Rect::new(0.0, 0.0, 5.0, 5.0);
        assert!((result4.histogram.estimate_count(&q) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_close_to_greedy_on_small_grids() {
        let ds = charminar_with(6_000, 4);
        let buckets = 12;
        let side = 12;
        let optimal = build_optimal_bsp(&ds, buckets, side);
        let greedy = MinSkewBuilder::new(buckets).regions(side * side).build(&ds);
        let queries: Vec<Rect> = (0..20)
            .map(|i| {
                let t = i as f64 * 450.0;
                Rect::new(t, t, t + 1_200.0, t + 1_200.0)
            })
            .collect();
        let err = |h: &SpatialHistogram| {
            let mut num = 0.0;
            let mut den = 0.0;
            for q in &queries {
                let actual = ds.count_intersecting(q) as f64;
                num += (h.estimate_count(q) - actual).abs();
                den += actual;
            }
            num / den
        };
        let eo = err(&optimal.histogram);
        let eg = err(&greedy);
        // Optimality in skew does not guarantee lower error on any one
        // workload, but the two must be in the same league.
        assert!(
            eo < eg * 2.0 + 0.05,
            "optimal {eo} should not be far worse than greedy {eg}"
        );
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_state_space_rejected() {
        let ds = charminar_with(100, 5);
        build_optimal_bsp(&ds, 500, 64);
    }

    use minskew_data::Dataset;
}

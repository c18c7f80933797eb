//! 2-D prefix sums over a density grid: O(1) block aggregates.

use minskew_geom::Axis;

use crate::{CellBlock, DensityGrid};

/// Prefix-sum tables of cell density and squared density.
///
/// The spatial-skew objective of Min-Skew (Definition 4.1) weights each
/// bucket's density variance by its cell count:
/// `n·s = Σ d_j² − (Σ d_j)² / n`, the *sum of squared errors* (SSE) of the
/// bucket. With prefix sums of `d` and `d²`, the SSE of **any** rectangular
/// block of cells is a constant-time computation, which turns the greedy
/// split search into a linear scan of O(1) probes per candidate position.
#[derive(Debug, Clone)]
pub struct GridPrefixSums {
    nx: usize,
    ny: usize,
    /// `(nx + 1) × (ny + 1)` inclusive-exclusive prefix table of density.
    sum: Vec<f64>,
    /// Same layout, of squared density.
    sum2: Vec<f64>,
}

impl GridPrefixSums {
    /// Builds the tables from a density grid in O(nx · ny).
    pub fn from_grid(grid: &DensityGrid) -> GridPrefixSums {
        GridPrefixSums::from_densities(grid.densities(), grid.nx(), grid.ny())
    }

    /// Builds the tables from `nx × ny` row-major cell densities.
    fn from_densities(densities: &[u32], nx: usize, ny: usize) -> GridPrefixSums {
        let w = nx + 1;
        let mut sum = vec![0.0; w * (ny + 1)];
        let mut sum2 = vec![0.0; w * (ny + 1)];
        for (iy, row) in densities.chunks_exact(nx).enumerate() {
            let mut row_s = 0.0;
            let mut row_s2 = 0.0;
            for (ix, &d) in row.iter().enumerate() {
                let d = d as f64;
                row_s += d;
                row_s2 += d * d;
                let above = (iy) * w + (ix + 1);
                let here = (iy + 1) * w + (ix + 1);
                sum[here] = sum[above] + row_s;
                sum2[here] = sum2[above] + row_s2;
            }
        }
        GridPrefixSums { nx, ny, sum, sum2 }
    }

    /// Sum of densities over the block.
    #[inline]
    pub fn block_sum(&self, b: &CellBlock) -> f64 {
        self.rect_query(&self.sum, b)
    }

    /// Sum of squared densities over the block.
    #[inline]
    pub fn block_sum2(&self, b: &CellBlock) -> f64 {
        self.rect_query(&self.sum2, b)
    }

    /// Sum of squared errors of the block's densities around their mean:
    /// `Σ d_j² − (Σ d_j)² / n`.
    ///
    /// This equals `n_i × s_i` in the paper's Definition 4.1, so the total
    /// spatial-skew `S` of a partitioning is the sum of `block_sse` over its
    /// buckets. Clamped at zero to absorb floating-point cancellation.
    #[inline]
    pub fn block_sse(&self, b: &CellBlock) -> f64 {
        sse(self.block_sum(b), self.block_sum2(b), b.num_cells())
    }

    /// The block's best split under the exact 2-D criterion, as
    /// `(reduction, axis, index)`: cutting after cell `index` along `axis`
    /// (see [`CellBlock::split_after`]) lowers the SSE by `reduction =
    /// block_sse(block) − block_sse(lower) − block_sse(upper)`, the most of
    /// any cut. `None` for a single-cell block.
    ///
    /// X cuts are scanned before Y cuts, each in ascending order, and only
    /// a strictly greater reduction replaces the best so far, so ties go to
    /// X and then to the lowest index. The two prefix rows bounding the
    /// block, and their values in the block's bounding columns, are read
    /// once per block; each cut then reads two more values of each table.
    /// Every half is still summed with the same four terms in the same
    /// order as [`Self::block_sse`], so `reduction` is bit-identical to
    /// that expression.
    pub fn best_split(&self, block: &CellBlock) -> Option<(f64, Axis, usize)> {
        let w = self.nx + 1;
        // Exclusive ends, as in `rect_query`.
        let (x0, x1, y0, y1) = (block.x0, block.x1 + 1, block.y0, block.y1 + 1);
        let parent = self.block_sse(block);
        // One table's values at row `y` in the block's bounding columns.
        let row = |t: &[f64], y: usize| (t[y * w + x0], t[y * w + x1]);
        let (lo, hi) = (&self.sum[y0 * w..][..w], &self.sum[y1 * w..][..w]);
        let (lo2, hi2) = (&self.sum2[y0 * w..][..w], &self.sum2[y1 * w..][..w]);
        let ((lo_x0, lo_x1), (hi_x0, hi_x1)) = (row(&self.sum, y0), row(&self.sum, y1));
        let ((lo2_x0, lo2_x1), (hi2_x0, hi2_x1)) = (row(&self.sum2, y0), row(&self.sum2, y1));

        let mut best: Option<(f64, Axis, usize)> = None;
        let mut offer = |reduction: f64, axis: Axis, index: usize| {
            if best.is_none_or(|(r, _, _)| reduction > r) {
                best = Some((reduction, axis, index));
            }
        };
        // Cut at column line `c`: cells x0..c below, c..x1 above.
        let height = block.height();
        for c in x0 + 1..x1 {
            let (s_a, s_b) = (hi[c] - lo[c] - hi_x0 + lo_x0, hi_x1 - lo_x1 - hi[c] + lo[c]);
            let (s2_a, s2_b) = (
                hi2[c] - lo2[c] - hi2_x0 + lo2_x0,
                hi2_x1 - lo2_x1 - hi2[c] + lo2[c],
            );
            let reduction =
                parent - sse(s_a, s2_a, (c - x0) * height) - sse(s_b, s2_b, (x1 - c) * height);
            offer(reduction, Axis::X, c - 1);
        }
        // Cut at row line `r`: rows y0..r below, r..y1 above.
        let width = block.width();
        for r in y0 + 1..y1 {
            let ((m_x0, m_x1), (m2_x0, m2_x1)) = (row(&self.sum, r), row(&self.sum2, r));
            let (s_a, s_b) = (m_x1 - lo_x1 - m_x0 + lo_x0, hi_x1 - m_x1 - hi_x0 + m_x0);
            let (s2_a, s2_b) = (
                m2_x1 - lo2_x1 - m2_x0 + lo2_x0,
                hi2_x1 - m2_x1 - hi2_x0 + m2_x0,
            );
            let reduction =
                parent - sse(s_a, s2_a, width * (r - y0)) - sse(s_b, s2_b, width * (y1 - r));
            offer(reduction, Axis::Y, r - 1);
        }
        best
    }

    /// Sum of densities in column `ix`, rows `y0..=y1`.
    #[inline]
    pub fn column_sum(&self, ix: usize, y0: usize, y1: usize) -> f64 {
        self.block_sum(&CellBlock::new(ix, ix, y0, y1))
    }

    /// Sum of densities in row `iy`, columns `x0..=x1`.
    #[inline]
    pub fn row_sum(&self, iy: usize, x0: usize, x1: usize) -> f64 {
        self.block_sum(&CellBlock::new(x0, x1, iy, iy))
    }

    #[inline]
    fn rect_query(&self, table: &[f64], b: &CellBlock) -> f64 {
        debug_assert!(b.x1 < self.nx && b.y1 < self.ny, "block outside grid");
        let w = self.nx + 1;
        let (x0, x1, y0, y1) = (b.x0, b.x1 + 1, b.y0, b.y1 + 1);
        table[y1 * w + x1] - table[y0 * w + x1] - table[y1 * w + x0] + table[y0 * w + x0]
    }
}

/// SSE of `cells` densities from their sum `s` and sum of squares `s2`,
/// clamped at zero.
#[inline]
fn sse(s: f64, s2: f64, cells: usize) -> f64 {
    (s2 - s * s / cells as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_geom::Rect;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    /// Builds a grid whose densities are exactly `vals` (row-major),
    /// by placing `vals[i]` unit rects inside cell `i`.
    fn grid_from(vals: &[u32], nx: usize, ny: usize) -> DensityGrid {
        let bounds = Rect::new(0.0, 0.0, nx as f64, ny as f64);
        let mut rects = Vec::new();
        for iy in 0..ny {
            for ix in 0..nx {
                for _ in 0..vals[iy * nx + ix] {
                    let cx = ix as f64 + 0.5;
                    let cy = iy as f64 + 0.5;
                    rects.push(Rect::new(cx - 0.1, cy - 0.1, cx + 0.1, cy + 0.1));
                }
            }
        }
        let g = DensityGrid::build(rects.iter(), bounds, nx, ny);
        assert_eq!(g.densities(), vals);
        g
    }

    fn naive_sse(vals: &[f64]) -> f64 {
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        vals.iter().map(|v| (v - mean) * (v - mean)).sum()
    }

    #[test]
    fn block_aggregates_match_hand_computation() {
        #[rustfmt::skip]
        let vals = [
            1, 2, 3,
            4, 5, 6,
            7, 8, 9,
        ];
        let g = grid_from(&vals, 3, 3);
        let p = GridPrefixSums::from_grid(&g);
        let full = g.full_block();
        assert_eq!(p.block_sum(&full), 45.0);
        assert_eq!(p.block_sum2(&full), 285.0);
        // SSE of 1..9 around mean 5 = 60.
        assert!((p.block_sse(&full) - 60.0).abs() < 1e-9);
        // Sub-block: top-right 2x2 = [5, 6, 8, 9].
        let b = CellBlock::new(1, 2, 1, 2);
        assert_eq!(p.block_sum(&b), 28.0);
        assert_eq!(p.block_sum2(&b), 25.0 + 36.0 + 64.0 + 81.0);
        assert!((p.block_sse(&b) - naive_sse(&[5.0, 6.0, 8.0, 9.0])).abs() < 1e-9);
        // Row / column helpers.
        assert_eq!(p.row_sum(0, 0, 2), 6.0);
        assert_eq!(p.column_sum(2, 0, 2), 3.0 + 6.0 + 9.0);
    }

    #[test]
    fn uniform_block_has_zero_sse() {
        let vals = vec![7u32; 12];
        let g = grid_from(&vals, 4, 3);
        let p = GridPrefixSums::from_grid(&g);
        assert_eq!(p.block_sse(&g.full_block()), 0.0);
    }

    #[test]
    fn sse_is_additive_lower_bound_under_splits() {
        // Splitting never increases total SSE (variance decomposition).
        #[rustfmt::skip]
        let vals = [
            0, 0, 9, 9,
            0, 0, 9, 9,
        ];
        let g = grid_from(&vals, 4, 2);
        let p = GridPrefixSums::from_grid(&g);
        let full = g.full_block();
        let (l, r) = full.split_after(minskew_geom::Axis::X, 1);
        assert!(p.block_sse(&l) + p.block_sse(&r) <= p.block_sse(&full) + 1e-9);
        // The perfect split separates the two uniform halves entirely.
        assert_eq!(p.block_sse(&l), 0.0);
        assert_eq!(p.block_sse(&r), 0.0);
        assert!(p.block_sse(&full) > 0.0);
    }

    /// The best cut by definition: every cut scored as `parent −
    /// block_sse(lower) − block_sse(upper)`, X before Y, ascending, first
    /// strict maximum.
    fn best_split_by_definition(p: &GridPrefixSums, b: &CellBlock) -> Option<(u64, Axis, usize)> {
        let parent = p.block_sse(b);
        let mut best: Option<(f64, Axis, usize)> = None;
        for axis in Axis::BOTH {
            let (lo, hi) = match axis {
                Axis::X => (b.x0, b.x1),
                Axis::Y => (b.y0, b.y1),
            };
            for i in lo..hi {
                let (l, u) = b.split_after(axis, i);
                let reduction = parent - p.block_sse(&l) - p.block_sse(&u);
                if best.is_none_or(|(r, _, _)| reduction > r) {
                    best = Some((reduction, axis, i));
                }
            }
        }
        best.map(|(r, axis, i)| (r.to_bits(), axis, i))
    }

    #[test]
    fn best_split_is_bit_identical_to_block_sse_scoring() {
        // Pseudo-random densities from a fixed xorshift stream, small ones
        // and ones across the whole `u32` range, whose squares and sums
        // round (so any reordering of the prefix terms shows); degenerate
        // one-column and one-row grids; and a flat grid where every cut
        // ties at zero.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |max: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % max) as u32
        };
        let mut grids: Vec<(usize, usize, Vec<u32>)> = Vec::new();
        for max in [300, 1 << 32] {
            for (nx, ny) in [(7, 5), (1, 6), (6, 1), (4, 4)] {
                grids.push((nx, ny, (0..nx * ny).map(|_| next(max)).collect()));
            }
        }
        grids.push((4, 3, vec![7; 12]));
        for (nx, ny, vals) in grids {
            let p = GridPrefixSums::from_densities(&vals, nx, ny);
            for (x0, y0) in (0..nx).flat_map(|x| (0..ny).map(move |y| (x, y))) {
                for (x1, y1) in (x0..nx).flat_map(|x| (y0..ny).map(move |y| (x, y))) {
                    let b = CellBlock::new(x0, x1, y0, y1);
                    let got = p.best_split(&b).map(|(r, axis, i)| (r.to_bits(), axis, i));
                    assert_eq!(got, best_split_by_definition(&p, &b), "{nx}x{ny} {b:?}");
                    assert_eq!(got.is_none(), b.is_unit());
                }
            }
        }
    }

    #[cfg(feature = "proptest")]
    proptest! {
        #[test]
        fn prop_prefix_matches_naive(
            vals in proptest::collection::vec(0u32..20, 24),
            xa in 0usize..6, xb in 0usize..6,
            ya in 0usize..4, yb in 0usize..4,
        ) {
            let (nx, ny) = (6, 4);
            let g = grid_from(&vals, nx, ny);
            let p = GridPrefixSums::from_grid(&g);
            // Any in-range corner pair, including 1-cell and 1-row/column
            // degenerate blocks.
            let (x0, x1) = (xa.min(xb), xa.max(xb));
            let (y0, y1) = (ya.min(yb), ya.max(yb));
            let b = CellBlock::new(x0, x1, y0, y1);
            let mut cells = Vec::new();
            for iy in y0..=y1 {
                for ix in x0..=x1 {
                    cells.push(vals[iy * nx + ix] as f64);
                }
            }
            let sum: f64 = cells.iter().sum();
            let sum2: f64 = cells.iter().map(|v| v * v).sum();
            prop_assert!((p.block_sum(&b) - sum).abs() < 1e-9);
            prop_assert!((p.block_sum2(&b) - sum2).abs() < 1e-9);
            prop_assert!((p.block_sse(&b) - naive_sse(&cells)).abs() < 1e-6);
        }

        /// Every block's aggregates must agree with naive summation — the
        /// random-corner case above plus an exhaustive sweep of all
        /// O(nx²·ny²) blocks of one random grid per case.
        #[test]
        fn prop_prefix_matches_naive_all_blocks(
            vals in proptest::collection::vec(0u32..50, 12),
        ) {
            let (nx, ny) = (4, 3);
            let g = grid_from(&vals, nx, ny);
            let p = GridPrefixSums::from_grid(&g);
            for x0 in 0..nx {
                for x1 in x0..nx {
                    for y0 in 0..ny {
                        for y1 in y0..ny {
                            let b = CellBlock::new(x0, x1, y0, y1);
                            let mut sum = 0.0;
                            let mut sum2 = 0.0;
                            for iy in y0..=y1 {
                                for ix in x0..=x1 {
                                    let d = vals[iy * nx + ix] as f64;
                                    sum += d;
                                    sum2 += d * d;
                                }
                            }
                            prop_assert!((p.block_sum(&b) - sum).abs() < 1e-9);
                            prop_assert!((p.block_sum2(&b) - sum2).abs() < 1e-9);
                        }
                    }
                }
            }
        }
    }
}

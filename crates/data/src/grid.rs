//! Uniform density grids: the compact input approximation Min-Skew consumes.

use minskew_geom::{Axis, Point, Rect};

use crate::RectSource;

/// A uniform grid of rectangular regions over a bounding rectangle, each
/// region annotated with its *spatial density*: the number of input
/// rectangles intersecting it (§4 of the paper).
///
/// The grid is the heuristic that makes good BSP construction tractable: it
/// replaces the raw input (which may not fit in memory) with `nx × ny`
/// counters obtained in a **single sweep** of the data.
///
/// Cells are indexed `(ix, iy)` with `ix ∈ [0, nx)` left-to-right and
/// `iy ∈ [0, ny)` bottom-to-top; storage is row-major by `iy`. For counting
/// purposes cells behave half-open (`[x0, x1) × [y0, y1)`, closed on the top
/// and right boundary of the grid), so every point of the bounded domain
/// belongs to exactly one cell.
#[derive(Debug, Clone)]
pub struct DensityGrid {
    layout: Layout,
    density: Vec<u32>,
}

/// The cells of a grid: its bounds, dimensions and cell size, and the one
/// value→cell map that every grid over them counts through.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Layout {
    bounds: Rect,
    nx: usize,
    ny: usize,
    cell_w: f64,
    cell_h: f64,
}

impl Layout {
    /// An `nx × ny` layout over `bounds`. A degenerate bounds axis
    /// collapses that axis to a single cell: every datum shares the one
    /// coordinate, so finer resolution is meaningless (and would divide by
    /// zero).
    fn new(bounds: Rect, nx: usize, ny: usize) -> Layout {
        assert!(
            nx > 0 && ny > 0,
            "grid must have at least one cell per axis"
        );
        let nx = if bounds.width() == 0.0 { 1 } else { nx };
        let ny = if bounds.height() == 0.0 { 1 } else { ny };
        Layout {
            bounds,
            nx,
            ny,
            cell_w: bounds.width() / nx as f64,
            cell_h: bounds.height() / ny as f64,
        }
    }

    fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    #[inline]
    fn index_1d(&self, v: f64, axis: Axis) -> usize {
        let (lo, cell, n) = match axis {
            Axis::X => (self.bounds.lo.x, self.cell_w, self.nx),
            Axis::Y => (self.bounds.lo.y, self.cell_h, self.ny),
        };
        if cell == 0.0 {
            return 0;
        }
        // No `floor`: `as usize` truncates a quotient ≥ 0 exactly as
        // `floor` would, (−1, 0) and −∞ take the `< 0` branch either way,
        // and `-0.0` and NaN cast to 0. The division stays: a reciprocal
        // multiply can round across a cell boundary.
        let q = (v - lo) / cell;
        if q < 0.0 {
            0
        } else {
            (q as usize).min(n - 1)
        }
    }
}

impl DensityGrid {
    /// Builds an `nx × ny` density grid over `bounds` in one pass over
    /// `rects` (owned or borrowed — the sweep works equally over an
    /// in-memory slice or a streaming [`crate::RectSource`] scan).
    /// Rectangles entirely outside `bounds` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `nx == 0 || ny == 0`.
    pub fn build<I, B>(rects: I, bounds: Rect, nx: usize, ny: usize) -> DensityGrid
    where
        I: IntoIterator<Item = B>,
        B: std::borrow::Borrow<Rect>,
    {
        let layout = Layout::new(bounds, nx, ny);
        let mut grid = DensityGrid {
            layout,
            density: vec![0; layout.num_cells()],
        };
        for r in rects {
            grid.count(r.borrow(), 1);
        }
        grid
    }

    /// Builds the `nx × ny` density grid over `bounds` that
    /// [`DensityGrid::build`] makes over `source`, sweeping it a slice at a
    /// time through [`RectSource::for_each_run`].
    ///
    /// # Panics
    ///
    /// Panics if `nx == 0 || ny == 0`.
    pub fn from_source<S: RectSource + ?Sized>(
        source: &S,
        bounds: Rect,
        nx: usize,
        ny: usize,
    ) -> DensityGrid {
        let mut grid = DensityGrid::build(std::iter::empty::<Rect>(), bounds, nx, ny);
        source.for_each_run(&mut |run| {
            for r in run {
                grid.count(r, 1);
            }
        });
        grid
    }

    /// Builds the grid of [`DensityGrid::from_source`], and in the same
    /// sweep of `source` the [`CentreSums`] over the same cells.
    ///
    /// # Panics
    ///
    /// Panics if `nx == 0 || ny == 0`.
    pub fn build_with_centres<S: RectSource + ?Sized>(
        source: &S,
        bounds: Rect,
        nx: usize,
        ny: usize,
    ) -> (DensityGrid, CentreSums) {
        let mut grid = DensityGrid::build(std::iter::empty::<Rect>(), bounds, nx, ny);
        let mut centres = CentreSums::new(grid.layout);
        source.for_each_run(&mut |run| {
            for r in run {
                grid.count(r, 1);
                centres.count(r, 1);
            }
        });
        (grid, centres)
    }

    /// Adds `delta` to every cell that `r` intersects. A rect outside the
    /// bounds touches nothing; the rest is clamped into range. This is the
    /// one mapping from a rect to its cells: the build and
    /// [`GridSet::patch`] both count through it, which is what makes a
    /// patched grid equal a fresh build.
    fn count(&mut self, r: &Rect, delta: i32) {
        if !self.layout.bounds.intersects(r) {
            return;
        }
        let (ix0, ix1) = self.axis_range(r, Axis::X);
        let (iy0, iy1) = self.axis_range(r, Axis::Y);
        for iy in iy0..=iy1 {
            let row = iy * self.layout.nx;
            for d in &mut self.density[row + ix0..=row + ix1] {
                *d = d.wrapping_add_signed(delta);
            }
        }
    }

    /// Builds a roughly square grid with approximately `regions` cells
    /// (the paper parameterises Min-Skew by the *number of regions*, e.g.
    /// 10 000 regions = a 100 × 100 grid).
    pub fn with_regions<I, B>(rects: I, bounds: Rect, regions: usize) -> DensityGrid
    where
        I: IntoIterator<Item = B>,
        B: std::borrow::Borrow<Rect>,
    {
        let side = (regions.max(1) as f64).sqrt().round().max(1.0) as usize;
        DensityGrid::build(rects, bounds, side, side)
    }

    /// Number of columns.
    #[inline]
    pub fn nx(&self) -> usize {
        self.layout.nx
    }

    /// Number of rows.
    #[inline]
    pub fn ny(&self) -> usize {
        self.layout.ny
    }

    /// Total number of regions (`nx * ny`).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.layout.num_cells()
    }

    /// The gridded domain.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.layout.bounds
    }

    /// Density of cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn density(&self, ix: usize, iy: usize) -> u32 {
        assert!(ix < self.nx() && iy < self.ny(), "cell index out of range");
        self.density[iy * self.nx() + ix]
    }

    /// Row-major (`iy * nx + ix`) view of all cell densities.
    #[inline]
    pub fn densities(&self) -> &[u32] {
        &self.density
    }

    /// The cell containing point `p`, clamped into the grid.
    ///
    /// Points outside `bounds` map to the nearest boundary cell; callers that
    /// care should test containment first.
    #[inline]
    pub fn cell_containing(&self, p: Point) -> (usize, usize) {
        (
            self.layout.index_1d(p.x, Axis::X),
            self.layout.index_1d(p.y, Axis::Y),
        )
    }

    /// The geometric region of cell `(ix, iy)`.
    pub fn cell_rect(&self, ix: usize, iy: usize) -> Rect {
        let Layout {
            bounds,
            nx,
            ny,
            cell_w,
            cell_h,
        } = self.layout;
        assert!(ix < nx && iy < ny, "cell index out of range");
        let x0 = bounds.lo.x + ix as f64 * cell_w;
        let y0 = bounds.lo.y + iy as f64 * cell_h;
        // Snap the outermost edges exactly onto the bounds to avoid float
        // drift leaving slivers at the domain boundary.
        let x1 = if ix + 1 == nx {
            bounds.hi.x
        } else {
            x0 + cell_w
        };
        let y1 = if iy + 1 == ny {
            bounds.hi.y
        } else {
            y0 + cell_h
        };
        Rect::new(x0, y0, x1, y1)
    }

    /// The geometric region covered by a [`CellBlock`].
    pub fn block_rect(&self, b: &CellBlock) -> Rect {
        let lo = self.cell_rect(b.x0, b.y0);
        let hi = self.cell_rect(b.x1, b.y1);
        Rect::new(lo.lo.x, lo.lo.y, hi.hi.x, hi.hi.y)
    }

    /// The block spanning the whole grid.
    pub fn full_block(&self) -> CellBlock {
        CellBlock {
            x0: 0,
            x1: self.nx() - 1,
            y0: 0,
            y1: self.ny() - 1,
        }
    }

    /// Inclusive range of cell indices a rectangle overlaps along `axis`,
    /// clamped into the grid.
    pub fn axis_range(&self, r: &Rect, axis: Axis) -> (usize, usize) {
        let l = &self.layout;
        match axis {
            Axis::X => (l.index_1d(r.lo.x, axis), l.index_1d(r.hi.x, axis)),
            Axis::Y => (l.index_1d(r.lo.y, axis), l.index_1d(r.hi.y, axis)),
        }
    }
}

/// Per-cell sums over the rects whose centre lies in each cell of a grid:
/// how many, and their summed widths and heights. A Min-Skew bucket is a
/// block of cells, so its count and average width and height are sums of
/// these over its cells, with no sweep of the rects.
///
/// The widths and heights are summed in fixed point, as `i128` multiples
/// of `1 / scale`. Integer sums are exact and do not depend on the order
/// of the rects, so a grid that writes patch ([`GridSet::patch`]) equals a
/// fresh [`DensityGrid::build_with_centres`] bit for bit. Each axis's
/// `scale` is the power of two that puts every width up to the bounds'
/// extent below 2^94, so the sum of 2^32 rects stays below `i128::MAX`.
/// A rect's centre maps to its cell as in [`DensityGrid::cell_containing`],
/// clamped into the grid, and all arithmetic wraps, so an insert and a
/// delete of the same rect cancel exactly even when it lies outside the
/// bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct CentreSums {
    layout: Layout,
    /// The fixed-point scale of widths and of heights, each as two
    /// factors ([`fixed_scale`]).
    scale: [[f64; 2]; 2],
    count: Vec<u32>,
    /// Each cell's width and height sums, side by side so that a block's
    /// fold reads one array per row of cells besides the counts.
    sums: Vec<[i128; 2]>,
}

/// Bits of the largest fixed-point term: a width equal to the bounds'
/// extent maps below `2^TERM_BITS`, which leaves 33 bits of headroom in
/// an `i128` sum.
const TERM_BITS: i32 = 94;

impl CentreSums {
    fn new(layout: Layout) -> CentreSums {
        let cells = layout.num_cells();
        CentreSums {
            layout,
            scale: [
                fixed_scale(layout.bounds.width()),
                fixed_scale(layout.bounds.height()),
            ],
            count: vec![0; cells],
            sums: vec![[0; 2]; cells],
        }
    }

    /// Adds `delta` (`1` or `-1`) copies of `r` to the cell holding its
    /// centre.
    fn count(&mut self, r: &Rect, delta: i32) {
        let (l, p) = (&self.layout, r.center());
        let c = l.index_1d(p.y, Axis::Y) * l.nx + l.index_1d(p.x, Axis::X);
        let w = to_fixed(r.width(), self.scale[0]);
        let h = to_fixed(r.height(), self.scale[1]);
        self.count[c] = self.count[c].wrapping_add_signed(delta);
        let [sw, sh] = &mut self.sums[c];
        if delta > 0 {
            *sw = sw.wrapping_add(w);
            *sh = sh.wrapping_add(h);
        } else {
            *sw = sw.wrapping_sub(w);
            *sh = sh.wrapping_sub(h);
        }
    }

    /// The rects centred in `block`: their number, and their summed widths
    /// and heights, each rounded once from the exact fixed-point sum.
    pub fn block(&self, block: &CellBlock) -> (u64, f64, f64) {
        let (mut n, mut w, mut h) = (0u64, 0i128, 0i128);
        let nx = self.layout.nx;
        for iy in block.y0..=block.y1 {
            let cells = iy * nx + block.x0..iy * nx + block.x1 + 1;
            for (&c, &[cw, ch]) in self.count[cells.clone()].iter().zip(&self.sums[cells]) {
                n += u64::from(c);
                w = w.wrapping_add(cw);
                h = h.wrapping_add(ch);
            }
        }
        (
            n,
            from_fixed(w, self.scale[0]),
            from_fixed(h, self.scale[1]),
        )
    }
}

/// The fixed-point scale of an axis of the given extent: the power of two
/// `2^(TERM_BITS - 1 - e)`, where `2^e <= extent < 2^(e + 1)`, so that
/// `extent * scale < 2^TERM_BITS` and the extent keeps `TERM_BITS - 1`
/// bits. A zero or non-finite extent takes `e = 0`. The scale is returned
/// as two powers of two of the same direction whose product it is: for
/// the tiniest extents it is past the largest `f64`, while each factor
/// stays a normal `f64`, so scaling by them in turn is exact.
fn fixed_scale(extent: f64) -> [f64; 2] {
    let e = if extent.is_finite() && extent > 0.0 {
        let bits = extent.to_bits();
        match ((bits >> 52) & 0x7ff) as i32 {
            // Subnormal: the value is the significand times 2^-1074.
            0 => -1074 + 63 - bits.leading_zeros() as i32,
            biased => biased - 1023,
        }
    } else {
        0
    };
    let k = TERM_BITS - 1 - e;
    let pow2 = |k: i32| f64::from_bits(((k + 1023) as u64) << 52);
    [pow2(k / 2), pow2(k - k / 2)]
}

/// `v` in fixed point at `scale`, truncated toward zero.
#[inline]
fn to_fixed(v: f64, scale: [f64; 2]) -> i128 {
    (v * scale[0] * scale[1]) as i128
}

/// A fixed-point sum at `scale` as an `f64`, rounded once (a subnormal
/// result, from subnormal widths, is rounded again).
#[inline]
fn from_fixed(sum: i128, scale: [f64; 2]) -> f64 {
    sum as f64 / scale[0] / scale[1]
}

/// Density grids kept up to date under writes, so that a rebuild over the
/// same bounds can be skipped.
///
/// A cell's density counts the rects that intersect it, which does not
/// depend on the order of the rects. So adding each inserted rect's
/// footprint and subtracting each deleted one's keeps every held grid equal,
/// bit for bit, to a fresh [`DensityGrid::build`] over the live rects with
/// the same bounds and dimensions. Rects outside a grid's bounds touch none
/// of its cells, exactly as in `build`, so they may come and go freely.
/// The set also holds one [`CentreSums`], the final phase's, which writes
/// patch the same way.
///
/// A grid is keyed by the dimensions it was requested at and by its bounds
/// compared bit for bit (`-0.0` and `0.0` differ). A Min-Skew build takes
/// each refinement phase's grid from the set, or builds and stores it.
#[derive(Debug, Clone, Default)]
pub struct GridSet {
    grids: Vec<(GridKey, DensityGrid)>,
    centres: Option<(GridKey, CentreSums)>,
}

/// The requested dimensions and bit-exact bounds a held grid matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GridKey {
    nx: usize,
    ny: usize,
    bounds: [u64; 4],
}

impl GridKey {
    fn new(bounds: Rect, nx: usize, ny: usize) -> GridKey {
        GridKey {
            nx,
            ny,
            bounds: [bounds.lo.x, bounds.lo.y, bounds.hi.x, bounds.hi.y].map(f64::to_bits),
        }
    }
}

impl GridSet {
    /// Removes and returns the grid that `DensityGrid::build(_, bounds, nx,
    /// ny)` would build, if one is held.
    pub fn take(&mut self, bounds: Rect, nx: usize, ny: usize) -> Option<DensityGrid> {
        let key = GridKey::new(bounds, nx, ny);
        let i = self.grids.iter().position(|(k, _)| *k == key)?;
        Some(self.grids.swap_remove(i).1)
    }

    /// Holds `grid`, which was built at the requested `nx × ny`.
    pub fn insert(&mut self, nx: usize, ny: usize, grid: DensityGrid) {
        self.grids.push((GridKey::new(grid.bounds(), nx, ny), grid));
    }

    /// Removes and returns the centre sums that
    /// [`DensityGrid::build_with_centres`] would build over `bounds` at the
    /// requested `nx × ny`, if they are held.
    pub fn take_centres(&mut self, bounds: Rect, nx: usize, ny: usize) -> Option<CentreSums> {
        let key = GridKey::new(bounds, nx, ny);
        match self.centres.take() {
            Some((k, centres)) if k == key => Some(centres),
            held => {
                self.centres = held;
                None
            }
        }
    }

    /// Holds `centres`, which were built at the requested `nx × ny`, in
    /// place of any held before.
    pub fn insert_centres(&mut self, nx: usize, ny: usize, centres: CentreSums) {
        let key = GridKey::new(centres.layout.bounds, nx, ny);
        self.centres = Some((key, centres));
    }

    /// Adds `delta` (`1` for an insert, `-1` for a delete) to every cell
    /// of every held grid that `rect` intersects, and to the held centre
    /// sums.
    pub fn patch(&mut self, rect: &Rect, delta: i32) {
        for (_, grid) in &mut self.grids {
            grid.count(rect, delta);
        }
        if let Some((_, centres)) = &mut self.centres {
            centres.count(rect, delta);
        }
    }
}

/// An inclusive rectangular range of grid cells: `[x0, x1] × [y0, y1]`.
///
/// A BSP over the grid represents each bucket as one `CellBlock`; splits
/// happen on cell boundaries via [`CellBlock::split_after`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellBlock {
    /// First column (inclusive).
    pub x0: usize,
    /// Last column (inclusive).
    pub x1: usize,
    /// First row (inclusive).
    pub y0: usize,
    /// Last row (inclusive).
    pub y1: usize,
}

impl CellBlock {
    /// Creates a block; asserts `x0 <= x1 && y0 <= y1`.
    pub fn new(x0: usize, x1: usize, y0: usize, y1: usize) -> CellBlock {
        assert!(x0 <= x1 && y0 <= y1, "inverted cell block");
        CellBlock { x0, x1, y0, y1 }
    }

    /// Number of columns spanned.
    #[inline]
    pub fn width(&self) -> usize {
        self.x1 - self.x0 + 1
    }

    /// Number of rows spanned.
    #[inline]
    pub fn height(&self) -> usize {
        self.y1 - self.y0 + 1
    }

    /// Number of cells contained.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.width() * self.height()
    }

    /// Extent along `axis`, in cells.
    #[inline]
    pub fn len(&self, axis: Axis) -> usize {
        match axis {
            Axis::X => self.width(),
            Axis::Y => self.height(),
        }
    }

    /// Returns `true` if the block is a single cell (cannot be split).
    #[inline]
    pub fn is_unit(&self) -> bool {
        self.num_cells() == 1
    }

    /// Splits the block perpendicular to `axis` *after* index `i`
    /// (so the lower half ends at `i` and the upper half starts at `i + 1`).
    ///
    /// # Panics
    ///
    /// Panics unless `i` lies strictly inside the block's extent
    /// (`x0 <= i < x1`, resp. `y0 <= i < y1`), i.e. both halves are
    /// non-empty.
    pub fn split_after(&self, axis: Axis, i: usize) -> (CellBlock, CellBlock) {
        match axis {
            Axis::X => {
                assert!(self.x0 <= i && i < self.x1, "split index outside block");
                (
                    CellBlock { x1: i, ..*self },
                    CellBlock { x0: i + 1, ..*self },
                )
            }
            Axis::Y => {
                assert!(self.y0 <= i && i < self.y1, "split index outside block");
                (
                    CellBlock { y1: i, ..*self },
                    CellBlock { y0: i + 1, ..*self },
                )
            }
        }
    }

    /// Returns `true` if cell `(ix, iy)` lies in the block.
    #[inline]
    pub fn contains_cell(&self, ix: usize, iy: usize) -> bool {
        ix >= self.x0 && ix <= self.x1 && iy >= self.y0 && iy <= self.y1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "proptest")]
    use proptest::prelude::*;

    fn unit_bounds() -> Rect {
        Rect::new(0.0, 0.0, 10.0, 10.0)
    }

    #[test]
    fn single_rect_density_footprint() {
        let r = [Rect::new(2.5, 2.5, 7.5, 4.5)];
        let g = DensityGrid::build(r.iter(), unit_bounds(), 4, 4);
        // Covers x cells 1..=3 (2.5..7.5 over cell width 2.5) and y cells 1..=1.
        let mut expected = vec![0u32; 16];
        for ix in 1..=3 {
            expected[4 + ix] = 1; // iy = 1 row
        }
        assert_eq!(g.densities(), expected.as_slice());
    }

    #[test]
    fn density_counts_intersections_not_centers() {
        // One big rect spanning everything: every cell has density 1.
        let r = [unit_bounds()];
        let g = DensityGrid::build(r.iter(), unit_bounds(), 3, 3);
        assert!(g.densities().iter().all(|&d| d == 1));
        assert_eq!(g.num_cells(), 9);
    }

    #[test]
    fn with_regions_builds_square_grid() {
        let r = [unit_bounds()];
        let g = DensityGrid::with_regions(r.iter(), unit_bounds(), 10_000);
        assert_eq!((g.nx(), g.ny()), (100, 100));
        let g = DensityGrid::with_regions(r.iter(), unit_bounds(), 1);
        assert_eq!((g.nx(), g.ny()), (1, 1));
    }

    #[test]
    fn out_of_bounds_rects_ignored() {
        let r = [Rect::new(20.0, 20.0, 30.0, 30.0)];
        let g = DensityGrid::build(r.iter(), unit_bounds(), 2, 2);
        assert!(g.densities().iter().all(|&d| d == 0));
    }

    #[test]
    fn boundary_points_clamp_into_grid() {
        let g = DensityGrid::build(std::iter::empty::<&Rect>(), unit_bounds(), 4, 4);
        assert_eq!(g.cell_containing(Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.cell_containing(Point::new(10.0, 10.0)), (3, 3));
        assert_eq!(g.cell_containing(Point::new(-5.0, 12.0)), (0, 3));
        assert_eq!(g.cell_containing(Point::new(2.5, 2.5)), (1, 1));
    }

    #[test]
    fn cell_map_equals_the_floor_form_on_adversarial_values() {
        // The adjacent floats of a finite `v` (`f64::next_up` is newer
        // than the workspace's minimum Rust).
        fn next_up(v: f64) -> f64 {
            if v == 0.0 {
                return f64::from_bits(1);
            }
            let b = v.to_bits();
            f64::from_bits(if v > 0.0 { b + 1 } else { b - 1 })
        }
        fn next_down(v: f64) -> f64 {
            -next_up(-v)
        }
        // The mapping before the `floor` call was dropped, as the oracle.
        fn floor_index(v: f64, lo: f64, cell: f64, n: usize) -> usize {
            if cell == 0.0 {
                return 0;
            }
            let idx = ((v - lo) / cell).floor();
            if idx < 0.0 {
                0
            } else {
                (idx as usize).min(n - 1)
            }
        }
        // An awkward origin and cell width, so boundaries are inexact, over
        // a zero-height y axis; and an origin at 0, where `v = -0.0` makes
        // the quotient `-0.0`.
        for bounds in [
            Rect::new(-3.7, 0.1, 96.3, 0.1),
            Rect::new(0.0, 0.0, 10.0, 1e-3),
        ] {
            let g = DensityGrid::build(std::iter::empty::<&Rect>(), bounds, 7, 5);
            let mut values = vec![
                -0.0,
                0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e300,
                -1e300,
            ];
            for (axis, lo, hi, cell, n) in [
                (Axis::X, bounds.lo.x, bounds.hi.x, g.layout.cell_w, g.nx()),
                (Axis::Y, bounds.lo.y, bounds.hi.y, g.layout.cell_h, g.ny()),
            ] {
                values.extend([lo - 1.0, lo - cell * 0.5, hi + 1.0, hi + cell * 3.0]);
                for k in -2..=9 {
                    let edge = lo + k as f64 * cell;
                    values.extend([edge, next_up(edge), next_down(edge)]);
                }
                for v in [lo, hi] {
                    values.extend([v, next_up(v), next_down(v)]);
                }
                for &v in &values {
                    assert_eq!(
                        g.layout.index_1d(v, axis),
                        floor_index(v, lo, cell, n),
                        "{axis:?} = {v:e} over {bounds}"
                    );
                }
            }
        }
        // The zero-height axis collapsed to one cell of width 0.
        let g = DensityGrid::build(
            std::iter::empty::<&Rect>(),
            Rect::new(-3.7, 0.1, 96.3, 0.1),
            7,
            5,
        );
        assert_eq!((g.ny(), g.layout.cell_h), (1, 0.0));
    }

    #[test]
    fn cell_rects_tile_bounds() {
        let g = DensityGrid::build(
            std::iter::empty::<&Rect>(),
            Rect::new(1.0, 2.0, 11.0, 8.0),
            5,
            3,
        );
        let mut area = 0.0;
        for iy in 0..3 {
            for ix in 0..5 {
                area += g.cell_rect(ix, iy).area();
            }
        }
        assert!((area - g.bounds().area()).abs() < 1e-9);
        assert_eq!(g.cell_rect(4, 2).hi, g.bounds().hi);
        assert_eq!(g.cell_rect(0, 0).lo, g.bounds().lo);
    }

    #[test]
    fn block_rect_spans_cells() {
        let g = DensityGrid::build(std::iter::empty::<&Rect>(), unit_bounds(), 4, 4);
        let b = CellBlock::new(1, 2, 0, 3);
        assert_eq!(g.block_rect(&b), Rect::new(2.5, 0.0, 7.5, 10.0));
        assert_eq!(g.block_rect(&g.full_block()), unit_bounds());
    }

    #[test]
    fn degenerate_bounds_collapse_axis() {
        let r = [Rect::new(5.0, 0.0, 5.0, 10.0)];
        let bounds = Rect::new(5.0, 0.0, 5.0, 10.0); // zero width
        let g = DensityGrid::build(r.iter(), bounds, 8, 4);
        assert_eq!(g.nx(), 1);
        assert_eq!(g.ny(), 4);
        assert!(g.densities().iter().all(|&d| d == 1));
    }

    /// Rects inside, straddling, outside, and exactly on the edges and
    /// corners of `unit_bounds()` (cells of width 2.5 on a 4×4 grid).
    fn edge_cases() -> Vec<Rect> {
        vec![
            Rect::new(1.0, 1.0, 3.0, 2.0),
            Rect::new(-5.0, 4.0, 1.0, 6.0),
            Rect::new(20.0, 20.0, 30.0, 30.0),
            Rect::new(-3.0, -3.0, -1.0, -1.0),
            Rect::new(10.0, 0.0, 12.0, 10.0),
            Rect::new(-2.0, 10.0, 3.0, 14.0),
            Rect::new(2.5, 2.5, 5.0, 7.5),
            Rect::from_point(Point::new(10.0, 10.0)),
            Rect::from_point(Point::new(0.0, 0.0)),
            Rect::new(-1.0, -1.0, 11.0, 11.0),
        ]
    }

    /// A set holding one empty `4 × 4` grid over `unit_bounds()`.
    fn empty_set() -> GridSet {
        let mut set = GridSet::default();
        let empty = DensityGrid::build(std::iter::empty::<&Rect>(), unit_bounds(), 4, 4);
        set.insert(4, 4, empty);
        set
    }

    #[test]
    fn patching_every_rect_into_an_empty_grid_equals_build() {
        let rects = edge_cases();
        let mut set = empty_set();
        for r in &rects {
            set.patch(r, 1);
        }
        let patched = set.take(unit_bounds(), 4, 4).expect("held");
        let built = DensityGrid::build(rects.iter(), unit_bounds(), 4, 4);
        assert_eq!(patched.densities(), built.densities());
        assert!(set.take(unit_bounds(), 4, 4).is_none(), "taken once");
    }

    #[test]
    fn patch_round_trips() {
        let rects = edge_cases();
        let built = DensityGrid::build(rects.iter(), unit_bounds(), 4, 4);
        let mut set = GridSet::default();
        set.insert(4, 4, built.clone());
        for r in &rects {
            set.patch(r, 1);
        }
        for r in rects.iter().rev() {
            set.patch(r, -1);
        }
        let back = set.take(unit_bounds(), 4, 4).expect("held");
        assert_eq!(back.densities(), built.densities());
        // Deleting every rect leaves the empty grid.
        let mut set = GridSet::default();
        set.insert(4, 4, built);
        for r in &rects {
            set.patch(r, -1);
        }
        let cleared = set.take(unit_bounds(), 4, 4).expect("held");
        assert!(cleared.densities().iter().all(|&d| d == 0));
    }

    #[test]
    fn outside_and_edge_rects_map_exactly_as_in_build() {
        // One rect at a time, so each footprint is compared on its own.
        for r in edge_cases() {
            let mut set = empty_set();
            set.patch(&r, 1);
            let patched = set.take(unit_bounds(), 4, 4).expect("held");
            let built = DensityGrid::build([r], unit_bounds(), 4, 4);
            assert_eq!(patched.densities(), built.densities(), "rect {r}");
        }
        // A degenerate axis collapses the same way in both.
        let line = Rect::new(0.0, 5.0, 10.0, 5.0);
        let mut set = GridSet::default();
        set.insert(4, 4, DensityGrid::build([line], line, 4, 4));
        set.patch(&Rect::new(2.0, 5.0, 3.0, 5.0), 1);
        set.patch(&Rect::new(2.0, 6.0, 3.0, 7.0), 1);
        let patched = set.take(line, 4, 4).expect("held");
        let built = DensityGrid::build(
            [
                line,
                Rect::new(2.0, 5.0, 3.0, 5.0),
                Rect::new(2.0, 6.0, 3.0, 7.0),
            ],
            line,
            4,
            4,
        );
        assert_eq!((patched.nx(), patched.ny()), (4, 1));
        assert_eq!(patched.densities(), built.densities());
    }

    #[test]
    fn grids_are_keyed_by_requested_dims_and_bound_bits() {
        let mut set = empty_set();
        assert!(set.take(unit_bounds(), 4, 8).is_none());
        assert!(set.take(Rect::new(0.0, 0.0, 10.0, 10.5), 4, 4).is_none());
        let neg_zero = Rect {
            lo: Point::new(-0.0, 0.0),
            hi: Point::new(10.0, 10.0),
        };
        assert!(set.take(neg_zero, 4, 4).is_none());
        assert!(set.take(unit_bounds(), 4, 4).is_some());
        assert!(set.take(unit_bounds(), 4, 4).is_none());
    }

    /// Irregular rects over `unit_bounds()`, so float sums of their
    /// widths would depend on the order.
    fn irregular(n: u64) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i * 7919 % 1009) as f64 * 0.0091;
                let y = (i * 104_729 % 997) as f64 * 0.0093;
                let (w, h) = ((i % 11) as f64 * 0.071, (i % 7) as f64 * 0.13);
                Rect::new(x, y, (x + w).min(10.0), (y + h).min(10.0))
            })
            .collect()
    }

    fn centres_of(rects: Vec<Rect>) -> CentreSums {
        DensityGrid::build_with_centres(&crate::Dataset::new(rects), unit_bounds(), 4, 4).1
    }

    #[test]
    fn centre_sums_are_bit_equal_in_every_order() {
        let rects = irregular(500);
        let first = centres_of(rects.clone());
        let mut shuffled = rects.clone();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..4 {
            // Fisher-Yates with an xorshift generator.
            for i in (1..shuffled.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                shuffled.swap(i, (state % (i as u64 + 1)) as usize);
            }
            assert_ne!(shuffled, rects);
            assert_eq!(centres_of(shuffled.clone()), first);
        }
        let mut reversed = rects.clone();
        reversed.reverse();
        assert_eq!(centres_of(reversed), first);
        // The whole grid counts every rect, and its sums are the exact
        // sums rounded once.
        let (n, w, _) = first.block(&CellBlock::new(0, 3, 0, 3));
        assert_eq!(n, 500);
        let exact: f64 = rects.iter().map(Rect::width).sum();
        assert!((w - exact).abs() <= 1e-9 * exact, "{w} vs {exact}");
    }

    #[test]
    fn fixed_point_terms_leave_room_for_2_pow_32_rows() {
        // Extents at and just below powers of two, awkward ones, and the
        // ends of the f64 range, subnormals included.
        let below_two = f64::from_bits(2.0f64.to_bits() - 1);
        for extent in [
            1.0,
            below_two,
            2.0,
            3.0,
            10.0,
            414_442.0,
            1e-300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * 0.75,
            1e-320,
            5e-324,
            1e300,
            f64::MAX,
        ] {
            let scale = fixed_scale(extent);
            // The largest width a rect inside the bounds can have.
            let top = to_fixed(extent, scale);
            assert!((0..1 << TERM_BITS).contains(&top), "{extent:e}: {top}");
            // 2^32 such terms fit, with room to spare.
            let sum = top.checked_mul(1 << 32).expect("2^32 terms fit");
            assert!(sum < i128::MAX >> 1, "{extent:e}");
            // At every extent a term keeps at least 93 bits.
            assert!(top >= 1 << (TERM_BITS - 1), "{extent:e}: {top}");
            // Each factor is a normal power of two, so scaling is exact:
            // the term converts back to the extent.
            for f in scale {
                assert!(f.is_normal(), "{extent:e}: {f:e}");
                assert_eq!(f.to_bits() & ((1 << 52) - 1), 0, "{extent:e}");
            }
            assert_eq!(from_fixed(top, scale), extent, "{extent:e}");
        }
        // A degenerate axis still gets a finite scale.
        assert!(fixed_scale(0.0).iter().all(|f| f.is_normal()));
        assert!(fixed_scale(f64::INFINITY).iter().all(|f| f.is_normal()));
    }

    #[test]
    fn inserting_then_deleting_any_rect_restores_every_cell() {
        let built = centres_of(irregular(300));
        let strays = [
            Rect::new(20.0, 20.0, 30.0, 30.0),
            Rect::new(-5.0, 4.0, 1.0, 6.0),
            Rect::new(-1.0, -1.0, 11.0, 11.0),
            Rect::new(-1e300, 2.0, 1e300, 3.0),
            Rect::new(9.0, -1e308, 9.5, 1e308),
            Rect::from_point(Point::new(10.0, 10.0)),
            Rect::from_point(Point::new(-0.0, 0.0)),
        ];
        let mut set = GridSet::default();
        set.insert_centres(4, 4, built.clone());
        for r in &strays {
            set.patch(r, 1);
        }
        assert_ne!(set.centres.as_ref().map(|(_, c)| c), Some(&built));
        for r in strays.iter().rev() {
            set.patch(r, -1);
        }
        assert_eq!(set.take_centres(unit_bounds(), 4, 4), Some(built));
    }

    #[test]
    fn patched_centre_sums_equal_a_fresh_build() {
        let rects = irregular(200);
        let mut set = GridSet::default();
        set.insert_centres(4, 4, centres_of(vec![]));
        for r in rects.iter().chain(&edge_cases()) {
            set.patch(r, 1);
        }
        for r in edge_cases().iter().rev() {
            set.patch(r, -1);
        }
        assert!(set.take_centres(unit_bounds(), 4, 8).is_none());
        assert!(set
            .take_centres(Rect::new(0.0, 0.0, 10.0, 10.5), 4, 4)
            .is_none());
        assert_eq!(
            set.take_centres(unit_bounds(), 4, 4),
            Some(centres_of(rects))
        );
        assert!(
            set.take_centres(unit_bounds(), 4, 4).is_none(),
            "taken once"
        );
    }

    #[test]
    fn cell_block_splits() {
        let b = CellBlock::new(0, 4, 2, 6);
        assert_eq!(b.num_cells(), 25);
        let (l, r) = b.split_after(Axis::X, 1);
        assert_eq!(l, CellBlock::new(0, 1, 2, 6));
        assert_eq!(r, CellBlock::new(2, 4, 2, 6));
        assert_eq!(l.num_cells() + r.num_cells(), b.num_cells());
        let (lo, hi) = b.split_after(Axis::Y, 5);
        assert_eq!(lo, CellBlock::new(0, 4, 2, 5));
        assert_eq!(hi, CellBlock::new(0, 4, 6, 6));
        assert!(CellBlock::new(3, 3, 1, 1).is_unit());
    }

    #[test]
    #[should_panic(expected = "split index outside block")]
    fn split_at_boundary_panics() {
        CellBlock::new(0, 4, 0, 0).split_after(Axis::X, 4);
    }

    #[test]
    fn contains_cell() {
        let b = CellBlock::new(1, 3, 2, 5);
        assert!(b.contains_cell(1, 2));
        assert!(b.contains_cell(3, 5));
        assert!(!b.contains_cell(0, 3));
        assert!(!b.contains_cell(2, 6));
    }

    #[cfg(feature = "proptest")]
    proptest! {
        /// Density invariants: every in-bounds rect touches at least one
        /// cell, no cell exceeds N, and each cell's density equals the
        /// brute-force count of rects overlapping its index ranges.
        #[test]
        fn prop_density_counts_are_exact(
            raw in proptest::collection::vec(
                (0.0..100.0f64, 0.0..100.0f64, 0.0..30.0f64, 0.0..30.0f64),
                1..60,
            ),
            nx in 1usize..9,
            ny in 1usize..9,
        ) {
            let bounds = Rect::new(0.0, 0.0, 120.0, 120.0);
            let rects: Vec<Rect> = raw
                .iter()
                .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h))
                .collect();
            let g = DensityGrid::build(rects.iter(), bounds, nx, ny);
            let n = rects.len() as u32;
            let mut total = 0u32;
            for iy in 0..g.ny() {
                for ix in 0..g.nx() {
                    let d = g.density(ix, iy);
                    prop_assert!(d <= n);
                    let expected = rects
                        .iter()
                        .filter(|r| {
                            let (x0, x1) = g.axis_range(r, Axis::X);
                            let (y0, y1) = g.axis_range(r, Axis::Y);
                            (x0..=x1).contains(&ix) && (y0..=y1).contains(&iy)
                        })
                        .count() as u32;
                    prop_assert_eq!(d, expected);
                    total += d;
                }
            }
            // Every rect contributes to at least one cell.
            prop_assert!(total >= n);
        }
    }
}

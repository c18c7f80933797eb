//! Uniform density grids: the compact input approximation Min-Skew consumes.

use minskew_geom::{Axis, Point, Rect};

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
    bounds: Rect,
    nx: usize,
    ny: usize,
    cell_w: f64,
    cell_h: f64,
    density: Vec<u32>,
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
        assert!(
            nx > 0 && ny > 0,
            "grid must have at least one cell per axis"
        );
        // A degenerate bounds axis collapses that axis to a single cell:
        // every datum shares the one coordinate, so finer resolution is
        // meaningless (and would divide by zero).
        let nx = if bounds.width() == 0.0 { 1 } else { nx };
        let ny = if bounds.height() == 0.0 { 1 } else { ny };
        let cell_w = bounds.width() / nx as f64;
        let cell_h = bounds.height() / ny as f64;
        let mut grid = DensityGrid {
            bounds,
            nx,
            ny,
            cell_w,
            cell_h,
            density: vec![0; nx * ny],
        };
        for r in rects {
            grid.count(r.borrow(), 1);
        }
        grid
    }

    /// Adds `delta` to every cell that `r` intersects. A rect outside the
    /// bounds touches nothing; the rest is clamped into range. This is the
    /// one mapping from a rect to its cells: the build and
    /// [`GridSet::patch`] both count through it, which is what makes a
    /// patched grid equal a fresh build.
    fn count(&mut self, r: &Rect, delta: i32) {
        if !self.bounds.intersects(r) {
            return;
        }
        let (ix0, ix1) = self.axis_range(r, Axis::X);
        let (iy0, iy1) = self.axis_range(r, Axis::Y);
        for iy in iy0..=iy1 {
            let row = iy * self.nx;
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
        self.nx
    }

    /// Number of rows.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of regions (`nx * ny`).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// The gridded domain.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Density of cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn density(&self, ix: usize, iy: usize) -> u32 {
        assert!(ix < self.nx && iy < self.ny, "cell index out of range");
        self.density[iy * self.nx + ix]
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
        (self.index_1d(p.x, Axis::X), self.index_1d(p.y, Axis::Y))
    }

    /// The geometric region of cell `(ix, iy)`.
    pub fn cell_rect(&self, ix: usize, iy: usize) -> Rect {
        assert!(ix < self.nx && iy < self.ny, "cell index out of range");
        let x0 = self.bounds.lo.x + ix as f64 * self.cell_w;
        let y0 = self.bounds.lo.y + iy as f64 * self.cell_h;
        // Snap the outermost edges exactly onto the bounds to avoid float
        // drift leaving slivers at the domain boundary.
        let x1 = if ix + 1 == self.nx {
            self.bounds.hi.x
        } else {
            x0 + self.cell_w
        };
        let y1 = if iy + 1 == self.ny {
            self.bounds.hi.y
        } else {
            y0 + self.cell_h
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
            x1: self.nx - 1,
            y0: 0,
            y1: self.ny - 1,
        }
    }

    /// Inclusive range of cell indices a rectangle overlaps along `axis`,
    /// clamped into the grid.
    pub fn axis_range(&self, r: &Rect, axis: Axis) -> (usize, usize) {
        match axis {
            Axis::X => (self.index_1d(r.lo.x, axis), self.index_1d(r.hi.x, axis)),
            Axis::Y => (self.index_1d(r.lo.y, axis), self.index_1d(r.hi.y, axis)),
        }
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

/// Density grids kept up to date under writes, so that a rebuild over the
/// same bounds can be skipped.
///
/// A cell's density counts the rects that intersect it, which does not
/// depend on the order of the rects. So adding each inserted rect's
/// footprint and subtracting each deleted one's keeps every held grid equal,
/// bit for bit, to a fresh [`DensityGrid::build`] over the live rects with
/// the same bounds and dimensions. Rects outside a grid's bounds touch none
/// of its cells, exactly as in `build`, so they may come and go freely.
///
/// A grid is keyed by the dimensions it was requested at and by its bounds
/// compared bit for bit (`-0.0` and `0.0` differ). A Min-Skew build takes
/// each refinement phase's grid from the set, or builds and stores it.
#[derive(Debug, Clone, Default)]
pub struct GridSet {
    grids: Vec<(GridKey, DensityGrid)>,
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
        self.grids.push((GridKey::new(grid.bounds, nx, ny), grid));
    }

    /// Adds `delta` (`1` for an insert, `-1` for a delete) to every cell
    /// of every held grid that `rect` intersects.
    pub fn patch(&mut self, rect: &Rect, delta: i32) {
        for (_, grid) in &mut self.grids {
            grid.count(rect, delta);
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
                (Axis::X, bounds.lo.x, bounds.hi.x, g.cell_w, g.nx()),
                (Axis::Y, bounds.lo.y, bounds.hi.y, g.cell_h, g.ny()),
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
                        g.index_1d(v, axis),
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
        assert_eq!((g.ny(), g.cell_h), (1, 0.0));
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

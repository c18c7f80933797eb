//! The fractal-dimension parametric technique of Belussi & Faloutsos
//! (VLDB 1995), extended to rectangle data via centroids as the paper does
//! (§5.3).
//!
//! Real point sets often behave like fractals: the number of point pairs
//! within distance `ε` follows a power law `ε^D₂`, where `D₂` is the
//! *correlation fractal dimension*. `D₂` is measured by box counting: lay
//! grids of shrinking cell side `r` over the data and regress
//! `log Σᵢ pᵢ²` (the pair-count proxy, with `pᵢ` the fraction of points in
//! cell `i`) against `log r`; the slope is `D₂`. Selectivity of a square
//! query of side `ε` is then estimated as `N · (ε / L)^D₂`.
//!
//! The paper finds this technique ineffective on rectangle data (~90 %
//! error) — it was designed for points — and our reproduction retains that
//! behaviour on purpose.

use minskew_data::Dataset;
use minskew_geom::{Point, Rect};

use crate::SpatialEstimator;

/// The *Fractal* estimator: stores only `N`, the input MBR, and `D₂`.
#[derive(Debug, Clone)]
pub struct FractalEstimator {
    input_len: usize,
    mbr: Rect,
    d2: f64,
}

impl FractalEstimator {
    /// Measures `D₂` by box counting over grid sides 2, 4, …, 256.
    pub fn build(data: &Dataset) -> FractalEstimator {
        let grid_sides = [2, 4, 8, 16, 32, 64, 128, 256];
        let mbr = data.stats().mbr;
        let n = data.len();
        if n == 0 {
            return FractalEstimator {
                input_len: 0,
                mbr,
                d2: 2.0,
            };
        }
        let centers: Vec<Point> = data.rects().iter().map(Rect::center).collect();
        // Regress log(sum p_i^2) on log(r).
        let mut xs = Vec::with_capacity(grid_sides.len());
        let mut ys = Vec::with_capacity(grid_sides.len());
        for g in grid_sides {
            let s2 = sum_squared_fractions(&centers, &mbr, g);
            // Normalised cell side r = 1/g.
            xs.push((1.0 / g as f64).ln());
            ys.push(s2.ln());
        }
        let d2 = least_squares_slope(&xs, &ys).clamp(0.0, 2.0);
        FractalEstimator {
            input_len: n,
            mbr,
            d2,
        }
    }

    /// The measured correlation fractal dimension.
    pub fn d2(&self) -> f64 {
        self.d2
    }
}

/// `Σ p_i²` over a `g × g` grid of the MBR.
fn sum_squared_fractions(centers: &[Point], mbr: &Rect, g: usize) -> f64 {
    let mut counts = vec![0u32; g * g];
    let w = mbr.width();
    let h = mbr.height();
    for c in centers {
        let ix = if w == 0.0 {
            0
        } else {
            (((c.x - mbr.lo.x) / w * g as f64) as usize).min(g - 1)
        };
        let iy = if h == 0.0 {
            0
        } else {
            (((c.y - mbr.lo.y) / h * g as f64) as usize).min(g - 1)
        };
        counts[iy * g + ix] += 1;
    }
    let n = centers.len() as f64;
    let s2: f64 = counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            p * p
        })
        .sum();
    // Guard the logarithm: with all mass in one cell s2 = 1; it can never be
    // 0 because fractions sum to 1.
    s2.max(f64::MIN_POSITIVE)
}

fn least_squares_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl SpatialEstimator for FractalEstimator {
    fn estimate_count(&self, query: &Rect) -> f64 {
        if self.input_len == 0 {
            return 0.0;
        }
        let clipped = match query.intersection(&self.mbr) {
            Some(c) => c,
            None => return 0.0,
        };
        // Normalised query side: geometric mean of the two side fractions
        // (the power law is stated for square windows).
        let fx = if self.mbr.width() == 0.0 {
            1.0
        } else {
            clipped.width() / self.mbr.width()
        };
        let fy = if self.mbr.height() == 0.0 {
            1.0
        } else {
            clipped.height() / self.mbr.height()
        };
        let eps = (fx * fy).sqrt();
        let est = self.input_len as f64 * eps.powf(self.d2);
        est.clamp(0.0, self.input_len as f64)
    }

    fn input_len(&self) -> usize {
        self.input_len
    }

    fn name(&self) -> &str {
        "Fractal"
    }

    fn size_bytes(&self) -> usize {
        // N + 4-word MBR + D2: six words.
        6 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_datagen::{clustered_points, uniform_rects, ClusteredPointSpec};

    #[test]
    fn uniform_points_have_dimension_near_two() {
        let ds = uniform_rects(40_000, Rect::new(0.0, 0.0, 1000.0, 1000.0), 0.0, 0.0, 1);
        let f = FractalEstimator::build(&ds);
        assert!(
            (1.8..=2.0).contains(&f.d2()),
            "uniform 2-D points: D2 = {}",
            f.d2()
        );
    }

    #[test]
    fn line_points_have_dimension_near_one() {
        // Points along the diagonal: a 1-dimensional set.
        let rects: Vec<Rect> = (0..20_000)
            .map(|i| {
                let t = i as f64 / 20.0;
                Rect::from_point(Point::new(t, t))
            })
            .collect();
        let ds = Dataset::new(rects);
        let f = FractalEstimator::build(&ds);
        assert!(
            (0.8..=1.2).contains(&f.d2()),
            "diagonal points: D2 = {}",
            f.d2()
        );
    }

    #[test]
    fn clustered_points_have_fractional_dimension() {
        let spec = ClusteredPointSpec {
            n: 30_000,
            ..ClusteredPointSpec::default()
        };
        let ds = clustered_points(&spec, 2);
        let f = FractalEstimator::build(&ds);
        assert!(
            f.d2() > 0.3 && f.d2() < 2.0,
            "clustered points: D2 = {}",
            f.d2()
        );
    }

    #[test]
    fn estimates_scale_with_query_size() {
        let ds = uniform_rects(10_000, Rect::new(0.0, 0.0, 100.0, 100.0), 0.0, 0.0, 3);
        let f = FractalEstimator::build(&ds);
        let small = f.estimate_count(&Rect::new(0.0, 0.0, 10.0, 10.0));
        let large = f.estimate_count(&Rect::new(0.0, 0.0, 50.0, 50.0));
        let whole = f.estimate_count(&Rect::new(0.0, 0.0, 100.0, 100.0));
        assert!(small < large && large < whole);
        // Whole-space query returns ~N.
        assert!(
            (whole - 10_000.0).abs() / 10_000.0 < 0.05,
            "whole = {whole}"
        );
        // Disjoint query returns 0.
        assert_eq!(
            f.estimate_count(&Rect::new(200.0, 200.0, 300.0, 300.0)),
            0.0
        );
    }

    #[test]
    fn tiny_footprint() {
        let ds = uniform_rects(1_000, Rect::new(0.0, 0.0, 10.0, 10.0), 0.1, 0.1, 4);
        let f = FractalEstimator::build(&ds);
        assert_eq!(f.size_bytes(), 48);
        assert_eq!(f.name(), "Fractal");
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(vec![]);
        let f = FractalEstimator::build(&ds);
        assert_eq!(f.estimate_count(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0.0);
    }

    use minskew_data::Dataset;
    use minskew_geom::Point;
}

//! Two-dimensional points.

use crate::Axis;

/// A point in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Returns the coordinate along `axis`.
    #[inline]
    pub fn coord(&self, axis: Axis) -> f64 {
        match axis {
            Axis::X => self.x,
            Axis::Y => self.y,
        }
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Avoids the square root; use when only comparisons are needed
    /// (e.g. R\*-tree reinsertion orders entries by centre distance).
    #[inline]
    pub fn dist2(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Point {
        Point::new(x, y)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_accessors_roundtrip() {
        let p = Point::new(3.0, -2.0);
        assert_eq!(p.coord(Axis::X), 3.0);
        assert_eq!(p.coord(Axis::Y), -2.0);
    }

    #[test]
    fn dist2_matches_hand_computation() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist2(&b), 25.0);
        assert_eq!(b.dist2(&a), 25.0);
        assert_eq!(a.dist2(&a), 0.0);
    }

    #[test]
    fn from_tuple_and_display() {
        let p: Point = (1.5, 2.5).into();
        assert_eq!(p, Point::new(1.5, 2.5));
        assert_eq!(p.to_string(), "(1.5, 2.5)");
    }

    #[test]
    fn is_finite_rejects_nan_and_inf() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}

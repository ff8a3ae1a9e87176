//! Package geometry: positions and distances in millimetres.
//!
//! The paper models 10 mm × 10 mm processing dies on a 2.5D package and
//! derives wireline link energies from extracted lengths, while the mm-wave
//! links must span "a few millimetres to several centimetres".  This module
//! supplies those lengths from an explicit floorplan.

use serde::{Deserialize, Serialize};

/// A point on the package, in millimetres from the package's bottom-left
/// corner.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate in millimetres.
    pub x: f64,
    /// Vertical coordinate in millimetres.
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)` millimetres.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in millimetres.
    pub fn distance(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Manhattan distance to `other`, in millimetres. Wireline routes
    /// follow rectilinear channels, so wire lengths use this metric.
    pub(crate) fn manhattan(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

/// Physical floorplan parameters shared by all architectures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct PackageGeometry {
    /// Gap between adjacent chips (and between chips and memory stacks).
    pub chip_gap_mm: f64,
    /// Footprint width of one memory stack.
    pub stack_width_mm: f64,
    /// Footprint height of one memory stack.
    pub stack_height_mm: f64,
}

impl PackageGeometry {
    /// The floorplan used throughout the paper's evaluation: 2 mm
    /// inter-component gap, HBM-like 7 mm × 10 mm stack footprints.
    pub(crate) fn paper() -> Self {
        PackageGeometry {
            chip_gap_mm: 2.0,
            stack_width_mm: 7.0,
            stack_height_mm: 10.0,
        }
    }
}

impl Default for PackageGeometry {
    fn default() -> Self {
        PackageGeometry::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert!((a.manhattan(b) - 7.0).abs() < 1e-12);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.5, -2.0);
        let b = Point::new(-0.5, 7.25);
        assert!((a.distance(b) - b.distance(a)).abs() < 1e-12);
        assert!((a.manhattan(b) - b.manhattan(a)).abs() < 1e-12);
    }

    #[test]
    fn paper_geometry_defaults() {
        let g = PackageGeometry::default();
        assert_eq!(g, PackageGeometry::paper());
        assert!(g.chip_gap_mm > 0.0);
        assert!(g.stack_width_mm > 0.0);
    }
}

//! Axis-aligned bounding boxes.
//!
//! Tree cells in the hashed oct-tree are cubes obtained by recursive
//! bisection of a root cube; the domain decomposition and the multipole
//! acceptance criteria need box/point distance queries.

use crate::vec3::Vec3;

/// An axis-aligned box given by its minimum and maximum corners.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// An "empty" box that any point will expand.
    pub const EMPTY: Aabb = Aabb {
        min: Vec3 { x: f64::INFINITY, y: f64::INFINITY, z: f64::INFINITY },
        max: Vec3 { x: f64::NEG_INFINITY, y: f64::NEG_INFINITY, z: f64::NEG_INFINITY },
    };

    /// Box from corners. `min` must be component-wise ≤ `max`.
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y && min.z <= max.z, "inverted Aabb");
        Aabb { min, max }
    }

    /// Cube centred at `center` with half-width `half`.
    #[inline]
    pub fn cube(center: Vec3, half: f64) -> Self {
        debug_assert!(half >= 0.0);
        Aabb { min: center - Vec3::splat(half), max: center + Vec3::splat(half) }
    }

    /// Unit cube `[0,1)³`, the canonical key-space domain.
    #[inline]
    pub fn unit() -> Self {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    /// Smallest box containing every point of the iterator.
    pub fn containing<I: IntoIterator<Item = Vec3>>(points: I) -> Self {
        let mut b = Aabb::EMPTY;
        for p in points {
            b.expand(p);
        }
        b
    }

    /// Geometric centre.
    #[inline(always)]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Full extent along each axis.
    #[inline(always)]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Longest edge length.
    #[inline(always)]
    pub fn longest_edge(&self) -> f64 {
        self.extent().max_component()
    }

    /// Grow to contain `p`.
    #[inline(always)]
    pub fn expand(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Grow to contain another box.
    #[inline(always)]
    pub fn merge(&mut self, other: &Aabb) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Is `p` inside (inclusive min, exclusive max — the key-space
    /// convention, so each point belongs to exactly one cell)?
    #[inline(always)]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.y >= self.min.y
            && p.z >= self.min.z
            && p.x < self.max.x
            && p.y < self.max.y
            && p.z < self.max.z
    }

    /// True when the box contains no volume (also true for `EMPTY`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        !(self.min.x < self.max.x && self.min.y < self.max.y && self.min.z < self.max.z)
    }

    /// The cube expanded to be a cube with edge `longest_edge`, sharing the
    /// same centre. Used to build a root cell enclosing arbitrary data.
    pub fn bounding_cube(&self) -> Aabb {
        let half = self.longest_edge() * 0.5;
        Aabb::cube(self.center(), half)
    }

    /// Scale about the centre by `factor` (> 0).
    pub fn scaled(&self, factor: f64) -> Aabb {
        let c = self.center();
        let h = self.extent() * (0.5 * factor);
        Aabb::new(c - h, c + h)
    }

    /// The `i`-th octant (0–7) produced by bisecting along all axes.
    /// Bit 0 of `i` selects the upper half in x, bit 1 in y, bit 2 in z,
    /// matching the Morton child ordering in `hot-morton`.
    pub fn octant(&self, i: usize) -> Aabb {
        debug_assert!(i < 8);
        let c = self.center();
        let mut min = self.min;
        let mut max = c;
        if i & 1 != 0 {
            min.x = c.x;
            max.x = self.max.x;
        }
        if i & 2 != 0 {
            min.y = c.y;
            max.y = self.max.y;
        }
        if i & 4 != 0 {
            min.z = c.z;
            max.z = self.max.z;
        }
        Aabb::new(min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_and_center() {
        let b = Aabb::cube(Vec3::new(1.0, 2.0, 3.0), 0.5);
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.extent(), Vec3::splat(1.0));
        assert_eq!(b.longest_edge(), 1.0);
    }

    #[test]
    fn containing_points() {
        let pts = [Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, -2.0, 0.5), Vec3::new(0.2, 3.0, -1.0)];
        let b = Aabb::containing(pts);
        assert_eq!(b.min, Vec3::new(0.0, -2.0, -1.0));
        assert_eq!(b.max, Vec3::new(1.0, 3.0, 0.5));
    }

    #[test]
    fn contains_half_open() {
        let b = Aabb::unit();
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::splat(0.999_999)));
        assert!(!b.contains(Vec3::splat(1.0)));
        assert!(!b.contains(Vec3::new(-1e-9, 0.5, 0.5)));
    }

    #[test]
    fn empty_box() {
        assert!(Aabb::EMPTY.is_empty());
        let mut b = Aabb::EMPTY;
        b.expand(Vec3::splat(0.3));
        // single point: still zero volume
        assert!(b.is_empty());
        b.expand(Vec3::splat(0.7));
        assert!(!b.is_empty());
    }

    #[test]
    fn octants_partition_cube() {
        let b = Aabb::cube(Vec3::splat(0.0), 1.0);
        let mut volume = 0.0;
        for i in 0..8 {
            let o = b.octant(i);
            let e = o.extent();
            volume += e.x * e.y * e.z;
            // each octant is inside the parent
            assert!(o.min.x >= b.min.x && o.max.x <= b.max.x);
        }
        assert!((volume - 8.0).abs() < 1e-12);
        // octant 0 is the low corner; octant 7 the high corner
        assert_eq!(b.octant(0).min, b.min);
        assert_eq!(b.octant(7).max, b.max);
    }

    #[test]
    fn bounding_cube_is_cubic_and_contains() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 1.0, 0.5));
        let c = b.bounding_cube();
        let e = c.extent();
        assert!((e.x - e.y).abs() < 1e-15 && (e.y - e.z).abs() < 1e-15);
        assert!(c.min.x <= b.min.x && c.max.x >= b.max.x);
    }

    #[test]
    fn scaled() {
        let b = Aabb::cube(Vec3::splat(1.0), 1.0).scaled(1.5);
        assert_eq!(b.center(), Vec3::splat(1.0));
        assert!((b.longest_edge() - 3.0).abs() < 1e-15);
    }
}

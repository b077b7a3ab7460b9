//! Three-component `f64` vector.
//!
//! A deliberately small, `Copy`, `#[repr(C)]` vector type: particle arrays
//! are transferred between simulated ranks as raw little-endian floats, so a
//! predictable layout matters more here than generic dimensionality.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 3-vector of `f64`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

/// The zero vector.
pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

impl Vec3 {
    /// Zero vector.
    pub const ZERO: Vec3 = ZERO;

    /// Create a vector from components.
    #[inline(always)]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Vector with all components equal to `v`.
    #[inline(always)]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Build from a `[f64; 3]` array.
    #[inline(always)]
    pub const fn from_array(a: [f64; 3]) -> Self {
        Vec3 { x: a[0], y: a[1], z: a[2] }
    }

    /// Convert to a `[f64; 3]` array.
    #[inline(always)]
    pub const fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Dot product.
    #[inline(always)]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline(always)]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Squared Euclidean norm.
    #[inline(always)]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline(always)]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Unit vector in the direction of `self`; zero vector maps to zero.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n2 = self.norm2();
        if n2 > 0.0 {
            self * (1.0 / n2.sqrt())
        } else {
            ZERO
        }
    }

    /// Component-wise minimum.
    #[inline(always)]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3 { x: self.x.min(rhs.x), y: self.y.min(rhs.y), z: self.z.min(rhs.z) }
    }

    /// Component-wise maximum.
    #[inline(always)]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3 { x: self.x.max(rhs.x), y: self.y.max(rhs.y), z: self.z.max(rhs.z) }
    }

    /// Component-wise absolute value.
    #[inline(always)]
    pub fn abs(self) -> Vec3 {
        Vec3 { x: self.x.abs(), y: self.y.abs(), z: self.z.abs() }
    }

    /// Largest component.
    #[inline(always)]
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// True when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3 { x: self.x + rhs.x, y: self.y + rhs.y, z: self.z + rhs.z }
    }
}

impl AddAssign for Vec3 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Vec3) {
        self.x += rhs.x;
        self.y += rhs.y;
        self.z += rhs.z;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3 { x: self.x - rhs.x, y: self.y - rhs.y, z: self.z - rhs.z }
    }
}

impl SubAssign for Vec3 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Vec3) {
        self.x -= rhs.x;
        self.y -= rhs.y;
        self.z -= rhs.z;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3 { x: self.x * rhs, y: self.y * rhs, z: self.z * rhs }
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        self.x *= rhs;
        self.y *= rhs;
        self.z *= rhs;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn div(self, rhs: f64) -> Vec3 {
        let inv = 1.0 / rhs;
        self * inv
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn neg(self) -> Vec3 {
        Vec3 { x: -self.x, y: -self.y, z: -self.z }
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline(always)]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(ZERO, |a, b| a + b)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::from_array(a)
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!((a / 2.0).x, 0.5);
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        let z = Vec3::new(0.0, 0.0, 1.0);
        assert_eq!(x.cross(y), z);
        assert_eq!(y.cross(z), x);
        assert_eq!(z.cross(x), y);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(Vec3::new(1.0, 2.0, 3.0).dot(Vec3::new(4.0, 5.0, 6.0)), 32.0);
    }

    #[test]
    fn cross_is_antisymmetric() {
        let a = Vec3::new(0.3, -1.2, 2.2);
        let b = Vec3::new(1.7, 0.1, -0.4);
        let c = a.cross(b) + b.cross(a);
        assert!(c.norm() < 1e-15);
    }

    #[test]
    fn norms() {
        let v = Vec3::new(3.0, 4.0, 12.0);
        assert_eq!(v.norm2(), 169.0);
        assert_eq!(v.norm(), 13.0);
        let u = v.normalized();
        assert!((u.norm() - 1.0).abs() < 1e-15);
        assert_eq!(ZERO.normalized(), ZERO);
    }

    #[test]
    fn minmax_and_indexing() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(2.0, 3.0, 4.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 3.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 4.0));
        assert_eq!(a.max_component(), 5.0);
        assert_eq!(a[0], 1.0);
        assert_eq!(a[1], 5.0);
        assert_eq!(a[2], -2.0);
        let mut c = a;
        c[2] = 9.0;
        assert_eq!(c.z, 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn sum_and_conversions() {
        let total: Vec3 = (0..4).map(|i| Vec3::splat(i as f64)).sum();
        assert_eq!(total, Vec3::splat(6.0));
        let arr: [f64; 3] = Vec3::new(1.0, 2.0, 3.0).into();
        assert_eq!(arr, [1.0, 2.0, 3.0]);
        assert_eq!(Vec3::from([1.0, 2.0, 3.0]), Vec3::new(1.0, 2.0, 3.0));
    }
}

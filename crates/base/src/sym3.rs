//! Symmetric 3×3 matrices, stored as six unique components.
//!
//! Quadrupole moments of a mass distribution are symmetric rank-2 tensors;
//! storing six `f64`s instead of nine keeps the per-cell moment payload (and
//! hence the bytes shipped between ranks during tree exchange) small.

use crate::vec3::Vec3;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A symmetric 3×3 matrix: `[xx, yy, zz, xy, xz, yz]`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct SymMat3 {
    /// Diagonal and off-diagonal components in the order
    /// `xx, yy, zz, xy, xz, yz`.
    pub m: [f64; 6],
}

impl SymMat3 {
    /// The zero matrix.
    pub const ZERO: SymMat3 = SymMat3 { m: [0.0; 6] };

    /// Identity matrix.
    #[cfg(test)]
    pub const IDENTITY: SymMat3 = SymMat3 { m: [1.0, 1.0, 1.0, 0.0, 0.0, 0.0] };

    /// Construct from the six unique components.
    #[inline(always)]
    pub const fn new(xx: f64, yy: f64, zz: f64, xy: f64, xz: f64, yz: f64) -> Self {
        SymMat3 { m: [xx, yy, zz, xy, xz, yz] }
    }

    /// The symmetric outer product `v vᵀ`.
    #[inline(always)]
    pub fn outer(v: Vec3) -> Self {
        SymMat3::new(v.x * v.x, v.y * v.y, v.z * v.z, v.x * v.y, v.x * v.z, v.y * v.z)
    }

    /// Trace (sum of diagonal components).
    #[inline(always)]
    pub fn trace(self) -> f64 {
        self.m[0] + self.m[1] + self.m[2]
    }

    /// Matrix–vector product.
    #[inline(always)]
    pub fn mul_vec(self, v: Vec3) -> Vec3 {
        let [xx, yy, zz, xy, xz, yz] = self.m;
        Vec3 {
            x: xx * v.x + xy * v.y + xz * v.z,
            y: xy * v.x + yy * v.y + yz * v.z,
            z: xz * v.x + yz * v.y + zz * v.z,
        }
    }

}

impl Add for SymMat3 {
    type Output = SymMat3;
    #[inline(always)]
    fn add(self, rhs: SymMat3) -> SymMat3 {
        SymMat3 { m: std::array::from_fn(|i| self.m[i] + rhs.m[i]) }
    }
}

impl AddAssign for SymMat3 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: SymMat3) {
        for i in 0..6 {
            self.m[i] += rhs.m[i];
        }
    }
}

impl Sub for SymMat3 {
    type Output = SymMat3;
    #[inline(always)]
    fn sub(self, rhs: SymMat3) -> SymMat3 {
        SymMat3 { m: std::array::from_fn(|i| self.m[i] - rhs.m[i]) }
    }
}

impl Mul<f64> for SymMat3 {
    type Output = SymMat3;
    #[inline(always)]
    fn mul(self, rhs: f64) -> SymMat3 {
        let mut m = self.m;
        for v in &mut m {
            *v *= rhs;
        }
        SymMat3 { m }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outer_product_matches_definition() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let o = SymMat3::outer(v);
        let basis = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), Vec3::new(0.0, 0.0, 1.0)];
        for (j, e) in basis.into_iter().enumerate() {
            let column = o.mul_vec(e);
            for i in 0..3 {
                assert!((column[i] - v[i] * v[j]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn mul_vec_of_outer_product() {
        let v = Vec3::new(0.5, -1.0, 2.0);
        let w = Vec3::new(1.0, 2.0, -1.5);
        let m = SymMat3::outer(v);
        // (v v^T) w = v (v . w)
        let expect = v * v.dot(w);
        assert!((m.mul_vec(w) - expect).norm() < 1e-14);
    }

    #[test]
    fn identity_behaves() {
        let w = Vec3::new(3.0, -2.0, 1.0);
        assert_eq!(SymMat3::IDENTITY.mul_vec(w), w);
        assert_eq!(SymMat3::IDENTITY.trace(), 3.0);
    }

    #[test]
    fn arithmetic() {
        let a = SymMat3::new(1.0, 2.0, 3.0, 4.0, 5.0, 6.0);
        let b = SymMat3::IDENTITY;
        assert_eq!((a + b).trace(), a.trace() + 3.0);
        assert_eq!((a - a), SymMat3::ZERO);
        assert_eq!((a * 2.0).m[5], 12.0);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

}

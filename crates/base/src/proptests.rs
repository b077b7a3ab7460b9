//! Property-based tests of the math base (proptest).

#![cfg(test)]

use crate::rsqrt::rsqrt;
use crate::{Aabb, SymMat3, Vec3};
use proptest::prelude::*;

fn any_vec3() -> impl Strategy<Value = Vec3> {
    (
        -1e6f64..1e6,
        -1e6f64..1e6,
        -1e6f64..1e6,
    )
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    /// Karp rsqrt agrees with the hardware result across the full
    /// positive-normal range (exponents ±250).
    #[test]
    fn rsqrt_matches_hardware(mantissa in 1.0f64..2.0, exp in -250i32..250) {
        let x = mantissa * 2f64.powi(exp);
        let got = rsqrt(x);
        let want = 1.0 / x.sqrt();
        let rel = ((got - want) / want).abs();
        prop_assert!(rel < 1e-15, "x={x:e}: rel={rel:e}");
    }

    /// rsqrt is an involution-ish identity: rsqrt(x)^-2 == x.
    #[test]
    fn rsqrt_inverse_square(x in 1e-100f64..1e100) {
        let r = rsqrt(x);
        prop_assert!((1.0 / (r * r) / x - 1.0).abs() < 1e-14);
    }

    /// Triangle inequality for the Vec3 norm.
    #[test]
    fn vec3_triangle_inequality(a in any_vec3(), b in any_vec3()) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    /// Cauchy–Schwarz: |a·b| ≤ |a||b|.
    #[test]
    fn vec3_cauchy_schwarz(a in any_vec3(), b in any_vec3()) {
        prop_assert!(a.dot(b).abs() <= a.norm() * b.norm() * (1.0 + 1e-12) + 1e-9);
    }

    /// Cross product is orthogonal to both factors.
    #[test]
    fn cross_is_orthogonal(a in any_vec3(), b in any_vec3()) {
        let c = a.cross(b);
        let scale = (a.norm() * b.norm()).max(1e-30);
        prop_assert!(c.dot(a).abs() / (scale * c.norm().max(1e-30)) < 1e-9 || c.norm() < 1e-12 * scale);
    }

    /// Quadratic form of an outer product: vᵀ(wwᵀ)v = (v·w)².
    #[test]
    fn outer_quad_form(v in any_vec3(), w in any_vec3()) {
        // Scale down to keep products finite.
        let v = v * 1e-3;
        let w = w * 1e-3;
        let m = SymMat3::outer(w);
        let lhs = v.dot(m.mul_vec(v));
        let rhs = v.dot(w) * v.dot(w);
        let scale = rhs.abs().max(1e-30);
        prop_assert!((lhs - rhs).abs() / scale < 1e-9);
    }

    /// An AABB built to contain points really contains them, faces
    /// included.
    #[test]
    fn aabb_contains_its_points(pts in proptest::collection::vec(any_vec3(), 1..40)) {
        let b = Aabb::containing(pts.iter().copied());
        for p in pts {
            prop_assert!((0..3).all(|i| b.min[i] <= p[i] && p[i] <= b.max[i]));
        }
    }

    /// Octants of a cube tile it: every interior point is in exactly one.
    #[test]
    fn octants_partition(p in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0)) {
        let cube = Aabb::unit();
        let point = Vec3::new(p.0, p.1, p.2);
        let mut hits = 0;
        for i in 0..8 {
            if cube.octant(i).contains(point) {
                hits += 1;
            }
        }
        prop_assert_eq!(hits, 1);
    }
}

//! Regularized vortex-particle interaction kernels.
//!
//! The Hyglac price/performance run simulated "the fusion of two vortex
//! rings using a vortex particle method" (Winckelmans, Salmon, Warren &
//! Leonard). Vortex particles carry a vector strength `α` (circulation ×
//! volume); velocity and vorticity-stretching follow from a regularized
//! Biot–Savart law with the **high-order algebraic smoothing** of
//! Winckelmans & Leonard (1993):
//!
//! ```text
//! u(x)  = −(1/4π) Σⱼ  g(ρ) · (r × αⱼ)                r = x − xⱼ, ρ² = |r|² + σ²
//! g(ρ)  = (|r|² + 5σ²/2) / ρ⁵
//! dαᵢ/dt = (αᵢ·∇)u = (1/4π) Σⱼ [ 3 h(ρ) (αᵢ·r)(r × αⱼ) − g(ρ) (αᵢ × αⱼ) ]
//! h(ρ)  = (|r|² + 7σ²/2) / ρ⁷                        (classical scheme;
//!          uses  dg/d|r|² = −(3/2) h)
//! ```
//!
//! In the far field (`|r| ≫ σ`) `g → 1/|r|³`, the singular Biot–Savart
//! kernel, which is why cell multipoles can use the same form. Each
//! interaction is "substantially more complex than a gravitational
//! interaction" — the counted cost lives in
//! [`hot_base::FLOPS_PER_VORTEX_INTERACTION`].

use hot_base::Vec3;
use hot_core::ilist::{PcView, PpView};
use hot_core::moments::VectorMoments;

/// One-over-four-pi.
pub const INV_4PI: f64 = 1.0 / (4.0 * std::f64::consts::PI);

/// Velocity and the stretching contribution `dα_sink/dt` for a sink
/// particle with strength `alpha_i` due to a source `alpha_j` at
/// displacement `r = x_i − x_j` (classical scheme).
#[inline(always)]
pub fn velocity_and_stretching(
    r: Vec3,
    alpha_i: Vec3,
    alpha_j: Vec3,
    sigma2: f64,
) -> (Vec3, Vec3) {
    let r2 = r.norm2();
    let rho2 = r2 + sigma2;
    let rho = rho2.sqrt();
    let rho5 = rho2 * rho2 * rho;
    let rho7 = rho5 * rho2;
    let g = (r2 + 2.5 * sigma2) / rho5;
    let h = (r2 + 3.5 * sigma2) / rho7;
    let rxa = r.cross(alpha_j);
    let u = rxa * (-INV_4PI * g);
    let stretch =
        (rxa * (3.0 * h * alpha_i.dot(r)) - alpha_i.cross(alpha_j) * g) * INV_4PI;
    (u, stretch)
}

/// Batched P-P: velocity and stretching at sink `xi` (strength `alpha_i`,
/// tree-order index `sink`) from a list segment of sources, summed into
/// fresh accumulators in list order with the self-pair skipped — bitwise
/// the scalar [`velocity_and_stretching`] loop.
pub fn vortex_pp_batch(
    xi: Vec3,
    alpha_i: Vec3,
    sink: u32,
    src: &PpView<'_, VectorMoments>,
    sigma2: f64,
) -> (Vec3, Vec3) {
    let mut u = Vec3::ZERO;
    let mut s = Vec3::ZERO;
    for j in 0..src.x.len() {
        if src.idx[j] == sink {
            continue;
        }
        let r = Vec3::new(xi.x - src.x[j], xi.y - src.y[j], xi.z - src.z[j]);
        let (uj, sj) = velocity_and_stretching(r, alpha_i, src.q[j], sigma2);
        u += uj;
        s += sj;
    }
    (u, s)
}

/// Batched P-C: each accepted cell's total strength `Σαⱼ` at its centroid
/// interacts like one big particle; contributions are added to `u`/`s`
/// directly, one cell at a time, in list order.
pub fn vortex_pc_batch(
    xi: Vec3,
    alpha_i: Vec3,
    cells: &PcView<'_, VectorMoments>,
    sigma2: f64,
    u: &mut Vec3,
    s: &mut Vec3,
) {
    for k in 0..cells.x.len() {
        let r = Vec3::new(xi.x - cells.x[k], xi.y - cells.y[k], xi.z - cells.z[k]);
        let (uk, sk) = velocity_and_stretching(r, alpha_i, cells.m[k].alpha, sigma2);
        *u += uk;
        *s += sk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Velocity induced at displacement `r` by a source of strength
    /// `alpha`: the velocity half of [`velocity_and_stretching`].
    fn velocity(r: Vec3, alpha: Vec3, sigma2: f64) -> Vec3 {
        velocity_and_stretching(r, Vec3::ZERO, alpha, sigma2).0
    }

    #[test]
    fn far_field_matches_singular_biot_savart() {
        let alpha = Vec3::new(0.0, 0.0, 2.0);
        let r = Vec3::new(10.0, 0.0, 0.0);
        let sigma2 = 0.01;
        let u = velocity(r, alpha, sigma2);
        // Singular kernel: u = −(1/4π) r×α/|r|³.
        let exact = r.cross(alpha) * (-INV_4PI / r.norm().powi(3));
        assert!((u - exact).norm() < 1e-6 * exact.norm());
        // Direction: r×α = (x̂×ẑ)·20 = −ŷ·20; u = +ŷ·(stuff).
        assert!(u.y > 0.0 && u.x.abs() < 1e-15 && u.z.abs() < 1e-15);
    }

    #[test]
    fn core_regularizes_origin() {
        let alpha = Vec3::new(0.0, 0.0, 1.0);
        let u0 = velocity(Vec3::ZERO, alpha, 0.04);
        assert_eq!(u0, Vec3::ZERO, "velocity at the particle itself vanishes");
        // Approaching the core, velocity stays finite and smooth.
        let u_close = velocity(Vec3::new(1e-3, 0.0, 0.0), alpha, 0.04);
        assert!(u_close.norm() < 10.0, "bounded in the core: {u_close:?}");
    }

    #[test]
    fn velocity_antisymmetric_under_r_flip() {
        let alpha = Vec3::new(0.3, -0.7, 0.2);
        let r = Vec3::new(1.0, 2.0, -0.5);
        let u1 = velocity(r, alpha, 0.1);
        let u2 = velocity(-r, alpha, 0.1);
        assert!((u1 + u2).norm() < 1e-14);
    }

    /// The stretching formula must equal (αᵢ·∇)u evaluated numerically
    /// from the velocity field of the source particle.
    #[test]
    fn stretching_matches_numerical_gradient() {
        let alpha_i = Vec3::new(0.4, -0.1, 0.7);
        let alpha_j = Vec3::new(-0.2, 0.9, 0.3);
        let x_i = Vec3::new(1.2, 0.4, -0.8);
        let x_j = Vec3::new(0.1, -0.5, 0.3);
        let sigma2 = 0.25;
        let r = x_i - x_j;
        let (_, stretch) = velocity_and_stretching(r, alpha_i, alpha_j, sigma2);
        // Numerical (α·∇)u at x_i.
        let h = 1e-6;
        let mut grad_term = Vec3::ZERO;
        for axis in 0..3 {
            let mut e = Vec3::ZERO;
            e[axis] = h;
            let up = velocity(x_i + e - x_j, alpha_j, sigma2);
            let um = velocity(x_i - e - x_j, alpha_j, sigma2);
            grad_term += (up - um) * (alpha_i[axis] / (2.0 * h));
        }
        assert!(
            (stretch - grad_term).norm() < 1e-6 * grad_term.norm().max(1e-3),
            "analytic {stretch:?} vs numeric {grad_term:?}"
        );
    }

    #[test]
    fn total_vorticity_invariant_pairwise() {
        // dα_i/dt + dα_j/dt for an isolated pair need not vanish in the
        // classical scheme, but the velocity contributions are
        // antisymmetric in r; verify the velocity pair symmetry instead:
        // u_ij(r) = -u_ji(-r) with the same source strength.
        let a = Vec3::new(1.0, 0.0, 0.0);
        let r = Vec3::new(0.4, 0.5, -0.2);
        assert!((velocity(r, a, 0.1) + velocity(-r, a, 0.1)).norm() < 1e-15);
    }
}

//! Vortex ring construction and flow diagnostics.

use hot_base::Vec3;

/// Parameters of a thin-core vortex ring.
#[derive(Clone, Copy, Debug)]
pub struct RingSpec {
    /// Ring centre.
    pub center: Vec3,
    /// Unit normal of the ring's plane (direction of propagation).
    pub normal: Vec3,
    /// Ring radius.
    pub radius: f64,
    /// Core radius.
    pub core: f64,
    /// Total circulation Γ.
    pub circulation: f64,
    /// Filament segments around the ring.
    pub n_phi: usize,
    /// Particle rings across the core cross-section (1 = a single
    /// filament; ≥2 fills the core with concentric circles of particles).
    pub n_core: usize,
}

/// Discretize a ring into vortex particles `(positions, strengths)`.
///
/// The strength of each particle is `Γ_layer · Δl · t̂` with `Δl` the
/// filament segment length and `t̂` the local tangent, distributing the
/// circulation over the core cross-section.
pub fn make_ring(spec: &RingSpec) -> (Vec<Vec3>, Vec<Vec3>) {
    let n = spec.normal.normalized();
    // Orthonormal basis {e1, e2, n}.
    let e1 = if n.x.abs() < 0.9 {
        Vec3::new(1.0, 0.0, 0.0).cross(n).normalized()
    } else {
        Vec3::new(0.0, 1.0, 0.0).cross(n).normalized()
    };
    let e2 = n.cross(e1);

    let mut pos = Vec::new();
    let mut alpha = Vec::new();

    // Core layout: one central filament plus (n_core − 1) concentric
    // circles of 6·k particles at radius k·core/(n_core−1+0.5).
    let mut layers: Vec<(f64, f64, usize)> = Vec::new(); // (core offset ρ, angle ψ count base, count)
    layers.push((0.0, 0.0, 1));
    for k in 1..spec.n_core {
        layers.push((
            spec.core * k as f64 / spec.n_core as f64,
            0.0,
            6 * k,
        ));
    }
    let total_core_points: usize = layers.iter().map(|&(_, _, c)| c).sum();
    let gamma_per_point = spec.circulation / total_core_points as f64;

    for (rho, _, count) in layers {
        for cpt in 0..count {
            let psi = 2.0 * std::f64::consts::PI * cpt as f64 / count as f64;
            // Offset within the cross-sectional plane spanned by
            // (radial direction, n). Handled per azimuthal station below.
            for s in 0..spec.n_phi {
                let phi = 2.0 * std::f64::consts::PI * s as f64 / spec.n_phi as f64;
                let radial = e1 * phi.cos() + e2 * phi.sin();
                let tangent = e2 * phi.cos() - e1 * phi.sin();
                let r_eff = spec.radius + rho * psi.cos();
                let p = spec.center + radial * r_eff + n * (rho * psi.sin());
                let dl = 2.0 * std::f64::consts::PI * r_eff / spec.n_phi as f64;
                pos.push(p);
                alpha.push(tangent * (gamma_per_point * dl));
            }
        }
    }
    (pos, alpha)
}

/// Total vorticity `Ω = Σ α` (an invariant of inviscid evolution).
pub fn total_vorticity(alpha: &[Vec3]) -> Vec3 {
    alpha.iter().copied().sum()
}

/// Linear impulse `I = ½ Σ x × α` (invariant).
pub fn linear_impulse(pos: &[Vec3], alpha: &[Vec3]) -> Vec3 {
    pos.iter()
        .zip(alpha)
        .map(|(&x, &a)| x.cross(a) * 0.5)
        .sum()
}

/// Thin-ring translation speed: `U = Γ/(4πR) · (ln(8R/a) − 0.558)`
/// (Saffman), used to sanity-check the simulated propagation.
#[cfg(test)]
pub fn thin_ring_speed(circulation: f64, radius: f64, core: f64) -> f64 {
    circulation / (4.0 * std::f64::consts::PI * radius)
        * ((8.0 * radius / core).ln() - 0.558)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RingSpec {
        RingSpec {
            center: Vec3::ZERO,
            normal: Vec3::new(0.0, 0.0, 1.0),
            radius: 1.0,
            core: 0.1,
            circulation: 1.0,
            n_phi: 64,
            n_core: 3,
        }
    }

    #[test]
    fn ring_geometry() {
        let (pos, alpha) = make_ring(&spec());
        assert_eq!(pos.len(), alpha.len());
        assert_eq!(pos.len(), 64 * (1 + 6 + 12));
        // All particles near the torus: |r_xy - R| ≲ core, |z| ≲ core.
        for p in &pos {
            let r_xy = (p.x * p.x + p.y * p.y).sqrt();
            assert!((r_xy - 1.0).abs() < 0.11, "radius {r_xy}");
            assert!(p.z.abs() < 0.11);
        }
    }

    #[test]
    fn total_circulation_encoded() {
        // Σ|α| ≈ Γ · 2πR (filament strength times length).
        let (_, alpha) = make_ring(&spec());
        let total: f64 = alpha.iter().map(|a| a.norm()).sum();
        let expect = 1.0 * 2.0 * std::f64::consts::PI * 1.0;
        assert!((total - expect).abs() < 0.1 * expect, "total {total} vs {expect}");
        // Σα ≈ 0 by symmetry (tangents cancel around the ring).
        assert!(total_vorticity(&alpha).norm() < 1e-10);
    }

    #[test]
    fn impulse_points_along_normal() {
        // I = ½Σ x×α for a ring of circulation Γ: magnitude ≈ Γ π R².
        let (pos, alpha) = make_ring(&spec());
        let imp = linear_impulse(&pos, &alpha);
        assert!(imp.z > 0.0);
        assert!(imp.x.abs() < 1e-10 && imp.y.abs() < 1e-10);
        let expect = std::f64::consts::PI;
        assert!((imp.z - expect).abs() < 0.05 * expect, "impulse {imp:?} vs {expect}");
    }

    #[test]
    fn tilted_ring_respects_normal() {
        let mut s = spec();
        s.normal = Vec3::new(1.0, 1.0, 0.0);
        let (pos, alpha) = make_ring(&s);
        let imp = linear_impulse(&pos, &alpha);
        let dir = imp.normalized();
        let want = s.normal.normalized();
        assert!((dir - want).norm() < 1e-6, "impulse direction {dir:?}");
        assert!(!pos.is_empty());
    }

    #[test]
    fn saffman_speed_reasonable() {
        let u = thin_ring_speed(1.0, 1.0, 0.1);
        // ln(80) − 0.558 ≈ 3.82; U ≈ 0.304.
        assert!((u - 0.304).abs() < 0.01, "speed {u}");
    }
}

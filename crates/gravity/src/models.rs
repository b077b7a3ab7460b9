//! Initial-condition generators for gravitational test problems.

use hot_base::{Aabb, Vec3};
use rand::Rng;

/// Uniform random points inside a sphere of `radius` about `center`.
#[cfg(test)]
pub fn uniform_sphere(
    rng: &mut impl Rng,
    n: usize,
    center: Vec3,
    radius: f64,
) -> Vec<Vec3> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let p = Vec3::new(
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
        );
        if p.norm2() <= 1.0 {
            out.push(center + p * radius);
        }
    }
    out
}

/// Uniform random points in a box.
pub fn uniform_box(rng: &mut impl Rng, n: usize, domain: &Aabb) -> Vec<Vec3> {
    let ext = domain.extent();
    (0..n)
        .map(|_| {
            domain.min
                + Vec3::new(
                    rng.gen::<f64>() * ext.x,
                    rng.gen::<f64>() * ext.y,
                    rng.gen::<f64>() * ext.z,
                )
        })
        .collect()
}

/// A Plummer-model sphere (the classic collisionless equilibrium used for
/// galaxy-scale N-body testing), in standard units: total mass 1, scale
/// radius 1, virial equilibrium. Returns `(positions, velocities)` about
/// the origin. Uses Aarseth, Hénon & Wielen's sampling.
pub fn plummer(rng: &mut impl Rng, n: usize) -> (Vec<Vec3>, Vec<Vec3>) {
    let mut pos = Vec::with_capacity(n);
    let mut vel = Vec::with_capacity(n);
    for _ in 0..n {
        // Radius from the cumulative mass profile.
        let m: f64 = rng.gen_range(1e-8..1.0 - 1e-8);
        let r = (m.powf(-2.0 / 3.0) - 1.0).powf(-0.5);
        pos.push(random_direction(rng) * r);
        // Velocity via von Neumann rejection on g(q) = q²(1−q²)^{7/2}.
        let ve = std::f64::consts::SQRT_2 * (1.0 + r * r).powf(-0.25);
        let q = loop {
            let q: f64 = rng.gen();
            let g: f64 = rng.gen::<f64>() * 0.1;
            if g < q * q * (1.0 - q * q).powf(3.5) {
                break q;
            }
        };
        vel.push(random_direction(rng) * (q * ve));
    }
    // Drift removal keeps diagnostics clean.
    let com: Vec3 = pos.iter().copied().sum::<Vec3>() / n as f64;
    let cov: Vec3 = vel.iter().copied().sum::<Vec3>() / n as f64;
    for p in &mut pos {
        *p -= com;
    }
    for v in &mut vel {
        *v -= cov;
    }
    (pos, vel)
}

/// A random unit vector.
pub fn random_direction(rng: &mut impl Rng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
            rng.gen::<f64>() * 2.0 - 1.0,
        );
        let n2 = v.norm2();
        if n2 > 1e-8 && n2 <= 1.0 {
            return v * (1.0 / n2.sqrt());
        }
    }
}

/// A cubic domain comfortably containing all `pos` (5% margin).
pub fn bounding_domain(pos: &[Vec3]) -> Aabb {
    Aabb::containing(pos.iter().copied()).bounding_cube().scaled(1.05)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sphere_points_inside() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let c = Vec3::new(1.0, 2.0, 3.0);
        let pts = uniform_sphere(&mut rng, 500, c, 2.0);
        assert_eq!(pts.len(), 500);
        assert!(pts.iter().all(|p| (*p - c).norm() <= 2.0 + 1e-12));
        // Not all in a tiny ball: spread sanity.
        let mean_r: f64 = pts.iter().map(|p| (*p - c).norm()).sum::<f64>() / 500.0;
        assert!(mean_r > 1.0, "mean radius {mean_r}");
    }

    #[test]
    fn plummer_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 4000;
        let (pos, vel) = plummer(&mut rng, n);
        assert_eq!(pos.len(), n);
        // Half-mass radius of a Plummer sphere ≈ 1.30 scale radii.
        let mut radii: Vec<f64> = pos.iter().map(|p| p.norm()).collect();
        radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rh = radii[n / 2];
        assert!((rh - 1.30).abs() < 0.15, "half-mass radius {rh}");
        // Virial check: 2K + W ≈ 0. K per unit mass; W via direct sum.
        let ke: f64 = vel.iter().map(|v| 0.5 * v.norm2() / n as f64).sum();
        let mut pe = 0.0;
        let m = 1.0 / n as f64;
        for i in 0..n {
            for j in i + 1..n {
                pe -= m * m / (pos[i] - pos[j]).norm();
            }
        }
        let virial = 2.0 * ke / pe.abs();
        assert!((virial - 1.0).abs() < 0.1, "virial ratio {virial}");
        // COM motion removed.
        let com: Vec3 = pos.iter().copied().sum::<Vec3>() / n as f64;
        assert!(com.norm() < 1e-12);
    }

    #[test]
    fn directions_are_unit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let d = random_direction(&mut rng);
            assert!((d.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bounding_domain_contains() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let pts = uniform_sphere(&mut rng, 200, Vec3::splat(5.0), 3.0);
        let d = bounding_domain(&pts);
        for p in &pts {
            assert!(d.contains(*p), "{p:?} outside {d:?}");
        }
        // Cubic.
        let e = d.extent();
        assert!((e.x - e.y).abs() < 1e-12 && (e.y - e.z).abs() < 1e-12);
    }
}

//! Gaussian random fields and Zel'dovich initial conditions.
//!
//! Reproduces the paper's IC pipeline: a white-noise grid is coloured by
//! the CDM power spectrum through a 3-D FFT, differentiated in k-space to
//! obtain the displacement field, and particles are displaced off a uniform
//! lattice with matching (growing-mode) peculiar velocities — the
//! Zel'dovich approximation. An Einstein–de Sitter background (Ω = 1, the
//! standard CDM choice of the era) fixes the growth rates.

use crate::fft::Grid3;
use hot_base::fft::Complex;
use crate::power::CdmSpectrum;
use hot_base::Vec3;
use rand::Rng;
use rand_distr_normal::StandardNormalish;

/// Minimal standard-normal sampler (Box–Muller) so we stay within the
/// sanctioned dependency set (`rand` without `rand_distr`).
mod rand_distr_normal {
    use rand::Rng;

    /// Box–Muller standard normal.
    pub struct StandardNormalish;

    impl StandardNormalish {
        /// One N(0,1) sample.
        pub fn sample(rng: &mut impl Rng) -> f64 {
            loop {
                let u1: f64 = rng.gen();
                if u1 <= f64::MIN_POSITIVE {
                    continue;
                }
                let u2: f64 = rng.gen();
                return (-2.0 * u1.ln()).sqrt()
                    * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }
}

/// A realization of the linear density field on an `n³` grid in a box of
/// side `box_size` (Mpc/h).
pub struct DensityField {
    /// Real-space overdensity δ.
    pub delta: Grid3,
    /// Box side.
    pub box_size: f64,
}

/// Generate a Gaussian random field with the given spectrum: white noise →
/// FFT → colour by √P(k) → inverse FFT.
pub fn gaussian_field(
    rng: &mut impl Rng,
    n: usize,
    box_size: f64,
    spectrum: &CdmSpectrum,
) -> DensityField {
    let mut g = Grid3::zeros(n);
    for v in &mut g.data {
        *v = Complex::new(StandardNormalish::sample(rng), 0.0);
    }
    g.fft3(false);
    // Colour. The discrete-continuum normalization: δ_k scales with
    // sqrt(P(k) · n³ / V).
    let vol = box_size * box_size * box_size;
    let norm = ((n * n * n) as f64 / vol).sqrt();
    colour_by(&mut g, box_size, |k| spectrum.power(k).sqrt() * norm);
    g.fft3(true);
    // Imaginary residue from rounding is discarded.
    for v in &mut g.data {
        v.im = 0.0;
    }
    DensityField { delta: g, box_size }
}

fn colour_by(g: &mut Grid3, box_size: f64, f: impl Fn(f64) -> f64) {
    let n = g.n;
    for iz in 0..n {
        let kz = g.wavenumber(iz, box_size);
        for iy in 0..n {
            let ky = g.wavenumber(iy, box_size);
            for ix in 0..n {
                let kx = g.wavenumber(ix, box_size);
                let k = (kx * kx + ky * ky + kz * kz).sqrt();
                let idx = g.idx(ix, iy, iz);
                let s = if k > 0.0 { f(k) } else { 0.0 };
                g.data[idx] = g.data[idx].scale(s);
            }
        }
    }
}

/// Zel'dovich initial conditions: particle positions and peculiar
/// velocities for a lattice of `n³` particles displaced by the field.
pub struct ZeldovichIcs {
    /// Comoving positions inside `[0, box_size)³`.
    pub pos: Vec<Vec3>,
    /// Peculiar velocities in units where the `EdS` growing mode has
    /// `v = H a f D ψ` with `f = 1`; we return `ψ · (growth velocity
    /// factor)` with the factor folded in by the caller via `vel_factor`.
    pub vel: Vec<Vec3>,
    /// Box side.
    pub box_size: f64,
    /// RMS displacement in box units (diagnostic: should be ≪ the mean
    /// interparticle spacing for the Zel'dovich step to be valid).
    pub rms_displacement: f64,
}

/// Build Zel'dovich ICs from a density field.
///
/// `growth` scales the displacement (the linear growth factor D at the
/// start redshift relative to the field's normalization epoch) and
/// `vel_factor` converts displacements into the velocity variable of the
/// integrator (`EdS` growing mode: `v ∝ ψ`).
pub fn zeldovich(field: &DensityField, growth: f64, vel_factor: f64) -> ZeldovichIcs {
    let n = field.delta.n;
    let box_size = field.box_size;
    // Displacement field in k-space: ψ_k = i k δ_k / k², one FFT per axis.
    let mut psi = [Grid3::zeros(n), Grid3::zeros(n), Grid3::zeros(n)];
    // δ_k:
    let mut dk = Grid3::zeros(n);
    dk.data.copy_from_slice(&field.delta.data);
    dk.fft3(false);

    for axis in 0..3 {
        let g = &mut psi[axis];
        for iz in 0..n {
            let kz = dk.wavenumber(iz, box_size);
            for iy in 0..n {
                let ky = dk.wavenumber(iy, box_size);
                for ix in 0..n {
                    let kx = dk.wavenumber(ix, box_size);
                    let k2 = kx * kx + ky * ky + kz * kz;
                    let idx = dk.idx(ix, iy, iz);
                    if k2 == 0.0 {
                        g.data[idx] = Complex::ZERO;
                        continue;
                    }
                    let ka = [kx, ky, kz][axis];
                    // i·ka/k² · δ_k
                    let d = dk.data[idx];
                    g.data[idx] = Complex::new(-ka / k2 * d.im, ka / k2 * d.re);
                }
            }
        }
        g.fft3(true);
    }

    let cell = box_size / n as f64;
    let mut pos = Vec::with_capacity(n * n * n);
    let mut vel = Vec::with_capacity(n * n * n);
    let mut rms = 0.0;
    for iz in 0..n {
        for iy in 0..n {
            for ix in 0..n {
                let idx = psi[0].idx(ix, iy, iz);
                let d = Vec3::new(psi[0].data[idx].re, psi[1].data[idx].re, psi[2].data[idx].re)
                    * growth;
                rms += d.norm2();
                let lattice = Vec3::new(
                    (ix as f64 + 0.5) * cell,
                    (iy as f64 + 0.5) * cell,
                    (iz as f64 + 0.5) * cell,
                );
                let mut p = lattice + d;
                // Periodic wrap into the box.
                for a in 0..3 {
                    p[a] = p[a].rem_euclid(box_size);
                }
                pos.push(p);
                vel.push(d * vel_factor);
            }
        }
    }
    let rms_displacement = (rms / (n * n * n) as f64).sqrt();
    ZeldovichIcs { pos, vel, box_size, rms_displacement }
}

/// The paper's multi-mass sphere construction: keep the high-resolution
/// sphere of radius `r_high` about the box center; in the buffer shell out
/// to `r_buffer`, keep each particle with probability 1/8 at 8× mass;
/// discard the rest. Returns `(positions, velocities, masses)`.
pub fn sphere_with_buffer(
    rng: &mut impl Rng,
    ics: &ZeldovichIcs,
    base_mass: f64,
    r_high: f64,
    r_buffer: f64,
) -> (Vec<Vec3>, Vec<Vec3>, Vec<f64>) {
    let c = Vec3::splat(ics.box_size * 0.5);
    let mut pos = Vec::new();
    let mut vel = Vec::new();
    let mut mass = Vec::new();
    for (p, v) in ics.pos.iter().zip(&ics.vel) {
        let r = (*p - c).norm();
        if r <= r_high {
            pos.push(*p);
            vel.push(*v);
            mass.push(base_mass);
        } else if r <= r_buffer && rng.gen::<f64>() < 0.125 {
            pos.push(*p);
            vel.push(*v);
            mass.push(base_mass * 8.0);
        }
    }
    (pos, vel, mass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn spectrum() -> CdmSpectrum {
        CdmSpectrum::default().normalized_to_sigma8(0.7)
    }

    #[test]
    fn field_is_zero_mean_and_real() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let f = gaussian_field(&mut rng, 32, 100.0, &spectrum());
        let mean: f64 =
            f.delta.data.iter().map(|v| v.re).sum::<f64>() / f.delta.data.len() as f64;
        let var: f64 =
            f.delta.data.iter().map(|v| v.re * v.re).sum::<f64>() / f.delta.data.len() as f64;
        assert!(mean.abs() < 0.05 * var.sqrt().max(1e-9), "mean {mean}, sigma {}", var.sqrt());
        assert!(var > 0.0, "field has power");
        assert!(f.delta.data.iter().all(|v| v.im == 0.0));
    }

    #[test]
    fn measured_spectrum_tracks_input() {
        // Bin |δ_k|² and compare the ratio at two well-separated k bins to
        // the input spectrum ratio.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 32;
        let l = 100.0;
        let s = spectrum();
        let f = gaussian_field(&mut rng, n, l, &s);
        let mut g = Grid3::zeros(n);
        g.data.copy_from_slice(&f.delta.data);
        g.fft3(false);
        let vol = l * l * l;
        let norm = vol / (n as f64).powi(6); // |δ_k|²·V/N⁶ estimates P(k)
        let mut bins = vec![(0.0f64, 0u32); 20];
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    let k = {
                        let kx = g.wavenumber(ix, l);
                        let ky = g.wavenumber(iy, l);
                        let kz = g.wavenumber(iz, l);
                        (kx * kx + ky * ky + kz * kz).sqrt()
                    };
                    if k <= 0.0 {
                        continue;
                    }
                    let b = ((k / (2.0 * std::f64::consts::PI / l)).round() as usize).min(19);
                    bins[b].0 += g.at(ix, iy, iz).norm2() * norm;
                    bins[b].1 += 1;
                }
            }
        }
        // Compare bins 2 and 8.
        let p2 = bins[2].0 / bins[2].1 as f64;
        let p8 = bins[8].0 / bins[8].1 as f64;
        let k2 = 2.0 * 2.0 * std::f64::consts::PI / l;
        let k8 = 8.0 * 2.0 * std::f64::consts::PI / l;
        let expect = s.power(k2) / s.power(k8);
        let got = p2 / p8;
        assert!(
            (got / expect - 1.0).abs() < 0.5,
            "spectrum ratio: got {got}, expect {expect}"
        );
    }

    #[test]
    fn zeldovich_displaces_lattice() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 16;
        let f = gaussian_field(&mut rng, n, 50.0, &spectrum());
        let ics = zeldovich(&f, 1.0, 1.0);
        assert_eq!(ics.pos.len(), n * n * n);
        assert!(ics.rms_displacement > 0.0);
        // All positions wrapped into the box.
        for p in &ics.pos {
            for a in 0..3 {
                assert!((0.0..50.0).contains(&p[a]));
            }
        }
        // Velocities parallel to displacements (vel_factor = 1 ⇒ equal).
        let cell = 50.0 / n as f64;
        let lattice0 = Vec3::splat(0.5 * cell);
        let d0 = ics.pos[0] - lattice0;
        assert!((d0 - ics.vel[0]).norm() < 1e-9 || d0.norm() > 25.0 /* wrapped */);
    }

    #[test]
    fn zeldovich_growth_scales_displacement() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let f = gaussian_field(&mut rng, 16, 50.0, &spectrum());
        let a = zeldovich(&f, 0.5, 1.0);
        let b = zeldovich(&f, 1.0, 1.0);
        assert!((b.rms_displacement / a.rms_displacement - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sphere_buffer_masses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let f = gaussian_field(&mut rng, 16, 100.0, &spectrum());
        let ics = zeldovich(&f, 0.2, 1.0);
        let (pos, vel, mass) = sphere_with_buffer(&mut rng, &ics, 1.0, 25.0, 50.0);
        assert_eq!(pos.len(), vel.len());
        assert_eq!(pos.len(), mass.len());
        assert!(!pos.is_empty());
        let c = Vec3::splat(50.0);
        let mut high = 0;
        let mut buf = 0;
        for (p, m) in pos.iter().zip(&mass) {
            let r = (*p - c).norm();
            if *m == 1.0 {
                assert!(r <= 25.0 + 1.0, "high-res particle outside sphere: r={r}");
                high += 1;
            } else {
                assert_eq!(*m, 8.0);
                assert!(r > 24.0 && r <= 50.0 + 1.0, "buffer particle radius {r}");
                buf += 1;
            }
        }
        assert!(high > 0 && buf > 0);
        // The shell volume is ~7× the sphere volume but sampled at 1/8:
        // counts are the same order, far below 7×.
        assert!((buf as f64) < 3.0 * high as f64, "high {high} buf {buf}");
    }
}

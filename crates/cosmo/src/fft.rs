//! Fast Fourier transforms, built from scratch.
//!
//! The paper's initial conditions were "calculated using a 1024³ point 3-d
//! FFT from a Cold Dark Matter power spectrum of density fluctuations" (and
//! a 512³ FFT run *on Loki itself* for the 9.75M-particle simulation). This
//! module supplies that substrate: a 3-D transform built from axis passes
//! over independent lines, each `hot_base`'s iterative radix-2
//! Cooley–Tukey transform — no external FFT dependency.

use hot_base::fft::{fft_inplace, Complex};

/// A cubic complex grid of side `n` (row-major `[z][y][x]`).
pub struct Grid3 {
    /// Side length (power of two).
    pub n: usize,
    /// `n³` values.
    pub data: Vec<Complex>,
}

impl Grid3 {
    /// Zero-filled grid.
    pub fn zeros(n: usize) -> Self {
        assert!(n.is_power_of_two(), "grid side must be a power of two");
        Grid3 { n, data: vec![Complex::ZERO; n * n * n] }
    }

    /// Linear index of `(ix, iy, iz)`.
    #[inline(always)]
    pub fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (iz * self.n + iy) * self.n + ix
    }

    /// Access.
    #[inline(always)]
    pub fn at(&self, ix: usize, iy: usize, iz: usize) -> Complex {
        self.data[self.idx(ix, iy, iz)]
    }

    /// Mutate.
    #[inline(always)]
    pub fn set(&mut self, ix: usize, iy: usize, iz: usize, v: Complex) {
        let i = self.idx(ix, iy, iz);
        self.data[i] = v;
    }

    /// In-place 3-D FFT (forward or inverse-unnormalized), one axis at a
    /// time.
    pub fn fft3(&mut self, inverse: bool) {
        let n = self.n;
        // X lines: contiguous.
        self.data.chunks_mut(n).for_each(|line| fft_inplace(line, inverse));
        // Y lines: stride n within each z-plane. Transpose-free: gather.
        let plane = n * n;
        self.data.chunks_mut(plane).for_each(|zplane| {
            let mut line = vec![Complex::ZERO; n];
            for x in 0..n {
                for y in 0..n {
                    line[y] = zplane[y * n + x];
                }
                fft_inplace(&mut line, inverse);
                for y in 0..n {
                    zplane[y * n + x] = line[y];
                }
            }
        });
        // Z lines: stride n² — gather each (x, y) column, transform, scatter.
        let data = &mut self.data;
        let mut line = vec![Complex::ZERO; n];
        for xy in 0..plane {
            for z in 0..n {
                line[z] = data[z * plane + xy];
            }
            fft_inplace(&mut line, inverse);
            for z in 0..n {
                data[z * plane + xy] = line[z];
            }
        }
        if inverse {
            let s = 1.0 / (n * n * n) as f64;
            data.iter_mut().for_each(|v| *v = v.scale(s));
        }
    }

    /// The physical wavenumber components of grid cell `(i, j, k)` for a
    /// box of side `box_size`: frequencies above n/2 alias to negatives.
    pub fn wavenumber(&self, i: usize, box_size: f64) -> f64 {
        let n = self.n as isize;
        let ii = i as isize;
        let m = if ii <= n / 2 { ii } else { ii - n };
        2.0 * std::f64::consts::PI * m as f64 / box_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn grid3_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let n = 16;
        let mut g = Grid3::zeros(n);
        let orig: Vec<Complex> =
            (0..n * n * n).map(|_| Complex::new(rng.gen::<f64>() - 0.5, 0.0)).collect();
        g.data.copy_from_slice(&orig);
        g.fft3(false);
        g.fft3(true);
        for (a, b) in g.data.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-11 && a.im.abs() < 1e-11);
        }
    }

    #[test]
    fn grid3_plane_wave_has_single_mode() {
        // f(x) = cos(2π·3x/n): spectrum concentrates at kx = ±3.
        let n = 32;
        let mut g = Grid3::zeros(n);
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let v = (2.0 * std::f64::consts::PI * 3.0 * x as f64 / n as f64).cos();
                    g.set(x, y, z, Complex::new(v, 0.0));
                }
            }
        }
        g.fft3(false);
        let total: f64 = g.data.iter().map(|v| v.norm2()).sum();
        let peak = g.at(3, 0, 0).norm2() + g.at(n - 3, 0, 0).norm2();
        assert!(peak / total > 0.999, "peak fraction {}", peak / total);
    }

    #[test]
    fn wavenumbers_alias_correctly() {
        let g = Grid3::zeros(8);
        let l = 1.0;
        assert_eq!(g.wavenumber(0, l), 0.0);
        assert!(g.wavenumber(1, l) > 0.0);
        assert!(g.wavenumber(7, l) < 0.0, "high indices are negative frequencies");
        assert!((g.wavenumber(7, l) + g.wavenumber(1, l)).abs() < 1e-12);
    }
}

//! Fast Fourier transforms, built from scratch.
//!
//! The paper's initial conditions were "calculated using a 1024³ point 3-d
//! FFT from a Cold Dark Matter power spectrum of density fluctuations" (and
//! a 512³ FFT run *on Loki itself* for the 9.75M-particle simulation). This
//! module supplies that substrate: an iterative radix-2 Cooley–Tukey
//! complex transform and a 3-D transform built from axis passes over independent
//! lines — no external FFT dependency.

/// A complex number (kept local: the FFT is the only consumer heavy enough
/// to warrant the type, and `num-complex` would be a new dependency).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Scale by a real.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }

    /// Squared magnitude.
    #[inline(always)]
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// `e^{iθ}`.
    #[inline(always)]
    pub fn cis(theta: f64) -> Complex {
        Complex::new(theta.cos(), theta.sin())
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline(always)]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline(always)]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline(always)]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}

/// In-place iterative radix-2 FFT. `inverse` applies the conjugate
/// transform *without* the 1/N normalization (a round trip returns the
/// input scaled by N).
///
/// # Panics
///
/// Panics unless `data.len()` is a power of two.
pub fn fft_inplace(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

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

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut s = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let w = Complex::cis(-2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64);
                    s = s + v * w;
                }
                s
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for n in [1usize, 2, 4, 8, 32, 128] {
            let x: Vec<Complex> =
                (0..n).map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)).collect();
            let want = naive_dft(&x);
            let mut got = x.clone();
            fft_inplace(&mut got, false);
            for (a, b) in got.iter().zip(&want) {
                assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x: Vec<Complex> =
            (0..256).map(|_| Complex::new(rng.gen(), rng.gen())).collect();
        let mut y = x.clone();
        fft_inplace(&mut y, false);
        fft_inplace(&mut y, true);
        for (a, b) in y.iter().zip(&x) {
            let a = a.scale(1.0 / 256.0);
            assert!((a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x: Vec<Complex> = (0..512).map(|_| Complex::new(rng.gen(), 0.0)).collect();
        let time_energy: f64 = x.iter().map(|v| v.norm2()).sum();
        let mut y = x;
        fft_inplace(&mut y, false);
        let freq_energy: f64 = y.iter().map(|v| v.norm2()).sum::<f64>() / 512.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn delta_transforms_to_constant() {
        let mut x = vec![Complex::ZERO; 64];
        x[0] = Complex::new(1.0, 0.0);
        fft_inplace(&mut x, false);
        for v in &x {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex::ZERO; 12];
        fft_inplace(&mut x, false);
    }

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

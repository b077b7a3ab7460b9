//! The radix-2 FFT: one complex line transform, shared by the
//! cosmological initial conditions (`hot-cosmo`'s 3-D grid) and the NAS FT
//! benchmark (`hot-npb`).

/// A complex number (kept here: the FFTs are the only consumers heavy
/// enough to warrant the type, and `num-complex` would be a new
/// dependency).
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
}

//! Reciprocal square root from adds and multiplies only.
//!
//! The paper obtains "optimal performance on the Pentium Pro processor by
//! decomposing the reciprocal square root function required for a
//! gravitational interaction into a table lookup, Chebychev polynomial
//! interpolation, and Newton-Raphson iteration, using the algorithm of Karp
//! \[A. H. Karp, *Speeding up N-body calculations on machines without
//! hardware square root*, Scientific Programming 1:133–140, 1993\]. This
//! algorithm uses only adds and multiplies."
//!
//! This module is a faithful reconstruction of that scheme:
//!
//! 1. **Exponent peeling** (bit manipulation, not a flop): write
//!    `x = m·2ᵉ` with `m ∈ [1,2)`, so `x⁻¹ᐟ² = m⁻¹ᐟ²·2⁻ᵉᐟ²`, folding an
//!    extra `2⁻¹ᐟ²` in when `e` is odd.
//! 2. **Table lookup**: the top [`TABLE_BITS`] mantissa bits select one of
//!    [`TABLE_SIZE`] precomputed interval midpoints `mᵢ` with `rᵢ = mᵢ⁻¹ᐟ²`.
//! 3. **Polynomial interpolation** in `t = (m−mᵢ)/mᵢ` (the stored value is
//!    `1/mᵢ`, so this is one subtract and one multiply):
//!    `y₀ = rᵢ·(1 − t/2 + 3t²/8)`, good to ≈23 bits.
//! 4. **Newton–Raphson**: `y ← y·(3/2 − x·y²/2)`, doubling the accurate
//!    bits each pass. One pass suffices for `f32`; two for `f64`.
//!
//! No division or square root instruction appears anywhere on the fast path.
//!
//! [`rsqrt`] is the scalar definition and the oracle; [`rsqrt_lanes`] does
//! the same steps on several values at once, bit for bit, in a shape the
//! compiler vectorises — gravity's lane body (behind
//! `hot_gravity::kernels::apply_segment`) calls it with one sink per lane.

/// log2 of the seed-table size.
pub const TABLE_BITS: u32 = 6;
/// Number of seed-table entries.
pub const TABLE_SIZE: usize = 1 << TABLE_BITS;

#[derive(Clone, Copy)]
struct Entry {
    /// `1/sqrt(m_i)` at the interval midpoint.
    r: f64,
    /// `1/m_i`, so computing `t` costs a multiply instead of a divide.
    inv_m: f64,
}

/// Converged Newton iteration for `sqrt(x)` — `f64::sqrt` is not callable
/// in const contexts. For the table's `x ∈ [1, 2]` the fixed point (within
/// one ulp of the true root) is reached long before the iteration cap, and
/// a one-ulp seed difference washes out in [`rsqrt`]'s two Newton–Raphson
/// passes.
const fn const_sqrt(x: f64) -> f64 {
    let mut y = x;
    let mut i = 0;
    while i < 64 {
        y = 0.5 * (y + x / y);
        i += 1;
    }
    y
}

/// The seed table, built at compile time: a plain static keeps the lookup
/// off any lazy-init path — the load sits on the serial dependency chain
/// of every interaction, so even an atomic-load-plus-branch ahead of it is
/// measurable in the kernel inner loops.
static TABLE: [Entry; TABLE_SIZE] = {
    let mut t = [Entry { r: 0.0, inv_m: 0.0 }; TABLE_SIZE];
    let mut i = 0;
    while i < TABLE_SIZE {
        // Interval [1 + i/T, 1 + (i+1)/T); interpolate about its midpoint.
        let m_i = 1.0 + (i as f64 + 0.5) / TABLE_SIZE as f64;
        t[i] = Entry { r: 1.0 / const_sqrt(m_i), inv_m: 1.0 / m_i };
        i += 1;
    }
    t
};

const MANT_MASK: u64 = (1u64 << 52) - 1;
const EXP_BIAS: i64 = 1023;
/// `2^(-1/2)`, folded in for odd exponents.
const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Reciprocal square root of a positive, normal `f64`, computed with adds
/// and multiplies only (Karp's algorithm). Accurate to within a few ulp.
///
/// # Panics
///
/// Debug builds panic when `x` is not a positive normal number; release
/// builds return garbage for such inputs (the N-body kernels always pass
/// `r² + ε² > 0`).
#[inline]
pub fn rsqrt(x: f64) -> f64 {
    debug_assert!(x.is_normal() && x > 0.0, "rsqrt domain: got {x}");
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - EXP_BIAS;
    // Mantissa with the exponent forced to 0 => m in [1, 2).
    let m = f64::from_bits((bits & MANT_MASK) | ((EXP_BIAS as u64) << 52));
    let idx = ((bits & MANT_MASK) >> (52 - TABLE_BITS)) as usize;
    let ent = TABLE[idx];

    // Seed: r_i * (1 - t/2 + 3 t^2 / 8) with t = m/m_i - 1 = m*inv_m - 1,
    // |t| <= 1/(2*TABLE_SIZE). One multiply + one subtract, no divide.
    let t = m * ent.inv_m - 1.0;
    let y0 = ent.r * (1.0 + t * (-0.5 + t * 0.375));

    // Two Newton–Raphson passes on f(y) = y^-2 - m.
    let y1 = y0 * (1.5 - 0.5 * m * y0 * y0);
    let y2 = y1 * (1.5 - 0.5 * m * y1 * y1);

    // Scale by 2^(-e/2); odd exponents fold in 1/sqrt(2).
    let k = e.div_euclid(2);
    let odd = e.rem_euclid(2) == 1;
    let scale = f64::from_bits(((EXP_BIAS - k) as u64) << 52);
    let scale = if odd { scale * INV_SQRT2 } else { scale };
    y2 * scale
}

/// Single-precision reciprocal square root (one Newton–Raphson pass), as the
/// original code used for force accumulation in `f32` contexts.
#[inline]
pub fn rsqrt_f32(x: f32) -> f32 {
    debug_assert!(x.is_normal() && x > 0.0, "rsqrt_f32 domain: got {x}");
    let xd = x as f64;
    let bits = xd.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - EXP_BIAS;
    let m = f64::from_bits((bits & MANT_MASK) | ((EXP_BIAS as u64) << 52));
    let idx = ((bits & MANT_MASK) >> (52 - TABLE_BITS)) as usize;
    let ent = TABLE[idx];
    let t = m * ent.inv_m - 1.0;
    let y0 = ent.r * (1.0 + t * (-0.5 + t * 0.375));
    let y1 = y0 * (1.5 - 0.5 * m * y0 * y0);
    let k = e.div_euclid(2);
    let odd = e.rem_euclid(2) == 1;
    let scale = f64::from_bits(((EXP_BIAS - k) as u64) << 52);
    let scale = if odd { scale * INV_SQRT2 } else { scale };
    (y1 * scale) as f32
}

/// `[f(0), …, f(W − 1)]`, filled by a plain counted loop. The lane code
/// here and in `hot-gravity`'s lane body builds every intermediate with
/// it: unlike `std::array::from_fn` (an iterator over uninitialised
/// storage), this shape is one the compiler turns into a single vector
/// operation when the caller is compiled with vector registers.
#[inline(always)]
pub fn per_lane<T: Copy + Default, const W: usize>(mut f: impl FnMut(usize) -> T) -> [T; W] {
    let mut out = [T::default(); W];
    for (l, o) in out.iter_mut().enumerate() {
        *o = f(l);
    }
    out
}

/// [`rsqrt`] of `W` values at once, lane by lane: the same table lookup,
/// seed polynomial, two Newton–Raphson passes and exponent scale, in the
/// same order, so lane `l` of the result is *bitwise* `rsqrt(x[l])`. Each
/// step is one pass over the lanes ([`per_lane`]), so a caller compiled
/// with vector registers gets vector arithmetic; the table lookup stays a
/// scalar load per lane. The exponent is handled without signed shifts:
/// with `u = biased_exponent + 1`, the scale's exponent field
/// `1023 − ⌊e/2⌋` is `1535 − (u >> 1)`, and `e` is odd exactly when `u` is.
///
/// Same domain as [`rsqrt`], per lane.
#[inline(always)]
pub fn rsqrt_lanes<const W: usize>(x: [f64; W]) -> [f64; W] {
    debug_assert!(x.iter().all(|x| x.is_normal() && *x > 0.0), "rsqrt domain: got {x:?}");
    let bits: [u64; W] = per_lane(|l| x[l].to_bits());
    let m: [f64; W] =
        per_lane(|l| f64::from_bits((bits[l] & MANT_MASK) | ((EXP_BIAS as u64) << 52)));
    let idx: [usize; W] = per_lane(|l| ((bits[l] & MANT_MASK) >> (52 - TABLE_BITS)) as usize);
    let r: [f64; W] = per_lane(|l| TABLE[idx[l]].r);
    let inv_m: [f64; W] = per_lane(|l| TABLE[idx[l]].inv_m);
    let t: [f64; W] = per_lane(|l| m[l] * inv_m[l] - 1.0);
    let y0: [f64; W] = per_lane(|l| r[l] * (1.0 + t[l] * (-0.5 + t[l] * 0.375)));
    let y1: [f64; W] = per_lane(|l| y0[l] * (1.5 - 0.5 * m[l] * y0[l] * y0[l]));
    let y2: [f64; W] = per_lane(|l| y1[l] * (1.5 - 0.5 * m[l] * y1[l] * y1[l]));
    per_lane(|l| {
        let u = ((bits[l] >> 52) & 0x7ff) + 1;
        let scale = f64::from_bits((1535 - (u >> 1)) << 52);
        y2[l] * if u & 1 == 1 { scale * INV_SQRT2 } else { scale }
    })
}

/// Maximum relative error of [`rsqrt`] observed across a deterministic sweep
/// of the mantissa/exponent space. Used by the accuracy tests; kept here so
/// the sweep logic lives next to the implementation.
pub fn max_relative_error_sweep(samples_per_octave: usize, octaves: std::ops::Range<i32>) -> f64 {
    let mut worst = 0.0f64;
    for e in octaves {
        for i in 0..samples_per_octave {
            let frac = 1.0 + i as f64 / samples_per_octave as f64;
            let x = frac * (2.0f64).powi(e);
            let approx = rsqrt(x);
            let exact = 1.0 / x.sqrt();
            let rel = ((approx - exact) / exact).abs();
            if rel > worst {
                worst = rel;
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_powers_of_four() {
        // 1/sqrt(4^k) = 2^-k is representable; Newton–Raphson converges to it.
        for k in -20i32..=20 {
            let x = 4.0f64.powi(k);
            let got = rsqrt(x);
            let want = 2.0f64.powi(-k);
            assert!(
                ((got - want) / want).abs() < 1e-15,
                "x=4^{k}: got {got:e}, want {want:e}"
            );
        }
    }

    #[test]
    fn f64_accuracy_sweep() {
        let worst = max_relative_error_sweep(4096, -40..41);
        assert!(worst < 5e-16, "worst relative error {worst:e}");
    }

    #[test]
    fn f64_accuracy_extreme_exponents() {
        for &x in &[1e-300, 3.7e-250, 1e300, 2.2e250, 5e-1, 123456.789] {
            let rel = (rsqrt(x) * x.sqrt() - 1.0).abs();
            assert!(rel < 1e-15, "x={x:e} rel={rel:e}");
        }
    }

    #[test]
    fn f32_accuracy() {
        let mut worst = 0.0f32;
        for i in 1..20000u32 {
            let x = i as f32 * 0.37 + 1e-3;
            let got = rsqrt_f32(x);
            let want = 1.0 / x.sqrt();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
        }
        assert!(worst < 1e-6, "worst f32 relative error {worst:e}");
    }

    /// Every lane of [`rsqrt_lanes`] is bit-for-bit [`rsqrt`], at both
    /// widths gravity's lane body runs (4 and 8): random mantissas under
    /// every normal exponent (so both parities, and a different exponent in
    /// each lane), then the extremes of `f64_accuracy_extreme_exponents`
    /// and the ends of the normal range. This runs at baseline features;
    /// the vectorised 8-wide path is pinned through gravity's
    /// `apply_segment_matches_scalar_bitwise`.
    #[test]
    fn lanes_match_scalar_bitwise() {
        use rand::{Rng, SeedableRng};
        fn check<const W: usize>(x: [f64; W]) {
            let got = rsqrt_lanes(x);
            for l in 0..W {
                assert_eq!(got[l].to_bits(), rsqrt(x[l]).to_bits(), "lane {l} of {x:?}");
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut random = |e: u64, l: usize| {
            let biased = 1 + (e + 511 * l as u64) % 2046;
            f64::from_bits((biased << 52) | (rng.gen::<u64>() & MANT_MASK))
        };
        for e in 0u64..2046 {
            for _ in 0..16 {
                check::<4>(std::array::from_fn(|l| random(e, l)));
                check::<8>(std::array::from_fn(|l| random(e, l)));
            }
        }
        check([1e-300, 3.7e-250, 1e300, 2.2e250]);
        check([5e-1, 123456.789, f64::MIN_POSITIVE, f64::MAX]);
        check([1e-300, 3.7e-250, 1e300, 2.2e250, 5e-1, 123456.789, f64::MIN_POSITIVE, f64::MAX]);
        assert_eq!(rsqrt_lanes([4.0])[0].to_bits(), rsqrt(4.0).to_bits());
    }

    #[test]
    fn odd_even_exponent_boundary() {
        // Walk across several exponent boundaries; parity handling must not jump.
        for e in -6..6 {
            for &frac in &[1.0000001f64, 1.9999999] {
                let x = frac * 2f64.powi(e);
                let rel = (rsqrt(x) * x.sqrt() - 1.0).abs();
                assert!(rel < 1e-15, "x={x:e} rel={rel:e}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rsqrt domain")]
    fn rejects_zero_in_debug() {
        let _ = rsqrt(0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rsqrt domain")]
    fn rejects_negative_in_debug() {
        let _ = rsqrt(-1.0);
    }
}

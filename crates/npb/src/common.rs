//! Shared NPB machinery: the pseudorandom generator and result records.
//!
//! The NAS Parallel Benchmarks (Bailey et al.; the paper reports NPB 2.2
//! Class A and B results on Loki, ASCI Red and an SGI Origin in Tables 3
//! and 4 and Figure 3) share a 48-bit linear congruential generator
//! `x_{k+1} = a·x_k mod 2⁴⁶` with `a = 5¹³`. Reproducing it exactly
//! matters: it lets ranks leapfrog into the stream independently, which is
//! what makes EP "embarrassingly parallel".

/// The NPB multiplier a = 5¹³.
pub const NPB_A: u64 = 1_220_703_125;
/// Default seed used by the reference implementations.
pub const NPB_SEED: u64 = 271_828_183;
/// Modulus 2⁴⁶.
const M46: u64 = 1 << 46;
const MASK46: u64 = M46 - 1;

/// The NPB 48-bit LCG.
#[derive(Clone, Copy, Debug)]
pub struct NpbRng {
    x: u64,
}

impl NpbRng {
    /// Start from a seed (mod 2⁴⁶).
    pub fn new(seed: u64) -> Self {
        NpbRng { x: seed & MASK46 }
    }

    /// Next value in `(0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.x = self.x.wrapping_mul(NPB_A) & MASK46;
        self.x as f64 / M46 as f64
    }

    /// Jump the generator forward by `n` steps in O(log n) using modular
    /// exponentiation of the multiplier — the NPB "randlc/ipow46" trick
    /// each rank uses to find its slice of the stream.
    pub fn skip(seed: u64, n: u64) -> Self {
        // a^n mod 2^46
        let mut result: u64 = 1;
        let mut base = NPB_A & MASK46;
        let mut e = n;
        while e > 0 {
            if e & 1 == 1 {
                result = result.wrapping_mul(base) & MASK46;
            }
            base = base.wrapping_mul(base) & MASK46;
            e >>= 1;
        }
        NpbRng { x: (seed & MASK46).wrapping_mul(result) & MASK46 }
    }
}

/// Outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name ("EP", "IS", …).
    pub name: &'static str,
    /// Problem-size class label.
    pub class: &'static str,
    /// Ranks used.
    pub np: u32,
    /// Total operations performed (flops, or key-ranks for IS).
    pub ops: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Did the built-in verification pass?
    pub verified: bool,
}

impl BenchResult {
    /// The operations a full NPB code does for this run: the counted ops
    /// times the benchmark's arithmetic-intensity fidelity factor. The
    /// reduced kernels do k × fewer flops per grid point than the real NPB
    /// codes (BT factors 5×5 blocks, LU's SSOR touches 5-component
    /// Jacobians, MG smooths with 27-point stencils); the machine models
    /// price these scaled counts to restore Class-A intensity (the
    /// substitution is recorded in DESIGN.md).
    pub fn class_ops(&self) -> u64 {
        let fidelity = match self.name {
            "BT" => 25,
            "SP" => 8,
            "LU" => 15,
            "MG" => 5,
            _ => 1,
        };
        self.ops * fidelity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = NpbRng::new(NPB_SEED);
        let mut b = NpbRng::new(NPB_SEED);
        for _ in 0..1000 {
            assert_eq!(a.next_f64(), b.next_f64());
        }
    }

    #[test]
    fn values_in_unit_interval_and_well_spread() {
        let mut r = NpbRng::new(NPB_SEED);
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let v = r.next_f64();
            assert!(v > 0.0 && v < 1.0);
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn skip_matches_sequential() {
        // skip(seed, n) must land exactly where n sequential draws do.
        let mut seq = NpbRng::new(NPB_SEED);
        for _ in 0..12_345 {
            seq.next_f64();
        }
        let mut jumped = NpbRng::skip(NPB_SEED, 12_345);
        for _ in 0..10 {
            assert_eq!(seq.next_f64(), jumped.next_f64());
        }
    }

    #[test]
    fn skip_zero_is_identity() {
        let mut a = NpbRng::new(42);
        let mut b = NpbRng::skip(42, 0);
        assert_eq!(a.next_f64(), b.next_f64());
    }
}

//! Online statistics used by the error-analysis and benchmark machinery.

/// Welford single-pass mean/variance accumulator with min/max tracking.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Add one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for < 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Root mean square of the samples: `sqrt(mean² + var)`.
    pub fn rms(&self) -> f64 {
        (self.mean() * self.mean() + self.variance()).sqrt()
    }

    /// Minimum sample (+inf for empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum sample (-inf for empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator (Chan's parallel combination).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Kahan compensated summation: long reductions over millions of particle
/// contributions lose digits with naive accumulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct KahanSum {
    sum: f64,
    c: f64,
}

impl KahanSum {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let y = x - self.c;
        let t = self.sum + y;
        self.c = (t - self.sum) - y;
        self.sum = t;
    }

    /// Current compensated total.
    pub fn total(&self) -> f64 {
        self.sum
    }
}

/// Relative error `|a - b| / max(|b|, floor)`, with a floor to avoid
/// dividing by a vanishing reference.
#[inline]
pub fn relative_error(a: f64, b: f64, floor: f64) -> f64 {
    (a - b).abs() / b.abs().max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.7).sin() * 3.0 + 1.5).collect();
        let mut st = OnlineStats::new();
        for &x in &xs {
            st.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((st.mean() - mean).abs() < 1e-12);
        assert!((st.variance() - var).abs() < 1e-12);
        assert_eq!(st.count(), 1000);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).cos()).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..200] {
            a.push(x);
        }
        for &x in &xs[200..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        let empty = OnlineStats::new();
        a.push(2.0);
        let before = a;
        a.merge(&empty);
        assert_eq!(a.mean(), before.mean());
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.mean(), 2.0);
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn rms_of_constant() {
        let mut st = OnlineStats::new();
        for _ in 0..10 {
            st.push(-3.0);
        }
        assert!((st.rms() - 3.0).abs() < 1e-14);
    }

    #[test]
    fn kahan_beats_naive() {
        // 1 + 1e-16 added 10^7 times: naive summation drops all the tiny terms.
        let mut k = KahanSum::new();
        let mut naive = 0.0f64;
        k.add(1.0);
        naive += 1.0;
        for _ in 0..10_000_000 {
            k.add(1e-16);
            naive += 1e-16;
        }
        let expect = 1.0 + 1e-9;
        assert!((k.total() - expect).abs() < 1e-12);
        assert!((naive - expect).abs() > 1e-10, "naive {naive}");
    }

    #[test]
    fn relative_error_floor() {
        assert_eq!(relative_error(1.0, 0.0, 1.0), 1.0);
        assert!((relative_error(1.1, 1.0, 1e-30) - 0.1).abs() < 1e-12);
    }
}
